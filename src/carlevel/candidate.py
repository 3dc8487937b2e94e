"""The closed-form optimal level-set bound and its special-case oracles.

For a Carleson bound C >= 1 the function evaluated here is

    value(A, t) = 1                                       if t <= 0
                = min(1, A / ceil(t))                     if 0 < t <= floor(C)
                = (A / floor(C)) * ((C-1)/C)^(ceil(t) - floor(C))   otherwise

on the domain A in [0, C], t real.  It equals the supremum, over all
C-Carleson selections with root average A, of the normalized measure of
the set where the height function reaches t.  The fixed-parameter oracles
for C = 1, C = 2 and C = 16/5 are independent transcriptions kept solely
for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .dyadic import RationalLike, grid_top, to_fraction
from .errors import ResourceLimitError

ONE = Fraction(1)
ZERO = Fraction(0)

# Thresholds x averages that a surface export or a grid certificate may visit.
MAX_GRID_POINTS = 1 << 20

# Bits allowed in the exact power decay^(ceil(t) - floor(C)).  CPython prints
# an int of at most 4300 digits (about 14,284 bits); the margin leaves room
# for the average and floor(C) factors, so an accepted value still prints.
MAX_POWER_BITS = 12_000


@dataclass(frozen=True)
class CandidateParams:
    """Carleson bound C with its precomputed floor, fractional part and decay ratio."""

    C: Fraction
    floor_c: int
    frac_c: Fraction
    decay: Fraction

    @classmethod
    def from_constant(cls, C: RationalLike) -> "CandidateParams":
        c = to_fraction(C)
        if c < 1:
            raise ValueError(f"C must be >= 1, got {c}")
        fl = math.floor(c)
        return cls(C=c, floor_c=fl, frac_c=c - fl, decay=(c - 1) / c)


@dataclass(frozen=True)
class BellmanPoint:
    """A point (average, threshold) in the domain [0, C] x R."""

    avg: Fraction
    lam: Fraction


def _require_domain(avg: Fraction, upper: Fraction) -> None:
    if not 0 <= avg <= upper:
        raise ValueError(f"average {avg} outside the domain [0, {upper}]")


def candidate_eval(params: CandidateParams, pt: BellmanPoint) -> Fraction:
    """Evaluate the closed-form bound exactly."""
    _require_domain(pt.avg, params.C)
    if pt.lam <= 0:
        return ONE
    m = math.ceil(pt.lam)
    if pt.lam <= params.floor_c:
        return min(ONE, Fraction(pt.avg, m))
    # the exponent is >= 1 here, so the C = 1 case decays to exactly 0
    return (pt.avg / params.floor_c) * params.decay ** (m - params.floor_c)


def candidate_c1(pt: BellmanPoint) -> Fraction:
    """Fixed C = 1 oracle: pairwise-disjoint selections only."""
    _require_domain(pt.avg, ONE)
    if pt.lam <= 0:
        return ONE
    if pt.lam <= 1:
        return pt.avg
    return ZERO


def candidate_c2(pt: BellmanPoint) -> Fraction:
    """Fixed C = 2 oracle."""
    _require_domain(pt.avg, Fraction(2))
    if pt.lam <= 0:
        return ONE
    if pt.lam <= 1:
        return min(ONE, pt.avg)
    return pt.avg / (1 << (math.ceil(pt.lam) - 1))


def candidate_c32(pt: BellmanPoint) -> Fraction:
    """Fixed C = 16/5 oracle, transcribed branch by branch."""
    _require_domain(pt.avg, Fraction(16, 5))
    if pt.lam <= 0:
        return ONE
    if pt.lam <= 3:
        return min(ONE, Fraction(pt.avg, math.ceil(pt.lam)))
    n = math.ceil(pt.lam) - 3
    return pt.avg * Fraction(5, 16) * Fraction(11, 15) * Fraction(11, 16) ** (n - 1)


def candidate_fn(params: CandidateParams):
    """The candidate as a plain (avg, lam) -> Fraction callable."""

    def fn(avg: Fraction, lam: Fraction) -> Fraction:
        return candidate_eval(params, BellmanPoint(avg, lam))

    return fn


def require_grid_budget(C: Fraction, a_exp: int, thresholds: int) -> None:
    """Refuse a grid of more than MAX_GRID_POINTS points before allocating any.

    The grid is `thresholds` thresholds times the averages j / 2^a_exp in
    [0, C].  Since C >= 1 there are more than 2^a_exp averages, so a huge
    exponent is refused without shifting by it.
    """
    if (a_exp >= MAX_GRID_POINTS.bit_length()
            or thresholds * (grid_top(C, a_exp) + 1) > MAX_GRID_POINTS):
        raise ResourceLimitError(
            f"{thresholds} threshold(s) x averages j/2^{a_exp} in [0, {C}] exceed "
            f"the grid budget of {MAX_GRID_POINTS} points")


def require_power_budget(C: Fraction, lam_max: RationalLike) -> None:
    """Refuse thresholds up to lam_max before evaluating at any of them when
    the exact power decay^(ceil(t) - floor(C)) would exceed MAX_POWER_BITS bits.

    decay = (C - 1)/C has denominator C.numerator, so the power has about
    (ceil(t) - floor(C)) * C.numerator.bit_length() bits.
    """
    per_step = C.numerator.bit_length()
    if (math.ceil(lam_max) - math.floor(C)) * per_step > MAX_POWER_BITS:
        raise ResourceLimitError(
            f"thresholds above {math.floor(C) + MAX_POWER_BITS // per_step} need an exact "
            f"power of more than the budget of {MAX_POWER_BITS} bits")


def candidate_surface(params: CandidateParams, a_grid_denominator_exp: int,
                      lambda_range: Tuple[int, int]) -> List[Tuple[Fraction, int, Fraction]]:
    """Exact values over the dyadic average grid and an integer threshold range."""
    if a_grid_denominator_exp < 0:
        raise ValueError("grid exponent must be >= 0")
    lo, hi = lambda_range
    if lo > hi:
        raise ValueError(f"empty threshold range [{lo}, {hi}]")
    require_grid_budget(params.C, a_grid_denominator_exp, hi - lo + 1)
    require_power_budget(params.C, hi)
    scale = 1 << a_grid_denominator_exp
    rows: List[Tuple[Fraction, int, Fraction]] = []
    for j in range(grid_top(params.C, a_grid_denominator_exp) + 1):
        avg = Fraction(j, scale)
        for lam in range(lo, hi + 1):
            rows.append((avg, lam, candidate_eval(params, BellmanPoint(avg, Fraction(lam)))))
    return rows
