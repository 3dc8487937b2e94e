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

Every evaluator takes a point of the domain as two arguments (avg, lam), each
a Fraction or an int; CheckGrid is the dyadic grid of the domain that the
grid certificates and the surface export walk.  At a threshold lam > 0 the
closed form is min(1, avg * mul / div) for one pair of ints (mul, div),
given by _threshold_factor; candidate_eval applies it to the average's
numerator and denominator in integers and builds one Fraction, and
candidate_row applies it along a whole row of the grid at once, as integer
numerators over one denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import List, Sequence, Tuple

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
    """Carleson bound C with its precomputed floor and decay ratio."""

    C: Fraction
    floor_c: int
    decay: Fraction

    @classmethod
    def from_constant(cls, C: RationalLike) -> "CandidateParams":
        c = to_fraction(C)
        if c < 1:
            raise ValueError(f"C must be >= 1, got {c}")
        fl = math.floor(c)
        return cls(C=c, floor_c=fl, decay=(c - 1) / c)


def _require_domain(avg: RationalLike, upper: Fraction) -> Tuple[int, int]:
    """(numerator, denominator) of an average inside [0, upper]; a float raises TypeError."""
    if type(avg) is not Fraction:
        avg = to_fraction(avg)
    num, den = avg.numerator, avg.denominator
    if num < 0 or num * upper.denominator > upper.numerator * den:
        raise ValueError(f"average {avg} outside the domain [0, {upper}]")
    return num, den


def _threshold_factor(params: CandidateParams, lam: RationalLike) -> Tuple[int, int]:
    """(mul, div) with value(avg, lam) = min(1, avg * mul / div), for lam > 0.

    With m = ceil(lam), k = m - floor(C) and decay = num/den, the pair is
    (1, m) for lam <= floor(C) and (num^k, floor(C) den^k) above it.  Above
    floor(C) the clip at 1 never binds: k >= 1 and avg <= C give
    avg decay^k / floor(C) <= (C - 1) / floor(C) < 1.
    """
    m = math.ceil(lam)
    if m <= params.floor_c:
        return 1, m
    # the exponent is >= 1 here, so the C = 1 case decays to exactly 0
    k = m - params.floor_c
    return params.decay.numerator ** k, params.floor_c * params.decay.denominator ** k


def candidate_eval(params: CandidateParams, avg: Fraction, lam: Fraction) -> Fraction:
    """Evaluate the closed-form bound exactly at the point (avg, lam)."""
    num, den = _require_domain(avg, params.C)
    if lam <= 0:
        return ONE
    mul, div = _threshold_factor(params, lam)
    num *= mul
    den *= div
    return ONE if num >= den else Fraction(num, den)


def candidate_c1(avg: Fraction, lam: Fraction) -> Fraction:
    """Fixed C = 1 oracle: pairwise-disjoint selections only."""
    avg = Fraction(*_require_domain(avg, ONE))
    if lam <= 0:
        return ONE
    if lam <= 1:
        return avg
    return ZERO


def candidate_c2(avg: Fraction, lam: Fraction) -> Fraction:
    """Fixed C = 2 oracle."""
    avg = Fraction(*_require_domain(avg, Fraction(2)))
    if lam <= 0:
        return ONE
    if lam <= 1:
        return min(ONE, avg)
    return avg / (1 << (math.ceil(lam) - 1))


def candidate_c32(avg: Fraction, lam: Fraction) -> Fraction:
    """Fixed C = 16/5 oracle, transcribed branch by branch."""
    avg = Fraction(*_require_domain(avg, Fraction(16, 5)))
    if lam <= 0:
        return ONE
    if lam <= 3:
        return min(ONE, Fraction(avg, math.ceil(lam)))
    n = math.ceil(lam) - 3
    return avg * Fraction(5, 16) * Fraction(11, 15) * Fraction(11, 16) ** (n - 1)


def candidate_row(params: CandidateParams, s: int, j0: int, j1: int,
                  lam: Fraction) -> Tuple[List[int], int]:
    """The closed form at (j / 2^s, lam) for j = j0..j1, as (numerators, denominator).

    At a fixed threshold lam > 0 the value is min(1, j mul / (2^s div)) for
    the pair (mul, div) of _threshold_factor, so the whole row shares the
    denominator 2^s div.  Entry i of the numerators over the denominator
    equals candidate_eval at j = j0 + i.
    """
    if j0 < 0 or j1 > grid_top(params.C, s):
        raise ValueError(f"averages j/2^{s}, {j0} <= j <= {j1}, leave the domain [0, {params.C}]")
    if lam <= 0:
        return [1] * (j1 - j0 + 1), 1
    mul, div = _threshold_factor(params, lam)
    den = div << s
    if not mul:
        return [0] * (j1 - j0 + 1), den
    # the numerator j mul reaches den, the value 1, from j = ceil(den / mul) on
    top = max(j0, min(j1 + 1, -(-den // mul)))
    return list(range(j0 * mul, top * mul, mul)) + [den] * (j1 + 1 - top), den


def candidate_fn(params: CandidateParams):
    """The candidate as a plain (avg, lam) -> Fraction callable."""
    return partial(candidate_eval, params)


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


@dataclass(frozen=True)
class CheckGrid:
    """Exact dyadic discretization of the domain [0, C] x R.

    Averages run over {j / 2^a_denominator_exp} intersected with [0, C];
    thresholds are an explicit list (integers plus sampled non-integers).
    """

    a_denominator_exp: int
    lambda_values: Tuple[Fraction, ...]
    C: Fraction

    @classmethod
    def build(cls, C: RationalLike, a_exp: int, lambda_min: int, lambda_max: int,
              extra_lambdas: Sequence[RationalLike] = ()) -> "CheckGrid":
        if a_exp < 0:
            raise ValueError("grid exponent must be >= 0")
        if lambda_min > lambda_max:
            raise ValueError("empty threshold range")
        bound = to_fraction(C)
        if bound < 1:
            raise ValueError("C must be >= 1")
        thresholds = lambda_max - lambda_min + 1 + len(extra_lambdas)
        # C >= 1 gives more than 2^a_exp averages, so a huge exponent is
        # refused without shifting by it
        if (a_exp >= MAX_GRID_POINTS.bit_length()
                or thresholds * (grid_top(bound, a_exp) + 1) > MAX_GRID_POINTS):
            raise ResourceLimitError(
                f"{thresholds} threshold(s) x averages j/2^{a_exp} in [0, {bound}] exceed "
                f"the grid budget of {MAX_GRID_POINTS} points")
        lams = {Fraction(k) for k in range(lambda_min, lambda_max + 1)}
        lams.update(to_fraction(x) for x in extra_lambdas)
        require_power_budget(bound, max(lams))
        return cls(a_denominator_exp=a_exp, lambda_values=tuple(sorted(lams)), C=bound)

    @property
    def coarse_count(self) -> int:
        """Largest coarse index: floor(C * 2^exp)."""
        return grid_top(self.C, self.a_denominator_exp)

    def coarse_values(self) -> List[Fraction]:
        scale = 1 << self.a_denominator_exp
        return [Fraction(j, scale) for j in range(self.coarse_count + 1)]

    def describe(self) -> str:
        lams = ", ".join(str(l) for l in self.lambda_values)
        return (f"averages j/2^{self.a_denominator_exp} in [0, {self.C}], "
                f"thresholds {{{lams}}}")


def candidate_surface(grid: CheckGrid) -> List[Tuple[Fraction, Fraction, Fraction]]:
    """Exact (avg, lam, value) rows over the grid's averages, then its thresholds."""
    params = CandidateParams.from_constant(grid.C)
    e, top = grid.a_denominator_exp, grid.coarse_count
    rows = [(lam, *candidate_row(params, e, 0, top, lam)) for lam in grid.lambda_values]
    return [(avg, lam, Fraction(nums[j], den))
            for j, avg in enumerate(grid.coarse_values()) for lam, nums, den in rows]
