"""Grid certificates for the supersolution conditions, plus induction traces.

A function G on [0, C] x R with values in [0, 1] is a supersolution when it
is identically 1 on thresholds <= 0 (obstacle condition) and satisfies the
two-point inequality

    G(A + g, t + g) >= (G(A1, t) + G(A2, t)) / 2,   A = (A1 + A2) / 2,

for g in {0, 1} with A + g <= C.  The g = 0 case is midpoint concavity in
the first variable; taking A1 = A2 and g = 1 gives the jump inequality
G(A + 1, t + 1) >= G(A, t).  The checkers verify these on exhaustive exact
dyadic grids, all four read from one tabulation per threshold; every
reported violation is a strict rational inequality, never a tolerance
artifact.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Callable, List, Optional, Sequence, Tuple

from .candidate import CheckGrid
from .dyadic import RationalLike, grid_top, to_fraction
from .sequences import CarlesonSeq

EvaluableFn = Callable[[Fraction, Fraction], Fraction]

ONE = Fraction(1)


def obstacle_indicator(avg: Fraction, lam: Fraction) -> Fraction:
    """1 on the lower half-plane, 0 elsewhere.

    Sits below every supersolution and passes the obstacle and concavity
    checks, yet fails the jump inequality at (0, 0) -> (1, 1); kept as the
    canonical negative control for the checkers.
    """
    return ONE if lam <= 0 else Fraction(0)


@dataclass(frozen=True)
class Violation:
    """One strict inequality failure: lhs < rhs where lhs >= rhs was required."""

    kind: str
    points: Tuple[Tuple[Fraction, Fraction], ...]  # (avg, lam) each
    lhs: Fraction
    rhs: Fraction


def _concavity_case(lam: Fraction, floor_c: int) -> str:
    if lam <= 0:
        return "concavity_case_1"
    if lam <= floor_c:
        return "concavity_case_2"
    return "concavity_case_3"


def _jump_case(lam: Fraction, floor_c: int) -> str:
    if lam + 1 <= 0:
        return "jump_case_1"
    if lam <= 0:
        return "jump_case_2"
    if lam > floor_c:
        return "jump_case_5"
    if lam + 1 <= floor_c:
        return "jump_case_3"
    return "jump_case_4"


# Each threshold t is tabulated once, on the half-step grid j / 2^(e+1):
#   fine[j] = fn(j / 2^(e+1), t)          for j = 0..2n, n = floor(C * 2^e),
#   up[j]   = fn(j / 2^(e+1) + 1, t + 1)  while j / 2^(e+1) + 1 <= C,
# and all four checks read those two rows.  up is never borrowed from another
# threshold's row: t + 1 is often not a grid threshold.  A row is exact
# integer numerators over one shared denominator: the closed form supplies
# its rows directly (candidate_row), and any other target is evaluated point
# by point and scaled to the lcm of its denominators.  The checks compare
# integers only, cross-multiplying where fine and up meet, and build a
# Violation's Fractions only for a failing probe, so the reported values are
# those of Fraction arithmetic.  The probes run in O(grid size) per
# threshold instead of O(grid size^2), using an exact equivalence:
# over a uniform grid, "fn(mid) >= (fn(A1) + fn(A2)) / 2 for ALL grid pairs
# A1, A2" holds iff the adjacent-pair probes (midpoints at half-steps) and
# the distance-2 probes (discrete concavity of the grid sequence) all hold.
# Both probe families are themselves pair instances, and together they imply
# the rest: discrete concavity pushes any chord value below the
# minimal-spread pair with the same midpoint, and the half-step probe
# finishes odd midpoints.  The brute all-pairs scans are kept in the test
# suite as independent oracles.

Row = Tuple[List[int], int]  # numerators over one denominator
RowFn = Callable[[int, int, int, Fraction], Row]  # (s, j0, j1, t) -> t's row at j / 2^s


def _tabulate(fn: EvaluableFn, s: int, j0: int, j1: int, lam: Fraction) -> Row:
    """fn at (j / 2^s, lam) for j = j0..j1, scaled to the lcm of its denominators."""
    values = [fn(Fraction(j, 1 << s), lam) for j in range(j0, j1 + 1)]
    den = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values], den


def _threshold_checks(rows: RowFn, grid: CheckGrid, lam: Fraction,
                      coverage: Counter) -> Tuple[List[Violation], ...]:
    """Obstacle, concavity, jump and main violations at one threshold."""
    e = grid.a_denominator_exp + 1
    scale = 1 << e
    top = 2 * grid.coarse_count
    up_top = grid_top(grid.C, e) - scale
    fine, den = rows(e, 0, top, lam)
    up, up_den = rows(e, scale, scale + up_top, lam + 1)

    def pt(j: int, t: Fraction = lam) -> Tuple[Fraction, Fraction]:
        return Fraction(j, scale), t

    if lam <= 0:
        coverage["obstacle"] += top // 2 + 1
    obstacle = [Violation("obstacle", (pt(j),), *sorted((Fraction(fine[j], den), ONE)))
                for j in range(0, top + 1, 2) if lam <= 0 and fine[j] != den]

    # (mid, half-width): the n half-step probes first, then the n - 1 distance-2 probes
    probes = chain(((m, 1) for m in range(1, top, 2)), ((m, 2) for m in range(2, top - 1, 2)))
    coverage[_concavity_case(lam, math.floor(grid.C))] += top - 1
    concavity = [Violation("concavity", (pt(m - h), pt(m + h), pt(m)), Fraction(fine[m], den),
                           Fraction(fine[m - h] + fine[m + h], 2 * den))
                 for m, h in probes if 2 * fine[m] < fine[m - h] + fine[m + h]]

    coverage[_jump_case(lam, math.floor(grid.C))] += up_top // 2 + 1
    jump = [Violation("jump", (pt(j), pt(j + scale, lam + 1)), Fraction(up[j], up_den),
                      Fraction(fine[j], den))
            for j in range(0, up_top + 1, 2) if up[j] * den < fine[j] * up_den]

    # g = 0 is the concavity probes again; g = 1 pairs equal points at even j
    # and the adjacent half-step pair at odd j, so its right side is always
    # the mean of fine[j - h] and fine[j + h]
    coverage["main_gamma0"] += top - 1
    coverage["main_gamma1"] += up_top + 1
    main = [replace(v, kind="main") for v in concavity]
    for j in range(up_top + 1):
        h = j % 2
        pair = fine[j - h] + fine[j + h]
        if 2 * up[j] * den < pair * up_den:
            main.append(Violation("main", (pt(j - h), pt(j + h), pt(j + scale, lam + 1)),
                                  Fraction(up[j], up_den), Fraction(pair, 2 * den)))
    return obstacle, concavity, jump, main


def _all_checks(rows: RowFn, grid: CheckGrid,
                coverage: Counter) -> Tuple[List[Violation], ...]:
    """The four violation lists over every threshold, from one tabulation each."""
    found: Tuple[List[Violation], ...] = ([], [], [], [])
    for lam in grid.lambda_values:
        for acc, part in zip(found, _threshold_checks(rows, grid, lam, coverage)):
            acc.extend(part)
    return found


def _verify_reduction(concavity: Sequence[Violation], jump: Sequence[Violation],
                      main: Sequence[Violation]) -> None:
    """Main violations must exist iff concavity or jump violations exist."""
    if bool(main) != bool(concavity or jump):
        raise RuntimeError(
            "reduction mismatch: the main inequality and the "
            "concavity-plus-jump pair disagree on this grid")


def _one_check(which: int, fn: EvaluableFn, grid: CheckGrid,
               coverage: Optional[Counter]) -> Tuple[List[Violation], ...]:
    """Every list of the one pass; only the keys of check `which` reach coverage."""
    counts: Counter = Counter()
    found = _all_checks(partial(_tabulate, fn), grid, counts)
    if coverage is not None:
        prefix = ("obstacle", "concavity", "jump", "main")[which]
        coverage.update({k: v for k, v in counts.items() if k.startswith(prefix)})
    return found


def check_obstacle(fn: EvaluableFn, grid: CheckGrid,
                   coverage: Optional[Counter] = None) -> List[Violation]:
    """Empty iff fn(A, t) = 1 for every grid average and every grid t <= 0."""
    return _one_check(0, fn, grid, coverage)[0]


def check_midpoint_concavity(fn: EvaluableFn, grid: CheckGrid,
                             coverage: Optional[Counter] = None) -> List[Violation]:
    """Empty iff fn((A1+A2)/2, t) >= (fn(A1,t) + fn(A2,t))/2 for all grid pairs."""
    return _one_check(1, fn, grid, coverage)[1]


def check_jump(fn: EvaluableFn, grid: CheckGrid,
               coverage: Optional[Counter] = None) -> List[Violation]:
    """Empty iff fn(A+1, t+1) >= fn(A, t) for every grid average A <= C - 1."""
    return _one_check(2, fn, grid, coverage)[2]


def check_main_inequality(fn: EvaluableFn, grid: CheckGrid,
                          coverage: Optional[Counter] = None,
                          verify_reduction: bool = True) -> List[Violation]:
    """Empty iff the full two-point shifted inequality holds on the grid.

    The g = 0 instances are the concavity probes.  Given those, any g = 1
    instance is dominated by its minimal-spread counterpart with the same
    midpoint, so probing equal pairs at grid points and adjacent pairs at
    half-step midpoints (both genuine instances) covers every pair.

    Also cross-checks the reduction: main violations must exist iff
    concavity or jump violations exist on the same grid.
    """
    _, concavity, jump, main = _one_check(3, fn, grid, coverage)
    if verify_reduction:
        _verify_reduction(concavity, jump, main)
    return main


@dataclass(frozen=True)
class CheckSummary:
    """All four checks for one function on one grid, with coverage counters."""

    grid: CheckGrid
    obstacle: Tuple[Violation, ...]
    concavity: Tuple[Violation, ...]
    jump: Tuple[Violation, ...]
    main: Tuple[Violation, ...]
    coverage: Counter

    @property
    def ok(self) -> bool:
        return not (self.obstacle or self.concavity or self.jump or self.main)

    def all_violations(self) -> List[Violation]:
        return list(self.obstacle) + list(self.concavity) + list(self.jump) + list(self.main)


def run_all_checks(fn: EvaluableFn, grid: CheckGrid,
                   rows: Optional[RowFn] = None) -> CheckSummary:
    """All four checks in one pass over the thresholds, reduction cross-checked.

    rows, when given, is an exact row kernel for fn, such as
    partial(candidate_row, params) for the closed form; the certificates then
    read their rows from it and never call fn.
    """
    coverage: Counter = Counter()
    obstacle, concavity, jump, main = _all_checks(rows or partial(_tabulate, fn), grid, coverage)
    _verify_reduction(concavity, jump, main)
    return CheckSummary(grid=grid, obstacle=tuple(obstacle), concavity=tuple(concavity),
                        jump=tuple(jump), main=tuple(main), coverage=coverage)


@dataclass(frozen=True)
class InductionTrace:
    """Level-by-level record of running the two-point inequality down a tree.

    level_sums[n] is the average of fn over the level-n nodes, evaluated at
    each node's subtree average and residual threshold (the root threshold
    minus the number of selected strict ancestors).  For a supersolution the
    sums are non-increasing and end above the sequence's level-set measure.
    """

    threshold: Fraction
    level_sums: Tuple[Fraction, ...]
    steps_ok: Tuple[bool, ...]
    level_set: Fraction
    final_ok: bool

    @property
    def holds(self) -> bool:
        return self.final_ok and all(self.steps_ok)

    def first_violation_level(self) -> Optional[int]:
        for n, ok in enumerate(self.steps_ok):
            if not ok:
                return n
        return None if self.final_ok else len(self.steps_ok)


def induction_trace(fn: EvaluableFn, seq: CarlesonSeq, lam: RationalLike) -> InductionTrace:
    """Reproduce the chain fn(root data) >= ... >= level-set measure, exactly.

    The trace always descends one level past the truncation depth so that
    nodes selected at the deepest level still contribute their unit shift,
    after which every residual threshold has settled.

    A node's term depends only on its subtree average and its count of
    selected strict ancestors, so each level's nodes are grouped by that
    pair and fn is called once per distinct pair, weighted by its count.
    The nodes with a selection below them come from the sequence's top-down
    walk over its per-level indices, the one its generations are read from;
    the rest are never visited: they are carried as one count per residual,
    doubling each level.  The cost follows the nodes with a selection below
    them, not the 2^(depth+2) - 1 in the tree.
    """
    lam = to_fraction(lam)
    sums: List[Fraction] = []
    strata = seq._strata()
    # selected strict ancestors -> how many nodes of the level have that many: the
    # root to begin with, then the children of the level above
    empty = Counter({0: 1})
    last_level = seq.depth + 1
    for level in range(last_level + 1):
        # the nodes with a selection below them
        stratum = next(strata, [])
        empty.subtract(k for _, k, _, _ in stratum)
        groups = Counter({(0, k): n for k, n in empty.items() if n})
        groups.update((u, k) for _, k, u, _ in stratum)
        scale = 1 << max(seq.depth - level, 0)
        total = sum((n * fn(Fraction(u, scale), lam - k) for (u, k), n in groups.items()),
                    Fraction(0))
        sums.append(total / (1 << level))
        # every node, empty or live, has two children
        empty.update(k + own for _, k, _, own in stratum)
        empty = Counter({k: 2 * n for k, n in empty.items() if n})
    steps_ok = tuple(sums[n] >= sums[n + 1] for n in range(last_level))
    level_set = seq.level_set_measure(lam)
    return InductionTrace(
        threshold=lam,
        level_sums=tuple(sums),
        steps_ok=steps_ok,
        level_set=level_set,
        final_ok=sums[-1] >= level_set,
    )
