"""Exact dynamic program for the largest level set at a fixed depth.

F_D(a, m) is the maximum, over depth-D sequences with Carleson constant at
most C and root average exactly a, of the normalized measure of the set
where the height reaches m.  Splitting at the root (select it or not, then
distribute the remaining average over the two halves) gives

    F_d(a, m) = max over g in {0, 1}, g <= a, and exact splits
                a = g + (a1 + a2) / 2   of
                (F_{d-1}(a1, m - g) + F_{d-1}(a2, m - g)) / 2,

with the obstacle F(., m <= 0) = 1 as the base.  The Carleson constraint
is hereditary: capping every state's average at min(C, depth + 1) enforces
it exactly, because an unselected node's average never exceeds the sup of
the selected subtree averages below it.

The engine tabulates bottom-up by rows.  The row F_d(., m) holds an
integer leaf count out of 2^d for every average numerator n = 0..cap(d) at
scale 2^d, so the whole computation is big-int arithmetic and dyadic
rationals appear only at the API boundary.  The split window of a cell
depends only on rem = n - g 2^d, and it is the whole domain of the child
row r: 0 <= n1 <= cap(d - 1) and 0 <= rem - n1 <= cap(d - 1).  So with
K = r (+) r, the plain (max,+) self-convolution

    K[rem] = max(r[n1] + r[rem - n1] over the window),

the row is F_d(n / 2^d, m) = max(K_{m-1}[n - 2^d], K_m[n]) over the
feasible g, where K_j belongs to the child row (d - 1, j), K_0 is all 2^d
and K_{d+1} all 0.  One convolution serves both parent rows (d, j) and
(d, j + 1).  It is computed on the value axis (Chi, Duan, Xie and Zhang,
"Faster min-plus product for monotone instances", STOC 2022): a stored row
is non-decreasing with entries in [0, 2^(d-1)], so with

    p[a] = the first n with r[n] >= a,   a = 0..r[-1],
    Q    = the (min,+) self-convolution of p,

K[rem] is the largest v with Q[v] <= rem, read off in one walk.  Its cost
is quadratic in the V = r[-1] + 1 <= 2^(d-1) + 1 distinct values, not in
the row length of about C 2^d.  The value axis is sound only on
non-decreasing rows, so every finished row is checked for that in one pass
and a decrease raises; each convolution is dropped once the rows of the
next depth are built.  Every cell at depth d >= 1 is then checked against
the closed form with one exact integer comparison; the averages n / 2^d it
is evaluated at are built once per depth, shared by that depth's levels and
dropped with its convolutions.  Rows for levels m <= 0 (all leaves) and
m > d + 1 (none) are never stored.

A point query computes only its own cell by one scan of its split window
over the rows below it, and a witness rebuilds the maximizing split the
same way, only along its own path.  Before filling anything, a call counts
the row cells it would add to the cache and refuses, with
ResourceLimitError, to take the cache past the engine's cell cap; it then
bounds the kernel's work, V(V + 1) / 2 pair steps per convolution, and
refuses above KERNEL_WORK_BUDGET.

table() returns plain sorted (a, m, value) rows of Fractions, one per
admissible average and level, including the all-leaf and empty levels.
It refuses, also before filling anything, when those rows would hold more
cells than the cell cap.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby, repeat
from operator import add, gt, itemgetter
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .candidate import CandidateParams, candidate_eval
from .dyadic import (ROOT, DyadicRational, NodeAddress, RationalLike, dyadic_exponent,
                     grid_top, to_fraction)
from .errors import AdmissibilityError, PrecisionError, ResourceLimitError
from .sequences import CarlesonSeq

DEFAULT_CELL_CAP = 1_000_000
DEFAULT_DEPTH_LIMIT = 12
CELL_CAP_ENV = "CARLEVEL_CELL_CAP"
KERNEL_WORK_BUDGET = 1 << 28  # (min,+) pair steps of the row kernel per call


def self_convolution(row: List[int]) -> List[int]:
    """K[rem] = max(row[n1] + row[rem - n1] for 0 <= n1, rem - n1 < len(row)),
    rem = 0..2 (len(row) - 1), for a non-decreasing row of non-negative ints.

    Computed on the value axis: p[a] is the first n with row[n] >= a, Q is
    the (min,+) self-convolution of p, and K[rem] is the largest v with
    Q[v] <= rem.  That takes V(V + 1) / 2 pair steps for V = row[-1] + 1.
    """
    top = row[-1]
    p = [bisect_left(row, a) for a in range(top + 1)]
    rp = p[::-1]
    q = []
    for v in range(2 * top + 1):
        lo, hi = max(0, v - top), v // 2
        q.append(min(map(add, p[lo:hi + 1], rp[top - v + lo:top - v + hi + 1])))
    q.append(2 * len(row) - 1)
    return list(chain.from_iterable(repeat(v, q[v + 1] - q[v]) for v in range(2 * top + 1)))


@dataclass(frozen=True)
class ConvergenceRow:
    depth: int
    value: DyadicRational
    gap: Fraction


class LevelSetDP:
    """Row-tabulating solver for one Carleson bound C; reusable across depths."""

    def __init__(self, C: RationalLike, cell_cap: Optional[int] = None,
                 depth_limit: int = DEFAULT_DEPTH_LIMIT) -> None:
        self.params = CandidateParams.from_constant(C)
        self.C = self.params.C
        if cell_cap is None:
            raw = os.environ.get(CELL_CAP_ENV)
            try:
                cell_cap = DEFAULT_CELL_CAP if raw is None else int(raw)
            except ValueError:
                raise ValueError(f"{CELL_CAP_ENV} must be an integer, got {raw!r}") from None
        if cell_cap <= 0:
            raise ValueError(f"the cell cap must be positive, got {cell_cap}")
        self.cell_cap = cell_cap
        self.depth_limit = depth_limit
        # (d, m) -> F_d(n / 2^d, m) as leaf counts for n = 0..cap(d), 1 <= m <= d + 1
        self._rows: Dict[Tuple[int, int], List[int]] = {}
        self._caps: Dict[int, int] = {}

    # -- state space -----------------------------------------------------

    def _cap_num(self, d: int) -> int:
        """Largest admissible average numerator at depth d, scale 2^d."""
        cap = self._caps.get(d)
        if cap is None:
            cap = min((d + 1) << d, grid_top(self.C, d))
            self._caps[d] = cap
        return cap

    def _check_depth(self, depth: int) -> None:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if depth > self.depth_limit:
            raise ValueError(f"depth {depth} exceeds the configured limit {self.depth_limit}")

    def _check_key(self, depth: int, average: RationalLike, level: int) -> Tuple[int, int]:
        self._check_depth(depth)
        f = to_fraction(average)
        if f > self.C:
            raise AdmissibilityError(f"average {f} exceeds the Carleson bound {self.C}")
        if f < 0 or f > depth + 1:
            raise ValueError(f"average {f} not reachable at depth {depth}")
        e = dyadic_exponent(f)
        if e > depth:
            raise PrecisionError(f"average {f} not representable on the 2^-{depth} grid")
        return f.numerator << (depth - e), level

    # -- rows ----------------------------------------------------------------

    def _window(self, d: int, n: int, gamma: int) -> Optional[Tuple[int, int, int]]:
        """(rem, lo, hi) for the left numerators n1 of a split, or None if infeasible."""
        if gamma and n < 1 << d:
            return None
        rem = n - (gamma << d)
        child_cap = self._cap_num(d - 1)
        lo = max(0, rem - child_cap)
        hi = min(rem // 2, child_cap)
        return (rem, lo, hi) if lo <= hi else None

    def _splits(self, d: int, n: int,
                m: int) -> Iterator[Tuple[int, int, int, Optional[List[int]]]]:
        """(gamma, lo, hi, values) per feasible root choice, gamma = 1 first.

        The left numerator n1 runs over lo..hi, and values[n1 - lo] is the
        leaf count of that split, read from the stored rows at depth d - 1.
        values is None when the root already reaches the level, so that
        every split fills all leaves.
        """
        for gamma in (1, 0):
            window = self._window(d, n, gamma)
            if window is None:
                continue
            rem, lo, hi = window
            mm = m - gamma
            if mm <= 0:
                yield gamma, lo, hi, None
            elif mm <= d:
                r = self._rows[(d - 1, mm)]
                right = reversed(r[rem - hi:rem - lo + 1])
                yield gamma, lo, hi, list(map(add, r[lo:hi + 1], right))
            else:
                yield gamma, lo, hi, [0] * (hi - lo + 1)

    def _best(self, d: int, n: int, m: int) -> int:
        """F_d(n / 2^d, m) as a leaf count in [0, 2^d], from the stored rows at depth d - 1."""
        if m <= 0:
            return 1 << d
        if m > d + 1:
            return 0
        if d == 0:
            return n
        full = 1 << d
        best = -1
        for _, _, _, values in self._splits(d, n, m):
            best = max(best, full if values is None else max(values))
            if best == full:
                break
        if best < 0:
            raise AssertionError(f"infeasible state ({d}, {n}, {m}) reached")
        self._check_cell(d, n, m, best, Fraction(n, full))
        return best

    def _check_cell(self, d: int, n: int, m: int, count: int, avg: Fraction) -> None:
        """Raise unless the leaf count is within the closed form at (avg, m), avg = n / 2^d."""
        full = 1 << d
        bound = candidate_eval(self.params, avg, m)
        if count * bound.denominator > bound.numerator * full:
            raise AssertionError(f"DP cell (d, n, m) = ({d}, {n}, {m}) has value "
                                 f"{Fraction(count, full)} above the closed form {bound}")

    def _row(self, d: int, m: int, convs: Dict[int, List[int]]) -> List[int]:
        """The row (d, m), from the self-convolutions of the stored rows at depth d - 1.

        convs maps a level j to the convolution of the row (d - 1, j); a
        missing one is computed and kept for the other parent row it serves.
        """
        cap = self._cap_num(d)
        if d == 0:
            return list(range(cap + 1))
        full = 1 << d
        span = 2 * self._cap_num(d - 1) + 1  # rem = 0..2 cap(d - 1) is feasible

        def conv(j: int) -> List[int]:
            if j <= 0:
                return [full] * span
            if j > d:
                return [0] * span
            k = convs.get(j)
            if k is None:
                k = convs[j] = self_convolution(self._rows[(d - 1, j)])
            return k

        # n = rem with the root unselected, n = rem + 2^d with it selected;
        # cap(d) <= 2^d + 2 cap(d - 1), so the two cover 0..cap(d)
        stay = conv(m)[:cap + 1]
        select = conv(m - 1)[:cap + 1 - full]
        return stay[:full] + list(map(max, stay[full:], select)) + select[len(stay) - full:]

    def _check_row(self, d: int, m: int, row: List[int], averages: List[Fraction]) -> None:
        """Raise unless the row is non-decreasing, as the kernel needs, and
        every cell at depth d >= 1 is within the closed form; averages[n] is n / 2^d."""
        if any(map(gt, row, row[1:])):
            n = next(n for n in range(1, len(row)) if row[n] < row[n - 1])
            raise AssertionError(f"DP row (d, m) = ({d}, {m}) decreases at n = {n}, "
                                 f"so the value-axis kernel does not apply")
        if d:
            for n, count in enumerate(row):
                self._check_cell(d, n, m, count, averages[n])

    @staticmethod
    def _child_levels(d: int, levels: Set[int], gammas: Tuple[int, ...]) -> Set[int]:
        """Stored levels at depth d - 1 read by the splits `gammas` of levels at depth d."""
        return {m - g for m in levels for g in gammas if 1 <= m - g <= d}

    def _fill_rows(self, d: int, levels: Set[int]) -> None:
        """Store the rows (d, m), m in levels, and every row below them they need.

        The rows still missing are listed first, and their cells and the
        kernel work they take are counted against the cell cap and the work
        budget before any of them is computed.
        """
        plan: List[Tuple[int, int]] = []
        levels = {m for m in levels if (d, m) not in self._rows}
        while levels:
            plan.extend((d, m) for m in sorted(levels))
            if d == 0:
                break
            # cap(d) >= 2^d because C >= 1, so every row has cells that select the root
            levels = {m for m in self._child_levels(d, levels, (1, 0))
                      if (d - 1, m) not in self._rows}
            d -= 1
        total = sum(map(len, self._rows.values()))
        for depth, _ in plan:
            total += self._cap_num(depth) + 1
            if total > self.cell_cap:
                raise ResourceLimitError(
                    f"rows up to depth {plan[0][0]} need more than the cell cap of "
                    f"{self.cell_cap} row cells")
        # one convolution per child row (depth - 1, j) of a planned row, with V <= 2^(depth-1) + 1
        convolved = {(depth, j) for depth, m in plan
                     for j in self._child_levels(depth, {m}, (1, 0))}
        values = [(1 << depth - 1) + 1 for depth, _ in convolved]
        work = sum(v * (v + 1) // 2 for v in values)
        if work > KERNEL_WORK_BUDGET:
            raise ResourceLimitError(
                f"rows up to depth {plan[0][0]} need up to {work} kernel steps, more than "
                f"the work budget of {KERNEL_WORK_BUDGET}")
        for depth, planned in groupby(reversed(plan), key=itemgetter(0)):
            # the convolutions of the rows at depth - 1 and the averages of this
            # depth's cells; the previous depth's are dropped
            convs: Dict[int, List[int]] = {}
            full = 1 << depth
            averages = [Fraction(n, full) for n in range(self._cap_num(depth) + 1)]
            for _, m in planned:
                row = self._row(depth, m, convs)
                self._check_row(depth, m, row, averages)
                self._rows[(depth, m)] = row

    def _count(self, d: int, n: int, m: int) -> int:
        """F_d(n / 2^d, m) as a leaf count; fills only the rows below the cell."""
        row = self._rows.get((d, m))
        if row is not None:
            return row[n]
        if 1 <= m <= d + 1 and d > 0:
            gammas = tuple(g for g in (1, 0) if self._window(d, n, g) is not None)
            self._fill_rows(d - 1, self._child_levels(d, {m}, gammas))
        return self._best(d, n, m)

    # -- witness reconstruction ----------------------------------------------

    def _split(self, d: int, n: int, m: int) -> Tuple[int, int]:
        """(gamma, left numerator) of the maximizing split, from the stored child rows.

        Ties go to gamma = 1 and then to the smallest left numerator; a
        level already reached at the root takes the largest one.
        """
        best = -1
        choice = (0, 0)
        for gamma, lo, hi, values in self._splits(d, n, m):
            if values is None:
                return gamma, hi
            top = max(values)
            if top > best:
                best, choice = top, (gamma, lo + values.index(top))
            if best == 1 << d:
                break
        return choice

    def _place_selection(self, at: NodeAddress, d: int, n: int, m: int,
                         sel: Set[NodeAddress]) -> None:
        """Add to sel a depth-d selection below `at` with average n / 2^d that
        attains F_d(n / 2^d, m).  Levels outside 1..d + 1 take any admissible
        selection: select the root when n >= 2^d, then fill the left half first."""
        if n == 0:
            return
        if d == 0:
            sel.add(at)
            return
        child_cap = self._cap_num(d - 1)
        if 1 <= m <= d + 1:
            gamma, n1 = self._split(d, n, m)
        else:
            gamma = 1 if n >= 1 << d else 0
            n1 = min(n - (gamma << d), child_cap)
        n2 = n - (gamma << d) - n1
        if n2 > child_cap:
            raise AssertionError(f"no admissible split at ({d}, {n}): right numerator "
                                 f"{n2} exceeds {child_cap}")
        if gamma:
            sel.add(at)
        left, right = at.children()
        self._place_selection(left, d - 1, n1, m - gamma, sel)
        self._place_selection(right, d - 1, n2, m - gamma, sel)

    # -- public surface ------------------------------------------------------

    def value(self, depth: int, average: RationalLike, level: int) -> DyadicRational:
        n, m = self._check_key(depth, average, level)
        return DyadicRational(self._count(depth, n, m), 1 << depth)

    def max_levelset(self, depth: int, average: RationalLike,
                     level: int) -> Tuple[DyadicRational, CarlesonSeq]:
        n, m = self._check_key(depth, average, level)
        count = self._count(depth, n, m)
        selected: Set[NodeAddress] = set()
        self._place_selection(ROOT, depth, n, m, selected)
        return DyadicRational(count, 1 << depth), CarlesonSeq(depth, selected)

    def table(self, depth: int, m_max: int) -> List[Tuple[Fraction, int, Fraction]]:
        """Every (a, m, F_depth(a, m)) with 0 <= m <= m_max, sorted by a and then m."""
        self._check_depth(depth)
        if m_max < 0:
            raise ValueError("m_max must be >= 0")
        width = self._cap_num(depth) + 1
        if width * (m_max + 1) > self.cell_cap:
            raise ResourceLimitError(
                f"a depth-{depth} table up to level {m_max} has {width * (m_max + 1)} "
                f"cells, more than the cell cap of {self.cell_cap}")
        top = min(m_max, depth + 1)
        self._fill_rows(depth, set(range(1, top + 1)))
        full = 1 << depth
        values = [Fraction(count, full) for count in range(full + 1)]
        rows = [[full] * width] + [self._rows[(depth, m)] for m in range(1, top + 1)]
        rows += [[0] * width] * (m_max - top)
        out: List[Tuple[Fraction, int, Fraction]] = []
        for n in range(width):
            a = Fraction(n, full)
            out.extend((a, m, values[row[n]]) for m, row in enumerate(rows))
        return out

    def convergence(self, average: RationalLike, level: int, depth_max: int,
                    depth_min: Optional[int] = None) -> List[ConvergenceRow]:
        """F_D at increasing depths with the exact gap below the closed form."""
        self._check_depth(depth_max)
        f = to_fraction(average)
        needed = max(dyadic_exponent(f), math.ceil(f) - 1, 0)
        start = needed if depth_min is None else max(depth_min, needed)
        target = candidate_eval(self.params, f, level)
        rows: List[ConvergenceRow] = []
        for depth in range(start, depth_max + 1):
            val = self.value(depth, f, level)
            rows.append(ConvergenceRow(depth=depth, value=val,
                                       gap=target - val))
        return rows

