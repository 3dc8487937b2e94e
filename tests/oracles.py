"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the package's cached sums, generation
machinery, probe shortcuts, and DP: selections are raw address sets (or
bitmasks over heap-ordered nodes), and every quantity is recomputed by
direct enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from carlevel import ROOT, CarlesonSeq, InductionTrace, NodeAddress


def all_addresses(depth: int) -> List[NodeAddress]:
    return [NodeAddress(level, index)
            for level in range(depth + 1)
            for index in range(1 << level)]


def iter_all_selections(depth: int) -> Iterator[FrozenSet[NodeAddress]]:
    """Every subset of the full address tree of the given depth."""
    addrs = all_addresses(depth)
    for mask in range(1 << len(addrs)):
        yield frozenset(a for bit, a in enumerate(addrs) if mask >> bit & 1)


def brute_average(selected: Iterable[NodeAddress], j: NodeAddress) -> Fraction:
    """Direct sum of |K| / |j| over selected K inside j."""
    total = Fraction(0)
    for k in selected:
        if j.is_ancestor_of(k):
            total += Fraction(1, 1 << (k.level - j.level))
    return total


def brute_sup_all_addresses(selected: Iterable[NodeAddress], depth: int) -> Fraction:
    """Sup of the average over every address of the grid, not just selected ones.

    Heap-array bottom-up accumulation; independent of the package's cached
    ancestor-walk representation."""
    nodes = (1 << (depth + 1)) - 1
    units = [0] * (nodes + 2)
    sel_heap = {(1 << a.level) + a.index for a in selected}
    best = Fraction(0)
    for i in range(nodes, 0, -1):
        child = 2 * i
        u = (units[child] + units[child + 1]) if child <= nodes else 0
        weight = 1 << (depth - (i.bit_length() - 1))
        if i in sel_heap:
            u += weight
        units[i] = u
        if u:
            best = max(best, Fraction(u, weight))
    return best


def brute_units(depth: int, selected: Iterable[NodeAddress]) -> Dict[NodeAddress, int]:
    """Selected measure under each address, in units of 2^-depth, by walking
    every selected address's ancestors; only addresses with a selection below."""
    units: Dict[NodeAddress, int] = {}
    for a in selected:
        for anc in a.ancestors():
            units[anc] = units.get(anc, 0) + (1 << (depth - a.level))
    return units


def brute_generations(selected: Iterable[NodeAddress]) -> List[List[NodeAddress]]:
    """Generation m: the selected addresses with m selected strict ancestors, sorted,
    by walking every selected address's ancestors."""
    sel = set(selected)
    gens: Dict[int, List[NodeAddress]] = {}
    for a in sel:
        m = sum(1 for anc in a.ancestors() if anc != a and anc in sel)
        gens.setdefault(m, []).append(a)
    return [sorted(gens[m]) for m in range(len(gens))]


def brute_heights(selected: Iterable[NodeAddress], depth: int) -> List[int]:
    """Height of each level-``depth`` leaf: selected addresses containing it."""
    sel = set(selected)
    out = []
    for index in range(1 << depth):
        leaf = NodeAddress(depth, index)
        out.append(sum(1 for a in leaf.ancestors() if a in sel))
    return out


def brute_levelset(heights: List[int], threshold: Fraction) -> Fraction:
    """Leaf-counting level-set measure, straight from brute_heights' leaf heights."""
    t = Fraction(threshold)
    if t <= 0:
        return Fraction(1)
    return Fraction(sum(1 for h in heights if h >= t), len(heights))


def brute_trace(fn, seq: CarlesonSeq, lam) -> InductionTrace:
    """induction_trace node by node: fn once for each of the 2^n nodes of every
    level n = 0..depth + 1, with averages and heights recomputed directly."""
    lam = Fraction(lam)
    sums: List[Fraction] = []
    frontier: List[Tuple[NodeAddress, Fraction]] = [(ROOT, lam)]
    last_level = seq.depth + 1
    for level in range(last_level + 1):
        total = Fraction(0)
        for addr, residual in frontier:
            total += fn(brute_average(seq.selected, addr), residual)
        sums.append(total / (1 << level))
        if level == last_level:
            break
        nxt: List[Tuple[NodeAddress, Fraction]] = []
        for addr, residual in frontier:
            child_residual = residual - (1 if addr in seq.selected else 0)
            left, right = addr.children()
            nxt.append((left, child_residual))
            nxt.append((right, child_residual))
        frontier = nxt
    level_set = brute_levelset(brute_heights(seq.selected, seq.depth), lam)
    return InductionTrace(
        threshold=lam,
        level_sums=tuple(sums),
        steps_ok=tuple(sums[n] >= sums[n + 1] for n in range(last_level)),
        level_set=level_set,
        final_ok=sums[-1] >= level_set,
    )


# -- exhaustive extremal search (heap-indexed bitmask enumeration) -------------


def brute_force_extremal(C: Fraction, depth: int, m_values: Iterable[int],
                         ) -> Dict[Tuple[Fraction, int], Fraction]:
    """Max level-set measure per (root average, m), by enumerating all selections.

    Nodes are heap-indexed (node i has children 2i and 2i+1) so the whole
    selection is a bitmask; the Carleson constraint is checked at every
    selected node by exact cross-multiplication.
    """
    ms = list(m_values)
    nodes = (1 << (depth + 1)) - 1
    level = [0] * (nodes + 1)
    for i in range(1, nodes + 1):
        level[i] = i.bit_length() - 1
    weight = [0] * (nodes + 1)
    for i in range(1, nodes + 1):
        weight[i] = 1 << (depth - level[i])
    p, q = C.numerator, C.denominator
    first_leaf = 1 << depth
    full = 1 << depth
    best: Dict[Tuple[Fraction, int], int] = {}
    units = [0] * (nodes + 2)
    for mask in range(1 << nodes):
        ok = True
        for i in range(nodes, 0, -1):
            child = 2 * i
            u = (units[child] + units[child + 1]) if child <= nodes else 0
            if mask >> (i - 1) & 1:
                u += weight[i]
                if u * q > p * weight[i]:
                    ok = False
                    break
            units[i] = u
        if not ok:
            continue
        root_units = units[1]
        heights = []
        for leaf in range(first_leaf, first_leaf + full):
            h, i = 0, leaf
            while i:
                h += mask >> (i - 1) & 1
                i >>= 1
            heights.append(h)
        for m in ms:
            count = full if m <= 0 else sum(1 for h in heights if h >= m)
            key = (root_units, m)
            if best.get(key, -1) < count:
                best[key] = count
    return {(Fraction(units_, full), m): Fraction(count, full)
            for (units_, m), count in best.items()}


# -- quadratic pair scans for the grid inequalities ------------------------------


def brute_pair_concavity_ok(fn, grid) -> bool:
    """All-pairs midpoint concavity over the coarse grid, by direct evaluation."""
    for lam in grid.lambda_values:
        coarse = grid.coarse_values()
        vals = [fn(a, lam) for a in coarse]
        for i, a1 in enumerate(coarse):
            for j in range(i, len(coarse)):
                mid = (a1 + coarse[j]) / 2
                if fn(mid, lam) < (vals[i] + vals[j]) / 2:
                    return False
    return True


def brute_main_inequality_ok(fn, grid) -> bool:
    """All pairs and both shifts of the two-point inequality, directly."""
    for lam in grid.lambda_values:
        coarse = grid.coarse_values()
        vals = [fn(a, lam) for a in coarse]
        for i, a1 in enumerate(coarse):
            for j in range(i, len(coarse)):
                mean = (a1 + coarse[j]) / 2
                rhs = (vals[i] + vals[j]) / 2
                if fn(mean, lam) < rhs:
                    return False
                if mean + 1 <= grid.C and fn(mean + 1, lam + 1) < rhs:
                    return False
    return True


def brute_jump_ok(fn, grid) -> bool:
    for lam in grid.lambda_values:
        for a in grid.coarse_values():
            if a + 1 <= grid.C and fn(a + 1, lam + 1) < fn(a, lam):
                return False
    return True
