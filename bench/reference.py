"""Independent reference computations for the benchmark's correctness gate.

These are written from the definitions, not from carlevel's code, so the
gate still catches a wrong answer when the program's own helpers are wrong.
Selections are sets of (level, index) tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Set, Tuple

Address = Tuple[int, int]


def ceil_int(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def closed_form(C: Fraction, avg: Fraction, lam: Fraction) -> Fraction:
    """The optimal level-set bound, transcribed from its three-branch formula."""
    if lam <= 0:
        return Fraction(1)
    m = ceil_int(lam)
    floor_c = C.numerator // C.denominator
    if lam <= floor_c:
        return min(Fraction(1), avg / m)
    return avg / floor_c * ((C - 1) / C) ** (m - floor_c)


def _ancestors(addr: Address) -> Iterable[Address]:
    """The address itself, then each strictly larger dyadic interval up to the root."""
    level, index = addr
    while level >= 0:
        yield level, index
        level, index = level - 1, index >> 1


def subtree_units(depth: int, selected: Set[Address]) -> Dict[Address, int]:
    """Selected measure inside each interval that holds a selection, scaled by 2^depth."""
    units: Dict[Address, int] = {}
    for addr in selected:
        weight = 1 << (depth - addr[0])
        for anc in _ancestors(addr):
            units[anc] = units.get(anc, 0) + weight
    return units


def root_average(depth: int, selected: Set[Address]) -> Fraction:
    return Fraction(sum(1 << (depth - level) for level, _ in selected), 1 << depth)


def carleson_constant(depth: int, selected: Set[Address]) -> Fraction:
    """Largest average over a selected interval (0 for the empty selection)."""
    units = subtree_units(depth, selected)
    return max((Fraction(units[a], 1 << (depth - a[0])) for a in selected), default=Fraction(0))


def heights(selected: Set[Address]) -> Dict[Address, int]:
    """For each selected interval, the number of selected intervals containing it."""
    return {a: sum(1 for anc in _ancestors(a) if anc in selected) for a in selected}


def level_set(depth: int, selected: Set[Address], lam: Fraction) -> Fraction:
    """Measure of the set where the height function is >= lam.

    The set is the disjoint union of the selected intervals whose height is
    exactly ceil(lam): an interval of larger height lies inside one of them.
    """
    if lam <= 0:
        return Fraction(1)
    m = ceil_int(lam)
    total = sum(1 << (depth - a[0]) for a, h in heights(selected).items() if h == m)
    return Fraction(total, 1 << depth)


def level_sets(depth: int, selected: Set[Address], count: int) -> List[Fraction]:
    """Level-set measures for the thresholds 0, 1, ..., count - 1."""
    return [level_set(depth, selected, Fraction(m)) for m in range(count)]


def is_realisable(avg: Fraction, depth: int) -> bool:
    """Whether the roof construction can hit avg exactly within the given depth.

    The integer part takes that many fully selected levels, and the dyadic
    fractional part needs as many further levels as its denominator's exponent.
    """
    whole = avg.numerator // avg.denominator
    frac = avg - whole
    bits = frac.denominator.bit_length() - 1 if frac else 0
    return whole <= depth and bits <= depth - whole
