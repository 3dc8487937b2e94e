"""Constructions of sequences realizing a prescribed root average exactly.

For a target in [0, 1) the selection comes straight from the binary
expansion: walking down the tree, a 1-bit selects the right child of the
current interval and the walk continues in the left child, a 0-bit moves
the walk into the right child.  The selected intervals are pairwise
disjoint with total relative measure equal to the target.

For targets >= 1 a "roof" of fully selected generations supplies the
integer part, and the fractional construction is replicated inside every
interval of the roof's last generation.
"""

from __future__ import annotations

import math
from typing import List, Set

from .dyadic import ROOT, NodeAddress, RationalLike, dyadic_exponent, to_fraction
from .errors import AdmissibilityError, PrecisionError, ResourceLimitError
from .sequences import CarlesonSeq, require_depth

# Addresses a roof construction may select.  Building the sequence costs more
# than twice as much per level of roof: a full roof of 14, 16 and 18 levels
# took 0.68 s, 3.2 s and 17.5 s (Python 3.11, 2-core VM).
MAX_CONSTRUCT_ADDRESSES = 1 << 16


def binary_expansion(a: RationalLike, depth: int) -> List[int]:
    """Bits b_1..b_depth with a = sum of b_m / 2^m; requires 0 <= a < 1."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    f = to_fraction(a)
    if not 0 <= f < 1:
        raise ValueError(f"binary expansion needs a value in [0, 1), got {f}")
    bits = dyadic_exponent(f)
    if bits > depth:
        raise PrecisionError(f"{f} needs {bits} bits, only {depth} available")
    scaled = f.numerator << (depth - bits)
    return [(scaled >> (depth - 1 - k)) & 1 for k in range(depth)]


def _place_bits(at: NodeAddress, bits: List[int], selected: Set[NodeAddress]) -> None:
    """Add the disjoint selection of the binary expansion `bits` below the address `at`."""
    for bit in bits:
        left, right = at.children()
        if bit:
            selected.add(right)
            at = left
        else:
            at = right


def construct_fractional(a: RationalLike, depth: int) -> CarlesonSeq:
    """A pairwise-disjoint selection of total relative measure a in [0, 1)."""
    selected: Set[NodeAddress] = set()
    _place_bits(ROOT, binary_expansion(a, depth), selected)
    return CarlesonSeq(depth, selected)


def _partition_staircase(depth: int) -> Set[NodeAddress]:
    # right child at each level plus the final leftmost cell: a partition of
    # the main interval into depth + 1 disjoint pieces of total measure 1
    sel = {NodeAddress(k, 1) for k in range(1, depth + 1)}
    sel.add(NodeAddress(depth, 0))
    return sel


def construct_admissible(a: RationalLike, C: RationalLike, depth: int,
                         style: str = "roof") -> CarlesonSeq:
    """Build a sequence with root average exactly a and Carleson constant <= C.

    The integer part of a is realized by selecting every address in levels
    0..floor(a)-1; the fractional part, which must be dyadic and fit in
    depth - floor(a) bits, is realized by identical disjoint constructions
    inside each level-(floor(a)-1) address (inside the root when a < 1).

    style="partition" gives the alternative all-disjoint realization of
    a = 1 that covers the main interval without selecting it.
    """
    target = to_fraction(a)
    bound = to_fraction(C)
    if bound < 1:
        raise ValueError("C must be >= 1")
    if target < 0 or target > bound:
        raise AdmissibilityError(f"average {target} outside [0, {bound}]")
    require_depth(depth)

    if style == "partition":
        if target != 1:
            raise ValueError("partition style only realizes average 1")
        if depth < 1:
            raise ValueError("partition style needs depth >= 1")
        return CarlesonSeq(depth, _partition_staircase(depth))
    if style != "roof":
        raise ValueError(f"unknown style {style!r}")

    whole = math.floor(target)
    frac = target - whole
    if depth < whole:
        raise ValueError(f"depth {depth} too small for integer part {whole}")
    nbits = dyadic_exponent(frac)
    if nbits > depth - whole:
        raise PrecisionError(
            f"fractional part {frac} needs {nbits} bits, "
            f"only {depth - whole} available below the roof")
    # the roof's 2^whole - 1 addresses plus one per 1-bit under each of its
    # 2^(whole - 1) bases (the root when whole = 0), counted before anything is
    # built; a roof too tall on its own is refused without shifting by its height
    if (whole >= MAX_CONSTRUCT_ADDRESSES.bit_length()
            or (1 << whole) - 1 + frac.numerator.bit_count() * (1 << max(whole - 1, 0))
            > MAX_CONSTRUCT_ADDRESSES):
        raise ResourceLimitError(
            f"average {target} selects more than the construction budget of "
            f"{MAX_CONSTRUCT_ADDRESSES} addresses")

    selected: Set[NodeAddress] = set()
    bases = [ROOT]
    for level in range(whole):
        bases = [NodeAddress(level, index) for index in range(1 << level)]
        selected.update(bases)
    bits = binary_expansion(frac, nbits)
    for base in bases:
        _place_bits(base, bits, selected)

    return CarlesonSeq(depth, selected)
