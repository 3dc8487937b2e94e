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

from .dyadic import RationalLike, dyadic_exponent, to_fraction
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


def _place_bits(bases: range, bits: List[int]) -> List[Set[int]]:
    """The disjoint selection of the binary expansion `bits` below each index of
    `bases` at one level: for k = 1..len(bits), the indices selected k levels down."""
    levels: List[Set[int]] = []
    path = 0  # the walk below a base so far, one bit per level: 1 where it went right
    for k, bit in enumerate(bits, 1):
        levels.append({b << k | path << 1 | 1 for b in bases} if bit else set())
        path = path << 1 | (1 - bit)
    return levels


def construct_fractional(a: RationalLike, depth: int) -> CarlesonSeq:
    """A pairwise-disjoint selection of total relative measure a in [0, 1)."""
    require_depth(depth)
    bits = binary_expansion(a, depth)
    # the 1-bits end at the dyadic exponent; the zeros after it select nothing
    levels = [set()] + _place_bits(range(1), bits[:dyadic_exponent(a)])
    return CarlesonSeq._from_levels(depth, levels)


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
        if depth + 1 > MAX_CONSTRUCT_ADDRESSES:
            raise ResourceLimitError(
                f"a partition of depth {depth} selects more than the construction budget "
                f"of {MAX_CONSTRUCT_ADDRESSES} addresses")
        # the right child at each level 1..depth and the last leftmost cell: a
        # partition of the main interval into depth + 1 disjoint pieces
        return CarlesonSeq._from_levels(depth, [set()] + [{1} for _ in range(1, depth)] + [{0, 1}])
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

    # the roof's levels, then the expansion below each index of its last level
    # (below the root when there is no roof)
    levels = [set(range(1 << level)) for level in range(whole)] or [set()]
    levels += _place_bits(range(1 << (len(levels) - 1)), binary_expansion(frac, nbits))
    return CarlesonSeq._from_levels(depth, levels)
