"""Exact dyadic rationals and combinatorial dyadic-grid addresses.

Every rational is a ``fractions.Fraction``.  Quantities that are provably
dyadic, p/2^e (interval measures, selection averages, DP values), are
returned as ``DyadicRational``, a Fraction that refuses any other
denominator when built; it compares, hashes, prints and computes as a
Fraction, and its arithmetic gives plain Fractions.  General rationals
(the Carleson bound C may be something like 16/5) are plain Fractions.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Tuple, Union

from .errors import PrecisionError

RationalLike = Union[Fraction, int]


def to_fraction(x: RationalLike) -> Fraction:
    """An int as an exact Fraction; a Fraction, or a subclass of one, as it is."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer, or a finite decimal literal, exactly."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational from {text!r}: {exc}") from None


def dyadic_exponent(x: RationalLike) -> int:
    """The least e >= 0 with x * 2^e an integer; PrecisionError if there is none."""
    q = to_fraction(x).denominator
    if q & (q - 1):
        raise PrecisionError(f"{x} is not dyadic (denominator {q})")
    return q.bit_length() - 1


def grid_top(x: RationalLike, e: int) -> int:
    """The largest grid index j with j / 2^e <= x, i.e. floor(x * 2^e), for e >= 0."""
    f = to_fraction(x)
    return (f.numerator << e) // f.denominator


class DyadicRational(Fraction):
    """A Fraction whose reduced denominator is a power of two.

    Built like a Fraction, ``DyadicRational(numerator, denominator)`` or from
    one string or rational, and refused with PrecisionError otherwise; a
    float or Decimal raises TypeError.  Arithmetic returns a plain Fraction.
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None) -> "DyadicRational":
        if (type(numerator) is int and type(denominator) is int and denominator > 0
                and not denominator & (denominator - 1)):
            # n / 2^e: strip the common trailing zero bits (all of them when n is 0)
            # in linear time, where Fraction's gcd is quadratic in the bit lengths
            # of an unbalanced pair; the pair is then reduced, so the gcd is skipped
            shift = min(numerator & -numerator or denominator, denominator).bit_length() - 1
            self = object.__new__(cls)
            self._numerator, self._denominator = numerator >> shift, denominator >> shift
            return self
        if not isinstance(numerator, (str, numbers.Rational)):
            raise TypeError(f"not an exact rational: {numerator!r}")
        self = super().__new__(cls, numerator, denominator)
        dyadic_exponent(self)
        return self

    def as_fraction(self) -> Fraction:
        """The same value as a plain Fraction (``bench/workloads.py`` still calls it)."""
        return Fraction(self)


@dataclass(frozen=True, order=True)
class NodeAddress:
    """A dyadic interval addressed combinatorially as (level, index).

    Level k splits the main interval into 2^k congruent pieces; the index
    counts them left to right.  Real endpoints are never materialized.
    """

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be >= 0")
        # index < 2^level, without building 2^level
        if self.index < 0 or self.index.bit_length() > self.level:
            raise ValueError(f"index {self.index} out of range at level {self.level}")

    def children(self) -> Tuple["NodeAddress", "NodeAddress"]:
        """Left and right halves, one level down."""
        return (NodeAddress(self.level + 1, 2 * self.index),
                NodeAddress(self.level + 1, 2 * self.index + 1))

    def parent(self) -> "NodeAddress":
        if self.level == 0:
            raise ValueError("the main interval has no parent")
        return NodeAddress(self.level - 1, self.index // 2)

    def is_ancestor_of(self, other: "NodeAddress") -> bool:
        """True iff this interval contains the other (non-strict)."""
        if self.level > other.level:
            return False
        return other.index >> (other.level - self.level) == self.index

    def ancestors(self) -> Iterator["NodeAddress"]:
        """This address and every address above it, leaf to root."""
        a = self
        while True:
            yield a
            if a.level == 0:
                return
            a = a.parent()

    def leaf_span(self, depth: int) -> Tuple[int, int]:
        """Half-open index range [lo, hi) covered at the given deeper level."""
        if depth < self.level:
            raise ValueError("depth above this address's level")
        shift = depth - self.level
        return self.index << shift, (self.index + 1) << shift


ROOT = NodeAddress(0, 0)
