"""Exact dyadic rationals and combinatorial dyadic-grid addresses.

Numbers of the form p/2^e are kept in a dedicated type so that quantities
which are provably dyadic (interval measures, selection averages) can never
silently acquire an odd denominator.  General rationals (the Carleson bound
C may be something like 16/5) are plain ``fractions.Fraction``; the two mix
only through exact cross-multiplication comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Tuple, Union

from .errors import PrecisionError

RationalLike = Union["DyadicRational", Fraction, int]


def to_fraction(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or DyadicRational to an exact Fraction."""
    if isinstance(x, DyadicRational):
        return x.as_fraction()
    if isinstance(x, (int, Fraction)):
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


class DyadicRational:
    """Exact number numerator / 2^log2_denominator, eagerly canonicalized.

    Canonical form: the numerator is odd or zero, or the exponent is 0, so
    equality is structural.  Never constructible from a non-dyadic rational;
    arithmetic goes through ``as_fraction()``.
    """

    __slots__ = ("numerator", "log2_denominator")

    def __init__(self, numerator: int, log2_denominator: int = 0) -> None:
        if log2_denominator < 0:
            raise ValueError("log2_denominator must be >= 0")
        n, e = numerator, log2_denominator
        if n == 0:
            e = 0
        else:
            # strip the trailing zero bits, but never below exponent 0
            shift = min((n & -n).bit_length() - 1, e)
            n, e = n >> shift, e - shift
        object.__setattr__(self, "numerator", n)
        object.__setattr__(self, "log2_denominator", e)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("DyadicRational is immutable")

    @classmethod
    def from_fraction(cls, f: RationalLike) -> "DyadicRational":
        """Exact conversion; rejects denominators that are not powers of two."""
        if isinstance(f, DyadicRational):
            return f
        f = Fraction(f)
        return cls(f.numerator, dyadic_exponent(f))

    @classmethod
    def parse(cls, text: str) -> "DyadicRational":
        return cls.from_fraction(parse_rational(text))

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.log2_denominator)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DyadicRational):
            return (self.numerator == other.numerator
                    and self.log2_denominator == other.log2_denominator)
        if isinstance(other, (int, Fraction)):
            return self.as_fraction() == other
        return NotImplemented

    def __lt__(self, other: RationalLike) -> bool:
        return self.as_fraction() < to_fraction(other)

    def __le__(self, other: RationalLike) -> bool:
        return self.as_fraction() <= to_fraction(other)

    def __gt__(self, other: RationalLike) -> bool:
        return self.as_fraction() > to_fraction(other)

    def __ge__(self, other: RationalLike) -> bool:
        return self.as_fraction() >= to_fraction(other)

    def __hash__(self) -> int:
        # matches Fraction's numeric hash, so dyadics and fractions mix in sets
        return hash(self.as_fraction())

    def __bool__(self) -> bool:
        return self.numerator != 0

    def __floor__(self) -> int:
        return self.numerator >> self.log2_denominator

    def __ceil__(self) -> int:
        return -((-self.numerator) >> self.log2_denominator)

    def __str__(self) -> str:
        if self.log2_denominator == 0:
            return str(self.numerator)
        return f"{self.numerator}/{1 << self.log2_denominator}"

    def __repr__(self) -> str:
        return f"DyadicRational({self.numerator}, {self.log2_denominator})"


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
