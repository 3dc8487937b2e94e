"""Finite binary Carleson sequences over the dyadic grid.

A sequence selects a set of node addresses down to a truncation depth N.
Everything downstream is derived from it here: subtree averages, the
Carleson constant (checked on selected nodes only, which suffices), the
generations of maximal selected intervals, the height of a leaf, and the
normalized level-set measures of the height function.

All arithmetic is exact.  Internally, subtree sums are cached as integers
scaled by 2^N, so every query after construction is O(1) int work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .dyadic import ROOT, DyadicRational, NodeAddress, RationalLike, to_fraction
from .errors import ResourceLimitError

JSON_FORMAT = "carleson-seq/1"

# Deepest truncation accepted from outside; every leaf weight 2^depth is a big int.
MAX_DEPTH = 1 << 20

# Most proposals random_carleson makes, one per address: depth 19 at most.
MAX_PROPOSALS = 1 << 20


def require_depth(depth: int) -> None:
    """Refuse a negative depth, or one above MAX_DEPTH, before anything that size is built."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > MAX_DEPTH:
        raise ResourceLimitError(f"depth {depth} exceeds the depth limit of {MAX_DEPTH}")


def _subtree_units(depth: int, selected: Iterable[NodeAddress]) -> Dict[NodeAddress, int]:
    """Selected measure under each address with any, in units of 2^-depth.

    Built bottom-up, deepest level first: each level's sums pass to the
    parents once, so the cost follows the number of addresses with a
    selection below them, not the selection's size times its depth.
    """
    by_level: Dict[int, List[int]] = {}
    for a in selected:
        by_level.setdefault(a.level, []).append(a.index)
    units: Dict[NodeAddress, int] = {}
    carry: Dict[int, int] = {}
    for level in range(max(by_level, default=-1), -1, -1):
        w = 1 << (depth - level)
        for index in by_level.get(level, ()):
            carry[index] = carry.get(index, 0) + w
        parents: Dict[int, int] = {}
        for index, total in carry.items():
            units[NodeAddress(level, index)] = total
            parents[index >> 1] = parents.get(index >> 1, 0) + total
        carry = parents
    return units


class CarlesonSeq:
    """An immutable finite selection of dyadic addresses, truncated at ``depth``.

    Selected addresses live at levels 0..depth; heights are evaluated on the
    level-``depth`` leaves, where the height function is constant cell by cell.
    """

    __slots__ = ("depth", "selected", "_units", "_generations")

    def __init__(self, depth: int, selected: Iterable[NodeAddress] = ()) -> None:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        sel = frozenset(selected)
        for a in sel:
            if a.level > depth:
                raise ValueError(f"selected address {a} below truncation depth {depth}")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "selected", sel)
        object.__setattr__(self, "_units", _subtree_units(depth, sel))
        object.__setattr__(self, "_generations", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("CarlesonSeq is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CarlesonSeq):
            return NotImplemented
        return self.depth == other.depth and self.selected == other.selected

    def __hash__(self) -> int:
        return hash((self.depth, self.selected))

    def __repr__(self) -> str:
        return f"CarlesonSeq(depth={self.depth}, selected={sorted(self.selected)!r})"

    # -- averages -----------------------------------------------------------

    def carleson_average(self, j: NodeAddress) -> DyadicRational:
        """Average of the selection over j: sum over selected K inside j of |K|/|j|."""
        if j.level > self.depth:
            return DyadicRational(0)
        return DyadicRational(self._units.get(j, 0), self.depth - j.level)

    # -- maximal selected intervals ------------------------------------------

    def alpha_children(self, j: NodeAddress) -> List[NodeAddress]:
        """Maximal selected addresses strictly inside j, in address order."""
        out: List[NodeAddress] = []
        if j.level >= self.depth:
            return out
        stack = list(j.children())
        while stack:
            a = stack.pop()
            if a in self.selected:
                out.append(a)
            elif self._units.get(a, 0) and a.level < self.depth:
                stack.extend(a.children())
        out.sort()
        return out

    def sparse_generations(self) -> List[List[NodeAddress]]:
        """Generation 0 is the maximal selected addresses; each later one is
        the maximal selected addresses strictly inside the previous."""
        if self._generations is not None:
            return self._generations
        gens: List[List[NodeAddress]] = []
        if ROOT in self.selected:
            gen = [ROOT]
        elif self._units.get(ROOT, 0):
            gen = self.alpha_children(ROOT)
        else:
            gen = []
        while gen:
            gens.append(gen)
            nxt: List[NodeAddress] = []
            for k in gen:
                nxt.extend(self.alpha_children(k))
            nxt.sort()
            gen = nxt
        object.__setattr__(self, "_generations", gens)
        return gens

    def generation_measure(self, m: int) -> DyadicRational:
        """Normalized size of the union of generation m; 0 once generations stop."""
        if m < 0:
            raise ValueError("generation index must be >= 0")
        gens = self.sparse_generations()
        if m >= len(gens):
            return DyadicRational(0)
        total = sum(1 << (self.depth - a.level) for a in gens[m])
        return DyadicRational(total, self.depth)

    # -- heights and level sets ----------------------------------------------

    def height_at(self, leaf: NodeAddress) -> int:
        """Number of selected addresses containing the leaf, the leaf included."""
        if leaf.level != self.depth:
            raise ValueError(
                f"height is evaluated at leaf level {self.depth}, got level {leaf.level}")
        return sum(1 for a in leaf.ancestors() if a in self.selected)

    def level_set_measure(self, threshold: RationalLike) -> DyadicRational:
        """Normalized measure of the set where the height is >= threshold.

        Non-positive thresholds give 1; otherwise only the ceiling of the
        threshold matters, and the answer is the measure of generation
        ceil(threshold) - 1.
        """
        t = to_fraction(threshold)
        if t <= 0:
            return DyadicRational(1)
        return self.generation_measure(math.ceil(t) - 1)

    # -- restructuring ---------------------------------------------------------

    def truncate(self, n: int) -> "CarlesonSeq":
        """Drop every selection at level >= n; the result has depth n."""
        if not 0 <= n <= self.depth:
            raise ValueError(f"truncation level {n} not in [0, {self.depth}]")
        return CarlesonSeq(n, {a for a in self.selected if a.level < n})

    # -- interchange -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "format": JSON_FORMAT,
            "depth": self.depth,
            "selected": [[a.level, a.index] for a in sorted(self.selected)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "CarlesonSeq":
        if not isinstance(data, dict):
            raise ValueError("sequence JSON must be an object")
        fmt = data.get("format")
        if fmt != JSON_FORMAT:
            raise ValueError(f'field "format": expected "{JSON_FORMAT}", got {fmt!r}')
        depth = data.get("depth")
        if type(depth) is not int or depth < 0:
            raise ValueError(f'field "depth": expected a non-negative integer, got {depth!r}')
        require_depth(depth)
        raw = data.get("selected")
        if not isinstance(raw, list):
            raise ValueError('field "selected": expected a list of [level, index] pairs')
        sel = []
        for pos, entry in enumerate(raw):
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or not all(type(v) is int for v in entry)):
                raise ValueError(f'field "selected"[{pos}]: expected [level, index], got {entry!r}')
            try:
                sel.append(NodeAddress(entry[0], entry[1]))
            except ValueError as exc:
                raise ValueError(f'field "selected"[{pos}]: {exc}') from None
        seq = cls(depth, sel)
        if len(seq.selected) != len(sel):
            first: Dict[NodeAddress, int] = {}
            for pos, a in enumerate(sel):
                if first.setdefault(a, pos) != pos:
                    raise ValueError(f'field "selected"[{pos}]: {raw[pos]!r} repeats '
                                     f'entry {first[a]}')
        return seq

    @classmethod
    def from_json(cls, text: str) -> "CarlesonSeq":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
        return cls.from_json_dict(data)


@dataclass(frozen=True)
class ValidationReport:
    """Result of checking a sequence's Carleson constant against a bound C."""

    carleson_constant: DyadicRational
    average_at_root: DyadicRational
    is_c_carleson: Optional[bool]
    worst_witness: NodeAddress


def carleson_constant(seq: CarlesonSeq, C: Optional[RationalLike] = None) -> ValidationReport:
    """Compute the Carleson constant, i.e. the sup of subtree averages.

    Only selected addresses need to be inspected: an unselected interval's
    average is a measure-weighted mean of its maximal selected descendants'
    averages, so it can never exceed their sup.  The witness is the least
    address attaining it.
    """
    units = seq._units
    # average * 2^depth is units << level; ties go to the least (level, index)
    witness = max(seq.selected, default=ROOT,
                  key=lambda a: (units[a] << a.level, -a.level, -a.index))
    best = seq.carleson_average(witness)
    is_c = None
    if C is not None:
        is_c = best.as_fraction() <= to_fraction(C)
    return ValidationReport(
        carleson_constant=best,
        average_at_root=seq.carleson_average(ROOT),
        is_c_carleson=is_c,
        worst_witness=witness,
    )


def _zero_levels(depth: int) -> List[List[int]]:
    """A zero per address of levels 0..depth, level by level: 2^(depth+1) - 1 ints."""
    return [[0] * (1 << level) for level in range(depth + 1)]


def random_carleson(depth: int, C: RationalLike, rng_seed: int,
                    density: float = 0.5) -> CarlesonSeq:
    """Draw a random sequence with Carleson constant <= C, deterministically.

    Addresses are visited top-down in (level, index) order; a coin proposes
    each selection and the proposal is rejected whenever accepting it would
    push some containing interval's average above C.  Since later proposals
    are themselves checked, every accepted state stays within the bound.
    Every address is one proposal, so 2^(depth+1) - 1 of them may not
    exceed MAX_PROPOSALS.
    """
    depth = int(depth)
    require_depth(depth)
    bound = to_fraction(C)
    if bound < 1:
        raise ValueError("C must be >= 1")
    if (1 << (depth + 1)) - 1 > MAX_PROPOSALS:
        raise ResourceLimitError(f"depth {depth} needs 2^{depth + 1} - 1 proposals, "
                                 f"above the budget of {MAX_PROPOSALS}")
    p, q = bound.numerator, bound.denominator
    draw = random.Random(rng_seed).random
    # units[l][i]: q times the selected measure under (l, i), in units of 2^-depth;
    # accepting keeps it <= caps[l], i.e. the average at (l, i) <= p/q
    units = _zero_levels(depth)
    caps = [p << (depth - level) for level in range(depth + 1)]
    chosen: List[NodeAddress] = []
    for level in range(depth + 1):
        w = q << (depth - level)
        for index in range(1 << level):
            if draw() >= density:
                continue
            # the address itself never overflows (nothing below it is chosen yet, and
            # q <= p), so only its strict ancestors are checked
            for l in range(level):
                if units[l][index >> (level - l)] + w > caps[l]:
                    break
            else:
                for l in range(level + 1):
                    units[l][index >> (level - l)] += w
                chosen.append(NodeAddress(level, index))
    return CarlesonSeq(depth, chosen)
