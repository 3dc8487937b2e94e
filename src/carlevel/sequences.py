"""Finite binary Carleson sequences over the dyadic grid.

A sequence selects a set of node addresses down to a truncation depth N.
Everything downstream is derived from it here: subtree averages, the
Carleson constant (checked on selected nodes only, which suffices), the
generations of maximal selected intervals, the height of a leaf, and the
normalized level-set measures of the height function.

All arithmetic is exact.  A selection is kept per level on integer indices
from the code that builds it to the output: the selected indices of each
level, and the subtree sum under each index with a selection below it, as an
integer scaled by 2^N.  One top-down walk over those indices serves the
generations and the induction trace.  NodeAddress is only an input and output
type: ``selected`` builds its addresses the first time it is read.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

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


def _subtree_units(depth: int, selected_at: List[Set[int]]) -> List[Dict[int, int]]:
    """Per level of selected_at, the selected measure under each index with
    any, in units of 2^-depth.

    Built bottom-up, deepest level first: each level's sums pass to the
    parents once, so the cost follows the number of addresses with a
    selection below them, not the selection's size times its depth.
    """
    units: List[Dict[int, int]] = []
    carry: Dict[int, int] = {}
    for level in range(len(selected_at) - 1, -1, -1):
        w = 1 << (depth - level)
        for index in selected_at[level]:
            carry[index] = carry.get(index, 0) + w
        units.append(carry)
        parents: Dict[int, int] = {}
        for index, total in carry.items():
            # a lone child's sum passes up as the same int, not a copy per level
            parent = index >> 1
            parents[parent] = parents[parent] + total if parent in parents else total
        carry = parents
    units.reverse()
    return units


def _levels(depth: int, pairs: Iterable[Tuple[int, int]]) -> List[Set[int]]:
    """The selected indices of each level down to the deepest of the valid
    (level, index) pairs; a level below the depth raises."""
    levels: List[Set[int]] = []
    for level, index in pairs:
        if level > depth:
            raise ValueError(f"selected address {NodeAddress(level, index)} below truncation "
                             f"depth {depth}")
        while len(levels) <= level:
            levels.append(set())
        levels[level].add(index)
    return levels


class CarlesonSeq:
    """An immutable finite selection of dyadic addresses, truncated at ``depth``.

    Selected addresses live at levels 0..depth; heights are evaluated on the
    level-``depth`` leaves, where the height function is constant cell by cell.
    """

    __slots__ = ("depth", "_selected_at", "_units", "_selected", "_generations")

    def __init__(self, depth: int, selected: Iterable[NodeAddress] = ()) -> None:
        require_depth(depth)
        self._set_levels(depth, _levels(depth, ((a.level, a.index) for a in selected)))

    @classmethod
    def _from_levels(cls, depth: int, levels: List[Set[int]]) -> "CarlesonSeq":
        """The sequence selecting levels[l], a set of indices < 2^l, at each level
        l <= depth; the caller has checked both bounds and hands the sets over."""
        self = object.__new__(cls)
        self._set_levels(depth, levels)
        return self

    def _set_levels(self, depth: int, levels: List[Set[int]]) -> None:
        while levels and not levels[-1]:
            levels.pop()
        object.__setattr__(self, "depth", depth)
        # _selected_at[level]: the selected indices, down to the deepest selection
        object.__setattr__(self, "_selected_at", levels)
        # _units[level][index]: selected measure under the address, in units of 2^-depth
        object.__setattr__(self, "_units", _subtree_units(depth, levels))
        object.__setattr__(self, "_selected", None)
        object.__setattr__(self, "_generations", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("CarlesonSeq is immutable")

    @property
    def selected(self) -> FrozenSet[NodeAddress]:
        """The selected addresses, built the first time they are read."""
        if self._selected is None:
            object.__setattr__(self, "_selected", frozenset(
                NodeAddress(level, index)
                for level, indices in enumerate(self._selected_at) for index in indices))
        return self._selected

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CarlesonSeq):
            return NotImplemented
        return self.depth == other.depth and self._selected_at == other._selected_at

    def __hash__(self) -> int:
        return hash((self.depth, tuple(map(frozenset, self._selected_at))))

    def __repr__(self) -> str:
        return f"CarlesonSeq(depth={self.depth}, selected={sorted(self.selected)!r})"

    # -- averages -----------------------------------------------------------

    def carleson_average(self, j: NodeAddress) -> DyadicRational:
        """Average of the selection over j: sum over selected K inside j of |K|/|j|."""
        if j.level >= len(self._units):
            return DyadicRational(0)
        return DyadicRational(self._units[j.level].get(j.index, 0), 1 << (self.depth - j.level))

    # -- maximal selected intervals ------------------------------------------

    def _strata(self) -> Iterator[List[Tuple[int, int, int, bool]]]:
        """Top-down, one list per level down to the deepest selection: for each
        address with a selection below it, in index order, (index, selected
        strict ancestors, subtree units, whether it is selected)."""
        live = [(0, 0)]
        for units, selected, below in zip(self._units, self._selected_at,
                                          self._units[1:] + [{}]):
            stratum = [(index, k, units[index], index in selected) for index, k in live]
            yield stratum
            live = [(child, k + own) for index, k, _, own in stratum
                    for child in (2 * index, 2 * index + 1) if child in below]

    def sparse_generations(self) -> List[List[NodeAddress]]:
        """Generation m is the selected addresses with exactly m selected strict
        ancestors, in address order: generation 0 is the maximal selected
        addresses, and each later one the maximal ones strictly inside the
        previous.  Read off the top-down walk, level by level."""
        if self._generations is not None:
            return self._generations
        gens: List[List[NodeAddress]] = []
        for level, stratum in enumerate(self._strata()):
            for index, k, _, own in stratum:
                if own:
                    # its k selected strict ancestors sit on earlier levels, so
                    # generations 0..k-1 already exist
                    if k == len(gens):
                        gens.append([])
                    gens[k].append(NodeAddress(level, index))
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
        return DyadicRational(total, 1 << self.depth)

    # -- heights and level sets ----------------------------------------------

    def height_at(self, leaf: NodeAddress) -> int:
        """Number of selected addresses containing the leaf, the leaf included."""
        if leaf.level != self.depth:
            raise ValueError(
                f"height is evaluated at leaf level {self.depth}, got level {leaf.level}")
        return sum(1 for level, selected in enumerate(self._selected_at)
                   if leaf.index >> (self.depth - level) in selected)

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
        return CarlesonSeq._from_levels(n, self._selected_at[:n])

    # -- interchange -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "format": JSON_FORMAT,
            "depth": self.depth,
            "selected": [[level, index] for level, indices in enumerate(self._selected_at)
                         for index in sorted(indices)],
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
        for pos, entry in enumerate(raw):
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or not all(type(v) is int for v in entry)):
                raise ValueError(f'field "selected"[{pos}]: expected [level, index], got {entry!r}')
            level, index = entry
            if level < 0 or index < 0 or index.bit_length() > level:
                try:
                    NodeAddress(level, index)  # words the refusal
                except ValueError as exc:
                    raise ValueError(f'field "selected"[{pos}]: {exc}') from None
        levels = _levels(depth, raw)
        if sum(map(len, levels)) != len(raw):
            first: Dict[Tuple[int, int], int] = {}
            for pos, entry in enumerate(raw):
                if first.setdefault(tuple(entry), pos) != pos:
                    raise ValueError(f'field "selected"[{pos}]: {entry!r} repeats '
                                     f'entry {first[tuple(entry)]}')
        return cls._from_levels(depth, levels)

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
    # average * 2^depth is units << level; ties go to the least (level, index)
    top, neg_level, neg_index = max(
        ((seq._units[level][index] << level, -level, -index)
         for level, selected in enumerate(seq._selected_at) for index in selected),
        default=(0, 0, 0))
    witness = NodeAddress(-neg_level, -neg_index)
    best = DyadicRational(top, 1 << seq.depth)
    is_c = None
    if C is not None:
        is_c = best <= to_fraction(C)
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
    chosen: List[Set[int]] = [set() for _ in range(depth + 1)]
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
                chosen[level].add(index)
    return CarlesonSeq._from_levels(depth, chosen)
