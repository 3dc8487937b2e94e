import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import carlevel.sequences
from carlevel import (
    ROOT,
    CarlesonSeq,
    NodeAddress,
    ResourceLimitError,
    carleson_constant,
    random_carleson,
)
from oracles import (
    all_addresses,
    brute_average,
    brute_generations,
    brute_heights,
    brute_levelset,
    brute_sup_all_addresses,
    brute_units,
    iter_all_selections,
)


def chain(n):
    """Leftmost chain: the first address of every level 0..n."""
    return CarlesonSeq(n, [NodeAddress(k, 0) for k in range(n + 1)])


def flat_units(seq):
    """The per-level subtree sums keyed by NodeAddress, as brute_units keys them."""
    return {NodeAddress(level, index): units
            for level, by_index in enumerate(seq._units) for index, units in by_index.items()}


class TestAverages:
    def test_single_root(self):
        seq = CarlesonSeq(0, [ROOT])
        assert seq.carleson_average(ROOT) == 1

    def test_three_full_generations(self):
        sel = [NodeAddress(l, i) for l in range(3) for i in range(1 << l)]
        seq = CarlesonSeq(3, sel)
        assert seq.carleson_average(ROOT) == 3

    def test_leftmost_chain_geometric_sum(self):
        seq = chain(4)
        assert seq.carleson_average(ROOT) == Fraction(31, 16)
        assert seq.carleson_average(NodeAddress(1, 0)) == Fraction(15, 8)
        assert seq.carleson_average(NodeAddress(1, 1)) == 0

    def test_matches_brute_force_everywhere(self):
        seq = random_carleson(6, Fraction(3), 77)
        for level in range(7):
            for index in range(1 << level):
                j = NodeAddress(level, index)
                assert seq.carleson_average(j).as_fraction() == brute_average(seq.selected, j)


    def test_subtree_units_match_ancestor_walk(self):
        for seed in range(60):
            C = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(16, 5), Fraction(7))[seed % 5]
            depth = seed % 13
            seq = random_carleson(depth, C, 5100 + seed, density=(0.25, 0.5, 0.9)[seed % 3])
            assert flat_units(seq) == brute_units(depth, seq.selected), seed
        assert flat_units(chain(6)) == brute_units(6, chain(6).selected)
        assert CarlesonSeq(4)._units == []

    def test_lone_subtree_sum_is_shared_up_the_levels(self):
        # one 2^61440-unit sum under 4096 ancestors: a copy per level would take 31 MB
        tracemalloc.start()
        try:
            seq = CarlesonSeq(1 << 16, [NodeAddress(1 << 12, 0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert seq.carleson_average(ROOT) == Fraction(1, 1 << (1 << 12))


class TestCarlesonConstant:
    def test_disjoint_selection_has_constant_one(self):
        seq = CarlesonSeq(2, [NodeAddress(1, 0), NodeAddress(2, 2)])
        report = carleson_constant(seq, 1)
        assert report.carleson_constant == 1
        assert report.is_c_carleson is True

    def test_chain_constant_and_witness(self):
        report = carleson_constant(chain(4), 2)
        assert report.carleson_constant == Fraction(31, 16)
        assert report.worst_witness == ROOT
        assert report.average_at_root == Fraction(31, 16)

    def test_empty_sequence(self):
        report = carleson_constant(CarlesonSeq(3), 1)
        assert report.carleson_constant == 0
        assert report.worst_witness == ROOT
        assert report.is_c_carleson is True

    def test_without_bound_flag_is_none(self):
        assert carleson_constant(chain(2)).is_c_carleson is None

    @staticmethod
    def first_maximum(seq):
        """The strict-> scan over sorted(selected), with brute averages."""
        best, witness = Fraction(0), ROOT
        for a in sorted(seq.selected):
            avg = brute_average(seq.selected, a)
            if avg > best:
                best, witness = avg, a
        return best, witness

    def test_witness_is_the_least_maximiser(self):
        # every selection of depth 2 has many ties: full levels, disjoint leaves
        seqs = [CarlesonSeq(2, sel) for sel in iter_all_selections(2)]
        seqs += [random_carleson(d, C, 40 + d, density=0.9)
                 for d in range(8) for C in (Fraction(1), Fraction(3, 2), Fraction(7))]
        for seq in seqs:
            report = carleson_constant(seq)
            best, witness = self.first_maximum(seq)
            assert (report.carleson_constant, report.worst_witness) == (best, witness), seq


class TestStructure:
    # the alpha children of an address, its maximal selected addresses strictly
    # inside, make up the next generation
    def test_alpha_children_skips_non_maximal(self):
        seq = CarlesonSeq(2, [ROOT, NodeAddress(1, 0), NodeAddress(2, 1)])
        assert seq.sparse_generations() == [[ROOT], [NodeAddress(1, 0)], [NodeAddress(2, 1)]]

    def test_alpha_children_siblings(self):
        seq = CarlesonSeq(1, [NodeAddress(1, 0), NodeAddress(1, 1)])
        assert seq.sparse_generations() == [[NodeAddress(1, 0), NodeAddress(1, 1)]]

    def test_alpha_children_at_leaf_level_empty(self):
        # the leaf (3, 0) has none, so the generations end with it
        seq = chain(3)
        assert seq.sparse_generations() == [[NodeAddress(k, 0)] for k in range(4)]

    def test_depth_is_checked_before_the_sums(self, monkeypatch):
        def refuse(depth, selected):
            raise AssertionError(f"built the sums of depth {depth}")

        monkeypatch.setattr(carlevel.sequences, "_subtree_units", refuse)
        with pytest.raises(ResourceLimitError, match="depth limit"):
            CarlesonSeq(carlevel.sequences.MAX_DEPTH + 1, [ROOT])
        with pytest.raises(ValueError, match="depth must be >= 0"):
            CarlesonSeq(-1)
        with pytest.raises(AssertionError, match="depth 3"):
            CarlesonSeq(3, [ROOT])

    def test_generations_root_only(self):
        assert CarlesonSeq(0, [ROOT]).sparse_generations() == [[ROOT]]

    def test_generations_two_levels(self):
        seq = CarlesonSeq(1, [ROOT, NodeAddress(1, 0), NodeAddress(1, 1)])
        assert seq.sparse_generations() == [[ROOT], [NodeAddress(1, 0), NodeAddress(1, 1)]]

    def test_generations_empty(self):
        assert CarlesonSeq(2).sparse_generations() == []

    def test_generation_measures(self):
        assert CarlesonSeq(0, [ROOT]).generation_measure(0) == 1
        seq = CarlesonSeq(2, [NodeAddress(1, 0), NodeAddress(2, 2)])
        assert seq.generation_measure(0) == Fraction(3, 4)
        seq2 = CarlesonSeq(1, [ROOT, NodeAddress(1, 0)])
        assert seq2.generation_measure(1) == Fraction(1, 2)
        assert seq2.generation_measure(5) == 0


class TestHeightsAndLevelSets:
    def test_height_examples(self):
        only_root = CarlesonSeq(3, [ROOT])
        for index in range(8):
            assert only_root.height_at(NodeAddress(3, index)) == 1
        seq = chain(4)
        assert seq.height_at(NodeAddress(4, 0)) == 5
        assert seq.height_at(NodeAddress(4, 8)) == 1

    def test_height_requires_leaf_level(self):
        with pytest.raises(ValueError):
            chain(4).height_at(NodeAddress(3, 0))

    def test_level_set_examples(self):
        assert chain(4).level_set_measure(-3) == 1
        assert CarlesonSeq(0, [ROOT]).level_set_measure(Fraction(16, 5)) == 0
        assert chain(4).level_set_measure(2) == Fraction(1, 2)


class TestTruncate:
    def test_truncate_chain(self):
        trimmed = chain(4).truncate(2)
        assert trimmed.depth == 2
        assert trimmed.selected == {ROOT, NodeAddress(1, 0)}

    def test_truncate_keeps_levels_strictly_above(self):
        # levels >= n are dropped, so a leaf-level selection does not survive
        # truncation at the sequence's own depth
        seq = CarlesonSeq(2, [ROOT, NodeAddress(2, 3)])
        same = seq.truncate(2)
        assert same.selected == {ROOT}
        no_leaf = CarlesonSeq(2, [ROOT, NodeAddress(1, 1)])
        assert no_leaf.truncate(2).selected == no_leaf.selected

    def test_truncate_empty(self):
        assert CarlesonSeq(0).truncate(0).selected == frozenset()

    def test_truncate_validates_level(self):
        with pytest.raises(ValueError):
            chain(3).truncate(4)


class TestRandomCarleson:
    def test_depth_zero_options(self):
        for seed in range(20):
            seq = random_carleson(0, 1, seed)
            assert seq.selected in (frozenset(), frozenset({ROOT}))

    def test_generator_postcondition(self):
        for seed in range(30):
            for C in (Fraction(1), Fraction(3, 2), Fraction(16, 5)):
                seq = random_carleson(5, C, seed)
                assert carleson_constant(seq, C).is_c_carleson is True

    def test_deterministic(self):
        a = random_carleson(6, Fraction(2), 424242)
        b = random_carleson(6, Fraction(2), 424242)
        assert a == b
        assert a != random_carleson(6, Fraction(2), 424243)

    def test_sequences_are_pinned(self):
        # SHA-256 of the to_json() texts drawn by the ancestor-walk generator that
        # kept its sums in a dict keyed by NodeAddress; any change in the coin order
        # or the acceptance test changes it
        digest = hashlib.sha256()
        for ci, C in enumerate((Fraction(1), Fraction(3, 2), Fraction(2), Fraction(16, 5),
                                Fraction(7))):
            for depth in range(13):
                for di, density in enumerate((0.25, 0.5, 0.75, 0.9)):
                    seq = random_carleson(depth, C, 1000 * depth + 10 * ci + di, density=density)
                    digest.update(seq.to_json().encode() + b"\n")
        assert digest.hexdigest() == \
            "1039b690b232b0598047551c6a898fa4d3fc0086d00d104aecc6b22c8b302f4d"

    def test_acceptance_keeps_every_ancestor_within_the_bound(self):
        # the same draw made with an ancestor walk over NodeAddress objects
        for depth, C, seed in ((6, Fraction(3, 2), 7), (7, Fraction(16, 5), 8), (5, 1, 9)):
            rng = random.Random(seed)
            chosen = set()
            for a in all_addresses(depth):
                if rng.random() >= 0.75:
                    continue
                if all(brute_average(chosen | {a}, anc) <= C for anc in a.ancestors()):
                    chosen.add(a)
            assert random_carleson(depth, C, seed, density=0.75) == CarlesonSeq(depth, chosen)

    def test_proposals_are_budgeted_before_allocation(self, monkeypatch):
        def refuse(depth):
            raise AssertionError(f"allocated the levels of depth {depth}")

        monkeypatch.setattr(carlevel.sequences, "_zero_levels", refuse)
        assert carlevel.sequences.MAX_PROPOSALS == 1 << 20
        # depth 19 has 2^20 - 1 addresses, within the budget, and gets as far as allocating
        with pytest.raises(AssertionError, match="depth 19"):
            random_carleson(19, 2, 0)
        for depth in (20, 64, carlevel.sequences.MAX_DEPTH):
            with pytest.raises(ResourceLimitError, match="budget of 1048576"):
                random_carleson(depth, 2, 0)
        with pytest.raises(ResourceLimitError, match="depth limit"):
            random_carleson(carlevel.sequences.MAX_DEPTH + 1, 2, 0)
        with pytest.raises(ValueError):
            random_carleson(-1, 2, 0)


class TestJson:
    def test_round_trip(self):
        seq = random_carleson(5, Fraction(2), 99)
        again = CarlesonSeq.from_json(seq.to_json())
        assert again == seq

    def test_schema(self):
        doc = CarlesonSeq(1, [NodeAddress(1, 1), NodeAddress(1, 0)]).to_json_dict()
        assert doc == {"format": "carleson-seq/1", "depth": 1,
                       "selected": [[1, 0], [1, 1]]}

    def test_parse_errors_are_descriptive(self):
        with pytest.raises(ValueError, match="format"):
            CarlesonSeq.from_json('{"format": "bogus/9", "depth": 1, "selected": []}')
        with pytest.raises(ValueError, match=r'selected"\[0\]'):
            CarlesonSeq.from_json(
                '{"format": "carleson-seq/1", "depth": 1, "selected": [[1]]}')
        with pytest.raises(ValueError, match="line 1"):
            CarlesonSeq.from_json("{nope")

    def test_rejects_boolean_depth(self):
        with pytest.raises(ValueError, match='field "depth"'):
            CarlesonSeq.from_json('{"format": "carleson-seq/1", "depth": true, "selected": []}')

    def test_rejects_boolean_address(self):
        with pytest.raises(ValueError, match=r'selected"\[1\]'):
            CarlesonSeq.from_json(
                '{"format": "carleson-seq/1", "depth": 1, "selected": [[0, 0], [true, 0]]}')

    def test_rejects_duplicate_address(self):
        with pytest.raises(ValueError, match=r'selected"\[2\]: \[1, 0\] repeats entry 0'):
            CarlesonSeq.from_json(
                '{"format": "carleson-seq/1", "depth": 1, "selected": [[1, 0], [0, 0], [1, 0]]}')

    def test_ignores_extra_keys(self):
        seq = CarlesonSeq.from_json(
            '{"format": "carleson-seq/1", "depth": 0, "selected": [[0, 0]], '
            '"provenance": {"tool": "x"}}')
        assert seq.selected == {ROOT}


class TestInvariantsExhaustiveSmallDepth:
    def test_levelset_equals_generation_equals_leaf_count(self):
        for depth in range(0, 4):
            for sel in iter_all_selections(depth):
                seq = CarlesonSeq(depth, sel)
                heights = brute_heights(sel, depth)  # once per selection, not per m
                assert seq.sparse_generations() == brute_generations(sel)
                for m in range(1, depth + 3):
                    v = seq.level_set_measure(m)
                    assert v == seq.generation_measure(m - 1)
                    assert v.as_fraction() == brute_levelset(heights, Fraction(m))


class TestInvariantsRandomCorpus:
    CORPUS = [(depth, seed) for depth in range(0, 9) for seed in range(25)]

    def test_ceiling_invariance_and_structure(self):
        for depth, seed in self.CORPUS:
            C = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(16, 5))[seed % 4]
            seq = random_carleson(depth, C, seed * 1009 + depth)
            # ceiling invariance on sampled non-integer thresholds
            for lam in (Fraction(1, 2), Fraction(7, 2), Fraction(16, 5), Fraction(-5, 3)):
                assert seq.level_set_measure(lam) == seq.level_set_measure(math.ceil(lam))
            # selected-only sup equals the sup over every address
            report = carleson_constant(seq)
            assert report.carleson_constant.as_fraction() == \
                brute_sup_all_addresses(seq.selected, depth)
            # nesting: generation measures are non-increasing
            gens = seq.sparse_generations()
            assert gens == brute_generations(seq.selected)
            measures = [seq.generation_measure(m).as_fraction() for m in range(len(gens) + 1)]
            assert all(x >= y for x, y in zip(measures, measures[1:]))
            # each generation is pairwise disjoint
            for gen in gens:
                for i, a in enumerate(gen):
                    for b in gen[i + 1:]:
                        assert not a.is_ancestor_of(b) and not b.is_ancestor_of(a)
            # level-set monotone in the threshold
            values = [seq.level_set_measure(m).as_fraction() for m in range(-1, depth + 3)]
            assert all(x >= y for x, y in zip(values, values[1:]))
            # heights at every leaf agree with the brute count
            assert [seq.height_at(NodeAddress(depth, i)) for i in range(1 << depth)] == \
                brute_heights(seq.selected, depth)
