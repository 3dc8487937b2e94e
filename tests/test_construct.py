import random
from fractions import Fraction

import pytest

import carlevel.construct
from carlevel import (
    ROOT,
    AdmissibilityError,
    CarlesonSeq,
    NodeAddress,
    PrecisionError,
    ResourceLimitError,
    binary_expansion,
    carleson_constant,
    construct_admissible,
    construct_fractional,
)
from carlevel.sequences import MAX_DEPTH
from oracles import leaf_span


class TestBinaryExpansion:
    def test_examples(self):
        assert binary_expansion(Fraction(13, 16), 4) == [1, 1, 0, 1]
        assert binary_expansion(0, 3) == [0, 0, 0]
        assert binary_expansion(Fraction(1, 2), 1) == [1]
        assert binary_expansion(Fraction(3, 8), 5) == [0, 1, 1, 0, 0]

    def test_reconstructs_value(self):
        for num in range(0, 64):
            bits = binary_expansion(Fraction(num, 64), 6)
            assert sum(Fraction(b, 1 << (k + 1)) for k, b in enumerate(bits)) == Fraction(num, 64)

    def test_errors(self):
        with pytest.raises(PrecisionError):
            binary_expansion(Fraction(1, 3), 10)
        with pytest.raises(PrecisionError):
            binary_expansion(Fraction(13, 16), 3)
        with pytest.raises(ValueError):
            binary_expansion(Fraction(3, 2), 4)


class TestConstructFractional:
    def test_zero_gives_empty(self):
        assert construct_fractional(0, 3).selected == frozenset()

    def test_half_selects_right_child(self):
        assert construct_fractional(Fraction(1, 2), 1).selected == {NodeAddress(1, 1)}

    def test_walked_example(self):
        # bits 1101: select right child, go left; select right child, go left;
        # go right; select right child
        seq = construct_fractional(Fraction(13, 16), 4)
        assert seq.selected == {NodeAddress(1, 1), NodeAddress(2, 1), NodeAddress(4, 3)}
        assert sorted(a.level for a in seq.selected) == [1, 2, 4]
        assert seq.carleson_average(ROOT) == Fraction(13, 16)

    def test_selection_is_pairwise_disjoint_with_constant_one(self):
        for num in range(1, 32):
            seq = construct_fractional(Fraction(num, 32), 5)
            report = carleson_constant(seq, 1)
            assert report.carleson_constant == 1
            assert report.is_c_carleson is True
            assert seq.carleson_average(ROOT) == Fraction(num, 32)


class TestConstructAdmissible:
    def test_integer_average_full_roof(self):
        seq = construct_admissible(3, 3, 3)
        expected = {NodeAddress(l, i) for l in range(3) for i in range(1 << l)}
        assert seq.selected == expected
        assert seq.carleson_average(ROOT) == 3
        assert carleson_constant(seq, 3).is_c_carleson is True

    def test_roof_plus_fraction(self):
        seq = construct_admissible(Fraction(11, 8), 2, 4)
        assert ROOT in seq.selected
        assert seq.carleson_average(ROOT) == Fraction(11, 8)
        assert carleson_constant(seq, 2).is_c_carleson is True

    def test_unit_average_trivial(self):
        assert construct_admissible(1, 1, 1).selected == {ROOT}
        assert construct_admissible(1, 1, 5).selected == {ROOT}

    def test_unit_average_partition_style(self):
        seq = construct_admissible(1, 1, 4, style="partition")
        assert ROOT not in seq.selected
        assert seq.carleson_average(ROOT) == 1
        report = carleson_constant(seq, 1)
        assert report.carleson_constant == 1
        # the selected pieces tile the main interval
        spans = sorted(leaf_span(a, 4) for a in seq.selected)
        assert spans[0][0] == 0 and spans[-1][1] == 16
        assert all(prev[1] == cur[0] for prev, cur in zip(spans, spans[1:]))

    def test_partition_style_rejects_other_averages(self):
        with pytest.raises(ValueError):
            construct_admissible(Fraction(1, 2), 1, 4, style="partition")

    def test_fraction_replicated_under_every_roof_interval(self):
        # floor 2 roof has two level-1 intervals; each gets the same pattern,
        # keeping all subtree averages equal
        seq = construct_admissible(Fraction(9, 4), 3, 4)
        assert seq.carleson_average(NodeAddress(1, 0)) == seq.carleson_average(NodeAddress(1, 1))
        assert seq.carleson_average(ROOT) == Fraction(9, 4)

    def test_admissibility_errors(self):
        with pytest.raises(AdmissibilityError):
            construct_admissible(Fraction(5, 2), 2, 6)
        with pytest.raises(PrecisionError):
            construct_admissible(Fraction(1, 3), 2, 8)
        with pytest.raises(PrecisionError):
            construct_admissible(Fraction(13, 16), 1, 3)
        with pytest.raises(ValueError):
            construct_admissible(3, 4, 2)

    def test_selected_addresses_are_budgeted(self, monkeypatch):
        # 2^whole - 1 roof addresses plus (1-bits) x 2^max(whole - 1, 0)
        monkeypatch.setattr(carlevel.construct, "MAX_CONSTRUCT_ADDRESSES", 11)
        for a, count in ((Fraction(7, 2), 11), (Fraction(2047, 2048), 11), (3, 7)):
            assert len(construct_admissible(a, 4, 12).selected) == count
        for a in (Fraction(15, 4), Fraction(4095, 4096), 4, 10 ** 6):
            with pytest.raises(ResourceLimitError):
                construct_admissible(a, 10 ** 6, 10 ** 6)

    def test_partition_is_budgeted(self, monkeypatch):
        # depth + 1 addresses, counted against the roof's budget before anything is built
        monkeypatch.setattr(carlevel.construct, "MAX_CONSTRUCT_ADDRESSES", 11)
        assert len(construct_admissible(1, 1, 10, style="partition").selected) == 11

        def no_sequence(*args):
            raise AssertionError("a sequence was built before the refusal")
        monkeypatch.setattr(CarlesonSeq, "__init__", no_sequence)
        monkeypatch.setattr(CarlesonSeq, "_from_levels", no_sequence)
        for depth in (11, 1 << 16, MAX_DEPTH):
            with pytest.raises(ResourceLimitError, match="construction budget of 11"):
                construct_admissible(1, 1, depth, style="partition")

    def test_sampled_triples_are_exact_and_admissible(self):
        rng = random.Random(5151)
        pool = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(16, 5),
                Fraction(3), Fraction(7), Fraction(7, 3)]
        for _ in range(120):
            C = rng.choice(pool)
            depth = rng.randrange(0, 8)
            whole = rng.randrange(0, min(int(C), depth) + 1)
            max_bits = depth - whole
            frac = Fraction(rng.randrange(0, 1 << max_bits), 1 << max_bits) if max_bits else Fraction(0)
            a = whole + frac
            if a > C:
                a = Fraction(whole)
            seq = construct_admissible(a, C, depth)
            assert seq.carleson_average(ROOT) == a
            assert carleson_constant(seq, C).is_c_carleson is True
            assert CarlesonSeq.from_json(seq.to_json()) == seq
