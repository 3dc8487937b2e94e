import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest

from carlevel import (ROOT, CarlesonSeq, DyadicRational, LevelSetDP, NodeAddress,
                      PrecisionError, carleson_constant, parse_rational)
from carlevel.dyadic import dyadic_exponent, grid_top


class TestDyadicRational:
    def test_canonical_form(self):
        x = DyadicRational(4, 8)
        assert (x.numerator, x.denominator) == (1, 2)
        assert DyadicRational(0, 128) == DyadicRational(0, 1)
        assert DyadicRational(0, 128).denominator == 1
        assert DyadicRational(6, 1).numerator == 6  # integers keep denominator 1
        assert (DyadicRational(-12, 32).numerator, DyadicRational(-12, 32).denominator) \
            == (-3, 8)
        # canonicalizing strips all trailing zero bits at once, not one per step
        big = DyadicRational(1 << 10**6, 1 << 10**6)
        assert (big.numerator, big.denominator) == (1, 1)
        big = DyadicRational(1 << 10**6, 1 << 2 * 10**6)
        assert (big.numerator, big.denominator) == (1, 1 << 10**6)

    def test_rejects_non_dyadic(self):
        # from an int pair, a Fraction and a string alike
        with pytest.raises(PrecisionError, match="not dyadic"):
            DyadicRational(16, 5)
        with pytest.raises(PrecisionError, match="not dyadic"):
            DyadicRational(Fraction(16, 5))
        with pytest.raises(PrecisionError, match="not dyadic"):
            DyadicRational("0.1")  # 1/10 has no finite binary expansion
        with pytest.raises(PrecisionError, match="not dyadic"):
            dyadic_exponent(Fraction(1, 3))
        # a float is refused as in the rest of the package, dyadic or not
        for value in (0.5, 0.1):
            with pytest.raises(TypeError):
                DyadicRational(value)
        # a non-dyadic pair that reduces to a dyadic value is accepted
        assert DyadicRational(6, 24) == Fraction(1, 4)

    def test_dyadic_exponent_and_grid_top(self):
        assert [dyadic_exponent(x) for x in (0, 5, Fraction(-3, 8), DyadicRational(12, 32))] \
            == [0, 0, 3, 3]
        # floor(16/5 * 2^e) for e = 0..3, and floor(-3/2) at e = 0
        assert [grid_top(Fraction(16, 5), e) for e in range(4)] == [3, 6, 12, 25]
        assert grid_top(Fraction(-3, 2), 0) == -2
        assert grid_top(DyadicRational(5, 4), 3) == 10

    def test_general_rational_comparison(self):
        assert DyadicRational(13, 16) < Fraction(16, 5)
        assert DyadicRational(2, 1) == Fraction(2, 1)
        # 11/4 vs 16/5 cross-multiplies to 55 < 64
        assert DyadicRational(11, 4) < Fraction(16, 5)
        assert Fraction(16, 5) > DyadicRational(13, 16)

    def test_parse_and_render(self):
        assert str(DyadicRational(13, 16)) == "13/16"
        assert str(DyadicRational(-3, 2)) == "-3/2"
        assert str(DyadicRational(5, 1)) == "5"
        assert DyadicRational("13/16") == DyadicRational(13, 16)
        assert DyadicRational("0.8125") == DyadicRational(13, 16)
        assert DyadicRational(" 7 ") == DyadicRational(7, 1)
        assert parse_rational("3.2") == Fraction(16, 5)
        assert parse_rational("16/5") == Fraction(16, 5)
        with pytest.raises(ValueError):
            parse_rational("not-a-number")

    def test_floor_ceil(self):
        assert math.floor(DyadicRational(13, 16)) == 0
        assert math.ceil(DyadicRational(13, 16)) == 1
        assert math.ceil(DyadicRational(-13, 16)) == 0
        assert math.floor(DyadicRational(-13, 16)) == -1
        assert math.ceil(DyadicRational(3, 1)) == 3
        assert (math.floor(Fraction(-16, 5)), math.ceil(Fraction(-16, 5))) == (-4, -3)

    def test_hash_matches_fraction(self):
        assert hash(DyadicRational(3, 4)) == hash(Fraction(3, 4))
        assert DyadicRational(3, 4) == Fraction(3, 4)
        assert DyadicRational(3, 4) in {Fraction(3, 4)}

    def test_agrees_with_fraction_oracle_on_random_inputs(self):
        rng = random.Random(902611)
        for _ in range(10_000):
            n1, e1 = rng.randrange(-999, 1000), rng.randrange(0, 12)
            n2, e2 = rng.randrange(-999, 1000), rng.randrange(0, 12)
            x, y = DyadicRational(n1, 1 << e1), DyadicRational(n2, 1 << e2)
            fx, fy = Fraction(n1, 1 << e1), Fraction(n2, 1 << e2)
            assert (x < y, x == y, x > y) == (fx < fy, fx == fy, fx > fy)
            assert (x <= y, x >= y) == (fx <= fy, fx >= fy)

    def test_arithmetic_gives_plain_fractions(self):
        x, y = DyadicRational(3, 4), DyadicRational(1, 8)
        for value in (x + y, x - y, x * y, x / y, x ** 2, -x, abs(x), x + 1, 1 - x,
                      x - Fraction(1, 3)):
            assert type(value) is Fraction
        assert x / y == 6 and x - Fraction(1, 3) == Fraction(5, 12)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_value_and_type(self, clone):
        for x in (DyadicRational(3, 4), DyadicRational(-5, 1), DyadicRational(0)):
            y = clone(x)
            assert type(y) is DyadicRational and y == x, (x, y)

    def test_asdict_keeps_value_and_type(self):
        row = LevelSetDP(2).convergence(Fraction(1, 2), 2, 4)[-1]
        report = carleson_constant(CarlesonSeq(3, [NodeAddress(1, 0), NodeAddress(3, 1)]))
        for obj, fields in ((row, ("value",)),
                            (report, ("carleson_constant", "average_at_root"))):
            flat = dataclasses.asdict(obj)
            for name in fields:
                assert type(flat[name]) is DyadicRational, (obj, name)
                assert flat[name] == getattr(obj, name), (obj, name)

    def test_immutability(self):
        x = DyadicRational(1, 1)
        with pytest.raises(AttributeError):
            x.numerator = 5


class TestNodeAddress:
    def test_children_examples(self):
        assert NodeAddress(0, 0).children() == (NodeAddress(1, 0), NodeAddress(1, 1))
        assert NodeAddress(1, 1).children() == (NodeAddress(2, 2), NodeAddress(2, 3))
        assert NodeAddress(3, 5).children() == (NodeAddress(4, 10), NodeAddress(4, 11))

    def test_parent_inverts_children(self):
        for a in (NodeAddress(3, 5), NodeAddress(7, 100)):
            left, right = a.children()
            assert left.parent() == a and right.parent() == a
        with pytest.raises(ValueError):
            ROOT.parent()

    def test_is_ancestor_examples(self):
        assert ROOT.is_ancestor_of(NodeAddress(5, 17))
        assert NodeAddress(2, 1).is_ancestor_of(NodeAddress(4, 7))
        assert not NodeAddress(2, 1).is_ancestor_of(NodeAddress(2, 2))
        assert NodeAddress(2, 1).is_ancestor_of(NodeAddress(2, 1))

    def test_trichotomy(self):
        # any two addresses are nested or their leaf spans are disjoint
        rng = random.Random(7)
        for _ in range(2000):
            la, lb = rng.randrange(0, 7), rng.randrange(0, 7)
            a = NodeAddress(la, rng.randrange(1 << la))
            b = NodeAddress(lb, rng.randrange(1 << lb))
            depth = max(la, lb)
            sa, sb = a.leaf_span(depth), b.leaf_span(depth)
            overlap = max(sa[0], sb[0]) < min(sa[1], sb[1])
            nested = a.is_ancestor_of(b) or b.is_ancestor_of(a)
            assert overlap == nested

    def test_invalid_addresses_rejected(self):
        with pytest.raises(ValueError):
            NodeAddress(-1, 0)
        with pytest.raises(ValueError):
            NodeAddress(2, 4)

    def test_ordering_is_level_then_index(self):
        addrs = [NodeAddress(2, 3), NodeAddress(1, 0), NodeAddress(2, 0)]
        assert sorted(addrs) == [NodeAddress(1, 0), NodeAddress(2, 0), NodeAddress(2, 3)]
