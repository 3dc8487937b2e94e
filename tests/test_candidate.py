import math
import random
from fractions import Fraction
from functools import partial

import pytest

from carlevel import (
    CandidateParams,
    CheckGrid,
    candidate_c1,
    candidate_c2,
    candidate_c32,
    candidate_eval,
    candidate_row,
    candidate_surface,
)
from oracles import reference_candidate_eval


def pt(a, l):
    return Fraction(a), Fraction(l)


def params(c):
    return CandidateParams.from_constant(Fraction(c))


class TestParams:
    def test_decomposition(self):
        p = params(Fraction(16, 5))
        assert p.floor_c == 3
        assert p.C - p.floor_c == Fraction(1, 5)
        assert p.decay == Fraction(11, 16)

    def test_rejects_small_c(self):
        with pytest.raises(ValueError):
            params(Fraction(4, 5))


class TestSpotValues:
    def test_c2_boundary_decay(self):
        assert candidate_eval(params(2), *pt(2, 3)) == Fraction(1, 2)

    def test_c32_at_the_bound(self):
        assert candidate_eval(params(Fraction(16, 5)), *pt(Fraction(16, 5), 4)) == Fraction(11, 15)

    def test_c32_interior(self):
        assert candidate_eval(params(Fraction(16, 5)), *pt(Fraction(8, 5), 5)) == Fraction(121, 480)

    def test_obstacle_everywhere(self):
        for c in (1, 2, Fraction(16, 5), 7):
            assert candidate_eval(params(c), *pt(Fraction(1, 2), -1)) == 1
            assert candidate_eval(params(c), *pt(0, 0)) == 1

    def test_c7_first_decay_step(self):
        assert candidate_eval(params(7), *pt(7, 8)) == Fraction(6, 7)

    def test_fixed_oracles(self):
        assert candidate_c1(*pt(Fraction(1, 2), 1)) == Fraction(1, 2)
        assert candidate_c1(*pt(1, 2)) == 0
        assert candidate_c1(*pt(0, 0)) == 1
        assert candidate_c2(*pt(Fraction(3, 2), 1)) == 1
        assert candidate_c2(*pt(1, 2)) == Fraction(1, 2)
        assert candidate_c2(*pt(2, 4)) == Fraction(1, 4)
        assert candidate_c32(*pt(Fraction(16, 5), 4)) == Fraction(11, 15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            candidate_eval(params(2), *pt(Fraction(5, 2), 1))
        with pytest.raises(ValueError):
            candidate_eval(params(2), *pt(-1, 1))
        with pytest.raises(ValueError):
            candidate_c1(*pt(Fraction(3, 2), 1))


    def test_int_average_gives_a_fraction(self):
        cases = [(candidate_eval(params(Fraction(16, 5)), 1, 5), Fraction(121, 768)),
                 (candidate_eval(params(2), 1, 1), Fraction(1)),
                 (candidate_c1(1, 1), Fraction(1)),
                 (candidate_c2(1, 3), Fraction(1, 4)),
                 (candidate_c32(3, 5), Fraction(121, 256))]
        for got, want in cases:
            assert type(got) is Fraction and got == want

    def test_float_average_is_refused(self):
        for evaluate in (partial(candidate_eval, params(2)), candidate_c1, candidate_c2,
                         candidate_c32):
            with pytest.raises(TypeError):
                evaluate(0.5, 1)


def grid_points(c, exp=5, lam_lo=-2, lam_hi=None):
    C = Fraction(c)
    if lam_hi is None:
        lam_hi = math.ceil(C) + 6
    scale = 1 << exp
    avgs = [Fraction(j, scale) for j in range(C.numerator * scale // C.denominator + 1)]
    lams = [Fraction(k) for k in range(lam_lo, lam_hi + 1)]
    lams += [Fraction(1, 2), Fraction(7, 2)]
    return avgs, lams


class TestSpecializations:
    def test_matches_c1(self):
        p = params(1)
        avgs, lams = grid_points(1)
        for a in avgs:
            for l in lams:
                assert candidate_eval(p, a, l) == candidate_c1(a, l)

    def test_matches_c2(self):
        p = params(2)
        avgs, lams = grid_points(2)
        for a in avgs:
            for l in lams:
                assert candidate_eval(p, a, l) == candidate_c2(a, l)

    def test_matches_c32(self):
        p = params(Fraction(16, 5))
        avgs, lams = grid_points(Fraction(16, 5))
        for a in avgs:
            for l in lams:
                assert candidate_eval(p, a, l) == candidate_c32(a, l)


def outcome(evaluate, *args):
    """The value, or the type and message of the exception raised."""
    try:
        return evaluate(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestReferenceFormula:
    """candidate_eval against the Fraction formula it replaced, on seeded random points."""

    CS = (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(7, 3),
          Fraction(16, 5), Fraction(7), Fraction(13), Fraction(25))

    @staticmethod
    def average(rng, c):
        kind = rng.randrange(5)
        if kind == 0:  # dyadic
            e = rng.randint(0, 12)
            return Fraction(rng.randint(0, c.numerator * (1 << e) // c.denominator), 1 << e)
        if kind == 1:  # non-dyadic
            q = rng.choice((3, 5, 7, 9, 15, 49, 641, 1001))
            return Fraction(rng.randint(0, c.numerator * q // c.denominator), q)
        if kind == 2:  # an int
            return rng.randint(0, math.floor(c))
        return (Fraction(0), c)[kind - 3]

    @staticmethod
    def threshold(rng, floor_c):
        kind = rng.randrange(5)
        if kind == 0:
            return rng.choice((-3, Fraction(-5, 2), Fraction(-1, 7)))
        if kind == 1:
            return rng.choice((0, Fraction(0)))
        if kind == 2:
            return rng.randint(1, floor_c + 30)
        if kind == 3:
            return Fraction(rng.randint(1, floor_c + 30))
        return Fraction(rng.randint(1, 4 * floor_c + 60), rng.choice((2, 3, 4, 7)))

    def test_values_match(self):
        rng = random.Random(2026)
        points = []
        for c in self.CS:
            p = params(c)
            points += [(p, self.average(rng, c), self.threshold(rng, p.floor_c))
                       for _ in range(250)]
        # the last threshold the power budget allows at C = 16/5
        p = params(Fraction(16, 5))
        points += [(p, a, l) for a in (0, Fraction(1, 3), Fraction(5, 2), Fraction(16, 5))
                   for l in (2403, Fraction(2403), Fraction(4805, 2))]
        assert len(points) >= 2000
        for p, a, l in points:
            got = candidate_eval(p, a, l)
            assert type(got) is Fraction and got == reference_candidate_eval(p, a, l), (p.C, a, l)

    def test_same_errors(self):
        eps = Fraction(1, 10 ** 9)
        for c in self.CS:
            p = params(c)
            for a in (0.5, float(c), c + eps, -eps, math.floor(c) + 1, -1):
                for l in (-1, 0, 1, Fraction(7, 2), math.floor(c) + 3):
                    got = outcome(candidate_eval, p, a, l)
                    assert isinstance(got, tuple), (c, a, l)
                    assert got == outcome(reference_candidate_eval, p, a, l), (c, a, l)


class TestRow:
    CS = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(16, 5), Fraction(7))

    @staticmethod
    def thresholds(floor_c):
        fractional = [Fraction(1, 2), Fraction(9, 4), Fraction(16, 5), Fraction(7, 2),
                      Fraction(2 * floor_c + 1, 2), Fraction(4 * floor_c + 7, 4)]
        integers = [1, floor_c - 1, floor_c, floor_c + 1, floor_c + 4]
        return [-2, Fraction(-1, 2), 0] + fractional + integers

    def test_matches_pointwise_evaluation(self):
        for c in self.CS:
            p = params(c)
            for s in range(6):
                top = (c.numerator << s) // c.denominator
                for j0 in (0, 1 << s):  # a fine row and an up row
                    for lam in self.thresholds(p.floor_c):
                        nums, den = candidate_row(p, s, j0, top, lam)
                        assert len(nums) == top - j0 + 1
                        for j, num in enumerate(nums, j0):
                            assert Fraction(num, den) == \
                                candidate_eval(p, Fraction(j, 1 << s), lam), (c, s, j, lam)

    def test_refuses_averages_outside_the_domain(self):
        p = params(Fraction(3, 2))
        for j0, j1 in ((-1, 4), (0, 7)):  # 7/4 > 3/2
            with pytest.raises(ValueError):
                candidate_row(p, 2, j0, j1, 1)


class TestShapeProperties:
    CS = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(16, 5), Fraction(7))

    def test_range_zero_one(self):
        for c in self.CS:
            p = params(c)
            avgs, lams = grid_points(c, exp=3)
            for a in avgs:
                for l in lams:
                    assert 0 <= candidate_eval(p, a, l) <= 1

    def test_ceiling_invariance(self):
        for c in self.CS:
            p = params(c)
            avgs, _ = grid_points(c, exp=3)
            for a in avgs:
                for l in (Fraction(1, 2), Fraction(7, 2), Fraction(16, 5), Fraction(9, 4)):
                    assert candidate_eval(p, a, l) == \
                        candidate_eval(p, a, Fraction(math.ceil(l)))

    def test_monotone_in_threshold_and_average(self):
        for c in self.CS:
            p = params(c)
            avgs, lams = grid_points(c, exp=3)
            lams = sorted(lams)
            for a in avgs:
                vals = [candidate_eval(p, a, l) for l in lams]
                assert all(x >= y for x, y in zip(vals, vals[1:]))
            for l in lams:
                vals = [candidate_eval(p, a, l) for a in avgs]
                assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_branch_seams_agree(self):
        # at integer thresholds t <= floor(C), the two expressions inside the
        # min agree exactly where they cross, and at t = floor(C) the decay
        # branch with exponent zero extends the unsaturated middle branch
        for c in self.CS:
            p = params(c)
            for m in range(1, p.floor_c + 1):
                assert candidate_eval(p, Fraction(m), Fraction(m)) == 1
            scale = 16
            for j in range(p.floor_c * scale + 1):
                a = Fraction(j, scale)
                middle = candidate_eval(p, a, Fraction(p.floor_c))
                extended = (a / p.floor_c) * p.decay ** 0
                assert middle == extended


class TestSurface:
    def test_shape_and_spot_value(self):
        rows = candidate_surface(CheckGrid.build(2, 2, -1, 4))
        assert len(rows) == 9 * 6
        lookup = {(a, l): v for a, l, v in rows}
        assert lookup[(Fraction(1, 2), 1)] == Fraction(1, 2)

    def test_c1_row_above_one_is_zero(self):
        rows = candidate_surface(CheckGrid.build(1, 3, 2, 2))
        assert all(v == 0 for _, _, v in rows)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            CheckGrid.build(2, -1, 0, 1)
        with pytest.raises(ValueError):
            CheckGrid.build(2, 2, 3, 1)
