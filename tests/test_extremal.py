import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import carlevel

from carlevel import (
    ROOT,
    AdmissibilityError,
    CandidateParams,
    LevelSetDP,
    PrecisionError,
    ResourceLimitError,
    candidate_eval,
    carleson_constant,
)
from carlevel.cli import main
from carlevel.extremal import self_convolution
from oracles import brute_force_extremal


def check_witness(witness, C, average, level, value):
    """Re-validate a witness through the sequence machinery only."""
    assert witness.carleson_average(ROOT) == average
    assert carleson_constant(witness, C).is_c_carleson is True
    assert witness.level_set_measure(level) == value


class TestBaseCases:
    def test_depth_zero_selected_leaf(self):
        value, witness = LevelSetDP(1).max_levelset(0, 1, 1)
        assert value == 1
        assert witness.selected == {ROOT}

    def test_depth_zero_empty(self):
        value, witness = LevelSetDP(1).max_levelset(0, 0, 1)
        assert value == 0
        assert witness.selected == frozenset()

    def test_obstacle_rows_are_one(self):
        for a in (0, Fraction(1, 2), 1, Fraction(3, 2)):
            for m in (0, -2):
                value, witness = LevelSetDP(2).max_levelset(3, a, m)
                assert value == 1
                check_witness(witness, Fraction(2), Fraction(a), m, value)

    def test_two_levels_of_nesting_with_c2(self):
        value, witness = LevelSetDP(2).max_levelset(2, 2, 2)
        assert value == 1
        check_witness(witness, Fraction(2), Fraction(2), 2, value)


class TestAgainstExhaustiveEnumeration:
    @pytest.mark.parametrize("c", [Fraction(1), Fraction(2)])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_small_depth_sweep(self, c, depth):
        oracle = brute_force_extremal(c, depth, range(0, 5))
        engine = LevelSetDP(c)
        seen = set()
        cap = engine._cap_num(depth)
        for n in range(cap + 1):
            a = Fraction(n, 1 << depth)
            for m in range(0, 5):
                value, witness = engine.max_levelset(depth, a, m)
                assert value.as_fraction() == oracle[(a, m)], (c, depth, a, m)
                check_witness(witness, c, a, m, value)
                seen.add((a, m))
        assert seen == set(oracle)

    def test_depth_three_spot_checks(self):
        oracle = brute_force_extremal(Fraction(2), 3, [2, 3])
        engine = LevelSetDP(2)
        for a in (Fraction(2), Fraction(15, 8), Fraction(1, 2)):
            for m in (2, 3):
                assert engine.value(3, a, m).as_fraction() == oracle[(a, m)]

    def test_non_dyadic_bound_sweep(self):
        # the cap min(C, d + 1) crosses the dyadic grid obliquely here
        c = Fraction(16, 5)
        oracle = brute_force_extremal(c, 2, range(0, 4))
        engine = LevelSetDP(c)
        for n in range(engine._cap_num(2) + 1):
            a = Fraction(n, 4)
            for m in range(0, 4):
                value, witness = engine.max_levelset(2, a, m)
                assert value.as_fraction() == oracle[(a, m)], (a, m)
                check_witness(witness, c, a, m, value)


class TestUpperBoundAndMonotonicity:
    def test_bounded_by_closed_form(self):
        params = CandidateParams.from_constant(Fraction(16, 5))
        engine = LevelSetDP(Fraction(16, 5))
        for n in range(engine._cap_num(3) + 1):
            a = Fraction(n, 8)
            for m in range(0, 5):
                val = engine.value(3, a, m).as_fraction()
                assert val <= candidate_eval(params, a, Fraction(m))

    def test_nondecreasing_in_depth(self):
        engine = LevelSetDP(2)
        for a in (Fraction(1), Fraction(3, 2), Fraction(2)):
            vals = [engine.value(d, a, 3).as_fraction() for d in range(2, 7)]
            assert all(x <= y for x, y in zip(vals, vals[1:]))


class TestTable:
    def test_c1_row_two_is_zero(self):
        for a, m, value in LevelSetDP(1).table(3, 2):
            if m == 2:
                assert value == 0

    def test_c2_depth1_select_root(self):
        values = {(a, m): value for a, m, value in LevelSetDP(2).table(1, 1)}
        assert values[(1, 1)] == 1

    def test_rows_sorted_and_complete(self):
        rows = LevelSetDP(2).table(2, 1)
        assert len(rows) == 9 * 2
        assert rows == sorted(rows)

    def test_every_cell_witness_round_trips(self):
        for depth in range(0, 5):
            engine = LevelSetDP(2)
            for a, m, value in engine.table(depth, 3):
                witness = engine.max_levelset(depth, a, m)[1]
                check_witness(witness, Fraction(2), a, m, value)

    def test_depth_limit_enforced(self):
        with pytest.raises(ValueError):
            LevelSetDP(2).table(13, 1)

    def test_output_cells_within_the_cap(self):
        engine = LevelSetDP(2, cell_cap=17)
        with pytest.raises(ResourceLimitError, match="has 27 cells"):
            engine.table(2, 2)  # 9 averages x 3 levels
        assert engine._rows == {}  # refused before any row was filled
        assert len(LevelSetDP(2, cell_cap=18).table(2, 1)) == 18


class TestConvergence:
    def test_gap_closes_at_depth_two(self):
        rows = LevelSetDP(2).convergence(2, 2, 4)
        by_depth = {r.depth: r for r in rows}
        assert by_depth[2].value == 1 and by_depth[2].gap == 0

    def test_gaps_nonnegative_nonincreasing(self):
        rows = LevelSetDP(2).convergence(2, 3, 7)
        gaps = [r.gap for r in rows]
        assert all(g >= 0 for g in gaps)
        assert all(x >= y for x, y in zip(gaps, gaps[1:]))

    def test_trivial_zero_gap_when_both_sides_vanish(self):
        rows = LevelSetDP(1).convergence(1, 2, 4)
        assert all(r.value == 0 and r.gap == 0 for r in rows)

    def test_starts_at_representable_depth(self):
        rows = LevelSetDP(2).convergence(Fraction(3, 4), 1, 4)
        assert rows[0].depth == 2


class TestValidation:
    def test_unrepresentable_average(self):
        with pytest.raises(PrecisionError):
            LevelSetDP(2).max_levelset(2, Fraction(1, 8), 1)
        with pytest.raises(PrecisionError):
            LevelSetDP(2).max_levelset(2, Fraction(1, 3), 1)

    def test_average_above_bound(self):
        with pytest.raises(AdmissibilityError):
            LevelSetDP(2).max_levelset(3, Fraction(5, 2), 1)

    def test_average_above_depth_capacity(self):
        with pytest.raises(ValueError):
            LevelSetDP(7).max_levelset(1, 3, 1)

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            LevelSetDP(2, cell_cap=10).max_levelset(8, 2, 4)
        engine = LevelSetDP(2, cell_cap=10)
        with pytest.raises(ResourceLimitError):
            engine.value(8, 2, 4)
        assert engine._rows == {}  # refused before any row was filled

    def test_depth_limit_on_point_queries(self):
        engine = LevelSetDP(2, depth_limit=4)
        for query in (lambda: engine.value(5, 1, 2), lambda: engine.max_levelset(5, 1, 2),
                      lambda: engine.table(5, 2), lambda: engine.convergence(1, 2, 5)):
            with pytest.raises(ValueError, match="exceeds the configured limit 4"):
                query()
        assert engine._rows == {}

    def test_results_reproducible_across_engines(self):
        a = LevelSetDP(Fraction(16, 5)).max_levelset(4, Fraction(5, 2), 3)
        b = LevelSetDP(Fraction(16, 5)).max_levelset(4, Fraction(5, 2), 3)
        assert a[0] == b[0] and a[1] == b[1]


# A tiny query.  Its first filled row is F_1(., 2), whose first positive cell is
# F_1(3/2, 2) = 1/2, above the zero closed form patched in.
CLOSED_FORM_BREACH = "import carlevel.extremal as e\n" \
    "e.candidate_eval = lambda params, avg, lam: 0\n" \
    "e.LevelSetDP(2).value(2, 2, 2)\n"


class TestClosedFormCheck:
    def test_breach_names_the_cell(self, monkeypatch):
        monkeypatch.setattr(carlevel.extremal, "candidate_eval", lambda params, avg, lam: 0)
        with pytest.raises(AssertionError, match=r"\(d, n, m\) = \(1, 3, 2\)"):
            LevelSetDP(2).value(2, 2, 2)

    def test_breach_survives_optimized_mode(self):
        src = os.path.dirname(os.path.dirname(carlevel.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", CLOSED_FORM_BREACH],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "AssertionError: DP cell (d, n, m) = (1, 3, 2)" in proc.stderr


def position_axis_convolution(row):
    """K[rem] = max(row[n1] + row[rem - n1]) by scanning every split of rem."""
    top = len(row) - 1
    return [max(row[n1] + row[rem - n1] for n1 in range(max(0, rem - top), min(rem, top) + 1))
            for rem in range(2 * top + 1)]


# The first filled row is F_1(., 2); with every convolution reversed it reads
# 0, 0, 2, 1, 0 and first decreases at n = 3.
DECREASING_ROW = "import carlevel.extremal as e\n" \
    "kernel = e.self_convolution\n" \
    "e.self_convolution = lambda row: kernel(row)[::-1]\n" \
    "e.LevelSetDP(2).value(2, 2, 2)\n"


class TestRowKernel:
    def test_value_axis_matches_position_axis(self):
        rng = random.Random(2025)
        rows = [[0], [5], [0] * 9, [3] * 4, [0, 0, 0, 7], list(range(12)), [0, 4, 4, 9, 20]]
        for _ in range(400):
            row = [rng.choice((0, 0, 1, 3))]
            for _ in range(rng.randint(0, 40)):
                row.append(row[-1] + rng.choice((0, 0, 0, 1, 1, 2, 3, 8)))
            rows.append(row)
        for row in rows:
            assert self_convolution(row) == position_axis_convolution(row), row

    def test_decreasing_row_names_the_row(self, monkeypatch):
        kernel = carlevel.extremal.self_convolution
        monkeypatch.setattr(carlevel.extremal, "self_convolution", lambda row: kernel(row)[::-1])
        with pytest.raises(AssertionError, match=r"\(d, m\) = \(1, 2\) decreases at n = 3"):
            LevelSetDP(2).value(2, 2, 2)

    def test_decreasing_row_survives_optimized_mode(self):
        src = os.path.dirname(os.path.dirname(carlevel.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", DECREASING_ROW],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "AssertionError: DP row (d, m) = (1, 2) decreases at n = 3" in proc.stderr

    def test_one_closed_form_check_per_stored_cell(self, monkeypatch):
        calls = []

        def counted(params, avg, lam):
            calls.append(lam)
            return candidate_eval(params, avg, lam)

        monkeypatch.setattr(carlevel.extremal, "candidate_eval", counted)
        engine = LevelSetDP(2)
        engine.table(6, 4)
        stored = sum(len(row) for (d, _), row in engine._rows.items() if d >= 1)
        assert len(calls) == stored == 1013


class TestByteIdentity:
    """Digests of outputs recorded with the memoised recursive engine."""

    def test_table_csv_digest(self, capsys):
        assert main(["table", "--kind", "dp", "--C", "16/5", "--depth", "8", "--m-max", "4"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "96feb340515b6621e88645100ab9a76629a29e0dd033105fdc77dd8afaa7ef91"

    def test_table_csv_digest_with_empty_levels(self, capsys):
        # levels 4 and 5 lie above depth + 1, so their rows are all zero
        assert main(["table", "--kind", "dp", "--C", "7", "--depth", "2", "--m-max", "5"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 82
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "2aa322166d4d0d101951ef28d2824acea553b43fce8e31a675a4bc657dfc5e52"

    def test_values_and_witnesses_digest(self):
        h = hashlib.sha256()
        for C in (Fraction(2), Fraction(16, 5), Fraction(7)):
            engine = LevelSetDP(C)
            for n in range(engine._cap_num(6) + 1):
                for m in range(5):
                    value, witness = engine.max_levelset(6, Fraction(n, 64), m)
                    h.update(f"{C} {n} {m} {value}\n".encode())
                    h.update(witness.to_json().encode())
        assert h.hexdigest() == "2e3ea4b1900ca6afe0da872803b10b307ec53b06f71d466ccf560bc0e600139d"
