import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

import carlevel.supersolution
from carlevel import (
    ROOT,
    CandidateParams,
    CarlesonSeq,
    CheckGrid,
    NodeAddress,
    ResourceLimitError,
    Violation,
    candidate_fn,
    candidate_row,
    check_jump,
    check_main_inequality,
    check_midpoint_concavity,
    check_obstacle,
    construct_admissible,
    induction_trace,
    obstacle_indicator,
    random_carleson,
    run_all_checks,
)
from carlevel.cli import TARGETS, resolve_target
from oracles import (
    brute_average,
    brute_jump_ok,
    brute_main_inequality_ok,
    brute_pair_concavity_ok,
    brute_trace,
)


def small_grid(c, exp=3, lo=-2, hi=None, extras=(Fraction(1, 2), Fraction(7, 2))):
    import math
    C = Fraction(c)
    hi = math.ceil(C) + 4 if hi is None else hi
    return CheckGrid.build(C, exp, lo, hi, extra_lambdas=extras)


def cand(c):
    return candidate_fn(CandidateParams.from_constant(Fraction(c)))


def constant_zero(avg, lam):
    return Fraction(0)


def constant_one(avg, lam):
    return Fraction(1)


def square_stub(avg, lam):
    # convex in the average, so midpoint concavity must fail
    return avg * avg if lam > 0 else Fraction(1)


def affine_stub(avg, lam):
    return Fraction(1, 4) + avg / 8 if lam > 0 else Fraction(1)


def spike_stub(avg, lam):
    # concave except for a dip at one interior point; trips the probes
    if lam <= 0:
        return Fraction(1)
    return Fraction(0) if avg == Fraction(1, 2) else Fraction(1, 2)


class TestObstacle:
    def test_candidate_passes(self):
        assert check_obstacle(cand(2), small_grid(2)) == []

    def test_counterexample_passes(self):
        assert check_obstacle(obstacle_indicator, small_grid(2)) == []

    def test_constant_zero_fails_everywhere_nonpositive(self):
        grid = small_grid(1, exp=2, lo=-2, hi=2, extras=())
        violations = check_obstacle(constant_zero, grid)
        nonpos = [l for l in grid.lambda_values if l <= 0]
        assert len(violations) == len(nonpos) * (grid.coarse_count + 1)
        assert all(v.lhs == 0 and v.rhs == 1 for v in violations)


class TestMidpointConcavity:
    def test_candidates_pass(self):
        for c in (1, 2, Fraction(16, 5)):
            assert check_midpoint_concavity(cand(c), small_grid(c)) == []

    def test_square_stub_fails(self):
        violations = check_midpoint_concavity(square_stub, small_grid(1, exp=2))
        assert violations
        v = violations[0]
        assert v.lhs < v.rhs  # strict rational violation

    def test_affine_passes_with_equality(self):
        assert check_midpoint_concavity(affine_stub, small_grid(1, exp=2)) == []

    def test_probe_path_agrees_with_all_pairs_oracle(self):
        cases = [(cand(2), Fraction(2)),
                 (cand(Fraction(16, 5)), Fraction(16, 5)),
                 (obstacle_indicator, Fraction(2)),
                 (square_stub, Fraction(1)),
                 (affine_stub, Fraction(2)),
                 (spike_stub, Fraction(2)),
                 (constant_one, Fraction(16, 5))]
        for fn, c in cases:
            grid = small_grid(c, exp=2, hi=4, extras=(Fraction(1, 2),))
            fast_empty = not check_midpoint_concavity(fn, grid)
            assert fast_empty == brute_pair_concavity_ok(fn, grid)


class TestJump:
    def test_candidates_pass(self):
        for c in (1, 2, Fraction(16, 5), 7):
            assert check_jump(cand(c), small_grid(c)) == []

    def test_counterexample_exact_witness(self):
        violations = check_jump(obstacle_indicator, small_grid(2, exp=2))
        assert violations
        first = violations[0]
        assert list(first.points) == [(0, 0), (1, 1)]
        assert first.lhs == 0 and first.rhs == 1

    def test_constant_one_passes(self):
        assert check_jump(constant_one, small_grid(2, exp=2)) == []

    def test_agrees_with_direct_scan(self):
        for fn in (cand(2), obstacle_indicator, affine_stub):
            grid = small_grid(2, exp=2)
            assert (not check_jump(fn, grid)) == brute_jump_ok(fn, grid)

    def test_respects_domain_cap(self):
        # with C = 1 only the left edge can jump
        grid = small_grid(1, exp=2)
        coverage = Counter()
        check_jump(cand(1), grid, coverage)
        jumps = sum(v for k, v in coverage.items() if k.startswith("jump"))
        assert jumps == len(grid.lambda_values)


class TestMainInequality:
    def test_candidate_passes(self):
        assert check_main_inequality(cand(2), small_grid(2)) == []

    def test_counterexample_fails_via_shift(self):
        violations = check_main_inequality(obstacle_indicator, small_grid(2, exp=2))
        assert violations
        assert any(len(v.points) == 3 and v.points[2][1] == v.points[0][1] + 1
                   for v in violations)

    def test_probe_path_agrees_with_all_pairs_oracle(self):
        for fn in (cand(2), cand(Fraction(16, 5)), obstacle_indicator,
                   affine_stub, constant_one, square_stub):
            grid = small_grid(2, exp=2, hi=4, extras=())
            fast_empty = not check_main_inequality(fn, grid, verify_reduction=False)
            assert fast_empty == brute_main_inequality_ok(fn, grid)

    def test_reduction_consistency_enforced(self):
        # emptiness of the main check must match concavity-and-jump emptiness
        for fn in (cand(2), obstacle_indicator, square_stub):
            grid = small_grid(2, exp=2)
            main = check_main_inequality(fn, grid)  # raises on mismatch
            both = (not check_midpoint_concavity(fn, grid)) and (not check_jump(fn, grid))
            assert (not main) == both


class TestCoverage:
    def test_all_proof_branches_exercised_across_bounds(self):
        total = Counter()
        for c in (1, Fraction(3, 2), 2, Fraction(16, 5), 7):
            summary = run_all_checks(cand(c), small_grid(c))
            assert summary.ok
            total.update(summary.coverage)
        for key in [f"concavity_case_{i}" for i in (1, 2, 3)] + \
                   [f"jump_case_{i}" for i in (1, 2, 3, 4, 5)]:
            assert total[key] > 0, key


class TestOnePass:
    """The four checks read one tabulation per threshold."""

    GRID = CheckGrid.build(Fraction(7, 3), 1, -1, 3, extra_lambdas=(Fraction(1, 2),))

    def test_standalone_checks_add_only_their_own_coverage(self):
        fn = cand(Fraction(7, 3))
        expected = [
            (check_obstacle, {"obstacle": 10}),
            (check_midpoint_concavity,
             {"concavity_case_1": 14, "concavity_case_2": 21, "concavity_case_3": 7}),
            (check_jump, {"jump_case_1": 3, "jump_case_2": 3, "jump_case_3": 6,
                          "jump_case_4": 3, "jump_case_5": 3}),
            (check_main_inequality, {"main_gamma0": 42, "main_gamma1": 36}),
        ]
        for check, keys in expected:
            coverage = Counter()
            assert check(fn, self.GRID, coverage) == []
            assert coverage == keys, check.__name__
        assert run_all_checks(fn, self.GRID).coverage == sum(
            (Counter(keys) for _, keys in expected), Counter())

    def test_each_row_is_tabulated_once(self):
        for c in (Fraction(3, 2), Fraction(7, 3), Fraction(16, 5), Fraction(7)):
            for exp in (0, 1, 2):
                grid = small_grid(c, exp=exp)
                calls = []
                fn = cand(c)
                summary = run_all_checks(lambda a, l: calls.append((a, l)) or fn(a, l), grid)
                assert summary.ok
                fine = 2 * grid.coarse_count + 1
                up = min(fine - 1, (c.numerator << (exp + 1)) // c.denominator - (2 << exp)) + 1
                assert len(calls) == len(grid.lambda_values) * (fine + up), (c, exp)

    def test_reduction_cross_check_fires(self):
        # Concave in A at every grid threshold, and the coarse jumps hold, but
        # at t = 2 (not a grid threshold) the odd quarter-points drop to 0, so
        # only the main inequality's half-step g = 1 probes see a violation.
        def fn(avg, lam):
            if lam <= 0:
                return Fraction(1)
            if lam <= 1:
                return min(Fraction(1), avg)
            if (avg * 4).denominator == 1 and (avg * 4).numerator % 2 == 1:
                return Fraction(0)
            return min(max(avg - 1, Fraction(0)), Fraction(1))

        grid = CheckGrid.build(2, 1, -1, 1)
        assert check_midpoint_concavity(fn, grid) == [] and check_jump(fn, grid) == []
        assert len(check_main_inequality(fn, grid, verify_reduction=False)) == 2
        with pytest.raises(RuntimeError, match="reduction mismatch"):
            check_main_inequality(fn, grid)
        with pytest.raises(RuntimeError, match="reduction mismatch"):
            run_all_checks(fn, grid)


def fraction_probes(fn, grid):
    """The four violation lists from the probes evaluated in Fractions point by
    point, as the checks did before they compared integer rows."""
    found = ([], [], [], [])
    scale = 1 << (grid.a_denominator_exp + 1)
    top = 2 * grid.coarse_count
    up_top = (grid.C.numerator * scale) // grid.C.denominator - scale
    for lam in grid.lambda_values:
        fine = [fn(Fraction(j, scale), lam) for j in range(top + 1)]
        up = [fn(Fraction(j + scale, scale), lam + 1) for j in range(up_top + 1)]

        def pt(j, t=lam):
            return Fraction(j, scale), t

        obstacle, concavity, jump, main = found
        if lam <= 0:
            obstacle += [Violation("obstacle", (pt(j),), *sorted((fine[j], Fraction(1))))
                         for j in range(0, top + 1, 2) if fine[j] != 1]
        probes = [(m, 1) for m in range(1, top, 2)] + [(m, 2) for m in range(2, top - 1, 2)]
        here = [Violation("concavity", (pt(m - h), pt(m + h), pt(m)), fine[m], rhs)
                for m, h in probes if fine[m] < (rhs := (fine[m - h] + fine[m + h]) / 2)]
        concavity += here
        jump += [Violation("jump", (pt(j), pt(j + scale, lam + 1)), up[j], fine[j])
                 for j in range(0, up_top + 1, 2) if up[j] < fine[j]]
        main += [replace(v, kind="main") for v in here]
        for j in range(up_top + 1):
            h = j % 2
            rhs = (fine[j - 1] + fine[j + 1]) / 2 if h else fine[j]
            if up[j] < rhs:
                main.append(Violation("main", (pt(j - h), pt(j + h), pt(j + scale, lam + 1)),
                                      up[j], rhs))
    return found


class TestIntegerRows:
    """Integer rows report exactly what the Fraction probes report."""

    @staticmethod
    def assert_same(summary, want):
        got = (summary.obstacle, summary.concavity, summary.jump, summary.main)
        for g, w in zip(got, want):
            assert list(g) == w
            for v in g:
                assert type(v.lhs) is type(v.rhs) is Fraction
                assert all(type(a) is Fraction for a, _ in v.points)

    def test_counterexample_grids(self):
        # the negative control on the grids of the benchmark's counterexample checks
        for c in (2, 7):
            grid = CheckGrid.build(c, 7, -2, 8, extra_lambdas=(Fraction(11, 4),))
            summary = run_all_checks(obstacle_indicator, grid)
            assert summary.jump and summary.main
            self.assert_same(summary, fraction_probes(obstacle_indicator, grid))

    def test_stubs_that_fail(self):
        # between them every kind of violation, at up to 490 per list
        for fn in (obstacle_indicator, constant_zero, square_stub, spike_stub, affine_stub):
            for c in (1, 2, Fraction(16, 5)):
                grid = small_grid(c, exp=3)
                self.assert_same(run_all_checks(fn, grid), fraction_probes(fn, grid))

    def test_kernel_rows_equal_tabulated_rows(self):
        for c in (1, Fraction(3, 2), 2, Fraction(7, 3), Fraction(16, 5), 7):
            params = CandidateParams.from_constant(Fraction(c))
            grid = small_grid(c, exp=3)
            kernel = run_all_checks(candidate_fn(params), grid,
                                    rows=partial(candidate_row, params))
            assert kernel == run_all_checks(candidate_fn(params), grid)
            assert kernel.ok


class TestGridBudget:
    def test_refused_before_any_row(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a row was tabulated before the refusal")
        monkeypatch.setattr(carlevel.supersolution, "_threshold_checks", no_rows)
        for args in ((2, 60, -2, 8), (2, 10**12, -2, 8), (2, 6, -2, 10**12)):
            with pytest.raises(ResourceLimitError, match="grid budget"):
                CheckGrid.build(*args)

    def test_budget_boundary(self):
        # C = 1 at exponent 19 has 2^19 + 1 averages: one threshold fits 2^20, two do not
        assert len(CheckGrid.build(1, 19, 0, 0).lambda_values) == 1
        with pytest.raises(ResourceLimitError):
            CheckGrid.build(1, 19, 0, 1)
        with pytest.raises(ResourceLimitError):
            CheckGrid.build(1, 19, 0, 0, extra_lambdas=(Fraction(1, 2),))


class TestInductionTrace:
    def test_single_selection_trace_holds(self):
        seq = CarlesonSeq(0, [ROOT])
        trace = induction_trace(cand(2), seq, 1)
        assert trace.holds
        assert trace.level_sums[0] == 1
        assert trace.level_sums[-1] >= trace.level_set == 1

    def test_counterexample_violates_first_step(self):
        seq = CarlesonSeq(0, [ROOT])
        trace = induction_trace(obstacle_indicator, seq, 1)
        assert not trace.holds
        assert trace.first_violation_level() == 0
        assert trace.level_sums[0] == 0 and trace.level_sums[1] == 1

    def test_empty_sequence(self):
        trace = induction_trace(cand(2), CarlesonSeq(2), 1)
        assert trace.holds
        assert trace.level_set == 0

    def test_leaf_level_selections_are_counted(self):
        # a selection at the truncation depth still shifts the residual once
        seq = CarlesonSeq(1, [ROOT, NodeAddress(1, 0), NodeAddress(1, 1)])
        trace = induction_trace(cand(2), seq, 2)
        assert trace.holds
        assert trace.level_set == 1  # every point sits under two selections

    def test_random_corpus_traces_hold(self):
        for seed in range(20):
            c = (Fraction(2), Fraction(16, 5), Fraction(7))[seed % 3]
            seq = random_carleson(2 + seed % 5, c, 3000 + seed)
            lam = (1, 2, 3)[seed % 3]
            trace = induction_trace(cand(c), seq, lam)
            assert trace.holds, (seed, trace.first_violation_level())

    # integer, non-integer and non-positive root thresholds
    THRESHOLDS = (Fraction(1), Fraction(2), Fraction(4), Fraction(1, 2), Fraction(7, 3),
                  Fraction(0), Fraction(-1), Fraction(-3, 2))

    @staticmethod
    def trace_corpus():
        yield Fraction(2), CarlesonSeq(3)
        yield Fraction(2), CarlesonSeq(2, [NodeAddress(l, i) for l in range(2)
                                           for i in range(1 << l)])
        yield Fraction(1), construct_admissible(1, 1, 5, style="partition")
        yield Fraction(7), construct_admissible(Fraction(45, 16), 7, 6)
        for seed in range(12):
            C = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(16, 5), Fraction(7))[seed % 5]
            yield C, random_carleson(seed % 7, C, 7100 + seed, density=(0.5, 0.9)[seed % 2])

    def test_grouped_trace_equals_brute_trace(self):
        for C, seq in self.trace_corpus():
            # the closed form, the counterexample target, the fixed oracle for this C, stubs
            targets = [resolve_target(name, C)[0] for name, (_, implied) in TARGETS.items()
                       if implied in (None, C)]
            targets += [obstacle_indicator, square_stub, spike_stub, constant_zero,
                        lambda avg, lam: 1 if lam > avg else 0]  # int-valued
            for fn in targets:
                for lam in self.THRESHOLDS:
                    trace = induction_trace(fn, seq, lam)
                    assert trace == brute_trace(fn, seq, lam), (C, seq, fn, lam)
                    assert all(type(x) is Fraction for x in trace.level_sums)

    def test_fn_called_once_per_distinct_pair_per_level(self):
        for C, seq in self.trace_corpus():
            for lam in (Fraction(2), Fraction(-1, 2)):
                calls = []

                def fn(avg, t):
                    calls.append((avg, t))
                    return cand(C)(avg, t)

                induction_trace(fn, seq, lam)
                want = Counter()
                for level in range(seq.depth + 2):
                    want.update({(brute_average(seq.selected, NodeAddress(level, i)),
                                  lam - sum(1 for a in seq.selected if a.level < level
                                            and a.is_ancestor_of(NodeAddress(level, i))))
                                 for i in range(1 << level)})
                assert Counter(calls) == want, (C, seq, lam)

    def test_deep_staircase_trace_finishes(self):
        # the depth + 1 partition cells; the node-by-node walk visits 2^2002 - 1 nodes
        script = ("from fractions import Fraction\n"
                  "from carlevel import CandidateParams, candidate_fn, construct_admissible\n"
                  "from carlevel import induction_trace\n"
                  "seq = construct_admissible(1, 1, 2000, style='partition')\n"
                  "fn = candidate_fn(CandidateParams.from_constant(Fraction(1)))\n"
                  "for lam in (1, 2, Fraction(1, 2)):\n"
                  "    t = induction_trace(fn, seq, lam)\n"
                  "    print(lam, t.holds, len(t.level_sums), t.level_sums[0], t.level_set)\n")
        src = os.path.dirname(os.path.dirname(carlevel.supersolution.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["1 True 2002 1 1", "2 True 2002 0 0",
                                            "1/2 True 2002 1 1"]
