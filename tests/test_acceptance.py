"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every comparison is exact rational equality or a strict rational
inequality; the only tolerances are the stated runtime budgets.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from carlevel import (
    ROOT,
    CandidateParams,
    CheckGrid,
    LevelSetDP,
    candidate_c1,
    candidate_c2,
    candidate_c32,
    candidate_eval,
    candidate_fn,
    candidate_row,
    carleson_constant,
    check_jump,
    check_midpoint_concavity,
    check_obstacle,
    construct_admissible,
    induction_trace,
    obstacle_indicator,
    random_carleson,
    run_all_checks,
)
from oracles import brute_force_extremal, brute_heights, brute_sup_all_addresses

C_POOL = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(16, 5), Fraction(7))


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number}: {status} ({detail})")
    assert passed


def lambda_set(C: Fraction, extras=(Fraction(1, 2), Fraction(7, 2))):
    lams = [Fraction(k) for k in range(-2, math.ceil(C) + 7)]
    return sorted(set(lams) | set(extras))


@pytest.fixture(scope="module")
def corpus():
    """1000 seeded random admissible sequences of depth <= 8, with their bounds."""
    out = []
    for i in range(1000):
        C = C_POOL[i % len(C_POOL)]
        depth = i % 9
        out.append((C, random_carleson(depth, C, 881_000 + i)))
    return out


def test_criterion_1_closed_form_agreement():
    start = time.time()
    oracles = {
        Fraction(1): candidate_c1,
        Fraction(2): candidate_c2,
        Fraction(16, 5): candidate_c32,
    }
    points = 0
    for C, oracle in oracles.items():
        params = CandidateParams.from_constant(C)
        max_j = (C.numerator << 6) // C.denominator
        for j in range(max_j + 1):
            avg = Fraction(j, 64)
            for lam in lambda_set(C):
                assert candidate_eval(params, avg, lam) == oracle(avg, lam)
                points += 1
    p2 = CandidateParams.from_constant(Fraction(2))
    assert candidate_eval(p2, Fraction(2), Fraction(3)) == Fraction(1, 2)
    p32 = CandidateParams.from_constant(Fraction(16, 5))
    assert candidate_eval(p32, Fraction(16, 5), Fraction(4)) == Fraction(11, 15)
    elapsed = time.time() - start
    report(1, elapsed < 1.0,
           f"exact agreement at {points} grid points, spot values 1/2 and 11/15, "
           f"{elapsed:.2f}s < 1s")


def test_criterion_2_supersolution_certificate():
    total_coverage = Counter()
    timings = []
    for C in C_POOL:
        start = time.time()
        grid = CheckGrid.build(C, 8, -2, math.ceil(C) + 6,
                               extra_lambdas=(Fraction(1, 2), Fraction(7, 2), Fraction(16, 5)))
        summary = run_all_checks(candidate_fn(CandidateParams.from_constant(C)), grid)
        elapsed = time.time() - start
        assert summary.ok, f"violations for C={C}"
        assert elapsed < 30.0, f"C={C} took {elapsed:.1f}s"
        total_coverage.update(summary.coverage)
        timings.append(elapsed)
    for key in [f"concavity_case_{i}" for i in (1, 2, 3)] + \
               [f"jump_case_{i}" for i in (1, 2, 3, 4, 5)]:
        assert total_coverage[key] > 0, f"proof branch never exercised: {key}"
    report(2, True,
           "all four checks empty for C in {1, 3/2, 2, 16/5, 7} at grid exponent 8; "
           f"all 3 concavity and 5 jump proof cases hit; max {max(timings):.1f}s/C < 30s")


def test_candidate_certificate_at_grid_exponent_12():
    # criterion 2 on a grid 16 times finer, from the closed form's exact rows
    start = time.time()
    for C in C_POOL:
        params = CandidateParams.from_constant(C)
        grid = CheckGrid.build(C, 12, -2, math.ceil(C) + 6,
                               extra_lambdas=(Fraction(1, 2), Fraction(7, 2), Fraction(16, 5)))
        summary = run_all_checks(candidate_fn(params), grid, rows=partial(candidate_row, params))
        assert summary.ok, f"violations for C={C}"
    assert time.time() - start < 30.0


def test_criterion_3_counterexample_detection():
    start = time.time()
    grid = CheckGrid.build(Fraction(2), 6, -2, 6)
    assert check_obstacle(obstacle_indicator, grid) == []
    assert check_midpoint_concavity(obstacle_indicator, grid) == []
    violations = check_jump(obstacle_indicator, grid)
    assert violations
    first = violations[0]
    assert list(first.points) == [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
    assert first.lhs == 0 and first.rhs == 1
    elapsed = time.time() - start
    report(3, elapsed < 1.0,
           "obstacle and concavity pass; jump fails exactly at (0,0) -> (1,1) "
           f"with 0 < 1, {elapsed:.2f}s < 1s")


def test_criterion_4_dp_sharpness_probe():
    start = time.time()
    params = CandidateParams.from_constant(Fraction(2))
    value, witness = LevelSetDP(2).max_levelset(2, 2, 2)
    closed = candidate_eval(params, Fraction(2), Fraction(2))
    assert value == 1 and closed == 1
    assert carleson_constant(witness, 2).is_c_carleson is True

    target = candidate_eval(params, Fraction(2), Fraction(3))
    assert target == Fraction(1, 2)
    rows = LevelSetDP(2).convergence(2, 3, 10, depth_min=3)
    assert [r.depth for r in rows] == list(range(3, 11))
    gaps = [r.gap for r in rows]
    assert all(g >= 0 for g in gaps)
    assert all(x >= y for x, y in zip(gaps, gaps[1:]))
    elapsed = time.time() - start
    report(4, elapsed < 120.0,
           f"gap 0 attained at depth 2 for m=2; m=3 gaps to 1/2 non-negative and "
           f"non-increasing over depths 3..10 (last gap {gaps[-1]}), {elapsed:.1f}s < 120s")


def test_criterion_5_brute_force_oracle_equivalence():
    start = time.time()
    cells = 0
    for C in (Fraction(1), Fraction(2)):
        engine = LevelSetDP(C)
        for depth in range(0, 4):
            oracle = brute_force_extremal(C, depth, range(0, 5))
            grid_size = engine._cap_num(depth)
            keys = set()
            for n in range(grid_size + 1):
                avg = Fraction(n, 1 << depth)
                for m in range(0, 5):
                    assert engine.value(depth, avg, m).as_fraction() == oracle[(avg, m)], \
                        (C, depth, avg, m)
                    keys.add((avg, m))
                    cells += 1
            assert keys == set(oracle)
    elapsed = time.time() - start
    report(5, elapsed < 60.0,
           f"DP equals exhaustive enumeration on {cells} cells "
           f"(C in {{1, 2}}, depth <= 3, m <= 4), {elapsed:.1f}s < 60s")


def test_criterion_6_constructor_exactness():
    start = time.time()
    rng = random.Random(660_001)
    pool = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(16, 5),
            Fraction(3), Fraction(7), Fraction(7, 3)]
    triples = [
        (Fraction(13, 16), Fraction(1), 4),   # walked fractional construction
        (Fraction(11, 8), Fraction(2), 4),    # roof over a fractional part
        (Fraction(3), Fraction(3), 3),        # integer average, full roof
    ]
    while len(triples) < 500:
        C = rng.choice(pool)
        depth = rng.randrange(0, 9)
        whole = rng.randrange(0, min(int(C), depth) + 1)
        bits = depth - whole
        frac = Fraction(rng.randrange(0, (1 << bits) + 1), 1 << bits) if bits else Fraction(0)
        if frac >= 1:
            frac = Fraction(0)
        a = whole + frac
        if a > C:
            a = Fraction(whole)
        triples.append((a, C, depth))
    for a, C, depth in triples:
        seq = construct_admissible(a, C, depth)
        assert seq.carleson_average(ROOT).as_fraction() == a, (a, C, depth)
        assert carleson_constant(seq, C).is_c_carleson is True, (a, C, depth)
    elapsed = time.time() - start
    report(6, elapsed < 10.0,
           f"{len(triples)} constructions reproduce their averages exactly and "
           f"pass the independent Carleson check, {elapsed:.1f}s < 10s")


def test_criterion_7_structural_identities(corpus):
    start = time.time()
    for C, seq in corpus:
        depth = seq.depth
        heights = brute_heights(seq.selected, depth)
        for m in range(1, depth + 3):
            v = seq.level_set_measure(m)
            assert v == seq.generation_measure(m - 1)
            assert v.as_fraction() == Fraction(sum(1 for h in heights if h >= m), 1 << depth)
        for lam in (Fraction(1, 2), Fraction(7, 2), Fraction(16, 5), Fraction(-3, 2)):
            assert seq.level_set_measure(lam) == seq.level_set_measure(math.ceil(lam))
        assert carleson_constant(seq).carleson_constant.as_fraction() == \
            brute_sup_all_addresses(seq.selected, depth)
        measures = [seq.generation_measure(m).as_fraction()
                    for m in range(len(seq.sparse_generations()) + 1)]
        assert all(x >= y for x, y in zip(measures, measures[1:]))
    elapsed = time.time() - start
    report(7, elapsed < 30.0,
           f"level-set, ceiling, selected-only-sup and nesting identities hold on "
           f"{len(corpus)} random sequences, {elapsed:.1f}s < 30s")


def test_criterion_8_least_supersolution_sandwich(corpus):
    start = time.time()
    params = {C: CandidateParams.from_constant(C) for C in C_POOL}
    for C, seq in corpus:
        root_avg = seq.carleson_average(ROOT).as_fraction()
        for lam in range(-1, 9):
            bound = candidate_eval(params[C], root_avg, Fraction(lam))
            assert seq.level_set_measure(lam).as_fraction() <= bound, (C, seq, lam)
    traced = 0
    for C, seq in corpus[:200]:
        lam = (1, 2, 3, 5)[traced % 4]
        trace = induction_trace(candidate_fn(params[C]), seq, lam)
        assert trace.holds, (C, seq, lam, trace.first_violation_level())
        traced += 1
    elapsed = time.time() - start
    report(8, elapsed < 60.0,
           f"level sets stay below the closed form at thresholds -1..8 on "
           f"{len(corpus)} sequences; {traced} induction traces hold at every level, "
           f"{elapsed:.1f}s < 60s")
