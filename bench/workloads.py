"""The benchmark's four workloads: seeded inputs, timed ops and correctness checks.

Every op goes through carlevel.cli.main(argv) in-process, or through a
public library function where the CLI has no command for it.  Functions are
looked up on their modules at call time, so the tracer's wrappers see them.
An op's run() holds only the program's work and is what gets timed; its
check() runs afterwards, untimed, and compares the outputs with
reference.py and with the exit code the op documents.

A workload's pass is its whole op list.  Passes repeat identical inputs, so
their exact counters and artifact digests must repeat too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Sequence, Set, Tuple

import carlevel.candidate as candidate
import carlevel.cli as cli
import carlevel.construct as construct
import carlevel.sequences as sequences
import carlevel.supersolution as supersolution
from carlevel.dyadic import ROOT
from carlevel.errors import PrecisionError

import reference as ref

C_POOL = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(16, 5), Fraction(7))


def slug(C: Fraction) -> str:
    return str(C).replace("/", "-")


def run_cli(argv: Sequence[str]) -> Tuple[int, str, str]:
    """carlevel.cli.main with its terminal output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def read(name: str) -> str:
    with open(name) as fh:
        return fh.read()


def address_set(pairs) -> Set[Tuple[int, int]]:
    return {(int(level), int(index)) for level, index in pairs}


def csv_rows(text: str) -> List[List[str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


@dataclass
class Op:
    """One closed-loop operation: what to run, what it should produce."""

    index: int
    kind: str
    params: Dict[str, Any]
    argv: List[str] = field(default_factory=list)
    expect_code: int = 0
    artifacts: List[str] = field(default_factory=list)  # files the CLI writes
    written: List[str] = field(default_factory=list)  # program output the benchmark writes


class Workload:
    name = ""
    # True when the artifacts and counters do not depend on the seed, so the
    # recorded digests apply to every seed rather than the default one only.
    seed_free = False

    def make_ops(self, seed: int) -> List[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        code, out, err = run_cli(op.argv)
        return {"code": code, "stdout": out, "stderr": err}

    def check(self, op: Op, result: Any, counters: Dict[str, int]) -> List[str]:
        """Errors found in one op's output; also adds to the exact counters."""
        raise NotImplementedError

    @staticmethod
    def code_errors(op: Op, result: Dict) -> List[str]:
        if result["code"] != op.expect_code:
            return [f"exit code {result['code']}, expected {op.expect_code}: "
                    f"{result['stderr'].strip()[:200]}"]
        return []


# -- dp-table -------------------------------------------------------------------

DP_TABLE_CASES = ((Fraction(2), 11), (Fraction(16, 5), 10), (Fraction(7), 9))
DP_TABLE_M_MAX = 4


class DpTable(Workload):
    """Full DP tables, one cold engine per C; the seed only orders the ops."""

    name = "dp-table"
    seed_free = True

    def make_ops(self, seed: int) -> List[Op]:
        cases = list(DP_TABLE_CASES)
        random.Random(seed).shuffle(cases)
        ops = []
        for i, (C, depth) in enumerate(cases):
            out = f"table-{slug(C)}-d{depth}.csv"
            argv = ["table", "--kind", "dp", "--C", str(C), "--depth", str(depth),
                    "--m-max", str(DP_TABLE_M_MAX), "--out", out]
            ops.append(Op(i, "table", {"C": C, "depth": depth}, argv, 0, [out]))
        return ops

    def check(self, op, result, counters):
        errors = self.code_errors(op, result)
        if errors:
            return errors
        C, depth = op.params["C"], op.params["depth"]
        cap = min(C, Fraction(depth + 1))
        n_max = (cap.numerator << depth) // cap.denominator
        rows = csv_rows(read(op.artifacts[0]))
        if len(rows) != (n_max + 1) * (DP_TABLE_M_MAX + 1):
            return [f"{len(rows)} rows, expected {(n_max + 1) * (DP_TABLE_M_MAX + 1)}"]
        values: Dict[Tuple[Fraction, int], Fraction] = {}
        for a, m, v in rows:
            values[(Fraction(a), int(m))] = Fraction(v)
        for n in range(n_max + 1):
            a = Fraction(n, 1 << depth)
            prev = Fraction(1)
            for m in range(DP_TABLE_M_MAX + 1):
                v = values.get((a, m))
                if v is None:
                    return [f"missing cell a={a} m={m}"]
                if m == 0 and v != 1:
                    errors.append(f"F(a={a}, m=0) = {v}, expected 1")
                if not 0 <= v <= prev:
                    errors.append(f"F(a={a}, m={m}) = {v} not in [0, F(a, m-1)]")
                if v > ref.closed_form(C, a, Fraction(m)):
                    errors.append(f"F(a={a}, m={m}) = {v} exceeds the closed form")
                prev = v
        counters["extremal.cells"] += len(rows)
        return errors[:5]


# -- dp-search ------------------------------------------------------------------

# (C, depth): every class gets one op per stratum s = 1..9 of the admissible
# averages, plus one refusal.  Op s searches level 2 + s % 4 at an average
# near the middle of its stratum, anchored to a multiple of 1/16; the seed
# adds a jitter of j/256, 0 < j < 16.  The DP's cost varies smoothly with the
# average except where it crosses an integer, which the jitter never does,
# so the op mix costs nearly the same for every seed.  Stratum 0 and level 1
# are left out: there the answer comes almost at once (level 1 is trivially
# full once A >= 1), and such ops would put a cost cliff beside the median.
SEARCH_CLASSES = (
    (Fraction(3, 2), 9), (Fraction(3, 2), 10), (Fraction(3, 2), 11),
    (Fraction(2), 9), (Fraction(2), 10), (Fraction(2), 11),
    (Fraction(16, 5), 8), (Fraction(16, 5), 9), (Fraction(7), 8), (Fraction(7), 9),
)
SEARCH_STRATA = 10
SEARCH_LEVELS = (2, 3, 4, 5)
REFUSAL_CELL_CAP = 64  # far below the memo any refusal op below needs
CONVERGENCE_STRATA = (4, 8)  # these ops also ask for a convergence report


def _jittered_average(rng: random.Random, top: Fraction, share: Fraction) -> Fraction:
    """An average near share * top: a multiple of 1/16 below it plus j/256, 0 < j < 16."""
    anchor = Fraction(int(share * top * 16), 16)
    return anchor + Fraction(rng.randint(1, 15), 256)


class DpSearch(Workload):
    """Cold point queries with witnesses, convergence reports and refusals."""

    name = "dp-search"

    def make_ops(self, seed: int) -> List[Op]:
        rng = random.Random(seed)
        specs = []
        for C, depth in SEARCH_CLASSES:
            top = min(C, Fraction(depth + 1))
            for s in range(1, SEARCH_STRATA):
                A = _jittered_average(rng, top, Fraction(2 * s + 1, 2 * SEARCH_STRATA))
                m = SEARCH_LEVELS[s % len(SEARCH_LEVELS)]
                specs.append(("search", C, depth, A, m, s in CONVERGENCE_STRATA))
            # a refusal at level 3 and three quarters of the range, with a tiny cell cap
            A = _jittered_average(rng, top, Fraction(3, 4))
            specs.append(("refuse", C, depth, A, 3, False))
        rng.shuffle(specs)
        ops = []
        for i, (kind, C, depth, A, m, converge) in enumerate(specs):
            argv = ["search", "--C", str(C), "--depth", str(depth), "--A", str(A),
                    "--m", str(m), "--format", "json"]
            out, witness = f"search-{i:03d}.json", f"witness-{i:03d}.json"
            if converge:
                argv += ["--report-convergence", str(depth)]
            argv += ["--emit-witness", witness, "--out", out]
            params = {"C": C, "depth": depth, "A": A, "m": m, "converge": converge}
            if kind == "refuse":
                argv += ["--cell-cap", str(REFUSAL_CELL_CAP)]
                ops.append(Op(i, kind, params, argv, 3, []))
            else:
                ops.append(Op(i, kind, params, argv, 0, [out, witness]))
        return ops

    def check(self, op, result, counters):
        errors = self.code_errors(op, result)
        if errors:
            return errors
        if op.kind == "refuse":
            counters["extremal.refused"] += 1
            leftovers = [p for p in op.argv if p.endswith(".json") and os.path.exists(p)]
            if leftovers:
                return [f"refused op left files behind: {leftovers}"]
            if "resource limit" not in result["stderr"]:
                return [f"refusal without the resource-limit message: {result['stderr'][:200]}"]
            return []
        C, depth, A, m = (op.params[k] for k in ("C", "depth", "A", "m"))
        doc = json.loads(read(op.artifacts[0]))
        wit = json.loads(read(op.artifacts[1]))
        value = Fraction(doc["value"])
        bound = ref.closed_form(C, A, Fraction(m))
        selected = address_set(wit["selected"])
        counters["extremal.witness_addresses"] += len(selected)
        if Fraction(doc["closed_form"]) != bound:
            errors.append(f"closed form {doc['closed_form']}, expected {bound}")
        if Fraction(doc["gap"]) != bound - value:
            errors.append(f"gap {doc['gap']} is not closed form - value")
        if value > bound:
            errors.append(f"value {value} exceeds the closed form {bound}")
        if wit["depth"] != depth:
            errors.append(f"witness depth {wit['depth']}, expected {depth}")
        if ref.level_set(depth, selected, Fraction(m)) != value:
            errors.append(f"witness level set {ref.level_set(depth, selected, Fraction(m))} "
                          f"!= reported value {value}")
        if ref.root_average(depth, selected) != A:
            errors.append(f"witness root average {ref.root_average(depth, selected)} != {A}")
        if ref.carleson_constant(depth, selected) > C:
            errors.append(f"witness Carleson constant exceeds {C}")
        if op.params["converge"]:
            rows = doc.get("convergence") or []
            if not rows or rows[-1]["depth"] != depth or Fraction(rows[-1]["value"]) != value:
                errors.append("convergence report does not end at the searched depth and value")
            for row in rows:
                if Fraction(row["value"]) > bound or Fraction(row["gap"]) != bound - Fraction(row["value"]):
                    errors.append(f"convergence row {row} inconsistent with the closed form")
        return errors


# -- certify ----------------------------------------------------------------------

CERTIFY_GRID_EXP = 9
CERTIFY_EXTRA_LAMBDAS = 2
COUNTEREXAMPLE_CASES = ((Fraction(2), 7), (Fraction(7), 7))
SURFACE_CASE = (Fraction(7), 10, -1, 12)  # C, grid exponent, lambda range


def _non_integer_lambdas(rng: random.Random, count: int, top: int) -> List[Fraction]:
    """Distinct thresholds k/4 in (0, top) that are not integers."""
    pool = [Fraction(k, 4) for k in range(1, 4 * top) if k % 4]
    return sorted(rng.sample(pool, count))


class Certify(Workload):
    """Grid certificates of the closed form, the negative control, a surface export."""

    name = "certify"

    def make_ops(self, seed: int) -> List[Op]:
        rng = random.Random(seed)
        specs: List[Tuple[str, Dict[str, Any], List[str]]] = []
        for C in C_POOL:
            lams = _non_integer_lambdas(rng, CERTIFY_EXTRA_LAMBDAS, 8)
            argv = ["check", "--target", "candidate", "--C", str(C),
                    "--grid-exp", str(CERTIFY_GRID_EXP)]
            for lam in lams:
                argv += ["--lambda-extra", str(lam)]
            specs.append(("candidate", {"C": C}, argv))
        for C, grid_exp in COUNTEREXAMPLE_CASES:
            # extra thresholds stay positive, so the first jump violation is at t = 0
            lam = _non_integer_lambdas(rng, 1, 8)[0]
            argv = ["check", "--target", "counterexample", "--C", str(C),
                    "--grid-exp", str(grid_exp), "--lambda-extra", str(lam)]
            specs.append(("counterexample", {"C": C}, argv))
        C, grid_exp, lam_lo, lam_hi = SURFACE_CASE
        specs.append(("surface", {"C": C, "grid_exp": grid_exp, "lams": (lam_lo, lam_hi)},
                      ["table", "--kind", "surface", "--C", str(C), "--grid-exp", str(grid_exp),
                       "--lambda-min", str(lam_lo), "--lambda-max", str(lam_hi)]))
        rng.shuffle(specs)
        ops = []
        for i, (kind, params, argv) in enumerate(specs):
            if kind == "surface":
                out = f"surface-{i}.csv"
                argv = argv + ["--out", out]
            else:
                out = f"{kind}-{slug(params['C'])}.json"
                argv = argv + ["--format", "json", "--out", out]
            expect = 1 if kind == "counterexample" else 0
            ops.append(Op(i, kind, params, argv, expect, [out]))
        return ops

    def check(self, op, result, counters):
        errors = self.code_errors(op, result)
        if errors:
            return errors
        text = read(op.artifacts[0])
        if op.kind == "surface":
            C = op.params["C"]
            lo, hi = op.params["lams"]
            rows = csv_rows(text)
            n_max = (C.numerator << op.params["grid_exp"]) // C.denominator
            if len(rows) != (n_max + 1) * (hi - lo + 1):
                return [f"surface has {len(rows)} rows"]
            for a, lam, v in rows:
                if Fraction(v) != ref.closed_form(C, Fraction(a), Fraction(lam)):
                    return [f"surface value at ({a}, {lam}) is {v}"]
            return []
        doc = json.loads(text)
        counters["supersolution.probes"] += sum(doc["coverage"].values())
        violations = doc["violations"]
        if op.kind == "candidate":
            if not doc["ok"] or violations:
                errors.append(f"the closed form failed its certificate at C = {op.params['C']}")
            return errors
        counters["supersolution.violations"] += len(violations)
        kinds = {v["kind"] for v in violations}
        if doc["ok"] or "jump" not in kinds or kinds & {"obstacle", "concavity"}:
            return [f"counterexample violation kinds {sorted(kinds)}, expected jump and main"]
        first = next(v for v in violations if v["kind"] == "jump")
        if first["points"] != [["0", "0"], ["1", "1"]] or (first["lhs"], first["rhs"]) != ("0", "1"):
            errors.append(f"first jump violation {first}, expected (0,0) -> (1,1) with 0 < 1")
        return errors


# -- sequences --------------------------------------------------------------------

SEQ_DEPTHS = tuple(range(7, 13))
SEQ_REPEATS = 12
SEQ_DENSITIES = (0.25, 0.5, 0.75, 0.9)  # cycled over the repeats
SEQ_TRACED_REPEATS = (0, 5, 10)  # one in four sequences gets an induction trace


class Sequences(Workload):
    """Random Carleson sequences: generate, serialise, validate, query, construct."""

    name = "sequences"

    def make_ops(self, seed: int) -> List[Op]:
        rng = random.Random(seed)
        specs = []
        for depth in SEQ_DEPTHS:
            for C in C_POOL:
                for rep in range(SEQ_REPEATS):
                    specs.append({
                        "C": C, "depth": depth,
                        "density": SEQ_DENSITIES[rep % len(SEQ_DENSITIES)],
                        "rng_seed": rng.getrandbits(32),
                        "cut": rng.randint(0, depth),
                        "lam": Fraction(rng.randint(1, 2 * depth + 2), 2)
                        if rep in SEQ_TRACED_REPEATS else None,
                    })
        rng.shuffle(specs)
        ops = []
        for i, params in enumerate(specs):
            seq_file, out = f"seq-{i:03d}.json", f"validate-{i:03d}.json"
            argv = ["validate", "--file", seq_file, "--C", str(params["C"]),
                    "--format", "json", "--out", out]
            ops.append(Op(i, "sequence", dict(params, seq_file=seq_file), argv, 0, [out],
                          [seq_file]))
        return ops

    def run(self, op: Op) -> Any:
        p = op.params
        C, depth = p["C"], p["depth"]
        seq = sequences.random_carleson(depth, C, p["rng_seed"], density=p["density"])
        text = seq.to_json()
        with open(p["seq_file"], "w") as fh:
            fh.write(text)
        code, out, err = run_cli(op.argv)
        gens = seq.sparse_generations()
        levels = [seq.level_set_measure(m) for m in range(len(gens) + 2)]
        cut = seq.truncate(p["cut"])
        avg = seq.carleson_average(ROOT).as_fraction()
        try:
            built = construct.construct_admissible(avg, C, depth)
        except PrecisionError:
            built = None
        trace = None
        if p["lam"] is not None:
            fn = candidate.candidate_fn(candidate.CandidateParams.from_constant(C))
            trace = supersolution.induction_trace(fn, seq, p["lam"])
        return {"code": code, "stdout": out, "stderr": err, "seq": seq, "text": text,
                "gens": gens, "levels": levels, "cut": cut, "built": built, "trace": trace}

    def check(self, op, result, counters):
        errors = self.code_errors(op, result)
        if errors:
            return errors
        p = op.params
        C, depth, seq = p["C"], p["depth"], result["seq"]
        selected = {(a.level, a.index) for a in seq.selected}
        counters["sequences.addresses"] += len(selected)
        counters["sequences.json_bytes"] += len(result["text"].encode())
        data = json.loads(result["text"])
        if (data.get("format"), data.get("depth")) != ("carleson-seq/1", depth) \
                or address_set(data.get("selected", [])) != selected:
            errors.append("JSON does not round-trip to the generated sequence")
        constant = ref.carleson_constant(depth, selected)
        avg = ref.root_average(depth, selected)
        if constant > C:
            errors.append(f"random sequence has Carleson constant {constant} > {C}")
        heights = ref.heights(selected)
        top = max(heights.values(), default=0)
        want_levels = ref.level_sets(depth, selected, top + 2)
        report = json.loads(read(op.artifacts[0]))
        if (Fraction(report["root_average"]) != avg
                or Fraction(report["carleson_constant"]) != constant
                or report["is_c_carleson"] is not True
                or [Fraction(x) for x in report["level_sets"]] != want_levels):
            errors.append("validate report disagrees with the reference")
        if len(result["gens"]) != top or [x.as_fraction() for x in result["levels"]] != want_levels:
            errors.append("generations or level sets disagree with the reference")
        cut = result["cut"]
        if cut.depth != p["cut"] or {(a.level, a.index) for a in cut.selected} != \
                {a for a in selected if a[0] < p["cut"]}:
            errors.append(f"truncate({p['cut']}) kept the wrong addresses")
        built = result["built"]
        if built is None:
            counters["construct.refused"] += 1
            if ref.is_realisable(avg, depth):
                errors.append(f"construct refused the realisable average {avg} at depth {depth}")
        else:
            got = {(a.level, a.index) for a in built.selected}
            if built.depth != depth or ref.root_average(depth, got) != avg \
                    or ref.carleson_constant(depth, got) > C:
                errors.append(f"construct missed average {avg} or the bound {C}")
        trace = result["trace"]
        if trace is not None:
            lam = p["lam"]
            if not trace.holds or trace.level_sums[0] != ref.closed_form(C, avg, lam) \
                    or trace.level_set != ref.level_set(depth, selected, lam):
                errors.append(f"induction trace at lambda {lam} does not hold as expected")
        return errors


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (DpTable(), DpSearch(), Certify(), Sequences())}
