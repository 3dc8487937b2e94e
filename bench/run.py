"""carlevel benchmark: four workloads run as a closed loop by one client.

Run from the repository root:

    python3 bench/run.py --workload dp-table --seed 0 --seconds 20 --trace 0

One process, one thread: each op starts after the previous one finished
and was checked.  A pass runs the workload's whole seeded op list; passes
repeat until the next one would overrun --seconds (at least one pass, and
with --trace 1 at least one plain and one traced pass).

--trace 0 prints the end-to-end metrics, from plain passes only.
--trace 1 alternates plain and traced passes and prints the per-layer
metrics from the traced ones, with trace.overhead_s, the difference of
their median pass times.  The spans go to .bench_work/traces/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An op fails when it raises,
exits with a code other than the one it documents, or fails its check;
exact counters and artifact digests must repeat between passes and, for
the default seed, match bench/expected.json.  --record rewrites that file's
entry for the workload; use it only after a deliberate change of outputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH_DIR / "expected.json"
DEFAULT_SEED = 0
SETUP_PROBES = 9
WORKLOAD_NAMES = ("dp-table", "dp-search", "certify", "sequences")

# Exact counters taken from the outputs in every pass, and from the tracer.
COUNTERS = ("cli.artifact_bytes", "construct.refused", "extremal.cells", "extremal.refused",
            "extremal.witness_addresses", "sequences.addresses", "sequences.json_bytes",
            "supersolution.probes", "supersolution.violations")
TRACED_COUNTERS = ("candidate.evals", "supersolution.fn_evals")


@dataclass
class Pass:
    traced: bool
    latencies: List[float] = field(default_factory=list)
    failed: List[int] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    digests: Dict[str, str] = field(default_factory=dict)
    elapsed: float = 0.0
    tracer: object = None

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite {EXPECTED.name} for this workload (default seed only)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import carlevel from this checkout's src/, never from anywhere else."""
    if not (SRC / "carlevel" / "__init__.py").is_file():
        raise SystemExit(f"bench: no carlevel sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import carlevel
    if Path(carlevel.__file__).resolve().parent != (SRC / "carlevel").resolve():
        raise SystemExit(f"bench: imported carlevel from {carlevel.__file__}, not {SRC}")


def measure_setup(args: argparse.Namespace) -> float:
    """Median time from starting a fresh interpreter to its being ready for the first op."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(ready - start)
    return statistics.median(times)


def sha256(path: str) -> Tuple[str, int]:
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), len(data)


def run_pass(workload, ops, pass_dir: Path, tracer) -> Pass:
    """Run every op once, timing each, then check it; artifacts land in pass_dir."""
    result = Pass(traced=tracer is not None, tracer=tracer)
    gc.collect()
    began = time.perf_counter()
    pass_dir.mkdir(parents=True)
    os.chdir(pass_dir)
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            errors: List[str] = []
            start = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.op_span(op.index):
                        out = workload.run(op)
                else:
                    out = workload.run(op)
            except Exception:
                errors.append("raised:\n" + traceback.format_exc())
                out = None
            result.latencies.append(time.perf_counter() - start)
            if out is not None:
                try:
                    errors += workload.check(op, out, result.counters)
                    for name in op.artifacts + op.written:
                        digest, size = sha256(name)
                        result.digests[name] = digest
                        if name in op.artifacts:
                            result.counters["cli.artifact_bytes"] += size
                except Exception:
                    errors.append("check raised:\n" + traceback.format_exc())
            if errors:
                result.failed.append(op.index)
                print(f"bench: op {op.index} {op.argv}: " + "; ".join(errors), file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()
        os.chdir(ROOT)
        shutil.rmtree(pass_dir, ignore_errors=True)
    if tracer is not None:
        result.counters["candidate.evals"] = tracer.count("candidate.eval")
        result.counters["supersolution.fn_evals"] = tracer.count("supersolution.fn_eval")
    result.elapsed = time.perf_counter() - began
    return result


def run_passes(args, workload, ops, run_dir: Path) -> List[Pass]:
    from spans import Tracer

    passes: List[Pass] = []
    began = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(workload, ops, run_dir / f"pass-{len(passes)}",
                               Tracer() if traced else None))
        if args.trace and len(passes) < 2:
            continue
        typical = statistics.median(p.elapsed for p in passes)
        if time.perf_counter() - began + typical > args.seconds:
            return passes


# -- metrics --------------------------------------------------------------------


def end_to_end(plain: List[Pass], setup_s: float) -> Dict[str, Tuple[float, str]]:
    latencies = [x for p in plain for x in p.latencies]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 \
        else latencies[0]
    return {
        "wall_s": (statistics.median(p.wall for p in plain), "s"),
        "ops_per_s": (len(latencies) / sum(p.wall for p in plain), "ops/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, span or counted names it needs, value from (tracer, pass, ops))
PerLayer = Callable[[object, Pass, list], float]
PER_LAYER: Dict[str, Tuple[str, Tuple[str, ...], PerLayer]] = {
    "extremal.table_s": ("s", ("extremal.table",), lambda t, p, o: t.busy("extremal.table")),
    "extremal.cells": ("count", (), lambda t, p, o: p.counters["extremal.cells"]),
    "extremal.cells_per_s": ("1/s", ("extremal.table",), lambda t, p, o: _ratio(
        p.counters["extremal.cells"], t.busy("extremal.table"))),
    "extremal.search_s": ("s", ("extremal.search",), lambda t, p, o: t.busy("extremal.search")),
    "extremal.convergence_s": ("s", ("extremal.convergence",),
                               lambda t, p, o: t.busy("extremal.convergence")),
    "extremal.refused": ("count", (), lambda t, p, o: p.counters["extremal.refused"]),
    "extremal.refuse_ms": ("ms", ("cli.main",), lambda t, p, o: 1e3 * statistics.median(
        t.op_durations("cli.main", {op.index for op in o if op.kind == "refuse"}) or [0.0])),
    "extremal.witness_addresses": ("count", (),
                                   lambda t, p, o: p.counters["extremal.witness_addresses"]),
    "extremal.self_s": ("s", (), lambda t, p, o: t.layer_self("extremal")),
    "supersolution.run_all_s": ("s", ("supersolution.run_all",),
                                lambda t, p, o: t.busy("supersolution.run_all")),
    "supersolution.obstacle_s": ("s", ("supersolution.obstacle",),
                                 lambda t, p, o: t.busy("supersolution.obstacle")),
    "supersolution.concavity_s": ("s", ("supersolution.concavity",), lambda t, p, o: t.busy(
        "supersolution.concavity", exclude_parent="supersolution.main")),
    "supersolution.jump_s": ("s", ("supersolution.jump",), lambda t, p, o: t.busy(
        "supersolution.jump", exclude_parent="supersolution.main")),
    "supersolution.main_s": ("s", ("supersolution.main",),
                             lambda t, p, o: t.busy("supersolution.main")),
    "supersolution.reverify_s": (
        "s", ("supersolution.main", "supersolution.concavity", "supersolution.jump"),
        lambda t, p, o: t.busy("supersolution.concavity", parent_name="supersolution.main")
        + t.busy("supersolution.jump", parent_name="supersolution.main")),
    "supersolution.fn_evals": ("count", ("supersolution.fn_eval",),
                               lambda t, p, o: p.counters["supersolution.fn_evals"]),
    "supersolution.probes": ("count", (), lambda t, p, o: p.counters["supersolution.probes"]),
    "supersolution.fn_evals_per_probe": ("ratio", ("supersolution.fn_eval",), lambda t, p, o: _ratio(
        p.counters["supersolution.fn_evals"], p.counters["supersolution.probes"])),
    "supersolution.violations": ("count", (),
                                 lambda t, p, o: p.counters["supersolution.violations"]),
    "supersolution.trace_s": ("s", ("supersolution.trace",),
                              lambda t, p, o: t.busy("supersolution.trace")),
    "supersolution.self_s": ("s", (), lambda t, p, o: t.layer_self("supersolution")),
    "candidate.evals": ("count", ("candidate.eval",), lambda t, p, o: t.count("candidate.eval")),
    "candidate.eval_ns": ("ns", ("candidate.eval",), lambda t, p, o: 1e9 * _ratio(
        t.seconds("candidate.eval"), t.count("candidate.eval"))),
    "candidate.surface_s": ("s", ("candidate.surface",),
                            lambda t, p, o: t.busy("candidate.surface")),
    "candidate.self_s": ("s", (), lambda t, p, o: t.layer_self("candidate")),
    "sequences.random_s": ("s", ("sequences.random",), lambda t, p, o: t.busy("sequences.random")),
    "sequences.from_json_s": ("s", ("sequences.from_json",),
                              lambda t, p, o: t.busy("sequences.from_json")),
    "sequences.to_json_s": ("s", ("sequences.to_json",),
                            lambda t, p, o: t.busy("sequences.to_json")),
    "sequences.constant_s": ("s", ("sequences.constant",),
                             lambda t, p, o: t.busy("sequences.constant")),
    "sequences.generations_s": ("s", ("sequences.generations",),
                                lambda t, p, o: t.busy("sequences.generations")),
    "sequences.addresses": ("count", (), lambda t, p, o: p.counters["sequences.addresses"]),
    "sequences.json_bytes": ("bytes", (), lambda t, p, o: p.counters["sequences.json_bytes"]),
    "sequences.self_s": ("s", (), lambda t, p, o: t.layer_self("sequences")),
    "construct.admissible_s": ("s", ("construct.admissible",),
                               lambda t, p, o: t.busy("construct.admissible")),
    "construct.refused": ("count", (), lambda t, p, o: p.counters["construct.refused"]),
    "construct.self_s": ("s", (), lambda t, p, o: t.layer_self("construct")),
    "cli.main_s": ("s", ("cli.main",), lambda t, p, o: t.busy("cli.main")),
    "cli.self_s": ("s", ("cli.main",), lambda t, p, o: t.layer_self("cli")),
    "cli.artifact_bytes": ("bytes", (), lambda t, p, o: p.counters["cli.artifact_bytes"]),
}


def per_layer(plain: List[Pass], traced: List[Pass], ops) -> Dict[str, Tuple[Optional[float], str]]:
    """Each metric's median over the traced passes; None when an entry point is missing."""
    out: Dict[str, Tuple[Optional[float], str]] = {}
    for name, (unit, needs, value) in PER_LAYER.items():
        if any(need not in p.tracer.present for p in traced for need in needs):
            out[name] = (None, unit)
        else:
            out[name] = (statistics.median(value(p.tracer, p, ops) for p in traced), unit)
    overhead = statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain)
    out["trace.overhead_s"] = (overhead, "s")
    return out


# -- exactness ------------------------------------------------------------------


def exact_counters(p: Pass) -> Dict[str, int]:
    names = COUNTERS + (TRACED_COUNTERS if p.traced else ())
    return {name: int(p.counters[name]) for name in names}


def all_counters(passes: List[Pass]) -> Dict[str, int]:
    """The exact counters of a run: plain and traced passes together."""
    counters: Dict[str, int] = {}
    for p in passes:
        counters.update(exact_counters(p))
    return counters


def consistency_errors(args, workload, passes: List[Pass], ops) -> Tuple[List[str], set]:
    """Counters and digests that differ between passes or from the recorded values.

    Returns the errors and the indices of ops whose artifacts have the wrong digest.
    """
    errors: List[str] = []
    bad_ops: set = set()
    if len({tuple(p.counters[n] for n in COUNTERS) for p in passes}) > 1:
        errors.append("exact counters differ between passes")
    if len({tuple(p.counters[n] for n in TRACED_COUNTERS) for p in passes if p.traced}) > 1:
        errors.append("traced counters differ between traced passes")
    if any(p.digests != passes[0].digests for p in passes):
        errors.append("artifact digests differ between passes")
    recorded = load_expected().get(workload.name)
    if recorded is None or not (workload.seed_free or args.seed == recorded["seed"]):
        return errors, bad_ops
    owner = {name: op.index for op in ops for name in op.artifacts + op.written}
    for p in passes:
        for name, value in exact_counters(p).items():
            if recorded["counters"].get(name, value) != value:
                errors.append(f"counter {name} = {value}, recorded {recorded['counters'][name]}")
        for name, digest in p.digests.items():
            if recorded["digests"].get(name) != digest:
                bad_ops.add(owner[name])
    for index in sorted(bad_ops):
        print(f"bench: op {index}: an artifact differs from its recorded SHA-256", file=sys.stderr)
    return sorted(set(errors)), bad_ops


def load_expected() -> Dict:
    if not EXPECTED.is_file():
        return {}
    with open(EXPECTED) as fh:
        return json.load(fh)


def record_expected(args, workload, passes: List[Pass]) -> None:
    if not workload.seed_free and args.seed != DEFAULT_SEED:
        raise SystemExit(f"bench: --record needs --seed {DEFAULT_SEED} for {workload.name}")
    counters = all_counters(passes)
    data = load_expected()
    data[workload.name] = {"seed": None if workload.seed_free else DEFAULT_SEED,
                           "counters": dict(sorted(counters.items())),
                           "digests": dict(sorted(passes[0].digests.items()))}
    with open(EXPECTED, "w") as fh:
        json.dump(dict(sorted(data.items())), fh, indent=1)
        fh.write("\n")


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import carlevel.cli
    from workloads import WORKLOADS

    carlevel.cli.build_parser()
    workload = WORKLOADS[args.workload]
    ops = workload.make_ops(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if args.record:
        args.trace = 1
    setup_s = 0.0 if args.trace else measure_setup(args)
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        passes = run_passes(args, workload, ops, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if args.record:
        record_expected(args, workload, passes)

    errors, bad_ops = consistency_errors(args, workload, passes, ops)
    for error in errors:
        print(f"bench: {error}", file=sys.stderr)
    attempted = len(ops) * len(passes)
    failed = sum(len(set(p.failed) | bad_ops) for p in passes)

    print(f"bench: workload {workload.name}, seed {args.seed}: {len(passes)} passes "
          f"({len(traced)} traced) of {len(ops)} ops, closed loop, one client; "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    print(f"bench: fail_rate {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")
    print("bench: exact counters " + " ".join(
        f"{k}={v}" for k, v in sorted(all_counters(passes).items())))
    if args.trace:
        metrics = per_layer(plain, traced, ops)
        write_spans(args, traced)
    else:
        metrics = end_to_end(plain, setup_s)
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else value if isinstance(value, int) else f"{value:.6g}"
        print(f"bench: {name} {shown} {unit}" + (f" (ops={sum(len(p.latencies) for p in plain)})"
                                                  if name == "op_p90_ms" else ""))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def write_spans(args, traced: List[Pass]) -> None:
    out = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump([p.tracer.dump() for p in traced], fh)


if __name__ == "__main__":
    sys.exit(main())
