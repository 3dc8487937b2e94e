"""Self-test of the benchmark's correctness gate: corrupted outputs must be reported.

Run from the repository root:

    python3 bench/selftest.py

Each case runs one small op of a workload, checks that the gate accepts the
real output, then hands the gate a corrupted copy and checks that it reports
an error.  The last cases feed the digest and counter checks mismatched
passes.  Exits 0 when every corruption is caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from collections import Counter
from fractions import Fraction
from typing import Callable, List

import run


def rewrite(name: str, edit: Callable[[str], str]) -> None:
    with open(name) as fh:
        text = fh.read()
    with open(name, "w") as fh:
        fh.write(edit(text))


def rewrite_json(name: str, edit: Callable[[dict], None]) -> None:
    def apply(text: str) -> str:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    rewrite(name, apply)


def last_row_value(text: str, value: str) -> str:
    lines = text.rstrip("\n").split("\n")
    a, m, _ = lines[-1].split(",")
    lines[-1] = f"{a},{m},{value}"
    return "\n".join(lines) + "\n"


def first_jump(doc: dict) -> dict:
    return next(v for v in doc["violations"] if v["kind"] == "jump")


def main() -> int:
    run.import_program()
    import workloads as wl

    failures: List[str] = []
    caught = 0

    def expect(label: str, workload, op, corrupt: Callable[[object], object]) -> None:
        """Run op, require a clean check, corrupt its output, require an error."""
        nonlocal caught
        result = workload.run(op)
        errors = workload.check(op, result, Counter())
        if errors:
            failures.append(f"{label}: the real output was rejected: {errors}")
            return
        corrupted = corrupt(result)
        try:
            errors = workload.check(op, result if corrupted is None else corrupted, Counter())
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            errors = [f"check raised {exc!r}"]
        if errors:
            caught += 1
        else:
            failures.append(f"{label}: the corrupted output was accepted")

    work = run.WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        table = wl.WORKLOADS["dp-table"]
        op = wl.Op(0, "table", {"C": Fraction(2), "depth": 4},
                   ["table", "--kind", "dp", "--C", "2", "--depth", "4", "--m-max", "4",
                    "--out", "t.csv"], 0, ["t.csv"])
        expect("dp-table value above 1", table, op,
               lambda r: rewrite("t.csv", lambda t: last_row_value(t, "3/2")))
        expect("dp-table exit code", table, op, lambda r: dict(r, code=3))

        search = wl.WORKLOADS["dp-search"]
        argv = ["search", "--C", "2", "--depth", "6", "--A", "3/4", "--m", "2",
                "--format", "json", "--report-convergence", "6", "--emit-witness", "w.json",
                "--out", "s.json"]
        op = wl.Op(0, "search", {"C": Fraction(2), "depth": 6, "A": Fraction(3, 4), "m": 2,
                                 "converge": True}, argv, 0, ["s.json", "w.json"])
        expect("dp-search witness missing an address", search, op,
               lambda r: rewrite_json("w.json", lambda d: d["selected"].pop()))
        expect("dp-search wrong value", search, op,
               lambda r: rewrite_json("s.json", lambda d: d.update(value="1/64")))
        expect("dp-search wrong convergence row", search, op, lambda r: rewrite_json(
            "s.json", lambda d: d["convergence"][-1].update(value="0")))
        refuse = wl.Op(1, "refuse", {}, argv[:-4] + ["--out", "r.json", "--cell-cap", "4"], 3, [])
        expect("dp-search refusal that answered", search, refuse,
               lambda r: dict(r, code=0, stderr=""))

        certify = wl.WORKLOADS["certify"]
        op = wl.Op(0, "counterexample", {"C": Fraction(2)},
                   ["check", "--target", "counterexample", "--C", "2", "--grid-exp", "4",
                    "--format", "json", "--out", "x.json"], 1, ["x.json"])
        expect("certify counterexample reported ok", certify, op,
               lambda r: rewrite_json("x.json", lambda d: d.update(ok=True)))
        expect("certify counterexample first violation moved", certify, op, lambda r: rewrite_json(
            "x.json", lambda d: first_jump(d).update(points=[["0", "1"], ["1", "2"]])))
        op = wl.Op(1, "candidate", {"C": Fraction(2)},
                   ["check", "--target", "candidate", "--C", "2", "--grid-exp", "4",
                    "--format", "json", "--out", "c.json"], 0, ["c.json"])
        expect("certify candidate with a violation", certify, op, lambda r: rewrite_json(
            "c.json", lambda d: d["violations"].append({"kind": "jump"})))
        op = wl.Op(2, "surface", {"C": Fraction(2), "grid_exp": 3, "lams": (-1, 4)},
                   ["table", "--kind", "surface", "--C", "2", "--grid-exp", "3",
                    "--lambda-min", "-1", "--lambda-max", "4", "--out", "f.csv"], 0, ["f.csv"])
        expect("certify surface value", certify, op,
               lambda r: rewrite("f.csv", lambda t: last_row_value(t, "1/3")))

        sequences = wl.WORKLOADS["sequences"]
        params = {"C": Fraction(2), "depth": 6, "density": 0.5, "rng_seed": 7, "cut": 3,
                  "lam": Fraction(3, 2), "seq_file": "q.json"}
        op = wl.Op(0, "sequence", params, ["validate", "--file", "q.json", "--C", "2",
                                           "--format", "json", "--out", "v.json"], 0, ["v.json"])

        def drop_address(r):
            doc = json.loads(r["text"])
            doc["selected"].pop()
            return dict(r, text=json.dumps(doc))

        expect("sequences JSON that does not round-trip", sequences, op, drop_address)
        expect("sequences level sets", sequences, op,
               lambda r: dict(r, levels=r["levels"][:-1] + r["levels"][:1]))
        expect("sequences truncation", sequences, op, lambda r: dict(r, cut=r["seq"]))
        expect("sequences validate report", sequences, op, lambda r: rewrite_json(
            "v.json", lambda d: d.update(carleson_constant="5/2")))
        expect("sequences construction", sequences, op, lambda r: dict(r, built=r["cut"]))

        # Digests and counters: passes that disagree, and a recorded digest that differs.
        args = run.parse_args(["--workload", "dp-table", "--seed", "0"])
        good = run.Pass(traced=False, digests={"t.csv": "a"}, counters=Counter({"extremal.cells": 5}))
        other = copy.deepcopy(good)
        other.digests["t.csv"] = "b"
        other.counters["extremal.cells"] = 6
        op = wl.Op(0, "table", {}, [], 0, ["t.csv"])
        saved = run.load_expected
        try:
            run.load_expected = lambda: {}
            errors, _ = run.consistency_errors(args, table, [good, other], [op])
            run.load_expected = lambda: {
                "dp-table": {"seed": None, "counters": {}, "digests": {"t.csv": "c"}}}
            _, bad = run.consistency_errors(args, table, [good], [op])
        finally:
            run.load_expected = saved
        for needle in ("digests differ", "counters differ"):
            if any(needle in e for e in errors):
                caught += 1
            else:
                failures.append(f"passes whose {needle.split()[0]} differ were accepted")
        if bad == {0}:
            caught += 1
        else:
            failures.append("an artifact with the wrong SHA-256 was accepted")
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(work, ignore_errors=True)

    for failure in failures:
        print(f"selftest: FAIL {failure}", file=sys.stderr)
    print(f"selftest: {caught} corruptions caught, {len(failures)} missed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
