"""Command-line interface: eval, construct, check, search, table, validate.

Exit codes: 0 success, 1 the run completed but found violations (check,
validate), 2 usage or input error, 3 resource cap exceeded.  Rationals
cross the boundary as exact strings ("16/5", "3.2", "7"); artifacts are
written atomically and embed a provenance block with no timestamps, so
identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .candidate import (
    CandidateParams,
    CheckGrid,
    candidate_c1,
    candidate_c2,
    candidate_c32,
    candidate_eval,
    candidate_fn,
    candidate_row,
    candidate_surface,
    require_power_budget,
)
from .construct import construct_admissible
from .dyadic import parse_rational
from .errors import AdmissibilityError, PrecisionError, ResourceLimitError
from .extremal import CELL_CAP_ENV, DEFAULT_CELL_CAP, DEFAULT_DEPTH_LIMIT, LevelSetDP
from .sequences import CarlesonSeq, ValidationReport, carleson_constant
from .supersolution import CheckSummary, obstacle_indicator, run_all_checks

PROG = "carlevel"


# -- plumbing ---------------------------------------------------------------


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".carlevel-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _options(args: argparse.Namespace) -> Dict[str, str]:
    """The invocation's parameters as strings, sorted by name.

    Destination paths stay out of it so an artifact's bytes depend only on
    the computation it records, never on where it lands."""
    skip = {"command", "func", "config", "out", "emit_witness"}
    options = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        if isinstance(value, (list, tuple)):
            options[key.replace("_", "-")] = ",".join(str(v) for v in value)
        else:
            options[key.replace("_", "-")] = str(value)
    return options


def _provenance(args: argparse.Namespace, extra: Optional[Dict[str, str]] = None) -> Dict:
    info = {"tool": PROG, "version": __version__,
            "command": args.command, "config": _options(args)}
    if extra:
        info.update(extra)
    return info


def _header_lines(args: argparse.Namespace, extra: Optional[Dict[str, str]] = None) -> List[str]:
    opts = " ".join(f"{k}={v}" for k, v in _options(args).items())
    lines = [f"# {PROG} {__version__}", f"# command: {args.command}", f"# config: {opts}"]
    for key, value in (extra or {}).items():
        lines.append(f"# {key}: {value}")
    return lines


def validate_file(path: str, C: Optional[Fraction] = None) -> Tuple[CarlesonSeq, ValidationReport]:
    """Load a sequence JSON file and validate it against the bound C."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    seq = CarlesonSeq.from_json(text)
    return seq, carleson_constant(seq, C)


def load_config_file(path: str) -> Dict[str, str]:
    """Key-value config: one "name = value" per line, # comments allowed."""
    values: Dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'name = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


# -- targets -----------------------------------------------------------------


# name -> (oracle, the C it is defined for); a target without a C takes --C
TARGETS: Dict[str, Tuple[Optional[Callable], Optional[Fraction]]] = {
    "candidate": (None, None),
    "c1": (candidate_c1, Fraction(1)),
    "c2": (candidate_c2, Fraction(2)),
    "c32": (candidate_c32, Fraction(16, 5)),
    "counterexample": (obstacle_indicator, None),
}


def resolve_target(name: str, C: Optional[Fraction]) -> Tuple[Callable, Fraction]:
    """Map a target name to an (avg, lam) callable and the grid bound to use."""
    if name not in TARGETS:
        raise ValueError(f"unknown target {name!r}")
    fn, implied = TARGETS[name]
    if implied is not None:
        if C is not None and C != implied:
            raise ValueError(f"target {name!r} is defined for C = {implied}, got C = {C}")
        return fn, implied
    if C is None:
        raise ValueError(f"target {name!r} requires --C")
    if name == "candidate":
        return candidate_fn(CandidateParams.from_constant(C)), C
    return fn, C


# -- subcommands ---------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    fn, bound = resolve_target(args.target, args.C)
    require_power_budget(bound, args.lam)
    value = fn(args.A, args.lam)
    if args.format == "json":
        doc = {"provenance": _provenance(args), "value": str(value)}
        _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    else:
        lines = _header_lines(args) + [str(value)]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    seq = construct_admissible(args.A, args.C, args.depth, style=args.style)
    doc = seq.to_json_dict()
    doc["provenance"] = _provenance(args)
    _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    return 0


def _violations_json(summary: CheckSummary) -> List[Dict]:
    out = []
    for v in summary.all_violations():
        out.append({
            "kind": v.kind,
            "points": [[str(a), str(lam)] for a, lam in v.points],
            "lhs": str(v.lhs),
            "rhs": str(v.rhs),
        })
    return out


def cmd_check(args: argparse.Namespace) -> int:
    fn, bound = resolve_target(args.target, args.C)
    grid = CheckGrid.build(bound, args.grid_exp, args.lambda_min, args.lambda_max,
                           extra_lambdas=args.lambda_extra or ())
    # the closed form's rows come exact from its kernel, never point by point
    rows = (partial(candidate_row, CandidateParams.from_constant(bound))
            if args.target == "candidate" else None)
    summary = run_all_checks(fn, grid, rows=rows)
    doc = {
        "provenance": _provenance(args, {"grid": grid.describe()}),
        "target": args.target,
        "C": str(bound),
        "ok": summary.ok,
        "violations": _violations_json(summary),
        "coverage": {k: summary.coverage[k] for k in sorted(summary.coverage)},
    }
    rendered_json = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        _write_atomic(args.out, rendered_json)
    if args.format == "json":
        sys.stdout.write(rendered_json + "\n")
    else:
        lines = _header_lines(args, {"grid": grid.describe()})
        for name, found in (("obstacle", summary.obstacle), ("concavity", summary.concavity),
                            ("jump", summary.jump), ("main", summary.main)):
            if found:
                first = found[0]
                pts = ", ".join(f"({a}, {lam})" for a, lam in first.points)
                lines.append(f"{name}: {len(found)} violation(s); first at {pts} "
                             f"with {first.lhs} < {first.rhs}")
            else:
                lines.append(f"{name}: ok")
        cov = " ".join(f"{k}={summary.coverage[k]}" for k in sorted(summary.coverage))
        lines.append(f"coverage: {cov}")
        lines.append("result: PASS" if summary.ok else "result: FAIL")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if summary.ok else 1


def cmd_search(args: argparse.Namespace) -> int:
    engine = LevelSetDP(args.C, cell_cap=args.cell_cap, depth_limit=args.depth_limit)
    require_power_budget(engine.C, args.m)
    value, witness = engine.max_levelset(args.depth, args.A, args.m)
    target = candidate_eval(engine.params, args.A, args.m)
    gap = target - value
    rows = None
    if args.report_convergence is not None:
        rows = engine.convergence(args.A, args.m, args.report_convergence)
    if args.emit_witness:
        doc = witness.to_json_dict()
        doc["provenance"] = _provenance(args)
        _write_atomic(args.emit_witness, json.dumps(doc, sort_keys=True, indent=2))
    if args.format == "json":
        doc = {
            "provenance": _provenance(args),
            "value": str(value),
            "closed_form": str(target),
            "gap": str(gap),
        }
        if rows is not None:
            doc["convergence"] = [
                {"depth": r.depth, "value": str(r.value), "gap": str(r.gap)} for r in rows]
        _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    else:
        lines = _header_lines(args)
        lines.append(f"value: {value}")
        lines.append(f"closed-form bound: {target}")
        lines.append(f"gap: {gap}")
        if rows is not None:
            lines.append("depth value gap")
            for r in rows:
                lines.append(f"{r.depth} {r.value} {r.gap}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    lines = _header_lines(args)
    if args.kind == "dp":
        engine = LevelSetDP(args.C, cell_cap=args.cell_cap, depth_limit=args.depth_limit)
        lines.append("a,m,value")
        for avg, m, value in engine.table(args.depth, args.m_max):
            lines.append(f"{avg},{m},{value}")
    else:
        grid = CheckGrid.build(args.C, args.grid_exp, args.lambda_min, args.lambda_max)
        lines.append("A,lambda,value")
        for avg, lam, value in candidate_surface(grid):
            lines.append(f"{avg},{lam},{value}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    seq, report = validate_file(args.file, args.C)
    gens = seq.sparse_generations()
    gen_measures = [str(seq.generation_measure(m)) for m in range(len(gens))]
    level_sets = [str(seq.level_set_measure(m)) for m in range(0, len(gens) + 2)]
    ok = bool(report.is_c_carleson)
    if args.format == "json":
        doc = {
            "provenance": _provenance(args),
            "depth": seq.depth,
            "selected_count": len(seq.selected),
            "root_average": str(report.average_at_root),
            "carleson_constant": str(report.carleson_constant),
            "C": str(args.C),
            "is_c_carleson": ok,
            "worst_witness": [report.worst_witness.level, report.worst_witness.index],
            "generation_measures": gen_measures,
            "level_sets": level_sets,
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    else:
        w = report.worst_witness
        lines = _header_lines(args)
        lines.append(f"depth: {seq.depth}")
        lines.append(f"selected: {len(seq.selected)}")
        lines.append(f"root average: {report.average_at_root}")
        lines.append(f"carleson constant: {report.carleson_constant} "
                     f"(witness level {w.level}, index {w.index})")
        lines.append(f"within C = {args.C}: {'yes' if ok else 'NO'}")
        lines.append("generation measures: " + (" ".join(gen_measures) or "(none)"))
        lines.append("level sets V_m, m >= 0: " + " ".join(level_sets))
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


# -- parser --------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, formats: Sequence[str] = ("text", "json")) -> None:
    sub.add_argument("--config", help="key-value file supplying defaults for flags")
    sub.add_argument("--format", choices=list(formats), default=formats[0])
    sub.add_argument("--out", help="write the artifact to this path (atomically)")


def build_parser() -> argparse.ArgumentParser:
    # flags must be spelled in full: an abbreviated --config would parse and do nothing
    parser = argparse.ArgumentParser(
        prog=PROG, allow_abbrev=False,
        description="exact level-set bounds for dyadic Carleson selections")
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    add_parser = partial(parser.add_subparsers(dest="command", required=True).add_parser,
                         allow_abbrev=False)

    p = add_parser("eval", help="evaluate the closed-form bound at one point")
    p.add_argument("--C", type=parse_rational)
    p.add_argument("--A", type=parse_rational, required=True)
    p.add_argument("--lambda", dest="lam", type=parse_rational, required=True)
    p.add_argument("--target", default="candidate", choices=list(TARGETS))
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = add_parser("construct", help="build a sequence with a prescribed average")
    p.add_argument("--A", type=parse_rational, required=True)
    p.add_argument("--C", type=parse_rational, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--style", choices=["roof", "partition"], default="roof")
    _add_common(p, formats=("json",))
    p.set_defaults(func=cmd_construct)

    p = add_parser("check", help="run the supersolution grid certificates")
    p.add_argument("--C", type=parse_rational)
    p.add_argument("--grid-exp", type=int, default=6)
    p.add_argument("--lambda-min", type=int, default=-2)
    p.add_argument("--lambda-max", type=int, default=8)
    p.add_argument("--lambda-extra", type=parse_rational, action="append")
    p.add_argument("--target", default="candidate", choices=list(TARGETS))
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = add_parser("search", help="exact extremal search at a fixed depth")
    p.add_argument("--C", type=parse_rational, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--A", type=parse_rational, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--report-convergence", type=int, metavar="DMAX")
    p.add_argument("--emit-witness", metavar="PATH")
    p.add_argument("--cell-cap", type=int, help=f"row-cell budget (default ${CELL_CAP_ENV} or "
                                                f"{DEFAULT_CELL_CAP})")
    p.add_argument("--depth-limit", type=int, default=DEFAULT_DEPTH_LIMIT)
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = add_parser("table", help="export a value table as CSV")
    p.add_argument("--kind", choices=["dp", "surface"], default="dp")
    p.add_argument("--C", type=parse_rational, required=True)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--grid-exp", type=int, default=4)
    p.add_argument("--lambda-min", type=int, default=-1)
    p.add_argument("--lambda-max", type=int, default=8)
    p.add_argument("--cell-cap", type=int)
    p.add_argument("--depth-limit", type=int, default=DEFAULT_DEPTH_LIMIT)
    _add_common(p, formats=("csv",))
    p.set_defaults(func=cmd_table)

    p = add_parser("validate", help="validate a sequence JSON file")
    p.add_argument("--file", required=True)
    p.add_argument("--C", type=parse_rational, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    return parser


def _apply_config(argv: List[str]) -> List[str]:
    """Expand --config FILE or --config=FILE into flags inserted after the subcommand token."""
    for idx, token in enumerate(argv):
        if token.startswith("--config="):
            path = token[len("--config="):]
            break
        if token == "--config" and idx + 1 < len(argv):
            path = argv[idx + 1]
            break
    else:
        return argv  # no config, or a missing value that argparse reports
    values = load_config_file(path)
    if not argv or argv[0].startswith("-"):
        raise ValueError("--config needs a subcommand")
    injected: List[str] = []
    for key, value in values.items():
        injected.extend([f"--{key}", value])
    return [argv[0]] + injected + argv[1:]


# built on first use and shared by every main() call: parsing leaves no state in it
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except (ValueError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"{PROG}: resource limit: {exc}", file=sys.stderr)
        return 3
    except (AdmissibilityError, PrecisionError, ValueError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
