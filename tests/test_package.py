import importlib.util
import subprocess
import sys
from pathlib import Path

import carlevel
import carlevel.candidate
import carlevel.construct
import carlevel.dyadic
import carlevel.extremal
import carlevel.sequences

# Spellings that duplicated a method, an operator, the standard library or another name.
REMOVED = {
    carlevel.dyadic: ("Rational", "DYADIC_ZERO", "DYADIC_ONE", "gr_compare", "children",
                      "is_ancestor", "relative_measure", "compare", "ceil_rational",
                      "floor_rational"),
    carlevel.DyadicRational: ("parse", "from_fraction", "log2_denominator"),
    carlevel.construct: ("_fractional_addresses",),
    carlevel.LevelSetDP: ("_shift",),
    carlevel.candidate: ("BellmanPoint", "require_grid_budget"),
    carlevel.NodeAddress: ("relative_measure",),
    carlevel.CarlesonSeq: ("subtree_units", "alpha_children"),
    carlevel.sequences: ("carleson_average", "alpha_children", "sparse_generations",
                         "generation_measure", "height_at", "level_set_measure", "truncate"),
    carlevel.extremal: ("DPKey", "DPCell", "DPTable", "reconstruct_witness",
                        "default_cell_cap", "dp_max_levelset", "dp_table",
                        "convergence_report"),
}


def test_public_surface():
    names = carlevel.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from carlevel import *", namespace)
    assert set(names) <= set(namespace)
    assert "run_all_checks" in names
    for owner, removed in REMOVED.items():
        for name in removed:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
            assert not hasattr(carlevel, name), name
    assert not hasattr(carlevel.CandidateParams.from_constant(2), "frac_c")


def test_bench_entry_points_resolve():
    # the benchmark's tracer wraps these names; a missing one makes its metrics absent
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, dotted, _ in spans.SPANS + spans.COUNTED:
        owner = importlib.import_module(module_name)
        for part in dotted.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{dotted}"


def test_bench_gate_selftest_passes():
    # the benchmark's correctness gate calls the library (as_fraction, selected, level);
    # a change that breaks one of those calls fails here, not only in a benchmark run
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " 0 missed" in proc.stdout, proc.stdout
