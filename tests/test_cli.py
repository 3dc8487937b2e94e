import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import carlevel.candidate
import carlevel.cli
import carlevel.supersolution
from carlevel import CandidateParams, CarlesonSeq, LevelSetDP, candidate_eval
from carlevel.cli import main
from carlevel.sequences import MAX_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_known_boundary_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--C", "16/5", "--A", "16/5", "--lambda", "4")
        assert code == 0
        assert out.strip().splitlines()[-1] == "11/15"

    def test_echoes_resolved_config(self, capsys):
        _, out, _ = run(capsys, "eval", "--C", "2", "--A", "1", "--lambda", "2")
        assert "# config:" in out and "C=2" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "eval", "--C", "2", "--A", "1", "--lambda", "2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "1/2"
        assert doc["provenance"]["tool"] == "carlevel"

    def test_fixed_oracle_target(self, capsys):
        code, out, _ = run(capsys, "eval", "--A", "1/2", "--lambda", "1", "--target", "c1")
        assert code == 0
        assert out.strip().splitlines()[-1] == "1/2"

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "eval", "--C", "2", "--A", "nonsense", "--lambda", "1")
        assert code == 2
        code, _, err = run(capsys, "eval", "--C", "2", "--A", "5", "--lambda", "1")
        assert code == 2 and "error" in err

    def test_threshold_power_is_budgeted(self, capsys, monkeypatch):
        # at C = 16/5 each unit of threshold above 3 costs 5 bits: 2403 is the last one allowed
        code, out, _ = run(capsys, "eval", "--C", "16/5", "--A", "1", "--lambda", "2403")
        assert code == 0
        params = CandidateParams.from_constant(Fraction(16, 5))
        expected = candidate_eval(params, Fraction(1), Fraction(2403))
        assert Fraction(out.splitlines()[-1]) == expected

        def no_values(*args):
            raise AssertionError("a value was computed before the refusal")
        monkeypatch.setattr(carlevel.candidate, "candidate_eval", no_values)
        for lam in ("2404", "2403.5", "100000"):
            code, _, err = run(capsys, "eval", "--C", "16/5", "--A", "1", "--lambda", lam)
            assert code == 3, lam
            assert "resource limit" in err and "thresholds above 2403" in err


class TestConstructAndValidate:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        code, _, _ = run(capsys, "construct", "--A", "11/8", "--C", "2", "--depth", "4",
                         "--out", str(path))
        assert code == 0 and path.exists()
        seq = CarlesonSeq.from_json(path.read_text())
        assert str(seq.carleson_average(__import__("carlevel").ROOT)) == "11/8"
        code, out, _ = run(capsys, "validate", "--file", str(path), "--C", "2")
        assert code == 0
        assert "within C = 2: yes" in out

    def test_validate_flags_excess_with_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        chain = CarlesonSeq(2, [__import__("carlevel").NodeAddress(k, 0) for k in range(3)])
        path.write_text(chain.to_json())
        code, out, _ = run(capsys, "validate", "--file", str(path), "--C", "3/2")
        assert code == 1
        assert "witness level 0" in out and "NO" in out

    def test_validate_empty_selection(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(CarlesonSeq(3).to_json())
        code, out, _ = run(capsys, "validate", "--file", str(path), "--C", "1")
        assert code == 0
        assert "carleson constant: 0" in out

    def test_validate_parse_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format": "carleson-seq/1", "depth": 1, "selected": [[9]]}')
        code, _, err = run(capsys, "validate", "--file", str(path), "--C", "1")
        assert code == 2
        assert 'selected"[0]' in err

    def test_depth_is_budgeted(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "deep.json"
        code, _, _ = run(capsys, "construct", "--A", "1/2", "--C", "1",
                         "--depth", str(MAX_DEPTH), "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text())["selected"] == [[1, 1]]

        def no_sequence(*args):
            raise AssertionError("a sequence was built before the refusal")
        monkeypatch.setattr(CarlesonSeq, "__init__", no_sequence)
        monkeypatch.setattr(CarlesonSeq, "_from_levels", no_sequence)
        code, _, err = run(capsys, "construct", "--A", "1/2", "--C", "1",
                           "--depth", str(MAX_DEPTH + 1))
        assert code == 3 and "resource limit" in err
        path.write_text('{"format":"carleson-seq/1","depth":%d,"selected":[[0,0]]}'
                        % (MAX_DEPTH + 1))
        code, _, err = run(capsys, "validate", "--file", str(path), "--C", "1")
        assert code == 3 and "resource limit" in err

    def test_roof_is_budgeted(self, capsys, monkeypatch):
        # 65/4 selects 65,535 roof + 2^15 fractional addresses; a 17-level roof is too tall alone
        def no_sequence(*args):
            raise AssertionError("a sequence was built before the refusal")
        monkeypatch.setattr(CarlesonSeq, "__init__", no_sequence)
        monkeypatch.setattr(CarlesonSeq, "_from_levels", no_sequence)
        for a, depth in (("65/4", "18"), ("17", "17"), ("1000000", str(MAX_DEPTH))):
            code, _, err = run(capsys, "construct", "--A", a, "--C", "1000000",
                               "--depth", depth)
            assert code == 3, a
            assert "resource limit" in err and "construction budget of 65536" in err

    def test_partition_is_budgeted(self, capsys, monkeypatch):
        # depth + 1 addresses, each subtree sum about depth - level bits: at depth 2^16
        # the staircase peaked at 620 MB before this refusal
        def no_sequence(*args):
            raise AssertionError("a sequence was built before the refusal")
        monkeypatch.setattr(CarlesonSeq, "__init__", no_sequence)
        monkeypatch.setattr(CarlesonSeq, "_from_levels", no_sequence)
        for depth in (1 << 16, MAX_DEPTH):
            code, _, err = run(capsys, "construct", "--style", "partition", "--A", "1",
                               "--C", "1", "--depth", str(depth))
            assert code == 3, depth
            assert "resource limit" in err and "construction budget of 65536" in err

    def test_deep_sequence_validates_quickly(self, tmp_path):
        # each leaf weight is a 600,000-bit integer; canonicalizing the averages one
        # bit at a time is quadratic in the depth and ran far past this timeout
        path = tmp_path / "deep.json"
        path.write_text('{"format":"carleson-seq/1","depth":600000,"selected":[[0,0]]}')
        src = os.path.dirname(os.path.dirname(carlevel.candidate.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "carlevel.cli", "validate", "--file", str(path), "--C", "1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert "root average: 1\n" in proc.stdout

    def test_deep_staircase_constructs_and_validates_quickly(self, tmp_path):
        # depth + 1 addresses; summing each one into every ancestor took 93 s at this depth
        path = str(tmp_path / "staircase.json")
        script = ("import sys\nfrom carlevel.cli import main\n"
                  "sys.exit(main(['construct', '--style', 'partition', '--A', '1', '--C', '1',"
                  " '--depth', '8000', '--out', sys.argv[1]])"
                  " or main(['validate', '--file', sys.argv[1], '--C', '1']))")
        src = os.path.dirname(os.path.dirname(carlevel.candidate.__file__))
        proc = subprocess.run([sys.executable, "-c", script, path], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert "selected: 8001\nroot average: 1\n" in proc.stdout
        assert "within C = 1: yes" in proc.stdout

    def test_partition_style(self, capsys):
        code, out, _ = run(capsys, "construct", "--A", "1", "--C", "1", "--depth", "3",
                           "--style", "partition")
        assert code == 0
        doc = json.loads(out)
        assert [0, 0] not in doc["selected"]


class TestCheck:
    def test_candidate_passes_exit_0(self, capsys):
        code, out, _ = run(capsys, "check", "--C", "2", "--grid-exp", "4",
                           "--lambda-min", "-2", "--lambda-max", "6")
        assert code == 0
        assert "result: PASS" in out
        assert "coverage:" in out

    def test_counterexample_exit_1_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", "--target", "counterexample", "--C", "2",
                           "--grid-exp", "3", "--lambda-min", "-2", "--lambda-max", "4")
        assert code == 1
        assert "jump: " in out and "(0, 0), (1, 1)" in out and "0 < 1" in out

    def test_json_violations_artifact(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "check", "--target", "counterexample", "--C", "2",
                         "--grid-exp", "2", "--lambda-min", "-1", "--lambda-max", "2",
                         "--out", str(path), "--format", "json")
        assert code == 1
        doc = json.loads(path.read_text())
        assert doc["ok"] is False
        kinds = {v["kind"] for v in doc["violations"]}
        assert "jump" in kinds and "obstacle" not in kinds
        assert doc["violations"][0]["points"]

    def test_fixed_target_infers_bound(self, capsys):
        code, out, _ = run(capsys, "check", "--target", "c32", "--grid-exp", "3",
                           "--lambda-min", "-1", "--lambda-max", "5")
        assert code == 0
        code, _, err = run(capsys, "check", "--target", "c32", "--C", "2",
                           "--grid-exp", "3", "--lambda-min", "-1", "--lambda-max", "5")
        assert code == 2 and "16/5" in err


    def test_stdout_digests(self, capsys):
        # recorded before the four checks shared one tabulation per threshold
        cases = [
            (("--target", "counterexample", "--C", "7/3", "--grid-exp", "1", "--lambda-min", "-2",
              "--lambda-max", "4", "--lambda-extra", "1/3", "--format", "json"), 1, 194,
             "78bf77ca601368d990d87e40c76d2042e20b33cfba5c138565dbb7d0b82d7c3b"),
            (("--target", "candidate", "--C", "3/2", "--grid-exp", "0", "--lambda-extra=-1/2",
              "--lambda-extra", "5/2", "--format", "json"), 0, 33,
             "519295fc45f407f4dd0820c9885e0095c18d9c881a4b918115adb7d86bbc4fe1"),
            (("--target", "counterexample", "--C", "2", "--grid-exp", "2", "--lambda-min", "-1",
              "--lambda-max", "3"), 1, 10,
             "bacb8b0f76350758a722f81f2c4eab59ac622337364dd5170e9dcc688c7e4086"),
        ]
        for argv, exit_code, lines, digest in cases:
            code, out, _ = run(capsys, "check", *argv)
            assert (code, len(out.splitlines())) == (exit_code, lines), argv
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_candidate_reads_rows_from_the_kernel(self, capsys, monkeypatch):
        def no_points(*args):
            raise AssertionError("the closed form was evaluated point by point")
        monkeypatch.setattr(carlevel.candidate, "candidate_eval", no_points)
        monkeypatch.setattr(carlevel.cli, "candidate_eval", no_points)
        code, out, _ = run(capsys, "check", "--C", "16/5", "--grid-exp", "5",
                           "--lambda-extra", "7/2")
        assert code == 0 and "result: PASS" in out
        code, out, _ = run(capsys, "table", "--kind", "surface", "--C", "2", "--grid-exp", "2",
                           "--lambda-min", "1", "--lambda-max", "2")
        assert code == 0 and "1/2,1,1/2\n" in out

    def test_grid_is_budgeted(self, capsys, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a row was tabulated before the refusal")
        monkeypatch.setattr(carlevel.supersolution, "_threshold_checks", no_rows)
        for flags in (("--grid-exp", "60"), ("--lambda-max", str(10**12))):
            code, _, err = run(capsys, "check", "--C", "2", *flags)
            assert code == 3
            assert "resource limit" in err and "grid budget" in err

    def test_threshold_power_is_budgeted(self, capsys, monkeypatch):
        # 200,001 thresholds x 4 averages fit the grid budget, but not the exact powers
        def no_rows(*args):
            raise AssertionError("a row was tabulated before the refusal")
        monkeypatch.setattr(carlevel.supersolution, "_threshold_checks", no_rows)
        for flags in (("--lambda-max", "200000"), ("--lambda-extra", "4807/2")):
            code, _, err = run(capsys, "check", "--C", "16/5", "--grid-exp", "0",
                               "--lambda-min", "0", *flags)
            assert code == 3, flags
            assert "resource limit" in err and "thresholds above 2403" in err


class TestSearchAndTable:
    def test_search_reports_value_and_gap(self, capsys):
        code, out, _ = run(capsys, "search", "--C", "2", "--depth", "2", "--A", "2", "--m", "2")
        assert code == 0
        assert "value: 1" in out and "gap: 0" in out

    def test_search_convergence_and_witness(self, capsys, tmp_path):
        wpath = tmp_path / "witness.json"
        code, out, _ = run(capsys, "search", "--C", "2", "--depth", "5", "--A", "2",
                           "--m", "3", "--report-convergence", "5",
                           "--emit-witness", str(wpath))
        assert code == 0
        assert "depth value gap" in out
        seq = CarlesonSeq.from_json(wpath.read_text())
        assert seq.depth == 5

    def test_search_resource_cap_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("CARLEVEL_CELL_CAP", "5")
        code, _, err = run(capsys, "search", "--C", "2", "--depth", "8", "--A", "2", "--m", "4")
        assert code == 3
        assert "resource limit" in err

    def test_search_depth_refusals_fail_fast(self, capsys, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a row cell was computed before the refusal")
        monkeypatch.setattr(LevelSetDP, "_best", no_rows)
        monkeypatch.setattr(LevelSetDP, "_row", no_rows)
        argv = ("search", "--C", "2", "--depth", "30", "--A", "1", "--m", "3")
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "exceeds the configured limit 12" in err
        code, _, err = run(capsys, *argv, "--depth-limit", "40")
        assert code == 3
        assert "resource limit" in err

    def test_search_kernel_work_is_budgeted(self, capsys, monkeypatch):
        # the rows fit the default cell cap, but not the kernel work budget
        def no_rows(*args):
            raise AssertionError("a row was filled before the refusal")
        monkeypatch.setattr(LevelSetDP, "_row", no_rows)
        started = time.perf_counter()
        code, _, err = run(capsys, "search", "--C", "1", "--depth", "18", "--A", "1/2",
                           "--m", "1", "--depth-limit", "20")
        assert code == 3
        assert "resource limit" in err and "work budget" in err
        assert time.perf_counter() - started < 1

    def test_search_threshold_power_is_budgeted(self, capsys, monkeypatch):
        def no_values(*args):
            raise AssertionError("a value was computed before the refusal")
        monkeypatch.setattr(carlevel.cli, "candidate_eval", no_values)
        monkeypatch.setattr(LevelSetDP, "_best", no_values)
        monkeypatch.setattr(LevelSetDP, "_row", no_values)
        code, _, err = run(capsys, "search", "--C", "16/5", "--depth", "2", "--A", "1",
                           "--m", "2404")
        assert code == 3
        assert "resource limit" in err and "thresholds above 2403" in err

    def test_cell_cap_is_validated_where_it_is_used(self, capsys, monkeypatch):
        monkeypatch.setenv("CARLEVEL_CELL_CAP", "abc")
        code, out, _ = run(capsys, "eval", "--C", "2", "--A", "1", "--lambda", "1")
        assert code == 0 and out.strip().splitlines()[-1] == "1"
        code, _, err = run(capsys, "search", "--C", "2", "--depth", "2", "--A", "2", "--m", "2")
        assert code == 2 and "CARLEVEL_CELL_CAP must be an integer" in err
        monkeypatch.delenv("CARLEVEL_CELL_CAP")
        for cap in ("0", "-5"):
            code, _, err = run(capsys, "search", "--C", "2", "--depth", "2", "--A", "2",
                               "--m", "2", "--cell-cap", cap)
            assert code == 2 and "cell cap must be positive" in err

    def test_dp_table_output_is_budgeted(self, capsys, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a row cell was computed before the refusal")
        monkeypatch.setattr(LevelSetDP, "_best", no_rows)
        code, _, err = run(capsys, "table", "--kind", "dp", "--C", "2", "--depth", "2",
                           "--m-max", str(10**12))
        assert code == 3
        assert "resource limit" in err

    def test_dp_table_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--kind", "dp", "--C", "1",
                           "--depth", "3", "--m-max", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert "a,m,value" in lines
        data = [l for l in lines if not l.startswith("#") and l != "a,m,value"]
        assert all(l.split(",")[2] == "0" for l in data if l.split(",")[1] == "2")

    def test_surface_grid_is_budgeted(self, capsys, monkeypatch):
        def no_values(*args):
            raise AssertionError("a value was computed before the refusal")
        monkeypatch.setattr(carlevel.candidate, "candidate_eval", no_values)
        for flags in (("--grid-exp", "60"), ("--lambda-max", str(10**12))):
            code, _, err = run(capsys, "table", "--kind", "surface", "--C", "7", *flags)
            assert code == 3
            assert "resource limit" in err and "grid budget" in err
        # at C = 7 each unit of threshold above 7 costs 3 bits: 4007 is the last one allowed
        code, _, err = run(capsys, "table", "--kind", "surface", "--C", "7", "--grid-exp", "0",
                           "--lambda-max", "4008")
        assert code == 3
        assert "resource limit" in err and "thresholds above 4007" in err

    def test_surface_table_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--kind", "surface", "--C", "2",
                           "--grid-exp", "2", "--lambda-min", "-1", "--lambda-max", "4")
        assert code == 0
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert lines[0] == "A,lambda,value"
        assert len(lines) == 1 + 9 * 6
        assert "1/2,1,1/2" in lines


class TestConfigAndDeterminism:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("C = 16/5\nA = 16/5\nlambda = 4  # threshold\n")
        for flags in (("--config", str(cfg)), (f"--config={cfg}",)):
            code, out, _ = run(capsys, "eval", *flags)
            assert code == 0, flags
            assert out.strip().splitlines()[-1] == "11/15"

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("C = 2\nA = 2\nlambda = 3\n")
        code, out, _ = run(capsys, "eval", "--config", str(cfg), "--lambda", "2")
        assert code == 0
        assert out.strip().splitlines()[-1] == "1"

    def test_identical_config_gives_identical_artifacts(self, capsys, tmp_path):
        one, two = tmp_path / "a.json", tmp_path / "b.json"
        for path in (one, two):
            code, _, _ = run(capsys, "construct", "--A", "13/16", "--C", "1",
                             "--depth", "4", "--out", str(path))
            assert code == 0
        assert one.read_bytes() == two.read_bytes()

    def test_atomic_write_leaves_no_temp_files(self, capsys, tmp_path):
        out = tmp_path / "artifact.json"
        run(capsys, "construct", "--A", "1/2", "--C", "1", "--depth", "1",
            "--out", str(out))
        assert os.listdir(tmp_path) == ["artifact.json"]

    def test_abbreviated_flags_are_refused(self, capsys, tmp_path):
        # an abbreviation of --config used to parse and then be ignored
        cfg = tmp_path / "g.cfg"
        cfg.write_text("grid-exp = 1\n")
        code, _, err = run(capsys, "check", "--C", "2", "--conf", str(cfg))
        assert code == 2 and "unrecognized arguments: --conf" in err

    def test_missing_config_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--config", str(tmp_path / "nope.cfg"),
                           "--C", "2", "--A", "1", "--lambda", "1")
        assert code == 2

    def test_parser_is_built_once(self, capsys):
        first = carlevel.cli._parser()
        for _ in range(2):
            code, _, _ = run(capsys, "eval", "--C", "2", "--A", "1", "--lambda", "1")
            assert code == 0
        assert carlevel.cli._parser() is first

    def test_config_files_do_not_leak_between_calls(self, capsys, tmp_path):
        one, two = tmp_path / "one.cfg", tmp_path / "two.cfg"
        one.write_text("C = 16/5\ngrid-exp = 2\nlambda-extra = 1/2\ntarget = counterexample\n")
        two.write_text("C = 2\ngrid-exp = 1\n")
        code, out, _ = run(capsys, "check", "--config", str(one))
        assert code == 1
        assert "# config: C=16/5 format=text grid-exp=2 lambda-extra=1/2 lambda-max=8 " \
            "lambda-min=-2 target=counterexample\n" in out
        code, out, _ = run(capsys, "check", "--config", str(two))
        assert code == 0
        assert "# config: C=2 format=text grid-exp=1 lambda-max=8 lambda-min=-2 " \
            "target=candidate\n" in out
        # and a call without a config does not inherit either file's values
        code, _, err = run(capsys, "eval", "--lambda", "1")
        assert code == 2 and "--A" in err

    def test_shared_parser_prints_the_fresh_parser_help(self, capsys):
        argvs = [["--help"]] + [[name, "--help"] for name in
                                ("eval", "construct", "check", "search", "table", "validate")]
        fresh = []
        for argv in argvs:
            carlevel.cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        carlevel.cli._parser.cache_clear()
        for _ in range(2):
            assert [run(capsys, *argv) for argv in argvs] == fresh
        assert all(code == 0 and out for code, out, _ in fresh)
