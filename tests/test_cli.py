from __future__ import annotations

import csv
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import robustmax.cli
from robustmax import DcgConfig, ParseError, SetFunction
from robustmax.cli import CSV_HEADER, RunRecord, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_args(path, seed=7, nodes=9, edges=12, scenarios=2, sources=3, budget=14):
    return ["generate", "--nodes", str(nodes), "--edges", str(edges),
            "--scenarios", str(scenarios), "--sources", str(sources),
            "--budget", str(budget), "--seed", str(seed), "--out", str(path)]


class TestGenerate:
    def test_writes_instance_and_checksum(self, tmp_path, capsys):
        target = tmp_path / "a.txt"
        code, out, _ = run(capsys, *gen_args(target))
        assert code == 0
        assert target.exists()
        checksum = out.split()[0]
        assert len(checksum) == 64

    def test_same_flags_same_checksum(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        _, out_a, _ = run(capsys, *gen_args(a))
        _, out_b, _ = run(capsys, *gen_args(b))
        assert out_a.split()[0] == out_b.split()[0]
        assert a.read_bytes() == b.read_bytes()

    def test_parameter_error_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, *gen_args(tmp_path / "x.txt", sources=40, nodes=36))
        assert code == 2
        assert "error" in err

    def test_unwritable_path_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, *gen_args(tmp_path / "no-dir" / "x.txt"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("nodes, edges", [(3, 7), (1, 0)])
    def test_too_many_edges_exits_2(self, tmp_path, nodes, edges):
        # more edges than the n * (n - 1) directed pairs (a generated
        # instance has at least one); run in a child process with a timeout,
        # so a regression to the endless extra-edge loop fails instead of
        # hanging the suite
        target = tmp_path / "x.txt"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-m", "robustmax.cli",
             *gen_args(target, nodes=nodes, edges=edges, sources=1)],
            capture_output=True, text=True, timeout=30, env=env)
        assert done.returncode == 2
        assert "error" in done.stderr
        assert not target.exists()

    def test_zero_nodes_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, *gen_args(tmp_path / "x.txt", nodes=0, sources=1))
        assert code == 2
        assert "--nodes" in err

    def test_zero_edges_exits_2(self, tmp_path, capsys):
        target = tmp_path / "x.txt"
        code, _, err = run(capsys, *gen_args(target, edges=0))
        assert code == 2
        assert "--edges" in err
        assert not target.exists()

    def test_negative_edges_exits_2(self, tmp_path, capsys):
        target = tmp_path / "x.txt"
        code, _, err = run(capsys, *gen_args(target, edges=-1))
        assert code == 2
        assert "--edges" in err
        assert not target.exists()


class TestSolve:
    @pytest.fixture
    def instance_path(self, tmp_path, capsys):
        target = tmp_path / "inst.txt"
        assert main(gen_args(target)) == 0
        capsys.readouterr()
        return target

    def test_rsm_row_shape(self, instance_path, capsys):
        code, out, _ = run(capsys, "solve", str(instance_path),
                           "--alpha", "unit", "--reduce", "--stop-pt", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",") == CSV_HEADER
        row = next(csv.reader([lines[1]]))
        rec = RunRecord.from_csv_row(row)
        assert rec.mode == "rsm" and rec.reduce and rec.stop_pt == 2
        assert rec.status == "optimal" and rec.gap_pct == 0.0
        assert rec.lb == rec.eta <= rec.ub + 1e-9

    def test_default_row_reads_the_library_defaults(self, instance_path, capsys):
        # solve's flags take their defaults from DcgConfig, so the two cannot drift
        code, out, _ = run(capsys, "solve", str(instance_path))
        assert code == 0
        rec = RunRecord.from_csv_row(next(csv.reader([out.strip().splitlines()[1]])))
        defaults = DcgConfig()
        assert (rec.reduce, rec.stop_pt) == (defaults.reduce, defaults.stop_pt)
        args = robustmax.cli.build_parser().parse_args(["solve", str(instance_path)])
        assert args.epsilon == defaults.epsilon

    def test_rsm3_row_sandwich(self, instance_path, capsys):
        code, out, _ = run(capsys, "solve", str(instance_path), "--mode", "rsm3",
                           "--scenario-budget", "1")
        assert code == 0
        rec = RunRecord.from_csv_row(next(csv.reader([out.strip().splitlines()[1]])))
        assert rec.mode == "rsm3"
        assert rec.lb <= rec.ub + 1e-9

    def test_epsilon_row_keeps_sandwich(self, tmp_path, capsys):
        # a grid-family instance whose optimum is 10.8; with epsilon 1 the
        # solve stops at eta 10.0, and ub used to read 10.0 too
        path = tmp_path / "grid3.txt"
        assert main(gen_args(path, seed=3, nodes=12, edges=24, scenarios=5, sources=5,
                             budget=15)) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "solve", str(path), "--epsilon", "1")
        assert code == 0
        rec = RunRecord.from_csv_row(next(csv.reader([out.strip().splitlines()[1]])))
        assert rec.status == "optimal"
        assert rec.ub >= 10.8 and rec.ub == rec.eta + 1
        assert rec.gap_pct > 0

    def test_alpha_values_arity_error(self, instance_path, capsys):
        code, _, err = run(capsys, "solve", str(instance_path),
                           "--alpha", "values", "1", "2", "3")
        assert code == 2
        assert "alpha" in err

    def test_alpha_solve_mode(self, instance_path, capsys):
        code, out, _ = run(capsys, "solve", str(instance_path), "--alpha", "solve")
        assert code == 0
        rec = RunRecord.from_csv_row(next(csv.reader([out.strip().splitlines()[1]])))
        assert rec.eta <= 1.0 + 1e-9  # scaled by per-scenario optima

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_alpha_solve_runs_rsm3(self, instance_path, capsys, source):
        # scaling by per-scenario optima is the rsm3 pipeline, whether the
        # flag or the instance file asks for it; the row keeps mode rsm
        if source == "flag":
            argv = ["--alpha", "solve"]
        else:
            text = instance_path.read_text().replace("alpha unit", "alpha solve")
            instance_path.write_text(text)
            argv = []
        _, out, _ = run(capsys, "solve", str(instance_path), *argv)
        rec = RunRecord.from_csv_row(next(csv.reader([out.strip().splitlines()[1]])))
        _, out3, _ = run(capsys, "solve", str(instance_path), "--mode", "rsm3")
        rec3 = RunRecord.from_csv_row(next(csv.reader([out3.strip().splitlines()[1]])))
        assert rec.mode == "rsm" and rec3.mode == "rsm3"
        assert (rec.eta, rec.ub, rec.lb) == (rec3.eta, rec3.ub, rec3.lb)

    @pytest.mark.parametrize("flags", [
        ["--epsilon", "nan"], ["--epsilon", "inf"], ["--epsilon", "-1"],
        ["--time-limit", "-1"], ["--time-limit", "nan"],
        ["--mode", "rsm3", "--scenario-budget", "-1"],
        ["--mode", "rsm3", "--scenario-budget", "nan"],
    ])
    def test_malformed_settings_exit_2(self, instance_path, capsys, flags):
        code, out, err = run(capsys, "solve", str(instance_path), *flags)
        assert code == 2
        assert "error" in err and out == ""

    @pytest.mark.parametrize("flags", [
        ["--mode", "rsm3", "--alpha", "bogus"],
        ["--mode", "rsm3", "--alpha", "values", "1", "2", "3"],
        ["--mode", "rsm3", "--alpha", "unit"],
        ["--alpha", "unit", "1"],
        ["--mode", "rsm", "--alpha", "unit", "--scenario-budget", "-1"],
        ["--mode", "rsm", "--alpha", "unit", "--scenario-budget", "nan"],
        ["--jobs", "0"],
        ["--jobs", "-3"],
    ], ids=["rsm3-alpha-bogus", "rsm3-alpha-values", "rsm3-alpha-unit", "unit-with-values",
            "rsm-scenario-budget-negative", "rsm-scenario-budget-nan", "jobs-0", "jobs-negative"])
    def test_malformed_flags_exit_2_before_solving(self, instance_path, capsys,
                                                   monkeypatch, flags):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran despite a malformed flag")

        monkeypatch.setattr(robustmax.cli, "solve_robust", no_solve)
        monkeypatch.setattr(robustmax.cli, "solve_ratio_robust", no_solve)
        code, out, err = run(capsys, "solve", str(instance_path), *flags)
        assert code == 2
        assert "error" in err and out == ""

    @pytest.mark.parametrize("values", [["nan", "1"], ["inf", "1"], ["0", "1"]])
    def test_alpha_values_must_be_positive_and_finite(self, instance_path, capsys, values):
        code, out, err = run(capsys, "solve", str(instance_path), "--alpha", "values", *values)
        assert code == 2
        assert "alpha" in err and out == ""

    def test_csv_append_and_round_trip(self, instance_path, tmp_path, capsys):
        csv_path = tmp_path / "runs.csv"
        run(capsys, "solve", str(instance_path), "--csv", str(csv_path))
        run(capsys, "solve", str(instance_path), "--no-reduce", "--stop-pt", "0",
            "--csv", str(csv_path))
        with csv_path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 3
        for raw in rows[1:]:
            rec = RunRecord.from_csv_row(raw)
            assert rec.to_csv_row() == raw  # lossless round trip

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("nodes x\n")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_time_limit_run_exits_0_with_status_column(self, instance_path, capsys):
        code, out, _ = run(capsys, "solve", str(instance_path),
                           "--time-limit", "0")
        assert code == 0
        rec = RunRecord.from_csv_row(next(csv.reader([out.strip().splitlines()[1]])))
        assert rec.status == "time_limit"
        assert rec.lb <= rec.ub + 1e-9

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        paths = []
        for seed in (1, 2):
            p = tmp_path / f"i{seed}.txt"
            assert main(gen_args(p, seed=seed, nodes=7, edges=9)) == 0
            paths.append(str(p))
        capsys.readouterr()
        _, serial, _ = run(capsys, "solve", *paths)
        _, parallel, _ = run(capsys, "solve", *paths, "--jobs", "2")

        def strip_times(text):
            rows = [next(csv.reader([ln])) for ln in text.strip().splitlines()[1:]]
            return [[c for i, c in enumerate(row) if CSV_HEADER[i] != "time_s"]
                    for row in rows]

        assert strip_times(serial) == strip_times(parallel)


class TestVerify:
    @pytest.fixture
    def small_instances(self, tmp_path, capsys):
        paths = []
        for seed in (0, 1, 2):
            p = tmp_path / f"v{seed}.txt"
            assert main(gen_args(p, seed=seed, nodes=7, edges=10, budget=13)) == 0
            paths.append(str(p))
        capsys.readouterr()
        return paths

    def test_pass_on_seeded_instances(self, small_instances, capsys):
        code, out, _ = run(capsys, "verify", *small_instances)
        assert code == 0
        assert out.count("PASS") == len(small_instances)

    def test_zero_budget_passes(self, tmp_path, capsys):
        p = tmp_path / "zb.txt"
        assert main(gen_args(p, budget=0, nodes=6, edges=8)) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "verify", str(p))
        assert code == 0 and "PASS" in out

    def test_corrupt_hook_fails(self, small_instances, capsys, monkeypatch):
        brute_force = robustmax.cli.brute_force_robust

        def off_by_one(*args, **kwargs):
            eta, x = brute_force(*args, **kwargs)
            return eta + 1.0, x

        monkeypatch.setattr(robustmax.cli, "brute_force_robust", off_by_one)
        code, out, _ = run(capsys, "verify", small_instances[0])
        assert code == 1
        assert "FAIL" in out

    def test_unlawful_oracle_fails(self, small_instances, capsys, monkeypatch):
        build_oracles = robustmax.cli.Instance.build_oracles

        def one_supermodular(instance):
            fns = build_oracles(instance)
            fns[1] = SetFunction(fns[1].ground_size, lambda S: float(len(S) ** 2))
            return fns

        monkeypatch.setattr(robustmax.cli.Instance, "build_oracles", one_supermodular)
        code, out, _ = run(capsys, "verify", small_instances[0])
        assert code == 1
        assert out.startswith("FAIL") and "scenario 1 " in out

    def test_oversize_refused(self, tmp_path, capsys):
        p = tmp_path / "big.txt"
        assert main(gen_args(p, nodes=30, edges=40, sources=5)) == 0
        capsys.readouterr()
        code, _, err = run(capsys, "verify", str(p))
        assert code == 2
        assert "22" in err


class TestNonFiniteInstance:
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_nan_probability_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "nanprob.txt"
        assert main(gen_args(path)) == 0
        path.write_text(re.sub(r"^probs [^ ]+", "probs nan", path.read_text(), flags=re.M))
        capsys.readouterr()
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert "error" in err and "probabilities" in err and out == ""


class TestReport:
    def test_aggregates_means(self, tmp_path, capsys):
        csv_path = tmp_path / "runs.csv"
        records = [
            RunRecord("a", "rsm", True, 2, 1.0, 0.0, 3, 5, 2.0, 2.0, 2.0, "optimal"),
            RunRecord("b", "rsm", True, 2, 3.0, 0.0, 5, 7, 4.0, 4.0, 4.0, "optimal"),
            RunRecord("c", "rsm", False, 0, 2.0, 1.0, 9, 30, 1.0, 1.5, 1.0, "time_limit"),
        ]
        with csv_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            for rec in records:
                writer.writerow(rec.to_csv_row())
        out_path = tmp_path / "agg.csv"
        code, out, _ = run(capsys, "report", str(csv_path), "--out", str(out_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split()[:3] == ["mode", "reduce", "stop_pt"]
        true_row = next(ln for ln in lines if " true" in ln or ln.startswith("rsm   true"))
        assert "2.000" in true_row  # mean time of the two reduce runs
        assert "6.0" in true_row    # mean cuts
        with out_path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 3

    def test_bad_header_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n1\n")
        code, _, err = run(capsys, "report", str(bad))
        assert code == 2


class TestUsage:
    def test_unknown_mode_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "x.txt", "--mode", "bogus"])
        assert exc.value.code == 2

    def test_filter_dominated_flag_is_gone(self, capsys):
        # dominated cuts are always dropped; the flag is no longer accepted
        with pytest.raises(SystemExit) as exc:
            main(["solve", "x.txt", "--no-filter-dominated"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        assert "filter-dominated" not in capsys.readouterr().out


class TestErrorPath:
    """Every input or file error leaves main as exit 2 with ``error:`` on stderr."""

    @pytest.fixture
    def instance_path(self, tmp_path, capsys):
        target = tmp_path / "inst.txt"
        assert main(gen_args(target)) == 0
        capsys.readouterr()
        return target

    def test_unwritable_csv_exits_2(self, instance_path, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, _, err = run(capsys, "solve", str(instance_path), "--csv", str(target))
        assert code == 2
        assert "error" in err and str(target) in err

    def test_unwritable_report_out_exits_2(self, instance_path, tmp_path, capsys):
        csv_path = tmp_path / "runs.csv"
        assert run(capsys, "solve", str(instance_path), "--csv", str(csv_path))[0] == 0
        target = tmp_path / "missing" / "r.csv"
        code, _, err = run(capsys, "report", str(csv_path), "--out", str(target))
        assert code == 2
        assert "error" in err and str(target) in err

    def test_bad_report_value_names_the_file(self, tmp_path, capsys):
        row = RunRecord("a", "rsm", True, 2, 1.0, 0.0, 3, 5, 2.0, 2.0, 2.0, "optimal").to_csv_row()
        row[CSV_HEADER.index("time_s")] = "abc"
        bad = tmp_path / "bad.csv"
        with bad.open("w", newline="") as handle:
            csv.writer(handle).writerows([CSV_HEADER, row])
        code, out, err = run(capsys, "report", str(bad))
        assert code == 2
        assert f"error: {bad}:" in err and "abc" in err and out == ""

    @pytest.mark.parametrize("text", ["TRUE", "False", "1", ""])
    def test_report_bool_is_true_or_false(self, instance_path, tmp_path, capsys, text):
        # any other text used to read as false and regroup the row silently
        csv_path = tmp_path / "runs.csv"
        assert run(capsys, "solve", str(instance_path), "--csv", str(csv_path))[0] == 0
        with csv_path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        rows[1][CSV_HEADER.index("reduce")] = text
        with csv_path.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        code, out, err = run(capsys, "report", str(csv_path))
        assert code == 2
        assert f"error: {csv_path}:" in err and repr(text) in err and out == ""

    def test_oversized_report_field_exits_2(self, tmp_path, capsys):
        # the csv module refuses a field over its size limit with csv.Error
        row = RunRecord("a" * 200_000, "rsm", True, 2, 1.0, 0.0, 3, 5, 2.0, 2.0, 2.0,
                        "optimal").to_csv_row()
        bad = tmp_path / "huge.csv"
        with bad.open("w", newline="") as handle:
            csv.writer(handle).writerows([CSV_HEADER, row])
        code, _, err = run(capsys, "report", str(bad))
        assert code == 2
        assert f"error: {bad}:" in err

    def test_nan_alpha_value_names_the_alpha_line(self, instance_path, tmp_path, capsys):
        # float() reads nan, so Instance refuses it and the parser names the line
        lines = instance_path.read_text().splitlines()
        assert lines[-1].startswith("alpha ")
        bad = tmp_path / "nanalpha.txt"
        bad.write_text("\n".join(lines[:-1] + ["alpha values nan 1"]) + "\n")
        code, out, err = run(capsys, "solve", str(bad))
        assert code == 2 and out == ""
        assert err == f"error: line {len(lines)}: alpha values must be positive and finite\n"

    @pytest.mark.parametrize("flags", [("--mode", "rsm3"), ("--alpha", "solve")])
    def test_ratio_scaling_with_no_affordable_sensor_exits_2(self, tmp_path, capsys, flags):
        # every sensor costs more than the budget, so each scenario's optimum is 0
        target = tmp_path / "low.txt"
        assert main(gen_args(target, budget=3)) == 0
        capsys.readouterr()
        code, out, err = run(capsys, "solve", str(target), *flags)
        assert code == 2 and out == ""
        assert err == ("error: scenario 0 has a nonpositive incumbent value 0.0; "
                       "ratio scaling is undefined\n")

    def test_parse_error_from_a_worker_exits_2(self, instance_path, tmp_path, capsys):
        # a ParseError crosses the process boundary intact
        bad = tmp_path / "bad.txt"
        bad.write_text("nodes x\n")
        code, out, err = run(capsys, "solve", str(bad), str(instance_path), "--jobs", "2")
        assert code == 2
        assert "line 1" in err and out == ""

    def test_parse_error_in_a_later_file_names_its_line(self, instance_path, tmp_path, capsys):
        # the first file solves; the second file's error is re-raised from its
        # worker with the line number it carries
        lines = instance_path.read_text().splitlines()
        line_no = next(k for k, line in enumerate(lines, 1) if line.startswith("budget "))
        lines[line_no - 1] = "budget x"
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "solve", str(instance_path), str(bad), "--jobs", "2")
        assert code == 2 and out == ""
        assert err.startswith(f"error: line {line_no}: ")
        # the pickled form a worker sends back keeps both arguments
        exc = pickle.loads(pickle.dumps(ParseError(line_no, "non-integer budget")))
        assert (type(exc), exc.line_no, str(exc)) == \
            (ParseError, line_no, f"line {line_no}: non-integer budget")

    def test_report_row_with_a_missing_column_exits_2(self, tmp_path, capsys):
        row = RunRecord("a", "rsm", True, 2, 1.0, 0.0, 3, 5, 2.0, 2.0, 2.0, "optimal").to_csv_row()
        bad = tmp_path / "short.csv"
        with bad.open("w", newline="") as handle:
            csv.writer(handle).writerows([CSV_HEADER, row[:-1]])
        code, out, err = run(capsys, "report", str(bad))
        assert code == 2 and out == ""
        assert err == f"error: {bad}: expected 12 columns, found 11\n"


class TestRunRecord:
    def test_exact_row(self):
        rec = RunRecord("net.txt", "rsm3", False, 0, 0.25, 1.5, 7, 12, 1 / 3, 0.5, 0.1, "time_limit")
        assert rec.to_csv_row() == ["net.txt", "rsm3", "false", "0", "0.25", "1.5", "7", "12",
                                    "0.3333333333333333", "0.5", "0.1", "time_limit"]
        assert RunRecord.from_csv_row(rec.to_csv_row()) == rec

    def test_header_is_the_readme_column_list(self):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        columns = re.search(r"`(instance,[a-z_,]+)`", readme).group(1)
        assert CSV_HEADER == columns.split(",")
