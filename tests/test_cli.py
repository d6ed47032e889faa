import csv
import json
import math
import os

import pytest

from nsbox.cli import frontier_report_from_json, frontier_report_to_json, main
from nsbox.causality import frontier_scan
from nsbox.signalling import report_from_json

Q = math.sqrt(2.0) / 2.0


def run(argv):
    return main(argv)


class TestSimulateSignalling:
    def test_pr_defaults_signal(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(
            [
                "simulate-signalling",
                "--C", "1.0",
                "--N", "12",
                "--reps", "2000",
                "--sigma", "0.1",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "seed: 7" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["schema_version"] == "1"
        assert data["report"]["verdict"] == "signalling"
        # round-trip into the originating type
        report = report_from_json(data["report"])
        assert report.advantage == data["report"]["advantage"]

    def test_critical_point_not_signalling(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            [
                "simulate-signalling",
                "--C", "0.5",
                "--N", "8",
                "--reps", "4096",
                "--sigma", "0.05",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["report"]["verdict"] in ("no_signalling", "inconclusive")

    def test_dump_batches(self, tmp_path):
        out = tmp_path / "report.json"
        dump = tmp_path / "batches.csv"
        code = run(
            [
                "simulate-signalling",
                "--C", "1.0",
                "--N", "4",
                "--reps", "64",
                "--sigma", "0.0",
                "--group-size", "8",
                "--seed", "5",
                "--out", str(out),
                "--dump-batches", str(dump),
            ]
        )
        assert code == 0
        lines = dump.read_text().strip().split("\n")
        assert lines[0] == "batch_index,strategy,N,A,B,Bprime,noisyB,noisyBprime,seed"
        assert len(lines) == 1 + 2 * 64
        strategies = {line.split(",")[1] for line in lines[1:]}
        assert strategies == {"always_a", "always_aprime"}

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_artifacts_follow_umask(self, tmp_path, umask):
        out = tmp_path / "report.json"
        dump = tmp_path / "batches.csv"
        previous = os.umask(umask)
        try:
            code = run(
                [
                    "simulate-signalling", "--N", "4", "--reps", "64", "--seed", "5",
                    "--out", str(out), "--dump-batches", str(dump),
                ]
            )
        finally:
            os.umask(previous)
        assert code == 0
        for path in (out, dump):
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_invalid_fields_all_reported(self, capsys):
        code = run(
            [
                "simulate-signalling",
                "--C", "1.5",
                "--N", "-3",
                "--sigma", "-1",
                "--seed", "1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'C'" in err
        assert "'N'" in err
        assert "'sigma'" in err

    def test_missing_config_file(self, capsys):
        code = run(["simulate-signalling", "--config", "/nonexistent/path.json"])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate_signalling": {"repse": 100, "seed": 1}}))
        code = run(["simulate-signalling", "--config", str(cfg)])
        assert code == 2
        assert "'repse'" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "simulate_signalling": {
                        "C": 1.0,
                        "N": 4,
                        "reps": 100,
                        "sigma": 0.0,
                        "group_size": 10,
                        "seed": 11,
                    }
                }
            )
        )
        out = tmp_path / "r.json"
        code = run(
            ["simulate-signalling", "--config", str(cfg), "--reps", "200", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["config"]["reps"] == 200  # flag wins
        assert data["config"]["N"] == 4  # file value survives

    def test_seed_determinism(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(
                [
                    "simulate-signalling",
                    "--C", "0.8",
                    "--N", "8",
                    "--reps", "512",
                    "--sigma", "0.1",
                    "--seed", "123",
                    "--out", str(out),
                ]
            )
            outs.append(json.loads(out.read_text()))
        assert outs[0] == outs[1]

    def test_io_failure(self, capsys):
        code = run(
            [
                "simulate-signalling",
                "--C", "1.0",
                "--N", "4",
                "--reps", "64",
                "--seed", "1",
                "--out", "/nonexistent/dir/report.json",
            ]
        )
        assert code == 3

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run(
            [
                "simulate-signalling",
                "--C", "1.0",
                "--N", "8",
                "--reps", "128",
                "--sigma", "0.0",
                "--seed", "2",
                "--format", "csv",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "C,N,R,sigma,detector,advantage,ci_low,ci_high,n_used,verdict"
        assert len(lines) == 2
        assert lines[1].startswith("1,8,128,0,cov,")


class TestVerifyBounds:
    def test_quantum_table(self, tmp_path, capsys):
        out = tmp_path / "bounds.json"
        code = run(
            ["verify-bounds", "--table", str(Q), str(Q), str(Q), str(-Q), "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["causality_ok"] is True
        assert data["tsirelson_ok"] is True
        assert abs(data["causality_lhs"] - 4.0) < 1e-12
        assert abs(data["lower_bound_a"] - math.sqrt(2)) < 1e-12
        assert data["budget_total"] == 4.0

    def test_pr_table_not_causal(self, capsys):
        code = run(["verify-bounds", "--table", "1", "1", "1", "-1"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["causality_ok"] is False
        assert data["tsirelson_ok"] is False
        assert data["chsh"] == 4.0

    def test_malformed_entry(self, capsys):
        code = run(["verify-bounds", "--table", "1.5", "0", "0", "0"])
        assert code == 2
        assert "[-1, 1]" in capsys.readouterr().err

    def test_table_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verify_bounds": {"table": [0.5, 0.5, 0.5, -0.5], "N": 4}}))
        code = run(["verify-bounds", "--config", str(cfg)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["budget_total"] == 1.0

    def test_csv_format(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = run(
            ["verify-bounds", "--table", "1", "1", "1", "-1", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["chsh"] == "4.0"
        assert rows[0]["causality_ok"] == "False"


class TestScanFrontier:
    def test_default_scan(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        summary = tmp_path / "summary.json"
        code = run(
            ["scan-frontier", "--resolution", "10001", "--out", str(out), "--summary", str(summary)]
        )
        assert code == 0
        data = json.loads(summary.read_text())
        assert abs(data["max_chsh"] - 2 * math.sqrt(2)) < 1e-6
        restored = frontier_report_from_json(data)
        assert restored.max_chsh == data["max_chsh"]
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 10001
        assert {"x", "y", "chsh", "causality_margin"} == set(rows[0])

    def test_symmetric_mode(self, capsys):
        code = run(["scan-frontier", "--resolution", "10001", "--symmetric"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["critical_c"] - Q) < 1e-6

    def test_low_resolution_rejected(self, capsys):
        assert run(["scan-frontier", "--resolution", "5"]) == 2

    def test_json_format_writes_summary_to_out(self, tmp_path):
        out = tmp_path / "summary.json"
        code = run(
            ["scan-frontier", "--resolution", "101", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["command"] == "scan-frontier"

    def test_round_trip_helpers(self):
        report = frontier_scan(101, symmetric=True)
        assert frontier_report_from_json(frontier_report_to_json(report)) == report


class TestCouplings:
    def test_scalar_pair(self, tmp_path):
        out = tmp_path / "couplings.json"
        code = run(["couplings", "--C", "0.8", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["bounds"]["under_a"]["max_disagree"] == pytest.approx(0.2, abs=1e-12)
        assert data["validation"]["under_a"] is True
        assert len(data["couplings"]["under_a"]["pmf"]) == 8

    def test_pr_limit(self, capsys):
        code = run(["couplings", "--C", "1"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        pmf = data["couplings"]["under_a"]["pmf"]
        assert pmf[0] == 0.5 and pmf[7] == 0.5

    def test_negative_targets(self, capsys):
        code = run(["couplings", "--targets", "-0.2", "-0.2"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bounds"]["max_disagree"] == pytest.approx(1 - 0.2, abs=1e-12)
        assert data["validation"]["min_disagree"] is True

    def test_out_of_range(self, capsys):
        assert run(["couplings", "--C", "1.2"]) == 2

    def test_csv_format(self, tmp_path):
        out = tmp_path / "couplings.csv"
        code = run(["couplings", "--C", "1", "--format", "csv", "--out", str(out)])
        assert code == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 16  # 8 cells per arm
        assert set(rows[0]) == {"arm", "i", "j", "jp", "probability"}


class TestExport:
    def _make_run(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for c, name in [(1.0, "pr"), (0.5, "half")]:
            run(
                [
                    "simulate-signalling",
                    "--C", str(c),
                    "--N", "8",
                    "--reps", "256",
                    "--sigma", "0.0",
                    "--group-size", "8",
                    "--seed", "9",
                    "--out", str(run_dir / f"{name}.json"),
                    "--dump-batches", str(run_dir / f"batches_{name}.csv"),
                ]
            )
        return run_dir

    def test_export_produces_curve_and_histograms(self, tmp_path):
        run_dir = self._make_run(tmp_path)
        out_dir = tmp_path / "export"
        code = run(["export", "--run-dir", str(run_dir), "--out-dir", str(out_dir)])
        assert code == 0
        curve = out_dir / "advantage_curve.csv"
        assert curve.exists()
        with open(curve) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert [float(r["C"]) for r in rows] == [0.5, 1.0]
        hist = out_dir / "hist_batches_pr.csv"
        assert hist.exists()

    def test_pr_histogram_diag_support(self, tmp_path):
        run_dir = self._make_run(tmp_path)
        out_dir = tmp_path / "export"
        run(["export", "--run-dir", str(run_dir), "--out-dir", str(out_dir)])
        with open(out_dir / "hist_batches_pr.csv") as handle:
            rows = list(csv.DictReader(handle))
        # anti-correlated arm: B + B' identically 0; correlated arm spreads
        ap_values = {float(r["value"]) for r in rows if r["strategy"] == "always_aprime"}
        a_values = {float(r["value"]) for r in rows if r["strategy"] == "always_a"}
        assert ap_values == {0.0}
        assert len(a_values) > 1
        # support on the even lattice of 2A only
        for value in a_values:
            assert (value * 8 / 2) == round(value * 8 / 2)

    def test_relative_dump_path_reaches_export(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "runs").mkdir()
        run(
            [
                "simulate-signalling", "--N", "4", "--reps", "64", "--group-size", "8",
                "--seed", "5", "--out", "runs/r.json", "--dump-batches", "runs/b.csv",
            ]
        )
        assert json.loads((tmp_path / "runs/r.json").read_text())["batches_csv"] == "b.csv"
        code = run(["export", "--run-dir", "runs", "--out-dir", "csv"])
        assert code == 0
        with open(tmp_path / "csv/hist_b.csv") as handle:
            assert sum(int(r["count"]) for r in csv.DictReader(handle)) == 2 * 64

    def test_empty_run_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = run(["export", "--run-dir", str(empty), "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_missing_run_dir(self, tmp_path):
        code = run(
            ["export", "--run-dir", str(tmp_path / "nope"), "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2
