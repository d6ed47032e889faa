import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nsbox.cli
import nsbox.macro
import nsbox.signalling
from nsbox.cli import main
from nsbox.causality import frontier_grid
from nsbox.signalling import report_from_json

Q = math.sqrt(2.0) / 2.0


def reference_grid_csv(grid) -> str:
    """The scan-frontier grid CSV through csv.writer, one formatted row at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(grid))
    writer.writerows(
        [f"{x:.17g}" if isinstance(x, float) else str(x).lower() for x in row]
        for row in zip(*(column.tolist() for column in grid.values()))
    )
    return buffer.getvalue()


def reference_histogram(batch_file: Path) -> tuple[str | None, str]:
    """export's B + B' histogram of one batch CSV through csv.DictReader:
    the histogram CSV text, or None when the file is skipped, and stderr."""
    counts: dict[tuple[str, float], int] = {}
    try:
        with open(batch_file) as handle:
            for row in csv.DictReader(handle):
                key = (row["strategy"], round(float(row["B"]) + float(row["Bprime"]), 12))
                counts[key] = counts.get(key, 0) + 1
    except KeyError as exc:
        return None, f"warning: skipped {batch_file}: missing column {exc}\n"
    except (OSError, ValueError, TypeError) as exc:
        return None, f"warning: skipped {batch_file}: {exc}\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["strategy", "value", "count"])
    writer.writerows([s, f"{value:.17g}", n] for (s, value), n in sorted(counts.items()))
    return buffer.getvalue(), ""


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _move_columns(rows, order):
    return _csv_text([[row[k] for k in order] + ["x"] for row in rows])


def _set_fields(rows, line, **values):
    for name, value in values.items():
        rows[line][rows[0].index(name)] = value
    return _csv_text(rows)


#: Edits of a dumped batch CSV (header row first; B is column 4, Bprime 5).
BATCH_CSV_EDITS = {
    "as-written": _csv_text,
    "reordered-extra-columns": lambda rows: _move_columns(rows, [8, 5, 0, 4, 1, 2, 3, 7, 6]),
    # noisyB renamed B: the last column of a repeated name is the one read
    "repeated-B-name": lambda rows: _csv_text([rows[0][:6] + ["B"] + rows[0][7:]] + rows[1:]),
    "missing-Bprime": lambda rows: _move_columns(rows, [0, 1, 2, 3, 4, 6, 7, 8]),
    "missing-strategy-and-Bprime": lambda rows: _move_columns(rows, [0, 4]),
    "short-row": lambda rows: _csv_text(rows[:3] + [rows[3][:5]] + rows[4:]),
    "short-row-before-bad-B": lambda rows: _csv_text(
        rows[:3] + [rows[3][:4]] + [rows[4][:4] + ["x"]] + rows[5:]
    ),
    "non-numeric-B": lambda rows: _set_fields(rows, 2, B="abc"),
    "non-numeric-B-missing-Bprime": lambda rows: _set_fields([row[:5] for row in rows], 1, B="abc"),
    # round(x, 12) gives 0.215531383081 here, np.round(x, 12) 0.215531383082
    "rounding": lambda rows: _set_fields(
        rows, 1, B="-0.07535307521601253", Bprime="0.2908844582975125"
    ),
    "blank-lines": lambda rows: _csv_text(rows[:2] + [[]] + rows[2:] + [[], []]),
    "header-only": lambda rows: _csv_text(rows[:1]),
    "header-only-missing-Bprime": lambda rows: _csv_text([rows[0][:5]]),
    "blank-header": lambda rows: "\n" + _csv_text(rows[1:]),
    "empty": lambda rows: "",
}


def run(argv):
    return main(argv)


def patch_sample_batches(monkeypatch, replacement):
    """Replace sample_batches in every nsbox module that binds it."""
    for module in (nsbox.macro, nsbox.signalling, nsbox.cli):
        if hasattr(module, "sample_batches"):
            monkeypatch.setattr(module, "sample_batches", replacement)


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

    @pytest.mark.parametrize(
        "command, section, fields, expected",
        [
            ("simulate-signalling", "simulate_signalling", {"N": True, "sigma": False},
             ["field 'N' must be an integer, got True", "field 'sigma' must be a number, got False"]),
            # a JSON string is no number either, even one that would convert
            ("simulate-signalling", "simulate_signalling", {"N": "16", "sigma": "0.1", "reps": "640"},
             ["field 'N' must be an integer, got '16'", "field 'sigma' must be a number, got '0.1'",
              "field 'reps' must be an integer, got '640'"]),
            ("verify-bounds", "verify_bounds", {"table": [0.5, 0.5, 0.5, -0.5], "N": "2"},
             ["field 'N' must be an integer, got '2'"]),
            # JSON Infinity (and 1e400, which parses to it) overflows int()
            ("simulate-signalling", "simulate_signalling",
             {"N": math.inf, "reps": math.inf, "sigma": math.inf},
             ["field 'N' must be an integer, got inf", "field 'reps' must be an integer, got inf",
              "field 'sigma' must be finite, got inf"]),
        ],
        ids=["booleans", "strings", "verify-bounds-string", "infinities"],
    )
    def test_boolean_numbers_rejected(self, tmp_path, capsys, command, section, fields, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: fields}))
        assert run([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        for line in expected:
            assert line in err

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

    def test_each_arm_drawn_once(self, tmp_path, monkeypatch):
        streams = []
        sample_batches = nsbox.macro.sample_batches

        def counting(*args, **kwargs):
            streams.append(kwargs["stream"])
            return sample_batches(*args, **kwargs)

        patch_sample_batches(monkeypatch, counting)
        code = run(
            [
                "simulate-signalling", "--N", "4", "--reps", "64", "--group-size", "8",
                "--seed", "5", "--out", str(tmp_path / "r.json"),
                "--dump-batches", str(tmp_path / "b.csv"),
            ]
        )
        assert code == 0
        assert sorted(streams) == [0, 1]
        assert len((tmp_path / "b.csv").read_text().splitlines()) == 1 + 2 * 64

    @pytest.mark.parametrize("field", ["out", "dump_batches"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_missing_output_dir_fails_before_drawing(self, tmp_path, monkeypatch, field, source):
        def no_draw(*args, **kwargs):
            raise AssertionError("sample_batches was called")

        patch_sample_batches(monkeypatch, no_draw)
        target = str(tmp_path / "nodir" / "r.json")
        argv = ["simulate-signalling", "--N", "64", "--reps", "100000"]
        if source == "flag":
            argv += ["--" + field.replace("_", "-"), target]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"simulate_signalling": {field: target}}))
            argv += ["--config", str(cfg)]
        assert run(argv) == 3

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

    def test_relabelled_pr_table_not_causal(self, capsys):
        code = run(["verify-bounds", "--table", "1", "-1", "1", "1", "--N", "1"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["causality_lhs"] == 8.0
        assert data["causality_ok"] is False
        assert data["tsirelson_ok"] is False
        assert data["identities_ok"] is True
        assert data["lower_bound_a"] == data["lower_bound_ap"] == 2.0

    def test_causal_table_over_tsirelson_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(nsbox.cli, "tsirelson_check", lambda table: False)
        out = tmp_path / "bounds.json"
        code = run(["verify-bounds", "--table", "0.5", "0.5", "0.5", "-0.5", "--out", str(out)])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["causality_ok"] is True
        assert data["identities_ok"] is False
        assert data["failures"] == ["causality holds but the CHSH bound fails"]
        assert json.loads(out.read_text()) == data

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
        assert data["mode"] == "general" and data["critical_c"] is None
        assert list(data["argmax_table"]) == ["c_ab", "c_abp", "c_apb", "c_apbp"]
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 10001
        assert {"x", "y", "chsh", "causality_margin"} == set(rows[0])

    def test_symmetric_mode(self, capsys):
        code = run(["scan-frontier", "--resolution", "10001", "--symmetric"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["critical_c"] - Q) < 1e-6

    def test_missing_summary_dir_fails_before_scanning(self, tmp_path, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("frontier_scan was called")

        monkeypatch.setattr(nsbox.cli, "frontier_scan", no_scan)
        assert run(["scan-frontier", "--summary", str(tmp_path / "nodir" / "s.json")]) == 3

    def test_absent_flag_keeps_config_symmetric(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scan_frontier": {"resolution": 101, "symmetric": True}}))
        assert run(["scan-frontier", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "symmetric"

    @pytest.mark.parametrize("section", [{"symmetric": True}, {}], ids=["true", "absent"])
    def test_boolean_symmetric_accepted(self, tmp_path, capsys, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scan_frontier": {"resolution": 101, **section}}))
        assert run(["scan-frontier", "--config", str(cfg)]) == 0
        mode = json.loads(capsys.readouterr().out)["mode"]
        assert (mode == "symmetric") is bool(section)

    @pytest.mark.parametrize("value", ["false", 1], ids=["string", "number"])
    def test_non_boolean_symmetric_rejected(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"scan_frontier": {"resolution": 5, "symmetric": value}})
        )
        assert run(["scan-frontier", "--config", str(cfg)]) == 2
        errors = capsys.readouterr().err
        # reported together with the other config errors
        assert f"field 'symmetric' must be true or false, got {value!r}" in errors
        assert "field 'resolution'" in errors

    @pytest.mark.parametrize(
        "symmetric, rhs, resolution",
        [(False, 4.0, 101), (False, 2.5, 57), (False, 9.0, 10), (True, 0.3, 57), (True, 4.0, 11)],
    )
    def test_grid_csv_matches_csv_writer(self, tmp_path, symmetric, rhs, resolution):
        out = tmp_path / "grid.csv"
        argv = ["scan-frontier", "--resolution", str(resolution), "--rhs", repr(rhs)]
        assert run(argv + ["--symmetric"] * symmetric + ["--out", str(out)]) == 0
        grid = frontier_grid(resolution, symmetric, rhs)
        assert out.read_text() == reference_grid_csv(grid)

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

    def test_malformed_targets_all_reported(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"couplings": {"targets": ["x", 1.5]}}))
        assert run(["couplings", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "field 'targets'[0] must be a number, got 'x'" in err
        assert "field 'targets'[1] must lie in [-1, 1], got 1.5" in err

    @pytest.mark.parametrize(
        "command, section, field, values",
        [
            ("verify-bounds", "verify_bounds", "table", [True, True, True, False]),
            ("couplings", "couplings", "targets", [True, False]),
            ("verify-bounds", "verify_bounds", "table", ["0.5", 0.5, 0.5, -0.5]),
            ("couplings", "couplings", "targets", ["0.1", "-0.2"]),
        ],
        ids=["table", "targets", "table-strings", "targets-strings"],
    )
    def test_boolean_correlations_rejected(self, tmp_path, capsys, command, section, field, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {field: values}}))
        assert run([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        for k, value in enumerate(values):
            flagged = f"field {field!r}[{k}] must be a number, got {value!r}" in err
            assert flagged is isinstance(value, (bool, str)), (k, value)

    def test_wrong_target_count(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"couplings": {"targets": [0.1, 0.2, 0.3]}}))
        assert run(["couplings", "--config", str(cfg)]) == 2
        assert "field 'targets' must hold 2 correlations" in capsys.readouterr().err

    def test_c_with_targets_warned_and_ignored(self, capsys):
        assert run(["couplings", "--targets", "0.1", "0.2"]) == 0
        alone = capsys.readouterr()
        assert alone.err == ""
        assert run(["couplings", "--C", "0.5", "--targets", "0.1", "0.2"]) == 0
        both = capsys.readouterr()
        assert both.err == "warning: ignored C: targets given\n"
        assert both.out == alone.out

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

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("{not json", "Expecting property name"),
            ("[1, 2]", "not a simulate-signalling report"),
            ("no report", "missing field 'report'"),
        ],
        ids=["not-json", "json-list", "no-report-key"],
    )
    def test_unusable_report_skipped_with_warning(self, tmp_path, capsys, content, reason):
        run_dir = self._make_run(tmp_path)
        if content == "no report":
            data = json.loads((run_dir / "pr.json").read_text())
            del data["report"]
            content = json.dumps(data)
        bad = run_dir / "bad.json"
        bad.write_text(content)
        capsys.readouterr()
        out_dir = tmp_path / "export"
        assert run(["export", "--run-dir", str(run_dir), "--out-dir", str(out_dir)]) == 0
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith(f"warning: skipped {bad}: ")
        assert reason in warnings[0]
        with open(out_dir / "advantage_curve.csv") as handle:
            assert len(list(csv.DictReader(handle))) == 2

    def test_only_unusable_reports_is_config_error(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "bad.json").write_text("[]")
        code = run(["export", "--run-dir", str(run_dir), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "warning: skipped" in err
        assert "no signalling artifacts" in err

    def test_missing_batch_csv_skipped_with_warning(self, tmp_path, capsys):
        run_dir = self._make_run(tmp_path)
        (run_dir / "batches_pr.csv").unlink()
        capsys.readouterr()
        out_dir = tmp_path / "export"
        assert run(["export", "--run-dir", str(run_dir), "--out-dir", str(out_dir)]) == 0
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith(f"warning: skipped {run_dir / 'batches_pr.csv'}: ")
        assert not (out_dir / "hist_batches_pr.csv").exists()
        assert (out_dir / "hist_batches_half.csv").exists()

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("B,Bprime,strategy\n0.5,0.5\n0.5,0.5,always_a\n", "line 2 has no field 'strategy'"),
            ("B,Bprime,strategy\n" + "9" * 140_000 + ",0,always_a\n", "field larger than"),
        ],
        ids=["row-without-strategy", "oversized-field"],
    )
    def test_unreadable_batch_csv_skipped_with_warning(self, tmp_path, capsys, content, reason):
        run_dir = self._make_run(tmp_path)
        (run_dir / "batches_pr.csv").write_text(content)
        capsys.readouterr()
        out_dir = tmp_path / "export"
        assert run(["export", "--run-dir", str(run_dir), "--out-dir", str(out_dir)]) == 0
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith(f"warning: skipped {run_dir / 'batches_pr.csv'}: ")
        assert reason in warnings[0]
        assert not (out_dir / "hist_batches_pr.csv").exists()
        assert (out_dir / "hist_batches_half.csv").exists()

    @pytest.mark.parametrize("case", sorted(BATCH_CSV_EDITS))
    def test_histogram_matches_dict_reader(self, tmp_path, capsys, case):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        batches = run_dir / "b.csv"
        argv = ["simulate-signalling", "--N", "4", "--reps", "16", "--group-size", "8"]
        run(argv + ["--seed", "2", "--out", str(run_dir / "r.json"), "--dump-batches", str(batches)])
        with open(batches) as handle:
            rows = list(csv.reader(handle))
        batches.write_text(BATCH_CSV_EDITS[case](rows))
        want_hist, want_err = reference_histogram(batches)
        capsys.readouterr()
        out_dir = tmp_path / "export"
        assert run(["export", "--run-dir", str(run_dir), "--out-dir", str(out_dir)]) == 0
        assert capsys.readouterr().err == want_err
        hist = out_dir / "hist_b.csv"
        assert (hist.read_text() if hist.exists() else None) == want_hist

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


def test_cli_import_loads_no_scipy():
    """Only the locality LP and noisy draws need scipy; every CLI start would
    pay for its import."""
    src = str(Path(nsbox.cli.__file__).resolve().parents[1])
    code = "import sys, nsbox.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


# sha256 of every artifact the commands in `artifacts` write, pinned so that
# a change to the CLI cannot alter an artifact's bytes unnoticed
GOLDEN_SHA256 = {
    "bounds.csv": "712e7e8b4541f99b8b214bca9ef9c3f84d900cdf17195ccbeaea7770325a3ed4",
    "bounds.json": "7f8c4280717ef5d4ed6f5afc37c59b39911ca847d8001a9897e7a86437254ad6",
    "couplings.csv": "f2d9e7ac467c966e84e6f93aa497911d08df8345aab8fb52608cdfc398fd2de5",
    "couplings.json": "4963fa889b38066834fb1d143c99cd0a26f08383e2d597cb5a251565ebe64d84",
    "csv/advantage_curve.csv": "4dc9526e70fa27a118ef12cb58cdf072be7174c513f73afe977b8f38d6aea680",
    "csv/hist_batches.csv": "ea5da036729dbc11d37095c7c55731445939086a481bd6e49e94dcffd9db4b8a",
    "grid.csv": "c5dfdc0ed9effd9627210805ec68aba29a85bdd2d7e7a9e2440a91386594eb25",
    "grid_rhs.csv": "baac4712ec5b1adad1468d18d174239885bcc83538482ce12d1a8ded54b9a73c",
    "grid_sym.csv": "a66f4216318743e0ca62ff73b2fec930d68617e1c6e65dbb8674e96f31c1ca80",
    "runs/batches.csv": "c9782d3df4e55c5ab0009b14b331ad884fe804ec6f69fd28590be5f689ae4045",
    "runs/low.json": "6d397f418a52bdeef8403946dea7c7774f6a47b98540366fdaa0630a4838dee6",
    "runs/sim.json": "82e310eb66f1bc14c4c361dd647eeae5dc0f3173ace553758e139f341b938d5f",
    "sim.csv": "498adca2a0022babc786e8faaed2486e99ab8d8751991463696b8894eaaeb985",
    "summary.json": "a62a18197159115c4de241ff13656814b65fb39b8f50cc7a7cd3bffca6cabba1",
    "summary_sym.json": "5a55428a566e8b8fdf63cde8539cdc57188eb82ba1621ba09b7b56bd98a563e0",
    "targets.csv": "304dc3275eb7878edd9e2a03e376f4114b2ba5b7d471a89edf0258688142848c",
    "targets.json": "1fd4315954208306153a2b6603b3071cff84f631e4cae82565178906a9f6eaf4",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    (root / "runs").mkdir()
    cfg = root / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "simulate_signalling": {
                    "C": 0.8, "N": 8, "reps": 300, "sigma": 0.1, "group_size": 16,
                    "detector": "postselect", "threshold": 0.5,
                },
                "verify_bounds": {"table": [0.6, 0.7, 0.5, -0.4], "N": 3},
                "scan_frontier": {"resolution": 101, "symmetric": False},
            }
        )
    )
    commands = [
        ["simulate-signalling", "--config", cfg, "--seed", "11",
         "--out", "runs/sim.json", "--dump-batches", "runs/batches.csv"],
        ["simulate-signalling", "--C", "0.3", "--N", "6", "--reps", "64", "--group-size", "8",
         "--sigma", "0", "--seed", "3", "--out", "runs/low.json"],
        ["simulate-signalling", "--C", "0.9", "--N", "6", "--reps", "100", "--group-size", "10",
         "--detector", "lr", "--seed", "4", "--format", "csv", "--out", "sim.csv"],
        ["verify-bounds", "--config", cfg, "--out", "bounds.json"],
        ["verify-bounds", "--config", cfg, "--format", "csv", "--out", "bounds.csv"],
        ["scan-frontier", "--config", cfg, "--out", "grid.csv", "--summary", "summary.json"],
        ["scan-frontier", "--resolution", "57", "--rhs", "2.5", "--out", "grid_rhs.csv"],
        ["scan-frontier", "--config", cfg, "--symmetric", "--rhs", "0.3",
         "--out", "grid_sym.csv", "--summary", "summary_sym.json"],
        ["couplings", "--C", "0.8", "--out", "couplings.json"],
        ["couplings", "--C", "0.8", "--format", "csv", "--out", "couplings.csv"],
        ["couplings", "--targets", "-0.2", "0.6", "--out", "targets.json"],
        ["couplings", "--targets", "-0.2", "0.6", "--format", "csv", "--out", "targets.csv"],
        ["export", "--run-dir", "runs", "--out-dir", "csv"],
    ]
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in commands:
            assert run([str(a) for a in argv]) == 0, argv
    finally:
        os.chdir(cwd)
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_artifacts(artifacts, name):
    digest = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]
