import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsbox.cli
import nsbox.macro
import nsbox.signalling
from nsbox.cli import main
from nsbox.causality import frontier_grid
from nsbox.records import report_from_json
from oracles import reference_histogram
from test_readme import quick_tour_block

Q = math.sqrt(2.0) / 2.0

#: Output paths no command may write, in a tmp_path holding an empty "runs":
#: a file in a missing directory, an existing directory, and a new name that
#: ends in a separator (a directory name, which Path would turn into a file).
BAD_OUTPUT = {
    "missing-dir": lambda tmp_path, name: str(tmp_path / "nodir" / name),
    "existing-dir": lambda tmp_path, name: str(tmp_path / "runs"),
    "trailing-slash": lambda tmp_path, name: str(tmp_path / "newdir") + os.sep,
}


def reference_grid_csv(grid) -> str:
    """The scan-frontier grid CSV through csv.writer, one formatted row at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(grid))
    writer.writerows(
        [f"{x:.17g}" if isinstance(x, float) else str(x).lower() for x in row]
        for row in zip(*(list(column) for column in grid.values()))
    )
    return buffer.getvalue()


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

    def test_artifacts_written_without_reading_the_umask(self, tmp_path, monkeypatch):
        # reading the umask means setting it, for every thread of the process
        def no_umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", no_umask)
        runs = tmp_path / "runs"
        runs.mkdir()
        commands = [
            ["simulate-signalling", "--N", "4", "--reps", "64", "--seed", "5",
             "--out", str(runs / "r.json"), "--dump-batches", str(runs / "b.csv")],
            ["verify-bounds", "--table", "0.5", "0.5", "0.5", "-0.5",
             "--out", str(tmp_path / "bounds.json")],
            ["couplings", "--C", "0.8", "--out", str(tmp_path / "couplings.json")],
            ["scan-frontier", "--resolution", "21", "--out", str(tmp_path / "grid.csv"),
             "--summary", str(tmp_path / "summary.json")],
            ["export", "--run-dir", str(runs), "--out-dir", str(tmp_path / "csv")],
        ]
        for argv in commands:
            assert run(argv) == 0, argv
        # a write that raises leaves neither its target nor its hidden temp file
        with pytest.raises(OSError, match="disk full"):
            with nsbox.cli._atomic_file(str(tmp_path / "failed.json")) as handle:
                handle.write("{}")
                raise OSError("disk full")
        written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        assert written == [
            "bounds.json", "couplings.json", "csv", "csv/advantage_curve.csv",
            "csv/hist_b.csv", "grid.csv", "runs", "runs/b.csv", "runs/r.json", "summary.json",
        ]

    def test_failed_dump_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # the dump streams arm by arm into its temp file; the second arm fails
        csv_rows = nsbox.macro.csv_rows
        written = []

        def failing_rows(template, columns):
            if "always_aprime" in template:
                raise OSError("disk full")
            written.append(template)
            return csv_rows(template, columns)

        monkeypatch.setattr(nsbox.macro, "csv_rows", failing_rows)
        dump = tmp_path / "batches.csv"
        code = run(
            [
                "simulate-signalling", "--N", "4", "--reps", "64", "--seed", "5",
                "--out", str(tmp_path / "report.json"), "--dump-batches", str(dump),
            ]
        )
        assert code == 3
        assert "i/o error: disk full" in capsys.readouterr().err
        assert written and all("always_a," in template for template in written)
        assert not dump.exists()
        assert not list(tmp_path.glob(f".{dump.name}.*"))

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
             ["field 'N' must be a positive integer, got True",
              "field 'sigma' must be a real in [0, 1e+100], got False"]),
            # a JSON string is no number either, even one that would convert
            ("simulate-signalling", "simulate_signalling", {"N": "16", "sigma": "0.1", "reps": "640"},
             ["field 'N' must be a positive integer, got '16'",
              "field 'sigma' must be a real in [0, 1e+100], got '0.1'",
              "field 'reps' must be a positive integer, got '640'"]),
            ("verify-bounds", "verify_bounds", {"table": [0.5, 0.5, 0.5, -0.5], "N": "2"},
             ["field 'N' must be a positive integer, got '2'"]),
            # JSON Infinity (and 1e400, which parses to it) is no integer and no finite real
            ("simulate-signalling", "simulate_signalling",
             {"N": math.inf, "reps": math.inf, "sigma": math.inf},
             ["field 'N' must be a positive integer, got inf",
              "field 'reps' must be a positive integer, got inf",
              "field 'sigma' must be a real in [0, 1e+100], got inf"]),
            # a path field of another type is a config error, not a crash after the draw
            ("simulate-signalling", "simulate_signalling", {"out": 5, "dump_batches": ["x"]},
             ["field 'out' must be a string, got 5",
              "field 'dump_batches' must be a string, got ['x']"]),
            ("verify-bounds", "verify_bounds", {"table": [0.5, 0.5, 0.5, -0.5], "out": ["x"]},
             ["field 'out' must be a string, got ['x']"]),
            ("scan-frontier", "scan_frontier", {"summary": True, "out": 5},
             ["field 'summary' must be a string, got True", "field 'out' must be a string, got 5"]),
            ("couplings", "couplings", {"out": 5}, ["field 'out' must be a string, got 5"]),
            ("export", "export", {"run_dir": 3, "out_dir": False},
             ["field 'run_dir' must be a string, got 3",
              "field 'out_dir' must be a string, got False"]),
        ],
        ids=["booleans", "strings", "verify-bounds-string", "infinities", "simulate-paths",
             "verify-bounds-path", "scan-frontier-paths", "couplings-path", "export-paths"],
    )
    def test_boolean_numbers_rejected(self, tmp_path, capsys, command, section, fields, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: fields}))
        assert run([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        for line in expected:
            assert line in err

    @pytest.mark.parametrize("sigma, code", [("1e100", 0), ("1e300", 2)])
    def test_huge_sigma_bounded(self, capsys, sigma, code):
        """Up to 1e100 the draw runs without an overflow (a warning fails the
        suite); above it sigma is a config error."""
        argv = ["--C", "1", "--N", "4", "--reps", "64", "--group-size", "8", "--sigma", sigma]
        assert run(["simulate-signalling", *argv]) == code
        err = capsys.readouterr().err
        if code:
            assert f"error: field 'sigma' must be a real in [0, 1e+100], got {float(sigma)!r}" in err

    def test_missing_config_file(self, capsys):
        code = run(["simulate-signalling", "--config", "/nonexistent/path.json"])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("{bad", "config file unreadable: Expecting property name"),
        ("[1]", "config file must hold a JSON object"),
        ('{"verify_bounds": 3}', "config section 'verify_bounds' must be an object"),
    ], ids=["not-json", "list", "section-not-object"])
    def test_malformed_config_file(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        argv = ["verify-bounds", "--config", str(cfg), "--table", "0.5", "0.5", "0.5", "-0.5"]
        assert run(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--detector", "cov", "--group-size", "1"],
         "the covariance detector needs groups of at least 2 batches"),
        (["--reps", "16", "--group-size", "32"], "repetitions must cover at least one group"),
        (["--detector", "lr", "--N", "16"],
         "likelihood detector enumerates exact laws, needs n_pairs <= 12"),
    ], ids=["cov-single-batch-groups", "no-whole-group", "lr-too-many-pairs"])
    def test_protocol_config_error_writes_nothing(self, tmp_path, capsys, argv, message):
        """Fields each valid alone but not together: `ProtocolConfig`'s message, exit 2."""
        outputs = ["--out", str(tmp_path / "r.json"), "--dump-batches", str(tmp_path / "b.csv")]
        assert run(["simulate-signalling", *argv, *outputs]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

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
    @pytest.mark.parametrize("target", ["missing-dir", "existing-dir", "trailing-slash"])
    def test_missing_output_dir_fails_before_drawing(
        self, tmp_path, monkeypatch, field, source, target
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("sample_batches was called")

        patch_sample_batches(monkeypatch, no_draw)
        (tmp_path / "runs").mkdir()
        bad = BAD_OUTPUT[target](tmp_path, "r.json")
        # the other output field names a good path, which must stay unwritten
        other = "dump_batches" if field == "out" else "out"
        fields = {field: bad, other: str(tmp_path / "other.out")}
        argv = ["simulate-signalling", "--N", "64", "--reps", "100000"]
        if source == "flag":
            for name, path in fields.items():
                argv += ["--" + name.replace("_", "-"), path]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"simulate_signalling": fields}))
            argv += ["--config", str(cfg)]
        assert run(argv) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["runs"] + (["cfg.json"] if source == "config" else [])
        )
        assert list((tmp_path / "runs").iterdir()) == []

    @pytest.mark.parametrize("source", ["flags", "config-and-flag", "symlinked-dir"])
    def test_outputs_naming_one_file_rejected(self, tmp_path, monkeypatch, capsys, source):
        """`--out r.json --dump-batches ./r.json` would replace the dump with
        the report that names it: a config error, listed with the others,
        before anything is drawn or written."""
        def no_draw(*args, **kwargs):
            raise AssertionError("sample_batches was called")

        patch_sample_batches(monkeypatch, no_draw)
        monkeypatch.chdir(tmp_path)
        argv = ["simulate-signalling", "--reps", "0", "--out", "r.json"]
        if source == "flags":
            argv += ["--dump-batches", "./r.json"]
        elif source == "config-and-flag":
            section = {"dump_batches": "./r.json"}
            Path("cfg.json").write_text(json.dumps({"simulate_signalling": section}))
            argv += ["--config", "cfg.json"]
        else:
            os.symlink(".", "here")
            argv += ["--dump-batches", "here/r.json"]
        before = sorted(os.listdir())
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "error: fields 'out' and 'dump_batches' name one file" in err
        assert "error: field 'reps' must be a positive integer, got 0" in err
        assert sorted(os.listdir()) == before

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

    def test_missing_table(self, capsys):
        assert run(["verify-bounds", "--N", "1"]) == 2
        assert "error: missing required field 'table'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("n_pairs, bound_a", [(1, 1.0), (4, 0.5)])
    def test_tie_binds_the_first_labelling(self, capsys, n_pairs, bound_a):
        """Both labellings give x^2 + y^2 = 1 here; the first, (x, y) = (1, 0), binds."""
        code = run(["verify-bounds", "--table", "0.5", "0.5", "0.5", "0.5", "--N", str(n_pairs)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["lower_bound_a"], data["lower_bound_ap"]) == (bound_a, 0.0)

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

    @pytest.mark.parametrize("target", ["missing-dir", "existing-dir", "trailing-slash"])
    def test_missing_summary_dir_fails_before_scanning(self, tmp_path, monkeypatch, target):
        def no_scan(*args, **kwargs):
            raise AssertionError("frontier_scan was called")

        monkeypatch.setattr(nsbox.cli, "frontier_scan", no_scan)
        (tmp_path / "runs").mkdir()
        assert run(["scan-frontier", "--summary", BAD_OUTPUT[target](tmp_path, "s.json")]) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["runs"]
        assert list((tmp_path / "runs").iterdir()) == []

    @pytest.mark.parametrize("source", ["flags", "config-and-flag"])
    def test_outputs_naming_one_file_rejected(self, tmp_path, monkeypatch, capsys, source):
        """`--out g.csv --summary g.csv` would lose the grid to the summary."""
        def no_scan(*args, **kwargs):
            raise AssertionError("frontier_scan was called")

        monkeypatch.setattr(nsbox.cli, "frontier_scan", no_scan)
        monkeypatch.chdir(tmp_path)
        argv = ["scan-frontier", "--out", "g.csv"]
        if source == "flags":
            argv += ["--summary", "g.csv"]
        else:
            section = {"summary": str(tmp_path / "g.csv")}
            Path("cfg.json").write_text(json.dumps({"scan_frontier": section}))
            argv += ["--config", "cfg.json"]
        before = sorted(os.listdir())
        assert run(argv) == 2
        assert "error: fields 'out' and 'summary' name one file" in capsys.readouterr().err
        assert sorted(os.listdir()) == before

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
        assert "field 'targets'[0] must be a real in [-1, 1], got 'x'" in err
        assert "field 'targets'[1] must be a real in [-1, 1], got 1.5" in err

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
            flagged = f"field {field!r}[{k}] must be a real in [-1, 1], got {value!r}" in err
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


#: A valid list for each correlation field, and a valid config section for
#: each command that the field under test joins.
VALID_LISTS = {"table": [0.5, 0.5, 0.5, -0.5], "targets": [0.1, -0.2]}
VALID_SECTIONS = {
    "simulate-signalling": {"N": 4, "reps": 64},
    "verify-bounds": {"table": VALID_LISTS["table"]},
    "scan-frontier": {"resolution": 11},
    "couplings": {},
}
#: Every numeric config field: its command, its name ((name, k) for entry k
#: of a correlation list), a value out of its range, and whether it is a count.
NUMERIC_FIELDS = [
    ("simulate-signalling", "C", 1.5, False),
    ("simulate-signalling", "N", 0, True),
    ("simulate-signalling", "reps", 0, True),
    ("simulate-signalling", "sigma", -0.1, False),
    ("simulate-signalling", "threshold", 0.0, False),
    ("simulate-signalling", "group_size", 0, True),
    ("simulate-signalling", "seed", 2**64, True),
    ("verify-bounds", "N", 0, True),
    ("verify-bounds", ("table", 2), 1.5, False),
    ("scan-frontier", "resolution", 9, True),
    ("scan-frontier", "rhs", 0.0, False),
    ("couplings", "C", -0.1, False),
    ("couplings", ("targets", 1), -1.5, False),
]


def _numeric_field_cases():
    for command, field, out_of_range, count in NUMERIC_FIELDS:
        bad = {"true": True, "string": "1", "null": None, "nan": math.nan,
               "out-of-range": out_of_range}
        if count:
            bad["integral-float"] = 16.0
        name = "{}[{}]".format(*field) if isinstance(field, tuple) else field
        for label, value in bad.items():
            yield pytest.param(command, field, value, id=f"{command}-{name}-{label}")


@pytest.mark.parametrize("command, field, value", _numeric_field_cases())
def test_every_numeric_field_checked(tmp_path, capsys, command, field, value):
    """A bool, a string, null, NaN, a value out of range and, for a count, an
    integral float are config errors that name the field, and nothing is written."""
    section = dict(VALID_SECTIONS[command])
    if isinstance(field, tuple):
        name, k = field
        section[name] = [value if j == k else x for j, x in enumerate(VALID_LISTS[name])]
        shown = f"{name!r}[{k}]"
    else:
        section[field] = value
        shown = repr(field)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({command.replace("-", "_"): section}))
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"error: field {shown} must be " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


#: Field texts of hand-made batch CSVs: repeats, both zeros, and an infinity
#: (a NaN sum is pinned on its own in `test_nan_sums_add_up_per_text_pair`).
HIST_FIELDS = ["0", "-0", "0.5", "-0.5", "0.25", "-0.75", "1", "-1", "1e-300", "0.1", "inf"]
HIST_STRATEGIES = ["always_a", "always_aprime", 'odd,"name']


@pytest.fixture(scope="module")
def stored_report(tmp_path_factory):
    """The text of one simulate-signalling report whose batch CSV is b.csv."""
    run_dir = tmp_path_factory.mktemp("stored")
    run(["simulate-signalling", "--N", "4", "--reps", "16", "--group-size", "8", "--seed", "2",
         "--out", str(run_dir / "r.json"), "--dump-batches", str(run_dir / "b.csv")])
    report = json.loads((run_dir / "r.json").read_text())
    return json.dumps({**report, "batches_csv": "b.csv"})


#: JSON texts of every kind of value: a config field given any of them is
#: taken or listed as a config error, never a crash.
JSON_VALUES = ["null", "true", "false", "0", "-1", "1.5", '"x"', "[]", "[1]", "{}", '{"a": 1}',
               "1e400"]
#: Small valid sections that the field under test joins; export's run_dir
#: holds one stored report.
SMALL_SECTIONS = {
    "simulate-signalling": {"N": 4, "reps": 16, "group_size": 8},
    "verify-bounds": {"table": [0.5, 0.5, 0.5, -0.5]},
    "scan-frontier": {"resolution": 11},
    "couplings": {},
    "export": {"run_dir": "run", "out_dir": "csv"},
}


def _config_field_cases():
    for command in SMALL_SECTIONS:
        namespace = vars(nsbox.cli.build_parser().parse_args([command]))
        for field in sorted(set(namespace) - {"command", "func", "config"}):
            for value in JSON_VALUES:
                yield pytest.param(command, field, value, id=f"{command}-{field}-{value}")


@pytest.mark.parametrize("command, field, value", _config_field_cases())
def test_every_config_field_takes_any_json_value(tmp_path, monkeypatch, capsys, stored_report,
                                                 command, field, value):
    """Each JSON value in each field of each command ends in success, a
    config error or an i/o error: never exit 1, which means verify-bounds
    found a broken implication, and never a traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "r.json").write_text(stored_report)
    section = {k: v for k, v in SMALL_SECTIONS[command].items() if k != field}
    text = json.dumps({command.replace("-", "_"): {**section, field: "@"}})
    (tmp_path / "cfg.json").write_text(text.replace('"@"', value))
    code = run([command, "--config", "cfg.json"])
    captured = capsys.readouterr()
    assert code in (0, 2, 3), captured.err
    assert "Traceback" not in captured.out + captured.err


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

    @pytest.mark.parametrize("batches_csv", [5, 0, True, False, ["b.csv"]],
                             ids=["int", "zero", "true", "false", "list"])
    def test_report_with_a_non_string_batch_path_is_skipped_whole(
        self, tmp_path, capsys, batches_csv
    ):
        """Such a report gives neither its curve row nor a histogram; the
        good report beside it gives both."""
        run_dir = self._make_run(tmp_path)
        bad = run_dir / "pr.json"
        bad.write_text(json.dumps({**json.loads(bad.read_text()), "batches_csv": batches_csv}))
        capsys.readouterr()
        out_dir = tmp_path / "export"
        assert run(["export", "--run-dir", str(run_dir), "--out-dir", str(out_dir)]) == 0
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1
        reason = f"batches_csv must be a path, got {batches_csv!r}"
        assert warnings[0] == f"warning: skipped {bad}: {reason}"
        with open(out_dir / "advantage_curve.csv") as handle:
            assert [float(r["C"]) for r in csv.DictReader(handle)] == [0.5]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "advantage_curve.csv", "hist_batches_half.csv",
        ]

    @pytest.mark.parametrize(
        "edits, reason",
        [
            ({"N": 8.7}, "N must be a positive integer, got 8.7"),
            ({"reps": "640"}, "reps must be a positive integer, got '640'"),
            ({"C": True}, "C must be a real in [0, 1], got True"),
            ({"n_used": 3.5}, "n_used must be a nonnegative integer, got 3.5"),
            ({"N": 8.7, "reps": "640", "C": True, "n_used": 3.5},
             "C must be a real in [0, 1], got True"),
            # simulate-signalling refuses sigma above 1e100, and so does export
            ({"sigma": 1e300}, "sigma must be a real in [0, 1e+100], got 1e+300"),
            ({"advantage": 0.0}, "confidence interval must contain the advantage"),
        ],
        ids=["fractional-N", "string-reps", "bool-C", "fractional-n_used", "all-four",
             "huge-sigma", "advantage-outside-interval"],
    )
    def test_malformed_number_skips_the_report(self, tmp_path, capsys, edits, reason):
        """A hand-edited report whose stored numbers no longer read back as
        they were written is skipped with a warning, not truncated."""
        run_dir = self._make_run(tmp_path)
        bad = run_dir / "pr.json"
        data = json.loads(bad.read_text())
        for key, value in edits.items():
            (data["report"] if key in data["report"] else data["config"])[key] = value
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        out_dir = tmp_path / "export"
        assert run(["export", "--run-dir", str(run_dir), "--out-dir", str(out_dir)]) == 0
        assert capsys.readouterr().err.splitlines() == [f"warning: skipped {bad}: {reason}"]
        with open(out_dir / "advantage_curve.csv") as handle:
            assert [float(r["C"]) for r in csv.DictReader(handle)] == [0.5]

    def test_lone_report_with_a_non_string_batch_path_is_config_error(
        self, tmp_path, capsys, stored_report
    ):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        bad = run_dir / "r.json"
        bad.write_text(json.dumps({**json.loads(stored_report), "batches_csv": 5}))
        out_dir = tmp_path / "o"
        assert run(["export", "--run-dir", str(run_dir), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"warning: skipped {bad}: batches_csv must be a path, got 5\n")
        assert "no signalling artifacts" in err
        assert not out_dir.exists()

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

    def test_batch_files_of_one_name_keep_the_first_histogram(self, tmp_path, monkeypatch, capsys):
        """runs/x/b.csv and runs/y/b.csv both map to hist_b.csv: the later
        one is skipped with a warning instead of overwriting the first."""
        monkeypatch.chdir(tmp_path)
        for sub, c in (("x", "1.0"), ("y", "0.5")):
            Path("runs", sub).mkdir(parents=True)
            run(["simulate-signalling", "--C", c, "--N", "4", "--reps", "64", "--group-size",
                 "8", "--seed", "5", "--out", f"runs/{sub}.json", "--dump-batches",
                 f"runs/{sub}/b.csv"])
        first, _ = reference_histogram(Path("runs/x/b.csv"))
        assert first != reference_histogram(Path("runs/y/b.csv"))[0]
        capsys.readouterr()
        assert run(["export", "--run-dir", "runs", "--out-dir", "csv"]) == 0
        out, err = capsys.readouterr()
        assert Path("csv/hist_b.csv").read_text() == first
        skipped, target = Path("runs/y/b.csv"), Path("csv/hist_b.csv")
        assert err == f"warning: skipped {skipped}: {target} already written\n"
        assert out.count("wrote csv/hist_b.csv") == 1

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

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(HIST_STRATEGIES), st.sampled_from(HIST_FIELDS),
                      st.sampled_from(HIST_FIELDS)),
            max_size=40,
        ),
        header=st.sampled_from([("strategy", "B", "Bprime"), ("Bprime", "strategy", "B"),
                                ("strategy", "B"), ("B", "Bprime")]),
        bad=st.none() | st.tuples(st.integers(0, 39), st.sampled_from(["B", "Bprime"]),
                                  st.sampled_from(["x", "", "1e"])),
        short=st.none() | st.tuples(st.integers(0, 39), st.integers(0, 2)),
    )
    def test_histogram_matches_the_per_row_parse(self, stored_report, rows, header, bad, short):
        """Rows that repeat a (strategy, B, B') text count as the per-row
        parse counts them, and the first bad field, short row or missing
        column is reported as it reports it."""
        rows = [dict(zip(("strategy", "B", "Bprime"), row)) for row in rows]
        if bad is not None and bad[0] < len(rows):
            rows[bad[0]][bad[1]] = bad[2]
        rows = [[row[name] for name in header] for row in rows]
        if short is not None and short[0] < len(rows):
            del rows[short[0]][short[1]:]
        with tempfile.TemporaryDirectory() as tmp:
            run_dir, out_dir = Path(tmp, "run"), Path(tmp, "out")
            run_dir.mkdir()
            (run_dir / "r.json").write_text(stored_report)
            batches = run_dir / "b.csv"
            batches.write_text(_csv_text([header, *rows]))
            want_hist, want_err = reference_histogram(batches)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert run(["export", "--run-dir", str(run_dir), "--out-dir", str(out_dir)]) == 0
            hist = out_dir / "hist_b.csv"
            assert (hist.read_text() if hist.exists() else None) == want_hist
            assert err.getvalue() == want_err

    def test_first_bad_row_is_the_one_reported(self, tmp_path, capsys):
        """A bad float on line 3 is reported, not the row without a strategy
        on line 5, even though line 4 repeats line 2's good texts."""
        run_dir = self._make_run(tmp_path)
        batches = run_dir / "batches_pr.csv"
        batches.write_text("B,Bprime,strategy\n0.5,0.5,always_a\nx,0.5,always_a\n"
                           "0.5,0.5,always_a\n0.5,0.5\n")
        capsys.readouterr()
        assert run(["export", "--run-dir", str(run_dir), "--out-dir", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == (
            f"warning: skipped {batches}: could not convert string to float: 'x'\n"
        )
        assert not (tmp_path / "o" / "hist_batches_pr.csv").exists()

    def test_nan_sums_add_up_per_text_pair(self, tmp_path):
        """B + B' is NaN for 'nan' or inf - inf; such rows count once per
        (strategy, B, B') text, where a NaN key made per row would never
        compare equal to another."""
        run_dir = self._make_run(tmp_path)
        (run_dir / "batches_pr.csv").write_text(
            "strategy,B,Bprime\nalways_a,nan,0\nalways_a,inf,-inf\nalways_a,nan,0\n"
            "always_a,0.5,0\nalways_a,inf,-inf\nalways_a,nan,0\n"
        )
        assert run(["export", "--run-dir", str(run_dir), "--out-dir", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "hist_batches_pr.csv") as handle:
            rows = sorted(tuple(row.values()) for row in csv.DictReader(handle))
        assert rows == [("always_a", "0.5", "1"), ("always_a", "nan", "2"),
                        ("always_a", "nan", "3")]

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


def fresh_modules(code: str, cwd: Path) -> set[str]:
    """The modules a fresh interpreter holds after it runs `code` in `cwd`,
    with nsbox imported from this checkout."""
    src = str(Path(nsbox.cli.__file__).resolve().parents[1])
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_cli_import_loads_no_scipy(tmp_path):
    """numpy is the only runtime dependency: in a fresh interpreter where
    `import scipy` fails, the README quick tour and one run of each README
    command (a noisy simulate-signalling with a batch dump, and an export of
    that run) all succeed."""
    runs, out = tmp_path / "runs", tmp_path / "csv"
    runs.mkdir()
    commands = [
        ["simulate-signalling", "--N", "16", "--reps", "256", "--sigma", "0.1", "--seed", "1",
         "--out", str(runs / "r.json"), "--dump-batches", str(runs / "b.csv")],
        ["verify-bounds", "--table", "0.7071", "0.7071", "0.7071", "-0.7071", "--N", "1"],
        ["scan-frontier", "--resolution", "101", "--out", str(tmp_path / "grid.csv"),
         "--summary", str(tmp_path / "summary.json")],
        ["couplings", "--C", "0.8", "--out", str(tmp_path / "couplings.json")],
        ["export", "--run-dir", str(runs), "--out-dir", str(out)],
    ]
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None  # every import of scipy now raises ImportError",
        "import nsbox.cli",
        quick_tour_block(),
        f"for argv in {commands!r}:",
        "    assert nsbox.cli.main(argv) == 0, argv",
    ])
    fresh_modules(code, tmp_path)
    assert len((runs / "b.csv").read_text().splitlines()) == 1 + 2 * 256
    assert (out / "hist_b.csv").exists()


def test_package_import_loads_no_numpy(tmp_path):
    """The namespace is lazy, and the table, CHSH, causality and record
    names live in modules that import no numpy."""
    code = ("import nsbox\n"
            "table = nsbox.CorrelationTable(0.5, 0.5, 0.5, -0.5)\n"
            "assert nsbox.causality_condition(table).ok and nsbox.chsh(table) == 2.0\n"
            "assert nsbox.Verdict.SIGNALLING.value == 'signalling'")
    modules = fresh_modules(code, tmp_path)
    assert "nsbox" in modules
    assert "numpy" not in modules


def test_coupling_construction_loads_no_numpy(tmp_path):
    """A coupling is eight Python floats: building and validating one, and
    its JSON form, need no numpy."""
    code = ("import nsbox\n"
            "k_a, k_ap = nsbox.make_scalar_extremal_couplings(0.8)\n"
            "assert nsbox.validate_coupling(k_a, (0.8, 0.8)).ok\n"
            "assert nsbox.validate_coupling(k_ap, (0.8, -0.8)).ok\n"
            "assert len(nsbox.coupling_to_json(k_a)['pmf']) == 8")
    modules = fresh_modules(code, tmp_path)
    assert "nsbox.coupling" in modules
    assert "numpy" not in modules


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["verify-bounds", "--table", "0.7071", "0.7071", "0.7071", "-0.7071", "--N", "1"],
         {"numpy"}),
        (["export", "--run-dir", "runs", "--out-dir", "csv"], {"numpy"}),
        (["scan-frontier", "--resolution", "101", "--out", "grid.csv"], {"numpy"}),
        (["scan-frontier", "--resolution", "57", "--rhs", "0.3", "--symmetric",
          "--out", "grid_sym.csv"], {"numpy"}),
        (["scan-frontier", "--resolution", "101", "--format", "json", "--out", "scan.json",
          "--summary", "summary.json"], {"numpy"}),
        (["couplings", "--C", "0.8"], {"numpy"}),
        (["couplings", "--targets", "0.3", "-0.2"], {"numpy"}),
    ],
    ids=["verify-bounds", "export", "scan-frontier", "scan-frontier-symmetric",
         "scan-frontier-json", "couplings-C", "couplings-targets"],
)
def test_command_loads_only_what_it_runs(tmp_path, argv, absent):
    """Every command but simulate-signalling runs without numpy: export over a
    stored report with its batch CSV, scan-frontier in both modes."""
    (tmp_path / "runs").mkdir()
    run(["simulate-signalling", "--N", "4", "--reps", "16", "--group-size", "8", "--seed", "2",
         "--out", str(tmp_path / "runs/r.json"), "--dump-batches", str(tmp_path / "runs/b.csv")])
    modules = fresh_modules(f"from nsbox.cli import main\nassert main({argv!r}) == 0", tmp_path)
    assert "nsbox.cli" in modules
    assert not modules & absent
    if argv[0] == "export":
        assert (tmp_path / "csv/hist_b.csv").exists()


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
