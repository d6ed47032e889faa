"""Command-line front end.

Five commands: simulate-signalling, verify-bounds, scan-frontier, couplings,
export.  Parameters come from an optional JSON config file (one section per
command) with flags overriding file values.  All randomized commands print
the resolved seed.  Output files are written atomically (temp file +
rename), so failures never leave partial artifacts.

Exit codes: 0 success; 1 verify-bounds invariant failure; 2 invalid
configuration (every bad field is listed); 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .boxes import CorrelationTable, chsh
from .causality import (
    FrontierReport,
    budget_from_table,
    causality_condition,
    frontier_scan,
    orient_for_bounds,
    tsirelson_check,
    variance_lower_bound_a,
    variance_lower_bound_ap,
    vector_addition_model,
)
from .coupling import (
    CouplingObjective,
    coupling_bounds,
    coupling_to_json,
    extremal_coupling,
    make_scalar_extremal_couplings,
    validate_coupling,
)
from .macro import STRATEGY_STREAM, NoiseModel, Strategy, sample_batches, write_batches_csv
from .signalling import (
    SWEEP_CSV_HEADER,
    Detector,
    ProtocolConfig,
    SweepRow,
    report_from_json,
    report_to_json,
    run_protocol,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_IO = 3


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

class ConfigErrors(Exception):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _load_config_section(path: str | None, section: str) -> dict:
    if path is None:
        return {}
    file = Path(path)
    if not file.exists():
        raise ConfigErrors([f"config file not found: {path}"])
    try:
        data = json.loads(file.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigErrors([f"config file unreadable: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigErrors(["config file must hold a JSON object"])
    section_data = data.get(section, {})
    if not isinstance(section_data, dict):
        raise ConfigErrors([f"config section {section!r} must be an object"])
    return dict(section_data)


def _merge(file_values: dict, flag_values: dict) -> dict:
    merged = dict(file_values)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value
    return merged


class Validator:
    """Collects every violated field so one run reports them all."""

    def __init__(self, values: dict, allowed: set[str] | None = None):
        self.values = values
        self.errors: list[str] = []
        if allowed is not None:
            for key in sorted(set(values) - allowed):
                self.errors.append(f"unknown field {key!r} (allowed: {sorted(allowed)})")

    def number(self, name, default=None, minimum=None, maximum=None, integer=False,
               exclusive_min=None, one_of=None):
        raw = self.values.get(name, default)
        if raw is None:
            self.errors.append(f"missing required field {name!r}")
            return None
        try:
            value = int(raw) if integer else float(raw)
            if integer and isinstance(raw, float) and raw != int(raw):
                raise ValueError
        except (TypeError, ValueError):
            kind = "an integer" if integer else "a number"
            self.errors.append(f"field {name!r} must be {kind}, got {raw!r}")
            return None
        if not integer and not math.isfinite(value):
            self.errors.append(f"field {name!r} must be finite, got {raw!r}")
            return None
        if minimum is not None and value < minimum:
            self.errors.append(f"field {name!r} must be >= {minimum}, got {value}")
            return None
        if exclusive_min is not None and value <= exclusive_min:
            self.errors.append(f"field {name!r} must be > {exclusive_min}, got {value}")
            return None
        if maximum is not None and value > maximum:
            self.errors.append(f"field {name!r} must be <= {maximum}, got {value}")
            return None
        if one_of is not None and value not in one_of:
            self.errors.append(f"field {name!r} must be one of {sorted(one_of)}, got {value}")
            return None
        return value

    def choice(self, name, options, default=None):
        raw = self.values.get(name, default)
        if raw not in options:
            self.errors.append(f"field {name!r} must be one of {sorted(options)}, got {raw!r}")
            return None
        return raw

    def table(self, name):
        raw = self.values.get(name)
        if raw is None:
            self.errors.append(f"missing required field {name!r}")
            return None
        if not isinstance(raw, (list, tuple)) or len(raw) != 4:
            self.errors.append(f"field {name!r} must hold 4 correlations, got {raw!r}")
            return None
        entries = []
        ok = True
        for k, v in enumerate(raw):
            try:
                value = float(v)
            except (TypeError, ValueError):
                self.errors.append(f"field {name!r}[{k}] must be a number, got {v!r}")
                ok = False
                continue
            if not math.isfinite(value) or abs(value) > 1.0:
                self.errors.append(f"field {name!r}[{k}] must lie in [-1, 1], got {value}")
                ok = False
                continue
            entries.append(value)
        return CorrelationTable(*entries) if ok else None

    def raise_if_any(self):
        if self.errors:
            raise ConfigErrors(self.errors)


# ---------------------------------------------------------------------------
# Atomic writers
# ---------------------------------------------------------------------------

def _umask() -> int:
    """The process umask; reading it means setting it, so it is put back."""
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def _write_atomic(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=str(target.parent), prefix=f".{target.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode open() would have
        os.chmod(tmp_name, 0o666 & ~_umask())
        os.replace(tmp_name, target)
    except Exception:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _write_json(path: str, payload: dict) -> None:
    _write_atomic(path, json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Frontier report serialization (round-trips with FrontierReport)
# ---------------------------------------------------------------------------

def frontier_report_to_json(report: FrontierReport) -> dict:
    return {
        "max_chsh": report.max_chsh,
        "argmax_table": report.argmax_table.as_dict(),
        "mode": report.mode,
        "rhs": report.rhs,
        "resolution": report.resolution,
        "critical_c": report.critical_c,
    }


def frontier_report_from_json(data: dict) -> FrontierReport:
    return FrontierReport(
        max_chsh=float(data["max_chsh"]),
        argmax_table=CorrelationTable(**data["argmax_table"]),
        mode=str(data["mode"]),
        rhs=float(data["rhs"]),
        resolution=int(data["resolution"]),
        critical_c=None if data.get("critical_c") is None else float(data["critical_c"]),
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

_DETECTORS = {d.value: d for d in Detector}


def cmd_simulate_signalling(args) -> int:
    values = _merge(_load_config_section(args.config, "simulate_signalling"), {
        "C": args.C,
        "N": args.N,
        "reps": args.reps,
        "sigma": args.sigma,
        "detector": args.detector,
        "threshold": args.threshold,
        "group_size": args.group_size,
        "seed": args.seed,
        "out": args.out,
        "format": args.format,
        "dump_batches": args.dump_batches,
    })
    v = Validator(values, allowed={
        "C", "N", "reps", "sigma", "detector", "threshold", "group_size",
        "seed", "out", "format", "dump_batches",
    })
    fmt = v.choice("format", {"json", "csv"}, default="json")
    c = v.number("C", default=1.0, minimum=0.0, maximum=1.0)
    n_pairs = v.number("N", default=16, minimum=1, integer=True)
    reps = v.number("reps", default=20_000, minimum=1, integer=True)
    sigma = v.number("sigma", default=0.1, minimum=0.0)
    detector_name = v.choice("detector", set(_DETECTORS), default="cov")
    threshold = v.number("threshold", default=1.0, exclusive_min=0.0, maximum=1.0)
    group_size = v.number("group_size", default=32, minimum=1, integer=True)
    seed = v.number("seed", default=0, minimum=0, maximum=2**64 - 1, integer=True)
    v.raise_if_any()
    try:
        cfg = ProtocolConfig(
            n_pairs=n_pairs,
            repetitions=reps,
            noise=NoiseModel(sigma),
            detector=_DETECTORS[detector_name],
            postselect_threshold=threshold,
            group_size=group_size,
        )
    except ValueError as exc:
        raise ConfigErrors([str(exc)]) from exc

    print(f"seed: {seed}")
    k_a, k_ap = make_scalar_extremal_couplings(c)
    report = run_protocol(k_a, k_ap, cfg, seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate-signalling",
        "config": {
            "C": c,
            "N": n_pairs,
            "reps": reps,
            "sigma": sigma,
            "detector": detector_name,
            "threshold": threshold,
            "group_size": group_size,
            "seed": seed,
        },
        "report": report_to_json(report),
    }
    out = values.get("out")
    dump = values.get("dump_batches")
    if dump:
        # export resolves a relative path against the directory of the JSON
        dump_ref = Path(dump)
        if out and not dump_ref.is_absolute():
            dump_ref = Path(os.path.relpath(dump_ref, Path(out).parent))
        payload["batches_csv"] = str(dump_ref)
        n_batches = (reps // group_size) * group_size
        buffer = io.StringIO()
        for strategy, coupling in ((Strategy.ALWAYS_A, k_a), (Strategy.ALWAYS_APRIME, k_ap)):
            arrays = sample_batches(
                coupling, n_pairs, n_batches, NoiseModel(sigma), seed,
                stream=STRATEGY_STREAM[strategy],
            )
            part = io.StringIO()
            write_batches_csv(part, arrays, strategy, n_pairs, seed)
            body = part.getvalue()
            if buffer.tell():
                body = body.split("\n", 1)[1]  # keep a single header
            buffer.write(body)
        _write_atomic(dump, buffer.getvalue())
    if out:
        if fmt == "json":
            _write_json(out, payload)
        else:
            row = SweepRow(
                c=c,
                n_pairs=n_pairs,
                repetitions=reps,
                sigma=sigma,
                detector=_DETECTORS[detector_name],
                report=report,
            )
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(SWEEP_CSV_HEADER.split(","))
            writer.writerow(row.csv_fields())
            _write_atomic(out, buffer.getvalue())
    print(f"advantage: {report.advantage:.6f}  ci: [{report.ci_low:.6f}, {report.ci_high:.6f}]")
    print(f"verdict: {report.verdict.value}  trials: {report.n_trials}  n_used: {report.n_used}")
    if report.suggested_repetitions is not None:
        print(f"suggested repetitions for 95% confidence: {report.suggested_repetitions:.1f}")
    return EXIT_OK


def cmd_verify_bounds(args) -> int:
    flag_table = list(args.table) if args.table is not None else None
    values = _merge(_load_config_section(args.config, "verify_bounds"), {
        "table": flag_table,
        "N": args.N,
        "out": args.out,
        "format": args.format,
    })
    v = Validator(values, allowed={"table", "N", "out", "format"})
    fmt = v.choice("format", {"json", "csv"}, default="json")
    table = v.table("table")
    n_pairs = v.number("N", default=1, minimum=1, integer=True)
    v.raise_if_any()

    check = causality_condition(table)
    tsirelson_ok = tsirelson_check(table)
    oriented = orient_for_bounds(table)
    budget = budget_from_table(oriented, n_pairs)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-bounds",
        "table": table.as_dict(),
        "chsh": chsh(table),
        "causality_lhs": check.lhs,
        "causality_ok": check.ok,
        "tsirelson_ok": tsirelson_ok,
        "lower_bound_a": variance_lower_bound_a(oriented, n_pairs),
        "lower_bound_ap": variance_lower_bound_ap(oriented, n_pairs),
        "budget_total": budget.total,
    }

    # identity checks: these hold for every table, so a failure is a defect
    failures = []
    if check.ok and not tsirelson_ok:
        failures.append("causality holds but the CHSH bound fails")
    flipped_lhs = causality_condition(orient_for_bounds(table)).lhs
    if not math.isclose(flipped_lhs, check.lhs, rel_tol=1e-12, abs_tol=1e-12):
        failures.append("causality left side changed under relabeling")
    model = vector_addition_model(oriented)
    if not math.isclose(
        model.implied_delta_a_sum(n_pairs),
        variance_lower_bound_a(oriented, n_pairs),
        abs_tol=1e-12,
    ):
        failures.append("vector model misses the B+B' equality case")
    payload["identities_ok"] = not failures
    if failures:
        payload["failures"] = failures

    out = values.get("out")
    if out:
        if fmt == "json":
            _write_json(out, payload)
        else:
            fields = [
                "c_ab", "c_abp", "c_apb", "c_apbp", "chsh", "causality_lhs",
                "causality_ok", "tsirelson_ok", "lower_bound_a", "lower_bound_ap",
                "budget_total",
            ]
            flat = {**table.as_dict(), **payload}
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(fields)
            writer.writerow([flat[k] for k in fields])
            _write_atomic(out, buffer.getvalue())
    print(json.dumps(payload, indent=2))
    return EXIT_OK if not failures else EXIT_INVARIANT


def cmd_scan_frontier(args) -> int:
    values = _merge(_load_config_section(args.config, "scan_frontier"), {
        "resolution": args.resolution,
        "symmetric": args.symmetric or None,
        "rhs": args.rhs,
        "out": args.out,
        "format": args.format,
        "summary": args.summary,
    })
    v = Validator(values, allowed={"resolution", "symmetric", "rhs", "out", "format", "summary"})
    fmt = v.choice("format", {"json", "csv"}, default="csv")
    resolution = v.number("resolution", default=10_001, minimum=10, integer=True)
    rhs = v.number("rhs", default=4.0, exclusive_min=0.0)
    v.raise_if_any()
    symmetric = bool(values.get("symmetric", False))

    report = frontier_scan(resolution, symmetric=symmetric, rhs=rhs)
    out = values.get("out")
    if out and fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if symmetric:
            writer.writerow(["C", "chsh", "causality_lhs", "feasible"])
            for c in np.linspace(0.0, 1.0, resolution):
                lhs = 8.0 * c * c
                writer.writerow(
                    [f"{c:.17g}", f"{4 * c:.17g}", f"{lhs:.17g}", str(lhs <= rhs).lower()]
                )
        else:
            writer.writerow(["x", "y", "chsh", "causality_margin"])
            x_max = min(2.0, math.sqrt(rhs))
            for x in np.linspace(-x_max, x_max, resolution):
                y = min(2.0, math.sqrt(max(rhs - x * x, 0.0)))
                writer.writerow(
                    [f"{x:.17g}", f"{y:.17g}", f"{x + y:.17g}", f"{rhs - x * x - y * y:.17g}"]
                )
        _write_atomic(out, buffer.getvalue())
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "scan-frontier",
        **frontier_report_to_json(report),
    }
    if out and fmt == "json":
        _write_json(out, summary)
    if values.get("summary"):
        _write_json(values["summary"], summary)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_couplings(args) -> int:
    flag_targets = list(args.targets) if args.targets is not None else None
    values = _merge(_load_config_section(args.config, "couplings"), {
        "C": args.C,
        "targets": flag_targets,
        "out": args.out,
        "format": args.format,
    })
    v = Validator(values, allowed={"C", "targets", "out", "format"})
    fmt = v.choice("format", {"json", "csv"}, default="json")
    targets_raw = values.get("targets")
    payload: dict = {"schema_version": SCHEMA_VERSION, "command": "couplings"}
    if targets_raw is not None:
        if not isinstance(targets_raw, (list, tuple)) or len(targets_raw) != 2:
            v.errors.append(f"field 'targets' must hold 2 correlations, got {targets_raw!r}")
            v.raise_if_any()
        pair = []
        for k, raw in enumerate(targets_raw):
            try:
                value = float(raw)
            except (TypeError, ValueError):
                v.errors.append(f"field 'targets'[{k}] must be a number, got {raw!r}")
                continue
            if not math.isfinite(value) or abs(value) > 1.0:
                v.errors.append(f"field 'targets'[{k}] must lie in [-1, 1], got {value}")
                continue
            pair.append(value)
        v.raise_if_any()
        c1, c2 = pair
        low = extremal_coupling(c1, c2, CouplingObjective.MIN_DISAGREE)
        high = extremal_coupling(c1, c2, CouplingObjective.MAX_DISAGREE)
        bounds = coupling_bounds(c1, c2)
        payload.update(
            mode="targets",
            targets=[c1, c2],
            couplings={
                "min_disagree": coupling_to_json(low),
                "max_disagree": coupling_to_json(high),
            },
            bounds=vars(bounds).copy(),
            validation={
                "min_disagree": validate_coupling(low, (c1, c2)).ok,
                "max_disagree": validate_coupling(high, (c1, c2)).ok,
            },
        )
    else:
        c = v.number("C", default=1.0, minimum=0.0, maximum=1.0)
        v.raise_if_any()
        k_a, k_ap = make_scalar_extremal_couplings(c)
        payload.update(
            mode="scalar_pair",
            C=c,
            couplings={"under_a": coupling_to_json(k_a), "under_aprime": coupling_to_json(k_ap)},
            bounds={
                "under_a": vars(coupling_bounds(c, c)).copy(),
                "under_aprime": vars(coupling_bounds(c, -c)).copy(),
            },
            validation={
                "under_a": validate_coupling(k_a, (c, c)).ok,
                "under_aprime": validate_coupling(k_ap, (c, -c)).ok,
            },
        )
    out = values.get("out")
    if out:
        if fmt == "json":
            _write_json(out, payload)
        else:
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(["arm", "i", "j", "jp", "probability"])
            for arm, data in payload["couplings"].items():
                pmf = data["pmf"]
                for idx, probability in enumerate(pmf):
                    i = 1 if idx < 4 else -1
                    j = 1 if (idx >> 1) % 2 == 0 else -1
                    jp = 1 if idx % 2 == 0 else -1
                    writer.writerow([arm, i, j, jp, f"{probability:.17g}"])
            _write_atomic(out, buffer.getvalue())
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_export(args) -> int:
    values = _merge(_load_config_section(args.config, "export"), {
        "run_dir": args.run_dir,
        "out_dir": args.out_dir,
    })
    v = Validator(values, allowed={"run_dir", "out_dir"})
    run_dir = values.get("run_dir")
    out_dir = values.get("out_dir")
    if not run_dir:
        v.errors.append("missing required field 'run_dir'")
    elif not Path(run_dir).is_dir():
        v.errors.append(f"run_dir does not exist: {run_dir}")
    if not out_dir:
        v.errors.append("missing required field 'out_dir'")
    v.raise_if_any()

    reports = []
    batch_files = []
    for path in sorted(Path(run_dir).glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if data.get("command") == "simulate-signalling":
            reports.append((path, data))
            if data.get("batches_csv"):
                candidate = Path(data["batches_csv"])
                if not candidate.is_absolute():
                    candidate = path.parent / candidate
                if candidate.exists() and candidate not in batch_files:
                    batch_files.append(candidate)
    if not reports and not batch_files:
        raise ConfigErrors([f"no signalling artifacts found in {run_dir}"])

    Path(out_dir).mkdir(parents=True, exist_ok=True)
    written = []

    if reports:
        rows = []
        for _, data in reports:
            cfg = data.get("config", {})
            rep = report_from_json(data["report"])
            rows.append(
                (
                    cfg.get("C", math.nan),
                    cfg.get("N", 0),
                    cfg.get("reps", 0),
                    cfg.get("sigma", math.nan),
                    cfg.get("detector", "?"),
                    rep,
                )
            )
        rows.sort(key=lambda r: (r[0], r[1], r[3]))
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow("C,N,R,sigma,detector,advantage,ci_low,ci_high,n_used,verdict".split(","))
        for c, n, reps, sigma, det, rep in rows:
            writer.writerow(
                [
                    f"{c:.17g}",
                    n,
                    reps,
                    f"{sigma:.17g}",
                    det,
                    f"{rep.advantage:.17g}",
                    f"{rep.ci_low:.17g}",
                    f"{rep.ci_high:.17g}",
                    rep.n_used,
                    rep.verdict.value,
                ]
            )
        target = str(Path(out_dir) / "advantage_curve.csv")
        _write_atomic(target, buffer.getvalue())
        written.append(target)

    for batch_file in batch_files:
        counts: dict[tuple[str, float], int] = {}
        with open(batch_file) as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                key = (row["strategy"], round(float(row["B"]) + float(row["Bprime"]), 12))
                counts[key] = counts.get(key, 0) + 1
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["strategy", "value", "count"])
        for (strategy, value), count in sorted(counts.items()):
            writer.writerow([strategy, f"{value:.17g}", count])
        target = str(Path(out_dir) / f"hist_{batch_file.stem}.csv")
        _write_atomic(target, buffer.getvalue())
        written.append(target)

    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (one section per command)")
    parser.add_argument("--out", help="output path")
    parser.add_argument("--format", choices=("json", "csv"), help="format of the --out file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsbox",
        description="No-signalling boxes, extremal couplings, and macroscopic signalling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-signalling", help="run the strategy-guessing protocol")
    _add_common(p)
    p.add_argument("--C", type=float, help="correlation strength of the tilted family [0, 1]")
    p.add_argument("--N", type=int, help="pairs per batch")
    p.add_argument("--reps", type=int, help="batches per strategy")
    p.add_argument("--sigma", type=float, help="read-out noise level")
    p.add_argument("--detector", choices=sorted(_DETECTORS), help="Bob's decision rule")
    p.add_argument("--threshold", type=float, help="post-selection threshold in (0, 1]")
    p.add_argument("--group-size", dest="group_size", type=int, help="batches per decision")
    p.add_argument("--seed", type=int, help="64-bit seed (default 0)")
    p.add_argument("--dump-batches", dest="dump_batches", help="also write the batch CSV here")
    p.set_defaults(func=cmd_simulate_signalling)

    p = sub.add_parser("verify-bounds", help="causality and CHSH checks for one table")
    _add_common(p)
    p.add_argument("--table", type=float, nargs=4, metavar=("C_AB", "C_ABP", "C_APB", "C_APBP"))
    p.add_argument("--N", type=int, help="pairs per batch for the bound scale")
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("scan-frontier", help="maximal CHSH under the quadratic constraint")
    _add_common(p)
    p.add_argument("--resolution", type=int, help="grid points (>= 10)")
    p.add_argument("--symmetric", action="store_true", help="restrict to tables (C, C, C, -C)")
    p.add_argument("--rhs", type=float, help="right side of the quadratic constraint (default 4)")
    p.add_argument("--summary", help="also write the JSON summary here")
    p.set_defaults(func=cmd_scan_frontier)

    p = sub.add_parser("couplings", help="extremal couplings and bounds for targets")
    _add_common(p)
    p.add_argument("--C", type=float, help="scalar pair strength in [0, 1]")
    p.add_argument("--targets", type=float, nargs=2, metavar=("C_XB", "C_XBP"))
    p.set_defaults(func=cmd_couplings)

    p = sub.add_parser("export", help="convert stored reports to plot-ready CSV")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--run-dir", dest="run_dir", help="directory of prior run artifacts")
    p.add_argument("--out-dir", dest="out_dir", help="directory for CSV output")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigErrors as exc:
        for error in exc.errors:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
