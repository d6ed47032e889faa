"""Command-line front end.

Five commands: simulate-signalling, verify-bounds, scan-frontier, couplings,
export.  Parameters come from an optional JSON config file (one section per
command) with flags overriding file values; a field's name is its flag's
argparse dest.  Each number is checked by the library's `_checked_int` or
`_checked_real`, so a count written as 16.0 is a config error.  All
randomized commands print the resolved seed.  Path fields must be strings,
an output path must name a file in an existing directory, and no two
output paths may name one file; all are checked before any compute, and
output files are written atomically (temp file + rename), so failures
never leave partial artifacts.

Each command imports only the modules it runs: verify-bounds, export,
couplings and scan-frontier (its grid in Python floats) load no numpy, and
simulate-signalling imports the coupling, sampling and protocol modules
inside its command function.

Exit codes: 0 success; 1 verify-bounds found a table that satisfies the
causality condition with some |CHSH| above 2 sqrt(2); 2 invalid
configuration (every bad field is listed); 3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import os
import sys
from pathlib import Path
from typing import Iterator, TextIO

from .boxes import _MAX_SEED, _MAX_SIGMA, CorrelationTable, _checked_int, _checked_real, chsh
from .causality import (
    causality_condition,
    frontier_grid,
    frontier_scan,
    tsirelson_check,
    variance_lower_bound_a,
    variance_lower_bound_ap,
)
from .records import (
    Detector, SweepRow, _sweep_row, read_batch_histogram, write_bounds_csv, write_couplings_csv,
    write_grid_csv, write_histogram_csv, write_sweep_csv,
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


class Validator:
    """Collects every violated field so one run reports them all."""

    def __init__(self, values: dict, allowed: set[str]):
        self.values = values
        self.errors = [
            f"unknown field {key!r} (allowed: {sorted(allowed)})"
            for key in sorted(set(values) - allowed)
        ]

    def number(self, name, default, check, what, *limits, **options):
        """The field through `check` (`_checked_int` or `_checked_real`), or
        None with the helper's message listed."""
        try:
            return check(self.values.get(name, default), f"field {name!r}", what, *limits,
                         **options)
        except ValueError as exc:
            self.errors.append(str(exc))
            return None

    def choice(self, name, options: tuple, default=None):
        raw = self.values.get(name, default)
        if raw not in options:  # compared, never hashed: a list is a config error too
            self.errors.append(f"field {name!r} must be one of {sorted(options)}, got {raw!r}")
            return None
        return raw

    def flag(self, name, default):
        raw = self.values.get(name, default)
        if not isinstance(raw, bool):
            self.errors.append(f"field {name!r} must be true or false, got {raw!r}")
        return raw is True

    def correlations(self, name, count):
        """A list of `count` correlations, each in [-1, 1]."""
        raw = self.values.get(name)
        if raw is None:
            self.errors.append(f"missing required field {name!r}")
            return None
        if not isinstance(raw, (list, tuple)) or len(raw) != count:
            self.errors.append(f"field {name!r} must hold {count} correlations, got {raw!r}")
            return None
        entries = []
        for k, value in enumerate(raw):
            try:
                entries.append(_checked_real(value, f"field {name!r}[{k}]", "a real in [-1, 1]",
                                             -1.0, 1.0))
            except ValueError as exc:
                self.errors.append(str(exc))
        return entries if len(entries) == count else None

    def raise_if_any(self):
        if self.errors:
            raise ConfigErrors(self.errors)


#: Fields naming files a command writes; their directories must exist.
_OUTPUT_FIELDS = ("out", "dump_batches", "summary")
#: Fields naming a file or directory; each must be a string.
_PATH_FIELDS = (*_OUTPUT_FIELDS, "run_dir", "out_dir")


def _resolve(args) -> Validator:
    """The command's config section with every given flag on top.

    The subparser's dests are the command's fields, so they name both the
    section keys it allows and the flags that override them.  Path fields
    and output paths are checked here, before any compute: an output path
    must not be a directory or end in a separator, its directory must
    exist, and two output fields must not name one file.
    """
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func", "config")}
    values = _load_config_section(args.config, args.command.replace("-", "_"))
    values.update((k, v) for k, v in flags.items() if v is not None)
    paths = {k: values[k] for k in _PATH_FIELDS if k in flags and values.get(k) is not None}
    v = Validator(values, allowed=set(flags))
    v.errors += [
        f"field {k!r} must be a string, got {path!r}"
        for k, path in paths.items() if not isinstance(path, str)
    ]
    seen: dict[str, str] = {}  # real path -> the first output field naming it
    for key in _OUTPUT_FIELDS:
        path = paths.get(key)
        if not (isinstance(path, str) and path):
            continue
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, "output directory does not exist", path)
        # Path drops a trailing separator, so "new/" would write a file "new"
        if path.endswith(("/", os.sep)) or Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, "output path is a directory", path)
        first = seen.setdefault(os.path.realpath(path), key)
        if first != key:
            v.errors.append(f"fields {first!r} and {key!r} name one file: {path}")
    return v


# ---------------------------------------------------------------------------
# Atomic writers
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _atomic_file(path: str) -> Iterator[TextIO]:
    """A text handle on a new hidden file beside `path`, created with the
    mode the umask gives any new file, renamed onto `path` when the block
    ends and removed if the block raises."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: str, payload: dict) -> None:
    with _atomic_file(path) as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")


def _write_out(v: Validator, fmt: str, payload: dict, write_csv) -> None:
    """Write the --out file, if one is given: the payload as JSON, or the
    CSV that `write_csv(handle)` writes."""
    out = v.values.get("out")
    if out and fmt == "json":
        _write_json(out, payload)
    elif out:
        with _atomic_file(out) as handle:
            write_csv(handle)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _envelope(args, **fields) -> dict:
    """A command's JSON payload: the schema version and command name first."""
    return {"schema_version": SCHEMA_VERSION, "command": args.command, **fields}


def cmd_simulate_signalling(args) -> int:
    from .coupling import make_scalar_extremal_couplings
    from .macro import NoiseModel, write_batches_csv
    from .signalling import (
        ARMS, ProtocolConfig, draw_arms, protocol_batches, report_to_json, score_arms,
    )

    v = _resolve(args)
    fmt = v.choice("format", ("json", "csv"), default="json")
    # the resolved fields, in the order the report's config records them
    config = {
        "C": v.number("C", 1.0, _checked_real, "a real in [0, 1]", 0.0, 1.0),
        "N": v.number("N", 16, _checked_int, "a positive integer", 1),
        "reps": v.number("reps", 20_000, _checked_int, "a positive integer", 1),
        "sigma": v.number("sigma", 0.1, _checked_real, f"a real in [0, {_MAX_SIGMA:g}]", 0.0,
                          _MAX_SIGMA),
        "detector": v.choice("detector", tuple(d.value for d in Detector), default="cov"),
        "threshold": v.number("threshold", 1.0, _checked_real, "a real in (0, 1]", 0.0, 1.0,
                              low_open=True),
        "group_size": v.number("group_size", 32, _checked_int, "a positive integer", 1),
        "seed": v.number("seed", 0, _checked_int, "a 64-bit unsigned integer", 0, _MAX_SEED),
    }
    v.raise_if_any()
    try:
        cfg = ProtocolConfig(
            n_pairs=config["N"],
            repetitions=config["reps"],
            noise=NoiseModel(config["sigma"]),
            detector=Detector(config["detector"]),
            postselect_threshold=config["threshold"],
            group_size=config["group_size"],
        )
    except ValueError as exc:
        raise ConfigErrors([str(exc)]) from exc

    c, n_pairs, seed = config["C"], cfg.n_pairs, config["seed"]
    print(f"seed: {seed}")
    k_a, k_ap = make_scalar_extremal_couplings(c)
    # one draw serves both the report and the batch dump
    arms = draw_arms(k_a, k_ap, n_pairs, protocol_batches(cfg), cfg.noise, seed)
    report = score_arms(k_a, k_ap, arms, cfg)
    payload = _envelope(args, config=config, report=report_to_json(report))
    out = v.values.get("out")
    dump = v.values.get("dump_batches")
    if dump:
        # export resolves a relative path against the directory of the JSON
        dump_ref = Path(dump)
        if out and not dump_ref.is_absolute():
            dump_ref = Path(os.path.relpath(dump_ref, Path(out).parent))
        payload["batches_csv"] = str(dump_ref)
        with _atomic_file(dump) as handle:
            write_batches_csv(handle, zip(ARMS, arms), n_pairs, seed)
    row = SweepRow(c, n_pairs, cfg.repetitions, cfg.noise.sigma, cfg.detector, report)
    _write_out(v, fmt, payload, lambda handle: write_sweep_csv(handle, [row]))
    print(f"advantage: {report.advantage:.6f}  ci: [{report.ci_low:.6f}, {report.ci_high:.6f}]")
    print(f"verdict: {report.verdict.value}  trials: {report.n_trials}  n_used: {report.n_used}")
    if report.suggested_repetitions is not None:
        print(f"suggested repetitions for 95% confidence: {report.suggested_repetitions:.1f}")
    return EXIT_OK


def cmd_verify_bounds(args) -> int:
    v = _resolve(args)
    fmt = v.choice("format", ("json", "csv"), default="json")
    entries = v.correlations("table", 4)
    n_pairs = v.number("N", 1, _checked_int, "a positive integer", 1)
    v.raise_if_any()
    table = CorrelationTable(*entries)

    check = causality_condition(table)
    tsirelson_ok = tsirelson_check(table)
    payload = _envelope(
        args,
        table=table.as_dict(),
        chsh=chsh(table),
        causality_lhs=check.lhs,
        causality_ok=check.ok,
        tsirelson_ok=tsirelson_ok,
        lower_bound_a=variance_lower_bound_a(table, n_pairs),
        lower_bound_ap=variance_lower_bound_ap(table, n_pairs),
        budget_total=4.0 / n_pairs,  # Var(B+B') + Var(B-B') for batches of N
    )

    # the paper's implication, checked against the independently computed
    # CHSH values: a failure is a defect
    failures = []
    if check.ok and not tsirelson_ok:
        failures.append("causality holds but the CHSH bound fails")
    payload["identities_ok"] = not failures
    if failures:
        payload["failures"] = failures

    flat = {**table.as_dict(), **payload}
    _write_out(v, fmt, payload, lambda handle: write_bounds_csv(handle, flat))
    print(json.dumps(payload, indent=2))
    return EXIT_OK if not failures else EXIT_INVARIANT


def cmd_scan_frontier(args) -> int:
    v = _resolve(args)
    fmt = v.choice("format", ("json", "csv"), default="csv")
    resolution = v.number("resolution", 10_001, _checked_int, "an integer of at least 10", 10)
    rhs = v.number("rhs", 4.0, _checked_real, "finite and positive", 0.0, low_open=True)
    symmetric = v.flag("symmetric", default=False)
    v.raise_if_any()

    report = frontier_scan(resolution, symmetric=symmetric, rhs=rhs)
    summary = _envelope(args, **dataclasses.asdict(report))
    _write_out(v, fmt, summary, lambda handle: write_grid_csv(
        handle, frontier_grid(resolution, symmetric, rhs)))
    if v.values.get("summary"):
        _write_json(v.values["summary"], summary)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_couplings(args) -> int:
    from .coupling import (
        CouplingObjective, coupling_bounds, coupling_to_json, extremal_coupling,
        make_scalar_extremal_couplings, validate_coupling,
    )

    v = _resolve(args)
    fmt = v.choice("format", ("json", "csv"), default="json")
    payload = _envelope(args)
    if v.values.get("targets") is not None:
        pair = v.correlations("targets", 2)
        v.raise_if_any()
        if v.values.get("C") is not None:
            print("warning: ignored C: targets given", file=sys.stderr)
        payload.update(mode="targets", targets=pair)
        arms = {
            "min_disagree": (extremal_coupling(*pair, CouplingObjective.MIN_DISAGREE), pair),
            "max_disagree": (extremal_coupling(*pair, CouplingObjective.MAX_DISAGREE), pair),
        }
        bounds = vars(coupling_bounds(*pair)).copy()
    else:
        c = v.number("C", 1.0, _checked_real, "a real in [0, 1]", 0.0, 1.0)
        v.raise_if_any()
        payload.update(mode="scalar_pair", C=c)
        k_a, k_ap = make_scalar_extremal_couplings(c)
        arms = {"under_a": (k_a, (c, c)), "under_aprime": (k_ap, (c, -c))}
        bounds = {arm: vars(coupling_bounds(*t)).copy() for arm, (_, t) in arms.items()}
    payload.update(
        couplings={arm: coupling_to_json(k) for arm, (k, _) in arms.items()},
        bounds=bounds,
        validation={arm: validate_coupling(k, t).ok for arm, (k, t) in arms.items()},
    )
    _write_out(v, fmt, payload, lambda handle: write_couplings_csv(handle, payload["couplings"]))
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _warn_skipped(path, reason) -> None:
    print(f"warning: skipped {path}: {reason}", file=sys.stderr)


def cmd_export(args) -> int:
    v = _resolve(args)
    run_dir = v.values.get("run_dir")
    out_dir = v.values.get("out_dir")
    # a path of another type is reported by `_resolve`
    if run_dir in (None, ""):
        v.errors.append("missing required field 'run_dir'")
    elif isinstance(run_dir, str) and not Path(run_dir).is_dir():
        v.errors.append(f"run_dir does not exist: {run_dir}")
    if out_dir in (None, ""):
        v.errors.append("missing required field 'out_dir'")
    v.raise_if_any()

    rows = []
    batch_files = []
    for path in sorted(Path(run_dir).glob("*.json")):
        try:
            data = json.loads(path.read_text())
            row = _sweep_row(data)
            batches = data.get("batches_csv")
            if batches is not None and not (isinstance(batches, str) and batches):
                raise TypeError(f"batches_csv must be a path, got {batches!r}")
            # a relative path is relative to the report; an absolute one stays
            batches = batches and path.parent / batches
        except KeyError as exc:
            _warn_skipped(path, f"missing field {exc}")
            continue
        except (OSError, ValueError, TypeError) as exc:
            _warn_skipped(path, exc)
            continue
        # a report gives its row and its batch file, or neither
        rows.append(row)
        if batches and batches not in batch_files:
            batch_files.append(batches)
    if not rows:
        raise ConfigErrors([f"no signalling artifacts found in {run_dir}"])

    Path(out_dir).mkdir(parents=True, exist_ok=True)
    rows.sort(key=lambda r: (r.c, r.n_pairs, r.sigma))
    written = [str(Path(out_dir) / "advantage_curve.csv")]
    with _atomic_file(written[0]) as handle:
        write_sweep_csv(handle, rows)

    for batch_file in batch_files:
        # batch files of one name in two directories would share a histogram
        target = str(Path(out_dir) / f"hist_{batch_file.stem}.csv")
        if target in written:
            _warn_skipped(batch_file, f"{target} already written")
            continue
        try:
            with open(batch_file) as handle:
                counts = read_batch_histogram(handle)
        except (OSError, ValueError, TypeError) as exc:
            _warn_skipped(batch_file, exc)
            continue
        with _atomic_file(target) as handle:
            write_histogram_csv(handle, counts)
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
        description="Correlation tables, extremal couplings, and macroscopic signalling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-signalling", help="run the strategy-guessing protocol")
    _add_common(p)
    p.add_argument("--C", type=float, help="correlation strength of the tilted family [0, 1]")
    p.add_argument("--N", type=int, help="pairs per batch")
    p.add_argument("--reps", type=int, help="batches per strategy")
    p.add_argument("--sigma", type=float, help="read-out noise level")
    p.add_argument(
        "--detector", choices=sorted(d.value for d in Detector), help="Bob's decision rule"
    )
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
    p.add_argument(
        "--symmetric", action="store_true", default=None, help="restrict to tables (C, C, C, -C)"
    )
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
