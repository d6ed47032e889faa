"""The four workloads: op lists made from the workload seed, and the checks
every op's output must pass.

An op's ``run`` returns ``(result, seconds)``; only the call into nsbox is
timed.  ``record`` turns a result into JSON-able values (floats at 17
significant digits); keys starting with ``_`` are compared between passes
but not stored as reference.  ``check`` returns ``(kind, message)``
problems: ``WRONG`` when a value is wrong, ``MISSING`` when the op raised,
exited non-zero or left out an artifact.  Both make the op fail; only
``WRONG`` makes the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from functools import partial
from io import StringIO
from pathlib import Path
from typing import Callable

import nsbox
import nsbox.cli
from nsbox import (
    CorrelationTable,
    Detector,
    NoiseModel,
    ProtocolConfig,
    advantage_ceiling,
    exact_tv_distance,
    resource_sweep,
    run_protocol,
)
from nsbox.signalling import MAX_EXACT_PAIRS, report_to_json

from couplings import CLI_C, ORACLE_C, PROTOCOL_C, SWEEP_C

WORKLOADS = ("protocol", "sweep-macro", "exact-oracle", "cli")
#: The workloads BENCHMARK.json lists.  ``protocol`` runs only when asked
#: for: its run-to-run spread on a shared host is too close to its bound.
BENCHMARKED = ("sweep-macro", "exact-oracle", "cli")
DEFAULT_SEED = 1

WRONG = "wrong"
MISSING = "missing"

#: exact_tv_distance states about 1e-6 accuracy for sigma >= 0.01, so a
#: noisy TV may exceed the noise-free one by that much without being wrong.
TV_TOL = 1e-6
#: The empirical advantage is a binomial proportion; allowing 5 standard
#: errors above the TV ceiling keeps a spurious failure near 3e-7 per check.
CEILING_SE = 5.0


@dataclass
class Op:
    key: str
    run: Callable[[], tuple[object, float]]
    record: Callable[[object], dict]
    check: Callable[[object, dict], list[tuple[str, str]]]
    pairs: int = 0  # simulated pairs (batches x N, both arms)


def op_seed(workload_seed: int, key: str) -> int:
    digest = hashlib.sha256(f"{workload_seed}/{key}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def canon(value):
    """JSON-able copy with every float written at 17 significant digits."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, dict):
        return {k: canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    return value


def call(name: str, *args, **kwargs):
    """Time one nsbox call, looking the function up at call time so that a
    span wrapper installed on the package is what runs."""
    fn = getattr(nsbox, name)
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class Checker:
    """Checks each op result; an op whose record matches its first pass
    inherits that pass's verdict, so costly checks run once per run."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first: dict[str, tuple[dict, list]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: Counter = Counter()

    def __call__(self, op, result) -> None:
        record = op.record(result)
        if op.key in self.first and self.first[op.key][0] == record:
            problems = self.first[op.key][1]
        else:
            problems = list(op.check(result, record))
            if op.key in self.first:
                problems.append((WRONG, "output changed between passes"))
            if self.reference is not None:
                problems += self._against_reference(op.key, record)
            self.first.setdefault(op.key, (record, problems))
        self._tally(op.key, problems)

    def error(self, op, exc: BaseException) -> None:
        self._tally(op.key, [(MISSING, f"raised {type(exc).__name__}: {exc}")])

    def _against_reference(self, key: str, record: dict) -> list:
        expected = self.reference.get(key)
        if expected is None:
            return [(WRONG, "no reference output stored for this op")]
        return [
            (WRONG, f"{field} differs from the reference output")
            for field, value in expected.items()
            if record.get(field) != value
        ]

    def _tally(self, key: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += any(kind == WRONG for kind, _ in problems)
            for kind, message in problems:
                self.problems[f"{key}: {kind}: {message}"] += 1


def _batches(cfg: ProtocolConfig) -> int:
    return (cfg.repetitions // cfg.group_size) * cfg.group_size


def _ceiling_problems(advantage: float, n_trials: int, tv: float, group_size: int):
    if n_trials == 0:
        return []
    ceiling = advantage_ceiling(tv, group_size)
    slack = CEILING_SE * math.sqrt(0.25 / n_trials)
    if advantage > ceiling + slack:
        return [(WRONG, f"advantage {advantage!r} above TV ceiling {ceiling!r} + {slack:.3g}")]
    return []


def _report_problems(report, cfg: ProtocolConfig, tv: float | None):
    n_groups = cfg.repetitions // cfg.group_size
    problems = []
    if not 0 <= report.n_trials <= 2 * n_groups:
        problems.append((WRONG, f"n_trials {report.n_trials} outside [0, {2 * n_groups}]"))
    if not 0 <= report.n_used <= 2 * _batches(cfg):
        problems.append((WRONG, f"n_used {report.n_used} outside [0, {2 * _batches(cfg)}]"))
    if tv is not None:
        if not 0.0 <= tv <= 1.0:
            problems.append((WRONG, f"exact TV {tv!r} outside [0, 1]"))
        problems += _ceiling_problems(report.advantage, report.n_trials, tv, cfg.group_size)
    return problems


# ---------------------------------------------------------------------------
# protocol: run_protocol on the scalar pair, three detector configs per C
# ---------------------------------------------------------------------------

PROTOCOL_R = 20_000
PROTOCOL_CONFIGS = (  # label, detector, N, sigma, post-selection threshold
    ("cov-N16", Detector.COVARIANCE_SIGN, 16, 0.1, 1.0),
    ("postselect-N8", Detector.POSTSELECT_EXTREMES, 8, 0.1, 0.75),
    ("lr-N12", Detector.LIKELIHOOD, 12, 0.05, 1.0),
)


def protocol_ops(seed: int, pairs: dict) -> list[Op]:
    ops = []
    for c in PROTOCOL_C:
        k_a, k_ap = pairs[c]
        for label, detector, n, sigma, threshold in PROTOCOL_CONFIGS:
            cfg = ProtocolConfig(
                n_pairs=n,
                repetitions=PROTOCOL_R,
                noise=NoiseModel(sigma),
                detector=detector,
                postselect_threshold=threshold,
            )
            key = f"protocol/C={c}/{label}"
            tv = exact_tv_distance(k_a, k_ap, n, cfg.noise) if n <= MAX_EXACT_PAIRS else None
            ops.append(Op(
                key=key,
                run=partial(call, "run_protocol", k_a, k_ap, cfg, op_seed(seed, key)),
                record=lambda report: {"report": canon(report_to_json(report))},
                check=lambda report, _rec, cfg=cfg, tv=tv: _report_problems(report, cfg, tv),
                pairs=2 * _batches(cfg) * n,
            ))
    return ops


# ---------------------------------------------------------------------------
# sweep-macro: one resource_sweep per op at large N
# ---------------------------------------------------------------------------

SWEEP_N = (256, 1024)
SWEEP_R = (4096, 8192)
SWEEP_SIGMA = (0.05,)
SWEEP_DETECTORS = (Detector.COVARIANCE_SIGN, Detector.POSTSELECT_EXTREMES)
SWEEP_BASE = ProtocolConfig(
    n_pairs=max(SWEEP_N), repetitions=max(SWEEP_R), noise=NoiseModel(0.0), postselect_threshold=0.5
)


def _sweep_problems(rows, k_a, k_ap, c, seed):
    expected = len(SWEEP_N) * len(SWEEP_R) * len(SWEEP_SIGMA) * len(SWEEP_DETECTORS)
    problems = []
    if len(rows) != expected:
        problems.append((WRONG, f"{len(rows)} sweep rows, expected {expected}"))
    for row in rows:
        cfg = replace(
            SWEEP_BASE,
            n_pairs=row.n_pairs,
            repetitions=row.repetitions,
            noise=NoiseModel(row.sigma),
            detector=row.detector,
        )
        direct = run_protocol(k_a, k_ap, cfg, seed)
        if row.c != c or row.report != direct:
            problems.append((WRONG, f"sweep row {row.csv_fields()} differs from run_protocol"))
    return problems


def sweep_ops(seed: int, pairs: dict) -> list[Op]:
    ops = []
    for c in SWEEP_C:
        k_a, k_ap = pairs[c]
        key = f"sweep-macro/C={c}"
        s = op_seed(seed, key)
        group = SWEEP_BASE.group_size
        pairs_per_detector = sum(2 * (r // group) * group * n for n in SWEEP_N for r in SWEEP_R)
        ops.append(Op(
            key=key,
            run=partial(
                call, "resource_sweep", CorrelationTable(c, c, c, -c),
                SWEEP_N, SWEEP_R, SWEEP_SIGMA, s,
                detectors=SWEEP_DETECTORS, base_config=SWEEP_BASE,
            ),
            record=lambda rows: {"rows": [row.csv_fields() for row in rows]},
            check=lambda rows, _rec, k_a=k_a, k_ap=k_ap, c=c, s=s: _sweep_problems(
                rows, k_a, k_ap, c, s
            ),
            pairs=pairs_per_detector * len(SWEEP_SIGMA) * len(SWEEP_DETECTORS),
        ))
    return ops


# ---------------------------------------------------------------------------
# exact-oracle: one exact_tv_distance per op; nothing is sampled, so the
# workload seed does not change the inputs
# ---------------------------------------------------------------------------

ORACLE_POINTS = ((12, 0.0), (12, 0.1), (12, 0.01), (8, 0.01))


def _tv_problems(tv: float, noise_free: float):
    problems = []
    if not 0.0 <= tv <= 1.0:
        problems.append((WRONG, f"TV {tv!r} outside [0, 1]"))
    if tv > noise_free + TV_TOL:
        problems.append((WRONG, f"noisy TV {tv!r} above noise-free TV {noise_free!r}"))
    return problems


def oracle_ops(seed: int, pairs: dict) -> list[Op]:
    ops = []
    for c in ORACLE_C:
        k_a, k_ap = pairs[c]
        for n, sigma in ORACLE_POINTS:
            noise_free = exact_tv_distance(k_a, k_ap, n, NoiseModel(0.0))
            ops.append(Op(
                key=f"exact-oracle/C={c}/N={n}/sigma={sigma}",
                run=partial(call, "exact_tv_distance", k_a, k_ap, n, NoiseModel(sigma)),
                record=lambda tv: {"tv": canon(tv)},
                check=lambda tv, _rec, nf=noise_free: _tv_problems(tv, nf),
            ))
    return ops


# ---------------------------------------------------------------------------
# cli: one nsbox process per op, files laid out as in the README config
# ---------------------------------------------------------------------------

#: Runs ``nsbox`` the way its console-script entry point does.
CLI_ENTRY = "import sys; from nsbox.cli import main; sys.exit(main())"
CONFIG_NAME = "nsbox.json"


def readme_config(seed: int) -> dict:
    """The config file shown in the README, with the derived seed."""
    return {
        "simulate_signalling": {
            "C": 1.0, "N": 16, "reps": 20000, "sigma": 0.1,
            "detector": "cov", "threshold": 1.0, "group_size": 32, "seed": seed,
        },
        "verify_bounds": {"table": [0.7071, 0.7071, 0.7071, -0.7071], "N": 1},
        "scan_frontier": {"resolution": 10001, "symmetric": False, "rhs": 4.0},
        "couplings": {"C": 0.8},
        "export": {"run_dir": "runs/", "out_dir": "csv/"},
    }


def child_env(src: Path) -> dict:
    """Environment for a fresh interpreter that imports nsbox from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


@dataclass
class CliResult:
    exit: int
    stdout: str
    stderr: str
    written: dict  # path relative to the work dir -> (size, mode)


def _snapshot(root: Path) -> dict:
    out = {}
    for path in root.rglob("*"):
        if path.is_file():
            st = path.stat()
            out[path.relative_to(root).as_posix()] = (st.st_mtime_ns, st.st_size, st.st_mode)
    return out


class CliRunner:
    """Runs nsbox commands in a work directory, as a fresh process per op or,
    for the traced run, through ``nsbox.cli.main`` in this process."""

    def __init__(self, work: Path, src: Path, seed: int, in_process: bool):
        self.work = work
        self.io = work.parent / (work.name + "-io")
        self.src = src
        self.seed = seed
        self.in_process = in_process
        self.max_rss_kb = 0  # largest op process, as reported by wait4

    def reset(self) -> None:
        """Fresh work directory before each pass, so no artifact of an
        earlier pass can satisfy a check."""
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "runs").mkdir(parents=True)
        self.io.mkdir(parents=True, exist_ok=True)
        (self.work / CONFIG_NAME).write_text(json.dumps(readme_config(self.seed), indent=2))

    def run(self, argv: list[str]) -> tuple[CliResult, float]:
        before = _snapshot(self.work)
        if self.in_process:
            result, seconds = self._run_in_process(argv)
        else:
            result, seconds = self._run_process(argv)
        after = _snapshot(self.work)
        result.written = {
            path: (size, mode) for path, (mtime, size, mode) in after.items()
            if before.get(path, (None,))[0] != mtime
        }
        return result, seconds

    def _run_process(self, argv):
        env = child_env(self.src)
        with open(self.io / "stdout", "w+") as out, open(self.io / "stderr", "w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", CLI_ENTRY, *argv],
                cwd=self.work, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            )
            # wait4 reaps the child and returns its own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return CliResult(proc.returncode, out.read(), err.read(), {}), seconds

    def _run_in_process(self, argv):
        out, err = StringIO(), StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = nsbox.cli.main(argv)
                except SystemExit as exc:  # argparse rejects its arguments
                    code = exc.code if isinstance(exc.code, int) else 2
                seconds = time.perf_counter() - t0
        finally:
            os.chdir(cwd)
        return CliResult(code, out.getvalue(), err.getvalue(), {}), seconds


def _file_digest(path: Path, columns: tuple[str, ...] | None = None) -> dict | None:
    """Row count and sha256 of a CSV, over the named columns only when given
    (so that a column added later does not change the digest)."""
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    rows = 0
    with open(path, newline="") as handle:
        if columns is None:
            lines = handle.read().splitlines()
            rows = len(lines) - 1
            digest.update("\n".join(lines).encode())
        else:
            for row in csv.DictReader(handle):
                digest.update((",".join(row[c] for c in columns) + "\n").encode())
                rows += 1
    return {"rows": rows, "sha256": digest.hexdigest()}


def _stdout_json(result: CliResult):
    try:
        data = json.loads(result.stdout)
    except json.JSONDecodeError:
        return None
    return {k: v for k, v in data.items() if k not in ("schema_version", "command")}


def _exit_problems(result: CliResult):
    if result.exit != 0:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        return [(MISSING, f"exit code {result.exit}: {tail[0]}")]
    return []


BATCH_COLUMNS = ("batch_index", "strategy", "N", "A", "B", "Bprime", "noisyB", "noisyBprime", "seed")
FRONTIER_RESOLUTION = 10001


class CliWorkload:
    """The five README commands in order; export reads what simulate wrote."""

    def __init__(self, seed: int, pairs: dict, runner: CliRunner):
        self.runner = runner
        self.sim_seed = op_seed(seed, "cli/simulate-signalling")
        sim = readme_config(self.sim_seed)["simulate_signalling"]
        self.sim_cfg = ProtocolConfig(
            n_pairs=sim["N"],
            repetitions=sim["reps"],
            noise=NoiseModel(sim["sigma"]),
            detector=Detector(sim["detector"]),
            postselect_threshold=sim["threshold"],
            group_size=sim["group_size"],
        )
        k_a, k_ap = pairs[CLI_C[0]]
        self.library_report = canon(report_to_json(run_protocol(k_a, k_ap, self.sim_cfg, self.sim_seed)))
        self.commands = {
            "simulate-signalling": [
                "simulate-signalling", "--config", CONFIG_NAME, "--C", "1.0", "--N", "16",
                "--reps", "20000", "--sigma", "0.1", "--detector", "cov",
                "--seed", str(self.sim_seed), "--out", "runs/r.json", "--dump-batches", "runs/b.csv",
            ],
            "verify-bounds": ["verify-bounds", "--config", CONFIG_NAME],
            "scan-frontier": [
                "scan-frontier", "--config", CONFIG_NAME,
                "--resolution", str(FRONTIER_RESOLUTION), "--out", "runs/grid.csv",
            ],
            "couplings": ["couplings", "--config", CONFIG_NAME, "--C", str(CLI_C[1])],
            "export": ["export", "--config", CONFIG_NAME, "--run-dir", "runs", "--out-dir", "csv"],
        }

    def ops(self) -> list[Op]:
        return [
            Op(
                key=f"cli/{name}",
                run=partial(self.runner.run, argv),
                record=getattr(self, "_record_" + name.replace("-", "_")),
                check=getattr(self, "_check_" + name.replace("-", "_")),
            )
            for name, argv in self.commands.items()
        ]

    def _path(self, rel: str) -> Path:
        return self.runner.work / rel

    def _record_simulate_signalling(self, result):
        rec = {"exit": result.exit, "_written": sorted(result.written)}
        path = self._path("runs/r.json")
        if path.is_file():
            data = json.loads(path.read_text())
            rec["report"] = canon(data.get("report"))
            rec["config"] = canon(data.get("config"))
        rec["batches"] = _file_digest(self._path("runs/b.csv"), BATCH_COLUMNS)
        return rec

    def _check_simulate_signalling(self, result, rec):
        problems = _exit_problems(result)
        if "report" not in rec:
            return problems + [(MISSING, "runs/r.json not written")]
        if rec["report"] != self.library_report:
            problems.append((WRONG, "JSON report differs from run_protocol for the same config"))
        if rec["batches"] is None:
            problems.append((MISSING, "runs/b.csv not written"))
        elif rec["batches"]["rows"] != 2 * _batches(self.sim_cfg):
            problems.append((WRONG, f"runs/b.csv has {rec['batches']['rows']} rows"))
        return problems

    def _record_verify_bounds(self, result):
        return {"exit": result.exit, "payload": canon(_stdout_json(result))}

    def _check_verify_bounds(self, result, rec):
        problems = _exit_problems(result)
        payload = _stdout_json(result)
        if payload is None:
            return problems + [(WRONG, "stdout is not JSON")]
        if not (payload.get("identities_ok") and payload.get("causality_ok")):
            problems.append((WRONG, "README table fails an identity or the causality condition"))
        if abs(payload.get("chsh", math.nan) - 4 * 0.7071) > 1e-12:
            problems.append((WRONG, f"chsh {payload.get('chsh')!r} != 4 * 0.7071"))
        return problems

    def _record_scan_frontier(self, result):
        return {
            "exit": result.exit,
            "summary": canon(_stdout_json(result)),
            "grid": _file_digest(self._path("runs/grid.csv")),
        }

    def _check_scan_frontier(self, result, rec):
        problems = _exit_problems(result)
        summary = _stdout_json(result)
        if summary is None:
            return problems + [(WRONG, "stdout is not JSON")]
        if abs(summary.get("max_chsh", math.nan) - 2 * math.sqrt(2)) > 1e-9:
            problems.append((WRONG, f"max_chsh {summary.get('max_chsh')!r} != 2 sqrt 2"))
        if rec["grid"] is None:
            problems.append((MISSING, "runs/grid.csv not written"))
        elif rec["grid"]["rows"] != FRONTIER_RESOLUTION:
            problems.append((WRONG, f"runs/grid.csv has {rec['grid']['rows']} rows"))
        return problems

    def _record_couplings(self, result):
        return {"exit": result.exit, "payload": canon(_stdout_json(result))}

    def _check_couplings(self, result, rec):
        problems = _exit_problems(result)
        payload = _stdout_json(result)
        if payload is None:
            return problems + [(WRONG, "stdout is not JSON")]
        validation = payload.get("validation") or {}
        if payload.get("C") != CLI_C[1] or not validation or not all(validation.values()):
            problems.append((WRONG, "couplings for C=0.8 fail their validation"))
        return problems

    def _record_export(self, result):
        curve = self._path("csv/advantage_curve.csv")
        csv_dir = self._path("csv")
        return {
            "exit": result.exit,
            "advantage_curve": curve.read_text() if curve.is_file() else None,
            "_files": sorted(p.name for p in csv_dir.iterdir()) if csv_dir.is_dir() else [],
        }

    def _check_export(self, result, rec):
        problems = _exit_problems(result)
        if rec["advantage_curve"] is None:
            problems.append((MISSING, "csv/advantage_curve.csv not written"))
        else:
            rows = list(csv.DictReader(StringIO(rec["advantage_curve"])))
            if len(rows) != 1 or rows[0]["advantage"] != self.library_report["advantage"]:
                problems.append((WRONG, "advantage curve does not hold the one stored report"))
        hist = self._path("csv/hist_b.csv")
        if not hist.is_file():
            problems.append((MISSING, "export wrote no histogram for runs/b.csv"))
        else:
            total = sum(int(row["count"]) for row in csv.DictReader(StringIO(hist.read_text())))
            if total != 2 * _batches(self.sim_cfg):
                problems.append((WRONG, f"histogram counts {total} batches"))
        return problems


def cli_private(mode: int, umask: int) -> bool:
    """An artifact whose permission bits ignore the umask."""
    return (mode & 0o777) != (0o666 & ~umask)


def ops_per_pass() -> dict:
    return {
        "protocol": len(PROTOCOL_C) * len(PROTOCOL_CONFIGS),
        "sweep-macro": len(SWEEP_C),
        "exact-oracle": len(ORACLE_C) * len(ORACLE_POINTS),
        "cli": 5,
    }


def build(workload: str, seed: int, pairs: dict, runner: CliRunner | None = None):
    """(ops, before_pass) for one workload; ``before_pass`` runs untimed."""
    if workload == "protocol":
        return protocol_ops(seed, pairs), lambda: None
    if workload == "sweep-macro":
        return sweep_ops(seed, pairs), lambda: None
    if workload == "exact-oracle":
        return oracle_ops(seed, pairs), lambda: None
    return CliWorkload(seed, pairs, runner).ops(), runner.reset
