"""nsbox benchmark: one workload per run, closed loop, one op at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-oracle --seed 1 --seconds 24 --trace 0

The op list of the workload is repeated in passes until the measured time
reaches ``--seconds``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs some passes untraced, then wraps nsbox's public functions
in spans and prints the per-layer metrics.  Every op's output is checked
outside the timed region.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result, with
the run manifest and (traced) the spans, goes to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from spans import Tracer, covered_length, self_times

#: One BLAS thread.  The host is shared and has few cores, so a second BLAS
#: thread waits on other tenants' load and its timings spread with it.  Set
#: before numpy loads; fresh interpreters inherit it through the environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
#: Fresh interpreters timed for setup_s.  The machine is shared and its
#: speed drifts, so they are spread evenly over the measured passes.
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
STATE_DIR = ".perfbench"

# name, unit, better -- every workload reports all of them
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# name, unit, better, how the value is obtained
PER_LAYER = (
    ("signalling.run_protocol.self_s", "s", "lower", "timed"),
    ("signalling.run_protocol.calls", "count", "lower", "counted"),
    ("signalling.groups", "count", "lower", "counted"),
    ("signalling.groups_without_survivors", "count", "lower", "counted"),
    ("signalling.batches_used_ratio", "ratio", "higher", "counted"),
    ("macro.sample_batches.self_s", "s", "lower", "timed"),
    ("macro.sample_batches.calls", "count", "lower", "counted"),
    ("macro.batches_drawn", "count", "lower", "counted"),
    ("macro.pairs_drawn", "count", "lower", "counted"),
    ("macro.distinct_batch_ratio", "ratio", "higher", "counted"),
    ("macro.uniform_bytes", "bytes", "lower", "computed"),
    ("macro.write_batches_csv.self_s", "s", "lower", "timed"),
    ("signalling.exact_tv_distance.self_s", "s", "lower", "timed"),
    ("signalling.exact_tv_distance.calls", "count", "lower", "counted"),
    ("signalling.batch_law.self_s", "s", "lower", "timed"),
    ("signalling.batch_law.calls", "count", "lower", "counted"),
    ("signalling.make_likelihood_detector.self_s", "s", "lower", "timed"),
    ("signalling.tv_grid_points", "count", "lower", "computed"),
    ("signalling.resource_sweep.self_s", "s", "lower", "timed"),
    ("coupling.extremal_coupling.self_s", "s", "lower", "timed"),
    ("coupling.extremal_coupling.calls", "count", "lower", "counted"),
    ("causality.frontier_scan.self_s", "s", "lower", "timed"),
    ("cli.main.self_s", "s", "lower", "timed"),
    ("cli.bytes_written", "bytes", "lower", "counted"),
    ("cli.private_artifacts", "count", "lower", "counted"),
    ("boxes.import_s", "s", "lower", "timed"),
    ("cli.import_s", "s", "lower", "timed"),
    ("trace.overhead_s", "s", "lower", "timed"),
)

#: The layer whose self time this workload's design says should dominate.
PREDICTED_DOMINANT = {
    "protocol": "signalling.run_protocol.self_s",
    "sweep-macro": "macro.sample_batches.self_s",
    "exact-oracle": "signalling.exact_tv_distance.self_s",
    "cli": "cli (import + main)",
}

#: Wrapped functions: (module, attribute, span name).
SPANS = (
    ("nsbox.signalling", "run_protocol", "signalling.run_protocol"),
    ("nsbox.signalling", "resource_sweep", "signalling.resource_sweep"),
    ("nsbox.signalling", "exact_tv_distance", "signalling.exact_tv_distance"),
    ("nsbox.signalling", "batch_law", "signalling.batch_law"),
    ("nsbox.signalling", "make_likelihood_detector", "signalling.make_likelihood_detector"),
    ("nsbox.macro", "sample_batches", "macro.sample_batches"),
    ("nsbox.macro", "write_batches_csv", "macro.write_batches_csv"),
    ("nsbox.coupling", "extremal_coupling", "coupling.extremal_coupling"),
    ("nsbox.causality", "frontier_scan", "causality.frontier_scan"),
    ("nsbox.cli", "main", "cli.main"),
)


# ---------------------------------------------------------------------------
# boundary counters (recorded when a wrapped call returns)
# ---------------------------------------------------------------------------

def _on_run_protocol(tracer, args, report):
    cfg = args["cfg"]
    groups = 2 * (cfg.repetitions // cfg.group_size)
    tracer.count("signalling.groups", groups)
    tracer.count("signalling.groups_without_survivors", groups - report.n_trials)
    tracer.count("signalling.batches_used", report.n_used)
    tracer.count("signalling.protocol_batches", groups * cfg.group_size)


def _on_sample_batches(tracer, args, arrays):
    from nsbox.macro import CHUNK

    n, start, n_pairs = args["n_batches"], args["start"], args["n_pairs"]
    tracer.count("macro.batches_drawn", n)
    tracer.count("macro.pairs_drawn", n * n_pairs)
    if n:
        chunks = (start + n - 1) // CHUNK - start // CHUNK + 1
        tracer.count("macro.uniform_bytes", chunks * CHUNK * (n_pairs + 2) * 8)
    key = (args["seed"], args["stream"], n_pairs, args["coupling"].flat.tobytes())
    tracer.note("macro.draws", (key, start, start + n))


def tv_grid_points(sigma: float) -> int:
    """Grid points the noisy TV integrates over: both Richardson passes of
    ``_tv_simpson`` evaluate an m x m grid, m sized from sigma as there."""
    if sigma == 0.0:
        return 0
    total = 0
    for step_divisor in (20, 40):
        m = int(math.ceil(2.0 * (1.0 + 7.0 * sigma) / (sigma / step_divisor))) + 1
        m = min(m | 1, 40001)
        total += m * m
    return total


def _on_exact_tv(tracer, args, _tv):
    tracer.count("signalling.tv_grid_points", tv_grid_points(args["noise"].sigma))


COUNTERS = {
    "signalling.run_protocol": _on_run_protocol,
    "macro.sample_batches": _on_sample_batches,
    "signalling.exact_tv_distance": _on_exact_tv,
}


def distinct_batches(draws) -> int:
    """Batches drawn at least once: union of index ranges per
    (seed, stream, N, coupling)."""
    by_key = defaultdict(list)
    for key, lo, hi in draws:
        if hi > lo:
            by_key[key].append((lo, hi))
    return int(sum(covered_length(ranges) for ranges in by_key.values()))


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _blas_threads(nproc: int) -> dict:
    """Threads of the OpenBLAS numpy loaded, read through its own API."""
    try:
        with open("/proc/self/maps") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
                return {"library": Path(path).name, "threads": min(threads, nproc),
                        "threads_requested": threads}
    return {"library": None, "threads": None}


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def _source_digest(src: Path) -> str:
    """sha256 over the nsbox sources measured, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((src / "nsbox").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def manifest(root: Path, args, ops_per_pass: dict, ops_run: int, passes: int) -> dict:
    import numpy
    import scipy

    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_threads(nproc),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "ops_per_pass": ops_per_pass,
        "passes": passes,
        "ops_run": ops_run,
        "machine": "shared: other tenants run on the same host, so timings include their load",
    }


# ---------------------------------------------------------------------------
# fresh-interpreter probes
# ---------------------------------------------------------------------------

SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import couplings; "
    "t0 = time.perf_counter(); couplings.build(sys.argv[2]); "
    "print(repr(time.perf_counter() - t0))"
)


def setup_seconds(workload: str, env: dict) -> float:
    """import nsbox + every coupling the workload uses, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(HERE), workload],
        capture_output=True, text=True, env=env, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def import_seconds(env: dict) -> dict:
    """Cumulative import times of nsbox.boxes and of the CLI entry point, from
    ``python -X importtime`` in fresh interpreters (medians)."""
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "from nsbox.cli import main"],
            capture_output=True, text=True, env=env, check=True,
        )
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m and m.group(2) in ("nsbox.boxes", "nsbox.cli"):
                samples[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {
        "boxes.import_s": statistics.median(samples["nsbox.boxes"]),
        "cli.import_s": statistics.median(samples["nsbox.cli"]),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_passes(ops, before_pass, budget: float, checker, tracer=None, after_pass=None):
    """Closed loop: ops run one at a time; passes repeat until the summed op
    time reaches the budget.  ``after_pass(spent)`` runs untimed between
    passes.  Returns one dict per pass."""
    passes = []
    spent = 0.0
    while not passes or spent < budget:
        if passes and after_pass is not None:
            after_pass(spent)
        before_pass()
        latencies = {}
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(tracer.op_pass)
                tracer.op_pass.append(len(passes))
                tracer.active = True
            try:
                result, seconds = op.run()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                checker.error(op, exc)
                continue
            finally:
                if tracer is not None:
                    tracer.active = False
            latencies[op.key] = seconds
            if tracer is not None and hasattr(result, "written"):
                _count_artifacts(tracer, result.written)
            checker(op, result)
        wall = sum(latencies.values())
        spent += wall
        passes.append({"wall_s": wall, "latencies": latencies})
    return passes


def _count_artifacts(tracer, written: dict) -> None:
    import workloads

    umask = os.umask(0)
    os.umask(umask)
    for size, mode in written.values():
        tracer.count("cli.bytes_written", size)
        tracer.count("cli.private_artifacts", int(workloads.cli_private(mode, umask)))


def tail_percentile(samples: list[float]):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return {"percentile": p, "value_s": ordered[rank - 1], "beyond": n - rank, "samples": n}
    return {"percentile": None, "samples": n}


def op_p50(passes) -> float:
    """Median over op kinds of each kind's mean latency.  Every pass runs
    each kind once.  Means, not medians, over passes: see ``wall_s``."""
    by_key = defaultdict(list)
    for p in passes:
        for key, seconds in p["latencies"].items():
            by_key[key].append(seconds)
    return statistics.median(statistics.fmean(v) for v in by_key.values())


def per_layer_metrics(tracer, traced_passes: list[int]) -> dict:
    selfs = self_times(tracer.spans)
    per_pass: dict[int, Counter] = defaultdict(Counter)
    for span in tracer.spans:
        per_pass[tracer.op_pass[span.op_id]][f"{span.name}.self_s"] += selfs[span.span_id]
    for op_id, counts in tracer.counts.items():
        per_pass[tracer.op_pass[op_id]].update(counts)
    draws: dict[int, list] = defaultdict(list)
    for op_id, items in tracer.notes.items():
        draws[tracer.op_pass[op_id]] += [payload for name, payload in items if name == "macro.draws"]
    for index in traced_passes:
        c = per_pass[index]
        c["signalling.batches_used_ratio"] = (
            c["signalling.batches_used"] / c["signalling.protocol_batches"]
            if c["signalling.protocol_batches"] else 0.0
        )
        c["macro.distinct_batch_ratio"] = (
            distinct_batches(draws[index]) / c["macro.batches_drawn"]
            if c["macro.batches_drawn"] else 0.0
        )
    return {
        name: statistics.median(per_pass[i][name] for i in traced_passes)
        for name, _, _, _ in PER_LAYER
        if name not in ("boxes.import_s", "cli.import_s", "trace.overhead_s")
    }


def dominant_layer(workload: str, layer: dict, ops_per_pass: int):
    candidates = {k: v for k, v in layer.items() if k.endswith(".self_s")}
    if workload == "cli":
        # every op is a fresh interpreter, so a pass pays the import once per op
        candidates["cli (import + main)"] = (
            ops_per_pass * layer["cli.import_s"] + candidates.pop("cli.main.self_s")
        )
    top = max(candidates, key=candidates.get)
    return top, candidates


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("protocol", "sweep-macro", "exact-oracle", "cli"))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=24.0, help="measured op time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "nsbox" / "__init__.py").is_file():
        print(f"error: no nsbox sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import nsbox

    if Path(nsbox.__file__).resolve().parent != (src / "nsbox").resolve():
        print(f"error: imported nsbox from {nsbox.__file__}, not {src}", file=sys.stderr)
        return 2

    import couplings
    import workloads

    state = root / STATE_DIR
    work = state / "work" / args.workload
    pairs = couplings.build(args.workload)
    runner = workloads.CliRunner(work, src, args.seed, in_process=bool(args.trace))
    ops, before_pass = workloads.build(args.workload, args.seed, pairs, runner)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    checker = workloads.Checker(reference)

    env = workloads.child_env(src)
    imports = import_seconds(env) if args.trace else {}

    tracer = None
    if args.trace:
        # untraced and traced passes run the same way (cli: in-process), so
        # their difference is the tracing overhead
        untraced = run_passes(ops, before_pass, args.seconds / 2, checker)
        tracer = Tracer()
        for module, attr, name in SPANS:
            tracer.install(module, attr, name, COUNTERS.get(name))
        traced = run_passes(ops, before_pass, args.seconds / 2, checker, tracer=tracer)
        tracer.uninstall()
        all_passes = untraced + traced
    else:
        setup = []

        def setup_probe(spent: float) -> None:
            while len(setup) < SETUP_REPEATS and spent >= len(setup) * args.seconds / SETUP_REPEATS:
                setup.append(setup_seconds(args.workload, env))

        all_passes = run_passes(ops, before_pass, args.seconds, checker, after_pass=setup_probe)
        setup_probe(math.inf)
    shutil.rmtree(state / "work", ignore_errors=True)

    if args.trace:
        # op_pass indices count the traced passes only
        layer = per_layer_metrics(tracer, list(range(len(traced))))
        layer.update(imports)
        layer["trace.overhead_s"] = (
            statistics.fmean(p["wall_s"] for p in traced)
            - statistics.fmean(p["wall_s"] for p in untraced)
        )
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _, _ in PER_LAYER}
    else:
        if args.workload == "cli":
            rss_kb = runner.max_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        e2e = {
            "setup_s": statistics.median(setup),
            # The shared host's speed swings between levels within seconds.
            # The median of such a mixture jumps from one level to the other
            # between runs; the mean moves with the share of time at each.
            "wall_s": statistics.fmean(p["wall_s"] for p in all_passes),
            "op_p50_s": op_p50(all_passes),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}

    latencies = [s for p in all_passes for s in p["latencies"].values()]
    info = {
        "error_rate": checker.failed / checker.attempted,
        "op_latency_tail": tail_percentile(latencies),
        "pass_wall_s": [p["wall_s"] for p in all_passes],
        "pass_latencies_s": [p["latencies"] for p in all_passes],
    }
    if args.trace:
        info["dominant_layer"], info["dominant_candidates"] = dominant_layer(
            args.workload, {k: v["value"] for k, v in metrics.items()}, len(ops)
        )
        info["dominant_predicted"] = PREDICTED_DOMINANT[args.workload]
        info["untraced_passes"] = len(untraced)
        info["traced_passes"] = len(traced)
        info["kinds"] = {name: kind for name, _, _, kind in PER_LAYER}
    else:
        info["setup_samples_s"] = setup
        pairs_per_pass = sum(op.pairs for op in ops)
        if pairs_per_pass:
            info["pairs_per_s"] = pairs_per_pass / metrics["wall_s"]["value"]

    result = {
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    man = manifest(root, args, workloads.ops_per_pass(), checker.attempted, len(all_passes))
    full = {"manifest": man, "result": result, "info": info, "problems": dict(checker.problems)}
    if tracer is not None:
        full["spans"] = [vars(s) for s in tracer.spans]
    results_dir = state / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(full, indent=1) + "\n")

    print_report(args, man, metrics, info, checker, out_path)
    print(json.dumps(result))
    return 0


def print_report(args, man, metrics, info, checker, out_path) -> None:
    print(f"nsbox benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={man['passes']} ops={checker.attempted}")
    print("manifest: " + json.dumps(man))
    kinds = {name: kind for name, _, _, kind in PER_LAYER}
    for name, m in metrics.items():
        label = f"  ({kinds[name]})" if args.trace and kinds[name] == "computed" else ""
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}{label}")
    if "pairs_per_s" in info:
        print(f"  {'pairs_per_s':<44} {info['pairs_per_s']:>16.6g} 1/s")
    print(f"  {'error_rate':<44} {info['error_rate']:>16.6g} "
          f"({checker.failed} of {checker.attempted} ops failed)")
    tail = info["op_latency_tail"]
    if tail["percentile"] is not None:
        print(f"  op latency p{tail['percentile']:g} = {tail['value_s']:.6g} s "
              f"({tail['samples']} samples, {tail['beyond']} beyond)  [information only]")
    else:
        print(f"  op latency: no percentile has 10 samples beyond it ({tail['samples']} samples)")
    if args.trace:
        verdict = "matches" if info["dominant_layer"] == info["dominant_predicted"] else "MISMATCH"
        print(f"  dominant layer: {info['dominant_layer']} "
              f"(predicted {info['dominant_predicted']}: {verdict})")
    for problem, count in sorted(checker.problems.items()):
        print(f"  check failed x{count}: {problem}")
    print(f"full result: {out_path}")


if __name__ == "__main__":
    sys.exit(main())
