"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread, per workload.  Run from a checkout root:

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/spread.py --workloads cli --seeds 1 2 3 4 5

Runs are sequential (the benchmark measures one op at a time).  A spread is
(Q3 - Q1) / median with quartiles from ``statistics.quantiles(n=4)``; it is
flagged when it is not below a third of the metric's bound.  With one seed
the command prints every end-to-end metric of every workload by name and unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        failed = attempted = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs incorrect")
                status = 1
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload}: {len(args.seeds)} seeds, {failed} of {attempted} ops failed")
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            if not series:
                continue
            median = statistics.median(series)
            line = f"  {metric['name']:<12} median {median:12.6g} {metric['unit']:<3}"
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median
                flag = "" if spread < metric["bound"] / 3 else "  (not below bound/3)"
                line += f"  spread {spread:7.4f} of bound {metric['bound']}{flag}"
            print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
