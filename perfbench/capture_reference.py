"""Write perfbench/reference.json: every op's output at the default seed.

Run from the root of a checkout, at the commit whose outputs become the
reference:

    python3 perfbench/capture_reference.py

Floats are stored at 17 significant digits.  Record keys starting with
``_`` are left out; they only compare passes within one run.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "nsbox" / "__init__.py").is_file():
        print(f"error: no nsbox sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import couplings
    import workloads

    work = root / ".perfbench" / "work" / "reference"
    reference = {}
    for workload in workloads.WORKLOADS:
        runner = workloads.CliRunner(work, src, workloads.DEFAULT_SEED, in_process=False)
        ops, before_pass = workloads.build(
            workload, workloads.DEFAULT_SEED, couplings.build(workload), runner
        )
        before_pass()
        reference[workload] = {}
        for op in ops:
            result, _ = op.run()
            record = op.record(result)
            for kind, message in op.check(result, record):
                print(f"{op.key}: {kind}: {message}", file=sys.stderr)
            reference[workload][op.key] = {k: v for k, v in record.items() if not k.startswith("_")}
    shutil.rmtree(work.parent, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
