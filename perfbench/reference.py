"""Regenerate reference/<workload>.txt, each command's output at DEFAULT_SEED.

    python3 perfbench/reference.py

The references pin the simulated fields byte for byte and the oracle values
to within checks.ORACLE_TOL.  Regenerate them only in a change that means
to alter the CLI's output, and say why in that change.
"""
from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from run import HERE, run_child
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    for name, workload in sorted(WORKLOADS.items()):
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            sample = run_child(workload, DEFAULT_SEED, False, Path(tmp), time.monotonic() + 600)
        if sample["exit"] != workload.expected_exit:
            print(f"{name}: exit {sample['exit']}, expected {workload.expected_exit}\n"
                  f"{sample['stderr']}", file=sys.stderr)
            return 1
        (HERE / "reference" / f"{name}.txt").write_text(sample["text"], encoding="utf-8")
        print(f"{name}: {len(sample['text'].splitlines())} lines, {sample['wall_s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
