"""Run-to-run spread of the end-to-end metrics, as the benchmark is judged.

    python3 perfbench/steady.py

Runs run.py once per seed 1-10 and workload of BENCHMARK.json, for
`run_seconds` each, interleaving the workloads within each seed so that slow
drift of the machine spreads over all of them.  For every workload and
end-to-end metric it prints the median of the ten run medians, their spread
(distance between the first and third quartile, as
`statistics.quantiles(values, n=4)` gives them, over the median) against a
third of the metric's bound, and their range (max - min over the median)
against the bound.  It exits 1 if any spread is wider than a third of its
bound or any run is incorrect.  The runs are saved in out/steady.json.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import HERE, ROOT

SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in workloads}
    for seed in SEEDS:
        for name in workloads:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            runs[name].append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"seed {seed} {name}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")

    steady = True
    for name in workloads:
        print(name)
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs[name]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = spread < metric["bound"] / 3
            steady &= ok
            print(f"  {metric['name']:12s} median={median:.4f} spread={spread:.4f} "
                  f"bound/3={metric['bound'] / 3:.4f} {'ok' if ok else 'WIDE'} "
                  f"range={(max(values) - min(values)) / median:.4f} bound={metric['bound']}")
        if not all(run["correct"] for run in runs[name]):
            steady = False
            print("  incorrect runs:", [run["seed"] for run in runs[name] if not run["correct"]])
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
