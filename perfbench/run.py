"""rts-secrecy benchmark: time one workload's CLI command in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from src/).
The command of workload NAME (see workloads.py) runs in a fresh child
process, one child at a time, with `--seed N`, repeatedly until about S
seconds have passed (at least MIN_CHILDREN times).  A fresh process per
command matters: the oracle is `lru_cache`d, so repeating `cli.main` in one
process would time a warm cache that real CLI users never get.

Every child's output is checked (checks.py).  The last line of stdout is a
JSON object with `correct`, `attempted` and `failed` (output rows) and
`metrics`: with --trace 0 the medians of the end-to-end metrics, with
--trace 1 the medians of the per-layer metrics, every child then traced.
Names and units come from BENCHMARK.json.  A fuller record, with the
context (git HEAD, versions, nproc, source size), goes to
out/<workload>-seed<N>-trace<T>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CHILDREN = 3
HARD_STOP_S = 150.0  # whole run; the contract allows 180
# Thread pools stay at or below nproc (2 here) so runs do not oversubscribe.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def run_child(workload, seed: int, trace: bool, tmp: Path, deadline: float) -> dict:
    """One command in a fresh process; returns its timings, usage and output."""
    out_path, stats_path, err_path = tmp / "out.txt", tmp / "stats.json", tmp / "stderr.txt"
    for path in (out_path, stats_path):
        path.unlink(missing_ok=True)
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spawn = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "child.py"), repr(spawn), str(stats_path),
        "1" if trace else "0", "--",
        *workload.args, "--seed", str(seed), "--out", str(out_path),
    ]
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    exited = False
    try:
        exited = bool(select.select([pidfd], [], [], max(1.0, deadline - time.monotonic()))[0])
    finally:
        # on a timeout or an interrupt the child is killed; it is always reaped
        if not exited:
            os.kill(proc.pid, signal.SIGKILL)  # still unreaped, so the pid is ours
        os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        stats = {"setup_s": 0.0, "ready": spawn}
    text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
    return {
        "exit": proc.returncode,
        "setup_s": stats["setup_s"],
        "wall_s": end - stats["ready"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "versions": stats.get("versions", {}),
        "layers": stats.get("layers"),
        "bytes": len(text.encode("utf-8")),
        "text": text,
        "stderr": err_path.read_text(encoding="utf-8", errors="replace")[-2000:],
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Children one after another for about `seconds`, at least MIN_CHILDREN."""
    start = time.monotonic()
    samples: list[dict] = []
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        while True:
            child_start = time.monotonic()
            samples.append(run_child(workload, seed, trace, Path(tmp), start + HARD_STOP_S))
            now = time.monotonic()
            if now - start > HARD_STOP_S / 2:
                break
            if len(samples) >= MIN_CHILDREN and now - start + (now - child_start) > seconds:
                break
    return samples


def check_samples(workload, seed: int, samples: list[dict], ref_text: str) -> tuple[int, int, list[str]]:
    """(rows attempted, rows failed, distinct problems) over every child."""
    attempted = failed = 0
    problems: list[str] = []
    first = samples[0]["text"]
    cache: dict[tuple, dict] = {}
    for sample in samples:
        key = (sample["text"], sample["exit"])
        if key not in cache:
            cache[key] = checks.check(workload, sample["text"], sample["exit"], seed, ref_text)
        rows = cache[key]
        differs = sample["text"] != first
        for row, errs in rows.items():
            if differs:
                errs = errs + ["output differs from the first repetition (same seed)"]
            attempted += 1
            failed += bool(errs)
            problems.extend(f"{row}: {err}" for err in errs if f"{row}: {err}" not in problems)
        if sample["exit"] != workload.expected_exit and sample["stderr"]:
            problems.append("stderr: " + sample["stderr"].strip().splitlines()[-1])
    return attempted, failed, problems


def git_head() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(samples: list[dict]) -> dict:
    src_lines = sum(
        1
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
    return {
        "git_head": git_head(),
        **samples[0]["versions"],
        "nproc": os.cpu_count(),
        "src_nonblank_lines": src_lines,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(samples: list[dict], attempted: int, failed: int) -> dict[str, float]:
    return {
        **{
            name: _median([sample[name] for sample in samples])
            for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
        },
        "pass_rate": 1.0 - failed / attempted,
    }


def per_layer(samples: list[dict], rows: int) -> dict[str, float]:
    traced = [sample for sample in samples if sample["layers"]]
    layers = {
        name: _median([sample["layers"][name] for sample in traced])
        for name in (traced[0]["layers"] if traced else ())
    }
    layers["cli.rows"] = rows
    layers["cli.write.bytes"] = _median([sample["bytes"] for sample in traced])
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2**64)")
    if not (ROOT / "src" / "rts_secrecy" / "cli.py").is_file():
        print(f"error: no rts_secrecy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    ref_text = (HERE / "reference" / f"{workload.name}.txt").read_text(encoding="utf-8")

    (HERE / "out").mkdir(exist_ok=True)
    samples = measure(workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed, problems = check_samples(workload, args.seed, samples, ref_text)
    correct = failed == 0
    rows = attempted // len(samples)
    values = per_layer(samples, rows) if args.trace else end_to_end(samples, attempted, failed)
    # a child that crashed before reporting leaves its layer metrics at 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    ctx = context(samples)
    record = {
        "workload": workload.name,
        "command": ["rts-secrecy", *workload.args, "--seed", str(args.seed)],
        "seed": args.seed,
        "trace": args.trace,
        "context": ctx,
        "samples": [{k: v for k, v in s.items() if k not in ("text", "stderr")} for s in samples],
        "problems": problems[:200],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    result_path = HERE / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name}: {' '.join(record['command'])}")
    print(f"context: {json.dumps(ctx)}")
    print(f"children: {len(samples)}{' traced' if args.trace else ''}, "
          f"exit codes {sorted({s['exit'] for s in samples})}, expected {workload.expected_exit}")
    for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
        values_n = sorted(s[name] for s in samples)
        print(f"  {name:12s} n={len(values_n)} min={values_n[0]:.4f} "
              f"median={statistics.median(values_n):.4f} max={values_n[-1]:.4f}")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
