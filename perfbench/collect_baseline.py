"""Run the benchmark over many seeds and record medians, spreads and the environment.

    python3 perfbench/collect_baseline.py [--seeds 1-10] [--workloads a,b] [--tier1] [--out FILE]

Run from the repository root.  For each workload it makes one untraced
run per seed and one traced run (first seed), and reports for every
end-to-end metric the median, the quartiles and the spread, which is the
distance between the quartiles as a share of the median.  ``--tier1``
also times the Tier-1 test suite once with ``--durations=10``, as context.
The result is written as JSON (default ``perfbench/baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import THREAD_VARS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "child_thread_env": {v: "1" for v in THREAD_VARS},
    }


def tier1() -> dict:
    env = dict(os.environ, PYTHONPATH="src", **{v: "1" for v in THREAD_VARS})
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--durations=10"],
        env=env, capture_output=True, text=True, timeout=3600)
    wall = time.monotonic() - t0
    lines = proc.stdout.splitlines()
    start = next((i for i, ln in enumerate(lines) if "slowest 10 durations" in ln), None)
    table = [ln for ln in lines[start + 1:] if ln[:1].isdigit()] if start is not None else []
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else "", "durations": table[:10]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--tier1", action="store_true")
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    out = {"environment": environment(), "run_seconds": spec["run_seconds"],
           "seeds": seeds, "workloads": {}}
    for name in names:
        results = [bench(name, s, spec["run_seconds"], 0) for s in seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for metric in bounds:
            stats = spread([r["metrics"][metric]["value"] for r in results])
            stats["bound"] = bounds[metric]
            entry["end_to_end"][metric] = stats
            print(f"{name:15s} {metric:12s} median {stats['median']:.4g} "
                  f"spread {stats['spread']:.4f} (bound {bounds[metric]})", flush=True)
        traced = bench(name, seeds[0], spec["run_seconds"], 1)
        entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_correct"] = traced["correct"]
        print(f"{name:15s} failed {entry['failed']}/{entry['attempted']} operations, "
              f"traced run correct: {traced['correct']}", flush=True)
        out["workloads"][name] = entry
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    if args.tier1:
        out["tier1"] = tier1()
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
