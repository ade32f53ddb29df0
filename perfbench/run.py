"""ringcarl benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  The
workload's INI config is generated from the seed, and each repetition
runs it in a fresh interpreter (``child.py``) until S seconds have passed.
Every repetition's artifacts are checked for physics and for being
byte-identical to the first repetition's.  With ``--trace 0`` the
end-to-end metrics are medians over the repetitions; with ``--trace 1``
untraced and traced repetitions alternate, and the per-layer metrics come
from the spans of the traced ones.  Metric names and units are those of
BENCHMARK.json.  The last output line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, n_operations  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT = 150.0   # seconds for one repetition
SETUP_ONLY = 4          # extra set-up-only children per run, for the setup_s median
DEADLINE = 170.0        # start no repetition that could end after this
DIAGNOSTICS = ("bgk.residual", "vlasov.growth_rel_err", "vlasov.lost_mass", "vlasov.min_f")


@dataclass
class Rep:
    traced: bool
    wall: float
    oks: list[bool]
    timings: dict | None = None
    diag: dict = field(default_factory=dict)
    files: dict | None = None
    layers: dict | None = None


def import_program(root: Path):
    """Import ringcarl from root/src, refusing any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import ringcarl
        from ringcarl.config import parse_config
    except ImportError as exc:
        raise SystemExit(f"error: cannot import ringcarl from {src}: {exc}")
    if Path(ringcarl.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: ringcarl imported from {ringcarl.__file__}, not {src}")
    return parse_config


def run_child(root, config_path, outdir, trace_path=None) -> dict | None:
    """Start child.py and return its JSON line, or None if it failed."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **{v: "1" for v in THREAD_VARS})
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), str(config_path), str(outdir), repr(t0)]
    if trace_path is not None:
        cmd.append(str(trace_path))
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {CHILD_TIMEOUT:g} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"repetition failed with exit code {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rep(root, wl, cfg, config_path, outdir, trace_path) -> Rep:
    """One child run plus its checks; failures count every operation."""
    rep = Rep(traced=trace_path is not None, wall=0.0, oks=[False] * n_operations(cfg))
    t0 = time.monotonic()
    rep.timings = run_child(root, config_path, outdir, trace_path)
    rep.wall = time.monotonic() - t0
    if rep.timings is None:
        return rep
    try:
        rep.oks, rep.diag = wl.check(outdir, cfg)
        rep.files = json.loads((outdir / "manifest.json").read_text())["files"]
    except Exception:  # malformed artifacts fail their operations, not the run
        print("artifact check raised:\n" + traceback.format_exc(), file=sys.stderr)
        rep.oks = [False] * n_operations(cfg)
    if trace_path is not None:
        rep.layers = layer_metrics(json.loads(Path(trace_path).read_text()))
    return rep


def measure(root: Path, wl, seed: int, seconds: float, trace: bool, parse_config):
    text = wl.config(seed)
    cfg = parse_config(text)
    runs = root / ".perfbench_runs"
    work = runs / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.ini"
    config_path.write_text(text)
    reps: list[Rep] = []
    setups = []
    reference = None
    t0 = time.monotonic()
    try:
        for _ in range(SETUP_ONLY):
            timing = run_child(root, config_path, "-")
            if timing is not None:
                setups.append(timing["setup_s"])
        while True:
            elapsed = time.monotonic() - t0
            have = {r.traced for r in reps}
            if elapsed >= seconds and have == ({False, True} if trace else {False}):
                break
            if reps and elapsed + 1.5 * max(r.wall for r in reps) > DEADLINE:
                break
            traced = trace and len(reps) % 2 == 1
            outdir = work / f"rep{len(reps)}"
            trace_path = work / "trace.json" if traced else None
            rep = run_rep(root, wl, cfg, config_path, outdir, trace_path)
            if rep.files is not None:
                reference = reference or rep.files
                if rep.files != reference:
                    print("artifacts differ from the first repetition", file=sys.stderr)
                    rep.oks = [False] * len(rep.oks)
            if trace_path is not None and trace_path.exists():
                os.replace(trace_path, runs / f"trace-{wl.name}.json")
            shutil.rmtree(outdir, ignore_errors=True)
            reps.append(rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return reps, setups


def count_operations(reps: list[Rep]) -> tuple[int, int]:
    """(attempted, failed) operations over all repetitions."""
    return sum(len(r.oks) for r in reps), sum(not ok for r in reps for ok in r.oks)


def _median_by_key(dicts: list[dict]) -> dict:
    keys = set.intersection(*(set(d) for d in dicts)) if dicts else set()
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


def summarize(reps: list[Rep], setups: list[float], trace: bool) -> dict | None:
    """Metric values by name, or None if no repetition completed."""
    untraced = [r.timings for r in reps if r.timings and not r.traced]
    if not untraced:
        return None
    values = _median_by_key(untraced)
    values["setup_s"] = statistics.median(setups + [t["setup_s"] for t in untraced])
    values.update(_median_by_key([r.diag for r in reps if r.diag]))
    if trace:
        traced = [r for r in reps if r.traced and r.timings and r.layers is not None]
        if not traced:
            return None
        values.update(_median_by_key([r.layers for r in traced]))
        values["trace_overhead_s"] = (
            statistics.median(r.timings["run_s"] for r in traced) - values["run_s"]
        )
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    parse_config = import_program(root)
    wl = WORKLOADS[args.workload]
    reps, setups = measure(root, wl, args.seed, args.seconds, bool(args.trace), parse_config)
    values = summarize(reps, setups, bool(args.trace))
    if values is None:
        print("error: no repetition completed", file=sys.stderr)
        return 1

    attempted, failed = count_operations(reps)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {wl.name}  seed {args.seed}  repetitions {len(reps)} "
          f"({sum(r.traced for r in reps)} traced), {len(setups)} set-up only")
    print(f"  fail_ratio  {failed / attempted:.6g} 1  ({failed}/{attempted} operations)")
    for name in sorted(values):
        print(f"  {name}  {values[name]:.6g} {units.get(name, '')}")
    # a check value that does not apply to this workload reads 0
    values = {**{k: 0.0 for k in DIAGNOSTICS}, **values}
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values and math.isfinite(values[m["name"]])
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
