"""Command-line harness: presets, experiment execution, sweeps, persistence.

Subcommands mirror the run modes (nbody, vlasov, stability-boundary,
phase-diagram, classify, slow-beam, validate-wave).  Each run writes its
CSV artifacts plus a ``manifest.json`` into the output directory.  CSV is
the data contract; SVG plots are optional (``--svg``, needs matplotlib).

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, bgk, nbody, stability, vlasov
from .config import MODES, ConfigError, RunConfig, RunManifest, parse_config
from .core import DomainError, IntegrationDivergedError, TimeSeries, step_count

__all__ = ["main", "run_experiment", "load_preset", "preset_names"]

TIMESERIES_HEADER = [
    "tau", "re_theta", "im_theta", "abs_theta", "v_cm",
    "i_ap", "i_am", "i_bp", "i_bm", "ekin", "pfield",
]
BOUNDARY_HEADER = ["omega", "S", "A"]
PHASE_HEADER = ["S", "A", "regime", "growth_re", "growth_im"]


def _fmt(x) -> str:
    """Shortest round-trip float text; keeps CSV byte-stable across runs."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def write_timeseries(path, series: TimeSeries) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TIMESERIES_HEADER)
        for i in range(len(series)):
            th = series.theta[i]
            inten = series.intensities[i]
            w.writerow(
                [_fmt(series.tau[i]), _fmt(th.real), _fmt(th.imag), _fmt(abs(th)),
                 _fmt(series.v_cm[i])]
                + [_fmt(v) for v in inten]
                + [_fmt(series.kinetic_energy[i]), _fmt(series.field_momentum[i])]
            )


def write_boundary(path, curve: stability.BoundaryCurve) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(BOUNDARY_HEADER)
        for i in range(curve.omega.size):
            w.writerow([_fmt(curve.omega[i]), _fmt(curve.s_total[i]), _fmt(curve.a_asym[i])])


def write_snapshot(path, grid: vlasov.PhaseSpaceGrid) -> None:
    """Dense matrix as text: 'nx nv' header line, then one row per chi node."""
    with open(path, "w") as fh:
        fh.write(f"{grid.nx} {grid.nv}\n")
        for row in grid.f:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# stage timings
# ---------------------------------------------------------------------------


@contextmanager
def _stage(manifest: RunManifest, name: str):
    """Add the wall time of the block to ``manifest.timings[name + '_s']``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        key = f"{name}_s"
        manifest.timings[key] = manifest.timings.get(key, 0.0) + time.perf_counter() - t0


def _integrate(cfg: RunConfig, manifest: RunManifest, solver, *args, **kwargs):
    """Call a time-stepping solver as the integrate stage; records its steps."""
    with _stage(manifest, "integrate"):
        out = solver(*args, **kwargs)
    steps = step_count(cfg.t_end, cfg.dt)
    manifest.timings["steps"] = steps
    manifest.timings["us_per_step"] = 1e6 * manifest.timings["integrate_s"] / steps
    return out


def _write_series(series: TimeSeries, outdir: Path, manifest: RunManifest) -> None:
    with _stage(manifest, "write"):
        path = outdir / "timeseries.csv"
        write_timeseries(path, series)
        manifest.add_file(path)


# ---------------------------------------------------------------------------
# mode implementations
# ---------------------------------------------------------------------------


def _nbody_series(cfg: RunConfig, manifest: RunManifest) -> TimeSeries:
    init = nbody.InitialCondition(**cfg.options["nbody"])  # the [nbody] keys are its fields
    return _integrate(
        cfg, manifest, nbody.run, cfg.params, init=init, t_end=cfg.t_end,
        sample_every=cfg.sample_every, dt=cfg.dt,
    )


def _mode_nbody(cfg: RunConfig, outdir: Path, manifest: RunManifest) -> None:
    series = _nbody_series(cfg, manifest)
    _write_series(series, outdir, manifest)
    manifest.results["classification"] = (
        nbody.classify_run(series, cfg.params) if len(series) >= 8 else "unclassified"
    )
    w = series.trailing_window()
    manifest.results["trailing_abs_theta"] = float(np.mean(np.abs(series.theta[w])))
    manifest.results["trailing_v_cm"] = float(np.mean(series.v_cm[w]))


def _mode_classify(cfg: RunConfig, outdir: Path, manifest: RunManifest) -> None:
    _mode_nbody(cfg, outdir, manifest)
    point = stability.PumpPoint(cfg.params.s_total, cfg.params.a_asym)
    analytic = stability.classify_regime(point, cfg.params)
    manifest.results["analytic_regime"] = analytic.regime
    if analytic.growth is not None:
        manifest.results["analytic_growth_re"] = float(analytic.growth.real)
        manifest.results["analytic_growth_im"] = float(analytic.growth.imag)


def _mode_slow_beam(cfg: RunConfig, outdir: Path, manifest: RunManifest) -> None:
    v0 = cfg.options["nbody"]["mean_u"]
    if v0 == 0.0:
        raise ConfigError(["slow-beam mode needs nbody.mean_u != 0"])
    series = _integrate(
        cfg, manifest, nbody.slow_beam_preset, cfg.params, v_initial=v0,
        t_end=cfg.t_end, sample_every=cfg.sample_every, dt=cfg.dt,
    )
    _write_series(series, outdir, manifest)
    w = series.trailing_window()
    v_final = float(np.mean(series.v_cm[w]))
    manifest.results["v_initial"] = float(v0)
    manifest.results["v_final"] = v_final
    manifest.results["slowing_fraction"] = 1.0 - abs(v_final) / abs(v0)


def _mode_validate_wave(cfg: RunConfig, outdir: Path, manifest: RunManifest) -> None:
    series = _nbody_series(cfg, manifest)
    _write_series(series, outdir, manifest)
    report = bgk.validate_wave(series, cfg.params)
    manifest.results["wave_report"] = {
        k: v if isinstance(v, bool) else float(v) for k, v in report.__dict__.items()
    }


def _mode_vlasov(cfg: RunConfig, outdir: Path, manifest: RunManifest) -> None:
    series, snaps = _integrate(  # the [vlasov] keys are keywords of run_vlasov
        cfg, manifest, vlasov.run_vlasov,
        cfg.params, t_end=cfg.t_end, sample_every=cfg.sample_every, dt=cfg.dt,
        **cfg.options["vlasov"],
    )
    _write_series(series, outdir, manifest)
    with _stage(manifest, "write"):
        for tau, grid in snaps:
            spath = outdir / f"snapshot_tau{tau:g}.txt"
            write_snapshot(spath, grid)
            manifest.add_file(spath)
    manifest.results["lost_mass"] = float(snaps[-1][1].lost_mass)
    manifest.results["classification"] = (
        nbody.classify_run(series, cfg.params) if len(series) >= 8 else "unclassified"
    )


def _mode_boundary(cfg: RunConfig, outdir: Path, manifest: RunManifest) -> None:
    o = cfg.options["boundary"]
    u_ts = [cfg.params.u_t] + [u for u in (o["u_t_list"] or []) if u != cfg.params.u_t]
    for u_t in u_ts:
        p = replace(cfg.params, u_t=u_t)
        grid = stability.default_omega_grid(p, n=2 * o["n_omega"])
        curve = stability.boundary_curve(p, grid)
        path = outdir / f"boundary_ut{u_t:g}.csv"
        with _stage(manifest, "write"):
            write_boundary(path, curve)
            manifest.add_file(path)
        manifest.results.setdefault("thresholds_a0", {})[f"u_t={u_t:g}"] = (
            stability.threshold_sc_a0(p)
        )


# ---------------------------------------------------------------------------
# phase-diagram sweep (resumable, parallel)
# ---------------------------------------------------------------------------


def _sweep_cell(args):
    """One pure cell; returns a phase-diagram CSV row (list of str)."""
    s, a, params, dynamic, t_end, dt, sample_every = args
    try:
        point = stability.PumpPoint(s, a)
        res = stability.classify_regime(point, params)
        regime = res.regime
        growth = res.growth if res.growth is not None else 0.0j
        if dynamic:
            p_run = params.with_pump_split(s, a)
            series = nbody.run(p_run, t_end=t_end, dt=dt, sample_every=sample_every)
            label = nbody.classify_run(series, p_run)
            regime = f"{regime}/{label}"
    except (DomainError, IntegrationDivergedError, RuntimeError) as exc:
        return [_fmt(s), _fmt(a), f"error:{type(exc).__name__}", _fmt(0.0), _fmt(0.0)]
    return [_fmt(s), _fmt(a), regime, _fmt(growth.real), _fmt(growth.imag)]


def _without_grid(snapshot: dict) -> dict:
    """A config snapshot minus the sweep grid, which may grow between runs."""
    return {
        sec: {k: v for k, v in kv.items()
              if sec != "sweep" or k not in ("s_over_sc", "a_over_s")}
        for sec, kv in snapshot.items()
    }


def _existing_cells(path: Path, manifest_path: Path, snapshot: dict) -> set[tuple[str, str]]:
    """Cells of a previous sweep output that a run of `snapshot` may reuse.

    Rows are reused only when the previous manifest verifies the CSV's
    checksum and recorded the same config apart from the sweep grid;
    otherwise (no manifest, a stale or corrupt CSV, other physics or
    options) everything is recomputed.
    """
    if not path.exists() or not manifest_path.exists():
        return set()
    from .config import sha256_file

    old = RunManifest.from_json(manifest_path.read_text())
    if old.files.get(path.name) != sha256_file(path):
        return set()
    if _without_grid(old.config) != _without_grid(snapshot):
        return set()
    done = set()
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row and row[0] != "S":
                done.add((row[0], row[1]))
    return done


def _mode_phase_diagram(
    cfg: RunConfig, outdir: Path, manifest: RunManifest, threads: int = 1
) -> None:
    sw = cfg.options["sweep"]
    sc = stability.threshold_sc_a0(cfg.params)
    cells = [
        (r * sc, aos * r * sc)
        for r in sw["s_over_sc"]
        for aos in sw["a_over_s"]
    ]
    path = outdir / "phase_diagram.csv"
    done = _existing_cells(path, outdir / "manifest.json", cfg.snapshot)
    todo = [
        (s, a, cfg.params, sw["dynamic"], cfg.t_end, cfg.dt, cfg.sample_every)
        for (s, a) in cells
        if (_fmt(s), _fmt(a)) not in done
    ]
    rows = []
    with _stage(manifest, "sweep"):
        if todo:
            if threads > 1:
                with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
                    rows = list(pool.map(_sweep_cell, todo))
            else:
                rows = [_sweep_cell(t) for t in todo]
    fresh = not path.exists() or not done
    with _stage(manifest, "write"):
        with open(path, "w" if fresh else "a", newline="") as fh:
            w = csv.writer(fh)
            if fresh:
                w.writerow(PHASE_HEADER)
            w.writerows(rows)
        manifest.add_file(path)
    manifest.results["n_cells"] = len(cells)
    manifest.results["n_computed"] = len(rows)
    manifest.results["n_resumed"] = len(cells) - len(todo)
    manifest.results["n_errors"] = sum(row[2].startswith("error:") for row in rows)


# ---------------------------------------------------------------------------
# SVG plots (optional)
# ---------------------------------------------------------------------------


def _write_svg(cfg: RunConfig, outdir: Path, manifest: RunManifest) -> None:
    try:
        import matplotlib

        matplotlib.use("svg")
        import matplotlib.pyplot as plt
    except ImportError:
        manifest.results["svg"] = "skipped (matplotlib not installed)"
        return
    ts = outdir / "timeseries.csv"
    if ts.exists():
        data = np.genfromtxt(ts, delimiter=",", names=True)
        fig, axes = plt.subplots(2, 1, sharex=True, figsize=(6, 5))
        axes[0].plot(data["tau"], data["abs_theta"])
        axes[0].set_ylabel("|theta|")
        axes[1].plot(data["tau"], data["v_cm"])
        axes[1].set_ylabel("v_cm")
        axes[1].set_xlabel("tau")
        fig.savefig(outdir / "timeseries.svg")
        plt.close(fig)
        manifest.add_file(outdir / "timeseries.svg")
    pd = outdir / "phase_diagram.csv"
    if pd.exists():
        fig, ax = plt.subplots(figsize=(5, 4))
        with open(pd, newline="") as fh:
            rows = [r for r in csv.reader(fh)][1:]
        colors = {"stable": "tab:blue", "bgk-ordered": "tab:green", "carl": "tab:red"}
        for row in rows:
            base = row[2].split("/")[0]
            ax.scatter(float(row[0]), float(row[1]),
                       c=colors.get(base, "gray"), s=12)
        ax.set_xlabel("S")
        ax.set_ylabel("A")
        fig.savefig(outdir / "phase_diagram.svg")
        plt.close(fig)
        manifest.add_file(outdir / "phase_diagram.svg")
    for sp in sorted(outdir.glob("snapshot_tau*.txt")):
        with open(sp) as fh:
            nx, nv = (int(v) for v in fh.readline().split())
            f = np.loadtxt(fh)
        fig, ax = plt.subplots(figsize=(5, 4))
        ax.imshow(f.T, origin="lower", aspect="auto", cmap="inferno")
        ax.set_xlabel("chi index")
        ax.set_ylabel("u index")
        fig.savefig(sp.with_suffix(".svg"))
        plt.close(fig)
        manifest.add_file(sp.with_suffix(".svg"))


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

_MODE_IMPL = {
    "nbody": _mode_nbody,
    "vlasov": _mode_vlasov,
    "stability-boundary": _mode_boundary,
    "classify": _mode_classify,
    "slow-beam": _mode_slow_beam,
    "validate-wave": _mode_validate_wave,
}


def run_experiment(
    cfg: RunConfig, outdir, threads: int = 1, svg: bool = False
) -> RunManifest:
    """Execute the configured mode, writing artifacts + manifest to outdir."""
    t0 = time.perf_counter()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        config=cfg.snapshot, version=__version__, mode=cfg.mode,
        started=RunManifest.now(), derived=cfg.derived(),
    )
    manifest.timings["setup_s"] = time.perf_counter() - t0
    try:
        if cfg.mode == "phase-diagram":
            _mode_phase_diagram(cfg, outdir, manifest, threads=threads)
        else:
            _MODE_IMPL[cfg.mode](cfg, outdir, manifest)
        if svg:
            with _stage(manifest, "plot"):
                _write_svg(cfg, outdir, manifest)
    finally:
        manifest.finished = RunManifest.now()
        (outdir / "manifest.json").write_text(manifest.to_json())
    return manifest


def preset_names() -> list[str]:
    root = resources.files("ringcarl") / "presets"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".ini"))


def load_preset(name: str) -> str:
    path = resources.files("ringcarl") / "presets" / f"{name}.ini"
    if not path.is_file():
        raise ConfigError(
            [f"unknown preset {name!r}; available: {', '.join(preset_names())}"]
        )
    return path.read_text()


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ringcarl",
        description="Collective dynamics of a polarizable gas in a two-side "
        "pumped ring cavity: simulation and stability analysis.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode, help=f"run in {mode} mode")
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", help="path to an INI config file")
        src.add_argument("--preset", help="name of a bundled preset")
        sp.add_argument("--out", help="output directory "
                        "(default: $RINGCARL_OUT/<mode> or ./runs/<mode>)")
        sp.add_argument("--seed", type=int, help="override run.seed")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker processes for sweeps")
        sp.add_argument("--svg", action="store_true", help="also emit SVG plots")
    lp = sub.add_parser("presets", help="list bundled presets")
    lp.set_defaults(list_presets=True)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "list_presets", False):
        for name in preset_names():
            print(name)
        return 0
    try:
        if args.preset:
            text = load_preset(args.preset)
        else:
            text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        text = _override_seed(text, args.seed)
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.mode != args.command:
        print(
            f"error: config mode {cfg.mode!r} does not match "
            f"subcommand {args.command!r}",
            file=sys.stderr,
        )
        return 1
    out = args.out or cfg.out
    if not out:
        root = os.environ.get("RINGCARL_OUT", "runs")
        out = str(Path(root) / cfg.mode)
    try:
        manifest = run_experiment(cfg, out, threads=args.threads, svg=args.svg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IntegrationDivergedError, DomainError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    for key, value in sorted(manifest.results.items()):
        print(f"{key}: {value}")
    print(f"artifacts in {out}")
    return 0


def _override_seed(text: str, seed: int) -> str:
    """Rewrite (or insert) run.seed in raw INI text."""
    import configparser
    import io

    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    if not cp.has_section("run"):
        cp.add_section("run")
    cp.set("run", "seed", str(seed))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


if __name__ == "__main__":
    raise SystemExit(main())
