"""Command-line harness: presets, experiment execution, sweeps, persistence.

Subcommands mirror the run modes (nbody, vlasov, stability-boundary,
phase-diagram); classify, slow-beam and validate-wave are old names of
nbody, accepted as subcommands and in ``run.mode``.  Each run writes its
CSV artifacts plus a ``manifest.json`` into the output directory; CSV is
the data contract.  ``--seed`` replaces ``run.seed`` before the config is
checked, so it meets the key's rule.  A run only reads the numbers that
``parse_config`` derived: S_c(A = 0), the pump points, the derived block.

Exit codes: 0 success (also --help and --version), 1 validation or usage
error, 2 numerical failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import os
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, bgk, nbody, stability, vlasov
from .config import ALIASES, MODES, ConfigError, RunConfig, RunManifest, parse_config
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


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_timeseries(path, series: TimeSeries) -> None:
    th = series.theta
    # abs of each scalar theta: np.abs over the array can differ in the last bit
    columns = zip(series.tau, th.real, th.imag, map(abs, th), series.v_cm,
                  *series.intensities.T, series.kinetic_energy, series.field_momentum)
    _write_csv(path, TIMESERIES_HEADER, (map(_fmt, row) for row in columns))


def write_snapshot(path, grid: vlasov.PhaseSpaceGrid) -> None:
    """Dense matrix as text: 'nx nv' header line, then one row per chi node.

    ``tolist`` yields Python floats, whose ``repr`` is what :func:`_fmt`
    writes; one row at a time, so no grid of Python floats is built.
    """
    with open(path, "w") as fh:
        fh.write(f"{grid.nx} {grid.nv}\n")
        fh.writelines(" ".join(map(repr, row.tolist())) + "\n" for row in grid.f)


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
    """Call a time-stepping solver as the integrate stage; records its steps.

    Files the solver's callbacks write meanwhile (:func:`_save`) count in
    the write stage only, not in ``integrate_s`` and ``us_per_step``.
    """
    t = manifest.timings
    written = t.get("write_s", 0.0)
    try:
        with _stage(manifest, "integrate"):
            out = solver(*args, **kwargs)
    finally:  # also when the run fails after writing some files
        t["integrate_s"] -= t.get("write_s", 0.0) - written
    steps = step_count(cfg.t_end, cfg.dt)
    t["steps"] = steps
    t["us_per_step"] = 1e6 * t["integrate_s"] / steps
    return out


def _save(manifest: RunManifest, path: Path, write, *args) -> None:
    """Write one artifact as ``write(path, *args)`` in the write stage and
    record its checksum."""
    with _stage(manifest, "write"):
        write(path, *args)
        manifest.add_file(path)


# ---------------------------------------------------------------------------
# mode implementations
# ---------------------------------------------------------------------------


def _series_results(cfg: RunConfig, series: TimeSeries, manifest: RunManifest) -> None:
    """Record what a sampled run says about its regime.

    Every run gets its ``classify_run`` label, the trailing means of |theta|
    and v_cm, and the analytic regime of its (S, A) (``error:<Type>`` if
    the root search fails).  A wave or runaway label adds the BGK
    ``wave_report`` when the trailing window is stationary enough to
    validate, and a drifting start (``mean_u`` != 0) its slowing fraction.
    """
    r = manifest.results
    label = nbody.classify_run(series) if len(series) >= 8 else "unclassified"
    r["classification"] = label
    w = series.trailing_window()
    r["trailing_abs_theta"] = float(np.mean(np.abs(series.theta[w])))
    r["trailing_v_cm"] = float(np.mean(series.v_cm[w]))
    p = cfg.params
    (analytic,) = stability.classify_regimes(cfg.points, p)
    if isinstance(analytic, Exception):
        r["analytic_regime"] = f"error:{type(analytic).__name__}"
    else:
        r["analytic_regime"] = analytic.regime
        if analytic.growth is not None:
            r["analytic_growth_re"] = float(analytic.growth.real)
            r["analytic_growth_im"] = float(analytic.growth.imag)
    if label in ("ordered-wave", "carl"):
        with suppress(DomainError):  # raised for a trailing window that is not stationary
            r["wave_report"] = vars(bgk.validate_wave(series, p))
    mean_u = cfg.options[cfg.mode]["mean_u"]  # the [nbody] or [vlasov] key
    if mean_u != 0:
        r["slowing_fraction"] = 1.0 - abs(r["trailing_v_cm"]) / abs(mean_u)


def _mode_nbody(cfg: RunConfig, outdir: Path, manifest: RunManifest) -> None:
    # the [nbody] keys and run.seed are its fields
    init = nbody.InitialCondition(seed=cfg.seed, **cfg.options["nbody"])
    series = _integrate(
        cfg, manifest, nbody.run, cfg.params, init=init, t_end=cfg.t_end,
        sample_every=cfg.sample_every, dt=cfg.dt,
    )
    _save(manifest, outdir / "timeseries.csv", write_timeseries, series)
    _series_results(cfg, series, manifest)


def _mode_vlasov(cfg: RunConfig, outdir: Path, manifest: RunManifest) -> None:
    def snapshot(tau, grid):  # written as it is taken: the run keeps no grid
        _save(manifest, outdir / f"snapshot_tau{tau:g}.txt", write_snapshot, grid)

    series, final = _integrate(  # the [vlasov] keys are keywords of run_vlasov
        cfg, manifest, vlasov.run_vlasov,
        cfg.params, t_end=cfg.t_end, sample_every=cfg.sample_every, dt=cfg.dt,
        snapshot=snapshot, **cfg.options["vlasov"],
    )
    _save(manifest, outdir / "timeseries.csv", write_timeseries, series)
    manifest.timings["slabs"] = vlasov.slab_count(final.nx, final.nv)
    manifest.results["lost_mass"] = float(final.lost_mass)
    _series_results(cfg, series, manifest)


def _mode_boundary(cfg: RunConfig, outdir: Path, manifest: RunManifest) -> None:
    # each temperature once; parse_config has checked that their names differ
    for u_t, sc in cfg.thresholds.items():
        p = replace(cfg.params, u_t=u_t)
        grid = stability.default_omega_grid(p, n=2 * cfg.options["boundary"]["n_omega"])
        curve = stability.boundary_curve(p, grid)
        rows = (map(_fmt, row) for row in zip(curve.omega, curve.s_total, curve.a_asym))
        _save(manifest, outdir / f"boundary_ut{u_t:g}.csv", _write_csv, BOUNDARY_HEADER, rows)
        manifest.results.setdefault("thresholds_a0", {})[f"u_t={u_t:g}"] = sc


# ---------------------------------------------------------------------------
# phase-diagram sweep (resumable, parallel)
# ---------------------------------------------------------------------------


def _dynamic_label(args) -> str:
    """N-body label of one cell, or ``error:<Type>`` if its run fails."""
    params, init, t_end, dt, sample_every = args
    try:
        series = nbody.run(params, init=init, t_end=t_end, dt=dt, sample_every=sample_every)
        return nbody.classify_run(series)
    except (DomainError, IntegrationDivergedError, RuntimeError) as exc:
        return f"error:{type(exc).__name__}"


def _sweep_rows(cells, cfg: RunConfig, threads: int, stats) -> list[list[str]]:
    """Phase-diagram CSV rows (lists of str) of the cells (pump points), in order.

    All cells are classified in this process by one batch, whose root
    search adds its counts to ``stats``.  A dynamic sweep then runs the
    N-body simulation of each classified cell, on up to ``threads`` worker
    processes, never more than runs.  A cell that raises gets an error row.
    """
    outcome = stability.classify_regimes(cells, cfg.params, stats)
    labels = {}
    if cfg.options["sweep"]["dynamic"]:
        todo = [i for i, res in enumerate(outcome) if not isinstance(res, Exception)]
        init = nbody.InitialCondition(seed=cfg.seed, **cfg.options["nbody"])
        runs = [(replace(cfg.params, s_total=cells[i].s_total, a_asym=cells[i].a_asym), init,
                 cfg.t_end, cfg.dt, cfg.sample_every) for i in todo]
        workers = min(threads, len(runs))
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                labels = dict(zip(todo, pool.map(_dynamic_label, runs)))
        else:
            labels = dict(zip(todo, map(_dynamic_label, runs)))
    rows = []
    for i, (cell, res) in enumerate(zip(cells, outcome)):
        s, a = cell.s_total, cell.a_asym
        label = f"error:{type(res).__name__}" if isinstance(res, Exception) else labels.get(i)
        if label is not None and label.startswith("error:"):
            rows.append([_fmt(s), _fmt(a), label, _fmt(0.0), _fmt(0.0)])
            continue
        regime = res.regime if label is None else f"{res.regime}/{label}"
        growth = res.growth if res.growth is not None else 0.0j
        rows.append([_fmt(s), _fmt(a), regime, _fmt(growth.real), _fmt(growth.imag)])
    return rows


def _without_grid(snapshot: dict) -> dict:
    """A config snapshot minus the sweep grid, which may grow between runs."""
    return {
        sec: {k: v for k, v in kv.items()
              if sec != "sweep" or k not in ("s_over_sc", "a_over_s")}
        for sec, kv in snapshot.items()
    }


def _existing_rows(path: Path, manifest_path: Path, snapshot: dict) -> dict:
    """Rows of a previous sweep output that a run of `snapshot` may reuse,
    keyed by their (S, A) text.

    Rows are reused only when the previous manifest verifies the CSV's
    checksum and recorded the same config apart from the sweep grid;
    otherwise (no manifest, an unreadable one, a stale or corrupt CSV,
    other physics or options) everything is recomputed.
    """
    if not path.exists() or not manifest_path.exists():
        return {}
    from .config import sha256_file

    try:
        old = RunManifest.from_json(manifest_path.read_text())
        if old.files.get(path.name) != sha256_file(path):
            return {}
        if _without_grid(old.config) != _without_grid(snapshot):
            return {}
    except (ValueError, TypeError, AttributeError):
        # truncated or not JSON, missing or unknown keys, values of another type
        return {}
    with open(path, newline="") as fh:
        return {(row[0], row[1]): row for row in csv.reader(fh) if row and row[0] != "S"}


def _mode_phase_diagram(
    cfg: RunConfig, outdir: Path, manifest: RunManifest, threads: int = 1
) -> None:
    path = outdir / "phase_diagram.csv"
    done = _existing_rows(path, outdir / "manifest.json", cfg.snapshot)
    keys = [(_fmt(c.s_total), _fmt(c.a_asym)) for c in cfg.points]
    todo = [cell for cell, key in zip(cfg.points, keys) if key not in done]
    stats = stability.SearchStats()
    with _stage(manifest, "sweep"):
        rows = _sweep_rows(todo, cfg, threads, stats)
    computed = iter(rows)
    # the whole grid in order: rows of cells off the current grid go
    _save(manifest, path, _write_csv, PHASE_HEADER,
          (done[key] if key in done else next(computed) for key in keys))
    manifest.results["n_cells"] = len(cfg.points)
    manifest.results["n_computed"] = len(rows)
    manifest.results["n_resumed"] = len(cfg.points) - len(todo)
    manifest.results["n_errors"] = sum(row[2].startswith("error:") for row in rows)
    manifest.results["n_refined"] = stats.refined
    manifest.results["n_roots_polished"] = stats.polished
    manifest.results["max_newton_iterations"] = stats.max_newton_iterations


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

_MODE_IMPL = {
    "nbody": _mode_nbody,
    "vlasov": _mode_vlasov,
    "stability-boundary": _mode_boundary,
}


def run_experiment(cfg: RunConfig, outdir, threads: int = 1) -> RunManifest:
    """Execute the configured mode, writing artifacts + manifest to outdir."""
    t0 = time.perf_counter()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        config=cfg.snapshot, version=__version__, mode=cfg.mode,
        started=RunManifest.now(), derived=cfg.derived,
    )
    manifest.timings["setup_s"] = time.perf_counter() - t0
    try:
        if cfg.mode == "phase-diagram":
            _mode_phase_diagram(cfg, outdir, manifest, threads=threads)
        else:
            _MODE_IMPL[cfg.mode](cfg, outdir, manifest)
    except BaseException as exc:  # the manifest of a failed run says so
        manifest.error = f"{type(exc).__name__}: {exc}"
        raise
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


def _workers(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ringcarl",
        description="Collective dynamics of a polarizable gas in a two-side "
        "pumped ring cavity: simulation and stability analysis.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for mode in MODES:
        aliases = [old for old, new in ALIASES.items() if new == mode]
        sp = sub.add_parser(mode, aliases=aliases, help=f"run in {mode} mode")
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", help="path to an INI config file")
        src.add_argument("--preset", help="name of a bundled preset")
        sp.add_argument("--out", help="output directory "
                        "(default: $RINGCARL_OUT/<mode> or ./runs/<mode>)")
        sp.add_argument("--seed", type=int, help="override run.seed")
        if mode == "phase-diagram":
            sp.add_argument("--threads", type=_workers, default=1,
                            help="worker processes for the N-body runs of a dynamic sweep")
    lp = sub.add_parser("presets", help="list bundled presets")
    lp.set_defaults(list_presets=True)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code == 2 else exc.code
    if getattr(args, "list_presets", False):
        for name in preset_names():
            print(name)
        return 0
    try:
        text = Path(args.config).read_text() if args.preset is None else None
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        cfg = parse_config(load_preset(args.preset) if text is None else text, args.seed)
        if cfg.mode != ALIASES.get(args.command, args.command):
            raise ConfigError([f"config mode {cfg.mode!r} does not match "
                               f"subcommand {args.command!r}"])
        out = args.out or cfg.out or str(Path(os.environ.get("RINGCARL_OUT", "runs")) / cfg.mode)
        manifest = run_experiment(cfg, out, threads=getattr(args, "threads", 1))
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


if __name__ == "__main__":
    raise SystemExit(main())
