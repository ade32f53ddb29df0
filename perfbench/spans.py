"""In-memory span tracing of ringcarl's layers, installed from outside.

A :class:`Tracer` replaces module attributes such as
``ringcarl.vlasov.vlasov_step`` with wrappers that record one span per
call: target index, start, end and the index of the enclosing span.
Nothing under ``src/`` is modified; because the package looks its
functions up as module globals or ``module.attr`` at call time, the
wrappers see every call made after installation.  A target missing from
the program (deleted or renamed by a later change) is left out and every
metric that depends on it is reported as absent.

Spans stay in flat arrays until :meth:`Tracer.dump` writes them as one
JSON document; :func:`layer_metrics` turns such a document into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module.attr`` belonging to ``layer``.

    ``work`` maps the values of the parameters named in ``args``, then the
    result, to counters summed over calls, e.g. RK4 steps or dispersion
    points; it runs outside the span.  A target whose signature lacks one
    of ``args`` counts as absent.
    """

    layer: str
    module: str
    attr: str
    args: tuple[str, ...] = ()
    work: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _nbody_work(params, t_end, dt, result):
    steps = int(round(t_end / dt))
    return {"steps": steps, "particle_steps": steps * params.n_particles}


TARGETS = (
    Target("cli", "ringcarl.cli", "run_experiment", (),
           lambda r: {"cells": r.results.get("n_computed", 0)}),
    Target("cli", "ringcarl.cli", "write_timeseries"),
    Target("cli", "ringcarl.cli", "write_snapshot", ("path",),
           lambda path, r: {"bytes": os.path.getsize(path)}),
    Target("config", "ringcarl.config", "parse_config"),
    Target("config", "ringcarl.config", "sha256_file"),
    Target("nbody", "ringcarl.nbody", "run", ("params", "t_end", "dt"), _nbody_work),
    Target("nbody", "ringcarl.nbody", "classify_run"),
    Target("vlasov", "ringcarl.vlasov", "run_vlasov"),
    Target("vlasov", "ringcarl.vlasov", "vlasov_step", ("grid",),
           lambda grid, r: {"cells": grid.f.size}),
    Target("vlasov", "ringcarl.vlasov", "shift_periodic_chi"),
    Target("vlasov", "ringcarl.vlasov", "shift_clamped_u"),
    Target("vlasov", "ringcarl.vlasov", "spline_filter1d"),
    Target("vlasov", "ringcarl.vlasov", "grid_moments"),
    Target("stability", "ringcarl.stability", "classify_regime"),
    Target("stability", "ringcarl.stability", "max_growth_rate"),
    Target("stability", "ringcarl.stability", "dispersion", ("s",),
           lambda s, r: {"points": getattr(s, "size", 1)}),
    Target("stability", "ringcarl.stability", "dispersion_derivative"),
    Target("bgk", "ringcarl.bgk", "validate_wave"),
)


def _argument_getter(fn, names):
    """Fetch the named parameters from (args, kwargs); None if one is missing."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None if names else (lambda args, kwargs: [])
    spec = []
    for name in names:
        pos = [i for i, p in enumerate(params) if p.name == name]
        if not pos:
            return None
        spec.append((pos[0], name, params[pos[0]].default))

    def get(args, kwargs):
        return [args[i] if i < len(args) else kwargs.get(n, d) for i, n, d in spec]

    return get


class Tracer:
    """Records spans for every call of the installed targets (one thread)."""

    def __init__(self, targets=TARGETS):
        self.targets = list(targets)
        self.present: list[bool] = [False] * len(self.targets)
        self.target = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for k, t in enumerate(self.targets):
            try:
                mod = importlib.import_module(t.module)
            except ImportError:
                continue
            fn = getattr(mod, t.attr, None)
            if not callable(fn):
                continue
            getter = _argument_getter(fn, t.args)
            if getter is None:
                continue
            self.present[k] = True
            self._saved.append((mod, t.attr, fn))
            setattr(mod, t.attr, self._wrap(k, fn, getter))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, k: int, fn, getter):
        t = self.targets[k]
        clock = time.perf_counter
        stack = self._stack
        push, pop = stack.append, stack.pop
        add_target, add_parent = self.target.append, self.parent.append
        add_start, add_end, ends = self.start.append, self.end.append, self.end
        work = t.work
        acc = self.counters.setdefault(t.name, {}) if work is not None else None

        def wrapper(*args, **kwargs):
            i = len(ends)
            add_target(k)
            add_parent(stack[-1] if stack else -1)
            add_end(0.0)
            push(i)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                pop()
            if work is not None:
                for key, v in work(*getter(args, kwargs), result).items():
                    acc[key] = acc.get(key, 0) + v
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def document(self) -> dict:
        return {
            "targets": [
                {"name": t.name, "layer": t.layer, "present": p}
                for t, p in zip(self.targets, self.present)
            ],
            "spans": {
                "target": list(self.target),
                "parent": list(self.parent),
                "start": list(self.start),
                "end": list(self.end),
            },
            "counters": self.counters,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.document(), fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the part of its interval that child spans cover."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(int(p), []).append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(kids, key=lambda c: start[c]):
            a, b = max(start[c], lo), min(end[c], hi)
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


def _percentile_ms(d: np.ndarray, q: float) -> float:
    return float(np.percentile(d, q)) * 1e3 if d.size else 0.0


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics from one trace document.

    A metric whose inputs include a target absent from the program is left
    out.  Inclusive ``.s`` times count a function's children; the
    ``.share`` metrics split the traced wall time (the sum of the root
    spans) by self time, so the layer shares add up to one.
    """
    targets = doc["targets"]
    sp = doc["spans"]
    tid = np.asarray(sp["target"], dtype=int)
    start = np.asarray(sp["start"], dtype=float)
    end = np.asarray(sp["end"], dtype=float)
    parent = np.asarray(sp["parent"], dtype=int)
    dur = end - start
    own = self_times(start, end, parent)
    index = {t["name"]: k for k, t in enumerate(targets)}
    present = {t["name"] for t in targets if t["present"]}
    counters = doc.get("counters", {})
    total = float(dur[parent < 0].sum()) or 1.0

    def durations(name):
        return dur[tid == index[name]]

    def incl(name):
        return float(durations(name).sum())

    def calls(name):
        return int(durations(name).size)

    def count(name, key):
        return counters.get(name, {}).get(key, 0)

    def share(*layers):
        ks = [k for k, t in enumerate(targets) if t["layer"] in layers]
        return float(own[np.isin(tid, ks)].sum()) / total

    def ratio(a, b):
        return a / b if b else 0.0

    N, V, S, C, G = ("ringcarl.nbody.", "ringcarl.vlasov.", "ringcarl.stability.",
                     "ringcarl.cli.", "ringcarl.config.")
    # metric -> (targets it needs, how to compute it)
    table = {
        "nbody.run.s": ([N + "run"], lambda: incl(N + "run")),
        "nbody.steps": ([N + "run"], lambda: count(N + "run", "steps")),
        "nbody.us_per_step": ([N + "run"], lambda: 1e6 * ratio(
            incl(N + "run"), count(N + "run", "steps"))),
        "nbody.particle_steps_per_s": ([N + "run"], lambda: ratio(
            count(N + "run", "particle_steps"), incl(N + "run"))),
        "nbody.share": ([], lambda: share("nbody")),
        "vlasov.run_vlasov.s": ([V + "run_vlasov"], lambda: incl(V + "run_vlasov")),
        "vlasov.vlasov_step.calls": ([V + "vlasov_step"], lambda: calls(V + "vlasov_step")),
        "vlasov.vlasov_step.p50_ms": ([V + "vlasov_step"], lambda: _percentile_ms(
            durations(V + "vlasov_step"), 50)),
        "vlasov.vlasov_step.p99_ms": ([V + "vlasov_step"], lambda: _percentile_ms(
            durations(V + "vlasov_step"), 99)),
        "vlasov.chi_shift.s": ([V + "shift_periodic_chi"], lambda: incl(V + "shift_periodic_chi")),
        "vlasov.u_shift.s": ([V + "shift_clamped_u"], lambda: incl(V + "shift_clamped_u")),
        "vlasov.prefilter.s": ([V + "spline_filter1d"], lambda: incl(V + "spline_filter1d")),
        "vlasov.prefilter.calls": ([V + "spline_filter1d"], lambda: calls(V + "spline_filter1d")),
        "vlasov.grid_moments.s": ([V + "grid_moments"], lambda: incl(V + "grid_moments")),
        "vlasov.cell_updates_per_s": ([V + "vlasov_step"], lambda: ratio(
            count(V + "vlasov_step", "cells"), incl(V + "vlasov_step"))),
        "vlasov.share": ([], lambda: share("vlasov")),
        "stability.classify_regime.calls": ([S + "classify_regime"], lambda: calls(
            S + "classify_regime")),
        "stability.classify_regime.p50_ms": ([S + "classify_regime"], lambda: _percentile_ms(
            durations(S + "classify_regime"), 50)),
        "stability.classify_regime.p99_ms": ([S + "classify_regime"], lambda: _percentile_ms(
            durations(S + "classify_regime"), 99)),
        "stability.dispersion.calls": ([S + "dispersion"], lambda: calls(S + "dispersion")),
        "stability.dispersion.points": ([S + "dispersion"], lambda: count(
            S + "dispersion", "points")),
        "stability.dispersion_calls_per_point": (
            [S + "dispersion", S + "classify_regime"],
            lambda: ratio(calls(S + "dispersion"), calls(S + "classify_regime"))),
        "stability.dispersion_derivative.calls": ([S + "dispersion_derivative"], lambda: calls(
            S + "dispersion_derivative")),
        "stability.share": ([], lambda: share("stability")),
        "bgk.validate_wave.s": (["ringcarl.bgk.validate_wave"], lambda: incl(
            "ringcarl.bgk.validate_wave")),
        "config.parse_config.s": ([G + "parse_config"], lambda: incl(G + "parse_config")),
        "config.sha256_file.s": ([G + "sha256_file"], lambda: incl(G + "sha256_file")),
        "cli.write_timeseries.s": ([C + "write_timeseries"], lambda: incl(C + "write_timeseries")),
        "cli.write_snapshot.s": ([C + "write_snapshot"], lambda: incl(C + "write_snapshot")),
        "cli.write_snapshot.bytes": ([C + "write_snapshot"], lambda: count(
            C + "write_snapshot", "bytes")),
        "cli.cells_per_s": ([C + "run_experiment"], lambda: ratio(
            count(C + "run_experiment", "cells"), incl(C + "run_experiment"))),
        "cli.share": ([], lambda: share("cli", "config")),
    }
    return {
        name: fn()
        for name, (needs, fn) in table.items()
        if all(n in present for n in needs)
    }
