"""Strict INI-style run configuration and the run manifest.

The grammar (documented in docs/config.md) is standard configparser INI
with sections [run], [physics] and optional [nbody], [vlasov], [boundary],
[sweep].  ``_SCHEMA`` is its one rule table (each key's type, default,
requiredness and range; every float must be finite), checked in one pass,
then the rules that tie keys together.  Unknown sections or keys, missing
required keys, unparsable and out-of-range values are all collected and
reported together in a single :class:`ConfigError`.

``parse_config`` alone decides whether S_c(A = 0) exists and computes it,
then the numbers built on it (the derived block, boundary thresholds and
sweep cells that :class:`RunConfig` carries), each checked where it is made.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import DomainError, SystemParams
from .stability import PumpPoint, carl_bound, s_bgk, threshold_sc_a0

__all__ = [
    "ConfigError",
    "RunConfig",
    "RunManifest",
    "parse_config",
    "MODES",
    "ALIASES",
]

MODES = ("nbody", "vlasov", "stability-boundary", "phase-diagram")
# old mode names, resolved at parse time; slow-beam keeps its preconditions
ALIASES = {"classify": "nbody", "slow-beam": "nbody", "validate-wave": "nbody"}

REQUIRED = object()  # the default of a key that must be given

# "section.key" -> (type tag, default, range).  A default of REQUIRED marks a
# key that must be given, None one that may stay unset; the range ("> 0",
# ">= 1", "in [-1, 1]") is what the value, or each element of a list, must
# meet.  Rows are in the order their violations are reported.
_SCHEMA = {
    "run.mode": ("mode", REQUIRED, None),
    "run.t_end": ("float", 60.0, "> 0"),
    "run.dt": ("float", 1e-3, "> 0"),         # _VLASOV_DT for vlasov if absent
    "run.sample_every": ("float", 0.1, "> 0"),
    "run.seed": ("int", 0, ">= 0"),
    "run.out": ("str", "", None),
    "physics.delta": ("float", REQUIRED, None),
    "physics.n_particles": ("int", REQUIRED, ">= 1"),
    "physics.nu0": ("float", REQUIRED, None),  # collective coupling N*u0
    "physics.rho_r": ("float", 0.01, "> 0"),
    "physics.u_t": ("float", REQUIRED, ">= 0"),
    "physics.s_total": ("float", None, None),  # give either s_total or s_over_sc
    "physics.s_over_sc": ("float", None, None),
    "physics.a_asym": ("float", None, None),   # give at most one of a_asym, a_over_s
    "physics.a_over_s": ("float", 0.0, None),
    "nbody.mean_u": ("float", 0.0, None),
    "nbody.cosine_eps": ("float", None, None),
    "nbody.quiet_velocities": ("bool", False, None),
    "nbody.random_positions": ("bool", False, None),
    "vlasov.nx": ("int", 256, ">= 1"),        # the solver sizes
    "vlasov.nv": ("int", 512, ">= 2"),
    "boundary.n_omega": ("int", 200, ">= 1"),
    "vlasov.cosine_eps": ("float", 1e-3, None),
    "vlasov.mean_u": ("float", 0.0, None),
    "vlasov.snapshot_every": ("float", None, "> 0"),
    "boundary.u_t_list": ("floatlist", None, "> 0"),  # extra curves besides physics.u_t
    "sweep.s_over_sc": ("grid", None, ">= 0"),
    "sweep.a_over_s": ("grid", None, "in [-1, 1]"),
    "sweep.dynamic": ("bool", False, None),
}
_SECTIONS = {name.split(".")[0] for name in _SCHEMA}

_VLASOV_DT = 5e-3


class ConfigError(DomainError):
    """Invalid configuration; ``violations`` lists every problem found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n  " + "\n  ".join(self.violations))


def _float(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(f"{v} is not finite")
    return v


def _parse_value(tag: str, raw: str, where: str, errors: list):
    raw = raw.strip()
    try:
        if tag == "float":
            return _float(raw)
        if tag == "int":
            return int(raw)
        if tag == "bool":
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if tag == "str":
            return raw
        if tag == "mode":
            if raw not in MODES and raw not in ALIASES:
                raise ValueError(f"must be one of {', '.join(MODES + tuple(ALIASES))}")
            return raw
        if tag == "grid" and ":" in raw:  # lo:hi:n inclusive linear grid
            lo, hi, n = raw.split(":")
            lo, hi, n = _float(lo), _float(hi), int(n)
            if n < 1:
                raise ValueError("grid needs n >= 1")
            return [float(v) for v in np.linspace(lo, hi, n)]
        if tag in ("floatlist", "grid"):  # a plain comma/space list
            return [_float(x) for x in raw.replace(",", " ").split()]
    except ValueError as exc:
        errors.append(f"{where}: cannot parse {raw!r} as {tag} ({exc})")
        return None
    raise AssertionError(f"unknown tag {tag}")


def _meets(v, rule: str) -> bool:
    """Whether v lies in a range of ``_SCHEMA``: '> b', '>= b' or 'in [lo, hi]'."""
    op, bound = rule.split(" ", 1)
    if op == "in":
        lo, hi = map(float, bound.strip("[]").split(","))
        return lo <= v <= hi
    return v > float(bound) if op == ">" else v >= float(bound)


def _derived(errors: list, key: str, what: str, make, positive: bool = False):
    """make(), or None and a config error naming key where it is not finite (or > 0)."""
    try:
        with np.errstate(all="ignore"):  # numpy's overflow is an inf, checked below
            v = make()
    except (OverflowError, ZeroDivisionError):  # Python's float overflow or x / 0
        v = math.inf
    if math.isfinite(v) and (v > 0 or not positive):
        return v
    errors.append(f"{key}: {what} must be finite{' and > 0' if positive else ''}, got {v}")
    return None


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration of one experiment, and the numbers derived from it."""

    mode: str
    params: SystemParams
    t_end: float
    dt: float
    sample_every: float
    seed: int
    out: str
    options: dict = field(default_factory=dict)  # per-section extras
    snapshot: dict = field(default_factory=dict)  # normalized key-value copy
    derived: dict = field(default_factory=dict)  # the manifest's derived block
    thresholds: dict = field(default_factory=dict)  # u_t -> S_c(A = 0), each temperature
    points: tuple = ()  # PumpPoints classified: the sweep's cells or the run's (S, A)


def parse_config(text: str, seed: int | None = None) -> RunConfig:
    """Parse and validate INI text; raises ConfigError listing all problems.

    A ``seed`` replaces ``run.seed`` before the checks: it meets the key's
    rule, and the config records it as if the text gave it.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from exc

    errors: list[str] = []
    given: dict[str, dict] = {}  # section -> {key: raw text}
    for section in cp.sections():
        if section not in _SECTIONS:
            errors.append(f"unknown section [{section}]")
            continue
        given[section] = {}
        for key, raw in cp.items(section):
            if f"{section}.{key}" in _SCHEMA:
                given[section][key] = raw
            else:
                errors.append(f"unknown key {section}.{key}")
    if seed is not None:
        given.setdefault("run", {})["seed"] = str(seed)

    values = {}
    for name, (tag, default, rule) in _SCHEMA.items():
        section, key = name.split(".")
        if key in given.get(section, {}):
            v = _parse_value(tag, given[section][key], name, errors)
        elif default is REQUIRED:
            errors.append(f"missing required key {name}")
            v = None
        else:
            v = default
        values[name] = v
        if rule is None or v is None:
            continue
        bad = [x for x in (v if isinstance(v, list) else [v]) if not _meets(x, rule)]
        if bad:  # a list names its bad elements
            errors.append(f"{name} must be {rule}, got {bad if isinstance(v, list) else v}")
    n = values["physics.n_particles"]
    if not errors:
        u0 = _derived(errors, "physics.n_particles", "nu0 / n_particles",
                      lambda: values["physics.nu0"] / n)
    if errors:
        raise ConfigError(errors)

    # the rules that tie keys together, and the numbers derived from them
    given_mode = values["run.mode"]
    mode = ALIASES.get(given_mode, given_mode)
    base = SystemParams(delta=values["physics.delta"], n_particles=n, u0=u0,
                        rho_r=values["physics.rho_r"], u_t=values["physics.u_t"])
    # S_c(A = 0) = u_t^2 (1 + delta^2)^2 / (2 rho_r N u0^2 |delta|) is 0 for a cold gas and
    # diverges at delta = 0 or N u0 = 0; else it is made here, once per temperature
    missing = [need for need, met in (("u_t > 0", base.u_t > 0), ("delta != 0", base.delta != 0),
                                      ("nu0 != 0", base.u0 != 0)) if not met]
    u_ts = [base.u_t, *((mode == "stability-boundary" and values["boundary.u_t_list"]) or ())]
    thresholds = {} if missing else {
        u_t: _derived(errors, "boundary.u_t_list" if i else "physics.u_t",
                      f"S_c(A = 0) at u_t = {u_t:g}",
                      lambda: threshold_sc_a0(replace(base, u_t=u_t)), positive=True)
        for i, u_t in enumerate(dict.fromkeys(u_ts))}  # each temperature once
    sc = thresholds.get(base.u_t)
    derived = {"carl_bound": _derived(errors, "physics.delta", "carl_bound",
                                      lambda: carl_bound(base))}

    s_total = values["physics.s_total"]
    s_over_sc = values["physics.s_over_sc"]
    if (s_total is None) == (s_over_sc is None) and mode not in ("stability-boundary",
                                                                  "phase-diagram"):
        errors.append("physics: give exactly one of s_total, s_over_sc")
    if s_total is None and s_over_sc is not None:
        if missing:
            errors.append(f"physics.s_over_sc needs {' and '.join(missing)}")
        elif sc is not None:
            s_total = _derived(errors, "physics.s_over_sc", "S", lambda: s_over_sc * sc)
    if s_total is None:
        s_total = 0.0
    a_asym = values["physics.a_asym"]
    if a_asym is not None and "a_over_s" in given["physics"]:
        errors.append("physics: give at most one of a_asym, a_over_s")
    if a_asym is None:
        a_asym = values["physics.a_over_s"] * s_total
    if errors:
        raise ConfigError(errors)

    try:
        params = replace(base, s_total=s_total, a_asym=a_asym)
    except DomainError as exc:
        raise ConfigError([str(exc)]) from exc
    derived.update(s_total=s_total, a_asym=a_asym)
    if sc is not None:
        derived.update(sc_a0=sc, s_bgk=_derived(errors, "physics.a_asym", "S_BGK(A)",
                                                lambda: s_bgk(params, a_asym)))
    points = (PumpPoint(s_total, a_asym),) if mode in ("nbody", "vlasov") else ()

    if mode == "vlasov" and "dt" not in given["run"]:
        values["run.dt"] = _VLASOV_DT
    dt = values["run.dt"]
    for name in ("run.t_end", "run.sample_every", "vlasov.snapshot_every"):
        if values[name] is not None and values[name] < dt:
            # split_run rounds intervals to whole steps, at least one; a run
            # shorter than dt would take none
            errors.append(f"{name} must be >= run.dt = {dt:g}, got {values[name]}")
    if mode == "vlasov" and base.u_t <= 0:  # the grid's u range is the thermal width
        errors.append("vlasov mode needs u_t > 0")
    if mode in ("stability-boundary", "phase-diagram") and missing:
        # S drops out of D(s) at delta = 0 or N u0 = 0; a cold gas has no marginal curve
        errors.append(f"{mode} mode needs {' and '.join(missing)}")
    if len({f"{u:g}" for u in thresholds}) < len(thresholds):
        # one boundary_ut<u_t:g>.csv per temperature
        errors.append(f"boundary.u_t_list: different temperatures share a file "
                      f"name boundary_ut<u_t:g>.csv, got {sorted(thresholds)}")
    if mode == "phase-diagram":
        grid_s, grid_a = values["sweep.s_over_sc"], values["sweep.a_over_s"]
        if grid_s is None or grid_a is None:
            errors.append("phase-diagram mode needs sweep.s_over_sc and sweep.a_over_s")
        elif sc is not None:
            top = max(grid_s, default=0.0)  # r * sc grows with r >= 0: if S(top) is finite, all are
            if _derived(errors, "sweep.s_over_sc", f"S at {top!r}", lambda: top * sc) is not None:
                points = tuple(PumpPoint(r * sc, aos * r * sc) for r in grid_s for aos in grid_a)
    if given_mode == "slow-beam":
        if values["nbody.mean_u"] == 0.0:
            errors.append("slow-beam mode needs nbody.mean_u != 0")
        if params.a_asym != 0:
            errors.append(f"slow-beam mode needs symmetric pumps, got A = {params.a_asym:g}")
    if errors:
        raise ConfigError(errors)

    options = {sec: {name.split(".")[1]: v for name, v in values.items()
                     if name.startswith(sec + ".")}
               for sec in ("nbody", "vlasov", "boundary", "sweep")}
    return RunConfig(
        mode=mode,
        params=params,
        t_end=values["run.t_end"],
        dt=dt,
        sample_every=values["run.sample_every"],
        seed=values["run.seed"],
        out=values["run.out"],
        options=options,
        snapshot={sec: {k: str(values[f"{sec}.{k}"]) for k in kv} for sec, kv in given.items()},
        derived=derived,
        thresholds=thresholds,
        points=points,
    )


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Replayable record of one run: inputs, derived numbers, outputs."""

    config: dict
    version: str
    mode: str
    started: str = ""
    finished: str = ""
    derived: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)  # name -> sha256
    error: str | None = None
    # wall seconds per stage (time.perf_counter), plus steps and mean us per
    # step for the N-body and Vlasov modes; never part of a CSV
    timings: dict = field(default_factory=dict)

    @staticmethod
    def now() -> str:
        return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())

    def add_file(self, path) -> None:
        from pathlib import Path

        p = Path(path)
        self.files[p.name] = sha256_file(p)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True, default=str)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls(**json.loads(text))
