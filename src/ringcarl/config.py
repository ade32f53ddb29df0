"""Strict INI-style run configuration and the run manifest.

The grammar (documented in docs/config.md) is standard configparser INI
with sections [run], [physics] and optional [nbody], [vlasov], [boundary],
[sweep].  Parsing is strict: unknown sections or keys, missing required
keys and out-of-range values are all collected and reported together in a
single :class:`ConfigError`.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace

from .core import DomainError, SystemParams

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

# section -> {key: (type tag, default)}; a default of None means unset, and
# parse_config lists the keys that must be given
_SCHEMA = {
    "run": {
        "mode": ("mode", None),
        "t_end": ("float", 60.0),
        "dt": ("float", None),          # resolved per mode if absent
        "sample_every": ("float", 0.1),
        "seed": ("int", 0),
        "out": ("str", ""),
    },
    "physics": {
        "delta": ("float", None),
        "n_particles": ("int", None),
        "nu0": ("float", None),         # collective coupling N*u0
        "rho_r": ("float", 0.01),
        "u_t": ("float", None),
        "s_total": ("float", None),     # give either s_total or s_over_sc
        "s_over_sc": ("float", None),
        "a_asym": ("float", None),      # give at most one of a_asym, a_over_s
        "a_over_s": ("float", 0.0),
    },
    "nbody": {
        "mean_u": ("float", 0.0),
        "cosine_eps": ("float", None),
        "quiet_velocities": ("bool", False),
        "random_positions": ("bool", False),
    },
    "vlasov": {
        "nx": ("int", 256),
        "nv": ("int", 512),
        "cosine_eps": ("float", 1e-3),
        "mean_u": ("float", 0.0),
        "snapshot_every": ("float", None),
    },
    "boundary": {
        "n_omega": ("int", 200),
        "u_t_list": ("floatlist", None),  # extra curves besides physics.u_t
    },
    "sweep": {
        "s_over_sc": ("grid", None),
        "a_over_s": ("grid", None),
        "dynamic": ("bool", False),
    },
}

_DEFAULT_DT = {"vlasov": 5e-3}


class ConfigError(DomainError):
    """Invalid configuration; ``violations`` lists every problem found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n  " + "\n  ".join(self.violations))


def _parse_value(tag: str, raw: str, where: str, errors: list):
    raw = raw.strip()
    try:
        if tag == "float":
            return float(raw)
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
        if tag == "floatlist":
            return [float(x) for x in raw.replace(",", " ").split()]
        if tag == "grid":
            # lo:hi:n inclusive linear grid, or a plain comma/space list
            if ":" in raw:
                lo, hi, n = raw.split(":")
                lo, hi, n = float(lo), float(hi), int(n)
                if n < 1:
                    raise ValueError("grid needs n >= 1")
                import numpy as np

                return [float(v) for v in np.linspace(lo, hi, n)]
            return [float(x) for x in raw.replace(",", " ").split()]
    except ValueError as exc:
        errors.append(f"{where}: cannot parse {raw!r} as {tag} ({exc})")
        return None
    raise AssertionError(f"unknown tag {tag}")


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration of one experiment."""

    mode: str
    params: SystemParams
    t_end: float
    dt: float
    sample_every: float
    seed: int
    out: str
    options: dict = field(default_factory=dict)  # per-section extras
    snapshot: dict = field(default_factory=dict)  # normalized key-value copy

    def derived(self) -> dict:
        """Threshold quantities implied by the parameters; S_c(A = 0) and
        S_BGK only where they are finite and nonzero (u_t > 0, delta != 0)."""
        from . import stability

        p = self.params
        out = {
            "s_total": p.s_total,
            "a_asym": p.a_asym,
            "carl_bound": stability.carl_bound(p),
        }
        if p.u_t > 0 and p.delta != 0:
            out["sc_a0"] = stability.threshold_sc_a0(p)
            out["s_bgk"] = stability.s_bgk(p, p.a_asym)
        return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate INI text; raises ConfigError listing all problems."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from exc

    errors: list[str] = []
    values: dict[str, dict] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        values[section] = {}
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                errors.append(f"unknown key {section}.{key}")
                continue
            tag = _SCHEMA[section][key][0]
            v = _parse_value(tag, raw, f"{section}.{key}", errors)
            if v is not None:
                values[section][key] = v

    def get(section, key):
        tag, default = _SCHEMA[section][key]
        return values.get(section, {}).get(key, default)

    for section, key in (("run", "mode"), ("physics", "delta"),
                         ("physics", "n_particles"), ("physics", "nu0"),
                         ("physics", "u_t")):
        if get(section, key) is None:
            errors.append(f"missing required key {section}.{key}")

    if errors:
        raise ConfigError(errors)

    given = get("run", "mode")
    mode = ALIASES.get(given, given)
    n = get("physics", "n_particles")
    try:
        base = SystemParams(
            delta=get("physics", "delta"),
            n_particles=n,
            u0=get("physics", "nu0") / n,
            rho_r=get("physics", "rho_r"),
            u_t=get("physics", "u_t"),
        )
    except DomainError as exc:
        raise ConfigError([str(exc)]) from exc

    s_total = get("physics", "s_total")
    s_over_sc = get("physics", "s_over_sc")
    if (s_total is None) == (s_over_sc is None) and mode not in (
        "stability-boundary",
        "phase-diagram",
    ):
        errors.append("physics: give exactly one of s_total, s_over_sc")
    if s_total is None and s_over_sc is not None:
        if base.u_t <= 0 or base.delta == 0:  # S_c(A = 0) is 0 or diverges
            errors.append("physics.s_over_sc needs u_t > 0 and delta != 0")
        else:
            from .stability import threshold_sc_a0

            s_total = s_over_sc * threshold_sc_a0(base)
    if s_total is None:
        s_total = 0.0
    a_asym = get("physics", "a_asym")
    if a_asym is not None and "a_over_s" in values.get("physics", {}):
        errors.append("physics: give at most one of a_asym, a_over_s")
    if a_asym is None:
        a_asym = get("physics", "a_over_s") * s_total
    if errors:
        raise ConfigError(errors)

    try:
        params = replace(base, s_total=s_total, a_asym=a_asym)
    except DomainError as exc:
        raise ConfigError([str(exc)]) from exc

    dt = get("run", "dt")
    if dt is None:
        dt = _DEFAULT_DT.get(mode, 1e-3)
    for name, v in (("t_end", get("run", "t_end")), ("dt", dt),
                    ("sample_every", get("run", "sample_every"))):
        if not v > 0:
            errors.append(f"run.{name} must be > 0, got {v}")
        elif name != "dt" and dt > 0 and v < dt:
            # split_run rounds intervals to whole steps, at least one; a run
            # shorter than dt would take none
            errors.append(f"run.{name} must be >= run.dt = {dt:g}, got {v}")
    for section, key, low in (("vlasov", "nx", 1), ("vlasov", "nv", 2),
                              ("boundary", "n_omega", 1)):
        if get(section, key) < low:
            errors.append(f"{section}.{key} must be >= {low}, got {get(section, key)}")
    snapshot_every = get("vlasov", "snapshot_every")
    if snapshot_every is not None and not snapshot_every > 0:
        errors.append(f"vlasov.snapshot_every must be > 0, got {snapshot_every}")
    elif snapshot_every is not None and dt > 0 and snapshot_every < dt:
        errors.append(f"vlasov.snapshot_every must be >= run.dt = {dt:g}, got {snapshot_every}")
    for section, key, ok, rule in (("boundary", "u_t_list", lambda v: v > 0, "> 0"),
                                   ("sweep", "s_over_sc", lambda v: v >= 0, ">= 0"),
                                   ("sweep", "a_over_s", lambda v: abs(v) <= 1, "in [-1, 1]")):
        bad = [v for v in get(section, key) or () if not (math.isfinite(v) and ok(v))]
        if bad:
            errors.append(f"{section}.{key} values must be finite and {rule}, got {bad}")
    if mode in ("stability-boundary", "phase-diagram") and base.delta == 0:
        # S drops out of D(s) at delta = 0, so there is no marginal S and no S_c
        errors.append(f"{mode} mode needs delta != 0")
    if mode in ("vlasov", "stability-boundary", "phase-diagram") and base.u_t <= 0:
        # a cold gas has no Landau-damped marginal curve, S_c(A = 0) is 0,
        # and the Vlasov grid's u range is set by the thermal width
        errors.append(f"{mode} mode needs u_t > 0")
    if mode == "phase-diagram":
        if get("sweep", "s_over_sc") is None or get("sweep", "a_over_s") is None:
            errors.append("phase-diagram mode needs sweep.s_over_sc and sweep.a_over_s")
    if given == "slow-beam":
        if get("nbody", "mean_u") == 0.0:
            errors.append("slow-beam mode needs nbody.mean_u != 0")
        if params.a_asym != 0:
            errors.append(f"slow-beam mode needs symmetric pumps, got A = {params.a_asym:g}")
    if errors:
        raise ConfigError(errors)

    options = {
        sec: {k: get(sec, k) for k in _SCHEMA[sec]}
        for sec in ("nbody", "vlasov", "boundary", "sweep")
    }
    snapshot = {
        sec: {k: str(v) for k, v in kv.items()} for sec, kv in values.items()
    }
    return RunConfig(
        mode=mode,
        params=params,
        t_end=get("run", "t_end"),
        dt=dt,
        sample_every=get("run", "sample_every"),
        seed=get("run", "seed"),
        out=get("run", "out"),
        options=options,
        snapshot=snapshot,
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
