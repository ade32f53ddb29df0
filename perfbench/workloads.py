"""Workload definitions: generated INI configs and the physics checks.

Each workload turns a seed into INI text (the seed goes into ``run.seed``;
the program sees nothing else) and checks the artifacts of one run.  A
check returns one pass/fail flag per operation, where an operation is one
run for ``nbody-wave``/``vlasov-growth`` and one pump cell for the sweeps,
plus the measured check values.  Checks import ringcarl and run in the
benchmark process, outside the timed region.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The physics of the bundled fig2/phase-diagram presets: delta = -1,
# N u0 = -1, rho_r = 0.01, u_t = 3.
_PHYSICS = """\
[physics]
delta = -1.0
n_particles = {n}
nu0 = -1.0
rho_r = 0.01
u_t = 3.0
"""

BGK_RESIDUAL_MAX = 0.05      # acceptance criterion 6
TRAILING_THETA_MIN = 0.1     # acceptance criterion 5
GROWTH_REL_ERR_MAX = 0.05    # acceptance criterion 8
LOST_MASS_MAX = 1e-8
GROWTH_FIT_FROM = 3.0        # fit |theta| growth over tau in [3, t_end]
DISPERSION_TOL = 1e-8        # |D(root)| at a reported unstable root
STABLE_SAMPLE = 5            # stable cells re-counted per run
DYNAMIC_LABELS = {"stable", "ordered-wave", "carl"}


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    check: Callable[[Path, object], tuple[list[bool], dict]]

    def config(self, seed: int) -> str:
        """INI text for ``seed``; byte-identical for equal seeds."""
        return self.template.format(seed=int(seed))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_wave(outdir: Path, cfg) -> tuple[list[bool], dict]:
    """Settled travelling wave: BGK residual and trailing order parameter."""
    report = _manifest(outdir)["results"]["wave_report"]
    theta = np.array([float(r["abs_theta"]) for r in _read_csv(outdir / "timeseries.csv")])
    tail = theta[theta.size - max(int(round(0.25 * theta.size)), 2):]
    residual = float(report["residual"])
    ok = (
        bool(report["settled"])
        and residual < BGK_RESIDUAL_MAX
        and float(np.mean(tail)) > TRAILING_THETA_MIN
    )
    return [ok], {"bgk.residual": residual}


def check_growth(outdir: Path, cfg) -> tuple[list[bool], dict]:
    """Linear |theta| growth against the dispersion-relation root."""
    from ringcarl import stability

    rows = _read_csv(outdir / "timeseries.csv")
    tau = np.array([float(r["tau"]) for r in rows])
    theta = np.array([float(r["abs_theta"]) for r in rows])
    m = (tau >= GROWTH_FIT_FROM) & (theta < 1e-3)
    p = cfg.params
    gamma = stability.max_growth_rate(stability.PumpPoint(p.s_total, p.a_asym), p).real
    fit = np.polyfit(tau[m], np.log(theta[m]), 1)[0] if m.sum() >= 3 else float("nan")
    rel_err = abs(fit - gamma) / abs(gamma)
    lost = float(_manifest(outdir)["results"]["lost_mass"])
    min_f = float("inf")
    for snap in sorted(outdir.glob("snapshot_tau*.txt")):
        min_f = min(min_f, float(np.loadtxt(snap, skiprows=1).min()))
    ok = rel_err < GROWTH_REL_ERR_MAX and abs(lost) < LOST_MASS_MAX
    return [bool(ok)], {
        "vlasov.growth_rel_err": float(rel_err),
        "vlasov.lost_mass": lost,
        "vlasov.min_f": min_f,
    }


def expected_label(s: float, a: float, params) -> str:
    """Analytic label of an unstable cell from the closed-form thresholds."""
    from ringcarl import stability

    if s > 0 and abs(a) / s > stability.carl_bound(params):
        return "carl"
    if params.u_t >= stability.WARM_GAS_UT:
        return "bgk-ordered" if s > stability.s_bgk(params, a) else "carl"
    return "bgk-ordered"


def check_sweep_rows(rows: list[dict], cfg, dynamic: bool) -> list[bool]:
    """One flag per cell of a phase-diagram CSV (reference-free checks).

    Unstable cells: Re(root) > 0, |D(root)| ~ 0 and the label agrees with
    carl_bound/s_bgk.  Stable cells: zero growth, and a seeded sample is
    re-counted to have no unstable root.  Any ``error:`` row fails, and in
    dynamic sweeps the N-body label must be one of DYNAMIC_LABELS.
    """
    from ringcarl import stability

    p = cfg.params
    oks, stable = [], []
    for i, row in enumerate(rows):
        s, a = float(row["S"]), float(row["A"])
        analytic, _, label = row["regime"].partition("/")
        root = complex(float(row["growth_re"]), float(row["growth_im"]))
        if analytic.startswith("error:"):
            ok = False
        elif analytic == "stable":
            ok = root == 0
            stable.append(i)
        else:
            d = complex(stability.dispersion(root, stability.PumpPoint(s, a), p))
            ok = (
                root.real > 0
                and abs(d) < DISPERSION_TOL
                and analytic == expected_label(s, a, p)
            )
        if dynamic:
            ok = ok and label in DYNAMIC_LABELS
        oks.append(bool(ok))
    rng = np.random.default_rng(cfg.seed)
    for i in rng.permutation(stable)[:STABLE_SAMPLE]:
        point = stability.PumpPoint(float(rows[i]["S"]), float(rows[i]["A"]))
        oks[i] = oks[i] and stability.count_unstable_roots(point, p) == 0
    return oks


def _check_sweep(outdir: Path, cfg, dynamic: bool) -> tuple[list[bool], dict]:
    rows = _read_csv(outdir / "phase_diagram.csv")
    oks = check_sweep_rows(rows, cfg, dynamic)
    missing = n_operations(cfg) - len(oks)
    return oks + [False] * max(missing, 0), {}


def n_operations(cfg) -> int:
    if cfg.mode == "phase-diagram":
        sw = cfg.options["sweep"]
        return len(sw["s_over_sc"]) * len(sw["a_over_s"])
    return 1


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "nbody-wave",
            """\
# fig2 physics in validate-wave mode; the 1 + 0.05 cos(chi) seed grows
# into a settled travelling wave by tau ~ 13, well inside t_end
[run]
mode = validate-wave
t_end = 15
dt = 1e-3
sample_every = 0.1
seed = {seed}

""" + _PHYSICS.format(n=10000) + """\
s_over_sc = 2.0
a_over_s = 0.3

[nbody]
cosine_eps = 0.05
""",
            check_wave,
        ),
        Workload(
            "vlasov-growth",
            """\
# criterion 8 growth physics on the 256 x 512 grid: |theta| grows at the
# dispersion-relation rate from the 1e-6 cosine seed
[run]
mode = vlasov
t_end = 5
dt = 1e-2
sample_every = 0.1
seed = {seed}

""" + _PHYSICS.format(n=10000) + """\
s_over_sc = 2.0
a_over_s = 0.0

[vlasov]
nx = 256
nv = 512
cosine_eps = 1e-6
snapshot_every = 2.5
""",
            check_growth,
        ),
        Workload(
            "sweep-analytic",
            """\
# analytic classification on a dense (S/S_c, A/S) grid of the preset physics
[run]
mode = phase-diagram
seed = {seed}

""" + _PHYSICS.format(n=10000) + """\

[sweep]
s_over_sc = 0.25:3.0:40
a_over_s = 0.0:0.9:25
dynamic = false
""",
            lambda outdir, cfg: _check_sweep(outdir, cfg, dynamic=False),
        ),
        Workload(
            "sweep-dynamic",
            """\
# many short small-N runs: the per-step call overhead dominates
[run]
mode = phase-diagram
t_end = 2
dt = 1e-3
sample_every = 0.1
seed = {seed}

""" + _PHYSICS.format(n=500) + """\

[sweep]
s_over_sc = 0.5:3.0:5
a_over_s = 0.0:0.8:4
dynamic = true
""",
            lambda outdir, cfg: _check_sweep(outdir, cfg, dynamic=True),
        ),
    )
}
