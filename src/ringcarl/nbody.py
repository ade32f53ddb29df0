"""Coupled mode-particle dynamics: four cavity modes + N point particles.

The modes follow :func:`ringcarl.core.mode_rhs` at the particles'
bunching theta = (1/N) sum_j exp(-i chi_j), and each particle moves as

    d(chi_j)/dtau  = u_j
    d(u_j)/dtau    = 2 rho_r u0 Im[C e^{i chi_j}],   C = a+ a-* + b+ b-*

(:func:`ringcarl.core.force`).  The state is the plain arrays (a, chi, u).
Integration is fixed-step kick-drift-kick Strang splitting into two exactly
solvable parts: the drift chi += u dt, and the kick at fixed chi, where
theta is constant, the modes follow their closed-form linear flow
(:func:`ringcarl.core.mode_flow`) and u gains force(J) with J the time
integral of C along that flow.

Every step costs one sin/cos pass over the particles, and numpy's float64
sin/cos runs about twice as fast on phases in ascending order as on
phases in random order.  :func:`run`, whose particles never leave it,
therefore re-sorts them by chi at each sample; between samples the drift
moves each phase only a little, so they stay nearly sorted.  The particles
are exchangeable, so only the order of the sums giving theta changes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    TWO_PI,
    DomainError,
    IntegrationDivergedError,
    SystemParams,
    TimeSeries,
    force,
    mode_flow,
    sample_maxwellian,
    split_run,
    steady_state_fields,
)

__all__ = [
    "InitialCondition",
    "step",
    "run",
    "classify_run",
    "THETA_MIN",
    "SLOPE_TOL",
]

# classify_run thresholds on the trailing window
THETA_MIN = 0.05  # |theta| below this throughout: no ordering at all
SLOPE_TOL = 2e-3  # v_cm drift (u-units per 1/kappa) above this: runaway


@dataclass(frozen=True)
class InitialCondition:
    """How a run is seeded.

    Positions start on the uniform grid plus either a random jitter of
    amplitude ``eps_init * (2 pi / N)`` (default) or, if ``cosine_eps`` is
    set, a deterministic displacement producing a density 1 + eps cos(chi)
    (a quiet start used when matching the kinetic solver).  With
    ``random_positions`` the grid is dropped entirely and positions are
    i.i.d. uniform, giving the physical 1/sqrt(N) shot-noise seed.
    Velocities are Maxwellian around ``mean_u``; with ``quiet_velocities``
    they are placed on stratified quantiles of the Maxwellian instead of
    sampled.
    """

    mean_u: float = 0.0
    eps_init: float = 1e-3
    cosine_eps: float | None = None
    quiet_velocities: bool = False
    random_positions: bool = False


def _initial_state(params: SystemParams, init: InitialCondition):
    """(a, chi, u): steady-state modes and the seeded particles."""
    n = params.n_particles
    rng = np.random.default_rng(params.seed)
    grid = TWO_PI * (np.arange(n) + 0.5) / n
    if init.random_positions:
        chi = rng.uniform(0.0, TWO_PI, size=n)
    elif init.cosine_eps is not None:
        # density 1 + eps cos(chi) via the displacement chi = x - eps sin(x)
        chi = grid - init.cosine_eps * np.sin(grid)
    else:
        amp = init.eps_init * TWO_PI / n
        chi = grid + rng.uniform(-amp, amp, size=n)
    if init.quiet_velocities and params.u_t > 0:
        from scipy.special import erfinv

        # tile a short quantile ladder along the position grid so every
        # local window carries the full velocity distribution; random
        # pairing would seed theta at the 1/sqrt(N) shot-noise level
        m = min(n, 250)
        q = (np.arange(m) + 0.5) / m
        ladder = init.mean_u + params.u_t * erfinv(2.0 * q - 1.0)
        u = np.resize(np.tile(ladder, n // m + 1), n)
    else:
        u = sample_maxwellian(params, n, mean_u=init.mean_u, rng=rng)
    return steady_state_fields(params), chi % TWO_PI, u


def _phases(chi):
    """(sin chi, cos chi, theta) from one trig pass over the particles."""
    sin_chi, cos_chi = np.sin(chi), np.cos(chi)
    return sin_chi, cos_chi, complex(np.sum(cos_chi), -np.sum(sin_chi)) / chi.size


def _kick(state, h, params, hamiltonian=False):
    """The modes after h at fixed chi, and u kicked meanwhile (in place)."""
    a, chi, u, (sin_chi, cos_chi, theta) = state
    a, j = mode_flow(a, theta, params, h, hamiltonian)
    u += force(sin_chi, cos_chi, j, params)
    return a, chi, u, state[3]


def _drift(state, h):
    """chi += u h (in place), with the trig pass the next kick and sample use."""
    a, chi, u, _ = state
    chi += h * u
    return a, chi, u, _phases(chi)


def step(a, chi, u, params: SystemParams, dt: float, hamiltonian: bool = False):
    """Advance (a, chi, u) by one kick-drift-kick Strang step of size dt > 0.

    One step of :func:`ringcarl.core.split_run` on copies of chi and u.
    Both parts are exact, so the step is symmetric, second order and keeps
    the closed-system momentum invariant to rounding; chi is wrapped.
    Raises IntegrationDivergedError once the modes or velocities stop being
    finite.
    """
    state = (a, np.array(chi, dtype=float), np.array(u, dtype=float), _phases(chi))
    kick = functools.partial(_kick, params=params, hamiltonian=hamiltonian)
    _, [(_, (a, chi, u, _))] = split_run(state, kick, _drift, _sample, dt, dt, dt)
    return a, chi, u


def _sample(state):
    """Check the state and wrap chi (in place); the row (theta, v_cm, kinetic_energy, a)."""
    a, chi, u, phases = state
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(u))):
        raise IntegrationDivergedError(float("nan"))
    chi %= TWO_PI
    return phases[2], float(np.mean(u)), float(np.mean(u**2) / 2.0), a


def _sample_sorted(state):
    """:func:`_sample`, then the particles (chi, u, sin chi, cos chi) sorted by chi.

    The permutation is applied in place to all four arrays, so each
    particle keeps its own velocity and trig values; sin chi and cos chi
    stay those of the drifted chi before its wrap.
    """
    row = _sample(state)
    _, chi, u, (sin_chi, cos_chi, _) = state
    order = np.argsort(chi)
    for x in (chi, u, sin_chi, cos_chi):
        x[:] = x[order]
    return row


def run(
    params: SystemParams,
    init: InitialCondition | None = None,
    t_end: float = 30.0,
    sample_every: float = 0.1,
    dt: float = 1e-3,
) -> TimeSeries:
    """Integrate from the seeded near-homogeneous initial condition.

    The steps of :func:`step`, run by :func:`ringcarl.core.split_run`
    with the half kicks between steps fused: one trig pass per step, which
    also gives the sampled theta.  Sampling, and the finiteness check,
    happen every round(sample_every/dt) steps, including tau = 0.  Each
    sample also re-sorts the particles by chi, so the trig pass runs on
    nearly sorted phases, about twice as fast; against repeated
    :func:`step` only the order of the sums giving theta differs.
    """
    a, chi, u = _initial_state(params, init or InitialCondition())
    kick = functools.partial(_kick, params=params)
    return split_run((a, chi, u, _phases(chi)), kick, _drift, _sample_sorted,
                     t_end, sample_every, dt)[0]


def classify_run(series: TimeSeries) -> str:
    """Label a finished run as 'stable', 'ordered-wave' or 'carl'.

    Decision over the trailing window: stable if |theta| never reaches
    THETA_MIN there; otherwise carl if the linear-fit slope of v_cm exceeds
    SLOPE_TOL; otherwise ordered-wave.
    """
    if len(series) < 8:
        raise DomainError("series too short to classify")
    w = series.trailing_window()
    if np.max(np.abs(series.theta[w])) < THETA_MIN:
        return "stable"
    slope = np.polyfit(series.tau[w], series.v_cm[w], 1)[0]
    if abs(slope) > SLOPE_TOL:
        return "carl"
    return "ordered-wave"
