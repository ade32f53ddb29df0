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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    TWO_PI,
    DomainError,
    IntegrationDivergedError,
    SystemParams,
    TimeSeries,
    field_momentum,
    force,
    mode_flow,
    sample_maxwellian,
    steady_state_fields,
)

__all__ = [
    "InitialCondition",
    "ClassifyThresholds",
    "step",
    "run",
    "classify_run",
    "slow_beam_preset",
    "momentum_invariant",
]


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


def _kick(a, phases, params, h, hamiltonian=False):
    """(a, du): the modes after h at fixed chi, and the velocity kick meanwhile."""
    sin_chi, cos_chi, theta = phases
    a, j = mode_flow(a, theta, params, h, hamiltonian)
    return a, force(sin_chi, cos_chi, j, params)


def step(a, chi, u, params: SystemParams, dt: float, hamiltonian: bool = False):
    """Advance (a, chi, u) by one kick-drift-kick Strang step of size dt > 0.

    Both parts are exact, so the step is symmetric, second order and keeps
    the closed-system momentum invariant to rounding; chi is wrapped.
    Raises IntegrationDivergedError, with tau = nan since the step does not
    know the time, once the modes or velocities stop being finite.
    """
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    a, du = _kick(a, _phases(chi), params, 0.5 * dt, hamiltonian)
    u = u + du
    chi = chi + dt * u
    a, du = _kick(a, _phases(chi), params, 0.5 * dt, hamiltonian)
    u = u + du
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(u))):
        raise IntegrationDivergedError(float("nan"))
    return a, chi % TWO_PI, u


def _sample(tau, a, theta, u):
    """One TimeSeries row (tau, theta, v_cm, kinetic_energy, a)."""
    return tau, theta, float(np.mean(u)), float(np.mean(u**2) / 2.0), a


def run(
    params: SystemParams,
    init: InitialCondition | None = None,
    t_end: float = 30.0,
    sample_every: float = 0.1,
    dt: float = 1e-3,
) -> TimeSeries:
    """Integrate from the seeded near-homogeneous initial condition.

    The steps are those of :func:`step`, except that the half kicks meeting
    between two steps act at the same chi and are fused, so each step takes
    one trig pass.  Sampling, and the finiteness check, happen every
    round(sample_every/dt) steps, including tau = 0; a sample splits its
    kick into the two halves and takes theta from the same pass.
    """
    if t_end <= 0:
        raise DomainError(f"t_end must be positive, got {t_end}")
    a, chi, u = _initial_state(params, init or InitialCondition())
    n_steps = int(round(t_end / dt))
    stride = max(int(round(sample_every / dt)), 1)
    phases = _phases(chi)
    rows = [_sample(0.0, a, phases[2], u)]
    kick = 0.5 * dt
    for i in range(1, n_steps + 1):
        a, du = _kick(a, phases, params, kick)
        u += du
        chi += dt * u
        phases = _phases(chi)
        kick = dt
        if i % stride == 0:
            a, du = _kick(a, phases, params, 0.5 * dt)
            u += du
            tau = i * dt
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(u))):
                raise IntegrationDivergedError(tau)
            chi %= TWO_PI
            rows.append(_sample(tau, a, phases[2], u))
            kick = 0.5 * dt
    return TimeSeries.from_samples(rows)


@dataclass(frozen=True)
class ClassifyThresholds:
    theta_min: float = 0.05       # below: no ordering at all
    slope_tol: float = 2e-3       # v_cm drift (u-units per 1/kappa) above: runaway
    window_frac: float = 0.25


def classify_run(
    series: TimeSeries,
    params: SystemParams,
    thresholds: ClassifyThresholds = ClassifyThresholds(),
) -> str:
    """Label a finished run as 'stable', 'ordered-wave' or 'carl'.

    Decision over the trailing window: stable if |theta| never reaches
    theta_min there; otherwise carl if the linear-fit slope of v_cm exceeds
    slope_tol; otherwise ordered-wave.
    """
    if len(series) < 8:
        raise DomainError("series too short to classify")
    w = series.trailing_window(thresholds.window_frac)
    if np.max(np.abs(series.theta[w])) < thresholds.theta_min:
        return "stable"
    slope = np.polyfit(series.tau[w], series.v_cm[w], 1)[0]
    if abs(slope) > thresholds.slope_tol:
        return "carl"
    return "ordered-wave"


def slow_beam_preset(
    params: SystemParams,
    v_initial: float,
    t_end: float = 60.0,
    sample_every: float = 0.1,
    dt: float = 1e-3,
) -> TimeSeries:
    """Beam-stopping run: symmetric pumps, nonzero initial mean velocity."""
    if abs(params.a_asym) > 1e-9 * max(params.s_total, 1.0):
        raise DomainError("slow_beam_preset requires symmetric pumps (A = 0)")
    return run(
        params,
        init=InitialCondition(mean_u=v_initial),
        t_end=t_end,
        sample_every=sample_every,
        dt=dt,
    )


def momentum_invariant(a, u, params: SystemParams) -> float:
    """Closed-system invariant P = (2/rho_r) sum u_j + field momentum.

    The field term |a+|^2 - |a-|^2 + |b+|^2 - |b-|^2 enters with unit
    weight in this amplitude normalization (the N u0 coupling in the mode
    equations already carries the collective factor).  Conserved exactly
    when decay and pumps are switched off (``hamiltonian=True`` stepping).
    """
    return float((2.0 / params.rho_r) * np.sum(u) + field_momentum(np.abs(a) ** 2))
