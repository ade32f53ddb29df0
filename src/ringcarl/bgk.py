"""Travelling-wave (BGK) relations for the settled ordered state.

A nonlinear wave of phase velocity v_ph drags the density grating and the
scattered-field phases along, which fixes a closed relation between the
relative pump asymmetry A/S, the phase velocity and the order parameter
Theta = N |theta|.  With w = k v_ph (kappa units; w = u_ph / 2 in the
chi, u convention) and P = 1 + delta^2, Q = P - u0^2 Theta^2,
R = (2 u0 Theta)^2:

    A/S = -4 delta Q w / (4 P w^2 + Q^2 + R).

Everything here is algebra on that relation plus estimation of (v_ph,
Theta) from simulation output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError, SystemParams, TimeSeries

__all__ = [
    "WaveValidationReport",
    "asymmetry_for_wave",
    "phase_velocity_solutions",
    "validate_wave",
    "wave_direction",
    "STATIONARY_SLOPE_TOL",
]

STATIONARY_SLOPE_TOL = 0.02  # v_cm drift (u-units per 1/kappa) a settled wave stays below


def _pqr(Theta: float, params: SystemParams):
    p = 1.0 + params.delta**2
    q = p - (params.u0 * Theta) ** 2
    r = (2.0 * params.u0 * Theta) ** 2
    return p, q, r


def asymmetry_for_wave(v_ph: float, Theta: float, params: SystemParams) -> float:
    """Relative pump asymmetry A/S sustaining a wave of phase velocity v_ph
    (u-units) and order Theta = N |theta|."""
    w = v_ph / 2.0  # k v_ph in kappa units
    p, q, r = _pqr(Theta, params)
    return -4.0 * params.delta * q * w / (4.0 * p * w**2 + q**2 + r)


def phase_velocity_solutions(aos: float, Theta: float, params: SystemParams) -> list[float]:
    """Invert the A/S relation for the phase velocities v_ph at fixed Theta.

    The relation is quadratic in w = v_ph/2; an empty list means no
    travelling wave exists at this (A/S, Theta).  Both roots have the sign
    of -delta Q (A/S), so where :func:`wave_direction` asserts the
    stronger-pump rule (Theta <= N gives Q >= 0) none runs against it.
    """
    if abs(aos) > 1.0:
        raise DomainError("|A/S| cannot exceed 1")
    p, q, r = _pqr(Theta, params)
    d = params.delta
    if aos == 0.0:
        roots = [0.0]
    else:
        # aos (4 p w^2 + q^2 + r) + 4 d q w = 0
        a2, a1, a0 = 4.0 * aos * p, 4.0 * d * q, aos * (q**2 + r)
        disc = a1**2 - 4.0 * a2 * a0
        if disc < 0:
            return []
        sq = np.sqrt(disc)
        # cancellation-free quadratic roots (a1 can dominate for small aos)
        qq = -0.5 * (a1 + np.copysign(sq, a1))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            roots = [qq / a2, a0 / qq]
    return [2.0 * float(w) for w in roots if np.isfinite(w)]


def wave_direction(params: SystemParams, Theta: float) -> str:
    """Propagation direction of the wave relative to the stronger pump:
    'with-stronger-pump', 'against' or 'indeterminate'.

    For delta < 0 the wave runs with the stronger pump whenever
    N|u0| <= sqrt(1 + delta^2); beyond that, waves with |u0| Theta large
    enough to flip the sign of Q would run against it, but such waves are
    expected unstable.  For delta >= 0 no rule is asserted.
    """
    d = params.delta
    if d >= 0:
        return "indeterminate"
    bound = np.sqrt(1.0 + d**2)
    if abs(params.nu0) > bound and abs(params.u0) * Theta > bound:
        return "against"
    return "with-stronger-pump"


@dataclass
class WaveValidationReport:
    v_ph_phase: float        # wave phase velocity, from the drift of arg theta
    Theta: float
    aos_actual: float
    aos_predicted: float
    residual: float
    settled: bool            # the grating drifts at a steady rate
    v_ph_predicted: float | None  # root of the relation nearest v_ph_phase (None: no root)
    direction_ok: bool       # False: the rule says with the stronger pump, the wave runs against


def validate_wave(series: TimeSeries, params: SystemParams) -> WaveValidationReport:
    """Check a settled run against the travelling-wave asymmetry relation.

    The wave's phase velocity is the grating drift, via
    theta(tau) ~ e^{-i u_ph tau} (u_ph = -d arg(theta)/dtau); the mean
    particle velocity lags the wave whenever part of the gas is untrapped,
    so it is not used in the relation.  The relation is also inverted for
    the phase velocity it predicts at the measured Theta
    (:func:`phase_velocity_solutions`; None where it has no root), and the
    drift direction is checked against the stronger-pump rule where
    :func:`wave_direction` asserts it; A = 0 or a standing grating cannot
    contradict it.  A non-stationary trailing window (v_cm slope above
    STATIONARY_SLOPE_TOL) is rejected as invalid input.
    """
    if len(series) < 8:
        raise DomainError("series too short to validate")
    w = series.trailing_window()
    tau = series.tau[w]
    slope = np.polyfit(tau, series.v_cm[w], 1)[0]
    if abs(slope) > STATIONARY_SLOPE_TOL:
        raise DomainError(
            f"trailing window not stationary (v_cm slope {slope:.3g} > {STATIONARY_SLOPE_TOL:g})"
        )
    phases = np.unwrap(np.angle(series.theta[w]))
    fit = np.polyfit(tau, phases, 1)
    v_ph_phase = -float(fit[0])
    phase_rms = float(np.std(phases - np.polyval(fit, tau)))
    Theta = params.n_particles * float(np.mean(np.abs(series.theta[w])))
    # steady rotation: phase fit residuals small against a quarter turn
    settled = phase_rms < np.pi / 4
    predicted = asymmetry_for_wave(v_ph_phase, Theta, params)
    actual = params.a_asym / params.s_total if params.s_total > 0 else 0.0
    roots = phase_velocity_solutions(actual, Theta, params)
    v_ph_predicted = min(roots, key=lambda v: abs(v - v_ph_phase), default=None)
    with_pump = np.sign(v_ph_phase) * np.sign(actual) >= 0
    rule = wave_direction(params, Theta)
    return WaveValidationReport(
        v_ph_phase=v_ph_phase,
        Theta=Theta,
        aos_actual=actual,
        aos_predicted=predicted,
        residual=abs(actual - predicted),
        settled=bool(settled),
        v_ph_predicted=v_ph_predicted,
        direction_ok=bool(with_pump or rule != "with-stronger-pump"),
    )
