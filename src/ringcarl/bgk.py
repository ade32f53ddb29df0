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
    "WaveState",
    "PhaseVelocityRoot",
    "WaveValidationReport",
    "asymmetry_for_wave",
    "phase_velocity_solutions",
    "validate_wave",
    "wave_direction",
    "WaveDirection",
]


@dataclass(frozen=True)
class WaveState:
    """Wave diagnostics: phase velocity (u-units), |theta| and Theta=N|theta|."""

    v_ph: float
    theta_mag: float
    Theta: float

    def within_order_bound(self, params: SystemParams) -> bool:
        """The stipulated bound N|u0||theta| <= sqrt(1 + delta^2)."""
        return abs(params.u0) * self.Theta <= np.sqrt(1.0 + params.delta**2) * (1 + 1e-12)


def _pqr(Theta: float, params: SystemParams):
    p = 1.0 + params.delta**2
    q = p - (params.u0 * Theta) ** 2
    r = (2.0 * params.u0 * Theta) ** 2
    return p, q, r


def asymmetry_for_wave(wave: WaveState, params: SystemParams) -> float:
    """Relative pump asymmetry A/S sustaining the given wave."""
    w = wave.v_ph / 2.0  # k v_ph in kappa units
    p, q, r = _pqr(wave.Theta, params)
    return -4.0 * params.delta * q * w / (4.0 * p * w**2 + q**2 + r)


@dataclass(frozen=True)
class PhaseVelocityRoot:
    v_ph: float
    suspicious: bool = False  # violates the wave-direction rule


def phase_velocity_solutions(
    aos: float, Theta: float, params: SystemParams
) -> list[PhaseVelocityRoot]:
    """Invert the A/S relation for v_ph at fixed Theta.

    The relation is quadratic in w = v_ph/2; an empty list means no
    travelling wave exists at this (A/S, Theta).  Roots whose direction
    contradicts the stronger-pump rule (delta < 0, N|u0| within the bound)
    are flagged suspicious.
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
        roots = [w for w in roots if np.isfinite(w)]
    out = []
    rule_applies = d < 0 and abs(params.nu0) <= np.sqrt(1.0 + d**2)
    for w in roots:
        v_ph = 2.0 * w
        bad = rule_applies and (np.sign(v_ph) * np.sign(aos) < 0)
        out.append(PhaseVelocityRoot(v_ph, suspicious=bool(bad)))
    return out


@dataclass(frozen=True)
class WaveDirection:
    direction: str  # 'with-stronger-pump' | 'against' | 'indeterminate'
    low_confidence: bool = False


def wave_direction(params: SystemParams, Theta: float) -> WaveDirection:
    """Propagation direction of the wave relative to the stronger pump.

    For delta < 0 the wave runs with the stronger pump whenever
    N|u0| <= sqrt(1 + delta^2); beyond that, waves with |u0| Theta large
    enough to flip the sign of Q would run against it, but such waves are
    expected unstable (low-confidence flag).  For delta >= 0 no rule is
    asserted.
    """
    d = params.delta
    if d >= 0:
        return WaveDirection("indeterminate")
    bound = np.sqrt(1.0 + d**2)
    if abs(params.nu0) <= bound:
        return WaveDirection("with-stronger-pump")
    if abs(params.u0) * Theta > bound:
        return WaveDirection("against", low_confidence=True)
    return WaveDirection("with-stronger-pump")


@dataclass
class WaveValidationReport:
    v_ph_vcm: float          # trailing-window mean of v_cm (diagnostic only)
    v_ph_phase: float        # wave phase velocity, from the drift of arg theta
    Theta: float
    aos_actual: float
    aos_predicted: float
    residual: float
    settled: bool            # the grating drifts at a steady rate


def validate_wave(
    series: TimeSeries,
    params: SystemParams,
    window_frac: float = 0.25,
    slope_tol: float = 0.02,
) -> WaveValidationReport:
    """Check a settled run against the travelling-wave asymmetry relation.

    The wave's phase velocity is the grating drift, via
    theta(tau) ~ e^{-i u_ph tau} (u_ph = -d arg(theta)/dtau); the mean
    particle velocity is reported alongside but lags the wave whenever part
    of the gas is untrapped, so it is not used in the relation.  A
    non-stationary trailing window (v_cm slope above slope_tol) is rejected
    as invalid input.
    """
    if len(series) < 8:
        raise DomainError("series too short to validate")
    w = series.trailing_window(window_frac)
    tau = series.tau[w]
    slope = np.polyfit(tau, series.v_cm[w], 1)[0]
    if abs(slope) > slope_tol:
        raise DomainError(
            f"trailing window not stationary (v_cm slope {slope:.3g} > {slope_tol:g})"
        )
    v_ph_vcm = float(np.mean(series.v_cm[w]))
    phases = np.unwrap(np.angle(series.theta[w]))
    fit = np.polyfit(tau, phases, 1)
    v_ph_phase = -float(fit[0])
    phase_rms = float(np.std(phases - np.polyval(fit, tau)))
    theta_mag = float(np.mean(np.abs(series.theta[w])))
    Theta = params.n_particles * theta_mag
    # steady rotation: phase fit residuals small against a quarter turn
    settled = phase_rms < np.pi / 4
    wave = WaveState(v_ph=v_ph_phase, theta_mag=theta_mag, Theta=Theta)
    predicted = asymmetry_for_wave(wave, params)
    actual = params.a_asym / params.s_total if params.s_total > 0 else 0.0
    return WaveValidationReport(
        v_ph_vcm=v_ph_vcm,
        v_ph_phase=v_ph_phase,
        Theta=Theta,
        aos_actual=actual,
        aos_predicted=predicted,
        residual=abs(actual - predicted),
        settled=bool(settled),
    )
