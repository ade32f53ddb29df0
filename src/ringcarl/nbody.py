"""Coupled mode-particle dynamics: four cavity modes + N point particles.

The modes follow the equations of :mod:`ringcarl.core` at the particles'
bunching theta = (1/N) sum_j exp(-i chi_j), and each particle moves as

    d(chi_j)/dtau  = u_j
    d(u_j)/dtau    = 2 rho_r u0 Im[C e^{i chi_j}],   C = a+ a-* + b+ b-*

(:func:`ringcarl.core.force`).  The state is the plain arrays (a, chi, u).
Integration is fixed-step kick-drift-kick Strang splitting into two exactly
solvable parts: the drift chi += u dt, and the kick at fixed chi, where
theta is constant, the modes follow their closed-form linear flow
(:func:`ringcarl.core.mode_flow`) and u gains force(J) with J the time
integral of C along that flow.

Each step needs e^{i chi} of every particle, for theta and the force, and
keeps it as one complex array z.  Rather than a sin/cos pass per step, the
drift multiplies z by w = e^{ie}, the rotation by the angle e = u dt it moves
each phase, with cos e and sin e from short Taylor polynomials in e^2 whose
degree follows the largest |e| of the step: exact to rounding up to
ROTATE_MAX.  theta = conj(sum z) / N is one complex sum and the force the
imaginary part of one complex product.  The direct pass runs only at each
sample (on the wrapped chi, so rounding in the rotation lasts at most one
sample interval) and on any step that moves a phase further than
ROTATE_MAX.  z and the scratch arrays of the step are allocated once per
:func:`run` or :func:`step` call and travel with (a, chi, u) as a fourth
entry, ``work``.
"""

from __future__ import annotations

import functools
import math
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

# the default start's position jitter, in units of the grid spacing 2 pi / N
EPS_INIT = 1e-3

# the drift rotates e^{i chi} while no phase moves further than this
ROTATE_MAX = 1.0 / 16.0
# (bound on e^2, cos e, sin(e)/e): Taylor coefficients in e^2 from the highest
# power, cos to e^6 and sin to e^7 for |e| <= 1/32, to e^8 and e^9 up to ROTATE_MAX
_TAYLOR_TIERS = tuple(
    (bound**2,
     tuple((-1) ** k / math.factorial(2 * k) for k in range(top, -1, -1)),
     tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(top, -1, -1)))
    for bound, top in ((1.0 / 32.0, 3), (ROTATE_MAX, 4)))
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


@dataclass(frozen=True)
class InitialCondition:
    """How a run is seeded.

    Positions start on the uniform grid plus either a random jitter of
    amplitude ``EPS_INIT * (2 pi / N)`` (default) or, if ``cosine_eps`` is
    set, a deterministic displacement producing a density 1 + eps cos(chi)
    (a quiet start used when matching the kinetic solver).  With
    ``random_positions`` the grid is dropped entirely and positions are
    i.i.d. uniform, giving the physical 1/sqrt(N) shot-noise seed.
    Velocities are Maxwellian around ``mean_u``; with ``quiet_velocities``
    they are placed on stratified quantiles of the Maxwellian instead of
    sampled.  ``seed`` seeds the generator of the jitter, the random
    positions and the sampled velocities.
    """

    mean_u: float = 0.0
    cosine_eps: float | None = None
    quiet_velocities: bool = False
    random_positions: bool = False
    seed: int = 0


def _erfinv(y: float) -> float:
    """erf^{-1}(y) for |y| < 1, by Newton's method from 0.

    Below |y| = 1/2 it solves erf(x) = |y|; from there on erfc(x) = 1 - |y|,
    which is exact and keeps the digits that erf loses near 1.  erf is
    concave and erfc convex for x > 0, so the iterates rise to the root.
    """
    t = abs(y)
    tail = t >= 0.5
    target = 1.0 - t if tail else t
    x = 0.0
    for _ in range(100):
        miss = math.erfc(x) - target if tail else target - math.erf(x)
        dx = miss / (_TWO_OVER_SQRT_PI * math.exp(-x * x))
        if x + dx == x:
            break
        x += dx
    return math.copysign(x, y)


def _initial_state(params: SystemParams, init: InitialCondition):
    """(a, chi, u): steady-state modes and the seeded particles."""
    n = params.n_particles
    rng = np.random.default_rng(init.seed)
    grid = TWO_PI * (np.arange(n) + 0.5) / n
    if init.random_positions:
        chi = rng.uniform(0.0, TWO_PI, size=n)
    elif init.cosine_eps is not None:
        # density 1 + eps cos(chi) via the displacement chi = x - eps sin(x)
        chi = grid - init.cosine_eps * np.sin(grid)
    else:
        amp = EPS_INIT * TWO_PI / n
        chi = grid + rng.uniform(-amp, amp, size=n)
    if init.quiet_velocities and params.u_t > 0:
        # tile a short quantile ladder along the position grid so every
        # local window carries the full velocity distribution; random
        # pairing would seed theta at the 1/sqrt(N) shot-noise level
        m = min(n, 250)
        q = (np.arange(m) + 0.5) / m
        ladder = init.mean_u + params.u_t * np.array([_erfinv(y) for y in 2.0 * q - 1.0])
        u = np.resize(np.tile(ladder, n // m + 1), n)
    else:
        u = sample_maxwellian(params, n, rng, mean_u=init.mean_u)
    return steady_state_fields(params), chi % TWO_PI, u


def _work(n: int):
    """The step's arrays (z, w, e, e2, tmp), views of one block of 7 n floats:
    z = e^{i chi}; w, the drift's rotation and the kick's product; e = u h,
    e^2 and a scratch row of the drift."""
    block = np.empty(7 * n)
    z, w = block[:4 * n].view(complex).reshape(2, n)
    return (z, w, *block[4 * n:].reshape(3, n))


def _theta(z) -> complex:
    return complex(np.sum(z)).conjugate() / z.size


def _phases(chi, z=None):
    """(e^{i chi}, theta) from one direct trig pass, into z if given."""
    if z is None:
        z = np.empty(chi.shape, complex)
    np.cos(chi, out=z.real)
    np.sin(chi, out=z.imag)
    return z, _theta(z)


def _kick(state, h, params, hamiltonian=False):
    """The modes after h at fixed chi, and u kicked meanwhile (in place).

    theta and the force read the same z = e^{i chi}, so the kick keeps the
    momentum invariant whether z was rotated or computed.
    """
    a, chi, u, work = state
    z, w = work[0], work[1]
    a, j = mode_flow(a, _theta(z), params, h, hamiltonian)
    u += force(z, j, params, w)
    return a, chi, u, work


def _horner(x, coeffs, tmp, out):
    """out = the polynomial in x with coefficients from the highest power,
    built up in tmp (which may be out)."""
    np.multiply(x, coeffs[0], out=tmp)
    for c in coeffs[1:-1]:
        tmp += c
        tmp *= x
    return np.add(tmp, coeffs[-1], out=out)


def _rotor(e, e2, w, tmp) -> bool:
    """w = e^{ie} = cos e + i sin e for e2 = e^2, with tmp as scratch.

    The Taylor tier covering max e2 gives cos e within 0.5 ulp(1) of np.cos
    and sin e within 1 ulp of np.sin: to e^6 and e^7 for |e| <= 1/32, to
    e^8 and e^9 up to ROTATE_MAX.  Returns False, w untouched, beyond that
    (also for a non-finite e).  The polynomials run in the contiguous tmp:
    in place on the strided w.real and w.imag they take twice as long.
    """
    top = e2.max()
    for bound, cos_coeffs, sin_coeffs in _TAYLOR_TIERS:
        if top <= bound:
            _horner(e2, cos_coeffs, tmp, w.real)
            np.multiply(_horner(e2, sin_coeffs, tmp, tmp), e, out=w.imag)
            return True
    return False


def _drift(state, h):
    """chi += e = u h, and z = e^{i chi} rotated by e^{ie} (all in place);
    a step moving any phase further than ROTATE_MAX gets the direct trig
    pass instead."""
    a, chi, u, work = state
    z, w, e, e2, tmp = work
    np.multiply(u, h, out=e)
    chi += e
    np.multiply(e, e, out=e2)
    if _rotor(e, e2, w, tmp):
        z *= w
    else:
        _phases(chi, z)
    return state


def step(a, chi, u, params: SystemParams, dt: float, hamiltonian: bool = False):
    """Advance (a, chi, u) by one kick-drift-kick Strang step of size dt > 0.

    One step of :func:`ringcarl.core.split_run` on copies of chi and u, in
    work arrays of its own.  Both parts are exact, so the step is
    symmetric, second order and keeps the closed-system momentum invariant
    to rounding; chi is wrapped.  Raises IntegrationDivergedError once the
    modes or velocities stop being finite.
    """
    chi, u = np.array(chi, dtype=float), np.array(u, dtype=float)
    kick = functools.partial(_kick, params=params, hamiltonian=hamiltonian)
    _, (a, chi, u, _) = split_run((a, chi, u, _work(chi.size)), kick, _drift, _sample,
                                  dt, dt, dt)
    return a, chi, u


def _sample(state):
    """Check the state, wrap chi and recompute z = e^{i chi} from it (in
    place); the row (theta, v_cm, kinetic_energy, a)."""
    a, chi, u, work = state
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(u))):
        raise IntegrationDivergedError(float("nan"))
    chi %= TWO_PI
    return _phases(chi, work[0])[1], float(np.mean(u)), float(np.mean(u**2) / 2.0), a


def run(
    params: SystemParams,
    init: InitialCondition | None = None,
    t_end: float = 30.0,
    sample_every: float = 0.1,
    dt: float = 1e-3,
) -> TimeSeries:
    """Integrate from the seeded near-homogeneous initial condition.

    The steps of :func:`step`, run by :func:`ringcarl.core.split_run`
    with the half kicks between steps fused, in one set of work arrays.
    Sampling, the finiteness check and the direct trig pass happen every
    round(sample_every/dt) steps, including tau = 0; in between, the drift
    rotates e^{i chi}.  Against repeated :func:`step` only
    rounding differs.
    """
    a, chi, u = _initial_state(params, init or InitialCondition())
    kick = functools.partial(_kick, params=params)
    return split_run((a, chi, u, _work(chi.size)), kick, _drift, _sample,
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
