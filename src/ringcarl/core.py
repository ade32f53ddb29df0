"""The mean-field model that both solvers integrate, defined once.

Two counterpropagating, orthogonally polarized mode pairs (alpha+, alpha-)
and (beta+, beta-) are pumped by eta+ and eta- and scatter into their
partners off the density grating theta = <e^{-i chi}>.  The gas is kicked
by F = 2 rho_r u0 Im[C e^{i chi}] with C = alpha+ alpha-^* + beta+ beta-^*.
The four amplitudes travel as one complex array a = (a+, a-, b+, b-);
particle positions, velocities and phase-space grids are plain arrays.

Unit conventions (cavity decay rate kappa = 1 throughout):

* time        tau = kappa * t
* position    chi = 2 k x           (one lattice period is 2 pi in chi)
* velocity    u   = 2 k v / kappa
* pumps and mode amplitudes are kept as-is, in kappa units.

In these units the recoil parameter ``rho_r = 2 k v_R / kappa``
(v_R = 2 hbar k / m) and the thermal velocity ``u_t = 2 k v_T / kappa``
are the only places where mass and wavenumber enter.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DomainError",
    "IntegrationDivergedError",
    "SystemParams",
    "TimeSeries",
    "mode_rhs",
    "mode_flow",
    "split_run",
    "step_count",
    "coupling",
    "force",
    "field_momentum",
    "sample_maxwellian",
    "steady_state_fields",
    "TWO_PI",
]

TWO_PI = 2.0 * np.pi


class DomainError(ValueError):
    """Raised when an operation is called outside its physical domain."""


class IntegrationDivergedError(RuntimeError):
    """NaN/Inf appeared during time stepping; carries the time of failure."""

    def __init__(self, tau: float):
        super().__init__(f"integration diverged at tau = {tau:g}")
        self.tau = tau


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless physical parameters of one experiment.

    ``delta`` is the effective cavity detuning (pump-cavity detuning shifted
    by the collective dispersive shift), ``u0`` the single-particle light
    shift per photon, both in units of kappa.  ``eta_plus``/``eta_minus``
    drive the two counterpropagating, orthogonally polarized modes.
    """

    delta: float
    n_particles: int
    u0: float
    eta_plus: complex
    eta_minus: complex
    rho_r: float = 0.01
    u_t: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 1:
            raise DomainError(f"n_particles must be >= 1, got {self.n_particles}")
        if not self.rho_r > 0:
            raise DomainError(f"rho_r must be > 0, got {self.rho_r}")
        if self.u_t < 0:
            raise DomainError(f"u_t must be >= 0, got {self.u_t}")
        for name in ("delta", "rho_r", "u_t", "u0"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if not (np.isfinite(self.eta_plus) and np.isfinite(self.eta_minus)):
            raise DomainError("pump amplitudes must be finite")

    # -- derived pump groups ------------------------------------------------

    @property
    def s_total(self) -> float:
        """Total pump parameter S = |eta+|^2 + |eta-|^2."""
        return abs(self.eta_plus) ** 2 + abs(self.eta_minus) ** 2

    @property
    def a_asym(self) -> float:
        """Pump asymmetry A = |eta+|^2 - |eta-|^2 (|A| <= S always)."""
        return abs(self.eta_plus) ** 2 - abs(self.eta_minus) ** 2

    @property
    def nu0(self) -> float:
        """Collective coupling N * u0."""
        return self.n_particles * self.u0

    @classmethod
    def from_pump_split(cls, s_total: float, a_asym: float, **kwargs) -> "SystemParams":
        """Build params with real pump amplitudes realizing given (S, A)."""
        return cls(eta_plus=0j, eta_minus=0j, **kwargs).with_pump_split(s_total, a_asym)

    def with_pump_split(self, s_total: float, a_asym: float) -> "SystemParams":
        """These params with real pump amplitudes realizing given (S, A)."""
        if s_total < 0:
            raise DomainError(f"s_total must be >= 0, got {s_total}")
        if abs(a_asym) > s_total * (1 + 1e-12):
            raise DomainError(f"|A| = {abs(a_asym)} exceeds S = {s_total}")
        ep = np.sqrt(max((s_total + a_asym) / 2.0, 0.0))
        em = np.sqrt(max((s_total - a_asym) / 2.0, 0.0))
        return self.with_pumps(complex(ep), complex(em))

    def with_pumps(self, eta_plus: complex, eta_minus: complex) -> "SystemParams":
        return replace(self, eta_plus=eta_plus, eta_minus=eta_minus)


# ---------------------------------------------------------------------------
# The model: mode equations, coupling, force
# ---------------------------------------------------------------------------


def mode_rhs(a: np.ndarray, theta: complex, params: SystemParams, hamiltonian: bool = False):
    """d a / d tau for a = (a+, a-, b+, b-) at bunching theta.

        d(alpha+)/dtau = (i delta - 1) alpha+ - i N u0 theta  alpha- + eta+
        d(alpha-)/dtau = (i delta - 1) alpha- - i N u0 theta* alpha+
        d(beta+)/dtau  = (i delta - 1) beta+  - i N u0 theta  beta-
        d(beta-)/dtau  = (i delta - 1) beta-  - i N u0 theta* beta+ + eta-

    ``hamiltonian`` drops the decay and the pumps (the closed system).
    """
    lam = 1j * params.delta - (0.0 if hamiltonian else 1.0)
    nu0 = params.nu0
    ap, am, bp, bm = a
    da = np.empty(4, dtype=complex)
    da[0] = lam * ap - 1j * nu0 * theta * am
    da[1] = lam * am - 1j * nu0 * np.conj(theta) * ap
    da[2] = lam * bp - 1j * nu0 * theta * bm
    da[3] = lam * bm - 1j * nu0 * np.conj(theta) * bp
    if not hamiltonian:
        da[0] += params.eta_plus
        da[3] += params.eta_minus
    return da


# 4-node Gauss-Legendre rule on [0, 1], from the closed-form nodes
# +-sqrt(3/7 -+ 2/7 sqrt(6/5)) and weights (18 +- sqrt(30)) / 36 on [-1, 1]
# (numpy's leggauss would start the linear-algebra library, about 1 MB)
_GL_RULE = [
    (0.5 * (1.0 + sign * math.sqrt(3 / 7 + pm * 2 / 7 * math.sqrt(6 / 5))),
     (18 - pm * math.sqrt(30)) / 72)
    for pm in (-1.0, 1.0) for sign in (-1.0, 1.0)
]


def mode_flow(a: np.ndarray, theta: complex, params: SystemParams, h: float,
              hamiltonian: bool = False):
    """Exact flow of :func:`mode_rhs` over a time h at fixed theta, and its kick.

    Returns (a(h), J) with J = integral_0^h C dtau along the flow, so that
    ``force(sin_chi, cos_chi, J, params)`` is the velocity kick of particles
    held at chi meanwhile.  Each mode pair (a+, a-), (b+, b-) obeys
    x' = (lambda + K) x + eta with K^2 = -omega^2, omega = |N u0 theta|, so

        x(t) = x* + e^{lambda t} [cos(omega t) + sin(omega t)/omega K] (x0 - x*)

    around its fixed point x* (zero in the closed system, which has no
    pumps).  J is the 4-node Gauss-Legendre rule on that trajectory, exact
    to rounding for h well below 1/|lambda| and 1/omega.  Python scalars
    beat numpy on four amplitudes at five times.
    """
    lam = 1j * params.delta - (0.0 if hamiltonian else 1.0)
    theta = complex(theta)
    k_plus = -1j * params.nu0 * theta                 # a+ <- a-, b+ <- b-
    k_minus = -1j * params.nu0 * theta.conjugate()    # a- <- a+, b- <- b+
    omega = abs(k_plus)
    fixed = [0j] * 4
    if not hamiltonian:
        # (lambda + K)^-1 = (lambda - K) / (lambda^2 + omega^2), and
        # lambda^2 + omega^2 = -lambda m with m != 0 as Re lambda = -1;
        # at theta = 0 this is steady_state_fields to the last bit
        m = -lam - omega**2 / lam
        fixed[0], fixed[3] = params.eta_plus / m, params.eta_minus / m
        fixed[1], fixed[2] = -k_minus / lam * fixed[0], -k_plus / lam * fixed[3]
    d = [x - f for x, f in zip(a.tolist(), fixed)]
    kd = [k_plus * d[1], k_minus * d[0], k_plus * d[3], k_minus * d[2]]

    def at(t):
        wt = omega * t
        e = cmath.exp(lam * t)
        c, s = e * math.cos(wt), e * t * (math.sin(wt) / wt if wt else 1.0)
        return [f + c * x + s * y for f, x, y in zip(fixed, d, kd)]

    return np.array(at(h)), h * sum(w * coupling(at(h * t)) for t, w in _GL_RULE)


def coupling(a: np.ndarray) -> complex:
    """Interference coefficient C = alpha+ alpha-^* + beta+ beta-^*.

    The dimensionless optical potential is phi(chi) = 2 u0 Re[C e^{i chi}];
    C = 0 means a flat potential (no backscattered light).
    """
    return a[0] * a[1].conjugate() + a[2] * a[3].conjugate()


def force(sin_chi, cos_chi, c: complex, params: SystemParams):
    """Scaled acceleration du/dtau = 2 rho_r u0 Im[C e^{i chi}].

    Takes sin(chi) and cos(chi) so a caller that already has them pays no
    second trig pass.  This is -rho_r d(phi)/d(chi): particles are pushed
    towards the minima of the optical potential.
    """
    # Im[C e^{i chi}] = Re(C) sin(chi) + Im(C) cos(chi)
    return 2.0 * params.rho_r * params.u0 * (c.real * sin_chi + c.imag * cos_chi)


def field_momentum(intensities: np.ndarray):
    """|a+|^2 - |a-|^2 + |b+|^2 - |b-|^2 along the last axis."""
    i = intensities
    return i[..., 0] - i[..., 1] + i[..., 2] - i[..., 3]


@dataclass
class TimeSeries:
    """Uniformly sampled diagnostics of one run."""

    tau: np.ndarray          # (M,)
    theta: np.ndarray        # (M,) complex
    v_cm: np.ndarray         # (M,) mean velocity in u-units
    intensities: np.ndarray  # (M, 4): |a+|^2, |a-|^2, |b+|^2, |b-|^2
    kinetic_energy: np.ndarray  # (M,) mean u^2 / 2 per particle
    field_momentum: np.ndarray  # (M,) |a+|^2 - |a-|^2 + |b+|^2 - |b-|^2

    def __len__(self) -> int:
        return self.tau.size

    def trailing_window(self, frac: float = 0.25) -> np.ndarray:
        """Index array of the trailing analysis window."""
        m = len(self)
        start = m - max(int(round(frac * m)), 2)
        return np.arange(max(start, 0), m)


def step_count(t_end: float, dt: float) -> int:
    """Number of steps of size dt that :func:`split_run` takes to reach t_end."""
    return int(round(t_end / dt))


def split_run(state, outer, inner, sample, t_end: float, sample_every: float, dt: float,
              snapshot_every: float | None = None):
    """The run loop of both solvers: Strang steps outer(dt/2) inner(dt) outer(dt/2).

    ``outer(state, h)`` and ``inner(state, h)`` are the two exact parts of
    the split.  The outer halves meeting between steps fuse into one
    outer(dt) except at a sync point: a sample (every round(sample_every/dt)
    steps), a snapshot (every round(snapshot_every/dt) steps) or the last
    step.  ``sample(state)`` gives the row (theta, v_cm, kinetic_energy, a)
    and may check the state; an IntegrationDivergedError from it or a part
    is re-raised with tau = i dt of its step.  Returns the TimeSeries and
    the (tau, state) snapshots from tau = 0, or only the final state if
    ``snapshot_every`` is None.  Parts may update arrays in place only if
    no snapshots are kept.
    """
    if not (t_end > 0 and dt > 0):
        raise DomainError(f"t_end and dt must be positive, got {t_end} and {dt}")
    n_steps = step_count(t_end, dt)
    stride = max(int(round(sample_every / dt)), 1)
    snap_stride = None if snapshot_every is None else max(int(round(snapshot_every / dt)), 1)
    snaps = [] if snap_stride is None else [(0.0, state)]
    half = pending = 0.5 * dt
    tau = 0.0
    try:
        rows = [(tau, *sample(state))]
        for i in range(1, n_steps + 1):
            tau = i * dt
            state, pending = inner(outer(state, pending), dt), dt
            snap = snap_stride is not None and i % snap_stride == 0
            if i % stride == 0 or snap or i == n_steps:
                state, pending = outer(state, half), half
                if i % stride == 0:
                    rows.append((tau, *sample(state)))
                if snap:
                    snaps.append((tau, state))
    except IntegrationDivergedError as exc:
        raise IntegrationDivergedError(tau) from exc
    if snap_stride is None:
        snaps.append((n_steps * dt, state))
    tau, theta, v_cm, ekin, a = (np.array(column) for column in zip(*rows))
    intensities = np.abs(a) ** 2
    return TimeSeries(tau, theta, v_cm, intensities, ekin, field_momentum(intensities)), snaps


def sample_maxwellian(
    params: SystemParams,
    n: int,
    mean_u: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Draw n velocities from the thermal distribution.

    The scaled Maxwell-Boltzmann distribution is a Gaussian with standard
    deviation u_t / sqrt(2) around ``mean_u``.  Without an explicit ``rng``
    a fresh generator seeded from ``params.seed`` is used, so repeated calls
    with the same params are bit-identical.
    """
    if n <= 0:
        raise DomainError(f"sample size must be positive, got {n}")
    if rng is None:
        rng = np.random.default_rng(params.seed)
    if params.u_t == 0.0:
        return np.full(n, float(mean_u))
    return rng.normal(loc=mean_u, scale=params.u_t / np.sqrt(2.0), size=n)


def steady_state_fields(params: SystemParams) -> np.ndarray:
    """Homogeneous stationary amplitudes (a+, a-, b+, b-): only the pumped
    modes are populated.

    alpha+ = eta+ / (1 - i delta), beta- = eta- / (1 - i delta); with theta = 0
    all four mode equations then have vanishing right-hand sides.
    """
    d = 1.0 - 1j * params.delta
    # scalar divisions: dividing the array by d rounds differently
    return np.array([params.eta_plus / d, 0j, 0j, params.eta_minus / d], dtype=complex)
