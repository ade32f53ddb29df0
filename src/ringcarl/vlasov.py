"""Mean-field kinetic solver on a periodic (chi, u) phase-space grid.

The one-body distribution obeys (scaled units, kappa = 1)

    df/dtau + u df/dchi + F(chi, tau) df/du = 0,

with the force F and the four mode equations of :mod:`ringcarl.core`,
coupled through theta = integral e^{-i chi} f.
One time step is Strang-split semi-Lagrangian: half a chi drift, a full
u-kick with the fields advanced alongside by their exact flow at fixed
theta, half a chi drift.  Both shifts are spectral.  The chi drift moves
each column's periodic trigonometric interpolant, so drifts compose and
:func:`ringcarl.core.split_run` fuses the halves between steps.  The u
kick moves the interpolant of each chi row zero-padded to an odd FFT
length, long enough that what leaves the u domain lands in the padding
and is cropped instead of wrapping back.  The chi domain is one potential
period [0, 2 pi); the u domain is truncated, with the mass leaking past
the cut monitored.

The u kick also damps the grid-scale u modes (a filamentation filter) as
far as it interpolates, which keeps nonlinear runs from ringing.  Neither
shift has a limiter, so f may undershoot zero slightly; diagnostics clamp
at zero, the solver does not.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import spline_filter1d  # noqa: F401 -- unused; perfbench/spans.py traces the name

from .core import (
    TWO_PI,
    DomainError,
    IntegrationDivergedError,
    SystemParams,
    force,
    mode_flow,
    split_run,
    steady_state_fields,
)

__all__ = [
    "PhaseSpaceGrid",
    "make_grid",
    "vlasov_step",
    "grid_moments",
    "run_vlasov",
]

# mass leaving the truncated u domain: warn above this much in one step,
# fail once this much has left in total
OVERFLOW_WARN = 1e-8
OVERFLOW_FAIL = 1e-3

# filamentation filter of the u kick (see shift_clamped_u)
FILTER_STRENGTH = 36.0
FILTER_ORDER = 16


@dataclass
class PhaseSpaceGrid:
    """Discretized distribution f(chi, u) with unit total mass.

    chi nodes are 2 pi i / nx (periodic); u nodes span [u_min, u_max]
    inclusively.  ``lost_mass`` accumulates what has left the u domain.
    """

    chi: np.ndarray   # (nx,)
    u: np.ndarray     # (nv,)
    f: np.ndarray     # (nx, nv)
    lost_mass: float = 0.0

    def __post_init__(self):
        if self.f.shape != (self.chi.size, self.u.size):
            raise DomainError("f must have shape (nx, nv)")

    @property
    def nx(self) -> int:
        return self.chi.size

    @property
    def nv(self) -> int:
        return self.u.size

    @property
    def dchi(self) -> float:
        return TWO_PI / self.nx

    @property
    def du(self) -> float:
        return float(self.u[1] - self.u[0])

    @property
    def cell(self) -> float:
        return self.dchi * self.du

    def mass(self) -> float:
        return float(np.sum(self.f) * self.cell)

    def copy(self) -> "PhaseSpaceGrid":
        return PhaseSpaceGrid(self.chi.copy(), self.u.copy(), self.f.copy(), self.lost_mass)


def make_grid(
    params: SystemParams,
    nx: int = 256,
    nv: int = 512,
    mean_u: float = 0.0,
    cosine_eps: float = 0.0,
) -> PhaseSpaceGrid:
    """Maxwellian grid with optional 1 + eps cos(chi) density modulation.

    The u domain spans eight thermal widths plus a margin of 2 on each side
    of ``mean_u``.
    """
    if params.u_t <= 0:
        raise DomainError("make_grid needs a thermal distribution (u_t > 0)")
    sigma = params.u_t / np.sqrt(2.0)
    lo = mean_u - 8.0 * sigma - 2.0
    hi = mean_u + 8.0 * sigma + 2.0
    chi = TWO_PI * np.arange(nx) / nx
    u = np.linspace(lo, hi, nv)
    fu = np.exp(-(((u - mean_u) / params.u_t) ** 2))
    fx = 1.0 + cosine_eps * np.cos(chi)
    f = np.outer(fx, fu)
    grid = PhaseSpaceGrid(chi, u, f)
    grid.f /= grid.mass()
    return grid


# ---------------------------------------------------------------------------
# Shifts: spectral along chi and along u
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=2)  # a run drifts by dt and dt/2 only
def _phase_table(nx: int, shift_cells: bytes) -> np.ndarray:
    """Read-only e^{-2 pi i k s_j / nx}, k = 0 .. nx // 2; costs about an FFT pair to build."""
    k_shift = np.outer(np.arange(nx // 2 + 1), np.mod(np.frombuffer(shift_cells), nx))
    table = np.exp((-2j * np.pi / nx) * k_shift)
    table.flags.writeable = False
    return table


def shift_periodic_chi(f: np.ndarray, shift_cells: np.ndarray) -> np.ndarray:
    """out[i, j] = f(i - shift_cells[j], j), periodic along axis 0.

    The shift moves the trigonometric interpolant of each column exactly
    (its spectrum times e^{-2 pi i k shift / nx}), so shifts compose,
    integer shifts are rolls and the column mass (k = 0) is kept; but the
    Nyquist mode of an even nx, which no real grid function can move by a
    fraction of a cell, is scaled by cos(pi shift) instead.
    """
    nx, nv = f.shape
    shift = np.broadcast_to(np.asarray(shift_cells, dtype=float), (nv,))
    spectrum = np.fft.rfft(f, axis=0)
    spectrum *= _phase_table(nx, np.ascontiguousarray(shift).tobytes())
    return np.fft.irfft(spectrum, n=nx, axis=0)


def _padded_length(m: int) -> int:
    """The smallest odd 3-5-7-smooth integer >= m: a fast FFT length with no Nyquist mode."""
    n = m | 1
    while True:
        k = n
        for p in (3, 5, 7):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 2


def shift_clamped_u(f: np.ndarray, shift_cells: np.ndarray) -> np.ndarray:
    """out[i, j] = f(i, j - shift_cells[i]); f is zero outside the u domain.

    Each row is zero-padded to the length n of :func:`_padded_length` at
    nv + ceil(max |shift|) + 2, and its trigonometric interpolant on that
    period is moved exactly (spectrum times e^{-2 pi i k shift / n}); the
    result is cropped back to the nv nodes.  A shifted row then lands in the
    padding rather than wrapping round, so the mass that leaves the domain
    is the cropped part, and the in-domain plus cropped sums are the input
    sum.  An odd n has no Nyquist mode, so integer shifts are exact moves.
    The phase table is e^{w 16 a} e^{w b} for k = 16 a + b: two small
    exponentials rather than one per entry, and accurate to a few ulp where
    a cumulative product along k drifts by about 1e-14.

    The table also carries a filamentation filter (Klimas 1987; Hou & Li
    2007): mode k is damped by exp(-36 w (k / k_max)^16), k_max = (n-1)/2.
    Without it, once a run turns nonlinear, structure that phase mixing
    drives to the grid scale makes the interpolant ring, and f undershoots
    and leaks mass at the u edges.  The weight w = max_i 4 q_i (1 - q_i),
    q_i the fractional part of row i's shift, is 0 when every row moves by
    whole cells (zero and integer shifts stay exact) and about 4 max|shift|
    for small shifts (damping per unit time independent of dt).  One w for
    all rows keeps the filter uniform in chi; row-by-row weights would put
    their kinks at the force's zeros into every chi mode.  The k = 0 mode
    is kept, so the in-domain plus cropped sums are still the input sum.
    """
    nrows, nv = f.shape
    shift = np.broadcast_to(np.asarray(shift_cells, dtype=float), (nrows,))
    n = _padded_length(nv + int(np.ceil(np.max(np.abs(shift)))) + 2)
    nk = n // 2 + 1
    w = (-2j * np.pi / n) * shift[:, None]
    coarse = np.exp(w * np.arange(0, nk, 16))
    fine = np.exp(w * np.arange(16))
    table = (coarse[:, :, None] * fine[:, None, :]).reshape(nrows, -1)[:, :nk]
    q = shift - np.floor(shift)
    weight = np.max(4.0 * q * (1.0 - q))
    table *= np.exp(-FILTER_STRENGTH * weight * (np.arange(nk) / (nk - 1)) ** FILTER_ORDER)
    spectrum = np.fft.rfft(f, n=n, axis=1)
    spectrum *= table
    return np.fft.irfft(spectrum, n=n, axis=1)[:, :nv]


# ---------------------------------------------------------------------------
# Moments and the split step
# ---------------------------------------------------------------------------


def grid_moments(grid: PhaseSpaceGrid):
    """Quadrature diagnostics: (theta, v_cm, kinetic_energy).

    Plain node sums, consistent with the semi-Lagrangian scheme (spectral
    accuracy in periodic chi, Gaussian-tail accuracy in u).
    """
    w_chi = np.exp(-1j * grid.chi)
    col = np.sum(grid.f, axis=1)  # chi marginal / du
    row = np.sum(grid.f, axis=0)  # u marginal / dchi
    cell = grid.cell
    theta = complex(np.sum(w_chi * col) * cell)
    v_cm = float(np.sum(grid.u * row) * cell)
    ekin = float(np.sum(0.5 * grid.u**2 * row) * cell)
    return theta, v_cm, ekin


def _drift(state, h):
    """The chi drift over h, f(chi, u) -> f(chi - u h, u), into a new grid."""
    grid, a = state
    return replace(grid, f=shift_periodic_chi(grid.f, grid.u * h / grid.dchi)), a


def _kick(state, h, params, hamiltonian=False):
    """The mode flow and u kick of :func:`vlasov_step` over h, into a new grid.

    A non-finite f shows in theta, hence in the kick; lost mass is counted.
    """
    grid, a = state
    theta, _, _ = grid_moments(grid)
    a, j = mode_flow(a, theta, params, h, hamiltonian)
    kick = force(np.sin(grid.chi), np.cos(grid.chi), j, params)
    if not np.all(np.isfinite(kick)):  # a non-finite shift has no integer offset
        raise IntegrationDivergedError(float("nan"))
    out = replace(grid, f=shift_clamped_u(grid.f, kick / grid.du))
    lost = grid.mass() - out.mass()
    out.lost_mass += lost
    if out.lost_mass > OVERFLOW_FAIL:
        raise DomainError(
            f"mass leaving the truncated u domain exceeds {OVERFLOW_FAIL:g} "
            f"(lost {out.lost_mass:.3e})"
        )
    if lost > OVERFLOW_WARN:
        warnings.warn(
            f"mass loss {lost:.3e} through the u boundary in one step",
            RuntimeWarning,
            stacklevel=2,
        )
    return out, a


def _sample(state):
    """The row (theta, v_cm, kinetic_energy, a) of a (grid, a) state."""
    return (*grid_moments(state[0]), state[1])


def vlasov_step(
    grid: PhaseSpaceGrid,
    a: np.ndarray,
    params: SystemParams,
    dt: float,
    hamiltonian: bool = False,
) -> tuple[PhaseSpaceGrid, np.ndarray]:
    """One Strang-split step of size dt > 0; returns the advanced (grid, a).

    One step of :func:`ringcarl.core.split_run`: half a spectral chi drift;
    the u kick, which leaves theta untouched, so the modes
    a = (a+, a-, b+, b-) follow their exact flow
    (:func:`ringcarl.core.mode_flow`) and f shifts along u by force(J),
    with J the time integral of C along it, through the zero-padded FFT of
    :func:`shift_clamped_u`; the other half drift.  The input grid is not
    modified.  Raises IntegrationDivergedError once the kick or f stops
    being finite.
    """
    kick = functools.partial(_kick, params=params, hamiltonian=hamiltonian)
    _, [(_, state)] = split_run((grid, a), _drift, kick, _sample, dt, dt, dt)
    return state


def run_vlasov(
    params: SystemParams,
    grid: PhaseSpaceGrid | None = None,
    fields: np.ndarray | None = None,
    t_end: float = 10.0,
    sample_every: float = 0.1,
    dt: float = 1e-2,
    cosine_eps: float = 1e-3,
    mean_u: float = 0.0,
    nx: int = 256,
    nv: int = 512,
    snapshot_every: float | None = None,
):
    """Integrate the kinetic system; returns (TimeSeries, snapshots).

    ``fields`` holds the initial mode amplitudes (a+, a-, b+, b-); the
    steady state by default.  Snapshots are (tau, PhaseSpaceGrid) pairs
    taken every ``snapshot_every`` (None: only the final state); they hold
    the run's grids themselves, since no part of a step mutates its input
    grid (they share the chi and u node arrays).  The
    kinetic_energy diagnostic is per particle, matching the N-body
    TimeSeries convention.  A step that diverges raises
    IntegrationDivergedError carrying the time that step was to reach.
    """
    if grid is None:
        grid = make_grid(params, nx=nx, nv=nv, mean_u=mean_u, cosine_eps=cosine_eps)
    else:
        grid = grid.copy()
    a = steady_state_fields(params) if fields is None else fields
    series, snaps = split_run((grid, a), _drift, functools.partial(_kick, params=params),
                              _sample, t_end, sample_every, dt, snapshot_every)
    return series, [(tau, g) for tau, (g, _) in snaps]
