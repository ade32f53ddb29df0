"""Mean-field kinetic solver on a periodic (chi, u) phase-space grid.

The one-body distribution obeys (scaled units, kappa = 1)

    df/dtau + u df/dchi + F(chi, tau) df/du = 0,

with the force F and the four mode equations of :mod:`ringcarl.core`,
coupled through theta = integral e^{-i chi} f.
One time step is Strang-split semi-Lagrangian: half a chi drift, a full
u-kick with the fields advanced alongside by their exact flow at fixed
theta, half a chi drift.  The chi drift is spectral, so drifts compose
and :func:`ringcarl.core.split_run` fuses the halves between steps; the
u-kick is cubic B-spline interpolation.  The chi domain is one potential
period [0, 2 pi); the u domain is truncated, with the mass leaking past
the cut monitored.

The kick prefilters f into spline coefficients c along u, then evaluates
w0 c[k-1] + w1 c[k] + w2 c[k+1] + w3 c[k+2] at each node, where k is the
node's integer offset and w the B-spline weights of its fractional part.
The chi rows sharing an offset read their four taps as slices of the
padded coefficient array rather than through per-node index arrays; the
taps, weights and order of the sums are those of the per-node formula,
so the result is the same to the last bit.

Neither shift has a limiter, so f may undershoot zero slightly;
diagnostics clamp at zero, the solver does not.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import spline_filter1d

from .core import (
    TWO_PI,
    DomainError,
    IntegrationDivergedError,
    SystemParams,
    field_momentum,
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
    "kinetic_momentum_invariant",
]

# mass leaving the truncated u domain: warn above this much in one step,
# fail once this much has left in total
OVERFLOW_WARN = 1e-8
OVERFLOW_FAIL = 1e-3


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
# Shifts: cubic B-spline along u, spectral along chi
# ---------------------------------------------------------------------------


def _bspline_weights(t: np.ndarray):
    """Cubic B-spline evaluation weights for the 4 taps at fractional t."""
    omt = 1.0 - t
    w0 = omt**3 / 6.0
    w1 = (4.0 - 6.0 * t**2 + 3.0 * t**3) / 6.0
    w2 = (4.0 - 6.0 * omt**2 + 3.0 * omt**3) / 6.0
    w3 = t**3 / 6.0
    return w0, w1, w2, w3


def _offset_groups(base: np.ndarray):
    """Yield (offset, selector) for each distinct integer offset in ``base``.

    The selector picks the positions holding that offset: a slice when they
    are contiguous (a smooth kick gives contiguous runs of chi rows), an
    index array otherwise.
    """
    order = np.argsort(base, kind="stable")
    values, starts = np.unique(base[order], return_index=True)
    for b, idx in zip(values, np.split(order, starts[1:])):
        if idx[-1] - idx[0] + 1 == idx.size:
            yield int(b), slice(int(idx[0]), int(idx[-1]) + 1)
        else:
            yield int(b), idx


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


def shift_clamped_u(f: np.ndarray, shift_cells: np.ndarray) -> np.ndarray:
    """out[i, j] = f(i, j - shift_cells[i]); f is zero outside the u domain.

    f is zero-padded *before* the spline prefilter so that the coefficients
    and the 4-tap evaluation see the same boundary extension; prefiltering
    first and padding the coefficients is not mass-safe (the reconstruction
    then fails to reproduce f at the edge nodes, and the prefilter's gain at
    the grid Nyquist turns that mismatch into a growing edge artefact).
    The rows sharing an integer offset read their four taps as column
    slices of the padded coefficients, so each row is touched once.
    """
    nrows, nv = f.shape
    q = -np.broadcast_to(np.asarray(shift_cells, dtype=float), (nrows,))
    base = np.floor(q).astype(int)
    npad = int(max(4, np.max(np.abs(base)) + 3))
    padded = np.zeros((nrows, nv + 2 * npad), dtype=f.dtype)
    padded[:, npad : npad + nv] = f
    coef = spline_filter1d(padded, order=3, axis=1, mode="mirror")
    t = q - base
    w0, w1, w2, w3 = _bspline_weights(t)
    out = np.empty((nrows, nv), dtype=coef.dtype)
    for b, rows in _offset_groups(base):
        c = coef[rows]
        k = b - 1 + npad  # padded column holding tap 0 of output column 0
        acc = w0[rows, None] * c[:, k : k + nv]
        acc += w1[rows, None] * c[:, k + 1 : k + 1 + nv]
        acc += w2[rows, None] * c[:, k + 2 : k + 2 + nv]
        acc += w3[rows, None] * c[:, k + 3 : k + 3 + nv]
        out[rows] = acc
    return out


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


def vlasov_step(
    grid: PhaseSpaceGrid,
    a: np.ndarray,
    params: SystemParams,
    dt: float,
    hamiltonian: bool = False,
) -> tuple[PhaseSpaceGrid, np.ndarray]:
    """One Strang-split step of size dt; returns the advanced (grid, a).

    Half a spectral chi drift; the u kick, which leaves theta untouched, so
    the modes a = (a+, a-, b+, b-) follow their exact flow
    (:func:`ringcarl.core.mode_flow`) and f shifts along u by force(J),
    with J the time integral of C along it; the other half drift.  The
    input grid is not modified.  Raises IntegrationDivergedError, with
    tau = nan since the step does not know the time, once the kick or f
    stops being finite.
    """
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    return _drift(_kick(_drift((grid, a), 0.5 * dt), dt, params, hamiltonian), 0.5 * dt)


def kinetic_momentum_invariant(grid: PhaseSpaceGrid, a: np.ndarray, params: SystemParams) -> float:
    """Grid-quadrature version of the closed-system momentum invariant."""
    _, v_cm, _ = grid_moments(grid)
    pf = field_momentum(np.abs(a) ** 2)
    return float((2.0 / params.rho_r) * params.n_particles * v_cm + pf)


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
    series, snaps = split_run(
        (grid, a), _drift, functools.partial(_kick, params=params),
        lambda state: (*grid_moments(state[0]), state[1]),
        t_end, sample_every, dt, snapshot_every,
    )
    return series, [(tau, g) for tau, (g, _) in snaps]
