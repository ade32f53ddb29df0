"""Mean-field kinetic solver on a periodic (chi, u) phase-space grid.

The one-body distribution obeys (scaled units, kappa = 1)

    df/dtau + u df/dchi + F(chi, tau) df/du = 0,

with the force F and the four mode equations of :mod:`ringcarl.core`,
coupled through theta = integral e^{-i chi} f.
One time step is Strang-split semi-Lagrangian (half chi-advection, full
u-kick with the fields advanced alongside, half chi-advection), each 1D
shift done by cubic B-spline interpolation.  The chi domain is one
potential period [0, 2 pi); the u domain is truncated, with the mass
leaking past the cut monitored.

A shift prefilters f into spline coefficients c along the shifted axis,
then evaluates w0 c[k-1] + w1 c[k] + w2 c[k+1] + w3 c[k+2] at each node,
where k is the node's integer offset and w the B-spline weights of its
fractional part.  Lines sharing an offset (runs of u columns for the chi
shift, runs of chi rows for the kick) read their four taps as slices of
the padded coefficient array rather than through per-node index arrays;
the taps, weights and order of the sums are those of the per-node
formula, so the result is the same to the last bit.

Cubic interpolation may undershoot slightly (no limiter); diagnostics
clamp at zero, the solver does not.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import spline_filter1d

from .core import (
    TWO_PI,
    DomainError,
    IntegrationDivergedError,
    SystemParams,
    TimeSeries,
    coupling,
    field_momentum,
    force,
    mode_rhs,
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
# Cubic B-spline shifts
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
    are contiguous (a monotone shift such as u dt / dchi on the uniform u
    grid, or a smooth kick, gives contiguous runs), an index array otherwise.
    """
    order = np.argsort(base, kind="stable")
    values, starts = np.unique(base[order], return_index=True)
    for b, idx in zip(values, np.split(order, starts[1:])):
        if idx[-1] - idx[0] + 1 == idx.size:
            yield int(b), slice(int(idx[0]), int(idx[-1]) + 1)
        else:
            yield int(b), idx


def shift_periodic_chi(f: np.ndarray, shift_cells: np.ndarray) -> np.ndarray:
    """out[i, j] = f(i - shift_cells[j], j), periodic along axis 0.

    The prefiltered coefficients are wrap-padded once along axis 0; the
    columns sharing an integer offset then read their four taps as row
    slices of the padded array, so each column is touched once.
    """
    nx, nv = f.shape
    coef = spline_filter1d(f, order=3, axis=0, mode="grid-wrap")
    q = -np.broadcast_to(np.asarray(shift_cells, dtype=float), (nv,))
    base = np.floor(q).astype(int)
    t = q - base
    w0, w1, w2, w3 = _bspline_weights(t)
    # offsets that differ by nx read the same rows; folding them into
    # [-nx/2, nx/2) keeps the padding to at most nx + 2 rows
    base = (base + nx // 2) % nx - nx // 2
    lo = int(base.min()) - 1
    padded = coef[np.arange(lo, nx + int(base.max()) + 2) % nx]
    out = np.empty_like(coef)
    for b, cols in _offset_groups(base):
        r = b - 1 - lo  # padded row holding coef[(b - 1) % nx]
        acc = w0[cols] * padded[r : r + nx, cols]
        acc += w1[cols] * padded[r + 1 : r + 1 + nx, cols]
        acc += w2[cols] * padded[r + 2 : r + 2 + nx, cols]
        acc += w3[cols] * padded[r + 3 : r + 3 + nx, cols]
        out[:, cols] = acc
    return out


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


def _field_rk4(a, theta, params, dt, hamiltonian):
    k1 = mode_rhs(a, theta, params, hamiltonian)
    k2 = mode_rhs(a + 0.5 * dt * k1, theta, params, hamiltonian)
    k3 = mode_rhs(a + 0.5 * dt * k2, theta, params, hamiltonian)
    k4 = mode_rhs(a + dt * k3, theta, params, hamiltonian)
    return a + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def vlasov_step(
    grid: PhaseSpaceGrid,
    a: np.ndarray,
    params: SystemParams,
    dt: float,
    hamiltonian: bool = False,
) -> tuple[PhaseSpaceGrid, np.ndarray]:
    """One Strang-split step of size dt; returns the advanced (grid, a).

    The u-kick leaves the chi marginal (hence theta) untouched, so the mode
    amplitudes a = (a+, a-, b+, b-) see a constant theta across the whole
    step and are advanced by RK4 in two halves around the kick.

    Raises IntegrationDivergedError, with tau = nan since the step does not
    know the time, once the kick or f stops being finite.
    """
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    f = shift_periodic_chi(grid.f, grid.u * (0.5 * dt) / grid.dchi)
    out = PhaseSpaceGrid(grid.chi, grid.u, f, grid.lost_mass)
    theta, _, _ = grid_moments(out)

    a = _field_rk4(a, theta, params, 0.5 * dt, hamiltonian)
    kick = force(np.sin(out.chi), np.cos(out.chi), coupling(a), params)
    if not np.all(np.isfinite(kick)):  # a non-finite shift has no integer offset
        raise IntegrationDivergedError(float("nan"))
    mass_before = out.mass()
    out.f = shift_clamped_u(out.f, kick * dt / out.du)
    lost = mass_before - out.mass()
    out.lost_mass += lost

    a = _field_rk4(a, theta, params, 0.5 * dt, hamiltonian)

    out.f = shift_periodic_chi(out.f, out.u * (0.5 * dt) / out.dchi)
    if not np.all(np.isfinite(out.f)):
        raise IntegrationDivergedError(float("nan"))
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
    taken every ``snapshot_every`` (None: only the final state).  The
    kinetic_energy diagnostic is per particle, matching the N-body
    TimeSeries convention.  A step that diverges raises
    IntegrationDivergedError carrying the time that step was to reach.
    """
    if t_end <= 0:
        raise DomainError(f"t_end must be positive, got {t_end}")
    if grid is None:
        grid = make_grid(params, nx=nx, nv=nv, mean_u=mean_u, cosine_eps=cosine_eps)
    else:
        grid = grid.copy()
    a = steady_state_fields(params) if fields is None else fields
    n_steps = int(round(t_end / dt))
    stride = max(int(round(sample_every / dt)), 1)
    snap_stride = None if snapshot_every is None else max(int(round(snapshot_every / dt)), 1)
    rows = [(0.0, *grid_moments(grid), a)]
    snaps = []
    if snap_stride is not None:
        snaps.append((0.0, grid.copy()))
    for i in range(1, n_steps + 1):
        tau = i * dt
        try:
            grid, a = vlasov_step(grid, a, params, dt)
        except IntegrationDivergedError as exc:
            raise IntegrationDivergedError(tau) from exc
        if i % stride == 0:
            rows.append((tau, *grid_moments(grid), a))
        if snap_stride is not None and i % snap_stride == 0:
            snaps.append((tau, grid.copy()))
    if snap_stride is None:
        snaps.append((n_steps * dt, grid.copy()))
    return TimeSeries.from_samples(rows), snaps
