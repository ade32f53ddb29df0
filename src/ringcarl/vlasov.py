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

A run's state is (grid, a, space): its workspace ``space`` travels with
the state, as the N-body run's ``work`` arrays do, and the parts hand it
to the shifts.  With it each shift of a grid of at least
2 * MIN_SLAB_CELLS cells is split into slabs of whole lines, chi drift by
u columns and u kick by chi rows, one slab per CPU in the process's
affinity mask (``os.sched_getaffinity``, so ``taskset`` limits them), and
no slab of fewer than MIN_SLAB_CELLS cells.  numpy's FFTs and array passes
release the GIL, so the slabs run in parallel on the workspace's threads,
which the run's ``with`` block joins before it returns.  Each line is
transformed exactly as on its own, and the sums (theta, moments, mass)
run whole-array on the calling thread, so results are bitwise identical
for any slab count.  The workspace also holds the run's fixed working
set, so a step allocates no grid-sized array: the drift writes one
(nx, nv) buffer, also over its own input where two drifts meet at a sync
point; the kick writes one zero-padded buffer; the two shifts share one
complex spectrum buffer; and the kick's u phase table has its own.  A
state's f is therefore valid only until the part that next writes its
buffer.  :func:`run_vlasov` keeps no grid but the final one: it hands
each snapshot to a callback as the snapshot is taken, which is when the
command line writes the snapshot's file, so a run's memory does not grow
with its snapshot count and a run that fails keeps the snapshots written
before the failure.  A shift called without a workspace runs inline on
fresh arrays.

The solver uses no spline prefilter.  The module still resolves the name
``spline_filter1d`` through a module-level ``__getattr__``, which imports
``scipy.ndimage`` only when something asks for that name (nothing in the
package does), because the benchmark's tracer wraps it as the
``vlasov.prefilter.*`` metrics.  It goes once the benchmark retires those.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    TWO_PI,
    DomainError,
    IntegrationDivergedError,
    SystemParams,
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
    "slab_count",
]

# mass leaving the truncated u domain: warn above this much in one step,
# fail once this much has left in total
OVERFLOW_WARN = 1e-8
OVERFLOW_FAIL = 1e-3

# filamentation filter of the u kick (see shift_clamped_u)
FILTER_STRENGTH = 36.0
FILTER_ORDER = 16

# slab threads of the shifts (see _Workspace): no slab of fewer grid
# cells than this (a 256 x 256 grid runs inline: on a 2-CPU host two slabs
# measured slower than one there, 2.55 against 2.36 ms per step)
MIN_SLAB_CELLS = 1 << 16


def __getattr__(name):
    # only for the benchmark's vlasov.prefilter.* span (a true 0); without
    # scipy the name is absent, which the tracer skips.  Delete with that
    # metric (ROADMAP item 7).
    if name == "spline_filter1d":
        try:
            from scipy.ndimage import spline_filter1d
        except ImportError as exc:
            raise AttributeError(name) from exc
        return spline_filter1d
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
# Slabs: the threads and scratch arrays of a run's shifts
# ---------------------------------------------------------------------------


def _cpu_slabs() -> int:
    """Slabs a run may use: the CPUs the process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform (macOS)
        return os.cpu_count() or 1


def _slab_count(slabs: int, lines: int, cells: int) -> int:
    return max(1, min(slabs, lines, cells // MIN_SLAB_CELLS))


def slab_count(nx: int, nv: int) -> int:
    """The slabs each shift of a run on an nx by nv grid takes in this process
    (the fewer, should one shift have fewer lines than slabs)."""
    return _slab_count(_cpu_slabs(), min(nx, nv), nx * nv)


class _Workspace:
    """A run's slab pool and the arrays its steps reuse, for a ``with`` block.

    :func:`_cpu_slabs` threads share each shift, the calling thread working
    one slab itself, so the pool holds one thread fewer; they start on the
    first shift that splits and are joined when the block ends, normally
    or by an exception, so no thread outlives the run.  ``buffers`` holds
    the flat arrays of :meth:`array` by name.
    """

    def __init__(self):
        self.slabs = _cpu_slabs()
        self.pool = None if self.slabs < 2 else concurrent.futures.ThreadPoolExecutor(
            max_workers=self.slabs - 1, thread_name_prefix="ringcarl-slab")
        self.buffers = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown()

    def array(self, key: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        """A C-contiguous view of ``shape`` on the flat buffer ``key``, which
        grows to the largest size asked for: every view of a key shares
        its memory, so each overwrites the last."""
        size = math.prod(shape)
        buf = self.buffers.get(key)
        if buf is None or buf.size < size:
            buf = self.buffers[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _scratch(space, key: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """An array to overwrite: the workspace's, else a new one."""
    return np.empty(shape, dtype) if space is None else space.array(key, shape, dtype)


def _run_slabs(work, lines: int, cells: int, space) -> None:
    """Call work(start, stop) over consecutive slabs that cover range(lines).

    Without a workspace, or with fewer than 2 * MIN_SLAB_CELLS cells, it is
    one inline call.  Otherwise the calling thread works the first slab and
    the pool the others; every slab is waited for, then the first failure
    is raised here.  ``work`` must touch numpy and its own slab only.
    """
    slabs = 1 if space is None or space.pool is None else _slab_count(space.slabs, lines, cells)
    if slabs == 1:
        work(0, lines)
        return
    cuts = [lines * k // slabs for k in range(slabs + 1)]
    futures = [space.pool.submit(work, a, b) for a, b in zip(cuts[1:-1], cuts[2:])]
    try:
        work(0, cuts[1])
    finally:
        concurrent.futures.wait(futures)
    for fut in futures:
        fut.result()


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


def shift_periodic_chi(f: np.ndarray, shift_cells: np.ndarray,
                       out: np.ndarray | None = None, space=None) -> np.ndarray:
    """out[i, j] = f(i - shift_cells[j], j), periodic along axis 0.

    The shift moves the trigonometric interpolant of each column exactly
    (its spectrum times e^{-2 pi i k shift / nx}), so shifts compose,
    integer shifts are rolls and the column mass (k = 0) is kept; but the
    Nyquist mode of an even nx, which no real grid function can move by a
    fraction of a cell, is scaled by cos(pi shift) instead.  With a run's
    workspace ``space`` the columns are split into slabs
    (:func:`_run_slabs`), each column transformed exactly as on its own, so
    the result does not depend on the slab count.  ``out``, a C-contiguous
    float array of f's shape, receives the result (default: a new array).
    It may be f itself: each slab transforms its columns into the spectrum
    before it writes them back.
    """
    nx, nv = f.shape
    shift = np.broadcast_to(np.asarray(shift_cells, dtype=float), (nv,))
    table = _phase_table(nx, np.ascontiguousarray(shift).tobytes())
    spectrum = _scratch(space, "spectrum", table.shape, complex)
    out = np.empty((nx, nv)) if out is None else out

    def columns(a, b):
        part = np.fft.rfft(f[:, a:b], axis=0, out=spectrum[:, a:b])
        part *= table[:, a:b]
        np.fft.irfft(part, n=nx, axis=0, out=out[:, a:b])

    _run_slabs(columns, nv, f.size, space)
    return out


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


def shift_clamped_u(f: np.ndarray, shift_cells: np.ndarray, space=None) -> np.ndarray:
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

    n, w and the filter are computed once; with a run's workspace
    ``space`` the rows are then split into slabs (:func:`_run_slabs`),
    each building its rows of the table and transforming them exactly as
    on their own, so the result does not depend on the slab count.  The
    result is the first nv columns of an nrows by n array: with a
    workspace, its padded buffer, which the next call overwrites.
    """
    nrows, nv = f.shape
    shift = np.broadcast_to(np.asarray(shift_cells, dtype=float), (nrows,))
    n = _padded_length(nv + int(np.ceil(np.max(np.abs(shift)))) + 2)
    nk = n // 2 + 1
    q = shift - np.floor(shift)
    weight = np.max(4.0 * q * (1.0 - q))
    damping = np.exp(-FILTER_STRENGTH * weight * (np.arange(nk) / (nk - 1)) ** FILTER_ORDER)
    padded = _scratch(space, "padded", (nrows, n))
    spectrum = _scratch(space, "spectrum", (nrows, nk), complex)
    product = _scratch(space, "u table", (nrows, -(-nk // 16), 16), complex)

    def rows(a, b):
        w = (-2j * np.pi / n) * shift[a:b, None]
        coarse = np.exp(w * np.arange(0, nk, 16))
        fine = np.exp(w * np.arange(16))
        table = np.multiply(coarse[:, :, None], fine[:, None, :], out=product[a:b])
        table = table.reshape(b - a, -1)[:, :nk]
        table *= damping
        padded[a:b, :nv] = f[a:b]
        padded[a:b, nv:] = 0.0
        part = np.fft.rfft(padded[a:b], axis=1, out=spectrum[a:b])
        part *= table
        np.fft.irfft(part, n=n, axis=1, out=padded[a:b])

    _run_slabs(rows, nrows, f.size, space)
    return padded[:, :nv]


# ---------------------------------------------------------------------------
# Moments and the split step
# ---------------------------------------------------------------------------


def grid_moments(grid: PhaseSpaceGrid):
    """Quadrature diagnostics: (theta, v_cm, kinetic_energy).

    Plain node sums, consistent with the semi-Lagrangian scheme (spectral
    accuracy in periodic chi, Gaussian-tail accuracy in u).
    """
    row = np.sum(grid.f, axis=0)  # u marginal / dchi
    cell = grid.cell
    v_cm = float(np.sum(grid.u * row) * cell)
    ekin = float(np.sum(0.5 * grid.u**2 * row) * cell)
    return _theta(grid), v_cm, ekin


def _theta(grid: PhaseSpaceGrid) -> complex:
    """The bunching theta of :func:`grid_moments` alone."""
    col = np.sum(grid.f, axis=1)  # chi marginal / du
    return complex(np.sum(np.exp(-1j * grid.chi) * col) * grid.cell)


def _drift(state, h):
    """The chi drift over h, f(chi, u) -> f(chi - u h, u), into a new grid
    whose f is the workspace's drift buffer (which may be the input's f)."""
    grid, a, space = state
    out = space.array("drift", grid.f.shape)
    out = shift_periodic_chi(grid.f, grid.u * h / grid.dchi, out, space)
    return replace(grid, f=out), a, space


def _kick(state, h, params, hamiltonian=False):
    """The mode flow and u kick of :func:`vlasov_step` over h, into a new grid.

    A non-finite f shows in theta, hence in the kick; lost mass is counted.
    """
    grid, a, space = state
    a, j = mode_flow(a, _theta(grid), params, h, hamiltonian)
    # core.force term by term, rounded as before: the fused multiply-adds of
    # numpy's complex product would move f in the last bits
    kick = (np.sin(grid.chi) * j.real + np.cos(grid.chi) * j.imag) * (2 * params.rho_r * params.u0)
    if not np.all(np.isfinite(kick)):  # a non-finite shift has no integer offset
        raise IntegrationDivergedError(float("nan"))
    out = replace(grid, f=shift_clamped_u(grid.f, kick / grid.du, space))
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
    return out, a, space


def _sample(state):
    """The row (theta, v_cm, kinetic_energy, a) of a (grid, a, space) state."""
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
    with _Workspace() as space:
        _, (grid, a, _) = split_run((grid, a, space), _drift, kick, _sample, dt, dt, dt)
    return grid, a


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
    snapshot=None,
):
    """Integrate the kinetic system; returns (TimeSeries, final grid).

    ``fields`` holds the initial mode amplitudes (a+, a-, b+, b-); the
    steady state by default.  ``snapshot(tau, grid)``, if given, is called
    as each snapshot is taken: from tau = 0, every ``snapshot_every`` and
    at the last step (None: at the last step only).  Its grid is the run's
    own, valid only during the call (the next step overwrites its f), so a
    snapshot to keep must be copied; the run keeps none.  ``grid``, the
    initial state, is not modified.  The kinetic_energy diagnostic is per
    particle, matching the N-body TimeSeries convention.  A step that
    diverges raises IntegrationDivergedError carrying the time that step
    was to reach.
    """
    a = steady_state_fields(params) if fields is None else fields
    grid_snapshot = None if snapshot is None else lambda tau, state: snapshot(tau, state[0])
    with _Workspace() as space:
        # a grid made here goes into the run only, which drops it after the first step
        series, (final, _, _) = split_run(
            (make_grid(params, nx=nx, nv=nv, mean_u=mean_u, cosine_eps=cosine_eps)
             if grid is None else grid, a, space),
            _drift, functools.partial(_kick, params=params), _sample, t_end, sample_every, dt,
            snapshot_every, grid_snapshot)
    return series, final
