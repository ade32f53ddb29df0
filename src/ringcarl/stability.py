"""Linear stability of the homogeneous state.

The homogeneous steady state is unstable iff the dispersion function

    D(s) = delta^2 + (s+1)^2 + [(s+1) A - i delta S] I(s)

has a zero with Re(s) > 0.  The velocity integral over the Maxwellian,

    I(s) = [N u0^2 rho_r / (1 + delta^2)] * K(s),
    K(s) = integral F'(u) / (s + i u) du,

reduces to the plasma dispersion function Z (Faddeeva function):

    K(s) = (2 i / u_t^2) * (1 + zeta Z(zeta)),   zeta = i s / u_t,

which is entire in s, so the Landau continuation onto and past the
imaginary axis is automatic.  Only Im zeta >= 0 is needed (Re s >= 0),
and numpy is the only dependency:

* w(zeta) = Z / (i sqrt(pi)) is Weideman's rational series with N = 40,
  its coefficients from one FFT at import, summed by a numpy Horner loop.
  Each element of an array evaluation is a function of that element
  alone, whatever the array's length.
* For |zeta| >= 7, 1 + zeta Z comes from its asymptotic series
  -sum (2n-1)!! / (2 zeta^2)^n instead, so small u_t loses no digits to
  the cancellation in 1 + zeta Z.
* D, its rounding level and D' are written once, in _dispersion_values,
  from I(s) and I'(s) of one evaluation of 1 + zeta Z.  A scalar s is
  evaluated as a length-1 array: it returns a numpy scalar, bitwise the
  element of an array evaluation.

Unstable roots are searched on a closed contour: down the imaginary axis
from iR to -iR, then back along the semicircle |s| = R in Re s >= 0.

* Radius.  s^2 I(s) / prefactor depends on s / u_t only and is bounded by
  its sup on the imaginary axis, c* = 1.8227 (Phragmen-Lindelof).  With
  |delta^2 + (s+1)^2| >= |s|^2 + 1 - delta^2 this gives, per pump cell, a
  power of two R beyond which D has no zero in Re s >= 0 (Rouche).  A cell
  that no R up to 2^32 bounds gets a RuntimeError: the search always ends.
* Cached table.  I(s) on the contour samples depends only on the
  pump-free physics and R, so it is computed once and reused by every
  cell.  D is affine in (S, A), so the cells of one R are counted in
  chunks of 8: a few array passes over a (cells x 601) block give D, the
  zero-level check, the phase increments, the winding count and, for a
  count of one, the first contour moment.  The cost is per chunk, not per
  cell.
* Count and location.  The winding of D on the samples (refined where a
  phase step reaches pi/2) counts the unstable zeros; a point where |D| is
  at the rounding level of its terms, 1e-12 |delta^2 + (s+1)^2|, moves the
  axis slightly right.  The contour moments (1/2 pi i) oint s^k d(log D),
  summed from the increments of log D along the refined contour, locate
  every zero inside at once (Delves-Lyness): Newton's identities turn them
  into a polynomial whose roots start a Newton polish each, and the
  distinct roots must match the count.  A cell that needs refinement or an
  axis shift, or holds two or more zeros, takes this path on its own.
  There is no bisection.  The cold gas (u_t = 0) is solved as a quartic
  instead.
* Batches.  classify_regimes polishes every Newton start of a batch in one
  array Newton.  classify_regime, max_growth_rate and count_unstable_roots
  are batches of one, and a cell's result does not depend on the rest of
  its batch.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import DomainError, SystemParams, check_pump_split

__all__ = [
    "PumpPoint",
    "BoundaryCurve",
    "RegimeResult",
    "landau_integral",
    "dispersion",
    "dispersion_derivative",
    "max_growth_rate",
    "boundary_curve",
    "threshold_sc_a0",
    "carl_bound",
    "s_bgk",
    "classify_regime",
    "classify_regimes",
    "SearchStats",
    "count_unstable_roots",
    "WARM_GAS_UT",
]

WARM_GAS_UT = 20.0  # u_t at and above which the warm-gas closed forms apply


@dataclass(frozen=True)
class PumpPoint:
    """One (S, A) cell of the pump-parameter plane."""

    s_total: float
    a_asym: float

    def __post_init__(self):
        check_pump_split(self.s_total, self.a_asym)


@dataclass
class BoundaryCurve:
    """Marginal-stability samples (omega, S, A), one per retained omega."""

    omega: np.ndarray
    s_total: np.ndarray
    a_asym: np.ndarray


# ---------------------------------------------------------------------------
# Plasma dispersion function, Im zeta >= 0
# ---------------------------------------------------------------------------

# w(z) = exp(-z^2) erfc(-i z) by Weideman's rational series (SIAM J. Numer.
# Anal. 31:1497, 1994), exact in form on the closed upper half-plane:
#   w(z) = 2 p(Z) / (L - i z)^2 + 1 / (sqrt(pi) (L - i z)),
#   Z = (L + i z) / (L - i z),  L = sqrt(N / sqrt(2)),
# with p of degree N - 1, its coefficients the Fourier coefficients of
# exp(-t^2) (L^2 + t^2), t = L tan(phi / 2), taken by one FFT.
_W_TERMS = 40
_W_L = math.sqrt(_W_TERMS / math.sqrt(2.0))
_SQRT_PI = math.sqrt(math.pi)
_INV_SQRT_PI = 1.0 / _SQRT_PI
# |zeta| from which 1 + zeta Z is summed from its asymptotic series
_ASYMPTOTIC_ZETA = 7.0


def _weideman_coefficients(n: int, scale: float) -> np.ndarray:
    """The n coefficients of Weideman's p, highest power first (Horner)."""
    m = 2 * n
    t = scale * np.tan(np.arange(1 - m, m) * np.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t * t) * (scale**2 + t * t)])
    return np.fft.fft(np.fft.fftshift(f)).real[n:0:-1] / (2 * m)


_W_COEFFS = _weideman_coefficients(_W_TERMS, _W_L)


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """w(z) on an array with Im z >= 0."""
    lz = _W_L - 1j * z
    zz = (_W_L + 1j * z) / lz
    p = np.full(zz.shape, _W_COEFFS[0], dtype=complex)
    for c in _W_COEFFS[1:]:
        # out of place: numpy rounds an in-place p *= zz on a length-1 array
        # differently, and each element must not depend on the array's length
        p = p * zz + c
    return (2.0 * p / lz + _INV_SQRT_PI) / lz


def _asymptotic_response(zeta: np.ndarray):
    """1 + zeta Z and its zeta-derivative on an array, |zeta| >= 7, Im zeta >= 0.

    1 + zeta Z ~ -sum_{n>=1} t_n, t_n = (2n-1)!! / (2 zeta^2)^n (Fried &
    Conte 1961), with no exponential term in the upper half-plane; term by
    term, d/dzeta (1 + zeta Z) ~ (2 / zeta) sum n t_n.  |t_n / t_1| is at
    most the same ratio at |zeta| = 7, so every element takes the terms that
    bring that below rounding, or all that still fall.
    """
    x = 0.5 / (zeta * zeta)
    x_r = 0.5 / (_ASYMPTOTIC_ZETA * _ASYMPTOTIC_ZETA)
    term = -x
    g, dg = term, term
    n, ratio = 1, 1.0
    while ratio > 1e-17 and (2 * n + 1) * x_r < 1.0:
        ratio *= (2 * n + 1) * x_r
        term = term * ((2 * n + 1) * x)
        n += 1
        g = g + term
        dg = dg + n * term
    return g, -2.0 * dg / zeta


def _response(zeta: np.ndarray):
    """1 + zeta Z(zeta) and its zeta-derivative on an array, Im zeta >= 0."""
    shape = np.shape(zeta)
    zeta = np.reshape(zeta, -1)
    z = 1j * _SQRT_PI * _faddeeva(zeta)  # Z(zeta)
    g = 1.0 + zeta * z
    dg = z - 2.0 * zeta * g  # Z' = -2 (1 + zeta Z)
    big = np.abs(zeta) >= _ASYMPTOTIC_ZETA
    if big.any():
        g[big], dg[big] = _asymptotic_response(zeta[big])
    return g.reshape(shape), dg.reshape(shape)


def _landau_prefactor(params: SystemParams) -> float:
    return params.n_particles * params.u0**2 * params.rho_r / (1.0 + params.delta**2)


def _landau_pair(s, params: SystemParams):
    """I(s) and I'(s) on an array s, Re(s) >= 0.

    I(s) = pref (2i / u_t^2) (1 + zeta Z), zeta = i s / u_t, so both come
    from one evaluation of 1 + zeta Z; the cold gas gives pref i / s^2.
    """
    s = np.asarray(s, dtype=complex)
    if np.any(s.real < -1e-15):
        raise DomainError("landau_integral requires Re(s) >= 0")
    pref = _landau_prefactor(params)
    if params.u_t == 0.0:
        return pref * 1j / s**2, pref * (-2j) / s**3
    g, dg = _response(1j * s / params.u_t)
    k = 2j * pref / params.u_t**2
    return k * g, k * dg * (1j / params.u_t)


def landau_integral(s, params: SystemParams):
    """Landau-continued velocity integral I(s), Re(s) >= 0.

    Vectorized over s.  For u_t = 0 the cold-gas limit i/s^2 (times the
    prefactor) is returned.
    """
    return _landau_pair(s, params)[0]


_ZERO_LEVEL = 1e-12  # |D| below this times |delta^2 + (s+1)^2| is a zero


def _dispersion_values(s, i_s, di_s, a_asym, s_total, delta: float):
    """D(s), its rounding level and D'(s), given I(s) and I'(s).

    |D| at or below the level is D = 0 up to rounding: the pumped term then
    cancels the free one, delta^2 + (s+1)^2, so both have its size.  A and S
    are numbers, or arrays that broadcast against s.
    """
    s1 = s + 1.0
    free = delta**2 + s1**2
    coupling = s1 * a_asym - 1j * delta * s_total
    d_prime = 2.0 * s1 + a_asym * i_s + coupling * di_s
    return free + coupling * i_s, _ZERO_LEVEL * np.abs(free), d_prime


def _dispersion_at(s, point: PumpPoint, params: SystemParams):
    """_dispersion_values at s, a number or an array; a number is evaluated
    as a length-1 array, so it matches the array path bitwise."""
    s = np.asarray(s, dtype=complex)
    flat = s.reshape(-1)
    values = _dispersion_values(flat, *_landau_pair(flat, params),
                                point.a_asym, point.s_total, params.delta)
    return [v.reshape(s.shape)[()] for v in values]


def dispersion(s, point: PumpPoint, params: SystemParams):
    """D(s) = delta^2 + (s+1)^2 + [(s+1) A - i delta S] I(s), Re(s) >= 0."""
    return _dispersion_at(s, point, params)[0]


def dispersion_derivative(s, point: PumpPoint, params: SystemParams):
    """D'(s), with I(s) and I'(s) from one evaluation of 1 + zeta Z."""
    return _dispersion_at(s, point, params)[2]


# ---------------------------------------------------------------------------
# Right-half-plane root counting and polishing
# ---------------------------------------------------------------------------

# sup |s^2 I(s)| / prefactor over Re s >= 0 for the Maxwellian.  s^2 K(s)
# depends on s / u_t only and is bounded and analytic there, so by
# Phragmen-Lindelof the sup is reached on the imaginary axis: 1.822657...
# at |s| = 1.6505 u_t (dense axis sample, see tests), rounded up.
_G_SUP = 1.8227
# Contour samples on the imaginary axis (iR -> -iR; even, so s = 0 is one:
# for u_t below the spacing, D winds once within |s| ~ u_t of 0, and that
# sample makes the phase refinement see it) and on the semicircle.
_N_AXIS = 500
_N_ARC = 100
_AXIS_SHIFTS = (0.0, 1e-7, 1e-5)  # axis offsets (units of R) retried on a zero
_CHUNK = 8  # cells per array pass: 8 x 601 doubles (38 kB) stay under malloc's mmap threshold
# The largest search radius.  At a radius R that meets the Rouche bound,
# |D| < R^2 + (R+1)^2 + (2 / _G_SUP) (R^4 + R^2) / u_t^2 on the contour,
# because |I(s)| <= 2 pref / u_t^2 (|1 + zeta Z| <= 1 for Im zeta >= 0); so
# up to 2^32 the contour pass's |D|^2 stays finite for every u_t above 1e-57.
_MAX_RADIUS = 2.0**32


def _search_radii(points, params: SystemParams) -> list:
    """Power of two R per cell with no zero of D in Re s >= 0, |s| >= R (Rouche).

    In Re s >= 0, |delta^2 + (s+1)^2| >= |s|^2 + 1 - delta^2 and
    |I(s)| <= _G_SUP * pref / |s|^2, so D != 0 wherever
    _G_SUP pref (|A| (r+1) + |delta| S) < r^2 (r^2 + 1 - delta^2), r = |s|,
    r^2 > delta^2.  The ratio of the two sides grows with r there, so the
    first power of two that satisfies it bounds every unstable zero.  A cell
    that no power of two up to _MAX_RADIUS bounds gets a RuntimeError.
    """
    bound = _G_SUP * _landau_prefactor(params)
    d2 = params.delta**2
    a = np.abs([p.a_asym for p in points])
    load = abs(params.delta) * np.array([p.s_total for p in points], dtype=float)
    r, short = np.ones(a.shape), np.ones(a.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # a term that overflows bounds nothing
        while short.any():
            short = (r <= _MAX_RADIUS) & ~(
                (r * r > d2) & (bound * (a * (r + 1.0) + load) < r * r * (r * r + 1.0 - d2)))
            r[short] *= 2.0
    return [x if x <= _MAX_RADIUS else RuntimeError(
        f"no search radius up to {_MAX_RADIUS:g} bounds the unstable zeros") for x in r.tolist()]


@functools.lru_cache(maxsize=64)
def _contour_table(physics: SystemParams, radius: float, shift: float):
    """Closed contour samples s with I(s) and I'(s), shared by every pump cell.

    The contour runs down the line Re s = shift * radius from i radius to
    -i radius, then back along the semicircle |s| = radius in Re s >= 0;
    the last sample repeats the first.  ``physics`` carries no pump, so one
    table serves a whole sweep.
    """
    t = np.linspace(1.0, -1.0, _N_AXIS, endpoint=False)
    theta = np.linspace(-0.5 * np.pi, 0.5 * np.pi, _N_ARC, endpoint=False)
    s = np.concatenate(
        [radius * (shift + 1j * t), radius * np.exp(1j * theta), [radius * (shift + 1j)]]
    )
    table = (s, *_landau_pair(s, physics))
    for arr in table:
        arr.flags.writeable = False
    return table


def _refined_contour(fun, pts, vals, levels, max_depth: int = 24):
    """The closed polygon `pts` (pts[-1] == pts[0]), refined for fun.

    ``fun`` returns f and its rounding level at an array of points; `vals`
    and `levels` hold them at `pts`.  Segments whose phase increment
    reaches pi/2 are bisected, up to max_depth times, until every increment
    is below pi/2, which puts each on the continuous branch.  Returns the
    refined points, f there and the phase increments between them.  Raises
    RuntimeError if f is within its rounding level of zero at a point, or
    if refinement bottoms out.
    """
    if (np.abs(vals) <= levels).any():
        raise RuntimeError("contour hit a zero of D")
    for depth in range(max_depth + 1):
        dphi = np.angle(vals[1:] / vals[:-1])
        bad = np.flatnonzero(np.abs(dphi) >= np.pi / 2)
        if bad.size == 0:
            return pts, vals, dphi
        if depth == max_depth:
            break
        mid = 0.5 * (pts[bad] + pts[bad + 1])
        f_mid, level_mid = fun(mid)
        if (np.abs(f_mid) <= level_mid).any():
            raise RuntimeError("contour hit a zero of D")
        pts = np.insert(pts, bad + 1, mid)
        vals = np.insert(vals, bad + 1, f_mid)
    raise RuntimeError("contour too close to a zero of D")


def _newton_polish(s0, a_asym, s_total, radius, params: SystemParams,
                   tol=1e-12, max_iter=60):
    """Newton roots from the starts s0, each in the open half-disc Re s > 0,
    |s| < radius of its cell; every argument but params is an array.

    Each start is polished on its own, all of them in one array pass per
    step.  An iterate that lands at Re s < 0 is moved onto the imaginary
    axis, where I(s) is still defined.  A polish fails when an iterate
    leaves the disc, where no unstable zero lies, when D' = 0 there, when it
    does not converge within max_iter steps, or when it converges outside
    the open half-disc.  It has converged when a step is below tol, or below
    sqrt(tol) and no shorter than the one before (the steps then follow the
    rounding noise of D, e.g. for u_t << |s|).  Returns the roots, NaN where
    the polish failed, and the number of steps each took.
    """
    s = np.array(s0, dtype=complex)
    roots = np.full(s.shape, complex(np.nan, np.nan))
    steps = np.zeros(s.shape, dtype=int)
    prev = np.full(s.shape, np.inf)
    live = np.arange(s.size)
    for k in range(1, max_iter + 1):
        if live.size == 0:
            break
        z = s[live]
        z.real[z.real < 0.0] = 0.0
        keep = np.abs(z) < radius[live]
        live, z = live[keep], z[keep]
        f, _, df = _dispersion_values(z, *_landau_pair(z, params), a_asym[live], s_total[live],
                                      params.delta)
        keep = df != 0
        live, z = live[keep], z[keep]
        step = f[keep] / df[keep]
        z = z - step
        size = np.abs(step)
        scale = np.maximum(1.0, np.abs(z))
        done = (size < tol * scale) | ((prev[live] <= size) & (size < np.sqrt(tol) * scale))
        good = done & (z.real > 0.0) & (np.abs(z) < radius[live])
        roots[live[good]] = z[good]
        steps[live[good]] = k
        s[live], prev[live] = z, size
        live = live[~done]
    return roots, steps


def _cold_roots(point: PumpPoint, params: SystemParams) -> np.ndarray:
    """All roots of D for u_t = 0, where D * s^2 is a quartic in s.

    The cold integral i/s^2 puts a pole of D at s = 0 directly on the
    contour used by the argument-principle search, so the cold case is
    solved as a polynomial instead.
    """
    pref = _landau_prefactor(params)
    d = params.delta
    a, s_tot = point.a_asym, point.s_total
    poly = np.array(
        [1.0, 2.0, 1.0 + d**2, 1j * a * pref, 1j * a * pref + d * s_tot * pref],
        dtype=complex,
    )
    return np.roots(poly)


def _contour_count(point: PumpPoint, params: SystemParams, radius: float):
    """Zeros of D inside the cached half-disc contour, one cell.

    Returns (count, polygon, D on polygon, phase increments of D) on the
    first axis offset whose winding is unambiguous, where the polygon is
    the contour refined by the count.
    """
    physics = replace(params, s_total=0.0, a_asym=0.0)

    def fun(z, *pair):  # pair: I and I' at z where the cached table has them
        return _dispersion_values(z, *(pair or _landau_pair(z, params)),
                                  point.a_asym, point.s_total, params.delta)[:2]

    for shift in _AXIS_SHIFTS:
        s, *pair = _contour_table(physics, radius, shift)
        try:
            poly, d_poly, dphi = _refined_contour(fun, s, *fun(s, *pair))
        except RuntimeError:
            continue
        return int(round(dphi.sum() / (2.0 * np.pi))), poly, d_poly, dphi
    raise RuntimeError("argument-principle count failed repeatedly")


def _cell_starts(point: PumpPoint, params: SystemParams, radius: float):
    """Winding count and Newton starts of one cell on its refined contour.

    The power sums p_k = (1/2 pi i) oint s^k d(log D), k = 1..count, are the
    sums of the k-th powers of the zeros inside the contour (Delves-Lyness).
    They are summed along the refined polygon of the count, on whose
    segments log D stays on one branch, so a zero of D close to the contour
    is resolved.  Newton's identities turn them into the monic polynomial
    whose roots are those zeros.
    """
    count, poly, d_poly, dphi = _contour_count(point, params, radius)
    dlog = np.diff(np.log(np.abs(d_poly))) + 1j * dphi
    sums, w = [], poly
    for _ in range(count):
        sums.append(np.sum((w[1:] + w[:-1]) * dlog) / (4j * np.pi))
        w = poly * w
    if count <= 1:
        return count, sums  # np.roots would turn a zero imaginary part into -0.0
    coeffs = [1.0]
    for k in range(1, count + 1):
        coeffs.append(-sum(c * p for c, p in zip(coeffs, sums[k - 1::-1])) / k)
    return count, list(np.roots(coeffs))


def _chunk_starts(points, params: SystemParams, radius: float) -> list:
    """_cell_starts for the cells of one search radius, in array passes.

    The pump-free terms of D on the contour at axis offset 0 are formed
    once; then, on a (cells x contour) block of _CHUNK cells at a time, in
    real arithmetic: D = free + A (s+1) I - i delta S I, the zero-level
    check, the phase increments and winding count, and p_1 for a count of
    1.  A cell whose contour hits the zero level, needs refinement, or
    whose count is not 0 or 1, goes through _cell_starts.  Each row depends
    on its cell alone.  Returns per cell (count, starts, took _cell_starts)
    or the RuntimeError of a failed count.
    """
    s, i_s, _ = _contour_table(replace(params, s_total=0.0, a_asym=0.0), radius, 0.0)
    s1 = s + 1.0
    free = params.delta**2 + s1**2
    u, v = s1 * i_s, -1j * params.delta * i_s  # D = free + A u + S v
    level2 = (_ZERO_LEVEL * np.abs(free)) ** 2
    # p_1 = (1 / 4 pi i) sum w_j (dlog|D| + i dphi)_j, w_j = s_j + s_j+1, with
    # dlog|D| = d(log |D|^2) / 2
    w = s[1:] + s[:-1]
    out = [None] * len(points)
    for lo in range(0, len(points), _CHUNK):
        chunk = points[lo:lo + _CHUNK]
        a = np.array([[p.a_asym] for p in chunk])
        s_tot = np.array([[p.s_total] for p in chunk])
        d_re = free.real + a * u.real + s_tot * v.real
        d_im = free.imag + a * u.imag + s_tot * v.imag
        mag2 = d_re * d_re + d_im * d_im
        clear = (mag2 > level2).all(axis=1)
        # phase of D[j+1] / D[j] from D[j+1] conj(D[j])
        dphi = np.arctan2(d_im[:, 1:] * d_re[:, :-1] - d_re[:, 1:] * d_im[:, :-1],
                          d_re[:, 1:] * d_re[:, :-1] + d_im[:, 1:] * d_im[:, :-1])
        count = np.rint(dphi.sum(axis=1) / (2.0 * np.pi))
        simple = clear & (np.abs(dphi) < np.pi / 2).all(axis=1)
        one = simple & (count == 1)
        dl2, ph = np.diff(np.log(mag2[one]), axis=1), dphi[one]
        p1_re = (0.5 * w.imag * dl2 + w.real * ph).sum(axis=1) / (4.0 * np.pi)
        p1_im = (w.imag * ph - 0.5 * w.real * dl2).sum(axis=1) / (4.0 * np.pi)
        for i, re, im in zip(np.flatnonzero(one).tolist(), p1_re.tolist(), p1_im.tolist()):
            out[lo + i] = (1, [complex(re, im)], False)
        for i in np.flatnonzero(simple & (count == 0)).tolist():
            out[lo + i] = (0, [], False)
    for i, point in enumerate(points):
        if out[i] is None:
            try:
                out[i] = (*_cell_starts(point, params, radius), True)
            except RuntimeError as exc:
                out[i] = exc
    return out


@dataclass
class SearchStats:
    """Root-search counts, summed over the cells of the batches they see."""

    refined: int = 0                # cells that took the per-cell contour path
    polished: int = 0               # Newton polishes that converged to a root
    max_newton_iterations: int = 0  # the most Newton steps any root took


def _search(points, params: SystemParams, stats: SearchStats | None = None) -> list:
    """Distinct zeros of D in the open right half-plane of each cell.

    Cells are grouped by search radius and counted in chunks of _CHUNK
    (_chunk_starts); then every Newton start of the batch is polished in
    one array Newton, and the number of distinct polished roots of each
    cell must equal its winding count.  Returns per cell a list of roots
    or the RuntimeError of its failed search; neither depends on the other
    cells of the batch.  The cold gas (u_t = 0) solves each cell's quartic.
    """
    if params.u_t == 0.0:
        return [[complex(r) for r in _cold_roots(p, params) if r.real > 0] for p in points]
    radii = _search_radii(points, params)
    found = [None] * len(points)
    groups: dict[float, list[int]] = {}
    for i, r in enumerate(radii):
        if isinstance(r, Exception):
            found[i] = r
        else:
            groups.setdefault(r, []).append(i)
    for radius, cells in groups.items():
        for i, res in zip(cells, _chunk_starts([points[i] for i in cells], params, radius)):
            found[i] = res
    starts = [(i, z) for i, f in enumerate(found) if not isinstance(f, Exception) for z in f[1]]
    roots, steps = _newton_polish(
        [z for _, z in starts],
        np.array([points[i].a_asym for i, _ in starts]),
        np.array([points[i].s_total for i, _ in starts]),
        np.array([radii[i] for i, _ in starts]),
        params,
    )
    if stats is not None:
        stats.refined += sum(not isinstance(f, Exception) and f[2] for f in found)
        stats.polished += int(np.count_nonzero(steps))
        stats.max_newton_iterations = max(stats.max_newton_iterations, int(steps.max(initial=0)))
    roots = iter(roots.tolist())
    out = []
    for f in found:
        if not isinstance(f, Exception):
            count, cell_starts, _ = f
            distinct = []
            for r in itertools.islice(roots, len(cell_starts)):
                if not math.isnan(r.real) and all(abs(r - q) > 1e-9 * max(1.0, abs(q))
                                                  for q in distinct):
                    distinct.append(r)
            f = distinct if len(distinct) == count else RuntimeError(
                f"found {len(distinct)} distinct unstable roots for a winding count of {count}")
        out.append(f)
    return out


def _one(result):
    """A batch-of-one result, raising the cell's exception."""
    if isinstance(result, Exception):
        raise result
    return result


def _unstable_roots(point: PumpPoint, params: SystemParams) -> list[complex]:
    """Distinct zeros of D in the open right half-plane (a batch of one)."""
    return _one(_search([point], params)[0])


def count_unstable_roots(point: PumpPoint, params: SystemParams) -> int:
    """Number of distinct zeros of D in the open right half-plane."""
    return len(_unstable_roots(point, params))


def max_growth_rate(point: PumpPoint, params: SystemParams) -> complex | None:
    """Dominant unstable root of D, or None if the state is stable.

    Every unstable zero lies in the half-disc |s| < R of _search_radii.
    They are counted by the argument principle on the half-disc contour,
    located and Newton-polished; the one with the largest real part is
    returned.
    """
    return max(_unstable_roots(point, params), key=lambda r: r.real, default=None)


# ---------------------------------------------------------------------------
# Stability boundary and closed-form thresholds
# ---------------------------------------------------------------------------


def default_omega_grid(params: SystemParams, n: int = 2048) -> np.ndarray:
    """Symmetric omega grid, log-dense near 0, spanning the Doppler width."""
    w_max = 6.0 * max(1.0, params.u_t, abs(params.delta))
    half = np.geomspace(1e-4 * w_max, w_max, n // 2)
    return np.concatenate([-half[::-1], [0.0], half])


def boundary_curve(params: SystemParams, omega_grid: np.ndarray | None = None) -> BoundaryCurve:
    """Marginal curve: solve D(i omega) = 0 for (S, A) at each omega.

    D(i omega) = 0 splits into two real equations linear in (S, A), solved
    by Cramer's rule on the whole omega array; samples with a singular 2x2
    system, S < 0, or |A| > S are dropped.
    """
    if omega_grid is None:
        omega_grid = default_omega_grid(params)
    w = np.asarray(omega_grid, dtype=float)
    d = params.delta
    i_w = landau_integral(1j * w, params)
    c_s = -1j * d * i_w            # coefficient of S in D(i omega)
    c_a = (1.0 + 1j * w) * i_w     # coefficient of A
    b_re, b_im = -(d**2 + 1.0 - w**2), -2.0 * w
    det = c_s.real * c_a.imag - c_a.real * c_s.imag
    regular = np.abs(det) >= 1e-300
    det = np.where(regular, det, 1.0)
    s_val = (b_re * c_a.imag - c_a.real * b_im) / det
    a_val = (c_s.real * b_im - b_re * c_s.imag) / det
    keep = regular & (s_val >= 0) & (np.abs(a_val) <= s_val)
    return BoundaryCurve(w[keep], s_val[keep], a_val[keep])


def threshold_sc_a0(params: SystemParams) -> float:
    """Symmetric-pump instability threshold.

    S_c(A=0) = u_t^2 (1 + delta^2)^2 / (2 rho_r N u0^2 |delta|).
    """
    d = params.delta
    if d == 0:
        raise DomainError("threshold diverges at delta = 0")
    if params.u0 == 0:
        raise DomainError("threshold diverges at N u0 = 0")
    return (
        params.u_t**2
        * (1.0 + d**2) ** 2
        / (2.0 * params.rho_r * params.n_particles * params.u0**2 * abs(d))
    )


def carl_bound(params: SystemParams) -> float:
    """Asymmetry bound |A|/S above which no travelling-wave solution exists."""
    d = params.delta
    return abs(d) / math.sqrt(1.0 + d**2)


def s_bgk(params: SystemParams, a_asym: float) -> float:
    """Pump threshold for settling into a travelling (BGK) wave, warm gas.

    S_BGK = S_c(A=0) * [1 + (rho_r A N u0^2 / (u_t^2 sqrt(1+delta^2)))^2].
    Quantitatively valid for u_t >> 1 (warm gas).
    """
    if params.u_t == 0:
        raise DomainError("s_bgk requires a thermal gas (u_t > 0)")
    d = params.delta
    corr = (
        params.rho_r
        * a_asym
        * params.n_particles
        * params.u0**2
        / (params.u_t**2 * np.sqrt(1.0 + d**2))
    )
    return threshold_sc_a0(params) * (1.0 + corr**2)


@dataclass(frozen=True)
class RegimeResult:
    regime: str                 # 'stable' | 'bgk-ordered' | 'carl'
    growth: complex | None      # dominant root if unstable
    low_confidence: bool = False


def _regime(point: PumpPoint, params: SystemParams, root: complex | None) -> RegimeResult:
    """The label of a cell whose dominant unstable root is ``root``."""
    if root is None:
        return RegimeResult("stable", None)
    if point.s_total > 0 and abs(point.a_asym) / point.s_total > carl_bound(params):
        return RegimeResult("carl", root)
    if params.u_t >= WARM_GAS_UT:
        if point.s_total > s_bgk(params, point.a_asym):
            return RegimeResult("bgk-ordered", root)
        return RegimeResult("carl", root)
    return RegimeResult("bgk-ordered", root, low_confidence=True)


def classify_regimes(
    points, params: SystemParams, stats: SearchStats | None = None
) -> list:
    """Analytic phase-diagram classification of many pump points at once.

    stable: no right-half-plane root.  carl: unstable and either the
    asymmetry exceeds the travelling-wave bound or (warm gas) S stays below
    S_BGK.  bgk-ordered otherwise; for a cold gas the warm-gas S_BGK
    criterion does not apply and the label carries a low-confidence flag.
    Returns one RegimeResult per point, or the RuntimeError of a point whose
    root search failed; each is the same whatever else is in the batch.
    ``stats``, if given, gains the batch's root-search counts.
    """
    return [
        res if isinstance(res, Exception)
        else _regime(point, params, max(res, key=lambda r: r.real, default=None))
        for point, res in zip(points, _search(points, params, stats))
    ]


def classify_regime(point: PumpPoint, params: SystemParams) -> RegimeResult:
    """classify_regimes for one pump point; raises if its search fails."""
    return _one(classify_regimes([point], params)[0])
