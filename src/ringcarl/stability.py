"""Linear stability of the homogeneous state.

The homogeneous steady state is unstable iff the dispersion function

    D(s) = delta^2 + (s+1)^2 + [(s+1) A - i delta S] I(s)

has a zero with Re(s) > 0.  The velocity integral over the Maxwellian,

    I(s) = [N u0^2 rho_r / (1 + delta^2)] * K(s),
    K(s) = integral F'(u) / (s + i u) du,

reduces to the plasma dispersion function Z (Faddeeva function):

    K(s) = (2 i / u_t^2) * (1 + zeta Z(zeta)),   zeta = i s / u_t,

which is entire in s, so the Landau continuation onto and past the
imaginary axis is automatic.

Unstable roots are searched on a closed contour: down the imaginary axis
from iR to -iR, then back along the semicircle |s| = R in Re s >= 0.

* Radius.  s^2 I(s) / prefactor depends on s / u_t only and is bounded by
  its sup on the imaginary axis, c* = 1.8227 (Phragmen-Lindelof).  With
  |delta^2 + (s+1)^2| >= |s|^2 + 1 - delta^2 this gives, per pump cell, a
  power of two R beyond which D has no zero in Re s >= 0 (Rouche).
* Cached table.  I(s) on the contour samples depends only on the
  pump-free physics and R, so it is computed once and reused by every
  cell; D is affine in (S, A) and costs array arithmetic per cell.
* Count and location.  The winding of D on the samples (refined where a
  phase step reaches pi/2) counts the unstable zeros; a point where |D| is
  at the rounding level of its terms, 1e-12 |delta^2 + (s+1)^2|, moves the
  axis slightly right.  The contour moments (1/2 pi i) oint s^k d(log D),
  summed from the increments of log D along the refined contour, locate
  every zero inside at once (Delves-Lyness): Newton's identities turn them
  into a polynomial whose roots start a Newton polish each, and the
  distinct roots must match the count.  There is no bisection.  The cold
  gas (u_t = 0) is solved as a quartic instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import wofz

from .core import DomainError, SystemParams

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
        if not (np.isfinite(self.s_total) and np.isfinite(self.a_asym)):
            raise DomainError(f"S and A must be finite, got {self.s_total}, {self.a_asym}")
        if self.s_total < 0:
            raise DomainError(f"S must be >= 0, got {self.s_total}")
        if abs(self.a_asym) > self.s_total * (1 + 1e-12):
            raise DomainError(f"|A| = {abs(self.a_asym)} exceeds S = {self.s_total}")


@dataclass
class BoundaryCurve:
    """Marginal-stability samples (omega, S, A), one per retained omega."""

    omega: np.ndarray
    s_total: np.ndarray
    a_asym: np.ndarray

    def __len__(self) -> int:
        return self.omega.size


def _plasma_z(zeta: np.ndarray | complex) -> np.ndarray | complex:
    """Plasma dispersion function Z(zeta) = i sqrt(pi) w(zeta), entire."""
    return 1j * np.sqrt(np.pi) * wofz(zeta)


def _landau_prefactor(params: SystemParams) -> float:
    return params.n_particles * params.u0**2 * params.rho_r / (1.0 + params.delta**2)


def landau_integral(s, params: SystemParams):
    """Landau-continued velocity integral I(s), Re(s) >= 0.

    Vectorized over s.  For u_t = 0 the cold-gas limit i/s^2 (times the
    prefactor) is returned.
    """
    s = np.asarray(s, dtype=complex)
    if np.any(s.real < -1e-15):
        raise DomainError("landau_integral requires Re(s) >= 0")
    pref = _landau_prefactor(params)
    if params.u_t == 0.0:
        return pref * 1j / s**2
    zeta = 1j * s / params.u_t
    k = (2j / params.u_t**2) * (1.0 + zeta * _plasma_z(zeta))
    return pref * k


def _landau_kernel_derivative(s, params: SystemParams):
    """d/ds of landau_integral (analytic, for Newton polishing)."""
    s = np.asarray(s, dtype=complex)
    pref = _landau_prefactor(params)
    if params.u_t == 0.0:
        return pref * (-2j) / s**3
    zeta = 1j * s / params.u_t
    z = _plasma_z(zeta)
    # d/dzeta [zeta Z] = Z + zeta Z',  Z' = -2 (1 + zeta Z)
    dk_dzeta = (2j / params.u_t**2) * (z - 2.0 * zeta * (1.0 + zeta * z))
    return pref * dk_dzeta * (1j / params.u_t)


def _dispersion_terms(s, i_s, point: PumpPoint, delta: float):
    """The two terms of D(s), delta^2 + (s+1)^2 and [(s+1) A - i delta S] I(s)."""
    s1 = s + 1.0
    return delta**2 + s1**2, (s1 * point.a_asym - 1j * delta * point.s_total) * i_s


def dispersion(s, point: PumpPoint, params: SystemParams):
    """D(s) = delta^2 + (s+1)^2 + [(s+1) A - i delta S] I(s)."""
    s = np.asarray(s, dtype=complex)
    free, pumped = _dispersion_terms(s, landau_integral(s, params), point, params.delta)
    return free + pumped


def dispersion_derivative(s, point: PumpPoint, params: SystemParams):
    s = np.asarray(s, dtype=complex)
    return (
        2.0 * (s + 1.0)
        + point.a_asym * landau_integral(s, params)
        + ((s + 1.0) * point.a_asym - 1j * params.delta * point.s_total)
        * _landau_kernel_derivative(s, params)
    )


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
_ZERO_LEVEL = 1e-12  # |D| below this times |delta^2 + (s+1)^2| is a zero


def _dispersion_with_level(s, i_s, point: PumpPoint, delta: float):
    """D(s) given I(s), and its rounding level _ZERO_LEVEL |delta^2 + (s+1)^2|.

    |D| at or below that level is D = 0 up to rounding: the pumped term
    then cancels the free one, so both have the size of the free one.
    """
    free, pumped = _dispersion_terms(s, i_s, point, delta)
    return free + pumped, _ZERO_LEVEL * np.abs(free)


def _search_radius(point: PumpPoint, params: SystemParams) -> float:
    """Power of two R with no zero of D in Re s >= 0, |s| >= R (Rouche).

    In Re s >= 0, |delta^2 + (s+1)^2| >= |s|^2 + 1 - delta^2 and
    |I(s)| <= _G_SUP * pref / |s|^2, so D != 0 wherever
    _G_SUP pref (|A| (r+1) + |delta| S) < r^2 (r^2 + 1 - delta^2), r = |s|,
    r^2 > delta^2.  The ratio of the two sides grows with r there, so the
    first power of two that satisfies it bounds every unstable zero.
    """
    bound = _G_SUP * _landau_prefactor(params)
    d2 = params.delta**2
    a, s_tot = abs(point.a_asym), point.s_total
    r = 1.0
    while not (r * r > d2 and bound * (a * (r + 1.0) + abs(params.delta) * s_tot)
               < r * r * (r * r + 1.0 - d2)):
        r *= 2.0
    return r


@functools.lru_cache(maxsize=64)
def _contour_table(physics: SystemParams, radius: float, shift: float):
    """Closed contour samples s with I(s), shared by every pump cell.

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
    table = (s, landau_integral(s, physics))
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


def _newton_polish(fun, dfun, s0, radius, tol=1e-12, max_iter=60):
    """Newton root in the open half-disc Re s > 0, |s| < radius, or None.

    An iterate that lands at Re s < 0 is moved onto the imaginary axis,
    where I(s) is still defined.  The polish fails when an iterate leaves
    the disc, where no unstable zero lies, when it does not converge within
    max_iter steps, or when it converges outside the open half-disc.  It
    has converged when a step is below tol, or below sqrt(tol) and no
    shorter than the one before (the steps then follow the rounding noise
    of D, e.g. for u_t << |s|).
    """
    s = complex(s0)
    prev = np.inf
    for _ in range(max_iter):
        if s.real < 0.0:
            s = complex(0.0, s.imag)
        if abs(s) >= radius:
            return None
        df = complex(dfun(s))
        if df == 0:
            return None
        step = complex(fun(s)) / df
        s -= step
        scale = max(1.0, abs(s))
        if abs(step) < tol * scale or prev <= abs(step) < np.sqrt(tol) * scale:
            return s if s.real > 0.0 and abs(s) < radius else None
        prev = abs(step)
    return None


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
    """Zeros of D inside the cached half-disc contour.

    Returns (count, polygon, D on polygon, phase increments of D) on the
    first axis offset whose winding is unambiguous, where the polygon is
    the contour refined by the count.
    """
    physics = replace(params, eta_plus=0j, eta_minus=0j, seed=0)

    def fun(z):
        return _dispersion_with_level(z, landau_integral(z, params), point, params.delta)

    for shift in _AXIS_SHIFTS:
        s, i_s = _contour_table(physics, radius, shift)
        try:
            poly, d_poly, dphi = _refined_contour(
                fun, s, *_dispersion_with_level(s, i_s, point, params.delta)
            )
        except RuntimeError:
            continue
        return int(round(dphi.sum() / (2.0 * np.pi))), poly, d_poly, dphi
    raise RuntimeError("argument-principle count failed repeatedly")


def _unstable_roots(point: PumpPoint, params: SystemParams) -> list[complex]:
    """Distinct zeros of D in the open right half-plane, warm gas.

    The power sums p_k = (1/2 pi i) oint s^k d(log D), k = 1..count, are the
    sums of the k-th powers of the zeros inside the contour (Delves-Lyness).
    They are summed along the refined polygon of the count, on whose
    segments log D stays on one branch, so a zero of D close to the contour
    is resolved.  Newton's identities turn them into the monic polynomial
    whose roots are those zeros; each root starts a Newton polish, and the
    number of distinct polished roots must equal the winding count.
    """
    radius = _search_radius(point, params)
    count, poly, d_poly, dphi = _contour_count(point, params, radius)
    if count == 0:
        return []
    dlog = np.diff(np.log(np.abs(d_poly))) + 1j * dphi
    sums, w = [], poly
    for _ in range(count):
        sums.append(np.sum((w[1:] + w[:-1]) * dlog) / (4j * np.pi))
        w = poly * w
    if count == 1:
        starts = sums  # np.roots would turn a zero imaginary part into -0.0
    else:
        coeffs = [1.0]
        for k in range(1, count + 1):
            coeffs.append(-sum(c * p for c, p in zip(coeffs, sums[k - 1::-1])) / k)
        starts = np.roots(coeffs)
    roots = []
    for start in starts:
        r = _newton_polish(
            lambda z: dispersion(z, point, params),
            lambda z: dispersion_derivative(z, point, params),
            start, radius,
        )
        if r is not None and all(abs(r - q) > 1e-9 * max(1.0, abs(q)) for q in roots):
            roots.append(r)
    if len(roots) != count:
        raise RuntimeError(
            f"found {len(roots)} distinct unstable roots for a winding count of {count}"
        )
    return roots


def _cold_unstable_roots(point: PumpPoint, params: SystemParams) -> list[complex]:
    """The roots of the cold-gas quartic in the open right half-plane."""
    return [complex(r) for r in _cold_roots(point, params) if r.real > 0]


def count_unstable_roots(point: PumpPoint, params: SystemParams) -> int:
    """Number of zeros of D in the open right half-plane."""
    if params.u_t == 0.0:
        return len(_cold_unstable_roots(point, params))
    return _contour_count(point, params, _search_radius(point, params))[0]


def max_growth_rate(point: PumpPoint, params: SystemParams) -> complex | None:
    """Dominant unstable root of D, or None if the state is stable.

    Every unstable zero lies in the half-disc |s| < R of _search_radius.
    They are counted by the argument principle on the half-disc contour,
    located and Newton-polished; the one with the largest real part is
    returned.
    """
    if params.u_t == 0.0:
        roots = _cold_unstable_roots(point, params)
    else:
        roots = _unstable_roots(point, params)
    return max(roots, key=lambda r: r.real, default=None)


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
    return (
        params.u_t**2
        * (1.0 + d**2) ** 2
        / (2.0 * params.rho_r * params.n_particles * params.u0**2 * abs(d))
    )


def carl_bound(params: SystemParams) -> float:
    """Asymmetry bound |A|/S above which no travelling-wave solution exists."""
    d = params.delta
    return abs(d) / np.sqrt(1.0 + d**2)


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


def classify_regime(point: PumpPoint, params: SystemParams) -> RegimeResult:
    """Analytic phase-diagram classification of one pump point.

    stable: no right-half-plane root.  carl: unstable and either the
    asymmetry exceeds the travelling-wave bound or (warm gas) S stays below
    S_BGK.  bgk-ordered otherwise; for a cold gas the warm-gas S_BGK
    criterion does not apply and the label carries a low-confidence flag.
    """
    root = max_growth_rate(point, params)
    if root is None:
        return RegimeResult("stable", None)
    if point.s_total > 0 and abs(point.a_asym) / point.s_total > carl_bound(params):
        return RegimeResult("carl", root)
    if params.u_t >= WARM_GAS_UT:
        if point.s_total > s_bgk(params, point.a_asym):
            return RegimeResult("bgk-ordered", root)
        return RegimeResult("carl", root)
    return RegimeResult("bgk-ordered", root, low_confidence=True)
