"""Linear stability of the homogeneous state.

The homogeneous steady state is unstable iff the dispersion function

    D(s) = delta^2 + (s+1)^2 + [(s+1) A - i delta S] I(s)

has a zero with Re(s) > 0.  The velocity integral over the Maxwellian,

    I(s) = [N u0^2 rho_r / (1 + delta^2)] * K(s),
    K(s) = integral F'(u) / (s + i u) du,

reduces to the plasma dispersion function Z (Faddeeva function):

    K(s) = (2 i / u_t^2) * (1 + zeta Z(zeta)),   zeta = i s / u_t,

which is entire in s, so the Landau continuation onto and past the
imaginary axis is automatic.  An adaptive-quadrature evaluation (valid for
Re s > 0 only) is kept as an independent oracle and as the fallback for
non-Maxwellian velocity distributions.

Unstable roots are searched on a closed contour: down the imaginary axis
from iR to -iR, then back along the semicircle |s| = R in Re s >= 0.

* Radius.  s^2 I(s) / prefactor depends on s / u_t only and is bounded by
  its sup on the imaginary axis, c* = 1.8227 (Phragmen-Lindelof).  With
  |delta^2 + (s+1)^2| >= |s|^2 + 1 - delta^2 this gives, per pump cell, a
  power of two R beyond which D has no zero in Re s >= 0 (Rouche).
* Cached table.  I(s) and I'(s) on the contour samples depend only on the
  pump-free physics and R, so they are computed once and reused by every
  cell; D is affine in (S, A) and costs array arithmetic per cell.
* Count and location.  The winding of D on the samples (refined where a
  phase step reaches pi/2) counts the unstable zeros.  A single zero is
  started from the contour moment (1/2 pi i) oint s D'/D ds and
  Newton-polished; more zeros, or a failed polish, fall back to rectangle
  bisection inside the same disc, and the distinct roots found must match
  the count.  The cold gas (u_t = 0) is solved as a quartic instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate
from scipy.special import wofz

from .core import DomainError, SystemParams

__all__ = [
    "PumpPoint",
    "BoundaryCurve",
    "RegimeResult",
    "landau_integral",
    "landau_integral_quadrature",
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


def landau_integral_quadrature(
    s: complex, params: SystemParams, rel_tol: float = 1e-11
) -> complex:
    """Direct adaptive quadrature of the velocity integral, Re(s) > 0 only.

    Independent of the Faddeeva route; used as the accuracy oracle and as
    the fallback for non-Maxwellian distributions.
    """
    if params.u_t <= 0:
        raise DomainError("quadrature oracle needs a thermal distribution")
    if np.real(s) <= 0:
        raise DomainError("quadrature route valid only for Re(s) > 0")
    ut = params.u_t

    def fprime(u):
        return -2.0 * u * np.exp(-((u / ut) ** 2)) / (np.sqrt(np.pi) * ut**3)

    def integrand(u, part):
        val = fprime(u) / (s + 1j * u)
        return val.real if part == "re" else val.imag

    lim = 12.0 * ut + 4.0 * abs(s)
    re, _ = integrate.quad(
        integrand, -lim, lim, args=("re",), epsabs=0, epsrel=rel_tol, limit=400
    )
    im, _ = integrate.quad(
        integrand, -lim, lim, args=("im",), epsabs=0, epsrel=rel_tol, limit=400
    )
    return _landau_prefactor(params) * complex(re, im)


def _dispersion_from(s, i_s, point: PumpPoint, delta: float):
    """D(s) = delta^2 + (s+1)^2 + [(s+1) A - i delta S] I(s), given I(s)."""
    return delta**2 + (s + 1.0) ** 2 + ((s + 1.0) * point.a_asym - 1j * delta * point.s_total) * i_s


def _dispersion_derivative_from(s, i_s, di_s, point: PumpPoint, delta: float):
    """D'(s), given I(s) and I'(s)."""
    return (
        2.0 * (s + 1.0)
        + point.a_asym * i_s
        + ((s + 1.0) * point.a_asym - 1j * delta * point.s_total) * di_s
    )


def dispersion(s, point: PumpPoint, params: SystemParams):
    """D(s) = delta^2 + (s+1)^2 + [(s+1) A - i delta S] I(s)."""
    s = np.asarray(s, dtype=complex)
    return _dispersion_from(s, landau_integral(s, params), point, params.delta)


def dispersion_derivative(s, point: PumpPoint, params: SystemParams):
    s = np.asarray(s, dtype=complex)
    return _dispersion_derivative_from(
        s, landau_integral(s, params), _landau_kernel_derivative(s, params),
        point, params.delta,
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
    table = (s, landau_integral(s, physics), _landau_kernel_derivative(s, physics))
    for arr in table:
        arr.flags.writeable = False
    return table


def _winding_number(fun, corners, n0: int = 64, max_depth: int = 24) -> int:
    """Winding of fun along the closed rectangle through `corners`.

    ``fun`` takes an array of points.  Raises RuntimeError if refinement
    bottoms out (contour passing too close to a zero).
    """
    ts = np.linspace(0.0, 1.0, n0, endpoint=False)
    pts = np.concatenate(
        [a + (b - a) * ts for a, b in zip(corners, corners[1:] + corners[:1])]
        + [corners[:1]]
    )
    return _sampled_winding(fun, pts, fun(pts), max_depth)


def _sampled_winding(fun, pts, vals, max_depth: int = 24) -> int:
    """Winding of fun along the closed polygon `pts` (pts[-1] == pts[0]).

    ``vals`` holds fun at `pts`.  Segments whose phase increment reaches
    pi/2 are refined recursively until every increment is below pi/2, which
    guarantees an unambiguous branch.  Raises RuntimeError if refinement
    bottoms out.
    """
    if not np.all(vals):
        raise RuntimeError("contour hit a zero of D")
    dphi = np.angle(vals[1:] / vals[:-1])
    for k in np.flatnonzero(np.abs(dphi) >= np.pi / 2):
        dphi[k] = _phase_step(fun, pts[k], pts[k + 1], vals[k], vals[k + 1], max_depth)
    return int(round(dphi.sum() / (2.0 * np.pi)))


def _phase_step(fun, p0, p1, v0, v1, depth):
    if v0 == 0 or v1 == 0:
        raise RuntimeError("contour hit a zero of D")
    dphi = np.angle(v1 / v0)
    if abs(dphi) < np.pi / 2:
        return dphi
    if depth <= 0:
        raise RuntimeError("contour too close to a zero of D")
    pm = 0.5 * (p0 + p1)
    vm = fun(pm)
    return _phase_step(fun, p0, pm, v0, vm, depth - 1) + _phase_step(
        fun, pm, p1, vm, v1, depth - 1
    )


def _newton_polish(fun, dfun, s0, radius, tol=1e-12, max_iter=60):
    """Newton root from s0, or None if it fails.

    It fails when an iterate leaves the half-disc Re s >= 0, |s| < radius,
    where every unstable zero lies and I(s) is defined, or when it does
    not converge within max_iter steps.  It has converged when a step is
    below tol, or below sqrt(tol) and no shorter than the one before (the
    steps then follow the rounding noise of D, e.g. for u_t << |s|).
    """
    s = complex(s0)
    prev = np.inf
    for _ in range(max_iter):
        if not (s.real >= 0.0 and abs(s) < radius):
            return None
        df = complex(dfun(s))
        if df == 0:
            return None
        step = complex(fun(s)) / df
        s -= step
        scale = max(1.0, abs(s))
        if abs(step) < tol * scale or prev <= abs(step) < np.sqrt(tol) * scale:
            return s if s.real >= 0.0 and abs(s) < radius else None
        prev = abs(step)
    return None


def _find_roots_in_rect(fun, dfun, re_lo, re_hi, im_lo, im_hi, radius, depth=0):
    """Recursive rectangle subdivision by the argument principle.

    A count-1 rectangle is Newton-polished from its centre; if that fails
    or lands outside the rectangle, it is subdivided like a larger count.
    """
    corners = [
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
    ]
    for shrink in range(6):
        try:
            count = _winding_number(fun, corners)
            break
        except RuntimeError:
            # a zero (near-)on the contour: nudge the rectangle outward
            pad = 1e-3 * (1 + shrink) * max(re_hi - re_lo, im_hi - im_lo)
            re_hi += pad
            im_lo -= pad
            im_hi += pad
            corners = [
                complex(re_lo, im_lo),
                complex(re_hi, im_lo),
                complex(re_hi, im_hi),
                complex(re_lo, im_hi),
            ]
    else:
        raise RuntimeError("could not separate contour from zeros of D")
    if count == 0:
        return []
    centre = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
    small = max(re_hi - re_lo, im_hi - im_lo) < 1e-6
    if count == 1 or small or depth > 40:
        root = _newton_polish(fun, dfun, centre, radius)
        if small or depth > 40:
            return [centre if root is None else root]
        if root is not None and re_lo <= root.real <= re_hi and im_lo <= root.imag <= im_hi:
            return [root]
    if re_hi - re_lo >= im_hi - im_lo:
        mid = 0.5 * (re_lo + re_hi) + 1.2345e-7 * (re_hi - re_lo)
        return _find_roots_in_rect(fun, dfun, re_lo, mid, im_lo, im_hi, radius, depth + 1) + \
            _find_roots_in_rect(fun, dfun, mid, re_hi, im_lo, im_hi, radius, depth + 1)
    mid = 0.5 * (im_lo + im_hi) + 1.2345e-7 * (im_hi - im_lo)
    return _find_roots_in_rect(fun, dfun, re_lo, re_hi, im_lo, mid, radius, depth + 1) + \
        _find_roots_in_rect(fun, dfun, re_lo, re_hi, mid, im_hi, radius, depth + 1)


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

    Returns (count, shift, s, I, I', D) on the first axis offset whose
    winding is unambiguous.
    """
    physics = replace(params, eta_plus=0j, eta_minus=0j, seed=0)

    def fun(s):
        return dispersion(s, point, params)

    for shift in _AXIS_SHIFTS:
        s, i_s, di_s = _contour_table(physics, radius, shift)
        d = _dispersion_from(s, i_s, point, params.delta)
        try:
            return _sampled_winding(fun, s, d), shift, s, i_s, di_s, d
        except RuntimeError:
            continue
    raise RuntimeError("argument-principle count failed repeatedly")


def _unstable_roots(point: PumpPoint, params: SystemParams) -> list[complex]:
    """Distinct zeros of D in the open right half-plane, warm gas.

    A count of one is located from the first contour moment
    s1 = (1/2 pi i) oint s D'/D ds and Newton-polished; larger counts and
    failed polishes fall back to rectangle bisection inside the same disc.
    The number of distinct roots must equal the winding count.
    """
    radius = _search_radius(point, params)
    count, shift, s, i_s, di_s, d = _contour_count(point, params, radius)
    if count == 0:
        return []

    def fun(z):
        return dispersion(z, point, params)

    def dfun(z):
        return dispersion_derivative(z, point, params)

    root = None
    if count == 1:
        h = s * _dispersion_derivative_from(s, i_s, di_s, point, params.delta) / d
        s1 = np.sum((h[1:] + h[:-1]) * np.diff(s)) / (4j * np.pi)
        root = _newton_polish(fun, dfun, s1, radius)
    if root is not None:
        return [root]
    roots = _find_roots_in_rect(
        fun, dfun, shift * radius, radius, -radius, radius, radius
    )
    distinct = []
    for r in roots:
        if all(abs(r - q) > 1e-9 * max(1.0, abs(q)) for q in distinct):
            distinct.append(r)
    if len(distinct) != count:
        raise RuntimeError(
            f"found {len(distinct)} distinct unstable roots for a winding count of {count}"
        )
    return distinct


def count_unstable_roots(point: PumpPoint, params: SystemParams) -> int:
    """Number of zeros of D in the open right half-plane."""
    if params.u_t == 0.0:
        return int(np.sum(_cold_roots(point, params).real > 0))
    return _contour_count(point, params, _search_radius(point, params))[0]


def max_growth_rate(point: PumpPoint, params: SystemParams) -> complex | None:
    """Dominant unstable root of D, or None if the state is stable.

    Every unstable zero lies in the half-disc |s| < R of _search_radius.
    They are counted by the argument principle on the half-disc contour,
    located and Newton-polished; the one with the largest real part is
    returned.
    """
    if params.u_t == 0.0:
        roots = [complex(r) for r in _cold_roots(point, params) if r.real > 0]
        return max(roots, key=lambda r: r.real) if roots else None
    roots = _unstable_roots(point, params)
    return max(roots, key=lambda r: r.real) if roots else None


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

    D(i omega) = 0 splits into two real equations linear in (S, A); samples
    with a singular 2x2 system, S < 0, or |A| > S are dropped.
    """
    if omega_grid is None:
        omega_grid = default_omega_grid(params)
    d = params.delta
    keep_w, keep_s, keep_a = [], [], []
    i_vals = landau_integral(1j * np.asarray(omega_grid, dtype=float), params)
    for w, i_w in zip(omega_grid, i_vals):
        c_s = -1j * d * i_w
        c_a = (1.0 + 1j * w) * i_w
        m = np.array([[c_s.real, c_a.real], [c_s.imag, c_a.imag]])
        b = np.array([-(d**2 + 1.0 - w**2), -2.0 * w])
        det = np.linalg.det(m)
        if abs(det) < 1e-300:
            continue
        s_val, a_val = np.linalg.solve(m, b)
        if s_val < 0 or abs(a_val) > s_val:
            continue
        keep_w.append(w)
        keep_s.append(s_val)
        keep_a.append(a_val)
    return BoundaryCurve(np.array(keep_w), np.array(keep_s), np.array(keep_a))


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


def is_warm_gas(params: SystemParams) -> bool:
    return params.u_t >= WARM_GAS_UT


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
    if is_warm_gas(params):
        if point.s_total > s_bgk(params, point.a_asym):
            return RegimeResult("bgk-ordered", root)
        return RegimeResult("carl", root)
    return RegimeResult("bgk-ordered", root, low_confidence=True)
