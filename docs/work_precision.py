"""Work-precision comparisons of the two solvers' time steps.

    PYTHONPATH=src:tests python docs/work_precision.py

N-body: runs the fig2 preset physics (N = 1e4, S = 2 S_c, A/S = 0.3) from
the 1 + 0.05 cos(chi) quiet start of the ``nbody-wave`` benchmark workload
up to tau = 10, with the kick-drift-kick Strang step of ``ringcarl.nbody.run``
(whose drift rotates e^{i chi}), with the same step and the earlier drift
that takes a direct sin/cos pass every step (kept here as the reference
scheme), and with classical RK4 of the full coupled system (kept
here as the reference integrator; the package no longer ships it) at
several dt.  The error is max |theta(tau) - theta_ref(tau)| over the
samples every 0.1, against RK4 at dt = 2.5e-4.  One markdown table row per
run: method, dt, steps, wall seconds, trig passes and the error.

Vlasov: runs the ``vlasov-growth`` benchmark workload (N u0 = -1,
S = 2 S_c, A = 0, 256 x 512 grid, 1 + 1e-6 cos(chi) seed) up to tau = 5,
with the fused spectral-drift step of ``ringcarl.vlasov.run_vlasov`` and
two u kicks: its zero-padded FFT kick, and the earlier cubic-spline kick
(kept here as the reference scheme; the package no longer ships it).  One
row per run: u kick, dt, steps, wall seconds, the relative error of the
fitted growth rate of |theta| against the dispersion-relation root, and
max |theta - theta_ref| against the FFT kick at dt = 1.25e-3.

Takes several minutes.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
from scipy.ndimage import spline_filter1d

from oracles import mode_rhs
from ringcarl import nbody, stability
from ringcarl import vlasov as vl
from ringcarl.core import SystemParams, coupling, force

T_END = 10.0
SAMPLE_EVERY = 0.1
REFERENCE_DT = 2.5e-4
STRANG_DTS = (4e-3, 2e-3, 1e-3, 5e-4)
RK4_DTS = (1e-2, 5e-3, 2e-3, 1e-3)
INIT = nbody.InitialCondition(cosine_eps=0.05)


VLASOV_T_END = 5.0
VLASOV_REFERENCE_DT = 1.25e-3
VLASOV_DTS = (2e-2, 1e-2, 5e-3)
GROWTH_FIT_FROM = 3.0   # as the vlasov-growth check: tau >= 3 and |theta| < 1e-3


def preset_params(a_over_s: float) -> SystemParams:
    """The preset physics (N = 1e4, N u0 = -1) at S = 2 S_c and the given A/S."""
    n = 10_000
    base = SystemParams(delta=-1.0, n_particles=n, u0=-1.0 / n, rho_r=0.01, u_t=3.0)
    s = 2.0 * stability.threshold_sc_a0(base)
    return replace(base, s_total=s, a_asym=a_over_s * s)


def fig2_params() -> SystemParams:
    return preset_params(0.3)


def _rhs(a, chi, u, params):
    phase, theta = nbody._phases(chi)
    return mode_rhs(a, theta, params), u, force(phase, coupling(a), params)


def rk4_theta(params: SystemParams, dt: float) -> np.ndarray:
    """theta at every sample of a classical RK4 run (four trig passes a step)."""
    a, chi, u = nbody._initial_state(params, INIT)
    stride = int(round(SAMPLE_EVERY / dt))
    thetas = [nbody._phases(chi)[1]]
    for i in range(1, int(round(T_END / dt)) + 1):
        k1 = _rhs(a, chi, u, params)
        k2 = _rhs(*(x + 0.5 * dt * k for x, k in zip((a, chi, u), k1)), params)
        k3 = _rhs(*(x + 0.5 * dt * k for x, k in zip((a, chi, u), k2)), params)
        k4 = _rhs(*(x + dt * k for x, k in zip((a, chi, u), k3)), params)
        a, chi, u = (x + (dt / 6.0) * (q1 + 2 * q2 + 2 * q3 + q4)
                     for x, q1, q2, q3, q4 in zip((a, chi, u), k1, k2, k3, k4))
        if i % stride == 0:
            thetas.append(nbody._phases(chi)[1])
    return np.array(thetas)


def strang_theta(params: SystemParams, dt: float) -> np.ndarray:
    return nbody.run(params, init=INIT, t_end=T_END, sample_every=SAMPLE_EVERY, dt=dt).theta


def direct_drift(state, h):
    """The earlier N-body drift: chi += u h, then a direct sin/cos pass."""
    a, chi, u, work = state
    chi += h * u
    nbody._phases(chi, work[0])
    return state


def direct_strang_theta(params: SystemParams, dt: float) -> np.ndarray:
    """theta at every sample of the Strang run with the direct-trig drift."""
    rotated = nbody._drift
    nbody._drift = direct_drift  # nbody.run looks it up at call time
    try:
        return strang_theta(params, dt)
    finally:
        nbody._drift = rotated


def counting_trig_passes(fn, *args):
    """(fn(*args), the number of nbody._phases calls it made)."""
    direct, calls = nbody._phases, 0

    def counted(*a):
        nonlocal calls
        calls += 1
        return direct(*a)

    nbody._phases = counted
    try:
        return fn(*args), calls
    finally:
        nbody._phases = direct


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

    The selector is a slice when the positions holding that offset are
    contiguous, an index array otherwise.
    """
    order = np.argsort(base, kind="stable")
    values, starts = np.unique(base[order], return_index=True)
    for b, idx in zip(values, np.split(order, starts[1:])):
        if idx[-1] - idx[0] + 1 == idx.size:
            yield int(b), slice(int(idx[0]), int(idx[-1]) + 1)
        else:
            yield int(b), idx


def spline_shift_u(f, shift_cells, space=None):
    """The earlier u kick: out[i, j] = f(i, j - shift_i) by cubic B-spline.

    It takes the run's workspace ``space`` as the FFT kick does, unused.

    f is zero-padded before the prefilter, so the coefficients and the 4-tap
    evaluation see the same boundary extension; the rows sharing an integer
    offset read their taps as slices of the padded coefficients.
    """
    nrows, nv = f.shape
    q = -np.broadcast_to(np.asarray(shift_cells, dtype=float), (nrows,))
    base = np.floor(q).astype(int)
    npad = int(max(4, np.max(np.abs(base)) + 3))
    padded = np.zeros((nrows, nv + 2 * npad), dtype=f.dtype)
    padded[:, npad : npad + nv] = f
    coef = spline_filter1d(padded, order=3, axis=1, mode="mirror")
    w0, w1, w2, w3 = _bspline_weights(q - base)
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


def spline_theta(params: SystemParams, dt: float) -> np.ndarray:
    """theta at every sample of the fused run with the spline u kick."""
    fft_kick = vl.shift_clamped_u
    vl.shift_clamped_u = spline_shift_u  # vlasov._kick looks it up at call time
    try:
        return spectral_theta(params, dt)
    finally:
        vl.shift_clamped_u = fft_kick


def spectral_theta(params: SystemParams, dt: float) -> np.ndarray:
    series, _ = vl.run_vlasov(params, t_end=VLASOV_T_END, sample_every=SAMPLE_EVERY, dt=dt,
                              cosine_eps=1e-6, nx=256, nv=512)
    return series.theta


def growth_rel_err(theta: np.ndarray, gamma: float) -> float:
    tau = SAMPLE_EVERY * np.arange(theta.size)
    m = (tau >= GROWTH_FIT_FROM) & (np.abs(theta) < 1e-3)
    fit = np.polyfit(tau[m], np.log(np.abs(theta[m])), 1)[0]
    return abs(fit - gamma) / abs(gamma)


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def nbody_table() -> None:
    params = fig2_params()
    ref, ref_s = timed(rk4_theta, params, REFERENCE_DT)
    print(f"N-body reference: RK4 at dt = {REFERENCE_DT:g} ({ref_s:.1f} s)\n")
    print("| method | dt | steps | wall s | trig passes | max abs(theta - ref) |")
    print("|---|---|---|---|---|---|")
    runs = [(name, fn, dt) for dt in STRANG_DTS
            for name, fn in (("Strang, direct trig", direct_strang_theta),
                             ("Strang, rotated", strang_theta))]
    runs += [("RK4", rk4_theta, dt) for dt in RK4_DTS]
    for name, fn, dt in runs:
        (theta, passes), wall = timed(counting_trig_passes, fn, params, dt)
        if fn is rk4_theta:
            passes = 4 * int(round(T_END / dt))  # its own, in _rhs
        steps = int(round(T_END / dt))
        err = float(np.max(np.abs(theta - ref)))
        print(f"| {name} | {dt:g} | {steps} | {wall:.2f} | {passes} | {err:.2e} |")


def vlasov_table() -> None:
    params = preset_params(0.0)
    point = stability.PumpPoint(params.s_total, params.a_asym)
    gamma = stability.max_growth_rate(point, params).real
    ref, ref_s = timed(spectral_theta, params, VLASOV_REFERENCE_DT)
    print(f"Vlasov reference: FFT u kick at dt = {VLASOV_REFERENCE_DT:g} ({ref_s:.1f} s); "
          f"growth rate {gamma:.6f}, reference error {growth_rel_err(ref, gamma):.4e}\n")
    print("| u kick | dt | steps | wall s | growth rel err | max abs(theta - ref) |")
    print("|---|---|---|---|---|---|")
    for name, fn in (("cubic spline", spline_theta), ("padded FFT", spectral_theta)):
        for dt in VLASOV_DTS:
            theta, wall = timed(fn, params, dt)
            steps = int(round(VLASOV_T_END / dt))
            err = float(np.max(np.abs(theta - ref)))
            print(f"| {name} | {dt:g} | {steps} | {wall:.2f} | "
                  f"{growth_rel_err(theta, gamma):.4e} | {err:.2e} |")


def main() -> None:
    nbody_table()
    print()
    vlasov_table()


if __name__ == "__main__":
    main()
