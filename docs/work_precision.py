"""Work-precision comparisons of the two solvers' time steps.

    PYTHONPATH=src python docs/work_precision.py

N-body: runs the fig2 preset physics (N = 1e4, S = 2 S_c, A/S = 0.3) from
the 1 + 0.05 cos(chi) quiet start of the ``nbody-wave`` benchmark workload
up to tau = 10, with the kick-drift-kick Strang step of ``ringcarl.nbody.run``
and with classical RK4 of the full coupled system (kept here as the
reference integrator; the package no longer ships it) at several dt.  The
error is max |theta(tau) - theta_ref(tau)| over the samples every 0.1,
against RK4 at dt = 2.5e-4.  One markdown table row per run: method, dt,
steps, wall seconds, trig passes and the error.

Vlasov: runs the ``vlasov-growth`` benchmark workload (N u0 = -1,
S = 2 S_c, A = 0, 256 x 512 grid, 1 + 1e-6 cos(chi) seed) up to tau = 5,
with the fused spectral-drift step of ``ringcarl.vlasov.run_vlasov`` and
with the earlier cubic-spline drift-kick-drift step (its chi shift kept
here as the reference scheme; the package no longer ships it).  Both share
the spline u kick.  One row per run: method, dt, steps, wall seconds, the
relative error of the fitted growth rate of |theta| against the
dispersion-relation root, and max |theta - theta_ref| against the spectral
step at dt = 1.25e-3.

Takes several minutes.
"""

from __future__ import annotations

import time

import numpy as np

from scipy.ndimage import spline_filter1d

from ringcarl import nbody, stability
from ringcarl import vlasov as vl
from ringcarl.core import SystemParams, coupling, force, mode_rhs, split_run, steady_state_fields

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
    base = SystemParams.from_pump_split(0.0, 0.0, delta=-1.0, n_particles=n,
                                        u0=-1.0 / n, rho_r=0.01, u_t=3.0)
    s = 2.0 * stability.threshold_sc_a0(base)
    return base.with_pump_split(s, a_over_s * s)


def fig2_params() -> SystemParams:
    return preset_params(0.3)


def _rhs(a, chi, u, params):
    sin_chi, cos_chi = np.sin(chi), np.cos(chi)
    theta = complex(np.sum(cos_chi), -np.sum(sin_chi)) / chi.size
    return mode_rhs(a, theta, params), u, force(sin_chi, cos_chi, coupling(a), params)


def rk4_theta(params: SystemParams, dt: float) -> np.ndarray:
    """theta at every sample of a classical RK4 run (four trig passes a step)."""
    a, chi, u = nbody._initial_state(params, INIT)
    stride = int(round(SAMPLE_EVERY / dt))
    thetas = [nbody._phases(chi)[2]]
    for i in range(1, int(round(T_END / dt)) + 1):
        k1 = _rhs(a, chi, u, params)
        k2 = _rhs(*(x + 0.5 * dt * k for x, k in zip((a, chi, u), k1)), params)
        k3 = _rhs(*(x + 0.5 * dt * k for x, k in zip((a, chi, u), k2)), params)
        k4 = _rhs(*(x + dt * k for x, k in zip((a, chi, u), k3)), params)
        a, chi, u = (x + (dt / 6.0) * (q1 + 2 * q2 + 2 * q3 + q4)
                     for x, q1, q2, q3, q4 in zip((a, chi, u), k1, k2, k3, k4))
        if i % stride == 0:
            thetas.append(nbody._phases(chi)[2])
    return np.array(thetas)


def strang_theta(params: SystemParams, dt: float) -> np.ndarray:
    return nbody.run(params, init=INIT, t_end=T_END, sample_every=SAMPLE_EVERY, dt=dt).theta


def spline_shift_chi(f, shift_cells):
    """The earlier chi shift: periodic cubic B-spline, out[i, j] = f(i - shift_j, j)."""
    nx, nv = f.shape
    coef = spline_filter1d(f, order=3, axis=0, mode="grid-wrap")
    q = -np.broadcast_to(np.asarray(shift_cells, dtype=float), (nv,))
    base = np.floor(q).astype(int)
    w0, w1, w2, w3 = vl._bspline_weights(q - base)
    base = (base + nx // 2) % nx - nx // 2
    lo = int(base.min()) - 1
    padded = coef[np.arange(lo, nx + int(base.max()) + 2) % nx]
    out = np.empty_like(coef)
    for b, cols in vl._offset_groups(base):
        r = b - 1 - lo
        acc = w0[cols] * padded[r : r + nx, cols]
        acc += w1[cols] * padded[r + 1 : r + 1 + nx, cols]
        acc += w2[cols] * padded[r + 2 : r + 2 + nx, cols]
        acc += w3[cols] * padded[r + 3 : r + 3 + nx, cols]
        out[:, cols] = acc
    return out


def spline_theta(params: SystemParams, dt: float) -> np.ndarray:
    """theta at every sample of the spline drift-kick-drift run (unfused)."""
    def drift(state, h):
        grid, a = state
        f = spline_shift_chi(grid.f, grid.u * h / grid.dchi)
        return vl.PhaseSpaceGrid(grid.chi, grid.u, f, grid.lost_mass), a

    def step(state, h):
        return drift(vl._kick(drift(state, 0.5 * h), h, params), 0.5 * h)

    grid = vl.make_grid(params, nx=256, nv=512, cosine_eps=1e-6)
    series, _ = split_run((grid, steady_state_fields(params)), lambda state, h: state,
                          step, lambda state: (*vl.grid_moments(state[0]), state[1]),
                          VLASOV_T_END, SAMPLE_EVERY, dt)
    return series.theta


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
    runs = [("Strang", strang_theta, dt, 1) for dt in STRANG_DTS]
    runs += [("RK4", rk4_theta, dt, 4) for dt in RK4_DTS]
    for name, fn, dt, passes in runs:
        theta, wall = timed(fn, params, dt)
        steps = int(round(T_END / dt))
        err = float(np.max(np.abs(theta - ref)))
        print(f"| {name} | {dt:g} | {steps} | {wall:.2f} | {passes * steps} | {err:.2e} |")


def vlasov_table() -> None:
    params = preset_params(0.0)
    point = stability.PumpPoint(params.s_total, params.a_asym)
    gamma = stability.max_growth_rate(point, params).real
    ref, ref_s = timed(spectral_theta, params, VLASOV_REFERENCE_DT)
    print(f"Vlasov reference: spectral drift at dt = {VLASOV_REFERENCE_DT:g} ({ref_s:.1f} s); "
          f"growth rate {gamma:.6f}, reference error {growth_rel_err(ref, gamma):.4e}\n")
    print("| chi drift | dt | steps | wall s | growth rel err | max abs(theta - ref) |")
    print("|---|---|---|---|---|---|")
    for name, fn in (("spline, unfused", spline_theta), ("spectral, fused", spectral_theta)):
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
