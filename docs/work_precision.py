"""Work-precision comparison of the N-body integrators on the fig2 physics.

    PYTHONPATH=src python docs/work_precision.py

Runs the fig2 preset physics (N = 1e4, S = 2 S_c, A/S = 0.3) from the
1 + 0.05 cos(chi) quiet start of the ``nbody-wave`` benchmark workload up to
tau = 10, with the kick-drift-kick Strang step of ``ringcarl.nbody.run`` and
with classical RK4 of the full coupled system (kept here as the reference
integrator; the package no longer ships it) at several dt.  The error is
max |theta(tau) - theta_ref(tau)| over the samples every 0.1, against RK4 at
dt = 2.5e-4.  Prints one markdown table row per run: method, dt, steps,
wall seconds, trig passes and the error.  Takes a few minutes.
"""

from __future__ import annotations

import time

import numpy as np

from ringcarl import nbody
from ringcarl.core import SystemParams, coupling, force, mode_rhs

T_END = 10.0
SAMPLE_EVERY = 0.1
REFERENCE_DT = 2.5e-4
STRANG_DTS = (4e-3, 2e-3, 1e-3, 5e-4)
RK4_DTS = (1e-2, 5e-3, 2e-3, 1e-3)
INIT = nbody.InitialCondition(cosine_eps=0.05)


def fig2_params() -> SystemParams:
    from ringcarl import stability

    n = 10_000
    base = SystemParams.from_pump_split(0.0, 0.0, delta=-1.0, n_particles=n,
                                        u0=-1.0 / n, rho_r=0.01, u_t=3.0)
    s = 2.0 * stability.threshold_sc_a0(base)
    return base.with_pump_split(s, 0.3 * s)


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


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main() -> None:
    params = fig2_params()
    ref, ref_s = timed(rk4_theta, params, REFERENCE_DT)
    print(f"reference: RK4 at dt = {REFERENCE_DT:g} ({ref_s:.1f} s)\n")
    print("| method | dt | steps | wall s | trig passes | max abs(theta - ref) |")
    print("|---|---|---|---|---|---|")
    runs = [("Strang", strang_theta, dt, 1) for dt in STRANG_DTS]
    runs += [("RK4", rk4_theta, dt, 4) for dt in RK4_DTS]
    for name, fn, dt, passes in runs:
        theta, wall = timed(fn, params, dt)
        steps = int(round(T_END / dt))
        err = float(np.max(np.abs(theta - ref)))
        print(f"| {name} | {dt:g} | {steps} | {wall:.2f} | {passes * steps} | {err:.2e} |")


if __name__ == "__main__":
    main()
