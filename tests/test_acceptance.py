"""End-to-end acceptance checks.

Each test prints one ``[acceptance] criterion N (<name>): PASS/FAIL`` line.
The heavy simulation runs are shared through module-scoped fixtures; the
whole module is sized for a desk-scale machine (N = 1e4..1e5, minutes).
"""

import warnings

import numpy as np
import pytest

from ringcarl import bgk, cli, nbody, stability as st, vlasov as vl
from ringcarl.config import parse_config
from ringcarl.core import SystemParams

DELTA = -1.0
N_DESK = 10**4
U_T = 3.0


def desk_params(s_over_sc, a_over_s, n=N_DESK, u_t=U_T, delta=DELTA, seed=0):
    base = SystemParams.from_pump_split(
        0.0, 0.0, delta=delta, n_particles=n, u0=-1.0 / n,
        rho_r=0.01, u_t=u_t, seed=seed,
    )
    s = s_over_sc * st.threshold_sc_a0(base)
    return SystemParams.from_pump_split(
        s, a_over_s * s, delta=delta, n_particles=n, u0=-1.0 / n,
        rho_r=0.01, u_t=u_t, seed=seed,
    )


def report(num, name, ok):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig2_series():
    return nbody.run(desk_params(2.0, 0.3), t_end=60.0, dt=1e-3)


@pytest.fixture(scope="module")
def fig3_series():
    return nbody.run(desk_params(2.0, 0.8), t_end=60.0, dt=1e-3)


@pytest.fixture(scope="module")
def slow_beam_series():
    return nbody.slow_beam_preset(desk_params(2.0, 0.0), v_initial=0.3,
                                  t_end=120.0, dt=1e-3)


def test_criterion_1_threshold_consistency():
    ok = True
    for u_t in (1.5 * 2, 3.0, 100.0):
        for delta in (-0.5, -1.0, -2.0):
            p = desk_params(0.0, 0.0, u_t=u_t, delta=delta)
            curve = st.boundary_curve(p)
            i = np.argmin(np.abs(curve.a_asym) / np.maximum(curve.s_total, 1.0))
            rel = abs(curve.s_total[i] - st.threshold_sc_a0(p)) / st.threshold_sc_a0(p)
            ok &= rel < 1e-6
    report(1, "threshold consistency", ok)


def test_criterion_2_boundary_bracketing():
    p = desk_params(0.0, 0.0)
    curve = st.boundary_curve(p)
    rng = np.random.default_rng(5)
    idx = rng.choice(len(curve.omega), size=20, replace=False)
    ok = True
    for i in idx:
        s, a = curve.s_total[i], curve.a_asym[i]
        # scale (S, A) radially so the pump ratio A/S stays fixed
        ok &= st.count_unstable_roots(st.PumpPoint(1.05 * s, 1.05 * a), p) > 0
        ok &= st.count_unstable_roots(st.PumpPoint(0.95 * s, 0.95 * a), p) == 0
    report(2, "boundary bracketing", ok)


def test_criterion_3_landau_oracle():
    p = desk_params(1.0, 0.0)
    re = np.geomspace(0.01, 5.0, 11)
    im = np.array([-2.0, 0.5, 3.0])
    grid = (re[:, None] + 1j * im[None, :]).ravel()
    ok = True
    for s in grid:
        a = complex(st.landau_integral(s, p))
        b = st.landau_integral_quadrature(s, p)
        ok &= abs(a - b) / abs(b) < 1e-8
    for w in (0.1, 1.0, 4.0):
        on = complex(st.landau_integral(1j * w, p))
        near = complex(st.landau_integral(1e-9 + 1j * w, p))
        ok &= abs(on - near) / abs(on) < 1e-8
    report(3, "landau integral oracle", ok)


def test_criterion_4_momentum_conservation():
    rng = np.random.default_rng(17)
    n = 256
    p = SystemParams.from_pump_split(
        8.0, 2.0, delta=DELTA, n_particles=n, u0=-1.0 / n, rho_r=0.01, u_t=U_T
    )
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    chi, u = rng.uniform(0, 2 * np.pi, n), rng.normal(0, 2, n)
    p0 = nbody.momentum_invariant(a, u, p)
    for _ in range(10000):
        a, chi, u = nbody.step(a, chi, u, p, 1e-3, hamiltonian=True)
    drift = abs(nbody.momentum_invariant(a, u, p) - p0) / max(abs(p0), 1.0)
    report(4, "momentum conservation", drift < 1e-8)


@pytest.mark.slow
def test_criterion_5_regime_reproduction(fig2_series, fig3_series,
                                         slow_beam_series):
    th = nbody.ClassifyThresholds()
    ok = nbody.classify_run(fig2_series, desk_params(2.0, 0.3)) == "ordered-wave"
    w = fig2_series.trailing_window()
    ok &= np.mean(np.abs(fig2_series.theta[w])) > 0.1
    ok &= abs(np.polyfit(fig2_series.tau[w], fig2_series.v_cm[w], 1)[0]) < th.slope_tol

    ok &= nbody.classify_run(fig3_series, desk_params(2.0, 0.8)) == "carl"
    blocks = np.array_split(np.abs(fig3_series.v_cm[len(fig3_series) // 4:]), 6)
    means = [b.mean() for b in blocks]
    ok &= all(a < b for a, b in zip(means, means[1:]))

    v0 = slow_beam_series.v_cm[0]
    wf = slow_beam_series.trailing_window()
    v_final = np.mean(slow_beam_series.v_cm[wf])
    ok &= 1.0 - abs(v_final) / abs(v0) > 0.5
    report(5, "regime reproduction", ok)


@pytest.mark.slow
def test_criterion_6_bgk_residual(fig2_series):
    rep = bgk.validate_wave(fig2_series, desk_params(2.0, 0.3))
    report(6, "travelling-wave residual", rep.residual < 0.05)


@pytest.mark.slow
def test_criterion_7_carl_bound(fig3_series):
    p = desk_params(2.0, 0.8)
    bound = st.carl_bound(p)
    w_grid = np.linspace(-3.0, 3.0, 120001)
    sup = 0.0
    for frac in np.linspace(0.0, 0.999, 12):
        Theta = frac * np.sqrt(1 + p.delta**2) / abs(p.u0)
        aos = np.abs([
            bgk.asymmetry_for_wave(bgk.WaveState(2 * w, 0.0, Theta), p)
            for w in w_grid
        ])
        sup = max(sup, aos.max())
    ok = abs(sup - bound) < 1e-3
    # the strongly asymmetric run never settles into a wave
    th = nbody.ClassifyThresholds()
    w = fig3_series.trailing_window()
    slope = np.polyfit(fig3_series.tau[w], fig3_series.v_cm[w], 1)[0]
    ok &= nbody.classify_run(fig3_series, p) == "carl"
    ok &= abs(slope) > th.slope_tol
    report(7, "asymmetry bound", ok)


@pytest.mark.slow
def test_criterion_8_vlasov_nbody_agreement():
    n = 10**5
    p = desk_params(2.0, 0.0, n=n)
    eps = 1e-3
    series_n = nbody.run(
        p,
        init=nbody.InitialCondition(cosine_eps=eps, quiet_velocities=True),
        t_end=5.0, sample_every=0.25, dt=2e-3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series_v, _ = vl.run_vlasov(
            p, t_end=5.0, dt=2.5e-3, cosine_eps=eps,
            nx=256, nv=512, sample_every=0.25,
        )
    a_n, a_v = np.abs(series_n.theta), np.abs(series_v.theta)
    ok = np.max(np.abs(a_n - a_v) / np.maximum(a_v, 1e-12)) < 0.05

    # linear growth rate against the dispersion-relation root
    pg = desk_params(2.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sg, _ = vl.run_vlasov(pg, t_end=12.0, dt=5e-3, cosine_eps=1e-6,
                              nx=128, nv=256, sample_every=0.1)
    at = np.abs(sg.theta)
    m = (sg.tau > 3) & (sg.tau < 10) & (at < 1e-3)
    gamma_fit = np.polyfit(sg.tau[m], np.log(at[m]), 1)[0]
    root = st.max_growth_rate(st.PumpPoint(pg.s_total, pg.a_asym), pg)
    ok &= abs(gamma_fit - root.real) / abs(root.real) < 0.05
    report(8, "kinetic vs particle solver", ok)


def test_criterion_9_phase_diagram_nesting():
    curves = {}
    for u_t in (3.0, 100.0, 200.0):
        curves[u_t] = st.boundary_curve(desk_params(0.0, 0.0, u_t=u_t))

    def min_s(curve, a):
        aos = curve.a_asym / curve.s_total
        m = np.abs(aos - a) < 0.03
        return curve.s_total[m].min() if m.any() else None

    ok = True
    for a in np.linspace(0.0, 0.5, 11):
        s3, s100, s200 = (min_s(curves[u], a) for u in (3.0, 100.0, 200.0))
        if None in (s3, s100, s200):
            continue
        ok &= s3 < s100 < s200
    report(9, "stable-region nesting with temperature", ok)


def test_criterion_10_determinism(tmp_path):
    text = cli.load_preset("fig2").replace("t_end = 60", "t_end = 2")
    cfg = parse_config(text)
    cli.run_experiment(cfg, tmp_path / "a")
    cli.run_experiment(cfg, tmp_path / "b")
    same = (tmp_path / "a/timeseries.csv").read_bytes() == (
        tmp_path / "b/timeseries.csv"
    ).read_bytes()
    report(10, "byte-identical reruns", same)
