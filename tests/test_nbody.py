import numpy as np
import pytest

from ringcarl import nbody
from ringcarl.core import DomainError, IntegrationDivergedError, SystemParams, TimeSeries

TWO_PI = 2 * np.pi


def make_params(**kw):
    base = dict(delta=-1.0, n_particles=64, u0=-1.0 / 64,
                rho_r=0.01, u_t=3.0, seed=3)
    base.update(kw)
    s = kw.pop("s_total", 8.0)
    a = kw.pop("a_asym", 2.0)
    base.pop("s_total", None)
    base.pop("a_asym", None)
    return SystemParams.from_pump_split(s, a, **base)


def random_state(params, rng=None):
    """(a, chi, u) with random modes and particles."""
    rng = rng or np.random.default_rng(11)
    n = params.n_particles
    chi, u = rng.uniform(0, TWO_PI, n), rng.normal(0, 1, n)
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    return a, chi, u


def evolve(state, params, dt, n, hamiltonian=False):
    for _ in range(n):
        state = nbody.step(*state, params, dt, hamiltonian)
    return state


class TestIntegrator:
    def test_rk4_order(self):
        """Halving dt reduces the one-interval error about 4-fold: the
        Strang step is second order."""
        p = make_params()
        s0 = random_state(p)

        def endpoint(dt):
            a, _, u = evolve(s0, p, dt, int(round(0.5 / dt)))
            return np.concatenate([a, u])

        ref = endpoint(0.003125)
        e1 = np.max(np.abs(endpoint(0.05) - ref))
        e2 = np.max(np.abs(endpoint(0.025) - ref))
        e3 = np.max(np.abs(endpoint(0.0125) - ref))
        assert e1 / e2 == pytest.approx(4, rel=0.35)
        assert e2 / e3 == pytest.approx(4, rel=0.35)

    def test_decoupled_fields_closed_form(self):
        """With u0 = 0 each pumped mode relaxes as a driven linear mode."""
        p = make_params(u0=0.0)
        s = random_state(p)
        lam = 1j * p.delta - 1.0
        tau = 1.7
        out, _, _ = evolve(s, p, 1e-3, 1700)
        a0 = s[0][0]
        expect = (a0 + p.eta_plus / lam) * np.exp(lam * tau) - p.eta_plus / lam
        assert out[0] == pytest.approx(expect, rel=1e-9)

    def test_rejects_bad_dt(self):
        p = make_params()
        with pytest.raises(DomainError):
            nbody.step(*random_state(p), p, 0.0)

    def test_divergence_detected(self):
        p = make_params()
        a, chi, u = random_state(p)
        u[0] = np.inf
        with pytest.raises(IntegrationDivergedError), np.errstate(invalid="ignore"):
            nbody.step(a, chi, u, p, 1e-3)


class TestConservation:
    def test_momentum_invariant_closed_system(self):
        p = make_params()
        a, _, u = s = random_state(p)
        p0 = nbody.momentum_invariant(a, u, p)
        a, _, u = evolve(s, p, 5e-3, 2000, hamiltonian=True)
        p1 = nbody.momentum_invariant(a, u, p)
        assert abs(p1 - p0) / max(abs(p0), 1.0) < 1e-10

    def test_one_step_conserves_to_rounding(self):
        """Both subflows conserve P exactly, so a single closed-system step
        moves it by rounding only, even at a coarse dt."""
        p = make_params()
        a, chi, u = random_state(p)
        p0 = nbody.momentum_invariant(a, u, p)
        a, _, u = nbody.step(a, chi, u, p, 0.05, hamiltonian=True)
        assert abs(nbody.momentum_invariant(a, u, p) - p0) <= 1e-13 * abs(p0)


class TestSymmetries:
    def test_translation_covariance(self):
        """chi -> chi + c with a- -> a- e^{ic}, b+ -> b+ e^{-ic} commutes
        with the time evolution."""
        p = make_params()
        s = random_state(p)
        c = 0.83

        def shift(st):
            a, chi, u = st
            return a * np.exp([0, 1j * c, -1j * c, 0]), (chi + c) % TWO_PI, u

        a = evolve(shift(s), p, 1e-3, 200)
        b = shift(evolve(s, p, 1e-3, 200))
        np.testing.assert_allclose(a[0], b[0], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(a[2], b[2], atol=1e-12)

    def test_mirror_covariance(self):
        """Swapping the pumps while flipping chi, u maps solutions onto
        solutions: (a+,a-,b+,b-) -> (b-,b+,a-,a+)."""
        p = make_params()
        pm = p.with_pumps(p.eta_minus, p.eta_plus)
        s = random_state(p)

        def mirror(st):
            a, chi, u = st
            return a[::-1], (-chi) % TWO_PI, -u

        a = evolve(mirror(s), pm, 1e-3, 200)
        b = mirror(evolve(s, p, 1e-3, 200))
        np.testing.assert_allclose(a[0], b[0], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(np.sort(a[2]), np.sort(b[2]), atol=1e-12)


class TestRunAndClassify:
    def synthetic_series(self, theta_mag, v_slope):
        tau = np.linspace(0, 10, 101)
        m = tau.size
        return TimeSeries(
            tau=tau,
            theta=theta_mag * np.exp(-0.3j * tau),
            v_cm=v_slope * tau,
            intensities=np.ones((m, 4)),
            kinetic_energy=np.ones(m),
            field_momentum=np.zeros(m),
        )

    def test_classify_stable(self):
        p = make_params()
        s = self.synthetic_series(1e-4, 0.0)
        assert nbody.classify_run(s, p) == "stable"

    def test_classify_ordered(self):
        p = make_params()
        s = self.synthetic_series(0.4, 1e-4)
        assert nbody.classify_run(s, p) == "ordered-wave"

    def test_classify_carl(self):
        p = make_params()
        s = self.synthetic_series(0.4, 0.05)
        assert nbody.classify_run(s, p) == "carl"

    def test_classify_too_short(self):
        p = make_params()
        s = self.synthetic_series(0.4, 0.0)
        short = TimeSeries(*(getattr(s, k)[:4] for k in (
            "tau", "theta", "v_cm", "intensities", "kinetic_energy",
            "field_momentum")))
        with pytest.raises(DomainError):
            nbody.classify_run(short, p)

    def test_run_matches_repeated_steps(self):
        """Fusing the half kicks between samples changes rounding only."""
        p = make_params()
        init = nbody.InitialCondition(cosine_eps=0.1)
        series = nbody.run(p, init=init, t_end=1.0, sample_every=0.25, dt=0.01)
        a, chi, u = nbody._initial_state(p, init)
        for k in range(1, 5):
            a, chi, u = evolve((a, chi, u), p, 0.01, 25)
            i = series.tau.tolist().index(pytest.approx(0.25 * k))
            np.testing.assert_allclose(series.theta[i], nbody._phases(chi)[2], rtol=1e-12)
            np.testing.assert_allclose(series.intensities[i], np.abs(a) ** 2, rtol=1e-12)
            assert series.v_cm[i] == pytest.approx(np.mean(u), rel=1e-12, abs=1e-15)

    def test_run_sorts_particles_at_each_sample(self, monkeypatch):
        """After every sample inside run, chi is non-decreasing, and each
        particle's (chi, u, sin chi, cos chi) moved as one: sin and cos are,
        bit for bit, np.sin and np.cos of the drifted chi under the same
        permutation as chi and u."""
        p = make_params(n_particles=257)
        sample, seen = nbody._sample_sorted, []

        def spy(state):
            _, chi, u, (sin_chi, cos_chi, _) = state
            drifted, u_before = chi.copy(), u.copy()
            row = sample(state)
            seen.append((drifted, u_before, chi.copy(), u.copy(), sin_chi.copy(), cos_chi.copy()))
            return row

        monkeypatch.setattr(nbody, "_sample_sorted", spy)
        init = nbody.InitialCondition(random_positions=True)
        nbody.run(p, init=init, t_end=1.0, sample_every=0.25, dt=0.05)
        assert len(seen) == 5
        for drifted, u_before, chi, u, sin_chi, cos_chi in seen:
            assert np.all(np.diff(chi) >= 0)
            order = np.argsort(drifted % TWO_PI)
            np.testing.assert_array_equal(chi, (drifted % TWO_PI)[order])
            np.testing.assert_array_equal(u, u_before[order])
            np.testing.assert_array_equal(sin_chi, np.sin(drifted)[order])
            np.testing.assert_array_equal(cos_chi, np.cos(drifted)[order])

    def test_step_keeps_callers_order(self):
        """step on permuted particles returns the same permutation of its
        output on the originals: only run may reorder particles."""
        p = make_params()
        a, chi, u = random_state(p)
        perm = np.random.default_rng(5).permutation(p.n_particles)
        a1, chi1, u1 = nbody.step(a, chi, u, p, 0.01)
        a2, chi2, u2 = nbody.step(a, chi[perm], u[perm], p, 0.01)
        np.testing.assert_allclose(chi2, chi1[perm], rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(u2, u1[perm], rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(a2, a1, rtol=1e-13, atol=1e-15)

    def test_run_shapes_and_sampling(self):
        p = make_params()
        series = nbody.run(p, t_end=1.0, sample_every=0.25, dt=0.05)
        assert len(series) == 5
        assert series.tau[0] == 0.0
        assert series.tau[-1] == pytest.approx(1.0)
        assert series.intensities.shape == (5, 4)

    def test_quiet_start_seeds_half_eps(self):
        p = make_params(n_particles=1000, u0=-1e-3)
        init = nbody.InitialCondition(cosine_eps=1e-2, quiet_velocities=True)
        _, chi, u = nbody._initial_state(p, init)
        th = np.mean(np.exp(-1j * chi))
        assert abs(th) == pytest.approx(5e-3, rel=1e-3)
        # tiled ladder: velocity-position correlation far below the
        # 1/sqrt(N) shot-noise level random pairing would give
        corr = np.mean(u * np.exp(-1j * chi))
        assert abs(corr) < 1e-6

    def test_slow_beam_rejects_asymmetric(self):
        p = make_params(a_asym=2.0)
        with pytest.raises(DomainError):
            nbody.slow_beam_preset(p, v_initial=1.0, t_end=1.0)
