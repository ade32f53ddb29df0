from dataclasses import replace

import numpy as np
import pytest

from ringcarl import nbody
from ringcarl.core import (
    DomainError,
    IntegrationDivergedError,
    SystemParams,
    TimeSeries,
    momentum_invariant,
)

TWO_PI = 2 * np.pi
SEED = 3  # the seed of every run and start below


def make_params(**kw):
    base = dict(delta=-1.0, n_particles=64, u0=-1.0 / 64, s_total=8.0, a_asym=2.0,
                rho_r=0.01, u_t=3.0)
    base.update(kw)
    return SystemParams(**base)


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
    def test_strang_order(self):
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
        p0 = momentum_invariant(np.mean(u), a, p)
        a, _, u = evolve(s, p, 5e-3, 2000, hamiltonian=True)
        p1 = momentum_invariant(np.mean(u), a, p)
        assert abs(p1 - p0) / max(abs(p0), 1.0) < 1e-10

    def test_one_step_conserves_to_rounding(self):
        """Both subflows conserve P exactly, so a single closed-system step
        moves it by rounding only, even at a coarse dt."""
        p = make_params()
        a, chi, u = random_state(p)
        p0 = momentum_invariant(np.mean(u), a, p)
        a, _, u = nbody.step(a, chi, u, p, 0.05, hamiltonian=True)
        assert abs(momentum_invariant(np.mean(u), a, p) - p0) <= 1e-13 * abs(p0)


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
        pm = replace(p, a_asym=-p.a_asym)
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
        s = self.synthetic_series(1e-4, 0.0)
        assert nbody.classify_run(s) == "stable"

    def test_classify_ordered(self):
        s = self.synthetic_series(0.4, 1e-4)
        assert nbody.classify_run(s) == "ordered-wave"

    def test_classify_carl(self):
        s = self.synthetic_series(0.4, 0.05)
        assert nbody.classify_run(s) == "carl"

    def test_classify_too_short(self):
        s = self.synthetic_series(0.4, 0.0)
        short = TimeSeries(*(getattr(s, k)[:4] for k in (
            "tau", "theta", "v_cm", "intensities", "kinetic_energy",
            "field_momentum")))
        with pytest.raises(DomainError):
            nbody.classify_run(short)

    def test_run_matches_repeated_steps(self):
        """Fusing the half kicks between samples changes rounding only."""
        p = make_params()
        init = nbody.InitialCondition(cosine_eps=0.1, seed=SEED)
        series = nbody.run(p, init=init, t_end=1.0, sample_every=0.25, dt=0.01)
        a, chi, u = nbody._initial_state(p, init)
        for k in range(1, 5):
            a, chi, u = evolve((a, chi, u), p, 0.01, 25)
            i = series.tau.tolist().index(pytest.approx(0.25 * k))
            np.testing.assert_allclose(series.theta[i], nbody._phases(chi)[1], rtol=1e-12)
            np.testing.assert_allclose(series.intensities[i], np.abs(a) ** 2, rtol=1e-12)
            assert series.v_cm[i] == pytest.approx(np.mean(u), rel=1e-12, abs=1e-15)

    def test_run_resyncs_phases_at_each_sample(self, monkeypatch):
        """After every sample inside run, z = e^{i chi} holds, bit for bit,
        np.cos and np.sin of the wrapped chi, and the sampled theta is its:
        rounding in the rotation lasts one sample interval at most."""
        p = make_params(n_particles=257)
        sample, seen = nbody._sample, []

        def spy(state):
            row = sample(state)
            _, chi, _, work = state
            seen.append((row[0], chi.copy(), work[0].copy()))
            return row

        monkeypatch.setattr(nbody, "_sample", spy)
        init = nbody.InitialCondition(random_positions=True, seed=SEED)
        nbody.run(p, init=init, t_end=1.0, sample_every=0.25, dt=0.01)
        assert len(seen) == 5
        for theta, chi, z in seen:
            assert np.all((chi >= 0) & (chi < TWO_PI))
            np.testing.assert_array_equal(z.real, np.cos(chi))
            np.testing.assert_array_equal(z.imag, np.sin(chi))
            assert theta == nbody._phases(chi)[1]

    def test_rotation_tracks_direct_trig(self, monkeypatch):
        """Over 10^4 rotated drifts between samples, z stays within 1e-12
        of np.cos and np.sin of the drifted chi."""
        p = make_params()
        sample, errors = nbody._sample, []

        def spy(state):
            _, chi, u, work = state
            assert np.max(np.abs(u)) * 1e-3 < nbody.ROTATE_MAX  # no direct pass
            z = work[0]
            errors.append(max(np.max(np.abs(z.real - np.cos(chi))),
                              np.max(np.abs(z.imag - np.sin(chi)))))
            return sample(state)

        monkeypatch.setattr(nbody, "_sample", spy)
        nbody.run(p, init=nbody.InitialCondition(seed=SEED), t_end=20.0, sample_every=10.0,
                  dt=1e-3)
        assert len(errors) == 3
        assert max(errors[1:]) < 1e-12
        assert max(errors[1:]) > 0.0  # z was rotated, not recomputed

    @pytest.mark.parametrize("bound", [1 / 32, nbody.ROTATE_MAX], ids=["to-e6", "to-e8"])
    def test_rotor_tiers_match_trig(self, bound):
        """Each Taylor tier, on 2e5 angles up to its bound: cos within
        0.5 ulp(1) of np.cos and sin within 1 ulp of np.sin."""
        e = np.linspace(-bound, bound, 200_000)
        w = np.empty(e.size, complex)
        assert nbody._rotor(e, e * e, w, np.empty(e.size))
        assert np.max(np.abs(w.real - np.cos(e))) <= 2.0**-53
        assert np.all(np.abs(w.imag - np.sin(e)) <= np.spacing(np.abs(np.sin(e))))

    def test_rotor_declines_beyond_rotate_max(self):
        e = np.array([0.0, np.nextafter(nbody.ROTATE_MAX, 1.0)])
        assert not nbody._rotor(e, e * e, np.empty(2, complex), np.empty(2))
        e = np.array([0.0, np.nan])
        assert not nbody._rotor(e, e * e, np.empty(2, complex), np.empty(2))

    def _matches_direct_drift(self, monkeypatch, u_t, dt, low, high):
        """A run whose every drift has max|u dt| in (low, high] matches a
        run whose every drift is the direct trig pass."""
        p = make_params(u_t=u_t)
        drift, angles = nbody._drift, []

        def spy(state, h):
            angles.append(np.max(np.abs(state[2])) * h)
            return drift(state, h)

        def direct_drift(state, h):
            a, chi, u, work = state
            chi += h * u
            nbody._phases(chi, work[0])
            return state

        def run():
            return nbody.run(p, init=nbody.InitialCondition(seed=SEED), t_end=1.0,
                             sample_every=0.1, dt=dt)

        monkeypatch.setattr(nbody, "_drift", spy)
        series = run()
        assert low < min(angles) and max(angles) <= high
        monkeypatch.setattr(nbody, "_drift", direct_drift)
        ref = run()
        np.testing.assert_allclose(series.theta, ref.theta, rtol=0, atol=1e-13)
        np.testing.assert_allclose(series.v_cm, ref.v_cm, rtol=1e-13)
        np.testing.assert_allclose(series.intensities, ref.intensities, rtol=1e-13)

    @pytest.mark.parametrize("dt, low, high", [(1e-3, 0.0, 1 / 32),
                                               (1e-2, 1 / 32, nbody.ROTATE_MAX)],
                             ids=["to-e6", "to-e8"])
    def test_rotated_drifts_match_direct_trig(self, monkeypatch, dt, low, high):
        """Both Taylor tiers of the rotation match the direct trig pass."""
        self._matches_direct_drift(monkeypatch, 3.0, dt, low, high)

    def test_large_steps_take_the_direct_pass(self, monkeypatch):
        """Where u dt moves phases far past ROTATE_MAX, run matches a run
        whose every drift is the direct trig pass."""
        self._matches_direct_drift(monkeypatch, 200.0, 1e-2, nbody.ROTATE_MAX, np.inf)

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
        series = nbody.run(p, init=nbody.InitialCondition(seed=SEED), t_end=1.0,
                           sample_every=0.25, dt=0.05)
        assert len(series) == 5
        assert series.tau[0] == 0.0
        assert series.tau[-1] == pytest.approx(1.0)
        assert series.intensities.shape == (5, 4)

    def test_quiet_start_seeds_half_eps(self):
        p = make_params(n_particles=1000, u0=-1e-3)
        init = nbody.InitialCondition(cosine_eps=1e-2, quiet_velocities=True, seed=SEED)
        _, chi, u = nbody._initial_state(p, init)
        th = np.mean(np.exp(-1j * chi))
        assert abs(th) == pytest.approx(5e-3, rel=1e-3)
        # tiled ladder: velocity-position correlation far below the
        # 1/sqrt(N) shot-noise level random pairing would give
        corr = np.mean(u * np.exp(-1j * chi))
        assert abs(corr) < 1e-6

    def test_quiet_ladder_matches_erfinv(self):
        """The quiet-start quantiles are within 2 ulp of scipy's erfinv."""
        from scipy.special import erfinv

        q = (np.arange(250) + 0.5) / 250
        y = 2.0 * q - 1.0
        ladder = np.array([nbody._erfinv(v) for v in y])
        ref = erfinv(y)
        assert np.all(np.abs(ladder - ref) <= 2 * np.spacing(np.abs(ref)))
