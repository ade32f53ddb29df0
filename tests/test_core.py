import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ringcarl import nbody
from ringcarl.core import (
    DomainError,
    SystemParams,
    coupling,
    force,
    mode_rhs,
    sample_maxwellian,
    steady_state_fields,
)


def make_params(**kw):
    base = dict(delta=-1.0, n_particles=100, u0=-0.01,
                eta_plus=3.0 + 0j, eta_minus=2.0 + 0j, rho_r=0.01, u_t=3.0)
    base.update(kw)
    return SystemParams(**base)


class TestSystemParams:
    def test_pump_groups(self):
        p = make_params()
        assert p.s_total == pytest.approx(13.0)
        assert p.a_asym == pytest.approx(5.0)
        assert p.nu0 == pytest.approx(-1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            make_params(n_particles=0)
        with pytest.raises(DomainError):
            make_params(rho_r=0.0)
        with pytest.raises(DomainError):
            make_params(u_t=-1.0)
        with pytest.raises(DomainError):
            make_params(delta=np.nan)

    def test_from_pump_split_rejects_a_gt_s(self):
        with pytest.raises(DomainError):
            SystemParams.from_pump_split(
                1.0, 1.5, delta=-1.0, n_particles=10, u0=-0.1, u_t=1.0
            )

    @given(
        s=hst.floats(min_value=1e-6, max_value=1e8),
        frac=hst.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_from_pump_split_roundtrip(self, s, frac):
        a = frac * s
        p = SystemParams.from_pump_split(
            s, a, delta=-1.0, n_particles=10, u0=-0.1, u_t=1.0
        )
        assert p.s_total == pytest.approx(s, rel=1e-12)
        assert p.a_asym == pytest.approx(a, rel=1e-9, abs=1e-9 * s)


class TestEnsemble:
    def test_chi_wrapped(self):
        p = make_params(n_particles=2)
        a = steady_state_fields(p)
        _, chi, _ = nbody.step(a, np.array([-0.1, 7.0]), np.zeros(2), p, 1e-3)
        assert np.all((chi >= 0) & (chi < 2 * np.pi))

    def test_order_parameter_limits(self):
        # perfectly bunched -> |theta| = 1; uniform grid -> 0
        a = np.zeros(4, dtype=complex)
        u = np.zeros(64)
        theta = nbody._sample(0.0, a, np.full(64, 1.3), u)[1]
        assert abs(theta) == pytest.approx(1.0)
        theta = nbody._sample(0.0, a, 2 * np.pi * np.arange(64) / 64, u)[1]
        assert abs(theta) < 1e-12


class TestPotential:
    def test_force_is_minus_gradient(self):
        p = make_params()
        c = coupling(np.array([1.0 + 0.5j, 0.2 - 0.1j, 0.3j, 0.7 + 0.2j]))
        chi = np.linspace(0, 2 * np.pi, 7, endpoint=False)

        def phi(x):
            return 2.0 * p.u0 * np.real(c * np.exp(1j * x))

        h = 1e-6
        grad = (phi(chi + h) - phi(chi - h)) / (2 * h)
        np.testing.assert_allclose(force(np.sin(chi), np.cos(chi), c, p),
                                   -p.rho_r * grad, rtol=1e-7)

    def test_flat_without_backscatter(self):
        p = make_params()
        c = coupling(steady_state_fields(p))
        assert c == 0
        chi = np.linspace(0, 6, 5)
        assert np.all(force(np.sin(chi), np.cos(chi), c, p) == 0)


class TestSteadyState:
    def test_is_fixed_point(self):
        p = make_params()
        n = 64
        chi = 2 * np.pi * np.arange(n) / n
        a = steady_state_fields(p)
        theta = (np.sum(np.cos(chi)) - 1j * np.sum(np.sin(chi))) / n
        da = mode_rhs(a, theta, p)
        du = force(np.sin(chi), np.cos(chi), coupling(a), p)
        assert np.max(np.abs(da)) < 1e-12 * max(abs(p.eta_plus), 1.0)
        assert np.max(np.abs(du)) < 1e-14


class TestMaxwellian:
    def test_deterministic_per_seed(self):
        p = make_params(seed=7)
        a = sample_maxwellian(p, 100)
        b = sample_maxwellian(p, 100)
        np.testing.assert_array_equal(a, b)

    def test_moments(self):
        p = make_params()
        u = sample_maxwellian(p, 200000, mean_u=1.5)
        assert np.mean(u) == pytest.approx(1.5, abs=0.02)
        assert np.std(u) == pytest.approx(p.u_t / np.sqrt(2), rel=0.01)

    def test_cold_gas(self):
        p = make_params(u_t=0.0)
        np.testing.assert_array_equal(sample_maxwellian(p, 5, mean_u=2.0),
                                      np.full(5, 2.0))
