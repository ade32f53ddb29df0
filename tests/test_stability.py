import numpy as np
import pytest

from ringcarl import stability as st
from ringcarl.core import DomainError, SystemParams


def make_params(u_t=3.0, delta=-1.0, n=10000):
    return SystemParams.from_pump_split(
        0.0, 0.0, delta=delta, n_particles=n, u0=-1.0 / n, rho_r=0.01, u_t=u_t
    )


class TestLandauIntegral:
    def test_cold_limit(self):
        p = make_params(u_t=0.0)
        pref = p.n_particles * p.u0**2 * p.rho_r / (1 + p.delta**2)
        s = 0.3 + 0.2j
        assert st.landau_integral(s, p) == pytest.approx(pref * 1j / s**2)

    def test_warm_asymptotics(self):
        """Far from the thermal bulk the warm integral approaches i/s^2."""
        p = make_params(u_t=1.0)
        pref = p.n_particles * p.u0**2 * p.rho_r / (1 + p.delta**2)
        s = 80.0 + 0j
        assert st.landau_integral(s, p) == pytest.approx(
            pref * 1j / s**2, rel=1e-2
        )

    def test_quadrature_oracle(self):
        p = make_params()
        for s in (0.5, 1.0 + 2.0j, 0.05 + 0.3j, 3.0 - 4.0j):
            a = complex(st.landau_integral(s, p))
            b = st.landau_integral_quadrature(s, p)
            assert a == pytest.approx(b, rel=1e-10)

    def test_plemelj_continuity(self):
        """The continuation onto Re s = 0 is the eps -> 0+ limit."""
        p = make_params()
        w = 1.7
        on_axis = complex(st.landau_integral(1j * w, p))
        near = complex(st.landau_integral(1e-9 + 1j * w, p))
        assert on_axis == pytest.approx(near, rel=1e-7)

    def test_left_half_plane_rejected(self):
        p = make_params()
        with pytest.raises(DomainError):
            st.landau_integral(-0.1 + 0j, p)


class TestRoots:
    def test_no_pump_no_roots(self):
        p = make_params()
        assert st.count_unstable_roots(st.PumpPoint(0.0, 0.0), p) == 0
        assert st.max_growth_rate(st.PumpPoint(0.0, 0.0), p) is None

    def test_above_threshold_unstable(self):
        p = make_params()
        s = 2 * st.threshold_sc_a0(p)
        point = st.PumpPoint(s, 0.0)
        root = st.max_growth_rate(point, p.with_pump_split(s, 0.0))
        assert root is not None and root.real > 0
        # the root actually solves D(s) = 0
        assert abs(st.dispersion(root, point, p)) < 1e-8

    def test_below_threshold_stable(self):
        p = make_params()
        s = 0.5 * st.threshold_sc_a0(p)
        assert st.count_unstable_roots(st.PumpPoint(s, 0.0), p) == 0

    def test_cold_gas_roots_solve_dispersion(self):
        p = make_params(u_t=0.0)
        point = st.PumpPoint(1.0, 0.2)
        root = st.max_growth_rate(point, p)
        assert root is not None and root.real > 0
        assert abs(st.dispersion(root, point, p)) < 1e-9
        assert st.count_unstable_roots(point, p) >= 1

    def test_pump_point_validation(self):
        with pytest.raises(DomainError):
            st.PumpPoint(1.0, 2.0)
        with pytest.raises(DomainError):
            st.PumpPoint(-1.0, 0.0)


class TestBoundary:
    def test_marginal_samples_solve_dispersion(self):
        p = make_params()
        curve = st.boundary_curve(p)
        k = len(curve.omega) // 3
        for i in (k, 2 * k):
            point = st.PumpPoint(curve.s_total[i], curve.a_asym[i])
            val = st.dispersion(1j * curve.omega[i], point, p)
            assert abs(val) < 1e-8 * max(curve.s_total[i], 1.0)

    def test_symmetric_threshold_closed_form(self):
        p = make_params()
        curve = st.boundary_curve(p)
        i = np.argmin(np.abs(curve.a_asym) / np.maximum(curve.s_total, 1.0))
        assert curve.s_total[i] == pytest.approx(st.threshold_sc_a0(p), rel=1e-8)

    def test_threshold_formula(self):
        p = make_params(u_t=3.0, delta=-1.0)
        expect = 3.0**2 * (1 + 1) ** 2 / (2 * 0.01 * 10000 * (1e-4) ** 2 * 1.0)
        assert st.threshold_sc_a0(p) == pytest.approx(expect)


class TestRegimes:
    def test_carl_bound_value(self):
        assert st.carl_bound(make_params(delta=-1.0)) == pytest.approx(
            1 / np.sqrt(2)
        )

    def test_stable_classification(self):
        p = make_params()
        res = st.classify_regime(st.PumpPoint(0.1, 0.0), p)
        assert res.regime == "stable"

    def test_carl_above_asymmetry_bound(self):
        p = make_params()
        s = 2 * st.threshold_sc_a0(p)
        res = st.classify_regime(st.PumpPoint(s, 0.8 * s), p)
        assert res.regime == "carl"
        assert res.growth is not None

    def test_ordered_below_bound(self):
        p = make_params()
        s = 2 * st.threshold_sc_a0(p)
        res = st.classify_regime(st.PumpPoint(s, 0.3 * s), p)
        assert res.regime == "bgk-ordered"

    def test_cold_gas_flagged(self):
        p = make_params(u_t=0.0)
        res = st.classify_regime(st.PumpPoint(1.0, 0.0), p)
        assert res.low_confidence

    def test_s_bgk_reduces_to_sc_at_zero_asymmetry(self):
        p = make_params(u_t=30.0)
        assert st.s_bgk(p, 0.0) == pytest.approx(st.threshold_sc_a0(p))
