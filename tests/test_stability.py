from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from oracles import landau_integral_quadrature
from ringcarl import stability as st
from ringcarl.core import DomainError, SystemParams


def make_params(u_t=3.0, delta=-1.0, n=10000):
    return SystemParams.from_pump_split(
        0.0, 0.0, delta=delta, n_particles=n, u0=-1.0 / n, rho_r=0.01, u_t=u_t
    )


def _winding_number(point, p, corners, n0=64):
    """Winding of D along the closed rectangle through `corners` (oracle).

    Raises RuntimeError if the contour passes through or too close to a
    zero.
    """
    def fun(z):
        return st._dispersion_with_level(z, st.landau_integral(z, p), point, p.delta)

    ts = np.linspace(0.0, 1.0, n0, endpoint=False)
    pts = np.concatenate(
        [a + (b - a) * ts for a, b in zip(corners, corners[1:] + corners[:1])]
        + [corners[:1]]
    )
    _, _, dphi = st._refined_contour(fun, pts, *fun(pts))
    return int(round(dphi.sum() / (2.0 * np.pi)))


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
            b = landau_integral_quadrature(s, p)
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


class TestFaddeeva:
    """w(z) from Weideman's series and 1 + zeta Z from its asymptotic branch."""

    @staticmethod
    def _upper_half_plane(n, seed):
        """n points with Im z >= 0 and |z| in [1e-3, 1e3], a tenth on the real axis."""
        rng = np.random.default_rng(seed)
        r = 10.0 ** rng.uniform(-3.0, 3.0, n)
        z = r * np.exp(1j * rng.uniform(0.0, np.pi, n))
        z[: n // 10] = r[: n // 10] * (1 - 2 * (np.arange(n // 10) % 2))
        return z

    def test_array_path_matches_wofz(self):
        from scipy.special import wofz

        z = self._upper_half_plane(140_000, 5)
        ref = wofz(z)
        assert np.max(np.abs(st._faddeeva(z) - ref) / np.abs(ref)) <= 2e-14

    def test_scalar_path_matches_array_path(self):
        z = self._upper_half_plane(5_000, 6)
        scalar = np.array([st._faddeeva_scalar(complex(v)) for v in z])
        array = st._faddeeva(z)
        assert np.max(np.abs(scalar - array) / np.abs(array)) <= 1e-15

    # 1 + zeta Z(zeta) at zeta = i s / u_t, s = 1.31 - 0.29i, to 40 digits:
    #   mp.dps = 60; zeta = 1j * mpc("1.31", "-0.29") / mpf(u_t)
    #   1 + zeta * 1j * sqrt(pi) * exp(-zeta**2) * erfc(-1j * zeta)
    @pytest.mark.parametrize("u_t, ref", [
        (1e-3, 2.517957451232269677051290844578867521505e-7
         + 1.172268574169845757847626664011591254709e-7j),
        (1e-2, 2.517809972393576202039348820368786496692e-5
         + 1.172093272510986621764061704329493618090e-5j),
        (3.0, 0.4908460282564086392784471595268820198616
         + 0.06887073478326572597372047465366148052692j),
    ])
    def test_response_matches_40_digit_values(self, u_t, ref):
        zeta = 1j * (1.31 - 0.29j) / u_t
        array = complex(st._response(np.array(zeta))[0])
        scalar = st._response_scalar(zeta)[0]
        assert abs(array - ref) <= 1e-13 * abs(ref)
        assert abs(scalar - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("u_t", [1e-3, 0.5, 3.0, 30.0])
    def test_scalar_dispersion_matches_array(self, u_t):
        p = make_params(u_t=u_t)
        point = st.PumpPoint(20.0 / _prefactor(p), 6.0 / _prefactor(p))
        for s in (0.02 + 0.3j, 1.31 - 0.29j, 5.0 + 0j, 40.0 - 20.0j, 0.9j):
            for fun in (st.dispersion, st.dispersion_derivative):
                scalar = fun(s, point, p)
                array = complex(fun(np.array(s), point, p))
                assert type(scalar) is complex
                assert abs(scalar - array) <= 1e-13 * max(abs(array), 1.0)

    @pytest.mark.parametrize("u_t", [1e-3, 0.5, 3.0, 30.0])
    def test_derivative_matches_difference_quotient(self, u_t):
        p = make_params(u_t=u_t)
        point = st.PumpPoint(20.0 / _prefactor(p), 6.0 / _prefactor(p))
        for s in (0.02 + 0.3j, 1.31 - 0.29j, 5.0 + 0j, 40.0 - 20.0j):
            h = 1e-5 * abs(s)
            quotient = (st.dispersion(s + h, point, p) - st.dispersion(s - h, point, p)) / (2 * h)
            assert st.dispersion_derivative(s, point, p) == pytest.approx(quotient, rel=1e-6)

    def test_scalar_path_rejects_left_half_plane(self):
        p = make_params()
        point = st.PumpPoint(1.0, 0.0)
        for fun in (st.dispersion, st.dispersion_derivative):
            with pytest.raises(DomainError):
                fun(-0.1 + 0j, point, p)

    def test_small_temperature_root_solves_dispersion_to_rounding(self):
        """At u_t = 1e-3 (|zeta| ~ 1300) the asymptotic branch keeps every digit
        of D: the polished root solves it to rounding, not to ~3e-9."""
        p = make_params(u_t=1e-3)
        s_tot = 10.0 / _prefactor(p)
        point = st.PumpPoint(s_tot, 0.3 * s_tot)
        root = st.max_growth_rate(point, p)
        assert abs(root - (1.31 - 0.29j)) < 0.01
        assert abs(st.dispersion(root, point, p)) < 1e-12


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
        with pytest.raises(DomainError):
            st.PumpPoint(np.inf, 0.0)


def _prefactor(p):
    return p.n_particles * p.u0**2 * p.rho_r / (1 + p.delta**2)


class TestRootSearch:
    """The half-disc contour search: radius bound, cached table, moments."""

    # Strongly pumped cells of the sweep physics whose unstable root lies
    # beyond the old fixed search box Re s <= 10.
    @pytest.mark.parametrize(
        "s_over_sc, a_over_s", [(300, 0.9), (1000, 0.0), (1000, 0.5), (1000, 0.9)]
    )
    def test_strong_pump_root_found(self, s_over_sc, a_over_s):
        p = make_params()
        s = s_over_sc * st.threshold_sc_a0(p)
        point = st.PumpPoint(s, a_over_s * s)
        root = st.max_growth_rate(point, p)
        assert root is not None and root.real > 0
        assert abs(st.dispersion(root, point, p)) < 1e-8
        assert st.classify_regime(point, p).regime != "stable"
        # an independent count on a rectangle 20x the old search box
        corners = [1e-9 - 240j, 200.0 - 240j, 200.0 + 240j, 1e-9 + 240j]
        big = _winding_number(point, p, corners, n0=2000)
        assert st.count_unstable_roots(point, p) == big >= 1

    def test_sup_constant_is_axis_maximum(self):
        """_G_SUP is sup |s^2 I(s)| / prefactor on the axis, rounded up."""
        # on s = i omega, zeta = i s / u_t is real and s^2 K = -2i zeta^2 (1 + zeta Z)
        x = np.linspace(-60.0, 60.0, 1_200_001)
        g = -2j * x**2 * (1.0 + x * st._plasma_z(x))
        assert np.abs(g).max() <= st._G_SUP < np.abs(g).max() + 1e-4

    @pytest.mark.parametrize("u_t", [0.5, 3.0, 30.0])
    def test_integral_bounded_in_half_plane(self, u_t):
        p = make_params(u_t=u_t)
        bound = st._G_SUP * _prefactor(p)
        axis = 1j * np.linspace(-400.0, 400.0, 80_001)
        theta = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 2001)
        arcs = (np.geomspace(1e-2, 1e3, 60)[:, None] * np.exp(1j * theta)).ravel()
        for s in (axis[axis != 0], arcs):
            assert np.all(np.abs(st.landau_integral(s, p)) * np.abs(s) ** 2 <= bound)

    def test_radius_bounds_every_unstable_root(self):
        p = make_params()
        sc = st.threshold_sc_a0(p)
        for r, aos in [(0.0, 0.0), (2.0, 0.3), (300, 0.9), (1000, 0.5)]:
            point = st.PumpPoint(r * sc, aos * r * sc)
            radius = st._search_radius(point, p)
            assert radius == 2.0 ** round(np.log2(radius))
            for root in st._unstable_roots(point, p):
                assert abs(root) < radius

    def test_two_roots_from_moments(self):
        """A count of two is located from p_1 and p_2 and gives distinct roots."""
        p = make_params(delta=1.5)
        s = 300.0 / _prefactor(p)
        point = st.PumpPoint(s, 0.25 * s)
        assert st.count_unstable_roots(point, p) == 2
        roots = st._unstable_roots(point, p)
        assert len(roots) == 2 and abs(roots[0] - roots[1]) > 1.0
        for root in roots:
            assert root.real > 0
            assert abs(st.dispersion(root, point, p)) < 1e-8
        assert st.max_growth_rate(point, p) == max(roots, key=lambda r: r.real)

    def test_near_axis_root_polished(self):
        """A root just right of the axis, where Newton steps cross the axis."""
        p = make_params()
        s = 1.0256410256410255 * st.threshold_sc_a0(p)
        point = st.PumpPoint(s, 0.4125 * s)
        root = st.max_growth_rate(point, p)
        assert 0 < root.real < 1e-3
        assert abs(st.dispersion(root, point, p)) < 1e-10

    @pytest.mark.parametrize("u_t", [2.5, 3.0])
    def test_marginal_zero_on_contour_moves_axis(self, u_t):
        """At S = S_c, A = 0, D(0) = 0 up to rounding: a zero on the contour."""
        p = make_params(u_t=u_t)
        point = st.PumpPoint(st.threshold_sc_a0(p), 0.0)
        assert st.count_unstable_roots(point, p) == 0
        assert st.max_growth_rate(point, p) is None
        assert st.classify_regime(point, p).regime == "stable"

    @pytest.mark.parametrize(
        "delta, s_over_sc, a_over_s, expect",
        [
            (2.0, 100.0, 0.0, [0.0010008 - 0.0717854j, 0.0010008 + 0.0717854j]),
            (1.5, 20.0, 0.2, [0.0021850 - 0.0342625j]),
        ],
    )
    def test_cold_cells_located(self, delta, s_over_sc, a_over_s, expect):
        """Nearly cold cells with roots close to the axis."""
        p = make_params(u_t=0.01, delta=delta)
        s = s_over_sc * st.threshold_sc_a0(p)
        point = st.PumpPoint(s, a_over_s * s)
        roots = sorted(st._unstable_roots(point, p), key=lambda r: r.imag)
        assert len(roots) == st.count_unstable_roots(point, p) == len(expect)
        for root, want in zip(roots, expect):
            assert abs(st.dispersion(root, point, p)) < 1e-10
            assert abs(root - want) < 1e-7

    @pytest.mark.parametrize(
        "u_t, delta, s_over_sc, a_over_s",
        [(2.98, 4.02, 110.8, 0.704), (8.74, 4.48, 738.0, -0.297)],
    )
    def test_zero_near_contour_located(self, u_t, delta, s_over_sc, a_over_s):
        """A zero of D within a sample spacing of the axis, which a trapezoid
        rule for D'/D on the samples does not resolve."""
        p = make_params(u_t=u_t, delta=delta)
        s = s_over_sc * st.threshold_sc_a0(p)
        point = st.PumpPoint(s, a_over_s * s)
        roots = st._unstable_roots(point, p)
        assert len(roots) == st.count_unstable_roots(point, p) >= 1
        for root in roots:
            assert root.real > 0
            assert abs(st.dispersion(root, point, p)) < 1e-10
        # each root is also the only zero inside a small rectangle around it
        for root in roots:
            h = min(1e-3 * abs(root), 0.5 * root.real)
            corners = [root - h - 1j * h, root + h - 1j * h, root + h + 1j * h, root - h + 1j * h]
            assert _winding_number(point, p, corners) == 1

    def test_midpoint_at_rounding_level_is_a_zero(self):
        """A refinement midpoint within the rounding level of f is a zero on
        the contour, as a sample there would be."""
        def fun(z):
            return z - (1.0 + 3e-16j), np.full(np.shape(z), 1e-12)

        pts = np.array([1 - 1j, 1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
        with pytest.raises(RuntimeError, match="hit a zero"):
            st._refined_contour(fun, pts, *fun(pts))

    def test_one_table_per_physics_and_radius(self):
        p = make_params(u_t=2.5)
        sc = st.threshold_sc_a0(p)
        st._contour_table.cache_clear()
        for seed, r in enumerate(np.linspace(0.5, 3.0, 6)):
            for aos in (0.0, 0.4, 0.8):
                s, a = r * sc, aos * r * sc
                cell = replace(p.with_pump_split(s, a), seed=seed)
                st.max_growth_rate(st.PumpPoint(s, a), cell)
        info = st._contour_table.cache_info()
        assert info.currsize == info.misses <= 3

    @given(
        u_t=hst.floats(1e-3, 2e-2),
        delta=hst.floats(0.2, 2.5),
        sign=hst.sampled_from([-1.0, 1.0]),
        load=hst.floats(-2.0, 1.5),
        a_over_s=hst.floats(-1.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_temperature_count_matches_cold_quartic(
        self, u_t, delta, sign, load, a_over_s
    ):
        p = make_params(u_t=u_t, delta=sign * delta)
        s = 10.0**load / _prefactor(p)
        point = st.PumpPoint(s, a_over_s * s)
        cold = st._cold_roots(point, make_params(u_t=0.0, delta=sign * delta))
        assume(np.all(np.abs(cold.real) >= 0.1))
        assert st.count_unstable_roots(point, p) == np.sum(cold.real > 0)


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
