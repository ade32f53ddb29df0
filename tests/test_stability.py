from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from oracles import landau_integral_quadrature
from ringcarl import stability as st
from ringcarl.core import DomainError, SystemParams


def make_params(u_t=3.0, delta=-1.0, n=10000):
    return SystemParams(delta=delta, n_particles=n, u0=-1.0 / n, rho_r=0.01, u_t=u_t)


def _winding_number(point, p, corners, n0=64):
    """Winding of D along the closed rectangle through `corners` (oracle).

    Raises RuntimeError if the contour passes through or too close to a
    zero.
    """
    def fun(z):
        return st._dispersion_values(z, *st._landau_pair(z, p), point.a_asym, point.s_total,
                                     p.delta)[:2]

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
        assert abs(array - ref) <= 1e-13 * abs(ref)

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
        root = st.max_growth_rate(point, replace(p, s_total=s))
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
        g = -2j * x**2 * st._response(x)[0]
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
            radius = st._search_radii([point], p)[0]
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
        for r in np.linspace(0.5, 3.0, 6):
            for aos in (0.0, 0.4, 0.8):
                s, a = r * sc, aos * r * sc
                st.max_growth_rate(st.PumpPoint(s, a), replace(p, s_total=s, a_asym=a))
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

    def test_warm_gas_compares_s_bgk(self):
        """From u_t = WARM_GAS_UT on, an unstable cell within the asymmetry
        bound is bgk-ordered above S_BGK and carl below it."""
        p = make_params(u_t=30.0)
        s = 2 * st.threshold_sc_a0(p)
        above, below = st.PumpPoint(s, 0.3 * s), st.PumpPoint(s, 0.6 * s)
        assert st.s_bgk(p, above.a_asym) < s < st.s_bgk(p, below.a_asym)
        assert 0.6 < st.carl_bound(p)
        results = st.classify_regimes([above, below], p)
        assert [r.regime for r in results] == ["bgk-ordered", "carl"]
        assert all(r.growth.real > 0 and not r.low_confidence for r in results)

    def test_s_bgk_reduces_to_sc_at_zero_asymmetry(self):
        p = make_params(u_t=30.0)
        assert st.s_bgk(p, 0.0) == pytest.approx(st.threshold_sc_a0(p))


def _result_key(res):
    """A classification with its floats as hex text: equal keys are bitwise equal."""
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    growth = None if res.growth is None else (res.growth.real.hex(), res.growth.imag.hex())
    return res.regime, growth, res.low_confidence


def _per_point(point, p):
    try:
        return st.classify_regime(point, p)
    except RuntimeError as exc:
        return exc


class TestBatch:
    """classify_regimes: each cell's result is a function of that cell alone."""

    @pytest.mark.parametrize("u_t", [0.05, 3.0])
    def test_array_path_is_length_independent(self, u_t):
        """Element i of an array evaluation is the length-1 evaluation of
        element i, on both branches of 1 + zeta Z; D and D' at a Python
        complex s are the element of the array evaluation."""
        p = make_params(u_t=u_t)
        rng = np.random.default_rng(11)
        r = 10.0 ** rng.uniform(-2.0, 2.0, 300)
        s = r * np.exp(1j * rng.uniform(-0.5 * np.pi, 0.5 * np.pi, 300))
        s[:30] = 1j * r[:30]
        zeta = 1j * s / u_t
        assert np.sum(np.abs(zeta) >= st._ASYMPTOTIC_ZETA) >= 30
        assert np.sum(np.abs(zeta) < st._ASYMPTOTIC_ZETA) >= 30
        whole = st.landau_integral(s, p)
        single = np.array([st.landau_integral(s[i:i + 1], p)[0] for i in range(s.size)])
        assert whole.tobytes() == single.tobytes()
        w_whole = st._faddeeva(zeta[np.abs(zeta) < 50])
        w_single = np.concatenate([st._faddeeva(z[None]) for z in zeta[np.abs(zeta) < 50]])
        assert w_whole.tobytes() == w_single.tobytes()
        point = st.PumpPoint(20.0 / _prefactor(p), 6.0 / _prefactor(p))
        for fun in (st.dispersion, st.dispersion_derivative):
            whole = fun(s, point, p)
            single = np.array([fun(complex(v), point, p) for v in s])
            assert whole.tobytes() == single.tobytes()

    @staticmethod
    def _check_batch(points, p, seed=0):
        """One batch, a shuffled batch and per-point calls agree bitwise."""
        batch = [_result_key(r) for r in st.classify_regimes(points, p)]
        order = np.random.default_rng(seed).permutation(len(points))
        shuffled = st.classify_regimes([points[i] for i in order], p)
        unshuffled = [None] * len(points)
        for k, i in enumerate(order):
            unshuffled[i] = _result_key(shuffled[k])
        assert unshuffled == batch
        assert [_result_key(_per_point(q, p)) for q in points] == batch
        return batch

    def test_sweep_grid(self):
        """The dense sweep grid: stable cells, count-1 cells and cells whose
        contour needs refinement."""
        p = make_params()
        sc = st.threshold_sc_a0(p)
        points = [st.PumpPoint(r * sc, aos * r * sc)
                  for r in np.linspace(0.25, 3.0, 40) for aos in np.linspace(0.0, 0.9, 25)]
        stats = st.SearchStats()
        st.classify_regimes(points, p, stats)
        assert stats.refined >= 5
        assert 1 <= stats.max_newton_iterations <= 60
        batch = self._check_batch(points, p)
        assert {k[0] for k in batch} == {"stable", "bgk-ordered", "carl"}
        assert stats.polished == sum(k[0] != "stable" for k in batch)

    def test_two_root_cell_in_a_batch(self):
        p = make_params(delta=1.5)
        s = 300.0 / _prefactor(p)
        points = [st.PumpPoint(f * s, aos * f * s)
                  for f in (0.01, 0.5, 1.0) for aos in (0.0, 0.25, 0.5, 0.9)]
        stats = st.SearchStats()
        st.classify_regimes(points, p, stats)
        assert st.count_unstable_roots(points[9], p) == 2
        self._check_batch(points, p, seed=1)
        assert stats.polished >= sum(
            st.count_unstable_roots(q, p) for q in points)

    def test_cold_gas(self):
        p = make_params(u_t=0.0)
        points = [st.PumpPoint(10.0**load / _prefactor(p), aos * 10.0**load / _prefactor(p))
                  for load in (-2.0, 0.0, 1.0) for aos in (0.0, 0.5, 0.95)]
        batch = self._check_batch(points, p, seed=2)
        ordered = [k for k in batch if k[0] == "bgk-ordered"]
        assert ordered and all(k[2] for k in ordered)

    def test_newton_failure_stays_in_its_cell(self, monkeypatch):
        """A polish that meets D' = 0 fails its own cell and no other."""
        p = make_params()
        sc = st.threshold_sc_a0(p)
        points = [st.PumpPoint(r * sc, aos * r * sc)
                  for r in (0.5, 1.5, 2.0, 3.0) for aos in (0.0, 0.3, 0.8)]
        clean = [_result_key(r) for r in st.classify_regimes(points, p)]
        victim = points[7]
        assert clean[7][0] != "stable"
        values = st._dispersion_values

        def flat_at_victim(s, i_s, di_s, a_asym, s_total, delta):
            f, level, df = values(s, i_s, di_s, a_asym, s_total, delta)
            hit = (a_asym == victim.a_asym) & (s_total == victim.s_total)
            return f, level, np.where(hit, 0.0, df)

        monkeypatch.setattr(st, "_dispersion_values", flat_at_victim)
        batch = self._check_batch(points, p, seed=3)
        assert batch[7] == (
            "RuntimeError", "found 0 distinct unstable roots for a winding count of 1")
        assert batch[:7] + batch[8:] == clean[:7] + clean[8:]
