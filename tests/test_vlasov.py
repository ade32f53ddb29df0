import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import spline_filter1d

from ringcarl import vlasov as vl
from ringcarl.core import (
    DomainError,
    IntegrationDivergedError,
    SystemParams,
    coupling,
    force,
    steady_state_fields,
)

TWO_PI = 2 * np.pi


def make_params(s=8.0, a=2.0, **kw):
    base = dict(delta=-1.0, n_particles=1000, u0=-1e-3, rho_r=0.01, u_t=3.0)
    base.update(kw)
    return SystemParams.from_pump_split(s, a, **base)


class TestGrid:
    def test_unit_mass(self):
        g = vl.make_grid(make_params(), nx=64, nv=128)
        assert g.mass() == pytest.approx(1.0)

    def test_cold_gas_rejected(self):
        with pytest.raises(DomainError):
            vl.make_grid(make_params(u_t=0.0))

    def test_moments_of_equilibrium(self):
        p = make_params()
        g = vl.make_grid(p, nx=64, nv=256)
        theta, v_cm, ekin = vl.grid_moments(g)
        assert abs(theta) < 1e-14
        assert abs(v_cm) < 1e-12
        assert ekin == pytest.approx(p.u_t**2 / 4, rel=1e-6)

    def test_cosine_modulation_sets_theta(self):
        g = vl.make_grid(make_params(), nx=64, nv=128, cosine_eps=1e-2)
        theta, _, _ = vl.grid_moments(g)
        assert abs(theta) == pytest.approx(5e-3, rel=1e-10)


# Reference kernels.  The chi drift is checked against a direct evaluation
# of the trigonometric interpolant; the u kick against the per-node gather
# form of the spline shift, which the slice form in ringcarl.vlasov
# evaluates with the same taps in the same order and must match bit for bit.


def _ref_shift_periodic_chi(f: np.ndarray, shift_cells: np.ndarray) -> np.ndarray:
    """out[i, j] = p_j(2 pi (i - shift_cells[j]) / nx), p_j the interpolant of column j.

    p(x) = Re (1/nx) sum_k c_k e^{i k x} over the symmetric frequencies
    k = -nx/2 .. nx/2 - 1; taking the real part turns the Nyquist term of an
    even nx into c cos(nx x / 2).
    """
    nx = f.shape[0]
    c = np.fft.fft(f, axis=0)
    k = np.fft.fftfreq(nx, 1.0 / nx)
    x = TWO_PI * (np.arange(nx)[:, None] - np.asarray(shift_cells, dtype=float)[None, :]) / nx
    terms = c[None, :, :] * np.exp(1j * k[None, :, None] * x[:, None, :])
    return np.sum(terms, axis=1).real / nx


def _ref_shift_clamped_u(f: np.ndarray, shift_cells: np.ndarray) -> np.ndarray:
    """out[i, j] = f(i, j - shift_cells[i]); f is zero outside the u domain."""
    nv = f.shape[1]
    q = -np.asarray(shift_cells, dtype=float)
    base = np.floor(q).astype(int)
    npad = int(max(4, np.max(np.abs(base)) + 3))
    padded = np.zeros((f.shape[0], nv + 2 * npad), dtype=f.dtype)
    padded[:, npad : npad + nv] = f
    coef = spline_filter1d(padded, order=3, axis=1, mode="mirror")
    t = q - base
    w0, w1, w2, w3 = vl._bspline_weights(t)
    rows = np.arange(f.shape[0])[:, None]
    k = np.arange(nv)[None, :] + base[:, None] + npad
    out = w0[:, None] * coef[rows, k - 1]
    out += w1[:, None] * coef[rows, k]
    out += w2[:, None] * coef[rows, k + 1]
    out += w3[:, None] * coef[rows, k + 2]
    return out


def _shift_values(limit):
    """Fractional, integer and zero shifts, up to +-limit cells."""
    return st.one_of(
        st.floats(-limit, limit, allow_nan=False),
        st.integers(-limit, limit).map(float),
        st.just(0.0),
        st.just(-0.0),
    )


@st.composite
def _field_and_shifts(draw, along):
    """(f, shifts): f of 1..24 by 1..24, one shift per line along axis ``along``.

    The shifts reach past the length of the shifted axis and are in no order.
    """
    shape = (draw(st.integers(1, 24)), draw(st.integers(1, 24)))
    f = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
    n_lines, n_shifted = shape[1 - along], shape[along]
    limit = 3 * n_shifted + 5
    shifts = draw(st.lists(_shift_values(limit), min_size=n_lines, max_size=n_lines))
    return f, np.array(shifts)


class TestShifts:
    @settings(max_examples=300, deadline=None)
    @given(_field_and_shifts(along=0))
    def test_periodic_matches_interpolant(self, case):
        f, shifts = case
        scale = 1e-12 * (1.0 + np.max(np.abs(f)))
        np.testing.assert_allclose(vl.shift_periodic_chi(f, shifts),
                                   _ref_shift_periodic_chi(f, shifts), rtol=0, atol=scale)

    @settings(max_examples=100, deadline=None)
    @given(_field_and_shifts(along=0))
    def test_periodic_half_shifts_compose(self, case):
        """Two half shifts are one full shift: what lets a run fuse its drifts.

        Not for the Nyquist mode of an even nx, which is scaled by
        cos(pi shift), so f is taken without it.
        """
        f, shifts = case
        spectrum = np.fft.rfft(f, axis=0)
        if f.shape[0] % 2 == 0:
            spectrum[-1] = 0.0
        f = np.fft.irfft(spectrum, n=f.shape[0], axis=0)
        half = vl.shift_periodic_chi(vl.shift_periodic_chi(f, 0.5 * shifts), 0.5 * shifts)
        np.testing.assert_allclose(half, vl.shift_periodic_chi(f, shifts),
                                   rtol=0, atol=1e-12 * (1.0 + np.max(np.abs(f))))

    @settings(max_examples=100, deadline=None)
    @given(_field_and_shifts(along=0))
    def test_periodic_keeps_column_mass(self, case):
        """The k = 0 mode, hence each column's sum, is untouched."""
        f, shifts = case
        out = vl.shift_periodic_chi(f, shifts)
        np.testing.assert_allclose(np.sum(out, axis=0), np.sum(f, axis=0),
                                   rtol=0, atol=1e-13 * f.shape[0] * (1.0 + np.max(np.abs(f))))

    @settings(max_examples=300, deadline=None)
    @given(_field_and_shifts(along=1))
    def test_clamped_matches_gather_reference(self, case):
        f, shifts = case
        assert np.array_equal(vl.shift_clamped_u(f, shifts), _ref_shift_clamped_u(f, shifts))

    def test_periodic_integer_shift_exact(self):
        """Integer shifts are rolls, on odd and even grids alike."""
        rng = np.random.default_rng(0)
        for nx in (15, 16):
            f = rng.random((nx, 8))
            shifts = np.array([3.0, -3.0, 0.0, 1.0, nx, -nx - 2, 2 * nx + 5, -0.0])
            out = vl.shift_periodic_chi(f, shifts)
            for j, s in enumerate(shifts.astype(int)):
                np.testing.assert_allclose(out[:, j], np.roll(f[:, j], s), rtol=0, atol=1e-14)

    def test_clamped_zero_shift_identity(self):
        rng = np.random.default_rng(1)
        f = rng.random((8, 32))
        out = vl.shift_clamped_u(f, np.zeros(8))
        np.testing.assert_allclose(out, f, atol=1e-13)

    def test_clamped_integer_shift_exact(self):
        rng = np.random.default_rng(2)
        f = np.zeros((4, 32))
        f[:, 10:20] = rng.random((4, 10))
        out = vl.shift_clamped_u(f, np.full(4, 2.0))
        np.testing.assert_allclose(out[:, 12:22], f[:, 10:20], atol=1e-12)

    def test_clamped_small_shift_conserves_interior_mass(self):
        """Fractional shifts of a compact bump lose essentially nothing."""
        x = np.linspace(-1, 1, 64)
        f = np.tile(np.exp(-((x * 6) ** 2)), (6, 1))
        out = vl.shift_clamped_u(f, np.full(6, 0.37))
        assert np.sum(out) == pytest.approx(np.sum(f), rel=1e-12)

    def test_mass_leaves_through_boundary(self):
        f = np.zeros((2, 16))
        f[:, -2] = 1.0
        out = vl.shift_clamped_u(f, np.full(2, 4.0))
        assert np.sum(out) < 0.1 * np.sum(f)


class TestStep:
    def test_equilibrium_is_stationary(self):
        p = make_params(s=8.0, a=0.0)
        g = vl.make_grid(p, nx=32, nv=64)
        fl = steady_state_fields(p)
        g2, fl2 = vl.vlasov_step(g, fl, p, 1e-2)
        assert np.max(np.abs(g2.f - g.f)) < 1e-13
        np.testing.assert_allclose(fl2, fl, atol=1e-12)

    def test_free_streaming_conserves_mass_and_u_marginal(self):
        p = make_params(s=0.0, a=0.0)
        g = vl.make_grid(p, nx=32, nv=64, cosine_eps=0.3)
        fl = steady_state_fields(p)
        marg0 = np.sum(g.f, axis=0)
        for _ in range(50):
            g, fl = vl.vlasov_step(g, fl, p, 2e-2)
        assert g.mass() == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(np.sum(g.f, axis=0), marg0, atol=1e-9)

    def test_kick_preserves_chi_marginal(self):
        """The u-kick must not change theta (it shifts along u only)."""
        p = make_params(s=50.0, a=10.0)
        g = vl.make_grid(p, nx=32, nv=64, cosine_eps=0.2)
        fl = np.array([1.0, 0.5j, 0.2, 0.8 + 0.1j])
        col0 = np.sum(g.f, axis=1).copy()
        kick = force(np.sin(g.chi), np.cos(g.chi), coupling(fl), p)
        out = vl.shift_clamped_u(g.f, kick * 0.01 / g.du)
        np.testing.assert_allclose(np.sum(out, axis=1), col0, rtol=1e-12)

    def test_mirror_covariance(self):
        """Swapping the pumps while sending chi -> -chi, u -> -u and
        reversing (a+, a-, b+, b-) commutes with the time evolution."""
        p = make_params(s=50.0, a=10.0, u0=-0.5, rho_r=0.5)
        pm = p.with_pumps(p.eta_minus, p.eta_plus)
        g = vl.make_grid(p, nx=32, nv=64, cosine_eps=0.2)
        # no mirror symmetry in the initial state
        g.f *= (1.0 + 0.3 * np.sin(g.chi))[:, None] * np.exp(0.1 * g.u)[None, :]
        fl = np.array([1.0, 0.5j, 0.2, 0.8 + 0.1j])

        def mirror(grid, a):
            out = grid.copy()
            out.f = grid.f[-np.arange(grid.nx) % grid.nx, ::-1]
            return out, a[::-1]

        def evolve(grid, a, params):
            for _ in range(40):
                grid, a = vl.vlasov_step(grid, a, params, 0.05)
            return grid, a

        ga, aa = evolve(*mirror(g, fl), pm)
        gb, ab = mirror(*evolve(g, fl, p))
        np.testing.assert_allclose(ga.f, gb.f, rtol=1e-10, atol=1e-12 * np.max(gb.f))
        np.testing.assert_allclose(aa, ab, rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(ga.f - g.f)) > 1e-2  # the state moved

    def test_bad_dt(self):
        p = make_params()
        g = vl.make_grid(p, nx=16, nv=32)
        with pytest.raises(DomainError):
            vl.vlasov_step(g, steady_state_fields(p), p, -1.0)


class TestRun:
    def test_series_and_snapshots(self):
        p = make_params(s=8.0, a=2.0)
        series, snaps = vl.run_vlasov(
            p, t_end=0.5, dt=2.5e-2, sample_every=0.1, nx=32, nv=64,
            snapshot_every=0.25,
        )
        assert len(series) == 6
        assert [t for t, _ in snaps] == [0.0, 0.25, 0.5]
        assert snaps[-1][1].mass() == pytest.approx(1.0, abs=1e-8)

    def test_initial_snapshot_survives_run(self):
        """Snapshots hold the step's grids uncopied; the tau = 0 one stays put."""
        p = make_params(s=8.0, a=2.0)
        g = vl.make_grid(p, nx=32, nv=64, cosine_eps=0.1)
        f0 = g.f.copy()
        _, snaps = vl.run_vlasov(p, grid=g, t_end=0.5, dt=2.5e-2, snapshot_every=0.25)
        tau0, first = snaps[0]
        assert tau0 == 0.0 and first is not g
        assert np.array_equal(first.f, f0) and first.lost_mass == 0.0
        assert np.array_equal(g.f, f0)
        assert not np.array_equal(snaps[1][1].f, f0)

    def test_momentum_invariant_closed_system(self):
        p = make_params(s=8.0, a=2.0)
        g = vl.make_grid(p, nx=64, nv=128, cosine_eps=1e-2)
        fl = np.array([0.5, 0.1j, 0.2, 0.4])
        p0 = vl.kinetic_momentum_invariant(g, fl, p)
        for _ in range(200):
            g, fl = vl.vlasov_step(g, fl, p, 5e-3, hamiltonian=True)
        p1 = vl.kinetic_momentum_invariant(g, fl, p)
        assert abs(p1 - p0) / max(abs(p0), 1.0) < 1e-6

    def test_divergence_reports_step_time(self):
        p = make_params()
        g = vl.make_grid(p, nx=16, nv=32)
        g.f[3, 5] = np.nan
        with pytest.raises(IntegrationDivergedError) as info:
            vl.run_vlasov(p, grid=g, t_end=0.1, dt=0.01)
        assert info.value.tau == 0.01

    def test_run_matches_gather_reference(self, monkeypatch):
        """A whole run through the slice kick equals one through the gathers."""
        p = make_params(s=50.0, a=10.0, u0=-0.5, rho_r=0.5)
        fl = np.array([1.0, 0.5j, 0.2, 0.8 + 0.1j])

        def run():
            g = vl.make_grid(p, nx=32, nv=64, cosine_eps=0.2)
            return vl.run_vlasov(p, grid=g, fields=fl, t_end=2.0, dt=0.05,
                                 sample_every=0.1, snapshot_every=0.5)

        series, snaps = run()
        with monkeypatch.context() as m:
            m.setattr(vl, "shift_clamped_u", _ref_shift_clamped_u)
            ref_series, ref_snaps = run()
        for name in ("tau", "theta", "v_cm", "intensities", "kinetic_energy", "field_momentum"):
            assert np.array_equal(getattr(series, name), getattr(ref_series, name)), name
        assert len(snaps) == len(ref_snaps) == 5
        for (tau, g), (ref_tau, ref_g) in zip(snaps, ref_snaps):
            assert tau == ref_tau
            assert np.array_equal(g.f, ref_g.f)
            assert g.lost_mass == ref_g.lost_mass
        assert np.ptp(series.v_cm) > 0.0  # the kick moved the gas

    @pytest.mark.parametrize("nx, physics", [
        (33, dict(s=50.0, a=10.0, u0=-0.5, rho_r=0.5)),
        (32, dict(s=8.0, a=2.0)),
    ])
    def test_run_matches_repeated_steps(self, nx, physics):
        """Fusing the half drifts between sync points changes rounding only.

        On an even grid this holds while f carries no Nyquist mode in chi,
        which a drift scales by cos(pi shift) rather than moving: the
        strongly driven case builds one of 1e-8 by tau = 2 at nx = 32, where
        fused and unfused f then differ by 1e-10, so it runs at nx = 33.
        """
        p = make_params(**physics)
        fl = np.array([1.0, 0.5j, 0.2, 0.8 + 0.1j])
        g = vl.make_grid(p, nx=nx, nv=64, cosine_eps=0.2)
        series, snaps = vl.run_vlasov(p, grid=g, fields=fl, t_end=2.0, dt=0.05,
                                      sample_every=0.25, snapshot_every=0.5)
        assert [tau for tau, _ in snaps] == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
        for k in range(1, 9):
            for _ in range(5):
                g, fl = vl.vlasov_step(g, fl, p, 0.05)
            theta, v_cm, _ = vl.grid_moments(g)
            assert abs(series.theta[k] - theta) < 1e-14
            np.testing.assert_allclose(series.intensities[k], np.abs(fl) ** 2, rtol=1e-12)
            assert series.v_cm[k] == pytest.approx(v_cm, rel=1e-12, abs=1e-15)
            if k % 2 == 0:
                snap = snaps[k // 2][1]
                assert np.max(np.abs(snap.f - g.f)) < 1e-12 * np.max(g.f)
                # rounding of two mass sums per step, on a unit mass
                assert snap.lost_mass == pytest.approx(g.lost_mass, abs=1e-13)
        assert abs(series.theta[-1] - series.theta[0]) > 1e-2  # the state moved
