import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringcarl import stability
from ringcarl import vlasov as vl
from ringcarl.core import (
    DomainError,
    IntegrationDivergedError,
    SystemParams,
    coupling,
    force,
    momentum_invariant,
    steady_state_fields,
)

TWO_PI = 2 * np.pi


def make_params(s=8.0, a=2.0, **kw):
    base = dict(delta=-1.0, n_particles=1000, u0=-1e-3, rho_r=0.01, u_t=3.0)
    base.update(kw)
    return SystemParams(s_total=s, a_asym=a, **base)


def run_kept(params, **kw):
    """run_vlasov, keeping copies of the snapshots it hands out (their
    grids are valid only during the call): (series, [(tau, grid)], final)."""
    snaps = []
    series, final = vl.run_vlasov(
        params, snapshot=lambda tau, grid: snaps.append((tau, grid.copy())), **kw)
    return series, snaps, final


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


# Reference kernels: direct evaluations of trigonometric interpolants.  The
# chi drift moves the periodic interpolant of each column; the u kick moves
# the interpolant of each row zero-padded to the smallest odd 3-5-7-smooth
# length n >= nv + ceil(max |shift|) + 2, its modes damped by the
# filamentation filter, then crops it to the nv nodes.


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


def _ref_padded_length(f: np.ndarray, shift_cells: np.ndarray) -> int:
    """Odd n >= nv + ceil(max |shift|) + 2 with no prime factor but 3, 5 and 7."""
    n = f.shape[1] + int(np.ceil(np.max(np.abs(shift_cells)))) + 2
    while True:
        rest = n
        for p in (3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _ref_padded_interpolant(f: np.ndarray, shift_cells: np.ndarray, nodes: np.ndarray):
    """p_i(2 pi (nodes - shift_cells[i]) / n), p_i the filtered interpolant of row i padded to n.

    p(x) = Re (1/n) sum_k s_k c_k e^{i k x} over k = -(n-1)/2 .. (n-1)/2,
    with s_k = exp(-36 w (2 |k| / (n - 1))^16), w = max_i 4 q_i (1 - q_i)
    and q_i the fractional part of row i's shift.
    """
    n = _ref_padded_length(f, shift_cells)
    shifts = np.asarray(shift_cells, dtype=float)
    c = np.fft.fft(f, n=n, axis=1)
    k = np.fft.fftfreq(n, 1.0 / n)
    q = shifts - np.floor(shifts)
    c *= np.exp(-36.0 * np.max(4.0 * q * (1.0 - q)) * (2.0 * np.abs(k) / (n - 1)) ** 16)
    x = TWO_PI * (nodes[None, :] - shifts[:, None]) / n
    terms = c[:, None, :] * np.exp(1j * k[None, None, :] * x[:, :, None])
    return np.sum(terms, axis=2).real / n


def _ref_shift_clamped_u(f: np.ndarray, shift_cells: np.ndarray) -> np.ndarray:
    """out[i, j] = f(i, j - shift_cells[i]), the padded interpolant cropped to j < nv."""
    return _ref_padded_interpolant(f, shift_cells, np.arange(f.shape[1]))


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
    def test_clamped_matches_interpolant(self, case):
        f, shifts = case
        scale = 1e-12 * (1.0 + np.max(np.abs(f)))
        np.testing.assert_allclose(vl.shift_clamped_u(f, shifts),
                                   _ref_shift_clamped_u(f, shifts), rtol=0, atol=scale)

    @settings(max_examples=100, deadline=None)
    @given(_field_and_shifts(along=1))
    def test_clamped_mass_is_kept_or_cropped(self, case):
        """Each row's sum in the domain plus its sum cropped from the padding
        is the input row's sum (the k = 0 mode): no mass wraps or vanishes."""
        f, shifts = case
        nv = f.shape[1]
        cropped = _ref_padded_interpolant(
            f, shifts, np.arange(nv, _ref_padded_length(f, shifts)))
        kept = vl.shift_clamped_u(f, shifts)
        np.testing.assert_allclose(np.sum(kept, axis=1) + np.sum(cropped, axis=1),
                                   np.sum(f, axis=1),
                                   rtol=0, atol=1e-13 * nv * (1.0 + np.max(np.abs(f))))

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
        kick = force(np.exp(1j * g.chi), coupling(fl), p)
        out = vl.shift_clamped_u(g.f, kick * 0.01 / g.du)
        np.testing.assert_allclose(np.sum(out, axis=1), col0, rtol=1e-12)

    def test_mirror_covariance(self):
        """Swapping the pumps while sending chi -> -chi, u -> -u and
        reversing (a+, a-, b+, b-) commutes with the time evolution."""
        p = make_params(s=50.0, a=10.0, u0=-0.5, rho_r=0.5)
        pm = replace(p, a_asym=-p.a_asym)
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

    @staticmethod
    def narrow_grid(p):
        """A uniform Maxwellian cut at u = +-u_t, so its edges hold mass."""
        chi = 2 * np.pi * np.arange(16) / 16
        u = np.linspace(-p.u_t, p.u_t, 32)
        g = vl.PhaseSpaceGrid(chi, u, np.outer(np.ones(16), np.exp(-((u / p.u_t) ** 2))))
        g.f /= g.mass()
        return g

    def test_mass_loss_warns(self):
        """A kick pushing more than OVERFLOW_WARN out of the domain in one
        step warns, while the total stays below OVERFLOW_FAIL."""
        p = make_params()
        fl = 30.0 * np.array([1.0, 0.5j, 0.2, 0.8 + 0.1j])
        with pytest.warns(RuntimeWarning, match="through the u boundary"):
            g, _ = vl.vlasov_step(self.narrow_grid(p), fl, p, 0.01)
        assert vl.OVERFLOW_WARN < g.lost_mass < vl.OVERFLOW_FAIL

    def test_mass_loss_fails(self):
        """Once more than OVERFLOW_FAIL has left in total the step raises."""
        p = make_params()
        fl = 3000.0 * np.array([1.0, 0.5j, 0.2, 0.8 + 0.1j])
        with pytest.raises(DomainError, match="truncated u domain"):
            vl.vlasov_step(self.narrow_grid(p), fl, p, 0.01)


class TestRun:
    def test_series_and_snapshots(self):
        p = make_params(s=8.0, a=2.0)
        series, snaps, final = run_kept(
            p, t_end=0.5, dt=2.5e-2, sample_every=0.1, nx=32, nv=64,
            snapshot_every=0.25,
        )
        assert len(series) == 6
        assert [t for t, _ in snaps] == [0.0, 0.25, 0.5]
        assert snaps[-1][1].mass() == pytest.approx(1.0, abs=1e-8)
        assert np.array_equal(final.f, snaps[-1][1].f)

    def test_initial_snapshot_survives_run(self):
        """The tau = 0 snapshot is the initial grid, and the run writes its
        steps into arrays of its own: the caller's grid stays put."""
        p = make_params(s=8.0, a=2.0)
        g = vl.make_grid(p, nx=32, nv=64, cosine_eps=0.1)
        f0 = g.f.copy()
        _, snaps, final = run_kept(p, grid=g, t_end=0.5, dt=2.5e-2, snapshot_every=0.25)
        tau0, first = snaps[0]
        assert tau0 == 0.0
        assert np.array_equal(first.f, f0) and first.lost_mass == 0.0
        assert np.array_equal(g.f, f0) and g.lost_mass == 0.0
        assert not np.array_equal(snaps[1][1].f, f0)
        assert not np.shares_memory(final.f, g.f)

    def test_memory_does_not_grow_with_snapshots(self):
        """The run keeps no snapshot: with 40 of them it peaks within one
        grid of the same run with 2 (tracemalloc sees numpy's arrays)."""
        p = make_params(s=8.0, a=2.0)
        grid = vl.make_grid(p, nx=32, nv=64, cosine_eps=0.1)

        def peak(snapshot_every):
            taus = []
            tracemalloc.start()
            try:
                vl.run_vlasov(p, grid=grid, t_end=0.975, dt=0.025, snapshot_every=snapshot_every,
                              snapshot=lambda tau, g: taus.append(tau))
                return tracemalloc.get_traced_memory()[1], len(taus)
            finally:
                tracemalloc.stop()

        for every in (0.025, 0.975):  # fill the drift phase-table cache first
            peak(every)
        (many, n_many), (few, n_few) = peak(0.025), peak(0.975)
        assert (n_many, n_few) == (40, 2)
        assert many <= few + grid.f.nbytes

    def test_momentum_invariant_closed_system(self):
        p = make_params(s=8.0, a=2.0)
        g = vl.make_grid(p, nx=64, nv=128, cosine_eps=1e-2)
        fl = np.array([0.5, 0.1j, 0.2, 0.4])
        p0 = momentum_invariant(vl.grid_moments(g)[1], fl, p)
        for _ in range(200):
            g, fl = vl.vlasov_step(g, fl, p, 5e-3, hamiltonian=True)
        p1 = momentum_invariant(vl.grid_moments(g)[1], fl, p)
        assert abs(p1 - p0) / max(abs(p0), 1.0) < 1e-6

    def test_divergence_reports_step_time(self):
        p = make_params()
        g = vl.make_grid(p, nx=16, nv=32)
        g.f[3, 5] = np.nan
        with pytest.raises(IntegrationDivergedError) as info:
            vl.run_vlasov(p, grid=g, t_end=0.1, dt=0.01)
        assert info.value.tau == 0.01

    def test_run_matches_interpolant_reference(self, monkeypatch):
        """A whole run through the FFT kick equals one through the direct
        evaluation of the padded interpolant, to rounding."""
        p = make_params(s=50.0, a=10.0, u0=-0.5, rho_r=0.5)
        fl = np.array([1.0, 0.5j, 0.2, 0.8 + 0.1j])

        def run():
            g = vl.make_grid(p, nx=32, nv=64, cosine_eps=0.2)
            return run_kept(p, grid=g, fields=fl, t_end=2.0, dt=0.05,
                            sample_every=0.1, snapshot_every=0.5)

        series, snaps, _ = run()
        with monkeypatch.context() as m:
            m.setattr(vl, "shift_clamped_u",
                      lambda f, shifts, space: _ref_shift_clamped_u(f, shifts))
            ref_series, ref_snaps, _ = run()
        for name in ("tau", "theta", "v_cm", "intensities", "kinetic_energy", "field_momentum"):
            np.testing.assert_allclose(getattr(series, name), getattr(ref_series, name),
                                       rtol=0, atol=1e-12, err_msg=name)
        assert len(snaps) == len(ref_snaps) == 5
        for (tau, g), (ref_tau, ref_g) in zip(snaps, ref_snaps):
            assert tau == ref_tau
            assert np.max(np.abs(g.f - ref_g.f)) < 1e-12 * np.max(ref_g.f)
            assert g.lost_mass == pytest.approx(ref_g.lost_mass, abs=1e-12)
        assert np.ptp(series.v_cm) > 0.0  # the kick moved the gas

    def test_nonlinear_wave_run_stays_in_domain(self):
        """The fig2 travelling-wave run past saturation (64 x 128 grid, to
        tau = 20): no step loses mass through the u boundary, and f
        undershoots zero by at most 1e-3 of its peak."""
        n = 10_000
        base = make_params(0.0, 0.0, n_particles=n, u0=-1.0 / n)
        s = 2.0 * stability.threshold_sc_a0(base)
        p = replace(base, s_total=s, a_asym=0.3 * s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            min_f = []
            series, _ = vl.run_vlasov(
                p, t_end=20.0, dt=1e-2, cosine_eps=0.05, nx=64, nv=128, snapshot_every=1.0,
                snapshot=lambda tau, g: min_f.append(np.min(g.f) / np.max(g.f)))
        assert abs(series.theta[-1]) > 0.1  # the wave formed
        assert len(min_f) == 21 and min(min_f) >= -1e-3

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
        series, snaps, _ = run_kept(p, grid=g, fields=fl, t_end=2.0, dt=0.05,
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


class TestSlabs:
    """Inside a run the shifts split their lines into slabs on a thread pool;
    every line is transformed as on its own, so the bits do not depend on
    the slab count, and the pool lives only as long as the run."""

    @pytest.fixture(autouse=True)
    def small_slabs(self, monkeypatch):
        monkeypatch.setattr(vl, "MIN_SLAB_CELLS", 1)

    @staticmethod
    def check_threads(names, slabs):
        """Every call worked ``slabs`` slabs, on more than one thread if
        slabs > 1 (an idle pool thread may take two slabs of a call)."""
        assert len(names) % slabs == 0
        assert len(set(names)) == 1 if slabs == 1 else 1 < len(set(names)) <= slabs

    @staticmethod
    def slab_threads(monkeypatch):
        """Record the thread that works each slab."""
        names = []
        run_slabs = vl._run_slabs

        def recording(work, lines, cells, space):
            def recorded(a, b):
                names.append(threading.current_thread().name)
                work(a, b)
            run_slabs(recorded, lines, cells, space)

        monkeypatch.setattr(vl, "_run_slabs", recording)
        return names

    @pytest.mark.parametrize("shape", [(33, 65), (64, 129)])
    def test_shifts_bitwise_for_any_slab_count(self, shape, monkeypatch):
        rng = np.random.default_rng(7)
        f = rng.standard_normal(shape)
        chi_shifts = rng.uniform(-3 * shape[0], 3 * shape[0], shape[1])
        u_shifts = rng.uniform(-0.7, 0.4, shape[0])
        u_shifts[::5] = 0.0
        names = self.slab_threads(monkeypatch)
        out = {}
        for slabs in (1, 2, 3):
            monkeypatch.setattr(vl, "_cpu_slabs", lambda slabs=slabs: slabs)
            names.clear()
            with vl._Workspace() as space:
                out[slabs] = (vl.shift_periodic_chi(f, chi_shifts, space=space),
                              vl.shift_clamped_u(f, u_shifts, space))
            assert len(names) == 2 * slabs
            self.check_threads(names, slabs)
        for slabs in (2, 3):
            for got, want in zip(out[slabs], out[1]):
                assert got.tobytes() == want.tobytes()
                assert got.strides == want.strides

    @pytest.mark.parametrize("shape", [(33, 65), (64, 129)])
    def test_drift_over_its_input_is_bitwise(self, shape, monkeypatch):
        """Where two drifts meet, a run's drift writes over its own input:
        inline and in slabs, that equals the drift into a new array."""
        rng = np.random.default_rng(11)
        f = rng.standard_normal(shape)
        shifts = rng.uniform(-3 * shape[0], 3 * shape[0], shape[1])
        want = vl.shift_periodic_chi(f, shifts)
        got = f.copy()
        assert vl.shift_periodic_chi(got, shifts, out=got) is got
        assert got.tobytes() == want.tobytes()
        names = self.slab_threads(monkeypatch)
        for slabs in (2, 3):
            monkeypatch.setattr(vl, "_cpu_slabs", lambda slabs=slabs: slabs)
            names.clear()
            got = f.copy()
            with vl._Workspace() as space:
                vl.shift_periodic_chi(got, shifts, out=got, space=space)
            self.check_threads(names, slabs)
            assert len(names) == slabs
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("nx, nv", [(33, 65), (64, 129)])
    def test_run_bitwise_for_any_slab_count(self, nx, nv, monkeypatch):
        p = make_params(s=50.0, a=10.0, u0=-0.5, rho_r=0.5)
        fl = np.array([1.0, 0.5j, 0.2, 0.8 + 0.1j])
        names = self.slab_threads(monkeypatch)
        runs = {}
        for slabs in (1, 2, 3):
            monkeypatch.setattr(vl, "_cpu_slabs", lambda slabs=slabs: slabs)
            names.clear()
            g = vl.make_grid(p, nx=nx, nv=nv, cosine_eps=0.2)
            runs[slabs] = run_kept(p, grid=g, fields=fl, t_end=1.0, dt=0.05,
                                   sample_every=0.1, snapshot_every=0.5)
            self.check_threads(names, slabs)
        series, snaps, _ = runs[1]
        assert snaps[-1][1].lost_mass != 0.0  # the kick crops mass
        for slabs in (2, 3):
            other, other_snaps, _ = runs[slabs]
            for name in ("tau", "theta", "v_cm", "intensities", "kinetic_energy"):
                assert getattr(other, name).tobytes() == getattr(series, name).tobytes(), name
            assert len(other_snaps) == len(snaps) == 3
            for (tau, g), (other_tau, other_g) in zip(snaps, other_snaps):
                assert other_tau == tau
                assert other_g.f.tobytes() == g.f.tobytes()
                assert other_g.lost_mass == g.lost_mass

    def test_no_thread_outlives_a_run(self, monkeypatch):
        p = make_params()
        monkeypatch.setattr(vl, "_cpu_slabs", lambda: 3)
        before = threading.active_count()
        vl.run_vlasov(p, t_end=0.1, dt=0.05, nx=33, nv=65)
        g = vl.make_grid(p, nx=33, nv=65)
        vl.vlasov_step(g, steady_state_fields(p), p, 0.05)
        assert threading.active_count() == before

    def test_slab_failure_raises_and_stops_the_pool(self, monkeypatch):
        """A slab that raises on a worker thread fails the run on the
        calling thread once every slab has ended; no worker is left."""
        monkeypatch.setattr(vl, "_cpu_slabs", lambda: 2)
        run_slabs = vl._run_slabs

        def failing(work, lines, cells, space):
            def work_or_fail(a, b):
                if a > 0:
                    raise MemoryError("injected")
                work(a, b)
            run_slabs(work_or_fail, lines, cells, space)

        monkeypatch.setattr(vl, "_run_slabs", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="injected"):
            vl.run_vlasov(make_params(), t_end=0.1, dt=0.05, nx=33, nv=65)
        assert threading.active_count() == before

    def test_traced_run_has_one_kick_span_per_step(self, monkeypatch):
        """The benchmark's tracer keeps one span stack: slab threads call
        none of the functions it wraps."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import spans

        monkeypatch.setattr(vl, "_cpu_slabs", lambda: 2)
        names = self.slab_threads(monkeypatch)
        tracer = spans.Tracer()
        tracer.install()
        try:
            vl.run_vlasov(make_params(), t_end=0.5, dt=0.05, sample_every=0.1, nx=33, nv=65)
        finally:
            tracer.uninstall()
        assert len(set(names)) == 2
        doc = tracer.document()
        index = {t["name"]: k for k, t in enumerate(doc["targets"])}
        target = np.array(doc["spans"]["target"])
        parent = np.array(doc["spans"]["parent"])
        (run,) = np.flatnonzero(target == index["ringcarl.vlasov.run_vlasov"])
        kicks = target == index["ringcarl.vlasov.shift_clamped_u"]
        drifts = target == index["ringcarl.vlasov.shift_periodic_chi"]
        assert kicks.sum() == 10
        assert drifts.sum() == 10 + 5  # one per step, and the halves of the 5 samples
        assert np.all(parent[kicks | drifts] == run)
