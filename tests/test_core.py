import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from oracles import mode_rhs
from ringcarl import nbody
from ringcarl import vlasov as vl
from ringcarl.core import (
    DomainError,
    IntegrationDivergedError,
    SystemParams,
    coupling,
    force,
    mode_flow,
    sample_maxwellian,
    split_run,
    steady_state_fields,
)
from ringcarl.stability import PumpPoint


def make_params(**kw):
    base = dict(delta=-1.0, n_particles=100, u0=-0.01,
                s_total=13.0, a_asym=5.0, rho_r=0.01, u_t=3.0)
    base.update(kw)
    return SystemParams(**base)


class TestSystemParams:
    def test_pump_groups(self):
        p = make_params()
        assert (p.eta_plus, p.eta_minus) == (3.0, 2.0)
        assert p.nu0 == pytest.approx(-1.0)
        # the amplitudes follow (S, A) and cannot be set
        with pytest.raises(AttributeError):
            p.eta_plus = 1.0
        with pytest.raises(TypeError):
            replace(p, eta_plus=1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            make_params(n_particles=0)
        with pytest.raises(DomainError):
            make_params(rho_r=0.0)
        with pytest.raises(DomainError):
            make_params(u_t=-1.0)
        with pytest.raises(DomainError):
            make_params(delta=np.nan)

    @pytest.mark.parametrize("s, a", [(-1.0, 0.0), (1.0, 1.5), (1.0, -1.5), (np.nan, 0.0),
                                      (np.inf, 0.0), (1.0, np.nan), (1.0, -np.inf)])
    def test_rejects_invalid_pump_split(self, s, a):
        with pytest.raises(DomainError):
            make_params(s_total=s, a_asym=a)
        with pytest.raises(DomainError):
            replace(make_params(), s_total=s, a_asym=a)
        with pytest.raises(DomainError):
            PumpPoint(s, a)

    @given(
        s=hst.floats(min_value=1e-6, max_value=1e8),
        frac=hst.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_amplitudes_roundtrip(self, s, frac):
        a = frac * s
        p = make_params(s_total=s, a_asym=a)
        plus, minus = abs(p.eta_plus) ** 2, abs(p.eta_minus) ** 2
        assert plus + minus == pytest.approx(s, rel=1e-12)
        assert plus - minus == pytest.approx(a, rel=1e-9, abs=1e-9 * s)


class TestEnsemble:
    def test_chi_wrapped(self):
        p = make_params(n_particles=2)
        a = steady_state_fields(p)
        _, chi, _ = nbody.step(a, np.array([-0.1, 7.0]), np.zeros(2), p, 1e-3)
        assert np.all((chi >= 0) & (chi < 2 * np.pi))

    def test_order_parameter_limits(self):
        # perfectly bunched -> |theta| = 1; uniform grid -> 0
        theta = nbody._phases(np.full(64, 1.3))[1]
        assert abs(theta) == pytest.approx(1.0)
        theta = nbody._phases(2 * np.pi * np.arange(64) / 64)[1]
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
        np.testing.assert_allclose(force(np.exp(1j * chi), c, p),
                                   -p.rho_r * grad, rtol=1e-7)

    def test_flat_without_backscatter(self):
        p = make_params()
        c = coupling(steady_state_fields(p))
        assert c == 0
        chi = np.linspace(0, 6, 5)
        assert np.all(force(np.exp(1j * chi), c, p) == 0)


def rk4_modes(a, theta, params, h, n, hamiltonian=False):
    """Reference: (a(h), integral of C) by n classical RK4 steps of the
    modes augmented with dJ/dtau = C."""
    def rhs(y):
        return np.append(mode_rhs(y[:4], theta, params, hamiltonian), coupling(y[:4]))

    y, dt = np.append(a, 0j), h / n
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[:4], y[4]


class TestModeFlow:
    A0 = np.array([0.8 - 0.3j, -0.4 + 0.9j, 0.2 + 0.1j, 1.1 - 0.6j])

    @pytest.mark.parametrize("hamiltonian", [False, True])
    # omega > 0; omega = 0 from theta = 0, and from N u0 = 0 at any theta
    @pytest.mark.parametrize("theta, u0", [(0.3 - 0.4j, -0.01), (0.0j, -0.01), (0.7j, 0.0)])
    @pytest.mark.parametrize("h", [0.5, 2.0])
    def test_matches_fine_rk4(self, theta, u0, hamiltonian, h):
        p = make_params(u0=u0)
        a, _ = mode_flow(self.A0, theta, p, h, hamiltonian)
        ref, _ = rk4_modes(self.A0, theta, p, h, 4000, hamiltonian)
        assert np.max(np.abs(a - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("hamiltonian", [False, True])
    @pytest.mark.parametrize("theta", [0.3 - 0.4j, 0.0j])
    def test_kick_integral(self, theta, hamiltonian):
        """J = integral of C along the flow, against a fine RK4 quadrature."""
        p = make_params()
        _, j = mode_flow(self.A0, theta, p, 0.05, hamiltonian)
        _, ref = rk4_modes(self.A0, theta, p, 0.05, 200, hamiltonian)
        assert abs(j - ref) <= 1e-12 * abs(ref)

    def test_steady_state_is_fixed(self):
        p = make_params()
        a = steady_state_fields(p)
        out, j = mode_flow(a, 0j, p, 0.7)
        assert np.array_equal(out, a)
        assert j == 0


class TestSplitRun:
    """The run loop both solvers share, on a toy state that logs the parts
    and collects the snapshots its callback is handed."""

    @staticmethod
    def logged_run(**kw):
        log, snaps = [], []

        def part(name):
            def advance(state, h):
                log.append((name, h))
                return state + 1
            return advance

        series, final = split_run(0, part("outer"), part("inner"),
                                  lambda state: (0j, 0.0, 0.0, np.zeros(4)),
                                  snapshot=lambda tau, state: snaps.append((tau, state)), **kw)
        return log, series, snaps, final

    def test_fuses_outer_halves_between_sync_points(self):
        log, series, snaps, final = self.logged_run(t_end=1.0, sample_every=0.5, dt=0.125,
                                                    snapshot_every=0.375)
        assert [h for name, h in log if name == "inner"] == [0.125] * 8
        outer = [h for name, h in log if name == "outer"]
        # snapshots after steps 3 and 6, samples after steps 4 and 8: each
        # sync closes a half and the next step opens one; fused full outer
        # steps only where no sync intervenes
        h, half = 0.125, 0.0625
        assert outer == [half, h, h, half, half, half, half, h, half, half, h, half]
        assert series.tau.tolist() == [0.0, 0.5, 1.0]
        # the last step's state closes the list, though 8 is no multiple of 3
        assert snaps == [(0.0, 0), (0.375, 7), (0.75, 15), (1.0, 20)]
        assert final == 20

    def test_last_snapshot_step_is_not_repeated(self):
        _, _, snaps, _ = self.logged_run(t_end=0.75, sample_every=0.25, dt=0.125,
                                         snapshot_every=0.375)
        assert [tau for tau, _ in snaps] == [0.0, 0.375, 0.75]

    def test_final_state_without_snapshots(self):
        log, series, snaps, final = self.logged_run(t_end=0.5, sample_every=0.3, dt=0.1)
        assert series.tau.tolist() == pytest.approx([0.0, 0.3])
        # the last step closes its half even though it takes no sample
        assert [h for name, h in log if name == "outer"][-1] == pytest.approx(0.05)
        assert snaps == [(pytest.approx(0.5), 12)]
        assert final == 12

    def test_drops_every_state_it_steps_past(self):
        """split_run holds its current state only: at each snapshot and at
        the end, every earlier state, handed-out snapshots included, is gone."""
        class State:
            pass

        made = []

        def advance(state, h):
            made.append(weakref.ref(new := State()))
            return new

        def live():
            return [ref() for ref in made if ref() is not None]

        seen = []
        _, final = split_run(advance(None, 0.0), advance, advance,
                             lambda state: (0j, 0.0, 0.0, np.zeros(4)),
                             t_end=1.0, sample_every=0.25, dt=0.125, snapshot_every=0.25,
                             snapshot=lambda tau, state: seen.append(live() == [state]))
        assert seen == [True] * 5
        assert live() == [final]

    def test_divergence_carries_step_time(self):
        def inner(state, h):
            if state == 5:
                raise IntegrationDivergedError(float("nan"))
            return state + 1

        with pytest.raises(IntegrationDivergedError) as info:
            split_run(0, lambda state, h: state, inner, lambda state: (0j, 0.0, 0.0, np.zeros(4)),
                      t_end=1.0, sample_every=0.1, dt=0.1)
        assert info.value.tau == 6 * 0.1

    def test_solvers_report_divergence_time(self, monkeypatch):
        """Both solvers raise with tau = nan and the shared loop stamps the step."""
        p = make_params(n_particles=64, u0=-1.0 / 64)
        g = vl.make_grid(p, nx=16, nv=32)
        g.f[3, 5] = np.nan
        with pytest.raises(IntegrationDivergedError) as info:
            vl.run_vlasov(p, grid=g, t_end=0.1, dt=0.01)
        assert info.value.tau == 0.01
        assert np.isnan(info.value.__cause__.tau)

        calls = []

        def failing_flow(a, theta, params, h, hamiltonian=False):
            calls.append(h)
            a, j = mode_flow(a, theta, params, h, hamiltonian)
            return (a * np.nan, j) if len(calls) > 3 else (a, j)

        monkeypatch.setattr(nbody, "mode_flow", failing_flow)
        with pytest.raises(IntegrationDivergedError) as info:
            nbody.run(p, t_end=1.0, sample_every=0.05, dt=0.01)
        # the fourth kick (step 4) turns the modes NaN; the check at the
        # next sample, step 5, reports that step's time
        assert info.value.tau == 5 * 0.01
        assert np.isnan(info.value.__cause__.tau)

    def test_rejects_bad_times(self):
        for kw in (dict(t_end=0.0, dt=0.1), dict(t_end=1.0, dt=0.0)):
            with pytest.raises(DomainError):
                split_run(0, None, None, None, sample_every=0.1, **kw)


class TestSteadyState:
    def test_is_fixed_point(self):
        p = make_params()
        n = 64
        chi = 2 * np.pi * np.arange(n) / n
        a = steady_state_fields(p)
        theta = (np.sum(np.cos(chi)) - 1j * np.sum(np.sin(chi))) / n
        da = mode_rhs(a, theta, p)
        du = force(np.exp(1j * chi), coupling(a), p)
        assert np.max(np.abs(da)) < 1e-12 * max(abs(p.eta_plus), 1.0)
        assert np.max(np.abs(du)) < 1e-14


class TestMaxwellian:
    def test_moments(self):
        p = make_params()
        u = sample_maxwellian(p, 200000, np.random.default_rng(0), mean_u=1.5)
        assert np.mean(u) == pytest.approx(1.5, abs=0.02)
        assert np.std(u) == pytest.approx(p.u_t / np.sqrt(2), rel=0.01)

    def test_cold_gas(self):
        p = make_params(u_t=0.0)
        np.testing.assert_array_equal(sample_maxwellian(p, 5, np.random.default_rng(0), mean_u=2.0),
                                      np.full(5, 2.0))
