import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ringcarl import bgk
from ringcarl.core import DomainError, SystemParams, TimeSeries


def make_params(delta=-1.0, n=10000):
    return SystemParams.from_pump_split(
        10.0, 3.0, delta=delta, n_particles=n, u0=-1.0 / n, rho_r=0.01, u_t=3.0
    )


class TestWaveRelation:
    def test_standing_wave_needs_no_asymmetry(self):
        p = make_params()
        wave = bgk.WaveState(v_ph=0.0, theta_mag=0.3, Theta=3000.0)
        assert bgk.asymmetry_for_wave(wave, p) == 0.0

    def test_sign_follows_wave_direction(self):
        """For delta < 0 a wave running in +u needs eta+ stronger."""
        p = make_params()
        wave = bgk.WaveState(v_ph=0.5, theta_mag=0.3, Theta=3000.0)
        assert bgk.asymmetry_for_wave(wave, p) > 0
        back = bgk.WaveState(v_ph=-0.5, theta_mag=0.3, Theta=3000.0)
        assert bgk.asymmetry_for_wave(back, p) < 0

    def test_unbunched_analytic_form(self):
        """At Theta = 0: A/S = -4 delta w / (4 w^2 + 1 + delta^2)."""
        p = make_params(delta=-2.0)
        w = 0.7
        wave = bgk.WaveState(v_ph=2 * w, theta_mag=0.0, Theta=0.0)
        P = 1 + 4.0
        expect = -4 * (-2.0) * P * w / (4 * P * w**2 + P**2)
        assert bgk.asymmetry_for_wave(wave, p) == pytest.approx(expect)

    def test_order_bound(self):
        p = make_params()
        ok = bgk.WaveState(0.1, 0.3, 3000.0)
        too_big = bgk.WaveState(0.1, 0.3, 2.0e4)
        assert ok.within_order_bound(p)
        assert not too_big.within_order_bound(p)


class TestInversion:
    @given(
        w=hst.floats(min_value=-3.0, max_value=3.0),
        frac=hst.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, w, frac):
        """wave -> A/S -> phase_velocity_solutions recovers the wave."""
        p = make_params()
        Theta = frac * np.sqrt(2.0) * p.n_particles  # inside the order bound
        wave = bgk.WaveState(v_ph=2 * w, theta_mag=Theta / p.n_particles,
                             Theta=Theta)
        aos = bgk.asymmetry_for_wave(wave, p)
        if abs(aos) > 1.0:
            return
        roots = bgk.phase_velocity_solutions(aos, Theta, p)
        assert any(r.v_ph == pytest.approx(2 * w, rel=1e-6, abs=1e-9)
                   for r in roots)

    def test_rejects_impossible_asymmetry(self):
        with pytest.raises(DomainError):
            bgk.phase_velocity_solutions(1.5, 0.0, make_params())

    def test_no_solution_beyond_bound(self):
        """|A/S| above the travelling-wave bound has no real root."""
        p = make_params(delta=-1.0)
        assert bgk.phase_velocity_solutions(0.9, 0.0, p) == []

    def test_wrong_direction_flagged(self):
        p = make_params()
        roots = bgk.phase_velocity_solutions(0.3, 0.0, p)
        good = [r for r in roots if not r.suspicious]
        bad = [r for r in roots if r.suspicious]
        assert all(r.v_ph > 0 for r in good)
        assert all(r.v_ph < 0 for r in bad)


class TestDirection:
    def test_with_stronger_pump(self):
        p = make_params()
        assert bgk.wave_direction(p, 1000.0).direction == "with-stronger-pump"

    def test_indeterminate_for_positive_delta(self):
        p = make_params(delta=1.0)
        assert bgk.wave_direction(p, 1000.0).direction == "indeterminate"


class TestValidateWave:
    def synthetic(self, v_ph, theta_mag, m=200):
        tau = np.linspace(0, 20, m)
        return TimeSeries(
            tau=tau,
            theta=theta_mag * np.exp(-1j * v_ph * tau),
            v_cm=np.full(m, v_ph),
            intensities=np.ones((m, 4)),
            kinetic_energy=np.ones(m),
            field_momentum=np.zeros(m),
        )

    def test_consistent_synthetic_wave(self):
        p = make_params()
        # pick the wave the actual pump asymmetry sustains
        aos = p.a_asym / p.s_total
        Theta = 0.3 * p.n_particles
        roots = [r for r in bgk.phase_velocity_solutions(aos, Theta, p)
                 if not r.suspicious]
        wave = min(roots, key=lambda r: abs(r.v_ph))
        rep = bgk.validate_wave(self.synthetic(wave.v_ph, 0.3), p)
        assert rep.settled
        assert rep.v_ph_vcm == pytest.approx(rep.v_ph_phase, rel=1e-6)
        assert rep.residual < 1e-6

    def test_drifting_window_rejected(self):
        p = make_params()
        s = self.synthetic(0.3, 0.3)
        s.v_cm = 0.1 * s.tau
        with pytest.raises(DomainError):
            bgk.validate_wave(s, p)
