import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ringcarl import bgk
from ringcarl.core import DomainError, SystemParams, TimeSeries


def make_params(delta=-1.0, n=10000):
    return SystemParams(delta=delta, n_particles=n, u0=-1.0 / n, s_total=10.0, a_asym=3.0,
                        rho_r=0.01, u_t=3.0)


class TestWaveRelation:
    def test_standing_wave_needs_no_asymmetry(self):
        p = make_params()
        assert bgk.asymmetry_for_wave(0.0, 3000.0, p) == 0.0

    def test_sign_follows_wave_direction(self):
        """For delta < 0 a wave running in +u needs eta+ stronger."""
        p = make_params()
        assert bgk.asymmetry_for_wave(0.5, 3000.0, p) > 0
        assert bgk.asymmetry_for_wave(-0.5, 3000.0, p) < 0

    def test_unbunched_analytic_form(self):
        """At Theta = 0: A/S = -4 delta w / (4 w^2 + 1 + delta^2)."""
        p = make_params(delta=-2.0)
        w = 0.7
        P = 1 + 4.0
        expect = -4 * (-2.0) * P * w / (4 * P * w**2 + P**2)
        assert bgk.asymmetry_for_wave(2 * w, 0.0, p) == pytest.approx(expect)


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
        aos = bgk.asymmetry_for_wave(2 * w, Theta, p)
        if abs(aos) > 1.0:
            return
        roots = bgk.phase_velocity_solutions(aos, Theta, p)
        assert any(v == pytest.approx(2 * w, rel=1e-6, abs=1e-9) for v in roots)

    def test_rejects_impossible_asymmetry(self):
        with pytest.raises(DomainError):
            bgk.phase_velocity_solutions(1.5, 0.0, make_params())

    def test_no_solution_beyond_bound(self):
        """|A/S| above the travelling-wave bound has no real root."""
        p = make_params(delta=-1.0)
        assert bgk.phase_velocity_solutions(0.9, 0.0, p) == []

    def test_wrong_direction_flagged(self):
        """delta < 0 and N|u0| within the bound: every root runs with the
        stronger pump (A > 0), so none needs a flag."""
        p = make_params()
        roots = bgk.phase_velocity_solutions(0.3, 0.0, p)
        assert roots and all(v > 0 for v in roots)


class TestDirection:
    def test_with_stronger_pump(self):
        p = make_params()
        assert bgk.wave_direction(p, 1000.0) == "with-stronger-pump"

    def test_against_beyond_order_bound(self):
        """N|u0| and |u0| Theta both above sqrt(1 + delta^2): the wave runs
        against the stronger pump; either one below it keeps the rule."""
        p = make_params(n=10)  # u0 = -0.1, N u0 = -1
        strong = SystemParams(delta=-1.0, n_particles=10, u0=-0.2, s_total=10.0, a_asym=3.0,
                              rho_r=0.01, u_t=3.0)
        assert bgk.wave_direction(strong, 10.0) == "against"  # 0.2 * 10 = 2 > sqrt(2)
        assert bgk.wave_direction(strong, 5.0) == "with-stronger-pump"
        assert bgk.wave_direction(p, 20.0) == "with-stronger-pump"  # N |u0| = 1

    def test_indeterminate_for_positive_delta(self):
        p = make_params(delta=1.0)
        assert bgk.wave_direction(p, 1000.0) == "indeterminate"


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
        v_ph = min(bgk.phase_velocity_solutions(aos, Theta, p), key=abs)
        rep = bgk.validate_wave(self.synthetic(v_ph, 0.3), p)
        assert rep.settled
        assert rep.residual < 1e-6
        assert rep.v_ph_predicted == pytest.approx(v_ph, rel=1e-6)
        assert rep.direction_ok

    def test_wave_against_stronger_pump_flagged(self):
        """delta < 0 and N|u0| within the bound: eta+ stronger (A > 0) means
        a wave drifting in -u contradicts the rule."""
        p = make_params()
        assert p.a_asym > 0
        rep = bgk.validate_wave(self.synthetic(-0.3, 0.3), p)
        assert not rep.direction_ok
        assert bgk.validate_wave(self.synthetic(0.3, 0.3), p).direction_ok

    def test_no_rule_for_positive_delta(self):
        p = make_params(delta=1.0)
        assert bgk.validate_wave(self.synthetic(-0.3, 0.3), p).direction_ok

    def test_drifting_window_rejected(self):
        p = make_params()
        s = self.synthetic(0.3, 0.3)
        s.v_cm = 0.1 * s.tau
        with pytest.raises(DomainError):
            bgk.validate_wave(s, p)
