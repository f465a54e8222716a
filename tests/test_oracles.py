"""Closed-form reference solutions and envelope shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhdrecon.fields import (
    ConfigurationError,
    TaylorSpec,
    l2_norm,
    laplacian,
    make_taylor,
    make_tilde_t1,
    sobolev_norm,
)
from mhdrecon.oracles import (
    DecayingTaylorOracle,
    ForcedOracle,
    StabilityBound,
    decaying_taylor,
    duhamel_envelopes,
    forced_exact_b,
    forced_exact_b_dt,
    remark2_error_bound,
    remark2_exact_b,
    remark2_exact_error,
    remark2_explicit_bound,
    stability_envelope,
)
from mhdrecon.solver import SimConfig, TrajectoryRecorder, nonlinear_rhs, simulate

ETA = 0.5


class TestDecayingTaylor:
    def test_initial_state(self, grid32):
        oracle = DecayingTaylorOracle(spec=TaylorSpec(2, 2), eta=ETA, amplitude=0.25)
        st = decaying_taylor(oracle, 0.0, grid32)
        assert l2_norm(st.u) == 0.0
        expected = make_taylor(TaylorSpec(2, 2), 0.25, grid32)
        assert np.allclose(st.b.psi, expected.psi)

    def test_half_life(self, grid32):
        spec = TaylorSpec(1, 2)
        oracle = DecayingTaylorOracle(spec=spec, eta=ETA, amplitude=1.0)
        t_half = np.log(2.0) / (ETA * spec.eigenvalue)
        st = decaying_taylor(oracle, t_half, grid32)
        assert l2_norm(st.b) == pytest.approx(0.5 * np.pi * np.sqrt(spec.eigenvalue), rel=1e-12)

    def test_is_stationary_for_nonlinearity(self, grid64):
        oracle = DecayingTaylorOracle(spec=TaylorSpec(3, 1), eta=ETA, amplitude=1.0)
        st = decaying_taylor(oracle, 0.7, grid64)
        du, db = nonlinear_rhs(st)
        assert l2_norm(du) < 1e-10 and l2_norm(db) < 1e-10

    def test_simulated_reference_matches(self, grid32):
        # the stability scenario takes its reference (0, N^-1 T_nm) from the
        # closed form; the solver must keep that datum on it
        spec = TaylorSpec(4, 4)
        amp = 1.0 / np.sqrt(spec.eigenvalue)
        oracle = DecayingTaylorOracle(spec=spec, eta=ETA, amplitude=amp)
        cfg = SimConfig(nu=0.5, eta=ETA, grid=grid32, dt=1e-3, t_end=0.2, output_cadence=20)
        recorder = TrajectoryRecorder(cfg)
        simulate(cfg, decaying_taylor(oracle, 0.0, grid32), sinks=[recorder])
        states = recorder.trajectory.states
        assert len(states) == 11
        for st in states:
            exact = decaying_taylor(oracle, st.t, grid32)
            scale = l2_norm(exact.b)
            assert l2_norm(st.b - exact.b) <= 1e-12 * scale
            assert l2_norm(st.u) <= 1e-12 * scale


class TestForcedExact:
    oracle = ForcedOracle(spec_nm=TaylorSpec(4, 4), spec_2=TaylorSpec(1, 1), eta=ETA)

    def test_mode_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            ForcedOracle(spec_nm=TaylorSpec(1, 1), spec_2=TaylorSpec(4, 4), eta=ETA)

    def test_initial_value(self, grid32):
        b = forced_exact_b(self.oracle, 0.0, grid32)
        assert np.allclose(b.psi, make_taylor(TaylorSpec(4, 4), 1.0, grid32).psi)

    def test_long_time_limit(self, grid32):
        b = forced_exact_b(self.oracle, 1e3, grid32)
        limit = make_taylor(TaylorSpec(1, 1), 1.0 / (ETA * 2.0), grid32)
        assert l2_norm(b - limit) < 1e-12 * l2_norm(limit)

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 2.0])
    def test_heat_equation_residual(self, grid32, t):
        # d_t b = eta Lap b + f2 must hold identically
        b = forced_exact_b(self.oracle, t, grid32)
        dbdt = forced_exact_b_dt(self.oracle, t, grid32)
        f2 = make_taylor(TaylorSpec(1, 1), 1.0, grid32)
        resid = dbdt - ETA * laplacian(b) - f2
        assert l2_norm(resid) < 1e-10


class TestStabilityEnvelope:
    def test_for_run_default_sigma(self):
        bound = StabilityBound.for_run(0.5, 0.5, r=3, delta=1e-3, n_scale=np.sqrt(32.0))
        assert bound.sigma == pytest.approx(0.45)
        assert bound.sigma < min(0.5, 0.5)

    def test_initial_value(self):
        bound = StabilityBound(sigma=0.45, r=3, delta=1e-3, n_scale=2.0)
        assert stability_envelope(bound, 0.0) == pytest.approx(1e-6 * 2.0**6)

    @given(
        t1=st.floats(0.0, 5.0),
        dt=st.floats(0.01, 5.0),
        sigma=st.floats(0.05, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_ratio_law(self, t1, dt, sigma):
        bound = StabilityBound(sigma=sigma, r=2, delta=0.1, n_scale=3.0)
        ratio = stability_envelope(bound, t1 + dt) / stability_envelope(bound, t1)
        assert ratio == pytest.approx(np.exp(-2.0 * sigma * dt), rel=1e-9)

    @given(r=st.integers(0, 6))
    @settings(max_examples=10, deadline=None)
    def test_doubling_n_scale(self, r):
        b1 = StabilityBound(sigma=0.3, r=r, delta=0.1, n_scale=2.0)
        b2 = StabilityBound(sigma=0.3, r=r, delta=0.1, n_scale=4.0)
        assert stability_envelope(b2, 1.0) / stability_envelope(b1, 1.0) == pytest.approx(
            2.0 ** (2 * r)
        )

    def test_sigma_validation(self):
        with pytest.raises(ConfigurationError):
            StabilityBound(sigma=0.0, r=3, delta=1e-3, n_scale=2.0)


class TestDuhamelEnvelopes:
    def test_values_at_zero_time(self):
        delta, n = 1e-3, 4.0
        lh, lm = duhamel_envelopes(delta, n, r=3, eta=ETA, sigma=0.45, t=0.0)
        assert lh == pytest.approx(delta**2 * n**6)
        assert lm == pytest.approx(delta / n**2 + delta * n**4)

    def test_late_time_plateau(self):
        delta, n = 1e-3, 4.0
        _, lm = duhamel_envelopes(delta, n, r=3, eta=ETA, sigma=0.45, t=1e3)
        assert lm == pytest.approx(delta / n**2)

    def test_quadratic_delta_scaling(self):
        lh1, _ = duhamel_envelopes(2e-3, 4.0, 3, ETA, 0.45, 0.7)
        lh2, _ = duhamel_envelopes(1e-3, 4.0, 3, ETA, 0.45, 0.7)
        assert lh1 / lh2 == pytest.approx(4.0)


class TestRemark2:
    def test_bound_vanishes_at_large_horizon(self):
        assert remark2_error_bound(32.0, 3, ETA, 1e4) < 1e-300

    def test_bound_monotone_in_horizon(self):
        ts = np.linspace(0.25, 6.0, 24)
        vals = [remark2_error_bound(32.0, 3, ETA, t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_exact_error_matches_direct_norm(self, grid32):
        spec = TaylorSpec(4, 4)
        t_end, r = 1.5, 3
        direct = sobolev_norm(
            ETA * remark2_exact_b(spec, ETA, t_end, grid32) - make_tilde_t1(grid32), r
        )
        assert remark2_exact_error(spec, r, ETA, t_end, grid32) == pytest.approx(
            direct, rel=1e-12
        )

    def test_explicit_bound_is_sum_of_field_norms(self, grid32):
        spec = TaylorSpec(4, 4)
        t_end, r = 0.3, 2
        expected = (
            ETA * np.exp(-ETA * 32.0 * t_end) * sobolev_norm(make_taylor(spec, 1.0, grid32), r)
            + np.exp(-ETA * t_end) * sobolev_norm(make_tilde_t1(grid32), r)
        )
        assert remark2_explicit_bound(spec, r, ETA, t_end, grid32) == pytest.approx(
            expected, rel=1e-14
        )

    def test_explicit_bound_brackets_exact_error(self, grid32):
        # disjoint shells: the error is the l2 sum of the two bound terms
        spec = TaylorSpec(3, 2)
        for eta, t_end in ((0.25, 0.2), (0.5, 0.05), (1.0, 3.0)):
            err = remark2_exact_error(spec, 3, eta, t_end, grid32)
            bound = remark2_explicit_bound(spec, 3, eta, t_end, grid32)
            assert bound / np.sqrt(2.0) * (1 - 1e-12) <= err <= bound * (1 + 1e-12)

    def test_explicit_bound_rejects_nonpositive_inputs(self, grid32):
        with pytest.raises(ConfigurationError):
            remark2_explicit_bound(TaylorSpec(4, 4), 3, 0.0, 1.0, grid32)

    def test_closed_form_solves_forced_heat(self, grid32):
        # d_t b = eta Lap b + tilde T1 at sampled times, via the analytic derivative
        spec = TaylorSpec(3, 3)
        for t in (0.0, 0.4, 1.1):
            nsq = spec.eigenvalue
            d1 = -ETA * nsq * np.exp(-ETA * nsq * t)
            d2 = np.exp(-ETA * t)
            big = make_taylor(spec, 1.0, grid32)
            tilde = make_tilde_t1(grid32)
            dbdt = d1 * big + d2 * tilde
            b = remark2_exact_b(spec, ETA, t, grid32)
            resid = dbdt - ETA * laplacian(b) - tilde
            assert l2_norm(resid) < 1e-10
