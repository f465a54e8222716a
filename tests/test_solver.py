"""Time integration: exact diffusion handling, conservation, forcing, blow-up."""

import logging

import numpy as np
import pytest

from mhdrecon.fields import (
    ConfigurationError,
    SpectralField2D,
    TaylorSpec,
    TorusGrid,
    c1_norm,
    l2_norm,
    make_taylor,
    make_tilde_t1,
    project_coeffs,
    sobolev_norm,
    zero_field,
)
from mhdrecon.oracles import ForcedOracle, forced_exact_b, forced_exact_b_dt, remark2_exact_b
from mhdrecon.solver import (
    BlowUpError,
    ForcingSpec,
    MHDState,
    SimConfig,
    TrajectoryRecorder,
    _Forcing,
    _HalfSpectrum,
    duhamel_remainder,
    energy,
    heat_propagate,
    nonlinear_rhs,
    simulate,
    step,
)

from .conftest import random_divergence_free

ETA = NU = 0.5


def taylor_state(grid, n=1, m=1, amp=1.0):
    return MHDState(zero_field(grid), make_taylor(TaylorSpec(n, m), amp, grid), 0.0)


def _half(f):
    """Half-spectrum columns k2 >= 0 of the vector view of f, shape (2, M, M/2 + 1)."""
    return f.components()[..., : f.grid.resolution // 2 + 1]


def _advective_cross_term(a, b):
    """(a . grad) b + (b . grad) a of two fields, formed on the grid in vector form."""
    g = a.grid
    ca, cb = _half(a), _half(b)
    ag, bg = g.to_grid(ca), g.to_grid(cb)
    out = []
    for i in range(2):
        prod = (ag[0] * g.to_grid(1j * g.k1 * cb[i]) + ag[1] * g.to_grid(1j * g.k2 * cb[i])
                + bg[0] * g.to_grid(1j * g.k1 * ca[i]) + bg[1] * g.to_grid(1j * g.k2 * ca[i]))
        out.append(g.from_grid(prod))
    return np.stack(out)


class TestNonlinearRHS:
    def test_taylor_fields_are_euler_stationary(self, grid64):
        st = taylor_state(grid64, 3, 2)
        du, db = nonlinear_rhs(st)
        scale = l2_norm(st.b) ** 2
        assert l2_norm(du) < 1e-13 * scale
        assert l2_norm(db) < 1e-13 * scale

    def test_equal_fields_cancel_induction(self, grid64):
        f = random_divergence_free(grid64, 8, seed=12)
        _, db = nonlinear_rhs(MHDState(f, f, 0.0))
        assert l2_norm(db) == 0.0

    def test_cross_term_bilinearity(self, grid64):
        # u = 0, b = T44 + T11: only the symmetric cross term survives projection
        t44 = make_taylor(TaylorSpec(4, 4), 1.0, grid64)
        t11 = make_taylor(TaylorSpec(1, 1), 1.0, grid64)
        du, _ = nonlinear_rhs(MHDState(zero_field(grid64), t44 + t11, 0.0))
        cross = project_coeffs(_advective_cross_term(t44, t11), grid64)
        assert np.max(np.abs(_half(du) - cross)) < 1e-12 * np.max(np.abs(cross))


class TestStep:
    def test_single_taylor_decays_exactly(self, grid64):
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid64, dt=1e-2, t_end=1.0)
        st = taylor_state(grid64, 1, 1)
        out = step(st, cfg)
        expected = np.exp(-ETA * 2.0 * cfg.dt)
        assert l2_norm(out.b) / l2_norm(st.b) == pytest.approx(expected, rel=1e-10)
        assert l2_norm(out.u) < 1e-12
        assert out.t == pytest.approx(cfg.dt)

    def test_zero_state_stays_zero(self, grid32):
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid32, dt=1e-2, t_end=1.0)
        out = step(MHDState(zero_field(grid32), zero_field(grid32), 0.0), cfg)
        assert l2_norm(out.u) == 0.0 and l2_norm(out.b) == 0.0

    def test_forced_step_tracks_closed_form(self, grid32):
        spec_nm, spec_2 = TaylorSpec(4, 4), TaylorSpec(1, 1)
        fs = ForcingSpec(kind="theorem2", spec_nm=spec_nm, spec_2=spec_2)
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid32, dt=1e-3, t_end=1.0, forcing=fs)
        st = taylor_state(grid32, 4, 4)
        out = st
        for _ in range(20):
            out = step(out, cfg)
        oracle = ForcedOracle(spec_nm=spec_nm, spec_2=spec_2, eta=ETA)
        exact = forced_exact_b(oracle, out.t, grid32)
        assert l2_norm(out.b - exact) / l2_norm(exact) < 1e-10
        assert l2_norm(out.u) < 1e-10

    def test_divergence_and_mean_after_steps(self, grid64):
        u0 = 0.05 * random_divergence_free(grid64, 6, seed=1)
        b0 = 0.05 * random_divergence_free(grid64, 6, seed=2)
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid64, dt=2e-3, t_end=1.0)
        st = MHDState(u0, b0, 0.0)
        for _ in range(5):
            st = step(st, cfg)
        k = grid64.wavenumbers
        for f in (st.u, st.b):
            c = f.components()
            div = k[:, None] * c[0] + k[None, :] * c[1]
            assert np.max(np.abs(div)) < 1e-10 * l2_norm(f)
            assert np.abs(c[:, 0, 0]).max() == 0.0


class TestSimulate:
    def test_t_end_zero_returns_initial(self, grid32):
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid32, dt=1e-2, t_end=0.0)
        st = taylor_state(grid32)
        out = simulate(cfg, st)
        assert np.array_equal(out.b.psi, st.b.psi)

    def test_exact_eigenmode_decay(self, grid32):
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid32, dt=1e-3, t_end=1.0)
        st = taylor_state(grid32, 1, 1)
        out = simulate(cfg, st)
        assert l2_norm(out.b) / l2_norm(st.b) == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_final_partial_step_lands_exactly(self, grid32):
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid32, dt=3e-3, t_end=0.01)
        out = simulate(cfg, taylor_state(grid32, 2, 1))
        assert out.t == 0.01
        assert l2_norm(out.b) / np.pi / np.sqrt(5) == pytest.approx(
            np.exp(-ETA * 5 * 0.01), rel=1e-10
        )

    def test_sink_cadence(self, grid32):
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid32, dt=1e-2, t_end=0.1, output_cadence=5)
        times = []
        simulate(cfg, taylor_state(grid32), sinks=[lambda s: times.append(s.t)])
        assert times == pytest.approx([0.0, 0.05, 0.1])

    def test_energy_nonincreasing_unforced(self, grid64):
        u0 = random_divergence_free(grid64, 5, seed=14) * 0.3
        b0 = random_divergence_free(grid64, 5, seed=15) * 0.3
        cfg = SimConfig(nu=0.05, eta=0.05, grid=grid64, dt=2e-3, t_end=0.4, output_cadence=20)
        energies = []
        simulate(cfg, MHDState(u0, b0, 0.0), sinks=[lambda s: energies.append(energy(s))])
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-12 * energies[0])

    def test_ideal_energy_conservation(self):
        # nu = eta = 0, dealiased, M = 128, dt = 1e-3 over [0, 1]
        grid = TorusGrid(128)
        u0 = make_tilde_t1(grid) + 0.4 * make_taylor(TaylorSpec(2, 1), 1.0, grid)
        b0 = 0.7 * make_taylor(TaylorSpec(1, 2), 1.0, grid) + 0.2 * make_taylor(
            TaylorSpec(3, 3), 1.0, grid
        )
        cfg = SimConfig(nu=0.0, eta=0.0, grid=grid, dt=1e-3, t_end=1.0, output_cadence=100)
        st = MHDState(u0, b0, 0.0)
        e0 = energy(st)
        energies = []
        simulate(cfg, st, sinks=[lambda s: energies.append(energy(s))])
        assert max(abs(e - e0) for e in energies) / e0 < 1e-6

    def test_temporal_order_fourth(self, grid32):
        spec_nm, spec_2 = TaylorSpec(4, 4), TaylorSpec(1, 1)
        fs = ForcingSpec(kind="theorem2", spec_nm=spec_nm, spec_2=spec_2)
        oracle = ForcedOracle(spec_nm=spec_nm, spec_2=spec_2, eta=ETA)
        exact = forced_exact_b(oracle, 1.0, grid32)
        errs = []
        for dt in (0.0125, 0.00625):
            cfg = SimConfig(nu=NU, eta=ETA, grid=grid32, dt=dt, t_end=1.0, forcing=fs,
                            output_cadence=1000)
            fin = simulate(cfg, taylor_state(grid32, 4, 4))
            errs.append(l2_norm(fin.b - exact) / l2_norm(exact))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_blowup_raises_and_flushes(self, grid32):
        # ideal run stepped far beyond the CFL limit goes non-finite
        u0 = 50.0 * (make_tilde_t1(grid32) + make_taylor(TaylorSpec(2, 1), 1.0, grid32))
        cfg = SimConfig(nu=0.0, eta=0.0, grid=grid32, dt=0.5, t_end=20.0, output_cadence=1)
        seen = []
        with pytest.raises(BlowUpError) as err:
            simulate(cfg, MHDState(u0, zero_field(grid32), 0.0), sinks=[seen.append])
        assert err.value.time > 0
        # the error, not a separate warning, tells of the CFL numbers
        assert "(CFL number >= 0.5 on " in str(err.value)
        assert len(seen) >= 2  # initial state plus the flushed last good state
        assert np.all(np.isfinite(seen[-1].u.psi))

    def test_cfl_warning_on_step(self, grid32, caplog):
        u0 = 100.0 * make_tilde_t1(grid32)
        cfg = SimConfig(nu=0.0, eta=0.0, grid=grid32, dt=0.5, t_end=1.0)
        with caplog.at_level(logging.WARNING, logger="mhdrecon.solver"):
            step(MHDState(u0, zero_field(grid32), 0.0), cfg)
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "CFL number >= 0.5 on 1 of 1 steps" in caplog.records[0].getMessage()

    @pytest.mark.parametrize("dt, warned", [(0.05, True), (0.04, False)])
    def test_cfl_warned_once_per_run(self, grid32, caplog, dt, warned):
        # tilde T1 is Euler-stationary with max |u| = 2 at amplitude 2, so
        # every step has CFL number 2 dt M / 2 pi: 0.51 at dt = 0.05, 0.41 at 0.04
        u0 = 2.0 * make_tilde_t1(grid32)
        cfg = SimConfig(nu=0.0, eta=0.0, grid=grid32, dt=dt, t_end=10 * dt, output_cadence=1)
        with caplog.at_level(logging.WARNING, logger="mhdrecon.solver"):
            simulate(cfg, MHDState(u0, zero_field(grid32), 0.0))
        messages = [r.getMessage() for r in caplog.records]
        if warned:
            assert len(messages) == 1
            assert messages[0].startswith("CFL number >= 0.5 on 10 of 10 steps, at worst 0.509;")
        else:
            assert messages == []


class TestHeatPropagate:
    def test_eigenmode(self, grid32):
        f = make_taylor(TaylorSpec(2, 3), 1.0, grid32)
        out = heat_propagate(f, ETA, 0.3)
        assert np.allclose(out.psi, np.exp(-ETA * 13 * 0.3) * f.psi)

    def test_identity_at_zero_time(self, grid32):
        f = make_tilde_t1(grid32)
        assert np.array_equal(heat_propagate(f, ETA, 0.0).psi, f.psi)

    @pytest.mark.parametrize("r", [0, 2, 4])
    def test_sobolev_contraction(self, grid64, r):
        f = random_divergence_free(grid64, 10, seed=33)
        for t in (0.01, 0.5, 3.0):
            assert sobolev_norm(heat_propagate(f, ETA, t), r) <= sobolev_norm(f, r)

    def test_negative_time_rejected(self, grid32):
        with pytest.raises(ConfigurationError):
            heat_propagate(make_tilde_t1(grid32), ETA, -0.1)


class TestDuhamelRemainder:
    def test_single_mode_run_is_pure_heat(self, grid32):
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid32, dt=2e-3, t_end=0.5, output_cadence=50)
        rec = TrajectoryRecorder(cfg)
        simulate(cfg, taylor_state(grid32, 2, 2), sinks=[rec])
        remainders = duhamel_remainder(rec.trajectory, ETA)
        assert np.abs(remainders[0][1].psi).max() == 0.0  # t = 0 gives D = 0 exactly
        assert max(l2_norm(d) for _, d in remainders) < 1e-9

    def test_envelope_shape_bounds_remainder(self, grid64):
        # perturbed decaying run: ||D(t)||_{H^r} stays inside the envelope
        # profile (no late-time escape) and peaks early
        from mhdrecon.oracles import duhamel_envelopes

        spec = TaylorSpec(3, 3)
        n_scale = np.sqrt(spec.eigenvalue)
        delta, r = 1e-3, 3
        b0 = (1.0 / n_scale) * make_taylor(spec, 1.0, grid64) + delta * make_tilde_t1(grid64)
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid64, dt=2e-3, t_end=1.5, output_cadence=75)
        rec = TrajectoryRecorder(cfg)
        simulate(cfg, MHDState(zero_field(grid64), b0, 0.0), sinks=[rec])
        remainders = duhamel_remainder(rec.trajectory, ETA)
        sigma = 0.9 * min(NU, ETA)
        times = np.array([t for t, _ in remainders[1:]])
        norms = np.array([sobolev_norm(d, r) for _, d in remainders[1:]])
        envs = np.array(
            [sum(duhamel_envelopes(delta, n_scale, r, ETA, sigma, t)) for t in times]
        )
        ratios = norms / envs
        early = times <= 0.5 * cfg.t_end
        assert ratios[~early].max() <= 2.0 * ratios[early].max()
        assert norms.argmax() < len(norms) / 2

    def test_missing_initial_snapshot_rejected(self, grid32):
        from mhdrecon.solver import Trajectory

        cfg = SimConfig(nu=NU, eta=ETA, grid=grid32, dt=1e-2, t_end=0.1)
        with pytest.raises(ValueError, match="initial"):
            duhamel_remainder(Trajectory(cfg), ETA)


class TestForcingSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ForcingSpec(kind="quadratic")

    def test_theorem2_requires_mode_ordering(self):
        with pytest.raises(ConfigurationError):
            ForcingSpec(kind="theorem2", spec_nm=TaylorSpec(1, 1), spec_2=TaylorSpec(4, 4))


class TestForcedCrossTerm:
    """At the closed-form state (0, b(t)) of the forced runs the velocity force
    cancels the nonlinear vorticity tendency, so u stays zero."""

    @staticmethod
    def _tendencies(kind, b, t, grid):
        """(nonlinear, nonlinear + forcing) tendencies of (psi, a), diffusion-free."""
        half = _HalfSpectrum(grid, dealias=True)
        fs = ForcingSpec(kind=kind, spec_nm=TaylorSpec(4, 4),
                         spec_2=TaylorSpec(1, 1) if kind == "theorem2" else None)
        nonlinear = np.empty((2, *grid.spectral_shape), dtype=np.complex128)
        half.rhs(half.from_fields(zero_field(grid), b), nonlinear)
        total = nonlinear.copy()
        _Forcing(fs, half, ETA).add_to(total, t)
        return nonlinear, total

    @pytest.mark.parametrize("kind", ["theorem2", "remark2"])
    @pytest.mark.parametrize("t", [0.1, 0.3, 0.8])
    def test_omega_tendency_vanishes(self, grid32, kind, t):
        if kind == "theorem2":
            oracle = ForcedOracle(spec_nm=TaylorSpec(4, 4), spec_2=TaylorSpec(1, 1), eta=ETA)
            b = forced_exact_b(oracle, t, grid32)
        else:
            b = remark2_exact_b(TaylorSpec(4, 4), ETA, t, grid32)
        nonlinear, total = self._tendencies(kind, b, t, grid32)
        # omega = |k|^2 psi; the tendency is measured against the size
        # N |b|_C1^2 of curl div(b b^T), and the cross term must be present
        omega_nonlinear, omega_total = grid32.ksq * nonlinear[0], grid32.ksq * total[0]
        scale = np.sqrt(32.0) * c1_norm(b) ** 2
        assert np.abs(omega_nonlinear).max() > 1e-8 * scale
        assert np.abs(omega_total).max() < 1e-13 * scale

    @pytest.mark.parametrize("t", [0.1, 0.8])
    def test_potential_tendency_is_the_closed_form_derivative(self, grid32, t):
        # d_t a = eta Lap a + psi(f2) along b(t): the induction term vanishes for u = 0
        oracle = ForcedOracle(spec_nm=TaylorSpec(4, 4), spec_2=TaylorSpec(1, 1), eta=ETA)
        b = forced_exact_b(oracle, t, grid32)
        _, total = self._tendencies("theorem2", b, t, grid32)
        dadt = total[1] - ETA * grid32.ksq * b.psi
        exact = forced_exact_b_dt(oracle, t, grid32).psi
        assert np.abs(dadt - exact).max() < 1e-13 * np.abs(exact).max()


def _vector_rhs(uc, bc, grid, dealias):
    """Leray-projected nonlinear tendencies of the half-spectrum vector
    coefficients (u, b), formed in vector form."""
    k1, k2 = grid.k1, grid.k2
    ug, bg = grid.to_grid(uc), grid.to_grid(bc)
    mask = grid.dealias_mask if dealias else 1.0
    s11 = grid.from_grid(ug[0] * ug[0] - bg[0] * bg[0]) * mask
    s12 = grid.from_grid(ug[0] * ug[1] - bg[0] * bg[1]) * mask
    s22 = grid.from_grid(ug[1] * ug[1] - bg[1] * bg[1]) * mask
    w = grid.from_grid(ug[0] * bg[1] - ug[1] * bg[0]) * mask
    du = np.stack([-1j * (k1 * s11 + k2 * s12), -1j * (k1 * s12 + k2 * s22)])
    db = np.stack([1j * k2 * w, -1j * k1 * w])
    return project_coeffs(du, grid), project_coeffs(db, grid)


def _vector_simulate(cfg, uc, bc, n_steps):
    """Unforced integrating-factor RK4 on the vector fields (u, b)."""
    g, h = cfg.grid, cfg.dt
    eu_f, eu_h = np.exp(-cfg.nu * g.ksq * h), np.exp(-cfg.nu * g.ksq * 0.5 * h)
    eb_f, eb_h = np.exp(-cfg.eta * g.ksq * h), np.exp(-cfg.eta * g.ksq * 0.5 * h)
    for _ in range(n_steps):
        n1u, n1b = _vector_rhs(uc, bc, g, cfg.dealias)
        n2u, n2b = _vector_rhs(eu_h * (uc + 0.5 * h * n1u), eb_h * (bc + 0.5 * h * n1b),
                               g, cfg.dealias)
        n3u, n3b = _vector_rhs(eu_h * uc + 0.5 * h * n2u, eb_h * bc + 0.5 * h * n2b,
                               g, cfg.dealias)
        n4u, n4b = _vector_rhs(eu_f * uc + h * eu_h * n3u, eb_f * bc + h * eb_h * n3b,
                               g, cfg.dealias)
        uc = eu_f * uc + (h / 6.0) * (eu_f * n1u + 2.0 * eu_h * (n2u + n3u) + n4u)
        bc = eb_f * bc + (h / 6.0) * (eb_f * n1b + 2.0 * eb_h * (n2b + n3b) + n4b)
    return uc, bc


def _rel_max(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestPotentialFormCore:
    """The (omega, a) half-spectrum core against the vector form it replaces."""

    @pytest.fixture(params=[(32, True), (32, False), (64, True), (64, False)],
                    ids=["M32-dealias", "M32-raw", "M64-dealias", "M64-raw"])
    def case(self, request):
        m, dealias = request.param
        grid = TorusGrid(m)
        u0, b0 = (random_divergence_free(grid, m // 4, seed=m + i) for i in (1, 2))
        # unit max norm: well inside the CFL limit, with energy up to k = M/4
        u0, b0 = (f * (1.0 / np.abs(f.to_grid()).max()) for f in (u0, b0))
        cfg = SimConfig(nu=0.05, eta=0.02, grid=grid, dt=1e-3, t_end=0.02,
                        dealias=dealias, output_cadence=5)
        return cfg, MHDState(u0, b0, 0.0)

    def test_nonlinear_rhs_matches_vector_form(self, case):
        cfg, st = case
        du, db = nonlinear_rhs(st, dealias=cfg.dealias)
        ref_u, ref_b = _vector_rhs(_half(st.u), _half(st.b), cfg.grid, cfg.dealias)
        assert _rel_max(_half(du), ref_u) < 1e-12
        assert _rel_max(_half(db), ref_b) < 1e-12

    def test_twenty_steps_match_vector_form(self, case):
        cfg, st = case
        out = simulate(cfg, st)
        ref_u, ref_b = _vector_simulate(cfg, _half(st.u), _half(st.b), 20)
        assert out.t == pytest.approx(0.02)
        assert _rel_max(_half(out.u), ref_u) < 1e-12
        assert _rel_max(_half(out.b), ref_b) < 1e-12

    def test_every_emitted_state_is_valid(self, case):
        cfg, st = case
        seen = []
        simulate(cfg, st, sinks=[seen.append])
        assert [s.t for s in seen] == pytest.approx([0.0, 0.005, 0.01, 0.015, 0.02])
        for s in seen:
            # the vector view passes the checks of from_components and reads back
            for f in (s.u, s.b):
                back = SpectralField2D.from_components(cfg.grid, f.components())
                assert _rel_max(back.psi, f.psi) < 1e-13

    def test_step_equals_one_step_of_simulate(self, case):
        cfg, st = case
        one = SimConfig(nu=cfg.nu, eta=cfg.eta, grid=cfg.grid, dt=cfg.dt, t_end=cfg.dt,
                        dealias=cfg.dealias)
        a, b = step(st, cfg), simulate(one, st)
        assert a.t == b.t == cfg.dt
        assert np.array_equal(a.u.psi, b.u.psi)
        assert np.array_equal(a.b.psi, b.b.psi)

    def test_nyquist_content_removed_after_first_step(self, grid32):
        ny = grid32.resolution // 2
        u0 = 0.3 * make_taylor(TaylorSpec(2, 1), 1.0, grid32)
        b = make_taylor(TaylorSpec(1, 1), 1.0, grid32).components()
        # a real, divergence-free mode cos(M/2 y) e_x on the Nyquist line k2 = M/2:
        # reading the vector view drops it
        b[0, 0, ny] = 0.1
        b0 = SpectralField2D.from_components(grid32, b)
        assert np.all(b0.components()[:, :, ny] == 0.0)
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid32, dt=1e-3, t_end=1.0)
        out = step(MHDState(u0, b0, 0.0), cfg)
        for f in (out.u, out.b):
            c = f.components()
            assert np.all(c[:, ny, :] == 0.0) and np.all(c[:, :, ny] == 0.0)
        assert l2_norm(out.b) > 0.9 * l2_norm(make_taylor(TaylorSpec(1, 1), 1.0, grid32))
