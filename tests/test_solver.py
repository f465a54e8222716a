"""Time integration: exact diffusion handling, conservation, forcing, blow-up."""

import dataclasses
import logging
import tracemalloc

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
from mhdrecon.oracles import ForcedOracle, forced_exact_b
from mhdrecon.scenarios import frozen_in_initial
from mhdrecon.solver import (
    BlowUpError,
    MHDState,
    SimConfig,
    _EtdCoefficients,
    _Forcing,
    _HalfSpectrum,
    advance,
    energy,
    heat_propagate,
    simulate,
)

from .conftest import nonlinear_tendencies, random_divergence_free
from .reference import dealias_mask, duhamel_envelopes, duhamel_remainder, forced_exact_b_dt

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


def _rhs_by_2d_transforms(grid, z):
    """The tendencies and max grid |u| of _HalfSpectrum.rhs for the
    half-spectrum arrays z, formed with numpy's 2-D real transforms on the
    whole half-spectrum and fresh arrays, in the same operation order, and
    cut by the 2/3-rule mask."""
    m, k1, k2, inv_ksq = grid.resolution, grid.k1, grid.k2, grid.inv_ksq
    perp = np.stack([1j * k2, -1j * k1])
    c = np.concatenate([perp * z[0], perp * z[1]])
    u1, u2, b1, b2 = np.fft.irfft2(c, s=(m, m), norm="forward")
    prod = np.stack([u2 * u2 - b2 * b2 - u1 * u1 + b1 * b1, u1 * u2 - b1 * b2, u1 * b2 - u2 * b1])
    s = np.fft.rfft2(prod, norm="forward")
    keep = dealias_mask(grid) & (grid.ksq > 0)
    out = np.stack([keep * (k1 * k2) * inv_ksq * s[0] + keep * (k1**2 - k2**2) * inv_ksq * s[1],
                    keep * s[2]])
    return out, max(float(np.max(np.abs(u1))), float(np.max(np.abs(u2))))


class TestNonlinearRHS:
    # input filling the 2/3-rule block, whose edge is a mode of the grid when
    # 3 divides M (48, 96); or up to the Nyquist band, which the solver refuses
    @pytest.mark.parametrize("within_cut", [True, False])
    @pytest.mark.parametrize("resolution", [16, 32, 48, 96])
    def test_split_transforms_match_the_2d_transforms_bit_for_bit(self, resolution, within_cut):
        g = TorusGrid(resolution)
        half = _HalfSpectrum(g)
        kmax = resolution // 3 if within_cut else resolution // 2 - 1
        if not within_cut:
            u, b = (random_divergence_free(g, kmax, seed=s) for s in (21, 22))
            with pytest.raises(ConfigurationError,
                               match=rf"^u has a mode \(k1, k2\) = \(-?\d+, \d+\) beyond the "
                                     rf"2/3-rule cut M/3 = {resolution / 3:.4g} at M = {resolution};"):
                half.from_fields(u, b)
            return
        # a second call on the same instance: the reused work arrays carry nothing over
        for seeds in ((21, 22), (23, 24)):
            u, b = (random_divergence_free(g, kmax, seed=s) for s in seeds)
            z = half.from_fields(u, b)
            assert z.shape == (2, 2 * kmax + 1, kmax + 1)
            out = np.empty_like(z)
            half.rhs(z, out)
            umax = half.max_speed()
            expected, expected_umax = _rhs_by_2d_transforms(g, np.stack([u.psi, b.psi]))
            assert np.array_equal(half.embed(out), expected)
            assert umax == expected_umax

    def test_taylor_fields_are_euler_stationary(self, grid64):
        st = taylor_state(grid64, 3, 2)
        du, db = nonlinear_tendencies(st)
        scale = l2_norm(st.b) ** 2
        assert l2_norm(du) < 1e-13 * scale
        assert l2_norm(db) < 1e-13 * scale

    def test_equal_fields_cancel_induction(self, grid64):
        f = random_divergence_free(grid64, 8, seed=12)
        _, db = nonlinear_tendencies(MHDState(f, f, 0.0))
        assert l2_norm(db) == 0.0

    def test_cross_term_bilinearity(self, grid64):
        # u = 0, b = T44 + T11: only the symmetric cross term survives projection
        t44 = make_taylor(TaylorSpec(4, 4), 1.0, grid64)
        t11 = make_taylor(TaylorSpec(1, 1), 1.0, grid64)
        du, _ = nonlinear_tendencies(MHDState(zero_field(grid64), t44 + t11, 0.0))
        cross = project_coeffs(_advective_cross_term(t44, t11), grid64)
        assert np.max(np.abs(_half(du) - cross)) < 1e-12 * np.max(np.abs(cross))


class TestStep:
    def test_single_taylor_decays_exactly(self, grid64):
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid64, dt=1e-2, t_end=1e-2)
        st = taylor_state(grid64, 1, 1)
        out = simulate(cfg, st)
        expected = np.exp(-ETA * 2.0 * cfg.dt)
        assert l2_norm(out.b) / l2_norm(st.b) == pytest.approx(expected, rel=1e-10)
        assert l2_norm(out.u) < 1e-12
        assert out.t == pytest.approx(cfg.dt)

    def test_zero_state_stays_zero(self, grid32):
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid32, dt=1e-2, t_end=1e-2)
        out = simulate(cfg, MHDState(zero_field(grid32), zero_field(grid32), 0.0))
        assert l2_norm(out.u) == 0.0 and l2_norm(out.b) == 0.0

    def test_forced_step_tracks_closed_form(self, grid32):
        oracle = ForcedOracle(spec_nm=TaylorSpec(4, 4), spec_2=TaylorSpec(1, 1), eta=ETA)
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid32, dt=1e-3, t_end=2e-2, forcing=oracle)
        out = simulate(cfg, taylor_state(grid32, 4, 4))
        exact = forced_exact_b(oracle, out.t, grid32)
        assert l2_norm(out.b - exact) / l2_norm(exact) < 1e-10
        assert l2_norm(out.u) < 1e-10

    def test_divergence_and_mean_after_steps(self, grid64):
        u0 = 0.05 * random_divergence_free(grid64, 6, seed=1)
        b0 = 0.05 * random_divergence_free(grid64, 6, seed=2)
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid64, dt=2e-3, t_end=1e-2)
        st = simulate(cfg, MHDState(u0, b0, 0.0))
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

    @pytest.mark.parametrize("t_end", [0.0, 0.1])
    def test_datum_beyond_the_cut_is_refused(self, t_end):
        # T_44 on M = 10 is representable but lies beyond M/3: its products
        # would alias. A run of length 0 is refused too
        grid = TorusGrid(10)
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid, dt=1e-2, t_end=t_end)
        with pytest.raises(ConfigurationError,
                           match=r"^b has a mode \(k1, k2\) = \(4, 4\) beyond the 2/3-rule cut "
                                 r"M/3 = 3\.333 at M = 10; it needs M >= 12$"):
            simulate(cfg, taylor_state(grid, 4, 4))

    @pytest.mark.parametrize("scenario", ["theorem1", "frozen-in"])
    def test_ten_steps_at_m128_peak_below_3_6_mib(self, scenario):
        # the solver holds the 2/3-rule block only: (2, 85, 43) state and
        # stage arrays at M = 128. Ten steps peak at about 3.0 (theorem1)
        # and 3.3 MiB (frozen-in, whose ETDRK4 coefficients have two rows)
        # of traced allocations, the final state included; stepping the
        # whole (2, 128, 65) half-spectrum took 4.4 and 5.4 MiB
        grid = TorusGrid(128)
        if scenario == "theorem1":
            b0 = make_taylor(TaylorSpec(4, 4), 1.0 / np.sqrt(32.0), grid) + 1e-3 * make_tilde_t1(grid)
            cfg = SimConfig(nu=0.5, eta=0.5, grid=grid, dt=1e-2, t_end=0.1)
            initial = MHDState(zero_field(grid), b0, 0.0)
        else:
            cfg = SimConfig(nu=0.1, eta=0.0, grid=grid, dt=2.5e-3, t_end=0.025)
            initial = frozen_in_initial(grid)
        simulate(cfg, initial)  # first calls: the FFT plans and the grid's wavenumbers
        tracemalloc.start()
        try:
            final = simulate(cfg, initial)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert final.t == pytest.approx(cfg.t_end)
        assert peak < 3.6 * 2**20

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
        # an unforced nonlinear run, against a reference at a 16 times finer step
        u0, b0 = (random_divergence_free(grid32, 5, seed=s) for s in (14, 15))
        u0, b0 = (f * (1.0 / np.abs(f.to_grid()).max()) for f in (u0, b0))
        st = MHDState(u0, b0, 0.0)
        cfg = SimConfig(nu=0.05, eta=0.05, grid=grid32, dt=0.05, t_end=1.0, output_cadence=1000)
        ref = simulate(dataclasses.replace(cfg, dt=0.05 / 16), st)
        errs = []
        for dt in (0.05, 0.025):
            fin = simulate(dataclasses.replace(cfg, dt=dt), st)
            errs.append(np.sqrt(energy(MHDState(fin.u - ref.u, fin.b - ref.b)) / energy(ref)))
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
        cfg = SimConfig(nu=0.0, eta=0.0, grid=grid32, dt=0.5, t_end=0.5)
        with caplog.at_level(logging.WARNING, logger="mhdrecon.solver"):
            simulate(cfg, MHDState(u0, zero_field(grid32), 0.0))
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


class TestCflTally:
    """advance returns the run's CFL tally and logs nothing; simulate logs it."""

    @staticmethod
    def _run(grid, t_end):
        # Euler-stationary 2 tilde T1: every step of 0.04 at M = 32 has CFL
        # number 2 dt M / 2 pi = 0.407; t_end = 0.1 takes two full steps and
        # a shortened third
        cfg = SimConfig(nu=0.0, eta=0.0, grid=grid, dt=0.04, t_end=t_end)
        return cfg, MHDState(2.0 * make_tilde_t1(grid), zero_field(grid), 0.0)

    def test_advance_logs_nothing_and_returns_the_tally(self, grid32, caplog):
        cfg, initial = self._run(grid32, 0.1)
        with caplog.at_level(logging.DEBUG, logger="mhdrecon"):
            final, tally = advance(cfg, initial)
        assert caplog.records == []
        assert final.t == 0.1
        assert (tally.steps, tally.over) == (3, 0)
        assert tally.worst == pytest.approx(0.08 * 32 / (2.0 * np.pi), rel=1e-12)
        assert np.array_equal(final.u.psi, simulate(cfg, initial).u.psi)

    def test_simulate_logs_one_cfl_line(self, grid32, caplog):
        cfg, initial = self._run(grid32, 0.1)
        with caplog.at_level(logging.DEBUG, logger="mhdrecon"):
            simulate(cfg, initial)
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("mhdrecon.solver", "INFO", "CFL number at worst 0.407 over 3 steps")]

    def test_zero_length_run_logs_nothing(self, grid32, caplog):
        cfg, initial = self._run(grid32, 0.0)
        with caplog.at_level(logging.DEBUG, logger="mhdrecon"):
            assert simulate(cfg, initial) is initial
            final, tally = advance(cfg, initial)
        assert caplog.records == []
        assert final is initial and tally.steps == 0


class TestEtdCoefficients:
    """The ETDRK4 coefficients against the phi-functions phi_k(z) =
    (e^z - sum_{j<k} z^j / j!) / z^k summed with mpmath at 50 digits."""

    H = 0.05
    Z = [0.0, -1e-8, -1e-3, -0.5, -1.0, -30.0, -500.0]

    @staticmethod
    def _reference(z, h):
        import mpmath

        with mpmath.workdps(50):
            z, h = mpmath.mpf(z), mpmath.mpf(h)

            def phi(k, x):
                if x == 0:
                    return 1 / mpmath.factorial(k)
                return (mpmath.exp(x) - sum(x**j / mpmath.factorial(j) for j in range(k))) / x**k

            q = h / 2 * phi(1, z / 2)
            return {
                "e": mpmath.exp(z),
                "e_half": mpmath.exp(z / 2),
                "q": q,
                "p": q * mpmath.expm1(z / 2),
                "f1": h * (phi(1, z) - 3 * phi(2, z) + 4 * phi(3, z)),
                "f2": h * (phi(2, z) - 2 * phi(3, z)),
                "f3": h * (-phi(2, z) + 4 * phi(3, z)),
            }

    def test_match_high_precision_phi_functions(self):
        got = _EtdCoefficients.at(np.array(self.Z), self.H)
        for i, z in enumerate(self.Z):
            ref = self._reference(z, self.H)
            for name in got._fields:
                value, want = getattr(got, name)[i], float(ref[name])
                assert abs(value - want) <= 1e-14 * abs(want), (z, name, value, want)

    def test_zero_gives_the_rk4_weights(self):
        h = self.H
        got = _EtdCoefficients.at(np.zeros(1), h)
        assert (got.e[0], got.e_half[0], got.p[0]) == (1.0, 1.0, 0.0)
        assert got.q[0] == h / 2
        assert got.f1[0] == got.f2[0] == got.f3[0] == h / 6


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
        states = []
        simulate(cfg, taylor_state(grid32, 2, 2), sinks=[states.append])
        remainders = duhamel_remainder(states, ETA)
        assert np.abs(remainders[0][1].psi).max() == 0.0  # t = 0 gives D = 0 exactly
        assert max(l2_norm(d) for _, d in remainders) < 1e-9

    def test_envelope_shape_bounds_remainder(self, grid64):
        # perturbed decaying run: ||D(t)||_{H^r} stays inside the envelope
        # profile (no late-time escape) and peaks early
        spec = TaylorSpec(3, 3)
        n_scale = np.sqrt(spec.eigenvalue)
        delta, r = 1e-3, 3
        b0 = (1.0 / n_scale) * make_taylor(spec, 1.0, grid64) + delta * make_tilde_t1(grid64)
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid64, dt=2e-3, t_end=1.5, output_cadence=75)
        states = []
        simulate(cfg, MHDState(zero_field(grid64), b0, 0.0), sinks=[states.append])
        remainders = duhamel_remainder(states, ETA)
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

    def test_missing_initial_snapshot_rejected(self):
        with pytest.raises(ValueError, match="initial"):
            duhamel_remainder([], ETA)


class TestForcedCrossTerm:
    """At the closed-form state (0, b(t)) of the forced runs the velocity force
    cancels the nonlinear vorticity tendency, so u stays zero."""

    @staticmethod
    def _oracle(kind):
        """The construction of theorem2 (small mode T_11) or of remark2 (tilde T_1)."""
        return ForcedOracle(TaylorSpec(4, 4), TaylorSpec(1, 1) if kind == "theorem2" else None, ETA)

    @staticmethod
    def _tendencies(oracle, b, t, grid):
        """(nonlinear, nonlinear + forcing) tendencies of (psi, a), diffusion-free."""
        half = _HalfSpectrum(grid)
        nonlinear = np.empty_like(half.stages[0])
        half.rhs(half.from_fields(zero_field(grid), b), nonlinear)
        total = nonlinear.copy()
        _Forcing(oracle, half).add_to(total, t)
        return half.embed(nonlinear), half.embed(total)

    def _omega_tendencies(self, kind, t, grid):
        """Largest |omega| tendency, nonlinear and nonlinear + forcing, at the
        closed-form state b(t), relative to the size N |b|_C1^2 of curl div(b b^T)."""
        oracle = self._oracle(kind)
        b = forced_exact_b(oracle, t, grid)
        nonlinear, total = self._tendencies(oracle, b, t, grid)
        # omega = |k|^2 psi
        scale = np.sqrt(32.0) * c1_norm(b) ** 2
        return (np.abs(grid.ksq * nonlinear[0]).max() / scale,
                np.abs(grid.ksq * total[0]).max() / scale)

    @pytest.mark.parametrize("kind", ["theorem2", "remark2"])
    @pytest.mark.parametrize("t", [0.1, 0.3, 0.8])
    def test_omega_tendency_vanishes(self, grid32, kind, t):
        nonlinear, total = self._omega_tendencies(kind, t, grid32)
        # the cross term must be present
        assert nonlinear > 1e-8
        assert total < 1e-13

    # Below M = 16 the 2/3 rule cuts into T_44's products: the modes with
    # |k_i| = 5 > M / 3 are dropped from the Lorentz term, so the force must
    # drop them too. With T_11 the cut takes the whole cross term; the
    # uncut Lorentz term of the vector-form reference shows it is there to cut
    @pytest.mark.parametrize("kind", ["theorem2", "remark2"])
    @pytest.mark.parametrize("resolution", [12, 14])
    def test_omega_tendency_vanishes_under_the_dealias_cut(self, resolution, kind):
        grid = TorusGrid(resolution)
        b = forced_exact_b(self._oracle(kind), 0.3, grid)
        uncut, _ = _vector_rhs(np.zeros_like(_half(b)), _half(b), grid, dealias=False)
        assert np.abs(uncut).max() > 1e-8 * c1_norm(b) ** 2
        assert self._omega_tendencies(kind, 0.3, grid)[1] < 1e-13

    @pytest.mark.parametrize("t", [0.1, 0.8])
    def test_potential_tendency_is_the_closed_form_derivative(self, grid32, t):
        # d_t a = eta Lap a + psi(f2) along b(t): the induction term vanishes for u = 0
        oracle = ForcedOracle(spec_nm=TaylorSpec(4, 4), spec_2=TaylorSpec(1, 1), eta=ETA)
        b = forced_exact_b(oracle, t, grid32)
        _, total = self._tendencies(oracle, b, t, grid32)
        dadt = total[1] - ETA * grid32.ksq * b.psi
        exact = forced_exact_b_dt(oracle, t, grid32).psi
        assert np.abs(dadt - exact).max() < 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("kind", ["theorem2", "remark2"])
    @pytest.mark.parametrize("resolution", [12, 14])
    def test_forced_run_keeps_the_fluid_at_rest(self, resolution, kind):
        grid = TorusGrid(resolution)
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid, dt=5e-2, t_end=1.0, forcing=self._oracle(kind))
        assert l2_norm(simulate(cfg, taylor_state(grid, 4, 4)).u) < 1e-15

    @pytest.mark.parametrize("kind", ["theorem2", "remark2"])
    def test_force_beyond_the_cut_is_refused(self, kind):
        # T_44 lies beyond M/3 on M = 10, though the datum T_11 does not
        grid = TorusGrid(10)
        beyond = r"^the force's T_nm has a mode \(k1, k2\) = \(4, 4\) beyond the 2/3-rule cut "
        with pytest.raises(ConfigurationError, match=beyond):
            _Forcing(self._oracle(kind), _HalfSpectrum(grid))
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid, dt=5e-2, t_end=1.0, forcing=self._oracle(kind))
        with pytest.raises(ConfigurationError, match=beyond):
            simulate(cfg, taylor_state(grid, 1, 1))

    def test_forcing_eta_must_be_the_runs(self, grid32):
        # the closed form the force keeps depends on eta: a run at another eta
        # would follow neither its own equations' solution nor the oracle's
        with pytest.raises(ConfigurationError, match="eta"):
            SimConfig(nu=NU, eta=0.25, grid=grid32, dt=5e-2, t_end=1.0,
                      forcing=self._oracle("theorem2"))


def _vector_rhs(uc, bc, grid, dealias=True):
    """Leray-projected nonlinear tendencies of the half-spectrum vector
    coefficients (u, b), formed in vector form; with dealias, under the
    solver's 2/3-rule cut."""
    k1, k2 = grid.k1, grid.k2
    ug, bg = grid.to_grid(uc), grid.to_grid(bc)
    mask = dealias_mask(grid) if dealias else 1.0
    s11 = grid.from_grid(ug[0] * ug[0] - bg[0] * bg[0]) * mask
    s12 = grid.from_grid(ug[0] * ug[1] - bg[0] * bg[1]) * mask
    s22 = grid.from_grid(ug[1] * ug[1] - bg[1] * bg[1]) * mask
    w = grid.from_grid(ug[0] * bg[1] - ug[1] * bg[0]) * mask
    du = np.stack([-1j * (k1 * s11 + k2 * s12), -1j * (k1 * s12 + k2 * s22)])
    db = np.stack([1j * k2 * w, -1j * k1 * w])
    return project_coeffs(du, grid), project_coeffs(db, grid)


def _contour_etd(z, h, n=32):
    """(e^z, e^{z/2}, Q, f1, f2, f3) of ETDRK4 at the real z = L h, by the
    contour integral of Kassam & Trefethen (SIAM J. Sci. Comput. 26, 2005):
    each closed form averaged over n points of the unit circle around z."""
    w = z[..., None] + np.exp(1j * np.pi * (np.arange(n) + 0.5) / n)
    e = np.exp(w)

    def mean(v):
        # the upper half circle; the lower half gives the complex conjugate
        return h * np.mean(v, axis=-1).real

    return (np.exp(z), np.exp(0.5 * z), mean(np.expm1(0.5 * w) / w),
            mean((-4.0 - w + e * (4.0 - 3.0 * w + w**2)) / w**3),
            mean((2.0 + w + e * (w - 2.0)) / w**3),
            mean((-4.0 - 3.0 * w - w**2 + e * (4.0 - w)) / w**3))


def _vector_simulate(cfg, uc, bc, n_steps):
    """Unforced ETDRK4 on the vector fields (u, b), in the form of Cox &
    Matthews (J. Comput. Phys. 176, 2002), with contour-integral coefficients."""
    g, h = cfg.grid, cfg.dt
    coeffs = [_contour_etd(-visc * g.ksq * h, h) for visc in (cfg.nu, cfg.eta)]
    x = [uc, bc]

    def rhs(v):
        return list(_vector_rhs(v[0], v[1], g))

    for _ in range(n_steps):
        n1 = rhs(x)
        sa = [k[1] * xi + k[2] * ni for k, xi, ni in zip(coeffs, x, n1)]
        n2 = rhs(sa)
        sb = [k[1] * xi + k[2] * ni for k, xi, ni in zip(coeffs, x, n2)]
        n3 = rhs(sb)
        sc = [k[1] * ai + k[2] * (2.0 * mi - ni) for k, ai, mi, ni in zip(coeffs, sa, n3, n1)]
        n4 = rhs(sc)
        x = [k[0] * xi + k[3] * p1 + 2.0 * k[4] * (p2 + p3) + k[5] * p4
             for k, xi, p1, p2, p3, p4 in zip(coeffs, x, n1, n2, n3, n4)]
    return x[0], x[1]


def _rel_max(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


# the error simulate raises for data with a mode beyond the 2/3-rule cut
_BEYOND_CUT = r"has a mode \(k1, k2\) = \(-?\d+, \d+\) beyond the 2/3-rule cut M/3 = "


class TestPotentialFormCore:
    """The (omega, a) half-spectrum core against the vector form it replaces."""

    # "dealias": energy up to k = M/4, inside the 2/3-rule cut; "cut": energy
    # up to k = M/3, a mode of the grid at M = 48, so the block's edge is
    # filled; "raw": energy up to the Nyquist band, beyond the cut, which the
    # solver refuses: it would feed aliased products
    @pytest.fixture(params=[(32, "dealias"), (32, "raw"), (64, "dealias"), (64, "raw"),
                            (48, "cut")],
                    ids=["M32-dealias", "M32-raw", "M64-dealias", "M64-raw", "M48-cut"])
    def case(self, request):
        """(cfg, initial state, whether the solver refuses it)."""
        m, kind = request.param
        grid = TorusGrid(m)
        kmax = {"dealias": m // 4, "cut": m // 3, "raw": m // 2 - 1}[kind]
        u0, b0 = (random_divergence_free(grid, kmax, seed=m + i) for i in (1, 2))
        # unit max norm: well inside the CFL limit
        u0, b0 = (f * (1.0 / np.abs(f.to_grid()).max()) for f in (u0, b0))
        cfg = SimConfig(nu=0.05, eta=0.02, grid=grid, dt=1e-3, t_end=0.02, output_cadence=5)
        return cfg, MHDState(u0, b0, 0.0), kind == "raw"

    def test_nonlinear_rhs_matches_vector_form(self, case):
        cfg, st, refused = case
        if refused:
            with pytest.raises(ConfigurationError, match="^u " + _BEYOND_CUT):
                nonlinear_tendencies(st)
            return
        du, db = nonlinear_tendencies(st)
        ref_u, ref_b = _vector_rhs(_half(st.u), _half(st.b), cfg.grid)
        assert _rel_max(_half(du), ref_u) < 1e-12
        assert _rel_max(_half(db), ref_b) < 1e-12

    def test_twenty_steps_match_vector_form(self, case):
        cfg, st, refused = case
        if refused:
            m = cfg.grid.resolution
            with pytest.raises(ConfigurationError,
                               match=rf"{_BEYOND_CUT}{m / 3:.4g} at M = {m}; it needs M >= \d+$"):
                simulate(cfg, st)
            return
        out = simulate(cfg, st)
        ref_u, ref_b = _vector_simulate(cfg, _half(st.u), _half(st.b), 20)
        assert out.t == pytest.approx(0.02)
        assert _rel_max(_half(out.u), ref_u) < 1e-12
        assert _rel_max(_half(out.b), ref_b) < 1e-12

    def test_every_emitted_state_is_valid(self, case):
        cfg, st, refused = case
        seen = []
        if refused:
            # refused before any sink fires
            with pytest.raises(ConfigurationError, match=_BEYOND_CUT):
                simulate(cfg, st, sinks=[seen.append])
            assert seen == []
            return
        simulate(cfg, st, sinks=[seen.append])
        assert [s.t for s in seen] == pytest.approx([0.0, 0.005, 0.01, 0.015, 0.02])
        for s in seen:
            # the vector view passes the checks of from_components and reads back
            for f in (s.u, s.b):
                back = SpectralField2D.from_components(cfg.grid, f.components())
                assert _rel_max(back.psi, f.psi) < 1e-13

    def test_nyquist_content_removed_after_first_step(self, grid32):
        ny = grid32.resolution // 2
        u0 = 0.3 * make_taylor(TaylorSpec(2, 1), 1.0, grid32)
        b = make_taylor(TaylorSpec(1, 1), 1.0, grid32).components()
        # a real, divergence-free mode cos(M/2 y) e_x on the Nyquist line k2 = M/2:
        # reading the vector view drops it
        b[0, 0, ny] = 0.1
        b0 = SpectralField2D.from_components(grid32, b)
        assert np.all(b0.components()[:, :, ny] == 0.0)
        cfg = SimConfig(nu=NU, eta=ETA, grid=grid32, dt=1e-3, t_end=1e-3)
        out = simulate(cfg, MHDState(u0, b0, 0.0))
        for f in (out.u, out.b):
            c = f.components()
            assert np.all(c[:, ny, :] == 0.0) and np.all(c[:, :, ny] == 0.0)
        assert l2_norm(out.b) > 0.9 * l2_norm(make_taylor(TaylorSpec(1, 1), 1.0, grid32))
