import warnings

import numpy as np
import pytest

from conftest import fdt_stationary_covariance
from qbmotion.errors import DomainError, InconsistentParametersError
from qbmotion.params import ModelParams, ModelVariant
from qbmotion import coeffs, dynamics

ORIG = ModelVariant.ORIGINAL
CL = ModelVariant.CALDEIRA_LEGGETT


class TestMomentRhs:
    def test_free_oscillator_is_symplectic(self):
        p = ModelParams(gamma=0.0)
        zero = coeffs.CoefficientSet(0.0, 0.0, 0.0, 0.0, 0.0)
        st = dynamics.GaussianState(1.0, 0.5, 0.6, 0.1, 0.7)
        dq, dp, dqq, dqp, dpp = dynamics.moment_rhs(st, zero, p, ORIG)
        assert dq == st.mean_p
        assert dp == -st.mean_q
        # d(RS)/dt = spp*dqq + sqq*dpp - 2 sqp dqp = 0 for the free flow
        drs = st.cov_pp * dqq + st.cov_qq * dpp - 2.0 * st.cov_qp * dqp
        assert drs == pytest.approx(0.0, abs=1e-15)

    def test_stationary_point_reproduces_q(self, canonical):
        # algebraic fixed point of the second-moment system against the
        # closed-form positivity ratio
        sqq, sqp, spp = dynamics.stationary_covariance(canonical, ORIG)
        r_from_cov = 4.0 * (sqq * spp - sqp**2) / canonical.hbar**2
        q = dynamics.stationary_Q(canonical, ORIG)
        assert r_from_cov == pytest.approx(q, rel=1e-12)
        # and it really is a fixed point of moment_rhs with asymptotic coefficients
        from qbmotion.roots import solve_characteristic_cubic

        roots = solve_characteristic_cubic(canonical, ORIG)
        cs = coeffs.asymptotics(roots, canonical)
        st = dynamics.GaussianState(0.0, 0.0, sqq, sqp, spp)
        rhs = dynamics.moment_rhs(st, cs, canonical, ORIG)
        assert max(abs(v) for v in rhs) < 1e-14


class TestPropagate:
    def test_free_oscillator_conserves_energy_and_rs(self):
        p = ModelParams(gamma=0.0)
        st = dynamics.GaussianState(1.0, 0.0, 0.5, 0.0, 0.5)
        res = dynamics.propagate(st, p, ORIG, "exact", t_end=2 * np.pi * 100)
        energy = res.mean_p**2 / 2 + res.mean_q**2 / 2
        assert np.max(np.abs(energy - energy[0])) < 1e-8
        rs = res.rs_function
        assert np.max(np.abs(rs - rs[0])) < 1e-12

    def test_free_oscillator_order_four(self):
        # the dt <= 0.02/Wc guard keeps the truncation error below roundoff at
        # Wc >= 10 W0; at gamma = 0 the cutoff drops out of the dynamics, so a
        # low cutoff admits steps where the fourth order shows against cos t
        with pytest.warns(UserWarning, match="omega_c < 10"):
            p = ModelParams(gamma=0.0, omega_c=0.1)
        st = dynamics.GaussianState(1.0, 0.0, 0.5, 0.0, 0.5)
        t_end = 5.0
        errs = []
        for dt in (0.2, 0.1, 0.05):
            r = dynamics.propagate(st, p, ORIG, "exact", t_end=t_end, dt=dt)
            errs.append(abs(r.mean_q[-1] - np.cos(t_end)))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.2)

    def test_damped_error_decreases_with_dt(self, canonical):
        # the t log t jolt of D limits the observable order at the origin;
        # halving dt must still shrink the terminal error several-fold
        st = dynamics.ground_state(canonical)
        ref = dynamics.propagate(st, canonical, ORIG, "exact", t_end=2.0, dt=5e-5)
        errs = []
        for dt in (4e-4, 2e-4):
            r = dynamics.propagate(st, canonical, ORIG, "exact", t_end=2.0, dt=dt)
            errs.append(abs(r.cov_pp[-1] - ref.cov_pp[-1]))
        assert errs[0] > 3.5 * errs[1]

    def test_dt_guard(self, canonical):
        with pytest.raises(DomainError):
            dynamics.propagate(dynamics.ground_state(canonical), canonical, ORIG,
                               t_end=1.0, dt=1.0 / canonical.omega_c)

    def test_converges_to_stationary_covariance(self, canonical):
        # long-time propagation against the algebraic fixed point
        sqq, sqp, spp = dynamics.stationary_covariance(canonical, ORIG)
        res = dynamics.propagate(dynamics.ground_state(canonical), canonical, ORIG,
                                 "exact", t_end=1100.0)
        fin = res.final_state()
        assert fin.cov_qq == pytest.approx(sqq, abs=1e-6)
        assert fin.cov_qp == pytest.approx(sqp, abs=1e-6)
        assert fin.cov_pp == pytest.approx(spp, abs=1e-6)


class TestWeakMode:
    @pytest.mark.parametrize("variant", [ORIG, CL])
    def test_table_is_the_closed_form_on_any_grid(self, canonical, variant, monkeypatch):
        # the CLI's default grid, then the fine-then-coarse grid that the
        # integrator tabulates on for t_end = 10, recorded as it is built
        grids = [np.linspace(0.0, 10.0, 200)]
        table = dynamics.coefficient_table

        def recording(tgrid, *args):
            grids.append(tgrid)
            return table(tgrid, *args)

        monkeypatch.setattr(dynamics, "coefficient_table", recording)
        dynamics._stage_tables(10.0, 0.02 / canonical.omega_c, canonical, variant, "weak")
        assert len(grids) == 2
        steps = np.diff(grids[1])
        assert np.max(steps) > 10.0 * np.min(steps)
        for ts in grids:
            w = coeffs.weak_coeffs(ts, canonical, variant)
            got = table(ts, canonical, variant, "weak")
            for g, want in zip(got, (w.A, w.B, w.C, w.D)):
                assert np.array_equal(g, want)

    @pytest.mark.parametrize("variant", [ORIG, CL])
    def test_propagation_does_not_depend_on_t_end(self, canonical, variant):
        # t_end = 10 tabulates on a fine-then-coarse grid, t_end = 3 on the
        # uniform stage grid; the moments at t = 3 must not see the difference
        st = dynamics.GaussianState(1.0, 0.0, 0.5, 0.0, 0.5)
        long_ = dynamics.propagate(st, canonical, variant, "weak", t_end=10.0)
        short = dynamics.propagate(st, canonical, variant, "weak", t_end=3.0)
        i = int(np.argmin(np.abs(long_.t - 3.0)))
        assert long_.t[i] == pytest.approx(short.t[-1], abs=1e-12)
        mean = np.hypot(short.mean_q[-1], short.mean_p[-1])
        assert abs(long_.mean_q[i] - short.mean_q[-1]) <= 1e-9 * mean
        assert abs(long_.mean_p[i] - short.mean_p[-1]) <= 1e-9 * mean
        spread = np.sqrt(short.cov_qq[-1] * short.cov_pp[-1])
        assert long_.cov_qq[i] == pytest.approx(short.cov_qq[-1], rel=1e-9)
        assert abs(long_.cov_qp[i] - short.cov_qp[-1]) <= 1e-9 * spread
        assert long_.cov_pp[i] == pytest.approx(short.cov_pp[-1], rel=1e-9)


class TestOmegaObs:
    def test_initial_value_is_bare_frequency(self, canonical):
        assert dynamics.omega_obs(0.0, canonical, ORIG) == pytest.approx(1.0)

    def test_negative_square_is_reported_not_raised(self):
        p = ModelParams(gamma=0.015)  # just above gamma_cr = 0.0125
        v = dynamics.omega_obs_squared(np.array([200.0]), p, ORIG)
        assert v[0] < 0
        assert np.isnan(dynamics.omega_obs(np.array([200.0]), p, ORIG)[0])

    def test_caldeira_leggett_supercritical_divergences(self):
        p = ModelParams(gamma=5.2)
        ts = np.linspace(0.0, 20.0, 2001)
        v = dynamics.omega_obs_squared(ts, p, CL)
        sign_changes = int(np.sum(np.sign(v[1:]) * np.sign(v[:-1]) < 0))
        assert sign_changes >= 2

    def test_caldeira_leggett_includes_shift(self):
        p = ModelParams(gamma=5.0)
        assert dynamics.omega_obs_squared(0.0, p, CL) == pytest.approx(
            1.0 + 2.0 * 5.0 * 40.0
        )


class TestStationaryQ:
    def test_positive_region(self, canonical):
        gcr = 0.0125
        gs = np.linspace(gcr / 50, 0.99 * gcr, 50)
        qs = np.array([dynamics.stationary_Q(ModelParams(gamma=float(g)), ORIG)
                       for g in gs])
        qws = np.array([dynamics.stationary_Q(ModelParams(gamma=float(g)), ORIG, "weak")
                        for g in gs])
        assert np.all(qs > 1.0)
        assert np.all(qws > 1.0)
        assert np.all(np.diff(qs) > 0)  # monotone toward the divergence

    def test_divergence_toward_critical(self):
        # the exact Q diverges only slowly at gamma_cr (1.71 at 0.99 gamma_cr,
        # 12.7 at 1 - 1e-5); the fluctuation-dissipation oracle fixes every
        # value on the way
        pytest.importorskip("mpmath")
        gcr = 0.0125
        fractions = (0.5, 0.99, 1 - 1e-3, 1 - 1e-4, 1 - 1e-5)
        qs = []
        for f in fractions:
            p = ModelParams(gamma=f * gcr)
            s_qq, s_pp = fdt_stationary_covariance(p, ORIG)
            q = dynamics.stationary_Q(p, ORIG)
            assert q == pytest.approx(4.0 * s_qq * s_pp / p.hbar**2, rel=1e-10)
            qs.append(q)
        q_mid, q_hi = qs[0], qs[1]
        assert q_hi > q_mid
        assert np.all(np.diff(qs) > 0)
        assert qs[-1] > 10.0

    def test_weak_and_exact_disagree_somewhere(self):
        gcr = 0.0125
        rel = []
        for g in np.linspace(gcr / 20, 0.9 * gcr, 10):
            q = dynamics.stationary_Q(ModelParams(gamma=float(g)), ORIG)
            qw = dynamics.stationary_Q(ModelParams(gamma=float(g)), ORIG, "weak")
            rel.append(abs(q - qw) / q)
        assert max(rel) > 0.01

    def test_supercritical_raises_for_original(self):
        with pytest.raises(InconsistentParametersError):
            dynamics.stationary_Q(ModelParams(gamma=0.02), ORIG)

    def test_weak_continuation_beyond_critical_for_cl(self):
        p = ModelParams(gamma=5.2)
        with pytest.warns(UserWarning):
            qw = dynamics.stationary_Q(p, CL, "weak")
        assert np.isfinite(qw)
        with pytest.raises(InconsistentParametersError):
            dynamics.stationary_Q(p, CL, "exact")

    def test_gamma_zero_limit_flagged(self):
        with pytest.warns(UserWarning, match="small-coupling"):
            q = dynamics.stationary_Q(ModelParams(gamma=0.0), ORIG)
        assert q == pytest.approx(1.0, abs=1e-3)


class TestConsistencyReport:
    def test_canonical_point_is_consistent(self, canonical):
        rep = dynamics.consistency_report(canonical, ORIG)
        assert rep.frequency_consistent and rep.positivity_consistent
        assert rep.Q > 1.0
        assert rep.omega_obs_sq_inf > 0.0

    def test_supercritical_original(self):
        rep = dynamics.consistency_report(ModelParams(gamma=1 / 40), ORIG)
        assert not rep.frequency_consistent
        assert rep.omega_obs_sq_inf < 0.0

    def test_supercritical_caldeira_leggett(self):
        rep = dynamics.consistency_report(ModelParams(gamma=5.2), CL)
        assert not rep.frequency_consistent
        assert "diverges periodically" in rep.annotation
        assert np.isfinite(rep.Q_weak)
