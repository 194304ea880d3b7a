import numpy as np
import pytest

from qbmotion.errors import GridMismatchError, NumericalError
from qbmotion.params import ModelParams, ModelVariant
from qbmotion.roots import solve_characteristic_cubic
from qbmotion import coeffs, green, oracle

ORIG = ModelVariant.ORIGINAL
CL = ModelVariant.CALDEIRA_LEGGETT
WS = ModelVariant.WEAK_SHIFTED_KERNEL


class TestVolterra:
    def test_free_oscillator(self):
        p = ModelParams(gamma=0.0)
        sol = oracle.volterra_solve(0.0, 1.0, 6.28, p, step=1e-3)
        assert np.max(np.abs(sol.u - np.sin(sol.s))) < 1e-6

    def test_matches_closed_form(self, canonical):
        r = solve_characteristic_cubic(canonical, ORIG)
        sol = oracle.volterra_solve(0.0, 1.0, 10.0, canonical, step=2e-4)
        ref = green.g1_smooth(sol.s, r, canonical)
        assert np.max(np.abs(sol.u - ref)) < 1e-6

    def test_second_order_convergence(self, canonical):
        r = solve_characteristic_cubic(canonical, ORIG)
        errs = []
        for step in (8e-4, 4e-4):
            sol = oracle.volterra_solve(0.0, 1.0, 5.0, canonical, step=step)
            errs.append(np.max(np.abs(sol.u - green.g1_smooth(sol.s, r, canonical))))
        order = np.log2(errs[0] / errs[1])
        assert 1.8 <= order <= 2.2

    def test_step_resolution_guard(self, canonical):
        with pytest.raises(NumericalError):
            oracle.volterra_solve(0.0, 1.0, 1.0, canonical, step=0.1 / canonical.omega_c)

    def test_residual_estimate(self, canonical):
        sol = oracle.volterra_solve(0.0, 1.0, 2.0, canonical, step=5e-4)
        assert np.isfinite(sol.residual)
        assert sol.residual < 1e-5

    @pytest.mark.parametrize("n", [2, 3, 17, 100, 101, 8000])
    def test_blocked_recurrence_matches_stepping(self, canonical, n):
        # the blocked powers reorder the roundoff of y_i = phi^i y_0 only
        t_end = n * 5e-4
        sol = oracle.volterra_solve(1.0, -0.5, t_end, canonical, step=t_end / (n - 0.5))
        assert len(sol.s) == n + 1
        phi = oracle._step_matrix(sol.step, canonical, ORIG)
        y = np.array([1.0, -0.5, 0.0])
        ref = [y]
        for _ in range(n):
            y = phi @ y
            ref.append(y)
        ref = np.array(ref)
        got = np.column_stack((sol.u, sol.du, sol.mem))
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref), axis=0) == pytest.approx(
            0.0, abs=1e-13 * float(np.max(np.abs(ref))))


class TestCausalSimpson:
    """The inner product rule against int_0^u e^{-a(u-tau)} cos(b tau) dtau."""

    A, B, U = 1.3, 2.1, 2.0

    def _errors(self, n):
        h = self.U / n
        tau = np.arange(n + 1) * h
        got = oracle._causal_simpson(np.exp(-self.A * tau), np.cos(self.B * tau)[:, None], h)[:, 0]
        a, b = self.A, self.B
        exact = (a * np.cos(b * tau) + b * np.sin(b * tau) - a * np.exp(-a * tau)) / (a * a + b * b)
        return np.abs(got - exact)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 32, 33])
    def test_every_node_against_closed_form(self, n):
        err = self._errors(n)
        h = self.U / n
        assert err[0] == 0.0
        # trapezoid at m = 1, Simpson or Simpson plus 3/8 from m = 2 on
        assert err[1] <= 0.5 * h**3
        assert np.all(err[2:] <= 0.5 * h**4)

    def test_fourth_order_under_halving(self):
        coarse, fine = self._errors(64), self._errors(128)
        # every coarse node m is node 2m of the fine grid; the maximum over
        # m >= 2 mixes the even and odd rules
        assert np.max(coarse[2:]) / np.max(fine[2:]) == pytest.approx(16.0, rel=0.2)
        assert coarse[-1] / fine[-1] == pytest.approx(16.0, rel=0.2)
        # the single trapezoid panel at m = 1 is third order
        assert coarse[1] / fine[1] == pytest.approx(8.0, rel=0.2)


class TestOracleAB:
    def test_zero_at_origin(self, canonical):
        assert oracle.oracle_AB(0.0, canonical) == (0.0, 0.0)

    def test_cross_validation_point(self, canonical):
        ctx = coeffs.evaluation_context(canonical, ORIG)
        a_o, b_o = oracle.oracle_AB(1.0, canonical)
        a, b = ctx.drift(1.0)
        assert abs(a - a_o) <= 1e-6 * max(1.0, abs(a))
        assert abs(b - b_o) <= 1e-6 * max(1.0, abs(b))

    def test_near_asymptotic(self, canonical):
        r = solve_characteristic_cubic(canonical, ORIG)
        cs = coeffs.asymptotics(r, canonical)
        a_o, _ = oracle.oracle_AB(10.0, canonical)
        assert a_o == pytest.approx(cs.A, abs=1e-5)

    def test_convergence_order(self, canonical):
        ctx = coeffs.evaluation_context(canonical, ORIG)
        a_ref, b_ref = ctx.drift(2.0)
        errs = []
        for step in (1.0e-3, 5.0e-4):
            a_o, b_o = oracle.oracle_AB(2.0, canonical, step=step)
            errs.append(abs(a_o - a_ref) + abs(b_o - b_ref))
        order = np.log2(errs[0] / errs[1])
        assert 1.8 <= order <= 2.2


class TestOracleCD:
    def test_short_time_law(self, canonical):
        t = 0.02 / canonical.omega_c
        c_o, d_o = oracle.oracle_CD(t, canonical)
        st = coeffs.short_time(t, canonical)
        assert c_o == pytest.approx(st.C, rel=0.03)
        assert d_o == pytest.approx(st.D, rel=0.03)

    def test_cross_validation_point(self, canonical):
        ctx = coeffs.evaluation_context(canonical, ORIG)
        c, d = ctx.diffusion(1.0)
        c_o, d_o = oracle.oracle_CD(1.0, canonical)
        assert c_o == pytest.approx(c, rel=1e-4)
        assert d_o == pytest.approx(d, rel=1e-4)

    def test_triple_term_isolation(self, canonical):
        # the triple-integral contribution alone matches the closed C3/D3
        # at the coefficient-scale tolerance (the term itself can be orders
        # of magnitude below C, D)
        ctx = coeffs.evaluation_context(canonical, ORIG)
        t = 1.0
        c3, d3 = ctx.triple_parts(t)
        c, d = ctx.diffusion(t)
        hbar, mass = canonical.hbar, canonical.mass
        parts = oracle.oracle_CD(t, canonical, return_parts=True)
        dev_c = abs(parts["triple_c"] - float(c3[0].real)) * 2.0 * hbar / mass**2
        dev_d = abs(parts["triple_d"] - float(d3[0].real)) * 2.0 * hbar / mass
        assert dev_c <= 1e-4 * abs(c)
        assert dev_d <= 1e-4 * abs(d)

    def test_causality(self, canonical):
        # the kernel is never evaluated at lags beyond t, and perturbing it
        # there changes nothing
        from qbmotion.special import nu0_regular

        t = 0.8
        seen = []

        def spy(lag):
            seen.append(np.max(lag))
            assert np.all(lag >= 0.0)
            return nu0_regular(lag, canonical)

        base_c, base_d = oracle.oracle_CD(t, canonical, nu_regular_fn=spy)
        assert max(seen) <= t * (1 + 1e-12)

        def perturbed(lag):
            out = np.asarray(nu0_regular(lag, canonical)).copy()
            out = np.where(np.asarray(lag) > t * (1 + 1e-12), out + 1e6, out)
            return out

        c_p, d_p = oracle.oracle_CD(t, canonical, nu_regular_fn=perturbed)
        assert c_p == base_c and d_p == base_d

    def test_richardson_panels(self):
        # at Wc t = 20 the floor of 32 Wc t panels is 640; doubling it past
        # the floor quarters the error (second order in the panel width)
        p = ModelParams(gamma=3.5)
        t = 20.0 / p.omega_c
        c, d = coeffs.evaluation_context(p, CL).diffusion(t)
        errs = []
        for panels in (640, 1280):
            c_o, d_o = oracle.oracle_CD(t, p, panels=panels, variant=CL)
            errs.append((abs(c_o - c), abs(d_o - d)))
        (ec1, ed1), (ec2, ed2) = errs
        assert ec1 / ec2 == pytest.approx(4.0, rel=0.3)
        assert ed1 / ed2 == pytest.approx(4.0, rel=0.3)

    @pytest.mark.parametrize("variant, gamma", [(CL, 3.5), (WS, 2.0)],
                             ids=["caldeira_leggett", "weak_shifted_kernel"])
    def test_other_variants(self, variant, gamma):
        # perfbench's oracle bound, taken against each point's own |X|
        p = ModelParams(gamma=gamma, omega_c=40.0)
        ts = np.array([0.5, 2.0, 8.0, 20.0]) / p.omega_c
        ctx = coeffs.evaluation_context(p, variant)
        c, d = ctx.diffusion(ts)
        for i, t in enumerate(ts):
            c_o, d_o = oracle.oracle_CD(float(t), p, variant=variant)
            assert abs(c_o - c[i]) <= 2e-3 * abs(c[i])
            assert abs(d_o - d[i]) <= 2e-3 * abs(d[i])


class TestCompare:
    def _series(self, vals):
        return [coeffs.CoefficientSet(float(i), v, v, v, v, "exact")
                for i, v in enumerate(vals)]

    def test_identical_series_pass(self):
        a = self._series([1.0, 2.0])
        rep = oracle.compare(a, a, 1e-12)
        assert rep.passed
        assert max(rep.max_abs.values()) == 0.0

    def test_deviation_fails_with_location(self):
        a = self._series([1.0, 2.0])
        b = self._series([1.0, 2.0 + 1e-3])
        rep = oracle.compare(a, b, 1e-4)
        assert not rep.passed
        assert rep.worst_t["A"] == 1.0
        assert rep.max_abs["A"] == pytest.approx(1e-3)

    def test_grid_mismatch(self):
        a = self._series([1.0, 2.0])
        b = [coeffs.CoefficientSet(0.0, 1, 1, 1, 1), coeffs.CoefficientSet(3.0, 2, 2, 2, 2)]
        with pytest.raises(GridMismatchError):
            oracle.compare(a, b, 1e-6)
        with pytest.raises(GridMismatchError):
            oracle.compare(a, a[:1], 1e-6)
