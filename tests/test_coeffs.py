import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import oscillatory_integral
from qbmotion.errors import (
    DomainError,
    InconsistentParametersError,
    PoleCollisionError,
)
from qbmotion.params import ModelParams, ModelVariant, normalize, unit_scales
from qbmotion.roots import solve_characteristic_cubic
from qbmotion import coeffs, green, oracle
from qbmotion.special import nu0_amplitude, spectral_density

ORIG = ModelVariant.ORIGINAL


@pytest.fixture(scope="module")
def ctx(canonical):
    return coeffs.evaluation_context(canonical, ORIG)


@pytest.fixture(scope="module")
def roots(canonical):
    return solve_characteristic_cubic(canonical, ORIG)


def _cquad(f, a, b):
    re, _ = quad(lambda x: f(x).real, a, b, limit=400)
    im, _ = quad(lambda x: f(x).imag, a, b, limit=400)
    return re + 1j * im


@lru_cache(maxsize=None)
def _weak_diffusion_reference(t, params, variant):
    """(C_w, D_w) by 30-digit tanh-sinh quadrature of the noise kernel.

    The interval is split at the 1/Wc kernel scale and at every half period
    of the trig factor, so each piece of the oscillatory tail converges.
    """
    import mpmath as mp

    with mp.workdps(30):
        wc = mp.mpf(params.omega_c)
        amp = 2 * params.mass * params.gamma * wc**2 / mp.pi
        a2 = params.omega**2
        if variant is ModelVariant.CALDEIRA_LEGGETT:
            a2 += 2 * params.gamma * params.omega_c
        a = mp.sqrt(a2)

        def nu(s):
            x = wc * s
            return amp * (mp.exp(x) * mp.e1(x) - mp.exp(-x) * mp.ei(x)) / 2

        cuts = [k / wc for k in (1, 4, 16)] + [k * mp.pi / a for k in range(1, int(t * a / mp.pi) + 1)]
        pts = [mp.mpf(0)] + sorted(c for c in cuts if c < t) + [mp.mpf(t)]
        int_sin = mp.quad(lambda s: nu(s) * mp.sin(a * s), pts)
        int_cos = mp.quad(lambda s: nu(s) * mp.cos(a * s), pts)
        return float(params.hbar / (params.mass * a) * int_sin), float(params.hbar * int_cos)


class TestDrift:
    def test_zero_at_origin(self, ctx):
        a, b = ctx.drift(0.0)
        assert a == 0.0 and b == 0.0

    def test_matches_asymptotics_at_long_time(self, canonical, ctx, roots):
        cs = coeffs.asymptotics(roots, canonical)
        a, b = ctx.drift(200.0)
        assert a == pytest.approx(cs.A, rel=1e-8)
        assert b == pytest.approx(cs.B, rel=1e-8)

    def test_against_oracle(self, canonical, ctx):
        a_o, b_o = oracle.oracle_AB(1.0, canonical)
        a, b = ctx.drift(1.0)
        assert a == pytest.approx(a_o, abs=1e-6)
        assert b == pytest.approx(b_o, abs=1e-6)

    def test_gamma_zero_is_exactly_zero(self):
        p = ModelParams(gamma=0.0)
        a, b = coeffs.evaluation_context(p, ORIG).drift(np.array([0.0, 1.0, 5.0]))
        assert np.all(a == 0.0) and np.all(b == 0.0)


class TestIntermediateTables:
    def test_d_to_c_ratio_is_z1(self, canonical, roots):
        tab = coeffs.IntermediateTables(roots, canonical)
        alpha = 0.37 + 0.21j
        assert tab.d1(1, alpha) / tab.c1(1, alpha) == pytest.approx(roots.z1, rel=1e-12)
        for i in (1, 7, 10):
            assert tab.d3(i, alpha) / tab.c3(i, alpha) == pytest.approx(
                roots.z1, rel=1e-12
            )

    def test_c1_closure(self, canonical, roots):
        tab = coeffs.IntermediateTables(roots, canonical)
        alpha = -0.9 + 1.4j
        total = sum(tab.c1(k, alpha) for k in range(4))
        assert abs(total) < 1e-12 * abs(tab.c1(1, alpha))

    def test_pole_collision_raises(self, canonical, roots):
        tab = coeffs.IntermediateTables(roots, canonical)
        with pytest.raises(PoleCollisionError):
            tab.c1(1, roots.z1)
        with pytest.raises(PoleCollisionError):
            tab.c3(1, -roots.z1)

    def test_single_operator_action(self, canonical, roots):
        # Chat1 on e^{-alpha t} equals the direct convolution quadrature
        tab = coeffs.IntermediateTables(roots, canonical)
        alpha, t = 0.3 + 0.2j, 2.0
        want_c = _cquad(lambda x: green.g1_smooth(x, roots, canonical) * np.exp(-alpha * x), 0, t)
        want_d = _cquad(
            lambda x: green.g1_smooth_deriv(x, roots, canonical) * np.exp(-alpha * x), 0, t
        )
        got_c, got_d = tab.c1_operator(alpha, t)
        assert got_c == pytest.approx(want_c, abs=1e-8)
        assert got_d == pytest.approx(want_d, abs=1e-8)

    def test_triple_operator_action(self, canonical, roots):
        tab = coeffs.IntermediateTables(roots, canonical)
        t = 0.8
        for alpha in (0.3 + 0.2j, 1.5 - 0.7j):
            got_c, got_d = tab.c3_operator(alpha, t)
            assert got_c == pytest.approx(_triple_brute(t, alpha, False, roots, canonical), rel=1e-6)
            assert got_d == pytest.approx(_triple_brute(t, alpha, True, roots, canonical), rel=1e-6)

    def test_triple_operator_action_early(self, canonical, roots):
        # at t = 0.05 the e^{-Wc t}-fast entries and the folded e^{(alpha-Wc)t}
        # term are still of the size of the result
        tab = coeffs.IntermediateTables(roots, canonical)
        t = 0.05
        for alpha in (0.3 + 0.2j, -0.5):
            got_c, got_d = tab.c3_operator(alpha, t)
            assert got_c == pytest.approx(_triple_brute(t, alpha, False, roots, canonical), rel=1e-6)
            assert got_d == pytest.approx(_triple_brute(t, alpha, True, roots, canonical), rel=1e-6)

    def test_odd_part_cancels_under_cosine_transform(self, canonical, roots):
        # EvaluationContext builds C3, D3 from the folded entries alone; that
        # is exact because the rest of the action is odd in alpha
        tab = coeffs.IntermediateTables(roots, canonical)

        def folded(alpha, t):
            """Sum over the 13 entries, and the size of its largest terms."""
            terms = np.array([
                np.array([tab.c3(i, alpha), tab.d3(i, alpha)])
                * np.exp((tab.exponent(i) - (alpha if i >= 7 else 0.0)) * t)
                for i in range(1, 14)
            ])
            return terms.sum(axis=0), np.abs(terms).max(axis=0)

        for alpha in (0.3 + 0.2j, 2.5):
            for t in (0.05, 0.8):
                plus, size = folded(alpha, t)
                minus, _ = folded(-alpha, t)
                odd = np.array(tab.c3_operator(alpha, t)) - plus
                full = np.array(tab.c3_operator(alpha, t)) + np.array(tab.c3_operator(-alpha, t))
                assert np.all(np.abs(odd) > 1e-6 * np.abs(plus + minus))
                # the entries cancel at early times, so rounding scales with size
                assert np.all(np.abs(full - (plus + minus)) < 1e-14 * size)


def _triple_brute(t, alpha, deriv, roots, params):
    """Chat3 (deriv=False) or Dhat3 on e^{-alpha t} by direct quadrature.

    The lambda integral separates, leaving smooth one-dimensional
    quadratures; the outer integral runs over the retarded time so the eta
    boundary layer sits at the grid origin.
    """
    wc = params.omega_c
    kamp = params.mass * params.gamma * wc**2
    den = green.g2_denominator(t, roots, params, scaled=False)
    nodes, wts = np.polynomial.legendre.leggauss(24)
    cuts = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]) / wc
    cuts = np.append(cuts[cuts < t], t)
    gf = green.g1_smooth_deriv if deriv else green.g1_smooth
    h_lam = _cquad(lambda lam: gf(t - lam, roots, params) * np.exp(alpha * lam), 0, t)

    def point(sig):
        s = t - sig
        part1 = _cquad(
            lambda tau: green.g1_smooth(s - tau, roots, params) * np.exp(-alpha * tau), 0, s)
        part2 = _cquad(
            lambda tau: (
                green.green_g2(s, tau, t, roots, params) - green.green_g1(s, tau, roots, params)
            ) * np.exp(-alpha * tau), 0, t)
        return -kamp * np.exp(-wc * sig) * (part1 + part2)

    outer = 0j
    for a, b in zip(cuts[:-1], cuts[1:]):
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        outer += 0.5 * (b - a) * sum(w * point(xx) for w, xx in zip(wts, x))
    return -den * h_lam * outer


class TestDiffusion:
    def test_requires_positive_time(self, ctx):
        with pytest.raises(DomainError):
            ctx.diffusion(0.0)

    def test_single_parts_match_direct_quadrature(self, canonical, ctx, roots):
        # C1(t) = int_0^t h(x) nu(x) dx with the log endpoint
        amp = nu0_amplitude(canonical)

        def nu(x):
            from qbmotion.special import I1

            return amp * I1(canonical.omega_c, x).real

        for t in (0.5, 2.0):
            want_c, _ = quad(
                lambda x: green.g1_smooth(x, roots, canonical) * nu(x), 0, t,
                limit=500, points=[0.0])
            want_d, _ = quad(
                lambda x: green.g1_smooth_deriv(x, roots, canonical) * nu(x), 0, t,
                limit=500, points=[0.0])
            c1, d1 = ctx.single_parts(t)
            assert c1[0].real == pytest.approx(want_c, rel=1e-9)
            assert d1[0].real == pytest.approx(want_d, rel=2e-8)

    def test_against_oracle(self, canonical, ctx):
        c_o, d_o = oracle.oracle_CD(1.0, canonical)
        c, d = ctx.diffusion(1.0)
        assert c == pytest.approx(c_o, rel=1e-4)
        assert d == pytest.approx(d_o, rel=1e-4)

    def test_short_time_agreement(self, canonical, ctx):
        t = 0.02 / canonical.omega_c
        c, d = ctx.diffusion(t)
        st = coeffs.short_time(t, canonical)
        assert c == pytest.approx(st.C, rel=0.02)
        assert d == pytest.approx(st.D, rel=0.02)

    def test_matches_asymptotics_when_converged(self, canonical, ctx, roots):
        cs = coeffs.asymptotics(roots, canonical)
        c, d = ctx.diffusion(1500.0)
        assert c == pytest.approx(cs.C, rel=1e-9)
        assert d == pytest.approx(cs.D, rel=1e-9)

    def test_long_time_markovianity(self, canonical, ctx):
        ts = np.linspace(100.0, 300.0, 41)
        a, b = ctx.drift(ts)
        c, d = ctx.diffusion(ts)
        for v in (a, b, c, d):
            assert np.max(v) - np.min(v) < 1e-6 * max(1.0, np.max(np.abs(v)))

    def test_jolt(self, canonical, ctx, roots):
        ts = np.linspace(1e-4, 3.0 / canonical.omega_c, 300)
        _, d = ctx.diffusion(ts)
        d_inf = coeffs.asymptotics(roots, canonical).D
        assert np.max(d) > d_inf

    def test_reality_on_a_wide_grid(self, canonical, ctx):
        # complex intermediates must cancel to real values everywhere
        ts = np.geomspace(1e-5, 400.0, 200)
        c, d = ctx.diffusion(ts)  # raises ConditioningError if Im leaks
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(d))


class TestWeak:
    def test_zero_at_origin(self, canonical):
        w = coeffs.weak_coeffs(0.0, canonical, ORIG)
        assert (w.A, w.B, w.C, w.D) == (0.0, 0.0, 0.0, 0.0)
        # an array of times, t = 0 and both I1/I2 branches included, equals
        # the scalar calls exactly; so does gamma = 0, where all are zero
        ts = np.concatenate([[0.0], np.geomspace(1e-4, 50.0, 40)])
        for p in (canonical, ModelParams(gamma=0.0)):
            for variant in ModelVariant:
                wv = coeffs.weak_coeffs(ts, p, variant)
                for name in "tABCD":
                    want = [getattr(coeffs.weak_coeffs(float(t), p, variant), name) for t in ts]
                    assert np.array_equal(getattr(wv, name), want)
                zeros = np.stack([wv.A, wv.B, wv.C, wv.D]) == 0.0
                assert np.all(zeros[:, 0]) and np.all(zeros) == (p.gamma == 0.0)

    def test_drift_antiderivatives(self, canonical):
        # A_w(t) = 2 int eta cos, B_w = -(2/M W0) int eta sin, via quadrature
        from qbmotion.special import eta

        t = 1.3
        w = coeffs.weak_coeffs(t, canonical, ORIG)
        a_ref, _ = quad(lambda s: 2.0 * float(eta(s, canonical)) * np.cos(s), 0, t)
        b_ref, _ = quad(lambda s: -2.0 * float(eta(s, canonical)) * np.sin(s), 0, t)
        assert w.A == pytest.approx(a_ref, rel=1e-10)
        assert w.B == pytest.approx(b_ref, rel=1e-10)

    def test_diffusion_against_plain_quadrature(self, canonical):
        # tanh-sinh quadrature handles the integrable log endpoint directly;
        # Caldeira-Leggett puts the trig factors off the bare frequency
        pytest.importorskip("mpmath")
        for variant in (ORIG, ModelVariant.CALDEIRA_LEGGETT):
            for t in (0.05, 0.8, 3.0, 10.0):
                w = coeffs.weak_coeffs(t, canonical, variant)
                c_ref, d_ref = _weak_diffusion_reference(t, canonical, variant)
                assert w.C == pytest.approx(c_ref, rel=1e-8)
                assert w.D == pytest.approx(d_ref, rel=1e-8)

    def test_diffusion_at_rounding_accuracy(self, canonical):
        # the closed form has no tolerance to tighten: at t = 3 and 30 it
        # already sits at the rounding level of the reference
        pytest.importorskip("mpmath")
        for variant in (ORIG, ModelVariant.CALDEIRA_LEGGETT):
            for t in (3.0, 30.0):
                w = coeffs.weak_coeffs(t, canonical, variant)
                c_ref, d_ref = _weak_diffusion_reference(t, canonical, variant)
                assert w.C == pytest.approx(c_ref, rel=1e-11)
                assert w.D == pytest.approx(d_ref, rel=1e-11)

    def test_infinite_time_forms(self, canonical, roots):
        cs = coeffs.asymptotics(roots, canonical, mode="weak")
        wc, om = canonical.omega_c, canonical.omega
        gam = canonical.gamma
        den = wc**2 + om**2
        assert cs.A == pytest.approx(-2.0 * gam * wc**3 / den, rel=1e-14)
        assert cs.B == pytest.approx(2.0 * gam * wc**2 / den, rel=1e-14)
        assert cs.C == pytest.approx(-(2.0 * gam * wc**2 / np.pi) * np.log(wc / om) / den,
                                     rel=1e-14)
        assert cs.D == pytest.approx(gam * wc**2 * om / den, rel=1e-14)

    def test_infinite_forms_against_tail_quadrature(self, canonical, roots):
        # independent evaluation of int_0^inf nu(s) trig(W0 s) ds
        cs = coeffs.asymptotics(roots, canonical, mode="weak")
        amp_i = lambda w: spectral_density(w, canonical)
        # nu-integrals swapped to frequency space: int dw I(w) * T(w),
        # T_sin = W0/(W0^2-w^2) (PV), T_cos = pi/2 delta(w-W0);
        # integrate the time side directly instead
        from qbmotion.special import nu0

        def tail_sum(trig):
            # int_0^1 by quad with the log endpoint, then oscillatory tail
            head, _ = quad(lambda s: float(nu0(s, canonical)) * trig(s), 0, np.pi,
                           points=[0.0], limit=400)
            segs = []
            for k in range(1, 80):
                v, _ = quad(lambda s: float(nu0(s, canonical)) * trig(s),
                            k * np.pi, (k + 1) * np.pi, limit=100)
                segs.append(v)
            partial = np.cumsum(segs[40:])
            s = list(partial)
            while len(s) > 1:
                s = [(s[i] + s[i + 1]) / 2.0 for i in range(len(s) - 1)]
            return head + sum(segs[:40]) + s[0]

        c_inf_ref = tail_sum(np.sin)
        d_inf_ref = tail_sum(np.cos)
        assert cs.C == pytest.approx(c_inf_ref, abs=1e-8)
        assert cs.D == pytest.approx(d_inf_ref, abs=1e-8)

    def test_proximity_to_exact_drift(self, canonical, ctx):
        ts = np.linspace(0.0, 5.0, 400)
        a, b = ctx.drift(ts)
        aw = np.array([coeffs.weak_coeffs(float(t), canonical, ORIG).A for t in ts[:: 40]])
        diff = np.abs(a[::40] - aw)
        assert np.max(diff) < np.max(np.abs(a)) / 100.0

    def test_caldeira_leggett_uses_shifted_trig(self):
        p = ModelParams(gamma=0.01)
        w_orig = coeffs.weak_coeffs(2.0, p, ORIG)
        w_cl = coeffs.weak_coeffs(2.0, p, ModelVariant.CALDEIRA_LEGGETT)
        assert w_orig.A != w_cl.A

    def test_weak_shifted_kernel_matches_original_weak_forms(self):
        # the kernels carry no bare-frequency dependence at T = 0, so shifting
        # them leaves the weak formulas untouched; only the trig factors
        # (unshifted here by definition) could differ
        p = ModelParams(gamma=0.01)
        w_orig = coeffs.weak_coeffs(2.0, p, ORIG)
        w_ws = coeffs.weak_coeffs(2.0, p, ModelVariant.WEAK_SHIFTED_KERNEL)
        assert w_ws == replace(w_orig, t=w_ws.t)


class TestShortTime:
    def test_leading_slope_of_A(self, canonical):
        t = 1e-7
        st = coeffs.short_time(t, canonical)
        slope = st.A / t
        assert slope == pytest.approx(-2.0 * canonical.mass * canonical.gamma
                                      * canonical.omega_c**2, rel=1e-4)

    def test_d_positive_and_log_dominated(self, canonical):
        t = 1e-3 / canonical.omega_c
        st = coeffs.short_time(t, canonical)
        assert st.D > 0
        no_log = (2.0 / np.pi) * canonical.mass * canonical.gamma * canonical.omega_c \
            * (canonical.omega_c * t)
        assert st.D > 3.0 * no_log

    def test_warns_outside_window(self, canonical):
        with pytest.warns(UserWarning):
            coeffs.short_time(0.5, canonical)

    def test_domain(self, canonical):
        with pytest.raises(DomainError):
            coeffs.short_time(0.0, canonical)

    def test_excess_order_of_drift(self, canonical, ctx):
        # A - A_s and B - B_s vanish like t^3
        ts = np.array([1e-3, 5e-4, 2.5e-4]) / canonical.omega_c
        da, db = [], []
        for t in ts:
            a, b = ctx.drift(float(t))
            st = coeffs.short_time(float(t), canonical)
            da.append(abs(a - st.A))
            db.append(abs(b - st.B))
        for d in (da, db):
            slope = np.polyfit(np.log(ts), np.log(d), 1)[0]
            assert slope == pytest.approx(3.0, abs=0.1)


class TestAsymptotics:
    def test_exact_requires_subcritical(self, canonical):
        p = ModelParams(gamma=0.013)
        r = solve_characteristic_cubic(p, ORIG)
        with pytest.raises(InconsistentParametersError):
            coeffs.asymptotics(r, p)

    def test_a_infinity_identity(self, canonical, roots):
        cs = coeffs.asymptotics(roots, canonical)
        wc = canonical.omega_c
        z2, z3 = roots.z2, roots.z3
        ref = -2.0 * canonical.mass * canonical.gamma * wc**2 * (wc + z2 + z3) \
            / ((wc + z2) * (wc + z3))
        assert cs.A == pytest.approx(ref.real, rel=1e-14)

    def test_weak_limit_of_exact_asymptotics(self):
        # gamma -> 0: exact asymptotics converge to the weak infinity forms,
        # fixing the complex-logarithm branches
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = ModelParams(gamma=1e-8)
            r = solve_characteristic_cubic(p, ORIG)
            ex = coeffs.asymptotics(r, p, "exact")
            wk = coeffs.asymptotics(r, p, "weak")
        for name in "ABCD":
            assert getattr(ex, name) == pytest.approx(getattr(wk, name), rel=1e-4)

    def test_single_integral_part_reproduces_weak_diffusion(self):
        # dropping the triple-integral contribution and taking gamma -> 0
        # recovers the weak asymptotics of C and D
        p = ModelParams(gamma=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = solve_characteristic_cubic(p, ORIG)
            cx = coeffs.evaluation_context(p, ORIG)
            wk = coeffs.asymptotics(r, p, "weak")
        c1_inf = cx.c1_inf.real * p.hbar / p.mass
        d1_inf = cx.d1_inf.real * p.hbar
        assert c1_inf == pytest.approx(wk.C, rel=1e-4)
        assert d1_inf == pytest.approx(wk.D, rel=1e-4)


class TestUnitCovariance:
    def test_raw_and_normalized_agree(self):
        raw = ModelParams(mass=2.0, omega=3.0, omega_c=120.0, gamma=0.03, hbar=1.5)
        sc = unit_scales(raw)
        pn = normalize(raw)
        t_raw = 0.7
        ctx_raw = coeffs.EvaluationContext(raw, ORIG)
        ctx_n = coeffs.EvaluationContext(pn, ORIG)
        a_r, b_r = ctx_raw.drift(t_raw)
        c_r, d_r = ctx_raw.diffusion(t_raw)
        a_n, b_n = ctx_n.drift(t_raw * raw.omega)
        c_n, d_n = ctx_n.diffusion(t_raw * raw.omega)
        assert a_r == pytest.approx(a_n * sc.drift_a, rel=1e-12)
        assert b_r == pytest.approx(b_n * sc.drift_b, rel=1e-12)
        assert c_r == pytest.approx(c_n * sc.diff_c, rel=1e-12)
        assert d_r == pytest.approx(d_n * sc.diff_d, rel=1e-12)
