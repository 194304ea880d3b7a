"""Closed-form master-equation coefficients A, B, C, D.

The drift coefficients A, B are ratios of cyclic exponential sums. The
diffusion coefficients C, D split into a single-integral part (C1, D1) and
a triple-integral part (C3, D3); acting with the corresponding integral
operators on single exponentials yields time-independent tables of
intermediate coefficients, after which the frequency integral over the
spectral density reduces to logarithms and the special integrals I1, I2
evaluated at r in {Wc, z1, z2, z3}.

All of that is precomputed once per (params, variant) into an immutable
EvaluationContext whose time evaluation is vectorized: the hot loop is a
matrix product against the vector
    v5(t) = (I1(Wc,t), I1(z1,t), I1(z2,t), I1(z3,t),
             I2(Wc,t), I2(z1,t), I2(z2,t), I2(z3,t)).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.special as sc

from .errors import (
    ConditioningError,
    DomainError,
    InconsistentParametersError,
    PoleCollisionError,
)
from .params import ModelParams, ModelVariant, effective_frequency_squared
from .roots import RootTriple, gamma_critical, solve_characteristic_cubic
from .special import EULER_GAMMA, I1, I2, _i1_i2, _right_half, nu0_amplitude
from . import green

_ROTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

POLE_TOL = 1e-10


@dataclass(frozen=True)
class CoefficientSet:
    """Values of the four coefficients at one time, with provenance.

    weak_coeffs called with an array of times fills every field with arrays.
    """

    t: float
    A: float
    B: float
    C: float
    D: float
    provenance: str = "exact"


class IntermediateTables:
    """Operator-action tables: residue form of the intermediate coefficients.

    Each single-integral coefficient is C1k(alpha) = res_k / (alpha - z_k);
    each triple-integral coefficient C3i(alpha) is a sum of simple-pole terms
    res / (alpha - p) with p in {+-z1, +-z2, +-z3}. The same pole maps carry
    the D-counterparts.

    The triple-integral entries are folded for the cosine transform, which
    only ever applies the operator to e^{-alpha t} + e^{alpha t}:

    - for the alpha-free exponentials (i = 1..6) the exact coefficient has
      poles at both +p and -p (p = a for i = 1..3, p = c for i = 4..6), of
      which the table keeps one; the residue r_p at the other is moved onto
      the kept pole with its sign flipped;
    - the exact action also carries X(alpha) e^{(alpha - Wc) t}, which the
      table folds into entry 13 as X(-alpha) e^{(-alpha - Wc) t}.

    Both folds drop a part that is odd under alpha -> -alpha, so they leave
    the cosine transform exact. That odd part is kept in `odd` (i = 1..6:
    r_p [1/(alpha - p) + 1/(alpha + p)]) and `fold` (the poles of X), and
    c3_operator adds it back to give the action on a single exponential.
    """

    def __init__(self, roots: RootTriple, params: ModelParams):
        self.roots = roots
        self.params = params
        wc = params.omega_c
        kamp = params.mass * params.gamma * wc**2
        zs = roots.as_tuple()
        self.zs = zs
        self.kamp = kamp
        self.wc = wc

        # single-integral tables: C1k(alpha) = (wc+z_k)/((alpha-z_k) Delta_k)
        self.delta = [
            (zs[0] - zs[1]) * (zs[2] - zs[0]),
            (zs[1] - zs[2]) * (zs[0] - zs[1]),
            (zs[2] - zs[0]) * (zs[1] - zs[2]),
        ]
        self.c1_res = [(wc + zs[k]) / self.delta[k] for k in range(3)]

        # triple-integral tables: list over i=1..13 of (eps_i, {pole: (resC, resD)})
        entries = []
        # odd parts of i = 1..6 as (p, (r_pC, r_pD)); see the class docstring
        odd = []
        for (ia, ib, ic) in _ROTATIONS:
            a, b, c = zs[ia], zs[ib], zs[ic]
            pref = -kamp * (a - b) * (a - c) * (b - c) ** 2 * (a + wc) / (a * (a + b) * (a + c))
            poles = [-a, -b, -c]
            resmap = {}
            for p in poles:
                dp = np.prod([p - q for q in poles if q is not p])
                rc = pref * (p**2 + (a + b + c) * p + (a + b) * (a + c)) / dp
                resmap[p] = (rc, a * rc)
            entries.append((2 * a + b + c, resmap))
            odd.append((a, (-pref / 2, -a * pref / 2)))
        for (ia, ib, ic) in _ROTATIONS:
            a, b, c = zs[ia], zs[ib], zs[ic]
            prefc = -kamp * (a - b) ** 2 * (a - c) * (b - c) / (c * (a + c) * (b + c))
            prefd = prefc * c
            poles = [a, b, c]
            resmap = {}
            for p in poles:
                dp = -np.prod([p - q for q in poles if q is not p])
                rc = prefc * ((wc - c) * p**2 + (a + b + c) * (c - wc) * p + (a + c) * (b + c) * wc) / dp
                rd = prefd * p * ((c - wc) * p + a * b + (a + b + c) * wc) / dp
                resmap[p] = (rc, rd)
            entries.append((a + b, resmap))
            odd.append((c, (prefc * (wc - c) / 2, -prefd * (wc - c) / 2)))
        # X(alpha) = sum_a q_a [-(wc + a)/(alpha - a) - (a - wc)/(alpha + a)],
        # D-residues are the pole times the C-residue
        fold = {}
        for (ia, ib, ic) in _ROTATIONS:
            a, b, c = zs[ia], zs[ib], zs[ic]
            q = kamp * (a - b) * (a - c) * (b - c) ** 2 / (2 * a * (a + b) * (a + c))
            fold[a] = (-q * (wc + a), -a * q * (wc + a))
            fold[-a] = (-q * (a - wc), a * q * (a - wc))
        for (ia, ib, ic) in _ROTATIONS:
            a, b, c = zs[ia], zs[ib], zs[ic]
            num = kamp * (a - b) * (b - c) * (a + wc)
            resmap = {
                a: (-num / (a + c), -a * num / (a + c)),
                -c: (num / (a + c), a * num / (a + c)),
            }
            entries.append((2 * a + b, resmap))
        for (ia, ib, ic) in _ROTATIONS:
            a, b, c = zs[ia], zs[ib], zs[ic]
            num = kamp * (a - c) * (c - b) * (a + wc)
            resmap = {
                a: (-num / (a + b), -a * num / (a + b)),
                -b: (num / (a + b), a * num / (a + b)),
            }
            entries.append((2 * a + c, resmap))
        resmap = {}
        for (ia, ib, ic) in _ROTATIONS:
            a, b, c = zs[ia], zs[ib], zs[ic]
            resmap[-a] = (
                kamp * (b - c) ** 2 * (a**2 + b * c) * (a + wc) / (a * (a + b) * (a + c)),
                kamp * (b - c) ** 2 * (a**2 + b * c) * (a + wc) / ((a + b) * (a + c)),
            )
            resmap[a] = (
                -kamp * (b - c) ** 2 * (b * c * wc + a**2 * (b + c + wc)) / (a * (a + b) * (a + c)),
                -kamp * a * (b - c) ** 2 * (a**2 + b * c + (b + c) * wc) / ((a + b) * (a + c)),
            )
        entries.append((zs[0] + zs[1] + zs[2], resmap))
        # reorder to the conventional enumeration 1..13:
        # built as [1,2,3, 4,5,6, 7,8,9, 10,11,12, 13] already
        self.entries = entries
        self.odd = odd
        self.fold = fold

    def exponent(self, i: int) -> complex:
        """eps_i for i in 1..13."""
        return self.entries[i - 1][0]

    def _eval(self, resmap, alpha, which):
        alpha = complex(alpha)
        total = 0j
        for p, pair in resmap.items():
            if abs(alpha - p) < POLE_TOL * max(1.0, abs(p)):
                raise PoleCollisionError(f"alpha={alpha} collides with pole {p}")
            total += pair[which] / (alpha - p)
        return total

    def c1(self, k: int, alpha: complex) -> complex:
        """C_{1,k}(alpha), k = 0..3 (k=0 is minus the sum of the others)."""
        if k == 0:
            return -sum(self.c1(m, alpha) for m in (1, 2, 3))
        z = self.zs[k - 1]
        if abs(complex(alpha) - z) < POLE_TOL * max(1.0, abs(z)):
            raise PoleCollisionError(f"alpha={alpha} collides with pole {z}")
        return self.c1_res[k - 1] / (complex(alpha) - z)

    def d1(self, k: int, alpha: complex) -> complex:
        if k == 0:
            return -sum(self.d1(m, alpha) for m in (1, 2, 3))
        return self.zs[k - 1] * self.c1(k, alpha)

    def c3(self, i: int, alpha: complex) -> complex:
        """C_{3,i}(alpha), i = 1..13."""
        return self._eval(self.entries[i - 1][1], alpha, 0)

    def d3(self, i: int, alpha: complex) -> complex:
        return self._eval(self.entries[i - 1][1], alpha, 1)

    def c3_operator(self, alpha: complex, t: float):
        """(C3hat e^{-alpha t}, D3hat e^{-alpha t}) from the tables."""
        alpha = complex(alpha)
        sc_ = 0j
        sd_ = 0j
        for i in range(1, 14):
            eps = self.exponent(i)
            phase = np.exp(eps * t) if i <= 6 else np.exp((eps - alpha) * t)
            sc_ += self.c3(i, alpha) * phase
            sd_ += self.d3(i, alpha) * phase
        # add back the part of the action that is odd in alpha
        for i, (p, (rc, rd)) in enumerate(self.odd, start=1):
            pair = np.exp(self.exponent(i) * t) * 2.0 * alpha / (alpha**2 - p**2)
            sc_ += rc * pair
            sd_ += rd * pair
        up = np.exp((self.exponent(13) + alpha) * t)
        down = np.exp((self.exponent(13) - alpha) * t)
        sc_ += self._eval(self.fold, alpha, 0) * up - self._eval(self.fold, -alpha, 0) * down
        sd_ += self._eval(self.fold, alpha, 1) * up - self._eval(self.fold, -alpha, 1) * down
        return sc_, sd_

    def c1_operator(self, alpha: complex, t: float):
        """(C1hat e^{-alpha t}, D1hat e^{-alpha t}) from the tables."""
        sc_ = self.c1(0, alpha) + 0j
        sd_ = self.d1(0, alpha) + 0j
        for k in (1, 2, 3):
            phase = np.exp((self.zs[k - 1] - complex(alpha)) * t)
            sc_ += self.c1(k, alpha) * phase
            sd_ += self.d1(k, alpha) * phase
        return sc_, sd_


class EvaluationContext:
    """Immutable per-(params, variant) assembly of everything time-independent.

    Builds the drift-ratio term lists, the log constants, and the matrices
    mapping v5(t) to the time-dependent parts of C1, D1, C3, D3.
    """

    def __init__(self, params: ModelParams, variant: ModelVariant):
        self.params = params
        self.variant = variant
        self.trivial = params.gamma == 0.0
        if self.trivial:
            # free oscillator: every coefficient vanishes identically, and the
            # tables would divide by the exact root degeneracies z2 + z3 = 0
            return
        self.roots = solve_characteristic_cubic(params, variant)
        self.tables = IntermediateTables(self.roots, params)
        zs = self.roots.as_tuple()
        wc = params.omega_c
        kamp = params.mass * params.gamma * wc**2
        self.zs = zs
        self.wc = wc
        self.kamp = kamp

        # ---- drift coefficients: cyclic pair-sum ratios ----
        self.pair_exponents = np.array([zs[i] + zs[j] for (i, j, k) in _ROTATIONS])
        self.mu_pairs = float(np.max(self.pair_exponents.real))
        self.num_a = np.array([(zs[i] - zs[j]) * zs[k] for (i, j, k) in _ROTATIONS])
        self.num_b = np.array([zs[i] - zs[j] for (i, j, k) in _ROTATIONS])
        self.den_ab = np.array(
            [(zs[i] - zs[j]) * (wc + zs[i]) * (wc + zs[j]) for (i, j, k) in _ROTATIONS]
        )

        # ---- v5 bookkeeping ----
        # r-values: column 0 -> Wc, columns 1..3 -> roots mapped to Re > 0
        self.r_values = [complex(wc)] + [_right_half(z) for z in zs]

        def col_of(p: complex) -> int:
            p2 = p * p
            dists = [abs(p2 - r * r) for r in self.r_values[1:]]
            k = int(np.argmin(dists))
            if dists[k] > 1e-8 * max(1.0, abs(p2)):
                raise ConditioningError(f"pole {p} matches no root column")
            return k + 1

        # ---- single-integral part ----
        # row k of m_c1 against v5(t), plus the synthesized t->0 constants
        self.m_c1 = np.zeros((3, 8), dtype=complex)
        self.m_d1 = np.zeros((3, 8), dtype=complex)
        c1_inf = 0j
        d1_inf = 0j
        for k in range(3):
            z = zs[k]
            gk = (-2.0 * kamp / np.pi) / (self.tables.delta[k] * (z - wc))
            col = col_of(z)
            row = np.zeros(8, dtype=complex)
            row[0] += gk * z          # I1(Wc)
            row[col] -= gk * z        # I1(z_k)
            row[4 + col] += gk * z**2  # I2(z_k)
            row[4] -= gk * wc**2      # I2(Wc)
            self.m_c1[k] = row
            self.m_d1[k] = z * row
            br0 = z * (np.log(self.r_values[col]) - np.log(wc))
            c1_inf -= gk * br0
            d1_inf -= gk * z * br0
        self.c1_inf = c1_inf
        self.d1_inf = d1_inf

        # ---- triple-integral part ----
        # log constants for every i (i<=6 enter the sum; all enter the t->0 anchor)
        self.eps = np.array([self.tables.exponent(i) for i in range(1, 14)])
        lam_c = np.zeros(13, dtype=complex)
        lam_d = np.zeros(13, dtype=complex)
        self.m_c3 = np.zeros((7, 8), dtype=complex)  # rows i=7..13
        self.m_d3 = np.zeros((7, 8), dtype=complex)
        for i in range(1, 14):
            _, resmap = self.tables.entries[i - 1]
            for p, (rc, rd) in resmap.items():
                pm = _right_half(p)
                logs = 2.0 * (np.log(pm) - np.log(wc))
                cconst = -(kamp / np.pi) * p * logs / (p * p - wc * wc)
                lam_c[i - 1] += rc * cconst
                lam_d[i - 1] += rd * cconst
                if i >= 7:
                    col = col_of(p)
                    g = (-2.0 * kamp / np.pi) / (p * p - wc * wc)
                    row = np.zeros(8, dtype=complex)
                    row[0] += g * p
                    row[col] -= g * p
                    row[4 + col] += g * p * p
                    row[4] -= g * wc * wc
                    self.m_c3[i - 7] += rc * row
                    self.m_d3[i - 7] += rd * row
        self.lam_c = lam_c
        self.lam_d = lam_d
        # t -> 0 anchors: the full sums vanish identically at t = 0, so the
        # float-rounded constants are subtracted to keep small-t evaluation
        # free of a spurious constant offset
        self.anchor_c = np.sum(lam_c)
        self.anchor_d = np.sum(lam_d)

    # -- evaluation ---------------------------------------------------------

    def _v5(self, t):
        t = np.asarray(t, dtype=float)
        rows = []
        for r in self.r_values:
            i1, i2 = I1(r, t), I2(r, t)
            rows.append((i1, i2))
        v = np.empty((8,) + t.shape, dtype=complex)
        for j, r in enumerate(self.r_values):
            v[j] = rows[j][0]
            v[4 + j] = rows[j][1]
        return v

    def drift(self, t):
        """(A(t), B(t)); exact zeros at t = 0 and for gamma = 0."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t1 = np.atleast_1d(t)
        if np.any(t1 < 0):
            raise DomainError("drift coefficients defined for t >= 0")
        if self.trivial:
            z = np.zeros_like(t1)
            return (z[0], z[0]) if scalar else (z, z.copy())
        # combined, pre-scaled exponentials
        expm = np.exp(np.outer(t1, self.pair_exponents - self.mu_pairs))
        den = expm @ self.den_ab
        if np.any(np.abs(den) < green.DEN_FLOOR):
            raise ConditioningError("drift denominator underflow")
        a = 2.0 * self.kamp * (expm @ self.num_a) / den
        b = (2.0 * self.kamp / self.params.mass) * (expm @ self.num_b) / den
        a = green._real_checked(a, what="A(t)")
        b = green._real_checked(b, what="B(t)")
        a = np.where(t1 == 0.0, 0.0, a)
        b = np.where(t1 == 0.0, 0.0, b)
        return (float(a[0]), float(b[0])) if scalar else (a, b)

    def single_parts(self, t):
        """(C1(t), D1(t)) for t > 0, vectorized."""
        t1 = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t1 <= 0):
            raise DomainError("C1/D1 defined for t > 0")
        if self.trivial:
            return np.zeros_like(t1), np.zeros_like(t1)
        v5 = self._v5(t1)
        expz = np.exp(np.outer(np.array(self.zs), t1))
        c1 = self.c1_inf + np.einsum("kj,jt,kt->t", self.m_c1, v5, expz)
        d1 = self.d1_inf + np.einsum("kj,jt,kt->t", self.m_d1, v5, expz)
        return c1, d1

    def triple_parts(self, t):
        """(C3(t), D3(t)) for t > 0, vectorized."""
        t1 = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t1 <= 0):
            raise DomainError("C3/D3 defined for t > 0")
        if self.trivial:
            return np.zeros_like(t1), np.zeros_like(t1)
        mu = max(self.mu_pairs, float(np.max(self.eps.real)))
        v5 = self._v5(t1)
        expe = np.exp(np.outer(self.eps - mu, t1))
        num_c = expe[:6].T @ self.lam_c[:6]
        num_d = expe[:6].T @ self.lam_d[:6]
        num_c = num_c + np.einsum("ij,jt,it->t", self.m_c3, v5, expe[6:])
        num_d = num_d + np.einsum("ij,jt,it->t", self.m_d3, v5, expe[6:])
        # subtract the t->0 anchor along the fastest-decaying exponential
        anchor_shape = np.exp((self.eps[12] - mu) * t1)
        num_c = num_c - self.anchor_c * anchor_shape
        num_d = num_d - self.anchor_d * anchor_shape
        # denominator with the same pre-scaling; tables convention fixes the sign
        delta = (self.zs[0] - self.zs[1]) * (self.zs[1] - self.zs[2]) * (self.zs[2] - self.zs[0])
        den = -delta * (np.exp(np.outer(self.pair_exponents - mu, t1)).T @ self.den_ab)
        if np.any(np.abs(den) < green.DEN_FLOOR):
            raise ConditioningError("triple-part denominator underflow")
        return num_c / den, num_d / den

    def diffusion(self, t):
        """(C(t), D(t)) assembled from the single and triple parts."""
        t1 = np.atleast_1d(np.asarray(t, dtype=float))
        scalar = np.asarray(t).ndim == 0
        if self.trivial:
            z = np.zeros_like(t1)
            return (0.0, 0.0) if scalar else (z, z.copy())
        hbar, mass = self.params.hbar, self.params.mass
        c1, d1 = self.single_parts(t1)
        c3, d3 = self.triple_parts(t1)
        c = (hbar / mass) * c1 - (2.0 * hbar / mass**2) * c3
        d = hbar * d1 - (2.0 * hbar / mass) * d3
        c = green._real_checked(c, what="C(t)")
        d = green._real_checked(d, what="D(t)")
        return (float(c[0]), float(d[0])) if scalar else (c, d)


@lru_cache(maxsize=32)
def evaluation_context(params: ModelParams, variant: ModelVariant) -> EvaluationContext:
    return EvaluationContext(params, variant)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def weak_coeffs(t, params: ModelParams, variant: ModelVariant) -> CoefficientSet:
    """Leading-order coefficients in the coupling, vectorized over t.

    A scalar t gives a CoefficientSet of floats; an array t gives the same
    dataclass with arrays of t's shape in every field. Points with t = 0, and
    every point when gamma = 0, are exact zeros. This is the only
    finite-time evaluation of the weak coefficients: coefficient_table's
    weak mode and the CLI's weak columns all come from here.

    A_w, B_w have elementary antiderivatives. C_w, D_w integrate the noise
    kernel against the trigonometric factors of frequency a (the square root
    of the variant's effective frequency squared), also in closed form: with
    nu = amp (F - G)/2, F = e^x E1(x), G = e^{-x} Ei(x), x = Wc s, partial
    integration against e^{ias} gives

        int_0^t nu(s) e^{ias} ds = amp / (Wc^2 + a^2) * [
            e^{iat} (Wc^2 I2 - i a I1) - i a (ln(Wc/a) + Ci(at) + i Si(at))]

    with I1 = I1(Wc, t), I2 = I2(Wc, t). No quadrature is involved, so there
    is no tolerance to set and no dependence on the spacing of the t values:
    C_w and D_w are as accurate as I1, I2, Si and Ci (within 1e-13 relative
    of a 30-digit quadrature for Wc t in [0.04, 4000] at the canonical
    point). As t -> 0 the logarithms in C_w cancel against each other; at
    Wc t = 4e-3 the relative error of C_w is 4e-11.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise DomainError("weak coefficients defined for t >= 0")
    pos = t_arr > 0
    tp = t_arr[pos]
    out = [np.zeros(t_arr.shape) for _ in range(4)]
    if tp.size and params.gamma != 0.0:
        wc = params.omega_c
        mass, hbar = params.mass, params.hbar
        kamp = mass * params.gamma * wc**2
        a_f = np.sqrt(effective_frequency_squared(params, variant))

        ewt = np.exp(-wc * tp)
        cos_c = (wc + ewt * (a_f * np.sin(a_f * tp) - wc * np.cos(a_f * tp))) / (wc**2 + a_f**2)
        sin_c = (a_f - ewt * (a_f * np.cos(a_f * tp) + wc * np.sin(a_f * tp))) / (wc**2 + a_f**2)
        a_w = -2.0 * kamp * cos_c
        b_w = (2.0 * kamp / (mass * a_f)) * sin_c

        x = a_f * tp
        si, ci = sc.sici(x)
        i1, i2 = _i1_i2(wc, tp)
        i1 = i1.real
        wi2 = wc**2 * i2.real
        scale = nu0_amplitude(params) / (wc**2 + a_f**2)
        int_sin = scale * (np.sin(x) * wi2 - a_f * (np.cos(x) * i1 + np.log(wc / a_f) + ci))
        int_cos = scale * (np.cos(x) * wi2 + a_f * (np.sin(x) * i1 + si))
        c_w = hbar / (mass * a_f) * int_sin
        d_w = hbar * int_cos
        for arr, vals in zip(out, (a_w, b_w, c_w, d_w)):
            arr[pos] = vals
    if t_arr.ndim == 0:
        return CoefficientSet(float(t_arr), *(float(v) for v in out), "weak")
    return CoefficientSet(t_arr, *out, "weak")


def short_time(t, params: ModelParams) -> CoefficientSet:
    """Leading small-time expansions of all four coefficients."""
    if t <= 0:
        raise DomainError("short-time expansion defined for t > 0")
    wc = params.omega_c
    x = wc * t
    if x > 0.3:
        warnings.warn(f"short-time expansion used at Wc*t = {x:.3g} > 0.3", stacklevel=2)
    mass, hbar, gam = params.mass, params.hbar, params.gamma
    lg = np.log(x)
    a_s = -2.0 * mass * gam * wc * x + mass * gam * wc * x**2
    b_s = gam * x**2
    c_s = (hbar * gam / (2.0 * np.pi)) * x**2 * (1.0 - 2.0 * EULER_GAMMA - 2.0 * lg)
    d_s = (2.0 * hbar * mass * gam * wc / np.pi) * x * (1.0 - EULER_GAMMA - lg)
    return CoefficientSet(t, a_s, b_s, c_s, d_s, "short-time")


def asymptotics(roots: RootTriple, params: ModelParams, mode: str = "exact") -> CoefficientSet:
    """Long-time limits of the coefficients.

    mode="exact" evaluates the closed forms built on the roots (principal
    branch on the squared-root logarithms); mode="weak" evaluates the
    leading-order limits. Requires gamma < gamma_cr of the variant.
    """
    variant = roots.variant
    gcr = gamma_critical(params, variant)
    beyond = params.gamma >= gcr - 1e-10 * gcr
    if beyond:
        if mode == "weak" and variant is ModelVariant.CALDEIRA_LEGGETT:
            warnings.warn(
                "weak asymptotics formally continued beyond gamma_cr; the model "
                "itself is invalid there",
                stacklevel=2,
            )
        else:
            raise InconsistentParametersError(
                f"asymptotic values undefined at gamma={params.gamma} >= gamma_cr={gcr}"
            )
    wc = params.omega_c
    mass, hbar, gam = params.mass, params.hbar, params.gamma
    if gam == 0.0:
        return CoefficientSet(np.inf, 0.0, 0.0, 0.0, 0.0, "asymptotic")
    if mode == "weak":
        a_f = np.sqrt(effective_frequency_squared(params, variant))
        den = wc**2 + a_f**2
        a = -2.0 * mass * gam * wc**2 * wc / den
        b = 2.0 * gam * wc**2 / den
        c = -(2.0 * hbar * gam * wc**2 / np.pi) * np.log(wc / a_f) / den
        d = hbar * mass * gam * wc**2 * a_f / den
        return CoefficientSet(np.inf, a, b, c, d, "asymptotic")
    if mode != "exact":
        raise DomainError(f"unknown asymptotics mode {mode!r}")

    z1, z2, z3 = roots.as_tuple()
    logs = [np.log(_right_half(z) ** 2 / wc**2) for z in (z1, z2, z3)]
    l1, l2, l3 = logs
    a = -2.0 * mass * gam * wc**2 * (wc + z2 + z3) / ((wc + z2) * (wc + z3))
    b = 2.0 * gam * wc**2 / ((wc + z2) * (wc + z3))

    single_c = (hbar * gam * wc**2 / np.pi) * (
        z1 * l1 / ((wc - z1) * (z1 - z2) * (z1 - z3))
        + z2 * l2 / ((wc - z2) * (z2 - z3) * (z2 - z1))
        + z3 * l3 / ((wc - z3) * (z3 - z1) * (z3 - z2))
    )
    single_d = (hbar * mass * gam * wc**2 / np.pi) * (
        z1**2 * l1 / ((wc - z1) * (z1 - z2) * (z1 - z3))
        + z2**2 * l2 / ((wc - z2) * (z2 - z3) * (z2 - z1))
        + z3**2 * l3 / ((wc - z3) * (z3 - z1) * (z3 - z2))
    )
    big = (z1 - z2) * (z2 - z3) * (z3 - z1) * (wc + z2) * (wc + z3)
    triple_c = (2.0 * hbar * gam**2 * wc**4 / np.pi) * (
        (z2 - z3) * (z1**2 * (z2 + z3) + wc * (z1**2 + z2 * z3)) * l1
        / ((wc**2 - z1**2) * (z1 + z2) * (z1 + z3))
        + z2 * (z3 - z1) * l2 / ((wc - z2) * (z1 + z2))
        + z3 * (z1 - z2) * l3 / ((wc - z3) * (z1 + z3))
    ) / big
    triple_d = (2.0 * hbar * mass * gam**2 * wc**4 / np.pi) * (
        z1**2 * (z2 - z3) * (z1**2 + z2 * z3 + wc * (z2 + z3)) * l1
        / ((wc**2 - z1**2) * (z1 + z2) * (z1 + z3))
        + z2**2 * (z3 - z1) * l2 / ((wc - z2) * (z1 + z2))
        + z3**2 * (z1 - z2) * l3 / ((wc - z3) * (z1 + z3))
    ) / big
    out = [green._real_checked(v, what="asymptotic value")
           for v in (a, b, single_c + triple_c, single_d + triple_d)]
    return CoefficientSet(np.inf, out[0], out[1], out[2], out[3], "asymptotic")
