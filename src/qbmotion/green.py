"""Elementary solutions and Green's functions of the damped-oscillator equation.

Everything here is assembled from cyclic sums over the characteristic roots.
The sums are evaluated in complex arithmetic with the conjugate pair (z2, z3)
ordered so that imaginary parts cancel exactly; results are cast to real only
after asserting the residual imaginary part is negligible.

For large times the raw cyclic sums underflow (every exponent has negative
real part, the slowest pair decaying like e^{2 Re z2 t}); numerators and
denominators are therefore pre-scaled by the dominant exponential before any
division.
"""
from __future__ import annotations

import numpy as np

from .errors import ConditioningError
from .params import ModelParams
from .roots import RootTriple

#: tolerance on the imaginary residue of quantities that must be real
IMAG_TOL = 1e-10

#: scaled denominators below this raise ConditioningError
DEN_FLOOR = 1e-280

_ROTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _real_checked(value, scale=1.0, what="cyclic sum"):
    value = np.asarray(value)
    bound = IMAG_TOL * max(1.0, float(np.max(np.abs(value))), scale)
    worst = float(np.max(np.abs(value.imag)))
    if worst > bound:
        raise ConditioningError(f"{what}: imaginary residue {worst} exceeds {bound}")
    out = value.real
    return float(out) if out.ndim == 0 else out


def g1_smooth(x, roots: RootTriple, params: ModelParams):
    """Smooth part of the first Green's function; depends only on s - tau.

    Satisfies h(0) = 0, h'(0) = 1.
    """
    x = np.asarray(x, dtype=float)
    wc = params.omega_c
    z1, z2, z3 = roots.as_tuple()
    delta = (z1 - z2) * (z2 - z3) * (z3 - z1)
    s = (
        np.exp(z1 * x) * (wc + z1) * (z2 - z3)
        + np.exp(z2 * x) * (wc + z2) * (z3 - z1)
        + np.exp(z3 * x) * (wc + z3) * (z1 - z2)
    )
    return _real_checked(-s / delta, what="g1_smooth")


def g1_smooth_deriv(x, roots: RootTriple, params: ModelParams, order=1):
    """d^order/dx^order of the smooth part (order 1 or 2)."""
    x = np.asarray(x, dtype=float)
    wc = params.omega_c
    z1, z2, z3 = roots.as_tuple()
    delta = (z1 - z2) * (z2 - z3) * (z3 - z1)
    s = (
        z1**order * np.exp(z1 * x) * (wc + z1) * (z2 - z3)
        + z2**order * np.exp(z2 * x) * (wc + z2) * (z3 - z1)
        + z3**order * np.exp(z3 * x) * (wc + z3) * (z1 - z2)
    )
    return _real_checked(-s / delta, what="g1_smooth_deriv")


def green_g1(s, tau, roots: RootTriple, params: ModelParams):
    """First Green's function: causal support 0 <= tau <= s."""
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    support = (tau >= 0) & (s - tau >= 0)
    out = np.where(support, g1_smooth(np.where(support, s - tau, 0.0), roots, params), 0.0)
    return float(out) if out.ndim == 0 else out


def elementary_solutions(s, t, roots: RootTriple, params: ModelParams):
    """Two-point solutions u1, u2 with u1(0)=1, u1(t)=0, u2(0)=0, u2(t)=1."""
    if not (0.0 <= s <= t):
        raise ConditioningError(f"need 0 <= s <= t, got s={s}, t={t}")
    wc = params.omega_c
    z1, z2, z3 = roots.as_tuple()
    zs = (z1, z2, z3)
    mu = max(z.real for z in zs)  # pre-scaling exponent

    den = sum(
        np.exp(zs[i] * t - mu * t) * (wc + zs[i]) * (zs[j] - zs[k])
        for (i, j, k) in _ROTATIONS
    )
    if abs(den) < DEN_FLOOR:
        raise ConditioningError(f"u1/u2 denominator underflow at t={t}")

    num2 = sum(
        np.exp(zs[i] * s - mu * t) * (wc + zs[i]) * (zs[j] - zs[k])
        for (i, j, k) in _ROTATIONS
    )
    num1 = sum(
        (np.exp(zs[i] * t + zs[j] * s - mu * t) - np.exp(zs[i] * s + zs[j] * t - mu * t))
        * (wc + zs[i]) * (wc + zs[j])
        for (i, j, k) in _ROTATIONS
    )
    u1 = _real_checked(num1 / den, what="u1")
    u2 = _real_checked(num2 / den, what="u2")
    return u1, u2


def g2_denominator(t, roots: RootTriple, params: ModelParams, scaled=True):
    """Denominator of the second Green's function's smooth part.

    With scaled=True the dominant exponential e^{mu t} is divided out and
    (value, mu) is returned; callers must weigh numerators consistently.
    """
    wc = params.omega_c
    z1, z2, z3 = roots.as_tuple()
    zs = (z1, z2, z3)
    delta = (z1 - z2) * (z2 - z3) * (z3 - z1)
    mu = max((zs[i] + zs[j]).real for (i, j, k) in _ROTATIONS)
    val = delta * sum(
        np.exp((zs[i] + zs[j]) * t - mu * t) * (wc + zs[i]) * (wc + zs[j]) * (zs[i] - zs[j])
        for (i, j, k) in _ROTATIONS
    )
    if scaled:
        return val, mu
    return val * np.exp(mu * t)


def green_g2(s, tau, t, roots: RootTriple, params: ModelParams):
    """Second Green's function, vanishing with its slope at s = t.

    G2(s, tau) = G1(s, tau) + Theta(tau) Theta(t - tau) * num(s, tau)/den(t).
    """
    if not (0.0 <= s <= t):
        raise ConditioningError(f"need 0 <= s <= t, got s={s}, t={t}")
    wc = params.omega_c
    zs = roots.as_tuple()
    den, mu = g2_denominator(t, roots, params)
    if abs(den) < DEN_FLOOR:
        raise ConditioningError(f"G2 denominator underflow at t={t}")

    num = 0j
    if 0.0 <= tau <= t:
        for (i, j, k) in _ROTATIONS:
            a, b, c = zs[i], zs[j], zs[k]
            pref = (wc + a) * (wc + b) * (a - b)
            # exponents are combined before exponentiation so each term is
            # bounded by the pre-scaling even when -Re(a) tau is large
            base = (a + b) * t - mu * t
            inner = (
                np.exp(base + b * (s - tau)) * (wc + b) * (c - a)
                + np.exp(base + a * (s - tau)) * (wc + a) * (b - c)
                - np.exp(base + c * s - a * tau) * (wc + c) * (b - c)
                - np.exp(base + c * s - b * tau) * (wc + c) * (c - a)
            )
            num += pref * inner
    smooth2 = _real_checked(num / den, what="G2 smooth part")
    g1 = green_g1(s, tau, roots, params)
    return g1 + smooth2


def generic_green_structure(h, hp, hpp, s, tau, t):
    """Green's pair for an arbitrary spectral density from its basic solution.

    h, hp, hpp are callables for the solution of the homogeneous equation
    with h(0) = 0, h'(0) = 1 and its first two derivatives. G1 is the
    translate of h on its causal support; G2 follows from fixing the
    boundary values at s = t through 2x2 determinants.
    """
    if abs(h(0.0)) > 1e-9 or abs(hp(0.0) - 1.0) > 1e-9:
        raise ConditioningError("generic structure requires h(0)=0, h'(0)=1")
    g1 = h(s - tau) if (tau >= 0 and s - tau >= 0) else 0.0
    det = hp(t) ** 2 - h(t) * hpp(t)
    if abs(det) < DEN_FLOOR:
        raise ConditioningError(f"boundary determinant underflow at t={t}")
    if 0.0 <= tau <= t:
        htau, hptau = h(t - tau), hp(t - tau)
        num = hp(s) * (htau * hp(t) - h(t) * hptau) + h(s) * (hp(t) * hptau - hpp(t) * htau)
        g2 = g1 - num / det
    else:
        g2 = g1
    return g1, g2
