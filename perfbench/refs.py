"""Independent references for the benchmark's output checks.

Nothing here calls the coefficient, dynamics, oracle or special-function
code under test. Every value is computed from the model's definitions:

- the Laplace-domain solution of the Langevin equation, whose poles are the
  roots of the characteristic cubic, found here by mpmath;
- mpmath's exponential integrals for I1/I2 and the noise kernel;
- the fluctuation-dissipation integrals for the stationary state;
- numpy Gauss-Legendre quadrature of the Langevin noise integral.

Units and model: mass M, bare frequency W, cutoff Wc, coupling g, hbar.
The dissipation kernel is eta(s) = -M g Wc^2 e^{-Wc s}; the spectral density
is J(w) = 2 M g Wc^2 w / (pi (w^2 + Wc^2)); the noise kernel at T = 0 is
nu(s) = int_0^inf J(w) cos(w s) dw.
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np

ORIGINAL = "original"
CALDEIRA_LEGGETT = "caldeira-leggett"


def kernel_w2(p, variant: str) -> float:
    """Frequency squared of the Langevin equation (counterterm unless original)."""
    if variant == ORIGINAL:
        return p.omega**2
    return p.omega**2 + 2.0 * p.gamma * p.omega_c


def master_w2(p, variant: str) -> float:
    """Frequency squared of the master equation's oscillator term."""
    if variant == CALDEIRA_LEGGETT:
        return p.omega**2 + 2.0 * p.gamma * p.omega_c
    return p.omega**2


def cubic(p, variant: str):
    """Coefficients (b, c, d) of z^3 + b z^2 + c z + d, the denominator of the
    Laplace transform of the Langevin solution:
    1/(z^2 + W_k^2 - 2 g Wc^2/(z + Wc)) = (z + Wc)/(z^3 + b z^2 + c z + d)."""
    wc, w2 = p.omega_c, kernel_w2(p, variant)
    return wc, w2, w2 * wc - 2.0 * p.gamma * wc**2


class Langevin:
    """h(t), the solution with h(0) = 0, h'(0) = 1, as a sum of exponentials.

    h(t) = sum_k w_k e^{z_k t}, w_k = (z_k + Wc)/P'(z_k), from the residues of
    (z + Wc)/P(z). Evaluated in mpmath at `dps` digits.
    """

    def __init__(self, p, variant: str, dps: int = 30):
        self.p = p
        self.variant = variant
        self.dps = dps
        with mp.workdps(dps):
            b, c, d = (mp.mpf(x) for x in cubic(p, variant))
            self.zs = mp.polyroots([1, b, c, d], maxsteps=200, extraprec=2 * dps)
            wc = mp.mpf(p.omega_c)
            self.ws = [(z + wc) / (3 * z**2 + 2 * b * z + c) for z in self.zs]

    def derivs(self, t, n: int = 4):
        """(h, h', ..., h^(n-1)) at t as mpmath reals."""
        with mp.workdps(self.dps):
            t = mp.mpf(t)
            terms = [w * mp.exp(z * t) for w, z in zip(self.ws, self.zs)]
            return [mp.re(sum(tm * z**k for tm, z in zip(terms, self.zs))) for k in range(n)]

    def means(self, q0, p0, t):
        """Mean position and momentum: q = h' q0 + h p0/M, p = M q'."""
        h, h1, h2 = self.derivs(t, 3)
        m = self.p.mass
        return float(h1 * q0 + h * p0 / m), float(m * (h2 * q0 + h1 * p0 / m))

    def drift(self, t):
        """Exact A(t), B(t) from the requirement that the master equation's
        mean equations, d<p>/dt = -(M W^2 + A)<q> - B<p>, hold for the two
        independent Langevin means h' and h:

            M W^2 + A = M (h' h''' - h''^2)/(h h'' - h'^2),
            B = (h' h'' - h h''')/(h h'' - h'^2).

        Expanded in the exponentials, the diagonal terms of all three
        Wronskians cancel exactly; with P_jk = w_j w_k (z_j - z_k)^2
        e^{(z_j + z_k) t} the sums over pairs j < k are
        den = sum P_jk, num_kappa = sum z_j z_k P_jk, num_b = -sum (z_j + z_k) P_jk,
        which keeps late times, where one exponential dominates, free of
        cancellation. A is measured from the kernel frequency, as the closed
        form is a function of the roots alone."""
        with mp.workdps(self.dps):
            t = mp.mpf(t)
            den = num_k = num_b = 0
            for j in range(3):
                for k in range(j + 1, 3):
                    zj, zk = self.zs[j], self.zs[k]
                    pjk = self.ws[j] * self.ws[k] * (zj - zk) ** 2 * mp.exp((zj + zk) * t)
                    den += pjk
                    num_k += zj * zk * pjk
                    num_b -= (zj + zk) * pjk
            m = mp.mpf(self.p.mass)
            kappa = mp.re(m * num_k / den)
            return float(kappa - m * kernel_w2(self.p, self.variant)), float(mp.re(num_b / den))

    def complex_roots(self):
        """(z_k, w_k) as numpy complex arrays."""
        return (np.array([complex(z) for z in self.zs]),
                np.array([complex(w) for w in self.ws]))


# ---------------------------------------------------------------------------
# I1, I2 and the noise kernel
# ---------------------------------------------------------------------------


def i1_i2(r: complex, t: float, dps: int = 30):
    """I1 = int_0^inf w cos(wt)/(r^2+w^2) dw and I2 = int_0^inf sin(wt)/(r^2+w^2) dw
    from mpmath's E1 and Ei at `dps` digits (Gradshteyn-Ryzhik 3.723):
    I1 = (F - G)/2, I2 = (F + G)/(2r), F = e^x E1(x), G = e^{-x} Ei(x), x = r t,
    with r taken in the right half-plane (both integrals are even in r)."""
    with mp.workdps(dps):
        r = mp.mpc(r)
        if r.real < 0 or (r.real == 0 and r.imag < 0):
            r = -r
        x = r * t
        f = mp.exp(x) * mp.e1(x)
        g = mp.exp(-x) * mp.ei(x)
        return complex((f - g) / 2), complex((f + g) / (2 * r))


def i1_i2_quadrature(r: complex, t: float, dps: int = 20):
    """The same two integrals by mpmath's oscillatory quadrature of their
    definitions; slow, used to check i1_i2 itself."""
    with mp.workdps(dps):
        r2 = mp.mpc(r) ** 2
        i1 = mp.quadosc(lambda w: w * mp.cos(w * t) / (r2 + w * w), [0, mp.inf], omega=t)
        i2 = mp.quadosc(lambda w: mp.sin(w * t) / (r2 + w * w), [0, mp.inf], omega=t)
        return complex(i1), complex(i2)


def noise_kernel(p, s):
    """nu(s) = (2 M g Wc^2/pi) I1(Wc, s) for s > 0, in mpmath."""
    wc = mp.mpf(p.omega_c)
    x = wc * s
    amp = 2 * mp.mpf(p.mass) * p.gamma * wc**2 / mp.pi
    return amp * (mp.exp(x) * mp.e1(x) - mp.exp(-x) * mp.ei(x)) / 2


def weak_diffusion(p, variant: str, t: float, dps: int = 20):
    """Leading-order C_w, D_w by mpmath quadrature of their definitions:
    D_w = hbar int_0^t nu(s) cos(a s) ds, C_w = hbar/(M a) int_0^t nu(s) sin(a s) ds,
    with a the master equation's frequency. The interval is split at the
    kernel's scales 1/Wc, 4/Wc, 16/Wc and at every half period of the
    trigonometric factor, so each piece is smooth apart from the log at 0."""
    with mp.workdps(dps):
        a = mp.sqrt(master_w2(p, variant))
        t = mp.mpf(t)
        wc = mp.mpf(p.omega_c)
        pts = {mp.mpf(0), t}
        pts |= {k / wc for k in (1, 4, 16) if k / wc < t}
        n_half = int(t * a / mp.pi)
        pts |= {k * mp.pi / a for k in range(1, n_half + 1) if k * mp.pi / a < t}
        pts = sorted(pts)
        ic = mp.quad(lambda s: noise_kernel(p, s) * mp.cos(a * s), pts)
        isn = mp.quad(lambda s: noise_kernel(p, s) * mp.sin(a * s), pts)
        return float(p.hbar / (p.mass * a) * isn), float(p.hbar * ic)


# ---------------------------------------------------------------------------
# stationary state from the fluctuation-dissipation theorem
# ---------------------------------------------------------------------------


def fdt_Q(p, variant: str, dps: int = 20) -> float:
    """Stationary positivity ratio Q = 4 s_qq s_pp / hbar^2 with

        s_qq = hbar int_0^inf J |chi|^2 dw,  s_pp = hbar M^2 int_0^inf w^2 J |chi|^2 dw,
        chi^-1 = M [W_k^2 - w^2 - 2 g Wc^2/(Wc - i w)].

    The integration is split on a dyadic ladder from 2^-24 W to past the
    cutoff and around the real parts of the zeros of chi^-1, where |chi|^2
    peaks with a width set by their imaginary parts."""
    with mp.workdps(dps):
        m, w0, wc, g, hbar = (mp.mpf(x) for x in (p.mass, p.omega, p.omega_c, p.gamma, p.hbar))
        w2 = mp.mpf(kernel_w2(p, variant))

        def weight(w):
            j = 2 * m * g * wc**2 * w / (mp.pi * (w**2 + wc**2))
            return j / abs(m * (w2 - w**2 - 2 * g * wc**2 / (wc - 1j * w))) ** 2

        top = int(mp.log(16 * wc / w0, 2)) + 1
        pts = {mp.mpf(0)} | {w0 * mp.mpf(2) ** k for k in range(-24, top)}
        # chi^-1 / (-i M) (Wc - i w) as a cubic in w
        zeros = mp.polyroots([1j, -wc, -1j * w2, w2 * wc - 2 * g * wc**2],
                             maxsteps=200, extraprec=40)
        for z in zeros:
            pts |= {x for x in (z.real - abs(z.imag), z.real, z.real + abs(z.imag)) if x > 0}
        pts = sorted(pts) + [mp.inf]
        s_qq = hbar * mp.quad(weight, pts)
        s_pp = hbar * m**2 * mp.quad(lambda w: w**2 * weight(w), pts)
        return float(4 * s_qq * s_pp / hbar**2)


# ---------------------------------------------------------------------------
# Langevin noise covariance
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

#: quarter periods of e^{iwt} below the cutoff of the noise quadrature
OSC_PANELS = 8000.0


def noise_covariance(p, variant: str, t: float, lang: Langevin | None = None,
                     gl_x=_GL_X, gl_w=_GL_W):
    """(N_qq, N_qp, N_pp): the part of the covariance at time t driven by the
    bath noise, from the Langevin solution q(t) = h' q0 + h p0/M +
    (1/M) int_0^t h(t - s) xi(s) ds with <{xi(s), xi(s')}>/2 = hbar nu(s - s'):

        N_qq = (hbar/M^2) int_0^inf J |H|^2 dw,   N_pp = hbar int_0^inf J |H'|^2 dw,
        N_qp = (hbar/M) int_0^inf J Re(H conj H') dw,
        H(w) = sum_k w_k (e^{i w t} - e^{z_k t})/(i w - z_k),  H' with w_k z_k.

    Gauss-Legendre on panels no wider than a quarter period of e^{iwt}, a
    dyadic ladder near 0 and refinement around the damped resonances, up to
    w_max = max(50 Wc, OSC_PANELS/t); beyond it the integrands fall off like
    1/w^3 and the tail is added from their leading term."""
    lang = lang or Langevin(p, variant)
    zs, ws = lang.complex_roots()
    wc, m, hbar = p.omega_c, p.mass, p.hbar
    w_max = max(50.0 * max(wc, p.omega), OSC_PANELS / t)
    quarter = 0.5 * math.pi / t
    edges = {0.0, w_max}
    edges |= {p.omega * 2.0**k for k in range(-20, int(math.log2(w_max / p.omega)) + 1)}
    for z in zs:
        width = max(abs(z.real), 1.0 / t)
        edges |= {abs(z.imag) + k * width for k in range(-8, 9) if abs(z.imag) + k * width > 0}
    edges = np.array(sorted(e for e in edges if e <= w_max))
    # split every panel wider than a quarter period
    parts = [np.linspace(lo, hi, int(math.ceil((hi - lo) / quarter)) + 1)[:-1]
             for lo, hi in zip(edges[:-1], edges[1:])]
    lo = np.concatenate(parts)
    hi = np.append(lo[1:], w_max)
    half = 0.5 * (hi - lo)
    w = (0.5 * (hi + lo))[:, None] + half[:, None] * gl_x[None, :]
    wt = half[:, None] * gl_w[None, :]
    jw = 2.0 * m * p.gamma * wc**2 * w / (math.pi * (w**2 + wc**2))
    eiwt = np.exp(1j * w * t)
    h = np.zeros_like(eiwt)
    hp = np.zeros_like(eiwt)
    for z, c in zip(zs, ws):
        term = c * (eiwt - np.exp(z * t)) / (1j * w - z)
        h += term
        hp += z * term
    n_qq = np.sum(wt * jw * np.abs(h) ** 2)
    n_pp = np.sum(wt * jw * np.abs(hp) ** 2)
    n_qp = np.sum(wt * jw * (h * np.conj(hp)).real)
    # tails: H = -h(t)/(iw) + O(w^-2), H' = (e^{iwt} - h'(t))/(iw) + O(w^-2);
    # the next non-oscillating terms are O(w^-4) and the oscillating ones
    # integrate to O(1/(t w_max^3)), both dropped; int_{w_max}^inf J/w^2 dw
    # is exact
    h_t, h1_t = (float(x) for x in lang.derivs(t, 2))
    tail = m * p.gamma / math.pi * math.log1p((wc / w_max) ** 2)
    n_qq += tail * h_t**2
    n_pp += tail * (1.0 + h1_t**2)
    n_qp += tail * h_t * h1_t
    return hbar / m**2 * n_qq, hbar / m * n_qp, hbar * n_pp


def covariance(p, variant: str, state0, t: float, lang: Langevin | None = None):
    """(s_qq, s_qp, s_pp) at t for a Gaussian initial state uncorrelated with
    the bath: the initial moments carried by (h', h/M) plus the noise part."""
    lang = lang or Langevin(p, variant)
    h, h1, h2 = (float(x) for x in lang.derivs(t, 3))
    m = p.mass
    # q = a q0 + b p0, p = c q0 + d p0
    a, b, c, d = h1, h / m, m * h2, h1
    sqq0, sqp0, spp0 = state0.cov_qq, state0.cov_qp, state0.cov_pp
    n_qq, n_qp, n_pp = noise_covariance(p, variant, t, lang)
    s_qq = a * a * sqq0 + 2 * a * b * sqp0 + b * b * spp0 + n_qq
    s_qp = a * c * sqq0 + (a * d + b * c) * sqp0 + b * d * spp0 + n_qp
    s_pp = c * c * sqq0 + 2 * c * d * sqp0 + d * d * spp0 + n_pp
    return s_qq, s_qp, s_pp


# ---------------------------------------------------------------------------
# characteristic cubic checks for the root columns
# ---------------------------------------------------------------------------


def vieta_residual(p, variant: str, z1, z2, z3) -> float:
    """Largest residual of the three Vieta identities, relative to the
    largest coefficient of the cubic."""
    b, c, d = cubic(p, variant)
    r1 = abs(z1 + z2 + z3 + b)
    r2 = abs(z1 * z2 + z2 * z3 + z3 * z1 - c)
    r3 = abs(z1 * z2 * z3 + d)
    return max(r1, r2, r3) / max(1.0, abs(b), abs(c), abs(d))


def discriminant(p, variant: str) -> float:
    """Discriminant of the cubic in mpmath: > 0 three real roots, < 0 one
    real root and a conjugate pair."""
    with mp.workdps(40):
        b, c, d = (mp.mpf(x) for x in cubic(p, variant))
        return float(18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2)


def gamma_critical(p, variant: str) -> float:
    """Critical coupling. Original: the constant term of the cubic vanishes,
    g = W^2/(2 Wc), where a real root crosses zero. Shifted kernels: the
    largest g where the discriminant, a cubic in c = W^2 + 2 g Wc, changes
    sign (two real roots merge into a conjugate pair)."""
    w0sq, wc = p.omega**2, p.omega_c
    if variant == ORIGINAL:
        return w0sq / (2.0 * wc)
    with mp.workdps(40):
        b, d = mp.mpf(wc), mp.mpf(w0sq) * wc
        cs = mp.polyroots([-4, b**2, 18 * b * d, -4 * b**3 * d - 27 * d**2],
                          maxsteps=200, extraprec=80)
        c = max(mp.re(x) for x in cs if abs(mp.im(x)) < mp.mpf(10) ** -20)
        return float((c - w0sq) / (2 * wc))
