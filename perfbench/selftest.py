"""Checks each reference in refs.py against values derived apart from the
package under test. Exits 1 if any check fails.

    python3 perfbench/selftest.py
"""
import math
import os
import sys
from dataclasses import dataclass

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import refs  # noqa: E402


@dataclass(frozen=True)
class P:
    """Model parameters, as the package's ModelParams carries them."""

    mass: float = 1.0
    omega: float = 1.0
    omega_c: float = 40.0
    gamma: float = 1.0 / 128.0
    hbar: float = 1.0


@dataclass(frozen=True)
class State:
    mean_q: float
    mean_p: float
    cov_qq: float
    cov_qp: float
    cov_pp: float


FAILED = []


def expect(name, got, want, rel):
    err = abs(got - want) / abs(want)
    ok = err <= rel
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {got!r} vs {want!r} (rel {err:.1e}, gate {rel:.0e})")
    if not ok:
        FAILED.append(name)


def main():
    canon = P()
    # stationary Q at 0.99 gamma_cr of the original model, canonical point:
    # the value an independent 30-digit evaluation of the same integrals gives
    g99 = P(gamma=0.99 * canon.omega**2 / (2 * canon.omega_c))
    expect("fdt_Q(0.99 gamma_cr)", refs.fdt_Q(g99, refs.ORIGINAL), 1.7134494788408, 1e-12)

    # gamma = 0: the free oscillator, <q> = q0 cos t + p0 sin t
    free = refs.Langevin(P(gamma=0.0), refs.ORIGINAL)
    for t in (0.3, 2.0, 10.0):
        q, p = free.means(0.7, -0.4, t)
        expect(f"means(gamma=0, t={t}) q", q, 0.7 * math.cos(t) - 0.4 * math.sin(t), 1e-14)
        expect(f"means(gamma=0, t={t}) p", p, -0.7 * math.sin(t) - 0.4 * math.cos(t), 1e-14)

    # drift: short-time laws A = -2 M g Wc x + M g Wc x^2, B = g x^2 + O(x^3),
    # x = Wc t, from the Taylor series of the Langevin solution
    for variant in (refs.ORIGINAL, refs.CALDEIRA_LEGGETT):
        lang = refs.Langevin(canon, variant)
        x = 1e-4
        a, b = lang.drift(x / canon.omega_c)
        g, wc = canon.gamma, canon.omega_c
        expect(f"drift A short time ({variant})", a, -2 * g * wc * x + g * wc * x**2, 1e-7)
        expect(f"drift B short time ({variant})", b, g * x**2, 1e-3)

    # I1/I2 against mpmath's oscillatory quadrature of their definitions
    for r, t in ((40.0, 0.05), (1 + 0.5j, 2.0), (0.3 - 1j, 0.7)):
        e1, e2 = refs.i1_i2(r, t)
        q1, q2 = refs.i1_i2_quadrature(r, t)
        expect(f"I1({r}, {t})", e1, q1, 1e-12)
        expect(f"I2({r}, {t})", e2, q2, 1e-12)

    # noise kernel: its cosine transform is pi/2 J(a); the log singularity at
    # s = 0 is left to plain quadrature, the oscillating tail to quadosc
    for a in (1.0, 5.0):
        with mp.workdps(20):
            f = lambda s: refs.noise_kernel(canon, s) * mp.cos(a * s)  # noqa: E731
            wc, s0 = mp.mpf(canon.omega_c), mp.pi / a
            got = (mp.quad(f, [0, 1 / wc, 4 / wc, 16 / wc, s0])
                   + mp.quadosc(f, [s0, mp.inf], omega=a))
        j = 2 * canon.mass * canon.gamma * canon.omega_c**2 * a / (math.pi * (a * a + canon.omega_c**2))
        expect(f"cosine transform of nu at a={a}", float(got), math.pi / 2 * j, 1e-10)
    # weak D_w approaches the same limit; the tail beyond t is O(1/(Wc^2 a t^2))
    _, d_w = refs.weak_diffusion(canon, refs.ORIGINAL, 200.0)
    limit = canon.hbar * canon.mass * canon.gamma * canon.omega_c**2 / (1 + canon.omega_c**2)
    expect("weak D_w(t=200) against its limit", d_w, limit, 1e-4)

    # Langevin covariance: at late times the state forgets its start and
    # reaches the fluctuation-dissipation covariance (Caldeira-Leggett at
    # gamma = 2, slowest decay rate about 0.25)
    cl = P(gamma=2.0)
    s_qq, s_qp, s_pp = refs.covariance(cl, refs.CALDEIRA_LEGGETT, State(0.0, 0.0, 0.8, 0.2, 0.45), 90.0)
    q_fdt = refs.fdt_Q(cl, refs.CALDEIRA_LEGGETT)
    expect("Langevin covariance at t=90 against the FDT state (Q)",
           4 * (s_qq * s_pp - s_qp**2) / cl.hbar**2, q_fdt, 1e-7)

    # gamma_cr: the discriminant changes sign there; the original model's
    # cubic has a zero root
    gcr = refs.gamma_critical(canon, refs.CALDEIRA_LEGGETT)
    lo = refs.discriminant(P(gamma=gcr * (1 - 1e-7)), refs.CALDEIRA_LEGGETT)
    hi = refs.discriminant(P(gamma=gcr * (1 + 1e-7)), refs.CALDEIRA_LEGGETT)
    ok = lo > 0 > hi
    print(f"{'ok  ' if ok else 'FAIL'} discriminant changes sign at gamma_cr={gcr!r}: {lo:.3e}, {hi:.3e}")
    if not ok:
        FAILED.append("gamma_cr")
    _, _, d = refs.cubic(P(gamma=refs.gamma_critical(canon, refs.ORIGINAL)), refs.ORIGINAL)
    ok = abs(d) < 1e-12
    print(f"{'ok  ' if ok else 'FAIL'} original cubic has a zero root at gamma_cr: d = {d!r}")
    if not ok:
        FAILED.append("gamma_cr original")

    print("FAILED: " + ", ".join(FAILED) if FAILED else "all references agree")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
