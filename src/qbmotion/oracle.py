"""Independent numerical ground truth for the coefficient closed forms.

A product-trapezoidal scheme integrates the homogeneous integro-differential
equation; the exponential memory kernel makes the convolution a third state
variable updated recursively (one multiply-add per step, exact for the
trapezoidal weighting), so the whole solve is one constant 3x3 one-step
matrix, applied as its powers in blocks of about sqrt(steps). Global error is
O(step^2).

The drift coefficients follow from two basis solutions and a 2x2 boundary
solve. The diffusion coefficients come from composite-Simpson quadrature on
one uniform base grid: the noise kernel's logarithmic part is split off and
integrated in closed form on each panel, every kernel application is a
Toeplitz product, and the causal inner integral of the triple term,
int_0^u h(u - tau) W(tau) dtau, is evaluated at every grid node u by one
Simpson/3-8 product rule written as a discrete convolution (FFT).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, DomainError, GridMismatchError, NumericalError
from .params import ModelParams, ModelVariant, kernel_frequency_squared
from .special import EULER_GAMMA, nu0_amplitude, nu0_regular
from .coeffs import CoefficientSet

#: default integration step in units of 1/omega_c
DEFAULT_STEP_FACTOR = 0.005

#: hard resolution bound from the e^{-Wc s} kernel
MAX_STEP_FACTOR = 0.05


@dataclass
class GridSolution:
    """Solution of the homogeneous equation on a uniform grid.

    mem holds the running convolution integral J(s) = int_0^s e^{-Wc(s-x)} u(x) dx;
    the acceleration is recovered exactly as u'' = -W0^2 u + (2 K / M) J.
    """

    s: np.ndarray
    u: np.ndarray
    du: np.ndarray
    mem: np.ndarray
    step: float
    params: ModelParams
    variant: ModelVariant
    residual: float = field(default=np.nan)

    @property
    def kernel_amp(self) -> float:
        return self.params.mass * self.params.gamma * self.params.omega_c**2

    def accel(self) -> np.ndarray:
        w0sq = kernel_frequency_squared(self.params, self.variant)
        return -w0sq * self.u + (2.0 * self.kernel_amp / self.params.mass) * self.mem

    def accel_rate(self) -> np.ndarray:
        w0sq = kernel_frequency_squared(self.params, self.variant)
        dmem = self.u - self.params.omega_c * self.mem
        return -w0sq * self.du + (2.0 * self.kernel_amp / self.params.mass) * dmem

    def splines(self):
        """(h, h', h'') as cubic Hermite interpolants."""
        # imported on use: scipy.interpolate adds about 25 MB of memory to
        # every process that imports the package; only the oracles and the
        # integrator need it
        from scipy.interpolate import CubicHermiteSpline

        h = CubicHermiteSpline(self.s, self.u, self.du)
        hp = CubicHermiteSpline(self.s, self.du, self.accel())
        hpp = CubicHermiteSpline(self.s, self.accel(), self.accel_rate())
        return h, hp, hpp


def _step_matrix(h: float, params: ModelParams, variant: ModelVariant) -> np.ndarray:
    """One-step propagator of (u, u', J) for the product-trapezoidal scheme."""
    wc = params.omega_c
    w0sq = kernel_frequency_squared(params, variant)
    kk = 2.0 * params.mass * params.gamma * wc**2 / params.mass
    decay = np.exp(-wc * h)
    # exact panel weights of the exponential kernel against a linear u
    w1 = 1.0 / wc - (1.0 - decay) / (wc**2 * h)
    w0 = (1.0 - decay) / wc - w1
    lhs = np.array(
        [
            [1.0, -h / 2.0, 0.0],
            [h / 2.0 * w0sq, 1.0, -h / 2.0 * kk],
            [-w1, 0.0, 1.0],
        ]
    )
    rhs = np.array(
        [
            [1.0, h / 2.0, 0.0],
            [-h / 2.0 * w0sq, 1.0, h / 2.0 * kk],
            [w0, 0.0, decay],
        ]
    )
    return np.linalg.solve(lhs, rhs)


def volterra_solve(
    init_value: float,
    init_slope: float,
    t_end: float,
    params: ModelParams,
    step: float | None = None,
    variant: ModelVariant = ModelVariant.ORIGINAL,
) -> GridSolution:
    """Integrate u'' + W0^2 u + (2/M) int_0^s eta(s-x) u(x) dx = 0."""
    if t_end <= 0:
        raise DomainError("t_end must be positive")
    if step is None:
        step = DEFAULT_STEP_FACTOR / params.omega_c
    if step > MAX_STEP_FACTOR / params.omega_c:
        raise NumericalError(
            f"step {step} too coarse to resolve the e^(-Wc s) kernel; "
            f"need <= {MAX_STEP_FACTOR / params.omega_c}"
        )
    n = max(2, int(np.ceil(t_end / step)))
    h = t_end / n
    phi = _step_matrix(h, params, variant)
    # y_i = phi^i y_0: with the powers phi^1 .. phi^B (B ~ sqrt(n)) the n
    # steps become n/B block starts and one stacked product
    block = int(np.ceil(np.sqrt(n)))
    powers = np.empty((block, 3, 3))
    powers[0] = phi
    for k in range(1, block):
        powers[k] = phi @ powers[k - 1]
    starts = np.empty((-(-n // block), 3))
    starts[0] = (init_value, init_slope, 0.0)
    for k in range(1, len(starts)):
        starts[k] = powers[-1] @ starts[k - 1]
    ys = np.empty((n + 1, 3))
    ys[0] = starts[0]
    ys[1:] = (starts @ powers.reshape(-1, 3).T).reshape(-1, 3)[:n]
    sol = GridSolution(
        s=np.linspace(0.0, t_end, n + 1),
        u=ys[:, 0],
        du=ys[:, 1],
        mem=ys[:, 2],
        step=h,
        params=params,
        variant=variant,
    )
    # residual of the discretized equation via second differences
    if n >= 4:
        upp = (sol.u[2:] - 2.0 * sol.u[1:-1] + sol.u[:-2]) / h**2
        res = upp - sol.accel()[1:-1]
        sol.residual = float(np.max(np.abs(res)))
    return sol


def _basis_pair(t: float, params: ModelParams, step, variant):
    sol_a = volterra_solve(1.0, 0.0, t, params, step=step, variant=variant)
    sol_b = volterra_solve(0.0, 1.0, t, params, step=step, variant=variant)
    return sol_a, sol_b


def oracle_AB(
    t: float,
    params: ModelParams,
    step: float | None = None,
    variant: ModelVariant = ModelVariant.ORIGINAL,
):
    """Drift coefficients from the two-point basis solutions on the grid."""
    if t == 0.0:
        return 0.0, 0.0
    sol_a, sol_b = _basis_pair(t, params, step, variant)
    kamp = sol_a.kernel_amp
    ua_t, ub_t = sol_a.u[-1], sol_b.u[-1]
    if abs(ub_t) < 1e-140:
        raise ConditioningError(f"boundary system singular at t={t}: u_b(t)={ub_t}")
    # u1 = u_a - (u_a(t)/u_b(t)) u_b ; u2 = u_b / u_b(t)
    kappa = -ua_t / ub_t
    # int_0^t eta(t-s) u_i(s) ds = -K * J_i(t) with J the memory variable
    int_a = -kamp * sol_a.mem[-1]
    int_b = -kamp * sol_b.mem[-1]
    int_u1 = int_a + kappa * int_b
    int_u2 = int_b / ub_t
    du1_t = sol_a.du[-1] + kappa * sol_b.du[-1]
    du2_t = sol_b.du[-1] / ub_t
    if abs(du1_t) < 1e-140:
        raise ConditioningError(f"du1(t) ~ 0 at t={t}; drift ratio undefined")
    a = 2.0 * int_u2 - 2.0 * (du2_t / du1_t) * int_u1
    b = 2.0 / (params.mass * du1_t) * int_u1
    return a, b


def _simpson_weights(n: int) -> np.ndarray:
    if n % 2 != 0:
        raise ValueError("Simpson needs an even panel count")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _causal_simpson(kern: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """int_0^{mh} kern(mh - tau) f(tau) dtau at every node m = 0..n.

    kern holds samples at tau_j = jh, j = 0..n, and each column of f one
    integrand sampled there.
    Even m use composite Simpson; odd m >= 3 use Simpson on [0, (m-3)h] and
    the 3/8 rule on the last three panels (m = 3: the 3/8 rule alone); m = 1
    is the trapezoid and m = 0 is zero. Away from the ends every one of these
    rules weights node j by 2/3 + (2/3)[j odd], so the bulk of all n + 1 sums
    is one lower-triangular Toeplitz product, done by FFT; each m then gets
    its O(1) end corrections.
    """
    from scipy.linalg import matmul_toeplitz

    n = len(kern) - 1
    k2 = kern[:, None]
    bulk_w = np.where(np.arange(n + 1) % 2 == 1, 4.0, 2.0)[:, None] / 3.0
    out = matmul_toeplitz((kern, np.zeros(n + 1)), bulk_w * f)
    # first node: Simpson's 1/3 instead of 2/3 (the 3/8 rule's extra 1/24
    # at m = 3 comes with the odd tail below)
    out[1:] -= k2[1:] * f[0] / 3.0
    # last node of an even m: 1/3 instead of 2/3
    out[2::2] -= k2[0] * f[2::2] / 3.0
    # 3/8 tail of an odd m on nodes m-3 .. m: (17/24, 9/8, 9/8, 3/8)
    # against the bulk's (2/3, 4/3, 2/3, 4/3)
    if n >= 3:
        odd = out[3::2]
        for back, corr in ((3, 1.0 / 24.0), (2, -5.0 / 24.0), (1, 11.0 / 24.0), (0, -23.0 / 24.0)):
            odd += corr * k2[back] * f[3 - back::2][: len(odd)]
    out[0] = 0.0
    if n >= 1:
        out[1] = 0.5 * (kern[1] * f[0] + kern[0] * f[1])
    return h * out


def _fine_panels(panels: int, wc: float, t: float) -> int:
    """Panel count resolving both the requested base and the kernel scales.

    The noise kernel varies on the scale 1/Wc and eta has an e^{-Wc s}
    boundary layer, so panels must resolve 1/Wc regardless of t; a panel
    width of 1/(32 Wc) keeps the composite-Simpson error safely below 1e-4.
    """
    need = int(np.ceil(32.0 * wc * t))
    n = max(panels, need)
    return n + (n % 2)


def oracle_CD(
    t: float,
    params: ModelParams,
    step: float | None = None,
    panels: int = 64,
    variant: ModelVariant = ModelVariant.ORIGINAL,
    nu_regular_fn=None,
    return_parts: bool = False,
):
    """Diffusion coefficients by direct quadrature on the causal domains.

    The triple integrals run over {0<=lam<=tau<=s<=t} U {tau<=lam<=t} (first
    Green's part) and {0<=tau<=t} x {0<=lam<=t} (second part), the noise
    kernel always evaluated at nonnegative argument. nu_regular_fn may
    substitute the smooth part of the kernel (used by causality tests).

    Every integral uses one uniform base grid of n panels: composite Simpson
    for the outer integrals, the kernel's smooth part and per-panel
    closed-form log moments for the lambda integrals (Toeplitz products),
    and for the causal inner integral int_0^u h(u-tau) W(tau) dtau the
    Simpson/3-8 product rule of `_causal_simpson` at every node u, with h
    and W sampled on the same grid. `panels` sets the base resolution,
    refined automatically to resolve the 1/Wc kernel scale. The result
    converges at second order in the panel width, the single integrals
    alone included: the panel log moments take f as linear on each panel.
    """
    if t <= 0:
        raise DomainError("oracle_CD requires t > 0")
    sol = volterra_solve(0.0, 1.0, t, params, step=step, variant=variant)
    hsp, hpsp, hppsp = sol.splines()
    mass, hbar = params.mass, params.hbar
    wc = params.omega_c
    kamp = sol.kernel_amp
    amp = nu0_amplitude(params)

    n = _fine_panels(panels, wc, t)
    grid = np.linspace(0.0, t, n + 1)
    h = t / n
    wts = _simpson_weights(n) * h

    # nu's smooth part on the lag grid; the uniform grid makes every
    # |tau_i - lam_j| a multiple of h, so one 1D evaluation suffices and all
    # kernel applications become Toeplitz matvecs (FFT, no n^2 memory)
    from scipy.linalg import matmul_toeplitz

    lag = np.arange(n + 1) * h
    reg_vals = np.zeros(n + 1)
    if nu_regular_fn is not None:
        reg_vals[:] = nu_regular_fn(lag)
    else:
        reg_vals[:] = nu0_regular(lag, params)

    # exact log-moment tables: per target node i and panel j,
    # m0 = int_panel ln|tau_i - lam| dlam, m1 = int_panel (lam - lam_j) ln|...|;
    # both depend on j - i only, hence Toeplitz as well
    def antider0(u):
        au = np.abs(u)
        return np.where(u == 0.0, 0.0, u * np.log(np.where(au == 0.0, 1.0, au))) - u

    def antider1(u):
        usq = u * u
        au = np.abs(u)
        return 0.5 * usq * np.log(np.where(au == 0.0, 1.0, au)) - 0.25 * usq

    d_all = np.arange(-(n + 1), n + 2)  # pole offsets j - i
    a0_tab = antider0(d_all * h)
    a1_tab = antider1(d_all * h)
    base = n + 1  # table index of offset 0

    def m0_of(d):
        return a0_tab[d + 1 + base] - a0_tab[d + base]

    def m1_of(d):
        return (a1_tab[d + 1 + base] - a1_tab[d + base]) - d * h * m0_of(d)

    glw = EULER_GAMMA + np.log(wc)
    nu_col = reg_vals  # first column/row of the symmetric smooth kernel
    m0_col, m0_row = m0_of(-np.arange(n + 1)), m0_of(np.arange(n))
    m1_col, m1_row = m1_of(-np.arange(n + 1)), m1_of(np.arange(n))

    def nu_convolve(fvals):
        """int_0^t f(lam) nu(|tau - lam|) dlam for every tau node."""
        smooth = matmul_toeplitz((nu_col, nu_col), wts * fvals)
        plain = float(np.sum(wts * fvals))
        fa = fvals[:-1]
        fb = fvals[1:]
        logint = (
            matmul_toeplitz((m0_col - m1_col / h, m0_row - m1_row / h), fa)
            + matmul_toeplitz((m1_col / h, m1_row / h), fb)
        )
        return smooth + amp * (-glw * plain - logint)

    # single integrals int_0^t F(x) nu(x) dx are row tau=0 of the same kernel
    h_vals = hsp(grid)
    hp_vals = hpsp(grid)
    s_c = float(nu_convolve(h_vals)[0])
    s_d = float(nu_convolve(hp_vals)[0])

    # inner convolution W(tau) = int_0^t F(t-lam) nu(|tau-lam|) dlam
    w_c = nu_convolve(h_vals[::-1])
    w_d = nu_convolve(hp_vals[::-1])

    # eta(t-s) weighted s-integrals, written over sigma = t-s so the
    # boundary layer sits at the grid origin; the inner integral
    # int_0^{t-sigma} h(t-sigma-tau) W(tau) dtau is needed at u = t-sigma,
    # i.e. at every base-grid node, in reverse order
    eta_sig = -kamp * np.exp(-wc * grid)
    inner = _causal_simpson(h_vals, np.column_stack((w_c, w_d)), h)[::-1]
    first_c, first_d = (wts * eta_sig) @ inner

    # second part separates: G2smooth(s, tau) = h(s) a2(tau) + h'(s) b2(tau)
    ht, hpt, hppt = float(hsp(t)), float(hpsp(t)), float(hppsp(t))
    det = hpt**2 - ht * hppt
    if abs(det) < 1e-200:
        raise ConditioningError(f"boundary determinant vanished at t={t}")
    h_rev = h_vals[::-1]
    hp_rev = hp_vals[::-1]
    a2 = -(hpt * hp_rev - hppt * h_rev) / det
    b2 = -(h_rev * hpt - ht * hp_rev) / det
    eta_h = float(np.sum(wts * eta_sig * h_vals[::-1]))
    eta_hp = float(np.sum(wts * eta_sig * hp_vals[::-1]))

    def j_second(w_vals):
        ta = float(np.sum(wts * a2 * w_vals))
        tb = float(np.sum(wts * b2 * w_vals))
        return eta_h * ta + eta_hp * tb

    j_c = float(first_c) + j_second(w_c)
    j_d = float(first_d) + j_second(w_d)

    c = (hbar / mass) * s_c - (2.0 * hbar / mass**2) * j_c
    d = hbar * s_d - (2.0 * hbar / mass) * j_d
    if return_parts:
        # the closed-form triple parts C3, D3 carry the same normalization
        # as the J integrals (the e^... prefactors divide out identically)
        return {"single_c": s_c, "single_d": s_d, "triple_c": j_c, "triple_d": j_d,
                "C": c, "D": d}
    return c, d


@dataclass
class ComparisonReport:
    """Per-coefficient worst deviations between two coefficient series."""

    n_points: int
    max_abs: dict
    max_rel: dict
    worst_t: dict
    tol: dict
    passed: bool

    def summary(self) -> str:
        lines = [f"points compared: {self.n_points}"]
        for key in sorted(self.max_abs):
            lines.append(
                f"  {key}: max|d|={self.max_abs[key]:.3e} "
                f"max rel={self.max_rel[key]:.3e} at t={self.worst_t[key]:.6g} "
                f"tol={self.tol[key]:.1e} "
                + ("ok" if self.max_abs[key] <= self.tol[key] or self.max_rel[key] <= self.tol[key] else "FAIL")
            )
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def compare(closed, oracle, tol) -> ComparisonReport:
    """Compare two CoefficientSet sequences on identical time grids.

    Pass criterion per coefficient X with tolerance tol[X]:
    |closed - oracle| <= tol * max(1, |closed|).
    """
    closed = list(closed)
    oracle = list(oracle)
    if len(closed) != len(oracle):
        raise GridMismatchError(f"series lengths differ: {len(closed)} vs {len(oracle)}")
    tc = np.array([c.t for c in closed])
    to = np.array([o.t for o in oracle])
    if not np.allclose(tc, to, rtol=1e-12, atol=0.0):
        raise GridMismatchError("time grids differ")
    if isinstance(tol, (int, float)):
        tol = {k: float(tol) for k in "ABCD"}
    max_abs = {}
    max_rel = {}
    worst_t = {}
    passed = True
    for key in "ABCD":
        cv = np.array([getattr(c, key) for c in closed])
        ov = np.array([getattr(o, key) for o in oracle])
        dev = np.abs(cv - ov)
        rel = dev / np.maximum(np.abs(cv), 1e-300)
        i = int(np.argmax(dev / np.maximum(1.0, np.abs(cv))))
        max_abs[key] = float(dev[i])
        max_rel[key] = float(rel[i])
        worst_t[key] = float(tc[i])
        if dev[i] > tol[key] * max(1.0, abs(cv[i])):
            passed = False
    return ComparisonReport(len(closed), max_abs, max_rel, worst_t, tol, passed)
