"""Gaussian moment propagation and physical-consistency diagnostics.

The Fokker-Planck generator with time-dependent coefficients closes on the
first and second moments of a Gaussian state:

    d<q>   =  <p>/M
    d<p>   = -(M W_eff^2 + A) <q> - B <p>
    d s_qq =  2 s_qp / M
    d s_qp =  s_pp / M - (M W_eff^2 + A) s_qq - B s_qp + C
    d s_pp = -2 (M W_eff^2 + A) s_qp - 2 B s_pp + 2 D

The sign of the C term is fixed by requiring the algebraic stationary
covariance to reproduce the stationary-positivity ratio Q exactly.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InconsistentParametersError
from .params import ModelParams, ModelVariant, effective_frequency_squared
from .roots import gamma_critical, solve_characteristic_cubic
from .coeffs import CoefficientSet, asymptotics, evaluation_context, weak_coeffs


@dataclass(frozen=True)
class GaussianState:
    """First and second centered moments of the oscillator state."""

    mean_q: float = 0.0
    mean_p: float = 0.0
    cov_qq: float = 0.5
    cov_qp: float = 0.0
    cov_pp: float = 0.5

    def __post_init__(self):
        if self.cov_qq <= 0 or self.cov_pp <= 0:
            raise DomainError("diagonal covariances must be positive")

    @property
    def rs_function(self) -> float:
        """Robertson-Schrodinger combination s_qq s_pp - s_qp^2."""
        return self.cov_qq * self.cov_pp - self.cov_qp**2


def ground_state(params: ModelParams) -> GaussianState:
    """Vacuum of the bare oscillator."""
    return GaussianState(
        0.0,
        0.0,
        params.hbar / (2.0 * params.mass * params.omega),
        0.0,
        params.hbar * params.mass * params.omega / 2.0,
    )


def moment_rhs(state: GaussianState, cs: CoefficientSet, params: ModelParams,
               variant: ModelVariant):
    """Time derivative of (mean_q, mean_p, cov_qq, cov_qp, cov_pp)."""
    mass = params.mass
    kappa = mass * effective_frequency_squared(params, variant) + cs.A
    dq = state.mean_p / mass
    dp = -kappa * state.mean_q - cs.B * state.mean_p
    dqq = 2.0 * state.cov_qp / mass
    dqp = state.cov_pp / mass - kappa * state.cov_qq - cs.B * state.cov_qp + cs.C
    dpp = -2.0 * kappa * state.cov_qp - 2.0 * cs.B * state.cov_pp + 2.0 * cs.D
    return dq, dp, dqq, dqp, dpp


@dataclass
class PropagationResult:
    t: np.ndarray
    mean_q: np.ndarray
    mean_p: np.ndarray
    cov_qq: np.ndarray
    cov_qp: np.ndarray
    cov_pp: np.ndarray

    @property
    def rs_function(self) -> np.ndarray:
        return self.cov_qq * self.cov_pp - self.cov_qp**2

    def final_state(self) -> GaussianState:
        return GaussianState(
            self.mean_q[-1], self.mean_p[-1],
            self.cov_qq[-1], self.cov_qp[-1], self.cov_pp[-1],
        )


def coefficient_table(tgrid: np.ndarray, params: ModelParams, variant: ModelVariant,
                      mode: str = "exact"):
    """(A, B, C, D) arrays on tgrid for the requested evaluation mode.

    mode="exact" evaluates the closed forms of EvaluationContext; mode="weak"
    evaluates the closed-form weak coefficients of weak_coeffs. Neither
    depends on the spacing of tgrid: each point is evaluated on its own.
    """
    if params.gamma == 0.0:
        z = np.zeros_like(tgrid)
        return z, z.copy(), z.copy(), z.copy()
    if mode == "exact":
        ctx = evaluation_context(params, variant)
        a, b = ctx.drift(tgrid)
        c = np.zeros_like(tgrid)
        d = np.zeros_like(tgrid)
        pos = tgrid > 0
        if np.any(pos):
            c[pos], d[pos] = ctx.diffusion(tgrid[pos])
        return a, b, c, d
    if mode == "weak":
        w = weak_coeffs(tgrid, params, variant)
        return w.A, w.B, w.C, w.D
    raise DomainError(f"unknown coefficient mode {mode!r}")


def _stage_tables(t_end: float, dt: float, params: ModelParams, variant: ModelVariant,
                  mode: str):
    """Coefficient values at every half step of the integrator.

    The coefficients vary on the 1/Wc scale only during the initial jolt;
    beyond it they oscillate on the slow 1/W0 scale, so they are tabulated
    densely on the jolt window and on a coarse grid afterwards, then splined
    onto the stage times.
    """
    n = max(1, int(np.round(t_end / dt)))
    stages = np.linspace(0.0, t_end, 2 * n + 1)
    jolt_end = min(t_end, 20.0 / params.omega_c + 2.0 / params.omega)
    if t_end <= jolt_end * 1.5 or params.gamma == 0.0:
        return stages, coefficient_table(stages, params, variant, mode)
    from scipy.interpolate import CubicSpline

    fine = np.arange(0.0, jolt_end, dt / 2.0)
    coarse_h = min(0.02 / params.omega, 64.0 * dt)
    coarse = np.arange(jolt_end, t_end + coarse_h, coarse_h)
    base = np.concatenate([fine, coarse])
    vals = coefficient_table(base, params, variant, mode)
    out = tuple(CubicSpline(base, v)(stages) for v in vals)
    return stages, out


def propagate(
    state0: GaussianState,
    params: ModelParams,
    variant: ModelVariant,
    mode: str = "exact",
    t_end: float = 10.0,
    dt: float | None = None,
) -> PropagationResult:
    """Classical fourth-order one-step integration of the moment system."""
    if dt is None:
        dt = 0.02 / params.omega_c
    if dt > 0.02 / params.omega_c + 1e-15:
        raise DomainError(f"dt={dt} too coarse; need <= {0.02 / params.omega_c}")
    n = max(1, int(np.round(t_end / dt)))
    dt = t_end / n
    _, (ca, cb, cc, cd) = _stage_tables(t_end, dt, params, variant, mode)
    mass = params.mass
    kap = (mass * effective_frequency_squared(params, variant) + ca).tolist()
    cb_l = cb.tolist()
    cc_l = cc.tolist()
    cd_l = cd.tolist()

    out = np.empty((n + 1, 5))
    out[0] = (state0.mean_q, state0.mean_p, state0.cov_qq, state0.cov_qp, state0.cov_pp)
    q, pm, sqq, sqp, spp = out[0]
    inv_m = 1.0 / mass
    h6 = dt / 6.0

    for step in range(n):
        i0 = 2 * step
        k1, b1, c1v, d1v = kap[i0], cb_l[i0], cc_l[i0], cd_l[i0]
        k2, b2, c2v, d2v = kap[i0 + 1], cb_l[i0 + 1], cc_l[i0 + 1], cd_l[i0 + 1]
        k3, b3, c3v, d3v = kap[i0 + 2], cb_l[i0 + 2], cc_l[i0 + 2], cd_l[i0 + 2]

        # stage 1
        aq1 = pm * inv_m
        ap1 = -k1 * q - b1 * pm
        a11 = 2.0 * sqp * inv_m
        a12 = spp * inv_m - k1 * sqq - b1 * sqp + c1v
        a13 = -2.0 * k1 * sqp - 2.0 * b1 * spp + 2.0 * d1v
        # stage 2
        qt = q + 0.5 * dt * aq1
        pt = pm + 0.5 * dt * ap1
        s1 = sqq + 0.5 * dt * a11
        s2 = sqp + 0.5 * dt * a12
        s3 = spp + 0.5 * dt * a13
        bq2 = pt * inv_m
        bp2 = -k2 * qt - b2 * pt
        b21 = 2.0 * s2 * inv_m
        b22 = s3 * inv_m - k2 * s1 - b2 * s2 + c2v
        b23 = -2.0 * k2 * s2 - 2.0 * b2 * s3 + 2.0 * d2v
        # stage 3
        qt = q + 0.5 * dt * bq2
        pt = pm + 0.5 * dt * bp2
        s1 = sqq + 0.5 * dt * b21
        s2 = sqp + 0.5 * dt * b22
        s3 = spp + 0.5 * dt * b23
        cq3 = pt * inv_m
        cp3 = -k2 * qt - b2 * pt
        c31 = 2.0 * s2 * inv_m
        c32 = s3 * inv_m - k2 * s1 - b2 * s2 + c2v
        c33 = -2.0 * k2 * s2 - 2.0 * b2 * s3 + 2.0 * d2v
        # stage 4
        qt = q + dt * cq3
        pt = pm + dt * cp3
        s1 = sqq + dt * c31
        s2 = sqp + dt * c32
        s3 = spp + dt * c33
        dq4 = pt * inv_m
        dp4 = -k3 * qt - b3 * pt
        d41 = 2.0 * s2 * inv_m
        d42 = s3 * inv_m - k3 * s1 - b3 * s2 + c3v
        d43 = -2.0 * k3 * s2 - 2.0 * b3 * s3 + 2.0 * d3v

        q += h6 * (aq1 + 2.0 * (bq2 + cq3) + dq4)
        pm += h6 * (ap1 + 2.0 * (bp2 + cp3) + dp4)
        sqq += h6 * (a11 + 2.0 * (b21 + c31) + d41)
        sqp += h6 * (a12 + 2.0 * (b22 + c32) + d42)
        spp += h6 * (a13 + 2.0 * (b23 + c33) + d43)
        out[step + 1] = (q, pm, sqq, sqp, spp)

    t = np.linspace(0.0, t_end, n + 1)
    return PropagationResult(t, out[:, 0], out[:, 1], out[:, 2], out[:, 3], out[:, 4])


def omega_obs_squared(t, params: ModelParams, variant: ModelVariant, mode: str = "exact"):
    """Instantaneous observable frequency squared; negative values are data."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t1 = np.atleast_1d(t)
    a = coefficient_table(t1, params, variant, mode)[0]
    v = effective_frequency_squared(params, variant) + a / params.mass
    return float(v[0]) if scalar else v


def omega_obs(t, params: ModelParams, variant: ModelVariant, mode: str = "exact"):
    """sqrt of the observable frequency squared; NaN where it has gone negative."""
    v = omega_obs_squared(t, params, variant, mode)
    return np.sqrt(np.maximum(v, 0.0)) * np.where(np.asarray(v) >= 0, 1.0, np.nan)


def stationary_covariance(params: ModelParams, variant: ModelVariant, mode: str = "exact"):
    """Fixed point of the second-moment system under asymptotic coefficients."""
    roots = solve_characteristic_cubic(params, variant)
    cs = asymptotics(roots, params, mode=mode)
    mass = params.mass
    kappa = mass * effective_frequency_squared(params, variant) + cs.A
    if cs.B == 0.0 or kappa == 0.0:
        raise InconsistentParametersError("stationary covariance undefined (B or kappa zero)")
    spp = cs.D / cs.B
    sqq = (cs.D / (mass * cs.B) + cs.C) / kappa
    return sqq, 0.0, spp


def stationary_Q(params: ModelParams, variant: ModelVariant, mode: str = "exact") -> float:
    """Stationary-positivity ratio; the asymptotic state is physical iff Q >= 1."""
    if params.gamma == 0.0:
        warnings.warn(
            "Q at gamma = 0 is a 0/0 limit; reporting the small-coupling value "
            "at gamma = 1e-6 * omega",
            stacklevel=2,
        )
        params = replace(params, gamma=1e-6 * params.omega)
    roots = solve_characteristic_cubic(params, variant)
    cs = asymptotics(roots, params, mode=mode)
    mass, hbar = params.mass, params.hbar
    kappa = effective_frequency_squared(params, variant) + cs.A / mass
    return 4.0 * cs.D * (cs.D + mass * cs.C * cs.B) / (hbar**2 * mass**2 * cs.B**2 * kappa)


@dataclass(frozen=True)
class ConsistencyReport:
    """Physical-consistency summary at one parameter point."""

    params: ModelParams
    variant: ModelVariant
    gamma_cr: float
    root_classification: str
    omega_obs_sq_inf: float
    Q: float
    Q_weak: float
    frequency_consistent: bool
    positivity_consistent: bool
    annotation: str = ""


def consistency_report(params: ModelParams, variant: ModelVariant) -> ConsistencyReport:
    """Assemble the per-point consistency verdicts; nothing is rejected."""
    gcr = gamma_critical(params, variant)
    roots = solve_characteristic_cubic(params, variant)
    notes = []

    try:
        cs = asymptotics(roots, params, mode="exact")
        omega_inf = effective_frequency_squared(params, variant) + cs.A / params.mass
    except InconsistentParametersError:
        omega_inf = np.nan
        if variant is ModelVariant.CALDEIRA_LEGGETT:
            notes.append("beyond gamma_cr: observable frequency diverges periodically")
        else:
            notes.append("beyond gamma_cr: asymptotic frequency squared is negative")

    if np.isnan(omega_inf) and variant is not ModelVariant.CALDEIRA_LEGGETT:
        # the drift ratio still has a long-time limit; report its sign
        ctx = evaluation_context(params, variant)
        a_late = ctx.drift(300.0 / params.omega)[0]
        omega_inf = effective_frequency_squared(params, variant) + a_late / params.mass

    q = np.nan
    q_w = np.nan
    if params.gamma < gcr * (1.0 - 1e-10):
        q = stationary_Q(params, variant, "exact")
        q_w = stationary_Q(params, variant, "weak")
    elif variant is ModelVariant.CALDEIRA_LEGGETT:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            q_w = stationary_Q(params, variant, "weak")
        notes.append("Q undefined beyond gamma_cr; Q_weak is a formal continuation")
    if params.gamma == 0.0:
        notes.append("Q reported at the small-coupling limit gamma = 1e-6")

    freq_ok = bool(np.isfinite(omega_inf) and omega_inf > 0.0)
    pos_ok = bool(np.isfinite(q) and q >= 1.0)
    return ConsistencyReport(
        params=params,
        variant=variant,
        gamma_cr=gcr,
        root_classification=roots.classification,
        omega_obs_sq_inf=float(omega_inf),
        Q=float(q),
        Q_weak=float(q_w),
        frequency_consistent=freq_ok,
        positivity_consistent=pos_ok,
        annotation="; ".join(notes),
    )
