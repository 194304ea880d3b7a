"""Command-line front end: parameter sweeps, figure-style CSV data, validation.

All internal computation proceeds in normalized units (M = Omega = hbar = 1);
raw-unit input is rescaled on the way in and every output column is converted
back on the way out. Each CSV starts with '#'-prefixed metadata lines
recording the full raw parameter set, so artifacts are reproducible from
their own header. Exit codes: 0 success, 1 usage error, 2 numerical or
validation failure.
"""
from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import __version__
from .errors import QbmError
from .params import (
    ModelParams,
    ModelVariant,
    load_config,
    normalize,
    unit_scales,
)
from .roots import gamma_critical, solve_characteristic_cubic
from .special import I1, I2, eta, nu0
from .coeffs import CoefficientSet, evaluation_context, short_time
from .oracle import compare, oracle_AB, oracle_CD
from .dynamics import (
    coefficient_table,
    consistency_report,
    ground_state,
    omega_obs_squared,
    propagate,
    stationary_Q,
)


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage errors with exit code 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


#: parameter bundles reproducing the canonical figure data sets
PRESETS = {
    "fig1": dict(cmd="roots", variant="original", omega_c=40.0, gamma_max=0.025, n=400),
    "fig2": dict(cmd="coeffs", omega_c=40.0, gamma=1 / 128, t_max=10.0, n=400, weak=True),
    "fig3": dict(cmd="coeffs", omega_c=40.0, gamma=1 / 128, t_max=10.0, n=400,
                 weak=True, short=True),
    "fig4": dict(cmd="q-scan", variant="original", omega_c=40.0, n=50),
    "fig5": dict(cmd="roots", variant="caldeira-leggett", omega_c=40.0, gamma_max=8.0, n=400),
    "fig6": dict(cmd="omega-obs", variant="caldeira-leggett", omega_c=40.0, gamma=5.0,
                 t_max=20.0, n=800),
    "fig7": dict(cmd="q-scan", variant="caldeira-leggett", omega_c=40.0, gamma_max=8.0, n=50),
    "canonical": dict(cmd="validate", omega_c=40.0, gamma=1 / 128, n=50, t_max=10.0),
}


def _add_common(p):
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--omega-c", dest="omega_c", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--variant", choices=[v.value for v in ModelVariant], default=None)
    p.add_argument("--config", default=None, help="key=value parameter file")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--preset", default=None, choices=sorted(PRESETS))


def _add_grid(p):
    p.add_argument("--t-min", dest="t_min", type=float, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--log-grid", action="store_true")


def build_parser() -> _Parser:
    ap = _Parser(prog="qbmotion", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("roots", help="root scan over the coupling")
    _add_common(p)
    p.add_argument("--gamma-min", dest="gamma_min", type=float, default=None)
    p.add_argument("--gamma-max", dest="gamma_max", type=float, default=None)
    p.add_argument("-n", type=int, default=None)

    p = sub.add_parser("kernel", help="tabulate bath kernels and special integrals")
    _add_common(p)
    _add_grid(p)

    p = sub.add_parser("coeffs", help="master-equation coefficients on a time grid")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--mode", choices=["exact", "weak"], default="exact")
    p.add_argument("--weak", action="store_true", help="append weak columns")
    p.add_argument("--short-time", dest="short", action="store_true",
                   help="append short-time expansion columns")

    p = sub.add_parser("validate", help="closed forms vs the quadrature oracle")
    _add_common(p)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--tol", dest="tol", type=float, default=None,
                   help="override both tolerances")
    p.add_argument("--tol-ab", type=float, default=1e-6)
    p.add_argument("--tol-cd", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=None)

    p = sub.add_parser("q-scan", help="stationary positivity ratio vs coupling")
    _add_common(p)
    p.add_argument("--gamma-min", dest="gamma_min", type=float, default=None)
    p.add_argument("--gamma-max", dest="gamma_max", type=float, default=None)
    p.add_argument("-n", type=int, default=None)

    p = sub.add_parser("omega-obs", help="observable frequency over time")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--mode", choices=["exact", "weak"], default="exact")

    p = sub.add_parser("propagate", help="Gaussian moment propagation")
    _add_common(p)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--mode", choices=["exact", "weak"], default="exact")
    p.add_argument("--stride", type=int, default=50, help="output every k-th step")

    p = sub.add_parser("report", help="physical-consistency report at one point")
    _add_common(p)
    return ap


def _resolve(args):
    """Raw parameters + variant from defaults < config < preset < flags."""
    raw = ModelParams()
    variant = ModelVariant.ORIGINAL
    if args.config:
        raw, variant = load_config(args.config)
    preset = PRESETS.get(args.preset or "", {})
    values = dict(mass=raw.mass, omega=raw.omega, omega_c=raw.omega_c,
                  gamma=raw.gamma, hbar=raw.hbar)
    for key in ("omega_c", "gamma"):
        if key in preset:
            values[key] = preset[key]
    if "variant" in preset:
        variant = ModelVariant.from_string(preset["variant"])
    for key in values:
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    if getattr(args, "variant", None):
        variant = ModelVariant.from_string(args.variant)
    # preset defaults for non-physical knobs apply only where flags are unset
    for key, val in preset.items():
        if key in ("cmd", "variant", "omega_c", "gamma"):
            continue
        if getattr(args, key, None) in (None, False):
            setattr(args, key, val)
    return ModelParams(**values), variant


def _fallback(args, name, default):
    v = getattr(args, name, None)
    return default if v is None else v


def _writer(args):
    return open(args.out, "w") if args.out else sys.stdout


def _header(fh, raw: ModelParams, variant: ModelVariant, extra=()):
    fh.write(f"# qbmotion {__version__}\n")
    fh.write(
        f"# M={raw.mass:.17g} Omega={raw.omega:.17g} Omega_c={raw.omega_c:.17g} "
        f"gamma={raw.gamma:.17g} hbar={raw.hbar:.17g} variant={variant.value}\n"
    )
    for line in extra:
        fh.write(f"# {line}\n")


def _fmt(x):
    return f"{x:.17g}"


def _row(fh, *vals):
    fh.write(",".join(v if isinstance(v, str) else _fmt(v) for v in vals) + "\n")


def _cmd_roots(args, raw, variant, fh):
    p = normalize(raw)
    sc = unit_scales(raw)
    n = int(_fallback(args, "n", 200))
    gcr_n = gamma_critical(p, variant)
    gmin = _fallback(args, "gamma_min", gcr_n / n * sc.frequency) / sc.frequency
    gmax = _fallback(args, "gamma_max", 2.0 * gcr_n * sc.frequency) / sc.frequency
    _header(fh, raw, variant, [f"gamma_critical={gcr_n * sc.frequency:.17g}"])
    fh.write("gamma,re_z1,im_z1,re_z2,im_z2,re_z3,im_z3,classification\n")
    for g in np.linspace(gmin, gmax, max(2, n)):
        r = solve_characteristic_cubic(replace(p, gamma=float(g)), variant)
        row = [g * sc.frequency]
        for z in r.as_tuple():
            row += [z.real * sc.frequency, z.imag * sc.frequency]
        _row(fh, *row, r.classification)
    return 0


def _cmd_kernel(args, raw, variant, fh):
    p = normalize(raw)
    sc = unit_scales(raw)
    n = int(_fallback(args, "n", 200))
    t_max = _fallback(args, "t_max", 2.0 * sc.time) * sc.frequency
    t_min = _fallback(args, "t_min", t_max / n) * sc.frequency
    ts = np.geomspace(max(t_min, 1e-12), t_max, n) if args.log_grid else np.linspace(
        max(t_min, t_max / n / 4), t_max, n)
    _header(fh, raw, variant)
    fh.write("s,eta,nu,re_I1,im_I1,re_I2,im_I2\n")
    kern_sc = raw.mass * raw.omega**3  # mass/time^3
    for s in ts:
        i1 = complex(I1(p.omega_c, s))
        i2 = complex(I2(p.omega_c, s))
        _row(
            fh,
            s * sc.time,
            float(eta(s, p)) * kern_sc,
            float(nu0(s, p)) * kern_sc,
            i1.real, i1.imag, i2.real * sc.time, i2.imag * sc.time,
        )
    return 0


def _cmd_coeffs(args, raw, variant, fh):
    p = normalize(raw)
    sc = unit_scales(raw)
    n = int(_fallback(args, "n", 200))
    t_max = _fallback(args, "t_max", 10.0 * sc.time) * sc.frequency
    t_min = _fallback(args, "t_min", 0.0) * sc.frequency
    if args.log_grid:
        ts = np.geomspace(max(t_min, t_max * 1e-6), t_max, max(2, n))
    else:
        ts = np.linspace(t_min, t_max, max(2, n))
    cols = ["t", "A", "B", "C", "D"]
    if args.weak:
        cols += ["A_w", "B_w", "C_w", "D_w"]
    if args.short:
        cols += ["A_s", "B_s", "C_s", "D_s"]
    _header(fh, raw, variant, [f"mode={args.mode}"])
    fh.write(",".join(cols) + "\n")
    a, b, c, d = coefficient_table(ts, p, variant, args.mode)
    if args.weak:
        aw, bw, cw, dw = coefficient_table(ts, p, variant, "weak")
    for i, t in enumerate(ts):
        row = [t * sc.time, a[i] * sc.drift_a, b[i] * sc.drift_b,
               c[i] * sc.diff_c, d[i] * sc.diff_d]
        if args.weak:
            row += [aw[i] * sc.drift_a, bw[i] * sc.drift_b, cw[i] * sc.diff_c,
                    dw[i] * sc.diff_d]
        if args.short:
            if t > 0:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    s = short_time(float(t), p)
                row += [s.A * sc.drift_a, s.B * sc.drift_b, s.C * sc.diff_c, s.D * sc.diff_d]
            else:
                row += [0.0, 0.0, 0.0, 0.0]
        _row(fh, *row)
    return 0


def _cmd_validate(args, raw, variant, fh):
    p = normalize(raw)
    sc = unit_scales(raw)
    n = int(_fallback(args, "n", 50))
    t_max = _fallback(args, "t_max", 10.0 * sc.time) * sc.frequency
    tol_ab = args.tol if args.tol is not None else args.tol_ab
    tol_cd = args.tol if args.tol is not None else args.tol_cd
    ts = np.geomspace(1e-3, t_max, max(2, n))
    ctx = evaluation_context(p, variant)
    a, b = ctx.drift(ts)
    c, d = ctx.diffusion(ts)
    closed = [CoefficientSet(float(t), a[i], b[i], c[i], d[i], "exact")
              for i, t in enumerate(ts)]
    oracle_sets = []
    for t in ts:
        ao, bo = oracle_AB(float(t), p, step=args.step, variant=variant)
        co, do = oracle_CD(float(t), p, step=args.step, variant=variant)
        oracle_sets.append(CoefficientSet(float(t), ao, bo, co, do, "oracle"))
    rep = compare(closed, oracle_sets, {"A": tol_ab, "B": tol_ab, "C": tol_cd, "D": tol_cd})
    _header(fh, raw, variant, [f"tol_ab={tol_ab}", f"tol_cd={tol_cd}",
                               "columns in raw units"])
    fh.write("t,A,B,C,D,A_oracle,B_oracle,C_oracle,D_oracle\n")
    for cs, os_ in zip(closed, oracle_sets):
        _row(fh, cs.t * sc.time,
             cs.A * sc.drift_a, cs.B * sc.drift_b, cs.C * sc.diff_c, cs.D * sc.diff_d,
             os_.A * sc.drift_a, os_.B * sc.drift_b, os_.C * sc.diff_c, os_.D * sc.diff_d)
    print(rep.summary(), file=sys.stderr)
    return 0 if rep.passed else 2


def _cmd_qscan(args, raw, variant, fh):
    p = normalize(raw)
    sc = unit_scales(raw)
    n = int(_fallback(args, "n", 50))
    gcr_n = gamma_critical(p, variant)
    gmin = _fallback(args, "gamma_min", gcr_n / n * sc.frequency) / sc.frequency
    gmax = _fallback(args, "gamma_max", 0.99 * gcr_n * sc.frequency) / sc.frequency
    _header(fh, raw, variant, [f"gamma_critical={gcr_n * sc.frequency:.17g}"])
    fh.write("gamma,Q,Q_weak\n")
    for g in np.linspace(gmin, gmax, max(2, n)):
        pg = replace(p, gamma=float(g))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                q = stationary_Q(pg, variant, "exact")
            except QbmError:
                q = np.nan
            try:
                qw = stationary_Q(pg, variant, "weak")
            except QbmError:
                qw = np.nan
        _row(fh, g * sc.frequency, q, qw)
    return 0


def _cmd_omega_obs(args, raw, variant, fh):
    p = normalize(raw)
    sc = unit_scales(raw)
    n = int(_fallback(args, "n", 400))
    t_max = _fallback(args, "t_max", 20.0 * sc.time) * sc.frequency
    t_min = _fallback(args, "t_min", 0.0) * sc.frequency
    ts = np.linspace(t_min, t_max, max(2, n))
    v = omega_obs_squared(ts, p, variant, args.mode)
    _header(fh, raw, variant, [f"mode={args.mode}"])
    fh.write("t,omega_obs_sq,omega_obs,negative\n")
    for t, vv in zip(ts, v):
        om = np.sqrt(vv) * sc.frequency if vv >= 0 else np.nan
        _row(fh, t * sc.time, vv * sc.frequency**2, om, str(int(vv < 0)))
    return 0


def _cmd_propagate(args, raw, variant, fh):
    p = normalize(raw)
    sc = unit_scales(raw)
    t_max = _fallback(args, "t_max", 10.0 * sc.time) * sc.frequency
    dt = args.dt * sc.frequency if args.dt is not None else None
    res = propagate(ground_state(p), p, variant, args.mode, t_max, dt)
    _header(fh, raw, variant,
            [f"mode={args.mode}", f"dt={(res.t[1] - res.t[0]) * sc.time:.17g}"])
    fh.write("t,mean_q,mean_p,cov_qq,cov_qp,cov_pp,rs_function\n")
    rs = res.rs_function
    stride = max(1, args.stride)
    idx = list(range(0, len(res.t), stride))
    if idx[-1] != len(res.t) - 1:
        idx.append(len(res.t) - 1)
    for i in idx:
        _row(fh, res.t[i] * sc.time, res.mean_q[i] * sc.pos, res.mean_p[i] * sc.mom,
             res.cov_qq[i] * sc.cov_qq, res.cov_qp[i] * sc.cov_qp,
             res.cov_pp[i] * sc.cov_pp, rs[i] * sc.cov_qq * sc.cov_pp)
    return 0


def _cmd_report(args, raw, variant, fh):
    p = normalize(raw)
    sc = unit_scales(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = consistency_report(p, variant)
    _header(fh, raw, variant)
    fh.write("gamma_cr,classification,omega_obs_sq_inf,Q,Q_weak,frequency_consistent,"
             "positivity_consistent,annotation\n")
    _row(
        fh,
        rep.gamma_cr * sc.frequency,
        rep.root_classification,
        rep.omega_obs_sq_inf * sc.frequency**2,
        rep.Q,
        rep.Q_weak,
        str(int(rep.frequency_consistent)),
        str(int(rep.positivity_consistent)),
        f'"{rep.annotation}"',
    )
    return 0


_DISPATCH = {
    "roots": _cmd_roots,
    "kernel": _cmd_kernel,
    "coeffs": _cmd_coeffs,
    "validate": _cmd_validate,
    "q-scan": _cmd_qscan,
    "omega-obs": _cmd_omega_obs,
    "propagate": _cmd_propagate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    preset = PRESETS.get(getattr(args, "preset", None) or "", {})
    if preset and preset.get("cmd") != args.cmd:
        print(
            f"qbmotion: error: preset {args.preset!r} belongs to subcommand "
            f"{preset['cmd']!r}",
            file=sys.stderr,
        )
        return 1
    try:
        raw, variant = _resolve(args)
        fh = _writer(args)
        try:
            code = _DISPATCH[args.cmd](args, raw, variant, fh)
        finally:
            if fh is not sys.stdout:
                fh.close()
        return code
    except QbmError as exc:
        print(f"qbmotion: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qbmotion: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
