"""The four workloads: seeded inputs, one operation, and its output checks.

A workload hands out rounds. A round is a fixed list of operations, so the
share of any kind of operation in a run does not depend on the run length.
The inputs of round i come from numpy's generator seeded with (seed, i).
`run` is the timed call into the package; `keep` reduces its output to
what the checks need, and `check` compares that with the references in
refs.py after the timed loop. A check returns a list of failure messages.
"""
from __future__ import annotations

import math
import os
import zlib

import numpy as np

from qbmotion import cli, coeffs, dynamics, oracle, special
from qbmotion.coeffs import CoefficientSet
from qbmotion.dynamics import GaussianState
from qbmotion.params import ModelParams, ModelVariant

VARIANTS = (ModelVariant.ORIGINAL, ModelVariant.CALDEIRA_LEGGETT,
            ModelVariant.WEAK_SHIFTED_KERNEL)

#: gates, relative to the size of the quantity checked
TOL_EXACT = 1e-8      # against the Langevin drift, a closed form in mpmath
TOL_SPECIAL = 1e-10   # I1/I2 against mpmath's E1/Ei
TOL_ORACLE_AB = 2e-5  # against the Volterra solve (O(step^2) discretisation)
TOL_ORACLE_CD = 2e-3  # against the Simpson/spline quadrature of the oracle
TOL_WEAK = 1e-9       # C_w, D_w against mpmath quadrature
TOL_Q = 1e-9          # stationary Q against the fluctuation-dissipation integral
TOL_GAMMA_CR = 1e-6   # the program bisects gamma_cr to 1e-8 relative
TOL_VIETA = 1e-9
TOL_MEANS = 1e-8      # propagated means against the Langevin solution
TOL_COV = 1e-4        # propagated covariances against the Langevin noise integral
TOL_RS = 1e-9         # slack on s_qq s_pp - s_qp^2 >= hbar^2/4
TOL_WEAK_RUN = 1e-4   # weak moments at a common time, two run lengths


class Op:
    __slots__ = ("kind", "params", "variant", "data", "work", "fault", "kept")

    def __init__(self, kind, params=None, variant=None, work=0.0, fault=None, **data):
        self.kind = kind
        self.params = params
        self.variant = variant
        self.work = work
        self.fault = fault  # the known program fault that fails this operation
        self.data = data
        self.kept = None


def _gamma_critical(wc: float, variant) -> float:
    """gamma_cr at Omega = 1 for drawing couplings: 1/(2 Wc) for the
    original model, else the largest real zero of the cubic's discriminant,
    a cubic in c = 1 + 2 gamma Wc."""
    if variant is ModelVariant.ORIGINAL:
        return 1.0 / (2.0 * wc)
    b, d = wc, wc
    cs = np.roots([-4.0, b**2, 18.0 * b * d, -4.0 * b**3 * d - 27.0 * d**2])
    c = max(x.real for x in cs if abs(x.imag) < 1e-9 * abs(x))
    return (c - 1.0) / (2.0 * wc)


def _draw_point(rng, variant, wc_range=(20.0, 80.0), frac=(0.05, 0.9)):
    wc = math.exp(rng.uniform(math.log(wc_range[0]), math.log(wc_range[1])))
    return ModelParams(omega_c=wc, gamma=rng.uniform(*frac) * _gamma_critical(wc, variant))


def _runmax(values):
    return np.maximum.accumulate(np.abs(values))


def _gate(name, got, ref, scale, tol, where):
    if not abs(got - ref) <= tol * scale:
        return [f"{name} at {where}: {got!r} vs reference {ref!r} "
                f"(|d|/scale {abs(got - ref) / scale:.2e} > {tol:.0e})"]
    return []


def _drift_checks(lang, t, a, b, where):
    ra, rb = lang.drift(t)
    return (_gate("A", a, ra, abs(ra), TOL_EXACT, where)
            + _gate("B", b, rb, abs(rb), TOL_EXACT, where))


class Workload:
    ops_per_round = 1

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = outdir

    def rng(self, i, salt=0):
        return np.random.default_rng([self.seed, i, salt])

    def prepare(self):
        """Outside the timed region, before each operation: start from a cold
        context cache, as a new parameter point or a new process does."""
        coeffs.evaluation_context.cache_clear()

    def close(self):
        pass


# ---------------------------------------------------------------------------


class Sweep(Workload):
    """Exact coefficient tables, one seeded parameter point per operation."""

    N = 2000
    T_MAX = 50.0
    WCT_MIN = 0.02
    ops_per_round = 3

    def round(self, i):
        rng = self.rng(i)
        ops = []
        for v in VARIANTS:
            p = _draw_point(rng, v)
            grid = np.geomspace(self.WCT_MIN / p.omega_c, self.T_MAX, self.N)
            # one Langevin check per sixth of the log grid, one early oracle time each
            edges = np.linspace(0, self.N, 7).astype(int)
            lang_idx = [int(rng.integers(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
            wct = p.omega_c * grid
            ab_idx = int(rng.choice(np.flatnonzero((wct >= 0.5) & (wct <= 10.0))))
            cd_idx = int(rng.choice(np.flatnonzero((wct >= 0.5) & (wct <= 4.0))))
            special_pick = [(int(rng.integers(0, 4)), int(rng.integers(0, self.N))) for _ in range(2)]
            ops.append(Op("table", p, v, float(self.N), grid=grid, lang_idx=lang_idx,
                          ab_idx=ab_idx, cd_idx=cd_idx, special_pick=special_pick))
        return ops

    def run(self, op):
        return dynamics.coefficient_table(op.data["grid"], op.params, op.variant, "exact")

    def keep(self, op, out):
        a, b, c, d = out
        g = op.data["grid"]
        pick = sorted(set(op.data["lang_idx"]) | {op.data["ab_idx"], op.data["cd_idx"]})
        op.kept = {
            "finite": bool(np.all(np.isfinite(np.stack(out)))),
            "vals": {i: (g[i], a[i], b[i], c[i], d[i]) for i in pick},
            "scale": {i: (_runmax(a)[i], _runmax(b)[i], _runmax(c)[i], _runmax(d)[i])
                      for i in pick},
        }

    def check(self, op):
        import refs

        k, p, v = op.kept, op.params, op.variant
        errs = [] if k["finite"] else ["non-finite coefficient"]
        lang = refs.Langevin(p, v.value)
        for i in op.data["lang_idx"]:
            t, a, b, _, _ = k["vals"][i]
            errs += _drift_checks(lang, t, a, b, f"t={t:.6g}")
        i = op.data["ab_idx"]
        t, a, b, _, _ = k["vals"][i]
        ao, bo = oracle.oracle_AB(t, p, variant=v)
        errs += _gate("A/oracle", a, ao, k["scale"][i][0], TOL_ORACLE_AB, f"t={t:.6g}")
        errs += _gate("B/oracle", b, bo, k["scale"][i][1], TOL_ORACLE_AB, f"t={t:.6g}")
        i = op.data["cd_idx"]
        t, _, _, c, d = k["vals"][i]
        co, do = oracle.oracle_CD(t, p, variant=v)
        errs += _gate("C/oracle", c, co, k["scale"][i][2], TOL_ORACLE_CD, f"t={t:.6g}")
        errs += _gate("D/oracle", d, do, k["scale"][i][3], TOL_ORACLE_CD, f"t={t:.6g}")
        rs = [complex(p.omega_c)] + [complex(z) for z in lang.zs]
        for j, ti in op.data["special_pick"]:
            r, t = rs[j], float(op.data["grid"][ti])
            i1, i2 = complex(special.I1(r, t)), complex(special.I2(r, t))
            e1, e2 = refs.i1_i2(r, t)
            errs += _gate("I1", i1, e1, abs(e1), TOL_SPECIAL, f"r={r:.6g}, t={t:.6g}")
            errs += _gate("I2", i2, e2, abs(e2), TOL_SPECIAL, f"r={r:.6g}, t={t:.6g}")
        return errs


# ---------------------------------------------------------------------------


class Figures(Workload):
    """One in-process pass of the CLI over the figure presets."""

    PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.tmp = os.path.join(outdir, f"csv-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.paths = {f: os.path.join(self.tmp, f + ".csv") for f in self.PRESETS}

    def round(self, i):
        return [Op("pass", work=0.0, pass_index=i)]

    def run(self, op):
        for f in self.PRESETS:
            rc = cli.main([cli.PRESETS[f]["cmd"], "--preset", f, "--out", self.paths[f]])
            if rc != 0:
                raise RuntimeError(f"qbmotion {f} exited with {rc}")

    def keep(self, op, out):
        # the files, compressed: the checks parse them after the timed loop
        op.kept = {}
        op.work = 0.0
        for f in self.PRESETS:
            with open(self.paths[f], "rb") as fh:
                raw = fh.read()
            op.kept[f] = zlib.compress(raw, 1)
            # data rows: the lines after the '#' header and the column names
            op.work += sum(not ln.startswith(b"#") for ln in raw.splitlines()) - 1

    def check(self, op):
        import refs

        rng = self.rng(op.data["pass_index"], 1)
        tabs = {f: _read_csv(z) for f, z in op.kept.items()}
        errs = []
        for f, tab in tabs.items():
            want = cli.PRESETS[f]["n"]
            if tab["n"] != want:
                errs.append(f"{f}: {tab['n']} rows, expected {want}")
        for f in ("fig2", "fig3", "fig6"):
            # five seeded rows with t > 0, then one with 0 < t <= 0.5
            rows = [r for r in tabs[f]["rows"] if float(r[0]) > 0]
            early = [r for r in rows if float(r[0]) <= 0.5]
            tabs[f]["rows"] = ([rows[j] for j in rng.choice(len(rows), 5, replace=False)]
                               + [early[int(rng.integers(len(early)))]])
        for f in ("fig1", "fig5"):
            errs += _check_roots(f, tabs[f], refs)
        for f in ("fig4", "fig7"):
            tab = tabs[f]
            p, v = tab["params"], tab["variant"]
            errs += _gate(f"{f} gamma_cr", tab["gamma_cr"], refs.gamma_critical(p, v),
                          tab["gamma_cr"], TOL_GAMMA_CR, "header")
            for row in tab["rows"]:
                if (float(row[0]) < tab["gamma_cr"]) != math.isfinite(float(row[1])):
                    errs.append(f"{f}: Q = {row[1]} at gamma={row[0]}, gamma_cr={tab['gamma_cr']}")
        # one seeded Q row below gamma_cr per pass, fig4 and fig7 in turn
        f = ("fig4", "fig7")[op.data["pass_index"] % 2]
        tab = tabs[f]
        p, v = tab["params"], tab["variant"]
        below = [r for r in tab["rows"] if float(r[0]) < tab["gamma_cr"]]
        row = below[int(rng.integers(len(below)))]
        g, q = float(row[0]), float(row[1])
        pg = ModelParams(p.mass, p.omega, p.omega_c, g, p.hbar)
        errs += _gate(f"{f} Q", q, refs.fdt_Q(pg, v), q, TOL_Q, f"gamma={g:.6g}")
        for f in ("fig2", "fig3"):
            tab = tabs[f]
            p, v = tab["params"], tab["variant"]
            lang = refs.Langevin(p, v)
            rows = tab["rows"]
            for row in rows[:4]:
                t, a, b = (float(x) for x in row[:3])
                errs += [f"{f}: {e}" for e in _drift_checks(lang, t, a, b, f"t={t:.6g}")]
            row = rows[4]
            t, cw, dw = float(row[0]), float(row[7]), float(row[8])
            rc, rd = refs.weak_diffusion(p, v, t)
            errs += _gate(f"{f} C_w", cw, rc, abs(rc), TOL_WEAK, f"t={t:.6g}")
            errs += _gate(f"{f} D_w", dw, rd, abs(rd), TOL_WEAK, f"t={t:.6g}")
            t, a, b = (float(x) for x in rows[5][:3])
            ao, bo = oracle.oracle_AB(t, p, variant=ModelVariant.from_string(v))
            errs += _gate(f"{f} A/oracle", a, ao, abs(ao), TOL_ORACLE_AB, f"t={t:.6g}")
            errs += _gate(f"{f} B/oracle", b, bo, abs(bo), TOL_ORACLE_AB, f"t={t:.6g}")
        tab = tabs["fig6"]
        p, v = tab["params"], tab["variant"]
        lang = refs.Langevin(p, v)
        for row in tab["rows"][:5]:
            t, w2, _, neg = row
            t, w2 = float(t), float(w2)
            a_ref = lang.drift(t)[0]
            ref = refs.master_w2(p, v) + a_ref / p.mass
            errs += _gate("fig6 omega_obs^2", w2, ref, refs.master_w2(p, v) + abs(a_ref),
                          TOL_EXACT, f"t={t:.6g}")
            if neg != str(int(w2 < 0)):
                errs.append(f"fig6: negative flag {neg} for omega_obs^2 = {w2}")
        return errs

    def close(self):
        for path in self.paths.values():
            if os.path.exists(path):
                os.remove(path)
        os.rmdir(self.tmp)


def _read_csv(compressed):
    """Header values and data rows of one CLI output file."""
    meta = {}
    lines = zlib.decompress(compressed).decode().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    for ln in lines:
        if ln.startswith("#"):
            for field in ln[1:].split():
                if "=" in field:
                    key, _, val = field.partition("=")
                    meta[key] = val
    params = ModelParams(mass=float(meta["M"]), omega=float(meta["Omega"]),
                         omega_c=float(meta["Omega_c"]), gamma=float(meta["gamma"]),
                         hbar=float(meta["hbar"]))
    return {"params": params, "variant": meta["variant"],
            "gamma_cr": float(meta["gamma_critical"]) if "gamma_critical" in meta else None,
            "rows": [ln.split(",") for ln in body[1:]], "n": len(body) - 1}


def _check_roots(name, tab, refs):
    """Vieta identities on every row; the classification against the sign
    of the discriminant; the last change of classification, and for the
    original model the sign change of the largest real part, at gamma_cr."""
    p, v, gcr = tab["params"], tab["variant"], tab["gamma_cr"]
    errs = _gate(f"{name} gamma_cr", gcr, refs.gamma_critical(p, v), gcr, TOL_GAMMA_CR, "header")
    below = above = None
    for row in tab["rows"]:
        g = float(row[0])
        z = [complex(float(row[1 + 2 * k]), float(row[2 + 2 * k])) for k in range(3)]
        pg = ModelParams(p.mass, p.omega, p.omega_c, g, p.hbar)
        res = refs.vieta_residual(pg, v, *z)
        if res > TOL_VIETA:
            errs.append(f"{name}: Vieta residual {res:.2e} at gamma={g:.6g}")
        disc = refs.discriminant(pg, v)
        b, c, d = refs.cubic(pg, v)
        terms = (18 * b * c * d, 4 * b**3 * d, b**2 * c**2, 4 * c**3, 27 * d**2)
        if abs(disc) > 1e-9 * max(abs(x) for x in terms):
            want = "three-real" if disc > 0 else "one-real-plus-conjugate-pair"
            if row[7] != want:
                errs.append(f"{name}: classification {row[7]} at gamma={g:.6g}, "
                            f"discriminant {disc:.3e}")
        if v == "original" and (max(zz.real for zz in z) > 0) != (g > gcr):
            errs.append(f"{name}: largest real part {max(zz.real for zz in z):.3e} "
                        f"on the wrong side of gamma_cr at gamma={g:.6g}")
        if g < gcr:
            below = row[7]
        elif above is None:
            above = row[7]
    if below is None or above is None or below == above:
        errs.append(f"{name}: classification does not change at gamma_cr={gcr:.6g} "
                    f"({below} -> {above})")
    return errs


# ---------------------------------------------------------------------------


class Validate(Workload):
    """Closed form against the oracle on a grid fixed in units of 1/Omega_c."""

    WCT = np.geomspace(0.5, 20.0, 6)
    ops_per_round = 3

    def round(self, i):
        rng = self.rng(i)
        return [Op("validate", _draw_point(rng, v), v, float(len(self.WCT))) for v in VARIANTS]

    def run(self, op):
        p, v = op.params, op.variant
        ts = self.WCT / p.omega_c
        ctx = coeffs.evaluation_context(p, v)
        a, b = ctx.drift(ts)
        c, d = ctx.diffusion(ts)
        closed = [CoefficientSet(float(t), a[i], b[i], c[i], d[i], "exact")
                  for i, t in enumerate(ts)]
        ref = []
        for t in ts:
            ao, bo = oracle.oracle_AB(float(t), p, variant=v)
            co, do = oracle.oracle_CD(float(t), p, variant=v)
            ref.append(CoefficientSet(float(t), ao, bo, co, do, "oracle"))
        rep = oracle.compare(closed, ref, {"A": 1e-6, "B": 1e-6, "C": 1e-4, "D": 1e-4})
        return closed, ref, rep

    def keep(self, op, out):
        closed, ref, _ = out
        op.kept = {key: (np.array([getattr(s, key) for s in closed]),
                         np.array([getattr(s, key) for s in ref])) for key in "ABCD"}

    def check(self, op):
        errs = []
        for key, tol in (("A", TOL_ORACLE_AB), ("B", TOL_ORACLE_AB),
                         ("C", TOL_ORACLE_CD), ("D", TOL_ORACLE_CD)):
            got, ref = op.kept[key]
            scale = _runmax(ref)
            for i, wct in enumerate(self.WCT):
                errs += _gate(key, got[i], ref[i], scale[i], tol, f"Wc t={wct:.3g}")
        return errs


# ---------------------------------------------------------------------------


class Propagate(Workload):
    """Gaussian moment propagation at a fixed cutoff and length."""

    WC = 40.0
    T_END = 10.0
    T_COMMON = 3.0
    STEPS = int(round(T_END / (0.02 / WC)))  # propagate's default step
    ops_per_round = 4
    WEAK_STATE = GaussianState(1.0, 0.0, 0.5, 0.0, 0.5)
    WEAK_FAULT = ("weak table on a fine-then-coarse grid (dynamics._stage_tables "
                  "with dynamics._weak_table)")

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self._weak_ref = {}

    def round(self, i):
        rng = self.rng(i)
        ops = []
        for v in VARIANTS[:2]:
            p = ModelParams(omega_c=self.WC,
                            gamma=rng.uniform(0.1, 0.9) * _gamma_critical(self.WC, v))
            ops.append(Op("exact", p, v, self.T_END, state=_draw_state(rng),
                          cov_times=sorted(rng.uniform(0.0, self.T_END, 3)),
                          mean_idx=sorted(rng.choice(self.STEPS + 1, 20, replace=False))))
        # fixed inputs, independent of the seed: these fail on every run
        for v in VARIANTS[:2]:
            ops.append(Op("weak", ModelParams(), v, self.T_END, fault=self.WEAK_FAULT,
                          state=self.WEAK_STATE))
        return ops

    def run(self, op):
        mode = "weak" if op.kind == "weak" else "exact"
        return dynamics.propagate(op.data["state"], op.params, op.variant, mode, self.T_END)

    def keep(self, op, out):
        if op.kind == "weak":
            op.kept = _moments_at(out, self.T_COMMON)
            return
        mean_idx = op.data["mean_idx"]
        cov_idx = [int(np.argmin(np.abs(out.t - t))) for t in op.data["cov_times"]]
        rs = out.rs_function
        op.kept = {
            "rs_min": float(np.min(rs)),
            "finite": bool(np.all(np.isfinite(rs))),
            "means": [(out.t[i], out.mean_q[i], out.mean_p[i]) for i in mean_idx],
            "covs": [(out.t[i], out.cov_qq[i], out.cov_qp[i], out.cov_pp[i]) for i in cov_idx],
        }

    def check(self, op):
        import refs

        p, v, st = op.params, op.variant, op.data["state"]
        if op.kind == "weak":
            if v not in self._weak_ref:
                short = dynamics.propagate(st, p, v, "weak", self.T_COMMON)
                self._weak_ref[v] = _moments_at(short, self.T_COMMON)
            long_, short = op.kept, self._weak_ref[v]
            scale = math.hypot(short[0], short[1])
            errs = _gate("weak <q>(3)", long_[0], short[0], scale, TOL_WEAK_RUN, "t_end 10 vs 3")
            errs += _gate("weak <p>(3)", long_[1], short[1], scale, TOL_WEAK_RUN, "t_end 10 vs 3")
            for j, name in ((2, "s_qq"), (4, "s_pp")):
                errs += _gate(f"weak {name}(3)", long_[j], short[j], abs(short[j]),
                              TOL_WEAK_RUN, "t_end 10 vs 3")
            return errs
        k = op.kept
        errs = [] if k["finite"] else ["non-finite moments"]
        if not k["rs_min"] >= 0.25 * p.hbar**2 * (1.0 - TOL_RS):
            errs.append(f"s_qq s_pp - s_qp^2 = {k['rs_min']!r} < hbar^2/4")
        lang = refs.Langevin(p, v.value)
        # the means decay from their start: gate against the larger amplitude
        start = math.hypot(st.mean_q, st.mean_p / p.mass)
        for t, q, pm in k["means"]:
            rq, rp = lang.means(st.mean_q, st.mean_p, t)
            scale = max(start, math.hypot(rq, rp / p.mass))
            errs += _gate("<q>", q, rq, scale, TOL_MEANS, f"t={t:.6g}")
            errs += _gate("<p>", pm, rp, p.mass * scale, TOL_MEANS, f"t={t:.6g}")
        for t, sqq, sqp, spp in k["covs"]:
            if t == 0.0:
                continue
            rqq, rqp, rpp = refs.covariance(p, v.value, st, t, lang)
            errs += _gate("s_qq", sqq, rqq, rqq, TOL_COV, f"t={t:.6g}")
            errs += _gate("s_qp", sqp, rqp, math.sqrt(rqq * rpp), TOL_COV, f"t={t:.6g}")
            errs += _gate("s_pp", spp, rpp, rpp, TOL_COV, f"t={t:.6g}")
        return errs


def _draw_state(rng) -> GaussianState:
    """A displaced, squeezed, rotated and mixed Gaussian state (hbar = M = Omega = 1)."""
    q0, p0 = rng.uniform(-1.0, 1.0, 2)
    purity, squeeze, angle = rng.uniform(1.0, 1.5), rng.uniform(0.0, 0.5), rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    cov = 0.5 * purity * rot @ np.diag([math.exp(-2 * squeeze), math.exp(2 * squeeze)]) @ rot.T
    return GaussianState(float(q0), float(p0), float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1]))


def _moments_at(res, t):
    i = int(np.argmin(np.abs(res.t - t)))
    return (res.mean_q[i], res.mean_p[i], res.cov_qq[i], res.cov_qp[i], res.cov_pp[i])


WORKLOADS = {"sweep": Sweep, "figures": Figures, "validate": Validate, "propagate": Propagate}
