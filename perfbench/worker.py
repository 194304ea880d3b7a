"""One workload run in its own process; run.py starts it.

Prints one JSON line: the time the first operation started (on the
system-wide monotonic clock, so run.py can subtract its own start time), the
operations attempted and failed, and the measured numbers. With --setup-only
it stops where the first timed operation would start.
"""
import os

# numpy's BLAS and OpenMP pools default to one thread per core; small complex
# products in the coefficient code then go through the pool and slow down
# whenever another process holds a core. Pin them before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402
import scipy.special as sc  # noqa: E402

import qbmotion  # noqa: E402
import workloads  # noqa: E402


#: seconds the calibration kernel takes at the reference speed
CAL_REF_S = 0.0013

#: seconds of operation time between two calibration samples
CAL_PERIOD_S = 0.1

_CAL_X = np.linspace(0.1, 30.0, 400) + 0.5j


def calibrate():
    """Seconds taken by a fixed mix of interpreter, numpy and scipy.special
    work that does not use the package."""
    t0 = time.perf_counter()
    s = 0
    for k in range(2000):
        s += k * k
    sc.exp1(_CAL_X)
    for k in range(60):
        z = np.atleast_1d(complex(0.1 + 0.05 * k, 0.5))
        v = np.exp(z) * sc.exp1(z)
        f"{v[0].real:.17g},{v[0].imag:.17g}"
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed while operations run.

    The host's speed drifts by up to a factor of two within seconds (other
    tenants), so a round's time is scaled to the reference speed by the
    calibration kernel, run once before the round and then every
    CAL_PERIOD_S from a SIGALRM handler. The handler runs between bytecodes
    of the operation; its own time is subtracted from the operation's."""

    def __init__(self):
        self.samples = []
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.paused += time.perf_counter() - t0

    def start_round(self):
        self.samples = [calibrate()]
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)

    def end_round(self):
        """Stop sampling; return the round's speed relative to the reference."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        return CAL_REF_S / statistics.mean(self.samples)


def timed_rounds(wl, rounds, seconds, records, probe, tracer=None):
    """Run whole rounds until `seconds` of operation time have passed, or
    exactly `rounds` rounds when given. Appends (op, seconds, error) to
    records; returns the time of each round's operations and its speed."""
    round_times, speeds = [], []
    i = 0
    while (rounds is None and sum(round_times) < seconds) or (rounds is not None and i < rounds):
        spent = 0.0
        probe.start_round()
        for op in wl.round(i):
            wl.prepare()
            if tracer is not None:
                tracer.op = len(records)
            err = None
            paused = probe.paused
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception:  # a raising operation is a failed one
                err = traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0 - (probe.paused - paused)
            spent += dt
            if err is None:
                wl.keep(op, out)
            records.append((op, dt, err))
        speeds.append(probe.end_round())
        round_times.append(spent)
        i += 1
    return round_times, speeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.outdir)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    wl.round(0)  # input generation for the first round, as the timed loop will
    first_op = time.monotonic()
    speed = CAL_REF_S / statistics.median(calibrate() for _ in range(15))
    if args.setup_only:
        wl.close()
        print(json.dumps({"first_op": first_op, "speed": speed}))
        return 0

    records = []
    probe = SpeedProbe()
    if tracer is None:
        round_times, speeds = timed_rounds(wl, None, args.seconds, records, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # the same rounds untraced and then traced: the ratio of their median
        # scaled round times is the tracing overhead
        plain, plain_speeds = timed_rounds(wl, None, args.seconds / 2, records, probe)
        tracer.install(qbmotion)
        n_plain = len(records)
        traced, traced_speeds = timed_rounds(wl, len(plain), None, records, probe, tracer)
        tracer.uninstall()

    failed = unexpected = 0
    work = 0.0
    shown = set()
    for op, _, err in records:
        errs = [err] if err else []
        if not errs:
            try:
                errs = wl.check(op)
            except Exception:
                errs = ["check raised: " + traceback.format_exc(limit=3)]
        if not errs:
            work += op.work
            continue
        failed += 1
        if op.fault is None:
            unexpected += 1
            print(f"{args.workload} {op.kind} {op.variant} {op.params}:\n  "
                  + "\n  ".join(errs[:5]), file=sys.stderr)
        elif op.kind not in shown:
            shown.add(op.kind)
            print(f"{args.workload} {op.kind} {op.variant} fails as known ({op.fault}):\n  "
                  + "\n  ".join(errs[:4]), file=sys.stderr)
    wl.close()

    result = {"first_op": first_op, "attempted": len(records), "failed": failed,
              "correct": unexpected == 0}
    if tracer is None:
        scaled = [r * f for r, f in zip(round_times, speeds)]
        result["speed"] = speed
        result["metrics"] = {
            "work_per_s": work / sum(scaled),
            "op_p50_ms": 1e3 * statistics.median(scaled) / wl.ops_per_round,
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"unscaled: work_per_s {work / sum(round_times):.6g}, op_p50_ms "
              f"{1e3 * statistics.median(round_times) / wl.ops_per_round:.6g}, "
              f"median speed {statistics.median(speeds):.4f}", file=sys.stderr)
    else:
        overhead = (statistics.median(r * f for r, f in zip(traced, traced_speeds))
                    / statistics.median(r * f for r, f in zip(plain, plain_speeds)))
        result["metrics"] = layer_metrics(tracer, records[n_plain:], overhead)
        tracer.write(os.path.join(args.outdir, f"spans-{args.workload}-{args.seed}.csv"))
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, records, overhead):
    """Per-layer numbers of the traced rounds, per operation. A `<layer>.ms`
    is the layer's self time; a `<layer>.<function>_ms` is the inclusive
    time of that function's spans."""
    per, layer_self = tracer.summary()
    n_ops = len(records)

    def get(name, field):
        return per.get(name, {}).get(field, 0)

    def ms(name):
        return 1e3 * get(name, "incl") / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    weak_calls = get("coeffs.weak_coeffs", "calls")
    table_points = get("dynamics.coefficient_table", "count")
    exact_points = tracer.by_label("dynamics.coefficient_table").get("exact", (0.0, 0))[1]
    fig = {k: secs for k, (secs, _) in tracer.by_label("cli.main").items()}
    m = {
        "special.ms": 1e3 * layer_self["special"] / n_ops,
        "special.points": get("special._i1_i2", "count") / n_ops,
        "special.calls": get("special._i1_i2", "calls") / n_ops,
        "special.points_per_table_point": ratio(tracer.count_under(
            "special._i1_i2", "dynamics.coefficient_table", "exact"), exact_points),
        "special.points_per_weak_call": ratio(
            tracer.count_under("special._i1_i2", "coeffs.weak_coeffs"), weak_calls),
        "coeffs.ms": 1e3 * layer_self["coeffs"] / n_ops,
        "coeffs.context_builds": get("coeffs.EvaluationContext.__init__", "calls") / n_ops,
        "coeffs.context_ms": ms("coeffs.EvaluationContext.__init__"),
        "coeffs.drift_ms": ms("coeffs.EvaluationContext.drift"),
        "coeffs.diffusion_ms": ms("coeffs.EvaluationContext.diffusion"),
        "coeffs.points": (get("coeffs.EvaluationContext.drift", "count")
                          + get("coeffs.EvaluationContext.diffusion", "count")) / n_ops,
        "coeffs.weak_calls": weak_calls / n_ops,
        "coeffs.weak_ms": ms("coeffs.weak_coeffs"),
        "coeffs.asymptotics_ms": ms("coeffs.asymptotics"),
        "roots.ms": 1e3 * layer_self["roots"] / n_ops,
        "roots.solve_calls": get("roots.solve_characteristic_cubic", "calls") / n_ops,
        "roots.solve_ms": ms("roots.solve_characteristic_cubic"),
        "roots.gamma_critical_ms": ms("roots.gamma_critical"),
        "dynamics.ms": 1e3 * layer_self["dynamics"] / n_ops,
        "dynamics.steps": get("dynamics.propagate", "count") / n_ops,
        "dynamics.propagate_ms": ms("dynamics.propagate"),
        "dynamics.table_points": table_points / n_ops,
        "dynamics.table_ms": ms("dynamics.coefficient_table"),
        "dynamics.stationary_Q_ms": ms("dynamics.stationary_Q"),
        "oracle.ms": 1e3 * layer_self["oracle"] / n_ops,
        "oracle.volterra_steps": get("oracle.volterra_solve", "count") / n_ops,
        "oracle.volterra_ms": ms("oracle.volterra_solve"),
        "oracle.ab_ms": ms("oracle.oracle_AB"),
        "oracle.cd_panels": get("oracle._fine_panels", "count") / n_ops,
        "oracle.cd_ms": ms("oracle.oracle_CD"),
        "oracle.compare_ms": ms("oracle.compare"),
        "cli.ms": 1e3 * layer_self["cli"] / n_ops,
        "cli.rows": sum(op.work for op, _, err in records if op.kind == "pass" and err is None) / n_ops,
    }
    for k in range(1, 8):
        m[f"cli.fig{k}_ms"] = 1e3 * fig.get(f"fig{k}", 0.0) / n_ops
    m["trace.overhead"] = overhead
    return m


if __name__ == "__main__":
    sys.exit(main())
