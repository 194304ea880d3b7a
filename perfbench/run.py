"""Benchmark entry point: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Starts the workload in its own process (worker.py) with the BLAS/OpenMP
pools pinned to one thread, plus, untraced, a few processes that stop where
the first timed operation would start: set-up time is the median over all
of them. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: processes timed for set-up per run, the workload's own included
SETUP_SAMPLES = 3

UNITS = {"setup_s": "s", "work_per_s": "work/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def child(args, extra, deadline):
    """Run worker.py; return its JSON line and the monotonic time it was started."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--outdir", OUT] + extra
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1]), start


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qbmotion", "__init__.py")):
        print("perfbench: no package source under src/qbmotion", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    # every process ends before this, so that the run ends within 180 s
    deadline = time.monotonic() + 170.0
    # the first process compiles the package's bytecode; it is not timed
    child(args, ["--setup-only"], deadline)
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            out, start = child(args, ["--setup-only"], deadline)
            setups.append((out["first_op"] - start) * out["speed"])
    out, start = child(args, [], deadline)
    if not args.trace:
        setups.append((out["first_op"] - start) * out["speed"])

    metrics = out["metrics"]
    if args.trace:
        shown = {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}
    else:
        metrics["setup_s"] = statistics.median(setups)
        shown = {k: {"value": metrics[k], "unit": UNITS[k]} for k in UNITS}
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": shown}))
    return 0


def _layer_unit(name):
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    return "ratio" if name in ("trace.overhead",) else "count"


if __name__ == "__main__":
    sys.exit(main())
