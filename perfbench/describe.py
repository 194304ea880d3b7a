"""Statistics of the generated inputs, for the README.

    python3 perfbench/describe.py [--seeds 1-10] [--rounds 100]

For the first rounds of each seed: the share of sweep (r, t) pairs inside
the I1/I2 split radius, over the four r values of a table, and the share of
each root classification per workload.
"""
import argparse
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from qbmotion.special import I_SPLIT_RADIUS  # noqa: E402

import refs  # noqa: E402
import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--rounds", type=int, default=100)
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    inside = total = 0
    classes = {}
    for name in ("sweep", "validate", "propagate"):
        for seed in seeds:
            wl = workloads.WORKLOADS[name](seed, HERE)
            for i in range(args.rounds):
                for op in wl.round(i):
                    zs = np.roots([1.0, *refs.cubic(op.params, op.variant.value)])
                    real = int(np.sum(np.abs(zs.imag) <= 1e-10 * np.abs(zs)))
                    key = (name, op.kind, "three-real" if real == 3 else "real+pair")
                    classes[key] = classes.get(key, 0) + 1
                    if name == "sweep":
                        for r in [op.params.omega_c, *zs]:
                            x = np.abs(r) * op.data["grid"]
                            inside += int(np.sum(x <= I_SPLIT_RADIUS))
                            total += x.size
    print(f"sweep: {inside / total:.3f} of (r, t) pairs have |r t| <= {I_SPLIT_RADIUS} "
          f"(E1/Ei branch), {1 - inside / total:.3f} beyond (asymptotic branch)")
    for name, kind in sorted({k[:2] for k in classes}):
        counts = {k[2]: v for k, v in classes.items() if k[:2] == (name, kind)}
        n = sum(counts.values())
        print(f"{name} {kind}: " + ", ".join(f"{c} {v / n:.3f}" for c, v in sorted(counts.items())))


if __name__ == "__main__":
    main()
