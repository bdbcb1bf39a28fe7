#!/usr/bin/env python3
"""Time the solver across instance sizes.

Stars and Karp cycle means are cubic in their order (m or n); the
stage-two form tables take p max-plus products, one per anti-diagonal,
p = min(m, n), at orders m and n: O(n^2 p^2) scalar operations, which is
quartic on square instances.  Doubling a square size should therefore
cost between eight and sixteen times as much once per-call overhead stops
dominating; the timings give a quick sanity check of that trend plus the
absolute wall at the sizes we care about, up to the 70x70 reference size.
"""

import argparse
import time

import numpy as np

import tropsched as ts
from tropsched.instances import random_scale_instance


def run(size: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    inst = random_scale_instance(rng, size, size)
    start = time.perf_counter()
    report = ts.solve(inst)
    elapsed = time.perf_counter() - start
    assert report.status == "optimal", report.status
    sol = report.extreme[0]
    assert ts.stage2_solution_check(inst, report.stage1.mu, sol.x, sol.y)
    print(
        f"size {size:3d}: {elapsed:7.3f}s  mu={report.stage1.mu.raw:8.3f}  "
        f"eta={report.stage2.eta.raw:8.3f}  extremes={len(report.extreme)}"
    )
    return elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[5, 10, 20, 50, 70])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for size in args.sizes:
        run(size, args.seed)


if __name__ == "__main__":
    main()
