#!/usr/bin/env python3
"""Benchmark the oracle eigensolve.

Workload: the three lowest states (node_target=2) of the radial problem at
omega = 0.25, l = 0 with the Coulomb term on, solved repeatedly by
heunqdot.oracle.solve_eigen in this interpreter. Prints the median and the
fastest wall time of one solve and the eigenvalues it returns.

Usage: python benchmarks/bench_shooting.py [--repeats 20]
"""

import argparse
import statistics
import sys
import time

from heunqdot.model import RadialProblem
from heunqdot.oracle import ShootingConfig, solve_eigen


def run_workload(repeats: int) -> dict:
    problem = RadialProblem(omega=0.25, l=0)
    config = ShootingConfig(node_target=2)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = solve_eigen(problem, config, coulomb_on=True)
        times.append(time.perf_counter() - t0)
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "etas": [e.eta for e in result.eigenvalues],
        "widths": [e.convergence_width for e in result.eigenvalues],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()

    res = run_workload(args.repeats)
    print(f"3-state eigensolve: median {1e3 * res['median_s']:.2f} ms, "
          f"min {1e3 * res['min_s']:.2f} ms over {args.repeats} runs")
    for k, (eta, width) in enumerate(zip(res["etas"], res["widths"])):
        print(f"  nodes={k}: eta = {eta:.12f}  (self-convergence gap {width:.1e})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
