#!/usr/bin/env python
"""Measure the two size thresholds of the distance engine.

Prints two markdown tables:

* per-call cost of every APSP kernel on ``G - u`` (the query the
  deviation evaluator makes) — the boolean-matmul oracle, the
  all-sources BLAS BFS, the reach-counting kernel and the bitkernel —
  which places ``bitkernel.MIN_N``;
* dense vs incremental backend on whole max-cost dynamics runs (ASG with
  budget 3, GBG with alpha = n/4 and m = 2n) — which places
  ``AUTO_BACKEND_MIN_N``.

Usage, from the repository root, with BLAS single-threaded as in the
end-to-end benchmark::

    OMP_NUM_THREADS=1 PYTHONPATH=src python scripts/apsp_crossover.py \
        [--kernel-n 10,40,96] [--dynamics-n 32,64,96]

``--dynamics-n=`` (empty) skips the second table.
"""

import argparse
import time

import numpy as np

from repro.core.dynamics import run_dynamics
from repro.core.games import AsymmetricSwapGame, GreedyBuyGame
from repro.core.policies import MaxCostPolicy
from repro.graphs import adjacency as adj
from repro.graphs import bitkernel
from repro.graphs.generators import random_budget_network, random_m_edge_network

KERNEL_NS = (10, 20, 30, 40, 60, 80, 96, 120, 160, 250)
DYNAMICS_NS = (32, 48, 64, 80, 96)


def _best_us(fn, budget_s: float = 0.2) -> float:
    """Best per-call time of ``fn`` in microseconds over ~``budget_s``."""
    fn()
    t0 = time.perf_counter()
    fn()
    reps = max(1, int(budget_s / 5 / max(time.perf_counter() - t0, 1e-6)))
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best * 1e6


def kernel_table(ns) -> None:
    print("| n | oracle µs | all-sources BLAS BFS µs | reach-counting µs | bitkernel µs |")
    print("| ---: | ---: | ---: | ---: | ---: |")
    for n in ns:
        A = random_budget_network(n, 3, seed=1).A
        mask = np.ones(n, dtype=bool)
        mask[n // 2] = False
        oracle = _best_us(lambda: adj.all_pairs_distances(A, mask=mask))
        with bitkernel.forced(False):
            layered = _best_us(lambda: adj.bfs_distances_multi(A, list(range(n)), mask=mask))
            reach = _best_us(lambda: adj.all_pairs_distances_fast(A, mask=mask))
        with bitkernel.forced(True):
            bits = _best_us(lambda: adj.all_pairs_distances_fast(A, mask=mask))
        print(f"| {n} | {oracle:.0f} | {layered:.0f} | {reach:.0f} | {bits:.0f} |")


def _trajectory_s(kind: str, n: int, backend: str) -> float:
    if kind == "asg":
        game, net = AsymmetricSwapGame("sum"), random_budget_network(n, 3, seed=7)
    else:
        game, net = GreedyBuyGame("sum", alpha=n / 4.0), random_m_edge_network(n, 2 * n, seed=7)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        run_dynamics(game, net, MaxCostPolicy(), seed=7, max_steps=3 * n, backend=backend)
        best = min(best, time.perf_counter() - t0)
    return best


def dynamics_table(ns) -> None:
    print("| game | n | dense s | incremental s | incremental / dense |")
    print("| --- | ---: | ---: | ---: | ---: |")
    for kind in ("asg", "gbg"):
        for n in ns:
            dense = _trajectory_s(kind, n, "dense")
            inc = _trajectory_s(kind, n, "incremental")
            print(f"| {kind} | {n} | {dense:.3f} | {inc:.3f} | {inc / dense:.2f} |")


def _sizes(text: str):
    return tuple(int(x) for x in text.split(",") if x)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernel-n", type=_sizes, default=KERNEL_NS)
    parser.add_argument("--dynamics-n", type=_sizes, default=DYNAMICS_NS)
    args = parser.parse_args()
    kernel_table(args.kernel_n)
    print()
    dynamics_table(args.dynamics_n)


if __name__ == "__main__":
    main()
