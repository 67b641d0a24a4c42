"""Cross-check the traced layer split against ``cProfile``.

Usage, from the repository root::

    python3 perfbench/check_profile.py

Runs the ``large-n`` workload's gbg n=120 trajectory (committed seed)
twice — once with the layer wrappers of ``layers.py`` installed, once
under ``cProfile`` — and compares three shares of each run's wall
time:

* ``repair``: maintained-APSP queries, the kernels beneath included
  (``IncrementalAPSP.distances``);
* ``digest``: the content digest keying the best-response cache
  (``IncrementalAPSP.digest``);
* ``collector``: best-response pricing outside those two
  (``Game.best_responses`` minus the repair and digest work it causes).

Exits non-zero when a share differs by more than ``TOLERANCE`` (in
share points) or the trajectories differ.  ``cProfile`` charges every
Python call, so the shares are expected to agree only roughly.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import bootstrap  # noqa: E402

#: largest accepted difference between the two shares of one layer
TOLERANCE = 0.10
CELL = "gbg-n120"


def _profile_shares(stats: pstats.Stats, wall: float) -> dict:
    """The three shares from a profile, by function name."""
    funcs = {}
    for (path, _, name), row in stats.stats.items():
        if path.endswith("incremental.py") and name in ("distances", "digest", "full_distances"):
            funcs[name] = row
        elif path.endswith("games.py") and name in ("best_responses", "cost_vector"):
            funcs[name] = row
    # row = (primitive calls, calls, own time, cumulative time, callers);
    # repair under cost_vector (the policy's cost scan) is not pricing
    repair = funcs["distances"][3]
    digest = funcs["digest"][3]
    scan = sum(ct for caller, (_, _, _, ct) in funcs["full_distances"][4].items()
               if caller[2] == "cost_vector")
    collector = funcs["best_responses"][3] - (repair - scan) - digest
    return {"repair": repair / wall, "digest": digest / wall, "collector": collector / wall}


def main() -> int:
    bootstrap()
    from perfbench.layers import Tracer
    from perfbench.workloads import COMMITTED_SEED, LargeN

    workload = LargeN(COMMITTED_SEED, Path("."))
    workload.setup()
    _, game, net, run_seed = next(c for c in workload.cells[0] if c[0] == CELL)
    workload._trajectory(game, net, run_seed)  # warm-up

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = workload._trajectory(game, net, run_seed)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    inc, own = tracer.inclusive_s, tracer.self_s
    traced_shares = {
        "repair": inc["graphs.incremental.repair"] / traced_wall,
        "digest": inc["graphs.incremental.digest"] / traced_wall,
        "collector": (own["core.games.pricing"] + own["graphs.incremental.br_cache"]) / traced_wall,
    }

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiled = profiler.runcall(workload._trajectory, game, net, run_seed)
    profiled_wall = time.perf_counter() - t0
    profile_shares = _profile_shares(pstats.Stats(profiler), profiled_wall)

    ok = [(r.agent, r.move) for r in traced.trajectory] == \
        [(r.agent, r.move) for r in profiled.trajectory]
    print(f"{CELL}: {traced.steps} steps; traced {traced_wall:.2f}s, "
          f"cProfile {profiled_wall:.2f}s; trajectories identical: {ok}")
    print(f"{'layer':<10} {'traced':>8} {'cProfile':>9}")
    for layer in ("repair", "collector", "digest"):
        a, b = traced_shares[layer], profile_shares[layer]
        agree = abs(a - b) <= TOLERANCE
        ok &= agree
        print(f"{layer:<10} {a:>8.1%} {b:>9.1%}  {'ok' if agree else 'DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
