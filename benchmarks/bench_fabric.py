"""Fabric benchmarks: work-queue throughput, drain overhead, compaction.

Mirrors ``bench_statespace.py``'s baseline discipline: run standalone
(``python benchmarks/bench_fabric.py``) to measure the cells and diff
them against the committed ``BENCH_fabric.json`` at the repo root.  Any
cell more than 25% slower than its baseline number exits non-zero; a
regressed run never rewrites the baseline.  ``--smoke`` (CI) runs the
cheap cells only and never writes; ``--no-write`` measures everything
without rewriting; ``--force-write`` accepts regressed numbers.

Every timed cell is also *verified*: queue counts, drained aggregates
(byte-identical to a serial run), and compacted row counts are pinned,
so a perf "win" from dropping work can never pass.
"""

import json
import pathlib
import shutil
import tempfile
import time
from typing import Optional

from repro.experiments.asg_budget import figure7_spec
from repro.experiments.campaign import (
    CampaignStore,
    aggregate_payload,
    run_campaign,
)
from repro.experiments.columnar import ColumnarStore, compact_store
from repro.experiments.fabric import WorkQueue, drain_campaign

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_fabric.json"

REGRESSION_FACTOR = 1.25

#: cells whose *baseline* time is below this are too fast to time
#: reliably; they are reported but not gated (same rule as bench_kernel).
MIN_GATE_SECONDS = 0.1

QUEUE_UNITS = 1000
SYNTH_ROWS = 20_000
SYNTH_CELLS = 8


def bench_queue(root) -> dict:
    """Initialize, claim, heartbeat, and complete QUEUE_UNITS units."""
    queue = WorkQueue(root)
    units = [{"id": f"u{i:05d}"} for i in range(QUEUE_UNITS)]
    t0 = time.perf_counter()
    enqueued = queue.initialize(units)
    completed = 0
    while (lease := queue.claim("w0")) is not None:
        queue.heartbeat(lease)
        queue.complete(lease, {"ok": True})
        completed += 1
    seconds = time.perf_counter() - t0
    assert enqueued == completed == QUEUE_UNITS, (enqueued, completed)
    assert queue.drained() and queue.counts()["done"] == QUEUE_UNITS
    return {"seconds": seconds, "units": completed}


def bench_drain(root) -> dict:
    """Drain a small fig7 slice with 2 workers; pin byte-identity."""
    spec = figure7_spec()
    serial = run_campaign(spec, root / "serial", trials=4, n_values=(10,),
                          n_jobs=1)
    want = json.dumps(aggregate_payload(serial.result), sort_keys=True)
    t0 = time.perf_counter()
    report = drain_campaign(spec, root / "fab", trials=4, n_values=(10,),
                            workers=2, lease_ttl=10.0, unit_trials=2)
    seconds = time.perf_counter() - t0
    assert report.complete and report.units_failed == 0
    got = json.dumps(aggregate_payload(report.result), sort_keys=True)
    assert got == want, "drained aggregate diverged from the serial run"
    return {"seconds": seconds, "units": report.units_done}


def _synthetic_store(root) -> CampaignStore:
    """SYNTH_ROWS records across SYNTH_CELLS cells, written as JSONL."""
    store = CampaignStore(root)
    store.root.mkdir(parents=True, exist_ok=True)
    trials_per_cell = SYNTH_ROWS // SYNTH_CELLS
    (store.root / "manifest.json").write_text(json.dumps({
        "version": 1, "figure": "bench", "trials": trials_per_cell,
        "cells": [{"key": f"c{c}", "series": f"s{c}", "n": 10}
                  for c in range(SYNTH_CELLS)],
    }))
    with store.open_tagged_writer("bench") as fh:
        for i in range(SYNTH_ROWS):
            store.append(fh, {
                "cell": f"c{i % SYNTH_CELLS}",
                "trial": i // SYNTH_CELLS,
                "steps": i % 50,
                "status": "converged" if i % 7 else "capped",
            })
    return store


def bench_compact(root) -> dict:
    """Compact SYNTH_ROWS rows into the pure-python chunk layout."""
    store = _synthetic_store(root)
    t0 = time.perf_counter()
    summary = compact_store(store)
    seconds = time.perf_counter() - t0
    assert summary["rows"] == SYNTH_ROWS, summary["rows"]
    counts = ColumnarStore(root).cells_done(SYNTH_ROWS // SYNTH_CELLS)
    assert counts is not None
    assert sum(counts.values()) == SYNTH_ROWS
    return {"seconds": seconds, "rows": summary["rows"]}


def bench_columnar_scan(root) -> dict:
    """Stream every compacted row back out (the aggregate read path)."""
    store = _synthetic_store(root)
    compact_store(store, prune=True)
    columnar = ColumnarStore(root)
    t0 = time.perf_counter()
    rows = sum(1 for _ in columnar.iter_rows())
    seconds = time.perf_counter() - t0
    assert rows == SYNTH_ROWS, rows
    return {"seconds": seconds, "rows": rows}


CELLS = {
    "queue-1k-units": bench_queue,
    "drain-fig7-2w": bench_drain,
    "compact-20k-rows": bench_compact,
    "columnar-scan-20k": bench_columnar_scan,
}

SMOKE_CELLS = ("queue-1k-units", "compact-20k-rows")


def run_cell(name: str) -> dict:
    """Time one cell in a throwaway directory; verify its pins."""
    fn = CELLS[name]
    tmp = tempfile.mkdtemp(prefix=f"bench-fabric-{name}-")
    try:
        measured = fn(pathlib.Path(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    measured["cell"] = name
    measured["seconds"] = round(measured["seconds"], 4)
    return measured


def test_bench_cells_verify():
    """Every cell's identity pins hold (timings ignored)."""
    for name in sorted(CELLS):
        run_cell(name)


def compare_to_baseline(summary: dict, baseline: dict) -> list:
    """Cells >25% slower than the committed baseline (above the noise
    floor).  Returns ``[(cell, old, new), ...]``."""
    old_cells = {c["cell"]: c for c in baseline.get("cells", [])}
    regressions = []
    for cell in summary.get("cells", []):
        old = old_cells.get(cell["cell"])
        if old is None or old["seconds"] < MIN_GATE_SECONDS:
            continue
        if cell["seconds"] > old["seconds"] * REGRESSION_FACTOR:
            regressions.append((cell["cell"], old["seconds"], cell["seconds"]))
    return regressions


def main(smoke: bool = False, write_baseline: Optional[bool] = None,
         force: bool = False) -> int:
    """Measure the cells, diff against ``BENCH_fabric.json``."""
    names = SMOKE_CELLS if smoke else sorted(CELLS)
    reps = 2 if smoke else 3
    cells = []
    for name in names:
        best = None
        for _ in range(reps):  # best-of: deterministic work, noisy clock
            measured = run_cell(name)
            if best is None or measured["seconds"] < best["seconds"]:
                best = measured
        cells.append(best)
        detail = " ".join(f"{k}={v}" for k, v in sorted(best.items())
                          if k not in ("cell", "seconds"))
        print(f"{best['cell']:>20}: {best['seconds']:.3f}s {detail}")
    summary = {"cells": cells}

    regressions = []
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        regressions = compare_to_baseline(summary, baseline)
        for key, old, new in regressions:
            print(f"REGRESSION {key}: {old}s -> {new}s "
                  f"(allowed {REGRESSION_FACTOR:.2f}x = {old * REGRESSION_FACTOR:.4g}s)")
        if not regressions:
            print(f"no >25% regressions vs {BASELINE_PATH.name}")
    else:
        print("no committed baseline found; skipping regression check")

    if write_baseline is None:
        write_baseline = not smoke
    if write_baseline and regressions and not force:
        print("baseline NOT rewritten: regressions above; fix them or "
              "rerun with --force-write to accept the new numbers")
    elif write_baseline:
        BASELINE_PATH.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
    else:
        print("baseline not rewritten")
    return 1 if regressions else 0


if __name__ == "__main__":
    import sys

    if "--force-write" in sys.argv:
        sys.exit(main(smoke="--smoke" in sys.argv, write_baseline=True,
                      force=True))
    sys.exit(main(smoke="--smoke" in sys.argv,
                  write_baseline=False if "--no-write" in sys.argv else None))
