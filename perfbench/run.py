"""End-to-end benchmark of the repro package, with a traced per-layer split.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all.
``--trace 1`` spends half the time on untraced passes and half on
passes with every layer wrapped (see ``layers.py``), and reports each
layer's self time and call counts per pass, the counters the program
exposes, and the tracing overhead.  Either way every pass is checked:
it must reproduce the first pass's outputs exactly, the first pass must
pass the workload's reference checks, and on the committed seed its
outputs must equal ``pins.json``.

Times are taken on the workload's clock (this process's CPU clock for
the in-process workloads, wall time for ``fleet``) and rescaled by a
reference calibration timed around every pass; see
:data:`CALIBRATION_S`.  The raw times are in the ``info`` line.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a JSON ``info`` object with the run's
environment and the workload-specific figures behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: one BLAS thread per process: the fleet's two drain workers share the
#: machine's CPUs with the client, and in-process runs stay serial
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
#: program switches that would change what is measured
CLEARED_ENV = ("REPRO_N_JOBS", "REPRO_TRACE", "REPRO_TRACE_SAMPLE", "REPRO_OBS")

#: how often set-up is repeated, each time in a fresh interpreter (the
#: program memoises some of its set-up per process); set-up time is the
#: median
SETUP_REPS = 3

#: every reported time is rescaled to a host on which one
#: :func:`calibration_s` takes this long.  On a shared host the same pass
#: swings by up to 1.8x from one minute to the next (other guests'
#: load); the calibration, timed on the same clock right before and
#: after each pass, follows much of that swing, so rescaled times move
#: less (not at all only for work that loads the host like it does)
CALIBRATION_S = 0.1

END_TO_END = {"setup_s": "s", "trials_per_s": "1/s", "steps_per_s": "1/s",
              "peak_rss_mb": "MB"}

#: meter-derived metrics only some workloads produce; the rest report 0
PER_LAYER_DEFAULTS = dict.fromkeys((
    "instances.figures.build_s", "statespace.census.states_per_s",
    "experiments.fabric.drain_trials_per_s", "experiments.fabric.claim_s",
    "experiments.fabric.reassigned", "experiments.fabric.respawned",
    "experiments.fabric.units_failed", "experiments.campaign.bytes",
    "service.http.request_s", "service.http.requests", "service.stream.records",
    "service.stream.dropped", "service.jobs.requeues", "service.jobs.latency_p50_s",
    "service.jobs.latency_tail_s", "service.jobs.latency_tail_pct",
    "service.jobs.latency_samples", "service.stream.first_record_p50_s"), 0.0)


def bootstrap() -> None:
    """Fix the environment and make the checkout's ``src`` importable.

    Must run before numpy is imported.  Exits non-zero when the
    checkout holds no program to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {SRC}")
    os.environ.update(BLAS_ENV)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(ROOT)]


def probe_setup(name: str, seed: int, work_dir: str) -> None:
    """Print the seconds a cold interpreter spends importing the program
    and building ``name``'s inputs (run by :func:`setup_times`)."""
    starts = {time.process_time: time.process_time(), time.perf_counter: time.perf_counter()}
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[name]
    t0 = starts[cls.clock]
    workload = cls(seed, Path(work_dir))
    try:
        workload.setup()
        elapsed = cls.clock() - t0
    finally:
        workload.close()
    if cls.calibrated:
        calibration_s(cls.clock)  # warm
        elapsed *= CALIBRATION_S / statistics.median(calibration_s(cls.clock) for _ in range(3))
    print(elapsed)


def setup_times(name: str, seed: int, work_dir: Path) -> list:
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from perfbench.run import bootstrap, probe_setup; bootstrap(); "
            "probe_setup(sys.argv[2], int(sys.argv[3]), sys.argv[4])")
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, "-c", code, str(ROOT), name, str(seed), str(work_dir)],
            check=True, capture_output=True, text=True, cwd=ROOT, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def calibration_s(clock) -> float:
    """Seconds ``clock`` spends on a fixed reference job that shares no
    code with the program: an interpreter loop, boolean matrix products,
    small array updates and a stream through a buffer larger than a
    core's private cache — the kinds of work the workloads do."""
    import numpy as np

    rng = np.random.default_rng(0)
    adjacency = rng.random((96, 96)) < 0.04
    dist = rng.random((250, 250))
    buffer = np.zeros(1 << 20)  # 8 MB
    t0 = clock()
    acc = 0
    for i in range(400_000):
        acc += i * i
    reach = adjacency.copy()
    for _ in range(200):
        reach = (reach @ adjacency) | reach
    out = dist.copy()
    for _ in range(160):
        np.minimum(out, dist[::-1] + 1.0, out=out)
    for _ in range(40):
        buffer += 1.0
    return clock() - t0


def run_passes(workload, budget_s: float, tracer=None):
    """Repeat passes while the next one, as long as the last, still
    fits in ``budget_s`` of wall time; always at least one.  Traced
    passes all replay pass 0, so their counts repeat exactly and their
    outputs can be held against the untraced pass 0.

    Each pass is bracketed by two calibrations.  Returns the passes,
    their times on the workload's clock, and those times rescaled to a
    host that runs the calibration in :data:`CALIBRATION_S`."""
    def host_speed() -> float:
        # the median of three shrugs off a single burst of contention
        if not workload.calibrated:
            return CALIBRATION_S
        return statistics.median(calibration_s(workload.clock) for _ in range(3))

    passes, raw, scaled = [], [], []
    start = time.perf_counter()
    before = host_speed()
    while True:
        t0, c0 = time.perf_counter(), workload.clock()
        passes.append(workload.run_pass(0 if tracer else len(passes), tracer))
        raw.append(workload.clock() - c0)
        after = host_speed()
        scaled.append(raw[-1] * CALIBRATION_S / ((before + after) / 2))
        before = after
        if 2 * time.perf_counter() - t0 - start > budget_s:
            return passes, raw, scaled


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (TypeError, KeyError):  # numpy without the dict form
        blas = None
    return {"nproc": os.cpu_count(), "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
            "blas": blas, "python": platform.python_version(), "numpy": np.__version__}


def cache_events(snapshot: dict) -> dict:
    values = snapshot.get("repro_deviation_cache_events_total", {}).get("values", {})
    out = {"hit": 0, "miss": 0}
    for labels, count in values.items():
        for event in out:
            if json.loads(labels).get("event") == event:
                out[event] += count
    return out


def layer_split(workload, tracer, traced, traced_raw, traced_times, untraced, untraced_times,
                cache_before, cache_after) -> dict:
    """Every per-layer metric of one traced run."""
    n = len(traced)
    metrics = tracer.split(sum(traced_raw), n, scale=sum(traced_times) / sum(traced_raw))
    backend = {"full_rebuilds": 0, "incremental_updates": 0, "fallback_rebuilds": 0}
    for stats in tracer.backend_stats:
        for part in ("full_graph", "deviation"):
            for key in backend:
                backend[key] += (stats or {}).get(part, {}).get(key, 0)
    for key, value in backend.items():
        metrics[f"graphs.incremental.{key}"] = value / n
    hits = (cache_after["hit"] - cache_before["hit"]) / n
    misses = (cache_after["miss"] - cache_before["miss"]) / n
    metrics["graphs.incremental.br_cache.hits"] = hits
    metrics["graphs.incremental.br_cache.misses"] = misses
    metrics["graphs.incremental.br_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    steps = traced[0].steps
    metrics["core.policies.priced_per_step"] = (
        metrics["core.games.pricing.calls"] / steps if steps else 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(traced_times) / untraced_times[0]
    metrics.update(PER_LAYER_DEFAULTS)
    metrics.update(workload.layer_metrics(untraced))
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import workloads

    cls = workloads.WORKLOADS[name]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    workload = None
    try:
        cold_setups = setup_times(name, seed, work_dir)
        workload = cls(seed, work_dir)
        workload.setup()
        t0 = time.perf_counter()
        workload.warmup()
        if workload.calibrated:
            calibration_s(workload.clock)
        warmup_s = time.perf_counter() - t0

        failures = []
        if trace:
            from perfbench.layers import Tracer
            from repro.obs import metrics as obs_metrics

            untraced, untraced_raw, untraced_times = run_passes(workload, seconds / 2)
            tracer = Tracer(workload.clock)
            tracer.install()
            try:
                cache_before = cache_events(obs_metrics.DEFAULT.snapshot())
                traced, traced_raw, traced_times = run_passes(workload, seconds / 2, tracer)
                cache_after = cache_events(obs_metrics.DEFAULT.snapshot())
            finally:
                tracer.uninstall()
            passes = untraced + traced
        else:
            untraced, untraced_raw, untraced_times = run_passes(workload, seconds)
            passes = untraced
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        first = passes[0]
        attempted = sum(p.attempted for p in passes)
        seen = {}
        for i, p in enumerate(passes):
            index = i if i < len(untraced) else 0
            tag = f"pass {i}" if i < len(untraced) else f"traced pass {i - len(untraced)}"
            failures += [f"{tag}: {f}" for f in p.failures]
            same = seen.setdefault(workload.content(index), (tag, p.outputs))
            if same[0] != tag:
                attempted += 1
                if p.outputs != same[1]:
                    failures.append(f"{tag} outputs differ from {same[0]}'s")
        check = workload.check(first)
        attempted += 1
        failures += [f"check: {f}" for f in check]
        if seed == workloads.COMMITTED_SEED:
            pins = json.loads((Path(__file__).parent / "pins.json").read_text())
            attempted += 1
            if pins.get(name) != first.outputs:
                failures.append(f"outputs differ from pins.json: {json.dumps(first.outputs)}")

        # work completed per second over every untraced pass: passes that
        # draw fresh instances then all count, not just a middle one
        trials_per_s = sum(p.trials for p in untraced) / sum(untraced_times)
        steps_per_s = sum(p.steps for p in untraced) / sum(untraced_times)
        if trace:
            metrics = layer_split(workload, tracer, traced, traced_raw, traced_times, untraced,
                                  untraced_times, cache_before, cache_after)
            metrics["fail_ratio"] = len(failures) / attempted
            units = {}
        else:
            metrics = {"setup_s": statistics.median(cold_setups),
                       "trials_per_s": trials_per_s, "steps_per_s": steps_per_s,
                       "peak_rss_mb": peak_rss_mb}
            units = END_TO_END
        info = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "environment": environment(), "setup_times_s": cold_setups,
            "warmup_s": warmup_s,
            "untraced_pass_s": untraced_times, "untraced_pass_raw_s": untraced_raw,
            "traced_pass_s": traced_times if trace else [],
            "traced_pass_raw_s": traced_raw if trace else [],
            "trials_per_pass": first.trials, "steps_per_pass": first.steps,
            "trials_per_s": trials_per_s, "steps_per_s": steps_per_s,
            "raw_trials_per_s": sum(p.trials for p in untraced) / sum(untraced_raw),
            "peak_rss_mb": peak_rss_mb, "outputs": first.outputs,
            "workload_metrics": workload.layer_metrics(untraced),
            "failures": failures,
        }
        return {"info": info, "units": units, "metrics": metrics,
                "attempted": attempted, "failed": len(failures)}
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv=None) -> int:
    bootstrap()
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in result["info"]["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"info": result["info"]}, default=str))
    units = result["units"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": float(value), "unit": units.get(key) or layer_unit(key)}
                    for key, value in result["metrics"].items()},
    }))
    return 0


def layer_unit(metric: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_pct", "%"), (".bytes", "B"),
                         ("ratio", "ratio"), ("share", "ratio"), ("_per_step", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
