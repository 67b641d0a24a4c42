"""The benchmark's four workloads.

Each workload turns ``--seed`` and a pass index into a fixed unit of
work, a *pass*, and the runner runs passes 0, 1, 2, ... for the
measured time.  Workloads whose cost depends on the random instances
drawn (``paper-grid``, ``large-n``) draw fresh instances for every
index, so one run averages over more of them; the others repeat one
pass.  A pass is deterministic, so every pass with the same content —
untraced or traced — must reproduce the same outputs exactly; pass 0
is also checked against independent references (a brute-force replay, stability,
in-process reruns) and, on the committed seed, against ``pins.json``.

Every workload uses the public API only.  Each class says which layers
it stresses and why it was chosen.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

#: the seed whose outputs ``pins.json`` records
COMMITTED_SEED = 1


def digest(payload) -> str:
    """Short content fingerprint of a JSON-serialisable payload."""
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


@dataclass
class Pass:
    """What one pass did and produced."""

    trials: int
    steps: int
    #: everything the pass computed that must repeat bit-for-bit
    outputs: dict
    #: checks made while the pass ran (a failed one names itself)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: workload-specific measurements (latencies, meter readings)
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""
    #: the clock passes and set-up are timed on.  In-process serial
    #: work uses this process's CPU clock: on a dedicated core it equals
    #: wall time, and on a shared host it leaves out the time the
    #: hypervisor runs other guests (steal), which otherwise swings the
    #: same pass by 10-30% from one minute to the next
    clock = staticmethod(time.process_time)
    #: whether times are rescaled by the reference calibration (see
    #: ``run.CALIBRATION_S``), which tracks the host's speed only for
    #: work done on this process's clock
    calibrated = True

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        """Build the pass's inputs (timed as set-up)."""

    def warmup(self) -> None:
        """Untimed work that lets lazy initialisation finish."""

    def content(self, index: int) -> int:
        """Which inputs pass ``index`` runs: passes with equal content
        must produce equal outputs."""
        return 0

    def run_pass(self, index: int, tracer=None) -> Pass:
        raise NotImplementedError

    def check(self, first: Pass) -> List[str]:
        """Reference checks of the first pass; returns failure messages."""
        return []

    def layer_metrics(self, passes: List[Pass]) -> Dict[str, float]:
        """Per-layer numbers read from the program's own meters."""
        return {}

    def close(self) -> None:
        """Stop everything the workload started."""


def pass_seed(seed: int, index: int) -> int:
    """The seed of pass ``index``'s random instances."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _span(tracer, layer):
    return tracer.span(layer) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# paper-grid


class PaperGrid(Workload):
    """Scaled fig7 and fig11 grids through ``run_figure``, serial.

    The paper's headline regime (n = 10..40).  Below n = 32 the work is
    the dense oracle APSP plus per-call pricing; the cache and I/O
    layers do almost nothing here.

    Every run must converge.  The paper's 5n and 7n envelopes are what
    it observed, not bounds (it reports an exception itself, and on
    seed 1842037800 a valid fig11 run at n = 20 takes 145 steps), so a
    run past its envelope is no failure; instead the slowest
    run of each figure (steps / n) is replayed and checked move by move
    against :func:`reference_trajectory_errors`.
    """

    name = "paper-grid"
    TRIALS = 2

    def setup(self) -> None:
        from repro.experiments.asg_budget import figure7_spec
        from repro.experiments.gbg import figure11_spec

        self.specs = [
            figure7_spec(budgets=(1, 2, 4), n_values=(10, 20, 30, 40), trials=self.TRIALS),
            figure11_spec(ms=("n", "4n"), alphas=("n/10", "n"), n_values=(10, 20, 30),
                          trials=self.TRIALS),
        ]

    def warmup(self) -> None:
        from repro.experiments.runner import run_figure

        for spec in self.specs:
            run_figure(spec, seed=self.seed, n_jobs=1, trials=1, n_values=(10, 20))

    def content(self, index: int) -> int:
        return index

    def run_pass(self, index: int, tracer=None) -> Pass:
        from repro.experiments.runner import run_figure

        outputs, trials, steps, attempted, failures = {}, 0, 0, 0, []
        slowest = {}
        seed = pass_seed(self.seed, index)
        for spec in self.specs:
            # n_jobs=1: run_figure pools at >=16 trials (and honours
            # REPRO_N_JOBS) otherwise; the load stays in this process
            result = run_figure(spec, seed=seed, n_jobs=1)
            series = {}
            for cfg in spec.configs:
                name = cfg.series_name()
                series[name] = {}
                for n, stats in result.series[name].items():
                    series[name][str(n)] = [stats.mean, stats.max]
                    trials += stats.trials
                    steps += sum(stats.steps)
                    attempted += stats.trials
                    if stats.non_converged:
                        failures.append(f"{spec.figure} {name} n={n}: "
                                        f"{stats.non_converged} runs did not converge")
                    for trial, s in enumerate(stats.steps):
                        if s / n > slowest.get(spec.figure, (0.0,))[0]:
                            slowest[spec.figure] = (s / n, cfg, n, stats.trials, seed, trial, s)
            outputs[spec.figure] = digest(series)
        return Pass(trials, steps, outputs, attempted, failures,
                    extra={"slowest": slowest})

    def check(self, first: Pass) -> List[str]:
        from repro.core.dynamics import run_dynamics
        from repro.experiments.runner import (build_dynamics, build_game, build_initial,
                                              build_policy, trial_jobs)
        from repro.registry import as_scenario

        failures = []
        for figure, (_, cfg, n, trials, seed, trial, steps) in first.extra["slowest"].items():
            _, _, max_steps, (entropy, spawn_key) = trial_jobs(cfg, n, trials, seed)[trial]
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=list(entropy), spawn_key=spawn_key))
            # the trial body of run_trial, with the trajectory recorded
            spec = as_scenario(cfg)
            net = build_initial(spec, n, rng)
            initial = net.owned_edge_list()
            game, dynamics = build_game(spec, n), build_dynamics(spec)
            result = run_dynamics(game, net, build_policy(spec), max_steps=max_steps, rng=rng,
                                  move_tie_break=dynamics.move_tie_break,
                                  detect_cycles=dynamics.detect_cycles, copy_initial=False,
                                  backend=spec.backend)
            label = f"{figure} {cfg.series_name()} n={n} trial {trial}"
            if result.steps != steps:
                failures.append(f"{label}: replay took {result.steps} steps, not {steps}")
            failures += [f"{label}: {e}" for e in
                         reference_trajectory_errors(game, n, initial, result.trajectory)]
        return failures


def reference_trajectory_errors(game, n: int, initial, trajectory) -> List[str]:
    """Check a recorded SUM-ASG or SUM-GBG run without the program's
    distance code: replay it on plain adjacency sets, require every step
    to be a strictly improving best response of its mover over all of
    the mover's greedy moves (swaps of an owned edge; in the GBG also
    buys and deletions), with the costs the program recorded, and
    require that no agent can improve at the end."""
    from repro.core.games import AsymmetricSwapGame, GreedyBuyGame
    from repro.core.moves import Buy, Delete, Swap

    if isinstance(game, GreedyBuyGame):
        alpha, buys = game.alpha, True
    elif isinstance(game, AsymmetricSwapGame):
        alpha, buys = 0.0, False
    else:
        return [f"no reference for {type(game).__name__}"]
    if game.mode.value != "sum":
        return [f"no reference for {game.mode.value} cost"]
    adj = [set() for _ in range(n)]
    owned = [set() for _ in range(n)]
    for u, v in initial:
        owned[u].add(v)
        adj[u].add(v)
        adj[v].add(u)

    def cost(u: int) -> float:
        dist, frontier, seen = 0, [u], {u}
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            dist += depth * len(nxt)
            frontier = nxt
        return dist + alpha * len(owned[u]) if len(seen) == n else float("inf")

    def edit(u: int, remove, add) -> None:
        if remove is not None:
            owned[u].discard(remove)
            adj[u].discard(remove)
            adj[remove].discard(u)
        if add is not None:
            owned[u].add(add)
            adj[u].add(add)
            adj[add].add(u)

    def best(u: int) -> float:
        others = [v for v in range(n) if v != u and v not in adj[u]]
        moves = [(old, new) for old in sorted(owned[u]) for new in others]
        if buys:
            moves += [(None, new) for new in others] + [(old, None) for old in sorted(owned[u])]
        out = float("inf")
        for old, new in moves:
            edit(u, old, new)
            out = min(out, cost(u))
            edit(u, new, old)  # an edit is undone by the reverse edit
        return out

    errors = []
    for rec in trajectory:
        u, move = rec.agent, rec.move
        before, target = cost(u), best(u)
        if isinstance(move, Swap) and move.old in owned[u] and move.new not in adj[u]:
            edit(u, move.old, move.new)
        elif buys and isinstance(move, Buy) and move.target not in adj[u]:
            edit(u, None, move.target)
        elif buys and isinstance(move, Delete) and move.target in owned[u]:
            edit(u, move.target, None)
        else:
            return errors + [f"step {rec.step}: {move} is not a greedy move of agent {u}"]
        after = cost(u)
        if not after < before or after != target:
            errors.append(f"step {rec.step}: agent {u} went {before} -> {after}, "
                          f"a best response costs {target}")
        elif (before, after) != (rec.cost_before, rec.cost_after):
            errors.append(f"step {rec.step}: recorded costs {rec.cost_before} -> "
                          f"{rec.cost_after}, reference {before} -> {after}")
    unhappy = [u for u in range(n) if best(u) < cost(u)]
    if unhappy:
        errors.append(f"agents {unhappy} can still improve at the end")
    return errors


# ---------------------------------------------------------------------------
# large-n


class LargeN(Workload):
    """Max-cost trajectories past the bitkernel threshold.

    ASG with k = 3 and GBG with alpha = n/4, m = 2n, at n = 120 and 250
    on the incremental backend: APSP repair and the bit-packed kernels
    dominate, the oracle is never called, and the best-response cache
    only writes (it never hits).
    """

    name = "large-n"
    CELLS = (("asg", 120), ("asg", 250), ("gbg", 120), ("gbg", 250))
    #: passes with distinct instances; later passes cycle through them
    DISTINCT = 8

    def setup(self) -> None:
        from repro.core.games import AsymmetricSwapGame, GreedyBuyGame
        from repro.graphs.generators import random_budget_network, random_m_edge_network
        from repro.statespace.encode import state_key

        # bound now, so fingerprinting stays out of a traced pass's spans
        self.state_key = state_key
        self.cells = []
        for index in range(self.DISTINCT):
            cells = []
            for i, (kind, n) in enumerate(self.CELLS):
                rng = np.random.default_rng([pass_seed(self.seed, index), i])
                if kind == "asg":
                    game = AsymmetricSwapGame("sum")
                    net = random_budget_network(n, 3, seed=rng)
                else:
                    game = GreedyBuyGame("sum", alpha=n / 4.0)
                    net = random_m_edge_network(n, 2 * n, seed=rng)
                cells.append((f"{kind}-n{n}", game, net, int(rng.integers(2**31))))
            self.cells.append(cells)

    def _trajectory(self, game, net, run_seed):
        from repro.core.dynamics import run_dynamics
        from repro.core.policies import MaxCostPolicy

        return run_dynamics(game, net, MaxCostPolicy(), seed=run_seed,
                            max_steps=10 * net.n, backend="incremental")

    def warmup(self) -> None:
        _, game, net, run_seed = self.cells[0][0]
        self._trajectory(game, net, run_seed)

    def content(self, index: int) -> int:
        return index % self.DISTINCT

    def run_pass(self, index: int, tracer=None) -> Pass:
        state_key = self.state_key
        cells = self.cells[self.content(index)]
        outputs, steps, failures, finals = {}, 0, [], []
        for label, game, net, run_seed in cells:
            result = self._trajectory(game, net, run_seed)
            steps += result.steps
            outputs[label] = [result.status, result.steps, state_key(result.final).hex()]
            if result.status != "converged":
                failures.append(f"{label}: {result.status} after {result.steps} steps")
            finals.append((label, game, result.final))
        if index == 0:
            self._finals = finals
        return Pass(len(cells), steps, outputs, len(cells), failures)

    def check(self, first: Pass) -> List[str]:
        from repro.graphs.incremental import IncrementalBackend

        return [f"{label}: final network is not stable"
                for label, game, final in self._finals
                if not game.is_stable(final, backend=IncrementalBackend())]


# ---------------------------------------------------------------------------
# cycles


#: exhaustive census cells and their (states, equilibria) counts — the
#: numbers BENCH_statespace.json pins for the same cells
CENSUS = {
    "asg-sum-n4": (624, 552),
    "sg-sum-n5": (728, 368),
    "gbg-sum-n4-a1": (624, 528),
}


class Cycles(Workload):
    """The paper's best-response cycles replayed, plus a state census.

    States are revisited exactly: lap after lap the best-response cache
    reads (the opposite use of the layer ``large-n`` makes), and the
    census is dominated by state hashing and expansion.  The fig5/fig6
    instance search is honest set-up.
    """

    name = "cycles"
    #: fig15 is left out: its G3 is only isomorphic to G0, so its
    #: schedule cannot be replayed verbatim
    FIGURES = ("fig2", "fig3", "fig5", "fig6", "fig9", "fig10", "fig16")
    LAPS = 250

    def setup(self) -> None:
        from repro.core.games import AsymmetricSwapGame, GreedyBuyGame, SwapGame
        from repro.instances.figures import ALL_INSTANCES
        from repro.statespace.encode import state_key
        from repro.statespace.expand import ownership_matters

        self.state_key = state_key
        self.ownership_matters = ownership_matters
        rng = np.random.default_rng(self.seed)
        self.replays = []
        self.build_s = 0.0
        for fig in rng.permutation(self.FIGURES).tolist():
            t0 = self.clock()
            inst = ALL_INSTANCES[fig]()
            self.build_s += self.clock() - t0
            # the seed picks which state of the cycle the replay starts in
            moves = inst.moves()
            shift = int(rng.integers(len(moves)))
            start = inst.network.copy()
            for _, move in moves[:shift]:
                move.apply(start)
            self.replays.append((fig, inst.game, start, moves[shift:] + moves[:shift]))
        games = {
            "asg-sum-n4": (lambda: AsymmetricSwapGame("sum"), 4),
            "sg-sum-n5": (lambda: SwapGame("sum"), 5),
            "gbg-sum-n4-a1": (lambda: GreedyBuyGame("sum", alpha=1.0), 4),
        }
        self.census = [(cell, *games[cell]) for cell in rng.permutation(sorted(CENSUS)).tolist()]

    def _replay(self, game, start, schedule, laps):
        from repro.core.dynamics import run_dynamics
        from repro.core.policies import AdversarialPolicy
        from repro.graphs.incremental import IncrementalBackend

        policy = AdversarialPolicy(schedule, loop=laps, require_best_response=True)
        return run_dynamics(game, start, policy, max_steps=laps * len(schedule) + 1,
                            seed=0, backend=IncrementalBackend())

    def warmup(self) -> None:
        from repro.statespace.explore import explore

        for _, game, start, schedule in self.replays:
            self._replay(game, start, schedule, 2)
        explore(self.census[0][1](), n=self.census[0][2])

    def run_pass(self, index: int, tracer=None) -> Pass:
        from repro.statespace.explore import explore

        state_key = self.state_key
        outputs, steps, failures = {}, 0, []
        for fig, game, start, schedule in self.replays:
            try:
                result = self._replay(game, start, schedule, self.LAPS)
            except RuntimeError as exc:  # a scheduled move was not a best response
                failures.append(f"{fig}: {exc}")
                continue
            cache = result.backend_stats["cache"]
            steps += result.steps
            # the swap games' state is the topology alone
            owned = self.ownership_matters(game)
            final = state_key(result.final, owned).hex()
            outputs[fig] = [result.steps, cache["hits"], final]
            if result.steps != self.LAPS * len(schedule) or final != state_key(start, owned).hex():
                failures.append(f"{fig}: {result.steps} steps did not close the cycle")
        census_states, t0 = 0, self.clock()
        for cell, make_game, n in self.census:
            report = explore(make_game(), n=n)
            census_states += report.n_states
            outputs[cell] = [report.n_states, report.n_equilibria]
            if tuple(outputs[cell]) != CENSUS[cell]:
                failures.append(f"{cell}: census {outputs[cell]} != {list(CENSUS[cell])}")
        census_s = self.clock() - t0
        return Pass(len(self.replays), steps, outputs,
                    len(self.replays) + len(self.census), failures,
                    extra={"census_states_per_s": census_states / census_s})

    def layer_metrics(self, passes: List[Pass]) -> Dict[str, float]:
        return {
            "instances.figures.build_s": self.build_s,
            "statespace.census.states_per_s": _median(p.extra["census_states_per_s"] for p in passes),
        }


# ---------------------------------------------------------------------------
# fleet


#: the service job of the closed loop: one fig7 cell, as a scenario
JOB_SPEC = {"game": {"name": "asg", "params": {"mode": "sum"}},
            "policy": {"name": "maxcost", "params": {}},
            "topology": {"name": "budget", "params": {"budget": 2}}}


class Fleet(Workload):
    """A fig7 slice drained by 2 workers, then a closed loop of
    service trial jobs from one client.

    The only workload where campaign store I/O, the fabric queue and
    leases, and the service's HTTP, websocket and job table do real
    work.  The client waits for each job's end event before it submits
    the next.
    """

    name = "fleet"
    #: the work runs in worker processes while this one waits on them;
    #: much of a job's latency is fixed poll intervals, which do not
    #: scale with the host's speed
    clock = staticmethod(time.perf_counter)
    calibrated = False
    SLICE_TRIALS = 8
    #: trials per work unit: 36 units keep both workers busy to the end
    UNIT_TRIALS = 4
    WORKERS = 2
    JOBS = 8
    JOB_N = 20
    JOB_TRIALS = 4

    def setup(self) -> None:
        from repro.experiments.asg_budget import figure7_spec
        from repro.service import ServiceConfig, ServiceThread

        self.spec = figure7_spec(budgets=(1, 2, 4), n_values=(10, 20, 30),
                                 trials=self.SLICE_TRIALS)
        self.job = {"kind": "trial", "spec": JOB_SPEC, "n": self.JOB_N,
                    "trials": self.JOB_TRIALS, "seed": self.seed}
        state_dir = Path(tempfile.mkdtemp(prefix="service-", dir=self.work_dir))
        self.service = ServiceThread(ServiceConfig(state_dir=state_dir, workers=1)).start()
        self.client = self.service.client()

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.stop()
            self.service = None

    def warmup(self) -> None:
        self._run_job()

    def _run_job(self):
        t0 = time.perf_counter()
        job = self.client.submit(self.job)
        first, records, events = None, [], []
        for kind, item in self.client.stream(job["id"]):
            if kind == "record":
                if first is None:
                    first = time.perf_counter() - t0
                records.append(item)
            else:
                events.append(item)
        return time.perf_counter() - t0, first, records, events

    def run_pass(self, index: int, tracer=None) -> Pass:
        from repro.experiments.campaign import CampaignStore, aggregate_payload
        from repro.experiments.fabric import drain_campaign
        from repro.obs import metrics as obs_metrics

        failures: List[str] = []
        request_before = _histogram(obs_metrics.DEFAULT.snapshot(), "repro_request_seconds")
        root = Path(tempfile.mkdtemp(prefix="drain-", dir=self.work_dir))
        t0 = self.clock()
        with _span(tracer, "experiments.fabric.drain"):
            report = drain_campaign(self.spec, root, seed=self.seed, workers=self.WORKERS,
                                    unit_trials=self.UNIT_TRIALS)
        drain_s = self.clock() - t0
        store = CampaignStore(root)
        drain_bytes = sum(p.stat().st_size for p in store.record_files())
        drain_steps = sum(int(r["steps"]) for r in store.iter_all_records())
        shutil.rmtree(root)
        drain_trials = len(self.spec.configs) * len(self.spec.n_values) * self.SLICE_TRIALS
        if not report.complete or report.units_failed or report.reassigned or report.respawned:
            failures.append(f"drain: complete={report.complete} failed={report.units_failed} "
                            f"reassigned={report.reassigned} respawned={report.respawned}")
        outputs = {"drain": digest(aggregate_payload(report.result)) if report.complete else None}

        latencies, firsts, job_steps = [], [], 0
        streamed = dropped = requeues = 0
        for i in range(self.JOBS):
            with _span(tracer, "service.client"):
                latency, first, records, events = self._run_job()
            end = events[-1] if events else {}
            latencies.append(latency)
            firsts.append(first if first is not None else latency)
            streamed += len(records)
            dropped += int(end.get("dropped", 0))
            requeues += sum(e.get("event") == "resumed" for e in events)
            job_steps += sum(json.loads(line)["steps"] for line in records)
            outputs.setdefault("job", digest(sorted(records)))
            if end.get("state") != "done" or end.get("dropped") or \
                    digest(sorted(records)) != outputs["job"]:
                failures.append(f"job {i}: ended {end} with {len(records)} records")
        request_after = _histogram(obs_metrics.DEFAULT.snapshot(), "repro_request_seconds")
        claim = _histogram(report.fleet_metrics or {}, "repro_fabric_claim_seconds")
        return Pass(
            drain_trials + self.JOBS * self.JOB_TRIALS, drain_steps + job_steps, outputs,
            report.units_done + self.JOBS + streamed, failures,
            extra={
                "drain_trials_per_s": drain_trials / drain_s,
                "latencies": latencies, "firsts": firsts,
                "claim_s": claim[0], "reassigned": report.reassigned,
                "respawned": report.respawned, "units_failed": report.units_failed,
                "campaign_bytes": drain_bytes,
                "request_s": request_after[0] - request_before[0],
                "requests": request_after[1] - request_before[1],
                "stream_records": streamed, "stream_dropped": dropped,
                "requeues": requeues,
            })

    def check(self, first: Pass) -> List[str]:
        """The drained aggregate and the streamed records must equal an
        in-process serial ``run_campaign`` of the same grid."""
        from repro.experiments.campaign import CampaignStore, aggregate_payload, run_campaign
        from repro.experiments.config import FigureSpec
        from repro.registry import ScenarioSpec

        failures = []
        direct = run_campaign(self.spec, self.work_dir / "direct-drain",
                              seed=self.seed, n_jobs=1)
        if digest(aggregate_payload(direct.result)) != first.outputs["drain"]:
            failures.append("drained aggregate differs from an in-process run_campaign")
        grid = FigureSpec(figure="direct-job", title="direct job",
                          configs=(ScenarioSpec.from_json(JOB_SPEC),),
                          n_values=(self.JOB_N,), trials=self.JOB_TRIALS)
        run_campaign(grid, self.work_dir / "direct-job", seed=self.seed, n_jobs=1)
        lines = []
        for path in CampaignStore(self.work_dir / "direct-job").record_files():
            lines += [line for line in path.read_text().splitlines() if line]
        if digest(sorted(lines)) != first.outputs["job"]:
            failures.append("streamed job records differ from an in-process run_campaign")
        return failures

    def layer_metrics(self, passes: List[Pass]) -> Dict[str, float]:
        latencies = [x for p in passes for x in p.extra["latencies"]]
        firsts = [x for p in passes for x in p.extra["firsts"]]
        tail_pct, tail = tail_percentile(latencies)
        per_pass = {key: sum(p.extra[key] for p in passes) / len(passes)
                    for key in ("claim_s", "reassigned", "respawned", "units_failed",
                                "campaign_bytes", "request_s", "requests",
                                "stream_records", "stream_dropped", "requeues")}
        return {
            "experiments.fabric.drain_trials_per_s": _median(p.extra["drain_trials_per_s"] for p in passes),
            "experiments.fabric.claim_s": per_pass["claim_s"],
            "experiments.fabric.reassigned": per_pass["reassigned"],
            "experiments.fabric.respawned": per_pass["respawned"],
            "experiments.fabric.units_failed": per_pass["units_failed"],
            "experiments.campaign.bytes": per_pass["campaign_bytes"],
            "service.http.request_s": per_pass["request_s"],
            "service.http.requests": per_pass["requests"],
            "service.stream.records": per_pass["stream_records"],
            "service.stream.dropped": per_pass["stream_dropped"],
            "service.jobs.requeues": per_pass["requeues"],
            "service.jobs.latency_p50_s": float(np.percentile(latencies, 50)),
            "service.jobs.latency_tail_s": tail,
            "service.jobs.latency_tail_pct": tail_pct,
            "service.jobs.latency_samples": len(latencies),
            "service.stream.first_record_p50_s": float(np.percentile(firsts, 50)),
        }


def _histogram(snapshot: dict, name: str):
    """``(sum, count)`` of an unlabelled histogram in a meter snapshot."""
    values = snapshot.get(name, {}).get("values", {})
    total = sum(v["sum"] for v in values.values())
    count = sum(v["count"] for v in values.values())
    return total, count


def _median(values) -> float:
    return float(np.median(list(values)))


def tail_percentile(values):
    """The highest of the usual percentiles with at least ten samples
    beyond it, as ``(percentile, value)``; the maximum when there are
    too few samples for any."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1 - pct / 100) >= 10:
            return pct, float(np.percentile(values, pct))
    return 100.0, float(max(values))


WORKLOADS = {cls.name: cls for cls in (PaperGrid, LargeN, Cycles, Fleet)}
