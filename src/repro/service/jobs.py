"""The durable job table: validation, persistence, scheduling, recovery.

Every job owns a directory under ``<state_dir>/jobs/<id>/``::

    job.json     atomically-replaced control record (state machine)
    store/       per-job CampaignStore / ExplorationStore (kill-safe),
                 with the job's fabric queue under store/fabric/
    result.json  final payload, written once when the drain completes
    error.json   named failure

A running job is one drain of the fabric
:class:`~repro.experiments.fabric.Coordinator` — the scheduler under
``repro drain`` — over a ``CampaignSource`` (trial, campaign) or an
``ExplorationSource`` (explore).  The manager keeps only the
HTTP-facing state: the job table, admission, progress and cancel.  A
SIGKILLed server loses nothing: :meth:`JobManager.recover` demotes
orphaned ``running`` jobs to ``queued`` and releases their leases, and
the next drain skips whatever the store already holds.  Cancel and
shutdown both call :meth:`~repro.experiments.fabric.Coordinator.stop`.
"""

from __future__ import annotations

import asyncio
import json
import secrets
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from ..durable import fsck_json, write_atomic
from ..experiments.campaign import CampaignStore, aggregate_payload
from ..experiments.fabric import (
    CampaignSource,
    Coordinator,
    ExplorationSource,
    WorkQueue,
)
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..registry.scenario import ScenarioSpec
from ..statespace.expand import AGENT_FILTERS, MOVESETS
from ..statespace.store import ExplorationStore, open_store, write_report
from ..testing.faults import resolve_fs
from .quotas import QuotaPolicy

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "Job",
    "JobManager",
    "JobRejected",
    "JobRequest",
    "TERMINAL_STATES",
    "parse_job_request",
]

JOB_KINDS = ("trial", "campaign", "explore")
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

_JOB_EVENTS = obs_metrics.counter(
    "repro_jobs_events_total",
    "Job lifecycle events seen by the manager",
    ("event",))
_JOB_SUBMITTED = _JOB_EVENTS.labels(event="submitted")
_JOB_STARTED = _JOB_EVENTS.labels(event="started")
_JOB_DONE = _JOB_EVENTS.labels(event="done")
_JOB_FAILED = _JOB_EVENTS.labels(event="failed")
_JOB_CANCELLED = _JOB_EVENTS.labels(event="cancelled")
_JOB_REQUEUED = _JOB_EVENTS.labels(event="requeued")
_JOBS_RUNNING = obs_metrics.gauge(
    "repro_jobs_running",
    "Jobs currently draining")

DEFAULT_MAX_STATES = 200_000


class JobRejected(ValueError):
    """A submission the service refuses, with its HTTP rendering."""

    def __init__(self, status: int, code: str, detail: str,
                 retry_after: Optional[int] = None) -> None:
        super().__init__(f"{code}: {detail}")
        self.status = status
        self.code = code
        self.detail = detail
        self.retry_after = retry_after


def _bad(code: str, detail: str, status: int = 400) -> JobRejected:
    return JobRejected(status, code, detail)


def _require_int(payload: Mapping, key: str, default: Optional[int],
                 minimum: int = 0) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad("bad-int", f"{key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise _bad("bad-int", f"{key!r} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class JobRequest:
    """A validated submission, canonical enough to persist and re-run."""

    kind: str
    specs: Tuple[ScenarioSpec, ...]
    n_values: Tuple[int, ...]
    trials: int = 1
    seed: int = 0
    moves: str = "best"
    agent_filter: str = "all"
    max_states: int = DEFAULT_MAX_STATES

    def payload(self) -> dict:
        """The JSON form stored in ``job.json`` (round-trips via
        :func:`parse_job_request`)."""
        out = {
            "kind": self.kind,
            "specs": [spec.to_json() for spec in self.specs],
            "n_values": list(self.n_values),
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.kind == "explore":
            out.update(moves=self.moves, agent_filter=self.agent_filter,
                       max_states=self.max_states)
        return out

    @property
    def total_units(self) -> int:
        """Planned work units (trials for campaigns, 0 = open for explore)."""
        if self.kind == "explore":
            return 0
        return len(self.specs) * len(self.n_values) * self.trials


def parse_job_request(payload: object,
                      quota: Optional[QuotaPolicy] = None) -> JobRequest:
    """Validate a ``POST /jobs`` body into a :class:`JobRequest`.

    Raises :class:`JobRejected` with a named code: ``bad-payload`` /
    ``bad-kind`` / ``bad-spec`` / ``bad-int`` / ``bad-moves`` /
    ``bad-agent-filter`` (400 or 422), or ``limit-exceeded`` (422) when
    a ``quota`` is given and the spec busts a per-job cap.
    """
    if not isinstance(payload, Mapping):
        raise _bad("bad-payload", "request body must be a JSON object")
    kind = payload.get("kind", "trial")
    if kind not in JOB_KINDS:
        raise _bad("bad-kind", f"kind must be one of {JOB_KINDS}, got {kind!r}")

    raw_specs = payload.get("specs")
    if raw_specs is None:
        single = payload.get("spec")
        if single is None:
            raise _bad("bad-payload", "pass 'spec' (object) or 'specs' (list)")
        raw_specs = [single]
    if not isinstance(raw_specs, list) or not raw_specs:
        raise _bad("bad-payload", "'specs' must be a non-empty list")
    if kind != "campaign" and len(raw_specs) != 1:
        raise _bad("bad-payload", f"{kind!r} jobs take exactly one spec")
    specs = []
    for entry in raw_specs:
        if not isinstance(entry, Mapping):
            raise _bad("bad-spec", f"spec must be an object, got {entry!r}", 422)
        try:
            specs.append(ScenarioSpec.from_json(entry))
        except ValueError as exc:
            raise _bad("bad-spec", str(exc), 422) from exc

    raw_ns = payload.get("n_values")
    if raw_ns is None:
        raw_ns = [_require_int(payload, "n", None, minimum=2)]
    if not isinstance(raw_ns, list) or not raw_ns:
        raise _bad("bad-int", "'n_values' must be a non-empty list")
    n_values = tuple(
        _require_int({"n": v}, "n", None, minimum=2) for v in raw_ns)
    if kind in ("trial", "explore") and len(n_values) != 1:
        raise _bad("bad-int", f"{kind!r} jobs take exactly one n")

    trials = _require_int(payload, "trials", 1, minimum=1)
    seed = _require_int(payload, "seed", 0)

    moves = payload.get("moves", "best")
    if moves not in MOVESETS:
        raise _bad("bad-moves", f"moves must be one of {MOVESETS}, got {moves!r}")
    agent_filter = payload.get("agent_filter", "all")
    if agent_filter not in AGENT_FILTERS:
        raise _bad("bad-agent-filter",
                   f"agent_filter must be one of {AGENT_FILTERS}, "
                   f"got {agent_filter!r}")
    max_states = _require_int(payload, "max_states", DEFAULT_MAX_STATES,
                              minimum=1)

    request = JobRequest(kind=kind, specs=tuple(specs), n_values=n_values,
                         trials=trials, seed=seed, moves=moves,
                         agent_filter=agent_filter, max_states=max_states)
    if quota is not None:
        rejection = quota.check_spec_limits(
            n_values=n_values, trials=trials, max_states=max_states)
        if rejection is not None:
            status, code, detail, retry = rejection
            raise JobRejected(status, code, detail, retry)
    return request


# --------------------------------------------------------------------------
# The job record
# --------------------------------------------------------------------------


@dataclass
class Job:
    """One job's control record — the in-memory mirror of ``job.json``."""

    id: str
    kind: str
    state: str
    client: str
    seq: int
    request: dict
    error: Optional[dict] = None
    #: times this job went running -> queued (crash or drain); streams
    #: watch it to tell a resumed job apart from a rescheduling blip
    requeues: int = 0

    def view(self, progress: Optional[dict] = None) -> dict:
        """The JSON the API returns for this job."""
        out = {"id": self.id, "kind": self.kind, "state": self.state,
               "client": self.client, "request": self.request,
               "error": self.error, "requeues": self.requeues}
        if progress is not None:
            out["progress"] = progress
        return out

    def to_json(self) -> dict:
        return {"id": self.id, "kind": self.kind, "state": self.state,
                "client": self.client, "seq": self.seq,
                "request": self.request, "error": self.error,
                "requeues": self.requeues}

    @classmethod
    def from_json(cls, payload: dict) -> "Job":
        return cls(id=payload["id"], kind=payload["kind"],
                   state=payload["state"], client=payload.get("client", ""),
                   seq=int(payload.get("seq", 0)),
                   request=payload.get("request", {}),
                   error=payload.get("error"),
                   requeues=int(payload.get("requeues", 0)))


def _write_json(path: Path, payload: dict, fs) -> None:
    write_atomic(path, json.dumps(payload, sort_keys=True) + "\n", fs)


def _grid_for(request: JobRequest, job_id: str):
    from ..experiments.config import FigureSpec

    return FigureSpec(
        figure=f"job-{job_id}", title=f"service job {job_id}",
        configs=tuple(request.specs), n_values=request.n_values,
        trials=request.trials)


def _source_for(request: JobRequest, job_id: str, fs):
    """The fabric source one job drains over its own store."""
    if request.kind != "explore":
        return CampaignSource(_grid_for(request, job_id), seed=request.seed,
                              fs=fs)
    from ..registry import REGISTRY

    spec = request.specs[0]
    n = request.n_values[0]
    game = REGISTRY.build("game", spec.game, spec.params_for("game"), n=n)
    # one unit may expand the whole budget (a draining worker ends it at
    # the next expansion); the next round's plan fails it if truncated
    return ExplorationSource(
        game, n=n, moves=request.moves, agent_filter=request.agent_filter,
        max_states=request.max_states, shards=1,
        unit_budget=request.max_states, game_name=spec.game, fs=fs)


# --------------------------------------------------------------------------
# The manager
# --------------------------------------------------------------------------


@dataclass
class JobManager:
    """Owns the job table and schedules jobs onto fabric drains.

    Runs inside the service's event loop, which makes every job-state
    change and file write; each running job is a ``Coordinator`` drain
    (``drains[job_id]``) on a pool thread.  ``workers`` is how many jobs
    drain at once; ``workers=0`` disables execution entirely
    (admission-only mode, used by the load bench).
    """

    state_dir: Path
    workers: int = 2
    poll_interval: float = 0.05
    kill_grace: float = 5.0
    fs: object = None

    def __post_init__(self) -> None:
        self.state_dir = Path(self.state_dir)
        self.fs = resolve_fs(self.fs)
        self.jobs_dir = self.state_dir / "jobs"
        self.jobs: Dict[str, Job] = {}
        #: job id -> the coordinator draining it, while it runs
        self.drains: Dict[str, Coordinator] = {}
        self._tasks: Dict[str, asyncio.Future] = {}
        #: job id -> worker respawns already counted as requeues
        self._respawns: Dict[str, int] = {}
        self._pool = ThreadPoolExecutor(max(1, self.workers), "drain")
        self._seq = 0

    # -- persistence -------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def store_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "store"

    def _persist(self, job: Job) -> None:
        _write_json(self.job_dir(job.id) / "job.json", job.to_json(), self.fs)

    def recover(self) -> dict:
        """Rebuild the job table from disk.  Orphaned ``running`` jobs
        go back to ``queued``, and unfinished jobs' leased units straight
        back to pending: the next drain need not wait out a lease TTL."""
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        requeued = 0
        for path in sorted(self.jobs_dir.glob("*/job.json")):
            try:
                job = Job.from_json(json.loads(path.read_text()))
            except (OSError, ValueError, KeyError):
                continue  # torn control record: job dir is inert, skip it
            if job.state not in TERMINAL_STATES:
                WorkQueue(self.store_dir(job.id), fs=self.fs).release_leases(
                    "released on service restart")
            if job.state == "running":
                job.state = "queued"
                job.requeues += 1
                self._persist(job)
                requeued += 1
            self.jobs[job.id] = job
            self._seq = max(self._seq, job.seq + 1)
        if requeued:
            _JOB_REQUEUED.inc(requeued)
        return {"jobs": len(self.jobs), "requeued": requeued}

    # -- queries -----------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def active_counts(self) -> Tuple[int, Dict[str, int]]:
        """(queued jobs, active jobs per client) — the quota inputs."""
        queued = 0
        per_client: Dict[str, int] = {}
        for job in self.jobs.values():
            if job.state == "queued":
                queued += 1
            if job.state in ("queued", "running"):
                per_client[job.client] = per_client.get(job.client, 0) + 1
        return queued, per_client

    def progress(self, job: Job) -> dict:
        """Cheap progress counters read straight off the job's store."""
        if job.kind == "explore":
            status = ExplorationStore(self.store_dir(job.id)).status()
            return {"expanded": status["expanded"],
                    "discovered": status["discovered"],
                    "pending": status["pending"]}
        store = CampaignStore(self.store_dir(job.id))
        trials = int(job.request.get("trials", 1))
        total = (len(job.request.get("specs", ())) *
                 len(job.request.get("n_values", ())) * trials)
        done = sum(
            len({t for t in idxs if 0 <= t < trials})
            for idxs in store.completed_index(store.iter_all_records()).values()
        )
        return {"done": done, "total": total}

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    def fsck(self, repair: bool = False) -> dict:
        """Parse-check every whole-file JSON under ``jobs/`` and CRC-check
        every job's record store; ``repair`` quarantines the damage.
        The report has the store ``fsck`` shape, paths relative to the
        state dir, a whole file counting as one record."""
        report = {"files": [], "records_ok": 0, "foreign": 0,
                  "damaged": [], "repaired": 0}
        for path in sorted(self.jobs_dir.rglob("*.json")):
            name = str(path.relative_to(self.state_dir))
            report["files"].append(name)
            if fsck_json(path, repair=repair, fs=self.fs):
                report["damaged"].append(
                    {"file": name, "line": None, "reason": "unparsable"})
            else:
                report["records_ok"] += 1
        for store_dir in sorted(self.jobs_dir.glob("*/store")):
            try:
                store = open_store(store_dir, fs=self.fs)
            except ValueError:
                continue  # a damaged manifest, reported above
            if store is None:
                continue
            found = store.fsck(repair=repair)
            prefix = store_dir.relative_to(self.state_dir)
            report["files"] += [str(prefix / f) for f in found["files"]]
            report["records_ok"] += found["records_ok"]
            report["foreign"] += found["foreign"]
            report["damaged"] += [{**d, "file": str(prefix / d["file"])}
                                  for d in found["damaged"]]
        report["repaired"] = len(report["damaged"]) if repair else 0
        return report

    # -- submission / cancel ----------------------------------------------
    def submit(self, payload: object, client: str,
               quota: Optional[QuotaPolicy] = None) -> Job:
        """Validate, apply quotas, persist, and enqueue one job."""
        request = parse_job_request(payload, quota)
        if quota is not None:
            queued, per_client = self.active_counts()
            rejection = quota.admit(queued=queued, per_client=per_client,
                                    client=client)
            if rejection is not None:
                status, code, detail, retry = rejection
                raise JobRejected(status, code, detail, retry)
        seq = self._seq
        self._seq += 1
        job_id = f"job-{seq:06d}-{secrets.token_hex(3)}"
        job = Job(id=job_id, kind=request.kind, state="queued", client=client,
                  seq=seq, request=request.payload())
        self.job_dir(job_id).mkdir(parents=True, exist_ok=True)
        self._persist(job)
        self.jobs[job_id] = job
        _JOB_SUBMITTED.inc()
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a job; terminal jobs are returned unchanged.  A running
        job's drain is stopped: its worker finishes the current unit."""
        job = self.jobs[job_id]
        if job.state in TERMINAL_STATES:
            return job
        job.state = "cancelled"
        self._persist(job)
        _JOB_CANCELLED.inc()
        if job_id in self.drains:
            self.drains[job_id].stop()
        return job

    # -- scheduling --------------------------------------------------------
    def _start_ready(self) -> None:
        """Move the oldest queued jobs into free drain slots."""
        free = self.workers - len(self.drains)
        if free <= 0:
            return
        queued = sorted(
            (j for j in self.jobs.values() if j.state == "queued"),
            key=lambda j: j.seq)
        for job in queued[:free]:
            job.state = "running"
            self._persist(job)
            self.drains[job.id] = Coordinator(
                _source_for(parse_job_request(job.request), job.id, self.fs),
                self.store_dir(job.id), workers=1, poll=self.poll_interval,
                drain_grace=self.kill_grace, fs=self.fs)
            self._respawns[job.id] = 0
            self._tasks[job.id] = asyncio.ensure_future(self._drain(job))
            _JOB_STARTED.inc()
        _JOBS_RUNNING.set(len(self.drains))

    def _count_respawns(self, job: Job) -> None:
        """Count each worker the coordinator respawned as a requeue."""
        new = self.drains[job.id].respawned - self._respawns[job.id]
        self._respawns[job.id] += new
        job.requeues += new  # persisted when the drain settles
        _JOB_REQUEUED.inc(new)

    @staticmethod
    def _run_drain(job: Job, coordinator: Coordinator):
        """On a pool thread: the drain's report, or what it raised."""
        try:
            with obs_tracing.span("service.job", job=job.id, kind=job.kind):
                return coordinator.drain(), None
        except Exception as exc:  # noqa: BLE001 — the job fails, not us
            return None, exc

    async def _drain(self, job: Job) -> None:
        """Run one job's drain on a pool thread, then settle its state."""
        try:
            report, exc = await asyncio.get_running_loop().run_in_executor(
                self._pool, self._run_drain, job, self.drains[job.id])
            self._count_respawns(job)
            self._settle(job, report, exc)
        finally:
            del self.drains[job.id], self._respawns[job.id]
            _JOBS_RUNNING.set(len(self.drains))

    def _settle(self, job: Job, report, exc: Optional[Exception]) -> None:
        """Turn a drain's outcome into the job's next state."""
        if job.state == "cancelled":
            return
        if exc is None and report.complete:
            if job.kind == "explore":
                write_report(ExplorationStore(self.store_dir(job.id),
                                              fs=self.fs), report.result)
                result = {"kind": "explore", **report.result.to_json()}
            else:
                result = {"kind": job.kind,
                          "total": parse_job_request(job.request).total_units,
                          "aggregate": aggregate_payload(report.result)}
            _write_json(self.result_path(job.id), result, self.fs)
            job.state = "done"
            _JOB_DONE.inc()
        elif exc is None and report.interrupted:
            job.state = "queued"  # drained: intact, resumable
            job.requeues += 1
            _JOB_REQUEUED.inc()
        else:
            if exc is not None:
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()
            elif report.failed:
                unit = report.failed[0]
                detail = f"unit {unit['id']} failed: {unit.get('error')}"
            else:
                detail = "the drain ended with the job incomplete"
            job.error = {"error": "worker-error", "detail": detail}
            _write_json(self.job_dir(job.id) / "error.json", job.error,
                        self.fs)
            job.state = "failed"
            _JOB_FAILED.inc()
        self._persist(job)

    async def run(self, stop: asyncio.Event) -> None:
        """The scheduler loop: start queued jobs in free drain slots."""
        while not stop.is_set():
            for job_id in list(self.drains):
                self._count_respawns(self.jobs[job_id])
            for job_id, task in list(self._tasks.items()):
                if task.done():
                    del self._tasks[job_id]
                    task.result()  # a drain task's own death kills the loop
            self._start_ready()
            try:
                await asyncio.wait_for(stop.wait(), timeout=self.poll_interval)
            except asyncio.TimeoutError:
                pass

    async def drain(self) -> None:
        """Service shutdown: stop every running drain (SIGTERM, then the
        coordinator's own escalation) and requeue what it interrupted."""
        for coordinator in list(self.drains.values()):
            coordinator.stop()
        await asyncio.gather(*self._tasks.values(), return_exceptions=True)
