"""Distributed campaign fabric: a file-backed work-queue coordinator.

The campaign and exploration stores already make *records* kill-safe
and order-independent — aggregates are pure functions of the deduped
completed set.  What they lack is scheduling: ``--shard i/k`` splits
work statically, so a stalled or killed shard leaves a hole a human
must notice and relaunch.  The fabric closes that gap with a classic
lease-based work queue, built entirely out of atomic filesystem
renames so it needs no server, no locks, and no dependencies::

    <root>/fabric/
      pending/<unit id>.json   # unclaimed work units
      leased/<unit id>.json    # claimed; content carries the heartbeat
      done/<unit id>.json      # completed (result payload inside)
      failed/<unit id>.json    # exhausted retries or diagnosed poison;
                               # <unit id>.diagnosis rides alongside

Lifecycle of a unit (the coordinator's state machine)::

    pending --claim (os.rename)--> leased --complete--> done
       ^                             |
       |   lease expired / stuck /   |--worker error / heartbeat
       +--- released (retries <=     |   frozen for > ttl
       |         max) ---------------+
       |                             +--(retries > max)--> failed
       +-- worker crashed (<= max crashes) --+
                                     +--(poison: crashes > max)--> failed

*Claiming* is a rename of ``pending/u`` to ``leased/u`` — atomic on
POSIX, so exactly one worker wins a unit no matter how many race.
*Heartbeats* are content, not mtime: a daemon thread in the worker
rewrites the lease file with a monotonically increasing beat counter,
the owner's identity, and the unit's elapsed runtime (measured on the
worker's own monotonic clock).  The coordinator's reaper remembers
each lease's ``(owner, beat)`` fingerprint against *its own*
``time.monotonic()`` and requeues a lease whose fingerprint has not
changed for a full TTL (with bounded retries and a ``not_before``
backoff stamp) — crash recovery and straggler re-assignment are the
same code path, and because no wall-clock timestamp is ever compared
across machines, arbitrary clock skew between workers and coordinator
cannot expire a healthy lease.  A ``unit_timeout`` watchdog reuses the
worker-reported elapsed time to reclaim units that are *stuck* while
their worker beats on happily.

All filesystem mutations route through a seam
(:mod:`repro.testing.faults`) so the chaos suite can kill any worker
or the coordinator at every rename/write boundary and replay the
failure from a seed.

The fabric deliberately provides **at-least-once** execution, not
exactly-once: a reaped worker that was merely slow may finish its unit
anyway, so the same records can be written twice, and a completed unit
may be completed again.  That is safe *by store design* — records
dedupe on their natural key — which is what makes ``kill -9`` proof
cheap: the drained aggregate is byte-identical to a serial run no
matter which workers died (see ``tests/experiments/test_fabric.py``).

Work *sources* adapt a problem to the queue.  :class:`CampaignSource`
decomposes a figure grid into blocks of trial indices (one plan round;
trial seeds are position-based, so any index subset reproduces the
serial trials exactly).  :class:`ExplorationSource` re-plans every
round — frontier BFS discovers work as it goes — handing out shard
slices with bounded expansion budgets until the store reports the
graph complete.

``python -m repro drain`` is the CLI front end; the registry exposes
the coordinator knobs as the ``drain`` workload component.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import signal
import threading
import time
import warnings
from dataclasses import dataclass, field
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .. import durable
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..testing.faults import resolve_fs
from .campaign import (
    CampaignStore,
    _plan_cells,
    _manifest_for,
    _trial_row,
    aggregate_records,
)
from .config import FigureSpec
from .runner import run_trial, trial_jobs

__all__ = [
    "FabricError",
    "Lease",
    "WorkQueue",
    "CampaignSource",
    "ExplorationSource",
    "Coordinator",
    "DrainReport",
    "drain_campaign",
    "fleet_snapshot",
    "metrics_dir",
    "worker_main",
]

DEFAULT_LEASE_TTL = 30.0
DEFAULT_UNIT_TRIALS = 8
DEFAULT_MAX_RETRIES = 3
#: times a unit may crash its worker before it is parked as poison.
DEFAULT_MAX_UNIT_CRASHES = 2
#: seconds the coordinator gives a signalled fleet to finish or release.
DEFAULT_DRAIN_GRACE = 10.0

#: subdirectory of the store root holding the queue.
QUEUE_DIRNAME = "fabric"

#: subdirectory of the queue dir where workers persist their metric
#: snapshots (one JSON per worker id; ``repro top`` and the
#: coordinator fold them with :func:`repro.obs.merge_snapshots`).
METRICS_DIRNAME = "metrics"

_CLAIM_SECONDS = obs_metrics.histogram(
    "repro_fabric_claim_seconds",
    "Latency of successful work-queue claims")
_LEASE_EVENTS = obs_metrics.counter(
    "repro_fabric_lease_events_total",
    "Lease lifecycle events across the fleet",
    ("event",))
_LEASE_CLAIMED = _LEASE_EVENTS.labels(event="claimed")
_LEASE_COMPLETED = _LEASE_EVENTS.labels(event="completed")
_LEASE_RELEASED = _LEASE_EVENTS.labels(event="released")
_LEASE_EXPIRED = _LEASE_EVENTS.labels(event="expired")
_LEASE_FAILED = _LEASE_EVENTS.labels(event="failed")
_LEASE_CRASH_REQUEUED = _LEASE_EVENTS.labels(event="crash_requeued")
_LEASE_PARKED = _LEASE_EVENTS.labels(event="parked")
_HEARTBEAT_AGE = obs_metrics.gauge(
    "repro_fabric_heartbeat_age_seconds",
    "Oldest heartbeat fingerprint age across live leases at the last "
    "reap scan")


def metrics_dir(root) -> Path:
    """Where the fleet's per-worker metric snapshots live."""
    return Path(root) / QUEUE_DIRNAME / METRICS_DIRNAME


def fleet_snapshot(root) -> dict:
    """Fold every worker metrics file under ``root`` into one snapshot.

    Unreadable / torn files are skipped (a worker may be mid-replace);
    the fold is associative + commutative, so the result is independent
    of file order.
    """
    merged: dict = {}
    for path in sorted(metrics_dir(root).glob("*.json")):
        try:
            snap = obs_metrics.read_snapshot_file(path)
        except (OSError, ValueError):
            continue
        merged = obs_metrics.merge_snapshots(merged, snap)
    return merged


class FabricError(RuntimeError):
    """The drain cannot make progress (the fleet keeps dying, the rounds
    never converge, or an exploration outgrew ``max_states``)."""


@dataclass
class Lease:
    """One claimed work unit: its payload and its leased-file path."""

    unit: dict
    path: Path

    @property
    def id(self) -> str:
        return self.unit["id"]


class WorkQueue:
    """The four-directory queue under ``<root>/fabric/``.

    Every transition is a single ``os.rename``/``os.replace`` (atomic
    within a filesystem), so any number of workers and one coordinator
    can share the queue with no further coordination.  All operations
    tolerate losing a race: a failed rename means someone else moved
    the unit first, and the loser simply moves on.
    """

    def __init__(self, root, fs=None) -> None:
        self.root = Path(root) / QUEUE_DIRNAME
        self.pending = self.root / "pending"
        self.leased = self.root / "leased"
        self.done = self.root / "done"
        self.failed = self.root / "failed"
        #: filesystem seam (see :mod:`repro.testing.faults`).
        self.fs = resolve_fs(fs)
        #: reaper state: unit id -> ((owner, beat) fingerprint, the
        #: local-monotonic instant it was first observed).  Content
        #: fingerprints observed against the *reaper's* clock are what
        #: make lease expiry immune to worker clock skew.
        self._observed: Dict[str, Tuple[tuple, float]] = {}
        #: per-live-lease detail from the most recent :meth:`reap_expired`
        #: scan: unit id -> owner / heartbeat-fingerprint age / retries /
        #: elapsed.  The coordinator folds this into per-worker status.
        self.last_lease_info: Dict[str, dict] = {}
        #: leases the most recent scan expired: dicts with unit / owner /
        #: outcome ("requeued" | "failed") / error.
        self.last_reaped: List[dict] = []
        #: cached pending-dir listing, consumed head-first by claims and
        #: refreshed at most once per claim (on miss/exhaustion), so the
        #: per-claim cost no longer scales with queue depth.
        self._pending_cache: Deque[Path] = deque()

    def ensure_dirs(self) -> None:
        for d in (self.pending, self.leased, self.done, self.failed):
            d.mkdir(parents=True, exist_ok=True)

    def _write(self, path: Path, unit: dict) -> None:
        durable.write_atomic(path, json.dumps(unit, sort_keys=True), self.fs)

    @staticmethod
    def _read(path: Path) -> Optional[dict]:
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None  # claimed/moved by a racer, or torn mid-write

    def _ids(self, directory: Path) -> set:
        return {p.stem for p in directory.glob("*.json")}

    def initialize(self, units: Sequence[dict]) -> int:
        """Enqueue every unit not already known to the queue.

        Idempotent: units whose id exists in *any* state directory are
        skipped, so re-planning after a crash (or the exploration
        source re-offering last round's shards) never duplicates work.
        Returns the number of units actually enqueued.
        """
        self.ensure_dirs()
        known = set()
        for d in (self.pending, self.leased, self.done, self.failed):
            known |= self._ids(d)
        new = 0
        for unit in units:
            if unit["id"] in known:
                continue
            stamped = dict(unit)
            stamped.setdefault("retries", 0)
            stamped.setdefault("not_before", 0.0)
            self._write(self.pending / f"{unit['id']}.json", stamped)
            new += 1
        return new

    def claim(self, worker: str) -> Optional[Lease]:
        """Atomically claim one eligible pending unit, or ``None``.

        Units still inside their retry backoff window (``not_before``
        in the future) are passed over.  The claim stamps the lease
        content with the owner's identity and beat ``0`` — the reaper
        starts its TTL clock the first time it *sees* that fingerprint,
        so a freshly claimed unit always gets a full TTL regardless of
        any clock disagreement.

        The rename also repairs a rare ghost: a heartbeat racing a
        reap can rewrite a lease file just after the reaper requeued
        the unit, and the next claim's rename simply clobbers the
        ghost with the real lease.

        The pending listing is cached across claims and re-globbed at
        most once per call, when the cache runs dry — draining N units
        costs one listing per cache fill instead of one per claim.
        Units another queue instance enqueues or requeues surface at
        the next refresh; units passed over (retry backoff, torn
        mid-write by a killed ``initialize``) go back to the cache head
        for the next claim.
        """
        started = time.monotonic()
        now = time.time()
        cache = self._pending_cache
        deferred: List[Path] = []
        refreshed = False
        try:
            while True:
                if not cache:
                    if refreshed:
                        return None
                    refreshed = True
                    deferred.clear()  # the fresh listing re-covers them
                    cache.extend(sorted(self.pending.glob("*.json")))
                    continue
                path = cache.popleft()
                unit = self._read(path)
                if unit is None:
                    if path.exists():
                        deferred.append(path)  # torn mid-write: retry later
                    continue  # claimed/moved by a racer: drop from cache
                if unit.get("not_before", 0.0) > now:
                    deferred.append(path)  # inside its backoff window
                    continue
                target = self.leased / path.name
                try:
                    self.fs.rename(path, target)
                except OSError:
                    continue  # lost the race for this unit — try the next
                unit["owner"] = worker
                unit["beat"] = 0
                unit["elapsed"] = 0.0
                try:
                    self._write(target, unit)
                except OSError:
                    pass  # reaped at the instant of claim; treat as claimed anyway
                _LEASE_CLAIMED.inc()
                _CLAIM_SECONDS.observe(time.monotonic() - started)
                return Lease(unit, target)
        finally:
            cache.extendleft(reversed(deferred))

    def heartbeat(self, lease: Lease, elapsed: Optional[float] = None) -> bool:
        """Refresh the lease by *content*: bump the beat counter and
        record the unit's elapsed runtime (worker-monotonic seconds).

        Returns ``False`` when the lease file is gone — the coordinator
        reaped or timed out this unit and the worker is executing on
        borrowed time (its eventual completion still lands, as a
        harmless duplicate).  Callers should stop beating on ``False``
        so a requeued unit's fresh lease is not fought over.
        """
        if not lease.path.exists():
            return False
        lease.unit["beat"] = int(lease.unit.get("beat", 0)) + 1
        if elapsed is not None:
            lease.unit["elapsed"] = round(float(elapsed), 3)
        try:
            self._write(lease.path, lease.unit)
        except OSError:
            return False
        return True

    def release(self, lease: Lease, note: str = "released") -> None:
        """Voluntarily hand a claimed unit back (graceful drain).

        Unlike :meth:`fail_lease` this burns no retry: the worker did
        nothing wrong, it was asked to stop.  The unit returns to
        pending immediately (no backoff window).
        """
        unit = dict(lease.unit)
        for transient in ("owner", "beat", "elapsed"):
            unit.pop(transient, None)
        unit["not_before"] = 0.0
        unit["error"] = note
        self._observed.pop(lease.id, None)
        _LEASE_RELEASED.inc()
        self._write(self.pending / lease.path.name, unit)
        try:
            self.fs.unlink(lease.path)
        except OSError:
            pass

    def reopen(self, units: Sequence[dict]) -> int:
        """Move each of ``units`` that sits in done back to pending, as
        planned now: the source lost its output (say, a record ``fsck
        --repair`` quarantined) and wants it again.  Returns how many."""
        reopened = 0
        for unit in units:
            path = self.done / f"{unit['id']}.json"
            if not path.exists():
                continue  # pending, leased or failed: not ours to move
            # unlink first: a kill in between leaves the unit unknown,
            # and the next plan enqueues it afresh
            self.fs.unlink(path)
            self._write(self.pending / path.name,
                        {**unit, "retries": 0, "not_before": 0.0})
            reopened += 1
        return reopened

    def release_leases(self, note: str, owner: Optional[str] = None) -> int:
        """Put every lease (of ``owner``, if given) whose worker is known
        to be gone straight back to pending; returns how many."""
        leases = [Lease(unit, path)
                  for path in sorted(self.leased.glob("*.json"))
                  if (unit := self._read(path)) is not None
                  and owner in (None, unit.get("owner"))]
        for lease in leases:
            self.release(lease, note=note)
        return len(leases)

    def complete(self, lease: Lease, result: Optional[dict] = None) -> bool:
        """Move the lease to done.  Returns ``False`` when the unit was
        already completed by someone else (double completion after a
        reassignment) — harmless, the records both executions wrote
        dedupe in the store.
        """
        target = self.done / lease.path.name
        if target.exists():
            try:
                self.fs.unlink(lease.path)
            except OSError:
                pass
            return False
        unit = dict(lease.unit)
        if result is not None:
            unit["result"] = result
        # write done first, then drop the lease: a kill between the two
        # leaves both files, and the reaper treats done as authoritative
        self._write(target, unit)
        try:
            self.fs.unlink(lease.path)
        except OSError:
            pass
        _LEASE_COMPLETED.inc()
        return True

    def fail_lease(
        self,
        lease: Lease,
        error: str,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff: float = 0.5,
    ) -> None:
        """A worker hit an exception: requeue with backoff, or park in
        ``failed/`` once retries are exhausted."""
        unit = dict(lease.unit)
        unit["retries"] = int(unit.get("retries", 0)) + 1
        unit["error"] = error
        for transient in ("owner", "beat", "elapsed"):
            unit.pop(transient, None)
        self._observed.pop(lease.id, None)
        if unit["retries"] > max_retries:
            self._write(self.failed / lease.path.name, unit)
        else:
            unit["not_before"] = time.time() + backoff * unit["retries"]
            self._write(self.pending / lease.path.name, unit)
        try:
            self.fs.unlink(lease.path)
        except OSError:
            pass

    def reap_expired(
        self,
        ttl: float,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff: float = 0.5,
        now: Optional[float] = None,
        unit_timeout: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Requeue every lease whose heartbeat fingerprint froze for
        ``ttl``, plus (with ``unit_timeout``) every unit whose own
        elapsed runtime exceeds the timeout.

        Expiry never reads a timestamp off the lease file.  The reaper
        remembers the ``(owner, beat)`` content fingerprint of each
        lease together with the local ``time.monotonic()`` instant it
        first saw that fingerprint; a lease is stale only when its
        fingerprint has not changed for a full TTL *of the reaper's own
        clock* — so a worker whose wall clock is wrong by hours still
        holds its lease, and a dead worker loses it after exactly one
        TTL of silence.  ``now`` overrides the reaper clock (tests).

        The watchdog path is skew-free for the same reason: ``elapsed``
        is a duration the worker measured on *its* monotonic clock, so
        comparing it against ``unit_timeout`` involves no cross-machine
        timestamps.  A stuck unit is reclaimed even while its worker
        heartbeats happily; the requeue burns a retry, so a unit that
        is stuck everywhere eventually parks in ``failed/`` instead of
        cycling forever.

        The owner may be dead (crash, ``kill -9``) or merely stalled —
        the fabric cannot tell and does not need to: if the old owner
        later finishes, its completion lands as a harmless duplicate.
        Returns ``(requeued, failed)`` counts.
        """
        if now is None:
            now = time.monotonic()
        requeued = failed = 0
        seen = set()
        self.last_lease_info = {}
        self.last_reaped = []
        oldest_age = 0.0
        for path in sorted(self.leased.glob("*.json")):
            if (self.done / path.name).exists():
                # completed during a previous reap race — just clean up
                try:
                    self.fs.unlink(path)
                except OSError:
                    pass
                continue
            unit = self._read(path)
            if unit is None:
                continue  # completed/failed between glob and read
            unit_id = path.stem
            seen.add(unit_id)
            fingerprint = (unit.get("owner"), unit.get("beat"))
            known = self._observed.get(unit_id)
            if known is None or known[0] != fingerprint:
                self._observed[unit_id] = (fingerprint, now)
                known = self._observed[unit_id]
            owner = unit.get("owner", "unknown")
            elapsed = float(unit.get("elapsed", 0.0) or 0.0)
            age = max(now - known[1], 0.0)
            oldest_age = max(oldest_age, age)
            self.last_lease_info[unit_id] = {
                "owner": owner,
                "heartbeat_age": round(age, 3),
                "retries": int(unit.get("retries", 0)),
                "elapsed": elapsed,
            }
            if unit_timeout is not None and elapsed > unit_timeout:
                error = (f"unit exceeded unit_timeout={unit_timeout:g}s "
                         f"(elapsed {elapsed:g}s on worker {owner})")
            elif now - known[1] > ttl:
                error = (f"lease expired (no heartbeat from worker {owner} "
                         f"for {ttl:g}s)")
            else:
                continue
            lease = Lease(unit, path)
            retries = int(unit.get("retries", 0)) + 1
            if retries > max_retries:
                self.fail_lease(lease, f"{error} (attempt {retries})",
                                max_retries=0)
                failed += 1
                _LEASE_FAILED.inc()
                outcome = "failed"
            else:
                self.fail_lease(lease, f"{error} (attempt {retries})",
                                max_retries=max_retries, backoff=backoff)
                requeued += 1
                _LEASE_EXPIRED.inc()
                outcome = "requeued"
            self.last_reaped.append({"unit": unit_id, "owner": owner,
                                     "outcome": outcome, "error": error})
        _HEARTBEAT_AGE.set(oldest_age)
        # forget leases that left the leased state some other way
        for unit_id in list(self._observed):
            if unit_id not in seen:
                del self._observed[unit_id]
        return requeued, failed

    def fail_dead_owner(
        self,
        worker: str,
        max_crashes: int = DEFAULT_MAX_UNIT_CRASHES,
        exitcode: Optional[int] = None,
    ) -> Tuple[int, int]:
        """A worker process died; deal with the lease it was holding.

        Called by the coordinator the moment it observes a nonzero
        worker exit, so the unit does not wait out a whole TTL of
        silence.  Crashes are tracked separately from retries: a unit
        that keeps *crashing* its workers (rather than raising) is a
        poison pill, and after ``max_crashes`` it is parked in
        ``failed/`` with a ``<unit id>.diagnosis`` sidecar naming every
        worker it took down — instead of respawn-looping the fleet
        until ``max_respawns`` kills the whole drain.

        Returns ``(requeued, parked)`` counts.
        """
        requeued = parked = 0
        for path in sorted(self.leased.glob("*.json")):
            unit = self._read(path)
            if unit is None or unit.get("owner") != worker:
                continue
            if (self.done / path.name).exists():
                try:
                    self.fs.unlink(path)
                except OSError:
                    pass
                continue
            unit = dict(unit)
            crashes = int(unit.get("crashes", 0)) + 1
            unit["crashes"] = crashes
            history = list(unit.get("crashed_workers", []))
            history.append({"worker": worker, "exitcode": exitcode})
            unit["crashed_workers"] = history
            for transient in ("owner", "beat", "elapsed"):
                unit.pop(transient, None)
            self._observed.pop(path.stem, None)
            unit["error"] = (f"worker {worker} died (exit {exitcode}) "
                             f"while running this unit (crash {crashes})")
            if crashes > max_crashes:
                unit["diagnosis"] = "poison"
                self._write(self.failed / path.name, unit)
                self.fs.write_text(
                    self.failed / f"{path.stem}.diagnosis",
                    json.dumps({
                        "unit": path.stem,
                        "diagnosis": "poison",
                        "crashes": crashes,
                        "crashed_workers": history,
                        "detail": (
                            "this unit killed every worker that executed "
                            "it; it is parked so the fleet stops dying. "
                            "Inspect the unit payload, fix the cause, then "
                            "move the unit file back to fabric/pending/ to "
                            "retry."
                        ),
                    }, indent=2, sort_keys=True),
                )
                parked += 1
                _LEASE_PARKED.inc()
            else:
                unit["not_before"] = 0.0  # crash recovery skips backoff
                self._write(self.pending / path.name, unit)
                requeued += 1
                _LEASE_CRASH_REQUEUED.inc()
            try:
                self.fs.unlink(path)
            except OSError:
                pass
        return requeued, parked

    # -- introspection -----------------------------------------------------
    def counts(self) -> Dict[str, int]:
        return {
            "pending": len(self._ids(self.pending)),
            "leased": len(self._ids(self.leased)),
            "done": len(self._ids(self.done)),
            "failed": len(self._ids(self.failed)),
        }

    def drained(self) -> bool:
        """No unit is pending or in flight (done/failed only)."""
        return not self._ids(self.pending) and not self._ids(self.leased)

    def done_units(self) -> List[dict]:
        return [u for p in sorted(self.done.glob("*.json"))
                if (u := self._read(p)) is not None]

    def failed_units(self) -> List[dict]:
        return [u for p in sorted(self.failed.glob("*.json"))
                if (u := self._read(p)) is not None]


# ---------------------------------------------------------------------------
# work sources


class FabricSource:
    """Adapter from a problem to queue units.  Subclasses implement:

    * ``store(root)`` — the record store the units write into;
    * ``plan(store, round_index)`` — the units of one planning round;
      the drain re-plans after every round until a plan is empty
      (static decompositions plan once, dynamic ones until finished);
    * ``execute(unit, store, worker)`` — run one unit, writing records
      tagged with the worker id;
    * ``finished(store)`` — whether the whole problem is drained;
    * ``result(store)`` — the final aggregate (only called when
      finished).

    ``execute`` must be safe to run twice for the same unit (and
    concurrently, after a lease reassignment) — the stores guarantee
    that as long as all writes go through their append discipline.
    """

    def store(self, root):
        raise NotImplementedError

    def plan(self, store, round_index: int) -> List[dict]:
        raise NotImplementedError

    def execute(self, unit: dict, store, worker: str) -> dict:
        raise NotImplementedError

    def finished(self, store) -> bool:
        raise NotImplementedError

    def result(self, store):
        raise NotImplementedError


@dataclass(frozen=True)
class CampaignSource(FabricSource):
    """A figure-grid campaign as fabric work units.

    Each unit is one cell plus the missing trials of one aligned block
    of ``unit_trials`` indices (a re-plan reproduces queued unit ids).
    The runner's seeding makes trial ``i`` of a cell a pure function of
    ``(config, n, seed, i)``, so executing arbitrary blocks on arbitrary
    workers reproduces the serial campaign record-for-record.
    """

    spec: FigureSpec
    seed: int = 0
    trials: Optional[int] = None
    n_values: Optional[Sequence[int]] = None
    max_steps_factor: int = 50
    unit_trials: int = DEFAULT_UNIT_TRIALS
    #: filesystem seam handed to the store (chaos tests only).
    fs: Optional[object] = None

    def _grid(self):
        use_trials = self.trials if self.trials is not None else self.spec.trials
        use_ns = (
            tuple(self.n_values) if self.n_values is not None
            else self.spec.n_values
        )
        eff_spec = self.spec.scaled(use_ns, use_trials)
        return eff_spec, use_trials, use_ns, _plan_cells(eff_spec, use_ns)

    def store(self, root) -> CampaignStore:
        return CampaignStore(root, fs=self.fs)

    def plan(self, store: CampaignStore, round_index: int) -> List[dict]:
        if round_index > 0:
            return []
        eff_spec, trials, n_values, cells = self._grid()
        store.ensure_manifest(_manifest_for(
            eff_spec, self.seed, trials, n_values, self.max_steps_factor, cells
        ))
        done = store.completed_index(store.iter_all_records())
        block = max(1, int(self.unit_trials))
        units = []
        for cell in cells:
            cell_done = done.get(cell.key, set())
            for start in range(0, trials, block):
                indices = [i for i in range(start, min(start + block, trials))
                           if i not in cell_done]
                if indices:
                    units.append({
                        "id": f"{cell.key}-t{start}",
                        "cell": cell.key,
                        "trials": indices,
                    })
        return units

    def execute(self, unit: dict, store: CampaignStore, worker: str) -> dict:
        _, _, _, cells = self._grid()
        cell = next(c for c in cells if c.key == unit["cell"])
        indices = [int(i) for i in unit["trials"]]
        if "error" in unit:  # a re-run: keep what the last attempt stored
            stored = store.completed_index(store.iter_all_records())
            indices = [i for i in indices
                       if i not in stored.get(cell.key, set())]
            if not indices:
                return {"trials": 0}
        # jobs are cheap descriptors; build through the largest index so
        # positional seeding matches the serial run exactly
        jobs = trial_jobs(
            cell.cfg, cell.n, max(indices) + 1, self.seed, self.max_steps_factor
        )
        with store.open_tagged_writer(worker) as fh:
            for idx in indices:
                rec = run_trial(jobs[idx])
                store.append(fh, _trial_row(cell.key, idx, rec))
        return {"trials": len(indices)}

    def finished(self, store: CampaignStore) -> bool:
        _, trials, _, cells = self._grid()
        done = store.completed_index(store.iter_all_records())
        return all(
            len({t for t in done.get(c.key, set()) if 0 <= t < trials}) == trials
            for c in cells
        )

    def result(self, store: CampaignStore):
        eff_spec, trials, _, cells = self._grid()
        return aggregate_records(
            eff_spec, cells, store.iter_all_records(), trials
        )


@dataclass(frozen=True)
class ExplorationSource(FabricSource):
    """A response-graph exploration as fabric work units.

    The frontier is dynamic — expanding a state discovers new work — so
    the source re-plans every round: each round offers ``shards`` units
    (shard ``j`` of ``k`` with an expansion budget), workers drain
    them, and planning repeats until the store holds the complete
    graph.  Budgets bound a unit's runtime so lease TTLs stay
    meaningful on frontier spikes.
    """

    game: object
    n: Optional[int] = None
    start: Optional[object] = None
    moves: str = "best"
    agent_filter: str = "all"
    max_states: int = 200_000
    backend: Optional[str] = None
    shards: int = 2
    unit_budget: int = 200
    game_name: Optional[str] = None
    #: filesystem seam handed to the store (chaos tests only).
    fs: Optional[object] = None

    def store(self, root):
        from ..statespace.store import ExplorationStore

        return ExplorationStore(root, fs=self.fs)

    def plan(self, store, round_index: int) -> List[dict]:
        if round_index > 0:
            status = store.status(self._seed_keys(store))
            if status["discovered"] > self.max_states:
                # clipped successors stay pending forever: fail now
                raise FabricError(
                    f"exploration truncated at max_states={self.max_states} "
                    f"({status['discovered']} states discovered)")
            if status["complete"]:
                return []
        k = max(1, int(self.shards))
        return [
            {"id": f"r{round_index}-s{j}", "shard": [j, k],
             "budget": int(self.unit_budget)}
            for j in range(k)
        ]

    def execute(self, unit: dict, store, worker: str) -> dict:
        from ..statespace.explore import explore

        report = explore(
            self.game,
            start=self.start,
            n=self.n,
            moves=self.moves,
            agent_filter=self.agent_filter,
            backend=self.backend,
            max_states=self.max_states,
            store=store,
            shard=tuple(unit["shard"]),
            max_expansions=int(unit["budget"]),
            game_name=self.game_name,
            # a draining worker ends the unit at the next expansion; the
            # next round re-plans the rest of the frontier
            stop=_DRAIN_ASKED.is_set,
        )
        return {"states": report.n_states}

    def _seed_keys(self, store) -> List[str]:
        from ..statespace.encode import state_key
        from ..statespace.expand import ownership_matters
        from ..statespace.explore import enumerate_states

        own = ownership_matters(self.game)
        seeds = (
            [self.start] if self.start is not None
            else enumerate_states(self.n, with_ownership=own)
        )
        return [state_key(net, with_ownership=own).hex() for net in seeds]

    def finished(self, store) -> bool:
        return bool(store.status(self._seed_keys(store))["complete"])

    def result(self, store):
        from ..statespace.explore import explore

        # the store holds every expansion; this replay builds the report
        # without expanding anything new
        return explore(
            self.game,
            start=self.start,
            n=self.n,
            moves=self.moves,
            agent_filter=self.agent_filter,
            backend=self.backend,
            max_states=self.max_states,
            store=store,
            game_name=self.game_name,
        )


# ---------------------------------------------------------------------------
# workers


#: set by a worker's first SIGTERM/SIGINT: finish the unit, then exit.
#: A long unit may ask it to stop early (see ``ExplorationSource``).
_DRAIN_ASKED = threading.Event()


class _DrainNow(BaseException):
    """Second SIGTERM/SIGINT: release the current lease and exit.

    A ``BaseException`` so a source's own ``except Exception`` cannot
    swallow the operator's insistence.
    """


class _HeartbeatThread(threading.Thread):
    """Daemon thread re-stamping one lease's beat counter every
    ``interval``.

    A daemon thread (not a per-trial callback) keeps sources heartbeat-
    agnostic: ``execute`` can be one opaque long call and the lease
    still stays warm.  ``kill -9`` takes the thread down with the
    worker — the frozen beat counter is exactly the signal the reaper
    keys on.

    Heartbeat failures are *surfaced*, not swallowed: a vanished lease
    file means the coordinator already reaped this unit, and persistent
    write errors mean the same thing in practice — either way the
    worker is executing on borrowed time, so the thread emits a
    one-shot :class:`RuntimeWarning` naming the unit, sets
    :attr:`warned`, and stops beating (re-stamping a reaped lease
    would only fight the unit's next owner over the file).
    """

    #: consecutive failures before the thread gives up and warns.
    MAX_FAILURES = 3

    def __init__(self, queue: WorkQueue, lease: Lease, interval: float) -> None:
        super().__init__(daemon=True)
        self.queue = queue
        self.lease = lease
        self.interval = interval
        self.warned = False
        # NB: not "_stop" — threading.Thread defines a private _stop()
        # method that an Event attribute would shadow and break join()
        self._halt = threading.Event()
        self._started_at = time.monotonic()

    def run(self) -> None:
        failures = 0
        while not self._halt.wait(self.interval):
            try:
                ok = self.queue.heartbeat(
                    self.lease, elapsed=time.monotonic() - self._started_at
                )
            except Exception:  # noqa: BLE001 — a beat must never kill the worker
                ok = False
            if ok:
                failures = 0
                continue
            failures += 1
            if not self.lease.path.exists() or failures >= self.MAX_FAILURES:
                self.warned = True
                warnings.warn(
                    f"heartbeat lost for unit {self.lease.id}: the lease "
                    "was reaped or cannot be refreshed; this worker keeps "
                    "executing but the unit may be reassigned (its "
                    "duplicate completion is harmless)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


def worker_main(
    source: FabricSource,
    root,
    worker_id: str,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_retries: int = DEFAULT_MAX_RETRIES,
    backoff: float = 0.5,
    poll: float = 0.05,
    fs=None,
    install_signals: bool = True,
) -> int:
    """One worker process: claim → heartbeat → execute → complete, until
    the queue is drained.  Returns the number of units completed.

    Graceful drain: the first ``SIGTERM``/``SIGINT`` asks the worker to
    finish its current unit and exit (no new claims); a second one
    interrupts the unit and cleanly *releases* the lease — back to
    pending, no retry burned — before exiting.  A third signal is never
    needed: the coordinator escalates to ``SIGKILL`` and releases the
    lease itself.  ``install_signals=False`` (or running on a
    non-main thread, where handlers cannot be installed) skips the
    handlers.

    Module-level (not a closure) so ``multiprocessing`` can spawn it on
    any start method.
    """
    queue = WorkQueue(root, fs=fs)
    queue.ensure_dirs()
    store = source.store(root)
    completed = 0
    _DRAIN_ASKED.clear()
    # the meter may carry fork-inherited parent counts; persisting the
    # delta keeps fleet merges (``repro top``, the coordinator) exact
    entry_snapshot = obs_metrics.DEFAULT.snapshot()

    def _on_signal(signum, frame):
        if _DRAIN_ASKED.is_set():
            raise _DrainNow()
        _DRAIN_ASKED.set()

    previous = {}
    if install_signals:
        try:
            for sig in (signal.SIGTERM, signal.SIGINT):
                previous[sig] = signal.signal(sig, _on_signal)
        except ValueError:
            previous = {}  # not the main thread — run signal-less
    try:
        while True:
            if _DRAIN_ASKED.is_set():
                return completed
            lease = queue.claim(worker_id)
            if lease is None:
                if queue.drained():
                    return completed
                time.sleep(poll)  # backoff windows or other workers' leases
                continue
            beat = _HeartbeatThread(
                queue, lease, interval=max(lease_ttl / 4, 0.02)
            )
            beat.start()
            try:
                with obs_tracing.span("fabric.unit", unit=lease.id,
                                      worker=worker_id):
                    result = source.execute(lease.unit, store, worker_id)
            except _DrainNow:
                beat.stop()
                queue.release(lease, note=f"released by {worker_id} on drain")
                return completed
            except Exception as exc:  # noqa: BLE001 — unit errors are retryable
                beat.stop()
                queue.fail_lease(lease, f"{type(exc).__name__}: {exc}",
                                 max_retries=max_retries, backoff=backoff)
                continue
            beat.stop()
            queue.complete(lease, result)
            completed += 1
    finally:
        try:
            obs_metrics.write_snapshot_file(
                metrics_dir(root) / f"{worker_id}.json",
                snapshot=obs_metrics.diff_snapshots(
                    obs_metrics.DEFAULT.snapshot(), entry_snapshot),
                fs=fs)
        except OSError:
            pass  # telemetry must never fail the worker
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):
                pass
        _DRAIN_ASKED.clear()  # after the handlers: set() takes a lock


# ---------------------------------------------------------------------------
# coordinator


@dataclass
class DrainReport:
    """Outcome of one :meth:`Coordinator.drain`."""

    rounds: int
    units_done: int
    units_failed: int
    reassigned: int
    respawned: int
    workers: int
    complete: bool
    failed: List[dict] = field(default_factory=list)
    result: Optional[object] = None
    #: a SIGTERM/SIGINT cut the drain short (partial progress returned).
    interrupted: bool = False
    #: per-worker status the coordinator observed: worker id ->
    #: ``{"last_heartbeat_age", "retries", "requeues", "crashes",
    #: "unit"}`` — ``repro drain --json`` surfaces this verbatim.
    worker_stats: Dict[str, dict] = field(default_factory=dict)
    #: fleet-wide metric snapshot (the workers' persisted snapshots
    #: folded with :func:`repro.obs.merge_snapshots`), or ``None``
    #: when no worker wrote one.
    fleet_metrics: Optional[dict] = None


class Coordinator:
    """Plans units, runs the worker fleet, reaps leases, respawns dead
    workers, and aggregates when the source reports the problem done.

    ``self.procs`` (worker slot -> live ``Process``) is deliberately
    inspectable: the kill-safety tests reach in and ``SIGKILL`` a
    worker mid-lease to prove recovery.

    Graceful drain: :meth:`stop` (any thread; also SIGTERM/SIGINT during
    :meth:`drain`) stops planning and SIGTERMs the fleet (finish your
    unit); after ``drain_grace`` seconds a second SIGTERM makes
    stragglers release their lease, and a final SIGKILL is the backstop,
    releasing the killed worker's lease at once.  The partial
    :class:`DrainReport` comes back with ``interrupted=True`` and the
    next drain resumes exactly where this one stopped.
    """

    def __init__(
        self,
        source: FabricSource,
        root,
        workers: int = 2,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff: float = 0.5,
        poll: float = 0.05,
        max_rounds: int = 1000,
        max_respawns: int = 50,
        unit_timeout: Optional[float] = None,
        max_unit_crashes: int = DEFAULT_MAX_UNIT_CRASHES,
        drain_grace: float = DEFAULT_DRAIN_GRACE,
        fs=None,
    ) -> None:
        self.source = source
        self.root = Path(root)
        self.workers = max(1, int(workers))
        self.lease_ttl = float(lease_ttl)
        self.max_retries = int(max_retries)
        self.backoff = float(backoff)
        self.poll = float(poll)
        self.max_rounds = int(max_rounds)
        self.max_respawns = int(max_respawns)
        self.unit_timeout = (
            float(unit_timeout) if unit_timeout is not None else None
        )
        self.max_unit_crashes = int(max_unit_crashes)
        self.drain_grace = float(drain_grace)
        self.fs = fs
        self.queue = WorkQueue(root, fs=fs)
        self.procs: Dict[int, multiprocessing.Process] = {}
        #: worker slot -> identity of the process currently in it; ids
        #: are unique per spawn (``w<slot>.<seq>``) so a respawned
        #: slot's crash is never misattributed to its predecessor's unit
        self.slot_owner: Dict[int, str] = {}
        self.reassigned = 0
        self.respawned = 0
        self.interrupted = False
        self._halt = threading.Event()
        self._spawn_seq = 0
        #: worker id -> accumulated status (heartbeat age, retries,
        #: requeues, crashes) observed across reap scans
        self.worker_stats: Dict[str, dict] = {}

    def stop(self) -> None:
        """Wind the drain down gracefully; safe from any thread."""
        self._halt.set()

    def _worker_stat(self, worker: str) -> dict:
        return self.worker_stats.setdefault(
            worker, {"last_heartbeat_age": None, "retries": 0,
                     "requeues": 0, "crashes": 0, "unit": None})

    def _spawn(self, slot: int) -> None:
        worker_id = f"w{slot}.{self._spawn_seq}"
        self._spawn_seq += 1
        proc = multiprocessing.Process(
            target=worker_main,
            args=(self.source, self.root, worker_id),
            kwargs={
                "lease_ttl": self.lease_ttl,
                "max_retries": self.max_retries,
                "backoff": self.backoff,
                "poll": self.poll,
                "fs": self.fs,
            },
            daemon=True,
        )
        proc.start()
        self.procs[slot] = proc
        self.slot_owner[slot] = worker_id

    def _run_round(self) -> None:
        """Run the fleet until the queue drains, reaping and respawning."""
        try:
            for slot in range(self.workers):
                self._spawn(slot)
            while not self.queue.drained():
                if self._halt.is_set():
                    self.interrupted = True
                    break
                requeued, _ = self.queue.reap_expired(
                    self.lease_ttl, self.max_retries, self.backoff,
                    unit_timeout=self.unit_timeout,
                )
                self.reassigned += requeued
                for unit_id, info in self.queue.last_lease_info.items():
                    stat = self._worker_stat(info["owner"])
                    stat["last_heartbeat_age"] = info["heartbeat_age"]
                    stat["retries"] = max(stat["retries"], info["retries"])
                    stat["unit"] = unit_id
                for reaped in self.queue.last_reaped:
                    self._worker_stat(reaped["owner"])["requeues"] += 1
                for slot, proc in list(self.procs.items()):
                    if proc.exitcode is None or proc.exitcode == 0:
                        continue
                    # a worker died (crash or kill) with work outstanding:
                    # recover its lease *now* (no TTL wait) and diagnose
                    # poison units before burning another process on them
                    owner = self.slot_owner.get(slot, f"w{slot}")
                    rq, _ = self.queue.fail_dead_owner(
                        owner,
                        max_crashes=self.max_unit_crashes,
                        exitcode=proc.exitcode,
                    )
                    self.reassigned += rq
                    self._worker_stat(owner)["crashes"] += 1
                    if self.respawned >= self.max_respawns:
                        raise FabricError(
                            f"worker fleet died {self.respawned} times; "
                            "giving up (inspect fabric/failed/ and records)"
                        )
                    self.respawned += 1
                    self._spawn(slot)
                # wake the moment a worker exits, not a poll later
                multiprocessing.connection.wait(
                    [p.sentinel for p in self.procs.values()
                     if p.exitcode is None],
                    timeout=self.poll)
        finally:
            if not self.interrupted:  # the queue drained: workers exit
                deadline = time.time() + max(self.lease_ttl, 5.0)
                for proc in self.procs.values():
                    proc.join(timeout=max(deadline - time.time(), 0.1))
            self._stop_fleet_graceful()  # stragglers, if any
            self.procs.clear()
            self.slot_owner.clear()

    def _stop_fleet_graceful(self) -> None:
        """SIGTERM (finish unit) → SIGTERM (release lease) → SIGKILL."""
        for escalation in range(2):
            stragglers = [p for p in self.procs.values() if p.is_alive()]
            if not stragglers:
                return
            for proc in stragglers:
                proc.terminate()  # SIGTERM: the worker's drain handler
            deadline = time.time() + self.drain_grace
            for proc in stragglers:
                proc.join(timeout=max(deadline - time.time(), 0.1))
        for slot, proc in self.procs.items():
            if proc.is_alive():
                proc.kill()  # backstop: its lease is released right away
                proc.join(timeout=5.0)
                owner = self.slot_owner.get(slot, f"w{slot}")
                self.queue.release_leases(
                    f"released after {owner} was killed on drain", owner)

    def drain(self) -> DrainReport:
        """Drive the source to completion (or to stuck-with-failures).

        Each round: plan units, enqueue the new ones, run the fleet
        until the queue drains.  Single-round sources finish in one
        pass; the exploration source keeps planning as the frontier
        grows.  Raises :class:`FabricError` only when stuck (see there) —
        units that exhausted retries are *reported*, not raised, so a
        partial drain still returns its progress; so does a stopped one
        (``interrupted=True``).
        """
        previous = {}
        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGTERM, signal.SIGINT):
                previous[sig] = signal.signal(
                    sig, lambda signum, frame: self.stop())
        try:
            store = self.source.store(self.root)
            rounds = 0
            for round_index in range(self.max_rounds):
                if self._halt.is_set():
                    self.interrupted = True
                    break
                units = self.source.plan(store, round_index)
                self.queue.initialize(units)
                # nothing new to run: stop when nothing was offered, the
                # source is finished, or only failed units were offered;
                # otherwise the offer is done but its output is gone (say,
                # quarantined by ``fsck --repair``), so it runs again
                if self.queue.drained() and (
                        not units or self.source.finished(store)
                        or not self.queue.reopen(units)):
                    break
                rounds += 1
                self._run_round()
                if self.interrupted:
                    break
                if self.queue.failed_units():
                    break
            else:
                raise FabricError(
                    f"drain did not converge within {self.max_rounds} rounds"
                )
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)

        failed = self.queue.failed_units()
        complete = (
            not failed and not self.interrupted and self.source.finished(store)
        )
        return DrainReport(
            rounds=rounds,
            units_done=len(self.queue.done_units()),
            units_failed=len(failed),
            reassigned=self.reassigned,
            respawned=self.respawned,
            workers=self.workers,
            complete=complete,
            failed=failed,
            result=self.source.result(store) if complete else None,
            interrupted=self.interrupted,
            worker_stats={w: dict(s) for w, s in self.worker_stats.items()},
            fleet_metrics=fleet_snapshot(self.root) or None,
        )


def drain_campaign(
    spec: FigureSpec,
    root,
    *,
    seed: int = 0,
    trials: Optional[int] = None,
    n_values: Optional[Sequence[int]] = None,
    max_steps_factor: int = 50,
    workers: int = 2,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    unit_trials: int = DEFAULT_UNIT_TRIALS,
    max_retries: int = DEFAULT_MAX_RETRIES,
    **coordinator_kwargs,
) -> DrainReport:
    """Drain ``spec``'s campaign at ``root`` with a worker fleet.

    Convenience wrapper: builds the :class:`CampaignSource` and
    :class:`Coordinator` with matching knobs and runs one drain.
    """
    source = CampaignSource(
        spec,
        seed=seed,
        trials=trials,
        n_values=n_values,
        max_steps_factor=max_steps_factor,
        unit_trials=unit_trials,
    )
    return Coordinator(
        source,
        root,
        workers=workers,
        lease_ttl=lease_ttl,
        max_retries=max_retries,
        **coordinator_kwargs,
    ).drain()
