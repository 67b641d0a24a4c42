"""Fabric semantics: leases, reassignment, kill-safety, compaction.

The contract under test (see :mod:`repro.experiments.fabric` and
:mod:`repro.experiments.columnar`):

* exactly one worker wins a claim race; double completion is harmless;
* an expired lease is reassigned with bounded retries, then parked as
  failed — and a ``kill -9``'d worker's units land with another worker
  so the drained aggregate is **byte-identical** to a serial run;
* compaction preserves the record stream byte-for-byte through
  aggregation, answers status without reading JSONL, survives pruning
  of the JSONL files, and goes stale the moment a record file grows.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.experiments.campaign import (
    CampaignStore,
    aggregate_payload,
    aggregate_records,
    campaign_status,
    run_campaign,
    _plan_cells,
)
from repro.experiments.columnar import (
    ColumnarStore,
    _decode_column,
    _encode_column,
    compact_store,
    iter_store_records,
)
from repro.experiments.config import ExperimentConfig, FigureSpec
from repro.experiments.fabric import (
    CampaignSource,
    Coordinator,
    ExplorationSource,
    FabricError,
    FabricSource,
    Lease,
    WorkQueue,
    _HeartbeatThread,
    drain_campaign,
    worker_main,
)
from repro.testing.faults import Fault, FaultPlan, FaultyFS


def tiny_spec() -> FigureSpec:
    """A two-series grid small enough for dozens of drains."""
    return FigureSpec(
        figure="figT",
        title="fabric test grid",
        configs=(
            ExperimentConfig(game="asg", mode="sum", policy="maxcost",
                             topology="budget", budget=1),
            ExperimentConfig(game="asg", mode="sum", policy="random",
                             topology="budget", budget=2),
        ),
        n_values=(8,),
        trials=6,
    )


def serial_payload(root, spec, **kwargs) -> bytes:
    run = run_campaign(spec, root, n_jobs=1, **kwargs)
    assert run.complete
    return json.dumps(aggregate_payload(run.result), sort_keys=True).encode()


def result_payload(result) -> bytes:
    return json.dumps(aggregate_payload(result), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# queue semantics


class TestWorkQueue:
    def units(self, n=3):
        return [{"id": f"u{i}", "payload": i} for i in range(n)]

    def test_initialize_is_idempotent(self, tmp_path):
        q = WorkQueue(tmp_path)
        assert q.initialize(self.units()) == 3
        assert q.initialize(self.units()) == 0
        lease = q.claim("w0")
        q.complete(lease)
        # known in done/ and leased/ too, not just pending/
        assert q.initialize(self.units()) == 0
        assert q.counts() == {"pending": 2, "leased": 0, "done": 1, "failed": 0}

    def test_claim_is_exclusive_and_ordered(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize(self.units(2))
        a = q.claim("w0")
        b = q.claim("w1")
        assert a.id == "u0" and b.id == "u1"  # sorted order
        assert a.unit["owner"] == "w0"
        assert q.claim("w2") is None
        assert not q.drained()  # leases in flight

    def test_backoff_window_defers_requeued_unit(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        lease = q.claim("w0")
        q.fail_lease(lease, "boom", max_retries=3, backoff=30.0)
        # requeued, but not_before is 30s out — not claimable yet
        assert q.counts()["pending"] == 1
        assert q.claim("w1") is None

    def test_retry_exhaustion_parks_unit_as_failed(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        for attempt in range(3):
            lease = q.claim("w0")
            assert lease is not None, f"attempt {attempt} found no unit"
            q.fail_lease(lease, "boom", max_retries=2, backoff=0.0)
        assert q.counts() == {"pending": 0, "leased": 0, "done": 0, "failed": 1}
        [failed] = q.failed_units()
        assert failed["retries"] == 3 and "boom" in failed["error"]
        assert q.drained()

    def test_double_completion_is_harmless(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        first = q.claim("w0")
        # simulate a reassignment racing the original owner: the same
        # unit completed from two leases
        ghost = Lease(dict(first.unit), first.path)
        assert q.complete(first, {"trials": 2}) is True
        assert q.complete(ghost, {"trials": 2}) is False
        assert q.counts()["done"] == 1
        [done] = q.done_units()
        assert done["result"] == {"trials": 2}

    def test_reap_expired_requeues_stale_lease(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        lease = q.claim("w0")
        # first sight of the lease starts its TTL clock; it is fresh
        t0 = time.monotonic()
        assert q.reap_expired(ttl=60.0, now=t0) == (0, 0)
        # the beat counter never moves, so one TTL later (of the
        # *reaper's* clock — no sleeping, no mtime games) it expires
        assert q.reap_expired(ttl=60.0, backoff=0.0, now=t0 + 61.0) == (1, 0)
        again = q.claim("w1")
        assert again is not None and again.id == "u0"
        assert again.unit["retries"] == 1
        assert "w0" in again.unit["error"]  # expiry names the late owner

    def test_reap_expired_honors_retry_budget(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        now = time.monotonic()
        for _ in range(2):
            q.claim("w0")
            q.reap_expired(ttl=60.0, max_retries=1, backoff=0.0, now=now)
            now += 61.0
            q.reap_expired(ttl=60.0, max_retries=1, backoff=0.0, now=now)
        assert q.counts()["failed"] == 1
        assert q.drained()

    def test_heartbeat_keeps_lease_warm(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        lease = q.claim("w0")
        t0 = time.monotonic()
        assert q.reap_expired(ttl=60.0, now=t0) == (0, 0)
        # a beat changes the (owner, beat) fingerprint, restarting the
        # TTL clock — the lease survives a reap a full TTL later
        assert q.heartbeat(lease, elapsed=30.0) is True
        assert q.reap_expired(ttl=60.0, now=t0 + 61.0) == (0, 0)
        # ...but silence after that beat expires it one TTL further on
        assert q.reap_expired(ttl=60.0, backoff=0.0,
                              now=t0 + 122.0) == (1, 0)

    def test_clock_skew_cannot_expire_a_healthy_lease(self, tmp_path):
        """The lease file's wall-clock timestamps are irrelevant: only
        content fingerprints against the reaper's monotonic clock
        decide expiry, so hours of mtime skew change nothing."""
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        lease = q.claim("w0")
        skewed = time.time() - 7200.0  # mtime two hours in the past
        os.utime(lease.path, (skewed, skewed))
        t0 = time.monotonic()
        assert q.reap_expired(ttl=1.0, now=t0) == (0, 0)
        q.heartbeat(lease)
        os.utime(lease.path, (skewed, skewed))  # re-skew after the beat
        assert q.reap_expired(ttl=1.0, now=t0 + 0.5) == (0, 0)

    def test_unit_timeout_watchdog_reclaims_stuck_unit(self, tmp_path):
        """A unit whose worker heartbeats forever but never finishes is
        reclaimed once its self-reported elapsed time passes the
        watchdog bound — and parks as failed when it is stuck
        everywhere."""
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        lease = q.claim("w0")
        t0 = time.monotonic()
        q.heartbeat(lease, elapsed=5.0)
        # beating and under the bound: safe
        assert q.reap_expired(ttl=60.0, now=t0, unit_timeout=10.0) == (0, 0)
        q.heartbeat(lease, elapsed=11.0)
        # still beating, but over the bound: reclaimed despite beats
        assert q.reap_expired(ttl=60.0, backoff=0.0, now=t0 + 0.1,
                              unit_timeout=10.0, max_retries=1) == (1, 0)
        again = q.claim("w1")
        assert "unit_timeout" in again.unit["error"]
        q.heartbeat(again, elapsed=12.0)
        assert q.reap_expired(ttl=60.0, backoff=0.0, now=t0 + 0.2,
                              unit_timeout=10.0, max_retries=1) == (0, 1)
        [failed] = q.failed_units()
        assert "unit_timeout" in failed["error"]

    def test_release_requeues_without_burning_a_retry(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        lease = q.claim("w0")
        q.release(lease, note="released by w0 on drain")
        assert q.counts()["pending"] == 1 and q.counts()["leased"] == 0
        again = q.claim("w1")  # immediately claimable: no backoff window
        assert again is not None and again.unit.get("retries", 0) == 0
        assert again.unit["owner"] == "w1"

    def test_poison_unit_parks_with_diagnosis(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        q.claim("w0.0")
        assert q.fail_dead_owner("w0.0", max_crashes=1,
                                 exitcode=-9) == (1, 0)
        lease = q.claim("w0.1")
        assert lease.unit["crashes"] == 1
        assert lease.unit.get("retries", 0) == 0  # crashes are not retries
        assert q.fail_dead_owner("w0.1", max_crashes=1,
                                 exitcode=-11) == (0, 1)
        [failed] = q.failed_units()
        assert failed["diagnosis"] == "poison" and failed["crashes"] == 2
        diagnosis = json.loads((q.failed / "u0.diagnosis").read_text())
        assert [c["worker"] for c in diagnosis["crashed_workers"]] == \
            ["w0.0", "w0.1"]
        assert diagnosis["crashed_workers"][1]["exitcode"] == -11
        assert q.drained()  # the sidecar does not read as a queue unit

    def test_fail_dead_owner_leaves_other_leases_alone(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}, {"id": "u1"}])
        q.claim("w0")
        q.claim("w1")
        assert q.fail_dead_owner("w0", exitcode=-9) == (1, 0)
        assert q.counts() == {"pending": 1, "leased": 1, "done": 0,
                              "failed": 0}


# ---------------------------------------------------------------------------
# campaign drain


class TestCampaignDrain:
    def test_drain_matches_serial_byte_for_byte(self, tmp_path):
        spec = tiny_spec()
        serial = serial_payload(tmp_path / "serial", spec, seed=3)
        report = drain_campaign(
            spec, tmp_path / "fab", seed=3, workers=3,
            lease_ttl=10.0, unit_trials=2,
        )
        assert report.complete and report.units_failed == 0
        # 2 cells x 6 trials / 2-trial units
        assert report.units_done == 6
        assert result_payload(report.result) == serial

    def test_drain_resumes_partial_store(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        partial = run_campaign(spec, root, n_jobs=1, max_new_trials=5)
        assert not partial.complete
        report = drain_campaign(spec, root, workers=2, lease_ttl=10.0,
                                unit_trials=3)
        assert report.complete
        assert result_payload(report.result) == serial_payload(
            tmp_path / "serial", spec)

    def test_redrain_after_fsck_repair_recomputes_the_lost_trial(
            self, tmp_path):
        """The recovery path for a damaged record: ``fsck --repair``
        quarantines it, and the next drain reopens the done unit that
        held it and recomputes just that trial."""
        spec = tiny_spec()
        root = tmp_path / "c"
        assert drain_campaign(spec, root, workers=1, unit_trials=3).complete
        store = CampaignStore(root)
        # bit-flip trial 1, the middle of the done block [0, 1, 2]
        path, lines, i = next(
            (f, lines, k) for f in store.record_files()
            for lines in [f.read_text().splitlines()]
            for k, line in enumerate(lines) if json.loads(line)["trial"] == 1)
        rec = json.loads(lines[i])
        rec["steps"] += 1  # body no longer matches its CRC
        lines[i] = json.dumps(rec, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert store.fsck(repair=True)["repaired"] == 1

        report = drain_campaign(spec, root, workers=1, unit_trials=3,
                                max_rounds=5)
        assert report.complete and report.rounds == 1
        assert result_payload(report.result) == serial_payload(
            tmp_path / "serial", spec)
        trials = [(r["cell"], r["trial"]) for r in store.iter_all_records()]
        assert len(trials) == len(set(trials)) == 2 * 6

    def test_drain_on_complete_store_plans_nothing(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        serial = serial_payload(root, spec)
        report = drain_campaign(spec, root, workers=2)
        assert report.complete and report.rounds == 0
        assert report.units_done == 0
        assert result_payload(report.result) == serial

    def test_unit_trials_reproduce_serial_records(self, tmp_path):
        """A unit executing an arbitrary index block writes the exact
        rows the serial run writes (positional seeding)."""
        spec = tiny_spec()
        serial_root, unit_root = tmp_path / "s", tmp_path / "u"
        run_campaign(spec, serial_root, n_jobs=1)
        source = CampaignSource(spec)
        store = source.store(unit_root)
        units = source.plan(store, 0)
        for unit in units:
            source.execute(unit, store, "w0")
        serial_rows = sorted(
            json.dumps(r, sort_keys=True)
            for r in CampaignStore(serial_root).iter_records()
        )
        unit_rows = sorted(
            json.dumps(r, sort_keys=True) for r in store.iter_records()
        )
        assert unit_rows == serial_rows


@dataclass(frozen=True)
class _SlowCampaignSource(CampaignSource):
    """Per-trial sleep, so a drain is slow enough to kill workers in."""

    delay: float = 0.1

    def execute(self, unit, store, worker):
        time.sleep(self.delay * len(unit["trials"]))
        return super().execute(unit, store, worker)


class TestKillSafety:
    def test_kill9_mid_lease_recovers_byte_identical(self, tmp_path):
        """The acceptance proof: SIGKILL a worker holding a lease; the
        drain still completes and the aggregate is byte-identical to
        the serial run."""
        spec = tiny_spec()
        serial = serial_payload(tmp_path / "serial", spec, seed=7)

        source = _SlowCampaignSource(spec, seed=7, unit_trials=2, delay=0.12)
        coord = Coordinator(
            source, tmp_path / "fab", workers=3,
            lease_ttl=1.0, poll=0.02, backoff=0.0,
        )
        report_box = {}

        def run():
            report_box["report"] = coord.drain()

        thread = threading.Thread(target=run)
        thread.start()
        # wait for a worker to hold a lease, then SIGKILL it mid-unit
        queue = WorkQueue(tmp_path / "fab")
        victim = None
        deadline = time.time() + 30.0
        while time.time() < deadline:
            if list(queue.leased.glob("*.json")) and coord.procs:
                for proc in coord.procs.values():
                    if proc.is_alive() and proc.pid:
                        victim = proc.pid
                        break
            if victim:
                break
            time.sleep(0.005)
        assert victim, "no worker took a lease within 30s"
        os.kill(victim, signal.SIGKILL)
        thread.join(timeout=120.0)
        assert not thread.is_alive(), "drain did not finish after the kill"

        report = report_box["report"]
        assert report.complete and report.units_failed == 0
        assert report.respawned >= 1  # the killed worker was replaced
        assert result_payload(report.result) == serial


# ---------------------------------------------------------------------------
# columnar compaction


class TestColumnar:
    def test_column_codec_roundtrip(self):
        for values in (
            ["converged", "converged", "capped", None, "converged"],
            [1, 2, 3, None],
            [{"a": 1}, {"a": 2}],
            list("ab") * 300,  # dict-encodable, > one would-be chunk
            [f"v{i}" for i in range(300)],  # too many distinct to dict
        ):
            assert _decode_column(_encode_column(values)) == values

    def test_low_cardinality_strings_are_dict_encoded(self):
        payload = _encode_column(["x", "y", "x", None, "x"])
        assert set(payload) == {"dict", "codes"}
        assert payload["dict"] == ["x", "y", None]

    def test_compacted_aggregate_is_byte_identical(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        run = run_campaign(spec, root, n_jobs=1)
        store = CampaignStore(root)
        before = sorted(
            json.dumps(r, sort_keys=True) for r in store.iter_records()
        )
        summary = compact_store(store, chunk_rows=5)
        assert summary["rows"] == len(before) and summary["chunks"] >= 3
        after = sorted(
            json.dumps(r, sort_keys=True) for r in iter_store_records(store)
        )
        assert after == before
        cells = _plan_cells(spec, spec.n_values)
        agg = aggregate_records(spec, cells, iter_store_records(store),
                                spec.trials)
        assert result_payload(agg) == result_payload(run.result)

    def test_status_answers_from_columnar_after_prune(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        run_campaign(spec, root, n_jobs=1)
        store = CampaignStore(root)
        summary = compact_store(store, prune=True)
        assert summary["pruned"] and not store.record_files()
        status = campaign_status(root)
        assert status["complete"] and status["done"] == status["total"] == 12
        # and the scan path agrees even with the JSONL gone
        assert campaign_status(root, prefer_columnar=False)["done"] == 12

    def test_resume_after_prune_recomputes_nothing(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        first = run_campaign(spec, root, n_jobs=1)
        compact_store(CampaignStore(root), prune=True)
        again = run_campaign(spec, root, n_jobs=1)
        assert again.new_trials == 0 and again.skipped_existing == 12
        assert result_payload(again.result) == result_payload(first.result)

    def test_grown_store_reads_as_stale_and_merges(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        run_campaign(spec, root, n_jobs=1, max_new_trials=8)
        store = CampaignStore(root)
        compact_store(store)
        columnar = ColumnarStore(root)
        assert columnar.fresh(store)
        # more trials land in the same shard file → it grows → stale
        run_campaign(spec, root, n_jobs=1)
        assert not columnar.fresh(store)
        status = campaign_status(root)  # falls back to the merged scan
        assert status["complete"] and status["done"] == 12
        # merged view holds every record exactly once after dedupe
        done = store.completed_index(store.iter_all_records())
        assert sum(len(v) for v in done.values()) == 12

    def test_changed_trials_bound_invalidates_summary(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        run_campaign(spec, root, n_jobs=1)
        store = CampaignStore(root)
        compact_store(store)
        columnar = ColumnarStore(root)
        assert columnar.cells_done(trials=6) is not None
        assert columnar.cells_done(trials=4) is None  # bound changed → rescan

    def test_compaction_swap_replaces_previous_layout(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        run_campaign(spec, root, n_jobs=1, max_new_trials=6)
        store = CampaignStore(root)
        compact_store(store)
        first_rows = ColumnarStore(root).rows()
        run_campaign(spec, root, n_jobs=1)
        compact_store(store)
        assert ColumnarStore(root).rows() == 12 > first_rows
        assert ColumnarStore(root).fresh(store)


# ---------------------------------------------------------------------------
# exploration drain


class TestExplorationDrain:
    def test_drained_census_matches_serial(self, tmp_path):
        from repro.core.games import AsymmetricSwapGame
        from repro.statespace.explore import explore
        from repro.statespace.store import ExplorationStore

        game = AsymmetricSwapGame("sum")
        serial = explore(game, n=3)
        source = ExplorationSource(game, n=3, shards=2, unit_budget=10)
        report = Coordinator(
            source, tmp_path / "x", workers=2, lease_ttl=10.0
        ).drain()
        assert report.complete
        assert report.result.n_states == serial.n_states
        assert sorted(report.result.equilibria) == sorted(serial.equilibria)

        # compact + prune the drained store; the replay still works
        store = ExplorationStore(tmp_path / "x")
        summary = compact_store(store, prune=True)
        assert summary["pruned"] and not store.record_files()
        assert store.status()["complete"]
        replay = explore(game, n=3, store=store)
        assert replay.n_states == serial.n_states

    def test_exploration_unit_executes_in_process(self, tmp_path):
        """One shard unit run directly (no worker process) expands
        states and the source sees the complete store."""
        from repro.core.games import AsymmetricSwapGame
        from repro.statespace.store import ExplorationStore

        game = AsymmetricSwapGame("sum")
        source = ExplorationSource(game, n=3, shards=1, unit_budget=100_000)
        store = ExplorationStore(tmp_path)
        [unit] = source.plan(store, 0)
        result = source.execute(unit, store, "w0")
        assert result["states"] > 0
        assert source.finished(store)
        assert source.result(store).n_states == result["states"]

    def test_truncated_drain_fails_in_the_round_that_truncates(self, tmp_path):
        """The clipped successors stay pending forever, so the drain
        can never finish: it must say so at once, not spin re-planning
        until ``max_rounds``."""
        from repro.core.games import AsymmetricSwapGame

        source = ExplorationSource(AsymmetricSwapGame("sum"), n=4,
                                   max_states=20, shards=1)
        coord = Coordinator(source, tmp_path, workers=1, poll=0.01,
                            max_rounds=40)
        started = time.monotonic()
        with pytest.raises(FabricError,
                           match=r"truncated at max_states=20"):
            coord.drain()
        assert time.monotonic() - started < 5.0
        assert coord.queue.counts() == {"pending": 0, "leased": 0,
                                        "done": 1, "failed": 0}


# ---------------------------------------------------------------------------
# queue and source edge cases (races, torn files, protocol)


class TestWorkQueueEdges:
    def test_torn_unit_file_reads_as_none(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.ensure_dirs()
        torn = q.pending / "u0.json"
        torn.write_text('{"id": "u0"')  # killed mid-write
        assert WorkQueue._read(torn) is None
        assert q.claim("w0") is None  # skipped, not crashed

    def test_claim_lost_rename_race_moves_on(self, tmp_path, monkeypatch):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        orig = WorkQueue._read

        def read_then_racer_claims(path):
            unit = orig(path)
            path.unlink()  # another worker renames it away first
            return unit

        monkeypatch.setattr(WorkQueue, "_read",
                            staticmethod(read_then_racer_claims))
        assert q.claim("w0") is None
        assert q.counts()["leased"] == 0

    def test_claim_survives_reap_at_instant_of_claim(self, tmp_path,
                                                     monkeypatch):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])

        def reaped(path, unit):
            raise OSError("lease vanished under the stamp")

        monkeypatch.setattr(q, "_write", reaped)
        lease = q.claim("w0")
        assert lease is not None and lease.id == "u0"

    def test_operations_on_vanished_lease_are_noops(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.ensure_dirs()
        ghost = Lease({"id": "g", "retries": 0}, q.leased / "g.json")
        q.heartbeat(ghost)  # no file to utime — silently skipped
        assert q.complete(ghost, {"ok": 1}) is True  # done written anyway
        assert q.counts()["done"] == 1
        ghost2 = Lease({"id": "h", "retries": 0}, q.leased / "h.json")
        q.fail_lease(ghost2, "boom", max_retries=0)
        assert q.counts()["failed"] == 1

    def test_reap_cleans_up_lease_completed_by_racer(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.ensure_dirs()
        q._write(q.leased / "u0.json", {"id": "u0"})
        q._write(q.done / "u0.json", {"id": "u0"})
        assert q.reap_expired(ttl=0.0) == (0, 0)
        assert q.counts()["leased"] == 0 and q.counts()["done"] == 1

    def test_reap_skips_vanished_and_torn_leases(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.ensure_dirs()
        # stat() raises: a lease completed between glob and stat
        (q.leased / "dangle.json").symlink_to(q.root / "missing")
        # torn mid-write with an expired heartbeat: unreadable, skipped
        torn = q.leased / "torn.json"
        torn.write_text('{"id": "t"')
        stale = time.time() - 120.0
        os.utime(torn, (stale, stale))
        assert q.reap_expired(ttl=60.0) == (0, 0)


class TestSourceProtocol:
    def test_base_source_is_abstract(self):
        src = FabricSource()
        store = object()
        for call in (
            lambda: src.store("x"),
            lambda: src.plan(store, 0),
            lambda: src.execute({}, store, "w0"),
            lambda: src.finished(store),
            lambda: src.result(store),
        ):
            with pytest.raises(NotImplementedError):
                call()

    def test_campaign_source_plans_a_single_round(self, tmp_path):
        source = CampaignSource(tiny_spec())
        assert source.plan(source.store(tmp_path), 1) == []


# ---------------------------------------------------------------------------
# worker loop and coordinator failure modes


class _ExplodingSource(FabricSource):
    """Every unit raises — exercises the retry/failed-parking path."""

    def store(self, root):
        return CampaignStore(root)

    def plan(self, store, round_index):
        return [{"id": "u0"}] if round_index == 0 else []

    def execute(self, unit, store, worker):
        raise ValueError("synthetic unit failure")

    def finished(self, store):
        return False


class _SuicideSource(_ExplodingSource):
    """The worker process dies mid-unit — exercises fleet collapse."""

    def execute(self, unit, store, worker):
        os.kill(os.getpid(), signal.SIGKILL)


class _EndlessSource(_ExplodingSource):
    """Re-plans fresh units forever — exercises the round budget."""

    def plan(self, store, round_index):
        return [{"id": f"r{round_index}"}]

    def execute(self, unit, store, worker):
        return {}


class _LazySource(_ExplodingSource):
    """Offers one unit that is already done — exercises the re-offer
    fast path (enqueue nothing, run no fleet, move to the next round)."""

    def finished(self, store):
        return True

    def result(self, store):
        return "ok"


class TestWorkerMain:
    def test_worker_drains_queue_in_process(self, tmp_path):
        source = CampaignSource(tiny_spec(), unit_trials=3)
        store = source.store(tmp_path)
        units = source.plan(store, 0)
        queue = WorkQueue(tmp_path)
        queue.initialize(units)
        done = worker_main(source, tmp_path, "w0", lease_ttl=0.2, poll=0.01)
        assert done == len(units) == 4
        assert queue.drained() and source.finished(store)

    def test_worker_parks_failing_unit(self, tmp_path):
        source = _ExplodingSource()
        queue = WorkQueue(tmp_path)
        queue.initialize(source.plan(None, 0))
        done = worker_main(source, tmp_path, "w0", lease_ttl=5.0,
                           max_retries=0, poll=0.01)
        assert done == 0
        [failed] = queue.failed_units()
        assert "ValueError: synthetic unit failure" in failed["error"]

    def test_heartbeat_thread_warns_once_when_lease_vanishes(self, tmp_path):
        """The satellite fix: a reaped-but-running worker is *visible* —
        the beat thread emits one RuntimeWarning and stops beating
        instead of silently swallowing every failure."""
        q = WorkQueue(tmp_path)
        q.ensure_dirs()
        ghost = Lease({"id": "gone", "retries": 0}, q.leased / "gone.json")
        beat = _HeartbeatThread(q, ghost, interval=0.01)
        with pytest.warns(RuntimeWarning, match="heartbeat lost for unit gone"):
            beat.start()
            beat.join(timeout=5.0)
        assert not beat.is_alive() and beat.warned
        beat.stop()  # harmless on an already-finished thread

    def test_heartbeat_thread_beats_and_stops_cleanly(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        lease = q.claim("w0")
        beat = _HeartbeatThread(q, lease, interval=0.01)
        beat.start()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            unit = WorkQueue._read(lease.path)
            if unit is not None and unit.get("beat", 0) >= 2:
                break
            time.sleep(0.01)
        beat.stop()
        assert not beat.is_alive() and not beat.warned
        unit = WorkQueue._read(lease.path)
        assert unit["beat"] >= 2 and unit["owner"] == "w0"
        assert unit["elapsed"] >= 0.0

    def test_worker_finishes_unit_on_first_sigterm(self, tmp_path):
        """Graceful drain, stage one: SIGTERM mid-drain lets the worker
        finish its current unit, then exit cleanly without claiming
        more — nothing is left leased, nothing torn."""
        import multiprocessing

        source = _SlowCampaignSource(tiny_spec(), unit_trials=2, delay=0.15)
        store = source.store(tmp_path)
        units = source.plan(store, 0)
        queue = WorkQueue(tmp_path)
        queue.initialize(units)
        proc = multiprocessing.Process(
            target=worker_main, args=(source, tmp_path, "w0"),
            kwargs={"lease_ttl": 5.0, "poll": 0.01},
        )
        proc.start()
        deadline = time.time() + 30.0
        while time.time() < deadline and not list(queue.leased.glob("*.json")):
            time.sleep(0.005)
        assert list(queue.leased.glob("*.json")), "worker claimed nothing"
        os.kill(proc.pid, signal.SIGTERM)
        proc.join(timeout=60.0)
        assert proc.exitcode == 0  # graceful exit, not a crash
        counts = queue.counts()
        assert counts["leased"] == 0 and counts["failed"] == 0
        assert counts["done"] >= 1  # the in-flight unit was finished
        assert counts["done"] + counts["pending"] == len(units)

    def test_worker_releases_lease_on_second_signal(self, tmp_path):
        """Graceful drain, stage two: a second signal interrupts the
        unit and cleanly releases the lease — requeued, no retry
        burned, records torn mid-write are skipped on read."""
        from repro.experiments.fabric import _DrainNow

        class _BlockingSource(_ExplodingSource):
            def execute(self, unit, store, worker):
                raise _DrainNow()  # what the second SIGTERM raises

        queue = WorkQueue(tmp_path)
        queue.initialize([{"id": "u0"}])
        done = worker_main(_BlockingSource(), tmp_path, "w0",
                           lease_ttl=5.0, poll=0.01, install_signals=False)
        assert done == 0
        assert queue.counts() == {"pending": 1, "leased": 0, "done": 0,
                                  "failed": 0}
        unit = WorkQueue._read(queue.pending / "u0.json")
        assert unit.get("retries", 0) == 0 and "released" in unit["error"]


@dataclass(frozen=True)
class _DeafSource(CampaignSource):
    """A unit that ignores SIGTERM and never finishes on its own."""

    def execute(self, unit, store, worker):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(60)


class TestCoordinatorEdges:
    def test_stopped_drain_kills_a_sigterm_deaf_worker(self, tmp_path):
        """The SIGKILL backstop: a worker deaf to both SIGTERMs is
        killed ``drain_grace`` after the second one, and its lease goes
        straight back to pending — no TTL wait, no retry or crash
        charged to the unit."""
        coord = Coordinator(_DeafSource(tiny_spec(), unit_trials=6),
                            tmp_path, workers=1, poll=0.01, drain_grace=0.2)
        box = {}
        thread = threading.Thread(
            target=lambda: box.update(report=coord.drain()))
        thread.start()
        deadline = time.time() + 30.0
        while not list(coord.queue.leased.glob("*.json")):
            assert time.time() < deadline, "no worker took a lease"
            time.sleep(0.01)
        [victim] = coord.procs.values()
        coord.stop()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert victim.exitcode == -signal.SIGKILL
        report = box["report"]
        assert report.interrupted and not report.complete
        assert coord.queue.counts() == {"pending": 2, "leased": 0,
                                        "done": 0, "failed": 0}
        released = [WorkQueue._read(p) for p in coord.queue.pending.glob("*")]
        [unit] = [u for u in released if "error" in u]
        assert "killed on drain" in unit["error"]
        assert unit["retries"] == 0 and "crashes" not in unit

    def test_drain_reports_exhausted_units(self, tmp_path):
        report = Coordinator(_ExplodingSource(), tmp_path, workers=1,
                             max_retries=0, poll=0.01).drain()
        assert not report.complete and report.result is None
        assert report.units_failed == 1 and report.rounds == 1
        assert "synthetic unit failure" in report.failed[0]["error"]

    def test_fleet_collapse_raises_fabric_error(self, tmp_path):
        coord = Coordinator(_SuicideSource(), tmp_path, workers=1,
                            lease_ttl=30.0, poll=0.02, max_respawns=0)
        with pytest.raises(FabricError, match="worker fleet died"):
            coord.drain()
        assert coord.procs == {}  # the fleet was cleaned up on the way out

    def test_drain_round_budget_raises(self, tmp_path):
        coord = Coordinator(_EndlessSource(), tmp_path, workers=1,
                            max_rounds=2, poll=0.01)
        with pytest.raises(FabricError, match="did not converge"):
            coord.drain()

    def test_drain_skips_already_done_offer(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.ensure_dirs()
        queue._write(queue.done / "u0.json", {"id": "u0"})
        report = Coordinator(_LazySource(), tmp_path, workers=1).drain()
        assert report.complete and report.rounds == 0
        assert report.result == "ok" and report.units_done == 1

    def test_sigint_yields_partial_interrupted_report(self, tmp_path):
        """Graceful coordinator drain: SIGINT mid-round stops planning,
        drains the fleet cleanly (no leases left behind), and returns a
        partial report; a fresh drain resumes to byte-identity."""
        spec = tiny_spec()
        serial = serial_payload(tmp_path / "serial", spec, seed=5)
        source = _SlowCampaignSource(spec, seed=5, unit_trials=1, delay=0.4)
        coord = Coordinator(source, tmp_path / "fab", workers=2,
                            lease_ttl=10.0, poll=0.02, drain_grace=30.0)

        def interrupt_once_leased():
            queue = WorkQueue(tmp_path / "fab")
            deadline = time.time() + 30.0
            while time.time() < deadline:
                if list(queue.leased.glob("*.json")):
                    break
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGINT)

        threading.Thread(target=interrupt_once_leased).start()
        report = coord.drain()
        assert report.interrupted and not report.complete
        assert report.result is None
        assert coord.queue.counts()["leased"] == 0  # fleet exited cleanly
        # resuming finishes the campaign with the serial bytes
        fast = CampaignSource(spec, seed=5, unit_trials=1)
        resumed = Coordinator(fast, tmp_path / "fab", workers=2,
                              lease_ttl=10.0, poll=0.02).drain()
        assert resumed.complete and not resumed.interrupted
        assert result_payload(resumed.result) == serial


# ---------------------------------------------------------------------------
# columnar edge cases


def synthetic_store(root, rows=12, cells=2, manifest=True) -> CampaignStore:
    """``rows`` records across ``cells`` cells, written as one JSONL."""
    store = CampaignStore(root)
    store.root.mkdir(parents=True, exist_ok=True)
    per_cell = rows // cells
    if manifest:
        (store.root / "manifest.json").write_text(json.dumps({
            "version": 1, "figure": "synth", "trials": per_cell,
            "cells": [{"key": f"c{c}", "series": f"s{c}", "n": 8}
                      for c in range(cells)],
        }))
    with store.open_tagged_writer("synth") as fh:
        for i in range(rows):
            store.append(fh, {"cell": f"c{i % cells}", "trial": i // cells,
                              "steps": i, "status": "converged"})
    return store


class TestColumnarEdges:
    def test_uncompacted_root_reads_empty(self, tmp_path):
        store = CampaignStore(tmp_path)
        columnar = ColumnarStore(tmp_path)
        assert not columnar.exists()
        assert columnar.load_manifest() is None
        assert columnar.rows() == 0
        assert columnar.cells_done() is None
        assert not columnar.fresh(store)
        assert columnar.covered_files(store) == set()
        assert list(columnar.iter_rows()) == []

    def test_summary_needs_wellformed_store_manifest(self, tmp_path):
        # no store manifest: compaction works, but no status summary
        bare = synthetic_store(tmp_path / "a", manifest=False)
        assert compact_store(bare)["rows"] == 12
        assert ColumnarStore(bare.root).cells_done() is None
        # a manifest without a usable trials bound: same
        bad = synthetic_store(tmp_path / "b")
        (bad.root / "manifest.json").write_text('{"figure": "x"}')
        compact_store(bad)
        assert ColumnarStore(bad.root).cells_done() is None

    def test_stale_tmp_and_old_dirs_are_cleared(self, tmp_path):
        store = synthetic_store(tmp_path)
        tmp_dir = store.root / f".columnar-{os.getpid()}.tmp"
        tmp_dir.mkdir()
        (tmp_dir / "junk").write_text("x")  # a previous kill's leftovers
        compact_store(store)
        assert not tmp_dir.exists()
        old = store.root / f".columnar-old-{os.getpid()}"
        old.mkdir()
        compact_store(store)
        assert not old.exists()
        assert ColumnarStore(tmp_path).rows() == 12

    def test_prune_tolerates_vanished_source_file(self, tmp_path):
        class GhostlyStore(CampaignStore):
            """Snapshots a record file that no longer exists at prune
            time (deleted by a concurrent prune)."""

            def record_file_sizes(self):
                sizes = dict(super().record_file_sizes())
                sizes["trials-ghost.jsonl"] = 123
                return sizes

        synthetic_store(tmp_path)
        summary = compact_store(GhostlyStore(tmp_path),
                                prune=True)
        assert "trials-ghost.jsonl" not in summary["pruned"]
        assert summary["pruned"] and not CampaignStore(tmp_path).record_files()

    def test_failed_compaction_leaves_no_debris(self, tmp_path):
        synthetic_store(tmp_path)
        fs = FaultyFS(FaultPlan((Fault(op="write", kind="short",
                                       path="chunk0-col1"),)))
        with pytest.raises(OSError, match="short write"):
            compact_store(CampaignStore(tmp_path, fs=fs))
        assert [fired[:2] for fired in fs.fired] == [("short", "write")]
        assert not list(tmp_path.glob(".columnar-*"))  # tmp removed
        assert not ColumnarStore(tmp_path).exists()

    def test_reader_refuses_a_non_chunks_manifest(self, tmp_path):
        store = synthetic_store(tmp_path)
        compact_store(store)
        columnar = ColumnarStore(tmp_path)
        manifest = columnar.load_manifest()
        manifest["format"] = "parquet"  # what an older version could write
        columnar.manifest_path().write_text(json.dumps(manifest))
        with pytest.raises(RuntimeError, match="'parquet' compaction"):
            list(columnar.iter_rows())
        with pytest.raises(RuntimeError, match="'parquet' compaction"):
            store.completed_index(store.iter_all_records())
