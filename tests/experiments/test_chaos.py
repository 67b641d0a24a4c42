"""Chaos suite: seeded fault injection against the campaign fabric.

Every test here drives a *complete* drain of a small campaign through a
:class:`~repro.testing.faults.FaultyFS` armed with a fault plan —
crashes at rename boundaries, torn and short appends, a full disk,
clock skew, stalled workers, compactions killed mid-swap — "rebooting"
after each injected death and re-driving until the campaign finishes.
The acceptance bar is always the same and always exact: the faulted
drain's aggregate must be **byte-identical** to a serial run's, because
aggregates are pure functions of the deduped record set and the fabric
is designed so no fault can corrupt that set undetected.

The committed plans (one per named failure family) make the suite a
regression net; the seeded plans (:meth:`FaultPlan.seeded`) make it a
search — any seed replays its exact failure sequence, so a failing
seed is a permanent reproducer.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import durable
from repro.experiments.campaign import (
    CampaignStore,
    aggregate_payload,
    run_campaign,
)
from repro.experiments.columnar import (
    ColumnarStore,
    compact_store,
    iter_store_records,
)
from repro.experiments.config import ExperimentConfig, FigureSpec
from repro.experiments.fabric import (
    CampaignSource,
    WorkQueue,
    fleet_snapshot,
    metrics_dir,
    worker_main,
)
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import Tracer, iter_trace, summarize_trace
from repro.service.jobs import JobManager, _grid_for, parse_job_request
from repro.testing.faults import Fault, FaultPlan, FaultyFS, InjectedCrash
from tests.service.conftest import drive, trial_payload

TTL = 60.0  # reaped via explicit ``now=`` instants; wall time never waits


def chaos_spec() -> FigureSpec:
    """Two series, four trials: 4 work units at unit_trials=2 — enough
    operations for every plan to bite, small enough for dozens of
    faulted drains."""
    return FigureSpec(
        figure="figC",
        title="chaos test grid",
        configs=(
            ExperimentConfig(game="asg", mode="sum", policy="maxcost",
                             topology="budget", budget=1),
            ExperimentConfig(game="asg", mode="sum", policy="random",
                             topology="budget", budget=2),
        ),
        n_values=(8,),
        trials=4,
    )


@pytest.fixture(scope="module")
def serial_payload(tmp_path_factory) -> bytes:
    """The ground-truth aggregate from one serial, fault-free run."""
    root = tmp_path_factory.mktemp("serial")
    run = run_campaign(chaos_spec(), root, n_jobs=1)
    assert run.complete
    return json.dumps(aggregate_payload(run.result), sort_keys=True).encode()


def chaos_drain(root, fs: FaultyFS, max_reboots: int = 200):
    """Drain the chaos campaign to completion through ``fs``.

    An in-process rendition of worker + reaper: claim, execute,
    complete; on an injected death, revive the fs (the reboot) and
    continue as a *new* worker identity, reaping the dead incarnation's
    lease with the two-step observe/expire pattern (explicit ``now``
    instants, so no test ever sleeps a TTL).  Live faults (ENOSPC,
    short writes) surface as unit errors and retry, exactly as
    ``worker_main`` treats them.

    Returns ``(aggregate_payload_bytes, reboots)``.
    """
    source = CampaignSource(spec=chaos_spec(), seed=0, unit_trials=2, fs=fs)
    queue = WorkQueue(root, fs=fs)  # the reaper's view outlives every worker
    reboots = 0
    while True:
        try:
            queue.ensure_dirs()
            store = source.store(root)
            queue.initialize(source.plan(store, 0))
            while True:
                lease = queue.claim(f"w{reboots}")
                if lease is None:
                    if queue.drained():
                        break
                    t = time.monotonic()
                    queue.reap_expired(TTL, max_retries=1000, backoff=0.0,
                                       now=t)
                    queue.reap_expired(TTL, max_retries=1000, backoff=0.0,
                                       now=t + TTL + 1)
                    continue
                try:
                    result = source.execute(lease.unit, store, f"w{reboots}")
                except Exception as exc:  # noqa: BLE001 — live faults retry
                    queue.fail_lease(lease, f"{type(exc).__name__}: {exc}",
                                     max_retries=1000, backoff=0.0)
                    continue
                queue.complete(lease, result)
        except InjectedCrash:
            fs.revive()
            reboots += 1
            assert reboots <= max_reboots, (
                f"{fs.plan.describe()} wedged the drain"
            )
            continue
        except OSError:
            continue  # a live fault hit a queue transition; just retry
        break
    assert source.finished(store), "chaos drain did not finish the campaign"
    payload = json.dumps(
        aggregate_payload(source.result(store)), sort_keys=True
    ).encode()
    return payload, reboots


# ---------------------------------------------------------------------------
# the committed plans — one per named failure family


class TestCommittedPlans:
    def test_crash_at_every_rename_boundary(self, tmp_path, serial_payload):
        # both sides of the first queue transitions: death before the
        # rename takes effect, and death just after it does
        fs = FaultyFS(FaultPlan((
            Fault(op="rename", nth=0, kind="crash"),
            Fault(op="rename", nth=1, kind="crash_after"),
            Fault(op="replace", nth=4, kind="crash"),
            Fault(op="replace", nth=7, kind="crash_after"),
        )))
        payload, reboots = chaos_drain(tmp_path, fs)
        assert fs.any_fired()
        assert reboots >= 4
        assert payload == serial_payload

    def test_torn_append_loses_nothing(self, tmp_path, serial_payload):
        # a worker dies mid-JSONL-line; the torn fragment must stay an
        # isolated bad line and the record must land on re-execution
        fs = FaultyFS(FaultPlan((
            Fault(op="append", nth=2, kind="torn", frac=0.5),
        )))
        payload, _ = chaos_drain(tmp_path, fs)
        assert fs.any_fired()
        assert payload == serial_payload
        # the fragment is still on disk — and fsck points straight at it
        report = CampaignStore(tmp_path).fsck()
        assert [d["reason"] for d in report["damaged"]] == ["unparsable"]

    def test_enospc_is_a_retryable_unit_error(self, tmp_path, serial_payload):
        fs = FaultyFS(FaultPlan((
            Fault(op="append", nth=1, kind="enospc"),
            Fault(op="write", nth=6, kind="enospc"),
        )))
        payload, _ = chaos_drain(tmp_path, fs)
        assert fs.any_fired()
        assert payload == serial_payload

    def test_short_write_surfaces_and_retries(self, tmp_path, serial_payload):
        # EIO after a prefix: the process survives, sees the failure,
        # and the retry must not weld onto the leftover fragment
        fs = FaultyFS(FaultPlan((
            Fault(op="append", nth=3, kind="short", frac=0.8),
        )))
        payload, _ = chaos_drain(tmp_path, fs)
        assert fs.any_fired()
        assert payload == serial_payload

    def test_clock_skew_beyond_ttl_is_harmless(self, tmp_path, serial_payload):
        # every stat/utime the fabric or compactor issues sees times
        # shifted by 4 TTLs — content-based heartbeats and size-based
        # freshness must not care
        fs = FaultyFS(FaultPlan((
            Fault(op="stat", nth=0, kind="skew", skew=4 * TTL, once=False),
            Fault(op="utime", nth=0, kind="skew", skew=-4 * TTL, once=False),
        )))
        payload, _ = chaos_drain(tmp_path, fs)
        assert payload == serial_payload
        # compaction stats every record file through the skewed fs and
        # must still come out fresh and byte-preserving
        store = CampaignStore(tmp_path, fs=fs)
        compact_store(store)
        assert fs.any_fired()
        assert ColumnarStore(tmp_path).fresh(store)

    def test_stalled_worker_unit_is_reassigned(self, tmp_path, serial_payload):
        # one worker claims a unit and never comes back (simulated by
        # abandoning the lease); the reaper hands it to the next worker
        fs = FaultyFS(FaultPlan((
            Fault(op="append", nth=0, kind="stall", stall=0.05),
        )))
        source = CampaignSource(spec=chaos_spec(), seed=0, unit_trials=2,
                                fs=fs)
        queue = WorkQueue(tmp_path, fs=fs)
        queue.ensure_dirs()
        store = source.store(tmp_path)
        queue.initialize(source.plan(store, 0))
        stuck = queue.claim("stalled")  # claimed, never executed
        assert stuck is not None
        t = time.monotonic()
        queue.reap_expired(TTL, max_retries=1000, now=t)
        assert queue.counts()["leased"] == 1  # observed, not yet expired
        queue.reap_expired(TTL, max_retries=1000, now=t + TTL + 1)
        assert queue.counts()["leased"] == 0  # reassignable again
        payload, _ = chaos_drain(tmp_path, fs)
        assert fs.any_fired()
        assert payload == serial_payload


# ---------------------------------------------------------------------------
# seeded plans — reproducible random fault sequences


class TestSeededPlans:
    # seeds chosen so every plan actually fires against this workload's
    # operation sequence (asserted below — a refactor that changes the
    # sequence enough to dodge a plan must pick seeds that still bite);
    # together they cover torn appends, crashes on both sides of rename
    # and replace, ENOSPC, and torn whole-file writes
    SEEDS = (0, 2, 5, 7, 12, 25)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_plan_drains_byte_identical(self, tmp_path, seed,
                                               serial_payload):
        fs = FaultyFS(FaultPlan.seeded(seed, horizon=12))
        payload, reboots = chaos_drain(tmp_path, fs)
        assert fs.any_fired(), (
            f"seed {seed} never fired: {fs.plan.describe()}"
        )
        assert payload == serial_payload, (
            f"aggregate diverged under {fs.plan.describe()} "
            f"after {reboots} reboots"
        )

    def test_same_seed_builds_same_plan(self):
        assert FaultPlan.seeded(42) == FaultPlan.seeded(42)
        assert FaultPlan.seeded(42) != FaultPlan.seeded(43)


# ---------------------------------------------------------------------------
# interrupted compaction — crash at *every* injected point of the swap


class TestInterruptedCompaction:
    def drained_store(self, root) -> CampaignStore:
        fs = FaultyFS(FaultPlan())  # no faults: just build the records
        chaos_drain(root, fs)
        return CampaignStore(root)

    def record_keys(self, store) -> set:
        return {(r["cell"], r["trial"]) for r in iter_store_records(store)}

    def test_compaction_survives_crash_at_every_point(self, tmp_path):
        """Sweep the crash point across the whole compaction: kill it at
        the nth filesystem operation for every n until a full compaction
        runs fault-free, verifying after each death that every record is
        still readable and a clean recompaction recovers."""
        store = self.drained_store(tmp_path)
        expected = self.record_keys(store)
        assert expected  # the sweep must protect something real
        crash_points = 0
        for nth in range(200):
            fs = FaultyFS(FaultPlan((Fault(op="*", nth=nth, kind="crash"),)))
            faulted = CampaignStore(tmp_path, fs=fs)
            try:
                compact_store(faulted, prune=True)
            except InjectedCrash:
                fs.revive()
                crash_points += 1
                # death mid-compaction may leave tmp dirs, half-written
                # manifests, an interrupted swap — never a lost record
                assert self.record_keys(store) == expected, (
                    f"records lost after crash at op {nth}"
                )
                # and the next, clean compaction fully recovers
                summary = compact_store(CampaignStore(tmp_path), prune=True)
                assert summary["rows"] >= len(expected)
                assert self.record_keys(store) == expected
                continue
            if not fs.any_fired():
                break  # nth beyond the op count: swept every point
        else:
            pytest.fail("compaction op sweep never terminated")
        assert crash_points > 0
        assert self.record_keys(store) == expected

    def test_interrupted_swap_recovers_on_next_read(self, tmp_path):
        """Death *between* the two swap renames leaves only the backup
        dir; the next reader must rename it back, losing nothing."""
        store = self.drained_store(tmp_path)
        expected = self.record_keys(store)
        compact_store(store, prune=True)  # records now live in columnar/
        fs = FaultyFS(FaultPlan((
            Fault(op="rename", path=".columnar-old", kind="crash_after"),
        )))
        faulted = CampaignStore(tmp_path, fs=fs)
        with pytest.raises(InjectedCrash):
            compact_store(faulted)
        assert fs.any_fired()
        assert not (tmp_path / "columnar" / "manifest.json").exists()
        assert self.record_keys(store) == expected  # recovery on read
        assert (tmp_path / "columnar" / "manifest.json").exists()

    def test_shrunk_covered_file_makes_compaction_stale(self, tmp_path):
        """Freshness must catch a covered JSONL file *shrinking* (a
        truncation, a replaced file), not only growing — and the
        recompaction must restore the truncated rows from the prior
        compaction rather than inherit the loss."""
        store = self.drained_store(tmp_path)
        expected = self.record_keys(store)
        compact_store(store)
        columnar = ColumnarStore(tmp_path)
        assert columnar.fresh(store)
        victim = store.record_files()[0]
        lines = victim.read_text().splitlines(keepends=True)
        victim.write_text("".join(lines[:-1]))  # drop the last record
        assert not columnar.fresh(store)
        assert victim.name not in columnar.covered_files(store)
        summary = compact_store(store, prune=True)
        assert summary["rows"] == len(expected)
        assert self.record_keys(store) == expected
        assert ColumnarStore(tmp_path).fresh(store)


# ---------------------------------------------------------------------------
# fsck — checksummed stores report exactly the damage


class TestFsck:
    def damaged_store(self, root):
        """A drained store plus two precise injuries: a torn garbage
        line and a bit-flip that keeps valid JSON but breaks the CRC."""
        fs = FaultyFS(FaultPlan())
        chaos_drain(root, fs)
        store = CampaignStore(root)
        # a fault-free drain uses one worker, hence one record file —
        # split it so each injury lands in its own file
        torn_file = store.record_files()[0]
        lines = torn_file.read_text().splitlines()
        half = len(lines) // 2
        flip_file = torn_file.with_name(
            torn_file.name.replace(".jsonl", "-aux.jsonl")
        )
        flip_file.write_text("\n".join(lines[half:]) + "\n")
        torn_file.write_text("\n".join(lines[:half]) + "\n")
        with open(torn_file, "a") as fh:
            fh.write('{"cell": "figC/asg-sum-maxcost/n8", "tr')  # torn
        lines = flip_file.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["steps"] = rec.get("steps", 0) + 1  # body no longer matches CRC
        lines[0] = json.dumps(rec, sort_keys=True)
        flip_file.write_text("\n".join(lines) + "\n")
        return store, torn_file, flip_file

    def test_fsck_reports_exactly_the_damaged_lines(self, tmp_path):
        store, torn_file, flip_file = self.damaged_store(tmp_path)
        report = store.fsck()
        assert {(d["file"], d["reason"]) for d in report["damaged"]} == {
            (torn_file.name, "unparsable"),
            (flip_file.name, "checksum"),
        }
        assert report["repaired"] == 0
        # the read path already tolerates what fsck reports
        ok_now = sum(1 for _ in store.iter_records())
        assert ok_now == report["records_ok"]

    def test_repair_quarantines_and_leaves_a_clean_store(self, tmp_path):
        store, torn_file, flip_file = self.damaged_store(tmp_path)
        before = {(r["cell"], r["trial"], json.dumps(r, sort_keys=True))
                  for r in store.iter_records()}
        report = store.fsck(repair=True)
        assert report["repaired"] == 2
        # damaged raw lines are preserved verbatim in quarantine
        quarantined = sorted(store.corrupt_dir().glob("*.bad"))
        assert len(quarantined) == 2
        assert (store.corrupt_dir() / f"{torn_file.name}.bad").exists()
        assert (store.corrupt_dir() / f"{flip_file.name}.bad").exists()
        # the store is now provably clean and lost no good record
        clean = store.fsck()
        assert clean["damaged"] == [] and clean["repaired"] == 0
        after = {(r["cell"], r["trial"], json.dumps(r, sort_keys=True))
                 for r in store.iter_records()}
        assert after == before

    def test_fsck_tolerates_legacy_and_foreign_lines(self, tmp_path):
        fs = FaultyFS(FaultPlan())
        chaos_drain(tmp_path, fs)
        store = CampaignStore(tmp_path)
        victim = store.record_files()[0]
        with open(victim, "a") as fh:
            # a pre-checksum legacy record: valid JSON, no _crc
            legacy = {"cell": "figC/x/n8", "trial": 99, "steps": 1,
                      "status": "converged"}
            fh.write(json.dumps(legacy, sort_keys=True) + "\n")
            # a foreign row (checksummed, but not a campaign record)
            fh.write(durable.encode_line({"kind": "note"}) + "\n")
        report = store.fsck()
        assert report["damaged"] == []
        assert report["foreign"] == 1

    def test_encode_decode_roundtrip_and_tamper_detection(self):
        def decode_record_line(line):
            """The store rule: a line with no checksum is a legacy line."""
            return durable.decode_line(line, require_crc=False)

        rec = {"cell": "c", "trial": 3, "steps": 7}
        line = durable.encode_line(rec)
        assert decode_record_line(line) == (rec, None)
        tampered = line.replace('"steps": 7', '"steps": 8')
        assert decode_record_line(tampered) == (None, "checksum")
        assert decode_record_line(line[:-4]) == (None, "unparsable")
        assert decode_record_line(json.dumps(rec)) == (rec, None)


class TestSeamReach:
    """Files outside the record stores that persist through the seam:
    traces, the service job table and metric snapshots."""

    def test_tracer_torn_append_is_stitched_and_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        fs = FaultyFS(FaultPlan((Fault(op="append", nth=1, kind="torn"),)))
        tracer = Tracer(path, fs=fs)
        with tracer.span("kept"):
            pass
        with pytest.raises(InjectedCrash):
            with tracer.span("torn"):
                pass
        assert fs.fired == [("torn", "append", str(path))]
        tracer.close()
        fs.revive()
        tracer = Tracer(path, fs=fs)  # the rebooted process
        with tracer.span("after"):
            pass
        tracer.close()
        assert [e["name"] for e in iter_trace(path)] == ["kept", "after"]
        assert summarize_trace(path)["skipped_lines"] == 1

    def test_job_table_crash_on_replace_recovers_last_state(self, tmp_path):
        # replace #0 persists the submit, #1 the queued -> running move
        fs = FaultyFS(FaultPlan((Fault(op="replace", nth=1, kind="crash",
                                       path="job.json"),)))
        manager = JobManager(tmp_path, workers=1, fs=fs)
        manager.recover()
        job = manager.submit(trial_payload(), client="t")
        with pytest.raises(InjectedCrash):
            manager._start_ready()
        assert not manager.drains  # died before any drain started
        fresh = JobManager(tmp_path, workers=0)
        assert fresh.recover() == {"jobs": 1, "requeued": 0}
        assert fresh.jobs[job.id].state == "queued"
        assert fresh.jobs[job.id].request == job.request

    def test_snapshot_crash_on_replace_keeps_previous(self, tmp_path):
        meter = obs_metrics.Meter(enabled=True)
        calls = meter.counter("calls_total")
        path = metrics_dir(tmp_path) / "w1.json"
        calls.inc(3)
        obs_metrics.write_snapshot_file(path, meter)
        before = obs_metrics.read_snapshot_file(path)
        calls.inc(4)
        fs = FaultyFS(FaultPlan((Fault(op="replace", kind="crash"),)))
        with pytest.raises(InjectedCrash):
            obs_metrics.write_snapshot_file(path, meter, fs=fs)
        assert obs_metrics.read_snapshot_file(path) == before
        # the crash left the written tmp file behind; the fleet fold skips it
        assert len(list(path.parent.iterdir())) == 2
        assert fleet_snapshot(tmp_path) == before
        assert before["calls_total"]["values"]["{}"] == 3.0


    def test_worker_snapshot_crash_on_replace_keeps_previous(self, tmp_path):
        # the worker's exit snapshot goes through the fs it was handed
        source = CampaignSource(spec=chaos_spec(), seed=0, unit_trials=2)
        WorkQueue(tmp_path).initialize(source.plan(source.store(tmp_path), 0))
        assert worker_main(source, tmp_path, "w0", install_signals=False) == 4
        path = metrics_dir(tmp_path) / "w0.json"
        before = obs_metrics.read_snapshot_file(path)
        fs = FaultyFS(FaultPlan((Fault(op="replace", kind="crash",
                                       path="metrics"),)))
        with pytest.raises(InjectedCrash):
            worker_main(source, tmp_path, "w0", fs=fs, install_signals=False)
        assert fs.fired == [("crash", "replace", str(path))]
        assert obs_metrics.read_snapshot_file(path) == before
        # the crash left the written tmp file behind; the fleet fold skips it
        assert len(list(path.parent.iterdir())) == 2
        assert fleet_snapshot(tmp_path) == before


# ---------------------------------------------------------------------------
# service jobs — the manager dies at a replace, a fresh one recovers

SERVICE_PAYLOAD = trial_payload(n=6, trials=10, seed=2)  # two 8-trial units


def service_serial_payload(root, job_id: str) -> bytes:
    """The aggregate a serial ``run_campaign`` of the job's grid yields."""
    request = parse_job_request(SERVICE_PAYLOAD)
    run = run_campaign(_grid_for(request, job_id), root, seed=request.seed,
                       n_jobs=1)
    return json.dumps(aggregate_payload(run.result), sort_keys=True).encode()


def chaos_job(state_dir, fs: FaultyFS):
    """Drive one trial job through a manager whose fs is ``fs``; on the
    injected death, boot a fresh manager on the state dir, ``recover()``
    and drive the job to done.  Returns ``(job id, aggregate bytes)``.

    The plans target the files the manager process itself replaces:
    ``job.json`` and the units the job's coordinator enqueues.  Queue
    operations inside the forked worker count against the worker's own
    copy of the plan, so they are covered by the in-process fabric
    plans above instead.
    """
    manager = JobManager(state_dir, workers=1, poll_interval=0.01, fs=fs)
    job_id = None
    try:
        manager.recover()
        job_id = manager.submit(SERVICE_PAYLOAD, "chaos").id
        drive(manager, lambda: manager.jobs[job_id].state == "done")
    except InjectedCrash:
        manager = JobManager(state_dir, workers=1, poll_interval=0.01)
        manager.recover()
        job_id = (job_id or next(iter(manager.jobs), None)
                  or manager.submit(SERVICE_PAYLOAD, "chaos").id)
        drive(manager, lambda: manager.jobs[job_id].state == "done")
    result = json.loads(manager.result_path(job_id).read_text())
    return job_id, json.dumps(result["aggregate"], sort_keys=True).encode()


class TestServiceJobPlans:
    """Crash the manager at every replace of the job table and of the
    job's queue, on both sides of the replace: the recovered job must
    finish with the serial aggregate, byte for byte."""

    @pytest.mark.parametrize("target", ["job.json", "fabric/pending"])
    @pytest.mark.parametrize("kind", ["crash", "crash_after"])
    def test_service_job_survives_crash_at_every_replace(
            self, tmp_path, target, kind):
        fired = 0
        for nth in range(20):
            fs = FaultyFS(FaultPlan((Fault(op="replace", nth=nth, kind=kind,
                                           path=target),)))
            root = tmp_path / f"run{nth}"
            job_id, payload = chaos_job(root / "state", fs)
            assert payload == service_serial_payload(root / "serial", job_id), (
                f"aggregate diverged under {fs.plan.describe()}")
            if not fs.any_fired():
                break  # nth beyond the replace count: swept every point
            fired += 1
        else:
            pytest.fail("replace sweep never terminated")
        assert fired >= 2
