"""Job table: validation, durability, cancel mid-run, kill/restart/resume."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.campaign import CampaignStore
from repro.experiments.fabric import (
    DEFAULT_LEASE_TTL,
    CampaignSource,
    WorkQueue,
)
from repro.service.client import ServiceClient
from repro.service.jobs import (
    JobManager,
    JobRejected,
    _grid_for,
    parse_job_request,
)
from repro.service.quotas import QuotaPolicy
from repro.registry import REGISTRY
from repro.statespace.explore import explore

from tests.service.conftest import SG_SPEC, LoopRunner, drive, trial_payload

SRC = Path(__file__).resolve().parents[2] / "src"


class TestParseJobRequest:
    def test_single_spec_trial_roundtrips(self):
        request = parse_job_request(trial_payload(n=8, trials=3, seed=5))
        assert request.kind == "trial"
        assert request.n_values == (8,)
        assert request.total_units == 3
        # the canonical payload re-parses to the same request
        assert parse_job_request(request.payload()) == request

    def test_campaign_grid_expands_units(self):
        request = parse_job_request({
            "kind": "campaign", "specs": [SG_SPEC, SG_SPEC],
            "n_values": [8, 10], "trials": 2})
        assert request.total_units == 8

    def test_named_rejections(self):
        cases = [
            ("not an object", "bad-payload"),
            ({"kind": "nope", "spec": SG_SPEC, "n": 8}, "bad-kind"),
            ({"n": 8}, "bad-payload"),
            ({"spec": {"game": "nope"}, "n": 8}, "bad-spec"),
            ({"spec": SG_SPEC}, "bad-int"),
            ({"spec": SG_SPEC, "n": 8, "trials": 0}, "bad-int"),
            ({"spec": SG_SPEC, "n": 8, "trials": True}, "bad-int"),
            ({"kind": "explore", "spec": SG_SPEC, "n": 4,
              "moves": "x"}, "bad-moves"),
            ({"kind": "explore", "spec": SG_SPEC, "n": 4,
              "agent_filter": "x"}, "bad-agent-filter"),
            ({"kind": "trial", "specs": [SG_SPEC, SG_SPEC], "n": 8},
             "bad-payload"),
        ]
        for payload, code in cases:
            with pytest.raises(JobRejected) as err:
                parse_job_request(payload)
            assert err.value.code == code, payload
            assert 400 <= err.value.status < 500

    def test_quota_spec_caps_apply_at_parse_time(self):
        with pytest.raises(JobRejected) as err:
            parse_job_request(trial_payload(n=300), QuotaPolicy(max_n=200))
        assert err.value.code == "limit-exceeded"
        assert err.value.status == 422


def record_lines_in(store_dir: Path):
    lines = []
    for path in sorted(store_dir.glob("*.jsonl")):
        lines += [l for l in path.read_text().splitlines() if l]
    return lines


def record_lines(manager: JobManager, job_id: str):
    return record_lines_in(manager.store_dir(job_id))


class TestManagerDurability:
    def test_submit_persists_control_record(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        manager.recover()
        job = manager.submit(trial_payload(), client="t")
        stored = json.loads((manager.job_dir(job.id) / "job.json").read_text())
        assert stored["state"] == "queued"
        assert stored["request"]["kind"] == "trial"

    def test_recover_rebuilds_table_and_seq(self, tmp_path):
        first = JobManager(tmp_path, workers=0)
        first.recover()
        ids = [first.submit(trial_payload(), client="t").id for _ in range(3)]
        second = JobManager(tmp_path, workers=0)
        counts = second.recover()
        assert counts == {"jobs": 3, "requeued": 0}
        assert sorted(second.jobs) == sorted(ids)
        new = second.submit(trial_payload(), client="t")
        assert new.seq == 3  # sequence continues, no collisions

    def test_cancel_queued_job(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        manager.recover()
        job = manager.submit(trial_payload(), client="t")
        assert manager.cancel(job.id).state == "cancelled"
        stored = json.loads((manager.job_dir(job.id) / "job.json").read_text())
        assert stored["state"] == "cancelled"

    def test_run_small_job_to_done(self, tmp_path):
        manager = JobManager(tmp_path, workers=1)
        manager.recover()
        job = manager.submit(trial_payload(n=8, trials=2), client="t")
        drive(manager, lambda: job.state == "done")
        assert manager.result_path(job.id).exists()
        assert manager.progress(job) == {"done": 2, "total": 2}

    def test_failing_job_reports_named_error(self, tmp_path):
        manager = JobManager(tmp_path, workers=1)
        manager.recover()
        # a spec the registry accepts but whose exploration must truncate
        job = manager.submit(
            {"kind": "explore", "spec": SG_SPEC, "n": 5, "max_states": 10},
            client="t")
        drive(manager, lambda: job.state == "failed")
        assert job.error["error"] == "worker-error"
        assert "truncated" in job.error["detail"]


class TestCancelMidRun:
    def test_cancel_running_job_stops_worker(self, tmp_path):
        manager = JobManager(tmp_path, workers=1)
        manager.recover()
        job = manager.submit(trial_payload(n=25, trials=200, seed=1),
                             client="t")
        runner = LoopRunner(manager)
        try:
            # wait until the worker has demonstrably started writing records
            runner.until(lambda: job.state == "running"
                         and len(record_lines(manager, job.id)) >= 1)
            manager.cancel(job.id)
            assert job.state == "cancelled"
            runner.until(lambda: not manager.drains, timeout=30)
        finally:
            runner.close()
        done = len(record_lines(manager, job.id))
        assert done < 200  # it really stopped early
        # cancel is terminal: settling the stopped drain must not
        # resurrect the job
        assert job.state == "cancelled"
        stored = json.loads((manager.job_dir(job.id) / "job.json").read_text())
        assert stored["state"] == "cancelled"


def start_server(state_dir: Path) -> subprocess.Popen:
    """``repro serve`` in its own process group, like a real deployment."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--state-dir", str(state_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        start_new_session=True)
    line = proc.stdout.readline()
    assert "listening on" in line, line
    proc.port = int(line.split(":")[1].split()[0])
    return proc


class TestKillRestartResume:
    """Mirrors the store kill-safety suites at the service level."""

    def test_sigkilled_server_resumes_with_zero_recompute(self, tmp_path):
        server = start_server(tmp_path)
        try:
            client = ServiceClient("127.0.0.1", server.port)
            job = client.submit(trial_payload(n=20, trials=60, seed=3))
            store_dir = tmp_path / "jobs" / job["id"] / "store"
            deadline = time.monotonic() + 60
            while len(record_lines_in(store_dir)) < 3:
                assert time.monotonic() < deadline, "no records within 60s"
                time.sleep(0.02)
        finally:
            # the server, its drain thread and its worker die together
            os.killpg(os.getpgid(server.pid), signal.SIGKILL)
            server.wait()

        # a fresh server on the same state dir picks the job back up
        revived = JobManager(tmp_path, workers=1)
        counts = revived.recover()
        assert counts["requeued"] == 1
        resumed = revived.get(job["id"])
        assert resumed.state == "queued" and resumed.requeues == 1
        before = record_lines(revived, job["id"])
        assert len(before) >= 3

        drive(revived, lambda: resumed.state == "done", timeout=120)
        after = record_lines(revived, job["id"])
        # zero recomputation: every pre-kill record survives verbatim,
        # and no (cell, trial) was run twice
        assert after[:len(before)] == before
        assert len(after) == 60
        store = CampaignStore(revived.store_dir(job["id"]))
        trials_seen = [r["trial"] for r in store.iter_all_records()]
        assert len(trials_seen) == len(set(trials_seen)) == 60
        assert revived.progress(resumed) == {"done": 60, "total": 60}

    def test_recovered_job_resumes_without_a_lease_ttl(self, tmp_path):
        """What a dead server leaves: the job ``running``, one unit
        leased to a worker that will never beat again, part of its
        trials stored.  Recovery hands the unit straight back."""
        manager = JobManager(tmp_path, workers=0)
        manager.recover()
        job = manager.submit(trial_payload(n=8, trials=12, seed=4), "t")
        request = parse_job_request(job.request)
        source = CampaignSource(_grid_for(request, job.id), seed=request.seed)
        store = source.store(manager.store_dir(job.id))
        queue = WorkQueue(manager.store_dir(job.id))
        queue.initialize(source.plan(store, 0))
        lease = queue.claim("w0.0")
        source.execute({**lease.unit, "trials": lease.unit["trials"][:3]},
                       store, "w0.0")
        job.state = "running"
        manager._persist(job)

        revived = JobManager(tmp_path, workers=1, poll_interval=0.01)
        assert revived.recover() == {"jobs": 1, "requeued": 1}
        assert queue.counts()["leased"] == 0  # no lease left to expire
        started = time.monotonic()
        resumed = revived.get(job.id)
        drive(revived, lambda: resumed.state == "done",
              timeout=DEFAULT_LEASE_TTL / 2)
        assert time.monotonic() - started < DEFAULT_LEASE_TTL / 2
        # the re-run unit skipped the three trials already stored
        trials = [r["trial"] for r in store.iter_all_records()]
        assert len(trials) == len(set(trials)) == 12

    def test_drain_requeues_running_job(self, tmp_path):
        manager = JobManager(tmp_path, workers=1, kill_grace=10.0)
        manager.recover()
        job = manager.submit(trial_payload(n=20, trials=300, seed=3),
                             client="t")
        runner = LoopRunner(manager)
        try:
            runner.until(lambda: job.state == "running"
                         and len(record_lines(manager, job.id)) >= 1)
        finally:
            runner.close()  # the service shutdown path: manager.drain()
        assert job.state in ("queued", "done")  # tiny jobs may just finish
        assert job.state == "done" or job.requeues == 1
        assert not manager.drains
        stored = json.loads((manager.job_dir(job.id) / "job.json").read_text())
        assert stored["state"] == job.state
        # the worker finished its unit and exited: nothing left leased
        assert WorkQueue(manager.store_dir(job.id)).counts()["leased"] == 0

    def test_drain_stops_a_running_exploration_at_an_expansion(
            self, tmp_path):
        """An explore job is one fabric unit.  The first SIGTERM must end
        it at the next expansion, not after the whole exploration, and
        the requeued job must resume to the same ``report.json``."""
        game = REGISTRY.build("game", "sg", {"mode": "sum"}, n=5)
        direct = explore(game, n=5, store=tmp_path / "direct",
                         game_name="sg")
        manager = JobManager(tmp_path / "state", workers=1, kill_grace=30.0,
                             poll_interval=0.01)
        manager.recover()
        job = manager.submit({"kind": "explore", "spec": SG_SPEC, "n": 5},
                             client="t")
        queue = WorkQueue(manager.store_dir(job.id))
        runner = LoopRunner(manager)
        try:
            runner.until(lambda: queue.counts()["leased"] == 1)
        finally:
            started = time.monotonic()
            runner.close()
        assert time.monotonic() - started < manager.kill_grace / 3
        assert job.state == "queued" and job.requeues == 1
        assert queue.counts()["leased"] == 0
        # it stopped mid-exploration rather than finishing the unit
        assert manager.progress(job)["expanded"] < direct.n_states

        drive(manager, lambda: job.state == "done", timeout=120)
        report = manager.store_dir(job.id) / "report.json"
        assert report.read_bytes() == direct.json_bytes()
