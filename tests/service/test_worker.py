"""Service jobs as fabric drains, seen from the job directory.

A running job is one :class:`~repro.experiments.fabric.Coordinator`
drain over the job's own store.  These tests drive the manager's
scheduler to a terminal state and check what the drain leaves behind:
``result.json`` bytes equal to a direct run, the named ``error.json``
of a failed job, and the settle branches a drain report can take.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.experiments.campaign import aggregate_payload, run_campaign
from repro.experiments.fabric import DrainReport, FabricError
from repro.registry import REGISTRY
from repro.service.jobs import (
    JobManager,
    JobRejected,
    _grid_for,
    parse_job_request,
)
from repro.service.quotas import QuotaPolicy
from repro.statespace.explore import explore

from tests.service.conftest import SG_SPEC, drive, trial_payload


def explore_payload(n: int = 4, **extra) -> dict:
    return {"kind": "explore", "spec": SG_SPEC, "n": n, **extra}


@pytest.fixture
def manager(tmp_path):
    mgr = JobManager(tmp_path / "state", workers=1, poll_interval=0.01)
    mgr.recover()
    return mgr


def run_to(manager, job, state, timeout=60.0):
    drive(manager, lambda: job.state in ("done", "failed", "cancelled"),
          timeout=timeout)
    assert job.state == state, job.error


class TestJobDrains:
    def test_trial_result_bytes_match_a_direct_run(self, manager, tmp_path):
        payload = trial_payload(n=6, trials=10)
        job = manager.submit(payload, "w")
        run_to(manager, job, "done")
        # what the slice-loop worker wrote: the direct run's aggregate
        request = parse_job_request(payload)
        direct = run_campaign(_grid_for(request, job.id), tmp_path / "direct",
                              seed=request.seed, n_jobs=1)
        expected = json.dumps({"kind": "trial", "total": 10,
                               "aggregate": aggregate_payload(direct.result)},
                              sort_keys=True) + "\n"
        assert manager.result_path(job.id).read_text() == expected
        assert manager.progress(job) == {"done": 10, "total": 10}
        # one drain, one worker, nothing requeued
        assert job.requeues == 0 and not manager.drains

    def test_explore_result_matches_a_direct_explore(self, manager, tmp_path):
        job = manager.submit(explore_payload(n=4), "w")
        run_to(manager, job, "done")
        game = REGISTRY.build("game", "sg", {"mode": "sum"}, n=4)
        direct = explore(game, n=4, store=tmp_path / "direct", game_name="sg")
        result = json.loads(manager.result_path(job.id).read_text())
        assert result == {"kind": "explore", **direct.to_json()}
        report = manager.store_dir(job.id) / "report.json"
        assert report.read_bytes() == direct.json_bytes()
        progress = manager.progress(job)
        assert progress["expanded"] > 0 and progress["pending"] == 0

    def test_truncated_explore_fails_fast_with_named_error(self, manager):
        job = manager.submit(explore_payload(n=4, max_states=10), "w")
        started = time.monotonic()
        run_to(manager, job, "failed")
        assert time.monotonic() - started < 30.0
        error = json.loads(
            (manager.job_dir(job.id) / "error.json").read_text())
        assert error == job.error
        assert error["error"] == "worker-error"
        assert "truncated" in error["detail"]
        assert "max_states=10" in error["detail"]
        assert not manager.result_path(job.id).exists()


def settled(manager, report=None, exc=None):
    """Settle one running job with a hand-made drain outcome."""
    job = manager.submit(trial_payload(), "w")
    job.state = "running"
    manager._settle(job, report, exc)
    return job


def partial(**extra) -> DrainReport:
    fields = dict(rounds=1, units_done=0, units_failed=0, reassigned=0,
                  respawned=0, workers=1, complete=False)
    fields.update(extra)
    return DrainReport(**fields)


class TestSettle:
    def test_drain_exception_is_a_named_worker_error(self, manager):
        job = settled(manager, exc=FabricError("worker fleet died 50 times"))
        assert job.state == "failed"
        assert job.error["error"] == "worker-error"
        assert "FabricError: worker fleet died" in job.error["detail"]

    def test_failed_unit_names_the_unit_and_its_error(self, manager):
        report = partial(units_failed=1, failed=[
            {"id": "c-t0", "error": "ValueError: boom (attempt 4)"}])
        job = settled(manager, report)
        assert job.state == "failed"
        assert job.error["detail"] == (
            "unit c-t0 failed: ValueError: boom (attempt 4)")
        stored = json.loads(
            (manager.job_dir(job.id) / "job.json").read_text())
        assert stored["state"] == "failed" and stored["error"] == job.error

    def test_incomplete_drain_without_failures_fails(self, manager):
        job = settled(manager, partial())
        assert job.state == "failed"
        assert "incomplete" in job.error["detail"]

    def test_interrupted_drain_requeues(self, manager):
        job = settled(manager, partial(interrupted=True))
        assert job.state == "queued" and job.requeues == 1

    def test_cancelled_job_stays_cancelled(self, manager):
        job = manager.submit(trial_payload(), "w")
        manager.cancel(job.id)
        manager._settle(job, partial(interrupted=True), None)
        assert job.state == "cancelled" and job.requeues == 0


class TestParseEdges:
    def test_explore_requests_have_open_total(self):
        assert parse_job_request(explore_payload()).total_units == 0

    def test_empty_specs_list_is_bad_payload(self):
        with pytest.raises(JobRejected) as exc:
            parse_job_request({"specs": [], "n": 4})
        assert exc.value.code == "bad-payload"

    def test_non_object_spec_entry_is_bad_spec(self):
        with pytest.raises(JobRejected) as exc:
            parse_job_request({"kind": "campaign", "specs": ["sg"], "n": 4})
        assert exc.value.code == "bad-spec" and exc.value.status == 422

    def test_scalar_n_values_is_bad_int(self):
        with pytest.raises(JobRejected) as exc:
            parse_job_request({"spec": SG_SPEC, "n_values": 7})
        assert exc.value.code == "bad-int"

    def test_trial_with_two_n_values_is_bad_int(self):
        with pytest.raises(JobRejected) as exc:
            parse_job_request({"spec": SG_SPEC, "n_values": [4, 5]})
        assert exc.value.code == "bad-int"

    def test_max_states_cap_is_422(self):
        quota = QuotaPolicy(max_states=100)
        with pytest.raises(JobRejected) as exc:
            parse_job_request(explore_payload(max_states=101), quota)
        assert exc.value.code == "limit-exceeded" and exc.value.status == 422
        rejection = quota.check_spec_limits(
            n_values=(4,), trials=1, max_states=101)
        assert rejection[0] == 422 and "max_states" in rejection[2]


class TestManagerEdges:
    def test_recover_skips_torn_control_records(self, tmp_path):
        mgr = JobManager(tmp_path / "state", workers=0)
        good = mgr.submit(trial_payload(), "w")
        torn = mgr.jobs_dir / "job-torn"
        torn.mkdir()
        (torn / "job.json").write_text("{half a reco")
        fresh = JobManager(tmp_path / "state", workers=0)
        recovered = fresh.recover()
        assert recovered == {"jobs": 1, "requeued": 0}
        assert set(fresh.jobs) == {good.id}
