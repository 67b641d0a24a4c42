"""Streaming: byte-identity with direct runs, replay+tail, backpressure."""

from __future__ import annotations

import asyncio
import json

from repro.durable import encode_line
from repro.experiments.campaign import run_campaign
from repro.service.jobs import JobManager, parse_job_request, _grid_for
from repro.service.protocol import OP_CLOSE, OP_TEXT, decode_frame
from repro.service.stream import RecordTail, stream_job

from tests.service.conftest import SG_SPEC, trial_payload


def collect(events):
    """Split a stream into (record-line list, event-dict list)."""
    records, control = [], []
    for kind, item in events:
        (records if kind == "record" else control).append(item)
    return records, control


def store_lines(store_dir):
    lines = []
    for path in sorted(store_dir.glob("*.jsonl")):
        lines += [l for l in path.read_text().splitlines() if l]
    return lines


class TestByteIdentity:
    """The stream is the store, and the store matches a direct run."""

    def test_trial_stream_matches_direct_run(self, service_factory, tmp_path):
        svc = service_factory(workers=1)
        client = svc.client()
        payload = trial_payload(n=8, trials=3, seed=5)
        job = client.submit(payload)
        streamed, control = collect(client.stream(job["id"]))

        # control flow: hello first, end last, both named
        assert control[0]["event"] == "job"
        assert control[-1]["event"] == "end"
        assert control[-1]["state"] == "done"
        assert control[-1]["dropped"] == 0
        assert control[-1]["records"] == 3

        # the streamed lines ARE the job's store, in file order
        job_store = svc.config.state_dir / "jobs" / job["id"] / "store"
        assert streamed == store_lines(job_store)

        # ... and byte-identical to running the same spec directly
        # through run_campaign (one serialization, checksum included)
        grid = _grid_for(parse_job_request(payload), "direct")
        direct = tmp_path / "direct"
        run_campaign(grid, direct, seed=5, n_jobs=1)
        assert sorted(streamed) == sorted(store_lines(direct))
        for line in streamed:
            assert '"_crc"' in line  # checksum travels with the record

    def test_explore_stream_matches_direct_run(self, service_factory, tmp_path):
        from repro.registry import REGISTRY
        from repro.statespace.explore import explore
        from repro.statespace.store import ExplorationStore

        svc = service_factory(workers=1)
        client = svc.client()
        job = client.submit({"kind": "explore", "spec": SG_SPEC, "n": 4})
        streamed, control = collect(client.stream(job["id"]))
        assert control[-1]["event"] == "end"
        assert control[-1]["state"] == "done"

        game = REGISTRY.build("game", "sg", {"mode": "sum"}, n=4)
        direct = ExplorationStore(tmp_path / "explore")
        explore(game, n=4, moves="best", agent_filter="all", store=direct,
                game_name="sg")
        assert sorted(streamed) == sorted(store_lines(direct.root))
        assert streamed  # the comparison was not vacuous


def fake_line(trial: int) -> str:
    return encode_line({"cell": "cell-n8", "trial": trial,
                        "steps": trial, "status": "converged"})


class WsHarness:
    """Drive stream_job against an in-memory websocket endpoint."""

    def __init__(self, drain_delay: float = 0.0):
        self.reader = asyncio.StreamReader()
        self.sent = bytearray()
        self.drain_delay = drain_delay

    def write(self, data):
        self.sent += data

    async def drain(self):
        if self.drain_delay:
            await asyncio.sleep(self.drain_delay)

    def messages(self):
        """Decode every frame sent so far into (records, events, closed)."""
        records, events, closed = [], [], False
        buf = bytes(self.sent)
        while buf:
            decoded = decode_frame(buf)
            if decoded is None:
                break
            frame, consumed = decoded
            buf = buf[consumed:]
            if frame.opcode == OP_CLOSE:
                closed = True
                continue
            if frame.opcode != OP_TEXT:
                continue
            payload = json.loads(frame.payload.decode())
            (events if "event" in payload else records).append(
                (frame.payload.decode(), payload))
        return records, events, closed


def make_manager(tmp_path) -> JobManager:
    manager = JobManager(tmp_path, workers=0)
    manager.recover()
    return manager


class TestReplayAndTail:
    def test_stored_records_replay_then_live_tail(self, tmp_path):
        from repro.service.protocol import WebSocket

        async def go():
            manager = make_manager(tmp_path)
            job = manager.submit(trial_payload(), client="t")
            store = manager.store_dir(job.id)
            store.mkdir(parents=True)
            path = store / "trials-0of1.jsonl"
            path.write_text("".join(fake_line(i) + "\n" for i in range(3)))

            harness = WsHarness()
            ws = WebSocket(harness.reader, harness)
            task = asyncio.ensure_future(
                stream_job(manager, job, ws, poll=0.01))
            await asyncio.sleep(0.1)  # replay phase
            with open(path, "a") as fh:  # live appends while connected
                fh.write(fake_line(3) + "\n")
                fh.write(fake_line(4)[:10])  # torn tail: must be held back
            await asyncio.sleep(0.1)
            mid_records, _, _ = harness.messages()
            with open(path, "a") as fh:  # the writer stitches the line
                fh.write(fake_line(4)[10:] + "\n")
            await asyncio.sleep(0.1)
            job.state = "done"
            manager._persist(job)
            await asyncio.wait_for(task, timeout=10)
            return mid_records, harness.messages()

        mid_records, (records, events, closed) = asyncio.run(go())
        # the torn line was not shipped half-baked
        assert [p["trial"] for _, p in mid_records] == [0, 1, 2, 3]
        # final stream: all five lines, verbatim and in order
        assert [line for line, _ in records] == [fake_line(i) for i in range(5)]
        assert [e["event"] for _, e in events] == ["job", "end"]
        end = events[-1][1]
        assert (end["records"], end["dropped"]) == (5, 0)
        assert closed

    def test_hello_carries_job_view_and_progress(self, tmp_path):
        from repro.service.protocol import WebSocket

        async def go():
            manager = make_manager(tmp_path)
            job = manager.submit(trial_payload(), client="t")
            manager.store_dir(job.id).mkdir(parents=True)
            job.state = "done"
            manager._persist(job)
            harness = WsHarness()
            await asyncio.wait_for(
                stream_job(manager, job, WebSocket(harness.reader, harness),
                           poll=0.01),
                timeout=10)
            return job.id, harness.messages()

        job_id, (records, events, _) = asyncio.run(go())
        hello = events[0][1]
        assert hello["event"] == "job"
        assert hello["id"] == job_id
        assert hello["progress"] == {"done": 0, "total": 3}
        assert records == []


class TestBackpressure:
    def test_slow_client_flips_to_summary_only(self, tmp_path):
        from repro.service.protocol import WebSocket

        total = 100

        async def go():
            manager = make_manager(tmp_path)
            job = manager.submit(trial_payload(trials=total), client="t")
            store = manager.store_dir(job.id)
            store.mkdir(parents=True)
            (store / "trials-0of1.jsonl").write_text(
                "".join(fake_line(i) + "\n" for i in range(total)))
            job.state = "done"
            manager._persist(job)

            harness = WsHarness(drain_delay=0.02)  # a slow reader
            await asyncio.wait_for(
                stream_job(manager, job, WebSocket(harness.reader, harness),
                           poll=0.01, queue_limit=4, summary_interval=0.01),
                timeout=30)
            return harness.messages()

        records, events, closed = asyncio.run(go())
        end = events[-1][1]
        assert end["event"] == "end"
        # every record was seen, most were dropped, none were lost track of
        assert end["records"] == total
        assert end["dropped"] > 0
        assert len(records) + end["dropped"] == total
        assert len(records) <= 4 + 1  # nothing shipped after the overflow
        assert closed


class TestResumedEvent:
    """A worker crash mid-job surfaces as a ``resumed`` control event."""

    def test_sigkilled_worker_emits_resumed_on_the_stream(self, tmp_path):
        import time

        from repro.service.protocol import WebSocket

        async def go():
            manager = JobManager(tmp_path, workers=1)
            manager.recover()
            job = manager.submit(trial_payload(n=20, trials=60, seed=3),
                                 client="t")
            stop = asyncio.Event()
            scheduler = asyncio.ensure_future(manager.run(stop))
            harness = WsHarness()
            stream = asyncio.ensure_future(stream_job(
                manager, job, WebSocket(harness.reader, harness), poll=0.01))

            async def wait_for(condition, timeout=60.0):
                deadline = time.monotonic() + timeout
                while not condition():
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.02)

            try:
                # kill only once the worker is mid-job (records on disk)
                await wait_for(lambda: job.state == "running" and len(
                    store_lines(manager.store_dir(job.id))) >= 3)
                for proc in list(manager.drains[job.id].procs.values()):
                    proc.kill()
                # the coordinator requeues and respawns; the job completes
                await wait_for(lambda: job.state == "done", timeout=120)
                await asyncio.wait_for(stream, timeout=30)
            finally:
                stop.set()
                await scheduler
                await manager.drain()
            return job.requeues, harness.messages()

        requeues, (records, events, closed) = asyncio.run(go())
        assert requeues >= 1
        names = [e["event"] for _, e in events]
        assert "resumed" in names
        resumed = next(e for _, e in events if e["event"] == "resumed")
        assert resumed["requeues"] >= 1
        # the stream kept going: resumed is not terminal, end is
        assert names.index("resumed") < names.index("end")
        assert events[-1][1]["state"] == "done"
        assert closed

    def test_restart_recovery_counts_as_a_requeue(self, tmp_path):
        manager = make_manager(tmp_path)
        job = manager.submit(trial_payload(), client="t")
        job.state = "running"  # simulate dying with a live worker
        manager._persist(job)

        revived = JobManager(tmp_path, workers=0)
        revived.recover()
        recovered = revived.get(job.id)
        assert recovered.state == "queued"
        assert recovered.requeues == 1
        assert recovered.view()["requeues"] == 1


class TestRecordTail:
    def test_poll_is_incremental_and_checksum_gated(self, tmp_path):
        path = tmp_path / "trials-0of1.jsonl"
        path.write_text(fake_line(0) + "\n" + "garbage not json\n")
        tail = RecordTail(tmp_path)
        assert tail.poll() == [fake_line(0)]
        assert tail.poll() == []  # nothing new
        with open(path, "a") as fh:
            fh.write(fake_line(1) + "\n")
        assert tail.poll() == [fake_line(1)]

    def test_new_shard_files_are_discovered(self, tmp_path):
        tail = RecordTail(tmp_path)
        assert tail.poll() == []
        (tmp_path / "trials-1of2.jsonl").write_text(fake_line(7) + "\n")
        assert tail.poll() == [fake_line(7)]
