"""``GET /jobs/{id}/stream`` — replay stored records, then tail live.

The stream is the store, verbatim: every data message is one record
line exactly as the job's :class:`~repro.experiments.campaign
.CampaignStore` holds it (checksum field included, trailing newline
stripped).  There is exactly one serialization —
``durable.encode_line(_trial_row(...))`` — shared by ``repro campaign``,
the fabric workers, and this websocket, so a streamed job is
byte-identical to the same spec run directly.

Control messages are JSON objects carrying an ``"event"`` key (record
rows never have one): a ``job`` hello on connect, periodic ``summary``
events once a slow client overflows its queue, and a final ``end``.

Backpressure: each client gets a bounded :class:`asyncio.Queue`.  The
producer never awaits the client — a full queue flips the stream into
*summary-only* mode permanently (records are counted, not queued), so
a slow reader costs the worker nothing and still learns how far the
job has progressed.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import List, Tuple

from ..durable import decode_line
from ..obs import metrics as obs_metrics
from .jobs import TERMINAL_STATES, Job, JobManager
from .protocol import CLOSE_NORMAL, ProtocolError, WebSocket

__all__ = ["DEFAULT_QUEUE_LIMIT", "SUMMARY_INTERVAL", "RecordTail",
           "stream_job"]

_STREAM_EVENTS = obs_metrics.counter(
    "repro_stream_events_total",
    "Stream lifecycle events across all connections",
    ("event",))
_STREAM_OPENED = _STREAM_EVENTS.labels(event="opened")
_STREAM_BACKPRESSURE = _STREAM_EVENTS.labels(event="backpressure_flip")
_STREAM_RESUMED = _STREAM_EVENTS.labels(event="resumed")

#: per-client queue bound — overflow flips the stream to summary-only
DEFAULT_QUEUE_LIMIT = 256
#: how often a summary event goes out while in summary-only mode
SUMMARY_INTERVAL = 0.5


class RecordTail:
    """Incremental reader over a store directory's ``*.jsonl`` files.

    Byte offsets per file; only complete, checksum-valid lines are
    yielded (a torn tail left by a kill is skipped exactly as
    ``iter_records`` skips it, then picked up once the writer stitches
    a newline).  New files (other shards, compaction) are discovered on
    every poll.
    """

    def __init__(self, store_dir) -> None:
        self.root = Path(store_dir)
        self._cursors = {}

    def poll(self) -> List[str]:
        lines: List[str] = []
        for path in sorted(self.root.glob("*.jsonl")):
            offset, partial = self._cursors.get(path.name, (0, b""))
            try:
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
            except OSError:
                continue
            if not chunk:
                continue
            offset += len(chunk)
            parts = (partial + chunk).split(b"\n")
            partial = parts.pop()
            for raw in parts:
                if not raw:
                    continue
                text = raw.decode("utf-8", errors="replace")
                if decode_line(text, require_crc=False)[0] is not None:
                    lines.append(text)
            self._cursors[path.name] = (offset, partial)
        return lines


def _event(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


async def stream_job(
    manager: JobManager,
    job: Job,
    ws: WebSocket,
    *,
    poll: float = 0.05,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    summary_interval: float = SUMMARY_INTERVAL,
) -> None:
    """Serve one stream connection until the job ends or the client goes."""
    queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
    await ws.send_text(_event({"event": "job", **job.view(manager.progress(job))}))
    _STREAM_OPENED.inc()

    async def producer() -> None:
        tail = RecordTail(manager.store_dir(job.id))
        seen = dropped = 0
        summary_mode = False
        last_summary = 0.0
        seen_requeues = job.requeues
        while True:
            if job.requeues != seen_requeues:
                # the worker died mid-job (respawned) or the job was
                # drained: tell the client it will resume, not that it ended
                seen_requeues = job.requeues
                _STREAM_RESUMED.inc()
                try:
                    queue.put_nowait(("event", _event(
                        {"event": "resumed", "job": job.id,
                         "state": job.state, "requeues": job.requeues,
                         "records": seen})))
                except asyncio.QueueFull:
                    pass  # summary events carry the state anyway
            lines = tail.poll()
            for line in lines:
                seen += 1
                if summary_mode:
                    dropped += 1
                    continue
                try:
                    queue.put_nowait(("record", line))
                except asyncio.QueueFull:
                    # the client is slower than the job: stop shipping
                    # records for good, keep counting them
                    summary_mode = True
                    _STREAM_BACKPRESSURE.inc()
                    dropped += 1
            now = time.monotonic()
            if summary_mode and now - last_summary >= summary_interval:
                try:
                    queue.put_nowait(("event", _event(
                        {"event": "summary", "state": job.state,
                         "records": seen, "dropped": dropped})))
                    last_summary = now
                except asyncio.QueueFull:
                    pass
            if job.state in TERMINAL_STATES and not lines:
                await queue.put(("end", _event(
                    {"event": "end", "state": job.state,
                     "records": seen, "dropped": dropped})))
                return
            await asyncio.sleep(poll)

    async def sender() -> None:
        while True:
            kind, text = await queue.get()
            try:
                await ws.send_text(text)
            except (ConnectionError, RuntimeError):
                return
            if kind == "end":
                await ws.close(CLOSE_NORMAL)
                return

    async def receiver() -> None:
        # drive pings/close from the peer; returns once the client leaves
        try:
            while await ws.recv() is not None:
                pass
        except (ProtocolError, ConnectionError):
            pass

    produce = asyncio.ensure_future(producer())
    pump = asyncio.ensure_future(sender())
    watch = asyncio.ensure_future(receiver())
    try:
        await asyncio.wait({pump, watch}, return_when=asyncio.FIRST_COMPLETED)
    finally:
        for task in (produce, pump, watch):
            task.cancel()
        await asyncio.gather(produce, pump, watch, return_exceptions=True)
