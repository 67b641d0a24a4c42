"""Service benchmarks: concurrent admission, frame codec, stream replay.

Mirrors ``bench_fabric.py``'s baseline discipline: run standalone
(``python benchmarks/bench_service.py``) to measure the cells and diff
them against the committed ``BENCH_service.json`` at the repo root.
Any cell more than 25% slower than its baseline exits non-zero; a
regressed run never rewrites the baseline.  ``--smoke`` (CI) runs the
cheap cells only and never writes; ``--no-write`` measures without
rewriting; ``--force-write`` accepts regressed numbers.

Every timed cell is also *verified*: the admission cell pins zero
lost/duplicated jobs (accepted responses and on-disk job directories
must agree exactly, quota rejections must carry Retry-After), the
codec cell pins payload integrity, the replay cell pins byte-identity
of every streamed record.
"""

import asyncio
import json
import pathlib
import shutil
import tempfile
import time
from typing import Optional

from repro.durable import encode_line
from repro.service import QuotaPolicy, ServiceConfig, ServiceThread
from repro.service.jobs import JobManager
from repro.service.protocol import (
    OP_BINARY,
    OP_CLOSE,
    OP_TEXT,
    WebSocket,
    decode_frame,
    encode_frame,
)
from repro.service.stream import stream_job

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_service.json"

REGRESSION_FACTOR = 1.25

#: cells whose *baseline* time is below this are too fast to time
#: reliably; they are reported but not gated (same rule as bench_fabric).
MIN_GATE_SECONDS = 0.1

SUBMISSIONS = 1000
MAX_QUEUED = 512
#: generous ceiling on p99 admission latency — the pin is "bounded",
#: the regression gate on total seconds tracks the trend
P99_CEILING_SECONDS = 5.0

CODEC_FRAMES = 20_000
REPLAY_RECORDS = 2_000

SPEC = {"game": {"name": "sg", "params": {"mode": "sum"}},
        "topology": {"name": "budget", "params": {"budget": 2}}}
PAYLOAD = {"kind": "trial", "spec": SPEC, "n": 8, "trials": 3, "seed": 5}


async def _submit_once(host: str, port: int, body: bytes, token: str):
    """One raw POST /jobs over its own connection; returns
    (status, parsed body, seconds)."""
    t0 = time.perf_counter()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (f"POST /jobs HTTP/1.1\r\nHost: bench\r\n"
                f"X-Client-Token: {token}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        writer.write(head + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    seconds = time.perf_counter() - t0
    status = int(raw.split(b" ", 2)[1])
    headers, _, payload = raw.partition(b"\r\n\r\n")
    return status, json.loads(payload), headers.decode(), seconds


def bench_admission(root) -> dict:
    """SUBMISSIONS concurrent submissions against an admission-only
    server: zero lost or duplicated jobs, quotas enforced, p99 bounded."""
    config = ServiceConfig(
        state_dir=root / "state", workers=0,
        quota=QuotaPolicy(max_queued=MAX_QUEUED,
                          max_jobs_per_client=SUBMISSIONS))
    body = json.dumps(PAYLOAD).encode()

    async def storm(host, port):
        return await asyncio.gather(*(
            _submit_once(host, port, body, f"client-{i % 16}")
            for i in range(SUBMISSIONS)))

    with ServiceThread(config) as svc:
        t0 = time.perf_counter()
        results = asyncio.run(storm(config.host, svc.port))
        seconds = time.perf_counter() - t0

    accepted = [p["id"] for status, p, _, _ in results if status == 201]
    rejected = [(p, headers) for status, p, headers, _ in results
                if status == 503]
    latencies = sorted(lat for _, _, _, lat in results)
    p99 = latencies[int(len(latencies) * 0.99) - 1]

    # zero lost, zero duplicated: the 201 ids and the on-disk job
    # directories are exactly the same set
    assert len(accepted) == len(set(accepted)) == MAX_QUEUED, len(accepted)
    assert len(accepted) + len(rejected) == SUBMISSIONS
    on_disk = {p.name for p in (root / "state" / "jobs").iterdir()}
    assert on_disk == set(accepted), "job table diverged from responses"
    for payload, headers in rejected:
        assert payload["error"] == "saturated"
        assert "retry-after:" in headers.lower()
    assert p99 < P99_CEILING_SECONDS, f"p99 admission latency {p99:.3f}s"
    return {"seconds": seconds, "accepted": len(accepted),
            "rejected": len(rejected), "p99_ms": round(p99 * 1000, 1)}


def bench_ws_codec(root) -> dict:
    """Encode + decode CODEC_FRAMES masked frames (the per-record cost
    of a stream); pins payload integrity through the mask round-trip."""
    payloads = [
        (b"%d:" % i) + b"x" * (64 + (i % 3) * 97) for i in range(CODEC_FRAMES)
    ]
    t0 = time.perf_counter()
    wire = b"".join(
        encode_frame(OP_BINARY, p, mask=bool(i % 2))
        for i, p in enumerate(payloads))
    count = 0
    view = memoryview(wire)
    offset = 0
    while offset < len(wire):
        # fixed-size window: frames here are small, and slicing the
        # whole tail each iteration would be quadratic
        frame, consumed = decode_frame(bytes(view[offset:offset + 1024]))
        assert frame.payload == payloads[count]
        offset += consumed
        count += 1
    seconds = time.perf_counter() - t0
    assert count == CODEC_FRAMES
    return {"seconds": seconds, "frames": count}


class _SinkWriter:
    """In-memory websocket peer for the replay cell."""

    def __init__(self):
        self.sent = bytearray()

    def write(self, data):
        self.sent += data

    async def drain(self):
        pass


def bench_stream_replay(root) -> dict:
    """Replay REPLAY_RECORDS stored records through stream_job; pins
    byte-identity of every streamed line."""
    manager = JobManager(root / "state", workers=0)
    manager.recover()
    job = manager.submit({**PAYLOAD, "trials": REPLAY_RECORDS}, client="bench")
    store = manager.store_dir(job.id)
    store.mkdir(parents=True)
    lines = [encode_line({"cell": "bench-n8", "trial": i,
                          "steps": i % 40, "status": "converged"})
             for i in range(REPLAY_RECORDS)]
    (store / "trials-0of1.jsonl").write_text("".join(l + "\n" for l in lines))
    job.state = "done"
    manager._persist(job)

    writer = _SinkWriter()

    async def run():
        reader = asyncio.StreamReader()
        await stream_job(manager, job, WebSocket(reader, writer),
                         poll=0.001, queue_limit=REPLAY_RECORDS + 16)

    t0 = time.perf_counter()
    asyncio.run(asyncio.wait_for(run(), timeout=120))
    seconds = time.perf_counter() - t0

    got, closed = [], False
    buf = bytes(writer.sent)
    while buf:
        decoded = decode_frame(buf)
        if decoded is None:
            break
        frame, consumed = decode_frame(buf)
        buf = buf[consumed:]
        if frame.opcode == OP_CLOSE:
            closed = True
        elif frame.opcode == OP_TEXT:
            text = frame.payload.decode()
            if '"event"' not in text:
                got.append(text)
    assert got == lines, "streamed records diverged from the store"
    assert closed
    return {"seconds": seconds, "records": len(got)}


CELLS = {
    "admit-1k-concurrent": bench_admission,
    "ws-codec-20k": bench_ws_codec,
    "stream-replay-2k": bench_stream_replay,
}

SMOKE_CELLS = ("admit-1k-concurrent", "ws-codec-20k")


def run_cell(name: str) -> dict:
    """Time one cell in a throwaway directory; verify its pins."""
    fn = CELLS[name]
    tmp = tempfile.mkdtemp(prefix=f"bench-service-{name}-")
    try:
        measured = fn(pathlib.Path(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    measured["cell"] = name
    measured["seconds"] = round(measured["seconds"], 4)
    return measured


def test_bench_cells_verify():
    """Every cell's identity pins hold (timings ignored)."""
    for name in sorted(CELLS):
        run_cell(name)


def compare_to_baseline(summary: dict, baseline: dict) -> list:
    """Cells >25% slower than the committed baseline (above the noise
    floor).  Returns ``[(cell, old, new), ...]``."""
    old_cells = {c["cell"]: c for c in baseline.get("cells", [])}
    regressions = []
    for cell in summary.get("cells", []):
        old = old_cells.get(cell["cell"])
        if old is None or old["seconds"] < MIN_GATE_SECONDS:
            continue
        if cell["seconds"] > old["seconds"] * REGRESSION_FACTOR:
            regressions.append((cell["cell"], old["seconds"], cell["seconds"]))
    return regressions


def main(smoke: bool = False, write_baseline: Optional[bool] = None,
         force: bool = False) -> int:
    """Measure the cells, diff against ``BENCH_service.json``."""
    names = SMOKE_CELLS if smoke else sorted(CELLS)
    reps = 2 if smoke else 3
    cells = []
    for name in names:
        best = None
        for _ in range(reps):  # best-of: deterministic work, noisy clock
            measured = run_cell(name)
            if best is None or measured["seconds"] < best["seconds"]:
                best = measured
        cells.append(best)
        detail = " ".join(f"{k}={v}" for k, v in sorted(best.items())
                          if k not in ("cell", "seconds"))
        print(f"{best['cell']:>20}: {best['seconds']:.3f}s {detail}")
    summary = {"cells": cells}

    regressions = []
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        regressions = compare_to_baseline(summary, baseline)
        for key, old, new in regressions:
            print(f"REGRESSION {key}: {old}s -> {new}s "
                  f"(allowed {REGRESSION_FACTOR:.2f}x = {old * REGRESSION_FACTOR:.4g}s)")
        if not regressions:
            print(f"no >25% regressions vs {BASELINE_PATH.name}")
    else:
        print("no committed baseline found; skipping regression check")

    if write_baseline is None:
        write_baseline = not smoke
    if write_baseline and regressions and not force:
        print("baseline NOT rewritten: regressions above; fix them or "
              "rerun with --force-write to accept the new numbers")
    elif write_baseline:
        BASELINE_PATH.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
    else:
        print("baseline not rewritten")
    return 1 if regressions else 0


if __name__ == "__main__":
    import sys

    if "--force-write" in sys.argv:
        sys.exit(main(smoke="--smoke" in sys.argv, write_baseline=True,
                      force=True))
    sys.exit(main(smoke="--smoke" in sys.argv,
                  write_baseline=False if "--no-write" in sys.argv else None))
