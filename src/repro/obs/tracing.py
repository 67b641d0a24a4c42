"""Nestable tracing spans emitting checksummed JSONL events.

``span("name", key=value)`` is a context manager.  Enabled, it times
the block and appends one JSON line per span on exit — a checksummed
log line of :mod:`repro.durable`, like a campaign record, so a trace
file survives a SIGKILL mid-write and a reader can always separate a
torn line from corruption.  Unlike record stores, a trace line without
a checksum is damage, never a legacy line.  Disabled, ``span()``
returns a shared no-op singleton: the fast path is one global load and
one branch, nothing allocated, which is what lets tracing hooks live
permanently in ``run_dynamics`` and the fabric workers.

Sampling is decided once per *root* span (children inherit the
decision), so a sampled trace always contains complete trees.

Configuration is environment-first: ``REPRO_TRACE=<path>`` turns the
global tracer on, ``REPRO_TRACE_SAMPLE=<0..1>`` sets the sampling
rate.  :func:`configure` also writes those variables back into
``os.environ`` so fabric / service worker subprocesses inherit the
same trace destination (each process appends with its own pid in every
event; lines are whole, so concurrent appends interleave cleanly).
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from typing import Dict, Iterator, Optional

from .. import durable
from ..testing.faults import resolve_fs

__all__ = [
    "ENV_SAMPLE",
    "ENV_TRACE",
    "Tracer",
    "configure",
    "current_tracer",
    "fsck_trace",
    "iter_trace",
    "span",
    "summarize_trace",
]

ENV_TRACE = "REPRO_TRACE"
ENV_SAMPLE = "REPRO_TRACE_SAMPLE"


class _NoopSpan:
    """Shared do-nothing context manager (reentrant: it has no state)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("_tracer", "name", "attrs", "_t0")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self._tracer._push(self)
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.monotonic() - self._t0
        self._tracer._pop(self, duration, error=exc_type is not None)
        return False


class Tracer:
    """Appends one checksummed event per finished span to a JSONL file.

    ``fs`` is the filesystem seam every append goes through (the chaos
    suite passes a :class:`~repro.testing.faults.FaultyFS`).
    """

    def __init__(self, path, sample: float = 1.0, seed: Optional[int] = None,
                 fs=None) -> None:
        self.path = os.fspath(path)
        self.fs = resolve_fs(fs)
        self.sample = float(sample)
        self.enabled = True
        self._rng = random.Random(seed)
        self._local = threading.local()
        self._write_lock = threading.Lock()
        self._fh = None

    # -- span stack ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> _Span:
        if not self.enabled:
            return _NOOP
        return _Span(self, name, attrs)

    def _push(self, span: _Span) -> None:
        stack = self._stack()
        if not stack:
            # sampling is decided at the root so trees stay complete
            self._local.sampled = (self.sample >= 1.0
                                   or self._rng.random() < self.sample)
        stack.append(span)

    def _pop(self, span: _Span, duration: float, error: bool) -> None:
        stack = self._stack()
        depth = len(stack) - 1
        parent = stack[-2].name if depth > 0 else None
        stack.pop()
        if not getattr(self._local, "sampled", True):
            return
        event = {"kind": "span", "name": span.name, "dur_s": duration,
                 "depth": depth, "parent": parent, "pid": os.getpid()}
        if error:
            event["error"] = True
        if span.attrs:
            event["attrs"] = {k: v for k, v in sorted(span.attrs.items())}
        self._write(event)

    # -- durable append -----------------------------------------------

    def _write(self, event: dict) -> None:
        line = durable.encode_line(event) + "\n"
        with self._write_lock:
            if self._fh is None:
                self._fh = durable.open_append(self.path, self.fs)
            self.fs.append_text(self._fh, line)

    def close(self) -> None:
        with self._write_lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


# ---------------------------------------------------------------------------
# the global tracer
# ---------------------------------------------------------------------------

_GLOBAL: Optional[Tracer] = None


def configure(path=None, sample: float = 1.0,
              seed: Optional[int] = None) -> Optional[Tracer]:
    """Install (or, with ``path=None``, remove) the global tracer.

    The destination is mirrored into ``os.environ`` so subprocesses —
    fabric workers, service job workers — trace into the same file.
    """
    global _GLOBAL
    if _GLOBAL is not None:
        _GLOBAL.close()
    if path is None:
        _GLOBAL = None
        os.environ.pop(ENV_TRACE, None)
        os.environ.pop(ENV_SAMPLE, None)
        return None
    _GLOBAL = Tracer(path, sample=sample, seed=seed)
    os.environ[ENV_TRACE] = _GLOBAL.path
    os.environ[ENV_SAMPLE] = repr(float(sample))
    return _GLOBAL


def _configure_from_env() -> None:
    path = os.environ.get(ENV_TRACE, "").strip()
    if not path:
        return
    try:
        sample = float(os.environ.get(ENV_SAMPLE, "1.0"))
    except ValueError:
        sample = 1.0
    global _GLOBAL
    _GLOBAL = Tracer(path, sample=sample)


_configure_from_env()

#: the global tracer's write lock, held across a fork
_HELD_FOR_FORK: list = []


def _hold_for_fork() -> None:
    # a fork from one thread while another appends (fabric workers start
    # off the service's event loop) would hand the child a lock nobody
    # releases and a half-written buffer: wait the append out instead
    if _GLOBAL is not None:
        _GLOBAL._write_lock.acquire()
        _HELD_FOR_FORK.append(_GLOBAL._write_lock)


def _release_after_fork() -> None:
    while _HELD_FOR_FORK:
        _HELD_FOR_FORK.pop().release()


os.register_at_fork(before=_hold_for_fork,
                    after_in_parent=_release_after_fork,
                    after_in_child=_release_after_fork)


def current_tracer() -> Optional[Tracer]:
    return _GLOBAL


def span(name: str, **attrs):
    """The instrumentation entry point: a context manager timing the
    block under the global tracer, or a shared no-op when tracing is
    off (one global load + one branch — nothing allocated)."""
    tracer = _GLOBAL
    if tracer is None:
        return _NOOP
    return tracer.span(name, **attrs)


# ---------------------------------------------------------------------------
# reading traces back
# ---------------------------------------------------------------------------


def iter_trace(path) -> Iterator[dict]:
    """Yield every checksum-valid event; skip torn/corrupt lines."""
    for _, _, record, _ in durable.scan(path, require_crc=True):
        if record is not None:
            yield record


def summarize_trace(path) -> dict:
    """Fold a trace JSONL into a per-span-name time table.

    Returns ``{"spans": {name: {count, total_s, mean_s, max_s}},
    "total_events": N, "skipped_lines": M}`` sorted by total time.
    """
    table: Dict[str, dict] = {}
    total = skipped = 0
    for _, _, record, _ in durable.scan(path, require_crc=True):
        if record is None:
            skipped += 1
            continue
        total += 1
        name = record.get("name", "?")
        dur = float(record.get("dur_s", 0.0))
        row = table.get(name)
        if row is None:
            row = table[name] = {"count": 0, "total_s": 0.0, "max_s": 0.0}
        row["count"] += 1
        row["total_s"] += dur
        row["max_s"] = max(row["max_s"], dur)
    for row in table.values():
        row["mean_s"] = row["total_s"] / row["count"]
    ordered = dict(sorted(table.items(),
                          key=lambda kv: -kv[1]["total_s"]))
    return {"spans": ordered, "total_events": total,
            "skipped_lines": skipped}


def fsck_trace(path, repair: bool = False) -> dict:
    """Verify every line of a trace file; optionally quarantine damage.

    The report has the shape of
    :meth:`~repro.experiments.campaign.CampaignStore.fsck`'s: ``{"files",
    "records_ok", "foreign", "damaged", "repaired"}``.  With
    ``repair=True`` damaged lines move to ``corrupt/<name>.bad`` next to
    the trace and the file is rewritten without them.
    """
    records, damaged = durable.fsck_file(
        path, require_crc=True, repair=repair, fs=resolve_fs(None))
    return {
        "files": [os.path.basename(os.fspath(path))],
        "records_ok": len(records),
        "foreign": 0,
        "damaged": damaged,
        "repaired": len(damaged) if repair else 0,
    }
