"""repro.obs — unified telemetry: metrics registry + tracing spans.

Stdlib-only, and imports nothing from the rest of :mod:`repro` but
:mod:`repro.durable` and the filesystem seam under it, so any layer —
graph kernels, the statespace explorer, the campaign fabric, the
asyncio service — can instrument itself without import cycles.

Two primitives:

* :class:`Meter` (``repro.obs.metrics``) — counters / gauges /
  histograms with lock-free hot-path updates, mergeable snapshots
  (associative + commutative fold, like campaign aggregates), and a
  Prometheus text encoder served on ``GET /metrics``.
* :func:`span` (``repro.obs.tracing``) — nestable timing context
  managers emitting checksummed JSONL events with sampling, and a
  strict no-op fast path when disabled.

See ``docs/architecture.md`` ("Observability") for the instrumentation
recipe.
"""

from .metrics import (
    CONTENT_TYPE,
    DEFAULT,
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Meter,
    counter,
    diff_snapshots,
    encode_prometheus,
    gauge,
    histogram,
    merge_snapshots,
    read_snapshot_file,
    write_snapshot_file,
)
from .tracing import (
    Tracer,
    configure,
    current_tracer,
    fsck_trace,
    iter_trace,
    span,
    summarize_trace,
)

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Meter",
    "Tracer",
    "configure",
    "counter",
    "current_tracer",
    "diff_snapshots",
    "encode_prometheus",
    "fsck_trace",
    "gauge",
    "histogram",
    "iter_trace",
    "merge_snapshots",
    "read_snapshot_file",
    "span",
    "summarize_trace",
    "write_snapshot_file",
]
