"""Process-local metrics: counters, gauges, histograms behind a registry.

Design constraints, in order:

1. **Hot-path cost.**  Instrumented seams pre-bind a handle once
   (module import / object construction time); the per-event call is
   one attribute load, one ``enabled`` branch, and one dict update.
   Disabled, it is the attribute load and the branch — nothing else —
   so telemetry can stay compiled into kernel-adjacent code under the
   ``BENCH_obs.json`` overhead gate.  No locks on the hot path: under
   the GIL a dict store is atomic, and a lost increment under true
   free-threaded contention is an acceptable statistics error, never a
   corruption.

2. **Mergeable snapshots.**  :meth:`Meter.snapshot` returns a plain
   JSON-safe dict and :func:`merge_snapshots` folds two of them.  The
   merge is associative and commutative — counters and histogram
   buckets add, gauges take the max (a "high-water" reading; last-write
   gauges do not commute, so we don't offer them across processes) —
   which means per-shard / per-worker snapshots fold in *any* order to
   the same fleet total, exactly like campaign aggregates.

3. **Exposition.**  :func:`encode_prometheus` renders a snapshot in
   the Prometheus text format (``text/plain; version=0.0.4``): the
   service serves it on ``GET /metrics``, and ``repro top`` renders the
   same snapshots as a console table.

The module is stdlib-only and imports nothing from :mod:`repro` but
:mod:`repro.durable` and the filesystem seam under it, so every layer
(graphs kernels included) may instrument itself without import cycles.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

from .. import durable
from ..testing.faults import resolve_fs

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Meter",
    "counter",
    "diff_snapshots",
    "encode_prometheus",
    "gauge",
    "histogram",
    "merge_snapshots",
    "read_snapshot_file",
    "write_snapshot_file",
]

#: HTTP content type of the Prometheus text exposition format
CONTENT_TYPE = "text/plain; version=0.0.4"

#: default histogram bounds, in seconds (latency-oriented)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: environment switch: ``REPRO_OBS=0`` disables all meters at import
ENV_SWITCH = "REPRO_OBS"

_OFF_VALUES = frozenset({"0", "off", "false", "no"})


def enabled_from_env(environ=os.environ) -> bool:
    return environ.get(ENV_SWITCH, "1").strip().lower() not in _OFF_VALUES


def _labelstr(labels: Dict[str, str]) -> str:
    """Canonical snapshot key for a label set (sorted-key JSON)."""
    if not labels:
        return "{}"
    return json.dumps({k: str(v) for k, v in labels.items()}, sort_keys=True)


class _Family:
    """Shared declaration state for one metric name."""

    kind = "untyped"

    def __init__(self, meter: "Meter", name: str, help: str,
                 labelnames: Tuple[str, ...]) -> None:
        self.meter = meter
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.values: Dict[str, float] = {}

    def _key(self, labels: Dict[str, str]) -> str:
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"{self.name}: got labels {sorted(labels)}, "
                f"declared {sorted(self.labelnames)}")
        return _labelstr(labels)

    def snapshot_values(self) -> dict:
        return dict(self.values)

    def family_snapshot(self) -> dict:
        return {"type": self.kind, "help": self.help,
                "labels": list(self.labelnames),
                "values": self.snapshot_values()}


class _CounterHandle:
    __slots__ = ("_meter", "_values", "_key")

    def __init__(self, family: "Counter", key: str) -> None:
        self._meter = family.meter
        self._values = family.values
        self._key = key

    def inc(self, n: float = 1.0) -> None:
        if self._meter.enabled:
            values = self._values
            values[self._key] = values.get(self._key, 0.0) + n


class Counter(_Family):
    """A monotonically increasing sum.  Merge: addition."""

    kind = "counter"

    def labels(self, **labels: str) -> _CounterHandle:
        return _CounterHandle(self, self._key(labels))

    def inc(self, n: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(n)


class _GaugeHandle:
    __slots__ = ("_meter", "_values", "_key")

    def __init__(self, family: "Gauge", key: str) -> None:
        self._meter = family.meter
        self._values = family.values
        self._key = key

    def set(self, value: float) -> None:
        if self._meter.enabled:
            self._values[self._key] = float(value)

    def set_max(self, value: float) -> None:
        """Record a high-water mark (how gauges merge across workers)."""
        if self._meter.enabled:
            values = self._values
            prev = values.get(self._key)
            if prev is None or value > prev:
                values[self._key] = float(value)


class Gauge(_Family):
    """A point-in-time reading.  Merge: max (high-water semantics) —
    the only instantaneous fold that is associative and commutative."""

    kind = "gauge"

    def labels(self, **labels: str) -> _GaugeHandle:
        return _GaugeHandle(self, self._key(labels))

    def set(self, value: float, **labels: str) -> None:
        self.labels(**labels).set(value)


class _HistogramHandle:
    __slots__ = ("_meter", "_values", "_key", "_bounds")

    def __init__(self, family: "Histogram", key: str) -> None:
        self._meter = family.meter
        self._values = family.values
        self._key = key
        self._bounds = family.bounds

    def observe(self, value: float) -> None:
        if not self._meter.enabled:
            return
        cell = self._values.get(self._key)
        if cell is None:
            cell = self._values[self._key] = {
                "sum": 0.0, "count": 0,
                "buckets": [0] * (len(self._bounds) + 1)}
        cell["sum"] += value
        cell["count"] += 1
        cell["buckets"][bisect_left(self._bounds, value)] += 1


class Histogram(_Family):
    """Cumulative-bucket histogram.  Merge: element-wise addition."""

    kind = "histogram"

    def __init__(self, meter: "Meter", name: str, help: str,
                 labelnames: Tuple[str, ...],
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(meter, name, help, labelnames)
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError(f"{name}: histogram needs at least one bucket")

    def labels(self, **labels: str) -> _HistogramHandle:
        return _HistogramHandle(self, self._key(labels))

    def observe(self, value: float, **labels: str) -> None:
        self.labels(**labels).observe(value)

    def snapshot_values(self) -> dict:
        return {key: {"sum": cell["sum"], "count": cell["count"],
                      "buckets": list(cell["buckets"])}
                for key, cell in self.values.items()}

    def family_snapshot(self) -> dict:
        snap = super().family_snapshot()
        snap["bounds"] = list(self.bounds)
        return snap


class Meter:
    """A registry of metric families sharing one enabled switch.

    Declaring a name twice returns the existing family (so module-level
    instrumentation is idempotent under re-import); re-declaring with a
    different kind is a bug and raises.
    """

    def __init__(self, enabled: Optional[bool] = None) -> None:
        self.enabled = enabled_from_env() if enabled is None else enabled
        self._families: Dict[str, _Family] = {}

    def _declare(self, cls, name: str, help: str,
                 labelnames: Iterable[str], **kwargs) -> _Family:
        family = self._families.get(name)
        if family is not None:
            if not isinstance(family, cls):
                raise ValueError(
                    f"{name} already declared as {family.kind}, not {cls.kind}")
            return family
        family = cls(self, name, help, tuple(labelnames), **kwargs)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._declare(Histogram, name, help, labelnames,
                             buckets=buckets)

    def snapshot(self) -> dict:
        """A JSON-safe, mergeable copy of every family's current state.

        Families with no samples are still present (type + help), so a
        scrape of an idle process shows which metrics *exist*.
        """
        return {name: family.family_snapshot()
                for name, family in sorted(self._families.items())}

    def reset(self) -> None:
        """Zero every family's samples (declarations survive)."""
        for family in self._families.values():
            family.values.clear()


#: the process-global meter every built-in seam binds against
DEFAULT = Meter()


def counter(name: str, help: str = "",
            labelnames: Iterable[str] = ()) -> Counter:
    return DEFAULT.counter(name, help, labelnames)


def gauge(name: str, help: str = "",
          labelnames: Iterable[str] = ()) -> Gauge:
    return DEFAULT.gauge(name, help, labelnames)


def histogram(name: str, help: str = "", labelnames: Iterable[str] = (),
              buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
    return DEFAULT.histogram(name, help, labelnames, buckets=buckets)


# ---------------------------------------------------------------------------
# snapshot algebra
# ---------------------------------------------------------------------------


def _merge_cell(kind: str, a, b):
    if kind == "counter":
        return a + b
    if kind == "gauge":
        return max(a, b)
    if kind == "histogram":
        if len(a["buckets"]) != len(b["buckets"]):
            raise ValueError("histogram bucket layouts differ")
        return {"sum": a["sum"] + b["sum"], "count": a["count"] + b["count"],
                "buckets": [x + y for x, y in zip(a["buckets"], b["buckets"])]}
    raise ValueError(f"unknown metric kind {kind!r}")


def merge_snapshots(a: dict, b: dict) -> dict:
    """Fold two snapshots into one.  Associative and commutative:
    counters/histograms add, gauges take the max, so worker snapshots
    merge in any order (or any tree shape) to the same fleet total."""
    out = {}
    for name in sorted(set(a) | set(b)):
        fa, fb = a.get(name), b.get(name)
        if fa is None or fb is None:
            src = fa if fb is None else fb
            out[name] = json.loads(json.dumps(src))  # deep, JSON-safe copy
            continue
        if fa["type"] != fb["type"]:
            raise ValueError(
                f"{name}: cannot merge {fa['type']} with {fb['type']}")
        if fa["type"] == "histogram" and fa.get("bounds") != fb.get("bounds"):
            raise ValueError(f"{name}: histogram bounds differ")
        merged = dict(fa, values={})
        values = merged["values"]
        for key in set(fa["values"]) | set(fb["values"]):
            va, vb = fa["values"].get(key), fb["values"].get(key)
            if va is None or vb is None:
                src = va if vb is None else vb
                values[key] = json.loads(json.dumps(src))
            else:
                values[key] = _merge_cell(fa["type"], va, vb)
        out[name] = merged
    return out


def diff_snapshots(after: dict, before: dict) -> dict:
    """What happened between two snapshots of the *same* meter.

    Counters and histograms subtract (clamped at zero); gauges keep the
    ``after`` reading.  This is how a forked worker reports only its
    own contribution: the parent's counts ride along in the fork, so a
    worker persists ``diff(exit_snapshot, entry_snapshot)`` and fleet
    merges never double-count the parent.
    """
    out = {}
    for name, fa in after.items():
        fb = before.get(name)
        if fb is None or fa["type"] == "gauge":
            out[name] = json.loads(json.dumps(fa))
            continue
        delta = dict(fa, values={})
        values = delta["values"]
        for key, va in fa["values"].items():
            vb = fb["values"].get(key)
            if vb is None:
                values[key] = json.loads(json.dumps(va))
            elif fa["type"] == "histogram":
                values[key] = {
                    "sum": max(va["sum"] - vb["sum"], 0.0),
                    "count": max(va["count"] - vb["count"], 0),
                    "buckets": [max(x - y, 0) for x, y in
                                zip(va["buckets"], vb["buckets"])]}
            else:
                values[key] = max(va - vb, 0.0)
        out[name] = delta
    return out


def write_snapshot_file(path, meter: Optional[Meter] = None,
                        snapshot: Optional[dict] = None, fs=None) -> None:
    """Atomically persist a meter snapshot (tmp + replace) for a
    coordinator / the ``/metrics`` endpoint to drain later.  Pass
    ``snapshot`` to persist a precomputed (e.g. diffed) snapshot;
    ``fs`` is the filesystem seam (see :mod:`repro.testing.faults`)."""
    snap = (meter or DEFAULT).snapshot() if snapshot is None else snapshot
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    durable.write_atomic(path, json.dumps(snap, sort_keys=True),
                         resolve_fs(fs))


def read_snapshot_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r"\""))


def _fmt_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(str(v))}"'
             for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def encode_prometheus(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text format v0.0.4."""
    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family["type"]
        lines.append(f"# HELP {name} {_escape_help(family.get('help', ''))}")
        lines.append(f"# TYPE {name} {kind}")
        values = family.get("values", {})
        if not values and not family.get("labels"):
            # an unlabelled family that has seen no samples still
            # exposes its zero, so idle scrapes are non-empty
            values = ({"{}": 0.0} if kind != "histogram" else
                      {"{}": {"sum": 0.0, "count": 0,
                              "buckets": [0] * (len(family["bounds"]) + 1)}})
        for key in sorted(values):
            labels = json.loads(key)
            cell = values[key]
            if kind == "histogram":
                bounds = list(family["bounds"]) + [float("inf")]
                running = 0
                for bound, count in zip(bounds, cell["buckets"]):
                    running += count
                    le = _fmt_labels(labels, f'le="{_fmt_value(bound)}"')
                    lines.append(f"{name}_bucket{le} {running}")
                lines.append(
                    f"{name}_sum{_fmt_labels(labels)} {_fmt_value(cell['sum'])}")
                lines.append(
                    f"{name}_count{_fmt_labels(labels)} {cell['count']}")
            else:
                lines.append(
                    f"{name}{_fmt_labels(labels)} {_fmt_value(cell)}")
    return "\n".join(lines) + "\n"
