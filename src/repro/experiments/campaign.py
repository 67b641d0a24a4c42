"""Durable, resumable, sharded experiment campaigns.

A *campaign* is a figure grid (:class:`FigureSpec`) executed against a
persistent on-disk store instead of fire-and-forget.  The store records
every completed ``(cell, trial)`` outcome, so

* **resume**: re-running a killed or partial campaign executes only the
  missing trials — completed ones are never recomputed;
* **shard**: independent invocations with ``shard=(i, k)`` split the
  remaining trials deterministically (trial ``t`` belongs to shard
  ``t % k``) and may run on different processes or machines sharing the
  directory; the union of all shards equals the unsharded run;
* **merge**: aggregates are always computed from the full record set,
  sorted by ``(cell, trial)``, so they are *byte-identical* no matter
  how the work was scheduled, interrupted, or sharded.

Those properties rest on the runner's seeding discipline (see
:func:`repro.experiments.runner.trial_jobs`): a trial's outcome is a
pure function of ``(config, n, campaign seed, trial index)``.

Store layout (one directory per campaign)::

    <root>/
      manifest.json         # the campaign's identity: spec grid, seed,
                            # trials, cell keys — validated on resume
      trials-<i>of<k>.jsonl # one JSON line per completed trial,
                            # append-only (kill-safe: a torn final line
                            # is ignored on load)

``python -m repro campaign`` is the CLI front end (``--resume``,
``--shard i/k``, ``--status``).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import durable
from ..analysis.stats import ConvergenceStats
from ..testing.faults import resolve_fs
from .config import CellConfig, ExperimentConfig, FigureSpec
from .runner import (
    FigureResult,
    TrialRecord,
    _config_digest,
    resolve_n_jobs,
    run_trial,
    trial_jobs,
)

__all__ = [
    "CampaignMismatch",
    "CampaignStore",
    "CampaignRun",
    "cell_key",
    "run_campaign",
    "campaign_status",
    "aggregate_records",
    "aggregate_payload",
    "metric_payloads",
]

STORE_VERSION = 1


class CampaignMismatch(RuntimeError):
    """The directory holds a different campaign than the one requested."""


def cell_key(cfg: CellConfig, n: int) -> str:
    """Stable identifier of one (config, n) cell.

    Built from the same canonical digest that seeds the trials
    (``crc32`` of the legacy config repr, which
    ``ScenarioSpec.digest()`` reproduces for legacy-expressible specs),
    so two cell configs share a key iff they draw identical trial
    sequences — regardless of which spec surface described them.
    """
    return f"{_config_digest(cfg):08x}-n{n}"


def _cell_manifest_repr(cfg: CellConfig) -> str:
    """The manifest's human-readable cell identity string.

    Legacy configs keep the historical ``repr`` form byte-for-byte (a
    pre-registry store must validate and resume unchanged); scenario
    cells store their canonical form.
    """
    if isinstance(cfg, ExperimentConfig):
        return repr(cfg)
    return cfg.canonical()


@dataclass(frozen=True)
class _CellPlan:
    key: str
    series: str
    cfg: CellConfig
    n: int


def _plan_cells(spec: FigureSpec, n_values: Sequence[int]) -> List[_CellPlan]:
    plans = []
    for cfg in spec.configs:
        for n in n_values:
            plans.append(_CellPlan(cell_key(cfg, n), cfg.series_name(), cfg, n))
    return plans


def _manifest_for(
    spec: FigureSpec,
    seed: int,
    trials: int,
    n_values: Sequence[int],
    max_steps_factor: int,
    cells: Sequence[_CellPlan],
) -> dict:
    return {
        "version": STORE_VERSION,
        "figure": spec.figure,
        "title": spec.title,
        "seed": seed,
        "trials": trials,
        "n_values": list(n_values),
        "max_steps_factor": max_steps_factor,
        "cells": [
            {"key": c.key, "series": c.series, "n": c.n, "cfg": _cell_manifest_repr(c.cfg)}
            for c in cells
        ],
    }


class CampaignStore:
    """Append-only JSONL record store of one campaign directory.

    The storage discipline — a validated ``manifest.json`` identity plus
    append-only sharded ``<prefix>-<i>of<k>.jsonl`` record files with
    torn-line kill-safety — is format, not campaign logic; subclasses
    (the statespace exploration store) reuse it by overriding
    :attr:`RECORD_PREFIX` / :attr:`REQUIRED_KEYS` / :attr:`KIND`.
    """

    MANIFEST = "manifest.json"
    #: record-file basename prefix (``<prefix>-<i>of<k>.jsonl``).
    RECORD_PREFIX = "trials"
    #: keys a well-formed record line must carry; others are skipped.
    REQUIRED_KEYS = frozenset({"cell", "trial", "steps", "status"})
    #: human name used in mismatch errors.
    KIND = "campaign"

    def __init__(self, root, fs=None) -> None:
        self.root = Path(root)
        #: filesystem seam — production passes nothing and gets the real
        #: one; the chaos suite injects a :class:`~repro.testing.faults.FaultyFS`.
        self.fs = resolve_fs(fs)

    # -- manifest ----------------------------------------------------------
    def manifest_path(self) -> Path:
        return self.root / self.MANIFEST

    def load_manifest(self) -> Optional[dict]:
        """The stored manifest, or ``None`` for a fresh directory."""
        path = self.manifest_path()
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def ensure_manifest(self, manifest: dict) -> None:
        """Write the manifest (fresh store) or validate it (resume).

        Raises :class:`CampaignMismatch` when the directory already
        holds a campaign with a different grid, seed, or trial count —
        mixing two campaigns in one store would silently corrupt every
        aggregate.
        """
        existing = self.load_manifest()
        if existing is not None:
            if existing != manifest:
                # name the keys that actually differ — the manifest
                # layout varies by store kind (campaign vs exploration),
                # so the detail must be derived, not hardcoded
                differing = sorted(
                    k for k in set(existing) | set(manifest)
                    if existing.get(k) != manifest.get(k)
                )
                detail = ", ".join(
                    f"{k}: stored {existing.get(k)!r} != requested {manifest.get(k)!r}"
                    for k in differing
                )
                raise CampaignMismatch(
                    f"{self.root} holds a different {self.KIND} ({detail}); "
                    "use a fresh directory or rerun with the original parameters"
                )
            return
        self.root.mkdir(parents=True, exist_ok=True)
        # concurrently-launched shards may all reach this branch; each
        # writes an identical manifest, so whichever replace lands last wins
        durable.write_atomic(
            self.manifest_path(), json.dumps(manifest, indent=2, sort_keys=True),
            self.fs,
        )

    # -- trial records -----------------------------------------------------
    def record_files(self) -> List[Path]:
        return sorted(self.root.glob(f"{self.RECORD_PREFIX}-*.jsonl"))

    def record_file_sizes(self) -> Dict[str, int]:
        """``file name -> byte size`` snapshot of every record file.

        The columnar compactor stores this snapshot so a later reader
        can tell (with one ``stat`` per file, no line parsing) whether
        the compacted layout still reflects the JSONL contents.
        """
        return {p.name: self.fs.stat(p).st_size for p in self.record_files()}

    def iter_records(self, files: Optional[Sequence[Path]] = None) -> Iterable[dict]:
        """Stream all well-formed records across every shard file.

        Torn or garbage lines (a kill mid-append, disk-full partial
        writes) and lines whose embedded CRC32 disagrees with their
        body are skipped — append-only JSONL means everything before
        them is still valid, and ``repro fsck`` exists to *report* the
        damage this read path tolerates.  One record is held in memory
        at a time, so million-row stores stream through aggregation
        and compaction without materializing.  ``files`` restricts the
        scan to a subset of record files (the columnar merge path
        reads only the files its compaction does not cover).
        """
        for path in self.record_files() if files is None else files:
            for _, _, rec, damage in durable.scan(path, require_crc=False):
                if damage is None and self.REQUIRED_KEYS <= rec.keys():
                    yield rec

    def load_records(self) -> List[dict]:
        """All well-formed trial records, materialized (see :meth:`iter_records`)."""
        return list(self.iter_records())

    def iter_all_records(self) -> Iterable[dict]:
        """Stream every record, preferring the columnar compaction.

        Identical to :meth:`iter_records` when no compaction exists;
        with one, compacted rows stream out of the columnar layout and
        only *uncovered* JSONL files (new or grown since compaction)
        are parsed — a pruned store (JSONL deleted after compaction)
        still yields its full history.  Rows from a file that grew
        since compaction can appear twice; every consumer of record
        streams dedupes on its natural key, so duplicates are harmless.
        """
        from .columnar import iter_store_records  # local: avoid import cycle

        return iter_store_records(self)

    def completed_index(self, records: Optional[Iterable[dict]] = None) -> Dict[str, set]:
        """``cell key -> set of completed trial indices``."""
        if records is None:
            records = self.load_records()
        done: Dict[str, set] = {}
        for rec in records:
            done.setdefault(rec["cell"], set()).add(int(rec["trial"]))
        return done

    def open_writer(self, shard: Tuple[int, int]):
        """Append-mode handle of this shard's record file (see
        :meth:`open_tagged_writer`)."""
        return self.open_tagged_writer(f"{shard[0]}of{shard[1]}")

    def open_tagged_writer(self, tag: str):
        """Append-mode handle of the record file ``<prefix>-<tag>.jsonl``.

        ``tag`` is any filesystem-safe suffix — shard runs use
        ``iofk``, fabric workers their worker id — and every such file
        is picked up by :meth:`record_files` regardless of spelling.
        A torn tail left by a dead writer is stitched over first (see
        :func:`repro.durable.open_append`), so the torn fragment stays
        one isolated bad line that :meth:`iter_records` skips.
        """
        return durable.open_append(
            self.root / f"{self.RECORD_PREFIX}-{tag}.jsonl", self.fs
        )

    def append(self, fh, record: dict) -> None:
        """Write one record as a single flushed, checksummed JSON line."""
        self.fs.append_text(fh, durable.encode_line(record) + "\n")

    # -- integrity ---------------------------------------------------------
    def corrupt_dir(self) -> Path:
        """Quarantine directory for damaged lines (``<root>/corrupt/``)."""
        return self.root / durable.CORRUPT_DIRNAME

    def fsck(self, repair: bool = False) -> dict:
        """Verify every record line; optionally quarantine the damage.

        Scans all record files and classifies each line: good (CRC
        verifies, or a pre-checksum legacy line), ``unparsable`` (torn
        or garbage JSON — a kill mid-append), or ``checksum`` (parses
        but the embedded CRC32 disagrees with the body — bit rot or a
        hand-edit).  Parseable lines missing :attr:`REQUIRED_KEYS` are
        *foreign*, not damaged — they are counted but never flagged,
        matching what :meth:`iter_records` tolerates.

        With ``repair=True`` each damaged raw line is appended to
        ``corrupt/<filename>.bad`` and the record file is rewritten
        without it (atomically, via tmp + replace through the fs seam),
        so subsequent reads and compactions see a provably clean store.
        Returns ``{"files", "records_ok", "foreign", "damaged":
        [{"file", "line", "reason"}], "repaired"}``.
        """
        damaged: List[dict] = []
        records_ok = 0
        foreign = 0
        files = self.record_files()
        for path in files:
            records, bad = durable.fsck_file(
                path, require_crc=False, repair=repair, fs=self.fs
            )
            damaged.extend(bad)
            ok = sum(1 for rec in records if self.REQUIRED_KEYS <= rec.keys())
            records_ok += ok
            foreign += len(records) - ok
        return {
            "files": [p.name for p in files],
            "records_ok": records_ok,
            "foreign": foreign,
            "damaged": damaged,
            "repaired": len(damaged) if repair else 0,
        }


def aggregate_records(
    spec: FigureSpec,
    cells: Sequence[_CellPlan],
    records: Iterable[dict],
    trials: int,
) -> FigureResult:
    """Merge trial records into a :class:`FigureResult`.

    Records are deduplicated on ``(cell, trial)`` and folded in trial
    order, so the aggregate is a pure function of the completed trial
    set — identical bytes whether the campaign ran straight through,
    was resumed five times, or was produced by the union of shards.
    """
    by_cell: Dict[str, Dict[int, dict]] = {c.key: {} for c in cells}
    for rec in records:
        slot = by_cell.get(rec["cell"])
        if slot is None:
            continue  # foreign record (e.g. from an older grid) — ignore
        idx = int(rec["trial"])
        if 0 <= idx < trials:
            slot.setdefault(idx, rec)
    result = FigureResult(spec)
    for cell in cells:
        stats = ConvergenceStats()
        for idx in sorted(by_cell[cell.key]):
            rec = by_cell[cell.key][idx]
            stats.add(int(rec["steps"]), rec["status"] == "converged")
        result.series.setdefault(cell.series, {})[cell.n] = stats
    return result


def metric_payloads(records: Iterable[dict]) -> Dict[str, Dict[int, dict]]:
    """``cell key -> {trial -> stored metric dict}`` across all records.

    Rows written before the metrics redesign (or by scenarios with the
    default steps/status metric set) have no ``"metrics"`` key and are
    simply absent here — the steps/status aggregate path is unaffected.
    Duplicated ``(cell, trial)`` rows keep the first occurrence, like
    :func:`aggregate_records`.
    """
    out: Dict[str, Dict[int, dict]] = {}
    for rec in records:
        metrics = rec.get("metrics")
        if not isinstance(metrics, dict):
            continue
        out.setdefault(rec["cell"], {}).setdefault(int(rec["trial"]), metrics)
    return out


def aggregate_payload(result: FigureResult) -> dict:
    """Canonical JSON payload of an aggregate (for reports and the
    byte-identity tests): ``{series: {n: stats dict}}``."""
    return {
        name: {str(n): stats.as_dict() for n, stats in sorted(per_n.items())}
        for name, per_n in sorted(result.series.items())
    }


@dataclass
class CampaignRun:
    """Outcome of one ``run_campaign`` invocation."""

    result: FigureResult
    new_trials: int
    skipped_existing: int
    remaining: int
    total: int

    @property
    def complete(self) -> bool:
        """Whether every (cell, trial) of the campaign is stored."""
        return self.remaining == 0


def _campaign_trial(args) -> Tuple[str, int, TrialRecord]:
    key, idx, job = args
    return key, idx, run_trial(job)


def _trial_row(key: str, idx: int, rec: TrialRecord) -> dict:
    """The stored JSONL row of one completed trial.

    ``steps``/``status`` stay top-level (the aggregate contract);
    metrics beyond that implicit pair ride along under ``"metrics"``.
    The key is omitted when the scenario requests no extra metrics, so
    legacy-shaped campaigns keep writing byte-identical rows.
    """
    row = {"cell": key, "trial": idx, "steps": rec.steps, "status": rec.status}
    extra = rec.extra_metrics()
    if extra:
        row["metrics"] = {k: extra[k] for k in sorted(extra)}
    return row


def run_campaign(
    spec: FigureSpec,
    root,
    seed: int = 0,
    trials: Optional[int] = None,
    n_values: Optional[Sequence[int]] = None,
    shard: Tuple[int, int] = (0, 1),
    n_jobs: Optional[int] = None,
    max_steps_factor: int = 50,
    max_new_trials: Optional[int] = None,
    resume: bool = True,
) -> CampaignRun:
    """Run (or continue) a campaign of ``spec`` against the store at
    ``root``.

    Completed ``(cell, trial)`` pairs found in the store are skipped
    outright; only this shard's missing trials execute (trial ``t``
    belongs to shard ``i`` of ``k`` iff ``t % k == i``).
    ``max_new_trials`` caps how many trials this invocation runs — the
    campaign can be drained in slices of any size.

    ``resume=False`` refuses to touch a store that already holds trial
    records; it never deletes anything (resumability is the default —
    the flag exists so scripted fresh runs fail loudly instead of
    silently absorbing stale results).
    """
    i, k = shard
    if not (0 <= i < k):
        raise ValueError(f"shard must satisfy 0 <= i < k, got {i}/{k}")
    use_trials = trials if trials is not None else spec.trials
    use_ns = tuple(n_values) if n_values is not None else spec.n_values
    eff_spec = spec.scaled(use_ns, use_trials)
    cells = _plan_cells(eff_spec, use_ns)

    store = CampaignStore(root)
    if not resume and store.record_files():
        raise CampaignMismatch(
            f"{store.root} already holds trial records; pass resume=True "
            "(CLI: --resume) to continue it, or choose a fresh directory"
        )
    store.ensure_manifest(
        _manifest_for(eff_spec, seed, use_trials, use_ns, max_steps_factor, cells)
    )

    done = store.completed_index(store.iter_all_records())
    pending: List[tuple] = []
    skipped = 0
    total = len(cells) * use_trials
    for cell in cells:
        jobs = trial_jobs(cell.cfg, cell.n, use_trials, seed, max_steps_factor)
        cell_done = done.get(cell.key, set())
        for idx, job in enumerate(jobs):
            if idx in cell_done:
                skipped += 1
            elif idx % k == i:
                pending.append((cell.key, idx, job))
    if max_new_trials is not None:
        pending = pending[:max_new_trials]

    n_jobs = resolve_n_jobs(n_jobs, len(pending))
    new = 0
    if pending:
        with store.open_writer(shard) as fh:
            if n_jobs <= 1:
                for task in pending:
                    key, idx, rec = _campaign_trial(task)
                    store.append(fh, _trial_row(key, idx, rec))
                    new += 1
            else:
                with ProcessPoolExecutor(max_workers=n_jobs) as pool:
                    for key, idx, rec in pool.map(
                        _campaign_trial, pending, chunksize=8
                    ):
                        store.append(fh, _trial_row(key, idx, rec))
                        new += 1

    records = list(store.iter_all_records())
    result = aggregate_records(eff_spec, cells, records, use_trials)
    done_now = sum(
        len({t for t in idxs if 0 <= t < use_trials})
        for key, idxs in store.completed_index(records).items()
        if key in {c.key for c in cells}
    )
    return CampaignRun(
        result=result,
        new_trials=new,
        skipped_existing=skipped,
        remaining=total - done_now,
        total=total,
    )


def campaign_status(root, prefer_columnar: bool = True) -> dict:
    """Progress summary of the store at ``root`` (no trials are run).

    Returns ``{"total", "done", "remaining", "complete", "cells":
    {key: {"series", "n", "done", "trials"}}}``; raises
    ``FileNotFoundError`` when no manifest exists.

    When a *fresh* columnar compaction exists (see
    :mod:`repro.experiments.columnar` — its manifest records a byte-size
    snapshot of the record files it folded), the per-cell counts are
    answered from the compaction summary without reading a single JSONL
    line; a store that grew since compaction falls back to the full
    scan.  ``prefer_columnar=False`` forces the scan.
    """
    store = CampaignStore(root)
    manifest = store.load_manifest()
    if manifest is None:
        raise FileNotFoundError(f"no campaign manifest under {store.root}")
    trials = int(manifest["trials"])
    done_counts: Optional[Dict[str, int]] = None
    if prefer_columnar:
        from .columnar import ColumnarStore  # local: columnar imports campaign

        columnar = ColumnarStore(root)
        if columnar.exists() and columnar.fresh(store):
            done_counts = columnar.cells_done(trials)
    if done_counts is None:
        done = store.completed_index(store.iter_all_records())
        done_counts = {
            cell["key"]: len({t for t in done.get(cell["key"], set())
                              if 0 <= t < trials})
            for cell in manifest["cells"]
        }
    cells = {}
    total_done = 0
    for cell in manifest["cells"]:
        key = cell["key"]
        count = int(done_counts.get(key, 0))
        total_done += count
        cells[key] = {
            "series": cell["series"],
            "n": cell["n"],
            "done": count,
            "trials": trials,
        }
    total = len(manifest["cells"]) * trials
    return {
        "figure": manifest["figure"],
        "seed": manifest["seed"],
        "total": total,
        "done": total_done,
        "remaining": total - total_done,
        "complete": total_done == total,
        "cells": cells,
    }
