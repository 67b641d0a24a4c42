"""Deterministic, seeded fault injection for the campaign fabric.

Campaigns run for hours across worker fleets, where crashes, torn
writes, full disks, and clock skew are the norm.  PR 6 proved ``kill
-9`` safety for one hand-picked failure; this module makes the whole
failure family *provokable on demand* so the chaos suite
(``tests/experiments/test_chaos.py``) can machine-check that a drain
survives every one of them byte-identically.

The seam is a tiny filesystem facade: :class:`FS` performs the real
operations, and every persisted file routes its *mutating* calls —
rename/replace, whole-file writes, JSONL appends, utime, stat, unlink,
rmtree — through the ``fs`` object its owner was constructed with:
:class:`~repro.experiments.fabric.WorkQueue`,
:class:`~repro.experiments.campaign.CampaignStore` (hence the
exploration store and its ``report.json``),
:mod:`repro.experiments.columnar`, the service
:class:`~repro.service.jobs.JobManager` (its job files, and the drain
each job runs), :class:`~repro.obs.tracing.Tracer` and
:func:`~repro.obs.metrics.write_snapshot_file`, all by way of
:mod:`repro.durable`.  This module is the only one that renames files
directly.  Production code gets :data:`REAL_FS` (zero overhead beyond
one attribute hop); the chaos suite hands in a :class:`FaultyFS` armed
with a :class:`FaultPlan`.

A plan is a sequence of :class:`Fault` rules, each matching one
operation kind (optionally filtered by a path substring), counting
matching calls, and firing once at the ``nth`` match.  Fault kinds:

``crash``
    Simulated process death *before* the operation takes effect: the
    op is not performed, the FS flips into **dead mode** (every later
    call raises too, so ``finally`` blocks cannot "clean up" state a
    real ``kill -9`` would have left behind), and
    :class:`InjectedCrash` propagates.  ``InjectedCrash`` derives from
    ``BaseException`` precisely so retry loops catching ``Exception``
    cannot swallow a simulated death.
``crash_after``
    The op completes, *then* the process dies — the other side of
    every rename boundary.
``torn``
    A write persists only a prefix (``frac`` of the payload) before
    the process dies: the classic torn JSONL line / half-written
    manifest.
``short``
    A write persists a prefix and raises ``OSError`` — the process
    survives and sees the failure (short write / EIO).
``enospc``
    ``OSError(ENOSPC)`` before anything is written: disk full.
``skew``
    ``utime`` stamps and ``stat`` results are shifted by ``skew``
    seconds (typically ``once=False``): a worker whose wall clock
    disagrees with the coordinator's.  Content-based heartbeats must
    shrug this off.
``missing``
    ``stat`` raises ``FileNotFoundError``: the stat race where a file
    vanishes between a directory listing and the stat.
``stall``
    The op sleeps ``stall`` seconds first, then proceeds: a stuck NFS
    call or an overloaded worker.

Plans replay from a seed: :meth:`FaultPlan.seeded` draws rules from
``random.Random(seed)``, and because the drained workload issues a
deterministic operation sequence, the same seed provokes the same
failure at the same point every time.  :attr:`FaultyFS.fired` records
what actually triggered, so a test can assert its plan bit.
"""

from __future__ import annotations

import errno
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "FS",
    "REAL_FS",
    "Fault",
    "FaultPlan",
    "FaultyFS",
    "InjectedCrash",
    "FAULT_KINDS",
    "FAULT_OPS",
]

#: operation labels a fault can match (``"*"`` matches any of them).
FAULT_OPS = (
    "rename", "replace", "write", "append", "utime", "stat", "unlink",
    "rmtree",
)

FAULT_KINDS = (
    "crash", "crash_after", "torn", "short", "enospc", "skew", "missing",
    "stall",
)

#: which kinds make sense per op — :meth:`FaultPlan.seeded` draws only
#: compatible pairs (a "torn rename" is not a thing).
_OP_KINDS = {
    "rename": ("crash", "crash_after", "enospc", "stall"),
    "replace": ("crash", "crash_after", "enospc", "stall"),
    "write": ("crash", "crash_after", "torn", "short", "enospc", "stall"),
    "append": ("crash", "crash_after", "torn", "short", "enospc", "stall"),
    "utime": ("crash", "crash_after", "skew", "missing", "stall"),
    "stat": ("crash", "missing", "skew", "stall"),
    "unlink": ("crash", "crash_after", "missing", "stall"),
    "rmtree": ("crash", "crash_after"),
}


class InjectedCrash(BaseException):
    """Simulated process death at an injected point.

    Deliberately a ``BaseException``: the fabric's retry paths catch
    ``Exception`` (a unit error is retryable), but a process that died
    did not *raise* — it stopped.  Only the chaos harness catches this
    and "reboots" via :meth:`FaultyFS.revive`.
    """


class FS:
    """The real filesystem: every op is the obvious stdlib call.

    This is the production default (:data:`REAL_FS`).  Instances are
    stateless, picklable (worker processes receive the fs with their
    source), and safe to share.
    """

    def rename(self, src, dst) -> None:
        os.rename(src, dst)

    def replace(self, src, dst) -> None:
        os.replace(src, dst)

    def write_text(self, path, text: str) -> None:
        Path(path).write_text(text)

    def append_text(self, fh, text: str) -> None:
        """One flushed append to an open text handle (JSONL lines)."""
        fh.write(text)
        fh.flush()

    def utime(self, path, times=None) -> None:
        os.utime(path, times)

    def stat(self, path) -> os.stat_result:
        return os.stat(path)

    def unlink(self, path) -> None:
        os.unlink(path)

    def rmtree(self, path) -> None:
        shutil.rmtree(path)


#: the shared production instance (stateless, so one is enough).
REAL_FS = FS()


def resolve_fs(fs: Optional[FS]) -> FS:
    """``fs`` itself, or the production filesystem when ``None``."""
    return fs if fs is not None else REAL_FS


@dataclass(frozen=True)
class Fault:
    """One injection rule: fire ``kind`` at the ``nth`` matching call.

    ``op`` is a label from :data:`FAULT_OPS` (or ``"*"``); ``path``
    restricts matches to calls whose primary path contains the
    substring.  ``once`` rules disarm after firing — the default, so a
    rebooted run proceeds past the failure; persistent conditions
    (clock skew) set ``once=False`` and fire on every match from
    ``nth`` onward.
    """

    op: str
    nth: int = 0
    kind: str = "crash"
    path: str = ""
    skew: float = 0.0
    stall: float = 0.0
    frac: float = 0.5
    once: bool = True

    def __post_init__(self) -> None:
        if self.op != "*" and self.op not in FAULT_OPS:
            raise ValueError(f"unknown fault op {self.op!r} "
                             f"(choose from {', '.join(FAULT_OPS)} or '*')")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(choose from {', '.join(FAULT_KINDS)})")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`Fault` rules, optionally seed-derived.

    Construct directly for hand-written plans, or via :meth:`seeded`
    for reproducible random ones.  The plan is immutable data; all
    firing state lives on the :class:`FaultyFS` that executes it.
    """

    faults: Tuple[Fault, ...] = ()
    seed: Optional[int] = None

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        ops: Sequence[str] = ("rename", "replace", "write", "append"),
        kinds: Sequence[str] = ("crash", "crash_after", "torn", "enospc"),
        max_faults: int = 2,
        horizon: int = 40,
    ) -> "FaultPlan":
        """A reproducible random plan: ``random.Random(seed)`` draws
        1..``max_faults`` rules, each targeting the ``nth`` matching
        call for ``nth`` in ``[0, horizon)``.  Kinds are filtered to
        ones that make sense for the drawn op (no torn renames).  The
        same seed always builds the same plan, and against a
        deterministic operation sequence provokes the same failure at
        the same point.
        """
        rng = random.Random(seed)
        faults = []
        for _ in range(rng.randint(1, max_faults)):
            op = rng.choice(list(ops))
            allowed = [k for k in kinds if k in _OP_KINDS[op]] or ["crash"]
            faults.append(Fault(
                op=op,
                nth=rng.randrange(horizon),
                kind=rng.choice(allowed),
                frac=rng.choice((0.2, 0.5, 0.8)),
            ))
        return cls(faults=tuple(faults), seed=seed)

    def describe(self) -> str:
        rules = "; ".join(
            f"{f.kind}@{f.op}[{f.nth}]" + (f"~{f.path}" if f.path else "")
            for f in self.faults
        )
        tag = f"seed={self.seed} " if self.seed is not None else ""
        return f"FaultPlan({tag}{rules or 'no faults'})"


@dataclass
class _Armed:
    """Runtime state of one rule: its match count and whether it fired."""

    fault: Fault
    matches: int = 0
    fired: int = 0


class FaultyFS(FS):
    """An :class:`FS` that executes a :class:`FaultPlan`.

    After a ``crash``-family fault fires the FS is **dead**: every
    subsequent operation raises :class:`InjectedCrash` too, so
    in-process cleanup code (``finally`` blocks, context managers)
    cannot mutate state a real dead process would have left behind.
    The chaos harness calls :meth:`revive` to simulate the reboot and
    re-drives the workload; ``once`` rules stay disarmed, so the rerun
    proceeds past the failure.

    Instances pickle (plain data only), so a plan can ride into
    spawned worker processes — each process then counts its own
    operation stream, which is exactly the per-worker injection the
    stalled-worker plans want.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rules: List[_Armed] = [_Armed(f) for f in plan.faults]
        self.dead = False
        #: ``(op, path, kind)`` of every fault that fired, in order.
        self.fired: List[Tuple[str, str, str]] = []

    # -- lifecycle ---------------------------------------------------------
    def revive(self) -> None:
        """Simulate the reboot after an injected death.  Fired ``once``
        rules stay disarmed; persistent rules keep applying."""
        self.dead = False

    def any_fired(self) -> bool:
        return bool(self.fired)

    # -- rule matching -----------------------------------------------------
    def _match(self, op: str, path) -> Optional[Fault]:
        if self.dead:
            raise InjectedCrash(f"fs is dead (post-crash {op} on {path})")
        hit: Optional[Fault] = None
        for armed in self.rules:
            f = armed.fault
            if f.op != "*" and f.op != op:
                continue
            if f.path and f.path not in str(path):
                continue
            n = armed.matches
            armed.matches += 1
            if f.once and armed.fired:
                continue
            if (n == f.nth) if f.once else (n >= f.nth):
                armed.fired += 1
                if hit is None:  # first matching rule wins this call
                    hit = f
        if hit is not None:
            self.fired.append((hit.kind, op, str(path)))
        return hit

    def _die(self, op: str, path) -> None:
        self.dead = True
        raise InjectedCrash(f"injected crash at {op} on {path}")

    # -- faulted operations ------------------------------------------------
    def rename(self, src, dst) -> None:
        self._move(src, dst, os.rename, "rename")

    def replace(self, src, dst) -> None:
        self._move(src, dst, os.replace, "replace")

    def _move(self, src, dst, real, op: str) -> None:
        fault = self._match(op, dst)
        if fault is not None:
            if fault.kind == "crash":
                self._die(op, dst)
            if fault.kind == "enospc":
                raise OSError(errno.ENOSPC, "injected: no space left", str(dst))
            if fault.kind == "stall":
                time.sleep(fault.stall)
        real(src, dst)
        if fault is not None and fault.kind == "crash_after":
            self._die(op, dst)

    def write_text(self, path, text: str) -> None:
        fault = self._match("write", path)
        if fault is not None:
            if fault.kind == "crash":
                self._die("write", path)
            if fault.kind == "enospc":
                raise OSError(errno.ENOSPC, "injected: no space left", str(path))
            if fault.kind == "stall":
                time.sleep(fault.stall)
            if fault.kind in ("torn", "short"):
                Path(path).write_text(text[: int(len(text) * fault.frac)])
                if fault.kind == "torn":
                    self._die("write", path)
                raise OSError(errno.EIO, "injected: short write", str(path))
        Path(path).write_text(text)
        if fault is not None and fault.kind == "crash_after":
            self._die("write", path)

    def append_text(self, fh, text: str) -> None:
        path = getattr(fh, "name", "<fh>")
        fault = self._match("append", path)
        if fault is not None:
            if fault.kind == "crash":
                self._die("append", path)
            if fault.kind == "enospc":
                raise OSError(errno.ENOSPC, "injected: no space left", str(path))
            if fault.kind == "stall":
                time.sleep(fault.stall)
            if fault.kind in ("torn", "short"):
                fh.write(text[: int(len(text) * fault.frac)])
                fh.flush()
                if fault.kind == "torn":
                    self._die("append", path)
                raise OSError(errno.EIO, "injected: short write", str(path))
        fh.write(text)
        fh.flush()
        if fault is not None and fault.kind == "crash_after":
            self._die("append", path)

    def utime(self, path, times=None) -> None:
        fault = self._match("utime", path)
        if fault is not None:
            if fault.kind == "crash":
                self._die("utime", path)
            if fault.kind == "skew":
                now = time.time() + fault.skew
                os.utime(path, (now, now))
                return
            if fault.kind == "missing":
                raise FileNotFoundError(errno.ENOENT, "injected: vanished",
                                        str(path))
            if fault.kind == "stall":
                time.sleep(fault.stall)
        os.utime(path, times)
        if fault is not None and fault.kind == "crash_after":
            self._die("utime", path)

    def stat(self, path) -> os.stat_result:
        fault = self._match("stat", path)
        if fault is not None:
            if fault.kind == "crash":
                self._die("stat", path)
            if fault.kind == "missing":
                raise FileNotFoundError(errno.ENOENT, "injected: vanished",
                                        str(path))
            if fault.kind == "stall":
                time.sleep(fault.stall)
            if fault.kind == "skew":
                real = os.stat(path)
                shifted = real.st_mtime + fault.skew
                return os.stat_result(
                    real[:7] + (real.st_atime, shifted, real.st_ctime)
                )
        return os.stat(path)

    def unlink(self, path) -> None:
        fault = self._match("unlink", path)
        if fault is not None:
            if fault.kind == "crash":
                self._die("unlink", path)
            if fault.kind == "missing":
                raise FileNotFoundError(errno.ENOENT, "injected: vanished",
                                        str(path))
            if fault.kind == "stall":
                time.sleep(fault.stall)
        os.unlink(path)
        if fault is not None and fault.kind == "crash_after":
            self._die("unlink", path)

    def rmtree(self, path) -> None:
        fault = self._match("rmtree", path)
        if fault is not None and fault.kind == "crash":
            self._die("rmtree", path)
        shutil.rmtree(path)
        if fault is not None and fault.kind == "crash_after":
            self._die("rmtree", path)

    # -- pickling (worker processes) ---------------------------------------
    def __getstate__(self) -> dict:
        return {"plan": self.plan}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["plan"])
