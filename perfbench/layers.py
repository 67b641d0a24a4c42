"""Per-layer self-time accounting, measured from outside the program.

The traced run wraps the public functions of each layer of ``repro``
(no tracing code lives in ``src/``).  A wrapper records one span per
call: its duration minus the time of the wrapped calls it made is the
layer's *self time*.  Wrappers are installed where callers resolve the
name — every ``repro`` module attribute bound to the original function
object, or the method on its class — and are removed again afterwards.

Only the installing thread of the installing process records: the
service's event-loop thread and forked fabric/job workers run the
original code path (their work is read from the meters the program
already exposes).
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: (layer, module, qualified attribute) — a function is wrapped in every
#: ``repro`` module that binds it; a ``Class.method`` is wrapped on the
#: class and on every subclass defining its own override.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("graphs.adjacency.matmul", "repro.graphs.adjacency", "all_pairs_distances"),
    ("graphs.adjacency.fast", "repro.graphs.adjacency", "all_pairs_distances_fast"),
    ("graphs.adjacency.fast", "repro.graphs.adjacency", "bfs_distances_multi"),
    ("graphs.adjacency.fast", "repro.graphs.adjacency", "bfs_distances"),
    ("graphs.bitkernel", "repro.graphs.bitkernel", "all_pairs_distances"),
    ("graphs.bitkernel", "repro.graphs.bitkernel", "bfs_distances_multi"),
    ("graphs.bitkernel", "repro.graphs.bitkernel", "is_connected_without_vertex"),
    ("graphs.incremental.repair", "repro.graphs.incremental", "IncrementalAPSP.distances"),
    ("graphs.incremental.repair", "repro.graphs.incremental",
     "update_distances_after_vertex_change"),
    ("graphs.incremental.digest", "repro.graphs.incremental", "IncrementalAPSP.digest"),
    ("graphs.incremental.br_cache", "repro.graphs.incremental",
     "IncrementalBackend.cached_best_response"),
    ("graphs.incremental.br_cache", "repro.graphs.incremental",
     "IncrementalBackend.store_best_response"),
    ("core.games.pricing", "repro.core.games", "Game.best_responses"),
    ("core.games.pricing", "repro.core.games", "Game.improving_moves"),
    ("core.games.pricing", "repro.core.games", "Game.greedy_improving_moves"),
    ("core.games.cost_vector", "repro.core.games", "Game.cost_vector"),
    ("core.policies.select", "repro.core.policies", "MovePolicy.select"),
    ("core.dynamics", "repro.core.dynamics", "run_dynamics"),
    ("experiments.runner.build", "repro.experiments.runner", "build_initial"),
    ("experiments.runner.build", "repro.experiments.runner", "build_game"),
    ("experiments.runner.build", "repro.experiments.runner", "build_policy"),
    ("experiments.runner.build", "repro.experiments.runner", "build_dynamics"),
    ("statespace.encode.state_key", "repro.statespace.encode", "state_key"),
    ("statespace.expand", "repro.statespace.expand", "Expander.expand_with_successors"),
)

#: every layer a span can be attributed to (in report order)
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for layer, _, _ in TARGETS]
    + ["experiments.fabric.drain", "service.client"]))


class Tracer:
    """Span accounting for one thread: per-layer self time and calls.

    Spans are timed on ``clock`` (the clock the traced passes are timed
    on).  ``calls`` counts *entries* into a layer: a call made from
    inside the same layer (e.g. the fast APSP routing into the
    multi-source BFS) is one layer entry, not two.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.self_s: Dict[str, float] = defaultdict(float)
        #: time inside a layer's outermost spans, children included
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._open: Counter = Counter()
        #: time covered by outermost spans
        self.attributed_s = 0.0
        #: ``RunResult.backend_stats`` of every traced dynamics run
        self.backend_stats: List[object] = []
        self._stack: List[list] = []
        self._undo: List[Tuple[object, str, object]] = []
        #: a wrapper bound by a module imported while installed survives
        #: uninstall; it must then fall through like an unwrapped call
        self.active = False

    def _recording(self) -> bool:
        return (self.active and os.getpid() == self.pid
                and threading.get_ident() == self.thread)

    def _enter(self, layer: str) -> list:
        stack = self._stack
        if not stack or stack[-1][0] != layer:
            self.calls[layer] += 1
        # [layer, time of child spans, outermost span of this layer?]
        frame = [layer, 0.0, self._open[layer] == 0]
        self._open[layer] += 1
        stack.append(frame)
        return frame

    def _exit(self, frame: list, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        layer = frame[0]
        self._open[layer] -= 1
        self.self_s[layer] += elapsed - frame[1]
        if frame[2]:
            self.inclusive_s[layer] += elapsed
        if stack:
            stack[-1][1] += elapsed
        else:
            self.attributed_s += elapsed

    @contextmanager
    def span(self, layer: str):
        """A span around a call into ``layer`` made by the benchmark."""
        frame = self._enter(layer)
        t0 = self.clock()
        try:
            yield
        finally:
            self._exit(frame, self.clock() - t0)

    def _wrap(self, layer: str, fn: Callable, keep_stats: bool) -> Callable:
        tracer, clock = self, self.clock

        # functools.wraps keeps __wrapped__, so inspect.signature() (which
        # the dynamics loop uses on policy.select) sees the original
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._recording():
                return fn(*args, **kwargs)
            frame = tracer._enter(layer)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, clock() - t0)
            if keep_stats:
                tracer.backend_stats.append(getattr(out, "backend_stats", None))
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target; idempotent per tracer."""
        if self.active:
            return
        import repro  # noqa: F401  (loads every layer module)

        for layer, module_name, attr in TARGETS:
            __import__(module_name)
            module = sys.modules[module_name]
            # run_dynamics' RunResult carries the backend's counters
            keep = layer == "core.dynamics"
            if "." in attr:
                cls_name, meth = attr.split(".")
                base = getattr(module, cls_name)
                for cls in _subclasses(base):
                    if meth in vars(cls):
                        self._patch(cls, meth, self._wrap(layer, vars(cls)[meth], keep))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(layer, original, keep)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                # vars(), not getattr(): lazy package __getattr__ hooks
                # must not fire while scanning
                if (name == "repro" or name.startswith("repro.")) and \
                        vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapped)
        self.active = True

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def split(self, total_s: float, passes: int, scale: float = 1.0) -> Dict[str, float]:
        """Per-pass self seconds (times ``scale``) and calls of every
        layer, plus the share of ``total_s`` — the traced passes' time
        on the tracer's clock — that no span covers."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0) * scale / passes
            out[f"{layer}.calls"] = self.calls.get(layer, 0) / passes
        out["trace.unattributed_share"] = max(0.0, 1.0 - self.attributed_s / total_s)
        return out


def _subclasses(cls) -> List[type]:
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen
