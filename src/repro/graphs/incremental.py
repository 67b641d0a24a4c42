"""Incremental all-pairs distances for the dynamics hot loop.

Every step of the sequential process changes only edges incident to the
moving agent, yet the dense engine re-derives all shortest-path state
from scratch: one APSP for the cost vector, plus one APSP of ``G - u``
per scanned agent.  This module keeps that state alive across steps.

The core update (:func:`update_distances_after_vertex_change`) repairs a
full distance matrix after an arbitrary change of one vertex ``v``'s
incident edge set:

* *Deletions* can only lengthen pairs whose every shortest path used a
  deleted edge, i.e. pairs ``(x, y)`` with
  ``D[x, y] == D[x, a] + 1 + D[b, y]`` for a removed edge ``{a, b}``.
  Only the rows containing such pairs are re-expanded, by one
  multi-source layered BFS on the new graph.
* *Insertions* can only create shortcuts through ``v``; one fresh BFS
  from ``v`` prices them all via ``min(D, d_v[x] + d_v[y])``.

When the dirty row set exceeds ``dirty_threshold * n`` (e.g. a bridge
deletion in a tree, which invalidates a constant fraction of all pairs)
the repair is abandoned for a full :func:`adjacency.all_pairs_distances_fast`
rebuild, so the incremental engine is never asymptotically worse than
the dense one.

On top of the kernel sit the :class:`DistanceBackend` implementations
the game/dynamics layers are parameterised over:

* :class:`DenseBackend` — a stateless full recompute per query, the
  faster choice below ``bitkernel.MIN_N`` vertices;
* :class:`IncrementalBackend` — a maintained full-graph matrix, one
  maintained ``D(G - u)`` matrix per evaluated agent (the
  ``D(G - u)`` factorization of ``best_response.py`` means that matrix
  prices *every* deviation of ``u``), and a :class:`DeviationCache`
  memoising whole best-response computations under a key hashed from
  the network itself (see :class:`DeviationCache`) — so a revisited
  state (a better-response cycle, lap after lap) or a repeated query
  within one step costs one hash and one dict lookup, and no distance
  work.

Both backends compute every full APSP with
:func:`adjacency.all_pairs_distances_fast` (reach-counting BLAS layers
below ``bitkernel.MIN_N`` vertices, the word-parallel :mod:`.bitkernel`
from there up); everything stays bit-identical either way.

Memory: the incremental backend stores ``O(n^2)`` floats per evaluated
agent (~14 MB at n = 120).  That is the right trade for the paper's
instance sizes (n <= ~200); for much larger graphs cap the backend to
``dense`` or clear it periodically via :meth:`IncrementalBackend.reset`.

Everything here works on plain adjacency matrices plus a duck-typed
network object exposing ``.A`` and ``.owner`` — this module must not
import :mod:`repro.core` (the core imports the graphs layer).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..statespace import encode
from . import adjacency as adj

__all__ = [
    "update_distances_after_vertex_change",
    "IncrementalAPSP",
    "DeviationCache",
    "DistanceBackend",
    "DenseBackend",
    "IncrementalBackend",
    "make_backend",
    "DEFAULT_DIRTY_THRESHOLD",
]

#: above this fraction of dirty rows, repairing costs more than redoing.
#: (the repair is a multi-source BFS over the dirty rows plus diffing
#: against the old matrix, so past half the rows a full
#: ``all_pairs_distances_fast`` rebuild is cheaper.)
DEFAULT_DIRTY_THRESHOLD = 0.5

#: most single-vertex groups a multi-vertex diff is repaired in before
#: :class:`IncrementalAPSP` rebuilds from scratch instead.
MAX_CENTERS = 4

# pre-bound obs handles: per-event cost is one attribute load + one
# enabled-branch + one dict update (nothing when the meter is off)
_BACKEND_CALLS = obs_metrics.counter(
    "repro_backend_calls_total",
    "DistanceBackend queries by backend and operation",
    ("backend", "op"))
_DENSE_FULL = _BACKEND_CALLS.labels(backend="dense", op="full")
_DENSE_DEV = _BACKEND_CALLS.labels(backend="dense", op="deviation")
_INC_FULL = _BACKEND_CALLS.labels(backend="incremental", op="full")
_INC_DEV = _BACKEND_CALLS.labels(backend="incremental", op="deviation")
_CACHE_EVENTS = obs_metrics.counter(
    "repro_deviation_cache_events_total",
    "DeviationCache hits, misses and evictions",
    ("event",))
_CACHE_HIT = _CACHE_EVENTS.labels(event="hit")
_CACHE_MISS = _CACHE_EVENTS.labels(event="miss")
_CACHE_EVICTION = _CACHE_EVENTS.labels(event="eviction")


def update_distances_after_vertex_change(
    D_old: np.ndarray,
    A_new: np.ndarray,
    v: int,
    deleted: Iterable[Tuple[int, int]] = (),
    mask: Optional[np.ndarray] = None,
    dirty_threshold: float = DEFAULT_DIRTY_THRESHOLD,
    stats: Optional[Dict[str, int]] = None,
) -> np.ndarray:
    """Repair an APSP matrix after vertex ``v``'s incident edges changed.

    Parameters
    ----------
    D_old:
        APSP matrix of the *old* graph (``inf`` for unreachable pairs;
        rows/columns of masked-out vertices all ``inf``).
    A_new:
        adjacency matrix of the new graph.  It may differ from the old
        one only in edges incident to ``v`` (``v`` alive under ``mask``).
    deleted:
        the removed edges, each incident to ``v``.  Insertions need not
        be listed — they are priced by the BFS from ``v``.
    mask:
        optional boolean vector of alive vertices (the ``G - u``
        matrices of the deviation engine exclude the deviator).
    dirty_threshold:
        fraction of rows above which a full APSP recompute is cheaper.
    stats:
        optional counter dict; taking the full-recompute fallback
        increments ``stats["fallback_rebuilds"]``.

    Returns
    -------
    A fresh APSP matrix of ``A_new`` (never aliases ``D_old``).
    """
    n = A_new.shape[0]
    deleted = list(deleted)
    sources = np.empty(0, dtype=np.int64)
    if deleted:
        finite = np.isfinite(D_old)
        dirty_rows = np.zeros(n, dtype=bool)
        for a, b in deleted:
            # pairs whose (some) shortest path crossed the removed edge;
            # the mirrored orientation is the transpose of this one
            # (D_old is symmetric), so one comparison covers both
            hit = (D_old == D_old[:, a, None] + 1.0 + D_old[None, b, :]) & finite
            hit[v, :] = False  # row/col v are rebuilt exactly below
            hit[:, v] = False
            dirty_rows |= hit.any(axis=1)
            dirty_rows |= hit.any(axis=0)
        sources = np.flatnonzero(dirty_rows)
        if sources.size > dirty_threshold * n:
            if stats is not None:
                stats["fallback_rebuilds"] = stats.get("fallback_rebuilds", 0) + 1
            return adj.all_pairs_distances_fast(A_new, mask=mask)
    d_v = adj.bfs_distances(A_new, v, mask=mask)
    D = D_old.copy()
    if sources.size:
        rows = adj.bfs_distances_multi(A_new, sources.tolist(), mask=mask)
        D[sources, :] = rows
        D[:, sources] = rows.T
    D[v, :] = d_v
    D[:, v] = d_v
    # shortcuts through v (covers all inserted edges, which touch v)
    np.minimum(D, d_v[:, None] + d_v[None, :], out=D)
    if mask is not None:
        D[~mask, :] = np.inf
        D[:, ~mask] = np.inf
        alive = np.flatnonzero(mask)
        D[alive, alive] = 0.0
    else:
        np.fill_diagonal(D, 0.0)
    return D


class IncrementalAPSP:
    """APSP of an evolving graph, maintained across single-vertex updates.

    The engine is *diff-based*: :meth:`distances` compares the queried
    adjacency against the snapshot of the previous query, so callers
    never have to notify it of moves (and stale-notification bugs are
    impossible).  When the diff is centred on one vertex the matrix is
    repaired incrementally; any other diff (first query, resized graph,
    multi-vertex change) falls back to a full rebuild.

    A diff spanning several vertices — an agent re-evaluated only after
    several other agents moved — is decomposed into single-vertex groups
    and repaired sequentially, one group at a time, as long as there are
    at most :data:`MAX_CENTERS` groups (with the bit-packed APSP a full
    rebuild costs only a couple of single-center repairs, so chasing a
    long move backlog loses to starting over).

    ``exclude`` pins a vertex as removed — this maintains the
    ``D(G - u)`` matrix of the deviation engine.  Changes incident only
    to the excluded vertex are invisible in ``G - u`` and cost nothing.
    """

    def __init__(self, exclude: Optional[int] = None):
        self.exclude = exclude
        self._A: Optional[np.ndarray] = None
        self._A_bytes: Optional[bytes] = None  # memcmp fast path for no-op diffs
        self._D: Optional[np.ndarray] = None
        # instrumentation (read by tests and the kernel benchmark);
        # fallback_rebuilds counts repairs that hit the dirty-threshold
        # and degenerated into a full recompute mid-update
        self.full_rebuilds = 0
        self.incremental_updates = 0
        self.noop_hits = 0
        self._update_stats: Dict[str, int] = {"fallback_rebuilds": 0}

    def _mask_for(self, n: int) -> Optional[np.ndarray]:
        if self.exclude is None:
            return None
        mask = np.ones(n, dtype=bool)
        mask[self.exclude] = False
        return mask

    def _rebuild(self, A: np.ndarray) -> np.ndarray:
        self._D = adj.all_pairs_distances_fast(A, mask=self._mask_for(A.shape[0]))
        self._A = A.copy()
        self._A_bytes = self._A.tobytes()
        self.full_rebuilds += 1
        return self._D

    def distances(self, A: np.ndarray) -> np.ndarray:
        """Return the APSP matrix of ``A`` (minus ``exclude``), reusing
        and repairing the previous result when possible.

        The returned matrix is a snapshot — the engine never mutates it
        in place afterwards — but callers must not write to it either.
        """
        A = np.asarray(A, dtype=bool)
        if self._A is None or self._A.shape != A.shape:
            return self._rebuild(A)
        n = A.shape[0]
        A_bytes = A.tobytes() if A.flags.c_contiguous else None
        if A_bytes is not None and A_bytes == self._A_bytes:
            self.noop_hits += 1  # bytewise-identical snapshot: memcmp only
            return self._D
        iu, iv = np.nonzero(A != self._A)
        keep = iu < iv
        if self.exclude is not None:
            keep &= (iu != self.exclude) & (iv != self.exclude)
        iu, iv = iu[keep], iv[keep]
        if iu.size == 0:
            self.noop_hits += 1
            self._A = A.copy()  # resync excluded-vertex edges
            self._A_bytes = self._A.tobytes()
            return self._D
        # every group removes at most max-degree-in-diff edges, so
        # ceil(E / maxdeg) lower-bounds the group count — a backlog that
        # cannot fit MAX_CENTERS groups skips the grouping work entirely
        maxdeg = int((np.bincount(iu, minlength=n) + np.bincount(iv, minlength=n)).max())
        if iu.size > MAX_CENTERS * maxdeg:
            return self._rebuild(A)
        groups = self._grouped_changes(iu, iv, n, stop_after=MAX_CENTERS)
        if len(groups) > MAX_CENTERS:
            return self._rebuild(A)
        mask = self._mask_for(n)
        D = self._D
        A_cur = self._A
        for center, group in groups:
            A_next = A_cur.copy()
            deleted = []
            for a, b in group:
                if A_cur[a, b] and not A[a, b]:
                    deleted.append((a, b))
                A_next[a, b] = A_next[b, a] = A[a, b]
            D = update_distances_after_vertex_change(
                D, A_next, center, deleted=deleted, mask=mask,
                stats=self._update_stats,
            )
            A_cur = A_next
        self._D = D
        self._A = A.copy()
        self._A_bytes = A_bytes if A_bytes is not None else self._A.tobytes()
        self.incremental_updates += 1
        return self._D

    @staticmethod
    def _grouped_changes(iu: np.ndarray, iv: np.ndarray, n: int, stop_after: Optional[int] = None):
        """Decompose an edge diff (as ``u < v`` index arrays) into
        single-vertex groups.

        Greedily picks the vertex covering the most remaining changed
        edges; each group is that vertex plus its incident changes.  For
        a run of k single-agent moves this yields <= k groups.  With
        ``stop_after``, decomposition stops once that many groups exist
        and edges remain (the caller rebuilds anyway): the returned list
        then has ``stop_after + 1`` entries, the last one partial.
        """
        groups = []
        while iu.size:
            if stop_after is not None and len(groups) > stop_after:
                break
            counts = np.bincount(iu, minlength=n) + np.bincount(iv, minlength=n)
            center = int(counts.argmax())
            in_group = (iu == center) | (iv == center)
            groups.append((center, list(zip(iu[in_group].tolist(), iv[in_group].tolist()))))
            out = ~in_group
            iu, iv = iu[out], iv[out]
        return groups

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: rebuilds / repairs / no-op cache hits."""
        return {
            "full_rebuilds": self.full_rebuilds,
            "incremental_updates": self.incremental_updates,
            "fallback_rebuilds": self._update_stats["fallback_rebuilds"],
            "noop_hits": self.noop_hits,
        }


class DeviationCache:
    """Memoised best-response results keyed by ``(game_token, agent, key)``.

    The key is whatever pins *all* inputs of the best-response
    computation.  :class:`IncrementalBackend` uses, per agent ``u``:

    * for **local** games (``game.local_best_response``: SG/ASG/GBG/BG)
      a 16-byte BLAKE2b digest of the packed adjacency plus ``u``'s
      packed incident ownership rows.  ``u``'s best response is a pure
      function of ``D(G - u)`` and those rows, and ``D(G - u)`` pins
      the topology of ``G - u`` (its distance-1
      entries are exactly its edges), so this key hits exactly when the
      agent's own inputs recur — on a best-response cycle's next lap,
      and on states that differ only in who owns a remote edge (every
      ownership variant the state-space explorer enumerates).
    * for non-local games the canonical full state key, which can only
      hit on exact state revisits.

    Either way a hit is only possible when the agent faces inputs
    identical to the ones it was last priced under, so the cached answer
    is exact by construction.  The two key families cannot collide: a
    full state key is 16 bytes, a local key longer.  A ``game_token``
    component keeps one physical cache safe to share between
    differently-parameterised games.
    """

    def __init__(self, max_entries: int = 200_000):
        self.max_entries = max_entries
        self._table: Dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._table)

    def get(self, game_token: tuple, agent: int, state_key: bytes):
        """Cached best response, or ``None`` on a miss."""
        hit = self._table.get((game_token, agent, state_key))
        if hit is None:
            self.misses += 1
            _CACHE_MISS.inc()
        else:
            self.hits += 1
            _CACHE_HIT.inc()
        return hit

    def put(self, game_token: tuple, agent: int, state_key: bytes, br) -> None:
        """Store a freshly computed best response."""
        if len(self._table) >= self.max_entries:
            # wholesale eviction: entries are cheap to recompute and a
            # run that overflows the cap has long stopped cycling
            self._table.clear()
            self.evictions += 1
            _CACHE_EVICTION.inc()
        self._table[(game_token, agent, state_key)] = br

    def clear(self) -> None:
        self._table.clear()

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: hits / misses / size / evictions."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._table),
            "evictions": self.evictions,
        }


class DistanceBackend(Protocol):
    """The distance/deviation queries the game layer is generic over."""

    name: str

    def full_distances(self, net) -> np.ndarray:
        """APSP matrix of the current network."""

    def deviation_distances(self, net, u: int) -> np.ndarray:
        """APSP matrix of ``G - u`` (prices every deviation of ``u``)."""

    def cached_best_response(self, game, net, u: int):
        """Memoised best response for ``(game, net, u)``, or ``None``."""

    def store_best_response(self, game, net, u: int, br) -> None:
        """Record a freshly computed best response."""

    def reset(self) -> None:
        """Drop all cached state."""

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Instrumentation counters (empty for stateless backends)."""


class DenseBackend:
    """Recompute-from-scratch backend.

    Every query runs one full :func:`adjacency.all_pairs_distances_fast`
    (of ``G`` or ``G - u``) and nothing is kept between queries.  Below
    ``bitkernel.MIN_N`` vertices that beats the incremental engine's
    bookkeeping, which is why ``"auto"`` picks it there.  Stateless, so
    sharing one instance across runs is always safe.
    """

    name = "dense"

    def full_distances(self, net) -> np.ndarray:
        _DENSE_FULL.inc()
        return adj.all_pairs_distances_fast(net.A)

    def deviation_distances(self, net, u: int) -> np.ndarray:
        _DENSE_DEV.inc()
        return adj.distances_without_vertex(net.A, u)

    def cached_best_response(self, game, net, u: int):
        return None

    def store_best_response(self, game, net, u: int, br) -> None:
        pass

    def reset(self) -> None:
        pass

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {}


class IncrementalBackend:
    """Maintained distance state + deviation cache for one dynamics run.

    One :class:`IncrementalAPSP` tracks the full graph (the cost
    vector), one per evaluated agent tracks ``D(G - u)``, and a
    :class:`DeviationCache` short-circuits whole best-response
    computations on revisited states.  An instance is cheap to create;
    give each run its own (sharing is *correct* — everything is keyed or
    diffed against exact inputs — but mixes instrumentation counters).
    """

    name = "incremental"

    def __init__(self):
        self._full = IncrementalAPSP()
        self._per_agent: Dict[int, IncrementalAPSP] = {}
        self.cache = DeviationCache()

    def full_distances(self, net) -> np.ndarray:
        _INC_FULL.inc()
        return self._full.distances(net.A)

    def deviation_distances(self, net, u: int) -> np.ndarray:
        _INC_DEV.inc()
        engine = self._per_agent.get(u)
        if engine is None:
            engine = self._per_agent[u] = IncrementalAPSP(exclude=int(u))
        return engine.distances(net.A)

    @staticmethod
    def _cache_key(game, net, u: int) -> bytes:
        """``u``'s :class:`DeviationCache` key in the current state."""
        if not game.local_best_response:
            return encode.state_key(net)
        # the adjacency is symmetric, so packing all of it pins the
        # topology as canonically as its upper triangle, without the
        # triangle copy that dominates encode.state_key's topology key
        A = net.A
        topology = hashlib.blake2b(int(A.shape[0]).to_bytes(4, "little"), digest_size=16)
        topology.update(np.packbits(A).tobytes())
        rows = np.concatenate((net.owner[u], net.owner[:, u]))
        return topology.digest() + np.packbits(rows).tobytes()

    def cached_best_response(self, game, net, u: int):
        return self.cache.get(game.cache_token(), int(u), self._cache_key(game, net, u))

    def store_best_response(self, game, net, u: int, br) -> None:
        self.cache.put(game.cache_token(), int(u), self._cache_key(game, net, u), br)

    def reset(self) -> None:
        self._full = IncrementalAPSP()
        self._per_agent.clear()
        self.cache.clear()

    def stats(self) -> Dict[str, Dict[str, int]]:
        agg: Dict[str, int] = {}
        for engine in self._per_agent.values():
            for key, value in engine.stats().items():
                agg[key] = agg.get(key, 0) + value
        if not agg:
            agg = {key: 0 for key in IncrementalAPSP().stats()}
        return {
            "full_graph": self._full.stats(),
            "deviation": agg,
            "cache": self.cache.stats(),
        }


def make_backend(spec) -> DistanceBackend:
    """Resolve a backend spec: ``"dense"``, ``"incremental"``, ``None``
    (= dense) or an already-built backend instance (returned as-is)."""
    if spec is None or spec == "dense":
        return DenseBackend()
    if spec == "incremental":
        return IncrementalBackend()
    if hasattr(spec, "full_distances") and hasattr(spec, "deviation_distances"):
        return spec
    raise ValueError(
        f"unknown distance backend {spec!r}: expected 'dense', 'incremental' "
        "or a DistanceBackend instance"
    )
