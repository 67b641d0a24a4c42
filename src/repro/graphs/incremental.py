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
  memoising whole best-response computations.  For local games the
  cache key is the *dirty-agent digest* — the content digest of
  ``(D(G - u), u's incident ownership rows)`` — so a lookup hits
  whenever the agent's own world is unchanged, however different the
  rest of the network looks: revisited states (better-response
  cycles!), repeated scans, and remote changes invisible to the agent
  all cost one dict lookup.

Both backends compute every full APSP with
:func:`adjacency.all_pairs_distances_fast` (reach-counting BLAS layers
below ``bitkernel.MIN_N`` vertices, the word-parallel :mod:`.bitkernel`
from there up); everything stays bit-identical either way.

Memory: the incremental backend stores ``O(n^2)`` floats per evaluated
agent (~14 MB at n = 120).  That is the right trade for the paper's
instance sizes (n <= ~200); for much larger graphs cap the backend to
``dense`` or clear it periodically via :meth:`IncrementalBackend.reset`.

Everything here works on plain adjacency matrices plus a duck-typed
network object exposing ``.A`` and ``.state_key()`` — this module must
not import :mod:`repro.core` (the core imports the graphs layer).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
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
    "DeviationCache hits, misses, invalidations and evictions",
    ("event",))
_CACHE_HIT = _CACHE_EVENTS.labels(event="hit")
_CACHE_MISS = _CACHE_EVENTS.labels(event="miss")
_CACHE_INVALIDATION = _CACHE_EVENTS.labels(event="invalidation")
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
    and repaired sequentially, one group at a time, as long as the group
    count stays below ``max_centers`` (default 4: with the bit-packed
    APSP a full rebuild costs only a couple of single-center repairs, so
    chasing a long move backlog loses to starting over).

    ``exclude`` pins a vertex as removed — this maintains the
    ``D(G - u)`` matrix of the deviation engine.  Changes incident only
    to the excluded vertex are invisible in ``G - u`` and cost nothing.
    """

    def __init__(
        self,
        exclude: Optional[int] = None,
        dirty_threshold: float = DEFAULT_DIRTY_THRESHOLD,
        max_centers: Optional[int] = None,
    ):
        self.exclude = exclude
        self.dirty_threshold = dirty_threshold
        self.max_centers = max_centers
        self._A: Optional[np.ndarray] = None
        self._A_bytes: Optional[bytes] = None  # memcmp fast path for no-op diffs
        self._D: Optional[np.ndarray] = None
        #: lazily computed content digest of ``_D`` (``None`` = stale)
        self._digest: Optional[bytes] = None
        # instrumentation (read by tests and the kernel benchmark);
        # fallback_rebuilds counts repairs that hit the dirty-threshold
        # and degenerated into a full recompute mid-update
        self.full_rebuilds = 0
        self.incremental_updates = 0
        self.noop_hits = 0
        self.clean_repairs = 0
        self.digest_recomputes = 0
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
        self._digest = None
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
        limit = self.max_centers if self.max_centers is not None else 4
        # every group removes at most max-degree-in-diff edges, so
        # ceil(E / maxdeg) lower-bounds the group count — a backlog that
        # cannot fit the limit skips the grouping work entirely
        maxdeg = int((np.bincount(iu, minlength=n) + np.bincount(iv, minlength=n)).max())
        if iu.size > limit * maxdeg:
            return self._rebuild(A)
        groups = self._grouped_changes(iu, iv, n, stop_after=limit)
        if len(groups) > limit:
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
                dirty_threshold=self.dirty_threshold, stats=self._update_stats,
            )
            A_cur = A_next
        # a repair that left every distance untouched (e.g. a far-away
        # redundant edge) keeps the content digest valid — this is what
        # lets digest-keyed best-response caches survive remote moves
        if self._digest is not None:
            if np.array_equal(D, self._D):
                self.clean_repairs += 1
            else:
                self._digest = None
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

    def digest(self) -> bytes:
        """16-byte BLAKE2b content digest of the current distance matrix.

        Computed lazily and invalidated only when a repair actually
        changed some distance — a no-op diff or a distance-preserving
        repair reuses the stored digest.  Two engines (for the same
        ``exclude``) agree on the digest iff their matrices are equal,
        so it is a sound cache key for anything that is a pure function
        of the distances.
        """
        if self._D is None:
            raise RuntimeError("digest() requires a distances() call first")
        if self._digest is None:
            # hop distances are exact integers <= n-1 (or inf), so a
            # narrowing cast is injective and hashes far fewer bytes:
            # below 255 vertices one byte per entry suffices, with 255
            # standing in for inf (a real 255 cannot occur)
            D = self._D
            if D.shape[0] <= 254:
                packed = np.minimum(D, 255.0).astype(np.uint8)
            else:
                packed = D.astype(np.float32)
            self._digest = hashlib.blake2b(packed.tobytes(), digest_size=16).digest()
            self.digest_recomputes += 1
        return self._digest

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: rebuilds / repairs / no-op cache hits."""
        return {
            "full_rebuilds": self.full_rebuilds,
            "incremental_updates": self.incremental_updates,
            "fallback_rebuilds": self._update_stats["fallback_rebuilds"],
            "noop_hits": self.noop_hits,
            "clean_repairs": self.clean_repairs,
            "digest_recomputes": self.digest_recomputes,
        }


class DeviationCache:
    """Memoised best-response results keyed by ``(agent, key)``.

    The key is whatever pins *all* inputs of the best-response
    computation.  :class:`IncrementalBackend` uses, per agent:

    * for **local** games (SG/ASG/GBG/BG) the dirty-agent key — the
      content digest of ``D(G - u)`` plus ``u``'s incident ownership
      rows.  A move by ``v`` invalidates exactly the agents whose
      ``D(G - u)`` actually changed (the dirty region of the move) or
      whose own edges were touched; every *unaffected* agent keeps its
      key and is served from cache, so a policy scan recomputes
      ``Θ(|dirty|)`` best responses instead of ``Θ(n)``.
    * for non-local games the canonical full state key
      (:meth:`repro.core.network.Network.state_key`), which pins the
      entire ownership matrix and can only hit on exact state revisits.

    Either way a hit is only possible when the agent faces inputs
    bit-identical to the ones it was last priced under, so staleness is
    structurally impossible.  A ``game_token`` component keeps one
    physical cache safe to share between differently-parameterised
    games.
    """

    def __init__(self, max_entries: int = 200_000):
        self.max_entries = max_entries
        self._table: Dict[tuple, object] = {}
        self._last_key: Dict[tuple, bytes] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._table)

    def get(self, game_token: tuple, agent: int, state_key: bytes):
        """Cached best response, or ``None`` on a miss.

        A miss where the *same* ``(game_token, agent)`` was previously
        priced under a *different* key is an **invalidation**: the
        agent's inputs changed and its old entry can never hit again.
        An agent whose move was a no-op keeps its key, so a no-op
        produces zero invalidations — the property the dirty-agent
        hypothesis suite pins.
        """
        hit = self._table.get((game_token, agent, state_key))
        if hit is None:
            self.misses += 1
            _CACHE_MISS.inc()
            last = self._last_key.get((game_token, agent))
            if last is not None and last != state_key:
                self.invalidations += 1
                _CACHE_INVALIDATION.inc()
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
        self._last_key[(game_token, agent)] = state_key

    def clear(self) -> None:
        self._table.clear()
        self._last_key.clear()

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: hits / misses / size / evictions /
        invalidations."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._table),
            "evictions": self.evictions,
            "invalidations": self.invalidations,
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
    diffed against exact state — but mixes instrumentation counters).
    """

    name = "incremental"

    def __init__(
        self,
        dirty_threshold: float = DEFAULT_DIRTY_THRESHOLD,
        cache_best_responses: bool = True,
        max_cache_entries: int = 200_000,
    ):
        self.dirty_threshold = dirty_threshold
        self.cache_best_responses = cache_best_responses
        self._full = IncrementalAPSP(dirty_threshold=dirty_threshold)
        self._per_agent: Dict[int, IncrementalAPSP] = {}
        self.cache = DeviationCache(max_entries=max_cache_entries)
        self._pending_key: Optional[tuple] = None

    def full_distances(self, net) -> np.ndarray:
        _INC_FULL.inc()
        return self._full.distances(net.A)

    def _engine_for(self, u: int) -> IncrementalAPSP:
        engine = self._per_agent.get(u)
        if engine is None:
            engine = self._per_agent[u] = IncrementalAPSP(
                exclude=int(u), dirty_threshold=self.dirty_threshold
            )
        return engine

    def deviation_distances(self, net, u: int) -> np.ndarray:
        _INC_DEV.inc()
        return self._engine_for(u).distances(net.A)

    def _deviation_key(self, game, net, u: int) -> bytes:
        """Cache key for ``u``'s best response in the current state.

        For *local* games (``game.local_best_response``) the best
        response is a pure function of ``(rules, D(G - u), u's incident
        ownership rows)``, so the key is the per-agent digest of exactly
        those inputs — any move anywhere that leaves them intact hits
        the cache, however different the rest of the network looks.
        Non-local games (bilateral consent) and duck-typed networks
        without an ownership matrix fall back to the full canonical
        state key, which can only hit on exact state revisits.

        The two key families can never collide: a state key is ``n^2``
        bytes, a digest key ``16 + 2n`` — equal only at non-integer n.
        """
        owner = getattr(net, "owner", None)
        if owner is None or not getattr(game, "local_best_response", False):
            return net.state_key()
        engine = self._engine_for(u)
        engine.distances(net.A)  # sync the D(G - u) matrix and digest
        return (
            engine.digest()
            + owner[u].tobytes()
            + np.ascontiguousarray(owner[:, u]).tobytes()
        )

    def cached_best_response(self, game, net, u: int):
        if not self.cache_best_responses:
            return None
        token = game.cache_token()
        key = self._deviation_key(game, net, u)
        # a miss is immediately followed by store_best_response for the
        # same (game, net, u) with the network unchanged; remember the
        # key so the store does not re-derive it
        self._pending_key = (token, int(u), key)
        return self.cache.get(token, int(u), key)

    def store_best_response(self, game, net, u: int, br) -> None:
        if not self.cache_best_responses:
            return
        token = game.cache_token()
        pending = self._pending_key
        if pending is not None and pending[0] == token and pending[1] == int(u):
            key = pending[2]
        else:
            key = self._deviation_key(game, net, u)
        self._pending_key = None
        self.cache.put(token, int(u), key, br)

    def reset(self) -> None:
        self._full = IncrementalAPSP(dirty_threshold=self.dirty_threshold)
        self._per_agent.clear()
        self.cache.clear()
        self._pending_key = None

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
