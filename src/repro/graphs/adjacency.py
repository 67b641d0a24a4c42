"""Dense boolean-adjacency graph kernel.

This module is the performance substrate of the whole library.  All
networks in the paper's experiments are small (n <= ~200), so a dense
``uint8``/``bool`` adjacency matrix with layered BFS run as numpy
matrix products is by far the fastest representation available in pure
Python: a full all-pairs-shortest-path (APSP) computation costs
``diameter`` many ``n x n`` products and no Python-level per-edge loop
ever runs.

:func:`all_pairs_distances_fast` is the one production APSP; every
distance query of the library (dense and incremental backends, the
deviation evaluator, cost vectors, eccentricities, the instance and
theory checkers) goes through it.  It has two tiers:

* below ``bitkernel.MIN_N`` vertices, a float32 *reach-counting* kernel:
  ``R_d`` (pairs within ``d`` hops) grows by one BLAS product per layer
  and the distance of a pair is the number of layers it stays
  unreached, so a layer costs four numpy calls;
* from ``bitkernel.MIN_N`` upwards, the word-parallel
  :mod:`.bitkernel` engine — packed ``uint64`` bitsets, 64 searches per
  word-op.

The multi-source :func:`bfs_distances_multi` and
:func:`is_connected_without_vertex` route to :mod:`.bitkernel` on the
same threshold.  All tiers are bit-identical.  The classic
boolean-matmul :func:`all_pairs_distances` is never routed and no
production code calls it: it is the reference oracle every other kernel
is tested against.

Conventions
-----------
* Graphs are undirected and simple.  ``A`` is a symmetric ``(n, n)``
  boolean numpy array with a zero diagonal.
* Distances are returned as ``float64`` arrays with ``np.inf`` marking
  unreachable pairs.  Keeping the infinity explicit (instead of a large
  integer sentinel) makes the game-theoretic "disconnection costs
  infinitely much" rule fall out of ordinary arithmetic.
* All functions are pure: they never mutate their inputs.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from . import bitkernel

__all__ = [
    "validate_adjacency",
    "empty_adjacency",
    "from_edges",
    "edge_list",
    "degrees",
    "bfs_distances",
    "bfs_distances_multi",
    "all_pairs_distances",
    "all_pairs_distances_fast",
    "distances_without_vertex",
    "connected_components",
    "is_connected",
    "is_connected_without_vertex",
    "bridges",
    "is_bridge",
    "eccentricities",
    "diameter",
    "num_edges",
    "neighbors",
]

# which kernel tier served each APSP-class query (pre-bound handles:
# one enabled-branch + dict update per call, nothing when disabled)
_APSP_TIER = obs_metrics.counter(
    "repro_apsp_calls_total",
    "APSP-class kernel invocations by tier",
    ("tier",))
_TIER_BITKERNEL = _APSP_TIER.labels(tier="bitkernel")
_TIER_BLAS = _APSP_TIER.labels(tier="blas_layered")
_TIER_REACH = _APSP_TIER.labels(tier="reach_count")


def validate_adjacency(A: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``A`` is a valid symmetric adjacency matrix.

    A valid adjacency matrix is a square 2-D boolean (or 0/1) array with a
    zero diagonal and ``A == A.T``.
    """
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {A.shape}")
    if A.dtype != np.bool_:
        if not np.isin(A, (0, 1)).all():
            raise ValueError("adjacency matrix entries must be 0/1 or bool")
    B = A.astype(bool)
    if B.diagonal().any():
        raise ValueError("adjacency matrix must have a zero diagonal (no self-loops)")
    if not (B == B.T).all():
        raise ValueError("adjacency matrix must be symmetric (undirected graph)")


def empty_adjacency(n: int) -> np.ndarray:
    """Return the adjacency matrix of the empty graph on ``n`` vertices."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return np.zeros((n, n), dtype=bool)


def from_edges(n: int, edges: Iterable[Tuple[int, int]]) -> np.ndarray:
    """Build an adjacency matrix from an edge list.

    Parameters
    ----------
    n:
        Number of vertices; vertices are ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Duplicates are tolerated;
        self-loops raise.
    """
    A = empty_adjacency(n)
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        A[u, v] = True
        A[v, u] = True
    return A


def edge_list(A: np.ndarray) -> List[Tuple[int, int]]:
    """Return the sorted list of edges ``(u, v)`` with ``u < v``."""
    iu, iv = np.nonzero(np.triu(A, k=1))
    return list(zip(iu.tolist(), iv.tolist()))


def num_edges(A: np.ndarray) -> int:
    """Number of (undirected) edges."""
    return int(np.count_nonzero(A)) // 2


def degrees(A: np.ndarray) -> np.ndarray:
    """Vertex degrees as an int array."""
    return A.sum(axis=1).astype(np.int64)


def neighbors(A: np.ndarray, u: int) -> np.ndarray:
    """Sorted array of neighbours of ``u``."""
    return np.flatnonzero(A[u])


def bfs_distances(A: np.ndarray, source: int, mask: np.ndarray | None = None) -> np.ndarray:
    """Single-source BFS distances via numpy frontier expansion.

    Parameters
    ----------
    A:
        boolean adjacency matrix.
    source:
        source vertex.
    mask:
        optional boolean vector; ``False`` entries are treated as removed
        vertices (they get distance ``inf`` and are never traversed).

    Returns
    -------
    ``float64`` vector of distances, ``np.inf`` for unreachable vertices.
    """
    n = A.shape[0]
    dist = np.full(n, np.inf)
    if mask is not None and not mask[source]:
        return dist
    A = A.astype(bool, copy=False)
    visited = np.zeros(n, dtype=bool)
    if mask is not None:
        visited |= ~mask
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    d = 0
    while frontier.any():
        dist[frontier] = d
        visited |= frontier
        # next frontier: any unvisited vertex adjacent to the frontier
        frontier = (A[frontier].any(axis=0)) & ~visited
        d += 1
    if mask is not None:
        dist[~mask] = np.inf
    return dist


def bfs_distances_multi(A: np.ndarray, sources: Sequence[int], mask: np.ndarray | None = None) -> np.ndarray:
    """BFS distances from several sources at once.

    Returns a ``(len(sources), n)`` float matrix.  Implemented as layered
    expansion of all sources simultaneously; the layer product runs in
    float32 so it hits BLAS (an order of magnitude faster than the
    boolean matmul at the paper's sizes — path counts stay far below
    float32's 2^24 integer range, so thresholding back to boolean is
    exact).  Large batches on large graphs route to the word-parallel
    :mod:`.bitkernel` engine instead — bit-identical results, no dense
    layer product at all.
    """
    n = A.shape[0]
    k = len(sources)
    if bitkernel.enabled_multi(n, k):
        _TIER_BITKERNEL.inc()
        return bitkernel.bfs_distances_multi(A, sources, mask=mask)
    _TIER_BLAS.inc()
    Af = A.astype(np.float32)
    dist = np.full((k, n), np.inf)
    visited = np.zeros((k, n), dtype=bool)
    if mask is not None:
        visited |= ~mask[None, :]
    frontier = np.zeros((k, n), dtype=bool)
    for i, s in enumerate(sources):
        if mask is None or mask[s]:
            frontier[i, s] = True
    d = 0
    while frontier.any():
        dist[frontier] = d
        visited |= frontier
        # (k,n) @ (n,n) BLAS product: rows expand one BFS layer
        frontier = (frontier.astype(np.float32) @ Af > 0.0) & ~visited
        d += 1
    if mask is not None:
        dist[:, ~mask] = np.inf
    return dist


def all_pairs_distances_fast(A: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """All-pairs hop distances: the production APSP.

    Bit-for-bit identical results to the :func:`all_pairs_distances`
    oracle.  From ``bitkernel.MIN_N`` vertices upwards the word-parallel
    :mod:`.bitkernel` engine runs the whole APSP as packed bitset ops
    (64 searches per word-op); below that the float32 reach-counting
    kernel does (:func:`_reach_counting_distances`).
    """
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    if bitkernel.enabled_for(n):
        _TIER_BITKERNEL.inc()
        return bitkernel.all_pairs_distances(A, mask=mask)
    _TIER_REACH.inc()
    return _reach_counting_distances(A, mask)


def _reach_counting_distances(A: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """APSP by counting, per pair, the BFS layers it stays unreached.

    With ``M = A + I`` restricted to the alive vertices, ``R_d =
    min(M^d, 1)`` marks the pairs within ``d`` hops, ``R_{d+1} =
    min(R_d @ M, 1)`` is one float32 GEMM, and the loop stops when the
    reach count stops growing at layer ``L``.  A pair at distance ``k``
    is marked in ``R_k..R_L`` (``R_0 = diag(mask)``), so ``D = (L + 1) -
    sum_{d=0..L} R_d``; pairs never reached are ``inf``.  Every entry
    stays ``<= n + 1 < 2^24``, so float32 is exact.
    """
    n = A.shape[0]
    M = A.astype(np.float32)
    np.fill_diagonal(M, 1.0)
    alive = n
    if mask is not None:
        dead = ~mask
        M[dead, :] = 0.0
        M[:, dead] = 0.0
        alive = int(np.count_nonzero(mask))
    # acc = R_0 + R_1: the diagonal of an alive vertex is in both
    acc = M.copy()
    acc.flat[:: n + 1] *= 2.0
    R, reached, top = M, int(np.count_nonzero(M)), 2.0
    while reached < alive * alive:
        R = R @ M
        np.minimum(R, 1.0, out=R)
        grown = int(np.count_nonzero(R))
        if grown == reached:
            break
        acc += R
        reached, top = grown, top + 1.0
    D = np.subtract(top, acc, dtype=np.float64)
    if reached < n * n:
        D[R == 0.0] = np.inf
    return D


def all_pairs_distances(A: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """All-pairs shortest path distances by layered boolean matmul.

    ``D[u, v]`` is the hop distance, ``np.inf`` when unreachable.  With a
    ``mask``, masked vertices are removed from the graph (rows/columns
    become ``inf`` except nothing: a removed vertex has no distances).

    The loop runs ``diameter(A)`` iterations; each iteration is a single
    ``(n, n) x (n, n)`` boolean product — no Python-level per-edge work.
    This is the reference oracle the production kernels are tested
    against; the library itself calls :func:`all_pairs_distances_fast`.
    """
    n = A.shape[0]
    B = A.astype(bool, copy=True)
    if mask is not None:
        B[~mask, :] = False
        B[:, ~mask] = False
    dist = np.full((n, n), np.inf)
    alive = np.ones(n, dtype=bool) if mask is None else mask.astype(bool)
    idx = np.flatnonzero(alive)
    dist[idx, idx] = 0.0
    reached = np.eye(n, dtype=bool)
    reached[~alive, :] = False
    frontier = B.copy()
    frontier &= ~reached
    d = 1
    while frontier.any():
        dist[frontier] = d
        reached |= frontier
        frontier = (frontier @ B) & ~reached
        d += 1
    if mask is not None:
        dist[~alive, :] = np.inf
        dist[:, ~alive] = np.inf
    return dist


def distances_without_vertex(A: np.ndarray, u: int) -> np.ndarray:
    """APSP of the graph ``A - u`` (vertex ``u`` removed).

    Row/column ``u`` of the result are ``inf``.  This is the workhorse of
    the best-response engine: any strategy of agent ``u`` is evaluated
    against these distances.
    """
    mask = np.ones(A.shape[0], dtype=bool)
    mask[u] = False
    return all_pairs_distances_fast(A, mask=mask)


def connected_components(A: np.ndarray) -> List[np.ndarray]:
    """Connected components as a list of sorted vertex arrays."""
    n = A.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps: List[np.ndarray] = []
    for s in range(n):
        if seen[s]:
            continue
        dist = bfs_distances(A, s)
        comp = np.isfinite(dist)
        seen |= comp
        comps.append(np.flatnonzero(comp))
    return comps


def is_connected(A: np.ndarray) -> bool:
    """``True`` iff the graph is connected (the empty graph counts as connected)."""
    n = A.shape[0]
    if n <= 1:
        return True
    return bool(np.isfinite(bfs_distances(A, 0)).all())


def is_connected_without_vertex(A: np.ndarray, u: int) -> bool:
    """``True`` iff ``A - u`` is connected.

    Large graphs route to the packed-bitset reachability check in
    :mod:`.bitkernel` (no distance bookkeeping at all).
    """
    n = A.shape[0]
    if n <= 2:
        return True
    if bitkernel.enabled_for(n):
        return bitkernel.is_connected_without_vertex(A, u)
    mask = np.ones(n, dtype=bool)
    mask[u] = False
    start = 0 if u != 0 else 1
    dist = bfs_distances(A, start, mask=mask)
    return bool(np.isfinite(dist[mask]).all())


def bridges(A: np.ndarray) -> List[Tuple[int, int]]:
    """All bridge edges ``(u, v)`` with ``u < v`` (Tarjan low-link, iterative).

    A bridge is an edge whose removal disconnects its endpoints.  In the
    swap games a bridge can never be swapped or deleted by a rational
    agent (the network would disconnect, costing infinitely much), so
    bridge detection prunes the move enumeration.
    """
    n = A.shape[0]
    adj = [np.flatnonzero(A[v]).tolist() for v in range(n)]
    disc = [-1] * n
    low = [0] * n
    out: List[Tuple[int, int]] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # iterative DFS: stack of (vertex, parent, neighbour-iterator-index)
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, parent, i + 1)
                w = adj[v][i]
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, 0))
                elif w != parent:
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        out.append((min(parent, v), max(parent, v)))
    out.sort()
    return out


def is_bridge(A: np.ndarray, u: int, v: int) -> bool:
    """``True`` iff edge ``(u, v)`` exists and is a bridge."""
    if not A[u, v]:
        return False
    B = A.copy()
    B[u, v] = B[v, u] = False
    return not np.isfinite(bfs_distances(B, u)[v])


def eccentricities(A: np.ndarray) -> np.ndarray:
    """Vector of vertex eccentricities (``inf`` if disconnected)."""
    D = all_pairs_distances_fast(A)
    return D.max(axis=1)


def diameter(A: np.ndarray) -> float:
    """Graph diameter (``inf`` if disconnected, 0 for a single vertex)."""
    n = A.shape[0]
    if n == 0:
        return 0.0
    return float(all_pairs_distances_fast(A).max())
