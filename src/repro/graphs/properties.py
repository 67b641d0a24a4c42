"""Structural graph properties used throughout the paper.

Definitions follow Section 2 of Kawald & Lenzner (SPAA'13):

* the *sorted cost vector* of a network (Definition 2.5) lists the MAX
  costs (eccentricities) of all agents in non-increasing order;
* a *centre vertex* is an agent of minimum eccentricity;
* a *longest path of agent v* (Definition 2.7) is a simple path starting
  at ``v`` whose length equals ``v``'s eccentricity;
* ``k``-median sets minimise the total distance from all vertices to the
  set — the proofs of Theorems 5.1/5.2 use 1- and 2-medians to identify
  optimal buy strategies.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence, Tuple

import numpy as np

from . import adjacency as adj

__all__ = [
    "sorted_cost_vector",
    "center_vertices",
    "is_tree",
    "is_forest",
    "is_star",
    "is_double_star",
    "longest_paths_from",
    "vertex_on_all_longest_paths",
    "k_median_sets",
    "one_median_vertices",
    "two_median_sets",
    "k_center_vertices",
]


def sorted_cost_vector(A: np.ndarray) -> np.ndarray:
    """Sorted (non-increasing) vector of eccentricities — Definition 2.5.

    Lemma 2.6 shows this vector, compared lexicographically, is a
    generalized ordinal potential for the MAX-SG on trees.
    """
    ecc = adj.eccentricities(A)
    return np.sort(ecc)[::-1]


def center_vertices(A: np.ndarray) -> np.ndarray:
    """All vertices of minimum eccentricity ("centre-vertices")."""
    ecc = adj.eccentricities(A)
    return np.flatnonzero(ecc == ecc.min())


def is_forest(A: np.ndarray) -> bool:
    """``True`` iff the graph has no cycles."""
    n = A.shape[0]
    m = adj.num_edges(A)
    comps = adj.connected_components(A)
    return m == n - len(comps)


def is_tree(A: np.ndarray) -> bool:
    """``True`` iff the graph is connected and acyclic."""
    n = A.shape[0]
    return adj.num_edges(A) == n - 1 and adj.is_connected(A)


def is_star(A: np.ndarray) -> bool:
    """``True`` iff the graph is a star (one centre adjacent to all others).

    Degenerate cases: graphs on <= 2 vertices count as stars.
    """
    n = A.shape[0]
    if n <= 2:
        return adj.num_edges(A) == max(0, n - 1)
    if not is_tree(A):
        return False
    deg = adj.degrees(A)
    return bool((deg.max() == n - 1) and (np.sort(deg)[:-1] == 1).all())


def is_double_star(A: np.ndarray) -> bool:
    """``True`` iff the graph is a double star.

    A double star is a tree with exactly two adjacent non-leaf vertices
    (diameter 3).  Alon et al. (SPAA'10) show stars and double stars are
    the only stable trees of the MAX-SG, which is why tree dynamics must
    end in one of them.
    """
    n = A.shape[0]
    if not is_tree(A) or n < 4:
        return False
    deg = adj.degrees(A)
    internal = np.flatnonzero(deg > 1)
    if len(internal) != 2:
        return False
    u, v = internal
    return bool(A[u, v])


def longest_paths_from(A: np.ndarray, v: int) -> List[List[int]]:
    """All longest *shortest* paths of agent ``v`` (Definition 2.7).

    A longest path of ``v`` is a simple path starting at ``v`` of length
    ``ecc(v)``.  On trees, which is where the paper uses the notion,
    every such path is the unique tree path to some farthest vertex, so
    we enumerate shortest paths to the farthest vertices.  (On general
    graphs we also return geodesics, which is the natural analogue.)
    """
    D = adj.all_pairs_distances_fast(A)
    dist_v = D[v]
    ecc = dist_v.max()
    if not np.isfinite(ecc):
        raise ValueError("longest paths undefined on a disconnected graph")
    targets = np.flatnonzero(dist_v == ecc)
    paths: List[List[int]] = []

    def extend(path: List[int], t: int) -> None:
        u = path[-1]
        if u == t:
            paths.append(list(path))
            return
        for w in adj.neighbors(A, u):
            if dist_v[w] == dist_v[u] + 1 and D[w, t] == D[u, t] - 1:
                path.append(int(w))
                extend(path, t)
                path.pop()

    for t in targets:
        extend([v], int(t))
    return paths


def vertex_on_all_longest_paths(A: np.ndarray, x: int) -> bool:
    """Check Lemma 2.8's property: does ``x`` lie on every longest path?

    Lemma 2.8 states that in a tree every centre-vertex lies on all
    longest paths of all agents.
    """
    n = A.shape[0]
    for v in range(n):
        for path in longest_paths_from(A, v):
            if x not in path:
                return False
    return True


def k_median_sets(A: np.ndarray, k: int, candidates: Sequence[int] | None = None) -> Tuple[float, List[Tuple[int, ...]]]:
    """All optimal ``k``-median sets and their cost.

    The cost of a set ``S`` is ``sum_v min_{s in S} d(v, s)``.  Used to
    identify the optimal multi-edge buy strategies in the bilateral
    proofs (Theorems 5.1 and 5.2).  Exhaustive over ``C(n, k)`` subsets —
    fine for the instance sizes in the paper (n <= 24).
    """
    n = A.shape[0]
    D = adj.all_pairs_distances_fast(A)
    pool = range(n) if candidates is None else candidates
    best = np.inf
    best_sets: List[Tuple[int, ...]] = []
    for S in combinations(pool, k):
        cost = float(D[list(S)].min(axis=0).sum())
        if cost < best - 1e-12:
            best = cost
            best_sets = [S]
        elif abs(cost - best) <= 1e-12:
            best_sets.append(S)
    return best, best_sets


def one_median_vertices(A: np.ndarray) -> np.ndarray:
    """All 1-median vertices (minimum total distance to everyone)."""
    _, sets = k_median_sets(A, 1)
    return np.array(sorted(s[0] for s in sets))


def two_median_sets(A: np.ndarray) -> List[Tuple[int, int]]:
    """All optimal 2-median sets."""
    _, sets = k_median_sets(A, 2)
    return [tuple(sorted(s)) for s in sets]  # type: ignore[misc]


def k_center_vertices(A: np.ndarray, k: int = 1) -> Tuple[float, List[Tuple[int, ...]]]:
    """All optimal ``k``-centre sets (minimise max distance to the set)."""
    n = A.shape[0]
    D = adj.all_pairs_distances_fast(A)
    best = np.inf
    best_sets: List[Tuple[int, ...]] = []
    for S in combinations(range(n), k):
        cost = float(D[list(S)].min(axis=0).max())
        if cost < best - 1e-12:
            best = cost
            best_sets = [S]
        elif abs(cost - best) <= 1e-12:
            best_sets.append(S)
    return best, best_sets
