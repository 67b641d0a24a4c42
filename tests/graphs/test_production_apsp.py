"""The production APSP entry point against the boolean-matmul oracle.

:func:`adjacency.all_pairs_distances_fast` is the only APSP the library
calls; :func:`adjacency.all_pairs_distances` is the reference oracle.
The first must equal the second bit for bit — same values, same dtype —
on every tier (reach-counting BLAS layers, bitkernel, and the size
routing between them), and the second must stay off the hot path.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import adjacency as adj
from repro.graphs import bitkernel as bk

#: ``None`` = the size routing, ``False``/``True`` = one tier forced
TIERS = (None, False, True)


@st.composite
def graph_and_mask(draw, max_n=130):
    """Random, often disconnected graph plus a mask that removes no
    vertex, one vertex, every vertex, or a random subset (or no mask)."""
    n = draw(st.integers(0, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    A = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.3), 1)
    A = A | A.T
    kind = draw(st.sampled_from(["none", "keep_all", "one", "all", "random"]))
    mask = None
    if kind == "keep_all":
        mask = np.ones(n, dtype=bool)
    elif kind == "one" and n:
        mask = np.ones(n, dtype=bool)
        mask[draw(st.integers(0, n - 1))] = False
    elif kind == "all":
        mask = np.zeros(n, dtype=bool)
    elif kind == "random":
        mask = rng.random(n) < 0.8
    return A, mask


def _assert_identical(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@given(graph_and_mask(), st.sampled_from(TIERS))
@settings(max_examples=150, deadline=None)
def test_fast_apsp_equals_oracle_on_every_tier(case, tier):
    A, mask = case
    want = adj.all_pairs_distances(A, mask=mask)
    with bk.forced(tier):
        _assert_identical(adj.all_pairs_distances_fast(A, mask=mask), want)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 63, 64, 65, bk.MIN_N - 1, bk.MIN_N, 130])
def test_fast_apsp_edge_sizes(n, tier):
    rng = np.random.default_rng(n)
    path = adj.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    sparse = np.triu(rng.random((n, n)) < 2.0 / max(n, 1), 1)
    for A in (path, sparse | sparse.T, np.zeros((n, n), dtype=bool)):
        masks = [None, np.ones(n, dtype=bool), np.zeros(n, dtype=bool)]
        if n:
            one = np.ones(n, dtype=bool)
            one[n // 2] = False
            masks.append(one)
        for mask in masks:
            want = adj.all_pairs_distances(A, mask=mask)
            with bk.forced(tier):
                _assert_identical(adj.all_pairs_distances_fast(A, mask=mask), want)


SRC = pathlib.Path(adj.__file__).resolve().parents[1]


def _oracle_callers():
    """``(module, line)`` of every call to ``all_pairs_distances(`` in
    ``src/repro`` outside ``graphs/adjacency.py``, however it is bound
    (``adj.all_pairs_distances(...)`` or a bare imported name)."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "graphs/adjacency.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "all_pairs_distances":
                continue
            # bitkernel's own APSP is a tier of the production entry point
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                    and func.value.id in ("bitkernel", "bk"):
                continue
            found.append((rel, node.lineno))
    return found


def test_oracle_is_off_the_production_path():
    assert SRC.name == "repro" and (SRC / "graphs" / "adjacency.py").exists()
    assert _oracle_callers() == [], (
        "production code must call adjacency.all_pairs_distances_fast; the "
        "boolean-matmul all_pairs_distances is the test oracle only")
