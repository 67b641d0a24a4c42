"""DeviationCache semantics.

The cache memoises best responses by ``(game rules, agent, key)``.  For
local games the key is the topology plus the agent's incident ownership
rows — equivalent to ``(D(G - u), u's rows)``, the inputs of its best
response; for other games it is the canonical
:func:`repro.statespace.encode.state_key`.  The regression risk is
*stale happiness*: an agent evaluated as happy being served that verdict
after the network changed under it.  These tests pin the contract:

* any move incident to the agent changes its ownership rows — re-priced;
* any move elsewhere changes the topology — re-priced;
* a remote ownership flip is served from cache for local games and
  re-priced for the bilateral game;
* a revisited state (a better-response cycle, lap after lap) is served
  from cache, costs no distance work, and is exact by construction.
"""

import numpy as np
import pytest

from repro.core.costs import DistanceMode
from repro.core.dynamics import run_dynamics
from repro.core.games import AsymmetricSwapGame, BilateralGame, GreedyBuyGame
from repro.core.moves import Buy, Delete, Swap
from repro.core.network import Network
from repro.core.policies import AdversarialPolicy, ScriptedPolicy
from repro.graphs.incremental import DeviationCache, IncrementalBackend, make_backend
from repro.instances.figures import ALL_INSTANCES
from repro.statespace.encode import state_key
from tests.helpers import network_from_adjacency, random_connected_adjacency


def path_network(edges, n):
    return Network.from_owned_edges(n, edges)


class TestDeviationCacheUnit:
    def test_miss_then_hit_and_counters(self):
        cache = DeviationCache()
        token = ("G", "sum", 1.0)
        assert cache.get(token, 0, b"s") is None
        cache.put(token, 0, b"s", "BR")
        assert cache.get(token, 0, b"s") == "BR"
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1,
                                 "evictions": 0}

    def test_distinct_agents_states_and_games_do_not_collide(self):
        cache = DeviationCache()
        cache.put(("G", "sum", 1.0), 0, b"s", "a")
        assert cache.get(("G", "sum", 1.0), 1, b"s") is None  # other agent
        assert cache.get(("G", "sum", 1.0), 0, b"t") is None  # other state
        assert cache.get(("G", "sum", 2.0), 0, b"s") is None  # other rules
        assert cache.get(("G", "sum", 1.0), 0, b"s") == "a"

    def test_eviction_caps_memory(self):
        cache = DeviationCache(max_entries=3)
        for i in range(3):
            cache.put(("G",), i, b"s", i)
        cache.put(("G",), 99, b"s", 99)  # triggers wholesale eviction
        assert len(cache) == 1
        assert cache.evictions == 1
        assert cache.get(("G",), 99, b"s") == 99


class TestInvalidationSemantics:
    def make(self, seed=3, n=9):
        rng = np.random.default_rng(seed)
        A = random_connected_adjacency(n, 4, rng)
        return network_from_adjacency(A, rng)

    def test_move_incident_to_agent_forces_reprice(self):
        net = self.make()
        game = GreedyBuyGame("sum", alpha=2.0)
        backend = IncrementalBackend()
        u = 0
        first = game.best_responses(net, u, backend=backend)
        misses_before = backend.cache.misses
        # a move by u itself: every later query must be a fresh evaluation
        if first.moves:
            first.moves[0].apply(net)
        else:
            target = int(np.flatnonzero(~net.A[u])[1])
            Buy(u, target).apply(net)
        again = game.best_responses(net, u, backend=backend)
        assert backend.cache.hits == 0
        assert backend.cache.misses > misses_before
        # and the answer matches the dense oracle exactly
        oracle = game.best_responses(net, u)
        assert (again.cost_before, again.best_cost, again.moves) == (
            oracle.cost_before, oracle.best_cost, oracle.moves,
        )

    def test_stale_happiness_is_impossible(self):
        """An agent priced as happy must be re-priced after a move by a
        *different* agent changes its options (the classic stale-cache
        bug this engine must never have)."""
        # star around 0: leaves 1..4; leaf 1 owns nothing, 0 owns all edges
        net = path_network([(0, 1), (0, 2), (0, 3), (0, 4)], 5)
        game = AsymmetricSwapGame("sum")
        backend = IncrementalBackend()
        # leaf 1 owns no edge: trivially happy
        assert not game.best_responses(net, 1, backend=backend).is_improving
        # same topology, different ownership: 1 now owns {1,0} and can swap
        net2 = path_network([(1, 0), (0, 2), (0, 3), (0, 4)], 5)
        fresh = game.best_responses(net2, 1, backend=backend)
        oracle = game.best_responses(net2, 1)
        assert fresh.is_improving == oracle.is_improving
        assert fresh.moves == oracle.moves
        assert backend.cache.hits == 0  # different state keys: no reuse

    def test_move_elsewhere_changing_G_minus_u_forces_reprice(self):
        net = self.make(seed=11, n=10)
        game = AsymmetricSwapGame("sum")
        backend = IncrementalBackend()
        u = 2
        game.best_responses(net, u, backend=backend)
        # another agent deletes an edge not incident to u -> G-u changed
        owner, target = next(
            (v, w) for v, w in net.owned_edge_list() if u not in (v, w)
        )
        Delete(owner, target).apply(net)
        hits_before = backend.cache.hits
        got = game.best_responses(net, u, backend=backend)
        oracle = game.best_responses(net, u)
        assert backend.cache.hits == hits_before  # no stale reuse
        assert got.best_cost == oracle.best_cost
        assert got.moves == oracle.moves

    def test_state_revisit_is_served_from_cache_and_exact(self):
        net = self.make(seed=7, n=8)
        game = GreedyBuyGame("sum", alpha=3.0)
        backend = IncrementalBackend()
        u = 1
        first = game.best_responses(net, u, backend=backend)
        # apply and undo a move by another agent: exact state revisit
        target = int(np.flatnonzero(~net.A[3])[1])
        assert target != 3
        move = Buy(3, target)
        move.apply(net)
        mid = game.best_responses(net, u, backend=backend)
        move.inverse(net).apply(net)
        hits_before = backend.cache.hits
        revisit = game.best_responses(net, u, backend=backend)
        assert backend.cache.hits == hits_before + 1
        assert revisit is first  # the memoised object itself
        assert mid is not first
        oracle = game.best_responses(net, u)
        assert (revisit.best_cost, revisit.moves) == (oracle.best_cost, oracle.moves)


class TestDirtyAgentDigestKeys:
    """The per-agent key of local games — a digest of the topology plus
    ``u``'s ownership rows, which pin ``D(G - u)`` and ``u``'s edges —
    hits exactly when the agent's inputs are unchanged; non-local games
    key on the full state."""

    @pytest.mark.parametrize("make_game, reused", [
        (lambda: AsymmetricSwapGame("sum"), True),
        (lambda: BilateralGame("sum", alpha=1.0), False),
    ], ids=["asg", "bilateral"])
    def test_remote_ownership_flip(self, make_game, reused):
        """Flipping who owns a far-away edge leaves topology, D(G-u) and
        u's rows intact: a local game serves the cached answer, the
        bilateral game (whose consent check reads the whole network)
        re-prices — and either answer matches the dense oracle."""
        net = Network.from_owned_edges(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        )
        game = make_game()
        backend = IncrementalBackend()
        u = 0
        first = game.best_responses(net, u, backend=backend)
        # hand ownership of {3,4} to 4 — same topology, different state
        net.owner[3, 4] = False
        net.owner[4, 3] = True
        again = game.best_responses(net, u, backend=backend)
        assert backend.cache.hits == int(reused)
        assert backend.cache.misses == 2 - int(reused)
        assert (again is first) == reused
        oracle = game.best_responses(net, u)
        assert (again.cost_before, again.best_cost, again.moves) == (
            oracle.cost_before, oracle.best_cost, oracle.moves,
        )

    def test_distance_changing_move_elsewhere_invalidates(self):
        """A remote topology change always perturbs the key, so the
        lookup misses."""
        net = Network.from_owned_edges(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
        )
        game = AsymmetricSwapGame("sum")
        backend = IncrementalBackend()
        u = 0
        game.best_responses(net, u, backend=backend)
        Swap(3, 4, 5).apply(net)  # edge {3,4} -> {3,5}, far from agent 0
        hits_before = backend.cache.hits
        got = game.best_responses(net, u, backend=backend)
        assert backend.cache.hits == hits_before
        oracle = game.best_responses(net, u)
        assert (got.best_cost, got.moves) == (oracle.best_cost, oracle.moves)

    def test_hit_costs_no_distance_work(self):
        """Leave a state and come back: the re-query of ``u`` hits and
        touches no distance engine — ``u``'s ``D(G - u)`` engine is not
        even synced to the revisited adjacency."""
        net = Network.from_owned_edges(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
        )
        game = AsymmetricSwapGame("sum")
        backend = IncrementalBackend()
        u = 0
        first = game.best_responses(net, u, backend=backend)
        move = Swap(3, 4, 5)
        move.apply(net)
        game.best_responses(net, u, backend=backend)  # a miss: repairs
        move.inverse(net).apply(net)
        engine_before = backend._per_agent[u].stats()
        stats_before = backend.stats()
        again = game.best_responses(net, u, backend=backend)
        assert again is first
        assert backend.cache.hits == 1
        engine_after = backend._per_agent[u].stats()
        for key in ("full_rebuilds", "incremental_updates", "noop_hits"):
            assert engine_after[key] == engine_before[key]
        assert backend.stats()["full_graph"] == stats_before["full_graph"]


class TestCycleReplay:
    """The paper's best-response cycles replayed on the incremental
    backend: every lap after the first is served entirely from cache."""

    LAPS = 5

    # fig2 is a Swap Game cycle whose swaps hand each new edge to the
    # swapper, so the drawn start differs from every later lap in the
    # swappers' own ownership rows (part of the local cache key); two
    # scheduled moves in, the state cycles exactly
    @pytest.mark.parametrize("fig, shift", [("fig3", 0), ("fig2", 2)])
    def test_laps_after_the_first_are_all_hits(self, fig, shift):
        inst = ALL_INSTANCES[fig]()
        moves = inst.moves()
        start = inst.network.copy()
        for _, move in moves[:shift]:
            move.apply(start)
        schedule = moves[shift:] + moves[:shift]
        policy = AdversarialPolicy(schedule, loop=self.LAPS, require_best_response=True)
        result = run_dynamics(
            inst.game, start, policy, seed=0,
            max_steps=self.LAPS * len(schedule) + 1, backend=IncrementalBackend(),
        )
        cache = result.backend_stats["cache"]
        assert result.steps == self.LAPS * len(schedule)
        assert cache["hits"] == result.steps - len(schedule)
        assert cache["misses"] == len(schedule)
        assert state_key(result.final) == state_key(start)


class TestDynamicsLevelInvalidation:
    def test_scripted_run_matches_dense_with_cycles(self):
        """A run revisiting states (cache hits!) must still match dense."""
        rng = np.random.default_rng(21)
        A = random_connected_adjacency(10, 5, rng)
        net = network_from_adjacency(A, rng)
        game = AsymmetricSwapGame("max")
        schedule = [int(rng.integers(10)) for _ in range(30)]
        runs = {}
        for name in ("dense", "incremental"):
            policy = ScriptedPolicy(schedule, strict=False)
            runs[name] = run_dynamics(
                game, net, policy, seed=4, max_steps=200, backend=name
            )
        rd, ri = runs["dense"], runs["incremental"]
        assert [(r.agent, r.move) for r in rd.trajectory] == [
            (r.agent, r.move) for r in ri.trajectory
        ]
        assert rd.final.state_key() == ri.final.state_key()

    def test_backend_stats_reported(self):
        rng = np.random.default_rng(2)
        A = random_connected_adjacency(34, 20, rng)
        net = network_from_adjacency(A, rng)
        game = AsymmetricSwapGame("sum")
        from repro.core.policies import MaxCostPolicy

        result = run_dynamics(game, net, MaxCostPolicy(), seed=0, backend="incremental")
        stats = result.backend_stats
        assert set(stats) == {"full_graph", "deviation", "cache"}
        assert stats["full_graph"]["incremental_updates"] >= 1
        assert stats["cache"]["misses"] >= 1
        # dense runs report no counters
        dense = run_dynamics(game, net, MaxCostPolicy(), seed=0, backend="dense")
        assert dense.backend_stats == {}

    def test_make_backend_specs(self):
        from repro.graphs.incremental import DenseBackend

        assert make_backend(None).name == "dense"
        assert make_backend("dense").name == "dense"
        assert make_backend("incremental").name == "incremental"
        b = IncrementalBackend()
        assert make_backend(b) is b
        with pytest.raises(ValueError):
            make_backend("warp-drive")
