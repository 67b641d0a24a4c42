"""Durable, resumable, sharded persistence for response-graph exploration.

Reuses the campaign store's format discipline
(:class:`~repro.experiments.campaign.CampaignStore`): a validated
``manifest.json`` identity plus append-only ``states-<i>of<k>.jsonl``
record files whose torn final line (a kill mid-append) is ignored on
load and stitched over on the next append.

One record per *expanded* state::

    {"key":   "<32 hex chars>",          # canonical state_key
     "state": "<hex blob>",              # lossless encode_state payload
     "succ":  [[agent, move_dict, succ_key_hex], ...]}

Expansion is deterministic — a state's successor list is a pure function
of the (game, moveset, agent filter) triple — so records written by any
invocation, shard, or worker process are interchangeable: resume skips
every stored state with zero recomputation, and the union of shard files
is exactly the unsharded exploration.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from ..durable import write_atomic
from ..experiments.campaign import CampaignMismatch, CampaignStore

__all__ = ["ExplorationStore", "STORE_VERSION", "CampaignMismatch",
           "open_store"]

STORE_VERSION = 1


class ExplorationStore(CampaignStore):
    """Append-only JSONL store of one exploration directory."""

    RECORD_PREFIX = "states"
    REQUIRED_KEYS = frozenset({"key", "state", "succ"})
    KIND = "exploration"

    def expanded_rows(self) -> Dict[str, dict]:
        """``key hex -> stored record`` across every shard file.

        Duplicate keys (two shards racing on the same state, or a resume
        overlapping a half-written layer) keep the first occurrence —
        expansions are deterministic, so duplicates are identical
        anyway.  Reads through :meth:`iter_all_records`, so a compacted
        (even pruned) store replays without touching JSONL.
        """
        out: Dict[str, dict] = {}
        for rec in self.iter_all_records():
            out.setdefault(rec["key"], rec)
        return out

    def status(self, seed_keys=None) -> dict:
        """Cheap progress counters straight off the record rows.

        Counts expanded states and discovered-but-unexpanded keys
        without decoding a single state blob, pricing a single move, or
        building the response graph — what ``repro explore --status``
        reads.  Pass ``seed_keys`` (hex digests of the exploration's
        seed states — hashing them costs no best-response pricing) to
        make ``pending``/``complete`` exact; without them, seeds no
        stored row references yet are invisible and ``pending`` is a
        lower bound.
        """
        expanded = set()
        discovered = set()
        for rec in self.iter_all_records():
            expanded.add(rec["key"])
            for _, _, succ_hex in rec["succ"]:
                discovered.add(succ_hex)
        if seed_keys is not None:
            discovered.update(seed_keys)
        pending = discovered - expanded
        return {
            "expanded": len(expanded),
            "discovered": len(expanded | discovered),
            "pending": len(pending),
            "complete": bool(expanded) and not pending,
        }


def open_store(root, fs=None):
    """The record store at ``root`` — exploration or campaign, as its
    manifest says — or ``None`` when ``root`` holds no manifest."""
    store = CampaignStore(root, fs=fs)
    manifest = store.load_manifest()
    if manifest is not None and manifest.get("kind") == "statespace":
        return ExplorationStore(root, fs=fs)
    return None if manifest is None else store


def manifest_for(
    game,
    moves: str,
    agent_filter: str,
    n: int,
    seed_keys: List[bytes],
    max_states: int,
) -> dict:
    """The store's identity manifest.

    Two explorations share a directory iff they would expand identical
    graphs: same game *rules* (digested from
    :meth:`~repro.core.games.Game.cache_token`, which covers mode,
    alpha, host graph and enumeration caps), same moveset and agent
    filter, and the same seed state set.
    """
    fp = hashlib.blake2b(digest_size=8)
    for key in sorted(seed_keys):
        fp.update(key)
    return {
        "version": STORE_VERSION,
        "kind": "statespace",
        "game": {
            "type": type(game).__name__,
            "mode": game.mode.value,
            "alpha": game.alpha,
            "rules": hashlib.blake2b(
                repr(game.cache_token()).encode(), digest_size=8
            ).hexdigest(),
        },
        "moves": moves,
        "agent_filter": agent_filter,
        "n": int(n),
        "seeds": len(seed_keys),
        "seed_fingerprint": fp.hexdigest(),
        "max_states": int(max_states),
    }


def write_report(store: ExplorationStore, report) -> None:
    """Persist the finished report as ``report.json`` (canonical bytes)."""
    # json_bytes() is ASCII, so the text round-trip is byte-identical
    write_atomic(store.root / "report.json",
                 report.json_bytes().decode("ascii"), store.fs)
