"""HS-IDJ / HS-KDJ fingerprints: streams, counters and simulated time.

HS hands its candidates to the main queue as bare distances plus a
:class:`~repro.core.pairs.ChildPairs` source, and the queue builds a
payload only when an entry enters its in-memory heap.  That must change
nothing observable, so the stream hash, every ``JoinStats.as_row()``
counter and ``repr(response_time)`` are pinned here to the values of the
engine that built a ``PairPayload`` per candidate.  A 512-entry queue
makes the small dataset spill, swap in and overflow on swap-in.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import JoinConfig, JoinRunner, RTree
from repro.core import hs as hs_mod
from repro.core.pairs import ChildPairs
from repro.datagen.tiger import synthetic_tiger
from repro.queues.main_queue import _Block

QUEUE_MEMORY = 48 * 512
IDJ_PAIRS = 2000
KDJ_K = 1500

#: (stream sha256 prefix, repr(response_time), as_row() minus the
#: wall and simulated times) per (variant, algorithm).
EXPECTED = {
    ("base", "idj"): ("3832566f751d3bb5", "1.4458701410957715", {
        "dist_comps": 95162, "queue_insertions": 95162,
        "distance_queue_insertions": 0, "node_accesses": 36,
        "node_accesses_unbuffered": 1744, "queue_peak_size": 91430,
        "queue_splits": 0, "queue_swap_ins": 18,
        "queue_spilled_entries": 93631}),
    ("base", "kdj"): ("b86e0dbc769729fb", "0.5562679734626533", {
        "dist_comps": 93237, "queue_insertions": 9027,
        "distance_queue_insertions": 7135, "node_accesses": 36,
        "node_accesses_unbuffered": 1709, "queue_peak_size": 6859,
        "queue_splits": 0, "queue_swap_ins": 14,
        "queue_spilled_entries": 7496}),
    ("spill", "idj"): ("3832566f751d3bb5", "1.4458701410957715", {
        "dist_comps": 95162, "queue_insertions": 95162,
        "distance_queue_insertions": 0, "node_accesses": 36,
        "node_accesses_unbuffered": 1744, "queue_peak_size": 91430,
        "queue_splits": 0, "queue_swap_ins": 18,
        "queue_spilled_entries": 93631}),
    ("spill", "kdj"): ("b86e0dbc769729fb", "0.5562679734626533", {
        "dist_comps": 93237, "queue_insertions": 9027,
        "distance_queue_insertions": 7135, "node_accesses": 36,
        "node_accesses_unbuffered": 1709, "queue_peak_size": 6859,
        "queue_splits": 0, "queue_swap_ins": 14,
        "queue_spilled_entries": 7496}),
    ("all-pairs", "idj"): ("3832566f751d3bb5", "1.4458701410957715", {
        "dist_comps": 95162, "queue_insertions": 95162,
        "distance_queue_insertions": 0, "node_accesses": 36,
        "node_accesses_unbuffered": 1744, "queue_peak_size": 91430,
        "queue_splits": 0, "queue_swap_ins": 18,
        "queue_spilled_entries": 93631}),
    ("all-pairs", "kdj"): ("b86e0dbc769729fb", "0.5562659734626533", {
        "dist_comps": 93237, "queue_insertions": 9025,
        "distance_queue_insertions": 9024, "node_accesses": 36,
        "node_accesses_unbuffered": 1709, "queue_peak_size": 6857,
        "queue_splits": 0, "queue_swap_ins": 14,
        "queue_spilled_entries": 7494}),
    ("no-pruning", "idj"): ("3832566f751d3bb5", "1.4458701410957715", {
        "dist_comps": 95162, "queue_insertions": 95162,
        "distance_queue_insertions": 0, "node_accesses": 36,
        "node_accesses_unbuffered": 1744, "queue_peak_size": 91430,
        "queue_splits": 0, "queue_swap_ins": 18,
        "queue_spilled_entries": 93631}),
    ("no-pruning", "kdj"): ("b86e0dbc769729fb", "0.5800127234626501", {
        "dist_comps": 93237, "queue_insertions": 11678,
        "distance_queue_insertions": 8547, "node_accesses": 36,
        "node_accesses_unbuffered": 1709, "queue_peak_size": 9150,
        "queue_splits": 0, "queue_swap_ins": 14,
        "queue_spilled_entries": 10147}),
    ("alternate", "idj"): ("53ac60ae739b5987", "1.1073477111097212", {
        "dist_comps": 71358, "queue_insertions": 71358,
        "distance_queue_insertions": 0, "node_accesses": 30,
        "node_accesses_unbuffered": 1341, "queue_peak_size": 68021,
        "queue_splits": 0, "queue_swap_ins": 18,
        "queue_spilled_entries": 70163}),
    ("alternate", "kdj"): ("b86e0dbc769729fb", "0.4690407989330013", {
        "dist_comps": 69433, "queue_insertions": 10654,
        "distance_queue_insertions": 8957, "node_accesses": 29,
        "node_accesses_unbuffered": 1305, "queue_peak_size": 8825,
        "queue_splits": 0, "queue_swap_ins": 14,
        "queue_spilled_entries": 9477}),
}

VARIANTS = {
    "base": {},
    "spill": {"spill": True},
    "all-pairs": {"distance_queue_all_pairs": True},
    "no-pruning": {"hs_insert_pruning": False},
    "alternate": {"expansion_policy": "alternate"},
}


@pytest.fixture(scope="module")
def trees():
    data = synthetic_tiger(1500, 500, seed=5)
    return RTree.bulk_load(data.streets), RTree.bulk_load(data.hydro)


def fingerprint(runner: JoinRunner, algorithm: str):
    if algorithm == "idj":
        with runner.idj("hs") as stream:
            pairs = stream.next_batch(IDJ_PAIRS)
            stats = stream.stats()
    else:
        result = runner.kdj(KDJ_K, "hs")
        pairs, stats = result.results, result.stats
    digest = hashlib.sha256()
    for pair in pairs:
        digest.update(repr((pair.distance, pair.ref_r, pair.ref_s)).encode())
    row = stats.as_row()
    response = repr(row.pop("response_time"))
    for key in ("wall_time", "algorithm", "k", "results", "axis_comps",
                "compensation_stages", "compensation_peak", "edmax_initial"):
        row.pop(key)
    return digest.hexdigest()[:16], response, row


@pytest.mark.parametrize("algorithm", ["idj", "kdj"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("batch_size", [1, None])
@pytest.mark.parametrize("kernels", ["python", "numpy"])
def test_fingerprint(trees, tmp_path, kernels, batch_size, variant, algorithm):
    options = dict(VARIANTS[variant])
    if options.pop("spill", False):
        options["spill_dir"] = tmp_path / "spill"
    config = JoinConfig(
        kernels=kernels, batch_size=batch_size, queue_memory=QUEUE_MEMORY,
        **options,
    )
    assert fingerprint(JoinRunner(*trees, config), algorithm) == EXPECTED[
        (variant, algorithm)
    ]


class CountingPairs(ChildPairs):
    """ChildPairs that counts the payloads it builds."""

    __slots__ = ()
    built = 0

    def payloads(self, index):
        out = ChildPairs.payloads(self, index)
        CountingPairs.built += len(out)
        return out


def test_spilled_candidates_build_no_payload(trees, monkeypatch):
    """Only entries that enter the in-memory heap get a payload: each
    one is built exactly once, so every build is accounted for by a pop
    or by an entry still in the heap (the root pair is the one payload
    HS builds itself)."""
    monkeypatch.setattr(hs_mod, "ChildPairs", CountingPairs)
    monkeypatch.setattr(CountingPairs, "built", 0)
    # Width 1: a bulk-pop drain would hold popped-but-unconsumed heads
    # outside the heap.
    runner = JoinRunner(*trees, JoinConfig(queue_memory=QUEUE_MEMORY, batch_size=1))
    with runner.idj("hs") as stream:
        stream.next_batch(IDJ_PAIRS)
        queue = stream._ctx.main_queue
        stats = queue.stats
        assert stats.splits == 0
        assert CountingPairs.built + 1 == stats.pops + queue.in_memory_size
        # Most candidates spilled and were never swapped back in.
        assert stats.spilled_entries > 10 * CountingPairs.built
        # A checkpoint capture keeps the spilled blocks columnar: it
        # builds no payload, and the restored queue pops the same.
        built = CountingPairs.built
        state = queue.snapshot()
        assert CountingPairs.built == built
        segments = state["split_segments"] + list(state["formula_segments"].values())
        blocks = [
            chunk for segment in segments for chunk in segment[4]
            if type(chunk) is _Block
        ]
        assert sum(map(len, blocks)) > stats.spilled_entries // 2
        assert {type(block.source) for block in blocks} == {CountingPairs}
        expected = [queue.pop() for _ in range(300)]
        queue.restore(state)
        assert [queue.pop() for _ in range(300)] == expected
