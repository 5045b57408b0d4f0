"""Tests for the hybrid memory/disk main queue."""

import heapq
import math
import pickle
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.sinks import CollectSink
from repro.obs.tracer import Tracer
from repro.queues.main_queue import MainQueue, _Remainder, _frames, _materialize
from repro.storage.disk import SimulatedDisk


def logical(state: dict) -> dict:
    """A snapshot with every segment's spilled bytes decoded and staged
    chunks built, as ``(lo, hi, entries, staged_since_flush)``: equal
    for two queues that hold the same entries in different chunk kinds."""

    def entries(lo, hi, spilled, count, chunks, staged):
        framed, corrupt = _frames(spilled)
        assert corrupt is None
        decoded = [e for _, _, blob in framed for e in pickle.loads(blob)]
        assert len(decoded) == count
        return (lo, hi, decoded + _materialize(chunks), staged)

    return {
        **state,
        "split_segments": [entries(*s) for s in state["split_segments"]],
        "formula_segments": {
            index: entries(*s) for index, s in state["formula_segments"].items()
        },
    }


def make_queue(entries: int = 32, rho: float | None = None) -> tuple[MainQueue, SimulatedDisk]:
    disk = SimulatedDisk()
    queue = MainQueue(disk, memory_bytes=48 * entries, rho=rho)
    return queue, disk


class TestValidation:
    def test_bad_memory(self):
        with pytest.raises(ValueError):
            MainQueue(SimulatedDisk(), memory_bytes=0)

    def test_bad_rho(self):
        with pytest.raises(ValueError):
            MainQueue(SimulatedDisk(), memory_bytes=1024, rho=0.0)

    def test_bad_entry_bytes(self):
        with pytest.raises(ValueError):
            MainQueue(SimulatedDisk(), memory_bytes=1024, entry_bytes=0)

    def test_pop_empty_raises(self):
        queue, _ = make_queue()
        with pytest.raises(IndexError):
            queue.pop()


class TestBasics:
    def test_fifo_of_priorities(self):
        queue, _ = make_queue()
        for v in [5.0, 1.0, 3.0]:
            queue.insert(v, f"p{v}")
        assert queue.pop() == (1.0, "p1.0")
        assert queue.peek_key() == 3.0
        assert len(queue) == 2
        assert bool(queue)

    def test_in_memory_until_capacity(self):
        queue, disk = make_queue(entries=16)
        for v in range(16):
            queue.insert(float(v), None)
        assert queue.stats.splits == 0
        assert queue.in_memory_size == 16

    def test_split_on_overflow(self):
        queue, _ = make_queue(entries=8)
        for v in range(20):
            queue.insert(float(v), None)
        assert queue.stats.splits >= 1
        assert queue.segment_count >= 1
        assert queue.check_invariant()

    def test_swap_in_restores_order(self):
        queue, _ = make_queue(entries=8)
        values = [float(v) for v in range(50)]
        random.Random(3).shuffle(values)
        for v in values:
            queue.insert(v, None)
        out = [queue.pop()[0] for _ in range(50)]
        assert out == sorted(values)
        assert queue.stats.swap_ins >= 1

    def test_peak_size_tracked(self):
        queue, _ = make_queue()
        for v in range(10):
            queue.insert(float(v), None)
        for _ in range(10):
            queue.pop()
        assert queue.stats.peak_size == 10
        assert len(queue) == 0 and not queue


class TestBoundarySemantics:
    """The heap/segment boundary is half-open and checked exactly."""

    def test_split_keeps_tie_block_together(self):
        # 9 inserts into an 8-entry heap, all the same key: a naive
        # median split would leave equal keys on both sides of the new
        # memory bound; the half-open rule moves the whole block out.
        queue, _ = make_queue(entries=8)
        for _ in range(9):
            queue.insert(7.0, None)
        assert queue.stats.splits == 1
        assert queue.in_memory_size == 0
        assert queue.check_invariant()
        assert [queue.pop()[0] for _ in range(9)] == [7.0] * 9

    def test_split_ties_never_straddle(self):
        queue, _ = make_queue(entries=8)
        for v in [1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0, 4.0, 5.0]:
            queue.insert(v, None)
        assert queue.stats.splits == 1
        assert queue.check_invariant()
        # Everything >= the boundary key moved out together.
        assert queue.in_memory_size == 2
        out = [queue.pop()[0] for _ in range(9)]
        assert out == sorted([1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0, 4.0, 5.0])

    def test_invariant_is_exact_not_approximate(self):
        # Keys a hair apart must be separated exactly; an isclose-style
        # check would wave a straddling key through.
        queue, _ = make_queue(entries=4)
        base = 10.0
        nudged = math.nextafter(base, math.inf)
        for v in [base, base, nudged, nudged, base]:
            queue.insert(v, None)
        assert queue.check_invariant()
        assert [queue.pop()[0] for _ in range(5)] == sorted(
            [base, base, nudged, nudged, base]
        )

    def test_formula_routing_at_exact_boundaries(self):
        # Distances landing exactly on sqrt(i * n * rho) must go to the
        # segment whose half-open range starts there, for the same
        # boundary values swap-in later uses as the new memory bound.
        queue, _ = make_queue(entries=16, rho=0.25)
        boundaries = [math.sqrt(i * 16 * 0.25) for i in range(1, 6)]
        for b in boundaries:
            queue.insert(b, None)
            assert queue.check_invariant()
        out = [queue.pop()[0] for _ in range(len(boundaries))]
        assert out == sorted(boundaries)


class TestCloseAndContextManager:
    def test_close_empties_queue(self):
        queue, _ = make_queue(entries=8)
        for v in range(40):
            queue.insert(float(v), None)
        queue.close()
        assert len(queue) == 0 and not queue
        assert queue.segment_count == 0
        with pytest.raises(IndexError):
            queue.pop()

    def test_close_idempotent_and_reusable(self):
        queue, _ = make_queue(entries=8)
        queue.insert(1.0, "a")
        queue.close()
        queue.close()
        queue.insert(2.0, "b")
        assert queue.pop() == (2.0, "b")

    def test_context_manager_closes(self):
        with make_queue(entries=8)[0] as queue:
            for v in range(40):
                queue.insert(float(v), None)
        assert len(queue) == 0


class TestRhoBoundaries:
    def test_far_inserts_spill_immediately(self):
        # boundary b1 = sqrt(32 * 1.0) ~ 5.66: distances beyond go to disk
        queue, _ = make_queue(entries=32, rho=1.0)
        queue.insert(100.0, None)
        assert queue.in_memory_size == 0
        assert queue.segment_count == 1
        queue.insert(1.0, None)
        assert queue.in_memory_size == 1

    def test_rho_mode_sorted_output(self):
        queue, _ = make_queue(entries=16, rho=0.5)
        values = [random.Random(7).uniform(0, 500) for _ in range(300)]
        for v in values:
            queue.insert(v, None)
        assert [queue.pop()[0] for _ in range(300)] == sorted(values)

    def test_huge_distances_go_to_tail_segment(self):
        queue, _ = make_queue(entries=8, rho=0.001)
        queue.insert(1e9, "far")
        queue.insert(2e9, "farther")
        assert queue.segment_count == 1  # both in the open-ended tail
        assert queue.pop() == (1e9, "far")


class TestCostAccounting:
    def test_spills_charge_io(self):
        queue, disk = make_queue(entries=8)
        for v in range(500):
            queue.insert(float(v), None)
        assert disk.stats.sequential_write_pages > 0

    def test_swap_ins_charge_reads(self):
        queue, disk = make_queue(entries=8)
        for v in range(100):
            queue.insert(float(v), None)
        before = disk.stats.sequential_read_pages
        for _ in range(100):
            queue.pop()
        assert disk.stats.sequential_read_pages > before

    def test_every_operation_charges_cpu(self):
        queue, disk = make_queue()
        queue.insert(1.0, None)
        queue.pop()
        assert disk.cpu_time > 0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.floats(min_value=0, max_value=1000, allow_nan=False)),
        max_size=400,
    ),
    st.sampled_from([None, 0.05, 2.0, 100.0]),
)
def test_interleaved_matches_reference_heap(ops, rho):
    queue, _ = make_queue(entries=8, rho=rho)
    model: list[float] = []
    for is_push, value in ops:
        if is_push or not model:
            queue.insert(value, None)
            heapq.heappush(model, value)
        else:
            assert queue.pop()[0] == heapq.heappop(model)
    assert len(queue) == len(model)
    while model:
        assert queue.pop()[0] == heapq.heappop(model)


class TaggedSource:
    """Payload source whose payload for index ``i`` is ``(tag, i)``."""

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.built = 0

    def payloads(self, index):
        self.built += len(index)
        return [(self.tag, i) for i in index]


class TestCheckInvariant:
    def test_block_keys_are_checked(self):
        queue, _ = make_queue(entries=16, rho=0.25)
        queue.push_many([50.0, 60.0, 70.0], TaggedSource(0))
        assert queue.in_memory_size == 0
        assert queue.check_invariant()
        # A block key below the memory bound breaks the invariant.
        queue._mem_bound = 55.0
        assert not queue.check_invariant()


class TestLazyPayloads:
    def test_spilled_entries_build_no_payload_until_swap_in(self):
        queue, _ = make_queue(entries=16, rho=0.25)
        source = TaggedSource(7)
        keys = [3.0 + (i * 37 % 120) / 10 for i in range(120)]
        queue.push_many(keys, source)
        assert queue.stats.spilled_entries == 120
        assert source.built == 0
        first = queue.pop()
        # The swap-in built exactly the payloads it kept in the heap.
        assert source.built == queue.in_memory_size + 1
        assert source.built <= queue.capacity
        assert first == (min(keys), (7, keys.index(min(keys))))
        rest = [queue.pop() for _ in range(len(queue))]
        assert [d for d, _ in [first, *rest]] == sorted(keys)
        assert sorted(p for _, p in [first, *rest]) == [(7, i) for i in range(120)]

    def test_overflowing_swap_in_builds_only_the_kept_entries(self):
        # One formula segment, [4.9, 5.29), twice over with exact ties.
        keys = [5.0 + (i * 37 % 100) / 1000 for i in range(100)] * 2
        states = []
        for columnar in (True, False):
            queue, _ = make_queue(entries=16, rho=0.25)
            source = TaggedSource(3)
            if columnar:
                queue.push_many(keys, source)
            else:
                queue.push_many([(key, (3, i)) for i, key in enumerate(keys)])
            assert queue.pop()[0] == 5.0
            assert queue.stats.swap_ins == 1
            assert queue.check_invariant()
            if columnar:
                assert source.built == queue.capacity
            states.append(queue.snapshot())
        assert logical(states[0]) == logical(states[1])

    def test_repeated_overflow_swap_ins_of_one_pile_stay_flat(self):
        # Without rho, everything past the first split bound piles up in
        # one open-ended segment; an 8-entry heap drains it through more
        # than a thousand overflowing swap-ins of that one pile.
        rng = random.Random(5)
        keys = [i / 1000 for i in range(9)]  # the ninth insert splits
        keys += [1 + rng.random() for _ in range(12_000)]
        queues = {}
        for columnar in (True, False):
            queue, _ = make_queue(entries=8)
            for start in range(0, len(keys), 50):
                batch = keys[start : start + 50]
                if columnar:
                    queue.push_many(batch, TaggedSource(start))
                else:
                    queue.push_many(
                        [(key, (start, i)) for i, key in enumerate(batch)]
                    )
            queues[columnar] = queue
        columnar, pairs = queues[True], queues[False]
        assert columnar.segment_count == 1
        swap_ins = 0
        while pairs:
            assert columnar.pop() == pairs.pop()
            if columnar.stats.swap_ins == swap_ins:
                continue
            swap_ins = columnar.stats.swap_ins
            # A swap-in's remainder holds exactly the live spilled
            # entries, each naming its original source directly (or
            # none: split-outs carry built payloads).
            chunks = [c for s in columnar._all_segments() for c in s.chunks]
            assert sum(map(len, chunks)) == len(columnar) - columnar.in_memory_size
            for chunk in chunks:
                if type(chunk) is _Remainder:
                    kinds = {type(source) for source in chunk.sources}
                    assert kinds <= {TaggedSource, type(None)}
        assert not columnar
        assert columnar.stats == pairs.stats
        assert columnar.stats.swap_ins > 1_000

    def test_snapshot_and_restore_copy_the_piles(self):
        # Appends to a pile's trailing block or tuple chunk, in the live
        # queue or in one restored from a snapshot, must not reach the
        # snapshot.
        queue, _ = make_queue(entries=16, rho=0.25)
        source = TaggedSource(2)
        queue.insert(55.0, "tuple")
        queue.push_many([50.0, 60.0], source)
        states = [queue.snapshot()]
        captured = [logical(states[0])]
        queue.push_many([52.0, 62.0], source, [5, 6])  # the trailing block
        queue.insert(57.0, "later")
        states.append(queue.snapshot())
        captured.append(logical(states[1]))
        queue.insert(58.0, "last")  # the trailing tuple chunk
        for state in states:
            restored, _ = make_queue(entries=16, rho=0.25)
            restored.restore(state)
            restored.push_many([53.0], source, [7])
            restored.insert(59.0, "restored")
            restored.insert(61.0, "restored")
        assert [logical(state) for state in states] == captured
        assert [queue.pop()[0] for _ in range(len(queue))] == [
            50.0, 52.0, 55.0, 57.0, 58.0, 60.0, 62.0
        ]

    def test_in_bound_entries_build_at_insert(self):
        queue, _ = make_queue(entries=16, rho=0.25)
        source = TaggedSource(1)
        queue.push_many([0.5, 90.0, 0.25], source, [4, 5, 6])
        assert source.built == 2
        assert queue.pop() == (0.25, (1, 6))
        assert queue.pop() == (0.5, (1, 4))


def _queue_events(sink: CollectSink) -> list[tuple]:
    return [
        (record["name"], sorted(record["args"].items()))
        for record in sink.records
        if record["name"].startswith("queue_")
    ]


_keys = st.one_of(
    # Small integers make exact distance ties common.
    st.integers(min_value=0, max_value=12).map(float),
    st.floats(min_value=0, max_value=200, allow_nan=False),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.lists(_keys, max_size=40), st.booleans()),
        st.tuples(st.just("pop"), st.integers(min_value=1, max_value=30)),
        st.tuples(st.just("snapshot")),
    ),
    max_size=40,
)


@settings(max_examples=120, deadline=None)
@given(
    ops=_ops,
    entries=st.sampled_from([8, 16, 64]),
    rho=st.sampled_from([None, 0.5, 20.0]),
    spill=st.booleans(),
    traced=st.booleans(),
)
def test_bulk_inserts_match_per_entry_inserts(ops, entries, rho, spill, traced):
    """Bulk inserts with a payload source equal bulk inserts of pairs
    and the per-entry loop.

    Against pairs everything is identical: the pop sequence
    (distances and payloads), ``QueueStats``, disk counters, the
    simulated clock bit for bit, the ``queue_*`` trace events and every
    snapshot — through exact ties, splits, swap-ins, batches that take
    the per-entry split path, real spill files and snapshot/restore.

    Against ``n`` single inserts the counters and events are identical
    too.  The clock may differ in the last bits: a bulk insert charges
    its queue operations as one ``n * cpu_queue_op``.  The pop sequence
    is identical while no split has run; after one, only the order
    within a block of equal distances may differ (see
    :func:`test_split_tie_order_depends_on_heap_layout`).
    """
    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for mode in ("insert", "columnar", "pairs"):
            disk = SimulatedDisk()
            sink = CollectSink()
            queue = MainQueue(
                disk, memory_bytes=48 * entries, rho=rho,
                spill_dir=Path(tmp) / mode if spill else None,
            )
            if traced:
                queue.set_observer(Tracer([sink]), None)
            runs[mode] = (queue, disk, sink, [], [])
        splits = 0
        for tag, op in enumerate(ops):
            if op[0] == "push":
                keys, subset = op[1], op[2]
                # A subset of child indices, as HS-KDJ hands over.
                index = [3 * j + 1 for j in range(len(keys))] if subset else None
                ids = index if subset else range(len(keys))
                for mode, (queue, *_) in runs.items():
                    if mode == "insert":
                        for key, i in zip(keys, ids):
                            queue.insert(key, (tag, i))
                    elif mode == "columnar":
                        queue.push_many(keys, TaggedSource(tag), index)
                    else:
                        queue.push_many([(key, (tag, i)) for key, i in zip(keys, ids)])
                    assert queue.check_invariant()
            elif op[0] == "pop":
                for queue, _, _, popped, _ in runs.values():
                    for _ in range(min(op[1], len(queue))):
                        popped.append(queue.pop())
                    assert queue.check_invariant()
            else:
                # restore() starts the counters afresh.
                splits += runs["insert"][0].stats.splits
                for queue, _, _, _, snaps in runs.values():
                    state = queue.snapshot()
                    snaps.append(state)
                    queue.restore(state)
        for queue, _, _, popped, _ in runs.values():
            while queue:
                popped.append(queue.pop())
        splits += runs["insert"][0].stats.splits
        bulk, columnar = runs["pairs"], runs["columnar"]
        assert columnar[3] == bulk[3]
        assert list(map(logical, columnar[4])) == list(map(logical, bulk[4]))
        assert columnar[0].stats == bulk[0].stats
        assert repr(columnar[1].clock) == repr(bulk[1].clock)
        assert columnar[1].stats == bulk[1].stats
        assert _queue_events(columnar[2]) == _queue_events(bulk[2])
        queue, disk, sink, popped, snaps = runs["insert"]
        assert [d for d, _ in columnar[3]] == [d for d, _ in popped]
        assert sorted(columnar[3]) == sorted(popped)
        if not splits:
            assert columnar[3] == popped
            assert [
                {**logical(state), "heap": sorted(state["heap"])}
                for state in columnar[4]
            ] == [{**logical(state), "heap": sorted(state["heap"])} for state in snaps]
        assert columnar[0].stats == queue.stats
        assert columnar[1].stats == disk.stats
        assert math.isclose(columnar[1].clock, disk.clock, rel_tol=1e-12)
        assert _queue_events(columnar[2]) == _queue_events(sink)
        for queue, *_ in runs.values():
            queue.close()
        assert list(Path(tmp).rglob("*.pile")) == []


@pytest.mark.xfail(strict=True, reason=(
    "known defect: a split stable-sorts the heap array by distance, so "
    "the pop order of a tie block it keeps follows the array layout, "
    "which a bulk insert's heapify builds differently"
))
def test_split_tie_order_depends_on_heap_layout():
    runs = []
    for bulk in (True, False):
        queue, _ = make_queue(entries=4)
        pairs = [(1.0, 0), (2.0, 1), (1.0, 2), (0.0, 3)]
        if bulk:
            queue.push_many(pairs)
        else:
            for distance, payload in pairs:
                queue.insert(distance, payload)
        queue.insert(0.0, 4)  # overflows the heap: a split
        assert queue.stats.splits == 1
        runs.append([queue.pop() for _ in range(len(queue))])
    # Per entry, the newest of the tied 1.0 entries pops first.
    assert runs[1][2:4] == [(1.0, 2), (1.0, 0)]
    assert runs[0] == runs[1]
