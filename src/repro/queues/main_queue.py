"""Hybrid memory/disk main queue (paper Section 4.4).

The main queue holds candidate pairs ordered by minimum distance.  It can
grow to ``O(|R_obj| x |S_obj|)`` entries in the worst case, so it cannot
be assumed to fit in memory.  Following the paper, the queue is
partitioned by distance range:

- the shortest range lives in memory as a binary min-heap;
- longer ranges live on (simulated) disk as *unsorted piles* ("segments");
- when the density parameter ``rho`` of Equation (3) is known, segment
  boundaries are pre-placed at ``sqrt(i * n * rho)`` for heap capacity
  ``n`` — under the uniform model each of the first segments then holds
  about one heap-load of result pairs, so splits are rare and a swap-in
  refills the heap exactly once per ``n`` results;
- if the in-memory heap still overflows it is **split**: the longer-
  distance half is written out as a new segment in front of the existing
  ones;
- when the heap empties while segments remain, the nearest segment is
  **swapped in**; if it is larger than the heap capacity, only the ``n``
  smallest entries stay in memory and the rest is written back.

The boundary table is capped (``MAX_FORMULA_SEGMENTS``); everything past
the last boundary lands in one open-ended tail pile, which models the
fact that only the first few ranges are ever consumed by a top-k query.
Without ``rho`` (pass ``None``) the queue degenerates to the pure
split-on-overflow scheme of earlier work; the difference is measured in
the ablation benchmark.

Boundary semantics are half-open everywhere: the heap owns distances in
``[0, mem_bound)`` and the segments own ``[mem_bound, inf)``.  A split
therefore never lets equal keys straddle the boundary — the whole block
of keys equal to the split point moves to disk together.  Invariant
maintained throughout: ``max(heap) <= mem_bound <= every segment key``,
so the global minimum is always the heap minimum, checkable exactly
(:meth:`MainQueue.check_invariant` does no tolerance-based comparison).

Spill piles are columnar.  A pile is an ordered list of chunks: a list
of ``(distance, payload)`` tuples (single inserts, pairs passed to
:meth:`MainQueue.push_many`, split-outs) or a :class:`_Block` — an
``array('d')`` of distances, an ``array('i')`` of indices and one
*payload source* (any plain, picklable object whose ``payloads(indices)``
returns the payloads of those indices, in order).  ``push_many`` given
distances and a source stores its spilled entries as blocks, so a
candidate that never comes back from disk never gets a payload object.
Invariant: **payloads are built only at heap entry** — for an in-bound
entry at insert, for the ``capacity`` smallest entries of a swap-in
(the remainder goes back sorted, as a third chunk kind: a
:class:`_Remainder` that names each entry's payload source and index
directly, so repeated swap-ins of one pile never nest), and for a page
flushed to a real spill file.  Chunk order is insertion order, so
stable-sort tie order and the fresh heap seqs are the same as if every
entry had been a tuple.

A queue abandoned mid-drain in real-spill mode would leak its segment
files; :meth:`MainQueue.close` (also reachable via the context-manager
protocol) unlinks every live spill file, and the join engines call it
from their teardown.

Spill I/O is hardened against the two failure shapes a real disk
produces:

- **writes** — every batch is framed as a fixed header (blob length,
  entry count, CRC-32 of the blob) followed by the pickled entry list;
  a failed append (ENOSPC, permissions, an injected fault) rolls the
  file back to the last good batch, flips the queue into memory-
  retention mode (the batch — and all later spills — stay in the
  staging buffers), and counts a ``spill_write_failures`` stat.  The
  join completes with identical results, just without the memory bound;
- **reads** — a checksum mismatch, unreadable framing, or an
  entry-count mismatch (truncation) raises the typed
  :class:`~repro.resilience.errors.SpillCorruptionError`.  The data is
  gone, so the queue cannot recover — but the raising path leaves every
  live file registered, and the engines' ``finally`` teardown calls
  :meth:`MainQueue.close`, so even an aborted join leaves ``spill_dir``
  empty.
"""

from __future__ import annotations

import heapq
import math
import os
import pickle
import struct
import uuid
import zlib
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Any

from repro.obs.tracer import NULL_TRACER
from repro.resilience.errors import SpillCorruptionError
from repro.storage.disk import SimulatedDisk

#: Modeled size of one queue entry on disk: distance (8 bytes), two node
#: references (8 + 8), level/flags and bookkeeping (24).  Matches the
#: magnitude a C implementation of the paper would use.
DEFAULT_ENTRY_BYTES = 48

#: Size of the pre-placed boundary table in rho mode.
MAX_FORMULA_SEGMENTS = 64

#: Spill batch header: blob length, entry count, CRC-32 of the blob.
_FRAME = struct.Struct("<QII")


@dataclass(slots=True)
class QueueStats:
    """Operation counters for one main queue."""

    insertions: int = 0
    pops: int = 0
    splits: int = 0
    swap_ins: int = 0
    spilled_entries: int = 0
    peak_size: int = 0
    spill_write_failures: int = 0


class _Block:
    """A columnar run of spilled entries whose payloads are not built yet.

    Entry ``j`` has distance ``keys[j]`` and the payload
    ``source.payloads([index[j]])[0]``.
    """

    __slots__ = ("keys", "index", "source")

    def __init__(self, source, keys: array | None = None, index: array | None = None):
        self.keys = array("d") if keys is None else keys
        self.index = array("i") if index is None else index
        self.source = source

    def __len__(self) -> int:
        return len(self.keys)

    def entries(self) -> list[tuple[float, Any]]:
        """The block's ``(distance, payload)`` pairs, payloads built."""
        return list(zip(self.keys, self.source.payloads(self.index)))

    def copy(self) -> "_Block":
        return _Block(self.source, array("d", self.keys), array("i", self.index))


def _materialize(chunks: list) -> list[tuple[float, Any]]:
    """Every entry of ``chunks`` in order as ``(distance, payload)``."""
    entries: list[tuple[float, Any]] = []
    for chunk in chunks:
        entries.extend(chunk if type(chunk) is list else chunk.entries())
    return entries


def _build(sources: list, refs: list) -> list[Any]:
    """Payloads of gathered entries: ``refs[j]`` itself when
    ``sources[j]`` is ``None``, else ``sources[j]``'s payload of index
    ``refs[j]``."""
    return [
        ref if source is None else source.payloads((ref,))[0]
        for source, ref in zip(sources, refs)
    ]


class _Remainder:
    """The sorted remainder of an overflowing swap-in, payloads unbuilt.

    Entry ``j`` has distance ``keys[j]``; ``sources[j]`` and ``refs[j]``
    name its payload as :func:`_build` reads them — a payload built
    before the swap-in (source ``None``), or an index into a block's
    payload source.  The next overflowing swap-in of the pile gathers
    this remainder's entries one by one, like any other chunk's, so a
    remainder never points at an earlier one and holds only live
    entries.
    """

    __slots__ = ("keys", "sources", "refs")

    def __init__(self, keys: array, sources: list, refs: list) -> None:
        self.keys = keys
        self.sources = sources
        self.refs = refs

    def __len__(self) -> int:
        return len(self.keys)

    def entries(self) -> list[tuple[float, Any]]:
        """The remainder's ``(distance, payload)`` pairs, payloads built."""
        return list(zip(self.keys, _build(self.sources, self.refs)))

    def copy(self) -> "_Remainder":
        return _Remainder(array("d", self.keys), list(self.sources), list(self.refs))


def _copy_chunks(chunks: list) -> list:
    """A copy of ``chunks`` that later appends to either side never
    reach (payloads and payload sources are shared, not copied)."""
    return [list(chunk) if type(chunk) is list else chunk.copy() for chunk in chunks]


def _frames(data: bytes) -> tuple[list[tuple[int, int, bytes]], str | None]:
    """Split spill-file bytes into ``(count, crc32, blob)`` batches.

    Returns the batches framed before the first framing fault and that
    fault's description (``None`` when the framing is sound).  Neither
    checksums nor blobs are checked here.
    """
    batches: list[tuple[int, int, bytes]] = []
    pos, end = 0, len(data)
    while pos < end:
        if end - pos < _FRAME.size:
            return batches, "truncated batch header"
        length, count, checksum = _FRAME.unpack_from(data, pos)
        pos += _FRAME.size
        if length > end - pos:
            return batches, "truncated batch"
        batches.append((count, checksum, data[pos : pos + length]))
        pos += length
    return batches, None


def _gather(chunks: list) -> tuple[list[float], list, list]:
    """Every entry of ``chunks`` in order as parallel key, source and
    ref lists (see :func:`_build`), no payload built."""
    keys: list[float] = []
    sources: list = []
    refs: list = []
    for chunk in chunks:
        if type(chunk) is list:
            keys.extend(map(itemgetter(0), chunk))
            sources.extend(repeat(None, len(chunk)))
            refs.extend(map(itemgetter(1), chunk))
        elif type(chunk) is _Block:
            keys.extend(chunk.keys)
            sources.extend(repeat(chunk.source, len(chunk)))
            refs.extend(chunk.index)
        else:
            keys.extend(chunk.keys)
            sources.extend(chunk.sources)
            refs.extend(chunk.refs)
    return keys, sources, refs


@dataclass(slots=True)
class _Segment:
    """An unsorted on-disk pile covering distances ``[lo, hi)``.

    In simulated mode all entries stay in ``chunks`` (insertion order;
    see the module docstring for the chunk kinds).  In real-spill mode
    ``chunks`` is only a staging buffer: cold batches are written to
    ``path`` (see :meth:`MainQueue._write_segment`) and ``spilled``
    counts what lives in the file.
    """

    lo: float
    hi: float
    chunks: list = field(default_factory=list)
    #: Entries held in ``chunks``.
    held: int = 0
    path: Path | None = None
    spilled: int = 0
    staged_since_flush: int = 0

    def total(self) -> int:
        return self.held + self.spilled

    def tuples(self) -> list[tuple[float, Any]]:
        """The trailing tuple chunk, started if the pile ends in a block."""
        chunks = self.chunks
        if not chunks or type(chunks[-1]) is not list:
            chunks.append([])
        return chunks[-1]

    def block(self, source) -> _Block:
        """The trailing block of ``source``, started if there is none."""
        chunks = self.chunks
        if chunks:
            last = chunks[-1]
            if type(last) is _Block and last.source is source:
                return last
        block = _Block(source)
        chunks.append(block)
        return block

    def entries(self) -> list[tuple[float, Any]]:
        """Held entries in insertion order, payloads built (non-destructive)."""
        return _materialize(self.chunks)

    def take(self) -> list[tuple[float, Any]]:
        """Remove and return the held entries, payloads built."""
        entries = self.entries()
        self.restage([])
        return entries

    def restage(self, entries: list[tuple[float, Any]]) -> None:
        """Replace the held entries with ``entries``."""
        self.chunks = [entries] if entries else []
        self.held = len(entries)


class MainQueue:
    """Min-priority queue of ``(distance, payload)`` with bounded memory.

    Parameters
    ----------
    disk:
        Simulated disk charged for spills, swap-ins and CPU heap work.
    memory_bytes:
        Size of the in-memory portion (the paper default is 512 KB).
    rho:
        Density parameter of Equation (3), ``area(R n S) / (pi |R| |S|)``;
        used to pre-place segment boundaries.  ``None`` disables
        model-based boundaries.
    entry_bytes:
        Modeled on-disk size of one entry.
    spill_dir:
        When given, disk segments are *actually* written to pickle files
        under this directory (keeping Python memory bounded by the heap
        capacity plus one staging page per segment) instead of merely
        being charged to the simulated clock.  Files are removed as
        segments are consumed.
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan` whose
        ``spill_write`` / ``spill_read`` sites inject I/O failures into
        the real-spill paths (test harness and ``--inject-faults``).
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        memory_bytes: int,
        rho: float | None = None,
        entry_bytes: int = DEFAULT_ENTRY_BYTES,
        spill_dir: str | Path | None = None,
        faults=None,
    ) -> None:
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if entry_bytes <= 0:
            raise ValueError("entry_bytes must be positive")
        if rho is not None and rho <= 0:
            raise ValueError("rho must be positive when given")
        self._disk = disk
        self._entry_bytes = entry_bytes
        self._capacity = max(memory_bytes // entry_bytes, 4)
        self._rho = rho
        # In-memory heap: (distance, seq, payload) triples under
        # :mod:`heapq`.  The unique ``seq`` breaks distance ties so a
        # comparison never reaches the (unorderable) payload.  It counts
        # *down*: among equal distances the most recent insertion pops
        # first, which keeps a traversal descending through a tie block
        # (e.g. overlapping node pairs at distance 0) instead of
        # expanding its whole frontier breadth-first — small-k joins are
        # orders of magnitude faster under the recency order.  Segments
        # keep the plain ``(distance, payload)`` pairs — the spill format
        # is unchanged; seqs are minted fresh whenever entries re-enter
        # the heap.
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = 0
        # Bulk-pop drain state (see pop_heads): triples mechanically
        # removed from the heap but not yet accounted as popped.  While
        # a drain is active ``_pending_min`` tracks the smallest
        # heap-routed insert since the drain began — the batch-abort
        # comparison that keeps bulk pops byte-identical to single pops.
        self._pending: list[tuple[float, int, Any]] | None = None
        self._pending_pos = 0
        self._pending_min = math.inf
        # Last segment an insert routed to: consecutive spilled inserts
        # cluster by distance, so most lookups hit this one-entry memo.
        # Cleared by anything that drops or re-ranges a segment.
        self._last_segment: _Segment | None = None
        # Split segments: carved out of the memory range, always strictly
        # below every live formula segment; kept sorted ascending by lo.
        self._split_segments: list[_Segment] = []
        # Formula segments: index i covers [b_i, b_{i+1}), boundaries
        # b_i = sqrt(i * n * rho); the last index is open-ended.
        self._formula_segments: dict[int, _Segment] = {}
        self._mem_bound = self._boundary(1)
        self.stats = QueueStats()
        self._size = 0
        # Observability hooks (see repro.obs): the no-op tracer makes
        # the per-event guards one attribute check; the depth histogram
        # is sampled on every insert/pop only when a registry is set.
        self.tracer = NULL_TRACER
        self._depth_hist = None
        self._faults = faults
        # Set on the first failed spill write: the queue then retains
        # everything in memory instead of retrying a disk that already
        # failed once (ENOSPC rarely clears mid-run).
        self._spill_broken = False
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._created_spill_dir = False
        if self._spill_dir is not None:
            self._created_spill_dir = not self._spill_dir.exists()
            self._spill_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Entries the in-memory heap can hold."""
        return self._capacity

    def set_observer(self, tracer, metrics) -> None:
        """Attach the run's tracer and metrics registry (both optional).

        Called by ``JoinContext`` right after construction; the queue
        then emits ``queue_split``/``queue_spill``/``queue_swap_in``
        point events and samples its depth into the ``queue_depth``
        histogram on every insert and pop.
        """
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._depth_hist = (
            metrics.histogram("queue_depth") if metrics is not None else None
        )

    def close(self) -> None:
        """Release on-disk resources: unlink every live spill file.

        Safe to call at any time (including mid-drain) and idempotent.
        The queue is logically empty afterwards; entries still queued are
        discarded.  Engines call this from their teardown so an abandoned
        queue — e.g. a k-distance join that stopped after k results with
        candidates still spilled — leaves nothing behind in ``spill_dir``.
        """
        for segment in self._all_segments():
            if segment.path is not None:
                segment.path.unlink(missing_ok=True)
                segment.path = None
            segment.spilled = 0
            segment.restage([])
        self._split_segments = []
        self._formula_segments = {}
        self._last_segment = None
        self._heap = []
        self._size = 0
        self._pending = None
        # A spill directory this queue itself created is temporary state:
        # remove it once empty.  A pre-existing (user-supplied) directory
        # is never touched.  ENOTEMPTY and friends are not errors — the
        # directory may be shared with another queue or hold user files.
        if self._created_spill_dir and self._spill_dir is not None:
            try:
                self._spill_dir.rmdir()
            except OSError:
                pass
            else:
                self._created_spill_dir = False

    def __enter__(self) -> "MainQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def insert(self, distance: float, payload: Any, source: Any = None) -> None:
        """Insert a candidate pair keyed by its minimum distance.

        With a payload ``source`` (see :meth:`push_many`), ``payload`` is
        the entry's index into it, and the payload is built only if the
        entry enters the in-memory heap.
        """
        self.stats.insertions += 1
        self._size += 1
        self._disk.charge_cpu(self._disk.cost_model.cpu_queue_op)
        if distance < self._mem_bound:
            if source is not None:
                payload = source.payloads((payload,))[0]
            self._seq -= 1
            heapq.heappush(self._heap, (distance, self._seq, payload))
            if self._pending is not None:
                if distance < self._pending_min:
                    self._pending_min = distance
                # The overflow check must count drained-but-unconsumed
                # heads: they are logically still in the heap, and a
                # split taken without them would pick a different median
                # than the unbatched run.  Restoring them first makes
                # the heap exactly the unbatched state (the engine sees
                # ``peek_head() is None`` and ends its batch).
                if (
                    len(self._heap) + len(self._pending) - self._pending_pos
                    > self._capacity
                ):
                    self.flush_heads()
                    if len(self._heap) > self._capacity:
                        self._split()
            elif len(self._heap) > self._capacity:
                self._split()
        else:
            segment = self._segment_for(distance)
            if source is None:
                segment.tuples().append((distance, payload))
            else:
                block = segment.block(source)
                block.keys.append(distance)
                block.index.append(payload)
            segment.held += 1
            segment.staged_since_flush += 1
            self.stats.spilled_entries += 1
            if segment.staged_since_flush >= self._entries_per_page():
                self._flush_page(segment)
        if self._size > self.stats.peak_size:
            self.stats.peak_size = self._size
        if self._depth_hist is not None:
            self._depth_hist.observe(self._size)

    def pop(self) -> tuple[float, Any]:
        """Remove and return the globally smallest ``(distance, payload)``."""
        if self._pending is not None:
            self.flush_heads()
        while not self._heap:
            self._swap_in()
        self.stats.pops += 1
        self._size -= 1
        self._disk.charge_cpu(self._disk.cost_model.cpu_queue_op)
        if self._depth_hist is not None:
            self._depth_hist.observe(self._size)
        distance, _, payload = heapq.heappop(self._heap)
        return distance, payload

    def peek_key(self) -> float:
        """Smallest distance currently queued (swapping in if needed)."""
        if self._pending is not None:
            self.flush_heads()
        while not self._heap:
            self._swap_in()
        return self._heap[0][0]

    # ------------------------------------------------------------------
    # Bulk operations (flat hot path)
    # ------------------------------------------------------------------
    #
    # ``pop_heads`` mechanically drains up to ``limit`` in-memory heap
    # heads with *no* accounting: ``__len__`` and the pop counters stay
    # logical, so to every observer the entries are still queued.  The
    # engine then walks the drained run head by head — ``peek_head`` to
    # inspect, ``consume_head`` to take it (this is where the pop is
    # accounted, identically to :meth:`pop`), ``flush_heads`` to put the
    # unconsumed tail back verbatim (original seq triples, so pop order
    # is untouched).  Exactness argument: the drain stops at the
    # in-memory heap boundary (never forces a swap-in), and
    # ``peek_head`` refuses to hand out a head once a smaller-or-equal
    # distance has been inserted into the heap region during the drain —
    # ties included, because newer insertions carry lower seqs and would
    # pop *first* in the unbatched run.

    def pop_heads(self, limit: int) -> int:
        """Drain up to ``limit`` heap heads into the pending run.

        Returns the number drained (0 when batching is not worthwhile:
        an empty or single-entry heap, or a drain already active).
        Never swaps in — entries beyond the in-memory heap are left for
        the normal single-pop path.
        """
        heap = self._heap
        n = min(limit, len(heap))
        if n <= 1 or self._pending is not None:
            return 0
        self._pending = [heapq.heappop(heap) for _ in range(n)]
        self._pending_pos = 0
        self._pending_min = math.inf
        return n

    def peek_head(self) -> tuple[float, Any] | None:
        """Next pending head, or ``None`` when the batch must end.

        ``None`` means either the run is exhausted, or it was implicitly
        flushed (an insert during the drain overflowed the heap), or a
        child inserted during the drain would pop before this head in
        the unbatched order — in every case the caller falls back to the
        outer single-pop loop, which observes the exact unbatched state.
        """
        pending = self._pending
        if pending is None:
            return None
        entry = pending[self._pending_pos]
        if self._pending_min <= entry[0]:
            self.flush_heads()
            return None
        return entry[0], entry[2]

    def consume_head(self) -> tuple[float, Any]:
        """Take the current pending head, accounting it exactly as a pop."""
        pending = self._pending
        entry = pending[self._pending_pos]
        self._pending_pos += 1
        if self._pending_pos == len(pending):
            self._pending = None
        self.stats.pops += 1
        self._size -= 1
        self._disk.charge_cpu(self._disk.cost_model.cpu_queue_op)
        if self._depth_hist is not None:
            self._depth_hist.observe(self._size)
        return entry[0], entry[2]

    def flush_heads(self) -> None:
        """Restore every unconsumed pending head verbatim; idempotent.

        No accounting: the entries were never logically popped, so this
        is invisible to every counter and to pop order (the original
        ``(distance, seq, payload)`` triples re-enter the heap).
        """
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        heap = self._heap
        for i in range(self._pending_pos, len(pending)):
            heapq.heappush(heap, pending[i])

    def push_many(self, items, source: Any = None, index=None) -> None:
        """Bulk insert, equivalent to :meth:`insert` per entry.

        Without a payload ``source``, ``items`` are ``(distance,
        payload)`` pairs.  With one, ``items`` are bare distances: entry
        ``j``'s payload is ``source.payloads([index[j]])[0]`` (``index``
        defaults to ``range(len(items))``), built only if the entry
        enters the in-memory heap — spilled ones join their pile as a
        columnar block.  ``source`` must be plain picklable data.

        Counters, depth samples, trace events and (crucially) seq
        assignment match the per-entry loop; the queue operations are
        charged as one ``n * cpu_queue_op``, and the heap's array layout
        can differ (which a later split's tie order sees — a known
        defect, see ``docs/internals.md``).  As long as the batch
        cannot overflow the heap — so no split can run mid-batch and the
        memory bound stays fixed — the whole batch is processed in one
        hoisted loop: in-bound entries collapse into one extend + sift
        pass (``heapify``) for large batches, out-of-bound entries
        stream into their spill piles with the per-page flush cadence of
        the sequential path.  A batch that could trigger a split falls
        back to the exact per-entry path.
        """
        if source is None and not isinstance(items, list):
            items = list(items)
        n = len(items)
        if n == 0:
            return
        heap = self._heap
        pending_n = (
            0 if self._pending is None else len(self._pending) - self._pending_pos
        )
        if n == 1 or len(heap) + pending_n + n > self._capacity:
            if source is None:
                for distance, payload in items:
                    self.insert(distance, payload)
            else:
                for j, distance in enumerate(items):
                    self.insert(distance, j if index is None else index[j], source)
            return
        stats = self.stats
        disk = self._disk
        stats.insertions += n
        disk.charge_cpu(disk.cost_model.cpu_queue_op * n)
        columnar = source is not None
        keys = items if columnar else map(itemgetter(0), items)
        if columnar and index is None:
            index = range(n)
        bound = self._mem_bound
        seq = self._seq
        low = math.inf
        # In-bound entries: heap triples, or — columnar — positions whose
        # payloads are built in one call after the loop.
        in_bound: list = []
        entries_per_page = self._entries_per_page()
        segment = append = append_index = None
        lo = hi = math.inf
        for j, distance in enumerate(keys):
            if distance < bound:
                if columnar:
                    in_bound.append(j)
                else:
                    seq -= 1
                    in_bound.append((distance, seq, items[j][1]))
                if distance < low:
                    low = distance
                continue
            # Spill path, as in :meth:`insert`.  Consecutive spills
            # mostly land in one pile, so its range and appenders stay
            # in locals between lookups.
            if not (lo <= distance < hi):
                segment = self._segment_for(distance)
                lo, hi = segment.lo, segment.hi
                if columnar:
                    block = segment.block(source)
                    append, append_index = block.keys.append, block.index.append
                else:
                    append = segment.tuples().append
            if columnar:
                append(distance)
                append_index(index[j])
            else:
                append(items[j])
            segment.held += 1
            segment.staged_since_flush += 1
            if segment.staged_since_flush >= entries_per_page:
                self._flush_page(segment)
                if self._spill_dir is not None:
                    # A real-spill flush empties the pile's chunks.
                    lo = math.inf
        stats.spilled_entries += n - len(in_bound)
        if in_bound:
            if columnar:
                hot = in_bound
                in_bound = list(zip(
                    [items[j] for j in hot],
                    range(seq - 1, seq - 1 - len(hot), -1),
                    source.payloads([index[j] for j in hot]),
                ))
                seq -= len(hot)
            self._seq = seq
            # One sift pass beats m pushes once the batch is a
            # meaningful fraction of the heap; below that, pushes into a
            # large heap are cheaper than re-heapifying it.
            if len(in_bound) * 8 >= len(heap):
                heap.extend(in_bound)
                heapq.heapify(heap)
            else:
                push = heapq.heappush
                for entry in in_bound:
                    push(heap, entry)
            if self._pending is not None and low < self._pending_min:
                self._pending_min = low
        size = self._size
        hist = self._depth_hist
        if hist is not None:
            for i in range(1, n + 1):
                hist.observe(size + i)
        self._size = size + n
        if self._size > stats.peak_size:
            stats.peak_size = self._size

    def _flush_page(self, segment: _Segment) -> None:
        """Flush a pile's full one-page write buffer (the spill cadence).

        Appends stream to disk through a one-page write buffer; the
        amortized cost is one sequential page per page of entries.  In
        real-spill mode the pile's staged entries go to its file.
        """
        self._disk.sequential_write(1)
        flushed = segment.staged_since_flush
        segment.staged_since_flush = 0
        if self._spill_dir is not None and not self._spill_broken:
            batch = segment.take()
            if not self._write_segment(segment, batch):
                segment.restage(batch)
        if self.tracer.enabled:
            self.tracer.event(
                "queue_spill", entries=flushed,
                segment_lo=segment.lo, segment_total=segment.total(),
            )

    def _new_spill_path(self) -> Path:
        assert self._spill_dir is not None
        return self._spill_dir / f"seg-{uuid.uuid4().hex}.pile"

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @property
    def in_memory_size(self) -> int:
        """Entries currently held in the heap."""
        return len(self._heap)

    @property
    def segment_count(self) -> int:
        """Number of non-empty disk segments."""
        return sum(1 for s in self._all_segments() if s.total())

    @property
    def spill_files(self) -> int:
        """Live spill files on real disk (0 in simulated mode)."""
        return sum(
            1 for s in self._all_segments() if s.path is not None
        )

    def check_invariant(self) -> bool:
        """Exact check of the heap/segment boundary (test hook).

        The heap owns ``[0, mem_bound)`` and the segments own
        ``[mem_bound, inf)``, so the check is strict: no heap key may
        exceed ``mem_bound`` and no staged segment key — tuple or
        block — may fall below it.
        (Spilled file batches share their segment's range, which starts
        at or above the bound by construction.)
        """
        if self._heap:
            heap_max = max(entry[0] for entry in self._heap)
            if heap_max > self._mem_bound:
                return False
        for segment in self._all_segments():
            for chunk in segment.chunks:
                keys = map(itemgetter(0), chunk) if type(chunk) is list else chunk.keys
                if min(keys, default=math.inf) < self._mem_bound:
                    return False
        return True

    # ------------------------------------------------------------------
    # Checkpoint snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Self-contained picklable image of the queue's logical state.

        A segment's spill file is read (file left untouched), every
        batch's CRC and the entry count are checked, and the file's
        bytes are embedded verbatim, undecoded — so the checkpoint does
        not dangle references to spill files that swap-ins unlink
        mid-run.  Staged chunks are embedded as copies in their own
        kinds: a columnar block stays keys, indices and its payload
        source, with no payload built.  The heap triples are captured
        verbatim — the ``seq`` tie-break decides pop order among equal
        distances, so resumed pops stay byte-identical.  Nothing is
        charged to the simulated disk: checkpointing must not perturb
        the paper's cost counters.
        """
        # A drain in flight is invisible state: fold it back so the
        # captured heap is complete (engines only checkpoint at batch
        # boundaries, so this is a no-op there — it guards direct use).
        self.flush_heads()

        def segment_state(segment: _Segment) -> tuple:
            spilled = b""
            if segment.path is not None and segment.path.exists():
                spilled = segment.path.read_bytes()
                self._check_batches(spilled, segment.spilled, str(segment.path))
            # staged_since_flush rides along so the resumed queue's next
            # page-flush charge fires at the same insert as the original
            # run's — without it the simulated response time drifts.
            return (
                segment.lo, segment.hi, spilled, segment.spilled,
                _copy_chunks(segment.chunks), segment.staged_since_flush,
            )

        return {
            "mem_bound": self._mem_bound,
            "seq": self._seq,
            "heap": list(self._heap),
            "split_segments": [segment_state(s) for s in self._split_segments],
            "formula_segments": {
                index: segment_state(s)
                for index, s in self._formula_segments.items()
            },
            "size": self._size,
            "spill_broken": self._spill_broken,
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Rebuild the logical state captured by :meth:`snapshot`.

        Counters start fresh — the checkpointed :class:`JoinStats`
        prefix carries the pre-crash counts, and the resumed run's
        stats are merged on top.  With a real ``spill_dir`` a segment's
        embedded spill bytes are written back verbatim as its new spill
        file, followed by its staged entries, so the resumed run keeps
        the memory bound whichever mode the checkpoint came from;
        without one (or once a write fails) the bytes are decoded into
        the segment as a chunk in front of the staged ones.
        """
        self.close()
        if self._spill_dir is not None and not self._spill_dir.exists():
            # close() removes a spill directory the queue created; the
            # restored segments are about to spill again, so recreate it.
            self._created_spill_dir = True
            self._spill_dir.mkdir(parents=True, exist_ok=True)
        self._mem_bound = state["mem_bound"]
        self._seq = state["seq"]
        self._heap = list(state["heap"])
        self._size = state["size"]
        self._spill_broken = bool(state["spill_broken"])
        self._last_segment = None
        self.stats = QueueStats()

        def build(lo, hi, spilled, count, chunks, staged) -> _Segment:
            segment = _Segment(lo, hi, _copy_chunks(chunks))
            segment.held = sum(map(len, segment.chunks))
            segment.staged_since_flush = staged
            if count and (
                self._spill_dir is None
                or not self._append(segment, spilled, count)
            ):
                segment.chunks.insert(
                    0, self._decode_batches(spilled, count, "checkpointed segment")
                )
                segment.held += count
            if segment.held and self._spill_dir is not None and not self._spill_broken:
                batch = segment.take()
                if not self._write_segment(segment, batch):
                    segment.restage(batch)
            return segment

        self._split_segments = [
            build(*segment) for segment in state["split_segments"]
        ]
        self._formula_segments = {
            index: build(*segment)
            for index, segment in state["formula_segments"].items()
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _all_segments(self) -> list[_Segment]:
        return self._split_segments + list(self._formula_segments.values())

    def _write_segment(self, segment: _Segment, batch: list[tuple[float, Any]]) -> bool:
        """Append one checksummed batch to the segment's spill file.

        A batch is a :data:`_FRAME` header — the pickled entry list's
        length, the entry count and the list's CRC-32 — followed by the
        pickled list, so the checksum covers exactly the bytes that
        will be unpickled on read-back.

        Returns ``False`` when the write failed (disk full, permissions,
        an injected ``spill_write`` fault): the file is rolled back to
        the last good batch, the queue flips into memory-retention mode,
        and the caller must keep ``batch`` in its staging buffer.
        """
        if self._spill_broken:
            return False
        blob = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        header = _FRAME.pack(len(blob), len(batch), zlib.crc32(blob))
        return self._append(segment, header + blob, len(batch))

    def _append(self, segment: _Segment, data: bytes, count: int) -> bool:
        """Append framed batches holding ``count`` entries to the
        segment's spill file (see :meth:`_write_segment`)."""
        if self._spill_broken:
            return False
        path = segment.path if segment.path is not None else self._new_spill_path()
        offset: int | None = None
        try:
            if self._faults is not None:
                self._faults.maybe_fail_spill_write()
            with open(path, "ab") as f:
                offset = f.tell()
                f.write(data)
        except OSError as exc:
            # Roll back any partial append so earlier batches stay
            # readable, then retain this batch (and all later spills)
            # in memory: correctness over the memory bound.  A failure
            # before the append started (offset still None) must NOT
            # touch the file — it may hold valid earlier batches.
            try:
                if offset is not None and path.exists():
                    os.truncate(path, offset)
            except OSError:
                pass
            self._spill_broken = True
            self.stats.spill_write_failures += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "spill_write_failed", error=str(exc), segment_lo=segment.lo
                )
            return False
        segment.path = path
        segment.spilled += count
        return True

    def _corrupt(self, where: str, detail: str) -> SpillCorruptionError:
        if self.tracer.enabled:
            self.tracer.event("spill_corruption", path=where, detail=detail)
        return SpillCorruptionError(f"spill segment {where}: {detail}")

    def _check_batches(
        self, data: bytes, expected: int, where: str, faults=None
    ) -> list[tuple[int, bytes]]:
        """The ``(count, blob)`` batches of spill-file bytes, every CRC
        and the total entry count checked against ``expected``; any
        fault raises :class:`SpillCorruptionError`.  ``faults`` is the
        :class:`~repro.resilience.faults.FaultPlan` whose ``spill_read``
        site may corrupt each blob before its CRC is checked."""
        framed, corrupt = _frames(data)
        batches: list[tuple[int, bytes]] = []
        for count, checksum, blob in framed:
            if faults is not None:
                blob = faults.maybe_corrupt(blob)
            if zlib.crc32(blob) != checksum:
                corrupt = "checksum mismatch"
                break
            batches.append((count, blob))
        if corrupt is None:
            total = sum(count for count, _ in batches)
            if total != expected:
                corrupt = (
                    f"expected {expected} spilled entries, "
                    f"found {total} (truncated file)"
                )
        if corrupt is not None:
            raise self._corrupt(where, corrupt)
        return batches

    def _decode_batches(
        self, data: bytes, expected: int, where: str, faults=None
    ) -> list[tuple[float, Any]]:
        """Validate (see :meth:`_check_batches`) and decode spill-file
        bytes into their entries, in order."""
        loaded: list[tuple[float, Any]] = []
        for count, blob in self._check_batches(data, expected, where, faults):
            try:
                entries = pickle.loads(blob)
            except Exception as exc:
                raise self._corrupt(where, f"bad batch payload ({exc})") from exc
            if not isinstance(entries, list) or len(entries) != count:
                raise self._corrupt(where, "batch entry count mismatch")
            loaded.extend(entries)
        return loaded

    def _read_segment(self, segment: _Segment) -> list[tuple[float, Any]]:
        """Drain a segment: checksummed file batches plus staging.

        On success the spill file is unlinked and the staging buffer
        cleared.  A bad file — bit rot, truncation, an injected
        ``spill_read`` fault — raises :class:`SpillCorruptionError` and
        leaves the file registered on the segment, so :meth:`close`
        still unlinks it.
        """
        loaded: list[tuple[float, Any]] = []
        path = segment.path
        if path is not None and path.exists():
            loaded = self._decode_batches(
                path.read_bytes(), segment.spilled, str(path), self._faults
            )
            path.unlink()
            segment.path = None
        segment.spilled = 0
        loaded.extend(segment.take())
        return loaded

    def _entries_per_page(self) -> int:
        return max(self._disk.cost_model.page_size // self._entry_bytes, 1)

    def _pages_for(self, count: int) -> int:
        return -(-count // self._entries_per_page()) if count else 0

    def _boundary(self, index: int) -> float:
        """Distance boundary ``sqrt(index * n * rho)`` or ``inf``."""
        if self._rho is None or index >= MAX_FORMULA_SEGMENTS:
            return math.inf
        return math.sqrt(index * self._capacity * self._rho)

    def _segment_for(self, distance: float) -> _Segment:
        """Find or create the segment whose range contains ``distance``."""
        cached = self._last_segment
        if cached is not None and cached.lo <= distance < cached.hi:
            return cached
        for segment in self._split_segments:
            if segment.lo <= distance < segment.hi:
                self._last_segment = segment
                return segment
        if self._rho is None:
            # Split-only mode: one open-ended overflow pile.
            segment = _Segment(self._mem_bound, math.inf)
            self._split_segments.append(segment)
            self._last_segment = segment
            return segment
        index = int(distance * distance / (self._capacity * self._rho))
        index = min(max(index, 1), MAX_FORMULA_SEGMENTS - 1)
        # Truncating float division and the sqrt in _boundary() can
        # disagree by one index at an exact boundary; nudge so that
        # boundary(index) <= distance < boundary(index + 1) holds for
        # the same boundary values routing and swap-in use.
        while index > 1 and self._boundary(index) > distance:
            index -= 1
        while (
            index < MAX_FORMULA_SEGMENTS - 1
            and self._boundary(index + 1) <= distance
        ):
            index += 1
        segment = self._formula_segments.get(index)
        if segment is None:
            segment = _Segment(self._boundary(index), self._boundary(index + 1))
            self._formula_segments[index] = segment
        self._last_segment = segment
        return segment

    def _fresh_heap(
        self, entries: list[tuple[float, Any]]
    ) -> list[tuple[float, int, Any]]:
        """Build a heap from ``(distance, payload)`` pairs with fresh seqs.

        Seqs come off the shared counter so they are unique across the
        queue's lifetime — two triples can never compare equal through
        ``(distance, seq)``, which is what keeps payloads out of every
        comparison.
        """
        seq = self._seq
        heap = [
            (distance, seq - i, payload)
            for i, (distance, payload) in enumerate(entries)
        ]
        self._seq = seq - len(heap)
        heapq.heapify(heap)
        return heap

    def _split(self) -> None:
        """Move the longer-distance half of a full heap to disk."""
        self.stats.splits += 1
        items = [(distance, payload) for distance, _, payload in self._heap]
        self._heap = []
        items.sort(key=lambda item: item[0])
        self._charge_sort(len(items))
        keep = len(items) // 2
        # The new memory bound is moved[0][0] and the boundary is
        # half-open: keys equal to it must all land on the segment side,
        # so walk the split point back over any tie block.  When every
        # key is the same the whole heap moves out (keep == 0) and the
        # next pop swaps it straight back in.
        boundary_key = items[keep][0]
        while keep > 0 and items[keep - 1][0] == boundary_key:
            keep -= 1
        kept, moved = items[:keep], items[keep:]
        old_bound = self._mem_bound
        self._mem_bound = moved[0][0]
        self._last_segment = None
        self._heap = self._fresh_heap(kept)
        segment = _Segment(self._mem_bound, old_bound)
        if self._spill_dir is None or not self._write_segment(segment, moved):
            segment.restage(moved)
        self.stats.spilled_entries += len(moved)
        self._split_segments.insert(0, segment)
        self._disk.sequential_write(self._pages_for(len(moved)))
        if self.tracer.enabled:
            self.tracer.event(
                "queue_split", moved=len(moved), kept=keep,
                new_bound=self._mem_bound,
            )

    def _next_segment(self) -> _Segment | None:
        """The nearest non-empty segment, dropping exhausted ones."""
        self._last_segment = None
        while self._split_segments and not self._split_segments[0].total():
            self._split_segments.pop(0)
        if self._split_segments:
            return self._split_segments[0]
        while self._formula_segments:
            index = min(self._formula_segments)
            segment = self._formula_segments[index]
            if segment.total():
                return segment
            del self._formula_segments[index]
        return None

    def _swap_in(self) -> None:
        """Refill the empty heap from the nearest disk segment.

        Only the entries that enter the heap get payloads: all of them
        when the segment fits, else its ``capacity`` smallest (stable
        sort, so ties keep insertion order) — the remainder goes back
        sorted, as one :class:`_Remainder`.
        """
        segment = self._next_segment()
        if segment is None:
            raise IndexError("pop from empty MainQueue")
        self.stats.swap_ins += 1
        if self._spill_dir is not None:
            chunks = [self._read_segment(segment)]
        else:
            chunks = segment.chunks
            segment.restage([])
        count = sum(len(chunk) for chunk in chunks)
        if self.tracer.enabled:
            self.tracer.event(
                "queue_swap_in", entries=count,
                segment_lo=segment.lo, overflow=count > self._capacity,
            )
        self._disk.sequential_read(self._pages_for(count))
        self._charge_sort(count)
        if count <= self._capacity:
            self._heap = self._fresh_heap(_materialize(chunks))
            self._mem_bound = segment.hi
            self._drop(segment)
            return
        keys, sources, refs = _gather(chunks)
        order = sorted(range(count), key=keys.__getitem__)
        kept, rest = order[: self._capacity], order[self._capacity :]
        self._heap = self._fresh_heap(list(zip(
            [keys[p] for p in kept],
            _build([sources[p] for p in kept], [refs[p] for p in kept]),
        )))
        rest_keys = [keys[p] for p in rest]
        rest_sources = [sources[p] for p in rest]
        rest_refs = [refs[p] for p in rest]
        segment.lo = rest_keys[0]
        segment.staged_since_flush = 0
        self._mem_bound = segment.lo
        if self._spill_dir is None:
            segment.chunks = [
                _Remainder(array("d", rest_keys), rest_sources, rest_refs)
            ]
            segment.held = len(rest)
        else:
            remainder = list(zip(rest_keys, _build(rest_sources, rest_refs)))
            if not self._write_segment(segment, remainder):
                segment.restage(remainder)
        self._disk.sequential_write(self._pages_for(len(rest)))

    def _drop(self, segment: _Segment) -> None:
        if self._last_segment is segment:
            self._last_segment = None
        if self._split_segments and self._split_segments[0] is segment:
            self._split_segments.pop(0)
            return
        for index, candidate in self._formula_segments.items():
            if candidate is segment:
                del self._formula_segments[index]
                return

    def _charge_sort(self, count: int) -> None:
        if count > 1:
            self._disk.charge_cpu(
                self._disk.cost_model.cpu_sort_per_element
                * count
                * math.log2(count)
            )
