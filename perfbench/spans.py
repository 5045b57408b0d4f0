"""Span recording around the public entry points of each layer module.

The traced pass of the benchmark wraps layer entry points from outside
the program: :class:`SpanRecorder.install` replaces each listed class or
module attribute with a wrapper that records one span per call, and
:meth:`SpanRecorder.remove` puts the originals back.  Nothing under
``src/`` knows about this.

A span's self time is its duration minus the part its child spans
cover.  Calls are synchronous and single-threaded, so children nest
strictly inside their parent and the covered part is the sum of the
children's durations.  Every operation of the benchmark opens a root
span, so the self times of one operation add up to its traced wall
time exactly; the root's own self time is the API glue plus the
wrappers' own cost.

Fine-grained layers are called millions of times per join (one main
queue insert per candidate pair), so spans are folded into per-operation
aggregates as they close: for each layer a count, total and self time,
and for each (parent layer, child layer) edge a count.  The root spans
are kept whole.  Everything stays in memory until :meth:`dump`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

ROOT = "op"


@dataclass
class OpSpans:
    """Folded spans of one operation (one join, or one page pull)."""

    name: str
    start_ns: int = 0
    end_ns: int = 0
    #: layer -> [count, total_ns, self_ns]
    layers: dict[str, list[int]] = field(default_factory=dict)
    #: (parent layer, child layer) -> count
    edges: dict[tuple[str, str], int] = field(default_factory=dict)
    #: layer -> (duration ns, value) of the spans kept whole (see ``install``)
    kept: dict[str, list[tuple[int, Any]]] = field(default_factory=dict)

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns


class _SpannedIterator:
    """An iterator whose every ``next`` is one span (``enter``/``exit_``)."""

    __slots__ = ("_it", "_enter", "_exit")

    def __init__(self, it, enter: Callable[[], Any], exit_: Callable[[Any], None]):
        self._it = it
        self._enter = enter
        self._exit = exit_

    def __iter__(self):
        return self

    def __next__(self):
        token = self._enter()
        try:
            return next(self._it)
        finally:
            self._exit(token)

    def close(self) -> None:
        close = getattr(self._it, "close", None)
        if close is not None:
            close()


class SpanRecorder:
    """Records nested spans for the layers given to :meth:`install`."""

    def __init__(self) -> None:
        self._names: list[str] = [ROOT]
        self._stack: list[list[int]] = []  # frames: [layer id, child ns, start ns]
        self._counts: list[list[int]] = []  # per layer id: [n, total, self]
        self._edges: list[list[int]] = []  # [parent id][child id] -> n
        self._patched: list[tuple[object, str, object]] = []
        self.ops: list[OpSpans] = []
        self._current: OpSpans | None = None
        self._reset_tables()

    # -- layer table ------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self._names:
            self._names.append(layer)
            self._reset_tables()
        return self._names.index(layer)

    def _reset_tables(self) -> None:
        n = len(self._names)
        self._counts = [[0, 0, 0] for _ in range(n)]
        self._edges = [[0] * n for _ in range(n)]

    # -- span primitives --------------------------------------------------

    def _enter(self, lid: int) -> list[int]:
        frame = [lid, 0, time.perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list[int]) -> int:
        dur = time.perf_counter_ns() - frame[2]
        stack = self._stack
        stack.pop()
        lid = frame[0]
        row = self._counts[lid]
        row[0] += 1
        row[1] += dur
        row[2] += dur - frame[1]
        if stack:
            parent = stack[-1]
            parent[1] += dur
            self._edges[parent[0]][lid] += 1
        return dur

    # -- operations ---------------------------------------------------------

    def begin_op(self, name: str) -> None:
        """Open the root span of one benchmark operation."""
        if self._stack:
            raise RuntimeError("operation spans do not nest")
        for row in self._counts:
            row[0] = row[1] = row[2] = 0
        for row in self._edges:
            row[:] = [0] * len(row)
        self._current = OpSpans(name)
        frame = self._enter(0)
        self._current.start_ns = frame[2]

    def end_op(self) -> OpSpans:
        """Close the root span and fold this operation's spans."""
        frame = self._stack[-1]
        if frame[0] != 0 or len(self._stack) != 1:
            raise RuntimeError("a layer span is still open at the end of an operation")
        dur = self._exit(frame)
        op = self._current
        op.end_ns = op.start_ns + dur
        names = self._names
        op.layers = {
            names[i]: list(row) for i, row in enumerate(self._counts) if row[0]
        }
        op.edges = {
            (names[p], names[c]): n
            for p, row in enumerate(self._edges)
            for c, n in enumerate(row)
            if n
        }
        self.ops.append(op)
        self._current = None
        return op

    # -- wrapping -----------------------------------------------------------

    def install(
        self,
        targets: list[tuple[str, object, str]],
        keep: Callable[[tuple, Any], Any] | None = None,
    ) -> None:
        """Wrap ``owner.attr`` for every ``(layer, owner, attr)`` target.

        ``keep(args, result)``, when given, is asked after every call; a
        value other than ``None`` keeps that span whole, together with
        the value (the checkpoint layer keeps the barriers that wrote,
        with the bytes written).  Calls that return an iterator
        are spanned once more for every ``next`` on it, so lazily
        produced work (engine generators, a merge iterator) is charged
        to the layer that produces it.
        """
        for layer, owner, attr in targets:
            lid = self._layer_id(layer)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, lid, layer, keep))

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def _wrap(self, raw, lid: int, layer: str, keep):
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._wrap(raw.__func__, lid, layer, keep))
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame = enter(lid)
            try:
                result = raw(*args, **kwargs)
            finally:
                dur = exit_(frame)
            if keep is not None and self._current is not None:
                value = keep(args, result)
                if value is not None:
                    self._current.kept.setdefault(layer, []).append((dur, value))
            if hasattr(result, "__next__") and hasattr(result, "__iter__"):
                return _SpannedIterator(result, lambda: enter(lid), exit_)
            return result

        wrapper.__name__ = getattr(raw, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(raw, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = getattr(raw, "__doc__", None)
        wrapper.__wrapped__ = raw
        return wrapper

    # -- output ---------------------------------------------------------------

    def dump(self, path, meta: dict[str, Any]) -> None:
        """Write the recorded operations as one JSON document."""
        doc = {
            "meta": meta,
            "ops": [
                {
                    "name": op.name,
                    "start_ns": op.start_ns,
                    "wall_ns": op.wall_ns,
                    "layers": {
                        name: {"count": n, "total_ns": total, "self_ns": own}
                        for name, (n, total, own) in op.layers.items()
                    },
                    "edges": [
                        {"parent": p, "child": c, "count": n}
                        for (p, c), n in op.edges.items()
                    ],
                    "kept_ns": op.kept,
                }
                for op in self.ops
            ],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
