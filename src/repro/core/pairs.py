"""Items and pairs — what flows through the join queues.

An :class:`Item` is one side of a candidate pair: either an R-tree node
(identified by its page id and the level it sits at) or a data object
(a leaf entry: object id plus MBR).  Items carry their rectangle so that
distance computations never refetch nodes — exactly how a C
implementation would keep the MBR inside the queue entry.

A queued pair is ``(distance, PairPayload)``; the payload also carries an
optional compensation record while the adaptive algorithms are at work.
HS queues its candidates as distances plus a :class:`ChildPairs` source
that builds the payloads on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.geometry.rect import Rect

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.planesweep import ExpansionRecord

#: Level tag for data objects (anything >= 0 is an R-tree node level).
OBJECT_LEVEL = -1


@dataclass(frozen=True, slots=True)
class Item:
    """One side of a candidate pair: an R-tree node or a data object."""

    rect: Rect
    ref: int
    level: int

    def __reduce__(self):
        # Constructor arguments, as for :class:`Rect` (checkpoints and
        # spill files hold one Item per queued pair side).
        return (Item, (self.rect, self.ref, self.level))

    @property
    def is_object(self) -> bool:
        return self.level == OBJECT_LEVEL

    @classmethod
    def object(cls, rect: Rect, oid: int) -> "Item":
        return cls(rect, oid, OBJECT_LEVEL)

    @classmethod
    def node(cls, rect: Rect, page_id: int, level: int) -> "Item":
        if level < 0:
            raise ValueError("node level must be non-negative")
        return cls(rect, page_id, level)


@dataclass(slots=True)
class PairPayload:
    """Queue payload: the two items plus optional compensation state."""

    a: Item
    b: Item
    record: "ExpansionRecord | None" = None
    #: Precomputed at construction: the engines test this on every queue
    #: pop and insert, so it is a plain attribute rather than a property.
    is_object_pair: bool = False

    def __post_init__(self) -> None:
        self.is_object_pair = (
            self.a.level == OBJECT_LEVEL and self.b.level == OBJECT_LEVEL
        )

    def __reduce__(self):
        # ``is_object_pair`` is recomputed on load.  A shared ``record``
        # (one also pending in the compensation queue) is memoized by
        # the pickler like any other object, so it stays shared.
        if self.record is None:
            return (PairPayload, (self.a, self.b))
        return (PairPayload, (self.a, self.b, self.record))


class ChildPairs:
    """Payload source of one uni-directional expansion: child ``i`` of
    ``children`` paired with ``partner``.

    The main queue stores an HS candidate as its distance and child
    index and calls :meth:`payloads` only for the entries that enter its
    in-memory heap (see ``MainQueue.push_many``).  Plain data, so it
    pickles.
    """

    __slots__ = ("children", "partner", "expand_r")

    def __init__(self, children: list[Item], partner: Item, expand_r: bool) -> None:
        self.children = children
        self.partner = partner
        #: The children are on the R side (the pair is ``(child, partner)``).
        self.expand_r = expand_r

    def payloads(self, index) -> list[PairPayload]:
        children, partner = self.children, self.partner
        if self.expand_r:
            return [PairPayload(children[i], partner) for i in index]
        return [PairPayload(partner, children[i]) for i in index]


class ResultPair(NamedTuple):
    """One join result: object ids from R and S and their distance."""

    distance: float
    ref_r: int
    ref_s: int
