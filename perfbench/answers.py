"""Answer checking against a reference top-k stream.

The benchmark keeps its own copy of the raw rectangles as NumPy arrays,
so every reported distance is recomputed outside the program.  The
reference is one top-K stream at the largest K a workload asks for; an
answer for ``k <= K`` must carry exactly the first ``k`` reference
distances, and a page ``[a, b)`` of an incremental stream exactly the
reference distances at those positions.

Distance ties make the pair set at the K-th distance ambiguous, so pair
membership is checked only below the reference's largest distance,
where the reference holds every qualifying pair.  Together with exact
distances, valid ids and no duplicates this pins the answer down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def rect_array(items) -> np.ndarray:
    """``(n, 4)`` array of ``xmin, ymin, xmax, ymax`` indexed by object id.

    Ids must be ``0 .. n-1``; the generated datasets number them so.
    """
    out = np.full((len(items), 4), np.nan)
    for rect, oid in items:
        out[oid] = (rect.xmin, rect.ymin, rect.xmax, rect.ymax)
    if np.isnan(out).any():
        raise ValueError("object ids are not a permutation of 0..n-1")
    return out


def min_distances(rects_r: np.ndarray, rects_s: np.ndarray,
                  ids_r: np.ndarray, ids_s: np.ndarray) -> np.ndarray:
    """Minimum Euclidean distance of each rectangle pair.

    Same arithmetic as the paper's ``dist(r, s)``: zero on overlap,
    otherwise the gap per axis combined as ``sqrt(dx*dx + dy*dy)``, with
    a single-axis gap returned as is.
    """
    a = rects_r[ids_r]
    b = rects_s[ids_s]
    dx = np.maximum(np.maximum(a[:, 0] - b[:, 2], b[:, 0] - a[:, 2]), 0.0)
    dy = np.maximum(np.maximum(a[:, 1] - b[:, 3], b[:, 1] - a[:, 3]), 0.0)
    both = np.sqrt(dx * dx + dy * dy)
    return np.where(dx == 0.0, dy, np.where(dy == 0.0, dx, both))


@dataclass
class StreamCursor:
    """What an incremental stream has delivered so far."""

    position: int = 0
    last_distance: float = 0.0
    seen: set = field(default_factory=set)


class Reference:
    """A checked top-K answer and the raw rectangles behind it."""

    def __init__(self, rects_r: np.ndarray, rects_s: np.ndarray, pairs) -> None:
        self.rects_r = rects_r
        self.rects_s = rects_s
        self.k = len(pairs)
        problems = self._check_pairs(pairs, StreamCursor())
        if problems:
            raise ValueError("reference answer is inconsistent: " + problems[0])
        self.distances = [p.distance for p in pairs]
        self.max_distance = self.distances[-1] if pairs else 0.0
        self.below_max = {
            (p.ref_r, p.ref_s) for p in pairs if p.distance < self.max_distance
        }

    # -- checks -----------------------------------------------------------

    def _check_pairs(self, pairs, cursor: StreamCursor) -> list[str]:
        """Ids, duplicates, order and recomputed distances of ``pairs``."""
        problems: list[str] = []
        n_r, n_s = len(self.rects_r), len(self.rects_s)
        ids_r, ids_s, dists = [], [], []
        last = cursor.last_distance
        for p in pairs:
            r, s = p.ref_r, p.ref_s
            if not (isinstance(r, int) and isinstance(s, int)
                    and 0 <= r < n_r and 0 <= s < n_s):
                return [f"invalid object ids ({r!r}, {s!r})"]
            if (r, s) in cursor.seen:
                return [f"duplicate pair ({r}, {s})"]
            cursor.seen.add((r, s))
            if p.distance < last:
                return [f"distance {p.distance!r} after {last!r}: not non-decreasing"]
            last = p.distance
            ids_r.append(r)
            ids_s.append(s)
            dists.append(p.distance)
        cursor.last_distance = last
        if dists:
            truth = min_distances(self.rects_r, self.rects_s,
                                  np.asarray(ids_r), np.asarray(ids_s))
            wrong = np.flatnonzero(truth != np.asarray(dists))
            if len(wrong):
                i = int(wrong[0])
                problems.append(
                    f"pair ({ids_r[i]}, {ids_s[i]}) reported at {dists[i]!r}, "
                    f"recomputed {float(truth[i])!r}"
                )
        return problems

    def _check_against(self, pairs, start: int) -> list[str]:
        end = start + len(pairs)
        if end > self.k:
            return [f"positions up to {end} exceed the reference's {self.k}"]
        got = [p.distance for p in pairs]
        if got != self.distances[start:end]:
            return [f"distances at positions {start}..{end} differ from the reference"]
        for p in pairs:
            if p.distance < self.max_distance and (p.ref_r, p.ref_s) not in self.below_max:
                return [f"pair ({p.ref_r}, {p.ref_s}) is not in the reference"]
        return []

    def check_topk(self, pairs, k: int) -> list[str]:
        """Problems with a k-distance join answer (empty when correct)."""
        if len(pairs) != k:
            return [f"{len(pairs)} pairs returned for k={k}"]
        return self._check_pairs(pairs, StreamCursor()) or self._check_against(pairs, 0)

    def check_page(self, pairs, size: int, cursor: StreamCursor) -> list[str]:
        """Problems with the next page of an incremental stream."""
        if len(pairs) != size:
            return [f"page of {len(pairs)} pairs, expected {size}"]
        start = cursor.position
        cursor.position += len(pairs)
        return self._check_pairs(pairs, cursor) or self._check_against(pairs, start)
