"""Optimized plane sweep for bidirectional node expansion (Section 3).

Bidirectional expansion of a node pair is a Cartesian product of the two
child sets; the plane sweep avoids materializing it.  Children of both
nodes are sorted along a *sweeping axis*; the node with the smallest
coordinate becomes the *anchor* and is paired only with nodes of the
other set whose axis distance is within the cutoff — the scan stops at
the first node beyond it, which is sound because the axis distance to the
anchor grows monotonically along the sorted order.

The two novel optimizations are

- **sweeping-axis selection** (Section 3.2): pick the axis with the
  smaller *sweeping index* — a closed-form estimate of how many pairs the
  sweep will have to compute real distances for (Equation 2, Table 1);
- **sweeping-direction selection** (Section 3.3): sweep from the end
  where the two projections' outer intervals are shorter, so close pairs
  are discovered first and the cutoff tightens sooner.

Cutoffs are passed as zero-argument callables because they genuinely
change *during* a sweep: every object pair emitted may tighten ``qDmax``.

This module also implements the per-anchor *resume bookkeeping* the
adaptive multi-stage algorithms need: an :class:`ExpansionRecord` captures
the sorted child lists and, for every anchor, where its scan stopped, so a
compensation stage re-examines only the child pairs the aggressive stage
skipped (Algorithm 3).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable

from repro.core.pairs import Item
from repro.core.stats import Instruments
from repro.geometry.distances import min_distance
from repro.geometry.rect import Rect
from repro.kernels.plan_cache import SweepPlanCache, plan_key

#: Signature of the pair consumer: (item_from_R, item_from_S, distance).
EmitFn = Callable[[Item, Item, float], None]

#: A pruning cutoff, re-read whenever it is applied.
CutoffFn = Callable[[], float]


def static_cutoff(value: float) -> CutoffFn:
    """A cutoff that never changes during the sweep."""
    return lambda: value


# ----------------------------------------------------------------------
# Sweeping index (Equation 2) — exact piecewise-linear integration
# ----------------------------------------------------------------------


def sweeping_index(r: Rect, s: Rect, axis: int, cutoff: float) -> float:
    """Equation (2): expected sweep work along ``axis`` for this cutoff.

    Computed by exact integration of the sliding-window overlap, which
    agrees with the paper's Table 1 closed forms for non-overlapping
    nodes (verified by unit tests) and also covers the overlapping case.

    One deliberate correction to the printed equation: each integral is
    normalized by the *sweeping node's* projected length (turning it into
    the expected fraction of cross pairs examined).  Without that factor
    the two axes' indexes are not commensurable — the raw integral over a
    long, fully-overlapped axis exceeds the integral over a short axis
    even when the long axis prunes vastly better, which contradicts the
    paper's own Figure 5 motivation.  The footnote-2 description ("a
    normalized estimation of the number of node pairs") matches the
    normalized form.
    """
    return _normalized_term(
        r.lo(axis), r.hi(axis), s.lo(axis), s.hi(axis), cutoff
    ) + _normalized_term(s.lo(axis), s.hi(axis), r.lo(axis), r.hi(axis), cutoff)


def _normalized_term(
    a_lo: float, a_hi: float, b_lo: float, b_hi: float, cutoff: float
) -> float:
    """Expected fraction of b's children inside one of a's sweep windows."""
    if a_hi > a_lo:
        return _index_term(a_lo, a_hi, b_lo, b_hi, cutoff) / (a_hi - a_lo)
    # Degenerate a: all children share one window; evaluate the integrand
    # at the point instead of integrating over a zero-length range.
    if cutoff <= 0.0:
        return 0.0
    if b_hi <= b_lo:
        return 1.0 if b_lo - cutoff <= a_lo <= b_lo else 0.0
    overlap = min(a_lo + cutoff, b_hi) - max(a_lo, b_lo)
    return max(0.0, overlap) / (b_hi - b_lo)


def _index_term(
    a_lo: float, a_hi: float, b_lo: float, b_hi: float, cutoff: float
) -> float:
    """One integral of Equation (2).

    ``(1 / |b|) * integral over t in [a_lo, a_hi] of
    len([t, t + cutoff] n [b_lo, b_hi]) dt`` — the expected fraction of
    b's children inside the sweep window of each of a's children.
    """
    if cutoff <= 0.0 or a_hi < a_lo:
        return 0.0
    if b_hi <= b_lo:
        # Degenerate b: the "fraction covered" is 1 while the window
        # contains the point, 0 otherwise.
        lo = max(a_lo, b_lo - cutoff)
        hi = min(a_hi, b_lo)
        return max(0.0, hi - lo)

    width = b_hi - b_lo
    # Duplicate breakpoints yield empty pieces that are skipped below, so
    # deduplication would only change what gets skipped, not the sum; a
    # plain sort keeps the accumulation order (and bits) of the deduped
    # form while skipping the set build.  The integrand — the overlap
    # fraction ``max(0, min(t + cutoff, b_hi) - max(t, b_lo)) / width`` —
    # is inlined at both piece ends: it is linear on each piece, so the
    # trapezoid is exact.
    breakpoints = sorted((a_lo, a_hi, b_lo - cutoff, b_hi - cutoff, b_lo, b_hi))
    total = 0.0
    left = breakpoints[0]
    for right in breakpoints[1:]:
        lo = max(left, a_lo)
        hi = min(right, a_hi)
        left = right
        if hi <= lo:
            continue
        f_lo = max(0.0, min(lo + cutoff, b_hi) - max(lo, b_lo)) / width
        f_hi = max(0.0, min(hi + cutoff, b_hi) - max(hi, b_lo)) / width
        total += (f_lo + f_hi) / 2.0 * (hi - lo)
    return total


def table1_sweeping_index(r: Rect, s: Rect, axis: int, cutoff: float) -> float:
    """Closed-form sweeping index for non-overlapping ``r``, ``s``.

    This is the paper's Table 1 (the printed table in our source scan is
    OCR-garbled, so the form is re-derived from Equation 2): with ``r``
    first along the axis, gap ``alpha`` and side lengths ``R``, ``S``,
    the second integral term vanishes and the first reduces to

        ( H(c - alpha) - H(c - R - alpha) ) / S

    where ``H`` is the antiderivative of ``clamp(u, 0, S)``.  Expanding
    ``H`` over its three pieces yields exactly Table 1's case analysis:
    zero below ``alpha``, a quadratic ramp, then saturation at ``R``.
    Used to cross-validate the exact integrator above.
    """
    r_lo, r_hi = r.lo(axis), r.hi(axis)
    s_lo, s_hi = s.lo(axis), s.hi(axis)
    if r_lo > s_lo:
        r_lo, r_hi, s_lo, s_hi = s_lo, s_hi, r_lo, r_hi
    alpha = s_lo - r_hi
    if alpha < 0:
        raise ValueError("table1_sweeping_index requires non-overlapping nodes")
    len_s = s_hi - s_lo
    if len_s == 0:
        # Degenerate second node: the limit of the closed form as
        # |s| -> 0.  The ramp H collapses to a step, leaving the measure
        # of sweep positions whose window [t, t + cutoff] contains the
        # point.  Written exactly as the degenerate branch of
        # ``_index_term`` (not the algebraically-equal
        # ``min(|r|, cutoff - alpha)``) so the two routes agree bitwise:
        # ``cutoff - alpha`` cancels catastrophically when the gap is
        # close to the cutoff, and dividing by a tiny |r| amplifies that
        # ulp into an O(1) error in the normalized index.
        lo = max(r_lo, s_lo - cutoff)
        hi = min(r_hi, s_lo)
        return max(0.0, hi - lo)

    def antiderivative(x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x <= len_s:
            return x * x / 2.0
        return len_s * x - len_s * len_s / 2.0

    upper = antiderivative(cutoff - alpha)
    lower = antiderivative(cutoff - (r_hi - r_lo) - alpha)
    return (upper - lower) / len_s


# ----------------------------------------------------------------------
# Axis and direction selection
# ----------------------------------------------------------------------


#: CPU charged (in ``cpu_axis_distance`` units) per axis whose index is
#: computed by the Table 1 closed form: a comparison, a couple of
#: subtractions and one quadratic-ramp evaluation.
CLOSED_FORM_AXIS_COST = 4
#: CPU charged per axis evaluated by the exact piecewise integrator:
#: a six-breakpoint sort plus up to five trapezoids, for both Equation
#: (2) terms.
EXACT_AXIS_COST = 30


def _axis_index_and_cost(r: Rect, s: Rect, axis: int, cutoff: float) -> tuple[float, int]:
    """Sweeping index along one axis, with the CPU units it cost.

    When the projections do not overlap the trailing Equation (2) term
    is exactly zero (the second node's forward windows never reach back
    to the first) and the leading term has the Table 1 closed form, so
    the piecewise integrator is skipped entirely.
    """
    r_lo, r_hi = r.lo(axis), r.hi(axis)
    s_lo, s_hi = s.lo(axis), s.hi(axis)
    # Strictly disjoint only: touching projections (and coincident
    # degenerate points, where the trailing term is *not* zero) take the
    # exact integrator.
    if r_hi < s_lo or s_hi < r_lo:
        if r_lo <= s_lo:
            first_lo, first_hi, second_lo, second_hi = r_lo, r_hi, s_lo, s_hi
        else:
            first_lo, first_hi, second_lo, second_hi = s_lo, s_hi, r_lo, r_hi
        if first_hi > first_lo:
            index = table1_sweeping_index(r, s, axis, cutoff) / (first_hi - first_lo)
        else:
            # Degenerate sweeping node: point-evaluated, also O(1).
            index = _normalized_term(first_lo, first_hi, second_lo, second_hi, cutoff)
        return index, CLOSED_FORM_AXIS_COST
    return sweeping_index(r, s, axis, cutoff), EXACT_AXIS_COST


def choose_axis(instr: Instruments, r: Rect, s: Rect, cutoff: float) -> int:
    """Pick the sweeping axis with the smaller sweeping index.

    With an infinite (or zero) cutoff the index is uninformative, so fall
    back to the natural heuristic: sweep along the dimension where the
    combined extent is larger (more spread means more pruning).

    CPU accounting is proportional to the work actually done: axes whose
    projections are disjoint use the Table 1 closed form (a few
    arithmetic operations); overlapping axes run the exact piecewise
    integrator, which costs roughly an order of magnitude more.
    """
    span_x = max(r.xmax, s.xmax) - min(r.xmin, s.xmin)
    span_y = max(r.ymax, s.ymax) - min(r.ymin, s.ymin)
    if not math.isfinite(cutoff) or cutoff <= 0.0 or cutoff >= max(span_x, span_y):
        return 0 if span_x >= span_y else 1
    index_x, cost_x = _axis_index_and_cost(r, s, 0, cutoff)
    index_y, cost_y = _axis_index_and_cost(r, s, 1, cutoff)
    instr.disk.charge_cpu(
        (cost_x + cost_y) * instr.disk.cost_model.cpu_axis_distance
    )
    if index_x == index_y:
        return 0 if span_x >= span_y else 1
    return 0 if index_x < index_y else 1


def choose_direction(r: Rect, s: Rect, axis: int) -> bool:
    """True for a forward sweep (Section 3.3's interval rule).

    The projections of ``r`` and ``s`` cut the axis into three intervals;
    sweep from the side whose outer interval is shorter, so that close
    pairs are met early and the cutoff drops fast.
    """
    points = sorted((r.lo(axis), r.hi(axis), s.lo(axis), s.hi(axis)))
    left = points[1] - points[0]
    right = points[3] - points[2]
    return left <= right


# ----------------------------------------------------------------------
# Sweep bookkeeping structures
# ----------------------------------------------------------------------


@dataclass(slots=True)
class ExpansionRecord:
    """Everything needed to compensate one aggressively-expanded pair.

    Holds the parent pair, the sorted child lists (sorted once, in stage
    one — compensation must not pay for sorting again), each anchor's
    scan window, and the cutoffs that were in force, so a later stage
    knows exactly which child pairs were never examined (beyond
    ``resume``) and which were examined but pruned on real distance
    (inside the window, when ``real_cutoff`` is not ``None``).
    ``real_cutoff is None`` means the in-window real-distance pruning was
    *safe* (done with qDmax) and never needs revisiting.

    The anchors are four parallel columns, one row per anchor in sweep
    order (see :func:`anchor_columns`): ``from_r[t]`` tells which side
    anchor ``t`` came from, ``anchor_pos[t]`` is its position in its own
    sorted list, and its scan covered positions ``[start[t], resume[t])``
    of the *other* sorted list.  Columns, not an object per anchor: a
    checkpoint carries every pending record, and an array pickles as one
    byte string.

    ``keys_r``/``keys_s`` are the child lists' sweep-order coordinates
    and ``batch_r``/``batch_s`` the kernels backend's packed coordinate
    arrays — both computed in stage one, so compensation batches its
    window evaluation without re-deriving either.
    """

    a: Item
    b: Item
    distance: float
    axis: int
    forward: bool
    sorted_r: list[Item]
    sorted_s: list[Item]
    from_r: array
    anchor_pos: array
    start: array
    resume: array
    axis_cutoff: float
    real_cutoff: float | None
    keys_r: list[float]
    keys_s: list[float]
    batch_r: object | None = None
    batch_s: object | None = None

    def fully_swept(self) -> bool:
        """True when no anchor has unexamined positions left."""
        n_r, n_s = len(self.sorted_r), len(self.sorted_s)
        for from_r, resume in zip(self.from_r, self.resume):
            if resume < (n_s if from_r else n_r):
                return False
        return True


def anchor_columns() -> tuple[array, array, array, array]:
    """Empty ``(from_r, anchor_pos, start, resume)`` anchor columns."""
    return array("b"), array("i"), array("i"), array("i")


# ----------------------------------------------------------------------
# The sweeper
# ----------------------------------------------------------------------


def _unpickled_lazy_pack() -> None:
    """Stand-in for a :class:`_LazyPack` crossing a pickle boundary."""
    return None


class _LazyPack:
    """Defers backend packing until a window actually needs it.

    Most anchors fail the cheap min-window pre-check, and whole
    expansions often produce no batchable window at all (tight cutoffs,
    short child lists) — eagerly packing both sides on every expansion
    would charge the array-building overhead for nothing.  The memoized
    result also rides along in an :class:`ExpansionRecord`, so
    compensation stages reuse the arrays instead of re-packing.
    """

    __slots__ = ("_kernels", "_items", "_keys", "_packed", "_done")

    def __init__(self, kernels, items, keys) -> None:
        self._kernels = kernels
        self._items = items
        self._keys = keys
        self._packed = None
        self._done = False

    def get(self):
        if not self._done:
            self._packed = self._kernels.pack(self._items, self._keys)
            self._done = True
        return self._packed

    def __reduce__(self):
        # A pack cache holds a kernels backend and packed arrays — both
        # process-local performance state, neither safely picklable.  A
        # checkpointed ExpansionRecord therefore sheds its batch caches:
        # it unpickles as None, and the sweeper's window evaluation falls
        # back to the bit-identical scalar path when a batch is missing.
        return (_unpickled_lazy_pack, ())


class PlaneSweeper:
    """Performs (and compensates) bidirectional plane-sweep expansions.

    Parameters
    ----------
    instr:
        Instrumented operations (distance counting, CPU charging).
    optimize_axis / optimize_direction:
        The Section 3.2/3.3 optimizations; both default on.  Turning them
        off fixes the sweep to the x axis, forward — the configuration
        the paper uses as the Figure 11 baseline.

    Distance evaluation inside sweep windows goes through the kernels
    backend carried by ``instr`` (see :mod:`repro.kernels`): a batched
    backend evaluates each anchor's candidate window in one call, the
    pure-Python backend keeps the scalar per-pair path.  Either way every
    logical distance is counted and charged identically, and (axis,
    direction) plans are memoized per node pair and cutoff bucket in a
    :class:`~repro.kernels.plan_cache.SweepPlanCache`.
    """

    def __init__(
        self,
        instr: Instruments,
        optimize_axis: bool = True,
        optimize_direction: bool = True,
        flat=None,
    ) -> None:
        self._instr = instr
        self._kernels = instr.kernels
        self._plans = SweepPlanCache()
        # The run's stats snapshot exports plan-cache eviction counts;
        # registration keeps that wiring in Instruments.fill like every
        # other counter.
        instr.plan_caches.append(self._plans)
        #: Optional :class:`repro.kernels.flat.FlatHotPath`.  When set,
        #: node sides are sorted/packed once per (node, axis, direction)
        #: out of the tree arena instead of per expansion; the fallback
        #: object path below stays bit-identical, so mixing them (object
        #: items, arena misses) is safe.
        self._flat = flat
        self.optimize_axis = optimize_axis
        self.optimize_direction = optimize_direction

    # -- public entry points -------------------------------------------

    def expand(
        self,
        a: Item,
        b: Item,
        children_r: list[Item],
        children_s: list[Item],
        axis_limit: CutoffFn,
        real_limit: CutoffFn,
        emit: EmitFn,
        keep_record: bool = False,
        pair_distance: float = 0.0,
        record_real_cutoff: float | None = None,
    ) -> ExpansionRecord | None:
        """Sweep the children of pair ``(a, b)``.

        ``axis_limit`` bounds the scan along the sweeping axis (qDmax in
        B-KDJ, eDmax in the aggressive stage); ``real_limit`` filters on
        real distance before emitting.  Both tighten as the sweep
        proceeds.

        Contract: the state the two cutoff closures read may change
        *only* through the ``emit`` callback (true for every engine —
        the closures read result/main queues that nothing else touches
        while the sweeper runs).  The scan loops rely on this to cache
        each limit as a float and re-read it only after an emit, which
        is observably identical to re-reading per pair but removes the
        dominant per-pair cost of the sweep.

        When ``keep_record`` is set, returns an :class:`ExpansionRecord`
        whose ``real_cutoff`` is ``record_real_cutoff`` — pass the real
        pruning cutoff *if it was unsafe* (AM-IDJ's eDmax) or ``None`` if
        it was safe (AM-KDJ's qDmax), which controls whether a later
        compensation pass rechecks in-window pairs.
        """
        select_cutoff = min(axis_limit(), real_limit())
        axis, forward = self._plan(a, b, select_cutoff)
        sorted_r, keys_r, batch_r = self._side(a, children_r, True, axis, forward)
        sorted_s, keys_s, batch_s = self._side(b, children_s, False, axis, forward)

        anchors = anchor_columns() if keep_record else None
        self._merge_sweep(
            sorted_r, keys_r, batch_r, sorted_s, keys_s, batch_s,
            axis, forward, axis_limit, real_limit, emit, anchors,
        )
        if anchors is None:
            return None
        from_r, anchor_pos, start, resume = anchors
        return ExpansionRecord(
            a=a,
            b=b,
            distance=pair_distance,
            axis=axis,
            forward=forward,
            sorted_r=sorted_r,
            sorted_s=sorted_s,
            from_r=from_r,
            anchor_pos=anchor_pos,
            start=start,
            resume=resume,
            axis_cutoff=axis_limit(),
            real_cutoff=record_real_cutoff,
            keys_r=keys_r,
            keys_s=keys_s,
            batch_r=batch_r,
            batch_s=batch_s,
        )

    def _plan(self, a: Item, b: Item, select_cutoff: float) -> tuple[int, bool]:
        """(axis, forward) for a pair, memoized per cutoff bucket.

        A compensation stage revisiting a pair whose cutoff is still in
        the same power-of-two bucket reuses the stored plan instead of
        re-running the index integrator and the direction rule; a cutoff
        that crossed a bucket boundary misses and the plan is recomputed
        (cache-invalidation-by-key).
        """
        if not (self.optimize_axis or self.optimize_direction):
            return 0, True
        key = plan_key(a, b, select_cutoff)
        plan = self._plans.get(key)
        if plan is not None:
            self._instr.count_plan_cache(hit=True)
            return plan
        axis = (
            choose_axis(self._instr, a.rect, b.rect, select_cutoff)
            if self.optimize_axis
            else 0
        )
        forward = (
            choose_direction(a.rect, b.rect, axis) if self.optimize_direction else True
        )
        self._instr.count_plan_cache(hit=False)
        self._plans.put(key, (axis, forward))
        return axis, forward

    def compensate(
        self,
        record: ExpansionRecord,
        axis_limit: CutoffFn,
        real_limit: CutoffFn,
        emit: EmitFn,
        new_record_real_cutoff: float | None = None,
    ) -> None:
        """Re-sweep only what earlier stages skipped (Algorithm 3).

        For every anchor, positions beyond its stored ``resume`` index
        were never examined and are swept now under the new cutoffs.
        Positions inside the old window were already examined; they are
        revisited only when the record's ``real_cutoff`` is not ``None``
        (AM-IDJ: stage one pruned on real distance > eDmax and those
        pairs must now be recovered) — and then only pairs whose real
        distance exceeded the old cutoff are emitted, so nothing is
        emitted twice.

        The record is updated in place (resume indices and cutoffs) so it
        can serve yet another stage.
        """
        old_real = record.real_cutoff
        axis, forward = record.axis, record.forward
        instr = self._instr
        axis_lim = axis_limit()
        real_lim = real_limit()
        resumes = record.resume
        for t, (from_r, anchor_pos, start, old_resume) in enumerate(zip(
            record.from_r, record.anchor_pos, record.start, resumes
        )):
            if from_r:
                own = record.sorted_r
                other = record.sorted_s
                other_keys = record.keys_s
                other_batch = record.batch_s
            else:
                own = record.sorted_s
                other = record.sorted_r
                other_keys = record.keys_r
                other_batch = record.batch_r
            anchor = own[anchor_pos]
            anchor_end = self._end(anchor, axis, forward)
            anchor_rect = anchor.rect
            begin = start if old_real is not None else old_resume
            n = len(other)
            window, wn = self._window(
                other_batch, other_keys, begin, n, anchor_end, anchor_rect, axis_lim
            )
            axis_checked = 0
            real_done = 0
            new_resume = n
            for idx in range(begin, n):
                axis_checked += 1
                if other_keys[idx] - anchor_end > axis_lim:
                    new_resume = idx
                    break
                off = idx - begin
                real = (
                    window[off]
                    if off < wn
                    else min_distance(anchor_rect, other[idx].rect)
                )
                real_done += 1
                if idx < old_resume:
                    # Examined before: recover only what the old (unsafe)
                    # real cutoff rejected.
                    assert old_real is not None
                    if real > old_real and real <= real_lim:
                        self._emit_oriented(anchor, other[idx], real, from_r, emit)
                        axis_lim = axis_limit()
                        real_lim = real_limit()
                elif real <= real_lim:
                    self._emit_oriented(anchor, other[idx], real, from_r, emit)
                    axis_lim = axis_limit()
                    real_lim = real_limit()
            instr.count_axis(axis_checked)
            instr.count_real(real_done)
            if new_resume > old_resume:
                resumes[t] = new_resume
        record.axis_cutoff = axis_limit()
        record.real_cutoff = new_record_real_cutoff

    # -- internals ------------------------------------------------------

    def _sorted(self, items: list[Item], axis: int, forward: bool) -> list[Item]:
        return self._sort_side(items, axis, forward)[0]

    def _side(
        self, item: Item, children: list[Item], side_r: bool,
        axis: int, forward: bool
    ) -> tuple[list[Item], list[float], object | None]:
        """One expansion side: sorted children, sweep keys, pack handle.

        The flat hot path serves node sides from its per-(node, axis,
        direction) cache — stable argsort over arena coordinates, same
        tie order and key floats as :meth:`_sort_side` — and the sort
        CPU charge is applied either way, so the simulated clock cannot
        tell the paths apart.  Everything else (object items, arena
        misses, no flat path) takes the per-expansion object sort.
        """
        flat = self._flat
        if flat is not None:
            cached = flat.sorted_side(side_r, item, children, axis, forward)
            if cached is not None:
                self._instr.charge_sort(len(children))
                return cached
        sorted_items, keys = self._sort_side(children, axis, forward)
        if self._kernels.batched:
            return sorted_items, keys, _LazyPack(self._kernels, sorted_items, keys)
        return sorted_items, keys, None

    def _sort_side(
        self, items: list[Item], axis: int, forward: bool
    ) -> tuple[list[Item], list[float]]:
        """Sort one child list and return it with its sweep keys.

        Decorate-sort-undecorate on (key, original index): ties order by
        index, which is exactly the stable order ``sorted(key=...)``
        produces, and each key is computed once instead of per
        comparison.  The keys list is what the scan loops and the packed
        kernels index into.
        """
        self._instr.charge_sort(len(items))
        if forward:
            keyed = sorted((it.rect.lo(axis), i) for i, it in enumerate(items))
        else:
            keyed = sorted((-it.rect.hi(axis), i) for i, it in enumerate(items))
        return [items[i] for _, i in keyed], [k for k, _ in keyed]

    def _window(
        self,
        batch,
        keys: list[float],
        start: int,
        n: int,
        anchor_end: float,
        anchor_rect: Rect,
        limit: float,
    ) -> tuple[list[float] | None, int]:
        """Precompute one anchor's window distances, when worth batching.

        The window is planned with the axis cutoff as of anchor entry;
        cutoffs only tighten during a sweep, so the plan can overshoot
        the final stop position (wasted arithmetic, never charged) but
        the scan loop still decides every stop per pair.  Pairs past the
        planned window fall back to the scalar kernel, which is
        bit-identical.

        Before touching the backend, a single Python list lookup checks
        whether even ``min_window`` pairs can fall inside the cutoff —
        most anchors fail this and skip the per-call kernel overhead
        (searchsorted plus array slicing) entirely.
        """
        if batch is None:
            return None, 0
        probe = start + self._kernels.min_window
        hi_key = anchor_end + limit
        if probe > n or keys[probe - 1] > hi_key:
            return None, 0
        packed = batch.get()
        if packed is None:
            return None, 0
        if math.isinf(limit):
            stop = n
        else:
            stop = self._kernels.window_stop(packed, hi_key)
            if stop > n:
                stop = n
        wn = stop - start
        if wn < self._kernels.min_window:
            return None, 0
        window = self._kernels.window_mindist(packed, start, stop, anchor_rect)
        self._instr.count_kernel_batch(wn)
        return window, wn

    @staticmethod
    def _key(item: Item, axis: int, forward: bool) -> float:
        """Sweep-order coordinate (negated for backward sweeps)."""
        return item.rect.lo(axis) if forward else -item.rect.hi(axis)

    @staticmethod
    def _end(item: Item, axis: int, forward: bool) -> float:
        """Far edge of the item in sweep coordinates."""
        return item.rect.hi(axis) if forward else -item.rect.lo(axis)

    @staticmethod
    def _emit_oriented(
        anchor: Item, m: Item, real: float, anchor_from_r: bool, emit: EmitFn
    ) -> None:
        """Emit with the R-side item first, whichever side anchored."""
        if anchor_from_r:
            emit(anchor, m, real)
        else:
            emit(m, anchor, real)

    def _merge_sweep(
        self,
        sorted_r: list[Item],
        keys_r: list[float],
        batch_r,
        sorted_s: list[Item],
        keys_s: list[float],
        batch_s,
        axis: int,
        forward: bool,
        axis_limit: CutoffFn,
        real_limit: CutoffFn,
        emit: EmitFn,
        anchors: tuple[array, array, array, array] | None,
    ) -> None:
        """Algorithm 1's PlaneSweep loop over both sorted child lists.

        Two observably identical bodies, chosen by hot path.  The legacy
        object-graph path (``flat=None``) delegates each anchor to
        :meth:`_scan`, exactly the loop every release so far has run —
        preserved verbatim so the fallback stays bit- and
        performance-compatible, and so the flat/legacy benchmark
        baseline is the real legacy code, not a detuned copy.  The flat
        hot path runs :meth:`_scan` inlined — the sweep fires once per
        anchor across every expansion, and at the ~2-pair average scan
        length the call overhead (argument packing, the window
        pre-checks, attribute reloads) dominates.  Any semantic change
        must land in both bodies and in :meth:`_scan` (``compensate``
        resumes through it); the three must stay observably identical.

        ``anchors``, when given, are a record's :func:`anchor_columns`;
        both bodies append one row per anchor.
        """
        if anchors is not None:
            add_from_r, add_pos, add_start, add_resume = (
                column.append for column in anchors
            )
        if self._flat is None:
            i = j = 0
            n_r, n_s = len(sorted_r), len(sorted_s)
            while i < n_r and j < n_s:
                from_r = keys_r[i] <= keys_s[j]
                if from_r:
                    anchor, own_pos = sorted_r[i], i
                    start = j
                    other, other_keys, other_batch = sorted_s, keys_s, batch_s
                    i += 1
                else:
                    anchor, own_pos = sorted_s[j], j
                    start = i
                    other, other_keys, other_batch = sorted_r, keys_r, batch_r
                    j += 1
                resume = self._scan(
                    anchor, other, other_keys, other_batch, start, axis,
                    forward, axis_limit, real_limit, emit, from_r,
                )
                if anchors is not None:
                    add_from_r(from_r)
                    add_pos(own_pos)
                    add_start(start)
                    add_resume(resume)
            return
        i = j = 0
        n_r, n_s = len(sorted_r), len(sorted_s)
        min_window = self._kernels.min_window
        sqrt = math.sqrt
        # The cutoff closures may only move via ``emit`` (see
        # :meth:`expand`); when both are the same callable (B-KDJ passes
        # qDmax twice) one read serves both limits.
        same_limit = axis_limit is real_limit
        # The per-anchor counter flush inlined from ``count_axis`` +
        # ``count_real`` (hot: it fires once per anchor at a ~2-pair
        # average scan length), preserving their exact charge order.
        instr = self._instr
        disk = instr.disk
        cost_model = disk.cost_model
        c_axis = cost_model.cpu_axis_distance
        c_real = cost_model.cpu_real_distance
        charge = disk.charge_cpu
        while i < n_r and j < n_s:
            from_r = keys_r[i] <= keys_s[j]
            if from_r:
                anchor, own_pos = sorted_r[i], i
                start = j
                other, other_keys, other_batch = sorted_s, keys_s, batch_s
                i += 1
            else:
                anchor, own_pos = sorted_s[j], j
                start = i
                other, other_keys, other_batch = sorted_r, keys_r, batch_r
                j += 1
            anchor_rect = anchor.rect
            a_xmin = anchor_rect.xmin
            a_ymin = anchor_rect.ymin
            a_xmax = anchor_rect.xmax
            a_ymax = anchor_rect.ymax
            if forward:
                anchor_end = a_xmax if axis == 0 else a_ymax
            else:
                anchor_end = -(a_xmin if axis == 0 else a_ymin)
            n = len(other)
            axis_lim = axis_limit()
            real_lim = axis_lim if same_limit else real_limit()
            window = None
            wn = 0
            if other_batch is not None:
                probe = start + min_window
                if probe <= n and other_keys[probe - 1] <= anchor_end + axis_lim:
                    window, wn = self._window(
                        other_batch, other_keys, start, n,
                        anchor_end, anchor_rect, axis_lim,
                    )
            stop = n
            broke = False
            for idx in range(start, n):
                if other_keys[idx] - anchor_end > axis_lim:
                    stop = idx
                    broke = True
                    break
                off = idx - start
                m = other[idx]
                if off < wn:
                    real = window[off]
                else:
                    # ``min_distance`` inlined (same operations, same
                    # order, bit-identical result): the call overhead on
                    # a ~2-entry average scan is measurable.
                    m_rect = m.rect
                    dx = a_xmin - m_rect.xmax
                    gap = m_rect.xmin - a_xmax
                    if gap > dx:
                        dx = gap
                    dy = a_ymin - m_rect.ymax
                    gap = m_rect.ymin - a_ymax
                    if gap > dy:
                        dy = gap
                    if dx <= 0.0:
                        real = dy if dy > 0.0 else 0.0
                    elif dy <= 0.0:
                        real = dx
                    else:
                        real = sqrt(dx * dx + dy * dy)
                if real <= real_lim:
                    if from_r:
                        emit(anchor, m, real)
                    else:
                        emit(m, anchor, real)
                    axis_lim = axis_limit()
                    real_lim = axis_lim if same_limit else real_limit()
            # Per-anchor flush, in :meth:`_scan`'s exact order: the
            # simulated clock is a float accumulator, so aggregating the
            # charges across anchors would drift from the legacy path at
            # the ulp level.
            scanned = stop - start
            n_axis = scanned + 1 if broke else scanned
            instr.axis_distance_computations += n_axis
            charge(n_axis * c_axis)
            if scanned:
                instr.real_distance_computations += scanned
                charge(scanned * c_real)
            if anchors is not None:
                add_from_r(from_r)
                add_pos(own_pos)
                add_start(start)
                add_resume(stop)

    def _scan(
        self,
        anchor: Item,
        other: list[Item],
        other_keys: list[float],
        other_batch,
        start: int,
        axis: int,
        forward: bool,
        axis_limit: CutoffFn,
        real_limit: CutoffFn,
        emit: EmitFn,
        anchor_from_r: bool,
    ) -> int:
        """SweepPruning: pair the anchor with nodes within the cutoff.

        Real distances come from the batched window when the kernels
        backend packed one (bit-identical to the scalar path).  Both
        cutoffs are cached as floats and refreshed only after an emit —
        exact, because only the emit callback can move them (see
        :meth:`expand`) — so the scan stops, emits and counts exactly
        as a per-pair re-reading sweep does.

        Returns the index of the first node *not* examined (the resume
        position for compensation), ``len(other)`` when the scan
        exhausted the list.
        """
        instr = self._instr
        anchor_end = self._end(anchor, axis, forward)
        anchor_rect = anchor.rect
        n = len(other)
        axis_lim = axis_limit()
        real_lim = real_limit()
        window, wn = self._window(
            other_batch, other_keys, start, n, anchor_end, anchor_rect, axis_lim
        )
        axis_checked = 0
        real_done = 0
        stop = n
        for idx in range(start, n):
            axis_checked += 1
            # Unclamped gap: for the nonnegative limits the engines pass,
            # ``raw > limit`` and ``max(0, raw) > limit`` are the same test.
            if other_keys[idx] - anchor_end > axis_lim:
                stop = idx
                break
            off = idx - start
            real = (
                window[off] if off < wn else min_distance(anchor_rect, other[idx].rect)
            )
            real_done += 1
            if real <= real_lim:
                self._emit_oriented(anchor, other[idx], real, anchor_from_r, emit)
                axis_lim = axis_limit()
                real_lim = real_limit()
        instr.count_axis(axis_checked)
        instr.count_real(real_done)
        return stop
