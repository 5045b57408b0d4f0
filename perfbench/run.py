"""The repository's benchmark: distance joins as one closed-loop client.

Run from the repository root::

    python3 perfbench/run.py --workload kdj-fig10 --seed 1 --seconds 10 --trace 0

``--trace 0`` is the timed pass.  It sets up the seed's datasets, then
repeats whole rounds (one cycle of the workload's operations on each
dataset) until ``--seconds`` have passed, checks every answer and
prints every end-to-end metric.  A background thread samples the
host's speed while the rounds run (``speed.py``), and the bounded CPU
time is scaled by it to reference seconds.

``--trace 1`` is the traced pass.  On the first dataset it runs one
cycle untraced, then the same cycle again with the entry points of each
layer module wrapped (``spans.py``), and prints the per-layer metrics.
Its numbers never feed the end-to-end metrics; the ratio of the two
passes' wall times is reported as ``trace.overhead``.  The spans are written to
``perfbench/out/``.

Human-readable lines go to stdout first; the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A wrong answer, a failed operation or, on the sequential
workloads, a counter that differs between the traced and the untraced
pass makes the command exit with status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics with a bound: name -> unit.  ``BENCHMARK.json``
#: lists the same.  Only aggregates over a whole round, with CPU time
#: scaled by the host's speed (``speed.py``), stayed steady across seeds
#: and across the host's swings; the wall-time figures are printed
#: beside them (see ``operation_figures``) and reported by the traced pass.
END_TO_END = {
    "setup_s": "s",
    "ref_cpu_s_per_kpair": "s",
    "sim_response_s": "s",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics of the traced pass: name -> unit.
PER_LAYER = {
    "ops.pairs_per_s": "1/s",
    "ops.query_p50_s": "s",
    "ops.query_tail_s": "s",
    "ops.query_cpu_p50_s": "s",
    "ops.first_page_p50_s": "s",
    "planesweep.self_s": "s",
    "planesweep.expansions": "count",
    "planesweep.real_comps": "count",
    "planesweep.axis_comps": "count",
    "planesweep.yield": "ratio",
    "main_queue.self_s": "s",
    "main_queue.insertions": "count",
    "main_queue.spilled": "count",
    "main_queue.splits": "count",
    "main_queue.swap_ins": "count",
    "main_queue.peak": "count",
    "main_queue.spill_share": "ratio",
    "distance_queue.self_s": "s",
    "distance_queue.insertions": "count",
    "compensation.self_s": "s",
    "compensation.stages": "count",
    "compensation.peak": "count",
    "estimation.edmax_ratio": "ratio",
    "external_sort.self_s": "s",
    "kernels.self_s": "s",
    "kernels.batches": "count",
    "kernels.pairs_per_batch": "count",
    "kernels.plan_cache_hit_ratio": "ratio",
    "kernels.arena_build_s": "s",
    "storage.self_s": "s",
    "storage.logical_reads": "count",
    "storage.physical_reads": "count",
    "storage.hit_ratio": "ratio",
    "storage.sim_io_s": "s",
    "storage.sim_cpu_s": "s",
    "engine.self_s": "s",
    "unattributed.self_s": "s",
    "parallel.speedup": "ratio",
    "parallel.dist_comp_overhead": "ratio",
    "parallel.cpu_util": "ratio",
    "parallel.stages": "count",
    "parallel.child_peak_rss_mib": "MiB",
    "checkpoint.self_s": "s",
    "checkpoint.captures": "count",
    "checkpoint.stall_max_s": "s",
    "checkpoint.mib_per_capture": "MiB",
    "checkpoint.written_mib": "MiB",
    "datagen.generate_s": "s",
    "rtree.bulk_load_s": "s",
    "setup.reference_s": "s",
    "trace.overhead": "ratio",
}

#: Layers whose spans the traced pass records, in ``PER_LAYER`` order.
SPAN_LAYERS = ("planesweep", "main_queue", "distance_queue", "compensation",
               "external_sort", "kernels", "storage", "engine", "checkpoint")

MIB = 1024.0 * 1024.0
TAIL_BEYOND = 10


# ----------------------------------------------------------------------
# Process-level measurements
# ----------------------------------------------------------------------


def written_bytes() -> int:
    """Bytes this process has passed to ``write`` so far (Linux ``wchar``)."""
    try:
        with open("/proc/self/io", encoding="ascii") as f:
            for line in f:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs so far, from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def process_cpu() -> float:
    """CPU seconds of this process and its reaped children so far."""
    return time.process_time() + children_cpu()


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait for every worker process a join started to end."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process and wait for it.

    The shared-memory engine starts it implicitly; left alone it ends
    only after this process has exited.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def peak_rss_mib(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without ``.git``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args, backend: str) -> dict:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    usable = len(affinity) if affinity is not None else os.cpu_count()
    prov = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": affinity,
        "kernels_backend": backend,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if args.workload == "kdj-parallel-durable":
        from workloads import PARALLEL_WORKERS

        prov["parallel_workers"] = PARALLEL_WORKERS
        prov["parallel_label"] = (
            "not a scaling measurement" if (usable or 1) < PARALLEL_WORKERS
            else "scaling measurement"
        )
    return prov


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------


@dataclass
class Sample:
    """One timed operation."""

    name: str
    k: int
    wall: float
    cpu: float
    written: int
    pairs: int
    problems: list[str]
    stats: object | None = None
    first: bool = False
    realized_dmax: float = 0.0
    spans: object | None = None
    parallel: bool = False
    durable: bool = False


def measure(op, recorder=None, install=None, meter=None) -> Sample:
    """Run one operation: time it, reap its workers, then check it.

    With a ``recorder``, ``install`` wraps the layer entry points for a
    join that runs in this process; a parallel join's workers are other
    processes, so it gets only its own root span.  With a ``meter``
    (``speed.Speedometer``), its own CPU time is left out, and it is
    paused while a parallel join's workers run.
    """
    def clock() -> float:
        return process_cpu() - (meter.cpu() if meter is not None else 0.0)

    wrapped = recorder is not None and install is not None and not op.parallel
    if wrapped:
        install()
    hold = meter.paused() if meter is not None and op.parallel else contextlib.nullcontext()
    written0 = written_bytes()
    cpu0 = clock()
    if recorder is not None:
        recorder.begin_op(op.name)
    started = time.perf_counter()
    outcome, error = None, None
    try:
        with hold:
            outcome = op.run()
    except Exception as exc:  # an operation that raises counts as failed
        error = f"{op.name}: {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    spans = recorder.end_op() if recorder is not None else None
    if wrapped:
        recorder.remove()
    reap_children()
    cpu = clock() - cpu0
    written = written_bytes() - written0
    if outcome is None:
        return Sample(op.name, op.k, wall, cpu, written, 0, [error], spans=spans,
                      parallel=op.parallel, durable=op.durable)
    problems = [f"{op.name}: {p}" for p in outcome.check()]
    return Sample(op.name, op.k, wall, cpu, written, len(outcome.pairs), problems,
                  outcome.stats, outcome.first, outcome.realized_dmax, spans,
                  op.parallel, op.durable)


def run_rounds(workload, datasets, workdir, seconds: float | None, recorder=None,
               install=None, meter=None):
    """Whole rounds until ``seconds`` have passed (one round when None).

    A round runs the cycle's operations once, spread over the datasets
    (``workloads.round_ops``).  Returns the samples, the number of
    rounds and the share of CPU time the hypervisor stole meanwhile
    (noise the benchmark cannot remove).
    """
    from workloads import round_ops

    samples: list[Sample] = []
    rounds = 0
    started = time.perf_counter()
    steal0, total0 = cpu_jiffies()
    while True:
        # Collect before the round, not before each operation: with a
        # stream's millions of queue entries live, a full collection
        # costs more than the page it would precede.
        gc.collect()
        for op in round_ops(workload, datasets, workdir):
            samples.append(measure(op, recorder, install, meter))
        rounds += 1
        if seconds is None or time.perf_counter() - started >= seconds:
            steal1, total1 = cpu_jiffies()
            return samples, rounds, _ratio(steal1 - steal0, total1 - total0)


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten operations beyond it.

    With ``n`` sorted values that is the ``(n - 10)``-th value, the
    ``100 * (n - 10) / n`` percentile.  When that value would not lie
    above the median (``n`` of 21 or fewer) no tail percentile exists,
    and the maximum is reported, labelled so.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1
    if 2 * index > n - 1:
        return ordered[index], f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n}"
    return ordered[-1], (f"max of {n}: no percentile above the median has "
                         f"{TAIL_BEYOND} operations beyond it")


def operation_figures(samples: list[Sample]) -> dict[str, tuple[float, str, str]]:
    """Wall-time figures of the operations: name -> (value, unit, how).

    A k-distance join delivers its whole answer at once, so its first
    page is the join itself.
    """
    walls = [s.wall for s in samples]
    tail_value, tail_label = tail(walls)
    return {
        "pairs_per_s": (sum(s.pairs for s in samples) / sum(walls), "1/s",
                        "pairs per wall second"),
        "query_p50_s": (statistics.median(walls), "s", "median"),
        "query_tail_s": (tail_value, "s", tail_label),
        "query_cpu_p50_s": (statistics.median(s.cpu for s in samples), "s", "median"),
        "first_page_p50_s": (statistics.median(s.wall for s in samples if s.first), "s",
                             "median over streams"),
    }


def end_to_end(samples: list[Sample], rounds: int, inputs,
               speed: float) -> tuple[dict, dict, dict]:
    """The bounded metrics; ``inputs`` is the first dataset, the one
    ``setup_s`` times, and ``speed`` the host's over the rounds."""
    pairs = sum(s.pairs for s in samples)
    cpu_per_kpair = 1000.0 * sum(s.cpu for s in samples) / pairs
    sim = sum(s.stats.response_time for s in samples if s.stats is not None)
    values = {
        "setup_s": inputs.setup_s,
        "ref_cpu_s_per_kpair": cpu_per_kpair * speed,
        "sim_response_s": sim / rounds,
        "peak_rss_mib": peak_rss_mib(),
    }
    notes = {
        "operations": len(samples),
        "rounds": rounds,
        "setup_samples_s": [round(x, 4) for x in inputs.setup_samples],
    }
    unbounded = operation_figures(samples)
    unbounded["cpu_s_per_kpair"] = (cpu_per_kpair, "s", "CPU seconds, not scaled")
    unbounded["host_speed"] = (speed, "ratio", "over the rounds; 1 is the reference")
    unbounded["setup_wall_s"] = (inputs.setup_wall_s, "s", "wall time of setup_s")
    unbounded["written_mib"] = (
        statistics.median(s.written for s in samples) / MIB, "MiB", "median per operation")
    unbounded["largest_child_rss_mib"] = (
        peak_rss_mib(resource.RUSAGE_CHILDREN), "MiB", "largest reaped child")
    return values, notes, unbounded


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def layer_targets(backend_cls):
    """``(layer, owner, attribute)`` for every wrapped entry point."""
    from repro.core import amidj, amkdj, bkdj, hs, sjsort
    from repro.core.planesweep import PlaneSweeper
    from repro.kernels.flat import FlatHotPath
    from repro.queues.compensation import CompensationQueue
    from repro.queues.distance_queue import DistanceQueue
    from repro.queues.external_sort import ExternalSorter
    from repro.queues.main_queue import MainQueue
    from repro.rtree.tree import TreeAccessor

    kernel_methods = [
        name for name, value in vars(backend_cls).items()
        if callable(value) and not name.startswith("_")
    ]
    return (
        [("planesweep", PlaneSweeper, "expand"),
         ("compensation", PlaneSweeper, "compensate"),
         ("compensation", CompensationQueue, "enqueue"),
         ("compensation", CompensationQueue, "drain")]
        + [("main_queue", MainQueue, name) for name in
           ("insert", "push_many", "pop", "peek_key", "pop_heads", "peek_head",
            "consume_head", "flush_heads")]
        + [("distance_queue", DistanceQueue, "insert"),
           ("distance_queue", DistanceQueue, "push_many"),
           ("external_sort", ExternalSorter, "sort")]
        + [("kernels", backend_cls, name) for name in kernel_methods]
        + [("kernels", FlatHotPath, name) for name in
           ("build", "sorted_side", "entry_block")]
        + [("storage", TreeAccessor, "get")]
        + [("engine", module, name) for module, name in
           ((bkdj, "bkdj"), (amkdj, "amkdj"), (hs, "hs_kdj"), (hs, "hs_idj"),
            (amidj, "amidj"), (sjsort, "sj_sort"))]
    )


def checkpoint_targets():
    from repro.resilience.checkpoint import CheckpointManager

    return [("checkpoint", CheckpointManager, "barrier")]


def keep_capture(args, wrote):
    """A barrier that wrote is kept whole, with the bytes it wrote."""
    return args[0].last.get("bytes", 0) if wrote else None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _extra(stats, key: str) -> float:
    value = stats.extra.get(key, 0.0)
    return float(value) if isinstance(value, (int, float)) else 0.0


def per_layer(inputs, untraced, traced, sequential_walls) -> dict:
    """Per-layer metrics: counters from the untraced cycle, times from the
    traced one.  Counts are means per join (a stream is one join)."""
    joins = [s.stats for s in untraced if s.stats is not None]
    n = len(joins)

    def mean(attr: str) -> float:
        return sum(getattr(j, attr) for j in joins) / n

    def total(attr: str) -> float:
        return sum(getattr(j, attr) for j in joins)

    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    kept: list[tuple[int, int]] = []
    for s in traced:
        for layer, (count, _, own) in s.spans.layers.items():
            calls[layer] = calls.get(layer, 0) + count
            self_ns[layer] = self_ns.get(layer, 0) + own
        kept.extend(s.spans.kept.get("checkpoint", []))

    def self_s(layer: str) -> float:
        """Mean self seconds of ``layer`` per traced operation."""
        return self_ns.get(layer, 0) / 1e9 / len(traced)

    batches = sum(_extra(j, "kernels.batches") for j in joins)
    hits = sum(_extra(j, "kernels.plan_cache_hits") for j in joins)
    misses = sum(_extra(j, "kernels.plan_cache_misses") for j in joins)
    logical = total("node_accesses_unbuffered")
    physical = total("node_accesses")
    edmax = [s.stats.edmax_initial / s.realized_dmax for s in untraced
             if s.stats is not None and s.stats.edmax_initial > 0 and s.realized_dmax > 0]
    values = {f"ops.{name}": value for name, (value, _, _) in operation_figures(untraced).items()}
    values.update({
        "planesweep.expansions": calls.get("planesweep", 0) / n,
        "planesweep.real_comps": mean("real_distance_computations"),
        "planesweep.axis_comps": mean("axis_distance_computations"),
        "planesweep.yield": _ratio(total("queue_insertions") + total("results"),
                                   total("real_distance_computations")),
        "main_queue.insertions": mean("queue_insertions"),
        "main_queue.spilled": mean("queue_spilled_entries"),
        "main_queue.splits": mean("queue_splits"),
        "main_queue.swap_ins": mean("queue_swap_ins"),
        "main_queue.peak": max(j.queue_peak_size for j in joins),
        "main_queue.spill_share": _ratio(total("queue_spilled_entries"),
                                         total("queue_insertions")),
        "distance_queue.insertions": mean("distance_queue_insertions"),
        "compensation.stages": mean("compensation_stages"),
        "compensation.peak": max(j.compensation_peak for j in joins),
        "estimation.edmax_ratio": statistics.mean(edmax) if edmax else 0.0,
        "kernels.batches": batches / n,
        "kernels.pairs_per_batch": _ratio(
            sum(_extra(j, "kernels.batched_pairs") for j in joins), batches),
        "kernels.plan_cache_hit_ratio": _ratio(hits, hits + misses),
        "storage.logical_reads": logical / n,
        "storage.physical_reads": physical / n,
        "storage.hit_ratio": 1.0 - _ratio(physical, logical) if logical else 0.0,
        "storage.sim_io_s": mean("io_time"),
        "storage.sim_cpu_s": mean("cpu_time"),
        "checkpoint.captures": len(kept) / n,
        "checkpoint.stall_max_s": max((d for d, _ in kept), default=0) / 1e9,
        "checkpoint.mib_per_capture": _ratio(sum(b for _, b in kept), len(kept)) / MIB,
        "checkpoint.written_mib": statistics.mean(
            [s.written for s in untraced if s.durable] or [0]) / MIB,
        "trace.overhead": sum(s.wall for s in traced) / sum(s.wall for s in untraced),
        "parallel.speedup": 0.0,
        "parallel.dist_comp_overhead": 0.0,
        "parallel.cpu_util": 0.0,
        "parallel.stages": 0.0,
        "parallel.child_peak_rss_mib": 0.0,
    })
    for layer in SPAN_LAYERS:
        values[f"{layer}.self_s"] = self_s(layer)
    values["unattributed.self_s"] = self_s("op")
    values.update(inputs.steps)
    parallel = [s for s in untraced if s.parallel]
    if parallel:
        from workloads import PARALLEL_WORKERS

        seq_wall, seq_comps = sequential_walls
        values["parallel.speedup"] = statistics.median(
            seq_wall[s.k] / s.wall for s in parallel)
        values["parallel.dist_comp_overhead"] = statistics.mean(
            s.stats.real_distance_computations / seq_comps[s.k] for s in parallel)
        values["parallel.cpu_util"] = statistics.mean(
            s.cpu / (s.wall * PARALLEL_WORKERS) for s in parallel)
        values["parallel.stages"] = statistics.mean(
            _extra(s.stats, "parallel_stages") for s in parallel)
        values["parallel.child_peak_rss_mib"] = peak_rss_mib(resource.RUSAGE_CHILDREN)
    return values


def counter_mismatches(untraced, traced) -> list[str]:
    """Joins whose counters differ between the untraced and traced pass.

    Parallel joins are exempt: the shm engine's counters vary from run
    to run.
    """
    problems = []
    for a, b in zip(untraced, traced):
        if a.stats is None or a.parallel:
            continue
        row_a, row_b = a.stats.as_row(), b.stats.as_row()
        row_a.pop("wall_time")
        row_b.pop("wall_time")
        if row_a != row_b:
            diff = sorted(key for key in row_a if row_a[key] != row_b[key])
            problems.append(f"{a.name}: traced counters differ in {', '.join(diff)}")
    return problems


def sequential_reference(inputs, ks) -> tuple[dict, dict, list[Sample]]:
    """Sequential AM-KDJ at each k, for the parallel speedup."""
    from repro import JoinConfig
    from workloads import kdj_op

    walls, comps, samples = {}, {}, []
    for k in sorted(set(ks)):
        sample = measure(kdj_op(inputs, JoinConfig(), "amkdj", k, f"amkdj:seq:k={k}"))
        walls[k] = sample.wall
        comps[k] = sample.stats.real_distance_computations if sample.stats else 1
        samples.append(sample)
    return walls, comps, samples


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


@dataclass
class Report:
    """What one run prints: the bounded metrics and everything around them."""

    units: dict
    values: dict
    attempted: int
    failed: int
    problems: list[str]
    notes: dict
    unbounded: dict = field(default_factory=dict)


def timed_pass(args, workdir) -> Report:
    """Set up every dataset, then whole rounds."""
    import workloads

    datasets = [workloads.build_inputs(args.seed, args.scale, process_cpu)]
    for index in range(1, workloads.DATASETS[args.workload]):
        datasets.append(workloads.build_inputs(
            workloads.dataset_seed(args.seed, index), args.scale, process_cpu, reps=1))
    with Speedometer() as meter:
        samples, rounds, steal = run_rounds(args.workload, datasets, workdir, args.seconds,
                                            meter=meter)
        speed, bursts = meter.speed()
    values, notes, unbounded = end_to_end(samples, rounds, datasets[0], speed)
    notes["dataset_seeds"] = [d.seed for d in datasets]
    notes["speed_bursts"] = bursts
    notes["cpu_steal_share"] = round(steal, 4)
    return Report(END_TO_END, values, len(samples),
                  sum(1 for s in samples if s.problems),
                  [p for s in samples for p in s.problems], notes, unbounded)


def traced_pass(args, workdir, backend_cls, prov) -> Report:
    """One cycle untraced, the same cycle traced, then the comparison,
    on the first dataset."""
    import workloads
    from spans import SpanRecorder

    inputs = workloads.build_inputs(args.seed, args.scale, process_cpu)
    untraced, _, steal = run_rounds(args.workload, [inputs], workdir, None)
    recorder = SpanRecorder()

    # Workers of the parallel engines are separate processes that the
    # parent's wrappers cannot see, so a parallel join records only the
    # operation itself and takes its layer numbers from counters.
    def install() -> None:
        recorder.install(layer_targets(backend_cls))
        recorder.install(checkpoint_targets(), keep=keep_capture)

    try:
        traced, _, _ = run_rounds(args.workload, [inputs], workdir, None, recorder, install)
    finally:
        recorder.remove()
    extra: list[Sample] = []
    sequential_walls = None
    parallel_ks = [s.k for s in untraced if s.parallel]
    if parallel_ks:
        walls, comps, extra = sequential_reference(inputs, parallel_ks)
        sequential_walls = (walls, comps)
    everything = untraced + traced + extra
    problems = [p for s in everything for p in s.problems]
    failed = sum(1 for s in everything if s.problems)
    if not problems:
        mismatched = counter_mismatches(untraced, traced)
        problems += mismatched
        failed += len(mismatched)
    values = per_layer(inputs, untraced, traced, sequential_walls)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    recorder.dump(out / f"spans-{args.workload}-seed{args.seed}.json",
                  {**prov, "untraced_wall_ns": [round(s.wall * 1e9) for s in untraced]})
    return Report(PER_LAYER, values, len(everything), failed, problems,
                  {"operations_per_pass": len(untraced), "cpu_steal_share": round(steal, 4)})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the Figure-10 cardinalities and k values "
                             "(the benchmark's own tests use a tiny scale)")
    return parser.parse_args(argv)


def emit(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> None:
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro import JoinConfig
    from repro.kernels import resolve_backend

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    backend = resolve_backend(JoinConfig().kernels)
    prov = provenance(args, backend.name)
    print("provenance " + json.dumps(prov))
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            report = traced_pass(args, workdir, type(backend), prov)
        else:
            report = timed_pass(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        reap_children()
        stop_resource_tracker()

    for name, unit in report.units.items():
        print(f"{name} {report.values[name]:.6g} {unit}")
    for name, (value, unit, how) in report.unbounded.items():
        print(f"{name} {value:.6g} {unit} (no bound; {how})")
    print(f"error_rate {report.failed / report.attempted:.6g} ratio "
          f"({report.failed} of {report.attempted} operations)")
    print("notes " + json.dumps(report.notes))
    for problem in report.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = not report.problems
    emit(correct, report.attempted, report.failed, report.values, report.units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
