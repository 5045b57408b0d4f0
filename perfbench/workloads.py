"""Workload inputs and operations.

Every workload joins the TIGER substitute (``datagen.tiger``) at the
Figure-10 scale, 60,000 streets x 20,000 hydrography objects, generated
from the benchmark's ``--seed``.  A workload is a fixed *cycle* of
operations that one closed-loop client issues back to back.  A *round*
runs the same operations, but spreads the cycle's joins and streams
over the workload's datasets (``DATASETS``, ``round_ops``): the first is
generated from the seed itself, the others from seeds derived from it,
so that a round averages over several town layouts.  The timed pass
repeats whole rounds, so every run measures the same mix.

An operation is one k-distance join, or one page pulled from an
incremental stream.  Each operation returns an :class:`Outcome` that
the runner times, checks against the reference and folds into metrics.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from answers import Reference, StreamCursor, rect_array

import numpy as np
from repro import JoinConfig, JoinRunner, RTree
from repro.datagen.tiger import synthetic_tiger
from repro.kernels import resolve_backend
from repro.kernels.flat import FlatHotPath

FIG10_STREETS = 60_000
FIG10_HYDRO = 20_000
KS = (1_000, 10_000, 30_000)
PAGE = 100
PAGES_PER_STREAM = 300
DURABLE_K = 10_000
CHECKPOINT_EVERY = 5_000
PARALLEL_WORKERS = 2
#: Repetitions of generating and indexing the first dataset per run.
SETUP_REPS = 3

WORKLOADS = {
    "kdj-fig10": "B-KDJ, AM-KDJ and SJ-SORT over the Figure-10 k sweep; "
                 "the plane sweep is the largest layer",
    "idj-paging": "fresh AM-IDJ and HS-IDJ streams pulled page by page; "
                  "the main queue is the largest layer",
    "kdj-parallel-durable": "AM-KDJ with 2 workers in the shared-memory "
                            "(shm-process) and tiled (process) engines, and "
                            "sequential with pair-cadence checkpoints and "
                            "main-queue spills to real files",
}

#: Datasets per run: one per unit of the cycle (``round_ops``), as far
#: as the set-up time (about 4 s a dataset) allows.
DATASETS = {"kdj-fig10": 3, "idj-paging": 2, "kdj-parallel-durable": 4}


def scaled(value: int, scale: float) -> int:
    return max(1, round(value * scale))


@dataclass
class Inputs:
    """One dataset's trees and checked reference answer."""

    seed: int
    scale: float
    tree_r: RTree
    tree_s: RTree
    reference: Reference
    #: Wall seconds of each set-up step (medians over the repetitions).
    steps: dict[str, float]
    #: CPU seconds of set-up, worker processes included.
    setup_s: float
    setup_wall_s: float
    #: Wall seconds of each repetition of generating and indexing.
    setup_samples: list[float]


def dataset_seed(seed: int, index: int) -> int:
    """The generator seed of a run's ``index``-th dataset: the seed
    itself first, then 32-bit seeds derived from it by ``SeedSequence``."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _build_trees(seed: int, scale: float):
    """Generate the datasets and index them: the repeated part of set-up."""
    steps = {}
    t = time.perf_counter()
    data = synthetic_tiger(scaled(FIG10_STREETS, scale), scaled(FIG10_HYDRO, scale),
                           seed=seed)
    steps["datagen.generate_s"] = time.perf_counter() - t
    t = time.perf_counter()
    tree_r = RTree.bulk_load(data.streets)
    tree_s = RTree.bulk_load(data.hydro)
    steps["rtree.bulk_load_s"] = time.perf_counter() - t
    t = time.perf_counter()
    FlatHotPath.build(tree_r, tree_s, resolve_backend(JoinConfig().kernels))
    steps["kernels.arena_build_s"] = time.perf_counter() - t
    return data, tree_r, tree_s, steps


def build_inputs(seed: int, scale: float,
                 cpu_clock: Callable[[], float] = time.process_time,
                 reps: int = SETUP_REPS) -> Inputs:
    """Set up one dataset and a cross-checked reference answer.

    Generating, bulk-loading and warming the arena run ``reps`` times
    and the last trees are kept; the reference top-K is computed once on
    them.  ``setup_s`` is the median CPU time of the repetitions plus
    the reference's (``cpu_clock`` should count worker processes);
    ``setup_wall_s`` is the same in wall time.
    """
    walls, cpus, all_steps = [], [], []
    for _ in range(reps):
        wall0, cpu0 = time.perf_counter(), cpu_clock()
        data, tree_r, tree_s, steps = _build_trees(seed, scale)
        walls.append(time.perf_counter() - wall0)
        cpus.append(cpu_clock() - cpu0)
        all_steps.append(steps)
    steps = {name: statistics.median(s[name] for s in all_steps) for name in all_steps[0]}
    k_ref = scaled(KS[-1], scale)
    wall0, cpu0 = time.perf_counter(), cpu_clock()
    # The shared-memory engine is the cheapest exact top-K here.  The
    # sequential SJ-SORT cross-check below guards it: given the
    # reference's K-th distance as its a-priori Dmax, it finds every pair
    # within it by a sort-based plane sweep, so a pair the reference
    # missed or a distance it got wrong shows up as a disagreement.
    parallel = JoinConfig(parallel=PARALLEL_WORKERS, parallel_mode="shm-process")
    pairs = JoinRunner(tree_r, tree_s, parallel).kdj(k_ref, "amkdj").results
    steps["setup.reference_s"] = time.perf_counter() - wall0
    reference_cpu = cpu_clock() - cpu0
    reference = Reference(rect_array(data.streets), rect_array(data.hydro), pairs)
    second = JoinRunner(tree_r, tree_s, JoinConfig()).kdj(
        k_ref, "sjsort", dmax=reference.distances[-1]).results
    problems = reference.check_topk(second, k_ref)
    if problems:
        raise ValueError("reference and SJ-SORT disagree: " + problems[0])
    return Inputs(seed, scale, tree_r, tree_s, reference, steps,
                  setup_s=statistics.median(cpus) + reference_cpu,
                  setup_wall_s=statistics.median(walls) + steps["setup.reference_s"],
                  setup_samples=walls)


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one operation delivered, and how to check it.

    ``check`` runs after the operation's clock has stopped and returns
    the problems found (empty when the answer is right).
    """

    pairs: list
    check: Callable[[], list[str]]
    #: The finished join's stats (a KDJ op, or a stream's last page).
    stats: object | None = None
    #: True for a stream's first page (``first_page_p50_s``).
    first: bool = False
    #: Largest distance delivered by the finished join (eDmax ratio).
    realized_dmax: float = 0.0


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]
    #: The join's k (0 for a page); parallel ops are compared with a
    #: sequential AM-KDJ at the same k.
    k: int = 0
    #: Whether the join runs in worker processes.
    parallel: bool = False
    #: Whether the join writes checkpoints and spill files.
    durable: bool = False


def kdj_op(inputs: Inputs, config: JoinConfig, algorithm: str, k: int,
           name: str) -> Op:
    ref = inputs.reference
    dmax = ref.distances[k - 1] if algorithm == "sjsort" else None

    def run() -> Outcome:
        result = JoinRunner(inputs.tree_r, inputs.tree_s, config).kdj(
            k, algorithm, dmax=dmax)
        pairs = result.results
        return Outcome(pairs, lambda: ref.check_topk(pairs, k), result.stats,
                       first=True,
                       realized_dmax=pairs[-1].distance if pairs else 0.0)

    return Op(name, run, k=k, parallel=config.parallel > 1,
              durable=config.checkpoint_path is not None)


def _stream_ops(inputs: Inputs, algorithm: str, pages: int, size: int) -> list[Op]:
    """One fresh stream: opening it is part of the first page's time,
    closing it part of the last page's."""
    ref = inputs.reference
    state: dict = {}

    def page(index: int) -> Outcome:
        if index == 0:
            state["stream"] = JoinRunner(inputs.tree_r, inputs.tree_s).idj(algorithm)
            state["cursor"] = StreamCursor()
        stream, cursor = state["stream"], state["cursor"]
        pairs = stream.next_batch(size)
        stats = None
        if index == pages - 1:
            stats = stream.stats()
            stream.close()
        return Outcome(pairs, lambda: ref.check_page(pairs, size, cursor), stats,
                       first=index == 0,
                       realized_dmax=pairs[-1].distance if pairs else 0.0)

    return [Op(f"{algorithm}:page{i + 1}", lambda i=i: page(i)) for i in range(pages)]


def cycle(workload: str, inputs: Inputs, workdir: Path) -> list[Op]:
    """A fresh list of the operations of one cycle of ``workload``."""
    return [op for unit in units(workload, inputs, workdir) for op in unit]


def round_ops(workload: str, datasets: list[Inputs], workdir: Path) -> list[Op]:
    """The operations of one round: the cycle's units, the ``j``-th on
    dataset ``(j + j // n) % n`` of ``n``.

    Every unit runs once per round, each on one dataset.  On
    ``kdj-fig10`` (9 joins, 3 datasets) the rule is a Latin square:
    every dataset gets one join of each k and one of each engine.
    """
    n = len(datasets)
    per_dataset = [units(workload, inputs, workdir) for inputs in datasets]
    return [op for j in range(len(per_dataset[0]))
            for op in per_dataset[(j + j // n) % n][j]]


def units(workload: str, inputs: Inputs, workdir: Path) -> list[list[Op]]:
    """The cycle of ``workload`` on one dataset, as units that must run
    on the same dataset: one join, or all the pages of one stream."""
    scale = inputs.scale
    ks = [scaled(k, scale) for k in KS]
    base = JoinConfig()
    if workload == "kdj-fig10":
        return [
            [kdj_op(inputs, base, algorithm, k, f"{algorithm}:k={k}")]
            for k in ks
            for algorithm in ("bkdj", "amkdj", "sjsort")
        ]
    if workload == "idj-paging":
        size = scaled(PAGE, scale)
        return [_stream_ops(inputs, "amidj", PAGES_PER_STREAM, size),
                _stream_ops(inputs, "hs", PAGES_PER_STREAM, size)]
    if workload == "kdj-parallel-durable":
        # The tiled engine runs at the largest k only: at k = 10,000 its
        # simulated cost varies 2.5x from seed to seed (how the tiles
        # split the skewed towns), more than any bound could absorb.
        runs = [("shm-process", ks[1]), ("shm-process", ks[2]), ("process", ks[2])]
        ops = [
            kdj_op(inputs, replace(base, parallel=PARALLEL_WORKERS, parallel_mode=mode),
                   "amkdj", k, f"amkdj:{mode}:k={k}")
            for mode, k in runs
        ]
        spill = workdir / "spill"
        spill.mkdir(parents=True, exist_ok=True)
        durable = replace(
            base,
            spill_dir=str(spill),
            checkpoint_path=str(workdir / "join.ckpt"),
            checkpoint_every_pairs=scaled(CHECKPOINT_EVERY, scale),
        )
        k = scaled(DURABLE_K, scale)
        return [[op] for op in ops] + [[kdj_op(inputs, durable, "amkdj", k,
                                               f"amkdj:durable:k={k}")]]
    raise ValueError(f"unknown workload {workload!r}")
