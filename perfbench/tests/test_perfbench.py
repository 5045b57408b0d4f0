"""Tests of the benchmark itself, at a tiny seeded size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from answers import Reference, StreamCursor, min_distances  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from speed import Speedometer  # noqa: E402

from repro.core.pairs import ResultPair  # noqa: E402
from repro.kernels import resolve_backend  # noqa: E402

TINY = 0.02
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", str(TINY)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny():
    return workloads.build_inputs(seed=3, scale=TINY)


# -- the command ----------------------------------------------------------


def test_spec_matches_the_metric_tables():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, doc = bench(workload, seed=1, trace=trace)
    assert proc.returncode == 0, proc.stderr
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(doc["metrics"]) == set(table)
    lines = proc.stdout.splitlines()
    for name, unit in table.items():
        metric = doc["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("error_rate 0 ") for line in lines)
    if not trace:
        for name in ("query_p50_s", "query_tail_s", "query_cpu_p50_s", "first_page_p50_s"):
            assert any(line.startswith(f"{name} ") and " s (no bound; " in line
                       for line in lines)
    provenance = json.loads(next(l for l in lines if l.startswith("provenance "))[11:])
    for key in ("git_sha", "src_digest", "cpu_count", "sched_getaffinity",
                "kernels_backend", "python", "seed"):
        assert key in provenance
    if workload == "kdj-parallel-durable":
        assert provenance["parallel_label"] in ("scaling measurement",
                                                "not a scaling measurement")


def test_another_seed_changes_the_inputs_not_the_verdict(tiny):
    other = workloads.build_inputs(seed=4, scale=TINY)
    assert workloads.dataset_seed(3, 0) == tiny.seed == 3
    assert workloads.dataset_seed(3, 1) not in (3, 4, workloads.dataset_seed(4, 1))
    assert other.reference.distances != tiny.reference.distances
    assert not np.array_equal(other.reference.rects_r, tiny.reference.rects_r)
    for seed in (3, 4):
        proc, doc = bench("kdj-fig10", seed=seed, trace=0)
        assert proc.returncode == 0 and doc["correct"] is True


def test_a_missing_program_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kdj-fig10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- answers ------------------------------------------------------------------


def brute_force(reference: Reference):
    n_r, n_s = len(reference.rects_r), len(reference.rects_s)
    ids_r, ids_s = np.divmod(np.arange(n_r * n_s), n_s)
    d = min_distances(reference.rects_r, reference.rects_s, ids_r, ids_s)
    return d, ids_r, ids_s


def test_reference_agrees_with_brute_force(tiny):
    ref = tiny.reference
    d, ids_r, ids_s = brute_force(ref)
    order = np.argsort(d, kind="stable")
    assert ref.distances == d[order[:ref.k]].tolist()
    below = d < ref.max_distance
    assert ref.below_max == set(zip(ids_r[below].tolist(), ids_s[below].tolist()))


def test_every_engine_answer_is_checked_against_brute_force(tiny, tmp_path):
    ref = tiny.reference
    d, _, _ = brute_force(ref)
    for op in workloads.cycle("kdj-fig10", tiny, tmp_path):
        outcome = op.run()
        assert outcome.check() == []
        assert [p.distance for p in outcome.pairs] == np.sort(d)[:op.k].tolist()


def test_the_check_rejects_wrong_answers(tiny):
    ref = tiny.reference
    k = 50
    good = [ResultPair(dist, r, s) for dist, (r, s) in
            zip(ref.distances[:k], sorted_pairs(ref, k))]
    assert ref.check_topk(good, k) == []
    first = good[0]
    bad_distance = [ResultPair(first.distance + 1.0, first.ref_r, first.ref_s)] + good[1:]
    duplicate = good[:-1] + [good[0]]
    bad_id = [ResultPair(first.distance, len(ref.rects_r), first.ref_s)] + good[1:]
    reversed_order = list(reversed(good))
    for answer in (bad_distance, duplicate, bad_id, reversed_order, good[:-1]):
        assert ref.check_topk(answer, k)
    cursor = StreamCursor()
    assert ref.check_page(good[:10], 10, cursor) == []
    assert ref.check_page(good[:10], 10, cursor)  # the same page again


def sorted_pairs(ref: Reference, k: int):
    d, ids_r, ids_s = brute_force(ref)
    order = np.argsort(d, kind="stable")[:k]
    return list(zip(ids_r[order].tolist(), ids_s[order].tolist()))


# -- spans ----------------------------------------------------------------------


class Toy:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i

    @classmethod
    def make(cls):
        return cls()

    def stream(self, n):
        for i in range(n):
            yield self.inner(i)


def test_spans_nest_and_self_times_add_up():
    recorder = SpanRecorder()
    original = Toy.__dict__["outer"], Toy.__dict__["make"]
    recorder.install([("a", Toy, "outer"), ("b", Toy, "inner"),
                      ("c", Toy, "make"), ("d", Toy, "stream")])
    try:
        recorder.begin_op("toy")
        toy = Toy.make()
        assert toy.outer(5) == 10
        assert list(toy.stream(3)) == [0, 1, 2]
        op = recorder.end_op()
    finally:
        recorder.remove()
    assert (Toy.__dict__["outer"], Toy.__dict__["make"]) == original
    assert op.layers["a"][0] == 1 and op.layers["b"][0] == 8 and op.layers["c"][0] == 1
    assert op.layers["d"][0] == 1 + 4  # the call, then every next incl. the last
    assert op.edges[("a", "b")] == 5 and op.edges[("d", "b")] == 3
    assert sum(own for _, _, own in op.layers.values()) == op.wall_ns
    for count, total, own in op.layers.values():
        assert 0 <= own <= total


def test_traced_pass_self_times_sum_to_the_operation_wall(tiny, tmp_path):
    recorder = SpanRecorder()
    recorder.install(run.layer_targets(type(resolve_backend(None))))
    try:
        samples, _, _ = run.run_rounds("idj-paging", [tiny], tmp_path, None, recorder)
    finally:
        recorder.remove()
    for sample in samples:
        assert sample.problems == []
        spans = sample.spans
        assert sum(own for _, _, own in spans.layers.values()) == spans.wall_ns
        assert set(spans.layers) >= {"op", "engine"}
        # The root span sits inside the operation's own clock; the gap is
        # the clock reads around it.
        assert spans.wall_ns / 1e9 <= sample.wall + 1e-3
        assert sample.wall - spans.wall_ns / 1e9 < 0.05 * sample.wall + 1e-3


# -- speed ----------------------------------------------------------------------


def spin(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_the_speedometer_keeps_its_own_cpu_apart():
    with Speedometer(interval_s=0.005) as meter:
        main0, total0 = time.thread_time(), run.process_cpu() - meter.cpu()
        spin(0.3)
        main = time.thread_time() - main0
        total = run.process_cpu() - meter.cpu() - total0
        speed, bursts = meter.speed()
    assert bursts >= 20 and speed > 0
    assert abs(total - main) < 0.02


def test_the_speedometer_takes_no_bursts_while_paused():
    with Speedometer(interval_s=0.005) as meter:
        with meter.paused():
            time.sleep(0.02)
            before = meter.cpu()
            time.sleep(0.2)
            assert meter.cpu() - before < 0.005
        time.sleep(0.1)
        assert meter.cpu() - before > 0
