"""Checkpoint and spill-file formats: the pickle contract of the value
types, and fuzzing of both files.

A damaged file must surface as a typed error —
:class:`CheckpointCorruptionError` / :class:`CheckpointVersionError`
for a checkpoint, :class:`SpillCorruptionError` for a spill file —
never as another exception or a plausible wrong stream.
"""

import math
import pickle
import random
import zlib

import pytest

from repro import JoinConfig, JoinRunner, Rect, RTree
from repro.core.pairs import Item, PairPayload
from repro.core.planesweep import ExpansionRecord, anchor_columns
from repro.queues.main_queue import MainQueue
from repro.resilience.checkpoint import FORMAT_VERSION, MAGIC, CheckpointManager
from repro.resilience.errors import (
    CheckpointCorruptionError,
    CheckpointVersionError,
    SpillCorruptionError,
)
from repro.resilience.recovery import load_checkpoint
from repro.storage.disk import SimulatedDisk


def random_points(n: int, seed: int, span: float = 1000.0):
    rng = random.Random(seed)
    return [
        (Rect.from_point(rng.uniform(0, span), rng.uniform(0, span)), i)
        for i in range(n)
    ]


def stream(result):
    return [(p.distance, p.ref_r, p.ref_s) for p in result.results]


def node(x: float, page: int) -> Item:
    return Item.node(Rect(x, 0.0, x + 1.0, 2.0), page, 1)


def obj(x: float, oid: int) -> Item:
    return Item.object(Rect.from_point(x, x / 2), oid)


def record(a: Item, b: Item) -> ExpansionRecord:
    from_r, anchor_pos, start, resume = anchor_columns()
    for row in ((1, 0, 0, 2), (0, 0, 1, 1), (1, 1, 1, 2)):
        for column, value in zip((from_r, anchor_pos, start, resume), row):
            column.append(value)
    children_r, children_s = [obj(0.0, 1), obj(1.0, 2)], [obj(0.5, 3), obj(2.0, 4)]
    return ExpansionRecord(
        a=a, b=b, distance=0.0, axis=0, forward=True,
        sorted_r=children_r, sorted_s=children_s,
        from_r=from_r, anchor_pos=anchor_pos, start=start, resume=resume,
        axis_cutoff=1.5, real_cutoff=None,
        keys_r=[0.0, 1.0], keys_s=[0.5, 2.0],
    )


def capture(path, engine) -> None:
    manager = CheckpointManager(path, algorithm="amkdj", k=5, fingerprint={})
    assert manager.capture({"mode": "exact", "engine": engine, "stats": None})
    manager.close()


# ----------------------------------------------------------------------
# Pickle contract of the value types
# ----------------------------------------------------------------------


def test_value_types_round_trip():
    pairs = [
        PairPayload(obj(1.0, 7), obj(2.0, 8)),
        PairPayload(node(0.0, 3), obj(2.0, 8)),
        PairPayload(node(0.0, 3), node(5.0, 4), record(node(0.0, 3), node(5.0, 4))),
    ]
    loaded = pickle.loads(pickle.dumps(pairs, protocol=pickle.HIGHEST_PROTOCOL))
    assert [p.is_object_pair for p in loaded] == [True, False, False]
    for before, after in zip(pairs, loaded):
        assert (after.a, after.b) == (before.a, before.b)
        assert after.is_object_pair == before.is_object_pair
    assert loaded[0].a.rect == Rect.from_point(1.0, 0.5)
    assert loaded[1].a == Item.node(Rect(0.0, 0.0, 1.0, 2.0), 3, 1)
    assert loaded[2].record == pairs[2].record
    assert loaded[2].record.resume.tolist() == [2, 1, 2]


def test_shared_record_stays_one_object_in_a_checkpoint(tmp_path):
    a, b = node(0.0, 3), node(5.0, 4)
    shared = record(a, b)
    payload = PairPayload(a, b, shared)
    capture(tmp_path / "c.ckpt", {"heap": [(0.0, -1, payload)], "comp": [shared]})
    engine = load_checkpoint(tmp_path / "c.ckpt")["engine"]
    restored = engine["heap"][0][2]
    assert restored.record is engine["comp"][0]
    # A compensation updates the record in place; the queue sees it.
    engine["comp"][0].resume[0] = 9
    assert restored.record.resume[0] == 9


def test_nan_rect_in_a_crc_valid_checkpoint_is_corruption(tmp_path):
    bad = object.__new__(Rect)
    for name, value in zip(("xmin", "ymin", "xmax", "ymax"), (math.nan, 0.0, 1.0, 1.0)):
        object.__setattr__(bad, name, value)
    capture(tmp_path / "nan.ckpt", {"heap": [(0.0, -1, Item.object(bad, 1))]})
    with pytest.raises(CheckpointCorruptionError) as excinfo:
        load_checkpoint(tmp_path / "nan.ckpt")
    assert excinfo.value.exit_code == 78


# ----------------------------------------------------------------------
# Checkpoint fuzzing
# ----------------------------------------------------------------------

#: A 64-entry in-memory heap, so the checkpoint embeds live spill files.
SPILL_QUEUE = 48 * 64
K = 600


@pytest.fixture(scope="module")
def trees():
    return (
        RTree.bulk_load(random_points(300, seed=61), max_entries=16),
        RTree.bulk_load(random_points(200, seed=62), max_entries=16),
    )


@pytest.fixture(scope="module")
def durable(trees, tmp_path_factory):
    """A real-spill AM-KDJ checkpoint and the uninterrupted stream."""
    tmp = tmp_path_factory.mktemp("durable")
    ref = JoinRunner(*trees, JoinConfig(queue_memory=SPILL_QUEUE)).kdj(K, "amkdj")
    path = tmp / "join.ckpt"
    JoinRunner(*trees, JoinConfig(
        queue_memory=SPILL_QUEUE, spill_dir=str(tmp / "spill"),
        checkpoint_path=str(path), checkpoint_every_pairs=K // 3,
    )).kdj(K, "amkdj")
    queue = load_checkpoint(path)["engine"]["queue"]
    segments = queue["split_segments"] + list(queue["formula_segments"].values())
    assert sum(segment[3] for segment in segments) > 0
    return path.read_bytes(), stream(ref)


def load_or_resume(trees, path, reference) -> None:
    """Load a damaged checkpoint: a typed error, or — when the damage
    missed every checked byte — a resume that yields the right stream."""
    try:
        load_checkpoint(path)
    except (CheckpointCorruptionError, CheckpointVersionError):
        return
    resumed = JoinRunner(*trees, JoinConfig(
        queue_memory=SPILL_QUEUE, resume_from=str(path),
    )).kdj(K, "amkdj")
    assert stream(resumed) == reference


def test_truncated_checkpoint_is_corruption(durable, tmp_path):
    raw, _ = durable
    path = tmp_path / "short.ckpt"
    for end in (0, 1, 7, 40, len(raw) // 3, len(raw) // 2, len(raw) - 9, len(raw) - 1):
        path.write_bytes(raw[:end])
        with pytest.raises(CheckpointCorruptionError):
            load_checkpoint(path)


def test_bit_flips_in_a_checkpoint_never_yield_a_wrong_stream(
    trees, durable, tmp_path
):
    raw, reference = durable
    path = tmp_path / "flipped.ckpt"
    rng = random.Random(13)
    # Every bit of the framing head, then bits spread across the file.
    positions = [(i, bit) for i in range(64) for bit in range(8)]
    positions += [(rng.randrange(len(raw)), rng.randrange(8)) for _ in range(200)]
    for index, bit in positions:
        data = bytearray(raw)
        data[index] ^= 1 << bit
        path.write_bytes(bytes(data))
        load_or_resume(trees, path, reference)


def test_version_1_checkpoint_is_refused(durable, tmp_path):
    raw, _ = durable
    magic, version, _, blob = pickle.loads(raw)
    assert (magic, version) == (MAGIC, FORMAT_VERSION) == (MAGIC, 2)
    old = pickle.dumps({"format": 1, "engine": {}})
    path = tmp_path / "v1.ckpt"
    path.write_bytes(pickle.dumps((MAGIC, 1, zlib.crc32(old), old)))
    with pytest.raises(CheckpointVersionError) as excinfo:
        load_checkpoint(path)
    assert excinfo.value.exit_code == 78


# ----------------------------------------------------------------------
# Spill-file fuzzing
# ----------------------------------------------------------------------


def spilled_queue(spill_dir):
    """A queue and its largest spill file, which holds several batches."""
    queue = MainQueue(SimulatedDisk(), memory_bytes=8 * 48, spill_dir=spill_dir)
    rng = random.Random(3)
    for i in range(600):
        queue.insert(rng.uniform(0.0, 100.0), ("payload", i))
    paths = [s.path for s in queue._all_segments() if s.path is not None]
    return queue, max(paths, key=lambda path: path.stat().st_size)


def test_sound_spill_file_drains_in_order(tmp_path):
    queue, _ = spilled_queue(tmp_path / "spill")
    drained = [queue.pop()[0] for _ in range(len(queue))]
    assert drained == sorted(drained) and len(drained) == 600
    queue.close()


def mutations(raw: bytes):
    rng = random.Random(17)
    first_batch = 16 + int.from_bytes(raw[:8], "little")
    for end in (0, 1, 9, 15, 16, 17, first_batch, len(raw) // 2, len(raw) - 1):
        yield raw[:end]
    for _ in range(150):
        data = bytearray(raw)
        data[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        yield bytes(data)
    # Header bytes of the first batch, every bit.
    for index in range(16):
        for bit in range(8):
            data = bytearray(raw)
            data[index] ^= 1 << bit
            yield bytes(data)


def test_damaged_spill_file_raises_spill_corruption(tmp_path):
    queue, path = spilled_queue(tmp_path / "spill")
    raw = path.read_bytes()
    queue.close()
    assert int.from_bytes(raw[:8], "little") + 16 < len(raw) // 2
    for n, damaged in enumerate(mutations(raw)):
        queue, path = spilled_queue(tmp_path / f"spill{n}")
        assert path.read_bytes() == raw
        path.write_bytes(damaged)
        with pytest.raises(SpillCorruptionError):
            queue.snapshot()
        with pytest.raises(SpillCorruptionError):
            while queue:
                queue.pop()
        queue.close()
        assert not path.exists()
