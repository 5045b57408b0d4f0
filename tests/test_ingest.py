"""Malformed input is rejected at ingest with a typed error.

A NaN coordinate used to be accepted: it dropped out of every parent
MBR (comparisons with NaN are false), so the object was silently never
reported, and HS-IDJ died with a bare ``ValueError`` when a NaN distance
reached the main queue's segment routing.
"""

from __future__ import annotations

import math
import struct

import pytest

from repro.geometry.rect import Rect
from repro.resilience.errors import InvalidInputError, ReproError
from repro.rtree.tree import RTree

BAD = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("position", range(4), ids=["xmin", "ymin", "xmax", "ymax"])
def test_non_finite_coordinate_rejected(position, bad):
    coords = [0.0, 0.0, 1.0, 1.0]
    coords[position] = bad
    with pytest.raises(InvalidInputError, match="NaN" if bad != bad else "infinite"):
        Rect(*coords)


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf"])
def test_non_finite_point_rejected(bad):
    with pytest.raises(InvalidInputError):
        Rect.from_point(bad, 0.0)
    with pytest.raises(InvalidInputError):
        Rect.from_point(0.0, bad)


def test_error_is_typed_and_still_a_value_error():
    assert issubclass(InvalidInputError, ReproError)
    assert issubclass(InvalidInputError, ValueError)
    assert InvalidInputError.exit_code == 65
    with pytest.raises(InvalidInputError, match="inverted"):
        Rect(2.0, 0.0, 1.0, 1.0)


def test_extreme_finite_coordinates_accepted():
    big = 1.7976931348623157e308
    assert Rect(-big, -big, big, big).xmax == big


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf"])
def test_bulk_load_rejects_non_finite_object(bad):
    with pytest.raises(InvalidInputError):
        RTree.bulk_load(
            [(Rect.from_point(float(i), 1.0), i) for i in range(10)]
            + [(Rect(0.0, 0.0, 1.0, bad), 10)]
        )


def test_cli_load_of_a_corrupt_tree_exits_65(tmp_path, capsys):
    from repro.__main__ import main

    assert main([
        "generate", "--streets", "200", "--hydro", "100", "--out", str(tmp_path),
    ]) == 0
    path = tmp_path / "streets.rt"
    raw = bytearray(path.read_bytes())
    # File header, then page 0: a (level, count) header and the first
    # entry's xmin.
    offset = struct.calcsize("<4siiiii") + struct.calcsize("<ii")
    raw[offset : offset + 8] = struct.pack("<d", math.nan)
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    code = main(["join", str(path), str(tmp_path / "hydro.rt"), "-k", "5"])
    assert code == 65
    assert "NaN coordinate" in capsys.readouterr().err
