"""Frame file format, report writers, and run manifests."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from blockframe import (
    FrameError,
    RandomFrameSpec,
    RunManifest,
    gram_map,
    read_bfm,
    sample_block_frame,
    sha256_file,
    write_bfm,
)
from blockframe.io import write_csv, write_gram_csv, write_json


def test_bfm_round_trip_exact(tmp_path):
    frame = sample_block_frame(RandomFrameSpec(n=7, r=2, m=5, seed=8, field_tag="complex"))
    p1 = tmp_path / "a.bfm"
    p2 = tmp_path / "b.bfm"
    write_bfm(p1, frame)
    back = read_bfm(p1)
    assert (back.n, back.r, back.m, back.field_tag) == (7, 2, 5, "complex")
    assert back.data.dtype == np.complex128
    assert np.array_equal(back.data, frame.data)
    write_bfm(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_bfm_real_tag_preserved(tmp_path):
    frame = sample_block_frame(RandomFrameSpec(n=6, r=2, m=4, seed=1))
    path, again = tmp_path / "r.bfm", tmp_path / "r2.bfm"
    write_bfm(path, frame)
    back = read_bfm(path)
    assert back.field_tag == "real"
    assert back.data.dtype == np.float64
    assert np.array_equal(back.data, frame.data)
    # real files carry a 0.0 imaginary part on every entry, never -0.0
    body = path.read_text().splitlines()[2:]
    assert all(tok.endswith(":0.0") for row in body for tok in row.split(","))
    write_bfm(again, back)
    assert path.read_bytes() == again.read_bytes()


def test_bfm_read_errors(tmp_path):
    path = tmp_path / "x.bfm"

    path.write_text("XYZ 9\n")
    with pytest.raises(FrameError, match="magic"):
        read_bfm(path)

    path.write_text("BFM 1\nn=2 r=1 field=real\n")
    with pytest.raises(FrameError, match="header"):
        read_bfm(path)

    path.write_text("BFM 1\nn=2 r=1 m=2 field=real\n1.0:0.0,0.0:0.0\n")
    with pytest.raises(FrameError, match="shape"):
        read_bfm(path)

    path.write_text(
        "BFM 1\nn=2 r=1 m=2 field=real\n1.0:0.0,oops:0.0\n0.0:0.0,1.0:0.0\n"
    )
    with pytest.raises(FrameError, match="entry"):
        read_bfm(path)

    # header says real but a row carries an imaginary part
    path.write_text(
        "BFM 1\nn=2 r=1 m=2 field=real\n1.0:0.5,0.0:0.0\n0.0:0.0,1.0:0.0\n"
    )
    with pytest.raises(FrameError):
        read_bfm(path)


def test_write_json_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    payload = {"z": 1, "a": [1.5, 2.5], "m": {"k": None}}
    write_json(a, payload)
    write_json(b, payload)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")
    assert json.loads(a.read_text()) == payload


def test_write_gram_csv_round_trip(tmp_path):
    frame = sample_block_frame(RandomFrameSpec(n=6, r=2, m=4, seed=2))
    g = gram_map(frame)
    path = tmp_path / "g.csv"
    write_gram_csv(path, g)
    rows = [
        [float(tok) for tok in line.split(",")]
        for line in path.read_text().strip().splitlines()
    ]
    assert np.array_equal(np.asarray(rows), g)  # repr floats round-trip


def test_write_csv_repr_floats_and_str_rest(tmp_path):
    @dataclasses.dataclass
    class Row:
        label: str
        k: int
        value: float

    path = tmp_path / "t.csv"
    write_csv(path, ("label", "k", "value"), [Row("a,b", 3, 0.1), Row("c", 4, 1 / 3)])
    assert path.read_bytes() == (
        b'label,k,value\r\n"a,b",3,0.1\r\nc,4,0.3333333333333333\r\n'
    )


def test_sha256_file(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"abc")
    assert sha256_file(path) == hashlib.sha256(b"abc").hexdigest()


def test_run_manifest(tmp_path):
    out = tmp_path / "thing.txt"
    out.write_text("payload\n")
    man = RunManifest(command="demo", params={"x": 3}, seed=5)
    man.add_output(out)
    mpath = tmp_path / "manifest.json"
    man.write(mpath)
    data = json.loads(mpath.read_text())
    assert data["command"] == "demo"
    assert data["params"] == {"x": 3}
    assert data["seed"] == 5
    assert data["outputs"][str(out)] == sha256_file(out)
    assert data["duration_s"] >= 0.0
    assert data["written_at"].endswith("Z")
    assert isinstance(data["version"], str)
