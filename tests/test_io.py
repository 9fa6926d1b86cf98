"""Frame file format and report writers."""

import csv
import dataclasses
import hashlib
import io
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockframe import BlockFrame, FrameError, RandomFrameSpec, gram_map, sample_block_frame
from blockframe import io as bfm_io
from blockframe.io import (
    read_bfm,
    sha256_file,
    write_bfm,
    write_csv,
    write_gram_csv,
    write_json,
)


@st.composite
def frame_specs(draw):
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r + 1, r + 8))
    m_min = -(-n // r)  # the fewest blocks with n <= m*r
    m = draw(st.integers(m_min, m_min + 8))
    field_tag = draw(st.sampled_from(["real", "complex"]))
    return RandomFrameSpec(n=n, r=r, m=m, seed=draw(st.integers(0, 2**32 - 1)), field_tag=field_tag)


@settings(max_examples=40, deadline=None)
@given(frame_specs())
def test_bfm_round_trip_exact(tmp_path_factory, spec):
    frame = sample_block_frame(spec)
    tmp = tmp_path_factory.mktemp("bfm")
    p1 = tmp / "a.bfm"
    p2 = tmp / "b.bfm"
    write_bfm(p1, frame)
    back = read_bfm(p1)
    assert (back.n, back.r, back.m, back.field_tag) == (spec.n, spec.r, spec.m, spec.field_tag)
    assert back.data.dtype == frame.data.dtype
    assert back.data.tobytes() == frame.data.tobytes()
    write_bfm(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


# The per-entry writers the package used before formatting each distinct
# value once, kept as an independent oracle for the bytes it writes.
def oracle_bfm(frame):
    head = f"BFM 1\nn={frame.n} r={frame.r} m={frame.m} field={frame.field_tag}\n"
    rows = (",".join(f"{float(z.real)!r}:{float(z.imag)!r}" for z in row) for row in frame.data)
    return (head + "".join(row + "\n" for row in rows)).encode()


def oracle_csv(rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue().encode()


@st.composite
def structured_frames(draw):
    """Random blocks mixed with repeats, sign-flipped copies and signed
    standard-basis blocks, whose negated zeros are -0.0 (and -0.0j)."""
    spec = draw(frame_specs())
    base = sample_block_frame(spec)
    n, r = base.n, base.r
    eye = np.eye(n, dtype=base.data.dtype)
    blocks = []
    for _ in range(spec.m):
        kind = draw(st.sampled_from(["block", "basis"]))
        if kind == "block":
            b = base.block(draw(st.integers(0, spec.m - 1)))
        else:
            b = eye[:, draw(st.permutations(range(n)))[:r]]
        blocks.append(b if draw(st.booleans()) else -b)
    return BlockFrame.from_blocks(blocks)


def check_against_oracle(tmp, frame):
    path = tmp / "f.bfm"
    write_bfm(path, frame)
    assert path.read_bytes() == oracle_bfm(frame)
    back = read_bfm(path)
    assert back.data.dtype == frame.data.dtype
    assert back.data.tobytes() == frame.data.tobytes()  # sign bits of zero included
    gram_path = tmp / "g.csv"
    g = gram_map(frame)
    write_gram_csv(gram_path, g)
    assert gram_path.read_bytes() == oracle_csv(g)


@settings(max_examples=60, deadline=None)
@given(structured_frames())
def test_bfm_bytes_and_bits_match_per_entry_oracle(tmp_path_factory, frame):
    check_against_oracle(tmp_path_factory.mktemp("oracle"), frame)


# chunk sizes in floats, from the frame: one float (a row per chunk), and two
# rows of 2*m*r floats and part of a third (a short last chunk whenever n is odd)
CHUNKS = {
    "one-float": lambda frame: 1,
    "uneven": lambda frame: 5 * frame.m * frame.r,
}


@pytest.mark.parametrize("chunk", list(CHUNKS))
@settings(max_examples=30, deadline=None)
@given(frame=structured_frames())
def test_bfm_oracle_holds_at_any_chunk_size(tmp_path_factory, chunk, frame):
    with mock.patch.object(bfm_io, "_TEXT_CHUNK", CHUNKS[chunk](frame)):
        check_against_oracle(tmp_path_factory.mktemp("chunk"), frame)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
        elements=st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1]), finite),
    )
)
def test_write_gram_csv_matches_per_entry_oracle(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("gram") / "g.csv"
    write_gram_csv(path, g)
    assert path.read_bytes() == oracle_csv(g)


@dataclasses.dataclass
class Cells:
    label: str
    k: int
    x: float
    y: float


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.builds(
            Cells,
            st.text(max_size=4),
            st.integers(),
            st.one_of(st.sampled_from([0.0, -0.0, 0.5]), finite, finite.map(np.float64)),
            st.one_of(st.sampled_from([0.0, -0.0, 0.5]), finite, st.integers()),
        ),
        max_size=6,
    )
)
def test_write_csv_matches_per_entry_oracle(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    columns = ("label", "k", "x", "y")
    write_csv(path, columns, rows)
    expected = oracle_csv([columns] + [[getattr(row, c) for c in columns] for row in rows])
    assert path.read_bytes() == expected


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

    for body in (
        "1.0:0.0,0.0:0.0\n",  # a row short
        "1.0:0.0,0.0:0.0,0.0:0.0\n0.0:0.0,1.0:0.0\n",  # an entry too many
        "1.0:0.0,0.0:0.0\n0.0:0.0,1.0:0.0\n0.0:0.0,1.0:0.0\n",  # a row too many
    ):
        path.write_text("BFM 1\nn=2 r=1 m=2 field=real\n" + body)
        with pytest.raises(FrameError, match="shape"):
            read_bfm(path)

    path.write_text(
        "BFM 1\nn=2 r=1 m=2 field=real\n1.0:0.0,oops:0.0\n0.0:0.0,1.0:0.0\n"
    )
    with pytest.raises(FrameError, match="entry"):
        read_bfm(path)

    for row in (
        "1.0:0.0,1.0:2.0:3.0",
        "1.0:0.0:0.0:0.0",  # two entries' worth of colons and no comma
        "1.0:0.0,1.0",
        "1.0:0.0,,0.0:0.0",
        "1.0:0.0,0.0:0.0,",
        "1.0:0.0,0.176_77:0.0",  # float() reads "_" separators, the reader does not
        "1.0:0.0,\uff10.5:0.0",  # nor non-ASCII digits
        "1.0:0.0,#:0.0",  # nor a comment
        "1.0:0.0,0.0:#1",
        "1.0:0.0,0.0:",
    ):
        path.write_text(f"BFM 1\nn=2 r=1 m=2 field=real\n{row}\n0.0:0.0,1.0:0.0\n")
        with pytest.raises(FrameError, match="entry"):
            read_bfm(path)

    # header says real but a row carries an imaginary part
    path.write_text(
        "BFM 1\nn=2 r=1 m=2 field=real\n1.0:0.5,0.0:0.0\n0.0:0.0,1.0:0.0\n"
    )
    with pytest.raises(FrameError):
        read_bfm(path)


def test_bfm_rows_checked_at_any_chunk_size(tmp_path, monkeypatch):
    path = tmp_path / "x.bfm"
    head = "BFM 1\nn=3 r=1 m=3 field=real\n"
    rows = ["1.0:0.0,0.0:0.0,0.0:0.0", "0.0:0.0,1.0:0.0,0.0:0.0", "0.0:0.0,0.0:0.0,1.0:0.0"]
    bad = rows[:2] + ["0.0:0.0,0.0:0.0,1_0:0.0"]
    # one row per chunk, two rows of 6 floats and a short last chunk, one chunk
    for chunk in (1, 12, 1 << 16):
        monkeypatch.setattr(bfm_io, "_TEXT_CHUNK", chunk)
        assert np.array_equal(read_bfm_text(path, head, rows).data, np.eye(3))
        with pytest.raises(FrameError, match="bad entry '1_0:0.0'"):
            read_bfm_text(path, head, bad)
        for body in (rows[:2], rows + rows[:1], rows + ["", "  "] + rows[:1]):
            with pytest.raises(FrameError, match="shape"):
                read_bfm_text(path, head, body)


def read_bfm_text(path, head, rows):
    path.write_text(head + "\n".join(rows) + "\n")
    return read_bfm(path)


@pytest.mark.parametrize("control", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_bfm_separator_controls_are_refused(tmp_path, control):
    # numpy's reader takes them as whitespace around a number; float() does not
    head = "BFM 1\nn=2 r=1 m=2 field=real\n"
    for row, entry in (
        (f"1.0{control}:0.0,0.0:0.0", f"1.0{control}:0.0"),
        (f"1.0:0.0,0.0:{control}0.0", f"0.0:{control}0.0"),
        (f"{control}1.0:0.0,0.0:0.0", f"{control}1.0:0.0"),
        (f"1.0:0.0,0.0:0.0{control}", f"0.0:0.0{control}"),
    ):
        with pytest.raises(FrameError, match=re.escape(f"bad entry {entry!r}")):
            read_bfm_text(tmp_path / "x.bfm", head, [row, "0.0:0.0,1.0:0.0"])
    # a line holding only a control is no blank line
    with pytest.raises(FrameError, match=re.escape(f"bad entry {control!r}")):
        read_bfm_text(tmp_path / "x.bfm", head, ["1.0:0.0,0.0:0.0", control, "0.0:0.0,1.0:0.0"])


def test_bfm_crlf_reads_to_the_same_bits(tmp_path):
    frame = sample_block_frame(RandomFrameSpec(n=6, r=2, m=4, seed=3, field_tag="complex"))
    path, crlf = tmp_path / "lf.bfm", tmp_path / "crlf.bfm"
    write_bfm(path, frame)
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_bfm(crlf).data.tobytes() == frame.data.tobytes()


def test_bfm_header_checked_before_rows(tmp_path):
    path = tmp_path / "h.bfm"
    for header, reason in [
        ("n=0 r=1 m=2 field=real", "positive"),
        ("n=2.5 r=1 m=3 field=real", "line"),  # a count must be an integer
        ("n=2 r=1 m=2 field=quaternion", "real or complex"),
        ("n=4096 r=2 m=20000 field=complex", "size guard"),  # 2^27+ entries, no body
    ]:
        path.write_text(f"BFM 1\n{header}\n")
        with pytest.raises(FrameError, match=f"header.*{reason}"):
            read_bfm(path)


@pytest.mark.parametrize(
    "header",
    [
        "n=2 r=1 m=5 field=real field=complex",  # a repeated key
        "n=2 r=1 m=4 m=5 field=real",
        "n=2 r=1 m=5 field=real extra=1",  # an unknown key
        "n=0_2 r=1 m=5 field=real",  # digits that int() reads and the body refuses
        "n=+2 r=1 m=5 field=real",
        "n=\u0662 r=1 m=5 field=real",
    ],
)
def test_bfm_header_is_the_line_write_bfm_writes(tmp_path, header):
    # each body has the rows that a token-by-token reading of the header asks for
    path = tmp_path / "x.bfm"
    write_bfm(path, sample_block_frame(RandomFrameSpec(n=2, r=1, m=5, seed=4)))
    magic, _, body = path.read_text().split("\n", 2)
    path.write_text(f"{magic}\n{header}\n{body}")
    with pytest.raises(FrameError, match="bad header line$"):
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
