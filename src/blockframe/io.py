"""File formats: frame text files and JSON/CSV reports.

The frame format (.bfm) is line-oriented text so frames survive editors,
diffs, and version control:

    BFM 1
    n=<int> r=<int> m=<int> field=<real|complex>
    <n lines of m*r comma-separated entries, each "re:im">

Every float the package writes as text (.bfm entries, gram.csv, the float
cells of write_csv) follows one rule, _float_text: the repr of the float64,
which round-trips exactly, so write/read/write is byte-identical.  It
formats each distinct bit pattern once, so -0.0 and 0.0 keep their own text
and a structured frame with few distinct values costs few repr calls.
Writers look the texts up a chunk of rows at a time and build one line at a
time.  Real frames are float64, so every imaginary part of a field=real
file is written as 0.0.

read_bfm checks the header (field, shape rule, size guard) before it reads
a row, and checks each row's separators (exactly one ":" per comma-separated
entry, m*r entries) in one C-speed comparison as it reads it.  numpy's C
text reader then parses the checked rows into the frame's array, at most
_TEXT_CHUNK floats (and at least one row) per call, so no text copy of the
whole body exists.  It rounds as float() does, and reads float()'s grammar
without "_" separators, non-ASCII digits or the controls 0x1c-0x1f, which
it alone takes as whitespace; an entry it refuses is a FrameError naming
that entry.
"""

import csv
import hashlib
import itertools
import json

import numpy as np

from .errors import FrameError
from .frame import BlockFrame, check_nrm
from .matrixcore import check_entries

_MAGIC = "BFM 1"
_CONTROLS = frozenset("\x1c\x1d\x1e\x1f")  # whitespace to numpy's reader, not to float()
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b":,") - set(map(ord, _CONTROLS))))
_TEXT_CHUNK = 1 << 16  # floats whose texts are formatted or parsed at once


def _float_text(a):
    """The package's one float-to-text rule: repr of each float64 of a.

    Returns the uint64 bit view of a and a function from any part of that
    view to the texts of its entries.  repr runs once per distinct bit
    pattern, so -0.0 and 0.0 keep their own text.  The only copy of a made
    here is one sorted one; callers pass the function parts of a bounded
    size, so no text array of a's size exists.
    """
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)
    srt = np.sort(bits, axis=None)
    first = np.ones(srt.size, dtype=bool)
    np.not_equal(srt[1:], srt[:-1], out=first[1:])
    keys = srt[first]
    tokens = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)

    def text(part):
        # searchsorted is fast on the part's distinct patterns, which come sorted
        distinct, inverse = np.unique(part, return_inverse=True)
        return tokens[np.searchsorted(keys, distinct)[inverse].reshape(part.shape)]

    return bits, text


def _write_rows(fh, a, seps, end):
    """Write each row of the 2-d float array a as one line of text.

    Entry j of a row is followed by seps[j % len(seps)], its last entry by
    end.  Texts are looked up _TEXT_CHUNK entries at a time.
    """
    bits, text = _float_text(a)
    k = bits.shape[1]
    line = [None] * (2 * k)
    line[1::2] = (seps * k)[:k]
    line[-1] = end
    step = max(1, _TEXT_CHUNK // k)
    for i0 in range(0, len(bits), step):
        for row in text(bits[i0 : i0 + step]):
            line[0::2] = row.tolist()
            fh.write("".join(line))


def write_bfm(path, frame):
    with open(path, "w") as fh:
        fh.write(_MAGIC + "\n")
        fh.write(f"n={frame.n} r={frame.r} m={frame.m} field={frame.field_tag}\n")
        if frame.field_tag == "real":
            _write_rows(fh, frame.data, (":0.0,",), ":0.0\n")
        else:
            _write_rows(fh, np.ascontiguousarray(frame.data).view(np.float64), (":", ","), "\n")


def _read_header(path, fh):
    """n, r, m and field from the two header lines, checked before any row."""
    header = fh.readline().rstrip("\n")
    if header != _MAGIC:
        raise FrameError(f"{path}: not a frame file (bad magic {header!r})")
    meta = {}
    for tok in fh.readline().split():
        key, _, val = tok.partition("=")
        meta[key] = val
    try:
        n, r, m = int(meta["n"]), int(meta["r"]), int(meta["m"])
        field_tag = meta["field"]
    except (KeyError, ValueError) as exc:
        raise FrameError(f"{path}: bad header line") from exc
    try:
        if field_tag not in ("real", "complex"):
            raise FrameError(f"field must be real or complex, got {field_tag!r}")
        check_nrm(n, r, m)
        check_entries(n * m * r, "the frame's data")
    except FrameError as exc:
        raise FrameError(f"{path}: bad header line: {exc}") from exc
    return n, r, m, field_tag


def _parse(rows):
    """numpy's C text reader on rows of comma-separated floats."""
    return np.loadtxt(rows, delimiter=",", comments=None, dtype=np.float64, ndmin=2)


def _refuse_entries(path, entries):
    """Raise a FrameError naming the first "re:im" entry the reader refuses.

    A token with no ":" leaves an empty im part and one with two leaves a
    ":" in it; the reader refuses both.  It would read a number next to one
    of the controls 0x1c-0x1f, which float() refuses, so those are refused
    here.
    """
    for tok in entries:
        re_s, _, im_s = tok.partition(":")
        try:
            _parse([f"{re_s},{im_s}"])
            clean = _CONTROLS.isdisjoint(tok)
        except ValueError:
            clean = False
        if not clean:
            raise FrameError(f"{path}: bad entry {tok!r}")


def _checked_rows(path, fh, n, m, r):
    """The body's n rows, blank lines skipped, each checked before it is parsed.

    With everything else deleted, a row's separators must equal
    ":,:,...,:" with one ":" per entry: one C-speed comparison checks the
    structure and the width together.  The deletion keeps the controls
    0x1c-0x1f, and it is taken before the line is stripped, which would drop
    them at its ends, so a line holding one is refused, naming the entry.
    """
    separators = b":," * (m * r - 1) + b":"
    rows = 0
    for raw in fh:
        line = raw.strip()
        kept = raw.encode().translate(None, _NOT_SEPARATOR)
        if not line and not kept:
            continue
        if kept != separators:
            _refuse_entries(path, raw.rstrip("\n").split(","))
            raise FrameError(f"{path}: data shape does not match header")
        if rows == n:
            raise FrameError(f"{path}: data shape does not match header")
        rows += 1
        yield line
    if rows != n:
        raise FrameError(f"{path}: data shape does not match header")


def read_bfm(path):
    """Read a .bfm file; BlockFrame refuses blocks not orthonormal to 1e-8.

    The rows are parsed into one (n, 2*m*r) float64 array that is viewed as
    complex128, so every bit of every part, -0.0 included, is kept.  A
    chunk's rows are all checked before any of them is parsed, so a fault in
    a row's structure is reported before a bad number in an earlier row of
    its chunk.
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise FrameError(f"{path}: cannot open frame file ({exc.strerror})") from exc
    try:
        with fh:
            n, r, m, field_tag = _read_header(path, fh)
            data = np.empty((n, 2 * m * r))
            rows = _checked_rows(path, fh, n, m, r)
            step = max(1, _TEXT_CHUNK // data.shape[1])
            for i0 in range(0, n, step):
                chunk = list(itertools.islice(rows, step))
                try:
                    data[i0 : i0 + len(chunk)] = _parse([row.replace(":", ",") for row in chunk])
                except ValueError:
                    _refuse_entries(path, (tok for row in chunk for tok in row.split(",")))
                    raise
            next(rows, None)  # a row past the n-th, which no chunk asked for
    except UnicodeDecodeError as exc:
        raise FrameError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    try:
        return BlockFrame(n=n, r=r, m=m, data=data.view(np.complex128), field_tag=field_tag)
    except FrameError as exc:
        raise FrameError(f"{path}: {exc}") from exc


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_gram_csv(path, gram):
    with open(path, "w", newline="") as fh:
        _write_rows(fh, np.asarray(gram), (",",), "\r\n")


def write_csv(path, columns, rows):
    """A header of column names, then one line per row of its attributes.

    Float cells follow _float_text; other values are written with str.
    """
    table = [[getattr(row, col) for col in columns] for row in rows]
    spots = [(vals, j) for vals in table for j, v in enumerate(vals) if isinstance(v, float)]
    bits, text = _float_text([vals[j] for vals, j in spots])
    for (vals, j), cell in zip(spots, text(bits)):
        vals[j] = cell
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([[str(v) for v in vals] for vals in table])


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()

