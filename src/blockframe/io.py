"""File formats: frame text files, JSON/CSV reports, run manifests.

The frame format (.bfm) is line-oriented text so frames survive editors,
diffs, and version control:

    BFM 1
    n=<int> r=<int> m=<int> field=<real|complex>
    <n lines of m*r comma-separated entries, each "re:im">

Entries use repr() floats, which round-trip exactly, so write/read/write is
byte-identical.  Real frames are float64, so every imaginary part of a
field=real file is written as 0.0.
"""

import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import FrameError
from .frame import _ORTHO_TOL, BlockFrame, block_gram_deviation

_MAGIC = "BFM 1"


def write_bfm(path, frame):
    with open(path, "w") as fh:
        fh.write(_MAGIC + "\n")
        fh.write(f"n={frame.n} r={frame.r} m={frame.m} field={frame.field_tag}\n")
        for row in frame.data:
            fh.write(
                ",".join(f"{repr(float(z.real))}:{repr(float(z.imag))}" for z in row)
                + "\n"
            )


def read_bfm(path):
    """Read a .bfm file; its blocks must be orthonormal to within 1e-8."""
    try:
        fh = open(path)
    except OSError as exc:
        raise FrameError(f"{path}: cannot open frame file ({exc.strerror})") from exc
    with fh:
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
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entries = []
            for tok in line.split(","):
                re_s, _, im_s = tok.partition(":")
                try:
                    entries.append(complex(float(re_s), float(im_s)))
                except ValueError as exc:
                    raise FrameError(f"{path}: bad entry {tok!r}") from exc
            rows.append(entries)
    if len(rows) != n or any(len(row) != m * r for row in rows):
        raise FrameError(f"{path}: data shape does not match header")
    data = np.asarray(rows, dtype=np.complex128)
    frame = BlockFrame(n=n, r=r, m=m, data=data, field_tag=field_tag)
    dev = block_gram_deviation(frame)
    if not dev <= _ORTHO_TOL:
        raise FrameError(
            f"{path}: blocks are not orthonormal (max |A_i* A_i - I| = {dev:.3g})"
        )
    return frame


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_gram_csv(path, gram):
    gram = np.asarray(gram)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in gram:
            writer.writerow([repr(float(v)) for v in row])


def write_csv(path, columns, rows):
    """A header of column names, then one line per row of its attributes.

    Floats are written with repr, which round-trips exactly; other values
    with str.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            values = (getattr(row, col) for col in columns)
            writer.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in values])


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Provenance record written next to every CLI output set."""

    command: str
    params: dict
    seed: int | None = None
    argv: list = field(default_factory=lambda: list(sys.argv))
    outputs: dict = field(default_factory=dict)
    started: float = field(default_factory=time.time)

    def add_output(self, path):
        self.outputs[str(path)] = sha256_file(path)

    def write(self, path):
        from . import __version__

        payload = {
            "command": self.command,
            "argv": self.argv,
            "params": self.params,
            "seed": self.seed,
            "version": __version__,
            "outputs": self.outputs,
            "duration_s": round(time.time() - self.started, 3),
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
            + "Z",
        }
        write_json(path, payload)
