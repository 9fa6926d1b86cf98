"""Output checks for the benchmark workloads.

Every check recomputes what it compares against with numpy directly, or
tests a property the method must have; none compares with a stored copy of
an earlier output.  A failed check raises CheckFailed, and the run counts the
operation as failed.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _near(got, want, tol, what):
    _require(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} within {tol}")


# ------------------------------------------------------------------ helpers


def read_bfm_text(path):
    """(n, r, m, data) of a .bfm file, parsed without the program's reader."""
    with open(path) as fh:
        _require(fh.readline().rstrip("\n") == "BFM 1", f"{path}: bad magic line")
        meta = dict(tok.split("=", 1) for tok in fh.readline().split())
        rows = []
        for line in fh:
            if line.strip():
                pairs = (tok.split(":") for tok in line.strip().split(","))
                rows.append([complex(float(re_s), float(im_s)) for re_s, im_s in pairs])
    n, r, m = int(meta["n"]), int(meta["r"]), int(meta["m"])
    data = np.array(rows, dtype=np.complex128)
    _require(data.shape == (n, m * r), f"{path}: data shape {data.shape} != ({n}, {m * r})")
    return n, r, m, data


def block_welch_bound(n, r, m):
    """sqrt((m r - n) / (n (m - 1))).

    ||A* A||_F^2 >= (m r)^2 / n for the n x m r frame; removing the m
    identity blocks and giving each of the m(m-1) cross blocks at most
    r mu^2 of Frobenius mass yields the bound.
    """
    return math.sqrt((m * r - n) / (n * (m - 1)))


def flipped_nu_bound(m):
    """(sqrt(m) + 1) / (m - 1), the average coherence greedy flipping reaches."""
    return (math.sqrt(m) + 1.0) / (m - 1.0)


def _real_if_real(data):
    """A real view of frames stored as complex with zero imaginary parts."""
    return data.real if not np.any(data.imag) else data


def check_blocks_orthonormal(data, r, tol=1e-12, tile=16):
    data = _real_if_real(data)
    m = data.shape[1] // r
    dev = 0.0
    for lo in range(0, m, tile):
        x = np.ascontiguousarray(data[:, lo * r : (lo + tile) * r])
        b = x.shape[1] // r
        g = (x.conj().T @ x).reshape(b, r, b, r)[np.arange(b), :, np.arange(b), :]
        dev = max(dev, float(np.abs(g - np.eye(r)).max()))
    _require(dev <= tol, f"blocks not orthonormal: max |A_i* A_i - I| = {dev:.3e}")


def mu_by_svd(data, r, tile=16):
    """Worst-case block coherence from a batched SVD over all pairs.

    Tiled over blocks, so the check stays small next to the program's own
    memory use.
    """
    data = _real_if_real(data)
    m = data.shape[1] // r
    best = 0.0
    for lo in range(0, m, tile):
        left = np.ascontiguousarray(data[:, lo * r : (lo + tile) * r])
        for jlo in range(lo, m, tile):
            right = np.ascontiguousarray(data[:, jlo * r : (jlo + tile) * r])
            bi, bj = left.shape[1] // r, right.shape[1] // r
            g = (left.conj().T @ right).reshape(bi, r, bj, r).transpose(0, 2, 1, 3)
            s = np.linalg.svd(g, compute_uv=False)[..., 0]
            # pairs (i, j) with j > i only
            upper = (jlo + np.arange(bj))[None, :] > (lo + np.arange(bi))[:, None]
            if upper.any():
                best = max(best, float(s[upper].max()))
    return best


def nu_by_svd(data, r):
    """Average block coherence max_i ||sum_{j != i} A_i* A_j||_2 / (m - 1)."""
    data = _real_if_real(data)
    n, mr = data.shape
    m = mr // r
    blocks = data.reshape(n, m, r).transpose(1, 0, 2)
    total = blocks.sum(axis=0)
    s = np.einsum("ink,nl->ikl", blocks.conj(), total) - np.einsum(
        "ink,inl->ikl", blocks.conj(), blocks
    )
    return float(np.linalg.svd(s, compute_uv=False)[:, 0].max()) / (m - 1)


def check_signed_copy(orig, flipped, signs, r):
    signs = np.asarray(signs)
    _require(
        signs.shape == (orig.shape[1] // r,) and bool(np.all(np.abs(signs) == 1)),
        "signs are not one +-1 per block",
    )
    scale = np.repeat(signs.astype(np.float64), r)
    _require(
        np.array_equal(flipped, orig * scale[None, :]),
        "flipped frame is not the original times the signs",
    )


def check_manifest(path):
    """Every output hash in a run manifest matches hashlib over the file."""
    man = json.loads(Path(path).read_text())
    _require(bool(man["outputs"]), f"{path}: no outputs listed")
    for out, digest in man["outputs"].items():
        got = hashlib.sha256(Path(out).read_bytes()).hexdigest()
        _require(got == digest, f"{path}: sha256 of {out} does not match")


# ------------------------------------------------------------------ kerdock-cli


def check_kerdock_cli(construct_dir, analyze_dir, flip_dir):
    """Outputs of construct, analyze and flip on a Kronecker-lifted Kerdock frame.

    The frame is a union of n/r mutually unbiased orthobases, so
    mu = sqrt(r/n) (the orthobases bound, met with equality), every
    cross-Gram is a multiple of the identity, and nu = 1/(m-1).
    """
    construct_dir, analyze_dir, flip_dir = map(Path, (construct_dir, analyze_dir, flip_dir))
    n, r, m, a = read_bfm_text(construct_dir / "frame.bfm")
    mu_want = math.sqrt(r / n)
    nu_want = 1.0 / (m - 1)
    per_basis = n // r

    for rep_path in (construct_dir / "report.json", analyze_dir / "report.json"):
        rep = json.loads(rep_path.read_text())
        _near(rep["worst_case_coherence"], mu_want, 1e-12, f"{rep_path}: mu")
        _near(rep["average_coherence"], nu_want, 1e-9, f"{rep_path}: nu")

    gram = np.loadtxt(analyze_dir / "gram.csv", delimiter=",", ndmin=2)
    _require(gram.shape == (m, m), f"gram.csv shape {gram.shape} != ({m}, {m})")
    _require(bool(np.all(np.diagonal(gram) == 1.0)), "gram.csv diagonal is not 1")
    _require(np.array_equal(gram, gram.T), "gram.csv is not symmetric")
    off = gram[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    at_mu = np.sum(np.abs(off - mu_want) <= 1e-12, axis=1)
    at_zero = np.sum(np.abs(off) <= 1e-12, axis=1)
    _require(
        bool(np.all(at_mu == m - per_basis)) and bool(np.all(at_zero == per_basis - 1)),
        f"gram.csv rows do not hold {m - per_basis} entries of {mu_want} "
        f"and {per_basis - 1} zeros",
    )
    ar = _real_if_real(a)
    cross = (ar.conj().T @ ar).reshape(m, r, m, r).transpose(0, 2, 1, 3)
    lead = cross[..., 0, 0]
    iso = float(np.abs(cross - lead[..., None, None] * np.eye(r)).max())
    _require(iso <= 1e-12, f"a cross-Gram is not a multiple of I (dev {iso:.3e})")
    dev = float(np.abs(np.abs(lead) - gram).max())
    _require(dev <= 1e-12, f"gram.csv differs from |A_i* A_j| by {dev:.3e}")

    flip = json.loads((flip_dir / "flip.json").read_text())
    fn, fr, fm, b = read_bfm_text(flip_dir / "flipped.bfm")
    _require((fn, fr, fm) == (n, r, m), "flipped.bfm has another shape")
    check_signed_copy(a, b, flip["signs"], r)
    _require(
        float(flip["mu_after"]).hex() == float(flip["mu_before"]).hex(),
        "flip: mu_after differs from mu_before",
    )
    _near(flip["mu_before"], mu_want, 1e-12, "flip: mu")
    _near(nu_by_svd(b, r), flip["nu_after"], 1e-9, "flip: recomputed nu_after")

    for mpath in (
        construct_dir / "construct-manifest.json",
        analyze_dir / "analyze-manifest.json",
        flip_dir / "flip-manifest.json",
    ):
        check_manifest(mpath)


# ------------------------------------------------------------------ random-frames


def check_random_mu(data, n, r, m, mu):
    """mu of a random frame against a batched SVD and the block Welch bound."""
    check_blocks_orthonormal(data, r)
    _near(mu, mu_by_svd(data, r), 1e-10, "mu against batched svd")
    _require(
        block_welch_bound(n, r, m) <= mu <= 1.0,
        f"mu {mu!r} outside [Welch {block_welch_bound(n, r, m)!r}, 1]",
    )


def replay_greedy_signs(data, r, lib_signs, tie=1e-12, ambiguous=1e-9):
    """Replay the greedy sign rule with numpy's own spectral norms.

    Block k joins the running sum with +1 when ||F + A_k|| - ||F - A_k|| is
    at most `tie`.  A step whose margin lies within `ambiguous` of `tie`
    cannot be decided by a recomputation with different rounding; there the
    program's sign is accepted and the replay continues with it.
    """
    data = _real_if_real(data)
    n, mr = data.shape
    m = mr // r
    f = data[:, :r].copy()
    _require(int(lib_signs[0]) == 1, "flip: first sign is not +1")
    for k in range(1, m):
        blk = data[:, k * r : (k + 1) * r]
        margin = np.linalg.norm(f + blk, 2) - np.linalg.norm(f - blk, 2)
        want = 1 if margin <= tie else -1
        if abs(margin - tie) > ambiguous:
            _require(int(lib_signs[k]) == want, f"flip: greedy sign of block {k} differs")
        f += int(lib_signs[k]) * blk


def check_random_flip(data, r, result):
    """A flip result on a random frame: Gram map kept, signs greedy, nu bounded."""
    m = data.shape[1] // r
    check_blocks_orthonormal(data, r)
    _require(
        float(result.mu_after).hex() == float(result.mu_before).hex(),
        "flip: mu_after differs from mu_before",
    )
    check_signed_copy(data, result.frame.data, result.signs, r)
    replay_greedy_signs(data, r, result.signs)
    _near(nu_by_svd(result.frame.data, r), result.nu_after, 1e-9, "flip: recomputed nu_after")
    _require(
        result.nu_after <= flipped_nu_bound(m),
        f"flip: nu_after {result.nu_after!r} above (sqrt(m)+1)/(m-1)",
    )


# ------------------------------------------------------------------ cs-ndp


def check_ndp_csv(path, labels, k_grid, dr_grid, trials):
    """ndp.csv: one row per (frame, k, DR), NDPs that whole trials can give."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(
        len(rows) == len(labels) * len(k_grid) * len(dr_grid),
        f"ndp.csv has {len(rows)} rows",
    )
    seen = set()
    for row in rows:
        k, mean, t = int(row["k"]), float(row["mean_ndp"]), int(row["trials"])
        seen.add((row["label"], k, float(row["dynamic_range"])))
        _require(t == trials, f"ndp.csv: trials {t} != {trials}")
        _require(0.0 <= mean <= 1.0, f"ndp.csv: NDP {mean!r} outside [0, 1]")
        misses = mean * t * k
        _require(
            abs(misses - round(misses)) <= 1e-9,
            f"ndp.csv: mean_ndp*trials*k = {misses!r} is not a whole number of misses",
        )
        # with mu < 1 the true block has the strictly largest energy at k = 1
        _require(k != 1 or mean == 0.0, f"ndp.csv: {row['label']} misses at k=1")
    want = {(lab, k, float(dr)) for lab in labels for k in k_grid for dr in dr_grid}
    _require(seen == want, "ndp.csv rows do not cover every (frame, k, DR)")


def draw_block_sparse(rng, m, r, k, dr):
    """Block-sparse real signal: k random blocks, entries +-U[1, dr]."""
    x = np.zeros(m * r, dtype=np.complex128)
    for blk in rng.choice(m, size=k, replace=False):
        x[blk * r : (blk + 1) * r] = rng.uniform(1.0, dr, size=r) * rng.choice((-1.0, 1.0), size=r)
    return x


def top_k_blocks(data, r, y, k):
    """The k blocks of largest ||A_i* y||_2, ties to the lower index."""
    m = data.shape[1] // r
    energy = np.linalg.norm((data.conj().T @ y).reshape(m, r), axis=1)
    order = sorted(range(m), key=lambda j: (-energy[j], j))
    return sorted(order[:k])


def check_threshold_picks(picked, data, r, y, k):
    want = top_k_blocks(data, r, y, k)
    _require(
        [int(i) for i in picked] == want,
        f"group threshold picked {list(picked)}, numpy top-{k} gives {want}",
    )
