"""Uniformly random subspaces and the empirical coherence curve.

Randomness discipline: every sampled object gets its own counter-based
substream, keyed by a path (seed, ..., block) through numpy's
SeedSequence / Philox pair; experiments put their own indices (grid point,
trial) in the path, never arithmetic on them.  Results are therefore bit-identical however trials are
scheduled, including across thread counts, and any single trial can be
regenerated in isolation.

A frame's m block keys are derived in one pass: substream_keys mixes the
shared (seed, *path) prefix once, as SeedSequence does, and the block index
over an array.  sample_block_frame then re-keys one Philox per call before
each block's draw, which gives the stream Philox(SeedSequence(...)) would,
since Philox is counter-based.
"""

import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import frame as frame_module
from .bounds import solve_threshold
from .errors import FrameError
from .frame import BlockFrame, check_field, check_nrm, worst_case_coherence
from .matrixcore import check_entries, orthonormalize


def _substream_address(seed, path):
    """(seed, path) as non-negative Python ints, or FrameError."""
    try:
        seed, path = operator.index(seed), tuple(operator.index(p) for p in path)
    except TypeError:
        raise FrameError(f"seed and substream path must be integers, got {seed!r}, {path!r}")
    if seed < 0:
        raise FrameError(f"seed must be non-negative, got {seed}")
    if any(p < 0 for p in path):
        raise FrameError("substream path components must be non-negative")
    return seed, path


def substream_rng(seed, *path):
    """Independent generator for one (seed, path...) address."""
    seed, path = _substream_address(seed, path)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool of four
# uint32 words, hash constants and multipliers of its mix and generate_state
_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const, mult):
    """One hashmix step: the mixed value and the next hash constant."""
    nxt = (const * mult) & _M32
    value = ((value ^ const) * nxt) & _M32
    return value ^ (value >> 16), nxt


def _mix(x, y):
    z = (_MIX_L * x - _MIX_R * y) & _M32
    return z ^ (z >> 16)


def _words(x):
    """Little-endian uint32 words of a non-negative int; 0 is one word."""
    words = [x & _M32]
    while x > _M32:
        x >>= 32
        words.append(x & _M32)
    return words


def substream_keys(seed, path, count):
    """Philox keys of the substreams (seed, *path, i) for i < count.

    Row i of the (count, 2) uint64 result equals
    SeedSequence(entropy=seed, spawn_key=(*path, i)).generate_state(2, np.uint64).
    The entropy words are the seed's, padded to the pool size, then the
    path's; the block index (count <= 2^32, one word) is the last word, past
    the pool, so the pool before it is mixed in is shared.  That pool is
    mixed once in Python ints; only the index's mix and generate_state run
    over an array.
    """
    seed, path = _substream_address(seed, path)
    head = _words(seed)
    head += [0] * (_POOL - len(head)) + [w for p in path for w in _words(p)]
    pool, const = [], _INIT_A
    for w in head[:_POOL]:
        v, const = _hashmix(w, const, _MULT_A)
        pool.append(v)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                v, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], v)
    index = np.arange(count, dtype=np.uint64)
    for w in [*head[_POOL:], index]:
        for dst in range(_POOL):
            v, const = _hashmix(w, const, _MULT_A)
            pool[dst] = _mix(pool[dst], v)
    state, const = [], _INIT_B
    for w in pool:
        v, const = _hashmix(w, const, _MULT_B)
        state.append(v)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def parallel_map(fn, items, threads):
    """Order-preserving map, threaded when threads > 1."""
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


@dataclass(frozen=True)
class RandomFrameSpec:
    """Dimensions and seed for one family of random block frames."""

    n: int
    r: int
    m: int
    seed: int
    field_tag: str = "real"

    def __post_init__(self):
        check_nrm(self.n, self.r, self.m)
        _substream_address(self.seed, ())
        check_field(self.field_tag)


def _gaussian(n, r, rng, field_tag):
    """An n x r Gaussian draw, with an imaginary part for a complex field."""
    g = rng.standard_normal((n, r))
    if field_tag == "complex":
        g = g + 1j * rng.standard_normal((n, r))
    return g


def sample_subspace(n, r, rng, field_tag="real"):
    """Orthonormal basis of a uniformly random r-dimensional subspace.

    Gaussian matrix, thin QR, fixed phase convention; invariance of the
    Gaussian ensemble under rotation makes the span uniform on the
    Grassmannian.  r = n gives a random orthogonal or unitary matrix.
    """
    return orthonormalize(_gaussian(n, r, rng, field_tag))


def sample_block_frame(spec, *path, trial=None):
    """Frame of m independent random blocks; block i uses substream
    (seed, *path, i).

    The path defaults to (0,); trial=t appends t, so sample_block_frame(spec,
    trial=t) draws from (seed, t, i).  All m keys come from substream_keys,
    and one Philox, re-keyed to (key_i, counter 0) before each block, draws
    them all; it is never shared between calls, hence between threads.
    Chunks of at most _CHUNK_ENTRIES entries are orthonormalized as stacks,
    bit for bit as sample_subspace does one block.
    """
    if trial is not None:
        path += (trial,)
    path = path or (0,)
    n, r, m = spec.n, spec.r, spec.m
    check_entries(n * m * r, f"random frame of shape {n} x {m * r}")
    keys = substream_keys(spec.seed, path, m)
    bitgen = np.random.Philox(key=keys[0])
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state

    def block_rng(i):
        fresh["state"]["key"] = keys[i]
        bitgen.state = fresh
        return rng

    data = np.empty((n, m * r), np.complex128 if spec.field_tag == "complex" else np.float64)
    blocks = data.reshape(n, m, r).transpose(1, 0, 2)
    per_chunk = max(1, frame_module._CHUNK_ENTRIES // (n * r))
    for i0 in range(0, m, per_chunk):
        i1 = min(m, i0 + per_chunk)
        draws = [_gaussian(n, r, block_rng(i), spec.field_tag) for i in range(i0, i1)]
        blocks[i0:i1] = orthonormalize(np.stack(draws))
    return BlockFrame(n=n, r=r, m=m, data=data)


@dataclass(frozen=True)
class CurvePoint:
    beta: float
    mean_mu: float
    max_mu: float
    theory_mu: float


def default_block_count(n, r, cap=400):
    """(n/r)^2 blocks, floored, capped; mirrors the deterministic recipes."""
    return min(int((n / r) ** 2), cap)


def empirical_mu_curve(n, r_grid, trials, seed, m_cap=400, threads=1):
    """Worst-case coherence of random frames against the asymptotic threshold.

    For each r in the grid: m = min((n/r)^2, m_cap) blocks are drawn
    per trial and the frame's worst-case coherence computed; the row records
    the mean and max over trials next to sqrt(a_hat(beta) * beta).
    """
    if trials < 1:
        raise FrameError(f"need at least one trial, got {trials}")
    points = []
    for ri, r in enumerate(r_grid):
        if r < 1 or not 2 * r < n:
            raise FrameError(f"grid point r={r} violates 1 <= r, 2r < n")
        m = default_block_count(n, r, cap=m_cap)
        beta = r / n
        spec = RandomFrameSpec(n=n, r=r, m=m, seed=seed, field_tag="real")

        def one_trial(t, _spec=spec, _ri=ri):
            # trial substreams are keyed on (grid index, trial) so grid
            # points stay independent of each other
            return worst_case_coherence(sample_block_frame(_spec, _ri, t))

        mus = parallel_map(one_trial, range(trials), threads)
        theory = float(np.sqrt(solve_threshold(beta).multiplier * beta))
        points.append(
            CurvePoint(
                beta=beta,
                mean_mu=float(np.mean(mus)),
                max_mu=float(np.max(mus)),
                theory_mu=theory,
            )
        )
    return points
