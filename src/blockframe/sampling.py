"""Uniformly random subspaces and the empirical coherence curve.

Randomness discipline: every sampled object gets its own counter-based
substream, keyed by a path (seed, ..., block) through numpy's
SeedSequence / Philox pair; experiments put their own indices (grid point,
trial) in the path, never arithmetic on them.  Results are therefore
bit-identical however trials are scheduled, including across thread
counts, and any single trial can be regenerated in isolation.

Keys are derived in one vectorized pass, never one SeedSequence per draw:
substream_keys hashes many paths at once, exactly as SeedSequence does.
sample_block_frame keys its m blocks with one call, and run_ndp_experiment
every signal of the experiment with one call (and, with noise, every noise
draw with one more).  Each consumer, a frame's draw or an experiment's
trial, then holds one Philox (keyed_rng) and re-keys it to (key, counter 0)
before each draw, which gives the stream Philox(SeedSequence(...)) would,
since Philox is counter-based.
"""

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import frame as frame_module
from .bounds import solve_threshold
from .errors import FrameError
from .frame import BlockFrame, check_field, check_nrm, worst_case_coherence
from .matrixcore import check_count, check_entries, orthonormalize


def _substream_address(seed, path):
    """(seed, path) as a non-negative int and non-negative components, or
    FrameError; a component is an int or an integer array, made uint64."""
    try:
        seed = operator.index(seed)
        path = tuple(_component(p) for p in path)
    except TypeError:
        raise FrameError(f"seed and substream path must be integers, got {seed!r}, {path!r}")
    if seed < 0:
        raise FrameError(f"seed must be non-negative, got {seed}")
    return seed, path


def _component(p):
    """One path component: a non-negative int, or an integer array as uint64."""
    if isinstance(p, np.ndarray) and p.ndim:
        if p.dtype.kind not in "iu":
            raise TypeError(f"not an integer array: {p.dtype}")
        negative = p.dtype.kind == "i" and p.size and p.min() < 0
        p = p.astype(np.uint64, copy=False)
    else:
        p = operator.index(p)
        negative = p < 0
    if negative:
        raise FrameError("substream path components must be non-negative")
    return p


def substream_rng(seed, *path):
    """Independent generator for one (seed, path...) address."""
    seed, path = _substream_address(seed, path)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return np.random.Generator(np.random.Philox(ss))


def keyed_rng():
    """One Philox-backed Generator and at(key), which re-keys it to a substream.

    at(key) sets the Philox key to key (a row of substream_keys) and its
    counter to 0 and returns the Generator, which then draws what
    Generator(Philox(SeedSequence(...))) would for that substream: Philox is
    counter-based, so (key, counter 0) is its whole state.  The Generator
    belongs to the one consumer that made it, never to two threads.
    """
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state

    def at(key):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        return rng

    return at


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool of four
# uint32 words, hash constants and multipliers of its mix and generate_state
_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const, mult):
    """One hashmix step: the mixed value and the next hash constant.

    It and _mix take Python ints, or uint32 arrays elementwise, whose
    products wrap as the mask would; a (4, 1) column of successive
    constants mixes one word into the four pool words at once."""
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


def _const_columns(const, mult, words):
    """The hash constants from const on, one (4, 1) column per word: the
    four successive constants that mix one word into the four pool words."""
    seq = [const]
    for _ in range(_POOL * words):
        seq.append((seq[-1] * mult) & _M32)
    return np.array(seq[:-1], dtype=np.uint32).reshape(words, _POOL, 1)


_STATE_CONSTS = _const_columns(_INIT_B, _MULT_B, 1)[0]


def substream_keys(seed, path, count=None):
    """Philox keys of the substreams (seed, *path), many paths in one pass.

    Each component of path is a non-negative int or an array of them (below
    2^64); the components broadcast against each other to the rows of the
    result, and count, if given, appends the index i < count as a last
    component.  Each row of the (*shape, 2) uint64 result equals
    SeedSequence(entropy=seed, spawn_key=row).generate_state(2, np.uint64),
    so sample_block_frame keys its m blocks, and run_ndp_experiment all its
    (k, bits(dr), trial) signals, with one call.

    The entropy words are the seed's, padded to the pool size, then the
    path's, component by component.  The pool is mixed in Python ints up to
    the first array component, as SeedSequence does, once for every row;
    each later word is mixed into all four pool words at once, in uint32
    arrays over the rows.  A component of one 32-bit word in some rows and
    two in others would shift the words after it, so rows are keyed in
    separate groups, one per pattern of word counts.
    """
    if count is not None:
        path = (*path, np.arange(count, dtype=np.uint64))
    seed, path = _substream_address(seed, path)
    lead = next((j for j, p in enumerate(path) if isinstance(p, np.ndarray)), len(path))
    arrays = [p for p in path[lead:] if isinstance(p, np.ndarray)]
    shape = np.broadcast(*arrays).shape if arrays else ()
    head = _words(seed)
    head += [0] * (_POOL - len(head)) + [w for p in path[:lead] for w in _words(p)]
    pool, const = [], _INIT_A
    for w in head[:_POOL]:
        v, const = _hashmix(w, const, _MULT_A)
        pool.append(v)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                v, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], v)
    for w in head[_POOL:]:
        for dst in range(_POOL):
            v, const = _hashmix(w, const, _MULT_A)
            pool[dst] = _mix(pool[dst], v)
    pool = np.array(pool, dtype=np.uint32)[:, None]
    rest = [
        p if not isinstance(p, np.ndarray) else np.broadcast_to(p, shape).reshape(-1)
        for p in path[lead:]
    ]
    # bit j set where the j-th remaining component takes two words
    pattern = np.zeros(math.prod(shape), np.int64)
    for j, col in enumerate(rest):
        if isinstance(col, np.ndarray):
            pattern |= (col > _M32).astype(np.int64) << j
    uniform = pattern.size == 0 or pattern.min() == pattern.max()
    groups = pattern[:1].tolist() if uniform else np.unique(pattern).tolist()
    keys = np.empty((len(pattern), 2), np.uint64)
    for group in groups:
        rows = slice(None) if uniform else pattern == group
        words = []
        for j, col in enumerate(rest):
            if not isinstance(col, np.ndarray):
                words += _words(col)
            elif group >> j & 1:
                words += [col[rows].astype(np.uint32), (col[rows] >> 32).astype(np.uint32)]
            else:
                words.append(col[rows].astype(np.uint32))
        mixed = pool
        for w, consts in zip(words, _const_columns(const, _MULT_A, len(words))):
            mixed = _mix(mixed, _hashmix(w, consts, _MULT_A)[0])
        state = _hashmix(mixed, _STATE_CONSTS, _MULT_B)[0]
        # the four state words, little-endian, are the two uint64 key words
        keys[rows] = np.ascontiguousarray(state.T, dtype="<u4").view("<u8")
    return keys.reshape(*shape, 2)


def parallel_map(fn, items, threads):
    """Order-preserving map, threaded when the count threads is above 1."""
    threads = check_count(threads, "threads")
    if threads == 1:
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
        for name, count in zip("nrm", check_nrm(self.n, self.r, self.m)):
            object.__setattr__(self, name, count)
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
    n, r = check_count(n, "n", minimum=0), check_count(r, "r", minimum=0)  # see orthonormalize
    check_field(field_tag)
    # a side of 0 counts as 1, so neither side alone is past numpy's shapes
    check_entries(max(n, 1) * max(r, 1), f"random subspace of shape {n} x {r}")
    return orthonormalize(_gaussian(n, r, rng, field_tag))


def sample_block_frame(spec, *path, trial=None):
    """Frame of m independent random blocks; block i uses substream
    (seed, *path, i).

    The path defaults to (0,); trial=t appends t, so sample_block_frame(spec,
    trial=t) draws from (seed, t, i).  All m keys come from substream_keys,
    and one Philox, re-keyed to (key_i, counter 0) before each block, draws
    them all; it is never shared between calls, hence between threads.
    Chunks of at most _CHUNK_ENTRIES entries are orthonormalized as stacks,
    bit for bit as sample_subspace does one block, and each stack's rows of
    r entries are moved into the frame as single items (frame._items).
    """
    if trial is not None:
        path += (trial,)
    path = path or (0,)
    n, r, m = spec.n, spec.r, spec.m
    check_entries(n * m * r, f"random frame of shape {n} x {m * r}")
    keys = substream_keys(spec.seed, path, m)
    rng_at = keyed_rng()
    data = np.empty((n, m * r), np.complex128 if spec.field_tag == "complex" else np.float64)
    rows = frame_module._items(data, r)
    per_chunk = max(1, frame_module._CHUNK_ENTRIES // (n * r))
    for i0 in range(0, m, per_chunk):
        i1 = min(m, i0 + per_chunk)
        draws = [_gaussian(n, r, rng_at(keys[i]), spec.field_tag) for i in range(i0, i1)]
        q = np.ascontiguousarray(orthonormalize(np.stack(draws)))
        rows[:, i0:i1] = frame_module._items(q, r)[..., 0].T
    return BlockFrame(n=n, r=r, m=m, data=data)


@dataclass(frozen=True)
class CurvePoint:
    beta: float
    mean_mu: float
    max_mu: float
    theory_mu: float


def default_block_count(n, r, cap=400):
    """(n/r)^2 blocks, floored, capped; mirrors the deterministic recipes.

    The floor is taken in integers, so no n overflows a float.
    """
    n, r, cap = check_count(n, "n"), check_count(r, "r"), check_count(cap, "cap")
    return min(n * n // (r * r), cap)


def empirical_mu_curve(n, r_grid, trials, seed, m_cap=400, threads=1):
    """Worst-case coherence of random frames against the asymptotic threshold.

    For each r in the grid: m = min((n/r)^2, m_cap) blocks are drawn
    per trial and the frame's worst-case coherence computed; the row records
    the mean and max over trials next to sqrt(a_hat(beta) * beta).
    """
    trials = check_count(trials, "trials")
    check_entries(trials, f"{trials} trials")
    points = []
    for ri, r in enumerate(r_grid):
        if r < 1 or not 2 * r < n:
            raise FrameError(f"grid point r={r} violates 1 <= r, 2r < n")
        m = default_block_count(n, r, cap=m_cap)
        spec = RandomFrameSpec(n=n, r=r, m=m, seed=seed, field_tag="real")
        beta = spec.r / spec.n

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
