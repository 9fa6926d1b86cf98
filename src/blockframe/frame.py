"""Block frames and their coherence measures.

A block frame is an n x (m*r) matrix viewed as m concatenated n x r blocks,
each block an orthonormal set spanning an r-dimensional subspace.  The two
quantities everything else revolves around:

  worst-case block coherence   max over i != j of the spectral norm of
                               A_i* A_j
  average block coherence      1/(m-1) * max over i of the spectral norm
                               of sum over j != i of A_i* A_j

and, for a plain matrix with unit-norm columns p_i, the column analogue of
the average: 1/(m-1) * max_i | sum_{j != i} <p_i, p_j> |.
"""

import math
import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import FrameError
from .matrixcore import (
    as_matrix,
    batch_spectral_norms,
    check_entries,
    frobenius_norm,
    gram_deviation,
    gram_singular_values,
    singular_values_2x2,
    singular_values_3x3,
    tight_deviation,
)

_ORTHO_TOL = 1e-8
_TIGHT_TOL = 1e-8
_ISOCLINIC_TOL = 1e-6
_CHUNK_ENTRIES = 1 << 16  # entries of one chunk's Gram A_I* A[:, i0*r:]
_PRUNE_SLACK = 1e-10  # covers rounding in the certificates, the closed forms and eigvalsh
_MAX_POWER = 32  # the last q whose ||H^q||_F^2 prunes at r >= 4
_NORMAL_MIN = np.finfo(np.float64).tiny / np.finfo(np.float64).eps  # see _floor
_SCREEN_COLUMNS = 256  # a screen tile is 256 // r blocks a side, at most 2^16 entries
_SCREEN_MIN_CHUNKS = 20  # the screen's three thresholds; see _screens
_SCREEN_MIN_ROWS = 128
_SCREEN_MIN_DEPTH = 8
_SLICE_PAIRS = 1 << 11  # pairs the sweep solves at once at r <= 3; see _slice_pairs
_SLICE_ENTRIES = 1 << 13  # entries of the H a slice gathers at r >= 4, and of a mask read at once
_TIE_TOL = 1e-11  # seed pairs this close to its best, relatively, tie; see worst_case_coherence

_workspaces = threading.local()


def check_nrm(n, r, m):
    """The one shape rule of a block frame: integers (numpy's too) with 0 < r < n <= m*r."""
    try:
        n, r, m = map(operator.index, (n, r, m))
    except TypeError:
        raise FrameError(f"n, r, m must be integers, got {n!r}, {r!r}, {m!r}") from None
    if n <= 0 or r <= 0 or m <= 0:
        raise FrameError("n, r, m must be positive")
    if not r < n:
        raise FrameError(f"need r < n, got r={r}, n={n}")
    if not n <= m * r:
        raise FrameError(f"need n <= m*r, got n={n}, m*r={m * r}")


def check_count(value, name, minimum=1):
    """The one count rule: an integer (numpy's too) of at least minimum, returned as an int."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < minimum:
        raise FrameError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return count


def check_field(tag):
    """The one field rule: a field tag is "real" or "complex"."""
    if tag not in ("real", "complex"):
        raise FrameError(f"field must be real or complex, got {tag!r}")


@dataclass(frozen=True, init=False)
class BlockFrame:
    """m blocks of r orthonormal columns each, stacked side by side.

    Blocks not orthonormal to 1e-8 (entrywise in A_i* A_i - I) are refused,
    so no frame can report a coherence above 1.  The dtype of data is the
    field: float64 for a real frame, complex128 for a complex one, and
    field_tag is read off it.  The optional field_tag argument asks for a
    cast: "real" accepts complex input only when every imaginary part is
    zero, and "complex" widens real input.

    One construction skips these checks: _signed, behind
    flipping.apply_block_signs, which multiplies each block of a checked
    frame by +1 or -1.  Negation is exact, so the signed frame's data is
    finite and its A_i* A_i are the original's bit for bit; running the
    checks again could only repeat their verdict.
    """

    n: int
    r: int
    m: int
    data: np.ndarray

    def __init__(self, n, r, m, data, field_tag=None):
        data = as_matrix(data)
        if field_tag is not None:
            check_field(field_tag)
        if field_tag == "real" and np.iscomplexobj(data):
            if np.any(data.imag != 0.0):
                raise FrameError("field_tag is real but imaginary parts are nonzero")
            data = np.ascontiguousarray(data.real)
        elif field_tag == "complex":
            data = data.astype(np.complex128, copy=False)
        check_nrm(n, r, m)
        if data.shape != (n, m * r):
            raise FrameError(f"data shape {data.shape} does not match n={n}, m={m}, r={r}")
        for name, value in (("n", n), ("r", r), ("m", m), ("data", data)):
            object.__setattr__(self, name, value)
        dev = gram_deviation(self.blocks3d())
        if not dev <= _ORTHO_TOL:
            raise FrameError(f"blocks are not orthonormal (max |A_i* A_i - I| = {dev:.3g})")

    @property
    def field_tag(self):
        return "complex" if np.iscomplexobj(self.data) else "real"

    def block(self, i):
        """The i-th n x r block (a view, not a copy)."""
        if not 0 <= i < self.m:
            raise FrameError(f"block index {i} out of range for m={self.m}")
        return self.data[:, i * self.r : (i + 1) * self.r]

    def blocks3d(self):
        """All blocks as an (m, n, r) stack (a view when possible)."""
        return self.data.reshape(self.n, self.m, self.r).transpose(1, 0, 2)

    def _signed(self, signs):
        """This frame with block i times signs[i]; the caller holds signs to +-1."""
        data = self.data * np.repeat(signs.real.astype(np.float64), self.r)[None, :]
        signed = object.__new__(BlockFrame)
        for name, value in (("n", self.n), ("r", self.r), ("m", self.m), ("data", data)):
            object.__setattr__(signed, name, value)
        return signed

    @classmethod
    def from_blocks(cls, blocks, field_tag=None):
        blocks = [as_matrix(b) for b in blocks]
        if not blocks:
            raise FrameError("a frame needs at least one block")
        n, r = blocks[0].shape
        for b in blocks:
            if b.shape != (n, r):
                raise FrameError("blocks must share a common shape")
        data = np.concatenate(blocks, axis=1)
        return cls(n=n, r=r, m=len(blocks), data=data, field_tag=field_tag)


def _workspace(name, shape, dtype):
    """A view, of this shape and dtype, of the calling thread's buffer name.

    The pair sweep writes every array that scales with a chunk into four
    buffers through out=, so that a sweep faults in no memory that the last
    one in the same thread already had.  By the stages of one chunk or
    screen tile:

      product       the chunk's product g (_chunk), or a tile's C~
                    (_screen_tile); it lives until the next one
      certificates  first what feeds the product and dies with it: complex
                    data's A_I* (_chunk) or the float32 tile (_screen_tile);
                    then what the chunk's certificates are read from, living
                    as long as the product: the squares, which the
                    certificates u overwrite (_frobenius_squares), or H at
                    r >= 4 (_gram_stack)
      scratch       what dies while those are formed: the column sums and
                    imaginary squares, complex data's conjugated chunk
                    behind H, or the screen's float32 column tile
      strips        the screen's float32 row strip, reused across its row

    Each holds what one chunk needs: at most 2^16 entries (or one block row,
    when that is larger), and n 256 entries for the strip.  Each thread has
    its own (threading.local); a buffer grows when a call asks for more than
    it holds and is never freed.  A view holds only until the next call for
    the same name in the same thread, so nothing the sweep returns or keeps
    past the next chunk is one.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buffers = _workspaces.__dict__
    if name not in buffers or buffers[name].size < nbytes:
        buffers[name] = np.empty(nbytes, np.uint8)
    return buffers[name][:nbytes].view(dtype).reshape(shape)


def _chunk_runs(n, m, r, cplx):
    """The (i0, i1) block-row runs of the pair sweep's chunks, in order.

    One gemm A_I* A[:, i0*r:] covers the rows I = i0..i1-1.  Its product
    holds at most 2^16 entries, and so does the conjugated row block A_I*,
    n*r*|I| entries, of complex data (a real block's conj() is a view); a
    single block row is the least a chunk takes.  The runs depend on
    (n, m, r) and the field alone.
    """
    row_cap = _CHUNK_ENTRIES // (n * r) if cplx else m
    i0 = 0
    while i0 < m - 1:
        i1 = min(m - 1, i0 + max(1, min(row_cap, _CHUNK_ENTRIES // (r * r * (m - i0)))))
        yield i0, i1
        i0 = i1


def _chunk(x, r, i0, i1):
    """(g, keep) of the run i0..i1-1: g = A_I* A[:, i0*r:] as an (I, r, m - i0, r) view.

    g is in x's own dtype, and g[a, :, b, :] is the cross-Gram A_i* A_j of
    i = i0 + a and j = i0 + b.  keep is the (I, m - i0) mask of the chunk's
    pairs, b > a; the others are the diagonal blocks A_i* A_i and pairs
    that an earlier chunk covers.  g and complex data's A_I* are views of
    the workspace (_workspace), in the layouts numpy would allocate, so the
    gemm is the one a fresh product makes.
    """
    m = x.shape[1] // r
    rows, cols = x[:, i0 * r : i1 * r], x[:, i0 * r :]
    if np.iscomplexobj(x):
        rows = np.conjugate(rows, out=_workspace("certificates", rows.shape, x.dtype))
    g = np.matmul(rows.T, cols, out=_workspace("product", (rows.shape[1], cols.shape[1]), x.dtype))
    keep = np.arange(m - i0) > np.arange(i1 - i0)[:, None]
    return g.reshape(i1 - i0, r, m - i0, r), keep


def _pair_chunks(x, r):
    """Every block pair i < j once, a run of block rows at a time.

    x is n x (m*r) data, read as m blocks of r columns.  Yields (i0, g, keep)
    of each run of _chunk_runs, as _chunk forms them.  g lives in the
    thread's workspace, which the next chunk of this or any other sweep in
    the thread overwrites, so a caller keeps nothing that views it.

    Everything computed from a cross-Gram C, or from H = C*C, is
    sign-invariant bit for bit.  Chunk shapes depend on (n, m, r) and the
    field alone, and a gemm of fixed shapes does the same operations on
    negated inputs, so negating block k negates every C that involves it
    exactly and leaves H, the squared entries behind ||C||_F and the pruning
    choices unchanged.  The same holds for worst_case_coherence's float32
    screen (_screen): negation is exact in float32 too, and its tile shapes
    depend on (n, m, r) and the field alone, so sigma^, L, every chunk it
    skips and every fallback are sign-invariant.
    """
    n, m = x.shape[0], x.shape[1] // r
    for i0, i1 in _chunk_runs(n, m, r, np.iscomplexobj(x)):
        yield i0, *_chunk(x, r, i0, i1)


def _gather(g, a, b):
    """The (p, r, r) stack of cross-Grams g[a, :, b, :] of a chunk, C-contiguous.

    Each row of r entries is copied as one opaque item, which is faster than
    numpy's entry-by-entry copy of a strided r x r subspace; the bytes are
    the same.
    """
    r = g.shape[1]
    return _items(g, r)[a, :, b, 0].view(g.dtype).reshape(len(a), r, r)


def _items(x, r):
    """x with each run of r entries along its last axis viewed as one opaque item.

    Copying such items moves each run as one block of bytes, which is faster
    than numpy's entry-by-entry copy of a strided view whose inner loop is r
    entries long; the bytes are the same.
    """
    return x.view(np.dtype((np.void, r * x.itemsize)))


def _gram_stack(g):
    """H = C*C of every cross-Gram of an (I, r, J, r) chunk, as an (I*J, r, r) stack.

    Formed on the chunk's own (I, J, r, r) view, with no C copied out, and
    bitwise the H of a gathered C; row a*J + b is the pair (a, b).  H, and
    complex data's conjugated chunk, are views of the workspace in the
    layouts numpy would allocate; real data's conj() is the chunk itself, so
    numpy forms each H by syrk as before.
    """
    n_i, r, n_j, _ = g.shape
    v = gh = g.transpose(0, 2, 1, 3)
    if np.iscomplexobj(g):
        gh = np.conjugate(g, out=_workspace("scratch", g.shape, g.dtype)).transpose(0, 2, 1, 3)
    h = _workspace("certificates", (n_i, n_j, r, r), g.dtype)
    return np.matmul(gh.swapaxes(-1, -2), v, out=h).reshape(-1, r, r)


def _singular_values(g, a, b, h=None):
    """Singular values, smallest first, of the cross-Grams of the pairs (a, b) of a chunk.

    The sweep's one solver: |c| and the closed forms on the gathered C at
    r <= 3, and eigvalsh of H = C*C at r >= 4, h = _gram_stack(g) formed
    here unless the caller passes it; no H is formed from a gathered C.
    """
    r = g.shape[1]
    if r >= 4:
        h = _gram_stack(g) if h is None else h
        return gram_singular_values(h[a * g.shape[2] + b])
    c = _gather(g, a, b)
    if r == 1:
        return np.abs(c[:, :, 0])
    return singular_values_2x2(c) if r == 2 else singular_values_3x3(c)


def _slice_pairs(r):
    """Pairs per slice: 2^11 at r <= 3, and as many as hold 2^13 entries of H at r >= 4.

    The sweep gathers, solves and scatters pairs a slice at a time, so no
    index, C, H or solver array grows with the chunk: at r = 2 a slice's C
    is 64 KiB, and its index arrays 16 KiB each.  The closed forms cost a
    fixed 30 to 130 us a call, so r <= 3 keeps 2^11 pairs a slice; eigvalsh
    costs the same per matrix in any number.  Each pair is solved on its
    own, so slices change no bit.
    """
    return _SLICE_PAIRS if r <= 3 else max(1, _SLICE_ENTRIES // (r * r))


def _slices(p, step):
    """p in consecutive views of at most step entries."""
    return (p[s0 : s0 + step] for s0 in range(0, p.size, step))


def _batches(mask, step):
    """The flat indices where a flat mask is set, in order, in arrays of at most step.

    The mask is read _SLICE_ENTRIES entries at a time, so no index array
    holds more than that.
    """
    for q0 in range(0, mask.size, _SLICE_ENTRIES):
        p = np.flatnonzero(mask[q0 : q0 + _SLICE_ENTRIES])
        p += q0
        yield from _slices(p, step)


def _exhaustive_sweep(frame):
    """The Gram map and the extreme cross singular values, in one pass."""
    check_entries(frame.m * frame.m, f"gram map of {frame.m} blocks")
    r = frame.r
    gram = np.eye(frame.m)
    smin, smax = np.inf, 0.0
    for i0, g, keep in _pair_chunks(frame.data, r):
        h = _gram_stack(g) if r >= 4 else None
        block = gram[i0:, i0:]
        for p in _batches(keep.ravel(), _slice_pairs(r)):
            a, b = np.divmod(p, g.shape[2])
            sv = _singular_values(g, a, b, h)
            block[a, b] = block[b, a] = sv[:, -1]
            smin = min(smin, float(sv[:, 0].min()))
            smax = max(smax, float(sv[:, -1].max()))
    return gram, smin, smax


def gram_map(frame):
    """m x m matrix of cross-block spectral norms.

    Entry (i, j) is the largest singular value of A_i* A_j; the map is
    symmetric because A_j* A_i is the adjoint.  The diagonal is exactly 1
    (each block has orthonormal columns) and is set rather than computed.
    """
    return _exhaustive_sweep(frame)[0]


def worst_case_coherence(frame):
    """Largest cross-block spectral norm over all unordered block pairs.

    Each chunk of the pair sweep goes through one skeleton for every r
    (_chunk_max), which solves only the pairs that can hold the maximum.
    best is the largest sigma_max solved so far.  Each pair has certificates,
    power sums at least sigma_max^e (_chunk_max reads them), and a pair is
    dropped when one is below _floor(best, e), the one hold rule.  No pair
    is solved twice.  The closed forms are elementwise and eigvalsh treats
    each matrix on its own, so the result equals the exhaustive maximum bit
    for bit.

    Where _screens allows, most chunks are never formed in float64:

    - Seed.  Chunk 0 is swept exactly.  Its maximum is attained, a lower
      bound on mu.  If it solves more than one pair within a relative 1e-11
      (_TIE_TOL) of that maximum, the frame ties many pairs (a Kerdock or
      ETF lift), every tile would survive the screen, and the other chunks
      are swept exactly.  Pairs tied in exact arithmetic differ only by
      rounding: on the lifts (none, hadamard:1 to 3, dft:2 and 3) of every
      FAMILIES construction the largest spread of chunk 0's solved pairs
      below its best was 3.2e-12 of it (harmonic p = 1019, r = 1, 14,316
      ulp; the harmonic ETF's spread grows with p), while Kerdock and
      id-hadamard lifts lie within 2 ulp.  Random pairs rarely come that
      close, where 2 delta (1e-6 and up) takes in many.
    - Screen (_screen).  Every pair outside chunk 0 is bounded from float32
      products C~ in square tiles, sigma^ being the float64 solver's
      sigma_max of C~.  L = max(seed, largest sigma^ - delta) <= mu.
    - Exact pass.  The chunks that hold a pair with sigma^ >= L - 2 delta
      are swept exactly, in order of decreasing sigma^, from the seed's
      best.  They are _chunk_runs' chunks, in the gemm shapes of the
      exhaustive sweep, so mu is the exhaustive maximum bit for bit, and
      mu == max(gram_map) holds.
    - Guard.  If the pair that attains mu lies outside chunk 0, its sigma^
      must be within delta of mu; if not, the BLAS broke the bound, and
      every chunk after chunk 0 is swept exactly.

    delta (_screen_margin) bounds |sigma_max(C~) - sigma_max(C)|.  Let
    u = 2^-24, and gamma_k = k u / (1 - k u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1).  Every column
    has ||x||^2 within _ORTHO_TOL of 1, since BlockFrame refuses blocks with
    |A_i* A_i - I| above it, so |x|^T |y| <= ||x|| ||y|| <= 1 + _ORTHO_TOL.
    Real data: casting to float32 moves each product x_k y_k by at most
    (2u + u^2)|x_k y_k|, and an inner product of n terms, summed in any
    order, FMA included, is within gamma_n |x~|^T |y~| of the exact one
    (section 3.1).  Nothing here depends on the order of summation, so the
    bound holds as well for the symmetric product (syrk) that forms a
    diagonal tile of a real frame as for the general one.  So each entry of
    C~ is within
    e = (gamma_n (1 + u)^2 + 2u + u^2)(1 + _ORTHO_TOL) of C's.  Complex
    data (section 3.6): Re and Im of conj(x)^T y are each a real inner
    product of 2n terms, and sum |x_k,re y_k,re| + |x_k,im y_k,im| <=
    |x|^T |y|, so each part is within e with 2n for n, and the entry within
    sqrt(2) e.  This assumes four real products per complex one, as cgemm
    forms them, and not the 3M method.  Data below float32's normal range,
    and flush to zero, move each input, product and sum by at most 2^-126,
    each error grown at most twice by later roundings: 8 k 2^-126 more for
    k terms.
    ||C - C~||_2 <= ||C - C~||_F <= r max|entry error|, and Weyl's
    inequality moves sigma_max by at most that.  The float64 solver's own
    rounding on C~ (about 1e-15 relative) is covered by the hold rule's
    _PRUNE_SLACK.  A pair that attains mu has sigma^ >= mu - delta >= L -
    delta, so its certificate holds in the screen, it is solved there, and
    its chunk is swept.

    The screen is sign-invariant, as _pair_chunks states.
    """
    x, r = frame.data, frame.r
    cplx = np.iscomplexobj(x)
    runs = list(_chunk_runs(frame.n, frame.m, r, cplx))
    best = 0.0
    if _screens(frame.n, r, len(runs)):
        delta, seed = _screen_margin(frame.n, r, cplx), []
        best = _chunk_max(*_chunk(x, r, *runs[0]), 0.0, solved=seed)
        runs = runs[1:]
        if sum(np.count_nonzero(s >= best * (1 - _TIE_TOL)) for _, s in seed) == 1:
            mu = _screened_max(x, r, runs, best, delta)
            if mu is not None:
                return mu
    for run in runs:
        best = _chunk_max(*_chunk(x, r, *run), best)
    return best


def _screens(n, r, chunks):
    """Whether worst_case_coherence screens a frame of n rows, block width r and this many chunks.

    The screen adds float32 products, a second pass of certificates and a
    tile loop, and the seed and the exact pass still form some chunks in
    float64.  It wins only where the float64 gemm is most of mu: at least
    20 chunks, n >= 128 and n >= 8 r.  mu of a random frame (seed 1,
    trial 0), one process, 1 BLAS thread, best of 9, exact sweep ->
    screened, in ms:

        real (200, 10, 200)   32.2 -> 26.8   screened
        real (200, 10, 400)  151.1 -> 92.8   screened
        real (128, 2, 2048)   87.2 -> 49.7   screened
        real (128, 3, 512)    13.4 -> 12.6   screened (20 chunks)
        cplx (200, 10, 200)   98.3 -> 89.7   screened
        cplx (128, 4, 512)   105.7 -> 106.6  screened (the largest loss seen)
        real (128, 1, 1024)    4.7 -> 4.8    10 chunks
        real (128, 2, 512)     4.8 -> 4.8    10 chunks
        cplx (128, 2, 512)    14.5 -> 16.7   10 chunks
        real (64, 2, 512)      3.5 -> 4.0    n < 128
        real (100, 5, 300)    16.5 -> 17.4   n < 128
        cplx (100, 5, 300)    46.3 -> 50.8   n < 128
        real (60, 10, 30)      1.7 -> 1.9    2 chunks, n < 8 r

    (128, r, 256) at r = 1, 2, 3 has 1, 3 and 6 chunks, and (200, 30, 44)
    and (200, 40, 25) have n < 8 r; those the screen was not measured to
    lose at are left exact too, for a margin.
    """
    return chunks >= _SCREEN_MIN_CHUNKS and n >= max(_SCREEN_MIN_ROWS, _SCREEN_MIN_DEPTH * r)


def _screen_margin(n, r, cplx):
    """delta, the bound on |sigma_max(C~) - sigma_max(C)| that worst_case_coherence derives."""
    u = 2.0**-24
    k = 2 * n if cplx else n
    gamma = k * u / (1 - k * u)
    entry = (gamma * (1 + u) ** 2 + 2 * u + u * u) * (1 + _ORTHO_TOL) + 8 * k * 2.0**-126
    return r * entry * (2**0.5 if cplx else 1.0)


def _screen_tile(rows, cols, double):
    """C~ = rows @ cols, formed in float32 (complex64) and cast, exactly, into the buffer double.

    The float32 product is a view of the workspace.  Where cols is rows.T,
    numpy forms the product by syrk.
    """
    single = _workspace("certificates", double.shape, np.result_type(rows, cols))
    double[...] = np.matmul(rows, cols, out=single)
    return double


def _screen(x, r, start, lower, delta):
    """(L, pairs): the lower bound L and the (i, j, sigma^) of every pair the screen solved.

    Covers the pairs i < j with i >= start, in square tiles of |I| = |J| =
    _SCREEN_COLUMNS // r blocks (or one): each tile's C~ (_screen_tile) goes
    through _chunk_max against L - 2 delta.  A row strip is cast to float32
    once and each column tile once per tile, into the workspace's strips,
    so no float32 copy of the whole frame is made.  A diagonal tile of a
    real frame is the row strip times itself, one symmetric product; a
    complex one takes the general product, the strip being conjugated.
    """
    n, m = x.shape[0], x.shape[1] // r
    side = max(1, _SCREEN_COLUMNS // r)
    cplx = np.iscomplexobj(x)
    single = np.complex64 if cplx else np.float32
    records = []
    for t0 in range(start, m - 1, side):
        t1 = min(m, t0 + side)
        a = _workspace("strips", (n, (t1 - t0) * r), single)
        a[...] = x[:, t0 * r : t1 * r]
        a = np.conjugate(a, out=a).T if cplx else a.T
        for s0 in range(t0, m, side):
            s1 = min(m, s0 + side)
            if s0 == t0 and not cplx:
                b = a.T
            else:
                b = _workspace("scratch", (n, (s1 - s0) * r), single)
                b[...] = x[:, s0 * r : s1 * r]
            g = _screen_tile(a, b, _workspace("product", (a.shape[0], b.shape[1]), x.dtype))
            keep = np.arange(s0, s1) > np.arange(t0, t1)[:, None]
            solved = []
            lower = _chunk_max(g.reshape(t1 - t0, r, s1 - s0, r), keep, lower, delta, solved)
            records.append((t0, s0, s1 - s0, solved))
    return lower, _solved_pairs(records)


def _solved_pairs(records):
    """(i, j, sigma) arrays of the pairs that _chunk_max calls solved.

    Each record is (i0, j0, J, solved) of one call on a block of rows from
    i0 and columns from j0, J columns wide, solved its list of (p, sigma).
    """
    out = [(i0 + p // n_j, j0 + p % n_j, s) for i0, j0, n_j, solved in records for p, s in solved]
    if not out:
        return np.empty(0, int), np.empty(0, int), np.empty(0)
    return tuple(np.concatenate(parts) for parts in zip(*out))


def _screened_max(x, r, runs, best, delta):
    """mu from the seed's best, the screen and the exact pass; None where the guard fails."""
    m = x.shape[1] // r
    lower, (i, j, hat) = _screen(x, r, runs[0][0], best, delta)
    held = np.flatnonzero(hat >= lower - 2 * delta)
    held = held[np.argsort(-hat[held], kind="stable")]
    chunk = np.searchsorted([i0 for i0, _ in runs], i[held], side="right") - 1
    records = []
    for c in chunk[np.sort(np.unique(chunk, return_index=True)[1])]:
        i0, i1 = runs[c]
        solved = []
        best = _chunk_max(*_chunk(x, r, i0, i1), best, solved=solved)
        records.append((i0, i0, m - i0, solved))
    ei, ej, sigma = _solved_pairs(records)
    top = np.flatnonzero(sigma == best)  # empty where chunk 0 attains mu
    if top.size:
        at = (i == ei[top[0]]) & (j == ej[top[0]])
        if not at.any() or abs(hat[at][0] - best) > delta:
            return None
    return best


def _floor(best, e):
    """The one hold rule: a certificate u of sigma_max^e is held where u >= _floor(best, e).

    That is (best (1 - 1e-10))^e, or 0.0 where the power is below the
    normal float64 range with 52 bits to spare: a certificate sums entries
    of size about sigma^e, and rounding there could take the pair that holds
    the maximum under the floor, so nothing is held back.
    """
    floor = (best * (1.0 - _PRUNE_SLACK)) ** e
    return floor if floor >= _NORMAL_MIN else 0.0


def _chunk_max(g, keep, best, delta=0.0, solved=None):
    """best raised to the largest sigma_max of the pairs keep selects in an (I, r, J, r) chunk.

    keep is an (I, J) mask, and pair (a, b) is flat a*J + b.  Its certificate
    u of sigma_max^e is ||C||_F^2 (e = 2) at r <= 3 and ||H||_F^2 (e = 4) at
    r >= 4, which _square_and_prune refines; no C is gathered for it.  The
    pairs whose u reach _floor(best - 2 delta, e) are kept, the one of
    largest certificate is solved, and the rest are held against the raised
    best before they are solved.  A solved sigma raises best to sigma -
    delta: delta = 0 for an exact chunk, and the screen's margin for a
    float32 tile, where best is the lower bound L.  solved, when given,
    collects (p, sigma) of every solved pair.

    No index array spans the chunk.  At r <= 3 the kept pairs are found a
    run of the mask at a time (_batches), once for the first pair of largest
    u and once for the rest.  At r >= 4 the squaring ladder ranks the kept
    pairs together, at most 2^16 / r^2 of them.  Either way the rest are
    solved a slice at a time (_slice_pairs).
    """
    r, n_j = g.shape[1], g.shape[2]
    h = _gram_stack(g) if r >= 4 else None
    u, e = (_frobenius_squares(g).ravel(), 2) if h is None else (_power_sums(h), 4)
    keep = keep.ravel()

    def held(best):
        return keep & (u >= _floor(best, e))

    def solve(p):
        s = _singular_values(g, *np.divmod(p, n_j), h)[:, -1]
        if solved is not None:
            solved.append((p, s))
        return float(s.max())

    hold = max(best - 2 * delta, 0.0)
    if h is None:
        top, v_top = -1, -1.0
        for p in _batches(held(hold), _SLICE_ENTRIES):
            v = u[p]
            k = int(v.argmax())
            if v[k] > v_top:
                top, v_top = int(p[k]), v[k]
        if top < 0:
            return best
    else:
        v, p = _square_and_prune(h, u, np.flatnonzero(held(hold)), hold)
        if not p.size:
            return best
        k = int(v.argmax())
        top, p = int(p[k]), np.delete(p, k)
    del v  # no certificate is held while the survivors' C and (a, b) are
    best = max(best, solve(np.array([top])) - delta)
    hold = max(best - 2 * delta, 0.0)
    step = _slice_pairs(r)
    if h is None:
        rest = held(hold)
        rest[top] = False
        rest = _batches(rest, step)
    else:
        rest = _slices(_square_and_prune(h, u, p[u[p] >= _floor(hold, e)], hold)[1], step)
    for p in rest:
        best = max(best, solve(p) - delta)
    return best


def _frobenius_squares(g):
    """||C||_F^2 of every cross-Gram of an (I, r, J, r) chunk, as an (I, J) array.

    The squares, the column sums and the result are views of the workspace;
    the result overwrites the squares once the column sums are formed.
    """
    n_i, r, n_j, _ = g.shape
    x = g.reshape(n_i * r, n_j * r)
    sq = _workspace("certificates", x.shape, np.float64)
    if np.iscomplexobj(x):
        im = np.square(x.imag, out=_workspace("scratch", x.shape, np.float64))
        np.add(np.square(x.real, out=sq), im, out=sq)
    else:
        np.square(x, out=sq)
    if r == 1:
        return sq
    cols = np.add(sq[:, 0::r], sq[:, 1::r], out=_workspace("scratch", (n_i * r, n_j), np.float64))
    for k in range(2, r):
        cols += sq[:, k::r]
    rows = np.add(cols[0::r], cols[1::r], out=_workspace("certificates", (n_i, n_j), np.float64))
    for k in range(2, r):
        rows += cols[k::r]
    return rows


def _power_sums(g):
    """||G||_F^2 = sum of sigma^(4q) >= sigma_max^(4q) of each G = H^q in a (p, r, r) stack."""
    return np.einsum("pij,pij->p", g.conj(), g).real


def _square_and_prune(h, u, p, best):
    """(v, p) for the flat pairs p still held against best, v the certificate to rank them by.

    With no h (r <= 3) that is (u[p], p).  With the stack h of H = C*C,
    v = ||H^q||_F^2 certifies sigma_max^(4q), its root tighter for a larger
    q.  H^2, H^4, ... up to H^32 are formed for the rows the last v kept,
    while _floor(best, 8q) is nonzero: always on to H^4, since ||H^2||_F^2
    is loose at large r, and then while a squaring drops rows.  Where best
    cannot prune, v is u[p], u being ||H||_F^2 of every row.
    """
    if h is None:
        return u[p], p
    v, g, power = u[p], h[p], 1
    while p.size and power < _MAX_POWER and _floor(best, 8 * power):
        g, power = np.matmul(g, g), 2 * power
        v = _power_sums(g)
        keep = v >= _floor(best, 4 * power)
        if not keep.all():
            p, g, v = p[keep], g[keep], v[keep]
        elif power > 2:
            break
    return v, p


def average_coherence(frame):
    """Largest per-block norm of the summed cross-Grams, over m - 1.

    The inner sum over j != i is computed as A_i* T - A_i* A_i with
    T = sum of all blocks: one gemm A* T gives every A_i* T, and one batched
    matmul every A_i* A_i.  Both run in a fixed deterministic order, and the
    flipping module recomputes through this same path so that before/after
    comparisons are bit-stable.
    """
    m, r = frame.m, frame.r
    blocks = frame.blocks3d()
    total = _block_sum(frame)
    bh_t = (frame.data.conj().T @ total).reshape(m, r, r)
    bh_b = np.matmul(blocks.conj().swapaxes(1, 2), blocks)
    s = batch_spectral_norms(bh_t - bh_b)
    return float(s.max()) / (m - 1)


def _block_sum(frame):
    """The sum of a frame's blocks, as blocks3d().sum(axis=0) forms it.

    At r >= 2 that sum adds the blocks one after another, in order, with an
    inner loop of r entries.  Here runs of blocks are moved into a
    contiguous stack behind the running total instead, a run of at most
    _CHUNK_ENTRIES entries at a time, each row of r entries as one item
    (_items), and the stack is summed over its first axis: the same
    additions in the same order, bit for bit, over loops n r entries long.
    At r = 1 the view's sum is contiguous and pairwise, and is kept.
    """
    x, n, r = frame.data, frame.n, frame.r
    if r == 1:
        return frame.blocks3d().sum(axis=0)
    step = min(frame.m, max(1, _CHUNK_ENTRIES // (n * r)))
    stack = np.empty((step + 1, n, r), x.dtype)
    rows, total = _items(stack, r)[..., 0], None
    for i0 in range(0, frame.m, step):
        part = _items(x[:, i0 * r : (i0 + step) * r], r)
        rows[1 : 1 + part.shape[1]] = part.T
        if total is None:
            total = stack[1 : 1 + part.shape[1]].sum(axis=0)
        else:
            stack[0] = total
            total = stack[: 1 + part.shape[1]].sum(axis=0)
    return total


def average_column_coherence(p):
    """Column-level average coherence of a unit-norm-column matrix.

    A column whose squared norm is further than 1e-8 from 1 is refused, the
    tolerance BlockFrame holds each block's A_i* A_i to.
    """
    p = as_matrix(p)
    m = p.shape[1]
    if m < 2:
        raise FrameError("average column coherence needs at least two columns")
    squares = np.einsum("ij,ij->j", p.conj(), p)
    dev = np.abs(squares.real - 1.0).max()
    if not dev <= _ORTHO_TOL:
        raise FrameError(f"columns do not have unit norm (max |p_j* p_j - 1| = {dev:.3g})")
    total = p.sum(axis=1)
    cross = p.conj().T @ total - squares
    return float(np.abs(cross).max()) / (m - 1)


def _pair_gram(frame, i, j):
    if i == j:
        raise FrameError("distances are defined for distinct blocks")
    return frame.block(i).conj().T @ frame.block(j)


def chordal_distance(frame, i, j):
    """sqrt(r - ||A_i* A_j||_F^2), the chordal metric between the spans."""
    g = _pair_gram(frame, i, j)
    return float(np.sqrt(max(0.0, frame.r - frobenius_norm(g) ** 2)))


def spectral_distance(frame, i, j):
    """sqrt(1 - ||A_i* A_j||_2^2), driven by the largest principal angle."""
    g = _pair_gram(frame, i, j)
    s = batch_spectral_norms(g[None])[0]
    return float(np.sqrt(max(0.0, 1.0 - s**2)))


@dataclass(frozen=True)
class ValidationRecord:
    """Structural facts about a frame, with the deviations behind them.

    Unit columns and orthonormal blocks are not measured: BlockFrame refuses
    any block with |A_i* A_i - I| above 1e-8, so every frame has them, and
    the report's two flags for them (cli.coherence_report) are always true.
    tight_residual is max |F F* - (mr/n) I| over the entries
    (tight_deviation).  cross_singular_spread is the largest minus the
    smallest singular value over all cross-Grams, and equi_isoclinic is that
    spread below 1e-6.  gram is the m x m Gram map, and worst_case_coherence
    its largest off-diagonal entry, both by-products of the pass behind the
    spread.
    """

    tight: bool
    union_of_orthobases: bool
    equi_isoclinic: bool
    tight_residual: float
    cross_singular_spread: float
    worst_case_coherence: float
    gram: np.ndarray = field(repr=False, compare=False)


def validate(frame):
    """Report structural properties; never raises on a well-shaped frame."""
    n, r, m = frame.n, frame.r, frame.m
    data = frame.data
    residual = tight_deviation(data)

    union = n % r == 0 and m % (n // r) == 0
    if union:
        bases = data.reshape(n, m * r // n, n).transpose(1, 0, 2)
        union = gram_deviation(bases) <= _ORTHO_TOL

    g, smin, smax = _exhaustive_sweep(frame)
    spread = smax - smin

    return ValidationRecord(
        tight=residual < _TIGHT_TOL * max(1.0, m * r / n),
        union_of_orthobases=union,
        equi_isoclinic=spread < _ISOCLINIC_TOL,
        tight_residual=residual,
        cross_singular_spread=spread,
        worst_case_coherence=smax,
        gram=g,
    )
