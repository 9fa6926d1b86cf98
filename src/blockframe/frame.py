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
import sys
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
_CHUNK_ENTRIES = 1 << 16  # entries of a tile's product or complex row strip; see _side
_PRUNE_SLACK = 1e-10  # covers rounding in the certificates, the closed forms and eigvalsh
_MAX_POWER = 32  # the last q whose ||H^q||_F^2 prunes at r >= 4
_NORMAL_MIN = np.finfo(np.float64).tiny / np.finfo(np.float64).eps  # see _floor
_TILE_COLUMNS = 256  # a tile is 256 // r blocks a side, at most 2^16 entries; see _side
_SCREEN_MIN_TILE_ROWS = 5  # the screen's three thresholds; see _screens
_SCREEN_MIN_ROWS = 128
_SCREEN_MIN_DEPTH = 8
_SLICE_PAIRS = 1 << 11  # pairs solved at once at r <= 3; see _slice_pairs
_SLICE_ENTRIES = 1 << 13  # entries of the H a slice gathers at r >= 4
_TIE_TOL = 1e-11  # seed pairs this close to its best, relatively, tie; see worst_case_coherence

_workspaces = threading.local()


def check_nrm(n, r, m):
    """The one shape rule, n, r, m returned as ints: 0 < r < n <= m*r, m*r a float64 value."""
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
    if not m * r <= sys.float_info.max:
        raise FrameError(f"need m*r within float64's range, got m*r={m * r}")
    return n, r, m


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
        n, r, m = check_nrm(n, r, m)
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
        """The i-th n x r block (a view, not a copy); i is an integer, numpy's too."""
        try:
            i = operator.index(i)
        except TypeError:
            raise FrameError(f"block index must be an integer, got {i!r}") from None
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

    The pair walk writes every array that scales with a tile into four
    buffers through out=, so that a sweep faults in no memory that the last
    one in the same thread already had.  By the stages of one tile:

      strips        the row strip A_T* where it is a copy (_tiles)
      product       the tile's float64 product g (_tiles)
      certificates  first the screen's float32 product, cast into g; then,
                    as long as g lives, the squares that the certificates u
                    overwrite (_frobenius_squares), or H at r >= 4
                    (_gram_stack)
      scratch       what dies while those are formed: the screen's float32
                    column tile, the column sums and imaginary squares, or
                    complex data's conjugated tile behind H

    Each holds what one tile needs: at most 2^16 entries (or one block's),
    and n 256 entries for a real strip of the screen.  Each thread has its
    own (threading.local); a buffer grows when a call asks for more than it
    holds and is never freed.  A view holds only until the next call for the
    same name in the same thread, so nothing the sweep returns or keeps past
    the next tile is one.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buffers = _workspaces.__dict__
    if name not in buffers or buffers[name].size < nbytes:
        buffers[name] = np.empty(nbytes, np.uint8)
    return buffers[name][:nbytes].view(dtype).reshape(shape)


def _side(n, r, cplx):
    """Blocks a side of the walk's square tiles: 256 // r, capped for complex data, at least 1.

    A tile's product then holds at most 2^16 entries.  Complex data's row
    strip is a conjugated copy of n (side r) entries, so its side is capped
    at 2^16 // (n r) as well; a real strip is a view.  The side depends on
    (n, r) and the field alone.
    """
    side = _TILE_COLUMNS // r
    if cplx:
        side = min(side, _CHUNK_ENTRIES // (n * r))
    return max(1, side)


def _origins(m, side):
    """The (t0, s0) of every tile of m blocks that holds a pair, tile row by tile row.

    Those are s0 >= t0, and s0 > t0 where a side of one block leaves a
    diagonal tile no pair.
    """
    return [(t0, s0) for t0 in range(0, m - 1, side) for s0 in range(t0 + (side == 1), m, side)]


def _tiles(x, r, origins=None, single=False):
    """The pair walk: (t0, s0, g, keep) of the tiles at origins, every tile by default.

    x is n x (m*r) data, read as m blocks of r columns, and origins are
    (t0, s0) of _origins, the first blocks of the tile's rows T and columns
    S.  g = A_T* A_S, as a float64 (complex128) (|T|, r, |S|, r) view:
    g[a, :, b, :] is the cross-Gram A_i* A_j of i = t0 + a and j = s0 + b.
    With single, the product is formed in float32 (complex64) and cast,
    exactly, into g.  keep is None on a tile off the diagonal, all of whose
    pairs have j > i, and the (|T|, |S|) mask b > a on a diagonal one.  This
    is the package's only all-pairs loop.

    The row strip A_T* is a view of real float64 data, and otherwise a cast
    or conjugated copy, formed once for consecutive tiles of one row; a
    column tile is a view, cast for single.  A diagonal tile leaves out its
    last block row, which holds no pair, so it is a general product: in
    float64, syrk (numpy's product of a real square A_T* A_T) took twice the
    gemm's time on kerdock(4) x H_1.  The screen keeps a real diagonal tile
    square, the strip times itself, where syrk is the faster (190 against
    252 us at n = 200, r = 10).  g and the copies live in the thread's
    workspace (_workspace), which the next tile of any walk in the thread
    overwrites, so a caller keeps nothing that views them.

    Everything computed from a cross-Gram C, or from H = C*C, is
    sign-invariant bit for bit.  The tiles depend on (n, m, r) and the field
    alone, and a product of fixed shapes does the same operations on negated
    inputs, in float32 as in float64, negation being exact in both.  So
    negating block k negates exactly every C that involves it, and leaves H,
    the squared entries behind ||C||_F, the pruning choices, the screen's
    sigma^ and L, the tiles it holds and every fallback unchanged.
    """
    n, m = x.shape[0], x.shape[1] // r
    cplx = np.iscomplexobj(x)
    side = _side(n, r, cplx)
    dtype = (np.complex64 if cplx else np.float32) if single else x.dtype
    strip = None
    for t0, s0 in _origins(m, side) if origins is None else origins:
        t1, s1 = min(m, t0 + side), min(m, s0 + side)
        if strip != t0:
            rows, strip = x[:, t0 * r : t1 * r], t0
            if single or cplx:
                rows = np.conjugate(rows, out=_workspace("strips", rows.shape, dtype))
        a, b = rows, x[:, s0 * r : s1 * r]
        if s0 == t0 and single and not cplx:
            b = a
        elif s0 == t0:
            a = a[:, :-r]
        if single and b is not a:
            cast = _workspace("scratch", b.shape, dtype)
            cast[...] = b
            b = cast
        g = _workspace("product", (a.shape[1], b.shape[1]), x.dtype)
        if single:
            g[...] = np.matmul(a.T, b, out=_workspace("certificates", g.shape, dtype))
        else:
            np.matmul(a.T, b, out=g)
        n_i = a.shape[1] // r
        keep = np.arange(s0, s1) > np.arange(t0, t0 + n_i)[:, None] if s0 == t0 else None
        yield t0, s0, g.reshape(n_i, r, s1 - s0, r), keep


def _gather(g, *pairs):
    """The (p, r, r) stack of the cross-Grams of an (I, r, J, r) tile's pairs, C-contiguous.

    pairs is (a, b), index arrays of the cross-Grams g[a, :, b, :], or one
    (I, J) mask.  Each row of r entries is copied as one opaque item, which
    is faster than numpy's entry-by-entry copy of a strided r x r subspace;
    the bytes are the same.
    """
    r = g.shape[1]
    return _items(g, r)[..., 0].transpose(0, 2, 1)[pairs].view(g.dtype).reshape(-1, r, r)


def _items(x, r):
    """x with each run of r entries along its last axis viewed as one opaque item.

    Copying such items moves each run as one block of bytes, which is faster
    than numpy's entry-by-entry copy of a strided view whose inner loop is r
    entries long; the bytes are the same.
    """
    return x.view(np.dtype((np.void, r * x.itemsize)))


def _gram_stack(g):
    """H = C*C of every cross-Gram of an (I, r, J, r) tile, as an (I*J, r, r) stack.

    Formed on the tile's own (I, J, r, r) view, with no C copied out, and
    bitwise the H of a gathered C; row a*J + b is the pair (a, b).  H, and
    complex data's conjugated tile, are views of the workspace in the
    layouts numpy would allocate; real data's conj() is the tile itself, so
    numpy forms each H by syrk.
    """
    n_i, r, n_j, _ = g.shape
    v = gh = g.transpose(0, 2, 1, 3)
    if np.iscomplexobj(g):
        gh = np.conjugate(g, out=_workspace("scratch", g.shape, g.dtype)).transpose(0, 2, 1, 3)
    h = _workspace("certificates", (n_i, n_j, r, r), g.dtype)
    return np.matmul(gh.swapaxes(-1, -2), v, out=h).reshape(-1, r, r)


def _singular_values(stack):
    """Singular values, smallest first, of each matrix behind a (..., r, r) stack.

    The sweep's one solver.  At r <= 3 the stack holds cross-Grams C, any
    view of a tile: |c| and the closed forms, which are elementwise, so a
    strided view gives a gathered stack's bits.  At r >= 4 it holds their
    H = C*C (_gram_stack), solved by eigvalsh.
    """
    r = stack.shape[-1]
    if r >= 4:
        return gram_singular_values(stack)
    if r == 1:
        return np.abs(stack[..., 0])
    return singular_values_2x2(stack) if r == 2 else singular_values_3x3(stack)


def _slice_pairs(r):
    """Pairs solved at once: 2^11 at r <= 3, and as many as hold 2^13 entries of H at r >= 4.

    Neither sweep forms a C, H or solver array that grows with the tile:
    the exhaustive sweep solves slabs of whole tile rows that start within
    one run of this many pairs, and _chunk_max gathers and solves its
    survivors this many at a time.  The closed forms cost a fixed 30 to
    130 us a call, so r <= 3 keeps 2^11 pairs a slice; eigvalsh costs the
    same per matrix in any number.  Each pair is solved on its own, so
    slices change no bit.
    """
    return _SLICE_PAIRS if r <= 3 else max(1, _SLICE_ENTRIES // (r * r))


def _exhaustive_sweep(frame):
    """The Gram map and the extreme cross singular values, in one pass.

    Each tile is solved on its strided (I, J, r, r) view of C, or of
    _gram_stack's H at r >= 4, in slabs of whole tile rows, and the map and
    its mirror are written by slicing; a diagonal tile gathers and writes
    its pairs j > i by keep.  A slab holds the rows whose first pair falls
    in one run of _slice_pairs(r) of the tile's pairs, counted from the row
    sums of keep, so a diagonal tile's triangle takes as few slabs as a
    full tile of as many pairs.
    """
    check_entries(frame.m * frame.m, f"gram map of {frame.m} blocks")
    r = frame.r
    gram = np.eye(frame.m)
    smin, smax = np.inf, 0.0
    for t0, s0, g, keep in _tiles(frame.data, r):
        n_i, n_j = g.shape[0], g.shape[2]
        c = g.transpose(0, 2, 1, 3) if r <= 3 else _gram_stack(g).reshape(n_i, n_j, r, r)
        up, down = gram[t0 : t0 + n_i, s0 : s0 + n_j], gram[s0 : s0 + n_j, t0 : t0 + n_i].T
        counts = np.full(n_i, n_j) if keep is None else np.count_nonzero(keep, axis=1)
        starts = np.cumsum(counts) - counts
        cuts = np.flatnonzero(np.diff(starts // _slice_pairs(r), prepend=-1)).tolist()
        for a0, a1 in zip(cuts, cuts[1:] + [n_i]):
            rows = slice(a0, a1)
            pairs = ... if keep is None else keep[rows]
            gathered = keep is not None and r <= 3  # faster than a mask of the strided view
            sv = _singular_values(_gather(g[rows], pairs) if gathered else c[rows][pairs])
            up[rows][pairs] = down[rows][pairs] = sv[..., -1]
            smin = min(smin, float(sv[..., 0].min()))
            smax = max(smax, float(sv[..., -1].max()))
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

    Each tile of the pair walk (_tiles) goes through one skeleton for every
    r (_chunk_max), which solves only the pairs that can hold the maximum.
    best is the largest sigma_max solved so far.  Each pair has
    certificates, power sums at least sigma_max^e (_chunk_max reads them),
    and a pair is dropped when one is below _floor(best, e), the one hold
    rule.  No pair is solved twice.  The closed forms are elementwise and
    eigvalsh treats each matrix on its own, and gram_map reads the same
    float64 tile products, so the result equals the exhaustive maximum bit
    for bit: mu == max(gram_map) holds by construction.

    Where _screens allows, most tiles are never formed in float64:

    - Seed.  The walk's first tile, (0, 0), or (0, 1) where a side is one
      block, is swept exactly.  Its maximum is attained, a lower bound on
      mu.  If it solves more than one pair within a relative 1e-11
      (_TIE_TOL) of that maximum, the frame ties many pairs (a Kerdock or
      ETF lift), every tile would survive the screen, and the other tiles
      are swept exactly.  Pairs tied in exact arithmetic differ only by
      rounding: on the lifts (none, hadamard:1 to 3, dft:2 and 3) of every
      FAMILIES construction of up to 3M entries, the largest spread of the
      seed's solved pairs below its best was 6.3e-13 of it (harmonic
      p = 503, r = 1, 4,032 ulp; the harmonic ETF's spread grows with p),
      while Kerdock and id-hadamard lifts lie within 3 ulp.  Random pairs
      rarely come that close, where 2 delta (1e-6 and up) takes in many.
    - Screen.  Every other tile is formed in float32 (_tiles_max with
      delta), sigma^ being the float64 solver's sigma_max of its C~, goes
      through _chunk_max against L - 2 delta, where L = max(seed, largest
      sigma^ - delta) <= mu, and keeps one record, keyed by its (t0, s0):
      the pairs solved there and their sigma^.
    - Exact pass.  Each tile whose largest sigma^ is >= L - 2 delta is
      formed again in float64, by decreasing sigma^ (ties in walk order),
      from the seed's best: the same tiles, and bits, as gram_map's.
    - Guard.  If the pair that attains mu lies outside the seed tile, its
      sigma^ in its tile's record must be within delta of mu; if not, the
      BLAS broke the bound, and every tile after the seed is swept exactly.

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
    its tile is swept.

    The screen is sign-invariant, as _tiles states.
    """
    x, n, r = frame.data, frame.n, frame.r
    cplx = np.iscomplexobj(x)
    side = _side(n, r, cplx)
    origins = _origins(frame.m, side)
    best = 0.0
    if _screens(n, r, origins[-1][0] // side + 1):
        delta, seed = _screen_margin(n, r, cplx), {}
        best = _tiles_max(x, r, origins[:1], 0.0, records=seed)
        origins = origins[1:]
        [(_, sigma)] = seed.values()
        if np.count_nonzero(sigma >= best * (1 - _TIE_TOL)) == 1:
            mu = _screened_max(x, r, origins, best, delta)
            if mu is not None:
                return mu
    return _tiles_max(x, r, origins, best)


def _screens(n, r, tile_rows):
    """Whether worst_case_coherence screens n rows of block width r in this many tile rows.

    The screen adds float32 products and a second pass of certificates, and
    the seed and the exact pass still form some tiles in float64.  It wins
    only where the float64 gemm is most of mu: at least 5 tile rows,
    n >= 128 and n >= 8 r.  mu of a random frame (seed 1, trial 0), one
    process, 1 BLAS thread, best of 9 in each of two runs, exact sweep ->
    screened, in ms:

        real (200, 10, 200)   33.5 -> 27.8   screened (8 tile rows)
        real (200, 10, 400)  118.9 -> 92.5   screened
        real (128, 2, 2048)   68.1 -> 48.6   screened
        real (128, 3, 512)    14.0 -> 12.3   screened (7 tile rows)
        cplx (200, 10, 200)   98.1 -> 89.3   screened
        cplx (128, 4, 512)   108.0 -> 103.8  screened
        real (128, 1, 1024)    5.4 -> 5.0    4 tile rows
        real (128, 2, 512)     5.2 -> 5.1    4 tile rows
        cplx (128, 2, 512)    15.5 -> 15.8   4 tile rows
        real (64, 2, 512)      3.6 -> 4.2    n < 128
        real (100, 5, 300)    16.9 -> 16.9   n < 128
        cplx (100, 5, 300)    49.7 -> 50.3   n < 128
        real (60, 10, 30)      0.9 -> 1.1    2 tile rows, n < 8 r

    At 4 tile rows the gain is within the runs' spread, or a loss, so 5
    keeps those exact.  (128, r, 256) at r = 1, 2, 3 has 1, 2 and 3 tile
    rows, and (200, 30, 44) and (200, 40, 25) have n < 8 r; those the screen
    was not measured to lose at are left exact too, for a margin.
    """
    return tile_rows >= _SCREEN_MIN_TILE_ROWS and n >= max(_SCREEN_MIN_ROWS, _SCREEN_MIN_DEPTH * r)


def _screen_margin(n, r, cplx):
    """delta, the bound on |sigma_max(C~) - sigma_max(C)| that worst_case_coherence derives."""
    u = 2.0**-24
    k = 2 * n if cplx else n
    gamma = k * u / (1 - k * u)
    entry = (gamma * (1 + u) ** 2 + 2 * u + u * u) * (1 + _ORTHO_TOL) + 8 * k * 2.0**-126
    return r * entry * (2**0.5 if cplx else 1.0)


def _tiles_max(x, r, origins, best, delta=0.0, records=None):
    """best raised through the tiles at origins, each by _chunk_max; float32 ones if delta > 0.

    records, when given, maps the (t0, s0) of each tile where _chunk_max
    solved a pair to (p, sigma): the flat pairs solved there, in the order
    solved, and their sigma_max.
    """
    for t0, s0, g, keep in _tiles(x, r, origins, delta > 0):
        solved = None if records is None else []
        best = _chunk_max(g, keep, best, delta, solved)
        if solved:
            records[t0, s0] = tuple(map(np.concatenate, zip(*solved)))
    return best


def _screened_max(x, r, origins, best, delta):
    """mu from the seed's best, the screen of origins and the exact pass; None on a failed guard.

    The held tiles are formed again by key, largest sigma^ first (sorted,
    reversed too, keeps ties in walk order); the guard reads the attaining
    pair's own sigma^ in its tile's record.
    """
    screened, exact = {}, {}
    lower = _tiles_max(x, r, origins, best, delta, records=screened)
    tops = {key: hat.max() for key, (_, hat) in screened.items()}
    held = [key for key in tops if tops[key] >= lower - 2 * delta]
    best = _tiles_max(x, r, sorted(held, key=tops.get, reverse=True), best, records=exact)
    for key, (p, sigma) in exact.items():
        at = p[sigma == best]
        if at.size:  # none where the seed attains mu
            p_hat, hat = screened[key]
            hat = hat[p_hat == at[0]]
            return best if hat.size and abs(hat[0] - best) <= delta else None
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
    """best raised to the largest sigma_max of the pairs of an (I, r, J, r) tile.

    keep, an (I, J) mask, selects the pairs where it is given, and pair
    (a, b) is flat a*J + b.  Its certificate u of sigma_max^e is ||C||_F^2
    (e = 2) at r <= 3 and ||H||_F^2 (e = 4) at r >= 4, and -1 where keep is
    False; no C is gathered for it.  The pair of largest u is taken first,
    if it is held against _floor(best - 2 delta, e), and then every other
    pair held against the raised best; at r >= 4 each goes through
    _square_and_prune before it is solved, the first pair on its own.  A
    solved sigma raises best to sigma - delta: delta = 0 for an exact tile,
    and the screen's margin for a float32 one, where best is the lower
    bound L.  solved, when given, collects (p, sigma) of every solved pair.

    The first pair comes from argmax, before any index array exists: on a
    tile that opens at best = 0 every pair is held.  The survivors are
    gathered and solved a slice at a time (_slice_pairs).
    """
    r, n_j = g.shape[1], g.shape[2]
    h = _gram_stack(g) if r >= 4 else None
    u, e = (_frobenius_squares(g).ravel(), 2) if h is None else (_power_sums(h), 4)
    if keep is not None:
        np.copyto(u, -1.0, where=~keep.ravel())

    def solve(p):
        s = _singular_values(_gather(g, *np.divmod(p, n_j)) if h is None else h[p])[:, -1]
        if solved is not None:
            solved.append((p, s))
        return float(s.max())

    top, hold = int(u.argmax()), max(best - 2 * delta, 0.0)
    if u[top] < _floor(hold, e):
        return best
    u[top] = -1.0
    p = np.array([top]) if h is None else _square_and_prune(h, u, np.array([top]), hold)
    if p.size:
        best = max(best, solve(p) - delta)
    hold = max(best - 2 * delta, 0.0)
    p = np.flatnonzero(u >= _floor(hold, e))
    if h is not None:
        p = _square_and_prune(h, u, p, hold)
    step = _slice_pairs(r)
    for s0 in range(0, p.size, step):
        best = max(best, solve(p[s0 : s0 + step]) - delta)
    return best


def _frobenius_squares(g):
    """||C||_F^2 of every cross-Gram of an (I, r, J, r) tile, as an (I, J) array.

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
    """The flat pairs p, held by u against best, that the squaring ladder still holds.

    h is the stack of H = C*C, and u = ||H||_F^2 of every row, the
    certificate _chunk_max held p by; the ladder reads h alone.  ||H^q||_F^2
    certifies sigma_max^(4q), its root tighter for a larger q.  H^2, H^4,
    ... up to H^32 are formed for the rows the last certificate kept, while
    _floor(best, 8q) is nonzero: always on to H^4, since ||H^2||_F^2 is
    loose at large r, and then while a squaring drops rows.
    """
    g, power = h[p], 1
    while p.size and power < _MAX_POWER and _floor(best, 8 * power):
        g, power = np.matmul(g, g), 2 * power
        keep = _power_sums(g) >= _floor(best, 4 * power)
        if not keep.all():
            p, g = p[keep], g[keep]
        elif power > 2:
            break
    return p


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
