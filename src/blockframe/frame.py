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
)

_UNIT_TOL = 1e-8
_ORTHO_TOL = 1e-8
_TIGHT_TOL = 1e-8
_ISOCLINIC_TOL = 1e-6
_CHUNK_ENTRIES = 1 << 16  # entries of one chunk's Gram A_I* A[:, i0*r:]
_PRUNE_SLACK = 1e-10  # covers rounding in the certificates, the closed forms and eigvalsh
_MAX_POWER = 32  # the last H^p whose ||H^p||_F prunes at r >= 4
_NORMAL_MIN = np.finfo(np.float64).tiny / np.finfo(np.float64).eps  # see _prunes


def check_nrm(n, r, m):
    """The one shape rule of a block frame: positive n, r, m with r < n <= m*r."""
    if n <= 0 or r <= 0 or m <= 0:
        raise FrameError("n, r, m must be positive")
    if not r < n:
        raise FrameError(f"need r < n, got r={r}, n={n}")
    if not n <= m * r:
        raise FrameError(f"need n <= m*r, got n={n}, m*r={m * r}")


@dataclass(frozen=True, init=False)
class BlockFrame:
    """m blocks of r orthonormal columns each, stacked side by side.

    Blocks not orthonormal to 1e-8 (entrywise in A_i* A_i - I) are refused,
    so no frame can report a coherence above 1.  The dtype of data is the
    field: float64 for a real frame, complex128 for a complex one, and
    field_tag is read off it.  The optional field_tag argument asks for a
    cast: "real" accepts complex input only when every imaginary part is
    zero, and "complex" widens real input.
    """

    n: int
    r: int
    m: int
    data: np.ndarray

    def __init__(self, n, r, m, data, field_tag=None):
        data = as_matrix(data)
        if field_tag == "real" and np.iscomplexobj(data):
            if np.any(data.imag != 0.0):
                raise FrameError("field_tag is real but imaginary parts are nonzero")
            data = np.ascontiguousarray(data.real)
        elif field_tag == "complex":
            data = data.astype(np.complex128, copy=False)
        elif field_tag not in (None, "real"):
            raise FrameError(f"field_tag must be real or complex, got {field_tag!r}")
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

    @classmethod
    def from_blocks(cls, blocks, field_tag=None):
        blocks = [as_matrix(b) for b in blocks]
        n, r = blocks[0].shape
        for b in blocks:
            if b.shape != (n, r):
                raise FrameError("blocks must share a common shape")
        data = np.concatenate(blocks, axis=1)
        return cls(n=n, r=r, m=len(blocks), data=data, field_tag=field_tag)


def _pair_chunks(x, r):
    """Every block pair i < j once, a run of block rows at a time.

    x is n x (m*r) data, read as m blocks of r columns.  One gemm
    A_I* A[:, i0*r:] covers the rows I = i0..i1-1.  Yields (i0, g), g being
    the gemm output as an (I, r, m - i0, r) view in x's own dtype:
    g[a, :, b, :] is the cross-Gram A_i* A_j of i = i0 + a and j = i0 + b.
    The pairs of the chunk are its entries with b > a; the others are the
    diagonal blocks A_i* A_i and pairs that an earlier chunk covers.

    Everything computed from a cross-Gram C, or from H = C*C, is
    sign-invariant bit for bit.  Chunk shapes depend on (m, r) alone, and a
    gemm of fixed shapes does the same operations on negated inputs, so
    negating block k negates every C that involves it exactly and leaves H,
    the squared entries behind ||C||_F and the pruning choices unchanged.
    """
    m = x.shape[1] // r
    i0 = 0
    while i0 < m - 1:
        i1 = min(m - 1, i0 + max(1, _CHUNK_ENTRIES // (r * r * (m - i0))))
        g = x[:, i0 * r : i1 * r].conj().T @ x[:, i0 * r :]
        yield i0, g.reshape(i1 - i0, r, m - i0, r)
        i0 = i1


def _gather(g, a, b):
    """The (p, r, r) stack of cross-Grams g[a, :, b, :] of a chunk, C-contiguous.

    Each row of r entries is copied as one opaque item, which is faster than
    numpy's entry-by-entry copy of a strided r x r subspace; the bytes are
    the same.
    """
    r = g.shape[1]
    rows = g.view(np.dtype((np.void, r * g.itemsize)))
    return rows[a, :, b, 0].view(g.dtype).reshape(len(a), r, r)


def _cross_grams(x, r):
    """Every pair of _pair_chunks gathered: yields (i, j, C), C the (p, r, r) stack."""
    for i0, g in _pair_chunks(x, r):
        a, b = np.triu_indices(g.shape[0], 1, g.shape[2])
        yield a + i0, b + i0, _gather(g, a, b)


def _cross_singular_values(c):
    """Singular values of each cross-Gram in a chunk, smallest first, largest last.

    |c| at r = 1, the closed forms at r = 2 and r = 3, eigvalsh(H) at r >= 4.
    """
    r = c.shape[-1]
    if r >= 4:
        return gram_singular_values(np.matmul(c.conj().swapaxes(1, 2), c))
    if r == 1:
        return np.abs(c[:, :, 0])
    return singular_values_2x2(c) if r == 2 else singular_values_3x3(c)


def _exhaustive_sweep(frame):
    """The Gram map and the extreme cross singular values, in one pass."""
    check_entries(frame.m * frame.m, f"gram map of {frame.m} blocks")
    g = np.eye(frame.m)
    smin, smax = np.inf, 0.0
    for i, j, c in _cross_grams(frame.data, frame.r):
        sv = _cross_singular_values(c)
        g[i, j] = g[j, i] = sv[:, -1]
        smin = min(smin, float(sv[:, 0].min()))
        smax = max(smax, float(sv[:, -1].max()))
    return g, smin, smax


def gram_map(frame):
    """m x m matrix of cross-block spectral norms.

    Entry (i, j) is the largest singular value of A_i* A_j; the map is
    symmetric because A_j* A_i is the adjoint.  The diagonal is exactly 1
    (each block has orthonormal columns) and is set rather than computed.
    """
    return _exhaustive_sweep(frame)[0]


def worst_case_coherence(frame):
    """Largest cross-block spectral norm over all unordered block pairs.

    Each chunk of the pair sweep solves only the pairs that can hold the
    maximum.  best is the largest sigma_max solved so far, and a pair is
    dropped when a certificate, an upper bound on its sigma_max, is below
    best * (1 - 1e-10).
      r = 1: sigma = |c|, read straight off the chunk.
      r = 2, 3: ||C||_F, from strided sums of the squared chunk, before any
        pair is gathered; the pair of largest ||C||_F is solved in closed
        form first, and the rest are held against the raised best before
        they are gathered and solved.
      r >= 4: u = ||H||_F^(1/2) = (sum of sigma^4)^(1/4), H = C*C, then
        u_p = ||H^p||_F^(1/(2p)) = (sum of sigma^(4p))^(1/(4p)) for
        p = 2, 4, ... up to 32, H^p squared in turn for the pairs the last
        bound kept, while a squaring drops pairs.  The survivor of largest
        u_p is eigen-solved, and the rest are held against the raised best
        and squared on in the same way before they are solved.
    No certificate is held against best where best^(4p) (p = 1/2 for
    ||C||_F) would leave the normal float64 range; see _prunes.  No pair is
    solved twice.  The closed forms are elementwise and eigvalsh treats each
    matrix on its own, so the result equals the exhaustive maximum bit for
    bit.
    """
    if frame.m < 2:
        raise FrameError("worst-case coherence needs at least two blocks")
    r = frame.r
    best = 0.0
    for _, g in _pair_chunks(frame.data, r):
        if r == 1:
            best = max(best, float(np.triu(np.abs(g[:, 0, :, 0]), 1).max()))
        elif r <= 3:
            best = _closed_form_max(g, best)
        else:
            best = _eigen_max(_gather(g, *np.triu_indices(g.shape[0], 1, g.shape[2])), best)
    return best


def _frobenius_squares(g):
    """||C||_F^2 of every cross-Gram of an (I, r, J, r) chunk, as an (I, J) array."""
    n_i, r, n_j, _ = g.shape
    x = g.reshape(n_i * r, n_j * r)
    sq = np.square(x) if x.dtype == np.float64 else np.square(x.real) + np.square(x.imag)
    cols = sq[:, 0::r] + sq[:, 1::r]
    for k in range(2, r):
        cols += sq[:, k::r]
    rows = cols[0::r] + cols[1::r]
    for k in range(2, r):
        rows += cols[k::r]
    return rows


def _closed_form_max(g, best):
    """best raised to the largest sigma_max of an r = 2 or r = 3 chunk, by Frobenius pruning.

    The pairs are pruned against best so far, the survivor of largest ||C||_F
    is solved, and the rest are pruned again against the raised best before
    they are solved, as in _eigen_max.
    """
    n_i, _, n_j, _ = g.shape
    f = _frobenius_squares(g)
    keep = np.arange(n_j) > np.arange(n_i)[:, None]  # the chunk's pairs, j > i
    floor = best * (1.0 - _PRUNE_SLACK)
    if _prunes(floor, 0.5):
        keep &= f >= floor * floor
    if not keep.any():
        return best
    a, b = divmod(int(np.where(keep, f, -1.0).argmax()), n_j)
    best = max(best, float(_cross_singular_values(g[a, :, b, :][None])[0, -1]))
    keep[a, b] = False
    floor = best * (1.0 - _PRUNE_SLACK)
    if _prunes(floor, 0.5):
        keep &= f >= floor * floor
    a, b = np.nonzero(keep)
    if a.size:
        best = max(best, float(_cross_singular_values(_gather(g, a, b))[:, -1].max()))
    return best


def _eigen_max(c, best):
    """best raised to the largest sigma_max of a (p, r, r) stack, r >= 4, by squaring.

    The pairs are pruned against best so far, the survivor of largest
    certificate is eigen-solved, and the rest are pruned again against the
    raised best before they are solved.
    """
    floor = best * (1.0 - _PRUNE_SLACK)
    h = np.matmul(c.conj().swapaxes(1, 2), c)
    if _prunes(floor, 1):
        h = h[_sigma_max_bound(h, 1) >= floor]
    g = np.matmul(h, h)
    h, g, u, power = _square_and_prune(h, g, _sigma_max_bound(g, 2), 2, floor)
    if not len(h):
        return best
    top, last = int(u.argmax()), len(h) - 1
    best = max(best, float(gram_singular_values(h[top : top + 1])[0, -1]))
    for x in (h, g, u):  # the top pair to the end, and out of the views below
        x[[top, last]] = x[[last, top]]
    floor = best * (1.0 - _PRUNE_SLACK)
    h, _, _, _ = _square_and_prune(h[:last], g[:last], u[:last], power, floor)
    if len(h):
        best = max(best, float(gram_singular_values(h)[:, -1].max()))
    return best


def _square_and_prune(h, g, u, power, floor):
    """The pairs of (H, G = H^power, u = u_power) whose certificate reaches floor.

    G is squared on while a squaring drops pairs, always at least once past
    u_2, which is loose at large r, and up to H^32.  Returns (h, g, u, power)
    of the survivors at the last power.
    """
    while _prunes(floor, power):
        keep = u >= floor
        if not keep.all():
            h, g, u = h[keep], g[keep], u[keep]
        elif power > 2:
            break
        if not len(h) or power == _MAX_POWER or not _prunes(floor, 2 * power):
            break
        g = np.matmul(g, g)
        power *= 2
        u = _sigma_max_bound(g, power)
    return h, g, u, power


def _prunes(floor, power):
    """Whether a certificate (sum of sigma^(4 power))^(1/(4 power)) may be held against floor.

    The sum is formed from entries of size about sigma^(4 power); below the
    normal float64 range, with 52 bits to spare, rounding could take a pair
    that holds the maximum under floor, so no pair is dropped there.
    """
    return floor ** (4 * power) >= _NORMAL_MIN


def _sigma_max_bound(g, power):
    """||G||_F^(1/(2 power)) for each G = H^power in a (p, r, r) stack, H = C*C.

    That is (sum of sigma^(4 power))^(1/(4 power)) over the singular values
    sigma of C, so it is at least sigma_max, and tighter for a larger power.
    """
    return np.einsum("pij,pij->p", g.conj(), g).real ** (1 / (4 * power))


def average_coherence(frame):
    """Largest per-block norm of the summed cross-Grams, over m - 1.

    The inner sum over j != i is computed as A_i* T - A_i* A_i with
    T = sum of all blocks: one gemm A* T gives every A_i* T, and one batched
    matmul every A_i* A_i.  Both run in a fixed deterministic order, and the
    flipping module recomputes through this same path so that before/after
    comparisons are bit-stable.
    """
    if frame.m < 2:
        raise FrameError("average coherence needs at least two blocks")
    m, r = frame.m, frame.r
    blocks = frame.blocks3d()
    total = blocks.sum(axis=0)
    bh_t = (frame.data.conj().T @ total).reshape(m, r, r)
    bh_b = np.matmul(blocks.conj().swapaxes(1, 2), blocks)
    s = batch_spectral_norms(bh_t - bh_b)
    return float(s.max()) / (m - 1)


def average_column_coherence(p):
    """Column-level average coherence of a unit-norm-column matrix."""
    p = as_matrix(p)
    m = p.shape[1]
    if m < 2:
        raise FrameError("average column coherence needs at least two columns")
    total = p.sum(axis=1)
    cross = p.conj().T @ total - np.einsum("ij,ij->j", p.conj(), p)
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

    gram is the m x m Gram map, and worst_case_coherence its largest
    off-diagonal entry, both by-products of the pass behind the spread.
    """

    unit_columns: bool
    block_orthonormal: bool
    tight: bool
    union_of_orthobases: bool
    equi_isoclinic: bool
    max_column_norm_dev: float
    max_block_gram_dev: float
    tight_residual: float
    cross_singular_spread: float
    worst_case_coherence: float
    gram: np.ndarray = field(repr=False, compare=False)


def validate(frame):
    """Report structural properties; never raises on a well-shaped frame."""
    n, r, m = frame.n, frame.r, frame.m
    data = frame.data

    col_norms = np.linalg.norm(data, axis=0)
    col_dev = float(np.abs(col_norms - 1.0).max())

    block_dev = gram_deviation(frame.blocks3d())

    tight_ratio = m * r / n
    residual = frobenius_norm(data @ data.conj().T - tight_ratio * np.eye(n))

    union = n % r == 0 and (m * r) % n == 0 and m % (n // r) == 0
    if union:
        bases = data.reshape(n, m * r // n, n).transpose(1, 0, 2)
        union = gram_deviation(bases) <= _ORTHO_TOL

    g, smin, smax = _exhaustive_sweep(frame)
    spread = smax - smin if m > 1 else 0.0

    return ValidationRecord(
        unit_columns=col_dev < _UNIT_TOL,
        block_orthonormal=block_dev <= _ORTHO_TOL,
        tight=residual < _TIGHT_TOL * max(1.0, tight_ratio),
        union_of_orthobases=union,
        equi_isoclinic=spread < _ISOCLINIC_TOL,
        max_column_norm_dev=col_dev,
        max_block_gram_dev=block_dev,
        tight_residual=float(residual),
        cross_singular_spread=spread,
        worst_case_coherence=smax,
        gram=g,
    )
