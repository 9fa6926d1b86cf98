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
from functools import partial

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


def _pair_chunks(x, r):
    """Every block pair i < j once, a run of block rows at a time.

    x is n x (m*r) data, read as m blocks of r columns.  One gemm
    A_I* A[:, i0*r:] covers the rows I = i0..i1-1.  Yields (i0, g, keep), g
    being the gemm output as an (I, r, m - i0, r) view in x's own dtype:
    g[a, :, b, :] is the cross-Gram A_i* A_j of i = i0 + a and j = i0 + b.
    keep is the (I, m - i0) mask of the chunk's pairs, b > a; the others are
    the diagonal blocks A_i* A_i and pairs that an earlier chunk covers.

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
        keep = np.arange(m - i0) > np.arange(i1 - i0)[:, None]
        yield i0, g.reshape(i1 - i0, r, m - i0, r), keep
        del g  # two products live at once only if the caller keeps one
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


def _gram_stack(g):
    """H = C*C of every cross-Gram of an (I, r, J, r) chunk, as an (I*J, r, r) stack.

    Formed on the chunk's own (I, J, r, r) view, with no C copied out, and
    bitwise the H of a gathered C; row a*J + b is the pair (a, b).
    """
    r = g.shape[1]
    v = g.transpose(0, 2, 1, 3)
    return np.matmul(v.conj().swapaxes(-1, -2), v).reshape(-1, r, r)


def _cross_singular_values(c):
    """Singular values of each cross-Gram in a (p, r, r) stack, r <= 3, smallest first.

    |c| at r = 1 and the closed forms at r = 2 and r = 3.
    """
    r = c.shape[-1]
    if r == 1:
        return np.abs(c[:, :, 0])
    return singular_values_2x2(c) if r == 2 else singular_values_3x3(c)


def _exhaustive_sweep(frame):
    """The Gram map and the extreme cross singular values, in one pass."""
    check_entries(frame.m * frame.m, f"gram map of {frame.m} blocks")
    gram = np.eye(frame.m)
    smin, smax = np.inf, 0.0
    for i0, g, keep in _pair_chunks(frame.data, frame.r):
        a, b = np.nonzero(keep)
        if frame.r >= 4:  # the H that worst_case_coherence solves
            sv = gram_singular_values(_gram_stack(g)[np.flatnonzero(keep)])
        else:
            sv = _cross_singular_values(_gather(g, a, b))
        gram[a + i0, b + i0] = gram[b + i0, a + i0] = sv[:, -1]
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
    best is the largest sigma_max solved so far, and a pair is dropped when
    a certificate, an upper bound on a power of its sigma_max, is below that
    power of best * (1 - 1e-10); _certificate lists them.  No certificate is
    held against best where that power would leave the normal float64 range
    (_prunes).  No pair is solved twice.  The closed forms are elementwise
    and eigvalsh treats each matrix on its own, so the result equals the
    exhaustive maximum bit for bit.
    """
    best = 0.0
    for _, g, keep in _pair_chunks(frame.data, frame.r):
        best = _chunk_max(g, keep, best)
    return best


def _chunk_max(g, keep, best):
    """best raised to the largest sigma_max of the pairs keep selects in an (I, r, J, r) chunk.

    keep is an (I, J) mask.  The pairs whose certificates reach best are
    kept, the one of largest certificate is solved, and the rest are held
    against the raised best before they are solved.
    """
    u, e, refine, solve = _certificate(g)
    v, p = refine(np.flatnonzero(keep.ravel() & _held(u, best, e)), best)
    if not p.size:
        return best
    k = int(v.argmax())
    best = float(solve(p[k : k + 1]).max(initial=best))
    p = np.delete(p, k)
    _, p = refine(p[_held(u[p], best, e)], best)
    return float(solve(p).max(initial=best)) if p.size else best


def _certificate(g):
    """Every pair's certificate in an (I, r, J, r) chunk, and the rules that refine and solve it.

    Returns (u, e, refine, solve).  u is flat over the I*J pairs, row a*J + b
    the pair (a, b), and at least its sigma_max^e; no C is gathered for it:
      r = 1: u = |c| = sigma (e = 1), and solving reads u;
      r = 2, 3: u = ||C||_F^2 (e = 2), from strided sums of the squared
        chunk, and the closed forms solve the gathered C;
      r >= 4: u = ||H||_F^2 (e = 4), H = C*C from _gram_stack, refined by
        the squared certificates of _square_and_prune, and eigvalsh solves H.
    refine(p, best) gives the flat pairs p still held against best, with the
    certificate to rank them by; solve(p) gives their sigma_max.
    """
    r, n_j = g.shape[1], g.shape[2]
    if r >= 4:
        h = _gram_stack(g)
        u = np.einsum("pij,pij->p", h.conj(), h).real
        return u, 4, partial(_square_and_prune, h, u), lambda p: gram_singular_values(h[p])[:, -1]
    if r == 1:
        u, e = np.abs(g[:, 0, :, 0]).ravel(), 1
        solve = u.__getitem__
    else:
        u, e = _frobenius_squares(g).ravel(), 2

        def solve(p):
            return _cross_singular_values(_gather(g, *np.divmod(p, n_j)))[:, -1]

    return u, e, lambda p, best: (u[p], p), solve


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


def _held(u, best, e):
    """Where u, at least sigma_max^e, reaches (best (1 - 1e-10))^e; everywhere if not _prunes."""
    floor = best * (1.0 - _PRUNE_SLACK)
    return u >= floor**e if _prunes(floor, e / 4) else np.ones(u.shape, dtype=bool)


def _square_and_prune(h, u, p, best):
    """(v, p) for the rows p of a stack h of H = C*C whose squared certificates v reach best.

    u_q = ||H^q||_F^(1/(2q)) is at least sigma_max and tighter for a larger
    q.  H^2 is formed, then H^4, ... up to H^32, each for the rows the last
    bound kept: always on to H^4, since u_2 is loose at large r, and then
    while a squaring drops rows.  Where best cannot prune, v is u[p], u
    being ||H||_F^2 of every row.
    """
    floor = best * (1.0 - _PRUNE_SLACK)
    v, g, power = u[p], h[p], 1
    while p.size and power < _MAX_POWER and _prunes(floor, 2 * power):
        g, power = np.matmul(g, g), 2 * power
        v = _sigma_max_bound(g, power)
        keep = v >= floor
        if not keep.all():
            p, g, v = p[keep], g[keep], v[keep]
        elif power > 2:
            break
    return v, p


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
