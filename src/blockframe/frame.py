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
)

_UNIT_TOL = 1e-8
_ORTHO_TOL = 1e-8
_TIGHT_TOL = 1e-8
_ISOCLINIC_TOL = 1e-6
_CHUNK_ENTRIES = 1 << 16  # entries of one chunk's Gram A_I* A[:, i0*r:]
_PRUNE_SLACK = 1e-10  # covers rounding in the certificate and in eigvalsh


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


def _pair_chunks(frame):
    """Every block pair i < j once, a run of block rows at a time.

    One gemm A_I* A[:, i0*r:] covers the rows I = i0..i1-1; its blocks with
    j > i are gathered into the (p, r, r) stack C of cross-Grams A_i* A_j.
    Yields (i, j, C, H) with the pairs' index vectors and H = C*C, in the
    frame's own dtype.  H is formed only at r >= 3; r = 1 and r = 2 take
    their singular values from C itself (see _cross_singular_values).

    Everything computed from C or H is sign-invariant bit for bit.  Chunk
    shapes depend on (m, r) alone, and a gemm of fixed shapes does the same
    operations on negated inputs, so negating block k negates every C that
    involves it exactly and leaves H unchanged.
    """
    r, m = frame.r, frame.m
    x = frame.data
    i0 = 0
    while i0 < m - 1:
        i1 = min(m - 1, i0 + max(1, _CHUNK_ENTRIES // (r * r * (m - i0))))
        g = x[:, i0 * r : i1 * r].conj().T @ x[:, i0 * r :]
        g = g.reshape(i1 - i0, r, m - i0, r).swapaxes(1, 2)
        a, b = np.triu_indices(i1 - i0, 1, m - i0)
        c = g[a, b]
        yield a + i0, b + i0, c, np.matmul(c.conj().swapaxes(1, 2), c) if r >= 3 else None
        i0 = i1


def _cross_singular_values(c, h):
    """Ascending singular values of each cross-Gram in a chunk.

    |c| at r = 1, the closed form at r = 2, eigvalsh(H) at r >= 3.
    """
    if h is not None:
        return gram_singular_values(h)
    return np.abs(c[:, :, 0]) if c.shape[-1] == 1 else singular_values_2x2(c)


def _exhaustive_sweep(frame):
    """The Gram map and the extreme cross singular values, in one pass."""
    check_entries(frame.m * frame.m, f"gram map of {frame.m} blocks")
    g = np.eye(frame.m)
    smin, smax = np.inf, 0.0
    for i, j, c, h in _pair_chunks(frame):
        sv = _cross_singular_values(c, h)
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

    At r = 1 and r = 2 every pair's sigma_max is taken in closed form.  At
    r >= 3 only pairs that can hold the maximum are eigen-solved.  The
    certificate u = ||C*C||_F^(1/2) = (sum of sigma^4)^(1/4) bounds sigma_max
    from above; each chunk solves its pair of largest u, then the pairs with
    u >= best * (1 - 1e-10).  eigvalsh treats each matrix on its own, so the
    result equals the exhaustive maximum bit for bit.
    """
    if frame.m < 2:
        raise FrameError("worst-case coherence needs at least two blocks")
    best = 0.0
    for _, _, c, h in _pair_chunks(frame):
        if h is None:
            best = max(best, float(_cross_singular_values(c, h)[:, -1].max()))
            continue
        u = np.sqrt(np.sqrt(np.einsum("pij,pij->p", h.conj(), h).real))
        top = int(u.argmax())
        best = max(best, float(gram_singular_values(h[top : top + 1])[0, -1]))
        keep = u >= best * (1.0 - _PRUNE_SLACK)
        best = float(gram_singular_values(h[keep])[:, -1].max(initial=best))
    return best


def average_coherence(frame):
    """Largest per-block norm of the summed cross-Grams, over m - 1.

    The inner sum over j != i is computed as A_i* T - A_i* A_i with
    T = sum of all blocks, which numpy evaluates in a fixed deterministic
    order; the flipping module recomputes through this same path so that
    before/after comparisons are bit-stable.
    """
    if frame.m < 2:
        raise FrameError("average coherence needs at least two blocks")
    blocks = frame.blocks3d()
    total = blocks.sum(axis=0)
    bh_t = np.einsum("ink,nl->ikl", blocks.conj(), total)
    bh_b = np.einsum("ink,inl->ikl", blocks.conj(), blocks)
    s = batch_spectral_norms(bh_t - bh_b)
    return float(s.max()) / (frame.m - 1)


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

    gram is the m x m Gram map, a by-product of the pass behind the spread.
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
        gram=g,
    )
