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

import operator
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


def _pair_chunks(x, r):
    """Every block pair i < j once, a run of block rows at a time.

    x is n x (m*r) data, read as m blocks of r columns.  One gemm
    A_I* A[:, i0*r:] covers the rows I = i0..i1-1.  Its product holds at
    most 2^16 entries, and so does the conjugated row block A_I*, n*r*|I|
    entries, of complex data (a real block's conj() is a view); a single
    block row is the least a chunk takes.  Yields (i0, g, keep), g being
    the gemm output as an (I, r, m - i0, r) view in x's own dtype:
    g[a, :, b, :] is the cross-Gram A_i* A_j of i = i0 + a and j = i0 + b.
    keep is the (I, m - i0) mask of the chunk's pairs, b > a; the others are
    the diagonal blocks A_i* A_i and pairs that an earlier chunk covers.

    Everything computed from a cross-Gram C, or from H = C*C, is
    sign-invariant bit for bit.  Chunk shapes depend on (n, m, r) and the
    field alone, and a gemm of fixed shapes does the same operations on
    negated inputs, so negating block k negates every C that involves it
    exactly and leaves H, the squared entries behind ||C||_F and the pruning
    choices unchanged.
    """
    n, m = x.shape[0], x.shape[1] // r
    row_cap = _CHUNK_ENTRIES // (n * r) if np.iscomplexobj(x) else m
    i0 = 0
    while i0 < m - 1:
        i1 = min(m - 1, i0 + max(1, min(row_cap, _CHUNK_ENTRIES // (r * r * (m - i0)))))
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


def _exhaustive_sweep(frame):
    """The Gram map and the extreme cross singular values, in one pass."""
    check_entries(frame.m * frame.m, f"gram map of {frame.m} blocks")
    gram = np.eye(frame.m)
    smin, smax = np.inf, 0.0
    for i0, g, keep in _pair_chunks(frame.data, frame.r):
        a, b = np.nonzero(keep)
        sv = _singular_values(g, a, b)
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
    best is the largest sigma_max solved so far.  Each pair has certificates,
    power sums at least sigma_max^e (_chunk_max reads them), and a pair is
    dropped when one is below _floor(best, e), the one hold rule.  No pair
    is solved twice.  The closed forms are elementwise and eigvalsh treats
    each matrix on its own, so the result equals the exhaustive maximum bit
    for bit.
    """
    best = 0.0
    for _, g, keep in _pair_chunks(frame.data, frame.r):
        best = _chunk_max(g, keep, best)
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


def _chunk_max(g, keep, best):
    """best raised to the largest sigma_max of the pairs keep selects in an (I, r, J, r) chunk.

    keep is an (I, J) mask, and pair (a, b) is flat a*J + b.  Its certificate
    u of sigma_max^e is ||C||_F^2 (e = 2) at r <= 3 and ||H||_F^2 (e = 4) at
    r >= 4, which _square_and_prune refines; no C is gathered for it.  The
    pairs whose u reach _floor(best, e) are kept, the one of largest
    certificate is solved, and the rest are held against the raised best
    before they are solved.
    """
    r, n_j = g.shape[1], g.shape[2]
    h = _gram_stack(g) if r >= 4 else None
    u, e = (_frobenius_squares(g).ravel(), 2) if h is None else (_power_sums(h), 4)

    def solve(p):
        return _singular_values(g, *np.divmod(p, n_j), h)[:, -1]

    v, p = _square_and_prune(h, u, np.flatnonzero(keep.ravel() & (u >= _floor(best, e))), best)
    if not p.size:
        return best
    k = int(v.argmax())
    del v  # no certificate is held while the survivors' C and (a, b) are
    best = float(solve(p[k : k + 1]).max(initial=best))
    p = np.delete(p, k)
    p = _square_and_prune(h, u, p[u[p] >= _floor(best, e)], best)[1]
    return float(solve(p).max(initial=best)) if p.size else best


def _frobenius_squares(g):
    """||C||_F^2 of every cross-Gram of an (I, r, J, r) chunk, as an (I, J) array."""
    n_i, r, n_j, _ = g.shape
    x = g.reshape(n_i * r, n_j * r)
    sq = np.square(x) if x.dtype == np.float64 else np.square(x.real) + np.square(x.imag)
    if r == 1:
        return sq
    cols = sq[:, 0::r] + sq[:, 1::r]
    for k in range(2, r):
        cols += sq[:, k::r]
    rows = cols[0::r] + cols[1::r]
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
