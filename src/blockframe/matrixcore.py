"""Dense matrix kernels used by every other module.

The dtype is the field: real matrices are float64 and complex ones
complex128.  The kernels are written once for both; conj() is the identity
on real input, so real data never pays for complex arithmetic.
"""

import operator

import numpy as np

from .errors import FrameError

# refuse dense results beyond 2^27 entries: 1 GiB as float64, 2 GiB as complex128
_MAX_ENTRIES = 1 << 27

# pivot threshold below which a column set is treated as rank deficient
_RANK_TOL = 1e-12

# entries that gram_deviation and tight_deviation conjugate or form at once
_SLICE_ENTRIES = 1 << 16


def as_matrix(a, stack=False):
    """Coerce to a finite 2-d float64 or complex128 array, copying only if needed.

    Complex input stays complex and anything else becomes float64.  With
    stack=True a (..., p, q) stack of matrices is accepted as well.
    """
    m = np.asarray(a)
    m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)
    if m.ndim < 2 or (m.ndim > 2 and not stack):
        raise FrameError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise FrameError("matrix contains non-finite entries")
    return m


def check_entries(count, what):
    """The one memory guard: refuse a dense result of more than 2^27 entries."""
    if count > _MAX_ENTRIES:
        raise FrameError(f"{what} is above the 2^27-entry size guard")


def check_count(value, name, minimum=1):
    """The one count rule: an integer (numpy's too) of at least minimum, returned as an int."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < minimum:
        raise FrameError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return count


def spectral_norm(m):
    """Largest singular value of m."""
    m = as_matrix(m)
    if m.size == 0:
        raise FrameError("spectral norm of an empty matrix")
    return float(np.linalg.svd(m, compute_uv=False)[0])


def frobenius_norm(m):
    """Square root of the sum of squared entry moduli."""
    m = as_matrix(m)
    return float(np.linalg.norm(m))


def gram_singular_values(h):
    """All singular values (ascending) of each C, given the stack of H = C*C.

    Goes through the Hermitian eigenproblem of H rather than an SVD of C so
    that flipping the sign of a whole matrix cannot move the result by even
    one ulp: the Gram products (-x)(-y) are bitwise identical to xy.
    """
    return np.sqrt(np.maximum(np.linalg.eigvalsh(h), 0.0))


def singular_values_2x2(c):
    """Both singular values (ascending) of each C = [[a, b], [c, d]] in a (..., 2, 2) stack.

    Closed form from C's entries, without forming H = C*C or solving it:
    sigma_max^2 = (h11 + h22)/2 + hypot((h11 - h22)/2, |h12|) with
    h11 = |a|^2 + |c|^2, h22 = |b|^2 + |d|^2, h12 = conj(a) b + conj(c) d,
    and sigma_min = |ad - bc| / sigma_max (0 when sigma_max = 0), which
    avoids the cancellation in the smaller root of H.  Every product pairs
    two entries of C, so negating C leaves the result unchanged bit for bit,
    as with gram_singular_values.  It is elementwise: a view gives a copy's bits.
    """
    a, b, c, d = c[..., 0, 0], c[..., 0, 1], c[..., 1, 0], c[..., 1, 1]
    h11 = (a.conj() * a).real + (c.conj() * c).real
    h22 = (b.conj() * b).real + (d.conj() * d).real
    h12 = np.abs(a.conj() * b + c.conj() * d)
    smax = np.sqrt((h11 + h22) / 2 + np.hypot((h11 - h22) / 2, h12))
    del h11, h22, h12  # the sweep solves many pairs at once; hold fewer arrays
    det = np.abs(a * d - b * c)
    smin = np.divide(det, smax, out=np.zeros_like(smax), where=smax > 0)
    return np.stack((np.minimum(smin, smax), smax), axis=-1)


def singular_values_3x3(c):
    """Smallest and largest singular value of each C in a (..., 3, 3) stack.

    The six distinct entries of H = C*C are formed from C's columns
    elementwise over the stack, as in singular_values_2x2, and the roots of
    H follow from the trigonometric form for a 3x3 Hermitian matrix: with
    q = tr(H)/3, p = ||H - qI||_F / sqrt(6), r = det(H - qI) / (2p^3) and
    phi = acos(r)/3, the roots are q + 2p cos(phi + 2 pi k/3), k = 0, 1, 2.

    Rounding leaves the entries of H - qI uncertain by about eps q, so r is
    uncertain by about e = eps (q + p) / p, and an error e in r moves a root
    lambda by 2p^3 e / |chi'(lambda)|, chi the characteristic polynomial of
    H.  For the largest root that is
    eps (q + p) / (6 sin(pi/3 - phi) sin(pi/3 + phi)), which has no bound as
    r nears -1 and the top two roots meet: where it exceeds 4 eps lambda_max,
    sigma_max comes from eigvalsh of H instead.  For the smallest root it is
    eps (q + p) / (6 sin(phi) sin(pi/3 + phi)), unbounded as r nears +1:
    where that exceeds 4 eps lambda_max, sigma_min does.  sigma_max then
    stays within a few ulp of the exact value and sigma_min within a few
    eps lambda_max of it, as eigvalsh's do.
    Every product pairs two entries of C, so negating C leaves the result
    unchanged bit for bit, the fallback choice included; a view gives a copy's bits.
    """
    col = [c[..., :, k] for k in range(3)]

    def h(i, j):
        e = col[i].conj() * col[j]
        return e[..., 0] + e[..., 1] + e[..., 2]

    h00, h11, h22 = h(0, 0).real, h(1, 1).real, h(2, 2).real
    h01, h02, h12 = h(0, 1), h(0, 2), h(1, 2)
    q = (h00 + h11 + h22) / 3
    d0, d1, d2 = h00 - q, h11 - q, h22 - q
    a01, a02, a12 = ((x.conj() * x).real for x in (h01, h02, h12))
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2 * (a01 + a02 + a12)) / 6)
    det = d0 * d1 * d2 - d0 * a12 - d1 * a02 - d2 * a01 + 2 * (h01 * h12 * h02.conj()).real
    p3 = 2 * p**3
    r = np.divide(det, p3, out=np.zeros_like(p), where=p3 > 0)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3
    lam_max = q + 2 * p * np.cos(phi)
    lam_min = q + 2 * p * np.cos(phi + 2 * np.pi / 3)
    span = 24 * lam_max * np.sin(phi + np.pi / 3)
    top = q + p > span * np.sin(np.pi / 3 - phi)
    bottom = q + p > span * np.sin(phi)
    sv = np.sqrt(np.maximum(np.stack((lam_min, lam_max), axis=-1), 0.0))
    fall = np.nonzero(top | bottom)
    if fall[0].size:
        rows = ((h00, h01, h02), (h01.conj(), h11, h12), (h02.conj(), h12.conj(), h22))
        hf = np.stack([np.stack([x[fall] for x in row], axis=-1) for row in rows], axis=-2)
        ev, low, high = gram_singular_values(hf), sv[..., 0], sv[..., 1]
        low[fall] = np.where(bottom[fall], ev[:, 0], low[fall])
        high[fall] = np.where(top[fall], ev[:, -1], high[fall])
    sv[..., 0] = np.minimum(sv[..., 0], sv[..., 1])
    return sv


def batch_spectral_norms(stack):
    """Largest singular value of each matrix in a (..., p, q) stack."""
    g = np.matmul(stack.conj().swapaxes(-1, -2), stack)
    return gram_singular_values(g)[..., -1]


def kronecker(p, q):
    """Kronecker product with a size guard."""
    p = as_matrix(p)
    q = as_matrix(q)
    check_entries(p.size * q.size, f"kronecker product of {p.shape} and {q.shape}")
    return np.kron(p, q)


def orthonormalize(m):
    """Orthonormal basis for the column span of m, with a fixed phase.

    m is one n x r matrix or an (..., n, r) stack, each matrix treated on its
    own.  Thin QR followed by a deterministic phase convention: the first
    entry of each column with modulus above 1e-12 is made real and positive.
    The convention makes subspace representatives reproducible across runs and
    platforms, which the seeded experiments rely on.
    """
    m = as_matrix(m, stack=True)
    n, r = m.shape[-2:]
    if n == 0 or r > n:
        raise FrameError(f"cannot orthonormalize {r} columns in dimension {n}")
    q, rr = np.linalg.qr(m)
    if np.any(np.abs(np.diagonal(rr, axis1=-2, axis2=-1)) < _RANK_TOL):
        raise FrameError("rank-deficient input: pivot below 1e-12")
    lead_row = np.argmax(np.abs(q) > 1e-12, axis=-2, keepdims=True)
    lead = np.take_along_axis(q, lead_row, axis=-2)
    return q * (np.conj(lead) / np.abs(lead))


def gram_deviation(stack):
    """max |X* X - I| over every X in an (n, r) matrix or (p, ..., n, r) stack.

    The one orthonormality test.  The stack is taken a slice at a time, of
    at most 2^16 entries of operands and products together (or one
    matrix), so a complex stack is never conjugated whole and no stack's
    products are formed at once; conj() copies nothing of a real one.  Each
    X* X is its own product, so the result is the same bit for bit, and NaN
    propagates as in one pass.  A real deviation is taken in place, so a
    real slice allocates only its products.
    """
    x = np.asarray(stack)
    x = x[None] if x.ndim == 2 else x
    step = max(1, _SLICE_ENTRIES // (x[0].size + x.shape[-1] ** 2))
    eye = np.eye(x.shape[-1])
    devs = []
    for i0 in range(0, len(x), step):
        s = x[i0 : i0 + step]
        g = np.matmul(s.conj().swapaxes(-1, -2), s)
        g -= eye
        devs.append((np.abs(g, out=g) if g.dtype == np.float64 else np.abs(g)).max())
    return float(np.max(devs))


def tight_deviation(p):
    """max |P P* - (m/n) I| of an n x m matrix P, a tile of columns of P P* at a time.

    The one tightness residual.  A tile is P times the conjugate of a run of
    P's rows, with m/n taken off its diagonal in place.  What a tile
    allocates, its n x step product and, for a complex P, the step x m
    conjugated rows, is at most 2^16 entries (or one column's worth), so P
    is never copied whole and no n x n product is made.  A real P of
    n <= 256 is one tile, one symmetric rank-k update.
    """
    n, m = p.shape
    step = max(1, _SLICE_ENTRIES // (n + m if np.iscomplexobj(p) else n))
    devs = []
    for i0 in range(0, n, step):
        t = p @ p[i0 : i0 + step].conj().T
        k = np.arange(t.shape[1])
        t[i0 + k, k] -= m / n
        devs.append(np.abs(t).max())
    return float(np.max(devs))


def dft_matrix(p):
    """Unitary discrete Fourier matrix of size p.

    Sizes 1 and 2 are real and come back as float64, without the
    exp(i*pi) roundoff in the imaginary part.
    """
    p = check_count(p, "dft size")
    check_entries(p * p, f"dft matrix of size {p}")
    j = np.arange(p)
    w = np.exp(2j * np.pi * np.outer(j, j) / p)
    if p <= 2:
        w = w.real
    return w / np.sqrt(p)


def hadamard_sylvester(k):
    """Sylvester-Hadamard matrix of size 2^k with +-1 entries (not scaled).

    Row x, column a holds (-1)^<bits(x), bits(a)>.  The size guard caps k
    at 13 (4^k entries), and it is checked before anything is allocated.
    """
    k = check_count(k, "hadamard order k", minimum=0)
    # 4^k entries; the min spares a huge k a huge integer, 4^14 already fails
    check_entries(4 ** min(k, 14), f"hadamard matrix of order 2^{k}")
    h = np.array([[1.0]])
    base = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(k):
        h = np.kron(h, base)
    return h
