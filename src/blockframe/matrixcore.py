"""Dense matrix kernels used by every other module.

The dtype is the field: real matrices are float64 and complex ones
complex128.  The kernels are written once for both; conj() is the identity
on real input, so real data never pays for complex arithmetic.
"""

import numpy as np

from .errors import FrameError

# refuse dense results beyond 2^27 entries: 1 GiB as float64, 2 GiB as complex128
_MAX_ENTRIES = 1 << 27

# pivot threshold below which a column set is treated as rank deficient
_RANK_TOL = 1e-12


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


def batch_spectral_norms(stack):
    """Largest singular value of each matrix in a (..., p, q) stack."""
    g = np.einsum("...ki,...kj->...ij", stack.conj(), stack)
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
    if r > n:
        raise FrameError(f"cannot orthonormalize {r} columns in dimension {n}")
    q, rr = np.linalg.qr(m)
    if np.any(np.abs(np.diagonal(rr, axis1=-2, axis2=-1)) < _RANK_TOL):
        raise FrameError("rank-deficient input: pivot below 1e-12")
    lead_row = np.argmax(np.abs(q) > 1e-12, axis=-2, keepdims=True)
    lead = np.take_along_axis(q, lead_row, axis=-2)
    return q * (np.conj(lead) / np.abs(lead))


def gram_deviation(stack):
    """max |X* X - I| over every X in an (..., n, r) stack: the one orthonormality test."""
    x = np.asarray(stack)
    g = np.matmul(x.conj().swapaxes(-1, -2), x)
    return float(np.abs(g - np.eye(x.shape[-1])).max())


def dft_matrix(p):
    """Unitary discrete Fourier matrix of size p.

    Sizes 1 and 2 are real and come back as float64, without the
    exp(i*pi) roundoff in the imaginary part.
    """
    if p < 1:
        raise FrameError(f"dft size must be >= 1, got {p}")
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
    if k < 0:
        raise FrameError(f"hadamard order must be >= 0, got {k}")
    # 4^k entries; the min spares a huge k a huge integer, 4^14 already fails
    check_entries(4 ** min(k, 14), f"hadamard matrix of order 2^{k}")
    h = np.array([[1.0]])
    base = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(k):
        h = np.kron(h, base)
    return h
