"""Matrix kernel tests.

spectral_norm is checked against an independent oracle: the characteristic
polynomial of M*M computed by the Faddeev-LeVerrier recurrence, solved with
the companion-matrix root finder.  That path shares no SVD code with the
implementation.
"""

import numpy as np
import pytest

from blockframe import FrameError
from blockframe.matrixcore import (
    as_matrix,
    batch_singular_values,
    batch_spectral_norms,
    dft_matrix,
    frobenius_norm,
    hadamard_sylvester,
    kronecker,
    orthonormalize,
    spectral_norm,
)


def charpoly_coefficients(a):
    """Faddeev-LeVerrier: monic characteristic polynomial of a square a."""
    p = a.shape[0]
    coeffs = np.zeros(p + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, p + 1):
        m = a @ m + coeffs[k - 1] * a
        coeffs[k] = -np.trace(m) / k
    return coeffs


def spectral_norm_oracle(mat):
    """Largest singular value via char-poly roots of M*M."""
    g = mat.conj().T @ mat
    roots = np.roots(charpoly_coefficients(g))
    lam = max(0.0, float(np.max(roots.real)))
    return np.sqrt(lam)


def random_small_matrix(rng, idx):
    rows = int(rng.integers(1, 7))
    cols = int(rng.integers(1, 7))
    mat = rng.standard_normal((rows, cols))
    if idx % 3 == 0:
        mat = mat + 1j * rng.standard_normal((rows, cols))
    if idx % 7 == 0 and cols >= 2:
        mat[:, -1] = mat[:, 0]  # force rank deficiency
    return np.asarray(mat, dtype=np.complex128)


def test_spectral_norm_matches_charpoly_oracle():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for idx in range(200):
        mat = random_small_matrix(rng, idx)
        got = spectral_norm(mat)
        want = spectral_norm_oracle(mat)
        scale = max(1.0, want)
        worst = max(worst, abs(got - want) / scale)
    assert worst < 1e-8


def test_spectral_norm_known_values():
    assert spectral_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0, abs=1e-14)
    u = np.array([[2.0], [1.0]])
    v = np.array([[1.0, -2.0]])
    assert spectral_norm(u @ v) == pytest.approx(np.sqrt(5.0) * np.sqrt(5.0), abs=1e-12)
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 5)))
    assert spectral_norm(q) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_properties():
    rng = np.random.default_rng(1002)
    a = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    b = rng.standard_normal((4, 5))
    c = rng.standard_normal((5, 3))
    assert spectral_norm(8.0 * a) == pytest.approx(8.0 * spectral_norm(a), rel=1e-13)
    assert spectral_norm(a + b) <= spectral_norm(a) + spectral_norm(b) + 1e-12
    assert spectral_norm(a @ c) <= spectral_norm(a) * spectral_norm(c) + 1e-12


def test_bad_inputs_raise():
    with pytest.raises(FrameError):
        spectral_norm(np.zeros((0, 3)))
    with pytest.raises(FrameError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(FrameError):
        as_matrix(np.array([[np.inf, 0.0]]))
    with pytest.raises(FrameError):
        as_matrix(np.array([[0.0, np.nan * 1j]]))


def test_as_matrix_keeps_the_field():
    assert as_matrix([[1, 2]]).dtype == np.float64
    assert as_matrix(np.eye(2, dtype=np.float32)).dtype == np.float64
    assert as_matrix([[1.0, 2.0j]]).dtype == np.complex128
    real = np.eye(3)
    assert as_matrix(real) is real


def test_frobenius_norm():
    m = np.array([[3.0, 0.0], [0.0, 4.0 * 1j]])
    assert frobenius_norm(m) == pytest.approx(5.0, abs=1e-14)


def test_batch_spectral_norms_match_svd():
    rng = np.random.default_rng(1003)
    stack = rng.standard_normal((30, 4, 3)) + 1j * rng.standard_normal((30, 4, 3))
    got = batch_spectral_norms(stack)
    want = np.array([np.linalg.svd(mat, compute_uv=False)[0] for mat in stack])
    assert np.abs(got - want).max() < 1e-10


def test_batch_spectral_norms_sign_flip_bitwise():
    # the whole flipping analysis rests on this being exact, not just close
    rng = np.random.default_rng(1004)
    stack = rng.standard_normal((20, 5, 2)) + 1j * rng.standard_normal((20, 5, 2))
    assert np.array_equal(batch_spectral_norms(stack), batch_spectral_norms(-stack))


def test_batch_singular_values_match_svd():
    rng = np.random.default_rng(1005)
    stack = rng.standard_normal((12, 3, 3))
    got = batch_singular_values(np.asarray(stack, dtype=np.complex128))
    for i, mat in enumerate(stack):
        want = np.sort(np.linalg.svd(mat, compute_uv=False))
        assert np.abs(got[i] - want).max() < 1e-10


def test_kronecker_norm_multiplicative():
    rng = np.random.default_rng(1006)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    got = spectral_norm(kronecker(a, b))
    assert got == pytest.approx(spectral_norm(a) * spectral_norm(b), rel=1e-10)


def test_kronecker_size_guard():
    big = np.ones((1 << 14, 1))
    with pytest.raises(FrameError):
        kronecker(big, np.ones((1 << 14, 1)))


def test_orthonormalize_projector_and_phase():
    rng = np.random.default_rng(1007)
    m = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    q = orthonormalize(m)
    assert np.abs(q.conj().T @ q - np.eye(3)).max() < 1e-12
    # same column span: compare orthogonal projectors, the independent one
    # assembled from the normal equations
    proj_ref = m @ np.linalg.solve(m.conj().T @ m, m.conj().T)
    assert np.abs(q @ q.conj().T - proj_ref).max() < 1e-8
    for j in range(3):
        col = q[:, j]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(lead.imag) < 1e-12
        assert lead.real > 0.0


def test_orthonormalize_deterministic():
    rng = np.random.default_rng(1008)
    m = rng.standard_normal((6, 2))
    assert np.array_equal(orthonormalize(m), orthonormalize(m.copy()))


def test_orthonormalize_rejects_rank_deficiency():
    m = np.ones((4, 2))
    with pytest.raises(FrameError):
        orthonormalize(m)
    with pytest.raises(FrameError):
        orthonormalize(np.ones((2, 3)))  # more columns than rows


def test_dft_matrix():
    for p in (1, 2, 3, 5, 8):
        f = dft_matrix(p)
        assert np.abs(f.conj().T @ f - np.eye(p)).max() < 1e-12
        assert np.abs(f - f.T).max() < 1e-14
    f3 = dft_matrix(3)
    assert f3[1, 1] == pytest.approx(np.exp(2j * np.pi / 3) / np.sqrt(3), abs=1e-14)
    with pytest.raises(FrameError):
        dft_matrix(0)


def test_hadamard_sylvester():
    for k in (0, 1, 3):
        h = hadamard_sylvester(k)
        size = 1 << k
        assert set(np.unique(h.real)) <= {-1.0, 1.0}
        assert np.all(h.imag == 0.0)
        assert np.abs(h @ h.conj().T - size * np.eye(size)).max() < 1e-12
    h3 = hadamard_sylvester(3)
    x, a = 5, 3  # <bits(5), bits(3)> = 1*1 + 0*1 + 1*0 = 1
    assert h3[x, a].real == -1.0
    assert h3.dtype == np.float64
    with pytest.raises(FrameError):
        hadamard_sylvester(17)
    with pytest.raises(FrameError):
        hadamard_sylvester(-1)


def test_hadamard_guard_refuses_before_allocating(monkeypatch):
    def no_kron(*args):
        raise AssertionError("np.kron reached")

    monkeypatch.setattr(np, "kron", no_kron)
    with pytest.raises(FrameError, match="size guard"):
        hadamard_sylvester(14)  # 2^28 entries
    with pytest.raises(FrameError, match="size guard"):
        hadamard_sylvester(10**9)
    with pytest.raises(AssertionError, match="np.kron reached"):
        hadamard_sylvester(13)  # 2^26 entries: within the guard
