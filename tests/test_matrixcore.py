"""Matrix kernel tests.

spectral_norm is checked against an independent oracle: the characteristic
polynomial of M*M computed by the Faddeev-LeVerrier recurrence, solved with
the companion-matrix root finder.  That path shares no SVD code with the
implementation.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blockframe.matrixcore as matrixcore_module
from blockframe import FrameError
from blockframe.matrixcore import (
    as_matrix,
    batch_spectral_norms,
    dft_matrix,
    frobenius_norm,
    gram_deviation,
    gram_singular_values,
    hadamard_sylvester,
    kronecker,
    orthonormalize,
    singular_values_2x2,
    singular_values_3x3,
    spectral_norm,
    tight_deviation,
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
    stack = np.asarray(rng.standard_normal((12, 3, 3)), dtype=np.complex128)
    got = gram_singular_values(np.matmul(stack.conj().swapaxes(1, 2), stack))
    for i, mat in enumerate(stack):
        want = np.sort(np.linalg.svd(mat, compute_uv=False))
        assert np.abs(got[i] - want).max() < 1e-10


@st.composite
def cross_gram_2x2_stacks(draw):
    """A (p, 2, 2) stack mixing Gaussian, zero, rank-1 and multiple-of-I members."""
    p = draw(st.integers(1, 40))
    cplx = draw(st.booleans())
    kinds = np.array(draw(st.lists(st.sampled_from("gz1i"), min_size=p, max_size=p)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gauss(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if cplx else x

    c = gauss(p, 2, 2)
    c[kinds == "z"] = 0.0
    rank1 = kinds == "1"
    c[rank1] = gauss(rank1.sum(), 2, 1) * gauss(rank1.sum(), 1, 2)
    scalar = kinds == "i"
    c[scalar] = gauss(scalar.sum(), 1, 1) * np.eye(2)
    # cross-Gram entries of a frame lie in [-1, 1]
    return c * 10.0 ** rng.uniform(-3.0, 0.0, size=(p, 1, 1))


# measured over 1.2M such matrices: at most 2 ulp on real, 5 ulp on complex
_CLOSED_FORM_ULP = 5


@settings(max_examples=200, deadline=None)
@given(cross_gram_2x2_stacks())
def test_singular_values_2x2_against_eigvalsh_and_svd(c):
    got = singular_values_2x2(c)
    want = gram_singular_values(np.matmul(c.conj().swapaxes(1, 2), c))
    assert np.all(np.abs(got[:, 1] - want[:, 1]) <= _CLOSED_FORM_ULP * np.spacing(want[:, 1]))
    svd = np.linalg.svd(c, compute_uv=False)
    assert np.abs(got[:, 0] - svd[:, 1]).max() <= 1e-12
    assert np.all(got[:, 0] <= got[:, 1])
    assert got.tobytes() == singular_values_2x2(-c).tobytes()


def _orthogonal(rng, cplx):
    g = rng.standard_normal((3, 3))
    return np.linalg.qr(g + 1j * rng.standard_normal((3, 3)) if cplx else g)[0]


@st.composite
def cross_gram_3x3_stacks(draw):
    """A (p, 3, 3) stack of Gaussian members and of the cases the closed form must survive.

    Beside Gaussian ones: zero, rank 1, rank 2, a multiple of I, two equal
    top singular values, and top singular values within 1e-9 of each other.
    """
    p = draw(st.integers(1, 16))
    cplx = draw(st.booleans())
    kinds = draw(st.lists(st.sampled_from("gz12iet"), min_size=p, max_size=p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gauss(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if cplx else x

    def member(kind):
        top, low = np.sort(rng.uniform(0.0, 1.0, 2))[::-1]
        second = {"e": top, "t": top * (1.0 - 1e-9 * rng.uniform())}.get(kind)
        if second is not None:
            s = np.diag([top, second, low])
            return _orthogonal(rng, cplx) @ s @ _orthogonal(rng, cplx).conj().T
        return {
            "g": lambda: gauss(3, 3),
            "z": lambda: np.zeros((3, 3)),
            "1": lambda: gauss(3, 1) * gauss(1, 3),
            "2": lambda: gauss(3, 2) @ gauss(2, 3),
            "i": lambda: gauss(1, 1) * np.eye(3),
        }[kind]()

    c = np.array([member(k) for k in kinds], dtype=np.complex128 if cplx else np.float64)
    # cross-Gram singular values of a frame lie in [0, 1]
    top = np.linalg.svd(c, compute_uv=False)[:, :1, None]
    return c / np.maximum(top, 1.0) * 10.0 ** rng.uniform(-3.0, 0.0, size=(p, 1, 1))


def sigma_max_oracle(c):
    """Largest singular value of one 3x3 matrix from a 40-digit Hermitian eigen-solve of C*C."""
    with mpmath.workdps(40):
        cm = mpmath.matrix(c.tolist())
        h = cm.H * cm
        solve = mpmath.eighe if np.iscomplexobj(c) else mpmath.eigsy
        top = max(mpmath.re(e) for e in solve(h, eigvals_only=True))
        return float(mpmath.sqrt(max(top, 0)))


# measured over 100,000 such matrices: at most 4 ulp where the closed form holds
_CLOSED_FORM_3X3_ULP = 5

# Where eigvalsh takes over, sigma_max^2 is its largest root of the H that
# singular_values_3x3 forms entry by entry.  With u = 2^-53, each entry sums
# three products of C's entries within 3u (real) or (2 sqrt(2) + 2)u < 5u
# (complex) of sum_k |c_ki| |c_kj| (Higham, 2nd ed., sections 3.1 and 3.6),
# so ||dH||_2 <= 5u ||C||_F^2 <= 15u lambda_max.  eigvalsh is backward
# stable, within p(n) u ||H||_2 of the exact roots (LAPACK Users' Guide,
# 4.7), and p(3) = 3 is taken here.  By Weyl the root is within
# 18u lambda_max, so sigma_max is within 9u sigma_max, 10u with the square
# root's rounding.  One ulp of sigma_max exceeds u sigma_max, and the
# oracle's own rounding adds half an ulp: 11 ulp.
_FALLBACK_3X3_ULP = 11

# a complex C with two equal top singular values (0.11237, 0.11237, 0.08807)
# whose sigma_max eigvalsh gives 7 ulp from the 40-digit value
_DOUBLE_TOP_3X3 = (
    "0x1.3492fbcdd33ffp-4 -0x1.8366020d1037dp-5 0x1.89e80fa126d00p-5 0x1.e1e1bc9532397p-7 "
    "-0x1.8cafa23cf2577p-7 0x1.259d79609c4ccp-5 -0x1.be8f75a3424a4p-5 -0x1.d7c3f7973a0b9p-9 "
    "0x1.346e84e4124c5p-4 0x1.c2d313a9586b9p-5 -0x1.74854e1043248p-6 -0x1.e1c102de0f6f8p-7 "
    "-0x1.42c0ed95b07b3p-5 0x1.ca5c41a35c75dp-8 -0x1.effe9917f8e03p-6 0x1.37b8462e72fb1p-6 "
    "-0x1.2f8c6f575a8a2p-5 0x1.11e0847632fb0p-4"
)


def _double_top():
    s = _DOUBLE_TOP_3X3
    return np.array([float.fromhex(t) for t in s.split()]).view(np.complex128).reshape(1, 3, 3)


def _top_fallback_rows(c):
    """The rows of c whose sigma_max singular_values_3x3 takes from eigvalsh, and eigvalsh's values.

    A spy in place of gram_singular_values hands back -(k + 1) as the k-th
    H's largest value, so a row whose sigma_max reads -(k + 1) took it from
    the k-th H.
    """
    solved = []

    def marked(h):
        solved.append(h)
        ev = gram_singular_values(h)
        ev[:, -1] = -1.0 - np.arange(len(h))
        return ev

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrixcore_module, "gram_singular_values", marked)
        smax = singular_values_3x3(c)[:, 1]
    rows = np.flatnonzero(smax < 0)
    k = (-1.0 - smax[rows]).astype(int)
    return rows, gram_singular_values(solved[0])[k, -1] if rows.size else np.empty(0)


@settings(max_examples=100, deadline=None)
@given(cross_gram_3x3_stacks())
@example(_double_top())
def test_singular_values_3x3_against_mpmath_and_svd(c):
    got = singular_values_3x3(c)
    want = np.array([sigma_max_oracle(x) for x in c])
    ulps = np.abs(got[:, 1] - want) / np.spacing(np.maximum(want, np.finfo(float).tiny))
    rows, eigen = _top_fallback_rows(c)
    assert got[rows, 1].tobytes() == eigen.tobytes()
    closed = np.ones(len(c), dtype=bool)
    closed[rows] = False
    assert ulps[closed].max(initial=0.0) <= _CLOSED_FORM_3X3_ULP
    assert ulps[rows].max(initial=0.0) <= _FALLBACK_3X3_ULP
    svd_min = np.linalg.svd(c, compute_uv=False)[:, -1]
    big = svd_min >= 1e-3
    assert np.all(np.abs(got[big, 0] - svd_min[big]) <= 1e-12)
    assert np.all(got[:, 0] <= got[:, 1])
    assert got.tobytes() == singular_values_3x3(-c).tobytes()


def test_singular_values_3x3_falls_back_where_top_roots_meet(monkeypatch):
    assert _top_fallback_rows(_double_top())[0].tolist() == [0]
    rng = np.random.default_rng(1009)
    u, v = _orthogonal(rng, False), _orthogonal(rng, False)
    equal_top = u @ np.diag([0.5, 0.5, 0.1]) @ v.T
    separated = u @ np.diag([0.9, 0.5, 0.1]) @ v.T
    solved = []

    def spy(h):
        solved.append(h)
        return gram_singular_values(h)

    monkeypatch.setattr(matrixcore_module, "gram_singular_values", spy)
    got = singular_values_3x3(np.stack([separated, equal_top]))
    # only the matrix with the double top root goes to eigvalsh
    assert len(solved) == 1 and solved[0].shape == (1, 3, 3)
    assert np.allclose(solved[0][0], equal_top.T @ equal_top, rtol=0, atol=1e-15)
    assert abs(got[1, 1] - 0.5) <= 2 * np.spacing(0.5)
    assert abs(got[0, 1] - 0.9) <= 2 * np.spacing(0.9)


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("r", [2, 3])
def test_a_strided_tile_view_gives_the_gathered_stacks_bits(monkeypatch, r, cplx):
    # the closed forms take any (..., r, r) stack: an (I, J, r, r) view of
    # an (I, r, J, r) tile gives the bits of its gathered (p, r, r) copy; at
    # r = 3 the planted double roots send rows through the eigvalsh fallback
    rng = np.random.default_rng(1010 + r)
    tile = rng.standard_normal((4, r, 5, r)) + (1j * rng.standard_normal((4, r, 5, r)) if cplx else 0)
    tile /= 2 * np.sqrt(r)
    if r == 3:
        u, v = _orthogonal(rng, cplx), _orthogonal(rng, cplx)
        tile[1, :, 2, :] = u @ np.diag([0.5, 0.5, 0.1]) @ v.conj().T  # top roots meet
        tile[3, :, 0, :] = u @ np.diag([0.7, 0.2, 0.2]) @ v.conj().T  # bottom roots meet
    view = tile.transpose(0, 2, 1, 3)
    gathered = np.ascontiguousarray(view).reshape(-1, r, r)
    solve = singular_values_2x2 if r == 2 else singular_values_3x3
    fallback = []

    def spy(h):
        fallback.append(len(h))
        return gram_singular_values(h)

    monkeypatch.setattr(matrixcore_module, "gram_singular_values", spy)
    got = solve(view)
    assert got.shape == (4, 5, 2)
    assert got.reshape(-1, 2).tobytes() == solve(gathered).tobytes()
    # one eigvalsh call for the view and one for the copy, on the same rows
    assert len(fallback) == (0 if r == 2 else 2)
    assert r == 2 or fallback[0] == fallback[1] >= 2


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
    with pytest.raises(FrameError, match="cannot orthonormalize 0 columns in dimension 0"):
        orthonormalize(np.zeros((0, 0)))  # no rows


@st.composite
def stacks(draw):
    """A (c, n, r) Gaussian stack; member k has its first z[k] rows zero."""
    n = draw(st.integers(1, 9))
    r = draw(st.integers(1, n))
    c = draw(st.integers(1, 5))
    z = draw(st.lists(st.integers(0, n - r), min_size=c, max_size=c))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((c, n, r))
    if draw(st.booleans()):
        g = g + 1j * rng.standard_normal((c, n, r))
    for k, zk in enumerate(z):
        g[k, :zk] = 0.0
    return g, z


@settings(max_examples=80, deadline=None)
@given(stacks())
def test_orthonormalize_stack_equals_one_by_one(case):
    g, z = case
    q = orthonormalize(g)
    one_by_one = np.stack([orthonormalize(x) for x in g])
    assert q.dtype == one_by_one.dtype == g.dtype
    assert q.tobytes() == one_by_one.tobytes()
    assert gram_deviation(q) < 1e-12
    # each member's phase lead sits below its zero rows, real and positive
    for x, zk in zip(q, z):
        for col in x.T:
            lead = np.flatnonzero(np.abs(col) > 1e-12)[0]
            assert lead >= zk
            assert abs(col[lead].imag) < 1e-12 and col[lead].real > 0.0


def _argmax_phase(m):
    """orthonormalize's phase step as an argmax over every entry of Q: the reference."""
    q, _ = np.linalg.qr(m)
    lead_row = np.argmax(np.abs(q) > 1e-12, axis=-2, keepdims=True)
    lead = np.take_along_axis(q, lead_row, axis=-2)
    return q * (np.conj(lead) / np.abs(lead))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(
    "fill, low, high",
    [(0.0, 0.0, 1e-12), (1e-13, 1e-15, 1e-12), (2e-12, 1e-12, 1e-11)],
    ids=["zero", "below", "just-above"],
)
def test_orthonormalize_lead_scan_matches_the_argmax_reference(complex_, fill, low, high):
    # member k's top k % 4 rows hold fill, so the first two columns of Q have
    # top rows below 1e-12 (fill 0 or 1e-13) or just above it (fill 2e-12);
    # in every other member the last column also has a 1 in row 0, which
    # puts its lead there while the other columns scan on
    rng = np.random.default_rng(29)
    g = rng.standard_normal((12, 6, 3))
    if complex_:
        g = g + 1j * rng.standard_normal((12, 6, 3))
    for k, x in enumerate(g):
        x[: k % 4] = fill
        x[0, -1] += k % 2
    q = np.linalg.qr(g)[0]
    top = np.abs(np.concatenate([x[: k % 4, :-1].ravel() for k, x in enumerate(q)]))
    classed = (top >= low) & (top < high)
    assert classed.all() if fill < 1e-12 else classed.any()
    assert orthonormalize(g).tobytes() == _argmax_phase(g).tobytes()
    for x in g:
        assert orthonormalize(x).tobytes() == _argmax_phase(x).tobytes()


@settings(max_examples=30, deadline=None)
@given(stacks(), st.integers(0, 4))
def test_orthonormalize_stack_rejects_one_rank_deficient_member(case, k):
    g, _ = case
    g = g.copy()
    g[k % len(g), :, -1] = 0.0
    with pytest.raises(FrameError, match="rank-deficient"):
        orthonormalize(g)


def test_gram_deviation():
    q = orthonormalize(np.random.default_rng(3).standard_normal((4, 6, 2)))
    assert gram_deviation(q) < 1e-15
    assert gram_deviation(q[0]) == gram_deviation(q[:1])
    q[2] *= 2.0
    assert gram_deviation(q) == pytest.approx(3.0, abs=1e-12)
    assert gram_deviation(np.eye(3)[:, :2] * 1j) == 0.0


def test_gram_deviation_in_slices_equals_the_one_pass_value(monkeypatch):
    # a real and a complex stack in slices of one matrix, of 3 matrices
    # with a short last one (3 x (12 + 4) entries), and in one slice
    rng = np.random.default_rng(4)
    real = rng.standard_normal((10, 6, 2))
    for x in (real, real + 1j * rng.standard_normal((10, 6, 2))):
        view = x.transpose(1, 0, 2).reshape(6, 20).reshape(6, 10, 2).transpose(1, 0, 2)
        one_pass = float(np.abs(np.matmul(x.conj().swapaxes(1, 2), x) - np.eye(2)).max())
        nan = x.copy()
        nan[7, 0, 0] = np.nan
        for size in (1, 48, 1 << 16):
            monkeypatch.setattr(matrixcore_module, "_SLICE_ENTRIES", size)
            assert gram_deviation(x) == one_pass
            assert gram_deviation(view) == one_pass
            assert np.isnan(gram_deviation(nan))


@pytest.mark.parametrize("cplx", [False, True])
def test_tight_deviation_equals_the_one_pass_residual(monkeypatch, cplx):
    # tiles of one column, of a few with a short last tile, and one tile.
    # A complex P goes through the same gemm either way; a real P P* was one
    # symmetric rank-k update, and its tiles are gemms, which round apart
    rng = np.random.default_rng(17)
    p = rng.standard_normal((7, 20)) + (1j * rng.standard_normal((7, 20)) if cplx else 0)
    gram = p @ p.conj().T
    one_pass = float(np.abs(gram - (20 / 7) * np.eye(7)).max())
    ulps = 0 if cplx else 4 * np.finfo(np.float64).eps * np.abs(gram).max()
    for tile in (1, 20, 60, 1 << 16):  # 2 columns: 20 entries of a real P, 60 of a complex one
        monkeypatch.setattr(matrixcore_module, "_SLICE_ENTRIES", tile)
        assert tight_deviation(p) == pytest.approx(one_pass, rel=0, abs=ulps)


def test_dft_matrix():
    for p in (1, 2, 3, 5, 8):
        f = dft_matrix(p)
        assert np.abs(f.conj().T @ f - np.eye(p)).max() < 1e-12
        assert np.abs(f - f.T).max() < 1e-14
    f3 = dft_matrix(3)
    assert f3[1, 1] == pytest.approx(np.exp(2j * np.pi / 3) / np.sqrt(3), abs=1e-14)
    with pytest.raises(FrameError):
        dft_matrix(0)


def test_dft_matrix_is_size_checked_before_it_is_built(monkeypatch):
    monkeypatch.setattr(matrixcore_module, "_MAX_ENTRIES", 1000)
    assert dft_matrix(31).shape == (31, 31)
    with pytest.raises(FrameError, match="size guard"):
        dft_matrix(100)


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


@pytest.mark.parametrize("p", [2.5, 0, -1, float("nan"), 3.0])
def test_dft_matrix_refuses_a_size_that_is_not_a_count(p):
    with pytest.raises(FrameError, match="dft size must be an integer >= 1"):
        dft_matrix(p)


def test_dft_matrix_takes_a_numpy_size():
    assert np.array_equal(dft_matrix(np.int64(3)), dft_matrix(3))
