"""BlockFrame container, coherence measures, distances, validation.

Coherence oracles here are deliberately naive: explicit Python loops over
block pairs with per-pair numpy SVDs, no shared code with the vectorized
implementation paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockframe.frame as frame_module
from blockframe import (
    BlockFrame,
    FrameError,
    average_coherence,
    average_column_coherence,
    chordal_distance,
    gram_map,
    spectral_distance,
    validate,
    welch_coherence_lower,
    worst_case_coherence,
)
from blockframe.cli import coherence_report
from blockframe.constructions import FrameRecipe, build_frame
from blockframe.flipping import apply_block_signs
from blockframe.matrixcore import orthonormalize


def random_frame(n, r, m, seed, complex_blocks=False):
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(m):
        g = rng.standard_normal((n, r))
        if complex_blocks:
            g = g + 1j * rng.standard_normal((n, r))
        blocks.append(orthonormalize(g))
    tag = "complex" if complex_blocks else "real"
    return BlockFrame.from_blocks(blocks, field_tag=tag)


def mu_oracle(frame):
    best = 0.0
    for i in range(frame.m):
        for j in range(i + 1, frame.m):
            g = frame.block(i).conj().T @ frame.block(j)
            best = max(best, np.linalg.svd(g, compute_uv=False)[0])
    return best


def nu_oracle(frame):
    best = 0.0
    for i in range(frame.m):
        acc = np.zeros((frame.r, frame.r), dtype=np.complex128)
        for j in range(frame.m):
            if j != i:
                acc += frame.block(i).conj().T @ frame.block(j)
        best = max(best, np.linalg.svd(acc, compute_uv=False)[0])
    return best / (frame.m - 1)


def nu1_oracle(p):
    m = p.shape[1]
    best = 0.0
    for i in range(m):
        acc = 0.0 + 0.0j
        for j in range(m):
            if j != i:
                acc += np.vdot(p[:, i], p[:, j])
        best = max(best, abs(acc))
    return best / (m - 1)


# --- coherence --------------------------------------------------------------


def test_worst_case_coherence_matches_pair_oracle():
    for seed, cplx in ((0, False), (1, True)):
        frame = random_frame(7, 2, 6, seed, complex_blocks=cplx)
        assert worst_case_coherence(frame) == pytest.approx(
            mu_oracle(frame), abs=1e-12
        )


def test_average_coherence_matches_loop_oracle():
    for seed, cplx in ((2, False), (3, True)):
        frame = random_frame(8, 2, 7, seed, complex_blocks=cplx)
        assert average_coherence(frame) == pytest.approx(nu_oracle(frame), abs=1e-11)


def test_average_column_coherence_matches_loop_oracle():
    rng = np.random.default_rng(4)
    p = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
    p = p / np.linalg.norm(p, axis=0)
    assert average_column_coherence(p) == pytest.approx(nu1_oracle(p), abs=1e-12)


def random_unitary(k, rng, cplx):
    """Haar-random k x k orthogonal (real) or unitary (complex) matrix."""
    g = rng.standard_normal((k, k))
    if cplx:
        g = g + 1j * rng.standard_normal((k, k))
    q, rr = np.linalg.qr(g)
    d = np.diagonal(rr)
    return q * (d / np.abs(d))


@st.composite
def rotation_cases(draw):
    r = draw(st.integers(1, 3))
    m = draw(st.integers(2, 10))
    n = draw(st.integers(r + 1, min(m * r, r + 6)))
    return n, r, m, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(rotation_cases())
def test_coherence_unitary_invariance(case):
    """mu sees only the subspaces, nu also the bases within them.

    mu is invariant under a per-block A_i -> A_i U_i and a global W A.  nu is
    invariant under a global W and a common right A_i -> A_i U only: a
    per-block rotation changes the sum of cross-Grams it is the norm of.
    """
    n, r, m, cplx, seed = case
    frame = random_frame(n, r, m, seed, cplx)
    rng = np.random.default_rng(seed)
    blocks = frame.blocks3d()
    w = random_unitary(n, rng, cplx)
    u = random_unitary(r, rng, cplx)
    per_block = np.stack([random_unitary(r, rng, cplx) for _ in range(m)])
    mu, nu = worst_case_coherence(frame), average_coherence(frame)

    rotated = BlockFrame(n=n, r=r, m=m, data=w @ frame.data)
    assert worst_case_coherence(rotated) == pytest.approx(mu, abs=1e-12)
    assert average_coherence(rotated) == pytest.approx(nu, abs=1e-12)
    common = BlockFrame.from_blocks(list(blocks @ u))
    assert worst_case_coherence(common) == pytest.approx(mu, abs=1e-12)
    assert average_coherence(common) == pytest.approx(nu, abs=1e-12)
    separate = BlockFrame.from_blocks(list(blocks @ per_block))
    assert worst_case_coherence(separate) == pytest.approx(mu, abs=1e-12)


def test_average_column_coherence_needs_two_columns():
    with pytest.raises(FrameError):
        average_column_coherence(np.ones((3, 1)))


# --- gram map ---------------------------------------------------------------


def test_gram_map_size_guard():
    # a valid n=2, r=1 frame: 24,000 entries, but 144M in its Gram map, above the 2^27 guard
    theta = np.pi * np.arange(12_000) / 12_000
    frame = BlockFrame(n=2, r=1, m=12_000, data=np.stack([np.cos(theta), np.sin(theta)]))
    with pytest.raises(FrameError, match="size guard"):
        gram_map(frame)
    with pytest.raises(FrameError, match="size guard"):
        validate(frame)


def test_gram_map_symmetric_unit_diagonal():
    frame = random_frame(6, 2, 5, 8, complex_blocks=True)
    g = gram_map(frame)
    assert g.shape == (5, 5)
    assert np.array_equal(g, g.T)
    assert np.all(np.diagonal(g) == 1.0)
    for i in range(5):
        for j in range(i + 1, 5):
            pair = frame.block(i).conj().T @ frame.block(j)
            assert g[i, j] == pytest.approx(
                np.linalg.svd(pair, compute_uv=False)[0], abs=1e-10
            )


# --- the chunked pair sweep -------------------------------------------------


@st.composite
def sweep_cases(draw):
    """A random frame and a chunk size; small chunks force many partial chunks."""
    r = draw(st.sampled_from([1, 2, 3, 5, 10]))
    m = draw(st.integers(2, 24))
    n = draw(st.integers(r + 1, min(m * r, r + 12)))
    cplx = draw(st.booleans())
    chunk = draw(st.sampled_from([1, r * r * 3 + 1, 700, 1 << 16]))
    return random_frame(n, r, m, draw(st.integers(0, 2**32 - 1)), cplx), chunk


def _off_diagonal_max(g):
    return g[~np.eye(g.shape[0], dtype=bool)].max()


@settings(max_examples=60, deadline=None)
@given(sweep_cases(), st.integers(0, 2**32 - 1))
def test_pair_sweep_properties(case, sign_seed):
    frame, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frame_module, "_CHUNK_ENTRIES", chunk)
        chunks = list(frame_module._pair_chunks(frame))
        mu = worst_case_coherence(frame)
        g = gram_map(frame)
        signs = np.random.default_rng(sign_seed).choice([-1, 1], size=frame.m)
        flipped = apply_block_signs(frame, signs)
        mu_flipped = worst_case_coherence(flipped)
        g_flipped = gram_map(flipped)

    # every unordered pair exactly once
    i = np.concatenate([part[0] for part in chunks])
    j = np.concatenate([part[1] for part in chunks])
    assert sorted(zip(i, j)) == list(zip(*np.triu_indices(frame.m, 1)))
    # pruning never changes the maximum, by even one ulp
    assert mu == _off_diagonal_max(g)
    # flipping block signs moves neither mu nor the gram map, bit for bit
    assert mu_flipped == mu
    assert np.array_equal(g_flipped, g)
    # the gram map against a batched SVD of every cross-Gram
    assert np.array_equal(g, g.T)
    assert np.all(np.diagonal(g) == 1.0)
    blocks = frame.blocks3d()
    cross = np.einsum("ink,jnl->ijkl", blocks.conj(), blocks)
    oracle = np.linalg.svd(cross, compute_uv=False)[..., 0]
    off = ~np.eye(frame.m, dtype=bool)
    assert np.abs(g[off] - oracle[off]).max() <= 1e-12
    assert mu >= welch_coherence_lower(frame.n, frame.r, frame.m) - 1e-12


# --- distances --------------------------------------------------------------


def test_distance_identities():
    frame = random_frame(9, 3, 6, 9, complex_blocks=True)
    for i in range(frame.m):
        for j in range(frame.m):
            if i == j:
                continue
            g = frame.block(i).conj().T @ frame.block(j)
            s2 = np.linalg.svd(g, compute_uv=False)[0] ** 2
            f2 = np.linalg.norm(g) ** 2
            ds = spectral_distance(frame, i, j)
            dc = chordal_distance(frame, i, j)
            assert ds**2 + s2 == pytest.approx(1.0, abs=1e-12)
            assert dc**2 == pytest.approx(frame.r - f2, abs=1e-12)
            assert f2 <= frame.r * s2 + 1e-12
            assert dc >= ds - 1e-12


def test_distance_extremes():
    base = orthonormalize(np.random.default_rng(10).standard_normal((4, 2)))
    same = BlockFrame.from_blocks([base, base], field_tag="real")
    assert chordal_distance(same, 0, 1) == pytest.approx(0.0, abs=1e-7)
    assert spectral_distance(same, 0, 1) == pytest.approx(0.0, abs=1e-7)
    other = np.zeros((4, 2))
    other[2, 0] = 1.0
    other[3, 1] = 1.0
    disjoint = BlockFrame.from_blocks(
        [np.vstack([np.eye(2), np.zeros((2, 2))]), other], field_tag="real"
    )
    assert spectral_distance(disjoint, 0, 1) == pytest.approx(1.0, abs=1e-12)
    assert chordal_distance(disjoint, 0, 1) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    with pytest.raises(FrameError):
        spectral_distance(same, 1, 1)


# --- container --------------------------------------------------------------


def test_block_frame_shape_checks():
    data = np.zeros((4, 6), dtype=np.complex128)
    with pytest.raises(FrameError):
        BlockFrame(n=4, r=2, m=4, data=data)  # shape mismatch
    with pytest.raises(FrameError):
        BlockFrame(n=2, r=2, m=3, data=np.zeros((2, 6)))  # r not < n
    with pytest.raises(FrameError):
        BlockFrame(n=7, r=2, m=3, data=np.zeros((7, 6)))  # n > m*r
    with pytest.raises(FrameError):
        BlockFrame(n=4, r=2, m=3, data=np.zeros((4, 6)), field_tag="rational")
    with pytest.raises(FrameError):
        BlockFrame(n=4, r=2, m=3, data=np.full((4, 6), 1j), field_tag="real")


def test_block_views_and_from_blocks():
    frame = random_frame(5, 2, 4, 11)
    assert frame.block(2).base is frame.data
    stack = frame.blocks3d()
    assert stack.shape == (4, 5, 2)
    for i in range(4):
        assert np.array_equal(stack[i], frame.block(i))
    with pytest.raises(FrameError):
        frame.block(4)
    with pytest.raises(FrameError):
        BlockFrame.from_blocks([np.zeros((3, 2)), np.zeros((4, 2))])


def test_dtype_is_the_field():
    real = random_frame(5, 1, 6, 12)
    assert real.data.dtype == np.float64 and real.field_tag == "real"
    cplx = random_frame(5, 2, 4, 3, complex_blocks=True)
    assert cplx.data.dtype == np.complex128 and cplx.field_tag == "complex"
    widened = BlockFrame(n=5, r=1, m=6, data=real.data, field_tag="complex")
    assert widened.data.dtype == np.complex128 and widened.field_tag == "complex"


def test_negative_zero_counts_as_real():
    # complex storage whose imaginary parts are all zero, -0.0 among them,
    # casts to a real frame on request and stays complex otherwise
    real = random_frame(5, 1, 6, 12)
    data = np.empty(real.data.shape, dtype=np.complex128)
    data.real = real.data
    data.imag = -0.0
    cast = BlockFrame(n=5, r=1, m=6, data=data, field_tag="real")
    assert cast.data.dtype == np.float64 and cast.field_tag == "real"
    assert np.array_equal(cast.data, real.data)
    assert cast.block(2).base is cast.data
    assert BlockFrame(n=5, r=1, m=6, data=data).field_tag == "complex"


# --- validation and report --------------------------------------------------


def test_validate_union_of_orthobases():
    frame = build_frame(FrameRecipe(family="id-hadamard", params={"k": 2}))
    rec = validate(frame)
    assert rec.unit_columns
    assert rec.block_orthonormal
    assert rec.tight
    assert rec.union_of_orthobases
    assert not rec.equi_isoclinic  # same-basis cross norms are 0, others 1/2


def test_non_orthonormal_blocks_are_refused():
    # all-ones columns would report mu = nu = 2.0 if the frame existed
    with pytest.raises(FrameError, match="not orthonormal"):
        BlockFrame(n=2, r=1, m=3, data=np.ones((2, 3)))
    frame = random_frame(6, 2, 5, 13)
    nearly = frame.data.copy()
    nearly[0, 0] += 1e-9
    assert BlockFrame(n=6, r=2, m=5, data=nearly).m == 5


def test_validate_random_frame():
    frame = random_frame(6, 2, 5, 13)
    rec = validate(frame)
    assert rec.unit_columns
    assert rec.block_orthonormal
    assert not rec.tight
    assert not rec.union_of_orthobases
    assert not rec.equi_isoclinic
    with pytest.raises(FrameError, match="not orthonormal"):
        BlockFrame(n=6, r=2, m=5, data=2.0 * frame.data, field_tag="real")


@pytest.mark.parametrize("seed, cplx", [(20, False), (21, True), (22, False), (23, True)])
def test_validate_spread_at_r2_matches_svd(seed, cplx):
    # r = 2 takes sigma_min as |det C| / sigma_max; the oracle is a plain SVD
    frame = random_frame(7, 2, 9, seed, complex_blocks=cplx)
    blocks = frame.blocks3d()
    cross = np.einsum("ink,jnl->ijkl", blocks.conj(), blocks)
    sv = np.linalg.svd(cross, compute_uv=False)[~np.eye(frame.m, dtype=bool)]
    rec = validate(frame)
    assert abs(rec.cross_singular_spread - (sv[:, 0].max() - sv[:, 1].min())) <= 1e-12
    assert not rec.equi_isoclinic


def test_validate_kerdock_r2_is_not_equi_isoclinic():
    # pairs within one orthobasis have C = 0 up to rounding, the others C = +-I/4
    frame = build_frame(FrameRecipe(family="kerdock", params={"k": 4}, kron=("hadamard", 1)))
    assert (frame.n, frame.r, frame.m) == (32, 2, 128)
    rec = validate(frame)
    assert rec.cross_singular_spread == pytest.approx(0.25, abs=1e-15)
    assert not rec.equi_isoclinic


def test_coherence_report_fields():
    frame = build_frame(FrameRecipe(family="id-hadamard", params={"k": 2}))
    payload, gram = coherence_report(frame)
    assert payload["n"] == 4 and payload["r"] == 1 and payload["m"] == 8
    assert payload["worst_case_coherence"] == pytest.approx(0.5, abs=1e-12)
    assert payload["union_of_orthobases"] is True
    assert payload["orthobases_lower_bound"] == pytest.approx(0.5, abs=1e-15)
    assert "gram" not in payload
    assert gram.shape == (8, 8)

    rand = random_frame(6, 2, 5, 14)
    payload2, _ = coherence_report(rand)
    assert payload2["orthobases_lower_bound"] is None
    assert payload2["worst_case_coherence"] == pytest.approx(mu_oracle(rand), abs=1e-10)
