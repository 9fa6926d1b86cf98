"""Deterministic frame catalog and the two Kronecker lifts."""

import math

import numpy as np
import pytest

from blockframe import (
    FrameError,
    FrameRecipe,
    alltop_gabor,
    average_coherence,
    average_column_coherence,
    build_frame,
    default_kron_factor,
    dft_matrix,
    discrete_chirp,
    etf_max_blocks,
    gf2_rank,
    hadamard_sylvester,
    harmonic_qr_etf,
    id_hadamard_union,
    is_prime,
    kerdock_real,
    kerdock_set,
    kron_from_etf,
    kron_from_flat_union,
    orthonormalize,
    read_kerdock_set_file,
    steiner_pairs_etf,
    validate_kerdock_set,
    verify_etf,
    verify_flat_union,
    welch_coherence_lower,
    write_bfm,
)
from blockframe.frame import BlockFrame

H1 = hadamard_sylvester(1) / math.sqrt(2.0)


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


# ---------------------------------------------------------------- ETF catalog


def test_steiner_pairs_etf_v4():
    p = steiner_pairs_etf(4)
    assert p.shape == (6, 16)
    rep = verify_etf(p)
    assert rep.is_etf
    assert rep.coherence == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert rep.coherence == pytest.approx(welch_coherence_lower(6, 1, 16), abs=1e-10)
    norms = np.linalg.norm(p, axis=0)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_steiner_pairs_etf_v5():
    p = steiner_pairs_etf(5)
    assert p.shape == (10, 25)
    rep = verify_etf(p)
    assert rep.is_etf
    assert rep.coherence == pytest.approx(0.25, abs=1e-10)


def test_steiner_domain():
    with pytest.raises(FrameError):
        steiner_pairs_etf(2)


def test_harmonic_qr_etf():
    p7 = harmonic_qr_etf(7)
    assert p7.shape == (3, 7)
    rep = verify_etf(p7)
    assert rep.is_etf
    assert rep.coherence == pytest.approx(math.sqrt(4.0 / 18.0), abs=1e-10)
    assert rep.tight_residual < 1e-9

    p11 = harmonic_qr_etf(11)
    assert p11.shape == (5, 11)
    assert verify_etf(p11).is_etf


def test_harmonic_domain():
    for bad in (5, 15, 2, 4):  # wrong residue class, composite, too small
        with pytest.raises(FrameError):
            harmonic_qr_etf(bad)


def test_verify_etf_rejects():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 12))
    g /= np.linalg.norm(g, axis=0, keepdims=True)
    assert not verify_etf(g).is_etf
    # a lone orthonormal basis is not overcomplete
    with pytest.raises(FrameError):
        verify_etf(dft_matrix(5))


# ---------------------------------------------------------------- flat unions


def _enumerate_moduli(p, nb):
    """Column-pair inner products grouped by same-basis / cross-basis."""
    n, m = p.shape
    w = m // nb
    same, cross = [], []
    for i in range(m):
        for j in range(i + 1, m):
            val = abs(np.vdot(p[:, i], p[:, j]))
            (same if i // w == j // w else cross).append(val)
    return np.array(same), np.array(cross)


def test_alltop_gabor_p5():
    p = alltop_gabor(5)
    assert p.shape == (5, 25)
    same, cross = _enumerate_moduli(p, 5)
    assert np.abs(cross - 5.0 ** -0.5).max() < 1e-10
    assert same.max() < 1e-10
    assert verify_flat_union(p).is_flat_union


def test_alltop_gabor_p7_flat():
    assert verify_flat_union(alltop_gabor(7)).is_flat_union


def test_alltop_domain():
    for bad in (3, 4, 6):
        with pytest.raises(FrameError):
            alltop_gabor(bad)


def test_discrete_chirp_p5():
    p = discrete_chirp(5)
    assert p.shape == (5, 25)
    same, cross = _enumerate_moduli(p, 5)
    assert np.abs(cross - 5.0 ** -0.5).max() < 1e-10
    assert same.max() < 1e-10
    assert verify_flat_union(p).is_flat_union


def test_discrete_chirp_domain():
    for bad in (2, 9, 1):
        with pytest.raises(FrameError):
            discrete_chirp(bad)


def test_id_hadamard_union_entries():
    p = id_hadamard_union(1)
    assert p.shape == (2, 4)
    # identity basis then scaled Hadamard basis
    assert np.allclose(p[:, :2], np.eye(2))
    assert np.abs(np.abs(p[:, 2:]) - 2.0 ** -0.5).max() < 1e-15
    _, cross = _enumerate_moduli(p, 2)
    assert np.abs(cross - 2.0 ** -0.5).max() < 1e-15


def test_id_hadamard_union_flat_small_k():
    for k in (1, 2, 3, 4):
        assert verify_flat_union(id_hadamard_union(k)).is_flat_union
    with pytest.raises(FrameError):
        id_hadamard_union(0)


def test_verify_flat_union_rejects():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((4, 8))
    g /= np.linalg.norm(g, axis=0, keepdims=True)
    assert not verify_flat_union(g).is_flat_union
    with pytest.raises(FrameError):
        verify_flat_union(rng.standard_normal((4, 6)))  # not a basis multiple


# ---------------------------------------------------------------- kerdock family


def test_kerdock_set_structure():
    mats = kerdock_set(4)
    assert len(mats) == 8
    for p in mats:
        assert p.shape == (4, 4)
        assert p.dtype == np.uint8
        assert np.array_equal(p, p.T)
        assert np.all(np.diag(p) == 0)
        assert set(np.unique(p)) <= {0, 1}
    validate_kerdock_set(mats, 4)  # should not raise
    # all pairwise differences invertible over GF(2)
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            diff = (mats[a] ^ mats[b]) % 2
            rows = [int("".join(map(str, row[::-1])), 2) for row in diff]
            assert gf2_rank(rows, 4) == 4


def test_validate_kerdock_set_rejects_duplicate():
    mats = kerdock_set(4)
    bad = list(mats)
    bad[1] = bad[0].copy()
    with pytest.raises(FrameError):
        validate_kerdock_set(bad, 4)


def test_gf2_rank_basics():
    assert gf2_rank([1, 2, 4, 8], 4) == 4
    assert gf2_rank([0, 0], 2) == 0
    assert gf2_rank([0b11, 0b11], 2) == 1


def test_kerdock_real_k4():
    p = kerdock_real(4)
    assert p.shape == (16, 128)
    assert verify_flat_union(p).is_flat_union
    assert np.all(p.imag == 0.0)
    # within-basis Gram is the exact identity: entries are signed powers of two
    b = p[:, :16]
    g = (b.conj().T @ b).real
    assert np.abs(g - np.eye(16)).max() == 0.0
    # cross-basis moduli all land on 1/4
    c = np.abs(p[:, :16].conj().T @ p[:, 16:32])
    assert np.abs(c - 0.25).max() < 1e-12


def test_kerdock_domain():
    for bad in (2, 3, 5):
        with pytest.raises(FrameError):
            kerdock_real(bad)


def test_kerdock_set_file_round_trip(tmp_path):
    mats = kerdock_set(4)
    path = tmp_path / "set.txt"
    lines = ["# stored kerdock set", ""]
    for p in mats:
        words = []
        for i in range(4):
            rv = 0
            for j in range(4):
                rv |= int(p[i, j]) << j
            words.append(format(rv, "x"))
        lines.append(" ".join(words))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    back = read_kerdock_set_file(path, 4)
    assert len(back) == len(mats)
    for a, b in zip(mats, back):
        assert np.array_equal(a, b)
    # frame built from the file matches the generated one
    assert np.array_equal(kerdock_real(4, mats=back), kerdock_real(4))


def test_kerdock_set_file_rejects(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 0\n", encoding="utf-8")
    with pytest.raises(FrameError):
        read_kerdock_set_file(path, 4)
    # duplicated matrix: differences become singular
    mats = kerdock_set(4)
    rows = []
    for p in [mats[0]] * 8:
        words = []
        for i in range(4):
            rv = 0
            for j in range(4):
                rv |= int(p[i, j]) << j
            words.append(format(rv, "x"))
        rows.append(" ".join(words))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(FrameError):
        read_kerdock_set_file(path, 4)


# ---------------------------------------------------------------- Table-1 averages


def test_average_column_coherence_table_values():
    assert average_column_coherence(alltop_gabor(7)) == pytest.approx(1.0 / 8.0, abs=1e-6)
    assert average_column_coherence(alltop_gabor(11)) == pytest.approx(1.0 / 12.0, abs=1e-6)
    assert average_column_coherence(discrete_chirp(7)) == pytest.approx(1.0 / 8.0, abs=1e-6)
    assert average_column_coherence(discrete_chirp(11)) == pytest.approx(1.0 / 12.0, abs=1e-6)
    assert average_column_coherence(kerdock_real(4)) == pytest.approx(1.0 / 127.0, abs=1e-6)


# ---------------------------------------------------------------- Kronecker lifts


def test_kron_from_etf_steiner_hadamard():
    frame = kron_from_etf(steiner_pairs_etf(4), H1)
    assert (frame.n, frame.r, frame.m) == (12, 2, 16)
    from blockframe import validate, worst_case_coherence

    assert worst_case_coherence(frame) == pytest.approx(1.0 / 3.0, abs=1e-9)
    rec = validate(frame)
    assert rec.block_orthonormal
    assert rec.equi_isoclinic
    assert frame.m <= etf_max_blocks(frame.n, frame.r)


def test_kron_from_etf_mu_independent_of_factor():
    from blockframe import worst_case_coherence

    p = steiner_pairs_etf(4)
    rng = np.random.default_rng(11)
    qs = [
        H1,
        dft_matrix(2),
        orthonormalize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))),
    ]
    for q in qs:
        assert worst_case_coherence(kron_from_etf(p, q)) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_kron_from_etf_scalar_factor():
    from blockframe import worst_case_coherence

    frame = kron_from_etf(steiner_pairs_etf(4), np.eye(1))
    assert (frame.n, frame.r, frame.m) == (6, 1, 16)
    assert worst_case_coherence(frame) == pytest.approx(welch_coherence_lower(6, 1, 16), abs=1e-9)


def test_kron_from_etf_rejects():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 12))
    g /= np.linalg.norm(g, axis=0, keepdims=True)
    with pytest.raises(FrameError):
        kron_from_etf(g, H1)
    with pytest.raises(FrameError):
        kron_from_etf(steiner_pairs_etf(4), 2.0 * H1)  # factor not unitary


def test_kron_from_flat_union_values():
    from blockframe import validate, worst_case_coherence

    frame = kron_from_flat_union(id_hadamard_union(3), H1)
    assert (frame.n, frame.r, frame.m) == (16, 2, 16)
    assert worst_case_coherence(frame) == pytest.approx(math.sqrt(2.0 / 16.0), abs=1e-9)
    assert validate(frame).union_of_orthobases

    frame7 = kron_from_flat_union(alltop_gabor(7), H1)
    assert worst_case_coherence(frame7) == pytest.approx(7.0 ** -0.5, abs=1e-9)


def test_kron_from_flat_union_rejects():
    rng = np.random.default_rng(6)
    g = rng.standard_normal((4, 8))
    g /= np.linalg.norm(g, axis=0, keepdims=True)
    with pytest.raises(FrameError):
        kron_from_flat_union(g, H1)


def test_kron_average_matches_column_average():
    for p in (alltop_gabor(5), discrete_chirp(5), id_hadamard_union(2)):
        frame = kron_from_flat_union(p, H1)
        assert average_coherence(frame) == pytest.approx(
            average_column_coherence(p), abs=1e-10
        )


# ---------------------------------------------------------------- recipes


def test_build_frame_steiner_recipe():
    from blockframe import validate, worst_case_coherence

    frame = build_frame(FrameRecipe("steiner", {"v": 4}, ("hadamard", 1)))
    assert (frame.n, frame.r, frame.m) == (12, 2, 16)
    assert frame.field_tag == "complex"
    assert frame.data.dtype == np.complex128
    assert worst_case_coherence(frame) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert validate(frame).equi_isoclinic


def test_build_frame_dft2_keeps_real_tag():
    frame = build_frame(FrameRecipe("id-hadamard", {"k": 2}, ("dft", 2)))
    assert frame.field_tag == "real"
    assert frame.data.dtype == np.float64


@pytest.mark.parametrize(
    "recipe, dtype",
    [
        (FrameRecipe("kerdock", {"k": 4}, ("hadamard", 1)), np.float64),
        (FrameRecipe("id-hadamard", {"k": 3}, ("none",)), np.float64),
        (FrameRecipe("id-hadamard", {"k": 3}, ("hadamard", 1)), np.float64),
        (FrameRecipe("alltop", {"p": 5}, ("dft", 3)), np.complex128),
        (FrameRecipe("id-hadamard", {"k": 2}, ("dft", 3)), np.complex128),
    ],
)
def test_build_frame_dtype_is_the_field(recipe, dtype):
    frame = build_frame(recipe)
    assert frame.data.dtype == dtype
    assert frame.field_tag == ("real" if dtype == np.float64 else "complex")


def test_build_frame_no_lift():
    frame = build_frame(FrameRecipe("id-hadamard", {"k": 2}, ("none",)))
    assert (frame.n, frame.r, frame.m) == (4, 1, 8)


def test_build_frame_factor_from_file(tmp_path):
    qpath = str(tmp_path / "q.bfm")
    qframe = BlockFrame(n=2, r=1, m=2, data=H1.astype(np.complex128), field_tag="real")
    write_bfm(qpath, qframe)
    a = build_frame(FrameRecipe("steiner", {"v": 4}, ("file", qpath)))
    b = build_frame(FrameRecipe("steiner", {"v": 4}, ("hadamard", 1)))
    assert np.array_equal(a.data, b.data)


def test_build_frame_external_family(tmp_path):
    from blockframe import validate

    epath = str(tmp_path / "p.bfm")
    p = steiner_pairs_etf(4)
    write_bfm(epath, BlockFrame(n=6, r=1, m=16, data=p, field_tag="complex"))
    frame = build_frame(FrameRecipe("external", {"path": epath}, ("hadamard", 1)))
    assert validate(frame).equi_isoclinic

    upath = str(tmp_path / "u.bfm")
    u = id_hadamard_union(2)
    write_bfm(upath, BlockFrame(n=4, r=1, m=8, data=u.astype(np.complex128), field_tag="real"))
    uframe = build_frame(FrameRecipe("external", {"path": upath}, ("hadamard", 1)))
    assert validate(uframe).union_of_orthobases


def test_build_frame_errors(tmp_path):
    with pytest.raises(FrameError):
        FrameRecipe("mystery", {"v": 4})
    with pytest.raises(FrameError):
        build_frame(FrameRecipe("steiner", {"v": 4}, ("fourier", 2)))
    # square external matrix cannot become an r=1 frame
    qpath = str(tmp_path / "sq.bfm")
    write_bfm(qpath, BlockFrame(n=2, r=1, m=2, data=H1.astype(np.complex128), field_tag="real"))
    with pytest.raises(FrameError):
        build_frame(FrameRecipe("external", {"path": qpath}, ("none",)))


def test_default_kron_factor():
    q4 = default_kron_factor(4)
    assert np.all(q4.imag == 0.0)
    assert np.abs(np.abs(q4) - 0.5).max() < 1e-15
    assert np.abs(q4.conj().T @ q4 - np.eye(4)).max() < 1e-12
    assert np.array_equal(default_kron_factor(3), dft_matrix(3))
    assert np.array_equal(default_kron_factor(1), np.eye(1, dtype=np.complex128))
    with pytest.raises(FrameError):
        default_kron_factor(0)
