"""Deterministic frame catalog and the two Kronecker lifts."""

import collections
import math
import tracemalloc

import numpy as np
import pytest

from blockframe import (
    FrameError,
    alltop_gabor,
    average_coherence,
    average_column_coherence,
    discrete_chirp,
    hadamard_sylvester,
    harmonic_qr_etf,
    id_hadamard_union,
    kerdock_real,
    kron_from_etf,
    kron_from_flat_union,
    steiner_pairs_etf,
    welch_coherence_lower,
)
from blockframe import constructions, matrixcore
from blockframe.bounds import etf_max_blocks
from blockframe.constructions import (
    build_frame,
    is_prime,
    kerdock_set,
    read_kerdock_set_file,
    validate_kerdock_set,
    verify_etf,
    verify_flat_union,
)
from blockframe.io import write_bfm
from blockframe.matrixcore import dft_matrix, orthonormalize
from blockframe.frame import BlockFrame

H1 = hadamard_sylvester(1) / math.sqrt(2.0)


@pytest.mark.parametrize(
    "builder, value",
    [
        (steiner_pairs_etf, 3.5),
        (harmonic_qr_etf, 7.0),
        (kerdock_real, 4.0),
        (id_hadamard_union, 1.5),
        (hadamard_sylvester, 2.5),
        (alltop_gabor, 5.0),
        (discrete_chirp, 5.0),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_every_builder_refuses_a_non_integer_count(builder, value):
    # whole-valued floats included: the count rule takes integers only
    with pytest.raises(FrameError, match="must be an integer"):
        builder(value)


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


# ---------------------------------------------------------------- ETF catalog


def test_steiner_pairs_etf_v4():
    p = steiner_pairs_etf(4)
    assert p.shape == (6, 16)
    rep = verify_etf(p)
    assert rep.ok
    assert rep.cross_max == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert rep.cross_max == pytest.approx(welch_coherence_lower(6, 1, 16), abs=1e-10)
    norms = np.linalg.norm(p, axis=0)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_steiner_pairs_etf_v5():
    p = steiner_pairs_etf(5)
    assert p.shape == (10, 25)
    rep = verify_etf(p)
    assert rep.ok
    assert rep.cross_max == pytest.approx(0.25, abs=1e-10)


def test_steiner_domain():
    with pytest.raises(FrameError):
        steiner_pairs_etf(2)


def test_harmonic_qr_etf():
    p7 = harmonic_qr_etf(7)
    assert p7.shape == (3, 7)
    rep = verify_etf(p7)
    assert rep.ok
    assert rep.cross_max == pytest.approx(math.sqrt(4.0 / 18.0), abs=1e-10)
    assert rep.tight_dev < 1e-9

    p11 = harmonic_qr_etf(11)
    assert p11.shape == (5, 11)
    assert verify_etf(p11).ok


def test_harmonic_domain():
    for bad in (5, 15, 2, 4):  # wrong residue class, composite, too small
        with pytest.raises(FrameError):
            harmonic_qr_etf(bad)


def test_verify_etf_rejects():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 12))
    g /= np.linalg.norm(g, axis=0, keepdims=True)
    assert not verify_etf(g).ok
    # a lone orthonormal basis is not overcomplete
    with pytest.raises(FrameError):
        verify_etf(dft_matrix(5))
    with pytest.raises(FrameError, match="overcomplete"):
        verify_etf(np.zeros((0, 3)))  # no rows


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
    assert verify_flat_union(p).ok


def test_alltop_gabor_p7_flat():
    assert verify_flat_union(alltop_gabor(7)).ok


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
    assert verify_flat_union(p).ok


def test_discrete_chirp_domain():
    for bad in (2, 9, 1):
        with pytest.raises(FrameError):
            discrete_chirp(bad)


def _per_column_windows(p, window_phase):
    """Reference loop: column a*p + b is window a times tone b, over sqrt(p)."""
    t = np.arange(p)
    cols = np.empty((p, p * p), dtype=np.complex128)
    for a in range(p):
        window = np.exp(2j * np.pi * window_phase(a, t) / p)
        for b in range(p):
            cols[:, a * p + b] = window * np.exp(2j * np.pi * b * t / p)
    cols /= np.sqrt(p)
    return cols


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31])
def test_modulated_windows_match_the_per_column_formula_bitwise(p):
    alltop = _per_column_windows(p, lambda a, t: ((t + a) ** 3 - a**3) % p)
    chirp = _per_column_windows(p, lambda a, t: a * t * t % p)
    assert alltop_gabor(p).tobytes() == alltop.tobytes()
    assert discrete_chirp(p).tobytes() == chirp.tobytes()


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
        assert verify_flat_union(id_hadamard_union(k)).ok
    with pytest.raises(FrameError):
        id_hadamard_union(0)


def test_verify_flat_union_rejects():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((4, 8))
    g /= np.linalg.norm(g, axis=0, keepdims=True)
    assert not verify_flat_union(g).ok
    with pytest.raises(FrameError):
        verify_flat_union(rng.standard_normal((4, 6)))  # not a basis multiple
    with pytest.raises(FrameError, match="multiple of at least two bases"):
        verify_flat_union(np.zeros((0, 3)))  # no rows


def test_verify_flat_union_rejects_bases_that_fail_only_the_cross_moduli():
    p = kerdock_real(4)
    q = np.linalg.qr(np.random.default_rng(5).standard_normal((16, 16)))[0]
    rotated = p.copy()
    rotated[:, -16:] = p[:, -16:] @ q  # the same span, another orthobasis
    repeated = p.copy()
    repeated[:, -16:] = p[:, :16]
    for bad in (rotated, repeated):
        rep = verify_flat_union(bad)
        assert rep.group_dev < 1e-10 and rep.tight_dev < 1e-10
        assert not rep.ok
        assert max(rep.cross_max - 0.25, 0.25 - rep.cross_min) > 1e-3


def test_verify_etf_peaks_below_half_the_size_of_p():
    # P is never conjugated whole, and P P* is taken a tile of columns at a time
    p = harmonic_qr_etf(1019)
    tracemalloc.start()
    try:
        assert verify_etf(p).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * p.nbytes


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


def test_validate_kerdock_set_rejects_duplicate():
    mats = kerdock_set(4)
    bad = list(mats)
    bad[1] = bad[0].copy()
    with pytest.raises(FrameError):
        kerdock_real(4, bad)


def test_kerdock_set_diagonal_bits_do_not_change_the_frame():
    # kerdock_real reads only the off-diagonal bits of each matrix, so a set
    # whose differences are singular over GF(2) on the diagonal alone still
    # spans kerdock_real(4), and the flat-union check of that frame passes it
    mats = [p.copy() for p in kerdock_set(4)]
    mats[5][0, 0] = mats[6][1, 1] = 1
    assert np.array_equal(kerdock_real(4, mats), kerdock_real(4))


@pytest.mark.parametrize("k", [4.0, 2.5, float("nan")])
def test_kerdock_set_refuses_a_non_integer_k(k):
    with pytest.raises(FrameError, match="k must be an integer"):
        kerdock_set(k)


def test_validate_kerdock_set_refuses_a_non_binary_entry():
    mats = [p.copy() for p in kerdock_set(4)]
    mats[2][0, 1] = mats[2][1, 0] = 3
    with pytest.raises(FrameError, match="symmetric k x k binary"):
        kerdock_real(4, mats)


def test_kerdock_real_k4():
    p = kerdock_real(4)
    assert p.shape == (16, 128)
    assert verify_flat_union(p).ok
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


def _write_set_file(path, mats):
    """One line per matrix: row i as the hex word whose bit j is entry (i, j)."""
    lines = ["# stored kerdock set", ""]
    for p in mats:
        words = [format(sum(int(v) << j for j, v in enumerate(row)), "x") for row in p]
        lines.append(" ".join(words))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_kerdock_set_file_round_trip(tmp_path):
    mats = kerdock_set(4)
    path = _write_set_file(tmp_path / "set.txt", mats)

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
    # duplicated matrix: two bases coincide.  The file is only parsed; the
    # flat-union check of the frame kerdock_real builds refuses the set.
    _write_set_file(path, [kerdock_set(4)[0]] * 8)
    assert len(read_kerdock_set_file(path, 4)) == 8
    with pytest.raises(FrameError, match="failed flat union verification"):
        build_frame("kerdock", 4, ("hadamard", 1), set_file=str(path))


@pytest.mark.parametrize("word", ["0x8", "+8", "-1", "18", "\u0668", "1_0"])
def test_kerdock_set_file_reads_plain_hex_words_below_2_to_the_k(tmp_path, word):
    # int(w, 16) takes each of these: at k = 4, 0x8, +8, 18 and the
    # Arabic-Indic eight would be row 8, -1 all ones and 1_0 a zero row
    path = tmp_path / "set.txt"
    path.write_text(f"{word} 4 2 1\n", encoding="utf-8")
    with pytest.raises(FrameError, match="hex words below 2\\^4"):
        read_kerdock_set_file(path, 4)


# ---------------------------------------------------------------- size guard


@pytest.mark.parametrize(
    "build, arg, entries",
    [
        (steiner_pairs_etf, 4, 6 * 16),
        (harmonic_qr_etf, 7, 3 * 7),
        (alltop_gabor, 5, 5 * 25),
        (discrete_chirp, 5, 5 * 25),
        (id_hadamard_union, 2, 4 * 8),
        (kerdock_real, 4, 16 * 128),
    ],
)
def test_builders_check_the_entry_count_first(monkeypatch, build, arg, entries):
    monkeypatch.setattr(matrixcore, "_MAX_ENTRIES", entries)
    assert build(arg).size == entries

    def no_work(*args):
        raise AssertionError("work done before the size check")

    monkeypatch.setattr(matrixcore, "_MAX_ENTRIES", entries - 1)
    monkeypatch.setattr(constructions, "is_prime", no_work)
    monkeypatch.setattr(constructions, "kerdock_set", no_work)
    with pytest.raises(FrameError, match="size guard"):
        build(arg)


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
    assert validate(frame).equi_isoclinic
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
    with pytest.raises(FrameError, match="square and nonempty"):
        kron_from_etf(steiner_pairs_etf(4), np.zeros((0, 0)))


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

    frame = build_frame("steiner", 4, ("hadamard", 1))
    assert (frame.n, frame.r, frame.m) == (12, 2, 16)
    assert frame.field_tag == "complex"
    assert frame.data.dtype == np.complex128
    assert worst_case_coherence(frame) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert validate(frame).equi_isoclinic


def test_build_frame_dft2_keeps_real_tag():
    frame = build_frame("id-hadamard", 2, ("dft", 2))
    assert frame.field_tag == "real"
    assert frame.data.dtype == np.float64


@pytest.mark.parametrize(
    "recipe, dtype",
    [
        (("kerdock", 4, ("hadamard", 1)), np.float64),
        (("id-hadamard", 3, ("none",)), np.float64),
        (("id-hadamard", 3, ("hadamard", 1)), np.float64),
        (("alltop", 5, ("dft", 3)), np.complex128),
        (("id-hadamard", 2, ("dft", 3)), np.complex128),
    ],
)
def test_build_frame_dtype_is_the_field(recipe, dtype):
    frame = build_frame(*recipe)
    assert frame.data.dtype == dtype
    assert frame.field_tag == ("real" if dtype == np.float64 else "complex")


def test_build_frame_no_lift():
    frame = build_frame("id-hadamard", 2)
    assert (frame.n, frame.r, frame.m) == (4, 1, 8)


def test_build_frame_factor_from_file(tmp_path):
    qpath = str(tmp_path / "q.bfm")
    qframe = BlockFrame(n=2, r=1, m=2, data=H1.astype(np.complex128), field_tag="real")
    write_bfm(qpath, qframe)
    a = build_frame("steiner", 4, ("file", qpath))
    b = build_frame("steiner", 4, ("hadamard", 1))
    assert np.array_equal(a.data, b.data)


def test_build_frame_external_family(tmp_path):
    from blockframe import validate

    epath = str(tmp_path / "p.bfm")
    p = steiner_pairs_etf(4)
    write_bfm(epath, BlockFrame(n=6, r=1, m=16, data=p, field_tag="complex"))
    frame = build_frame("external", epath, ("hadamard", 1))
    assert validate(frame).equi_isoclinic

    upath = str(tmp_path / "u.bfm")
    u = id_hadamard_union(2)
    write_bfm(upath, BlockFrame(n=4, r=1, m=8, data=u.astype(np.complex128), field_tag="real"))
    uframe = build_frame("external", upath, ("hadamard", 1))
    assert validate(uframe).union_of_orthobases


@pytest.fixture
def verify_calls(monkeypatch):
    """Counts of each verifier's calls, by name, from the moment it is used."""
    calls = collections.Counter()
    for name in ("verify_etf", "verify_flat_union", "validate_kerdock_set"):

        def counted(*args, _real=getattr(constructions, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(constructions, name, counted)
    return calls


_ETF = {"verify_etf": 1}
_FLAT = {"verify_flat_union": 1}
_KERDOCK = {"verify_flat_union": 1, "validate_kerdock_set": 1}


@pytest.mark.parametrize("kron", [("none",), ("hadamard", 1)], ids=["no-lift", "lift"])
@pytest.mark.parametrize(
    "family, value, optional, calls",
    [
        ("steiner", 4, {}, _ETF),
        ("harmonic", 7, {}, _ETF),
        ("alltop", 5, {}, _FLAT),
        ("chirp", 5, {}, _FLAT),
        ("id-hadamard", 2, {}, _FLAT),
        ("kerdock", 4, {}, _FLAT),
        ("kerdock", 4, {"set_file": "set.txt"}, _KERDOCK),
        ("external", "etf.bfm", {}, _ETF),
        ("external", "flat.bfm", {}, _FLAT),
    ],
    ids=[
        "steiner",
        "harmonic",
        "alltop",
        "chirp",
        "id-hadamard",
        "kerdock",
        "kerdock-set-file",
        "external-etf",
        "external-flat",
    ],
)
def test_build_frame_verifies_each_factor_once(
    tmp_path, verify_calls, family, value, optional, calls, kron
):
    _write_set_file(tmp_path / "set.txt", kerdock_set(4))
    write_bfm(tmp_path / "etf.bfm", BlockFrame(n=6, r=1, m=16, data=steiner_pairs_etf(4)))
    write_bfm(tmp_path / "flat.bfm", BlockFrame(n=4, r=1, m=8, data=id_hadamard_union(2)))
    if family == "external":
        value = str(tmp_path / value)
    optional = {key: str(tmp_path / name) for key, name in optional.items()}
    verify_calls.clear()
    build_frame(family, value, kron, **optional)
    assert verify_calls == calls


@pytest.mark.parametrize(
    "lift, build, kind",
    [
        (kron_from_etf, steiner_pairs_etf, "verify_etf"),
        (kron_from_flat_union, id_hadamard_union, "verify_flat_union"),
    ],
)
def test_kron_from_verifies_a_supplied_factor_once(verify_calls, lift, build, kind):
    p = build(3)
    verify_calls.clear()
    lift(p, H1)
    assert verify_calls == {kind: 1}


def test_build_frame_errors(tmp_path):
    with pytest.raises(FrameError, match="unknown family 'mystery'"):
        build_frame("mystery", 4)
    with pytest.raises(FrameError):
        build_frame("steiner", 4, ("fourier", 2))
    # square external matrix cannot become an r=1 frame
    qpath = str(tmp_path / "sq.bfm")
    write_bfm(qpath, BlockFrame(n=2, r=1, m=2, data=H1.astype(np.complex128), field_tag="real"))
    with pytest.raises(FrameError):
        build_frame("external", qpath, ("none",))

