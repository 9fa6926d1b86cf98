"""BlockFrame container, coherence measures, distances, validation.

Coherence oracles here are deliberately naive: explicit Python loops over
block pairs with per-pair numpy SVDs, no shared code with the vectorized
implementation paths.
"""

import hashlib
import tracemalloc

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
from blockframe.blockcs import SignalSpec, run_flipping_table, run_ndp_experiment
from blockframe.bounds import (
    max_equi_isoclinic,
    max_orthobases_blocks,
    rankin_chordal_upper,
    spectral_distance_upper,
)
from blockframe.constructions import build_frame, harmonic_qr_etf, kron_from_etf
from blockframe.flipping import apply_block_signs, flipped_nu_bound
from blockframe.io import read_bfm
from blockframe.matrixcore import gram_singular_values, orthonormalize
from blockframe.sampling import (
    RandomFrameSpec,
    default_block_count,
    empirical_mu_curve,
    parallel_map,
    sample_block_frame,
    sample_subspace,
    substream_rng,
)


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


@pytest.mark.parametrize("scale", [0.0, 1 - 1e-7, 1 + 1e-7, 2.0])
def test_average_column_coherence_needs_unit_columns(scale):
    p = np.eye(3)[:, :2].copy()
    p[:, 1] *= scale
    with pytest.raises(FrameError, match="unit norm"):
        average_column_coherence(p)
    # within the tolerance BlockFrame holds blocks to, a column passes
    p[:, 1] = np.eye(3)[:, 1] * (1 + 4e-9)
    assert average_column_coherence(p) == 0.0


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
    r = draw(st.sampled_from([1, 2, 3, 4, 5, 10]))
    m = draw(st.integers(2, 24))
    n = draw(st.integers(r + 1, min(m * r, r + 12)))
    cplx = draw(st.booleans())
    chunk = draw(st.sampled_from([1, r * r * 3 + 1, 700, 1 << 16]))
    return random_frame(n, r, m, draw(st.integers(0, 2**32 - 1)), cplx), chunk


def test_a_complex_chunk_caps_its_conjugated_row_block(monkeypatch):
    # A_I* of complex data is a copy of n*r*|I| entries, capped as the
    # product is; a real frame's is a view, and its chunks run longer
    monkeypatch.setattr(frame_module, "_CHUNK_ENTRIES", 400)
    rows = {}
    for cplx in (False, True):
        frame = random_frame(30, 2, 40, 3, complex_blocks=cplx)
        rows[cplx] = [len(g) for _, g, _ in frame_module._pair_chunks(frame.data, 2)]
    assert max(rows[True]) == 400 // (30 * 2)
    assert max(rows[False]) > max(rows[True])


def _off_diagonal_max(g):
    return g[~np.eye(g.shape[0], dtype=bool)].max()


@settings(max_examples=60, deadline=None)
@given(sweep_cases(), st.integers(0, 2**32 - 1))
def test_pair_sweep_properties(case, sign_seed):
    frame, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frame_module, "_CHUNK_ENTRIES", chunk)
        chunks = [(i0, keep) for i0, _, keep in frame_module._pair_chunks(frame.data, frame.r)]
        mu = worst_case_coherence(frame)
        g = gram_map(frame)
        signs = np.random.default_rng(sign_seed).choice([-1, 1], size=frame.m)
        flipped = apply_block_signs(frame, signs)
        mu_flipped = worst_case_coherence(flipped)
        g_flipped = gram_map(flipped)

    # every unordered pair exactly once
    pairs = [(i0 + a, i0 + b) for i0, keep in chunks for a, b in zip(*np.nonzero(keep))]
    assert sorted(pairs) == list(zip(*np.triu_indices(frame.m, 1)))
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


def _certificate_stacks(r):
    """(p, r, r) stacks of equi-isoclinic, rank-1 and Gaussian cross-Gram-like matrices."""
    rng = np.random.default_rng(1000 + r)
    q = np.linalg.qr(rng.standard_normal((8, r, r)))[0]
    isoclinic = rng.uniform(0.1, 1.0, size=(8, 1, 1)) * q
    rank1 = rng.standard_normal((8, r, 1)) * rng.standard_normal((8, 1, r)) / r
    gauss = rng.standard_normal((8, r, r)) / np.sqrt(r)
    return {"isoclinic": isoclinic, "rank-1": rank1, "gaussian": gauss}


def _as_chunk(c):
    """A (p, r, r) stack laid out as a (1, r, p, r) chunk of the pair sweep."""
    return np.ascontiguousarray(c.transpose(1, 0, 2))[None]


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("cplx", [False, True])
def test_frobenius_certificate_bounds_sigma_max(r, cplx):
    rng = np.random.default_rng(2000 + r)
    stacks = _certificate_stacks(r)
    if cplx:
        # rank one with complex factors: ||C||_F = sigma_max exactly
        u = rng.standard_normal((400, r, 1)) + 1j * rng.standard_normal((400, r, 1))
        v = rng.standard_normal((400, 1, r)) + 1j * rng.standard_normal((400, 1, r))
        stacks = {"rank-1": u * v / (2 * r), "gaussian": stacks["gaussian"] * (1 + 1j) / 2}
    else:
        u, v = rng.standard_normal((400, r, 1)), rng.standard_normal((400, 1, r))
        stacks["rank-1"] = np.concatenate([stacks["rank-1"], u * v / r])
    slack = frame_module._PRUNE_SLACK
    for kind, c in stacks.items():
        chunk = _as_chunk(c)
        frob = np.sqrt(frame_module._frobenius_squares(chunk)[0])
        smax = frame_module._singular_values(chunk, np.zeros(len(c), int), np.arange(len(c)))[:, -1]
        assert np.all(frob >= smax * (1.0 - slack)), kind
        assert np.all(frob >= np.linalg.svd(c, compute_uv=False)[:, 0] * (1.0 - slack)), kind
        if kind == "rank-1" or r == 1:
            # equal in exact arithmetic: only rounding, well inside the slack, separates them
            assert np.all(np.abs(frob - smax) <= 1e-14 * smax), kind


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cplx", [False, True])
def test_singular_values_of_a_chunk_against_svd(r, cplx):
    # a chunk of a random frame's sweep: its cross-Grams have sigma <= 1
    frame = random_frame(r + 7, r, 30, 70 + r, complex_blocks=cplx)
    _, g, keep = next(frame_module._pair_chunks(frame.data, r))
    a, b = np.nonzero(keep)
    sv = frame_module._singular_values(g, a, b)
    svd = np.linalg.svd(g[a, :, b, :], compute_uv=False)
    assert len(sv) == len(a) > 0
    assert np.abs(sv[:, -1] - svd[:, 0]).max() <= 1e-12
    assert np.abs(sv[:, 0] - svd[:, -1]).max() <= 1e-10
    if r >= 4:
        # the caller's H, when it passes one, is the H formed inside
        h = frame_module._gram_stack(g)
        assert frame_module._singular_values(g, a, b, h).tobytes() == sv.tobytes()


def test_the_sweep_solves_only_through_singular_values(monkeypatch):
    # mu, the map and validate reach the gather, the closed forms and
    # eigvalsh only through the one solver
    solver = frame_module._singular_values
    inside, calls = [], {}

    def entered(*args):
        inside.append(True)
        try:
            return solver(*args)
        finally:
            inside.pop()

    def counted(name, fn):
        def count(*args):
            assert inside, f"{name} called outside _singular_values"
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        return count

    monkeypatch.setattr(frame_module, "_singular_values", entered)
    names = ("_gather", "singular_values_2x2", "singular_values_3x3", "gram_singular_values")
    for name in names:
        monkeypatch.setattr(frame_module, name, counted(name, getattr(frame_module, name)))
    for r in (1, 2, 3, 4):
        frame = random_frame(r + 6, r, 12, 90 + r)
        for measure in (worst_case_coherence, gram_map, validate):
            measure(frame)
    assert set(calls) == set(names)


@pytest.mark.parametrize("r", [4, 10, 90])
def test_second_certificate_bounds_sigma_max(r):
    slack = frame_module._PRUNE_SLACK
    for kind, c in _certificate_stacks(r).items():
        smax = np.linalg.svd(c, compute_uv=False)[:, 0]
        g, power = np.matmul(c.conj().swapaxes(1, 2), c), 1
        previous = frame_module._power_sums(g) ** (1 / 4)
        while power < frame_module._MAX_POWER:
            g, power = np.matmul(g, g), 2 * power
            u = frame_module._power_sums(g)
            # what the pruning rule relies on, with the slack it allows
            assert np.all(u >= (smax * (1.0 - slack)) ** (4 * power)), (kind, power)
            # the rooted bound tightens with q, up to the slack
            bound = u ** (1 / (4 * power))
            assert np.all(bound <= previous * (1.0 + slack)), (kind, power)
            previous = bound


def test_squared_certificate_underflow_is_never_held_against_best():
    # sigma ~ 1e-3: sigma^128 underflows, so ||H^32||_F^2 reads 0 below sigma_max^128
    slack = frame_module._PRUNE_SLACK
    c = 1e-3 * _certificate_stacks(4)["gaussian"]
    smax = np.linalg.svd(c, compute_uv=False)[:, 0]
    g, power = np.matmul(c.swapaxes(1, 2), c), 1
    held = []
    while power < frame_module._MAX_POWER:
        g, power = np.matmul(g, g), 2 * power
        u = frame_module._power_sums(g)
        if frame_module._floor(smax.min(), 4 * power):
            held.append(power)
            assert np.all(u >= (smax * (1.0 - slack)) ** (4 * power)), power
    assert held and held[-1] < frame_module._MAX_POWER
    assert np.all(u ** (1 / 128) < smax)  # the bound the zero floor keeps out of the sweep


def test_squaring_stops_before_the_certificate_underflows():
    # s = 1e-3: pair 0 (s Q, isoclinic) has the largest ||H||_F^2 and is solved
    # first; fillers t_p Q drop out at p = 2, 4, 8, 16 and keep the squaring
    # going; the rank-one pair of sigma 1.05 s holds the maximum, and its
    # ||H^32||_F^2 = (1.05 s)^128 would underflow to 0
    r, s = 4, 1e-3
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((6, r, r)))[0]
    fillers = [s * 4.0 ** (-3 / (8 * p)) * q[k] for k, p in enumerate((2, 4, 8, 16), 1)]
    u, v = q[5][:, :1], q[5][:1, :]
    c = np.stack([s * q[0], *fillers, 1.05 * s * u @ v / np.linalg.norm(v)])
    exhaustive = float(gram_singular_values(np.matmul(c.swapaxes(1, 2), c))[:, -1].max())
    assert exhaustive == pytest.approx(1.05 * s, rel=1e-12)
    keep = np.ones((1, len(c)), dtype=bool)
    assert frame_module._chunk_max(_as_chunk(c), keep, 0.0) == exhaustive


def _orthogonal_first_block_frame(r, seed):
    """Block 0 = [e_1 .. e_r], every other block random in span(e_{r+1} .. e_{3r})."""
    rng = np.random.default_rng(seed)
    first = np.zeros((3 * r, r))
    first[:r] = np.eye(r)
    others = np.zeros((7, 3 * r, r))
    others[:, r:] = orthonormalize(rng.standard_normal((7, 2 * r, r)))
    return BlockFrame.from_blocks([first, *others], field_tag="real")


@pytest.mark.parametrize("chunk", [1, 200, 1 << 16])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_first_block_orthogonal_to_every_other_block(monkeypatch, r, chunk):
    # block 0's cross-Grams are exactly 0, so a chunk may open with best = 0:
    # only pairs j > i may then pass the certificate, never a block with itself
    frame = _orthogonal_first_block_frame(r, 40 + r)
    monkeypatch.setattr(frame_module, "_CHUNK_ENTRIES", chunk)
    mu = worst_case_coherence(frame)
    g = gram_map(frame)
    assert np.all(g[0, 1:] == 0.0)
    assert 0.0 < mu < 1.0
    assert mu == _off_diagonal_max(g)


def _kerdock4():
    return build_frame("kerdock", 4, ("hadamard", 1))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 10, 90])
def test_twice_pruned_mu_equals_the_exhaustive_maximum(r):
    etf = harmonic_qr_etf(7)  # 3 x 7: cross-Grams of its Kronecker blocks are c I_r
    frames = [
        kron_from_etf(etf, np.eye(r)),
        random_frame(r + 6, r, 12, r),
        random_frame(r + 6, r, 12, r + 1, complex_blocks=True),
    ]
    if r == 2:
        frames.append(_kerdock4())  # every cross-basis pair ties at 1/4
    for frame in frames:
        assert worst_case_coherence(frame) == _off_diagonal_max(gram_map(frame))


def _solved_rows(monkeypatch, frame):
    """mu of frame, and the rows it hands to the closed forms and to eigvalsh."""
    rows = []

    def counting(solve):
        def solve_and_count(stack):
            rows.append(len(stack))
            return solve(stack)

        return solve_and_count

    with monkeypatch.context() as mp:
        for name in ("gram_singular_values", "singular_values_2x2", "singular_values_3x3"):
            mp.setattr(frame_module, name, counting(getattr(frame_module, name)))
        mu = worst_case_coherence(frame)
    return mu, sum(rows)


def test_squaring_decides_at_r30(monkeypatch):
    # (200, 30, 44): ||H||_F^2 and ||H^2||_F^2 leave almost every pair;
    # squaring on to H^32 leaves few
    frame = random_frame(200, 30, 44, 0)
    pairs = frame.m * (frame.m - 1) // 2
    mu, rows = _solved_rows(monkeypatch, frame)
    assert mu == _off_diagonal_max(gram_map(frame))
    assert rows < 0.05 * pairs
    monkeypatch.setattr(frame_module, "_MAX_POWER", 2)
    mu2, rows2 = _solved_rows(monkeypatch, frame)
    assert mu2 == mu
    assert rows2 > 0.9 * pairs


@pytest.mark.parametrize("chunk", [1, 200, 1 << 16])
def test_no_pair_is_eigen_solved_twice(monkeypatch, chunk):
    # every cross-Gram of a Kronecker frame ETF x I_r is c I_r with one c, and
    # every cross-basis pair of kerdock(4) x H_1 has sigma = 1/4, so the
    # certificates prune none of those and each chunk solves all of them,
    # its first-solved pair included, once
    monkeypatch.setattr(frame_module, "_CHUNK_ENTRIES", chunk)
    etf = harmonic_qr_etf(7)
    for frame in [kron_from_etf(etf, np.eye(r)) for r in (2, 3, 4)] + [_kerdock4()]:
        mu, rows = _solved_rows(monkeypatch, frame)
        assert rows <= frame.m * (frame.m - 1) // 2
        assert mu == _off_diagonal_max(gram_map(frame))


def test_frobenius_certificate_prunes_random_frames(monkeypatch):
    frame = random_frame(128, 2, 256, 0)
    mu, rows = _solved_rows(monkeypatch, frame)
    assert rows < 0.01 * frame.m * (frame.m - 1) // 2
    assert mu == _off_diagonal_max(gram_map(frame))


def test_r10_mu_gathers_no_pair_and_squares_few(monkeypatch):
    # H is formed on each chunk's own view, and ||H||_F drops most pairs
    # before any is copied out or squared: over the benchmark's three
    # (200, 10, 200) frames, 1.6% to 5.3% of the pairs of a frame are squared
    frames = [sample_block_frame(_benchmark_spec(200, 10, 200), trial=t) for t in range(3)]
    gather, square = frame_module._gather, frame_module._square_and_prune
    gathered, squared = [], []

    def counting_gather(g, a, b):
        gathered.append(len(a))
        return gather(g, a, b)

    def counting_square(h, u, p, best):
        squared.append(len(p) if best > 0 else 0)  # best = 0 squares nothing
        return square(h, u, p, best)

    with monkeypatch.context() as mp:
        mp.setattr(frame_module, "_gather", counting_gather)
        mp.setattr(frame_module, "_square_and_prune", counting_square)
        mus = [worst_case_coherence(frame) for frame in frames]
    assert gathered == []
    assert 0 < sum(squared) < 0.05 * 3 * 200 * 199 // 2
    assert mus == [_off_diagonal_max(gram_map(frame)) for frame in frames]


def _benchmark_spec(n, r, m):
    return RandomFrameSpec(n, r, m, seed=1, field_tag="real")


# worst_case_coherence(...).hex() of the benchmark's random frames (seed 1,
# trials 0-2), pinned from the separate closed-form and eigen paths that the
# one skeleton replaced
PINNED_MU = {
    (200, 10, 200): ["0x1.13c372947918fp-1", "0x1.20f419bb1e016p-1", "0x1.2871f1945e5c5p-1"],
    (128, 1, 256): ["0x1.5f5c5c55e6be3p-2", "0x1.6fb3997a2791dp-2", "0x1.607b005460b3bp-2"],
    (128, 2, 256): ["0x1.a629898ec475ep-2", "0x1.b402cfcf0a186p-2", "0x1.980a627cf1627p-2"],
    (128, 3, 256): ["0x1.df5d6c347730dp-2", "0x1.e4228d5c12e82p-2", "0x1.dce9e60882f1fp-2"],
}


# sha256 of validate(...).gram's bytes and cross_singular_spread.hex() of
# random frames (seed 1, trial 0) at r >= 4, where the sweep solves the H
# that _gram_stack forms on the chunk's own view
PINNED_VALIDATE = {
    (40, 4, 60, "real"): (
        "1424f6d44e945e664cafc6d50ac7ef8cb86fbcf88f59691ae10a65993fd67609",
        "0x1.74cd15801bd00p-1",
    ),
    (60, 10, 30, "real"): (
        "acb9e8126421c5dac23825d2cdfd4bc2cddf0a8942f8f50c350fac57fa46b225",
        "0x1.ad99b96efcf67p-1",
    ),
    (30, 4, 40, "complex"): (
        "f3a26f586002969a59644620650451aeddafa693b8259871735253850649f4ae",
        "0x1.92112eb7cedcep-1",
    ),
    (60, 10, 30, "complex"): (
        "2e0ac672ea49c2c980414c66f37f0eeefb8a9e04b09ca1c462ff78313d4386bc",
        "0x1.8c212cb6c5a0bp-1",
    ),
}


@pytest.mark.parametrize("case", list(PINNED_VALIDATE), ids=str)
def test_validate_map_and_spread_are_pinned(case):
    n, r, m, field_tag = case
    rec = validate(sample_block_frame(RandomFrameSpec(n, r, m, 1, field_tag), trial=0))
    digest = hashlib.sha256(rec.gram.tobytes()).hexdigest()
    assert (digest, rec.cross_singular_spread.hex()) == PINNED_VALIDATE[case]


@pytest.mark.parametrize("shape", list(PINNED_MU))
def test_mu_of_the_benchmark_frames_is_pinned(shape):
    spec = _benchmark_spec(*shape)
    got = [worst_case_coherence(sample_block_frame(spec, trial=t)).hex() for t in range(3)]
    assert got == PINNED_MU[shape]


# --- the sweep's workspace ----------------------------------------------------


def _warm_peak(fn, frame):
    """The most bytes that a second, warm call of fn holds allocated at once."""
    fn(frame)
    tracemalloc.start()
    try:
        fn(frame)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


WORKSPACE_FRAMES = ["kerdock"] + [(128, r, 256) for r in (1, 2, 3)]


@pytest.mark.parametrize("case", WORKSPACE_FRAMES, ids=str)
def test_a_warm_sweep_allocates_little(case):
    # the chunk-sized arrays live in the workspace, and pairs are solved
    # 2^11 at a time: mu peaked at 302 KiB, and validate at 305 KiB over its
    # map at r <= 2 and 679 KiB at r = 3, where the closed form holds about
    # 200 bytes a pair; mu took 1,369 to 1,627 KiB before the workspace
    if case == "kerdock":
        frame = _kerdock4()
    else:
        frame = sample_block_frame(_benchmark_spec(*case), trial=0)
    assert _warm_peak(worst_case_coherence, frame) <= 384 << 10
    assert _warm_peak(validate, frame) <= frame.m * frame.m * 8 + (768 << 10)


def test_the_workspace_is_per_thread_and_grows_on_demand():
    small = frame_module._workspace("product", (3, 4), np.float64)
    again = frame_module._workspace("product", (12,), np.complex64)
    assert np.shares_memory(small, again)
    large = frame_module._workspace("product", (1 << 17,), np.float64)
    assert large.nbytes == 1 << 20 and large.flags.c_contiguous
    assert np.shares_memory(frame_module._workspace("product", (4,), np.float64), large)
    [other] = parallel_map(lambda _: frame_module._workspace("product", (4,), np.float64), [0], 2)
    assert not np.shares_memory(other, large)


def test_nothing_the_sweep_returns_views_the_workspace():
    frame = sample_block_frame(_benchmark_spec(128, 2, 256), trial=0)
    rec = validate(frame)
    x, r = frame.data, frame.r
    solved = []
    frame_module._chunk_max(*frame_module._chunk(x, r, 0, 1), 0.0, solved=solved)
    arrays = [rec.gram] + [a for p, s in solved for a in (p, s)]
    buffers = list(vars(frame_module._workspaces).values())
    assert len(buffers) >= 3
    assert not any(np.shares_memory(a, b) for a in arrays for b in buffers)


def test_threads_sweep_different_frames_as_one_thread_does():
    # each thread forms its chunks in its own workspace; the screened
    # (200, 10, 200) frame puts the screen's strips and tiles in it too
    frames = [_kerdock4(), sample_block_frame(_benchmark_spec(200, 10, 200), trial=0)]
    frames += [sample_block_frame(_benchmark_spec(128, r, 256), trial=1) for r in (1, 2, 3)]
    frames.append(random_frame(60, 4, 50, 7, complex_blocks=True))
    jobs = [(fn, f) for f in frames for fn in (gram_map, worst_case_coherence)] * 2

    def run(job):
        return np.asarray(job[0](job[1])).tobytes()

    assert parallel_map(run, jobs, 2) == [run(job) for job in jobs]


@pytest.mark.parametrize("r", [1, 2, 3, 5])
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("entries", [64, 1 << 13, 1 << 16])
def test_the_block_sum_is_the_strided_sum_bit_for_bit(monkeypatch, r, cplx, entries):
    # runs of blocks behind the running total add in the order the strided
    # view does, whatever the run length
    monkeypatch.setattr(frame_module, "_CHUNK_ENTRIES", entries)
    frame = random_frame(30, r, 200, 10 + r, complex_blocks=cplx)
    want = frame.blocks3d().sum(axis=0)
    assert frame_module._block_sum(frame).tobytes() == want.tobytes()


# --- the float32 screen of mu -----------------------------------------------


def _unscreened_mu(frame):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frame_module, "_screens", lambda n, r, chunks: False)
        return worst_case_coherence(frame)


def _twin_frame(n, r, m, row, seed, cplx):
    """Pairs (row, row + 1) and (h + row, h + row + 1), h = m // 2, tie at mu in exact arithmetic.

    Block row + 1 is block row plus a small random part, so the pair lies far
    above the others.  The second half is the first half with block i
    replaced by W A_i Q_i, W a random n x n and Q_i a random r x r orthogonal
    (or unitary) matrix, so C of (h + i, h + j) is Q_i* C_ij Q_j: its
    singular values equal those of (i, j) in exact arithmetic, and the two
    pairs of a tie sit h block rows, and so chunks, apart.
    """
    rng = np.random.default_rng(seed)
    h = m // 2
    g = rng.standard_normal((h, n, r))
    if cplx:
        g = g + 1j * rng.standard_normal((h, n, r))
    g[row + 1] = g[row] + 0.3 * g[row + 1] / np.sqrt(n)
    first = orthonormalize(g)
    q = np.stack([random_unitary(r, rng, cplx) for _ in range(h)])
    second = random_unitary(n, rng, cplx) @ first @ q
    tag = "complex" if cplx else "real"
    return BlockFrame.from_blocks(list(first) + list(second), field_tag=tag)


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("row", [2, 30])
@pytest.mark.parametrize("seed", [0, 1, 3])
def test_near_tied_pairs_in_two_chunks_keep_mu_exact(cplx, row, seed):
    # (128, 2, 800) is screened (22 chunks); row 2 puts one twin in the
    # seed's chunk 0, row 30 both twins outside it; the seeds give ties
    # where either twin is the larger by a few ulp, and one exact tie
    frame = _twin_frame(128, 2, 800, row, seed, cplx)
    chunks = list(frame_module._chunk_runs(128, 800, 2, cplx))
    assert frame_module._screens(128, 2, len(chunks))
    g = gram_map(frame)
    twins = g[row, row + 1], g[400 + row, 401 + row]
    assert twins[0] == pytest.approx(twins[1], rel=1e-14)
    mu = worst_case_coherence(frame)
    assert mu == max(twins) == _off_diagonal_max(g) == _unscreened_mu(frame)


@pytest.mark.parametrize("n, r, m", [(32, 2, 60), (128, 3, 44), (200, 10, 20), (512, 4, 128)])
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_screen_margin_bounds_every_pair(n, r, m, cplx):
    # sigma^ from the float32 product of every pair against the exact map
    frame = random_frame(n, r, m, n + r, complex_blocks=cplx)
    x, w = frame.data, m * r
    single = np.complex64 if cplx else np.float32
    rows, cols = x.astype(single).conj().T, x.astype(single)
    c = frame_module._screen_tile(rows, cols, np.empty((w, w), x.dtype))
    a, b = np.triu_indices(m, 1)
    hat = frame_module._singular_values(c.reshape(m, r, m, r), a, b)[:, -1]
    gap = np.abs(hat - gram_map(frame)[a, b]).max()
    assert 0.0 < gap <= frame_module._screen_margin(n, r, cplx)


def _formed_chunks(monkeypatch):
    """The (i0, i1, g.shape) of every chunk formed in float64, in order."""
    formed, chunk = [], frame_module._chunk

    def spy(x, r, i0, i1):
        g, keep = chunk(x, r, i0, i1)
        formed.append((i0, i1, g.shape))
        return g, keep

    monkeypatch.setattr(frame_module, "_chunk", spy)
    return formed


def test_the_exact_pass_forms_only_the_sweeps_chunks(monkeypatch):
    frame = sample_block_frame(_benchmark_spec(200, 10, 200), trial=0)
    sweep = {(i0, i0 + len(g)): g.shape for i0, g, _ in frame_module._pair_chunks(frame.data, 10)}
    formed = _formed_chunks(monkeypatch)
    assert worst_case_coherence(frame).hex() == PINNED_MU[(200, 10, 200)][0]
    assert all(sweep[i0, i1] == shape for i0, i1, shape in formed)
    assert formed[0][0] == 0  # the seed
    assert 1 < len(formed) <= 4 < len(sweep)


def test_an_error_beyond_the_margin_trips_the_guard(monkeypatch):
    # the float32 products lose the planted pair (30, 31), which holds mu,
    # and overstate every other pair by 100 delta: the exact pass misses the
    # pair's chunk, its best pair is 100 delta from its sigma^, and the
    # guard sweeps every chunk
    frame = _twin_frame(128, 2, 800, 30, 5, False)
    exact = _unscreened_mu(frame)
    delta = frame_module._screen_margin(128, 2, False)
    tile = frame_module._screen_tile

    def broken(rows, cols, double):
        c = tile(rows, cols, double)
        c[np.abs(c) > 0.7] = 0.0  # the planted pairs' entries, and the A_i* A_i
        c *= 1 + 100 * delta
        return c

    monkeypatch.setattr(frame_module, "_screen_tile", broken)
    formed = _formed_chunks(monkeypatch)
    assert worst_case_coherence(frame) == exact
    runs = list(frame_module._chunk_runs(128, 800, 2, False))
    assert {(i0, i1) for i0, i1, _ in formed} == set(runs)


def test_tied_frames_skip_the_screen(monkeypatch):
    # kerdock(6) x H_1 is screened by shape (n = 128, 135 chunks), but its
    # chunk 0 solves many pairs at mu = 1/8: every chunk is swept exactly
    frame = build_frame("kerdock", 6, ("hadamard", 1))
    runs = list(frame_module._chunk_runs(frame.n, frame.m, frame.r, False))
    assert frame_module._screens(frame.n, frame.r, len(runs))
    tiles, tile = [], frame_module._screen_tile

    def spy(*args):
        tiles.append(1)
        return tile(*args)

    monkeypatch.setattr(frame_module, "_screen_tile", spy)
    assert worst_case_coherence(frame) == 0.125
    assert tiles == []


def _near_tie_frame(gap, seed):
    """(128, 2, 800) random, but for two pairs of chunk 0 near 1 that differ through gap.

    A_1 is A_0 plus t N, and A_2, A_3 are W A_0 and W (A_0 + t (1 + gap) N),
    W a random orthogonal matrix, so pairs (0, 1) and (2, 3) far outweigh
    the others and differ only through t.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((800, 128, 2))
    t, w = 0.3 / np.sqrt(128), random_unitary(128, rng, False)
    a, noise = g[0], g[1].copy()
    g[1], g[2], g[3] = a + t * noise, w @ a, w @ (a + t * (1 + gap) * noise)
    return BlockFrame.from_blocks(list(orthonormalize(g)), field_tag="real")


def test_only_ties_within_rounding_skip_the_screen(monkeypatch):
    # chunk 0 solves both planted pairs, at 0.9997 and 6e-10 apart: well
    # within 2 delta (3e-5), where a rule of 2 delta counted a tie, and far
    # beyond rounding
    frame = _near_tie_frame(1e-6, 4)
    x, r = frame.data, frame.r
    runs = list(frame_module._chunk_runs(frame.n, frame.m, r, False))
    assert frame_module._screens(frame.n, r, len(runs))
    seed = []
    best = frame_module._chunk_max(*frame_module._chunk(x, r, *runs[0]), 0.0, solved=seed)
    sigma = np.concatenate([s for _, s in seed])
    delta = frame_module._screen_margin(frame.n, r, False)
    assert np.count_nonzero(sigma >= best - 2 * delta) == 2
    assert np.count_nonzero(sigma >= best * (1 - frame_module._TIE_TOL)) == 1
    screened, screen = [], frame_module._screen

    def spy(*args):
        screened.append(1)
        return screen(*args)

    monkeypatch.setattr(frame_module, "_screen", spy)
    mu = worst_case_coherence(frame)
    assert screened == [1]
    assert mu == best == _off_diagonal_max(gram_map(frame)) == _unscreened_mu(frame)


def test_the_screen_runs_where_the_gemm_is_most_of_mu(monkeypatch):
    screened = []
    screen = frame_module._screen

    def spy(x, r, *args):
        screened.append((x.shape[0], r, x.shape[1] // r))
        return screen(x, r, *args)

    monkeypatch.setattr(frame_module, "_screen", spy)
    # few chunks, n < 8 r, n < 128; then the benchmark's mu frame
    shapes = [(128, r, 256) for r in (1, 2, 3)] + [(200, 40, 25), (200, 30, 44), (100, 5, 300)]
    for shape in shapes + [(200, 10, 200)]:
        worst_case_coherence(sample_block_frame(_benchmark_spec(*shape), trial=0))
    assert screened == [(200, 10, 200)]


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_a_real_diagonal_tile_is_one_symmetric_product(monkeypatch, cplx):
    # 8 of the 36 tiles at (200, 10, 200) are diagonal; a real one is the
    # row strip times its own transpose, which numpy forms by syrk
    spec = RandomFrameSpec(200, 10, 200, 1, "complex" if cplx else "real")
    frame = sample_block_frame(spec, trial=0)
    tiles, tile = [], frame_module._screen_tile

    def spy(rows, cols, double):
        tiles.append(np.shares_memory(rows, cols))
        return tile(rows, cols, double)

    monkeypatch.setattr(frame_module, "_screen_tile", spy)
    mu = worst_case_coherence(frame)
    assert len(tiles) == 36 and tiles.count(True) == (0 if cplx else 8)
    if not cplx:
        assert mu.hex() == PINNED_MU[(200, 10, 200)][0]


def test_the_screen_is_sign_invariant(monkeypatch):
    frame = sample_block_frame(_benchmark_spec(200, 10, 200), trial=1)
    signs = np.random.default_rng(3).choice([-1, 1], size=frame.m)
    bounds, screen = [], frame_module._screen

    def spy(*args):
        out = screen(*args)
        bounds.append((out[0], *(v.tobytes() for v in out[1])))
        return out

    monkeypatch.setattr(frame_module, "_screen", spy)
    formed = _formed_chunks(monkeypatch)
    mu = worst_case_coherence(frame)
    first = list(formed)
    assert worst_case_coherence(apply_block_signs(frame, signs)) == mu
    assert formed[len(first) :] == first
    assert bounds[0] == bounds[1]


@settings(max_examples=40, deadline=None)
@given(sweep_cases(), st.sampled_from([1, 2, 4, 8]), st.integers(0, 2**32 - 1))
def test_screened_mu_is_the_exhaustive_maximum(case, side, sign_seed):
    # small frames with the screen forced on: tiles of 1 to 8 columns, and
    # chunks of every size sweep_cases draws
    frame, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frame_module, "_CHUNK_ENTRIES", chunk)
        mp.setattr(frame_module, "_SCREEN_COLUMNS", side)
        mp.setattr(frame_module, "_screens", lambda n, r, chunks: chunks > 1)
        mu = worst_case_coherence(frame)
        signs = np.random.default_rng(sign_seed).choice([-1, 1], size=frame.m)
        mu_flipped = worst_case_coherence(apply_block_signs(frame, signs))
        g = gram_map(frame)
    assert mu == mu_flipped == _off_diagonal_max(g)


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


_TWO_BASES = np.eye(4)[:, [0, 1, 2, 3, 0, 1]]


def _bfm_with_field(tag, tmp_path):
    path = tmp_path / "f.bfm"
    path.write_text(f"BFM 1\nn=2 r=1 m=2 field={tag}\n1.0:0.0,0.0:0.0\n0.0:0.0,1.0:0.0\n")
    return read_bfm(path)


@pytest.mark.parametrize(
    "entry",
    [
        lambda tag, _: BlockFrame(n=4, r=2, m=3, data=_TWO_BASES, field_tag=tag),
        lambda tag, _: RandomFrameSpec(n=6, r=2, m=4, seed=0, field_tag=tag),
        lambda tag, _: SignalSpec(m=10, r=2, k=3, field_tag=tag),
        _bfm_with_field,
        lambda tag, _: max_equi_isoclinic(4, 2, tag),
        lambda tag, _: max_orthobases_blocks(4, tag),
        lambda tag, _: sample_subspace(4, 2, substream_rng(0, 1), field_tag=tag),
    ],
    ids=[
        "BlockFrame",
        "RandomFrameSpec",
        "SignalSpec",
        "bfm-header",
        "max_equi_isoclinic",
        "max_orthobases_blocks",
        "sample_subspace",
    ],
)
def test_every_field_entry_point_refuses_an_unknown_tag_with_one_message(tmp_path, entry):
    with pytest.raises(FrameError, match="field must be real or complex, got 'rational'"):
        entry("rational", tmp_path)
    for tag in ("real", "complex"):
        entry(tag, tmp_path)


@pytest.mark.parametrize(
    "entry",
    [
        lambda n, r, m: BlockFrame(n=n, r=r, m=m, data=_TWO_BASES),
        lambda n, r, m: RandomFrameSpec(n=n, r=r, m=m, seed=0),
        welch_coherence_lower,
        rankin_chordal_upper,
        spectral_distance_upper,
    ],
    ids=[
        "BlockFrame",
        "RandomFrameSpec",
        "welch_coherence_lower",
        "rankin_chordal_upper",
        "spectral_distance_upper",
    ],
)
def test_every_shape_entry_point_refuses_a_non_integer_with_one_message(entry):
    for shape in [(4.5, 2, 3), (4, 2.0, 3), (4, 2, "3")]:
        with pytest.raises(FrameError, match="n, r, m must be integers"):
            entry(*shape)
    entry(np.int64(4), np.int32(2), np.uint8(3))
    entry(4, 2, 3)


_ONE_BLOCK = BlockFrame(n=2, r=1, m=2, data=np.eye(2))


@pytest.mark.parametrize(
    "call, fits",
    [
        (flipped_nu_bound, 2),
        (lambda v: default_block_count(v, 2), 1),
        (lambda v: default_block_count(10, v), 1),
        (lambda v: default_block_count(10, 3, cap=v), 1),
        (lambda v: run_ndp_experiment([("f", _ONE_BLOCK)], [1], [10.0], v, 0), 1),
        (lambda v: run_ndp_experiment([("f", _ONE_BLOCK)], [v], [10.0], 1, 0), 1),
        (lambda v: empirical_mu_curve(8, [1], v, 0), 1),
        (lambda v: SignalSpec(m=8, r=2, k=v), 1),
        (lambda v: run_flipping_table(4, 4, [1], v, 0), 1),
    ],
    ids=[
        "flipped_nu_bound",
        "default_block_count-n",
        "default_block_count-r",
        "default_block_count-cap",
        "run_ndp_experiment-trials",
        "run_ndp_experiment-k",
        "empirical_mu_curve-trials",
        "SignalSpec-k",
        "run_flipping_table-realizations",
    ],
)
def test_every_count_is_an_integer_at_or_above_its_minimum(call, fits):
    # one rule, one message: operator.index, then the minimum
    for bad in [fits + 0.5, float(fits), "2", None, fits - 1, -3]:
        with pytest.raises(FrameError, match=r"must be an integer >= \d+, got"):
            call(bad)
    call(fits)
    call(np.int64(fits))


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
    with pytest.raises(FrameError, match="at least one block"):
        BlockFrame.from_blocks([])


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
    frame = build_frame("id-hadamard", 2)
    rec = validate(frame)
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
    # the report's unit_columns and block_orthonormal flags are written true
    # on the strength of the 1e-8 bound: a first column whose squared norm is
    # off by just under 1e-8 is accepted with its norm off by about 5e-9, and
    # one off by just over 1e-8 is refused
    for stretch in (1 + 0.999e-8, 1 - 0.999e-8):
        stretched = frame.data.copy()
        stretched[:, 0] *= np.sqrt(stretch)
        accepted = BlockFrame(n=6, r=2, m=5, data=stretched)
        col_dev = np.abs(np.linalg.norm(accepted.data, axis=0) - 1.0).max()
        assert 4.9e-9 < col_dev < 5e-9
        validation = coherence_report(accepted)[0]["validation"]
        assert validation["unit_columns"] is True and validation["block_orthonormal"] is True
    stretched[:, 0] = frame.data[:, 0] * np.sqrt(1 + 1.001e-8)
    with pytest.raises(FrameError, match="not orthonormal"):
        BlockFrame(n=6, r=2, m=5, data=stretched)


@settings(max_examples=200, deadline=None)
@given(st.integers(-1, 16), st.integers(-1, 8), st.integers(-1, 4))
def test_check_nrm_accepts_only_two_or_more_blocks(n, r, m):
    # r < n <= m*r gives m*r > r, so m >= 2: no measure or bound that takes
    # a frame or a checked (n, r, m) needs its own m >= 2 test
    try:
        frame_module.check_nrm(n, r, m)
    except FrameError:
        return
    assert m >= 2


def test_validate_tight_residual_is_the_largest_entry():
    # columns e1, e2, e3, e1: F F* = diag(2, 1, 1) and mr/n = 4/3, so the
    # residual's entries are 2/3, -1/3, -1/3; the largest, not their
    # Frobenius norm sqrt(6)/3, is tight_residual
    frame = BlockFrame(n=3, r=1, m=4, data=np.eye(3)[:, [0, 1, 2, 0]])
    rec = validate(frame)
    assert rec.tight_residual == pytest.approx(2 / 3, rel=0, abs=1e-15)
    assert not rec.tight
    assert validate(build_frame("id-hadamard", 2)).tight_residual <= 1e-15


def test_validate_random_frame():
    frame = random_frame(6, 2, 5, 13)
    rec = validate(frame)
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
    frame = build_frame("kerdock", 4, ("hadamard", 1))
    assert (frame.n, frame.r, frame.m) == (32, 2, 128)
    rec = validate(frame)
    assert rec.cross_singular_spread == pytest.approx(0.25, abs=1e-15)
    assert not rec.equi_isoclinic


def test_coherence_report_fields():
    frame = build_frame("id-hadamard", 2)
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
