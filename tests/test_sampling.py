"""Random subspace sampling, substreams, and the coherence curve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockframe.frame as frame_module
import blockframe.sampling as sampling_module
from blockframe import (
    FrameError,
    RandomFrameSpec,
    default_block_count,
    empirical_mu_curve,
    overlap_tail_bound,
    parallel_map,
    sample_block_frame,
    sample_subspace,
    solve_threshold,
    substream_rng,
)
from blockframe.matrixcore import batch_spectral_norms
from blockframe.sampling import CurvePoint, substream_keys


# ---------------------------------------------------------------- substreams


def test_substream_rng_deterministic():
    a = substream_rng(7, 3, 1).random(4)
    b = substream_rng(7, 3, 1).random(4)
    assert np.array_equal(a, b)


def test_substream_rng_path_sensitivity():
    base = substream_rng(7, 3, 1).random(4)
    assert not np.array_equal(base, substream_rng(7, 3, 2).random(4))
    assert not np.array_equal(base, substream_rng(7, 1, 3).random(4))
    assert not np.array_equal(base, substream_rng(8, 3, 1).random(4))


def test_substream_rng_rejects_negative_path():
    with pytest.raises(FrameError):
        substream_rng(7, -1)
    with pytest.raises(FrameError, match="non-negative"):
        substream_keys(7, (1, -1), 4)


# seeds of one word, including 0, of two and more words, and path components
# of one or two words, such as the IEEE-754 bit pattern of a dynamic range
_SEEDS = st.one_of(
    st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64), st.integers(2**64, 2**160)
)
_PATH_PARTS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.floats(0.5, 1e6).map(lambda dr: int(np.float64(dr).view(np.uint64))),
)


@settings(max_examples=80, deadline=None)
@given(_SEEDS, st.lists(_PATH_PARTS, max_size=4), st.integers(1, 40))
def test_substream_keys_match_seed_sequence(seed, prefix, count):
    keys = substream_keys(seed, prefix, count)
    assert keys.shape == (count, 2) and keys.dtype == np.uint64
    for i in {0, count // 2, count - 1}:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(*prefix, i))
        assert np.array_equal(keys[i], ss.generate_state(2, np.uint64))


_EDGE_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5]), _SEEDS)
_EDGE_PARTS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**63 + 1]), _PATH_PARTS)


@st.composite
def _many_paths(draw):
    """Rows of 1-4 components, each column an array or one shared int.

    Array columns mix one- and two-word values, so rows fall into several
    groups of word counts; a 2-d column broadcasts against a 1-d one.
    """
    rows = draw(st.integers(1, 12))
    path, table = [], []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            part = draw(_EDGE_PARTS)
            path.append(part)
            table.append([part] * rows)
        else:
            parts = draw(st.lists(_EDGE_PARTS, min_size=rows, max_size=rows))
            path.append(np.array(parts, dtype=np.uint64))
            table.append(parts)
    return path, [tuple(col[i] for col in table) for i in range(rows)]


@settings(max_examples=120, deadline=None)
@given(_EDGE_SEEDS, _many_paths())
def test_substream_keys_of_many_paths_match_seed_sequence(seed, paths):
    path, rows = paths
    keys = substream_keys(seed, path)
    if not any(isinstance(p, np.ndarray) for p in path):
        keys, rows = keys[None], rows[:1]
    assert keys.shape == (len(rows), 2) and keys.dtype == np.uint64
    for key, row in zip(keys, rows):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=row)
        assert np.array_equal(key, ss.generate_state(2, np.uint64))


def test_substream_keys_broadcast_their_components():
    k = np.array([1, 2**40, 7])[:, None]
    keys = substream_keys(9, (k, np.arange(4), 1))
    assert keys.shape == (3, 4, 2)
    for (a, b), key in np.ndenumerate(keys[..., 0]):
        ss = np.random.SeedSequence(entropy=9, spawn_key=(int(k[a, 0]), b, 1))
        assert key == ss.generate_state(2, np.uint64)[0]
    with pytest.raises(FrameError, match="non-negative"):
        substream_keys(9, (np.array([3, -1]),))
    with pytest.raises(FrameError, match="must be integers"):
        substream_keys(9, (np.array([0.5, 1.0]),))


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.5, "3", None])
def test_seed_is_a_non_negative_integer(seed):
    with pytest.raises(FrameError, match="seed"):
        RandomFrameSpec(n=6, r=2, m=4, seed=seed)
    with pytest.raises(FrameError, match="seed"):
        substream_keys(seed, (0,), 4)
    with pytest.raises(FrameError, match="seed"):
        substream_rng(seed, 0)


def test_parallel_map_preserves_order():
    out = parallel_map(lambda x: x * x, range(17), 4)
    assert out == [x * x for x in range(17)]


# ---------------------------------------------------------------- samplers


def test_sample_subspace_orthonormal_real():
    q = sample_subspace(40, 4, substream_rng(0, 0))
    assert q.shape == (40, 4)
    assert np.abs(q.conj().T @ q - np.eye(4)).max() < 1e-10
    assert np.all(q.imag == 0.0)


def test_sample_subspace_orthonormal_complex():
    q = sample_subspace(12, 3, substream_rng(0, 1), field_tag="complex")
    assert np.abs(q.conj().T @ q - np.eye(3)).max() < 1e-10
    assert np.abs(q.imag).max() > 0.0


def test_sample_subspace_of_no_dimension_is_refused():
    with pytest.raises(FrameError, match="cannot orthonormalize"):
        sample_subspace(0, 0, substream_rng(0, 1))


def test_sample_unitary():
    u = sample_subspace(5, 5, substream_rng(2, 0), field_tag="complex")
    assert u.shape == (5, 5)
    assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-10


def test_sample_block_frame_deterministic():
    spec = RandomFrameSpec(n=12, r=2, m=6, seed=9)
    f1 = sample_block_frame(spec)
    f2 = sample_block_frame(spec)
    assert np.array_equal(f1.data, f2.data)
    assert not np.array_equal(f1.data, sample_block_frame(spec, trial=1).data)


def test_sample_block_frame_path_keys():
    spec = RandomFrameSpec(n=6, r=2, m=4, seed=3)
    blocks = [
        sample_subspace(6, 2, substream_rng(3, 2, 5, i)) for i in range(4)
    ]
    assert np.array_equal(sample_block_frame(spec, 2, 5).data, np.concatenate(blocks, axis=1))
    assert np.array_equal(sample_block_frame(spec, 2, trial=5).data, sample_block_frame(spec, 2, 5).data)
    assert np.array_equal(sample_block_frame(spec, 0).data, sample_block_frame(spec).data)
    assert np.array_equal(sample_block_frame(spec, trial=4).data, sample_block_frame(spec, 4).data)


@pytest.mark.parametrize("field_tag", ["real", "complex"])
@pytest.mark.parametrize("blocks_per_chunk", [1, 3, 7, 100])
def test_sample_block_frame_chunks_match_per_block_draws(monkeypatch, field_tag, blocks_per_chunk):
    # m = 7: one block per chunk, chunks of 3, 3 and 1, the whole frame at once
    spec = RandomFrameSpec(n=9, r=2, m=7, seed=21, field_tag=field_tag)
    monkeypatch.setattr(frame_module, "_CHUNK_ENTRIES", blocks_per_chunk * 9 * 2)
    blocks = [
        sample_subspace(9, 2, substream_rng(21, 4, i), field_tag) for i in range(7)
    ]
    got = sample_block_frame(spec, 4).data
    want = np.concatenate(blocks, axis=1)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_sample_block_frame_size_guard(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before the size guard")

    monkeypatch.setattr(sampling_module, "substream_keys", no_draws)
    monkeypatch.setattr(np.random, "Philox", no_draws)
    with pytest.raises(FrameError, match="size guard"):
        sample_block_frame(RandomFrameSpec(n=1 << 14, r=1 << 7, m=1 << 7, seed=0))


@pytest.mark.parametrize("field_tag", ["real", "complex"])
def test_sample_block_frame_builds_one_philox_and_no_seed_sequence(monkeypatch, field_tag):
    made = {"Philox": 0, "SeedSequence": 0}

    def counting(name, cls):
        def make(*args, **kwargs):
            made[name] += 1
            return cls(*args, **kwargs)

        return make

    spec = RandomFrameSpec(n=8, r=2, m=64, seed=5, field_tag=field_tag)
    want = np.concatenate(
        [sample_subspace(8, 2, substream_rng(5, 3, i), field_tag) for i in range(64)], axis=1
    )
    for name in made:
        monkeypatch.setattr(np.random, name, counting(name, getattr(np.random, name)))
    got = sample_block_frame(spec, 3).data
    assert made == {"Philox": 1, "SeedSequence": 0}
    assert got.tobytes() == want.tobytes()


def test_random_frame_spec_rejects_non_positive_shapes():
    with pytest.raises(FrameError, match="positive"):
        RandomFrameSpec(n=3, r=-2, m=-2, seed=0)


def test_sample_block_frame_complex_tag():
    spec = RandomFrameSpec(n=8, r=2, m=5, seed=1, field_tag="complex")
    f = sample_block_frame(spec)
    assert f.field_tag == "complex"
    assert f.data.dtype == np.complex128
    assert np.abs(f.data.imag).max() > 0.0


def test_sample_block_frame_real_is_float64():
    f = sample_block_frame(RandomFrameSpec(n=8, r=2, m=5, seed=1, field_tag="real"))
    assert f.field_tag == "real"
    assert f.data.dtype == np.float64


def test_random_frame_spec_validation():
    with pytest.raises(FrameError):
        RandomFrameSpec(n=4, r=4, m=3, seed=0)
    with pytest.raises(FrameError):
        RandomFrameSpec(n=9, r=2, m=4, seed=0)
    with pytest.raises(FrameError):
        RandomFrameSpec(n=6, r=2, m=4, seed=0, field_tag="rational")


# ---------------------------------------------------------------- distribution checks


def test_cross_block_frobenius_mean():
    # E ||A_i* A_j||_F^2 = r^2 / n for independent uniform subspaces
    n, r, pairs = 40, 4, 10000
    tot = 0.0
    for t in range(pairs):
        a = sample_subspace(n, r, substream_rng(101, t, 0))
        b = sample_subspace(n, r, substream_rng(101, t, 1))
        tot += float(np.linalg.norm(a.conj().T @ b, "fro") ** 2)
    mean = tot / pairs
    target = r * r / n
    assert abs(mean - target) < 0.02 * target


def test_largest_overlap_tail_below_bound():
    # Monte-Carlo tail of the top squared overlap against the analytic bound;
    # uniformity lets one subspace be pinned to the first coordinates.  The
    # (200, 10) case is the pair shape behind acceptance check 6's bound.
    cases = [
        (40, 4, 100000, 25000, (0.3, 0.5, 0.7)),
        (200, 10, 20000, 5000, (0.2, 0.25, 0.3)),
    ]
    rng = np.random.default_rng(424242)
    for n, r, total, batch, lams in cases:
        counts = dict.fromkeys(lams, 0)
        done = 0
        while done < total:
            g = rng.standard_normal((batch, n, r))
            q, _ = np.linalg.qr(g)
            lam = batch_spectral_norms(q[:, :r, :]) ** 2
            for x in counts:
                counts[x] += int(np.sum(lam >= x))
            done += batch
        for x, c in counts.items():
            assert c / total <= 1.05 * overlap_tail_bound(x, n, r), (n, r, x)


# ---------------------------------------------------------------- coherence curve


def test_default_block_count():
    assert default_block_count(200, 10) == 400
    assert default_block_count(40, 4) == 100
    assert default_block_count(40, 4, cap=50) == 50


def test_default_block_count_floors_in_integers():
    # no float (n/r)^2 to overflow
    assert default_block_count(10**200, 1) == 400
    assert default_block_count(10**200, 3, cap=10**300) == 10**300
    # the integer floor equals the float one wherever the float is exact enough
    for n in range(2, 300):
        for r in range(1, n):
            assert default_block_count(n, r, cap=10**6) == int((n / r) ** 2), (n, r)


def test_empirical_mu_curve_smoke():
    pts = empirical_mu_curve(20, [3], trials=4, seed=3)
    assert len(pts) == 1
    p = pts[0]
    assert isinstance(p, CurvePoint)
    assert p.beta == 3 / 20
    assert 0.0 < p.mean_mu <= p.max_mu < 1.0
    sol = solve_threshold(p.beta)
    assert p.theory_mu == pytest.approx(np.sqrt(sol.multiplier * sol.beta), abs=1e-14)


def test_empirical_mu_curve_thread_invariance():
    a = empirical_mu_curve(16, [2, 3], trials=3, seed=11, threads=1)
    b = empirical_mu_curve(16, [2, 3], trials=3, seed=11, threads=3)
    assert a == b  # exact float equality, point by point


def test_empirical_mu_curve_m_cap():
    pts = empirical_mu_curve(16, [2], trials=2, seed=4, m_cap=10)
    dflt = empirical_mu_curve(16, [2], trials=2, seed=4)
    # the cap cuts (16/2)^2 = 64 blocks to 10 of the same substream draws
    assert pts[0].beta == dflt[0].beta
    assert pts[0].mean_mu != dflt[0].mean_mu


def test_empirical_mu_curve_high_beta_edge():
    pts = empirical_mu_curve(10, [4], trials=6, seed=5)
    assert pts[0].mean_mu > 0.9
    assert pts[0].max_mu <= 1.0 + 1e-12


def test_empirical_mu_curve_domain():
    with pytest.raises(FrameError):
        empirical_mu_curve(8, [4], trials=2, seed=0)


def test_curve_point_frozen():
    p = CurvePoint(beta=0.1, mean_mu=0.2, max_mu=0.3, theory_mu=0.4)
    with pytest.raises(AttributeError):
        p.beta = 0.5


@pytest.mark.parametrize("threads", [float("nan"), 2.5, 0, -1])
def test_a_thread_count_is_refused_before_any_worker_starts(monkeypatch, threads):
    def no_pool(*args, **kwargs):
        raise AssertionError("an executor was made")

    monkeypatch.setattr(sampling_module, "ThreadPoolExecutor", no_pool)
    with pytest.raises(FrameError, match="threads must be an integer >= 1"):
        parallel_map(abs, [1, 2], threads)
    with pytest.raises(FrameError, match="threads must be an integer >= 1"):
        empirical_mu_curve(16, [2], trials=2, seed=0, threads=threads)


@pytest.mark.parametrize(
    "n, r", [(4.5, 2), (-1, 2), (4, 2.5), (4, -1), (10**400, 2), (10**400, 0), (0, 10**400)]
)
def test_sample_subspace_refuses_a_bad_or_huge_count(n, r):
    with pytest.raises(FrameError):
        sample_subspace(n, r, substream_rng(0, 1))


def test_a_random_frame_spec_holds_its_counts_as_ints():
    spec = RandomFrameSpec(np.int64(8), True, np.int64(9), seed=0)
    assert (spec.n, spec.r, spec.m) == (8, 1, 9)
    assert all(type(v) is int for v in (spec.n, spec.r, spec.m))
    assert sample_block_frame(spec).data.shape == (8, 9)
