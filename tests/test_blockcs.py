"""Block-sparse signals, group thresholding, and the experiment harnesses."""

import numpy as np
import pytest

from blockframe import (
    FrameError,
    RandomFrameSpec,
    flipped_nu_bound,
    run_ndp_experiment,
    sample_block_frame,
    substream_rng,
)
import blockframe.blockcs as blockcs
import blockframe.sampling as sampling_module
from blockframe.blockcs import (
    NDPResult,
    SignalSpec,
    gen_signal,
    ndp,
    one_step_group_threshold,
    run_flipping_table,
)
from blockframe.constructions import id_hadamard_union
from blockframe.frame import BlockFrame


# ---------------------------------------------------------------- signals


def test_signal_spec_validation():
    with pytest.raises(FrameError):
        SignalSpec(m=10, r=2, k=0)
    with pytest.raises(FrameError):
        SignalSpec(m=10, r=2, k=11)
    with pytest.raises(FrameError):
        SignalSpec(m=10, r=2, k=3, dynamic_range=0.5)
    with pytest.raises(FrameError):
        SignalSpec(m=10, r=2, k=3, field_tag="rational")


def test_gen_signal_real():
    spec = SignalSpec(m=20, r=3, k=5, dynamic_range=10.0)
    x, supp = gen_signal(spec, substream_rng(0, 0))
    assert x.shape == (60,)
    assert supp.shape == (5,)
    assert np.all(np.diff(supp) > 0)  # sorted, distinct
    assert np.all((supp >= 0) & (supp < 20))
    mask = np.zeros(60, dtype=bool)
    for b in supp:
        mask[b * 3 : (b + 1) * 3] = True
    on = x[mask]
    assert np.all(x[~mask] == 0.0)
    assert np.all(x.imag == 0.0)
    assert np.all((np.abs(on) >= 1.0) & (np.abs(on) <= 10.0))


def test_gen_signal_complex():
    spec = SignalSpec(m=12, r=2, k=4, dynamic_range=100.0, field_tag="complex")
    x, supp = gen_signal(spec, substream_rng(0, 1))
    mask = np.zeros(24, dtype=bool)
    for b in supp:
        mask[b * 2 : (b + 1) * 2] = True
    on = np.abs(x[mask])
    assert np.all((on >= 1.0) & (on <= 100.0))
    assert np.abs(x.imag).max() > 0.0


def test_gen_signal_deterministic():
    spec = SignalSpec(m=20, r=3, k=5)
    x1, s1 = gen_signal(spec, substream_rng(3, 7))
    x2, s2 = gen_signal(spec, substream_rng(3, 7))
    assert np.array_equal(x1, x2)
    assert np.array_equal(s1, s2)


# ---------------------------------------------------------------- thresholding


def test_threshold_recovers_single_block():
    frame = sample_block_frame(RandomFrameSpec(n=8, r=2, m=6, seed=1))
    coeffs = np.array([1.5, -2.0])
    y = frame.block(3) @ coeffs
    assert one_step_group_threshold(frame, y, 1).tolist() == [3]


def test_threshold_scale_invariant():
    frame = sample_block_frame(RandomFrameSpec(n=8, r=2, m=6, seed=2))
    spec = SignalSpec(m=6, r=2, k=2)
    x, _ = gen_signal(spec, substream_rng(0, 2))
    y = frame.data @ x
    a = one_step_group_threshold(frame, y, 2)
    b = one_step_group_threshold(frame, 5.0 * y, 2)
    assert np.array_equal(a, b)


def test_threshold_zero_measurement_tie_rule():
    frame = sample_block_frame(RandomFrameSpec(n=8, r=2, m=6, seed=3))
    est = one_step_group_threshold(frame, np.zeros(8), 3)
    assert est.tolist() == [0, 1, 2]


def test_threshold_tie_prefers_lower_index():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    data = np.stack([e1, e1, e2], axis=1).astype(np.complex128)
    frame = BlockFrame(n=2, r=1, m=3, data=data, field_tag="real")
    assert one_step_group_threshold(frame, e1, 1).tolist() == [0]
    assert one_step_group_threshold(frame, e1, 2).tolist() == [0, 1]


def test_threshold_k_bounds():
    frame = sample_block_frame(RandomFrameSpec(n=8, r=2, m=6, seed=4))
    with pytest.raises(FrameError):
        one_step_group_threshold(frame, np.zeros(8), 0)
    with pytest.raises(FrameError):
        one_step_group_threshold(frame, np.zeros(8), 7)


# ---------------------------------------------------------------- scoring


def test_ndp_arithmetic():
    assert ndp([1, 2, 3], [1, 2, 3]) == 0.0
    assert ndp([1, 2], [3, 4]) == 1.0
    assert ndp([0, 1, 2, 3], [2, 3, 9, 11]) == 0.5
    with pytest.raises(FrameError):
        ndp([], [1])


# ---------------------------------------------------------------- NDP harness


def _det_frame():
    p = id_hadamard_union(2)  # 4 x 8
    return BlockFrame(n=4, r=1, m=8, data=p.astype(np.complex128), field_tag="real")


def test_run_ndp_experiment_layout_and_determinism():
    spec = RandomFrameSpec(n=4, r=1, m=8, seed=7)
    frames = [("det", _det_frame()), ("rnd", lambda t: sample_block_frame(spec, trial=t))]
    out1 = run_ndp_experiment(frames, [1, 2], [10.0], trials=6, seed=0)
    out2 = run_ndp_experiment(frames, [1, 2], [10.0], trials=6, seed=0)
    assert out1 == out2
    assert len(out1) == 4  # 2 sparsities x 1 range x 2 frames
    assert [r.label for r in out1] == ["det", "rnd", "det", "rnd"]
    for r in out1:
        assert 0.0 <= r.mean_ndp <= 1.0
        assert r.stderr >= 0.0
        assert r.trials == 6


def test_run_ndp_experiment_thread_invariance():
    frames = [("det", _det_frame())]
    a = run_ndp_experiment(frames, [1, 3], [10.0, 100.0], trials=5, seed=1, threads=1)
    b = run_ndp_experiment(frames, [1, 3], [10.0, 100.0], trials=5, seed=1, threads=3)
    assert a == b


def test_run_ndp_experiment_same_frame_same_curve():
    f = _det_frame()
    out = run_ndp_experiment([("a", f), ("b", f)], [2], [10.0], trials=8, seed=2)
    assert out[0].mean_ndp == out[1].mean_ndp
    assert out[0].stderr == out[1].stderr


def test_run_ndp_experiment_full_support_recovers():
    out = run_ndp_experiment([("det", _det_frame())], [8], [10.0], trials=4, seed=3)
    assert out[0].mean_ndp == 0.0


def test_run_ndp_experiment_with_noise():
    out1 = run_ndp_experiment([("det", _det_frame())], [2], [10.0], trials=5, seed=4, snr_db=20.0)
    out2 = run_ndp_experiment([("det", _det_frame())], [2], [10.0], trials=5, seed=4, snr_db=20.0)
    assert out1 == out2
    assert 0.0 <= out1[0].mean_ndp <= 1.0


def test_run_ndp_experiment_shape_mismatch():
    small = sample_block_frame(RandomFrameSpec(n=4, r=1, m=8, seed=0))
    big = sample_block_frame(RandomFrameSpec(n=6, r=1, m=8, seed=0))
    with pytest.raises(FrameError):
        run_ndp_experiment([("a", small), ("b", big)], [1], [10.0], trials=2, seed=0)


def test_run_ndp_experiment_builds_each_frame_once_per_trial():
    spec = RandomFrameSpec(n=4, r=1, m=8, seed=7)
    calls = []

    def factory(t):
        calls.append(t)
        return sample_block_frame(spec, trial=t)

    frames = [("det", _det_frame()), ("rnd", factory)]
    run_ndp_experiment(frames, [1, 2, 3, 4], [10.0, 100.0], trials=5, seed=0)
    assert sorted(calls) == [0, 1, 2, 3, 4]


def test_run_ndp_experiment_dynamic_ranges_draw_apart(monkeypatch):
    # DR 10.0 and 10.9 share an integer part; their supports must not coincide,
    # and each range draws the same signals whatever the grid order
    import blockframe.blockcs as blockcs

    seen = []

    def recording_gen_signal(spec, rng):
        x, supp = gen_signal(spec, rng)
        seen.append((spec.dynamic_range, tuple(supp)))
        return x, supp

    monkeypatch.setattr(blockcs, "gen_signal", recording_gen_signal)
    f = sample_block_frame(RandomFrameSpec(n=32, r=2, m=128, seed=0))
    run_ndp_experiment([("f", f)], [3], [10.0, 10.9], trials=1, seed=0)
    forward = dict(seen)
    seen.clear()
    run_ndp_experiment([("f", f)], [3], [10.9, 10.0], trials=1, seed=0)
    assert dict(seen) == forward
    assert forward[10.0] != forward[10.9]


def _ndp_oracle(frames, k_grid, dr_grid, trials, seed, field_tag="real", snr_db=None):
    """The per-cell loop: one generator per substream, then each frame's
    thresholding and set-based NDP, cell by cell.  threshold is
    one_step_group_threshold as it was before it shared the experiment's
    ranking, so the oracle shares no scoring code with what it checks."""

    def threshold(frame, y, k):
        c = frame.data.conj().T @ np.asarray(y)
        energies = np.linalg.norm(c.reshape(frame.m, frame.r), axis=1)
        return np.sort(np.argsort(-energies, kind="stable")[:k])

    table = []
    for t in range(trials):
        built = [obj(t) if callable(obj) else obj for _, obj in frames]
        r, m = built[0].r, built[0].m
        scores = []
        for k in k_grid:
            for dr in dr_grid:
                key = (k, int(np.float64(dr).view(np.uint64)), t)
                spec = SignalSpec(m=m, r=r, k=k, dynamic_range=dr, field_tag=field_tag)
                x, supp = gen_signal(spec, substream_rng(seed, *key))
                row = []
                for frame in built:
                    y = frame.data @ x
                    if snr_db is not None:
                        y = blockcs._add_noise(y, snr_db, substream_rng(seed, *key, 1))
                    row.append(ndp(supp, threshold(frame, y, k)))
                scores.append(row)
        table.append(scores)
    table = np.asarray(table)
    results = []
    cells = [(k, dr) for k in k_grid for dr in dr_grid]
    for cell, (k, dr) in enumerate(cells):
        for col, (label, _) in enumerate(frames):
            vals = table[:, cell, col]
            stderr = float(vals.std(ddof=1) / np.sqrt(len(vals))) if trials > 1 else 0.0
            results.append(
                NDPResult(label, int(k), float(dr), float(vals.mean()), stderr, trials)
            )
    return results


@pytest.mark.parametrize("trials", [1, 2, 9, 17])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("snr_db", [None, 20.0])
@pytest.mark.parametrize("field_tag", ["real", "complex"])
def test_run_ndp_experiment_matches_the_per_cell_loop(field_tag, snr_db, threads, trials):
    # a real and a complex random frame redrawn per trial, and a fixed one;
    # DR 10.0 and 10.9 share an integer part, k = 16 = m picks every block,
    # and the seed takes two words
    real = RandomFrameSpec(n=12, r=2, m=16, seed=5)
    cplx = RandomFrameSpec(n=12, r=2, m=16, seed=6, field_tag="complex")
    frames = [
        ("fixed", sample_block_frame(real, 9)),
        ("real", lambda t: sample_block_frame(real, trial=t)),
        ("complex", lambda t: sample_block_frame(cplx, 1, t)),
    ]
    args = (frames, [1, 3, 16], [10.0, 10.9, 2.0**40 + 0.5], trials, 2**33 + 1)
    want = _ndp_oracle(*args, field_tag=field_tag, snr_db=snr_db)
    got = run_ndp_experiment(*args, field_tag=field_tag, snr_db=snr_db, threads=threads)
    assert got == want


def test_run_ndp_experiment_keys_every_signal_in_one_pass(monkeypatch):
    # one substream_keys call for the signals, one more for the noise, and
    # no SeedSequence at all
    calls = []
    keys = blockcs.substream_keys

    def counting(*args, **kwargs):
        calls.append(args)
        return keys(*args, **kwargs)

    def no_seed_sequence(*args, **kwargs):
        raise AssertionError("a SeedSequence was built")

    monkeypatch.setattr(blockcs, "substream_keys", counting)
    monkeypatch.setattr(np.random, "SeedSequence", no_seed_sequence)
    frames = [("det", _det_frame())]
    run_ndp_experiment(frames, [1, 2], [10.0, 100.0], trials=3, seed=0)
    assert len(calls) == 1
    run_ndp_experiment(frames, [1, 2], [10.0, 100.0], trials=3, seed=0, snr_db=20.0)
    assert len(calls) == 3


def test_run_ndp_experiment_needs_trials():
    with pytest.raises(FrameError):
        run_ndp_experiment([("det", _det_frame())], [1], [10.0], trials=0, seed=0)


def test_run_ndp_experiment_needs_frames():
    with pytest.raises(FrameError):
        run_ndp_experiment([], [1], [10.0], trials=2, seed=0)


# ---------------------------------------------------------------- flip table


def test_run_flipping_table():
    rows = run_flipping_table(16, 24, [1, 2], realizations=3, seed=0)
    assert [row.r for row in rows] == [1, 2]
    for row in rows:
        assert len(row.runs) == 3
        assert row.nu_bound == flipped_nu_bound(24)
        assert row.nu_after_mean < row.nu_before_mean
        # stored runs regenerate the summary columns
        assert row.nu_before_mean == pytest.approx(
            np.mean([t[0] for t in row.runs]), abs=1e-15
        )
        assert row.improvement_pct == pytest.approx(
            100.0 * (1.0 - row.nu_after_mean / row.nu_before_mean), abs=1e-12
        )
        for t in row.runs:
            assert t[3] == t[2]  # flipping never moves worst-case coherence


def test_run_flipping_table_thread_invariance():
    a = run_flipping_table(16, 24, [2], realizations=4, seed=5, threads=1)
    b = run_flipping_table(16, 24, [2], realizations=4, seed=5, threads=4)
    assert a == b


def test_run_flipping_table_frobenius_variant():
    rows = run_flipping_table(16, 24, [2], realizations=3, seed=1, norm_variant="frobenius")
    assert rows[0].nu_after_mean < rows[0].nu_before_mean


@pytest.mark.parametrize("m, r", [(10, 0), (10.5, 2), (10, 2.5), (10, -1)])
def test_signal_spec_refuses_a_block_count_or_width_that_is_not_a_count(m, r):
    with pytest.raises(FrameError, match="must be an integer"):
        SignalSpec(m=m, r=r, k=3)


def _flat_union_frame():
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return BlockFrame(n=8, r=2, m=8, data=np.kron(id_hadamard_union(2), h1))


@pytest.mark.parametrize("threads", [float("nan"), 2.5, 0, -1])
def test_experiments_refuse_a_thread_count_before_any_worker_starts(monkeypatch, threads):
    def no_pool(*args, **kwargs):
        raise AssertionError("an executor was made")

    monkeypatch.setattr(sampling_module, "ThreadPoolExecutor", no_pool)
    frames = [("a", _flat_union_frame())]
    with pytest.raises(FrameError, match="threads must be an integer >= 1"):
        run_ndp_experiment(frames, [1], [10.0], trials=2, seed=0, threads=threads)
    with pytest.raises(FrameError, match="threads must be an integer >= 1"):
        run_flipping_table(8, 8, [2], realizations=2, seed=0, threads=threads)


def test_a_dynamic_range_past_float64_is_refused():
    with pytest.raises(FrameError, match="dynamic ranges must be float64"):
        run_ndp_experiment([("a", _flat_union_frame())], [1], [10**400], trials=2, seed=0)
    with pytest.raises(FrameError, match="dynamic_range must be finite"):
        SignalSpec(m=10, r=2, k=3, dynamic_range=10**400)


def test_an_snr_past_float64_adds_no_noise():
    frames = [("a", _flat_union_frame())]
    args = (frames, [1, 3], [10.0], 4, 5)
    assert run_ndp_experiment(*args, snr_db=10**400) == run_ndp_experiment(*args)


def test_an_empty_grid_gives_no_rows():
    frames = [("a", _flat_union_frame())]
    assert run_ndp_experiment(frames, [], [10.0], trials=10**400, seed=0) == []
