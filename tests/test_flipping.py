"""Greedy sign flipping: exact invariants and the average-coherence bound."""

import math

import numpy as np
import pytest

from blockframe import (
    FlipConfig,
    FrameError,
    RandomFrameSpec,
    apply_block_signs,
    average_coherence,
    flip,
    flip_guarantee_min_c,
    flipped_nu_bound,
    frobenius_norm,
    gram_map,
    random_flip_search,
    sample_block_frame,
    spectral_norm,
)
from blockframe.frame import BlockFrame


def _toy_frame():
    data = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=np.complex128)
    return BlockFrame(n=2, r=1, m=3, data=data, field_tag="real")


def test_flip_hand_traced():
    # block 1 aligns with block 0, so it gets -1; block 2 is a tie, kept at +1
    res = flip(_toy_frame())
    assert res.signs.tolist() == [1, -1, 1]
    assert res.partial_sum_norm == pytest.approx(1.0, abs=1e-15)
    expected = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(res.frame.data, expected.astype(np.complex128))


@pytest.mark.parametrize("variant", ["spectral", "frobenius"])
@pytest.mark.parametrize(
    "spec",
    [
        RandomFrameSpec(n=16, r=2, m=10, seed=3),
        RandomFrameSpec(n=9, r=3, m=5, seed=4, field_tag="complex"),
    ],
)
def test_flip_preserves_mu_and_gram_bitwise(spec, variant):
    frame = sample_block_frame(spec)
    res = flip(frame, FlipConfig(norm_variant=variant))
    # sign flips cancel exactly inside every cross-Gram product
    assert res.mu_after == res.mu_before
    assert np.array_equal(gram_map(res.frame), gram_map(frame))


def test_flip_nu_matches_recomputation():
    frame = sample_block_frame(RandomFrameSpec(n=16, r=2, m=10, seed=3))
    res = flip(frame)
    assert res.nu_before == average_coherence(frame)
    assert res.nu_after == average_coherence(res.frame)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flip_reduces_nu_on_seeded_frames(seed):
    frame = sample_block_frame(RandomFrameSpec(n=32, r=2, m=40, seed=seed))
    for variant in ("spectral", "frobenius"):
        res = flip(frame, FlipConfig(norm_variant=variant))
        assert res.nu_after < res.nu_before


def test_flip_frobenius_partial_sum_bound():
    # greedy choice keeps ||F||_F^2 <= sum of block squared norms = m*r
    frame = sample_block_frame(RandomFrameSpec(n=32, r=2, m=40, seed=1))
    res = flip(frame, FlipConfig(norm_variant="frobenius"))
    assert res.partial_sum_norm**2 <= frame.m * frame.r + 1e-9


def test_flip_partial_sum_recompute():
    frame = sample_block_frame(RandomFrameSpec(n=16, r=2, m=12, seed=6))
    for variant, norm in (("spectral", spectral_norm), ("frobenius", frobenius_norm)):
        res = flip(frame, FlipConfig(norm_variant=variant))
        total = frame.block(0).copy()
        for k in range(1, frame.m):
            total += res.signs[k] * frame.block(k)
        # the greedy loop's norms agree with matrixcore's bit for bit
        assert res.partial_sum_norm == norm(total)


def test_flip_result_metadata():
    frame = sample_block_frame(RandomFrameSpec(n=16, r=2, m=12, seed=6))
    res = flip(frame, FlipConfig(norm_variant="frobenius"))
    assert res.norm_variant == "frobenius"
    assert res.nu_bound == flipped_nu_bound(frame.m)
    skipped = flip(frame, FlipConfig(norm_variant="frobenius"), with_coherence=False)
    assert math.isnan(skipped.mu_before) and math.isnan(skipped.nu_after)
    assert np.array_equal(skipped.signs, res.signs)


def test_apply_block_signs():
    frame = sample_block_frame(RandomFrameSpec(n=8, r=2, m=5, seed=0))
    signs = np.array([1, -1, 1, 1, -1])
    out = apply_block_signs(frame, signs)
    assert np.array_equal(out.data, frame.data * np.repeat(signs, 2)[None, :])
    with pytest.raises(FrameError):
        apply_block_signs(frame, np.array([1, -1, 1]))
    with pytest.raises(FrameError):
        apply_block_signs(frame, np.array([1, 0, 1, 1, -1]))
    with pytest.raises(FrameError):
        apply_block_signs(frame, np.array([1, 2, 1, 1, -1]))


def test_flipped_nu_bound_values():
    assert flipped_nu_bound(4) == pytest.approx(1.0, abs=1e-15)
    assert flipped_nu_bound(2048) == pytest.approx((math.sqrt(2048.0) + 1.0) / 2047.0, abs=1e-15)
    with pytest.raises(FrameError):
        flipped_nu_bound(1)


def test_flip_guarantee_min_c():
    m, n, r = 64, 8, 2
    nr = n / r
    want = nr * math.sqrt(
        (m - 1.0) / (m - nr) / math.log(m) * (math.sqrt(m) + 1.0) / (m - 1.0)
    )
    assert flip_guarantee_min_c(m, n, r) == pytest.approx(want, abs=1e-14)
    with pytest.raises(FrameError):
        flip_guarantee_min_c(2, 8, 2)
    with pytest.raises(FrameError):
        flip_guarantee_min_c(3, 8, 2)  # blocks cannot span
    with pytest.raises(FrameError):
        flip_guarantee_min_c(4, 8, 2)  # needs m > n/r


def test_flip_config_validation():
    with pytest.raises(FrameError):
        FlipConfig(norm_variant="nuclear")


def test_random_flip_search():
    frame = sample_block_frame(RandomFrameSpec(n=12, r=2, m=8, seed=2))
    res1 = random_flip_search(frame, trials=16, seed=5)
    res2 = random_flip_search(frame, trials=16, seed=5)
    assert np.array_equal(res1.signs, res2.signs)
    assert res1.nu == res2.nu
    assert res1.best_trial == res2.best_trial
    assert res1.signs[0] == 1
    assert np.all(np.abs(res1.signs) == 1)
    assert 0 <= res1.best_trial < 16
    assert res1.nu == average_coherence(apply_block_signs(frame, res1.signs))
    with pytest.raises(FrameError):
        random_flip_search(frame, trials=0, seed=5)
