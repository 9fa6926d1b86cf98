"""Greedy sign flipping: exact invariants and the average-coherence bound."""

import math

import numpy as np
import pytest

import blockframe.flipping as flipping
from blockframe import (
    FrameError,
    RandomFrameSpec,
    average_coherence,
    flip,
    flipped_nu_bound,
    frobenius_norm,
    gram_map,
    sample_block_frame,
    spectral_norm,
    worst_case_coherence,
)
from blockframe.constructions import FrameRecipe, build_frame
from blockframe.flipping import FlipConfig, apply_block_signs
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


def test_flip_sweeps_mu_once(monkeypatch):
    calls = []

    def counting(frame):
        calls.append(frame)
        return worst_case_coherence(frame)

    monkeypatch.setattr(flipping, "worst_case_coherence", counting)
    frame = sample_block_frame(RandomFrameSpec(n=16, r=2, m=10, seed=3))
    res = flip(frame)
    assert len(calls) == 1
    assert res.mu_after == res.mu_before == worst_case_coherence(frame)


def test_flip_raises_when_a_flipped_block_is_not_plus_minus_its_original(monkeypatch):
    def perturbed(frame, signs):
        out = apply_block_signs(frame, signs)
        data = out.data.copy()
        data[0, frame.r] = np.nextafter(data[0, frame.r], np.inf)
        return BlockFrame(n=frame.n, r=frame.r, m=frame.m, data=data)

    monkeypatch.setattr(flipping, "apply_block_signs", perturbed)
    frame = sample_block_frame(RandomFrameSpec(n=16, r=2, m=10, seed=3))
    with pytest.raises(RuntimeError, match="not bitwise"):
        flip(frame)


def _greedy_signs_oracle(frame, variant):
    """The greedy rule with one np.linalg.norm call per candidate sum.

    Returns the signs and the number of steps whose two norms are equal.
    """
    order = 2 if variant == "spectral" else None
    signs, ties = [1], 0
    f_sum = frame.block(0).copy()
    for k in range(1, frame.m):
        b = frame.block(k)
        n_plus, n_minus = np.linalg.norm(f_sum + b, order), np.linalg.norm(f_sum - b, order)
        ties += n_plus == n_minus
        if n_plus - n_minus <= 1e-12:
            signs.append(1)
            f_sum += b
        else:
            signs.append(-1)
            f_sum -= b
    return signs, ties


@pytest.mark.parametrize("variant", ["spectral", "frobenius"])
@pytest.mark.parametrize("field_tag", ["real", "complex"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_flip_signs_match_the_two_norm_greedy_rule(r, field_tag, variant):
    frame = sample_block_frame(RandomFrameSpec(n=24, r=r, m=60, seed=r, field_tag=field_tag))
    res = flip(frame, FlipConfig(norm_variant=variant))
    assert res.signs.tolist() == _greedy_signs_oracle(frame, variant)[0]


@pytest.mark.parametrize("variant", ["spectral", "frobenius"])
def test_flip_signs_match_the_greedy_rule_through_exact_ties(variant):
    # kerdock(4) x H_1: a block orthogonal to the running sum gives n+ = n-
    frame = build_frame(FrameRecipe(family="kerdock", params={"k": 4}, kron=("hadamard", 1)))
    signs, ties = _greedy_signs_oracle(frame, variant)
    assert ties >= 10
    assert flip(frame, FlipConfig(norm_variant=variant)).signs.tolist() == signs


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


def test_flip_config_validation():
    with pytest.raises(FrameError):
        FlipConfig(norm_variant="nuclear")

