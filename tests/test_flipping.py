"""Greedy sign flipping: exact invariants and the average-coherence bound."""

import math

import numpy as np
import pytest

import blockframe.flipping as flipping
import blockframe.frame as frame_module
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
from blockframe.constructions import build_frame
from blockframe.flipping import apply_block_signs
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
    res = flip(frame, variant)
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
    res = flip(frame, variant)
    assert res.signs.tolist() == _greedy_signs_oracle(frame, variant)[0]


@pytest.mark.parametrize("variant", ["spectral", "frobenius"])
@pytest.mark.parametrize(
    "spec",
    [RandomFrameSpec(n=128, r=r, m=256, seed=0) for r in (1, 2, 3)]
    + [RandomFrameSpec(n=48, r=r, m=96, seed=0, field_tag="complex") for r in (1, 2, 3)],
    ids=lambda spec: f"{spec.field_tag}-{spec.n}-{spec.r}-{spec.m}",
)
def test_flip_signs_match_the_greedy_rule_on_benchmark_shapes(spec, variant):
    # the benchmark's flip frames (trial 0) and complex frames of the same make
    frame = sample_block_frame(spec, trial=0)
    res = flip(frame, variant)
    assert res.signs.tolist() == _greedy_signs_oracle(frame, variant)[0]


@pytest.mark.parametrize("variant", ["spectral", "frobenius"])
def test_flip_signs_match_the_greedy_rule_through_exact_ties(variant):
    # kerdock(4) x H_1: a block orthogonal to the running sum gives n+ = n-
    frame = build_frame("kerdock", 4, ("hadamard", 1))
    signs, ties = _greedy_signs_oracle(frame, variant)
    assert ties >= 10
    assert flip(frame, variant).signs.tolist() == signs


def test_flip_nu_matches_recomputation():
    frame = sample_block_frame(RandomFrameSpec(n=16, r=2, m=10, seed=3))
    res = flip(frame)
    assert res.nu_before == average_coherence(frame)
    assert res.nu_after == average_coherence(res.frame)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flip_reduces_nu_on_seeded_frames(seed):
    frame = sample_block_frame(RandomFrameSpec(n=32, r=2, m=40, seed=seed))
    for variant in ("spectral", "frobenius"):
        res = flip(frame, variant)
        assert res.nu_after < res.nu_before


def test_flip_frobenius_partial_sum_bound():
    # greedy choice keeps ||F||_F^2 <= sum of block squared norms = m*r
    frame = sample_block_frame(RandomFrameSpec(n=32, r=2, m=40, seed=1))
    res = flip(frame, "frobenius")
    assert res.partial_sum_norm**2 <= frame.m * frame.r + 1e-9


def test_flip_partial_sum_recompute():
    for r in (1, 2, 3, 4):
        for field_tag in ("real", "complex"):
            spec = RandomFrameSpec(n=16, r=r, m=16, seed=6, field_tag=field_tag)
            frame = sample_block_frame(spec)
            for variant, norm in (("spectral", spectral_norm), ("frobenius", frobenius_norm)):
                res = flip(frame, variant)
                total = frame.block(0).copy()
                for k in range(1, frame.m):
                    total += res.signs[k] * frame.block(k)
                # the running sum is kept transposed; its norm matches matrixcore's bit for bit
                assert res.partial_sum_norm == norm(total), (r, field_tag, variant)


@pytest.mark.parametrize("variant", ["spectral", "frobenius"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_flip_step_solves_an_eigenproblem_only_at_r_above_2(monkeypatch, r, variant):
    counts = {"gram_singular_values": 0, "eigvalsh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    gsv = counted("gram_singular_values", flipping.gram_singular_values)
    monkeypatch.setattr(flipping, "gram_singular_values", gsv)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    # mu and nu have their own sweeps; only the greedy step is counted here
    monkeypatch.setattr(flipping, "worst_case_coherence", lambda frame: 0.0)
    monkeypatch.setattr(flipping, "average_coherence", lambda frame: 0.0)
    frame = sample_block_frame(RandomFrameSpec(n=16, r=r, m=20, seed=2))
    flip(frame, variant)
    expected = frame.m - 1 if variant == "spectral" and r >= 3 else 0
    assert counts == {"gram_singular_values": expected, "eigvalsh": expected}


def test_flip_result_metadata():
    frame = sample_block_frame(RandomFrameSpec(n=16, r=2, m=12, seed=6))
    res = flip(frame, "frobenius")
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


@pytest.mark.parametrize("field_tag", ["real", "complex"])
def test_apply_block_signs_runs_no_frame_checks(monkeypatch, field_tag):
    # negation is exact, so the signed frame equals the checked construction
    # bit for bit without the finiteness and orthonormality passes
    frame = sample_block_frame(RandomFrameSpec(n=8, r=2, m=5, seed=1, field_tag=field_tag))
    signs = np.array([1, -1, -1, 1, -1], dtype=np.int8)
    scale = np.repeat(signs.astype(np.float64), 2)[None, :]
    want = BlockFrame(n=8, r=2, m=5, data=frame.data * scale)

    def refused(*args, **kwargs):
        raise AssertionError("the signed frame was checked again")

    monkeypatch.setattr(frame_module, "as_matrix", refused)
    monkeypatch.setattr(frame_module, "gram_deviation", refused)
    out = apply_block_signs(frame, signs)
    assert isinstance(out, BlockFrame) and (out.n, out.r, out.m) == (8, 2, 5)
    assert out.data.dtype == want.data.dtype and out.field_tag == field_tag
    assert out.data.tobytes() == want.data.tobytes()
    with pytest.raises(FrameError, match="signs must be a vector of"):
        apply_block_signs(frame, np.array([1, -1, 1, 1, 0]))


@pytest.mark.filterwarnings("error")
def test_apply_block_signs_refuses_non_real_signs():
    # |1j| == 1, but casting it to a real sign would drop it to 0 with a ComplexWarning
    frame = sample_block_frame(RandomFrameSpec(n=8, r=2, m=5, seed=0))
    with pytest.raises(FrameError, match="signs must be a vector of"):
        apply_block_signs(frame, np.array([1j, 1, 1, 1, 1]))
    with pytest.raises(FrameError, match="signs must be a vector of"):
        apply_block_signs(frame, np.array([1, -1, 1, 1, np.exp(0.5j)]))
    out = apply_block_signs(frame, np.array([1, -1, 1, 1, -1], dtype=np.complex128))
    assert np.array_equal(out.data, apply_block_signs(frame, np.array([1, -1, 1, 1, -1])).data)


def test_flipped_nu_bound_values():
    assert flipped_nu_bound(4) == pytest.approx(1.0, abs=1e-15)
    assert flipped_nu_bound(2048) == pytest.approx((math.sqrt(2048.0) + 1.0) / 2047.0, abs=1e-15)
    with pytest.raises(FrameError):
        flipped_nu_bound(1)
    # a count beyond int64 is still a Python int that math.sqrt takes
    assert flipped_nu_bound(2**64) == (2.0**32 + 1.0) / (2.0**64 - 1.0)
    assert flipped_nu_bound(np.int64(2048)) == flipped_nu_bound(2048)


def test_flip_config_validation(monkeypatch):
    # an unknown norm is refused before the greedy loop and the mu sweep
    calls = []
    monkeypatch.setattr(flipping, "_step_norms", lambda *args: calls.append("step"))
    monkeypatch.setattr(flipping, "worst_case_coherence", lambda frame: calls.append("mu"))
    frame = sample_block_frame(RandomFrameSpec(n=16, r=2, m=10, seed=3))
    with pytest.raises(FrameError, match="unknown norm variant 'nuclear'"):
        flip(frame, norm_variant="nuclear")
    assert calls == []

