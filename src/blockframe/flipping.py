"""Greedy sign flipping: lower the average block coherence, keep the rest.

One pass over the blocks maintains a running sum F of the signed blocks.
Block k+1 joins with whichever sign keeps ||F +- A_{k+1}|| smaller (ties go
to +1).  Flipping a block negates whole columns, so cross-Gram singular
values, worst-case coherence, and all subspace distances are untouched; only
the average coherence moves.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FrameError
from .frame import BlockFrame, average_coherence, worst_case_coherence
from .sampling import substream_rng

_TIE_TOL = 1e-12


@dataclass(frozen=True)
class FlipConfig:
    norm_variant: str = "spectral"

    def __post_init__(self):
        if self.norm_variant not in ("spectral", "frobenius"):
            raise FrameError(f"unknown norm variant {self.norm_variant!r}")


@dataclass(frozen=True)
class FlipResult:
    signs: np.ndarray
    frame: BlockFrame
    mu_before: float
    mu_after: float
    nu_before: float
    nu_after: float
    nu_bound: float
    partial_sum_norm: float
    norm_variant: str


def apply_block_signs(frame, signs):
    """New frame with block i multiplied by signs[i] (each +-1)."""
    signs = np.asarray(signs)
    if signs.shape != (frame.m,) or not np.all(np.abs(signs) == 1):
        raise FrameError("signs must be a vector of +-1, one per block")
    scale = np.repeat(signs.astype(np.float64), frame.r)
    return BlockFrame(n=frame.n, r=frame.r, m=frame.m, data=frame.data * scale[None, :])


def flipped_nu_bound(m):
    """(sqrt(m)+1)/(m-1): what the flipped frame's average coherence obeys."""
    if m < 2:
        raise FrameError("bound needs m >= 2")
    return float(np.sqrt(m) + 1.0) / (m - 1.0)


def flip_guarantee_min_c(m, n, r):
    """Smallest constant c for which the flipping guarantee's premise holds.

    c = (n/r) * sqrt( (m-1)/(m - n/r) * 1/ln(m) * (sqrt(m)+1)/(m-1) ).
    """
    if m < 3:
        raise FrameError("need m >= 3 so ln(m) > 1 region is meaningful")
    if not r < n <= m * r:
        raise FrameError(f"need r < n <= m*r, got n={n}, r={r}, m={m}")
    nr = n / r
    if m <= nr:
        raise FrameError("need m > n/r")
    val = (m - 1.0) / (m - nr) / np.log(m) * (np.sqrt(m) + 1.0) / (m - 1.0)
    return float(nr * np.sqrt(val))


def flip(frame, config=FlipConfig(), with_coherence=True):
    """Algorithm: greedy sign choice per block against the running sum.

    The running sums are built from validated blocks, so their norms go to
    numpy directly, without as_matrix; the values equal spectral_norm and
    frobenius_norm bit for bit.
    """
    order = 2 if config.norm_variant == "spectral" else None

    def norm(x):
        return float(np.linalg.norm(x, order))

    m, r = frame.m, frame.r
    signs = np.ones(m, dtype=np.int8)
    f_sum = frame.block(0).copy()
    for k in range(1, m):
        b = frame.block(k)
        n_plus = norm(f_sum + b)
        n_minus = norm(f_sum - b)
        if n_plus - n_minus <= _TIE_TOL:
            f_sum += b
        else:
            signs[k] = -1
            f_sum -= b
    flipped = apply_block_signs(frame, signs)
    mu_b = mu_a = nu_b = nu_a = float("nan")
    if with_coherence:
        mu_b = worst_case_coherence(frame)
        mu_a = worst_case_coherence(flipped)
        nu_b = average_coherence(frame)
        nu_a = average_coherence(flipped)
    return FlipResult(
        signs=signs,
        frame=flipped,
        mu_before=mu_b,
        mu_after=mu_a,
        nu_before=nu_b,
        nu_after=nu_a,
        nu_bound=flipped_nu_bound(m),
        partial_sum_norm=norm(f_sum),
        norm_variant=config.norm_variant,
    )


@dataclass(frozen=True)
class RandomFlipResult:
    signs: np.ndarray
    nu: float
    best_trial: int


def random_flip_search(frame, trials, seed):
    """Best of `trials` random sign vectors (first block pinned to +1).

    Ties in the achieved average coherence keep the earliest trial, so the
    result is deterministic in (seed, trials).
    """
    if trials < 1:
        raise FrameError("need at least one trial")
    best = None
    for t in range(trials):
        rng = substream_rng(seed, t)
        signs = rng.integers(0, 2, size=frame.m).astype(np.int8) * 2 - 1
        signs[0] = 1
        nu = average_coherence(apply_block_signs(frame, signs))
        if best is None or nu < best.nu:
            best = RandomFlipResult(signs=signs, nu=nu, best_trial=t)
    return best
