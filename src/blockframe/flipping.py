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


def flip(frame, config=FlipConfig()):
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
    return FlipResult(
        signs=signs,
        frame=flipped,
        mu_before=worst_case_coherence(frame),
        mu_after=worst_case_coherence(flipped),
        nu_before=average_coherence(frame),
        nu_after=average_coherence(flipped),
        nu_bound=flipped_nu_bound(m),
        partial_sum_norm=norm(f_sum),
        norm_variant=config.norm_variant,
    )
