"""Greedy sign flipping: lower the average block coherence, keep the rest.

One pass over the blocks maintains a running sum F of the signed blocks.
Block k+1 joins with whichever sign keeps ||F +- A_{k+1}|| smaller (ties go
to +1).  Flipping a block negates whole columns, so cross-Gram singular
values, worst-case coherence, and all subspace distances are untouched; only
the average coherence moves.  The pair sweep is sign-invariant bit for bit,
so flip measures mu once and checks only the premise of that argument: every
flipped block is bitwise its original times its sign.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FrameError
from .frame import BlockFrame, average_coherence, worst_case_coherence
from .matrixcore import batch_spectral_norms

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

    A spectral step takes the norms of F + A_k and F - A_k in one eigen call
    on their stack; a Frobenius step takes two plain norms.  The running
    sums are built from validated blocks, so the final norm goes to numpy
    directly, without as_matrix; partial_sum_norm equals spectral_norm or
    frobenius_norm bit for bit.

    mu_after is mu_before: it is not swept again, because the flipped frame
    is checked to be the original with each block bitwise times its sign,
    and the pair sweep gives such a frame the same mu bit for bit.
    """
    if config.norm_variant == "spectral":
        order = 2

        def step_norms(plus, minus):
            return batch_spectral_norms(np.stack((plus, minus)))

    else:
        order = None

        def step_norms(plus, minus):
            return np.linalg.norm(plus), np.linalg.norm(minus)

    m = frame.m
    signs = np.ones(m, dtype=np.int8)
    f_sum = frame.block(0)
    for k in range(1, m):
        b = frame.block(k)
        plus, minus = f_sum + b, f_sum - b
        n_plus, n_minus = step_norms(plus, minus)
        if n_plus - n_minus <= _TIE_TOL:
            f_sum = plus
        else:
            signs[k] = -1
            f_sum = minus
    flipped = apply_block_signs(frame, signs)
    if not np.array_equal(flipped.blocks3d(), frame.blocks3d() * signs[:, None, None]):
        raise RuntimeError("a flipped block is not bitwise +- its original")
    mu = worst_case_coherence(frame)
    return FlipResult(
        signs=signs,
        frame=flipped,
        mu_before=mu,
        mu_after=mu,
        nu_before=average_coherence(frame),
        nu_after=average_coherence(flipped),
        nu_bound=flipped_nu_bound(m),
        partial_sum_norm=float(np.linalg.norm(f_sum, order)),
        norm_variant=config.norm_variant,
    )
