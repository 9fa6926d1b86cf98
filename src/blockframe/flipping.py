"""Greedy sign flipping: lower the average block coherence, keep the rest.

One pass over the blocks maintains a running sum F of the signed blocks.
Block k+1 joins with whichever sign keeps ||F +- A_{k+1}|| smaller (ties go
to +1); flip(frame, norm_variant) takes that norm to be the spectral or the
Frobenius one.  Flipping a block negates whole columns, so cross-Gram singular
values, worst-case coherence, and all subspace distances are untouched; only
the average coherence moves.  The pair sweep is sign-invariant bit for bit,
so flip measures mu once and checks only the premise of that argument: every
flipped block is bitwise its original times its sign.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameError
from .frame import BlockFrame, average_coherence, worst_case_coherence
from .matrixcore import check_count, gram_singular_values

_TIE_TOL = 1e-12


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
    if signs.shape != (frame.m,) or not np.all((signs.imag == 0) & (np.abs(signs) == 1)):
        raise FrameError("signs must be a vector of +-1, one per block")
    return frame._signed(signs)


def flipped_nu_bound(m):
    """(sqrt(m)+1)/(m-1): what the flipped frame's average coherence obeys."""
    m = check_count(m, "m", minimum=2)
    try:
        return (math.sqrt(m) + 1.0) / (m - 1.0)
    except OverflowError:  # m past float64: the bound 1/(sqrt(m)-1), to far below an ulp
        return 1 / (math.isqrt(m) - 1)


def _root(x):
    # a difference of Gram entries can round a zero square to a hair below 0
    return math.sqrt(max(x, 0.0))


def _top_root(h11, h22, h12):
    """sqrt of the top eigenvalue of [[h11, h12], [conj(h12), h22]], as in singular_values_2x2."""
    return _root((h11 + h22) / 2 + math.hypot((h11 - h22) / 2, abs(h12)))


def _step_norms(r, spectral):
    """The map from G to the norms of F + A_k and F - A_k.

    G = conj(W) W^T is the 2r x 2r Gram of the rows of W = [F | A_k]^T, so
    H+- = G_FF + G_AA +- (G_FA + G_FA^H) is the Gram of F +- A_k: its trace
    is the squared Frobenius norm and its largest eigenvalue the squared
    spectral norm.  At r = 1 the two are one scalar and at r = 2 the
    eigenvalue has a closed form, both taken in Python floats; at r >= 3 one
    gram_singular_values call on the (2, r, r) stack gives both spectral
    norms.
    """
    if not spectral or r == 1:

        def step(g):
            # tr H+- = tr G_FF + tr G_AA +- 2 Re tr G_FA
            rows = g.tolist()
            s = x = 0.0
            for i in range(r):
                s += rows[i][i].real + rows[r + i][r + i].real
                x += rows[i][r + i].real
            return _root(s + 2 * x), _root(s - 2 * x)

    elif r == 2:

        def step(g):
            (f11, f12, x11, x12), (_, f22, x21, x22), (_, _, a11, a12), (_, _, _, a22) = g.tolist()
            # upper triangles of S = G_FF + G_AA and D = G_FA + G_FA^H; H+- = S +- D
            s11, s22, s12 = f11.real + a11.real, f22.real + a22.real, f12 + a12
            d11, d22, d12 = 2 * x11.real, 2 * x22.real, x12 + x21.conjugate()
            return (
                _top_root(s11 + d11, s22 + d22, s12 + d12),
                _top_root(s11 - d11, s22 - d22, s12 - d12),
            )

    else:
        # H+ and H- as one product of +-1 weights with the blocks G_FF, G_FA,
        # G_AF, G_AA, each flattened; G_AF stands for G_FA^H, which it is up
        # to rounding (bit for bit on real frames, where G is symmetric)
        weights = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, -1.0, 1.0]])

        def step(g):
            h = weights @ g.reshape(2, r, 2, r).swapaxes(1, 2).reshape(4, r * r)
            return gram_singular_values(h.reshape(2, r, r))[:, -1].tolist()

    return step


def flip(frame, norm_variant="spectral"):
    """Algorithm: greedy sign choice per block against the running sum.

    norm_variant, "spectral" or "frobenius", is the norm the greedy step
    compares; any other is refused before any work.

    F and A_k are kept transposed as the rows of one (2r, n) buffer W, and
    each step forms the one product conj(W) W^T and takes both candidate
    norms from it (_step_norms), then adds or subtracts A_k's rows in F's in
    place.  The running sums are built from validated blocks, so the final
    norm goes to numpy directly, without as_matrix; it is taken of F in the
    (n, r) layout, so partial_sum_norm equals spectral_norm or
    frobenius_norm of the signed sum bit for bit.

    mu_after is mu_before: it is not swept again, because the flipped frame
    is checked to be the original with each block bitwise times its sign,
    and the pair sweep gives such a frame the same mu bit for bit.
    """
    if norm_variant not in ("spectral", "frobenius"):
        raise FrameError(f"unknown norm variant {norm_variant!r}")
    spectral = norm_variant == "spectral"
    m, r = frame.m, frame.r
    step_norms = _step_norms(r, spectral)
    blocks = frame.blocks3d()
    rows = blocks.swapaxes(1, 2)
    signs = np.ones(m, dtype=np.int8)
    w = np.empty((2 * r, frame.n), dtype=frame.data.dtype)
    f_rows, a_rows = w[:r], w[r:]
    f_rows[...] = rows[0]
    for k in range(1, m):
        a_rows[...] = rows[k]
        n_plus, n_minus = step_norms(np.matmul(w.conj(), w.T))
        if n_plus - n_minus <= _TIE_TOL:
            f_rows += a_rows
        else:
            signs[k] = -1
            f_rows -= a_rows
    flipped = apply_block_signs(frame, signs)
    if not np.array_equal(flipped.blocks3d(), blocks * signs[:, None, None]):
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
        partial_sum_norm=float(np.linalg.norm(f_rows.T.copy(), 2 if spectral else None)),
        norm_variant=norm_variant,
    )
