"""Uniformly random subspaces and the empirical coherence curve.

Randomness discipline: every sampled object gets its own counter-based
substream, keyed by a path (seed, ..., block) through numpy's
SeedSequence / Philox pair; experiments put their own indices (grid point,
trial) in the path, never arithmetic on them.  Results are therefore bit-identical however trials are
scheduled, including across thread counts, and any single trial can be
regenerated in isolation.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import solve_threshold
from .errors import FrameError
from .frame import BlockFrame, worst_case_coherence
from .matrixcore import orthonormalize


def substream_rng(seed, *path):
    """Independent generator for one (seed, path...) address."""
    if any(p < 0 for p in path):
        raise FrameError("substream path components must be non-negative")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def parallel_map(fn, items, threads):
    """Order-preserving map, threaded when threads > 1."""
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


@dataclass(frozen=True)
class RandomFrameSpec:
    """Dimensions and seed for one family of random block frames."""

    n: int
    r: int
    m: int
    seed: int
    field_tag: str = "real"

    def __post_init__(self):
        if not self.r < self.n:
            raise FrameError(f"need r < n, got r={self.r}, n={self.n}")
        if not self.n <= self.m * self.r:
            raise FrameError(f"need n <= m*r, got n={self.n}, m*r={self.m * self.r}")
        if self.field_tag not in ("real", "complex"):
            raise FrameError(f"bad field_tag {self.field_tag!r}")


def sample_subspace(n, r, rng, field_tag="real"):
    """Orthonormal basis of a uniformly random r-dimensional subspace.

    Gaussian matrix, thin QR, fixed phase convention; invariance of the
    Gaussian ensemble under rotation makes the span uniform on the
    Grassmannian.
    """
    g = rng.standard_normal((n, r))
    if field_tag == "complex":
        g = g + 1j * rng.standard_normal((n, r))
    return orthonormalize(g)


def sample_unitary(r, rng, field_tag="complex"):
    g = rng.standard_normal((r, r))
    if field_tag == "complex":
        g = g + 1j * rng.standard_normal((r, r))
    return orthonormalize(g)


def sample_block_frame(spec, *path, trial=None):
    """Frame of m independent random blocks; block i uses substream
    (seed, *path, i).

    The path defaults to (0,); trial=t appends t, so sample_block_frame(spec,
    trial=t) draws from (seed, t, i).
    """
    if trial is not None:
        path += (trial,)
    path = path or (0,)
    blocks = [
        sample_subspace(spec.n, spec.r, substream_rng(spec.seed, *path, i), spec.field_tag)
        for i in range(spec.m)
    ]
    return BlockFrame.from_blocks(blocks)


@dataclass(frozen=True)
class CurvePoint:
    beta: float
    mean_mu: float
    max_mu: float
    theory_mu: float


def default_block_count(n, r, cap=400):
    """(n/r)^2 blocks, floored, capped; mirrors the deterministic recipes."""
    return min(int((n / r) ** 2), cap)


def empirical_mu_curve(n, r_grid, trials, seed, m_cap=400, m_rule=None, threads=1):
    """Worst-case coherence of random frames against the asymptotic threshold.

    For each r in the grid: m blocks (default min((n/r)^2, m_cap)) are drawn
    per trial and the frame's worst-case coherence computed; the row records
    the mean and max over trials next to sqrt(a_hat(beta) * beta).
    """
    if trials < 1:
        raise FrameError(f"need at least one trial, got {trials}")
    if m_rule is None:
        m_rule = lambda nn, rr: default_block_count(nn, rr, cap=m_cap)
    points = []
    for ri, r in enumerate(r_grid):
        if not 2 * r < n:
            raise FrameError(f"grid point r={r} violates 2r < n")
        m = m_rule(n, r)
        beta = r / n
        spec = RandomFrameSpec(n=n, r=r, m=m, seed=seed, field_tag="real")

        def one_trial(t, _spec=spec, _ri=ri):
            # trial substreams are keyed on (grid index, trial) so grid
            # points stay independent of each other
            return worst_case_coherence(sample_block_frame(_spec, _ri, t))

        mus = parallel_map(one_trial, range(trials), threads)
        theory = float(np.sqrt(solve_threshold(beta).multiplier * beta))
        points.append(
            CurvePoint(
                beta=beta,
                mean_mu=float(np.mean(mus)),
                max_mu=float(np.max(mus)),
                theory_mu=theory,
            )
        )
    return points
