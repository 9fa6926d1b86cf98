"""Block-sparse recovery experiments: signals, thresholding, and harnesses.

Signals have k active blocks chosen uniformly; every entry of an active
block is nonzero, with magnitude uniform on [1, dynamic_range] and random
sign (real) or phase (complex).  Recovery is one-step group thresholding:
keep the k blocks with the largest correlation energy ||A_i* y||_2, ties to
the lower block index.  The score is the non-discovery proportion, the
fraction of true blocks missed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameError
from .flipping import FlipConfig, flip, flipped_nu_bound
from .sampling import RandomFrameSpec, parallel_map, sample_block_frame, substream_rng


@dataclass(frozen=True)
class SignalSpec:
    m: int
    r: int
    k: int
    dynamic_range: float = 10.0
    field_tag: str = "real"

    def __post_init__(self):
        if not 1 <= self.k <= self.m:
            raise FrameError(f"need 1 <= k <= m, got k={self.k}, m={self.m}")
        if not 1.0 <= self.dynamic_range < np.inf:
            raise FrameError(
                f"dynamic_range must be finite and >= 1, got {self.dynamic_range}"
            )
        if self.field_tag not in ("real", "complex"):
            raise FrameError(f"bad field_tag {self.field_tag!r}")


def gen_signal(spec, rng):
    """Block-sparse coefficient vector and its support (sorted block ids)."""
    support = np.sort(rng.choice(spec.m, size=spec.k, replace=False))
    mags = rng.uniform(1.0, spec.dynamic_range, size=(spec.k, spec.r))
    if spec.field_tag == "real":
        phases = rng.integers(0, 2, size=(spec.k, spec.r)) * 2.0 - 1.0
    else:
        phases = np.exp(2j * np.pi * rng.random(size=(spec.k, spec.r)))
    x = np.zeros(spec.m * spec.r, dtype=phases.dtype)
    for idx, blk in enumerate(support):
        x[blk * spec.r : (blk + 1) * spec.r] = mags[idx] * phases[idx]
    return x, support


def one_step_group_threshold(frame, y, k):
    """Indices of the k blocks with largest ||A_i* y||_2, ascending order.

    Equal energies resolve to the lower block index (stable sort on the
    negated scores), so the rule is fully deterministic.
    """
    if not 1 <= k <= frame.m:
        raise FrameError(f"need 1 <= k <= m, got k={k}")
    c = frame.data.conj().T @ np.asarray(y)
    energies = np.linalg.norm(c.reshape(frame.m, frame.r), axis=1)
    picked = np.argsort(-energies, kind="stable")[:k]
    return np.sort(picked)


def ndp(true_support, est_support):
    """Non-discovery proportion |S \\ S_hat| / |S|."""
    s = set(int(i) for i in true_support)
    if not s:
        raise FrameError("true support is empty")
    shat = set(int(i) for i in est_support)
    return len(s - shat) / len(s)


def _noise_ratio(snr_db):
    """10^(-snr_db / 10), the noise-to-signal power ratio; inf where it overflows float64."""
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        return math.inf


def _add_noise(y, snr_db, rng):
    """y plus white Gaussian noise snr_db below its mean power.

    Refuses noise that takes ||y||^2 out of float64.  Where ||y||^2 is finite,
    so is every correlation energy ||A_i* y||^2 <= ||y||^2 that thresholding
    ranks, A_i having orthonormal columns.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        power = float(np.mean(np.abs(y) ** 2))
        sigma = np.sqrt(power * _noise_ratio(snr_db))
        noise = rng.standard_normal(y.shape)
        if np.iscomplexobj(y):
            noise = (noise + 1j * rng.standard_normal(y.shape)) / np.sqrt(2.0)
        noisy = y + sigma * noise
    if not math.isfinite(np.vdot(noisy, noisy).real):
        raise FrameError(f"snr_db {snr_db} takes the noisy measurements out of float64")
    return noisy


@dataclass(frozen=True)
class NDPResult:
    label: str
    k: int
    dynamic_range: float
    mean_ndp: float
    stderr: float
    trials: int


def run_ndp_experiment(
    frames, k_grid, dr_grid, trials, seed, field_tag="real", snr_db=None, threads=1
):
    """Mean NDP per (frame, sparsity, dynamic range).

    frames: list of (label, frame_or_factory) where a factory is called once
    per trial with the trial index, letting random comparison frames be
    redrawn per trial.  For a fixed (k, dr, trial) every frame sees the same
    signal, drawn from the substream (seed, k, bits(dr), trial) against the
    first frame's shape, so curves differ only through the frames.  bits(dr)
    is the IEEE-754 bit pattern of dr, so distinct ranges never share draws,
    whatever the grid order.  With snr_db set, white Gaussian noise at that
    SNR relative to the mean measurement power is added from a sibling
    substream.  snr_db must be finite, and a trial whose noise takes the
    measurements' ||y||^2 out of float64 is refused (for n = 8 and dynamic
    range 10, from about -3060 dB down).  Trials parallelize over threads;
    results are bit-identical either way.
    """
    if not frames:
        raise FrameError("no frames given")
    if trials < 1:
        raise FrameError(f"need at least one trial, got {trials}")
    if snr_db is not None and not np.isfinite(snr_db):
        raise FrameError(f"snr_db must be finite, got {snr_db}")
    cells = [(k, dr) for k in k_grid for dr in dr_grid]

    def one_trial(t):
        built = [(label, obj(t) if callable(obj) else obj) for label, obj in frames]
        shapes = [(frame.n, frame.r, frame.m) for _, frame in built]
        for (label, _), shape in zip(built, shapes):
            if shape != shapes[0]:
                raise FrameError(f"frame {label!r} has shape {shape}, expected {shapes[0]}")
        _, r, m = shapes[0]
        scores = []
        for k, dr in cells:
            sig_spec = SignalSpec(m=m, r=r, k=k, dynamic_range=dr, field_tag=field_tag)
            key = (k, int(np.float64(dr).view(np.uint64)), t)
            x, supp = gen_signal(sig_spec, substream_rng(seed, *key))
            row = []
            for _, frame in built:
                y = frame.data @ x
                if snr_db is not None:
                    y = _add_noise(y, snr_db, substream_rng(seed, *key, 1))
                row.append(ndp(supp, one_step_group_threshold(frame, y, k)))
            scores.append(row)
        return scores

    table = np.asarray(parallel_map(one_trial, range(trials), threads))
    results = []
    for cell, (k, dr) in enumerate(cells):
        for col, (label, _) in enumerate(frames):
            vals = table[:, cell, col]
            stderr = float(vals.std(ddof=1) / np.sqrt(len(vals))) if trials > 1 else 0.0
            results.append(
                NDPResult(
                    label=label,
                    k=int(k),
                    dynamic_range=float(dr),
                    mean_ndp=float(vals.mean()),
                    stderr=stderr,
                    trials=trials,
                )
            )
    return results


@dataclass(frozen=True)
class FlipTableRow:
    r: int
    nu_before_mean: float
    nu_after_mean: float
    improvement_pct: float
    nu_bound: float
    runs: tuple


def run_flipping_table(n, m, r_list, realizations, seed, norm_variant="spectral", threads=1):
    """Average-coherence improvement of greedy flipping on random frames.

    For each r: `realizations` random real frames at (n, m, r), flipped with
    the requested norm.  Rows carry the before/after means, the percentage
    improvement of the mean, the (sqrt(m)+1)/(m-1) bound, and the per-run
    (nu_before, nu_after, mu_before, mu_after) tuples.  Run t of the i-th r
    samples along the substream path (i, t), so rows never share draws.
    """
    if realizations < 1:
        raise FrameError(f"need at least one realization, got {realizations}")
    cfg = FlipConfig(norm_variant=norm_variant)
    rows = []
    for ri, r in enumerate(r_list):
        spec = RandomFrameSpec(n=n, r=r, m=m, seed=seed, field_tag="real")

        def one_run(t, _spec=spec, _ri=ri):
            frame = sample_block_frame(_spec, _ri, t)
            res = flip(frame, cfg)
            return (res.nu_before, res.nu_after, res.mu_before, res.mu_after)

        runs = parallel_map(one_run, range(realizations), threads)
        nu_b = float(np.mean([x[0] for x in runs]))
        nu_a = float(np.mean([x[1] for x in runs]))
        rows.append(
            FlipTableRow(
                r=int(r),
                nu_before_mean=nu_b,
                nu_after_mean=nu_a,
                improvement_pct=100.0 * (1.0 - nu_a / nu_b),
                nu_bound=flipped_nu_bound(m),
                runs=tuple(runs),
            )
        )
    return rows
