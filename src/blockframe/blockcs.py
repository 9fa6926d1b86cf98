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
from .flipping import flip, flipped_nu_bound
from .frame import check_field
from .matrixcore import check_count, check_entries
from .sampling import (
    RandomFrameSpec,
    keyed_rng,
    parallel_map,
    sample_block_frame,
    substream_keys,
)


@dataclass(frozen=True)
class SignalSpec:
    m: int
    r: int
    k: int
    dynamic_range: float = 10.0
    field_tag: str = "real"

    def __post_init__(self):
        check_count(self.k, "k")
        if not self.k <= self.m:
            raise FrameError(f"need 1 <= k <= m, got k={self.k}, m={self.m}")
        if not 1.0 <= self.dynamic_range < np.inf:
            raise FrameError(
                f"dynamic_range must be finite and >= 1, got {self.dynamic_range}"
            )
        check_field(self.field_tag)


def gen_signal(spec, rng):
    """Block-sparse coefficient vector and its support (sorted block ids)."""
    support = np.sort(rng.choice(spec.m, size=spec.k, replace=False))
    mags = rng.uniform(1.0, spec.dynamic_range, size=(spec.k, spec.r))
    if spec.field_tag == "real":
        phases = rng.integers(0, 2, size=(spec.k, spec.r)) * 2.0 - 1.0
    else:
        phases = np.exp(2j * np.pi * rng.random(size=(spec.k, spec.r)))
    x = np.zeros(spec.m * spec.r, dtype=phases.dtype)
    x.reshape(spec.m, spec.r)[support] = mags * phases
    return x, support


def _energies(c, r):
    """||A_i* y||_2 per block from c = A* y, over c's last axis.

    The arithmetic is np.linalg.norm(axis=-1)'s, so any stack of c gives
    each block the bits one call on that c alone would.
    """
    c = c.reshape(*c.shape[:-1], c.shape[-1] // r, r)
    return np.sqrt(np.add.reduce((c.conj() * c).real, axis=-1))


def _ranks(energies):
    """Each block's place in the order of decreasing energy, over the last
    axis: one stable argsort of the negated energies, so equal energies
    rank the lower block index first.  The k blocks of rank < k are the
    ones thresholding keeps."""
    order = np.argsort(-energies, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(order.shape[-1]), axis=-1)
    return ranks


def one_step_group_threshold(frame, y, k):
    """Indices of the k blocks with largest ||A_i* y||_2, ascending order.

    Equal energies resolve to the lower block index (stable sort on the
    negated scores), so the rule is fully deterministic.
    """
    if not 1 <= k <= frame.m:
        raise FrameError(f"need 1 <= k <= m, got k={k}")
    c = frame.data.conj().T @ np.asarray(y)
    return np.flatnonzero(_ranks(_energies(c, frame.r)) < k)


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
    SNR relative to the mean measurement power is added from the sibling
    substream (seed, k, bits(dr), trial, 1).  snr_db must be finite, and a
    trial whose noise takes the measurements' ||y||^2 out of float64 is
    refused (for n = 8 and dynamic range 10, from about -3060 dB down).

    The keys of every signal come from one substream_keys call, and those
    of the noise from one more; each trial draws from one Philox, re-keyed
    per draw.  A trial scores each frame in arrays: the two products
    y = A x and c = A* y per cell, as matrix-vector products (the bits of a
    matrix-matrix product need not be theirs), then the energies of every
    cell in one pass and one ranking (_ranks).  A cell's NDP is the share
    of its true blocks ranked k or later.  Trials parallelize over threads;
    results are bit-identical either way.
    """
    if not frames:
        raise FrameError("no frames given")
    trials = check_count(trials, "trials")
    if snr_db is not None and not np.isfinite(snr_db):
        raise FrameError(f"snr_db must be finite, got {snr_db}")
    cells = [(check_count(k, "k"), dr) for k in k_grid for dr in dr_grid]
    # a signal of k blocks has at least k entries: a k that no signal can
    # hold is refused here, before it is keyed as an int64
    check_entries(max((k for k, _ in cells), default=0), "a signal of that many blocks")
    check_entries(2 * len(cells) * trials, f"substream keys of {len(cells)} cells x {trials} trials")
    ks = np.array([k for k, _ in cells], dtype=np.int64)
    path = (
        ks[:, None],
        np.array([np.float64(dr).view(np.uint64) for _, dr in cells], np.uint64)[:, None],
        np.arange(trials),
    )
    signal_keys = substream_keys(seed, path)
    noise_keys = None if snr_db is None else substream_keys(seed, (*path, 1))
    # block j of the concatenated supports belongs to cell cell_of[j]
    cell_of = np.repeat(np.arange(len(cells)), ks)

    def one_trial(t):
        built = [obj(t) if callable(obj) else obj for _, obj in frames]
        shapes = [(frame.n, frame.r, frame.m) for frame in built]
        for (label, _), shape in zip(frames, shapes):
            if shape != shapes[0]:
                raise FrameError(f"frame {label!r} has shape {shape}, expected {shapes[0]}")
        _, r, m = shapes[0]
        rng_at = keyed_rng()
        xs, supports = [], [np.empty(0, np.intp)]  # concatenated below, even when empty
        for j, (k, dr) in enumerate(cells):
            spec = SignalSpec(m=m, r=r, k=k, dynamic_range=dr, field_tag=field_tag)
            x, supp = gen_signal(spec, rng_at(signal_keys[j, t]))
            xs.append(x)
            supports.append(supp)
        energies = []
        for frame in built:
            a, ah = frame.data, frame.data.conj().T
            c = np.empty((len(xs), m * r), np.result_type(a, *xs))
            for j, x in enumerate(xs):
                y = a @ x
                if snr_db is not None:
                    y = _add_noise(y, snr_db, rng_at(noise_keys[j, t]))
                c[j] = ah @ y
            energies.append(_energies(c, r))
        ranks = _ranks(np.stack(energies))
        # a cell's misses are its true blocks ranked k or later
        missed = ranks[:, cell_of, np.concatenate(supports)] >= ks[cell_of]
        misses = np.add.reduceat(missed, np.cumsum(ks) - ks, axis=1)
        return (misses / ks).T

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
    realizations = check_count(realizations, "realizations")
    rows = []
    for ri, r in enumerate(r_list):
        spec = RandomFrameSpec(n=n, r=r, m=m, seed=seed, field_tag="real")

        def one_run(t, _spec=spec, _ri=ri):
            frame = sample_block_frame(_spec, _ri, t)
            res = flip(frame, norm_variant)
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
