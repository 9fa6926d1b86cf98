"""The benchmark's three workloads.

Each workload gives prepare() (fresh inputs), warm() (one small operation
through the same code paths), inputs(i) (untimed preparation of operation
i), run(inputs) (the timed operation) and check(inputs, outputs) (the
untimed output checks).  The program is called through its modules'
attributes, so the tracer's wrappers see every call.
"""

import contextlib
import io
import shutil
from pathlib import Path

import numpy as np

from blockframe import blockcs, cli, flipping, frame, sampling
from blockframe.frame import BlockFrame
from blockframe.sampling import RandomFrameSpec

import checks

# kerdock(4) (x) H_1: n=32, r=2, m=128, a union of 8 mutually unbiased orthobases
# of 16 blocks each
KERDOCK = ("--family", "kerdock", "--k", "4", "--kron", "hadamard:1")


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"blockframe {argv[0]} exited with {rc}")


def _op_seed(seed, i):
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class KerdockCli:
    """construct, then analyze and flip of the constructed frame, in process."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir

    def prepare(self):
        _fresh(self.dir)

    def warm(self):
        self.run(self.inputs(0))

    def inputs(self, i):
        op = _fresh(self.dir / "op")
        return op / "construct", op / "analyze", op / "flip"

    def run(self, dirs):
        c, a, f = dirs
        _cli("construct", *KERDOCK, "--seed", self.seed, "--out-dir", c)
        _cli("analyze", c / "frame.bfm", "--seed", self.seed, "--out-dir", a)
        _cli("flip", c / "frame.bfm", "--seed", self.seed, "--out-dir", f)

    def check(self, dirs, _):
        checks.check_kerdock_cli(*dirs)


class RandomFrames:
    """One round: mu of a random frame, then greedy flips at r = 1, 2, 3."""

    MU = (200, 10, 200)
    FLIP = [(128, r, 256) for r in (1, 2, 3)]
    WARM_MU = (40, 4, 40)
    WARM_FLIP = [(32, r, 64) for r in (1, 2, 3)]

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir

    def prepare(self):
        _fresh(self.dir)

    def warm(self):
        self.run(self._specs(self.WARM_MU, self.WARM_FLIP, 0))

    def _specs(self, mu, flips, trial):
        def spec(shape):
            return RandomFrameSpec(*shape, seed=self.seed, field_tag="real")

        return trial, spec(mu), [spec(s) for s in flips]

    def inputs(self, i):
        return self._specs(self.MU, self.FLIP, i)

    def run(self, inputs):
        trial, mu_spec, flip_specs = inputs
        f = sampling.sample_block_frame(mu_spec, trial=trial)
        mu = frame.worst_case_coherence(f)
        flips = []
        for spec in flip_specs:
            g = sampling.sample_block_frame(spec, trial=trial)
            flips.append((g, flipping.flip(g)))
        return (f, mu), flips

    def check(self, inputs, outputs):
        (f, mu), flips = outputs
        checks.check_random_mu(f.data, f.n, f.r, f.m, mu)
        for g, res in flips:
            checks.check_random_flip(g.data, g.r, res)


class CsNdp:
    """The CLI cs experiment: a Kerdock frame against random frames per trial."""

    K_GRID = tuple(range(1, 9))
    DR_GRID = (10.0, 100.0)
    TRIALS = 3
    RANDOM = "rnd=32,2,128"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir

    def prepare(self):
        _fresh(self.dir)
        _cli("construct", *KERDOCK, "--out-dir", self.dir / "det")
        self.det = self.dir / "det" / "frame.bfm"
        n, r, m, data = checks.read_bfm_text(self.det)
        self.det_frame = BlockFrame(n=n, r=r, m=m, data=data, field_tag="real")

    def warm(self):
        self._cs(_fresh(self.dir / "warm"), "1,2", self.DR_GRID, 1, self.seed)

    def _cs(self, out, k_grid, dr_grid, trials, seed):
        _cli(
            "cs",
            "--frame", f"det={self.det}",
            "--random", self.RANDOM,
            "--k-grid", k_grid,
            "--dr-grid", ",".join(f"{dr:g}" for dr in dr_grid),
            "--trials", trials,
            "--seed", seed,
            "--out-dir", out,
        )

    def inputs(self, i):
        return _fresh(self.dir / "op"), _op_seed(self.seed, i)

    def run(self, inputs):
        out, seed = inputs
        self._cs(out, ",".join(map(str, self.K_GRID)), self.DR_GRID, self.TRIALS, seed)

    def check(self, inputs, _):
        out, seed = inputs
        checks.check_ndp_csv(out / "ndp.csv", ("det", "rnd"), self.K_GRID, self.DR_GRID, self.TRIALS)
        checks.check_manifest(out / "cs-manifest.json")
        fr = self.det_frame
        rng = np.random.default_rng([self.seed, seed])
        for k in self.K_GRID:
            for dr in self.DR_GRID:
                y = fr.data @ checks.draw_block_sparse(rng, fr.m, fr.r, k, dr)
                picked = blockcs.one_step_group_threshold(fr, y, k)
                checks.check_threshold_picks(picked, fr.data, fr.r, y, k)


WORKLOADS = {"kerdock-cli": KerdockCli, "random-frames": RandomFrames, "cs-ndp": CsNdp}
