"""Block frames with low worst-case and average block coherence.

A block frame is m concatenated n x r blocks, each with orthonormal
columns.  The package measures their coherence, compares against the known
lower and upper bounds, builds the deterministic optimal families, samples
random frames, improves average coherence by sign flipping, and runs
block-sparse recovery experiments.

Every callable exported here returns a finite result or raises FrameError
(ConvergenceError from the two iterative solvers), and every count goes
through matrixcore.check_count or frame.check_nrm.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, FrameError
from .matrixcore import frobenius_norm, hadamard_sylvester, kronecker, spectral_norm
from .frame import (
    BlockFrame,
    average_coherence,
    average_column_coherence,
    chordal_distance,
    gram_map,
    spectral_distance,
    validate,
    worst_case_coherence,
)
from .bounds import (
    log_beta,
    overlap_tail_bound,
    reg_inc_beta,
    solve_threshold,
    welch_coherence_lower,
)
from .constructions import (
    alltop_gabor,
    discrete_chirp,
    harmonic_qr_etf,
    id_hadamard_union,
    kerdock_real,
    kron_from_etf,
    kron_from_flat_union,
    steiner_pairs_etf,
)
from .sampling import (
    RandomFrameSpec,
    default_block_count,
    empirical_mu_curve,
    parallel_map,
    sample_block_frame,
    sample_subspace,
    substream_rng,
)
from .flipping import flip, flipped_nu_bound
from .blockcs import run_ndp_experiment
