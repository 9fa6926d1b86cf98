"""Block frames with low worst-case and average block coherence.

A block frame is m concatenated n x r blocks, each with orthonormal
columns.  The package measures their coherence, compares against the known
lower and upper bounds, builds the deterministic optimal families, samples
random frames, improves average coherence by sign flipping, and runs
block-sparse recovery experiments.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, FrameError
from .matrixcore import (
    as_matrix,
    batch_singular_values,
    batch_spectral_norms,
    dft_matrix,
    frobenius_norm,
    gram_deviation,
    hadamard_sylvester,
    kronecker,
    orthonormalize,
    spectral_norm,
)
from .frame import (
    BlockFrame,
    ValidationRecord,
    average_coherence,
    average_column_coherence,
    chordal_distance,
    gram_map,
    spectral_distance,
    validate,
    worst_case_coherence,
)
from .bounds import (
    ThresholdSolution,
    etf_max_blocks,
    log_beta,
    log_gamma,
    log_reg_inc_beta,
    max_equi_isoclinic,
    max_orthobases_blocks,
    orthobases_coherence_lower,
    overlap_tail_bound,
    rankin_chordal_upper,
    rankin_chordal_upper_tight,
    reg_inc_beta,
    shannon_entropy,
    solve_threshold,
    spectral_distance_upper,
    tail_exponent,
    welch_coherence_lower,
)
from .constructions import (
    FrameRecipe,
    alltop_gabor,
    build_column_matrix,
    build_frame,
    default_kron_factor,
    discrete_chirp,
    gf2_rank,
    harmonic_qr_etf,
    id_hadamard_union,
    is_prime,
    kerdock_real,
    kerdock_set,
    kron_from_etf,
    kron_from_flat_union,
    read_kerdock_set_file,
    steiner_pairs_etf,
    validate_kerdock_set,
    verify_etf,
    verify_flat_union,
)
from .sampling import (
    CurvePoint,
    RandomFrameSpec,
    default_block_count,
    empirical_mu_curve,
    parallel_map,
    sample_block_frame,
    sample_subspace,
    substream_rng,
)
from .flipping import (
    FlipConfig,
    FlipResult,
    RandomFlipResult,
    apply_block_signs,
    flip,
    flip_guarantee_min_c,
    flipped_nu_bound,
    random_flip_search,
)
from .blockcs import (
    FlipTableRow,
    NDPResult,
    SignalSpec,
    gen_signal,
    ndp,
    one_step_group_threshold,
    run_flipping_table,
    run_ndp_experiment,
)
from .io import RunManifest, read_bfm, sha256_file, write_bfm
from .cli import CoherenceReport, coherence_report
