"""The boundary contract, tested once over the whole public API.

Every callable that blockframe exports, and every bounds function that the
CLI's bounds command calls, returns a finite result or raises FrameError
(or ConvergenceError from an iterative solver), whatever it is given:
counts that are negative, zero, fractional, NaN, infinite, past float64's
range, numpy integers or bools; arrays that are empty, 0 x 0, 0 x 3,
NaN-holding or not orthonormal.  TABLE lists one argument strategy per
callable, so a new export fails here until it is listed.

Valid values are kept small (hadamard_sylvester(13) alone is 512 MiB),
and a thread count is drawn only from values that start at most one
worker.
"""

import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockframe
from blockframe import ConvergenceError, FrameError, bounds, cli
from blockframe.constructions import kerdock_set

BAD = [-1, 0, 2.5, math.nan, math.inf, -math.inf, 10**400, np.int64(4), True]


def numbers(*valid):
    """One of the bad numbers, or one of the valid ones given."""
    return st.sampled_from(BAD + list(valid))


# nan, 2.5, 0 and -1 start no thread; 1 and True run in the caller's
THREADS = st.sampled_from([math.nan, 2.5, 0, -1, 1, True])

Q4, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
BAD_ARRAYS = [
    np.empty(0),
    np.empty((0, 0)),
    np.empty((0, 3)),
    np.full((4, 4), math.nan),
    np.ones((4, 8)),  # columns neither unit nor orthogonal
]
H1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def arrays(*valid):
    """One of the bad arrays, or one of the valid ones given."""
    return st.sampled_from(BAD_ARRAYS + list(valid))


FLAT = blockframe.kron_from_flat_union(blockframe.id_hadamard_union(2), H1)
FRAMES = st.sampled_from(
    [
        blockframe.sample_block_frame(blockframe.RandomFrameSpec(8, 2, 6, seed=0)),
        blockframe.sample_block_frame(blockframe.RandomFrameSpec(6, 1, 10, 1, "complex")),
        blockframe.sample_block_frame(blockframe.RandomFrameSpec(12, 4, 6, seed=2)),
        FLAT,
    ]
)
SPECS = st.sampled_from(
    [
        blockframe.RandomFrameSpec(4, 2, 4, 0),
        blockframe.RandomFrameSpec(5, 1, 9, 10**400, "complex"),
    ]
)
FIELDS = st.sampled_from(["real", "complex", "quaternion", math.nan])
NRM = (numbers(4, 8), numbers(1, 2), numbers(4, 16))
KERDOCK = kerdock_set(4)


def kerdock_sets():
    """The generated set, one with a repeated matrix, one with diagonal bits, and bad shapes."""
    dup = list(KERDOCK)
    dup[1] = dup[0]
    diag = [p.copy() for p in KERDOCK]
    diag[5][0, 0] = diag[6][1, 1] = 1
    return st.sampled_from(
        [None, KERDOCK, dup, diag, [], [np.empty((0, 0))] * 8, [np.full((4, 4), math.nan)] * 8]
    )


def _args(*positional, **keywords):
    return st.tuples(st.tuples(*positional), st.fixed_dictionaries(keywords))


# callable -> strategy of (args, kwargs)
TABLE = {
    blockframe.frobenius_norm: _args(arrays(Q4)),
    blockframe.spectral_norm: _args(arrays(Q4)),
    blockframe.kronecker: _args(arrays(Q4, H1), arrays(H1)),
    blockframe.hadamard_sylvester: _args(numbers(1, 3)),
    blockframe.BlockFrame: _args(numbers(4), numbers(2), numbers(2), arrays(Q4), field_tag=FIELDS),
    blockframe.average_coherence: _args(FRAMES),
    blockframe.average_column_coherence: _args(arrays(Q4, blockframe.id_hadamard_union(2))),
    blockframe.chordal_distance: _args(FRAMES, numbers(1, 3), numbers(2, 5)),
    blockframe.gram_map: _args(FRAMES),
    blockframe.spectral_distance: _args(FRAMES, numbers(1, 3), numbers(2, 5)),
    blockframe.validate: _args(FRAMES),
    blockframe.worst_case_coherence: _args(FRAMES),
    blockframe.log_beta: _args(numbers(0.5, 3), numbers(2.0, 1e300)),
    blockframe.overlap_tail_bound: _args(numbers(0.5, 0.9), numbers(8, 16), numbers(1, 2)),
    blockframe.reg_inc_beta: _args(numbers(0.5, 1.0), numbers(2.0, 0.5), numbers(3, 1.5)),
    blockframe.solve_threshold: _args(numbers(0.1, 0.49)),
    blockframe.welch_coherence_lower: _args(*NRM),
    bounds.rankin_chordal_upper: _args(*NRM),
    # n = 10**401 over r = 10**400: the ratio overflows a float, its root does not
    bounds.rankin_chordal_upper_tight: _args(numbers(4, 8, 10**401), NRM[1]),
    bounds.spectral_distance_upper: _args(*NRM),
    bounds.max_equi_isoclinic: _args(*NRM[:2], FIELDS),
    bounds.max_orthobases_blocks: _args(NRM[0], FIELDS),
    bounds.etf_max_blocks: _args(*NRM[:2]),
    bounds.orthobases_coherence_lower: _args(*NRM[:2]),
    blockframe.alltop_gabor: _args(numbers(5, 7)),
    blockframe.discrete_chirp: _args(numbers(3, 5)),
    blockframe.harmonic_qr_etf: _args(numbers(3, 7)),
    blockframe.id_hadamard_union: _args(numbers(1, 2)),
    blockframe.kerdock_real: _args(numbers(4), mats=kerdock_sets()),
    blockframe.kron_from_etf: _args(arrays(blockframe.steiner_pairs_etf(3)), arrays(H1)),
    blockframe.kron_from_flat_union: _args(arrays(blockframe.id_hadamard_union(1)), arrays(H1)),
    blockframe.steiner_pairs_etf: _args(numbers(3)),
    blockframe.RandomFrameSpec: _args(*NRM, numbers(0), FIELDS),
    blockframe.default_block_count: _args(numbers(8), numbers(2), cap=numbers(3)),
    blockframe.empirical_mu_curve: _args(
        numbers(12),
        st.lists(numbers(2, 3), max_size=2),
        numbers(1, 2),
        numbers(0),
        m_cap=numbers(6),
        threads=THREADS,
    ),
    blockframe.parallel_map: _args(st.just(abs), st.lists(st.integers(-3, 3), max_size=3), THREADS),
    blockframe.sample_block_frame: _args(SPECS, numbers(0), trial=st.none() | numbers(1)),
    blockframe.sample_subspace: _args(
        numbers(4), numbers(2), st.builds(np.random.default_rng), FIELDS
    ),
    blockframe.substream_rng: _args(numbers(0), numbers(1)),
    blockframe.flip: _args(FRAMES, st.sampled_from(["spectral", "frobenius", "nuclear"])),
    blockframe.flipped_nu_bound: _args(numbers(2, 3, 2**1030)),
    blockframe.run_ndp_experiment: _args(
        st.just([("flat", FLAT)]),
        st.lists(numbers(1, 2), max_size=2),
        st.lists(numbers(10.0), max_size=2),
        numbers(1, 2),
        numbers(0),
        field_tag=FIELDS,
        snr_db=st.none() | numbers(20.0),
        threads=THREADS,
    ),
}


def _finite(result):
    """Whether every float in a result (arrays, dataclasses and containers included) is finite."""
    if isinstance(result, (bool, int, str, np.integer, np.bool_)):
        return True
    if isinstance(result, (float, complex, np.inexact)):
        return bool(np.isfinite(result))
    if isinstance(result, np.ndarray):
        return result.dtype.kind not in "fc" or bool(np.isfinite(result).all())
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (list, tuple)):
        return all(map(_finite, result))
    return True


def _name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def test_the_table_names_every_export_and_every_bound_the_cli_prints():
    exported = {
        obj
        for name, obj in vars(blockframe).items()
        if not name.startswith("_") and callable(obj) and not isinstance(obj, types.ModuleType)
    }
    names = cli.cmd_bounds.__code__.co_names
    printed = {getattr(bounds, name) for name in names if hasattr(bounds, name)}
    assert printed, "cmd_bounds calls no bounds function by name"
    missing = (exported | printed) - set(TABLE) - {FrameError, ConvergenceError}
    assert not missing, f"not in the contract table: {sorted(map(_name, missing))}"


@pytest.mark.parametrize("fn", TABLE, ids=_name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_export_returns_finite_or_raises_a_package_error(fn, data):
    args, kwargs = data.draw(TABLE[fn])
    try:
        result = fn(*args, **kwargs)
    except (FrameError, ConvergenceError):
        return
    assert _finite(result), result
