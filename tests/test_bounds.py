"""Bound formulas and special functions, checked against closed forms and scipy."""

import math

import numpy as np
import pytest
import scipy.special as sps

from blockframe import (
    ConvergenceError,
    FrameError,
    log_beta,
    overlap_tail_bound,
    reg_inc_beta,
    solve_threshold,
    welch_coherence_lower,
)
from blockframe.bounds import (
    ThresholdSolution,
    etf_max_blocks,
    log_gamma,
    log_reg_inc_beta,
    max_equi_isoclinic,
    max_orthobases_blocks,
    orthobases_coherence_lower,
    rankin_chordal_upper,
    rankin_chordal_upper_tight,
    spectral_distance_upper,
)


# ---------------------------------------------------------------- closed-form bounds


def test_welch_lower_known_values():
    assert welch_coherence_lower(12, 2, 16) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # r = 1 column case
    assert welch_coherence_lower(6, 1, 16) == pytest.approx(math.sqrt(10.0 / 90.0), abs=1e-15)
    assert welch_coherence_lower(6, 1, 16) == pytest.approx(1.0 / 3.0, abs=1e-15)
    v = welch_coherence_lower(128, 2, 2048)
    assert v == pytest.approx(math.sqrt(3968.0 / 262016.0), abs=1e-15)
    assert v < 0.125


def test_welch_lower_domain():
    with pytest.raises(FrameError):
        welch_coherence_lower(12, 2, 1)  # fewer than two blocks
    with pytest.raises(FrameError):
        welch_coherence_lower(4, 4, 8)  # r must stay below n
    with pytest.raises(FrameError):
        welch_coherence_lower(16, 1, 6)  # blocks cannot span the space
    with pytest.raises(FrameError):
        welch_coherence_lower(0, 1, 4)


def test_orthobases_lower_known_values():
    assert orthobases_coherence_lower(128, 2) == pytest.approx(0.125, abs=1e-15)
    assert orthobases_coherence_lower(4, 2) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    with pytest.raises(FrameError):
        orthobases_coherence_lower(9, 2)  # width must divide the dimension
    with pytest.raises(FrameError):
        orthobases_coherence_lower(4, 4)


def test_orthobases_lower_dominates_welch():
    # sqrt(r/n) sits strictly above the Welch value for every finite block count
    for n, r in ((128, 2), (12, 3), (8, 4)):
        ob = orthobases_coherence_lower(n, r)
        for m in (n // r, 5 * n, 100, 10**6):
            if m * r <= n or m < 2:
                continue
            assert ob > welch_coherence_lower(n, r, m)


def test_orthobases_lower_is_large_m_welch_limit():
    gap = orthobases_coherence_lower(128, 2) - welch_coherence_lower(128, 2, 10**8)
    assert 0.0 < gap < 1e-4


def test_rankin_chordal_values():
    # 2*10/12 * 16/15 = 16/9, an exact square
    assert rankin_chordal_upper(12, 2, 16) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert rankin_chordal_upper_tight(12, 2) == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-15)
    # half-dimension width with two blocks
    assert rankin_chordal_upper(8, 4, 2) == pytest.approx(math.sqrt(4.0 * 4.0 / 8.0 * 2.0), abs=1e-15)
    # the plain bound approaches the tight one as the block count grows
    loose = rankin_chordal_upper(12, 2, 10**12)
    assert loose == pytest.approx(rankin_chordal_upper_tight(12, 2), rel=1e-10)
    assert loose > rankin_chordal_upper_tight(12, 2)


def test_spectral_distance_upper_value_and_identity():
    assert spectral_distance_upper(12, 2, 16) == pytest.approx(math.sqrt(8.0 / 9.0), abs=1e-15)
    # 1 - welch^2 equals the unclamped bound squared, exactly in exact arithmetic
    for n, r, m in ((12, 2, 16), (40, 4, 100), (9, 2, 11)):
        w = welch_coherence_lower(n, r, m)
        s = spectral_distance_upper(n, r, m)
        assert s * s == pytest.approx(1.0 - w * w, abs=1e-14)


def test_spectral_distance_upper_clamps_at_one():
    # blocks exactly spanning the space: (n-r)/n * m/(m-1) evaluates to 1
    assert spectral_distance_upper(4, 2, 2) == 1.0
    assert spectral_distance_upper(12, 4, 3) == 1.0


def test_max_equi_isoclinic_counts():
    assert max_equi_isoclinic(12, 2, field="complex") == 141
    assert max_equi_isoclinic(4, 2, field="real") == 8
    assert max_equi_isoclinic(7, 7, field="complex") == 1
    assert max_equi_isoclinic(7, 7, field="real") == 1
    assert isinstance(max_equi_isoclinic(12, 2), int)
    with pytest.raises(FrameError):
        max_equi_isoclinic(4, 5)
    with pytest.raises(FrameError):
        max_equi_isoclinic(4, 2, field="quaternion")


def test_max_orthobases_blocks_counts():
    assert max_orthobases_blocks(12, field="complex") == 286
    assert max_orthobases_blocks(2, field="real") == 4
    for n in range(2, 41):
        assert max_orthobases_blocks(n, field="complex") >= max_orthobases_blocks(n, field="real")
    with pytest.raises(FrameError):
        max_orthobases_blocks(1)


def test_etf_max_blocks():
    assert etf_max_blocks(12, 2) == 36
    assert etf_max_blocks(6, 1) == 36
    with pytest.raises(FrameError):
        etf_max_blocks(9, 2)


# ---------------------------------------------------------------- special functions


def test_log_gamma_against_scipy():
    grid = [0.05, 0.3, 0.49, 0.5, 0.51, 1.0, 1.5, 2.0, 7.3, 41.0, 500.5, 1e4]
    for p in grid:
        ref = float(sps.gammaln(p))
        assert log_gamma(p) == pytest.approx(ref, rel=5e-13, abs=1e-12)
    with pytest.raises(FrameError):
        log_gamma(0.0)
    with pytest.raises(FrameError):
        log_gamma(-1.5)


def test_log_beta_against_scipy_betaln():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        p = float(10.0 ** rng.uniform(-1, 3))
        q = float(10.0 ** rng.uniform(-1, 3))
        assert log_beta(p, q) == pytest.approx(float(sps.betaln(p, q)), rel=1e-10, abs=1e-10)


def test_log_beta_gamma_identity_via_scipy():
    # identity checked with the library's own gamma, not ours
    for p, q in ((0.7, 2.2), (5.0, 5.0), (300.0, 41.5)):
        ref = float(sps.gammaln(p) + sps.gammaln(q) - sps.gammaln(p + q))
        assert log_beta(p, q) == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_reg_inc_beta_uniform_case():
    for x in (0.0, 0.125, 0.5, 0.875, 1.0):
        assert reg_inc_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-14)


def test_reg_inc_beta_endpoints_exact():
    assert reg_inc_beta(0.0, 3.2, 7.7) == 0.0
    assert reg_inc_beta(1.0, 3.2, 7.7) == 1.0


def test_reg_inc_beta_symmetry_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = float(10.0 ** rng.uniform(-0.5, 2.5))
        q = float(10.0 ** rng.uniform(-0.5, 2.5))
        x = float(rng.uniform(0.001, 0.999))
        total = reg_inc_beta(x, p, q) + reg_inc_beta(1.0 - x, q, p)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_reg_inc_beta_against_scipy():
    ps = [0.5, 1.0, 2.5, 7.0, 40.0, 333.0, 1000.0]
    xs = [1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6]
    for p in ps:
        for q in ps:
            for x in xs:
                ref = float(sps.betainc(p, q, x))
                got = reg_inc_beta(x, p, q)
                if ref > 1e-290:
                    assert got == pytest.approx(ref, rel=5e-12, abs=1e-300)
                else:
                    assert got <= 1e-280


def test_reg_inc_beta_domain():
    with pytest.raises(FrameError):
        reg_inc_beta(-0.1, 2.0, 2.0)
    with pytest.raises(FrameError):
        reg_inc_beta(1.1, 2.0, 2.0)
    with pytest.raises(FrameError):
        reg_inc_beta(0.5, 0.0, 2.0)
    with pytest.raises(FrameError):
        reg_inc_beta(0.5, 2.0, -1.0)


def test_log_reg_inc_beta_matches_linear_scale():
    for p, q, x in ((3.0, 5.0, 0.4), (20.0, 2.0, 0.9), (0.7, 0.9, 0.2)):
        ref = math.log(float(sps.betainc(p, q, x)))
        assert log_reg_inc_beta(x, p, q) == pytest.approx(ref, rel=1e-10, abs=1e-10)
    assert log_reg_inc_beta(0.0, 2.0, 3.0) == -math.inf
    assert log_reg_inc_beta(1.0, 2.0, 3.0) == 0.0


def test_log_reg_inc_beta_deep_tail():
    # far below the support of the linear-scale value; must stay finite and ordered
    val = log_reg_inc_beta(1e-8, 200.0, 5.0)
    assert math.isfinite(val)
    assert val < -1000.0
    # against scipy where the linear-scale value is representable
    for x in (0.05, 0.3, 0.6):
        ref = math.log(float(sps.betainc(8.0, 3.0, x)))
        assert log_reg_inc_beta(x, 8.0, 3.0) == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_log_beta_entropy_limit():
    # (1/(p+q)) log B(p,q) approaches -H(rho) as both arguments scale up,
    # H the binary entropy in nats
    rho = 0.3
    total = 4000.0
    p, q = rho * total, (1.0 - rho) * total
    entropy = -rho * math.log(rho) - (1.0 - rho) * math.log(1.0 - rho)
    assert (1.0 / total) * log_beta(p, q) == pytest.approx(-entropy, abs=5e-3)


# ---------------------------------------------------------------- overlap tail bound


def _tail_bound_reference(lam, n, r):
    # independent assembly from scipy pieces
    a = (2.0 * r - 1.0) / 2.0
    b = (n - 2.0 * r + 1.0) / 2.0
    log_pref = (
        0.5 * math.log(math.pi)
        + float(sps.betaln(a, b))
        - 2.0 * float(sps.betaln(r / 2.0, (n - r) / 2.0))
    )
    return math.exp(log_pref) * float(sps.betainc(b, a, 1.0 - lam))


def test_overlap_tail_bound_against_scipy_assembly():
    cases = [
        (0.3, 40, 4),
        (0.5, 40, 4),
        (0.7, 40, 4),
        (0.2, 30, 3),
        (0.9, 12, 5),
        (0.05, 200, 10),
    ]
    for lam, n, r in cases:
        assert overlap_tail_bound(lam, n, r) == pytest.approx(
            _tail_bound_reference(lam, n, r), rel=1e-10
        )


def test_overlap_tail_bound_limits():
    # near 1 the incomplete-beta factor vanishes
    assert overlap_tail_bound(1.0 - 1e-12, 40, 4) < 1e-9
    # near 0 only the prefactor remains
    a = 7.0 / 2.0
    b = 33.0 / 2.0
    pref = math.exp(
        0.5 * math.log(math.pi)
        + float(sps.betaln(a, b))
        - 2.0 * float(sps.betaln(2.0, 18.0))
    )
    assert overlap_tail_bound(1e-15, 40, 4) == pytest.approx(pref, rel=1e-9)


def test_overlap_tail_bound_domain():
    with pytest.raises(FrameError):
        overlap_tail_bound(0.5, 7, 4)  # needs n >= 2r
    with pytest.raises(FrameError):
        overlap_tail_bound(0.0, 40, 4)
    with pytest.raises(FrameError):
        overlap_tail_bound(1.0, 40, 4)


@pytest.mark.parametrize(
    "call, finite",
    [
        (log_gamma, 0.5),
        (lambda v: log_beta(v, 2.0), 0.5),
        (lambda v: log_beta(2.0, v), 0.5),
        (lambda v: reg_inc_beta(0.5, v, 2.0), 0.5),
        (lambda v: reg_inc_beta(0.5, 2.0, v), 0.5),
        (lambda v: log_reg_inc_beta(0.5, v, 2.0), 0.5),
        (lambda v: reg_inc_beta(v, 2.0, 2.0), 0.5),
        (lambda v: overlap_tail_bound(0.5, v, 2), 40),
        (lambda v: overlap_tail_bound(v, 40, 4), 0.5),
    ],
    ids=[
        "log_gamma",
        "log_beta-p",
        "log_beta-q",
        "reg_inc_beta-p",
        "reg_inc_beta-q",
        "log_reg_inc_beta-p",
        "reg_inc_beta-x",
        "overlap_tail_bound-n",
        "overlap_tail_bound-lam",
    ],
)
def test_special_functions_refuse_non_finite_arguments(call, finite):
    # FrameError, not nan from lgamma(inf) nor a stalled continued fraction
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(FrameError):
            call(bad)
    assert math.isfinite(call(finite))


# ---------------------------------------------------------------- threshold solver


def test_solve_threshold_grid_scan_oracle():
    # locate the sign change of the exponent by brute scan at step 1e-6
    beta = 0.25
    a = np.arange(2.0, 1.0 / beta, 1e-6)
    psi = (
        beta * np.log(a)
        + 0.5 * (1.0 - 2.0 * beta) * np.log1p(-a * beta)
        - (1.0 - beta) * math.log1p(-beta)
    )
    idx = int(np.argmax(psi < 0.0))
    assert psi[idx - 1] > 0.0 > psi[idx]
    sol = solve_threshold(beta)
    assert a[idx - 1] - 1e-12 <= sol.multiplier <= a[idx] + 1e-12
    assert abs(sol.residual) < 1e-10


def test_solve_threshold_small_beta_limit():
    sol = solve_threshold(1e-4)
    assert abs(sol.multiplier - 5.357) < 0.01


def _mp_threshold_root(beta):
    """The root a of psi(., beta) / beta in 50-digit arithmetic, beta taken exactly."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        b = mp.mpf(beta)

        def scaled(a):
            return mp.log(a) + (1 - 2 * b) / (2 * b) * mp.log1p(-a * b) - (1 - b) / b * mp.log1p(-b)

        top = min(mp.mpf(6), (1 - mp.mpf(10) ** -30) / b)
        return float(mp.findroot(scaled, (mp.mpf(2), top), solver="anderson"))


@pytest.mark.parametrize(
    "beta", [1e-4, 1e-8, 1e-13, 1e-16, 1e-17, 1e-100, 1e-300, 5e-324, 0.05, 0.25, 0.45]
)
def test_solve_threshold_against_an_mpmath_root(beta):
    # the bisection keeps its precision as beta -> 0, down to the least
    # subnormal, where the log gap ln(1 - a beta) itself cannot place the
    # root; 2.7 ulp was the worst seen over 370 betas from 1e-19 to 0.45
    root = _mp_threshold_root(beta)
    sol = solve_threshold(beta)
    assert abs(sol.multiplier - root) <= 4 * np.spacing(root)
    assert abs(sol.residual) <= 1e-15 * beta


def test_solve_threshold_near_half():
    sol = solve_threshold(0.4999)
    assert 2.0 <= sol.multiplier < 2.05


def test_solve_threshold_grid_invariants():
    grid = np.linspace(0.01, 0.49, 50)
    sols = [solve_threshold(float(b)) for b in grid]
    for b, s in zip(grid, sols):
        assert abs(s.residual) < 1e-10
        # near beta = 1/2 the root sits so close to the 1/beta singularity
        # that it rounds onto it in float, so the upper test is non-strict
        assert 2.0 <= s.multiplier <= 1.0 / b
        assert s.multiplier < 5.36
    mults = [s.multiplier for s in sols]
    assert all(x > y for x, y in zip(mults, mults[1:]))


def test_solve_threshold_domain():
    for bad in (0.0, 0.5, 0.6, -0.1):
        with pytest.raises(FrameError):
            solve_threshold(bad)


def test_threshold_solution_fields():
    sol = solve_threshold(0.3)
    assert isinstance(sol, ThresholdSolution)
    assert sol.beta == 0.3
    assert math.isfinite(sol.log_gap)
    # frozen record
    with pytest.raises(AttributeError):
        sol.multiplier = 3.0


def test_convergence_error_is_exported():
    assert issubclass(ConvergenceError, Exception)


@pytest.mark.parametrize(
    "bound, args",
    [
        (orthobases_coherence_lower, (float("nan"), 1)),
        (orthobases_coherence_lower, (8.0, 2)),
        (rankin_chordal_upper_tight, (float("nan"), 1)),
        (rankin_chordal_upper_tight, (4, 4)),
        (max_equi_isoclinic, (float("nan"), 1)),
        (max_equi_isoclinic, (4, 0)),
        (max_orthobases_blocks, (float("nan"),)),
        (max_orthobases_blocks, (1,)),
        (etf_max_blocks, (4.0, 2.0)),
        (etf_max_blocks, (4, 4)),
        (overlap_tail_bound, (0.5, 8.0, 2)),
        (overlap_tail_bound, (0.5, 3, 2)),
    ],
)
def test_bounds_take_counts_through_the_count_rule(bound, args):
    with pytest.raises(FrameError, match="must be an integer >="):
        bound(*args)


def test_bounds_take_numpy_counts_next_to_huge_ones():
    assert orthobases_coherence_lower(np.int64(128), np.int64(2)) == 0.125
    assert max_equi_isoclinic(np.int64(12), 2) == 141
    assert etf_max_blocks(10**400, np.int64(4)) == (10**400 // 4) ** 2
    assert welch_coherence_lower(10**300, np.int64(4), 10**300) == math.sqrt(3 / (10**300 - 1))
    with pytest.raises(FrameError, match="float64"):
        rankin_chordal_upper(4, 2, 10**400)


@pytest.mark.parametrize(
    "fn, args",
    [
        (log_beta, (10**400, 2.0)),
        (log_beta, (1e307, 2.0)),
        (log_gamma, (10**400,)),
        (reg_inc_beta, (0.5, 10**400, 3.0)),
        (overlap_tail_bound, (0.5, 10**400, 2)),
    ],
)
def test_arguments_past_float64_are_refused(fn, args):
    with pytest.raises(FrameError):
        fn(*args)
