"""Closed-form coherence and packing bounds, plus the tail machinery.

The first half is elementary algebra on (n, r, m).  The second half carries
the special functions needed for the random-subspace analysis: log-gamma,
log-beta, the regularized incomplete beta function, and the threshold curve
obtained by solving

    psi(a, beta) = beta*ln(a) + (1-2*beta)/2 * ln(1-a*beta)
                   - (1-beta)*ln(1-beta) = 0

for its unique root a in [2, 1/beta).  psi is strictly decreasing in a on
that interval, positive at a = 2 and divergent to -inf at 1/beta, so
bisection is exact enough and never guesses wrong.
"""

import math
from dataclasses import dataclass

from .errors import ConvergenceError, FrameError
from .frame import check_field, check_nrm


def welch_coherence_lower(n, r, m):
    """Lower bound sqrt((m*r - n) / (n*(m-1))) on worst-case coherence."""
    check_nrm(n, r, m)
    return math.sqrt((m * r - n) / (n * (m - 1)))


def orthobases_coherence_lower(n, r):
    """Lower bound sqrt(r/n) for unions of two or more orthonormal bases."""
    if not 0 < r < n:
        raise FrameError(f"need 0 < r < n, got r={r}, n={n}")
    if n % r != 0:
        raise FrameError(f"r must divide n for an orthobasis split, got n={n}, r={r}")
    return math.sqrt(r / n)


def rankin_chordal_upper(n, r, m):
    """Rankin bound on the minimum chordal distance between m subspaces."""
    check_nrm(n, r, m)
    return math.sqrt(r * (n - r) / n * m / (m - 1))


def rankin_chordal_upper_tight(n, r):
    """m-independent Rankin bound sqrt(r*(n-r)/n), active once m > n + 1."""
    if r <= 0 or r >= n:
        raise FrameError(f"need 0 < r < n, got r={r}, n={n}")
    return math.sqrt(r * (n - r) / n)


def spectral_distance_upper(n, r, m):
    """Bound on the minimum spectral distance; clamps at 1 for small m."""
    check_nrm(n, r, m)
    return math.sqrt(min(1.0, (n - r) / n * m / (m - 1)))


def max_equi_isoclinic(n, r, field="complex"):
    """Largest possible number of pairwise equi-isoclinic r-subspaces."""
    if r <= 0 or r > n:
        raise FrameError(f"need 0 < r <= n, got r={r}, n={n}")
    check_field(field)
    if field == "complex":
        return n * n - r * r + 1
    return n * (n + 1) // 2 - r * (r + 1) // 2 + 1


def max_orthobases_blocks(n, field="complex"):
    """Cap on the block count of a union of orthobases meeting sqrt(r/n)."""
    if n < 2:
        raise FrameError(f"dimension must be at least 2, got {n}")
    check_field(field)
    if field == "complex":
        return 2 * (n + 1) * (n - 1)
    return (n - 1) * (n + 2)


def etf_max_blocks(n, r):
    """An equi-isoclinic frame from a column ETF needs m <= (n/r)^2."""
    if r <= 0 or r >= n or n % r != 0:
        raise FrameError(f"need r | n and r < n, got n={n}, r={r}")
    return (n // r) ** 2


# --- special functions ------------------------------------------------------


def log_gamma(p):
    """Natural log of Gamma(p) for p > 0."""
    if not p > 0:
        raise FrameError(f"log_gamma needs p > 0, got {p}")
    return math.lgamma(p)


def log_beta(p, q):
    """log B(p, q) via the gamma identity B = Gamma(p)Gamma(q)/Gamma(p+q)."""
    return log_gamma(p) + log_gamma(q) - log_gamma(p + q)


def _beta_cf(a, b, x):
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    ITMAX = 500
    EPS = 3.0e-16
    FPMIN = 1.0e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for it in range(1, ITMAX + 1):
        m2 = 2 * it
        aa = it * (b - it) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + it) * (qab + it) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}"
    )


def _log_reg_inc_beta_lower(p, q, x):
    """log I_x(p, q) on the branch x < (p+1)/(p+q+2), fully in log space."""
    front = p * math.log(x) + q * math.log1p(-x) - log_beta(p, q)
    return front + math.log(_beta_cf(p, q, x) / p)


def reg_inc_beta(x, p, q):
    """Regularized incomplete beta function I_x(p, q)."""
    if not (p > 0 and q > 0):
        raise FrameError(f"reg_inc_beta needs p, q > 0, got p={p}, q={q}")
    if not 0.0 <= x <= 1.0:
        raise FrameError(f"reg_inc_beta needs x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x < (p + 1.0) / (p + q + 2.0):
        return math.exp(_log_reg_inc_beta_lower(p, q, x))
    return 1.0 - math.exp(_log_reg_inc_beta_lower(q, p, 1.0 - x))


def log_reg_inc_beta(x, p, q):
    """log I_x(p, q), safe when the result underflows a float."""
    if not (p > 0 and q > 0):
        raise FrameError(f"log_reg_inc_beta needs p, q > 0, got p={p}, q={q}")
    if not 0.0 < x <= 1.0:
        if x == 0.0:
            return -math.inf
        raise FrameError(f"log_reg_inc_beta needs x in [0, 1], got {x}")
    if x == 1.0:
        return 0.0
    if x < (p + 1.0) / (p + q + 2.0):
        return _log_reg_inc_beta_lower(p, q, x)
    return math.log1p(-math.exp(_log_reg_inc_beta_lower(q, p, 1.0 - x)))


def overlap_tail_bound(lam, n, r):
    """Upper bound on P{largest squared cross-subspace singular value >= lam}.

    For two independent uniformly random r-dimensional subspaces of R^n,

      G(lam) = sqrt(pi) * B((2r-1)/2, (n-2r+1)/2) / B(r/2, (n-r)/2)^2
               * I_{1-lam}((n-2r+1)/2, (2r-1)/2).

    The prefactor is astronomically large for big n while the beta tail is
    correspondingly tiny, so the product is assembled in log space.  The
    bound is not itself capped at 1; small lam can push it above.
    """
    if not 0.0 < lam < 1.0:
        raise FrameError(f"need 0 < lam < 1, got {lam}")
    if r <= 0 or n < 2 * r:
        raise FrameError(f"need n >= 2r with r >= 1, got n={n}, r={r}")
    p = (2 * r - 1) / 2.0
    q = (n - 2 * r + 1) / 2.0
    log_pre = (
        0.5 * math.log(math.pi)
        + log_beta(p, q)
        - 2.0 * log_beta(r / 2.0, (n - r) / 2.0)
    )
    log_tail = log_reg_inc_beta(1.0 - lam, q, p)
    return math.exp(log_pre + log_tail)


# --- threshold curve --------------------------------------------------------


@dataclass(frozen=True)
class ThresholdSolution:
    """Root of the tail exponent at a given subspace fraction beta.

    multiplier is the correctly rounded double closest to the true root a.
    As beta -> 1/2 the root hugs 1/beta so closely (1 - a*beta can reach
    e^{-10000}) that the rounded multiplier may coincide with 1/beta even
    though the real-number root is strictly below it; log_gap = ln(1-a*beta)
    keeps the exact location, and residual is the exponent evaluated there.
    """

    beta: float
    multiplier: float
    residual: float
    log_gap: float


def _exponent_of_log_gap(v, beta):
    """psi(a, beta) in the variable v = ln(1 - a*beta).

    psi(a, beta) = beta*ln(a) + (1-2*beta)/2 * ln(1-a*beta) - (1-beta)*ln(1-beta)
    with ln(a) = ln(1 - e^v) - ln(beta), which has no cancellation for v << 0.
    """
    u = math.exp(v)
    return (
        beta * (math.log1p(-u) - math.log(beta))
        + 0.5 * (1.0 - 2.0 * beta) * v
        - (1.0 - beta) * math.log1p(-beta)
    )


def solve_threshold(beta):
    """Unique root of psi(., beta) on [2, 1/beta), located by bisection.

    Bisection runs in v = ln(1 - a*beta), where psi is monotone increasing
    and evaluates stably however close the root sits to 1/beta; the interval
    is shrunk to ~1e-14 relative width, which pins the residual well below
    1e-10 across the whole beta range.  The root times beta is the
    asymptotic squared-coherence threshold; it tends to ~5.357 (the root of
    a = 2(1+ln a)) as beta -> 0 and to 2 as beta -> 1/2.
    """
    if not 0.0 < beta < 0.5:
        raise FrameError(f"need beta in (0, 1/2), got {beta}")
    hi = math.log1p(-2.0 * beta)  # v at a = 2
    f_hi = _exponent_of_log_gap(hi, beta)
    if f_hi < 0.0:
        raise FrameError(f"exponent not positive at a=2 for beta={beta}")
    if f_hi == 0.0:
        return ThresholdSolution(beta=beta, multiplier=2.0, residual=0.0, log_gap=hi)
    lo = hi - 1.0
    while _exponent_of_log_gap(lo, beta) > 0.0:
        lo = hi + 2.0 * (lo - hi)
        if lo < -1e9:
            raise ConvergenceError(f"no sign change found for beta={beta}")
    while hi - lo > 1e-14 * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        if _exponent_of_log_gap(mid, beta) > 0.0:
            hi = mid
        else:
            lo = mid
    v = 0.5 * (lo + hi)
    a = min(-math.expm1(v) / beta, 1.0 / beta)
    return ThresholdSolution(
        beta=beta,
        multiplier=a,
        residual=_exponent_of_log_gap(v, beta),
        log_gap=v,
    )
