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
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, FrameError
from .frame import check_field, check_nrm
from .matrixcore import check_count


def welch_coherence_lower(n, r, m):
    """Lower bound sqrt((m*r - n) / (n*(m-1))) on worst-case coherence."""
    n, r, m = check_nrm(n, r, m)
    return math.sqrt((m * r - n) / (n * (m - 1)))


def orthobases_coherence_lower(n, r):
    """Lower bound sqrt(r/n) for unions of two or more orthonormal bases."""
    r = check_count(r, "r")
    n = check_count(n, "n", minimum=r + 1)
    if n % r != 0:
        raise FrameError(f"r must divide n for an orthobasis split, got n={n}, r={r}")
    return math.sqrt(r / n)


def rankin_chordal_upper(n, r, m):
    """Rankin bound on the minimum chordal distance between m subspaces."""
    n, r, m = check_nrm(n, r, m)
    return math.sqrt(r * (n - r) / n * m / (m - 1))


def rankin_chordal_upper_tight(n, r):
    """m-independent Rankin bound sqrt(r*(n-r)/n), active once m > n + 1."""
    r = check_count(r, "r")
    n = check_count(n, "n", minimum=r + 1)
    return math.sqrt(r * (n - r) / n)


def spectral_distance_upper(n, r, m):
    """Bound on the minimum spectral distance; clamps at 1 for small m."""
    n, r, m = check_nrm(n, r, m)
    return math.sqrt(min(1.0, (n - r) / n * m / (m - 1)))


def max_equi_isoclinic(n, r, field="complex"):
    """Largest possible number of pairwise equi-isoclinic r-subspaces."""
    r = check_count(r, "r")
    n = check_count(n, "n", minimum=r)
    check_field(field)
    if field == "complex":
        return n * n - r * r + 1
    return n * (n + 1) // 2 - r * (r + 1) // 2 + 1


def max_orthobases_blocks(n, field="complex"):
    """Cap on the block count of a union of orthobases meeting sqrt(r/n)."""
    n = check_count(n, "n", minimum=2)
    check_field(field)
    if field == "complex":
        return 2 * (n + 1) * (n - 1)
    return (n - 1) * (n + 2)


def etf_max_blocks(n, r):
    """An equi-isoclinic frame from a column ETF needs m <= (n/r)^2."""
    r = check_count(r, "r")
    n = check_count(n, "n", minimum=r + 1)
    if n % r != 0:
        raise FrameError(f"need r | n, got n={n}, r={r}")
    return (n // r) ** 2


# --- special functions ------------------------------------------------------


def log_gamma(p):
    """Natural log of Gamma(p) for finite p > 0, where it is a float."""
    if not 0 < p < math.inf:
        raise FrameError(f"log_gamma needs finite p > 0, got {p}")
    try:
        return math.lgamma(p)
    except OverflowError:  # p or log Gamma(p) past float64's range
        raise FrameError(f"log Gamma({p}) is past float64's range") from None


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
        # the even and then the odd step of the fraction, one Lentz update each
        for aa in (
            it * (b - it) * x / ((qam + m2) * (a + m2)),
            -(a + it) * (qab + it) * x / ((a + m2) * (qap + m2)),
        ):
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


def _log_reg_inc_beta_lower(p, q, x, log_b):
    """log I_x(p, q) on the branch x < (p+1)/(p+q+2), fully in log space; log_b is log B(p, q)."""
    front = p * math.log(x) + q * math.log1p(-x) - log_b
    return front + math.log(_beta_cf(p, q, x) / p)


def reg_inc_beta(x, p, q):
    """Regularized incomplete beta function I_x(p, q)."""
    return math.exp(log_reg_inc_beta(x, p, q))


def log_reg_inc_beta(x, p, q):
    """log I_x(p, q), safe when the result underflows a float."""
    log_b = log_beta(p, q)  # checks p and q; B(p, q) = B(q, p) serves both branches
    if not 0.0 < x <= 1.0:
        if x == 0.0:
            return -math.inf
        raise FrameError(f"incomplete beta needs x in [0, 1], got {x}")
    if x == 1.0:
        return 0.0
    if x < (p + 1.0) / (p + q + 2.0):
        return _log_reg_inc_beta_lower(p, q, x, log_b)
    return math.log1p(-math.exp(_log_reg_inc_beta_lower(q, p, 1.0 - x, log_b)))


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
    r = check_count(r, "r")
    n = check_count(n, "n", minimum=2 * r)
    if not n <= sys.float_info.max:
        raise FrameError(f"n={n} is past float64's range")
    p = (2 * r - 1) / 2.0
    q = (n - 2 * r + 1) / 2.0
    log_pre = 0.5 * math.log(math.pi) + log_beta(p, q) - 2.0 * log_beta(r / 2.0, (n - r) / 2.0)
    log_tail = log_reg_inc_beta(1.0 - lam, q, p)
    return math.exp(log_pre + log_tail)


# --- threshold curve --------------------------------------------------------


@dataclass(frozen=True)
class ThresholdSolution:
    """Root of the tail exponent at a given subspace fraction beta.

    multiplier is the root a, within a few ulp.  As beta -> 1/2 the root
    hugs 1/beta so closely (1 - a*beta can reach e^{-10000}) that the
    rounded multiplier may coincide with 1/beta even though the real-number
    root is strictly below it; log_gap = ln(1-a*beta) keeps the exact
    location, and residual is the exponent evaluated there.
    """

    beta: float
    multiplier: float
    residual: float
    log_gap: float


def _scaled_exponent(y, beta):
    """psi(a, beta) / beta in the variable y = -ln(1 - a*beta) / beta, where it decreases.

    psi(a, beta) = beta*ln(a) + (1-2*beta)/2 * ln(1-a*beta) - (1-beta)*ln(1-beta).
    With t = beta*y, a = y (1 - e^-t) / t, and ln((1 - e^-t) / t) is taken
    as log(-expm1(-t) / t): no cancellation for small t, and exactly 0 where
    expm1 returns -t, however far below the normal range t falls.
    """
    t = beta * y
    return (
        math.log(y)
        + math.log(-math.expm1(-t) / t)
        - 0.5 * (1.0 - 2.0 * beta) * y
        - (1.0 - beta) * math.log1p(-beta) / beta
    )


def solve_threshold(beta):
    """Unique root of psi(., beta) on [2, 1/beta), located by bisection.

    Bisection runs in y = -ln(1 - a*beta) / beta, where psi / beta
    decreases and evaluates stably however close the root sits to 1/beta
    and however small beta is (y stays near a, where ln(1 - a*beta) falls
    below the normal range), until the midpoint equals an end.  The root
    times beta is the asymptotic squared-coherence threshold; it tends to
    ~5.357 (the root of a = 2(1+ln a)) as beta -> 0 and to 2 as beta -> 1/2.
    """
    if not 0.0 < beta < 0.5:
        raise FrameError(f"need beta in (0, 1/2), got {beta}")
    lo = -math.log1p(-2.0 * beta) / beta  # y at a = 2
    f_lo = _scaled_exponent(lo, beta)
    if f_lo < 0.0:
        raise FrameError(f"exponent not positive at a=2 for beta={beta}")
    if f_lo == 0.0:
        return ThresholdSolution(beta=beta, multiplier=2.0, residual=0.0, log_gap=-beta * lo)
    hi = lo + 1.0
    while _scaled_exponent(hi, beta) > 0.0:
        hi = lo + 2.0 * (hi - lo)
        if beta * hi > 1e9:
            raise ConvergenceError(f"no sign change found for beta={beta}")
    while (y := 0.5 * (lo + hi)) not in (lo, hi):
        if _scaled_exponent(y, beta) > 0.0:
            lo = y
        else:
            hi = y
    t = beta * y
    return ThresholdSolution(
        beta=beta,
        multiplier=min(y * (-math.expm1(-t) / t), 1.0 / beta),
        residual=beta * _scaled_exponent(y, beta),
        log_gap=-t,
    )
