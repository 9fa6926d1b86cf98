"""Deterministic frame families and the two Kronecker constructions.

Two kinds of column matrix P feed the Kronecker machinery:

  * equiangular tight frames (ETF): steiner_pairs_etf, harmonic_qr_etf.
    Tensoring with any unitary gives blocks meeting the universal
    worst-case-coherence lower bound with equality.
  * flat unions of orthobases: alltop_gabor, discrete_chirp,
    id_hadamard_union, kerdock_real.  Cross-basis inner products all share
    one modulus, and tensoring with a unitary gives a union of orthobases
    meeting the sqrt(r/n) bound with equality.

Every constructor is checked on the way out (verify_etf / verify_flat_union)
so a silent algebra mistake cannot leak a wrong frame.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import FrameError
from .frame import BlockFrame
from .matrixcore import as_matrix, dft_matrix, hadamard_sylvester, kronecker

_VERIFY_TOL = 1e-10


def is_prime(p):
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


# --- verification -----------------------------------------------------------


@dataclass(frozen=True)
class ETFReport:
    is_etf: bool
    coherence: float
    welch_value: float
    max_offdiag_dev: float
    tight_residual: float


def verify_etf(p, tol=_VERIFY_TOL):
    """Check unit columns, equiangularity, tightness, and Welch equality."""
    p = as_matrix(p)
    n, m = p.shape
    if m <= n or m < 2:
        raise FrameError(f"an ETF here must be overcomplete, got {n}x{m}")
    g = p.conj().T @ p
    mods = np.abs(g)
    col_dev = float(np.abs(mods.diagonal() - 1.0).max())
    off = mods[~np.eye(m, dtype=bool)]
    welch = float(np.sqrt((m - n) / (n * (m - 1))))
    off_dev = float(np.abs(off - welch).max())
    tight = float(np.abs(p @ p.conj().T - (m / n) * np.eye(n)).max())
    ok = col_dev < tol and off_dev < tol and tight < tol * max(1.0, m / n)
    return ETFReport(
        is_etf=ok,
        coherence=float(off.max()),
        welch_value=welch,
        max_offdiag_dev=off_dev,
        tight_residual=tight,
    )


@dataclass(frozen=True)
class FlatUnionReport:
    is_flat_union: bool
    n_bases: int
    cross_modulus: float
    max_unitary_dev: float
    max_cross_dev: float


def verify_flat_union(p, tol=_VERIFY_TOL):
    """Check that p is a union of orthobases with one cross-basis modulus."""
    p = as_matrix(p)
    n, m = p.shape
    if m % n != 0 or m // n < 2:
        raise FrameError(f"need a multiple of at least two bases, got {n}x{m}")
    nb = m // n
    udev = 0.0
    for b in range(nb):
        u = p[:, b * n : (b + 1) * n]
        udev = max(udev, float(np.abs(u.conj().T @ u - np.eye(n)).max()))
    target = 1.0 / np.sqrt(n)
    cdev = 0.0
    for a in range(nb):
        for b in range(a + 1, nb):
            cross = np.abs(p[:, a * n : (a + 1) * n].conj().T @ p[:, b * n : (b + 1) * n])
            cdev = max(cdev, float(np.abs(cross - target).max()))
    ok = udev < tol and cdev < tol
    return FlatUnionReport(
        is_flat_union=ok,
        n_bases=nb,
        cross_modulus=target,
        max_unitary_dev=udev,
        max_cross_dev=cdev,
    )


# --- equiangular tight frames ----------------------------------------------


def steiner_pairs_etf(v):
    """ETF of size v(v-1)/2 x v^2 built on the pair blocks of a v-set.

    The b = v(v-1)/2 rows are indexed by the pairs {i, j} of [v] in
    lexicographic order; every point lies in v-1 pairs.  For point w the
    frame gets v columns: column (w, c) is supported on the pairs through w,
    and its t-th such pair (1-based, ascending pair index) carries
    exp(2*pi*i*t*c/v) / sqrt(v-1).  Distinct points share exactly one pair,
    which pins every cross inner product at modulus 1/(v-1); same-point
    columns see the v-th roots of unity summed without the t=0 term, which
    lands on the same modulus.
    """
    if v < 3:
        raise FrameError(f"need v >= 3, got {v}")
    pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
    b = len(pairs)
    rows_of_point = [[] for _ in range(v)]
    for row, (i, j) in enumerate(pairs):
        rows_of_point[i].append(row)
        rows_of_point[j].append(row)
    p = np.zeros((b, v * v), dtype=np.complex128)
    scale = 1.0 / np.sqrt(v - 1.0)
    omega = np.exp(2j * np.pi / v)
    for w in range(v):
        for c in range(v):
            col = w * v + c
            for t, row in enumerate(rows_of_point[w], start=1):
                p[row, col] = scale * omega ** (t * c)
    rep = verify_etf(p)
    if not rep.is_etf:
        raise FrameError(f"steiner_pairs_etf({v}) failed verification: {rep}")
    return p


def harmonic_qr_etf(p_prime):
    """ETF of size (p-1)/2 x p from the quadratic-residue rows of the DFT.

    Requires p prime with p = 3 (mod 4); then the quadratic residues form a
    difference set and the selected DFT rows, rescaled to unit columns, are
    equiangular with coherence sqrt(p+1)/(p-1).
    """
    if not is_prime(p_prime) or p_prime % 4 != 3:
        raise FrameError(f"need a prime p = 3 (mod 4), got {p_prime}")
    residues = sorted({(x * x) % p_prime for x in range(1, p_prime)})
    k = (p_prime - 1) // 2
    j = np.arange(p_prime)
    rows = np.exp(2j * np.pi * np.outer(residues, j) / p_prime)
    p = rows / np.sqrt(k)
    rep = verify_etf(p)
    if not rep.is_etf:
        raise FrameError(f"harmonic_qr_etf({p_prime}) failed verification: {rep}")
    return p


# --- flat unions of orthobases ---------------------------------------------


def alltop_gabor(p_prime):
    """All p^2 time-frequency shifts of the cubic-phase sequence, p prime >= 5.

    Column (a, b) holds exp(2*pi*i*((t+a)^3 - a^3 + b*t)/p)/sqrt(p) at index
    t.  Shifts with the same a form one orthobasis (modulations of a
    unimodular window); distinct shifts meet at modulus 1/sqrt(p) via a
    quadratic Gauss sum, which needs p >= 5 so the quadratic coefficient
    3(a'-a) survives mod p.  The -a^3 term normalizes each window's phase so
    that every column starts real-positive at t = 0; the frame's average
    column coherence then comes out at exactly 1/(p+1).
    """
    if not is_prime(p_prime) or p_prime < 5:
        raise FrameError(f"need a prime p >= 5, got {p_prime}")
    t = np.arange(p_prime)
    cols = np.empty((p_prime, p_prime * p_prime), dtype=np.complex128)
    for a in range(p_prime):
        phase_w = ((t + a) ** 3 - a**3) % p_prime
        window = np.exp(2j * np.pi * phase_w / p_prime)
        for b in range(p_prime):
            cols[:, a * p_prime + b] = window * np.exp(2j * np.pi * b * t / p_prime)
    cols /= np.sqrt(p_prime)
    rep = verify_flat_union(cols)
    if not rep.is_flat_union:
        raise FrameError(f"alltop_gabor({p_prime}) failed verification: {rep}")
    return cols


def discrete_chirp(p_prime):
    """All p^2 chirps exp(2*pi*i*(a*t^2 + b*t)/p)/sqrt(p), p an odd prime.

    Fixed chirp rate a gives an orthobasis; distinct rates meet at modulus
    1/sqrt(p) by the quadratic Gauss sum.
    """
    if not is_prime(p_prime) or p_prime < 3:
        raise FrameError(f"need an odd prime, got {p_prime}")
    t = np.arange(p_prime)
    cols = np.empty((p_prime, p_prime * p_prime), dtype=np.complex128)
    for a in range(p_prime):
        window = np.exp(2j * np.pi * (a * t * t % p_prime) / p_prime)
        for b in range(p_prime):
            cols[:, a * p_prime + b] = window * np.exp(2j * np.pi * b * t / p_prime)
    cols /= np.sqrt(p_prime)
    rep = verify_flat_union(cols)
    if not rep.is_flat_union:
        raise FrameError(f"discrete_chirp({p_prime}) failed verification: {rep}")
    return cols


def id_hadamard_union(k):
    """The identity basis next to the scaled Sylvester-Hadamard basis."""
    if k < 1:
        raise FrameError(f"need k >= 1, got {k}")
    n = 1 << k
    h = hadamard_sylvester(k) / np.sqrt(n)
    p = np.concatenate([np.eye(n), h], axis=1)
    rep = verify_flat_union(p)
    if not rep.is_flat_union:
        raise FrameError(f"id_hadamard_union({k}) failed verification: {rep}")
    return p


# --- Kerdock bases ----------------------------------------------------------

# irreducible polynomials over GF(2), degree -> bit mask (bit i = coeff of t^i)
_GF2_POLY = {
    3: 0b1011,          # t^3 + t + 1
    5: 0b100101,        # t^5 + t^2 + 1
    7: 0b10000011,      # t^7 + t + 1
    9: 0b1000010001,    # t^9 + t^4 + 1
    11: 0b100000000101, # t^11 + t^2 + 1
}


def _gf2m_mul(a, b, deg, poly):
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> deg:
            a ^= poly
    return acc


def _gf2m_trace(z, deg, poly):
    t = 0
    w = z
    for _ in range(deg):
        t ^= w
        w = _gf2m_mul(w, w, deg, poly)
    if t not in (0, 1):
        raise FrameError("field trace left the prime subfield; wrong polynomial")
    return t


def gf2_rank(rows, width):
    """Rank over GF(2) of a matrix given as row bit masks."""
    rank = 0
    rows = list(rows)
    for col in range(width):
        bit = 1 << col
        piv = None
        for i in range(rank, len(rows)):
            if rows[i] & bit:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & bit:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def kerdock_set(k):
    """2^(k-1) binary symmetric k x k matrices with nonsingular differences.

    k must be even so that k-1 is odd and F = GF(2^(k-1)) supports the
    classical trace construction: identify GF(2)^k with F x GF(2) and give
    each field element s the Boolean quadratic form

        q_s(x, e) = sum_{j=1}^{(k-2)/2} tr((s x)^(2^j + 1)) + e * tr(s x),

    whose polarization (computed here on the standard basis) is the matrix
    P_s.  Diagonals are zeroed: over GF(2) they only shift the linear term
    of the form, so the spanned bases are unchanged while the nonsingular-
    difference check becomes exactly the flatness condition.
    """
    if k < 4 or k % 2 != 0:
        raise FrameError(f"need even k >= 4, got {k}")
    deg = k - 1
    if deg not in _GF2_POLY:
        raise FrameError(f"no irreducible polynomial on file for degree {deg}")
    poly = _GF2_POLY[deg]

    def form(s, xbits):
        x = xbits & ((1 << deg) - 1)
        eps = (xbits >> deg) & 1
        sx = _gf2m_mul(s, x, deg, poly)
        acc = 0
        w = sx
        for _ in range((deg - 1) // 2):
            w = _gf2m_mul(w, w, deg, poly)  # (s x)^(2^j)
            acc ^= _gf2m_trace(_gf2m_mul(w, sx, deg, poly), deg, poly)
        if eps:
            acc ^= _gf2m_trace(sx, deg, poly)
        return acc

    mats = []
    for s in range(1 << deg):
        p = np.zeros((k, k), dtype=np.uint8)
        singles = [form(s, 1 << i) for i in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                bit = form(s, (1 << i) | (1 << j)) ^ singles[i] ^ singles[j]
                p[i, j] = bit
                p[j, i] = bit
        mats.append(p)

    validate_kerdock_set(mats, k)
    return mats


def validate_kerdock_set(mats, k):
    """Every pairwise difference must have full rank over GF(2)."""
    if len(mats) != 1 << (k - 1):
        raise FrameError(f"expected {1 << (k - 1)} matrices, got {len(mats)}")
    packed = []
    for p in mats:
        p = np.asarray(p)
        if p.shape != (k, k) or not np.array_equal(p, p.T):
            raise FrameError("kerdock set entries must be symmetric k x k binary")
        packed.append([int("".join(map(str, row[::-1])), 2) for row in p % 2])
    for a in range(len(packed)):
        for b in range(a + 1, len(packed)):
            diff = [ra ^ rb for ra, rb in zip(packed[a], packed[b])]
            if gf2_rank(diff, k) != k:
                raise FrameError(
                    f"kerdock set difference {a},{b} is singular over GF(2)"
                )


def kerdock_real(k, mats=None):
    """Real flat union of 2^(k-1) bases of R^(2^k) from a Kerdock set.

    Basis P contributes the columns sign(P) * (-1)^(Q_P(x) + a.x) / sqrt(n')
    over all a, where Q_P(x) = sum_{i<j} P_ij x_i x_j and sign(P) alternates
    +1, -1 along the enumeration.  The alternation cancels the column sums
    of the bases pairwise, which is what puts the average column coherence
    at exactly 1/(m-1); cross-basis moduli are untouched by it.
    """
    if k < 4 or k % 2 != 0:
        raise FrameError(f"need even k >= 4, got {k}")
    if mats is None:
        mats = kerdock_set(k)
    else:
        validate_kerdock_set(mats, k)
    n = 1 << k
    x = np.arange(n)
    bits = ((x[:, None] >> np.arange(k)[None, :]) & 1).astype(np.int64)
    hu = hadamard_sylvester(k) / np.sqrt(n)
    blocks = []
    for idx, p in enumerate(mats):
        q = (np.einsum("xi,ij,xj->x", bits, p.astype(np.int64), bits) // 2) % 2
        d = 1.0 - 2.0 * q  # (-1)^Q per row x
        sign = 1.0 if idx % 2 == 0 else -1.0
        blocks.append(sign * d[:, None] * hu)
    p_out = np.concatenate(blocks, axis=1)
    rep = verify_flat_union(p_out)
    if not rep.is_flat_union:
        raise FrameError(f"kerdock_real({k}) failed verification: {rep}")
    return p_out


def read_kerdock_set_file(path, k):
    """Parse a Kerdock set from text: one matrix per line, k hex-packed rows.

    Row i is an integer whose bit j is entry (i, j), written in hex; rows
    are separated by spaces.  Blank lines and #-comments are skipped.
    """
    mats = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            words = line.split()
            if len(words) != k:
                raise FrameError(f"expected {k} rows per line, got {len(words)}")
            rows = [int(w, 16) for w in words]
            p = np.zeros((k, k), dtype=np.uint8)
            for i, rv in enumerate(rows):
                for j in range(k):
                    p[i, j] = (rv >> j) & 1
            mats.append(p)
    validate_kerdock_set(mats, k)
    return mats


# --- Kronecker constructions ------------------------------------------------


def _check_unitary(q):
    q = as_matrix(q)
    r1, r2 = q.shape
    if r1 != r2:
        raise FrameError(f"kron factor must be square, got {q.shape}")
    if np.abs(q.conj().T @ q - np.eye(r1)).max() > _VERIFY_TOL:
        raise FrameError("kron factor is not unitary within 1e-10")
    return q


def kron_from_etf(p, q):
    """Blocks p_i (x) q from an ETF p and unitary q.

    Cross-Grams collapse to <p_i, p_j> * I, so the worst-case block
    coherence equals the ETF coherence, which meets the universal lower
    bound with equality; all principal angles coincide (equi-isoclinic).
    """
    p = as_matrix(p)
    q = _check_unitary(q)
    rep = verify_etf(p)
    if not rep.is_etf:
        raise FrameError("kron_from_etf needs a verified ETF")
    n1, m = p.shape
    r = q.shape[0]
    return BlockFrame(n=n1 * r, r=r, m=m, data=kronecker(p, q))


def kron_from_flat_union(p, q):
    """Blocks p_i (x) q from a flat union of orthobases and unitary q.

    The result is a union of orthobases whose worst-case block coherence
    meets the sqrt(r/n) bound with equality.
    """
    p = as_matrix(p)
    q = _check_unitary(q)
    rep = verify_flat_union(p)
    if not rep.is_flat_union:
        raise FrameError("kron_from_flat_union needs a verified flat union")
    n1, m = p.shape
    r = q.shape[0]
    return BlockFrame(n=n1 * r, r=r, m=m, data=kronecker(p, q))


def default_kron_factor(r):
    """Hadamard when r is a power of two, otherwise the unitary DFT."""
    if r < 1:
        raise FrameError(f"need r >= 1, got {r}")
    if r & (r - 1) == 0:
        return hadamard_sylvester(r.bit_length() - 1) / np.sqrt(r)
    return dft_matrix(r)


# --- recipes ----------------------------------------------------------------

_FAMILIES = ("steiner", "harmonic", "alltop", "chirp", "id-hadamard", "kerdock", "external")
_ETF_FAMILIES = ("steiner", "harmonic")


@dataclass(frozen=True)
class FrameRecipe:
    """A reproducible description of a constructed frame."""

    family: str
    params: dict = field(default_factory=dict)
    kron: tuple = ("none",)  # ("none") | ("hadamard", k) | ("dft", r) | ("file", path)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise FrameError(f"unknown family {self.family!r}")


def build_column_matrix(recipe):
    """The P factor of a recipe, before any Kronecker lift."""
    fam, par = recipe.family, recipe.params
    if fam == "steiner":
        return steiner_pairs_etf(int(par["v"]))
    if fam == "harmonic":
        return harmonic_qr_etf(int(par["p"]))
    if fam == "alltop":
        return alltop_gabor(int(par["p"]))
    if fam == "chirp":
        return discrete_chirp(int(par["p"]))
    if fam == "id-hadamard":
        return id_hadamard_union(int(par["k"]))
    if fam == "kerdock":
        mats = None
        if par.get("set_file"):
            mats = read_kerdock_set_file(par["set_file"], int(par["k"]))
        return kerdock_real(int(par["k"]), mats=mats)
    if fam == "external":
        from .io import read_bfm

        return read_bfm(par["path"]).data
    raise FrameError(f"unknown family {fam!r}")


def build_frame(recipe):
    """Assemble the full block frame a recipe describes.

    The frame is real exactly when both factors are.
    """
    p = build_column_matrix(recipe)
    kind = recipe.kron[0]
    if kind == "none":
        n = p.shape[0]
        if p.shape[1] <= n:
            raise FrameError("r=1 frame needs more columns than rows")
        return BlockFrame(n=n, r=1, m=p.shape[1], data=p)
    if kind == "hadamard":
        q = hadamard_sylvester(int(recipe.kron[1])) / np.sqrt(1 << int(recipe.kron[1]))
    elif kind == "dft":
        q = dft_matrix(int(recipe.kron[1]))
    elif kind == "file":
        from .io import read_bfm

        q = read_bfm(recipe.kron[1]).data
    else:
        raise FrameError(f"unknown kron factor kind {kind!r}")
    if recipe.family in _ETF_FAMILIES:
        return kron_from_etf(p, q)
    if recipe.family == "external":
        try:
            return kron_from_etf(p, q)
        except FrameError:
            return kron_from_flat_union(p, q)
    return kron_from_flat_union(p, q)
