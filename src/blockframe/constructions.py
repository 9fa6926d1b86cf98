"""Deterministic frame families and the two Kronecker constructions.

Two kinds of column matrix P feed the Kronecker machinery:

  * equiangular tight frames (ETF): steiner_pairs_etf, harmonic_qr_etf.
    Tensoring with any unitary gives blocks meeting the universal
    worst-case-coherence lower bound with equality.
  * flat unions of orthobases: alltop_gabor, discrete_chirp,
    id_hadamard_union, kerdock_real.  Cross-basis inner products all share
    one modulus, and tensoring with a unitary gives a union of orthobases
    meeting the sqrt(r/n) bound with equality.

Every P is verified exactly once (verify_etf / verify_flat_union), so a
silent algebra mistake cannot leak a wrong frame: a builder verifies the P
it returns, and kron_from_etf / kron_from_flat_union verify a P their
caller supplies.  The lift itself (_lift) never verifies P again.  Both
checks are one, _verify: it reads every cross modulus off the tiles of the
pair walk that gives mu and the Gram map, copies no whole P and forms no
n x n product, and every builder checks P's entry count against the memory
guard before it loops or allocates.  FAMILIES is the one list of
families: build_frame(family, value, kron) builds one family's P from its
one required value and lifts it by a Kronecker factor.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import FrameError
from .frame import BlockFrame, _tiles
from .io import read_bfm
from .matrixcore import (
    as_matrix,
    check_count,
    check_entries,
    dft_matrix,
    gram_deviation,
    hadamard_sylvester,
    kronecker,
    tight_deviation,
)

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
class Verification:
    ok: bool
    modulus: float
    group_dev: float
    cross_min: float
    cross_max: float
    tight_dev: float


def _verify(p, w, modulus):
    """P measured as a tight union of orthonormal runs of w columns at one modulus.

    group_dev is max |X* X - I| over the runs, and cross_min and cross_max
    are the extremes of |<p_i, p_j>| across runs, read off each tile of the
    one pair walk (frame._tiles) with the runs as blocks.  tight_dev
    is max |P P* - (m/n) I| (tight_deviation).  ok is each deviation below
    1e-10, tightness below 1e-10 max(1, m/n).  P is never copied whole, and
    no n x n product is made.
    """
    n, m = p.shape
    group_dev = gram_deviation(p.reshape(n, m // w, w).transpose(1, 0, 2))
    tight_dev = tight_deviation(p)
    # map holds no tile while the walk makes the next one
    lows, highs = zip(*map(_cross_moduli, _tiles(p, w)))
    cross_min, cross_max = min(lows), max(highs)
    ok = (
        max(group_dev, cross_max - modulus, modulus - cross_min) < _VERIFY_TOL
        and tight_dev < _VERIFY_TOL * max(1.0, m / n)
    )
    return Verification(ok, modulus, group_dev, cross_min, cross_max, tight_dev)


def _cross_moduli(tile):
    """The smallest and largest |<p_i, p_j>| over the pairs of a tile of the pair walk."""
    _, _, g, keep = tile
    mods, pairs = np.abs(g), True if keep is None else keep[:, None, :, None]
    return float(mods.min(where=pairs, initial=np.inf)), float(mods.max(where=pairs, initial=0.0))


def verify_etf(p):
    """Check unit columns, equiangularity at the Welch bound, and tightness."""
    p = as_matrix(p)
    n, m = p.shape
    if not 0 < n < m:
        raise FrameError(f"an ETF here must be overcomplete, got {n}x{m}")
    return _verify(p, 1, float(np.sqrt((m - n) / (n * (m - 1)))))


def verify_flat_union(p):
    """Check that p is a union of orthobases with one cross-basis modulus 1/sqrt(n)."""
    p = as_matrix(p)
    n, m = p.shape
    if n == 0 or m % n != 0 or m // n < 2:
        raise FrameError(f"need a multiple of at least two bases, got {n}x{m}")
    return _verify(p, n, float(1.0 / np.sqrt(n)))


def _verified(p, kind, what):
    """p itself, once verify_etf (kind "ETF") or verify_flat_union passes it."""
    rep = verify_etf(p) if kind == "ETF" else verify_flat_union(p)
    if not rep.ok:
        raise FrameError(f"{what} failed {kind} verification: {rep}")
    return p


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
    v = check_count(v, "v", minimum=3)
    check_entries(v * (v - 1) // 2 * v * v, f"steiner_pairs_etf({v})")
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
    return _verified(p, "ETF", f"steiner_pairs_etf({v})")


def harmonic_qr_etf(p_prime):
    """ETF of size (p-1)/2 x p from the quadratic-residue rows of the DFT.

    Requires p prime with p = 3 (mod 4); then the quadratic residues form a
    difference set and the selected DFT rows, rescaled to unit columns, are
    equiangular with coherence sqrt(p+1)/(p-1).
    """
    p_prime = check_count(p_prime, "p")
    check_entries((p_prime - 1) // 2 * p_prime, f"harmonic_qr_etf({p_prime})")
    if not is_prime(p_prime) or p_prime % 4 != 3:
        raise FrameError(f"need a prime p = 3 (mod 4), got {p_prime}")
    residues = sorted({(x * x) % p_prime for x in range(1, p_prime)})
    k = (p_prime - 1) // 2
    j = np.arange(p_prime)
    rows = np.exp(2j * np.pi * np.outer(residues, j) / p_prime)
    return _verified(rows / np.sqrt(k), "ETF", f"harmonic_qr_etf({p_prime})")


# --- flat unions of orthobases ---------------------------------------------


def _modulated_windows(phase, what):
    """The p x p^2 union whose column a*p + b is window a modulated by tone b.

    phase[t, a] is the integer phase of window a at index t.  Column a*p + b
    holds exp(2*pi*i*phase[t, a]/p) * exp(2*pi*i*b*t/p) / sqrt(p); the p
    tones of one unimodular window form one orthobasis.
    """
    p_prime = phase.shape[0]
    t = np.arange(p_prime)[:, None]
    windows = np.exp(2j * np.pi * phase / p_prime)
    tones = np.exp(2j * np.pi * t.T * t / p_prime)  # [t, b]
    cols = (windows[:, :, None] * tones[:, None, :]).reshape(p_prime, p_prime * p_prime)
    cols /= np.sqrt(p_prime)
    return _verified(cols, "flat union", what)


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
    p_prime = check_count(p_prime, "p")
    check_entries(p_prime**3, f"alltop_gabor({p_prime})")
    if not is_prime(p_prime) or p_prime < 5:
        raise FrameError(f"need a prime p >= 5, got {p_prime}")
    t = np.arange(p_prime)[:, None]
    a = t.T
    return _modulated_windows(((t + a) ** 3 - a**3) % p_prime, f"alltop_gabor({p_prime})")


def discrete_chirp(p_prime):
    """All p^2 chirps exp(2*pi*i*(a*t^2 + b*t)/p)/sqrt(p), p an odd prime.

    Fixed chirp rate a gives an orthobasis; distinct rates meet at modulus
    1/sqrt(p) by the quadratic Gauss sum.
    """
    p_prime = check_count(p_prime, "p")
    check_entries(p_prime**3, f"discrete_chirp({p_prime})")
    if not is_prime(p_prime) or p_prime < 3:
        raise FrameError(f"need an odd prime, got {p_prime}")
    t = np.arange(p_prime)[:, None]
    return _modulated_windows(t.T * t * t % p_prime, f"discrete_chirp({p_prime})")


def id_hadamard_union(k):
    """The identity basis next to the scaled Sylvester-Hadamard basis."""
    k = check_count(k, "k")
    # 2^k x 2^(k+1) entries; the min spares a huge k a huge integer
    check_entries(2 * 4 ** min(k, 14), f"id_hadamard_union({k})")
    n = 1 << k
    h = hadamard_sylvester(k) / np.sqrt(n)
    p = np.concatenate([np.eye(n), h], axis=1)
    return _verified(p, "flat union", f"id_hadamard_union({k})")


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


def kerdock_set(k):
    """2^(k-1) binary symmetric k x k matrices with nonsingular differences.

    k must be even so that k-1 is odd and F = GF(2^(k-1)) supports the
    classical trace construction: identify GF(2)^k with F x GF(2) and give
    each field element s the Boolean quadratic form

        q_s(x, e) = sum_{j=1}^{(k-2)/2} tr((s x)^(2^j + 1)) + e * tr(s x),

    whose polarization (computed here on the standard basis) is the matrix
    P_s.  Diagonals are zeroed: over GF(2) they only shift the linear term
    of the form, so the spanned bases are unchanged while the nonsingular-
    difference condition becomes exactly the flatness condition.  The set
    is therefore not checked here: kerdock_real verifies the flat union it
    spans (verify_flat_union), which tests every difference once, for this
    set and for one given to it alike.
    """
    k = check_count(k, "k")
    if k - 1 not in _GF2_POLY:  # degrees 3, 5, ..., 11: the even k from 4 to 12
        raise FrameError(f"need even k from 4 to {max(_GF2_POLY) + 1}, got {k}")
    deg, poly = k - 1, _GF2_POLY[k - 1]

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
    return mats


def validate_kerdock_set(mats, k):
    """A set as kerdock_real reads it: 2^(k-1) symmetric binary k x k matrices.

    Only the shape is checked here.  Whether the differences are
    nonsingular, which is what makes the bases mutually flat, is decided by
    the flat-union verification of the frame kerdock_real builds, as for
    kerdock_set's own set.
    """
    if len(mats) != 1 << (k - 1):
        raise FrameError(f"expected {1 << (k - 1)} matrices, got {len(mats)}")
    for p in mats:
        p = np.asarray(p)
        if p.shape != (k, k) or not np.array_equal(p, p.T) or not np.isin(p, (0, 1)).all():
            raise FrameError("kerdock set entries must be symmetric k x k binary")


def kerdock_real(k, mats=None):
    """Real flat union of 2^(k-1) bases of R^(2^k) from a Kerdock set.

    Basis P contributes the columns sign(P) * (-1)^(Q_P(x) + a.x) / sqrt(n')
    over all a, where Q_P(x) = sum_{i<j} P_ij x_i x_j and sign(P) alternates
    +1, -1 along the enumeration.  The alternation cancels the column sums
    of the bases pairwise, which is what puts the average column coherence
    at exactly 1/(m-1); cross-basis moduli are untouched by it.

    A set given as mats has its shape checked (validate_kerdock_set); it
    and kerdock_set's own set are then checked by the flat-union
    verification of the frame alone.
    """
    k = check_count(k, "k")
    # 2^k x 2^(2k-1) entries; the min spares a huge k a huge integer
    check_entries(2 ** (3 * min(k, 14) - 1), f"kerdock_real({k})")
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
    return _verified(np.concatenate(blocks, axis=1), "flat union", f"kerdock_real({k})")


def read_kerdock_set_file(path, k):
    """Parse a Kerdock set from text: one matrix per line, k hex-packed rows.

    Row i is an integer below 2^k whose bit j is entry (i, j), written in
    hex digits alone; rows are separated by spaces.  Blank lines and
    #-comments are skipped.  The set is only parsed here; kerdock_real
    checks its shape and verifies the frame it spans.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise FrameError(f"{path}: cannot read kerdock set file ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise FrameError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    mats = []
    for line in lines:
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        if len(words) != k:
            raise FrameError(f"{path}: expected {k} rows per line, got {len(words)}")
        if not all(re.fullmatch("[0-9a-fA-F]+", w) and int(w, 16) < 1 << k for w in words):
            raise FrameError(f"{path}: rows must be hex words below 2^{k}, got {line.strip()!r}")
        rows = [int(w, 16) for w in words]
        mats.append(np.array([[(rv >> j) & 1 for j in range(k)] for rv in rows], np.uint8))
    return mats


# --- Kronecker constructions ------------------------------------------------


def _lift(p, q):
    """Blocks p_i (x) q of a verified P and a unitary q; P is not verified again."""
    q = as_matrix(q)
    if q.shape[0] != q.shape[1] or not q.size:
        raise FrameError(f"kron factor must be square and nonempty, got {q.shape}")
    if gram_deviation(q) > _VERIFY_TOL:
        raise FrameError("kron factor is not unitary within 1e-10")
    r = q.shape[0]
    return BlockFrame(n=p.shape[0] * r, r=r, m=p.shape[1], data=kronecker(p, q))


def kron_from_etf(p, q):
    """Blocks p_i (x) q from an ETF p and unitary q.

    Cross-Grams collapse to <p_i, p_j> * I, so the worst-case block
    coherence equals the ETF coherence, which meets the universal lower
    bound with equality; all principal angles coincide (equi-isoclinic).
    """
    return _lift(_verified(as_matrix(p), "ETF", "kron_from_etf's P"), q)


def kron_from_flat_union(p, q):
    """Blocks p_i (x) q from a flat union of orthobases and unitary q.

    The result is a union of orthobases whose worst-case block coherence
    meets the sqrt(r/n) bound with equality.
    """
    return _lift(_verified(as_matrix(p), "flat union", "kron_from_flat_union's P"), q)


# --- recipes ----------------------------------------------------------------


def _kerdock_recipe(k, set_file=None):
    """kerdock_real from the generated Kerdock set, or from the one in set_file."""
    return kerdock_real(k, None if set_file is None else read_kerdock_set_file(set_file, k))


def _external(path):
    """The column matrix of a .bfm file, verified once as an ETF or a flat union.

    The two kinds never overlap: a flat union's first two columns lie in one
    basis and are orthogonal, while an ETF's meet at the Welch modulus.
    """
    p = read_bfm(path).data
    n, m = p.shape
    flat = m > n and m % n == 0 and abs(np.vdot(p[:, 0], p[:, 1])) < _VERIFY_TOL
    return _verified(p, "flat union" if flat else "ETF", f"external frame {path}")


# family -> (the name of its one required parameter, the builder of its verified P);
# a builder takes that parameter, then any optional ones by name
FAMILIES = {
    "steiner": ("v", steiner_pairs_etf),
    "harmonic": ("p", harmonic_qr_etf),
    "alltop": ("p", alltop_gabor),
    "chirp": ("p", discrete_chirp),
    "id-hadamard": ("k", id_hadamard_union),
    "kerdock": ("k", _kerdock_recipe),
    "external": ("path", _external),
}


def build_frame(family, value, kron=("none",), **optional):
    """The block frame of a family's P, lifted by a kron factor.

    value is the family's one required parameter, the one FAMILIES names,
    and optional holds the builder's optional ones by name (kerdock's
    set_file).  kron is ("none",), ("hadamard", k), ("dft", r) or
    ("file", path).  The family's builder verifies P once; the lift does not
    verify it again.  The frame is real exactly when both factors are.
    """
    if family not in FAMILIES:
        raise FrameError(f"unknown family {family!r}")
    p = FAMILIES[family][1](value, **optional)
    kind = kron[0]
    if kind == "none":
        return BlockFrame(n=p.shape[0], r=1, m=p.shape[1], data=p)
    if kind == "hadamard":
        q = hadamard_sylvester(int(kron[1])) / np.sqrt(1 << int(kron[1]))
    elif kind == "dft":
        q = dft_matrix(int(kron[1]))
    elif kind == "file":
        q = read_bfm(kron[1]).data
    else:
        raise FrameError(f"unknown kron factor kind {kind!r}")
    return _lift(p, q)
