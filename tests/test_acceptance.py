"""End-to-end acceptance gate.

Each numbered check prints exactly one PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to watch them as they finish)
and then asserts.  Heavy checks spread trials over up to 8 threads;
every result is bit-identical for any thread count.
"""

import math
import os
import time

import numpy as np
from scipy.special import gammaln

from blockframe import (
    BlockFrame,
    RandomFrameSpec,
    alltop_gabor,
    average_coherence,
    average_column_coherence,
    chordal_distance,
    default_block_count,
    discrete_chirp,
    empirical_mu_curve,
    flip,
    flipped_nu_bound,
    frobenius_norm,
    gram_map,
    hadamard_sylvester,
    harmonic_qr_etf,
    id_hadamard_union,
    kerdock_real,
    kron_from_etf,
    kron_from_flat_union,
    kronecker,
    log_beta,
    overlap_tail_bound,
    parallel_map,
    reg_inc_beta,
    run_ndp_experiment,
    sample_block_frame,
    sample_subspace,
    solve_threshold,
    spectral_distance,
    spectral_norm,
    steiner_pairs_etf,
    substream_rng,
    validate,
    welch_coherence_lower,
    worst_case_coherence,
)

THREADS = min(8, os.cpu_count() or 1)

_H1 = hadamard_sylvester(1) / math.sqrt(2.0)


def _report(num, name, ok, detail=""):
    line = f"[{num}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


def test_01_steiner_kron_meets_lower_bound():
    t0 = time.perf_counter()
    frame = kron_from_etf(steiner_pairs_etf(4), _H1)
    mu = worst_case_coherence(frame)
    rec = validate(frame)
    dt = time.perf_counter() - t0
    ok = abs(mu - 1.0 / 3.0) <= 1e-9 and rec.equi_isoclinic and dt < 1.0
    _report(
        1,
        "steiner(4) x hadamard frame is equi-isoclinic at mu = 1/3",
        ok,
        f"mu={mu:.12f} equi_isoclinic={rec.equi_isoclinic} ({dt:.2f}s)",
    )


def test_02_kerdock_kron_values():
    t0 = time.perf_counter()
    frame = kron_from_flat_union(kerdock_real(6), _H1)
    mu = worst_case_coherence(frame)
    nu = average_coherence(frame)
    g = gram_map(frame)
    off = g[~np.eye(frame.m, dtype=bool)]
    two_valued_dev = float(np.minimum(np.abs(off), np.abs(off - 0.125)).max())
    witness = kron_from_flat_union(alltop_gabor(7), _H1)
    mu_witness = worst_case_coherence(witness)
    dt = time.perf_counter() - t0
    ok = (
        (frame.n, frame.r, frame.m) == (128, 2, 2048)
        and abs(mu - 0.125) <= 1e-9
        and abs(nu - 1.0 / 2047.0) <= 1e-6
        and two_valued_dev <= 1e-9
        and abs(mu_witness - 7.0 ** -0.5) <= 1e-9
        and dt < 300.0
    )
    _report(
        2,
        "kerdock(6) x hadamard frame: mu = 0.125, nu = 1/2047, two-valued gram",
        ok,
        f"mu={mu:.12f} nu={nu:.9e} gram_dev={two_valued_dev:.2e} "
        f"alltop7_mu={mu_witness:.12f} ({dt:.1f}s)",
    )


def test_03_kronecker_coherence_identities():
    t0 = time.perf_counter()
    worst_nu = 0.0
    worst_mu = 0.0
    for s in range(20):
        rng = substream_rng(777, s)
        p = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        p /= np.linalg.norm(p, axis=0)
        q = sample_subspace(2, 2, rng, "complex")
        frame = BlockFrame(n=10, r=2, m=8, data=kronecker(p, q), field_tag="complex")
        col_gram = np.abs(p.conj().T @ p)
        np.fill_diagonal(col_gram, 0.0)
        worst_nu = max(worst_nu, abs(average_coherence(frame) - average_column_coherence(p)))
        worst_mu = max(worst_mu, abs(worst_case_coherence(frame) - float(col_gram.max())))
    dt = time.perf_counter() - t0
    ok = worst_nu <= 1e-10 and worst_mu <= 1e-10
    _report(
        3,
        "kronecker lift preserves coherence statistics of the column factor",
        ok,
        f"max|nu dev|={worst_nu:.2e} max|mu dev|={worst_mu:.2e} over 20 draws ({dt:.2f}s)",
    )


def test_04_average_column_coherence_closed_forms():
    t0 = time.perf_counter()
    cases = [
        ("alltop(7)", alltop_gabor(7), 1.0 / 8.0),
        ("alltop(11)", alltop_gabor(11), 1.0 / 12.0),
        ("chirp(7)", discrete_chirp(7), (49.0 - 7.0) / (7.0 * 48.0)),
        ("chirp(11)", discrete_chirp(11), (121.0 - 11.0) / (11.0 * 120.0)),
        ("kerdock(4)", kerdock_real(4), 1.0 / 127.0),
        ("kerdock(6)", kerdock_real(6), 1.0 / 2047.0),
    ]
    devs = {name: abs(average_column_coherence(mat) - want) for name, mat, want in cases}
    dt = time.perf_counter() - t0
    worst = max(devs.values())
    ok = worst <= 1e-6
    _report(
        4,
        "closed-form average column coherence for alltop / chirp / kerdock",
        ok,
        f"max dev={worst:.2e} ({dt:.1f}s)",
    )


def test_05_threshold_solver():
    t0 = time.perf_counter()
    tiny = solve_threshold(1e-4)
    near_half = solve_threshold(0.4999)
    grid = np.linspace(0.01, 0.49, 50)
    sols = [solve_threshold(float(b)) for b in grid]
    max_res = max(abs(s.residual) for s in sols)
    decreasing = all(
        sols[i + 1].multiplier < sols[i].multiplier for i in range(len(sols) - 1)
    )
    dt = time.perf_counter() - t0
    ok = (
        abs(tiny.multiplier - 5.357) <= 0.01
        and near_half.multiplier < 2.05
        and max_res < 1e-10
        and decreasing
        and dt < 1.0
    )
    _report(
        5,
        "threshold multiplier: endpoints, residuals, monotone on 50-point grid",
        ok,
        f"a(1e-4)={tiny.multiplier:.6f} a(0.4999)={near_half.multiplier:.6f} "
        f"max|res|={max_res:.2e} decreasing={decreasing} ({dt:.2f}s)",
    )


def _finite_n_mu2_bound(n, r, m, steps=2000):
    """Upper bound B(n, r, m) on E[mu^2] for m independent uniform r-subspaces.

    The union bound over the C(m, 2) block pairs gives
    P(mu^2 >= lam) <= min(1, C(m, 2) * G(lam)), G = overlap_tail_bound, and
    integrating that tail over [0, 1] bounds E[mu^2], hence also
    (E[mu])^2 by Jensen.  G decreases in lam, so the left Riemann sum
    over-estimates the integral and is itself a rigorous bound.
    """
    pairs = math.comb(m, 2)
    tail = sum(
        min(1.0, pairs * overlap_tail_bound(k / steps, n, r)) for k in range(1, steps)
    )
    return (1.0 + tail) / steps  # the integrand is 1 at lam = 0


def test_06_random_subspace_coherence_curve():
    # The asymptotic threshold a(beta)*beta is an n -> infinity statement; at
    # n = 200 the ~80,000 block pairs push mu^2 past it at small beta.  The
    # sample is held to the finite-n bound B, and B must approach the
    # asymptotic threshold as n grows.
    t0 = time.perf_counter()
    n, r_grid = 200, list(range(10, 100, 10))
    points = empirical_mu_curve(n, r_grid, trials=50, seed=0, threads=THREADS)
    rows = [
        (p.beta, p.mean_mu**2, _finite_n_mu2_bound(n, r, default_block_count(n, r)))
        for r, p in zip(r_grid, points)
    ]
    violations = [(b, e, bound) for b, e, bound in rows if e > bound]
    slack, tight_beta = min((bound - e, b) for b, e, bound in rows)

    asymptote = solve_threshold(0.05).multiplier * 0.05
    scaling = [
        _finite_n_mu2_bound(nn, nn // 20, 400) for nn in (200, 400, 800, 1600, 3200)
    ]
    shrinking = all(hi > lo for hi, lo in zip(scaling, scaling[1:]))
    last_gap = scaling[-1] - asymptote
    converging = shrinking and 0.0 < last_gap < 0.01
    dt = time.perf_counter() - t0
    ok = not violations and converging and dt < 600.0
    scale_detail = (
        "B(n, n/20, 400) for n=200..3200: "
        + ", ".join(f"{b:.4f}" for b in scaling)
        + f" -> a(0.05)*0.05={asymptote:.4f} (decreasing={shrinking}, gap={last_gap:.4f})"
    )
    if violations:
        worst = "; ".join(
            f"beta={b:.3f}: mean_mu^2={e:.6f} > B={t:.6f}" for b, e, t in violations
        )
        detail = (
            f"{worst}; other {len(points) - len(violations)}/{len(points)} "
            f"grid points satisfy the bound; {scale_detail} ({dt:.1f}s)"
        )
    else:
        detail = (
            f"all {len(points)} grid points within B, worst slack "
            f"B - mean_mu^2 = {slack:.6f} at beta={tight_beta:.3f}; "
            f"{scale_detail} ({dt:.1f}s)"
        )
    _report(
        6,
        "squared mean coherence of random frames below the finite-n bound at n=200",
        ok,
        detail,
    )


def test_07_flipping_preserves_mu_and_cuts_nu():
    t0 = time.perf_counter()
    bound = flipped_nu_bound(2048)
    per_r = []
    all_ok = True
    for r in (1, 2, 3):
        spec = RandomFrameSpec(n=128, r=r, m=2048, seed=0)

        def one(t, _spec=spec):
            f = sample_block_frame(_spec, trial=t)
            res = flip(f)
            gram_eq = np.array_equal(gram_map(res.frame), gram_map(f))
            return res.nu_before, res.nu_after, gram_eq

        rows = parallel_map(one, range(10), THREADS)
        befores = np.array([b for b, _, _ in rows])
        afters = np.array([a for _, a, _ in rows])
        gram_all = all(g for _, _, g in rows)
        decreases = int((afters < befores).sum())
        improvement = 100.0 * (1.0 - afters.mean() / befores.mean())
        under_bound = bool((afters <= bound).all())
        r_ok = (
            gram_all
            and decreases >= 9
            and 50.0 <= improvement <= 95.0
            and under_bound
        )
        all_ok = all_ok and r_ok
        per_r.append(
            f"r={r}: dec={decreases}/10 impr={improvement:.1f}% "
            f"gram_eq={gram_all} under_bound={under_bound}"
        )
    dt = time.perf_counter() - t0
    ok = all_ok and dt < 900.0
    _report(
        7,
        "sign flipping at (n,m)=(128,2048): mu exact, nu down, bound respected",
        ok,
        "; ".join(per_r) + f" ({dt:.1f}s)",
    )


def test_08_group_thresholding_ndp():
    t0 = time.perf_counter()
    det = kron_from_etf(steiner_pairs_etf(4), _H1)
    pre = [
        sample_block_frame(RandomFrameSpec(n=12, r=2, m=16, seed=0), trial=t)
        for t in range(10)
    ]
    results = run_ndp_experiment(
        frames=[("deterministic", det), ("random", lambda t: pre[t % 10])],
        k_grid=[1, 2, 3, 4, 5, 6],
        dr_grid=[10.0, 100.0],
        trials=500,
        seed=0,
        threads=THREADS,
    )
    mean = {(res.label, res.k, res.dynamic_range): res.mean_ndp for res in results}
    det_beats = all(
        mean[("deterministic", k, dr)] <= mean[("random", k, dr)]
        for k in range(1, 7)
        for dr in (10.0, 100.0)
    )
    dr_gap = float(
        np.mean(
            [
                abs(mean[("deterministic", k, 10.0)] - mean[("deterministic", k, 100.0)])
                for k in range(1, 7)
            ]
        )
    )
    dt = time.perf_counter() - t0
    ok = det_beats and dr_gap < 0.05 and dt < 300.0
    _report(
        8,
        "deterministic frame beats random on mean NDP; DR curves nearly coincide",
        ok,
        f"det<=random at all (k,DR)={det_beats} mean|DR10-DR100|={dr_gap:.4f} ({dt:.1f}s)",
    )


def _charpoly_spectral_norm(mat):
    # independent route: char poly of M*M by Faddeev-LeVerrier, then np.roots
    h = mat.conj().T @ mat
    k = h.shape[0]
    coeffs = np.zeros(k + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    acc = np.eye(k, dtype=np.complex128)
    for i in range(1, k + 1):
        acc = h @ acc
        c = -np.trace(acc) / i
        coeffs[i] = c
        acc += c * np.eye(k)
    roots = np.roots(coeffs)
    return float(np.sqrt(max(roots.real.max(), 0.0)))


def _construction_catalog():
    yield kron_from_etf(steiner_pairs_etf(4), _H1)
    yield kron_from_etf(steiner_pairs_etf(5), _H1)
    yield kron_from_etf(harmonic_qr_etf(7), _H1)
    yield kron_from_etf(harmonic_qr_etf(11), _H1)
    yield kron_from_flat_union(alltop_gabor(5), _H1)
    yield kron_from_flat_union(alltop_gabor(7), _H1)
    yield kron_from_flat_union(discrete_chirp(5), _H1)
    yield kron_from_flat_union(discrete_chirp(7), _H1)
    yield kron_from_flat_union(id_hadamard_union(1), _H1)
    yield kron_from_flat_union(id_hadamard_union(2), _H1)
    yield kron_from_flat_union(id_hadamard_union(3), _H1)
    yield kron_from_flat_union(kerdock_real(4), _H1)


def test_09_property_suites():
    t0 = time.perf_counter()

    # (a) + (b): distance identities and the norm-ordering inequality
    worst_spec_id = 0.0
    worst_chord_id = 0.0
    norm_order = True
    pairs = 0
    for s in range(100):
        f = sample_block_frame(RandomFrameSpec(n=12, r=3, m=5, seed=s))
        for i in range(5):
            for j in range(i + 1, 5):
                cross = f.block(i).conj().T @ f.block(j)
                sn = spectral_norm(cross)
                fr = frobenius_norm(cross)
                worst_spec_id = max(
                    worst_spec_id, abs(spectral_distance(f, i, j) ** 2 + sn**2 - 1.0)
                )
                worst_chord_id = max(
                    worst_chord_id, abs(chordal_distance(f, i, j) ** 2 - (3.0 - fr**2))
                )
                norm_order = norm_order and fr**2 <= 3.0 * sn**2
                pairs += 1
    a_ok = worst_spec_id <= 1e-12 and worst_chord_id <= 1e-12 and pairs == 1000
    b_ok = norm_order

    # (c): every catalog construction sits above the coherence lower bounds
    c_ok = True
    for frame in _construction_catalog():
        mu = worst_case_coherence(frame)
        c_ok = c_ok and mu >= welch_coherence_lower(frame.n, frame.r, frame.m) - 1e-9
        if validate(frame).union_of_orthobases:
            c_ok = c_ok and mu >= math.sqrt(frame.r / frame.n) - 1e-9

    # (d): spectral norm against the characteristic-polynomial route
    rng = substream_rng(404)
    worst_norm = 0.0
    for _ in range(200):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(2, 7))
        mat = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        worst_norm = max(worst_norm, abs(spectral_norm(mat) - _charpoly_spectral_norm(mat)))
    d_ok = worst_norm <= 1e-8

    # (e): incomplete-beta symmetry and the beta/gamma identity
    rng = substream_rng(909)
    worst_sym = 0.0
    worst_bg = 0.0
    for _ in range(100):
        p, q = (float(v) for v in 10.0 ** rng.uniform(-0.3, 2.0, size=2))
        x = float(rng.uniform(0.01, 0.99))
        worst_sym = max(
            worst_sym, abs(reg_inc_beta(x, p, q) + reg_inc_beta(1.0 - x, q, p) - 1.0)
        )
        worst_bg = max(
            worst_bg, abs(log_beta(p, q) - (gammaln(p) + gammaln(q) - gammaln(p + q)))
        )
    e_ok = worst_sym <= 1e-12 and worst_bg <= 1e-10

    dt = time.perf_counter() - t0
    ok = a_ok and b_ok and c_ok and d_ok and e_ok
    _report(
        9,
        "property suites: distances, norm ordering, bounds, oracles, identities",
        ok,
        f"a={a_ok}(ids {worst_spec_id:.1e}/{worst_chord_id:.1e}) b={b_ok} c={c_ok} "
        f"d={d_ok}(dev {worst_norm:.1e}) e={e_ok}(sym {worst_sym:.1e} bg {worst_bg:.1e}) "
        f"({dt:.1f}s)",
    )
