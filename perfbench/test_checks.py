"""Each benchmark check passes on real outputs and fails on a corrupted copy.

    python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from blockframe import flip, sample_block_frame, worst_case_coherence  # noqa: E402
from blockframe.sampling import RandomFrameSpec  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


# ------------------------------------------------------------------ kerdock-cli


@pytest.fixture
def kerdock_dirs(tmp_path):
    wl = workloads.KerdockCli(0, tmp_path / "wk")
    wl.prepare()
    dirs = wl.inputs(0)
    wl.run(dirs)
    return dirs


def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def test_kerdock_outputs_pass(kerdock_dirs):
    checks.check_kerdock_cli(*kerdock_dirs)


def test_kerdock_one_flipped_sign_fails(kerdock_dirs):
    def negate(p):
        p["signs"][5] = -p["signs"][5]

    _edit_json(kerdock_dirs[2] / "flip.json", negate)
    with pytest.raises(CheckFailed, match="original times the signs"):
        checks.check_kerdock_cli(*kerdock_dirs)


def test_kerdock_mu_off_by_1e6_fails(kerdock_dirs):
    def shift(p):
        p["worst_case_coherence"] += 1e-6

    _edit_json(kerdock_dirs[1] / "report.json", shift)
    with pytest.raises(CheckFailed, match="mu"):
        checks.check_kerdock_cli(*kerdock_dirs)


def test_kerdock_mu_after_one_ulp_off_fails(kerdock_dirs):
    def bump(p):
        p["mu_after"] = float(np.nextafter(p["mu_after"], 1.0))

    _edit_json(kerdock_dirs[2] / "flip.json", bump)
    with pytest.raises(CheckFailed, match="mu_after"):
        checks.check_kerdock_cli(*kerdock_dirs)


def _edit_gram(path, cells, value):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    for i, j in cells:
        rows[i][j] = repr(value)
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")


def test_kerdock_gram_row_with_changed_entry_fails(kerdock_dirs):
    _edit_gram(kerdock_dirs[1] / "gram.csv", [(3, 40)], 0.2)
    with pytest.raises(CheckFailed, match="symmetric"):
        checks.check_kerdock_cli(*kerdock_dirs)


def test_kerdock_gram_symmetric_change_fails(kerdock_dirs):
    # keeps the map symmetric, so the row census and the recomputation must catch it
    _edit_gram(kerdock_dirs[1] / "gram.csv", [(3, 40), (40, 3)], 0.25 + 1e-9)
    with pytest.raises(CheckFailed, match="gram.csv rows"):
        checks.check_kerdock_cli(*kerdock_dirs)


def test_kerdock_manifest_hash_mismatch_fails(kerdock_dirs):
    report = kerdock_dirs[0] / "report.json"
    report.write_text(report.read_text() + "\n")
    with pytest.raises(CheckFailed, match="sha256"):
        checks.check_kerdock_cli(*kerdock_dirs)


# ------------------------------------------------------------------ random-frames


def _random(n, r, m):
    return sample_block_frame(RandomFrameSpec(n=n, r=r, m=m, seed=7))


def test_random_mu_passes_and_fails_when_off():
    f = _random(40, 4, 40)
    mu = worst_case_coherence(f)
    checks.check_random_mu(f.data, f.n, f.r, f.m, mu)
    with pytest.raises(CheckFailed, match="batched svd"):
        checks.check_random_mu(f.data, f.n, f.r, f.m, mu + 1e-6)


def test_random_mu_fails_on_non_orthonormal_block():
    f = _random(40, 4, 40)
    data = f.data.copy()
    data[0, 0] += 1e-9
    with pytest.raises(CheckFailed, match="orthonormal"):
        checks.check_random_mu(data, f.n, f.r, f.m, worst_case_coherence(f))


def test_block_welch_bound_met_by_the_mercedes_frame():
    # three unit vectors at 120 degrees in R^2: coherence 1/2, the Welch value
    angles = 2 * np.pi * np.arange(3) / 3
    data = np.vstack([np.cos(angles), np.sin(angles)]).astype(np.complex128)
    assert checks.mu_by_svd(data, 1) == pytest.approx(0.5, abs=1e-15)
    assert checks.block_welch_bound(2, 1, 3) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_random_flip_passes(r):
    f = _random(32, r, 64)
    checks.check_random_flip(f.data, r, flip(f))


def test_random_flip_one_flipped_sign_fails():
    f = _random(32, 2, 64)
    res = flip(f)
    signs = res.signs.copy()
    signs[9] = -signs[9]
    with pytest.raises(CheckFailed, match="original times the signs"):
        checks.check_random_flip(f.data, 2, dataclasses.replace(res, signs=signs))


def test_random_flip_non_greedy_signs_fail():
    f = _random(32, 2, 64)
    res = flip(f)
    signs = res.signs.copy()
    signs[9] = -signs[9]
    scale = np.repeat(signs.astype(np.float64), 2)
    other = dataclasses.replace(
        res, signs=signs, frame=dataclasses.replace(res.frame, data=f.data * scale[None, :])
    )
    with pytest.raises(CheckFailed, match="greedy sign of block 9"):
        checks.check_random_flip(f.data, 2, other)


def test_random_flip_mu_after_off_fails():
    f = _random(32, 2, 64)
    res = flip(f)
    with pytest.raises(CheckFailed, match="mu_after"):
        checks.check_random_flip(f.data, 2, dataclasses.replace(res, mu_after=res.mu_after + 1e-6))


def test_random_flip_nu_off_fails():
    f = _random(32, 2, 64)
    res = flip(f)
    with pytest.raises(CheckFailed, match="nu_after"):
        checks.check_random_flip(f.data, 2, dataclasses.replace(res, nu_after=res.nu_after + 1e-6))


# ------------------------------------------------------------------ cs-ndp


@pytest.fixture
def cs_out(tmp_path):
    wl = workloads.CsNdp(0, tmp_path / "wk")
    wl.prepare()
    inputs = wl.inputs(0)
    wl.run(inputs)
    return wl, inputs


def _check_ndp(wl, out):
    checks.check_ndp_csv(out / "ndp.csv", ("det", "rnd"), wl.K_GRID, wl.DR_GRID, wl.TRIALS)


def _edit_ndp(path, row_pick, value):
    lines = path.read_text().splitlines()
    for idx, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if row_pick(cells):
            cells[3] = repr(value)
            lines[idx] = ",".join(cells)
            break
    path.write_text("\n".join(lines) + "\n")


def test_cs_outputs_pass(cs_out):
    wl, inputs = cs_out
    wl.check(inputs, None)


def test_cs_k1_miss_fails(cs_out):
    wl, (out, _) = cs_out
    _edit_ndp(out / "ndp.csv", lambda c: c[1] == "1", 1.0 / 3.0)
    with pytest.raises(CheckFailed, match="misses at k=1"):
        _check_ndp(wl, out)


def test_cs_fractional_miss_count_fails(cs_out):
    wl, (out, _) = cs_out
    _edit_ndp(out / "ndp.csv", lambda c: c[1] == "4", 0.1)
    with pytest.raises(CheckFailed, match="whole number of misses"):
        _check_ndp(wl, out)


def test_cs_ndp_above_one_fails(cs_out):
    wl, (out, _) = cs_out
    _edit_ndp(out / "ndp.csv", lambda c: c[1] == "2", 1.5)
    with pytest.raises(CheckFailed, match="outside"):
        _check_ndp(wl, out)


def test_threshold_wrong_pick_fails(cs_out):
    wl, _ = cs_out
    fr = wl.det_frame
    rng = np.random.default_rng(3)
    y = fr.data @ checks.draw_block_sparse(rng, fr.m, fr.r, 3, 10.0)
    picked = checks.top_k_blocks(fr.data, fr.r, y, 3)
    checks.check_threshold_picks(picked, fr.data, fr.r, y, 3)
    wrong = sorted(set(range(fr.m)) - set(picked))[:1] + picked[1:]
    with pytest.raises(CheckFailed, match="group threshold"):
        checks.check_threshold_picks(sorted(wrong), fr.data, fr.r, y, 3)
