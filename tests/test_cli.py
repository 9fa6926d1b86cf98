"""End-to-end command-line runs, in process via main(argv)."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from blockframe import BlockFrame, ConvergenceError, __version__, solve_threshold
from blockframe import cli
from blockframe.cli import main
from blockframe import matrixcore
from blockframe.constructions import FAMILIES
from blockframe.io import read_bfm, sha256_file, write_bfm


def test_version_flag():
    with pytest.raises(SystemExit) as ex:
        main(["--version"])
    assert ex.value.code == 0


def test_python_dash_m_blockframe_runs_quietly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "blockframe", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__
    assert proc.stderr == ""


# ---------------------------------------------------------------- construct / analyze


def test_construct_and_analyze_agree(tmp_path):
    cdir = tmp_path / "c"
    adir = tmp_path / "a"
    rc = main(["construct", "--family", "id-hadamard", "--k", "2", "--out-dir", str(cdir)])
    assert rc == 0
    rc = main(["analyze", str(cdir / "frame.bfm"), "--out-dir", str(adir)])
    assert rc == 0
    assert (cdir / "report.json").read_bytes() == (adir / "report.json").read_bytes()
    assert (adir / "gram.csv").exists()
    assert (adir / "analyze-manifest.json").exists()


def test_construct_manifest_contents(tmp_path):
    out = tmp_path / "run"
    assert main(["construct", "--family", "id-hadamard", "--k", "2", "--out-dir", str(out)]) == 0
    man = json.loads((out / "construct-manifest.json").read_text())
    assert man["command"] == "construct"
    assert man["params"]["family"] == "id-hadamard"
    assert man["params"]["k"] == 2
    assert man["seed"] == 0
    assert man["version"] == __version__
    assert man["duration_s"] >= 0.0
    for path, digest in man["outputs"].items():
        assert sha256_file(path) == digest
    assert len(man["outputs"]) == 2


def test_construct_replay_byte_identity(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        assert main(
            ["construct", "--family", "steiner", "--v", "4", "--kron", "hadamard:1", "--out-dir", str(d)]
        ) == 0
    assert (d1 / "frame.bfm").read_bytes() == (d2 / "frame.bfm").read_bytes()
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()


def test_construct_report_values(tmp_path):
    out = tmp_path / "st"
    assert main(
        ["construct", "--family", "steiner", "--v", "4", "--kron", "hadamard:1", "--out-dir", str(out)]
    ) == 0
    payload = json.loads((out / "report.json").read_text())
    assert (payload["n"], payload["r"], payload["m"]) == (12, 2, 16)
    assert payload["worst_case_coherence"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert payload["validation"]["equi_isoclinic"] is True
    assert payload["validation"]["block_orthonormal"] is True


def test_bfm_write_read_write_identical(tmp_path):
    out = tmp_path / "f"
    assert main(["construct", "--family", "id-hadamard", "--k", "2", "--out-dir", str(out)]) == 0
    src = out / "frame.bfm"
    frame = read_bfm(str(src))
    copy = out / "copy.bfm"
    write_bfm(str(copy), frame)
    assert src.read_bytes() == copy.read_bytes()


_FLAG = {
    "steiner": "--v",
    "harmonic": "--p",
    "alltop": "--p",
    "chirp": "--p",
    "id-hadamard": "--k",
    "kerdock": "--k",
    "external": "--file",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_construct_missing_param(tmp_path, capsys, family):
    rc = main(["construct", "--family", family, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert f"{_FLAG[family]} is required" in capsys.readouterr().err


@pytest.mark.parametrize("family", FAMILIES)
def test_construct_refuses_another_familys_flag(tmp_path, capsys, family):
    stray = next(flag for flag in _FLAG.values() if flag != _FLAG[family])
    argv = ["construct", "--family", family, _FLAG[family], "5", stray, "7"]
    assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 2
    assert f"{stray} is not a parameter of family {family}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("family", ["alltop", "chirp"])
def test_construct_refuses_a_factor_above_the_size_guard(tmp_path, capsys, family):
    # p x p^2 entries at p = 1000003; refused before anything is allocated
    rc = main(["construct", "--family", family, "--p", "1000003", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "size guard" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["missing", "directory", "non-utf8", "non-hex"])
def test_construct_bad_kerdock_set_file_exits_2(tmp_path, capsys, bad):
    path = tmp_path / "set.txt"
    if bad == "directory":
        path.mkdir()
    elif bad == "non-utf8":
        path.write_bytes(b"\xff\xfe 0 0 0\n")
    elif bad == "non-hex":
        path.write_text("zz 0 0 0\n")
    argv = ["construct", "--family", "kerdock", "--k", "4", "--kerdock-set-file", str(path)]
    assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 2
    assert str(path) in capsys.readouterr().err


def test_construct_kerdock_set_file_with_another_family_exits_2(tmp_path, capsys):
    argv = ["construct", "--family", "id-hadamard", "--k", "2", "--kerdock-set-file", "set.txt"]
    assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 2
    assert "--kerdock-set-file" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_construct_bad_kron(tmp_path):
    rc = main(
        ["construct", "--family", "steiner", "--v", "4", "--kron", "fourier:2", "--out-dir", str(tmp_path)]
    )
    assert rc == 2


def test_analyze_malformed_file(tmp_path):
    bad = tmp_path / "bad.bfm"
    bad.write_text("not a frame\n")
    assert main(["analyze", str(bad), "--out-dir", str(tmp_path)]) == 2


# ---------------------------------------------------------------- bounds


def test_bounds_stdout(capsys):
    assert main(["bounds", "--n", "12", "--r", "2", "--m", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["welch_block_lower"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert payload["etf_max_blocks"] == 36
    assert payload["max_equiisoclinic"] == 141
    assert payload["orthobases_lower"] == pytest.approx(math.sqrt(2.0 / 12.0), abs=1e-12)


def test_bounds_skips_divisibility_rows(capsys):
    assert main(["bounds", "--n", "9", "--r", "2", "--m", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "etf_max_blocks" not in payload
    assert "orthobases_lower" not in payload


def test_bounds_invalid_regime():
    assert main(["bounds", "--n", "4", "--r", "5", "--m", "8"]) == 2


def test_bounds_out_dir(tmp_path, capsys):
    out = tmp_path / "b"
    assert main(["bounds", "--n", "12", "--r", "2", "--m", "16", "--out-dir", str(out)]) == 0
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads((out / "bounds.json").read_text())
    assert file_payload == stdout_payload
    assert (out / "bounds-manifest.json").exists()


# ---------------------------------------------------------------- threshold


def test_threshold_single_beta(capsys):
    assert main(["threshold", "--beta", "0.25"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "beta,multiplier,residual"
    beta, mult, resid = (float(tok) for tok in lines[1].split(","))
    sol = solve_threshold(0.25)
    assert beta == 0.25
    assert mult == sol.multiplier  # repr floats round-trip exactly
    assert abs(resid) < 1e-10


def test_threshold_grid_csv(tmp_path):
    out = tmp_path / "t"
    assert main(["threshold", "--grid", "0.1:0.4:4", "--out-dir", str(out)]) == 0
    lines = (out / "threshold.csv").read_text().strip().splitlines()
    assert lines[0] == "beta,multiplier,residual"
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == pytest.approx(list(np.linspace(0.1, 0.4, 4)))
    mults = [r[1] for r in rows]
    assert all(a > b for a, b in zip(mults, mults[1:]))
    assert all(abs(r[2]) < 1e-10 for r in rows)


def test_threshold_grid_json(tmp_path):
    out = tmp_path / "tj"
    assert main(
        ["threshold", "--grid", "0.1:0.3:3", "--format", "json", "--out-dir", str(out)]
    ) == 0
    rows = json.loads((out / "threshold.json").read_text())
    assert len(rows) == 3
    assert rows[0]["multiplier"] == solve_threshold(0.1).multiplier


def test_threshold_errors():
    assert main(["threshold", "--beta", "0.6"]) == 2
    assert main(["threshold"]) == 2
    assert main(["threshold", "--grid", "0.1:0.4"]) == 2
    assert main(["threshold", "--grid", "0.4:0.1:5"]) == 2


def test_threshold_grid_count_above_the_size_guard_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(matrixcore, "_MAX_ENTRIES", 1000)
    assert main(["threshold", "--grid", "0.1:0.3:1001"]) == 2
    assert "size guard" in capsys.readouterr().err


def test_threshold_convergence_exit(monkeypatch):
    def boom(beta):
        raise ConvergenceError("bisection stalled")

    monkeypatch.setattr("blockframe.cli.solve_threshold", boom)
    assert main(["threshold", "--beta", "0.25"]) == 3


# ---------------------------------------------------------------- random-mu


def test_random_mu_curve_file(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    args = ["random-mu", "--n", "16", "--r-grid", "2,3", "--trials", "3", "--seed", "7"]
    assert main(args + ["--threads", "1", "--out-dir", str(d1)]) == 0
    assert main(args + ["--threads", "3", "--out-dir", str(d2)]) == 0
    body = (d1 / "curve.csv").read_text()
    assert body == (d2 / "curve.csv").read_text()  # thread count never changes output
    lines = body.strip().splitlines()
    assert lines[0] == "beta,mean_mu,max_mu,theory_mu"
    assert len(lines) == 3
    for line in lines[1:]:
        beta, mean_mu, max_mu, theory = (float(t) for t in line.split(","))
        assert 0.0 < mean_mu <= max_mu <= 1.0


def test_random_mu_env_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKFRAME_THREADS", "zzz")
    args = ["random-mu", "--n", "16", "--r-grid", "2", "--trials", "2", "--out-dir", str(tmp_path)]
    assert main(args) == 2
    monkeypatch.setenv("BLOCKFRAME_THREADS", "2")
    assert main(args) == 0


@pytest.mark.parametrize("value", ["0", "-3"])
def test_thread_count_below_one_exits_2(tmp_path, monkeypatch, capsys, value):
    out = tmp_path / "o"
    args = ["random-mu", "--n", "16", "--r-grid", "2", "--trials", "2", "--out-dir", str(out)]
    assert main(args + ["--threads", value]) == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    monkeypatch.setenv("BLOCKFRAME_THREADS", value)
    assert main(args) == 2
    assert "BLOCKFRAME_THREADS must be at least 1" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- flip


def test_flip_command(tmp_path):
    cdir = tmp_path / "c"
    fdir = tmp_path / "f"
    assert main(["construct", "--family", "id-hadamard", "--k", "2", "--out-dir", str(cdir)]) == 0
    assert main(["flip", str(cdir / "frame.bfm"), "--out-dir", str(fdir)]) == 0
    info = json.loads((fdir / "flip.json").read_text())
    assert info["mu_after"] == info["mu_before"]
    assert info["norm_variant"] == "spectral"
    assert len(info["signs"]) == 8
    flipped = read_bfm(str(fdir / "flipped.bfm"))
    assert (flipped.n, flipped.r, flipped.m) == (4, 1, 8)


def test_flip_table_command(tmp_path):
    out = tmp_path / "ft"
    assert main(
        [
            "flip-table",
            "--n", "16", "--m", "24", "--r-list", "1,2",
            "--realizations", "2", "--out-dir", str(out),
        ]
    ) == 0
    lines = (out / "flip_table.csv").read_text().strip().splitlines()
    assert lines[0] == "r,nu_before_mean,nu_after_mean,improvement_pct,nu_bound"
    assert len(lines) == 3
    for line in lines[1:]:
        vals = [float(t) for t in line.split(",")]
        assert vals[2] < vals[1]  # flipped mean below the unflipped mean


# ---------------------------------------------------------------- cs


def test_cs_command(tmp_path):
    cdir = tmp_path / "c"
    out = tmp_path / "cs"
    assert main(["construct", "--family", "id-hadamard", "--k", "2", "--out-dir", str(cdir)]) == 0
    rc = main(
        [
            "cs",
            "--frame", f"det={cdir / 'frame.bfm'}",
            "--random", "rnd=4,1,8",
            "--k-grid", "1,2",
            "--trials", "4",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "ndp.csv").read_text().strip().splitlines()
    assert lines[0] == "label,k,dynamic_range,mean_ndp,stderr,trials"
    assert len(lines) == 5  # 2 frames x 2 sparsities
    for line in lines[1:]:
        toks = line.split(",")
        assert toks[0] in ("det", "rnd")
        assert 0.0 <= float(toks[3]) <= 1.0
    man = json.loads((out / "cs-manifest.json").read_text())
    assert man["params"]["frames"] == ["det", "rnd"]


def test_cs_requires_frames(tmp_path):
    assert main(["cs", "--k-grid", "1", "--out-dir", str(tmp_path)]) == 2


def test_cs_bad_frame_argument(tmp_path):
    assert main(["cs", "--frame", "nopath", "--k-grid", "1", "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "items, message",
    [
        (["--frame", "a={frame}", "--frame", "a={frame}"], "label 'a' is already taken"),
        (["--frame", "a={frame}", "--random", "a=4,1,8"], "label 'a' is already taken"),
        (["--random", "a=4,1,8", "--random", "a=4,1,8"], "label 'a' is already taken"),
        (["--frame", "={frame}"], "--frame expects LABEL=PATH"),
        (["--random", "=4,1,8"], "--random expects LABEL=N,R,M"),
    ],
    ids=["frame-twice", "frame-and-random", "random-twice", "empty-frame", "empty-random"],
)
def test_cs_duplicate_or_empty_label_exits_2(tmp_path, capsys, frame_file, items, message):
    # --frame and --random labels name the rows of one table
    out = tmp_path / "o"
    argv = ["cs", *(tok.format(frame=frame_file) for tok in items), "--k-grid", "1,2"]
    assert main(argv + ["--trials", "2", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cs", "--random", "rnd=4,1,8", "--k-grid", ",", "--trials", "1"],
        ["cs", "--random", "rnd=4,1,8", "--k-grid", "1", "--dr-grid", ",", "--trials", "1"],
        ["random-mu", "--n", "16", "--r-grid", ",", "--trials", "1"],
        ["flip-table", "--n", "16", "--m", "24", "--r-list", ",", "--realizations", "1"],
    ],
    ids=["k-grid", "dr-grid", "r-grid", "r-list"],
)
def test_empty_grid_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert "expects comma-separated" in capsys.readouterr().err
    assert not out.exists()


_CS = ["cs", "--random", "rnd=4,1,8", "--trials", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cs", "--random", "rnd=4,,1,8", "--k-grid", "1"], "--random expects comma-separated"),
        ([*_CS, "--k-grid", ",1,,2,"], "--k-grid expects comma-separated"),
        ([*_CS, "--k-grid", "1,2", "--dr-grid", "10,"], "--dr-grid expects comma-separated"),
        (["random-mu", "--n", "16", "--r-grid", "2,,3"], "--r-grid expects comma-separated"),
        ([*_CS, "--k-grid", "1,2,1"], "--k-grid repeats a value"),
        ([*_CS, "--k-grid", "1", "--dr-grid", "10,1e1"], "--dr-grid repeats a value"),
        (["random-mu", "--n", "16", "--r-grid", "2,2"], "--r-grid repeats a value"),
        (["flip-table", "--n", "16", "--m", "24", "--r-list", "1,1"], "--r-list repeats a value"),
    ],
    ids=["random-empty", "k-empty", "dr-empty", "r-empty", "k", "dr", "r-grid", "r-list"],
)
def test_empty_entry_or_repeated_grid_value_exits_2(tmp_path, capsys, argv, message):
    # a grid's rows are keyed by its values, and an empty entry is no value
    out = tmp_path / "o"
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_random_shape_may_repeat_a_value(tmp_path):
    out = tmp_path / "o"
    argv = ["cs", "--random", "rnd=8,2,8", "--k-grid", "1", "--trials", "1"]
    assert main(argv + ["--out-dir", str(out)]) == 0
    assert (out / "ndp.csv").read_text().splitlines()[1].startswith("rnd,1,")


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys, frame_file):
    # one parser serves every main call in a process
    runs = [
        ["cs", "--frame", f"a={frame_file}", "--k-grid", "1", "--trials", "1"],
        ["cs", "--random", "b=4,1,8", "--k-grid", "1", "--trials", "1"],
    ]
    for i, argv in enumerate(runs):
        argv = argv + ["--out-dir", str(tmp_path / str(i))]
        assert main(argv) == 0
        man = json.loads((tmp_path / str(i) / "cs-manifest.json").read_text())
        assert man["argv"] == argv
        assert man["params"]["frames"] == [["a"], ["b"]][i]
    with pytest.raises(SystemExit) as ex:
        main(["bounds", "--n", "12", "--r", "2", "--m", "16", "--no-such-option"])
    assert ex.value.code == 2
    out = tmp_path / "b"
    argv = ["bounds", "--n", "12", "--r", "2", "--m", "16", "--out-dir", str(out)]
    assert main(argv) == 0
    assert json.loads((out / "bounds-manifest.json").read_text())["argv"] == argv
    capsys.readouterr()
    for _ in range(2):
        with pytest.raises(SystemExit) as ex:
            main(["--version"])
        assert ex.value.code == 0
        assert capsys.readouterr().out.strip() == __version__


def test_main_calls_the_command_the_module_holds_now(monkeypatch, capsys):
    # the parser is built once, so wrappers set on the module after it was
    # built (a tracer's, a test's) must still be the ones main runs
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_bounds", lambda args: seen.append(args.n) or 0)
    assert main(["bounds", "--n", "12", "--r", "2", "--m", "16"]) == 0
    assert seen == [12]


# ---------------------------------------------------------------- bad input exits 2


def test_analyze_non_utf8_file(tmp_path, capsys):
    bad = tmp_path / "bytes.bfm"
    bad.write_bytes(b"BFM 1\nn=2 r=1 m=2 field=real\n1.0:0.0,\xff\xfe:0.0\n0.0:0.0,1.0:0.0\n")
    assert main(["analyze", str(bad), "--out-dir", str(tmp_path / "a")]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_out_dir_naming_a_file(tmp_path, capsys):
    frame = tmp_path / "f.bfm"
    write_bfm(frame, BlockFrame(n=2, r=1, m=2, data=np.eye(2)))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["analyze", str(frame), "--out-dir", str(taken)]) == 2
    assert "--out-dir" in capsys.readouterr().err


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.bfm"), "--out-dir", str(tmp_path)]) == 2
    assert "missing.bfm" in capsys.readouterr().err


def test_analyze_refuses_gram_map_above_size_guard(tmp_path, capsys):
    # a valid n=2, r=1 frame of 12,000 blocks: its 12,000 x 12,000 Gram map needs 1.15 GB
    theta = np.pi * np.arange(12_000) / 12_000
    path = tmp_path / "wide.bfm"
    write_bfm(path, BlockFrame(n=2, r=1, m=12_000, data=np.stack([np.cos(theta), np.sin(theta)])))
    assert main(["analyze", str(path), "--out-dir", str(tmp_path / "a")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "size guard" in err
    assert not (tmp_path / "a").exists()  # nothing is written before the report is computed


def test_analyze_rejects_non_orthonormal_blocks(tmp_path, capsys):
    bad = tmp_path / "ones.bfm"
    bad.write_text("BFM 1\nn=2 r=1 m=3 field=real\n" + "1.0:0.0,1.0:0.0,1.0:0.0\n" * 2)
    assert main(["analyze", str(bad), "--out-dir", str(tmp_path / "a")]) == 2
    assert "orthonormal" in capsys.readouterr().err
    assert not (tmp_path / "a" / "report.json").exists()


@pytest.mark.parametrize(
    "command, option",
    [
        ("analyze", ["--trials", "5"]),
        ("analyze", ["--format", "json"]),
        ("flip", ["--threads", "2"]),
        ("construct", ["--trials", "5"]),
    ],
)
def test_commands_refuse_options_they_ignore(tmp_path, command, option):
    cdir = tmp_path / "c"
    assert main(["construct", "--family", "id-hadamard", "--k", "2", "--out-dir", str(cdir)]) == 0
    argv = {
        "analyze": ["analyze", str(cdir / "frame.bfm")],
        "flip": ["flip", str(cdir / "frame.bfm")],
        "construct": ["construct", "--family", "id-hadamard", "--k", "2"],
    }[command]
    with pytest.raises(SystemExit) as ex:
        main(argv + option + ["--out-dir", str(tmp_path / "o")])
    assert ex.value.code == 2


def test_cs_zero_trials(tmp_path):
    cdir = tmp_path / "c"
    assert main(["construct", "--family", "id-hadamard", "--k", "2", "--out-dir", str(cdir)]) == 0
    argv = ["cs", "--frame", f"det={cdir / 'frame.bfm'}", "--k-grid", "1", "--trials", "0"]
    assert main(argv + ["--out-dir", str(tmp_path / "cs")]) == 2


@pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
def test_cs_non_finite_snr_exits_2(tmp_path, capsys, snr):
    argv = ["cs", "--random", "rnd=8,2,8", "--k-grid", "1", "--trials", "1", f"--snr-db={snr}"]
    assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 2
    assert "snr_db must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("snr, rc", [("-4000", 2), ("-3080", 2), ("-3000", 0)])
def test_cs_snr_whose_noise_power_overflows_exits_2(tmp_path, capsys, snr, rc):
    # at -4000 dB the power ratio 10^(-snr/10) itself leaves float64; at -3080 dB
    # it is finite, but sigma times the noise draws overflows ||y||^2
    argv = ["cs", "--random", "rnd=8,2,8", "--k-grid", "1", "--trials", "1", f"--snr-db={snr}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out-dir", str(tmp_path / "o")]) == rc
    if rc:
        assert "takes the noisy measurements out of float64" in capsys.readouterr().err
    assert (tmp_path / "o").exists() == (rc == 0)


def test_cs_random_non_positive_shape(tmp_path, capsys):
    argv = ["cs", "--random", "rnd=3,-2,-2", "--k-grid", "1", "--trials", "1"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["cs", "--random", "rnd=8,2,8", "--k-grid", "1", "--dr-grid", "10", "--trials", "1"],
        ["random-mu", "--n", "16", "--r-grid", "2", "--trials", "1"],
        ["flip-table", "--n", "16", "--m", "24", "--r-list", "1", "--realizations", "1"],
    ],
    ids=["cs", "random-mu", "flip-table"],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--seed", "-1", "--out-dir", str(out)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_cs_signal_substreams_reject_a_negative_seed(tmp_path, capsys):
    cdir = tmp_path / "c"
    assert main(["construct", "--family", "id-hadamard", "--k", "2", "--out-dir", str(cdir)]) == 0
    argv = ["cs", "--frame", f"det={cdir / 'frame.bfm'}", "--k-grid", "1", "--trials", "1"]
    assert main(argv + ["--seed", "-2", "--out-dir", str(tmp_path / "cs")]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


def test_random_mu_block_width_below_one_exits_2(tmp_path, capsys):
    argv = ["random-mu", "--n", "10", "--r-grid", "0", "--trials", "1"]
    assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 2
    assert "r=0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_random_mu_zero_trials(tmp_path):
    argv = ["random-mu", "--n", "16", "--r-grid", "2", "--trials", "0"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2


def test_flip_table_zero_realizations(tmp_path, capsys):
    argv = ["flip-table", "--n", "16", "--m", "24", "--r-list", "1", "--realizations", "0"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert "nan" not in capsys.readouterr().out


# ---------------------------------------------------------------- one output path

# each command run with --out-dir, and the files it writes besides its manifest
_RUNS = {
    "construct": (["construct", "--family", "id-hadamard", "--k", "2"], ["frame.bfm", "report.json"]),
    "analyze": (["analyze", "{frame}"], ["report.json", "gram.csv"]),
    "bounds": (["bounds", "--n", "12", "--r", "2", "--m", "16"], ["bounds.json"]),
    "threshold": (["threshold", "--grid", "0.1:0.3:3"], ["threshold.csv"]),
    "random-mu": (["random-mu", "--n", "16", "--r-grid", "2", "--trials", "2"], ["curve.csv"]),
    "flip": (["flip", "{frame}"], ["flipped.bfm", "flip.json"]),
    "flip-table": (
        ["flip-table", "--n", "16", "--m", "24", "--r-list", "1", "--realizations", "1"],
        ["flip_table.csv"],
    ),
    "cs": (["cs", "--frame", "det={frame}", "--k-grid", "1", "--trials", "2"], ["ndp.csv"]),
}


@pytest.fixture(scope="module")
def frame_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("frame")
    assert main(["construct", "--family", "id-hadamard", "--k", "2", "--out-dir", str(out)]) == 0
    return str(out / "frame.bfm")


def _argv(command, frame_file, out):
    return [tok.format(frame=frame_file) for tok in _RUNS[command][0]] + ["--out-dir", str(out)]


@pytest.mark.parametrize("command", list(_RUNS))
def test_out_dir_holds_exactly_the_manifest_outputs(tmp_path, frame_file, command):
    out = tmp_path / "out"
    argv = _argv(command, frame_file, out)
    assert main(argv) == 0
    names = _RUNS[command][1]
    manifest = f"{command}-manifest.json"
    assert sorted(os.listdir(out)) == sorted(names + [manifest])
    man = json.loads((out / manifest).read_text())
    assert sorted(man["outputs"]) == sorted(os.path.join(str(out), name) for name in names)
    for path, digest in man["outputs"].items():
        assert sha256_file(path) == digest
    assert man["command"] == command
    assert man["argv"] == argv  # the argv main parsed, not the host process's
    assert man["seed"] == 0
    assert man["version"] == __version__
    assert man["duration_s"] >= 0.0
    assert man["written_at"].endswith("Z")


def test_manifest_argv_defaults_to_sys_argv(tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = ["bounds", "--n", "12", "--r", "2", "--m", "16", "--out-dir", str(out)]
    monkeypatch.setattr(sys, "argv", ["blockframe"] + argv)
    assert main() == 0
    assert json.loads((out / "bounds-manifest.json").read_text())["argv"] == argv


@pytest.mark.parametrize(
    "command, name",
    [(cmd, name) for cmd, (_, names) in _RUNS.items() for name in names + [f"{cmd}-manifest.json"]],
)
def test_output_path_that_is_a_directory_exits_2(tmp_path, frame_file, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main(_argv(command, frame_file, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and os.path.join(str(out), name) in err
    # the outputs written before the failing one are removed again
    assert os.listdir(out) == [name]


def test_partly_written_output_is_removed(tmp_path, frame_file, capsys, monkeypatch):
    def disk_full(path, gram):
        with open(path, "w") as fh:
            fh.write("1.0,")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("blockframe.cli.write_gram_csv", disk_full)
    out = tmp_path / "out"
    assert main(_argv("analyze", frame_file, out)) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert os.listdir(out) == []
