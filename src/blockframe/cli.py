"""Command-line front end.

Subcommands cover construction, analysis, bound tables, the sparsity
threshold solver, random-frame coherence curves, sign flipping, and the
block-sparse recovery experiment.  Each command computes everything, then
hands its files to _write_outputs, which adds a `<command>-manifest.json`
(argv, parameters, seed, version, output hashes) for byte-for-byte replay.

Exit codes: 0 success, 2 validation failure, 3 numerical non-convergence.
"""

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import ConvergenceError, FrameError
from .bounds import (
    etf_max_blocks,
    max_equi_isoclinic,
    max_orthobases_blocks,
    orthobases_coherence_lower,
    rankin_chordal_upper,
    rankin_chordal_upper_tight,
    solve_threshold,
    spectral_distance_upper,
    welch_coherence_lower,
)
from .blockcs import run_flipping_table, run_ndp_experiment
from .constructions import FAMILIES, build_frame
from .flipping import flip
from .frame import average_coherence, validate
from .io import read_bfm, sha256_file, write_bfm, write_csv, write_gram_csv, write_json
from .matrixcore import check_entries
from .sampling import RandomFrameSpec, empirical_mu_curve, sample_block_frame


def _threads(args):
    if args.threads is not None:
        threads, source = args.threads, "--threads"
    else:
        env = os.environ.get("BLOCKFRAME_THREADS")
        if not env:
            return 1
        try:
            threads, source = int(env), "BLOCKFRAME_THREADS"
        except ValueError:
            raise FrameError(f"BLOCKFRAME_THREADS={env!r} is not an integer")
    if threads < 1:
        raise FrameError(f"{source} must be at least 1, got {threads}")
    return threads


def _write_outputs(args, params, files):
    """Write each file into --out-dir, then <command>-manifest.json.

    files maps a name to a function writing the path it is given.  An output
    that cannot be written is a FrameError naming its path; before it is
    raised, every file this call wrote is removed, a partly written one too.
    """
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise FrameError(
            f"--out-dir {args.out_dir}: cannot create directory ({exc.strerror})"
        ) from exc
    outputs = {}
    try:
        for name, write in files.items():
            path = os.path.join(args.out_dir, name)
            created = not os.path.lexists(path)
            write(path)
            outputs[path] = sha256_file(path)
        path = os.path.join(args.out_dir, f"{args.command}-manifest.json")
        created = not os.path.lexists(path)
        write_json(
            path,
            {
                "command": args.command,
                "argv": args.argv,
                "params": params,
                "seed": args.seed,
                "version": __version__,
                "outputs": outputs,
                "duration_s": round(time.time() - args.started, 3),
                "written_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()) + "Z",
            },
        )
    except OSError as exc:
        for done in [*outputs, path] if created else outputs:
            if os.path.isfile(done):
                os.remove(done)
        raise FrameError(f"{path}: cannot write output ({exc.strerror})") from exc


def _parse_kron(text):
    if text == "none":
        return ("none",)
    kind, _, val = text.partition(":")
    if kind in ("hadamard", "dft"):
        try:
            return (kind, int(val))
        except ValueError:
            raise FrameError(f"--kron {kind} needs an integer, got {val!r}")
    if kind == "file":
        if not val:
            raise FrameError("--kron file needs a path, e.g. file:q.bfm")
        return ("file", val)
    raise FrameError(f"unknown --kron kind {text!r} (none|hadamard:K|dft:P|file:PATH)")


def _parse_list(text, flag, kind, what, distinct):
    """The values of a comma-separated list.

    An empty entry, and so an empty list, is refused; with distinct, so is a
    value given twice, since a grid's rows are keyed by their values.
    """
    try:
        values = [kind(tok) for tok in text.split(",")]
    except ValueError:
        raise FrameError(f"{flag} expects comma-separated {what}, got {text!r}") from None
    if distinct and len(set(values)) < len(values):
        raise FrameError(f"{flag} repeats a value: {text!r}")
    return values


def _parse_int_list(text, flag, distinct=True):
    return _parse_list(text, flag, int, "integers", distinct)


def _parse_float_list(text, flag):
    return _parse_list(text, flag, float, "numbers", True)


def coherence_report(frame):
    """The report.json payload and the Gram map, from one validation pass."""
    rec = validate(frame)
    payload = {
        "n": frame.n,
        "r": frame.r,
        "m": frame.m,
        "field": frame.field_tag,
        "worst_case_coherence": rec.worst_case_coherence,
        "average_coherence": average_coherence(frame),
        "welch_lower_bound": welch_coherence_lower(frame.n, frame.r, frame.m),
        "orthobases_lower_bound": (
            orthobases_coherence_lower(frame.n, frame.r) if rec.union_of_orthobases else None
        ),
        "union_of_orthobases": rec.union_of_orthobases,
        "equi_isoclinic": rec.equi_isoclinic,
        "validation": {
            # BlockFrame's 1e-8 bound on |A_i* A_i - I| keeps every column
            # norm within 5e-9 of 1, so no frame can fail these two
            "unit_columns": True,
            "block_orthonormal": True,
            "tight": rec.tight,
            "union_of_orthobases": rec.union_of_orthobases,
            "equi_isoclinic": rec.equi_isoclinic,
        },
    }
    return payload, rec.gram


def _print_summary(payload):
    print(
        f"n={payload['n']} r={payload['r']} m={payload['m']} field={payload['field']}"
    )
    print(f"worst-case coherence  {payload['worst_case_coherence']!r}")
    print(f"average coherence     {payload['average_coherence']!r}")
    print(f"welch lower bound     {payload['welch_lower_bound']!r}")


def cmd_construct(args):
    key = FAMILIES[args.family][0]
    for name, _ in FAMILIES.values():
        flag = "--file" if name == "path" else f"--{name}"
        if name == key and getattr(args, name) is None:
            raise FrameError(f"{flag} is required for family {args.family}")
        if name != key and getattr(args, name) is not None:
            raise FrameError(f"{flag} is not a parameter of family {args.family}")
    optional = {}
    if args.kerdock_set_file is not None:
        if args.family != "kerdock":
            raise FrameError(f"--kerdock-set-file is for family kerdock, not {args.family}")
        optional["set_file"] = args.kerdock_set_file
    value = getattr(args, key)
    frame = build_frame(args.family, value, _parse_kron(args.kron), **optional)
    payload, _ = coherence_report(frame)
    _write_outputs(
        args,
        {"family": args.family, key: value, **optional, "kron": args.kron},
        {
            "frame.bfm": lambda path: write_bfm(path, frame),
            "report.json": lambda path: write_json(path, payload),
        },
    )
    _print_summary(payload)
    return 0


def cmd_analyze(args):
    frame = read_bfm(args.frame)
    payload, gram = coherence_report(frame)
    _write_outputs(
        args,
        {"frame": args.frame},
        {
            "report.json": lambda path: write_json(path, payload),
            "gram.csv": lambda path: write_gram_csv(path, gram),
        },
    )
    _print_summary(payload)
    return 0


def cmd_bounds(args):
    n, r, m, field = args.n, args.r, args.m, args.field
    payload = {
        "n": n,
        "r": r,
        "m": m,
        "field": field,
        "welch_block_lower": welch_coherence_lower(n, r, m),
        "rankin_chordal_upper": rankin_chordal_upper(n, r, m),
        "rankin_chordal_upper_tight": rankin_chordal_upper_tight(n, r),
        "spectral_distance_upper": spectral_distance_upper(n, r, m),
        "max_equiisoclinic": max_equi_isoclinic(n, r, field),
        "max_orthobases_blocks": max_orthobases_blocks(n, field),
    }
    if n % r == 0:
        payload["etf_max_blocks"] = etf_max_blocks(n, r)
        payload["orthobases_lower"] = orthobases_coherence_lower(n, r)
    if args.out_dir is not None:
        _write_outputs(
            args,
            {"n": n, "r": r, "m": m, "field": field},
            {"bounds.json": lambda path: write_json(path, payload)},
        )
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_threshold(args):
    if args.beta is None and args.grid is None:
        raise FrameError("give --beta B or --grid LO:HI:COUNT")
    if args.beta is not None:
        betas = [args.beta]
    else:
        try:
            lo_s, hi_s, count_s = args.grid.split(":")
            lo, hi, count = float(lo_s), float(hi_s), int(count_s)
        except ValueError:
            raise FrameError(f"--grid expects LO:HI:COUNT, got {args.grid!r}")
        if count < 2 or not lo < hi:
            raise FrameError("--grid needs LO < HI and COUNT >= 2")
        check_entries(count, f"--grid COUNT {count}")
        betas = list(np.linspace(lo, hi, count))
    sols = [solve_threshold(float(b)) for b in betas]
    columns = ("beta", "multiplier", "residual")
    if args.out_dir is not None:
        if args.format == "json":
            table = [{col: getattr(s, col) for col in columns} for s in sols]
            files = {"threshold.json": lambda path: write_json(path, table)}
        else:
            files = {"threshold.csv": lambda path: write_csv(path, columns, sols)}
        _write_outputs(args, {"betas": [float(b) for b in betas]}, files)
    print("beta,multiplier,residual")
    for s in sols:
        print(f"{s.beta!r},{s.multiplier!r},{s.residual!r}")
    return 0


def cmd_random_mu(args):
    r_grid = _parse_int_list(args.r_grid, "--r-grid")
    points = empirical_mu_curve(
        args.n,
        r_grid,
        trials=args.trials,
        seed=args.seed,
        m_cap=args.m_cap,
        threads=_threads(args),
    )
    columns = ("beta", "mean_mu", "max_mu", "theory_mu")
    _write_outputs(
        args,
        {
            "n": args.n,
            "r_grid": r_grid,
            "trials": args.trials,
            "m_cap": args.m_cap,
        },
        {"curve.csv": lambda path: write_csv(path, columns, points)},
    )
    for pt in points:
        print(
            f"beta={pt.beta:.6f} mean_mu={pt.mean_mu:.6f} "
            f"max_mu={pt.max_mu:.6f} theory_mu={pt.theory_mu:.6f}"
        )
    return 0


def cmd_flip(args):
    frame = read_bfm(args.frame)
    result = flip(frame, args.norm)
    summary = {
        "signs": [int(s) for s in result.signs],
        "mu_before": result.mu_before,
        "mu_after": result.mu_after,
        "nu_before": result.nu_before,
        "nu_after": result.nu_after,
        "nu_bound": result.nu_bound,
        "partial_sum_norm": result.partial_sum_norm,
        "norm_variant": result.norm_variant,
    }
    _write_outputs(
        args,
        {"frame": args.frame, "norm": args.norm},
        {
            "flipped.bfm": lambda path: write_bfm(path, result.frame),
            "flip.json": lambda path: write_json(path, summary),
        },
    )
    print(f"nu {result.nu_before!r} -> {result.nu_after!r} (bound {result.nu_bound!r})")
    print(f"mu {result.mu_before!r} -> {result.mu_after!r}")
    return 0


def cmd_flip_table(args):
    r_list = _parse_int_list(args.r_list, "--r-list")
    columns = ("r", "nu_before_mean", "nu_after_mean", "improvement_pct", "nu_bound")
    rows = run_flipping_table(
        args.n,
        args.m,
        r_list,
        realizations=args.realizations,
        seed=args.seed,
        norm_variant=args.norm,
        threads=_threads(args),
    )
    if args.format == "json":
        table = [
            {
                **{col: getattr(row, col) for col in columns},
                "runs": [list(run) for run in row.runs],
            }
            for row in rows
        ]
        files = {"flip_table.json": lambda path: write_json(path, table)}
    else:
        files = {"flip_table.csv": lambda path: write_csv(path, columns, rows)}
    _write_outputs(
        args,
        {
            "n": args.n,
            "m": args.m,
            "r_list": r_list,
            "realizations": args.realizations,
            "norm": args.norm,
        },
        files,
    )
    for row in rows:
        print(
            f"r={row.r} nu {row.nu_before_mean:.6f} -> {row.nu_after_mean:.6f} "
            f"({row.improvement_pct:.1f}% better, bound {row.nu_bound:.6f})"
        )
    return 0


def cmd_cs(args):
    frames = []

    def labelled(item, flag, form):
        # --frame and --random labels name the rows of one table
        label, _, value = item.partition("=")
        if not label or not value:
            raise FrameError(f"{flag} expects {form}, got {item!r}")
        if any(label == seen for seen, _ in frames):
            raise FrameError(f"{flag} {item!r}: label {label!r} is already taken")
        return label, value

    for item in args.frame or []:
        label, path = labelled(item, "--frame", "LABEL=PATH")
        frames.append((label, read_bfm(path)))
    for idx, item in enumerate(args.random or []):
        label, shape = labelled(item, "--random", "LABEL=N,R,M")
        dims = _parse_int_list(shape, "--random", distinct=False)  # 8,2,8 is a shape
        if len(dims) != 3:
            raise FrameError(f"--random expects LABEL=N,R,M, got {item!r}")
        n, r, m = dims
        spec = RandomFrameSpec(n=n, r=r, m=m, seed=args.seed, field_tag="real")

        def factory(t, _spec=spec, _idx=idx):
            return sample_block_frame(_spec, _idx, t)

        frames.append((label, factory))
    if not frames:
        raise FrameError("give at least one --frame LABEL=PATH or --random LABEL=N,R,M")
    k_grid = _parse_int_list(args.k_grid, "--k-grid")
    dr_grid = _parse_float_list(args.dr_grid, "--dr-grid")
    results = run_ndp_experiment(
        frames,
        k_grid,
        dr_grid,
        trials=args.trials,
        seed=args.seed,
        field_tag=args.signal_field,
        snr_db=args.snr_db,
        threads=_threads(args),
    )
    columns = ("label", "k", "dynamic_range", "mean_ndp", "stderr", "trials")
    _write_outputs(
        args,
        {
            "frames": [label for label, _ in frames],
            "k_grid": k_grid,
            "dr_grid": dr_grid,
            "trials": args.trials,
            "snr_db": args.snr_db,
            "signal_field": args.signal_field,
        },
        {"ndp.csv": lambda path: write_csv(path, columns, results)},
    )
    for res in results:
        print(
            f"{res.label} k={res.k} dr={res.dynamic_range:g} "
            f"ndp={res.mean_ndp:.4f} (se {res.stderr:.4f}, {res.trials} trials)"
        )
    return 0


# options several commands share; --seed goes to every command, since every
# manifest records it, and each command lists the others it reads
_SHARED = {
    "--trials": dict(type=int, default=100, help="trial count"),
    "--threads": dict(type=int, default=None, help="worker threads"),
    "--format": dict(choices=("json", "csv"), default="csv", help="table file format"),
}


@functools.cache
def build_parser():
    """The argparse tree, built on the first call and reused by every later one.

    parse_args leaves the parser as it found it and returns a fresh
    namespace, so the one parser serves every main call in a process.
    """
    parser = argparse.ArgumentParser(
        prog="blockframe",
        description="Build, measure, and improve block frames with low block coherence.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *shared):
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        for opt in shared:
            p.add_argument(opt, **_SHARED[opt])
        return p

    p = command("construct", "build a frame from a recipe")
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p.add_argument("--v", type=int, help="points of the pair design (steiner)")
    p.add_argument("--p", type=int, help="prime parameter (harmonic, alltop, chirp)")
    p.add_argument("--k", type=int, help="log2 dimension (id-hadamard, kerdock)")
    p.add_argument("--file", dest="path", help="column-matrix frame file (external)")
    p.add_argument("--kerdock-set-file", help="binary symmetric matrix set file")
    p.add_argument("--kron", default="none", help="none | hadamard:K | dft:P | file:PATH")
    p.add_argument("--out-dir", default=".", help="output directory")

    p = command("analyze", "report on a frame file")
    p.add_argument("frame", help=".bfm frame file")
    p.add_argument("--out-dir", default=".", help="output directory")

    p = command("bounds", "bound table for (n, r, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--field", choices=("real", "complex"), default="complex")
    p.add_argument("--out-dir", default=None, help="also write bounds.json here")

    p = command("threshold", "sparsity threshold multiplier", "--format")
    p.add_argument("--beta", type=float, help="single aspect ratio in (0, 1/2)")
    p.add_argument("--grid", help="LO:HI:COUNT inclusive grid")
    p.add_argument("--out-dir", default=None, help="also write threshold table here")

    p = command("random-mu", "random-frame coherence curve", "--trials", "--threads")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-grid", required=True, help="comma-separated block widths")
    p.add_argument("--m-cap", type=int, default=400, help="cap on block count")
    p.add_argument("--out-dir", default=".", help="output directory")

    p = command("flip", "greedy sign flip of a frame")
    p.add_argument("frame", help=".bfm frame file")
    p.add_argument("--norm", choices=("spectral", "frobenius"), default="spectral")
    p.add_argument("--out-dir", default=".", help="output directory")

    p = command("flip-table", "flip improvement over random frames", "--threads", "--format")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r-list", required=True, help="comma-separated block widths")
    p.add_argument("--realizations", type=int, default=10)
    p.add_argument("--norm", choices=("spectral", "frobenius"), default="spectral")
    p.add_argument("--out-dir", default=".", help="output directory")

    p = command("cs", "block-sparse recovery experiment", "--trials", "--threads")
    p.add_argument("--frame", action="append", help="LABEL=PATH (repeatable)")
    p.add_argument(
        "--random", action="append", help="LABEL=N,R,M random frame, redrawn per trial"
    )
    p.add_argument("--k-grid", required=True, help="comma-separated block sparsities")
    p.add_argument("--dr-grid", default="10", help="comma-separated dynamic ranges")
    p.add_argument("--snr-db", type=float, default=None, help="add noise at this SNR")
    p.add_argument(
        "--signal-field", choices=("real", "complex"), default="real"
    )
    p.add_argument("--out-dir", default=".", help="output directory")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    args.started = time.time()
    # looked up when called, not when the cached parser was built, so a
    # wrapper put on the module since then is the one that runs
    run = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return run(args)
    except FrameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
