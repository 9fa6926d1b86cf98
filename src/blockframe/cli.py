"""Command-line front end.

Subcommands cover construction, analysis, bound tables, the sparsity
threshold solver, random-frame coherence curves, sign flipping, and the
block-sparse recovery experiment.  Every command that writes files also
writes a `<command>-manifest.json` recording arguments, seed, version, and
output hashes, so a run can be replayed and checked byte for byte.

Exit codes: 0 success, 2 validation failure, 3 numerical non-convergence.
"""

import argparse
import os
import sys
from dataclasses import dataclass, field

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
from .constructions import FrameRecipe, build_frame
from .flipping import FlipConfig, flip
from .frame import ValidationRecord, average_coherence, validate
from .io import RunManifest, read_bfm, write_bfm, write_csv, write_gram_csv, write_json

_FAMILY_PARAM = {
    "steiner": ("v", "--v"),
    "harmonic": ("p", "--p"),
    "alltop": ("p", "--p"),
    "chirp": ("p", "--p"),
    "id-hadamard": ("k", "--k"),
    "kerdock": ("k", "--k"),
    "external": ("path", "--file"),
}


def _threads(args):
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("BLOCKFRAME_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise FrameError(f"BLOCKFRAME_THREADS={env!r} is not an integer")
    return 1


def _out_dir(args):
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


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


def _parse_int_list(text, flag):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise FrameError(f"{flag} expects comma-separated integers, got {text!r}")


def _parse_float_list(text, flag):
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise FrameError(f"{flag} expects comma-separated numbers, got {text!r}")


@dataclass(frozen=True)
class CoherenceReport:
    """Everything the analyze command reports about one frame."""

    n: int
    r: int
    m: int
    field_tag: str
    worst_case: float
    average: float
    welch_lower: float
    orthobases_lower: float | None
    validation: ValidationRecord = field(repr=False)

    @property
    def gram(self):
        return self.validation.gram

    def to_jsonable(self):
        """The report.json payload; the gram map travels separately as CSV."""
        val = self.validation
        return {
            "n": self.n,
            "r": self.r,
            "m": self.m,
            "field": self.field_tag,
            "worst_case_coherence": self.worst_case,
            "average_coherence": self.average,
            "welch_lower_bound": self.welch_lower,
            "orthobases_lower_bound": self.orthobases_lower,
            "union_of_orthobases": val.union_of_orthobases,
            "equi_isoclinic": val.equi_isoclinic,
            "validation": {
                "unit_columns": val.unit_columns,
                "block_orthonormal": val.block_orthonormal,
                "tight": val.tight,
                "union_of_orthobases": val.union_of_orthobases,
                "equi_isoclinic": val.equi_isoclinic,
            },
        }


def coherence_report(frame):
    """One validation pass over the block pairs yields the report and gram map."""
    rec = validate(frame)
    ortho_lower = None
    if rec.union_of_orthobases:
        ortho_lower = orthobases_coherence_lower(frame.n, frame.r)
    return CoherenceReport(
        n=frame.n,
        r=frame.r,
        m=frame.m,
        field_tag=frame.field_tag,
        worst_case=float(rec.gram.max(initial=0.0, where=~np.eye(frame.m, dtype=bool))),
        average=average_coherence(frame),
        welch_lower=welch_coherence_lower(frame.n, frame.r, frame.m),
        orthobases_lower=ortho_lower,
        validation=rec,
    )


def _print_summary(payload):
    print(
        f"n={payload['n']} r={payload['r']} m={payload['m']} field={payload['field']}"
    )
    print(f"worst-case coherence  {payload['worst_case_coherence']!r}")
    print(f"average coherence     {payload['average_coherence']!r}")
    print(f"welch lower bound     {payload['welch_lower_bound']!r}")


def cmd_construct(args):
    key, flag = _FAMILY_PARAM[args.family]
    value = getattr(args, key if key != "path" else "file")
    if value is None:
        raise FrameError(f"{flag} is required for family {args.family}")
    params = {key: value}
    if args.family == "kerdock" and args.kerdock_set_file:
        params["set_file"] = args.kerdock_set_file
    recipe = FrameRecipe(
        family=args.family, params=params, kron=_parse_kron(args.kron)
    )
    manifest = RunManifest(
        command="construct",
        params={"family": args.family, **params, "kron": args.kron},
        seed=args.seed,
    )
    frame = build_frame(recipe)
    out = _out_dir(args)
    frame_path = os.path.join(out, "frame.bfm")
    report_path = os.path.join(out, "report.json")
    write_bfm(frame_path, frame)
    payload = coherence_report(frame).to_jsonable()
    write_json(report_path, payload)
    manifest.add_output(frame_path)
    manifest.add_output(report_path)
    manifest.write(os.path.join(out, "construct-manifest.json"))
    _print_summary(payload)
    return 0


def cmd_analyze(args):
    frame = read_bfm(args.frame)
    manifest = RunManifest(
        command="analyze", params={"frame": args.frame}, seed=args.seed
    )
    out = _out_dir(args)
    report_path = os.path.join(out, "report.json")
    gram_path = os.path.join(out, "gram.csv")
    rep = coherence_report(frame)
    payload = rep.to_jsonable()
    write_json(report_path, payload)
    write_gram_csv(gram_path, rep.gram)
    manifest.add_output(report_path)
    manifest.add_output(gram_path)
    manifest.write(os.path.join(out, "analyze-manifest.json"))
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
        manifest = RunManifest(
            command="bounds",
            params={"n": n, "r": r, "m": m, "field": field},
            seed=args.seed,
        )
        out = _out_dir(args)
        path = os.path.join(out, "bounds.json")
        write_json(path, payload)
        manifest.add_output(path)
        manifest.write(os.path.join(out, "bounds-manifest.json"))
    import json

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
        betas = list(np.linspace(lo, hi, count))
    sols = [solve_threshold(float(b)) for b in betas]
    columns = ("beta", "multiplier", "residual")
    if args.out_dir is not None:
        manifest = RunManifest(
            command="threshold",
            params={"betas": [float(b) for b in betas]},
            seed=args.seed,
        )
        out = _out_dir(args)
        if args.format == "json":
            path = os.path.join(out, "threshold.json")
            write_json(path, [{col: getattr(s, col) for col in columns} for s in sols])
        else:
            path = os.path.join(out, "threshold.csv")
            write_csv(path, columns, sols)
        manifest.add_output(path)
        manifest.write(os.path.join(out, "threshold-manifest.json"))
    print("beta,multiplier,residual")
    for s in sols:
        print(f"{s.beta!r},{s.multiplier!r},{s.residual!r}")
    return 0


def cmd_random_mu(args):
    from .sampling import empirical_mu_curve

    r_grid = _parse_int_list(args.r_grid, "--r-grid")
    manifest = RunManifest(
        command="random-mu",
        params={
            "n": args.n,
            "r_grid": r_grid,
            "trials": args.trials,
            "m_cap": args.m_cap,
        },
        seed=args.seed,
    )
    points = empirical_mu_curve(
        args.n,
        r_grid,
        trials=args.trials,
        seed=args.seed,
        m_cap=args.m_cap,
        threads=_threads(args),
    )
    out = _out_dir(args)
    path = os.path.join(out, "curve.csv")
    write_csv(path, ("beta", "mean_mu", "max_mu", "theory_mu"), points)
    manifest.add_output(path)
    manifest.write(os.path.join(out, "random-mu-manifest.json"))
    for pt in points:
        print(
            f"beta={pt.beta:.6f} mean_mu={pt.mean_mu:.6f} "
            f"max_mu={pt.max_mu:.6f} theory_mu={pt.theory_mu:.6f}"
        )
    return 0


def cmd_flip(args):
    frame = read_bfm(args.frame)
    manifest = RunManifest(
        command="flip",
        params={"frame": args.frame, "norm": args.norm},
        seed=args.seed,
    )
    result = flip(frame, FlipConfig(norm_variant=args.norm))
    out = _out_dir(args)
    frame_path = os.path.join(out, "flipped.bfm")
    json_path = os.path.join(out, "flip.json")
    write_bfm(frame_path, result.frame)
    write_json(
        json_path,
        {
            "signs": [int(s) for s in result.signs],
            "mu_before": result.mu_before,
            "mu_after": result.mu_after,
            "nu_before": result.nu_before,
            "nu_after": result.nu_after,
            "nu_bound": result.nu_bound,
            "partial_sum_norm": result.partial_sum_norm,
            "norm_variant": result.norm_variant,
        },
    )
    manifest.add_output(frame_path)
    manifest.add_output(json_path)
    manifest.write(os.path.join(out, "flip-manifest.json"))
    print(f"nu {result.nu_before!r} -> {result.nu_after!r} (bound {result.nu_bound!r})")
    print(f"mu {result.mu_before!r} -> {result.mu_after!r}")
    return 0


def cmd_flip_table(args):
    from .blockcs import run_flipping_table

    r_list = _parse_int_list(args.r_list, "--r-list")
    manifest = RunManifest(
        command="flip-table",
        params={
            "n": args.n,
            "m": args.m,
            "r_list": r_list,
            "realizations": args.realizations,
            "norm": args.norm,
        },
        seed=args.seed,
    )
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
    out = _out_dir(args)
    if args.format == "json":
        path = os.path.join(out, "flip_table.json")
        write_json(
            path,
            [
                {
                    **{col: getattr(row, col) for col in columns},
                    "runs": [list(run) for run in row.runs],
                }
                for row in rows
            ],
        )
    else:
        path = os.path.join(out, "flip_table.csv")
        write_csv(path, columns, rows)
    manifest.add_output(path)
    manifest.write(os.path.join(out, "flip-table-manifest.json"))
    for row in rows:
        print(
            f"r={row.r} nu {row.nu_before_mean:.6f} -> {row.nu_after_mean:.6f} "
            f"({row.improvement_pct:.1f}% better, bound {row.nu_bound:.6f})"
        )
    return 0


def cmd_cs(args):
    from .blockcs import run_ndp_experiment
    from .sampling import RandomFrameSpec, sample_block_frame

    frames = []
    for item in args.frame or []:
        label, _, path = item.partition("=")
        if not path:
            raise FrameError(f"--frame expects LABEL=PATH, got {item!r}")
        frames.append((label, read_bfm(path)))
    for idx, item in enumerate(args.random or []):
        label, _, shape = item.partition("=")
        if not shape:
            raise FrameError(f"--random expects LABEL=N,R,M, got {item!r}")
        dims = _parse_int_list(shape, "--random")
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
    manifest = RunManifest(
        command="cs",
        params={
            "frames": [label for label, _ in frames],
            "k_grid": k_grid,
            "dr_grid": dr_grid,
            "trials": args.trials,
            "snr_db": args.snr_db,
            "signal_field": args.signal_field,
        },
        seed=args.seed,
    )
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
    out = _out_dir(args)
    path = os.path.join(out, "ndp.csv")
    write_csv(
        path, ("label", "k", "dynamic_range", "mean_ndp", "stderr", "trials"), results
    )
    manifest.add_output(path)
    manifest.write(os.path.join(out, "cs-manifest.json"))
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blockframe",
        description="Build, measure, and improve block frames with low block coherence.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *shared):
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        for opt in shared:
            p.add_argument(opt, **_SHARED[opt])
        p.set_defaults(func=func)
        return p

    p = command("construct", cmd_construct, "build a frame from a recipe")
    p.add_argument(
        "--family",
        required=True,
        choices=("steiner", "harmonic", "alltop", "chirp", "id-hadamard", "kerdock", "external"),
    )
    p.add_argument("--v", type=int, help="points of the pair design (steiner)")
    p.add_argument("--p", type=int, help="prime parameter (harmonic, alltop, chirp)")
    p.add_argument("--k", type=int, help="log2 dimension (id-hadamard, kerdock)")
    p.add_argument("--file", help="column-matrix frame file (external)")
    p.add_argument("--kerdock-set-file", help="binary symmetric matrix set file")
    p.add_argument("--kron", default="none", help="none | hadamard:K | dft:P | file:PATH")
    p.add_argument("--out-dir", default=".", help="output directory")

    p = command("analyze", cmd_analyze, "report on a frame file")
    p.add_argument("frame", help=".bfm frame file")
    p.add_argument("--out-dir", default=".", help="output directory")

    p = command("bounds", cmd_bounds, "bound table for (n, r, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--field", choices=("real", "complex"), default="complex")
    p.add_argument("--out-dir", default=None, help="also write bounds.json here")

    p = command("threshold", cmd_threshold, "sparsity threshold multiplier", "--format")
    p.add_argument("--beta", type=float, help="single aspect ratio in (0, 1/2)")
    p.add_argument("--grid", help="LO:HI:COUNT inclusive grid")
    p.add_argument("--out-dir", default=None, help="also write threshold table here")

    p = command(
        "random-mu", cmd_random_mu, "random-frame coherence curve", "--trials", "--threads"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-grid", required=True, help="comma-separated block widths")
    p.add_argument("--m-cap", type=int, default=400, help="cap on block count")
    p.add_argument("--out-dir", default=".", help="output directory")

    p = command("flip", cmd_flip, "greedy sign flip of a frame")
    p.add_argument("frame", help=".bfm frame file")
    p.add_argument("--norm", choices=("spectral", "frobenius"), default="spectral")
    p.add_argument("--out-dir", default=".", help="output directory")

    p = command(
        "flip-table",
        cmd_flip_table,
        "flip improvement over random frames",
        "--threads",
        "--format",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r-list", required=True, help="comma-separated block widths")
    p.add_argument("--realizations", type=int, default=10)
    p.add_argument("--norm", choices=("spectral", "frobenius"), default="spectral")
    p.add_argument("--out-dir", default=".", help="output directory")

    p = command(
        "cs", cmd_cs, "block-sparse recovery experiment", "--trials", "--threads"
    )
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FrameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
