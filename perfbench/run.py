"""Benchmark for blockframe: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-module
metrics with --trace 1.  See perfbench/README.md.
"""

import os
import sys

# The BLAS pool is fixed before numpy loads; blockframe's own trial pool keeps
# its default of one thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("BLOCKFRAME_THREADS", None)

import argparse
import json
import resource
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import numpy as np

from checks import CheckFailed
from reference import reference_s
from tracing import Tracer, unit

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# set-up is repeated this many times per run, spread evenly over the run,
# and its median reported
SETUP_REPS = 9


def _blas_name():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def _import_seconds():
    """Wall time of importing the program in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import blockframe.cli"], env=env, check=True)
    return time.perf_counter() - t0


def _setup_seconds(wl):
    """Wall time of one set-up: the import, fresh inputs and a warm-up."""
    import_s = _import_seconds()
    t0 = time.perf_counter()
    wl.prepare()
    wl.warm()
    return import_s + time.perf_counter() - t0


def _one_op(wl, i, tracer):
    """Run, time and check operation i.

    Returns the wall times of the reference, as the mean of one run just
    before and one just after the operation, and of the operation; None if
    the operation failed.

    The outputs die with this frame, so the next operation's peak memory
    does not include them.
    """
    spans = None
    try:
        inputs = wl.inputs(i)
        ref_before = reference_s()
        if tracer:
            tracer.begin()
        try:
            t0 = time.perf_counter()
            outputs = wl.run(inputs)
            dt = time.perf_counter() - t0
        finally:
            if tracer:
                spans = tracer.end()
        ref = (ref_before + reference_s()) / 2
        wl.check(inputs, outputs)
    except CheckFailed as exc:
        print(f"check failed in operation {i}: {exc}", file=sys.stderr)
        return None
    except Exception:
        print(f"operation {i} raised:", file=sys.stderr)
        traceback.print_exc()
        return None
    if tracer:
        tracer.ops.append(spans)
    return ref, dt


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "blockframe" / "__init__.py").is_file():
        print(f"error: no blockframe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    workdir = HERE / "work" / args.workload
    wl = WORKLOADS[args.workload](args.seed, workdir)

    setup = [_setup_seconds(wl)]

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    reference_s()  # one untimed pass, as set-up warms the workload
    op_s = []
    ref_s = []
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        # The later set-ups run between operations, so that they sample the
        # host over the whole run and not only over its first seconds.
        if time.perf_counter() - start >= len(setup) * args.seconds / SETUP_REPS:
            setup.append(_setup_seconds(wl))
        timed = _one_op(wl, attempted, tracer)
        attempted += 1
        if timed is None:
            failed += 1
        else:
            ref_s.append(timed[0])
            op_s.append(timed[1])
    if not op_s:
        print("error: no operation passed its checks", file=sys.stderr)
        return 1

    # each operation's time in units of the reference run around it
    op_rel = statistics.median(o / r for o, r in zip(op_s, ref_s))
    if tracer:
        metrics = {name: (value, unit(name)) for name, value in tracer.layer_metrics().items()}
        metrics["trace.op_rel"] = (op_rel, "ref")
        metrics["trace.op_median_s"] = (statistics.median(op_s), "s")
        tracer.write(workdir / "trace.jsonl")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "op_rel": (op_rel, "ref"),
            "peak_rss_mb": (peak_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_passed": len(op_s),
        "setups": len(setup),
        "op_min_s": min(op_s),
        "op_median_s": statistics.median(op_s),
        "ref_median_s": statistics.median(ref_s),
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "python": sys.version.split()[0],
    }
    (workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"env": env, **result}, indent=2) + "\n"
    )
    print("# " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
