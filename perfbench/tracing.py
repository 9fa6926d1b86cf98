"""Spans around the calls into each blockframe module, from outside the program.

Tracer.install replaces each traced function, wherever a blockframe module
holds a reference to it (its own module and every module that imported the
name), with a wrapper that records a span: name, start, end, parent span and
one number of work (block count, file size).  Spans are kept in memory per
operation and written out when the run ends.  Outside an operation the
wrappers call straight through and record nothing.
"""

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict


def _frame_blocks(args, kwargs):
    return args[0].m


def _file_size(args, kwargs):
    return os.path.getsize(args[0])


# (module, function, work measure); the span is named "<layer>.<function>"
TARGETS = [
    ("frame", "worst_case_coherence", _frame_blocks),
    ("frame", "gram_map", _frame_blocks),
    ("frame", "validate", _frame_blocks),
    ("frame", "average_coherence", None),
    ("matrixcore", "batch_spectral_norms", None),
    ("matrixcore", "orthonormalize", None),
    ("sampling", "sample_block_frame", _frame_blocks),
    ("flipping", "flip", None),
    ("io", "read_bfm", _file_size),
    ("io", "write_bfm", _file_size),
    ("io", "write_gram_csv", _file_size),
    ("io", "sha256_file", None),
    ("constructions", "build_frame", None),
    ("blockcs", "run_ndp_experiment", None),
    ("blockcs", "gen_signal", None),
    ("blockcs", "one_step_group_threshold", None),
    ("cli", "cmd_construct", None),
    ("cli", "cmd_analyze", None),
    ("cli", "cmd_flip", None),
    ("cli", "cmd_cs", None),
]

# each of these spans is one full sweep over the m(m-1)/2 block pairs
SWEEPS = ("frame.worst_case_coherence", "frame.gram_map", "frame.validate")


def unit(metric):
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_per_s"):
        return metric.rsplit(".", 1)[1].split("_per_s")[0] + "/s"
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("io.bytes"):
        return "B"
    return "count"


class Tracer:
    def __init__(self):
        self.ops = []  # per operation: list of [name, start, end, parent, work]
        self._spans = None
        self._stack = []

    def install(self):
        for mod_name, fn_name, work in TARGETS:
            orig = getattr(sys.modules[f"blockframe.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, work)
            for name, mod in list(sys.modules.items()):
                if (name == "blockframe" or name.startswith("blockframe.")) and getattr(
                    mod, fn_name, None
                ) is orig:
                    setattr(mod, fn_name, wrapper)

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self._spans
            if spans is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
            self._stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[4] = work(args, kwargs)
            return out

        return wrapper

    def begin(self):
        self._spans = []
        self._stack = []

    def end(self):
        """Close the operation and return its spans.

        The caller appends them to self.ops once the operation has passed
        its checks, so failed operations leave no per-layer numbers.
        """
        spans, self._spans = self._spans, None
        return spans

    def write(self, path):
        with open(path, "w") as fh:
            for op, spans in enumerate(self.ops):
                for idx, (name, start, end, parent, work) in enumerate(spans):
                    fh.write(
                        json.dumps(
                            {
                                "op": op,
                                "id": idx,
                                "name": name,
                                "start": start,
                                "end": end,
                                "parent": parent,
                                "work": work,
                            }
                        )
                        + "\n"
                    )

    def layer_metrics(self):
        """Per-layer metrics: the median over operations of per-operation sums."""
        per_op = [_op_metrics(spans) for spans in self.ops]
        return {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}


def _op_metrics(spans):
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    under_ndp = [False] * len(spans)
    for idx, (name, start, end, parent, w) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child[idx]
        calls[name] += 1
        if w is not None:
            work[name] += w
        if parent is not None:
            under_ndp[idx] = under_ndp[parent] or spans[parent][0] == "blockcs.run_ndp_experiment"

    sweep_s = sum(total[s] for s in SWEEPS)
    pairs = sum(w * (w - 1) // 2 for name, _, _, _, w in spans if name in SWEEPS)
    blocks = work["sampling.sample_block_frame"]
    sample_s = total["sampling.sample_block_frame"]
    out = {
        "frame.worst_case_coherence_s": total["frame.worst_case_coherence"],
        "frame.gram_map_s": total["frame.gram_map"],
        "frame.validate_s": total["frame.validate"],
        "frame.average_coherence_s": total["frame.average_coherence"],
        "frame.sweeps": sum(calls[s] for s in SWEEPS),
        "frame.pairs": pairs,
        "frame.pairs_per_s": pairs / sweep_s if sweep_s > 0 else 0.0,
        "matrixcore.batch_spectral_norms_calls": calls["matrixcore.batch_spectral_norms"],
        "matrixcore.batch_spectral_norms_s": total["matrixcore.batch_spectral_norms"],
        "matrixcore.orthonormalize_calls": calls["matrixcore.orthonormalize"],
        "matrixcore.orthonormalize_s": total["matrixcore.orthonormalize"],
        "sampling.sample_block_frame_s": sample_s,
        "sampling.blocks_per_s": blocks / sample_s if sample_s > 0 else 0.0,
        "flipping.flip_s": total["flipping.flip"],
        "flipping.flip_self_s": self_time["flipping.flip"],
        "io.read_bfm_s": total["io.read_bfm"],
        "io.write_bfm_s": total["io.write_bfm"],
        "io.write_gram_csv_s": total["io.write_gram_csv"],
        "io.sha256_file_s": total["io.sha256_file"],
        "io.bytes_written": work["io.write_bfm"] + work["io.write_gram_csv"],
        "io.bytes_read": work["io.read_bfm"],
        "constructions.build_frame_s": total["constructions.build_frame"],
        "blockcs.run_ndp_experiment_s": total["blockcs.run_ndp_experiment"],
        "blockcs.gen_signal_s": total["blockcs.gen_signal"],
        "blockcs.one_step_group_threshold_s": total["blockcs.one_step_group_threshold"],
        "blockcs.factory_frames": sum(
            1
            for idx, span in enumerate(spans)
            if span[0] == "sampling.sample_block_frame" and under_ndp[idx]
        ),
    }
    for cmd in ("construct", "analyze", "flip", "cs"):
        out[f"cli.{cmd}_s"] = total[f"cli.cmd_{cmd}"]
        out[f"cli.{cmd}_self_s"] = self_time[f"cli.cmd_{cmd}"]
    return out
