"""The reference computation that operation times are expressed in.

Other tenants share the host, and for stretches of seconds to minutes they
slow this process's core by up to 1.9x; process CPU time slows with the wall
time, so it is the core that runs slower, not the process that waits.  A wall
time, or any statistic of wall times, therefore wanders with how busy the
host was during the run.  The reference runs just before and just after each
operation, and the operation's time divided by the reference's time stays
far steadier through the slow and fast stretches, because both slow down
together.

The reference touches nothing of blockframe and its inputs are fixed, so a
change to the program cannot move it: a program that gets 10% faster shows a
ratio 10% lower.  Its five parts take about 2 to 5 ms each on a quiet core.
They cover the kinds of code the workloads spend their time in, because the
slow stretches slow these by different factors: a tight Python loop the
least, and many small numpy calls, generator set-ups and code that runs
through many different functions the most.
"""

import json
import time

import numpy as np

_RNG = np.random.default_rng(20130729)
_SYM = _RNG.standard_normal((500, 10, 10))
_SYM += _SYM.transpose(0, 2, 1)
_TALL = _RNG.standard_normal((1000, 32, 2))
_SMALL = list(_RNG.standard_normal((150, 32, 2)))


def _python_loop():
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    return acc


def _batched_linalg():
    np.linalg.eigvalsh(_SYM)
    np.linalg.qr(_TALL)


def _small_calls():
    for a in _SMALL:
        np.linalg.qr(a)


def _generators():
    for i in range(150):
        np.random.default_rng(np.random.SeedSequence([7, i])).standard_normal(64)


def _mixed_calls():
    """Many different small numpy and Python calls per step."""
    out = []
    for a in _SMALL[:30]:
        g = a.T @ a
        q, r = np.linalg.qr(a)
        d = np.sign(np.diag(r))
        q = q * d
        out.append(
            (
                bool(np.all(np.isfinite(q))),
                bool(np.any(g > 0)),
                np.flatnonzero(d > 0).size,
                float(np.triu(g).sum()),
                float(np.linalg.norm(g, 2)),
                float(np.linalg.eigvalsh(g)[-1]),
                float(np.sort(a[:, 0])[0]),
                int(np.argsort(a[:, 1])[0]),
                float(np.einsum("ij,ij->", a, a)),
                np.concatenate([a, q]).shape,
                float(np.clip(a, -1, 1).mean()),
                float(np.abs(a).max()),
                float(np.linalg.svd(g, compute_uv=False)[0]),
                json.dumps({"v": float(g[0, 0])}),
                "%.6f" % g[1, 1],
            )
        )
    return out


def reference_s():
    """Wall time of one pass over the five parts."""
    t0 = time.perf_counter()
    _python_loop()
    _batched_linalg()
    _small_calls()
    _generators()
    _mixed_calls()
    return time.perf_counter() - t0
