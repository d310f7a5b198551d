"""A fixed reference task that measures the host's speed during a run.

The host this benchmark was built on shares its cores with other load,
and its speed drifts by 20-50 % over minutes.  Within one run the drift
moves every stage alike, so it shows in every throughput of that run.
The reference task is a fixed piece of the benchmark's own work that
calls no ``longspan`` code: about four fifths of its time is pure Python
(n-gram counting, a bit-parallel LCS, a JSON round trip), as in most of
the program's stages, and the rest a small numpy softmax chain.  It is timed before every stage, outside the stage's span.  Its
mean time over a run tracks the host's speed in that run, and no change
to the program can move it.

A run's throughputs are scaled by ``mean reference time / REFERENCE_S``,
so they read as they would on a host that runs the reference in
``REFERENCE_S`` seconds (the lower decile of 400 passes on the 2-core box).
"""

from __future__ import annotations

import gc
import json
import time

import numpy as np

import checks

REFERENCE_S = 2.3e-3

_rng = np.random.default_rng(12345)
_SENTENCES = [[f"w{int(j)}" for j in _rng.integers(0, 60, size=20)] for _ in range(60)]
_SUMMARY = [f"w{int(j)}" for j in _rng.integers(0, 60, size=100)]
_A = _rng.random((128, 128))
_X = _rng.random((128, 128))


def reference_seconds():
    """Time one pass of the reference task, with the garbage collector paused so
    that the program's heap cannot add a collection to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for sentence in _SENTENCES:
            checks.bigram_recall(sentence, _SUMMARY)
        checks.lcs_len(_SENTENCES[0] * 3, _SUMMARY)
        json.loads(json.dumps({"sentences": _SENTENCES}))
        b = _X
        for _ in range(2):
            b = b @ _A * 0.01
            b = np.exp(b - b.max(axis=1, keepdims=True))
            b = b / b.sum(axis=1, keepdims=True)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
