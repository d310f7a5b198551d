"""Step time and peak memory of the band and full encoders over N, fitted.

    python3 perfbench/scaling.py

One ``ToySeq2Seq`` training step (loss, backward) per point.  Peak
memory is ``tracemalloc``'s peak over the step (numpy reports its
buffers to it); time is the best of three steps with tracing off.  The
points are fitted with ``costmodel.fit_coefficients`` against the
full-attention basis (N^2) and the banded basis (N*W), and the fitted
per-N^2 and per-N*W terms give a desk break-even W/N beside
``costmodel.breakeven_width``'s published 0.582.  Prints a markdown
table and writes ``perfbench/out/scaling.json``.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from longspan import attention, autodiff, costmodel  # noqa: E402
from longspan.errors import LongspanError  # noqa: E402

NS = (128, 256, 512, 1024)
MS = (4, 8, 16)
WS = (16, 64)
PROBE_N, PROBE_WS = 512, (8, 32, 128, 512, 1023)
MIB = float(1 << 20)


def step(n, m, window):
    config = attention.ToyModelConfig(window=window, max_src=n, max_tgt=16)
    model = attention.ToySeq2Seq.init(config, seed=0)
    rng = np.random.default_rng(0)
    source, target = rng.integers(3, config.vocab, n), rng.integers(3, config.vocab, m)

    def once():
        with autodiff.Tape() as tape:
            tape.backward(model.loss(source, target))
        for p in model.parameters().values():
            p.grad = None

    once()
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        once()
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    once()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"n": n, "m": m, "w": n if window == "full" else window,
            "s": best, "mib": peak / MIB}


def fit(samples, kind, key):
    """(coefficients, rmse), or (None, reason) when the basis cannot describe the data."""
    try:
        return costmodel.fit_coefficients(samples, kind, value_key=key)
    except LongspanError as exc:
        return None, str(exc)


def main():
    full = [step(n, m, "full") for n in NS for m in MS]
    band = [step(n, m, w) for n in NS for m in MS for w in WS]
    probe = [step(PROBE_N, 8, w) for w in PROBE_WS] + [step(PROBE_N, 8, "full")]
    result = {"full": full, "band": band, "probe": probe, "fits": {}}
    for key in ("mib", "s"):
        fc, frmse = fit(full, costmodel.KIND_BART, key)
        bc, brmse = fit(band, costmodel.KIND_LOBART, key)
        entry = {"full": [float(v) for v in fc.values] if fc else frmse,
                 "full_rmse": frmse if fc else None,
                 "band": [float(v) for v in bc.values] if bc else brmse,
                 "band_rmse": brmse if bc else None}
        if fc and bc and bc.values[5] > 0:
            entry["breakeven_w_over_n"] = costmodel.breakeven_width(1, fc, bc)
        result["fits"][key] = entry
    result["published_breakeven_w_over_n"] = costmodel.breakeven_width(1)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "scaling.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)

    print("| N | full step ms | full peak MiB | band W=16 ms | W=16 MiB | band W=64 ms | W=64 MiB |")
    print("|---|---|---|---|---|---|---|")
    for n in NS:
        f = next(r for r in full if r["n"] == n and r["m"] == 16)
        b16 = next(r for r in band if r["n"] == n and r["m"] == 16 and r["w"] == 16)
        b64 = next(r for r in band if r["n"] == n and r["m"] == 16 and r["w"] == 64)
        print(f"| {n} | {1e3 * f['s']:.1f} | {f['mib']:.1f} | {1e3 * b16['s']:.1f} | "
              f"{b16['mib']:.1f} | {1e3 * b64['s']:.1f} | {b64['mib']:.1f} |")
    print(f"\nN={PROBE_N}, M=8, peak MiB by window: " + ", ".join(
        f"W={r['w']}: {r['mib']:.1f}" for r in probe[:-1]) + f", full: {probe[-1]['mib']:.1f}")
    for key, entry in result["fits"].items():
        print(f"\nfit of {key}: full terms {entry['full']} (rmse {entry['full_rmse']}), "
              f"band terms {entry['band']} (rmse {entry['band_rmse']}), "
              f"break-even W/N {entry.get('breakeven_w_over_n')}")
    print(f"published break-even W/N: {result['published_breakeven_w_over_n']:.4f}")


if __name__ == "__main__":
    main()
