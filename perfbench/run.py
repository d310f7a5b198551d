"""Benchmark of the longspan package: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload selector --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src/`` and from nowhere else.  The run sets up seven times
(the median is ``setup_s``), then repeats whole rounds of the workload's
stages until ``--seconds`` have passed, checks every output against the
benchmark's own computations, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The end-to-end times are scaled by the host's speed in the run, which a
fixed reference task measures (``hostref.py``).
A per-run result (with Python, numpy, nproc and BLAS threads) and, when
traced, the spans (gzipped) are written under ``perfbench/out/``.
"""

import os

# Fixed before numpy loads: one BLAS thread, so the run is single-threaded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUPS = 7

END_TO_END = [
    ("setup_s", "s"),
    ("train_docs_per_s", "docs/s"),
    ("score_docs_per_s", "docs/s"),
    ("select_docs_per_s", "docs/s"),
    ("train_tokens_per_s", "tokens/s"),
    ("encode_tokens_per_s", "tokens/s"),
    ("rouge_pairs_per_s", "pairs/s"),
    ("peak_rss_mib", "MiB"),
]


def import_package():
    """Import ``longspan`` from this checkout's ``src/``; exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "longspan", "__init__.py")):
        print(f"error: no longspan package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import longspan

    if not os.path.abspath(longspan.__file__).startswith(SRC + os.sep):
        print(f"error: longspan imported from {longspan.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def environment():
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS)}


def measure(run, tracer, seconds):
    """Set up SETUPS times, then run whole rounds for ``seconds``; return set-up times."""
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        run.setup()
        setups.append(time.perf_counter() - start)
    if tracer:
        tracer.spans.clear()  # per-layer figures cover the measured rounds only
    start = last = time.perf_counter()
    while True:  # whole rounds only, and none that would end past ``seconds``
        run.round()
        now = time.perf_counter()
        if now + (now - last) - start > seconds:
            return setups
        last = now


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import tracing
    import workloads
    from checks import CheckFailed

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    # the program logs a warning per clipped sentence per encode; keep it off the terminal
    log_path = os.path.join(work_dir, "program.log")
    log_handler = logging.FileHandler(log_path)
    logging.getLogger().addHandler(log_handler)
    tracer = tracing.Tracer() if args.trace else None
    restore = tracing.instrument(tracer) if tracer else (lambda: None)
    run = workloads.Run(args.workload, args.seed, work_dir, tracer)
    setups, reason = [], None
    try:
        setups = measure(run, tracer, args.seconds)
    except CheckFailed as exc:
        reason = str(exc)
    finally:
        restore()
        logging.getLogger().removeHandler(log_handler)
        log_handler.close()
        with open(log_path, "rb") as handle:
            warnings = handle.read().count(b"\n")
        shutil.rmtree(work_dir)

    rounds = max(len(run.rounds), 1)
    result = {"correct": reason is None, "attempted": run.attempted_per_round() * rounds,
              "failed": run.failed_per_round() * rounds, "metrics": {}}
    if reason is None and args.trace:
        totals = {k: v * rounds for k, v in run.work_per_round().items()}
        totals["rounds"] = rounds
        result["metrics"] = tracing.per_layer(tracer.spans, totals)
        run.notes.update(host_factor=run.host_factor())
    elif reason is None:
        values = dict(run.throughputs(), setup_s=statistics.median(setups) / run.host_factor(),
                      peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END}
        run.notes.update(host_factor=run.host_factor(), raw_setup_s=statistics.median(setups),
                         raw_throughputs=run.throughputs(raw=True))

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=len(run.rounds), setups_s=setups,
                  stage_s=run.rounds, notes=run.notes, program_warnings=warnings,
                  check_failure=reason, environment=environment())
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if tracer:
        tracer.write(os.path.join(OUT, f"trace-{tag}.json.gz"))
    if reason:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
