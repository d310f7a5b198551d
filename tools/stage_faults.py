"""Minor page faults and wall time per benchmark stage, in one benchmark-like process.

    python3 tools/stage_faults.py WORKLOAD [--seed N] [--rounds K]

Run from anywhere; it works on the checkout it sits in.  It imports the
benchmark's ``perfbench/workloads.py`` and the package from the checkout's
``src/`` through ``perfbench/run.py``, which fixes one BLAS thread before
numpy loads, and then, like a benchmark run, sets up seven times and runs K
whole rounds (default 5) in this one process.  Faults are this process's own
``resource.getrusage(RUSAGE_SELF).ru_minflt``, read around each stage's work
(not around the host reference task the benchmark times before it) and summed
per round, since ``encoder-forward`` is one stage call per forward.  It prints
the faults of each set-up's toy training step, then per stage the median and
maximum over the rounds of faults and of wall time.  The outputs are checked as
in a benchmark run; a failed check ends the script with its message.
"""

import argparse
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (fixes one BLAS thread before numpy loads)

run.import_package()

import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(name: str, seed: int, rounds: int, work_dir: str):
    """([(faults, seconds) of each set-up's toy step], [{stage: (faults, seconds)} per round])."""
    bench = workloads.Run(name, seed, work_dir)
    setup_steps, per_round, current = [], [], {}
    toy_step, stage = bench.encoder_train_step, bench.stage

    def setup_step():
        faults, start = minor_faults(), time.perf_counter()
        toy_step()
        setup_steps.append((minor_faults() - faults, time.perf_counter() - start))

    def measured_stage(stage_name, fn):
        def timed():
            faults, start = minor_faults(), time.perf_counter()
            result = fn()
            seconds, faults = time.perf_counter() - start, minor_faults() - faults
            old = current.get(stage_name, (0, 0.0))
            current[stage_name] = (old[0] + faults, old[1] + seconds)
            return result
        return stage(stage_name, timed)

    bench.encoder_train_step = setup_step  # setup() ends with one toy step
    for _ in range(run.SETUPS):
        bench.setup()
    bench.encoder_train_step = toy_step
    bench.stage = measured_stage
    for _ in range(rounds):
        current = {}
        bench.round()
        per_round.append(current)
    return setup_steps, per_round


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory(prefix="stage-faults-") as work_dir:
        try:
            setup_steps, per_round = measure(args.workload, args.seed, args.rounds, work_dir)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1

    print(f"{args.workload}, seed {args.seed}: {run.SETUPS} set-ups, then {args.rounds} rounds")
    print("set-up toy step faults: " + " ".join(str(f) for f, _ in setup_steps))
    print("set-up toy step ms:     " + " ".join(f"{1e3 * s:.1f}" for _, s in setup_steps))
    print(f"{'stage':<16} {'faults median':>13} {'faults max':>10} {'ms median':>10} {'ms max':>10}")
    for stage_name in per_round[0]:
        faults = [r[stage_name][0] for r in per_round]
        ms = [1e3 * r[stage_name][1] for r in per_round]
        print(f"{stage_name:<16} {statistics.median(faults):>13g} {max(faults):>10d} "
              f"{statistics.median(ms):>10.2f} {max(ms):>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
