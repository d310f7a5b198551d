"""Run the benchmark over a fixed seed list and write the next ``BENCH_<n>.json``.

    python3 tools/bench_summary.py [--workloads W ...]
    python3 tools/bench_summary.py --against REV [--workloads W ...] [--pairs K]

Run from anywhere; it works on the checkout it sits in.  For each workload of
``WORKLOADS`` (or of ``--workloads``) and each seed of ``SEEDS`` it runs

    python3 perfbench/run.py --workload <w> --seed <s> --seconds 30 --trace 0

one run at a time, reads the result file that run wrote under ``perfbench/out/``,
and writes ``BENCH_<n>.json`` at the checkout's root, n one past the highest
already there.  The file holds the git revision, whether the working tree had
uncommitted changes and, if it had, the sha256 of ``git diff --binary HEAD``
(so a file measured on a dirty tree names the code it measured), the exact
commands, the environment the runs reported, and per workload the median and
quartiles of the eight end-to-end metrics with ``correct`` and the summed
``failed``.

With ``--against REV`` it measures this checkout (the change) against ``REV``
(the base), which it checks out in a temporary ``git worktree``.  Pair i runs
the same command on seed ``PAIR_SEEDS[i]`` in both checkouts, base first when
i is even and change first when it is odd, so a drift of the machine falls on
both sides alike.  Per workload and end-to-end metric the file holds each
pair's [base, change] values, the change's number of wins (by the metric's
``better`` in ``BENCHMARK.json``), both medians and the base's interquartile
range.  Either mode refuses, writing nothing, when a run ended
``"correct": false`` or the runs' environments differ.
"""

import argparse
import contextlib
import hashlib
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("selector", "encoder-band", "encoder-full", "oracle")
SEEDS = (101, 102, 103, 104, 105)
PAIR_SEEDS = tuple(range(201, 221))  # disjoint from SEEDS
SECONDS = 30


class SummaryError(Exception):
    """The runs cannot be summarized as one measurement."""


def command(workload: str, seed: int) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]


def run(workload: str, seed: int, root: Path = ROOT) -> dict:
    """One benchmark run from a checkout's root; its result file as written."""
    subprocess.run(command(workload, seed), cwd=root, check=True, stdout=subprocess.DEVNULL)
    path = root / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def check(results: list[dict]) -> None:
    """Refuse a run that ended incorrect, and runs whose environments differ."""
    for r in results:
        if r["correct"] is not True:
            raise SummaryError(f"{r['workload']} seed {r['seed']} ended correct="
                               f"{r['correct']}: {r.get('check_failure')}")
    environments = {json.dumps(r["environment"], sort_keys=True) for r in results}
    if len(environments) != 1:
        raise SummaryError(f"runs report {len(environments)} environments: {sorted(environments)}")


def summarize(results: list[dict]) -> dict:
    """Environment and, per workload in first-seen order, each end-to-end metric's
    median and quartiles (linear interpolation) over that workload's runs."""
    check(results)
    workloads: dict[str, dict] = {}
    for r in results:
        w = workloads.setdefault(r["workload"], {"seeds": [], "correct": True, "failed": 0,
                                                 "attempted": 0, "values": {}})
        w["seeds"].append(r["seed"])
        w["failed"] += r["failed"]
        w["attempted"] += r["attempted"]
        for name, metric in r["metrics"].items():
            w["values"].setdefault(name, (metric["unit"], []))[1].append(metric["value"])
    for w in workloads.values():
        w["metrics"] = {}
        for name, (unit, values) in w.pop("values").items():
            q1, median, q3 = np.percentile(values, [25, 50, 75])
            w["metrics"][name] = {"unit": unit, "median": median, "q1": q1, "q3": q3}
    return {"environment": results[0]["environment"], "workloads": workloads}


def compare(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Environment and, per workload in first-seen order, each end-to-end metric's
    (base, change) values pair by pair, the change's wins, both medians and the
    base's interquartile range (linear interpolation)."""
    check([r for pair in pairs for r in pair])
    workloads: dict[str, dict] = {}
    for base, change in pairs:
        w = workloads.setdefault(base["workload"], {"seeds": [], "correct": True,
                                                    "failed": {"base": 0, "change": 0},
                                                    "values": {}})
        w["seeds"].append(base["seed"])
        w["failed"]["base"] += base["failed"]
        w["failed"]["change"] += change["failed"]
        for name, metric in base["metrics"].items():
            pair = [metric["value"], change["metrics"][name]["value"]]
            w["values"].setdefault(name, (metric["unit"], []))[1].append(pair)
    for w in workloads.values():
        w["metrics"] = {}
        for name, (unit, values) in w.pop("values").items():
            base, change = np.array(values).T
            wins = change > base if better[name] == "higher" else change < base
            q1, q3 = np.percentile(base, [25, 75])
            w["metrics"][name] = {"unit": unit, "better": better[name], "pairs": values,
                                  "wins": int(wins.sum()), "base_median": np.median(base),
                                  "change_median": np.median(change), "base_iqr": q3 - q1}
    return {"environment": pairs[0][0]["environment"], "workloads": workloads}


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def revision(root: Path) -> dict:
    """HEAD, whether tracked files differ from it and, if they do, the sha256 of
    ``git diff --binary HEAD``: the change on top of HEAD that was measured."""
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no").strip())
    record = {"revision": git(root, "rev-parse", "HEAD").decode().strip(),
              "uncommitted_changes": dirty}
    if dirty:
        record["diff_sha256"] = hashlib.sha256(git(root, "diff", "--binary", "HEAD")).hexdigest()
    return record


@contextlib.contextmanager
def worktree(root: Path, rev: str):
    """``rev`` checked out (detached) in a temporary worktree of ``root``'s repository."""
    with tempfile.TemporaryDirectory(prefix="bench-base-") as scratch:
        path = Path(scratch) / "base"
        git(root, "worktree", "add", "--detach", str(path), rev)
        try:
            yield path
        finally:
            git(root, "worktree", "remove", "--force", str(path))


def next_path(root: Path) -> Path:
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def snapshot(workloads) -> dict:
    measured = revision(ROOT)
    commands, results = [], []
    for workload in workloads:
        for seed in SEEDS:
            commands.append(" ".join(command(workload, seed)))
            results.append(run(workload, seed))
    return {**measured, "commands": commands, **summarize(results)}


def paired(against: str, workloads, n_pairs: int) -> dict:
    measured = revision(ROOT)
    base_rev = git(ROOT, "rev-parse", "--verify", against + "^{commit}").decode().strip()
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    commands, pairs = [], []
    with worktree(ROOT, base_rev) as base_root:
        for i, seed in enumerate(PAIR_SEEDS[:n_pairs]):
            sides = (("base", base_root), ("change", ROOT))[:: 1 if i % 2 == 0 else -1]
            for workload in workloads:
                results = {}
                for side, root in sides:
                    commands.append(f"{side}: {' '.join(command(workload, seed))}")
                    results[side] = run(workload, seed, root)
                pairs.append((results["base"], results["change"]))
            print(f"pair {i + 1}/{n_pairs} done", file=sys.stderr)
    return {"against": base_rev, **measured, "pairs": n_pairs, "commands": commands,
            **compare(pairs, better)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="measure this checkout against REV in alternating-order pairs")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, choices=range(1, len(PAIR_SEEDS) + 1),
                        metavar=f"1..{len(PAIR_SEEDS)}", default=10,
                        help="pairs per workload with --against (default 10)")
    args = parser.parse_args(argv)
    try:
        record = (paired(args.against, args.workloads, args.pairs) if args.against
                  else snapshot(args.workloads))
    except SummaryError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    path = next_path(ROOT)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
