"""Run the benchmark over a fixed seed list and write the next ``BENCH_<n>.json``.

    python3 tools/bench_summary.py

Run from anywhere; it works on the checkout it sits in.  For each workload of
``WORKLOADS`` and each seed of ``SEEDS`` it runs

    python3 perfbench/run.py --workload <w> --seed <s> --seconds 30 --trace 0

one run at a time, reads the result file that run wrote under ``perfbench/out/``,
and writes ``BENCH_<n>.json`` at the checkout's root, n one past the highest
already there.  The file holds the git revision, whether the working tree had
uncommitted changes and, if it had, the sha256 of ``git diff --binary HEAD``
(so a file measured on a dirty tree names the code it measured), the exact
commands, the environment the runs reported, and per workload the median and
quartiles of the eight end-to-end metrics with ``correct`` and the summed
``failed``.  It refuses, writing nothing, when a run ended ``"correct": false``
or the runs' environments differ.
"""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("selector", "encoder-band", "encoder-full", "oracle")
SEEDS = (101, 102, 103, 104, 105)
SECONDS = 30


class SummaryError(Exception):
    """The runs cannot be summarized as one measurement."""


def command(workload: str, seed: int) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]


def run(workload: str, seed: int) -> dict:
    """One benchmark run from the checkout's root; its result file as written."""
    subprocess.run(command(workload, seed), cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = ROOT / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def summarize(results: list[dict]) -> dict:
    """Environment and, per workload in first-seen order, each end-to-end metric's
    median and quartiles (linear interpolation) over that workload's runs."""
    for r in results:
        if r["correct"] is not True:
            raise SummaryError(f"{r['workload']} seed {r['seed']} ended correct="
                               f"{r['correct']}: {r.get('check_failure')}")
    environments = {json.dumps(r["environment"], sort_keys=True) for r in results}
    if len(environments) != 1:
        raise SummaryError(f"runs report {len(environments)} environments: {sorted(environments)}")
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


def next_path(root: Path) -> Path:
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def main() -> int:
    measured = revision(ROOT)
    commands, results = [], []
    for workload in WORKLOADS:
        for seed in SEEDS:
            commands.append(" ".join(command(workload, seed)))
            results.append(run(workload, seed))
    try:
        summary = summarize(results)
    except SummaryError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    path = next_path(ROOT)
    record = {**measured, "commands": commands, **summary}
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
