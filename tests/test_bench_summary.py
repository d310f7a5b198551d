"""The BENCH summarizer (tools/bench_summary.py) on hand-made run results."""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

ENV = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "blas_threads": 1}


def result(workload, seed, values, correct=True, failed=0, environment=ENV):
    metrics = {name: {"value": value, "unit": "docs/s"} for name, value in values.items()}
    return {"workload": workload, "seed": seed, "correct": correct, "attempted": 10,
            "failed": failed, "metrics": metrics if correct else {},
            "environment": dict(environment), "check_failure": None if correct else "bad"}


def test_median_and_quartiles_per_workload_and_metric():
    runs = [result("selector", s, {"train_docs_per_s": v, "setup_s": 10 - v})
            for s, v in zip(range(5), [5.0, 1.0, 4.0, 2.0, 3.0])]
    runs += [result("oracle", s, {"train_docs_per_s": v}, failed=1)
             for s, v in zip(range(4), [1.0, 10.0, 2.0, 3.0])]
    summary = bench.summarize(runs)
    assert summary["environment"] == ENV
    assert list(summary["workloads"]) == ["selector", "oracle"]
    sel = summary["workloads"]["selector"]
    assert sel["seeds"] == [0, 1, 2, 3, 4]
    assert (sel["correct"], sel["failed"], sel["attempted"]) == (True, 0, 50)
    assert sel["metrics"]["train_docs_per_s"] == {"unit": "docs/s", "median": 3.0,
                                                  "q1": 2.0, "q3": 4.0}
    assert sel["metrics"]["setup_s"]["median"] == 7.0
    orc = summary["workloads"]["oracle"]
    assert orc["failed"] == 4
    # four runs, linear interpolation between order statistics: 1, 2, 3, 10
    assert orc["metrics"]["train_docs_per_s"] == {"unit": "docs/s", "median": 2.5,
                                                  "q1": 1.75, "q3": 4.75}


def test_refuses_a_run_that_ended_incorrect():
    runs = [result("selector", 1, {"train_docs_per_s": 1.0}),
            result("selector", 2, {}, correct=False)]
    with pytest.raises(bench.SummaryError, match="seed 2"):
        bench.summarize(runs)


def test_refuses_runs_whose_environments_differ():
    runs = [result("selector", 1, {"train_docs_per_s": 1.0}),
            result("oracle", 1, {"train_docs_per_s": 1.0},
                   environment=dict(ENV, blas_threads=2))]
    with pytest.raises(bench.SummaryError, match="2 environments"):
        bench.summarize(runs)


def test_next_file_is_one_past_the_highest(tmp_path):
    assert bench.next_path(tmp_path).name == "BENCH_1.json"
    for name in ("BENCH_1.json", "BENCH_3.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert bench.next_path(tmp_path).name == "BENCH_4.json"


def test_commands_are_the_benchmark_runs():
    assert bench.command("oracle", 7) == ["python3", "perfbench/run.py", "--workload", "oracle",
                                          "--seed", "7", "--seconds", "30", "--trace", "0"]
    assert len(bench.SEEDS) >= 5
    assert len(bench.PAIR_SEEDS) >= 10 and not set(bench.PAIR_SEEDS) & set(bench.SEEDS)


def test_pairs_count_wins_by_the_metric_s_direction():
    base = [result("oracle", s, {"rouge_pairs_per_s": v, "setup_s": 1.0})
            for s, v in zip(range(4), [10.0, 12.0, 11.0, 13.0])]
    change = [result("oracle", s, {"rouge_pairs_per_s": v, "setup_s": t})
              for s, v, t in zip(range(4), [14.0, 11.0, 15.0, 16.0], [0.5, 1.0, 2.0, 0.9])]
    summary = bench.compare(list(zip(base, change)),
                            {"rouge_pairs_per_s": "higher", "setup_s": "lower"})
    assert summary["environment"] == ENV
    orc = summary["workloads"]["oracle"]
    assert orc["seeds"] == [0, 1, 2, 3]
    assert orc["failed"] == {"base": 0, "change": 0}
    rouge = orc["metrics"]["rouge_pairs_per_s"]
    assert rouge["pairs"] == [[10.0, 14.0], [12.0, 11.0], [11.0, 15.0], [13.0, 16.0]]
    assert (rouge["wins"], rouge["base_median"], rouge["change_median"]) == (3, 11.5, 14.5)
    assert rouge["base_iqr"] == 12.25 - 10.75  # quartiles of 10, 11, 12, 13
    setup = orc["metrics"]["setup_s"]
    assert (setup["better"], setup["wins"], setup["base_iqr"]) == ("lower", 2, 0.0)


def test_pairs_refuse_what_a_summary_refuses():
    good = result("oracle", 1, {"setup_s": 1.0})
    with pytest.raises(bench.SummaryError, match="seed 1"):
        bench.compare([(good, result("oracle", 1, {}, correct=False))], {"setup_s": "lower"})
    with pytest.raises(bench.SummaryError, match="2 environments"):
        bench.compare([(good, result("oracle", 1, {"setup_s": 1.0},
                                     environment=dict(ENV, nproc=4)))], {"setup_s": "lower"})


# A stand-in for perfbench/run.py: its metrics follow the seed and the checkout's
# speed.txt, and every call is logged with whether its checkout has a .git, so the
# pair order and where each side ran can be read back.
STUB_RUN = """
import argparse, json, os, pathlib
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag, required=True)
args = parser.parse_args()
root = pathlib.Path(__file__).resolve().parent.parent
speed, seed = float((root / "speed.txt").read_text()), int(args.seed)
with open(os.environ["STUB_LOG"], "a") as log:
    log.write(f"{speed} {args.workload} {seed} {args.seconds} {args.trace} "
              f"git={(root / '.git').exists()}\\n")
value = seed * speed if seed % 2 else seed / speed
environment = {"nproc": 2}
if os.environ.get("STUB_ENV_FOLLOWS_SPEED"):
    environment["speed"] = speed
record = {"workload": args.workload, "seed": seed, "attempted": 3, "failed": int(speed),
          "correct": os.environ.get("STUB_INCORRECT") != str(speed), "check_failure": None,
          "metrics": {"rouge_pairs_per_s": {"value": value, "unit": "pairs/s"},
                      "setup_s": {"value": 1.0 / speed, "unit": "s"}},
          "environment": environment}
out = root / "perfbench" / "out"
out.mkdir(parents=True, exist_ok=True)
(out / f"result-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record))
"""


@pytest.fixture()
def pair_repo(tmp_path):
    """A git repository whose HEAD~1 runs at speed 1 and whose HEAD runs at speed 2."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "tools").mkdir()
    shutil.copy(_PATH, repo / "tools" / "bench_summary.py")
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    (repo / ".gitignore").write_text("/perfbench/out/\n")
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "rouge_pairs_per_s", "better": "higher"}, {"name": "setup_s", "better": "lower"}]}))

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=repo, check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    for speed in ("1.0", "2.0"):
        (repo / "speed.txt").write_text(speed)
        git("add", "-A")
        git("commit", "-q", "-m", f"speed {speed}")
    return repo, git


def assert_base_left_no_trace(repo, tmp_path, git):
    """No worktree is registered in the repository, and the extracted base is gone."""
    assert git("worktree", "list").count("\n") == 1
    assert not list((tmp_path / "tmp").iterdir())


def run_pairs(repo, tmp_path, *args, **env):
    log, temp = tmp_path / "calls.log", tmp_path / "tmp"  # the base is extracted under temp
    temp.mkdir()
    done = subprocess.run([sys.executable, "tools/bench_summary.py", "--against", "HEAD~1",
                           *args], cwd=repo, capture_output=True, text=True,
                          env={**os.environ, "STUB_LOG": str(log), "TMPDIR": str(temp), **env})
    calls = log.read_text().splitlines() if log.exists() else []
    return done, calls


def test_against_runs_alternating_pairs_in_an_archive_of_the_base(pair_repo, tmp_path):
    repo, git = pair_repo
    (repo / "BENCH_2.json").write_text("{}")
    done, calls = run_pairs(repo, tmp_path, "--pairs", "4", "--workloads", "oracle", "selector")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str((repo / "BENCH_3.json").resolve())
    order = [("1.0", "2.0"), ("2.0", "1.0")] * 2
    assert calls == [f"{speed} {workload} {seed} 30 0 git={speed == '2.0'}"
                     for seed, sides in zip(bench.PAIR_SEEDS, order)
                     for workload in ("oracle", "selector") for speed in sides]
    record = json.loads((repo / "BENCH_3.json").read_text())
    assert record["against"] == git("rev-parse", "HEAD~1").strip()
    assert record["revision"] == git("rev-parse", "HEAD").strip()
    assert record["uncommitted_changes"] is False and record["pairs"] == 4
    assert record["commands"][:2] == [
        "base: python3 perfbench/run.py --workload oracle --seed 201 --seconds 30 --trace 0",
        "change: python3 perfbench/run.py --workload oracle --seed 201 --seconds 30 --trace 0"]
    assert list(record["workloads"]) == ["oracle", "selector"]
    orc = record["workloads"]["oracle"]
    assert orc["seeds"] == [201, 202, 203, 204]
    assert orc["failed"] == {"base": 4, "change": 8}
    rouge = orc["metrics"]["rouge_pairs_per_s"]
    # odd seeds run twice as fast at speed 2 and even seeds half as fast
    assert rouge["pairs"] == [[201.0, 402.0], [202.0, 101.0], [203.0, 406.0], [204.0, 102.0]]
    assert (rouge["wins"], rouge["base_median"], rouge["change_median"]) == (2, 202.5, 252.0)
    assert rouge["base_iqr"] == 1.5
    assert orc["metrics"]["setup_s"]["wins"] == 4
    assert_base_left_no_trace(repo, tmp_path, git)


@pytest.mark.parametrize("env,reason", [({"STUB_INCORRECT": "1.0"}, "ended correct=False"),
                                        ({"STUB_ENV_FOLLOWS_SPEED": "1"}, "2 environments")])
def test_against_refuses_and_writes_nothing(pair_repo, tmp_path, env, reason):
    repo, git = pair_repo
    done, calls = run_pairs(repo, tmp_path, "--pairs", "2", "--workloads", "oracle", **env)
    assert done.returncode == 1 and len(calls) == 4
    assert done.stderr.splitlines()[-1].startswith("refused: ") and reason in done.stderr
    assert not list(repo.glob("BENCH_*.json"))
    assert_base_left_no_trace(repo, tmp_path, git)


def test_revision_names_the_uncommitted_diff_it_measured(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    git("add", "a.py")
    git("commit", "-q", "-m", "one")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, check=True,
                          capture_output=True, text=True).stdout.strip()
    (tmp_path / "untracked.txt").write_text("not part of the measured code\n")
    assert bench.revision(tmp_path) == {"revision": head, "uncommitted_changes": False}
    (tmp_path / "a.py").write_text("x = 2\n")
    dirty = bench.revision(tmp_path)
    diff = subprocess.run(["git", "diff", "--binary", "HEAD"], cwd=tmp_path, check=True,
                          capture_output=True).stdout
    assert dirty == {"revision": head, "uncommitted_changes": True,
                     "diff_sha256": hashlib.sha256(diff).hexdigest()}
    (tmp_path / "a.py").write_text("x = 3\n")
    assert bench.revision(tmp_path)["diff_sha256"] != dirty["diff_sha256"]
