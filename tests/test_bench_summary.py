"""The BENCH summarizer (tools/bench_summary.py) on hand-made run results."""

import hashlib
import importlib.util
import subprocess
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
