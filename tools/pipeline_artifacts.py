"""Fixed-seed artifacts of the make-corpus -> train-mcs -> score -> select pipeline.

Usage: ``python tools/pipeline_artifacts.py OUTDIR`` with the package installed or
``src`` on ``PYTHONPATH``.  Every command runs inside OUTDIR on relative paths and
writes its stdout report there, so two runs (two processes, two hash seeds or two
checkouts) compare with ``diff -r``.  BLAS runs on one thread unless the environment
sets otherwise.

One corpus (``make-corpus --docs 40 --seed 7 --max-sentences 14``) is trained on,
scored and selected from (``--method mcs --budget 14``) at each (gamma, layers) pair
of ``SETTINGS``; each output is named after its pair, e.g. ``g0.2-l1.lsnt``.  The
same corpus is selected from with each method of ``REFERENCE_METHODS`` (``--budget 14
--seed 5``), which pins the oracle rankings and the ``%AgORC`` / ``%Recall`` reports.  The
diagnostics add one ``analyze-attention`` report per case of ``ATTENTION`` (the last
on ``toy.lsnt``, a seeded toy model the script saves) and one ``cost-model`` report.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")   # read once, when numpy loads

import contextlib
import sys
from pathlib import Path

from longspan.attention import ToyModelConfig, ToySeq2Seq
from longspan.cli import main

SETTINGS = [(0.2, 1), (0.2, 2), (0, 1), (1, 1)]
TRAIN = ["--steps", "60", "--warmup", "100", "--seed", "3", "--embed-dim", "16",
         "--hidden-dim", "16", "--max-sentences", "8", "--max-words", "6", "--max-target", "12"]
REFERENCE_METHODS = ["trc", "orc-no-pad", "orc-pad-lead", "orc-pad-rand"]
ATTENTION = [
    ("n5-w3", "-N", "5", "--window", "3"),
    ("n40-w7", "-N", "40", "--window", "7"),
    ("n64-full", "-N", "64", "--window", "full"),
    ("n300-w33", "-N", "300", "--window", "33", "--seed", "4"),
    ("toy-n40-w9", "--checkpoint", "toy.lsnt", "-N", "40", "--window", "9"),
]


def run(report: str, *argv: str) -> None:
    """One CLI command with its JSON report written to ``report``; exits unless it succeeds."""
    with open(report, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        code = main([*argv, "--report", "json"])
    if code != 0:
        sys.exit(f"{argv[0]} exited with {code}")


def write_artifacts(outdir: str) -> None:
    Path(outdir).mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    run("corpus.report.json", "make-corpus", "--output", "corpus.jsonl", "--docs", "40",
        "--seed", "7", "--max-sentences", "14")
    for gamma, layers in SETTINGS:
        stem = f"g{gamma}-l{layers}"
        run(f"{stem}.train.json", "train-mcs", "--input", "corpus.jsonl",
            "--output", f"{stem}.lsnt", "--gamma", str(gamma), "--word-layers", str(layers),
            "--sent-layers", str(layers), *TRAIN)
        run(f"{stem}.score.json", "score", "--input", "corpus.jsonl",
            "--checkpoint", f"{stem}.lsnt", "--output", f"{stem}.scores.jsonl")
        run(f"{stem}.select.json", "select", "--input", "corpus.jsonl",
            "--checkpoint", f"{stem}.lsnt", "--output", f"{stem}.picked.jsonl",
            "--method", "mcs", "--budget", "14")
    for method in REFERENCE_METHODS:
        run(f"{method}.select.json", "select", "--input", "corpus.jsonl",
            "--output", f"{method}.picked.jsonl", "--method", method, "--budget", "14",
            "--seed", "5")
    ToySeq2Seq.init(ToyModelConfig(max_src=48), seed=7).save("toy.lsnt")
    for name, *argv in ATTENTION:
        run(f"attention-{name}.json", "analyze-attention", *argv)
    run("cost-model.json", "cost-model", "--kind", "lobart", "-N", "4096", "-M", "144",
        "-W", "1024", "--budget", "32", "--grid", "1024:full,4096:1024")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    write_artifacts(sys.argv[1])
