"""Batch command-line pipeline over JSONL corpora.

Subcommands: ``cost-model`` (memory predictions and operating-point
advice), ``select`` (sentence selection with sidecar statistics),
``analyze-attention`` (mean-distance diagnostics), ``train-mcs`` /
``score`` / ``evaluate`` (selector training, score dumps, ROUGE means),
and ``make-corpus`` (seeded synthetic data).

Exit codes: 0 success, 1 partial per-record failures or runtime errors,
2 usage errors.  Outputs carry no timestamps, so a fixed (corpus, config,
seed) triple produces byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import attention, costmodel, mcs, selection
from .corpus import (
    Example,
    Vocab,
    example_from_record,
    iter_jsonl,
    load_corpus,
    make_synthetic_corpus,
    write_corpus,
)
from .errors import FormatError, LongspanError
from .metrics import rouge_suite, tokenize


class UsageError(Exception):
    """Bad argument combination; reported through the parser (exit code 2)."""


def _print_report(report: dict, fmt: str, lines_text) -> None:
    if fmt == "json":
        print(json.dumps(report, ensure_ascii=False, indent=2))
    else:
        for line in lines_text(report):
            print(line)


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# argument types: a bad value is a usage error (exit 2)
# ---------------------------------------------------------------------------


def _integer(text: str, at_least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < at_least:
        raise argparse.ArgumentTypeError(f"must be >= {at_least}, got {value}")
    return value


def _positive(text: str) -> int:
    return _integer(text, at_least=1)


def _seed(text: str) -> int:
    return _integer(text, at_least=0)


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _positive_real(text: str) -> float:
    """A finite number > 0: NaN cannot go into a JSON report, and a negative rate ascends."""
    value = _number(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _fraction(text: str) -> float:
    """A share in [0, 1)."""
    value = _number(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1), got {text!r}")
    return value


# analyze-attention keeps one [heads x N x N] float64 map per layer: 512 MiB at 4 heads
_MAX_PROBE = 4096


def _probe_length(text: str) -> int:
    value = _positive(text)
    if value > _MAX_PROBE:
        raise argparse.ArgumentTypeError(f"must be <= {_MAX_PROBE}, got {value}")
    return value


def _window(text: str) -> int | str:
    """A band width >= 1, or ``full``."""
    return attention.FULL if text.lower() == attention.FULL else _positive(text)


def _grid(spec: str) -> list[tuple[int, int | None]]:
    """Comma list of ``N:W`` candidates; W empty or ``full`` means full attention."""
    grid = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        n_part, _, w_part = chunk.partition(":")
        window = None if w_part.lower() in ("", "full") else _positive(w_part)
        grid.append((_positive(n_part), window))
    if not grid:
        raise argparse.ArgumentTypeError("candidate grid is empty")
    return grid


# ---------------------------------------------------------------------------
# cost-model
# ---------------------------------------------------------------------------


def cmd_cost_model(args) -> int:
    coeffs_map = None
    if args.coeff_file:
        coeffs_map = costmodel.load_coefficient_file(args.coeff_file)

    def coeffs(kind):
        if coeffs_map is None:
            return costmodel.CostCoefficients.defaults(kind)
        return costmodel.CostCoefficients.from_mapping(kind, coeffs_map)

    if args.kind == "hier":
        if args.n1 is None or args.n2 is None:
            raise UsageError("hier model needs -N1 and -N2")
        breakdown = costmodel.hier_rnn_memory(args.n1, args.n2, args.batch,
                                              coeffs(costmodel.KIND_HIER))
    elif args.kind == "bart":
        if args.N is None or args.M is None:
            raise UsageError("bart model needs -N and -M")
        breakdown = costmodel.bart_memory(args.N, args.M, args.batch,
                                          coeffs(costmodel.KIND_BART))
    else:
        if args.N is None or args.M is None or args.W is None:
            raise UsageError("lobart model needs -N, -M and -W")
        breakdown = costmodel.lobart_memory(args.N, args.M, args.W, args.batch,
                                            coeffs(costmodel.KIND_LOBART))

    report = breakdown.to_dict()
    if args.budget is not None:
        report["budget_gib"] = args.budget
        report["feasible"] = breakdown.total <= args.budget
    if args.kind in ("bart", "lobart") and args.N is not None:
        try:
            report["breakeven_width"] = costmodel.breakeven_width(
                args.N, coeffs(costmodel.KIND_BART), coeffs(costmodel.KIND_LOBART)
            )
        except FormatError:
            pass  # custom file covers one model kind only
    if args.grid:
        grid = args.grid
        # a --coeff-file may cover one kind only: load each kind only if a candidate uses it
        points = costmodel.advise_operating_point(
            args.budget if args.budget is not None else float("inf"),
            args.M if args.M is not None else 144,
            args.batch,
            grid,
            bart=coeffs(costmodel.KIND_BART) if any(w is None for _, w in grid) else None,
            lobart=coeffs(costmodel.KIND_LOBART) if any(w is not None for _, w in grid) else None,
        )
        report["grid"] = [dataclasses.asdict(p) for p in points]

    def text(rep):
        yield f"kind: {rep['kind']}"
        for name, value in rep["terms"].items():
            yield f"  {name:>18}: {value:10.4f} GiB"
        yield f"  {'total':>18}: {rep['total_gib']:10.4f} GiB"
        if "feasible" in rep:
            word = "fits" if rep["feasible"] else "exceeds"
            yield f"  {word} budget of {rep['budget_gib']} GiB"
        if "breakeven_width" in rep:
            yield f"  break-even width at this N: {rep['breakeven_width']:.0f}"
        for point in rep.get("grid", []):
            state = "feasible" if point["feasible"] else "infeasible"
            window = point["window"] if point["window"] is not None else "full"
            yield f"  grid N={point['n']} W={window}: {point['total_gib']:.2f} GiB ({state})"

    _print_report(report, args.report, text)
    return 0


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def cmd_select(args) -> int:
    scorer = None
    lib_method = args.method
    if args.method == "mcs":
        if not args.checkpoint:
            raise UsageError("--method mcs requires --checkpoint")
        model = mcs.McsModel.load(args.checkpoint)
        scorer = model.fused_scores
        lib_method = selection.METHOD_MODEL

    outputs: list[str] = []
    errors: list[dict] = []
    processed: list[tuple[Example, selection.Selection]] = []

    def failed(line_no: int, exc: LongspanError) -> None:
        errors.append({"line": line_no, "error": str(exc)})
        outputs.append(json.dumps({"line": line_no, "error": str(exc)}))

    for line_no, record in iter_jsonl(args.input, on_error=failed):
        try:
            example = example_from_record(record, line_no)
            picked = selection.select(
                example.doc, lib_method, args.budget,
                reference=example.reference, scorer=scorer,
                seed=args.seed,
            )
        except LongspanError as exc:
            failed(line_no, exc)
            continue
        outputs.append(json.dumps(picked.to_record(example.doc), ensure_ascii=False))
        processed.append((example, picked))

    Path(args.output).write_text("\n".join(outputs) + ("\n" if outputs else ""),
                                 encoding="utf-8")

    with_refs = [(ex, s) for ex, s in processed if ex.reference]
    report = {
        "method": args.method,
        "budget": args.budget,
        "seed": args.seed,
        "documents": len(processed),
        "failed_lines": len(errors),
        "mean_words_used": (
            float(np.mean([s.words_used for _, s in processed])) if processed else 0.0
        ),
        "errors": errors,
    }
    if with_refs:
        report["pct_aggressive_oracle"] = 100.0 * selection.aggressive_fraction(
            [ex for ex, _ in with_refs], args.budget
        )
        recall = mcs.recall_rate(
            [s for _, s in with_refs],
            [ex.doc for ex, _ in with_refs],
            [ex.reference for ex, _ in with_refs],
        )
        if recall is not None:  # None: no sentence overlaps its reference
            report["pct_recall"] = recall
    report_path = args.report_file or (args.output + ".report.json")
    _write_json(report_path, report)

    def text(rep):
        yield f"selected {rep['documents']} documents -> {args.output}"
        yield f"mean words used: {rep['mean_words_used']:.2f} / {rep['budget']}"
        if "pct_aggressive_oracle" in rep:
            yield f"%AgORC: {rep['pct_aggressive_oracle']:.2f}"
        if "pct_recall" in rep:
            yield f"%Recall: {rep['pct_recall']:.2f}"
        if rep["failed_lines"]:
            yield f"failed lines: {rep['failed_lines']}"

    _print_report(report, args.report, text)
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# analyze-attention
# ---------------------------------------------------------------------------


def cmd_analyze_attention(args) -> int:
    window = args.window
    if args.checkpoint:
        model = attention.load_toy_model(args.checkpoint)
        config = model.config
        if window != config.window:
            config = dataclasses.replace(config, window=window)
            model = attention.ToySeq2Seq(config, model.params)
    else:
        pos_base = attention.ToyModelConfig.pos_base_len
        max_src = max(args.N, pos_base)
        if max_src % pos_base:
            max_src += pos_base - (max_src % pos_base)
        config = attention.ToyModelConfig(window=window, max_src=max_src)
        model = attention.ToySeq2Seq.init(config, seed=args.seed)
    if args.N > config.max_src:
        raise UsageError(f"-N {args.N} exceeds the model's max source {config.max_src}")

    rng = np.random.default_rng(args.seed)
    tokens = rng.integers(0, config.vocab, size=args.N)
    _, attns = model.encoder_forward(tokens)
    layers = []
    for layer_idx, attn_tensor in enumerate(attns):
        attn_map = attention.AttentionMap(attn_tensor.data, window=window)
        heads = attn_map.mean_distances()
        layers.append({
            "layer": layer_idx,
            "per_head": heads,
            "mean": float(np.mean(heads)),
        })
    report = {
        "n": args.N,
        "window": window,
        "uniform_reference": attention.uniform_attention_distance(args.N),
        "layers": layers,
    }

    def text(rep):
        yield f"N={rep['n']} window={rep['window']}"
        yield f"uniform-attention reference distance: {rep['uniform_reference']:.2f}"
        for layer in rep["layers"]:
            heads = ", ".join(f"{d:.2f}" for d in layer["per_head"])
            yield f"layer {layer['layer']}: mean {layer['mean']:.2f} (heads: {heads})"

    _print_report(report, args.report, text)
    return 0


# ---------------------------------------------------------------------------
# train / score / evaluate
# ---------------------------------------------------------------------------


def cmd_train_mcs(args) -> int:
    examples = load_corpus(args.input)
    vocab = Vocab.build(examples)
    config = mcs.McsConfig(
        vocab_size=len(vocab),
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
        word_layers=args.word_layers,
        sent_layers=args.sent_layers,
        dropout=args.dropout,
        gamma=args.gamma,
        max_sentences=args.max_sentences,
        max_words=args.max_words,
        max_target=args.max_target,
    )
    model = mcs.McsModel.init(config, vocab, seed=args.seed)
    settings = mcs.TrainSettings(
        steps=args.steps, batch_size=args.batch_size, warmup=args.warmup,
        lr_scale=args.lr_scale, seed=args.seed, val_fraction=args.val_fraction,
        val_every=args.val_every, patience=args.patience,
    )
    result = mcs.train(model, examples, gamma=args.gamma, settings=settings)
    model.save(args.output)
    curve_path = args.curve_file or (args.output + ".losses.jsonl")
    with open(curve_path, "w", encoding="utf-8") as handle:
        for entry in result.history:
            handle.write(json.dumps(entry) + "\n")
    report = {
        "checkpoint": str(args.output),
        "curve_file": str(curve_path),
        "steps_run": result.steps_run,
        "stopped_early": result.stopped_early,
        "final_train_loss": result.history[-1]["train_loss"] if result.history else None,
        "vocab_size": len(vocab),
        "documents": len(examples),
    }

    def text(rep):
        yield (f"trained {rep['steps_run']} steps on {rep['documents']} documents "
               f"(early stop: {rep['stopped_early']})")
        yield f"final train loss: {rep['final_train_loss']:.4f}"
        yield f"checkpoint: {rep['checkpoint']}"
        yield f"loss curve: {rep['curve_file']}"

    _print_report(report, args.report, text)
    return 0


def cmd_score(args) -> int:
    model = mcs.McsModel.load(args.checkpoint)
    examples = load_corpus(args.input)
    lines = []
    for ex in examples:
        for record in model.inference_scores(ex.doc).to_records(ex.doc.id):
            lines.append(json.dumps(record, ensure_ascii=False))
    Path(args.output).write_text("\n".join(lines) + ("\n" if lines else ""),
                                 encoding="utf-8")
    report = {"documents": len(examples), "output": str(args.output)}
    _print_report(report, args.report,
                  lambda rep: [f"scored {rep['documents']} documents -> {rep['output']}"])
    return 0


def cmd_evaluate(args) -> int:
    totals = {"r1": [], "r2": [], "rl": []}
    count = 0
    for line_no, record in iter_jsonl(args.input):
        if not (isinstance(record, dict) and isinstance(record.get("candidate"), str)
                and isinstance(record.get("reference"), str)):
            raise FormatError(f"line {line_no}: needs 'candidate' and 'reference' strings")
        cand = tokenize(record["candidate"])
        ref = tokenize(record["reference"])
        for key, score in rouge_suite(cand, ref).items():
            totals[key].append(score)
        count += 1
    if count == 0:
        raise FormatError("no records to evaluate")
    report = {"documents": count}
    for key, scores in totals.items():
        report[key] = {
            "f1": float(np.mean([s.f1 for s in scores])),
            "recall": float(np.mean([s.recall for s in scores])),
        }

    def text(rep):
        yield f"evaluated {rep['documents']} pairs"
        for key in ("r1", "r2", "rl"):
            yield (f"{key.upper()}: f1 {rep[key]['f1']:.4f}  "
                   f"recall {rep[key]['recall']:.4f}")

    _print_report(report, args.report, text)
    return 0


def cmd_make_corpus(args) -> int:
    examples = make_synthetic_corpus(
        args.docs, seed=args.seed,
        n_sentences=(args.min_sentences, args.max_sentences),
        words_per_sentence=(args.min_words, args.max_words),
    )
    write_corpus(args.output, examples)
    report = {"documents": len(examples), "output": str(args.output), "seed": args.seed}
    _print_report(report, args.report,
                  lambda rep: [f"wrote {rep['documents']} documents -> {rep['output']}"])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longspan",
        description="Desk-scale long-input summarization mechanics: "
                    "memory models, windowed attention diagnostics, and "
                    "content selection pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report(p):
        p.add_argument("--report", choices=("text", "json"), default="text",
                       help="stdout report format")

    p = sub.add_parser("cost-model", help="predict training memory for one operating point")
    p.add_argument("--kind", choices=("bart", "lobart", "hier"), required=True)
    p.add_argument("-N", type=int, help="input length in tokens")
    p.add_argument("-M", type=int, help="target length in tokens")
    p.add_argument("-W", type=int, help="attention window (lobart)")
    p.add_argument("-N1", dest="n1", type=int, help="sentence count (hier)")
    p.add_argument("-N2", dest="n2", type=int, help="max words per sentence (hier)")
    p.add_argument("-B", "--batch", type=int, default=1)
    p.add_argument("--coeff-file", help="override bundled coefficients")
    p.add_argument("--budget", type=_positive_real, help="GiB budget for feasibility checks")
    p.add_argument("--grid", type=_grid,
                   help="comma list of N:W candidates (W empty or 'full')")
    add_report(p)
    p.set_defaults(func=cmd_cost_model)

    p = sub.add_parser("select", help="run content selection over a JSONL corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--method", required=True,
                   choices=("trc", "orc-no-pad", "orc-pad-lead", "orc-pad-rand", "mcs"))
    p.add_argument("--budget", type=_positive, required=True, help="word budget")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--checkpoint", help="model checkpoint (required for --method mcs)")
    p.add_argument("--report-file", help="sidecar stats path (default <output>.report.json)")
    add_report(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("analyze-attention", help="mean attention distance per layer/head")
    p.add_argument("--checkpoint", help="toy model checkpoint; random init if omitted")
    p.add_argument("-N", type=_probe_length, default=64, help="probe sequence length")
    p.add_argument("--window", type=_window, default=attention.FULL,
                   help="band width or 'full'")
    p.add_argument("--seed", type=_seed, default=0)
    add_report(p)
    p.set_defaults(func=cmd_analyze_attention)

    p = sub.add_parser("train-mcs", help="train the selector on a JSONL corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="checkpoint path")
    p.add_argument("--gamma", type=float, default=0.2)
    p.add_argument("--steps", type=_positive, default=500)
    p.add_argument("--batch-size", type=_positive, default=2)
    p.add_argument("--warmup", type=_positive, default=100)
    p.add_argument("--lr-scale", type=_positive_real, default=0.002)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--val-fraction", type=_fraction, default=0.2)
    p.add_argument("--val-every", type=_positive, default=50)
    p.add_argument("--patience", type=_positive, default=3)
    p.add_argument("--embed-dim", type=int, default=32)
    p.add_argument("--hidden-dim", type=int, default=64)
    p.add_argument("--word-layers", type=int, default=2)
    p.add_argument("--sent-layers", type=int, default=2)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--max-sentences", type=int, default=16)
    p.add_argument("--max-words", type=int, default=12)
    p.add_argument("--max-target", type=int, default=16)
    p.add_argument("--curve-file", help="loss curve path (default <output>.losses.jsonl)")
    add_report(p)
    p.set_defaults(func=cmd_train_mcs)

    p = sub.add_parser("score", help="dump per-sentence selector scores")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--output", required=True)
    add_report(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="corpus-mean ROUGE of candidate/reference pairs")
    p.add_argument("--input", required=True,
                   help="JSONL with 'candidate' and 'reference' per line")
    add_report(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("make-corpus", help="generate a seeded synthetic corpus")
    p.add_argument("--output", required=True)
    p.add_argument("--docs", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--min-sentences", type=int, default=6)
    p.add_argument("--max-sentences", type=int, default=10)
    p.add_argument("--min-words", type=int, default=4)
    p.add_argument("--max-words", type=int, default=8)
    add_report(p)
    p.set_defaults(func=cmd_make_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))  # prints usage and exits 2
    except LongspanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
