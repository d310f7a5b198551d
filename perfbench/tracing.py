"""Spans around calls into each ``longspan`` layer, recorded from outside.

:func:`instrument` wraps the public functions of the package modules
(``cli``, ``corpus``, ``checkpoint``, ``autodiff``, ``mcs``,
``attention``, ``selection``, ``metrics``) in place and returns a
function that restores them.  A span is ``[name, start, end, parent,
stage, attrs]``; spans stay in memory and are written out once, when the
run ends.  No file of the package changes: the wrappers are installed on
the module (or class) attribute that the calling code looks up, which is
why some functions are wrapped under more than one importing module.

``costmodel`` is closed-form and takes microseconds, so it is not timed.
"""

from __future__ import annotations

import functools
import gzip
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.stage = None

    def open(self, name):
        span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None,
                self.stage, None]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def close(self, span, attrs=None):
        span[2] = time.perf_counter()
        span[5] = attrs
        self.stack.pop()

    def wrap(self, fn, name, attrs=None):
        """``attrs(args, result)`` returns a dict kept with the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(span, {"raised": type(exc).__name__})
                raise
            tracer.close(span, attrs(args, result) if attrs else None)
            return result

        return traced

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "stage", "attrs"],
                       "spans": self.spans}, handle, separators=(",", ":"))


def _tape_attrs(args, _result):
    tape = args[0]
    return {"records": len(tape.records),
            "bytes": sum(rec.out.data.nbytes for rec in tape.records)}


def _map_attrs(_args, result):
    return {"bytes": sum(t.data.nbytes for t in result[1])}


def _lcs_attrs(args, _result):
    return {"cells": len(args[0]) * len(args[1])}


def instrument(tracer):
    """Install the wrappers; return a function that removes them."""
    from longspan import attention, autodiff, checkpoint, cli, corpus, mcs, metrics, selection

    targets = [
        # (owner, attribute, span name, attrs)
        (cli, "main", "cli.main", None),
        (cli, "load_corpus", "corpus.load_corpus", None),
        (cli, "example_from_record", "corpus.example_from_record", None),
        (corpus.Vocab, "build", "corpus.vocab_build", None),
        (mcs, "save_tensors", "checkpoint.save", None),
        (mcs, "load_tensors", "checkpoint.load", None),
        (autodiff.Tape, "backward", "autodiff.backward", _tape_attrs),
        (autodiff, "gru_cell", "autodiff.gru_cell", None),
        (autodiff, "matmul", "autodiff.matmul", None),
        (autodiff, "masked_softmax", "autodiff.masked_softmax", None),
        (autodiff.Adam, "step", "autodiff.adam_step", None),
        (mcs.McsModel, "load", "mcs.load", None),
        (mcs.McsModel, "encode", "mcs.encode", None),
        (mcs.McsModel, "mcs_loss", "mcs.loss", None),
        (mcs.McsModel, "inference_scores", "mcs.inference", None),
        (mcs, "recall_rate", "mcs.recall_rate", None),
        (attention.ToySeq2Seq, "seq2seq_forward", "attention.seq2seq_forward", None),
        (attention.ToySeq2Seq, "encoder_forward", "attention.encoder_forward", _map_attrs),
        (attention, "multi_head_attention", "attention.mha", None),
        (attention, "build_local_mask", "attention.mask_build", None),
        (selection, "select", "selection.select", None),
        (selection, "rank_oracle", "selection.rank_oracle", None),
        (selection, "rank_model", "selection.rank_model", None),
        (selection, "truncate_and_sort", "selection.walk", None),
        (selection, "pad_selection", "selection.walk", None),
        (selection, "aggressive_fraction", "selection.aggressive_fraction", None),
        (selection, "ngram_recall", "metrics.ngram_recall", None),
        (mcs, "ngram_recall", "metrics.ngram_recall", None),
        (metrics, "rouge_n", "metrics.rouge_n", None),
        (metrics, "rouge_l", "metrics.rouge_l", None),
        (metrics, "lcs_length", "metrics.lcs_length", _lcs_attrs),
    ]
    saved = []
    for owner, attr, name, attrs in targets:
        raw = owner.__dict__[attr]
        saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(raw.__func__, name, attrs))
        else:
            wrapped = tracer.wrap(raw, name, attrs)
        setattr(owner, attr, wrapped)

    def restore():
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------


class Spans:
    """Queries over a finished trace."""

    def __init__(self, spans):
        self.spans = spans
        self.children, self.by_name = {}, {}
        for i, s in enumerate(spans):
            self.children.setdefault(s[3], []).append(i)
            self.by_name.setdefault(s[0], []).append(i)

    def pick(self, name, stages=None):
        return [i for i in self.by_name.get(name, ())
                if stages is None or self.spans[i][4] in stages]

    def dur(self, i):
        s = self.spans[i]
        return s[2] - s[1]

    def total_ms(self, name, stages=None):
        return 1e3 * sum(self.dur(i) for i in self.pick(name, stages))

    def self_ms(self, name, stages=None):
        return 1e3 * sum(self.dur(i) - sum(self.dur(c) for c in self.children.get(i, ()))
                         for i in self.pick(name, stages))

    def child_ms(self, name, child, stages=None):
        """Time of the ``child`` spans directly under ``name`` spans."""
        return 1e3 * sum(self.dur(c) for i in self.pick(name, stages)
                         for c in self.children.get(i, ()) if self.spans[c][0] == child)

    def minus_child_ms(self, name, child, stages=None):
        """Time of ``name`` spans less that of their direct ``child`` spans."""
        return self.total_ms(name, stages) - self.child_ms(name, child, stages)

    def attr_sum(self, name, key, stages=None):
        return sum(self.spans[i][5][key] for i in self.pick(name, stages))

    def raised(self, name, exc_name, stages=None):
        return sum(1 for i in self.pick(name, stages)
                   if (self.spans[i][5] or {}).get("raised") == exc_name)


def _per(value, base):
    return value / base if base else 0.0


MIB = float(1 << 20)

# stage names (set by the workload runner on the tracer)
TRAIN, SCORE, SELECT_MCS = "train-mcs", "score", "select-mcs"
SELECT_ORC, EVALUATE = "select-orc", "evaluate"
ENC_TRAIN, ENC_FORWARD = "encoder-train", "encoder-forward"

PER_LAYER = [
    # (name, unit)
    ("cli.self_ms_per_doc", "ms/doc"),
    ("corpus.load_ms_per_doc", "ms/doc"),
    ("corpus.vocab_build_ms", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("autodiff.tape_records_per_doc", "count/doc"),
    ("autodiff.gru_cell_calls_per_doc", "count/doc"),
    ("autodiff.gru_cell_ms_per_doc", "ms/doc"),
    ("autodiff.backward_ms_per_doc", "ms/doc"),
    ("autodiff.adam_step_ms", "ms"),
    ("autodiff.tape_records_per_step", "count/step"),
    ("autodiff.tape_mib_per_step", "MiB/step"),
    ("autodiff.backward_ms_per_step", "ms/step"),
    ("autodiff.matmul_ms_per_step", "ms/step"),
    ("autodiff.masked_softmax_ms_per_step", "ms/step"),
    ("mcs.encode_ms_per_doc", "ms/doc"),
    ("mcs.loss_ms_per_doc", "ms/doc"),
    ("mcs.infer_encode_ms_per_doc", "ms/doc"),
    ("mcs.beam_ms_per_doc", "ms/doc"),
    ("attention.encoder_forward_ms", "ms"),
    ("attention.mha_ms_per_step", "ms/step"),
    ("attention.mask_build_ms", "ms"),
    ("attention.attn_map_mib", "MiB"),
    ("attention.decoder_ms", "ms/step"),
    ("selection.rank_oracle_ms_per_doc", "ms/doc"),
    ("selection.walk_ms_per_doc", "ms/doc"),
    ("selection.aggressive_fraction_ms", "ms"),
    ("selection.scorer_errors", "count/round"),
    ("metrics.ngram_recall_calls_per_sentence", "count/sentence"),
    ("metrics.ngram_recall_ms_per_doc", "ms/doc"),
    ("metrics.lcs_cells_per_pair", "count/pair"),
    ("metrics.rouge_l_ms_per_pair", "ms/pair"),
    ("metrics.rouge_n_ms_per_pair", "ms/pair"),
]


def per_layer(spans, work):
    """Per-layer metrics of a traced run.

    ``work`` holds the run's totals: rounds, train doc passes, docs
    through score / select-mcs / select-orc, sentences through
    select-orc, evaluate pairs, encoder train steps and forward calls.
    """
    q = Spans(spans)
    train, infer = (TRAIN,), (SCORE, SELECT_MCS)
    selects = (SCORE, SELECT_MCS, SELECT_ORC)
    passes, steps = work["train_passes"], work["encoder_steps"]
    infer_docs = work["score_docs"] + work["select_mcs_docs"]
    cli_docs = infer_docs + work["select_orc_docs"]
    enc_calls = q.pick("attention.encoder_forward", (ENC_FORWARD,))
    saves, ckpt_loads = q.pick("checkpoint.save", train), q.pick("checkpoint.load", infer)
    vocab = q.pick("corpus.vocab_build", train)
    adam = q.pick("autodiff.adam_step", train)
    masks = q.pick("attention.mask_build", (ENC_TRAIN, ENC_FORWARD))
    agg = q.pick("selection.aggressive_fraction", (SELECT_ORC,))
    pairs, orc_docs = work["evaluate_pairs"], work["select_orc_docs"]
    values = {
        "cli.self_ms_per_doc": _per(q.self_ms("cli.main", selects), cli_docs),
        "corpus.load_ms_per_doc": _per(
            q.total_ms("corpus.load_corpus", selects)
            + q.total_ms("corpus.example_from_record", selects), cli_docs),
        "corpus.vocab_build_ms": _per(q.total_ms("corpus.vocab_build", train), len(vocab)),
        "checkpoint.save_ms": _per(q.total_ms("checkpoint.save", train), len(saves)),
        "checkpoint.load_ms": _per(q.total_ms("checkpoint.load", infer), len(ckpt_loads)),
        "autodiff.tape_records_per_doc": _per(
            q.attr_sum("autodiff.backward", "records", train), passes),
        "autodiff.gru_cell_calls_per_doc": _per(len(q.pick("autodiff.gru_cell", train)), passes),
        "autodiff.gru_cell_ms_per_doc": _per(q.total_ms("autodiff.gru_cell", train), passes),
        "autodiff.backward_ms_per_doc": _per(q.total_ms("autodiff.backward", train), passes),
        "autodiff.adam_step_ms": _per(q.total_ms("autodiff.adam_step", train), len(adam)),
        "autodiff.tape_records_per_step": _per(
            q.attr_sum("autodiff.backward", "records", (ENC_TRAIN,)), steps),
        "autodiff.tape_mib_per_step": _per(
            q.attr_sum("autodiff.backward", "bytes", (ENC_TRAIN,)) / MIB, steps),
        "autodiff.backward_ms_per_step": _per(
            q.total_ms("autodiff.backward", (ENC_TRAIN,)), steps),
        "autodiff.matmul_ms_per_step": _per(q.total_ms("autodiff.matmul", (ENC_TRAIN,)), steps),
        "autodiff.masked_softmax_ms_per_step": _per(
            q.total_ms("autodiff.masked_softmax", (ENC_TRAIN,)), steps),
        "mcs.encode_ms_per_doc": _per(q.total_ms("mcs.encode", train), passes),
        "mcs.loss_ms_per_doc": _per(q.minus_child_ms("mcs.loss", "mcs.encode", train), passes),
        "mcs.infer_encode_ms_per_doc": _per(q.total_ms("mcs.encode", infer), infer_docs),
        "mcs.beam_ms_per_doc": _per(q.minus_child_ms("mcs.inference", "mcs.encode", infer),
                                    infer_docs),
        "attention.encoder_forward_ms": _per(
            q.total_ms("attention.encoder_forward", (ENC_FORWARD,)), len(enc_calls)),
        "attention.mha_ms_per_step": _per(q.total_ms("attention.mha", (ENC_TRAIN,)), steps),
        "attention.mask_build_ms": _per(
            q.total_ms("attention.mask_build", (ENC_TRAIN, ENC_FORWARD)), len(masks)),
        "attention.attn_map_mib": _per(
            q.attr_sum("attention.encoder_forward", "bytes", (ENC_FORWARD,)) / MIB,
            len(enc_calls)),
        "attention.decoder_ms": _per(
            q.minus_child_ms("attention.seq2seq_forward", "attention.encoder_forward",
                             (ENC_TRAIN,)), steps),
        "selection.rank_oracle_ms_per_doc": _per(
            q.child_ms("selection.select", "selection.rank_oracle", (SELECT_ORC,)), orc_docs),
        "selection.walk_ms_per_doc": _per(
            q.child_ms("selection.select", "selection.walk", (SELECT_MCS, SELECT_ORC)),
            work["select_mcs_docs"] + orc_docs),
        "selection.aggressive_fraction_ms": _per(
            q.total_ms("selection.aggressive_fraction", (SELECT_ORC,)), len(agg)),
        "selection.scorer_errors": _per(q.raised("selection.rank_model", "ScorerError",
                                                  (SELECT_MCS,)), work["rounds"]),
        "metrics.ngram_recall_calls_per_sentence": _per(
            len(q.pick("metrics.ngram_recall", (SELECT_ORC,))), work["select_orc_sentences"]),
        "metrics.ngram_recall_ms_per_doc": _per(
            q.total_ms("metrics.ngram_recall", (SELECT_ORC,)), orc_docs),
        "metrics.lcs_cells_per_pair": _per(
            q.attr_sum("metrics.lcs_length", "cells", (EVALUATE,)), pairs),
        "metrics.rouge_l_ms_per_pair": _per(q.total_ms("metrics.rouge_l", (EVALUATE,)), pairs),
        "metrics.rouge_n_ms_per_pair": _per(q.total_ms("metrics.rouge_n", (EVALUATE,)), pairs),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

