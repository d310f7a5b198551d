"""Desk-scale mechanics of long-span summarization.

Modules: a small reverse-mode tensor core (:mod:`longspan.autodiff`),
local windowed self-attention and a toy encoder-decoder
(:mod:`longspan.attention`), fitted GPU training-memory models
(:mod:`longspan.costmodel`), ROUGE scoring (:mod:`longspan.metrics`),
JSONL corpora (:mod:`longspan.corpus`), sentence-selection pipelines
(:mod:`longspan.selection`), the multitask content-selection model
(:mod:`longspan.mcs`), checkpoint containers (:mod:`longspan.checkpoint`),
and the batch CLI (:mod:`longspan.cli`).
"""

from . import errors
from .attention import (
    FULL,
    ToyModelConfig,
    ToySeq2Seq,
    build_local_mask,
    extend_positional_embedding,
    mean_attention_distance,
    multi_head_attention,
    uniform_attention_distance,
)
from .autodiff import GruParams, Tape, Tensor, gru_cell, masked_softmax, matmul
from .corpus import Document, Example, Vocab, load_corpus, make_synthetic_corpus, write_corpus
from .costmodel import (
    CostCoefficients,
    MemoryBreakdown,
    advise_operating_point,
    bart_memory,
    breakeven_width,
    fit_coefficients,
    hier_rnn_memory,
    lobart_memory,
)
from .mcs import McsConfig, McsModel, McsScores, make_labels, recall_rate, train
from .metrics import RougeScore, ngram_recall, rouge_l, rouge_suite, tokenize
from .selection import (
    Ranking,
    Selection,
    aggressive_fraction,
    pad_selection,
    rank_model,
    rank_oracle,
    rank_trc,
    select,
    truncate_and_sort,
)

__version__ = "0.1.0"

__all__ = [
    "errors", "__version__",
    # tensors
    "Tensor", "Tape", "GruParams", "gru_cell", "masked_softmax", "matmul",
    # attention
    "FULL", "ToyModelConfig", "ToySeq2Seq",
    "build_local_mask", "extend_positional_embedding", "mean_attention_distance",
    "multi_head_attention", "uniform_attention_distance",
    # cost model
    "CostCoefficients", "MemoryBreakdown", "advise_operating_point", "bart_memory",
    "breakeven_width", "fit_coefficients", "hier_rnn_memory", "lobart_memory",
    # metrics
    "RougeScore", "ngram_recall", "rouge_l", "rouge_suite", "tokenize",
    # corpus
    "Document", "Example", "Vocab", "load_corpus", "make_synthetic_corpus",
    "write_corpus",
    # selection
    "Ranking", "Selection", "aggressive_fraction", "pad_selection", "rank_model",
    "rank_oracle", "rank_trc", "select", "truncate_and_sort",
    # selector model
    "McsConfig", "McsModel", "McsScores", "make_labels", "recall_rate", "train",
]
