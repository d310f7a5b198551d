"""Sentence ranking and budgeted selection.

A selection pipeline re-ranks sentences, admits them greedily under a
word budget, then restores original document order.  Ranking families:

* ``trc``          -- original position order (plain truncation)
* ``model``        -- descending scorer output
* ``orc-no-pad``   -- descending bigram recall against the reference,
  keeping positive-overlap sentences only
* ``orc-pad-lead`` / ``orc-pad-rand`` -- the positive-overlap core padded
  back up to the budget with leading / seeded-random unselected sentences

Budget semantics: a sentence is admitted while the running total stays
<= budget, and the walk stops at the first sentence that would overflow
(no skip-ahead, which would silently re-rank).  If the first-ranked
sentence alone exceeds the budget it is admitted cut to the first
``budget`` words so the downstream model always sees input.

Ties everywhere break toward the smaller original index; all indices are
0-based.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import Document, Example
from .errors import DomainError, InputError, ScorerError
from .metrics import ngram_recall, ngram_recalls  # ngram_recall: wrapped by perfbench/tracing.py

log = logging.getLogger(__name__)

METHOD_TRC = "trc"
METHOD_MODEL = "model"
METHOD_ORC_NO_PAD = "orc-no-pad"
METHOD_ORC_PAD_LEAD = "orc-pad-lead"
METHOD_ORC_PAD_RAND = "orc-pad-rand"


@dataclass
class Ranking:
    """Sentence indices in rank order."""

    indices: list[int]

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise DomainError("ranking contains duplicate sentence indices")


@dataclass
class Selection:
    """Retained sentence indices in original order under a word budget.

    ``first_sentence_cut`` is set only in the oversized-first-sentence
    case and gives the word count kept from that single sentence.
    """

    indices: list[int]
    words_used: int
    first_sentence_cut: int | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise DomainError("selection indices must be strictly increasing")

    def to_record(self, doc: Document) -> dict:
        record = {"id": doc.id, "kept_indices": list(self.indices),
                  "words_used": self.words_used}
        if self.first_sentence_cut is not None:
            record["first_sentence_cut"] = self.first_sentence_cut
        return record


def rank_trc(doc: Document) -> Ranking:
    """Original position order."""
    return Ranking(list(range(doc.n_sentences)))


def descending_order(scores: Sequence[float]) -> list[int]:
    """Indices by descending score; ties favor the smaller index."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def oracle_similarities(doc: Document, reference: Sequence[str]) -> list[float]:
    """Bigram recall of each sentence against the reference summary, in one pass."""
    if not reference:
        raise InputError("oracle ranking requires a non-empty reference")
    return ngram_recalls(doc.sentences, reference, 2)


def positive_indices(similarities: Sequence[float]) -> list[int]:
    """The sentences that overlap the reference, in document order."""
    return [i for i, sim in enumerate(similarities) if sim > 0.0]


def oracle_order(similarities: Sequence[float]) -> list[int]:
    """The positive sentences by descending similarity; a stable sort keeps ties in index order."""
    return sorted(positive_indices(similarities), key=lambda i: -similarities[i])


def rank_oracle(doc: Document, reference: Sequence[str]) -> Ranking:
    """Descending similarity to the reference over the sentences that overlap it."""
    return Ranking(oracle_order(oracle_similarities(doc, reference)))


def rank_model(doc: Document, scorer: Callable[[Document], Sequence[float]]) -> Ranking:
    """Descending scorer output; scores must be finite."""
    scores = list(scorer(doc))
    if len(scores) != doc.n_sentences:
        raise ScorerError(
            f"scorer returned {len(scores)} scores for {doc.n_sentences} sentences"
        )
    if not all(np.isfinite(s) for s in scores):
        raise ScorerError("scorer returned a non-finite score")
    return Ranking(descending_order(scores))


def _admit(doc: Document, candidates: Iterable[int], used: int,
           budget: int) -> tuple[list[int], int]:
    """Admit candidates while the word total stays <= budget; stop at the first overflow."""
    admitted = []
    for idx in candidates:
        words = len(doc.sentences[idx])
        if used + words > budget:
            break
        admitted.append(idx)
        used += words
    return admitted, used


def truncate_and_sort(doc: Document, ranking: Ranking, budget: int) -> Selection:
    """Admit ranked sentences while the word total fits, then restore order."""
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    admitted, used = _admit(doc, ranking.indices, 0, budget)
    if not admitted and ranking.indices:
        first = ranking.indices[0]
        return Selection([first], budget, first_sentence_cut=budget)
    if not admitted:
        log.warning("selection for %s is empty (empty ranking)", doc.id)
    return Selection(sorted(admitted), used)


def pad_selection(core: Selection, doc: Document, mode: str, budget: int,
                  seed: int | None = None) -> Selection:
    """Refill a selection up to the budget with unselected sentences.

    ``mode='lead'`` walks unselected sentences in document order;
    ``mode='rand'`` walks a seeded uniform shuffle.  The same
    stop-at-first-overflow admission applies.
    """
    if mode not in ("lead", "rand"):
        raise DomainError(f"pad mode must be 'lead' or 'rand', got {mode!r}")
    if core.words_used > budget:
        raise DomainError("core selection already exceeds the budget")
    if core.first_sentence_cut is not None:
        return Selection(list(core.indices), core.words_used,
                         first_sentence_cut=core.first_sentence_cut)
    selected = set(core.indices)
    pool = [i for i in range(doc.n_sentences) if i not in selected]
    if mode == "rand":
        rng = np.random.default_rng(seed)
        pool = [pool[j] for j in rng.permutation(len(pool))]
    extra, used = _admit(doc, pool, core.words_used, budget)
    return Selection(sorted(core.indices + extra), used)


def select(doc: Document, method: str, budget: int,
           reference: Sequence[str] | None = None,
           scorer: Callable[[Document], Sequence[float]] | None = None,
           seed: int | None = None,
           similarities: Sequence[float] | None = None) -> Selection:
    """One-call pipeline: rank by ``method``, truncate, restore order.  An oracle method
    ranks by ``similarities``, the caller's :func:`oracle_similarities`, if given."""
    if method == METHOD_TRC:
        ranking = rank_trc(doc)
    elif method == METHOD_MODEL:
        if scorer is None:
            raise DomainError("model selection requires a scorer")
        ranking = rank_model(doc, scorer)
    elif method in (METHOD_ORC_NO_PAD, METHOD_ORC_PAD_LEAD, METHOD_ORC_PAD_RAND):
        if reference is None:
            raise InputError("oracle selection requires a reference")
        ranking = Ranking(oracle_order(
            oracle_similarities(doc, reference) if similarities is None else similarities))
    else:
        raise DomainError(f"unknown selection method {method!r}")
    selection = truncate_and_sort(doc, ranking, budget)
    if method == METHOD_ORC_PAD_LEAD:
        selection = pad_selection(selection, doc, "lead", budget)
    elif method == METHOD_ORC_PAD_RAND:
        selection = pad_selection(selection, doc, "rand", budget, seed=seed)
    return selection


def aggressive_fraction(examples: Iterable[Example], budget: int) -> float:
    """Fraction of documents whose positive-overlap selection underfills the budget.

    Documents without a reference are skipped with a warning and excluded
    from the denominator.
    """
    scored = []
    for ex in examples:
        if ex.reference is None:
            log.warning("document %s has no reference; skipped", ex.doc.id)
            continue
        scored.append((ex.doc, oracle_similarities(ex.doc, ex.reference)))
    return underfilled_fraction(scored, budget)


def underfilled_fraction(scored: Sequence[tuple[Document, Sequence[float]]], budget: int) -> float:
    """:func:`aggressive_fraction` of (document, :func:`oracle_similarities`) pairs."""
    if not scored:
        raise InputError("no documents with references to evaluate")
    return sum(truncate_and_sort(doc, Ranking(oracle_order(sims)), budget).words_used < budget
               for doc, sims in scored) / len(scored)
