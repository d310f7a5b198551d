"""N-gram overlap and longest-common-subsequence scoring.

Tokenization is deliberately simple and deterministic: lowercase, strip
punctuation down to alphanumeric runs, split on whitespace.  No stemming
or stopword handling, so absolute scores are comparable only between
texts processed by this module.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError

_WORD_RE = re.compile(r"[a-z0-9]+")

TokenSeq = Sequence[str]


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens with punctuation stripped."""
    return _WORD_RE.findall(text.lower())


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "RougeScore":
        denom = precision + recall
        f1 = 2.0 * precision * recall / denom if denom > 0 else 0.0
        return cls(precision, recall, f1)


def ngram_counts(tokens: TokenSeq, n: int) -> Counter:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _clipped_matches(candidate: TokenSeq, ref: Counter, n: int) -> int:
    """Candidate n-grams found in the reference counts ``ref``, each clipped to its count."""
    hits = list(filter(ref.__contains__, zip(*[candidate[i:] for i in range(n)])))
    return sum(min(count, ref[gram]) for gram, count in Counter(hits).items()) if hits else 0


def ngram_recalls(candidates: Iterable[TokenSeq], reference: TokenSeq, n: int) -> list[float]:
    """Each candidate's clipped n-gram matches over the reference's n-gram count, counted
    once for all of them (every recall is 0 if the reference has fewer than ``n`` tokens)."""
    ref = ngram_counts(reference, n)
    ref_total = max(len(reference) - n + 1, 0)
    return [_clipped_matches(c, ref, n) / ref_total if ref_total > 0 else 0.0
            for c in candidates]


def ngram_recall(candidate: TokenSeq, reference: TokenSeq, n: int) -> float:
    """:func:`ngram_recalls` of one candidate."""
    return ngram_recalls([candidate], reference, n)[0]


def rouge_n(candidate: TokenSeq, reference: TokenSeq, n: int) -> RougeScore:
    matched = _clipped_matches(candidate, ngram_counts(reference, n), n)
    cand_total, ref_total = max(len(candidate) - n + 1, 0), max(len(reference) - n + 1, 0)
    precision = matched / cand_total if cand_total > 0 else 0.0
    recall = matched / ref_total if ref_total > 0 else 0.0
    return RougeScore.from_pr(precision, recall)


def lcs_length(a: TokenSeq, b: TokenSeq) -> int:
    """Longest common subsequence length, bit-parallel over ``b``.

    The bit-vector recurrence of Allison & Dix (1986) and Hyyroe (2004):
    after each token of ``a``, bit j of ``v`` is 0 exactly where the LCS
    of the tokens read so far with ``b[: j + 1]`` is one longer than with
    ``b[:j]``, so the length is the count of 0 bits.  ``& full`` drops the
    carry out of bit ``len(b) - 1``.
    """
    masks: dict = {}
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        m = masks.get(tok)
        if m:  # a token absent from b leaves v unchanged
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: TokenSeq, reference: TokenSeq) -> RougeScore:
    lcs = lcs_length(candidate, reference)
    precision = lcs / len(candidate) if candidate else 0.0
    recall = lcs / len(reference) if reference else 0.0
    return RougeScore.from_pr(precision, recall)


def rouge_suite(candidate: TokenSeq, reference: TokenSeq) -> dict[str, RougeScore]:
    """R1 / R2 / RL in one pass."""
    return {
        "r1": rouge_n(candidate, reference, 1),
        "r2": rouge_n(candidate, reference, 2),
        "rl": rouge_l(candidate, reference),
    }
