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
from typing import Sequence

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


def _clipped_matches(candidate: TokenSeq, reference: TokenSeq, n: int) -> tuple[int, int, int]:
    cand = ngram_counts(candidate, n)
    ref = ngram_counts(reference, n)
    matched = sum(min(count, ref[gram]) for gram, count in cand.items())
    return matched, sum(cand.values()), sum(ref.values())


def ngram_recall(candidate: TokenSeq, reference: TokenSeq, n: int) -> float:
    """Clipped n-gram matches over reference n-gram count (0 if reference < n tokens)."""
    matched, _, ref_total = _clipped_matches(candidate, reference, n)
    return matched / ref_total if ref_total > 0 else 0.0


def rouge_n(candidate: TokenSeq, reference: TokenSeq, n: int) -> RougeScore:
    matched, cand_total, ref_total = _clipped_matches(candidate, reference, n)
    precision = matched / cand_total if cand_total > 0 else 0.0
    recall = matched / ref_total if ref_total > 0 else 0.0
    return RougeScore.from_pr(precision, recall)


def lcs_length(a: TokenSeq, b: TokenSeq) -> int:
    """Longest common subsequence length by dynamic programming."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


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
