"""Seeded inputs for the benchmark, made apart from the program.

The program only ever sees the files written from these records, so a
change to ``longspan.corpus.make_synthetic_corpus`` cannot change a
workload.  Document and sentence *shapes* are fixed tables; the seed
chooses the words, the planted sentences and the order.  Every seed
therefore asks for the same amount of work, which keeps run-to-run
spread down to the machine's own noise.

Relevant sentences carry a run of consecutive topic words that the
reference repeats, while all other words come from a disjoint filler
vocabulary, so bigram recall against the reference is positive exactly
on the planted sentences (unless a run was clipped away by a word limit).
"""

from __future__ import annotations

import json

import numpy as np

FILLER = [f"w{i:02d}" for i in range(40)]
TOPIC = [f"t{i:02d}" for i in range(24)]
RUN = 3  # topic words planted per relevant sentence


def _doc(rng, doc_id, lengths, n_relevant, ref_extra=0):
    """One record with ``len(lengths)`` sentences of the given word counts."""
    n = len(lengths)
    relevant = set(rng.choice(n, size=min(n_relevant, n), replace=False).tolist())
    sentences, reference = [], []
    for i, length in enumerate(lengths):
        words = [FILLER[j] for j in rng.integers(0, len(FILLER), size=length)]
        if i in relevant:
            start = int(rng.integers(0, len(TOPIC) - RUN))
            run = TOPIC[start:start + RUN]
            pos = int(rng.integers(0, length - RUN + 1))
            words[pos:pos + RUN] = run
            reference.extend(run)
        sentences.append(words)
    # reference-only words dilute recall the way a real abstract does
    reference.extend(f"r{int(j):03d}" for j in rng.integers(0, 200, size=ref_extra))
    return {"id": doc_id, "sentences": sentences, "reference": " ".join(reference)}


def _lengths(n_sentences, lo, hi, offset):
    """Fixed word counts cycling through [lo, hi]."""
    span = hi - lo + 1
    return [lo + (offset * 7 + i * 3) % span for i in range(n_sentences)]


def selector_corpora(seed, n_train, n_heldout, n_long, max_sentences, word_range):
    """Training docs that fit ``max_sentences``; held-out docs of which
    exactly ``n_long`` have more sentences than that."""
    rng = np.random.default_rng([seed, 1])
    lo, hi = word_range
    train = []
    for d in range(n_train):
        n = max_sentences - 3 + d % 4
        train.append(_doc(rng, f"tr{d:03d}", _lengths(n, lo, hi, d), 2 + d % 2))
    long_ids = set(rng.choice(n_heldout, size=n_long, replace=False).tolist())
    heldout, seen = [], {True: 0, False: 0}
    for d in range(n_heldout):
        # lengths cycle within the long and the short documents apart, so the
        # total number of sentences does not depend on which documents are long
        long, k = d in long_ids, seen[d in long_ids]
        seen[long] += 1
        n = max_sentences + 1 + k % 4 if long else max_sentences - 3 + k % 4
        heldout.append(_doc(rng, f"ho{d:03d}", _lengths(n, lo, hi, d + 50), 2 + d % 2))
    order = rng.permutation(len(train))
    return [train[i] for i in order], heldout


def oracle_corpus(seed, n_docs, n_sentences, word_range, n_relevant, ref_extra):
    """Long documents with references of about ``RUN * n_relevant + ref_extra`` tokens."""
    rng = np.random.default_rng([seed, 2])
    lo, hi = word_range
    return [_doc(rng, f"lg{d:03d}", _lengths(n_sentences, lo, hi, d), n_relevant, ref_extra)
            for d in range(n_docs)]


def token_ids(seed, n, vocab, stream):
    """Seeded token ids in [3, vocab) (ids 0-2 are the model's specials)."""
    rng = np.random.default_rng([seed, 3, stream])
    return rng.integers(3, vocab, size=n)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
