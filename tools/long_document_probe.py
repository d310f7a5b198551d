"""Recall of the trained selector on documents longer than it was trained on.

    python3 tools/long_document_probe.py

Run with the package installed or ``src`` on ``PYTHONPATH``.  For each model seed of
``SEEDS`` it trains a selector on acceptance criterion 7's corpus and settings (16
documents of 6-8 sentences of 4-6 words, ``max_sentences`` 8, ``max_words`` 6, 600 steps,
the training seed being the model seed + 1000).  It then scores a held-out corpus of 24
documents of 16-24 sentences of 4-6 words (seed 77); most of their positive-overlap
sentences lie past sentence 8.  The vocabulary is built over both corpora.

It prints, per seed and as the median over seeds, the percentage of each held-out
document's positive-overlap sentences that a budget of ``BUDGET`` words keeps when the
sentences are ranked by the classifier channel ``z_hat``, the attention channel
``attn_mass``, or their rank fusion, in two cases:

- ``whole``: ``McsModel.inference_scores`` of the whole documents;
- ``clipped``: each document cut to its first ``max_sentences`` sentences of at most
  ``max_words`` words and scored, with every later sentence given 0.0 on both channels,
  so that those rank last in document order.  This is how the selector scored long
  documents before its limits bounded training only.

For reference it also prints the recall of uniformly random rankings and of the label
oracle, which ranks the positive-overlap sentences first.  It prints only and exits 0.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")   # read once, when numpy loads

import numpy as np

from longspan import mcs
from longspan.corpus import Document, Vocab, make_synthetic_corpus
from longspan.selection import oracle_similarities, positive_indices, select

SEEDS = range(40, 48)
BUDGET = 14
CHANNELS = ("classifier", "attention", "fused")
CASES = ("clipped", "whole")


def clipped_scores(model: mcs.McsModel, docs: list[Document]) -> list[mcs.McsScores]:
    """Scores of each document's first ``max_sentences`` sentences of at most ``max_words``
    words, scored as one group, and 0.0 on both channels for every later sentence."""
    cfg = model.config
    cuts = [Document([s[: cfg.max_words] for s in doc.sentences[: cfg.max_sentences]],
                     id=doc.id) for doc in docs]
    scores = []
    for doc, seen in zip(docs, model.inference_scores(*cuts)):
        tail = np.zeros(doc.n_sentences - len(seen.z_hat))
        z_hat = np.concatenate([seen.z_hat, tail])
        attn_mass = np.concatenate([seen.attn_mass, tail])
        scores.append(mcs.McsScores(z_hat, attn_mass,
                                    mcs.rank_normalize(z_hat) + mcs.rank_normalize(attn_mass)))
    return scores


def recall(docs, rankings, positives) -> float:
    """Positive recall (%) of the budget walk over each document's ranking scores."""
    return mcs.positive_recall(
        [select(doc, "model", BUDGET, scorer=lambda d, s=list(map(float, s)): s)
         for doc, s in zip(docs, rankings)], positives)


def channel_recalls(scores: list[mcs.McsScores], docs, positives) -> list[float]:
    return [recall(docs, [getattr(s, field) for s in scores], positives)
            for field in ("z_hat", "attn_mass", "fused")]


def main() -> None:
    train = make_synthetic_corpus(16, seed=41, n_sentences=(6, 8), words_per_sentence=(4, 6))
    held_out = make_synthetic_corpus(24, seed=77, n_sentences=(16, 24),
                                     words_per_sentence=(4, 6))
    vocab = Vocab.build(train + held_out)
    docs = [ex.doc for ex in held_out]
    positives = [positive_indices(oracle_similarities(ex.doc, ex.reference)) for ex in held_out]
    config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=16, hidden_dim=16, word_layers=1,
                           sent_layers=1, dropout=0.0, max_sentences=8, max_words=6,
                           max_target=12)
    print(f"recall (%) of positive-overlap sentences at budget {BUDGET} on {len(docs)} "
          f"held-out documents; trained on {config.max_sentences} sentences of at most "
          f"{config.max_words} words")
    print(f"{'seed':>6}" + "".join(f"{f'{c} {case}':>20}" for c in CHANNELS for case in CASES))
    rows = []
    for seed in SEEDS:
        model = mcs.McsModel.init(config, vocab, seed=seed)
        settings = mcs.TrainSettings(steps=600, batch_size=2, warmup=40, lr_scale=0.05,
                                     seed=seed + 1000, val_fraction=0.15, val_every=100,
                                     patience=5)
        mcs.train(model, train, gamma=0.2, settings=settings)
        clipped = channel_recalls(clipped_scores(model, docs), docs, positives)
        whole = channel_recalls(model.inference_scores(*docs), docs, positives)
        rows.append([value for pair in zip(clipped, whole) for value in pair])
        print(f"{seed:>6}" + "".join(f"{value:>20.1f}" for value in rows[-1]), flush=True)
    print(f"{'median':>6}" + "".join(f"{value:>20.1f}" for value in np.median(rows, axis=0)))
    oracle = recall(docs, [np.isin(np.arange(doc.n_sentences), p) for doc, p in
                           zip(docs, positives)], positives)
    random = mcs.random_selection_recall(held_out, BUDGET, trials=50, seed=6)
    print(f"random rankings: {random:.1f}   label oracle: {oracle:.1f}")


if __name__ == "__main__":
    main()
