"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Published-value tolerances are pinned here and nowhere else.

Known data caveat (criterion 1): the published totals table carries one
entry, (N=8192, W=256) -> 21.1 GiB, that disagrees with the very
coefficients published alongside it by ~0.7 GiB (the formula gives 21.80,
and the neighboring rows 128 -> 19.3 and 512 -> 27.1 bracket that
prediction; the published fit's own RMSE is 0.010).  That single entry is
asserted as a strict expected failure rather than silently widening the
tolerance for the other twelve.
"""

import json
import math
from itertools import product

import numpy as np
import pytest

from longspan import attention, autodiff as ad, costmodel as cm, mcs, metrics
from longspan import selection as sel
from longspan.cli import main as cli_main
from longspan.corpus import Document, Vocab, make_synthetic_corpus, write_corpus

from test_attention import brute_force_mean_distance
from test_autodiff import check_grad_fd
from test_metrics import brute_force_lcs, brute_force_ngram_recall


def ok(criterion: int, text: str) -> None:
    print(f"\nCRITERION {criterion} PASS: {text}")


# -------------------------------------------------------------------------
# 1. cost-model fidelity
# -------------------------------------------------------------------------

PROFILE_TERMS = {"const": 6.05, "per_m": 0.23, "per_n": 0.84,
                 "per_mn": 0.21, "per_m2": 0.02, "per_n2": 1.53}

TABLE_TOTALS = [
    (1024, None, 8.9), (2048, 128, 9.6), (2048, 256, 10.2), (2048, 512, 11.6),
    (2048, 1024, 14.2), (2048, None, 14.5), (4096, 128, 12.8), (4096, 256, 14.1),
    (4096, 512, 16.7), (4096, 1024, 22.0), (8192, 128, 19.3), (8192, 512, 27.1),
]
TABLE_OUTLIER = (8192, 256, 21.1)


def _memory_total(n, window):
    if window is None:
        return cm.bart_memory(n, 144, 1).total
    return cm.lobart_memory(n, 144, window, 1).total


def test_criterion_1_cost_model_fidelity():
    profile = cm.bart_memory(1024, 144, 1)
    for name, published in PROFILE_TERMS.items():
        assert abs(profile.terms[name] - published) <= 0.01, name
    assert abs(profile.total - 8.88) <= 0.05

    for n, window, published in TABLE_TOTALS:
        total = _memory_total(n, window)
        assert abs(total - published) <= 0.15, (n, window, total, published)

    hier = cm.hier_rnn_memory(1000, 50, 1).total
    assert round(hier, 2) == 2.53
    assert abs(hier - 2.5346) < 1e-12

    ratio = cm.breakeven_width(1)
    assert abs(ratio - 0.582) <= 0.001

    ok(1, "profile terms within 0.01 GiB, 12/13 published totals within "
          "0.15 GiB (13th is the documented outlier below), hier point 2.53, "
          f"break-even ratio {ratio:.4f}")


@pytest.mark.xfail(
    strict=True,
    reason="published total 21.1 GiB at (N=8192, W=256) is inconsistent with "
           "the published coefficients (formula: 21.80; neighbors 19.3/27.1 "
           "bracket it); every other entry matches within 0.15 GiB",
)
def test_criterion_1_outlier_table_entry():
    n, window, published = TABLE_OUTLIER
    assert abs(_memory_total(n, window) - published) <= 0.15


# -------------------------------------------------------------------------
# 2. mean-distance fidelity
# -------------------------------------------------------------------------


def test_criterion_2_mean_distance_fidelity():
    n = 1024
    uniform = np.full((n, n), 1.0 / n)
    d_uniform = attention.mean_attention_distance(uniform)
    assert round(d_uniform, 2) == 341.33
    assert abs(d_uniform - (n * n - 1) / (3 * n)) < 1e-9

    assert attention.mean_attention_distance(np.eye(64)) == 0.0

    rng = np.random.default_rng(101)
    for size in (1, 2, 3, 5, 8, 13, 21, 34, 55, 64):
        raw = rng.random((size, size)) + 1e-3
        weights = raw / raw.sum(axis=1, keepdims=True)
        got = attention.mean_attention_distance(weights)
        assert abs(got - brute_force_mean_distance(weights)) < 1e-10
    ok(2, "uniform 341.33 at N=1024, diagonal 0, brute-force agreement to "
          "1e-10 on random maps up to N=64")


# -------------------------------------------------------------------------
# 3. local-attention equivalence and receptive field
# -------------------------------------------------------------------------


def test_criterion_3_mask_equivalence_all_sizes():
    rng = np.random.default_rng(102)
    d_model, heads = 8, 2
    for n in range(1, 65):
        params = attention.AttentionParams.init(d_model, rng)
        q = ad.Tensor(rng.normal(size=(n, d_model)))
        k = ad.Tensor(rng.normal(size=(n, d_model)))
        v = ad.Tensor(rng.normal(size=(n, d_model)))
        full_mask = np.ones((n, n), dtype=bool)
        wide = 2 * n - 1 + int(rng.integers(0, 4))
        local_mask = attention.build_local_mask(n, wide)
        out_full, _ = attention.multi_head_attention(q, k, v, full_mask, params, heads)
        out_local, _ = attention.multi_head_attention(q, k, v, local_mask, params, heads)
        assert np.abs(out_full.data - out_local.data).max() < 1e-9, n
    ok(3, "local == full within 1e-9 for every N in 1..64 with W >= 2N-1")


def test_criterion_3_receptive_field_bitwise():
    rng = np.random.default_rng(103)
    trials = 0
    while trials < 200:
        layers = int(rng.integers(1, 3))
        window = int(rng.choice([3, 5, 7]))
        n = int(rng.integers(6, 20))
        reach = layers * (window // 2)
        if n < reach + 2:
            continue
        cfg = attention.ToyModelConfig(
            vocab=31, d_model=8, n_heads=2, enc_layers=layers, dec_layers=1,
            ffn_dim=12, pos_base_len=8, max_src=24, max_tgt=4, window=window,
        )
        model = attention.ToySeq2Seq.init(cfg, seed=int(rng.integers(0, 10**6)))
        tokens = rng.integers(0, 31, size=n)
        pos = int(rng.integers(0, n))
        candidates = [j for j in range(n) if abs(j - pos) > reach]
        if not candidates:
            continue
        victim = int(rng.choice(candidates))
        perturbed = tokens.copy()
        perturbed[victim] = (perturbed[victim] + 7) % 31
        base, _ = model.encoder_forward(tokens)
        after, _ = model.encoder_forward(perturbed)
        assert np.array_equal(base.data[pos], after.data[pos]), (
            layers, window, n, pos, victim
        )
        assert not np.array_equal(base.data[victim], after.data[victim])
        trials += 1
    ok(3, "receptive-field invariance held bitwise in 200 random perturbation trials")


# -------------------------------------------------------------------------
# 4. gradient suite
# -------------------------------------------------------------------------


def test_criterion_4_gradient_suite():
    rng = np.random.default_rng(104)

    # masked softmax
    mask = attention.build_local_mask(5, 3)
    logits = ad.parameter(rng.normal(size=(5, 5)))
    mix = rng.normal(size=(5, 5))
    check_grad_fd(
        lambda: ad.tsum(ad.mul(ad.masked_softmax(logits, mask), ad.Tensor(mix))),
        [logits], max_coords=5,
    )

    # multi-head attention
    params = attention.AttentionParams.init(8, rng)
    q = ad.parameter(rng.normal(size=(4, 8)))
    kv = ad.Tensor(rng.normal(size=(4, 8)))

    def mha_loss():
        out, _ = attention.multi_head_attention(
            q, kv, kv, attention.build_local_mask(4, 3), params, 2
        )
        return ad.tsum(ad.mul(out, out))

    check_grad_fd(mha_loss, [q, params.wq, params.wk, params.wv, params.wo],
                  max_coords=3)

    # GRU cell
    gru = ad.GruParams.init(3, 4, rng)
    x = ad.parameter(rng.normal(size=3))
    h = ad.parameter(rng.normal(size=4))
    probe = rng.normal(size=4)
    check_grad_fd(lambda: ad.tsum(ad.mul(ad.gru_cell(x, h, gru), ad.Tensor(probe))),
                  [x, h, *gru.tensors()], max_coords=9)

    # 2+2-layer toy seq2seq cross-entropy
    cfg = attention.ToyModelConfig(vocab=13, d_model=8, n_heads=2, enc_layers=2,
                                   dec_layers=2, ffn_dim=12, pos_base_len=8,
                                   max_src=8, max_tgt=6, window=3)
    toy = attention.ToySeq2Seq.init(cfg, seed=105)
    src, tgt = [3, 1, 4, 1, 5], [2, 6, 5]
    toy_probe = [toy.params[k] for k in
                 ("embed", "enc.0.attn.wq", "enc.1.ffn.w2", "dec.0.xattn.wv",
                  "dec.1.attn.wk", "out.w")]
    check_grad_fd(lambda: toy.loss(src, tgt), toy_probe, max_coords=3)

    # mixed selector loss at each mixing weight
    vocab = Vocab([f"w{i}" for i in range(10)])
    config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                           word_layers=1, sent_layers=1, dropout=0.0,
                           max_sentences=6, max_words=5, max_target=6)
    model = mcs.McsModel.init(config, vocab, seed=106)
    doc = Document([["w1", "w2", "w3"], ["w4", "w5"]])
    target = ["w1", "w5"]
    labels = np.array([1.0, 0.0])
    params = model.parameters()
    subset = [params["embed"], params["cls.w"], params["dec.out.w"],
              params["word.0.f.wx"], params["sent.0.b.wh"], params["dec.comb.w"]]
    for gamma in (0.0, 0.2, 1.0):
        check_grad_fd(
            lambda: model.mcs_loss(doc, target, labels, gamma=gamma),
            subset, max_coords=2,
        )
    ok(4, "analytic gradients within 1e-4 of central differences for masked "
          "softmax, multi-head attention, GRU cell, 2+2-layer seq2seq loss, "
          "and the mixed loss at gamma in {0, 0.2, 1}")


# -------------------------------------------------------------------------
# 5. selection correctness
# -------------------------------------------------------------------------


def test_criterion_5_selection_properties_thousand_docs():
    rng = np.random.default_rng(107)
    vocab = [f"v{i}" for i in range(14)]
    methods = [sel.METHOD_TRC, sel.METHOD_ORC_NO_PAD,
               sel.METHOD_ORC_PAD_LEAD, sel.METHOD_ORC_PAD_RAND]
    for trial in range(1000):
        n = int(rng.integers(1, 10))
        doc = Document([
            [vocab[k] for k in rng.integers(0, len(vocab), size=rng.integers(1, 7))]
            for _ in range(n)
        ])
        ref = [vocab[k] for k in rng.integers(0, len(vocab), size=rng.integers(2, 9))]
        budget = int(rng.integers(1, 34))
        method = methods[trial % 4]
        picked = sel.select(doc, method, budget, reference=ref, seed=trial)
        again = sel.select(doc, method, budget, reference=ref, seed=trial)
        assert picked.indices == again.indices
        assert all(b > a for a, b in zip(picked.indices, picked.indices[1:]))
        if picked.first_sentence_cut is None:
            assert picked.words_used <= budget
        else:
            assert picked.words_used == budget
        if method in (sel.METHOD_ORC_PAD_LEAD, sel.METHOD_ORC_PAD_RAND):
            core = sel.select(doc, sel.METHOD_ORC_NO_PAD, budget, reference=ref)
            assert set(picked.indices) >= set(core.indices)
    ok(5, "order preservation, budget compliance, pad-superset, and seeded "
          "determinism over 1000 randomized documents")


def test_criterion_5_oracle_ranking_matches_independent_sort():
    rng = np.random.default_rng(108)
    vocab = [f"v{i}" for i in range(10)]
    for _ in range(200):
        n = int(rng.integers(1, 9))
        doc = Document([
            [vocab[k] for k in rng.integers(0, len(vocab), size=rng.integers(2, 7))]
            for _ in range(n)
        ])
        ref = [vocab[k] for k in rng.integers(0, len(vocab), size=rng.integers(2, 8))]
        sims = [brute_force_ngram_recall(s, ref, 2) for s in doc.sentences]
        expected = [i for i in sorted(range(n), key=lambda i: (-sims[i], i))
                    if sims[i] > 0]
        assert sel.rank_oracle(doc, ref).indices == expected
    ok(5, "oracle ranking equals an independent sort of brute-force bigram recalls")


def test_criterion_5_aggressive_fraction_hand_enumerated():
    # Hand-built corpus: positive sentences are exactly the ones sharing the
    # "t1 t2" bigram; their word totals straddle the budget of 10.
    budget = 10
    docs = []
    positive_totals = []
    for d, sizes in enumerate([(4, 4), (6, 6), (4, 4, 4), (10,), (12,), (3,), (5, 6)]):
        sentences = []
        total = 0
        for length in sizes:
            body = [f"f{d}x{i}" for i in range(length - 2)]
            sentences.append(["t1", "t2"] + body)
            total += length
        sentences.append([f"f{d}pad1", f"f{d}pad2"])  # never overlaps
        docs.append(Document(sentences, id=f"h{d}"))
        positive_totals.append(total)
    from longspan.corpus import Example

    examples = [Example(doc, ["t1", "t2"]) for doc in docs]
    # by hand: selection fills with positive sentences (ties keep original
    # order) and stops at the first overflow; the walk result equals the
    # largest prefix of positive sentences fitting the budget
    expected_aggressive = 0
    for sizes, total in zip([(4, 4), (6, 6), (4, 4, 4), (10,), (12,), (3,), (5, 6)],
                            positive_totals):
        used = 0
        for length in sizes:
            if used + length > budget:
                break
            used += length
        if used == 0:
            used = budget  # oversize rule cuts to exactly the budget
        if used < budget:
            expected_aggressive += 1
    expected = expected_aggressive / len(docs)
    assert sel.aggressive_fraction(examples, budget) == expected
    ok(5, f"aggressive-oracle fraction on the planted corpus equals the "
          f"hand-enumerated {expected:.4f}")


# -------------------------------------------------------------------------
# 6. ROUGE oracle equivalence
# -------------------------------------------------------------------------


def test_criterion_6_rouge_matches_brute_force():
    alphabet = ["a", "b", "c"]
    seqs = [list(p) for ln in range(1, 5) for p in product(alphabet, repeat=ln)]
    for x in seqs:
        for y in seqs:
            assert metrics.lcs_length(x, y) == brute_force_lcs(x, y)
            for n in (1, 2):
                assert metrics.ngram_recall(x, y, n) == pytest.approx(
                    brute_force_ngram_recall(x, y, n)
                )
    rng = np.random.default_rng(109)
    for _ in range(5000):
        x = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(1, 9))]
        y = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(1, 9))]
        lcs = brute_force_lcs(x, y)
        got = metrics.rouge_l(x, y)
        assert got.recall == pytest.approx(lcs / len(y))
        assert got.precision == pytest.approx(lcs / len(x))
        n = int(rng.integers(1, 4))
        assert metrics.ngram_recall(x, y, n) == pytest.approx(
            brute_force_ngram_recall(x, y, n)
        )
    ok(6, "n-gram recall and LCS scores equal brute-force enumeration on all "
          "3-symbol pairs up to length 4 and 5000 random pairs up to length 8")


# -------------------------------------------------------------------------
# 7. selector behavior after toy training
# -------------------------------------------------------------------------


def test_criterion_7_trained_selector_beats_random_baseline():
    examples = make_synthetic_corpus(16, seed=41, n_sentences=(6, 8),
                                     words_per_sentence=(4, 6))
    budget = 14
    vocab = Vocab.build(examples)
    config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=16, hidden_dim=16,
                           word_layers=1, sent_layers=1, dropout=0.0,
                           max_sentences=8, max_words=6, max_target=12)
    model = mcs.McsModel.init(config, vocab, seed=42)
    settings = mcs.TrainSettings(steps=600, batch_size=2, warmup=40,
                                 lr_scale=0.05, seed=5, val_fraction=0.15,
                                 val_every=100, patience=5)
    result = mcs.train(model, examples, gamma=0.2, settings=settings)
    assert result.steps_run <= 2000

    selections = [sel.select(ex.doc, "model", budget, scorer=model.fused_scores)
                  for ex in examples]
    trained = mcs.recall_rate(selections, [ex.doc for ex in examples],
                              [ex.reference for ex in examples])
    baseline = mcs.random_selection_recall(examples, budget, trials=50, seed=6)
    assert trained >= 1.5 * baseline, (trained, baseline)
    ok(7, f"fused-ranking recall {trained:.1f}% >= 1.5x the {baseline:.1f}% "
          f"random baseline after {result.steps_run} toy training steps")


def test_criterion_7_fusion_rank_invariance():
    rng = np.random.default_rng(110)
    for _ in range(100):
        size = int(rng.integers(1, 10))
        a, b = rng.normal(size=size), rng.normal(size=size)
        fused = mcs.rank_normalize(a) + mcs.rank_normalize(b)
        # strictly increasing transforms of either channel
        warped = mcs.rank_normalize(np.exp(a) + 5) + mcs.rank_normalize(b * 3 - 1)
        order = sorted(range(size), key=lambda i: (-fused[i], i))
        order_warped = sorted(range(size), key=lambda i: (-warped[i], i))
        assert order == order_warped
    ok(7, "fusion ranking invariant under strictly increasing channel transforms")


def test_criterion_7_lr_schedule_continuity_exact():
    for warmup in (4, 10, 100, 777, 10000, 20000):
        at_warmup = mcs.lr_schedule(warmup, warmup)
        decay_arm = 0.002 * warmup**-0.5
        assert at_warmup == decay_arm
    ok(7, "warmup and decay arms agree bit-exactly at step == warmup")


# -------------------------------------------------------------------------
# 8. end-to-end reproducibility
# -------------------------------------------------------------------------


def test_criterion_8_pipeline_byte_identical(tmp_path, capsys):
    def pipeline(stem: str) -> list[bytes]:
        corpus = tmp_path / f"{stem}.jsonl"
        ckpt = tmp_path / f"{stem}.lsnt"
        scores = tmp_path / f"{stem}.scores.jsonl"
        chosen = tmp_path / f"{stem}.sel.jsonl"
        assert cli_main(["make-corpus", "--output", str(corpus), "--docs", "8",
                         "--seed", "31", "--min-sentences", "4",
                         "--max-sentences", "6", "--min-words", "3",
                         "--max-words", "5"]) == 0
        assert cli_main(["train-mcs", "--input", str(corpus), "--output", str(ckpt),
                         "--steps", "60", "--warmup", "15", "--lr-scale", "0.05",
                         "--seed", "2", "--embed-dim", "8", "--hidden-dim", "8",
                         "--word-layers", "1", "--sent-layers", "1",
                         "--dropout", "0.1", "--max-sentences", "8",
                         "--max-words", "6", "--max-target", "8",
                         "--val-fraction", "0.2", "--val-every", "30"]) == 0
        assert cli_main(["score", "--input", str(corpus), "--checkpoint",
                         str(ckpt), "--output", str(scores)]) == 0
        assert cli_main(["select", "--input", str(corpus), "--output", str(chosen),
                         "--method", "mcs", "--budget", "10",
                         "--checkpoint", str(ckpt), "--seed", "4"]) == 0
        return [p.read_bytes() for p in
                (corpus, ckpt, scores, chosen,
                 tmp_path / f"{stem}.lsnt.losses.jsonl",
                 tmp_path / f"{stem}.sel.jsonl.report.json")]

    first = pipeline("r1")
    second = pipeline("r2")
    capsys.readouterr()
    assert first == second
    ok(8, "two seeded end-to-end runs produced byte-identical corpus, "
          "checkpoint, score, selection, curve, and report files")
