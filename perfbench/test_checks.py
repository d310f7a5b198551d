"""Hand-worked cases for the benchmark's reference computations.

    python3 -m pytest perfbench/test_checks.py -q

Each checker gets cases it must accept and cases it must reject, so a
checker that accepts everything fails here.
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracing import Spans  # noqa: E402

# -- n-grams, LCS, ROUGE --------------------------------------------------------


def test_lcs_classic_cases():
    assert checks.lcs_len(list("abcbdab"), list("bdcaba")) == 4
    assert checks.lcs_len(list("abc"), list("abc")) == 3
    assert checks.lcs_len(list("abc"), list("xyz")) == 0
    assert checks.lcs_len([], list("abc")) == 0
    assert checks.lcs_len(list("aaaa"), list("aa")) == 2


def test_lcs_matches_a_plain_dynamic_program():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.integers(0, 4, size=rng.integers(0, 12)).tolist()
        b = rng.integers(0, 4, size=rng.integers(0, 12)).tolist()
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                table[i + 1][j + 1] = (table[i][j] + 1 if x == y
                                       else max(table[i][j + 1], table[i + 1][j]))
        assert checks.lcs_len(a, b) == table[-1][-1]


def test_rouge_hand_worked():
    cand = "the cat sat on the mat".split()
    ref = "the cat is on the mat".split()
    scores = checks.rouge(cand, ref)
    assert scores["r1"] == pytest.approx((5 / 6, 5 / 6))      # the x2, cat, on, mat
    assert scores["r2"] == pytest.approx((0.6, 0.6))          # the cat, on the, the mat
    assert scores["rl"] == pytest.approx((5 / 6, 5 / 6))      # the cat on the mat
    assert checks.bigram_recall("a b c".split(), "b c d".split()) == 0.5
    assert checks.bigram_recall(["a"], "a b".split()) == 0.0


def test_rouge_report_accepts_the_true_means_and_rejects_others():
    pairs = [("the cat sat on the mat".split(), "the cat is on the mat".split()),
             ("a b".split(), "c d".split())]
    report = {"documents": 2,
              "r1": {"f1": 5 / 12, "recall": 5 / 12},
              "r2": {"f1": 0.3, "recall": 0.3},
              "rl": {"f1": 5 / 12, "recall": 5 / 12}}
    checks.check_rouge_report(report, pairs)
    with pytest.raises(CheckFailed):
        checks.check_rouge_report(dict(report, rl={"f1": 0.5, "recall": 5 / 12}), pairs)
    with pytest.raises(CheckFailed):
        checks.check_rouge_report(dict(report, documents=3), pairs)


# -- rank normalisation and the greedy walk ----------------------------------------------


def test_rank_normalize_hand_worked():
    assert checks.rank_normalize([0.2, 0.9, 0.5]) == [0.0, 1.0, 0.5]
    assert checks.rank_normalize([1.0, 1.0]) == [1.0, 0.0]     # tie to the smaller index
    assert checks.rank_normalize([3.0]) == [1.0]


def test_fused_check():
    rows = [{"id": "d", "sentence_index": i, "z_hat": z, "attn_mass": a, "fused": f}
            for i, (z, a, f) in enumerate([(0.2, 3.0, 1.0), (0.9, 1.0, 1.0), (0.5, 2.0, 1.0)])]
    checks.check_fused(rows)
    rows[2]["fused"] = 0.6
    with pytest.raises(CheckFailed):
        checks.check_fused(rows)


def test_greedy_walk_stops_at_first_overflow():
    lengths = [5, 3, 4, 2]
    # admits 2 (4 words) and 0 (9), then 1 would make 12: stop, no skip to 3
    assert checks.greedy_walk([2, 0, 1, 3], lengths, 10) == ([0, 2], 9, None)
    assert checks.greedy_walk([3, 1], lengths, 10) == ([1, 3], 5, None)
    assert checks.greedy_walk([], lengths, 10) == ([], 0, None)
    # an oversized first sentence is admitted cut to the budget
    assert checks.greedy_walk([0, 1], [12, 3], 10) == ([0], 10, 10)


def test_selection_check_rejects_overflow_and_skip_ahead():
    lengths = [5, 3, 4, 2]
    good = {"id": "d", "kept_indices": [0, 2], "words_used": 9}
    checks.check_selection(good, lengths, 10, ([0, 2], 9, None))
    overflow = {"id": "d", "kept_indices": [0, 1, 2], "words_used": 12}
    with pytest.raises(CheckFailed, match="overflow"):
        checks.check_selection(overflow, lengths, 10)
    miscounted = {"id": "d", "kept_indices": [0, 2], "words_used": 8}
    with pytest.raises(CheckFailed):
        checks.check_selection(miscounted, lengths, 10)
    skip_ahead = {"id": "d", "kept_indices": [0, 2, 3], "words_used": 11}
    want = checks.greedy_walk([2, 0, 1, 3], lengths, 11)
    assert want == ([0, 2], 9, None)
    with pytest.raises(CheckFailed, match="walk gives"):
        checks.check_selection(skip_ahead, lengths, 11, want)
    unordered = {"id": "d", "kept_indices": [2, 0], "words_used": 9}
    with pytest.raises(CheckFailed):
        checks.check_selection(unordered, lengths, 10)
    cut_that_fits = {"id": "d", "kept_indices": [1], "words_used": 3, "first_sentence_cut": 3}
    with pytest.raises(CheckFailed):
        checks.check_selection(cut_that_fits, lengths, 10)


def test_random_recall_limits():
    lengths, positive = [[4, 4, 4]], [{1}]
    assert checks.random_recall(lengths, positive, 12, 20, seed=0) == 1.0
    # every sentence overflows: the first-ranked one is kept, so recall = P(first is 1)
    assert 0.2 < checks.random_recall(lengths, positive, 2, 600, seed=0) < 0.46


# -- banded attention ------------------------------------------------------------------------


def band_uniform(n, window):
    half = window // 2
    w = np.zeros((1, n, n))
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        w[0, i, lo:hi] = 1.0 / (hi - lo)
    return w


def test_attention_map_check():
    w = band_uniform(5, 3)
    assert w[0, 0].tolist() == [0.5, 0.5, 0.0, 0.0, 0.0]
    checks.check_attention_map(w, 3)
    checks.check_attention_map(w, "full")
    leaky = w.copy()
    leaky[0, 2] = [0.1, 0.3, 0.3, 0.2, 0.1]       # sums to 1, mass outside |i - j| <= 1
    with pytest.raises(CheckFailed, match="outside the band"):
        checks.check_attention_map(leaky, 3)
    checks.check_attention_map(leaky, "full")
    unnormalised = w.copy()
    unnormalised[0, 4, 4] += 1e-6
    with pytest.raises(CheckFailed, match="sums"):
        checks.check_attention_map(unnormalised, 3)


def test_positions_tile_copy_then_flip():
    base = np.array([[0.0], [1.0]])
    assert checks.positions(base, 5)[:, 0].tolist() == [0.0, 1.0, 1.0, 0.0, 0.0]


def toy_params(embed, wq, wk):
    d = embed.shape[1]
    return {"embed": embed, "pos_enc": np.zeros((embed.shape[0], d)),
            "enc.0.attn.wq": wq, "enc.0.attn.bq": np.zeros(d),
            "enc.0.attn.wk": wk, "enc.0.attn.bk": np.zeros(d)}


def test_attention_rows_hand_worked():
    embed = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    params = toy_params(embed, np.eye(2), np.eye(2))
    rows = checks.attention_rows(params, [0, 1, 2], n_heads=1, window="full", rows=[0])
    # scores of row 0: [1, 0, 1] / sqrt(2)
    e = math.exp(1 / math.sqrt(2))
    assert rows[0, 0].tolist() == pytest.approx([e / (2 * e + 1), 1 / (2 * e + 1), e / (2 * e + 1)])
    # the band W=1 keeps only the diagonal
    rows = checks.attention_rows(params, [0, 1, 2], n_heads=1, window=1, rows=[0, 2])
    assert rows[0].tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    # zero queries give uniform rows over the band
    zero = toy_params(np.ones((5, 2)), np.zeros((2, 2)), np.eye(2))
    rows = checks.attention_rows(zero, [0, 1, 2, 3, 4], n_heads=2, window=3, rows=[0, 2])
    assert rows[1].tolist() == [[0.5, 0.5, 0, 0, 0], [0, 1 / 3, 1 / 3, 1 / 3, 0]]


def test_attention_rows_check_rejects_a_perturbed_map():
    embed = np.random.default_rng(1).normal(size=(6, 4))
    params = toy_params(embed, np.eye(4), np.eye(4))
    tokens = [0, 1, 2, 3, 4, 5]
    rows = [0, 3, 5]
    want = checks.attention_rows(params, tokens, 2, 3, list(range(6)))
    checks.check_attention_rows(want, params, tokens, 2, 3, rows)
    bad = want.copy()
    bad[1, 3, 2:5] = bad[1, 3, [4, 2, 3]]     # same row sum, wrong order
    with pytest.raises(CheckFailed):
        checks.check_attention_rows(bad, params, tokens, 2, 3, rows)


def test_attention_rows_agree_with_the_package():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    attention = pytest.importorskip("longspan.attention")
    for window in (5, "full"):
        config = attention.ToyModelConfig(window=window, max_src=48, pos_base_len=16)
        model = attention.ToySeq2Seq.init(config, seed=3)
        tokens = np.arange(40) % 97 + 3
        _, maps = model.encoder_forward(tokens)
        params = {k: t.data for k, t in model.parameters().items()}
        checks.check_attention_map(maps[0].data, window)
        checks.check_attention_rows(maps[0].data, params, tokens, config.n_heads, window,
                                    [0, 17, 39])


# -- span self times --------------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", 0.0, 1.0, None, "score", None],
             ["mcs.encode", 0.1, 0.4, 0, "score", None],
             ["autodiff.gru_cell", 0.2, 0.3, 1, "score", None],
             ["mcs.encode", 0.5, 0.6, 0, "score", None]]
    q = Spans(spans)
    assert q.self_ms("cli.main") == pytest.approx(600.0)
    assert q.self_ms("mcs.encode") == pytest.approx(300.0)
    assert q.total_ms("mcs.encode", ("score",)) == pytest.approx(400.0)
    assert q.total_ms("mcs.encode", ("select",)) == 0.0
    assert q.minus_child_ms("cli.main", "mcs.encode") == pytest.approx(600.0)
