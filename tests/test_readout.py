"""The decoder's hierarchical readout op against the composed Tensor-op oracle, and the
mask checks that decoding runs once, before its first step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longspan import autodiff as ad
from longspan import mcs
from longspan.corpus import Document, Vocab
from longspan.errors import DegenerateRowError


def composed_readout(state, sent_keys, word_keys, words, masks, comb, out):
    """The readout as the fifteen tape ops it was before it became one op."""
    sent_mask, word_mask = masks
    d, t, _ = state.shape
    n1, j = word_mask.shape[-2:]
    alpha = ad.masked_softmax(ad.matmul(state, ad.transpose(sent_keys, (0, 2, 1))), sent_mask)
    word_scores = ad.reshape(ad.matmul(state, ad.transpose(word_keys, (0, 2, 1))),
                             (d, t, n1, j))
    beta = ad.masked_softmax(word_scores, word_mask)
    weights = ad.mul(ad.reshape(alpha, (d, t, n1, 1)), beta)
    context = ad.matmul(ad.reshape(weights, (d, t, n1 * j)), words)
    feat = ad.tanh(ad.add(ad.matmul(ad.concat([state, context], axis=2),
                                    ad.transpose(comb[0])), comb[1]))
    return ad.add(ad.matmul(feat, ad.transpose(out[0])), out[1]), alpha


@st.composite
def readout_problems(draw):
    """Random D, T, N1, J, h and V; a document's slots past its sentence count are empty and
    permit their first word alone, as encoded documents' are; sentences may be one word."""
    d, t, n1, j = (draw(st.integers(1, 4)) for _ in range(4))
    h, v = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(1, n1 + 1, d)
    sent_mask = np.arange(n1) < counts[:, None]
    lengths = rng.integers(1, j + 1, (d, n1))
    if draw(st.booleans()):
        lengths[rng.random((d, n1)) < 0.5] = 1
    lengths[~sent_mask] = 1
    word_mask = np.arange(j) < lengths[..., None]
    scale = draw(st.sampled_from([0.5, 2.0, 8.0]))
    tensors = [ad.parameter(rng.normal(scale=scale, size=shape)) for shape in
               [(d, t, h), (d, n1, h), (d, n1 * j, h), (d, n1 * j, h),
                (h, 2 * h), (h,), (v, h), (v,)]]
    return tensors, (sent_mask[:, None], word_mask[:, None]), rng.normal(size=(d, t, v))


def run(op, tensors, masks, probe):
    state, sent_keys, word_keys, words, w_c, b_c, w_o, b_o = tensors
    with ad.Tape() as tape:
        logits, alpha = op(state, sent_keys, word_keys, words, masks, (w_c, b_c), (w_o, b_o))
        tape.backward(ad.tsum(ad.mul(logits, ad.Tensor(probe))))
    grads = [t.grad.copy() for t in tensors]
    tape.zero_grads()
    return logits.data, alpha.data, grads


def fused(state, sent_keys, word_keys, words, masks, comb, out):
    blocked = tuple(ad.blocked_entries(m) for m in masks)
    return ad.hierarchical_readout(state, sent_keys, word_keys, words, blocked, comb, out)


@settings(max_examples=200, deadline=None)
@given(problem=readout_problems())
def test_op_matches_the_composed_oracle(problem):
    tensors, masks, probe = problem
    logits, alpha, grads = run(fused, tensors, masks, probe)
    want_logits, want_alpha, want_grads = run(composed_readout, tensors, masks, probe)
    np.testing.assert_array_equal(logits, want_logits)
    np.testing.assert_array_equal(alpha, want_alpha)
    np.testing.assert_array_equal(alpha[~np.broadcast_to(masks[0], alpha.shape)], 0.0)
    names = ["state", "sent_keys", "word_keys", "words", "comb.w", "comb.b", "out.w", "out.b"]
    for name, got, want in zip(names, grads, want_grads):
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), name
    with ad.Tape() as tape, ad.no_grad():
        state, sent_keys, word_keys, words, w_c, b_c, w_o, b_o = tensors
        out, att = fused(state, sent_keys, word_keys, words, masks, (w_c, b_c), (w_o, b_o))
    assert len(tape) == 0 and not out.requires_grad
    np.testing.assert_array_equal(out.data, want_logits)
    np.testing.assert_array_equal(att.data, want_alpha)


def test_op_records_one_tape_entry():
    rng = np.random.default_rng(0)
    tensors = [ad.parameter(rng.normal(size=shape)) for shape in
               [(2, 3, 4), (2, 2, 4), (2, 6, 4), (2, 6, 4), (4, 8), (4,), (5, 4), (5,)]]
    masks = (np.ones((2, 1, 2), bool), np.ones((2, 1, 2, 3), bool))
    with ad.Tape() as tape:
        fused(*tensors[:4], masks, tuple(tensors[4:6]), tuple(tensors[6:]))
    assert len(tape) == 1


# ---------------------------------------------------------------------------
# a memory row that permits no entry
# ---------------------------------------------------------------------------


WORDS = [f"w{i}" for i in range(8)]


@pytest.fixture
def degenerate_model(request, monkeypatch):
    """A model whose encode leaves one sentence (or one document) with no permitted entry."""
    vocab = Vocab(WORDS)
    config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=6,
                           word_layers=1, sent_layers=1, dropout=0.0)
    model = mcs.McsModel.init(config, vocab, seed=1)
    encode = model.encode

    def broken(*docs, **kwargs):
        enc = encode(*docs, **kwargs)
        if request.param == "word":
            enc.slot_word_mask[-1, 1] = False
        else:
            enc.sent_mask[-1] = False
        return enc

    monkeypatch.setattr(model, "encode", broken)
    return model


DOC = Document([["w1", "w2", "w3"], ["w4"], ["w5", "w6"]])


@pytest.mark.parametrize("degenerate_model", ["word", "sentence"], indirect=True)
def test_teacher_forcing_refuses_a_row_with_no_permitted_entry(degenerate_model):
    with pytest.raises(DegenerateRowError, match="no permitted entry"):
        degenerate_model.mcs_loss(DOC, ["w1", "w2"], None, gamma=0.0)


@pytest.mark.parametrize("degenerate_model", ["word", "sentence"], indirect=True)
def test_inference_refuses_a_row_with_no_permitted_entry(degenerate_model):
    with pytest.raises(DegenerateRowError, match="no permitted entry"):
        degenerate_model.inference_scores(Document([["w7"]]), DOC)
