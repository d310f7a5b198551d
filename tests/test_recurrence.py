"""Whole-sequence GRU op and batched beam search against their step-by-step oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longspan import autodiff as ad
from longspan import mcs
from longspan.corpus import Document, Vocab
from longspan.errors import DimensionError, DomainError

from test_autodiff import check_grad_fd, rel_err

# ---------------------------------------------------------------------------
# gru_sequence
# ---------------------------------------------------------------------------


def stepwise_gru(x, mask, params, reverse):
    """One gru_cell per step with a masked blend: the composition gru_sequence replaced."""
    rows, steps, _ = x.shape
    keep = mask.astype(np.float64)[:, :, None]
    h = ad.Tensor(np.zeros((rows, params.d_h)))
    per_step = {}
    for j in (range(steps - 1, -1, -1) if reverse else range(steps)):
        h_new = ad.gru_cell(ad.getitem(x, (slice(None), j)), h, params)
        h = ad.add(ad.mul(ad.Tensor(keep[:, j]), h_new), ad.mul(ad.Tensor(1.0 - keep[:, j]), h))
        per_step[j] = h
    states = ad.concat([ad.reshape(per_step[j], (rows, 1, params.d_h)) for j in range(steps)],
                       axis=1)
    return states, h


@st.composite
def gru_problems(draw):
    rows, steps = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    d_in, d_h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # ragged: each row has its own valid steps, including none and all
    mask = rng.random((rows, steps)) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    params = ad.GruParams.init(d_in, d_h, rng, scale=1.0)
    for t in params.tensors():
        t.data[:] = rng.normal(scale=0.6, size=t.shape)
    x = ad.parameter(rng.normal(size=(rows, steps, d_in)))
    probes = (rng.normal(size=(rows, steps, d_h)), rng.normal(size=(rows, d_h)))
    return x, mask, params, probes


def probe_loss(states, final, probes):
    return ad.add(ad.tsum(ad.mul(states, ad.Tensor(probes[0]))),
                  ad.tsum(ad.mul(final, ad.Tensor(probes[1]))))


def grads_of(run, x, params, probes):
    tensors = [x, *params.tensors()]
    with ad.Tape() as tape:
        states, final = run()
        tape.backward(probe_loss(states, final, probes))
    grads = [t.grad.copy() for t in tensors]
    tape.zero_grads()
    return states.data, final.data, grads


class TestGruSequence:
    @settings(max_examples=60, deadline=None)
    @given(problem=gru_problems(), reverse=st.booleans())
    def test_matches_stepwise_composition(self, problem, reverse):
        x, mask, params, probes = problem
        fused = grads_of(lambda: ad.gru_sequence(x, mask, params, reverse=reverse),
                         x, params, probes)
        oracle = grads_of(lambda: stepwise_gru(x, mask, params, reverse), x, params, probes)
        assert np.abs(fused[0] - oracle[0]).max() <= 1e-12
        assert np.abs(fused[1] - oracle[1]).max() <= 1e-12
        for got, want in zip(fused[2], oracle[2]):
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradient_matches_finite_differences(self, reverse):
        for seed in range(6):
            rng = np.random.default_rng(4000 + seed)
            mask = np.array([[True, True, True, False], [True, False, False, False],
                             [True, True, True, True]])
            if reverse:
                mask = mask[:, ::-1].copy()
            params = ad.GruParams.init(3, 2, rng, scale=1.0)
            x = ad.parameter(rng.normal(size=(3, 4, 3)))
            probes = (rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 2)))

            def loss_at(xx):
                return probe_loss(*ad.gru_sequence(xx, mask, params, reverse=reverse), probes)

            with ad.Tape() as tape:
                tape.backward(loss_at(x))
            analytic = x.grad.copy()
            tape.zero_grads()
            assert rel_err(analytic, ad.finite_diff_grad(loss_at, x).data) < 1e-4
            check_grad_fd(lambda: loss_at(x), list(params.tensors()), max_coords=3, seed=seed)

    def test_masked_steps_carry_the_state(self):
        rng = np.random.default_rng(7)
        params = ad.GruParams.init(2, 3, rng, scale=1.0)
        x = ad.Tensor(rng.normal(size=(2, 4, 2)))
        mask = np.array([[True, True, False, False], [False, True, True, False]])
        states, final = ad.gru_sequence(x, mask, params)
        np.testing.assert_array_equal(states.data[0, 2], states.data[0, 1])
        np.testing.assert_array_equal(states.data[1, 0], np.zeros(3))
        np.testing.assert_array_equal(final.data, states.data[:, -1])
        states, final = ad.gru_sequence(x, mask, params, reverse=True)
        np.testing.assert_array_equal(final.data, states.data[:, 0])
        np.testing.assert_array_equal(states.data[0, 3], np.zeros(3))

    def test_records_one_op_plus_the_final_slice(self):
        rng = np.random.default_rng(8)
        params = ad.GruParams.init(2, 3, rng)
        x = ad.parameter(rng.normal(size=(2, 5, 2)))
        with ad.Tape() as tape:
            ad.gru_sequence(x, np.ones((2, 5), dtype=bool), params)
        assert len(tape) == 2

    def test_shape_errors(self):
        rng = np.random.default_rng(9)
        params = ad.GruParams.init(2, 3, rng)
        with pytest.raises(DimensionError):
            ad.gru_sequence(ad.Tensor(np.zeros((2, 4, 3))), np.ones((2, 4), bool), params)
        with pytest.raises(DimensionError):
            ad.gru_sequence(ad.Tensor(np.zeros((2, 4, 2))), np.ones((2, 3), bool), params)


class TestEncodeTape:
    @pytest.mark.parametrize("word_layers,sent_layers", [(1, 1), (2, 2), (1, 3)])
    def test_records_per_encode_do_not_grow_with_the_document(self, word_layers, sent_layers):
        vocab = Vocab([f"w{i}" for i in range(12)])
        config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=6,
                               word_layers=word_layers, sent_layers=sent_layers,
                               dropout=0.0, max_sentences=12, max_words=12)
        model = mcs.McsModel.init(config, vocab, seed=1)
        short = Document([["w1"], ["w2", "w3"]])
        long = Document([[f"w{(i * j) % 12}" for j in range(1 + i % 9)] for i in range(11)])
        counts = []
        for doc in (short, long):
            with ad.Tape() as tape:
                model.encode(doc)
            counts.append(len(tape))
        # embedding lookup; per BiGRU layer two sequence ops, two final slices and a
        # concat; the sentence summaries, the reshapes around the sentence GRU and
        # the document summary's concat and reshape
        assert counts == [6 + 5 * (word_layers + sent_layers)] * 2


# ---------------------------------------------------------------------------
# batched beam search
# ---------------------------------------------------------------------------


def reference_beam(model, enc, width, length_penalty, min_len, max_len, no_repeat_ngram):
    """The per-hypothesis beam that the batched one replaced: one decoder step per live
    hypothesis, candidates as dicts that copy token and attention lists."""
    start, memory = model._decoder_start(enc)
    live = [{"tokens": [], "logprob": 0.0, "state": start, "attn": []}]
    finished = []

    def final_score(logprob, n_tokens):
        return logprob / (max(n_tokens, 1) ** length_penalty)

    for _ in range(max_len):
        candidates = []
        for beam in live:
            prev = beam["tokens"][-1] if beam["tokens"] else Vocab.BOS
            state, logits, alpha = model._decode_step([prev], beam["state"], memory)
            logp = logits.data[0] - logits.data[0].max()
            logp = logp - np.log(np.exp(logp).sum())
            if len(beam["tokens"]) + 1 < min_len:
                logp[Vocab.EOS] = -np.inf
            for banned in model._banned_next(beam["tokens"], no_repeat_ngram):
                logp[banned] = -np.inf
            order = np.argsort(-logp, kind="stable")[: width + 1]
            for token in order:
                token = int(token)
                if not np.isfinite(logp[token]):
                    continue
                candidates.append({
                    "tokens": beam["tokens"] + [token],
                    "logprob": beam["logprob"] + float(logp[token]),
                    "state": state,
                    "attn": beam["attn"] + [alpha.data[0].copy()],
                })
        candidates.sort(key=lambda c: -c["logprob"])
        live = []
        for cand in candidates:
            if cand["tokens"][-1] == Vocab.EOS:
                if len(finished) < width:
                    finished.append(cand)
            elif len(live) < width:
                live.append(cand)
            if len(live) >= width and len(finished) >= width:
                break
        if not live:
            break

    pool = finished + live
    if not pool:
        raise DomainError("beam search produced no hypotheses")
    best = max(enumerate(pool),
               key=lambda item: (final_score(item[1]["logprob"], len(item[1]["tokens"])),
                                 -item[0]))[1]
    ended = bool(best["tokens"]) and best["tokens"][-1] == Vocab.EOS
    return mcs.BeamResult(
        tokens=best["tokens"][:-1] if ended else list(best["tokens"]),
        ended=ended,
        logprob=best["logprob"],
        score=final_score(best["logprob"], len(best["tokens"])),
        sent_attn=(np.vstack(best["attn"]) if best["attn"]
                   else np.zeros((0, enc.n_sentences))),
    )


WORDS = [f"w{i}" for i in range(8)]


@st.composite
def beam_problems(draw):
    vocab = Vocab(WORDS[: draw(st.integers(1, len(WORDS)))])
    config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=draw(st.integers(1, 6)),
                           hidden_dim=2 * draw(st.integers(1, 4)), word_layers=1,
                           sent_layers=1, dropout=0.0, max_sentences=5, max_words=5,
                           max_target=8)
    model = mcs.McsModel.init(config, vocab, seed=draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        # flat output layer: every token ties, so only the ordering rules pick
        model.params["dec.out.w"].data[:] = 0.0
    else:
        model.params["dec.out.w"].data *= draw(st.sampled_from([1.0, 8.0]))
    sentence = st.lists(st.sampled_from(WORDS + ["other"]), min_size=1, max_size=5)
    doc = Document(draw(st.lists(sentence, min_size=1, max_size=6)))
    search = dict(width=draw(st.integers(1, 5)),
                  length_penalty=draw(st.sampled_from([0.0, 1.0, 2.0])),
                  min_len=draw(st.integers(0, 6)), max_len=draw(st.integers(0, 8)),
                  no_repeat_ngram=draw(st.integers(0, 3)))
    return model, doc, search


class TestBatchedBeam:
    @settings(max_examples=150, deadline=None)
    @given(problem=beam_problems())
    def test_matches_per_hypothesis_reference(self, problem):
        model, doc, search = problem
        with ad.no_grad():
            enc = model.encode(doc)
            try:
                want = reference_beam(model, enc, **search)
            except DomainError:
                with pytest.raises(DomainError):
                    model._beam_from_encoded(enc, **search)
                return
            got = model._beam_from_encoded(enc, **search)
        assert got.tokens == want.tokens
        assert got.ended == want.ended
        assert abs(got.logprob - want.logprob) <= 1e-12
        assert abs(got.score - want.score) <= 1e-12
        assert got.sent_attn.shape == want.sent_attn.shape
        assert np.abs(got.sent_attn - want.sent_attn).max(initial=0.0) <= 1e-12

    def test_decode_step_rows_match_single_hypothesis_steps(self):
        vocab = Vocab(WORDS)
        config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=6,
                               word_layers=1, sent_layers=1, dropout=0.0)
        model = mcs.McsModel.init(config, vocab, seed=2)
        doc = Document([["w1", "w2", "w3"], ["w4"], ["w5", "w6"]])
        rng = np.random.default_rng(0)
        with ad.no_grad():
            enc = model.encode(doc)
            _, memory = model._decoder_start(enc)
            states = ad.Tensor(rng.normal(size=(4, 6)))
            prev = [1, 5, 5, 9]
            batched = model._decode_step(prev, states, memory)
            for b in range(4):
                single = model._decode_step([prev[b]], ad.Tensor(states.data[b : b + 1]), memory)
                for got, want in zip(batched, single):
                    assert np.abs(got.data[b] - want.data[0]).max() <= 1e-12
