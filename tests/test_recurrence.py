"""Whole-sequence GRU op, teacher forcing, batched losses and batched beam search against
step-by-step and per-document oracles."""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longspan import autodiff as ad
from longspan import mcs
from longspan.corpus import Document, Example, Vocab
from longspan.errors import ContractError, DimensionError, DomainError

from test_autodiff import check_grad_fd, finite_diff_grad, rel_err

# ---------------------------------------------------------------------------
# gru_sequence
# ---------------------------------------------------------------------------


def stepwise_gru(x, mask, params, reverse, h0=None):
    """One gru_cell per step with a masked blend: the composition gru_sequence replaced."""
    rows, steps, _ = x.shape
    keep = mask.astype(np.float64)[:, :, None]
    h = ad.Tensor(np.zeros((rows, params.d_h))) if h0 is None else h0
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
    h0 = ad.parameter(rng.normal(size=(rows, d_h))) if draw(st.booleans()) else None
    probes = (rng.normal(size=(rows, steps, d_h)), rng.normal(size=(rows, d_h)))
    return x, mask, params, h0, probes


def probe_loss(states, final, probes):
    return ad.add(ad.tsum(ad.mul(states, ad.Tensor(probes[0]))),
                  ad.tsum(ad.mul(final, ad.Tensor(probes[1]))))


def grads_of(run, x, params, h0, probes):
    tensors = [x, *params.tensors()] + ([] if h0 is None else [h0])
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
        x, mask, params, h0, probes = problem
        fused = grads_of(lambda: ad.gru_sequence(x, mask, params, reverse=reverse, h0=h0),
                         x, params, h0, probes)
        oracle = grads_of(lambda: stepwise_gru(x, mask, params, reverse, h0),
                          x, params, h0, probes)
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
            h0 = ad.parameter(rng.normal(size=(3, 2)))
            probes = (rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 2)))

            def loss_at(xx, hh=h0):
                return probe_loss(*ad.gru_sequence(xx, mask, params, reverse=reverse, h0=hh),
                                  probes)

            with ad.Tape() as tape:
                tape.backward(loss_at(x))
            analytic = x.grad.copy(), h0.grad.copy()
            tape.zero_grads()
            assert rel_err(analytic[0], finite_diff_grad(loss_at, x)) < 1e-4
            assert rel_err(analytic[1], finite_diff_grad(lambda hh: loss_at(x, hh), h0)) < 1e-4
            check_grad_fd(lambda: loss_at(x), list(params.tensors()), max_coords=9, seed=seed)

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
        h0 = ad.Tensor(rng.normal(size=(2, 3)))
        states, _ = ad.gru_sequence(x, mask, params, h0=h0)
        np.testing.assert_array_equal(states.data[1, 0], h0.data[1])

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
        for shape in [(1, 3), (2, 2), (3,), (2, 3, 1)]:
            with pytest.raises(DimensionError):
                ad.gru_sequence(ad.Tensor(np.zeros((2, 4, 2))), np.ones((2, 4), bool), params,
                                h0=ad.Tensor(np.zeros(shape)))


@st.composite
def bigru_problems(draw):
    rows, steps = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    d_in, d_h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((rows, steps)) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    pair = tuple(ad.GruParams(*(ad.parameter(rng.normal(scale=0.6, size=shape))
                                for shape in [(d_in, 3 * d_h), (d_h, 3 * d_h), (3 * d_h,)]))
                 for _ in range(2))
    x = ad.parameter(rng.normal(size=(rows, steps, d_in)))
    probes = (rng.normal(size=(rows, steps, 2 * d_h)), rng.normal(size=(rows, 2 * d_h)))
    return x, mask, pair, probes


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestTwoDirections:
    @settings(max_examples=60, deadline=None)
    @given(problem=bigru_problems())
    def test_matches_two_one_direction_calls_bitwise(self, problem):
        x, mask, (forward, backward), probes = problem
        tensors = [x, *forward.tensors(), *backward.tensors()]

        def two_calls():
            states_f, final_f = ad.gru_sequence(x, mask, forward)
            states_b, final_b = ad.gru_sequence(x, mask, backward, reverse=True)
            return ad.concat([states_f, states_b], axis=2), ad.concat([final_f, final_b], axis=1)

        results = []
        for run in (lambda: ad.gru_sequence(x, mask, (forward, backward)), two_calls):
            with ad.Tape() as tape:
                states, final = run()
                tape.backward(probe_loss(states, final, probes))
            results.append([states.data, final.data] + [t.grad.copy() for t in tensors])
            tape.zero_grads()
        for got, want in zip(*results):
            assert_bitwise(got, want)

    def test_a_pair_runs_from_zero_states_only(self):
        rng = np.random.default_rng(10)
        pair = ad.GruParams.init(2, 3, rng), ad.GruParams.init(2, 3, rng)
        x, mask = ad.Tensor(np.zeros((2, 4, 2))), np.ones((2, 4), bool)
        with pytest.raises(ContractError):
            ad.gru_sequence(x, mask, pair, reverse=True)
        with pytest.raises(ContractError):
            ad.gru_sequence(x, mask, pair, h0=ad.Tensor(np.zeros((2, 3))))
        with pytest.raises(DimensionError):
            ad.gru_sequence(x, mask, (pair[0], ad.GruParams.init(2, 2, rng)))


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
        # embedding lookup; per BiGRU layer one two-direction sequence op and its
        # gather of the final states; the sentence summaries' gather into document
        # slots and back out, and the word states gathered by slot
        assert counts == [4 + 2 * (word_layers + sent_layers)] * 2


# ---------------------------------------------------------------------------
# batched beam search
# ---------------------------------------------------------------------------


def banned_next(tokens, n):
    """Next tokens that would repeat an n-gram already in ``tokens``: the per-hypothesis
    rescan that the beam's one sliding-window comparison replaced."""
    if n < 1 or len(tokens) + 1 < n:
        return set()
    prefix = tuple(tokens[len(tokens) - (n - 1):]) if n > 1 else ()
    banned = set()
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i : i + n])
        if gram[:-1] == prefix:
            banned.add(gram[-1])
    return banned


class Winner(NamedTuple):
    """An oracle beam's top hypothesis: its tokens (ending in the end token if produced),
    log-probability and sentence attention summed over its decoded steps."""
    tokens: list
    logprob: float
    mass: np.ndarray


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
            for banned in banned_next(beam["tokens"], no_repeat_ngram):
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
    return Winner(best["tokens"], best["logprob"],
                  np.vstack(best["attn"]).sum(axis=0) if best["attn"]
                  else np.zeros(enc.sent_mask.shape[1]))


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
            [got] = model._beam_from_encoded(enc, **search)
        assert got.tokens == want.tokens
        assert abs(got.logprob - want.logprob) <= 1e-12
        assert got.mass.shape == want.mass.shape
        assert np.abs(got.mass - want.mass).max() <= 1e-12

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


# ---------------------------------------------------------------------------
# a group of documents in one lock-step beam
# ---------------------------------------------------------------------------


class StepHyp(NamedTuple):
    """A hypothesis of the per-document oracle: the decode step and row that produced its
    last token (-1 and -1 before the first step) lead back to its attention rows."""
    tokens: list
    logprob: float
    step: int
    row: int


def per_document_beam(model, enc, width=4, length_penalty=2.0, min_len=1, max_len=None,
                      no_repeat_ngram=3):
    """The one-document beam that the lock-step group beam replaced: every live hypothesis
    of one document steps as one batch, one decoder step per document per step."""
    if width < 1:
        raise DomainError(f"beam width must be >= 1, got {width}")
    max_len = model.config.max_target if max_len is None else int(max_len)
    state, memory = model._decoder_start(enc)
    attn_steps, parent_steps = [], []
    live = [StepHyp([], 0.0, -1, -1)]
    finished = []

    def final_score(logprob, n_tokens):
        return logprob / (max(n_tokens, 1) ** length_penalty)

    for step in range(max_len):
        prev = [hyp.tokens[-1] if hyp.tokens else Vocab.BOS for hyp in live]
        state, logits, alpha = model._decode_step(prev, state, memory)
        attn_steps.append(alpha.data)
        parent_steps.append(np.array([hyp.row for hyp in live]))
        logp = ad.log_softmax(logits.data)
        if step + 1 < min_len:
            logp[:, Vocab.EOS] = -np.inf
        for row, hyp in enumerate(live):
            logp[row, list(banned_next(hyp.tokens, no_repeat_ngram))] = -np.inf
        order = np.argsort(-logp, axis=1, kind="stable")[:, : width + 1]
        picked = np.take_along_axis(logp, order, axis=1)
        finite = np.isfinite(picked)
        cand_rows = np.nonzero(finite)[0]
        totals = np.array([hyp.logprob for hyp in live])[cand_rows] + picked[finite]
        by_logprob = np.argsort(-totals, kind="stable")
        survivors = []
        for row, token, total in zip(cand_rows[by_logprob].tolist(),
                                     order[finite][by_logprob].tolist(),
                                     totals[by_logprob].tolist()):
            hyp = StepHyp(live[row].tokens + [token], total, step, row)
            if token == Vocab.EOS:
                if len(finished) < width:
                    finished.append(hyp)
            elif len(survivors) < width:
                survivors.append(hyp)
            if len(survivors) >= width and len(finished) >= width:
                break
        live = survivors
        if not live:
            break
        state = ad.getitem(state, np.array([hyp.row for hyp in live]))

    pool = finished + live
    if not pool:
        raise DomainError("beam search produced no hypotheses")
    best = max(enumerate(pool),
               key=lambda item: (final_score(item[1].logprob, len(item[1].tokens)), -item[0]))[1]
    rows, step, row = [], best.step, best.row
    while step >= 0:
        rows.append(attn_steps[step][row])
        row = parent_steps[step][row]
        step -= 1
    return Winner(best.tokens, best.logprob,
                  np.vstack(rows[::-1]).sum(axis=0) if rows else np.zeros(enc.sent_mask.shape[1]))


def per_document_scores(model, doc):
    """Rank-fused channels of one document scored alone through the one-document beam."""
    with ad.no_grad():
        enc = model.encode(doc)
        z_hat = model.classifier_scores(enc.sent_states).data
        beam = per_document_beam(model, enc)
    tail = np.zeros(doc.n_sentences - enc.sent_mask.sum())
    z_hat = np.concatenate([z_hat, tail])
    attn_mass = np.concatenate([beam.mass, tail])
    return mcs.McsScores(z_hat, attn_mass,
                         mcs.rank_normalize(z_hat) + mcs.rank_normalize(attn_mass))


@st.composite
def beam_groups(draw):
    """1-6 documents with ragged sentence counts, past max_sentences and max_words."""
    vocab = Vocab(WORDS[: draw(st.integers(1, len(WORDS)))])
    config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=draw(st.integers(1, 5)),
                           hidden_dim=2 * draw(st.integers(1, 3)), word_layers=1,
                           sent_layers=1, dropout=0.0, max_sentences=4, max_words=3,
                           max_target=7)
    model = mcs.McsModel.init(config, vocab, seed=draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        model.params["dec.out.w"].data *= 8.0
    sentence = st.lists(st.sampled_from(WORDS + ["other"]), min_size=1, max_size=5)
    docs = [Document(sentences, id=f"d{i}") for i, sentences in
            enumerate(draw(st.lists(st.lists(sentence, min_size=1, max_size=6),
                                    min_size=1, max_size=6)))]
    search = dict(width=draw(st.integers(1, 4)),
                  length_penalty=draw(st.sampled_from([0.0, 1.0, 2.0])),
                  min_len=draw(st.integers(0, 6)), max_len=draw(st.integers(0, 7)),
                  no_repeat_ngram=draw(st.integers(0, 3)))
    return model, docs, search


def assert_same_scores(got, want):
    assert np.abs(got.z_hat - want.z_hat).max() <= 1e-12
    assert np.abs(got.attn_mass - want.attn_mass).max() <= 1e-12
    assert got.fused.tolist() == want.fused.tolist()


class TestGroupBeam:
    @settings(max_examples=80, deadline=None)
    @given(problem=beam_groups())
    def test_beams_match_the_per_document_oracle(self, problem):
        model, docs, search = problem
        with ad.no_grad():
            try:
                want = [per_document_beam(model, model.encode(doc), **search) for doc in docs]
            except DomainError:
                with pytest.raises(DomainError):
                    model._beam_from_encoded(model.encode(*docs), **search)
                return
            got = model._beam_from_encoded(model.encode(*docs), **search)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tokens == w.tokens
            assert abs(g.logprob - w.logprob) <= 1e-12
            assert np.abs(g.mass[: len(w.mass)] - w.mass).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(problem=beam_groups())
    def test_winner_mass_sums_to_its_step_count(self, problem):
        model, docs, search = problem
        with ad.no_grad():
            enc = model.encode(*docs)
            try:
                winners = model._beam_from_encoded(enc, **search)
            except DomainError:
                return
        for winner, real in zip(winners, enc.sent_mask):
            # each decoded step, the end step included, adds one attention row summing to 1
            assert abs(winner.mass.sum() - len(winner.tokens)) <= 1e-9
            assert (winner.mass[~real] == 0.0).all()

    @settings(max_examples=60, deadline=None)
    @given(problem=beam_groups())
    def test_winners_are_short_end_last_and_repeat_no_ngram(self, problem):
        model, docs, search = problem
        with ad.no_grad():
            try:
                winners = model._beam_from_encoded(model.encode(*docs), **search)
            except DomainError:
                return
        n = search["no_repeat_ngram"]
        for winner in winners:
            assert len(winner.tokens) <= search["max_len"]
            assert Vocab.EOS not in winner.tokens[:-1]
            if n >= 1:
                grams = [tuple(winner.tokens[i : i + n])
                         for i in range(len(winner.tokens) - n + 1)]
                assert len(grams) == len(set(grams))

    @settings(max_examples=40, deadline=None)
    @given(problem=beam_groups())
    def test_scores_match_the_per_document_oracle(self, problem):
        model, docs, _ = problem
        got = model.inference_scores(*docs)
        assert len(got) == len(docs)
        for doc, scores in zip(docs, got):
            assert len(scores.fused) == doc.n_sentences
            assert_same_scores(scores, per_document_scores(model, doc))

    @settings(max_examples=40, deadline=None)
    @given(problem=beam_groups(), data=st.data())
    def test_scores_do_not_depend_on_the_group(self, problem, data):
        model, docs, _ = problem
        other = data.draw(st.permutations(docs)) + data.draw(
            st.lists(st.sampled_from(docs), max_size=3))
        by_group = model.inference_scores(*other)
        for doc, scores in zip(docs, model.inference_scores(*docs)):
            for position in [i for i, d in enumerate(other) if d is doc]:
                assert_same_scores(by_group[position], scores)

    def test_empty_group(self):
        model = mcs.McsModel.init(mcs.McsConfig(vocab_size=len(Vocab(WORDS))), Vocab(WORDS))
        assert model.inference_scores() == []


# ---------------------------------------------------------------------------
# teacher forcing
# ---------------------------------------------------------------------------


def stepwise_teacher_forced(model, enc, target_ids):
    """One decoder step per target token, fed the token before it: the loop that one
    gru_sequence and one readout replaced."""
    state, memory = model._decoder_start(enc)
    prev, rows = Vocab.BOS, []
    for target in target_ids:
        state, logits, _ = model._decode_step([prev], state, memory)
        rows.append(logits)
        prev = target
    return ad.concat(rows)


def loss_and_grads(model, loss_fn):
    with ad.Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    grads = {name: p.grad.copy() for name, p in model.params.items() if p.grad is not None}
    tape.zero_grads()
    return loss.item(), grads


class TestTeacherForcing:
    @settings(max_examples=60, deadline=None)
    @given(problem=beam_problems(), data=st.data())
    def test_matches_per_step_decoder(self, problem, data):
        model, doc, _ = problem
        ids = data.draw(st.lists(st.integers(0, model.config.vocab_size - 1),
                                 min_size=1, max_size=model.config.max_target))
        got_loss, got = loss_and_grads(model, lambda: model.mcs_loss(doc, ids, None, gamma=0.0))
        want_loss, want = loss_and_grads(model, lambda: ad.cross_entropy_logits(
            stepwise_teacher_forced(model, model.encode(doc), ids), np.asarray(ids)))
        assert abs(got_loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
        assert got.keys() == want.keys()
        for name, grad in want.items():
            assert np.abs(got[name] - grad).max() <= 1e-12 * max(1.0, np.abs(grad).max()), name

    def test_records_do_not_grow_with_the_target(self):
        vocab = Vocab(WORDS)
        config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=6,
                               word_layers=1, sent_layers=1, dropout=0.0)
        model = mcs.McsModel.init(config, vocab, seed=3)
        doc = Document([["w1", "w2", "w3"], ["w4"], ["w5", "w6"]])
        counts = []
        for target in (["w1"], ["w1", "w2"], ["w3", "w1", "w2"]):
            with ad.Tape() as tape:
                model.mcs_loss(doc, target, None, gamma=0.0)
            counts.append(len(tape))
        assert counts[0] == counts[1] == counts[2]


# ---------------------------------------------------------------------------
# gru_cell as the one-step case of the fused kernel
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(problem=gru_problems())
def test_gru_cell_matches_one_step_sequence(problem):
    _, _, params, _, _ = problem
    rng = np.random.default_rng(params.d_in * 10 + params.d_h)
    rows = 3
    x = ad.parameter(rng.normal(size=(rows, 1, params.d_in)))
    h0 = ad.parameter(rng.normal(size=(rows, params.d_h)))
    probe = rng.normal(size=(rows, params.d_h))
    tensors = [x, h0, *params.tensors()]

    def grads(run):
        with ad.Tape() as tape:
            out = run()
            tape.backward(ad.tsum(ad.mul(out, ad.Tensor(probe))))
        got = [t.grad.copy() for t in tensors]
        tape.zero_grads()
        return out.data, got

    cell = grads(lambda: ad.gru_cell(ad.reshape(x, (rows, params.d_in)), h0, params))
    seq = grads(lambda: ad.gru_sequence(x, np.ones((rows, 1), bool), params, h0=h0)[1])
    assert np.abs(cell[0] - seq[0]).max() <= 1e-12
    for got, want in zip(cell[1], seq[1]):
        assert np.abs(got - want).max() <= 1e-12


# ---------------------------------------------------------------------------
# one graph per mini-batch
# ---------------------------------------------------------------------------


@st.composite
def loss_batches(draw):
    vocab = Vocab(WORDS)
    config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=draw(st.integers(1, 5)),
                           hidden_dim=2 * draw(st.integers(1, 3)),
                           word_layers=draw(st.integers(1, 2)),
                           sent_layers=draw(st.integers(1, 2)), dropout=0.0,
                           max_sentences=5, max_words=3, max_target=6)
    model = mcs.McsModel.init(config, vocab, seed=draw(st.integers(0, 10**6)))
    # sentences may run past max_words, which clips them
    sentence = st.lists(st.sampled_from(WORDS + ["other"]), min_size=1, max_size=5)
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        doc = Document(draw(st.lists(sentence, min_size=1, max_size=5)))
        target = draw(st.lists(st.integers(0, len(vocab) - 1), min_size=1,
                               max_size=config.max_target))
        labels = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                        min_size=doc.n_sentences, max_size=doc.n_sentences)))
        batch.append((doc, target, labels))
    return model, batch, draw(st.sampled_from([0.0, 0.2, 1.0]))


class TestBatchLoss:
    @settings(max_examples=60, deadline=None)
    @given(problem=loss_batches())
    def test_matches_the_sum_of_one_document_losses(self, problem):
        model, batch, gamma = problem
        got_loss, got = loss_and_grads(model, lambda: model.batch_loss(batch, gamma=gamma))
        want_loss, want = 0.0, {}
        for doc, target, labels in batch:
            loss, grads = loss_and_grads(
                model, lambda: model.mcs_loss(doc, target, labels, gamma=gamma))
            want_loss += loss
            for name, grad in grads.items():
                want[name] = want[name] + grad if name in want else grad
        assert abs(got_loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
        assert got.keys() == want.keys()
        for name, grad in want.items():
            assert np.abs(got[name] - grad).max() <= 1e-12 * max(1.0, np.abs(grad).max()), name

    def test_padded_sentences_get_no_attention(self):
        vocab = Vocab(WORDS)
        config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=6,
                               word_layers=1, sent_layers=1, dropout=0.0)
        model = mcs.McsModel.init(config, vocab, seed=4)
        docs = [Document([["w1", "w2"]]), Document([["w3"], ["w4", "w5", "w6"], ["w7"]])]
        with ad.no_grad():
            enc = model.encode(*docs)
            state, memory = model._decoder_start(enc)
            _, alpha = model._readout(ad.reshape(state, (2, 1, 6)), memory)
        np.testing.assert_array_equal(enc.sent_mask, [[True, False, False], [True] * 3])
        np.testing.assert_array_equal(alpha.data[0, 0, 1:], [0.0, 0.0])
        assert alpha.data[0, 0, 0] == 1.0

    @pytest.mark.parametrize("gamma", [0.0, 0.2, 1.0])
    def test_training_runs_one_backward_per_step(self, monkeypatch, gamma):
        examples = [Example(Document([[f"w{(i + j) % 8}" for j in range(1 + (i + k) % 4)]
                                      for k in range(1 + i % 3)], id=str(i)),
                            [f"w{(3 * i + j) % 8}" for j in range(1 + i % 5)])
                    for i in range(6)]
        vocab = Vocab(WORDS)
        config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=6,
                               word_layers=2, sent_layers=2, dropout=0.1, max_target=8)
        records = []
        backward = ad.Tape.backward

        def counted(tape, loss):
            records.append(len(tape))
            backward(tape, loss)

        monkeypatch.setattr(ad.Tape, "backward", counted)
        per_batch = {}
        for batch_size in (1, 2, 4):
            records.clear()
            model = mcs.McsModel.init(config, vocab, seed=5)
            settings_ = mcs.TrainSettings(steps=3, batch_size=batch_size, warmup=2,
                                          seed=6, val_fraction=0.0)
            mcs.train(model, examples, gamma=gamma, settings=settings_)
            assert len(records) == 3
            per_batch[batch_size] = set(records)
        # the same ops record whatever the batch holds
        assert per_batch[1] == per_batch[2] == per_batch[4]
        assert len(per_batch[1]) == 1
