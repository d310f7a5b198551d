"""Multitask content selection: hierarchical BiGRU seq2seq with an extractive head.

The encoder runs a bidirectional word-level GRU inside each sentence, then
a bidirectional sentence-level GRU over per-sentence summaries (forward
state at the last word concatenated with backward state at the first).  A
one-layer GRU decoder attends hierarchically: sentence-level attention
weights reweight per-sentence word attention, and the sentence weights
are the quantity of interest at inference time.

Two training objectives share the encoder: teacher-forced generation
(summed NLL) and per-sentence binary labelling through a sigmoid
classifier on sentence states.  The mixed loss is their convex
combination under a weight in [0, 1].

At inference, each sentence gets two raw channels: the classifier
probability and its accumulated sentence-attention mass over every
decoded step of the top beam. Each channel is rank-normalized to [0, 1]
((R - rank) / (R - 1), best rank 1; a single sentence scores 1.0) and the
fused score is their sum, so any strictly increasing transform of a raw
channel leaves the final ranking unchanged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GruParams, Tensor
from .checkpoint import load_tensors, restore, save_tensors
from .corpus import Document, Example, Vocab
from .errors import (
    DomainError,
    InputError,
    TrainingDivergedError,
)
from .metrics import ngram_recall
from .selection import select

log = logging.getLogger(__name__)

CHECKPOINT_KIND = "mcs"


@dataclass(frozen=True)
class McsConfig:
    """Dimensions and limits of the hierarchical model.

    ``hidden_dim`` is the concatenated bidirectional state size (each
    direction carries half).  Defaults are desk-scale.
    """

    vocab_size: int
    embed_dim: int = 32
    hidden_dim: int = 64
    word_layers: int = 2
    sent_layers: int = 2
    decoder_layers: int = 1
    dropout: float = 0.1
    gamma: float = 0.2
    max_sentences: int = 16
    max_words: int = 12
    max_target: int = 16

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "hidden_dim", "word_layers",
                     "sent_layers", "max_sentences", "max_words", "max_target"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive")
        if self.decoder_layers != 1:
            raise DomainError("the decoder is a single-layer recurrence")
        if self.hidden_dim % 2 != 0:
            raise DomainError("hidden_dim must be even (split across directions)")
        if not 0.0 <= self.gamma <= 1.0:
            raise DomainError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.dropout < 1.0:
            raise DomainError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class Encoded:
    """Encoder outputs for one document."""

    word_states: Tensor        # [N1, J, hidden]
    word_mask: np.ndarray      # [N1, J] bool
    sent_states: Tensor        # [N1, hidden]
    summary: Tensor            # [hidden]
    n_sentences: int


@dataclass
class DecoderMemory:
    """What every decoder step reads: document projections and the recurrence (h = hidden)."""

    sent_keys: Tensor          # [h, N1]: sentence scores are state @ sent_keys
    word_keys: Tensor          # [h, N1*J]: word scores are state @ word_keys
    words: Tensor              # [N1*J, h] word states, one row per (sentence, word)
    word_mask: np.ndarray      # [N1, J] bool
    comb_w: Tensor             # [2h, h]
    out_w: Tensor              # [h, V]
    gru: GruParams             # the decoder's recurrence


@dataclass
class McsScores:
    """Per-sentence raw channels and their rank-fused combination."""

    z_hat: np.ndarray
    attn_mass: np.ndarray
    fused: np.ndarray

    def to_records(self, doc_id: str | None) -> list[dict]:
        return [
            {"id": doc_id, "sentence_index": i,
             "z_hat": float(self.z_hat[i]),
             "attn_mass": float(self.attn_mass[i]),
             "fused": float(self.fused[i])}
            for i in range(len(self.fused))
        ]


@dataclass
class BeamResult:
    tokens: list[int]            # generated ids, end token stripped
    ended: bool                  # end token was produced
    logprob: float
    score: float                 # length-penalized
    sent_attn: np.ndarray        # [decoded steps x N1], includes the end step


class _Hypothesis(NamedTuple):
    tokens: list[int]
    logprob: float
    step: int       # decode step that produced the last token (-1: none yet)
    row: int        # its row in that step's batch


def rank_normalize(scores: np.ndarray) -> np.ndarray:
    """Map raw scores to (R - rank) / (R - 1); ties favor the smaller index."""
    r = len(scores)
    if r == 1:
        return np.ones(1)
    order = sorted(range(r), key=lambda i: (-scores[i], i))
    nscore = np.empty(r)
    for position, idx in enumerate(order):
        nscore[idx] = (r - (position + 1)) / (r - 1)
    return nscore


def make_labels(doc: Document, reference: Sequence[str]) -> np.ndarray:
    """1.0 where the sentence has positive bigram recall against the reference."""
    if not reference:
        raise InputError("labels require a non-empty reference")
    return np.array(
        [1.0 if ngram_recall(s, reference, 2) > 0.0 else 0.0 for s in doc.sentences]
    )


class McsModel:
    """Hierarchical encoder-decoder with a sentence classifier head."""

    def __init__(self, config: McsConfig, vocab: Vocab, params: dict[str, Tensor]):
        if len(vocab) != config.vocab_size:
            raise DomainError(
                f"vocab size {len(vocab)} does not match config {config.vocab_size}"
            )
        self.config = config
        self.vocab = vocab
        self.params = params

    # -- construction / serialization --------------------------------------

    @classmethod
    def init(cls, config: McsConfig, vocab: Vocab, seed: int = 0) -> "McsModel":
        rng = np.random.default_rng(seed)
        e, h = config.embed_dim, config.hidden_dim
        half = h // 2
        params: dict[str, Tensor] = {}
        params["embed"] = ad.parameter(rng.normal(scale=0.25, size=(config.vocab_size, e)))

        def add_gru(prefix: str, d_in: int, d_h: int):
            gru = GruParams.init(d_in, d_h, rng)
            for name, tensor in zip(GruParams.FIELDS, gru.tensors()):
                params[f"{prefix}.{name}"] = tensor

        for layer in range(config.word_layers):
            d_in = e if layer == 0 else h
            add_gru(f"word.{layer}.f", d_in, half)
            add_gru(f"word.{layer}.b", d_in, half)
        for layer in range(config.sent_layers):
            add_gru(f"sent.{layer}.f", h, half)
            add_gru(f"sent.{layer}.b", h, half)
        add_gru("dec.gru", e, h)

        def w(rows, cols):
            bound = 1.0 / math.sqrt(cols)
            return ad.parameter(rng.uniform(-bound, bound, size=(rows, cols)))

        params["dec.init.w"] = w(h, h)
        params["dec.init.b"] = ad.parameter(np.zeros(h))
        params["dec.att_sent.w"] = w(h, h)
        params["dec.att_word.w"] = w(h, h)
        params["dec.comb.w"] = w(h, 2 * h)
        params["dec.comb.b"] = ad.parameter(np.zeros(h))
        params["dec.out.w"] = w(config.vocab_size, h)
        params["dec.out.b"] = ad.parameter(np.zeros(config.vocab_size))
        params["cls.w"] = ad.parameter(rng.uniform(-0.1, 0.1, size=h))
        params["cls.b"] = ad.parameter(np.zeros(()))
        return cls(config, vocab, params)

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def _gru(self, prefix: str) -> GruParams:
        return GruParams(*(self.params[f"{prefix}.{n}"] for n in GruParams.FIELDS))

    def save(self, path) -> None:
        meta = {
            "kind": CHECKPOINT_KIND,
            "config": asdict(self.config),
            "vocab": self.vocab.to_list(),
        }
        save_tensors(path, self.params, meta)

    @classmethod
    def load(cls, path) -> "McsModel":
        return restore(load_tensors(path), CHECKPOINT_KIND,
                       lambda meta: cls.init(McsConfig(**meta["config"]),
                                             Vocab(meta["vocab"]), seed=0))

    # -- encoding -----------------------------------------------------------

    def _clip(self, doc: Document) -> Document:
        """The part of ``doc`` the model sees, with one warning if that is not all of it.

        Only the first ``max_sentences`` sentences, each cut to ``max_words``
        words, are encoded.  Training labels only those sentences; inference
        gives every later sentence 0.0 on both channels, so those sentences
        rank last, in document order.
        """
        cfg = self.config
        kept = doc.sentences[: cfg.max_sentences]
        long_sentences = sum(len(s) > cfg.max_words for s in kept)
        if len(kept) == doc.n_sentences and not long_sentences:
            return doc
        log.warning("document %s clipped to %d sentences of at most %d words "
                    "(%d sentences dropped, %d cut)", doc.id, cfg.max_sentences,
                    cfg.max_words, doc.n_sentences - len(kept), long_sentences)
        return Document([s[: cfg.max_words] for s in kept], id=doc.id)

    def _bigru_sequence(self, x: Tensor, mask: np.ndarray, prefix: str) -> tuple[Tensor, Tensor, Tensor]:
        """Bidirectional GRU over axis 1 of ``x`` [rows, steps, d_in].

        Masked steps carry the previous state through, so the forward
        final state sits at each row's last valid step and the backward
        final state at its first.  Returns (states [rows, steps, 2*half],
        final_forward, final_backward).
        """
        states_f, final_f = ad.gru_sequence(x, mask, self._gru(f"{prefix}.f"))
        states_b, final_b = ad.gru_sequence(x, mask, self._gru(f"{prefix}.b"), reverse=True)
        return ad.concat([states_f, states_b], axis=2), final_f, final_b

    def encode(self, doc: Document, training: bool = False,
               rng: np.random.Generator | None = None) -> Encoded:
        """Word-level then sentence-level bidirectional encoding.

        Documents beyond the configured sentence/word limits are clipped
        with a warning (:meth:`_clip`).
        """
        cfg = self.config
        ids = [self.vocab.encode(s) for s in self._clip(doc).sentences]
        n1 = len(ids)
        lengths = [len(s) for s in ids]
        j_max = max(lengths)
        id_matrix = np.full((n1, j_max), Vocab.PAD, dtype=np.intp)
        mask = np.zeros((n1, j_max), dtype=bool)
        for i, sent in enumerate(ids):
            id_matrix[i, : len(sent)] = sent
            mask[i, : len(sent)] = True

        drop = cfg.dropout if training else 0.0
        if drop > 0.0 and rng is None:
            raise DomainError("training-mode encode with dropout requires an rng")
        x = ad.getitem(self.params["embed"], id_matrix)  # [N1, J, e]
        final_f = final_b = None
        for layer in range(cfg.word_layers):
            if layer > 0 and drop > 0.0:
                x = ad.dropout(x, drop, rng)
            x, final_f, final_b = self._bigru_sequence(x, mask, f"word.{layer}")
        word_states = x
        reps = ad.concat([final_f, final_b], axis=1)  # [N1, hidden]

        # sentence-level GRU treats the N1 sentences as one sequence (batch of 1)
        seq = ad.reshape(reps, (1, n1, cfg.hidden_dim))
        seq_mask = np.ones((1, n1), dtype=bool)
        final_sf = final_sb = None
        for layer in range(cfg.sent_layers):
            if layer > 0 and drop > 0.0:
                seq = ad.dropout(seq, drop, rng)
            seq, final_sf, final_sb = self._bigru_sequence(seq, seq_mask, f"sent.{layer}")
        sent_states = ad.reshape(seq, (n1, cfg.hidden_dim))
        summary = ad.reshape(ad.concat([final_sf, final_sb], axis=1), (cfg.hidden_dim,))
        return Encoded(word_states, mask, sent_states, summary, n1)

    # -- heads ---------------------------------------------------------------

    def classifier_scores(self, sent_states: Tensor) -> Tensor:
        """Per-sentence probability of carrying reference content."""
        raw = ad.add(ad.matmul(sent_states, self.params["cls.w"]), self.params["cls.b"])
        return ad.sigmoid(raw)

    def _decoder_start(self, enc: Encoded) -> tuple[Tensor, DecoderMemory]:
        """Initial state [1, h] and the document projections every decode step reads."""
        p = self.params
        h = self.config.hidden_dim
        n1, j_max, _ = enc.word_states.shape
        words = ad.reshape(enc.word_states, (n1 * j_max, h))
        memory = DecoderMemory(
            sent_keys=ad.transpose(ad.matmul(enc.sent_states, p["dec.att_sent.w"])),
            word_keys=ad.transpose(ad.matmul(words, p["dec.att_word.w"])),
            words=words,
            word_mask=enc.word_mask,
            comb_w=ad.transpose(p["dec.comb.w"]),
            out_w=ad.transpose(p["dec.out.w"]),
            gru=self._gru("dec.gru"),
        )
        state = ad.tanh(ad.add(ad.matmul(p["dec.init.w"], enc.summary), p["dec.init.b"]))
        return ad.reshape(state, (1, h)), memory

    def _decode_step(self, prev_ids, state: Tensor,
                     memory: DecoderMemory) -> tuple[Tensor, Tensor, Tensor]:
        """One decoder step for B hypotheses at once.

        ``prev_ids`` holds each hypothesis's previous token and ``state`` is
        [B, h].  Returns (new state [B, h], vocabulary logits [B, V],
        sentence attention [B, N1]).
        """
        emb = ad.getitem(self.params["embed"], np.asarray(prev_ids, dtype=np.intp))  # [B, e]
        state = ad.gru_cell(emb, state, memory.gru)
        return (state, *self._readout(state, memory))

    def _readout(self, state: Tensor, memory: DecoderMemory) -> tuple[Tensor, Tensor]:
        """Vocabulary logits [B, V] and sentence attention [B, N1] of decoder states [B, h]."""
        p = self.params
        n1, j_max = memory.word_mask.shape
        b = state.shape[0]
        alpha = ad.masked_softmax(ad.matmul(state, memory.sent_keys), None)     # [B, N1]
        word_scores = ad.reshape(ad.matmul(state, memory.word_keys), (b, n1, j_max))
        beta = ad.masked_softmax(word_scores, memory.word_mask)                 # per-sentence rows
        weights = ad.mul(ad.reshape(alpha, (b, n1, 1)), beta)
        context = ad.matmul(ad.reshape(weights, (b, n1 * j_max)), memory.words)  # [B, h]
        feat = ad.tanh(ad.add(ad.matmul(ad.concat([state, context], axis=1), memory.comb_w),
                              p["dec.comb.b"]))
        logits = ad.add(ad.matmul(feat, memory.out_w), p["dec.out.b"])
        return logits, alpha

    def _teacher_forced(self, enc: Encoded, target_ids: Sequence[int]) -> Tensor:
        """Logits [T, V] of each target token after the ones before it: one recurrence."""
        start, memory = self._decoder_start(enc)
        prev_ids = np.array([[Vocab.BOS, *target_ids[:-1]]], dtype=np.intp)      # [1, T]
        emb = ad.getitem(self.params["embed"], prev_ids)
        states, _ = ad.gru_sequence(emb, np.ones(prev_ids.shape, bool), memory.gru, h0=start)
        return self._readout(ad.reshape(states, (len(target_ids), -1)), memory)[0]

    # -- losses ---------------------------------------------------------------

    def _target_ids(self, target: Sequence) -> list[int]:
        cfg = self.config
        if len(target) == 0:
            raise InputError("target sequence is empty")
        if len(target) > cfg.max_target:
            raise InputError(f"target length {len(target)} exceeds limit {cfg.max_target}")
        if all(isinstance(t, str) for t in target):
            return self.vocab.encode(target)
        ids = [int(t) for t in target]
        if min(ids) < 0 or max(ids) >= cfg.vocab_size:
            raise InputError("target token id outside the vocabulary")
        return ids

    def _seq2seq_loss_from(self, enc: Encoded, target_ids: list[int]) -> Tensor:
        return ad.cross_entropy_logits(self._teacher_forced(enc, target_ids),
                                       np.asarray(target_ids))

    def _label_loss_from(self, enc: Encoded, labels: np.ndarray) -> Tensor:
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != (enc.n_sentences,):
            raise InputError(
                f"labels shape {labels.shape} does not match {enc.n_sentences} sentences"
            )
        z_hat = self.classifier_scores(enc.sent_states)
        if ((z_hat.data <= 0.0) | (z_hat.data >= 1.0)).any():
            log.warning("classifier output saturated; clamping inside the loss")
        z = ad.clip(z_hat, 1e-12, 1.0 - 1e-12)
        pos = ad.mul(Tensor(labels), ad.log(z))
        negated = ad.mul(Tensor(1.0 - labels), ad.log(ad.sub(Tensor(np.ones_like(labels)), z)))
        return ad.neg(ad.tsum(ad.add(pos, negated)))

    def mcs_loss(self, doc: Document, target: Sequence, labels: np.ndarray,
                 gamma: float | None = None, training: bool = False, rng=None) -> Tensor:
        """Convex mix: gamma * labelling + (1 - gamma) * generation.

        Labelling is the classifier's binary cross-entropy over sentences;
        generation is the summed teacher-forced NLL of the target.
        """
        gamma = self.config.gamma if gamma is None else float(gamma)
        if not 0.0 <= gamma <= 1.0:
            raise DomainError(f"gamma must be in [0, 1], got {gamma}")
        enc = self.encode(doc, training=training, rng=rng)
        if gamma == 1.0:
            return self._label_loss_from(enc, labels)
        if gamma == 0.0:
            return self._seq2seq_loss_from(enc, self._target_ids(target))
        l_label = self._label_loss_from(enc, labels)
        l_seq = self._seq2seq_loss_from(enc, self._target_ids(target))
        return ad.add(ad.mul(Tensor(np.float64(gamma)), l_label),
                      ad.mul(Tensor(np.float64(1.0 - gamma)), l_seq))

    # -- inference -----------------------------------------------------------

    def beam_search(self, doc: Document, width: int = 4, length_penalty: float = 2.0,
                    min_len: int = 1, max_len: int | None = None,
                    no_repeat_ngram: int = 3) -> BeamResult:
        """Length-penalized beam decode returning the top hypothesis.

        The end token is suppressed while fewer than ``min_len`` tokens
        (counting the end step) have been generated; next tokens that
        would repeat an ``no_repeat_ngram``-gram already present in the
        hypothesis are banned.  Sentence-attention rows are collected for
        every decoded step of the winner, including its end step.
        """
        if width < 1:
            raise DomainError(f"beam width must be >= 1, got {width}")
        max_len = self.config.max_target if max_len is None else int(max_len)
        with ad.no_grad():
            enc = self.encode(doc)
            return self._beam_from_encoded(enc, width, length_penalty,
                                           min_len, max_len, no_repeat_ngram)

    @staticmethod
    def _banned_next(tokens: list[int], n: int) -> set[int]:
        if n < 1 or len(tokens) + 1 < n:
            return set()
        prefix = tuple(tokens[len(tokens) - (n - 1):]) if n > 1 else ()
        banned = set()
        for i in range(len(tokens) - n + 1):
            gram = tuple(tokens[i : i + n])
            if gram[:-1] == prefix:
                banned.add(gram[-1])
        return banned

    def _beam_from_encoded(self, enc: Encoded, width: int, length_penalty: float,
                           min_len: int, max_len: int, no_repeat_ngram: int) -> BeamResult:
        """Beam decode that steps every live hypothesis as one batch.

        Each step's candidates are, in live-beam order, the ``width + 1``
        best next tokens of each hypothesis (stable order, banned tokens
        dropped); a stable sort by log-probability then fills the finished
        pool (end token, at most ``width`` over the whole search) and the
        next live beam (at most ``width``).  A hypothesis is its tokens,
        log-probability and the decode row that produced its last token;
        its attention rows are read back through the rows' parents.
        """
        state, memory = self._decoder_start(enc)
        attn_steps: list[np.ndarray] = []      # [rows at step t, N1] per step
        parent_steps: list[np.ndarray] = []    # each row's row at step t - 1
        live = [_Hypothesis([], 0.0, -1, -1)]
        finished: list[_Hypothesis] = []

        def final_score(logprob: float, n_tokens: int) -> float:
            return logprob / (max(n_tokens, 1) ** length_penalty)

        for step in range(max_len):
            prev = [hyp.tokens[-1] if hyp.tokens else Vocab.BOS for hyp in live]
            state, logits, alpha = self._decode_step(prev, state, memory)
            attn_steps.append(alpha.data)
            parent_steps.append(np.array([hyp.row for hyp in live]))
            logp = ad.log_softmax(logits).data
            if step + 1 < min_len:
                logp[:, Vocab.EOS] = -np.inf
            for row, hyp in enumerate(live):
                logp[row, list(self._banned_next(hyp.tokens, no_repeat_ngram))] = -np.inf
            order = np.argsort(-logp, axis=1, kind="stable")[:, : width + 1]
            picked = np.take_along_axis(logp, order, axis=1)
            finite = np.isfinite(picked)   # masks read row-major: beam order, then rank
            cand_rows = np.nonzero(finite)[0]
            totals = np.array([hyp.logprob for hyp in live])[cand_rows] + picked[finite]
            by_logprob = np.argsort(-totals, kind="stable")
            survivors = []
            for row, token, total in zip(cand_rows[by_logprob].tolist(),
                                         order[finite][by_logprob].tolist(),
                                         totals[by_logprob].tolist()):
                hyp = _Hypothesis(live[row].tokens + [token], total, step, row)
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
        best = max(
            enumerate(pool),
            key=lambda item: (final_score(item[1].logprob, len(item[1].tokens)), -item[0]),
        )[1]
        rows, step, row = [], best.step, best.row
        while step >= 0:
            rows.append(attn_steps[step][row])
            row = parent_steps[step][row]
            step -= 1
        ended = bool(best.tokens) and best.tokens[-1] == Vocab.EOS
        return BeamResult(
            tokens=best.tokens[:-1] if ended else best.tokens,
            ended=ended,
            logprob=best.logprob,
            score=final_score(best.logprob, len(best.tokens)),
            sent_attn=np.vstack(rows[::-1]) if rows else np.zeros((0, enc.n_sentences)),
        )

    def inference_scores(self, doc: Document, width: int = 4,
                         length_penalty: float = 2.0, min_len: int = 1,
                         no_repeat_ngram: int = 3) -> McsScores:
        """Rank-fused classifier and attention channels of every sentence.

        Every sentence of ``doc`` gets a score; clipped ones rank last (:meth:`_clip`).
        """
        with ad.no_grad():
            enc = self.encode(doc)
            z_hat = self.classifier_scores(enc.sent_states).data
            beam = self._beam_from_encoded(
                enc, width, length_penalty, min_len, self.config.max_target,
                no_repeat_ngram,
            )
        tail = np.zeros(doc.n_sentences - enc.n_sentences)
        z_hat = np.concatenate([z_hat, tail])
        attn_mass = np.concatenate([beam.sent_attn.sum(axis=0), tail])
        return McsScores(z_hat, attn_mass, rank_normalize(z_hat) + rank_normalize(attn_mass))

    def fused_scores(self, doc: Document) -> list[float]:
        """Scorer-callable form of the fused channel for ranking pipelines."""
        return [float(v) for v in self.inference_scores(doc).fused]


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def recall_rate(selections, docs, references) -> float | None:
    """Mean percentage of positive-overlap sentences retained by the selections.

    Documents with no positive-overlap sentence are excluded from the mean;
    None if that leaves none.
    """
    rates = []
    for selection, doc, reference in zip(selections, docs, references):
        positive = {i for i, s in enumerate(doc.sentences)
                    if ngram_recall(s, reference, 2) > 0.0}
        if not positive:
            continue
        kept = positive.intersection(selection.indices)
        rates.append(len(kept) / len(positive))
    return 100.0 * float(np.mean(rates)) if rates else None


def random_selection_recall(examples: Sequence[Example], budget: int,
                            trials: int, seed: int) -> float:
    """Monte-Carlo recall of uniformly random rankings at the same budget."""
    rng = np.random.default_rng(seed)
    rates = []
    for _ in range(trials):
        selections, docs, refs = [], [], []
        for ex in examples:
            noise = rng.random(ex.doc.n_sentences)
            scores = noise.tolist()
            selections.append(
                select(ex.doc, "model", budget, scorer=lambda d, s=scores: s)
            )
            docs.append(ex.doc)
            refs.append(ex.reference)
        rate = recall_rate(selections, docs, refs)
        if rate is None:
            raise InputError("no document has a positive-overlap sentence")
        rates.append(rate)
    return float(np.mean(rates))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def lr_schedule(step: int, warmup: int, scale: float = 0.002) -> float:
    """Inverse-sqrt decay with linear warmup.

    The warmup arm is evaluated as (step / warmup) * warmup**-0.5 so the
    two branches agree bit-exactly at step == warmup for every warmup.
    """
    if step < 1:
        raise DomainError(f"schedule step must be >= 1, got {step}")
    if warmup < 1:
        raise DomainError(f"warmup must be >= 1, got {warmup}")
    return scale * min(step**-0.5, (step / warmup) * warmup**-0.5)


@dataclass
class TrainSettings:
    steps: int = 500
    batch_size: int = 2
    warmup: int = 100
    lr_scale: float = 0.002
    seed: int = 0
    val_fraction: float = 0.2
    val_every: int = 50
    patience: int = 3


@dataclass
class TrainResult:
    model: McsModel
    history: list[dict]
    steps_run: int
    stopped_early: bool


def _prepare(model: McsModel, examples: Sequence[Example]) -> list[tuple[Document, list[int], np.ndarray]]:
    prepared = []
    for ex in examples:
        if ex.reference is None or not ex.reference:
            raise InputError(f"document {ex.doc.id} has no reference; cannot train")
        target = ex.reference[: model.config.max_target]
        doc = model._clip(ex.doc)
        labels = make_labels(ex.doc, ex.reference)[: doc.n_sentences]
        prepared.append((doc, model._target_ids(target), labels))
    return prepared


def train(model: McsModel, examples: Sequence[Example], gamma: float | None = None,
          settings: TrainSettings | None = None) -> TrainResult:
    """Mini-batch descent on the mixed loss under the inverse-sqrt schedule.

    Deterministic under ``settings.seed``; aborts with a diagnostic if the
    loss goes non-finite; stops early when validation loss has not
    improved for ``patience`` consecutive evaluations.
    """
    settings = settings or TrainSettings()
    gamma = model.config.gamma if gamma is None else float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must be in [0, 1], got {gamma}")
    prepared = _prepare(model, examples)
    rng = np.random.default_rng(settings.seed)
    order = rng.permutation(len(prepared))
    n_val = int(round(settings.val_fraction * len(prepared)))
    val_set = [prepared[i] for i in order[:n_val]]
    train_set = [prepared[i] for i in order[n_val:]]
    if not train_set:
        raise InputError("training split is empty")

    optimizer = ad.Adam(model.parameters())
    history: list[dict] = []
    best_val = math.inf
    stale = 0
    stopped_early = False
    step = 0
    queue: list[int] = []

    def val_loss() -> float:
        total = 0.0
        for doc, target_ids, labels in val_set:
            loss = model.mcs_loss(doc, target_ids, labels, gamma=gamma)
            total += loss.item()
        return total / len(val_set)

    while step < settings.steps:
        while len(queue) < settings.batch_size:
            queue.extend(rng.permutation(len(train_set)).tolist())
        batch = [train_set[queue.pop(0)] for _ in range(settings.batch_size)]
        step += 1
        batch_loss = 0.0
        inv = 1.0 / len(batch)
        for doc, target_ids, labels in batch:
            with ad.Tape() as tape:
                loss = model.mcs_loss(doc, target_ids, labels, gamma=gamma,
                                      training=True, rng=rng)
                tape.backward(ad.mul(loss, Tensor(np.float64(inv))))
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDivergedError(
                    f"loss became {value} at step {step} "
                    f"(lr={lr_schedule(step, settings.warmup, settings.lr_scale):.3e})"
                )
            batch_loss += value * inv
        optimizer.step(lr_schedule(step, settings.warmup, settings.lr_scale))
        optimizer.zero_grads()
        entry = {"step": step, "train_loss": batch_loss}
        if val_set and step % settings.val_every == 0:
            current = val_loss()
            entry["val_loss"] = current
            if current < best_val - 1e-9:
                best_val = current
                stale = 0
            else:
                stale += 1
                if stale >= settings.patience:
                    history.append(entry)
                    stopped_early = True
                    break
        history.append(entry)

    return TrainResult(model, history, step, stopped_early)
