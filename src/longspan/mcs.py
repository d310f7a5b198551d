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
from .metrics import ngram_recall  # wrapped by perfbench/tracing.py; not called here
from .selection import descending_order, oracle_similarities, positive_indices, select

CHECKPOINT_KIND = "mcs"


@dataclass(frozen=True)
class McsConfig:
    """Dimensions and limits of the hierarchical model.

    ``hidden_dim`` is the concatenated bidirectional state size (each
    direction carries half).  ``max_sentences`` and ``max_words`` bound
    only what :func:`train` sees; inference encodes and scores whole
    documents.  Defaults are desk-scale.
    """

    vocab_size: int
    embed_dim: int = 32
    hidden_dim: int = 64
    word_layers: int = 2
    sent_layers: int = 2
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
        if self.hidden_dim % 2 != 0:
            raise DomainError("hidden_dim must be even (split across directions)")
        if not 0.0 <= self.gamma <= 1.0:
            raise DomainError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.dropout < 1.0:
            raise DomainError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class Encoded:
    """Encoder outputs for D documents, each in N1 sentence slots of J words.

    Slots past a document's own sentence count are empty; their word
    states are zero.
    """

    summary: Tensor            # [D, hidden]
    sent_mask: np.ndarray      # [D, N1] bool: the slot holds a sentence
    slot_states: Tensor        # [D, N1, hidden] sentence states by slot
    slot_words: Tensor         # [D, N1*J, hidden] word states by slot
    slot_word_mask: np.ndarray  # [D, N1, J]; an empty slot permits its first word alone


@dataclass
class DecoderMemory:
    """What every decoder step reads: document projections and the recurrence (h = hidden)."""

    sent_keys: Tensor          # [D, N1, h]: a sentence's score is state . its key
    word_keys: Tensor          # [D, N1*J, h]: a word's score is state . its key
    words: Tensor              # [D, N1*J, h] word states, one row per (slot, word)
    blocked: tuple[np.ndarray, np.ndarray]  # [D, 1, N1] and [D, 1, N1, J]: slots of weight 0
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


class _Hypothesis(NamedTuple):
    tokens: list[int]     # generated ids, ending in the end token if it was produced
    logprob: float
    mass: np.ndarray      # [N1] sentence attention summed over its decoded steps


def rank_normalize(scores: np.ndarray) -> np.ndarray:
    """Map raw scores to (R - rank) / (R - 1); ties favor the smaller index."""
    r = len(scores)
    if r == 1:
        return np.ones(1)
    nscore = np.empty(r)
    for position, idx in enumerate(descending_order(scores)):
        nscore[idx] = (r - (position + 1)) / (r - 1)
    return nscore


def make_labels(doc: Document, reference: Sequence[str]) -> np.ndarray:
    """1.0 where the sentence has positive bigram recall against the reference."""
    if not reference:
        raise InputError("labels require a non-empty reference")
    labels = np.zeros(doc.n_sentences)
    labels[positive_indices(oracle_similarities(doc, reference))] = 1.0
    return labels


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

    def _bigru_sequence(self, x: Tensor, mask: np.ndarray, prefix: str) -> tuple[Tensor, Tensor]:
        """Bidirectional GRU over axis 1 of ``x`` [rows, steps, d_in] as one two-direction op.

        Returns (states [rows, steps, 2*half], forward then backward; final states
        [rows, 2*half]: forward at each row's last valid step, backward at its first).
        """
        return ad.gru_sequence(x, mask, (self._gru(f"{prefix}.f"), self._gru(f"{prefix}.b")))

    def encode(self, *docs: Document, training: bool = False,
               rng: np.random.Generator | None = None) -> Encoded:
        """Word-level then sentence-level bidirectional encoding of one or more documents.

        The documents fill one [D, N1, J] id matrix of sentence slots.  The
        word GRU takes its D*N1 slots as rows, where an empty slot's row is
        all masked and stays zero; the sentence GRU runs over [documents,
        slots] with each document's own sentence count as its mask.
        Every sentence and word of every document is encoded: N1 and J are
        the group's longest document and sentence.  ``max_sentences`` and
        ``max_words`` are not read here; :func:`train` cuts its documents
        to them before they get here.
        """
        cfg = self.config
        lengths = np.zeros((len(docs), max(d.n_sentences for d in docs)), dtype=np.intp)  # 0: empty
        for row, doc in zip(lengths, docs):
            row[: doc.n_sentences] = [len(sentence) for sentence in doc.sentences]
        word_mask = np.arange(lengths.max()) < lengths[..., None]   # [D, N1, J]
        ids = np.full(word_mask.shape, Vocab.PAD, dtype=np.intp)
        ids[word_mask] = self.vocab.encode([w for doc in docs for s in doc.sentences for w in s])
        n_docs, n1, j_max = ids.shape
        sent_mask = lengths > 0

        drop = cfg.dropout if training else 0.0
        if drop > 0.0 and rng is None:
            raise DomainError("training-mode encode with dropout requires an rng")
        words = ad.getitem(self.params["embed"], ids.reshape(-1, j_max))  # [D*N1, J, e]
        for layer in range(cfg.word_layers):
            if layer > 0 and drop > 0.0:
                words = ad.dropout(words, drop, rng)
            words, reps = self._bigru_sequence(words, word_mask.reshape(-1, j_max),
                                               f"word.{layer}")  # reps [D*N1, hidden]

        seq = ad.reshape(reps, (n_docs, n1, -1))
        for layer in range(cfg.sent_layers):
            if layer > 0 and drop > 0.0:
                seq = ad.dropout(seq, drop, rng)
            seq, summary = self._bigru_sequence(seq, sent_mask, f"sent.{layer}")
        slot_word_mask = word_mask.copy()
        slot_word_mask[~sent_mask, 0] = True
        return Encoded(
            summary=summary,
            sent_mask=sent_mask,
            slot_states=seq,
            slot_words=ad.reshape(words, (n_docs, n1 * j_max, -1)),
            slot_word_mask=slot_word_mask,
        )

    # -- heads ---------------------------------------------------------------

    def classifier_logits(self, sent_states: Tensor) -> Tensor:
        """Per-sentence log-odds of carrying reference content."""
        return ad.add(ad.matmul(sent_states, self.params["cls.w"]), self.params["cls.b"])

    def classifier_scores(self, sent_states: Tensor) -> Tensor:
        """Per-sentence probability of carrying reference content."""
        return ad.sigmoid(self.classifier_logits(sent_states))

    def _decoder_start(self, enc: Encoded) -> tuple[Tensor, DecoderMemory]:
        """Initial states [D, h] and the projections every decode step of each document reads.

        The masks are checked here, once: every document and sentence slot permits an entry."""
        p = self.params
        memory = DecoderMemory(
            sent_keys=ad.matmul(enc.slot_states, p["dec.att_sent.w"]),
            word_keys=ad.matmul(enc.slot_words, p["dec.att_word.w"]),
            words=enc.slot_words,
            blocked=(ad.blocked_entries(enc.sent_mask[:, None]),
                     ad.blocked_entries(enc.slot_word_mask[:, None])),
            gru=self._gru("dec.gru"),
        )
        state = ad.matmul(enc.summary, ad.transpose(p["dec.init.w"]))
        return ad.tanh(ad.add(state, p["dec.init.b"])), memory

    def _decode_step(self, prev_ids, state: Tensor,
                     memory: DecoderMemory) -> tuple[Tensor, Tensor, Tensor]:
        """One decoder step for B hypotheses of each of the D documents in ``memory``.

        ``prev_ids`` holds each hypothesis's previous token and ``state`` is
        [D*B, h], document by document.  Returns (new state [D*B, h],
        vocabulary logits [D*B, V], sentence attention [D*B, N1]).
        """
        emb = ad.getitem(self.params["embed"], np.asarray(prev_ids, dtype=np.intp))  # [D*B, e]
        state = ad.gru_cell(emb, state, memory.gru)
        rows, h = state.shape
        logits, alpha = self._readout(ad.reshape(state, (memory.words.shape[0], -1, h)), memory)
        return state, ad.reshape(logits, (rows, -1)), ad.reshape(alpha, (rows, -1))

    def _readout(self, state: Tensor, memory: DecoderMemory) -> tuple[Tensor, Tensor]:
        """Vocabulary logits [D, T, V] and sentence attention [D, T, N1] of decoder states
        [D, T, h]; row d reads document d's memory (:func:`autodiff.hierarchical_readout`)."""
        p = self.params
        return ad.hierarchical_readout(state, memory.sent_keys, memory.word_keys, memory.words,
                                       memory.blocked, (p["dec.comb.w"], p["dec.comb.b"]),
                                       (p["dec.out.w"], p["dec.out.b"]))

    def _teacher_forced(self, enc: Encoded, targets: Sequence[list[int]]) -> Tensor:
        """Logits [target tokens, V] of each target token after the ones before it, documents
        in order: one recurrence over [D, longest target] and one readout."""
        start, memory = self._decoder_start(enc)
        lengths = np.array([len(target) for target in targets])
        mask = np.arange(lengths.max()) < lengths[:, None]
        prev_ids = np.full(mask.shape, Vocab.PAD, dtype=np.intp)
        prev_ids[mask] = np.concatenate([[Vocab.BOS, *target[:-1]] for target in targets])
        emb = ad.getitem(self.params["embed"], prev_ids)
        states, _ = ad.gru_sequence(emb, mask, memory.gru, h0=start)
        return ad.getitem(self._readout(states, memory)[0], np.nonzero(mask))

    # -- losses ---------------------------------------------------------------

    def _target_ids(self, target: Sequence) -> list[int]:
        cfg = self.config
        if isinstance(target, str):
            raise InputError("target must be a sequence of tokens, not one string")
        if len(target) == 0:
            raise InputError("target sequence is empty")
        if len(target) > cfg.max_target:
            raise InputError(f"target length {len(target)} exceeds limit {cfg.max_target}")
        if all(isinstance(t, str) for t in target):
            return self.vocab.encode(target)
        if not all(isinstance(t, (int, np.integer)) and not isinstance(t, bool) for t in target):
            raise InputError("target must be all token strings or all integer token ids")
        ids = [int(t) for t in target]
        if min(ids) < 0 or max(ids) >= cfg.vocab_size:
            raise InputError("target token id outside the vocabulary")
        return ids

    def _label_loss_from(self, enc: Encoded, labels: Sequence[np.ndarray]) -> Tensor:
        """Binary cross-entropy of every sentence label, as the cross-entropy of the
        two-class rows [0 | logit]: softmax([0, x]) = [1 - sigmoid(x), sigmoid(x)]."""
        for doc_labels, count in zip(labels, enc.sent_mask.sum(axis=1)):
            doc_labels = np.asarray(doc_labels)
            if doc_labels.shape != (count,):
                raise InputError(
                    f"labels shape {doc_labels.shape} does not match {count} sentences"
                )
            # a cast would turn 0.5 into 0 and NaN into some integer
            if not np.isin(doc_labels, (0, 1)).all():
                raise InputError("labels must each be 0 or 1")
        logit = ad.getitem(self.classifier_logits(enc.slot_states), np.nonzero(enc.sent_mask))
        rows = ad.concat([Tensor(np.zeros((logit.shape[0], 1))),
                          ad.reshape(logit, (-1, 1))], axis=1)
        return ad.cross_entropy_logits(rows, np.concatenate(labels).astype(np.intp))

    def batch_loss(self, batch: Sequence[tuple[Document, Sequence, np.ndarray]],
                   gamma: float | None = None, training: bool = False, rng=None) -> Tensor:
        """Summed :meth:`mcs_loss` of (document, target, labels) triples, as one graph.

        One encoding packs every document; one cross-entropy covers every
        target token and one every sentence label.
        """
        gamma = self.config.gamma if gamma is None else float(gamma)
        if not 0.0 <= gamma <= 1.0:
            raise DomainError(f"gamma must be in [0, 1], got {gamma}")
        docs, targets, labels = zip(*batch)
        enc = self.encode(*docs, training=training, rng=rng)
        if gamma == 1.0:
            return self._label_loss_from(enc, labels)
        targets = [self._target_ids(target) for target in targets]
        l_seq = ad.cross_entropy_logits(self._teacher_forced(enc, targets), np.concatenate(targets))
        if gamma == 0.0:
            return l_seq
        return ad.add(ad.mul(Tensor(np.float64(gamma)), self._label_loss_from(enc, labels)),
                      ad.mul(Tensor(np.float64(1.0 - gamma)), l_seq))

    def mcs_loss(self, doc: Document, target: Sequence, labels: np.ndarray,
                 gamma: float | None = None, training: bool = False, rng=None) -> Tensor:
        """Convex mix: gamma * labelling + (1 - gamma) * generation.

        Labelling is the classifier's binary cross-entropy over sentence
        labels of 0 or 1; generation is the summed teacher-forced NLL of the
        target.  This is :meth:`batch_loss` of a batch of one.
        """
        return self.batch_loss([(doc, target, labels)], gamma, training, rng)

    # -- inference -----------------------------------------------------------

    def _beam_from_encoded(self, enc: Encoded, width: int = 4, length_penalty: float = 2.0,
                           min_len: int = 1, max_len: int | None = None,
                           no_repeat_ngram: int = 3) -> list[_Hypothesis]:
        """Length-penalized beam decode of every document in ``enc``: the top hypothesis of each.

        The end token is suppressed while fewer than ``min_len`` tokens
        (counting the end step) have been generated; next tokens that
        would repeat an ``no_repeat_ngram``-gram already present in the
        hypothesis are banned; ``max_len`` defaults to ``max_target``.

        The documents decode in lock step as [documents x width] rows of
        tokens, log-probability (-inf on a free row) and sentence-attention
        mass, which step with the decoder state, so a hypothesis carries the
        mass of every step it decoded, its end step included.  Per document,
        each step's candidates are, in row order, the ``width + 1`` best next
        tokens of each row (stable order, banned tokens dropped); in stable
        log-probability order, an end-token candidate finishes while fewer
        than ``width`` have finished over the whole search, and any other
        survives while fewer than ``width`` survive this step.  The winner
        is the first best-scoring finished hypothesis unless a live one
        scores strictly higher.
        """
        if width < 1:
            raise DomainError(f"beam width must be >= 1, got {width}")
        max_len = self.config.max_target if max_len is None else int(max_len)
        start, memory = self._decoder_start(enc)
        n_docs, n1 = enc.sent_mask.shape
        docs, slots = np.arange(n_docs)[:, None], np.arange(width)
        ranks = min(width + 1, self.config.vocab_size)   # candidates per row
        state = Tensor(start.data.repeat(width, axis=0))   # [documents * width, h]
        tokens = np.zeros((n_docs, width, 0), dtype=np.intp)
        logprob = np.full((n_docs, width), -np.inf)
        logprob[:, 0] = 0.0
        mass = np.zeros((n_docs, width, n1))
        n_finished = np.zeros((n_docs, 1), dtype=np.intp)
        best: list[_Hypothesis | None] = [None] * n_docs   # first best-scoring finished one
        best_score = np.full(n_docs, -np.inf)

        for step in range(max_len):
            prev = tokens[..., -1] if step else np.full((n_docs, width), Vocab.BOS)
            state, logits, alpha = self._decode_step(prev.ravel(), state, memory)
            mass = mass + alpha.data.reshape(mass.shape)
            logp = ad.log_softmax(logits.data).reshape(n_docs, width, -1)
            if step + 1 < min_len:
                logp[..., Vocab.EOS] = -np.inf
            n = no_repeat_ngram
            if 1 <= n <= step:   # each earlier n-gram whose first n - 1 tokens end the row
                starts = step - n + 1   # the n-grams' start positions, 0 .. starts - 1
                hit = np.ones((n_docs, width, starts), dtype=bool)
                for k in range(n - 1):
                    hit &= tokens[..., k : starts + k] == tokens[..., starts + k, None]
                d, w, i = np.nonzero(hit)
                logp[d, w, tokens[d, w, i + n - 1]] = -np.inf
            # each row's best tokens, one argmax a rank, ties to the lower id; a taken token
            # becomes -inf, as NaN does, and every -inf candidate is dropped below
            rest = np.fmax(logp, -np.inf)
            order = np.empty((n_docs, width, ranks), dtype=np.intp)
            picked = np.empty(order.shape)
            for rank in range(ranks):
                order[..., rank] = top = rest.argmax(axis=2)
                picked[..., rank] = rest[docs, slots, top]
                rest[docs, slots, top] = -np.inf
            # per document, candidates read row-major (row, then rank), then by total
            totals = (logprob[..., None] + picked).reshape(n_docs, -1)
            by_total = np.argsort(-totals, axis=1, kind="stable")   # dropped ones sort last
            totals = totals[docs, by_total]
            next_tokens = order.reshape(n_docs, -1)[docs, by_total]
            parents = by_total // ranks
            ends = (next_tokens == Vocab.EOS) & np.isfinite(totals)
            grows = (next_tokens != Vocab.EOS) & np.isfinite(totals)
            ends &= n_finished + np.cumsum(ends, axis=1) <= width
            grows &= np.cumsum(grows, axis=1) <= width
            n_finished += ends.sum(axis=1, keepdims=True)
            for d, k in zip(*np.nonzero(ends)):
                score = totals[d, k] / (step + 1) ** length_penalty
                if score > best_score[d]:
                    row = parents[d, k]
                    best_score[d] = score
                    best[d] = _Hypothesis(tokens[d, row].tolist() + [Vocab.EOS],
                                          float(totals[d, k]), mass[d, row])
            front = np.argsort(~grows, axis=1, kind="stable")[:, :width]   # survivors first
            rows = parents[docs, front]
            tokens = np.concatenate([tokens[docs, rows], next_tokens[docs, front, None]], axis=2)
            logprob = np.where(grows[docs, front], totals[docs, front], -np.inf)
            if not np.isfinite(logprob).any():
                break
            state = Tensor(state.data[(docs * width + rows).ravel()])
            mass = mass[docs, rows]

        scores = logprob / max(tokens.shape[2], 1) ** length_penalty
        winners = []
        for d, row in enumerate(np.argmax(scores, axis=1)):   # a free row scores -inf
            if scores[d, row] > best_score[d]:
                winners.append(_Hypothesis(tokens[d, row].tolist(), float(logprob[d, row]),
                                           mass[d, row]))
            elif best[d] is None:
                raise DomainError("beam search produced no hypotheses")
            else:
                winners.append(best[d])
        return winners

    def inference_scores(self, *docs: Document) -> list[McsScores]:
        """Rank-fused classifier and attention channels of every sentence of each document.

        One encoding of the whole documents, one classifier pass and one
        lock-step beam serve the whole group.
        """
        if not docs:
            return []
        with ad.no_grad():
            enc = self.encode(*docs)
            z_hat = self.classifier_scores(enc.slot_states).data   # [D, N1]
            beams = self._beam_from_encoded(enc)
        scores = []
        for doc, doc_z, beam in zip(docs, z_hat, beams):
            doc_z, attn_mass = doc_z[: doc.n_sentences], beam.mass[: doc.n_sentences]
            scores.append(McsScores(doc_z, attn_mass,
                                    rank_normalize(doc_z) + rank_normalize(attn_mass)))
        return scores

    def fused_scores(self, doc: Document) -> list[float]:
        """Scorer-callable form of the fused channel for ranking pipelines."""
        return [float(v) for v in self.inference_scores(doc)[0].fused]


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def recall_rate(selections, docs, references) -> float | None:
    """Mean percentage of positive-overlap sentences retained by the selections.

    Documents with no positive-overlap sentence are excluded from the mean;
    None if that leaves none.
    """
    return positive_recall(selections, [_positives(d, r) for d, r in zip(docs, references)])


def _positives(doc: Document, reference: Sequence[str] | None) -> list[int]:
    """The document's positive-overlap sentences; none without a reference."""
    return positive_indices(oracle_similarities(doc, reference)) if reference else []


def positive_recall(selections, positives: Sequence[Sequence[int]]) -> float | None:
    """:func:`recall_rate` given each document's :func:`positive_indices`."""
    rates = [len(set(positive).intersection(selection.indices)) / len(positive)
             for selection, positive in zip(selections, positives) if positive]
    return 100.0 * float(np.mean(rates)) if rates else None


def random_selection_recall(examples: Sequence[Example], budget: int,
                            trials: int, seed: int) -> float:
    """Monte-Carlo recall of uniformly random rankings at the same budget."""
    positives = [_positives(ex.doc, ex.reference) for ex in examples]
    if not any(positives):
        raise InputError("no document has a positive-overlap sentence")
    rng = np.random.default_rng(seed)
    rates = []
    for _ in range(trials):
        noise = [rng.random(ex.doc.n_sentences).tolist() for ex in examples]
        rates.append(positive_recall([select(ex.doc, "model", budget, scorer=lambda d, s=s: s)
                                      for ex, s in zip(examples, noise)], positives))
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

    def __post_init__(self):
        for name in ("steps", "batch_size", "warmup", "val_every", "patience"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        # NaN cannot go into a JSON report, and a negative rate ascends
        if not 0.0 < self.lr_scale < math.inf:
            raise DomainError(f"lr_scale must be a finite number > 0, got {self.lr_scale}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise DomainError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


@dataclass
class TrainResult:
    model: McsModel
    history: list[dict]
    steps_run: int
    stopped_early: bool
    clipping: dict[str, int]   # what the training cut removed (:func:`_prepare`)


def _prepare(model: McsModel, examples: Sequence[Example]
             ) -> tuple[list[tuple[Document, list[int], np.ndarray]], dict[str, int]]:
    """(document, target ids, labels) of each example, its document cut to its first
    ``max_sentences`` sentences of at most ``max_words`` words, and counts of that cut."""
    cfg = model.config
    prepared = []
    clipping = dict.fromkeys(("clipped_documents", "dropped_sentences", "cut_sentences"), 0)
    for ex in examples:
        if not ex.reference:
            raise InputError(f"document {ex.doc.id} has no reference; cannot train")
        kept = ex.doc.sentences[: cfg.max_sentences]
        dropped, cut = ex.doc.n_sentences - len(kept), sum(len(s) > cfg.max_words for s in kept)
        clipping["clipped_documents"] += bool(dropped or cut)
        clipping["dropped_sentences"] += dropped
        clipping["cut_sentences"] += cut
        doc = Document([s[: cfg.max_words] for s in kept], id=ex.doc.id)
        labels = make_labels(ex.doc, ex.reference)[: len(kept)]
        prepared.append((doc, model._target_ids(ex.reference[: cfg.max_target]), labels))
    return prepared, clipping


@np.errstate(over="ignore", invalid="ignore")
def train(model: McsModel, examples: Sequence[Example], gamma: float | None = None,
          settings: TrainSettings | None = None) -> TrainResult:
    """Mini-batch descent on the mixed loss under the inverse-sqrt schedule.

    Deterministic under ``settings.seed``; aborts with a diagnostic if the
    loss goes non-finite, the one report of a divergence (numpy's overflow
    warnings are silenced); stops early when validation loss has not
    improved for ``patience`` consecutive evaluations.
    """
    settings = settings or TrainSettings()
    prepared, clipping = _prepare(model, examples)
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
        return model.batch_loss(val_set, gamma=gamma).item() / len(val_set)

    while step < settings.steps:
        while len(queue) < settings.batch_size:
            queue.extend(rng.permutation(len(train_set)).tolist())
        batch = [train_set[queue.pop(0)] for _ in range(settings.batch_size)]
        step += 1
        lr = lr_schedule(step, settings.warmup, settings.lr_scale)
        with ad.Tape() as tape:
            loss = ad.mul(model.batch_loss(batch, gamma=gamma, training=True, rng=rng),
                          Tensor(np.float64(1.0 / len(batch))))
            tape.backward(loss)
        batch_loss = loss.item()
        if not math.isfinite(batch_loss):
            raise TrainingDivergedError(f"loss became {batch_loss} at step {step} (lr={lr:.3e})")
        optimizer.step(lr)
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

    return TrainResult(model, history, step, stopped_early, clipping)
