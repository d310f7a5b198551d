"""Local windowed self-attention and a desk-scale encoder-decoder.

The encoder restricts self-attention to a symmetric band of total width W
around each query position (boundary rows simply see fewer neighbors);
decoder self-attention stays causal and cross-attention stays full.  An
integer window runs the encoder through :func:`autodiff.banded_attention`,
which computes its [H x N x 2h+1] band (h = W // 2) in blocks of queries,
so time and memory grow with N * W rather than N^2.  A ``"full"`` window,
cross-attention and decoder self-attention go through
:func:`autodiff.dense_attention`, one op that keeps one [H x Nq x Nk]
buffer per layer: the scores, softmaxed in place into the layer's map.
:func:`build_local_mask` is the dense oracle the band is tested against;
only :meth:`ToySeq2Seq.encoder_forward`'s maps expand a band to N x N.

Encoder positions are a gather from the stored base table, tiled
palindromically (copy, then flipped copy, alternating) to the input's
length, so adjacent blocks meet at equal rows and any source length works.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_tensors, restore, save_tensors
from .errors import ContractError, DimensionError, DomainError, InputError

FULL = "full"

# Largest |row sum - 1| an attention map may show.
ROW_SUM_TOL = 1e-9


def _is_full(window) -> bool:
    return isinstance(window, str) and window.lower() == FULL


def build_local_mask(n: int, window: int) -> np.ndarray:
    """Boolean [n x n] mask permitting |i - j| <= floor(window / 2).

    The dense reference the band kernel is tested against; a window of at
    least 2n - 1 permits everything.
    """
    if n < 1:
        raise DomainError(f"mask size must be >= 1, got {n}")
    window = int(window)
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window}")
    half = window // 2
    offsets = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return offsets <= half


def causal_mask(n: int) -> np.ndarray:
    """Boolean [n x n] mask permitting j <= i."""
    return np.tril(np.ones((n, n), dtype=bool))


@dataclass
class AttentionParams:
    """Projection weights of one multi-head attention block."""

    FIELDS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor

    @classmethod
    def init(cls, d_model: int, rng: np.random.Generator) -> "AttentionParams":
        def w():
            bound = 1.0 / math.sqrt(d_model)
            return ad.parameter(rng.uniform(-bound, bound, size=(d_model, d_model)))

        def b():
            return ad.parameter(np.zeros(d_model))

        return cls(w(), b(), w(), b(), w(), b(), w(), b())

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{name}": getattr(self, name) for name in self.FIELDS}


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    n, d = x.shape
    return ad.transpose(ad.reshape(x, (n, n_heads, d // n_heads)), (1, 0, 2))


def _project_heads(q: Tensor, k: Tensor, v: Tensor, params: AttentionParams,
                   n_heads: int) -> tuple[Tensor, Tensor, Tensor]:
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise DimensionError(f"expected 2-D q/k/v, got {q.shape}, {k.shape}, {v.shape}")
    return (_split_heads(ad.add(ad.matmul(q, params.wq), params.bq), n_heads),
            _split_heads(ad.add(ad.matmul(k, params.wk), params.bk), n_heads),
            _split_heads(ad.add(ad.matmul(v, params.wv), params.bv), n_heads))


def _merge_heads(ctx: Tensor, params: AttentionParams) -> Tensor:
    n_heads, n, d_head = ctx.shape
    merged = ad.reshape(ad.transpose(ctx, (1, 0, 2)), (n, n_heads * d_head))
    return ad.add(ad.matmul(merged, params.wo), params.bo)


def multi_head_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray | None,
    params: AttentionParams,
    n_heads: int,
) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention over permitted positions.

    Returns the projected output [Nq x d_model] and the attention weights
    [heads x Nq x Nk], read-only (:func:`autodiff.dense_attention`).  Each row
    of ``mask`` [Nq x Nk] must permit a key; ``mask=None`` permits every key.
    """
    ctx, attn = ad.dense_attention(*_project_heads(q, k, v, params, n_heads), mask)
    return _merge_heads(ctx, params), attn


def banded_multi_head_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    window: int,
    params: AttentionParams,
    n_heads: int,
) -> tuple[Tensor, np.ndarray]:
    """:func:`multi_head_attention` under ``build_local_mask(N, window)``, in O(N * W).

    Queries and keys must be the same length.  Returns the projected
    output [N x d_model] and the band probabilities [heads x N x 2h+1]
    (:func:`autodiff.band_to_dense` expands them).
    """
    window = int(window)
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window}")
    ctx, band = ad.banded_attention(*_project_heads(q, k, v, params, n_heads), window // 2)
    return _merge_heads(ctx, params), band


def extend_positional_embedding(base: Tensor, target_len: int) -> Tensor:
    """Tile a positional table to ``target_len`` rows by alternating copy/flip.

    Position p in block b = p // L at offset r = p % L maps to base row r
    for even b and row L-1-r for odd b, so every block boundary repeats a
    row and the table has period 2L.  Any ``target_len`` >= 1 is allowed;
    the last block may be partial.
    """
    if target_len < 1:
        raise DomainError(f"target length must be >= 1, got {target_len}")
    length = base.shape[0]
    p = np.arange(target_len)
    block, offset = p // length, p % length
    rows = np.where(block % 2 == 0, offset, length - 1 - offset)
    return ad.getitem(base, rows)


def mean_attention_distance(weights) -> float:
    """Attention-weighted average of |i - j| over one head's [N x N] map."""
    w = weights.data if isinstance(weights, Tensor) else np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionError(f"expected a square attention map, got {w.shape}")
    size = w.shape[0]
    row_sums = w.sum(axis=-1)
    if np.abs(row_sums - 1.0).max() > ROW_SUM_TOL:
        raise ContractError(
            f"attention rows are not row-stochastic (sum deviates > {ROW_SUM_TOL:g})"
        )
    dist = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
    return float((w * dist).sum() / size)


def uniform_attention_distance(n: int) -> float:
    """Mean distance under uniform attention: (N^2 - 1) / (3N)."""
    return (n * n - 1.0) / (3.0 * n)


@dataclass(frozen=True)
class ToyModelConfig:
    """Dimensions of the desk-scale encoder-decoder.

    Defaults are artifact-sized so every invariant checks in milliseconds.
    ``max_src`` may be any length >= 1: the stored ``pos_base_len``-row
    encoder positional table is tiled to each input's length.
    """

    vocab: int = 101
    d_model: int = 16
    n_heads: int = 4
    enc_layers: int = 2
    dec_layers: int = 2
    ffn_dim: int = 32
    pos_base_len: int = 16
    max_src: int = 64
    max_tgt: int = 16
    window: int | str = FULL
    bos_id: int = 1

    def __post_init__(self):
        for name in ("vocab", "d_model", "n_heads", "enc_layers", "dec_layers",
                     "ffn_dim", "pos_base_len", "max_src", "max_tgt"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise DomainError("d_model must be divisible by n_heads")
        if not _is_full(self.window) and int(self.window) < 1:
            raise DomainError(f"window must be >= 1 or '{FULL}'")


class ToySeq2Seq:
    """Post-norm transformer encoder-decoder with a banded encoder.

    Parameters live in a flat name -> Tensor map so checkpoints are a
    direct dump of :meth:`parameters`.
    """

    def __init__(self, config: ToyModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    # -- construction -----------------------------------------------------

    @classmethod
    def init(cls, config: ToyModelConfig | None = None, seed: int = 0) -> "ToySeq2Seq":
        config = config or ToyModelConfig()
        rng = np.random.default_rng(seed)
        d, f = config.d_model, config.ffn_dim
        params: dict[str, Tensor] = {}

        def w(rows, cols):
            bound = 1.0 / math.sqrt(rows)
            return ad.parameter(rng.uniform(-bound, bound, size=(rows, cols)))

        params["embed"] = ad.parameter(rng.normal(scale=0.25, size=(config.vocab, d)))
        params["pos_enc"] = ad.parameter(rng.normal(scale=0.25, size=(config.pos_base_len, d)))
        params["pos_dec"] = ad.parameter(rng.normal(scale=0.25, size=(config.max_tgt, d)))

        def block(prefix: str, cross: bool):
            params.update(AttentionParams.init(d, rng).named(f"{prefix}.attn"))
            if cross:
                params.update(AttentionParams.init(d, rng).named(f"{prefix}.xattn"))
                params[f"{prefix}.ln_x.g"] = ad.parameter(np.ones(d))
                params[f"{prefix}.ln_x.b"] = ad.parameter(np.zeros(d))
            params[f"{prefix}.ffn.w1"] = w(d, f)
            params[f"{prefix}.ffn.b1"] = ad.parameter(np.zeros(f))
            params[f"{prefix}.ffn.w2"] = w(f, d)
            params[f"{prefix}.ffn.b2"] = ad.parameter(np.zeros(d))
            params[f"{prefix}.ln_a.g"] = ad.parameter(np.ones(d))
            params[f"{prefix}.ln_a.b"] = ad.parameter(np.zeros(d))
            params[f"{prefix}.ln_f.g"] = ad.parameter(np.ones(d))
            params[f"{prefix}.ln_f.b"] = ad.parameter(np.zeros(d))

        for i in range(config.enc_layers):
            block(f"enc.{i}", cross=False)
        for i in range(config.dec_layers):
            block(f"dec.{i}", cross=True)
        params["out.w"] = w(d, config.vocab)
        params["out.b"] = ad.parameter(np.zeros(config.vocab))
        return cls(config, params)

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def _attn_params(self, prefix: str) -> AttentionParams:
        return AttentionParams(*(self.params[f"{prefix}.{n}"] for n in AttentionParams.FIELDS))

    # -- forward ----------------------------------------------------------

    def _check_tokens(self, tokens, limit: int, what: str) -> np.ndarray:
        ids = np.asarray(tokens)
        if ids.ndim != 1 or ids.size == 0:
            raise InputError(f"{what} must be a non-empty 1-D token sequence")
        if ids.dtype.kind not in "iu":  # floats would truncate and bools pass as 0/1
            raise InputError(f"{what} must be integer token ids, got {ids.dtype}")
        if ids.size > limit:
            raise InputError(f"{what} length {ids.size} exceeds limit {limit}")
        if ids.min() < 0 or ids.max() >= self.config.vocab:
            raise InputError(f"{what} contains a token id outside the vocabulary")
        return ids.astype(np.intp, copy=False)

    def _encoder_positions(self, n: int) -> Tensor:
        return extend_positional_embedding(self.params["pos_enc"], n)

    def _block_forward(self, prefix: str, x: Tensor, attn_out: Tensor,
                       cross_states: Tensor | None = None) -> Tensor:
        """The rest of one post-norm block, given its self-attention output ``attn_out``."""
        p = self.params
        x = ad.layer_norm(ad.add(x, attn_out), p[f"{prefix}.ln_a.g"], p[f"{prefix}.ln_a.b"])
        if cross_states is not None:
            xatt_out, _ = multi_head_attention(
                x, cross_states, cross_states, None,
                self._attn_params(f"{prefix}.xattn"), self.config.n_heads,
            )
            x = ad.layer_norm(ad.add(x, xatt_out), p[f"{prefix}.ln_x.g"], p[f"{prefix}.ln_x.b"])
        h = ad.gelu(ad.add(ad.matmul(x, p[f"{prefix}.ffn.w1"]), p[f"{prefix}.ffn.b1"]))
        ffn = ad.add(ad.matmul(h, p[f"{prefix}.ffn.w2"]), p[f"{prefix}.ffn.b2"])
        return ad.layer_norm(ad.add(x, ffn), p[f"{prefix}.ln_f.g"], p[f"{prefix}.ln_f.b"])

    def encoder_forward(self, tokens, need_weights: bool = True) -> tuple[Tensor, list[Tensor]]:
        """Embed, add positions, run banded self-attention layers.

        Returns final states [N x d_model] and per-layer attention maps
        [heads x N x N] (zero outside the band).  ``need_weights=False``
        returns no maps, so a banded encoder never forms an N x N array.
        """
        cfg = self.config
        ids = self._check_tokens(tokens, cfg.max_src, "source")
        n = ids.size
        x = ad.add(ad.getitem(self.params["embed"], ids), self._encoder_positions(n))
        full = _is_full(cfg.window)
        attns: list[Tensor] = []
        for i in range(cfg.enc_layers):
            params = self._attn_params(f"enc.{i}.attn")
            if full:
                attn_out, attn = multi_head_attention(x, x, x, None, params, cfg.n_heads)
            else:
                attn_out, attn = banded_multi_head_attention(x, x, x, cfg.window, params,
                                                             cfg.n_heads)
            x = self._block_forward(f"enc.{i}", x, attn_out)
            if need_weights:
                attns.append(attn if full else ad.band_to_dense(attn))
        return x, attns

    def seq2seq_forward(self, source, target) -> Tensor:
        """Teacher-forced per-step vocabulary logits [M x vocab].

        Step m conditions on the source and on target tokens before m
        (causal decoder self-attention, full cross-attention).
        """
        cfg = self.config
        enc_states, _ = self.encoder_forward(source, need_weights=False)
        tgt = self._check_tokens(target, cfg.max_tgt, "target")
        m = tgt.size
        dec_in = np.concatenate(([cfg.bos_id], tgt[:-1]))
        x = ad.add(
            ad.getitem(self.params["embed"], dec_in),
            ad.getitem(self.params["pos_dec"], np.arange(m)),
        )
        self_mask = causal_mask(m)
        for i in range(cfg.dec_layers):
            attn_out, _ = multi_head_attention(x, x, x, self_mask,
                                               self._attn_params(f"dec.{i}.attn"), cfg.n_heads)
            x = self._block_forward(f"dec.{i}", x, attn_out, enc_states)
        return ad.add(ad.matmul(x, self.params["out.w"]), self.params["out.b"])

    def loss(self, source, target) -> Tensor:
        """Summed cross-entropy of the target under teacher forcing."""
        logits = self.seq2seq_forward(source, target)
        return ad.cross_entropy_logits(logits, np.asarray(target, dtype=np.intp))

    # -- serialization ------------------------------------------------------

    CHECKPOINT_KIND = "toy_seq2seq"

    def save(self, path) -> None:
        save_tensors(path, self.params,
                     {"kind": self.CHECKPOINT_KIND, "config": asdict(self.config)})


def load_toy_model(path) -> ToySeq2Seq:
    return restore(load_tensors(path), ToySeq2Seq.CHECKPOINT_KIND,
                   lambda meta: ToySeq2Seq.init(ToyModelConfig(**meta["config"]), seed=0))
