"""Dense float64 tensors with tape-based reverse-mode differentiation.

Forward operations record adjoint closures on the :class:`Tape` that is the
innermost entry of the thread's tape stack; :class:`no_grad` is a null entry.
``Tape.backward`` replays the records in reverse order.
Gradients accumulate additively across fan-out, so callers reset them
(``Tape.zero_grads``) before running a second backward pass.  Storage is
row-major numpy float64 throughout; boolean masks are plain numpy arrays
and are never differentiated.

A tape is thread-confined: forward passes over independent graphs may run
concurrently as long as each thread uses its own tape.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ContractError, DegenerateRowError, DimensionError, DomainError

Array = np.ndarray

_tls = threading.local()


def _tape_stack() -> list["Tape | None"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def active_tape() -> "Tape | None":
    """The innermost entry of this thread's tape stack: the Tape that records, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class no_grad:
    """A null entry on the tape stack; the innermost entry wins, so a Tape inside it records."""

    def __enter__(self):
        _tape_stack().append(None)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
        return False


class Tensor:
    """Dense n-dimensional float64 array with optional gradient tracking.

    ``data`` is treated as immutable once the tensor participates in a
    recorded graph; only ``grad`` buffers mutate during backward.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None

    @classmethod
    def _wrap(cls, arr: Array) -> "Tensor":
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.grad = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def parameter(data) -> Tensor:
    """A leaf tensor that collects gradients."""
    return Tensor(data, requires_grad=True)


class _Record:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of executed operations; replayed in reverse by backward."""

    def __init__(self):
        self.records: list[_Record] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        top = _tape_stack().pop()
        if top is not self:
            raise ContractError("tape stack corrupted: exited a tape that is not innermost")
        return False

    def __len__(self) -> int:
        return len(self.records)

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` of every tracked tensor reachable from ``loss``.

        Gradients add onto whatever is already in the buffers; call
        :meth:`zero_grads` first for a fresh pass.
        """
        if loss.data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        for rec in reversed(self.records):
            g = rec.out.grad
            if g is None:
                continue
            grads = rec.backward_fn(g)
            for t, gt in zip(rec.inputs, grads):
                if gt is None or not t.requires_grad:
                    continue
                t.grad = gt if t.grad is None else t.grad + gt

    def zero_grads(self) -> None:
        for rec in self.records:
            rec.out.grad = None
            for t in rec.inputs:
                t.grad = None


def _apply(outdata: Array, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor._wrap(outdata)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.records.append(_Record(out, tuple(inputs), backward_fn))
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    ash, bsh = a.shape, b.shape
    return _apply(out, (a, b), lambda g: (_unbroadcast(g, ash), _unbroadcast(g, bsh)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _apply(ad * bd, (a, b),
                  lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _apply(out, (a,), lambda g: (g * (1.0 - out * out),))


def _sigmoid(x: Array) -> Array:
    # exp of -|x| cannot overflow; each sign takes its own stable form
    e = np.exp(-np.abs(x))
    d = 1.0 / (1.0 + e)
    return np.where(x >= 0, d, e * d)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    return _apply(out, (a,), lambda g: (g * out * (1.0 - out),))


_GELU_K = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Smooth tanh-form gelu; smoothness keeps finite-difference checks clean."""
    x = a.data
    inner = _GELU_K * (x + 0.044715 * (x * x * x))  # x**3 would call libm pow, ~60x slower
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def bwd(g):
        dinner = _GELU_K * (1.0 + 3 * 0.044715 * (x * x))  # recomputed, not kept on the tape
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner),)

    return _apply(out, (a,), bwd)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    if rate <= 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
    keep = rng.random(a.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out = a.data * keep * scale
    return _apply(out, (a,), lambda g: (g * keep * scale,))


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = np.asarray(a.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _apply(out, (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """``(x - mean) / sqrt(var + eps) * gain + bias`` over the last axis, as one op.

    The backward is the closed form (Ba et al. 2016): with x^ the normalized
    input, inv = (var + eps)^-1/2 and g^ = g * gain,
    dx = inv * (g^ - mean(g^) - x^ * mean(g^ * x^)).
    """
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = ((centered * centered).mean(axis=-1, keepdims=True) + eps) ** -0.5
    xhat = centered * inv
    out = xhat * gain.data + bias.data

    def bwd(g):
        gg = g * gain.data
        dx = gg - gg.mean(axis=-1, keepdims=True)
        dx -= xhat * (gg * xhat).mean(axis=-1, keepdims=True)
        dx *= inv
        return dx, _unbroadcast(g * xhat, gain.shape), _unbroadcast(g, bias.shape)

    return _apply(out, (x, gain, bias), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    ash = a.shape
    return _apply(a.data.reshape(shape), (a,), lambda g: (g.reshape(ash),))


def transpose(a: Tensor, axes=None) -> Tensor:
    inv = None if axes is None else np.argsort(axes)  # reversing the axes is its own inverse
    return _apply(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return _apply(out, tuple(tensors), lambda g: tuple(np.split(g, splits, axis=axis)))


def getitem(a: Tensor, idx) -> Tensor:
    out = a.data[idx]
    ash = a.shape

    def bwd(g):
        grad = np.zeros(ash, dtype=np.float64)
        np.add.at(grad, idx, g)
        return (grad,)

    return _apply(np.asarray(out, dtype=np.float64), (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of an N-D ``a`` (N >= 2) with ``b``.

    Supported: N-D @ N-D with identical batch dimensions (2-D @ 2-D the plain
    case), N-D @ 2-D (one matrix for every batch entry) and N-D @ 1-D
    (contraction over the last axis).
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim == 0 or (bd.ndim >= 3 and ad.ndim != bd.ndim):
        raise DimensionError(f"unsupported matmul arrangement: {a.shape} x {b.shape}")
    if ad.shape[-1] != bd.shape[-2 if bd.ndim >= 2 else 0]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    if bd.ndim >= 3 and ad.shape[:-2] != bd.shape[:-2]:
        raise DimensionError(f"matmul batch dimensions differ: {a.shape} x {b.shape}")
    out = np.matmul(ad, bd)

    def bwd(g):
        if bd.ndim == 1:  # out[...] = sum_k a[..., k] * b[k]
            return g[..., None] * bd, (ad * g[..., None]).sum(axis=tuple(range(ad.ndim - 1)))
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        if ad.ndim > 2 and bd.ndim == 2:
            # b serves every batch entry: its gradient is one product over all of them
            return (ga, ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        return (ga, np.matmul(np.swapaxes(ad, -1, -2), g))

    return _apply(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------


def blocked_entries(mask, shape: tuple[int, ...] | None = None) -> Array:
    """The entries ``mask`` blocks, as bools; ``mask`` must broadcast to ``shape`` (its own
    by default) and permit an entry in every row."""
    mask = np.asarray(mask, dtype=bool)
    shape = mask.shape if shape is None else shape
    if mask.ndim > len(shape) or any(m not in (1, s) for m, s in zip(mask.shape[::-1], shape[::-1])):
        raise DimensionError(f"mask {mask.shape} does not broadcast to {shape}")
    ok = mask.any(axis=-1)  # broadcasting only repeats the mask's rows
    if not ok.all():
        bad = np.argwhere(~ok)[0]
        raise DegenerateRowError(f"softmax row {tuple(int(i) for i in bad)} has no permitted entry")
    return ~mask


def _softmax_rows(buf: Array, blocked: Array | None) -> None:
    """Row softmax over the last axis of ``buf``, in place; ``blocked`` slots come out exactly 0."""
    if blocked is not None:
        np.copyto(buf, -np.inf, where=blocked)
    buf -= buf.max(axis=-1, keepdims=True)
    np.exp(buf, out=buf)  # blocked slots: exp(-inf) == 0 exactly
    buf /= buf.sum(axis=-1, keepdims=True)


def _softmax_rows_adjoint(probs: Array, g: Array) -> Array:  # overwrites g
    g -= np.einsum("...l,...l->...", probs, g)[..., None]
    g *= probs  # the logits' gradient; 0 in every blocked slot
    return g


def masked_softmax(logits: Tensor, mask: Array | None) -> Tensor:
    """Row softmax over the last axis with hard masking.

    Masked entries come out exactly 0; each row of permitted entries sums
    to 1.  Stabilized by subtracting the row max over permitted entries.
    ``mask=None`` permits every entry; a mask must broadcast to the logits.
    """
    blocked = None if mask is None else blocked_entries(mask, logits.shape)
    out = np.array(logits.data)
    _softmax_rows(out, blocked)
    # a copy: an op such as ``add`` may hand this same array to another input
    return _apply(out, (logits,), lambda g: (_softmax_rows_adjoint(out, g.copy()),))


_DENSE_BLOCK_ROWS = 32


def dense_attention(q: Tensor, k: Tensor, v: Tensor, mask: Array | None) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention of [H x Nq x d] q over [H x Nk x d] k and v, as one op.

    ``mask`` broadcasts to [H x Nq x Nk]; ``None`` permits every key.  q is scaled by
    1/sqrt(d) before the product, so only dq is scaled at the end.  One buffer holds
    the scores, then in place the probabilities, which the backward reads; returns the
    context [H x Nq x d] and that buffer as a Tensor, which callers must not modify.
    The backward runs over blocks of 32 query rows through one [H x 32 x Nk] scratch
    for the blocks' score gradients, so training forms no second [H x Nq x Nk] array.
    """
    if q.ndim != 3 or k.ndim != 3 or v.shape != k.shape or k.shape[::2] != q.shape[::2]:
        raise DimensionError(f"dense_attention got q {q.shape}, k {k.shape}, v {v.shape}")
    blocked = None if mask is None else blocked_entries(mask, q.shape[:2] + k.shape[1:2])
    (n_heads, n_q, _), n_k, b = q.shape, k.shape[1], _DENSE_BLOCK_ROWS
    scale = 1.0 / math.sqrt(q.shape[-1])
    buf = np.matmul(q.data * scale, k.data.swapaxes(-1, -2))
    _softmax_rows(buf, blocked)

    def bwd(g):
        dq, dk, dv = np.empty(q.shape), np.zeros(k.shape), np.zeros(v.shape)
        scratch = np.empty((n_heads, min(n_q, b), n_k))
        for i in range(0, n_q, b):
            rows = slice(i, i + b)
            probs, g_rows, ds = buf[:, rows], g[:, rows], scratch[:, :min(b, n_q - i)]
            np.matmul(g_rows, v.data.swapaxes(-1, -2), out=ds)
            _softmax_rows_adjoint(probs, ds)  # the block's d(scores)
            np.matmul(ds, k.data, out=dq[:, rows])
            dk += np.matmul(ds.swapaxes(-1, -2), q.data[:, rows] * scale)
            dv += np.matmul(probs.swapaxes(-1, -2), g_rows)
        return dq * scale, dk, dv

    return _apply(np.matmul(buf, v.data), (q, k, v), bwd), Tensor._wrap(buf)


def hierarchical_readout(state: Tensor, sent_keys: Tensor, word_keys: Tensor, words: Tensor,
                         blocked: tuple[Array, Array], comb: tuple[Tensor, Tensor],
                         out: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
    """Vocabulary logits [D x T x V] of decoder states [D x T x h] through sentence and
    word attention (Nallapati et al. 2016, arXiv:1602.06023), as one op.

    Row d reads document d's sentence keys [D x N1 x h] and word keys and states
    [D x N1*J x h]; the slots in ``blocked`` ([D x 1 x N1] and [D x 1 x N1 x J], each row
    checked by :func:`blocked_entries`) get weight 0.  With comb = (Wc, bc), out = (Wo, bo),
    alpha = softmax over n of state . sent_keys[n], beta = softmax over j of state .
    word_keys[n, j] and logits = tanh([state | sum alpha[n] beta[n, j] words[n, j]] Wc^T
    + bc) Wo^T + bo.  Returns the logits and alpha [D x T x N1], a Tensor outside the graph
    that callers must not modify.  The backward is the composed ops' chain rule, bit for bit.
    """
    (w_c, b_c), (w_o, b_o), sd = comb, out, state.data
    (d, t, h), (n1, j) = sd.shape, blocked[1].shape[-2:]
    alpha = np.matmul(sd, sent_keys.data.swapaxes(-1, -2))
    _softmax_rows(alpha, blocked[0])
    beta = np.matmul(sd, word_keys.data.swapaxes(-1, -2)).reshape(d, t, n1, j)
    _softmax_rows(beta, blocked[1])
    weights = (alpha[..., None] * beta).reshape(d, t, n1 * j)
    joined = np.concatenate([sd, np.matmul(weights, words.data)], axis=2)
    feat = np.tanh(np.matmul(joined, w_c.data.T) + b_c.data)

    def outer(x, g):  # W's gradient in x W^T: one product over every (d, t) row
        return (x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])).T

    def bwd(g):
        g_feat = np.matmul(g, w_o.data) * (1.0 - feat * feat)
        g_joined, state_t = np.matmul(g_feat, w_c.data), sd.swapaxes(-1, -2)
        g_weights = np.matmul(g_joined[..., h:], words.data.swapaxes(-1, -2)).reshape(beta.shape)
        g_alpha = _softmax_rows_adjoint(alpha, (g_weights * beta).sum(axis=-1))
        g_beta = _softmax_rows_adjoint(beta, g_weights * alpha[..., None]).reshape(d, t, -1)
        g_state = g_joined[..., :h] + np.matmul(g_beta, word_keys.data)
        g_state += np.matmul(g_alpha, sent_keys.data)
        return (g_state, np.matmul(state_t, g_alpha).swapaxes(-1, -2),
                np.matmul(state_t, g_beta).swapaxes(-1, -2),
                np.matmul(weights.swapaxes(-1, -2), g_joined[..., h:]), outer(joined, g_feat),
                g_feat.sum(axis=(0, 1)), outer(feat, g), g.sum(axis=(0, 1)))

    inputs = (state, sent_keys, word_keys, words, w_c, b_c, w_o, b_o)
    return _apply(np.matmul(feat, w_o.data.T) + b_o.data, inputs, bwd), Tensor._wrap(alpha)


def banded_attention(q: Tensor, k: Tensor, v: Tensor, half: int) -> tuple[Tensor, Array]:
    """Scaled dot-product self-attention over keys with |i - j| <= ``half``.

    ``q``, ``k`` and ``v`` are per-head [H x N x d_head]; h = min(half, N - 1).
    Queries run in blocks of b rows (4 sqrt(h) rounded down to a power of
    two, at most h).  Block i attends to the L = b + 2h keys from i*b - h
    on, a strided window of zero-padded K and V, so scores and context are
    one batched matmul each.  The scores go with a row stride of L into an
    [H x N' x L+1] buffer (N' = N rounded up to whole blocks) whose row i
    then holds query i's band, key i + s - h in slot s <= 2h, and after it
    off-band slots only, so the softmax runs in place on its rows.  Off-band
    and past-the-end slots are -inf before the row max, so their probability
    is exactly 0.  No N x N array is formed; the buffer is ~(2h+b+1)/(2h+1) of the band.
    As in :func:`dense_attention`, q is scaled by 1/sqrt(d_head) before the product.

    Records one op; returns the context [H x N x d_head] and the band
    probabilities [H x N x 2h+1], a view of the buffer (see :func:`band_to_dense`).
    """
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(f"banded_attention expects equal [H x N x d] q/k/v, got "
                             f"{q.shape}, {k.shape}, {v.shape}")
    if half < 0:
        raise DomainError(f"band half-width must be >= 0, got {half}")
    n_heads, n, d_head = q.shape
    h = min(int(half), n - 1)
    b = max(1, min(h, 1 << (h.bit_length() + 3) // 2))  # b <= h + 1: padded rows see key N - 1
    rows, width, scale = -(-n // b) * b, b + 2 * h, 1.0 / math.sqrt(d_head)  # rows = N'

    def blocks(x):  # [H x N x d] as [H x blocks x b x d], zero rows past N
        x = x if rows == n else np.concatenate((x, np.zeros((n_heads, rows - n, d_head))), 1)
        return x.reshape(n_heads, rows // b, b, d_head)

    def block_view(buf):  # block i's row r, window slot c is buffer row i*b + r, slot c - r
        (t0, t1, t2), shape = buf.strides, (n_heads, rows // b, b, width)
        return as_strided(buf, shape, (t0, b * t1, t1 - t2, t2))

    def padded(x):  # padded row p is key p - h
        pad = np.zeros((n_heads, rows + 2 * h, d_head))
        pad[:, h:h + n] = x
        return pad

    def window(pad):  # block i reads padded rows i*b .. i*b + L - 1
        (s0, s1, s2), shape = pad.strides, (n_heads, rows // b, width, d_head)
        return as_strided(pad, shape, (s0, b * s1, s1, s2))

    def fold(window_grad):  # adjoint of window(padded(x)): add back b window slots at a time
        pad = padded(0.0)
        for j in range(0, width, b):
            window(pad)[:, :, j:j + b] += window_grad[:, :, j:j + b]
        return pad[:, h:h + n]

    buf = np.empty((n_heads, rows, width + 1))
    probs = block_view(buf)
    np.matmul(blocks(q.data * scale), window(padded(k.data)).swapaxes(-1, -2), out=probs)
    i, s = np.arange(rows)[:, None], np.arange(width + 1)
    _softmax_rows(buf, (s > 2 * h) | (s < h - i) | (s >= n + h - i))
    ctx = np.matmul(probs, window(padded(v.data))).reshape(n_heads, rows, d_head)[:, :n]

    def bwd(g):
        gb, dbuf = blocks(g), np.empty_like(buf)
        dprobs = block_view(dbuf)
        np.matmul(gb, window(padded(v.data)).swapaxes(-1, -2), out=dprobs)
        dbuf[:, b - 1::b, 2 * h + 1:] = 0.0  # the one region the strided product leaves unwritten
        dv = fold(np.matmul(probs.swapaxes(-1, -2), gb))
        _softmax_rows_adjoint(buf, dbuf)  # d(scores)
        dq = np.matmul(dprobs, window(padded(k.data)))
        dk = fold(np.matmul(dprobs.swapaxes(-1, -2), blocks(q.data * scale)))
        return dq.reshape(n_heads, rows, d_head)[:, :n] * scale, dk, dv

    return _apply(ctx, (q, k, v), bwd), buf[:, :n, :2 * h + 1]


def band_to_dense(band: Array) -> Tensor:
    """Scatter [H x N x 2h+1] band probabilities into an [H x N x N] map (zeros off-band)."""
    n_heads, n, width = band.shape
    flat = np.arange(0, n * n, n + 1)[:, None] + np.arange(width) - (width - 1) // 2
    keys = flat - np.arange(0, n * n, n)[:, None]
    flat[(keys < 0) | (keys >= n)] = n * n  # slots past either end land in a spare last entry
    dense = np.zeros((n_heads, n * n + 1))
    dense[:, flat] = band
    return Tensor._wrap(dense[:, :-1].reshape(n_heads, n, n))


def log_softmax(x: Array) -> Array:
    """Row log-softmax of a 2-D array as (x - max) - log1p(sum of the other exps), no tape op.

    One max entry per row leaves the sum (ties stay in), so a confident row keeps its
    relative precision (Blanchard, Higham & Higham 2019, arXiv:1909.03469).
    """
    rows, top = np.arange(x.shape[0]), x.argmax(axis=-1)
    shifted = x - x[rows, top][:, None]
    e = np.exp(shifted)
    e[rows, top] = 0.0
    return np.subtract(shifted, np.log1p(e.sum(axis=-1, keepdims=True)), out=shifted)


def cross_entropy_logits(logits: Tensor, targets) -> Tensor:
    """Summed negative log-likelihood of ``targets`` under row-wise logits, as one op."""
    targets = np.asarray(targets, dtype=np.intp)
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy_logits expects [steps x vocab], got {logits.shape}")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise DimensionError(f"targets shape {targets.shape} does not match "
                             f"logits rows {logits.shape[0]}")
    if targets.min(initial=0) < 0 or targets.max(initial=-1) >= logits.shape[1]:
        raise DomainError("target id outside vocabulary")
    logp = log_softmax(logits.data)
    rows = np.arange(targets.shape[0])
    picked = logp[rows, targets]

    def bwd(g):  # g * (softmax - one-hot), a target's p - 1 as expm1 of its log-probability
        grad = np.array(logits.data)
        _softmax_rows(grad, None)  # e^(x - max) / sum: exp(logp) would carry logp's rounding
        grad[rows, targets] = np.expm1(picked)
        return (grad * g,)

    return _apply(np.asarray(-picked.sum()), (logits,), bwd)


# ---------------------------------------------------------------------------
# recurrent cell
# ---------------------------------------------------------------------------


class GruParams:
    """Parameters of one gated recurrent unit, stored as its three gate blocks.

    Update rule (reset gate r, update gate z, candidate n):

        r = sigmoid(x Wr + h Ur + br)
        z = sigmoid(x Wz + h Uz + bz)
        n = tanh(x Wn + r * (h Un) + bn)
        out = (1 - z) * n + z * h

    The gates sit side by side in r | z | n order: ``wx`` = [Wr|Wz|Wn]
    [d_in x 3h], ``wh`` = [Ur|Uz|Un] [h x 3h] and ``b`` = [br|bz|bn] [3h].
    """

    FIELDS = ("wx", "wh", "b")

    def __init__(self, wx: Tensor, wh: Tensor, b: Tensor):
        self.wx, self.wh, self.b = wx, wh, b
        if not (wx.ndim == 2 and wx.shape[1] % 3 == 0 and b.shape == wx.shape[1:]
                and wh.shape == (wx.shape[1] // 3, wx.shape[1])):
            raise DimensionError(f"GRU gate blocks wx {wx.shape}, wh {wh.shape}, b {b.shape} "
                                 f"are not [d_in x 3h], [h x 3h], [3h]")
        self.d_in, self.d_h = wx.shape[0], wh.shape[0]

    def tensors(self) -> tuple[Tensor, ...]:
        return self.wx, self.wh, self.b

    @classmethod
    def init(cls, d_in: int, d_h: int, rng: np.random.Generator, scale: float = 0.25) -> "GruParams":
        def w(rows):
            bound = scale / math.sqrt(rows)
            return rng.uniform(-bound, bound, size=(rows, d_h))

        # drawn as Wr, Ur, Wz, Uz, Wn, Un: this order fixes a seeded model's values
        gates = [(w(d_in), w(d_h)) for _ in range(3)]
        return cls(*(parameter(np.concatenate(side, axis=1)) for side in zip(*gates)),
                   parameter(np.zeros(3 * d_h)))


def gru_sequence(x: Tensor, mask: Array, params: GruParams | tuple[GruParams, GruParams],
                 reverse: bool = False, h0: Tensor | None = None) -> tuple[Tensor, Tensor]:
    """GRU over axis 1 of ``x`` [rows x steps x d_in] in D = 1 or 2 directions, as one op.

    ``params`` is one GruParams, run left to right (right to left with ``reverse``) from
    ``h0`` [rows x d_h] or zeros, or a (forward, backward) pair run both ways from zeros.
    A state passes unchanged through steps where ``mask`` [rows x steps] is False.
    Returns (states [rows x steps x D*d_h], the directions side by side, and the final
    states [rows x D*d_h], each direction's after its last step in running order).

    x [Wr|Wz|Wn] + b is one product per direction before the loop.  A right-to-left
    direction reads it and the mask flipped in time, so one loop steps the [D x rows x d_h]
    state with one batched h [Ur|Uz|Un] product.  Backpropagation through time runs in the
    one record; each direction's input and parameter gradients are then the products a
    one-direction run makes, bit for bit; the per-step gate values it reads are kept only
    while a tape records.  :func:`gru_cell` is the one-step case.
    """
    dirs = tuple(zip(params, (False, True))) if isinstance(params, tuple) else ((params, reverse),)
    if len(dirs) == 2 and (reverse or h0 is not None):
        raise ContractError("gru_sequence runs a (forward, backward) pair from zero states")
    xd, mask = x.data, np.asarray(mask, dtype=bool)
    if xd.ndim != 3 or mask.shape != xd.shape[:2] or xd.shape[1] < 1:
        raise DimensionError(f"gru_sequence got x {x.shape}, mask {mask.shape}")
    (rows, steps, d_in), d, n_dirs = xd.shape, dirs[0][0].d_h, len(dirs)
    if any((p.d_in, p.d_h) != (d_in, d) for p, _ in dirs):
        raise DimensionError(f"gru_sequence input dim {d_in} does not match params "
                             f"(d_in, d_h) {[(p.d_in, p.d_h) for p, _ in dirs]}")
    if h0 is not None and h0.shape != (rows, d):
        raise DimensionError(f"gru_sequence got h0 {h0.shape}, expected {(rows, d)}")

    order = [slice(None, None, -1 if rev else 1) for _, rev in dirs]  # time <-> running order
    flat = xd.reshape(-1, d_in)
    xw, keep = np.empty((n_dirs, rows, steps, 3 * d)), np.empty((n_dirs, rows, steps, 1), bool)
    for i, (p, _) in enumerate(dirs):
        np.add((flat @ p.wx.data).reshape(rows, steps, -1)[:, order[i]], p.b.data, out=xw[i])
        keep[i, :, :, 0] = mask[:, order[i]]
    wh = dirs[0][0].wh.data[None] if n_dirs == 1 else np.array([p.wh.data for p, _ in dirs])
    hs = np.empty((steps + 1, n_dirs, rows, d))  # hs[k]: the state running step k reads
    hs[0] = 0.0 if h0 is None else h0.data
    caches, keep_caches = [], active_tape() is not None
    for k, h in enumerate(hs[:-1]):
        hw = np.matmul(h, wh)
        rz = _sigmoid(xw[:, :, k, : 2 * d] + hw[..., : 2 * d])
        n = np.tanh(xw[:, :, k, 2 * d:] + rz[..., :d] * hw[..., 2 * d:])
        if keep_caches:
            caches.append((rz, hw[..., 2 * d:], n))
        hs[k + 1] = np.where(keep[:, :, k], n + rz[..., d:] * (h - n), h)
    runs = [hs[1:, i].swapaxes(0, 1)[:, o] for i, o in enumerate(order)]  # views of hs
    states = np.ascontiguousarray(runs[0]) if n_dirs == 1 else np.concatenate(runs, axis=2)

    def bwd(g):
        g_run = np.empty((n_dirs, rows, steps, d))
        for i, o in enumerate(order):
            g_run[i] = g.reshape(rows, steps, n_dirs, d)[:, o, i]
        da_x = np.empty((n_dirs, rows, steps, 3 * d))
        da_h = np.empty((steps, n_dirs, rows, 3 * d))
        passed = carried = np.zeros((n_dirs, rows, d))
        for k in range(steps - 1, -1, -1):
            # gradient of the state after step k: its own output, the masked
            # pass-through to the next step, then the next step's cell input
            g_state = (g_run[:, :, k] + passed) + carried
            passed = np.where(keep[:, :, k], 0.0, g_state)
            g_step = np.where(keep[:, :, k], g_state, 0.0)
            h, (rz, c, n) = hs[k], caches[k]
            dan = g_step * (1.0 - rz[..., d:]) * (1.0 - n * n)
            da = da_x[:, :, k]   # adjoints of x [Wr|Wz|Wn] + b; h [Ur|Uz|Un] differs in n
            da[..., :d] = dan * c
            da[..., d : 2 * d] = g_step * (h - n)
            da[..., : 2 * d] *= rz * (1.0 - rz)
            da[..., 2 * d:] = dan
            da_h[k] = da
            da_h[k, ..., 2 * d:] = dan * rz[..., :d]
            carried = g_step * rz[..., d:] + np.matmul(da_h[k], wh.swapaxes(-1, -2))
        grads = ()  # x, wx, wh, b per direction; x is an input per direction, so the tape sums
        for i, (p, _) in enumerate(dirs):  # contiguous, so each product is one direction's
            flat_x, h_prev, flat_h = (np.ascontiguousarray(a).reshape(-1, a.shape[-1])
                                      for a in (da_x[i][:, order[i]], hs[:-1, i], da_h[:, i]))
            grads += ((flat_x @ p.wx.data.T).reshape(xd.shape), flat.T @ flat_x,
                      h_prev.T @ flat_h, flat_x.sum(axis=0))
        return grads + (() if h0 is None else (passed[0] + carried[0],))

    inputs = tuple(t for p, _ in dirs for t in (x,) + p.tensors()) + (() if h0 is None else (h0,))
    out = _apply(states, inputs, bwd)
    if steps == 1:  # the one step's states are every direction's final ones
        return out, reshape(out, (rows, -1))
    last = np.array([0 if rev else steps - 1 for _, rev in dirs]).repeat(d)
    return out, getitem(out, (slice(None), last, np.arange(n_dirs * d)))


def gru_cell(x: Tensor, h_prev: Tensor, params: GruParams) -> Tensor:
    """One GRU step: :func:`gru_sequence` over a single valid step from ``h_prev``.

    ``x`` [d_in] or [rows x d_in] and ``h_prev`` [d_h] or [rows x d_h]; the new
    state has ``h_prev``'s shape.
    """
    if x.ndim not in (1, 2) or h_prev.ndim not in (1, 2):
        raise DimensionError(f"gru_cell got x {x.shape}, h_prev {h_prev.shape}")
    rows = x.shape[0] if x.ndim == 2 else 1
    h0 = h_prev if h_prev.ndim == 2 else reshape(h_prev, (1, h_prev.shape[0]))
    _, h = gru_sequence(reshape(x, (rows, 1, x.shape[-1])), np.ones((rows, 1), dtype=bool),
                        params, h0=h0)
    return reshape(h, h_prev.shape)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adaptive-moment descent over a model's name -> parameter map.

    Each parameter's ``data`` becomes a view of the optimizer's one float64
    ``buffer`` (a second optimizer over the same parameters moves them into its
    own, leaving the first one's unused).  :meth:`step` updates the whole
    buffer at once, bitwise as tensor by tensor; a parameter whose grad is
    ``None`` keeps its value, ``m`` and ``v`` (no weight decay).
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor]):
        self.params: list[Tensor] = list(params.values())
        self.sizes = [p.data.size for p in self.params]
        cuts, self.t = np.cumsum(self.sizes)[:-1], 0
        self.buffer = np.concatenate([p.data.ravel() for p in self.params])
        self.grads, self.m, self.v = (np.zeros_like(self.buffer) for _ in range(3))
        for p, part in zip(self.params, np.split(self.buffer, cuts)):
            p.data = part.reshape(p.shape)
        self._grad_parts = [g.reshape(p.shape) for p, g in zip(self.params, np.split(self.grads, cuts))]

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bias1, bias2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        present = [p.grad is not None for p in self.params]
        for p, part, has in zip(self.params, self._grad_parts, present):
            part[...] = p.grad if has else 0.0
        g, mask = self.grads, np.repeat(present, self.sizes)
        self.m = np.where(mask, b1 * self.m + (1.0 - b1) * g, self.m)
        self.v = np.where(mask, b2 * self.v + (1.0 - b2) * g * g, self.v)
        update = lr * (self.m / bias1) / (np.sqrt(self.v / bias2) + self.EPS)
        np.subtract(self.buffer, update, out=self.buffer, where=mask)

    def zero_grads(self) -> None:
        for p in self.params:
            p.grad = None
