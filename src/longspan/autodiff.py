"""Dense float64 tensors with tape-based reverse-mode differentiation.

Forward operations record adjoint closures on the innermost active
:class:`Tape`; ``Tape.backward`` replays the records in reverse order.
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

from .errors import ContractError, DegenerateRowError, DimensionError, DomainError

Array = np.ndarray

_tls = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


def _recording() -> bool:
    return getattr(_tls, "enabled", True)


class no_grad:
    """Context manager that suspends recording on any active tape."""

    def __enter__(self):
        self._prev = getattr(_tls, "enabled", True)
        _tls.enabled = False
        return self

    def __exit__(self, *exc):
        _tls.enabled = self._prev
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
    if tape is not None and _recording() and any(t.requires_grad for t in inputs):
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


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    ash, bsh = a.shape, b.shape
    return _apply(out, (a, b), lambda g: (_unbroadcast(g, ash), _unbroadcast(-g, bsh)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    ad, bd = a.data, b.data
    return _apply(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)),
    )


def neg(a: Tensor) -> Tensor:
    return _apply(-a.data, (a,), lambda g: (-g,))


def power(a: Tensor, p: float) -> Tensor:
    p = float(p)
    ad = a.data
    out = ad**p
    return _apply(out, (a,), lambda g: (g * p * ad ** (p - 1.0),))


def log(a: Tensor) -> Tensor:
    ad = a.data
    return _apply(np.log(ad), (a,), lambda g: (g / ad,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _apply(out, (a,), lambda g: (g * (1.0 - out * out),))


def _sigmoid(x: Array) -> Array:
    # exp of -|x| cannot overflow; each sign takes its own stable form
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    return _apply(out, (a,), lambda g: (g * out * (1.0 - out),))


_GELU_K = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Smooth tanh-form gelu; smoothness keeps finite-difference checks clean."""
    x = a.data
    inner = _GELU_K * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def bwd(g):
        dinner = _GELU_K * (1.0 + 3 * 0.044715 * x**2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner),)

    return _apply(out, (a,), bwd)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient is zero outside the kept band."""
    ad = a.data
    out = np.clip(ad, lo, hi)
    inside = (ad >= lo) & (ad <= hi)
    return _apply(out, (a,), lambda g: (g * inside,))


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
    out = a.data.sum(axis=axis, keepdims=keepdims)
    ash = a.shape

    def bwd(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(gg, ash).copy(),)

    return _apply(np.asarray(out), (a,), bwd)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    ash = a.shape
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= ash[ax]

    def bwd(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(gg, ash) / count,)

    return _apply(np.asarray(out), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    ash = a.shape
    return _apply(a.data.reshape(shape), (a,), lambda g: (g.reshape(ash),))


def transpose(a: Tensor, axes=None) -> Tensor:
    out = np.transpose(a.data, axes)
    if axes is None:
        return _apply(out, (a,), lambda g: (np.transpose(g),))
    inv = np.argsort(axes)
    return _apply(out, (a,), lambda g: (np.transpose(g, inv),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
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
    """Matrix product.

    Supported: 2-D @ 2-D, 1-D @ 2-D, 2-D @ 1-D, N-D @ N-D with identical
    batch dimensions, and N-D @ 1-D (contraction over the last axis).
    """
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0:
        raise DimensionError(f"matmul needs at least 1-D operands, got {a.shape} x {b.shape}")
    a_inner = ad.shape[-1]
    b_inner = bd.shape[-2] if bd.ndim >= 2 else bd.shape[0]
    if a_inner != b_inner:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    if ad.ndim >= 3 and bd.ndim >= 3 and ad.shape[:-2] != bd.shape[:-2]:
        raise DimensionError(f"matmul batch dimensions differ: {a.shape} x {b.shape}")
    if ad.ndim >= 3 and bd.ndim == 2:
        raise DimensionError(f"unsupported matmul arrangement: {a.shape} x {b.shape}")
    out = np.matmul(ad, bd)

    def bwd(g):
        if bd.ndim == 1 and ad.ndim == 1:
            return (g * bd, g * ad)
        if bd.ndim == 1:
            # out[...] = sum_k a[..., k] * b[k]
            ga = g[..., None] * bd
            gb = (ad * g[..., None]).sum(axis=tuple(range(ad.ndim - 1)))
            return (ga, gb)
        if ad.ndim == 1:
            # out[n] = sum_k a[k] * b[k, n]
            ga = np.matmul(bd, g)
            gb = np.outer(ad, g)
            return (ga, gb)
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), g)
        return (ga, gb)

    return _apply(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------


def _check_rows_permitted(mask: Array) -> None:
    ok = mask.any(axis=-1)
    if not ok.all():
        bad = np.argwhere(~ok)[0]
        raise DegenerateRowError(f"softmax row {tuple(int(i) for i in bad)} has no permitted entry")


def masked_softmax(logits: Tensor, mask: Array | None) -> Tensor:
    """Row softmax over the last axis with hard masking.

    Masked entries come out exactly 0; each row of permitted entries sums
    to 1.  Stabilized by subtracting the row max over permitted entries.
    ``mask=None`` permits every entry.
    """
    shifted = logits.data
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), logits.shape)
        _check_rows_permitted(mask)
        shifted = np.where(mask, shifted, -np.inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)  # masked entries: exp(-inf) == 0 exactly
    denom = expd.sum(axis=-1, keepdims=True)
    out = expd / denom

    def bwd(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return _apply(out, (logits,), bwd)


def _band_diagonals(n: int, half: int):
    """(slot, offset, lo, hi): band slot ``slot`` of rows lo..hi-1 holds key row + offset."""
    for slot in range(2 * half + 1):
        offset = slot - half
        yield slot, offset, max(0, -offset), min(n, n - offset)


def banded_attention(q: Tensor, k: Tensor, v: Tensor, half: int) -> tuple[Tensor, Array]:
    """Scaled dot-product self-attention over keys with |i - j| <= ``half``.

    ``q``, ``k`` and ``v`` are per-head [H x N x d_head].  Scores and
    probabilities are held as an [H x N x 2h+1] band, h = min(half, N - 1),
    whose slot s of row i is key i + s - h.  Slots past either end of the
    sequence are -inf before the row max, so their probability is exactly
    0.  No N x N array is formed: time and memory grow with N * h.

    Records one op; returns the context [H x N x d_head] and the band
    probabilities (see :func:`band_to_dense`).
    """
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(f"banded_attention expects equal [H x N x d] q/k/v, got "
                             f"{q.shape}, {k.shape}, {v.shape}")
    if half < 0:
        raise DomainError(f"band half-width must be >= 0, got {half}")
    # per-diagonal slices of head-split views are strided; contiguous copies run faster
    qd, kd, vd = (np.ascontiguousarray(t.data) for t in (q, k, v))
    n_heads, n, d_head = qd.shape
    h = min(int(half), n - 1)
    scale = 1.0 / math.sqrt(d_head)
    diagonals = list(_band_diagonals(n, h))

    scores = np.full((n_heads, n, 2 * h + 1), -np.inf)
    for slot, off, lo, hi in diagonals:
        scores[:, lo:hi, slot] = np.einsum(
            "hnd,hnd->hn", qd[:, lo:hi], kd[:, lo + off:hi + off]) * scale
    expd = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = expd / expd.sum(axis=-1, keepdims=True)
    ctx = np.zeros_like(qd)
    for slot, off, lo, hi in diagonals:
        ctx[:, lo:hi] += probs[:, lo:hi, slot, None] * vd[:, lo + off:hi + off]

    def bwd(g):
        g = np.ascontiguousarray(g)
        dprobs = np.zeros_like(probs)
        dv = np.zeros_like(vd)
        for slot, off, lo, hi in diagonals:
            dprobs[:, lo:hi, slot] = np.einsum("hnd,hnd->hn", g[:, lo:hi], vd[:, lo + off:hi + off])
            dv[:, lo + off:hi + off] += probs[:, lo:hi, slot, None] * g[:, lo:hi]
        inner = (probs * dprobs).sum(axis=-1, keepdims=True)
        dscores = probs * (dprobs - inner) * scale
        dq = np.zeros_like(qd)
        dk = np.zeros_like(kd)
        for slot, off, lo, hi in diagonals:
            ds = dscores[:, lo:hi, slot, None]
            dq[:, lo:hi] += ds * kd[:, lo + off:hi + off]
            dk[:, lo + off:hi + off] += ds * qd[:, lo:hi]
        return (dq, dk, dv)

    return _apply(ctx, (q, k, v), bwd), probs


def band_to_dense(band: Array) -> Tensor:
    """Scatter [H x N x 2h+1] band probabilities into an [H x N x N] map (zeros off-band)."""
    n_heads, n, width = band.shape
    dense = np.zeros((n_heads, n, n))
    for slot, off, lo, hi in _band_diagonals(n, (width - 1) // 2):
        rows = np.arange(lo, hi)
        dense[:, rows, rows + off] = band[:, lo:hi, slot]
    return Tensor._wrap(dense)


def log_softmax(logits: Tensor) -> Tensor:
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    shifted = x - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def bwd(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _apply(out, (logits,), bwd)


def cross_entropy_logits(logits: Tensor, targets) -> Tensor:
    """Summed negative log-likelihood of ``targets`` under row-wise logits."""
    targets = np.asarray(targets, dtype=np.intp)
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy_logits expects [steps x vocab], got {logits.shape}")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise DimensionError(
            f"targets shape {targets.shape} does not match logits rows {logits.shape[0]}"
        )
    if targets.min(initial=0) < 0 or targets.max(initial=-1) >= logits.shape[1]:
        raise DomainError("target id outside vocabulary")
    ls = log_softmax(logits)
    picked = getitem(ls, (np.arange(targets.shape[0]), targets))
    return neg(tsum(picked))


# ---------------------------------------------------------------------------
# recurrent cell
# ---------------------------------------------------------------------------


class GruParams:
    """Parameters of one gated recurrent unit.

    Update rule (reset gate r, update gate z, candidate n):

        r = sigmoid(x Wr + h Ur + br)
        z = sigmoid(x Wz + h Uz + bz)
        n = tanh(x Wn + r * (h Un) + bn)
        out = (1 - z) * n + z * h

    Input-side weights are [d_in x d_h]; hidden-side [d_h x d_h].
    """

    FIELDS = ("wx_r", "wh_r", "b_r", "wx_z", "wh_z", "b_z", "wx_n", "wh_n", "b_n")

    def __init__(self, wx_r, wh_r, b_r, wx_z, wh_z, b_z, wx_n, wh_n, b_n):
        self.wx_r, self.wh_r, self.b_r = wx_r, wh_r, b_r
        self.wx_z, self.wh_z, self.b_z = wx_z, wh_z, b_z
        self.wx_n, self.wh_n, self.b_n = wx_n, wh_n, b_n
        d_in, d_h = self.wx_r.shape
        for name in self.FIELDS:
            t = getattr(self, name)
            want = (d_in, d_h) if name.startswith("wx") else ((d_h, d_h) if name.startswith("wh") else (d_h,))
            if t.shape != want:
                raise DimensionError(f"GRU parameter {name} has shape {t.shape}, expected {want}")

    @property
    def d_in(self) -> int:
        return self.wx_r.shape[0]

    @property
    def d_h(self) -> int:
        return self.wx_r.shape[1]

    def tensors(self) -> tuple[Tensor, ...]:
        return tuple(getattr(self, name) for name in self.FIELDS)

    @classmethod
    def init(cls, d_in: int, d_h: int, rng: np.random.Generator, scale: float = 0.25) -> "GruParams":
        def w(rows, cols):
            bound = scale / math.sqrt(rows)
            return parameter(rng.uniform(-bound, bound, size=(rows, cols)))

        return cls(
            w(d_in, d_h), w(d_h, d_h), parameter(np.zeros(d_h)),
            w(d_in, d_h), w(d_h, d_h), parameter(np.zeros(d_h)),
            w(d_in, d_h), w(d_h, d_h), parameter(np.zeros(d_h)),
        )


def _gru_forward(xd: Array, hd: Array, params: GruParams) -> tuple[Array, tuple]:
    """One row-batched GRU step on arrays: (new state, cache for :func:`_gru_backward`)."""
    r = _sigmoid(xd @ params.wx_r.data + hd @ params.wh_r.data + params.b_r.data)
    z = _sigmoid(xd @ params.wx_z.data + hd @ params.wh_z.data + params.b_z.data)
    c = hd @ params.wh_n.data
    n = np.tanh(xd @ params.wx_n.data + r * c + params.b_n.data)
    return (1.0 - z) * n + z * hd, (xd, hd, r, z, c, n)


def _gru_backward(g: Array, cache: tuple, params: GruParams) -> tuple[Array, Array, tuple]:
    """Adjoint of :func:`_gru_forward`: (d x, d h_prev, parameter grads in FIELDS order)."""
    xd, hd, r, z, c, n = cache
    wxr, whr = params.wx_r.data, params.wh_r.data
    wxz, whz = params.wx_z.data, params.wh_z.data
    wxn, whn = params.wx_n.data, params.wh_n.data
    dn = g * (1.0 - z)
    dz = g * (hd - n)
    dh = g * z
    dan = dn * (1.0 - n * n)
    dxd = dan @ wxn.T
    dwxn = xd.T @ dan
    dbn = dan.sum(axis=0)
    dr = dan * c
    dc = dan * r
    dh = dh + dc @ whn.T
    dwhn = hd.T @ dc
    dar = dr * r * (1.0 - r)
    daz = dz * z * (1.0 - z)
    dxd = dxd + dar @ wxr.T + daz @ wxz.T
    dh = dh + dar @ whr.T + daz @ whz.T
    dwxr, dwhr, dbr = xd.T @ dar, hd.T @ dar, dar.sum(axis=0)
    dwxz, dwhz, dbz = xd.T @ daz, hd.T @ daz, daz.sum(axis=0)
    return dxd, dh, (dwxr, dwhr, dbr, dwxz, dwhz, dbz, dwxn, dwhn, dbn)


def gru_cell(x: Tensor, h_prev: Tensor, params: GruParams) -> Tensor:
    """One GRU step; ``x`` and ``h_prev`` are 1-D or row-batched 2-D."""
    squeeze = x.ndim == 1
    xd = x.data[None, :] if squeeze else x.data
    hd = h_prev.data[None, :] if h_prev.ndim == 1 else h_prev.data
    if xd.ndim != 2 or hd.ndim != 2 or xd.shape[0] != hd.shape[0]:
        raise DimensionError(f"gru_cell got x {x.shape}, h_prev {h_prev.shape}")
    if xd.shape[1] != params.d_in or hd.shape[1] != params.d_h:
        raise DimensionError(
            f"gru_cell feature dims (x {x.shape}, h {h_prev.shape}) do not match "
            f"params (d_in={params.d_in}, d_h={params.d_h})"
        )
    out, cache = _gru_forward(xd, hd, params)

    def bwd(g):
        dxd, dh, dparams = _gru_backward(g[None, :] if squeeze else g, cache, params)
        if squeeze:
            dxd, dh = dxd[0], dh[0]
        return (dxd, dh) + dparams

    return _apply(out[0] if squeeze else out, (x, h_prev) + params.tensors(), bwd)


def gru_sequence(x: Tensor, mask: Array, params: GruParams, reverse: bool = False,
                 h0: Tensor | None = None) -> tuple[Tensor, Tensor]:
    """GRU over axis 1 of ``x`` [rows x steps x d_in] from ``h0`` [rows x d_h] or zeros, as one op.

    Steps run left to right, or right to left with ``reverse``.  Where
    ``mask`` [rows x steps] is False the state passes through unchanged,
    so each row's final state is its state after its last valid step in
    running order.  Returns (states [rows x steps x d_h], final
    [rows x d_h]); the final state is a slice of the states.

    Backpropagation through time runs inside the one record, latest
    step first, and sums each parameter's gradient in that order.
    """
    xd = x.data
    mask = np.asarray(mask, dtype=bool)
    if xd.ndim != 3 or mask.shape != xd.shape[:2] or xd.shape[1] < 1:
        raise DimensionError(f"gru_sequence got x {x.shape}, mask {mask.shape}")
    if xd.shape[2] != params.d_in:
        raise DimensionError(f"gru_sequence input dim {xd.shape[2]} does not match "
                             f"params (d_in={params.d_in})")
    rows, steps, _ = xd.shape
    if h0 is not None and h0.shape != (rows, params.d_h):
        raise DimensionError(f"gru_sequence got h0 {h0.shape}, expected {(rows, params.d_h)}")
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    states = np.empty((rows, steps, params.d_h))
    caches = []
    h = np.zeros((rows, params.d_h)) if h0 is None else h0.data
    for j in order:
        h_new, cache = _gru_forward(xd[:, j], h, params)
        h = np.where(mask[:, j : j + 1], h_new, h)
        states[:, j] = h
        caches.append((j, cache))

    def bwd(g):
        dx = np.zeros_like(xd)
        dparams = None
        passed = carried = np.zeros((rows, params.d_h))
        for j, cache in reversed(caches):
            # gradient of the state after step j: its own output, the masked
            # pass-through to the next step, then the next step's cell input
            g_state = (g[:, j] + passed) + carried
            keep = mask[:, j : j + 1]
            passed = np.where(keep, 0.0, g_state)
            dx[:, j], carried, step_grads = _gru_backward(np.where(keep, g_state, 0.0),
                                                          cache, params)
            dparams = step_grads if dparams is None else tuple(
                total + part for total, part in zip(dparams, step_grads))
        return (dx,) + dparams + (() if h0 is None else (passed + carried,))

    out = _apply(states, (x,) + params.tensors() + (() if h0 is None else (h0,)), bwd)
    return out, getitem(out, (slice(None), 0 if reverse else steps - 1))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adaptive-moment descent over a model's name -> parameter map.

    Parameters whose grad is ``None`` at :meth:`step` are skipped entirely,
    so unused heads keep their initial values (no weight decay).
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor]):
        self.params: list[Tensor] = list(params.values())
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / bias1
            v_hat = self.v[i] / bias2
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.EPS)

    def zero_grads(self) -> None:
        for p in self.params:
            p.grad = None
