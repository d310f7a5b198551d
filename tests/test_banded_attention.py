"""Banded attention against the dense masked oracle, by property and by memory."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided

from longspan import attention as attn
from longspan import autodiff as ad
from longspan.errors import DimensionError, DomainError

from test_autodiff import finite_diff_grad

D_MODEL = 8
PARAM_NAMES = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


@st.composite
def band_cases(draw):
    """(N, W, heads, seed); W spans narrow, odd, even and >= 2N - 1 windows."""
    n = draw(st.integers(1, 96))
    window = draw(st.one_of(st.integers(1, 2 * n + 4),
                            st.integers(max(1, 2 * n - 1), 2 * n + 4)))
    heads = draw(st.sampled_from([1, 2, 4]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, window, heads, seed


def run_attention(banded, n, window, heads, seed):
    """Output, [H x N x N] map and gradients of q, k, v and every projection."""
    rng = np.random.default_rng(seed)
    params = attn.AttentionParams.init(D_MODEL, rng)
    for name in ("bq", "bk", "bv", "bo"):  # nonzero biases so their gradients are probed
        getattr(params, name).data[:] = rng.normal(scale=0.1, size=D_MODEL)
    q, k, v = (ad.parameter(rng.normal(size=(n, D_MODEL))) for _ in range(3))
    mix = ad.Tensor(rng.normal(size=(n, D_MODEL)))
    with ad.Tape() as tape:
        if banded:
            out, band = attn.banded_multi_head_attention(q, k, v, window, params, heads)
            dense = ad.band_to_dense(band).data
        else:
            mask = attn.build_local_mask(n, window)
            out, weights = attn.multi_head_attention(q, k, v, mask, params, heads)
            dense = weights.data
        tape.backward(ad.tsum(ad.mul(out, mix)))
    grads = [t.grad for t in (q, k, v)] + [getattr(params, p).grad for p in PARAM_NAMES]
    return out.data, dense, grads


@settings(max_examples=80, deadline=None)
@given(band_cases())
@example((1, 1, 1, 0))
@example((2, 2, 4, 1))
@example((7, 13, 2, 2))
@example((96, 1, 4, 3))
@example((96, 32, 4, 4))
@example((96, 191, 2, 5))
@example((96, 196, 1, 6))
def test_band_matches_dense_masked_oracle(case):
    n, window, heads, seed = case
    out_b, map_b, grads_b = run_attention(True, n, window, heads, seed)
    out_d, map_d, grads_d = run_attention(False, n, window, heads, seed)
    assert np.abs(out_b - out_d).max() <= 1e-12
    assert np.abs(map_b - map_d).max() <= 1e-12
    assert not map_b[:, ~attn.build_local_mask(n, window)].any()
    for name, gb, gd in zip(("q", "k", "v") + PARAM_NAMES, grads_b, grads_d):
        assert np.abs(gb - gd).max() <= 1e-10, name


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 7), st.integers(0, 8), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
def test_op_gradient_matches_finite_differences(n, half, heads, seed):
    """Criterion-4 tolerance: relative error below 1e-4 against central differences."""
    rng = np.random.default_rng(seed)
    qkv = [ad.parameter(rng.normal(size=(heads, n, 3))) for _ in range(3)]
    mix = ad.Tensor(rng.normal(size=(heads, n, 3)))

    def loss(*tensors):
        ctx, _ = ad.banded_attention(*tensors, half)
        return ad.tsum(ad.mul(ctx, mix))

    with ad.Tape() as tape:
        tape.backward(loss(*qkv))
    for i, t in enumerate(qkv):
        fd = finite_diff_grad(
            lambda probe: loss(*(probe if j == i else u for j, u in enumerate(qkv))), t)
        scale = max(np.abs(t.grad).max(), 1.0)
        assert (np.abs(t.grad - fd) / np.maximum(np.abs(fd), scale)).max() < 1e-4


def dense_band_oracle(q, k, v, g, half):
    """Dense masked attention in plain NumPy: context, band, and dq, dk, dv for output grad g."""
    n, d = q.shape[1], q.shape[2]
    h = min(half, n - 1)
    allowed = attn.build_local_mask(n, 2 * half + 1)
    scores = np.where(allowed, q @ k.transpose(0, 2, 1) / np.sqrt(d), -np.inf)
    p = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    dp = g @ v.transpose(0, 2, 1)
    ds = p * (dp - (p * dp).sum(axis=-1, keepdims=True)) / np.sqrt(d)
    keys = np.arange(n)[:, None] + np.arange(2 * h + 1) - h
    inside = (keys >= 0) & (keys < n)
    band = np.where(inside, p[:, np.arange(n)[:, None], keys.clip(0, n - 1)], 0.0)
    return p @ v, band, (ds @ k, ds.transpose(0, 2, 1) @ q, p.transpose(0, 2, 1) @ g), inside


@st.composite
def op_cases(draw):
    """(H, N, d_head, half, seed): N = 1 and N off the block size; half 0, 1, >= N - 1 and
    17..120, where the block is shorter than h and the fold's last step is mostly partial."""
    n = draw(st.one_of(st.integers(1, 200), st.integers(150, 200)))
    half = draw(st.one_of(st.integers(0, 1), st.integers(0, n), st.integers(17, 120),
                          st.integers(max(0, n - 1), n + 8)))
    return (draw(st.integers(1, 4)), n, draw(st.integers(1, 8)), half,
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(op_cases())
@example((1, 1, 1, 0, 0))
@example((2, 1, 3, 5, 1))
@example((3, 37, 4, 1, 2))
@example((4, 197, 8, 20, 3))
@example((2, 150, 3, 17, 7))
@example((2, 199, 5, 70, 4))
@example((1, 200, 2, 199, 5))
@example((4, 193, 4, 0, 6))
def test_op_matches_dense_numpy_oracle(case):
    heads, n, d, half, seed = case
    rng = np.random.default_rng(seed)
    q, k, v, g = (rng.normal(size=(heads, n, d)) for _ in range(4))
    ctx_o, band_o, grads_o, inside = dense_band_oracle(q, k, v, g, half)
    qkv = [ad.parameter(x) for x in (q, k, v)]
    with ad.Tape() as tape:
        ctx, band = ad.banded_attention(*qkv, half)
        tape.backward(ad.tsum(ad.mul(ctx, ad.Tensor(g))))
    assert band.shape == band_o.shape
    assert np.abs(ctx.data - ctx_o).max() <= 1e-12
    assert np.abs(band - band_o).max() <= 1e-12
    assert (band[:, ~inside] == 0.0).all()  # past either end: exactly 0
    assert np.abs(band.sum(axis=-1) - 1.0).max() <= 1e-12
    dense = ad.band_to_dense(band).data
    assert (dense[:, ~attn.build_local_mask(n, 2 * half + 1)] == 0.0).all()  # off-band
    for name, t, want in zip("qkv", qkv, grads_o):
        assert np.abs(t.grad - want).max() <= 1e-10, name


def test_band_slots_past_the_ends_are_exactly_zero():
    rng = np.random.default_rng(0)
    q, k, v = (ad.Tensor(rng.normal(size=(2, 5, 4))) for _ in range(3))
    _, band = ad.banded_attention(q, k, v, 2)
    assert band.shape == (2, 5, 5)
    rows, slots = np.indices((5, 5))
    outside = (rows + slots - 2 < 0) | (rows + slots - 2 >= 5)
    assert (band[:, outside] == 0.0).all()
    assert np.abs(band.sum(axis=-1) - 1.0).max() <= attn.ROW_SUM_TOL


def test_half_width_is_clamped_to_the_sequence():
    rng = np.random.default_rng(1)
    q, k, v = (ad.Tensor(rng.normal(size=(1, 3, 2))) for _ in range(3))
    ctx_wide, band_wide = ad.banded_attention(q, k, v, 50)
    ctx_exact, band_exact = ad.banded_attention(q, k, v, 2)
    assert band_wide.shape == (1, 3, 5)
    np.testing.assert_array_equal(ctx_wide.data, ctx_exact.data)
    np.testing.assert_array_equal(band_wide, band_exact)


def test_banded_encoder_tape_holds_no_n_by_n_array():
    n = 64
    cfg = attn.ToyModelConfig(window=5, max_src=n, enc_layers=2)
    model = attn.ToySeq2Seq.init(cfg, seed=2)
    tokens = np.arange(n) % cfg.vocab
    with ad.Tape() as tape:
        states, maps = model.encoder_forward(tokens, need_weights=False)
    assert maps == []
    largest = max(rec.out.data.size for rec in tape.records)
    assert largest < n * n  # no N x N output anywhere on the tape
    with_maps, dense = model.encoder_forward(tokens)
    np.testing.assert_array_equal(states.data, with_maps.data)
    assert [m.shape for m in dense] == [(cfg.n_heads, n, n)] * 2


def peak_training_bytes(n, window=32):
    config = attn.ToyModelConfig(window=window, max_src=n, max_tgt=16)
    model = attn.ToySeq2Seq.init(config, seed=0)
    rng = np.random.default_rng(0)
    source, target = rng.integers(3, config.vocab, n), rng.integers(3, config.vocab, 16)
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            tape.backward(model.loss(source, target))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_memory_grows_linearly_in_n():
    """Doubling N at W=32 stays under 3x the peak; an N x N array would give ~4x."""
    ratio = peak_training_bytes(2048) / peak_training_bytes(1024)
    assert ratio <= 3.0, ratio


def test_full_attention_training_peaks_within_five_score_buffers_and_above_the_band():
    """Full attention keeps one [H x N x N] buffer per layer; the band at W=32 peaks lower."""
    n, heads = 512, attn.ToyModelConfig().n_heads
    full = peak_training_bytes(n, window="full")
    assert full < 5 * heads * n * n * 8, full / (heads * n * n * 8)
    assert peak_training_bytes(n, window=32) < full


def test_full_attention_training_peaks_below_three_and_a_half_score_buffers():
    """The backward runs in query blocks, so no second [H x N x N] array (the scores'
    gradient) joins the stored probabilities at the peak."""
    n, heads = 512, attn.ToyModelConfig().n_heads
    full = peak_training_bytes(n, window="full")
    assert full < 3.5 * heads * n * n * 8, full / (heads * n * n * 8)


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def band_op_run(op, arrays, half):
    """Context, band, and the q, k, v gradients of ``op`` under output gradient arrays[3]."""
    qkv = [ad.parameter(x) for x in arrays[:3]]
    with ad.Tape() as tape:
        ctx, band = op(*qkv, half)
        tape.backward(ad.tsum(ad.mul(ctx, ad.Tensor(arrays[3]))))
    return [ctx.data, np.array(band)] + [t.grad for t in qkv]


class NanEmpty:
    """numpy, except that ``empty`` and ``empty_like`` hand out NaN-filled arrays."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, np.nan, dtype)

    @staticmethod
    def empty_like(a, dtype=None):
        return np.full_like(a, np.nan, dtype=dtype)


@pytest.mark.parametrize("heads,n,d,half", [(1, 1, 1, 0), (2, 5, 3, 1), (3, 37, 4, 6),
                                            (2, 64, 4, 16), (1, 100, 2, 33), (2, 9, 3, 20),
                                            (2, 40, 3, 20), (3, 41, 2, 20)])
def test_band_op_reads_no_unwritten_buffer_slot(monkeypatch, heads, n, d, half):
    """Every slot of the op's uninitialised buffers is written before it is read: with
    NaN-filled allocations the outputs and gradients stay finite and bitwise unchanged."""
    rng = np.random.default_rng(n)
    arrays = [rng.normal(size=(heads, n, d)) for _ in range(4)]
    default = band_op_run(ad.banded_attention, arrays, half)
    monkeypatch.setattr(ad, "np", NanEmpty())
    for got, want in zip(band_op_run(ad.banded_attention, arrays, half), default):
        assert np.isfinite(got).all()
        assert same_bits(got, want)


def parent_banded_attention(q, k, v, half):
    """The band op before its forward masked only the rim, verbatim but for module
    prefixes: the reference for its bits."""
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
    ad._softmax_rows(buf, (s > 2 * h) | (s < h - i) | (s >= n + h - i))
    ctx = np.matmul(probs, window(padded(v.data))).reshape(n_heads, rows, d_head)[:, :n]

    def bwd(g):
        gb, dbuf = blocks(g), np.empty_like(buf)
        dprobs = block_view(dbuf)
        np.matmul(gb, window(padded(v.data)).swapaxes(-1, -2), out=dprobs)
        dbuf[:, b - 1::b, 2 * h + 1:] = 0.0  # the one region the strided product leaves unwritten
        dv = fold(np.matmul(probs.swapaxes(-1, -2), gb))
        ad._softmax_rows_adjoint(buf, dbuf)  # d(scores)
        dq = np.matmul(dprobs, window(padded(k.data)))
        dk = fold(np.matmul(dprobs.swapaxes(-1, -2), blocks(q.data * scale)))
        return dq.reshape(n_heads, rows, d_head)[:, :n] * scale, dk, dv

    return ad._apply(ctx, (q, k, v), bwd), buf[:, :n, :2 * h + 1]


def parent_band_to_dense(band):
    """The fancy-index scatter ``ad.band_to_dense`` replaced, verbatim but for module
    prefixes: the reference for its bits."""
    n_heads, n, width = band.shape
    flat = np.arange(0, n * n, n + 1)[:, None] + np.arange(width) - (width - 1) // 2
    keys = flat - np.arange(0, n * n, n)[:, None]
    flat[(keys < 0) | (keys >= n)] = n * n  # slots past either end land in a spare last entry
    dense = np.zeros((n_heads, n * n + 1))
    dense[:, flat] = band
    return ad.Tensor._wrap(dense[:, :-1].reshape(n_heads, n, n))


@settings(max_examples=60, deadline=None)
@given(op_cases())
@example((1, 1, 1, 0, 0))  # N = 1
@example((2, 5, 3, 9, 1))  # half >= N: every row is a rim row
@example((2, 40, 3, 20, 2))  # N = 2h, off a multiple of the block (16)
@example((3, 41, 4, 20, 3))  # N = 2h + 1
@example((1, 32, 2, 16, 4))  # N = 2h, whole blocks
@example((2, 33, 5, 16, 5))  # N = 2h + 1
@example((4, 97, 5, 0, 6))  # half = 0
@example((2, 150, 3, 17, 7))  # N off a multiple of the block (16)
def test_band_op_is_bitwise_its_parent(case):
    """Masking only the rim leaves every bit of the band, the context and the gradients."""
    heads, n, d, half, seed = case
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(heads, n, d)) for _ in range(4)]
    got = band_op_run(ad.banded_attention, arrays, half)
    want = band_op_run(parent_banded_attention, arrays, half)
    for name, g, w in zip(("context", "band", "dq", "dk", "dv"), got, want):
        assert same_bits(g, w), name


@st.composite
def dense_map_cases(draw):
    """(H, N, half, from_op, seed); half spans 0 .. 2N + 2, so h = min(half, N - 1) is
    often N - 1 and every row a rim row."""
    n = draw(st.integers(1, 96))
    return (draw(st.sampled_from([1, 2, 4])), n, draw(st.integers(0, 2 * n + 2)),
            draw(st.booleans()), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(dense_map_cases())
@example((1, 1, 0, True, 0))  # N = 1
@example((2, 1, 4, False, 1))
@example((2, 5, 9, True, 2))  # half >= N: every row is a rim row
@example((4, 6, 6, False, 3))
@example((2, 32, 16, True, 4))  # N = 2h
@example((1, 40, 20, False, 5))
@example((2, 33, 16, True, 6))  # N = 2h + 1
@example((4, 41, 20, False, 7))
def test_band_to_dense_is_bitwise_its_parent(case):
    """The strided copy and the rim's slices write the map the scatter wrote, C-contiguous."""
    heads, n, half, from_op, seed = case
    rng = np.random.default_rng(seed)
    h = min(half, n - 1)
    if from_op:
        _, band = ad.banded_attention(*(ad.Tensor(rng.normal(size=(heads, n, 3)))
                                        for _ in range(3)), half)
    else:  # random values, zeros in the slots past either end
        keys = np.arange(n)[:, None] + np.arange(2 * h + 1) - h
        band = np.where((keys >= 0) & (keys < n), rng.random((heads, n, 2 * h + 1)), 0.0)
    dense = ad.band_to_dense(band).data
    assert dense.shape == (heads, n, n) and dense.flags.c_contiguous
    assert same_bits(dense, parent_band_to_dense(band).data)


def test_an_all_rim_band_forward_copies_no_buffer():
    """With half >= N every row is a rim row; the forward masks them in place, so its
    peak stays below 1.5x the op's buffer (a copy of the rim rows would reach ~2x)."""
    rng = np.random.default_rng(0)
    q, k, v = (ad.Tensor(rng.normal(size=(4, 256, 8))) for _ in range(3))
    tracemalloc.start()
    try:
        _, band = ad.banded_attention(q, k, v, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer = band.base.nbytes  # the band is a view of the op's one buffer
    assert band.shape == (4, 256, 511) and buffer >= band.nbytes
    assert peak < 1.5 * buffer, peak / buffer
