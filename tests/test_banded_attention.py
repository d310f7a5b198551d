"""Banded attention against the dense masked oracle, by property and by memory."""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longspan import attention as attn
from longspan import autodiff as ad

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
