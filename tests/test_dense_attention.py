"""The dense attention op against the composed autodiff oracle, and its mask checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longspan import attention as attn
from longspan import autodiff as ad
from longspan.errors import DegenerateRowError, DimensionError
from test_banded_attention import NanEmpty


def composed_attention(q, k, v, mask):
    """mul(q, 1/sqrt(d)) -> matmul -> masked_softmax -> matmul, five tape records."""
    q_scaled = ad.mul(q, ad.Tensor(np.float64(1.0 / math.sqrt(q.shape[-1]))))
    probs = ad.masked_softmax(ad.matmul(q_scaled, ad.transpose(k, (0, 2, 1))), mask)
    return ad.matmul(probs, v), probs


@st.composite
def op_cases(draw):
    """(H, Nq, Nk, d, mask kind, seed); Nq != Nk is cross-attention's shape."""
    return (draw(st.integers(1, 4)), draw(st.integers(1, 24)), draw(st.integers(1, 24)),
            draw(st.integers(1, 8)), draw(st.sampled_from(["none", "causal", "random"])),
            draw(st.integers(0, 2**32 - 1)))


def make_mask(kind, nq, nk, rng):
    if kind == "none":
        return None
    if kind == "causal":
        return np.tril(np.ones((nq, nk), dtype=bool))
    mask = rng.random((nq, nk)) < 0.5
    mask[np.arange(nq), rng.integers(0, nk, nq)] = True  # every row permits a key
    return mask


def check_against_the_oracle(heads, nq, nk, d, kind, seed):
    rng = np.random.default_rng(seed)
    data = [rng.normal(size=(heads, n, d)) for n in (nq, nk, nk)]
    mask = make_mask(kind, nq, nk, rng)
    g = ad.Tensor(rng.normal(size=(heads, nq, d)))
    results = []
    for op in (ad.dense_attention, composed_attention):
        qkv = [ad.parameter(x) for x in data]
        with ad.Tape() as tape:
            ctx, probs = op(*qkv, mask)
            records = len(tape)
            tape.backward(ad.tsum(ad.mul(ctx, g)))
        results.append((ctx.data, probs.data, [t.grad for t in qkv], records))
        for t, x in zip(qkv, data):
            assert np.array_equal(t.data, x)  # q, k and v are left unmodified
    (ctx, probs, grads, records), (ctx_o, probs_o, grads_o, _) = results
    assert records == 1
    assert np.array_equal(probs, probs_o)
    assert np.abs(ctx - ctx_o).max() <= 1e-12
    for name, got, want in zip("qkv", grads, grads_o):
        assert np.abs(got - want).max() <= 1e-12, name


@settings(max_examples=120, deadline=None)
@given(op_cases())
@example((1, 1, 1, 1, "none", 0))
@example((4, 24, 24, 8, "causal", 1))
@example((2, 5, 17, 3, "random", 2))
@example((3, 24, 1, 4, "causal", 3))
def test_op_matches_the_composed_oracle(case):
    check_against_the_oracle(*case)


B = ad._DENSE_BLOCK_ROWS  # the backward's query rows per block
# (H, Nq, Nk, d): Nq spans 3 or more blocks, with and without a tail shorter than a block
MULTI_BLOCK = [(2, 3 * B + 5, 41, 4), (3, 4 * B, 4 * B - 7, 3), (1, 2 * B + 1, 3 * B + 2, 8),
               (4, 5 * B - 1, 2, 2)]


@pytest.mark.parametrize("kind", ["none", "causal", "random"])
@pytest.mark.parametrize("shape", MULTI_BLOCK)
def test_op_matches_the_composed_oracle_over_several_query_blocks(shape, kind):
    check_against_the_oracle(*shape, kind, seed=sum(shape))


@pytest.mark.parametrize("kind", ["none", "causal", "random"])
@pytest.mark.parametrize("shape", MULTI_BLOCK + [(2, 7, 9, 3)])
def test_op_reads_no_unwritten_buffer_slot(monkeypatch, shape, kind):
    """With NaN-filled ``np.empty`` the context, probabilities and gradients stay finite
    and bitwise equal to the default allocator's: every scratch slot is written first."""
    heads, nq, nk, d = shape
    rng = np.random.default_rng(nq)
    arrays = [rng.normal(size=(heads, n, d)) for n in (nq, nk, nk, nq)]
    mask = make_mask(kind, nq, nk, rng)

    def run():
        qkv = [ad.parameter(x) for x in arrays[:3]]
        with ad.Tape() as tape:
            ctx, probs = ad.dense_attention(*qkv, mask)
            tape.backward(ad.tsum(ad.mul(ctx, ad.Tensor(arrays[3]))))
        return [ctx.data, probs.data] + [t.grad for t in qkv]

    default = run()
    monkeypatch.setattr(ad, "np", NanEmpty())
    for got, want in zip(run(), default):
        assert np.isfinite(got).all()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_a_row_without_a_permitted_key_raises(nq, nk, seed):
    rng = np.random.default_rng(seed)
    mask = make_mask("random", nq, nk, rng)
    mask[rng.integers(0, nq)] = False
    q, k = ad.Tensor(rng.normal(size=(2, nq, 3))), ad.Tensor(rng.normal(size=(2, nk, 3)))
    with pytest.raises(DegenerateRowError, match="no permitted entry"):
        ad.dense_attention(q, k, k, mask)


def test_mask_of_the_wrong_shape_is_a_dimension_error():
    rng = np.random.default_rng(0)
    q, k = ad.Tensor(rng.normal(size=(2, 5, 3))), ad.Tensor(rng.normal(size=(2, 4, 3)))
    with pytest.raises(DimensionError, match="does not broadcast"):
        ad.dense_attention(q, k, k, np.ones((5, 5), dtype=bool))
    x = ad.Tensor(rng.normal(size=(5, 8)))
    params = attn.AttentionParams.init(8, rng)
    with pytest.raises(DimensionError, match="does not broadcast"):
        attn.multi_head_attention(x, x, x, np.ones((5, 4), dtype=bool), params, 2)
    with pytest.raises(DimensionError, match="dense_attention got"):
        ad.dense_attention(q, k, q, None)


class UnitSqrt:
    """math, except that ``sqrt`` is 1: an attention op then scales q by 1."""

    def __getattr__(self, name):
        return getattr(math, name)

    @staticmethod
    def sqrt(_x):
        return 1.0


@pytest.mark.parametrize("d", [4, 16])
@pytest.mark.parametrize("op,shape", [
    ("dense", (2, 7, 9)), ("dense", (3, 3 * B + 5, 41)), ("dense", (1, 2 * B, 1)),
    ("band", (2, 9, 3)), ("band", (3, 37, 6)), ("band", (2, 100, 33)), ("band", (1, 5, 9))])
def test_a_power_of_two_scale_gives_the_scale_after_product_bits(monkeypatch, op, shape, d):
    """At d_head = 4 and 16, 1/sqrt(d) is a power of two, so scaling q before the product
    gives the bits of the composed order, which scales the product and the score gradient.
    The reference is the same op with q unscaled and the scale moved into the softmax."""
    heads, n_q, last = shape  # last: the band's half-width, or the dense op's key count
    rng = np.random.default_rng(n_q + d)
    n_k = last if op == "dense" else n_q
    arrays = [rng.normal(size=(heads, n, d)) for n in (n_q, n_k, n_k, n_q)]
    mask = make_mask("random", n_q, n_k, rng) if op == "dense" else None

    def run():
        qkv = [ad.parameter(x) for x in arrays[:3]]
        with ad.Tape() as tape:
            if op == "dense":
                ctx, probs = ad.dense_attention(*qkv, mask)
            else:
                ctx, probs = ad.banded_attention(*qkv, last)
            tape.backward(ad.tsum(ad.mul(ctx, ad.Tensor(arrays[3]))))
        return [ctx.data, np.array(probs.data if op == "dense" else probs)] + [t.grad for t in qkv]

    scaled_q = run()
    scale, rows, adjoint = 1.0 / math.sqrt(d), ad._softmax_rows, ad._softmax_rows_adjoint

    def rows_of_the_scaled_product(buf, blocked):
        np.multiply(buf, scale, out=buf, where=True if blocked is None else ~blocked)
        rows(buf, blocked)

    def adjoint_of_the_scaled_product(probs, g):
        adjoint(probs, g)
        g *= scale
        return g

    monkeypatch.setattr(ad, "math", UnitSqrt())
    monkeypatch.setattr(ad, "_softmax_rows", rows_of_the_scaled_product)
    monkeypatch.setattr(ad, "_softmax_rows_adjoint", adjoint_of_the_scaled_product)
    for name, got, want in zip(["context", "probabilities", "dq", "dk", "dv"], scaled_q, run()):
        assert got.tobytes() == want.tobytes(), name
