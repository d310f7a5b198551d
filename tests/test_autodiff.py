"""Tensor core: forward semantics, adjoints vs. finite differences, tape behavior."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from longspan import autodiff as ad
from longspan.errors import ContractError, DegenerateRowError, DimensionError


def loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise triple-loop product; the independent oracle for matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def finite_diff_coordinate(f, t, idx, h=1e-5):
    """Central difference of ``f()`` w.r.t. one coordinate of ``t`` (mutates and restores it)."""
    orig = t.data[idx]
    with ad.no_grad():
        t.data[idx] = orig + h
        fp = float(f())
        t.data[idx] = orig - h
        fm = float(f())
        t.data[idx] = orig
    return (fp - fm) / (2.0 * h)


def finite_diff_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar ``f(probe)`` at every coordinate of ``x``."""
    probe = ad.Tensor(x.data)
    return np.array([finite_diff_coordinate(lambda: f(probe), probe, idx, h)
                     for idx in np.ndindex(*x.shape)]).reshape(x.shape)


def check_grad_fd(f, tensors, h=1e-5, tol=1e-4, max_coords=6, seed=0):
    """Compare tape gradients of scalar f() against sampled central differences."""
    with ad.Tape() as tape:
        loss = f()
        tape.backward(loss)
    grads = {id(t): (t.grad.copy() if t.grad is not None else None) for t in tensors}
    tape.zero_grads()  # leave no stale buffers for later checks on the same model
    rng = np.random.default_rng(seed)
    for t in tensors:
        saved = grads[id(t)]
        grad = saved if saved is not None else np.zeros(t.shape)
        flat = t.data.reshape(-1)
        n_probe = min(max_coords, flat.size)
        coords = rng.choice(flat.size, size=n_probe, replace=False)
        scale = max(np.abs(grad).max(), 1.0)
        for c in coords:
            idx = np.unravel_index(int(c), t.shape)
            fd = finite_diff_coordinate(f, t, idx, h=h)
            err = abs(grad[idx] - fd) / max(abs(fd), scale)
            assert err < tol, f"grad mismatch at {idx}: analytic {grad[idx]}, fd {fd}"


class TestMatmul:
    def test_identity(self):
        b = ad.Tensor(np.arange(9.0).reshape(3, 3))
        out = ad.matmul(ad.Tensor(np.eye(3)), b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_zeros(self):
        a = ad.Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        out = ad.matmul(a, ad.Tensor(np.zeros((4, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        out = ad.matmul(ad.Tensor(a), ad.Tensor(b))
        assert np.abs(out.data - loop_matmul(a, b)).max() < 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = ad.Tensor(rng.normal(size=(4, 6)))
            b = ad.Tensor(rng.normal(size=(6, 5)))
            c = ad.Tensor(rng.normal(size=(5, 3)))
            left = ad.matmul(ad.matmul(a, b), c).data
            right = ad.matmul(a, ad.matmul(b, c)).data
            assert rel_err(left, right) < 1e-9

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 2\)"):
            ad.matmul(ad.Tensor(np.zeros((3, 4))), ad.Tensor(np.zeros((3, 2))))

    def test_batched_and_vector_forms(self):
        rng = np.random.default_rng(11)
        a3 = rng.normal(size=(2, 3, 4))
        b3 = rng.normal(size=(2, 4, 5))
        out = ad.matmul(ad.Tensor(a3), ad.Tensor(b3))
        np.testing.assert_allclose(out.data, a3 @ b3, atol=1e-14)
        v = rng.normal(size=4)
        np.testing.assert_allclose(
            ad.matmul(ad.Tensor(a3[0]), ad.Tensor(v)).data, a3[0] @ v, atol=1e-14
        )
        np.testing.assert_allclose(
            ad.matmul(ad.Tensor(v), ad.Tensor(b3[0])).data, v @ b3[0], atol=1e-14
        )

    def test_batch_times_one_matrix(self):
        rng = np.random.default_rng(12)
        a = ad.parameter(rng.normal(size=(2, 3, 4)))
        b = ad.parameter(rng.normal(size=(4, 5)))
        out = ad.matmul(a, b)
        for k in range(2):
            assert np.abs(out.data[k] - loop_matmul(a.data[k], b.data)).max() < 1e-12
        probe = ad.Tensor(rng.normal(size=(2, 3, 5)))
        check_grad_fd(lambda: ad.tsum(ad.mul(ad.matmul(a, b), probe)), [a, b], max_coords=8)
        with pytest.raises(DimensionError, match="unsupported"):
            ad.matmul(ad.Tensor(np.zeros((3, 4))), ad.Tensor(np.zeros((2, 4, 5))))


class TestMaskedSoftmax:
    def test_uniform_on_equal_logits(self):
        out = ad.masked_softmax(ad.Tensor([0.0, 0.0, 0.0]), np.array([True, True, True]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_single_permitted_entry(self):
        out = ad.masked_softmax(ad.Tensor([5.0, -2.0, 0.3]), np.array([False, False, True]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 1.0])

    def test_matches_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 50
        logits = [1.0, 2.0, 3.0]
        exps = [mpmath.exp(x) for x in logits]
        total = sum(exps)
        expected = np.array([float(e / total) for e in exps])
        out = ad.masked_softmax(ad.Tensor(logits), np.ones(3, dtype=bool))
        assert np.abs(out.data - expected).max() < 1e-12

    def test_rows_sum_to_one_and_masked_exactly_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            logits = rng.normal(scale=30.0, size=(6, 9))
            mask = rng.random((6, 9)) < 0.6
            mask[:, 0] = True  # keep every row permitted
            out = ad.masked_softmax(ad.Tensor(logits), mask).data
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
            assert (out[~mask] == 0.0).all()

    def test_fully_masked_row_raises(self):
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(DegenerateRowError, match="row"):
            ad.masked_softmax(ad.Tensor(np.zeros((2, 2))), mask)

    def test_mask_of_the_wrong_shape_is_a_dimension_error(self):
        with pytest.raises(DimensionError, match="does not broadcast"):
            ad.masked_softmax(ad.Tensor(np.zeros((2, 3))), np.ones(4, dtype=bool))
        with pytest.raises(DimensionError, match="does not broadcast"):
            ad.masked_softmax(ad.Tensor(np.zeros(3)), np.ones((2, 3), dtype=bool))

    @settings(max_examples=60, deadline=None)
    @given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           scale=st.sampled_from([1e-3, 1.0, 30.0]), seed=st.integers(0, 2**32 - 1))
    def test_no_mask_is_bitwise_the_all_true_mask(self, shape, scale, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=scale, size=shape)
        probe = ad.Tensor(rng.normal(size=shape))
        results = []
        for mask in (None, np.ones(shape, dtype=bool)):
            x = ad.parameter(logits)
            with ad.Tape() as tape:
                out = ad.masked_softmax(x, mask)
                tape.backward(ad.tsum(ad.mul(out, probe)))
            results.append((out.data, x.grad))
        (out_none, grad_none), (out_all, grad_all) = results
        assert np.array_equal(out_none, out_all)
        assert np.array_equal(grad_none, grad_all)

    @pytest.mark.parametrize("masked", [False, True])
    def test_gradient_through_add_leaves_the_other_input_intact(self, masked):
        """``add`` hands one gradient array to both of its inputs, so the softmax
        adjoint must not write into it: q's gradient and the logits' match the oracle."""
        rng = np.random.default_rng(17)
        logits, other, mix = rng.normal(size=(3, 4, 6))
        mask = None
        if masked:
            mask = rng.random((4, 6)) < 0.6
            mask[:, 0] = True
        x, q = ad.parameter(logits), ad.parameter(other)
        with ad.Tape() as tape:
            p = ad.masked_softmax(x, mask)
            tape.backward(ad.tsum(ad.mul(ad.add(p, q), ad.Tensor(mix))))
        probs = p.data  # oracle: d(p . mix)/dx = p * (mix - sum(p * mix))
        assert np.array_equal(q.grad, mix)
        np.testing.assert_allclose(
            x.grad, probs * (mix - (probs * mix).sum(axis=-1, keepdims=True)), rtol=1e-12, atol=1e-15)


def gru_blocks(wx_shape, wh_shape, b_shape):
    """GruParams from zero gate blocks of the given shapes."""
    return ad.GruParams(*(ad.parameter(np.zeros(s)) for s in (wx_shape, wh_shape, b_shape)))


shapes = st.lists(st.integers(0, 7), min_size=1, max_size=3).map(tuple)


class TestGruParamsShapes:
    @settings(max_examples=40, deadline=None)
    @given(d_in=st.integers(1, 6), d_h=st.integers(1, 6))
    def test_valid_blocks_give_their_dims(self, d_in, d_h):
        p = gru_blocks((d_in, 3 * d_h), (d_h, 3 * d_h), (3 * d_h,))
        assert (p.d_in, p.d_h) == (d_in, d_h)
        assert p.tensors() == (p.wx, p.wh, p.b)

    @settings(max_examples=40, deadline=None)
    @given(d_in=st.integers(1, 6), cols=st.integers(1, 20).filter(lambda c: c % 3))
    def test_wx_columns_not_a_multiple_of_three(self, d_in, cols):
        # wh and b agree with wx's column count, so only the gate split can fail
        with pytest.raises(DimensionError):
            gru_blocks((d_in, cols), (cols // 3, cols), (cols,))

    @settings(max_examples=60, deadline=None)
    @given(d_in=st.integers(1, 6), d_h=st.integers(1, 6), wh_shape=shapes)
    def test_wh_not_h_by_3h(self, d_in, d_h, wh_shape):
        assume(wh_shape != (d_h, 3 * d_h))
        with pytest.raises(DimensionError):
            gru_blocks((d_in, 3 * d_h), wh_shape, (3 * d_h,))

    @settings(max_examples=60, deadline=None)
    @given(d_in=st.integers(1, 6), d_h=st.integers(1, 6), b_shape=shapes)
    def test_b_not_3h(self, d_in, d_h, b_shape):
        assume(b_shape != (3 * d_h,))
        with pytest.raises(DimensionError):
            gru_blocks((d_in, 3 * d_h), (d_h, 3 * d_h), b_shape)


class TestGruCell:
    @staticmethod
    def zero_params(d_in, d_h):
        return gru_blocks((d_in, 3 * d_h), (d_h, 3 * d_h), (3 * d_h,))

    def test_zero_params_zero_state(self):
        p = self.zero_params(3, 4)
        out = ad.gru_cell(ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(4)), p)
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_saturated_update_gate_passes_state_through(self):
        d_h = 4
        p = self.zero_params(3, d_h)
        p.b.data[d_h : 2 * d_h] = 50.0  # update gate (block z) ~1 keeps the previous state
        h_prev = np.array([0.3, -1.2, 0.5, 2.0])
        out = ad.gru_cell(ad.Tensor(np.ones(3)), ad.Tensor(h_prev), p)
        np.testing.assert_allclose(out.data, h_prev, atol=1e-6)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        d_in, d_h = 3, 4
        p = ad.GruParams.init(d_in, d_h, rng)
        for t in p.tensors():
            t.data[:] = rng.normal(scale=0.7, size=t.shape)
        x = rng.normal(size=d_in)
        h = rng.normal(size=d_h)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        def gate(k):
            """Wx, Wh and b of gate k (r, z, n): column block k of each stored block."""
            cols = slice(k * d_h, (k + 1) * d_h)
            return p.wx.data[:, cols], p.wh.data[:, cols], p.b.data[cols]

        (wr, ur, br), (wz, uz, bz), (wn, un, bn) = gate(0), gate(1), gate(2)
        expected = np.zeros(d_h)
        for j in range(d_h):
            ar = sum(x[i] * wr[i, j] for i in range(d_in))
            ar += sum(h[i] * ur[i, j] for i in range(d_h)) + br[j]
            az = sum(x[i] * wz[i, j] for i in range(d_in))
            az += sum(h[i] * uz[i, j] for i in range(d_h)) + bz[j]
            an = sum(x[i] * wn[i, j] for i in range(d_in))
            an += sig(ar) * sum(h[i] * un[i, j] for i in range(d_h)) + bn[j]
            n = math.tanh(an)
            expected[j] = (1.0 - sig(az)) * n + sig(az) * h[j]

        out = ad.gru_cell(ad.Tensor(x), ad.Tensor(h), p)
        assert np.abs(out.data - expected).max() < 1e-10

    def test_shape_mismatch(self):
        p = self.zero_params(3, 4)
        with pytest.raises(DimensionError):
            ad.gru_cell(ad.Tensor(np.zeros(5)), ad.Tensor(np.zeros(4)), p)


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        x = ad.parameter(np.arange(6.0).reshape(2, 3))
        with ad.Tape() as tape:
            loss = ad.tsum(x)
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_grad_of_sum_of_squares(self):
        x = ad.parameter([1.0, -2.0, 0.5])
        with ad.Tape() as tape:
            tape.backward(ad.tsum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = ad.parameter(np.ones(3))
        with ad.Tape() as tape:
            y = ad.mul(x, x)
            with pytest.raises(ContractError, match="scalar"):
                tape.backward(y)

    def test_fanout_accumulates(self):
        x = ad.parameter([1.0, 2.0])
        with ad.Tape() as tape:
            y = ad.add(ad.mul(x, x), x)  # x used twice
            tape.backward(ad.tsum(y))
        np.testing.assert_allclose(x.grad, 2 * x.data + 1.0)

    def test_double_backward_bit_identical_after_reset(self):
        rng = np.random.default_rng(9)
        x = ad.parameter(rng.normal(size=(4, 4)))
        w = ad.parameter(rng.normal(size=(4, 4)))
        with ad.Tape() as tape:
            y = ad.tanh(ad.matmul(x, w))
            loss = ad.tsum(ad.mul(y, y))
            tape.backward(loss)
            gx1, gw1 = x.grad.copy(), w.grad.copy()
            tape.zero_grads()
            tape.backward(loss)
        assert np.array_equal(gx1, x.grad)
        assert np.array_equal(gw1, w.grad)

    def test_composed_graph_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        x = ad.parameter(rng.normal(size=(3, 5)))
        w = ad.parameter(rng.normal(size=(5, 4)))

        def f():
            h = ad.tanh(ad.matmul(x, w))
            p = ad.masked_softmax(h, None)
            return ad.tsum(ad.mul(p, h))

        check_grad_fd(f, [x, w], max_coords=10)

    def test_tracked_leaves_get_same_shape_grads(self):
        rng = np.random.default_rng(19)
        tensors = [ad.parameter(rng.normal(size=s)) for s in [(2, 3), (3,), (3, 1)]]
        with ad.Tape() as tape:
            y = ad.add(ad.matmul(tensors[0], tensors[1]), ad.tsum(tensors[2]))
            tape.backward(ad.tsum(y))
        for t in tensors:
            assert t.grad is not None
            assert t.grad.shape == t.shape


class TestFiniteDiff:
    def test_sum_gives_ones(self):
        x = ad.Tensor(np.array([0.3, -1.0, 2.0]))
        g = finite_diff_grad(lambda t: ad.tsum(t), x)
        np.testing.assert_allclose(g, np.ones(3), atol=1e-9)

    def test_half_norm_gives_x(self):
        x = ad.Tensor(np.array([[0.4, -0.7], [1.3, 0.0]]))
        g = finite_diff_grad(lambda t: 0.5 * float(ad.tsum(ad.mul(t, t))), x, h=1e-5)
        np.testing.assert_allclose(g, x.data, atol=1e-8)

    def test_masked_attention_sum_agrees_with_backward(self):
        rng = np.random.default_rng(23)
        n = 5
        mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
        v = rng.normal(size=(n, n))
        logits = ad.parameter(rng.normal(size=(n, n)))

        def f(t):
            att = ad.masked_softmax(t, mask)
            return ad.tsum(ad.matmul(att, ad.Tensor(v)))

        fd = finite_diff_grad(f, logits, h=1e-5)
        with ad.Tape() as tape:
            tape.backward(f(logits))
        assert rel_err(logits.grad, fd) < 1e-4


class TestPerOpGradients:
    """Every differentiable op vs. central differences over >= 20 seeds."""

    CASES = {
        "add": lambda a, b: ad.tsum(ad.add(a, b)),
        "mul": lambda a, b: ad.tsum(ad.mul(a, b)),
        "matmul": lambda a, b: ad.tsum(ad.matmul(a, ad.transpose(b))),
        "tanh": lambda a, b: ad.tsum(ad.tanh(a)),
        "sigmoid": lambda a, b: ad.tsum(ad.sigmoid(a)),
        "gelu": lambda a, b: ad.tsum(ad.gelu(a)),
        "layer_norm": lambda a, b: ad.tsum(ad.mul(ad.layer_norm(a, ad.getitem(b, 0), ad.getitem(b, 1)), b)),
        "softmax": lambda a, b: ad.tsum(ad.mul(ad.masked_softmax(a, None), b)),
        "reshape": lambda a, b: ad.tsum(ad.mul(ad.reshape(a, (a.data.size,)), ad.reshape(b, (b.data.size,)))),
        "transpose": lambda a, b: ad.tsum(ad.mul(ad.transpose(a), ad.transpose(b))),
        "getitem": lambda a, b: ad.tsum(ad.getitem(a, (slice(1, 3), slice(0, 2)))),
        "concat": lambda a, b: ad.tsum(ad.mul(ad.concat([a, b], axis=0), ad.concat([b, a], axis=0))),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_op_gradient(self, name):
        fn = self.CASES[name]
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            a = ad.parameter(rng.normal(size=(3, 4)))
            b = ad.parameter(rng.normal(size=(3, 4)))
            check_grad_fd(lambda: fn(a, b), [a, b], max_coords=4, seed=seed)

    def test_gru_gradient(self):
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            p = ad.GruParams.init(3, 4, rng)
            x = ad.parameter(rng.normal(size=3))
            h = ad.parameter(rng.normal(size=4))
            weights = ad.parameter(rng.normal(size=4))

            def f():
                out = ad.gru_cell(x, h, p)
                return ad.tsum(ad.mul(out, weights))

            check_grad_fd(f, [x, h, *p.tensors()], max_coords=9, seed=seed)

    def test_masked_softmax_gradient(self):
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            mask = rng.random((4, 5)) < 0.7
            mask[:, 2] = True
            logits = ad.parameter(rng.normal(size=(4, 5)))
            mix = rng.normal(size=(4, 5))

            def f():
                return ad.tsum(ad.mul(ad.masked_softmax(logits, mask), ad.Tensor(mix)))

            check_grad_fd(f, [logits], max_coords=5, seed=seed)


def composed_layer_norm(x, gain, bias, eps=1e-5):
    """Layer norm as the separate numpy steps of a per-op composition, in their order."""
    centered = x - np.asarray(x.mean(axis=-1, keepdims=True))
    var = np.asarray((centered * centered).mean(axis=-1, keepdims=True))
    inv = (var + np.float64(eps)) ** -0.5
    return centered * inv * gain + bias


class TestLayerNorm:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 64), d=st.integers(1, 32), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.1, 1.0, 10.0]), constant_rows=st.booleans())
    def test_op_matches_the_composition(self, rows, d, seed, scale, constant_rows):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, d)) * scale
        if constant_rows:
            x[::2] = rng.normal(size=(len(x[::2]), 1))  # zero variance: inv = eps^-1/2
        gain, bias, mix = rng.normal(size=d), rng.normal(size=d), rng.normal(size=(rows, d))
        xt, gt, bt = ad.parameter(x), ad.parameter(gain), ad.parameter(bias)
        with ad.Tape() as tape:
            out = ad.layer_norm(xt, gt, bt)
        assert len(tape) == 1
        assert np.array_equal(out.data, composed_layer_norm(x, gain, bias))  # bitwise
        assert np.array_equal(xt.data, x)
        check_grad_fd(lambda: ad.tsum(ad.mul(ad.layer_norm(xt, gt, bt), ad.Tensor(mix))),
                      [xt, gt, bt], max_coords=8, seed=seed % 1000)
        assert np.array_equal(xt.data, x)


class TestGelu:
    def test_matches_the_cube_form(self):
        x = np.concatenate([np.linspace(-50.0, 50.0, 100001),
                            np.random.default_rng(5).normal(scale=3.0, size=100000)])
        inner = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)
        expected = 0.5 * x * (1.0 + np.tanh(inner))
        slope = (0.5 * (1.0 + np.tanh(inner)) + 0.5 * x * (1.0 - np.tanh(inner) ** 2)
                 * math.sqrt(2.0 / math.pi) * (1.0 + 3 * 0.044715 * x**2))
        xt = ad.parameter(x)
        with ad.Tape() as tape:
            out = ad.gelu(xt)
            tape.backward(ad.tsum(out))
        assert np.abs(out.data - expected).max() <= 1e-15
        assert np.abs(xt.grad - slope).max() <= 1e-15


class TestCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        logits = ad.Tensor(np.zeros((4, 7)))
        loss = ad.cross_entropy_logits(logits, [0, 3, 6, 2])
        assert abs(loss.item() - 4 * math.log(7)) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(31)
        logits = ad.parameter(rng.normal(size=(3, 6)))
        targets = np.array([1, 4, 0])
        check_grad_fd(lambda: ad.cross_entropy_logits(logits, targets), [logits], max_coords=8)

    def test_records_one_tape_entry(self):
        logits = ad.parameter(np.random.default_rng(32).normal(size=(4, 6)))
        with ad.Tape() as tape:
            ad.cross_entropy_logits(logits, [0, 5, 2, 2])
        assert len(tape) == 1

    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(1, 6), vocab=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 30.0, 400.0]), ties=st.integers(0, 3),
           target_at_a_tie=st.booleans())
    def test_matches_high_precision_oracle(self, rows, vocab, seed, scale, ties, target_at_a_tie):
        """Loss and gradient (softmax - one-hot) within a few ulps of mpmath's, relative,
        widened only by what the rounding of x - max moves them: p |log p| in each
        probability a value sums, and each row's entropy through its normalizer.  Rows
        may tie at their max, and a target may be the tie that is not the argmax."""
        import mpmath

        mpmath.mp.dps = 60
        rng = np.random.default_rng(seed)
        x = rng.uniform(-scale, scale, size=(rows, vocab))
        for row in x:
            row[rng.permutation(vocab)[:ties]] = row.max()
        targets = rng.integers(0, vocab, size=rows)
        if target_at_a_tie:  # the last max entry, where argmax takes the first
            targets = vocab - 1 - x[:, ::-1].argmax(axis=1)
        logits = ad.parameter(x)
        with ad.Tape() as tape:
            loss = ad.cross_entropy_logits(logits, targets)
            tape.backward(loss)
        eps, exact_loss, entropies = 2.0**-52, mpmath.mpf(0), mpmath.mpf(0)
        for i, (row, t) in enumerate(zip(x.tolist(), targets.tolist())):
            top = max(range(vocab), key=row.__getitem__)
            exps = [mpmath.exp(mpmath.mpf(v) - row[top]) for v in row]
            total = mpmath.fsum(exps)
            others = [mpmath.fsum(exps[:k] + exps[k + 1:]) for k in (top, t)]  # no cancellation
            exact_loss += row[top] - mpmath.mpf(row[t]) + mpmath.log1p(others[0])
            probs = [e / total for e in exps]
            spread = [p * abs(mpmath.log(p)) for p in probs]  # p |log p| >= p |x - max|
            entropy = mpmath.fsum(spread)
            entropies += entropy
            for j in range(vocab):
                want = -others[1] / total if j == t else probs[j]  # p_t - 1 = -(sum of the rest)
                cond = abs(want) * (1 + entropy) + (entropy if j == t else spread[j])
                assert abs(logits.grad[i, j] - want) <= 8 * eps * cond + np.finfo(float).tiny, (i, j)
        assert abs(loss.item() - exact_loss) <= (4 + rows) * eps * (exact_loss + entropies)


class TestThreadConfinement:
    def test_tapes_are_per_thread(self):
        import threading

        results = {}

        def worker(name, seed):
            rng = np.random.default_rng(seed)
            x = ad.parameter(rng.normal(size=(6, 6)))
            with ad.Tape() as tape:
                loss = ad.tsum(ad.mul(ad.tanh(x), ad.tanh(x)))
                tape.backward(loss)
            results[name] = (x.data.copy(), x.grad.copy())

        threads = [threading.Thread(target=worker, args=(f"t{i}", i)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        for name, (data, grad) in results.items():
            expected = 2 * np.tanh(data) * (1 - np.tanh(data) ** 2)
            np.testing.assert_allclose(grad, expected, atol=1e-12)


class TestDropoutAndNoGrad:
    def test_dropout_disabled_is_identity(self):
        x = ad.Tensor(np.ones((3, 3)))
        out = ad.dropout(x, 0.0, np.random.default_rng(0))
        assert out is x

    def test_dropout_seeded_deterministic(self):
        x = ad.Tensor(np.ones((8, 8)))
        a = ad.dropout(x, 0.4, np.random.default_rng(42)).data
        b = ad.dropout(x, 0.4, np.random.default_rng(42)).data
        np.testing.assert_array_equal(a, b)

    def test_no_grad_suppresses_recording(self):
        x = ad.parameter(np.ones(3))
        with ad.Tape() as tape:
            with ad.no_grad():
                y = ad.mul(x, x)
            assert len(tape) == 0
            assert not y.requires_grad
