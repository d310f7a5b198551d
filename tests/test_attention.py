"""Band masks, attention equivalences, positional tiling, toy model contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longspan import attention as attn
from longspan import autodiff as ad
from longspan.errors import ContractError, DomainError, InputError

from test_autodiff import check_grad_fd


def brute_force_band_count(n: int, window: int) -> int:
    half = window // 2
    return sum(1 for i in range(n) for j in range(n) if abs(i - j) <= half)


def brute_force_mean_distance(weights: np.ndarray) -> float:
    n = weights.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += weights[i, j] * abs(i - j)
    return total / n


class TestLocalMask:
    def test_wide_window_permits_everything(self):
        mask = attn.build_local_mask(5, 9)
        assert mask.all() and mask.shape == (5, 5)

    def test_narrow_window_rows(self):
        mask = attn.build_local_mask(5, 3)
        assert set(np.flatnonzero(mask[0])) == {0, 1}
        assert set(np.flatnonzero(mask[2])) == {1, 2, 3}

    def test_pair_count_matches_brute_force(self):
        # oracle: count pairs with |i - j| <= 4 for n = 9
        assert brute_force_band_count(9, 9) == 61
        assert int(attn.build_local_mask(9, 9).sum()) == 61

    def test_zero_window_rejected(self):
        with pytest.raises(DomainError):
            attn.build_local_mask(4, 0)


class TestMultiHeadAttention:
    @staticmethod
    def make(n=6, d=8, heads=2, seed=0):
        rng = np.random.default_rng(seed)
        params = attn.AttentionParams.init(d, rng)
        q = ad.Tensor(rng.normal(size=(n, d)))
        k = ad.Tensor(rng.normal(size=(n, d)))
        v = ad.Tensor(rng.normal(size=(n, d)))
        return q, k, v, params

    def test_zero_queries_give_uniform_rows(self):
        _, k, v, params = self.make()
        mask = attn.build_local_mask(6, 3)
        zero_q = ad.Tensor(np.zeros((6, 8)))
        _, weights = attn.multi_head_attention(zero_q, k, v, mask, params, 2)
        for h in range(2):
            for i in range(6):
                permitted = mask[i]
                row = weights.data[h, i]
                np.testing.assert_allclose(row[permitted], 1.0 / permitted.sum(), atol=1e-12)
                assert (row[~permitted] == 0.0).all()

    def test_diagonal_mask_projects_values(self):
        q, k, v, params = self.make()
        out, weights = attn.multi_head_attention(q, k, v, np.eye(6, dtype=bool), params, 2)
        np.testing.assert_allclose(
            weights.data, np.broadcast_to(np.eye(6), (2, 6, 6)), atol=0
        )
        expected = (v.data @ params.wv.data + params.bv.data) @ params.wo.data + params.bo.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_local_equals_full_when_window_covers(self):
        for n in (1, 2, 5, 16, 33):
            q, k, v, params = self.make(n=n, seed=n)
            full = np.ones((n, n), dtype=bool)
            local = attn.build_local_mask(n, 2 * n - 1)
            out_full, _ = attn.multi_head_attention(q, k, v, full, params, 2)
            out_local, _ = attn.multi_head_attention(q, k, v, local, params, 2)
            assert np.abs(out_full.data - out_local.data).max() < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(nq=st.integers(1, 7), nk=st.integers(1, 7), heads=st.sampled_from([1, 2, 4]),
           seed=st.integers(0, 2**32 - 1))
    def test_no_mask_is_bitwise_the_all_true_mask(self, nq, nk, heads, seed):
        """Cross-attention shapes (Nq != Nk) included; the explicit mask is the oracle."""
        rng = np.random.default_rng(seed)
        params = attn.AttentionParams.init(8, rng)
        data = [rng.normal(size=(n, 8)) for n in (nq, nk, nk)]
        probe = ad.Tensor(rng.normal(size=(nq, 8)))
        results = []
        for mask in (None, np.ones((nq, nk), dtype=bool)):
            q, k, v = (ad.parameter(d) for d in data)
            tracked = [q, k, v, *vars(params).values()]
            with ad.Tape() as tape:
                out, weights = attn.multi_head_attention(q, k, v, mask, params, heads)
                tape.backward(ad.tsum(ad.mul(out, probe)))
            results.append([out.data, weights.data] + [t.grad.copy() for t in tracked])
            tape.zero_grads()
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_gradients_match_finite_differences(self):
        q, k, v, params = self.make(n=4)
        q = ad.parameter(q.data)
        mask = attn.build_local_mask(4, 3)

        def f():
            out, _ = attn.multi_head_attention(q, k, v, mask, params, 2)
            return ad.tsum(ad.mul(out, out))

        check_grad_fd(f, [q, params.wq, params.wk, params.wv, params.wo, params.bq], max_coords=4)


class TestPositionalExtension:
    def test_identity_at_base_length(self):
        base = ad.Tensor(np.arange(12.0).reshape(4, 3))
        out = attn.extend_positional_embedding(base, 4)
        np.testing.assert_array_equal(out.data, base.data)

    def test_boundary_continuity(self):
        base = ad.Tensor(np.random.default_rng(0).normal(size=(5, 3)))
        out = attn.extend_positional_embedding(base, 20).data
        np.testing.assert_array_equal(out[4], base.data[4])
        np.testing.assert_array_equal(out[5], base.data[4])  # block seam repeats the row
        np.testing.assert_array_equal(out[9], base.data[0])
        np.testing.assert_array_equal(out[10], base.data[0])

    def test_period_two_blocks(self):
        length = 4
        base = ad.Tensor(np.random.default_rng(1).normal(size=(length, 2)))
        out = attn.extend_positional_embedding(base, 6 * length).data
        for p in range(4 * length):
            np.testing.assert_array_equal(out[p], out[p + 2 * length])

    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    def test_every_length_matches_loop_oracle(self, length):
        base = ad.Tensor(np.random.default_rng(length).normal(size=(length, 2)))
        for n in range(1, 3 * length + 2):
            rows = []
            for block in range(n // length + 1):
                offsets = range(length) if block % 2 == 0 else reversed(range(length))
                rows.extend(offsets)
            out = attn.extend_positional_embedding(base, n)
            np.testing.assert_array_equal(out.data, base.data[rows[:n]])

    def test_empty_target_rejected(self):
        with pytest.raises(DomainError):
            attn.extend_positional_embedding(ad.Tensor(np.zeros((4, 2))), 0)

    def test_gradient_flows_through_gather(self):
        base = ad.parameter(np.random.default_rng(2).normal(size=(3, 2)))
        check_grad_fd(
            lambda: ad.tsum(ad.mul(attn.extend_positional_embedding(base, 9),
                                   attn.extend_positional_embedding(base, 9))),
            [base],
        )


class TestEncoder:
    def test_output_shape(self):
        model = attn.ToySeq2Seq.init(seed=1)
        states, attns = model.encoder_forward(np.arange(10) % model.config.vocab)
        assert states.shape == (10, model.config.d_model)
        assert len(attns) == model.config.enc_layers
        assert attns[0].shape == (model.config.n_heads, 10, 10)

    def test_full_equals_wide_window(self):
        cfg_full = attn.ToyModelConfig(window=attn.FULL)
        cfg_wide = attn.ToyModelConfig(window=2 * 12 - 1)
        tokens = np.arange(12) + 2
        full = attn.ToySeq2Seq.init(cfg_full, seed=3)
        wide = attn.ToySeq2Seq.init(cfg_wide, seed=3)
        s_full, _ = full.encoder_forward(tokens)
        s_wide, _ = wide.encoder_forward(tokens)
        assert np.abs(s_full.data - s_wide.data).max() < 1e-9

    def test_receptive_field_is_exact(self):
        cfg = attn.ToyModelConfig(enc_layers=1, window=3)
        model = attn.ToySeq2Seq.init(cfg, seed=4)
        tokens = np.array([5, 9, 13, 17, 21, 25])
        base, _ = model.encoder_forward(tokens)
        perturbed = tokens.copy()
        perturbed[4] = 77  # |0 - 4| > 1 * floor(3/2)
        after, _ = model.encoder_forward(perturbed)
        assert np.array_equal(base.data[0], after.data[0])
        assert not np.array_equal(base.data[4], after.data[4])

    def test_overlong_input_rejected(self):
        model = attn.ToySeq2Seq.init(seed=0)
        with pytest.raises(InputError, match="length"):
            model.encoder_forward(np.zeros(model.config.max_src + 1, dtype=int))

    @pytest.mark.parametrize("window", [attn.FULL, 5])
    def test_max_src_off_the_base_multiple_encodes_as_rounded_up(self, window):
        """Encoder positions do not depend on max_src, so any max_src >= 1 works."""
        odd = attn.ToySeq2Seq.init(attn.ToyModelConfig(max_src=37, window=window), seed=11)
        rounded = attn.ToySeq2Seq.init(attn.ToyModelConfig(max_src=48, window=window), seed=11)
        tokens = np.random.default_rng(11).integers(0, odd.config.vocab, size=37)
        for n in (1, 16, 17, 37):
            s_odd, a_odd = odd.encoder_forward(tokens[:n])
            s_rounded, a_rounded = rounded.encoder_forward(tokens[:n])
            assert np.array_equal(s_odd.data, s_rounded.data)
            assert all(np.array_equal(a.data, b.data) for a, b in zip(a_odd, a_rounded))

    def test_bad_token_rejected(self):
        model = attn.ToySeq2Seq.init(seed=0)
        with pytest.raises(InputError, match="vocabulary"):
            model.encoder_forward([0, model.config.vocab])

    @pytest.mark.parametrize("tokens", [[1.7, 2.9, 3.2], [1.0, 2.0], [True, False, True],
                                        np.array([3, 4], dtype=np.float32), ["3", "4"], [3, 4.5]])
    def test_non_integer_tokens_rejected(self, tokens):
        model = attn.ToySeq2Seq.init(seed=0)
        with pytest.raises(InputError, match="integer token ids"):
            model.encoder_forward(tokens)
        with pytest.raises(InputError, match="integer token ids"):
            model.loss([3, 4, 5], tokens)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint64])
    def test_integer_arrays_of_any_width_encode_alike(self, dtype):
        model = attn.ToySeq2Seq.init(seed=0)
        tokens = [3, 17, 42, 99]
        states, _ = model.encoder_forward(tokens)
        assert np.array_equal(model.encoder_forward(np.array(tokens, dtype=dtype))[0].data,
                              states.data)
        assert model.loss(np.array(tokens, dtype=dtype), np.array([5, 6], dtype=dtype)).item() \
            == model.loss(tokens, [5, 6]).item()


class TestSeq2Seq:
    def test_logits_shape(self):
        model = attn.ToySeq2Seq.init(seed=5)
        logits = model.seq2seq_forward([1, 2, 3, 4], [5, 6, 7])
        assert logits.shape == (3, model.config.vocab)

    def test_causality(self):
        model = attn.ToySeq2Seq.init(seed=6)
        src = [3, 1, 4, 1, 5]
        tgt = np.array([2, 7, 1, 8, 2, 8])
        base = model.seq2seq_forward(src, tgt).data
        for m in range(len(tgt)):
            changed = tgt.copy()
            changed[m] = (changed[m] + 11) % model.config.vocab
            after = model.seq2seq_forward(src, changed).data
            assert np.array_equal(base[: m + 1], after[: m + 1])

    def test_loss_gradient_matches_finite_differences(self):
        cfg = attn.ToyModelConfig(
            vocab=13, d_model=8, n_heads=2, enc_layers=2, dec_layers=2,
            ffn_dim=12, pos_base_len=8, max_src=8, max_tgt=6, window=3,
        )
        model = attn.ToySeq2Seq.init(cfg, seed=7)
        src = [3, 1, 4, 1, 5, 9]
        tgt = [2, 6, 5, 3]
        probe = [model.params[k] for k in
                 ("embed", "pos_enc", "enc.0.attn.wq", "enc.1.ffn.w1",
                  "dec.0.xattn.wk", "dec.1.attn.wv", "out.w", "enc.0.ln_a.g")]
        check_grad_fd(lambda: model.loss(src, tgt), probe, max_coords=3)


class TestMeanDistance:
    def test_uniform_reference_value(self):
        n = 1024
        uniform = np.full((n, n), 1.0 / n)
        d = attn.mean_attention_distance(uniform)
        assert abs(d - attn.uniform_attention_distance(n)) < 1e-9
        assert round(d, 2) == 341.33

    def test_identity_attention_zero(self):
        assert attn.mean_attention_distance(np.eye(8)) == 0.0

    def test_small_uniform_matches_enumeration(self):
        uniform = np.full((4, 4), 0.25)
        d = attn.mean_attention_distance(uniform)
        assert abs(d - 1.25) < 1e-12
        assert abs(d - brute_force_mean_distance(uniform)) < 1e-12

    def test_random_maps_match_brute_force(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 7, 16, 33, 64):
            raw = rng.random((n, n))
            weights = raw / raw.sum(axis=1, keepdims=True)
            got = attn.mean_attention_distance(weights)
            assert abs(got - brute_force_mean_distance(weights)) < 1e-10
            assert got <= n - 1

    def test_non_stochastic_rejected(self):
        with pytest.raises(ContractError):
            attn.mean_attention_distance(np.full((3, 3), 0.5))

    def test_row_off_by_1e7_rejected(self):
        weights = np.full((4, 4), 0.25)
        weights[2, 1] += 1e-7
        with pytest.raises(ContractError):
            attn.mean_attention_distance(weights)
        weights[2, 1] -= 1e-7 - attn.ROW_SUM_TOL / 2
        attn.mean_attention_distance(weights)
