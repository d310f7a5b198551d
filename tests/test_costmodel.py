"""Fitted memory models vs. published operating points and fit round-trips."""

import numpy as np
import pytest

from longspan import costmodel as cm
from longspan.errors import DomainError, FormatError, SingularFitError

# Published training-memory profile at N=1024, M=144, B=1 (GiB per term).
PROFILE_1024 = {"const": 6.05, "per_m": 0.23, "per_n": 0.84,
                "per_mn": 0.21, "per_m2": 0.02, "per_n2": 1.53}

# Published totals at M=144, B=1: (n, window-or-None, GiB).  The starred
# (8192, 256) row disagrees with the published fit itself by ~0.7 GiB
# (its neighbors 128->19.3 and 512->27.1 bracket a ~21.8 prediction), so
# it is excluded here and handled explicitly in the acceptance suite.
PUBLISHED_TOTALS = [
    (1024, None, 8.9),
    (2048, 128, 9.6),
    (2048, 256, 10.2),
    (2048, 512, 11.6),
    (2048, 1024, 14.2),
    (2048, None, 14.5),
    (4096, 128, 12.8),
    (4096, 256, 14.1),
    (4096, 512, 16.7),
    (4096, 1024, 22.0),
    (8192, 128, 19.3),
    (8192, 512, 27.1),
]
OUTLIER_TOTAL = (8192, 256, 21.1)


def evaluate(n, window):
    if window is None:
        return cm.bart_memory(n, 144, 1)
    return cm.lobart_memory(n, 144, window, 1)


class TestFullAttentionModel:
    def test_profile_terms(self):
        breakdown = cm.bart_memory(1024, 144, 1)
        for name, published in PROFILE_1024.items():
            assert abs(breakdown.terms[name] - published) <= 0.01, name

    def test_profile_total(self):
        total = cm.bart_memory(1024, 144, 1).total
        assert abs(total - 8.88) <= 0.05

    def test_total_is_sum_of_terms(self):
        b = cm.bart_memory(777, 200, 3)
        assert abs(b.total - sum(b.terms.values())) < 1e-12

    def test_unit_sizes_dominated_by_constant(self):
        b = cm.bart_memory(1, 1, 1)
        assert b.terms["const"] == pytest.approx(6.054)
        assert b.total < 6.06

    def test_zero_size_rejected(self):
        with pytest.raises(DomainError):
            cm.bart_memory(0, 144, 1)
        with pytest.raises(DomainError):
            cm.bart_memory(1024, 144, 0)


class TestBandedModel:
    def test_published_totals(self):
        for n, window, published in PUBLISHED_TOTALS:
            total = evaluate(n, window).total
            assert abs(total - published) <= 0.15, (n, window, total)

    def test_outlier_entry_is_inconsistent_with_fit(self):
        n, window, published = OUTLIER_TOTAL
        total = evaluate(n, window).total
        assert abs(total - 21.80) < 0.01  # the fit itself
        assert abs(total - published) > 0.5

    def test_batch_scales_activation_only(self):
        one = cm.lobart_memory(2048, 144, 256, 1)
        two = cm.lobart_memory(2048, 144, 256, 2)
        assert two.terms["const"] == one.terms["const"]
        for name in ("per_m", "per_n", "per_mn", "per_m2", "per_nw"):
            assert two.terms[name] == pytest.approx(2 * one.terms[name])

    def test_monotonic_in_each_size(self):
        base = cm.lobart_memory(2048, 144, 256, 1).total
        assert cm.lobart_memory(4096, 144, 256, 1).total > base
        assert cm.lobart_memory(2048, 288, 256, 1).total > base
        assert cm.lobart_memory(2048, 144, 512, 1).total > base
        assert cm.lobart_memory(2048, 144, 256, 2).total > base

    def test_band_saves_memory_below_crossover(self):
        # Dominant-term rule says ~0.58N; constant/linear offsets pull the
        # exact total crossover a little lower, so probe with margin.
        n = 4096
        for ratio in (0.1, 0.3, 0.5):
            w = int(ratio * n)
            assert cm.lobart_memory(n, 144, w, 1).total < cm.bart_memory(n, 144, 1).total
        for ratio in (0.59, 0.7, 0.9):
            w = int(ratio * n)
            assert cm.lobart_memory(n, 144, w, 1).total > cm.bart_memory(n, 144, 1).total
        # at very long inputs the quadratic dominates and 0.57N already saves
        assert cm.lobart_memory(32768, 144, int(0.57 * 32768), 1).total \
            < cm.bart_memory(32768, 144, 1).total


class TestHierModel:
    def test_published_point(self):
        total = cm.hier_rnn_memory(1000, 50, 1).total
        assert abs(total - 2.5346) < 1e-9
        assert round(total, 2) == 2.53

    def test_unit_sizes(self):
        total = cm.hier_rnn_memory(1, 1, 1).total
        assert abs(total - (0.83 + 3.96e-5 + 3.33e-5)) < 1e-12

    def test_batch_doubles_activation_only(self):
        one = cm.hier_rnn_memory(1000, 50, 1)
        two = cm.hier_rnn_memory(1000, 50, 2)
        assert two.terms["const"] == one.terms["const"]
        assert (two.total - two.terms["const"]) == pytest.approx(
            2 * (one.total - one.terms["const"])
        )


GIB = float(2**30)


def model_optimizer_memory(param_count, bytes_per_value=4):
    """Static memory: parameters + gradients + two adaptive-moment buffers.

    Each parameter stores one gradient and the optimizer keeps first and
    second moments, so the total is 4x the parameter bytes.
    """
    per = param_count * bytes_per_value / GIB
    terms = {"parameters": per, "gradients": per,
             "adam_first_moment": per, "adam_second_moment": per}
    return cm.MemoryBreakdown("model_optimizer",
                              {"param_count": param_count, "bytes_per_value": bytes_per_value},
                              terms)


class TestModelOptimizerMemory:
    def test_published_parameter_count(self):
        b = model_optimizer_memory(406_290_432, 4)
        assert round(b.terms["parameters"], 2) == 1.51
        assert round(b.terms["gradients"], 2) == 1.51
        assert abs(b.terms["adam_first_moment"] + b.terms["adam_second_moment"] - 3.02) < 0.01
        assert abs(b.total - 6.054) < 0.001

    def test_zero_params(self):
        b = model_optimizer_memory(0)
        assert b.total == 0.0

    def test_extended_positional_count(self):
        count = 406_290_432 + 50_264 * 3 * 1024
        b = model_optimizer_memory(count, 4)
        assert b.total == pytest.approx(4 * count * 4 / GIB)


class TestBreakeven:
    def test_default_ratio(self):
        ratio = cm.breakeven_width(1, None, None)
        assert abs(ratio - 0.582) <= 0.001

    def test_scales_with_n(self):
        assert cm.breakeven_width(4096) == pytest.approx(0.582 * 4096, abs=0.001 * 4096)
        assert 2380 < cm.breakeven_width(4096) < 2385

    def test_zero_n(self):
        assert cm.breakeven_width(0) == 0.0

    def test_equal_coefficients_give_n(self):
        flat = cm.CostCoefficients(cm.KIND_BART, (1, 1, 1, 1, 1, 2.0))
        band = cm.CostCoefficients(cm.KIND_LOBART, (1, 1, 1, 1, 1, 2.0))
        assert cm.breakeven_width(100, flat, band) == 100.0

    def test_zero_band_coefficient_rejected(self):
        band = cm.CostCoefficients(cm.KIND_LOBART, (1, 1, 1, 1, 1, 0.0))
        with pytest.raises(DomainError):
            cm.breakeven_width(100, None, band)


class TestFit:
    @staticmethod
    def synth_samples(kind, rng, count=30, noise=0.0):
        samples = []
        for _ in range(count):
            n = int(rng.integers(64, 3000))
            m = int(rng.integers(36, 576))
            b = int(rng.integers(1, 3))
            if kind == cm.KIND_BART:
                total = cm.bart_memory(n, m, b).total
                rec = {"n": n, "m": m, "b": b}
            else:
                w = int(rng.integers(32, 512))
                total = cm.lobart_memory(n, m, w, b).total
                rec = {"n": n, "m": m, "w": w, "b": b}
            rec["gib"] = total + (rng.normal(scale=noise) if noise else 0.0)
            samples.append(rec)
        return samples

    @pytest.mark.parametrize("kind", [cm.KIND_BART, cm.KIND_LOBART])
    def test_round_trip_on_exact_samples(self, kind):
        rng = np.random.default_rng(13)
        fit, rmse = cm.fit_coefficients(self.synth_samples(kind, rng), kind)
        expected = cm.CostCoefficients.defaults(kind)
        np.testing.assert_allclose(fit.values, expected.values, rtol=0, atol=1e-9)
        assert rmse < 1e-9

    def test_noise_rmse_scale(self):
        sigma = 0.01
        rmses = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            samples = self.synth_samples(cm.KIND_BART, rng, count=60, noise=sigma)
            _, rmse = cm.fit_coefficients(samples, cm.KIND_BART)
            rmses.append(rmse)
        mean_rmse = float(np.mean(rmses))
        assert 0.5 * sigma < mean_rmse < 1.5 * sigma

    def test_underdetermined_rejected(self):
        rng = np.random.default_rng(1)
        samples = self.synth_samples(cm.KIND_BART, rng, count=4)
        with pytest.raises(SingularFitError):
            cm.fit_coefficients(samples, cm.KIND_BART)

    def test_rank_deficient_rejected(self):
        samples = [{"n": 100, "m": 50, "b": 1, "gib": 7.0}] * 10
        with pytest.raises(SingularFitError):
            cm.fit_coefficients(samples, cm.KIND_BART)

    def test_hier_round_trip(self):
        rng = np.random.default_rng(29)
        samples = []
        for _ in range(20):
            n1 = int(rng.integers(10, 1200))
            n2 = int(rng.integers(5, 60))
            b = int(rng.integers(1, 4))
            samples.append({"n1": n1, "n2": n2, "b": b,
                            "gib": cm.hier_rnn_memory(n1, n2, b).total})
        fit, rmse = cm.fit_coefficients(samples, cm.KIND_HIER)
        np.testing.assert_allclose(
            fit.values, cm.CostCoefficients.defaults(cm.KIND_HIER).values, atol=1e-9
        )
        assert rmse < 1e-9


class TestAdvisor:
    def test_known_feasible_point(self):
        points = cm.advise_operating_point(32.0, 144, 1, [(8192, 512)])
        assert points[0].feasible
        assert abs(points[0].total_gib - 27.1) < 0.15

    def test_zero_budget_has_empty_feasible_set(self):
        points = cm.advise_operating_point(0.0, 144, 1, [(1024, None), (2048, 128)])
        assert not any(p.feasible for p in points)

    def test_twelve_gib_budget(self):
        points = cm.advise_operating_point(12.0, 144, 1, [(1024, None), (2048, None)])
        assert points[0].feasible and not points[1].feasible

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            cm.advise_operating_point(10.0, 144, 1, [])


class TestCoefficientFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "coeffs.txt"
        path.write_text("# test\nc_b_1 = 1.5\nc_b_2=0\nc_b_3 = 2e-3\n"
                        "c_b_4 = 0\nc_b_5 = 0\nc_b_6 = 1e-6\n")
        coeffs = cm.CostCoefficients.from_mapping(cm.KIND_BART, cm.load_coefficient_file(path))
        assert coeffs.values == (1.5, 0.0, 2e-3, 0.0, 0.0, 1e-6)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("c_b_1 6.0\n")
        with pytest.raises(FormatError):
            cm.load_coefficient_file(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "partial.txt"
        path.write_text("c_b_1 = 6.0\n")
        with pytest.raises(FormatError):
            cm.CostCoefficients.from_mapping(cm.KIND_BART, cm.load_coefficient_file(path))

    def test_negative_coefficient_rejected(self):
        with pytest.raises(DomainError):
            cm.CostCoefficients(cm.KIND_BART, (1, 1, 1, 1, 1, -0.5))
