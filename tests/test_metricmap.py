import numpy as np
import pytest
from scipy import optimize

from jodscale.errors import (
    DegenerateDataError,
    DesignError,
    IntegrityError,
    UndefinedCorrelationError,
)
from jodscale.metricmap import (
    LogisticParams,
    correlation_metrics,
    eval_logistic,
    fit_logistic,
    pairwise_accuracy,
)

from conftest import graph_of


class TestEvalLogistic:
    def test_identity(self):
        params = LogisticParams(0.0, 0.0, 0.0, 1.0, 0.0)
        x = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(eval_logistic(params, x), x)

    def test_constant(self):
        params = LogisticParams(0.0, 0.0, 0.0, 0.0, -1.0)
        np.testing.assert_allclose(eval_logistic(params, [0.0, 3.0]), -1.0)

    def test_logistic_midpoint(self):
        params = LogisticParams(2.0, 1.0, 0.0, 0.0, 0.0)
        assert float(eval_logistic(params, 0.0)) == pytest.approx(1.0)

    def test_extreme_arguments_stay_finite(self):
        params = LogisticParams(3.0, 50.0, 0.0, 0.1, 0.0)
        out = eval_logistic(params, np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))


class TestFitLogistic:
    def test_generate_and_refit(self):
        rng = np.random.default_rng(3)
        truth = LogisticParams(a1=2.5, a2=1.3, a3=0.2, a4=-0.4, a5=0.7)
        scores = rng.uniform(-3, 3, 50)
        jod = eval_logistic(truth, scores)
        fit = fit_logistic(scores, jod)
        assert fit.rmse < 1e-6
        np.testing.assert_allclose(eval_logistic(fit.params, scores), jod, atol=1e-5)

    def test_linear_data_never_worse_than_regression(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(0, 10, 30)
        jod = -0.8 * scores + 2.0 + rng.normal(0, 0.05, 30)
        slope, intercept = np.polyfit(scores, jod, 1)
        linear_rmse = float(np.sqrt(np.mean((slope * scores + intercept - jod) ** 2)))
        fit = fit_logistic(scores, jod)
        assert fit.rmse <= linear_rmse + 1e-12

    def test_constant_jod(self):
        scores = np.linspace(0, 1, 10)
        jod = np.full(10, -2.0)
        fit = fit_logistic(scores, jod)
        assert fit.rmse == pytest.approx(0.0, abs=1e-9)

    def test_order_invariance(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(-2, 2, 40)
        jod = eval_logistic(LogisticParams(1.5, 2.0, 0.0, 0.2, -1.0), scores)
        jod = jod + rng.normal(0, 0.02, 40)
        fit_fwd = fit_logistic(scores, jod)
        perm = rng.permutation(40)
        fit_perm = fit_logistic(scores[perm], jod[perm])
        np.testing.assert_allclose(
            eval_logistic(fit_fwd.params, scores),
            eval_logistic(fit_perm.params, scores),
            atol=1e-6,
        )

    def test_degenerate_scores_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_logistic(np.full(10, 1.0), np.arange(10.0))

    def test_too_few_points_rejected(self):
        with pytest.raises(IntegrityError):
            fit_logistic(np.arange(5.0), np.arange(5.0))

    def test_a_fault_in_the_solver_propagates(self, monkeypatch):
        def fault(*args, **kwargs):
            raise RuntimeError("fault in the solver")

        monkeypatch.setattr(optimize, "least_squares", fault)
        with pytest.raises(RuntimeError, match="fault in the solver"):
            fit_logistic(np.arange(10.0), np.arange(10.0) ** 2)

    def test_rejected_starts_fall_back_to_the_linear_baseline(self, monkeypatch):
        starts = []

        def reject(residuals, start, **kwargs):
            starts.append(start)
            raise ValueError("`x0` is infeasible")

        monkeypatch.setattr(optimize, "least_squares", reject)
        scores = np.arange(10.0)
        fit = fit_logistic(scores, scores**2)
        slope, intercept = np.polyfit(scores, scores**2, 1)
        assert len(starts) == 3 and fit.converged
        assert (fit.params.a1, fit.params.a2) == (0.0, 0.0)
        assert (fit.params.a4, fit.params.a5) == pytest.approx((slope, intercept), rel=1e-12)


@pytest.mark.parametrize("function", [fit_logistic, correlation_metrics])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", [0, 1])
def test_non_finite_input_rejected(capfd, function, bad, side):
    vectors = [np.linspace(0.0, 10.0, 20), np.linspace(-3.0, 0.0, 20)]
    vectors[side][7] = bad
    with pytest.raises(IntegrityError, match="non-finite value at index 7"):
        function(*vectors)
    assert capfd.readouterr().err == ""  # no LAPACK complaint on the way


class TestCorrelationMetrics:
    def test_perfect_agreement(self):
        x = np.array([0.0, 1.0, 2.0, 5.0])
        stats = correlation_metrics(x, x)
        assert stats.srocc == pytest.approx(1.0)
        assert stats.plcc == pytest.approx(1.0)
        assert stats.rmse == pytest.approx(0.0)

    def test_reversed_ranks(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        stats = correlation_metrics(x, x[::-1])
        assert stats.srocc == pytest.approx(-1.0)

    def test_hand_computed_rank_correlation(self):
        # ranks 1,2,3,4 vs 1,2,4,3: sum of squared rank differences is 2,
        # so rho = 1 - 6*2 / (4*15) = 0.8
        pred = np.array([1.0, 2.0, 3.0, 5.0])
        truth = np.array([1.0, 2.0, 4.0, 3.0])
        ranks_p = np.argsort(np.argsort(pred)) + 1
        ranks_t = np.argsort(np.argsort(truth)) + 1
        d2 = float(np.sum((ranks_p - ranks_t) ** 2))
        oracle = 1.0 - 6.0 * d2 / (4 * (16 - 1))
        stats = correlation_metrics(pred, truth)
        assert stats.srocc == pytest.approx(oracle)
        assert stats.srocc == pytest.approx(0.8)

    def test_average_ranks_for_ties(self):
        pred = np.array([1.0, 1.0, 2.0, 3.0])
        truth = np.array([1.0, 2.0, 3.0, 4.0])
        stats = correlation_metrics(pred, truth)
        # tie in pred gets rank 1.5; Pearson on ranks is the oracle
        rp = np.array([1.5, 1.5, 3.0, 4.0])
        rt = np.array([1.0, 2.0, 3.0, 4.0])
        oracle = float(np.corrcoef(rp, rt)[0, 1])
        assert stats.srocc == pytest.approx(oracle)

    def test_zero_variance_raises_but_keeps_rmse(self):
        with pytest.raises(UndefinedCorrelationError) as info:
            correlation_metrics(np.full(5, 2.0), np.arange(5.0))
        assert info.value.rmse == pytest.approx(
            float(np.sqrt(np.mean((2.0 - np.arange(5.0)) ** 2)))
        )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            pred = rng.normal(0, 1, 25)
            truth = rng.normal(0, 1, 25)
            base = correlation_metrics(pred, truth).srocc
            warped = correlation_metrics(np.exp(pred), truth).srocc
            assert warped == pytest.approx(base, abs=1e-12)


class TestPairwiseAccuracy:
    def test_perfectly_consistent_majority(self):
        scores = np.array([0.0, -1.0, -2.0])
        graph = graph_of(
            3, {(0, 1): 8, (1, 0): 2, (1, 2): 7, (2, 1): 3, (0, 2): 9, (2, 0): 1}
        )
        result = pairwise_accuracy(scores, graph, 0.0)
        assert result.accuracy == pytest.approx(1.0)
        assert result.considered_pairs == 3

    def test_threshold_filters_pairs(self):
        scores = np.array([0.0, -0.5, -3.0])
        graph = graph_of(3, {(0, 1): 6, (1, 0): 4, (0, 2): 10})
        result = pairwise_accuracy(scores, graph, 1.0)
        assert result.considered_pairs == 1
        # a NaN score clears no threshold, so the pairs it is in are left out
        unscored = pairwise_accuracy(np.array([0.0, -0.5, np.nan]), graph, 0.0)
        assert (unscored.considered_pairs, unscored.accuracy) == (1, 1.0)

    def test_threshold_too_high(self):
        scores = np.array([0.0, -0.5])
        graph = graph_of(2, {(0, 1): 6, (1, 0) : 4})
        with pytest.raises(DesignError):
            pairwise_accuracy(scores, graph, 10.0)

    def test_ties_excluded(self):
        scores = np.array([0.0, -1.0])
        graph = graph_of(2, {(0, 1): 5, (1, 0): 5})
        with pytest.raises(DesignError):
            pairwise_accuracy(scores, graph, 0.0)

    def test_invariant_to_monotone_transform_at_zero_threshold(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(0, 2, 12)
        entries = {}
        for i in range(12):
            for j in range(i + 1, 12):
                wins = int(rng.integers(0, 9))
                entries[(i, j)] = wins
                entries[(j, i)] = 8 - wins
        graph = graph_of(12, {k: v for k, v in entries.items() if v})
        base = pairwise_accuracy(scores, graph, 0.0)
        warped = pairwise_accuracy(np.tanh(scores) * 3 + 1, graph, 0.0)
        assert warped.accuracy == pytest.approx(base.accuracy)
        assert warped.considered_pairs == base.considered_pairs

    def test_matches_per_pair_loop(self):
        rng = np.random.default_rng(8)
        scores = np.round(rng.normal(0, 1.5, 15), 1)  # rounding makes exact ties
        graph = graph_of(15, {
            (int(i), int(j)): int(c)
            for i, j, c in rng.integers(0, [15, 15, 6], size=(60, 3)) if i != j
        })
        for threshold in (0.0, 0.5, 1.0):
            considered = correct = 0
            for i, j, c_ij, c_ji in zip(*(col.tolist() for col in graph.pair_arrays())):
                gap = scores[i] - scores[j]
                if c_ij == c_ji or abs(gap) < threshold:
                    continue
                considered += 1
                correct += (1 if gap > 0 else -1 if gap < 0 else 0) == (1 if c_ij > c_ji else -1)
            result = pairwise_accuracy(scores, graph, threshold)
            assert result.considered_pairs == considered
            assert result.accuracy == correct / considered
