import dataclasses
import importlib.util
import math
import multiprocessing
import os
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.special import gammaln, ndtr
from scipy.stats import binom, norm

from jodscale import connected_components, scaling
from jodscale.cli import main
from jodscale.errors import (
    ConvergenceError,
    DegenerateDataError,
    DisconnectedGraphError,
    IntegrityError,
)
from jodscale.model import (
    ComparisonGraph,
    ConditionId,
    DatasetCollection,
    RatingTable,
    load_collection,
)
from jodscale.scaling import (
    SIGMA_JOD,
    LinkParams,
    PosteriorProblem,
    bootstrap_ci,
    log_posterior,
    preference_probability,
    pwc_log_likelihood,
    rating_log_likelihood,
    scale,
)
from jodscale.simulate import RecoveryConfig, synthesize_collection

from conftest import graph_of, pattern_of, ratings_of

SQRT2 = math.sqrt(2.0)


class TestPreferenceProbability:
    def test_equal_scores(self):
        assert preference_probability(0.3, 0.3) == pytest.approx(0.5)

    def test_one_unit_is_75_percent(self):
        assert float(preference_probability(1.0, 0.0)) == pytest.approx(0.750, abs=1e-3)

    def test_two_units_is_91_percent(self):
        assert float(preference_probability(2.0, 0.0)) == pytest.approx(0.911, abs=2e-3)

    def test_reciprocity(self):
        rng = np.random.default_rng(2)
        qi, qj = rng.normal(0, 3, size=(2, 200))
        total = preference_probability(qi, qj) + preference_probability(qj, qi)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_strictly_increasing_in_gap(self):
        gaps = np.linspace(-6, 6, 101)
        probs = preference_probability(gaps, 0.0)
        assert np.all(np.diff(probs) > 0)


class TestPwcLogLikelihood:
    def test_single_tied_pair(self):
        graph = graph_of(2, {(0, 1): 1, (1, 0): 1})
        value = pwc_log_likelihood(graph, [0.0, 0.0])
        assert value == pytest.approx(math.log(0.5))

    def test_unanimous_limit(self):
        graph = graph_of(2, {(0, 1): 1})
        value = pwc_log_likelihood(graph, [50.0, 0.0])
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_binomial_pmf_oracle(self):
        # gap chosen so the model probability is exactly 0.75
        gap = SQRT2 * SIGMA_JOD * norm.ppf(0.75)
        graph = graph_of(2, {(0, 1): 3, (1, 0): 1})
        value = pwc_log_likelihood(graph, [gap, 0.0])
        assert value == pytest.approx(float(binom.logpmf(3, 4, 0.75)), abs=1e-9)

    def test_rejects_non_finite(self):
        graph = graph_of(2, {(0, 1): 1})
        with pytest.raises(IntegrityError):
            pwc_log_likelihood(graph, [np.nan, 0.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_log_factorial_table_matches_gammaln_exactly(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 2000))
        total = rng.integers(0, [1, 40, 3000][seed % 3] + 1, size)
        c_ij = rng.binomial(total, rng.uniform(0.0, 1.0, size))
        pairs = (None, None, c_ij, total - c_ij)
        table = scaling._log_factorials(pairs)
        assert table.size == total.max() + 1
        assert scaling._log_binomial(pairs, table) == scaling._log_binomial(pairs, None)
        assert np.array_equal(table[total], gammaln(total + 1.0))

    def test_a_total_too_large_to_tabulate_uses_gammaln(self):
        pairs = (None, None, np.array([3, 2**21]), np.array([4, 1]))
        assert scaling._log_factorials(pairs) is None
        graph = graph_of(2, {(0, 1): 2**21, (1, 0): 1})
        assert pwc_log_likelihood(graph, [0.0, 0.0]) == pytest.approx(
            float(binom.logpmf(1, 2**21 + 1, 0.5)), rel=1e-12)


class TestRatingLogLikelihood:
    def test_peak_density(self):
        table = ratings_of(((0, "o1", 1.7),))
        link = LinkParams(a=1.0, b=0.0, c=1.0)
        value = rating_log_likelihood(table, [1.7], link)
        assert value == pytest.approx(-math.log(SIGMA_JOD * math.sqrt(2 * math.pi)))
        assert value == pytest.approx(-0.9658, abs=1e-3)

    def test_sum_of_gaussian_densities(self):
        link = LinkParams(a=1.6, b=-0.4, c=0.8)
        q = np.array([0.0, -1.2, -2.5])
        records = (
            (0, "o1", 0.31),
            (1, "o2", -0.55),
            (2, "o1", -1.9),
        )
        table = ratings_of(records)
        expected = sum(
            float(
                norm.logpdf(
                    score,
                    loc=(q[condition] - link.b) / link.a,
                    scale=link.c * SIGMA_JOD,
                )
            )
            for condition, _, score in records
        )
        value = rating_log_likelihood(table, q, link)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_finite(self):
        table = ratings_of(((0, "o1", float("inf")),))
        with pytest.raises(IntegrityError):
            rating_log_likelihood(table, [0.0], LinkParams(1.0, 0.0, 1.0))

    def test_rating_unit_change_leaves_density_invariant(self):
        # the density is over the measurement, so expressing the same
        # measurement in rescaled rating units (m -> k m, a -> a / k,
        # b unchanged, noise multiplier c -> k c) must not change it
        q = np.array([-1.3])
        kappa = 2.5
        link = LinkParams(a=1.2, b=0.4, c=0.9)
        rescaled = LinkParams(a=link.a / kappa, b=link.b, c=link.c * kappa)
        for m in (0.7, -2.0, 1.9):
            base = rating_log_likelihood(
                ratings_of(((0, "o1", m),)), q, link
            )
            moved = rating_log_likelihood(
                ratings_of(((0, "o1", m * kappa),)), q, rescaled
            ) + math.log(kappa)  # Jacobian of the unit change
            assert moved == pytest.approx(base, rel=1e-12)


def _demo_collection(entries, ratings=None, n=2):
    conds = [ConditionId.reference("demo")]
    conds += [ConditionId("demo", f"c{i}", "dist", 1) for i in range(n - 1)]
    return DatasetCollection(conds, graph_of(n, entries), ratings)


def _within_datasets(coll):
    """``coll`` without its cross-dataset pairs: one component per dataset."""
    winners, losers, counts = coll.graph.observations()
    datasets = np.array([c.dataset for c in coll.conditions])
    inside = datasets[winners] == datasets[losers]
    graph = ComparisonGraph(coll.n, winners[inside], losers[inside], counts[inside])
    return DatasetCollection(coll.conditions, graph, coll.ratings)


class TestLogPosterior:
    def test_empty_data_prior_disabled(self):
        coll = _demo_collection({})
        assert log_posterior(coll, [0.0, 0.0], prior_enabled=False) == 0.0

    def test_prior_with_equal_scores(self):
        coll = _demo_collection({})
        value = log_posterior(coll, [0.4, 0.4], prior_enabled=True)
        expected = 2 * math.log(1.0 / (SIGMA_JOD * math.sqrt(2 * math.pi)))
        assert value == pytest.approx(expected)

    def test_additivity(self):
        table = ratings_of(((1, "o1", -0.8),))
        coll = _demo_collection(
            {(0, 1): 2, (1, 0): 1},
            ratings={"demo": table},
        )
        q = np.array([0.0, -0.9])
        link = LinkParams(a=1.2, b=0.1, c=0.9)
        total = log_posterior(coll, q, {"demo": link}, prior_enabled=False)
        parts = pwc_log_likelihood(coll.graph, q) + rating_log_likelihood(
            coll.ratings["demo"], q, link
        )
        assert total == pytest.approx(parts, rel=1e-12)


def _rated_demo(scores_by_condition, entries=None):
    """The demo dataset with condition i rated by the scores in
    ``scores_by_condition[i]``, one observer per score."""
    rows = [(i, f"o{k}", float(score)) for i, scores in enumerate(scores_by_condition)
            for k, score in enumerate(scores)]
    return _demo_collection(entries or {}, ratings={"demo": ratings_of(rows)},
                            n=len(scores_by_condition))


class TestProblemLayout:
    def test_pattern_is_the_csr_of_the_pair_adjacency(self):
        graph = ComparisonGraph(5, [3, 0, 2, 1, 4], [0, 3, 1, 4, 2], [2, 1, 5, 0, 3])
        i, j = graph.pair_arrays()[:2]
        pattern = pattern_of(graph)
        assert isinstance(pattern, csr_matrix) and pattern.shape == (5, 5)
        for array in (pattern.indptr, pattern.indices, pattern.data):
            assert array.dtype == np.int32 and not array.flags.writeable
        expected = np.full((5, 5), -1)
        expected[i, j] = expected[j, i] = np.arange(i.size)
        for row in range(5):
            slots = slice(pattern.indptr[row], pattern.indptr[row + 1])
            assert pattern.indices[slots].tolist() == np.flatnonzero(expected[row] >= 0).tolist()
            assert pattern.data[slots].tolist() == expected[row][expected[row] >= 0].tolist()
        empty = pattern_of(ComparisonGraph(3))
        assert empty.indptr.tolist() == [0, 0, 0, 0] and empty.indices.size == 0
        assert empty.indptr.dtype == empty.indices.dtype == empty.data.dtype == np.int32


class TestProfiledLinks:
    def test_link_is_the_least_squares_fit_of_the_ratings(self):
        rng = np.random.default_rng(5)
        q_true = np.concatenate([[0.0], rng.normal(0.0, 1.0, 5)])
        coll = _rated_demo([2.0 + 0.7 * q + rng.normal(0.0, 0.2, 4) for q in q_true])
        problem = PosteriorProblem(coll, prior_enabled=False)
        q, links = problem.unpack(q_true[1:])
        table = coll.ratings["demo"]
        u = q[table.condition_indices]
        s, t = np.polyfit(u, table.scores, 1)
        rms = math.sqrt(float(np.mean((table.scores - (s * u + t)) ** 2)))
        link = links["demo"]
        np.testing.assert_allclose([link.a, link.b, link.c],
                                   [1.0 / s, -t / s, rms / SIGMA_JOD], rtol=1e-12)
        value = problem.value_and_grad(q_true[1:])[0]
        assert value == pytest.approx(
            rating_log_likelihood(table, q, link), rel=1e-12)

    def test_ratings_against_the_scores_have_no_link(self):
        # ratings fall as q rises: the best slope is 0, each rating is then
        # Gaussian around the mean rating, and the term is flat in q
        coll = _rated_demo([[4.0, 5.0], [3.0, 3.5], [1.0, 2.0]])
        problem = PosteriorProblem(coll, prior_enabled=False)
        x = np.array([0.5, 1.0])
        q, links = problem.unpack(x)
        assert links == {}
        value, grad, curvature = problem.value_and_grad(x)
        scores = coll.ratings["demo"].scores
        expected = float(np.sum(norm.logpdf(scores, scores.mean(), scores.std())))
        assert value == pytest.approx(expected, rel=1e-12)
        assert log_posterior(coll, q, links, prior_enabled=False) == pytest.approx(
            expected, rel=1e-12)
        np.testing.assert_array_equal(grad, 0.0)
        np.testing.assert_array_equal(problem.hess_vec(curvature, np.ones(2)), 0.0)

    def test_parameters_are_the_free_scores_only(self):
        conds = [ConditionId.reference("a"), ConditionId("a", "c0", "d", 1),
                 ConditionId("a", "c1", "d", 2), ConditionId.reference("b"),
                 ConditionId("b", "c0", "d", 1)]
        graph = graph_of(5, {(0, 1): 6, (1, 0): 4, (1, 2): 7, (2, 1): 3,
                             (2, 3): 5, (3, 2): 5, (3, 4): 8, (4, 3): 2})
        ratings = {
            "a": ratings_of(((0, "o1", 4.0), (0, "o2", 5.0), (1, "o1", 3.0), (2, "o1", 1.0))),
            "b": ratings_of(((3, "o1", 7.0), (4, "o1", 5.0), (4, "o2", 6.0))),
        }
        problem = PosteriorProblem(DatasetCollection(conds, graph, ratings))
        assert problem.n_params == 3
        np.testing.assert_array_equal(problem.free_idx, [1, 2, 4])
        curvature = problem.value_and_grad(problem.initial_point())[2]
        assert [f.name for f in dataclasses.fields(curvature)] == [
            "adjacency", "diagonal", "factors", "weights"]
        assert curvature.factors.shape == (5, 6)
        assert curvature.weights.shape == (6,)

    @pytest.mark.parametrize("scores", [
        [[3.0], [2.0], [1.0]],  # each condition rated once
        [[3.0, 3.0], [2.0, 2.0], [1.0]],  # repeated ratings that agree
    ], ids=["single", "repeated"])
    def test_no_spread_within_a_condition_is_degenerate(self, scores):
        coll = _rated_demo(scores, {(0, 1): 3, (1, 0): 2, (1, 2): 3, (2, 1): 2})
        with pytest.raises(DegenerateDataError, match="'demo' has no rating spread"):
            scale(coll)

    def test_spread_within_one_condition_is_enough(self):
        coll = _rated_demo([[3.0, 3.5], [2.0], [1.0]],
                           {(0, 1): 3, (1, 0): 2, (1, 2): 3, (2, 1): 2})
        result = scale(coll)
        assert result.converged
        assert result.links["demo"].c > 0.0


class TestScale:
    def test_two_condition_analytic_recovery(self, two_condition_collection):
        result = scale(two_condition_collection, prior_enabled=False)
        expected = SQRT2 * SIGMA_JOD * norm.ppf(0.25)
        assert result.q[0] == 0.0
        assert result.q[1] == pytest.approx(expected, abs=1e-6)
        assert abs(result.q[1] - (-1.0)) < 0.01
        assert result.converged

    def test_all_ties_collapse_to_zero(self):
        entries = {}
        n = 5
        for i in range(n):
            for j in range(i + 1, n):
                entries[(i, j)] = 4
                entries[(j, i)] = 4
        coll = _demo_collection(entries, n=n)
        result = scale(coll, prior_enabled=False)
        np.testing.assert_allclose(result.q, 0.0, atol=1e-6)

    def test_references_pinned_exactly(self):
        coll = _demo_collection({(0, 1): 9, (1, 0): 21, (0, 2): 4, (2, 0): 6}, n=3)
        result = scale(coll, prior_enabled=False)
        assert result.q[0] == 0.0

    def test_start_is_the_standardized_mean_rating(self):
        table = ratings_of(((0, "o1", 4.0), (0, "o2", 5.0), (1, "o1", 2.0), (1, "o2", 1.0),
                            (2, "o1", 3.0)))
        problem = PosteriorProblem(_demo_collection({}, ratings={"demo": table}, n=4))
        mean, std = table.scores.mean(), table.scores.std()
        assert problem.n_params == 3
        np.testing.assert_allclose(problem.initial_point(),
                                   [(1.5 - mean) / std, (3.0 - mean) / std, 0.0])

    def test_rating_only_dataset_matches_profile_grid_oracle(self):
        rng = np.random.default_rng(42)
        n = 6
        mos_means = np.linspace(1.0, 5.0, n)
        records = []
        for idx in range(n):
            for k in range(8):
                records.append(
                    (idx, f"o{k}", float(mos_means[idx] + rng.normal(0, 0.3)))
                )
        table = ratings_of(tuple(records))
        coll = _demo_collection({}, ratings={"demo": table}, n=n)
        result = scale(coll, prior_enabled=False)
        assert result.q[0] == 0.0

        # stationarity makes every score an affine image of its mean rating
        scores = table.scores
        by_cond = [scores[table.condition_indices == i].mean() for i in range(n)]
        fitted = np.polyfit(by_cond, result.q, 1)
        residual = result.q - np.polyval(fitted, by_cond)
        np.testing.assert_allclose(residual, 0.0, atol=1e-6)

        # profile likelihood oracle: per-condition means, then the noise
        # scale, first on a 1-D grid and then at the closed-form optimum
        mu = np.array(by_cond)
        centered = scores - mu[table.condition_indices]
        best = -np.inf
        for c in np.linspace(0.01, 2.0, 4000):
            ll = float(
                np.sum(norm.logpdf(centered, loc=0.0, scale=c * SIGMA_JOD))
            )
            best = max(best, ll)
        assert result.log_posterior == pytest.approx(best, abs=1e-3)
        c_hat = math.sqrt(float(np.mean(centered**2))) / SIGMA_JOD
        closed_form = float(
            np.sum(norm.logpdf(centered, loc=0.0, scale=c_hat * SIGMA_JOD))
        )
        assert result.log_posterior == pytest.approx(closed_form, abs=1e-7)

    def test_monotone_in_counts_and_grid_oracle(self):
        # 3 conditions; wins of condition 2 over the reference sweep upward
        previous_gap = -np.inf
        for wins in (5, 10, 15, 20, 25):
            entries = {
                (1, 0): 10, (0, 1): 20,
                (1, 2): 15, (2, 1): 15,
                (2, 0): wins, (0, 2): 30 - wins,
            }
            coll = _demo_collection(entries, n=3)
            result = scale(coll, prior_enabled=False)
            assert result.q[2] >= previous_gap - 1e-9
            previous_gap = result.q[2]

            # dense 2-D grid oracle over the free scores
            grid = np.linspace(-3.0, 3.0, 401)
            q1, q2 = np.meshgrid(grid, grid, indexing="ij")
            scale_factor = 1.0 / (SQRT2 * SIGMA_JOD)
            total = np.zeros_like(q1)
            for (i, j), cij in entries.items():
                qi = q1 if i == 1 else (q2 if i == 2 else 0.0)
                qj = q1 if j == 1 else (q2 if j == 2 else 0.0)
                p = ndtr((qi - qj) * scale_factor)
                total += cij * np.log(p)
            flat = int(np.argmax(total))
            assert result.q[1] == pytest.approx(q1.flat[flat], abs=0.02)
            assert result.q[2] == pytest.approx(q2.flat[flat], abs=0.02)

    def test_unanimous_pair_bounded_by_prior(self):
        coll = _demo_collection({(0, 1): 30})
        result = scale(coll, prior_enabled=True)
        assert result.converged
        assert abs(result.q[1]) < 6.0

        unbounded = scale(coll, prior_enabled=False, max_iter=300)
        assert abs(unbounded.q[1]) > abs(result.q[1])

    def test_degenerate_ratings_rejected_by_name(self):
        table = ratings_of(tuple((i, "o1", 3.0) for i in range(2)))
        coll = _demo_collection({(0, 1): 1, (1, 0): 1}, ratings={"demo": table})
        with pytest.raises(DegenerateDataError, match="demo"):
            scale(coll)

    def test_missing_reference_rejected(self):
        conds = [ConditionId("x", "c0", "d", 1), ConditionId("x", "c1", "d", 1)]
        coll = DatasetCollection(
            conds,
            graph_of(2, {(0, 1): 3, (1, 0): 5}),
        )
        with pytest.raises(IntegrityError, match="reference"):
            scale(coll)

    def test_disconnected_graph_is_an_error(self):
        conds = [
            ConditionId.reference("a"),
            ConditionId("a", "c0", "d", 1),
            ConditionId.reference("b"),
            ConditionId("b", "c0", "d", 1),
        ]
        coll = DatasetCollection(
            conds,
            graph_of(4, {(0, 1): 5, (1, 0): 5, (2, 3): 2, (3, 2): 8}),
        )
        with pytest.raises(DisconnectedGraphError):
            scale(coll)
        with pytest.warns(UserWarning, match="NOT comparable"):
            result = scale(coll, per_component=True, prior_enabled=False)
        assert result.q[0] == 0.0 and result.q[2] == 0.0
        expected = SQRT2 * SIGMA_JOD * norm.ppf(0.8)
        assert result.q[3] == pytest.approx(expected, abs=1e-4)

    def test_component_without_its_dataset_reference_rejected(self):
        conds = [ConditionId.reference("a")] + [ConditionId("a", f"c{k}", "d", 1)
                                                for k in range(3)]
        coll = DatasetCollection(
            conds,
            graph_of(4, {(0, 1): 5, (1, 0): 5, (2, 3): 2, (3, 2): 8}),
        )
        with pytest.raises(DisconnectedGraphError):
            scale(coll)
        with pytest.warns(UserWarning, match="NOT comparable"):
            with pytest.raises(IntegrityError, match="dataset 'a' has no reference"):
                scale(coll, per_component=True)

    @pytest.mark.parametrize("prior", [True, False])
    def test_per_component_log_posterior_is_the_maximized_function(self, prior):
        """The one solve over all components maximizes the log-posterior
        with the score prior centred on each component's mean, the function
        ``log_posterior`` computes."""
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=60, seed=3))
        coll = _within_datasets(coll)
        with pytest.warns(UserWarning, match="NOT comparable"):
            result = scale(coll, per_component=True, prior_enabled=prior)
        value = log_posterior(coll, result.q, result.links, prior_enabled=prior)
        assert value == pytest.approx(result.log_posterior, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        table = ratings_of(
            tuple((i, f"o{k}", 2.0 - 0.7 * i + 0.1 * k)
                  for i in range(3) for k in range(3))
        )
        coll = _demo_collection(
            {(0, 1): 7, (1, 0): 3, (1, 2): 4, (2, 1): 6},
            ratings={"demo": table},
            n=3,
        )
        problem = PosteriorProblem(coll, prior_enabled=True)
        rng = np.random.default_rng(9)
        for _ in range(5):
            x = rng.normal(0, 0.8, problem.n_params)
            _, grad, _ = problem.value_and_grad(x)
            step = 1e-6
            for k in range(problem.n_params):
                xp, xm = x.copy(), x.copy()
                xp[k] += step
                xm[k] -= step
                fd = (problem.value_and_grad(xp)[0] - problem.value_and_grad(xm)[0]) / (
                    2 * step
                )
                assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_hessian_vector_product_matches_gradient_differences(self):
        table = ratings_of(
            tuple((i, f"o{k}", 1.5 - 0.5 * i + 0.2 * k)
                  for i in range(4) for k in range(3))
        )
        coll = _demo_collection(
            {(0, 1): 5, (1, 0): 5, (1, 2): 8, (2, 1): 2, (2, 3): 6, (3, 2): 4},
            ratings={"demo": table},
            n=4,
        )
        for prior in (False, True):
            problem = PosteriorProblem(coll, prior_enabled=prior)
            rng = np.random.default_rng(15)
            for _ in range(6):
                x = rng.normal(0, 0.7, problem.n_params)
                vec = rng.normal(0, 1, problem.n_params)
                hv = problem.hess_vec(problem.value_and_grad(x)[2], vec)
                step = 1e-6
                fd = (
                    problem.value_and_grad(x + step * vec)[1]
                    - problem.value_and_grad(x - step * vec)[1]
                ) / (2 * step)
                np.testing.assert_allclose(hv, fd, rtol=1e-6, atol=1e-6)

    def test_newton_work_stays_small(self):
        # the line-search Newton-CG solver converges here in 8 iterations
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=300, seed=7))
        assert scale(coll).iterations <= 15


def _bench_generator():
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_dense_300_condition_study_converges_under_strict(tmp_path):
    # dense pairs within each dataset, 30 trials, 15 observers: a well-posed
    # study whose maximum a solver can miss by drifting in ds2's link
    gen = _bench_generator()
    study = gen.make_study(np.random.default_rng([3, 300]), 300, 3, 30, 15, 0.5)
    manifest = gen.write_study(study, tmp_path / "in")
    result = scale(load_collection(manifest))
    assert result.converged
    assert result.log_posterior == pytest.approx(-31241.25, abs=0.01)
    assert main(["scale", "--strict", "--manifest", str(manifest),
                 "--out", str(tmp_path / "out")]) == 0


class TestBootstrap:
    def test_single_replicate_degenerate_interval(self, two_condition_collection):
        intervals = bootstrap_ci(
            two_condition_collection, 1, seed=3, prior_enabled=False
        )
        assert intervals.shape == (2, 2)
        np.testing.assert_allclose(intervals[:, 0], intervals[:, 1])

    def test_seed_determinism(self, two_condition_collection):
        first = bootstrap_ci(two_condition_collection, 25, seed=7, prior_enabled=False)
        second = bootstrap_ci(two_condition_collection, 25, seed=7, prior_enabled=False)
        np.testing.assert_array_equal(first, second)

    def test_interval_covers_analytic_score(self, two_condition_collection):
        intervals = bootstrap_ci(
            two_condition_collection, 200, seed=11, prior_enabled=False
        )
        low, high = intervals[1]
        assert low < -1.0 < high

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, two_condition_collection, alpha):
        with pytest.raises(IntegrityError, match="alpha"):
            bootstrap_ci(two_condition_collection, 3, seed=0, alpha=alpha, prior_enabled=False)

    def test_unconverged_replicates_count_as_failed(self):
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=20, n_datasets=2, seed=5))
        assert not scale(coll, max_iter=1).converged
        with pytest.raises(DegenerateDataError, match="4 of 4"):
            bootstrap_ci(coll, 4, seed=0, max_iter=1)

    def test_resample_matches_per_pair_draws(self):
        # reference: one scalar binomial per measured pair in (i, j) order,
        # then per rating dataset in sorted name order, over its rows sorted
        # by (condition, observer, score), one integer draw per row, below
        # its condition's number of rows, that picks among them; the picks
        # are then put in row order
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=30, n_datasets=3, seed=2))
        shuffle = np.random.default_rng(8)
        ratings = {}
        for name, table in coll.ratings.items():
            order = shuffle.permutation(len(table))
            ratings[name] = RatingTable(table.condition_indices[order], table.observers[order],
                                        table.scores[order])
        coll = DatasetCollection(coll.conditions, coll.graph, ratings)
        problem = PosteriorProblem(coll)
        replicate = problem.resampled(np.random.default_rng(41))
        rng = np.random.default_rng(41)
        i_arr, j_arr, c_ij, c_ji = (col.tolist() for col in coll.graph.pair_arrays())
        new_i, new_j, new_c_ij, new_c_ji = replicate._pairs
        assert new_i is coll.graph.i and new_j is coll.graph.j
        for k, (cij, cji) in enumerate(zip(c_ij, c_ji)):
            assert new_c_ij[k] == int(rng.binomial(cij + cji, cij / (cij + cji)))
            assert new_c_ji[k] == cij + cji - new_c_ij[k]
        assert replicate.rating_names == sorted(coll.ratings) == ["ds1", "ds2"]
        for name, source, table in zip(replicate.rating_names, problem.tables, replicate.tables):
            original = coll.ratings[name]
            rows = sorted(zip(*(col.tolist() for col in (
                original.condition_indices, original.observers, original.scores))))
            assert list(zip(*(col.tolist() for col in (
                source.condition_indices, source.observers, source.scores)))) == rows
            by_condition = {}
            for row, (cond, _, _) in enumerate(rows):
                by_condition.setdefault(cond, []).append(row)
            conds = [cond for cond, _, _ in rows]
            draws = rng.integers(0, [len(by_condition[c]) for c in conds])
            picks = sorted(by_condition[c][d] for c, d in zip(conds, draws.tolist()))
            assert table.condition_indices.tolist() == conds
            assert list(zip(table.observers.tolist(), table.scores.tolist())) == [
                rows[k][1:] for k in picks]
        assert replicate.labels is problem.labels and replicate._pattern is problem._pattern
        assert coll.graph.c_ij.tolist() == c_ij  # the source is unchanged

    @pytest.mark.filterwarnings("ignore:scaling .* disconnected components")
    @pytest.mark.parametrize("per_component", [False, True])
    def test_warm_start_saves_kernel_calls(self, monkeypatch, per_component):
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=60, seed=3))
        if per_component:
            coll = _within_datasets(coll)
        full = scale(coll, per_component=per_component)
        # replicates run in this process, where the calls are counted
        monkeypatch.setattr(scaling, "_workers", lambda n_boot: 1)
        calls = []
        kernel = PosteriorProblem.value_and_grad
        monkeypatch.setattr(PosteriorProblem, "value_and_grad",
                            lambda problem, x: calls.append(1) or kernel(problem, x))

        def kernel_calls(**start):
            calls.clear()
            intervals = bootstrap_ci(coll, 5, seed=2, per_component=per_component, **start)
            return len(calls), intervals

        cold_calls, cold = kernel_calls()
        warm_calls, warm = kernel_calls(start=full)
        assert warm_calls < cold_calls
        np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-5)

    def test_disconnected_collection_raises_its_own_error(self):
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=20, n_datasets=2, seed=5))
        with pytest.raises(DisconnectedGraphError, match="splits into 2 components"):
            bootstrap_ci(_within_datasets(coll), 4, seed=0)

    @staticmethod
    def _loosely_rated_collection():
        """Three ratings per condition and no comparison to the rated
        distortions: a condition left with none of its ratings would split
        off, though the collection itself is connected."""
        conditions = [ConditionId.reference("p"), ConditionId("p", "c0", "dist", 1),
                      ConditionId.reference("r")]
        conditions += [ConditionId("r", f"c{k}", "dist", 1) for k in range(4)]
        graph = graph_of(7, {(0, 1): 20, (1, 0): 5, (0, 2): 12, (2, 0): 10})
        rows = [(c, f"o{o}", -0.5 * (c - 2) + 0.3 * ((7 * o + 3 * c) % 5 - 2))
                for c in range(2, 7) for o in range(3)]
        return DatasetCollection(conditions, graph, {"r": ratings_of(rows)})

    @pytest.mark.parametrize("per_component", [False, True])
    def test_a_replicate_keeps_every_conditions_ratings(self, monkeypatch, per_component):
        """Rows are drawn within each condition, so no replicate splits off
        a rated condition and every one of the 10 is solved and kept."""
        coll = self._loosely_rated_collection()
        assert connected_components(coll).max() == 0
        outcomes = []
        solve = scaling._solve

        def recorded(*args):
            outcomes.append(solve(*args))
            return outcomes[-1]

        monkeypatch.setattr(scaling, "_solve", recorded)
        monkeypatch.setattr(scaling, "_workers", lambda n_boot: 1)  # record in this process
        intervals = bootstrap_ci(coll, 10, seed=1, per_component=per_component)
        assert [converged for _, _, converged, _ in outcomes] == [True] * 10
        assert intervals.shape == (7, 2) and np.all(np.isfinite(intervals))

    def test_unanchored_collection_raises_before_any_replicate(self, monkeypatch):
        # demo/c1 is compared with nothing: a piece of dataset demo with no reference
        coll = _demo_collection({(0, 1): 30, (1, 0): 10}, n=3)
        monkeypatch.setattr(PosteriorProblem, "resampled",
                            lambda *args: pytest.fail("a replicate was drawn"))
        with pytest.warns(UserWarning, match="NOT comparable"):
            with pytest.raises(IntegrityError, match="'demo' has no reference condition"):
                bootstrap_ci(coll, 4, seed=0, per_component=True)

    def test_n_boot_validation(self, two_condition_collection):
        with pytest.raises(IntegrityError):
            bootstrap_ci(two_condition_collection, 0)


class TestBootstrapPool:
    """Three workers, whatever the CPU count, so that the 20 replicates
    split unevenly (7, 7 and 6) over a real pool."""

    @pytest.mark.filterwarnings("ignore:scaling .* disconnected components")
    @pytest.mark.parametrize("per_component", [False, True])
    def test_pooled_intervals_equal_the_in_process_ones(self, monkeypatch, per_component):
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=60, seed=7))
        if per_component:
            coll = _within_datasets(coll)
        full = scale(coll, per_component=per_component)

        def intervals(workers):
            monkeypatch.setattr(scaling, "_workers", lambda n_boot: workers)
            return bootstrap_ci(coll, 20, seed=5, per_component=per_component, start=full)

        assert np.array_equal(intervals(3), intervals(1))
        assert multiprocessing.active_children() == []

    def test_no_worker_is_left_after_too_many_failures(self, monkeypatch):
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=20, n_datasets=2, seed=5))
        monkeypatch.setattr(scaling, "_workers", lambda n_boot: 3)
        with pytest.raises(DegenerateDataError, match="4 of 4"):
            bootstrap_ci(coll, 4, seed=0, max_iter=1)
        assert multiprocessing.active_children() == []

    def test_a_replicates_exception_keeps_its_type(self, monkeypatch):
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=20, n_datasets=2, seed=5))

        def fails(problem, *args):
            raise ConvergenceError(f"{problem.n} conditions in process {os.getpid()}")

        monkeypatch.setattr(scaling, "_workers", lambda n_boot: 3)
        monkeypatch.setattr(scaling, "_fit", fails)
        with pytest.raises(ConvergenceError, match="20 conditions in process") as raised:
            bootstrap_ci(coll, 6, seed=0)
        assert not str(raised.value).endswith(f" {os.getpid()}")  # raised in a worker
        assert multiprocessing.active_children() == []

    def test_one_worker_per_cpu_and_replicate(self, monkeypatch):
        monkeypatch.setattr(scaling.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [scaling._workers(n) for n in (1, 2, 3, 20)] == [1, 2, 3, 3]
        with monkeypatch.context() as patch:
            patch.setattr(multiprocessing, "current_process",
                          lambda: types.SimpleNamespace(daemon=True))
            assert scaling._workers(20) == 1
        with monkeypatch.context() as patch:
            patch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
            assert scaling._workers(20) == 1
