import dataclasses
import importlib.util
import math
import multiprocessing
import os
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csc_matrix, csr_matrix
from scipy.special import ndtr
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
    preference_probability,
    scale,
)
from jodscale.simulate import RecoveryConfig, synthesize_collection

from conftest import cold_replicates, graph_of, oracle_log_posterior, problem_of, ratings_of

SQRT2 = math.sqrt(2.0)


def _kernel_value(problem, q):
    """The likelihood kernel's value at the scores ``q`` (0 at every
    reference) plus the binomial constant: the log-posterior."""
    x = np.asarray(q, dtype=float)[problem.free_idx]
    return problem.value_and_grad(x)[0] + scaling._log_binomial(problem._pairs)


def test_every_export_resolves_and_every_public_name_is_exported():
    import jodscale

    public = {name for name, value in vars(jodscale).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert all(hasattr(jodscale, name) for name in jodscale.__all__)
    assert len(set(jodscale.__all__)) == len(jodscale.__all__)
    assert set(jodscale.__all__) == public | {"__version__"}


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


def _pwc_value(graph, q):
    """The comparisons' log-likelihood at q: the kernel without the prior."""
    return _kernel_value(problem_of(graph, prior_enabled=False), q)


class TestPwcLogLikelihood:
    def test_single_tied_pair(self):
        graph = graph_of(2, {(0, 1): 1, (1, 0): 1})
        value = _pwc_value(graph, [0.0, 0.0])
        assert value == pytest.approx(math.log(0.5))

    def test_unanimous_limit(self):
        graph = graph_of(2, {(0, 1): 1})
        value = _pwc_value(graph, [50.0, 0.0])
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_binomial_pmf_oracle(self):
        # gap chosen so the model probability is exactly 0.75
        gap = SQRT2 * SIGMA_JOD * norm.ppf(0.75)
        graph = graph_of(2, {(0, 1): 3, (1, 0): 1})
        value = _pwc_value(graph, [gap, 0.0])
        assert value == pytest.approx(float(binom.logpmf(3, 4, 0.75)), abs=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(IntegrityError, match="needs a non-negative integer count"):
            graph_of(2, {(0, 1): np.nan})

    def test_binomial_pmf_oracle_at_a_large_total(self):
        graph = graph_of(2, {(0, 1): 2**21, (1, 0): 1})
        assert _pwc_value(graph, [0.0, 0.0]) == pytest.approx(
            float(binom.logpmf(1, 2**21 + 1, 0.5)), rel=1e-12)


class TestRatingLogLikelihood:
    def test_peak_density(self):
        table = ratings_of(((0, "o1", 1.7),))
        link = LinkParams(a=1.0, b=0.0, c=1.0)
        coll = _demo_collection({}, ratings={"demo": table}, n=1)
        value = oracle_log_posterior(coll, [1.7], {"demo": link}, prior=False)
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
        coll = _demo_collection({}, ratings={"demo": table}, n=3)
        value = oracle_log_posterior(coll, q, {"demo": link}, prior=False)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_finite(self):
        table = ratings_of(((0, "o1", float("inf")),))
        with pytest.raises(IntegrityError, match="non-finite rating score"):
            _demo_collection({}, ratings={"demo": table}, n=1)

    def test_rating_unit_change_leaves_density_invariant(self):
        # a change of one dataset's rating units, m -> k m or m -> m + d,
        # moves only that dataset's link (a -> a / k, c -> k c; b -> b - a d)
        # and leaves every score where it was
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=60, seed=3))
        base = scale(coll)
        assert base.converged and "ds1" in base.links
        a, b, c = dataclasses.astuple(base.links["ds1"])
        kappa, delta = 2.5, -1.7
        table = coll.ratings["ds1"]
        for scores, link in ((kappa * table.scores, LinkParams(a / kappa, b, kappa * c)),
                             (table.scores + delta, LinkParams(a, b - a * delta, c))):
            moved = RatingTable(table.condition_indices, table.observers, scores)
            result = scale(DatasetCollection(coll.conditions, coll.graph,
                                             {**coll.ratings, "ds1": moved}, coll.displays))
            assert result.converged
            np.testing.assert_allclose(result.q, base.q, rtol=0, atol=1e-9)
            expected = {**base.links, "ds1": link}
            assert result.links.keys() == expected.keys()
            for name, want in expected.items():
                np.testing.assert_allclose(dataclasses.astuple(result.links[name]),
                                           dataclasses.astuple(want), rtol=1e-9, atol=1e-9)


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
        assert _kernel_value(PosteriorProblem(coll, prior_enabled=False), [0.0, 0.0]) == 0.0

    def test_prior_with_equal_scores(self):
        # without pairs each condition is a component of its own, at its mean
        coll = _demo_collection({})
        expected = 2 * math.log(1.0 / (SIGMA_JOD * math.sqrt(2 * math.pi)))
        assert oracle_log_posterior(coll, [0.4, 0.4]) == pytest.approx(expected)
        assert _kernel_value(PosteriorProblem(coll), [0.0, 0.4]) == pytest.approx(expected)

    def test_additivity(self):
        entries = {(0, 1): 2, (1, 0): 1}
        ratings = {"demo": ratings_of(((0, "o1", 0.3), (1, "o1", -0.8), (1, "o2", -0.4)))}
        q = np.array([0.0, -0.9])
        total, pairs, rated = (
            _kernel_value(PosteriorProblem(_demo_collection(*parts), prior_enabled=False), q)
            for parts in ((entries, ratings), (entries,), ({}, ratings))
        )
        assert total == pytest.approx(pairs + rated, rel=1e-12)


def _rated_demo(scores_by_condition, entries=None):
    """The demo dataset with condition i rated by the scores in
    ``scores_by_condition[i]``, one observer per score."""
    rows = [(i, f"o{k}", float(score)) for i, scores in enumerate(scores_by_condition)
            for k, score in enumerate(scores)]
    return _demo_collection(entries or {}, ratings={"demo": ratings_of(rows)},
                            n=len(scores_by_condition))


class TestProblemLayout:
    def test_curvature_views_the_kernel_weights_on_the_pair_layout(self):
        """``upper`` wraps the kernel's weights on the problem's own layout
        arrays, and ``lower`` is its transpose over the same three arrays, so
        the curvature holds each pair's weight once."""
        graph = ComparisonGraph(6, [3, 0, 2, 1, 5], [0, 3, 1, 5, 2], [2, 1, 5, 0, 3])
        problem = problem_of(graph)
        curvature = problem.value_and_grad(np.linspace(-1.0, 1.0, 6))[2]
        upper, lower = curvature.upper, curvature.lower
        assert isinstance(upper, csr_matrix) and isinstance(lower, csc_matrix)
        assert upper.shape == lower.shape == (6, 6)
        assert np.shares_memory(upper.indices, problem._columns)
        assert np.shares_memory(upper.indptr, problem._indptr)
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(upper, name), getattr(lower, name))
        assert upper.indptr.tolist() == [0, 1, 2, 3, 3, 3, 3]
        assert upper.indices.tolist() == [3, 2, 5]

    def test_a_kernel_result_keeps_one_float_per_pair(self):
        """On the 179,700 pairs of 600 conditions one ``value_and_grad``
        result keeps 8.06 bytes per pair: the weights, plus the gradient and
        the diagonal. The symmetric CSR that gathered every weight twice
        kept 16.06."""
        n = 600
        i, j = np.triu_indices(n, 1)
        counts = np.random.default_rng(3).integers(1, 10, 2 * i.size)
        problem = problem_of(ComparisonGraph(n, np.concatenate([i, j]), np.concatenate([j, i]),
                                             counts))
        x = np.zeros(problem.n_params)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = problem.value_and_grad(x)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert result[2].upper.nnz == i.size == 179_700
        assert kept <= 10 * i.size


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
            oracle_log_posterior(coll, q, {"demo": link}, prior=False), rel=1e-12)

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
        assert oracle_log_posterior(coll, q, links, prior=False) == pytest.approx(
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
            "upper", "lower", "diagonal", "factors", "weights"]
        assert curvature.factors.shape == (5, 6)
        assert curvature.weights.shape == (6,)

    @pytest.mark.parametrize("scores", [
        [[3.0], [2.0], [1.0]],  # each condition rated once
        [[3.0, 3.0], [2.0, 2.0], [1.0]],  # repeated ratings that agree
    ], ids=["single", "repeated"])
    def test_no_spread_within_a_condition_is_degenerate(self, scores, monkeypatch):
        coll = _rated_demo(scores, {(0, 1): 3, (1, 0): 2, (1, 2): 3, (2, 1): 2})
        # found before any kernel call
        monkeypatch.setattr(PosteriorProblem, "value_and_grad",
                            lambda *args: pytest.fail("the kernel ran"))
        with pytest.raises(DegenerateDataError, match="'demo' has no rating spread"):
            scale(coll)

    def test_components_and_anchors_are_checked_before_the_spread(self):
        """demo/c1 is neither rated nor compared: a second component, which
        has no reference condition of demo."""
        coll = _rated_demo([[1.0], [2.0], []], {(0, 1): 3, (1, 0): 2})
        with pytest.raises(DisconnectedGraphError, match="splits into 2 components"):
            scale(coll)
        with pytest.warns(UserWarning, match="NOT comparable"):
            with pytest.raises(IntegrityError, match="'demo' has no reference condition"):
                scale(coll, per_component=True)

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
        ``oracle_log_posterior`` computes."""
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=60, seed=3))
        coll = _within_datasets(coll)
        with pytest.warns(UserWarning, match="NOT comparable"):
            result = scale(coll, per_component=True, prior_enabled=prior)
        value = oracle_log_posterior(coll, result.q, result.links, prior=prior)
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


def _uneven_degree_collection(seed):
    """Two rated datasets of 500 conditions on a spanning chain plus about
    4,000 pairs whose ends are drawn in proportion to Pareto(1.2) weights,
    so a few conditions are measured against hundreds; 5-60 trials per
    pair and 3-24 ratings per condition."""
    rng = np.random.default_rng(seed)
    n, half = 1000, 500
    names = np.repeat(["a", "b"], [half, n - half])
    conditions = [ConditionId.reference(name) if k in (0, half)
                  else ConditionId(name, f"c{k}", "d", 1) for k, name in enumerate(names)]
    q = rng.uniform(0.0, 6.0, n)
    q[[0, half]] = 0.0
    weight = rng.pareto(1.2, n) + 1.0
    ends = rng.choice(n, size=(4000, 2), p=weight / weight.sum())
    pairs = np.concatenate([np.column_stack([np.arange(n - 1), np.arange(1, n)]),
                            ends[ends[:, 0] != ends[:, 1]]])
    trials = rng.integers(5, 61, len(pairs))
    wins = rng.binomial(trials, preference_probability(q[pairs[:, 0]], q[pairs[:, 1]]))
    graph = ComparisonGraph(n, pairs.T.ravel(), pairs[:, ::-1].T.ravel(),
                            np.concatenate([wins, trials - wins]))
    ratings = {}
    for name, rows in (("a", np.arange(half)), ("b", np.arange(half, n))):
        idx = np.repeat(rows, rng.integers(3, 25, rows.size))
        ratings[name] = RatingTable(idx, [f"o{k}" for k in range(idx.size)],
                                    rng.normal(0.8 * q[idx] + 1.0, 0.7))
    return DatasetCollection(conditions, graph, ratings)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jacobi_preconditioner_bounds_hessian_products_on_uneven_degrees(monkeypatch, seed):
    # measured over seeds 0-19: 76-122 products with the Jacobi diagonal,
    # 283-433 with the identity preconditioner
    collection = _uneven_degree_collection(seed)
    degrees = np.bincount(np.concatenate([collection.graph.i, collection.graph.j]))
    assert degrees.max() > 200
    calls = []
    product = PosteriorProblem.hess_vec
    monkeypatch.setattr(PosteriorProblem, "hess_vec",
                        lambda problem, c, v: calls.append(1) or product(problem, c, v))
    assert scale(collection).converged
    assert len(calls) <= 150


class TestBootstrap:
    def test_single_replicate_degenerate_interval(self, two_condition_collection):
        intervals = bootstrap_ci(scale(two_condition_collection, prior_enabled=False), 1, seed=3)
        assert intervals.shape == (2, 2)
        np.testing.assert_allclose(intervals[:, 0], intervals[:, 1])

    def test_seed_determinism(self, two_condition_collection):
        fit = scale(two_condition_collection, prior_enabled=False)
        first = bootstrap_ci(fit, 25, seed=7)
        second = bootstrap_ci(fit, 25, seed=7)
        np.testing.assert_array_equal(first, second)

    def test_interval_covers_analytic_score(self, two_condition_collection):
        intervals = bootstrap_ci(scale(two_condition_collection, prior_enabled=False), 200, seed=11)
        low, high = intervals[1]
        assert low < -1.0 < high

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, two_condition_collection, alpha):
        with pytest.raises(IntegrityError, match="alpha"):
            bootstrap_ci(scale(two_condition_collection, prior_enabled=False), 3, alpha=alpha)

    def test_unconverged_replicates_count_as_failed(self):
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=20, n_datasets=2, seed=5))
        fit = scale(coll, max_iter=1)
        assert (fit.reason, fit.iterations, fit.converged) == ("max_iter", 1, False)
        with pytest.raises(DegenerateDataError, match=r"4 of 4 .* failed \(max_iter 4\)"):
            bootstrap_ci(fit, 4, seed=0)

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
        assert replicate.labels is problem.labels and replicate._indptr is problem._indptr
        assert replicate._columns is problem._columns
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

        def kernel_calls():
            calls.clear()
            intervals = bootstrap_ci(full, 5, seed=2)
            return len(calls), intervals

        with cold_replicates():
            cold_calls, cold = kernel_calls()
        warm_calls, warm = kernel_calls()
        assert warm_calls < cold_calls
        np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-5)

    def test_disconnected_collection_raises_its_own_error(self):
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=20, n_datasets=2, seed=5))
        with pytest.raises(DisconnectedGraphError, match="splits into 2 components"):
            scale(_within_datasets(coll))

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
        fit = scale(coll, per_component=per_component)
        outcomes = []
        solve = scaling._solve

        def recorded(*args):
            outcomes.append(solve(*args))
            return outcomes[-1]

        monkeypatch.setattr(scaling, "_solve", recorded)
        monkeypatch.setattr(scaling, "_workers", lambda n_boot: 1)  # record in this process
        intervals = bootstrap_ci(fit, 10, seed=1)
        assert [reason for _, _, _, reason, _ in outcomes] == ["converged"] * 10
        assert intervals.shape == (7, 2) and np.all(np.isfinite(intervals))

    def test_unanchored_collection_raises_before_any_solve(self, monkeypatch):
        # demo/c1 is compared with nothing: a piece of dataset demo with no reference
        coll = _demo_collection({(0, 1): 30, (1, 0): 10}, n=3)
        monkeypatch.setattr(scaling, "_solve", lambda *args: pytest.fail("a solve ran"))
        with pytest.warns(UserWarning, match="NOT comparable"):
            with pytest.raises(IntegrityError, match="'demo' has no reference condition"):
                scale(coll, per_component=True)

    def test_n_boot_validation(self, two_condition_collection):
        with pytest.raises(IntegrityError):
            bootstrap_ci(scale(two_condition_collection), 0)

    def test_negative_seed_rejected_before_any_replicate(self, monkeypatch,
                                                         two_condition_collection):
        fit = scale(two_condition_collection)
        monkeypatch.setattr(scaling, "_workers", lambda n_boot: pytest.fail("a worker started"))
        with pytest.raises(IntegrityError, match="seed must be at least 0, got -1"):
            bootstrap_ci(fit, 3, seed=-1)

    def test_the_binomial_constant_is_added_once_per_scale(self, monkeypatch):
        """``scale`` adds the binomial constant to the value it reports; a
        replicate reports no value and computes no constant."""
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=20, n_datasets=2, seed=5))
        calls = []
        log_binomial = scaling._log_binomial
        monkeypatch.setattr(scaling, "_log_binomial",
                            lambda pairs: calls.append(1) or log_binomial(pairs))
        monkeypatch.setattr(scaling, "_workers", lambda n_boot: 1)  # count in this process
        fit = scale(coll)
        assert len(calls) == 1
        bootstrap_ci(fit, 5, seed=0)
        assert len(calls) == 1

    def test_the_fit_carries_its_problem_and_solver_settings(self, monkeypatch):
        """``bootstrap_ci`` solves every replicate with the prior, tolerance
        and iteration cap of the scale it is given."""
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=20, n_datasets=2, seed=5))
        fit = scale(coll, prior_enabled=False, tol=1e-8, max_iter=50)
        assert (fit.problem.prior_enabled, fit.tol, fit.max_iter) == (False, 1e-8, 50)
        fields = {f.name: f for f in dataclasses.fields(fit)}
        assert not fields["problem"].compare and not fields["problem"].repr
        # converged is read off the reason the solve stopped, not stored
        assert "converged" not in fields and fit.converged == (fit.reason == "converged")
        solves = []
        solve = scaling._solve
        monkeypatch.setattr(scaling, "_workers", lambda n_boot: 1)
        monkeypatch.setattr(scaling, "_solve", lambda problem, x, tol, max_iter: solves.append(
            (problem.prior_enabled, tol, max_iter)) or solve(problem, x, tol, max_iter))
        bootstrap_ci(fit, 3, seed=0)
        assert solves == [(False, 1e-8, 50)] * 3


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
            return bootstrap_ci(full, 20, seed=5)

        assert np.array_equal(intervals(3), intervals(1))
        assert multiprocessing.active_children() == []

    def test_no_worker_is_left_after_too_many_failures(self, monkeypatch):
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=20, n_datasets=2, seed=5))
        fit = scale(coll, max_iter=1)
        monkeypatch.setattr(scaling, "_workers", lambda n_boot: 3)
        with pytest.raises(DegenerateDataError, match="4 of 4"):
            bootstrap_ci(fit, 4, seed=0)
        assert multiprocessing.active_children() == []

    def test_a_replicates_exception_keeps_its_type(self, monkeypatch):
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=20, n_datasets=2, seed=5))
        fit = scale(coll)

        def fails(problem, *args):
            raise ConvergenceError(f"{problem.n} conditions in process {os.getpid()}")

        monkeypatch.setattr(scaling, "_workers", lambda n_boot: 3)
        monkeypatch.setattr(scaling, "_solve", fails)
        with pytest.raises(ConvergenceError, match="20 conditions in process") as raised:
            bootstrap_ci(fit, 6, seed=0)
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
