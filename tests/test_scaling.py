import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import binom, norm

from jodscale.cli import main
from jodscale.errors import (
    DegenerateDataError,
    DisconnectedGraphError,
    IntegrityError,
)
from jodscale.model import (
    ComparisonGraph,
    ConditionId,
    DatasetCollection,
    DatasetMeta,
    load_collection,
)
from jodscale.scaling import (
    SIGMA_JOD,
    LinkParams,
    PosteriorProblem,
    _resample_collection,
    bootstrap_ci,
    log_posterior,
    preference_probability,
    pwc_log_likelihood,
    rating_log_likelihood,
    scale,
)
from jodscale.simulate import RecoveryConfig, synthesize_collection

from conftest import graph_of, ratings_of

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


def _demo_collection(entries, ratings=None, n=2, experiments=None):
    conds = [ConditionId.reference("demo")]
    conds += [ConditionId("demo", f"c{i}", "dist", 1) for i in range(n - 1)]
    names = {"demo"}
    manifest = {
        name: DatasetMeta(name, (experiments or {}).get(name, "pwc")) for name in names
    }
    return DatasetCollection(conds, graph_of(n, entries), ratings or {}, manifest)


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
            experiments={"demo": "rating"},
        )
        q = np.array([0.0, -0.9])
        link = LinkParams(a=1.2, b=0.1, c=0.9)
        total = log_posterior(coll, q, {"demo": link}, prior_enabled=False)
        parts = pwc_log_likelihood(coll.graph, q) + rating_log_likelihood(
            coll.ratings["demo"], q, link
        )
        assert total == pytest.approx(parts, rel=1e-12)


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
        coll = _demo_collection({}, ratings={"demo": table}, n=n,
                                experiments={"demo": "rating"})
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
        coll = _demo_collection({(0, 1): 1, (1, 0): 1}, ratings={"demo": table},
                                experiments={"demo": "rating"})
        with pytest.raises(DegenerateDataError, match="demo"):
            scale(coll)

    def test_missing_reference_rejected(self):
        conds = [ConditionId("x", "c0", "d", 1), ConditionId("x", "c1", "d", 1)]
        coll = DatasetCollection(
            conds,
            graph_of(2, {(0, 1): 3, (1, 0): 5}),
            {},
            {"x": DatasetMeta("x", "pwc")},
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
        manifest = {"a": DatasetMeta("a", "pwc"), "b": DatasetMeta("b", "pwc")}
        coll = DatasetCollection(
            conds,
            graph_of(4, {(0, 1): 5, (1, 0): 5, (2, 3): 2, (3, 2): 8}),
            {},
            manifest,
        )
        with pytest.raises(DisconnectedGraphError):
            scale(coll)
        with pytest.warns(UserWarning, match="NOT comparable"):
            result = scale(coll, per_component=True, prior_enabled=False)
        assert result.q[0] == 0.0 and result.q[2] == 0.0
        expected = SQRT2 * SIGMA_JOD * norm.ppf(0.8)
        assert result.q[3] == pytest.approx(expected, abs=1e-4)

    def test_gradient_matches_finite_differences(self):
        table = ratings_of(
            tuple((i, f"o{k}", 2.0 - 0.7 * i + 0.1 * k)
                  for i in range(3) for k in range(3))
        )
        coll = _demo_collection(
            {(0, 1): 7, (1, 0): 3, (1, 2): 4, (2, 1): 6},
            ratings={"demo": table},
            n=3,
            experiments={"demo": "rating"},
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
            experiments={"demo": "rating"},
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
        # the line-search Newton-CG solver converges here in 11 iterations
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
        # then one integer draw per rating dataset in sorted name order
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=30, n_datasets=3, seed=2))
        replicate = _resample_collection(coll, np.random.default_rng(41))
        rng = np.random.default_rng(41)
        i_arr, j_arr, c_ij, c_ji = (col.tolist() for col in coll.graph.pair_arrays())
        for i, j, cij, cji in zip(i_arr, j_arr, c_ij, c_ji):
            new_cij = int(rng.binomial(cij + cji, cij / (cij + cji)))
            assert replicate.graph.count(i, j) == new_cij
            assert replicate.graph.count(j, i) == cij + cji - new_cij
        assert sorted(coll.ratings) == ["ds1", "ds2"]
        for name in sorted(coll.ratings):
            table = coll.ratings[name]
            picks = rng.integers(0, len(table), size=len(table))
            np.testing.assert_array_equal(
                replicate.ratings[name].scores, table.scores[picks])
            np.testing.assert_array_equal(
                replicate.ratings[name].condition_indices, table.condition_indices[picks])

    @pytest.mark.filterwarnings("ignore:scaling .* disconnected components")
    @pytest.mark.parametrize("per_component", [False, True])
    def test_warm_start_saves_kernel_calls(self, monkeypatch, per_component):
        _, coll = synthesize_collection(RecoveryConfig(n_conditions=60, seed=3))
        if per_component:  # drop the cross-dataset pairs: one component per dataset
            winners, losers, counts = coll.graph.observations()
            datasets = np.array([c.dataset for c in coll.conditions])
            inside = datasets[winners] == datasets[losers]
            graph = ComparisonGraph(coll.n, winners[inside], losers[inside], counts[inside])
            coll = DatasetCollection(coll.conditions, graph, coll.ratings, coll.manifest)
        full = scale(coll, per_component=per_component)
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

    def test_n_boot_validation(self, two_condition_collection):
        with pytest.raises(IntegrityError):
            bootstrap_ci(two_condition_collection, 0)
