import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from jodscale.cli import main
from jodscale.design import PairBatch
from jodscale.errors import DisconnectedGraphError, IntegrityError
from jodscale.model import ConditionId
from jodscale.scaling import SIGMA_JOD, LinkParams, preference_probability
from jodscale.simulate import (
    GroundTruth,
    RecoveryConfig,
    comparison_callback,
    recovery_experiment,
    simulate_comparison,
    simulate_ratings,
    synthesize_collection,
)


def _truth(n=6, seed=0, links=None):
    conds = [ConditionId.reference("rd")]
    conds += [ConditionId("rd", f"c{i}", "d", 1) for i in range(n - 1)]
    rng = np.random.default_rng(123)
    q = np.concatenate([[0.0], rng.uniform(-4, 0, n - 1)])
    return GroundTruth(tuple(conds), q, links or {}, seed=seed)


class TestGroundTruth:
    def test_reference_must_be_zero(self):
        conds = (ConditionId.reference("x"), ConditionId("x", "c0", "d", 1))
        with pytest.raises(IntegrityError):
            GroundTruth(conds, np.array([-1.0, 0.0]), {})

    def test_shape_checked(self):
        conds = (ConditionId.reference("x"),)
        with pytest.raises(IntegrityError):
            GroundTruth(conds, np.array([0.0, 1.0]), {})


class TestSimulateComparison:
    def test_symmetric_pair_near_half(self):
        truth = _truth(seed=1)
        object.__setattr__(truth, "q_true", np.zeros(6))
        (c_ij, c_ji), = simulate_comparison(truth, [1], [2], 10_000)
        assert c_ij + c_ji == 10_000
        assert abs(c_ij / 10_000 - 0.5) < 0.015

    def test_one_unit_gap_near_75(self):
        conds = (ConditionId.reference("x"), ConditionId("x", "c0", "d", 1))
        truth = GroundTruth(conds, np.array([0.0, -1.0]), {}, seed=5)
        (c_ref, c_test), = simulate_comparison(truth, [0], [1], 10_000)
        assert abs(c_ref / 10_000 - 0.75) < 0.015

    def test_deterministic_given_seed(self):
        truth = _truth(seed=9)
        first = simulate_comparison(truth, [0, 1, 2], [3, 4, 5], 500)
        assert first.shape == (3, 2) and first.dtype == np.int64
        np.testing.assert_array_equal(first, simulate_comparison(truth, [0, 1, 2], [3, 4, 5], 500))

    def test_stream_index_gives_fresh_draws(self):
        truth = _truth(seed=9)
        base = simulate_comparison(truth, [0, 1], [3, 4], 500, stream=0)
        redraw = simulate_comparison(truth, [0, 1], [3, 4], 500, stream=1)
        assert not np.array_equal(base, redraw)  # distinct streams almost surely differ

    def test_zero_trials(self):
        truth = _truth()
        np.testing.assert_array_equal(simulate_comparison(truth, [0, 2], [1, 3], 0), 0)

    def test_converges_to_model_probability(self):
        truth = _truth(seed=17)
        rng = np.random.default_rng(3)
        n = 100_000
        i, j = rng.integers(0, 6, size=(2, 20))
        i, j = i[i != j], j[i != j]
        p = preference_probability(truth.q_true[i], truth.q_true[j])
        c_ij = simulate_comparison(truth, i, j, n)[:, 0]
        bound = 4.0 * np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(c_ij / n - p) < bound)

    def test_counts_pass_binomial_z2_test(self):
        trials = 30
        truth, collection = synthesize_collection(
            RecoveryConfig(n_conditions=300, trials_per_pair=trials, observers=0, seed=4))
        i, j, c_ij, c_ji = collection.graph.pair_arrays()
        assert np.all(c_ij + c_ji == trials)
        p = preference_probability(truth.q_true[i], truth.q_true[j])
        pq = p * (1 - p)
        z2 = (c_ij - trials * p) ** 2 / (trials * pq)
        # Var(z^2) of a standardized binomial is 2 + (1 - 6pq) / (trials pq)
        se = np.sqrt(np.mean(2.0 + (1.0 - 6.0 * pq) / (trials * pq)) / z2.size)
        assert abs(z2.mean() - 1.0) < 5.0 * se


class TestComparisonCallback:
    def test_repeated_pair_redrawn_and_replay_reproduces(self):
        truth = _truth(seed=12)
        batches = [PairBatch(pairs=((0, 1), (2, 4))), PairBatch(pairs=((4, 2), (3, 5))),
                   PairBatch(pairs=((0, 1),))]
        observer = comparison_callback(truth, 1_000_000)
        counts = [observer(batch, None) for batch in batches]
        assert [c.shape for c in counts] == [(2, 2), (2, 2), (1, 2)]
        assert np.all(np.concatenate(counts).sum(axis=1) == 1_000_000)
        # the pair (2, 4) and the pair (0, 1) come back in later batches with fresh draws
        assert counts[0][1, 0] != counts[1][0, 1]
        assert counts[0][0, 0] != counts[2][0, 0]
        replay = comparison_callback(truth, 1_000_000)
        for batch, expected in zip(batches, counts):
            np.testing.assert_array_equal(replay(batch, None), expected)


class TestSimulateRatings:
    def test_noiseless_limit(self):
        link = LinkParams(a=1.6, b=-0.7, c=1e-9)
        truth = _truth(seed=2, links={"rd": link})
        table = simulate_ratings(truth, "rd", 3)
        expected = (truth.q_true[table.condition_indices] - link.b) / link.a
        np.testing.assert_allclose(table.scores, expected, atol=1e-6)

    def test_sample_mean_clt_bound(self):
        link = LinkParams(a=1.0, b=0.5, c=0.8)
        truth = _truth(seed=3, links={"rd": link})
        table = simulate_ratings(truth, "rd", 10_000)
        sigma = SIGMA_JOD
        for idx in range(6):
            scores = table.scores[table.condition_indices == idx]
            expected = (truth.q_true[idx] - link.b) / link.a
            bound = 3.0 * (link.c * sigma / link.a) / np.sqrt(10_000)
            assert abs(float(scores.mean()) - expected) < bound

    def test_quality_domain_noise_scale(self):
        # ratings carry noise c * sigma in rating units, so the link maps
        # them to quality-domain residuals of a * c * sigma, matching the
        # spread assumed by the rating likelihood
        link = LinkParams(a=1.7, b=-0.3, c=0.9)
        truth = _truth(seed=4, links={"rd": link})
        table = simulate_ratings(truth, "rd", 20_000)
        sigma = SIGMA_JOD
        one_condition = table.scores[table.condition_indices == 2]
        assert float(one_condition.std()) == pytest.approx(link.c * sigma, rel=0.05)
        mapped = link.a * table.scores + link.b
        residual = mapped - truth.q_true[table.condition_indices]
        assert float(residual.mean()) == pytest.approx(0.0, abs=0.03)
        assert float(residual.std()) == pytest.approx(link.a * link.c * sigma, rel=0.02)

    def test_deterministic(self):
        link = LinkParams(a=1.0, b=0.0, c=1.0)
        truth = _truth(seed=8, links={"rd": link})
        first = simulate_ratings(truth, "rd", 7)
        second = simulate_ratings(truth, "rd", 7)
        assert first == second
        assert len(first) == 7 * 6

    def test_unknown_dataset_rejected(self):
        truth = _truth()
        with pytest.raises(IntegrityError):
            simulate_ratings(truth, "nope", 3)


def _reference_pairs(config):
    """The measured pairs of synthesize_collection, built pair by pair."""
    sizes = [config.n_conditions // config.n_datasets
             + (1 if d < config.n_conditions % config.n_datasets else 0)
             for d in range(config.n_datasets)]
    members, dataset_of = [], []
    for d, size in enumerate(sizes):
        members.append(list(range(len(dataset_of), len(dataset_of) + size)))
        dataset_of += [d] * size
    measured = set()
    for group in members:
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                measured.add((group[a], group[b]))
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 4)))
    for d in range(1, config.n_datasets):
        i, j = int(rng.choice(members[d - 1])), int(rng.choice(members[d]))
        measured.add((min(i, j), max(i, j)))
    n_extra = int(round(config.graph_density * config.n_conditions))
    attempts = added = 0
    while added < n_extra and attempts < 50 * max(n_extra, 1):
        attempts += 1
        i, j = (int(v) for v in rng.integers(0, len(dataset_of), size=2))
        key = (min(i, j), max(i, j))
        if i == j or dataset_of[i] == dataset_of[j] or key in measured:
            continue
        measured.add(key)
        added += 1
    return sorted(measured)


class TestSynthesizeCollection:
    @pytest.mark.parametrize("config", [
        RecoveryConfig(n_conditions=20, n_datasets=2, seed=6),
        RecoveryConfig(n_conditions=21, n_datasets=3, seed=1),
        RecoveryConfig(n_conditions=50, n_datasets=5, graph_density=2.0, seed=3),
        RecoveryConfig(n_conditions=12, n_datasets=6, graph_density=3.0, seed=9),
        RecoveryConfig(n_conditions=24, n_datasets=2, graph_density=0.0, seed=2),
        RecoveryConfig(n_conditions=7, n_datasets=1, seed=4),
    ])
    def test_pairs_match_loop_reference(self, config):
        _, collection = synthesize_collection(config)
        i, j, _, _ = collection.graph.pair_arrays()
        assert list(zip(i.tolist(), j.tolist())) == _reference_pairs(config)

    def test_deterministic_output(self):
        config = RecoveryConfig(n_conditions=20, n_datasets=2, seed=6)
        truth_a, coll_a = synthesize_collection(config)
        truth_b, coll_b = synthesize_collection(config)
        np.testing.assert_array_equal(truth_a.q_true, truth_b.q_true)
        assert coll_a.conditions == coll_b.conditions
        assert coll_a.graph == coll_b.graph
        for name in coll_a.ratings:
            assert coll_a.ratings[name] == coll_b.ratings[name]

    def test_structure(self):
        config = RecoveryConfig(n_conditions=21, n_datasets=3, seed=1)
        truth, coll = synthesize_collection(config)
        assert coll.n == 21
        assert len(coll.dataset_names()) == 3
        assert len(coll.reference_indices()) == 3
        assert set(coll.ratings) == {"ds1", "ds2"}
        assert coll.manifest["ds0"].experiment == "pwc"
        assert coll.manifest["ds1"].experiment == "rating"


class TestRecoveryExperiment:
    def test_small_instance_recovers(self):
        config = RecoveryConfig(
            n_conditions=20, n_datasets=2, trials_per_pair=40, observers=10, seed=3
        )
        report = recovery_experiment(config)
        assert report["srocc"] > 0.95
        assert report["converged"]

    def test_no_data_reports_disconnected(self):
        config = RecoveryConfig(
            n_conditions=12, n_datasets=2, trials_per_pair=0, observers=0, seed=0
        )
        with pytest.raises(DisconnectedGraphError):
            recovery_experiment(config)

    def test_more_trials_reduce_error(self):
        rmse = {10: [], 40: []}
        for seed in range(10):
            for trials in (10, 40):
                config = RecoveryConfig(
                    n_conditions=12,
                    n_datasets=2,
                    trials_per_pair=trials,
                    observers=6,
                    seed=seed,
                )
                rmse[trials].append(recovery_experiment(config)["rmse"])
        assert np.median(rmse[40]) <= np.median(rmse[10])

    def test_config_validation(self):
        with pytest.raises(IntegrityError):
            RecoveryConfig(n_conditions=3, n_datasets=2)
        with pytest.raises(IntegrityError):
            RecoveryConfig(seed=-1)


def test_simulate_design_benchmark_workload_at_small_size(tmp_path, monkeypatch):
    # the benchmark's own simulate-design workload, run read-only from bench/:
    # its brute-force selections and binomial/Gaussian moment checks
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    for pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(pool, os.environ.get(pool, "1"))  # run.py sets these on import
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    config = {"conditions": 90, "datasets": 3, "trials": 30, "observers": 15, "density": 0.5}
    workload = run.SimulateDesignWorkload(tmp_path, 3, simulate=config, select_conditions=200)
    workload.setup()
    for argv in workload.commands():
        assert run.run_quiet(main, argv) == 0
    workload.check(main)
