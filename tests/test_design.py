import numpy as np
import pytest

from jodscale.design import (
    PairBatch,
    gmad_precision,
    select_cross_dataset_pairs,
    select_gmad_pairs,
)
from jodscale.errors import DesignError, IntegrityError
from jodscale.model import ConditionId


def _scale_of(names_scores):
    """Scores and condition identities, the two inputs of cross-dataset selection."""
    conditions = []
    q = []
    for dataset, content, score in names_scores:
        conditions.append(ConditionId(dataset, content, "d", 1))
        q.append(score)
    return np.asarray(q, dtype=float), tuple(conditions)


class TestPairBatch:
    def test_rejects_self_pairs_and_repeats(self):
        with pytest.raises(IntegrityError):
            PairBatch(pairs=((1, 1),))
        with pytest.raises(IntegrityError):
            PairBatch(pairs=((0, 1), (1, 0)))


class TestSelectCrossDatasetPairs:
    def test_interleaved_two_bins(self):
        rows = [
            ("a", "c0", 0.0), ("b", "c0", 0.1),
            ("a", "c1", -0.2), ("b", "c1", -0.1),
            ("a", "c2", -2.0), ("b", "c2", -1.9),
            ("a", "c3", -2.2), ("b", "c3", -2.1),
        ]
        batch = select_cross_dataset_pairs(*_scale_of(rows), 4, 1.0, 2)
        assert len(batch) == 4
        q, _ = _scale_of(rows)
        mids = [(q[i] + q[j]) / 2 for i, j in batch.pairs]
        assert sum(1 for m in mids if m > -1.1) == 2
        assert sum(1 for m in mids if m <= -1.1) == 2

    def test_postconditions_on_random_instance(self):
        rng = np.random.default_rng(7)
        rows = []
        for d in range(3):
            for c in range(17):
                rows.append((f"ds{d}", f"c{c}", float(rng.uniform(-5, 0))))
        q, conditions = _scale_of(rows)
        batch = select_cross_dataset_pairs(q, conditions, 25, 0.8, 5)
        datasets = [c.dataset for c in conditions]
        for (i, j), gap in zip(batch.pairs, batch.rationale):
            assert datasets[i] != datasets[j]
            assert abs(q[i] - q[j]) <= 0.8 + 1e-12
            assert gap == pytest.approx(abs(q[i] - q[j]))

    def test_zero_window_without_exact_ties(self):
        rows = [("a", "c0", 0.0), ("b", "c0", 0.5)]
        with pytest.raises(DesignError):
            select_cross_dataset_pairs(*_scale_of(rows), 1, 0.0, 2)

    def test_zero_window_with_exact_tie(self):
        rows = [("a", "c0", -1.0), ("b", "c0", -1.0)]
        batch = select_cross_dataset_pairs(*_scale_of(rows), 1, 0.0, 2)
        assert batch.pairs == ((0, 1),)

    def test_fewer_than_k_warns(self):
        rows = [("a", "c0", 0.0), ("b", "c0", 0.1)]
        with pytest.warns(UserWarning, match="1 of 5"):
            batch = select_cross_dataset_pairs(*_scale_of(rows), 5, 1.0, 2)
        assert len(batch) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        rows = [("a", "c0", 0.0), ("b", "c0", bad), ("b", "c1", -0.2)]
        with pytest.raises(IntegrityError, match="finite"):
            select_cross_dataset_pairs(*_scale_of(rows), 1, 1.0, 2)

    def test_single_dataset_rejected(self):
        rows = [("a", "c0", 0.0), ("a", "c1", -1.0)]
        with pytest.raises(DesignError):
            select_cross_dataset_pairs(*_scale_of(rows), 1, 1.0, 2)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        rows = [
            (f"ds{d}", f"c{c}", float(rng.uniform(-4, 0)))
            for d in range(2)
            for c in range(20)
        ]
        first = select_cross_dataset_pairs(*_scale_of(rows), 10, 1.0, 4)
        second = select_cross_dataset_pairs(*_scale_of(rows), 10, 1.0, 4)
        assert first.pairs == second.pairs


def _brute_force_gmad(test, bench, k, window, allow_reuse=False):
    candidates = []
    n = len(test)
    for i in range(n):
        for j in range(i + 1, n):
            bench_gap = abs(bench[i] - bench[j])
            if bench_gap >= window:
                continue
            candidates.append((-(abs(test[i] - test[j]) - bench_gap), i, j))
    candidates.sort()
    chosen = []
    used = set()
    for neg, i, j in candidates:
        if len(chosen) >= k:
            break
        if not allow_reuse and (i in used or j in used):
            continue
        chosen.append((i, j))
        used.update((i, j))
    return chosen


class TestSelectGmadPairs:
    def test_identical_metrics_zero_objective(self):
        scores = np.array([0.0, -0.5, -1.2, -2.0])
        batch = select_gmad_pairs(scores, scores, 2)
        assert all(obj == pytest.approx(0.0) for obj in batch.rationale)

    def test_single_feasible_positive_pair(self):
        # only (0, 1) is close under the benchmark and far under the test
        test = np.array([0.0, 3.0, 10.0, 20.0])
        bench = np.array([0.0, 0.5, 10.0, 20.0])
        batch = select_gmad_pairs(test, bench, 1)
        assert batch.pairs[0] == (0, 1)
        assert batch.rationale[0] == pytest.approx(2.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(29)
        test = rng.uniform(-5, 0, 100)
        bench = rng.uniform(-5, 0, 100)
        for k in (1, 10):
            batch = select_gmad_pairs(test, bench, k)
            assert list(batch.pairs) == _brute_force_gmad(test, bench, k, 1.0)

    def test_allow_reuse_matches_brute_force(self):
        rng = np.random.default_rng(31)
        test = rng.uniform(-5, 0, 60)
        bench = rng.uniform(-5, 0, 60)
        batch = select_gmad_pairs(test, bench, 8, allow_reuse=True)
        assert list(batch.pairs) == _brute_force_gmad(test, bench, 8, 1.0, allow_reuse=True)

    def test_window_constraint_always_holds(self):
        rng = np.random.default_rng(37)
        test = rng.uniform(-6, 0, 80)
        bench = rng.uniform(-6, 0, 80)
        batch = select_gmad_pairs(test, bench, 20, 0.5)
        for i, j in batch.pairs:
            assert abs(bench[i] - bench[j]) < 0.5

    def test_fewer_than_k_warns(self):
        test = np.array([0.0, 5.0, 10.0])
        bench = np.array([0.0, 5.0, 10.0])
        with pytest.warns(UserWarning):
            batch = select_gmad_pairs(test, bench, 3, 0.1)
        assert len(batch) == 0

    @pytest.mark.parametrize("which", ["test", "bench"])
    def test_non_finite_score_rejected(self, which):
        scores = {"test": np.array([0.0, -0.5, -1.0]), "bench": np.array([0.0, -0.2, -0.4])}
        scores[which][1] = np.nan
        with pytest.raises(IntegrityError, match="finite"):
            select_gmad_pairs(scores["test"], scores["bench"], 1)

    def test_deterministic(self):
        rng = np.random.default_rng(53)
        test = rng.uniform(-5, 0, 40)
        bench = rng.uniform(-5, 0, 40)
        first = select_gmad_pairs(test, bench, 6)
        second = select_gmad_pairs(test, bench, 6)
        assert first.pairs == second.pairs
        assert first.rationale == second.rationale


class TestGmadPrecision:
    def test_self_evaluation_counts_truly_different(self):
        rng = np.random.default_rng(41)
        truth = rng.uniform(-4, 0, 50)
        batch = select_gmad_pairs(truth, rng.uniform(-4, 0, 50), 10)
        value = gmad_precision(batch, truth, truth)
        expected = sum(
            1 for i, j in batch.pairs if abs(truth[i] - truth[j]) >= 1.0
        ) / len(batch)
        assert value == pytest.approx(expected)

    def test_all_similar_pairs_zero_precision(self):
        truth = np.array([0.0, -0.2, -0.4, -0.6])
        batch = PairBatch(pairs=((0, 1), (2, 3)))
        assert gmad_precision(batch, truth, truth * 5) == 0.0

    def test_recount_oracle(self):
        rng = np.random.default_rng(43)
        truth = rng.uniform(-5, 0, 120)
        test = truth + rng.normal(0, 0.8, 120)
        pairs = []
        used = set()
        while len(pairs) < 100:
            i, j = (int(v) for v in rng.integers(0, 120, size=2))
            key = (min(i, j), max(i, j))
            if i == j or key in used:
                continue
            used.add(key)
            pairs.append((i, j))
        batch = PairBatch(pairs=tuple(pairs))
        value = gmad_precision(batch, truth, test, 1.0)
        correct = 0
        for i, j in pairs:
            tg = truth[i] - truth[j]
            mg = test[i] - test[j]
            if abs(tg) >= 1.0 and abs(mg) >= 1.0 and np.sign(tg) == np.sign(mg):
                correct += 1
        assert value == pytest.approx(correct / 100)

    def test_empty_batch_rejected(self):
        with pytest.raises(IntegrityError):
            gmad_precision(PairBatch(pairs=()), [0.0], [0.0])

