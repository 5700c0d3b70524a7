"""Experiment-design utilities: pair selection for data collection.

Two selection strategies are provided. Cross-dataset selection picks pairs
of similar-quality conditions from different datasets, spread evenly over
the quality range, to stitch disjoint scales together; collection proceeds
iteratively, rescaling after each measured batch. Adversarial (gMAD-style)
selection picks pairs on which a tested metric disagrees most strongly
with a benchmark metric while the benchmark considers them similar.

All selection here is deterministic: candidates are ordered by their
objective with ties broken by condition identity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DesignError, IntegrityError
from .model import ComparisonGraph, ConditionId, DatasetCollection
from .scaling import UnifiedScale, scale


@dataclass(frozen=True)
class PairBatch:
    """Selected pairs plus the per-pair selection rationale.

    ``rationale`` holds the score gap (cross-dataset mode) or the
    disagreement objective (gMAD mode) at selection time.
    """

    pairs: tuple[tuple[int, int], ...]
    rationale: tuple[float, ...] = ()

    def __post_init__(self):
        seen = set()
        for i, j in self.pairs:
            if i == j:
                raise IntegrityError(f"pair ({i}, {j}) compares a condition to itself")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise IntegrityError(f"pair ({i}, {j}) repeats within the batch")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.pairs)


def select_cross_dataset_pairs(
    q,
    conditions: tuple[ConditionId, ...],
    k: int,
    window_jod: float = 1.0,
    coverage_bins: int = 10,
) -> PairBatch:
    """Pick up to k cross-dataset pairs of similar quality, spread over the scale.

    Candidates must cross datasets and have a score gap no larger than
    ``window_jod``. The quality range is cut into ``coverage_bins``
    equal-width bins by pair midpoint; selection round-robins over the bins
    so the whole scale is covered as evenly as feasible. ``q[i]`` is the
    score of ``conditions[i]``; ties are broken by condition identity.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (len(conditions),):
        raise IntegrityError("q must have one entry per condition")
    if window_jod < 0:
        raise IntegrityError(f"window must be non-negative, got {window_jod}")
    if k < 1 or coverage_bins < 1:
        raise IntegrityError("k and coverage_bins must be positive")
    datasets = [c.dataset for c in conditions]
    if len(set(datasets)) < 2:
        raise DesignError("cross-dataset selection needs at least two datasets")

    n = q.size
    candidates = []  # (bin, gap, key_i, key_j, i, j)
    lo, hi = float(q.min()), float(q.max())
    width = (hi - lo) / coverage_bins if hi > lo else 1.0
    for i in range(n):
        for j in range(i + 1, n):
            if datasets[i] == datasets[j]:
                continue
            gap = abs(float(q[i] - q[j]))
            if gap > window_jod:
                continue
            mid = 0.5 * float(q[i] + q[j])
            bin_idx = min(int((mid - lo) / width), coverage_bins - 1) if hi > lo else 0
            candidates.append((bin_idx, gap, conditions[i].key, conditions[j].key, i, j))
    if not candidates:
        raise DesignError(
            f"no cross-dataset pair within {window_jod} JOD; widen the window "
            f"(scale spans [{lo:.3f}, {hi:.3f}])"
        )

    by_bin: dict[int, list] = {}
    for cand in sorted(candidates):
        by_bin.setdefault(cand[0], []).append(cand)

    chosen = []
    bins = sorted(by_bin)
    cursor = {b: 0 for b in bins}
    while len(chosen) < k:
        progressed = False
        for b in bins:
            if len(chosen) >= k:
                break
            pool = by_bin[b]
            if cursor[b] < len(pool):
                cand = pool[cursor[b]]
                cursor[b] += 1
                chosen.append(cand)
                progressed = True
        if not progressed:
            break
    if len(chosen) < k:
        warnings.warn(
            f"only {len(chosen)} of {k} requested cross-dataset pairs are feasible",
            stacklevel=2,
        )
    return PairBatch(
        pairs=tuple((cand[4], cand[5]) for cand in chosen),
        rationale=tuple(cand[1] for cand in chosen),
    )


@dataclass(frozen=True)
class IterationResult:
    """Outcome of iterative batch collection."""

    final_scale: UnifiedScale
    collection: DatasetCollection
    audit: tuple[dict, ...]
    completed_batches: int
    error: str | None = None


def iterate_selection(
    collection: DatasetCollection,
    callback,
    batches: int,
    batch_size: int,
    window_jod: float = 1.0,
    *,
    coverage_bins: int = 10,
    **scale_options,
) -> IterationResult:
    """Alternate scaling, cross-dataset pair selection and data collection.

    ``callback(batch, collection)`` must return one (count_ij, count_ji)
    tuple per selected pair; the counts are added to the collection's
    observations and the collection is rescaled before the next batch. A
    callback failure aborts the loop and the partial results are returned
    with the error recorded.
    """
    current = collection
    result = scale(current, **scale_options)
    audit: list[dict] = []
    for index in range(batches):
        if batch_size == 0:
            audit.append({"batch": PairBatch(pairs=()), "counts": []})
            continue
        try:
            batch = select_cross_dataset_pairs(
                result.q, result.conditions, batch_size, window_jod, coverage_bins
            )
            counts = list(callback(batch, current))
            if len(counts) != len(batch):
                raise DesignError(
                    f"callback returned {len(counts)} results for {len(batch)} pairs"
                )
            pairs = np.asarray(batch.pairs).reshape(-1, 2)
            new = np.asarray(counts).reshape(-1, 2)
            winners, losers, old = current.graph.observations()
            graph = ComparisonGraph(
                current.n,
                np.concatenate([winners, pairs[:, 0], pairs[:, 1]]),
                np.concatenate([losers, pairs[:, 1], pairs[:, 0]]),
                np.concatenate([old, new[:, 0], new[:, 1]]),
            )
            current = DatasetCollection(
                current.conditions, graph, current.ratings, current.manifest
            )
            result = scale(current, **scale_options)
            audit.append({"batch": batch, "counts": counts})
        except Exception as exc:  # abort, keep partial results
            return IterationResult(
                final_scale=result,
                collection=current,
                audit=tuple(audit),
                completed_batches=index,
                error=f"{type(exc).__name__}: {exc}",
            )
    return IterationResult(
        final_scale=result,
        collection=current,
        audit=tuple(audit),
        completed_batches=batches,
        error=None,
    )


def select_gmad_pairs(
    m_test,
    m_bench,
    k: int,
    bench_window_jod: float = 1.0,
    *,
    allow_reuse: bool = False,
) -> PairBatch:
    """Adversarial pair selection between two metrics.

    Among pairs the benchmark metric calls similar (|bench gap| strictly
    inside the window), pick the top k by |test gap| - |bench gap|. By
    default each condition is used at most once so a single extreme
    condition cannot dominate the batch; ``allow_reuse`` restores the raw
    top-k. Returns fewer pairs with a warning when the constraint leaves
    fewer than k feasible.
    """
    test = np.asarray(m_test, dtype=float)
    bench = np.asarray(m_bench, dtype=float)
    if test.shape != bench.shape or test.ndim != 1:
        raise IntegrityError("metric score vectors must be 1-D and cover the same conditions")
    if k < 1:
        raise IntegrityError(f"k must be at least 1, got {k}")

    n = test.size
    candidates = []  # (-objective, i, j)
    for i in range(n):
        for j in range(i + 1, n):
            bench_gap = abs(float(bench[i] - bench[j]))
            if bench_gap >= bench_window_jod:
                continue
            objective = abs(float(test[i] - test[j])) - bench_gap
            candidates.append((-objective, i, j))
    candidates.sort()

    chosen = []
    used: set[int] = set()
    for neg_obj, i, j in candidates:
        if len(chosen) >= k:
            break
        if not allow_reuse and (i in used or j in used):
            continue
        chosen.append((i, j, -neg_obj))
        used.update((i, j))
    if len(chosen) < k:
        warnings.warn(
            f"only {len(chosen)} of {k} requested adversarial pairs are feasible",
            stacklevel=2,
        )
    return PairBatch(
        pairs=tuple((i, j) for i, j, _ in chosen),
        rationale=tuple(obj for _, _, obj in chosen),
    )


def gmad_precision(
    pairs: PairBatch,
    truth_jod,
    m_test,
    same_threshold_jod: float = 1.0,
) -> float:
    """Fraction of selected pairs the tested metric gets right.

    A pair counts as correct when the two conditions truly differ by at
    least the threshold, the tested metric also declares them different,
    and both agree on which one is better.
    """
    if len(pairs) == 0:
        raise IntegrityError("precision needs a non-empty pair batch")
    truth = np.asarray(truth_jod, dtype=float)
    test = np.asarray(m_test, dtype=float)
    correct = 0
    for i, j in pairs.pairs:
        truth_gap = float(truth[i] - truth[j])
        test_gap = float(test[i] - test[j])
        if abs(truth_gap) < same_threshold_jod:
            continue
        if abs(test_gap) < same_threshold_jod:
            continue
        if np.sign(test_gap) == np.sign(truth_gap):
            correct += 1
    return correct / len(pairs)
