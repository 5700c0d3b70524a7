"""Experiment-design utilities: pair selection for data collection.

Two selection strategies are provided. Cross-dataset selection picks pairs
of similar-quality conditions from different datasets, spread evenly over
the quality range, to stitch disjoint scales together. Adversarial (gMAD-style)
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
from .model import ConditionId


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


def _window_pairs(scores: np.ndarray, window: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, that may have |scores[i] - scores[j]| <= window.

    A superset of those pairs, found by sweeping the window over the sorted
    scores; callers apply the exact test to the gaps. All n(n-1)/2 pairs
    are never formed.
    """
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    # widened by a few ulps, so rounding in s + window cannot drop a pair
    upper = s + window + 4.0 * np.finfo(float).eps * (np.abs(s) + abs(window))
    count = np.maximum(np.searchsorted(s, upper, side="right") - np.arange(s.size) - 1, 0)
    first = np.repeat(order, count)
    second = np.arange(first.size)
    second -= np.repeat(np.cumsum(count) - count - np.arange(1, s.size + 1), count)
    second = order[second]
    return np.minimum(first, second), np.maximum(first, second)


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
    if not np.all(np.isfinite(q)):
        raise IntegrityError("scores must be finite")
    if not window_jod >= 0:
        raise IntegrityError(f"window must be non-negative, got {window_jod}")
    if k < 1 or coverage_bins < 1:
        raise IntegrityError("k and coverage_bins must be positive")
    dataset = np.unique([c.dataset for c in conditions], return_inverse=True)[1]
    if q.size == 0 or dataset.max() < 1:
        raise DesignError("cross-dataset selection needs at least two datasets")

    i, j = _window_pairs(q, window_jod)
    gap = np.abs(q[i] - q[j])
    keep = (dataset[i] != dataset[j]) & (gap <= window_jod)
    i, j, gap = i[keep], j[keep], gap[keep]
    lo, hi = float(q.min()), float(q.max())
    if i.size == 0:
        raise DesignError(
            f"no cross-dataset pair within {window_jod} JOD; widen the window "
            f"(scale spans [{lo:.3f}, {hi:.3f}])"
        )
    width = (hi - lo) / coverage_bins if hi > lo else 1.0
    cell = np.minimum(((0.5 * (q[i] + q[j]) - lo) / width).astype(np.int64), coverage_bins - 1)

    # only a bin's k smallest gaps (ties kept) can be picked: any other ranks
    # >= k in its bin. Group by a sort, so nothing is sized by bins.
    by_cell = np.argsort(cell, kind="stable")
    sorted_cell = cell[by_cell]
    starts = np.flatnonzero(np.r_[True, sorted_cell[1:] != sorted_cell[:-1]])
    sizes = np.diff(np.r_[starts, by_cell.size])
    cutoff = np.full(starts.size, np.inf)
    for b in np.flatnonzero(sizes > k):
        cutoff[b] = np.partition(gap[by_cell[starts[b]:starts[b] + sizes[b]]], k - 1)[k - 1]
    kept = by_cell[gap[by_cell] <= np.repeat(cutoff, sizes)]
    i, j, gap, cell = i[kept], j[kept], gap[kept], cell[kept]

    # rank within the bin by (gap, identity), then round-robin over the bins:
    # the n-th pick of every bin comes before any bin's (n+1)-th
    rank = np.unique([c.key for c in conditions], return_inverse=True)[1]
    order = np.lexsort((j, i, rank[j], rank[i], gap, cell))
    sorted_cell = cell[order]
    in_bin = np.arange(order.size) - np.searchsorted(sorted_cell, sorted_cell)
    chosen = order[np.lexsort((sorted_cell, in_bin))[:k]]
    if chosen.size < k:
        warnings.warn(
            f"only {chosen.size} of {k} requested cross-dataset pairs are feasible",
            stacklevel=2,
        )
    return PairBatch(
        pairs=tuple(zip(i[chosen].tolist(), j[chosen].tolist())),
        rationale=tuple(gap[chosen].tolist()),
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
    if not np.all(np.isfinite(test) & np.isfinite(bench)):
        raise IntegrityError("metric scores must be finite")
    if not bench_window_jod >= 0:
        raise IntegrityError(f"window must be non-negative, got {bench_window_jod}")
    if k < 1:
        raise IntegrityError(f"k must be at least 1, got {k}")

    i, j = _window_pairs(bench, bench_window_jod)
    bench_gap = np.abs(bench[i] - bench[j])
    keep = bench_gap < bench_window_jod
    i, j, bench_gap = i[keep], j[keep], bench_gap[keep]
    objective = np.abs(test[i] - test[j]) - bench_gap

    # the greedy pass reads a prefix of the (-objective, i, j) order: each step
    # sorts the objectives from the m-th largest (ties kept, so the steps join
    # into an exact prefix) up to the last step's cutoff, with m growing 4x.
    # Without reuse, a step drops its pairs that touch a used condition, and
    # the pass stops once fewer than two conditions are unused.
    chosen = []
    used: set[int] = set()
    upper, m = np.inf, 4 * k
    while len(chosen) < k and upper > -np.inf:
        if not allow_reuse and test.size - len(used) < 2:
            break
        lower = -np.partition(-objective, m - 1)[m - 1] if m < objective.size else -np.inf
        step = np.flatnonzero((objective >= lower) & (objective < upper))
        if used and not allow_reuse:
            free = np.ones(test.size, dtype=bool)
            free[list(used)] = False
            step = step[free[i[step]] & free[j[step]]]
        for c in step[np.lexsort((j[step], i[step], -objective[step]))]:
            if len(chosen) >= k:
                break
            a, b = int(i[c]), int(j[c])
            if not allow_reuse and (a in used or b in used):
                continue
            chosen.append(c)
            used.update((a, b))
        upper, m = lower, 4 * m
    if len(chosen) < k:
        warnings.warn(
            f"only {len(chosen)} of {k} requested adversarial pairs are feasible",
            stacklevel=2,
        )
    return PairBatch(
        pairs=tuple(zip(i[chosen].tolist(), j[chosen].tolist())),
        rationale=tuple(objective[chosen].tolist()),
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
    i, j = np.asarray(pairs.pairs).T
    truth = np.asarray(truth_jod, dtype=float)
    test = np.asarray(m_test, dtype=float)
    gaps = np.stack([truth[i] - truth[j], test[i] - test[j]])
    # "not below" rather than "at least": a NaN threshold excludes no pair
    apart = ~np.any(np.abs(gaps) < same_threshold_jod, axis=0)
    return int(np.count_nonzero(apart & (np.sign(gaps[0]) == np.sign(gaps[1])))) / len(pairs)
