"""Synthetic observer: generates comparisons and ratings from known truth.

The generator is the exact sampling dual of the scaling model, so recovery
experiments have a well-defined target: comparison outcomes are binomial in
the preference probability of the Gaussian observer, and ratings are
Gaussian with mean (q_i - b) / a and standard deviation c * sigma in rating
units.

Each random stream is keyed by the master seed and a purpose. One call of
``simulate_comparison`` draws the counts of all its pairs from one stream,
in the order the pairs are given; ``synthesize_collection`` passes them in
canonical order (i < j, lexsorted), so the counts do not depend on how the
pairs were gathered. Ratings draw one stream per condition. Replaying a
configuration is byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError
from .metricmap import correlation_metrics
from .model import ComparisonGraph, ConditionId, DatasetCollection, RatingTable
from .scaling import SIGMA_JOD, LinkParams, UnifiedScale, preference_probability, scale

_STREAM_TRUTH = 0
_STREAM_LINKS = 1
_STREAM_COMPARISON = 2
_STREAM_RATING = 3
_STREAM_DESIGN = 4

# True scores of test conditions are uniform on this range; references sit at 0.
_Q_LOW, _Q_HIGH = -5.0, 0.0


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key)))


@dataclass(frozen=True)
class GroundTruth:
    """Known scores and link parameters driving the synthetic observer."""

    conditions: tuple[ConditionId, ...]
    q_true: np.ndarray
    links_true: dict[str, LinkParams]
    seed: int = 0

    def __post_init__(self):
        q = np.asarray(self.q_true, dtype=float)
        object.__setattr__(self, "q_true", q)
        if q.shape != (len(self.conditions),):
            raise IntegrityError("q_true must have one entry per condition")
        if self.seed < 0:
            raise IntegrityError(f"seed must be non-negative, got {self.seed}")
        for idx, cond in enumerate(self.conditions):
            if cond.is_reference and q[idx] != 0.0:
                raise IntegrityError(f"reference {cond.key} must have q_true = 0")


def simulate_comparison(truth: GroundTruth, i, j, n_trials: int) -> np.ndarray:
    """Simulate n_trials forced-choice trials for each pair (i[k], j[k]).

    Returns an int64 array of shape (len(i), 2) holding (c_ij, c_ji) per
    pair. All counts come from one stream keyed by the truth seed, drawn in
    the order the pairs are given, so a repeated call repeats the draws.
    """
    if n_trials < 0:
        raise IntegrityError(f"n_trials must be non-negative, got {n_trials}")
    p = preference_probability(truth.q_true[np.asarray(i)], truth.q_true[np.asarray(j)])
    c_ij = np.asarray(_rng(truth.seed, _STREAM_COMPARISON, 0).binomial(n_trials, p),
                      dtype=np.int64)
    return np.stack([c_ij, n_trials - c_ij], axis=-1)


def simulate_ratings(truth: GroundTruth, dataset: str, n_observers: int) -> RatingTable:
    """Simulate one rating session per observer for every condition of a dataset.

    Ratings are Gaussian around (q_i - b) / a with spread c * sigma, so
    mapping them through the link reproduces the quality-domain observer
    noise. Deterministic given the truth seed.
    """
    if dataset not in truth.links_true:
        raise IntegrityError(f"no ground-truth link for dataset {dataset!r}")
    if n_observers < 0:
        raise IntegrityError(f"n_observers must be non-negative, got {n_observers}")
    link = truth.links_true[dataset]
    members = [idx for idx, cond in enumerate(truth.conditions) if cond.dataset == dataset]
    scores = [
        (truth.q_true[idx] - link.b) / link.a
        + _rng(truth.seed, _STREAM_RATING, idx).normal(0.0, link.c * SIGMA_JOD, size=n_observers)
        for idx in members
    ]
    return RatingTable(
        np.repeat(members, n_observers),
        [f"o{k:03d}" for k in range(n_observers)] * len(members),
        np.concatenate(scores) if scores else (),
    )


@dataclass(frozen=True)
class RecoveryConfig:
    """Parameters of one synthetic end-to-end recovery experiment."""

    n_conditions: int = 50
    n_datasets: int = 3
    trials_per_pair: int = 30
    observers: int = 15
    graph_density: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_datasets < 1 or self.n_conditions < 2 * self.n_datasets:
            raise IntegrityError(
                "need at least one dataset and two conditions (reference + test) per dataset"
            )
        if not (np.isfinite(self.graph_density) and self.graph_density >= 0):
            raise IntegrityError(
                f"graph_density must be finite and non-negative, got {self.graph_density}"
            )
        if self.seed < 0:
            raise IntegrityError(f"seed must be non-negative, got {self.seed}")
        for name in ("trials_per_pair", "observers"):
            if getattr(self, name) < 0:
                raise IntegrityError(f"{name} must be non-negative, got {getattr(self, name)}")


def synthesize_collection(config: RecoveryConfig) -> tuple[GroundTruth, DatasetCollection]:
    """Build ground truth and a simulated collection for a recovery run.

    The first dataset is comparison-based; with ``observers`` above 0 the
    others are also rated, one rating per observer and condition. Every
    dataset gets one reference and a dense set of within-dataset
    comparisons; datasets are connected by a spanning chain of
    cross-dataset pairs plus up to ``graph_density * n_conditions`` random
    extras, drawn until none is left or 50 draws per extra are spent.
    """
    sizes = [
        config.n_conditions // config.n_datasets
        + (1 if d < config.n_conditions % config.n_datasets else 0)
        for d in range(config.n_datasets)
    ]
    # dataset d holds the contiguous index range starts[d]:starts[d + 1], reference first
    starts = np.concatenate([[0], np.cumsum(sizes)])
    dataset_names = [f"ds{d}" for d in range(config.n_datasets)]
    conditions: list[ConditionId] = []
    for name, size in zip(dataset_names, sizes):
        conditions.append(ConditionId.reference(name))
        conditions += [ConditionId(name, f"c{t:03d}", "dist", 1) for t in range(size - 1)]
    dataset_of = np.repeat(np.arange(config.n_datasets), sizes)

    n = len(conditions)
    rng_truth = _rng(config.seed, _STREAM_TRUTH)
    free = np.array([not cond.is_reference for cond in conditions], dtype=bool)
    q_true = np.zeros(n)
    q_true[free] = rng_truth.uniform(_Q_LOW, _Q_HIGH, int(free.sum()))

    rng_links = _rng(config.seed, _STREAM_LINKS)
    links_true: dict[str, LinkParams] = {}
    for name in dataset_names[1:]:
        links_true[name] = LinkParams(
            a=float(rng_links.uniform(0.6, 1.6)),
            b=float(rng_links.uniform(-2.0, 2.0)),
            c=float(rng_links.uniform(0.5, 1.2)),
        )

    truth = GroundTruth(tuple(conditions), q_true, links_true, seed=config.seed)

    # only cross-dataset pairs can be drawn twice: the chain, then random extras
    cross: set[tuple[int, int]] = set()
    rng_design = _rng(config.seed, _STREAM_DESIGN)
    for d in range(1, config.n_datasets):
        i = int(rng_design.choice(np.arange(starts[d - 1], starts[d])))
        j = int(rng_design.choice(np.arange(starts[d], starts[d + 1])))
        cross.add((min(i, j), max(i, j)))
    n_extra = int(round(config.graph_density * config.n_conditions))
    n_cross = (n * n - sum(size * size for size in sizes)) // 2
    attempts = 0
    added = 0
    while added < n_extra and attempts < 50 * max(n_extra, 1) and len(cross) < n_cross:
        attempts += 1
        i, j = (int(v) for v in rng_design.integers(0, n, size=2))
        key = (min(i, j), max(i, j))
        if dataset_of[i] == dataset_of[j] or key in cross:
            continue
        cross.add(key)
        added += 1

    # a generator: the within-dataset blocks live only until they are joined
    within = (np.stack(np.triu_indices(size, 1), axis=1) + start
              for start, size in zip(starts[:-1].tolist(), sizes))
    pairs = np.concatenate([*within, np.array(list(cross), dtype=np.int64).reshape(-1, 2)])
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    counts = simulate_comparison(truth, pairs[:, 0], pairs[:, 1], config.trials_per_pair)

    ratings: dict[str, RatingTable] = {}
    if config.observers > 0:
        for name in dataset_names[1:]:
            ratings[name] = simulate_ratings(truth, name, config.observers)

    displays = dict.fromkeys(dataset_names, {"L_peak": 100.0, "L_black": 0.5, "gamma": 2.2})
    graph = ComparisonGraph(n, pairs.ravel(), pairs[:, ::-1].ravel(), counts.ravel())
    collection = DatasetCollection(conditions, graph, ratings, displays)
    return truth, collection


def recovery_experiment(config: RecoveryConfig) -> dict:
    """Generate, scale and score one synthetic instance.

    Returns a report with the rank correlation and RMSE between recovered
    and true scores (non-reference conditions), per-dataset link-parameter
    errors, and solver diagnostics. ``runtime_seconds`` is wall-clock time
    and is the only non-deterministic entry.
    """
    truth, collection = synthesize_collection(config)
    start = time.perf_counter()
    # without the score prior, so the target is the plain maximum-likelihood estimate
    result = scale(collection, prior_enabled=False)
    runtime = time.perf_counter() - start
    return build_recovery_report(truth, result, runtime)


def build_recovery_report(truth: GroundTruth, result: UnifiedScale, runtime: float) -> dict:
    free = [i for i, c in enumerate(truth.conditions) if not c.is_reference]
    stats = correlation_metrics(result.q[free], truth.q_true[free])
    link_errors = {}
    # the scale has links only for the datasets that were rated
    for name in sorted(result.links):
        true_link = truth.links_true[name]
        fit_link = result.links[name]
        link_errors[name] = {
            "a_rel": abs(fit_link.a - true_link.a) / abs(true_link.a),
            "b_abs": abs(fit_link.b - true_link.b),
            "c_rel": abs(fit_link.c - true_link.c) / abs(true_link.c),
        }
    summary = {
        "a_rel_max": max((e["a_rel"] for e in link_errors.values()), default=0.0),
        "b_abs_max": max((e["b_abs"] for e in link_errors.values()), default=0.0),
        "c_rel_max": max((e["c_rel"] for e in link_errors.values()), default=0.0),
    }
    return {
        "srocc": stats.srocc,
        "rmse": stats.rmse,
        "link_errors": link_errors,
        "link_error_summary": summary,
        "log_posterior": result.log_posterior,
        "converged": result.converged,
        "iterations": result.iterations,
        "n_conditions": len(truth.conditions),
        "runtime_seconds": runtime,
    }
