"""Mapping objective metric scores to JOD units and validation statistics.

Objective metrics predict quality on their own arbitrary scales; a
five-parameter logistic with a linear term maps those predictions into
absolute JOD units so that RMSE and Pearson correlation become meaningful.
The remaining helpers compute the standard agreement statistics between
predictions and a quality scale, plus the pairwise ranking accuracy used to
validate a scale against measured comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import (
    DegenerateDataError,
    DesignError,
    IntegrityError,
    UndefinedCorrelationError,
)
from .model import ComparisonGraph


@dataclass(frozen=True)
class LogisticParams:
    """Parameters of q(o) = a1 / (1 + exp(a2 (o - a3))) + a4 o + a5."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float


@dataclass(frozen=True)
class LogisticFit:
    params: LogisticParams
    rmse: float
    converged: bool


@dataclass(frozen=True)
class CorrelationMetrics:
    srocc: float
    plcc: float
    rmse: float


@dataclass(frozen=True)
class PairwiseAccuracy:
    accuracy: float
    considered_pairs: int


def eval_logistic(params: LogisticParams, scores) -> np.ndarray:
    """Evaluate the logistic-plus-linear mapping at the given scores."""
    o = np.asarray(scores, dtype=float)
    # a1 / (1 + exp(x)) == a1 * expit(-x), which is stable in both tails
    return params.a1 * expit(-params.a2 * (o - params.a3)) + params.a4 * o + params.a5


def _linear_baseline(scores: np.ndarray, jod: np.ndarray) -> LogisticParams:
    slope, intercept = np.polyfit(scores, jod, 1)
    return LogisticParams(0.0, 0.0, float(np.median(scores)), float(slope), float(intercept))


def _rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def _check_finite(*vectors: np.ndarray) -> None:
    for finite in map(np.isfinite, vectors):
        if not finite.all():
            raise IntegrityError(f"input holds a non-finite value at index {np.argmin(finite)}")


def fit_logistic(scores, jod) -> LogisticFit:
    """Nonlinear least-squares fit of the five-parameter mapping.

    Starts from a linear regression baseline and tries a small set of
    logistic initializations; the best candidate by residual RMSE wins, so
    the fit is never worse than plain linear regression. Non-convergence of
    the nonlinear solver is reported via the flag with best-effort
    parameters returned. A start that ``least_squares`` rejects with a
    ``ValueError`` is skipped; any other exception propagates.
    """
    from scipy import optimize

    scores = np.asarray(scores, dtype=float)
    jod = np.asarray(jod, dtype=float)
    if scores.shape != jod.shape or scores.ndim != 1:
        raise IntegrityError("scores and jod must be 1-D vectors of equal length")
    _check_finite(scores, jod)
    if scores.size < 6:
        raise IntegrityError(f"need at least 6 points to fit, got {scores.size}")
    if float(scores.std()) == 0.0:
        raise DegenerateDataError("all objective scores are equal; mapping is unidentified")

    baseline = _linear_baseline(scores, jod)
    best_params = baseline
    best_rmse = _rmse(eval_logistic(baseline, scores), jod)

    resid = jod - eval_logistic(baseline, scores)
    residual_trend = float(np.polyfit(scores, resid, 1)[0])
    span = float(scores.max() - scores.min())
    amplitude = float(resid.max() - resid.min()) or 1.0
    a2_mag = 4.0 / span
    a3_init = float(np.median(scores))

    def residuals(theta):
        params = LogisticParams(*theta)
        return eval_logistic(params, scores) - jod

    sign = -1.0 if residual_trend >= 0 else 1.0
    starts = [
        (amplitude, sign * a2_mag, a3_init, baseline.a4, baseline.a5),
        (amplitude, -sign * a2_mag, a3_init, baseline.a4, baseline.a5),
        (0.1 * amplitude, sign * a2_mag, a3_init, baseline.a4, baseline.a5),
    ]
    any_success = False
    for start in starts:
        try:
            result = optimize.least_squares(residuals, start, method="lm", max_nfev=20000)
        except ValueError:
            continue
        candidate = LogisticParams(*result.x)
        mapped = eval_logistic(candidate, scores)
        if not np.all(np.isfinite(mapped)):
            continue
        rmse = _rmse(mapped, jod)
        any_success = any_success or bool(result.success)
        if rmse < best_rmse:
            best_rmse = rmse
            best_params = candidate
    solver_ok = any_success or best_params is baseline
    return LogisticFit(params=best_params, rmse=best_rmse, converged=solver_ok)


def correlation_metrics(pred, truth) -> CorrelationMetrics:
    """Spearman (average ranks), Pearson and RMSE between two vectors.

    Zero variance in either vector leaves the correlations undefined; the
    raised error still carries the RMSE.
    """
    from scipy.stats import spearmanr

    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size < 2:
        raise IntegrityError("need two 1-D vectors of equal length >= 2")
    _check_finite(pred, truth)
    rmse = _rmse(pred, truth)
    if float(pred.std()) == 0.0 or float(truth.std()) == 0.0:
        raise UndefinedCorrelationError(
            "correlation undefined: an input has zero variance", rmse=rmse
        )
    plcc = float(np.corrcoef(pred, truth)[0, 1])
    srocc = float(spearmanr(pred, truth).statistic)
    return CorrelationMetrics(srocc=srocc, plcc=plcc, rmse=rmse)


def pairwise_accuracy(
    scale_scores, graph: ComparisonGraph, threshold_jod: float
) -> PairwiseAccuracy:
    """Fraction of correctly ranked pairs among pairs the scale separates.

    Ground truth is the majority direction of each measured pair (ties are
    excluded); a pair is considered when the absolute score gap is at least
    the threshold, which a NaN gap never is, so a pair with a NaN score is
    left out. Fails when no pair clears the threshold.
    """
    if threshold_jod < 0:
        raise IntegrityError(f"threshold must be non-negative, got {threshold_jod}")
    scores = np.asarray(scale_scores, dtype=float)
    i, j, c_ij, c_ji = graph.pair_arrays()
    gap = scores[i] - scores[j]
    considered = (c_ij != c_ji) & (np.abs(gap) >= threshold_jod)
    n_considered = int(considered.sum())
    if n_considered == 0:
        raise DesignError(
            f"no pair clears the {threshold_jod} JOD threshold; threshold too high"
        )
    correct = np.sign(gap[considered]) == np.sign(c_ij[considered] - c_ji[considered])
    return PairwiseAccuracy(
        accuracy=int(correct.sum()) / n_considered, considered_pairs=n_considered
    )
