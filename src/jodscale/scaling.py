"""Joint maximum-likelihood scaling of comparisons and ratings.

The observer model is Thurstone Case V: perceived quality of condition i is
Gaussian around its true score q_i with a shared standard deviation sigma,
so the probability of preferring i over j is Phi((q_i - q_j) / (sqrt(2)
sigma)). Observed win counts per pair are binomial in that probability.

Ratings are tied to the common scale by a per-dataset affine link: a rating
m maps to the quality domain as a*m + b, with residual spread a*c*sigma.
Equivalently, the rating itself is Gaussian with mean (q_i - b) / a and
standard deviation c*sigma; the log-density used here is the normalized one
(its normalizer is 1/(c*sigma*sqrt(2*pi))), which keeps the maximum
likelihood estimates of a, b and c consistent.

sigma is fixed at 1.048 so that a score distance of 1 corresponds to a 75%
preference rate; scores are then in just-objectionable-difference (JOD)
units. All reference conditions are pinned at q = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize
from scipy.special import gammaln, log_ndtr, ndtr

from .errors import (
    ConvergenceError,
    DegenerateDataError,
    DisconnectedGraphError,
    IntegrityError,
)
from .model import (
    ComparisonGraph,
    ConditionId,
    DatasetCollection,
    RatingTable,
    connected_components,
)

# Score distance of 1 maps to a 75% preference rate with this sigma.
SIGMA_JOD = 1.048

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ObserverModel:
    """Equal-variance Gaussian observer; sigma is in JOD units."""

    sigma: float = SIGMA_JOD

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise IntegrityError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class LinkParams:
    """Affine link between one dataset's rating scale and the JOD scale.

    a scales ratings into JOD units (positive so the orientation of the
    original scale is preserved), b shifts them, and c multiplies sigma to
    absorb the different measurement accuracy of the rating protocol.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a > 0.0):
            raise IntegrityError(f"link scale a must be positive, got {self.a}")
        if not np.isfinite(self.b):
            raise IntegrityError(f"link offset b must be finite, got {self.b}")
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise IntegrityError(f"link noise multiplier c must be positive, got {self.c}")


@dataclass(frozen=True)
class UnifiedScale:
    """Result of a joint scaling run."""

    q: np.ndarray
    links: dict[str, LinkParams]
    log_posterior: float
    converged: bool
    iterations: int
    conditions: tuple[ConditionId, ...] = ()


def preference_probability(q_i, q_j, model: ObserverModel = ObserverModel()):
    """Probability that a condition scored q_i is preferred over one scored q_j."""
    z = (np.asarray(q_i, dtype=float) - np.asarray(q_j, dtype=float)) / (
        math.sqrt(2.0) * model.sigma
    )
    return ndtr(z)


def pwc_log_likelihood(
    graph: ComparisonGraph, q, model: ObserverModel = ObserverModel()
) -> float:
    """Binomial log-likelihood of the observed win counts given scores q.

    The binomial coefficient is included; it is constant in q, so reported
    values are comparable across parameter settings.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (graph.n,):
        raise IntegrityError(f"q must have one entry per condition ({graph.n})")
    if not np.all(np.isfinite(q)):
        raise IntegrityError("q contains non-finite values")
    i_arr, j_arr, cij, cji = graph.pair_arrays()
    if i_arr.size == 0:
        return 0.0
    z = (q[i_arr] - q[j_arr]) / (math.sqrt(2.0) * model.sigma)
    total = cij + cji
    log_coef = gammaln(total + 1.0) - gammaln(cij + 1.0) - gammaln(cji + 1.0)
    return float(np.sum(log_coef + cij * log_ndtr(z) + cji * log_ndtr(-z)))


def rating_log_likelihood(
    ratings: RatingTable, q, link: LinkParams, model: ObserverModel = ObserverModel()
) -> float:
    """Gaussian log-likelihood of rating measurements under the affine link.

    Each record contributes log N(m; (q_i - b)/a, c*sigma), written in the
    quality domain as -log(c sigma sqrt(2 pi)) - ((a m + b) - q_i)^2 /
    (2 a^2 c^2 sigma^2).
    """
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise IntegrityError("q contains non-finite values")
    scores = ratings.scores
    if scores.size == 0:
        return 0.0
    if not np.all(np.isfinite(scores)):
        raise IntegrityError("ratings contain non-finite scores")
    residual = link.a * scores + link.b - q[ratings.condition_indices]
    var = (link.a * link.c * model.sigma) ** 2
    norm = -math.log(link.c * model.sigma * _SQRT_2PI)
    return float(scores.size * norm - np.sum(residual**2) / (2.0 * var))


def _log_prior(q: np.ndarray, sigma: float) -> float:
    centered = q - q.mean()
    return float(
        -q.size * math.log(sigma * _SQRT_2PI) - np.sum(centered**2) / (2.0 * sigma**2)
    )


def log_posterior(
    collection: DatasetCollection,
    q,
    links: dict[str, LinkParams] | None = None,
    model: ObserverModel = ObserverModel(),
    prior_enabled: bool = True,
) -> float:
    """Joint log-posterior: comparisons + ratings + optional score prior.

    The prior treats each q_i as Gaussian around the mean of all scores with
    standard deviation sigma; it bounds score differences when answers are
    unanimous.
    """
    q = np.asarray(q, dtype=float)
    total = pwc_log_likelihood(collection.graph, q, model)
    links = links or {}
    for name in sorted(collection.ratings):
        if name not in links:
            raise IntegrityError(f"missing link parameters for dataset {name!r}")
        total += rating_log_likelihood(collection.ratings[name], q, links[name], model)
    if prior_enabled:
        total += _log_prior(q, model.sigma)
    return total


class PosteriorProblem:
    """Packed free-parameter view of the joint posterior.

    The parameter vector is [q at non-reference conditions, then per rating
    dataset (log a, b, log c) in sorted dataset order]. Reference conditions
    stay pinned at q = 0. ``value_and_grad`` returns the log-posterior and
    its analytic gradient with respect to that vector.
    """

    def __init__(
        self,
        collection: DatasetCollection,
        model: ObserverModel = ObserverModel(),
        prior_enabled: bool = True,
    ):
        self.collection = collection
        self.model = model
        self.prior_enabled = prior_enabled
        self.n = collection.n
        refs = set(collection.reference_indices())
        self.free_idx = np.asarray(
            [i for i in range(self.n) if i not in refs], dtype=int
        )
        self.rating_names = sorted(collection.ratings)
        self.n_free = self.free_idx.size
        self.n_params = self.n_free + 3 * len(self.rating_names)
        self._pairs = collection.graph.pair_arrays()
        self._log_coef = 0.0
        if self._pairs[0].size:
            _, _, cij, cji = self._pairs
            total = cij + cji
            self._log_coef = float(
                np.sum(gammaln(total + 1.0) - gammaln(cij + 1.0) - gammaln(cji + 1.0))
            )

    def initial_point(self) -> np.ndarray:
        """q = 0 everywhere; per-dataset a = 1/std(scores), b = -a*mean, c = 1."""
        x = np.zeros(self.n_params)
        offset = self.n_free
        for name in self.rating_names:
            scores = self.collection.ratings[name].scores
            spread = float(scores.std()) if scores.size else 0.0
            a0 = 1.0 / spread if spread > 0 else 1.0
            b0 = -a0 * float(scores.mean()) if scores.size else 0.0
            x[offset] = math.log(a0)
            x[offset + 1] = b0
            x[offset + 2] = 0.0
            offset += 3
        return x

    def pack(self, q, links: dict[str, LinkParams]) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        x = np.empty(self.n_params)
        x[: self.n_free] = q[self.free_idx]
        offset = self.n_free
        for name in self.rating_names:
            link = links[name]
            x[offset : offset + 3] = (math.log(link.a), link.b, math.log(link.c))
            offset += 3
        return x

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, dict[str, LinkParams]]:
        q = np.zeros(self.n)
        q[self.free_idx] = x[: self.n_free]
        links = {}
        offset = self.n_free
        for name in self.rating_names:
            alpha, b, gamma = x[offset : offset + 3]
            links[name] = LinkParams(a=math.exp(alpha), b=float(b), c=math.exp(gamma))
            offset += 3
        return q, links

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        sigma = self.model.sigma
        q = np.zeros(self.n)
        q[self.free_idx] = x[: self.n_free]
        grad_q = np.zeros(self.n)
        grad = np.zeros(self.n_params)
        value = self._log_coef

        i_arr, j_arr, cij, cji = self._pairs
        if i_arr.size:
            scale = 1.0 / (math.sqrt(2.0) * sigma)
            z = (q[i_arr] - q[j_arr]) * scale
            value += float(np.sum(cij * log_ndtr(z) + cji * log_ndtr(-z)))
            # Phi'(z)/Phi(z), evaluated stably in both tails.
            log_pdf = -0.5 * z**2 - math.log(_SQRT_2PI)
            hazard_pos = np.exp(log_pdf - log_ndtr(z))
            hazard_neg = np.exp(log_pdf - log_ndtr(-z))
            dz = (cij * hazard_pos - cji * hazard_neg) * scale
            np.add.at(grad_q, i_arr, dz)
            np.add.at(grad_q, j_arr, -dz)

        offset = self.n_free
        for name in self.rating_names:
            table = self.collection.ratings[name]
            alpha, b, gamma = x[offset : offset + 3]
            a, c = math.exp(alpha), math.exp(gamma)
            scores = table.scores
            idx = table.condition_indices
            residual = a * scores + b - q[idx]
            var = (a * c * sigma) ** 2
            value += float(
                -scores.size * math.log(c * sigma * _SQRT_2PI)
                - np.sum(residual**2) / (2.0 * var)
            )
            r_over_v = residual / var
            np.add.at(grad_q, idx, r_over_v)
            grad[offset] = float(np.sum(r_over_v * (residual - a * scores)))
            grad[offset + 1] = float(-np.sum(r_over_v))
            grad[offset + 2] = float(np.sum(residual * r_over_v) - scores.size)
            offset += 3

        if self.prior_enabled:
            centered = q - q.mean()
            value += float(
                -self.n * math.log(sigma * _SQRT_2PI)
                - np.sum(centered**2) / (2.0 * sigma**2)
            )
            grad_q += -centered / sigma**2

        grad[: self.n_free] = grad_q[self.free_idx]
        return value, grad

    def hess_vec(self, x: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Product of the log-posterior Hessian with a vector.

        Assembled analytically from the per-pair curvature of the binomial
        terms, the per-record rating blocks and the rank-one prior, so the
        cost is one vectorized pass over the data (no matrix is formed).
        """
        sigma = self.model.sigma
        q = np.zeros(self.n)
        q[self.free_idx] = x[: self.n_free]
        v_q = np.zeros(self.n)
        v_q[self.free_idx] = vec[: self.n_free]
        out_q = np.zeros(self.n)
        out = np.zeros(self.n_params)

        i_arr, j_arr, cij, cji = self._pairs
        if i_arr.size:
            s = 1.0 / (math.sqrt(2.0) * sigma)
            z = (q[i_arr] - q[j_arr]) * s
            log_pdf = -0.5 * z**2 - math.log(_SQRT_2PI)
            h_pos = np.exp(log_pdf - log_ndtr(z))
            h_neg = np.exp(log_pdf - log_ndtr(-z))
            # d^2/dz^2 of log Phi(z) is -z h(z) - h(z)^2
            curvature = (
                cij * (-z * h_pos - h_pos**2) + cji * (z * h_neg - h_neg**2)
            ) * s**2
            delta = curvature * (v_q[i_arr] - v_q[j_arr])
            np.add.at(out_q, i_arr, delta)
            np.add.at(out_q, j_arr, -delta)

        offset = self.n_free
        for name in self.rating_names:
            table = self.collection.ratings[name]
            alpha, b, gamma = x[offset : offset + 3]
            a, c = math.exp(alpha), math.exp(gamma)
            scores = table.scores
            idx = table.condition_indices
            r = a * scores + b - q[idx]
            var = (a * c * sigma) ** 2
            am = a * scores
            bq = b - q[idx]
            va, vb, vg = vec[offset], vec[offset + 1], vec[offset + 2]
            vq_here = v_q[idx]
            h_qa = (am - 2.0 * r) / var
            h_qg = -2.0 * r / var
            np.add.at(
                out_q,
                idx,
                (-vq_here + vb) / var + h_qa * va + h_qg * vg,
            )
            out[offset] = float(
                np.sum(h_qa * vq_here)
                + np.sum(bq * (am - 2.0 * r)) / var * va
                + np.sum((bq + r)) / var * vb
                + np.sum(-2.0 * r * bq) / var * vg
            )
            out[offset + 1] = float(
                np.sum(vq_here) / var
                + np.sum(bq + r) / var * va
                - scores.size / var * vb
                + np.sum(2.0 * r) / var * vg
            )
            out[offset + 2] = float(
                np.sum(h_qg * vq_here)
                + np.sum(-2.0 * r * bq) / var * va
                + np.sum(2.0 * r) / var * vb
                + np.sum(-2.0 * r**2) / var * vg
            )
            offset += 3

        if self.prior_enabled:
            out_q[self.free_idx] += -(v_q[self.free_idx] - v_q.sum() / self.n) / sigma**2

        out[: self.n_free] += out_q[self.free_idx]
        return out


def _check_rating_variance(collection: DatasetCollection) -> None:
    for name in sorted(collection.ratings):
        table = collection.ratings[name]
        if len(table) and float(table.scores.std()) == 0.0:
            raise DegenerateDataError(
                f"dataset {name!r} has zero rating variance; its link cannot be estimated"
            )


def _newton_polish(objective, hessp, x, tol, rounds=10):
    """Newton steps on the stationarity condition, solved matrix-free.

    Function-value-based line searches stall once improvements drop below
    float resolution of the objective, so steps are accepted on gradient
    norm decrease instead. Near the optimum a round or two reaches machine
    stationarity.
    """
    from scipy.sparse.linalg import LinearOperator, cg

    n = x.size
    steps = 0
    for _ in range(rounds):
        _, grad = objective(x)
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < tol:
            break

        def matvec(p, point=x):
            return hessp(point, p)

        operator = LinearOperator((n, n), matvec=matvec)
        direction, _ = cg(operator, -grad, rtol=1e-10, atol=0.0, maxiter=max(200, n))
        if not np.all(np.isfinite(direction)):
            direction = -grad
        damping = 1.0
        moved = False
        for _ in range(25):
            _, cand_grad = objective(x + damping * direction)
            if float(np.max(np.abs(cand_grad))) < grad_norm:
                x = x + damping * direction
                moved = True
                break
            damping *= 0.5
        steps += 1
        if not moved:
            break
    return x, steps


def _solve(problem: PosteriorProblem, tol: float, max_iter: int):
    """Quasi-Newton pass, then a matrix-free exact-Newton polish.

    L-BFGS-B stops on relative function change, which at typical likelihood
    magnitudes leaves the gradient around 1e-5; the polish uses analytic
    Hessian-vector products to reach the gradient tolerance.
    """

    def objective(x):
        value, grad = problem.value_and_grad(x)
        return -value, -grad

    def neg_hessp(x, vec):
        return -problem.hess_vec(x, vec)

    x = problem.initial_point()
    if problem.n_params == 0:
        return x, True, 0
    result = optimize.minimize(
        objective,
        x,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "maxcor": 25, "ftol": 1e-15, "gtol": tol},
    )
    iterations = int(result.nit)
    x = result.x
    grad_norm = float(np.max(np.abs(result.jac)))
    if grad_norm >= tol and iterations < max_iter:
        x, steps = _newton_polish(objective, neg_hessp, x, tol)
        iterations += steps
        grad_norm = float(np.max(np.abs(objective(x)[1])))
    return x, bool(grad_norm < tol), iterations


def scale(
    collection: DatasetCollection,
    *,
    prior_enabled: bool = True,
    tol: float = 1e-6,
    max_iter: int = 2000,
    per_component: bool = False,
    model: ObserverModel = ObserverModel(),
) -> UnifiedScale:
    """Recover JOD scores and link parameters by maximum likelihood.

    The comparison graph together with the rating linkage must form a single
    connected component containing at least one reference condition per
    dataset; pass ``per_component=True`` to scale disconnected components
    independently (their scores are then mutually incomparable).
    """
    _check_rating_variance(collection)
    for name in sorted({c.dataset for c in collection.conditions}):
        if not any(c.is_reference and c.dataset == name for c in collection.conditions):
            raise IntegrityError(f"dataset {name!r} has no reference condition to anchor it")

    components = connected_components(collection)
    if len(components) > 1 and not per_component:
        sizes = [len(c) for c in components]
        raise DisconnectedGraphError(
            f"comparison data splits into {len(components)} components "
            f"(sizes {sizes}); add cross links or pass per_component=True"
        )
    if len(components) > 1:
        warnings.warn(
            f"scaling {len(components)} disconnected components independently; "
            "scores are NOT comparable across components",
            stacklevel=2,
        )
        return _scale_per_component(
            collection, components, prior_enabled, tol, max_iter, model
        )

    problem = PosteriorProblem(collection, model, prior_enabled)
    x, converged, iterations = _solve(problem, tol, max_iter)
    q, links = problem.unpack(x)
    value, _ = problem.value_and_grad(x)
    return UnifiedScale(
        q=q,
        links=links,
        log_posterior=float(value),
        converged=converged,
        iterations=iterations,
        conditions=collection.conditions,
    )


def _subcollection(collection: DatasetCollection, members: list[int]) -> DatasetCollection:
    members = np.asarray(members, dtype=np.int64)
    remap = np.full(collection.n, -1, dtype=np.int64)
    remap[members] = np.arange(members.size)
    inside = remap >= 0
    conditions = [collection.conditions[i] for i in members]
    winners, losers, counts = collection.graph.observations()
    kept = inside[winners] & inside[losers]
    graph = ComparisonGraph(
        members.size, remap[winners[kept]], remap[losers[kept]], counts[kept]
    )
    ratings = {}
    for name, table in collection.ratings.items():
        rows = inside[table.condition_indices]
        if rows.any():
            ratings[name] = RatingTable(
                remap[table.condition_indices[rows]], table.observers[rows], table.scores[rows]
            )
    names = {c.dataset for c in conditions}
    manifest = {name: meta for name, meta in collection.manifest.items() if name in names}
    return DatasetCollection(conditions, graph, ratings, manifest)


def _scale_per_component(collection, components, prior_enabled, tol, max_iter, model):
    q = np.zeros(collection.n)
    links: dict[str, LinkParams] = {}
    total_lp = 0.0
    converged = True
    iterations = 0
    for members in components:
        sub = _subcollection(collection, members)
        result = scale(
            sub,
            prior_enabled=prior_enabled,
            tol=tol,
            max_iter=max_iter,
            per_component=False,
            model=model,
        )
        q[np.asarray(members, dtype=int)] = result.q
        links.update(result.links)
        total_lp += result.log_posterior
        converged = converged and result.converged
        iterations = max(iterations, result.iterations)
    return UnifiedScale(
        q=q,
        links=links,
        log_posterior=total_lp,
        converged=converged,
        iterations=iterations,
        conditions=collection.conditions,
    )


def _resample_collection(
    collection: DatasetCollection, rng: np.random.Generator
) -> DatasetCollection:
    i, j, c_ij, c_ji = collection.graph.pair_arrays()
    total = c_ij + c_ji
    new_c_ij = rng.binomial(total, c_ij / total)
    graph = ComparisonGraph(
        collection.n,
        np.concatenate([i, j]),
        np.concatenate([j, i]),
        np.concatenate([new_c_ij, total - new_c_ij]),
    )
    ratings = {}
    for name in sorted(collection.ratings):
        table = collection.ratings[name]
        picks = rng.integers(0, len(table), size=len(table))
        ratings[name] = RatingTable(
            table.condition_indices[picks], table.observers[picks], table.scores[picks]
        )
    return DatasetCollection(collection.conditions, graph, ratings, collection.manifest)


def bootstrap_ci(
    collection: DatasetCollection,
    n_boot: int,
    seed: int = 0,
    *,
    alpha: float = 0.05,
    **scale_options,
) -> np.ndarray:
    """Percentile bootstrap intervals for the JOD score of every condition.

    Comparisons are resampled per pair (binomial with the empirical
    probability) and rating rows are resampled with replacement; each
    replicate is rescaled with ``scale_options``. Replicates that fail to
    scale or do not converge are skipped and counted; more than 50% failures
    is an error. Deterministic for a given seed. Returns an (n, 2) array of
    (low, high) bounds.
    """
    if n_boot < 1:
        raise IntegrityError(f"n_boot must be at least 1, got {n_boot}")

    samples = []
    for index in range(n_boot):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB007, index)))
        replicate = _resample_collection(collection, rng)
        try:
            result = scale(replicate, **scale_options)
        except (DisconnectedGraphError, DegenerateDataError, ConvergenceError):
            continue
        if result.converged:
            samples.append(result.q)
    failures = n_boot - len(samples)
    if failures > n_boot / 2:
        raise DegenerateDataError(
            f"{failures} of {n_boot} bootstrap replicates failed to scale or converge"
        )
    stacked = np.vstack(samples)
    low = np.percentile(stacked, 100.0 * (alpha / 2.0), axis=0)
    high = np.percentile(stacked, 100.0 * (1.0 - alpha / 2.0), axis=0)
    return np.column_stack([low, high])
