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
from scipy.special import gammaln, log_ndtr, ndtr

from .errors import DegenerateDataError, DisconnectedGraphError, IntegrityError
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
    conditions: tuple[ConditionId, ...]


def preference_probability(q_i, q_j):
    """Probability that a condition scored q_i is preferred over one scored q_j."""
    z = (np.asarray(q_i, dtype=float) - np.asarray(q_j, dtype=float)) / (
        math.sqrt(2.0) * SIGMA_JOD
    )
    return ndtr(z)


def _log_binomial(pairs) -> float:
    """Sum of the log binomial coefficients; constant in q."""
    _, _, cij, cji = pairs
    return float(np.sum(gammaln(cij + cji + 1.0) - gammaln(cij + 1.0) - gammaln(cji + 1.0)))


def _pair_term(pairs, q: np.ndarray):
    """Binomial comparison terms, without their binomial coefficients.

    Returns the value, the per-pair slope d/dq_i (d/dq_j is its negative)
    and the per-pair curvature weight -d^2/dq_i^2, which is non-negative
    because log Phi is concave.
    """
    i, j, cij, cji = pairs
    scale = 1.0 / (math.sqrt(2.0) * SIGMA_JOD)
    z = (q[i] - q[j]) * scale
    log_win, log_loss = log_ndtr(z), log_ndtr(-z)
    value = float(np.sum(cij * log_win + cji * log_loss))
    # Phi'(z)/Phi(z), evaluated stably in both tails.
    log_pdf = -0.5 * z**2 - math.log(_SQRT_2PI)
    h_win = np.exp(log_pdf - log_win)
    h_loss = np.exp(log_pdf - log_loss)
    slope = (cij * h_win - cji * h_loss) * scale
    # d^2/dz^2 of log Phi(z) is -h(z) (z + h(z))
    weight = (cij * h_win * (z + h_win) + cji * h_loss * (h_loss - z)) * scale**2
    return value, slope, weight


def _rating_term(table: RatingTable, q: np.ndarray, log_a, b, log_c):
    """One rating dataset's Gaussian term in (q, log a, b, log c).

    Each record contributes log N(m; (q_i - b)/a, c*sigma), written in the
    quality domain with residual r = a m + b - q_i and variance (a c sigma)^2.
    Returns the value, the per-record gradient with respect to its q_i, the
    gradient and 3x3 Hessian in (log a, b, log c), and the per-record
    Hessian entries between q_i and (log a, b, log c).
    """
    scores = table.scores
    am = np.exp(log_a) * scores
    r = am + b - q[table.condition_indices]
    var = np.exp(2.0 * (log_a + log_c)) * SIGMA_JOD**2
    r_over_v = r / var
    shift = r - am  # b - q_i
    value = float(
        -scores.size * (log_c + math.log(SIGMA_JOD * _SQRT_2PI)) - 0.5 * np.sum(r * r_over_v)
    )
    g_a, g_b, g_c = np.sum(r_over_v * shift), -np.sum(r_over_v), np.sum(r * r_over_v) - scores.size
    h_ab = np.sum(shift + r) / var
    # log c enters only through var, so its derivatives are -2 times the gradient's
    hess = np.array([
        [np.sum(shift * (am - 2.0 * r)) / var, h_ab, -2.0 * g_a],
        [h_ab, -scores.size / var, -2.0 * g_b],
        [-2.0 * g_a, -2.0 * g_b, -2.0 * (g_c + scores.size)],
    ])
    coupling = np.column_stack([
        (am - 2.0 * r) / var, np.full(scores.size, 1.0 / var), -2.0 * r_over_v
    ])
    return value, r_over_v, np.array([g_a, g_b, g_c]), hess, coupling


def _prior_term(q: np.ndarray):
    """Gaussian prior of each q_i around the mean score: value and gradient."""
    centered = q - q.mean()
    value = float(
        -q.size * math.log(SIGMA_JOD * _SQRT_2PI) - np.sum(centered**2) / (2.0 * SIGMA_JOD**2)
    )
    return value, -centered / SIGMA_JOD**2


def _finite_q(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise IntegrityError("q contains non-finite values")
    return q


def pwc_log_likelihood(graph: ComparisonGraph, q) -> float:
    """Binomial log-likelihood of the observed win counts given scores q.

    The binomial coefficient is included; it is constant in q, so reported
    values are comparable across parameter settings.
    """
    q = _finite_q(q)
    if q.shape != (graph.n,):
        raise IntegrityError(f"q must have one entry per condition ({graph.n})")
    pairs = graph.pair_arrays()
    return _log_binomial(pairs) + _pair_term(pairs, q)[0]


def rating_log_likelihood(ratings: RatingTable, q, link: LinkParams) -> float:
    """Gaussian log-likelihood of rating measurements under the affine link.

    Each record contributes log N(m; (q_i - b)/a, c*sigma), written in the
    quality domain as -log(c sigma sqrt(2 pi)) - ((a m + b) - q_i)^2 /
    (2 a^2 c^2 sigma^2).
    """
    q = _finite_q(q)
    if not np.all(np.isfinite(ratings.scores)):
        raise IntegrityError("ratings contain non-finite scores")
    return _rating_term(ratings, q, math.log(link.a), link.b, math.log(link.c))[0]


def log_posterior(
    collection: DatasetCollection,
    q,
    links: dict[str, LinkParams] | None = None,
    prior_enabled: bool = True,
) -> float:
    """Joint log-posterior: comparisons + ratings + optional score prior.

    The prior treats each q_i as Gaussian around the mean of all scores with
    standard deviation sigma; it bounds score differences when answers are
    unanimous.
    """
    q = np.asarray(q, dtype=float)
    total = pwc_log_likelihood(collection.graph, q)
    links = links or {}
    for name in sorted(collection.ratings):
        if name not in links:
            raise IntegrityError(f"missing link parameters for dataset {name!r}")
        total += rating_log_likelihood(collection.ratings[name], q, links[name])
    if prior_enabled:
        total += _prior_term(q)[0]
    return total


@dataclass(frozen=True)
class Curvature:
    """Second derivatives of the log-posterior at one point.

    ``weights`` holds the per-pair curvature of the comparison terms,
    ``rating_diag`` the per-condition d^2/dq_i^2 of the rating terms,
    ``coupling`` (n x 3 per rating dataset) the d^2/dq_i d(link) entries and
    ``link_hessian`` the block-diagonal Hessian of the link parameters.
    """

    weights: np.ndarray
    rating_diag: np.ndarray
    coupling: np.ndarray
    link_hessian: np.ndarray


class PosteriorProblem:
    """Packed free-parameter view of the joint posterior.

    The parameter vector is [q at non-reference conditions, then per rating
    dataset (log a, b, log c) in sorted dataset order]. Reference conditions
    stay pinned at q = 0. ``value_and_grad`` is the likelihood kernel: it
    returns the log-posterior, its analytic gradient with respect to that
    vector and the curvature that ``hess_vec`` and ``hess_diag`` reuse.
    """

    def __init__(self, collection: DatasetCollection, prior_enabled: bool = True):
        self.collection = collection
        self.prior_enabled = prior_enabled
        self.n = collection.n
        self.free_idx = np.setdiff1d(np.arange(self.n), collection.reference_indices())
        self.rating_names = sorted(collection.ratings)
        self.n_free = self.free_idx.size
        self.n_params = self.n_free + 3 * len(self.rating_names)
        self._pairs = collection.graph.pair_arrays()
        self._log_coef = _log_binomial(self._pairs)

    def initial_point(self) -> np.ndarray:
        """q = 0 everywhere; per-dataset a = 1/std(scores), b = -a*mean, c = 1."""
        x = np.zeros(self.n_params)
        for d, name in enumerate(self.rating_names):
            scores = self.collection.ratings[name].scores
            spread = float(scores.std()) if scores.size else 0.0
            a0 = 1.0 / spread if spread > 0 else 1.0
            b0 = -a0 * float(scores.mean()) if scores.size else 0.0
            at = self.n_free + 3 * d
            x[at : at + 2] = math.log(a0), b0
        return x

    def pack(self, q, links: dict[str, LinkParams]) -> np.ndarray:
        """The parameter vector of scores q and ``links``; reference entries
        of q are ignored, and a dataset without a link keeps its
        ``initial_point`` guess."""
        x = self.initial_point()
        x[: self.n_free] = _finite_q(q)[self.free_idx]
        for d, name in enumerate(self.rating_names):
            if name in links:
                link = links[name]
                at = self.n_free + 3 * d
                x[at : at + 3] = math.log(link.a), link.b, math.log(link.c)
        return x

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, dict[str, LinkParams]]:
        q = self._full_q(x)
        links = {}
        offset = self.n_free
        for name in self.rating_names:
            alpha, b, gamma = x[offset : offset + 3]
            links[name] = LinkParams(a=math.exp(alpha), b=float(b), c=math.exp(gamma))
            offset += 3
        return q, links

    def _full_q(self, x: np.ndarray) -> np.ndarray:
        q = np.zeros(self.n)
        q[self.free_idx] = x[: self.n_free]
        return q

    def _net(self, flow: np.ndarray) -> np.ndarray:
        """Per condition, the sum of per-pair ``flow`` where it is i minus where it is j."""
        i_arr, j_arr = self._pairs[:2]
        return np.subtract(
            np.bincount(i_arr, flow, self.n), np.bincount(j_arr, flow, self.n), dtype=float
        )

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray, Curvature]:
        n = self.n
        q = self._full_q(x)
        value, slope, weights = _pair_term(self._pairs, q)
        value += self._log_coef
        grad_q = self._net(slope)

        grad = np.empty(self.n_params)
        n_links = 3 * len(self.rating_names)
        rating_diag = np.zeros(n)
        coupling = np.zeros((n, n_links))
        link_hessian = np.zeros((n_links, n_links))
        for d, name in enumerate(self.rating_names):
            table = self.collection.ratings[name]
            k, at = 3 * d, self.n_free + 3 * d
            term_value, r_over_v, term_grad, term_hess, record_coupling = _rating_term(
                table, q, *x[at : at + 3]
            )
            value += term_value
            grad[at : at + 3] = term_grad
            link_hessian[k : k + 3, k : k + 3] = term_hess
            idx = table.condition_indices
            grad_q += np.bincount(idx, r_over_v, n)
            for col in range(3):
                coupling[:, k + col] = np.bincount(idx, record_coupling[:, col], n)
            rating_diag -= coupling[:, k + 1]  # d^2/dq_i^2 = -d^2/dq_i db

        if self.prior_enabled:
            prior_value, prior_grad = _prior_term(q)
            value += prior_value
            grad_q += prior_grad

        grad[: self.n_free] = grad_q[self.free_idx]
        return value, grad, Curvature(weights, rating_diag, coupling, link_hessian)

    def hess_vec(self, curvature: Curvature, vec: np.ndarray) -> np.ndarray:
        """Product of the log-posterior Hessian with a vector.

        Uses the curvature cached by ``value_and_grad``: one gather and two
        bincounts over the pairs, no special functions.
        """
        v_q = self._full_q(vec)
        v_links = vec[self.n_free :]
        i_arr, j_arr = self._pairs[:2]
        out_q = self._net(curvature.weights * (v_q[j_arr] - v_q[i_arr]))
        out_q += curvature.rating_diag * v_q + curvature.coupling @ v_links
        if self.prior_enabled:
            out_q -= (v_q - v_q.mean()) / SIGMA_JOD**2
        return np.concatenate([
            out_q[self.free_idx],
            curvature.coupling.T @ v_q + curvature.link_hessian @ v_links,
        ])

    def hess_diag(self, curvature: Curvature) -> np.ndarray:
        """Diagonal of the log-posterior Hessian, for Jacobi preconditioning."""
        i_arr, j_arr = self._pairs[:2]
        weights = curvature.weights
        degree = np.bincount(i_arr, weights, self.n) + np.bincount(j_arr, weights, self.n)
        diag_q = curvature.rating_diag - degree
        if self.prior_enabled:
            diag_q -= (1.0 - 1.0 / self.n) / SIGMA_JOD**2
        return np.concatenate([diag_q[self.free_idx], np.diag(curvature.link_hessian)])


def _check_rating_variance(collection: DatasetCollection) -> None:
    for name in sorted(collection.ratings):
        table = collection.ratings[name]
        if len(table) and float(table.scores.std()) == 0.0:
            raise DegenerateDataError(
                f"dataset {name!r} has zero rating variance; its link cannot be estimated"
            )


# Armijo sufficient-increase constant and the backtracking limit.
_ARMIJO = 1e-4
_MAX_HALVINGS = 30
# Relative change of the log-posterior below which it counts as unchanged in
# floating point; a step is then judged by max|grad| instead.
_FLAT = 64 * np.finfo(float).eps


def _newton_direction(
    problem: PosteriorProblem, curvature: Curvature, grad: np.ndarray, first_norm: float
):
    """Truncated Jacobi-preconditioned CG on the Newton system -H p = grad.

    CG stops once the residual is below eta |grad|, with the forcing term
    eta = min(0.5, sqrt(|grad| / first_norm)) relative to the gradient norm
    at the start of the solve, so the steps turn superlinear whatever the
    scale of the log-posterior (Eisenstat and Walker 1996). On negative
    curvature the iterate so far is returned (Steihaug), or the
    preconditioned gradient on the first iteration.
    """
    diag = -problem.hess_diag(curvature)
    precond = np.ones_like(diag)
    np.divide(1.0, diag, out=precond, where=diag > 0)
    grad_norm = float(np.linalg.norm(grad))
    stop = min(0.5, math.sqrt(grad_norm / first_norm)) * grad_norm
    step = np.zeros_like(grad)
    residual = grad.copy()
    z = precond * residual
    direction = z.copy()
    rz = float(residual @ z)
    for k in range(grad.size):
        h_dir = -problem.hess_vec(curvature, direction)
        curv = float(direction @ h_dir)
        if not curv > 0.0:
            return direction if k == 0 else step
        alpha = rz / curv
        step += alpha * direction
        residual -= alpha * h_dir
        if float(np.linalg.norm(residual)) <= stop:
            break
        z = precond * residual
        rz, rz_old = float(residual @ z), rz
        direction = z + (rz / rz_old) * direction
    return step


def _solve(problem: PosteriorProblem, x: np.ndarray, tol: float, max_iter: int):
    """Line-search Newton-CG maximization of the log-posterior from x.

    Each iteration solves the Newton system on the curvature cached by the
    last kernel evaluation, then backtracks from the full step until the
    Armijo condition holds. Where the log-posterior no longer changes in
    floating point, a step that lowers max|grad| is accepted instead, so the
    absolute gradient tolerance stays reachable at large |f|. Converged means
    max|grad| < tol; returns (x, value, converged, iterations).
    """
    value, grad, curvature = problem.value_and_grad(x)
    # a zero first gradient never changes (the solve stays put), so any
    # positive norm serves
    first_norm = float(np.linalg.norm(grad)) or 1.0
    iterations = 0
    while True:
        grad_norm = float(np.max(np.abs(grad), initial=0.0))
        if grad_norm < tol or iterations >= max_iter:
            return x, value, grad_norm < tol, iterations
        iterations += 1
        step = _newton_direction(problem, curvature, grad, first_norm)
        gain = float(grad @ step)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                trial = problem.value_and_grad(x + t * step)
            change = trial[0] - value
            if change >= _ARMIJO * t * gain or (
                abs(change) <= _FLAT * abs(value)
                and float(np.max(np.abs(trial[1]))) < grad_norm
            ):
                break
            t *= 0.5
        else:
            return x, value, False, iterations
        x = x + t * step
        value, grad, curvature = trial


def scale(
    collection: DatasetCollection,
    *,
    prior_enabled: bool = True,
    tol: float = 1e-6,
    max_iter: int = 2000,
    per_component: bool = False,
    start: UnifiedScale | None = None,
) -> UnifiedScale:
    """Recover JOD scores and link parameters by maximum likelihood.

    The comparison graph together with the rating linkage must form a single
    connected component containing at least one reference condition per
    dataset; pass ``per_component=True`` to scale disconnected components
    independently (their scores are then mutually incomparable). ``start``,
    a scale of the same conditions (for instance the full-data scale when
    solving a bootstrap replicate), is the point the solver starts from;
    links it lacks start from the default guess.
    """
    if start is not None and start.conditions != collection.conditions:
        raise IntegrityError("the start scale is of other conditions than the collection")
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
        return _scale_per_component(collection, components, prior_enabled, tol, max_iter, start)

    problem = PosteriorProblem(collection, prior_enabled)
    x0 = problem.initial_point() if start is None else problem.pack(start.q, start.links)
    x, value, converged, iterations = _solve(problem, x0, tol, max_iter)
    q, links = problem.unpack(x)
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


def _scale_per_component(collection, components, prior_enabled, tol, max_iter, start):
    q = np.zeros(collection.n)
    links: dict[str, LinkParams] = {}
    total_lp = 0.0
    converged = True
    iterations = 0
    for members in components:
        sub = _subcollection(collection, members)
        members = np.asarray(members, dtype=int)
        part = None if start is None else replace(
            start,
            q=start.q[members],
            links={name: link for name, link in start.links.items() if name in sub.ratings},
            conditions=sub.conditions,
        )
        result = scale(
            sub, prior_enabled=prior_enabled, tol=tol, max_iter=max_iter, start=part
        )
        q[members] = result.q
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
    replicate is rescaled with ``scale_options`` (pass ``start``, the
    full-data scale, to warm-start every replicate from it). Replicates that
    fail to scale or do not converge are skipped and counted; more than 50%
    failures is an error. Deterministic for a given seed. Returns an (n, 2) array of
    (low, high) bounds at the 100*alpha/2 and 100*(1 - alpha/2) percentiles,
    where 0 < alpha < 1.
    """
    if n_boot < 1:
        raise IntegrityError(f"n_boot must be at least 1, got {n_boot}")
    if not 0.0 < alpha < 1.0:
        raise IntegrityError(f"alpha must lie in (0, 1), got {alpha}")

    samples = []
    for index in range(n_boot):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB007, index)))
        replicate = _resample_collection(collection, rng)
        try:
            result = scale(replicate, **scale_options)
        except (DisconnectedGraphError, DegenerateDataError):
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
