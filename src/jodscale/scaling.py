"""Joint maximum-likelihood scaling of comparisons and ratings.

The observer model is Thurstone Case V: perceived quality of condition i is
Gaussian around its true score q_i with a shared standard deviation sigma,
so the probability of preferring i over j is Phi((q_i - q_j) / (sqrt(2)
sigma)). Observed win counts per pair are binomial in that probability.

Ratings are tied to the common scale by a per-dataset affine link: a rating
m maps to the quality domain as a*m + b, with residual spread a*c*sigma.
Equivalently, the rating itself is Gaussian with mean s*q_i + t, where
s = 1/a and t = -b/a, and standard deviation c*sigma; the log-density used
here is the normalized one (its normalizer is 1/(c*sigma*sqrt(2*pi))).

For fixed scores the best link is closed form: (s, t) is the least-squares
fit of the dataset's ratings on their conditions' scores, with s clipped at
0 so that a > 0 keeps the orientation, and (c*sigma)^2 = RSS/N. The solver
therefore maximizes over the scores alone, with each rating dataset's term
profiled to R(q) = -(N/2) log(2 pi RSS(q)/N) - N/2 (variable projection;
Golub and Pereyra 1973), and reads the links off the fit at the maximum.
A dataset whose fitted slope ends at 0 (a = infinity) says nothing about
the scores; it gets no link and the scale is not converged.

sigma is fixed at 1.048 so that a score distance of 1 corresponds to a 75%
preference rate; scores are then in just-objectionable-difference (JOD)
units. All reference conditions are pinned at q = 0.
"""

from __future__ import annotations

import copy
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csgraph, csr_matrix
from scipy.special import gammaln, log_ndtr, ndtr

from .errors import DegenerateDataError, DisconnectedGraphError, IntegrityError
from .model import ComparisonGraph, ConditionId, DatasetCollection, RatingTable

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
    """Result of a joint scaling run: ``log_posterior`` is the maximized
    function at ``q`` and ``links``; ``iterations`` counts the Newton
    iterations of the one solve, for all components together."""

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


# The largest pair total whose log-factorials are tabulated (8 MB of table).
_MAX_TABULATED = 1 << 20


def _log_factorials(pairs) -> np.ndarray | None:
    """log k! for k = 0 ... the largest pair total, or None if that is above
    ``_MAX_TABULATED``."""
    _, _, cij, cji = pairs
    largest = int(np.max(cij + cji, initial=0))
    return gammaln(np.arange(largest + 1) + 1.0) if largest <= _MAX_TABULATED else None


def _log_binomial(pairs, log_factorial: np.ndarray | None) -> float:
    """Sum of the log binomial coefficients; constant in q. Looked up in
    ``log_factorial`` (see ``_log_factorials``) when there is one, which
    gives the same bits as ``gammaln``."""
    _, _, cij, cji = pairs
    if log_factorial is None:
        return float(np.sum(gammaln(cij + cji + 1.0) - gammaln(cij + 1.0) - gammaln(cji + 1.0)))
    return float(np.sum(log_factorial[cij + cji] - log_factorial[cij] - log_factorial[cji]))


def _log_ndtr_pair(z: np.ndarray):
    """log Phi(z) and log Phi(-z) from one ``log_ndtr`` call: the smaller
    side is log Phi(-|z|), and the larger is log1p(-exp(smaller)), accurate
    to a few ulp because exp(smaller) is at most 1/2."""
    small = log_ndtr(-np.abs(z))
    large = np.log1p(-np.exp(small))
    ahead = z >= 0.0
    return np.where(ahead, large, small), np.where(ahead, small, large)


def _pair_term(pairs, q: np.ndarray):
    """Binomial comparison terms, without their binomial coefficients.

    Returns the value, the per-pair slope d/dq_i (d/dq_j is its negative)
    and the per-pair curvature weight -d^2/dq_i^2, which is non-negative
    because log Phi is concave.
    """
    i, j, cij, cji = pairs
    scale = 1.0 / (math.sqrt(2.0) * SIGMA_JOD)
    z = (q[i] - q[j]) * scale
    log_win, log_loss = _log_ndtr_pair(z)
    value = float(np.sum(cij * log_win + cji * log_loss))
    # Phi'(z)/Phi(z), evaluated stably in both tails.
    log_pdf = -0.5 * z**2 - math.log(_SQRT_2PI)
    h_win = np.exp(log_pdf - log_win)
    h_loss = np.exp(log_pdf - log_loss)
    slope = (cij * h_win - cji * h_loss) * scale
    # d^2/dz^2 of log Phi(z) is -h(z) (z + h(z))
    weight = (cij * h_win * (z + h_win) + cji * h_loss * (h_loss - z)) * scale**2
    return value, slope, weight


def _rating_fit(table: RatingTable, q: np.ndarray):
    """One rating dataset's best link at scores q: the least-squares fit of
    its ratings m on their conditions' scores u = q_i, m ~ s u + t, with the
    slope s clipped at 0. Returns s, t, the residual sum of squares, the
    per-record residuals and the centred scores u - mean(u)."""
    scores = table.scores
    u = q[table.condition_indices]
    u_mean, m_mean = float(u.mean()), float(scores.mean())
    centered = u - u_mean
    cross = float(centered @ (scores - m_mean))
    # a positive cross-product implies a positive spread of u
    slope = cross / float(centered @ centered) if cross > 0.0 else 0.0
    residual = scores - m_mean - slope * centered
    return slope, m_mean - slope * u_mean, float(residual @ residual), residual, centered


def _profiled_value(n_ratings: int, rss: float) -> float:
    """A rating dataset's Gaussian log-likelihood at its best link."""
    return -0.5 * n_ratings * (math.log(2.0 * math.pi * rss / n_ratings) + 1.0)


def _center(v: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """v minus the mean of v over each entry's component."""
    return v - (np.bincount(labels, v, sizes.size) / sizes)[labels]


def _prior_term(q: np.ndarray, labels: np.ndarray, sizes: np.ndarray):
    """Gaussian prior of each q_i around its component's mean score: value and gradient."""
    centered = _center(q, labels, sizes)
    value = float(
        -q.size * math.log(SIGMA_JOD * _SQRT_2PI) - np.sum(centered**2) / (2.0 * SIGMA_JOD**2)
    )
    return value, -centered / SIGMA_JOD**2


def _finite_q(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise IntegrityError("q contains non-finite values")
    return q


def connected_components(collection: DatasetCollection) -> np.ndarray:
    """Each condition's joint-scaling component label.

    Conditions are linked by any measured comparison; rating-bearing
    conditions of the same dataset are also linked, because their shared
    link ties them together. Labels are integers 0, 1, ..., numbered in
    order of each component's smallest member; the component sizes are
    ``np.bincount(labels)``.
    """
    chains = [np.unique(table.condition_indices) for table in collection.ratings.values()]
    rows = np.concatenate([collection.graph.i, *(chain[:-1] for chain in chains)])
    cols = np.concatenate([collection.graph.j, *(chain[1:] for chain in chains)])
    adjacency = coo_matrix((np.ones(rows.size), (rows, cols)), shape=(collection.n,) * 2)
    # csgraph labels components in order of first visit, by increasing node
    return csgraph.connected_components(adjacency, directed=False)[1]


def pwc_log_likelihood(graph: ComparisonGraph, q) -> float:
    """Binomial log-likelihood of the observed win counts given scores q.

    The binomial coefficient is included; it is constant in q, so reported
    values are comparable across parameter settings.
    """
    q = _finite_q(q)
    if q.shape != (graph.n,):
        raise IntegrityError(f"q must have one entry per condition ({graph.n})")
    pairs = graph.pair_arrays()
    return _log_binomial(pairs, _log_factorials(pairs)) + _pair_term(pairs, q)[0]


def rating_log_likelihood(ratings: RatingTable, q, link: LinkParams) -> float:
    """Gaussian log-likelihood of rating measurements under the affine link.

    Each record contributes log N(m; (q_i - b)/a, c*sigma), written in the
    quality domain as -log(c sigma sqrt(2 pi)) - ((a m + b) - q_i)^2 /
    (2 a^2 c^2 sigma^2).
    """
    q = _finite_q(q)
    if not np.all(np.isfinite(ratings.scores)):
        raise IntegrityError("ratings contain non-finite scores")
    r = link.a * ratings.scores + link.b - q[ratings.condition_indices]
    var = (link.a * link.c * SIGMA_JOD) ** 2
    return float(
        -ratings.scores.size * math.log(link.c * SIGMA_JOD * _SQRT_2PI) - 0.5 * np.sum(r * r) / var
    )


def log_posterior(
    collection: DatasetCollection,
    q,
    links: dict[str, LinkParams] | None = None,
    prior_enabled: bool = True,
) -> float:
    """Joint log-posterior: comparisons + ratings + optional score prior.

    The prior treats each q_i as Gaussian around the mean score of its
    joint-scaling component with standard deviation sigma; it bounds score
    differences when answers are unanimous. A rated dataset without an
    entry in ``links`` is evaluated at its best link for q. This is the
    function ``scale`` maximizes, so at a scale's q and links it equals its
    ``log_posterior``.
    """
    q = np.asarray(q, dtype=float)
    total = pwc_log_likelihood(collection.graph, q)
    links = links or {}
    for name, table in sorted(collection.ratings.items()):
        if name in links:
            total += rating_log_likelihood(table, q, links[name])
        elif len(table):
            total += _profiled_value(len(table), _rating_fit(table, q)[2])
    if prior_enabled:
        labels = connected_components(collection)
        total += _prior_term(q, labels, np.bincount(labels))[0]
    return total


@dataclass(frozen=True)
class Curvature:
    """Second derivatives of the log-posterior in q at one point.

    ``adjacency`` is the n x n matrix of the per-pair curvature weights of
    the comparison terms, on the problem's CSR pattern, and ``diagonal`` holds
    the diagonal part of d^2/dq_i^2: minus the weighted degree, plus each
    rating dataset's diagonal. Each rating dataset adds a term of rank
    three on top, ``weights[k] * outer(factors[:, k], factors[:, k])`` for
    its three columns k of ``factors``. The prior's part is left out.
    """

    adjacency: csr_matrix
    diagonal: np.ndarray
    factors: np.ndarray
    weights: np.ndarray


class PosteriorProblem:
    """The joint posterior as a function of the free scores alone.

    The parameter vector is q at the non-reference conditions; reference
    conditions stay pinned at q = 0, and each rating dataset's term is
    profiled over its link (see the module docstring). ``value_and_grad``
    is the likelihood kernel: it returns the log-posterior, its analytic
    gradient and the curvature that ``hess_vec`` and ``hess_diag`` reuse.
    A dataset's profiled term is once continuously differentiable: where
    its fitted slope is clipped at 0 the term is flat, and ``Curvature``
    holds its second derivatives on the side where the slope is positive.

    The constructor builds, once, every layout the solve and the bootstrap
    reuse: the pair arrays and their read-only int32 CSR pattern (row a
    lists the conditions measured against a in increasing order, and
    ``data`` holds each slot's pair index), the components, and each rated
    table with its rows sorted by (condition, observer, score) and its
    per-condition row counts and start offsets, and a table of log k! up
    to the largest pair total for the binomial coefficients. The scale
    therefore does not depend on the row order of the rating files.
    Replicates share all of these layouts.
    """

    def __init__(self, collection: DatasetCollection, prior_enabled: bool = True):
        self.prior_enabled = prior_enabled
        self.n = n = collection.n
        self.free_idx = np.setdiff1d(np.arange(n), collection.reference_indices())
        self.n_params = self.free_idx.size
        self.labels = connected_components(collection)
        self.sizes = np.bincount(self.labels)
        self._pairs = collection.graph.pair_arrays()
        self._log_factorial = _log_factorials(self._pairs)
        self._log_coef = _log_binomial(self._pairs, self._log_factorial)
        # rows (j, i) then (i, j): the CSR conversion keeps each row's entries
        # in input order, which already increases by column
        i, j = (col.astype(np.int32) for col in self._pairs[:2])
        self._pattern = coo_matrix((np.tile(np.arange(i.size, dtype=np.int32), 2),
                                    (np.concatenate([j, i]), np.concatenate([i, j]))),
                                   shape=(n, n)).tocsr()
        for array in (self._pattern.indptr, self._pattern.indices, self._pattern.data):
            array.flags.writeable = False
        self.rating_names = sorted(name for name, table in collection.ratings.items()
                                   if len(table))
        self.tables, self._counts, self._starts = [], [], []
        for name in self.rating_names:
            table = collection.ratings[name]
            order = np.lexsort((table.scores, table.observers, table.condition_indices))
            idx = table.condition_indices[order]
            self.tables.append(RatingTable(idx, table.observers[order], table.scores[order]))
            counts = np.bincount(idx, minlength=n)
            self._counts.append(counts)
            self._starts.append(np.cumsum(counts) - counts)

    def resampled(self, rng: np.random.Generator) -> "PosteriorProblem":
        """One bootstrap replicate of this problem: every pair's count drawn
        binomially with its total kept, then every rating row replaced by a
        row of the same condition drawn with replacement, one dataset after
        the other in ``rating_names`` order and one draw per row in table
        order. The picks are sorted, so each replicate table stays sorted as
        its source. The replicate shares everything else, so it keeps this
        problem's pairs, pattern, components, anchors and row groups."""
        i, j, c_ij, c_ji = self._pairs
        total = c_ij + c_ji
        new_c_ij = rng.binomial(total, c_ij / total)
        replicate = copy.copy(self)
        replicate._pairs = (i, j, new_c_ij, total - new_c_ij)
        replicate._log_coef = _log_binomial(replicate._pairs, self._log_factorial)
        replicate.tables = []
        for table, counts, starts in zip(self.tables, self._counts, self._starts):
            idx = table.condition_indices
            picks = np.sort(starts[idx] + rng.integers(0, counts[idx]))
            replicate.tables.append(RatingTable(idx, table.observers[picks], table.scores[picks]))
        return replicate

    def initial_point(self) -> np.ndarray:
        """Each rated condition at its mean rating, standardized over its
        dataset (the link a = 1/std, b = -a*mean applied to it); every other
        free score at 0. At q = 0 a profiled rating term has no gradient."""
        q = np.zeros(self.n)
        for table, counts in zip(self.tables, self._counts):
            scores, rated = table.scores, counts > 0
            means = np.bincount(table.condition_indices, scores, self.n)[rated] / counts[rated]
            q[rated] = (means - scores.mean()) / scores.std()
        return q[self.free_idx]

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, dict[str, LinkParams]]:
        """Scores q and the best link of every dataset whose fitted slope is positive."""
        q = self._full_q(x)
        links = {}
        for name, table in zip(self.rating_names, self.tables):
            s, t, rss, _, _ = _rating_fit(table, q)
            if s > 0.0:
                links[name] = LinkParams(1.0 / s, -t / s, math.sqrt(rss / len(table)) / SIGMA_JOD)
        return q, links

    def _full_q(self, x: np.ndarray) -> np.ndarray:
        q = np.zeros(self.n)
        q[self.free_idx] = x
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
        i_arr, j_arr = self._pairs[:2]
        pattern = self._pattern
        adjacency = csr_matrix((weights[pattern.data], pattern.indices, pattern.indptr), (n, n))
        diagonal = -np.add(np.bincount(i_arr, weights, n), np.bincount(j_arr, weights, n),
                           dtype=float)

        # With u_k = q at record k's condition, centred u~, residuals e and
        # w = e - s u~, the profiled term's derivatives in u are
        #   grad = N s e / RSS,
        #   hess = -(N s^2 / RSS) (I - 1 1'/N) + N w w' / (RSS Sxx) + 2 N s^2 e e' / RSS^2,
        # which summed per condition give a diagonal and three outer products.
        factors = np.zeros((n, 3 * len(self.tables)))
        coefs = np.zeros(3 * len(self.tables))
        for d, (table, counts) in enumerate(zip(self.tables, self._counts)):
            s, _, rss, residual, centered = _rating_fit(table, q)
            size, idx = len(table), table.condition_indices
            value += _profiled_value(size, rss)
            if s > 0.0:
                sums = np.bincount(idx, residual, n)
                grad_q += (size * s / rss) * sums
                diagonal -= (size * s * s / rss) * counts
                factors[:, 3 * d : 3 * d + 3] = np.column_stack(
                    [counts, np.bincount(idx, residual - s * centered, n), sums])
                coefs[3 * d : 3 * d + 3] = (s * s / rss, size / (rss * float(centered @ centered)),
                                            2.0 * size * s * s / rss**2)

        if self.prior_enabled:
            prior_value, prior_grad = _prior_term(q, self.labels, self.sizes)
            value += prior_value
            grad_q += prior_grad

        return value, grad_q[self.free_idx], Curvature(adjacency, diagonal, factors, coefs)

    def hess_vec(self, curvature: Curvature, vec: np.ndarray) -> np.ndarray:
        """Product of the log-posterior Hessian with a vector.

        Uses the curvature cached by ``value_and_grad``: one sparse product
        with the weighted adjacency and three dot products per rating
        dataset, no special functions.
        """
        v_q = self._full_q(vec)
        out_q = curvature.adjacency @ v_q
        out_q += curvature.diagonal * v_q
        out_q += curvature.factors @ (curvature.weights * (v_q @ curvature.factors))
        if self.prior_enabled:
            out_q -= _center(v_q, self.labels, self.sizes) / SIGMA_JOD**2
        return out_q[self.free_idx]

    def hess_diag(self, curvature: Curvature) -> np.ndarray:
        """Diagonal of the log-posterior Hessian, for Jacobi preconditioning."""
        diag_q = curvature.diagonal + curvature.factors**2 @ curvature.weights
        if self.prior_enabled:
            diag_q = diag_q - (1.0 - 1.0 / self.sizes[self.labels]) / SIGMA_JOD**2
        return diag_q[self.free_idx]


def _check_rating_spread(problem: PosteriorProblem) -> None:
    """A dataset whose ratings never differ within a condition has an
    unbounded likelihood: with q affine in the condition means, RSS and so
    c go to 0. A condition's ratings differ when one differs from its first."""
    for name, table, starts in zip(problem.rating_names, problem.tables, problem._starts):
        scores = table.scores
        if not np.any(scores != scores[starts[table.condition_indices]]):
            raise DegenerateDataError(
                f"dataset {name!r} has no rating spread within any condition; "
                "its likelihood is unbounded"
            )


# Armijo sufficient-increase constant and the backtracking limit.
_ARMIJO = 1e-4
_MAX_HALVINGS = 30
# Relative change of the log-posterior below which it counts as unchanged in
# floating point; a step is then judged by max|grad| instead.
_FLAT = 64 * np.finfo(float).eps
# The CG forcing term: the Newton system is solved to this relative residual.
_FORCING = 1e-3


def _newton_direction(problem: PosteriorProblem, curvature: Curvature, grad: np.ndarray):
    """Truncated Jacobi-preconditioned CG on the Newton system -H p = grad.

    CG stops once the residual is below eta |grad|, with a fixed forcing
    term eta = 1e-3 (Eisenstat and Walker 1996), so each step is close to
    the full Newton step from the first iteration on, a warm start
    included. A Hessian-vector product reuses the kernel's curvature and
    costs a small fraction of a kernel call, so solving the system closely is
    cheaper than the extra iterations a loose one costs. On negative
    curvature the iterate so far is returned (Steihaug), or the
    preconditioned gradient on the first iteration.
    """
    diag = -problem.hess_diag(curvature)
    precond = np.ones_like(diag)
    np.divide(1.0, diag, out=precond, where=diag > 0)
    stop = _FORCING * float(np.linalg.norm(grad))
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
    last kernel evaluation, to the relative residual of
    ``_newton_direction``, then backtracks from the full step until the
    Armijo condition holds. Where the log-posterior no longer changes in
    floating point, a step that lowers max|grad| is accepted instead, so the
    absolute gradient tolerance stays reachable at large |f|. Converged means
    max|grad| < tol at the start point or at two consecutive iterates, so
    that the second, one Newton step on from the first, lies well inside the
    tolerance; a line search that fails from a point inside it still counts
    as converged. Returns (x, value, converged, iterations).
    """
    value, grad, curvature = problem.value_and_grad(x)
    iterations = 0
    inside = False
    while True:
        grad_norm = float(np.max(np.abs(grad), initial=0.0))
        if grad_norm < tol and (inside or iterations == 0):
            return x, value, True, iterations
        inside = grad_norm < tol
        if iterations >= max_iter:
            return x, value, False, iterations
        iterations += 1
        step = _newton_direction(problem, curvature, grad)
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
            return x, value, inside, iterations
        x = x + t * step
        value, grad, curvature = trial


def _checked_problem(collection: DatasetCollection, prior_enabled: bool, per_component: bool,
                     start: UnifiedScale | None) -> PosteriorProblem:
    """The posterior of ``collection``, once its start scale, rating
    spread, components and anchors pass: every dataset needs a reference
    condition in each component it is in."""
    if start is not None and start.conditions != collection.conditions:
        raise IntegrityError("the start scale is of other conditions than the collection")
    problem = PosteriorProblem(collection, prior_enabled)
    _check_rating_spread(problem)
    if (sizes := problem.sizes).size > 1:
        if not per_component:
            raise DisconnectedGraphError(
                f"comparison data splits into {sizes.size} components "
                f"(sizes {sizes.tolist()}); add cross links or pass per_component=True"
            )
        warnings.warn(
            f"scaling {sizes.size} disconnected components independently; "
            "scores are NOT comparable across components",
            stacklevel=3,
        )
    conditions = collection.conditions
    parts = list(zip([c.dataset for c in conditions], problem.labels.tolist()))
    anchors = {part for part, c in zip(parts, conditions) if c.is_reference}
    if unanchored := sorted(set(parts) - anchors):
        name = unanchored[0][0]
        raise IntegrityError(f"dataset {name!r} has no reference condition to anchor it")
    return problem


def _fit(problem: PosteriorProblem, conditions: tuple[ConditionId, ...],
         start: UnifiedScale | None, tol: float, max_iter: int) -> UnifiedScale:
    """Solve ``problem`` from the scores of ``start``, or from its initial
    point without one. Converged also needs a link for every rated dataset."""
    x0 = problem.initial_point() if start is None else start.q[problem.free_idx]
    x, value, converged, iterations = _solve(problem, x0, tol, max_iter)
    q, links = problem.unpack(x)
    converged = converged and len(links) == len(problem.rating_names)
    return UnifiedScale(q, links, float(value), converged, iterations, conditions)


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
    independently (their scores are then mutually incomparable). There is
    one solve either way: the score prior is centred on each component's
    own mean, so the per-component solves run in lock-step, under one line
    search and one iteration count. ``start``, a scale of the same
    conditions (for instance the full-data scale when solving a bootstrap
    replicate), supplies the scores the solver starts from; its links are
    not used, since the solver fits them in closed form. A rated dataset
    whose fitted slope ends at 0 has no entry in ``links``, and the scale
    is then not converged.
    """
    problem = _checked_problem(collection, prior_enabled, per_component, start)
    return _fit(problem, collection.conditions, start, tol, max_iter)


# The bootstrap that ``_replicate`` draws from in this process: the full
# data's problem, its conditions, the seed, the start scale, tol and max_iter.
_job = None


def _set_job(job) -> None:
    global _job
    _job = job


def _replicate(index: int) -> np.ndarray | None:
    """The scores of replicate ``index`` of the current job, or None if it
    failed: its ratings of some dataset never differ within a condition, or
    its solve does not converge."""
    problem, conditions, seed, start, tol, max_iter = _job
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB007, index)))
    replicate = problem.resampled(rng)
    try:
        _check_rating_spread(replicate)
    except DegenerateDataError:
        return None
    result = _fit(replicate, conditions, start, tol, max_iter)
    return result.q if result.converged else None


def _workers(n_boot: int) -> int:
    """How many processes run ``n_boot`` replicates: one per CPU this
    process may run on, at most one per replicate. 1, the replicates run in
    this process, with one CPU, without a ``fork`` start method, or in a
    daemonic process, which may not have children."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(n_boot, cpus or 1)
    if workers == 1:
        return 1
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return workers


def bootstrap_ci(
    collection: DatasetCollection,
    n_boot: int,
    seed: int = 0,
    *,
    alpha: float = 0.05,
    prior_enabled: bool = True,
    tol: float = 1e-6,
    max_iter: int = 2000,
    per_component: bool = False,
    start: UnifiedScale | None = None,
) -> np.ndarray:
    """Percentile bootstrap intervals for the JOD score of every condition.

    The collection is checked as ``scale`` checks it. A replicate draws
    every pair's count binomially, keeping its total, and replaces every
    rating row by a row of the same condition drawn with replacement, so it
    keeps the collection's pairs, components and anchors; it is solved on
    the full data's problem from ``start`` (say, the full-data scale) or
    from the default guess. A replicate whose ratings in some dataset never
    differ within a condition, or whose solve does not converge, counts as
    failed; more than 50% failures is an error. The replicates run on a
    pool of forked worker processes, one per available CPU (see
    ``_workers``), each on a contiguous run of replicate indices; every
    worker has exited when this returns or raises, and an exception raised
    in a replicate reaches the caller with its own type. Each replicate
    draws from its own seed, so the intervals are deterministic for a given
    seed whatever the number of workers. Returns an (n, 2) array of (low,
    high) bounds at the 100*alpha/2 and 100*(1 - alpha/2) percentiles, where
    0 < alpha < 1.
    """
    if n_boot < 1:
        raise IntegrityError(f"n_boot must be at least 1, got {n_boot}")
    if not 0.0 < alpha < 1.0:
        raise IntegrityError(f"alpha must lie in (0, 1), got {alpha}")
    problem = _checked_problem(collection, prior_enabled, per_component, start)

    job = (problem, collection.conditions, seed, start, tol, max_iter)
    workers = _workers(n_boot)
    if workers == 1:
        _set_job(job)
        try:
            results = list(map(_replicate, range(n_boot)))
        finally:
            _set_job(None)
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork hands the job to the workers without pickling it
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 initializer=_set_job, initargs=(job,)) as pool:
            results = list(pool.map(_replicate, range(n_boot), chunksize=-(-n_boot // workers)))
    samples = [q for q in results if q is not None]
    failures = n_boot - len(samples)
    if failures > n_boot / 2:
        raise DegenerateDataError(
            f"{failures} of {n_boot} bootstrap replicates failed to scale or converge"
        )
    stacked = np.vstack(samples)
    low = np.percentile(stacked, 100.0 * (alpha / 2.0), axis=0)
    high = np.percentile(stacked, 100.0 * (1.0 - alpha / 2.0), axis=0)
    return np.column_stack([low, high])
