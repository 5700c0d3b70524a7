import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as graph_components
from scipy.special import gammaln, log_ndtr
from scipy.stats import norm

from jodscale import scaling
from jodscale.model import (
    ComparisonGraph,
    ConditionId,
    DatasetCollection,
    RatingTable,
)
from jodscale.scaling import SIGMA_JOD, PosteriorProblem


def graph_of(n, counts=None):
    """A ComparisonGraph from a {(winner, loser): count} mapping."""
    items = list((counts or {}).items())
    return ComparisonGraph(
        n, [w for (w, _), _ in items], [l for (_, l), _ in items], [c for _, c in items]
    )


def ratings_of(rows):
    """A RatingTable from (condition, observer, score) rows."""
    rows = list(rows)
    return RatingTable([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])


def problem_of(graph, prior_enabled=True):
    """The posterior problem over ``graph``: its conditions, all unrated and
    none a reference, make up one dataset."""
    conditions = [ConditionId("d", f"c{k}", "d", 1) for k in range(graph.n)]
    return PosteriorProblem(DatasetCollection(conditions, graph), prior_enabled)


def oracle_log_posterior(collection, q, links=None, prior=True):
    """The joint log-posterior at scores ``q``, written from the model alone
    and sharing no code with ``jodscale.scaling``: every pair's binomial
    log-likelihood under Thurstone Case V, every rated dataset's Gaussian
    log-density of its ratings m ~ N((q_i - b) / a, c sigma) at its link in
    ``links``, or else at its least-squares best fit m ~ s q_i + t with the
    slope s clipped at 0, and, with ``prior``, a Gaussian of sd sigma on
    every score around the mean of its component, where comparisons and the
    rated conditions of one dataset link conditions. A value only."""
    q = np.asarray(q, dtype=float)
    i, j, c_ij, c_ji = collection.graph.pair_arrays()
    z = (q[i] - q[j]) / (np.sqrt(2.0) * SIGMA_JOD)
    total = float(np.sum(gammaln(c_ij + c_ji + 1.0) - gammaln(c_ij + 1.0) - gammaln(c_ji + 1.0)
                         + c_ij * log_ndtr(z) + c_ji * log_ndtr(-z)))
    ends = [(i, j)]
    for name, table in sorted(collection.ratings.items()):
        u, m = q[table.condition_indices], table.scores
        if links and name in links:
            a, b, c = links[name].a, links[name].b, links[name].c
            total += float(np.sum(norm.logpdf(m, (u - b) / a, c * SIGMA_JOD)))
        else:
            s, t = np.polyfit(u, m, 1)
            s, t = (s, t) if s > 0.0 else (0.0, m.mean())
            fit = s * u + t
            total += float(np.sum(norm.logpdf(m, fit, np.sqrt(np.mean((m - fit) ** 2)))))
        ends.append((np.full(u.size, table.condition_indices[0]), table.condition_indices))
    if prior:
        heads, tails = (np.concatenate(side) for side in zip(*ends))
        edges = coo_matrix((np.ones(heads.size), (heads, tails)), shape=(q.size, q.size))
        labels = graph_components(edges, directed=False)[1]
        means = np.bincount(labels, q) / np.bincount(labels)
        total += float(np.sum(norm.logpdf(q, means[labels], SIGMA_JOD)))
    return total


def cold_replicates():
    """A patch of ``scaling._solve`` that drops its start, so that every
    bootstrap replicate is solved from its default point: the reference a
    warm start is compared with."""
    solve = scaling._solve
    return mock.patch.object(scaling, "_solve", lambda problem, start, *rest:
                             solve(problem, None, *rest))


@pytest.fixture
def two_condition_collection():
    """Reference beats test in 75 of 100 trials; the analytic optimum is
    q_test = sqrt(2) * 1.048 * Phi^-1(0.25) ~ -1.0."""
    ref = ConditionId.reference("demo")
    test = ConditionId("demo", "c0", "dist", 1)
    graph = graph_of(2, {(1, 0): 25, (0, 1): 75})
    return DatasetCollection([ref, test], graph)


def write_two_condition_fixture(root: Path) -> Path:
    """The same fixture as files, for loader and CLI tests."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "conditions.csv").write_text(
        "condition\ndemo/ref/reference/0\ndemo/c0/dist/1\n"
    )
    (root / "comparisons.csv").write_text(
        "cond_a,cond_b,count_a_over_b\n"
        "demo/c0/dist/1,demo/ref/reference/0,25\n"
        "demo/ref/reference/0,demo/c0/dist/1,75\n"
    )
    manifest = {
        "datasets": [
            {
                "name": "demo",
                "experiment": "pwc",
                "display": {"L_peak": 100.0, "L_black": 0.5, "gamma": 2.2},
                "conditions": "conditions.csv",
            }
        ],
        "comparisons": "comparisons.csv",
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path


@pytest.fixture
def two_condition_manifest(tmp_path):
    return write_two_condition_fixture(tmp_path / "fixture")
