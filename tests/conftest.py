import json
from pathlib import Path
from unittest import mock

import pytest

from jodscale import scaling
from jodscale.model import (
    ComparisonGraph,
    ConditionId,
    DatasetCollection,
    RatingTable,
)
from jodscale.scaling import PosteriorProblem


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


def problem_of(graph):
    """The posterior problem over ``graph``: its conditions, all unrated and
    none a reference, make up one dataset."""
    conditions = [ConditionId("d", f"c{k}", "d", 1) for k in range(graph.n)]
    return PosteriorProblem(DatasetCollection(conditions, graph))


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
