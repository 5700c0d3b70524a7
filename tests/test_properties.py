"""Property tests on random small collections.

The comparison graph stores each measured pair once, in canonical order, so
the row layout of ``comparisons.csv`` must not reach the scale; the
joint-scaling components must match a plain breadth-first search; and the
likelihood kernel's gradient, cached curvature and Jacobi diagonal must
match central differences.
"""

import json
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest
from scipy.special import ndtr

from jodscale.cli import main
from jodscale.model import (
    ComparisonGraph,
    ConditionId,
    DatasetCollection,
    DatasetMeta,
    RatingTable,
    connected_components,
)
from jodscale.scaling import SIGMA_JOD, PosteriorProblem

_HEADER = "cond_a,cond_b,count_a_over_b"


def _write_study(root, seed):
    """A pairwise and a rating dataset, each compared along a chain and tied
    by one cross pair, with answers drawn from the observer model; returns
    the directed comparison rows and writes the other files."""
    rng = np.random.default_rng(seed)
    root.mkdir()
    pwc = ["p/ref/reference/0"] + [f"p/c{k}/dist/1" for k in range(int(rng.integers(2, 6)))]
    rated = ["r/ref/reference/0"] + [f"r/c{k}/dist/1" for k in range(int(rng.integers(1, 4)))]
    quality = {key: 0.0 if "reference" in key else -rng.uniform(0.0, 3.0) for key in pwc + rated}
    (root / "p.csv").write_text("condition\n" + "\n".join(pwc) + "\n")
    (root / "r.csv").write_text("condition\n" + "\n".join(rated) + "\n")
    (root / "ratings.csv").write_text("condition,observer,score\n" + "".join(
        f"{key},o{k},{quality[key] + rng.normal(0.0, 0.5):.3f}\n"
        for key in rated for k in range(4)
    ))
    pairs = {(keys[k], keys[k + 1]) for keys in (pwc, rated) for k in range(len(keys) - 1)}
    pairs.add((pwc[int(rng.integers(len(pwc)))], rated[int(rng.integers(len(rated)))]))
    for _ in range(int(rng.integers(0, 4))):
        a, b = rng.choice(len(pwc), size=2, replace=False)
        pairs.add((pwc[min(a, b)], pwc[max(a, b)]))
    rows = []
    for a, b in sorted(pairs):
        wins = int(rng.binomial(10, ndtr((quality[a] - quality[b]) / (np.sqrt(2.0) * SIGMA_JOD))))
        rows += [(a, b, wins), (b, a, 10 - wins)]
    manifest = {
        "datasets": [
            {"name": "p", "experiment": "pwc", "conditions": "p.csv"},
            {"name": "r", "experiment": "rating", "conditions": "r.csv",
             "ratings": "ratings.csv"},
        ],
        "comparisons": "comparisons.csv",
    }
    (root / "manifest.json").write_text(json.dumps(manifest))
    return rows


def _scale_csv(root, rows, name):
    (root / "comparisons.csv").write_text(
        "\n".join([_HEADER] + [f"{a},{b},{count}" for a, b, count in rows]) + "\n"
    )
    assert main(["scale", "--manifest", str(root / "manifest.json"),
                 "--out", str(root / name)]) == 0
    return (root / name / "scale.csv").read_bytes()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_comparison_row_layout_leaves_scale_unchanged(tmp_path_factory, seed):
    root = tmp_path_factory.mktemp("study") / "in"
    rows = _write_study(root, seed)
    expected = _scale_csv(root, rows, "base")
    rng = np.random.default_rng(seed)

    permuted = [rows[k] for k in rng.permutation(len(rows))]
    assert _scale_csv(root, permuted, "permuted") == expected

    k = int(rng.integers(len(rows)))
    a, b, count = rows[k]
    part = int(rng.integers(0, count + 1))
    split = rows[:k] + [(a, b, part)] + rows[k + 1:] + [(a, b, count - part)]
    assert _scale_csv(root, split, "split") == expected

    # each pair first listed as (b, a), then as (a, b)
    mirrored = [row for n in range(0, len(rows), 2) for row in (rows[n + 1], rows[n])]
    assert _scale_csv(root, mirrored, "mirrored") == expected


def _bfs_components(n, edges):
    neighbours = [set() for _ in range(n)]
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen, out = set(), []
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        queue, members = deque([start]), []
        while queue:
            node = queue.popleft()
            members.append(node)
            for other in neighbours[node] - seen:
                seen.add(other)
                queue.append(other)
        out.append(sorted(members))
    return out


@st.composite
def _collections(draw):
    n_a = draw(st.integers(1, 6))
    n_b = draw(st.integers(1, 6))
    n = n_a + n_b
    conditions = [ConditionId.reference("a")]
    conditions += [ConditionId("a", f"c{k}", "d", 1) for k in range(n_a - 1)]
    conditions += [ConditionId.reference("b")]
    conditions += [ConditionId("b", f"c{k}", "d", 1) for k in range(n_b - 1)]
    observations = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3))
        .filter(lambda row: row[0] != row[1]),
        max_size=12,
    ))
    rated = draw(st.lists(st.integers(n_a, n - 1), max_size=6))
    graph = ComparisonGraph(n, *(list(column) for column in zip(*observations))) \
        if observations else ComparisonGraph(n)
    ratings = {"b": RatingTable(rated, ["o"] * len(rated), [1.0] * len(rated))} if rated else {}
    manifest = {"a": DatasetMeta("a", "pwc"), "b": DatasetMeta("b", "rating")}
    edges = [(w, l) for w, l, count in observations if count > 0]
    edges += [(a, b) for a in rated for b in rated if a != b]
    return DatasetCollection(conditions, graph, ratings, manifest), edges


@settings(max_examples=200, deadline=None)
@given(_collections())
def test_connected_components_match_bfs(case):
    collection, edges = case
    assert connected_components(collection) == _bfs_components(collection.n, edges)


def _rated_collection(seed):
    """A pairwise and a rating dataset with random counts along a chain,
    random extra pairs and one cross pair; 2-4 ratings per rated condition."""
    rng = np.random.default_rng(seed)
    n_p, n_r = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    conditions = [ConditionId.reference("p")]
    conditions += [ConditionId("p", f"c{k}", "d", 1) for k in range(n_p - 1)]
    conditions += [ConditionId.reference("r")]
    conditions += [ConditionId("r", f"c{k}", "d", 1) for k in range(n_r - 1)]
    pairs = [(k, k + 1) for k in range(n_p - 1)]
    pairs += [(int(rng.integers(n_p)), int(rng.integers(n_p, n_p + n_r)))]
    pairs += [tuple(rng.choice(n_p + n_r, size=2, replace=False)) for _ in range(3)]
    wins = rng.integers(0, 11, size=(len(pairs), 2))
    winners = [i for i, _ in pairs] + [j for _, j in pairs]
    losers = [j for _, j in pairs] + [i for i, _ in pairs]
    graph = ComparisonGraph(n_p + n_r, winners, losers, np.concatenate([wins[:, 0], wins[:, 1]]))
    rated = np.repeat(np.arange(n_p, n_p + n_r), rng.integers(2, 5, size=n_r))
    table = RatingTable(rated, [f"o{k}" for k in range(rated.size)],
                        rng.normal(0.0, 1.5, rated.size))
    manifest = {"p": DatasetMeta("p", "pwc"), "r": DatasetMeta("r", "rating")}
    return DatasetCollection(conditions, graph, {"r": table}, manifest), rng


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), prior=st.booleans())
def test_kernel_matches_central_differences(seed, prior):
    collection, rng = _rated_collection(seed)
    problem = PosteriorProblem(collection, prior_enabled=prior)
    x = rng.normal(0.0, 0.7, problem.n_params)
    _, grad, curvature = problem.value_and_grad(x)
    step = 1e-6
    unit = np.eye(problem.n_params)
    fd = [(problem.value_and_grad(x + step * e)[0] - problem.value_and_grad(x - step * e)[0])
          / (2 * step) for e in unit]
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6)

    vec = rng.normal(0.0, 1.0, problem.n_params)
    fd_hv = (problem.value_and_grad(x + step * vec)[1]
             - problem.value_and_grad(x - step * vec)[1]) / (2 * step)
    np.testing.assert_allclose(problem.hess_vec(curvature, vec), fd_hv, rtol=1e-6, atol=1e-6)

    columns = [problem.hess_vec(curvature, e) @ e for e in unit]
    assert problem.hess_diag(curvature) == pytest.approx(columns, rel=1e-12, abs=1e-12)
