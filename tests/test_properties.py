"""Property tests on random small collections.

The comparison graph stores each measured pair once, in canonical order, so
the row layout of ``comparisons.csv`` must not reach the scale, and the row
order of the ratings files must reach neither the scale nor its bootstrap
intervals; the joint-scaling components must match a plain breadth-first
search; the block-split CSV reader must return what one plain
``csv.reader`` returns; the likelihood kernel's gradient and cached
curvature must match central differences, and its one-
``log_ndtr`` pair of log probabilities must match two ``log_ndtr`` calls; a
graph's directed rows must follow the two-key ``lexsort`` order, and the
kernel's curvature must hold the pair weights as the two triangles of the
dense symmetric weight matrix; a bootstrap replicate must keep its
collection's pairs, components and per-condition rating counts, and solve
exactly as the collection rebuilt from its rows; a solve started anywhere
near the maximum (or at it) must reach the maximum a cold solve reaches; a
disconnected collection scaled per component must be its components scaled
alone; both pair selectors must return exactly what a double loop over all
pairs returns; and a saved collection must load back as itself, up to the
order of its conditions.
"""

import csv
import json
import math
import multiprocessing
import tempfile
import warnings
from collections import deque
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import pytest
from scipy.special import log_ndtr, ndtr

from jodscale import connected_components, csvio, model, scaling
from jodscale.cli import main
from jodscale.design import select_cross_dataset_pairs, select_gmad_pairs
from jodscale.errors import (
    DegenerateDataError, DesignError, IntegrityError, JodscaleError, ParseError,
)
from jodscale.model import (
    ComparisonGraph,
    ConditionId,
    DatasetCollection,
    RatingTable,
    load_collection,
    save_collection,
)
from jodscale.scaling import (
    SIGMA_JOD, LinkParams, PosteriorProblem, UnifiedScale, _log_ndtr_pair, bootstrap_ci,
    log_posterior, scale,
)
from jodscale.simulate import RecoveryConfig, synthesize_collection

from conftest import cold_replicates, problem_of

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


def _shuffle_rows(path, rng, within):
    """Rewrite the CSV file at ``path`` with its rows shuffled: across and
    within conditions, or with ``within`` only among each condition's rows."""
    header, *rows = path.read_text().splitlines()
    first = {}
    for row in rows:
        first.setdefault(row.split(",")[0], len(first))
    rows = [rows[k] for k in rng.permutation(len(rows))]
    if within:
        rows.sort(key=lambda row: first[row.split(",")[0]])  # stable: keeps the shuffle
    path.write_text("\n".join([header, *rows]) + "\n")


# The solver sorts each rating table by (condition, observer, score), so the
# row order of a ratings file reaches neither the scale nor its bootstrap
# intervals: the outputs stay byte-identical.
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), within=st.booleans())
def test_rating_row_order_leaves_bootstrap_scale_unchanged(tmp_path_factory, seed, within):
    root = tmp_path_factory.mktemp("study")
    assert main(["simulate", "--conditions", "30", "--seed", str(seed),
                 "--out", str(root / "in")]) == 0
    argv = ["scale", "--bootstrap", "20", "--seed", str(seed), "--manifest",
            str(root / "in" / "manifest.json"), "--out"]
    code = main([*argv, str(root / "base")])
    rng = np.random.default_rng(seed)
    for path in sorted((root / "in").glob("ratings_*.csv")):
        _shuffle_rows(path, rng, within)
    assert main([*argv, str(root / "shuffled")]) == code
    for name in ("scale.csv", "links.json") if code == 0 else ():
        assert (root / "shuffled" / name).read_bytes() == (root / "base" / name).read_bytes()


_KEYS = ("d/ref/reference/0", "d/c0/dist/1", "d/c1/dist/2")


@st.composite
def _csv_files(draw):
    """The text of a CSV file with the columns key, count and name among
    extra ones, in any order: keys padded with spaces, quoted fields, LF and
    CRLF line ends, blank lines, maybe no final newline, and at most one
    kind of fault (a missing column, short rows, unknown keys or bad
    counts), so that the error class does not depend on row order. About
    one row in four is quoted, so that plain and quoted blocks mix, and one
    in five has a trailing extra field."""
    def cell(text, quoted):
        if quoted or any(ch in text for ch in ',"\n\r'):
            return '"' + text.replace('"', '""') + '"'
        return text

    fault = ([None] * 4 + ["header", "short", "key", "count"])[draw(st.integers(0, 7))]
    extra = draw(st.lists(st.sampled_from(["x", "y"]), unique=True))
    header = draw(st.permutations(["key", "count", "name", *extra]))
    if fault == "header":
        header = [col for col in header if col != "count"]
    faulty = st.integers(0, 3).map(lambda k: k == 3)
    lines = [",".join(cell(col, draw(st.booleans())) for col in header)]
    for _ in range(draw(st.integers(0, 30))):
        quoted = draw(st.integers(0, 3)) == 0
        text = st.text(alphabet='ab \u00e9,"\n\r' if quoted else "ab \u00e9", max_size=5)
        pad = st.sampled_from(["", " ", "  "])
        key = draw(pad) + draw(st.sampled_from(_KEYS)) + draw(pad)
        values = {
            "key": "d/ghost/dist/1" if fault == "key" and draw(faulty) else key,
            "count": draw(st.sampled_from(["1.5", "x"])) if fault == "count" and draw(
                faulty) else str(draw(st.integers(0, 99))),
        }
        row = [values.get(col) or draw(text) for col in header]
        if fault == "short" and draw(faulty):
            row = row[:draw(st.integers(0, len(row) - 1))]
        elif draw(st.integers(0, 4)) == 0:
            row.append(draw(text))
        lines.append(",".join(cell(value, quoted and draw(st.booleans())) for value in row))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    if draw(st.booleans()):
        lines.append("")
    ends = st.sampled_from(["\n", "\r\n"])
    return "".join(line + draw(ends) for line in lines[:-1]) + lines[-1]


def _reference_read(path, columns, index):
    """``_read_csv``'s result for ``columns`` (some of key, count and name),
    read with one plain ``csv.reader`` over the whole file."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0] if rows else []
    if not set(columns) <= set(header):
        raise ParseError("missing column")
    positions = [header.index(col) for col in columns]
    rows = [row for row in rows[1:] if row]
    if any(len(row) <= max(positions) for row in rows):
        raise ParseError("short row")
    out = []
    for col, pos in zip(columns, positions):
        cells = [row[pos] for row in rows]
        if col == "key":
            if any(cell.strip() not in index for cell in cells):
                raise IntegrityError("unknown key")
            cells = [index[cell.strip()] for cell in cells]
        elif col == "count":
            try:
                cells = [int(cell) for cell in cells]
            except ValueError as exc:
                raise ParseError("bad count") from exc
        out.append(cells)
    return out


@settings(max_examples=300, deadline=None)
@given(text=_csv_files(), block_chars=st.integers(1, 160),
       columns=st.lists(st.sampled_from(["key", "count", "name"]), min_size=1, unique=True))
def test_block_reader_matches_csv_reader(tmp_path_factory, text, block_chars, columns):
    """Blocks of 1 to 160 characters, so that lines straddle block ends and
    plain and quoted blocks alternate within one file."""
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    path.write_bytes(text.encode())
    index = {key: k for k, key in enumerate(_KEYS)}
    parsers = {"key": model._indices(index, "row"), "count": csvio._cells(int, np.int64),
               "name": csvio._cells(str, str)}
    try:
        expected = _reference_read(path, columns, index)
    except (ParseError, IntegrityError) as exc:
        expected = type(exc)
    with mock.patch.object(csvio, "_BLOCK_CHARS", block_chars):
        try:
            result = csvio._read_csv(path, {col: parsers[col] for col in columns})
            result = [column.tolist() for column in result]
        except (ParseError, IntegrityError) as exc:
            result = type(exc)
    assert result == expected


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
    edges = [(w, l) for w, l, count in observations if count > 0]
    edges += [(a, b) for a in rated for b in rated if a != b]
    return DatasetCollection(conditions, graph, ratings), edges


def _shape(n, pairs=(), rated=()):
    """One dataset of ``n`` conditions, one comparison per pair and one
    rating per rated condition, with the edges the components follow."""
    conditions = [ConditionId("a", f"c{k}", "d", 1) for k in range(n)]
    winners, losers = (list(column) for column in zip(*pairs)) if pairs else ([], [])
    graph = ComparisonGraph(n, winners, losers, [1] * len(winners))
    ratings = {"a": RatingTable(list(rated), ["o"] * len(rated), [1.0] * len(rated))} \
        if rated else {}
    edges = list(pairs) + [(a, b) for a in rated for b in rated if a != b]
    return DatasetCollection(conditions, graph, ratings), edges


_PATH = np.random.default_rng(3).permutation(4000).tolist()


@settings(max_examples=200, deadline=None)
@given(_collections())
@example(_shape(4000, list(zip(_PATH[:-1], _PATH[1:]))))  # many rounds of hooking
@example(_shape(50, [(k, 17) for k in range(50) if k != 17]))  # a star: one round
@example(_shape(8, [(0, 1), (1, 3), (2, 5), (5, 7)], rated=[3, 7]))  # joined by a rating chain
@example(_shape(8, [(6, 1), (4, 2)]))  # isolated conditions
@example(_shape(0))  # the empty collection
def test_connected_components_match_bfs(case):
    collection, edges = case
    labels = connected_components(collection)
    components = _bfs_components(collection.n, edges)
    # the BFS components come ordered by their smallest member, so label k is the k-th
    expected = np.empty(collection.n, dtype=np.intp)
    for k, members in enumerate(components):
        expected[members] = k
    assert labels.dtype == np.intp
    np.testing.assert_array_equal(labels, expected)


@st.composite
def _graph_rows(draw):
    """Up to 9 conditions and up to 30 (winner, loser, count) rows that
    repeat, mirror and hold zero counts."""
    n = draw(st.integers(0, 9))
    rows = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3))
        .filter(lambda row: row[0] != row[1]),
        max_size=30,
    )) if n > 1 else []
    return n, rows


def _graphs():
    return _graph_rows().map(lambda drawn: ComparisonGraph(drawn[0], *zip(*drawn[1])))


@settings(max_examples=200, deadline=None)
@given(_graph_rows())
@example((3, [(0, 1, 2**62), (1, 0, 2**53 + 1), (0, 1, 1), (1, 0, 2**53 + 1), (2, 1, 0)]))
def test_graph_columns_are_the_summed_rows(drawn):
    """The columns equal a dict sum of the rows: sorted unique pairs i < j,
    exact int64 sums (also past 2**53), and no pair whose sums are both 0."""
    n, rows = drawn
    sums = {}
    for winner, loser, count in rows:
        sums.setdefault((min(winner, loser), max(winner, loser)), [0, 0])[winner > loser] += count
    expected = sorted((pair, both) for pair, both in sums.items() if any(both))
    columns = ComparisonGraph(n, *zip(*rows)).pair_arrays()
    assert [column.dtype for column in columns] == [np.dtype(np.int64)] * 4
    i, j, c_ij, c_ji = (column.tolist() for column in columns)
    assert list(zip(zip(i, j), map(list, zip(c_ij, c_ji)))) == expected


@settings(max_examples=200, deadline=None)
@given(_graphs())
@example(ComparisonGraph(0))
@example(ComparisonGraph(4, [0, 2], [1, 3], [0, 0]))
@example(ComparisonGraph(4, [0, 3, 1], [3, 0, 2], [0, 5, 2]))
def test_directed_rows_follow_the_lexsort_order(graph):
    i, j, c_ij, c_ji = graph.pair_arrays()
    winners, losers = np.concatenate([i, j]), np.concatenate([j, i])
    counts = np.concatenate([c_ij, c_ji])
    order = np.lexsort((losers, winners))
    nonzero = order[counts[order] > 0]
    for got, expected in zip(graph.observations(),
                             (winners[nonzero], losers[nonzero], counts[nonzero])):
        np.testing.assert_array_equal(got, expected)


@settings(max_examples=200, deadline=None)
@given(_graphs())
@example(ComparisonGraph(0))
@example(ComparisonGraph(6, [4, 0, 4], [0, 2, 2], [3, 1, 2]))  # 1, 3 and 5 isolated
def test_curvature_is_the_dense_weight_matrix_on_the_pair_layout(graph):
    """The problem's layout arrays are read-only int32, and the kernel's
    ``upper`` plus ``lower`` is the dense symmetric matrix of its per-pair
    weights."""
    problem = problem_of(graph)
    for array in (problem._columns, problem._indptr):
        assert array.dtype == np.int32 and not array.flags.writeable
    q = np.linspace(-1.5, 1.0, graph.n)
    curvature = problem.value_and_grad(q)[2]
    pairs = graph.pair_arrays()
    i, j = pairs[:2]
    weights = scaling._pair_term(pairs, q)[2]
    dense = np.zeros((graph.n, graph.n))
    dense[i, j] = dense[j, i] = weights
    np.testing.assert_array_equal((curvature.upper + curvature.lower).toarray(), dense)


def _rated_collection(seed, cross=True):
    """A pairwise and a rating dataset with random counts along a chain,
    random extra pairs and one cross pair unless ``cross`` is false; 2-4
    ratings per rated condition."""
    rng = np.random.default_rng(seed)
    n_p, n_r = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    conditions = [ConditionId.reference("p")]
    conditions += [ConditionId("p", f"c{k}", "d", 1) for k in range(n_p - 1)]
    conditions += [ConditionId.reference("r")]
    conditions += [ConditionId("r", f"c{k}", "d", 1) for k in range(n_r - 1)]
    pairs = [(k, k + 1) for k in range(n_p - 1)]
    cross_pair = (int(rng.integers(n_p)), int(rng.integers(n_p, n_p + n_r)))
    pairs += [cross_pair] if cross else []
    pairs += [tuple(rng.choice(n_p + n_r, size=2, replace=False)) for _ in range(3)]
    wins = rng.integers(0, 11, size=(len(pairs), 2))
    winners = [i for i, _ in pairs] + [j for _, j in pairs]
    losers = [j for _, j in pairs] + [i for i, _ in pairs]
    graph = ComparisonGraph(n_p + n_r, winners, losers, np.concatenate([wins[:, 0], wins[:, 1]]))
    rated = np.repeat(np.arange(n_p, n_p + n_r), rng.integers(2, 5, size=n_r))
    table = RatingTable(rated, [f"o{k}" for k in range(rated.size)],
                        rng.normal(0.0, 1.5, rated.size))
    return DatasetCollection(conditions, graph, {"r": table}), rng


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), prior=st.booleans(), cross=st.booleans())
@example(seed=23230, prior=False, cross=False)  # a Hessian entry of terms +-13,392 that cancel
def test_kernel_matches_central_differences(seed, prior, cross):
    """The gradient and the Hessian-vector product of the cached curvature
    match central differences. Without the cross pair the collection may
    split into components, each with its own prior mean."""
    collection, rng = _rated_collection(seed, cross)
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


# For fixed scores a rating dataset's term is maximized over its link in
# closed form: the kernel's value is that maximum, less the binomial
# constant, no link does better, and the link read off the fit (where its
# slope is positive) attains it.
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cross=st.booleans())
def test_profiled_rating_term_is_the_best_link(seed, cross):
    collection, rng = _rated_collection(seed, cross)
    problem = PosteriorProblem(collection, prior_enabled=False)
    x = rng.normal(0.0, 0.7, problem.n_params)
    q, links = problem.unpack(x)
    best = log_posterior(collection, q, {}, prior_enabled=False)
    value = problem.value_and_grad(x)[0] + scaling._log_binomial(problem._pairs)
    assert value == pytest.approx(best, rel=1e-12)
    others = [LinkParams(math.exp(rng.normal(0.0, 1.0)), rng.normal(0.0, 2.0),
                         math.exp(rng.normal(0.0, 1.0))) for _ in range(10)]
    if links:
        assert log_posterior(collection, q, links, False) == pytest.approx(best, rel=1e-12)
        link = links["r"]
        others += [LinkParams(link.a * math.exp(rng.normal(0.0, 0.01)),
                              link.b + rng.normal(0.0, 0.01),
                              link.c * math.exp(rng.normal(0.0, 0.01))) for _ in range(10)]
    for other in others:
        assert log_posterior(collection, q, {"r": other}, False) <= best + 1e-9 * abs(best)


@settings(max_examples=100, deadline=None)
@given(z=st.floats(-40.0, 40.0))
@example(z=0.0)
@example(z=-0.0)
@example(z=40.0)
@example(z=-40.0)
def test_one_log_ndtr_pair_matches_two_calls(z):
    zs = np.array([z, -z, z / 3.0, np.nextafter(z, 0.0)])
    log_win, log_loss = _log_ndtr_pair(zs)
    np.testing.assert_allclose(log_win, log_ndtr(zs), rtol=0, atol=1e-15)
    np.testing.assert_allclose(log_loss, log_ndtr(-zs), rtol=0, atol=1e-15)


def _observer_collection(seed, cross=True):
    """A pairwise and a rating dataset with every pair inside each dataset
    compared 20 times and 4 ratings per rated condition, all drawn from the
    observer model with a random affine link; one cross pair joins the two
    datasets unless ``cross`` is false."""
    rng = np.random.default_rng(seed)
    n_p, n_r = int(rng.integers(3, 7)), int(rng.integers(3, 6))
    n = n_p + n_r
    conditions = [ConditionId.reference("p")]
    conditions += [ConditionId("p", f"c{k}", "d", 1) for k in range(n_p - 1)]
    conditions += [ConditionId.reference("r")]
    conditions += [ConditionId("r", f"c{k}", "d", 1) for k in range(n_r - 1)]
    quality = -rng.uniform(0.0, 3.0, n)
    quality[[0, n_p]] = 0.0
    pairs = [(i, j) for lo, hi in ((0, n_p), (n_p, n)) for i in range(lo, hi)
             for j in range(i + 1, hi)]
    if cross:
        pairs.append((int(rng.integers(n_p)), int(rng.integers(n_p, n))))
    i, j = np.array(pairs).T
    wins = rng.binomial(20, ndtr((quality[i] - quality[j]) / (np.sqrt(2.0) * SIGMA_JOD)))
    graph = ComparisonGraph(n, np.concatenate([i, j]), np.concatenate([j, i]),
                            np.concatenate([wins, 20 - wins]))
    rated = np.repeat(np.arange(n_p, n), 4)
    a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    scores = (quality[rated] - b) / a + rng.normal(0.0, 0.7 * SIGMA_JOD / a, rated.size)
    table = RatingTable(rated, [f"o{k % 4}" for k in range(rated.size)], scores)
    return DatasetCollection(conditions, graph, {"r": table}), rng


def _assert_same_scale(result, expected, atol):
    np.testing.assert_allclose(result.q, expected.q, rtol=0, atol=atol)
    assert result.links.keys() == expected.links.keys()
    for name, link in expected.links.items():
        got = result.links[name]
        np.testing.assert_allclose([got.a, got.b, got.c], [link.a, link.b, link.c],
                                   rtol=0, atol=atol)


# The comparisons below are at tol=1e-10, so that 1e-6 measures where the
# maximum is and not where the stop rule happened to halt. A cold solve that
# does not reach that tolerance has no maximum to compare with.
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_warm_start_reaches_the_cold_maximum(seed):
    collection, rng = _observer_collection(seed)
    cold = scale(collection, tol=1e-10)
    assume(cold.converged)
    # a start supplies scores only: the solver fits the links itself
    perturbed = cold.q + rng.normal(0.0, 0.5, cold.q.size)
    q, links, _, reason, _ = scaling._solve(cold.problem, perturbed, 1e-10, 2000)
    assert reason == "converged"
    _assert_same_scale(replace(cold, q=q, links=links), cold, atol=1e-6)

    at_maximum = scale(collection)
    q, links, _, reason, iterations = scaling._solve(at_maximum.problem, at_maximum.q, 1e-6,
                                                     2000)
    assert reason == "converged" and iterations == 0
    _assert_same_scale(replace(at_maximum, q=q, links=links), at_maximum, atol=1e-12)


# Ratings that contradict the pairwise order: the fitted slope of dataset r
# ends at 0 (a = infinity), a finite end point with no link. Solving for the
# links as parameters ran along a ridge toward a = infinity instead and
# reported converged=True, at a = 5.1e11 after 1,882 iterations for seed
# 648807543 and at a = 1.2e5 after 796 for seed 245.
@pytest.mark.parametrize("seed, cross, options", [
    (648807543, False, {"per_component": True, "tol": 1e-10}),
    (245, True, {}),
])
def test_contradicting_ratings_end_on_the_boundary(tmp_path, capsys, seed, cross, options):
    collection, _ = _observer_collection(seed, cross)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "NOT comparable" across components
        result = scale(collection, **options)
        argv = ["scale", "--manifest", str(save_collection(collection, tmp_path)),
                "--out", str(tmp_path / "out")] + ["--per-component"] * (not cross)
        assert main(argv) == 0
        assert main(argv + ["--strict"]) == 3
    assert result.reason == "boundary_link" and not result.converged
    assert result.iterations <= 20
    assert "r" not in result.links
    table = collection.ratings["r"]
    assert np.polyfit(result.q[table.condition_indices], table.scores, 1)[0] <= 0.0
    assert log_posterior(collection, result.q, result.links) == pytest.approx(
        result.log_posterior, rel=1e-12)
    assert json.loads((tmp_path / "out" / "links.json").read_text()) == {}
    assert json.loads((tmp_path / "out" / "report.json").read_text())["converged"] is False
    assert "rating datasets ['r'] have no link" in capsys.readouterr().err


# Warm-started at the full-data scores, replicate 1 of this bootstrap
# stalls short of the slope-0 boundary of dataset r, where a cold start
# ends: no step passes the line search, and r keeps its link. Only the
# reason is checked, as the iteration it stops at moves with the last bits
# of the preconditioner.
def test_a_stalled_line_search_is_named():
    seed = 2608745737
    collection, _ = _observer_collection(seed, cross=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "NOT comparable" across components
        full = scale(collection, per_component=True, tol=1e-10)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB007, 1)))
    assert scaling._solve(full.problem.resampled(rng), full.q, 1e-10, 2000)[3] == "line_search"


def _bootstrap_outcome(full, n_boot, seed):
    """The intervals of a bootstrap, or the type and message of the error
    it raises, which counts the failed replicates per reason."""
    try:
        return bootstrap_ci(full, n_boot, seed=seed)
    except JodscaleError as exc:
        return type(exc), str(exc)


# Warm and cold, the replicates end the same way: the same intervals, or
# the same failures for the same reasons. Not pinned, as these still fail:
# warm replicates that stall on line_search where cold ones end on
# boundary_link (1856262212, 1945909568, 1100784413, 2960398257,
# 2398548975, 2608745737, 3983723971), and two local maxima that the warm
# and cold starts split between, with intervals 0.11-2.14 JOD apart
# (2456306546, 1919410808, 2876299991, 1068290309, 3541089834, 2678168929,
# 42709, 764960634, 4038267529).
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=4110225764)  # 3 of 4 replicates end on boundary_link, warm and cold
@example(seed=3380)  # likewise
def test_warm_started_per_component_bootstrap_matches_cold(seed):
    collection, _ = _observer_collection(seed, cross=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "NOT comparable" across components
        full = scale(collection, per_component=True, tol=1e-10)
    assume(full.converged)
    with cold_replicates():
        cold = _bootstrap_outcome(full, 4, seed)
    warm = _bootstrap_outcome(full, 4, seed)
    if isinstance(cold, np.ndarray) and isinstance(warm, np.ndarray):
        np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-6)
    else:
        assert warm == cold


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cross=st.booleans())
def test_pooled_bootstrap_equals_the_in_process_one(seed, cross):
    """Three workers or none: every replicate draws from its own seed, so
    the intervals, or the error, are the same bit for bit."""
    collection, _ = _observer_collection(seed, cross)
    full = _outcome(collection, per_component=not cross)
    assume(isinstance(full, UnifiedScale))

    def outcome(workers):
        with mock.patch.object(scaling, "_workers", lambda n_boot: workers):
            return _bootstrap_outcome(full, 10, seed)

    pooled, in_process = outcome(3), outcome(1)
    assert multiprocessing.active_children() == []
    if isinstance(in_process, np.ndarray):
        assert np.array_equal(pooled, in_process)
    else:
        assert pooled == in_process


def _outcome(collection, **options):
    """The scale of a collection, or the type and message of the error it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "NOT comparable" across components
        try:
            return scale(collection, **options)
        except JodscaleError as exc:
            return type(exc), str(exc)


def _replicate(problem, seed):
    """A bootstrap replicate of ``problem``, drawn as ``bootstrap_ci`` draws it."""
    return problem.resampled(np.random.default_rng(seed))


def _rebuilt(collection, replicate):
    """The collection of a replicate's counts and rating rows, built and
    validated anew."""
    i, j, c_ij, c_ji = replicate._pairs
    graph = ComparisonGraph(collection.n, np.concatenate([i, j]), np.concatenate([j, i]),
                            np.concatenate([c_ij, c_ji]))
    ratings = {name: RatingTable(table.condition_indices, table.observers, table.scores)
               for name, table in zip(replicate.rating_names, replicate.tables)}
    return DatasetCollection(collection.conditions, graph, ratings, collection.displays)


def _collection_of_kind(seed, kind, cross):
    make = _observer_collection if kind == "observer" else _rated_collection
    collection, _ = make(seed, cross)
    if kind == "unrated":
        collection = DatasetCollection(collection.conditions, collection.graph, {},
                                       collection.displays)
    return collection


# Ratings are drawn within each condition and every pair keeps its total, so
# a replicate has the collection's measured pairs, components and rating rows
# per condition, each row one of that condition's own.
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["observer", "rated"]),
       cross=st.booleans())
def test_replicate_keeps_labels_and_rating_counts(seed, kind, cross):
    collection = _collection_of_kind(seed, kind, cross)
    problem = PosteriorProblem(collection)
    for index in range(5):
        replicate = _replicate(problem, [seed, index])
        rebuilt = _rebuilt(collection, replicate)
        np.testing.assert_array_equal(rebuilt.graph.pair_arrays()[:2],
                                      collection.graph.pair_arrays()[:2])
        np.testing.assert_array_equal(connected_components(rebuilt),
                                      connected_components(collection))
        for name, table in rebuilt.ratings.items():
            original = collection.ratings[name]
            np.testing.assert_array_equal(np.bincount(table.condition_indices, minlength=rebuilt.n),
                                          np.bincount(original.condition_indices,
                                                      minlength=collection.n))
            rows = set(zip(*(col.tolist() for col in (
                original.condition_indices, original.observers, original.scores))))
            assert set(zip(*(col.tolist() for col in (
                table.condition_indices, table.observers, table.scores)))) <= rows


# A replicate is solved on its collection's problem, sharing its pair
# arrays, pattern and components; it must solve bit for bit as the checked
# problem ``scale`` builds for the collection rebuilt from its counts and
# rows, cold or warm, to the same scores, links, kernel value, convergence
# and iteration count. Few iterations suffice to tell, and keep
# unconverging draws cheap.
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["observer", "rated", "unrated"]),
       cross=st.booleans(), per_component=st.booleans(), prior=st.booleans(),
       warm=st.booleans())
def test_replicate_scales_as_its_rebuilt_collection(seed, kind, cross, per_component, prior,
                                                    warm):
    collection = _collection_of_kind(seed, kind, cross)
    options = {"per_component": per_component, "prior_enabled": prior, "max_iter": 100}
    full = _outcome(collection, **options)
    assume(isinstance(full, UnifiedScale))
    start = full.q if warm else None
    replicate = _replicate(full.problem, seed)
    expected = _outcome(_rebuilt(collection, replicate), **options)
    try:
        got = scaling._solve(replicate, start, 1e-6, 100)
    except DegenerateDataError as exc:
        assert expected == (DegenerateDataError, str(exc))
        return
    # the rebuilt collection's checked problem, solved from the same start
    expected = scaling._solve(expected.problem, start, 1e-6, 100)
    np.testing.assert_array_equal(got[0], expected[0])
    assert got[1:] == expected[1:]


def _subcollection(collection, members):
    """The conditions ``members`` of ``collection`` as a collection of their
    own: the comparisons among them, their ratings and the displays of their
    datasets."""
    members = np.asarray(members, dtype=np.int64)
    remap = np.full(collection.n, -1, dtype=np.int64)
    remap[members] = np.arange(members.size)
    inside = remap >= 0
    conditions = [collection.conditions[i] for i in members]
    winners, losers, counts = collection.graph.observations()
    kept = inside[winners] & inside[losers]
    graph = ComparisonGraph(members.size, remap[winners[kept]], remap[losers[kept]], counts[kept])
    ratings = {}
    for name, table in collection.ratings.items():
        rows = inside[table.condition_indices]
        if rows.any():
            ratings[name] = RatingTable(
                remap[table.condition_indices[rows]], table.observers[rows], table.scores[rows]
            )
    names = {c.dataset for c in conditions}
    displays = {name: d for name, d in collection.displays.items() if name in names}
    return DatasetCollection(conditions, graph, ratings, displays)


# The one solve over all components against each component scaled alone.
# Without the prior, a dataset whose comparisons are unanimous has no finite
# maximum-likelihood estimate: the solves then stop at different points of a
# ridge that still rises (seed 81709: q near -4.6e4, log-posteriors 2e-8
# apart), so q, links and log-posteriors are compared with the prior on only.
# An unconverged solve has no maximum to compare with.
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), prior=st.booleans())
def test_per_component_scale_is_the_components_scaled_alone(seed, prior):
    collection, _ = _observer_collection(seed, cross=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "NOT comparable" across components
        whole = scale(collection, per_component=True, prior_enabled=prior, tol=1e-10)
    labels = connected_components(collection)
    parts = [
        (members, scale(_subcollection(collection, members), prior_enabled=prior, tol=1e-10))
        for members in (np.flatnonzero(labels == k) for k in range(labels.max() + 1))
    ]
    assert len(parts) == 2
    assert whole.converged == all(part.converged for _, part in parts)
    assert log_posterior(collection, whole.q, whole.links, prior) == pytest.approx(
        whole.log_posterior, rel=1e-12)
    if prior and whole.converged:
        total = sum(part.log_posterior for _, part in parts)
        assert whole.log_posterior == pytest.approx(total, rel=1e-9)
        for members, part in parts:
            alone = replace(whole, q=whole.q[members],
                            links={name: whole.links[name] for name in part.links})
            _assert_same_scale(alone, part, atol=1e-6)


def _cross_dataset_loop(q, conditions, k, window, bins):
    """Cross-dataset selection as a double loop over all pairs, then a
    round-robin over the coverage bins."""
    datasets = [c.dataset for c in conditions]
    lo, hi = float(q.min()), float(q.max())
    width = (hi - lo) / bins if hi > lo else 1.0
    candidates = []
    for i in range(q.size):
        for j in range(i + 1, q.size):
            gap = abs(float(q[i] - q[j]))
            if datasets[i] == datasets[j] or gap > window:
                continue
            mid = 0.5 * float(q[i] + q[j])
            cell = min(int((mid - lo) / width), bins - 1) if hi > lo else 0
            candidates.append((cell, gap, conditions[i].key, conditions[j].key, i, j))
    by_cell: dict[int, list] = {}
    for cand in sorted(candidates):
        by_cell.setdefault(cand[0], []).append(cand)
    chosen = []
    cursor = dict.fromkeys(by_cell, 0)
    while len(chosen) < k and any(cursor[c] < len(by_cell[c]) for c in cursor):
        for c in sorted(by_cell):
            if len(chosen) < k and cursor[c] < len(by_cell[c]):
                chosen.append(by_cell[c][cursor[c]])
                cursor[c] += 1
    return [(c[4], c[5]) for c in chosen], [c[1] for c in chosen]


def _gmad_loop(test, bench, k, window, allow_reuse):
    """gMAD selection as a double loop over all pairs and a greedy pass."""
    candidates = []
    for i in range(test.size):
        for j in range(i + 1, test.size):
            bench_gap = abs(float(bench[i] - bench[j]))
            if bench_gap < window:
                candidates.append((-(abs(float(test[i] - test[j])) - bench_gap), i, j))
    chosen, used = [], set()
    for neg_objective, i, j in sorted(candidates):
        if len(chosen) == k:
            break
        if allow_reuse or not {i, j} & used:
            chosen.append((i, j, -neg_objective))
            used.update((i, j))
    return [(i, j) for i, j, _ in chosen], [objective for _, _, objective in chosen]


@st.composite
def _selection_inputs(draw):
    """Scores on a coarse grid (tied gaps, gaps exactly equal to the
    window), arbitrary floats, or pairs a few ulps either side of the window."""
    n = draw(st.integers(2, 24))
    window = draw(st.sampled_from([0.0, 0.25, 0.3, 1.0, 2.5]))
    kind = draw(st.sampled_from(["grid", "float", "boundary"]))
    if kind == "grid":
        values = [0.25 * v for v in draw(st.lists(st.integers(-12, 0), min_size=2 * n,
                                                  max_size=2 * n))]
    elif kind == "float":
        values = draw(st.lists(st.floats(-5.0, 0.0), min_size=2 * n, max_size=2 * n))
    else:
        values = []
        for base in draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)):
            ulps = draw(st.integers(-2, 2))
            values.append(base)
            values.append(float(np.nextafter(base + window, np.sign(ulps) * np.inf))
                          if ulps else base + window)
    values = np.array(values)
    order = draw(st.permutations(range(2 * n)))
    datasets = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    conditions = tuple(ConditionId(datasets[x % n], f"c{order[x]}", "d", 1) for x in range(n))
    k = draw(st.integers(1, 12))
    return values[:n], values[n:], conditions, k, window, draw(st.integers(1, 5))


def _hub_case(test_rest):
    """A gMAD instance whose top objectives all share one condition, c13: the
    no-reuse greedy must read past its first prefix to fill k = 3."""
    conditions = tuple(ConditionId("ab"[x % 2], f"c{x}", "d", 1) for x in range(14))
    return np.zeros(14), np.array([*test_rest, 10.0]), conditions, 3, 1.0, 1


# gMAD at k = 4: the first prefix (the 15 pairs across the groups {0, 1, 2}
# and {1000, ..., 1004}, then 1000-1004) fills 3 picks and leaves 1000 and
# 1001 unused, whose pair comes last: the pass must go on past its prefix
# while two unused conditions remain.
_LATE_PAIR = (np.zeros(8), np.array([0.0, 1.0, 2.0, 1000.0, 1001.0, 1002.0, 1003.0, 1004.0]),
              tuple(ConditionId("ab"[x % 2], f"c{x}", "d", 1) for x in range(8)), 4, 1.0, 1)


# More than k = 2 cross-dataset candidates tied at the k-th gap of the bin
_TIED_BIN = (np.array([0.5, 0.5, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0, 0.75, 0.5, 0.75, 0.5]),
             np.zeros(12), tuple(ConditionId("ab"[x % 2], f"c{x}", "d", 1) for x in range(12)),
             2, 0.5, 1)


@pytest.mark.filterwarnings("ignore:only")
@settings(max_examples=300, deadline=None)
@given(_selection_inputs(), st.booleans())
@example(_TIED_BIN, False)
@example(_LATE_PAIR, False)
@example(_hub_case(0.1 * np.arange(13)), False)
@example(_hub_case(np.zeros(13)), False)
def test_selectors_match_double_loops(case, allow_reuse):
    q, test, conditions, k, window, bins = case
    pairs, gaps = _cross_dataset_loop(q, conditions, k, window, bins)
    if pairs:
        batch = select_cross_dataset_pairs(q, conditions, k, window, bins)
        assert (list(batch.pairs), list(batch.rationale)) == (pairs, gaps)
    elif len({c.dataset for c in conditions}) > 1:
        with pytest.raises(DesignError, match="no cross-dataset pair"):
            select_cross_dataset_pairs(q, conditions, k, window, bins)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = select_gmad_pairs(test, q, k, window, allow_reuse=allow_reuse)
    expected = _gmad_loop(test, q, k, window, allow_reuse)
    assert (list(batch.pairs), list(batch.rationale)) == expected
    short = len(expected[0]) < k
    assert [str(w.message) for w in caught] == (
        [f"only {len(expected[0])} of {k} requested adversarial pairs are feasible"] * short)


@pytest.mark.filterwarnings("ignore:only")
def test_cross_dataset_bins_far_above_the_candidates():
    """``--bins`` has no upper bound, so nothing may be sized by it."""
    q = np.round(np.random.default_rng(5).uniform(-3.0, 0.0, 30), 1)
    conditions = tuple(ConditionId("abc"[x % 3], f"c{x}", "d", 1) for x in range(30))
    for k in (1, 4, 40):
        batch = select_cross_dataset_pairs(q, conditions, k, 0.5, 10**12)
        assert (list(batch.pairs), list(batch.rationale)) == \
            _cross_dataset_loop(q, conditions, k, 0.5, 10**12)


def _by_key(collection):
    """What a saved collection must load back as, keyed by condition so that
    the order of the conditions does not count: the conditions, the directed
    counts, each dataset's rating rows in order, and the displays."""
    keys = [c.key for c in collection.conditions]
    winners, losers, counts = (col.tolist() for col in collection.graph.observations())
    return (
        sorted(keys),
        sorted((keys[w], keys[l], c) for w, l, c in zip(winners, losers, counts)),
        {name: [(keys[i], o, s) for i, o, s in zip(table.condition_indices.tolist(),
                                                    table.observers.tolist(),
                                                    table.scores.tolist())]
         for name, table in collection.ratings.items()},
        dict(collection.displays),
    )


# Observer ids as ``load_collection`` returns them: stripped, and holding the
# characters that must be quoted when written.
_OBSERVER_IDS = st.lists(st.text(alphabet='ab é,"\n\r', max_size=6).map(str.strip),
                         min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(n_datasets=st.integers(1, 3), extra=st.integers(0, 6), trials=st.integers(0, 4),
       observers=st.integers(0, 3), seed=st.integers(0, 2**32 - 1), ids=_OBSERVER_IDS,
       data=st.data())
def test_saved_collection_loads_back(n_datasets, extra, trials, observers, seed, ids, data):
    config = RecoveryConfig(n_conditions=2 * n_datasets + extra, n_datasets=n_datasets,
                            trials_per_pair=trials, observers=observers, seed=seed)
    _, collection = synthesize_collection(config)
    ratings = {}
    for name, table in collection.ratings.items():
        picks = data.draw(st.lists(st.sampled_from(ids), min_size=len(table),
                                   max_size=len(table)))
        ratings[name] = RatingTable(table.condition_indices, picks, table.scores)
    collection = DatasetCollection(collection.conditions, collection.graph, ratings,
                                   collection.displays)
    with tempfile.TemporaryDirectory() as directory:
        loaded = load_collection(save_collection(collection, directory))
    assert _by_key(loaded) == _by_key(collection)
