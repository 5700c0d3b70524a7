import json
import re
import tracemalloc

import numpy as np
import pytest

from jodscale import connected_components, csvio, model
from jodscale.cli import main
from jodscale.errors import IntegrityError, ParseError
from jodscale.model import (
    ComparisonGraph,
    ConditionId,
    DatasetCollection,
    RatingTable,
    load_collection,
    save_collection,
)

from conftest import graph_of, ratings_of, write_two_condition_fixture


def _write(path, text):
    path.write_text(text)
    return path


class TestConditionId:
    def test_parse_roundtrip(self):
        cond = ConditionId.parse("live/img03/jpeg/4")
        assert cond == ConditionId("live", "img03", "jpeg", 4)
        assert cond.key == "live/img03/jpeg/4"
        assert not cond.is_reference

    def test_reference_encoding(self):
        ref = ConditionId.parse("live/img03/reference/0")
        assert ref.is_reference
        # level other than 0 is a distortion named "reference", not an anchor
        assert not ConditionId("live", "img03", "reference", 1).is_reference

    def test_bad_ids(self):
        with pytest.raises(ParseError):
            ConditionId.parse("live/img03/jpeg")
        with pytest.raises(ParseError):
            ConditionId.parse("live/img03/jpeg/notanint")
        with pytest.raises(IntegrityError):
            ConditionId("", "c", "d", 1)
        # characters that would break the CSV row the id is written to
        for text in ("ds/a,b/dist/1", 'ds/a"b/dist/1', "ds/a/di\rst/1", "ds/a/di\nst/1",
                     "d,s/a/dist/1"):
            with pytest.raises(IntegrityError, match="bad condition id component"):
                ConditionId.parse(text)


class TestComparisonGraph:
    def test_counts_and_trials(self):
        graph = ComparisonGraph(3, [0, 1], [1, 0], [3, 1])
        # one measured pair (0, 1): 0 won 3 times, 1 won once; (0, 2) is unmeasured
        i, j, c_ij, c_ji = (col.tolist() for col in graph.pair_arrays())
        assert (i, j, c_ij, c_ji) == ([0], [1], [3], [1])

    def test_rejects_self_and_negative(self):
        with pytest.raises(IntegrityError, match="self-comparison"):
            ComparisonGraph(2, [0], [0], [1])
        with pytest.raises(IntegrityError, match="non-negative integer"):
            ComparisonGraph(2, [0], [1], [-1])
        with pytest.raises(IntegrityError, match="non-negative integer"):
            ComparisonGraph(2, [0], [1], [1.5])
        with pytest.raises(IntegrityError, match="out of range"):
            ComparisonGraph(2, [0], [5], [1])
        with pytest.raises(IntegrityError, match="out of range"):
            ComparisonGraph(2, [-1], [1], [1])
        with pytest.raises(IntegrityError, match="equal lengths"):
            ComparisonGraph(2, [0, 1], [1], [1])

    def test_pair_arrays_canonical(self):
        graph = ComparisonGraph(4, [2, 0, 1], [1, 3, 3], [5, 2, 0])
        i, j, c_ij, c_ji = graph.pair_arrays()
        assert i.tolist() == [0, 1]
        assert j.tolist() == [3, 2]
        assert c_ij.tolist() == [2, 0]
        assert c_ji.tolist() == [0, 5]
        assert c_ij.dtype == np.int64 and c_ji.dtype == np.int64
        assert not c_ij.flags.writeable

    def test_constructor_sums_repeated_and_mirrored_rows(self):
        graph = ComparisonGraph(3, [0, 1, 0, 1, 2], [1, 0, 1, 0, 0], [1, 4, 2, 0, 0])
        i, j, c_ij, c_ji = (col.tolist() for col in graph.pair_arrays())
        assert (i, j, c_ij, c_ji) == ([0], [1], [3], [4])  # the all-zero pair (0, 2) is dropped
        assert graph == ComparisonGraph(3, [1, 0], [0, 1], [4, 3])

    def test_observations_round_trip(self):
        graph = ComparisonGraph(4, [3, 0, 2, 1], [0, 3, 1, 2], [2, 1, 5, 0])
        winners, losers, counts = graph.observations()
        assert list(zip(winners.tolist(), losers.tolist(), counts.tolist())) == [
            (0, 3, 1), (2, 1, 5), (3, 0, 2)
        ]
        assert ComparisonGraph(4, winners, losers, counts) == graph

    def test_building_holds_little_beside_the_rows(self):
        """Building from 332,564 random rows (7.6 MB) over 1,000 conditions
        holds the key, its sort and inverse, then the (pairs, 2) table: the
        peak is 2.3x the rows' bytes (17.7 MB). Gathering each direction
        through masks into two count arrays peaked at 4.0x (30.8 MB)."""
        rng = np.random.default_rng(5)
        winners = rng.integers(0, 1000, 332_564)
        losers = (winners + rng.integers(1, 1000, winners.size)) % 1000
        counts = rng.integers(0, 50, winners.size)
        tracemalloc.start()
        try:
            graph = ComparisonGraph(1000, winners, losers, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.i.size == 239_802
        assert peak <= 3 * (winners.nbytes + losers.nbytes + counts.nbytes)


@pytest.mark.parametrize("build, message", [
    (lambda: ComparisonGraph(-1), "graph size must be non-negative, got -1"),
    (lambda: RatingTable([0, 1], ["o1"], [1.0, 2.0]), "rating columns must have equal lengths"),
])
def test_column_holders_reject_a_bad_size(build, message):
    with pytest.raises(IntegrityError, match=re.escape(message)):
        build()


_TWO = [ConditionId.reference("a"), ConditionId("a", "c0", "d", 1)]


@pytest.mark.parametrize("build, message", [
    (lambda: DatasetCollection([_TWO[0], _TWO[0]], graph_of(2)),
     "duplicate condition a/ref/reference/0"),
    (lambda: DatasetCollection(_TWO, graph_of(3)),
     "graph is sized for 3 conditions, collection has 2"),
    (lambda: DatasetCollection(_TWO, graph_of(2), {"a": ratings_of([(2, "o1", 1.0)])}),
     "rating references condition index 2 out of range"),
    (lambda: DatasetCollection(_TWO, graph_of(2), {"a": RatingTable()}),
     "ratings given for dataset 'a' have no rows"),
    (lambda: DatasetCollection([*_TWO, ConditionId.reference("b")], graph_of(3),
                               {"a": ratings_of([(0, "o1", 1.0), (2, "o1", 1.0)])}),
     "rating for dataset 'a' references condition b/ref/reference/0"),
    (lambda: DatasetCollection(_TWO, graph_of(2)).index_of("a/c1/d/1"),
     "unknown condition 'a/c1/d/1'"),
])
def test_collection_rejects_inconsistent_parts(build, message):
    with pytest.raises(IntegrityError, match=re.escape(message)):
        build()


def _collection(conditions, entries, ratings=None):
    return DatasetCollection(conditions, graph_of(len(conditions), entries), ratings)


class TestConnectedComponents:
    def test_single_comparison_links(self):
        conds = [ConditionId.reference("a"), ConditionId("a", "c0", "d", 1)]
        coll = _collection(conds, {(0, 1): 1})
        assert connected_components(coll).tolist() == [0, 0]

    def test_two_datasets_without_links(self):
        conds = [
            ConditionId.reference("a"),
            ConditionId("a", "c0", "d", 1),
            ConditionId.reference("b"),
            ConditionId("b", "c0", "d", 1),
        ]
        coll = _collection(conds, {(0, 1): 1, (2, 3): 1})
        assert connected_components(coll).tolist() == [0, 0, 1, 1]

    def test_cross_dataset_comparison_merges(self):
        conds = [
            ConditionId.reference("a"),
            ConditionId("a", "c0", "d", 1),
            ConditionId.reference("b"),
            ConditionId("b", "c0", "d", 1),
        ]
        coll = _collection(conds, {(0, 1): 1, (2, 3): 1, (1, 2): 1})
        assert connected_components(coll).tolist() == [0, 0, 0, 0]

    def test_ratings_tie_a_dataset_together(self):
        conds = [
            ConditionId.reference("a"),
            ConditionId("a", "c0", "d", 1),
            ConditionId("a", "c1", "d", 1),
        ]
        table = ratings_of(
            (
                (0, "o1", 3.0),
                (1, "o1", 2.0),
                (2, "o1", 1.0),
            )
        )
        coll = _collection(conds, {}, ratings={"a": table})
        assert connected_components(coll).tolist() == [0, 0, 0]

    def test_partition_property(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            conds = [ConditionId("x", f"c{i}", "d", 1) for i in range(n - 1)]
            conds.append(ConditionId.reference("x"))
            entries = {}
            for _ in range(int(rng.integers(0, 12))):
                i, j = (int(v) for v in rng.integers(0, n, size=2))
                if i != j:
                    entries[(i, j)] = entries.get((i, j), 0) + 1
            coll = _collection(conds, entries)
            labels = connected_components(coll)
            assert labels.shape == (n,) and labels.dtype.kind == "i"
            # components are numbered 0, 1, ... by their smallest member
            firsts = np.unique(labels, return_index=True)[1]
            assert np.array_equal(labels[np.sort(firsts)], np.arange(firsts.size))

    def test_empty_collection(self):
        labels = connected_components(_collection([], {}))
        assert labels.size == 0 and labels.dtype.kind == "i"


class TestLoadCollection:
    def test_minimal_manifest(self, two_condition_manifest):
        coll = load_collection(two_condition_manifest)
        assert coll.n == 2
        i, j, c_ij, c_ji = (col.tolist() for col in coll.graph.pair_arrays())
        assert (i, j, c_ij, c_ji) == ([0], [1], [75], [25])
        assert coll.displays["demo"] == {"L_peak": 100.0, "L_black": 0.5, "gamma": 2.2}
        assert dict(coll.ratings) == {}

    def test_deterministic(self, two_condition_manifest):
        first = load_collection(two_condition_manifest)
        second = load_collection(two_condition_manifest)
        assert first.conditions == second.conditions
        assert first.graph == second.graph

    def test_single_comparison_record(self, tmp_path):
        path = write_two_condition_fixture(tmp_path / "single")
        (path.parent / "comparisons.csv").write_text(
            "cond_a,cond_b,count_a_over_b\ndemo/c0/dist/1,demo/ref/reference/0,1\n"
        )
        coll = load_collection(path)
        assert coll.n == 2
        assert coll.graph.c_ij.sum() + coll.graph.c_ji.sum() == 1

    def test_rating_only_manifest_without_comparisons(self, tmp_path):
        root = tmp_path / "ratingonly"
        root.mkdir()
        (root / "conditions.csv").write_text(
            "condition\nrd/ref/reference/0\nrd/c0/dist/1\nrd/c1/dist/1\n"
        )
        (root / "ratings.csv").write_text(
            "condition,observer,score\n"
            "rd/ref/reference/0,o1,4.8\n"
            "rd/c0/dist/1,o1,3.1\n"
            "rd/c1/dist/1,o1,1.2\n"
        )
        manifest = {
            "datasets": [
                {
                    "name": "rd",
                    "experiment": "rating",
                    "conditions": "conditions.csv",
                    "ratings": "ratings.csv",
                }
            ]
        }
        (root / "manifest.json").write_text(json.dumps(manifest))
        coll = load_collection(root / "manifest.json")
        assert coll.n == 3
        assert coll.graph.c_ij.sum() + coll.graph.c_ji.sum() == 0
        assert len(coll.ratings["rd"]) == 3
        assert connected_components(coll).tolist() == [0, 0, 0]

    def test_byte_order_marks_and_line_ends(self, tmp_path):
        """Each CSV may start with a UTF-8 byte order mark, and its lines may
        end in LF, CRLF or a lone CR, mixed within one file."""
        path = write_two_condition_fixture(tmp_path / "bom")
        expected = load_collection(path)
        for name in ("conditions.csv", "comparisons.csv"):
            csv_path = path.parent / name
            lines = csv_path.read_text(encoding="utf-8").splitlines()
            ends = ["\r", "\r\n", "\n"] * len(lines)
            csv_path.write_bytes(("\ufeff" + "".join(
                line + end for line, end in zip(lines, ends))).encode("utf-8"))
        coll = load_collection(path)
        assert coll.conditions == expected.conditions
        assert coll.graph == expected.graph

    def test_unknown_condition_is_integrity_error(self, tmp_path):
        path = write_two_condition_fixture(tmp_path / "bad")
        comp = path.parent / "comparisons.csv"
        comp.write_text(
            "cond_a,cond_b,count_a_over_b\ndemo/ghost/dist/1,demo/ref/reference/0,1\n"
        )
        with pytest.raises(IntegrityError):
            load_collection(path)

    def test_duplicate_condition(self, tmp_path):
        path = write_two_condition_fixture(tmp_path / "dup")
        (path.parent / "conditions.csv").write_text(
            "condition\ndemo/ref/reference/0\ndemo/ref/reference/0\n"
        )
        with pytest.raises(IntegrityError):
            load_collection(path)

    def test_negative_count(self, tmp_path):
        path = write_two_condition_fixture(tmp_path / "neg")
        (path.parent / "comparisons.csv").write_text(
            "cond_a,cond_b,count_a_over_b\ndemo/c0/dist/1,demo/ref/reference/0,-2\n"
        )
        with pytest.raises(IntegrityError):
            load_collection(path)

    def test_self_comparison(self, tmp_path):
        path = write_two_condition_fixture(tmp_path / "self")
        (path.parent / "comparisons.csv").write_text(
            "cond_a,cond_b,count_a_over_b\ndemo/c0/dist/1,demo/c0/dist/1,2\n"
        )
        with pytest.raises(IntegrityError):
            load_collection(path)

    @pytest.mark.parametrize("text, error", [
        ("cond_a,cond_b,count_a_over_b\ndemo/c0/dist/1,demo/ref/reference/0,2.5\n",
         ParseError),
        ("cond_a,cond_b,count_a_over_b\ndemo/c0/dist/1,demo/ref/reference/0\n", ParseError),
        ("cond_a,count_a_over_b\ndemo/c0/dist/1,2\n", ParseError),
        ("cond_a,cond_b,count_a_over_b\ndemo/c0/dist/1,demo/ghost/dist/1,2\n",
         IntegrityError),
    ])
    def test_malformed_comparison_rows(self, tmp_path, text, error):
        path = write_two_condition_fixture(tmp_path / "rows")
        (path.parent / "comparisons.csv").write_text(text)
        with pytest.raises(error):
            load_collection(path)

    @pytest.mark.parametrize("block_chars", [1, 64])
    @pytest.mark.parametrize("bad_row, error, message", [
        ("demo/c0/dist/1,demo/ref/reference/0", ParseError,
         "fewer than 3 fields: ('demo/c0/dist/1', 'demo/ref/reference/0')"),
        ("demo/c0/dist/1,demo/ghost/dist/1,2", IntegrityError,
         "unknown condition 'demo/ghost/dist/1'"),
        ("demo/c0/dist/1, demo/nobody/dist/1 ,2", IntegrityError,
         "unknown condition 'demo/nobody/dist/1'"),
        ("demo/c0/dist/1,demo/ref/reference/0,many", ParseError,
         "column 'count_a_over_b'"),
    ])
    def test_malformed_row_in_a_later_block(self, tmp_path, monkeypatch, block_chars,
                                            bad_row, error, message):
        """With 64-character blocks the bad row shares a block with a good
        row before it; with 1-character blocks it is a block of its own."""
        monkeypatch.setattr(csvio, "_BLOCK_CHARS", block_chars)
        path = write_two_condition_fixture(tmp_path / "later")
        good = "demo/c0/dist/1,demo/ref/reference/0,1\n"
        comparisons = path.parent / "comparisons.csv"
        comparisons.write_text("cond_a,cond_b,count_a_over_b\n" + good * 81)
        graph = load_collection(path).graph
        assert (graph.c_ij.sum(), graph.c_ji.sum()) == (0, 81)
        comparisons.write_text(
            "cond_a,cond_b,count_a_over_b\n" + good * 41 + bad_row + "\n" + good * 40)
        with pytest.raises(error, match=re.escape(message)):
            load_collection(path)
        monkeypatch.chdir(tmp_path)
        assert main(["scale", "--manifest", "later/manifest.json", "--out", "out"]) == 2

    def test_reading_holds_little_beside_the_columns(self, tmp_path):
        """Reading a comparisons file of 5.5 MB holds its parsed chunks and
        the joined columns, twice the returned bytes (7.2 MB), plus one
        block's temporaries; the limit allows 3 MB more. Blocks of ``1 << 18``
        characters peak at 7.4 MB, ``1 << 20`` at 18.6 MB."""
        keys = [f"big/c{k:04d}/blur/{k % 5}" for k in range(1000)]
        rng = np.random.default_rng(0)
        rows = rng.integers(0, [1000, 1000, 50], size=(150_000, 3)).tolist()
        path = _write(tmp_path / "comparisons.csv", "cond_a,cond_b,count_a_over_b\n" + "".join(
            f"{keys[a]},{keys[b]},{count}\n" for a, b, count in rows))
        condition = model._indices({key: k for k, key in enumerate(keys)}, "comparison")
        parsers = {"cond_a": condition, "cond_b": condition,
                   "count_a_over_b": csvio._cells(int, np.int64)}
        tracemalloc.start()
        try:
            columns = csvio._read_csv(path, parsers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(np.column_stack(columns), rows)
        assert peak <= 2 * sum(column.nbytes for column in columns) + 3 * 2**20

    @pytest.mark.parametrize("rows, error", [
        ("rd/ref/reference/0,o1,4.8\nrd/c0/dist/1,o1,high\n", ParseError),
        ("rd/ref/reference/0,o1,4.8\nrd/c0/dist/1,o1\n", ParseError),
        ("rd/ref/reference/0,o1,4.8\nrd/ghost/dist/1,o1,3.0\n", IntegrityError),
        ("rd/ref/reference/0,o1,4.8\nrd/c0/dist/1,o1,nan\n", IntegrityError),
    ])
    def test_malformed_rating_rows(self, tmp_path, rows, error):
        root = tmp_path / "ratings"
        root.mkdir()
        (root / "conditions.csv").write_text("condition\nrd/ref/reference/0\nrd/c0/dist/1\n")
        (root / "ratings.csv").write_text("condition,observer,score\n" + rows)
        (root / "manifest.json").write_text(json.dumps({"datasets": [{
            "name": "rd", "experiment": "rating",
            "conditions": "conditions.csv", "ratings": "ratings.csv",
        }]}))
        with pytest.raises(error):
            load_collection(root / "manifest.json")

    def test_field_over_the_csv_limit(self, tmp_path, monkeypatch):
        """A field longer than ``csv.field_size_limit()`` is a parse error
        naming the file, wherever it is: in an unquoted row, in a quoted row
        and in the header. A block with a line over the limit is not split
        plainly but read with ``csv.reader``, which enforces the limit."""
        root = tmp_path / "long"
        root.mkdir()
        (root / "conditions.csv").write_text("condition\nrd/ref/reference/0\nrd/c0/dist/1\n")
        (root / "manifest.json").write_text(json.dumps({"datasets": [{
            "name": "rd", "experiment": "rating",
            "conditions": "conditions.csv", "ratings": "ratings.csv",
        }]}))
        ratings = root / "ratings.csv"
        long = "o" * 200_000
        rows = "rd/ref/reference/0,{0},4.8\nrd/c0/dist/1,{0},3.1\n"
        monkeypatch.chdir(tmp_path)
        for text in ("condition,observer,score\n" + rows.format(long),
                     "condition,observer,score\n" + rows.format(f'"{long}"'),
                     f"condition,observer,score,{long}\n" + rows.format("o1")):
            ratings.write_text(text)
            with pytest.raises(ParseError, match="ratings.csv: field larger than field limit"):
                load_collection(root / "manifest.json")
            assert main(["scale", "--manifest", "long/manifest.json", "--out", "out"]) == 2

        # a line over the limit whose fields are all within it loads
        half = "o" * 100_000
        ratings.write_text(f"condition,observer,score,note\nrd/ref/reference/0,o1,4.8,{half}\n"
                           f"rd/c0/dist/1,{half},3.1,{half}\n")
        assert load_collection(root / "manifest.json").ratings["rd"].observers[1] == half

    def test_unknown_fields_warn_not_error(self, tmp_path):
        path = write_two_condition_fixture(tmp_path / "warn")
        manifest = json.loads(path.read_text())
        manifest["future_field"] = {"x": 1}
        manifest["datasets"][0]["shiny"] = True
        path.write_text(json.dumps(manifest))
        with pytest.warns(UserWarning):
            coll = load_collection(path)
        assert coll.n == 2

    def test_rating_dataset_requires_reference(self, tmp_path, capsys):
        """The manifest loads, as ``linkfit`` and ``validate`` need no
        anchor; ``scale`` rejects it, naming the dataset."""
        root = tmp_path / "noref"
        root.mkdir()
        (root / "conditions.csv").write_text("condition\nrd/c0/dist/1\n")
        (root / "ratings.csv").write_text("condition,observer,score\nrd/c0/dist/1,o1,3.0\n")
        manifest = {
            "datasets": [
                {
                    "name": "rd",
                    "experiment": "rating",
                    "conditions": "conditions.csv",
                    "ratings": "ratings.csv",
                }
            ]
        }
        (root / "manifest.json").write_text(json.dumps(manifest))
        assert len(load_collection(root / "manifest.json").ratings["rd"]) == 1
        assert main(["scale", "--manifest", str(root / "manifest.json"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "dataset 'rd' has no reference condition to anchor it" in capsys.readouterr().err

    def test_malformed_manifest_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_collection(bad)

    def test_four_dataset_sizes(self, tmp_path):
        # dataset names and sizes of the four production corpora whose
        # union holds 4159 conditions
        sizes = {"live": 779, "tid2013": 3000, "narwaria": 140, "korshunov": 240}
        root = tmp_path / "four"
        root.mkdir()
        datasets = []
        for name, size in sizes.items():
            lines = ["condition", f"{name}/ref/reference/0"]
            lines += [f"{name}/c{i:04d}/dist/1" for i in range(size - 1)]
            (root / f"{name}.csv").write_text("\n".join(lines) + "\n")
            datasets.append(
                {"name": name, "experiment": "pwc", "conditions": f"{name}.csv"}
            )
        (root / "comparisons.csv").write_text("cond_a,cond_b,count_a_over_b\n")
        (root / "manifest.json").write_text(
            json.dumps({"datasets": datasets, "comparisons": "comparisons.csv"})
        )
        coll = load_collection(root / "manifest.json")
        assert coll.n == 4159
        for name, size in sizes.items():
            assert sum(cond.dataset == name for cond in coll.conditions) == size


def _study(root, datasets, files):
    """A manifest listing ``datasets``, written with ``files`` ({name: text})
    into ``root``; returns the manifest path."""
    root.mkdir(parents=True)
    for name, text in files.items():
        (root / name).write_text(text)
    path = root / "manifest.json"
    path.write_text(json.dumps({"datasets": datasets}))
    return path


_RATED_FILES = {
    "conditions.csv": "condition\nrd/ref/reference/0\nrd/c0/dist/1\n",
    "ratings.csv": "condition,observer,score\nrd/ref/reference/0,o1,3.0\nrd/c0/dist/1,o1,2.0\n"
                   "rd/ref/reference/0,o2,2.5\nrd/c0/dist/1,o2,1.0\n",
    "empty.csv": "condition,observer,score\n",
}
_RATED = {"name": "rd", "experiment": "rating", "conditions": "conditions.csv",
          "ratings": "ratings.csv"}


class TestManifestChecks:
    def test_duplicate_dataset_name(self, tmp_path):
        path = _study(tmp_path / "dup", [_RATED, _RATED], _RATED_FILES)
        with pytest.raises(IntegrityError, match="duplicate dataset 'rd'"):
            load_collection(path)

    def test_unknown_experiment(self, tmp_path):
        path = _study(tmp_path / "mos", [{**_RATED, "experiment": "mos"}], _RATED_FILES)
        with pytest.raises(IntegrityError, match="must be 'pwc' or 'rating', got 'mos'"):
            load_collection(path)

    def test_rating_dataset_without_ratings(self, tmp_path):
        entry = {key: value for key, value in _RATED.items() if key != "ratings"}
        path = _study(tmp_path / "unrated", [entry], _RATED_FILES)
        with pytest.raises(ParseError, match="rating dataset 'rd' has no 'ratings' file"):
            load_collection(path)

    @pytest.mark.parametrize("field, value", [
        ("ratings", None), ("ratings", 5), ("ratings", ["ratings.csv"]),
        ("comparisons", 5), ("comparisons", {"path": "comparisons.csv"}),
    ])
    def test_a_path_that_is_no_string_is_a_parse_error(self, tmp_path, monkeypatch, capsys,
                                                       field, value):
        """Such a value used to be read as the file named by its text, such as "None"."""
        manifest = {"datasets": [_RATED], "comparisons": None}
        if field == "ratings":
            manifest["datasets"] = [{**_RATED, "ratings": value}]
        else:
            manifest["comparisons"] = value
        path = _study(tmp_path / "paths", [], _RATED_FILES)
        path.write_text(json.dumps(manifest))
        expected = ("dataset 'rd': 'ratings' must be a path" if field == "ratings"
                    else f"manifest {path}: 'comparisons' must be a path or null")
        with pytest.raises(ParseError, match=re.escape(expected)):
            load_collection(path)
        monkeypatch.chdir(tmp_path)
        assert main(["scale", "--manifest", str(path), "--out", "out"]) == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("entry, error, message", [
        ({"conditions": []}, ParseError, "each dataset entry must be an object with a 'name'"),
        ({"name": "rd"}, ParseError, "dataset 'rd' has no 'conditions'"),
        ({"name": "rd", "conditions": 5}, ParseError,
         "dataset 'rd': 'conditions' must be a path or a list"),
        ({"name": "rd", "conditions": ["xd/ref/reference/0"]}, IntegrityError,
         "condition xd/ref/reference/0 listed under dataset 'rd'"),
    ])
    def test_malformed_dataset_entry(self, tmp_path, entry, error, message):
        path = _study(tmp_path / "entry", [entry], {})
        with pytest.raises(error, match=re.escape(message)):
            load_collection(path)

    def test_null_comparisons_means_none(self, tmp_path):
        path = _study(tmp_path / "none", [], _RATED_FILES)
        path.write_text(json.dumps({"datasets": [_RATED], "comparisons": None}))
        assert load_collection(path).graph.pair_arrays()[0].size == 0

    def test_pwc_dataset_with_ratings_is_rated(self, tmp_path):
        path = _study(tmp_path / "pwc", [{**_RATED, "experiment": "pwc"}], _RATED_FILES)
        assert len(load_collection(path).ratings["rd"]) == 4

    @pytest.mark.parametrize("what, extra", [
        ("ratings", {"experiment": "rating", "ratings": "empty.csv"}),
        ("a display", {"display": {"L_peak": 100.0, "L_black": 0.5}}),
    ])
    def test_keyed_by_a_dataset_without_conditions(self, tmp_path, monkeypatch, what, extra):
        path = _study(tmp_path / "ghost", [_RATED], _RATED_FILES)
        monkeypatch.chdir(tmp_path)
        assert main(["scale", "--manifest", "ghost/manifest.json", "--out", "out"]) == 0
        path.write_text(json.dumps(
            {"datasets": [_RATED, {"name": "ghost", "conditions": [], **extra}]}))
        with pytest.raises(IntegrityError, match=f"{what} given for dataset 'ghost', "
                                                 "which has no condition"):
            load_collection(path)
        assert main(["scale", "--manifest", "ghost/manifest.json", "--out", "out"]) == 2

    @pytest.mark.parametrize("display", ["[1, 2]"])
    def test_malformed_display_is_a_data_error(self, tmp_path, monkeypatch, capsys, display):
        path = _study(tmp_path / "disp", [{**_RATED, "display": "DISPLAY"}], _RATED_FILES)
        path.write_text(path.read_text().replace('"DISPLAY"', display))
        monkeypatch.chdir(tmp_path)
        assert main(["scale", "--manifest", "disp/manifest.json", "--out", "out"]) == 2
        assert "display" in capsys.readouterr().err

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    @pytest.mark.parametrize("where", ["display", "elsewhere"])
    def test_a_manifest_number_that_is_no_finite_float_is_a_parse_error(
            self, tmp_path, monkeypatch, capsys, number, where):
        """Python's ``json`` reads these as NaN or an infinity, which JSON
        cannot write back."""
        entry = {**_RATED, "display": {"L_peak": "NUMBER", "L_black": 0.5}}
        if where == "elsewhere":
            entry = {**_RATED, "note": [{"weight": "NUMBER"}]}
        path = _study(tmp_path / "num", [entry], _RATED_FILES)
        path.write_text(path.read_text().replace('"NUMBER"', number))
        with pytest.raises(ParseError, match=f"manifest {re.escape(str(path))} is not valid "
                                             f"JSON: number {number} is NaN, infinite"):
            load_collection(path)
        monkeypatch.chdir(tmp_path)
        assert main(["scale", "--manifest", "num/manifest.json", "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "num/manifest.json" in err
        assert not (tmp_path / "out" / "scale.csv").exists()

    def test_a_deeply_nested_manifest_is_a_parse_error(self, tmp_path, monkeypatch, capsys):
        path = _study(tmp_path / "deep", [_RATED], _RATED_FILES)
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ParseError, match="nested too deeply"):
            load_collection(path)
        monkeypatch.chdir(tmp_path)
        assert main(["scale", "--manifest", "deep/manifest.json", "--out", "out"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("datasets", ["5", "null", '"rd"', "{}"])
    def test_datasets_not_a_list_is_a_data_error(self, tmp_path, monkeypatch, capsys, datasets):
        path = _study(tmp_path / "odd", [_RATED], _RATED_FILES)
        path.write_text(json.dumps({"datasets": "DATASETS"}).replace('"DATASETS"', datasets))
        monkeypatch.chdir(tmp_path)
        assert main(["scale", "--manifest", "odd/manifest.json", "--out", "out"]) == 2
        assert "must be an object with a 'datasets' list" in capsys.readouterr().err

    def test_collection_rejects_ratings_or_display_of_an_unknown_dataset(self):
        conds = [ConditionId.reference("a"), ConditionId("a", "c0", "d", 1)]
        graph = graph_of(2, {(0, 1): 3})
        with pytest.raises(IntegrityError, match="ratings given for dataset 'b'"):
            DatasetCollection(conds, graph, {"b": ratings_of(())})
        with pytest.raises(IntegrityError, match="a display given for dataset 'b'"):
            DatasetCollection(conds, graph, displays={"b": {"L_peak": 100.0, "L_black": 0.5}})


class TestSaveCollection:
    def test_layout_and_quoted_observers(self, tmp_path):
        conds = [ConditionId.reference("a"), ConditionId("a", "c0", "d", 1),
                 ConditionId.reference("b")]
        table = ratings_of(((0, "x,y", 1.5), (1, 'say "hi"', -0.25)))
        coll = DatasetCollection(conds, graph_of(3, {(0, 2): 4, (2, 0): 1}), {"a": table},
                                 {"b": {"L_peak": 200.0, "L_black": 0.1, "gamma": 2.4}})
        path = save_collection(coll, tmp_path)
        assert path == tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest == {"comparisons": "comparisons.csv", "datasets": [
            {"name": "a", "experiment": "rating", "conditions": "conditions_a.csv",
             "ratings": "ratings_a.csv"},
            {"name": "b", "experiment": "pwc", "conditions": "conditions_b.csv",
             "display": {"L_peak": 200.0, "L_black": 0.1, "gamma": 2.4}},
        ]}
        assert (tmp_path / "ratings_a.csv").read_text() == (
            "condition,observer,score\n"
            'a/ref/reference/0,"x,y",1.5\n'
            'a/c0/d/1,"say ""hi""",-0.25\n'
        )
        again = load_collection(path)
        assert again.conditions == coll.conditions and again.graph == coll.graph
        assert again.ratings["a"] == table and dict(again.displays) == dict(coll.displays)

    def test_a_display_round_trips_verbatim(self, tmp_path):
        """A display is carried as the manifest wrote it: no key is added,
        dropped or converted, a bool included."""
        display = {"L_peak": 4000.0, "L_black": 0.005, "eotf": "relative-linear",
                   "calibrated": True, "primaries": [0.64, 0.33]}
        path = _study(tmp_path / "hdr", [{**_RATED, "display": display}], _RATED_FILES)
        coll = load_collection(path)
        assert coll.displays["rd"] == display
        with pytest.raises(TypeError):
            coll.displays["rd"]["gamma"] = 2.2
        (tmp_path / "copy").mkdir()
        saved = json.loads(save_collection(coll, tmp_path / "copy").read_text())
        assert saved["datasets"][0]["display"] == display
        assert load_collection(tmp_path / "copy" / "manifest.json").displays == coll.displays
