"""Domain types and the study layout on disk.

A collection bundles the conditions of every source dataset together with
the pairwise win counts and per-dataset rating tables, both held as
columnar numpy arrays, and each dataset's display as the manifest wrote it.
Dataset names come from the conditions, and a dataset is rated exactly when
it has ratings, in a table of at least one row. Collections are immutable
after construction and safe to share read-only across threads.
``load_collection`` reads and ``save_collection`` writes this layout:

manifest JSON
    ``{"datasets": [...], "comparisons": "comparisons.csv"}`` where each
    dataset entry carries ``name``, ``experiment`` ("pwc" or "rating"),
    ``display`` (any JSON object describing the study's display, such as
    ``{"L_peak": .., "L_black": .., "gamma": ..}``, carried as written and
    never read), ``conditions`` (CSV path or inline list of condition ids)
    and, for rated datasets, ``ratings`` (CSV path); ``comparisons`` is a
    CSV path or null. Paths are strings, resolved relative to the manifest.
    Unknown fields are ignored with a warning. A number that is NaN,
    infinite or too large for a float is a parse error anywhere in the
    manifest. ``experiment`` is written "rating" exactly for a rated
    dataset; on read, a "rating" dataset needs ``ratings``, and a "pwc" one
    with ``ratings`` is rated.
conditions CSV (``conditions_<name>.csv``)
    header ``condition``; ids are ``dataset/content/distortion/level``.
comparisons CSV (``comparisons.csv``)
    header ``cond_a,cond_b,count_a_over_b``.
ratings CSV (``ratings_<name>.csv``)
    header ``condition,observer,score``.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

from .csvio import _cells, _quoted, _read_csv, _write_csv, _write_json
from .errors import IntegrityError, ParseError

REFERENCE_DISTORTION = "reference"

_KNOWN_MANIFEST_KEYS = {"datasets", "comparisons"}
_KNOWN_DATASET_KEYS = {"name", "experiment", "display", "conditions", "ratings"}
# "/" separates a condition id's parts; the others would break the CSV row
_FORBIDDEN_IN_ID = re.compile('[/,"\r\n]')


@dataclass(frozen=True, slots=True)
class ConditionId:
    """Identity of one compared item: a content at one distortion level.

    Reference conditions (the undistorted anchors that pin the scale at
    quality zero) are encoded as ``distortion="reference"``, ``level=0``.
    """

    dataset: str
    content: str
    distortion: str
    level: int

    def __post_init__(self):
        for part in (self.dataset, self.content, self.distortion):
            if not part or _FORBIDDEN_IN_ID.search(part):
                raise IntegrityError(f"bad condition id component {part!r} (empty, or "
                                     "holding '/', ',', '\"', CR or LF)")

    @property
    def is_reference(self) -> bool:
        return self.distortion == REFERENCE_DISTORTION and self.level == 0

    @property
    def key(self) -> str:
        return f"{self.dataset}/{self.content}/{self.distortion}/{self.level}"

    @classmethod
    def parse(cls, text: str) -> "ConditionId":
        parts = text.strip().split("/")
        if len(parts) != 4:
            raise ParseError(f"condition id {text!r} must have four '/'-separated parts")
        try:
            level = int(parts[3])
        except ValueError as exc:
            raise ParseError(f"condition id {text!r} has a non-integer level") from exc
        return cls(parts[0], parts[1], parts[2], level)

    @classmethod
    def reference(cls, dataset: str) -> "ConditionId":
        return cls(dataset, "ref", REFERENCE_DISTORTION, 0)


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype).reshape(-1)
    array.flags.writeable = False
    return array


def _same_columns(a, b) -> bool:
    """Equality of two column holders: same type, equal ``__slots__`` values."""
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in a.__slots__
    )


class ComparisonGraph:
    """Pairwise win counts as canonical columnar arrays.

    ``i`` and ``j`` hold the unordered measured pairs (``i < j``, unique,
    sorted by ``(i, j)``); ``c_ij[k]`` counts how often ``i[k]`` was chosen
    over ``j[k]`` and ``c_ji[k]`` the reverse. Pairs without any comparison
    are not stored, and the dense matrix is never materialized.

    The constructor takes ordered observations: condition ``winners[k]`` was
    chosen over ``losers[k]`` ``counts[k]`` times. Repeated and mirrored
    rows are summed. Self comparisons are forbidden and counts must be
    non-negative integers. The build sorts the rows once by pair key
    ``min * n + max``, a sort that rows already in key order skip (as each
    pair's two directed rows side by side, in pair order), and then sums
    each direction over the runs of equal keys; the caller's arrays are
    never written.
    """

    __slots__ = ("n", "i", "j", "c_ij", "c_ji")

    def __init__(self, n: int, winners=(), losers=(), counts=()):
        if n < 0:
            raise IntegrityError(f"graph size must be non-negative, got {n}")
        self.n = int(n)
        winners = np.asarray(winners).reshape(-1)
        losers = np.asarray(losers).reshape(-1)
        counts = np.asarray(counts).reshape(-1)
        if not winners.size == losers.size == counts.size:
            raise IntegrityError("winners, losers and counts must have equal lengths")
        for bad, problem in (
            ((winners < 0) | (winners >= n) | (losers < 0) | (losers >= n),
             "has a condition index out of range"),
            (winners == losers, "is a self-comparison, which is forbidden"),
            (counts < 0 if np.issubdtype(counts.dtype, np.integer) else
             ~np.isfinite(counts) | (counts < 0) | (counts != np.floor(counts)),
             "needs a non-negative integer count"),
        ):
            if bad.any():
                k = int(np.argmax(bad))
                raise IntegrityError(f"pair ({winners[k]}, {losers[k]}) {problem}")
        winners, losers, counts = (c.astype(np.int64, copy=False) for c in (winners, losers, counts))
        stride = max(self.n, 1)
        keys = np.minimum(winners, losers)
        keys *= stride
        keys += np.maximum(winners, losers)
        # a row won by the higher index counts toward c_ji
        reverse = winners > losers
        if not (keys[:-1] <= keys[1:]).all():
            # integer sums do not depend on the order within a run: no stable sort needed
            order = np.argsort(keys)
            keys = keys[order]
            reverse = reverse[order]
            counts = counts[order]
            del order
        # the first row of each run of equal keys
        starts = np.flatnonzero(np.concatenate(([keys.size > 0], keys[1:] != keys[:-1])))
        keys = keys[starts]
        # each direction is summed on its own, so each keeps the full int64 range
        c_ij = np.add.reduceat(counts * ~reverse, starts)
        c_ji = np.add.reduceat(counts * reverse, starts)
        del reverse, counts, starts  # freed before the pair columns are made
        measured = (c_ij != 0) | (c_ji != 0)
        keys, c_ij, c_ji = keys[measured], c_ij[measured], c_ji[measured]
        self.i, self.j, self.c_ij, self.c_ji = keys // stride, keys % stride, c_ij, c_ji
        for column in self.pair_arrays():
            column.flags.writeable = False

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The measured pairs as (I, J, C_ij, C_ji)."""
        return self.i, self.j, self.c_ij, self.c_ji

    def observations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Non-zero directed counts as (winners, losers, counts), sorted by
        (winner, loser): the constructor's input form."""
        winners = np.concatenate([self.j, self.i])
        losers = np.concatenate([self.i, self.j])
        counts = np.concatenate([self.c_ji, self.c_ij])
        # one stable sort on the winner is enough: per winner, each half's rows
        # are sorted by loser, and the first half's losers lie below the second's
        order = np.argsort(winners, kind="stable")
        order = order[counts[order] > 0]
        return winners[order], losers[order], counts[order]

    __eq__ = _same_columns

    def __repr__(self):
        return f"ComparisonGraph(n={self.n}, pairs={self.i.size})"


class RatingTable:
    """Per-observer rating measurements for one dataset, one row per rating
    in file order.

    Repeated (condition, observer) rows are kept as separate sessions; the
    implicit session label is the occurrence index.
    """

    __slots__ = ("condition_indices", "observers", "scores")

    def __init__(self, condition_indices=(), observers=(), scores=()):
        self.condition_indices = _frozen(condition_indices, np.int64)
        self.observers = _frozen(observers, str)
        self.scores = _frozen(scores, float)
        if not self.condition_indices.size == self.observers.size == self.scores.size:
            raise IntegrityError("rating columns must have equal lengths")

    def __len__(self) -> int:
        return self.scores.size

    __eq__ = _same_columns


class DatasetCollection:
    """Validated, immutable bundle of conditions, comparisons, ratings and
    displays; ``ratings`` and ``displays`` are keyed by dataset name. A
    display is a read-only view of a copy of the JSON object given for it.

    The collection keeps its conditions and rating rows in file order. The
    solver's layouts (the pair layout, the components and each table's
    rows grouped by condition) belong to ``scaling.PosteriorProblem``.
    """

    def __init__(
        self,
        conditions: Iterable[ConditionId],
        graph: ComparisonGraph,
        ratings: Mapping[str, RatingTable] | None = None,
        displays: Mapping[str, Mapping] | None = None,
    ):
        self.conditions: tuple[ConditionId, ...] = tuple(conditions)
        self.graph = graph
        self.ratings: Mapping[str, RatingTable] = MappingProxyType(dict(ratings or {}))
        self.displays: Mapping[str, Mapping] = MappingProxyType(
            {name: MappingProxyType(dict(display)) for name, display in (displays or {}).items()})
        self._index = {}
        for idx, cond in enumerate(self.conditions):
            if cond.key in self._index:
                raise IntegrityError(f"duplicate condition {cond.key}")
            self._index[cond.key] = idx
        self._validate()

    def _validate(self) -> None:
        if self.graph.n != len(self.conditions):
            raise IntegrityError(
                f"graph is sized for {self.graph.n} conditions, "
                f"collection has {len(self.conditions)}"
            )
        datasets = np.array([cond.dataset for cond in self.conditions], dtype=str)
        names = set(datasets.tolist())
        for what, keyed in (("ratings", self.ratings), ("a display", self.displays)):
            if unknown := sorted(set(keyed) - names):
                raise IntegrityError(
                    f"{what} given for dataset {unknown[0]!r}, which has no condition"
                )
        for name, table in self.ratings.items():
            if not len(table):
                raise IntegrityError(f"ratings given for dataset {name!r} have no rows")
            idx = table.condition_indices
            outside = (idx < 0) | (idx >= self.n)
            if outside.any():
                raise IntegrityError(
                    f"rating references condition index {idx[outside][0]} out of range"
                )
            foreign = datasets[idx] != name
            if foreign.any():
                raise IntegrityError(
                    f"rating for dataset {name!r} references condition "
                    f"{self.conditions[idx[foreign][0]].key}"
                )
            nonfinite = ~np.isfinite(table.scores)
            if nonfinite.any():
                raise IntegrityError(
                    f"non-finite rating score for {self.conditions[idx[nonfinite][0]].key}"
                )

    @property
    def n(self) -> int:
        return len(self.conditions)

    def index_of(self, key: str) -> int:
        try:
            return self._index[key]
        except KeyError:
            raise IntegrityError(f"unknown condition {key!r}") from None

    def reference_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.conditions) if c.is_reference]


def _indices(index: Mapping[str, int], what: str) -> Callable:
    """A ``_read_csv`` parser mapping condition keys, stripped of outer
    whitespace, to indices; an unknown key is an integrity error."""
    def parse(keys):
        out = np.fromiter(map(index.get, keys, repeat(-1)), np.int64, len(keys))
        # keys in ``index`` carry no outer whitespace, so only misses need stripping
        misses = np.flatnonzero(out < 0)
        if misses.size:
            stripped = [keys[k].strip() for k in misses.tolist()]
            found = np.fromiter(map(index.get, stripped, repeat(-1)), np.int64, misses.size)
            if np.any(found < 0):
                key = stripped[int(np.argmax(found < 0))]
                raise IntegrityError(f"{what} references unknown condition {key!r}")
            out[misses] = found
        return out

    return parse


def _load_conditions(spec, base: Path, dataset: str) -> list[ConditionId]:
    if isinstance(spec, list):
        texts = [str(item) for item in spec]
    elif isinstance(spec, str):
        texts = _read_csv(base / spec, {"condition": _cells(str, str)})[0].tolist()
    else:
        raise ParseError(f"dataset {dataset!r}: 'conditions' must be a path or a list")
    out = []
    for text in texts:
        cond = ConditionId.parse(text)
        if cond.dataset != dataset:
            raise IntegrityError(
                f"condition {cond.key} listed under dataset {dataset!r}"
            )
        out.append(cond)
    return out


def _finite_float(text: str) -> float:
    """The JSON number ``text`` as a float; NaN, an infinity and a number
    too large for a float raise ``ValueError``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is NaN, infinite or too large for a float")
    return value


def load_collection(manifest_path) -> DatasetCollection:
    """Load and validate a dataset collection from a manifest file.

    Loading is deterministic: identical files produce identical in-memory
    collections regardless of map iteration order.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            raw = json.load(handle, parse_constant=_finite_float, parse_float=_finite_float)
    except OSError as exc:
        raise ParseError(f"cannot open manifest {manifest_path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"manifest {manifest_path} is not valid UTF-8: {exc}") from exc
    except ValueError as exc:  # malformed JSON or a number _finite_float rejects
        raise ParseError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"manifest {manifest_path} is nested too deeply to parse") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("datasets"), list):
        raise ParseError(f"manifest {manifest_path} must be an object with a 'datasets' list")

    for key in sorted(set(raw) - _KNOWN_MANIFEST_KEYS):
        warnings.warn(f"ignoring unknown manifest field {key!r}", stacklevel=2)

    conditions: list[ConditionId] = []
    seen: set[str] = set()
    displays: dict[str, dict] = {}
    rating_paths: dict[str, Path] = {}

    for entry in raw["datasets"]:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ParseError("each dataset entry must be an object with a 'name'")
        name = str(entry["name"])
        if name in seen:
            raise IntegrityError(f"duplicate dataset {name!r} in manifest")
        seen.add(name)
        for key in sorted(set(entry) - _KNOWN_DATASET_KEYS):
            warnings.warn(f"dataset {name!r}: ignoring unknown field {key!r}", stacklevel=2)
        if "display" in entry:
            if not isinstance(entry["display"], dict):
                raise ParseError(f"dataset {name!r}: display must be an object")
            displays[name] = entry["display"]
        experiment = str(entry.get("experiment", "pwc"))
        if experiment not in ("pwc", "rating"):
            raise IntegrityError(
                f"dataset {name!r}: experiment must be 'pwc' or 'rating', got {experiment!r}"
            )
        if "conditions" not in entry:
            raise ParseError(f"dataset {name!r} has no 'conditions'")
        conditions.extend(_load_conditions(entry["conditions"], base, name))
        if experiment == "rating" and "ratings" not in entry:
            raise ParseError(f"rating dataset {name!r} has no 'ratings' file")
        if "ratings" in entry:
            if not isinstance(entry["ratings"], str):
                raise ParseError(f"dataset {name!r}: 'ratings' must be a path")
            rating_paths[name] = base / entry["ratings"]

    index = {cond.key: idx for idx, cond in enumerate(conditions)}
    winners = losers = counts = ()
    if (comparisons := raw.get("comparisons")) is not None:
        if not isinstance(comparisons, str):
            raise ParseError(f"manifest {manifest_path}: 'comparisons' must be a path or null")
        condition = _indices(index, "comparison")
        winners, losers, counts = _read_csv(
            base / comparisons,
            {"cond_a": condition, "cond_b": condition, "count_a_over_b": _cells(int, np.int64)},
        )

    ratings: dict[str, RatingTable] = {}
    for name, path in sorted(rating_paths.items()):
        ratings[name] = RatingTable(*_read_csv(path, {
            "condition": _indices(index, "rating"),
            "observer": _cells(str.strip, str),
            "score": _cells(float, float),
        }))

    graph = ComparisonGraph(len(conditions), winners, losers, counts)
    return DatasetCollection(conditions, graph, ratings, displays)


def save_collection(collection: DatasetCollection, directory) -> Path:
    """Write ``collection`` into the existing ``directory`` as the manifest
    and CSV files ``load_collection`` reads, one conditions file (and, for a
    rated dataset, one ratings file) per dataset in name order; return the
    manifest path."""
    directory = Path(directory)
    keys = np.array([cond.key for cond in collection.conditions], dtype=object)
    datasets = []
    for name in sorted({cond.dataset for cond in collection.conditions}):
        entry = {"name": name, "experiment": "rating" if name in collection.ratings else "pwc",
                 "conditions": f"conditions_{name}.csv"}
        _write_csv(directory / entry["conditions"], "condition", "{}\n",
                   [cond.key for cond in collection.conditions if cond.dataset == name])
        if name in collection.displays:
            entry["display"] = dict(collection.displays[name])
        if name in collection.ratings:
            table = collection.ratings[name]
            entry["ratings"] = f"ratings_{name}.csv"
            _write_csv(directory / entry["ratings"], "condition,observer,score", "{},{},{!r}\n",
                       keys[table.condition_indices].tolist(), _quoted(table.observers.tolist()),
                       table.scores.tolist())
        datasets.append(entry)
    winners, losers, counts = collection.graph.observations()
    values, inverse = np.unique(counts, return_inverse=True)  # format each count once
    _write_csv(directory / "comparisons.csv", "cond_a,cond_b,count_a_over_b", "{},{},{}\n",
               keys[winners].tolist(), keys[losers].tolist(),
               values.astype(str).astype(object)[inverse].tolist())
    manifest = directory / "manifest.json"
    _write_json(manifest, {"datasets": datasets, "comparisons": "comparisons.csv"})
    return manifest
