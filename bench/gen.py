"""The benchmark's own study generator.

It follows the observer model of ``jodscale.simulate`` but shares no code or
random stream with it, so a change to the program's generator does not change
what the solver workloads scale:

* Thurstone Case V with sigma = 1.048: the wins of i over j are binomial in
  Phi((q_i - q_j) / (sqrt(2) sigma));
* ratings are Gaussian around (q - b) / a with spread c * sigma;
* the first dataset is pairwise, the others are rating datasets;
* pairs are dense within each dataset, plus a chain of cross-dataset pairs
  and ``density * n`` random cross-dataset extras.

The ground truth stays in the returned ``Study`` for the checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

SIGMA = 1.048


@dataclass(frozen=True)
class Study:
    keys: list[str]
    dataset: np.ndarray  # dataset index of each condition
    names: list[str]
    is_ref: np.ndarray
    q: np.ndarray  # true JOD scores, 0 at references
    links: dict[str, tuple[float, float, float]]  # rating dataset -> (a, b, c)
    pair_i: np.ndarray
    pair_j: np.ndarray
    wins_ij: np.ndarray
    wins_ji: np.ndarray
    ratings: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]  # (condition, observer, score)

    @property
    def n(self) -> int:
        return len(self.keys)


def _conditions(n_conditions: int, n_datasets: int):
    sizes = [n_conditions // n_datasets + (d < n_conditions % n_datasets)
             for d in range(n_datasets)]
    names = [f"ds{d}" for d in range(n_datasets)]
    keys, dataset = [], []
    for d, size in enumerate(sizes):
        keys.append(f"{names[d]}/ref/reference/0")
        keys.extend(f"{names[d]}/c{t:04d}/dist/1" for t in range(size - 1))
        dataset.extend([d] * size)
    return names, sizes, keys, np.asarray(dataset)


def make_study(rng: np.random.Generator, n_conditions: int, n_datasets: int,
               trials: int, observers: int, density: float) -> Study:
    names, sizes, keys, dataset = _conditions(n_conditions, n_datasets)
    n = len(keys)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    is_ref = np.zeros(n, dtype=bool)
    is_ref[starts] = True
    q = np.where(is_ref, 0.0, rng.uniform(-5.0, 0.0, n))
    links = {name: (float(rng.uniform(0.6, 1.6)), float(rng.uniform(-2.0, 2.0)),
                    float(rng.uniform(0.5, 1.2)))
             for name in names[1:]}

    dense = [np.triu_indices(size, 1) for size in sizes]
    pair_i = [start + i for start, (i, _) in zip(starts, dense)]
    pair_j = [start + j for start, (_, j) in zip(starts, dense)]
    cross: set[tuple[int, int]] = set()
    for d in range(1, n_datasets):
        i = int(rng.integers(starts[d - 1], starts[d - 1] + sizes[d - 1]))
        j = int(rng.integers(starts[d], starts[d] + sizes[d]))
        cross.add((i, j))
    n_extra = round(density * n_conditions)
    chain = len(cross)
    while len(cross) < chain + n_extra:
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if dataset[i] != dataset[j]:
            cross.add((min(i, j), max(i, j)))
    cross_pairs = np.asarray(sorted(cross), dtype=np.int64).reshape(-1, 2)
    pair_i = np.concatenate(pair_i + [cross_pairs[:, 0]])
    pair_j = np.concatenate(pair_j + [cross_pairs[:, 1]])

    p = ndtr((q[pair_i] - q[pair_j]) / (math.sqrt(2.0) * SIGMA))
    wins_ij = rng.binomial(trials, p)
    ratings = {}
    for d, name in enumerate(names[1:], start=1):
        a, b, c = links[name]
        members = np.flatnonzero(dataset == d)
        cond = np.repeat(members, observers)
        observer = np.tile(np.arange(observers), members.size)
        score = (q[cond] - b) / a + rng.normal(0.0, c * SIGMA, cond.size)
        ratings[name] = (cond, observer, score)
    return Study(keys, dataset, names, is_ref, q, links, pair_i, pair_j,
                 wins_ij, trials - wins_ij, ratings)


def shuffled(study: Study, rng: np.random.Generator) -> Study:
    """The same study with its conditions listed in another order within each
    dataset, its comparison pairs oriented either way and all rows shuffled.
    The program's result must not depend on any of these."""
    position = np.arange(study.n)
    for d in range(len(study.names)):
        members = np.flatnonzero(study.dataset == d)
        position[members] = rng.permutation(members)
    keys = [""] * study.n
    for old, new in enumerate(position.tolist()):
        keys[new] = study.keys[old]
    q, is_ref = np.empty_like(study.q), np.empty_like(study.is_ref)
    q[position], is_ref[position] = study.q, study.is_ref
    rows = rng.permutation(study.pair_i.size)
    flip = rng.random(rows.size) < 0.5
    pair_i, pair_j = position[study.pair_i[rows]], position[study.pair_j[rows]]
    wins_ij, wins_ji = study.wins_ij[rows], study.wins_ji[rows]
    ratings = {}
    for name, (cond, observer, score) in study.ratings.items():
        order = rng.permutation(cond.size)
        ratings[name] = (position[cond[order]], observer[order], score[order])
    return Study(keys, study.dataset, study.names, is_ref, q, study.links,
                 np.where(flip, pair_j, pair_i), np.where(flip, pair_i, pair_j),
                 np.where(flip, wins_ji, wins_ij), np.where(flip, wins_ij, wins_ji), ratings)


def write_study(study: Study, out: Path) -> Path:
    """Write the study as a jodscale manifest with its CSVs; return the manifest path."""
    out.mkdir(parents=True, exist_ok=True)
    keys = study.keys
    datasets = []
    for d, name in enumerate(study.names):
        members = np.flatnonzero(study.dataset == d)
        (out / f"conditions_{name}.csv").write_text(
            "condition\n" + "".join(keys[i] + "\n" for i in members))
        entry = {"name": name, "experiment": "rating" if d else "pwc",
                 "conditions": f"conditions_{name}.csv"}
        if name in study.ratings:
            cond, observer, score = study.ratings[name]
            entry["ratings"] = f"ratings_{name}.csv"
            (out / entry["ratings"]).write_text("condition,observer,score\n" + "".join(
                f"{keys[c]},o{o:03d},{s!r}\n"
                for c, o, s in zip(cond.tolist(), observer.tolist(), score.tolist())))
        datasets.append(entry)
    rows = ["cond_a,cond_b,count_a_over_b\n"]
    for i, j, cij, cji in zip(study.pair_i.tolist(), study.pair_j.tolist(),
                              study.wins_ij.tolist(), study.wins_ji.tolist()):
        if cij:
            rows.append(f"{keys[i]},{keys[j]},{cij}\n")
        if cji:
            rows.append(f"{keys[j]},{keys[i]},{cji}\n")
    (out / "comparisons.csv").write_text("".join(rows))
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps(
        {"datasets": datasets, "comparisons": "comparisons.csv"}, indent=2) + "\n")
    return manifest


def write_selection_inputs(study: Study, noise_rng: np.random.Generator,
                           order_rng: np.random.Generator, out: Path):
    """Write a scale CSV of the true scores and two metric CSVs that see them
    through independent noise drawn from ``noise_rng``, with rows in an order
    drawn from ``order_rng``. Return the three paths, then the keys, scores
    and metric values in file order, exactly as the program will parse them."""
    out.mkdir(parents=True, exist_ok=True)
    test = study.q + noise_rng.normal(0.0, 0.6, study.n)
    bench = study.q + noise_rng.normal(0.0, 0.6, study.n)
    order = order_rng.permutation(study.n)
    keys = [study.keys[i] for i in order]
    jod = [f"{v:.6f}" for v in study.q[order].tolist()]
    paths = [out / "scale.csv", out / "metric_test.csv", out / "metric_bench.csv"]
    paths[0].write_text("condition,jod,ci_low,ci_high\n" + "".join(
        f"{k},{v},,\n" for k, v in zip(keys, jod)))
    for path, score in zip(paths[1:], (test[order], bench[order])):
        path.write_text("condition,score\n" + "".join(
            f"{k},{v!r}\n" for k, v in zip(keys, score.tolist())))
    return (*paths, keys, np.array([float(v) for v in jod]), test[order], bench[order])
