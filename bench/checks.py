"""Checks of the program's outputs, computed apart from the program.

Every check reads the files the program wrote and raises ``CheckFailed`` on
the first violation. The reference values come from the benchmark's own
ground truth, its own numpy/scipy log-posterior and brute-force selections,
or from properties the method must have, never from a stored copy of an
earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtr
from scipy.stats import spearmanr

from gen import SIGMA, Study

ROUNDING = 5e-7  # half a unit in the 6th decimal of scale.csv
SOLVER_TOL = 1e-6  # the --tol default that `scale --strict` enforces
MIN_SROCC = 0.99
MAX_RMSE = 0.1
# A percentile interval from 20 exchangeable replicates covers a fresh draw
# with probability 0.873 (2.5th/97.5th percentiles, linear interpolation).
# The conditions share their resamples and link errors, so the share covered
# moves with the bootstrap seed: 0.79 to 0.90 on bootstrap-mid over 13 seeds,
# standard deviation about 0.035. 0.7 sits about 5 of them below the nominal
# share; there, intervals of half the width cover 0.44 to 0.52, and intervals
# moved by one width at most 0.18.
MIN_COVERAGE = 0.7


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def read_scale(path: Path) -> dict[str, list[str]]:
    rows = _rows(path)
    return {col: [row[col] for row in rows] for col in ("condition", "jod", "ci_low", "ci_high")}


# --- log-posterior of the model, written from its definition -------------

def _load_inputs(manifest: Path, keys: list[str]):
    index = {key: i for i, key in enumerate(keys)}
    base = manifest.parent
    spec = json.loads(manifest.read_text())
    pairs: dict[tuple[int, int], list[int]] = {}
    for row in _rows(base / spec["comparisons"]):
        i, j = index[row["cond_a"]], index[row["cond_b"]]
        wins = pairs.setdefault((min(i, j), max(i, j)), [0, 0])
        wins[0 if i < j else 1] += int(row["count_a_over_b"])
    ij = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    counts = np.array([pairs[tuple(p)] for p in ij.tolist()], dtype=float).reshape(-1, 2)
    ratings = {}
    for entry in spec["datasets"]:
        if "ratings" in entry:
            rows = _rows(base / entry["ratings"])
            ratings[entry["name"]] = (np.array([index[r["condition"]] for r in rows]),
                                      np.array([float(r["score"]) for r in rows]))
    return ij, counts, ratings


def log_posterior(q, links, ij, counts, ratings, prior=True):
    """Value, gradient over (q, then log a, b, log c per sorted rating
    dataset) and row sums of |Hessian| over the q columns."""
    n = q.size
    s = 1.0 / (math.sqrt(2.0) * SIGMA)
    i, j = ij[:, 0], ij[:, 1]
    cij, cji = counts[:, 0], counts[:, 1]
    z = (q[i] - q[j]) * s
    lp_pos, lp_neg = log_ndtr(z), log_ndtr(-z)
    value = float(np.sum(gammaln(cij + cji + 1) - gammaln(cij + 1) - gammaln(cji + 1)
                         + cij * lp_pos + cji * lp_neg))
    log_pdf = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
    h_pos, h_neg = np.exp(log_pdf - lp_pos), np.exp(log_pdf - lp_neg)
    dz = (cij * h_pos - cji * h_neg) * s
    grad_q = np.bincount(i, dz, n) - np.bincount(j, dz, n)
    curv = np.abs(cij * (-z * h_pos - h_pos**2) + cji * (z * h_neg - h_neg**2)) * s * s
    abs_q = 2.0 * (np.bincount(i, curv, n) + np.bincount(j, curv, n))
    grad_links, abs_links = [], []
    for name in sorted(ratings):
        idx, m = ratings[name]
        a, b, c = links[name]
        r = a * m + b - q[idx]
        var = (a * c * SIGMA) ** 2
        value += float(-m.size * math.log(c * SIGMA * math.sqrt(2.0 * math.pi))
                       - np.sum(r * r) / (2.0 * var))
        grad_q += np.bincount(idx, r / var, n)
        abs_q += np.bincount(idx, np.full(m.size, 1.0 / var), n)
        grad_links += [float(np.sum(r * (r - a * m)) / var), float(-np.sum(r) / var),
                       float(np.sum(r * r) / var - m.size)]
        abs_links += [float(np.sum(np.abs(a * m - 2.0 * r))) / var, m.size / var,
                      float(np.sum(np.abs(2.0 * r))) / var]
    if prior:
        centered = q - q.mean()
        value += float(-n * math.log(SIGMA * math.sqrt(2.0 * math.pi))
                       - np.sum(centered**2) / (2.0 * SIGMA**2))
        grad_q -= centered / SIGMA**2
        abs_q += 2.0 / SIGMA**2
    return value, grad_q, np.array(grad_links), abs_q, np.array(abs_links)


# --- scale and bootstrap ---------------------------------------------------

def check_scale(study: Study, manifest: Path, out: Path) -> None:
    """`scale --strict` (prior on) wrote the maximum of the posterior."""
    table = read_scale(out / "scale.csv")
    require(table["condition"] == study.keys,
            "scale.csv does not list every condition once, in collection order")
    for key, jod, ref in zip(table["condition"], table["jod"], study.is_ref):
        if ref:
            require(jod == "0.000000", f"reference row {key} reads {jod}, not 0.000000")
    report = json.loads((out / "report.json").read_text())
    require(report["converged"] is True, "report.json says the solver did not converge")
    q = np.array([float(v) for v in table["jod"]])
    free = ~study.is_ref
    srocc = spearmanr(q[free], study.q[free]).statistic
    rmse = float(np.sqrt(np.mean((q[free] - study.q[free]) ** 2)))
    require(srocc >= MIN_SROCC, f"SROCC against the ground truth is {srocc:.4f} < {MIN_SROCC}")
    require(rmse <= MAX_RMSE, f"RMSE against the ground truth is {rmse:.4f} JOD > {MAX_RMSE}")

    links_json = json.loads((out / "links.json").read_text())
    links = {name: (v["a"], v["b"], v["c"]) for name, v in links_json.items()}
    require(sorted(links) == sorted(study.links), "links.json does not cover the rating datasets")
    ij, counts, ratings = _load_inputs(manifest, study.keys)
    value, grad_q, grad_links, abs_q, abs_links = log_posterior(q, links, ij, counts, ratings)
    reported = float(report["log_posterior"])
    require(abs(value - reported) <= 1e-9 * abs(value) + 1e-4,
            f"log posterior at the written scale is {value!r}, report.json says {reported!r}")
    at_truth = log_posterior(study.q, study.links, ij, counts, ratings)[0]
    require(value >= at_truth,
            f"log posterior at the written scale {value:.6f} is below the ground truth's "
            f"{at_truth:.6f}")
    # The solver stops at |gradient| < tol; rounding q to 6 decimals moves the
    # gradient by at most ROUNDING times the row sums of |Hessian| over q.
    grad = np.concatenate([grad_q[free], grad_links])
    envelope = np.concatenate([SOLVER_TOL + 2.0 * ROUNDING * abs_q[free],
                               SOLVER_TOL + 2.0 * ROUNDING * abs_links])
    worst = int(np.argmax(np.abs(grad) / envelope))
    require(abs(grad[worst]) <= envelope[worst],
            f"gradient at the written scale is {grad[worst]:.3g} in parameter {worst}, "
            f"more than the rounding envelope {envelope[worst]:.3g}")


def check_bootstrap(study: Study, out: Path, plain: Path) -> None:
    """`scale --bootstrap` kept the plain scale and wrote sane intervals."""
    boot, base = read_scale(out / "scale.csv"), read_scale(plain / "scale.csv")
    require(boot["condition"] == base["condition"] and boot["jod"] == base["jod"],
            "the jod column differs from a plain scale of the same manifest")
    low = np.array([float(v) for v in boot["ci_low"]])
    high = np.array([float(v) for v in boot["ci_high"]])
    inverted = int(np.sum(low > high))
    require(inverted == 0, f"{inverted} rows have ci_low > ci_high")
    for row, ref in enumerate(study.is_ref):
        if ref:
            cells = (boot["jod"][row], boot["ci_low"][row], boot["ci_high"][row])
            require(cells == ("0.000000",) * 3,
                    f"reference row {boot['condition'][row]} reads {cells}")
    free = ~study.is_ref
    require(np.all(high[free] > low[free]), "a non-reference interval has zero width")
    covered = float(np.mean((low[free] <= study.q[free]) & (study.q[free] <= high[free])))
    require(covered >= MIN_COVERAGE,
            f"intervals cover the ground truth on {covered:.3f} of conditions < {MIN_COVERAGE}")


# --- simulate ---------------------------------------------------------------

def _near(z: np.ndarray, var_z2: float, what: str) -> None:
    """Mean 0 and variance 1, each within 5 standard errors."""
    mean_tol, var_tol = 5.0 / math.sqrt(z.size), 5.0 * math.sqrt(var_z2 / z.size)
    require(abs(z.mean()) <= mean_tol and abs(z.var() - 1.0) <= var_tol,
            f"{what} have mean {z.mean():.4f} (allowed +-{mean_tol:.4f}) and variance "
            f"{z.var():.4f} (allowed 1 +- {var_tol:.4f})")


def check_simulate(truth, config: dict, out: Path) -> None:
    """`simulate` wrote the configured design, with outcomes that follow the
    observer model of ``truth`` (the ``GroundTruth`` of ``synthesize_collection``)."""
    n, datasets = config["conditions"], config["datasets"]
    trials, observers = config["trials"], config["observers"]
    sizes = [n // datasets + (d < n % datasets) for d in range(datasets)]
    spec = json.loads((out / "manifest.json").read_text())
    require([e["name"] for e in spec["datasets"]] == [f"ds{d}" for d in range(datasets)],
            "manifest does not list the configured datasets")
    keys = [c.key for c in truth.conditions]
    index = {key: i for i, key in enumerate(keys)}
    listed = []
    for d, entry in enumerate(spec["datasets"]):
        rows = [row["condition"] for row in _rows(out / entry["conditions"])]
        require(len(rows) == sizes[d],
                f"{entry['name']} has {len(rows)} conditions, not {sizes[d]}")
        refs = sum(key.endswith("/reference/0") for key in rows)
        require(refs == 1, f"{entry['name']} has {refs} references, not 1")
        listed += rows
    require(sorted(listed) == sorted(keys), "condition files differ from the ground truth's")

    pairs: dict[tuple[int, int], list[int]] = {}
    for row in _rows(out / spec["comparisons"]):
        i, j = index[row["cond_a"]], index[row["cond_b"]]
        wins = pairs.setdefault((min(i, j), max(i, j)), [0, 0])
        wins[0 if i < j else 1] += int(row["count_a_over_b"])
    expected_pairs = (sum(s * (s - 1) // 2 for s in sizes) + datasets - 1
                      + round(config["density"] * n))
    require(len(pairs) == expected_pairs,
            f"comparisons.csv has {len(pairs)} measured pairs, not {expected_pairs}")
    ij = np.array(list(pairs), dtype=np.int64)
    counts = np.array(list(pairs.values()), dtype=np.int64)
    off = np.flatnonzero(counts.sum(axis=1) != trials)
    require(off.size == 0, f"{off.size} pairs do not sum to {trials} trials")
    p = ndtr((truth.q_true[ij[:, 0]] - truth.q_true[ij[:, 1]]) / (math.sqrt(2.0) * SIGMA))
    pq = p * (1.0 - p)
    z = (counts[:, 0] - trials * p) / np.sqrt(trials * pq)
    # Var(z^2) of a standardized binomial is 2 + (1 - 6pq) / (trials pq).
    _near(z, np.mean(2.0 + (1.0 - 6.0 * pq) / (trials * pq)), "standardized win counts")

    residuals = []
    for size, entry in zip(sizes[1:], spec["datasets"][1:]):
        rows = _rows(out / entry["ratings"])
        expected = size * observers
        require(len(rows) == expected, f"{entry['ratings']} has {len(rows)} rows, not {expected}")
        link = truth.links_true[entry["name"]]
        idx = np.array([index[r["condition"]] for r in rows])
        m = np.array([float(r["score"]) for r in rows])
        residuals.append((m - (truth.q_true[idx] - link.b) / link.a) / (link.c * SIGMA))
    _near(np.concatenate(residuals), 2.0, "standardized rating residuals")


# --- pair selection ---------------------------------------------------------

def _selected(out: Path) -> list[tuple[str, str]]:
    return [(row["cond_a"], row["cond_b"]) for row in _rows(out / "pairs.csv")]


def check_gmad(test: np.ndarray, bench: np.ndarray, keys: list[str], k: int, window: float,
               out: Path) -> None:
    """gMAD pairs equal a brute-force greedy top-k without condition reuse."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    t, b = test[order], bench[order]
    names = [keys[i] for i in order]
    i, j = np.triu_indices(len(names), 1)
    bench_gap = np.abs(b[i] - b[j])
    keep = bench_gap < window
    i, j = i[keep], j[keep]
    objective = np.abs(t[i] - t[j]) - bench_gap[keep]
    expected, used = [], set()
    for c in np.lexsort((j, i, -objective)).tolist():
        if len(expected) == k:
            break
        if i[c] in used or j[c] in used:
            continue
        used.update((int(i[c]), int(j[c])))
        expected.append((names[i[c]], names[j[c]]))
    got = _selected(out)
    require(got == expected,
            f"gmad pairs differ from the brute force: {got[:3]}... vs {expected[:3]}...")


def check_cross_dataset(q: np.ndarray, keys: list[str], k: int, window: float, bins: int,
                        out: Path) -> None:
    """Cross-dataset pairs cross datasets, lie inside the window, are unique,
    and each coverage bin gives its smallest-gap candidates first."""
    index = {key: n for n, key in enumerate(keys)}
    dataset = np.array([key.split("/")[0] for key in keys])
    got = _selected(out)
    seen = set()
    for a, b in got:
        i, j = index[a], index[b]
        require(dataset[i] != dataset[j], f"pair ({a}, {b}) does not cross datasets")
        require(abs(q[i] - q[j]) <= window, f"pair ({a}, {b}) lies outside the {window} JOD window")
        pair = (min(i, j), max(i, j))
        require(pair not in seen, f"pair ({a}, {b}) is selected twice")
        seen.add(pair)

    i, j = np.triu_indices(q.size, 1)
    gap = np.abs(q[i] - q[j])
    keep = (dataset[i] != dataset[j]) & (gap <= window)
    i, j, gap = i[keep], j[keep], gap[keep]
    lo, hi = float(q.min()), float(q.max())
    width = (hi - lo) / bins
    cell = np.minimum(((0.5 * (q[i] + q[j]) - lo) / width).astype(np.int64), bins - 1)
    key_rank = np.argsort(np.argsort(np.array(keys)))
    ranked = np.lexsort((j, i, key_rank[j], key_rank[i], gap, cell))
    require(len(got) == min(k, ranked.size),
            f"{len(got)} pairs selected, {min(k, ranked.size)} expected")
    got_cell = {}
    for a, b in got:
        ia, ib = sorted((index[a], index[b]))
        mid_cell = min(int((0.5 * (q[ia] + q[ib]) - lo) / width), bins - 1)
        got_cell.setdefault(mid_cell, []).append((ia, ib))
    for c, chosen in got_cell.items():
        in_cell = ranked[cell[ranked] == c][: len(chosen)]
        first = [(int(i[x]), int(j[x])) for x in in_cell]
        require(chosen == first,
                f"coverage bin {c} does not take its smallest-gap candidates first")
    sizes = np.bincount(cell, minlength=bins)
    taken = np.array([len(got_cell.get(c, ())) for c in range(bins)])
    behind = taken < taken.max(initial=0) - 1
    require(not np.any(behind & (taken < sizes)),
            "coverage bins are not filled round-robin: a bin with candidates left fell behind")
