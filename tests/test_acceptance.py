"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s``)."""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from jodscale.design import PairBatch, gmad_precision, select_gmad_pairs
from jodscale.linkfit import fit_polynomial_link
from jodscale.metricmap import (
    LogisticParams,
    eval_logistic,
    fit_logistic,
    pairwise_accuracy,
)
from jodscale.model import ComparisonGraph
from jodscale.photometry import build_pu_lut, pu_encode
from jodscale.scaling import (
    SIGMA_JOD,
    PosteriorProblem,
    preference_probability,
    scale,
)
from jodscale.simulate import (
    RecoveryConfig,
    build_recovery_report,
    simulate_comparison,
    synthesize_collection,
)

from conftest import write_two_condition_fixture


def _check(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


_RECOVERY_CACHE: dict[int, tuple] = {}


def _criterion3_instance(seed: int):
    """One 50-condition, 3-dataset instance, scaled; cached across criteria."""
    if seed not in _RECOVERY_CACHE:
        config = RecoveryConfig(
            n_conditions=50,
            n_datasets=3,
            trials_per_pair=30,
            observers=15,
            graph_density=0.5,
            seed=seed,
        )
        truth, collection = synthesize_collection(config)
        result = scale(collection, prior_enabled=False)
        _RECOVERY_CACHE[seed] = (truth, collection, result)
    return _RECOVERY_CACHE[seed]


def test_criterion_01_jod_anchor_reproduction():
    p1 = float(preference_probability(1.0, 0.0))
    p2 = float(preference_probability(2.0, 0.0))
    ok = abs(p1 - 0.750) <= 0.001 and abs(p2 - 0.911) <= 0.002
    _check(
        "criterion 1: preference anchors at sigma=1.048",
        ok,
        f"P(delta=1)={p1:.4f}, P(delta=2)={p2:.4f}",
    )


def test_criterion_02_two_condition_analytic_recovery(two_condition_collection):
    start = time.perf_counter()
    result = scale(two_condition_collection, prior_enabled=False)
    elapsed = time.perf_counter() - start
    oracle = float(np.sqrt(2.0) * SIGMA_JOD * norm.ppf(0.25))
    ok = abs(result.q[1] - (-1.0)) < 0.01 and abs(result.q[1] - oracle) < 1e-4
    _check(
        "criterion 2: two-condition closed-form recovery",
        ok and elapsed < 1.0,
        f"q_test={result.q[1]:.5f}, oracle={oracle:.5f}, {elapsed:.2f}s",
    )


def test_criterion_03_synthetic_recovery_median_over_seeds():
    start = time.perf_counter()
    sroccs, a_errs, b_errs, c_errs = [], [], [], []
    for seed in range(10):
        truth, _, result = _criterion3_instance(seed)
        report = build_recovery_report(truth, result, 0.0)
        sroccs.append(report["srocc"])
        a_errs.append(report["link_error_summary"]["a_rel_max"])
        b_errs.append(report["link_error_summary"]["b_abs_max"])
        c_errs.append(report["link_error_summary"]["c_rel_max"])
    elapsed = time.perf_counter() - start
    med = {
        "srocc": float(np.median(sroccs)),
        "a": float(np.median(a_errs)),
        "b": float(np.median(b_errs)),
        "c": float(np.median(c_errs)),
    }
    ok = (
        med["srocc"] >= 0.95
        and med["a"] < 0.10
        and med["c"] < 0.10
        and med["b"] < 0.2
        and elapsed < 120.0
    )
    _check(
        "criterion 3: synthetic recovery, median of 10 seeds",
        ok,
        f"srocc={med['srocc']:.4f}, a_rel={med['a']:.3f}, "
        f"b_abs={med['b']:.3f}, c_rel={med['c']:.3f}, {elapsed:.1f}s",
    )


def test_criterion_04_pairwise_accuracy_on_heldout_pairs():
    start = time.perf_counter()
    accuracies = []
    for seed in range(10):
        truth, collection, result = _criterion3_instance(seed)
        i_arr, j_arr, _, _ = collection.graph.pair_arrays()
        measured = set(zip(i_arr.tolist(), j_arr.tolist()))
        rng = np.random.default_rng((seed, 0xCAFE))
        n = collection.n
        heldout = []
        while len(heldout) < 200:
            i, j = (int(v) for v in rng.integers(0, n, size=2))
            key = (min(i, j), max(i, j))
            if i == j or key in measured or key in heldout:
                continue
            heldout.append(key)
        pairs = np.array(heldout, dtype=np.int64)
        counts = simulate_comparison(truth, pairs[:, 0], pairs[:, 1], 1000, stream=99)
        graph = ComparisonGraph(n, pairs.ravel(), pairs[:, ::-1].ravel(), counts.ravel())
        accuracies.append(pairwise_accuracy(result.q, graph, 0.75).accuracy)
    elapsed = time.perf_counter() - start
    median_accuracy = float(np.median(accuracies))
    ok = median_accuracy >= 0.90 and elapsed < 180.0
    _check(
        "criterion 4: pairwise accuracy at 0.75 JOD on held-out pairs",
        ok,
        f"median accuracy={median_accuracy:.4f}, min={min(accuracies):.4f}, {elapsed:.1f}s",
    )


def test_criterion_05_gradient_matches_finite_differences():
    config = RecoveryConfig(
        n_conditions=10, n_datasets=2, trials_per_pair=10, observers=5, seed=5
    )
    _, collection = synthesize_collection(config)
    problem = PosteriorProblem(collection, prior_enabled=True)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        x = rng.normal(0.0, 1.0, problem.n_params)
        _, grad, _ = problem.value_and_grad(x)
        step = 1e-6
        for k in range(problem.n_params):
            xp, xm = x.copy(), x.copy()
            xp[k] += step
            xm[k] -= step
            fd = (
                problem.value_and_grad(xp)[0] - problem.value_and_grad(xm)[0]
            ) / (2.0 * step)
            rel = abs(grad[k] - fd) / max(abs(fd), 1e-8)
            worst = max(worst, rel)
    ok = worst < 1e-5
    _check(
        "criterion 5: analytic gradient vs central differences",
        ok,
        f"worst relative error={worst:.2e}",
    )


def test_criterion_06_pu_transform_contract():
    start = time.perf_counter()
    lut = build_pu_lut()
    anchor_low = float(pu_encode(0.8, lut))
    anchor_high = float(pu_encode(80.0, lut))
    monotone = bool(np.all(np.diff(lut.pu_values) > 0))
    oracle = build_pu_lut(n_knots=10**6)
    probes = np.logspace(-2.7, 5.7, 20)
    deviation = float(np.max(np.abs(pu_encode(probes, lut) - pu_encode(probes, oracle))))
    elapsed = time.perf_counter() - start
    ok = (
        abs(anchor_low) <= 1e-6
        and abs(anchor_high - 255.0) <= 1e-6
        and monotone
        and deviation <= 0.1
        and elapsed < 10.0
    )
    _check(
        "criterion 6: PU transform anchors, monotonicity, refinement",
        ok,
        f"PU(0.8)={anchor_low:.2e}, PU(80)={anchor_high:.6f}, "
        f"max dev={deviation:.4f}, {elapsed:.1f}s",
    )


def test_criterion_07_logistic_round_trip():
    rng = np.random.default_rng(7)
    truth = LogisticParams(a1=3.0, a2=1.1, a3=-0.4, a4=0.6, a5=-2.0)
    scores = rng.uniform(-4.0, 4.0, 50)
    jod = eval_logistic(truth, scores)
    fit = fit_logistic(scores, jod)
    prediction_rmse = float(
        np.sqrt(np.mean((eval_logistic(fit.params, scores) - jod) ** 2))
    )
    ok = prediction_rmse < 1e-6
    _check(
        "criterion 7: logistic generate-and-refit",
        ok,
        f"prediction rmse={prediction_rmse:.2e}",
    )


def test_criterion_08_adjusted_r2_ordering():
    mos = np.linspace(0.0, 4.0, 20)
    quadratic = 0.4 * mos**2 - 1.5 * mos + 0.2
    fit1 = fit_polynomial_link(mos, quadratic, 1)
    fit2 = fit_polynomial_link(mos, quadratic, 2)
    noiseless_ok = fit2.r2_adj > fit1.r2_adj

    wins = 0
    trials = 100
    for t in range(trials):
        rng = np.random.default_rng(t)
        x = rng.uniform(0.0, 100.0, 20)
        y = rng.normal(0.0, 1.0, 20)
        f1 = fit_polynomial_link(x, y, 1)
        f3 = fit_polynomial_link(x, y, 3)
        if f3.r2_adj <= f1.r2_adj:
            wins += 1
    noise_ok = wins >= 70
    _check(
        "criterion 8: adjusted R^2 ordering",
        noiseless_ok and noise_ok,
        f"noiseless adj2>adj1: {noiseless_ok}; noise trials adj3<=adj1: {wins}/100, "
        "needs >= 70 (an exact order-statistics argument puts the population "
        "rate of this event at 1-(8/9)^8 ~ 61%, so the requirement is "
        "expected to fail; see README)",
    )


def _brute_force_gmad(test, bench, k, window):
    candidates = []
    n = len(test)
    for i in range(n):
        for j in range(i + 1, n):
            bench_gap = abs(bench[i] - bench[j])
            if bench_gap >= window:
                continue
            candidates.append((-(abs(test[i] - test[j]) - bench_gap), i, j))
    candidates.sort()
    chosen, used = [], set()
    for neg, i, j in candidates:
        if len(chosen) >= k:
            break
        if i in used or j in used:
            continue
        chosen.append((i, j))
        used.update((i, j))
    return chosen


def test_criterion_09_gmad_matches_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    test = rng.uniform(-6.0, 0.0, 100)
    bench = rng.uniform(-6.0, 0.0, 100)
    matches = all(
        list(select_gmad_pairs(test, bench, k).pairs)
        == _brute_force_gmad(test, bench, k, 1.0)
        for k in (1, 10)
    )

    truth = rng.uniform(-6.0, 0.0, 100)
    metric = truth + rng.normal(0.0, 0.7, 100)
    pairs, used = [], set()
    while len(pairs) < 100:
        i, j = (int(v) for v in rng.integers(0, 100, size=2))
        key = (min(i, j), max(i, j))
        if i == j or key in used:
            continue
        used.add(key)
        pairs.append((i, j))
    batch = PairBatch(pairs=tuple(pairs))
    value = gmad_precision(batch, truth, metric, 1.0)
    recount = sum(
        1
        for i, j in pairs
        if abs(truth[i] - truth[j]) >= 1.0
        and abs(metric[i] - metric[j]) >= 1.0
        and np.sign(metric[i] - metric[j]) == np.sign(truth[i] - truth[j])
    ) / 100
    elapsed = time.perf_counter() - start
    ok = matches and value == recount and elapsed < 5.0
    _check(
        "criterion 9: gMAD selection equals brute force, precision recount",
        ok,
        f"selection match={matches}, precision={value:.2f}=={recount:.2f}, {elapsed:.1f}s",
    )


_DETERMINISM_COMMANDS = [
    ["scale", "--manifest", "fx/manifest.json", "--out", "out", "--no-prior",
     "--bootstrap", "4", "--seed", "9"],
    ["simulate", "--out", "out", "--conditions", "16", "--datasets", "2",
     "--seed", "7"],
    ["recover", "--out", "out", "--conditions", "16", "--datasets", "2",
     "--seed", "1"],
    ["validate", "--scores", "aux/scores.csv", "--scale", "aux/scale.csv",
     "--out", "out"],
    ["fit-logistic", "--scores", "aux/scores.csv", "--scale", "aux/scale.csv",
     "--out", "out"],
    ["pu-encode", "--input", "aux/values.csv", "--out", "out", "--knots", "512",
     "--save-lut", "lut.csv"],
    ["select-pairs", "--mode", "cross-dataset", "--scale", "aux/scale.csv",
     "--k", "4", "--out", "out"],
    ["linkfit", "--manifest", "sim/manifest.json", "--scale", "aux/simscale.csv",
     "--out", "out"],
    ["stats", "--input", "aux/values.csv", "--out", "out"],
]


def _prepare_cli_workdir(root: Path) -> None:
    from jodscale.cli import main

    root.mkdir(parents=True)
    write_two_condition_fixture(root / "fx")
    aux = root / "aux"
    aux.mkdir()
    rng = np.random.default_rng(0)
    scale_lines = ["condition,jod"]
    score_lines = ["condition,score"]
    for d in range(2):
        for c in range(12):
            key = f"m{d}/c{c:02d}/d/1"
            jod = float(rng.uniform(-5.0, 0.0))
            scale_lines.append(f"{key},{jod:.6f}")
            score_lines.append(f"{key},{float(10 * np.tanh(0.4 * jod))!r}")
    (aux / "scale.csv").write_text("\n".join(scale_lines) + "\n")
    (aux / "scores.csv").write_text("\n".join(score_lines) + "\n")
    (aux / "values.csv").write_text(
        "value\n" + "\n".join(f"{float(v)!r}" for v in 10 ** rng.uniform(0, 3, 40)) + "\n"
    )
    import contextlib
    import os

    @contextlib.contextmanager
    def chdir(path):
        old = os.getcwd()
        os.chdir(path)
        try:
            yield
        finally:
            os.chdir(old)

    with chdir(root):
        assert main(["simulate", "--out", "sim", "--conditions", "18",
                     "--datasets", "2", "--seed", "4"]) == 0
        assert main(["scale", "--manifest", "sim/manifest.json",
                     "--out", "simscaled", "--no-prior"]) == 0
    simscale = (root / "simscaled" / "scale.csv").read_text()
    (aux / "simscale.csv").write_text(simscale)


def _digest_tree(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    from jodscale.cli import main

    failures = []
    for args in _DETERMINISM_COMMANDS:
        digests = []
        for run in ("one", "two"):
            workdir = tmp_path / f"{args[0]}-{run}"
            _prepare_cli_workdir(workdir)
            monkeypatch.chdir(workdir)
            code = main(args)
            if code != 0:
                failures.append(f"{args[0]} exited {code}")
                break
            digests.append(_digest_tree(workdir / "out"))
        else:
            if digests[0] != digests[1]:
                failures.append(f"{args[0]} produced differing outputs")
    ok = not failures
    _check(
        "criterion 10: byte-identical CLI reruns for every subcommand",
        ok,
        "; ".join(failures) if failures else f"{len(_DETERMINISM_COMMANDS)} subcommands checked",
    )
