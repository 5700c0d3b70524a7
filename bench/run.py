"""Benchmark of the jodscale simulate -> scale (-> --bootstrap) pipeline.

    python3 bench/run.py --workload scale-large --seed 1 --seconds 20 --trace 0

Each workload runs in this one process, one CLI command at a time (a closed
loop with one client), through ``jodscale.cli.main(argv)``. It repeats whole
rounds of its commands until ``--seconds`` have passed, checks the outputs of
the last round (see ``checks.py``) and that every round wrote byte-identical
files, and prints one JSON object as the last line of standard output.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
wraps the program's public functions (see ``spans.py``) and reports the
per-layer metrics instead, and writes the spans to
``.bench_work/trace-<workload>-<seed>.npz``. BLAS and OpenMP pools are held to
one thread, so the process runs at most one busy thread.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

for _pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pool] = "1"

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# simulate-design: the `simulate` configuration and the selection settings.
SIMULATE = {"conditions": 1000, "datasets": 3, "trials": 30, "observers": 15, "density": 0.5}
SELECT_CONDITIONS = 1500
CROSS = {"k": 50, "window": 1.0, "bins": 10}
GMAD = {"k": 20, "window": 1.0}
BOOTSTRAP_REPLICATES = 20
# The solver workloads and the selection inputs use one fixed study each,
# listed in a seed-dependent order: between studies drawn with different
# seeds the solver's work varies by a factor of two (68 to 147 iterations at
# 1,000 conditions), far more than any regression bound, while a reordering
# leaves it within a few iterations. See the README.
STUDY_SEED = 0


def import_program():
    """Import the jodscale of this checkout, never an installed copy."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import jodscale.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import jodscale from {ROOT / 'src'}: {exc}")
    if Path(jodscale.cli.__file__).resolve().parents[2] != ROOT:
        raise SystemExit(f"imported jodscale from {jodscale.cli.__file__}, not from {ROOT / 'src'}")
    return jodscale


class ScaleWorkload:
    """Plain `scale --strict` (prior on) on one generated study."""

    def __init__(self, work: Path, seed: int, conditions: int):
        self.work, self.seed, self.conditions = work, seed, conditions

    def setup(self):
        import numpy as np

        import gen

        study = gen.make_study(np.random.default_rng([STUDY_SEED, self.conditions]),
                               self.conditions, 3, 30, 15, 0.5)
        self.study = gen.shuffled(study, np.random.default_rng([self.seed, self.conditions]))
        self.manifest = gen.write_study(self.study, self.work / "in")

    def scale_argv(self, out: str, *extra: str) -> list[str]:
        return ["scale", "--strict", "--manifest", str(self.manifest),
                "--out", str(self.work / out), *extra]

    def commands(self) -> list[list[str]]:
        return [self.scale_argv("out")]

    def check(self, cli_main):
        import checks

        checks.check_scale(self.study, self.manifest, self.work / "out")


class BootstrapWorkload(ScaleWorkload):
    """`scale --strict --bootstrap 20`; the check also runs one plain scale."""

    def commands(self):
        return [self.scale_argv("out", "--bootstrap", str(BOOTSTRAP_REPLICATES),
                                "--seed", str(self.seed))]

    def check(self, cli_main):
        import checks

        checks.require(run_quiet(cli_main, self.scale_argv("plain")) == 0,
                       "the plain scale of the bootstrap manifest failed")
        checks.check_scale(self.study, self.manifest, self.work / "plain")
        checks.check_bootstrap(self.study, self.work / "out", self.work / "plain")


class SimulateDesignWorkload:
    """`simulate`, then `select-pairs` in cross-dataset and gmad modes."""

    def __init__(self, work: Path, seed: int, simulate: dict = SIMULATE,
                 select_conditions: int = SELECT_CONDITIONS):
        self.work, self.seed = work, seed
        self.simulate, self.select_conditions = simulate, select_conditions

    def setup(self):
        import numpy as np

        import gen

        rng = np.random.default_rng([STUDY_SEED, self.select_conditions])
        study = gen.make_study(rng, self.select_conditions, 3, 30, 0, 0.5)
        (self.scale_csv, self.test_csv, self.bench_csv, self.keys, self.q, self.test,
         self.bench) = gen.write_selection_inputs(
            study, rng, np.random.default_rng([self.seed, self.select_conditions]),
            self.work / "in")

    def commands(self):
        options = [f"--{name}={value}" for name, value in self.simulate.items()]
        return [
            ["simulate", *options, "--seed", str(self.seed), "--out", str(self.work / "sim")],
            ["select-pairs", "--mode", "cross-dataset", "--scale", str(self.scale_csv),
             *(f"--{name}={value}" for name, value in CROSS.items()),
             "--out", str(self.work / "cross")],
            ["select-pairs", "--mode", "gmad", "--metric-test", str(self.test_csv),
             "--metric-bench", str(self.bench_csv),
             *(f"--{name}={value}" for name, value in GMAD.items()),
             "--out", str(self.work / "gmad")],
        ]

    def check(self, cli_main):
        import checks
        from jodscale.simulate import RecoveryConfig, synthesize_collection

        config = self.simulate
        truth, _ = synthesize_collection(RecoveryConfig(
            n_conditions=config["conditions"], n_datasets=config["datasets"],
            trials_per_pair=config["trials"], observers=config["observers"],
            graph_density=config["density"], seed=self.seed))
        checks.check_simulate(truth, config, self.work / "sim")
        checks.check_cross_dataset(self.q, self.keys, CROSS["k"], CROSS["window"],
                                   CROSS["bins"], self.work / "cross")
        checks.check_gmad(self.test, self.bench, self.keys, GMAD["k"], GMAD["window"],
                          self.work / "gmad")


WORKLOADS = {
    "scale-large": lambda work, seed: ScaleWorkload(work, seed, 1000),
    "bootstrap-mid": lambda work, seed: BootstrapWorkload(work, seed, 300),
    "simulate-design": SimulateDesignWorkload,
}


def run_quiet(cli_main, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def digest(directory: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            sha.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def install_tracer():
    from spans import Tracer, scale_outcome

    from jodscale import cli, model, scaling, simulate

    tracer = Tracer()
    for owner, attribute, span, *hook in [
        (cli, "load_collection", "model.load_collection"),
        (model.ComparisonGraph, "__init__", "model.ComparisonGraph"),
        (model.ComparisonGraph, "pair_arrays", "model.pair_arrays"),
        (model.DatasetCollection, "__init__", "model.DatasetCollection"),
        (scaling, "connected_components", "model.connected_components"),
        (cli, "scale", "scaling.scale", scale_outcome),
        (scaling, "scale", "scaling.scale", scale_outcome),
        (cli, "bootstrap_ci", "scaling.bootstrap_ci"),
        (scaling.PosteriorProblem, "value_and_grad", "scaling.value_and_grad"),
        (scaling.PosteriorProblem, "hess_vec", "scaling.hess_vec"),
        (cli, "synthesize_collection", "simulate.synthesize_collection"),
        (simulate, "simulate_comparison", "simulate.simulate_comparison"),
        (simulate, "simulate_ratings", "simulate.simulate_ratings"),
        (cli, "select_cross_dataset_pairs", "design.select_cross_dataset_pairs"),
        (cli, "select_gmad_pairs", "design.select_gmad_pairs"),
    ]:
        tracer.wrap(owner, attribute, span, *hook)
    return tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    jodscale = import_program()
    import_s = time.perf_counter() - PROCESS_START
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        commands = workload.commands()

        tracer = install_tracer() if args.trace else None
        round_times, digests, attempted, failed = [], set(), 0, 0
        started = time.perf_counter()
        # Whole rounds only: start another while it is expected to end in time.
        while not round_times or (time.perf_counter() - started
                                  + median(round_times) <= args.seconds):
            if tracer:
                tracer.current_round = len(round_times)
            elapsed = 0.0
            for argv_ in commands:
                span = tracer.open(f"cli.{argv_[0]}") if tracer else None
                start = time.perf_counter()
                try:
                    code = run_quiet(jodscale.cli.main, argv_)
                except Exception:  # a crash counts as a failed command
                    traceback.print_exc()
                    code = -1
                elapsed += time.perf_counter() - start
                if tracer:
                    tracer.close(span)
                attempted += 1
                failed += code != 0
            round_times.append(elapsed)
            digests.add(digest(work))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.unwrap_all()

        import checks

        try:
            checks.require(len(digests) == 1,
                           f"{len(round_times)} rounds wrote {len(digests)} different output trees")
            if failed == 0:
                workload.check(jodscale.cli.main)
            correct = True
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False

        if tracer:
            from spans import layer_metrics

            metrics = layer_metrics(tracer)
            tracer.save(ROOT / ".bench_work" / f"trace-{args.workload}-{args.seed}.npz")
        else:
            metrics = {
                "setup_s": {"value": import_s + median(setup_times), "unit": "s"},
                "round_s": {"value": median(round_times), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        print(f"{args.workload}: {len(round_times)} rounds, round_s "
              f"{[round(t, 3) for t in round_times]}, import_s {import_s:.3f}, setup "
              f"{[round(t, 3) for t in setup_times]}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
