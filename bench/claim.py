"""One measured run of the README's large-collection claim.

Generates about 4,000 conditions in 8 datasets (dense pairs within each
dataset, about 1M measured pairs, 30 trials each, 15 observers per rating
dataset) with the benchmark's generator, then runs ``jodscale scale
--strict`` on it once through ``jodscale.cli.main`` and prints the wall time,
the solver's report and the peak resident memory. It is a reference figure
for the README, not a workload.

    python3 bench/claim.py [--seed 0]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
from jodscale.cli import main  # noqa: E402


def run(seed: int) -> dict:
    work = ROOT / ".bench_work" / f"claim-{os.getpid()}"
    try:
        study = gen.make_study(np.random.default_rng([seed, 4000]), 4000, 8, 30, 15, 0.5)
        manifest = gen.write_study(study, work / "in")
        start = time.perf_counter()
        code = main(["scale", "--strict", "--manifest", str(manifest), "--out", str(work / "out")])
        seconds = time.perf_counter() - start
        report = json.loads((work / "out" / "report.json").read_text()) if code == 0 else {}
        return {
            "conditions": study.n,
            "measured_pairs": int(study.pair_i.size),
            "ratings": int(sum(r[0].size for r in study.ratings.values())),
            "exit_code": code,
            "scale_s": seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **report,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    print(json.dumps(run(parser.parse_args().seed), indent=2))
