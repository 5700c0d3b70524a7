"""Self-test of the benchmark's checks.

Runs each workload once at a small size, requires its checks to accept the
program's real outputs, then corrupts one output at a time and requires the
checks to reject it:

* a ``scale.csv`` with one value shifted,
* a ``scale.csv`` with a non-zero reference row,
* a bootstrap ``scale.csv`` with ``ci_low > ci_high`` on one row,
* a bootstrap ``scale.csv`` with every interval moved up by its width,
* a cross-dataset ``pairs.csv`` with one pair outside the window,
* a simulated ``comparisons.csv`` with one count changed.

    python3 bench/selftest.py

Exits 0 when every verdict is right.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import run

jodscale = run.import_program()

import checks  # noqa: E402


def _edit(path: Path, row: int, column: str, value) -> None:
    """Set one cell of a CSV; ``value`` may be a function of the old cell."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cell = header.index(column)
    cells[cell] = value(cells[cell]) if callable(value) else value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _first(rows, predicate) -> int:
    return next(n for n, row in enumerate(rows) if predicate(row))


def main() -> int:
    work = run.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    cli_main = jodscale.cli.main
    workloads = {
        "scale": run.ScaleWorkload(work / "scale", 3, 150),
        "bootstrap": run.BootstrapWorkload(work / "bootstrap", 3, 90),
        "simulate-design": run.SimulateDesignWorkload(
            work / "design", 3, {**run.SIMULATE, "conditions": 60}, 150),
    }
    verdicts = []

    def verdict(name: str, check, expect_pass: bool) -> None:
        try:
            check()
            passed = True
        except checks.CheckFailed as exc:
            passed, reason = False, str(exc)
        ok = passed == expect_pass
        verdicts.append(ok)
        outcome = "accepted" if passed else f"rejected ({reason})"
        print(f"[{'ok' if ok else 'WRONG'}] {name}: {outcome}")

    try:
        for name, workload in workloads.items():
            workload.setup()
            codes = [run.run_quiet(cli_main, argv) for argv in workload.commands()]
            checks.require(codes == [0] * len(codes), f"{name} commands exited {codes}")
            verdict(f"{name}: real outputs", lambda: workload.check(cli_main), True)

        scale = workloads["scale"]
        scale_csv = scale.work / "out" / "scale.csv"
        original = scale_csv.read_text()
        free = _first(scale.study.is_ref, lambda ref: not ref)
        _edit(scale_csv, free, "jod", lambda v: f"{float(v) + 0.01:.6f}")
        verdict("scale.csv with one value shifted", lambda: scale.check(cli_main), False)
        scale_csv.write_text(original)
        ref = _first(scale.study.is_ref, bool)
        _edit(scale_csv, ref, "jod", "0.000001")
        verdict("scale.csv with a non-zero reference row", lambda: scale.check(cli_main), False)

        boot = workloads["bootstrap"]
        boot_csv = boot.work / "out" / "scale.csv"
        original = boot_csv.read_text()
        rows = checks.read_scale(boot_csv)
        free = _first(boot.study.is_ref, lambda ref: not ref)
        _edit(boot_csv, free, "ci_low", rows["ci_high"][free])
        _edit(boot_csv, free, "ci_high", rows["ci_low"][free])
        verdict("bootstrap CI with low > high", lambda: boot.check(cli_main), False)
        boot_csv.write_text(original)
        for row, ref in enumerate(boot.study.is_ref):
            if not ref:
                width = float(rows["ci_high"][row]) - float(rows["ci_low"][row])
                _edit(boot_csv, row, "ci_low", rows["ci_high"][row])
                _edit(boot_csv, row, "ci_high", f"{float(rows['ci_high'][row]) + width:.6f}")
        verdict("bootstrap intervals moved up by one width", lambda: boot.check(cli_main), False)

        design = workloads["simulate-design"]
        pairs_csv = design.work / "cross" / "pairs.csv"
        original = pairs_csv.read_text()
        index = {key: n for n, key in enumerate(design.keys)}
        ds = [key.split("/")[0] for key in design.keys]
        a = design.keys[0]
        b = next(k for k in design.keys
                 if ds[index[k]] != ds[0] and abs(design.q[index[k]] - design.q[0]) > 1.5)
        _edit(pairs_csv, 0, "cond_a", a)
        _edit(pairs_csv, 0, "cond_b", b)
        verdict("cross-dataset pair outside the window", lambda: design.check(cli_main), False)
        pairs_csv.write_text(original)

        comparisons = design.work / "sim" / "comparisons.csv"
        rows = comparisons.read_text().splitlines()[1:]
        row = _first(rows, lambda line: int(line.rsplit(",", 1)[1]) < run.SIMULATE["trials"])
        _edit(comparisons, row, "count_a_over_b", lambda v: str(int(v) + 1))
        verdict("comparisons.csv with one count changed", lambda: design.check(cli_main), False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(verdicts)} of {len(verdicts)} verdicts right")
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
