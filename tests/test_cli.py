import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jodscale
from jodscale.cli import main

from conftest import write_two_condition_fixture


def _tree_digest(root: Path) -> dict[str, str]:
    digest = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digest


def _read_scale_csv(path: Path) -> dict[str, float]:
    rows = path.read_text().strip().splitlines()[1:]
    out = {}
    for row in rows:
        cells = row.split(",")
        out[cells[0]] = float(cells[1])
    return out


class TestScaleCommand:
    def test_two_condition_fixture(self, tmp_path, monkeypatch):
        write_two_condition_fixture(tmp_path / "fx")
        monkeypatch.chdir(tmp_path)
        code = main([
            "scale", "--manifest", "fx/manifest.json", "--out", "out", "--no-prior",
        ])
        assert code == 0
        scores = _read_scale_csv(tmp_path / "out" / "scale.csv")
        assert scores["demo/ref/reference/0"] == 0.0
        assert abs(scores["demo/c0/dist/1"] - (-1.0)) < 0.01
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["converged"] is True
        run = json.loads((tmp_path / "out" / "run.json").read_text())
        assert run["subcommand"] == "scale"
        assert run["options"]["prior"] is False

    def test_bootstrap_intervals_written(self, tmp_path, monkeypatch):
        write_two_condition_fixture(tmp_path / "fx")
        monkeypatch.chdir(tmp_path)
        code = main([
            "scale", "--manifest", "fx/manifest.json", "--out", "out",
            "--no-prior", "--bootstrap", "8", "--seed", "3",
        ])
        assert code == 0
        lines = (tmp_path / "out" / "scale.csv").read_text().strip().splitlines()
        cells = lines[2].split(",")
        assert float(cells[2]) <= float(cells[1]) <= float(cells[3])

    def test_per_component_bootstrap(self, tmp_path, monkeypatch):
        # two pairwise datasets without a cross pair: two components
        root = tmp_path / "two"
        root.mkdir()
        datasets = []
        rows = ["cond_a,cond_b,count_a_over_b"]
        for name in ("a", "b"):
            keys = [f"{name}/ref/reference/0", f"{name}/c0/dist/1", f"{name}/c1/dist/1"]
            (root / f"{name}.csv").write_text("condition\n" + "\n".join(keys) + "\n")
            datasets.append({"name": name, "experiment": "pwc", "conditions": f"{name}.csv"})
            for (x, y), wins in {(0, 1): 7, (1, 0): 3, (1, 2): 6, (2, 1): 4}.items():
                rows.append(f"{keys[x]},{keys[y]},{wins}")
        (root / "comparisons.csv").write_text("\n".join(rows) + "\n")
        (root / "manifest.json").write_text(
            json.dumps({"datasets": datasets, "comparisons": "comparisons.csv"}))
        monkeypatch.chdir(tmp_path)
        code = main([
            "scale", "--manifest", "two/manifest.json", "--out", "out",
            "--per-component", "--bootstrap", "10", "--seed", "1",
        ])
        assert code == 0
        lines = (tmp_path / "out" / "scale.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == 6
        for line in lines:
            jod, low, high = (float(cell) for cell in line.split(",")[1:])
            assert np.isfinite([jod, low, high]).all()
            assert low <= high

    def test_integrity_error_exit_code(self, tmp_path, monkeypatch):
        write_two_condition_fixture(tmp_path / "fx")
        (tmp_path / "fx" / "comparisons.csv").write_text(
            "cond_a,cond_b,count_a_over_b\ndemo/ghost/dist/1,demo/ref/reference/0,1\n"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["scale", "--manifest", "fx/manifest.json", "--out", "out"]) == 2

    def test_strict_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out", "sim", "--conditions", "20",
                     "--datasets", "2", "--seed", "5"]) == 0
        code = main([
            "scale", "--manifest", "sim/manifest.json", "--out", "out",
            "--max-iter", "1", "--strict",
        ])
        assert code == 3

    def test_alpha_outside_unit_interval_is_data_error(self, tmp_path, monkeypatch):
        write_two_condition_fixture(tmp_path / "fx")
        monkeypatch.chdir(tmp_path)
        code = main([
            "scale", "--manifest", "fx/manifest.json", "--out", "out", "--no-prior",
            "--bootstrap", "3", "--alpha", "1.5",
        ])
        assert code == 2
        assert not (tmp_path / "out" / "scale.csv").exists()

    def test_negative_bootstrap_is_usage_error(self, tmp_path, monkeypatch):
        write_two_condition_fixture(tmp_path / "fx")
        monkeypatch.chdir(tmp_path)
        argv = ["scale", "--manifest", "fx/manifest.json", "--no-prior", "--bootstrap"]
        assert main([*argv, "-1", "--out", "neg"]) == 1
        assert not (tmp_path / "neg").exists()
        # zero replicates still means "no intervals"
        assert main([*argv, "0", "--out", "zero"]) == 0
        rows = (tmp_path / "zero" / "scale.csv").read_text().strip().splitlines()[1:]
        assert all(row.endswith(",,") for row in rows)

    def test_disconnected_error_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out", "sim", "--conditions", "12",
                     "--datasets", "2", "--trials", "0", "--observers", "0"]) == 0
        code = main(["scale", "--manifest", "sim/manifest.json", "--out", "out"])
        assert code == 2


class TestEntryPoint:
    def test_subprocess_invocation(self, tmp_path):
        write_two_condition_fixture(tmp_path / "fx")
        # The child runs from tmp_path, where a relative PYTHONPATH entry
        # such as "src" no longer resolves; hand it the absolute directory
        # of the jodscale copy this suite imported.
        package_root = str(Path(jodscale.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "jodscale.cli", "scale",
             "--manifest", "fx/manifest.json", "--out", "out", "--no-prior"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "scale.csv").exists()


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert main(["scale", "--nonsense"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self):
        assert main(["dance"]) == 1

    def test_missing_required(self):
        assert main(["scale"]) == 1

    @pytest.mark.parametrize("argv", [
        ["select-pairs", "--mode", "cross-dataset", "--scale", "missing.csv", "--seed", "3"],
        ["validate", "--scores", "missing.csv", "--scale", "missing.csv", "--strict"],
        ["fit-logistic", "--scores", "missing.csv", "--scale", "missing.csv", "--seed", "3"],
        ["pu-encode", "--input", "missing.csv", "--seed", "3"],
        ["linkfit", "--manifest", "missing.json", "--scale", "missing.csv", "--strict"],
        ["stats", "--input", "missing.csv", "--seed", "3"],
        ["simulate", "--conditions", "6", "--datasets", "2", "--strict"],
        ["recover", "--conditions", "6", "--datasets", "2", "--strict"],
    ])
    def test_flag_the_subcommand_does_not_read(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "out"]) == 1
        assert not (tmp_path / "out").exists()

    def test_gmad_requires_metric_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["select-pairs", "--mode", "gmad", "--out", "out"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scale.csv").write_text("condition,jod\nx/c/d/1,-1.0\n")
        assert main(["validate", "--scores", "missing.csv",
                     "--scale", "scale.csv", "--out", "out"]) == 2
        assert main(["pu-encode", "--input", "missing.csv", "--out", "out"]) == 2
        assert main(["scale", "--manifest", "missing.json", "--out", "out"]) == 2


class TestSimulateCommand:
    def test_round_trips_through_loader(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out", "sim", "--conditions", "18",
                     "--datasets", "3", "--seed", "2"]) == 0
        from jodscale.model import load_collection

        coll = load_collection(tmp_path / "sim" / "manifest.json")
        assert coll.n == 18
        assert set(coll.ratings) == {"ds1", "ds2"}
        manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
        assert not any("dynamic_range" in entry for entry in manifest["datasets"])

    def test_identical_trees_for_same_seed(self, tmp_path, monkeypatch):
        for run in ("a", "b"):
            workdir = tmp_path / run
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert main(["simulate", "--out", "sim", "--conditions", "16",
                         "--datasets", "2", "--seed", "7"]) == 0
        assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")

    def test_input_files_not_mutated(self, tmp_path, monkeypatch):
        write_two_condition_fixture(tmp_path / "fx")
        before = _tree_digest(tmp_path / "fx")
        monkeypatch.chdir(tmp_path)
        main(["scale", "--manifest", "fx/manifest.json", "--out", "out", "--no-prior"])
        assert _tree_digest(tmp_path / "fx") == before


def _prepare_scale_and_scores(tmp_path, monkeypatch, seed=4):
    """Simulate, scale, and derive a noisy metric score file."""
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--out", "sim", "--conditions", "24",
                 "--datasets", "2", "--seed", str(seed)]) == 0
    assert main(["scale", "--manifest", "sim/manifest.json", "--out", "scaled",
                 "--no-prior"]) == 0
    scores = _read_scale_csv(tmp_path / "scaled" / "scale.csv")
    rng = np.random.default_rng(seed)
    lines = ["condition,score"]
    for key, jod in scores.items():
        metric = 10.0 * np.tanh(0.3 * jod) + rng.normal(0, 0.05)
        lines.append(f"{key},{float(metric)!r}")
    (tmp_path / "scores.csv").write_text("\n".join(lines) + "\n")


class TestValidateAndFitLogistic:
    def test_validate_report(self, tmp_path, monkeypatch):
        _prepare_scale_and_scores(tmp_path, monkeypatch)
        code = main([
            "validate", "--scores", "scores.csv", "--scale", "scaled/scale.csv",
            "--manifest", "sim/manifest.json", "--out", "val",
        ])
        assert code == 0
        report = json.loads((tmp_path / "val" / "validation.json").read_text())
        assert report["srocc"] > 0.95
        assert report["rmse"] < 0.5
        assert report["accuracy_curve"], "accuracy curve should not be empty"
        thresholds = [entry[0] for entry in report["accuracy_curve"]]
        assert 0.75 in thresholds

    def test_fit_logistic_outputs(self, tmp_path, monkeypatch):
        _prepare_scale_and_scores(tmp_path, monkeypatch)
        code = main([
            "fit-logistic", "--scores", "scores.csv", "--scale", "scaled/scale.csv",
            "--out", "fit",
        ])
        assert code == 0
        params = json.loads((tmp_path / "fit" / "logistic.json").read_text())
        assert set(params["params"]) == {"a1", "a2", "a3", "a4", "a5"}
        mapped = (tmp_path / "fit" / "mapped.csv").read_text().splitlines()
        assert mapped[0] == "condition,score,jod"
        assert len(mapped) == 25


class TestPuEncodeCommand:
    def test_anchor_values(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "values.csv").write_text("value\n0.8\n80.0\n10.0\n")
        code = main(["pu-encode", "--input", "values.csv", "--out", "enc",
                     "--knots", "512"])
        assert code == 0
        lines = (tmp_path / "enc" / "encoded.csv").read_text().strip().splitlines()[1:]
        assert float(lines[0]) == pytest.approx(0.0, abs=1e-6)
        assert float(lines[1]) == pytest.approx(255.0, abs=1e-6)

    def test_display_pipeline_and_lut_save(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "values.csv").write_text("value\n0.0\n0.5\n1.0\n")
        code = main([
            "pu-encode", "--input", "values.csv", "--out", "enc",
            "--l-peak", "100", "--l-black", "0.5", "--knots", "512",
            "--save-lut", "lut.csv",
        ])
        assert code == 0
        assert (tmp_path / "enc" / "lut.csv").exists()
        lines = (tmp_path / "enc" / "encoded.csv").read_text().strip().splitlines()[1:]
        values = [float(v) for v in lines]
        assert values[0] < values[1] < values[2]

    def test_strict_range_violation(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "values.csv").write_text("value\n-0.5\n")
        code = main([
            "pu-encode", "--input", "values.csv", "--out", "enc",
            "--l-peak", "100", "--strict", "--knots", "512",
        ])
        assert code == 2

    def test_log_encode_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "values.csv").write_text("value\n0.8\n80.0\n")
        code = main(["pu-encode", "--input", "values.csv", "--out", "enc",
                     "--log-encode", "--knots", "512"])
        assert code == 0
        lines = (tmp_path / "enc" / "encoded.csv").read_text().strip().splitlines()[1:]
        assert float(lines[0]) == pytest.approx(0.0, abs=1e-6)
        assert float(lines[1]) == pytest.approx(255.0, abs=1e-6)


class TestSelectPairsCommand:
    def test_cross_dataset_mode(self, tmp_path, monkeypatch):
        _prepare_scale_and_scores(tmp_path, monkeypatch)
        code = main([
            "select-pairs", "--mode", "cross-dataset", "--scale", "scaled/scale.csv",
            "--k", "6", "--window", "1.0", "--out", "sel",
        ])
        assert code == 0
        pairs = (tmp_path / "sel" / "pairs.csv").read_text().strip().splitlines()
        assert pairs[0] == "cond_a,cond_b,count_a_over_b"
        assert len(pairs) == 7
        assert all(line.endswith(",0") for line in pairs[1:])
        selection = json.loads((tmp_path / "sel" / "selection.json").read_text())
        assert len(selection["pairs"]) == 6
        for row in selection["pairs"]:
            assert row["cond_a"].split("/")[0] != row["cond_b"].split("/")[0]

    def test_gmad_mode(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(11)
        test_lines = ["condition,score"]
        bench_lines = ["condition,score"]
        for i in range(30):
            key = f"x/c{i:02d}/d/1"
            test_lines.append(f"{key},{float(rng.uniform(-5, 0))!r}")
            bench_lines.append(f"{key},{float(rng.uniform(-5, 0))!r}")
        (tmp_path / "test.csv").write_text("\n".join(test_lines) + "\n")
        (tmp_path / "bench.csv").write_text("\n".join(bench_lines) + "\n")
        code = main([
            "select-pairs", "--mode", "gmad", "--metric-test", "test.csv",
            "--metric-bench", "bench.csv", "--k", "5", "--out", "sel",
        ])
        assert code == 0
        selection = json.loads((tmp_path / "sel" / "selection.json").read_text())
        assert len(selection["pairs"]) == 5


class TestLinkfitCommand:
    def test_per_dataset_table(self, tmp_path, monkeypatch):
        _prepare_scale_and_scores(tmp_path, monkeypatch)
        code = main([
            "linkfit", "--manifest", "sim/manifest.json",
            "--scale", "scaled/scale.csv", "--out", "lf",
        ])
        assert code == 0
        table = json.loads((tmp_path / "lf" / "linkfit.json").read_text())
        assert set(table) == {"ds1"}
        orders = [row["order"] for row in table["ds1"]]
        assert orders == [1, 2, 3]
        for row in table["ds1"]:
            assert row["r2_adj"] <= row["r2"] + 1e-12


class TestStatsCommand:
    def test_histogram_summary(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(5)
        values = 10 ** rng.uniform(-1, 3, 500)
        (tmp_path / "lum.csv").write_text(
            "value\n" + "\n".join(f"{float(v)!r}" for v in values) + "\n"
        )
        code = main(["stats", "--input", "lum.csv", "--out", "st", "--bins", "16"])
        assert code == 0
        report = json.loads((tmp_path / "st" / "stats.json").read_text())
        assert report["n"] == 500
        assert sum(report["histogram"]["counts"]) == 500
        assert report["excluded_nonpositive"] == 0

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bins_below_one_is_usage_error(self, tmp_path, monkeypatch, bins):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "lum.csv").write_text("value\n1.0\n10.0\n")
        assert main(["stats", "--input", "lum.csv", "--out", "st", "--bins", bins]) == 1
        assert not (tmp_path / "st").exists()


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["scale", "--manifest", "fx/manifest.json", "--out", "out",
         "--no-prior", "--bootstrap", "4", "--seed", "9"],
        ["recover", "--out", "out", "--conditions", "16", "--datasets", "2",
         "--seed", "1"],
        ["stats", "--input", "fx/comparisons.csv.values", "--out", "out"],
    ])
    def test_repeat_runs_identical(self, tmp_path, monkeypatch, args):
        digests = []
        for run in ("one", "two"):
            workdir = tmp_path / run
            workdir.mkdir()
            write_two_condition_fixture(workdir / "fx")
            (workdir / "fx" / "comparisons.csv.values").write_text(
                "value\n1.0\n10.0\n100.0\n"
            )
            monkeypatch.chdir(workdir)
            assert main(args) == 0
            digests.append(_tree_digest(workdir / "out"))
        assert digests[0] == digests[1]
