import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import jodscale
from jodscale import scaling
from jodscale.cli import main
from jodscale.csvio import _CHUNK_ROWS, _write_csv, _write_json

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

    @staticmethod
    def _two_components(root):
        """Two pairwise datasets without a cross pair: two components."""
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

    def test_per_component_bootstrap(self, tmp_path, monkeypatch):
        self._two_components(tmp_path / "two")
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

    def test_per_component_warning_once_per_run(self, tmp_path, monkeypatch):
        """``scale`` checks the components once and ``bootstrap_ci``
        resamples its problem; the run warns once that it scales them
        independently."""
        self._two_components(tmp_path / "two")
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["scale", "--manifest", "two/manifest.json", "--out", "out",
                         "--per-component", "--bootstrap", "5", "--seed", "1"]) == 0
        assert [str(w.message) for w in caught] == [
            "scaling 2 disconnected components independently; "
            "scores are NOT comparable across components"]

    def test_a_bootstrap_run_builds_one_posterior_problem(self, tmp_path, monkeypatch):
        """``bootstrap_ci`` resamples the problem that ``scale`` checked and
        solved instead of building and checking its own."""
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out", "sim", "--conditions", "20", "--seed", "3"]) == 0
        built = []
        init = scaling.PosteriorProblem.__init__
        monkeypatch.setattr(scaling.PosteriorProblem, "__init__",
                            lambda problem, *args: built.append(1) or init(problem, *args))
        monkeypatch.setattr(scaling, "_workers", lambda n_boot: 1)
        assert main(["scale", "--manifest", "sim/manifest.json", "--out", "out",
                     "--bootstrap", "3"]) == 0
        assert len(built) == 1

    def test_integrity_error_exit_code(self, tmp_path, monkeypatch):
        write_two_condition_fixture(tmp_path / "fx")
        (tmp_path / "fx" / "comparisons.csv").write_text(
            "cond_a,cond_b,count_a_over_b\ndemo/ghost/dist/1,demo/ref/reference/0,1\n"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["scale", "--manifest", "fx/manifest.json", "--out", "out"]) == 2

    def test_strict_nonconvergence_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out", "sim", "--conditions", "20",
                     "--datasets", "2", "--seed", "5"]) == 0
        code = main([
            "scale", "--manifest", "sim/manifest.json", "--out", "out",
            "--max-iter", "1", "--strict",
        ])
        assert code == 3
        assert "the solver stopped on max_iter after 1 iterations" in capsys.readouterr().err

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

    def test_disconnected_error_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out", "sim", "--conditions", "12",
                     "--datasets", "2", "--trials", "0", "--observers", "0"]) == 0
        capsys.readouterr()
        code = main(["scale", "--manifest", "sim/manifest.json", "--out", "out"])
        assert code == 2
        assert "comparison data splits into 12 components" in capsys.readouterr().err

    def test_unrated_simulation_scales(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out", "sim", "--conditions", "30",
                     "--observers", "0", "--seed", "3"]) == 0
        manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
        assert {entry["experiment"] for entry in manifest["datasets"]} == {"pwc"}
        assert main(["scale", "--strict", "--manifest", "sim/manifest.json",
                     "--out", "out"]) == 0

    @pytest.mark.parametrize("subcommand", ["simulate", "recover"])
    @pytest.mark.parametrize("flag", ["--observers", "--trials"])
    def test_negative_count_is_usage_error(self, tmp_path, monkeypatch, subcommand, flag):
        monkeypatch.chdir(tmp_path)
        assert main([subcommand, "--out", "neg", "--conditions", "12", flag, "-1"]) == 1
        assert not (tmp_path / "neg").exists()

    @pytest.mark.parametrize("subcommand", ["simulate", "recover"])
    def test_no_dataset_is_usage_error(self, tmp_path, monkeypatch, subcommand):
        monkeypatch.chdir(tmp_path)
        assert main([subcommand, "--out", "none", "--conditions", "12", "--datasets", "0"]) == 1
        assert not (tmp_path / "none").exists()

    def test_one_rating_per_condition_is_a_data_error(self, tmp_path, monkeypatch, capsys):
        # with no spread within a condition, q affine in the ratings fits
        # them exactly and the likelihood grows without bound as c -> 0
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out", "sim", "--conditions", "60", "--observers", "1",
                     "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["scale", "--manifest", "sim/manifest.json", "--out", "out"]) == 2
        assert "no rating spread within any condition" in capsys.readouterr().err

    def test_ratings_file_without_rows_is_a_data_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out", "sim", "--conditions", "30", "--seed", "3"]) == 0
        (tmp_path / "sim" / "ratings_ds1.csv").write_text("condition,observer,score\n")
        capsys.readouterr()
        assert main(["scale", "--manifest", "sim/manifest.json", "--out", "out",
                     "--strict"]) == 2
        assert "ratings given for dataset 'ds1' have no rows" in capsys.readouterr().err

    @pytest.mark.parametrize("name, byte", [
        ("manifest.json", b"\xff"),
        ("conditions_ds0.csv", b"\xff"),
        ("comparisons.csv", b"\xff"),
        ("ratings_ds1.csv", b"\xe9"),  # a Latin-1 e-acute
    ])
    def test_invalid_utf8_is_a_data_error(self, tmp_path, monkeypatch, capsys, name, byte):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out", "sim", "--conditions", "30", "--seed", "3"]) == 0
        path = tmp_path / "sim" / name
        data = path.read_bytes()
        cut = data.index(b"\n") + 2  # inside the second line
        path.write_bytes(data[:cut] + byte + data[cut:])
        capsys.readouterr()
        assert main(["scale", "--manifest", "sim/manifest.json", "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert name in err and "is not valid UTF-8" in err

    def test_unrated_recovery_reports_no_links(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["recover", "--out", "rec", "--conditions", "30",
                     "--observers", "0", "--seed", "1"]) == 0
        report = json.loads((tmp_path / "rec" / "report.json").read_text())
        assert report["link_errors"] == {}
        assert report["link_error_summary"] == {"a_rel_max": 0.0, "b_abs_max": 0.0,
                                                "c_rel_max": 0.0}


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

    def test_scale_path_leaves_optimize_stats_integrate_and_linalg_unloaded(self, tmp_path):
        """``simulate``, ``scale`` and ``select-pairs`` never call
        scipy.optimize, scipy.stats, scipy.integrate, scipy.linalg,
        scipy.sparse.linalg or scipy.sparse.csgraph, so a fresh process
        importing the CLI, or running them, never pays for importing those."""
        package_root = str(Path(jodscale.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        unused = ("{'scipy.stats', 'scipy.optimize', 'scipy.integrate', 'scipy.linalg',"
                  " 'scipy.sparse.linalg', 'scipy.sparse.csgraph'}")
        child = "\n".join([
            "import sys",
            "import jodscale.cli",
            f"print('after import', sorted({unused} & set(sys.modules)))",
            "main = jodscale.cli.main",
            "assert main(['simulate', '--conditions', '30', '--out', 'sim']) == 0",
            "assert main(['scale', '--manifest', 'sim/manifest.json', '--out', 'scaled',"
            " '--strict', '--bootstrap', '3']) == 0",
            "assert main(['select-pairs', '--mode', 'cross-dataset',"
            " '--scale', 'scaled/scale.csv', '--out', 'sel']) == 0",
            f"print('after commands', sorted({unused} & set(sys.modules)))",
        ])
        result = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert "after import []" in lines
        assert lines[-1] == "after commands []"

    def test_importing_the_cli_leaves_the_process_pool_unloaded(self):
        """Only ``bootstrap_ci`` uses the process pool, so importing the
        CLI never pays for loading ``multiprocessing``."""
        package_root = str(Path(jodscale.__file__).resolve().parents[1])
        child = "\n".join([
            "import sys",
            f"sys.path.insert(0, {package_root!r})",
            "import jodscale.cli",
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))",
        ])
        result = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_bench_tracer_wraps_every_span_its_layer_metrics_need(self):
        """``bench/run.py`` wraps program functions by module and name; a
        name moved away from where it looks makes the per-layer metrics that
        need its span drop out. A child process keeps the thread settings
        that importing ``run`` makes out of this suite."""
        package_root = str(Path(jodscale.__file__).resolve().parents[1])
        bench = str(Path(__file__).resolve().parents[1] / "bench")
        child = "\n".join([
            "import sys",
            f"sys.path[:0] = [{bench!r}, {package_root!r}]",
            "import run, spans",
            "tracer = run.install_tracer()",
            "tracer.unwrap_all()",
            "needed = {span for _, names, _ in spans.LAYER_METRICS.values() for span in names}",
            "print(sorted(s for s in needed - tracer.wrapped if not s.startswith('cli.')))",
        ])
        result = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"


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

    @pytest.mark.parametrize("argv", [
        ["select-pairs", "--mode", "cross-dataset", "--scale", "scale.csv", "--k", "0"],
        ["select-pairs", "--mode", "cross-dataset", "--scale", "scale.csv", "--bins", "0"],
        ["select-pairs", "--mode", "cross-dataset", "--scale", "scale.csv", "--window", "-1"],
        ["select-pairs", "--mode", "gmad", "--metric-test", "scale.csv",
         "--metric-bench", "scale.csv", "--window", "nan"],
        ["pu-encode", "--input", "lum.csv", "--knots", "0"],
        ["simulate", "--conditions", "6", "--datasets", "2", "--density", "nan"],
        ["simulate", "--conditions", "6", "--datasets", "2", "--density", "inf"],
        ["recover", "--conditions", "6", "--datasets", "2", "--density", "-1"],
        ["simulate", "--conditions", "-4"],
        ["recover", "--conditions", "1", "--datasets", "1"],
        *(["scale", "--manifest", "missing.json", "--tol", tol]
          for tol in ("-1", "0", "nan", "inf")),
        ["scale", "--manifest", "missing.json", "--max-iter", "-3"],
        ["scale", "--manifest", "missing.json", "--bootstrap", "2", "--seed", "-1"],
        ["simulate", "--conditions", "6", "--datasets", "2", "--seed", "-1"],
        ["recover", "--conditions", "6", "--datasets", "2", "--seed", "-1"],
        # a non-finite float flag would be written into run.json, which JSON forbids
        ["scale", "--manifest", "missing.json", "--alpha", "inf"],
        ["select-pairs", "--mode", "cross-dataset", "--scale", "scale.csv", "--window", "inf"],
        ["pu-encode", "--input", "lum.csv", "--log-encode", "--gamma", "nan"],
    ])
    def test_flag_value_out_of_range(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scale.csv").write_text(
            "condition,jod,score\na/ref/reference/0,0.0,0.0\na/c0/d/1,-1.0,-1.0\n"
            "b/ref/reference/0,0.0,0.0\nb/c0/d/1,-0.5,-0.5\n")
        (tmp_path / "lum.csv").write_text("value\n1.0\n100.0\n")
        assert main([*argv, "--out", "out"]) == 1
        assert not (tmp_path / "out").exists()

    def test_gmad_requires_metric_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["select-pairs", "--mode", "gmad", "--out", "out"]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["--mode", "gmad", "--metric-test", "scale.csv"],
        ["--mode", "gmad", "--metric-bench", "scale.csv", "--scale", "scale.csv"],
        ["--mode", "cross-dataset"],
        ["--mode", "cross-dataset", "--metric-test", "scale.csv",
         "--metric-bench", "scale.csv"],
    ])
    def test_select_pairs_mode_files_checked_before_out(self, tmp_path, monkeypatch, capsys,
                                                        argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scale.csv").write_text("condition,jod,score\na/ref/reference/0,0,0\n")
        assert main(["select-pairs", *argv, "--out", "out"]) == 1
        assert "required for" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["stats", "--input", "values.csv"],
        ["scale", "--manifest", "fx/manifest.json"],
    ])
    def test_out_naming_a_file_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        write_two_condition_fixture(tmp_path / "fx")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "values.csv").write_text("value\n1.0\n100.0\n")
        for out in ("values.csv", "values.csv/sub"):
            assert main([*argv, "--out", out]) == 1
            assert "usage error: --out" in capsys.readouterr().err
        assert (tmp_path / "values.csv").read_text() == "value\n1.0\n100.0\n"

    @pytest.mark.parametrize("argv", [
        ["fit-logistic", "--scores", "short.csv", "--scale", "scale.csv"],
        ["validate", "--scores", "scale.csv", "--scale", "short.csv"],
        ["select-pairs", "--mode", "cross-dataset", "--scale", "short.csv"],
        ["select-pairs", "--mode", "gmad", "--metric-test", "short.csv",
         "--metric-bench", "scale.csv"],
    ])
    def test_short_row_in_keyed_csv_is_data_error(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scale.csv").write_text(
            "condition,jod,score\na/ref/reference/0,0.0,0.0\na/c0/d/1,-1.0,-1.0\n")
        (tmp_path / "short.csv").write_text(
            "condition,jod,score\na/ref/reference/0,0.0,0.0\na/c0/d/1\n")
        assert main([*argv, "--out", "out"]) == 2

    @pytest.mark.parametrize("argv, output", [
        (["stats", "--input", "values.csv"], "stats.json"),
        (["pu-encode", "--input", "values.csv", "--knots", "64"], "encoded.csv"),
    ])
    @pytest.mark.parametrize("text, message", [
        ("1.0\n100.0\n", "missing columns ['value']"),
        ("value\n# luminance in cd/m^2\n1.0\n", "column 'value'"),
        ("", "missing columns ['value']"),
        ("value\n1.0\ninf\n", "must be finite"),
        ("value\nnan\n100.0\n", "must be finite"),
    ])
    def test_malformed_value_file_is_data_error(self, tmp_path, monkeypatch, capsys,
                                                argv, output, text, message):
        """A value file without its header, with a comment line, empty, or
        holding a non-finite value; no output is written."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "values.csv").write_text(text)
        assert main([*argv, "--out", "out"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / output).exists()

    def test_duplicate_key_in_keyed_csv_is_data_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scale.csv").write_text(
            "condition,jod\na/ref/reference/0,0.0\na/c0/d/1,-1.0\na/c0/d/1,-2.0\n")
        assert main(["select-pairs", "--mode", "cross-dataset", "--scale", "scale.csv",
                     "--out", "out"]) == 2
        assert "duplicate condition 'a/c0/d/1'" in capsys.readouterr().err

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
        # the counts, formatted once per distinct value, read as str.format gives
        keys = [cond.key for cond in coll.conditions]
        winners, losers, counts = coll.graph.observations()
        expected = "cond_a,cond_b,count_a_over_b\n" + "".join(map(
            "{},{},{}\n".format, [keys[w] for w in winners], [keys[v] for v in losers],
            counts.tolist()))
        assert (tmp_path / "sim" / "comparisons.csv").read_text() == expected

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

    def test_accuracy_curve_skips_unlisted_conditions_and_unmet_thresholds(
            self, tmp_path, monkeypatch):
        """Eight scored conditions outside the manifest take part in the fit
        but not in the curve; its one pair, 0.3 JOD apart, clears the 0 and
        0.25 thresholds only, and the five higher ones are left out."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "manifest.json").write_text(json.dumps({
            "datasets": [{"name": "x", "conditions": ["x/ref/reference/0", "x/c0/d/1"]}],
            "comparisons": "comparisons.csv"}))
        (tmp_path / "comparisons.csv").write_text(
            "cond_a,cond_b,count_a_over_b\nx/ref/reference/0,x/c0/d/1,5\n")
        rows = [("x/ref/reference/0", 0.0), ("x/c0/d/1", -0.3)] + [
            (f"y/c{k}/d/1", -0.2 * k - 0.1) for k in range(8)]
        for name, column in (("scores.csv", "score"), ("scale.csv", "jod")):
            (tmp_path / name).write_text(f"condition,{column}\n" + "".join(
                f"{key},{value!r}\n" for key, value in rows))
        assert main([*_VALIDATE, "--manifest", "manifest.json", "--out", "val"]) == 0
        report = json.loads((tmp_path / "val" / "validation.json").read_text())
        assert report["n_conditions"] == 10
        assert report["accuracy_curve"] == [[0.0, 1.0], [0.25, 1.0]]

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
    @pytest.mark.parametrize("text", [
        "value\n0.8\n80.0\n10.0\n",
        'name,value\n"office, dim",0.8\nbright,80.0\r\n\n"mid",10.0\n',
    ])
    def test_anchor_values(self, tmp_path, monkeypatch, text):
        """The ``value`` column is found by name, also after a quoted one."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "values.csv").write_text(text)
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
        code = main(["pu-encode", "--input", "values.csv", "--out", "enc", "--log-encode"])
        assert code == 0
        lines = (tmp_path / "enc" / "encoded.csv").read_text().strip().splitlines()[1:]
        assert float(lines[0]) == pytest.approx(0.0, abs=1e-6)
        assert float(lines[1]) == pytest.approx(255.0, abs=1e-6)

    @pytest.mark.parametrize("flag", [["--threshold", "/nonexistent.csv"], ["--l-min", "5"],
                                      ["--l-max", "1e4"], ["--knots", "4096"]])
    def test_lut_excludes_the_options_that_build_one(self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "values.csv").write_text("value\n0.8\n80.0\n")
        argv = ["pu-encode", "--input", "values.csv", "--out", "enc"]
        assert main([*argv, "--save-lut", "lut.csv"]) == 0
        options = json.loads((tmp_path / "enc" / "run.json").read_text())["options"]
        assert (options["threshold"], options["l_min"], options["l_max"], options["knots"]) \
            == (None, 0.001, 1e6, 4096)
        argv[-1] = "with-lut"
        assert main([*argv, "--lut", "enc/lut.csv", *flag]) == 1
        assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "with-lut").exists()
        assert main([*argv, "--lut", "enc/lut.csv"]) == 0
        assert (tmp_path / "with-lut" / "encoded.csv").read_bytes() \
            == (tmp_path / "enc" / "encoded.csv").read_bytes()

    @pytest.mark.parametrize("flag", [["--threshold", "thr.csv"], ["--l-min", "5"],
                                      ["--l-max", "1e4"], ["--knots", "4096"],
                                      ["--lut", "lut.csv"], ["--save-lut", "lut.csv"]])
    def test_log_encode_excludes_the_table_options(self, tmp_path, monkeypatch, capsys, flag):
        """The logarithmic encoding builds, loads and writes no look-up table."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "values.csv").write_text("value\n0.8\n80.0\n")
        argv = ["pu-encode", "--input", "values.csv", "--out", "enc", "--log-encode"]
        assert main([*argv, *flag]) == 1
        assert f"{flag[0]} is for the PU look-up table" in capsys.readouterr().err
        assert not (tmp_path / "enc").exists()

    @pytest.mark.parametrize("flag", [["--l-black", "3"], ["--gamma", "7"]])
    def test_display_flags_need_a_peak(self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "values.csv").write_text("value\n0.5\n1.0\n")
        argv = ["pu-encode", "--input", "values.csv", "--out", "enc"]
        assert main([*argv, *flag]) == 1
        assert f"{flag[0]} describes the display" in capsys.readouterr().err
        assert not (tmp_path / "enc").exists()
        assert main([*argv, "--l-peak", "100"]) == 0
        options = json.loads((tmp_path / "enc" / "run.json").read_text())["options"]
        assert (options["l_black"], options["gamma"]) == (0.5, 2.2)

    def test_log_encode_range(self, tmp_path, monkeypatch):
        """Below the 0.8 cd/m^2 anchor the logarithmic encoding clamps with a
        warning, or is a data error under --strict."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "values.csv").write_text("value\n0.5\n")
        argv = ["pu-encode", "--input", "values.csv", "--log-encode"]
        assert main([*argv, "--out", "strict", "--strict"]) == 2
        assert not (tmp_path / "strict" / "encoded.csv").exists()
        with pytest.warns(UserWarning, match="below 0.8 cd/m"):
            assert main([*argv, "--out", "enc"]) == 0
        assert (tmp_path / "enc" / "encoded.csv").read_text() == "value\n0.000000\n"


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


    @pytest.mark.parametrize("mode", ["cross-dataset", "gmad"])
    def test_non_finite_score_is_data_error(self, tmp_path, monkeypatch, mode):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scores.csv").write_text(
            "condition,jod,score\na/ref/reference/0,0.0,0.0\na/c0/d/1,nan,nan\n"
            "b/ref/reference/0,0.0,0.0\nb/c0/d/1,-0.5,-0.5\n")
        inputs = (["--scale", "scores.csv"] if mode == "cross-dataset" else
                  ["--metric-test", "scores.csv", "--metric-bench", "scores.csv"])
        assert main(["select-pairs", "--mode", mode, *inputs, "--out", "sel"]) == 2
        assert not (tmp_path / "sel" / "selection.json").exists()


_FIT = ["fit-logistic", "--scores", "scores.csv", "--scale", "scale.csv"]
_VALIDATE = ["validate", "--scores", "scores.csv", "--scale", "scale.csv"]
_LINKFIT = ["linkfit", "--manifest", "sim/manifest.json", "--scale", "scale.csv"]


@pytest.mark.parametrize("argv, column, bad", [
    (_FIT, "score", "nan"), (_FIT, "jod", "inf"),
    (_VALIDATE, "score", "nan"), (_VALIDATE, "jod", "inf"),
    (_LINKFIT, "jod", "inf"),  # linkfit reads no --scores
])
def test_non_finite_keyed_value_is_data_error(tmp_path, monkeypatch, capsys, argv, column, bad):
    """One non-finite score or JOD among 20 conditions, on a rated one:
    exit 2 naming the condition, not a solver failure."""
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--out", "sim", "--conditions", "20", "--datasets", "2"]) == 0
    keys = [key for name in ("conditions_ds0.csv", "conditions_ds1.csv")
            for key in (tmp_path / "sim" / name).read_text().split()[1:]]
    for name, value_column in (("scores.csv", "score"), ("scale.csv", "jod")):
        values = [bad if value_column == column and k == 17 else str(-0.1 * k)
                  for k in range(len(keys))]
        (tmp_path / name).write_text(f"condition,{value_column}\n" + "".join(
            f"{key},{value}\n" for key, value in zip(keys, values)))
    assert main([*argv, "--out", "out"]) == 2
    assert f"{column} of condition {keys[17]!r}" in capsys.readouterr().err


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

    def test_all_equal_values(self, tmp_path, monkeypatch):
        """Equal values get unit-wide bins around their log, like numpy's
        own histogram, instead of zero-width ones."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "lum.csv").write_text("value\n5\n5\n")
        assert main(["stats", "--input", "lum.csv", "--out", "st"]) == 0
        histogram = json.loads((tmp_path / "st" / "stats.json").read_text())["histogram"]
        edges = np.array(histogram["log10_edges"])
        assert edges.size == 65 and np.all(np.diff(edges) > 0)
        assert edges[[0, -1]] == pytest.approx(np.log10(5) + np.array([-0.5, 0.5]))
        assert histogram["counts"] == [0] * 32 + [2] + [0] * 31

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


# condition,jod,score: jod = score / 2 - 3.25 exactly, datasets a and b interleaved
_KEYED = (
    "condition,jod,score\n"
    "a/ref/reference/0,-2.75,1.0\n"
    "a/c1/d/1,-1.75,3.0\n"
    "a/c2/d/1,-0.75,5.0\n"
    "a/c3/d/1,0.25,7.0\n"
    "b/ref/reference/0,-2.25,2.0\n"
    "b/c1/d/1,-1.25,4.0\n"
    "b/c2/d/1,-0.25,6.0\n"
    "b/c3/d/1,0.75,8.0\n"
)
_BENCH = (
    "condition,score\n"
    "a/ref/reference/0,4.0\n"
    "a/c1/d/1,8.0\n"
    "a/c2/d/1,1.0\n"
    "a/c3/d/1,6.0\n"
    "b/ref/reference/0,3.0\n"
    "b/c1/d/1,7.0\n"
    "b/c2/d/1,2.0\n"
    "b/c3/d/1,5.0\n"
)

# argv (without --out) -> the exact text of every CSV file the run writes
_PINNED = {
    "scale": (["scale", "--manifest", "fx/manifest.json", "--no-prior"], {
        "scale.csv": (
            "condition,jod,ci_low,ci_high\n"
            "demo/ref/reference/0,0.000000,,\n"
            "demo/c0/dist/1,-0.999658,,\n"
        ),
    }),
    "scale-bootstrap": (["scale", "--manifest", "fx/manifest.json", "--no-prior",
                         "--bootstrap", "4", "--seed", "9"], {
        "scale.csv": (
            "condition,jod,ci_low,ci_high\n"
            "demo/ref/reference/0,0.000000,0.000000,0.000000\n"
            "demo/c0/dist/1,-0.999658,-1.036416,-0.696304\n"
        ),
    }),
    # on the "simulate" case's output (in sim/): a rated collection
    "scale-bootstrap-rated": (["scale", "--manifest", "sim/manifest.json",
                               "--bootstrap", "10", "--seed", "3"], {
        "scale.csv": (
            "condition,jod,ci_low,ci_high\n"
            "ds0/ref/reference/0,0.000000,0.000000,0.000000\n"
            "ds0/c000/dist/1,-1.734978,-1.887093,-1.529275\n"
            "ds0/c001/dist/1,-3.516153,-4.023864,-3.375259\n"
            "ds1/ref/reference/0,0.000000,0.000000,0.000000\n"
            "ds1/c000/dist/1,-4.640555,-5.356079,-4.605551\n"
            "ds1/c001/dist/1,-4.874999,-5.573461,-4.514289\n"
        ),
    }),
    "simulate": (["simulate", "--conditions", "6", "--datasets", "2"], {
        "comparisons.csv": (
            "cond_a,cond_b,count_a_over_b\n"
            "ds0/ref/reference/0,ds0/c000/dist/1,29\n"
            "ds0/ref/reference/0,ds0/c001/dist/1,30\n"
            "ds0/ref/reference/0,ds1/c000/dist/1,30\n"
            "ds0/c000/dist/1,ds0/ref/reference/0,1\n"
            "ds0/c000/dist/1,ds0/c001/dist/1,29\n"
            "ds0/c000/dist/1,ds1/c001/dist/1,30\n"
            "ds0/c001/dist/1,ds0/c000/dist/1,1\n"
            "ds0/c001/dist/1,ds1/c000/dist/1,26\n"
            "ds1/ref/reference/0,ds0/c001/dist/1,30\n"
            "ds1/ref/reference/0,ds1/c000/dist/1,30\n"
            "ds1/ref/reference/0,ds1/c001/dist/1,30\n"
            "ds1/c000/dist/1,ds0/c001/dist/1,4\n"
            "ds1/c000/dist/1,ds1/c001/dist/1,18\n"
            "ds1/c001/dist/1,ds1/c000/dist/1,12\n"
        ),
        "conditions_ds0.csv": (
            "condition\n"
            "ds0/ref/reference/0\n"
            "ds0/c000/dist/1\n"
            "ds0/c001/dist/1\n"
        ),
        "conditions_ds1.csv": (
            "condition\n"
            "ds1/ref/reference/0\n"
            "ds1/c000/dist/1\n"
            "ds1/c001/dist/1\n"
        ),
        "ratings_ds1.csv": (
            "condition,observer,score\n"
            "ds1/ref/reference/0,o000,0.20729224389990866\n"
            "ds1/ref/reference/0,o001,-0.00893280679095293\n"
            "ds1/ref/reference/0,o002,0.6280978907223416\n"
            "ds1/ref/reference/0,o003,-0.6381936078993115\n"
            "ds1/ref/reference/0,o004,-0.43954158613261785\n"
            "ds1/ref/reference/0,o005,0.4495251490466826\n"
            "ds1/ref/reference/0,o006,-1.094501729939759\n"
            "ds1/ref/reference/0,o007,-0.8961113964718349\n"
            "ds1/ref/reference/0,o008,-1.209270623644823\n"
            "ds1/ref/reference/0,o009,-3.1732930758120745\n"
            "ds1/ref/reference/0,o010,-2.224167687690996\n"
            "ds1/ref/reference/0,o011,0.44054607446012406\n"
            "ds1/ref/reference/0,o012,1.6403560378285225\n"
            "ds1/ref/reference/0,o013,1.1090953011331337\n"
            "ds1/ref/reference/0,o014,1.1648562307452153\n"
            "ds1/c000/dist/1,o000,-4.72591635847419\n"
            "ds1/c000/dist/1,o001,-3.68071149980267\n"
            "ds1/c000/dist/1,o002,-3.736493929016367\n"
            "ds1/c000/dist/1,o003,-3.208012362585045\n"
            "ds1/c000/dist/1,o004,-4.143766576745789\n"
            "ds1/c000/dist/1,o005,-3.0573442258389374\n"
            "ds1/c000/dist/1,o006,-5.015386709337461\n"
            "ds1/c000/dist/1,o007,-3.474869386154149\n"
            "ds1/c000/dist/1,o008,-1.0648058084557714\n"
            "ds1/c000/dist/1,o009,-3.51706726957904\n"
            "ds1/c000/dist/1,o010,-3.6956797475998897\n"
            "ds1/c000/dist/1,o011,-6.218153204958378\n"
            "ds1/c000/dist/1,o012,-3.535873535637569\n"
            "ds1/c000/dist/1,o013,-2.608679622548344\n"
            "ds1/c000/dist/1,o014,-1.9981392014749018\n"
            "ds1/c001/dist/1,o000,-1.2733103805862847\n"
            "ds1/c001/dist/1,o001,-2.6027223305163543\n"
            "ds1/c001/dist/1,o002,-6.474537165046348\n"
            "ds1/c001/dist/1,o003,-1.427398706664\n"
            "ds1/c001/dist/1,o004,-4.285516737618978\n"
            "ds1/c001/dist/1,o005,-3.7069479500698286\n"
            "ds1/c001/dist/1,o006,-6.681945098787011\n"
            "ds1/c001/dist/1,o007,-3.9147136870910093\n"
            "ds1/c001/dist/1,o008,-2.742480024286564\n"
            "ds1/c001/dist/1,o009,-3.8755395165287463\n"
            "ds1/c001/dist/1,o010,-4.41706003841101\n"
            "ds1/c001/dist/1,o011,-3.409574203266215\n"
            "ds1/c001/dist/1,o012,-4.602621486151328\n"
            "ds1/c001/dist/1,o013,-3.65019157551137\n"
            "ds1/c001/dist/1,o014,-3.557031675128462\n"
        ),
        "manifest.json": (
            "{\n"
            '  "comparisons": "comparisons.csv",\n'
            '  "datasets": [\n'
            "    {\n"
            '      "conditions": "conditions_ds0.csv",\n'
            '      "display": {\n'
            '        "L_black": 0.5,\n'
            '        "L_peak": 100.0,\n'
            '        "gamma": 2.2\n'
            "      },\n"
            '      "experiment": "pwc",\n'
            '      "name": "ds0"\n'
            "    },\n"
            "    {\n"
            '      "conditions": "conditions_ds1.csv",\n'
            '      "display": {\n'
            '        "L_black": 0.5,\n'
            '        "L_peak": 100.0,\n'
            '        "gamma": 2.2\n'
            "      },\n"
            '      "experiment": "rating",\n'
            '      "name": "ds1",\n'
            '      "ratings": "ratings_ds1.csv"\n'
            "    }\n"
            "  ]\n"
            "}\n"
        ),
    }),
    "select-cross-dataset": (["select-pairs", "--mode", "cross-dataset",
                              "--scale", "keyed.csv", "--k", "3"], {
        "pairs.csv": (
            "cond_a,cond_b,count_a_over_b\n"
            "a/ref/reference/0,b/ref/reference/0,0\n"
            "a/c1/d/1,b/ref/reference/0,0\n"
            "a/c1/d/1,b/c1/d/1,0\n"
        ),
    }),
    "select-gmad": (["select-pairs", "--mode", "gmad", "--metric-test", "keyed.csv",
                     "--metric-bench", "bench.csv", "--k", "2", "--window", "2.5"], {
        "pairs.csv": (
            "cond_a,cond_b,count_a_over_b\n"
            "a/ref/reference/0,b/c3/d/1,0\n"
            "b/c2/d/1,b/ref/reference/0,0\n"
        ),
    }),
    "fit-logistic": (["fit-logistic", "--scores", "keyed.csv", "--scale", "keyed.csv"], {
        "mapped.csv": (
            "condition,score,jod\n"
            "a/ref/reference/0,1.0,-2.750000\n"
            "a/c1/d/1,3.0,-1.750000\n"
            "a/c2/d/1,5.0,-0.750000\n"
            "a/c3/d/1,7.0,0.250000\n"
            "b/ref/reference/0,2.0,-2.250000\n"
            "b/c1/d/1,4.0,-1.250000\n"
            "b/c2/d/1,6.0,-0.250000\n"
            "b/c3/d/1,8.0,0.750000\n"
        ),
    }),
    "pu-encode": (["pu-encode", "--input", "values.csv", "--knots", "512"], {
        "encoded.csv": (
            "value\n"
            "0.000000\n"
            "255.000000\n"
            "121.607141\n"
            "419.555723\n"
        ),
    }),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_csv_bytes(self, tmp_path, monkeypatch, name):
        argv, expected = _PINNED[name]
        write_two_condition_fixture(tmp_path / "fx")
        (tmp_path / "keyed.csv").write_text(_KEYED)
        (tmp_path / "bench.csv").write_text(_BENCH)
        (tmp_path / "values.csv").write_text("value\n0.8\n80.0\n10.0\n1000.0\n")
        monkeypatch.chdir(tmp_path)
        if "sim/manifest.json" in argv:
            assert main([*_PINNED["simulate"][0], "--out", "sim"]) == 0
        assert main([*argv, "--out", "out"]) == 0
        written = {path.name: path.read_bytes().decode()
                   for pattern in ("*.csv", "manifest.json")
                   for path in (tmp_path / "out").glob(pattern)}
        assert written == expected


# sha256 of scale.csv for `simulate --conditions 300 --seed 7` -> `scale --strict` + extra argv
_PINNED_SIMULATED_SCALE = {
    "plain": ([], "1da3b0d36e350ac2236dea7c4d24dca119cd4b165484e305d10296a62b68742a"),
    "bootstrap": (["--bootstrap", "20", "--seed", "3"],
                  "38bf70d34e29a7d4e7684939ac56c33340125ceace89760f23e8f87b466f5013"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_SIMULATED_SCALE))
def test_scale_of_a_mid_size_simulated_study_is_pinned(tmp_path, monkeypatch, name):
    extra, digest = _PINNED_SIMULATED_SCALE[name]
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--conditions", "300", "--seed", "7", "--out", "sim"]) == 0
    assert main(["scale", "--manifest", "sim/manifest.json", "--strict", *extra,
                 "--out", "out"]) == 0
    assert hashlib.sha256((tmp_path / "out" / "scale.csv").read_bytes()).hexdigest() == digest


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [0, 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
    def test_matches_one_format_per_row(self, tmp_path, rows):
        """Every row format the CSV outputs use, on condition keys, observer
        ids, count strings and floats."""
        rng = np.random.default_rng(rows)
        specials = [0.0, -0.0, 0.1, 1e-7, -2.5e16, 1 / 3, 123456.0000005]
        floats = (specials + rng.normal(scale=3.0, size=rows).tolist())[:rows]
        others = rng.uniform(-5.0, 0.0, size=rows).tolist()
        keys = [f"ds{r % 3}/c{r:04d}/dist/1" for r in range(rows)]
        observers = [f"o{r % 15:03d}" for r in range(rows)]
        counts = list(map(str, rng.integers(0, 31, size=rows).tolist()))
        for row_format, columns in [
            ("{},{:.6f},,\n", (keys, floats)),
            ("{},{:.6f},{:.6f},{:.6f}\n", (keys, floats, others, floats)),
            ("{}\n", (keys,)),
            ("{},{},{!r}\n", (keys, observers, floats)),
            ("{},{},{}\n", (keys, keys[::-1], counts)),
            ("{},{!r},{:.6f}\n", (keys, floats, others)),
            ("{:.6f}\n", (floats,)),
            ("{},{},0\n", (keys, observers)),
            ("{!r},{!r}\n", (floats, others)),
        ]:
            path = tmp_path / "out.csv"
            _write_csv(path, "h,e,a,d", row_format, *columns)
            expected = "h,e,a,d\n" + "".join(map(row_format.format, *columns))
            assert path.read_bytes().decode() == expected, row_format
            if rows == 0:  # the header alone, with no stray newline
                assert expected == "h,e,a,d\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_what_json_cannot_hold(tmp_path, value):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "out.json", {"options": {"alpha": value}})


def test_only_csvio_imports_csv():
    """Every CSV file is read and written by ``jodscale.csvio``."""
    importers = set()
    for path in Path(jodscale.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "csv" in names:
                importers.add(path.stem)
    assert importers == {"csvio"}
