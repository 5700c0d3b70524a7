"""Command-line front end.

Subcommands: scale, simulate, recover, validate, fit-logistic, pu-encode,
select-pairs, linkfit, stats. Every successful run writes a ``run.json``
echoing the resolved options and the library version next to its outputs.
All outputs are plain CSV or JSON and are byte-identical across runs with
the same inputs and seed.

Exit codes: 0 success, 1 usage error, 2 data integrity error, 3 numerical
failure (``scale --strict`` on a solve that stops for any reason but
``converged``: ``max_iter``, ``line_search`` or ``boundary_link``, which the
message names). Usage errors include an unknown flag (each subcommand takes
only the flags it reads: --seed belongs to scale, simulate and recover,
--strict to scale and pu-encode) and a value out of range: any float flag
NaN or infinite, ``scale --bootstrap`` or ``select-pairs --window`` below 0,
``scale --tol`` not above 0, ``scale --max-iter`` below 0,
``scale``/``simulate``/``recover --seed`` below 0,
``simulate``/``recover --density``, ``--trials`` or ``--observers`` below 0,
``simulate``/``recover --datasets``, ``stats``/``select-pairs --bins`` or
``select-pairs --k`` below 1, ``simulate``/``recover --conditions`` below 2,
``pu-encode --knots`` below 64. Flag ranges are checked at parse time.
``pu-encode --lut`` with a flag that builds a look-up table (``--threshold``,
``--l-min``, ``--l-max``, ``--knots``), ``pu-encode --log-encode`` with one of
those, ``--lut`` or ``--save-lut``, ``pu-encode --l-black`` or ``--gamma``
without ``--l-peak``, a ``select-pairs`` mode without the input files it needs
and an ``--out`` that cannot be made a directory (it names an existing file,
say) are usage errors too, all but the last found before any output directory
exists. A finite ``--alpha`` outside (0, 1) with ``scale --bootstrap``, a
non-finite value in a keyed input (``--scores``, ``--scale``,
``--metric-test``, ``--metric-bench``), a non-finite ``pu-encode``/``stats``
input value and a ``pu-encode --strict`` one out of range (for
``--log-encode``, below 0.8 cd/m^2) are data integrity errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .csvio import _cells, _read_csv, _write_csv, _write_json
from .design import select_cross_dataset_pairs, select_gmad_pairs
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    DesignError,
    IntegrityError,
    JodscaleError,
)
from .linkfit import fit_report
from .metricmap import correlation_metrics, eval_logistic, fit_logistic, pairwise_accuracy
from .model import ConditionId, load_collection, save_collection
from .photometry import (
    DEFAULT_KNOTS,
    DEFAULT_L_MAX,
    DEFAULT_L_MIN,
    SDR_GAMMA,
    DisplayModel,
    PuLut,
    build_pu_lut,
    default_threshold,
    display_forward,
    log_encode,
    pu_encode,
    tabulated_threshold,
)
from .scaling import bootstrap_ci, scale
from .simulate import RecoveryConfig, recovery_experiment, synthesize_collection

_ACCURACY_THRESHOLDS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_run_config(out_dir: Path, args: argparse.Namespace) -> None:
    options = {k: v for k, v in vars(args).items() if k not in ("func", "subcommand")}
    _write_json(
        out_dir / "run.json",
        {"version": __version__, "subcommand": args.subcommand, "options": options},
    )


def _at_least(minimum=None, convert=int, above=False):
    """An argparse ``type`` converting the text with ``convert`` and
    accepting values of at least ``minimum`` (if given), or only above it
    with ``above``, and only finite floats, so that a flag out of range
    fails at parse time."""
    finite = convert is float
    needs = [f"{'above' if above else 'at least'} {minimum}"] * (minimum is not None)
    needs += ["finite"] * finite

    def parse(text):
        value = convert(text)
        if (minimum is not None and not (value > minimum if above else value >= minimum)
                or finite and not math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be {' and '.join(needs)}, got {text}")
        return value

    parse.__name__ = convert.__name__  # for argparse's "invalid int value" message
    return parse


def _read_keyed_csv(path, value_column: str) -> dict[str, float]:
    keys, values = _read_csv(
        path, {"condition": _cells(str.strip, str), value_column: _cells(float, float)}
    )
    keys = keys.tolist()
    if not np.all(np.isfinite(values)):
        key = keys[int(np.argmin(np.isfinite(values)))]
        raise IntegrityError(f"{value_column} of condition {key!r} in {path} must be finite")
    out = dict(zip(keys, values.tolist()))
    if len(out) < len(keys):
        key = next(key for key, count in Counter(keys).items() if count > 1)
        raise IntegrityError(f"duplicate condition {key!r} in {path}")
    return out


def _read_values_csv(path) -> np.ndarray:
    values, = _read_csv(path, {"value": _cells(float, float)})
    if not np.all(np.isfinite(values)):
        raise IntegrityError(f"values in {path} must be finite")
    return values


def _fitted_scores(args):
    """Join ``--scores`` and ``--scale`` on condition (in score-file order),
    fit the logistic mapping and apply it: (keys, scores, jods, fit, mapped)."""
    scores = _read_keyed_csv(args.scores, "score")
    jods = _read_keyed_csv(args.scale, "jod")
    keys = [key for key in scores if key in jods]
    if not keys:
        raise IntegrityError("the score and scale files share no conditions")
    x = np.array([scores[k] for k in keys])
    y = np.array([jods[k] for k in keys])
    fit = fit_logistic(x, y)
    return keys, x, y, fit, eval_logistic(fit.params, x)


def _cmd_scale(args, out: Path) -> None:
    collection = load_collection(args.manifest)
    result = scale(collection, prior_enabled=args.prior, tol=args.tol, max_iter=args.max_iter,
                   per_component=args.per_component)
    if args.strict and not result.converged:
        unlinked = [name for name in result.problem.rating_names if name not in result.links]
        raise ConvergenceError(
            f"rating datasets {unlinked} have no link: their fitted slope is 0"
            if result.reason == "boundary_link" else f"the solver stopped on {result.reason} "
            f"after {result.iterations} iterations, short of tolerance {args.tol}")
    row_format = "{},{:.6f},,\n"
    columns = [[cond.key for cond in result.conditions], result.q.tolist()]
    if args.bootstrap > 0:
        intervals = bootstrap_ci(result, args.bootstrap, seed=args.seed, alpha=args.alpha)
        row_format = "{},{:.6f},{:.6f},{:.6f}\n"
        columns += [intervals[:, 0].tolist(), intervals[:, 1].tolist()]
    _write_csv(out / "scale.csv", "condition,jod,ci_low,ci_high", row_format, *columns)
    _write_json(
        out / "links.json",
        {name: {"a": link.a, "b": link.b, "c": link.c}
         for name, link in sorted(result.links.items())},
    )
    _write_json(out / "report.json", {"log_posterior": result.log_posterior,
                                      "iterations": result.iterations,
                                      "converged": result.converged})
    print(f"scaled {collection.n} conditions; log posterior {result.log_posterior:.4f}")


def _recovery_config(args) -> RecoveryConfig:
    return RecoveryConfig(
        n_conditions=args.conditions,
        n_datasets=args.datasets,
        trials_per_pair=args.trials,
        observers=args.observers,
        graph_density=args.density,
        seed=args.seed,
    )


def _cmd_simulate(args, out: Path) -> None:
    _, collection = synthesize_collection(_recovery_config(args))
    save_collection(collection, out)
    print(f"simulated {collection.n} conditions into {out}")


def _cmd_recover(args, out: Path) -> None:
    report = recovery_experiment(_recovery_config(args))
    runtime = report.pop("runtime_seconds")
    _write_json(out / "report.json", report)
    print(json.dumps({**report, "runtime_seconds": runtime}, sort_keys=True, indent=2))
    print(f"recovery finished in {runtime:.2f} s", file=sys.stderr)


def _accuracy_curve(mapped: dict[str, float], manifest_path) -> list[list[float]]:
    collection = load_collection(manifest_path)
    # a pair with an unscored condition has a NaN gap and clears no threshold
    scores = np.full(collection.n, np.nan)
    for key, value in mapped.items():
        try:
            scores[collection.index_of(key)] = value
        except IntegrityError:
            continue
    curve = []
    for threshold in _ACCURACY_THRESHOLDS:
        try:
            result = pairwise_accuracy(scores, collection.graph, threshold)
        except DesignError:  # no pair clears the threshold
            continue
        curve.append([threshold, result.accuracy])
    return curve


def _cmd_validate(args, out: Path) -> None:
    keys, _, jods, fit, mapped = _fitted_scores(args)
    stats = correlation_metrics(mapped, jods)
    payload = {
        "srocc": stats.srocc,
        "plcc": stats.plcc,
        "rmse": stats.rmse,
        "n_conditions": len(keys),
        "logistic_converged": fit.converged,
        "accuracy_curve": [],
    }
    if args.manifest:
        payload["accuracy_curve"] = _accuracy_curve(
            dict(zip(keys, mapped.tolist())), args.manifest
        )
    _write_json(out / "validation.json", payload)
    print(json.dumps(payload, sort_keys=True, indent=2))


def _cmd_fit_logistic(args, out: Path) -> None:
    keys, scores, _, fit, mapped = _fitted_scores(args)
    _write_json(out / "logistic.json",
                {"params": dataclasses.asdict(fit.params), "rmse": fit.rmse,
                 "converged": fit.converged})
    _write_csv(out / "mapped.csv", "condition,score,jod", "{},{!r},{:.6f}\n",
               keys, scores.tolist(), mapped.tolist())
    print(f"fit rmse {fit.rmse:.6f} over {len(keys)} conditions")


def _cmd_pu_encode(args, out: Path) -> None:
    values = _read_values_csv(args.input)
    if not args.log_encode:
        lut = PuLut.from_csv(args.lut) if args.lut else build_pu_lut(
            tabulated_threshold(args.threshold) if args.threshold else default_threshold,
            args.l_min, args.l_max, args.knots)
    if args.l_peak is not None:
        display = DisplayModel(args.l_peak, args.l_black, args.gamma)
        values = display_forward(values, display, strict=args.strict)
    encoded = (log_encode(values, strict=args.strict) if args.log_encode
               else pu_encode(values, lut, strict=args.strict))
    _write_csv(out / "encoded.csv", "value", "{:.6f}\n", encoded.tolist())
    if args.save_lut:  # never with --log-encode
        lut.to_csv(out / args.save_lut)
    print(f"encoded {encoded.size} values")


def _check_pu_encode(args) -> None:
    """The flags one path of ``pu-encode`` excludes, checked before ``--out``
    is made: ``--lut`` replaces the options that build a look-up table,
    ``--log-encode`` uses no table at all, and the display flags need
    ``--l-peak``. Then the unset ones take their defaults."""
    builders = ("threshold", "l_min", "l_max", "knots")
    for excluded, names, reason in (
            (args.lut, builders, "builds a look-up table, which --lut replaces; pass one "
                                 "or the other"),
            (args.log_encode, (*builders, "lut", "save_lut"),
             "is for the PU look-up table, which --log-encode does not use"),
            (args.l_peak is None, ("l_black", "gamma"),
             "describes the display, which needs --l-peak")):
        for name in names:
            if excluded and getattr(args, name) is not None:
                raise UsageError(f"--{name.replace('_', '-')} {reason}")
    for name, default in (("l_min", DEFAULT_L_MIN), ("l_max", DEFAULT_L_MAX),
                          ("knots", DEFAULT_KNOTS), ("l_black", 0.5), ("gamma", SDR_GAMMA)):
        if getattr(args, name) is None:
            setattr(args, name, default)


def _check_select_pairs(args) -> None:
    """The input files each ``select-pairs`` mode needs, checked before
    ``--out`` is made."""
    if args.mode == "cross-dataset" and not args.scale:
        raise UsageError("--scale is required for cross-dataset selection")
    if args.mode == "gmad" and not (args.metric_test and args.metric_bench):
        raise UsageError("--metric-test and --metric-bench are required for gmad")


def _cmd_select_pairs(args, out: Path) -> None:
    if args.mode == "cross-dataset":
        jods = _read_keyed_csv(args.scale, "jod")
        conditions = tuple(ConditionId.parse(key) for key in jods)
        batch = select_cross_dataset_pairs(
            list(jods.values()), conditions, args.k, args.window, args.bins
        )
    else:
        test = _read_keyed_csv(args.metric_test, "score")
        bench = _read_keyed_csv(args.metric_bench, "score")
        keys = sorted(set(test) & set(bench))
        if not keys:
            raise IntegrityError("the metric files share no conditions")
        conditions = tuple(ConditionId.parse(key) for key in keys)
        batch = select_gmad_pairs(
            np.array([test[k] for k in keys]),
            np.array([bench[k] for k in keys]),
            args.k,
            args.window,
            allow_reuse=args.allow_reuse,
        )
    firsts = [conditions[i].key for i, _ in batch.pairs]
    seconds = [conditions[j].key for _, j in batch.pairs]
    _write_csv(out / "pairs.csv", "cond_a,cond_b,count_a_over_b", "{},{},0\n", firsts, seconds)
    _write_json(
        out / "selection.json",
        {
            "mode": args.mode,
            "window": args.window,
            "pairs": [
                {"cond_a": a, "cond_b": b, "rationale": rationale}
                for a, b, rationale in zip(firsts, seconds, batch.rationale)
            ],
        },
    )
    print(f"selected {len(batch)} pairs")


def _cmd_linkfit(args, out: Path) -> None:
    collection = load_collection(args.manifest)
    jods = _read_keyed_csv(args.scale, "jod")
    payload = {}
    rows = []
    for name in sorted(collection.ratings):
        table = collection.ratings[name]
        keys, mos, jod = [], [], []
        for idx in np.unique(table.condition_indices).tolist():
            key = collection.conditions[idx].key
            if key not in jods:
                continue
            keys.append(key)
            mos.append(float(np.mean(table.scores[table.condition_indices == idx])))
            jod.append(jods[key])
        if len(keys) < 5:
            raise IntegrityError(f"dataset {name!r} has too few rated conditions to fit")
        fits = fit_report(np.array(mos), np.array(jod))
        payload[name] = [
            {
                "order": fit.order,
                "r2": fit.r2,
                "r2_adj": fit.r2_adj,
                "monotone": fit.monotone_on_range,
            }
            for fit in fits
        ]
        for fit in fits:
            rows.append(
                f"{name:>12s}  order {fit.order}  r2 {fit.r2:.4f}  "
                f"r2_adj {fit.r2_adj:.4f}  monotone {fit.monotone_on_range}"
            )
    _write_json(out / "linkfit.json", payload)
    print("\n".join(rows))


def _cmd_stats(args, out: Path) -> None:
    values = _read_values_csv(args.input)
    positive = values[values > 0]
    excluded = int(values.size - positive.size)
    if positive.size == 0:
        raise DegenerateDataError("no positive luminance values to summarize")
    logs = np.log10(positive)
    counts, edges = np.histogram(logs, bins=args.bins)
    payload = {
        "n": int(values.size),
        "excluded_nonpositive": excluded,
        "min": float(positive.min()),
        "max": float(positive.max()),
        "mean_log10": float(logs.mean()),
        "percentiles": {
            str(p): float(np.percentile(positive, p)) for p in (1, 25, 50, 75, 99)
        },
        "histogram": {
            "log10_edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        },
    }
    _write_json(out / "stats.json", payload)
    print(json.dumps(payload, sort_keys=True, indent=2))


def build_parser() -> _Parser:
    parser = _Parser(prog="jodscale", description=__doc__)
    parser.add_argument("--version", action="version", version=f"jodscale {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    finite = _at_least(convert=float)

    def add_common(p):
        p.add_argument("--out", default=".", help="output directory (default: cwd)")

    def add_study(p):
        p.add_argument("--conditions", type=_at_least(2), default=50)
        p.add_argument("--datasets", type=_at_least(1), default=3)
        p.add_argument("--trials", type=_at_least(0), default=30)
        p.add_argument("--observers", type=_at_least(0), default=15)
        p.add_argument("--density", type=_at_least(0.0, float), default=0.5)
        p.add_argument("--seed", type=_at_least(0), default=0)

    p = sub.add_parser("scale", help="scale a collection onto the unified JOD scale")
    add_common(p)
    p.add_argument("--seed", type=_at_least(0), default=0, help="bootstrap resampling seed")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the solve stops for any reason but converged "
                        "(max_iter, line_search or boundary_link)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--prior", action=argparse.BooleanOptionalAction, default=True,
                   help="Gaussian score prior (default on; disable for oracle checks)")
    p.add_argument("--tol", type=_at_least(0.0, float, above=True), default=1e-6,
                   help="converged once the largest absolute gradient entry of the log "
                        "posterior over the free scores is below this at two consecutive "
                        "iterates, or at the start (default 1e-6)")
    p.add_argument("--max-iter", type=_at_least(0), default=2000,
                   help="maximum number of Newton iterations (default 2000)")
    p.add_argument("--per-component", action="store_true")
    p.add_argument("--bootstrap", type=_at_least(0), default=0, metavar="N",
                   help="bootstrap replicates for confidence intervals")
    p.add_argument("--alpha", type=finite, default=0.05)
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("simulate", help="emit a synthetic collection as manifest + CSVs")
    add_common(p)
    add_study(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("recover", help="run a full synthetic recovery experiment")
    add_common(p)
    add_study(p)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("validate", help="validate metric scores against a scale")
    add_common(p)
    p.add_argument("--scores", required=True, help="CSV with condition,score")
    p.add_argument("--scale", required=True, help="CSV with condition,jod")
    p.add_argument("--manifest", help="manifest for the pairwise accuracy curve")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fit-logistic", help="fit the metric-to-JOD logistic mapping")
    add_common(p)
    p.add_argument("--scores", required=True)
    p.add_argument("--scale", required=True)
    p.set_defaults(func=_cmd_fit_logistic)

    p = sub.add_parser("pu-encode", help="encode luminance (or display values) to PU units")
    add_common(p)
    p.add_argument("--strict", action="store_true",
                   help="reject out-of-range values instead of clamping them with a warning")
    p.add_argument("--input", required=True, help="CSV of values, header 'value'")
    p.add_argument("--l-peak", type=finite, default=None,
                   help="treat input as normalized display values with this peak")
    p.add_argument("--l-black", type=finite, help="display black level, default 0.5")
    p.add_argument("--gamma", type=finite, help=f"display gamma, default {SDR_GAMMA}")
    p.add_argument("--lut", help="load the PU look-up table from a CSV, header 'luminance,pu'")
    p.add_argument("--save-lut", help="write the look-up table next to the output")
    p.add_argument("--threshold", help="detection threshold CSV, header 'luminance,threshold'")
    p.add_argument("--l-min", type=finite, help=f"default {DEFAULT_L_MIN:g}")
    p.add_argument("--l-max", type=finite, help=f"default {DEFAULT_L_MAX:g}")
    p.add_argument("--knots", type=_at_least(64), help=f"default {DEFAULT_KNOTS}")
    p.add_argument("--log-encode", action="store_true",
                   help="use the logarithmic alternative instead of PU")
    p.set_defaults(func=_cmd_pu_encode)

    p = sub.add_parser("select-pairs", help="select comparison pairs for an experiment")
    add_common(p)
    p.add_argument("--mode", choices=("cross-dataset", "gmad"), required=True)
    p.add_argument("--k", type=_at_least(1), default=10)
    p.add_argument("--window", type=_at_least(0.0, float), default=1.0)
    p.add_argument("--bins", type=_at_least(1), default=10)
    p.add_argument("--scale", help="scale CSV (cross-dataset mode)")
    p.add_argument("--metric-test", help="condition,score CSV (gmad mode)")
    p.add_argument("--metric-bench", help="condition,score CSV (gmad mode)")
    p.add_argument("--allow-reuse", action="store_true",
                   help="allow a condition to appear in several gmad pairs")
    p.set_defaults(func=_cmd_select_pairs)

    p = sub.add_parser("linkfit", help="polynomial MOS-to-JOD fits per rating dataset")
    add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--scale", required=True)
    p.set_defaults(func=_cmd_linkfit)

    p = sub.add_parser("stats", help="log-luminance histogram summary of a value file")
    add_common(p)
    p.add_argument("--input", required=True, help="CSV of luminance values, header 'value'")
    p.add_argument("--bins", type=_at_least(1), default=64)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.subcommand == "select-pairs":
            _check_select_pairs(args)
        if args.subcommand == "pu-encode":
            _check_pu_encode(args)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"--out {args.out}: cannot make the output directory ({exc})")
        args.func(args, out)
        _write_run_config(out, args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except JodscaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
