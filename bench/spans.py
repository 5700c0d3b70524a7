"""Spans recorded from outside the program, around calls into its layers.

``Tracer.wrap(owner, attribute, span)`` replaces a public function or method
with a wrapper that records one span per call: its name, start, end, parent
span, the round it ran in, whether it raised, and for ``scaling.scale`` the
result's iteration count and convergence flag. Spans are kept in compact
in-memory arrays and written out once, by ``save``, when the run ends. A
name that the program no longer has is skipped, and the metrics that need
it are absent instead of failing the run.
"""

from __future__ import annotations

import time
from array import array
from statistics import median

import numpy as np

RAISED = 1
UNCONVERGED = 2


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.round = array("l")
        self.status = array("b")
        self.iterations = array("l")
        self.current_round = -1
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, span: str) -> int:
        index = len(self.start)
        name_id = self._name_ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round.append(self.current_round)
        self.status.append(0)
        self.iterations.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int, status: int = 0) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        self.status[index] = status

    def wrap(self, owner, attribute: str, span: str, on_result=None) -> None:
        """Wrap ``owner.attribute``, a module function or a method of a class."""
        original = owner.__dict__.get(attribute)
        if original is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(index, RAISED)
                raise
            tracer.close(index, on_result(tracer, index, result) if on_result else 0)
            return result

        setattr(owner, attribute, traced)
        self._restore.append((owner, attribute, original))
        self.wrapped.add(span)

    def unwrap_all(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "round": np.asarray(self.round, dtype=np.int64),
            "status": np.asarray(self.status, dtype=np.int8),
            "iterations": np.asarray(self.iterations, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names, dtype=str), **self.arrays())


def scale_outcome(tracer: Tracer, index: int, result) -> int:
    """``on_result`` for ``scaling.scale``: keep its iterations and convergence."""
    tracer.iterations[index] = int(getattr(result, "iterations", 0))
    return 0 if getattr(result, "converged", True) else UNCONVERGED


# metric -> (unit, spans it needs, how it is computed from one round's spans)
# kinds: "total" sums span durations, "self" sums durations minus child spans,
# "calls" counts spans, "iterations" sums scale iterations; "resample",
# "failed" and "unconverged" look at the scale calls made by bootstrap_ci.
LAYER_METRICS = {
    "cli.scale_s": ("s", ("cli.scale",), "total"),
    "cli.simulate_s": ("s", ("cli.simulate",), "total"),
    "cli.select_s": ("s", ("cli.select-pairs",), "total"),
    "cli.scale_self_s": ("s", ("cli.scale",), "self"),
    "cli.simulate_self_s": ("s", ("cli.simulate",), "self"),
    "cli.select_self_s": ("s", ("cli.select-pairs",), "self"),
    "model.load_collection_s": ("s", ("model.load_collection",), "total"),
    "model.pair_arrays_s": ("s", ("model.pair_arrays",), "total"),
    "model.connected_components_s": ("s", ("model.connected_components",), "total"),
    "model.collections_built": ("count", ("model.DatasetCollection",), "calls"),
    "model.collection_build_s": (
        "s", ("model.ComparisonGraph", "model.DatasetCollection"), "total"),
    "scaling.scale_calls": ("count", ("scaling.scale",), "calls"),
    "scaling.iterations": ("count", ("scaling.scale",), "iterations"),
    "scaling.value_and_grad_calls": ("count", ("scaling.value_and_grad",), "calls"),
    "scaling.value_and_grad_s": ("s", ("scaling.value_and_grad",), "total"),
    "scaling.hess_vec_calls": ("count", ("scaling.hess_vec",), "calls"),
    "scaling.hess_vec_s": ("s", ("scaling.hess_vec",), "total"),
    "scaling.solve_self_s": ("s", ("scaling.scale",), "self"),
    "scaling.bootstrap_s": ("s", ("scaling.bootstrap_ci",), "total"),
    "scaling.resample_s": ("s", ("scaling.bootstrap_ci", "scaling.scale"), "resample"),
    "scaling.replicates_failed": (
        "count", ("scaling.bootstrap_ci", "scaling.scale"), "failed"),
    "scaling.replicates_unconverged": (
        "count", ("scaling.bootstrap_ci", "scaling.scale"), "unconverged"),
    "simulate.synthesize_s": ("s", ("simulate.synthesize_collection",), "total"),
    "simulate.comparison_calls": ("count", ("simulate.simulate_comparison",), "calls"),
    "simulate.comparison_s": ("s", ("simulate.simulate_comparison",), "total"),
    "simulate.ratings_s": ("s", ("simulate.simulate_ratings",), "total"),
    "design.cross_dataset_s": ("s", ("design.select_cross_dataset_pairs",), "total"),
    "design.gmad_s": ("s", ("design.select_gmad_pairs",), "total"),
}


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Median over the timed rounds of each layer metric whose spans exist."""
    spans = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested],
                             minlength=duration.size)
    self_time = duration - child_time
    name_of_parent = np.where(nested, spans["name"][np.maximum(parent, 0)], -1)
    rounds = sorted(set(spans["round"][spans["round"] >= 0].tolist()))

    def mask(span_names):
        return np.isin(spans["name"], [ids.get(s, -2) for s in span_names])

    out = {}
    for metric, (unit, needs, kind) in LAYER_METRICS.items():
        if not all(s in tracer.wrapped or s.startswith("cli.") for s in needs):
            continue
        if kind == "resample":
            boot = mask(needs[:1])
            replicate = mask(needs[1:]) & (name_of_parent == ids.get(needs[0], -2))
            values = np.where(boot, duration, 0.0) - np.where(replicate, duration, 0.0)
        elif kind in ("failed", "unconverged"):
            replicate = mask(needs[1:]) & (name_of_parent == ids.get(needs[0], -2))
            code = RAISED if kind == "failed" else UNCONVERGED
            values = (replicate & (spans["status"] == code)).astype(float)
        else:
            selected = mask(needs)
            values = {
                "total": np.where(selected, duration, 0.0),
                "self": np.where(selected, self_time, 0.0),
                "calls": selected.astype(float),
                "iterations": np.where(selected, spans["iterations"], 0).astype(float),
            }[kind]
        per_round = [float(values[spans["round"] == r].sum()) for r in rounds]
        value = median(per_round) if per_round else 0.0
        out[metric] = {"value": round(value) if unit == "count" else value, "unit": unit}
    return out
