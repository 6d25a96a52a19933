"""In-memory span tracer that times tsxplain's layers from outside the package.

The tracer never edits the package. It replaces, for the duration of a
``with Tracer(...)`` block, the names that a calling module looks up at call
time (``tsxplain.data.load_cohort`` as seen by the CLI, ``tsxplain.model.kfold``
as seen by the model, ``tsxplain.itshap.forward_prepared`` as seen by the
explainer, ...) with timing wrappers, and puts the originals back on exit.

Calls at layer boundaries become spans (name, start, end, parent, run id,
attributes). Functions called tens of thousands of times per command
(``sigmoid``, ``softmax_axis``, ``entropy``) are only counted and timed, so
the trace stays small and its overhead low.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _cohort_rows(cohort) -> int:
    """CSV rows of a cohort: one per patient-day within the stay."""
    return int(sum(p.stay_length for p in cohort.patients))


def _cmi_attrs(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    from tsxplain.cmi import MIN_VALID_SAMPLES

    per_step = (result.valid_counts >= MIN_VALID_SAMPLES).sum(axis=0)
    greedy = cfg.conditioning == "greedy_selected"
    return {
        "conditioning": cfg.conditioning,
        "cells": int(per_step.sum()),
        # a greedy pass at one step scores c, c-1, ..., 1 remaining cells
        "greedy_evals": int(sum(c * (c + 1) // 2 for c in per_step)) if greedy else 0,
    }


def _explain_patient_attrs(args, kwargs, result):
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    return {"mode": cfg.mode}


def _explain_step_attrs(args, kwargs, result):
    t = args[3] if len(args) > 3 else kwargs["t"]
    return {"t": int(t), "players": len(result.players)}


def _forward_attrs(args, kwargs, result):
    Xin = args[0] if args else kwargs["Xin"]
    return {"rows": int(Xin.shape[0]), "T": int(Xin.shape[2])}


# (module, attribute, span name, kind, attribute hook). The module is the
# caller: its attribute is the name the caller resolves at call time.
WRAPS = [
    ("tsxplain.data", "synth_cohort", "data.synth_cohort", "span", None),
    ("tsxplain.data", "save_cohort", "data.save_cohort", "span",
     lambda a, k, r: {"rows": _cohort_rows(a[0])}),
    ("tsxplain.data", "load_cohort", "data.load_cohort", "span",
     lambda a, k, r: {"rows": _cohort_rows(r)}),
    ("tsxplain.model", "split_train_test", "data.split", "span", None),
    ("tsxplain.model", "kfold", "data.split", "span", lambda a, k, r: {"folds": len(r)}),
    ("tsxplain.model", "train", "model.train", "span",
     lambda a, k, r: {"final_epochs": len(r.history.get("train_loss", []))}),
    ("tsxplain.model", "save_model", "model.save_model", "span", None),
    ("tsxplain.model", "load_model", "model.load_model", "span", None),
    ("tsxplain.model", "attention_matrix", "model.attention_matrix", "span", None),
    ("tsxplain.model", "sigmoid", "numerics.sigmoid", "leaf", None),
    ("tsxplain.model", "softmax_axis", "numerics.softmax", "leaf", None),
    ("tsxplain.evaluation", "evaluate", "evaluation.evaluate", "span", None),
    ("tsxplain.evaluation", "forward_prepared", "evaluation.forward", "span", None),
    ("tsxplain.cmi", "cmi_feature_scores", "cmi.scores", "span", _cmi_attrs),
    ("tsxplain.cmi", "save_scores", "cmi.save_scores", "span", None),
    ("tsxplain.cmi", "entropy", "cmi.entropy", "leaf", None),
    ("tsxplain.itshap", "background_matrix", "itshap.background", "span", None),
    ("tsxplain.itshap", "explain_patient", "itshap.explain_patient", "span",
     _explain_patient_attrs),
    ("tsxplain.itshap", "explain_step", "itshap.explain_step", "span", _explain_step_attrs),
    ("tsxplain.itshap", "forward_prepared", "itshap.forward", "span", _forward_attrs),
    ("tsxplain.itshap", "weighted_least_squares", "numerics.wls", "span", None),
    ("tsxplain.itshap", "aggregate_by_class", "itshap.aggregate", "span", None),
    ("tsxplain.itshap", "save_attributions", "itshap.save_attributions", "span", None),
]


class Tracer:
    """Collects spans and leaf counters while active; restores every wrapped
    name on exit, also when the traced code raises."""

    def __init__(self):
        self.spans: list[Span] = []
        self.leaf: dict[tuple[int, str], list[float]] = defaultdict(lambda: [0, 0.0])
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter() - self._t0, 0.0, parent, self.run_id)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter() - self._t0
            self._stack.pop()

    def _wrap(self, module, attr: str, name: str, kind: str, hook) -> None:
        original = getattr(module, attr, None)
        if original is None:
            print(f"perfbench: {module.__name__}.{attr} not found; "
                  f"{name} is not traced", file=sys.stderr)
            return
        tracer = self

        if kind == "leaf":
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    c = tracer.leaf[(tracer.run_id, name)]
                    c[0] += 1
                    c[1] += time.perf_counter() - t0
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(name) as s:
                    result = original(*args, **kwargs)
                if hook is not None:
                    s.attrs.update(hook(args, kwargs, result))
                return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def __enter__(self) -> "Tracer":
        import importlib

        for mod_name, attr, name, kind, hook in WRAPS:
            self._wrap(importlib.import_module(mod_name), attr, name, kind, hook)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line, then the leaf counters."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "run_id": s.run_id, "attrs": s.attrs}) + "\n")
            for (run_id, name), (calls, secs) in sorted(self.leaf.items()):
                fh.write(json.dumps({"leaf": name, "run_id": run_id,
                                     "calls": calls, "seconds": secs}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The traced program is single-threaded, so children of one span never
    overlap and their durations add up to the part of the interval they cover.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n <= 10:
        return 0.0, max(values) if values else 0.0
    q = 1.0 - 10.0 / n
    ordered = sorted(values)
    return 100.0 * q, ordered[min(int(q * n), n - 1)]


def layer_metrics(tracer: Tracer, run_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    spans = tracer.spans
    selfs = self_times(spans)
    picked = [i for i, s in enumerate(spans) if s.run_id == run_id]

    def total(name, key=None):
        return float(sum(spans[i].duration if key is None else spans[i].attrs.get(key, 0)
                         for i in picked if spans[i].name == name))

    def count(name):
        return sum(1 for i in picked if spans[i].name == name)

    def leaf(name):
        return tracer.leaf.get((run_id, name), [0, 0.0])

    m: dict[str, float] = {}
    m["data.synth_cohort_s"] = total("data.synth_cohort")
    m["data.save_cohort_s"] = total("data.save_cohort")
    m["data.load_cohort_s"] = total("data.load_cohort")
    m["data.load_cohort_calls"] = count("data.load_cohort")
    m["data.csv_rows_written"] = total("data.save_cohort", "rows")
    m["data.csv_rows_read"] = total("data.load_cohort", "rows")
    m["data.split_s"] = total("data.split")

    m["model.train_s"] = total("model.train")
    m["model.train_calls"] = count("model.train")
    m["model.fits"] = total("data.split", "folds") + count("model.train")
    m["model.final_epochs"] = total("model.train", "final_epochs")
    m["model.save_model_s"] = total("model.save_model")
    m["model.load_model_s"] = total("model.load_model")
    m["model.attention_matrix_s"] = total("model.attention_matrix")

    m["numerics.sigmoid_calls"], m["numerics.sigmoid_s"] = leaf("numerics.sigmoid")
    m["numerics.wls_calls"] = count("numerics.wls")
    m["numerics.wls_s"] = total("numerics.wls")
    m["numerics.softmax_calls"] = leaf("numerics.softmax")[0]

    m["evaluation.evaluate_s"] = total("evaluation.evaluate")
    m["evaluation.forward_s"] = total("evaluation.forward")

    scores = [spans[i] for i in picked if spans[i].name == "cmi.scores"]
    m["cmi.scores_none_s"] = sum(s.duration for s in scores
                                 if s.attrs.get("conditioning") == "none")
    m["cmi.scores_greedy_s"] = sum(s.duration for s in scores
                                   if s.attrs.get("conditioning") == "greedy_selected")
    m["cmi.cells_scored"] = sum(s.attrs.get("cells", 0) for s in scores)
    m["cmi.greedy_evals"] = sum(s.attrs.get("greedy_evals", 0) for s in scores)
    m["cmi.entropy_calls"] = leaf("cmi.entropy")[0]
    m["cmi.save_scores_s"] = total("cmi.save_scores")

    patient_ms = [spans[i].duration * 1e3 for i in picked
                  if spans[i].name == "itshap.explain_patient"]
    tail_pct, tail_ms = _tail(patient_ms)
    m["itshap.explain_patient_ms"] = statistics.median(patient_ms) if patient_ms else 0.0
    m["itshap.explain_patient_tail_ms"] = tail_ms
    m["itshap.explain_patient_tail_pct"] = tail_pct
    m["itshap.explain_patient_count"] = len(patient_ms)
    steps_under: dict[int, int] = defaultdict(int)
    for i in picked:
        if spans[i].name == "itshap.explain_step" and spans[i].parent is not None:
            steps_under[spans[i].parent] += 1
    games = kept = 0
    for i in picked:
        if spans[i].name == "itshap.explain_patient":
            n = steps_under[i]
            games += n
            # cell mode keeps only the final step's weights; timestep keeps all
            kept += n if spans[i].attrs.get("mode") == "timestep" else min(n, 1)
    players = [spans[i].attrs["players"] for i in picked
               if spans[i].name == "itshap.explain_step"]
    m["itshap.games"] = games
    m["itshap.games_kept_frac"] = kept / games if games else 0.0
    m["itshap.players_mean"] = statistics.fmean(players) if players else 0.0
    m["itshap.players_max"] = max(players) if players else 0
    fwd = [i for i in picked if spans[i].name == "itshap.forward"]
    m["itshap.forward_calls"] = len(fwd)
    m["itshap.coalition_rows"] = sum(spans[i].attrs["rows"] for i in fwd)
    m["itshap.forward_s"] = sum(spans[i].duration for i in fwd)
    read = total_cols = 0
    for i in fwd:
        a, parent = spans[i].attrs, spans[i].parent
        t = spans[parent].attrs.get("t", a["T"]) if parent is not None else a["T"]
        read += a["rows"] * t
        total_cols += a["rows"] * a["T"]
    m["itshap.useful_step_frac"] = read / total_cols if total_cols else 0.0
    m["itshap.coalition_build_s"] = sum(selfs[i] for i in picked
                                        if spans[i].name == "itshap.explain_step")
    m["itshap.background_s"] = total("itshap.background")
    m["itshap.aggregate_s"] = total("itshap.aggregate")
    m["itshap.save_attributions_s"] = total("itshap.save_attributions")

    m["cli.self_s"] = sum(selfs[i] for i in picked if spans[i].name.startswith("cli."))
    return m
