"""Spans around drspot's public functions, and the per-layer metrics made
from them.

The traced run wraps the functions where the package looks them up: the
module globals of ``drspot.cli``, ``drspot.pipeline`` and
``drspot.regression``, plus the ``RecordSeries.between`` method. The package
itself is not edited. A name the package no longer has is skipped, so its
metrics are absent from the result instead of crashing the run.

A span has a name, a start, an end and a parent. Spans are kept in memory,
nest as the calls nest, and a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

TRACED_MODULES = ("drspot.cli", "drspot.pipeline", "drspot.regression")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _parse_attrs(tracer, span, args, kwargs, series):
    span.attrs["rows"] = len(series)


def _design_attrs(tracer, span, args, kwargs, rows):
    span.attrs["cells"] = rows.shape[0] * rows.shape[1]
    # run_scenario re-prices by rebuilding the window rows with the responded
    # demand; the predict call on exactly these rows belongs to the re-price.
    if kwargs.get("demand") is not None:
        span.attrs["reprice"] = True
        tracer.reprice_rows = rows


def _predict_attrs(tracer, span, args, kwargs, forecast):
    if tracer.reprice_rows is not None and args and args[-1] is tracer.reprice_rows:
        span.attrs["reprice"] = True
        tracer.reprice_rows = None


def _select_attrs(tracer, span, args, kwargs, result):
    base = kwargs.get("base", args[3] if len(args) > 3 else None)
    if base is not None:
        span.attrs["added"] = len(result[0]) - len(base)


def _response_attrs(tracer, span, args, kwargs, response):
    span.attrs["clamped"] = int(response.clamped.sum())


# Global name -> hook that records counts from the call's arguments and result.
TRACED_FUNCTIONS = {
    "main": None,
    "load_settings": None,
    "parse_hourly_csv": _parse_attrs,
    "validate_series": None,
    "split_train_holdout": None,
    "run_scenario": None,
    "forward_select": _select_attrs,
    "fit_ols": None,
    "design_matrix": _design_attrs,
    "predict": _predict_attrs,
    "ferms": None,
    "build_elasticity_matrix": None,
    "multi_hour_response": _response_attrs,
    "write_result_csv": None,
}
TRACED_METHOD = ("RecordSeries", "between")


class Tracer:
    """Records spans while installed; ``install`` restores the package on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.reprice_rows = None

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def install(self):
        modules = [importlib.import_module(name) for name in TRACED_MODULES]
        wrappers = {}
        undo = []
        for module in modules:
            for name, hook in TRACED_FUNCTIONS.items():
                original = module.__dict__.get(name)
                if not callable(original):
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, hook)
                undo.append((module, name, original))
                setattr(module, name, wrappers[id(original)])
        cls_name, method = TRACED_METHOD
        cls = getattr(modules[0], cls_name, None)
        original = cls.__dict__.get(method) if cls is not None else None
        if callable(original):
            undo.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{cls_name}.{method}", original, None))
        try:
            yield
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans = list(self.spans)
        self.spans.clear()
        self.reprice_rows = None
        return spans


def self_times(spans: list[Span]) -> list[float]:
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that do not lie inside their parent, or roots other than one cli.main."""
    errors = []
    roots = [span.name for span in spans if span.parent is None]
    if roots != ["main"]:
        errors.append(f"expected one root span 'main', got {roots[:5]}")
    for index, span in enumerate(spans):
        if span.end < span.start:
            errors.append(f"span {index} {span.name} ends before it starts")
        if span.parent is not None:
            parent = spans[span.parent]
            if span.start < parent.start or span.end > parent.end:
                errors.append(f"span {index} {span.name} is not inside its parent {parent.name}")
    return errors


def _outermost_total(spans: list[Span], names: set[str]) -> float | None:
    """Time covered by spans named in ``names``, counting a nested span of the
    group only through its outermost ancestor in the group."""
    total, found = 0.0, False
    for span in spans:
        if span.name not in names:
            continue
        found = True
        ancestor = span.parent
        while ancestor is not None and spans[ancestor].name not in names:
            ancestor = spans[ancestor].parent
        if ancestor is None:
            total += span.duration
    return total if found else None


# Per-layer time metric -> names of the spans whose outermost time it sums.
TIME_METRICS = {
    "config.load_s": {"load_settings"},
    "market_data.parse_s": {"parse_hourly_csv"},
    "market_data.split_s": {"RecordSeries.between", "validate_series", "split_train_holdout"},
    "regression.select_s": {"forward_select"},
    "regression.fit_ols_s": {"fit_ols"},
    "regression.design_matrix_s": {"design_matrix"},
    "regression.predict_s": {"predict", "ferms"},
    "pipeline.run_scenario_s": {"run_scenario"},
    "elasticity.respond_s": {"build_elasticity_matrix", "multi_hour_response"},
    "pipeline.write_result_s": {"write_result_csv"},
}
SELF_METRICS = {
    "regression.select_self_s": "forward_select",
    "pipeline.run_scenario_self_s": "run_scenario",
    "cli.self_s": "main",
}


def call_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values of one traced ``cli.main`` call."""
    metrics: dict[str, float] = {}
    for metric, names in TIME_METRICS.items():
        value = _outermost_total(spans, names)
        if value is not None:
            metrics[metric] = value
    own = self_times(spans)
    for metric, name in SELF_METRICS.items():
        values = [own[i] for i, span in enumerate(spans) if span.name == name]
        if values:
            metrics[metric] = sum(values)

    def count(name):
        return sum(1 for span in spans if span.name == name)

    def attr_sum(name, key):
        values = [span.attrs[key] for span in spans if span.name == name and key in span.attrs]
        return sum(values) if values else None

    counts = {
        "market_data.rows": attr_sum("parse_hourly_csv", "rows"),
        "regression.design_cells": attr_sum("design_matrix", "cells"),
        "elasticity.clamped_hours": attr_sum("multi_hour_response", "clamped"),
    }
    if count("fit_ols"):
        counts["regression.ols_fits"] = count("fit_ols")
        added = attr_sum("forward_select", "added")
        if added:
            counts["regression.fits_per_selected"] = count("fit_ols") / added
    if count("multi_hour_response"):
        counts["elasticity.days"] = count("multi_hour_response")
    reprice = [span.duration for span in spans if span.attrs.get("reprice")]
    if reprice:
        counts["pipeline.reprice_s"] = sum(reprice)
    metrics.update({k: v for k, v in counts.items() if v is not None})
    return metrics


def median_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    names = sorted({name for metrics in per_call for name in metrics})
    return {
        name: statistics.median(m[name] for m in per_call if name in m) for name in names
    }
