"""Traced CLI invocation and the per-layer metrics derived from its spans.

Run as a program, this wraps, in its own process only, the functions each
``votescale`` module imports from the others (plus the estimators
``vote_probability`` dispatches to), runs ``votescale.cli.main`` on the
given arguments, and writes the recorded spans to a JSON file at exit:

    python bench/tracer.py --spans spans.json --run 3 -- analyze --log ...

The layers are the package's modules. ``distribution`` is a value type and
is not wrapped: its cost lands in its callers' self time. A span's self
time is its duration minus the time its child spans cover; a layer's self
time is the sum over its spans. A wrapped name that no longer exists is
reported missing and the metrics that need it read ``None``, never zero.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import sys
import time
from collections import defaultdict

#: Wrapped functions, as ``layer.function``, and the modules whose global of
#: that name is replaced. Wrapping the defining module too catches calls
#: made inside it (``vote_probability`` -> ``exact_majority_prob``,
#: ``best_for_n`` -> ``accuracy_curve``).
SITES = {
    "records.parse_records": ("cli",),
    "records.load_ground_truth": ("cli",),
    "records.group_records": ("cli",),
    "records.estimate_distribution": ("cli", "selection"),
    "records.answer_support": ("cli",),
    "votemath.vote_probability": ("cli", "selection"),
    "votemath.exact_majority_prob": ("votemath", "difficulty"),
    "votemath.normal_approx_prob": ("votemath", "difficulty"),
    "votemath.monte_carlo_majority_prob": ("votemath",),
    "votemath.check_grid": ("cli", "selection", "difficulty"),
    "votemath.canonical_method": ("selection",),
    "difficulty.classify": ("cli", "selection"),
    "difficulty.kl_to_uniform": ("cli",),
    "difficulty.limit_prob": ("selection",),
    "difficulty.crossover_condition": ("selection",),
    "selection.load_scenario": ("cli",),
    "selection.datasets_from_samples": ("cli",),
    "selection.accuracy_curve": ("cli", "selection"),
    "selection.adaptive_curve": ("cli",),
    "selection.dynamic_curve": ("cli",),
    "selection.combined_curve": ("cli",),
    "selection.best_for_n": ("cli",),
    "selection.best_under_cost": ("cli",),
    "selection.extreme_performance": ("cli",),
    "selection.dominance_count": ("cli",),
}
ROOT = "cli.main"
CURVES = ("selection.accuracy_curve", "selection.adaptive_curve",
          "selection.dynamic_curve", "selection.combined_curve")
ORACLES = CURVES[1:]
SELECTIONS = ("selection.best_for_n", "selection.best_under_cost")

#: Per-layer metrics: name -> (unit, better, wrapped names it is measured at).
METRICS = {
    "records.parse_s": ("s", "lower", ("records.parse_records",)),
    "records.lines": ("count", "lower", ("records.parse_records",)),
    "records.lines_per_s": ("lines/s", "higher", ("records.parse_records",)),
    "records.truth_s": ("s", "lower", ("records.load_ground_truth",)),
    "records.group_s": ("s", "lower", ("records.group_records",)),
    "records.estimate_s": ("s", "lower", ("records.estimate_distribution",)),
    "records.estimate_calls": ("count", "lower", ("records.estimate_distribution",)),
    "records.pools": ("count", "lower", ("records.group_records",)),
    "records.self_s": ("s", "lower", tuple(k for k in SITES if k.startswith("records."))),
    "votemath.calls": ("count", "lower", ("votemath.vote_probability",)),
    "votemath.distinct_cells": ("count", "lower", ("votemath.vote_probability",)),
    "votemath.useful_ratio": ("ratio", "higher", ("votemath.vote_probability",)),
    "votemath.exact_s": ("s", "lower", ("votemath.exact_majority_prob",)),
    "votemath.exact_calls": ("count", "lower", ("votemath.exact_majority_prob",)),
    "votemath.approx_s": ("s", "lower", ("votemath.normal_approx_prob",)),
    "votemath.approx_calls": ("count", "lower", ("votemath.normal_approx_prob",)),
    "votemath.mc_s": ("s", "lower", ("votemath.monte_carlo_majority_prob",)),
    "votemath.mc_trials": ("count", "lower", ("votemath.monte_carlo_majority_prob",)),
    "votemath.fallbacks": ("count", "lower",
                           ("votemath.vote_probability", "votemath.exact_majority_prob")),
    "votemath.rss_rise_mb": ("MB", "lower", tuple(k for k in SITES if k.startswith("votemath."))),
    "votemath.self_s": ("s", "lower", tuple(k for k in SITES if k.startswith("votemath."))),
    "difficulty.s": ("s", "lower", tuple(k for k in SITES if k.startswith("difficulty."))),
    "difficulty.calls": ("count", "lower", tuple(k for k in SITES if k.startswith("difficulty."))),
    "selection.self_s": ("s", "lower", tuple(k for k in SITES if k.startswith("selection."))),
    "selection.curve_calls": ("count", "lower", CURVES),
    "selection.oracle_s": ("s", "lower", ORACLES),
    "selection.select_s": ("s", "lower", SELECTIONS),
    "selection.load_s": ("s", "lower", ("selection.load_scenario", "selection.datasets_from_samples")),
    "cli.self_s": ("s", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
}

# span fields
LABEL, START, END, PARENT, ERROR, RSS_RISE = range(6)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_lines(rec, args, kwargs, result):
    rec.counters["records.lines"] += len(result)


def _count_pools(rec, args, kwargs, result):
    rec.counters["records.pools"] += len(result)


def _count_trials(rec, args, kwargs, result):
    rec.counters["votemath.mc_trials"] += _arg(args, kwargs, 2, "trials")


def _count_cells(rec, args, kwargs, result):
    dist = _arg(args, kwargs, 0, "dist")
    rec.cells.add((dist.probs, dist.correct_index, _arg(args, kwargs, 1, "n")))


#: Counts taken from a wrapped call's arguments or result.
COUNTS = {
    "records.parse_records": _count_lines,
    "records.group_records": _count_pools,
    "votemath.monte_carlo_majority_prob": _count_trials,
    "votemath.vote_probability": _count_cells,
}


class Recorder:
    """Spans and counters of one traced invocation, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.cells: set = set()

    def wrap(self, label: str, fn):
        spans, stack = self.spans, self.stack
        count = COUNTS.get(label)
        # ru_maxrss is read around votemath spans not nested in another one
        track_rss = label.startswith("votemath.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rss = track_rss and not (parent >= 0 and spans[parent][LABEL].startswith("votemath."))
            span = [label, 0.0, 0.0, parent, None, 0]
            stack.append(len(spans))
            spans.append(span)
            rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if rss else 0
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if rss:
                    span[RSS_RISE] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every site; return the ``module.name`` sites that do not exist."""
        missing = []
        for label, modules in SITES.items():
            name = label.split(".", 1)[1]
            for module_name in modules:
                try:
                    module = importlib.import_module(f"votescale.{module_name}")
                except ImportError:
                    missing.append(f"{module_name}.{name}")
                    continue
                fn = getattr(module, name, None)
                if not callable(fn):
                    missing.append(f"{module_name}.{name}")
                    continue
                setattr(module, name, self.wrap(label, fn))
        return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the votescale CLI with span tracing.")
    parser.add_argument("--spans", required=True, help="write spans and counters here at exit")
    parser.add_argument("--run", type=int, default=0, help="run id stored with the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="arguments after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import votescale.cli  # here, not at the top: the benchmark imports this module for the analysis

    recorder = Recorder()
    missing = recorder.install()
    status = 1
    try:
        status = recorder.wrap(ROOT, votescale.cli.main)(cli_args)
    finally:
        recorder.counters["votemath.distinct_cells"] = len(recorder.cells)
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(
                {"run": args.run, "missing": missing, "counters": recorder.counters,
                 "spans": recorder.spans},
                fh,
            )
    return status


# --- analysis (parent process) ----------------------------------------------


def _missing_labels(trace: dict) -> set[str]:
    """Wrapped names absent at every one of their sites."""
    gone = set(trace["missing"])
    return {
        label for label, modules in SITES.items()
        if all(f"{m}.{label.split('.', 1)[1]}" in gone for m in modules)
    }


def layer_metrics(trace: dict) -> dict[str, float | None]:
    """Per-layer metrics of one traced invocation (``trace.overhead_s`` aside)."""
    spans = trace["spans"]
    counters = trace["counters"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    fallbacks = 0
    rss_kb = 0
    for i, span in enumerate(spans):
        label = span[LABEL]
        own = span[END] - span[START] - child_time[i]
        self_s[label] += own
        calls[label] += 1
        layer = label.split(".", 1)[0]
        layer_self[layer] += own
        layer_calls[layer] += 1
        rss_kb += span[RSS_RISE]
        parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
        if parent is None or parent[LABEL] != label:
            inclusive[label] += span[END] - span[START]
        if (label == "votemath.exact_majority_prob" and span[ERROR] == "CapExceeded"
                and parent is not None and parent[LABEL] == "votemath.vote_probability"
                and parent[ERROR] is None):
            fallbacks += 1

    parse_s = self_s["records.parse_records"]
    lines = counters.get("records.lines", 0)
    vote_calls = calls["votemath.vote_probability"]
    distinct = counters.get("votemath.distinct_cells", 0)
    values = {
        "records.parse_s": parse_s,
        "records.lines": lines,
        "records.lines_per_s": lines / parse_s if parse_s > 0 else 0.0,
        "records.truth_s": self_s["records.load_ground_truth"],
        "records.group_s": self_s["records.group_records"],
        "records.estimate_s": self_s["records.estimate_distribution"],
        "records.estimate_calls": calls["records.estimate_distribution"],
        "records.pools": counters.get("records.pools", 0),
        "records.self_s": layer_self["records"],
        "votemath.calls": vote_calls,
        "votemath.distinct_cells": distinct,
        "votemath.useful_ratio": distinct / vote_calls if vote_calls else 0.0,
        "votemath.exact_s": self_s["votemath.exact_majority_prob"],
        "votemath.exact_calls": calls["votemath.exact_majority_prob"],
        "votemath.approx_s": self_s["votemath.normal_approx_prob"],
        "votemath.approx_calls": calls["votemath.normal_approx_prob"],
        "votemath.mc_s": self_s["votemath.monte_carlo_majority_prob"],
        "votemath.mc_trials": counters.get("votemath.mc_trials", 0),
        "votemath.fallbacks": fallbacks,
        "votemath.rss_rise_mb": rss_kb / 1024,
        "votemath.self_s": layer_self["votemath"],
        "difficulty.s": layer_self["difficulty"],
        "difficulty.calls": layer_calls["difficulty"],
        "selection.self_s": layer_self["selection"],
        "selection.curve_calls": sum(calls[c] for c in CURVES),
        # inclusive: the estimator calls these functions repeat are their cost
        "selection.oracle_s": sum(inclusive[c] for c in ORACLES),
        "selection.select_s": sum(inclusive[c] for c in SELECTIONS),
        "selection.load_s": self_s["selection.load_scenario"] + self_s["selection.datasets_from_samples"],
        "cli.self_s": layer_self["cli"],
    }
    gone = _missing_labels(trace)
    for name, (_, _, needs) in METRICS.items():
        if needs and all(label in gone for label in needs):
            values[name] = None
    return values


if __name__ == "__main__":
    sys.exit(main())
