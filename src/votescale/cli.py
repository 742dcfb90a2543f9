"""Command-line surface.

Six subcommands:

* ``exact``, ``approx``, ``mc``  -- one distribution, one estimator, CSV rows
  (n, value, method, stderr) to stdout or a file.
* ``predict``  -- per-strategy accuracy curves and the best strategy per n
  from an analytic scenario file.
* ``analyze``  -- the full report from recorded sample logs: curves,
  difficulty table, dominance and error-concentration tables, per-n
  selection, oracle curves, estimated distributions.
* ``synth``    -- generate a synthetic log plus ground truth from planted
  distributions (test data; round-trips through ``analyze``).

Every command reads its flags from the parsed argparse namespace. The
evaluation flags (``--trials``, ``--seed``, ``--fallback``, ``--prices``,
``--budget``) take their defaults from one table, ``_EVAL_DEFAULTS``, which
also sets the ones a point parser lacks. Before any
input file is opened, one check (:func:`_check_flags`) names the first bad
flag in a fixed order and returns the grid and the cost model; the other
flags go from the namespace straight to :class:`votescale.selection.Run`.

The three point commands are one command under three names. A report is a
list of ``(file name, header, rows)`` tables: ``predict`` builds the
strategy tables (curves, per-n selection, budget selection), ``analyze``
appends its own, and one writer writes them once every table is computed,
so a failing run leaves no partial report. All tables of a report read
one :class:`votescale.selection.Run`, which checks when it is built that
every strategy covers the same questions (so a mismatch exits 2, not 3,
before any cell is evaluated). Its curves evaluate every grid cell in
one estimator call, and the selections and oracles reduce those cells,
evaluating at most the hard questions' n = 1 cells in one more call. Every
input file is opened once, and the open file goes straight to the readers
of :mod:`votescale.records`, which take its lines as it streams them and
name the file and line of the first bad or repeated line in reading order.
The logs go through one pass (:func:`votescale.records.group_logs`)
straight into per-pool samples; once reading ends it checks the pools, and
names the line of a record key repeated across log lines or files, or of a
logged question without ground truth, from the line numbers kept per
sample.

No module of the package imports numpy when it is imported: the
estimators and :class:`votescale.selection.Run` import it when a command
first evaluates cells, and ``synth`` when it draws samples. ``--help``,
usage errors and input rejected before any cell is evaluated return
without loading it.

Exit codes: 0 success, 2 invalid input, 3 exact-path cap exceeded without
``--fallback``. All output is deterministic given inputs and ``--seed``:
floats are formatted with repr-stable precision, rows follow input order,
and CSV line endings are fixed.

:func:`main` returns the exit code and leaves the interpreter as it was,
for in-process callers. The process entry :func:`run`, behind
``python -m votescale.cli`` and the ``votescale`` script, calls it, then
moves every object into the garbage collector's permanent generation
(``gc.freeze()``), so that the interpreter's teardown does not trace the
run's objects again, and exits through ``sys.exit``, which still runs
atexit handlers and flushes the output streams.
"""
from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import sys
from contextlib import closing
from typing import Iterator, TextIO

from .difficulty import kl_to_uniform
from .distribution import AnswerDistribution
from .errors import CapExceeded, DuplicateKey, MalformedLine, NoWrongMass, VoteScaleError
from .records import CostModel, answer_support, group_logs, load_ground_truth

# bench/tracer.py times the record-at-a-time steps, the free reductions and
# the per-cell estimator under these names; the CLI itself reads logs with
# group_logs, reduces with one Run and evaluates cells with vote_probabilities
from .records import group_records, parse_records  # noqa: F401
from .selection import adaptive_curve, best_for_n, best_under_cost, combined_curve, dynamic_curve  # noqa: F401
from .selection import extreme_performance  # noqa: F401
from .votemath import vote_probability  # noqa: F401
from .selection import Run, StrategyDataset, datasets_from_samples, load_scenario, scaling_curve
from .votemath import _MAX_DRAW, check_grid

#: Default prices (currency per 1M prompt/completion tokens); the bundled
#: cost examples use this quote.
DEFAULT_PRICES = (0.15, 0.6)

#: The evaluation flags' defaults; a command that lacks one of these flags
#: (or ``mc``, when its ``--trials`` or ``--seed`` is not given) takes it from here.
_EVAL_DEFAULTS = {"trials": 100_000, "seed": 0, "fallback": False, "prices": None, "budget": None}


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _parse_floats(text: str, flag: str, expected: int | None = None) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if expected is not None and len(values) != expected:
        raise ValueError(f"{flag} expects {expected} comma-separated numbers")
    return values


def _parse_grid(args) -> tuple[int, ...]:
    if args.grid is not None and args.n is not None:
        raise ValueError("give either --n or --grid, not both")
    if args.grid is not None:
        try:
            values = [int(tok) for tok in args.grid.split(",")]
        except ValueError:
            raise ValueError(f"--grid expects comma-separated integers, got {args.grid!r}") from None
        return check_grid(values)
    if args.n is not None:
        return check_grid([args.n])
    raise ValueError("one of --n or --grid is required")


def _check_flags(args) -> tuple[tuple[int, ...], CostModel]:
    """The grid and the cost model of an evaluating command's flags. The
    first bad flag raises, in this order: the grid, the form of --prices,
    --trials, --seed, the --prices values, --budget."""
    grid = _parse_grid(args)
    prices = DEFAULT_PRICES if args.prices is None else _parse_floats(args.prices, "--prices", 2)
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    if not all(p >= 0 for p in prices):
        raise ValueError("--prices must be >= 0")
    if args.budget is not None and not args.budget >= 0:
        raise ValueError("--budget must be >= 0")
    return grid, CostModel.from_per_million(*prices)


def _read(path: str, parse):
    """``parse`` applied to one input file, open as UTF-8 text whose lines
    end in \\n, \\r\\n or \\r, as the readers of :mod:`votescale.records`
    take it. Bytes that are not UTF-8 arrive as lone surrogates, which those
    readers report with the line's number; a malformed or repeated line is
    reported with the file's name."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return parse(fh)
    except (MalformedLine, DuplicateKey) as exc:
        raise VoteScaleError(f"{path}: {exc}") from None


def _log_sources(paths) -> Iterator[tuple[str, TextIO]]:
    """``(path, open file)`` of each log, opened as :func:`_read` opens one
    once the generator reaches it, and closed once it is read or the
    generator is closed."""
    for path in paths:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            yield path, fh


def _write_table(fh, header: list[str], rows) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write_report(out: str, tables) -> None:
    """Write ``(file name, header, rows)`` tables into the report directory."""
    os.makedirs(out, exist_ok=True)
    for name, header, rows in tables:
        with open(os.path.join(out, name), "w", newline="", encoding="utf-8") as fh:
            _write_table(fh, header, rows)


def cmd_point(args) -> int:
    grid, _ = _check_flags(args)
    dist = AnswerDistribution(_parse_floats(args.dist, "--dist"), args.correct)
    curve = scaling_curve(dist, grid, args.method, trials=args.trials, seed=args.seed, fallback=args.fallback)
    header = ["n", "value", "method", "stderr"]
    rows = [
        [vp.n, _fmt(vp.value), vp.method, "" if vp.stderr is None else _fmt(vp.stderr)]
        for vp in curve.points
    ]
    if args.out is None:
        _write_table(sys.stdout, header, rows)
    else:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            _write_table(fh, header, rows)
    return 0


def _load_scenario_file(path: str) -> list[StrategyDataset]:
    datasets = _read(path, load_scenario)
    if all(not ds.questions for ds in datasets):
        raise VoteScaleError(f"{path}: scenario defines no questions")
    return datasets


def _curve_rows(curves) -> list[list]:
    rows = []
    for curve in curves:
        for point in curve.points:
            rows.append([curve.curve_id, point.n, _fmt(point.value), point.method])
    return rows


def _run(dss, args, grid: tuple[int, ...]) -> Run:
    return Run(dss, grid, args.method, trials=args.trials, seed=args.seed, fallback=args.fallback)


def _strategy_tables(run: Run, budget: float | None, costs: CostModel) -> list[tuple]:
    """Per-strategy curves, the best strategy per n and, under a budget, the
    best (strategy, n) that fits it."""
    curves = run.curves()
    picks = [run.best_for_n(n) for n in run.grid]
    tables = [
        ("curves.csv", ["strategy_id", "n", "accuracy", "method"], _curve_rows(curves)),
        (
            "selection.csv",
            ["n", "chosen_strategy", "predicted_accuracy"],
            [[r.chosen_n, r.chosen_strategy, _fmt(r.predicted_accuracy)] for r in picks],
        ),
    ]
    if budget is not None:
        r = run.best_under_cost(budget, costs)
        tables.append(
            (
                "budget_selection.csv",
                ["budget", "chosen_strategy", "chosen_n", "predicted_accuracy"],
                [[_fmt(budget), r.chosen_strategy, r.chosen_n, _fmt(r.predicted_accuracy)]],
            )
        )
    return tables


def cmd_predict(args) -> int:
    grid, costs = _check_flags(args)
    dss = _load_scenario_file(args.scenario)
    _write_report(args.out, _strategy_tables(_run(dss, args, grid), args.budget, costs))
    return 0


def _kl_row(ds: StrategyDataset) -> list:
    divergences = []
    for q in ds.questions:
        try:
            divergences.append(kl_to_uniform(q.dist))
        except NoWrongMass:
            continue
    mean_kl = _fmt(sum(divergences) / len(divergences)) if divergences else ""
    return [ds.strategy_id, mean_kl, len(divergences)]


def cmd_analyze(args) -> int:
    grid, costs = _check_flags(args)
    if not 0 <= args.smoothing < math.inf:
        raise ValueError("--smoothing must be a finite number >= 0")
    truth = _read(args.truth, load_ground_truth)
    with closing(_log_sources(args.log)) as sources:
        groups = group_logs(sources, truth, truth_name=args.truth)
    if not groups:
        raise VoteScaleError("log contains no records")
    dss = datasets_from_samples(groups, smoothing=args.smoothing)

    run = _run(dss, args, grid)
    tables = _strategy_tables(run, args.budget, costs)
    oracle_curves = run.oracles()
    overtakes = run.dominance()

    labelled = {
        (q.question_id, ds.strategy_id): (q.dist, label.kind.value)
        for ds, labels in zip(dss, run.labels)
        for q, label in zip(ds.questions, labels)
    }
    distribution_rows = []
    for (question_id, strategy_id), samples in groups.items():
        dist, label = labelled[question_id, strategy_id]
        for j, answer in enumerate(answer_support(samples)):
            distribution_rows.append(
                [
                    strategy_id,
                    question_id,
                    answer,
                    _fmt(dist.probs[j]),
                    int(j == dist.correct_index),
                    label,
                ]
            )

    tables += [
        (
            "difficulty_table.csv",
            ["strategy_id", "easy_frac", "moderate_frac", "hard_frac", "limit_accuracy"],
            [[ds.strategy_id, *map(_fmt, xp)] for ds, xp in zip(dss, run.extreme_performance())],
        ),
        (
            "dominance.csv",
            ["overtaker", "overtaken", "count"],
            [
                [a.strategy_id, b.strategy_id, overtakes[i][j]]
                for i, a in enumerate(dss)
                for j, b in enumerate(dss)
                if i != j
            ],
        ),
        (
            "kl.csv",
            ["strategy_id", "mean_kl", "questions_with_wrong_mass"],
            [_kl_row(ds) for ds in dss],
        ),
        ("oracles.csv", ["curve_id", "n", "accuracy", "method"], _curve_rows(oracle_curves)),
        (
            "distributions.csv",
            ["strategy_id", "question_id", "answer", "prob", "is_correct", "difficulty"],
            distribution_rows,
        ),
    ]
    _write_report(args.out, tables)
    return 0


def cmd_synth(args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if args.samples > _MAX_DRAW:
        raise ValueError("--samples must be <= 2^63 - 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    dss = _load_scenario_file(args.scenario)

    correct_by_question: dict[str, str] = {}
    for ds in dss:
        for q in ds.questions:
            label = f"a{q.dist.correct_index}"
            previous = correct_by_question.setdefault(q.question_id, label)
            if previous != label:
                raise VoteScaleError(
                    f"question {q.question_id!r} has conflicting correct answers "
                    f"across strategies ({previous} vs {label})"
                )

    import numpy as np

    rng = np.random.default_rng(args.seed)
    log_lines = []
    for ds in dss:
        for q in ds.questions:
            prompt_tokens = int(round(q.mean_prompt_tokens))
            completion_tokens = int(round(q.mean_completion_tokens))
            try:
                draws = rng.choice(q.dist.m, size=args.samples, p=q.dist.probs)
            except MemoryError:
                raise ValueError(f"--samples {args.samples} is more draws than fit in memory") from None
            for sample_index, answer_index in enumerate(draws):
                log_lines.append(
                    json.dumps(
                        {
                            "question_id": q.question_id,
                            "strategy_id": ds.strategy_id,
                            "sample_index": sample_index,
                            "answer": f"a{int(answer_index)}",
                            "prompt_tokens": prompt_tokens,
                            "completion_tokens": completion_tokens,
                        },
                        ensure_ascii=False,
                    )
                )
    truth_lines = [
        json.dumps({"question_id": question_id, "correct_answer": answer}, ensure_ascii=False)
        for question_id, answer in correct_by_question.items()
    ]

    os.makedirs(args.out, exist_ok=True)
    for name, lines in (("log.jsonl", log_lines), ("truth.jsonl", truth_lines)):
        with open(os.path.join(args.out, name), "w", newline="", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _add_dist_flags(sub) -> None:
    sub.add_argument("--dist", required=True, help="comma-separated answer probabilities")
    sub.add_argument("--correct", type=int, default=0, help="index of the correct answer (default 0)")


def _add_grid_flags(sub) -> None:
    sub.add_argument("--n", type=int, help="single sampling time")
    sub.add_argument("--grid", help="comma-separated sampling times, strictly increasing")


def _add_eval_flags(sub, *, default_method: str) -> None:
    sub.add_argument(
        "--method",
        choices=["exact", "approx", "mc"],
        default=default_method,
        help=f"per-question estimator (default {default_method})",
    )
    sub.add_argument("--trials", type=int, help="Monte Carlo trials per point")
    sub.add_argument("--seed", type=int, help="random seed")
    sub.add_argument(
        "--fallback",
        action="store_true",
        help="answer above-cap exact queries with the normal approximation",
    )
    sub.set_defaults(**_EVAL_DEFAULTS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votescale",
        description="Analyze and predict the accuracy of majority voting over repeated samples.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("exact", "exact vote probability for one distribution"),
        ("approx", "normal-approximation vote probability"),
        ("mc", "Monte Carlo vote probability"),
    ):
        p_point = commands.add_parser(name, help=help_text)
        _add_dist_flags(p_point)
        _add_grid_flags(p_point)
        if name == "exact":
            p_point.add_argument(
                "--fallback",
                action="store_true",
                help="fall back to the normal approximation above caps",
            )
        if name == "mc":
            p_point.add_argument("--trials", type=int, help="trials per grid point")
            p_point.add_argument("--seed", type=int, help="random seed")
        p_point.add_argument("--out", help="write CSV here instead of stdout")
        p_point.set_defaults(func=cmd_point, method=name, **_EVAL_DEFAULTS)

    p_predict = commands.add_parser(
        "predict", help="accuracy curves and best strategy per n from a scenario file"
    )
    p_predict.add_argument("--scenario", required=True, help="line-delimited scenario file")
    _add_grid_flags(p_predict)
    _add_eval_flags(p_predict, default_method="approx")
    p_predict.add_argument("--prices", help="PROMPT,COMPLETION currency per 1M tokens")
    p_predict.add_argument("--budget", type=float, help="also select under this dataset-total cost")
    p_predict.add_argument("--out", required=True, help="report directory")
    p_predict.set_defaults(func=cmd_predict)

    p_analyze = commands.add_parser("analyze", help="full report from recorded sample logs")
    p_analyze.add_argument("--log", action="append", required=True, help="sample log (repeatable)")
    p_analyze.add_argument("--truth", required=True, help="ground-truth file")
    _add_grid_flags(p_analyze)
    _add_eval_flags(p_analyze, default_method="exact")
    p_analyze.add_argument("--smoothing", type=float, default=0.0, help="finite pseudo-count >= 0 per answer")
    p_analyze.add_argument("--prices", help="PROMPT,COMPLETION currency per 1M tokens")
    p_analyze.add_argument("--budget", type=float, help="also select under this dataset-total cost")
    p_analyze.add_argument("--out", required=True, help="report directory")
    p_analyze.set_defaults(func=cmd_analyze)

    p_synth = commands.add_parser("synth", help="generate a synthetic log from planted distributions")
    p_synth.add_argument("--scenario", required=True, help="planted distributions (scenario format)")
    p_synth.add_argument("--samples", type=int, required=True, help="samples per (question, strategy)")
    p_synth.add_argument("--seed", type=int, default=0, help="random seed")
    p_synth.add_argument("--out", required=True, help="directory for log.jsonl and truth.jsonl")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (VoteScaleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry (``python -m votescale.cli`` and the ``votescale``
    script): :func:`main`, then exit with its code."""
    code = main()
    # teardown's collections skip frozen objects (47-57 ms -> 10-21 ms after
    # a benchmark workload's run on a 2-CPU VM); os._exit would be quicker
    # still, but skips atexit handlers and flushes
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
