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

Exit codes: 0 success, 2 invalid input, 3 enumeration cap exceeded without
``--fallback``. All output is deterministic given inputs and ``--seed``:
floats are formatted with repr-stable precision, rows follow input order,
and CSV line endings are fixed.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .difficulty import classify, kl_to_uniform
from .distribution import AnswerDistribution
from .errors import (
    CapExceeded,
    MalformedLine,
    NoWrongMass,
    VoteScaleError,
)
from .records import (
    CostModel,
    answer_support,
    group_records,
    load_ground_truth,
    parse_records,
)
from .selection import (
    StrategyDataset,
    accuracy_curve,
    adaptive_curve,
    best_for_n,
    best_under_cost,
    combined_curve,
    datasets_from_samples,
    dominance_count,
    dynamic_curve,
    extreme_performance,
    load_scenario,
)
from .votemath import check_grid, scaling_curve

#: Default prices (currency per 1M prompt/completion tokens); the bundled
#: cost examples use this quote.
DEFAULT_PRICES = (0.15, 0.6)


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs shared by the subcommands."""

    command: str
    grid: tuple[int, ...]
    method: str
    trials: int
    seed: int
    fallback: bool
    prices: tuple[float, float]
    budget: float | None
    out: str | None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("--trials must be >= 1")
        if self.seed < 0:
            raise ValueError("--seed must be >= 0")
        if any(p < 0 for p in self.prices):
            raise ValueError("--prices must be >= 0")
        if self.budget is not None and self.budget < 0:
            raise ValueError("--budget must be >= 0")

    @property
    def cost_model(self) -> CostModel:
        return CostModel.from_per_million(*self.prices)


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
    if getattr(args, "grid", None) and getattr(args, "n", None) is not None:
        raise ValueError("give either --n or --grid, not both")
    if getattr(args, "grid", None):
        try:
            values = [int(tok) for tok in args.grid.split(",")]
        except ValueError:
            raise ValueError(f"--grid expects comma-separated integers, got {args.grid!r}") from None
        return check_grid(values)
    if getattr(args, "n", None) is not None:
        return check_grid([args.n])
    raise ValueError("one of --n or --grid is required")


def _config(args, command: str) -> RunConfig:
    return RunConfig(
        command=command,
        grid=_parse_grid(args),
        method=getattr(args, "method", command if command in ("exact", "approx", "mc") else "approx"),
        trials=getattr(args, "trials", 100_000),
        seed=getattr(args, "seed", 0),
        fallback=getattr(args, "fallback", False),
        prices=_parse_floats(getattr(args, "prices", None) or "0.15,0.6", "--prices", 2),
        budget=getattr(args, "budget", None),
        out=getattr(args, "out", None),
    )


def _open_out(path: str | None):
    if path is None:
        return sys.stdout, False
    return open(path, "w", newline="", encoding="utf-8"), True


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.readlines()


def _point_rows(dist: AnswerDistribution, cfg: RunConfig):
    curve = scaling_curve(
        dist, cfg.grid, cfg.method, trials=cfg.trials, seed=cfg.seed, fallback=cfg.fallback
    )
    return [
        [vp.n, _fmt(vp.value), vp.method, "" if vp.stderr is None else _fmt(vp.stderr)]
        for vp in curve.points
    ]


def _cmd_point(args, command: str) -> int:
    cfg = _config(args, command)
    dist = AnswerDistribution(_parse_floats(args.dist, "--dist"), args.correct)
    rows = _point_rows(dist, cfg)
    handle, owned = _open_out(cfg.out)
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "value", "method", "stderr"])
        writer.writerows(rows)
    finally:
        if owned:
            handle.close()
    return 0


def cmd_exact(args) -> int:
    return _cmd_point(args, "exact")


def cmd_approx(args) -> int:
    return _cmd_point(args, "approx")


def cmd_mc(args) -> int:
    return _cmd_point(args, "mc")


def _load_scenario_file(path: str) -> list[StrategyDataset]:
    try:
        datasets = load_scenario(_read_lines(path))
    except MalformedLine as exc:
        raise VoteScaleError(f"{path}: {exc}") from None
    if not datasets or all(not ds.questions for ds in datasets):
        raise VoteScaleError(f"{path}: scenario defines no questions")
    return datasets


def _curve_rows(curves) -> list[list]:
    rows = []
    for curve in curves:
        for point in curve.points:
            rows.append([curve.curve_id, point.n, _fmt(point.value), point.method])
    return rows


def _selection_rows(dss, cfg: RunConfig) -> list[list]:
    rows = []
    for n in cfg.grid:
        result = best_for_n(
            dss, n, cfg.method, trials=cfg.trials, seed=cfg.seed, fallback=cfg.fallback
        )
        rows.append([n, result.chosen_strategy, _fmt(result.predicted_accuracy)])
    return rows


def _budget_rows(dss, cfg: RunConfig) -> list[list]:
    result = best_under_cost(
        dss,
        cfg.budget,
        cfg.cost_model,
        cfg.grid,
        cfg.method,
        trials=cfg.trials,
        seed=cfg.seed,
        fallback=cfg.fallback,
    )
    return [
        [
            _fmt(cfg.budget),
            result.chosen_strategy,
            result.chosen_n,
            _fmt(result.predicted_accuracy),
        ]
    ]


def cmd_predict(args) -> int:
    cfg = _config(args, "predict")
    if cfg.out is None:
        raise ValueError("--out DIR is required")
    dss = _load_scenario_file(args.scenario)
    curves = [
        accuracy_curve(
            ds, cfg.grid, cfg.method, trials=cfg.trials, seed=cfg.seed, fallback=cfg.fallback
        )
        for ds in dss
    ]
    os.makedirs(cfg.out, exist_ok=True)
    _write_csv(
        os.path.join(cfg.out, "curves.csv"),
        ["strategy_id", "n", "accuracy", "method"],
        _curve_rows(curves),
    )
    _write_csv(
        os.path.join(cfg.out, "selection.csv"),
        ["n", "chosen_strategy", "predicted_accuracy"],
        _selection_rows(dss, cfg),
    )
    if cfg.budget is not None:
        _write_csv(
            os.path.join(cfg.out, "budget_selection.csv"),
            ["budget", "chosen_strategy", "chosen_n", "predicted_accuracy"],
            _budget_rows(dss, cfg),
        )
    return 0


def _parse_log_files(paths: list[str]):
    records = []
    for path in paths:
        try:
            records.extend(parse_records(_read_lines(path)))
        except MalformedLine as exc:
            raise VoteScaleError(f"{path}: {exc}") from None
    return records


def cmd_analyze(args) -> int:
    cfg = _config(args, "analyze")
    if cfg.out is None:
        raise ValueError("--out DIR is required")
    try:
        truth = load_ground_truth(_read_lines(args.truth))
    except MalformedLine as exc:
        raise VoteScaleError(f"{args.truth}: {exc}") from None
    records = _parse_log_files(args.log)
    groups = group_records(records, truth)
    if not groups:
        raise VoteScaleError("log contains no records")
    dss = datasets_from_samples(groups, smoothing=args.smoothing)
    reference = set(dss[0].question_ids)
    for ds in dss[1:]:
        if set(ds.question_ids) != reference:
            raise VoteScaleError(
                f"strategy {ds.strategy_id!r} covers different questions than "
                f"{dss[0].strategy_id!r}; analyze needs one log row set per strategy"
            )

    curves = [
        accuracy_curve(
            ds, cfg.grid, cfg.method, trials=cfg.trials, seed=cfg.seed, fallback=cfg.fallback
        )
        for ds in dss
    ]
    difficulty_rows = []
    for ds in dss:
        xp = extreme_performance(ds)
        difficulty_rows.append(
            [
                ds.strategy_id,
                _fmt(xp.easy_frac),
                _fmt(xp.moderate_frac),
                _fmt(xp.hard_frac),
                _fmt(xp.limit_accuracy),
            ]
        )
    dominance_rows = []
    for ds_a in dss:
        for ds_b in dss:
            if ds_a.strategy_id == ds_b.strategy_id:
                continue
            dominance_rows.append(
                [ds_a.strategy_id, ds_b.strategy_id, dominance_count(ds_a, ds_b)]
            )
    kl_rows = []
    for ds in dss:
        divergences = []
        for q in ds.questions:
            try:
                divergences.append(kl_to_uniform(q.dist))
            except NoWrongMass:
                continue
        mean_kl = _fmt(sum(divergences) / len(divergences)) if divergences else ""
        kl_rows.append([ds.strategy_id, mean_kl, len(divergences)])

    oracle_curves = [
        adaptive_curve(
            ds, cfg.grid, cfg.method, trials=cfg.trials, seed=cfg.seed, fallback=cfg.fallback
        )
        for ds in dss
    ]
    oracle_curves.append(
        dynamic_curve(
            dss, cfg.grid, cfg.method, trials=cfg.trials, seed=cfg.seed, fallback=cfg.fallback
        )
    )
    oracle_curves.append(
        combined_curve(
            dss, cfg.grid, cfg.method, trials=cfg.trials, seed=cfg.seed, fallback=cfg.fallback
        )
    )

    dists = {(q.question_id, ds.strategy_id): q.dist for ds in dss for q in ds.questions}
    distribution_rows = []
    for (question_id, strategy_id), samples in groups.items():
        support = answer_support(samples)
        dist = dists[question_id, strategy_id]
        label = classify(dist).kind.value
        for j, answer in enumerate(support):
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

    os.makedirs(cfg.out, exist_ok=True)
    _write_csv(
        os.path.join(cfg.out, "curves.csv"),
        ["strategy_id", "n", "accuracy", "method"],
        _curve_rows(curves),
    )
    _write_csv(
        os.path.join(cfg.out, "difficulty_table.csv"),
        ["strategy_id", "easy_frac", "moderate_frac", "hard_frac", "limit_accuracy"],
        difficulty_rows,
    )
    _write_csv(
        os.path.join(cfg.out, "dominance.csv"),
        ["overtaker", "overtaken", "count"],
        dominance_rows,
    )
    _write_csv(
        os.path.join(cfg.out, "kl.csv"),
        ["strategy_id", "mean_kl", "questions_with_wrong_mass"],
        kl_rows,
    )
    _write_csv(
        os.path.join(cfg.out, "selection.csv"),
        ["n", "chosen_strategy", "predicted_accuracy"],
        _selection_rows(dss, cfg),
    )
    _write_csv(
        os.path.join(cfg.out, "oracles.csv"),
        ["curve_id", "n", "accuracy", "method"],
        _curve_rows(oracle_curves),
    )
    _write_csv(
        os.path.join(cfg.out, "distributions.csv"),
        ["strategy_id", "question_id", "answer", "prob", "is_correct", "difficulty"],
        distribution_rows,
    )
    if cfg.budget is not None:
        _write_csv(
            os.path.join(cfg.out, "budget_selection.csv"),
            ["budget", "chosen_strategy", "chosen_n", "predicted_accuracy"],
            _budget_rows(dss, cfg),
        )
    return 0


def cmd_synth(args) -> int:
    if args.out is None:
        raise ValueError("--out DIR is required")
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
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

    rng = np.random.default_rng(args.seed)
    log_lines = []
    for ds in dss:
        for q in ds.questions:
            prompt_tokens = int(round(q.mean_prompt_tokens))
            completion_tokens = int(round(q.mean_completion_tokens))
            draws = rng.choice(q.dist.m, size=args.samples, p=q.dist.probs)
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
                        }
                    )
                )
    truth_lines = [
        json.dumps({"question_id": question_id, "correct_answer": answer})
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
    sub.add_argument("--trials", type=int, default=100_000, help="Monte Carlo trials per point")
    sub.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_argument(
        "--fallback",
        action="store_true",
        help="answer above-cap exact queries with the normal approximation",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votescale",
        description="Analyze and predict the accuracy of majority voting over repeated samples.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_exact = commands.add_parser("exact", help="exact vote probability for one distribution")
    _add_dist_flags(p_exact)
    _add_grid_flags(p_exact)
    p_exact.add_argument("--fallback", action="store_true", help="fall back to the normal approximation above caps")
    p_exact.add_argument("--out", help="write CSV here instead of stdout")
    p_exact.set_defaults(func=cmd_exact, method="exact")

    p_approx = commands.add_parser("approx", help="normal-approximation vote probability")
    _add_dist_flags(p_approx)
    _add_grid_flags(p_approx)
    p_approx.add_argument("--out", help="write CSV here instead of stdout")
    p_approx.set_defaults(func=cmd_approx, method="approx")

    p_mc = commands.add_parser("mc", help="Monte Carlo vote probability")
    _add_dist_flags(p_mc)
    _add_grid_flags(p_mc)
    p_mc.add_argument("--trials", type=int, default=100_000, help="trials per grid point")
    p_mc.add_argument("--seed", type=int, default=0, help="random seed")
    p_mc.add_argument("--out", help="write CSV here instead of stdout")
    p_mc.set_defaults(func=cmd_mc, method="mc")

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
    p_analyze.add_argument("--smoothing", type=float, default=0.0, help="pseudo-count per answer in estimation")
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


if __name__ == "__main__":
    sys.exit(main())
