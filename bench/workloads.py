"""Benchmark workloads and their seeded input generator.

Each workload is one ``votescale`` CLI invocation over inputs generated from
the benchmark seed. The seed only moves probability values: the input shape
(strategies, questions, answers per question, samples, grid, token usage,
budget) is fixed per workload, so the work a run does is the same for every
seed and runs with different seeds are comparable.
"""
from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass

import numpy as np

#: Prices (currency per 1M prompt/completion tokens) passed to the CLI.
PRICES = (0.15, 0.6)


@dataclass(frozen=True)
class Shape:
    """Input size of one workload."""

    strategies: int
    questions: int
    #: nonzero answers per question, cycled over question positions
    answer_counts: tuple[int, ...]
    grid: tuple[int, ...]
    #: recorded samples per (question, strategy) pool; None means the CLI
    #: reads the planted scenario directly (``predict``)
    samples: int | None = None
    #: Monte Carlo trials per cell; None for the exact estimator
    trials: int | None = None

    @property
    def cells(self) -> int:
        """Distinct (strategy, question, n) cells of the workload."""
        return self.strategies * self.questions * len(self.grid)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    method: str
    full: Shape
    tiny: Shape


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="log-exact",
            why="many tiny exact cells from a large log: ingestion and per-cell overhead dominate",
            command="analyze",
            method="exact",
            full=Shape(3, 300, (2, 3, 4, 5), (1, 3, 5, 9, 15, 31), samples=64),
            tiny=Shape(2, 12, (2, 3, 4, 5), (1, 3, 5), samples=8),
        ),
        Workload(
            name="log-mc",
            why="Monte Carlo cells evaluated several times each: simulation and cell redundancy dominate",
            command="analyze",
            method="mc",
            full=Shape(3, 60, (2, 3, 4, 5), (1, 3, 5, 9, 15, 31), samples=16, trials=1000),
            tiny=Shape(2, 8, (2, 3, 4, 5), (1, 3, 5), samples=8, trials=200),
        ),
        Workload(
            name="wide-exact",
            why="few exact cells with 6-10 answers from a scenario: composition enumeration dominates time and memory",
            command="predict",
            method="exact",
            full=Shape(2, 24, (6, 7, 8, 6, 7, 8, 7, 10), (1, 5, 9, 13, 17, 21)),
            tiny=Shape(2, 8, (3, 4, 5, 4, 5, 3, 4, 9), (1, 3, 5)),
        ),
    )
}


def token_means(strategy: int, question: int) -> tuple[int, int]:
    """Planted (prompt, completion) tokens per sample: fixed, not seeded, so
    the budget admits the same grid points for every seed."""
    return 60 + 40 * strategy + 5 * (question % 7), 120 + 60 * strategy + 10 * (question % 5)


def sample_cost(prompt: float, completion: float) -> float:
    return prompt * (PRICES[0] / 1e6) + completion * (PRICES[1] / 1e6)


def planted_scenario(shape: Shape, seed: int) -> list[dict]:
    """Scenario rows, strategy-major. A question has the same answer count
    and correct answer under every strategy; later strategies put more mass
    on the correct answer, so strategy choice is not trivial. Half of every
    distribution is spread evenly, so each answer has probability at least
    1/(2m) and logs nearly always record every answer: the number of answers
    per pool, which sets the exact estimator's cost, then hardly depends on
    the seed."""
    rng = np.random.default_rng(seed)
    counts = [shape.answer_counts[q % len(shape.answer_counts)] for q in range(shape.questions)]
    correct = [int(rng.integers(m)) for m in counts]
    rows = []
    for s in range(shape.strategies):
        for q, m in enumerate(counts):
            alpha = np.ones(m)
            alpha[correct[q]] += 0.6 * s
            prompt, completion = token_means(s, q)
            rows.append(
                {
                    "strategy_id": f"s{s}",
                    "question_id": f"q{q:04d}",
                    "probs": [float(p) for p in 0.5 * rng.dirichlet(alpha) + 0.5 / m],
                    "correct_index": correct[q],
                    "mean_prompt_tokens": prompt,
                    "mean_completion_tokens": completion,
                }
            )
    return rows


def strategy_costs(shape: Shape) -> list[float]:
    """Dataset-total cost of one sample per question, per strategy."""
    return [
        sum(sample_cost(*token_means(s, q)) for q in range(shape.questions))
        for s in range(shape.strategies)
    ]


def budget_for(shape: Shape) -> float:
    """Dataset-total budget that admits the middle grid point of the most
    expensive strategy but not the next one; asserts that no other
    (strategy, n) cost sits within rounding distance of it."""
    costs = strategy_costs(shape)
    mid = len(shape.grid) // 2
    budget = round(max(costs) * (shape.grid[mid] + shape.grid[mid + 1]) / 2, 6)
    for cost in costs:
        for n in shape.grid:
            if abs(n * cost - budget) <= 1e-6 * budget:
                raise AssertionError("budget sits on a grid cost boundary")
    return budget


def feasible_points(shape: Shape, budget: float) -> int:
    """Number of (strategy, n) grid points whose dataset cost fits the budget."""
    return sum(1 for cost in strategy_costs(shape) for n in shape.grid if n * cost <= budget)


def expected_vote_calls(wl: Workload, shape: Shape, budget: float) -> int:
    """``vote_probability`` calls the seed implementation makes, from the cell
    arithmetic: one pass per curve, selection and oracle, plus one per
    feasible budget point per question."""
    per_pass = shape.cells
    passes = 2 if wl.command == "predict" else 5  # curves, selection (+ adaptive, dynamic, combined)
    return passes * per_pass + feasible_points(shape, budget) * shape.questions


@dataclass(frozen=True)
class Inputs:
    """Files and CLI arguments of one generated workload instance."""

    argv: tuple[str, ...]
    scenario: str
    log: str | None
    truth: str | None
    budget: float
    shape: Shape

    def describe(self, wl: Workload) -> dict:
        lines = None
        if self.log is not None:
            with open(self.log, "rb") as fh:
                lines = sum(1 for _ in fh)
        return {
            "strategies": self.shape.strategies,
            "questions": self.shape.questions,
            "answers": [min(self.shape.answer_counts), max(self.shape.answer_counts)],
            "samples": self.shape.samples,
            "grid": list(self.shape.grid),
            "trials": self.shape.trials,
            "lines": lines,
            "cells": self.shape.cells,
            "budget": self.budget,
            "expected_vote_calls": expected_vote_calls(wl, self.shape, self.budget),
        }


def generate(wl: Workload, shape: Shape, seed: int, workdir: str, python: list[str], env: dict) -> Inputs:
    """Write the workload's inputs under ``workdir`` and return the CLI argv
    (without the ``python -m votescale.cli`` prefix). Logs come from the
    CLI's own ``synth`` subcommand."""
    scenario = os.path.join(workdir, "scenario.jsonl")
    with open(scenario, "w", encoding="utf-8") as fh:
        for row in planted_scenario(shape, seed):
            fh.write(json.dumps(row) + "\n")
    budget = budget_for(shape)
    common = [
        "--grid", ",".join(map(str, shape.grid)),
        "--method", wl.method,
        "--seed", str(seed),
        "--budget", repr(budget),
        "--prices", ",".join(map(repr, PRICES)),
        "--out", "report",
    ]
    if shape.trials is not None:
        common += ["--trials", str(shape.trials)]
    if wl.method == "exact":
        common.append("--fallback")
    if wl.command == "predict":
        argv = ["predict", "--scenario", scenario] + common
        return Inputs(tuple(argv), scenario, None, None, budget, shape)
    data = os.path.join(workdir, "data")
    subprocess.run(
        python + ["synth", "--scenario", scenario, "--samples", str(shape.samples),
                  "--seed", str(seed), "--out", data],
        check=True, env=env, cwd=workdir, stdout=subprocess.DEVNULL, timeout=120,
    )
    log = os.path.join(data, "log.jsonl")
    truth = os.path.join(data, "truth.jsonl")
    argv = ["analyze", "--log", log, "--truth", truth] + common
    return Inputs(tuple(argv), scenario, log, truth, budget, shape)
