"""Dataset-level accuracy curves, strategy selection, and oracle upgrades.

A strategy here is a fixed way of querying the model (a prompt, a
temperature, a pipeline); for analysis purposes it is fully described by
one answer distribution per question plus mean token usage. This module
averages the per-question vote probabilities of :mod:`votescale.votemath`
over a dataset, picks the best strategy under a sampling-time or cost
budget, tabulates extreme performance and pairwise overtake counts, and
computes three oracle curves that bound what smarter sampling could do:

* adaptive  -- stop at one sample on questions where voting hurts;
* dynamic   -- pick the best strategy per question;
* combined  -- both at once.

Every curve, selection and oracle is a reduction over the (strategy,
question, effective n) cells of a :class:`Run`, which holds strategy
datasets on one grid under one estimator setting. A reduction evaluates the
cells it reads that are still missing in one estimator call (one
:func:`votescale.votemath.exact_majority_probs` call, which evaluates each
distinct kernel input once, one Monte Carlo batch, or ``vote_probability``
per cell), takes each question's best strategy with ``argmax`` and averages
with ``math.fsum``. The free functions (:func:`accuracy_curve`, ...) each
evaluate a one-off run, only the cells they read, and keep nothing.
Monte Carlo cells derive their sub-seed from (strategy, question position,
effective n), so a cell has one value however it is reached and the
documented dominance relations between curves survive sampling noise. A
dataset point is tagged with the least exact estimator among its cells.
"""
from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .distribution import METHODS, AnswerDistribution, VoteProbability
from .difficulty import Difficulty, classify, crossover_condition
from .errors import (
    DuplicateKey,
    IdMismatch,
    InvalidDistribution,
    MalformedLine,
    NoFeasibleChoice,
)
from .records import CostModel, QuestionSamples, estimate_distribution
from .records import _json_lines, _number, _text
from .votemath import (
    ScalingCurve,
    canonical_method,
    check_grid,
    exact_majority_probs,
    monte_carlo_majority_probs,
    vote_probability,
)

_SCENARIO_FIELDS = frozenset(
    {
        "strategy_id",
        "question_id",
        "probs",
        "correct_index",
        "mean_prompt_tokens",
        "mean_completion_tokens",
    }
)


@dataclass(frozen=True)
class QuestionEntry:
    """One question under one strategy: its distribution and token means."""

    question_id: str
    dist: AnswerDistribution
    mean_prompt_tokens: float = 0.0
    mean_completion_tokens: float = 0.0


@dataclass(frozen=True)
class StrategyDataset:
    strategy_id: str
    questions: tuple[QuestionEntry, ...]

    def __post_init__(self):
        ids = tuple(q.question_id for q in self.questions)
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate question_ids in strategy {self.strategy_id!r}")
        # reductions read the ids many times per run; equality is unchanged
        object.__setattr__(self, "_question_ids", ids)

    @property
    def question_ids(self) -> tuple[str, ...]:
        return self._question_ids

    def by_id(self) -> dict[str, QuestionEntry]:
        return {q.question_id: q for q in self.questions}


@dataclass(frozen=True)
class SelectionResult:
    """A chosen (strategy, n) pair under a budget.

    ``budget`` is (kind, value) with kind 'samples' (fixed n) or 'cost'
    (currency ceiling on the dataset total). When kind is 'cost',
    ``chosen_n`` is feasible under the cost model by construction.
    """

    budget: tuple[str, float]
    chosen_strategy: str
    chosen_n: int
    predicted_accuracy: float

    def __post_init__(self):
        kind, _ = self.budget
        if kind not in ("samples", "cost"):
            raise ValueError(f"unknown budget kind {kind!r}")
        if not 0.0 <= self.predicted_accuracy <= 1.0:
            raise ValueError("predicted accuracy must lie in [0, 1]")


class ExtremePerformance(NamedTuple):
    """Difficulty fractions and the implied large-n accuracy limit."""

    easy_frac: float
    moderate_frac: float
    hard_frac: float
    limit_accuracy: float


class Run:
    """Strategy datasets evaluated on one grid under one estimator setting.

    Grid and method are checked once, and each question is classified once
    (``labels``, per strategy in dataset order). Per strategy, the run owns
    one (n, question, 3) array of (value, estimator index in ``METHODS``,
    standard error) rows over the grid and n = 1, NaN until evaluated.
    :meth:`curves` fills every grid cell in one estimator call, so the
    oracles and selections after it evaluate at most the hard questions'
    n = 1 cells, in one more.
    """

    def __init__(
        self,
        datasets,
        grid,
        method: str = "exact",
        *,
        trials: int = 10_000,
        seed: int = 0,
        fallback: bool = False,
    ):
        self.grid = check_grid(grid)
        self.method = canonical_method(method)
        self.datasets = tuple(datasets)
        if not self.datasets:
            raise ValueError("need at least one strategy dataset")
        self.trials, self.seed, self.fallback = trials, seed, fallback
        self.labels = [[classify(q.dist) for q in ds.questions] for ds in self.datasets]
        self._hard = [np.array([lb.kind is Difficulty.HARD for lb in labels], bool) for labels in self.labels]
        self._index = {n: i for i, n in enumerate(sorted({1, *self.grid}))}
        self._cells = [np.full((len(self._index), len(ds.questions), 3), np.nan) for ds in self.datasets]

    @functools.cached_property
    def _positions(self) -> list[list[int]]:
        """Per dataset, where the first dataset's questions sit in it."""
        first = self.datasets[0]
        order, reference = first.question_ids, set(first.question_ids)
        for ds in self.datasets[1:]:
            ids = set(ds.question_ids)
            if ids != reference:
                # the first dataset's questions in reading order, then ds's
                question_id = next(q for q in order + ds.question_ids if (q in ids) != (q in reference))
                lacking = ds if question_id in reference else first
                raise IdMismatch(
                    f"strategy {ds.strategy_id!r} covers different questions than "
                    f"{first.strategy_id!r}: {lacking.strategy_id!r} lacks question {question_id!r}"
                )
        where = [{question_id: qi for qi, question_id in enumerate(ds.question_ids)} for ds in self.datasets]
        return [[positions[question_id] for question_id in order] for positions in where]

    def _fill(self, requests) -> None:
        """Evaluate the missing cells of non-overlapping ``(strategy, n,
        rows)`` requests (``rows`` a question mask, or True), in order, in one
        estimator call: :func:`exact_majority_probs`, one Monte Carlo batch
        with a sub-seed per cell, or ``vote_probability`` per cell."""
        todo = []
        for s, n, rows in requests:
            qis = np.flatnonzero(np.isnan(self._cells[s][self._index[n], :, 0]) & rows)
            if len(qis):
                todo.append((s, n, qis))
        if not todo:
            return
        # generated, so that a large batch's cells are not held twice
        cells = ((s, self.datasets[s].questions[qi].dist, n, qi) for s, n, qis in todo for qi in qis.tolist())
        if self.method == "exact":
            values = exact_majority_probs(((dist, n) for _, dist, n, _ in cells), fallback=self.fallback)
        elif self.method == "monte_carlo":
            crc = [zlib.crc32(ds.strategy_id.encode("utf-8")) for ds in self.datasets]
            seeded = ((d, n, np.random.SeedSequence([self.seed, crc[s], qi, n])) for s, d, n, qi in cells)
            values = monte_carlo_majority_probs(seeded, self.trials)
        else:
            values = [vote_probability(d, n, self.method, fallback=self.fallback) for _, d, n, _ in cells]
        values = iter(values)
        for s, n, qis in todo:
            rows = [(vp.value, METHODS.index(vp.method), vp.stderr or 0.0) for _, vp in zip(qis, values)]
            self._cells[s][self._index[n], qis] = rows

    def _curve(self, strategies, ns, adaptive: bool, curve_id: str) -> ScalingCurve:
        """The one reduction: per n of ``ns`` and question, the best of
        ``strategies``' cells (the earliest on ties) -- at n = 1 for a
        strategy's hard questions if ``adaptive`` -- averaged over questions
        with ``math.fsum``, and tagged with the least exact cell's estimator.
        Evaluates the cells it reads that are missing first."""
        positions = self._positions if len(strategies) > 1 else None
        if not self.datasets[strategies[0]].questions:
            raise ValueError("dataset has no questions")
        requests = [(s, n, ~self._hard[s] if adaptive else True) for s in strategies for n in ns]
        self._fill(requests + [(s, 1, self._hard[s]) for s in strategies if adaptive])
        blocks = []
        for s in strategies:
            block = self._cells[s][[self._index[n] for n in ns]]
            if adaptive:
                block[:, self._hard[s]] = self._cells[s][self._index[1], self._hard[s]]
            blocks.append(block if positions is None else block[:, positions[s]])
        table = np.stack(blocks)  # (strategy, n, question, 3)
        best = table[..., 0].argmax(axis=0)  # the first maximum wins ties
        winners = np.take_along_axis(table, best[None, :, :, None], axis=0)[0]
        count = table.shape[2]
        points = []
        for n, (values, codes, stderrs) in zip(ns, winners.transpose(0, 2, 1)):
            tag = METHODS[int(codes.max())]  # the least exact cell's estimator
            mean = math.fsum(values.tolist()) / count
            stderr = None
            if tag == "monte_carlo":
                stderr = math.sqrt(math.fsum(e**2 for e in stderrs.tolist())) / count
            points.append(VoteProbability(mean, tag, n, stderr=stderr))
        return ScalingCurve(tuple(points), self.method, curve_id=curve_id)

    def curves(self) -> list[ScalingCurve]:
        """Each strategy's accuracy curve; every grid cell in one call."""
        self._fill([(s, n, True) for s in range(len(self.datasets)) for n in self.grid])
        return [self._curve([s], self.grid, False, ds.strategy_id) for s, ds in enumerate(self.datasets)]

    def oracles(self) -> list[ScalingCurve]:
        """Each strategy's adaptive curve, then the dynamic and the combined
        curve; the cells they miss are evaluated in one call."""
        grid, everyone = self.grid, range(len(self.datasets))
        hard = [(s, 1, self._hard[s]) for s in everyone if 1 not in grid]
        self._fill([(s, n, True) for s in everyone for n in grid] + hard)
        adaptive = [
            self._curve([s], grid, True, f"{ds.strategy_id}+adaptive") for s, ds in enumerate(self.datasets)
        ]
        return adaptive + [
            self._curve(everyone, grid, False, "dynamic"),
            self._curve(everyone, grid, True, "combined"),
        ]

    def _best(self, candidates, budget) -> SelectionResult | None:
        """The (strategy, n) candidate of highest predicted accuracy, the
        earliest on ties, or None: the candidates' cells are evaluated in one
        call, and each strategy's n's are scored by one curve."""
        grids: dict[int, list[int]] = {}
        for s, n in candidates:
            grids.setdefault(s, []).append(n)
        self._fill([(s, n, True) for s, n in candidates])
        curves = {s: self._curve([s], ns, False, "") for s, ns in grids.items()}
        scored = [(curves[s].value_at(n), self.datasets[s].strategy_id, n) for s, n in candidates]
        if not scored:
            return None
        value, strategy_id, n = max(scored, key=lambda score: score[0])
        return SelectionResult(budget, strategy_id, n, value)

    def best_for_n(self, n: int) -> SelectionResult:
        """Best strategy at the grid point ``n``; ties keep the earliest."""
        if n not in self.grid:
            raise ValueError(f"n={n!r} is not on the run's grid")
        return self._best([(s, n) for s in range(len(self.datasets))], ("samples", float(n)))

    def best_under_cost(self, budget: float, model: CostModel) -> SelectionResult:
        """Best (strategy, n) on the grid that fits the budget (see
        :func:`best_under_cost`); only feasible points are evaluated."""
        if not budget >= 0:
            raise ValueError("budget must be >= 0")
        costs = [dataset_sample_cost(ds, model) for ds in self.datasets]
        # a NaN cost (zero tokens at an infinite price) fits no budget
        candidates = [(s, n) for s, cost in enumerate(costs) for n in self.grid if n * cost <= budget]
        best = self._best(candidates, ("cost", float(budget)))
        if best is None:
            raise NoFeasibleChoice(f"no strategy fits a dataset-total budget of {budget!r}")
        return best


def accuracy_curve(
    ds: StrategyDataset,
    ns,
    method: str = "exact",
    *,
    trials: int = 10_000,
    seed: int = 0,
    fallback: bool = False,
) -> ScalingCurve:
    """Dataset accuracy versus sampling time: per-question estimator, averaged.

    Cap overflows in the exact estimator propagate unless ``fallback``
    substitutes the normal approximation for the offending questions; a
    point is then tagged with the least exact estimator among its cells.
    """
    return Run([ds], ns, method, trials=trials, seed=seed, fallback=fallback).curves()[0]


def adaptive_curve(
    ds: StrategyDataset,
    ns,
    method: str = "exact",
    *,
    trials: int = 10_000,
    seed: int = 0,
    fallback: bool = False,
) -> ScalingCurve:
    """Oracle curve that refuses to scale on hard questions.

    Questions classified hard are evaluated at n=1 at every grid point
    (one sample, no vote); the rest scale normally. This needs the true
    difficulty label, hence "oracle". Not pointwise above the vanilla
    curve at small n; its advantage is in the tail, where hard questions
    would otherwise decay toward zero.
    """
    run = Run([ds], ns, method, trials=trials, seed=seed, fallback=fallback)
    return run._curve([0], run.grid, True, f"{ds.strategy_id}+adaptive")


def dynamic_curve(
    dss: list[StrategyDataset],
    ns,
    method: str = "exact",
    *,
    trials: int = 10_000,
    seed: int = 0,
    fallback: bool = False,
) -> ScalingCurve:
    """Oracle curve that picks the best strategy per question.

    All datasets must cover the same question ids. Per question and grid
    point, the largest per-strategy estimate wins; the mean over questions
    therefore dominates every single strategy's curve pointwise.
    """
    run = Run(dss, ns, method, trials=trials, seed=seed, fallback=fallback)
    return run._curve(range(len(run.datasets)), run.grid, False, "dynamic")


def combined_curve(
    dss: list[StrategyDataset],
    ns,
    method: str = "exact",
    *,
    trials: int = 10_000,
    seed: int = 0,
    fallback: bool = False,
) -> ScalingCurve:
    """Adaptive and dynamic at once: per strategy, use n=1 where that
    strategy finds the question hard; then take the per-question max."""
    run = Run(dss, ns, method, trials=trials, seed=seed, fallback=fallback)
    return run._curve(range(len(run.datasets)), run.grid, True, "combined")


def extreme_performance(ds: StrategyDataset) -> ExtremePerformance:
    """Difficulty fractions and the accuracy this strategy scales toward."""
    if not ds.questions:
        raise ValueError("dataset has no questions")
    kinds = {Difficulty.EASY: 0, Difficulty.MODERATE: 0, Difficulty.HARD: 0}
    limits = []
    for q in ds.questions:
        label = classify(q.dist)
        kinds[label.kind] += 1
        limits.append(label.limit)
    total = len(ds.questions)
    return ExtremePerformance(
        easy_frac=kinds[Difficulty.EASY] / total,
        moderate_frac=kinds[Difficulty.MODERATE] / total,
        hard_frac=kinds[Difficulty.HARD] / total,
        limit_accuracy=math.fsum(limits) / total,
    )


def adaptive_limit(ds: StrategyDataset) -> float:
    """Large-n limit of the adaptive oracle: hard questions keep their
    single-sample success probability instead of decaying to zero."""
    if not ds.questions:
        raise ValueError("dataset has no questions")
    terms = []
    for q in ds.questions:
        label = classify(q.dist)
        terms.append(q.dist.correct_prob if label.kind is Difficulty.HARD else label.limit)
    return math.fsum(terms) / len(ds.questions)


def dominance_count(ds_a: StrategyDataset, ds_b: StrategyDataset) -> int:
    """Number of shared questions where ``crossover_condition(a, b)`` holds:
    ``ds_a``'s correct-vs-strongest-wrong gap is strictly larger and its
    variance proxy strictly smaller, so that, should it be behind, it is
    guaranteed to overtake ``ds_b`` as the sampling time grows. Whether it
    is behind at n=1 is not checked.

    Counts over the id intersection; disjoint datasets are an error.
    Identical datasets score 0 (the condition is strict).
    """
    a_by_id = ds_a.by_id()
    b_by_id = ds_b.by_id()
    shared = [q for q in ds_a.question_ids if q in b_by_id]
    if not shared:
        raise IdMismatch(
            f"strategies {ds_a.strategy_id!r} and {ds_b.strategy_id!r} share no questions"
        )
    return sum(
        1 for q in shared if crossover_condition(a_by_id[q].dist, b_by_id[q].dist)
    )


def best_for_n(
    dss: list[StrategyDataset],
    n: int,
    method: str = "exact",
    *,
    trials: int = 10_000,
    seed: int = 0,
    fallback: bool = False,
) -> SelectionResult:
    """Best strategy at a fixed sampling time; ties keep the earliest input."""
    return Run(dss, [n], method, trials=trials, seed=seed, fallback=fallback).best_for_n(n)


def dataset_sample_cost(ds: StrategyDataset, model: CostModel) -> float:
    """Dataset-total cost of one sample per question under the model."""
    return math.fsum(
        model.sample_cost(q.mean_prompt_tokens, q.mean_completion_tokens)
        for q in ds.questions
    )


def best_under_cost(
    dss: list[StrategyDataset],
    budget: float,
    model: CostModel,
    ns,
    method: str = "exact",
    *,
    trials: int = 10_000,
    seed: int = 0,
    fallback: bool = False,
) -> SelectionResult:
    """Best (strategy, n) whose dataset-total cost fits the budget.

    Maximizes predicted accuracy over all feasible grid points of all
    strategies, and evaluates the cells of those points only. Ties keep the
    earliest strategy in the input and the smallest n (which is also the
    cheapest). Note this maximizes accuracy, not n: on declining
    (hard-dominated) datasets a small n can win even under a generous
    budget. Raises :class:`NoFeasibleChoice` when no strategy affords even
    its smallest grid point, and ``ValueError`` for a negative or NaN
    budget.
    """
    run = Run(dss, ns, method, trials=trials, seed=seed, fallback=fallback)
    return run.best_under_cost(budget, model)


def load_scenario(lines: Iterable[str]) -> list[StrategyDataset]:
    """Parse an analytic scenario file into strategy datasets.

    Line-delimited JSON objects {strategy_id, question_id, probs,
    correct_index, mean_prompt_tokens, mean_completion_tokens}, read and
    checked by :mod:`votescale.records`' line reader; token means are finite
    numbers >= 0. Strategies and questions keep first-appearance order; a
    repeated (strategy, question) pair raises :class:`DuplicateKey` with the
    repeating line's number.
    """
    by_strategy: dict[str, list[QuestionEntry]] = {}
    seen: set[tuple[str, str]] = set()
    for line_number, obj in _json_lines(lines, _SCENARIO_FIELDS):
        strategy_id = _text(line_number, obj, "strategy_id")
        question_id = _text(line_number, obj, "question_id")
        probs = obj["probs"]
        if not isinstance(probs, list):
            raise MalformedLine(line_number, "probs must be a list")
        if not all(type(p) in (int, float) for p in probs):  # bools are not numbers
            raise MalformedLine(line_number, "probs must be numbers")
        if type(obj["correct_index"]) is not int:
            raise MalformedLine(line_number, "correct_index must be an integer")
        prompt = _number(line_number, obj, "mean_prompt_tokens")
        completion = _number(line_number, obj, "mean_completion_tokens")
        try:
            dist = AnswerDistribution(tuple(probs), obj["correct_index"])
        except (InvalidDistribution, OverflowError) as exc:
            raise MalformedLine(line_number, str(exc)) from None
        if (strategy_id, question_id) in seen:
            raise DuplicateKey(
                f"scenario repeats (strategy_id, question_id) = "
                f"({strategy_id!r}, {question_id!r})",
                line_number,
            )
        seen.add((strategy_id, question_id))
        by_strategy.setdefault(strategy_id, []).append(
            QuestionEntry(question_id, dist, prompt, completion)
        )
    return [
        StrategyDataset(strategy_id, tuple(questions))
        for strategy_id, questions in by_strategy.items()
    ]


def datasets_from_samples(
    groups: dict[tuple[str, str], QuestionSamples], *, smoothing: float = 0.0
) -> list[StrategyDataset]:
    """Turn parsed log groups into strategy datasets via ML estimation.

    Strategy and question order follow first appearance in the log.
    """
    by_strategy: dict[str, list[QuestionEntry]] = {}
    for (question_id, strategy_id), samples in groups.items():
        by_strategy.setdefault(strategy_id, []).append(
            QuestionEntry(
                question_id,
                estimate_distribution(samples, smoothing=smoothing),
                samples.mean_prompt_tokens,
                samples.mean_completion_tokens,
            )
        )
    return [
        StrategyDataset(strategy_id, tuple(questions))
        for strategy_id, questions in by_strategy.items()
    ]
