"""Accuracy curves, strategy selection, overtakes and oracle upgrades.

A strategy here is a fixed way of querying the model (a prompt, a
temperature, a pipeline); for analysis purposes it is fully described by
one answer distribution per question plus mean token usage. This module
averages the per-question vote probabilities of :mod:`votescale.votemath`
over a dataset, picks the best strategy under a sampling-time or cost
budget, tabulates extreme performance and pairwise overtake counts, finds
the first grid point where one distribution overtakes another, and
computes three oracle curves that bound what smarter sampling could do:

* adaptive  -- stop at one sample on questions where voting hurts;
* dynamic   -- pick the best strategy per question;
* combined  -- both at once.

Every curve, selection and oracle is a reduction over the (strategy,
question, effective n) cells of a :class:`Run`, which holds strategy
datasets on one grid under one estimator setting. Every strategy of a run
covers the same questions, which is checked when the run is built, so
every reduction compares means over one question set. A reduction
evaluates the cells it reads that are still missing in one
:func:`votescale.votemath.vote_probabilities` call (for exact cells, one
kernel batch that evaluates each distinct kernel input once), takes each
question's best strategy with ``max`` and averages with ``math.fsum``.
The free functions (:func:`accuracy_curve`, :func:`dominance_count`,
...) each evaluate a one-off run, only the cells they read, and keep
nothing; :func:`scaling_curve` and :func:`find_crossover_n` are runs of
one-question strategies. Monte Carlo cells derive their sub-seed from
(seed, strategy, the question's position in its own dataset, effective
n), so a cell has one value however it is reached -- a point's value does
not depend on the rest of its grid -- and the documented dominance
relations between curves survive sampling noise. A dataset point is
tagged with the least exact estimator among its cells.

This module builds no array and imports no numpy: a run keeps each cell
as the :class:`VoteProbability` its estimator returned, and only the
estimators of :mod:`votescale.votemath` that build arrays import numpy. So
a normal-approximation run never loads it.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from operator import attrgetter, index
from typing import Iterable, NamedTuple

from .distribution import METHODS, AnswerDistribution, VoteProbability, check_sampling_time
from .difficulty import Difficulty, classify, crossover_condition
from .errors import (
    DuplicateKey,
    IdMismatch,
    InvalidDistribution,
    MalformedLine,
    NoFeasibleChoice,
)
from .records import CostModel, QuestionSamples, estimate_distribution
from .records import _json_lines, _number, _text, _unbroken
from .votemath import ScalingCurve, canonical_method, check_grid, vote_probabilities

__all__ = [
    "QuestionEntry", "StrategyDataset", "SelectionResult", "ExtremePerformance",
    "CrossoverVerdict", "Run", "accuracy_curve", "adaptive_curve", "dynamic_curve",
    "combined_curve", "extreme_performance", "adaptive_limit", "dominance_count", "scaling_curve",
    "find_crossover_n", "best_for_n", "dataset_sample_cost", "best_under_cost", "load_scenario",
    "datasets_from_samples",
]

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
_VALUE = attrgetter("value")


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
        if len(set(self.question_ids)) != len(self.questions):
            raise ValueError(f"duplicate question_ids in strategy {self.strategy_id!r}")

    @property
    def question_ids(self) -> tuple[str, ...]:
        return tuple(q.question_id for q in self.questions)


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


@dataclass(frozen=True)
class CrossoverVerdict:
    """Outcome of checking one ordered strategy pair over a grid of n."""

    condition_holds: bool
    crossover_n: int | None
    grid: tuple[int, ...]

    def __post_init__(self):
        if self.crossover_n is not None and self.crossover_n not in self.grid:
            raise ValueError("crossover point must come from the searched grid")


class Run:
    """Strategy datasets evaluated on one grid under one estimator setting.

    Every strategy of a run covers the same questions: this is checked when
    the run is built, and :class:`IdMismatch` names a question one strategy
    lacks. Grid, method and seed (an integer >= 0) are checked once, and
    each question is classified once (``labels``, per strategy in dataset
    order). Per strategy and n of the grid and n = 1, the run keeps one
    list of cells, each the
    :class:`VoteProbability` its estimator returned or None until
    evaluated, and per strategy a hard and an easy question mask; their
    question axis follows the first dataset.
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
        try:
            seed = index(seed)
        except TypeError:
            raise ValueError(f"seed must be an integer, got {seed!r}") from None
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.datasets = tuple(datasets)
        if not self.datasets:
            raise ValueError("need at least one strategy dataset")
        first = self.datasets[0]
        ids = [ds.question_ids for ds in self.datasets]
        order, reference = ids[0], set(ids[0])
        for ds, own in zip(self.datasets[1:], ids[1:]):
            if set(own) != reference:
                # the first dataset's questions in reading order, then ds's
                question_id = next(q for q in order + own if (q in own) != (q in reference))
                lacking = ds if question_id in reference else first
                raise IdMismatch(
                    f"strategy {ds.strategy_id!r} covers different questions than "
                    f"{first.strategy_id!r}: {lacking.strategy_id!r} lacks question {question_id!r}"
                )
        if not order:
            raise ValueError("dataset has no questions")
        self.trials, self.seed, self.fallback = trials, seed, fallback
        self._crc = [zlib.crc32(ds.strategy_id.encode("utf-8")) for ds in self.datasets]
        self.labels = [[classify(q.dist) for q in ds.questions] for ds in self.datasets]
        # per strategy, where each of the first dataset's questions sits in its own dataset
        where = [{question_id: qi for qi, question_id in enumerate(own)} for own in ids]
        self._own = [[positions[question_id] for question_id in order] for positions in where]
        hard = [[label.kind is Difficulty.HARD for label in labels] for labels in self.labels]
        self._hard = [[flags[qi] for qi in own] for flags, own in zip(hard, self._own)]
        self._easy = [[not flag for flag in flags] for flags in self._hard]
        self._cells = {(s, n): [None] * len(order) for s in range(len(ids)) for n in {1, *self.grid}}

    def _fill(self, requests) -> None:
        """Evaluate the missing cells of non-overlapping ``(strategy, n, rows)``
        requests (``rows`` a question mask, or True), in order, in one
        :func:`vote_probabilities` call; a cell's distribution and Monte Carlo
        sub-seed use its position in its own dataset."""
        todo = []
        for s, n, rows in requests:
            cells = self._cells[s, n]
            columns = [q for q, cell in enumerate(cells) if cell is None and (rows is True or rows[q])]
            if columns:
                todo.append((s, n, cells, columns))
        if not todo:
            return
        # generated, so that a large batch's cells are not held twice; a
        # Monte Carlo cell's generator is seeded with the entropy tuple
        requested = (
            (self.datasets[s].questions[qi].dist, n, (self.seed, self._crc[s], qi, n))
            for s, n, _, columns in todo
            for qi in [self._own[s][q] for q in columns]
        )
        values = iter(vote_probabilities(requested, self.method, trials=self.trials, fallback=self.fallback))
        for _, _, cells, columns in todo:
            for q, vp in zip(columns, values):
                cells[q] = vp

    def _curve(self, strategies, ns, adaptive: bool, curve_id: str) -> ScalingCurve:
        """The one reduction: per n of ``ns`` and question, the best of
        ``strategies``' cells (the earliest on ties) -- at n = 1 for a
        strategy's hard questions if ``adaptive`` -- averaged over questions
        with ``math.fsum``, and tagged with the least exact cell's estimator.
        Evaluates the cells it reads that are missing first."""
        requests = [(s, n, self._easy[s] if adaptive else True) for s in strategies for n in ns]
        self._fill(requests + [(s, 1, self._hard[s]) for s in strategies if adaptive])
        points = []
        for n in ns:
            columns = [self._cells[s, n] for s in strategies]
            if adaptive:  # a hard question's cell at n = 1
                columns = [
                    [one if hard else cell for cell, one, hard in zip(col, self._cells[s, 1], self._hard[s])]
                    for s, col in zip(strategies, columns)
                ]
            # one strategy's cells win as they stand; max keeps the first maximum
            winners = columns[0] if len(columns) == 1 else [max(cells, key=_VALUE) for cells in zip(*columns)]
            tag = max({vp.method for vp in winners}, key=METHODS.index)  # the least exact cell's estimator
            stderr = None
            if tag == "monte_carlo":
                stderr = math.sqrt(math.fsum(vp.stderr**2 for vp in winners)) / len(winners)
            mean = math.fsum(map(_VALUE, winners)) / len(winners)
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

    def extreme_performance(self) -> list[ExtremePerformance]:
        """Per strategy, the difficulty fractions of its labels and the
        accuracy it scales toward."""
        rows = []
        for labels in self.labels:
            kinds, total = [label.kind for label in labels], len(labels)
            fractions = [kinds.count(kind) / total for kind in Difficulty]  # easy, moderate, hard
            rows.append(ExtremePerformance(*fractions, math.fsum(label.limit for label in labels) / total))
        return rows

    def dominance(self) -> list[list[int]]:
        """Per ordered strategy pair (a, b), the questions where
        ``crossover_condition`` holds for a's distribution against b's,
        matched on the run's question axis; the diagonal reads 0 unevaluated."""
        dists = [[ds.questions[qi].dist for qi in own] for ds, own in zip(self.datasets, self._own)]
        return [
            [0 if a == b else sum(map(crossover_condition, behind, ahead)) for b, ahead in enumerate(dists)]
            for a, behind in enumerate(dists)
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
        if (n := check_sampling_time(n)) not in self.grid:
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
    return Run([ds], [1]).extreme_performance()[0]


def adaptive_limit(ds: StrategyDataset) -> float:
    """Large-n limit of the adaptive oracle: hard questions keep their
    single-sample success probability instead of decaying to zero."""
    labels = Run([ds], [1]).labels[0]
    terms = [
        q.dist.correct_prob if label.kind is Difficulty.HARD else label.limit
        for q, label in zip(ds.questions, labels)
    ]
    return math.fsum(terms) / len(terms)


def dominance_count(ds_a: StrategyDataset, ds_b: StrategyDataset) -> int:
    """Number of questions where ``crossover_condition(a, b)`` holds:
    ``ds_a``'s correct-vs-strongest-wrong gap is strictly larger and its
    variance proxy strictly smaller, so that, should it be behind, it is
    guaranteed to overtake ``ds_b`` as the sampling time grows. Whether it
    is behind at n=1 is not checked.

    The datasets must cover the same questions (:class:`IdMismatch`
    otherwise). Identical datasets score 0 (the condition is strict).
    """
    return Run([ds_a, ds_b], [1]).dominance()[0][1]


def _one_question(strategy_id: str, dist: AnswerDistribution) -> StrategyDataset:
    return StrategyDataset(strategy_id, (QuestionEntry("", dist),))


def scaling_curve(
    dist: AnswerDistribution,
    ns,
    method: str = "exact",
    *,
    trials: int = 100_000,
    seed: int = 0,
    fallback: bool = False,
) -> ScalingCurve:
    """One distribution's estimates over a grid of sampling times: the curve
    of a one-question run, so every point is evaluated in one call. A Monte
    Carlo point draws from the run's seed for its n, whatever the rest of
    the grid."""
    return Run([_one_question("", dist)], ns, method, trials=trials, seed=seed, fallback=fallback).curves()[0]


def find_crossover_n(
    behind: AnswerDistribution,
    ahead: AnswerDistribution,
    grid,
    *,
    fallback: bool = True,
) -> CrossoverVerdict:
    """First grid point where ``behind`` strictly beats ``ahead``, if any.

    Both curves come from one exact run, which falls back to the normal
    approximation above the exact caps unless ``fallback`` is disabled;
    then any grid point past a cap raises :class:`CapExceeded`.
    ``crossover_n`` is None when no searched point shows an overtake.
    """
    run = Run([_one_question("behind", behind), _one_question("ahead", ahead)], grid, fallback=fallback)
    curve_b, curve_a = run.curves()
    crossover_n = next((b.n for b, a in zip(curve_b.points, curve_a.points) if b.value > a.value), None)
    return CrossoverVerdict(crossover_condition(behind, ahead), crossover_n, run.grid)


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
    for line_number, obj in _json_lines(_unbroken(lines), _SCENARIO_FIELDS):
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
        except InvalidDistribution as exc:
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
