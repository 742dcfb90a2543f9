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

Every curve, selection and oracle is a reduction over (strategy, question,
effective n) cells kept in a cell table, a dict the caller owns: one table
passed as ``cells=`` to every reduction of a run evaluates each cell once,
and a call without one keeps nothing. The table holds columns only, one
array per (dataset, n, estimator settings) with a (value, estimator,
standard error) row per question, so a reduction stacks columns, takes each
question's best strategy with ``argmax`` and averages with ``math.fsum``.
A reduction evaluates its missing exact cells in one
:func:`votescale.votemath.exact_majority_probs` call, which evaluates each
distinct kernel input once, and its missing Monte Carlo cells in one
:func:`votescale.votemath.monte_carlo_majority_probs` call.
Monte Carlo cells derive their sub-seed from (strategy, question position,
effective n), so a cell has one value however it is reached and the
documented dominance relations between curves survive sampling noise. A
dataset point is tagged with the least exact estimator among its cells.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .distribution import METHODS, AnswerDistribution, VoteProbability
from .difficulty import Difficulty, classify, crossover_condition, limit_prob
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
        # reductions read the ids and cell tables look datasets up by hash
        # many times per run; equality is unchanged
        object.__setattr__(self, "_question_ids", ids)
        object.__setattr__(self, "_hash", hash((self.strategy_id, self.questions)))

    def __hash__(self) -> int:
        return self._hash

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


def _row(vp: VoteProbability) -> tuple[float, int, float]:
    return (vp.value, METHODS.index(vp.method), vp.stderr or 0.0)


def _columns(cells: dict, requests: list[tuple], settings: tuple) -> list[np.ndarray]:
    """The column of each ``(dataset, n, rows)`` request, after evaluating
    the missing cells of the questions the boolean mask ``rows`` marks.

    A column is keyed ``(dataset, n, settings)`` in the cell table ``cells``
    and holds one (value, estimator index in ``METHODS``, standard error) row
    per question of the dataset, NaN until evaluated. The missing cells of
    all requests are gathered into one list: exact cells go to one
    :func:`exact_majority_probs` call, Monte Carlo cells to one batch, each
    with its own sub-seed, and the others to ``vote_probability`` in order.
    """
    method, trials, seed, fallback = settings
    columns, missing = [], []
    for ds, n, rows in requests:
        column = cells.get((ds, n, settings))
        if column is None:
            column = cells[ds, n, settings] = np.full((len(ds.questions), 3), np.nan)
        columns.append(column)
        missing += [(column, qi, ds, n) for qi in np.flatnonzero(np.isnan(column[:, 0]) & rows).tolist()]
    if not missing:
        return columns
    batch = [(ds.questions[qi].dist, n) for _, qi, ds, n in missing]
    if method == "exact":
        values = exact_majority_probs(batch, fallback=fallback)
    elif method == "monte_carlo":
        drawn = [
            (dist, n, np.random.SeedSequence([seed, zlib.crc32(ds.strategy_id.encode("utf-8")), qi, n]))
            for (dist, n), (_, qi, ds, _) in zip(batch, missing)
        ]
        values = monte_carlo_majority_probs(drawn, trials)
    else:
        values = [vote_probability(dist, n, method, fallback=fallback) for dist, n in batch]
    for (column, qi, _, _), vp in zip(missing, values):
        column[qi] = _row(vp)
    return columns


def _shared_order(dss: list[StrategyDataset]) -> list[str]:
    if not dss:
        raise ValueError("need at least one strategy dataset")
    first = dss[0].question_ids
    reference = set(first)
    for ds in dss[1:]:
        ids = set(ds.question_ids)
        if ids != reference:
            # dss[0]'s questions in reading order, then ds's
            question_id = next(q for q in first + ds.question_ids if (q in ids) != (q in reference))
            lacking = ds if question_id in reference else dss[0]
            raise IdMismatch(
                f"strategy {ds.strategy_id!r} covers different questions than "
                f"{dss[0].strategy_id!r}: {lacking.strategy_id!r} lacks question {question_id!r}"
            )
    return list(first)


def _reduce(
    dss: list[StrategyDataset],
    ns,
    method: str,
    trials: int,
    seed: int,
    fallback: bool,
    cells: dict | None,
    *,
    adaptive: bool,
    curve_id: str,
) -> ScalingCurve:
    """The one reduction behind every dataset curve.

    Per grid point and question (in the first dataset's order), takes the
    best strategy's cell, at n=1 where ``adaptive`` is set and that
    strategy finds the question hard, and averages over questions. Ties
    keep the earliest strategy in the input. The cells missing from the
    table are evaluated first (:func:`_columns`): each strategy's grid
    columns without its hard questions, then each one's hard n=1 cells.
    """
    grid = check_grid(ns)
    method = canonical_method(method)
    settings = (method, trials, seed, fallback)
    order = _shared_order(dss)
    if not order:
        raise ValueError("dataset has no questions")
    hard = np.array(
        [[adaptive and classify(q.dist).kind is Difficulty.HARD for q in ds.questions] for ds in dss]
    )
    requests = [(ds, n, ~rows) for ds, rows in zip(dss, hard) for n in grid]
    requests += [(ds, 1, rows) for ds, rows in zip(dss, hard)]
    columns = np.stack(_columns({} if cells is None else cells, requests, settings))
    # (strategy, n, question, 3); hard questions read their n=1 cell at every n
    table = columns[: -len(dss)].reshape(len(dss), len(grid), len(order), 3)
    table = np.where(hard[:, None, :, None], columns[-len(dss) :, None], table)
    for s, ds in enumerate(dss):
        if list(ds.question_ids) != order:
            position = {question_id: qi for qi, question_id in enumerate(ds.question_ids)}
            table[s] = table[s][:, [position[question_id] for question_id in order]]
    # the first maximum wins ties
    best = table[..., 0].argmax(axis=0)
    winners = np.take_along_axis(table, best[None, :, :, None], axis=0)[0]
    points = []
    for n, (values, codes, stderrs) in zip(grid, winners.transpose(0, 2, 1)):
        tag = METHODS[int(codes.max())]  # the least exact cell's estimator
        mean = math.fsum(values.tolist()) / len(order)
        stderr = None
        if tag == "monte_carlo":
            stderr = math.sqrt(math.fsum(e**2 for e in stderrs.tolist())) / len(order)
        points.append(VoteProbability(mean, tag, n, stderr=stderr))
    return ScalingCurve(tuple(points), method, curve_id=curve_id)


def accuracy_curve(
    ds: StrategyDataset,
    ns,
    method: str = "exact",
    *,
    trials: int = 10_000,
    seed: int = 0,
    fallback: bool = False,
    cells: dict | None = None,
) -> ScalingCurve:
    """Dataset accuracy versus sampling time: per-question estimator, averaged.

    Cap overflows in the exact estimator propagate unless ``fallback``
    substitutes the normal approximation for the offending questions; a
    point is then tagged with the least exact estimator among its cells.
    ``cells`` is the run's cell table (a dict, filled in place), which holds
    columns only: one of per-question values for each (dataset, n,
    estimator settings). Pass the same one to every reduction of a run so
    that each cell is evaluated once. Without it the call uses a fresh
    table.
    """
    return _reduce(
        [ds], ns, method, trials, seed, fallback, cells, adaptive=False, curve_id=ds.strategy_id
    )


def adaptive_curve(
    ds: StrategyDataset,
    ns,
    method: str = "exact",
    *,
    trials: int = 10_000,
    seed: int = 0,
    fallback: bool = False,
    cells: dict | None = None,
) -> ScalingCurve:
    """Oracle curve that refuses to scale on hard questions.

    Questions classified hard are evaluated at n=1 at every grid point
    (one sample, no vote); the rest scale normally. This needs the true
    difficulty label, hence "oracle". Not pointwise above the vanilla
    curve at small n; its advantage is in the tail, where hard questions
    would otherwise decay toward zero. ``cells`` as in
    :func:`accuracy_curve`.
    """
    curve_id = f"{ds.strategy_id}+adaptive"
    return _reduce(
        [ds], ns, method, trials, seed, fallback, cells, adaptive=True, curve_id=curve_id
    )


def dynamic_curve(
    dss: list[StrategyDataset],
    ns,
    method: str = "exact",
    *,
    trials: int = 10_000,
    seed: int = 0,
    fallback: bool = False,
    cells: dict | None = None,
) -> ScalingCurve:
    """Oracle curve that picks the best strategy per question.

    All datasets must cover the same question ids. Per question and grid
    point, the largest per-strategy estimate wins; the mean over questions
    therefore dominates every single strategy's curve pointwise. ``cells``
    as in :func:`accuracy_curve`.
    """
    return _reduce(
        dss, ns, method, trials, seed, fallback, cells, adaptive=False, curve_id="dynamic"
    )


def combined_curve(
    dss: list[StrategyDataset],
    ns,
    method: str = "exact",
    *,
    trials: int = 10_000,
    seed: int = 0,
    fallback: bool = False,
    cells: dict | None = None,
) -> ScalingCurve:
    """Adaptive and dynamic at once: per strategy, use n=1 where that
    strategy finds the question hard; then take the per-question max.
    ``cells`` as in :func:`accuracy_curve`."""
    return _reduce(
        dss, ns, method, trials, seed, fallback, cells, adaptive=True, curve_id="combined"
    )


def extreme_performance(ds: StrategyDataset) -> ExtremePerformance:
    """Difficulty fractions and the accuracy this strategy scales toward."""
    if not ds.questions:
        raise ValueError("dataset has no questions")
    kinds = {Difficulty.EASY: 0, Difficulty.MODERATE: 0, Difficulty.HARD: 0}
    limits = []
    for q in ds.questions:
        kinds[classify(q.dist).kind] += 1
        limits.append(limit_prob(q.dist))
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
        if classify(q.dist).kind is Difficulty.HARD:
            terms.append(q.dist.correct_prob)
        else:
            terms.append(limit_prob(q.dist))
    return math.fsum(terms) / len(ds.questions)


def dominance_count(ds_a: StrategyDataset, ds_b: StrategyDataset) -> int:
    """Number of shared questions where ``ds_a`` is behind at n=1 but
    guaranteed to overtake ``ds_b`` as the sampling time grows.

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


def _best(candidates, budget, method, trials, seed, fallback, cells) -> SelectionResult | None:
    """The argmax behind both selections: the (dataset, n) candidate of highest
    predicted accuracy, the earliest on ties; None without candidates. Each
    dataset's candidates are scored by one accuracy curve over their n's."""
    grids: dict[StrategyDataset, set[int]] = {}
    for ds, n in candidates:
        grids.setdefault(ds, set()).add(n)
    kwargs = dict(trials=trials, seed=seed, fallback=fallback, cells=cells)
    curves = {ds: accuracy_curve(ds, sorted(ns), method, **kwargs) for ds, ns in grids.items()}
    scored = [(curves[ds].value_at(n), ds.strategy_id, n) for ds, n in candidates]
    if not scored:
        return None
    value, strategy_id, n = max(scored, key=lambda score: score[0])
    return SelectionResult(budget, strategy_id, n, value)


def best_for_n(
    dss: list[StrategyDataset],
    n: int,
    method: str = "exact",
    *,
    trials: int = 10_000,
    seed: int = 0,
    fallback: bool = False,
    cells: dict | None = None,
) -> SelectionResult:
    """Best strategy at a fixed sampling time; ties keep the earliest input.
    ``cells`` as in :func:`accuracy_curve`."""
    if not dss:
        raise ValueError("need at least one strategy dataset")
    candidates = [(ds, n) for ds in dss]
    return _best(candidates, ("samples", float(n)), method, trials, seed, fallback, cells)


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
    cells: dict | None = None,
) -> SelectionResult:
    """Best (strategy, n) whose dataset-total cost fits the budget.

    Maximizes predicted accuracy over all feasible grid points of all
    strategies. Ties keep the earliest strategy in the input and the
    smallest n (which is also the cheapest). Note this maximizes accuracy,
    not n: on declining (hard-dominated) datasets a small n can win even
    under a generous budget. Raises :class:`NoFeasibleChoice` when no
    strategy affords even its smallest grid point, and ``ValueError`` for a
    negative or NaN budget. ``cells`` as in :func:`accuracy_curve`.
    """
    grid = check_grid(ns)
    if not dss:
        raise ValueError("need at least one strategy dataset")
    if not budget >= 0:
        raise ValueError("budget must be >= 0")
    costs = [dataset_sample_cost(ds, model) for ds in dss]
    # a NaN cost (zero tokens at an infinite price) fits no budget
    candidates = [(ds, n) for ds, cost in zip(dss, costs) for n in grid if n * cost <= budget]
    best = _best(candidates, ("cost", float(budget)), method, trials, seed, fallback, cells)
    if best is None:
        raise NoFeasibleChoice(f"no strategy fits a dataset-total budget of {budget!r}")
    return best


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
