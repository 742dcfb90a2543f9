"""Question difficulty taxonomy and what it implies for vote scaling.

A question's fate under majority voting is decided by where the correct
answer sits relative to the modal set S of its answer distribution (the
answers attaining the maximum probability):

* easy      -- the correct answer is the unique maximum; accuracy rises to 1
               as the sampling time grows.
* moderate  -- the correct answer ties the maximum with others; accuracy
               converges to 1/|S| (the tie-break share).
* hard      -- some wrong answer is strictly more likely; accuracy decays
               to 0, so extra samples actively hurt.

Also here: the sufficient condition for a strategy that starts behind at
n = 1 to overtake another at larger n (smaller correct-vs-strongest-wrong
gap, larger variance proxy), a grid search for the first overtake point,
and the KL divergence of the wrong-answer mass from uniform, which measures
how concentrated a strategy's errors are.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .distribution import AnswerDistribution
from .errors import NoWrongMass
from .votemath import _margin_and_spread, check_grid, vote_probability

#: Absolute tolerance when testing membership in the modal set.
TIE_TOLERANCE = 1e-12


class Difficulty(Enum):
    EASY = "easy"
    MODERATE = "moderate"
    HARD = "hard"


@dataclass(frozen=True)
class DifficultyLabel:
    """Classification of a question plus the size of its modal set."""

    kind: Difficulty
    tie_count: int

    def __post_init__(self):
        if self.tie_count < 1:
            raise ValueError("modal set cannot be empty")
        if self.kind is Difficulty.EASY and self.tie_count != 1:
            raise ValueError("an easy question has a unique maximum")
        if self.kind is Difficulty.MODERATE and self.tie_count < 2:
            raise ValueError("a moderate question ties at least two answers")

    @property
    def limit(self) -> float:
        """Large-n limit of the vote success probability: 1, 1/|S|, or 0."""
        return 0.0 if self.kind is Difficulty.HARD else 1.0 / self.tie_count


def classify(
    dist: AnswerDistribution, *, tolerance: float = TIE_TOLERANCE
) -> DifficultyLabel:
    """Label a question easy, moderate, or hard from its answer distribution.

    Probabilities within ``tolerance`` of the maximum count as tied, so
    distributions written with decimal literals (0.2, 0.2, ...) classify the
    way they read.
    """
    p_max = max(dist.probs)
    modal = [j for j, p in enumerate(dist.probs) if p >= p_max - tolerance]
    if dist.correct_index not in modal:
        return DifficultyLabel(Difficulty.HARD, len(modal))
    if len(modal) == 1:
        return DifficultyLabel(Difficulty.EASY, 1)
    return DifficultyLabel(Difficulty.MODERATE, len(modal))


def limit_prob(dist: AnswerDistribution) -> float:
    """Large-n limit of the vote success probability (:attr:`DifficultyLabel.limit`)."""
    return classify(dist).limit


def crossover_condition(
    behind: AnswerDistribution, ahead: AnswerDistribution
) -> bool:
    """Sufficient condition for ``behind`` to overtake ``ahead`` at larger n.

    With gap = p1 - pq (correct minus strongest wrong probability) and
    v = p1 + pq - p1^2 - pq^2, the overtake is guaranteed for some finite
    sampling time when ``ahead`` has strictly smaller gap and strictly
    larger v. The two are the normal approximation's per-sample mean and
    variance (:func:`votescale.votemath.normal_approx_prob`), v written as
    p1*(1-p1) + pq*(1-pq). The condition is sufficient, not necessary: a
    False here does not rule an overtake out.
    """
    gap_b, v_b = _margin_and_spread(behind)
    gap_a, v_a = _margin_and_spread(ahead)
    return gap_a < gap_b and v_a > v_b


@dataclass(frozen=True)
class CrossoverVerdict:
    """Outcome of checking one ordered strategy pair over a grid of n."""

    condition_holds: bool
    crossover_n: int | None
    grid: tuple[int, ...]

    def __post_init__(self):
        if self.crossover_n is not None and self.crossover_n not in self.grid:
            raise ValueError("crossover point must come from the searched grid")


def find_crossover_n(
    behind: AnswerDistribution,
    ahead: AnswerDistribution,
    grid,
    *,
    fallback: bool = True,
) -> CrossoverVerdict:
    """First grid point where ``behind`` strictly beats ``ahead``, if any.

    Probabilities come from the exact estimator, falling back to the normal
    approximation above the exact caps unless ``fallback`` is disabled.
    ``crossover_n`` is None when no searched point shows an overtake.
    """
    grid = check_grid(grid)
    crossover_n = None
    for n in grid:
        value_b = vote_probability(behind, n, fallback=fallback).value
        value_a = vote_probability(ahead, n, fallback=fallback).value
        if value_b > value_a:
            crossover_n = n
            break
    return CrossoverVerdict(
        condition_holds=crossover_condition(behind, ahead),
        crossover_n=crossover_n,
        grid=grid,
    )


def kl_to_uniform(dist: AnswerDistribution) -> float:
    """KL divergence (nats) of the wrong-answer mass from uniform.

    Restricts to wrong answers with nonzero probability, renormalizes them
    to a conditional distribution q, and returns sum q_j * ln(q_j * K) where
    K is the number of such answers. Zero exactly when the wrong mass is
    spread evenly; large when errors concentrate on few answers. Raises
    :class:`NoWrongMass` when every wrong answer has probability zero, since
    the conditional distribution does not exist; callers typically skip such
    questions.
    """
    wrong = [
        p
        for j, p in enumerate(dist.probs)
        if j != dist.correct_index and p > 0.0
    ]
    if not wrong:
        raise NoWrongMass("all wrong answers have probability zero")
    total = math.fsum(wrong)
    k = len(wrong)
    return max(
        0.0, math.fsum((p / total) * math.log((p / total) * k) for p in wrong)
    )
