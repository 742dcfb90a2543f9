"""Answer distributions and vote-probability values.

An AnswerDistribution is a probability vector over a finite answer space
together with the index of the correct answer. It is the single input type
for every estimator in :mod:`votescale.votemath` and for the difficulty
taxonomy in :mod:`votescale.difficulty`.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .errors import InvalidDistribution

#: Absolute slack allowed on the sum-to-one invariant.
SUM_TOLERANCE = 1e-9

#: Per-vote-probability methods a VoteProbability may be tagged with, from
#: most to least exact (a dataset mean takes its least exact value's tag).
METHODS = ("exact", "closed_form", "normal_approx", "monte_carlo")


def check_sampling_time(n, name: str = "sampling time n") -> int:
    """``n`` as an int if it is a Python or numpy integer >= 1, else ValueError;
    ``name`` heads the message for values below 1."""
    try:
        value = operator.index(n)
    except TypeError:
        raise ValueError(f"sampling times must be integers, got {n!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return value


@dataclass(frozen=True)
class AnswerDistribution:
    """Probabilities over a finite answer space with a designated correct index.

    Invariants, enforced at construction:

    * every entry is finite and >= 0,
    * the entries sum to 1 within ``SUM_TOLERANCE``,
    * ``correct_index`` addresses a valid entry.
    """

    probs: tuple[float, ...]
    correct_index: int = 0

    def __post_init__(self):
        try:
            probs = tuple(float(p) for p in self.probs)
        except OverflowError:  # an int or Fraction past the largest double
            raise InvalidDistribution("a probability is too large for a double") from None
        object.__setattr__(self, "probs", probs)
        if len(probs) < 1:
            raise InvalidDistribution("need at least one answer")
        non_finite = [f"probs[{j}] = {p!r}" for j, p in enumerate(probs) if not math.isfinite(p)]
        if non_finite:
            raise InvalidDistribution(f"non-finite probability: {', '.join(non_finite)}")
        if any(p < 0.0 for p in probs):
            raise InvalidDistribution(f"negative probability in {probs}")
        try:
            total = math.fsum(probs)
        except OverflowError:
            raise InvalidDistribution("probabilities sum to more than the largest double, not 1") from None
        if not abs(total - 1.0) <= SUM_TOLERANCE:
            raise InvalidDistribution(f"probabilities sum to {total!r}, not 1")
        try:
            object.__setattr__(self, "correct_index", operator.index(self.correct_index))
        except TypeError:
            raise InvalidDistribution(f"correct_index {self.correct_index!r} is not an integer") from None
        if not 0 <= self.correct_index < len(probs):
            raise InvalidDistribution(
                f"correct_index {self.correct_index} out of range for {len(probs)} answers"
            )
        # crossover checks and the normal approximation read it many times per run
        wrong = [p for j, p in enumerate(probs) if j != self.correct_index]
        object.__setattr__(self, "_max_wrong_prob", max(wrong) if wrong else 0.0)

    @property
    def m(self) -> int:
        """Size of the answer space."""
        return len(self.probs)

    @property
    def correct_prob(self) -> float:
        """Probability that a single sample returns the correct answer."""
        return self.probs[self.correct_index]

    @property
    def max_wrong_prob(self) -> float:
        """Largest wrong-answer probability; 0.0 when there is no wrong answer."""
        return self._max_wrong_prob

    def correct_first(self) -> tuple[float, ...]:
        """The probabilities reordered so the correct answer comes first."""
        ci = self.correct_index
        return (self.probs[ci],) + tuple(
            p for j, p in enumerate(self.probs) if j != ci
        )


@dataclass(frozen=True)
class VoteProbability:
    """Probability that majority voting over ``n`` samples returns the correct
    answer, tagged with the method that produced it.

    ``stderr`` is present exactly when ``method`` is ``monte_carlo``.
    """

    value: float
    method: str
    n: int
    stderr: float | None = field(default=None)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"probability {self.value!r} outside [0, 1]")
        object.__setattr__(self, "n", check_sampling_time(self.n))
        if (self.stderr is not None) != (self.method == "monte_carlo"):
            raise ValueError("stderr is present iff method is monte_carlo")
