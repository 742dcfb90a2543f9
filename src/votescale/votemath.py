"""Success probability of majority voting over repeated stochastic samples.

The model: one query produces an answer drawn from a fixed
:class:`~votescale.distribution.AnswerDistribution`. Majority voting draws
``n`` independent answers, so the occurrence counts of the answers follow a
multinomial distribution. The vote returns an answer whose count attains the
maximum, chosen uniformly at random when several answers tie. The quantity
of interest is the probability that the returned answer is the correct one.

Four estimators are provided:

* :func:`exact_majority_prob` sums the multinomial pmf over every
  composition of ``n`` into the nonzero-probability answers. An outcome
  where the correct count ties the maximum with ``t`` other answers
  contributes its probability divided by ``t + 1`` (the uniform tie-break).
* :func:`closed_form_majority_prob` evaluates the degree-3/degree-5
  polynomials available for three-answer spaces at ``n`` in {3, 5}.
* :func:`monte_carlo_majority_prob` simulates complete votes with a seeded
  generator and reports the success fraction with its standard error.
* :func:`normal_approx_prob` compares the correct count against the
  strongest wrong answer through a normal approximation, giving an O(1)
  predictor whose error vanishes as ``n`` grows.

Enumeration tables (compositions, multinomial coefficients via
log-factorials, tie weights) depend only on ``(n, m)`` and are cached, so
sweeping many distributions over a grid of ``n`` reuses the expensive part.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distribution import AnswerDistribution, VoteProbability
from .errors import CapExceeded, WrongArity

#: Default caps for the exact enumeration path.
EXACT_MAX_ANSWERS = 8
EXACT_MAX_N = 60
EXACT_MAX_TERMS = 10**7

#: Rows processed per block in vectorized loops (fixed: part of the
#: deterministic random stream for Monte Carlo).
_BLOCK = 1 << 19

_METHOD_ALIASES = {
    "exact": "exact",
    "approx": "normal_approx",
    "normal_approx": "normal_approx",
    "mc": "monte_carlo",
    "monte_carlo": "monte_carlo",
    "closed_form": "closed_form",
}


def canonical_method(name: str) -> str:
    """Map a method alias ('approx', 'mc', ...) to its canonical tag."""
    try:
        return _METHOD_ALIASES[name]
    except KeyError:
        raise ValueError(f"unknown method {name!r}") from None


def standard_normal_cdf(x: float) -> float:
    """Phi(x) via the complementary error function (accurate in both tails)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class ScalingCurve:
    """Success probability (or accuracy) as a function of the sampling time.

    ``points`` hold one :class:`VoteProbability` per grid value of ``n``, in
    strictly increasing order of ``n``. ``method`` records the estimator the
    curve was requested with; individual points may differ when a fallback
    was taken (their own ``method`` tags tell). ``curve_id`` names the
    strategy or oracle the curve belongs to; empty for ad-hoc curves.
    """

    points: tuple[VoteProbability, ...]
    method: str
    curve_id: str = ""

    def __post_init__(self):
        ns = [p.n for p in self.points]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("curve grid must be strictly increasing")

    @property
    def ns(self) -> tuple[int, ...]:
        return tuple(p.n for p in self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(p.value for p in self.points)

    def value_at(self, n: int) -> float:
        for p in self.points:
            if p.n == n:
                return p.value
        raise KeyError(f"no point at n={n}")


@lru_cache(maxsize=64)
def _enumeration_tables(n: int, m: int):
    """Cached per-(n, m) tables for the exact sum, correct answer in column 0.

    Returns ``(counts, log_coef, win_weight)`` over all C(n+m-1, m-1)
    compositions of ``n`` into ``m`` nonnegative parts:

    * ``counts``     float64 (R, m), the occurrence vectors;
    * ``log_coef``   float64 (R,), log multinomial coefficients from a
      precomputed log-factorial table;
    * ``win_weight`` float64 (R,), 1/(size of the modal set) when column 0
      attains the row maximum, else 0 -- the uniform tie-break share.
    """
    rows = math.comb(n + m - 1, m - 1)
    if m == 1:
        counts = np.array([[n]], dtype=np.int64)
    else:
        bars = np.fromiter(
            itertools.chain.from_iterable(
                itertools.combinations(range(n + m - 1), m - 1)
            ),
            dtype=np.int64,
            count=rows * (m - 1),
        ).reshape(rows, m - 1)
        counts = np.empty((rows, m), dtype=np.int64)
        counts[:, 0] = bars[:, 0]
        if m > 2:
            counts[:, 1:-1] = bars[:, 1:] - bars[:, :-1] - 1
        counts[:, -1] = (n + m - 2) - bars[:, -1]

    log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    log_coef = log_fact[n] - log_fact[counts].sum(axis=1)
    row_max = counts.max(axis=1)
    ties = (counts == row_max[:, None]).sum(axis=1)
    win_weight = np.where(counts[:, 0] == row_max, 1.0 / ties, 0.0)
    return counts.astype(np.float64), log_coef, win_weight


def exact_majority_prob(
    dist: AnswerDistribution,
    n: int,
    *,
    max_answers: int = EXACT_MAX_ANSWERS,
    max_n: int = EXACT_MAX_N,
    max_terms: int = EXACT_MAX_TERMS,
) -> VoteProbability:
    """Exact probability that an ``n``-sample majority vote is correct.

    Zero-probability answers cannot occur and are dropped before
    enumeration; the caps apply to the number of remaining answers, to
    ``n``, and to the total composition count. Raises :class:`CapExceeded`
    beyond them, signalling the caller to switch estimator.
    """
    if n < 1:
        raise ValueError("sampling time n must be >= 1")
    p_correct = dist.correct_prob
    if p_correct == 0.0:
        # the correct answer is never sampled, so it can never reach the modal set
        return VoteProbability(0.0, "exact", n)
    support = [p_correct] + [
        p for j, p in enumerate(dist.probs) if j != dist.correct_index and p > 0.0
    ]
    m_eff = len(support)
    if m_eff == 1:
        return VoteProbability(1.0, "exact", n)
    if m_eff > max_answers:
        raise CapExceeded(f"{m_eff} nonzero answers exceed the cap of {max_answers}")
    if n > max_n:
        raise CapExceeded(f"n={n} exceeds the exact cap of {max_n}")
    terms = math.comb(n + m_eff - 1, m_eff - 1)
    if terms > max_terms:
        raise CapExceeded(f"{terms} compositions exceed the cap of {max_terms}")

    counts, log_coef, win_weight = _enumeration_tables(n, m_eff)
    log_p = np.log(np.asarray(support))
    total = 0.0
    for start in range(0, counts.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        total += float(
            win_weight[block] @ np.exp(log_coef[block] + counts[block] @ log_p)
        )
    return VoteProbability(min(max(total, 0.0), 1.0), "exact", n)


def closed_form_majority_prob(dist: AnswerDistribution, n: int) -> VoteProbability:
    """Closed-form vote probability for three-answer spaces at n = 3 or 5.

    With p1 the correct-answer probability (the distribution is reordered
    internally so it leads) and p2, p3 the wrong answers:

    * n = 3:  3*p1^2 - 2*p1^3 + 2*p1*p2*p3
    * n = 5:  6*p1^5 - 15*p1^4 + 10*p1^3 + 15*p1^2*p2*p3*(p2 + p3)

    Agrees with :func:`exact_majority_prob` to tighter than 1e-12.
    """
    if dist.m != 3:
        raise WrongArity(f"closed form needs exactly 3 answers, got {dist.m}")
    if n not in (3, 5):
        raise WrongArity(f"closed form defined for n in {{3, 5}}, got {n}")
    p1, p2, p3 = dist.correct_first()
    if n == 3:
        value = 3 * p1**2 - 2 * p1**3 + 2 * p1 * p2 * p3
    else:
        value = 6 * p1**5 - 15 * p1**4 + 10 * p1**3 + 15 * p1**2 * p2 * p3 * (p2 + p3)
    return VoteProbability(min(max(value, 0.0), 1.0), "closed_form", n)


def simulate_vote(
    dist: AnswerDistribution, n: int, rng: np.random.Generator
) -> int:
    """One majority vote: the winning index of a one-trial
    :func:`simulate_votes` run. Consumes ``rng`` deterministically."""
    return int(simulate_votes(dist, n, 1, rng)[0])


def simulate_votes(
    dist: AnswerDistribution, n: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized batch of independent majority votes; winning index per trial.

    The occurrence vectors are multinomial draws and ties are broken
    uniformly (via random scores restricted to the modal set).
    """
    if n < 1:
        raise ValueError("sampling time n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    winners = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, _BLOCK):
        size = min(_BLOCK, trials - start)
        counts = rng.multinomial(n, dist.probs, size=size)
        winners[start : start + size] = _modal_winners(counts, rng)
    return winners


def _modal_winners(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per row of occurrence counts, a uniformly random index among the
    row's maxima: random scores restricted to the modal set, then argmax."""
    modal = counts == counts.max(axis=1)[:, None]
    scores = np.where(modal, rng.random(counts.shape), -1.0)
    return scores.argmax(axis=1)


def monte_carlo_majority_prob(
    dist: AnswerDistribution, n: int, trials: int, seed
) -> VoteProbability:
    """Monte Carlo estimate of the vote success probability.

    Runs ``trials`` independent simulated votes; the value is the success
    fraction and ``stderr`` is sqrt(v*(1-v)/trials). Deterministic for a
    fixed seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    winners = simulate_votes(dist, n, trials, rng)
    value = float((winners == dist.correct_index).mean())
    stderr = math.sqrt(value * (1.0 - value) / trials)
    return VoteProbability(value, "monte_carlo", n, stderr=stderr)


def normal_approx_prob(dist: AnswerDistribution, n: int) -> VoteProbability:
    """O(1) normal-approximation predictor of the vote success probability.

    With p1 the correct-answer probability and p_max the largest wrong-answer
    probability, the correct count minus the strongest wrong count is
    approximately normal with mean n*(p1 - p_max) and variance
    n*(p1*(1-p1) + p_max*(1-p_max)), so

        value = 1 - Phi( -(p1 - p_max) / sqrt((p1*(1-p1) + p_max*(1-p_max)) / n) ).

    When the variance term is zero (both p1 and p_max in {0, 1}) the formula
    degenerates: 1 if p1 > p_max, 0 if p1 < p_max, 0.5 on equality. Note the
    0.5 is the formula's own answer for every tied-maximum distribution; the
    true large-n limit for a tie among |S| answers is 1/|S| (see
    :func:`votescale.difficulty.limit_prob`).
    """
    if n < 1:
        raise ValueError("sampling time n must be >= 1")
    if dist.m == 1:
        return VoteProbability(1.0, "normal_approx", n)
    p1 = dist.correct_prob
    p_max = dist.max_wrong_prob
    spread = p1 * (1.0 - p1) + p_max * (1.0 - p_max)
    if spread == 0.0:
        value = 1.0 if p1 > p_max else (0.0 if p1 < p_max else 0.5)
    else:
        value = 1.0 - standard_normal_cdf(-(p1 - p_max) / math.sqrt(spread / n))
    return VoteProbability(min(max(value, 0.0), 1.0), "normal_approx", n)


def vote_probability(
    dist: AnswerDistribution,
    n: int,
    method: str = "exact",
    *,
    trials: int = 100_000,
    seed=0,
    fallback: bool = False,
) -> VoteProbability:
    """Dispatch to one estimator by method name (aliases accepted).

    With ``method='exact'`` and ``fallback=True``, sizes beyond the exact
    caps are answered by :func:`normal_approx_prob` instead of raising.
    """
    method = canonical_method(method)
    if method == "exact":
        try:
            return exact_majority_prob(dist, n)
        except CapExceeded:
            if fallback:
                return normal_approx_prob(dist, n)
            raise
    if method == "normal_approx":
        return normal_approx_prob(dist, n)
    if method == "monte_carlo":
        return monte_carlo_majority_prob(dist, n, trials, seed)
    if method == "closed_form":
        return closed_form_majority_prob(dist, n)
    raise AssertionError(method)


def check_grid(ns) -> tuple[int, ...]:
    """Validate a grid of sampling times: nonempty, strictly increasing, >= 1."""
    grid = tuple(int(n) for n in ns)
    if not grid:
        raise ValueError("grid of sampling times must be nonempty")
    if grid[0] < 1:
        raise ValueError("sampling times must be >= 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    return grid


def scaling_curve(
    dist: AnswerDistribution,
    ns,
    method: str = "exact",
    *,
    trials: int = 100_000,
    seed=0,
    fallback: bool = False,
) -> ScalingCurve:
    """Evaluate one estimator over a grid of sampling times.

    Monte Carlo points get independent sub-seeds derived from ``seed`` and
    the point's position, so the curve is deterministic and points do not
    share randomness.
    """
    grid = check_grid(ns)
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(grid))
    points = tuple(
        vote_probability(
            dist, n, method, trials=trials, seed=children[i], fallback=fallback
        )
        for i, n in enumerate(grid)
    )
    return ScalingCurve(points=points, method=canonical_method(method))
