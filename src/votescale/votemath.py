"""Success probability of majority voting over repeated stochastic samples.

The model: one query produces an answer drawn from a fixed
:class:`~votescale.distribution.AnswerDistribution`. Majority voting draws
``n`` independent answers, so the occurrence counts of the answers follow a
multinomial distribution. The vote returns an answer whose count attains the
maximum, chosen uniformly at random when several answers tie. The quantity
of interest is the probability that the returned answer is the correct one.

Four estimators are provided:

* :func:`exact_majority_prob` gives the exact value: every count outcome
  where the correct count ties the maximum with ``t`` other answers
  contributes its multinomial probability divided by ``t + 1`` (the uniform
  tie-break). Levin's Poisson representation of the multinomial turns that
  sum into, per correct count ``k``, one coefficient of a product of
  truncated Poisson polynomials, so time and memory are polynomial in ``n``
  and the number of answers.
* :func:`closed_form_majority_prob` evaluates the degree-3/degree-5
  polynomials available for three-answer spaces at ``n`` in {3, 5}.
* :func:`monte_carlo_majority_prob` simulates complete votes with a seeded
  generator and reports the success fraction with its standard error.
* :func:`normal_approx_prob` compares the correct count against the
  strongest wrong answer through a normal approximation, giving an O(1)
  predictor whose error vanishes as ``n`` grows.

The exact kernel's plan (correct-count range, roots of unity, extraction
and quadrature weights) depends only on ``(n, m)`` and is kept in a bounded
cache, so sweeping many distributions over a grid of ``n`` reuses it.
Nothing is cached per distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distribution import AnswerDistribution, VoteProbability
from .errors import CapExceeded, WrongArity

#: Default caps for the exact path: nonzero answers, ``n``, and the count of
#: answer-count compositions C(n+m-1, m-1) (kept as a public cap, though
#: nothing enumerates the compositions).
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


@dataclass(frozen=True)
class _KernelPlan:
    """Distribution-free arrays of the exact kernel for one ``(n, m)``.

    A wrong answer's factor for correct count ``k`` is evaluated at the
    roots of unity ``x = w^f`` from prefix sums of ``q(c) w^(f c)`` over
    ``c``. Counts ``k <= n/2`` are *tied*: a wrong answer can also reach
    ``k`` within degree ``n - k``, so their factor depends on ``y``. Larger
    counts are *untied* and their factor is one prefix sum.
    """

    powers: np.ndarray  # (3, n + 1) rows c, -1, -log c!: log-pmf = (log lam, lam, 1) @ powers
    roots: np.ndarray  # (F, n//2 + 1) w^(f c) for f = 0..L/2
    nodes: np.ndarray  # (G, 1, 1, 1) Gauss-Legendre nodes y on [0, 1]
    tied: np.ndarray  # (G, F, n//2 - k0 + 1) node weight times the x^(n-k) weight at w^f
    untied: np.ndarray  # (F, n - n//2) the x^(n-k) weight at w^f
    k0: int  # smallest correct count that can be modal: ceil(n / m)
    prefactor: float  # n! / (n^n e^-n)


@lru_cache(maxsize=128)
def _kernel_plan(n: int, m: int) -> _KernelPlan:
    """Build (and cache) the kernel plan for ``n >= 2`` samples and ``m >= 2``
    nonzero answers. The plan does not depend on the distribution."""
    k0, half = -(-n // m), n // 2  # below ceil(n/m) the correct answer is never modal
    # L exceeds every coefficient index n - k, and the product's degree
    # (m - 1) * min(k, n - k) stays below n - k + L: x^(n-k) never aliases
    size = 2
    while size <= n - k0 or 2 * size <= (m - 2) * n:
        size *= 2
    freq = np.arange(size // 2 + 1)
    turn = 2j * np.pi / size
    # real coefficients: the Hermitian half-spectrum counts every inner
    # frequency twice
    scale = np.full(freq.size, 2.0 / size)
    scale[0] = scale[-1] = 1.0 / size
    extract = scale[:, None] * np.exp(-turn * (np.outer(freq, n - np.arange(k0, n + 1)) % size))
    nodes, weights = np.polynomial.legendre.leggauss(-(-m // 2))
    log_fact = np.array([math.lgamma(c + 1) for c in range(n + 1)])
    return _KernelPlan(
        powers=np.stack([np.arange(n + 1.0), -np.ones(n + 1), -log_fact]),
        roots=np.exp(turn * (np.outer(freq, np.arange(half + 1)) % size)),
        nodes=((nodes + 1.0) / 2.0).reshape(-1, 1, 1, 1).astype(complex),
        tied=(weights / 2.0)[:, None, None] * extract[:, : half + 1 - k0],
        untied=extract[:, half + 1 - k0 :].copy(),
        k0=k0,
        prefactor=math.exp(log_fact[n] - n * math.log(n) + n),
    )


def exact_majority_prob(
    dist: AnswerDistribution,
    n: int,
    *,
    max_answers: int = EXACT_MAX_ANSWERS,
    max_n: int = EXACT_MAX_N,
    max_terms: int = EXACT_MAX_TERMS,
) -> VoteProbability:
    """Exact probability that an ``n``-sample majority vote is correct.

    Zero-probability answers cannot occur and are dropped first; the caps
    apply to the number of remaining answers, to ``n``, and to the count of
    answer-count compositions C(n+m-1, m-1). Raises :class:`CapExceeded`
    beyond them, signalling the caller to switch estimator.

    The value comes from Levin's Poisson representation of the multinomial:
    with ``q_j(c)`` the Poisson(n p_j) pmf and the correct answer first,

        P = n! / (n^n e^-n) * sum_k q_1(k) [x^(n-k)] int_0^1 prod_j
            (sum_{c<k} q_j(c) x^c + y q_j(k) x^k) dy,

    where ``y`` marks a wrong answer tied at ``k`` and the integral of
    ``y^t`` is the tie-break share 1/(t+1). The coefficient is read off the
    product's values at roots of unity, and the integral is exact at
    ceil(m/2) Gauss-Legendre nodes, so time and memory are polynomial in
    ``n`` and ``m``. The value is accurate to about 1e-14 in absolute terms;
    values far below that carry no relative accuracy.
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
    if n == 1:
        # one sample is the vote
        return VoteProbability(p_correct, "exact", n)

    plan = _kernel_plan(n, m_eff)
    rates = np.array([(math.log(n * p), n * p, 1.0) for p in support])
    pmf = np.exp(rates @ plan.powers)  # Poisson(n p_j) over c = 0..n, correct answer first
    waves = pmf[1:, None, : plan.roots.shape[1]] * plan.roots  # q_j(c) w^(f c), wrong answers
    prefix = np.cumsum(waves, axis=2)
    half, k0 = n // 2, plan.k0
    # k > n/2: the factor is the sum over c <= n - k, the same at every y
    untied = prefix[:, :, n - half - 1 :: -1].prod(axis=0)
    total = (plan.untied * pmf[0, half + 1 :]).ravel() @ untied.ravel()
    if k0 <= half:
        # k <= n/2: the sum over c < k plus y times the tie at k
        tied = prefix[:, :, k0 - 1 : half] + plan.nodes * waves[:, :, k0 : half + 1]
        total += (plan.tied * pmf[0, k0 : half + 1]).ravel() @ tied.prod(axis=1).ravel()
    value = plan.prefactor * float(total.real)
    return VoteProbability(min(max(value, 0.0), 1.0), "exact", n)


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
