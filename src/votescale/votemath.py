"""Success probability of majority voting over repeated stochastic samples.

The model: one query produces an answer drawn from a fixed
:class:`~votescale.distribution.AnswerDistribution`. Majority voting draws
``n`` independent answers, so the occurrence counts of the answers follow a
multinomial distribution. The vote returns an answer whose count attains the
maximum, chosen uniformly at random when several answers tie. The quantity
of interest is the probability that the returned answer is the correct one.

Three estimators are provided:

* :func:`exact_majority_prob` gives the exact value: every count outcome
  where the correct count ties the maximum with ``t`` other answers
  contributes its multinomial probability divided by ``t + 1`` (the uniform
  tie-break). Levin's Poisson representation of the multinomial turns that
  sum into, per correct count ``k``, one coefficient of a product of
  truncated Poisson polynomials, so time and memory are polynomial in ``n``
  and the number of answers. One Levin sum, behind one batched driver,
  takes Poisson rows for these plug-in cells and binomial rows for a
  recorded pool's ``n``-subsets (:func:`votescale.records.replay_majority`,
  the exact mean over them).
* :func:`monte_carlo_majority_prob` simulates complete votes with a seeded
  generator and reports the success fraction with its standard error. A
  cell costs about what its draws cost: the multinomial counts and the
  tie-break scores. Votes are simulated and wins counted one block of
  ``_BLOCK`` (2^19) trials at a time, so memory is bounded by one block
  per drawing thread whatever ``trials`` is.
  :func:`monte_carlo_majority_probs` is the batch entry point: it draws
  many ``(distribution, n, seed)`` cells on worker threads, one per CPU the
  process may use, each taking the next undrawn cell; numpy's multinomial
  draw releases the GIL. Each cell draws from its own seed, so values do
  not depend on the number of CPUs.
* :func:`normal_approx_prob` compares the correct count against the
  strongest wrong answer through a normal approximation, giving an O(1)
  predictor whose error vanishes as ``n`` grows.

:func:`vote_probabilities` is the one place where a method name picks one
of them, for a batch of ``(dist, n, seed)`` cells. :func:`vote_probability`
is its batch of one, and :class:`votescale.selection.Run` its one other
caller: the curves of one distribution
(:func:`votescale.selection.scaling_curve`) and every dataset reduction are
runs, so a Monte Carlo point's seed does not depend on its grid.
:func:`closed_form_majority_prob` is a check on the exact value, not a
method: it evaluates the degree-3/degree-5 polynomials available for
three-answer spaces at ``n`` in {3, 5}.

The exact kernel's plan (correct-count range, roots of unity, extraction
weights and tie-break shares) depends only on ``(n, m)`` and is kept in a
bounded cache, so sweeping many distributions over a grid of ``n`` reuses
it. Its DFT length is the smallest that keeps every coefficient it reads
free of aliasing. The tie-break share is integrated exactly, as
sum_t ties_t / (t+1) over the product's parts ties_t with ``t`` wrong
answers tied, so no exact run imports ``numpy.polynomial``.
Nothing is cached per distribution or between calls. The kernel takes a
leading batch axis, and plug-in and pool cells share one settle step
(``_exact_case``), which checks a cell's special cases and caps and builds
its key from a distribution's probabilities or a pool's counts, and one
batched driver (``_exact_batch``). It evaluates each distinct key once per
call, in chunks of equal nonzero answers and ``n`` whose largest array
holds at most ``_BATCH_ENTRIES`` (2^12) complex entries. A plug-in cell's
key is its nonzero probabilities, correct first:
:func:`exact_majority_probs` is the batch entry point for many
``(distribution, n)`` cells, and :func:`exact_majority_prob` its batch of
one. A pool cell's key is its correct count, then its nonzero wrong
counts in support order:
:func:`votescale.records.mean_replay_accuracy` replays all its pools in one
call, so each distinct pool key is evaluated once.

numpy is imported inside the functions that build arrays (the two row
builders, the Levin sum, the kernel plan and the Monte Carlo draws), not
when the module is: importing the package, a command that fails before it
evaluates a cell, and every normal-approximation run skip numpy's import
(55 to 75 ms in a fresh interpreter on a 2-CPU VM).
"""
from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .distribution import AnswerDistribution, VoteProbability, check_sampling_time
from .errors import CapExceeded, NotEnoughSamples, WrongArity

__all__ = [
    "standard_normal_cdf", "ScalingCurve", "exact_majority_prob", "exact_majority_probs",
    "closed_form_majority_prob", "monte_carlo_majority_prob", "monte_carlo_majority_probs",
    "normal_approx_prob", "vote_probabilities", "vote_probability",
]

#: Exact-path caps on nonzero answers and (by default) ``n``; they bound the kernel's memory.
EXACT_MAX_ANSWERS = 8
EXACT_MAX_N = 60

#: Largest array, in complex entries (64 KiB), that one batch of the exact
#: kernel builds: a batch holds as many cells of one (answers, n) as fit,
#: and at least one. Fixed at this size so that one batch's temporaries
#: together stay under glibc's heap trim threshold: freeing them does not
#: shrink the heap, so later batches reuse its pages instead of faulting
#: them in again: over the 5,400 plug-in cells of one log-exact
#: ``analyze``, the exact batch faulted about 14,200 pages at 2^13 and 520
#: at 2^12 (the whole run 18,000 and 5,700). Larger batches were no faster
#: and raised peak memory; at 2^11 the batch faulted 110 fewer pages but
#: ran slower.
_BATCH_ENTRIES = 1 << 12

#: Rows processed per block in vectorized loops (fixed: part of the
#: deterministic random stream for Monte Carlo).
_BLOCK = 1 << 19

#: numpy's multinomial refuses probabilities whose Kahan sum before the last
#: exceeds 1 + 1e-12, while :class:`AnswerDistribution` admits sums within
#: 1e-9 of 1. Four ulps lower, ``math.fsum``'s sum clears the few ulps by
#: which the two sums can differ.
_MULTINOMIAL_MAX_SUM = 1.0 + 1e-12 - 4 * 2.0**-52

#: Fewest trials, summed over a Monte Carlo batch's cells, for which the
#: batch is split over worker threads. Starting and joining a thread took
#: about 80 us on a 2-CPU VM, but a worker thread's temporaries come from
#: its own glibc malloc arena: a split batch of 24 cells of 1,000 to 2,700
#: trials peaked 0.1 to 0.4 MB higher. Below 2^16 trials (10 to 40 ms of
#: draws there) a split saves at most a few ms.
_THREAD_TRIALS = 1 << 16

#: Largest count numpy draws (the int64 maximum): bounds Monte Carlo n and
#: synthetic sample counts.
_MAX_DRAW = (1 << 63) - 1

_METHOD_ALIASES = {
    "exact": "exact",
    "approx": "normal_approx",
    "normal_approx": "normal_approx",
    "mc": "monte_carlo",
    "monte_carlo": "monte_carlo",
}


def canonical_method(name: str) -> str:
    """Map a method name or alias ('approx', 'mc') to its canonical tag:
    'exact', 'normal_approx' or 'monte_carlo'. Any other name, 'closed_form'
    included, is a ValueError."""
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
    ``k`` within degree ``n - k``, so the product is a polynomial in the
    number ``t`` of wrong answers tied at ``k``, whose tie-break share
    1/(t+1) is folded into ``tied``. Larger counts are *untied* and their
    factor is one prefix sum.
    """

    powers: np.ndarray  # (3, n + 1) rows c, -1, -log c!: log-pmf = (log lam, lam, 1) @ powers
    roots: np.ndarray  # (F, n//2 + 1) w^(f c) for f = 0..L//2, w = exp(2 pi i / L)
    tied: np.ndarray  # (m, F, n//2 - k0 + 1) share 1/(t+1) times the x^(n-k) weight at w^f
    untied: np.ndarray  # (F, n - n//2) the x^(n-k) weight at w^f
    k0: int  # smallest correct count that can be modal: ceil(n / m)
    prefactor: float  # n! / (n^n e^-n)
    row_entries: int  # complex entries per distribution in the kernel's largest array


@lru_cache(maxsize=128)
def _kernel_plan(n: int, m: int) -> _KernelPlan:
    """Build (and cache) the kernel plan for ``n >= 2`` samples and ``m >= 2``
    nonzero answers. The plan does not depend on the distribution."""
    import numpy as np

    k0, half = -(-n // m), n // 2  # below ceil(n/m) the correct answer is never modal
    # L exceeds every coefficient index n - k, and the product's degree,
    # (m - 1) k tied or (m - 1)(n - k) untied, stays below n - k + L:
    # x^(n-k) never aliases
    size = max(n - k0, m * half - n, (m - 2) * (n - half - 1)) + 1
    freq = np.arange(size // 2 + 1)
    turn = 2j * np.pi / size
    # real coefficients: the Hermitian half-spectrum counts every frequency
    # twice but the self-conjugate ones, f = 0 and (at even L) f = L/2
    scale = np.where(2 * freq % size, 2.0, 1.0) / size
    extract = scale[:, None] * np.exp(-turn * (np.outer(freq, n - np.arange(k0, n + 1)) % size))
    shares = 1.0 / np.arange(1.0, m + 1)  # the tie-break share of t = 0..m-1 tied wrong answers
    log_fact = np.array([math.lgamma(c + 1) for c in range(n + 1)])
    # the wrong answers' prefix sums, or the tied product per tie count
    row_entries = freq.size * max((m - 1) * (half + 1), m * (half + 1 - k0))
    return _KernelPlan(
        powers=np.stack([np.arange(n + 1.0), -np.ones(n + 1), -log_fact]),
        roots=np.exp(turn * (np.outer(freq, np.arange(half + 1)) % size)),
        tied=shares[:, None, None] * extract[:, : half + 1 - k0],
        untied=extract[:, half + 1 - k0 :].copy(),
        k0=k0,
        prefactor=math.exp(log_fact[n] - n * math.log(n) + n),
        row_entries=row_entries,
    )


def exact_majority_prob(
    dist: AnswerDistribution, n: int, *, max_n: int = EXACT_MAX_N
) -> VoteProbability:
    """Exact probability that an ``n``-sample majority vote is correct.

    Zero-probability answers cannot occur and are dropped first; the caps
    apply to the number of remaining answers (``EXACT_MAX_ANSWERS``) and to
    ``n`` (``max_n``). Raises :class:`CapExceeded` beyond them, signalling
    the caller to switch estimator.

    The value comes from Levin's Poisson representation of the multinomial:
    with ``q_j(c)`` the Poisson(n p_j) pmf and the correct answer first,

        P = n! / (n^n e^-n) * sum_k q_1(k) [x^(n-k)] int_0^1 prod_j
            (sum_{c<k} q_j(c) x^c + y q_j(k) x^k) dy,

    where ``y`` marks a wrong answer tied at ``k`` and the integral of
    ``y^t`` is the tie-break share 1/(t+1). The coefficient is read off the
    product's values at roots of unity, and the product is kept as a
    polynomial in ``y`` of degree ``m - 1``, so the integral is exactly
    sum_t ties_t / (t+1) and time and memory are polynomial in ``n`` and
    ``m``. The value is accurate to about 1e-14 in absolute terms;
    values far below that carry no relative accuracy.

    This is the batch of one of :func:`exact_majority_probs`.
    """
    return exact_majority_probs([(dist, n)], max_n=max_n)[0]


def exact_majority_probs(
    cells: Iterable[tuple[AnswerDistribution, int]],
    *,
    max_n: int = EXACT_MAX_N,
    fallback: bool = False,
) -> list[VoteProbability]:
    """:func:`exact_majority_prob` of each ``(dist, n)`` cell, in order.

    Special cases and caps are settled per cell, in order, so the first cell
    beyond a cap raises :class:`CapExceeded`; with ``fallback`` such a cell
    gets :func:`normal_approx_prob` instead. The kernel reads only the
    key (see :func:`_exact_case`) and ``n``, so :func:`_exact_batch`
    evaluates each distinct ``(key, n)`` among the other cells once, for
    every cell that has it, and a value does not depend on its batch.
    """
    return _exact_batch(_plug_in_cases(cells, max_n, fallback), _exact_kernel)


def _plug_in_cases(cells: Iterable[tuple[AnswerDistribution, int]], max_n: int, fallback: bool) -> Iterable:
    """Each ``(dist, n)`` cell, in order, settled as a :class:`VoteProbability`
    or as its kernel input ``(key, n)`` (see :func:`_exact_case`)."""
    for dist, n in cells:
        n = check_sampling_time(n)
        try:
            case = _exact_case(dist.probs, dist.correct_index, n, max_n)
        except CapExceeded:
            if not fallback:
                raise
            yield normal_approx_prob(dist, n)
            continue
        yield VoteProbability(case, "exact", n) if isinstance(case, float) else (case, n)


def _exact_batch(cases: Iterable, kernel) -> list[VoteProbability]:
    """Each case's exact value, in order: a :class:`VoteProbability` is
    settled already, and a ``(key, n)`` pair is an input of ``kernel(keys,
    n)``, which returns one unclipped value per key of one length ``m >=
    2``. Each distinct key at each ``n`` is evaluated once, for every case
    that has it, grouped by (``m``, ``n``) in chunks whose largest array
    holds at most ``_BATCH_ENTRIES`` complex entries (or one key). A row's
    arithmetic is the same in any chunk, so a value does not depend on its
    batch. ``cases`` is read once, in order, so a generated case is dropped
    once grouped and one that raises does so before any kernel work."""
    results: list[VoteProbability | None] = []
    # (key length, n) -> key -> positions of the cases that need it
    batches: dict[tuple[int, int], dict[tuple, list[int]]] = {}
    for case in cases:
        if not isinstance(case, VoteProbability):
            key, n = case
            batches.setdefault((len(key), n), {}).setdefault(key, []).append(len(results))
            case = None  # only the first copy of a key is kept
        results.append(case)
    for m, n in list(batches):
        waiting = batches.pop((m, n))  # released once its values are in place
        keys = list(waiting)
        step = max(1, _BATCH_ENTRIES // _kernel_plan(n, m).row_entries)
        for start in range(0, len(keys), step):
            chunk = keys[start : start + step]
            for key, value in zip(chunk, kernel(chunk, n).tolist()):
                vp = VoteProbability(min(max(value, 0.0), 1.0), "exact", n)
                for i in waiting[key]:
                    results[i] = vp
    return results


def _exact_case(weights: Sequence[float], correct_index: int, n: int, max_n: int, total=1.0) -> float | tuple:
    """The exact value of a cell that needs no kernel, else the key the
    kernel takes: the correct weight, then the nonzero wrong weights in
    support order. ``weights`` are a distribution's probabilities (with
    ``total`` 1.0, not their sum) or a pool's counts (with ``total`` the
    pool size), and at n = 1 the value is the correct weight over
    ``total``. Zero weights do not count against the caps."""
    top = weights[correct_index]
    if top == 0:
        # the correct answer is never sampled, so it can never reach the modal set
        return 0.0
    key = (top, *(w for j, w in enumerate(weights) if j != correct_index and w > 0))
    if len(key) == 1:
        return 1.0
    if len(key) > EXACT_MAX_ANSWERS:
        raise CapExceeded(f"{len(key)} nonzero answers exceed the cap of {EXACT_MAX_ANSWERS}")
    if n > max_n:
        raise CapExceeded(f"n={n} exceeds the exact cap of {max_n}")
    if n == 1:
        return top / total  # one sample is the vote
    return key


def _exact_kernel(supports: list[tuple[float, ...]], n: int) -> np.ndarray:
    """Levin's sum (see :func:`exact_majority_prob`) for a batch of supports
    of one size ``m >= 2``, correct answer first and every entry nonzero, at
    ``n >= 2``: one unclipped value per support, from Poisson rows."""
    import numpy as np

    plan = _kernel_plan(n, len(supports[0]))
    rates = np.array([[(math.log(n * p), n * p, 1.0) for p in support] for support in supports])
    pmf = np.exp(rates @ plan.powers)  # Poisson(n p_j) over c = 0..n, correct answer first
    return plan.prefactor * _levin_sum(pmf, n, plan)


def _levin_sum(pmf: np.ndarray, n: int, plan: _KernelPlan) -> np.ndarray:
    """Levin's sum (see :func:`exact_majority_prob`) without its prefactor,
    over per-answer weight rows ``q_j(c)`` of shape (batch, m, n + 1), correct
    answer first, with ``plan = _kernel_plan(n, m)``. No operation mixes rows
    (axis 0), so a row's value does not depend on the batch."""
    import numpy as np

    waves = pmf[:, 1:, None, : plan.roots.shape[1]] * plan.roots  # q_j(c) w^(f c), wrong answers
    prefix = waves.cumsum(axis=3)
    half, k0 = n // 2, plan.k0
    # k > n/2: no wrong answer can tie, and its factor is the sum over c <= n - k
    untied = prefix[:, :, :, n - half - 1 :: -1].prod(axis=1)
    total = _row_dots(plan.untied * pmf[:, 0, None, half + 1 :], untied)
    if k0 <= half:
        # k <= n/2: a wrong answer stays below k (the sum over c < k) or
        # ties at k; ties[:, t] is the product's part with t of them tied
        below, at = prefix[:, :, :, k0 - 1 : half], waves[:, :, :, k0 : half + 1]
        ties = np.zeros((len(pmf), *plan.tied.shape), complex)
        ties[:, 0], ties[:, 1] = below[:, 0], at[:, 0]
        for j in range(1, below.shape[1]):  # in place: one temporary, three passes
            j_ties = ties[:, : j + 1] * at[:, j, None]
            ties[:, : j + 2] *= below[:, j, None]
            ties[:, 1 : j + 2] += j_ties
        total += _row_dots(plan.tied * pmf[:, 0, None, None, k0 : half + 1], ties)
    return total.real


def _pool_majority_probs(cells: Iterable[tuple[list[int], int, int]]) -> list[VoteProbability]:
    """Per ``(counts, correct_index, n)`` cell, in order, the mean over
    every ``n``-subset of a pool holding ``counts[j]`` samples of answer
    ``j`` of the vote's success (uniform tie-break). Each cell is checked
    and settled in order, so the first bad one raises before any kernel
    work: ``n`` as :func:`check_sampling_time` checks it, a pool of fewer
    than ``n`` samples (:class:`NotEnoughSamples`), then the special cases
    and caps of :func:`_exact_case` for the pool's counts, and n equal to
    the pool size. Each other cell's key is the correct count, then the
    nonzero wrong counts in support order: :func:`_exact_batch` evaluates
    each distinct key at each ``n`` once, by :func:`_pool_kernel`."""
    cases: list = []
    for counts, correct_index, n in cells:
        n, pool = check_sampling_time(n), sum(counts)
        if pool < n:
            raise NotEnoughSamples(f"pool has {pool} samples, vote needs {n}")
        case = _exact_case(counts, correct_index, n, EXACT_MAX_N, pool)
        if isinstance(case, tuple) and n == pool:  # the one subset is the pool (and log(1 - n/K) is -inf)
            top = max(counts)
            case = 1.0 / counts.count(top) if counts[correct_index] == top else 0.0
        cases.append(VoteProbability(case, "exact", n) if isinstance(case, float) else (case, n))
    return _exact_batch(cases, _pool_kernel)


def _pool_kernel(keys: list[tuple[int, ...]], n: int) -> np.ndarray:
    """The mean vote over the ``n``-subsets of each pool in a batch of keys
    of one size ``m >= 2`` (counts, correct answer first and every count
    nonzero, that sum to a pool size ``K > n``), at ``n >= 2``: one
    unclipped value per key. A subset's counts are independent
    Binomial(K_j, n/K) counts conditioned on summing to ``n``: Levin's sum
    over binomial rows divided by the Binomial(K, n/K) pmf at ``n``."""
    import numpy as np

    pools = [sum(key) for key in keys]
    sizes = np.array([(*key, pool) for key, pool in zip(keys, pools)], dtype=float)[:, :, None]
    c = np.arange(n + 1.0)
    # log C(K_j, c) as cumulative sums of log((K_j - i) / (i + 1)), -inf past K_j
    ratios = (sizes - c[:-1]) / c[1:]
    steps = np.log(ratios, out=np.full(ratios.shape, -np.inf), where=ratios > 0)
    # log(n/K) and log(1 - n/K) by math: numpy's vectorised log may differ in the last bit
    logs = np.array([(math.log(n / pool), math.log1p(-n / pool)) for pool in pools])[:, :, None, None]
    log_pmf = np.cumsum(np.concatenate([np.zeros_like(sizes), steps], axis=2), axis=2) + c * logs[:, 0]
    pmf = np.exp(log_pmf + (sizes - c) * logs[:, 1])
    return _levin_sum(pmf[:, :-1], n, _kernel_plan(n, len(keys[0]))) / pmf[:, -1, n]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row (axis 0), the unconjugated dot product of ``a`` and ``b``
    flattened: one BLAS dot per row, as for a lone row."""
    rows = len(a)
    return (a.reshape(rows, 1, -1) @ b.reshape(rows, -1, 1)).reshape(rows)


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


def check_trials(trials) -> int:
    """``trials`` as an int if it is a Python or numpy integer >= 1, else ValueError."""
    try:
        value = operator.index(trials)
    except TypeError:
        raise ValueError(f"trials must be an integer, got {trials!r}") from None
    if value < 1:
        raise ValueError("trials must be >= 1")
    return value


def _modal_winners(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per row of occurrence counts, a uniformly random index among the
    row's maxima: random scores restricted to the modal set, then argmax."""
    import numpy as np

    # a row maximum reduces a few columns of many rows, which numpy does
    # several times faster over a column-major copy
    modal = counts == np.asfortranarray(counts).max(axis=1)[:, None]
    scores = np.where(modal, rng.random(counts.shape), -1.0)
    return scores.argmax(axis=1)


def monte_carlo_majority_prob(
    dist: AnswerDistribution, n: int, trials: int, seed
) -> VoteProbability:
    """Monte Carlo estimate of the vote success probability.

    Runs ``trials`` independent simulated votes; the value is the success
    fraction and ``stderr`` is sqrt(v*(1-v)/trials). Deterministic for a
    fixed seed. Wins are counted per block of ``_BLOCK`` trials, so memory
    does not grow with ``trials``.

    This is the batch of one of :func:`monte_carlo_majority_probs`.
    """
    return monte_carlo_majority_probs([(dist, n, seed)], trials)[0]


def monte_carlo_majority_probs(cells: Iterable[tuple], trials: int) -> list[VoteProbability]:
    """:func:`monte_carlo_majority_prob` of each ``(dist, n, seed)`` cell, in order.

    Every ``n`` and ``trials`` are checked before any cell is drawn. The
    cells are then drawn on one thread per CPU the process may use, the
    caller among them, each taking the next undrawn cell in turn; numpy's
    multinomial draw, most of a cell's cost, releases the GIL. A batch is
    drawn by the caller alone when it has one cell or holds fewer than
    ``_THREAD_TRIALS`` trials in all. When a cell raises, or the caller is
    interrupted, the other threads stop after the cell in hand; every
    thread is joined before the batch returns or raises, and it raises the
    failure of the earliest failed cell. Each cell draws from its own seed,
    so values do not depend on the number of CPUs.
    """
    cells = [(dist, check_sampling_time(n), seed) for dist, n, seed in cells]
    trials = check_trials(trials)
    for _, n, _ in cells:
        if n > _MAX_DRAW:
            raise ValueError(f"Monte Carlo needs n <= 2^63 - 1, got {n}")
    workers = min(_cpu_count(), len(cells)) if len(cells) * trials >= _THREAD_TRIALS else 1
    results = []
    for (_, n, _), wins in zip(cells, _threaded_hits(cells, trials, workers)):
        value = wins / trials
        stderr = math.sqrt(value * (1.0 - value) / trials)
        results.append(VoteProbability(value, "monte_carlo", n, stderr=stderr))
    return results


def _cpu_count() -> int:
    """CPUs this process may run on (the machine's, where the platform cannot tell)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cell_hits(dist: AnswerDistribution, n: int, seed, trials: int) -> int:
    """The votes out of ``trials`` that pick the correct answer, drawn from
    ``np.random.default_rng(seed)``. A distribution past
    :data:`_MULTINOMIAL_MAX_SUM` is drawn from its probabilities divided by
    their sum, every other one as it stands."""
    import numpy as np

    rng, wins, probs = np.random.default_rng(seed), 0, dist.probs
    if math.fsum(probs[:-1]) > _MULTINOMIAL_MAX_SUM:
        total = math.fsum(probs)
        probs = [p / total for p in probs]
    for start in range(0, trials, _BLOCK):
        # each block's multinomial counts are drawn before its tie-break scores
        winners = _modal_winners(rng.multinomial(n, probs, size=min(_BLOCK, trials - start)), rng)
        wins += np.count_nonzero(winners == dist.correct_index)
        del winners  # not alive while the next block is simulated
    return int(wins)


def _threaded_hits(cells: list[tuple], trials: int, workers: int) -> list[int]:
    """:func:`_cell_hits` of each cell, in order, drawn by the caller and
    ``workers - 1`` threads that take cells from one shared iterator. A
    failure is kept per cell and stops every thread before its next cell;
    the earliest failed cell's is raised once all are joined. A thread that
    cannot be started leaves its cells to the others."""
    hits: list[int] = [0] * len(cells)
    failures: dict[int, BaseException] = {}
    undrawn, claim, stop = iter(enumerate(cells)), threading.Lock(), threading.Event()

    def draw() -> None:
        while not stop.is_set():
            with claim:
                item = next(undrawn, None)
            if item is None:
                return
            i, (dist, n, seed) = item
            try:
                hits[i] = _cell_hits(dist, n, seed, trials)
            except BaseException as exc:  # an interrupt of the caller included
                failures[i] = exc
                stop.set()

    threads = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=draw)
            try:
                thread.start()
            except RuntimeError:  # no thread to be had
                break
            threads.append(thread)
        draw()
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return hits


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
    n = check_sampling_time(n)
    if dist.m == 1:
        return VoteProbability(1.0, "normal_approx", n)
    margin, spread = _margin_and_spread(dist)
    if spread == 0.0:
        value = 1.0 if margin > 0.0 else (0.0 if margin < 0.0 else 0.5)
    else:
        value = 1.0 - standard_normal_cdf(-margin / math.sqrt(spread / n))
    return VoteProbability(min(max(value, 0.0), 1.0), "normal_approx", n)


def _margin_and_spread(dist: AnswerDistribution) -> tuple[float, float]:
    """Per sample, the mean and the variance of the correct count minus the
    strongest wrong count in the normal approximation: (p1 - p_max,
    p1*(1-p1) + p_max*(1-p_max))."""
    p1, p_max = dist.correct_prob, dist.max_wrong_prob
    return p1 - p_max, p1 * (1.0 - p1) + p_max * (1.0 - p_max)


def vote_probabilities(
    cells: Iterable[tuple], method: str = "exact", *, trials: int = 100_000, fallback: bool = False
) -> list[VoteProbability]:
    """Each ``(dist, n, seed)`` cell's value under the estimator that
    ``method`` names (see :func:`canonical_method`), in order: one
    :func:`exact_majority_probs` call (``fallback`` as there), one
    :func:`monte_carlo_majority_probs` batch drawing each cell from its
    seed, or :func:`normal_approx_prob` per cell. Only Monte Carlo reads
    the seeds."""
    method = canonical_method(method)
    if method == "exact":
        return exact_majority_probs(((d, n) for d, n, _ in cells), fallback=fallback)
    if method == "monte_carlo":
        return monte_carlo_majority_probs(cells, trials)
    return [normal_approx_prob(d, n) for d, n, _ in cells]


def vote_probability(
    dist: AnswerDistribution,
    n: int,
    method: str = "exact",
    *,
    trials: int = 100_000,
    seed=0,
    fallback: bool = False,
) -> VoteProbability:
    """One cell's value by method name: the batch of one of :func:`vote_probabilities`."""
    return vote_probabilities([(dist, n, seed)], method, trials=trials, fallback=fallback)[0]


def check_grid(ns) -> tuple[int, ...]:
    """Validate a grid of sampling times: nonempty, strictly increasing ints >= 1."""
    grid = tuple(check_sampling_time(n, "sampling times") for n in ns)
    if not grid:
        raise ValueError("grid of sampling times must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    return grid
