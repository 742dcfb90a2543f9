"""Shared test helpers: an independent brute-force oracle and panel generators.

The oracle enumerates raw answer sequences with itertools.product, so it
shares no code path with the Poisson-representation estimator under test
(no multinomial coefficients, no polynomial products, no quadrature).
"""
from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys

import numpy as np

import votescale
from votescale import AnswerDistribution
from votescale.votemath import _BATCH_ENTRIES, EXACT_MAX_ANSWERS, EXACT_MAX_N, _kernel_plan

#: the smallest sample count beyond the exact estimator's cap
N_PAST_EXACT_CAP = EXACT_MAX_N + 1
#: ``CapExceeded``'s messages for ``N_PAST_EXACT_CAP`` and for one answer past the cap
N_CAP_MESSAGE = f"n={N_PAST_EXACT_CAP} exceeds the exact cap of {EXACT_MAX_N}"
ANSWER_CAP_MESSAGE = f"{EXACT_MAX_ANSWERS + 1} nonzero answers exceed the cap of {EXACT_MAX_ANSWERS}"


def chunk_rows(n: int, m: int) -> int:
    """Distinct kernel inputs of ``m`` answers at ``n`` that one exact-kernel chunk holds."""
    return max(1, _BATCH_ENTRIES // _kernel_plan(n, m).row_entries)


def dft_length(n: int, m: int) -> int:
    """The exact kernel's DFT length at ``(n, m)``, read off its first root of unity."""
    return round(2 * math.pi / np.angle(_kernel_plan(n, m).roots[1, 1]))


def answers_at_exact_cap() -> AnswerDistribution:
    """As many nonzero answers as the exact cap admits, the correct one first and twice as likely."""
    wrong = 1.0 / (EXACT_MAX_ANSWERS + 1)
    return AnswerDistribution((2 * wrong,) + (wrong,) * (EXACT_MAX_ANSWERS - 1))


def answers_past_exact_cap() -> AnswerDistribution:
    """One nonzero answer past the exact cap, the correct one first and twice as likely."""
    wrong = 1.0 / (EXACT_MAX_ANSWERS + 2)
    return AnswerDistribution((2 * wrong,) + (wrong,) * EXACT_MAX_ANSWERS)


def hard_past_exact_cap() -> AnswerDistribution:
    """One nonzero answer past the exact cap, and hard: the correct answer
    first at half a wrong answer's probability, the next one at 2.5 times it."""
    wrong = 1.0 / (EXACT_MAX_ANSWERS + 2)
    return AnswerDistribution((wrong / 2, 2.5 * wrong) + (wrong,) * (EXACT_MAX_ANSWERS - 1))


def sure_past_exact_cap() -> AnswerDistribution:
    """One nonzero answer past the exact cap, the correct one at 0.9: its
    normal approximation reads 1.0 from n = 9."""
    return AnswerDistribution((0.9,) + (0.1 / EXACT_MAX_ANSWERS,) * EXACT_MAX_ANSWERS)


def run_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter on this checkout's
    ``votescale``, ``env`` added to its environment; output captured as text."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(votescale.__file__)), **env)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def brute_force_vote_prob(dist: AnswerDistribution, n: int) -> float:
    """Vote success probability by summing over all m^n answer sequences.

    Each sequence contributes its product probability; sequences where the
    correct answer ties the modal count with t others contribute 1/(t+1)
    of it. Exponential in n: keep n and m small.
    """
    total = 0.0
    m = dist.m
    for seq in itertools.product(range(m), repeat=n):
        prob = 1.0
        for j in seq:
            prob *= dist.probs[j]
        if prob == 0.0:
            continue
        counts = [0] * m
        for j in seq:
            counts[j] += 1
        top = max(counts)
        if counts[dist.correct_index] == top:
            total += prob / counts.count(top)
    return total


def random_easy(rng: np.random.Generator, m: int, min_gap: float = 1e-6) -> AnswerDistribution:
    """Random distribution whose correct answer is the unique maximum."""
    while True:
        p = np.sort(rng.dirichlet(np.ones(m)))[::-1]
        if p[0] - p[1] >= min_gap:
            return AnswerDistribution(tuple(float(x) for x in p), 0)


def random_hard(rng: np.random.Generator, m: int, min_gap: float = 1e-6) -> AnswerDistribution:
    """Random distribution where some wrong answer strictly dominates."""
    while True:
        p = np.sort(rng.dirichlet(np.ones(m)))[::-1]
        if p[0] - p[1] >= min_gap:
            return AnswerDistribution(tuple(float(x) for x in p), int(rng.integers(1, m)))


def constructed_moderate(
    rng: np.random.Generator, m: int, ties: int, margin: float = 0.05
) -> AnswerDistribution:
    """Distribution with an exact float tie among ``ties`` answers, correct
    among them, and all remaining answers at least ``margin`` below the tie."""
    assert 2 <= ties <= m
    rest = m - ties
    if rest == 0:
        tie_prob = 1.0 / ties
        probs = [tie_prob] * ties
        probs[-1] = 1.0 - math.fsum(probs[:-1])
        # the adjustment must not break the float tie
        assert all(abs(p - probs[0]) < 1e-15 for p in probs)
        return AnswerDistribution(tuple(probs), int(rng.integers(ties)))
    # put enough mass on the tie block that the rest stays clearly below
    tie_prob = float(rng.uniform(1.0 / m + margin, 1.0 / ties - 1e-6))
    tie_prob = min(tie_prob, (1.0 - 1e-9) / ties)
    remainder = 1.0 - tie_prob * ties
    weights = rng.dirichlet(np.ones(rest))
    tail = remainder * weights
    # squash any trailing answer that creeps within the margin of the tie
    cap = tie_prob - margin
    if tail.max() > cap:
        tail = tail * (cap / tail.max())
        tail[-1] += remainder - tail.sum()
        if tail[-1] > cap or tail[-1] < 0:
            return constructed_moderate(rng, m, ties, margin)
    probs = [tie_prob] * ties + [float(x) for x in tail]
    correction = 1.0 - math.fsum(probs)
    probs[ties] += correction
    if not 0.0 <= probs[ties] <= cap:
        return constructed_moderate(rng, m, ties, margin)
    return AnswerDistribution(tuple(probs), int(rng.integers(ties)))


def dominant_mode(
    rng: np.random.Generator,
    *,
    correct_dominates: bool,
    lo: float = 0.85,
    hi: float = 0.98,
    max_fragments: int = 5,
) -> AnswerDistribution:
    """Distribution with one dominant answer and fragmented remainder.

    The dominant answer is the correct one when ``correct_dominates`` (an
    easy question saturating toward 1), otherwise a wrong answer (a hard
    question saturating toward 0). This is the regime where counting only
    the strongest wrong answer is a faithful model of the whole vote.
    """
    top = float(rng.uniform(lo, hi))
    k = int(rng.integers(1, max_fragments + 1))
    weights = rng.dirichlet(np.ones(k))
    tail = [float(x) for x in (1.0 - top) * weights]
    tail[-1] = 1.0 - math.fsum([top] + tail[:-1])
    if correct_dominates:
        return AnswerDistribution(tuple([top] + tail), 0)
    return AnswerDistribution(tuple([top] + tail), 1)
