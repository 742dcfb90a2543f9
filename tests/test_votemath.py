"""Estimator correctness against an independent sequence-enumeration oracle."""
import contextlib
import math
import os
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    ANSWER_CAP_MESSAGE,
    N_CAP_MESSAGE,
    N_PAST_EXACT_CAP,
    answers_at_exact_cap,
    answers_past_exact_cap,
    brute_force_vote_prob,
    chunk_rows,
    constructed_moderate,
    dft_length,
    hard_past_exact_cap,
    random_easy,
    sure_past_exact_cap,
)
from votescale import (
    AnswerDistribution,
    CapExceeded,
    QuestionEntry,
    QuestionSamples,
    Run,
    ScalingCurve,
    StrategyDataset,
    VoteProbability,
    WrongArity,
    closed_form_majority_prob,
    exact_majority_prob,
    exact_majority_probs,
    monte_carlo_majority_prob,
    monte_carlo_majority_probs,
    normal_approx_prob,
    replay_majority,
    scaling_curve,
    standard_normal_cdf,
    vote_probabilities,
    vote_probability,
)
from votescale import votemath
from votescale.votemath import (
    _BLOCK,
    EXACT_MAX_ANSWERS,
    EXACT_MAX_N,
    _modal_winners,
    canonical_method,
    check_grid,
)


def simplex3(draw_floats):
    """hypothesis helper: three positive weights normalized to a distribution."""
    a, b, c = draw_floats
    total = a + b + c
    return (a / total, b / total, c / total)


class TestExactAgainstBruteForce:
    """The exact estimator must match raw sequence enumeration."""

    CASES = [
        ((0.64, 0.35, 0.01), 0),
        ((0.6, 0.2, 0.2), 0),
        ((0.2, 0.5, 0.3), 0),
        ((0.2, 0.8), 1),
        ((0.25, 0.25, 0.25, 0.25), 2),
        ((0.4, 0.45, 0.15), 0),
        ((0.7, 0.0, 0.3), 0),
        ((0.0, 0.6, 0.4), 0),
        ((1.0,), 0),
        ((0.5, 0.5), 0),
    ]

    @pytest.mark.parametrize("probs,correct", CASES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_oracle(self, probs, correct, n):
        dist = AnswerDistribution(probs, correct)
        got = exact_majority_prob(dist, n).value
        want = brute_force_vote_prob(dist, n)
        assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(
            st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.01, 1.0)
        ),
        st.integers(0, 2),
        st.integers(1, 5),
    )
    def test_matches_oracle_on_random_simplex(self, weights, correct, n):
        dist = AnswerDistribution(simplex3(weights), correct)
        got = exact_majority_prob(dist, n).value
        want = brute_force_vote_prob(dist, n)
        assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(
            st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.01, 1.0)
        ),
        st.integers(1, 6),
    )
    def test_normalization_over_correct_choices(self, weights, n):
        """Summing the win probability over every choice of correct answer
        must give exactly 1: some answer always wins the vote."""
        probs = simplex3(weights)
        total = math.fsum(
            exact_majority_prob(AnswerDistribution(probs, j), n).value
            for j in range(3)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


class TestExactKnownValues:
    def test_worked_three_answer_curves(self):
        d = AnswerDistribution((0.64, 0.35, 0.01))
        assert exact_majority_prob(d, 1).value == pytest.approx(0.640, abs=5e-4)
        assert exact_majority_prob(d, 3).value == pytest.approx(0.709, abs=5e-4)
        assert exact_majority_prob(d, 5).value == pytest.approx(0.757, abs=5e-4)
        d2 = AnswerDistribution((0.6, 0.2, 0.2))
        assert exact_majority_prob(d2, 1).value == pytest.approx(0.600, abs=5e-4)
        assert exact_majority_prob(d2, 3).value == pytest.approx(0.696, abs=5e-4)
        assert exact_majority_prob(d2, 5).value == pytest.approx(0.769, abs=5e-4)

    def test_hand_computed_values(self):
        assert exact_majority_prob(
            AnswerDistribution((0.5, 0.3, 0.2)), 3
        ).value == pytest.approx(0.56, abs=1e-12)
        assert exact_majority_prob(
            AnswerDistribution((0.5, 0.3, 0.2)), 5
        ).value == pytest.approx(0.6125, abs=1e-12)
        assert exact_majority_prob(
            AnswerDistribution((0.2, 0.8), 1), 3
        ).value == pytest.approx(0.896, abs=1e-12)

    def test_certain_and_impossible(self):
        assert exact_majority_prob(AnswerDistribution((1.0, 0.0)), 7).value == 1.0
        assert exact_majority_prob(AnswerDistribution((0.0, 1.0)), 7).value == 0.0
        assert exact_majority_prob(AnswerDistribution((1.0,)), 3).value == 1.0

    def test_single_sample_equals_correct_prob(self):
        d = AnswerDistribution((0.3, 0.45, 0.25), 1)
        assert exact_majority_prob(d, 1).value == pytest.approx(0.45, abs=1e-15)

    def test_zero_probability_answers_are_dropped(self):
        padded = AnswerDistribution((0.6, 0.0, 0.2, 0.2, 0.0), 0)
        plain = AnswerDistribution((0.6, 0.2, 0.2), 0)
        for n in (1, 3, 5, 9):
            assert exact_majority_prob(padded, n).value == pytest.approx(
                exact_majority_prob(plain, n).value, abs=1e-15
            )


class TestExactCaps:
    def test_too_many_nonzero_answers(self):
        for dist in (answers_past_exact_cap(), hard_past_exact_cap(), sure_past_exact_cap()):
            with pytest.raises(CapExceeded, match=f"^{ANSWER_CAP_MESSAGE}$"):
                exact_majority_prob(dist, 3)

    def test_n_above_cap(self):
        with pytest.raises(CapExceeded, match=f"^{N_CAP_MESSAGE}$"):
            exact_majority_prob(AnswerDistribution((0.6, 0.4)), N_PAST_EXACT_CAP)

    def test_caps_are_parameters(self):
        d = AnswerDistribution((0.65, 0.35))  # above 0.97 from n = 61 to past 500
        value = exact_majority_prob(d, N_PAST_EXACT_CAP, max_n=N_PAST_EXACT_CAP).value
        assert 0.97 < value < 1.0

    def test_eight_answers_at_the_n_cap(self):
        dist = AnswerDistribution((0.3,) + (0.1,) * 7)
        vp = exact_majority_prob(dist, 60)
        assert vp.method == "exact"
        assert vp.value == pytest.approx(direct_dp_vote_prob(dist, 60), abs=1e-12)
        assert exact_majority_prob(answers_at_exact_cap(), EXACT_MAX_N).method == "exact"

    def test_zero_prob_answers_do_not_count_against_cap(self):
        probs = tuple([0.5, 0.5] + [0.0] * (EXACT_MAX_ANSWERS + 2))
        assert exact_majority_prob(AnswerDistribution(probs), 3).value == pytest.approx(
            0.5, abs=1e-12
        )

    def test_fallback_dispatch(self):
        d = AnswerDistribution((0.6, 0.4))
        with pytest.raises(CapExceeded):
            vote_probability(d, N_PAST_EXACT_CAP, "exact")
        vp = vote_probability(d, N_PAST_EXACT_CAP, "exact", fallback=True)
        assert vp.method == "normal_approx"


def direct_dp_vote_prob(dist: AnswerDistribution, n: int) -> float:
    """Vote success probability by a direct DP over (correct count k, wrong
    samples used, wrong answers tied at k), with multinomial weights
    n! prod p^c / c!. Slow; shares nothing with the Poisson kernel."""
    p_correct = dist.correct_prob
    wrong = [p for j, p in enumerate(dist.probs) if j != dist.correct_index and p > 0.0]
    shares = 1.0 / np.arange(1, len(wrong) + 2)
    total = 0.0
    for k in range(1, n + 1):
        rest = n - k
        dp = np.zeros((rest + 1, len(wrong) + 1))
        dp[0, 0] = 1.0
        for p in wrong:
            grown = np.zeros_like(dp)
            for c in range(min(k, rest) + 1):
                weight = p**c / math.factorial(c)
                if c < k:
                    grown[c:] += weight * dp[: rest + 1 - c]
                else:
                    grown[c:, 1:] += weight * dp[: rest + 1 - c, :-1]
            dp = grown
        total += math.factorial(n) * p_correct**k / math.factorial(k) * float(dp[rest] @ shares)
    return total


def random_case(rng: np.random.Generator, max_m: int, max_n: int):
    """A random distribution and n; about one case in three has an exact
    float tie between the correct answer and one or two wrong answers."""
    m = int(rng.integers(2, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    if rng.random() < 1 / 3:
        dist = constructed_moderate(rng, m, int(rng.integers(2, min(m, 3) + 1)))
    else:
        dist = AnswerDistribution(tuple(float(x) for x in rng.dirichlet(np.ones(m))), int(rng.integers(m)))
    return dist, n


class TestPoissonKernel:
    """The exact estimator against judges that share none of its code."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sequence_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            dist, n = random_case(rng, 6, 6)
            got = exact_majority_prob(dist, n).value
            assert got == pytest.approx(brute_force_vote_prob(dist, n), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_direct_dp_with_raised_caps(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(10):
            dist, n = random_case(rng, 8, 60)
            got = exact_majority_prob(dist, n).value
            assert got == pytest.approx(direct_dp_vote_prob(dist, n), abs=1e-12)

    def test_large_n(self):
        value = exact_majority_prob(AnswerDistribution((0.36, 0.34, 0.30)), 1000, max_n=1000).value
        assert value == pytest.approx(0.7728315102, abs=1e-9)

    @pytest.mark.parametrize("n", [21, 40])
    def test_tiny_values_keep_their_absolute_accuracy(self, n):
        """True values near 1e-126 and 1e-230 come out as noise, but within
        the documented absolute accuracy of 0."""
        dist = AnswerDistribution((1e-12, 0.999999999998, 1e-12), 2)
        assert abs(exact_majority_prob(dist, n).value) <= 1e-13

    def test_one_sample_is_the_correct_probability(self):
        for probs, correct in [((0.3, 0.45, 0.25), 1), ((0.1, 0.0, 0.9), 0), ((0.2,) * 5, 3)]:
            dist = AnswerDistribution(probs, correct)
            assert exact_majority_prob(dist, 1).value == dist.correct_prob

    def test_one_sample_still_respects_the_answer_cap(self):
        with pytest.raises(CapExceeded):
            exact_majority_prob(answers_past_exact_cap(), 1)

    def test_every_answer_count_at_both_dft_parities(self):
        """Every m from 2 to the cap, uniform (so up to m - 1 wrong answers
        tie with the correct one) and random, over n where the DFT length
        is odd and, for some m, even (its Nyquist frequency counted once)."""
        rng = np.random.default_rng(37)
        cells = []
        for m in range(2, EXACT_MAX_ANSWERS + 1):
            uniform = AnswerDistribution((1.0 / m,) * m)
            spread = AnswerDistribution(tuple(float(x) for x in rng.dirichlet(np.ones(m))), int(rng.integers(m)))
            cells += [(dist, n) for dist in (uniform, spread) for n in range(2, 14)]
        assert {dft_length(n, dist.m) % 2 for dist, n in cells} == {0, 1}
        for (dist, n), vp in zip(cells, exact_majority_probs(cells)):
            assert vp.value == pytest.approx(direct_dp_vote_prob(dist, n), abs=1e-12)

    @pytest.mark.parametrize("n", [21, 60])
    def test_memory_is_bounded(self, n):
        dist = AnswerDistribution((0.3,) + (0.1,) * 7)
        tracemalloc.start()
        try:
            exact_majority_prob(dist, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_memory_at_scale_is_bounded(self):
        """Eight answers at n = 200, the kernel plan built within the cell:
        the tie-count fold and the DFT length at the aliasing bound keep
        the peak under 32 MiB."""
        dist = AnswerDistribution((0.3,) + (0.1,) * 7)
        votemath._kernel_plan.cache_clear()
        tracemalloc.start()
        try:
            exact_majority_prob(dist, 200, max_n=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


EASY = AnswerDistribution((0.64, 0.35, 0.01))


class TestBatchedKernel:
    """exact_majority_probs: one kernel call per chunk of cells of equal
    (nonzero answers, n), with every cell's value independent of its batch."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_direct_dp(self, seed):
        rng = np.random.default_rng(200 + seed)
        cases = [random_case(rng, 8, 60) for _ in range(12)]
        got = exact_majority_probs(cases)
        for (dist, n), vp in zip(cases, got):
            assert (vp.n, vp.method) == (n, "exact")
            assert vp.value == pytest.approx(direct_dp_vote_prob(dist, n), abs=1e-12)

    def test_matches_sequence_oracle(self):
        rng = np.random.default_rng(300)
        cases = [random_case(rng, 6, 6) for _ in range(30)]
        for (dist, n), vp in zip(cases, exact_majority_probs(cases)):
            assert vp.value == pytest.approx(brute_force_vote_prob(dist, n), abs=1e-12)

    @pytest.mark.parametrize("m, n", [(2, 9), (3, 31), (5, 31), (8, 60)])
    def test_a_row_does_not_depend_on_its_batch(self, m, n):
        rng = np.random.default_rng(m * 100 + n)
        dists = [
            AnswerDistribution(tuple(float(x) for x in rng.dirichlet(np.ones(m))), int(rng.integers(m)))
            for _ in range(3)
        ]
        step = chunk_rows(n, m)
        filler = [
            AnswerDistribution(tuple(float(x) for x in rng.dirichlet(np.ones(m))))
            for _ in range(2 * step + 1)
        ]
        alone = [exact_majority_prob(d, n).value for d in dists]
        # the last row of one chunk, the first row of the next, deep in a third
        batch = filler[: step - 1] + [dists[0], dists[1]] + filler[step + 1 :] + [dists[2]]
        values = [vp.value for vp in exact_majority_probs([(d, n) for d in batch])]
        assert [values[step - 1], values[step], values[-1]] == alone
        # equal distributions get equal values, so argmax ties stay ties
        twice = exact_majority_probs([(dists[0], n), (filler[0], n), (dists[0], n)])
        assert twice[0] == twice[2]

    def test_special_and_fallback_cells_mixed_into_a_batch(self):
        wide = answers_past_exact_cap()
        # two nonzero answers past the answer cap, none of them correct
        zero = AnswerDistribution((0.0,) + (1.0 / (EXACT_MAX_ANSWERS + 2),) * (EXACT_MAX_ANSWERS + 2), 0)
        cells = [
            (EASY, 5),
            (AnswerDistribution((0.0, 0.6, 0.4)), 7),  # the correct answer is never sampled
            (AnswerDistribution((0.0, 1.0, 0.0), 1), 9),  # one answer: always right
            (wide, 5),
            (EASY, 1),
            (AnswerDistribution((0.6, 0.4)), N_PAST_EXACT_CAP),  # above the n cap
            (zero, N_PAST_EXACT_CAP),  # zero beats both caps
            (EASY, 5),
        ]
        got = exact_majority_probs(cells, fallback=True)
        assert got == [
            exact_majority_prob(EASY, 5),
            VoteProbability(0.0, "exact", 7),
            VoteProbability(1.0, "exact", 9),
            normal_approx_prob(wide, 5),
            VoteProbability(EASY.correct_prob, "exact", 1),
            normal_approx_prob(AnswerDistribution((0.6, 0.4)), N_PAST_EXACT_CAP),
            VoteProbability(0.0, "exact", N_PAST_EXACT_CAP),
            exact_majority_prob(EASY, 5),
        ]
        assert got == [vote_probability(d, n, "exact", fallback=True) for d, n in cells]

    def test_each_support_and_n_reaches_the_kernel_once(self, monkeypatch):
        real = votemath._exact_kernel
        rows = []

        def kernel(supports, n):
            rows.extend((support, n) for support in supports)
            return real(supports, n)

        first = AnswerDistribution((0.5, 0.3, 0.2), 0)
        second = AnswerDistribution((0.3, 0.5, 0.2), 1)  # the same support as first
        wide = answers_past_exact_cap()
        capped = AnswerDistribution((0.6, 0.4))  # capped at N_PAST_EXACT_CAP
        cells = [
            (EASY, 5),
            (first, 5),
            (wide, 5),
            (EASY, 1),
            (second, 5),
            (EASY, 5),
            (AnswerDistribution((0.0, 0.6, 0.4)), 5),  # the correct answer is never sampled
            (second, 9),
            (capped, N_PAST_EXACT_CAP),
            (first, 9),
            (EASY, 5),
        ]
        with monkeypatch.context() as patch:
            patch.setattr(votemath, "_exact_kernel", kernel)
            got = exact_majority_probs(cells, fallback=True)
        assert rows == [((0.64, 0.35, 0.01), 5), ((0.5, 0.3, 0.2), 5), ((0.5, 0.3, 0.2), 9)]
        lone = [
            normal_approx_prob(d, n) if d in (wide, capped) else exact_majority_prob(d, n)
            for d, n in cells
        ]
        assert got == lone
        assert [vp.n for vp in got] == [n for _, n in cells]
        assert got[1] == got[4] and got[7] == got[9]

    def test_first_capped_cell_in_order_raises(self):
        cells = [
            (EASY, 5),
            (AnswerDistribution((0.6, 0.4)), N_PAST_EXACT_CAP),
            (answers_past_exact_cap(), 5),
        ]
        with pytest.raises(CapExceeded, match=f"^{N_CAP_MESSAGE}$"):
            exact_majority_probs(cells)
        with pytest.raises(CapExceeded, match=f"^{ANSWER_CAP_MESSAGE}$"):
            exact_majority_probs(cells[::-1])
        assert exact_majority_probs([]) == []

    def test_memory_of_a_large_fill_is_bounded(self):
        rng = np.random.default_rng(5)
        cells = [
            (AnswerDistribution(tuple(float(x) for x in rng.dirichlet(np.ones(8)))), 60)
            for _ in range(1000)
        ]
        tracemalloc.start()
        try:
            got = exact_majority_probs(cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 1000
        assert peak < 16 * 2**20


class TestClosedForms:
    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(
            st.floats(0.001, 1.0), st.floats(0.001, 1.0), st.floats(0.001, 1.0)
        ),
        st.integers(0, 2),
        st.sampled_from([3, 5]),
    )
    def test_matches_exact(self, weights, correct, n):
        dist = AnswerDistribution(simplex3(weights), correct)
        closed = closed_form_majority_prob(dist, n).value
        exact = exact_majority_prob(dist, n).value
        assert closed == pytest.approx(exact, abs=1e-12)

    def test_known_values(self):
        d = AnswerDistribution((0.64, 0.35, 0.01))
        assert closed_form_majority_prob(d, 3).value == pytest.approx(0.709, abs=5e-4)
        assert closed_form_majority_prob(d, 5).value == pytest.approx(0.757, abs=5e-4)

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            closed_form_majority_prob(AnswerDistribution((0.5, 0.5)), 3)
        with pytest.raises(WrongArity):
            closed_form_majority_prob(AnswerDistribution((0.5, 0.3, 0.2)), 7)


class TestSimulation:
    def test_batch_matches_scalar_rate(self):
        """The vectorized voter's success rate agrees with the exact vote
        probability within Monte Carlo noise."""
        d = AnswerDistribution((0.45, 0.35, 0.2))
        n, trials = 5, 20_000
        batch_rate = monte_carlo_majority_prob(d, n, trials, 13).value
        exact = exact_majority_prob(d, n).value
        assert abs(batch_rate - exact) < 5 * math.sqrt(exact * (1 - exact) / trials)

    def test_tie_breaking_is_uniform(self):
        d = AnswerDistribution((0.5, 0.5))
        # half the trials split 1-1 and the coin decides; overall P(win)=0.5
        rate = monte_carlo_majority_prob(d, 2, 40_000, 3).value
        assert rate == pytest.approx(0.5, abs=0.01)

    def test_batch_winners_are_pinned(self):
        """Pinned winners: the multinomial draws and the tie-break scores
        keep their order in the random stream."""
        rng = np.random.default_rng(5)
        winners = _modal_winners(rng.multinomial(4, (0.4, 0.3, 0.3), size=20), rng)
        assert winners.tolist() == [
            1, 0, 1, 2, 1, 0, 1, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 1
        ]
        rng = np.random.default_rng(9)
        winners = _modal_winners(rng.multinomial(2, (0.25,) * 4, size=20), rng)
        assert winners.tolist() == [
            2, 1, 1, 3, 3, 0, 2, 3, 1, 0, 1, 2, 2, 3, 2, 3, 0, 1, 0, 0
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.integers(1, 6).flatmap(
            lambda m: arrays(np.int64, st.tuples(st.integers(1, 40), st.just(m)), elements=st.integers(0, 3))
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(counts=np.array([[4], [0], [2]]), seed=0)
    @example(counts=np.zeros((5, 3), dtype=np.int64), seed=1)
    def test_modal_winners_match_a_per_row_reference(self, counts, seed):
        """Per row, the first index of the largest tie-break score among the
        row's modal answers, with the scores drawn after the counts."""
        winners = _modal_winners(counts, np.random.default_rng(seed))
        scores = np.random.default_rng(seed).random(counts.shape).tolist()
        expected = []
        for row, row_scores in zip(counts.tolist(), scores):
            modal = [j for j, c in enumerate(row) if c == max(row)]
            expected.append(max(modal, key=row_scores.__getitem__))
        assert winners.tolist() == expected

    @pytest.mark.parametrize(
        "probs, correct, n, trials, seed, value, stderr",
        [
            ((0.45, 0.35, 0.2), 0, 5, 20_000, 11, 0.52315, 0.0035317423285115236),
            ((0.2, 0.3, 0.1, 0.25, 0.15), 3, 8, 3_001, 7, 0.26824391869376873, 0.008087515293627062),
            # past one block: the second block's draws follow the first's
            ((0.5, 0.5), 1, 2, _BLOCK + 4_321, 2026, 0.5011227580309832, 0.0006877041305751389),
        ],
    )
    def test_monte_carlo_values_are_pinned(self, probs, correct, n, trials, seed, value, stderr):
        """Pinned estimates: every cell keeps its random stream, and the
        value is a plain float."""
        dist = AnswerDistribution(probs, correct)
        vp = monte_carlo_majority_prob(dist, n, trials, seed)
        assert type(vp.value) is float and type(vp.stderr) is float
        assert (vp.value, vp.stderr) == (value, stderr)

    def test_monte_carlo_draws_every_admitted_distribution(self):
        """A distribution within AnswerDistribution's sum tolerance but past
        numpy's multinomial bound is drawn from its normalized probabilities."""
        dist = AnswerDistribution((0.5 + 5e-10, 0.5, 0.0))
        vp = monte_carlo_majority_prob(dist, 5, 1000, 0)
        assert abs(vp.value - exact_majority_prob(dist, 5).value) < 5 * vp.stderr

    def test_monte_carlo_memory_does_not_grow_with_trials(self):
        """Wins are counted per block: four blocks peak no higher than one."""
        d = AnswerDistribution((0.5, 0.3, 0.2))
        peaks = []
        for trials in (_BLOCK, 4 * _BLOCK):
            tracemalloc.start()
            try:
                monte_carlo_majority_prob(d, 1, trials, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1 << 20

    def test_monte_carlo_point(self):
        d = AnswerDistribution((0.64, 0.35, 0.01))
        vp = monte_carlo_majority_prob(d, 5, 100_000, seed=42)
        exact = exact_majority_prob(d, 5).value
        assert vp.method == "monte_carlo"
        assert vp.stderr == pytest.approx(
            math.sqrt(vp.value * (1 - vp.value) / 100_000), abs=1e-15
        )
        assert abs(vp.value - exact) < 5 * vp.stderr

    def test_monte_carlo_deterministic_under_seed(self):
        d = AnswerDistribution((0.6, 0.2, 0.2))
        a = monte_carlo_majority_prob(d, 7, 10_000, seed=5)
        b = monte_carlo_majority_prob(d, 7, 10_000, seed=5)
        assert a == b

    def test_sampling_time_beyond_int64_names_the_limit(self):
        """numpy draws the counts as int64: a larger n is a ValueError that
        names the limit, not numpy's OverflowError."""
        d = AnswerDistribution((0.5, 0.5))
        with pytest.raises(ValueError, match=r"^Monte Carlo needs n <= 2\^63 - 1, got 9223372036854775808$"):
            monte_carlo_majority_prob(d, 2**63, 1, seed=0)
        assert monte_carlo_majority_prob(d, 2**63 - 1, 1, seed=0).n == 2**63 - 1

    def test_rejects_bad_arguments(self):
        d = AnswerDistribution((0.6, 0.4))
        with pytest.raises(ValueError):
            monte_carlo_majority_prob(d, 0, 100, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_majority_prob(d, 3, 0, seed=0)


def one_by_one(cells, trials):
    """Each cell's own :func:`monte_carlo_majority_prob`: a batch of one,
    which starts no thread."""
    return [monte_carlo_majority_prob(dist, n, trials, seed) for dist, n, seed in cells]


@st.composite
def drawn_cells(draw):
    """A few (distribution, n, seed) Monte Carlo cells."""
    cells = []
    for _ in range(draw(st.integers(1, 7))):
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4))
        probs = tuple(w / sum(weights) for w in weights)
        dist = AnswerDistribution(probs, draw(st.integers(0, len(probs) - 1)))
        cells.append((dist, draw(st.integers(1, 40)), draw(st.integers(0, 2**32))))
    return cells


@contextlib.contextmanager
def split_over(workers):
    """Every batch of more than one cell is split over ``workers`` threads,
    the caller among them."""
    with mock.patch.object(votemath, "_cpu_count", return_value=workers), \
            mock.patch.object(votemath, "_THREAD_TRIALS", 0):
        yield


def counting_threads():
    """A patch that counts the threads the batches construct."""
    return mock.patch.object(votemath.threading, "Thread", wraps=threading.Thread)


class TestMonteCarloBatch:
    """The batch draws its cells on worker threads; a cell's value is the
    one it has alone, whatever the thread count, and a failure stops and
    joins every thread."""

    CELLS = [(AnswerDistribution((0.5, 0.3, 0.2), j % 3), n, 10 + n) for j, n in enumerate((1, 3, 5, 9, 15))]

    @settings(max_examples=25, deadline=None)
    @given(cells=drawn_cells(), trials=st.integers(1, 300), workers=st.sampled_from([1, 2, 3]))
    def test_matches_cell_by_cell(self, cells, trials, workers):
        expected = one_by_one(cells, trials)
        with split_over(workers), counting_threads() as thread:
            batch = monte_carlo_majority_probs(cells, trials)
        assert thread.call_count == min(workers, len(cells)) - 1
        assert batch == expected

    def test_more_threads_than_cpus_draw_each_cell_once(self):
        cells = [(d, n + 1, seed) for seed, (d, n, _) in enumerate(self.CELLS * 12)]
        expected = one_by_one(cells, 50)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with split_over(8), mock.patch.object(votemath, "_cell_hits", wraps=votemath._cell_hits) as draw:
                assert monte_carlo_majority_probs(cells, 50) == expected
        finally:
            sys.setswitchinterval(switch)
        assert sorted(call.args[2] for call in draw.call_args_list) == list(range(len(cells)))

    def test_cpu_count_falls_back_to_the_machine_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert votemath._cpu_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert votemath._cpu_count() == 1

    def test_a_thread_that_cannot_start_leaves_its_cells_to_the_others(self):
        expected = one_by_one(self.CELLS, 400)
        with split_over(3), \
                mock.patch("threading.Thread.start", side_effect=RuntimeError("can't start new thread")) as start:
            assert monte_carlo_majority_probs(self.CELLS, 400) == expected
        assert start.call_count == 1

    def test_the_earliest_failed_cell_raises_once_every_thread_is_joined(self):
        """Cell 3 fails while cell 1 is in hand on the other thread; cell 1
        then fails too, and its failure is the one raised."""
        real, late = votemath._cell_hits, threading.Event()
        alive = set(threading.enumerate())

        def failing(dist, n, seed, trials):
            if n == 3:
                assert late.wait(10)
                raise RuntimeError("cell 1 fails")
            if n == 9:
                late.set()
                raise RuntimeError("cell 3 fails")
            return real(dist, n, seed, trials)

        with split_over(2), mock.patch.object(votemath, "_cell_hits", failing):
            with pytest.raises(RuntimeError, match="^cell 1 fails$"):
                monte_carlo_majority_probs(self.CELLS, 400)
        assert set(threading.enumerate()) == alive

    def test_a_failure_stops_the_other_threads_after_the_cell_in_hand(self):
        d, drawn, failed = AnswerDistribution((0.6, 0.4)), [], threading.Event()
        cells = [(d, 3, seed) for seed in range(40)]

        def failing(dist, n, seed, trials):
            drawn.append(seed)
            if seed == 0:
                failed.set()
                raise RuntimeError("cell 0 fails")
            assert failed.wait(10)
            return 0

        with split_over(2), mock.patch.object(votemath, "_cell_hits", failing):
            with pytest.raises(RuntimeError, match="^cell 0 fails$"):
                monte_carlo_majority_probs(cells, 100)
        assert len(drawn) < len(cells)

    def test_an_interrupt_stops_and_joins_the_workers(self):
        """The caller's interrupt is raised once the worker has finished the
        cell in hand; the worker draws no other cell."""
        caller, real, in_workers = threading.current_thread(), votemath._cell_hits, []
        alive = set(threading.enumerate())

        def interrupted(dist, n, seed, trials):
            if threading.current_thread() is caller:
                raise KeyboardInterrupt
            in_workers.append(n)
            time.sleep(0.2)
            return real(dist, n, seed, trials)

        with split_over(2), mock.patch.object(votemath, "_cell_hits", interrupted):
            with pytest.raises(KeyboardInterrupt):
                monte_carlo_majority_probs(self.CELLS, 400)
        assert set(threading.enumerate()) == alive
        assert len(in_workers) <= 1

    def test_no_worker_threads_for_one_cell_or_a_small_batch(self):
        d = AnswerDistribution((0.6, 0.4))
        with mock.patch.object(votemath, "_cpu_count", return_value=2), counting_threads() as thread:
            monte_carlo_majority_probs([(d, 3, 0), (d, 5, 1)], votemath._THREAD_TRIALS // 2 - 1)
            with mock.patch.object(votemath, "_THREAD_TRIALS", 0):
                monte_carlo_majority_probs([(d, 3, 0)], 100)
                monte_carlo_majority_probs(self.CELLS, 100)
        assert thread.call_count == 1  # the last batch only

    def test_a_batch_beside_a_running_thread_draws_on_worker_threads(self):
        release = threading.Event()
        running = threading.Thread(target=release.wait)
        running.start()
        try:
            with split_over(2), counting_threads() as thread:
                assert monte_carlo_majority_probs(self.CELLS, 400) == one_by_one(self.CELLS, 400)
        finally:
            release.set()
            running.join(timeout=10)
        assert thread.call_count == 1 and not running.is_alive()

    def test_batches_on_two_caller_threads_each_get_their_own_values(self):
        batches = [self.CELLS, [(d, n + 2, seed + 1) for d, n, seed in reversed(self.CELLS)]]
        expected = [one_by_one(cells, 3000) for cells in batches]
        got = [None, None]

        def caller(i):
            got[i] = monte_carlo_majority_probs(batches[i], 3000)

        with split_over(2):
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        assert got == expected

    def test_arguments_are_checked_before_any_draw(self):
        d = AnswerDistribution((0.6, 0.4))
        with split_over(2), counting_threads() as thread, \
                mock.patch.object(votemath, "_cell_hits", wraps=votemath._cell_hits) as draw:
            with pytest.raises(ValueError, match=r"^Monte Carlo needs n <= 2\^63 - 1, got 9223372036854775808$"):
                monte_carlo_majority_probs([(d, 3, 0), (d, 2**63, 1)], 100)
            with pytest.raises(ValueError, match="trials must be >= 1"):
                monte_carlo_majority_probs([(d, 3, 0), (d, 5, 1)], 0)
            with pytest.raises(ValueError, match="sampling times must be integers"):
                monte_carlo_majority_probs([(d, 3, 0), (d, 2.5, 1)], 100)
        assert thread.call_count == draw.call_count == 0


class TestNormalApprox:
    def test_glossary_formula(self):
        d = AnswerDistribution((0.64, 0.35, 0.01))
        p1, pq, n = 0.64, 0.35, 40
        z = -(p1 - pq) / math.sqrt((p1 * (1 - p1) + pq * (1 - pq)) / n)
        want = 1.0 - standard_normal_cdf(z)
        assert normal_approx_prob(d, 40).value == pytest.approx(want, abs=1e-15)

    def test_even_split_is_half(self):
        assert normal_approx_prob(AnswerDistribution((0.5, 0.5)), 99).value == 0.5

    def test_degenerate_cases(self):
        assert normal_approx_prob(AnswerDistribution((1.0, 0.0)), 5).value == 1.0
        assert normal_approx_prob(AnswerDistribution((0.0, 1.0)), 5).value == 0.0
        assert normal_approx_prob(AnswerDistribution((1.0,)), 5).value == 1.0

    def test_error_shrinks_with_n(self):
        d = AnswerDistribution((0.64, 0.35, 0.01))
        err = lambda n: abs(normal_approx_prob(d, n).value - exact_majority_prob(d, n).value)
        assert err(40) <= err(10)

    def test_large_error_outside_the_dominant_regime(self):
        """With several wrong answers crowding the maximum, modeling only the
        single strongest one overshoots badly at small n. This documents the
        predictor's limits; it is not a regression."""
        d = AnswerDistribution((0.34, 0.23, 0.22, 0.21))
        err10 = abs(normal_approx_prob(d, 10).value - exact_majority_prob(d, 10).value)
        err40 = abs(normal_approx_prob(d, 40).value - exact_majority_prob(d, 40).value)
        assert err10 > 0.1
        assert err40 < err10

    def test_cdf_reference_points(self):
        assert standard_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert standard_normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
        assert standard_normal_cdf(-8.0) == pytest.approx(6.22096057427178e-16, rel=1e-9)
        assert standard_normal_cdf(3.0) + standard_normal_cdf(-3.0) == pytest.approx(
            1.0, abs=1e-15
        )


class TestScalingCurve:
    def test_grid_must_increase(self):
        d = AnswerDistribution((0.6, 0.4))
        with pytest.raises(ValueError):
            scaling_curve(d, [3, 3, 5], "exact")
        with pytest.raises(ValueError):
            scaling_curve(d, [], "exact")
        with pytest.raises(ValueError):
            scaling_curve(d, [0, 1], "exact")

    def test_exact_curve_values(self):
        d = AnswerDistribution((0.4, 0.45, 0.15))
        curve = scaling_curve(d, [1, 3], "exact")
        assert curve.ns == (1, 3)
        assert curve.values[0] == pytest.approx(0.400, abs=1e-12)
        assert curve.values[1] == pytest.approx(0.406, abs=1e-12)

    def test_method_aliases(self):
        d = AnswerDistribution((0.6, 0.4))
        assert scaling_curve(d, [3], "approx").method == "normal_approx"
        assert scaling_curve(d, [3], "mc", trials=100).method == "monte_carlo"

    @pytest.mark.parametrize(
        "call",
        [
            canonical_method,
            lambda method: vote_probability(AnswerDistribution((0.5, 0.3, 0.2)), 3, method),
            lambda method: vote_probabilities([(AnswerDistribution((0.5, 0.3, 0.2)), 3, 0)], method),
            lambda method: scaling_curve(AnswerDistribution((0.5, 0.3, 0.2)), [3, 5], method),
            lambda method: Run(
                [StrategyDataset("s", (QuestionEntry("q0", AnswerDistribution((0.5, 0.3, 0.2))),))], [3, 5], method
            ),
        ],
        ids=["canonical", "vote", "votes", "curve", "run"],
    )
    def test_closed_forms_are_not_a_method(self, call):
        """Closed forms check the exact value (criterion 1); no estimator
        setting selects them."""
        with pytest.raises(ValueError, match=r"^unknown method 'closed_form'$"):
            call("closed_form")

    def test_exact_grid_is_one_kernel_call(self, monkeypatch):
        """An exact curve sends its whole grid to one exact batch, with the
        values of one call per n."""
        d = AnswerDistribution((0.5, 0.3, 0.2))
        expected = [exact_majority_prob(d, n) for n in (1, 3, 5, 9)]
        real, batches = votemath.exact_majority_probs, []

        def counting(cells, **kwargs):
            cells = list(cells)
            batches.append([n for _, n in cells])
            return real(cells, **kwargs)

        monkeypatch.setattr(votemath, "exact_majority_probs", counting)
        curve = scaling_curve(d, [1, 3, 5, 9], "exact")
        assert batches == [[1, 3, 5, 9]]
        assert list(curve.points) == expected

    def test_vote_probabilities_match_each_estimator(self):
        """The method switch gives, cell by cell, the values of the
        estimator its method names."""
        dists = [
            AnswerDistribution((0.5, 0.3, 0.2)),
            AnswerDistribution((0.2, 0.5, 0.3), 2),
            AnswerDistribution((1.0, 0.0)),
            AnswerDistribution((0.0, 1.0)),
            AnswerDistribution((0.4, 0.3, 0.2, 0.1)),
        ]
        cells = [(d, n, (7, i, n)) for i, d in enumerate(dists) for n in (1, 4, 9)]
        pairs = [(d, n) for d, n, _ in cells]
        assert vote_probabilities(cells) == exact_majority_probs(pairs)
        assert vote_probabilities(iter(cells), "exact") == exact_majority_probs(pairs)
        wide = (answers_past_exact_cap(), 5, 0)
        with pytest.raises(CapExceeded):
            vote_probabilities(cells + [wide])
        substituted = vote_probabilities(cells + [wide], fallback=True)
        assert substituted == exact_majority_probs(pairs) + [normal_approx_prob(wide[0], 5)]
        assert substituted[-1].method == "normal_approx"
        for name in ("approx", "normal_approx"):
            assert vote_probabilities(cells, name) == [normal_approx_prob(d, n) for d, n in pairs]
        for name in ("mc", "monte_carlo"):
            assert vote_probabilities(cells, name, trials=3000) == monte_carlo_majority_probs(cells, 3000)
        for d, n, seed in cells[:4]:
            for method in ("exact", "approx", "mc"):
                one = vote_probability(d, n, method, trials=500, seed=seed)
                assert [one] == vote_probabilities([(d, n, seed)], method, trials=500)

    def test_fallback_only_when_enabled(self):
        d = AnswerDistribution((0.6, 0.4))
        with pytest.raises(CapExceeded):
            scaling_curve(d, [5, N_PAST_EXACT_CAP], "exact")
        curve = scaling_curve(d, [5, N_PAST_EXACT_CAP], "exact", fallback=True)
        assert curve.points[0].method == "exact"
        assert curve.points[1].method == "normal_approx"

    def test_monte_carlo_points_are_independent_and_reproducible(self):
        d = AnswerDistribution((0.6, 0.2, 0.2))
        a = scaling_curve(d, [1, 3, 5], "mc", trials=5_000, seed=9)
        b = scaling_curve(d, [1, 3, 5], "mc", trials=5_000, seed=9)
        assert a.values == b.values
        # the run's seed for (seed, crc32 of the empty strategy id, position, n)
        single = monte_carlo_majority_prob(d, 3, 5_000, (9, 0, 0, 3))
        assert a.points[1].value == single.value

    def test_curve_type_validates_order(self):
        p1 = VoteProbability(0.5, "exact", 3)
        p2 = VoteProbability(0.6, "exact", 3)
        with pytest.raises(ValueError):
            ScalingCurve(points=(p1, p2), method="exact")

    def test_value_at(self):
        d = AnswerDistribution((0.6, 0.4))
        curve = scaling_curve(d, [1, 3], "exact")
        assert curve.value_at(3) == curve.values[1]
        with pytest.raises(KeyError):
            curve.value_at(7)


_D = AnswerDistribution((0.5, 0.3, 0.2))
_POOL = QuestionSamples("q0", "s0", "a", ("a", "b", "a", "c"), 10.0, 5.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: exact_majority_prob(_D, n),
        lambda n: normal_approx_prob(_D, n),
        lambda n: monte_carlo_majority_prob(_D, n, 100, 0),
        lambda n: scaling_curve(_D, [1, n]),
        lambda n: check_grid([n]),
        lambda n: VoteProbability(0.5, "exact", n),
        lambda n: replay_majority(_POOL, n),
    ],
    ids=["exact", "approx", "mc", "curve", "grid", "point", "replay"],
)
def test_sampling_times_must_be_integers(call):
    """Python and numpy integers give the same result; other numbers are
    rejected instead of truncated or passed through."""
    assert call(np.int64(3)) == call(3)
    for n in (2.5, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="sampling times must be integers"):
            call(n)
    with pytest.raises(ValueError, match=" must be >= 1"):
        call(0)
