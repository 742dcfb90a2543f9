"""Estimator correctness against an independent sequence-enumeration oracle."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_vote_prob, constructed_moderate, random_easy
from votescale import (
    AnswerDistribution,
    CapExceeded,
    ScalingCurve,
    VoteProbability,
    WrongArity,
    closed_form_majority_prob,
    exact_majority_prob,
    monte_carlo_majority_prob,
    normal_approx_prob,
    scaling_curve,
    simulate_vote,
    simulate_votes,
    standard_normal_cdf,
    vote_probability,
)


def simplex3(draw_floats):
    """hypothesis helper: three positive weights normalized to a distribution."""
    a, b, c = draw_floats
    total = a + b + c
    return (a / total, b / total, c / total)


class TestExactAgainstBruteForce:
    """The composition-table estimator must match raw sequence enumeration."""

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
        probs = tuple([0.2] + [0.1] * 8)
        with pytest.raises(CapExceeded):
            exact_majority_prob(AnswerDistribution(probs), 3)

    def test_n_above_cap(self):
        with pytest.raises(CapExceeded):
            exact_majority_prob(AnswerDistribution((0.6, 0.4)), 61)

    def test_caps_are_parameters(self):
        d = AnswerDistribution((0.6, 0.4))
        value = exact_majority_prob(d, 101, max_n=101).value
        assert 0.97 < value < 1.0

    def test_term_budget(self):
        probs = (0.3,) + (0.1,) * 7
        with pytest.raises(CapExceeded):
            exact_majority_prob(AnswerDistribution(probs), 60)

    def test_zero_prob_answers_do_not_count_against_cap(self):
        probs = tuple([0.5, 0.5] + [0.0] * 10)
        assert exact_majority_prob(AnswerDistribution(probs), 3).value == pytest.approx(
            0.5, abs=1e-12
        )

    def test_fallback_dispatch(self):
        d = AnswerDistribution((0.6, 0.4))
        with pytest.raises(CapExceeded):
            vote_probability(d, 99, "exact")
        vp = vote_probability(d, 99, "exact", fallback=True)
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
            dist, n = random_case(rng, 8, 40)
            got = exact_majority_prob(dist, n, max_n=40, max_terms=10**12).value
            assert got == pytest.approx(direct_dp_vote_prob(dist, n), abs=1e-12)

    def test_large_n(self):
        value = exact_majority_prob(AnswerDistribution((0.36, 0.34, 0.30)), 1000, max_n=1000).value
        assert value == pytest.approx(0.7728315102, abs=1e-9)

    def test_one_sample_is_the_correct_probability(self):
        for probs, correct in [((0.3, 0.45, 0.25), 1), ((0.1, 0.0, 0.9), 0), ((0.2,) * 5, 3)]:
            dist = AnswerDistribution(probs, correct)
            assert exact_majority_prob(dist, 1).value == dist.correct_prob

    def test_one_sample_still_respects_the_answer_cap(self):
        with pytest.raises(CapExceeded):
            exact_majority_prob(AnswerDistribution((0.2,) + (0.1,) * 8), 1)

    def test_memory_is_bounded(self):
        dist = AnswerDistribution((0.3,) + (0.1,) * 7)
        tracemalloc.start()
        try:
            exact_majority_prob(dist, 21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
    def test_single_vote_range_and_determinism(self):
        d = AnswerDistribution((0.5, 0.3, 0.2))
        rng = np.random.default_rng(7)
        winners = [simulate_vote(d, 5, rng) for _ in range(50)]
        assert all(0 <= w < 3 for w in winners)
        rng2 = np.random.default_rng(7)
        assert winners == [simulate_vote(d, 5, rng2) for _ in range(50)]

    def test_single_vote_is_a_one_trial_batch(self):
        d = AnswerDistribution((0.4, 0.3, 0.3))
        rng, batch_rng = np.random.default_rng(5), np.random.default_rng(5)
        for n in (1, 2, 4, 7):
            assert simulate_vote(d, n, rng) == simulate_votes(d, n, 1, batch_rng)[0]

    def test_batch_matches_scalar_rate(self):
        """The vectorized voter must be equal in distribution to the scalar
        one: success rates agree within Monte Carlo noise."""
        d = AnswerDistribution((0.45, 0.35, 0.2))
        n, trials = 5, 20_000
        rng = np.random.default_rng(11)
        scalar_rate = sum(simulate_vote(d, n, rng) == 0 for _ in range(trials)) / trials
        batch_rate = float(
            (simulate_votes(d, n, trials, np.random.default_rng(13)) == 0).mean()
        )
        exact = exact_majority_prob(d, n).value
        assert abs(scalar_rate - exact) < 5 * math.sqrt(exact * (1 - exact) / trials)
        assert abs(batch_rate - exact) < 5 * math.sqrt(exact * (1 - exact) / trials)

    def test_tie_breaking_is_uniform(self):
        d = AnswerDistribution((0.5, 0.5))
        winners = simulate_votes(d, 2, 40_000, np.random.default_rng(3))
        # half the trials split 1-1 and the coin decides; overall P(win)=0.5
        rate = float((winners == 0).mean())
        assert rate == pytest.approx(0.5, abs=0.01)

    def test_batch_winners_are_pinned(self):
        """Pinned winners: the multinomial draws and the tie-break scores
        keep their order in the random stream."""
        rng = np.random.default_rng(5)
        winners = simulate_votes(AnswerDistribution((0.4, 0.3, 0.3)), 4, 20, rng)
        assert winners.tolist() == [
            1, 0, 1, 2, 1, 0, 1, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 1
        ]
        rng = np.random.default_rng(9)
        winners = simulate_votes(AnswerDistribution((0.25,) * 4), 2, 20, rng)
        assert winners.tolist() == [
            2, 1, 1, 3, 3, 0, 2, 3, 1, 0, 1, 2, 2, 3, 2, 3, 0, 1, 0, 0
        ]

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

    def test_rejects_bad_arguments(self):
        d = AnswerDistribution((0.6, 0.4))
        with pytest.raises(ValueError):
            monte_carlo_majority_prob(d, 0, 100, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_majority_prob(d, 3, 0, seed=0)


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

    def test_fallback_only_when_enabled(self):
        d = AnswerDistribution((0.6, 0.4))
        with pytest.raises(CapExceeded):
            scaling_curve(d, [5, 101], "exact")
        curve = scaling_curve(d, [5, 101], "exact", fallback=True)
        assert curve.points[0].method == "exact"
        assert curve.points[1].method == "normal_approx"

    def test_monte_carlo_points_are_independent_and_reproducible(self):
        d = AnswerDistribution((0.6, 0.2, 0.2))
        a = scaling_curve(d, [1, 3, 5], "mc", trials=5_000, seed=9)
        b = scaling_curve(d, [1, 3, 5], "mc", trials=5_000, seed=9)
        assert a.values == b.values
        single = monte_carlo_majority_prob(
            d, 3, 5_000, np.random.SeedSequence(9).spawn(3)[1]
        )
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
