"""Difficulty labels, limiting accuracy, crossover detection, and KL spread."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import N_PAST_EXACT_CAP, brute_force_vote_prob, constructed_moderate, random_easy, random_hard
from votescale import (
    AnswerDistribution,
    CrossoverVerdict,
    Difficulty,
    DifficultyLabel,
    NoWrongMass,
    classify,
    crossover_condition,
    exact_majority_prob,
    find_crossover_n,
    kl_to_uniform,
    limit_prob,
)

import numpy as np


class TestClassify:
    def test_easy(self):
        label = classify(AnswerDistribution((0.64, 0.35, 0.01)))
        assert label.kind is Difficulty.EASY
        assert label.tie_count == 1

    def test_hard(self):
        label = classify(AnswerDistribution((0.4, 0.45, 0.15)))
        assert label.kind is Difficulty.HARD
        assert label.tie_count == 1

    def test_moderate_two_way(self):
        label = classify(AnswerDistribution((0.4, 0.4, 0.2)))
        assert label.kind is Difficulty.MODERATE
        assert label.tie_count == 2

    def test_moderate_three_way(self):
        label = classify(AnswerDistribution((0.25, 0.25, 0.25, 0.25), 3))
        assert label.kind is Difficulty.MODERATE
        assert label.tie_count == 4

    def test_certain_answer_is_easy(self):
        assert classify(AnswerDistribution((1.0, 0.0))).kind is Difficulty.EASY
        assert classify(AnswerDistribution((1.0,))).kind is Difficulty.EASY

    def test_impossible_answer_is_hard(self):
        assert classify(AnswerDistribution((0.0, 1.0))).kind is Difficulty.HARD

    def test_tolerance_merges_near_ties(self):
        near = AnswerDistribution((0.4 + 5e-13, 0.4 - 5e-13, 0.2))
        assert classify(near).kind is Difficulty.MODERATE
        apart = AnswerDistribution((0.4 + 5e-9, 0.4 - 5e-9, 0.2))
        assert classify(apart).kind is Difficulty.EASY
        assert classify(apart, tolerance=2e-8).kind is Difficulty.MODERATE

    def test_label_invariants(self):
        with pytest.raises(ValueError):
            DifficultyLabel(Difficulty.EASY, 2)
        with pytest.raises(ValueError):
            DifficultyLabel(Difficulty.MODERATE, 1)
        with pytest.raises(ValueError):
            DifficultyLabel(Difficulty.HARD, 0)


class TestLimitProb:
    def test_easy_limit_is_one(self):
        assert limit_prob(AnswerDistribution((0.64, 0.35, 0.01))) == 1.0

    def test_hard_limit_is_zero(self):
        assert limit_prob(AnswerDistribution((0.4, 0.45, 0.15))) == 0.0

    def test_moderate_limit_is_tie_share(self):
        assert limit_prob(AnswerDistribution((0.4, 0.4, 0.2))) == 0.5
        assert limit_prob(AnswerDistribution((0.25, 0.25, 0.25, 0.25), 1)) == 0.25

    def test_limit_is_where_exact_heads(self):
        """Large-n exact values should approach the labeled limit."""
        for dist, lim in [
            (AnswerDistribution((0.64, 0.35, 0.01)), 1.0),
            (AnswerDistribution((0.4, 0.45, 0.15)), 0.0),
            (AnswerDistribution((0.4, 0.4, 0.2)), 0.5),
        ]:
            far = exact_majority_prob(dist, 59).value
            near = exact_majority_prob(dist, 9).value
            assert abs(far - lim) < abs(near - lim)


class TestCrossover:
    AHEAD = AnswerDistribution((0.6, 0.2, 0.2))
    BEHIND = AnswerDistribution((0.64, 0.35, 0.01))

    def test_condition_holds_for_late_bloomer(self):
        # BEHIND starts ahead at n=1 but has the smaller top-two margin,
        # so more voting eventually favors it.
        assert crossover_condition(behind=self.AHEAD, ahead=self.BEHIND)

    def test_condition_is_directional(self):
        assert not crossover_condition(behind=self.BEHIND, ahead=self.AHEAD)

    def test_condition_needs_strict_inequalities(self):
        d = AnswerDistribution((0.6, 0.3, 0.1))
        assert not crossover_condition(behind=d, ahead=d)

    def test_condition_matches_the_papers_form(self):
        """The condition as the paper writes it, gap = p1 - pq and
        v = p1 + pq - p1^2 - pq^2, on seeded random pairs whose terms differ
        by far more than rounding, and on criterion 2's pair."""

        def terms(d):
            p1, pq = d.correct_prob, d.max_wrong_prob
            return p1 - pq, p1 + pq - p1**2 - pq**2

        rng = np.random.default_rng(20250)
        pairs = [(self.AHEAD, self.BEHIND), (self.BEHIND, self.AHEAD)]
        while len(pairs) < 1000:
            behind, ahead = (
                AnswerDistribution(tuple(rng.dirichlet(np.ones(m))), int(rng.integers(m)))
                for m in rng.integers(2, 7, size=2)
            )
            (gap_b, v_b), (gap_a, v_a) = terms(behind), terms(ahead)
            if abs(gap_a - gap_b) > 1e-9 and abs(v_a - v_b) > 1e-9:
                pairs.append((behind, ahead))
        verdicts = [crossover_condition(behind, ahead) for behind, ahead in pairs]
        papers = []
        for behind, ahead in pairs:
            (gap_b, v_b), (gap_a, v_a) = terms(behind), terms(ahead)
            papers.append(gap_a < gap_b and v_a > v_b)
        assert verdicts == papers
        assert verdicts[:2] == [True, False]
        assert 50 < sum(verdicts) < 950

    def test_crossover_point_on_grid(self):
        verdict = find_crossover_n(self.AHEAD, self.BEHIND, [1, 3, 5, 7])
        assert isinstance(verdict, CrossoverVerdict)
        assert verdict.condition_holds
        assert verdict.crossover_n == 5

    def test_reversed_pair_leads_from_the_start(self):
        # The scan is mechanical: with the roles swapped the first argument
        # already leads at the first grid point, but the sufficient
        # condition correctly refuses to call it an overtake.
        verdict = find_crossover_n(self.BEHIND, self.AHEAD, [1, 3, 5, 7])
        assert not verdict.condition_holds
        assert verdict.crossover_n == 1

    def test_never_ahead_gives_none(self):
        weak = AnswerDistribution((0.55, 0.45))
        strong = AnswerDistribution((0.9, 0.1))
        verdict = find_crossover_n(weak, strong, [1, 3, 5, 7, 15, 31])
        assert not verdict.condition_holds
        assert verdict.crossover_n is None

    def test_crossover_not_reached_on_short_grid(self):
        verdict = find_crossover_n(self.AHEAD, self.BEHIND, [1, 3])
        assert verdict.condition_holds
        assert verdict.crossover_n is None

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            find_crossover_n(self.AHEAD, self.BEHIND, [])
        with pytest.raises(ValueError):
            find_crossover_n(self.AHEAD, self.BEHIND, [3, 1])

    def test_fallback_controls_large_n(self):
        from votescale import CapExceeded

        grid = [1, 3, N_PAST_EXACT_CAP]
        verdict = find_crossover_n(self.AHEAD, self.BEHIND, grid)
        assert verdict.crossover_n is not None
        with pytest.raises(CapExceeded):
            find_crossover_n(self.AHEAD, self.BEHIND, grid, fallback=False)


class TestKL:
    def test_worked_value(self):
        # wrong mass (0.35, 0.01) renormalized is (35/36, 1/36); against the
        # uniform pair this gives 0.9722*ln(1.9444) + 0.0278*ln(0.0556)
        d = AnswerDistribution((0.64, 0.35, 0.01))
        q1, q2 = 35 / 36, 1 / 36
        want = q1 * math.log(2 * q1) + q2 * math.log(2 * q2)
        got = kl_to_uniform(d)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.566217, abs=1e-6)

    def test_uniform_wrong_mass_is_zero(self):
        assert kl_to_uniform(AnswerDistribution((0.6, 0.2, 0.2))) == 0.0

    def test_zero_prob_wrong_answers_are_excluded(self):
        with_pad = kl_to_uniform(AnswerDistribution((0.6, 0.3, 0.1, 0.0)))
        without = kl_to_uniform(AnswerDistribution((0.6, 0.3, 0.1)))
        assert with_pad == pytest.approx(without, abs=1e-15)

    def test_single_wrong_answer_is_zero(self):
        assert kl_to_uniform(AnswerDistribution((0.7, 0.3))) == 0.0

    def test_no_wrong_mass(self):
        with pytest.raises(NoWrongMass):
            kl_to_uniform(AnswerDistribution((1.0, 0.0)))
        with pytest.raises(NoWrongMass):
            kl_to_uniform(AnswerDistribution((1.0,)))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(0.001, 1.0), min_size=3, max_size=6),
        st.floats(0.05, 0.9),
    )
    def test_nonnegative(self, weights, correct_mass):
        total = sum(weights)
        wrongs = [w / total * (1 - correct_mass) for w in weights]
        dist = AnswerDistribution((correct_mass, *wrongs))
        assert kl_to_uniform(dist) >= 0.0


class TestGeneratedPanels:
    """The sampling helpers in conftest must produce what they promise."""

    def test_easy_panel(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = random_easy(rng, 4)
            assert classify(d).kind is Difficulty.EASY

    def test_hard_panel(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = random_hard(rng, 4)
            assert classify(d).kind is Difficulty.HARD
            assert limit_prob(d) == 0.0

    def test_moderate_panel(self):
        rng = np.random.default_rng(2)
        for ties in (2, 3):
            for _ in range(25):
                d = constructed_moderate(rng, 5, ties)
                label = classify(d)
                assert label.kind is Difficulty.MODERATE
                assert label.tie_count == ties
                assert limit_prob(d) == pytest.approx(1 / ties)
