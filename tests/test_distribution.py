"""Validation behavior of the core value types."""
import dataclasses
import math
import re

import numpy as np
import pytest

from votescale import AnswerDistribution, InvalidDistribution, VoteProbability


class TestAnswerDistribution:
    def test_accepts_valid_distribution(self):
        d = AnswerDistribution((0.64, 0.35, 0.01), 0)
        assert d.m == 3
        assert d.correct_prob == 0.64
        assert d.max_wrong_prob == 0.35

    def test_correct_index_defaults_to_zero(self):
        assert AnswerDistribution((0.7, 0.3)).correct_index == 0

    def test_correct_first_reorders(self):
        d = AnswerDistribution((0.2, 0.5, 0.3), 1)
        assert d.correct_first() == (0.5, 0.2, 0.3)
        assert d.correct_prob == 0.5
        assert d.max_wrong_prob == 0.3

    def test_max_wrong_prob_without_wrong_answers(self):
        assert AnswerDistribution((1.0,), 0).max_wrong_prob == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidDistribution):
            AnswerDistribution((0.5, 0.4), 0)

    def test_accepts_sum_within_tolerance(self):
        AnswerDistribution((0.5, 0.5 + 5e-10), 0)

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidDistribution):
            AnswerDistribution((1.1, -0.1), 0)

    @pytest.mark.parametrize(
        "probs, named",
        [
            ((0.5, math.nan), "probs[1] = nan"),
            ((math.inf, 0.5), "probs[0] = inf"),
            ((math.nan, -math.inf, 1.0), "probs[0] = nan, probs[1] = -inf"),
        ],
    )
    def test_rejects_non_finite_entries_by_name(self, probs, named):
        with pytest.raises(InvalidDistribution, match=f"non-finite probability: {re.escape(named)}$"):
            AnswerDistribution(probs, 0)

    def test_rejects_entry_too_large_for_a_double(self):
        with pytest.raises(InvalidDistribution, match="^a probability is too large for a double$"):
            AnswerDistribution((0.5, 10**400), 0)

    def test_rejects_entries_whose_sum_overflows(self):
        with pytest.raises(InvalidDistribution, match="^probabilities sum to more than the largest double, not 1$"):
            AnswerDistribution((1e308, 1e308), 0)

    def test_rejects_bad_index(self):
        with pytest.raises(InvalidDistribution):
            AnswerDistribution((0.5, 0.5), 2)
        with pytest.raises(InvalidDistribution):
            AnswerDistribution((0.5, 0.5), -1)
        with pytest.raises(InvalidDistribution, match="correct_index 1.0 is not an integer"):
            AnswerDistribution((0.6, 0.4), 1.0)
        assert AnswerDistribution((0.6, 0.4), np.int64(1)).correct_prob == 0.4

    def test_rejects_empty(self):
        with pytest.raises(InvalidDistribution):
            AnswerDistribution((), 0)

    def test_allows_zero_probability_answers(self):
        d = AnswerDistribution((0.0, 1.0, 0.0), 0)
        assert d.correct_prob == 0.0
        assert d.max_wrong_prob == 1.0

    def test_immutable(self):
        d = AnswerDistribution((0.5, 0.5), 0)
        with pytest.raises(AttributeError):
            d.correct_index = 1

    def test_hash_and_equality_follow_the_fields(self):
        d = AnswerDistribution([0.25, 0.75], np.int64(1))
        same = AnswerDistribution((0.25, 0.75), 1)
        assert d == same and hash(d) == hash(same) == hash(((0.25, 0.75), 1))
        assert d != AnswerDistribution((0.25, 0.75), 0)
        assert repr(d) == "AnswerDistribution(probs=(0.25, 0.75), correct_index=1)"
        assert [f.name for f in dataclasses.fields(d)] == ["probs", "correct_index"]
        assert dataclasses.asdict(d) == {"probs": (0.25, 0.75), "correct_index": 1}

    def test_max_wrong_prob_is_computed_once(self):
        d = AnswerDistribution((0.2, 0.5, 0.3), 1)
        assert d.max_wrong_prob == 0.3
        assert dataclasses.replace(d, correct_index=2).max_wrong_prob == 0.5
        assert [f.name for f in dataclasses.fields(d)] == ["probs", "correct_index"]
        # kept from construction: it no longer reads the fields
        object.__setattr__(d, "probs", None)
        assert d.max_wrong_prob == 0.3


class TestVoteProbability:
    def test_valid_point(self):
        vp = VoteProbability(0.7, "exact", 3)
        assert vp.stderr is None

    def test_monte_carlo_requires_stderr(self):
        with pytest.raises(ValueError):
            VoteProbability(0.7, "monte_carlo", 3)
        VoteProbability(0.7, "monte_carlo", 3, stderr=0.01)

    def test_non_monte_carlo_rejects_stderr(self):
        with pytest.raises(ValueError):
            VoteProbability(0.7, "exact", 3, stderr=0.01)

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            VoteProbability(1.2, "exact", 3)
        with pytest.raises(ValueError):
            VoteProbability(-0.1, "exact", 3)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            VoteProbability(0.5, "guesswork", 3)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            VoteProbability(0.5, "exact", 0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            VoteProbability(math.nan, "exact", 3)
