"""Log parsing, distribution estimation from pools, replay, and cost."""
import json
import math

import numpy as np
import pytest

from votescale import (
    CostModel,
    Difficulty,
    DuplicateKey,
    MalformedLine,
    MissingGroundTruth,
    NotEnoughSamples,
    QuestionSamples,
    SampleRecord,
    UNPARSEABLE,
    answer_support,
    classify,
    cost_of,
    estimate_distribution,
    exact_majority_prob,
    group_records,
    load_ground_truth,
    mean_replay_accuracy,
    monte_carlo_majority_prob,
    parse_log,
    parse_records,
    replay_majority,
)


def record_line(qid="q1", sid="s1", idx=0, answer="42", pt=100, ct=50):
    return json.dumps(
        {
            "question_id": qid,
            "strategy_id": sid,
            "sample_index": idx,
            "answer": answer,
            "prompt_tokens": pt,
            "completion_tokens": ct,
        }
    )


def pool(answers, correct="a", pt=100.0, ct=50.0):
    return QuestionSamples(
        question_id="q1",
        strategy_id="s1",
        correct_answer=correct,
        answers=tuple(answers),
        mean_prompt_tokens=pt,
        mean_completion_tokens=ct,
    )


class TestParseRecords:
    def test_round_trip(self):
        lines = [record_line(idx=0), record_line(idx=1, answer="43")]
        records = parse_records(lines)
        assert records == [
            SampleRecord("q1", "s1", 0, "42", 100, 50),
            SampleRecord("q1", "s1", 1, "43", 100, 50),
        ]

    def test_blank_lines_skipped_but_numbering_kept(self):
        lines = ["", record_line(), "   ", "not json"]
        with pytest.raises(MalformedLine) as err:
            parse_records(lines)
        assert err.value.line_number == 4
        assert "line 4" in str(err.value)

    def test_missing_field(self):
        obj = json.loads(record_line())
        del obj["answer"]
        with pytest.raises(MalformedLine, match="missing fields: answer"):
            parse_records([json.dumps(obj)])

    def test_extra_field(self):
        obj = json.loads(record_line())
        obj["temperature"] = 0.7
        with pytest.raises(MalformedLine, match="unexpected fields: temperature"):
            parse_records([json.dumps(obj)])

    def test_type_errors(self):
        obj = json.loads(record_line())
        obj["sample_index"] = "zero"
        with pytest.raises(MalformedLine, match="sample_index"):
            parse_records([json.dumps(obj)])
        obj = json.loads(record_line())
        obj["prompt_tokens"] = -3
        with pytest.raises(MalformedLine, match="prompt_tokens"):
            parse_records([json.dumps(obj)])
        obj = json.loads(record_line())
        obj["prompt_tokens"] = True
        with pytest.raises(MalformedLine, match="prompt_tokens"):
            parse_records([json.dumps(obj)])
        obj = json.loads(record_line())
        obj["question_id"] = 7
        with pytest.raises(MalformedLine, match="question_id"):
            parse_records([json.dumps(obj)])

    def test_non_object_line(self):
        with pytest.raises(MalformedLine, match="JSON object"):
            parse_records(["[1, 2, 3]"])

    def test_null_and_empty_answers_become_sentinel(self):
        lines = [record_line(idx=0, answer=None), record_line(idx=1, answer="")]
        records = parse_records(lines)
        assert records[0].answer == UNPARSEABLE
        assert records[1].answer == ""  # empty survives parsing; grouping maps it

    def test_numeric_answer_rejected(self):
        obj = json.loads(record_line())
        obj["answer"] = 42
        with pytest.raises(MalformedLine, match="answer"):
            parse_records([json.dumps(obj)])


class TestGroundTruth:
    def test_round_trip(self):
        lines = [
            json.dumps({"question_id": "q1", "correct_answer": "42"}),
            json.dumps({"question_id": "q2", "correct_answer": "7"}),
        ]
        assert load_ground_truth(lines) == {"q1": "42", "q2": "7"}

    def test_duplicate(self):
        line = json.dumps({"question_id": "q1", "correct_answer": "42"})
        with pytest.raises(DuplicateKey):
            load_ground_truth([line, line])

    def test_empty_or_sentinel_correct_rejected(self):
        with pytest.raises(MalformedLine):
            load_ground_truth([json.dumps({"question_id": "q", "correct_answer": ""})])
        with pytest.raises(MalformedLine):
            load_ground_truth(
                [json.dumps({"question_id": "q", "correct_answer": UNPARSEABLE})]
            )


class TestGrouping:
    TRUTH = {"q1": "42", "q2": "7"}

    def test_groups_and_orders_by_sample_index(self):
        lines = [
            record_line(idx=2, answer="41", pt=120, ct=60),
            record_line(idx=0, answer="42", pt=80, ct=40),
            record_line(idx=1, answer="42", pt=100, ct=50),
            record_line(qid="q2", sid="s2", idx=0, answer="7"),
        ]
        groups = parse_log(lines, self.TRUTH)
        assert set(groups) == {("q1", "s1"), ("q2", "s2")}
        g = groups[("q1", "s1")]
        assert g.answers == ("42", "42", "41")
        assert g.correct_answer == "42"
        assert g.mean_prompt_tokens == pytest.approx(100.0)
        assert g.mean_completion_tokens == pytest.approx(50.0)
        assert g.pool_size == 3

    def test_duplicate_key(self):
        lines = [record_line(idx=0), record_line(idx=0)]
        with pytest.raises(DuplicateKey):
            parse_log(lines, self.TRUTH)
        lines = [record_line(idx=0), record_line(idx=1), record_line(idx=0)]
        with pytest.raises(DuplicateKey, match="'q1', 's1', 0"):
            parse_log(lines, self.TRUTH)

    def test_missing_ground_truth(self):
        with pytest.raises(MissingGroundTruth, match="q9"):
            parse_log([record_line(qid="q9")], self.TRUTH)

    @pytest.mark.parametrize("correct", ["", UNPARSEABLE])
    def test_empty_or_sentinel_correct_rejected(self, correct):
        """Either value would score the unparseable samples as correct."""
        lines = [record_line(idx=i, answer=a) for i, a in enumerate(["", "a", ""])]
        with pytest.raises(MissingGroundTruth, match="question 'q1'"):
            parse_log(lines, {"q1": correct})
        with pytest.raises(MissingGroundTruth, match="question 'q1'"):
            group_records(parse_records(lines), {"q1": correct})

    def test_empty_answer_groups_to_sentinel(self):
        lines = [record_line(idx=0, answer="")]
        groups = parse_log(lines, self.TRUTH)
        assert groups[("q1", "s1")].answers == (UNPARSEABLE,)

    def test_null_and_empty_answers_group_to_one_sentinel_without_a_hook(self):
        answers = [None, "", "x", "x", None, ""]
        lines = [record_line(idx=i, answer=a) for i, a in enumerate(answers)]
        g = parse_log(lines, {"q1": "x"})[("q1", "s1")]
        assert g.answers == (UNPARSEABLE, UNPARSEABLE, "x", "x", UNPARSEABLE, UNPARSEABLE)
        dist = estimate_distribution(g)
        assert dist.probs == pytest.approx((2 / 3, 1 / 3))
        assert dist.correct_index == 1
        assert classify(dist).kind is Difficulty.HARD

    def test_token_means_are_exact_integer_sums(self):
        big = 2**53
        lines = [record_line(idx=0, pt=big, ct=0), record_line(idx=1, pt=1), record_line(idx=2, pt=1)]
        g = parse_log(lines, self.TRUTH)[("q1", "s1")]
        assert g.mean_prompt_tokens == (big + 2) / 3  # a float sum loses both 1s
        assert g.mean_completion_tokens == 100 / 3


class TestEstimateDistribution:
    def test_simple_counts(self):
        dist = estimate_distribution(pool(["a", "a", "a", "b"]))
        assert dist.probs == (0.75, 0.25)
        assert dist.correct_index == 0

    def test_support_order_is_first_appearance(self):
        dist = estimate_distribution(pool(["b", "a", "b", "c"], correct="a"))
        assert answer_support(pool(["b", "a", "b", "c"])) == ("b", "a", "c")
        assert dist.probs == (0.5, 0.25, 0.25)
        assert dist.correct_index == 1

    def test_never_sampled_correct_is_appended_with_zero(self):
        dist = estimate_distribution(pool(["8"] * 40, correct="7"))
        assert dist.probs == (1.0, 0.0)
        assert dist.correct_index == 1
        assert classify(dist).kind is Difficulty.HARD

    def test_larger_pool(self):
        dist = estimate_distribution(pool(["7"] * 24 + ["8"] * 16, correct="7"))
        assert dist.probs == pytest.approx((0.6, 0.4), abs=1e-15)

    def test_smoothing(self):
        dist = estimate_distribution(pool(["a", "a", "a", "b"]), smoothing=1.0)
        assert dist.probs == pytest.approx((4 / 6, 2 / 6), abs=1e-15)
        with pytest.raises(ValueError):
            estimate_distribution(pool(["a"]), smoothing=-0.1)

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf])
    def test_non_finite_smoothing_rejected(self, smoothing):
        with pytest.raises(ValueError, match="smoothing must be a finite number >= 0"):
            estimate_distribution(pool(["a", "b"]), smoothing=smoothing)

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            estimate_distribution(pool([]))

    def test_unparseable_is_a_wrong_answer(self):
        dist = estimate_distribution(pool([UNPARSEABLE, "a", "a", "a"]))
        assert dist.correct_prob == 0.75
        assert classify(dist).kind is Difficulty.EASY


class TestReplay:
    def test_unanimous_pool(self):
        assert replay_majority(pool(["a"] * 10), 3, 200, seed=0) == 1.0
        assert replay_majority(pool(["b"] * 10, correct="a"), 3, 200, seed=0) == 0.0

    def test_forced_tie_breaks_evenly(self):
        value = replay_majority(pool(["a", "b"]), 2, 40_000, seed=1)
        assert value == pytest.approx(0.5, abs=0.01)

    def test_pool_too_small(self):
        with pytest.raises(NotEnoughSamples):
            replay_majority(pool(["a", "b"]), 3, 10, seed=0)

    def test_full_pool_vote_is_deterministic(self):
        p = pool(["a", "a", "b"])
        assert replay_majority(p, 3, 50, seed=3) == 1.0

    def test_matches_exact_rate_for_big_pool(self):
        """A 100-sample pool at the same frequencies replays close to the
        closed-book vote probability for a small n."""
        p = pool(["a"] * 64 + ["b"] * 35 + ["c"] * 1)
        value = replay_majority(p, 3, 30_000, seed=7)
        assert value == pytest.approx(0.709, abs=0.05)

    def test_converges_to_exact_with_huge_pool(self):
        rng = np.random.default_rng(11)
        answers = rng.choice(["a", "b", "c"], size=10_000, p=[0.6, 0.2, 0.2])
        p = pool(answers.tolist())
        want = exact_majority_prob(estimate_distribution(p), 5).value
        got = replay_majority(p, 5, 40_000, seed=13)
        assert got == pytest.approx(want, abs=0.02)

    def test_deterministic_under_seed(self):
        p = pool(["a", "a", "b", "c", "a", "b"])
        a = replay_majority(p, 3, 5_000, seed=21)
        b = replay_majority(p, 3, 5_000, seed=21)
        assert a == b

    def test_replay_stream_is_pinned(self):
        """Pinned values: changes to the counting or tie-break code must not
        change the random stream a seeded replay consumes."""
        p = pool(list("aabbbcacbd"))
        got = [replay_majority(p, n, 1000, seed=3) for n in (1, 4, 7)]
        assert got == [0.315, 0.303, 0.286]

    def test_argument_validation(self):
        p = pool(["a", "b", "c"])
        with pytest.raises(ValueError):
            replay_majority(p, 0, 10, seed=0)
        with pytest.raises(ValueError):
            replay_majority(p, 1, 0, seed=0)

    @pytest.mark.parametrize(
        "trials, message",
        [
            (2.5, "trials must be an integer, got 2.5"),
            ("3", "trials must be an integer, got '3'"),
            (0, "trials must be >= 1"),
        ],
        ids=["float", "str", "zero"],
    )
    @pytest.mark.parametrize("estimate", ["replay", "monte_carlo"])
    def test_trials_must_be_a_positive_integer(self, estimate, trials, message):
        p = pool(["a", "b", "a"])
        with pytest.raises(ValueError, match=message):
            if estimate == "replay":
                replay_majority(p, 1, trials, seed=0)
            else:
                monte_carlo_majority_prob(estimate_distribution(p), 3, trials, 0)

    def test_mean_over_pools(self):
        groups = [pool(["a"] * 5), pool(["b"] * 5, correct="a")]
        assert mean_replay_accuracy(groups, 3, 100, seed=0) == 0.5
        with pytest.raises(ValueError):
            mean_replay_accuracy([], 3, 100, seed=0)

    def test_mean_is_batch_invariant(self):
        groups = [pool(["a", "a", "b"]), pool(["a", "b", "b"])]
        a = mean_replay_accuracy(groups, 3, 2_000, seed=9)
        b = mean_replay_accuracy(groups, 3, 2_000, seed=9)
        assert a == b


class TestCost:
    def test_default_style_prices(self):
        model = CostModel.from_per_million(0.15, 0.60)
        p = pool(["a"], pt=1000.0, ct=500.0)
        assert cost_of(p, 1, model) == pytest.approx(0.00045, abs=1e-15)
        assert cost_of(p, 10, model) == pytest.approx(0.0045, abs=1e-15)

    def test_linear_in_n(self):
        model = CostModel(2e-7, 8e-7)
        p = pool(["a"], pt=321.0, ct=123.0)
        assert cost_of(p, 7, model) == pytest.approx(7 * cost_of(p, 1, model))

    def test_zero_prices(self):
        model = CostModel(0.0, 0.0)
        assert cost_of(pool(["a"]), 5, model) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(-1e-6, 0.0)
        with pytest.raises(ValueError):
            cost_of(pool(["a"]), 0, CostModel(1e-6, 1e-6))

    def test_record_validation(self):
        with pytest.raises(ValueError):
            SampleRecord("q", "s", -1, "a", 0, 0)
        with pytest.raises(ValueError):
            SampleRecord("q", "s", 0, "a", -5, 0)
