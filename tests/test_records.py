"""Log parsing, distribution estimation from pools, replay, and cost."""
import itertools
import json
import math
import string
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import votescale.records as records_module

from conftest import ANSWER_CAP_MESSAGE, N_CAP_MESSAGE, N_PAST_EXACT_CAP, chunk_rows, dft_length
from votescale import (
    CapExceeded,
    CostModel,
    Difficulty,
    DuplicateKey,
    MalformedLine,
    MissingGroundTruth,
    NotEnoughSamples,
    QuestionSamples,
    SampleRecord,
    UNPARSEABLE,
    VoteScaleError,
    answer_support,
    classify,
    estimate_distribution,
    exact_majority_prob,
    group_logs,
    group_records,
    load_ground_truth,
    mean_replay_accuracy,
    monte_carlo_majority_prob,
    parse_records,
    replay_majority,
    scaling_curve,
)
from votescale import votemath
from votescale.records import _RECORD_FIELDS, _json_lines
from votescale.votemath import EXACT_MAX_ANSWERS, _modal_winners, check_trials


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
        groups = group_logs([("log", lines)], self.TRUTH)
        assert set(groups) == {("q1", "s1"), ("q2", "s2")}
        g = groups[("q1", "s1")]
        assert g.answers == ("42", "42", "41")
        assert g.correct_answer == "42"
        assert g.mean_prompt_tokens == pytest.approx(100.0)
        assert g.mean_completion_tokens == pytest.approx(50.0)
        assert len(g.answers) == 3

    def test_duplicate_key(self):
        lines = [record_line(idx=0), record_line(idx=0)]
        with pytest.raises(DuplicateKey):
            group_logs([("log", lines)], self.TRUTH)
        lines = [record_line(idx=0), record_line(idx=1), record_line(idx=0)]
        with pytest.raises(DuplicateKey, match="'q1', 's1', 0"):
            group_logs([("log", lines)], self.TRUTH)

    def test_missing_ground_truth(self):
        with pytest.raises(MissingGroundTruth, match="q9"):
            group_logs([("log", [record_line(qid="q9")])], self.TRUTH)

    @pytest.mark.parametrize("correct", ["", UNPARSEABLE])
    def test_empty_or_sentinel_correct_rejected(self, correct):
        """Either value would score the unparseable samples as correct."""
        lines = [record_line(idx=i, answer=a) for i, a in enumerate(["", "a", ""])]
        with pytest.raises(MissingGroundTruth, match="question 'q1'"):
            group_logs([("log", lines)], {"q1": correct})
        with pytest.raises(MissingGroundTruth, match="question 'q1'"):
            group_records(parse_records(lines), {"q1": correct})

    def test_empty_answer_groups_to_sentinel(self):
        lines = [record_line(idx=0, answer="")]
        groups = group_logs([("log", lines)], self.TRUTH)
        assert groups[("q1", "s1")].answers == (UNPARSEABLE,)

    def test_null_and_empty_answers_group_to_one_sentinel_without_a_hook(self):
        answers = [None, "", "x", "x", None, ""]
        lines = [record_line(idx=i, answer=a) for i, a in enumerate(answers)]
        g = group_logs([("log", lines)], {"q1": "x"})[("q1", "s1")]
        assert g.answers == (UNPARSEABLE, UNPARSEABLE, "x", "x", UNPARSEABLE, UNPARSEABLE)
        dist = estimate_distribution(g)
        assert dist.probs == pytest.approx((2 / 3, 1 / 3))
        assert dist.correct_index == 1
        assert classify(dist).kind is Difficulty.HARD

    def test_token_means_are_exact_integer_sums(self):
        big = 2**53
        lines = [record_line(idx=0, pt=big, ct=0), record_line(idx=1, pt=1), record_line(idx=2, pt=1)]
        g = group_logs([("log", lines)], self.TRUTH)[("q1", "s1")]
        assert g.mean_prompt_tokens == (big + 2) / 3  # a float sum loses both 1s
        assert g.mean_completion_tokens == 100 / 3


def record_at_a_time(logs, truth, truth_name):
    """The reference for :func:`group_logs`: every log parsed into records,
    then grouped; when grouping fails, a line-by-line scan names the first
    record in reading order whose question has no ground truth or whose key
    repeats an earlier one."""
    records = []
    for name, lines in logs:
        try:
            records += parse_records(lines)
        except MalformedLine as exc:
            raise VoteScaleError(f"{name}: {exc}") from None
    try:
        return group_records(records, truth)
    except (DuplicateKey, MissingGroundTruth):
        pass
    seen = {}
    for name, lines in logs:
        for line_number, obj in _json_lines(lines, _RECORD_FIELDS):
            where = f"{name}: line {line_number}"
            question_id = obj["question_id"]
            if question_id not in truth:
                raise MissingGroundTruth(
                    f"{where}: no correct answer for question {question_id!r} in {truth_name}"
                )
            key = (question_id, obj["strategy_id"], obj["sample_index"])
            if key in seen:
                raise DuplicateKey(
                    f"{where}: duplicate (question_id, strategy_id, sample_index): "
                    f"{key!r} (first at {seen[key]})"
                )
            seen[key] = where
    raise AssertionError("grouping failed without a bad record")


def traced_log_exact_grouping():
    """:func:`group_logs` of a log of the benchmark's log-exact shape, 3
    strategies x 300 questions x 64 samples, and its tracemalloc peak."""

    def lines():
        for s in range(3):
            for q in range(300):
                for i in range(64):
                    yield (
                        f'{{"question_id": "q{q:04d}", "strategy_id": "s{s}", '
                        f'"sample_index": {i}, "answer": "a{(i * 7 + q) % (2 + q % 4)}", '
                        f'"prompt_tokens": {60 + 40 * s}, "completion_tokens": {120 + 60 * s}}}'
                    )

    truth = {f"q{q:04d}": "a0" for q in range(300)}
    tracemalloc.start()
    try:
        groups = group_logs([("log", lines())], truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return groups, peak


def strings_of(groups):
    """Every string of a grouping, in order, and which of them are one object
    (each string's position mapped to the first position of its object)."""
    strings = []
    for key, samples in groups.items():
        strings += [*key, samples.question_id, samples.strategy_id, samples.correct_answer]
        strings += samples.answers
    first = {}
    return strings, [first.setdefault(id(x), k) for k, x in enumerate(strings)]


log_records = st.lists(
    st.tuples(
        st.sampled_from(["q0", "q1", "a"]),
        st.sampled_from(["s0", "s1", ""]),
        st.integers(0, 6),
        st.sampled_from([None, "", "a", "b", UNPARSEABLE, "q0", "s1"]),
        st.integers(0, 2**64),
        st.integers(0, 9),
    ),
    unique_by=lambda r: r[:3],
    max_size=40,
)


def log_lines(rows):
    return [record_line(q, s, i, a, p, c) for q, s, i, a, p, c in rows]


class TestGroupLogs:
    """The one pass against the record-at-a-time path it replaces."""

    TRUTH = {"q0": "a", "q1": "b", "a": "q0"}

    @staticmethod
    def split(lines, cuts, names=("a.jsonl", "b.jsonl", "c.jsonl")):
        bounds = [0, *sorted(cuts), len(lines)]
        return [(names[k], lines[lo:hi]) for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]

    @settings(max_examples=200, deadline=None)
    @given(
        rows=log_records,
        blanks=st.lists(st.integers(0, 45), max_size=3),
        cuts=st.lists(st.integers(0, 45), max_size=2),
        chunk=st.sampled_from([1, 2, 3, 5, 256]),
    )
    def test_equals_parse_then_group(self, rows, blanks, cuts, chunk):
        lines = log_lines(rows)
        for at in blanks:
            lines.insert(min(at, len(lines)), "  ")
        logs = self.split(lines, [min(c, len(lines)) for c in cuts])
        with mock.patch.object(records_module, "_CHUNK_LINES", chunk):
            got = group_logs(logs, self.TRUTH)
        want = group_records(parse_records(line for _, part in logs for line in part), self.TRUTH)
        assert list(got.items()) == list(want.items())
        assert strings_of(got) == strings_of(want)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=log_records,
        edits=st.lists(
            st.tuples(
                st.sampled_from(["repeat", "no truth", "bad json", "bad field"]),
                st.integers(0, 45),
                st.integers(0, 45),
            ),
            min_size=1,
            max_size=3,
        ),
        cuts=st.lists(st.integers(0, 50), max_size=2),
        chunk=st.sampled_from([1, 2, 3, 5, 256]),
    )
    def test_mutated_logs_fail_alike(self, rows, edits, cuts, chunk):
        lines = log_lines(rows)
        for kind, at, source in edits:
            at = min(at, len(lines))
            if kind == "repeat" and rows:
                q, s, i, _, p, c = rows[source % len(rows)]
                lines.insert(at, record_line(q, s, i, "changed", p, c))
            elif kind == "no truth":
                lines.insert(at, record_line("q9", "s0", source))
            elif kind == "bad json":
                lines.insert(at, "{")
            else:
                lines.insert(at, record_line("q0", "s0", -source - 1))
        logs = self.split(lines, [min(c, len(lines)) for c in cuts])
        with mock.patch.object(records_module, "_CHUNK_LINES", chunk):
            try:
                got = group_logs(logs, self.TRUTH, truth_name="truth.jsonl")
            except VoteScaleError as exc:
                got = str(exc)
            try:
                want = record_at_a_time(logs, self.TRUTH, "truth.jsonl")
            except VoteScaleError as exc:
                want = str(exc)
        assert got == want

    def test_errors_are_typed_and_name_both_lines(self):
        logs = [
            ("a.jsonl", [record_line("q0", "s0", 0), "", record_line("q0", "s0", 1)]),
            ("b.jsonl", [record_line("q1", "s0", 0), record_line("q0", "s0", 1)]),
        ]
        with pytest.raises(DuplicateKey) as err:
            group_logs(logs, self.TRUTH)
        assert str(err.value) == (
            "b.jsonl: line 2: duplicate (question_id, strategy_id, sample_index): "
            "('q0', 's0', 1) (first at a.jsonl: line 3)"
        )
        with pytest.raises(MissingGroundTruth, match=r"^b.jsonl: line 1: .* 'q1' in truth$"):
            group_logs(logs, {"q0": "a"}, truth_name="truth")

    def test_bad_line_anywhere_outranks_a_bad_record(self):
        logs = [
            ("a.jsonl", [record_line("q9", "s0", 0)]),
            ("b.jsonl", [record_line("q0", "s0", 0), "[]"]),
        ]
        with pytest.raises(VoteScaleError, match="^b.jsonl: line 2: record must be a JSON object$"):
            group_logs(logs, self.TRUTH)

    @pytest.mark.parametrize("correct", ["", UNPARSEABLE])
    def test_empty_or_sentinel_correct_rejected(self, correct):
        lines = [record_line(idx=i, answer=a) for i, a in enumerate(["", "a", ""])]
        with pytest.raises(MissingGroundTruth, match="^log: line 1: .*question 'q1'"):
            group_logs([("log", lines)], {"q1": correct})

    @pytest.mark.parametrize("unknown_at", [1, 2])
    def test_unknown_question_before_a_repeated_key_is_reported(self, unknown_at):
        """The unknown question's pool comes before or after the repeating
        pool; either way its earlier line wins."""
        lines = [record_line("q0", "s0", 0), record_line("q0", "s0", 0)]
        lines.insert(unknown_at - 1, record_line("q9", "s0", 0))
        with pytest.raises(MissingGroundTruth) as err:
            group_logs([("log", lines)], self.TRUTH, truth_name="truth.jsonl")
        assert str(err.value) == (
            f"log: line {unknown_at}: no correct answer for question 'q9' in truth.jsonl"
        )

    def test_repeated_key_before_an_unknown_question_is_reported(self):
        lines = [
            record_line("q0", "s0", 0),
            record_line("q0", "s0", 0),
            record_line("q9", "s0", 0),
        ]
        with pytest.raises(DuplicateKey) as err:
            group_logs([("log", lines)], self.TRUTH, truth_name="truth.jsonl")
        assert str(err.value) == (
            "log: line 2: duplicate (question_id, strategy_id, sample_index): "
            "('q0', 's0', 0) (first at log: line 1)"
        )

    def test_unknown_question_that_repeats_its_own_key_is_reported_as_unknown(self):
        lines = [
            record_line("q0", "s0", 0),
            record_line("q9", "s0", 0),
            record_line("q9", "s0", 0),
        ]
        with pytest.raises(MissingGroundTruth) as err:
            group_logs([("log", lines)], self.TRUTH, truth_name="truth.jsonl")
        assert str(err.value) == "log: line 2: no correct answer for question 'q9' in truth.jsonl"

    def test_unknown_question_in_the_second_log_is_named_there(self):
        logs = [
            ("a.jsonl", [record_line("q0", "s0", 0), record_line("q1", "s0", 0)]),
            ("b.jsonl", ["", record_line("q0", "s0", 1), record_line("q9", "s1", 0)]),
        ]
        with pytest.raises(MissingGroundTruth) as err:
            group_logs(logs, self.TRUTH, truth_name="truth.jsonl")
        assert str(err.value) == "b.jsonl: line 3: no correct answer for question 'q9' in truth.jsonl"

    def test_memory_stays_below_parse_then_group(self):
        """A log of the benchmark's log-exact shape: 3 strategies x 300
        questions x 64 samples. Parsing into records and then grouping them
        peaks at about 9.2 MiB here, the one pass at about 1.9 MiB."""
        groups, peak = traced_log_exact_grouping()
        assert len(groups) == 900
        assert all(len(g.answers) == 64 for g in groups.values())
        assert peak < 6 * 2**20

    def test_memory_per_sample_at_the_log_exact_shape(self):
        """Pools keep per sample one list entry for its index, one for its
        answer and one 8-byte line: the 57,600-sample log peaks at about
        1.9 MiB (Python 3.10 and 3.11), and at about 3.5 MiB when each pool
        kept a sample_index -> answer dict."""
        groups, peak = traced_log_exact_grouping()
        assert len(groups) == 900
        assert peak < 2.5 * 2**20

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["q0", "q1", "a", "q9"]),
                st.sampled_from(["s0", ""]),
                st.integers(0, 3),
                st.sampled_from([None, "", "a", "b"]),
                st.integers(0, 2**64),
                st.integers(0, 9),
            ),
            max_size=30,
        ),
        cuts=st.lists(st.integers(0, 30), max_size=2),
        chunk=st.sampled_from([1, 2, 3, 5, 256]),
    )
    def test_repeated_keys_and_unknown_questions_fail_alike(self, rows, cuts, chunk):
        """Logs that repeat (question, strategy, sample_index) keys, within a
        chunk, across chunks and across logs, and name questions without
        ground truth ("q9"): the first bad record in reading order is
        reported, with the same type and message as the reference."""
        lines = log_lines(rows)
        logs = self.split(lines, [min(c, len(lines)) for c in cuts])
        with mock.patch.object(records_module, "_CHUNK_LINES", chunk):
            try:
                got = group_logs(logs, self.TRUTH, truth_name="truth.jsonl")
            except VoteScaleError as exc:
                got = (type(exc), str(exc))
        try:
            want = record_at_a_time(logs, self.TRUTH, "truth.jsonl")
        except VoteScaleError as exc:
            want = (type(exc), str(exc))
        assert got == want


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
        # a finite smoothing whose pseudo-counts overflow the total is named
        assert estimate_distribution(pool(["a"]), smoothing=1e308).probs == (1.0,)
        with pytest.raises(ValueError, match=r"^smoothing=1e\+308 over 2 answers overflows"):
            estimate_distribution(pool(["a", "b"]), smoothing=1e308)

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


#: Upper bound on cells (rows x pool) materialized per block during a
#: sampled replay. Fixed: the block layout is part of the random stream.
_REPLAY_BLOCK_CELLS = 1 << 24


def sampled_replay(samples, n, trials, seed):
    """Monte Carlo cross-check of :func:`replay_majority`: each trial votes
    over a fresh uniform n-subset of the pool (uniform tie-break), and the
    success fraction over trials is returned; deterministic for a fixed seed."""
    trials = check_trials(trials)
    support = answer_support(samples)
    index = {answer: code for code, answer in enumerate(support)}
    codes = np.array([index[a] for a in samples.answers], dtype=np.int64)
    pool_size, m = len(samples.answers), len(support)
    rng = np.random.default_rng(seed)
    block_rows = max(1, _REPLAY_BLOCK_CELLS // pool_size)
    hits = done = 0
    while done < trials:
        size = min(block_rows, trials - done)
        # the n smallest of i.i.d. uniform keys form a uniform n-subset
        keys = rng.random((size, pool_size))
        picked = codes[np.argpartition(keys, n - 1, axis=1)[:, :n]]
        # one bincount over codes shifted into per-row blocks of width m
        offsets = picked + np.arange(size)[:, None] * m
        counts = np.bincount(offsets.ravel(), minlength=size * m).reshape(size, m)
        hits += int((_modal_winners(counts, rng) == index[samples.correct_answer]).sum())
        done += size
    return hits / trials


def subset_mean(answers, correct, n):
    """Brute force: the vote's success averaged over every n-subset, as a Fraction."""
    total = Fraction(0)
    subsets = list(itertools.combinations(answers, n))
    for subset in subsets:
        counts = Counter(subset)
        top = max(counts.values())
        if counts[correct] == top:
            total += Fraction(1, sum(c == top for c in counts.values()))
    return total / len(subsets)


def count_mean(counts, n):
    """The same mean from answer counts, correct answer first: each vote
    count vector weighted by its number of subsets, as a Fraction."""
    total = Fraction(0)
    for votes in itertools.product(*(range(min(c, n) + 1) for c in counts)):
        if sum(votes) == n and votes[0] == max(votes):
            weight = math.prod(math.comb(c, v) for c, v in zip(counts, votes))
            total += Fraction(weight, votes.count(votes[0]))
    return total / math.comb(sum(counts), n)


def counted_pool(counts):
    """A pool holding counts[j] samples of answer chr(97 + j); 'a' is correct."""
    return pool([chr(97 + j) for j, c in enumerate(counts) for _ in range(c)])


class TestReplay:
    def test_unanimous_pool(self):
        assert replay_majority(pool(["a"] * 10), 3) == 1.0
        assert replay_majority(pool(["b"] * 10, correct="a"), 3) == 0.0

    def test_forced_tie_breaks_evenly(self):
        """n = pool size: the one subset is the pool, tied two ways."""
        assert replay_majority(pool(["a", "b"]), 2) == 0.5
        assert replay_majority(pool(list("abcab")), 5) == 0.5

    def test_pool_too_small(self):
        with pytest.raises(NotEnoughSamples):
            replay_majority(pool(["a", "b"]), 3)

    def test_full_pool_vote_is_deterministic(self):
        p = pool(["a", "a", "b"])
        assert replay_majority(p, 3) == 1.0

    def test_one_sample_vote_is_the_correct_frequency(self):
        assert replay_majority(pool(list("abacab")), 1) == 3 / 6

    def test_correct_answer_never_sampled(self):
        assert replay_majority(pool(list("bcbcb")), 3) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=10))
    def test_matches_brute_force_subsets(self, answers):
        for n in range(1, len(answers) + 1):
            want = subset_mean(answers, "a", n)
            assert abs(replay_majority(pool(answers), n) - want) <= 1e-14

    @pytest.mark.parametrize(
        "counts, n, digits",
        [((9, 7), 9, 0.71416), ((6, 5, 5), 9, 0.47392), ((20, 19, 25), 31, 0.19180)],
    )
    def test_known_pools(self, counts, n, digits):
        """The unbiased subset means, against the plug-in 0.651 / 0.430 / 0.233."""
        got = replay_majority(counted_pool(counts), n)
        assert abs(got - count_mean(counts, n)) <= 1e-14
        assert got == pytest.approx(digits, abs=5e-6)

    def test_every_answer_count_at_both_dft_parities(self):
        """Pools of 2 to ``EXACT_MAX_ANSWERS`` answers, even (so every wrong
        answer can tie with the correct one) and uneven, against the
        Fraction mean, over n where the DFT length is odd and, for some m,
        even."""
        parities = set()
        for m in range(2, EXACT_MAX_ANSWERS + 1):
            for counts in ((2,) * m, (3,) + (2,) * (m - 2) + (1,)):
                for n in range(2, min(sum(counts), 10)):
                    parities.add(dft_length(n, m) % 2)
                    got = replay_majority(counted_pool(counts), n)
                    assert got == pytest.approx(float(count_mean(counts, n)), abs=1e-12)
        assert parities == {0, 1}

    @pytest.mark.parametrize(
        "answers, n, message",
        [
            (string.ascii_letters[: EXACT_MAX_ANSWERS + 1], 3, ANSWER_CAP_MESSAGE),
            ("ab" * (N_PAST_EXACT_CAP // 2 + 1), N_PAST_EXACT_CAP, N_CAP_MESSAGE),
        ],
        ids=["answers", "n"],
    )
    def test_shares_the_plug_in_caps(self, answers, n, message):
        p = pool(list(answers))
        with pytest.raises(CapExceeded, match=message):
            replay_majority(p, n)
        with pytest.raises(CapExceeded, match=message):
            exact_majority_prob(estimate_distribution(p), n)

    def test_sampled_replay_agrees(self):
        p = pool(list("aabbbcacbdaacb"))
        for n in (2, 5, 9):
            want = replay_majority(p, n)
            got = sampled_replay(p, n, 20_000, seed=n)
            assert got == pytest.approx(want, abs=4 * math.sqrt(want * (1 - want) / 20_000))

    def test_matches_exact_rate_for_big_pool(self):
        """A 100-sample pool at the same frequencies replays close to the
        closed-book vote probability for a small n."""
        p = pool(["a"] * 64 + ["b"] * 35 + ["c"] * 1)
        value = replay_majority(p, 3)
        assert value == pytest.approx(0.709, abs=0.05)

    def test_converges_to_exact_with_huge_pool(self):
        """Time and memory follow n, not the pool: well under 1 MiB here."""
        rng = np.random.default_rng(11)
        answers = rng.choice(["a", "b", "c"], size=10_000, p=[0.6, 0.2, 0.2])
        p = pool(answers.tolist())
        want = exact_majority_prob(estimate_distribution(p), 5).value
        tracemalloc.start()
        try:
            got = replay_majority(p, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(want, abs=0.02)
        assert peak < 1 << 20

    def test_deterministic_under_seed(self):
        p = pool(["a", "a", "b", "c", "a", "b"])
        a = sampled_replay(p, 3, 5_000, seed=21)
        b = sampled_replay(p, 3, 5_000, seed=21)
        assert a == b

    def test_replay_stream_is_pinned(self):
        """Pinned values: changes to the counting or tie-break code must not
        change the random stream a seeded replay consumes."""
        p = pool(list("aabbbcacbd"))
        got = [sampled_replay(p, n, 1000, seed=3) for n in (1, 4, 7)]
        assert got == [0.315, 0.303, 0.286]

    def test_argument_validation(self):
        p = pool(["a", "b", "c"])
        with pytest.raises(ValueError):
            replay_majority(p, 0)

    @pytest.mark.parametrize(
        "trials, message",
        [
            (2.5, "trials must be an integer, got 2.5"),
            ("3", "trials must be an integer, got '3'"),
            (0, "trials must be >= 1"),
        ],
        ids=["float", "str", "zero"],
    )
    @pytest.mark.parametrize("estimate", ["monte_carlo", "curve"])
    def test_trials_must_be_a_positive_integer(self, estimate, trials, message):
        dist = estimate_distribution(pool(["a", "b", "a"]))
        with pytest.raises(ValueError, match=message):
            if estimate == "monte_carlo":
                monte_carlo_majority_prob(dist, 3, trials, 0)
            else:
                scaling_curve(dist, [1, 3], "mc", trials=trials)

    def test_mean_over_pools(self):
        groups = [pool(["a"] * 5), pool(["b"] * 5, correct="a")]
        assert mean_replay_accuracy(groups, 3) == 0.5
        with pytest.raises(ValueError):
            mean_replay_accuracy([], 3)

    def test_mean_is_batch_invariant(self):
        groups = [pool(["a", "a", "b"]), pool(["a", "b", "b"])]
        want = math.fsum(replay_majority(g, 3) for g in groups) / 2
        assert mean_replay_accuracy(groups, 3) == mean_replay_accuracy(iter(groups), 3) == want


def replayed(groups, n):
    """``mean_replay_accuracy(groups, n)``, the per-pool values of its one
    exact call, and each (key, n) row that reached the pool row builder."""
    real_probs, real_kernel = records_module._pool_majority_probs, votemath._pool_kernel
    calls, rows = [], []

    def probs(cells):
        calls.append(real_probs(cells))
        return calls[-1]

    def kernel(keys, n):
        rows.extend((key, n) for key in keys)
        return real_kernel(keys, n)

    with mock.patch.object(records_module, "_pool_majority_probs", probs), mock.patch.object(
        votemath, "_pool_kernel", kernel
    ):
        mean = mean_replay_accuracy(groups, n)
    [values] = calls
    assert mean == math.fsum(vp.value for vp in values) / len(values)
    return [vp.value for vp in values], rows


def distinct_pools(rng, n, m, count):
    """``count`` pools of ``m`` sampled answers and more than ``n`` samples,
    no two with the same counts."""
    high = n + 2 * math.ceil(count ** (1 / m)) + 1
    keys = {}
    while len(keys) < count:
        key = tuple(int(c) for c in rng.integers(1, high, size=m))
        if sum(key) > n:
            keys[key] = None
    return [counted_pool(key) for key in keys]


class TestBatchedReplay:
    """mean_replay_accuracy: one exact call for all its pools, each distinct
    pool key and n built into a row once, a row's value independent of its batch."""

    def test_each_pool_key_and_n_reaches_the_row_builder_once(self):
        groups = [
            pool(list("aabacb")),
            pool(list("xxyxzy"), correct="x"),  # relabelled
            pool(list("baacab")),  # reordered, wrong answers first seen in the same order
            pool(list("abab")),
            counted_pool((9, 7)),
            pool(list("bbaa")),
            pool(["a"] * 6),  # unanimous
            pool(list("bcbcbc")),  # the correct answer is never sampled
            pool(list("abc")),  # n = K: the one subset is the pool
        ]
        counts = [(3, 2, 1), (3, 2, 1), (3, 2, 1), (2, 2), (9, 7), (2, 2), (6,), (0, 3, 3), (1, 1, 1)]
        values, rows = replayed(groups, 3)
        assert rows == [((3, 2, 1), 3), ((2, 2), 3), ((9, 7), 3)]
        assert values[0] == values[1] == values[2] and values[3] == values[5]
        for got, c in zip(values, counts):
            assert abs(got - count_mean(c, 3)) <= 1e-14
        values, rows = replayed(groups, 1)
        assert rows == []
        assert values == [c[0] / sum(c) for c in counts]

    @pytest.mark.parametrize("n", [5, 9, 31])
    def test_a_pool_does_not_depend_on_its_batch(self, n):
        """More distinct pools of each m than one chunk holds, so every
        (m, n) spans a chunk boundary."""
        rng = np.random.default_rng(n)
        groups = [g for m in (2, 3, 5) for g in distinct_pools(rng, n, m, chunk_rows(n, m) + 2)]
        rng.shuffle(groups)
        values, rows = replayed(groups, n)
        assert len(rows) == len(groups)
        assert values == [replay_majority(g, n) for g in groups]

    def test_first_bad_pool_in_order_raises_before_any_kernel_work(self):
        good, small = counted_pool((3, 2)), pool(list("ab"))
        wide = pool(list(string.ascii_letters[: EXACT_MAX_ANSWERS + 1]))
        rows = []
        with mock.patch.object(votemath, "_pool_kernel", lambda keys, n: rows.append(keys)):
            with pytest.raises(NotEnoughSamples, match="^pool has 2 samples, vote needs 3$"):
                mean_replay_accuracy([good, small, wide], 3)
            with pytest.raises(CapExceeded, match=f"^{ANSWER_CAP_MESSAGE}$"):
                mean_replay_accuracy([good, wide, small], 3)
        assert rows == []


class TestCost:
    def test_default_style_prices(self):
        model = CostModel.from_per_million(0.15, 0.60)
        assert model.sample_cost(1000.0, 500.0) == pytest.approx(0.00045, abs=1e-15)
        assert model.sample_cost(10 * 1000.0, 10 * 500.0) == pytest.approx(0.0045, abs=1e-15)

    def test_zero_prices(self):
        model = CostModel(0.0, 0.0)
        assert model.sample_cost(5 * 100.0, 5 * 50.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(-1e-6, 0.0)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            SampleRecord("q", "s", -1, "a", 0, 0)
        with pytest.raises(ValueError):
            SampleRecord("q", "s", 0, "a", -5, 0)
