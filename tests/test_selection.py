"""Strategy comparison: curves over datasets, oracles, budget selection."""
import dataclasses
import json
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import N_PAST_EXACT_CAP, answers_past_exact_cap, hard_past_exact_cap, sure_past_exact_cap
from votescale import (
    AnswerDistribution,
    CapExceeded,
    CostModel,
    DuplicateKey,
    IdMismatch,
    MalformedLine,
    NoFeasibleChoice,
    QuestionEntry,
    QuestionSamples,
    Run,
    SelectionResult,
    StrategyDataset,
    accuracy_curve,
    adaptive_curve,
    adaptive_limit,
    best_for_n,
    best_under_cost,
    combined_curve,
    dataset_sample_cost,
    datasets_from_samples,
    dominance_count,
    dynamic_curve,
    exact_majority_prob,
    exact_majority_probs,
    extreme_performance,
    load_scenario,
    normal_approx_prob,
    vote_probability,
)
from votescale.difficulty import Difficulty, classify, crossover_condition
from votescale.distribution import METHODS, VoteProbability
from votescale.votemath import ScalingCurve, canonical_method, check_grid

EARLY = AnswerDistribution((0.64, 0.35, 0.01))  # leads at n=1, small gap
LATE = AnswerDistribution((0.6, 0.2, 0.2))  # starts behind, overtakes


def dataset(sid, dists, pt=0.0, ct=0.0):
    return StrategyDataset(
        sid,
        tuple(
            QuestionEntry(f"q{i}", d, pt, ct) for i, d in enumerate(dists)
        ),
    )


class TestDatasets:
    def test_duplicate_question_ids(self):
        q = QuestionEntry("q0", EARLY)
        with pytest.raises(ValueError):
            StrategyDataset("s", (q, q))

    def test_lookup_helpers(self):
        ds = dataset("s", [EARLY, LATE])
        assert ds.question_ids == ("q0", "q1")

    def test_question_ids_follow_the_questions(self):
        ds = dataset("s", [EARLY, LATE, EARLY])
        assert ds.question_ids == tuple(q.question_id for q in ds.questions) == ("q0", "q1", "q2")

    def test_hash_and_equality_follow_the_fields(self):
        ds = dataset("s", [EARLY, LATE])
        same = dataset("s", [EARLY, LATE])
        swapped = dataset("s", [LATE, EARLY])
        assert ds == same and hash(ds) == hash(same) == hash((ds.strategy_id, ds.questions))
        assert ds != swapped and ds != dataset("t", [EARLY, LATE])
        assert [f.name for f in dataclasses.fields(ds)] == ["strategy_id", "questions"]

    def test_selection_result_validation(self):
        with pytest.raises(ValueError):
            SelectionResult(("tokens", 1.0), "s", 1, 0.5)
        with pytest.raises(ValueError):
            SelectionResult(("samples", 1.0), "s", 1, 1.5)


def counted_cells(monkeypatch):
    """Record the (dist, n) of every cell selection evaluates: each cell of
    each vote_probabilities call."""
    import votescale.selection as selection

    real = selection.vote_probabilities
    calls = []

    def counting(cells, method, **kwargs):
        cells = list(cells)
        calls.extend((dist, n) for dist, n, _ in cells)
        return real(cells, method, **kwargs)

    monkeypatch.setattr(selection, "vote_probabilities", counting)
    return calls


def kernel_batches(monkeypatch):
    """Per exact_majority_probs call, the (support, n) rows the exact kernel
    evaluates."""
    import votescale.votemath as votemath

    real_batch, real_kernel = votemath.exact_majority_probs, votemath._exact_kernel
    batches = []

    def batch(cells, **kwargs):
        batches.append([])
        return real_batch(cells, **kwargs)

    def kernel(supports, n):
        batches[-1].extend((support, n) for support in supports)
        return real_kernel(supports, n)

    monkeypatch.setattr(votemath, "exact_majority_probs", batch)
    monkeypatch.setattr(votemath, "_exact_kernel", kernel)
    return batches


class TestAccuracyCurve:
    def test_single_question_equals_pointwise_estimates(self):
        curve = accuracy_curve(dataset("s", [EARLY]), [1, 3, 5])
        assert curve.values[0] == pytest.approx(0.640, abs=5e-4)
        assert curve.values[1] == pytest.approx(0.709, abs=5e-4)
        assert curve.values[2] == pytest.approx(0.757, abs=5e-4)
        assert curve.curve_id == "s"

    def test_mean_over_questions(self):
        ds = dataset("s", [AnswerDistribution((0.7, 0.3)), AnswerDistribution((0.1, 0.9))])
        curve = accuracy_curve(ds, [1])
        assert curve.values[0] == pytest.approx(0.4, abs=1e-15)

    def test_certain_dataset_is_flat_one(self):
        ds = dataset("s", [AnswerDistribution((1.0, 0.0))] * 3)
        assert accuracy_curve(ds, [1, 5, 9]).values == (1.0, 1.0, 1.0)

    def test_monotone_on_easy_and_moderate(self):
        ds = dataset(
            "s",
            [
                AnswerDistribution((0.64, 0.35, 0.01)),
                AnswerDistribution((0.5, 0.5)),
                AnswerDistribution((0.45, 0.3, 0.25)),
            ],
        )
        values = accuracy_curve(ds, [1, 3, 5, 7, 9, 11]).values
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            accuracy_curve(StrategyDataset("s", ()), [1])

    def test_fallback_point_is_tagged_with_the_approximation(self):
        wide = answers_past_exact_cap()
        curve = accuracy_curve(dataset("s", [wide]), [5], "exact", fallback=True)
        assert curve.points[0].method == "normal_approx"
        assert curve.method == "exact"

    def test_point_tag_is_the_least_exact_cell(self):
        wide = answers_past_exact_cap()
        mixed = accuracy_curve(dataset("s", [EARLY, wide]), [1, 5], "exact", fallback=True)
        assert [p.method for p in mixed.points] == ["normal_approx", "normal_approx"]
        plain = accuracy_curve(dataset("s", [EARLY, LATE]), [1, 5], "exact", fallback=True)
        assert [p.method for p in plain.points] == ["exact", "exact"]
        # an oracle point averages the winning cells only
        loser = AnswerDistribution((0.05, 0.95))
        wins = dynamic_curve(
            [dataset("a", [wide, LATE]), dataset("b", [loser, LATE])], [5], fallback=True
        )
        assert wins.points[0].method == "normal_approx"
        loses = dynamic_curve(
            [dataset("a", [EARLY, LATE]), dataset("b", [wide, LATE])], [5], fallback=True
        )
        assert loses.points[0].method == "exact"

    def test_plain_calls_keep_no_state(self, monkeypatch):
        calls = counted_cells(monkeypatch)
        ds = dataset("s", [EARLY, LATE])
        first = accuracy_curve(ds, [1, 3, 5])
        assert len(calls) == 6
        assert accuracy_curve(ds, [1, 3, 5]) == first
        # the second call evaluates its cells again: nothing was kept
        assert len(calls) == 12

    def test_shared_table_evaluates_each_cell_once(self, monkeypatch):
        """One run's curves, selections and oracles share its cells: the
        curves evaluate every grid cell in one batch, and the rest reduce it."""
        calls = counted_cells(monkeypatch)
        batches = kernel_batches(monkeypatch)
        hard = AnswerDistribution((0.3, 0.6, 0.1))
        dss = [dataset("early", [EARLY, hard]), dataset("late", [LATE, EARLY])]
        model = CostModel.from_per_million(0.15, 0.60)
        run = Run(dss, [1, 3, 5])
        curves = run.curves()
        # 2 strategies x 2 questions x 3 grid points, each requested once
        assert len(calls) == 12
        picks = [run.best_for_n(n) for n in (1, 3, 5)]
        budget_pick = run.best_under_cost(math.inf, model)
        # the oracles read hard questions from the n=1 cells, already there
        oracles = run.oracles()
        assert len(calls) == 12
        # one batch holds EARLY under both strategies: one kernel row per n > 1
        assert batches == [[(d.correct_first(), n) for n in (3, 5) for d in (EARLY, hard, LATE)]]
        assert curves == [accuracy_curve(ds, [1, 3, 5]) for ds in dss]
        assert picks == [best_for_n(dss, n) for n in (1, 3, 5)]
        assert budget_pick == best_under_cost(dss, math.inf, model, [1, 3, 5])
        assert oracles == [adaptive_curve(ds, [1, 3, 5]) for ds in dss] + [
            dynamic_curve(dss, [1, 3, 5]),
            combined_curve(dss, [1, 3, 5]),
        ]
        with pytest.raises(ValueError, match="not on the run's grid"):
            run.best_for_n(7)

    def test_shared_table_keeps_settings_apart(self, monkeypatch):
        """Each run holds the values of its own estimator setting, and two
        datasets under one strategy id each read their own cells."""
        calls = counted_cells(monkeypatch)
        ds, moved = dataset("s", [EARLY, LATE]), dataset("s", [LATE, EARLY])
        settings = [("exact", 0), ("approx", 0), ("mc", 1), ("mc", 2)]
        curves = {
            (method, seed): Run([ds, moved], [5], method, trials=2000, seed=seed).curves()
            for method, seed in settings
        }
        # each run evaluates its 2 datasets x 2 questions once
        assert len(calls) == 16
        for (method, seed), pair in curves.items():
            fresh = [accuracy_curve(d, [5], method, trials=2000, seed=seed) for d in (ds, moved)]
            assert pair == fresh
        assert curves["exact", 0][0].points[0].method == "exact"
        assert curves["approx", 0][0].points[0].method == "normal_approx"
        assert curves["mc", 1][0].values != curves["mc", 2][0].values

    def test_shared_table_keeps_fallback_apart(self):
        wide = dataset("s", [answers_past_exact_cap()])
        assert Run([wide], [5], fallback=True).curves()[0].points[0].method == "normal_approx"
        with pytest.raises(CapExceeded):
            Run([wide], [5]).curves()

    @pytest.mark.parametrize("seed, message", [
        (1.5, r"^seed must be an integer, got 1\.5$"),
        ("7", r"^seed must be an integer, got '7'$"),
        (-1, r"^seed must be >= 0, got -1$"),
    ])
    def test_a_run_rejects_a_seed_that_is_not_an_integer_at_least_0(self, monkeypatch, seed, message):
        calls = counted_cells(monkeypatch)
        ds = dataset("s", [EARLY, LATE])
        with pytest.raises(ValueError, match=message):
            Run([ds], [1, 3], "mc", seed=seed).curves()
        assert calls == []
        # a numpy integer is an integer, and draws the same cells
        got = Run([ds], [3], "mc", trials=200, seed=np.int64(3)).curves()
        assert got == Run([ds], [3], "mc", trials=200, seed=3).curves()

    def test_mc_matches_exact_within_error(self):
        ds = dataset("s", [EARLY, LATE])
        mc = accuracy_curve(ds, [5], "mc", trials=100_000, seed=3)
        exact = accuracy_curve(ds, [5])
        assert mc.points[0].stderr is not None
        assert abs(mc.values[0] - exact.values[0]) < 5 * mc.points[0].stderr


class TestBestForN:
    def test_switches_with_sampling_time(self):
        dss = [dataset("early", [EARLY]), dataset("late", [LATE])]
        assert best_for_n(dss, 1).chosen_strategy == "early"
        pick = best_for_n(dss, 5)
        assert pick.chosen_strategy == "late"
        assert pick.predicted_accuracy == pytest.approx(0.769, abs=5e-4)
        assert pick.budget == ("samples", 5.0)
        # a bool or numpy integer is read as the grid point it stands for
        for n in (True, np.int64(5)):
            for pick in (best_for_n(dss, n), Run(dss, [1, 5]).best_for_n(n)):
                assert type(pick.chosen_n) is int and pick.chosen_n == int(n)

    def test_tie_keeps_input_order(self):
        dss = [dataset("first", [EARLY]), dataset("second", [EARLY])]
        assert best_for_n(dss, 3).chosen_strategy == "first"

    def test_approx_agrees_with_exact_at_large_n(self):
        dss = [dataset("early", [EARLY]), dataset("late", [LATE])]
        for n in (20, 40):
            assert (
                best_for_n(dss, n, "approx").chosen_strategy
                == best_for_n(dss, n, "exact").chosen_strategy
            )


class TestBudgetSelection:
    MODEL = CostModel.from_per_million(0.15, 0.60)

    def test_dataset_sample_cost(self):
        ds = dataset("s", [EARLY, LATE], pt=1000.0, ct=500.0)
        assert dataset_sample_cost(ds, self.MODEL) == pytest.approx(0.0009, abs=1e-15)

    def test_infeasible_budget(self):
        ds = dataset("s", [EARLY], pt=1000.0, ct=500.0)
        with pytest.raises(NoFeasibleChoice):
            best_under_cost([ds], 1e-9, self.MODEL, [1, 3])

    def test_nan_budget_and_price_rejected(self):
        ds = dataset("s", [EARLY], pt=1000.0, ct=500.0)
        with pytest.raises(ValueError):
            best_under_cost([ds], math.nan, self.MODEL, [1, 3])
        with pytest.raises(ValueError):
            CostModel(math.nan, 0.0)
        # an infinite budget stays legal: every grid point fits
        assert best_under_cost([ds], math.inf, self.MODEL, [1, 3]).chosen_n == 3
        # zero tokens at an infinite price cost NaN, which fits no budget
        free_prompt = dataset("s", [EARLY], pt=0.0, ct=500.0)
        with pytest.raises(NoFeasibleChoice):
            best_under_cost([free_prompt], 1.0, CostModel(math.inf, 1e-6), [1, 3])

    def test_cheap_strategy_buys_more_votes(self):
        cheap = dataset("cheap", [AnswerDistribution((0.7, 0.3))], pt=100.0, ct=50.0)
        pricey = dataset("pricey", [AnswerDistribution((0.85, 0.15))], pt=10_000.0, ct=5_000.0)
        pick = best_under_cost([cheap, pricey], 0.005, self.MODEL, [1, 3, 7, 15, 31])
        # the pricey strategy only affords n=1 (0.85); thirty-one cheap
        # votes cost a third of the budget and reach ~0.993
        assert pick.chosen_strategy == "cheap"
        assert pick.chosen_n == 31
        assert pick.predicted_accuracy > 0.99
        assert pick.budget == ("cost", 0.005)

    def test_generous_budget_matches_fixed_n_choice(self):
        dss = [
            dataset("a", [AnswerDistribution((0.7, 0.3))], pt=100.0, ct=50.0),
            dataset("b", [AnswerDistribution((0.65, 0.35))], pt=100.0, ct=50.0),
        ]
        pick = best_under_cost(dss, 1e6, self.MODEL, [1, 3, 7])
        fixed = best_for_n(dss, 7)
        assert pick.chosen_strategy == fixed.chosen_strategy
        assert pick.chosen_n == 7
        assert pick.predicted_accuracy == pytest.approx(fixed.predicted_accuracy)

    def test_tie_takes_smallest_n(self):
        ds = dataset("sure", [AnswerDistribution((1.0, 0.0))], pt=100.0, ct=50.0)
        pick = best_under_cost([ds], 1e6, self.MODEL, [1, 3, 7])
        assert pick.chosen_n == 1

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_one_curve_per_dataset_scores_every_candidate(self, monkeypatch, method):
        """Each dataset's feasible n's are scored by one curve, with the
        values and the earliest-on-ties choice of one curve per candidate;
        only the feasible points' cells are evaluated."""
        import votescale.selection as selection

        real = selection.Run._curve
        grids = []

        def counting(run, strategies, ns, *args):
            grids.append((tuple(run.datasets[s].strategy_id for s in strategies), tuple(ns)))
            return real(run, strategies, ns, *args)

        monkeypatch.setattr(selection.Run, "_curve", counting)
        calls = counted_cells(monkeypatch)
        dss = [
            dataset("a", [EARLY, LATE], pt=100.0, ct=50.0),
            dataset("b", [LATE, EARLY], pt=200.0, ct=100.0),
            dataset("c", [LATE, EARLY], pt=100.0, ct=50.0),
        ]
        grid = [1, 3, 5, 9]
        budget = 9 * dataset_sample_cost(dss[0], self.MODEL)
        kwargs = dict(trials=500, seed=4)
        pick = best_under_cost(dss, budget, self.MODEL, grid, method, **kwargs)
        assert grids == [(("a",), (1, 3, 5, 9)), (("b",), (1, 3)), (("c",), (1, 3, 5, 9))]
        # 2 questions at each of the 10 feasible points
        assert len(calls) == 20
        scored = [
            (accuracy_curve(ds, [n], method, **kwargs).values[0], ds.strategy_id, n)
            for ds in dss
            for n in grid
            if n * dataset_sample_cost(ds, self.MODEL) <= budget
        ]
        value, strategy_id, n = max(scored, key=lambda score: score[0])
        assert (pick.predicted_accuracy, pick.chosen_strategy, pick.chosen_n) == (value, strategy_id, n)

    def test_infeasible_points_are_not_evaluated(self):
        """A grid point beyond the budget is never evaluated, so one beyond
        the exact cap raises nothing without --fallback."""
        ds = dataset("s", [EARLY, LATE], pt=1000.0, ct=500.0)
        budget = 5 * dataset_sample_cost(ds, self.MODEL)
        pick = best_under_cost([ds], budget, self.MODEL, [1, 5, N_PAST_EXACT_CAP])
        assert (pick.chosen_n, pick.predicted_accuracy) == (5, accuracy_curve(ds, [5]).values[0])
        assert Run([ds], [1, 5, N_PAST_EXACT_CAP]).best_under_cost(budget, self.MODEL) == pick
        with pytest.raises(CapExceeded):
            Run([ds], [1, 5, N_PAST_EXACT_CAP]).curves()

    def test_declining_dataset_prefers_one_sample(self):
        # binary hard questions decay monotonically, so more votes only
        # hurt and the cheapest point wins on accuracy alone
        ds = dataset("hard", [AnswerDistribution((0.45, 0.55))], pt=100.0, ct=50.0)
        pick = best_under_cost([ds], 1e6, self.MODEL, [1, 3, 7, 15])
        assert pick.chosen_n == 1
        assert pick.predicted_accuracy == pytest.approx(0.45, abs=1e-12)


class TestExtremes:
    def test_planted_fractions(self):
        dists = (
            [AnswerDistribution((0.8, 0.2))] * 6  # easy, limit 1
            + [AnswerDistribution((0.4, 0.4, 0.2))] * 3  # moderate, limit 1/2
            + [AnswerDistribution((0.3, 0.7))] * 1  # hard, limit 0
        )
        xp = extreme_performance(dataset("s", dists))
        assert xp.easy_frac == 0.6
        assert xp.moderate_frac == 0.3
        assert xp.hard_frac == 0.1
        assert xp.limit_accuracy == pytest.approx(0.6 + 0.3 * 0.5, abs=1e-15)

    def test_adaptive_limit_keeps_hard_at_single_sample(self):
        dists = [
            AnswerDistribution((0.8, 0.2)),  # easy -> 1
            AnswerDistribution((0.4, 0.45, 0.15)),  # hard -> stays 0.4
            AnswerDistribution((0.4, 0.4, 0.2)),  # moderate -> 0.5
        ]
        ds = dataset("s", dists)
        assert adaptive_limit(ds) == pytest.approx((1.0 + 0.4 + 0.5) / 3, abs=1e-15)
        assert adaptive_limit(ds) > extreme_performance(ds).limit_accuracy


class TestDominance:
    def test_identical_strategies_score_zero(self):
        a = dataset("a", [EARLY, LATE])
        b = dataset("b", [EARLY, LATE])
        assert dominance_count(a, b) == 0

    def test_single_overtake(self):
        a = dataset("a", [LATE])
        b = dataset("b", [EARLY])
        assert dominance_count(a, b) == 1
        assert dominance_count(b, a) == 0

    def test_planted_count(self):
        a_dists, b_dists = [], []
        for i in range(100):
            if i < 37:
                a_dists.append(LATE)
                b_dists.append(EARLY)
            else:
                a_dists.append(EARLY)
                b_dists.append(EARLY)
        assert dominance_count(dataset("a", a_dists), dataset("b", b_dists)) == 37

    def test_disjoint_questions(self):
        a = StrategyDataset("a", (QuestionEntry("q0", EARLY),))
        b = StrategyDataset("b", (QuestionEntry("other", EARLY),))
        with pytest.raises(IdMismatch):
            dominance_count(a, b)

    def test_partly_overlapping_questions(self):
        a = dataset("a", [EARLY, LATE])
        b = dataset("b", [LATE])
        with pytest.raises(IdMismatch, match="'b' lacks question 'q1'"):
            dominance_count(a, b)

    def test_run_matches_a_count_over_questions_matched_by_id(self):
        """``Run.dominance()`` against a count that looks each question up by
        id. The second strategy lists its questions in reverse order and the
        third shuffled, so pairing questions by position gives other counts."""
        rng = np.random.default_rng(11)

        def draw():
            return AnswerDistribution(tuple(rng.dirichlet(np.ones(int(rng.integers(2, 6))))))

        dss = [dataset(sid, [draw() for _ in range(60)]) for sid in "abc"]
        dss[1] = StrategyDataset("b", dss[1].questions[::-1])
        dss[2] = StrategyDataset("c", tuple(dss[2].questions[i] for i in rng.permutation(60)))

        def count(ds_a, ds_b):
            b_by_id = {q.question_id: q.dist for q in ds_b.questions}
            return sum(crossover_condition(q.dist, b_by_id[q.question_id]) for q in ds_a.questions)

        expected = [[0 if a is b else count(a, b) for b in dss] for a in dss]
        assert Run(dss, [1, 3]).dominance() == expected
        assert dominance_count(dss[1], dss[2]) == expected[1][2]
        assert all(expected[a][b] > 0 for a in range(3) for b in range(3) if a != b)


class TestAdaptiveCurve:
    def test_all_easy_matches_vanilla(self):
        ds = dataset("s", [EARLY, AnswerDistribution((0.8, 0.2))])
        grid = [1, 3, 5, 9]
        assert adaptive_curve(ds, grid).values == accuracy_curve(ds, grid).values

    def test_hard_question_pinned_at_one_sample(self):
        ds = dataset("s", [AnswerDistribution((0.4, 0.45, 0.15))])
        curve = adaptive_curve(ds, [1, 3, 5, 9, 15])
        assert all(v == pytest.approx(0.4, abs=1e-12) for v in curve.values)
        assert curve.curve_id == "s+adaptive"

    def test_tail_beats_vanilla_when_hard_present(self):
        ds = dataset(
            "s",
            [AnswerDistribution((0.4, 0.45, 0.15)), AnswerDistribution((0.8, 0.2))],
        )
        plain = accuracy_curve(ds, [25]).values[0]
        adaptive = adaptive_curve(ds, [25]).values[0]
        assert adaptive > plain


class TestDynamicCurve:
    def test_single_strategy_is_identity(self):
        ds = dataset("s", [EARLY, LATE])
        grid = [1, 3, 7]
        assert dynamic_curve([ds], grid).values == accuracy_curve(ds, grid).values

    def test_picks_the_better_strategy_per_point(self):
        dss = [dataset("early", [EARLY]), dataset("late", [LATE])]
        curve = dynamic_curve(dss, [1, 5])
        assert curve.values[0] == pytest.approx(0.640, abs=5e-4)
        assert curve.values[1] == pytest.approx(0.769, abs=5e-4)
        assert curve.curve_id == "dynamic"

    def test_dominates_each_strategy_pointwise(self):
        dss = [
            dataset("a", [EARLY, AnswerDistribution((0.3, 0.7))]),
            dataset("b", [LATE, AnswerDistribution((0.55, 0.45))]),
        ]
        grid = [1, 3, 5, 9, 15]
        dyn = dynamic_curve(dss, grid).values
        for ds in dss:
            single = accuracy_curve(ds, grid).values
            assert all(d >= s - 1e-12 for d, s in zip(dyn, single))

    def test_dominates_under_monte_carlo_too(self):
        """Shared per-cell seeds make the per-question max a max over the
        very same draws, so dominance survives sampling noise exactly."""
        dss = [
            dataset("a", [EARLY, AnswerDistribution((0.3, 0.7))]),
            dataset("b", [LATE, AnswerDistribution((0.55, 0.45))]),
        ]
        grid = [1, 3, 5]
        dyn = dynamic_curve(dss, grid, "mc", trials=2_000, seed=17).values
        for ds in dss:
            single = accuracy_curve(ds, grid, "mc", trials=2_000, seed=17).values
            assert all(d >= s for d, s in zip(dyn, single))

    def test_tie_keeps_the_earliest_strategys_cell(self):
        # beyond the exact cap, the approximation ties the exact 1.0 at n = 9
        assert normal_approx_prob(sure_past_exact_cap(), 9).value == 1.0
        sure = dataset("approx", [sure_past_exact_cap()])
        certain = dataset("exact", [AnswerDistribution((1.0, 0.0))])
        assert dynamic_curve([certain, sure], [9], fallback=True).points[0].method == "exact"
        assert dynamic_curve([sure, certain], [9], fallback=True).points[0].method == "normal_approx"

    def test_question_sets_must_match(self):
        a = StrategyDataset("a", (QuestionEntry("q0", EARLY),))
        b = StrategyDataset("b", (QuestionEntry("q1", LATE),))
        with pytest.raises(IdMismatch, match="'b' lacks question 'q0'"):
            dynamic_curve([a, b], [1, 3])

    def test_a_run_checks_question_sets_when_built(self):
        """Single-strategy reductions compare strategies too: a run, and the
        selections, refuse strategies over different questions."""
        a = StrategyDataset("a", (QuestionEntry("q0", EARLY),))
        b = StrategyDataset("b", (QuestionEntry("q1", LATE),))
        model = CostModel.from_per_million(0.15, 0.60)
        for build in (
            lambda: Run([a, b], [1, 3]),
            lambda: best_for_n([a, b], 3),
            lambda: best_under_cost([a, b], 1.0, model, [1, 3]),
        ):
            with pytest.raises(IdMismatch, match="'b' lacks question 'q0'"):
                build()


class TestCombinedCurve:
    DSS = [
        dataset("a", [AnswerDistribution((0.4, 0.45, 0.15)), AnswerDistribution((0.8, 0.2))]),
        dataset("b", [AnswerDistribution((0.35, 0.65)), AnswerDistribution((0.3, 0.6, 0.1))]),
    ]

    def test_beats_dynamic_in_the_tail(self):
        grid = [25, 41, 59]
        combined = combined_curve(self.DSS, grid).values
        dyn = dynamic_curve(self.DSS, grid).values
        assert all(c >= d - 1e-12 for c, d in zip(combined, dyn))
        assert combined[-1] > dyn[-1]

    def test_beats_adaptive_per_strategy(self):
        grid = [1, 9, 25]
        combined = combined_curve(self.DSS, grid).values
        for ds in self.DSS:
            single = adaptive_curve(ds, grid).values
            assert all(c >= s - 1e-12 for c, s in zip(combined, single))

    def test_reaches_one_when_some_strategy_finds_each_easy(self):
        dss = [
            dataset("a", [AnswerDistribution((0.8, 0.2)), AnswerDistribution((0.3, 0.7))]),
            dataset("b", [AnswerDistribution((0.2, 0.8)), AnswerDistribution((0.75, 0.25))]),
        ]
        value = combined_curve(dss, [59]).values[0]
        assert value > 0.999


# The per-cell reduction that the column reduction replaced, kept as the
# reference: every cell has its own key in a table shared by the calls of a
# run, and each row's winner is taken with a Python max.


def reference_cell_key(dist, n, method, trials, seed, fallback, strategy_id, qi):
    if method == "exact":
        return (dist, n, method, fallback)
    return (dist, n, method, trials, seed, fallback, strategy_id, qi)


def reference_fill(cells, keys, fallback):
    exact = {}
    for key in keys:
        if key in cells:
            continue
        if key[2] == "exact":
            exact[key] = None
            continue
        dist, n, method, trials, seed, _, strategy_id, qi = key
        if method == "monte_carlo":
            seed = np.random.SeedSequence([seed, zlib.crc32(strategy_id.encode("utf-8")), qi, n])
        cells[key] = vote_probability(dist, n, method, trials=trials, seed=seed, fallback=fallback)
    if exact:
        values = exact_majority_probs([key[:2] for key in exact], fallback=fallback)
        cells.update(zip(exact, values))


def reference_mean_point(values, n):
    method = max((v.method for v in values), key=METHODS.index)
    mean = math.fsum(v.value for v in values) / len(values)
    if method == "monte_carlo":
        stderr = math.sqrt(math.fsum((v.stderr or 0.0) ** 2 for v in values)) / len(values)
        return VoteProbability(mean, method, n, stderr=stderr)
    return VoteProbability(mean, method, n)


def reference_reduce(dss, ns, method, trials, seed, fallback, cells, *, adaptive, curve_id):
    grid = check_grid(ns)
    method = canonical_method(method)
    order = dss[0].question_ids
    candidates = {question_id: [] for question_id in order}
    for ds in dss:
        for qi, q in enumerate(ds.questions):
            hard = adaptive and classify(q.dist).kind is Difficulty.HARD
            candidates[q.question_id].append((ds.strategy_id, qi, q.dist, hard))
    rows = [
        [
            [
                reference_cell_key(dist, 1 if hard else n, method, trials, seed, fallback, sid, qi)
                for sid, qi, dist, hard in candidates[question_id]
            ]
            for question_id in order
        ]
        for n in grid
    ]
    reference_fill(cells, [key for per_n in rows for row in per_n for key in row], fallback)
    points = []
    for n, per_n in zip(grid, rows):
        values = [max((cells[key] for key in row), key=lambda vp: vp.value) for row in per_n]
        points.append(reference_mean_point(values, n))
    return ScalingCurve(tuple(points), method, curve_id=curve_id)


def reference_best(candidates, budget, method, trials, seed, fallback, cells):
    scored = [
        (reference_reduce([ds], [n], method, trials, seed, fallback, cells, adaptive=False, curve_id="")
         .values[0], ds.strategy_id, n)
        for ds, n in candidates
    ]
    if not scored:
        raise NoFeasibleChoice("no candidate")
    value, strategy_id, n = max(scored, key=lambda score: score[0])
    return SelectionResult(budget, strategy_id, n, value)


JUDGE_POOL = (
    EARLY,
    LATE,
    answers_past_exact_cap(),
    hard_past_exact_cap(),
    sure_past_exact_cap(),  # approximated as 1.0 from n = 9, a tie
    AnswerDistribution((0.3, 0.6, 0.1)),  # hard
    AnswerDistribution((0.45, 0.55)),  # hard
    AnswerDistribution((0.5, 0.5)),  # moderate
    AnswerDistribution((1.0, 0.0)),
    AnswerDistribution((0.0, 1.0)),
)


@st.composite
def weighted_dists(draw):
    weights = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(any))
    correct = draw(st.integers(0, len(weights) - 1))
    return AnswerDistribution(tuple(w / sum(weights) for w in weights), correct)


@st.composite
def panels(draw):
    """1-3 strategies over 1-4 shared questions, each strategy in its own
    question order; a strategy often reuses another's distribution."""
    dists = st.one_of(st.sampled_from(JUDGE_POOL), weighted_dists())
    shared = draw(st.lists(dists, min_size=1, max_size=4))
    dss = []
    for s in range(draw(st.integers(1, 3))):
        per_question = [draw(st.one_of(st.just(d), dists)) for d in shared]
        prompt = draw(st.sampled_from([50.0, 100.0, 200.0]))
        dss.append(
            StrategyDataset(
                f"s{s}",
                tuple(
                    QuestionEntry(f"q{q}", per_question[q], prompt, 2 * prompt)
                    for q in draw(st.permutations(range(len(shared))))
                ),
            )
        )
    return dss


class TestColumnReductions:
    MODEL = CostModel.from_per_million(0.15, 0.60)

    @settings(max_examples=150, deadline=None)
    @given(
        dss=panels(),
        grid=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).map(sorted),
        method=st.sampled_from(["exact", "approx", "mc"]),
        seed=st.integers(0, 3),
        budget_share=st.floats(0.0, 1.2),
        data=st.data(),
    )
    def test_equal_to_the_per_cell_reduction(self, dss, grid, method, seed, budget_share, data):
        """Every curve and selection, as a free function and as a method of
        one run, called in a drawn order, equals the per-cell reference
        point for point."""
        estimator = (method, 64, seed, True)
        reference_cells = {}
        kwargs = dict(trials=64, seed=seed, fallback=True)
        run = Run(dss, grid, method, **kwargs)

        def reference(subset, ns, adaptive, curve_id):
            return reference_reduce(
                subset, ns, *estimator, reference_cells, adaptive=adaptive, curve_id=curve_id
            )

        def reference_oracles():
            adaptive = [reference([ds], grid, True, f"{ds.strategy_id}+adaptive") for ds in dss]
            return adaptive + [reference(dss, grid, False, "dynamic"), reference(dss, grid, True, "combined")]

        costs = [dataset_sample_cost(ds, self.MODEL) for ds in dss]
        budget = budget_share * max(costs) * grid[-1]
        feasible = [(ds, n) for ds, cost in zip(dss, costs) for n in grid if n * cost <= budget]
        checks = [
            (lambda ds=ds: accuracy_curve(ds, grid, method, **kwargs),
             lambda ds=ds: reference([ds], grid, False, ds.strategy_id))
            for ds in dss
        ] + [
            (lambda ds=ds: adaptive_curve(ds, grid, method, **kwargs),
             lambda ds=ds: reference([ds], grid, True, f"{ds.strategy_id}+adaptive"))
            for ds in dss
        ] + [
            (lambda: dynamic_curve(dss, grid, method, **kwargs),
             lambda: reference(dss, grid, False, "dynamic")),
            (lambda: combined_curve(dss, grid, method, **kwargs),
             lambda: reference(dss, grid, True, "combined")),
            (lambda: best_under_cost(dss, budget, self.MODEL, grid, method, **kwargs),
             lambda: reference_best(feasible, ("cost", budget), *estimator, reference_cells)),
            (run.curves, lambda: [reference([ds], grid, False, ds.strategy_id) for ds in dss]),
            (run.oracles, reference_oracles),
            (lambda: run.best_under_cost(budget, self.MODEL),
             lambda: reference_best(feasible, ("cost", budget), *estimator, reference_cells)),
        ] + [
            (lambda n=n: best_for_n(dss, n, method, **kwargs),
             lambda n=n: reference_best([(ds, n) for ds in dss], ("samples", float(n)),
                                        *estimator, reference_cells))
            for n in sorted({1, *grid})
        ] + [
            # the run's n = 1 cells may hold hard questions only, from its oracles
            (lambda n=n: run.best_for_n(n),
             lambda n=n: reference_best([(ds, n) for ds in dss], ("samples", float(n)),
                                        *estimator, reference_cells))
            for n in grid
        ]
        for i in data.draw(st.permutations(range(len(checks)))):
            new, old = checks[i]
            try:
                expected = old()
            except NoFeasibleChoice:
                with pytest.raises(NoFeasibleChoice):
                    new()
                continue
            assert new() == expected


class TestScenarioIO:
    @staticmethod
    def line(sid, qid, probs, correct=0, pt=100.0, ct=50.0):
        return json.dumps(
            {
                "strategy_id": sid,
                "question_id": qid,
                "probs": list(probs),
                "correct_index": correct,
                "mean_prompt_tokens": pt,
                "mean_completion_tokens": ct,
            }
        )

    def test_round_trip(self):
        lines = [
            self.line("s1", "q0", (0.64, 0.35, 0.01)),
            self.line("s2", "q0", (0.6, 0.2, 0.2)),
            self.line("s1", "q1", (0.3, 0.7), correct=1, pt=80.0, ct=20.0),
        ]
        dss = load_scenario(lines)
        assert [ds.strategy_id for ds in dss] == ["s1", "s2"]
        s1 = dss[0]
        assert s1.question_ids == ("q0", "q1")
        assert s1.questions[0].dist == EARLY
        assert s1.questions[1].dist.correct_index == 1
        assert s1.questions[1].mean_prompt_tokens == 80.0

    def test_blank_lines_ignored(self):
        lines = ["", self.line("s", "q", (0.5, 0.5)), "   "]
        assert len(load_scenario(lines)) == 1

    def test_duplicate_pair(self):
        lines = [self.line("s", "q", (0.5, 0.5))] * 2
        with pytest.raises(DuplicateKey):
            load_scenario(lines)

    def test_field_errors_carry_line_numbers(self):
        bad = json.loads(self.line("s", "q", (0.5, 0.5)))
        del bad["probs"]
        with pytest.raises(MalformedLine) as err:
            load_scenario([self.line("s", "q0", (0.5, 0.5)), json.dumps(bad)])
        assert err.value.line_number == 2

    def test_invalid_distribution_is_malformed(self):
        with pytest.raises(MalformedLine):
            load_scenario([self.line("s", "q", (0.5, 0.6))])
        with pytest.raises(MalformedLine):
            load_scenario([self.line("s", "q", (0.5, 0.5), correct=5)])

    @pytest.mark.parametrize("probs", [["0.5", "0.5"], [True, False], ["x", 0.5]])
    def test_probabilities_must_be_numbers(self, probs):
        obj = json.loads(self.line("s", "q", (0.5, 0.5)))
        obj["probs"] = probs
        with pytest.raises(MalformedLine, match="probs must be numbers") as err:
            load_scenario([self.line("s", "q0", (0.5, 0.5)), json.dumps(obj)])
        assert err.value.line_number == 2

    def test_probability_too_large_for_a_float_is_malformed(self):
        obj = json.loads(self.line("s", "q", (0.5, 0.5)))
        obj["probs"] = [10**400, 0]
        with pytest.raises(MalformedLine):
            load_scenario([json.dumps(obj)])

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "int-too-large"]
    )
    def test_token_means_must_be_finite(self, value):
        obj = json.loads(self.line("s", "q", (0.5, 0.5)))
        obj["mean_completion_tokens"] = value
        with pytest.raises(MalformedLine, match="mean_completion_tokens must be a finite") as err:
            load_scenario([self.line("s", "q0", (0.5, 0.5)), json.dumps(obj)])
        assert err.value.line_number == 2

    def test_bool_fields_rejected(self):
        obj = json.loads(self.line("s", "q", (0.5, 0.5)))
        obj["correct_index"] = True
        with pytest.raises(MalformedLine):
            load_scenario([json.dumps(obj)])
        obj = json.loads(self.line("s", "q", (0.5, 0.5)))
        obj["mean_prompt_tokens"] = -1
        with pytest.raises(MalformedLine):
            load_scenario([json.dumps(obj)])


class TestFromSamples:
    def test_estimates_and_orders(self):
        groups = {
            ("q0", "s1"): QuestionSamples("q0", "s1", "a", ("a", "a", "b", "a"), 100.0, 50.0),
            ("q1", "s1"): QuestionSamples("q1", "s1", "x", ("y", "y"), 90.0, 40.0),
            ("q0", "s2"): QuestionSamples("q0", "s2", "a", ("a", "b"), 200.0, 80.0),
        }
        dss = datasets_from_samples(groups)
        assert [ds.strategy_id for ds in dss] == ["s1", "s2"]
        s1 = dss[0]
        assert s1.questions[0].dist.probs == (0.75, 0.25)
        assert s1.questions[1].dist.probs == (1.0, 0.0)
        assert s1.questions[1].dist.correct_index == 1
        assert s1.questions[0].mean_prompt_tokens == 100.0

    def test_smoothing_passthrough(self):
        groups = {
            ("q0", "s1"): QuestionSamples("q0", "s1", "a", ("a", "a", "a", "b"), 0.0, 0.0)
        }
        dss = datasets_from_samples(groups, smoothing=1.0)
        assert dss[0].questions[0].dist.probs == pytest.approx((4 / 6, 2 / 6))
