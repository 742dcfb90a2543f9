"""End-to-end command-line behavior: output rows, report files, exit codes."""
import csv
import json
import math
import os
from unittest import mock

import numpy as np
import pytest

from conftest import N_PAST_EXACT_CAP, answers_at_exact_cap, run_python
from votescale import AnswerDistribution, crossover_condition
from votescale.cli import main
from votescale.votemath import EXACT_MAX_N


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def scenario_line(sid, qid, probs, correct=0, pt=100.0, ct=50.0):
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


def log_line(qid, sid, idx, answer="a0", pt=10, ct=5):
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


def truth_line(qid, answer="a0"):
    return json.dumps({"question_id": qid, "correct_answer": answer})


def write_lines(path, lines):
    """Write ``lines`` as UTF-8; a lone surrogate from U+DC80 to U+DCFF is
    written as the byte it escapes, which is not UTF-8."""
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")


class TestPointCommands:
    def test_exact_rows(self, capsys):
        code, out, _ = run(
            capsys, ["exact", "--dist", "0.64,0.35,0.01", "--grid", "1,3,5"]
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["n", "value", "method", "stderr"]
        values = {int(r[0]): float(r[1]) for r in rows[1:]}
        assert values[1] == pytest.approx(0.640, abs=5e-4)
        assert values[3] == pytest.approx(0.709, abs=5e-4)
        assert values[5] == pytest.approx(0.757, abs=5e-4)
        assert all(r[2] == "exact" and r[3] == "" for r in rows[1:])

    def test_approx_even_split(self, capsys):
        code, out, _ = run(capsys, ["approx", "--dist", "0.5,0.5", "--n", "99"])
        assert code == 0
        row = list(csv.reader(out.splitlines()))[1]
        assert float(row[1]) == 0.5
        assert row[2] == "normal_approx"

    def test_mc_with_correct_flag(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "mc",
                "--dist",
                "0.2,0.8",
                "--correct",
                "1",
                "--n",
                "5",
                "--trials",
                "20000",
                "--seed",
                "1",
            ],
        )
        assert code == 0
        row = list(csv.reader(out.splitlines()))[1]
        value, stderr = float(row[1]), float(row[3])
        assert row[2] == "monte_carlo"
        assert stderr == pytest.approx(math.sqrt(value * (1 - value) / 20000), abs=1e-12)
        assert abs(value - 0.94208) < 5 * stderr

    def test_mc_point_does_not_depend_on_its_grid(self, capsys):
        flags = ["--dist", "0.6,0.2,0.2", "--trials", "20000", "--seed", "7"]
        _, alone, _ = run(capsys, ["mc", *flags, "--n", "5"])
        _, grid, _ = run(capsys, ["mc", *flags, "--grid", "1,5"])
        assert alone.splitlines()[1].startswith("5,")
        assert alone.splitlines()[1] == grid.splitlines()[2]

    def test_mc_sampling_time_beyond_int64_exits_2(self, capsys):
        code, out, err = run(
            capsys, ["mc", "--dist", "0.5,0.5", "--n", "100000000000000000000", "--trials", "1"]
        )
        assert code == 2
        assert out == ""
        assert err == "error: Monte Carlo needs n <= 2^63 - 1, got 100000000000000000000\n"

    def test_mc_draws_a_distribution_numpy_would_refuse(self, capsys):
        """AnswerDistribution admits sums within 1e-9 of 1; numpy's
        multinomial refuses those before the last summing past 1 + 1e-12."""
        code, out, err = run(capsys, ["mc", "--dist", "0.5000000005,0.5,0", "--n", "3", "--trials", "100"])
        assert code == 0, err
        assert list(csv.reader(out.splitlines()))[1][2] == "monte_carlo"

    def test_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "points.csv"
        code, out, _ = run(
            capsys, ["exact", "--dist", "0.6,0.4", "--n", "3", "--out", str(out_file)]
        )
        assert code == 0
        assert out == ""
        rows = read_csv(out_file)
        assert rows[0] == ["n", "value", "method", "stderr"]
        assert float(rows[1][1]) == pytest.approx(0.648, abs=1e-12)

    def test_invalid_distribution_exits_2(self, capsys):
        code, _, err = run(capsys, ["exact", "--dist", "0.6,0.5", "--n", "3"])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_probability_is_named(self, capsys, value):
        code, out, err = run(capsys, ["exact", "--dist", f"0.5,{value}", "--grid", "3"])
        assert code == 2
        assert out == ""
        assert f"error: non-finite probability: probs[1] = {value}" in err

    def test_grid_flag_conflicts_exit_2(self, capsys):
        code, _, _ = run(
            capsys, ["exact", "--dist", "0.6,0.4", "--n", "3", "--grid", "1,3"]
        )
        assert code == 2
        code, _, _ = run(capsys, ["exact", "--dist", "0.6,0.4"])
        assert code == 2
        code, _, _ = run(capsys, ["exact", "--dist", "0.6,0.4", "--grid", "3,1"])
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "3", "--grid", ""], "give either --n or --grid, not both"),
            (["--grid", ""], "--grid expects comma-separated integers, got ''"),
        ],
        ids=["with-n", "alone"],
    )
    def test_empty_grid_is_a_given_grid(self, capsys, flags, message):
        code, out, err = run(capsys, ["exact", "--dist", "0.6,0.4", *flags])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_cap_exit_3_and_fallback(self, capsys):
        argv = ["exact", "--dist", "0.6,0.4", "--n", str(N_PAST_EXACT_CAP)]
        code, _, err = run(capsys, argv)
        assert code == 3
        assert "error:" in err
        code, out, _ = run(capsys, argv + ["--fallback"])
        assert code == 0
        assert list(csv.reader(out.splitlines()))[1][2] == "normal_approx"

    def test_eight_answers_at_the_n_cap_are_exact(self, capsys):
        code, out, _ = run(
            capsys, ["exact", "--dist", "0.3,0.1,0.1,0.1,0.1,0.1,0.1,0.1", "--n", "60"]
        )
        assert code == 0
        assert out.splitlines()[1] == "60,0.973575931758,exact,"
        at_caps = ",".join(map(repr, answers_at_exact_cap().probs))
        code, out, _ = run(capsys, ["exact", "--dist", at_caps, "--n", str(EXACT_MAX_N)])
        assert code == 0
        row = list(csv.reader(out.splitlines()))[1]
        assert (row[0], row[2]) == (str(EXACT_MAX_N), "exact")

    def test_bad_correct_index(self, capsys):
        code, _, _ = run(
            capsys, ["exact", "--dist", "0.6,0.4", "--correct", "5", "--n", "3"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags", [["approx", "--fallback"], ["approx", "--trials", "5"], ["exact", "--seed", "1"]]
    )
    def test_point_commands_reject_flags_they_lack(self, flags):
        with pytest.raises(SystemExit) as exc:
            main(flags + ["--dist", "0.6,0.4", "--n", "3"])
        assert exc.value.code == 2


class TestProcessEntry:
    """``python -m votescale.cli`` exits with main's code, its output whole."""

    def test_point_command_exits_0_with_complete_output(self, capsys):
        # enough trials that the three points are drawn in a forked worker
        # where the process may use two CPUs
        argv = ["mc", "--dist", "0.6,0.2,0.2", "--grid", "1,3,5", "--trials", "30000", "--seed", "7"]
        proc = run_python("-m", "votescale.cli", *argv)
        code, out, _ = run(capsys, argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == out and len(out.splitlines()) == 4 and code == 0

    def test_bad_input_exits_2_with_one_error_line(self):
        for dist in ("0.5,x", "1e308,1e308"):  # the second overflows math.fsum
            proc = run_python("-m", "votescale.cli", "exact", "--dist", dist, "--n", "3")
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1

    def test_cap_overflow_exits_3(self):
        proc = run_python("-m", "votescale.cli", "exact", "--dist", "0.5,0.5", "--n", str(N_PAST_EXACT_CAP))
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


class TestPredict:
    def scenario(self, tmp_path):
        path = tmp_path / "scenario.jsonl"
        write_lines(
            path,
            [
                scenario_line("early", "q0", (0.64, 0.35, 0.01)),
                scenario_line("late", "q0", (0.6, 0.2, 0.2)),
            ],
        )
        return path

    def test_curves_and_selection(self, capsys, tmp_path):
        out_dir = tmp_path / "report"
        code, _, _ = run(
            capsys,
            [
                "predict",
                "--scenario",
                str(self.scenario(tmp_path)),
                "--grid",
                "1,3,5",
                "--method",
                "exact",
                "--out",
                str(out_dir),
            ],
        )
        assert code == 0
        curves = read_csv(out_dir / "curves.csv")
        assert curves[0] == ["strategy_id", "n", "accuracy", "method"]
        assert [r[0] for r in curves[1:]] == ["early"] * 3 + ["late"] * 3
        by_key = {(r[0], int(r[1])): float(r[2]) for r in curves[1:]}
        assert by_key[("early", 5)] == pytest.approx(0.757, abs=5e-4)
        assert by_key[("late", 5)] == pytest.approx(0.769, abs=5e-4)
        selection = read_csv(out_dir / "selection.csv")
        assert selection[0] == ["n", "chosen_strategy", "predicted_accuracy"]
        choice = {int(r[0]): r[1] for r in selection[1:]}
        assert choice[1] == "early"
        assert choice[5] == "late"
        assert not (out_dir / "budget_selection.csv").exists()

    def test_budget_report(self, capsys, tmp_path):
        out_dir = tmp_path / "report"
        code, _, _ = run(
            capsys,
            [
                "predict",
                "--scenario",
                str(self.scenario(tmp_path)),
                "--grid",
                "1,3,5",
                "--method",
                "exact",
                "--prices",
                "0.15,0.6",
                "--budget",
                "1.0",
                "--out",
                str(out_dir),
            ],
        )
        assert code == 0
        budget = read_csv(out_dir / "budget_selection.csv")
        assert budget[0] == ["budget", "chosen_strategy", "chosen_n", "predicted_accuracy"]
        assert budget[1][1] == "late"
        assert budget[1][2] == "5"

    def test_infeasible_budget_exits_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            [
                "predict",
                "--scenario",
                str(self.scenario(tmp_path)),
                "--grid",
                "1,3",
                "--budget",
                "1e-12",
                "--out",
                str(tmp_path / "r"),
            ],
        )
        assert code == 2

    def test_mismatched_questions_exit_2(self, capsys, tmp_path):
        """Strategies over different questions are not compared; the check
        comes before any cell, so an above-cap cell does not exit 3 first."""
        path = tmp_path / "scenario.jsonl"
        write_lines(path, [scenario_line("a", "q0", (0.6, 0.4)), scenario_line("b", "q1", (0.6, 0.4))])
        code, _, err = run(
            capsys,
            ["predict", "--scenario", str(path), "--grid", f"1,{N_PAST_EXACT_CAP}", "--method", "exact",
             "--out", str(tmp_path / "r")],
        )
        assert code == 2
        assert err == "error: strategy 'b' covers different questions than 'a': 'b' lacks question 'q0'\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["predict", "--budget", "nan"], "--budget must be >= 0"),
            (["predict", "--prices", "nan,0.6", "--budget", "1.0"], "--prices must be >= 0"),
            (["predict", "--prices", "a,b"], "--prices expects comma-separated numbers, got 'a,b'"),
            (["predict", "--prices", "1"], "--prices expects 2 comma-separated numbers"),
            (["predict", "--grid", "1,x"], "--grid expects comma-separated integers, got '1,x'"),
            (["mc", "--dist", "0.6,0.4", "--trials", "0"], "--trials must be >= 1"),
            (["mc", "--dist", "0.6,0.4", "--seed", "-1"], "--seed must be >= 0"),
            (["synth", "--samples", "0"], "--samples must be >= 1"),
            (["synth", "--samples", "5", "--seed", "-1"], "--seed must be >= 0"),
            # 10^17 float64 draws need 711 PiB, more than 57-bit virtual
            # addresses reach (128 PiB), so the allocation fails at once
            (["synth", "--samples", str(10**17)], f"--samples {10**17} is more draws than fit in memory"),
        ],
        ids=[
            "budget-nan", "prices-nan", "prices-text", "prices-one", "grid-text",
            "mc-trials-0", "mc-seed-negative", "synth-samples-0", "synth-seed-negative",
            "synth-samples-past-memory",
        ],
    )
    def test_bad_flag_exits_2_with_one_error_line(self, capsys, tmp_path, argv, message):
        command, *flags = argv
        out_dir = tmp_path / "r"
        if command != "mc":
            flags += ["--scenario", str(self.scenario(tmp_path))]
        if command != "synth":
            flags = ["--grid", "1,3", *flags]
        code, out, err = run(capsys, [command, *flags, "--out", str(out_dir)])
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()

    def test_non_numeric_probability_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "typed.jsonl"
        write_lines(path, [scenario_line("s", "q0", ("x", 0.5))])
        code, _, err = run(
            capsys,
            ["predict", "--scenario", str(path), "--n", "3", "--out", str(tmp_path / "r")],
        )
        assert code == 2
        assert "typed.jsonl: line 1: probs must be numbers" in err

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_line_ends_and_non_utf8_bytes(self, capsys, tmp_path, newline):
        lines = [scenario_line("s", f"q{i}", (0.6, 0.4)).encode() for i in range(3)]
        path = tmp_path / "scenario.jsonl"
        path.write_bytes(newline.join(lines) + newline)
        argv = ["predict", "--scenario", str(path), "--n", "3", "--out", str(tmp_path / "r")]
        code, _, err = run(capsys, argv)
        assert code == 0, err
        assert len(read_csv(tmp_path / "r" / "curves.csv")) == 2
        path.write_bytes(newline.join(lines[:2] + [b"\xff" + lines[2]]) + newline)
        code, _, err = run(capsys, argv)
        assert code == 2
        assert f"{path}: line 3: not valid UTF-8" in err

    def test_malformed_scenario_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            ["predict", "--scenario", str(path), "--n", "3", "--out", str(tmp_path / "r")],
        )
        assert code == 2
        assert "bad.jsonl" in err

    def test_report_evaluates_each_cell_once(self, capsys, tmp_path, monkeypatch):
        import votescale.selection as selection

        path = tmp_path / "large.jsonl"
        write_lines(
            path,
            [
                scenario_line(f"s{s}", f"q{q}", (0.4 + 0.01 * s, 0.35, 0.25 - 0.01 * s))
                for s in range(3)
                for q in range(1000)
            ],
        )
        real = selection.vote_probabilities
        calls = []

        def counting(cells, method, **kwargs):
            cells = list(cells)
            calls.extend(n for _, n, _ in cells)
            return real(cells, method, **kwargs)

        monkeypatch.setattr(selection, "vote_probabilities", counting)
        code, _, err = run(
            capsys,
            [
                "predict",
                "--scenario",
                str(path),
                "--method",
                "approx",
                "--grid",
                "1,3,5,9,15,31",
                "--out",
                str(tmp_path / "report"),
            ],
        )
        assert code == 0, err
        # 3 strategies x 1,000 questions x 6 grid points, each evaluated once
        assert len(calls) == 18_000

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("command", ["predict", "synth"])
    def test_non_finite_token_mean_names_the_line(self, capsys, tmp_path, command, value):
        path = tmp_path / "tokens.jsonl"
        write_lines(
            path,
            [scenario_line("s", "q0", (0.6, 0.4)), scenario_line("s", "q1", (0.6, 0.4), pt=value)],
        )
        flags = ["--n", "3", "--budget", "5"] if command == "predict" else ["--samples", "3"]
        code, _, err = run(
            capsys, [command, "--scenario", str(path), *flags, "--out", str(tmp_path / "r")]
        )
        assert code == 2
        assert "tokens.jsonl: line 2: mean_prompt_tokens must be a finite number >= 0" in err
        assert not (tmp_path / "r").exists()

    def test_empty_scenario_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n", encoding="utf-8")
        code, _, _ = run(
            capsys,
            ["predict", "--scenario", str(path), "--n", "3", "--out", str(tmp_path / "r")],
        )
        assert code == 2


class TestSynthAnalyze:
    def planted(self, tmp_path):
        path = tmp_path / "planted.jsonl"
        write_lines(
            path,
            [
                scenario_line("s1", "q0", (0.64, 0.35, 0.01)),
                scenario_line("s1", "q1", (0.3, 0.6, 0.1), correct=0),
                scenario_line("s2", "q0", (0.6, 0.2, 0.2)),
                scenario_line("s2", "q1", (0.8, 0.1, 0.1)),
            ],
        )
        return path

    def synth(self, capsys, tmp_path, samples=600, seed=3):
        data = tmp_path / "data"
        code, _, _ = run(
            capsys,
            [
                "synth",
                "--scenario",
                str(self.planted(tmp_path)),
                "--samples",
                str(samples),
                "--seed",
                str(seed),
                "--out",
                str(data),
            ],
        )
        assert code == 0
        return data

    def test_synth_files(self, capsys, tmp_path):
        data = self.synth(capsys, tmp_path, samples=10)
        log_lines = (data / "log.jsonl").read_text(encoding="utf-8").splitlines()
        truth_lines = (data / "truth.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(log_lines) == 4 * 10
        assert len(truth_lines) == 2
        first = json.loads(log_lines[0])
        assert set(first) == {
            "question_id",
            "strategy_id",
            "sample_index",
            "answer",
            "prompt_tokens",
            "completion_tokens",
        }
        truth = {json.loads(l)["question_id"]: json.loads(l)["correct_answer"] for l in truth_lines}
        assert truth == {"q0": "a0", "q1": "a0"}

    def test_synth_conflicting_truth_exits_2(self, capsys, tmp_path):
        path = tmp_path / "conflict.jsonl"
        write_lines(
            path,
            [
                scenario_line("s1", "q0", (0.6, 0.4), correct=0),
                scenario_line("s2", "q0", (0.6, 0.4), correct=1),
            ],
        )
        code, _, err = run(
            capsys,
            ["synth", "--scenario", str(path), "--samples", "5", "--out", str(tmp_path / "d")],
        )
        assert code == 2
        assert "conflicting" in err

    def test_sample_counts_beyond_int64_exit_2(self, capsys, tmp_path):
        big = "100000000000000000000"
        code, _, err = run(
            capsys,
            ["synth", "--scenario", str(self.planted(tmp_path)), "--samples", big,
             "--out", str(tmp_path / "d")],
        )
        assert (code, err) == (2, "error: --samples must be <= 2^63 - 1\n")
        assert not (tmp_path / "d").exists()
        data = self.synth(capsys, tmp_path, samples=5)
        for argv in (
            ["predict", "--scenario", str(self.planted(tmp_path))],
            ["analyze", "--log", str(data / "log.jsonl"), "--truth", str(data / "truth.jsonl")],
        ):
            code, _, err = run(
                capsys,
                argv + ["--method", "mc", "--grid", f"1,{big}", "--trials", "1",
                        "--out", str(tmp_path / "r")],
            )
            assert (code, err) == (2, f"error: Monte Carlo needs n <= 2^63 - 1, got {big}\n")
            assert not (tmp_path / "r").exists()

    def test_analyze_round_trip(self, capsys, tmp_path):
        data = self.synth(capsys, tmp_path)
        report = tmp_path / "report"
        code, _, _ = run(
            capsys,
            [
                "analyze",
                "--log",
                str(data / "log.jsonl"),
                "--truth",
                str(data / "truth.jsonl"),
                "--grid",
                "1,3,5",
                "--method",
                "exact",
                "--out",
                str(report),
            ],
        )
        assert code == 0
        for name in (
            "curves.csv",
            "difficulty_table.csv",
            "dominance.csv",
            "kl.csv",
            "selection.csv",
            "oracles.csv",
            "distributions.csv",
        ):
            assert (report / name).exists(), name

        # estimated single-sample accuracy tracks the planted distributions
        curves = {(r[0], int(r[1])): float(r[2]) for r in read_csv(report / "curves.csv")[1:]}
        assert curves[("s1", 1)] == pytest.approx((0.64 + 0.3) / 2, abs=0.06)
        assert curves[("s2", 1)] == pytest.approx((0.6 + 0.8) / 2, abs=0.06)

        table = read_csv(report / "difficulty_table.csv")
        assert table[0] == ["strategy_id", "easy_frac", "moderate_frac", "hard_frac", "limit_accuracy"]
        by_sid = {r[0]: r[1:] for r in table[1:]}
        # s1: q0 easy, q1 hard (0.6 beats the correct 0.3); s2: both easy
        assert [float(x) for x in by_sid["s1"]] == pytest.approx([0.5, 0.0, 0.5, 0.5])
        assert [float(x) for x in by_sid["s2"]] == pytest.approx([1.0, 0.0, 0.0, 1.0])

        oracles = read_csv(report / "oracles.csv")
        ids = {r[0] for r in oracles[1:]}
        assert ids == {"s1+adaptive", "s2+adaptive", "dynamic", "combined"}

        dists = read_csv(report / "distributions.csv")
        assert dists[0] == ["strategy_id", "question_id", "answer", "prob", "is_correct", "difficulty"]
        probs = {
            (r[0], r[1], r[2]): float(r[3]) for r in dists[1:]
        }
        assert probs[("s1", "q0", "a0")] == pytest.approx(0.64, abs=0.06)
        assert probs[("s2", "q1", "a0")] == pytest.approx(0.8, abs=0.06)

    def test_dominance_counts_questions_matched_by_id(self, capsys, tmp_path):
        """dominance.csv against a count over the report's own distributions
        (eighths, so written exactly), each question looked up by id; s1 logs
        its questions in reverse order."""
        rng = np.random.default_rng(5)
        questions, strategies = [f"q{i}" for i in range(12)], ["s0", "s1", "s2"]
        lines = []
        for sid in strategies:
            for qid in questions[::-1] if sid == "s1" else questions:
                lines += [log_line(qid, sid, i, f"a{rng.integers(3)}") for i in range(8)]
        write_lines(tmp_path / "log.jsonl", lines)
        write_lines(tmp_path / "truth.jsonl", [truth_line(qid) for qid in questions])
        report = tmp_path / "report"
        code, _, err = run(capsys, [
            "analyze", "--log", str(tmp_path / "log.jsonl"), "--truth", str(tmp_path / "truth.jsonl"),
            "--n", "1", "--out", str(report),
        ])
        assert code == 0, err
        probs, correct = {}, {}
        for sid, qid, _, prob, is_correct, _ in read_csv(report / "distributions.csv")[1:]:
            if is_correct == "1":
                correct[sid, qid] = len(probs.get((sid, qid), ()))
            probs.setdefault((sid, qid), []).append(float(prob))
        dists = {key: AnswerDistribution(tuple(p), correct[key]) for key, p in probs.items()}
        expected = [
            [a, b, str(sum(crossover_condition(dists[a, qid], dists[b, qid]) for qid in questions))]
            for a in strategies
            for b in strategies
            if a != b
        ]
        assert read_csv(report / "dominance.csv") == [["overtaker", "overtaken", "count"], *expected]
        assert all(int(count) > 0 for _, _, count in expected)

    def test_analyze_multiple_logs(self, capsys, tmp_path):
        """A log split in halves, or into odd and even lines so that every
        pool spans both logs, gives the whole log's report byte for byte."""
        data = self.synth(capsys, tmp_path, samples=40)
        lines = (data / "log.jsonl").read_text(encoding="utf-8").splitlines()
        half = len(lines) // 2
        base = ["--truth", str(data / "truth.jsonl"), "--grid", "1,3,5,9", "--method", "exact",
                "--prices", "0.15,0.6", "--budget", "0.05"]
        reports = {}
        for name, parts in (("whole", [lines]), ("halves", [lines[:half], lines[half:]]),
                            ("odd-even", [lines[::2], lines[1::2]])):
            logs = []
            for i, part in enumerate(parts):
                logs += ["--log", str(tmp_path / f"{name}-{i}.jsonl")]
                write_lines(tmp_path / f"{name}-{i}.jsonl", part)
            code, _, err = run(capsys, ["analyze", *logs, *base, "--out", str(tmp_path / name)])
            assert code == 0, err
            reports[name] = {f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())}
        assert "budget_selection.csv" in reports["whole"]
        assert reports["halves"] == reports["whole"]
        assert reports["odd-even"] == reports["whole"]

    def test_analyze_reads_every_line_end_alike(self, capsys, tmp_path):
        """\\r\\n and \\r copies of a log give the \\n log's report byte for
        byte."""
        data = self.synth(capsys, tmp_path, samples=100)
        text = (data / "log.jsonl").read_bytes()
        reports = {}
        for name, newline in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
            log, out = tmp_path / f"log-{name}.jsonl", tmp_path / f"report-{name}"
            log.write_bytes(text.replace(b"\n", newline))
            argv = ["analyze", "--log", str(log), "--truth", str(data / "truth.jsonl"), "--grid", "1,3,5"]
            code, _, err = run(capsys, argv + ["--out", str(out)])
            assert code == 0, err
            reports[name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert reports["crlf"] == reports["lf"]
        assert reports["cr"] == reports["lf"]

    def test_analyze_evaluates_each_cell_once(self, capsys, tmp_path, monkeypatch):
        import votescale.votemath as votemath

        data = self.synth(capsys, tmp_path, samples=40)
        real = votemath.monte_carlo_majority_probs
        calls = []

        def counting(cells, trials):
            cells = list(cells)
            # a Monte Carlo cell's seed is the entropy (seed, strategy, question, n)
            calls.extend(cells)
            return real(cells, trials)

        monkeypatch.setattr(votemath, "monte_carlo_majority_probs", counting)
        code, _, err = run(
            capsys,
            [
                "analyze",
                "--log",
                str(data / "log.jsonl"),
                "--truth",
                str(data / "truth.jsonl"),
                "--grid",
                "1,3,5",
                "--method",
                "mc",
                "--trials",
                "500",
                "--budget",
                "1",
                "--out",
                str(tmp_path / "report"),
            ],
        )
        assert code == 0, err
        assert (tmp_path / "report" / "budget_selection.csv").exists()
        # 2 strategies x 2 questions x 3 grid points, each evaluated once
        assert len(calls) == len(set(calls)) == 12

    def test_analyze_draws_one_sample_cells_for_hard_pools_only(self, capsys, tmp_path, monkeypatch):
        import votescale.votemath as votemath

        data = self.synth(capsys, tmp_path, samples=40)
        real = votemath.monte_carlo_majority_probs
        calls = []

        def counting(cells, trials):
            cells = list(cells)
            calls.extend(cells)
            return real(cells, trials)

        monkeypatch.setattr(votemath, "monte_carlo_majority_probs", counting)
        code, _, err = run(
            capsys,
            [
                "analyze",
                "--log",
                str(data / "log.jsonl"),
                "--truth",
                str(data / "truth.jsonl"),
                "--grid",
                "3,5",
                "--method",
                "mc",
                "--trials",
                "500",
                "--out",
                str(tmp_path / "report"),
            ],
        )
        assert code == 0, err
        # 2 strategies x 2 questions x 2 grid points, plus the one hard pool
        # (s1's q1) at n=1 for the adaptive and combined oracles
        assert len(calls) == len(set(calls)) == 9
        assert [n for _, n, _ in calls].count(1) == 1

    @pytest.mark.parametrize("grid, batches", [("1,3,5", 1), ("3,5", 2)])
    def test_analyze_draws_its_cells_in_one_batch(self, capsys, tmp_path, monkeypatch, grid, batches):
        """On two CPUs, every Monte Carlo cell of a report is drawn in one
        batch, split over one forked worker; a grid without 1 adds a batch
        for the hard pool's n = 1 cell."""
        import votescale.votemath as votemath

        data = self.synth(capsys, tmp_path, samples=40)
        real = votemath.monte_carlo_majority_probs
        sizes = []

        def counting(cells, trials):
            cells = list(cells)
            sizes.append(len(cells))
            return real(cells, trials)

        monkeypatch.setattr(votemath, "monte_carlo_majority_probs", counting)
        monkeypatch.setattr(votemath, "_cpu_count", lambda: 2)
        argv = ["analyze", "--log", str(data / "log.jsonl"), "--truth", str(data / "truth.jsonl"),
                "--grid", grid, "--method", "mc", "--trials", "9000", "--budget", "1",
                "--out", str(tmp_path / "report")]
        with mock.patch("os.fork", wraps=os.fork) as fork:
            code, _, err = run(capsys, argv)
        assert code == 0, err
        # 2 strategies x 2 questions per grid point, then s1's hard q1 at n = 1
        assert sizes == ([12] if batches == 1 else [8, 1])
        # a one-cell batch is drawn in process
        assert fork.call_count == 1

    def test_analyze_sends_each_kernel_input_once(self, capsys, tmp_path, monkeypatch):
        """An exact report makes one exact batch, which sends each distinct
        (support, n) to the kernel once, across strategies."""
        import votescale.votemath as votemath

        pools = {("q0", "s1"): "a0 a0 a1 a2 a0", ("q0", "s2"): "a0 a0 a1 a2 a0",
                 ("q1", "s1"): "a0 a1 a1", ("q1", "s2"): "a1 a0 a0 a2"}
        write_lines(tmp_path / "log.jsonl", [
            log_line(qid, sid, i, answer)
            for (qid, sid), answers in pools.items()
            for i, answer in enumerate(answers.split())
        ])
        write_lines(tmp_path / "truth.jsonl", [truth_line("q0"), truth_line("q1")])
        real_batch, real_kernel = votemath.exact_majority_probs, votemath._exact_kernel
        batches, rows = [], []

        def batch(cells, **kwargs):
            cells = list(cells)
            batches.append(len(cells))
            return real_batch(cells, **kwargs)

        def kernel(supports, n):
            rows.extend((support, n) for support in supports)
            return real_kernel(supports, n)

        monkeypatch.setattr(votemath, "exact_majority_probs", batch)
        monkeypatch.setattr(votemath, "_exact_kernel", kernel)
        code, _, err = run(capsys, [
            "analyze", "--log", str(tmp_path / "log.jsonl"), "--truth", str(tmp_path / "truth.jsonl"),
            "--grid", "1,3,5", "--budget", "1", "--out", str(tmp_path / "report"),
        ])
        assert code == 0, err
        assert batches == [12]
        # q0's pool is the same under both strategies: 3 distinct supports at n = 3 and 5
        assert len(rows) == len(set(rows)) == 6

    def test_analyze_classifies_each_pool_once(self, capsys, tmp_path, monkeypatch):
        """A log of the benchmark's log-exact shape, 3 strategies x 300
        questions x 64 samples: the run labels each of the 900 pools once,
        and the difficulty table reads those labels."""
        import votescale.cli as cli
        import votescale.difficulty as difficulty
        import votescale.selection as selection

        write_lines(tmp_path / "log.jsonl", [
            log_line(f"q{q:04d}", f"s{s}", i, f"a{(i * 7 + q * (s + 1)) % (2 + q % 4)}")
            for s in range(3)
            for q in range(300)
            for i in range(64)
        ])
        write_lines(tmp_path / "truth.jsonl", [truth_line(f"q{q:04d}") for q in range(300)])
        real = difficulty.classify
        calls = []

        def counting(dist, **kwargs):
            calls.append(dist)
            return real(dist, **kwargs)

        for module in (difficulty, selection, cli):
            if hasattr(module, "classify"):
                monkeypatch.setattr(module, "classify", counting)
        code, _, err = run(capsys, [
            "analyze", "--log", str(tmp_path / "log.jsonl"), "--truth", str(tmp_path / "truth.jsonl"),
            "--grid", "1,3,5,9,15,31", "--budget", "1", "--out", str(tmp_path / "report"),
        ])
        assert code == 0, err
        assert len(calls) == 900

    def no_wrong_mass_log(self, tmp_path):
        """``analyze`` flags for a log where both strategies answer q0 a four
        times, s1 answers q1 a four times and s0 answers it a, a, b, c; the
        correct answer is a."""
        answers = {("s0", "q0"): "aaaa", ("s0", "q1"): "aabc", ("s1", "q0"): "aaaa", ("s1", "q1"): "aaaa"}
        write_lines(
            tmp_path / "log.jsonl",
            [log_line(q, s, i, answer) for (s, q), text in answers.items() for i, answer in enumerate(text)],
        )
        write_lines(tmp_path / "truth.jsonl", [truth_line("q0", "a"), truth_line("q1", "a")])
        return [
            "analyze", "--log", str(tmp_path / "log.jsonl"), "--truth", str(tmp_path / "truth.jsonl"),
            "--grid", "1,3", "--out", str(tmp_path / "report"),
        ]

    def test_kl_skips_pools_without_wrong_mass(self, capsys, tmp_path):
        code, _, err = run(capsys, self.no_wrong_mass_log(tmp_path))
        assert code == 0, err
        assert read_csv(tmp_path / "report" / "kl.csv") == [
            ["strategy_id", "mean_kl", "questions_with_wrong_mass"], ["s0", "0", "1"], ["s1", "", "0"]
        ]

    def test_analyze_smoothing_adds_a_pseudo_count_per_answer(self, capsys, tmp_path):
        code, _, err = run(capsys, self.no_wrong_mass_log(tmp_path) + ["--smoothing", "1"])
        assert code == 0, err
        rows = read_csv(tmp_path / "report" / "distributions.csv")
        assert [(r[2], r[3]) for r in rows if r[:2] == ["s0", "q1"]] == [
            ("a", "0.428571428571"), ("b", "0.285714285714"), ("c", "0.285714285714")
        ]

    @pytest.mark.parametrize("smoothing", ["nan", "inf", "-1"])
    def test_analyze_rejects_bad_smoothing(self, capsys, tmp_path, smoothing):
        data = self.synth(capsys, tmp_path, samples=10)
        code, _, err = run(
            capsys,
            [
                "analyze",
                "--log",
                str(data / "log.jsonl"),
                "--truth",
                str(data / "truth.jsonl"),
                "--n",
                "3",
                "--smoothing",
                smoothing,
                "--out",
                str(tmp_path / "report"),
            ],
        )
        assert code == 2
        assert "--smoothing must be a finite number >= 0" in err
        assert not (tmp_path / "report").exists()

    def test_analyze_smoothing_that_overflows_is_named(self, capsys, tmp_path):
        code, _, err = run(capsys, self.no_wrong_mass_log(tmp_path) + ["--smoothing", "1e308"])
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and "smoothing" in err
        assert not (tmp_path / "report").exists()

    def test_analyze_non_utf8_log_names_file_and_line(self, capsys, tmp_path):
        data = self.synth(capsys, tmp_path, samples=10)
        log = data / "log.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(b"".join(lines[:2]) + b"\xff" + b"".join(lines[2:]))
        code, _, err = run(
            capsys,
            [
                "analyze",
                "--log",
                str(log),
                "--truth",
                str(data / "truth.jsonl"),
                "--n",
                "3",
                "--out",
                str(tmp_path / "report"),
            ],
        )
        assert code == 2
        assert err == f"error: {log}: line 3: not valid UTF-8\n"

    def test_analyze_empty_log_exits_2(self, capsys, tmp_path):
        (tmp_path / "log.jsonl").write_text("\n", encoding="utf-8")
        (tmp_path / "truth.jsonl").write_text(
            json.dumps({"question_id": "q0", "correct_answer": "a0"}) + "\n",
            encoding="utf-8",
        )
        code, _, err = run(
            capsys,
            [
                "analyze",
                "--log",
                str(tmp_path / "log.jsonl"),
                "--truth",
                str(tmp_path / "truth.jsonl"),
                "--n",
                "3",
                "--out",
                str(tmp_path / "r"),
            ],
        )
        assert code == 2
        assert "no records" in err

    def test_analyze_mismatched_strategies_exit_2(self, capsys, tmp_path, monkeypatch):
        """The run checks the shared question set before any cell is
        evaluated."""
        import votescale.selection as selection

        real = selection.vote_probabilities
        calls = []

        def counting(cells, method, **kwargs):
            cells = list(cells)
            calls.extend(cells)
            return real(cells, method, **kwargs)

        monkeypatch.setattr(selection, "vote_probabilities", counting)
        write_lines(
            tmp_path / "log.jsonl",
            [log_line("q0", "s1", 0), log_line("q1", "s1", 0), log_line("q0", "s2", 0)],
        )
        write_lines(tmp_path / "truth.jsonl", [truth_line("q0"), truth_line("q1")])
        code, _, err = run(
            capsys,
            [
                "analyze",
                "--log",
                str(tmp_path / "log.jsonl"),
                "--truth",
                str(tmp_path / "truth.jsonl"),
                "--n",
                "3",
                "--out",
                str(tmp_path / "r"),
            ],
        )
        assert code == 2
        assert "different questions" in err
        assert not (tmp_path / "r").exists()
        assert calls == []

    @pytest.mark.parametrize(
        "questions, message",
        [
            ({"s0": ["q0", "q1", "q2"], "s1": ["q0", "q2"]}, "'s1' lacks question 'q1'"),
            ({"s0": ["q0"], "s1": ["q2", "q0", "q1"]}, "'s0' lacks question 'q2'"),
        ],
    )
    def test_analyze_names_a_question_one_strategy_lacks(self, capsys, tmp_path, questions, message):
        log = [log_line(q, s, 0) for s, qs in questions.items() for q in qs]
        write_lines(tmp_path / "log.jsonl", log)
        write_lines(tmp_path / "truth.jsonl", [truth_line(f"q{q}") for q in range(3)])
        code, _, err = run(
            capsys,
            [
                "analyze",
                "--log",
                str(tmp_path / "log.jsonl"),
                "--truth",
                str(tmp_path / "truth.jsonl"),
                "--n",
                "1",
                "--out",
                str(tmp_path / "r"),
            ],
        )
        assert code == 2
        assert err == f"error: strategy 's1' covers different questions than 's0': {message}\n"

    def test_analyze_missing_truth_exits_2(self, capsys, tmp_path):
        data = self.synth(capsys, tmp_path, samples=5)
        (tmp_path / "short_truth.jsonl").write_text(
            json.dumps({"question_id": "q0", "correct_answer": "a0"}) + "\n",
            encoding="utf-8",
        )
        code, _, _ = run(
            capsys,
            [
                "analyze",
                "--log",
                str(data / "log.jsonl"),
                "--truth",
                str(tmp_path / "short_truth.jsonl"),
                "--n",
                "3",
                "--out",
                str(tmp_path / "r"),
            ],
        )
        assert code == 2


DEEP = "[" * 100_000 + "]" * 100_000
SURROGATE = json.dumps("\ud800")  # the six characters "\ud800", quoted


class TestBadLines:
    """A bad line in a log, a ground-truth or a scenario file exits 2 naming
    the file and line, before any report is written."""

    def argv(self, tmp_path, name):
        out = ["--n", "3", "--out", str(tmp_path / "report")]
        if name == "scenario.jsonl":
            return ["predict", "--scenario", str(tmp_path / name), *out]
        log, truth = tmp_path / "log.jsonl", tmp_path / "truth.jsonl"
        return ["analyze", "--log", str(log), "--truth", str(truth), *out]

    def run_with_line_2(self, capsys, tmp_path, name, change, after=b""):
        """Write valid inputs, replace line 2 of ``name`` by ``change(line 2)``,
        append the bytes ``after`` and run the command that reads it."""
        write_lines(tmp_path / "log.jsonl", [log_line(f"q{q}", "s1", i) for q in range(2) for i in range(3)])
        write_lines(tmp_path / "truth.jsonl", [truth_line("q0"), truth_line("q1")])
        write_lines(tmp_path / "scenario.jsonl", [scenario_line("s1", f"q{q}", (0.6, 0.4)) for q in range(3)])
        path = tmp_path / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = change(lines)
        write_lines(path, lines)
        with open(path, "ab") as fh:
            fh.write(after)
        code, _, err = run(capsys, self.argv(tmp_path, name))
        assert code == 2
        assert not (tmp_path / "report").exists()
        return err

    @pytest.mark.parametrize(
        "name, field, kind",
        [
            ("log.jsonl", "question_id", "surrogate"),
            ("log.jsonl", "strategy_id", "surrogate"),
            ("log.jsonl", "answer", "surrogate"),
            ("truth.jsonl", "question_id", "surrogate"),
            ("truth.jsonl", "correct_answer", "surrogate"),
            ("scenario.jsonl", "strategy_id", "surrogate"),
            ("scenario.jsonl", "question_id", "surrogate"),
            ("log.jsonl", "answer", "deep"),
            ("truth.jsonl", "correct_answer", "deep"),
            ("scenario.jsonl", "probs", "deep"),
            ("log.jsonl", "prompt_tokens", "huge"),
        ],
    )
    def test_bad_value_names_file_and_line(self, capsys, tmp_path, name, field, kind):
        text, message = {
            "surrogate": (SURROGATE, f"{field} holds a lone surrogate"),
            "deep": (DEEP, "invalid JSON: nested too deeply"),
            "huge": (str(10**400), f"{field} must be an integer"),
        }[kind]

        def change(lines):
            fields = json.loads(lines[1])
            fields[field] = None
            return json.dumps(fields).replace(f'"{field}": null', f'"{field}": {text}')

        err = self.run_with_line_2(capsys, tmp_path, name, change)
        assert f"{tmp_path / name}: line 2: {message}" in err

    def test_probability_too_large_for_a_double_names_scenario_line(self, capsys, tmp_path):
        def change(lines):
            return lines[1].replace('"probs": [0.6,', f'"probs": [{10**400},')

        err = self.run_with_line_2(capsys, tmp_path, "scenario.jsonl", change)
        assert f"{tmp_path / 'scenario.jsonl'}: line 2: a probability is too large for a double" in err

    @pytest.mark.parametrize(
        "name, message",
        [
            ("truth.jsonl", "ground truth repeats question_id 'q0'"),
            ("scenario.jsonl", "scenario repeats (strategy_id, question_id) = ('s1', 'q0')"),
        ],
        ids=["truth", "scenario"],
    )
    def test_repeated_key_names_file_and_line(self, capsys, tmp_path, name, message):
        err = self.run_with_line_2(capsys, tmp_path, name, lambda lines: lines[0])
        assert f"{tmp_path / name}: line 2: {message}" in err

    @pytest.mark.parametrize("name", ["log.jsonl", "truth.jsonl", "scenario.jsonl"])
    def test_bad_line_outranks_later_bad_utf8(self, capsys, tmp_path, name):
        err = self.run_with_line_2(capsys, tmp_path, name, lambda lines: "{", after=b"\xff\n")
        assert f"{tmp_path / name}: line 2: invalid JSON" in err

    @pytest.mark.parametrize(
        "name, field, separators",
        [
            ("log.jsonl", "answer", None),  # a canonical line: the pattern route's form
            ("log.jsonl", "answer", (",", ":")),  # a compact line: the JSON array route's
            ("truth.jsonl", "correct_answer", None),
            ("scenario.jsonl", "question_id", None),
        ],
        ids=["canonical-log", "compact-log", "truth", "scenario"],
    )
    def test_bad_byte_in_a_field_names_file_and_line(self, capsys, tmp_path, name, field, separators):
        def change(lines):
            fields = json.loads(lines[1])
            fields[field] += "\udcff"  # written as the byte 0xff
            return json.dumps(fields, ensure_ascii=False, separators=separators)

        err = self.run_with_line_2(capsys, tmp_path, name, change)
        assert err == f"error: {tmp_path / name}: line 2: not valid UTF-8\n"

    @pytest.mark.parametrize("name", ["log.jsonl", "truth.jsonl", "scenario.jsonl"])
    def test_bad_utf8_outranks_later_bad_line(self, capsys, tmp_path, name):
        err = self.run_with_line_2(capsys, tmp_path, name, lambda lines: "\udcff" + lines[1], after=b"{\n")
        assert f"{tmp_path / name}: line 2: not valid UTF-8" in err

    def test_repeated_record_key_names_both_lines(self, capsys, tmp_path):
        log = tmp_path / "log.jsonl"
        write_lines(log, [log_line("q0", "s1", 0), log_line("q0", "s1", 1), log_line("q0", "s1", 0, "a1")])
        write_lines(tmp_path / "truth.jsonl", [truth_line("q0")])
        code, _, err = run(capsys, self.argv(tmp_path, "log.jsonl"))
        assert code == 2
        assert not (tmp_path / "report").exists()
        assert (
            f"{log}: line 3: duplicate (question_id, strategy_id, sample_index): "
            f"('q0', 's1', 0) (first at {log}: line 1)"
        ) in err

    def test_log_passed_twice_names_both_lines(self, capsys, tmp_path):
        log = tmp_path / "log.jsonl"
        write_lines(log, ["", log_line("q0", "s1", 0), log_line("q0", "s1", 1)])
        write_lines(tmp_path / "truth.jsonl", [truth_line("q0")])
        argv = self.argv(tmp_path, "log.jsonl")
        argv[argv.index("--log") : argv.index("--log")] = ["--log", str(log)]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert not (tmp_path / "report").exists()
        assert (
            f"{log}: line 2: duplicate (question_id, strategy_id, sample_index): "
            f"('q0', 's1', 0) (first at {log}: line 2)"
        ) in err

    def test_question_without_ground_truth_names_log_line_and_truth_file(self, capsys, tmp_path):
        log, truth = tmp_path / "log.jsonl", tmp_path / "truth.jsonl"
        write_lines(log, [log_line("q0", "s1", 0), "", log_line("q9", "s1", 0), log_line("q9", "s1", 1)])
        write_lines(truth, [truth_line("q0")])
        code, _, err = run(capsys, self.argv(tmp_path, "log.jsonl"))
        assert code == 2
        assert not (tmp_path / "report").exists()
        assert f"error: {log}: line 3: no correct answer for question 'q9' in {truth}\n" == err

    def test_first_bad_record_in_reading_order_is_reported(self, capsys, tmp_path):
        """Grouping meets the repeated key of line 3 first; line 2 comes first."""
        log, truth = tmp_path / "log.jsonl", tmp_path / "truth.jsonl"
        write_lines(log, [log_line("q0", "s1", 0), log_line("q9", "s1", 0), log_line("q0", "s1", 0)])
        write_lines(truth, [truth_line("q0")])
        code, _, err = run(capsys, self.argv(tmp_path, "log.jsonl"))
        assert code == 2
        assert f"{log}: line 2: no correct answer for question 'q9' in {truth}" in err

    @pytest.mark.parametrize("bad", ["{", log_line("q9", "s1", 0)], ids=["bad-line", "bad-record"])
    def test_logs_are_closed_when_reading_them_fails(self, capsys, tmp_path, monkeypatch, bad):
        import votescale.cli as cli

        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        log_a, log_b, truth = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "truth.jsonl"
        write_lines(log_a, [log_line("q0", "s1", 0)])
        write_lines(log_b, [log_line("q0", "s1", 1), bad, log_line("q0", "s1", 2)])
        write_lines(truth, [truth_line("q0")])
        argv = ["analyze", "--log", str(log_a), "--log", str(log_b), "--truth", str(truth)]
        code, _, err = run(capsys, argv + ["--n", "1", "--out", str(tmp_path / "report")])
        assert code == 2
        assert err.startswith(f"error: {log_b}: line 2: ")
        assert len(opened) == 3 and all(fh.closed for fh in opened)


class TestFlagsBeforeInputs:
    """A bad flag exits 2 with its own message before any input file is
    opened, so a missing input does not mask it and no report is started.
    Where two flags are bad, the first in checking order is named: the grid,
    the form of --prices, --trials, --seed, the --prices values, --budget
    and (``analyze``) --smoothing."""

    def check(self, capsys, tmp_path, command, flags, message):
        missing = str(tmp_path / "missing.jsonl")
        inputs = ["--scenario", missing] if command == "predict" else ["--log", missing, "--truth", missing]
        grid = [] if "--grid" in flags else ["--n", "3"]
        out_dir = tmp_path / "r"
        code, out, err = run(capsys, [command, *inputs, *grid, *flags, "--out", str(out_dir)])
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["predict", "analyze"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--grid", "1,x"], "--grid expects comma-separated integers, got '1,x'"),
            (["--trials", "0"], "--trials must be >= 1"),
            (["--seed", "-1"], "--seed must be >= 0"),
            (["--prices", "a,b"], "--prices expects comma-separated numbers, got 'a,b'"),
            (["--prices", ""], "--prices expects comma-separated numbers, got ''"),
            (["--prices=-1,0.6"], "--prices must be >= 0"),
            (["--budget", "-1"], "--budget must be >= 0"),
            (["--trials", "0", "--prices", "a,b"], "--prices expects comma-separated numbers, got 'a,b'"),
            (["--prices=-1,0.6", "--seed", "-1"], "--seed must be >= 0"),
            (["--budget", "-1", "--prices=-1,0.6"], "--prices must be >= 0"),
        ],
        ids=[
            "grid", "trials", "seed", "prices-text", "prices-empty", "prices-negative", "budget",
            "prices-text-before-trials", "seed-before-prices-values", "prices-values-before-budget",
        ],
    )
    def test_bad_flag_with_missing_input(self, capsys, tmp_path, command, flags, message):
        self.check(capsys, tmp_path, command, flags, message)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--smoothing", "-1"], "--smoothing must be a finite number >= 0"),
            (["--smoothing", "-1", "--budget", "-1"], "--budget must be >= 0"),
        ],
        ids=["smoothing", "budget-before-smoothing"],
    )
    def test_bad_smoothing_with_missing_input(self, capsys, tmp_path, flags, message):
        self.check(capsys, tmp_path, "analyze", flags, message)


class TestDeterminism:
    def test_point_commands_repeat_byte_identical(self, capsys):
        argvs = [
            ["exact", "--dist", "0.64,0.35,0.01", "--grid", "1,3,5"],
            ["approx", "--dist", "0.6,0.2,0.2", "--grid", "10,20,40"],
            ["mc", "--dist", "0.6,0.2,0.2", "--grid", "1,3", "--trials", "5000", "--seed", "11"],
        ]
        for argv in argvs:
            _, first, _ = run(capsys, argv)
            _, second, _ = run(capsys, argv)
            assert first == second

    def test_synth_and_reports_repeat_byte_identical(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.jsonl"
        write_lines(
            scenario,
            [
                scenario_line("s1", "q0", (0.64, 0.35, 0.01)),
                scenario_line("s2", "q0", (0.6, 0.2, 0.2)),
            ],
        )
        outputs = []
        for tag in ("one", "two"):
            data = tmp_path / f"data_{tag}"
            report = tmp_path / f"report_{tag}"
            code, _, _ = run(
                capsys,
                ["synth", "--scenario", str(scenario), "--samples", "50", "--seed", "7", "--out", str(data)],
            )
            assert code == 0
            code, _, _ = run(
                capsys,
                [
                    "predict",
                    "--scenario",
                    str(scenario),
                    "--grid",
                    "1,3,5",
                    "--method",
                    "mc",
                    "--trials",
                    "4000",
                    "--seed",
                    "5",
                    "--out",
                    str(report),
                ],
            )
            assert code == 0
            outputs.append(
                (
                    (data / "log.jsonl").read_bytes(),
                    (data / "truth.jsonl").read_bytes(),
                    (report / "curves.csv").read_bytes(),
                    (report / "selection.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]
