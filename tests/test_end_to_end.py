"""Whole reports over one planted scenario and its ``synth`` log: README
blocks, log routes and question order in process; string hashing, a fresh
interpreter's imports and one pinned CPU in child interpreters."""
import json
import os
import re
from pathlib import Path

import pytest

from conftest import N_PAST_EXACT_CAP, run_python
from votescale.cli import main
from votescale.votemath import EXACT_MAX_ANSWERS

REPORT = ["--grid", "1,3,5,9", "--prices", "0.15,0.6", "--budget", "0.05"]
MC = ["--method", "mc", "--trials", "2000"]
PREDICT = ["--grid", "1,3,5,9", "--method", "exact", "--fallback"]
SYNTH = ["--samples", "40", "--seed", "3"]
#: a child's script: main on every argv of the JSON list sys.argv[1]
MAIN_EACH = """import json, sys
from votescale.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def report(argv, out):
    """Every file that ``main(argv + ["--out", out])`` writes, as bytes."""
    assert main([str(a) for a in [*argv, "--out", out]]) == 0
    return tree(out)


def tree(path):
    return {str(f.relative_to(path)): f.read_bytes() for f in sorted(path.rglob("*")) if f.is_file()}


def in_child(script, argvs, **env):
    proc = run_python("-c", script, json.dumps([[str(a) for a in argv] for argv in argvs]), **env)
    assert proc.returncode == 0, proc.stderr


def logs(data):
    return ["--log", data / "log.jsonl", "--truth", data / "truth.jsonl"]


@pytest.fixture(scope="session")
def planted(tmp_path_factory):
    """s0 and s1 over 30 questions with 2 to ``EXACT_MAX_ANSWERS`` answers,
    so every kernel plan up to the answer cap; s1 lifts the correct answer by 0.2."""
    path = tmp_path_factory.mktemp("planted") / "planted.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s, lift in (("s0", 0.0), ("s1", 0.2)):
            for q in range(30):
                m = 2 + q % (EXACT_MAX_ANSWERS - 1)
                probs = [(1 - lift) / m] * m
                probs[q % m] += lift
                fh.write(json.dumps({"strategy_id": s, "question_id": f"q{q}", "probs": probs,
                                     "correct_index": q % m, "mean_prompt_tokens": 50 + q,
                                     "mean_completion_tokens": 100 + 2 * q}) + "\n")
    return path


@pytest.fixture(scope="session")
def data(planted, tmp_path_factory):
    """``synth``'s log, whose lines take the log reader's pattern route."""
    data = tmp_path_factory.mktemp("synth") / "data"
    assert main([str(a) for a in ["synth", "--scenario", planted, *SYNTH, "--out", data]]) == 0
    return data


@pytest.fixture(scope="session")
def hashed(planted, tmp_path_factory):
    """Per PYTHONHASHSEED 1 and 2, a fresh interpreter's log and reports."""
    runs = {}
    for seed in ("1", "2"):
        out = runs[seed] = tmp_path_factory.mktemp(f"hashseed{seed}")
        in_child(MAIN_EACH, [
            ["synth", "--scenario", planted, *SYNTH, "--out", out / "data"],
            ["analyze", *logs(out / "data"), *REPORT, "--out", out / "report"],
            # Monte Carlo sub-seeds hash strategy ids with crc32, not hash()
            ["analyze", *logs(out / "data"), *REPORT, *MC, "--out", out / "report-mc"],
            # a grid without 1 draws the hard pools' n = 1 cells in a second batch
            ["analyze", *logs(out / "data"), "--grid", "3,5,9", *MC, "--out", out / "report-mc-no-1"],
            # s0 repeats one support per answer count: the exact batch groups cells by (support, n)
            ["predict", "--scenario", planted, *PREDICT, "--out", out / "predict"],
        ], PYTHONHASHSEED=seed)
    return runs


def test_readme_python_blocks_run():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks, "README.md has no python blocks"
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), {})


def test_compact_log_takes_the_json_array_route_to_the_same_report(data, tmp_path):
    compact = tmp_path / "log.jsonl"
    with open(data / "log.jsonl", encoding="utf-8") as src, open(compact, "w", encoding="utf-8") as out:
        for line in src:
            out.write(json.dumps(json.loads(line), separators=(",", ":")) + "\n")
    analyze = ["analyze", "--truth", data / "truth.jsonl", *REPORT, "--log"]
    canonical = report([*analyze, data / "log.jsonl"], tmp_path / "canonical")
    assert report([*analyze, compact], tmp_path / "compact") == canonical


def test_predict_aligns_strategies_to_the_first_ones_question_order(planted, tmp_path):
    lines = planted.read_text(encoding="utf-8").splitlines(keepends=True)
    reversed_ = tmp_path / "reversed.jsonl"
    reversed_.write_text("".join(lines[:30] + lines[30:][::-1]), encoding="utf-8")  # s1's rows reversed
    predict = ["predict", *PREDICT, "--scenario"]
    planted_report = report([*predict, planted], tmp_path / "planted")
    assert report([*predict, reversed_], tmp_path / "reversed") == planted_report


def test_analyze_aligns_pools_to_the_first_strategys_question_order(data, tmp_path):
    """s1's pools in reverse question order, each pool's samples in place: the
    oracles pair s1's cells with s0's by question, and only the order of
    ``distributions.csv``'s rows, which follows the log, changes."""
    pools = {}
    with open(data / "log.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            pools.setdefault((record["strategy_id"], record["question_id"]), []).append(line)
    order = [key for key in pools if key[0] != "s1"] + [key for key in pools if key[0] == "s1"][::-1]
    reordered = tmp_path / "reordered.jsonl"
    reordered.write_text("".join(line for key in order for line in pools[key]), encoding="utf-8")
    analyze = ["analyze", "--truth", data / "truth.jsonl", *REPORT, "--log"]
    canonical = report([*analyze, data / "log.jsonl"], tmp_path / "canonical")
    moved = report([*analyze, reordered], tmp_path / "reordered")
    rows = [sorted(files.pop("distributions.csv").splitlines()) for files in (canonical, moved)]
    assert rows[0] == rows[1]
    assert moved == canonical


def test_reports_do_not_depend_on_string_hashing(hashed):
    assert tree(hashed["1"]) == tree(hashed["2"])


def test_exact_runs_import_neither_numpy_polynomial_nor_numpy_random(planted, data, tmp_path):
    """The kernel integrates the tie-break share without quadrature nodes, and only Monte
    Carlo derives seeds."""
    in_child(MAIN_EACH + """from votescale import QuestionSamples, replay_majority
replay_majority(QuestionSamples("q0", "s0", "a", tuple("aabbbcacbd"), 1.0, 1.0), 5)
for module in ("numpy.polynomial", "numpy.random"):
    assert module not in sys.modules, f"an exact run imported {module}"
""", [
        ["analyze", *logs(data), "--grid", "1,3,5,9", "--out", tmp_path / "report"],
        # the last grid point is beyond the exact cap: those cells fall back
        ["predict", "--scenario", planted, "--grid", f"1,3,5,9,{N_PAST_EXACT_CAP}", "--fallback",
         "--out", tmp_path / "predicted"],
        ["exact", "--dist", "0.64,0.35,0.01", "--grid", "1,3,5"],
    ])


def test_imports_help_and_input_errors_load_no_numpy(planted, data, tmp_path):
    """numpy loads only where arrays are built: importing the package,
    building the parser, ``--help`` and input rejected before any cell return
    without it, each error as one ``error:`` line and exit code 2, and so do
    normal-approximation runs, through the CLI and the library."""
    for source in (data / "log.jsonl", planted):
        lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / source.name).write_text(lines[0] + "{\n" + "".join(lines[2:]), encoding="utf-8")
    cases = [
        (["--help"], 0),
        (["exact", "--dist", "0.6,0.4"], 2),  # neither --n nor --grid
        (["analyze", "--log", tmp_path / "log.jsonl", "--truth", data / "truth.jsonl", "--n", "3",
          "--out", tmp_path / "a"], 2),
        (["predict", "--scenario", tmp_path / planted.name, "--n", "3", "--out", tmp_path / "p"], 2),
        (["predict", "--scenario", planted, "--method", "approx", *REPORT, "--out", tmp_path / "approx"], 0),
        (["approx", "--dist", "0.64,0.35,0.01", "--grid", "1,3,5"], 0),
    ]
    proc = run_python("-c", """import contextlib, io, json, sys
def check(step):
    assert "numpy" not in sys.modules, f"{step} loaded numpy"
import votescale
check("import votescale")
from votescale.cli import build_parser, main
build_parser()
check("import votescale.cli and build_parser()")
for argv, code in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            got = main(argv)
        except SystemExit as exc:  # --help
            got = exc.code
    assert got == code, (argv, got, err.getvalue())
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert argv[0] == "exact" or ": line 2: " in lines[0], (argv, lines)
    check(argv)
from votescale import (CostModel, accuracy_curve, adaptive_limit, best_under_cost, dominance_count,
                       dynamic_curve, extreme_performance, load_scenario)
with open(sys.argv[2], encoding="utf-8") as fh:
    dss = load_scenario(fh)
model = CostModel.from_per_million(0.15, 0.6)
for step, call in {
    "accuracy_curve": lambda: accuracy_curve(dss[0], [1, 3, 5], "approx"),
    "dynamic_curve": lambda: dynamic_curve(dss, [1, 3, 5], "approx"),
    "best_under_cost": lambda: best_under_cost(dss, 0.05, model, [1, 3, 5], "approx"),
    "extreme_performance": lambda: extreme_performance(dss[0]),
    "dominance_count": lambda: dominance_count(*dss),
    "adaptive_limit": lambda: adaptive_limit(dss[1]),
}.items():
    call()
    check(step)
""", json.dumps([([str(a) for a in argv], code) for argv, code in cases]), str(planted))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(len(CPUS) < 2, reason="pinning one CPU needs sched_setaffinity and 2 CPUs")
def test_monte_carlo_on_one_cpu_gives_the_threaded_report(hashed, tmp_path):
    """Cells drawn by the caller alone, without worker threads, give the threaded cells' report."""
    pin = f"import os\nos.sched_setaffinity(0, {{{CPUS[0]}}})\n"
    in_child(pin + MAIN_EACH, [["analyze", *logs(hashed["1"] / "data"), *REPORT, *MC, "--out", tmp_path]])
    assert tree(tmp_path) == tree(hashed["1"] / "report-mc")
