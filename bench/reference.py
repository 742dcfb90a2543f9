"""Expected report tables, computed independently of the package under test.

The benchmark checks every report a timed invocation writes against these
tables. Nothing here imports ``votescale``: inputs are read from the
generated files, and the exact vote probability comes from a dynamic
program over the correct answer's count instead of the package's
composition enumeration. The tables reproduce the seed implementation's
reports to within 1e-9.

What is compared:

* exact and normal-approximation accuracies (``curves``, ``selection``,
  ``oracles``, ``budget_selection``): within 1e-9 of the reference, so a
  faster exact path that rounds differently still passes;
* Monte Carlo accuracies: within a tolerance derived from the trial count
  around the exact value of the same cells (oracles that take a maximum
  over strategies are also allowed the upward bias of that maximum);
* a chosen strategy or (strategy, n): any choice whose reference accuracy
  ties the best one within that tolerance;
* estimator-free tables (``difficulty_table``, ``dominance``, ``kl``,
  ``distributions``): byte for byte;
* the ``method`` column of ``curves`` and ``oracles`` is deliberately not
  compared: the seed labels fallback cells with the requested estimator
  instead of the one that produced them, a known bug the check must not
  pin.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from workloads import sample_cost

# Exact-estimator caps of the CLI; cells beyond them are answered by the
# normal approximation under --fallback.
EXACT_MAX_ANSWERS = 8
EXACT_MAX_N = 60
EXACT_MAX_TERMS = 10**7

TIE_TOLERANCE = 1e-12
VALUE_TOLERANCE = 1e-9
#: Monte Carlo band half-width in standard errors.
MC_Z = 5.0


def fmt(value: float) -> str:
    return format(float(value), ".12g")


@dataclass(frozen=True)
class Question:
    question_id: str
    probs: tuple[float, ...]
    correct: int
    prompt: float
    completion: float

    @property
    def p_correct(self) -> float:
        return self.probs[self.correct]

    @property
    def max_wrong(self) -> float:
        wrong = [p for j, p in enumerate(self.probs) if j != self.correct]
        return max(wrong) if wrong else 0.0


Datasets = list[tuple[str, list[Question]]]


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def scenario_datasets(path: str) -> Datasets:
    by_strategy: dict[str, list[Question]] = {}
    for row in read_jsonl(path):
        by_strategy.setdefault(row["strategy_id"], []).append(
            Question(
                row["question_id"],
                tuple(float(p) for p in row["probs"]),
                row["correct_index"],
                float(row["mean_prompt_tokens"]),
                float(row["mean_completion_tokens"]),
            )
        )
    return list(by_strategy.items())


def log_datasets(log_path: str, truth_path: str):
    """Empirical distributions per (question, strategy) pool, in log order.

    Returns the datasets plus the per-pool answer supports, which the
    ``distributions`` table lists.
    """
    truth = {row["question_id"]: row["correct_answer"] for row in read_jsonl(truth_path)}
    pools: dict[tuple[str, str], list[dict]] = {}
    for row in read_jsonl(log_path):
        pools.setdefault((row["question_id"], row["strategy_id"]), []).append(row)
    by_strategy: dict[str, list[Question]] = {}
    supports = []
    for (question_id, strategy_id), rows in pools.items():
        rows.sort(key=lambda r: r["sample_index"])
        answers = [r["answer"] if r["answer"] else "∅" for r in rows]
        support = list(dict.fromkeys(answers))
        if truth[question_id] not in support:
            support.append(truth[question_id])
        probs = tuple(answers.count(a) / len(answers) for a in support)
        by_strategy.setdefault(strategy_id, []).append(
            Question(
                question_id,
                probs,
                support.index(truth[question_id]),
                float(np.mean([r["prompt_tokens"] for r in rows])),
                float(np.mean([r["completion_tokens"] for r in rows])),
            )
        )
        supports.append((strategy_id, question_id, support))
    return list(by_strategy.items()), supports


# --- estimators -------------------------------------------------------------


def approx_value(q: Question, n: int) -> float:
    if len(q.probs) == 1:
        return 1.0
    p1, pm = q.p_correct, q.max_wrong
    spread = p1 * (1.0 - p1) + pm * (1.0 - pm)
    if spread == 0.0:
        value = 1.0 if p1 > pm else (0.0 if p1 < pm else 0.5)
    else:
        value = 1.0 - 0.5 * math.erfc((p1 - pm) / math.sqrt(spread / n) / math.sqrt(2.0))
    return min(max(value, 0.0), 1.0)


def _exact_batch(p1: np.ndarray, wrong: np.ndarray, n: int) -> np.ndarray:
    """Exact vote success probability for D distributions with the same
    number ``w`` of nonzero wrong answers.

    Conditions on the correct answer's count k. The other n-k draws are
    spread over the wrong answers with every count at most k; the
    generating function of each wrong answer, in draws x and ties-at-k y,
    is sum_{c<k} (p x)^c / c! + y (p x)^k / k!. Multiplying these out and
    weighting the x^(n-k) y^t coefficient by n! p1^k / k! / (t + 1) gives
    the probability of winning with count k, ties broken uniformly.
    """
    d, w = wrong.shape
    total = np.zeros(d)
    for k in range(1, n + 1):
        r = n - k
        if r > w * k:
            continue
        state = np.zeros((d, w + 1, r + 1))
        state[:, 0, 0] = 1.0
        top = min(k, r)
        for j in range(w):
            terms = np.ones((d, top + 1))
            for c in range(1, top + 1):
                terms[:, c] = terms[:, c - 1] * wrong[:, j] / c
            grown = np.zeros_like(state)
            for c in range(min(k - 1, r) + 1):
                grown[:, :, c:] += state[:, :, : r + 1 - c] * terms[:, c, None, None]
            if k <= r:
                grown[:, 1:, k:] += state[:, :-1, : r + 1 - k] * terms[:, k, None, None]
            state = grown
        share = state[:, :, r] @ (1.0 / np.arange(1, w + 2))
        total += math.factorial(n) / math.factorial(k) * p1**k * share
    return np.clip(total, 0.0, 1.0)


def exact_cells(questions: list[Question], n: int) -> list[float]:
    """Exact values of many distributions at one n, batched by answer count;
    cells beyond the caps get the normal approximation."""
    values: list[float | None] = [None] * len(questions)
    batches: dict[int, list[int]] = {}
    for i, q in enumerate(questions):
        if q.p_correct == 0.0:
            values[i] = 0.0
            continue
        w = sum(1 for j, p in enumerate(q.probs) if j != q.correct and p > 0.0)
        if w == 0:
            values[i] = 1.0
        elif (
            w + 1 > EXACT_MAX_ANSWERS
            or n > EXACT_MAX_N
            or math.comb(n + w, w) > EXACT_MAX_TERMS
        ):
            values[i] = approx_value(q, n)
        else:
            batches.setdefault(w, []).append(i)
    for w, members in batches.items():
        p1 = np.array([questions[i].p_correct for i in members])
        wrong = np.array(
            [
                [p for j, p in enumerate(questions[i].probs) if j != questions[i].correct and p > 0.0]
                for i in members
            ]
        )
        for i, v in zip(members, _exact_batch(p1, wrong, n)):
            values[i] = float(v)
    return values


# --- difficulty --------------------------------------------------------------


def difficulty(q: Question) -> tuple[str, int]:
    p_max = max(q.probs)
    modal = [j for j, p in enumerate(q.probs) if p >= p_max - TIE_TOLERANCE]
    if q.correct not in modal:
        return "hard", len(modal)
    return ("easy", 1) if len(modal) == 1 else ("moderate", len(modal))


def limit(q: Question) -> float:
    kind, ties = difficulty(q)
    return {"easy": 1.0, "moderate": 1.0 / ties, "hard": 0.0}[kind]


def overtakes(behind: Question, ahead: Question) -> bool:
    gap_b = behind.p_correct - behind.max_wrong
    gap_a = ahead.p_correct - ahead.max_wrong
    v_b = behind.p_correct + behind.max_wrong - behind.p_correct**2 - behind.max_wrong**2
    v_a = ahead.p_correct + ahead.max_wrong - ahead.p_correct**2 - ahead.max_wrong**2
    return gap_a < gap_b and v_a > v_b


def kl_to_uniform(q: Question) -> float | None:
    wrong = [p for j, p in enumerate(q.probs) if j != q.correct and p > 0.0]
    if not wrong:
        return None
    total = math.fsum(wrong)
    k = len(wrong)
    return max(0.0, math.fsum((p / total) * math.log((p / total) * k) for p in wrong))


# --- expected report -------------------------------------------------------


@dataclass(frozen=True)
class Band:
    """An accuracy the report must contain, as an interval."""

    lo: float
    hi: float

    def holds(self, text: str) -> bool:
        try:
            value = float(text)
        except ValueError:
            return False
        return self.lo <= value <= self.hi


class Cells:
    """Exact value per (strategy, question, n), the standard error of its
    Monte Carlo estimate, and the bands derived from them."""

    def __init__(self, dss: Datasets, grid, trials: int | None):
        self.trials = trials
        self.value: dict[tuple[int, int, int], float] = {}
        for s, (_, questions) in enumerate(dss):
            for n in sorted(set(grid) | {1}):
                for qi, v in enumerate(exact_cells(questions, n)):
                    self.value[s, qi, n] = v

    def sd(self, key) -> float:
        if self.trials is None:
            return 0.0
        v = self.value[key]
        return math.sqrt(v * (1.0 - v) / self.trials)

    def band(self, keys) -> Band:
        """Band for the mean over ``keys`` of independent cell estimates."""
        mean = math.fsum(self.value[k] for k in keys) / len(keys)
        if self.trials is None:
            return Band(mean - VALUE_TOLERANCE, mean + VALUE_TOLERANCE)
        noise = math.sqrt(math.fsum(self.sd(k) ** 2 for k in keys)) / len(keys)
        return Band(mean - MC_Z * noise - VALUE_TOLERANCE, mean + MC_Z * noise + VALUE_TOLERANCE)

    def max_band(self, choices: list[list[tuple[int, int, int]]]) -> Band:
        """Band for the mean over questions of a max over per-question choices."""
        q = len(choices)
        mean = math.fsum(max(self.value[k] for k in keys) for keys in choices) / q
        if self.trials is None:
            return Band(mean - VALUE_TOLERANCE, mean + VALUE_TOLERANCE)
        # E[max of estimates] exceeds the max of the means by at most the
        # sum of their standard errors; the spread of a max is bounded the same way.
        spreads = [math.fsum(self.sd(k) for k in keys) for keys in choices]
        bias = math.fsum(spreads) / q
        noise = math.sqrt(math.fsum(s * s for s in spreads)) / q
        return Band(
            mean - MC_Z * noise - VALUE_TOLERANCE, mean + bias + MC_Z * noise + VALUE_TOLERANCE
        )


def _choices(bands: dict) -> dict:
    """Keep the choices that could be the best one: those whose band reaches
    the highest lower edge."""
    floor = max(b.lo for b in bands.values())
    return {key: b for key, b in bands.items() if b.hi >= floor}


def expected_report(wl, inputs) -> dict:
    """Expected content of every report file, keyed by file name.

    A table is a list of rows, each cell either a string that must match
    exactly, a :class:`Band`, or None (not compared). ``selection.csv`` and
    ``budget_selection.csv`` hold, per row, the key cell and the acceptable
    choices (the cells between key and accuracy) with the band each one's
    reported accuracy must lie in.
    """
    grid = inputs.shape.grid
    supports = None
    if inputs.log is None:
        dss = scenario_datasets(inputs.scenario)
    else:
        dss, supports = log_datasets(inputs.log, inputs.truth)
    cells = Cells(dss, grid, inputs.shape.trials)
    names = [sid for sid, _ in dss]
    nq = len(dss[0][1])
    hard = [[difficulty(q)[0] == "hard" for q in questions] for _, questions in dss]

    def curve(s, adaptive=False):
        return [
            [names[s] + ("+adaptive" if adaptive else ""), str(n),
             cells.band([(s, qi, 1 if adaptive and hard[s][qi] else n) for qi in range(nq)]), None]
            for n in grid
        ]

    report = {"curves.csv": [row for s in range(len(dss)) for row in curve(s)]}
    report["selection.csv"] = [
        (str(n), _choices({(names[s],): cells.band([(s, qi, n) for qi in range(nq)])
                           for s in range(len(dss))}))
        for n in grid
    ]
    costs = [math.fsum(sample_cost(q.prompt, q.completion) for q in qs) for _, qs in dss]
    feasible = {
        (names[s], str(n)): cells.band([(s, qi, n) for qi in range(nq)])
        for s in range(len(dss))
        for n in grid
        if n * costs[s] <= inputs.budget
    }
    report["budget_selection.csv"] = [(fmt(inputs.budget), _choices(feasible))]
    if wl.command == "predict":
        return report

    order = {sid: {q.question_id: i for i, q in enumerate(qs)} for sid, qs in dss}
    base = [q.question_id for q in dss[0][1]]
    oracles = [row for s in range(len(dss)) for row in curve(s, adaptive=True)]
    for label, adaptive in (("dynamic", False), ("combined", True)):
        for n in grid:
            choices = [
                [(s, order[names[s]][qid], 1 if adaptive and hard[s][order[names[s]][qid]] else n)
                 for s in range(len(dss))]
                for qid in base
            ]
            oracles.append([label, str(n), cells.max_band(choices), None])
    report["oracles.csv"] = oracles

    difficulty_rows, kl_rows = [], []
    for sid, qs in dss:
        kinds = [difficulty(q)[0] for q in qs]
        difficulty_rows.append(
            [sid] + [fmt(kinds.count(k) / len(qs)) for k in ("easy", "moderate", "hard")]
            + [fmt(math.fsum(limit(q) for q in qs) / len(qs))]
        )
        kls = [v for v in map(kl_to_uniform, qs) if v is not None]
        kl_rows.append([sid, fmt(sum(kls) / len(kls)) if kls else "", str(len(kls))])
    report["difficulty_table.csv"] = difficulty_rows
    report["kl.csv"] = kl_rows
    by_id = {sid: {q.question_id: q for q in qs} for sid, qs in dss}
    report["dominance.csv"] = [
        [a, b, str(sum(1 for q in qs_a if q.question_id in by_id[b]
                       and overtakes(q, by_id[b][q.question_id])))]
        for a, qs_a in dss
        for b, _ in dss
        if a != b
    ]
    rows = []
    for sid, qid, support in supports:
        q = by_id[sid][qid]
        label = difficulty(q)[0]
        for j, answer in enumerate(support):
            rows.append([sid, qid, answer, fmt(q.probs[j]), str(int(j == q.correct)), label])
    report["distributions.csv"] = rows
    return report


# --- checking ----------------------------------------------------------------


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def check_report(report_dir: str, expected: dict) -> list[str]:
    """Problems found in the report directory; empty when it matches."""
    problems = []
    for name, rows in expected.items():
        path = os.path.join(report_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name}: missing")
            continue
        got = _read_csv(path)
        if len(got) != len(rows):
            problems.append(f"{name}: {len(got)} rows, expected {len(rows)}")
            continue
        for i, (have, want) in enumerate(zip(got, rows)):
            where = f"{name} row {i + 1}"
            if len(have) < 2:
                problems.append(f"{where}: {len(have)} columns")
                continue
            if isinstance(want, tuple):  # (key, {choice: band})
                key, choices = want
                if have[0] != key:
                    problems.append(f"{where}: key {have[0]!r}, expected {key!r}")
                    continue
                choice = tuple(have[1:-1])
                band = choices.get(choice)
                if band is None or not band.holds(have[-1]):
                    problems.append(f"{where}: chose {choice} at {have[-1]}, expected one of {choices}")
                continue
            if len(have) != len(want):
                problems.append(f"{where}: {len(have)} columns, expected {len(want)}")
                continue
            for cell, spec in zip(have, want):
                if spec is None:
                    continue
                ok = spec.holds(cell) if isinstance(spec, Band) else cell == spec
                if not ok:
                    problems.append(f"{where}: {cell!r} does not match {spec!r}")
                    break
    return problems
