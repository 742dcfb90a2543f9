"""The one line reader behind logs, ground truth and scenarios: a bad line in
any of the three formats raises a VoteScaleError carrying its line number."""
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from votescale import (
    DuplicateKey,
    MalformedLine,
    VoteScaleError,
    load_ground_truth,
    load_scenario,
    parse_records,
)

RECORD = {
    "question_id": "q",
    "strategy_id": "s",
    "sample_index": 0,
    "answer": "a",
    "prompt_tokens": 10,
    "completion_tokens": 5,
}
TRUTH = {"question_id": "q", "correct_answer": "a"}
SCENARIO = {
    "strategy_id": "s",
    "question_id": "q",
    "probs": [0.6, 0.4],
    "correct_index": 0,
    "mean_prompt_tokens": 10.0,
    "mean_completion_tokens": 5.0,
}
#: loader -> (valid line fields, the strings it keeps from a parse)
FORMATS = {
    parse_records: (
        RECORD,
        lambda records: [t for r in records for t in (r.question_id, r.strategy_id, r.answer)],
    ),
    load_ground_truth: (TRUTH, lambda truth: [*truth, *truth.values()]),
    load_scenario: (
        SCENARIO,
        lambda dss: [t for ds in dss for t in (ds.strategy_id, *ds.question_ids)],
    ),
}
DEEP = "[" * 100_000 + "]" * 100_000
SURROGATE = json.dumps("\ud800")  # the six characters "\ud800", quoted


def raw_line(fields: dict, field: str, text: str) -> str:
    """``fields`` as one JSON line whose ``field`` holds the raw JSON ``text``."""
    return json.dumps({**fields, field: None}).replace(f'"{field}": null', f'"{field}": {text}')


def valid_lines(fields: dict, k: int) -> list[str]:
    """``k`` valid lines whose question ids differ from each other and from
    ``fields``'s own."""
    return [json.dumps({**fields, "question_id": f"q{i}"}) for i in range(k)]


TEXT = st.text(st.characters(exclude_categories=()), max_size=4)
JSON_TEXTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
).map(json.dumps)


@st.composite
def mutated_lines(draw, fields: dict) -> str:
    """A valid line with one field dropped, added or given an arbitrary JSON
    value, or the line's text cut short."""
    texts = {name: json.dumps(value) for name, value in fields.items()}
    kind = draw(st.sampled_from(["drop", "add", "swap", "truncate"]))
    if kind == "drop":
        del texts[draw(st.sampled_from(sorted(texts)))]
    elif kind == "add":
        texts[draw(TEXT)] = draw(JSON_TEXTS)
    elif kind == "swap":
        texts[draw(st.sampled_from(sorted(texts)))] = draw(JSON_TEXTS)
    line = "{" + ", ".join(f"{json.dumps(name)}: {text}" for name, text in texts.items()) + "}"
    if kind == "truncate":
        line = line[: draw(st.integers(0, len(line) - 1))]
    return line


def check_mutated(loader, k: int, line: str) -> None:
    """After ``k`` valid lines, ``line`` either parses into UTF-8 text only or
    raises a VoteScaleError that names line k+1."""
    fields, kept = FORMATS[loader]
    try:
        result = loader(valid_lines(fields, k) + [line])
    except VoteScaleError as exc:
        assert exc.line_number == k + 1, exc
    else:
        for text in kept(result):
            text.encode("utf-8")


class TestMutatedLines:
    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(0, 3), line=mutated_lines(RECORD))
    @example(k=2, line=raw_line(RECORD, "answer", DEEP))
    @example(k=1, line=raw_line(RECORD, "answer", SURROGATE))
    @example(k=0, line=raw_line(RECORD, "prompt_tokens", str(10**400)))
    def test_log(self, k, line):
        check_mutated(parse_records, k, line)

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(0, 3), line=mutated_lines(TRUTH))
    @example(k=2, line=raw_line(TRUTH, "correct_answer", DEEP))
    @example(k=1, line=raw_line(TRUTH, "correct_answer", SURROGATE))
    def test_ground_truth(self, k, line):
        check_mutated(load_ground_truth, k, line)

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(0, 3), line=mutated_lines(SCENARIO))
    @example(k=2, line=raw_line(SCENARIO, "probs", DEEP))
    @example(k=1, line=raw_line(SCENARIO, "strategy_id", SURROGATE))
    def test_scenario(self, k, line):
        check_mutated(load_scenario, k, line)


LOADERS = pytest.mark.parametrize("loader", list(FORMATS), ids=lambda f: f.__name__)


@LOADERS
def test_deep_nesting_names_the_line(loader):
    fields, _ = FORMATS[loader]
    lines = valid_lines(fields, 2) + [raw_line(fields, "question_id", DEEP)]
    with pytest.raises(MalformedLine, match="nested too deeply") as err:
        loader(lines)
    assert err.value.line_number == 3


@pytest.mark.parametrize(
    "loader, field",
    [
        (parse_records, "question_id"),
        (parse_records, "strategy_id"),
        (parse_records, "answer"),
        (load_ground_truth, "question_id"),
        (load_ground_truth, "correct_answer"),
        (load_scenario, "strategy_id"),
        (load_scenario, "question_id"),
    ],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_lone_surrogate_names_field_and_line(loader, field):
    fields, _ = FORMATS[loader]
    lines = valid_lines(fields, 1) + [raw_line(fields, field, SURROGATE)]
    with pytest.raises(MalformedLine, match=f"{field} holds a lone surrogate") as err:
        loader(lines)
    assert err.value.line_number == 2


@pytest.mark.parametrize("field", ["sample_index", "prompt_tokens", "completion_tokens"])
def test_count_too_large_for_a_double_names_the_line(field):
    lines = valid_lines(RECORD, 1) + [raw_line(RECORD, field, str(10**400))]
    with pytest.raises(MalformedLine, match=field) as err:
        parse_records(lines)
    assert err.value.line_number == 2


def test_integer_too_long_to_read_names_the_line():
    lines = valid_lines(RECORD, 1) + [raw_line(RECORD, "prompt_tokens", "9" * 5000)]
    with pytest.raises(MalformedLine, match="invalid JSON") as err:
        parse_records(lines)
    assert err.value.line_number == 2


@pytest.mark.parametrize("loader", [load_ground_truth, load_scenario], ids=lambda f: f.__name__)
def test_repeated_key_names_the_line(loader):
    fields, _ = FORMATS[loader]
    lines = valid_lines(fields, 2) + [json.dumps(fields), json.dumps(fields)]
    with pytest.raises(DuplicateKey, match="^line 4: .* repeats") as err:
        loader(lines)
    assert err.value.line_number == 4
