"""The one line reader behind logs, ground truth and scenarios: a bad line in
any of the three formats raises a VoteScaleError carrying its line number,
with or without the line's break. The chunked log parser, through its
pattern and its JSON array routes, agrees with a line-by-line parse, and an
input file opened as the CLI opens it reads as the lines of one whole-file
read."""
import io
import json
from contextlib import closing
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from votescale import (
    UNPARSEABLE,
    DuplicateKey,
    MalformedLine,
    SampleRecord,
    VoteScaleError,
    cli,
    group_logs,
    load_ground_truth,
    load_scenario,
    parse_records,
)
from votescale.records import (
    _CANONICAL_RECORD,
    _CHUNK_LINES,
    _RECORD_FIELDS,
    _chunks,
    _count,
    _json_lines,
    _text,
    _unbroken,
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
    raises a VoteScaleError that names line k+1; the same lines each ending
    in "\\n", as a text file yields them, give the same result or error."""
    fields, kept = FORMATS[loader]
    lines = valid_lines(fields, k) + [line]
    try:
        result = loader(lines)
    except VoteScaleError as exc:
        assert exc.line_number == k + 1, exc
    else:
        for text in kept(result):
            text.encode("utf-8")
    assert outcome(loader, [text + "\n" for text in lines]) == outcome(loader, lines)


class TestMutatedLines:
    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(0, 3), line=mutated_lines(RECORD))
    @example(k=2, line=raw_line(RECORD, "answer", DEEP))
    @example(k=1, line=raw_line(RECORD, "answer", SURROGATE))
    @example(k=0, line=raw_line(RECORD, "prompt_tokens", str(10**400)))
    @example(k=1, line=json.dumps(RECORD)[:18])  # cut inside the first string
    def test_log(self, k, line):
        check_mutated(parse_records, k, line)

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(0, 3), line=mutated_lines(TRUTH))
    @example(k=2, line=raw_line(TRUTH, "correct_answer", DEEP))
    @example(k=1, line=raw_line(TRUTH, "correct_answer", SURROGATE))
    @example(k=1, line=json.dumps(TRUTH)[:18])
    def test_ground_truth(self, k, line):
        check_mutated(load_ground_truth, k, line)

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(0, 3), line=mutated_lines(SCENARIO))
    @example(k=2, line=raw_line(SCENARIO, "probs", DEEP))
    @example(k=1, line=raw_line(SCENARIO, "strategy_id", SURROGATE))
    @example(k=1, line=json.dumps(SCENARIO)[:18])
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


@LOADERS
def test_raw_lone_surrogate_is_not_utf8(loader):
    """A raw lone surrogate, as a file's bad byte reads, fails the whole
    line before its JSON is parsed; a JSON escape of one names the field."""
    fields, _ = FORMATS[loader]
    lines = valid_lines(fields, 1) + [raw_line(fields, "question_id", '"q\udcff"')]
    with pytest.raises(MalformedLine, match="^line 2: not valid UTF-8$"):
        loader(lines)


def test_every_reader_drops_one_line_break():
    """Each reader drops exactly one trailing "\\n" per line, whatever the
    route: a string cut by a second one is a raw control character, not an
    unterminated string."""
    line = '{"question_id": "q\n\n'
    messages = set()
    for read in [*FORMATS, lambda lines: group_logs([("log", lines)], {})]:
        with pytest.raises(VoteScaleError) as err:
            read([line])
        messages.add(str(err.value).removeprefix("log: "))
    assert messages == {"line 1: invalid JSON: Invalid control character at"}


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


def line_by_line_records(lines) -> list[SampleRecord]:
    """parse_records as one loop over the lines: one json.loads and one set
    of field checks per line. The chunked parser must agree with it."""
    records = []
    for line_number, obj in _json_lines(_unbroken(lines), _RECORD_FIELDS):
        if obj["answer"] is not None and not isinstance(obj["answer"], str):
            raise MalformedLine(line_number, "answer must be a string or null")
        records.append(
            SampleRecord(
                question_id=_text(line_number, obj, "question_id"),
                strategy_id=_text(line_number, obj, "strategy_id"),
                sample_index=_count(line_number, obj, "sample_index"),
                answer=UNPARSEABLE if obj["answer"] is None else _text(line_number, obj, "answer"),
                prompt_tokens=_count(line_number, obj, "prompt_tokens"),
                completion_tokens=_count(line_number, obj, "completion_tokens"),
            )
        )
    return records


def outcome(parse, lines):
    """The records ``parse`` returns, or the type, line number and message
    of the error it raises."""
    try:
        return parse(lines)
    except VoteScaleError as exc:
        return type(exc), exc.line_number, str(exc)


#: JSON whitespace, and characters that str.strip removes but JSON rejects
PADDING = st.text(st.sampled_from(" \t\r\n\x0b\x0c\x1c\x85\xa0\u2028\u3000"), max_size=2)
RECORD_VALUES = st.fixed_dictionaries(
    {
        "question_id": TEXT,
        "strategy_id": st.sampled_from(["s", "t"]),
        "sample_index": st.integers(-1, 2**64),
        "answer": st.none() | TEXT,
        "prompt_tokens": st.integers(0, 10**6) | st.booleans(),
        "completion_tokens": st.integers(0, 10**6) | st.floats(0, 10),
    }
)
#: escaped, and with raw non-ASCII text and raw lone surrogates
RECORDS = RECORD_VALUES.map(json.dumps) | RECORD_VALUES.map(
    lambda values: json.dumps(values, ensure_ascii=False)
)
FILLER = valid_lines(RECORD, 3 * _CHUNK_LINES)


@st.composite
def logs(draw) -> list[str]:
    """Valid lines spanning up to three chunks, with drawn lines inserted:
    blank, padded, arbitrary records, two records and mutated records."""
    lines = FILLER[: draw(st.integers(0, len(FILLER)))]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["blank", "padded", "record", "two records", "mutated"]))
        if kind == "blank":
            line = draw(PADDING)
        elif kind == "padded":
            line = draw(PADDING) + draw(RECORDS) + draw(PADDING)
        elif kind == "record":
            line = draw(RECORDS)
        elif kind == "two records":
            line = draw(RECORDS) + ", " + draw(RECORDS)
        else:
            line = draw(mutated_lines(RECORD))
        lines.insert(draw(st.integers(0, len(lines))), line)
    return lines


def with_line(position: int, line: str) -> list[str]:
    """Valid lines with ``line`` as line number ``position``."""
    return FILLER[: position - 1] + [line] + FILLER[position - 1 : position + 5]


#: One valid object over two lines, and one over two lines that both run
#: from "{" to "}": joined with ",\n" each parses as one array element.
SPLIT = json.dumps(RECORD).split(", ", 1)
SPLIT_IN_VALUE = raw_line(RECORD, "question_id", '[{"x": 1},\n{"y": 2}]').split(",\n")
TWO_ON_ONE_LINE = f"{FILLER[3]}, {FILLER[4]}"
#: Two lines from "{" to "}" that a separator without a newline would join
#: into one object with the question id "},{".
SPLIT_IN_STRING = ['{"question_id": "}', '{"' + json.dumps(RECORD).split('"q"', 1)[1]]


def canonical_then(*lines: str) -> list[str]:
    """``lines`` between valid lines in the canonical form, so that their
    chunk passes the pattern route's first-line test."""
    return FILLER[:2] + list(lines) + FILLER[2:4]


def record_line(**fields) -> str:
    """RECORD with ``fields`` replaced, as json.dumps writes it."""
    return json.dumps({**RECORD, **fields}, ensure_ascii=False)


class TestChunkedRecords:
    """parse_records reads a chunk of canonical lines with one pattern scan,
    other chunks as one JSON array, and falls back to the line reader for a
    chunk neither can vouch for; either way its records and errors are those
    of a line-by-line parse."""

    @settings(max_examples=150, deadline=None)
    @given(lines=logs())
    # a record split across two lines and two records on one line
    @example(lines=FILLER[:3] + SPLIT + [TWO_ON_ONE_LINE] + FILLER[5:9])
    @example(lines=FILLER[:3] + SPLIT_IN_VALUE + [TWO_ON_ONE_LINE] + FILLER[5:9])
    @example(lines=FILLER[:3] + SPLIT_IN_STRING + [TWO_ON_ONE_LINE] + FILLER[5:9])
    @example(lines=FILLER[:2] + ['{"x": [1', '2]}'] + FILLER[2:4])
    @example(lines=FILLER[:2] + ["\x0c" + FILLER[2]] + FILLER[3:5])
    @example(lines=with_line(_CHUNK_LINES - 1, "not json"))
    @example(lines=with_line(_CHUNK_LINES, SURROGATE))
    @example(lines=with_line(_CHUNK_LINES + 1, raw_line(RECORD, "answer", DEEP)))
    # the pattern route: null against "null", an empty answer
    @example(lines=canonical_then(record_line(answer=None), record_line(answer="null")))
    @example(lines=canonical_then(record_line(answer="")))
    # -0 and -1, and the longest integer the pattern takes and one digit more
    @example(lines=canonical_then(raw_line(RECORD, "sample_index", "-0")))
    @example(lines=canonical_then(record_line(prompt_tokens=-1)))
    @example(lines=canonical_then(record_line(prompt_tokens=10**18 - 1)))
    @example(lines=canonical_then(record_line(completion_tokens=10**18)))
    # a line that holds two canonical records, then a bad line: a scan of the
    # joined lines finds one match per line
    @example(lines=canonical_then(FILLER[4] + "\n" + FILLER[5], "not json"))
    # a canonical first line, then a padded, a compact or a reordered record
    @example(lines=canonical_then(" " + FILLER[4]))
    @example(lines=canonical_then(json.dumps(RECORD, separators=(",", ":"))))
    @example(lines=canonical_then(json.dumps(dict(reversed(RECORD.items())))))
    # a raw lone surrogate and a raw control character, which only the
    # line reader reports
    @example(lines=canonical_then(record_line(answer="\ud800")))
    @example(lines=canonical_then(record_line(answer="a\tb").replace("\\t", "\t")))
    # a compact line with every field's count but a misspelled key: the JSON
    # array route parses it and leaves it to the line reader
    @example(lines=canonical_then(
        json.dumps({"answr" if k == "answer" else k: v for k, v in RECORD.items()}, separators=(",", ":"))
    ))
    # characters that str.splitlines breaks at, but not re.M
    @example(lines=canonical_then(record_line(answer="a\u2028b"), record_line(question_id="\x85")))
    def test_matches_line_by_line_parse(self, lines):
        assert outcome(parse_records, lines) == outcome(line_by_line_records, lines)

    def test_synth_writes_lines_that_take_the_pattern_route(self, tmp_path):
        """A change to synth's separators or field order fails here rather
        than silently sending its logs through the JSON parse."""
        scenario = tmp_path / "scenario.jsonl"
        scenario.write_text(
            "".join(
                json.dumps({**SCENARIO, "strategy_id": s, "question_id": f"q{q}"}) + "\n"
                for s in ("s0", "s1")
                for q in range(3)
            )
        )
        data = tmp_path / "data"
        argv = ["synth", "--scenario", str(scenario), "--samples", "100", "--out", str(data)]
        assert cli.main(argv) == 0
        lines = (data / "log.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) > 2 * _CHUNK_LINES
        assert all(_CANONICAL_RECORD.fullmatch(line) for line in lines)
        with mock.patch("votescale.records.json.loads", wraps=json.loads) as loads:
            records = parse_records(lines)
        assert loads.call_count == 0
        assert records == line_by_line_records(lines)
        # the open file, each line with its break, reads as its lines do
        truth = load_ground_truth((data / "truth.jsonl").read_text(encoding="utf-8").splitlines())
        groups = group_logs([("log", lines)], truth)
        with open(data / "log.jsonl", encoding="utf-8") as fh:
            with mock.patch("votescale.records.json.loads", wraps=json.loads) as loads:
                assert parse_records(fh) == records
        assert loads.call_count == 0
        with open(data / "log.jsonl", encoding="utf-8") as fh:
            with mock.patch("votescale.records.json.loads", wraps=json.loads) as loads:
                assert group_logs([("log", fh)], truth) == groups
        assert loads.call_count == 0
        # str.split ends the text with an empty line, which the pattern route
        # skips as well
        split = (data / "log.jsonl").read_text(encoding="utf-8").split("\n")
        assert split == lines + [""] and len(split) % _CHUNK_LINES != 0
        with mock.patch("votescale.records.json.loads", wraps=json.loads) as loads:
            assert parse_records(split) == records
        assert loads.call_count == 0

    def test_synth_writes_non_ascii_ids_as_utf8(self, tmp_path):
        """Ids outside ASCII are written as UTF-8, not as \\u escapes, so
        their lines take the pattern route too; the report is the one an
        escaped copy of the same log gives."""
        scenario = tmp_path / "scenario.jsonl"
        with open(scenario, "w", encoding="utf-8") as fh:
            for s, lift in (("sé", 0.0), ("s€", 0.2)):
                for q in range(30):
                    m = 2 + q % 4
                    probs = [(1 - lift) / m] * m
                    probs[q % m] += lift
                    row = {**SCENARIO, "strategy_id": s, "question_id": f"q{q}ü", "probs": probs,
                           "correct_index": q % m}
                    fh.write(json.dumps(row) + "\n")
        data, escaped = tmp_path / "data", tmp_path / "escaped"
        assert cli.main(["synth", "--scenario", str(scenario), "--samples", "40", "--out", str(data)]) == 0
        escaped.mkdir()
        for name in ("log.jsonl", "truth.jsonl"):
            text = (data / name).read_text(encoding="utf-8")
            assert "ü" in text and "\\u" not in text
            (escaped / name).write_text("".join(json.dumps(json.loads(line)) + "\n" for line in text.splitlines()))
        with open(data / "log.jsonl", encoding="utf-8") as fh:
            with mock.patch("votescale.records.json.loads", wraps=json.loads) as loads:
                records = parse_records(fh)
        assert len(records) == 2 * 30 * 40
        assert loads.call_count == 0
        with open(escaped / "log.jsonl", encoding="utf-8") as fh:
            with mock.patch("votescale.records.json.loads", wraps=json.loads) as loads:
                assert parse_records(fh) == records
        assert loads.call_count == -(-len(records) // _CHUNK_LINES)  # one JSON array per chunk
        reports = {}
        for source in (data, escaped):
            out = tmp_path / f"report-{source.name}"
            argv = ["analyze", "--log", str(source / "log.jsonl"), "--truth", str(source / "truth.jsonl"),
                    "--grid", "1,3,5,9", "--out", str(out)]
            assert cli.main(argv) == 0
            reports[source.name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert reports["data"] == reports["escaped"]

    def test_identical_strings_share_one_object(self):
        records = parse_records(valid_lines(RECORD, 3) * 2)
        assert records[0].strategy_id is records[5].strategy_id
        assert records[1].question_id is records[4].question_id


def whole_file_lines(path) -> list[str]:
    """The file's lines from one read, decode and split, bad bytes as lone
    surrogates and without the empty line after a final line break: what
    the log reader must see in the streamed file."""
    text = path.read_bytes().decode("utf-8", errors="surrogateescape")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def streamed_lines(path) -> list[str]:
    """The lines that the log reader's chunks hold, read from the file as
    the CLI opens it."""
    with closing(cli._log_sources([str(path)])) as sources:
        _, fh = next(sources)
        return [line for chunk in _chunks(fh, _CHUNK_LINES) for line in chunk]


class TestStreamedLines:
    """A file opened as the CLI opens it is read in buffered blocks, and the
    log reader sees the lines of one whole-file read."""

    def test_blocks_split_inside_characters_and_line_breaks(self, tmp_path):
        block = io.DEFAULT_BUFFER_SIZE
        first = b"x" * (block - 1) + "€".encode() + b"\n"  # "€" straddles the first boundary
        second = b"y" * (2 * block - 1 - len(first)) + b"\r\n"  # so does this "\r\n"
        path = tmp_path / "big.jsonl"
        path.write_bytes(first + second + b"z\rlast")
        assert len(path.read_bytes()) > 2 * block
        assert streamed_lines(path) == whole_file_lines(path)
        assert streamed_lines(path)[-3:] == ["y" * len(second[:-2]), "z", "last"]
        bad = first + b"ok\n" + b"\xff" * 3 + second
        path.write_bytes(bad)
        assert streamed_lines(path) == whole_file_lines(path)
        assert streamed_lines(path)[2] == "\udcff" * 3 + "y" * len(second[:-2])

    @settings(max_examples=300, deadline=None)
    @given(
        pieces=st.lists(st.sampled_from([b"a", b"{", b"\n", b"\r", b"\r\n", "é€".encode(), b"\xff"])),
        shift=st.integers(1, 9),
    )
    def test_small_blocks_match_one_read(self, tmp_path_factory, pieces, shift):
        # the pieces start just before the end of the first buffered chunk
        path = tmp_path_factory.mktemp("lines") / "f"
        path.write_bytes(b"x" * (io.DEFAULT_BUFFER_SIZE - shift) + b"".join(pieces))
        assert streamed_lines(path) == whole_file_lines(path)

    def test_read_closes_the_file_when_the_parser_stops_early(self, tmp_path, monkeypatch):
        path = tmp_path / "f"
        path.write_bytes(b"a\nb\n")
        opened, kept = [], []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        def first_line(lines):
            kept.append(lines)  # alive after the call, so only closing it closes the file
            return next(lines).removesuffix("\n")

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        assert cli._read(str(path), first_line) == "a"
        assert opened[0].closed
