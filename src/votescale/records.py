"""Recorded sample logs: parsing, distribution estimation, replay, cost.

A log is line-delimited UTF-8, one JSON object per line with exactly the
fields of :class:`SampleRecord`. Ground truth lives in a separate
line-delimited file of ``{question_id, correct_answer}`` objects. Answers
arrive already extracted from raw model output; any normalization beyond
that (trimming, case-folding, numeric cleanup) is the caller's business,
done on the records before they are grouped. Empty or null answers become
the sentinel :data:`UNPARSEABLE`, which never equals a correct answer (an
empty or sentinel correct answer is rejected), so unparseable outputs count
as wrong votes instead of silently inflating accuracy. Logs, ground truth
and the scenario files of :mod:`votescale.selection` all go through this
module's one line reader and typed field checks, so every bad line raises
an error carrying its number, one holding a file's bad bytes (read as lone
surrogates) included. Every reader takes lines as a text file opened in the
default newline mode yields them, so a caller may pass the open file, or
lines without their breaks (a list, ``str.split``, ``str.splitlines``).
Each line loses one trailing ``"\\n"`` and nothing else; that mode has
already turned ``"\\r\\n"`` and ``"\\r"`` into ``"\\n"``.

Logs are the large input, so they are read a chunk of lines at a time, by
the first of three routes that vouches for the whole chunk. A chunk of
canonical lines, as ``synth`` and ``json.dumps`` write them (the fields in
:class:`SampleRecord` order, ``", "`` and ``": "`` separators, no padding,
no escapes, integers of at most 18 digits), is read by one scan of a
compiled pattern whose every match passes every field check. Any other
chunk is parsed by one ``json.loads`` of a JSON array and checked a column
at a time. A chunk that fails that too, as every chunk holding a lone
surrogate does, goes back through the line reader.
So rows and errors are those of a line-by-line parse. Ids and answers that
repeat share one string object. :func:`group_logs` is the one pass from the
lines of one or more logs to the per-pool samples of :func:`group_records`:
it keeps, per (question, strategy) pool, the sample indices, answers and
lines of its samples as lists in reading order plus integer token sums, and
builds no per-line record. Reading consults no ground truth. Once every line has
parsed, so that a bad line anywhere is reported first, the pools are checked
one by one, from the line numbers kept per sample, for a question without
ground truth and for a repeated key; the error raised is that of the first
such record in reading order, with file and line.
:func:`parse_records` and :func:`group_records` are the same steps one
record at a time. :func:`replay_majority` is exact: the mean vote over
every n-subset of a pool, from Levin's sum over binomial rows. Pool cells
share :mod:`votescale.votemath`'s one batched exact driver with plug-in
cells, so :func:`mean_replay_accuracy` makes one call for all its pools
and evaluates each distinct pool key once.
"""
from __future__ import annotations

import json
import math
import re
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import groupby, islice
from operator import eq, itemgetter
from typing import Iterable, Iterator, Sequence

from .distribution import AnswerDistribution
from .errors import (
    DuplicateKey,
    MalformedLine,
    MissingGroundTruth,
    VoteScaleError,
)
from .votemath import _pool_majority_probs

__all__ = [
    "UNPARSEABLE", "SampleRecord", "QuestionSamples", "CostModel", "parse_records",
    "load_ground_truth", "group_records", "group_logs", "answer_support", "estimate_distribution",
    "replay_majority", "mean_replay_accuracy",
]

#: Sentinel stored for unparseable or empty answers.
UNPARSEABLE = "∅"

_RECORD_FIELDS = frozenset(
    {
        "question_id",
        "strategy_id",
        "sample_index",
        "answer",
        "prompt_tokens",
        "completion_tokens",
    }
)
_TRUTH_FIELDS = frozenset({"question_id", "correct_answer"})
#: A log object's fields in SampleRecord order.
_RECORD_COLUMNS = itemgetter(
    "question_id", "strategy_id", "sample_index", "answer", "prompt_tokens", "completion_tokens"
)
#: A log row's pool: (question_id, strategy_id).
_POOL = itemgetter(0, 1)
#: A JSON string's characters with no escape, control character or lone
#: surrogate, and an integer from 0 to 18 digits: values that pass every
#: field check as they stand.
_PLAIN_TEXT = r'[^"\\\x00-\x1f\ud800-\udfff]*'
_SMALL_COUNT = r"(0|[1-9][0-9]{0,17})"
#: One log line as ``synth`` and ``json.dumps`` write it: the record fields
#: in SampleRecord order, ", " and ": " separators and no padding, holding
#: only plain text and small counts. The answer keeps its quotes, so null and
#: "null" stay apart. Under re.M only "\n" ends a line.
_CANONICAL_RECORD = re.compile(
    r'^\{"question_id": "(%s)", "strategy_id": "(%s)", "sample_index": %s, '
    r'"answer": ("%s"|null), "prompt_tokens": %s, "completion_tokens": %s\}$'
    % (_PLAIN_TEXT, _PLAIN_TEXT, _SMALL_COUNT, _PLAIN_TEXT, _SMALL_COUNT, _SMALL_COUNT),
    re.M,
)
#: Log lines parsed as one JSON array. Small, so that the chunk's text and
#: objects stay a small share of peak memory next to the records.
_CHUNK_LINES = 256


@dataclass(frozen=True)
class SampleRecord:
    """One recorded sample: an extracted answer plus its token usage."""

    question_id: str
    strategy_id: str
    sample_index: int
    answer: str
    prompt_tokens: int
    completion_tokens: int

    def __post_init__(self):
        if self.sample_index < 0:
            raise ValueError("sample_index must be >= 0")
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be >= 0")

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.question_id, self.strategy_id, self.sample_index)


@dataclass(frozen=True)
class QuestionSamples:
    """All recorded answers for one (question, strategy) pair.

    ``answers`` follow sample_index order; token means are per sample and
    feed the cost model.
    """

    question_id: str
    strategy_id: str
    correct_answer: str
    answers: tuple[str, ...]
    mean_prompt_tokens: float
    mean_completion_tokens: float


@dataclass(frozen=True)
class CostModel:
    """Linear token pricing: currency per prompt token and completion token."""

    prompt_price: float
    completion_price: float

    def __post_init__(self):
        if not (self.prompt_price >= 0 and self.completion_price >= 0):
            raise ValueError("prices must be >= 0")

    @classmethod
    def from_per_million(cls, prompt: float, completion: float) -> "CostModel":
        """Build from the usual price quotes (currency per 1M tokens)."""
        return cls(prompt / 1e6, completion / 1e6)

    def sample_cost(self, prompt_tokens: float, completion_tokens: float) -> float:
        return prompt_tokens * self.prompt_price + completion_tokens * self.completion_price


def _json_lines(
    lines: Iterable[str], fields: frozenset, start: int = 1
) -> Iterator[tuple[int, dict]]:
    """The one reader of line-delimited JSON input: ``(line number, object)``
    for each nonblank line that holds one JSON object with exactly
    ``fields``; anything else, a line that is not UTF-8 included, is a
    :class:`MalformedLine`. Lines are numbered from ``start``, and each is
    read without one trailing ``"\\n"``."""
    for line_number, line in enumerate(lines, start=start):
        line = line.removesuffix("\n")
        if not line.strip():
            continue
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise MalformedLine(line_number, "not valid UTF-8") from None
        try:
            obj = json.loads(line)
        except RecursionError:
            raise MalformedLine(line_number, "invalid JSON: nested too deeply") from None
        except ValueError as exc:  # a JSONDecodeError, or an integer too long to read
            raise MalformedLine(line_number, f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
        if not isinstance(obj, dict):
            raise MalformedLine(line_number, "record must be a JSON object")
        if obj.keys() != fields:
            missing, extra = fields - obj.keys(), obj.keys() - fields
            kind, names = ("missing", missing) if missing else ("unexpected", extra)
            raise MalformedLine(line_number, f"{kind} fields: {', '.join(sorted(names))}")
        yield line_number, obj


def _text(line_number: int, obj: dict, field: str) -> str:
    """A string field that encodes as UTF-8 (JSON admits lone surrogates)."""
    value = obj[field]
    if not isinstance(value, str):
        raise MalformedLine(line_number, f"{field} must be a string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise MalformedLine(line_number, f"{field} holds a lone surrogate, not UTF-8") from None
    return value


def _count(line_number: int, obj: dict, field: str) -> int:
    """An integer field in [0, sys.float_info.max]."""
    value = obj[field]
    if type(value) is not int or not 0 <= value <= sys.float_info.max:
        raise MalformedLine(line_number, f"{field} must be an integer from 0 to the largest double")
    return value


def _number(line_number: int, obj: dict, field: str) -> float:
    """A finite number field >= 0, as a float."""
    value = obj[field]
    # NaN, inf and ints too large for a double all fail the bounds
    if type(value) not in (int, float) or not 0 <= value <= sys.float_info.max:
        raise MalformedLine(line_number, f"{field} must be a finite number >= 0")
    return float(value)


def parse_records(lines: Iterable[str]) -> list[SampleRecord]:
    """Parse log lines into records; blank lines are skipped.

    Raises :class:`MalformedLine` (with the 1-based line number) on invalid
    or too deeply nested JSON, a wrong field set, a wrong field type, text
    that is not UTF-8, or a token count or sample index outside
    [0, sys.float_info.max]. A null answer becomes :data:`UNPARSEABLE`; an
    empty one stays empty until :func:`group_records` maps it.
    """
    # one object per distinct id and answer string; a null answer maps to the sentinel
    strings: dict[str | None, str] = {None: UNPARSEABLE}
    intern = strings.setdefault
    records = []
    start = 1
    for chunk in _chunks(lines, _CHUNK_LINES):
        rows, _ = _log_rows(chunk, start)
        records += [
            SampleRecord(intern(q, q), intern(s, s), i, intern(a, a), p, c)
            for q, s, i, a, p, c in rows
        ]
        start += len(chunk)
    return records


def _log_rows(chunk: list[str], start: int, offset: int = 0) -> tuple[list[tuple], Sequence[int]]:
    """The rows of :func:`_record_row` for a chunk of log lines numbered from
    ``start``, and each row's line number plus ``offset``; a bad line raises
    its :class:`MalformedLine`."""
    rows = _chunk_rows(chunk)
    if rows is None:
        numbered = [(n, _record_row(n, obj)) for n, obj in _json_lines(chunk, _RECORD_FIELDS, start)]
        return [row for _, row in numbered], [offset + n for n, _ in numbered]
    first = offset + start
    if len(rows) == len(chunk):
        return rows, range(first, first + len(chunk))
    return rows, [first + j for j, line in enumerate(chunk) if line.strip()]


def _chunks(lines: Iterable[str], size: int) -> Iterator[list[str]]:
    """``lines`` in lists of ``size``, each line without one trailing ``"\\n"``."""
    it = iter(lines)
    while chunk := [line.removesuffix("\n") for line in islice(it, size)]:
        yield chunk


def _record_row(line_number: int, obj: dict) -> tuple:
    """The checked fields of one log object, in :class:`SampleRecord` order;
    a null answer stays ``None``."""
    answer = obj["answer"]
    if answer is not None and not isinstance(answer, str):
        raise MalformedLine(line_number, "answer must be a string or null")
    return (
        _text(line_number, obj, "question_id"),
        _text(line_number, obj, "strategy_id"),
        _count(line_number, obj, "sample_index"),
        None if answer is None else _text(line_number, obj, "answer"),
        _count(line_number, obj, "prompt_tokens"),
        _count(line_number, obj, "completion_tokens"),
    )


def _chunk_rows(lines: list[str]) -> list[tuple] | None:
    """The rows of :func:`_record_row` for a chunk of log lines: those of
    :func:`_canonical_rows` if every line but an empty last one is
    canonical, else those of the chunk parsed as one JSON array and checked
    a column at a time; ``None`` when some line needs the line-by-line
    reader.

    The JSON array joins the nonblank lines as given (a stripped copy could
    drop characters JSON rejects), with separators that hold a newline. JSON
    strings cannot hold a raw newline, and every value of an accepted
    element is a scalar, so an element cannot span two lines; with one
    element per line and each line running from ``{`` to ``}``, every line
    parses to the object it would parse to alone.
    """
    rows = _canonical_rows(lines)
    if rows is not None:
        return rows
    nonblank = []
    for line in lines:
        text = line.strip()
        if text:
            if text[0] != "{" or text[-1] != "}":
                return None
            nonblank.append(line)
    if not nonblank:
        return []
    try:
        objs = json.loads("[" + ",\n".join(nonblank) + "]")
    except (ValueError, RecursionError):
        return None
    if (
        len(objs) != len(nonblank)
        or not set(map(type, objs)) <= {dict}
        or set(map(len, objs)) != {len(_RECORD_FIELDS)}
    ):
        return None
    try:  # with the right size, an object holding every field holds no other
        rows = list(map(_RECORD_COLUMNS, objs))
    except KeyError:
        return None
    qids, sids, indices, answers, prompts, completions = zip(*rows)
    if not (
        {*map(type, qids), *map(type, sids)} <= {str}
        and set(map(type, answers)) <= {str, type(None)}
        and {*map(type, indices), *map(type, prompts), *map(type, completions)} <= {int}
    ):
        return None
    counts = (*indices, *prompts, *completions)
    if min(counts) < 0 or max(counts) > sys.float_info.max:
        return None
    texts = {*qids, *sids, *answers}
    texts.discard(None)
    try:
        "".join(texts).encode("utf-8")  # JSON admits lone surrogates
    except UnicodeEncodeError:
        return None
    return rows


def _canonical_rows(lines: list[str]) -> list[tuple] | None:
    """The rows of a chunk whose every line matches :data:`_CANONICAL_RECORD`
    whole, from one scan of the joined lines; ``None`` for any other chunk.

    A last line that is empty, as ``str.split`` gives after a final line
    break, is skipped like any blank line. The first line is tried alone,
    so a chunk in another form costs no scan. With one newline between each two lines,
    no line holds a newline, and a match cannot span one; so one match per
    line means that every line is one whole match, in order.
    """
    if not _CANONICAL_RECORD.fullmatch(lines[0]):
        return None
    if lines[-1] == "":
        lines = lines[:-1]
    text = "\n".join(lines)
    if text.count("\n") != len(lines) - 1:
        return None
    found = _CANONICAL_RECORD.findall(text)
    if len(found) != len(lines):
        return None
    qids, sids, indices, answers, prompts, completions = zip(*found)
    # a chunk repeats few distinct values: convert each one once
    count = {value: int(value) for value in {*indices, *prompts, *completions}}.__getitem__
    answer = {value: None if value == "null" else value[1:-1] for value in set(answers)}.__getitem__
    return list(
        zip(
            qids,
            sids,
            map(count, indices),
            map(answer, answers),
            map(count, prompts),
            map(count, completions),
        )
    )


def load_ground_truth(lines: Iterable[str]) -> dict[str, str]:
    """Parse a ground-truth file into question_id -> correct_answer.

    Line errors are those of :func:`parse_records`. A correct answer may not
    be empty or the sentinel (both would collide with the encoding of
    unparseable samples). A repeated question_id raises :class:`DuplicateKey`
    with the repeating line's number.
    """
    truth: dict[str, str] = {}
    for line_number, obj in _json_lines(lines, _TRUTH_FIELDS):
        question_id = _text(line_number, obj, "question_id")
        correct = _text(line_number, obj, "correct_answer")
        if correct in ("", UNPARSEABLE):
            raise MalformedLine(
                line_number, "correct_answer must be a nonempty non-sentinel string"
            )
        if question_id in truth:
            raise DuplicateKey(f"ground truth repeats question_id {question_id!r}", line_number)
        truth[question_id] = correct
    return truth


def group_records(
    records: Iterable[SampleRecord], ground_truth: dict[str, str]
) -> dict[tuple[str, str], QuestionSamples]:
    """Group records by (question, strategy), ordered by sample_index.

    An empty answer becomes the sentinel. Duplicate (question, strategy,
    sample_index) keys, questions without ground truth and an empty or
    sentinel correct answer (which would score unparseable samples as
    correct) are errors.
    """
    by_group: dict[tuple[str, str], list[SampleRecord]] = {}
    for record in records:
        by_group.setdefault((record.question_id, record.strategy_id), []).append(record)

    groups: dict[tuple[str, str], QuestionSamples] = {}
    for (question_id, strategy_id), members in by_group.items():
        if question_id not in ground_truth:
            raise MissingGroundTruth(f"no correct answer for question {question_id!r}")
        correct = ground_truth[question_id]
        if correct in ("", UNPARSEABLE):
            raise MissingGroundTruth(
                f"correct answer {correct!r} for question {question_id!r} is empty or the sentinel"
            )
        members.sort(key=lambda r: r.sample_index)
        for before, record in zip(members, members[1:]):
            if before.sample_index == record.sample_index:
                raise DuplicateKey(
                    "duplicate (question_id, strategy_id, sample_index): "
                    f"{record.key!r}"
                )
        groups[(question_id, strategy_id)] = QuestionSamples(
            question_id=question_id,
            strategy_id=strategy_id,
            correct_answer=correct,
            answers=tuple(r.answer or UNPARSEABLE for r in members),
            # exact integer sums, one rounding each
            mean_prompt_tokens=sum(r.prompt_tokens for r in members) / len(members),
            mean_completion_tokens=sum(r.completion_tokens for r in members) / len(members),
        )
    return groups


def group_logs(
    sources: Iterable[tuple[str, Iterable[str]]],
    ground_truth: dict[str, str],
    *,
    truth_name: str = "the ground truth",
) -> dict[tuple[str, str], QuestionSamples]:
    """:func:`group_records` of :func:`parse_records` over every log of
    ``sources``, ``(name, lines)`` pairs read in order, in one pass.

    Pools, their order, answers, token means and shared string objects are
    those of ``group_records(parse_records(lines of every log), ground_truth)``,
    and a pool may span logs. Errors name the log and line. A bad line (see
    :func:`parse_records`) is a :class:`VoteScaleError` ``"name: line N:
    ..."``. Once every line has parsed, each pool is checked as it is
    converted, and the first bad record in reading order raises: a record
    whose question has no ground truth raises :class:`MissingGroundTruth`
    (``"... in truth_name"``), and one that repeats an earlier record's
    (question, strategy, sample_index) raises :class:`DuplicateKey`
    (``"... (first at name: line M)"``).
    """
    pools = _LogPools()
    for name, lines in sources:
        offset = pools.open(name)
        start = 1
        try:
            for chunk in _chunks(lines, _CHUNK_LINES):
                pools.add(*_log_rows(chunk, start, offset))
                start += len(chunk)
        except MalformedLine as exc:
            raise VoteScaleError(f"{name}: {exc}") from None
        pools.close(start - 1)
    return pools.groups(ground_truth, truth_name)


class _Pool:
    """One (question, strategy) pool while its logs are read: per sample, in
    reading order, its sample_index, its interned answer and its line."""

    __slots__ = ("indices", "answers", "lines", "prompt_tokens", "completion_tokens")

    def __init__(self):
        self.indices: list[int] = []
        self.answers: list[str] = []
        self.lines = array("q")  # in :class:`_LogPools` numbering
        self.prompt_tokens = 0
        self.completion_tokens = 0


class _LogPools:
    """The pools of the log rows read so far. Lines are numbered across
    logs: a log's line N is its offset plus N, and a log's offset is the
    number of lines of the logs before it.

    Reading only adds rows. :meth:`groups` checks each pool's ground truth
    and sample indices as it converts it, so the error it raises is that of
    the first bad record in reading order."""

    def __init__(self):
        # one object per distinct id and answer string; a null answer maps to the sentinel
        strings: dict[str | None, str] = {None: UNPARSEABLE}
        self.intern = strings.setdefault
        self.pools: dict[tuple[str, str], _Pool] = {}
        self.names: list[str] = []
        self.offsets: list[int] = [0]

    def open(self, name: str) -> int:
        """Start the next log; returns its offset."""
        self.names.append(name)
        return self.offsets[-1]

    def close(self, lines: int) -> None:
        """End the current log, which had ``lines`` lines."""
        self.offsets.append(self.offsets[-1] + lines)

    def where(self, line: int) -> str:
        """``"name: line N"`` for a line in the numbering across logs."""
        log = bisect_left(self.offsets, line) - 1
        return f"{self.names[log]}: line {line - self.offsets[log]}"

    def add(self, rows: list[tuple], lines: Sequence[int]) -> None:
        """Add checked log rows read from ``lines``."""
        intern = self.intern
        done = 0
        for key, run in groupby(rows, _POOL):
            run = list(run)
            pool = self.pools.get(key)
            if pool is None:
                pool = self.pools[tuple(map(intern, key, key))] = _Pool()
            _, _, indices, answers, prompts, completions = zip(*run)
            pool.indices += indices
            pool.answers += map(intern, answers, answers)
            pool.lines.extend(lines[done : done + len(run)])
            done += len(run)
            pool.prompt_tokens += sum(prompts)
            pool.completion_tokens += sum(completions)

    def groups(
        self, ground_truth: dict[str, str], truth_name: str
    ) -> dict[tuple[str, str], QuestionSamples]:
        """The pools as :class:`QuestionSamples`, answers in sample_index
        order, each pool released once converted. Raises the error of the
        first row in reading order whose question has no usable ground truth
        (a pool's first line) or that repeats an earlier row's key."""
        groups = {}
        first = None  # (line, error) of the earliest bad row so far
        for question_id, strategy_id in list(self.pools):
            pool = self.pools.pop((question_id, strategy_id))
            correct = ground_truth.get(question_id)
            if correct in (None, "", UNPARSEABLE):
                line = pool.lines[0]
                if first is None or line < first[0]:
                    reason = (
                        f"no correct answer for question {question_id!r} in {truth_name}"
                        if correct is None
                        else f"correct answer {correct!r} for question {question_id!r} "
                        "is empty or the sentinel"
                    )
                    first = line, MissingGroundTruth(f"{self.where(line)}: {reason}")
                continue
            indices, answers = pool.indices, pool.answers
            order = sorted(range(len(indices)), key=indices.__getitem__)
            ordered = [indices[i] for i in order]
            # sorting puts equal sample indices side by side
            if any(map(eq, ordered, islice(ordered, 1, None))):
                line, earlier, index = self._repeat(pool)
                if first is None or line < first[0]:
                    first = line, DuplicateKey(
                        f"{self.where(line)}: duplicate (question_id, strategy_id, sample_index): "
                        f"{(question_id, strategy_id, index)!r} (first at {self.where(earlier)})"
                    )
            if first is None:
                groups[question_id, strategy_id] = QuestionSamples(
                    question_id=question_id,
                    strategy_id=strategy_id,
                    correct_answer=correct,
                    answers=tuple([answers[i] or UNPARSEABLE for i in order]),
                    # exact integer sums, one rounding each
                    mean_prompt_tokens=pool.prompt_tokens / len(indices),
                    mean_completion_tokens=pool.completion_tokens / len(indices),
                )
        if first is not None:
            raise first[1]
        return groups

    @staticmethod
    def _repeat(pool: _Pool) -> tuple[int, int, int]:
        """The line of the pool's first sample in reading order that repeats
        an earlier sample_index, the earlier sample's line, and the index."""
        earlier = {}
        for index, line in zip(pool.indices, pool.lines):
            if index in earlier:
                return line, earlier[index], index
            earlier[index] = line
        raise AssertionError("no repeated sample_index")


def answer_support(samples: QuestionSamples) -> tuple[str, ...]:
    """Distinct answers in first-appearance order, correct answer appended
    at the end when it was never sampled. Index-compatible with
    :func:`estimate_distribution`."""
    support = list(dict.fromkeys(samples.answers))
    if samples.correct_answer not in support:
        support.append(samples.correct_answer)
    return tuple(support)


def _answer_counts(samples: QuestionSamples) -> tuple[list[int], int]:
    """The count of each of the pool's :func:`answer_support` answers, and
    the correct answer's index among them."""
    support, counts = answer_support(samples), Counter(samples.answers)
    return [counts[answer] for answer in support], support.index(samples.correct_answer)


def estimate_distribution(
    samples: QuestionSamples, *, smoothing: float = 0.0
) -> AnswerDistribution:
    """Maximum-likelihood answer distribution from the recorded pool.

    Each distinct answer gets count/total; the correct answer is appended
    with probability zero when never sampled, so the result always carries
    a valid correct_index. ``smoothing`` adds that many pseudo-counts to
    every answer in the support (add-one smoothing at 1.0) and must be
    finite and >= 0, with a finite total; the default is the plain
    empirical estimator.
    """
    if not samples.answers:
        raise ValueError("cannot estimate a distribution from zero samples")
    if not 0 <= smoothing < math.inf:
        raise ValueError("smoothing must be a finite number >= 0")
    counts, correct_index = _answer_counts(samples)
    total = len(samples.answers) + smoothing * len(counts)
    if not math.isfinite(total):
        raise ValueError(f"smoothing={smoothing!r} over {len(counts)} answers overflows the total count")
    probs = tuple((c + smoothing) / total for c in counts)
    return AnswerDistribution(probs, correct_index)


def replay_majority(samples: QuestionSamples, n: int) -> float:
    """Accuracy of an n-sample majority vote replayed from the recorded pool:
    the exact mean, over every n-subset of the pool, of the vote's success
    with uniform tie-breaking, which is unbiased for majority@n accuracy.
    Caps as for :func:`exact_majority_prob` (``CapExceeded``). A draw with
    replacement is a vote over the pool's plug-in distribution, whose exact
    value is ``exact_majority_prob(estimate_distribution(samples), n)``.
    Its pool goes through the one batched exact call that
    :func:`mean_replay_accuracy` makes for all of its pools."""
    return _pool_majority_probs([(*_answer_counts(samples), n)])[0].value


def mean_replay_accuracy(groups: Iterable[QuestionSamples], n: int) -> float:
    """Mean of :func:`replay_majority` over (question, strategy) pools, from
    one batched exact call: each distinct pool key (the correct answer's
    count, then the wrong answers' counts in support order) is evaluated
    once at ``n``. The pools are checked in order, so the first one too
    small for ``n`` (``NotEnoughSamples``) or beyond a cap
    (``CapExceeded``) raises before any kernel work."""
    values = [vp.value for vp in _pool_majority_probs((*_answer_counts(g), n) for g in groups)]
    if not values:
        raise ValueError("no sample pools to replay")
    return float(math.fsum(values) / len(values))
