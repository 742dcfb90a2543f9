"""Exception types shared across the package."""


class VoteScaleError(Exception):
    """Base class for all votescale errors."""


class InvalidDistribution(VoteScaleError):
    """An answer distribution violates its invariants."""


class CapExceeded(VoteScaleError):
    """The exact estimator was asked for a size beyond its caps (nonzero
    answers, ``n``, or the count of answer-count compositions).

    Callers should fall back to the normal approximation or Monte Carlo.
    """


class WrongArity(VoteScaleError):
    """A closed form was requested outside its (m, n) domain."""


class NoWrongMass(VoteScaleError):
    """All probability sits on the correct answer; the wrong-answer
    conditional distribution is undefined."""


class MalformedLine(VoteScaleError):
    """A log or scenario line failed to parse. Carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DuplicateKey(VoteScaleError):
    """Two records share a (question_id, strategy_id, sample_index) key, or
    an input line repeats the key of an earlier one; then it carries that
    line's 1-based number."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


class MissingGroundTruth(VoteScaleError):
    """A logged question has no entry in the ground-truth file."""


class NotEnoughSamples(VoteScaleError):
    """A replay asked for more samples per vote than the recorded pool holds."""


class NoFeasibleChoice(VoteScaleError):
    """No (strategy, n) combination fits within the cost budget."""


class IdMismatch(VoteScaleError):
    """Datasets that must share question ids do not."""
