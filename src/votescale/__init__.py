"""votescale: analyze, predict, and improve majority voting over repeated samples.

The core objects are :class:`AnswerDistribution` (one question's answer
probabilities with a marked correct answer) and the estimators in
:mod:`votescale.votemath` that turn it into a vote success probability at
a given sampling time. On top of that sit the difficulty taxonomy
(:mod:`votescale.difficulty`), recorded-log handling
(:mod:`votescale.records`), and dataset-level curves, selection, and
oracle bounds (:mod:`votescale.selection`). The ``votescale`` console
script exposes the lot.

Each module lists its public names in its own ``__all__``; the package
re-exports exactly those, and its ``__all__`` is their concatenation.
"""
from .distribution import *
from .errors import *
from .difficulty import *
from .records import *
from .selection import *
from .votemath import *

__version__ = "0.1.0"

__all__ = (
    distribution.__all__ + errors.__all__ + difficulty.__all__
    + records.__all__ + selection.__all__ + votemath.__all__
)
