"""Cascading encoding selection (paper §2.6).

Sampling-based stats + heuristic candidate pruning + a Nimble-style
linear objective over measured (size, read time, write time), with
bounded recursion over sub-column encodings. The writer selects once
per column per file (see :mod:`repro.cascading.selector`).

>>> import numpy as np
>>> from repro.cascading import choose_encoding
>>> result = choose_encoding(np.repeat(np.arange(10), 100))
>>> result.description            # doctest: +SKIP
'rle(dictionary, varint)'
"""

from repro.cascading.objective import (
    BALANCED,
    COLD_STORAGE,
    CandidateScore,
    CostWeights,
    TRAINING_READS,
    score_candidate,
)
from repro.cascading.selector import (
    DEFAULT_MAX_DEPTH,
    SelectionResult,
    candidate_encodings,
    candidate_fingerprint,
    choose_encoding,
    select_encoding,
)
from repro.cascading.stats import ColumnStats, collect_stats, take_sample

__all__ = [
    "CostWeights",
    "CandidateScore",
    "TRAINING_READS",
    "BALANCED",
    "COLD_STORAGE",
    "score_candidate",
    "SelectionResult",
    "DEFAULT_MAX_DEPTH",
    "candidate_encodings",
    "candidate_fingerprint",
    "choose_encoding",
    "select_encoding",
    "ColumnStats",
    "collect_stats",
    "take_sample",
]
