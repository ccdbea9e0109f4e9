"""Nimble-style linear selection objective.

§3: "Nimble incorporates a user-configurable linear objective function
that independently weights read time, write time, and storage size that
enables users to tailor encoding strategies to their specific workload
requirements."

``score_candidate`` trial-encodes the sample under a candidate scheme
for its size and prices its write and read time from a committed
table (:func:`scheme_cost`): seconds per raw MB for each scheme,
calibrated once by ``benchmarks/calibrate_cascade.py``. Nothing here
reads a clock, so a selection is a pure function of the values and
the weights: the same column always gets the same scheme. The three
terms are combined under the configured weights. Weight presets mirror
the workloads the paper cares about: training reads dominate for ML
("mini-batch reads with infrequent filtering"), so the default leans
on read time and size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cascading.costs import SCHEME_COSTS
from repro.encodings.base import Encoding, Kind, encode_blob, infer_kind


#: seconds-per-raw-MB scale that makes a 10 ms/MB decode cost comparable
#: to a 0.1 compression-ratio difference
_TIME_SCALE = 10.0


@dataclass(frozen=True)
class CostWeights:
    """Linear objective over (compression ratio, read s/MB, write s/MB).

    All three terms are normalized per *raw* byte so columns of scalars
    and columns of 1 KB list rows score on the same scale. Weights are
    non-negative, so ``combine(0.0, read, write)`` — the time terms
    alone — bounds from below what any size can score.
    """

    size: float = 1.0
    read: float = 1.0
    write: float = 0.1

    def combine(self, compression_ratio: float, read_s_per_mb: float,
                write_s_per_mb: float) -> float:
        return (
            self.size * compression_ratio
            + self.read * read_s_per_mb * _TIME_SCALE
            + self.write * write_s_per_mb * _TIME_SCALE
        )


#: presets named after the workloads in the paper
TRAINING_READS = CostWeights(size=1.0, read=2.0, write=0.05)
BALANCED = CostWeights(size=1.0, read=1.0, write=1.0)
COLD_STORAGE = CostWeights(size=3.0, read=0.2, write=0.2)


@dataclass
class CandidateScore:
    """Cost of one candidate scheme on the sample: its trial-encoded
    size, and its write and read seconds as the cost table prices
    them."""

    encoding: Encoding
    description: str
    encoded_bytes: int
    write_seconds: float
    read_seconds: float
    objective: float


def raw_size_bytes(values) -> int:
    """Approximate uncompressed footprint of a value container."""
    import numpy as np

    if isinstance(values, np.ndarray):
        return max(1, values.nbytes)
    total = 0
    for item in values:
        if item is None:
            total += 1
        elif isinstance(item, (bytes, bytearray)):
            total += len(item) + 4
        elif isinstance(item, np.ndarray):
            total += item.nbytes + 4
        elif isinstance(item, (list, tuple)):
            total += 8 * len(item) + 4
        else:
            total += 8
    return max(1, total)


#: the cost-table rows of ``int`` schemes timed on the flattened values
#: of list columns: the inner part of a ``list(<inner>)`` composite
LIST_VALUES = "list_int.values"


def scheme_cost(kind: Kind, description: str) -> tuple[float, float]:
    """(write, read) seconds per raw MB of the scheme ``description``
    on ``kind`` values, from the committed table. A ``list(<inner>)``
    composite costs the sum of its parts: the list framing plus its
    inner scheme on list values. ``KeyError`` when no row prices it."""
    rows = SCHEME_COSTS[kind.value]
    if description in rows:
        return rows[description]
    if kind == Kind.LIST_INT and description.startswith("list("):
        framing = rows["list"]
        inner = SCHEME_COSTS[LIST_VALUES][description[len("list("):-1]]
        return framing[0] + inner[0], framing[1] + inner[1]
    raise KeyError(f"no cost row for {kind.value} {description!r}")


def score_candidate(
    values, encoding: Encoding, weights: CostWeights, description: str = ""
) -> CandidateScore | None:
    """Trial-encode the sample for its size and price its time terms
    from the cost table; None when the scheme is inapplicable."""
    description = description or encoding.name
    write_mb, read_mb = scheme_cost(infer_kind(values), description)
    try:
        blob = encode_blob(values, encoding)
    except Exception:
        return None
    raw = raw_size_bytes(values)
    mb = raw / 1e6
    return CandidateScore(
        encoding=encoding,
        description=description,
        encoded_bytes=len(blob),
        write_seconds=write_mb * mb,
        read_seconds=read_mb * mb,
        objective=weights.combine(len(blob) / raw, read_mb, write_mb),
    )
