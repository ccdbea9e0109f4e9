"""The cascading encoding selector (paper §2.6).

Combines the ingredients the paper names:

* **sampling-based distribution analysis** (:mod:`repro.cascading.stats`)
  prunes the catalog to heuristically-plausible candidates, like
  Procella/BtrBlocks;
* **measured selection** under a Nimble-style linear objective
  (:mod:`repro.cascading.objective`);
* **bounded recursion**: candidates at depth *d* may pick cascaded
  children chosen at depth *d-1* — "current implementations, such as
  BtrBlocks, pragmatically limit recursion to one or two levels".
  ``max_depth=0`` disables composition entirely (the static
  single-encoding baseline the depth-ablation benchmark compares).

A selection trial-encodes and trial-decodes every candidate, so the
writer makes it once per column per file, on a sample of the first row
group, and reuses the winner. :func:`candidate_fingerprint` is its
guard: while a later row group's statistics admit the same candidates,
no threshold the heuristics branch on was crossed and the decision
stands; when they differ, the writer selects again.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cascading.objective import (
    CandidateScore,
    CostWeights,
    TRAINING_READS,
    score_candidate,
)
from repro.cascading.stats import ColumnStats, collect_stats, take_sample
from repro.encodings import (
    ALP,
    BitShuffle,
    Chimp,
    Chunked,
    Constant,
    Delta,
    Dictionary,
    Encoding,
    FastBP128,
    FastPFOR,
    FixedBitWidth,
    FrameOfReference,
    FSST,
    Gorilla,
    Huffman,
    Kind,
    ListEncoding,
    MainlyConstant,
    Pseudodecimal,
    RLE,
    Roaring,
    SparseBool,
    SparseListDelta,
    Trivial,
    Varint,
    ZigZag,
)
from repro.encodings.lists import normalize_list_column

DEFAULT_MAX_DEPTH = 2


@dataclass
class SelectionResult:
    """The winning scheme plus the scored alternatives."""

    encoding: Encoding
    description: str
    scores: list[CandidateScore]
    stats: ColumnStats

    @property
    def best(self) -> CandidateScore:
        return self.scores[0]


def _int_candidates(
    stats: ColumnStats, sample, depth: int
) -> list[tuple[Encoding, str]]:
    out: list[tuple[Encoding, str]] = [(Trivial(), "trivial")]
    if stats.n_unique <= 1:
        return [(Constant(), "constant")] + out
    small_domain = stats.n_unique <= max(64, stats.n_sampled // 8)
    out.append((FixedBitWidth(), "fixed_bit_width"))
    if stats.non_negative:
        out.append((Varint(), "varint"))
        out.append((FastBP128(), "fastbp128"))
        out.append((FastPFOR(), "fastpfor"))
    else:
        out.append((ZigZag(), "zigzag(varint)"))
    out.append((FrameOfReference(), "for"))
    if stats.sorted_fraction > 0.9:
        out.append((Delta(), "delta(zigzag(varint))"))
    if stats.avg_run_length >= 1.5 and depth >= 1:
        values_child, values_desc = (
            (Dictionary(), "dictionary")
            if small_domain
            else (ZigZag(), "zigzag")
        )
        out.append(
            (
                RLE(values_child=values_child, counts_child=Varint()),
                f"rle({values_desc}, varint)",
            )
        )
    if small_domain and depth >= 1:
        out.append((Dictionary(), "dictionary(fixed_bit_width)"))
        if stats.avg_run_length >= 1.5:
            out.append(
                (
                    Dictionary(codes_child=RLE()),
                    "dictionary(rle)",
                )
            )
    if stats.n_unique <= 256:
        out.append((Huffman(), "huffman"))
    if stats.mode_fraction > 0.8:
        out.append((MainlyConstant(), "mainly_constant"))
    if depth >= 1:
        out.append((BitShuffle(), "bitshuffle(chunked)"))
        out.append((Chunked(), "chunked(trivial)"))
        if stats.non_negative and depth >= 2:
            out.append(
                (Chunked(FastBP128()), "chunked(fastbp128)")
            )
    return out


def _float_candidates(
    stats: ColumnStats, sample, depth: int
) -> list[tuple[Encoding, str]]:
    out: list[tuple[Encoding, str]] = [(Trivial(), "trivial")]
    if stats.n_unique <= 1:
        return [(Constant(), "constant")] + out
    out.append((ALP(), "alp(for)"))
    if stats.decimal_fraction > 0.5:
        out.append((Pseudodecimal(), "pseudodecimal"))
    out.append((Gorilla(), "gorilla"))
    out.append((Chimp(), "chimp"))
    if stats.mode_fraction > 0.8:
        out.append((MainlyConstant(), "mainly_constant"))
    if depth >= 1:
        out.append((BitShuffle(), "bitshuffle(chunked)"))
        out.append((Chunked(), "chunked(trivial)"))
        if depth >= 2:
            out.append((Chunked(BitShuffle(Trivial())), "chunked(bitshuffle)"))
    return out


def _bytes_candidates(
    stats: ColumnStats, sample, depth: int
) -> list[tuple[Encoding, str]]:
    out: list[tuple[Encoding, str]] = [(Trivial(), "trivial")]
    if stats.n_unique <= 1:
        return [(Constant(), "constant")] + out
    if stats.n_unique <= max(64, stats.n_sampled // 4) and depth >= 1:
        out.append((Dictionary(), "dictionary(fixed_bit_width)"))
        if depth >= 2:
            out.append((Dictionary(codes_child=RLE()), "dictionary(rle)"))
    out.append((FSST(), "fsst"))
    if depth >= 1:
        out.append((Chunked(), "chunked(trivial)"))
        if depth >= 2:
            out.append((Chunked(FSST()), "chunked(fsst)"))
    return out


def _bool_candidates(
    stats: ColumnStats, sample, depth: int
) -> list[tuple[Encoding, str]]:
    out: list[tuple[Encoding, str]] = [
        (Trivial(), "trivial"),
        (SparseBool(), "sparse_bool"),
        (Roaring(), "roaring"),
    ]
    if stats.avg_run_length >= 4 and depth >= 1:
        out.append((RLE(), "rle(zigzag, varint)"))
    return out


def _list_candidates(
    stats: ColumnStats, sample, depth: int, weights: CostWeights
) -> list[tuple[Encoding, str]]:
    out: list[tuple[Encoding, str]] = [(ListEncoding(), "list(trivial)")]
    if stats.kind == Kind.LIST_INT:
        if depth >= 1 and len(sample):
            flat = normalize_list_column(sample, Kind.LIST_INT).values
            inner = choose_encoding(
                flat, weights=weights, max_depth=depth - 1
            )
            out.append(
                (
                    ListEncoding(values_child=inner.encoding),
                    f"list({inner.description})",
                )
            )
        if stats.window_overlap > 0.3:
            out.append((SparseListDelta(), "sparse_list_delta(chunked)"))
    elif depth >= 1:
        out.append((ListEncoding(values_child=Chunked()), "list(chunked)"))
    return out


def candidate_encodings(
    values, stats: ColumnStats, depth: int, weights: CostWeights
) -> list[tuple[Encoding, str]]:
    """Heuristic candidate set for the sampled column."""
    sample = take_sample(values)
    if stats.kind == Kind.INT:
        return _int_candidates(stats, sample, depth)
    if stats.kind == Kind.FLOAT:
        return _float_candidates(stats, sample, depth)
    if stats.kind == Kind.BYTES:
        return _bytes_candidates(stats, sample, depth)
    if stats.kind == Kind.BOOL:
        return _bool_candidates(stats, sample, depth)
    return _list_candidates(stats, sample, depth, weights)


def candidate_fingerprint(
    stats: ColumnStats, max_depth: int = DEFAULT_MAX_DEPTH
) -> tuple[str, ...]:
    """The candidates ``stats`` admit, by description.

    Each ``if`` in the ``_*_candidates`` heuristics adds, drops or
    renames a candidate, so two fingerprints are equal exactly when no
    threshold was crossed between them. The empty sample keeps the list
    branch from running its inner selection: nothing is encoded.
    """
    return tuple(
        description
        for _, description in candidate_encodings(
            (), stats, max_depth, TRAINING_READS
        )
    )


def select_encoding(
    values,
    weights: CostWeights | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> SelectionResult:
    """Pick the best scheme for this column under the linear objective."""
    weights = weights or TRAINING_READS
    stats = collect_stats(values)
    sample = take_sample(values)
    scores: list[CandidateScore] = []
    for encoding, description in candidate_encodings(
        values, stats, max_depth, weights
    ):
        score = score_candidate(sample, encoding, weights, description)
        if score is not None:
            scores.append(score)
    if not scores:
        raise ValueError("no applicable encoding for column")
    scores.sort(key=lambda s: s.objective)
    return SelectionResult(
        encoding=scores[0].encoding,
        description=scores[0].description,
        scores=scores,
        stats=stats,
    )


def choose_encoding(
    values,
    weights: CostWeights | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> SelectionResult:
    """Alias of :func:`select_encoding` (the name the writer calls)."""
    return select_encoding(values, weights=weights, max_depth=max_depth)
