"""The linear generic page masker equals the donor loop it replaced.

``deletion._mask_generic`` used to find each deleted slot's donor by
walking back through a Python ``set`` until it met a survivor — quadratic
in the length of a deleted run. It is one forward fill now. The old loop
lives on here as the oracle: same donors, so the re-encoded payload must
be byte-identical, ``MaskError`` cases included.
"""

import functools

import numpy as np
import pytest

from repro.core import (
    BullionReader,
    BullionWriter,
    Table,
    WriterOptions,
    delete_rows,
)
from repro.core.deletion import MaskError, _reencode_same, mask_page_payload
from repro.encodings import (
    ALP,
    BitShuffle,
    Chimp,
    Chunked,
    Delta,
    FastBP128,
    FrameOfReference,
    Gorilla,
    Trivial,
    ZigZag,
    decode_blob,
    encode_blob,
)
from repro.iosim import SimulatedStorage

SIZES = (1, 2, 97, 4096)
PATTERNS = ("prefix", "suffix", "every", "alternating", "random1", "random50")

INT_CODECS = {
    "for": FrameOfReference,
    "delta": Delta,
    "zigzag": ZigZag,
    "fastbp128": FastBP128,
    "bitshuffle": BitShuffle,
    "chunked": Chunked,
}
FLOAT_CODECS = {"gorilla": Gorilla, "chimp": Chimp, "alp": ALP}


def reference_fill(values: np.ndarray, positions) -> np.ndarray:
    """The donor loop ``_mask_generic`` ran before the forward fill."""
    out = values.copy()
    pos_set = set(int(p) for p in positions)
    n = len(out)
    for p in sorted(pos_set):
        donor = None
        for q in range(p - 1, -1, -1):
            if q not in pos_set:
                donor = out[q]
                break
        if donor is None:
            for q in range(p + 1, n):
                if q not in pos_set:
                    donor = values[q]
                    break
        out[p] = donor if donor is not None else 0
    return out


def _positions(pattern: str, n: int) -> np.ndarray:
    rng = np.random.default_rng([n, PATTERNS.index(pattern)])
    if pattern == "prefix":
        return np.arange((n + 1) // 2)
    if pattern == "suffix":
        return np.arange(n // 2, n)
    if pattern == "every":
        return np.arange(n)
    if pattern == "alternating":
        return np.arange(0, n, 2)
    share = 0.01 if pattern == "random1" else 0.5
    return np.flatnonzero(rng.random(n) < share)


def _values(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng([n, kind == "float"])
    if kind == "float":
        return np.round(rng.normal(100.0, 30.0, n), 3)
    # a drifting walk, always positive (``fastbp128`` takes no negatives):
    # deltas, FOR offsets and bit widths all vary by block
    return np.cumsum(rng.integers(-50, 1000, n)).astype(np.int64) + 10**6


@functools.cache
def _reference(kind: str, pattern: str, n: int) -> np.ndarray:
    """Oracle fill per (values, deletion) — shared by that kind's codecs."""
    return reference_fill(_values(kind, n), _positions(pattern, n))


def _outcome(fn):
    try:
        result = fn()
    except MaskError as exc:
        return ("MaskError", str(exc))
    return result


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize(
    "kind,name",
    [("int", name) for name in INT_CODECS]
    + [("float", name) for name in FLOAT_CODECS],
)
def test_masker_equals_reference_loop(kind, name, pattern, n):
    codec = {**INT_CODECS, **FLOAT_CODECS}[name]
    values, positions = _values(kind, n), _positions(pattern, n)
    filled = _reference(kind, pattern, n)
    payload = encode_blob(values, codec())
    assert payload[0] == codec.id

    def expected():
        new_payload = _reencode_same(payload, filled)
        if len(new_payload) > len(payload):
            raise MaskError("generic re-encode grew the page")
        return new_payload, len(filled)

    def got():
        res = mask_page_payload(payload, positions)
        assert not res.compacted
        return res.payload, res.n_values

    assert _outcome(got) == _outcome(expected)


@pytest.mark.parametrize(
    "values",
    [
        np.arange(1, 98, dtype=np.int64) * 1_000_003,
        np.arange(1, 98) / 7.0,
        (np.arange(1, 98) / 7.0).astype(np.float32),
        (np.arange(1, 98) / 7.0).astype(np.float16),
        np.ones(97, dtype=np.bool_),
    ],
    ids=["int64", "float64", "float32", "float16", "bool"],
)
@pytest.mark.parametrize("pattern", PATTERNS)
def test_trivial_masker_zeroes_exactly_the_deleted_slots(values, pattern):
    """``_mask_trivial``'s fixed-size branches are one array store now;
    the per-slot loop they replaced is the expectation."""
    payload = encode_blob(values, Trivial())
    positions = _positions(pattern, len(values))
    itemsize = 1 if values.dtype == np.bool_ else values.dtype.itemsize
    base = len(payload) - len(values) * itemsize
    want = bytearray(payload)
    for idx in positions:
        want[base + idx * itemsize : base + (idx + 1) * itemsize] = bytes(itemsize)
    res = mask_page_payload(payload, positions)
    assert (res.payload, res.n_values) == (bytes(want), len(values))


def test_mask_error_matches_reference():
    """A page the fill makes *larger* raises in both (delta: a deleted
    prefix turns a zero first value into the first survivor's)."""
    values = np.concatenate(([0], np.full(40, 1 << 40))).astype(np.int64)
    payload = encode_blob(values, ZigZag())
    filled = reference_fill(values, [0])
    assert len(_reencode_same(payload, filled)) > len(payload)
    with pytest.raises(MaskError, match="grew the page"):
        mask_page_payload(payload, np.array([0]))


def test_long_deleted_prefix_is_linear():
    """60,000 leading slots of a 65,536-slot page: 1.8e9 steps under the
    old loop, so this cannot pass by accident."""
    rng = np.random.default_rng(3)
    values = np.cumsum(rng.integers(0, 9, 65536)).astype(np.int64)
    payload = encode_blob(values, FrameOfReference())
    res = mask_page_payload(payload, np.arange(60_000))
    out = decode_blob(res.payload)
    assert res.n_values == 65536 and len(res.payload) <= len(payload)
    assert np.all(out[:60_000] == values[60_000])
    assert np.array_equal(out[60_000:], values[60_000:])


def test_contiguous_delete_on_cascade_file_scrubs_values(size_only_objective):
    """Retention's shape — a contiguous row range — on a cascade-written
    three-group file: checksums hold and no deleted value is stored."""
    rng = np.random.default_rng(8)
    n = 3 * 2048
    table = Table(
        {
            "ts": np.arange(n, dtype=np.int64) + 10**12,
            "score": rng.permutation(n) + rng.random(n),
            "token": [b"secret-%06d" % i for i in range(n)],
        }
    )
    dev = SimulatedStorage()
    BullionWriter(
        dev,
        options=WriterOptions(
            rows_per_page=512, rows_per_group=2048, encoding_policy="cascade"
        ),
    ).write(table)
    victims = np.arange(300, 2048 + 900)  # spans a group boundary
    report = delete_rows(dev, victims)
    assert report.pages_rewritten > 0
    reader = BullionReader(dev)
    assert reader.verify()
    live = reader.project(list(table.columns))
    keep = np.ones(n, dtype=bool)
    keep[victims] = False
    for name, col in table.columns.items():
        want = [v for v, k in zip(col, keep) if k]
        assert list(live.columns[name]) == want, name
    # every slot the file still stores, deleted ones included. ``ts`` is
    # left out: a page whose re-encode would grow keeps its bytes and
    # relies on the vector (§2.1), and the in-place ``fixed_bit_width``
    # masker keeps the page base, which may be a deleted row's value
    # (ROADMAP, deletes item). Every scheme cascade picks for the other
    # two re-encodes smaller.
    stored = reader.project(list(table.columns), drop_deleted=False)
    for name in ("score", "token"):
        gone = {table.columns[name][i] for i in victims.tolist()}
        assert gone.isdisjoint(stored.columns[name]), name
    raw = dev.pread(0, dev.size)
    assert not any(table.columns["token"][i] in raw for i in victims.tolist())
