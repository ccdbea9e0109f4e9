"""Corruption fuzzing for every decoder in the Table 2 catalog.

The decoder contract is the safety net under footer checksums: a blob
that fails its checksum is rejected before decode, but maintenance
tools (``repro-inspect``, scrubbing, compaction) decode payloads from
partially written or damaged files.  A decoder handed garbage must
raise ``EncodingError`` (a ``ValueError``) or return a well-formed
value — never hang, loop, or leak an arbitrary crash class
(``IndexError`` deep inside a numpy kernel, ``struct.error`` from a
short read, a absurd-size ``MemoryError`` allocation).

Two attack shapes, both deterministic (seeded rng):

* **truncation** — every prefix length of a valid blob;
* **bit flips** — single-bit and multi-byte mutations at random
  offsets, including the id byte and length-prefix regions.
"""

import numpy as np
import pytest

from repro.encodings import (
    ALP,
    BitShuffle,
    Chimp,
    Chunked,
    Delta,
    Dictionary,
    EncodingError,
    FastBP128,
    FastPFOR,
    FixedBitWidth,
    FrameOfReference,
    FSST,
    Gorilla,
    Huffman,
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
    decode_blob,
    encode_blob,
)

RNG = np.random.default_rng(777)


def _ints(n=300):
    return RNG.integers(0, 10**6, n).astype(np.int64)


def _floats(n=200):
    return np.round(RNG.normal(size=n) * 100, 3)


def _strings(n=120):
    return [f"fuzz/{i % 17}/payload".encode() for i in range(n)]


def _bools(n=1500):
    return RNG.random(n) < 0.1


def _lists(n=40):
    return [
        RNG.integers(0, 10**4, int(RNG.integers(0, 20))).astype(np.int64)
        for _ in range(n)
    ]


BLOBS = {
    "trivial": encode_blob(_ints(), Trivial()),
    "fixed_bit_width": encode_blob(_ints(), FixedBitWidth()),
    "zigzag": encode_blob(_ints() - 500_000, ZigZag()),
    "varint": encode_blob(_ints(), Varint()),
    "delta": encode_blob(np.sort(_ints()), Delta()),
    "for": encode_blob(_ints() + 10**9, FrameOfReference()),
    "rle": encode_blob(np.repeat(_ints(40), 25), RLE()),
    "dictionary": encode_blob(_ints(500) % 50, Dictionary()),
    "fastpfor": encode_blob(_ints(), FastPFOR()),
    "fastbp128": encode_blob(_ints(), FastBP128()),
    "huffman": encode_blob(_ints() % 200, Huffman()),
    "chunked": encode_blob(_ints(), Chunked()),
    "bitshuffle": encode_blob(_ints(), BitShuffle()),
    "gorilla": encode_blob(_floats(), Gorilla()),
    "chimp": encode_blob(_floats(), Chimp()),
    "alp": encode_blob(_floats(), ALP()),
    "pseudodecimal": encode_blob(_floats(), Pseudodecimal()),
    "mainly_constant": encode_blob(
        np.where(RNG.random(400) < 0.9, 1.5, _floats(400)), MainlyConstant()
    ),
    "fsst": encode_blob(_strings(), FSST()),
    "sparse_bool": encode_blob(_bools(), SparseBool()),
    "roaring": encode_blob(_bools(), Roaring()),
    "list": encode_blob(_lists(), ListEncoding()),
    "sparse_list_delta": encode_blob(_lists(), SparseListDelta()),
}


def _decode_must_fail_cleanly(blob: bytes) -> None:
    """Decode may succeed or raise ValueError; nothing else is legal."""
    try:
        decode_blob(bytes(blob))
    except ValueError:
        pass  # EncodingError subclasses ValueError: the contract
    # any other exception type propagates and fails the test


@pytest.mark.parametrize("name", sorted(BLOBS), ids=str)
def test_truncation_every_prefix(name):
    blob = BLOBS[name]
    # every prefix for short blobs; a stride for long ones, but always
    # include the first/last 64 boundaries where headers live
    if len(blob) <= 256:
        cuts = range(len(blob))
    else:
        cuts = sorted(
            set(range(0, 64))
            | set(range(len(blob) - 64, len(blob)))
            | set(range(64, len(blob) - 64, 37))
        )
    for cut in cuts:
        _decode_must_fail_cleanly(blob[:cut])


@pytest.mark.parametrize("name", sorted(BLOBS), ids=str)
def test_single_bit_flips(name):
    blob = bytearray(BLOBS[name])
    rng = np.random.default_rng(hash(name) & 0xFFFF)
    offsets = rng.integers(0, len(blob), 80)
    bits = rng.integers(0, 8, 80)
    for off, bit in zip(offsets.tolist(), bits.tolist()):
        mutated = bytearray(blob)
        mutated[off] ^= 1 << bit
        _decode_must_fail_cleanly(mutated)


@pytest.mark.parametrize("name", sorted(BLOBS), ids=str)
def test_byte_stomps(name):
    """Overwrite whole byte ranges (simulated torn/overwritten pages)."""
    blob = bytearray(BLOBS[name])
    rng = np.random.default_rng(hash(name) & 0xFFFF ^ 0xABCD)
    for _ in range(30):
        start = int(rng.integers(0, len(blob)))
        span = int(rng.integers(1, min(16, len(blob) - start) + 1))
        mutated = bytearray(blob)
        mutated[start : start + span] = bytes(
            rng.integers(0, 256, span, dtype=np.uint8).tobytes()
        )
        _decode_must_fail_cleanly(mutated)


def test_header_garbage():
    """All-0xFF and all-zero blobs of assorted sizes decode cleanly-fail."""
    for size in (0, 1, 2, 7, 16, 64, 1024):
        _decode_must_fail_cleanly(b"\xff" * size)
        _decode_must_fail_cleanly(b"\x00" * size)


def test_unknown_id_byte():
    with pytest.raises(ValueError):
        decode_blob(b"\xf7" + b"\x00" * 32)


# -- list offsets: Python slices must not hide a corrupt offsets child --------

def _list_blob(tag: int, offsets, n_values: int = 8) -> bytes:
    """A hand-built ``list`` blob: tag, offsets child, values child."""
    from repro.encodings.base import encode_child
    from repro.util.bitio import ByteWriter

    writer = ByteWriter()
    writer.write_u8(tag)
    if tag == 1:  # float: the dtype code byte
        writer.write_u8(0)
    encode_child(writer, np.asarray(offsets, dtype=np.int64), Trivial())
    ints = np.arange(n_values, dtype=np.int64)
    if tag == 0:
        encode_child(writer, ints, Trivial())
    elif tag == 1:
        encode_child(writer, ints.astype(np.float64), Trivial())
    elif tag == 2:
        encode_child(writer, [b"v%d" % i for i in range(n_values)], Trivial())
    else:  # list<list<int>>: the values are themselves a list column
        encode_child(writer, [ints[i : i + 1] for i in range(n_values)], ListEncoding())
    return bytes([ListEncoding.id]) + writer.getvalue()


LIST_TAGS = {"int": 0, "float": 1, "bytes": 2, "nested": 3}


@pytest.mark.parametrize("tag", sorted(LIST_TAGS))
def test_list_offsets_well_formed_control(tag):
    rows = decode_blob(_list_blob(LIST_TAGS[tag], [0, 5, 5, 8]))
    assert [len(r) for r in rows] == [5, 0, 3]
    # surplus values behind the last offset are left alone, as before
    assert [len(r) for r in decode_blob(_list_blob(LIST_TAGS[tag], [0, 2]))] == [2]
    assert len(decode_blob(_list_blob(LIST_TAGS[tag], [0]))) == 0


@pytest.mark.parametrize(
    "offsets",
    [[0, 5, 3, 12], [0, 5, 3, 8], [0, 9], [0, -1, 3], [-2, 3], [1, 3], []],
    ids=["backward-and-overrun", "backward", "overrun", "negative",
         "negative-first", "first-not-zero", "empty"],
)
@pytest.mark.parametrize("tag", sorted(LIST_TAGS))
def test_list_offsets_corrupt_raise(tag, offsets):
    """``[0, 5, 3, 12]`` over 8 values used to decode, silently, to
    ``[[0..4], [], [3..7]]``."""
    with pytest.raises(EncodingError, match="corrupt offsets"):
        decode_blob(_list_blob(LIST_TAGS[tag], offsets))


def test_list_offsets_must_be_an_int_array():
    from repro.encodings.base import encode_child
    from repro.util.bitio import ByteWriter

    for offsets in (np.array([0.0, 2.0]), [b"\x00", b"\x02"]):
        writer = ByteWriter()
        writer.write_u8(0)
        encode_child(writer, offsets, Trivial())
        encode_child(writer, np.arange(8, dtype=np.int64), Trivial())
        with pytest.raises(EncodingError, match="corrupt offsets"):
            decode_blob(bytes([ListEncoding.id]) + writer.getvalue())
