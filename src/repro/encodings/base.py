"""The modular, composable encoding interface (paper §2.6).

The paper's complaint about Parquet/ORC is that they "tightly couple
various encoding methods ... without providing unified interfaces,
making it impossible to utilize these encoding schemes independently".
Bullion's answer — and this module — is a catalog of encodings behind
one interface:

* every encoded blob is **self-describing**: one id byte followed by an
  encoding-specific payload, so any decoder can decode any blob;
* encodings that produce sub-columns (RLE's values/counts, Dictionary's
  dictionary/codes, Nullable's bitmap/values, ...) store each sub-column
  as a **nested blob**, so cascading composition falls out naturally:
  ``RLE(values=Dictionary(codes=FixedBitWidth()), counts=Varint())`` is
  just a tree of constructor arguments;
* :func:`encode_blob` / :func:`decode_blobs` are the only entry points
  the file format needs (:func:`decode_blob` is the batch of one).

Value kinds
-----------
Encodings operate on these value kinds:

============= =======================================================
INT           ``np.ndarray`` of int64
FLOAT         ``np.ndarray`` of float64/float32/float16 (dtype kept)
BYTES         ``list[bytes]``
BOOL          ``np.ndarray`` of bool
LIST_INT      :class:`RaggedColumn` of int64 (``list<int64>`` features)
LIST_FLOAT    :class:`RaggedColumn` of float32/float64
LIST_BYTES    ``list[list[bytes]]``
LIST_LIST_INT ``list[list[np.ndarray(int64)]]``
============= =======================================================

Encoders of LIST_INT / LIST_FLOAT also take a plain ``list`` of 1-D rows
and normalise it once; decoders return the containers above.
"""

from __future__ import annotations

import enum
import struct
import zlib
from abc import ABC, abstractmethod
from itertools import groupby

import numpy as np

from repro.util.bitio import ByteReader, ByteWriter


class Kind(enum.Enum):
    """Logical value kind an encoding accepts."""

    INT = "int"
    FLOAT = "float"
    BYTES = "bytes"
    BOOL = "bool"
    LIST_INT = "list_int"
    LIST_FLOAT = "list_float"
    LIST_BYTES = "list_bytes"
    LIST_LIST_INT = "list_list_int"


class EncodingError(ValueError):
    """Raised when values cannot be encoded/decoded by a scheme."""


_FLOAT_DTYPE_CODES = {
    np.dtype(np.float64): 0,
    np.dtype(np.float32): 1,
    np.dtype(np.float16): 2,
}
_FLOAT_DTYPE_BY_CODE = {v: k for k, v in _FLOAT_DTYPE_CODES.items()}


def float_dtype_code(dtype) -> int:
    """Stable on-disk code for a float dtype (payloads must round-trip it)."""
    try:
        return _FLOAT_DTYPE_CODES[np.dtype(dtype)]
    except KeyError:
        raise EncodingError(f"unsupported float dtype {dtype}") from None


def float_dtype_from_code(code: int):
    try:
        return _FLOAT_DTYPE_BY_CODE[code]
    except KeyError:
        raise EncodingError(f"unknown float dtype code {code}") from None


def index_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + c)`` for every ``(s, c)`` pair, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - (ends - counts), counts) + np.arange(
        total, dtype=np.int64
    )


class RaggedColumn:
    """A depth-1 numeric list column as one buffer: row ``i`` is
    ``values[starts[i] : starts[i] + lens[i]]``.

    Arrow's *ListView* layout: rows may overlap and need not be in
    buffer order, which is what a sliding-window feature decodes to.
    ``len``, ``[i]`` (a read-only view), ``[a:b]`` (zero-copy), truth
    and iteration behave like the ``list`` of row arrays it stands for;
    only iteration loops over rows in Python.
    """

    __slots__ = ("values", "starts", "lens")

    def __init__(self, values, starts, lens) -> None:
        values = np.asarray(values).view()
        values.flags.writeable = False
        starts = np.asarray(starts, dtype=np.int64)
        lens = np.asarray(lens, dtype=np.int64)
        if (
            values.ndim != 1
            or starts.ndim != 1
            or starts.shape != lens.shape
            or (starts < 0).any()
            or (lens < 0).any()
            or (starts > len(values) - lens).any()
        ):
            raise EncodingError("ragged column: rows outside a 1-D buffer")
        self.values, self.starts, self.lens = values, starts, lens

    @classmethod
    def from_offsets(cls, values, offsets) -> "RaggedColumn":
        """Rows back to back: row ``i`` is ``values[offsets[i]:offsets[i+1]]``."""
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) == 0:
            raise EncodingError("ragged column: offsets need one entry at least")
        return cls(values, offsets[:-1], np.diff(offsets))

    @classmethod
    def from_rows(cls, rows) -> "RaggedColumn":
        """From a plain sequence of 1-D rows. Non-empty rows decide the
        dtype: a Python ``[]`` is float64 to numpy, ids are not."""
        arrays = [np.asarray(row) for row in rows]
        if any(a.ndim != 1 for a in arrays):
            raise EncodingError("list columns must contain 1-D sequences")
        lens = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
        values = np.concatenate(
            [a for a in arrays if len(a)]
            or arrays[:1]
            or [np.zeros(0, dtype=np.int64)]
        )
        return cls(values, np.cumsum(lens) - lens, lens)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, key):
        """``[i]`` is row ``i``, a read-only view; a slice, a boolean
        mask or an index array selects rows into a ``RaggedColumn`` over
        the same buffer, which needs no second validation."""
        if isinstance(key, (int, np.integer)):
            start = int(self.starts[key])
            return self.values[start : start + int(self.lens[key])]
        out = object.__new__(RaggedColumn)
        out.values = self.values
        out.starts, out.lens = self.starts[key], self.lens[key]
        return out

    def __iter__(self):
        values = self.values
        for a, b in zip(self.starts.tolist(), (self.starts + self.lens).tolist()):
            yield values[a:b]

    def astype(self, dtype) -> "RaggedColumn":
        if self.values.dtype == dtype:
            return self
        return RaggedColumn(self.values.astype(dtype), self.starts, self.lens)

    def offsets(self) -> np.ndarray:
        """Row bounds in the values of :meth:`compact`: ``n + 1`` sums."""
        return np.concatenate(([0], np.cumsum(self.lens)))

    def compact(self) -> "RaggedColumn":
        """The same rows gathered into buffer order, back to back, so
        that ``values`` holds them and nothing else."""
        offsets = self.offsets()
        if len(self.values) == offsets[-1] and np.array_equal(
            self.starts, offsets[:-1]
        ):
            return self
        return RaggedColumn(
            self.values[index_ranges(self.starts, self.lens)],
            offsets[:-1],
            self.lens,
        )

    def _span(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, starts)`` cut down to the stretch the rows use: a
        short slice must not carry its whole buffer into a join."""
        if len(self.starts) == 0:
            return self.values[:0], self.starts
        lo = int(self.starts.min())
        hi = int((self.starts + self.lens).max())
        return self.values[lo:hi], self.starts - lo

    @classmethod
    def concat(cls, parts) -> "RaggedColumn":
        """Row-wise join: one concatenate and an offset shift per part."""
        spans = [part._span() for part in parts]
        buffers = [values for values, _ in spans]
        shifts = np.cumsum([0] + [len(values) for values in buffers])
        return cls(
            # an empty part has no say in the dtype
            np.concatenate([b for b in buffers if len(b)] or buffers[:1]),
            np.concatenate(
                [starts + shift for (_, starts), shift in zip(spans, shifts)]
            ),
            np.concatenate([part.lens for part in parts]),
        )

    def equals(self, other) -> bool:
        """Same rows, element for element; ``other`` may be a plain list."""
        if not isinstance(other, RaggedColumn):
            try:
                other = RaggedColumn.from_rows(other)
            except ValueError:
                return False
        return np.array_equal(self.lens, other.lens) and np.array_equal(
            self.compact().values, other.compact().values
        )


def infer_kind(values) -> Kind:
    """Classify a Python value container into a :class:`Kind`."""
    if isinstance(values, RaggedColumn):
        if np.issubdtype(values.values.dtype, np.floating):
            return Kind.LIST_FLOAT
        return Kind.LIST_INT
    if isinstance(values, np.ndarray):
        if values.dtype == np.bool_:
            return Kind.BOOL
        if np.issubdtype(values.dtype, np.integer):
            return Kind.INT
        if np.issubdtype(values.dtype, np.floating):
            return Kind.FLOAT
        raise EncodingError(f"unsupported array dtype {values.dtype}")
    if isinstance(values, (list, tuple)):
        if len(values) == 0:
            return Kind.BYTES  # degenerate; all list kinds handle empty
        first = values[0]
        if isinstance(first, (bytes, bytearray)) or first is None:
            return Kind.BYTES
        if isinstance(first, np.ndarray):
            if np.issubdtype(first.dtype, np.integer):
                return Kind.LIST_INT
            if np.issubdtype(first.dtype, np.floating):
                return Kind.LIST_FLOAT
        if isinstance(first, (list, tuple)):
            # peek into the first non-empty inner sequence
            probe = next((row for row in values if len(row)), None)
            inner = probe[0] if probe is not None else 0
            if isinstance(inner, (bytes, bytearray)):
                return Kind.LIST_BYTES
            if isinstance(inner, float):
                return Kind.LIST_FLOAT
            if isinstance(inner, (list, tuple, np.ndarray)):
                return Kind.LIST_LIST_INT
            return Kind.LIST_INT
        raise EncodingError(f"unsupported list element {type(first)!r}")
    raise EncodingError(f"unsupported container {type(values)!r}")


class Encoding(ABC):
    """One scheme from the Table 2 catalog.

    Subclasses define a class-level ``id`` (stable on-disk byte), a
    ``name`` and the set of ``kinds`` they accept. ``encode`` emits the
    payload *without* the id byte; ``decode`` parses it back. Blob-level
    framing lives in :func:`encode_blob`/:func:`decode_blobs`.

    Decoders return the containers of the "Value kinds" table exactly;
    in particular a ``Kind.LIST_INT`` scheme decodes to a
    :class:`RaggedColumn` whose ``values`` are ``int64`` — the reader
    relies on that and casts the one buffer, never a row
    (``tests/test_chunk_decode.py``).
    """

    id: int = -1
    name: str = "?"
    kinds: frozenset = frozenset()

    @abstractmethod
    def encode(self, values) -> bytes:
        """Encode values of a supported kind to the payload bytes."""

    def encode_pages(self, pages) -> list[bytes]:
        """Encode several value containers of one column — the pages of
        one chunk, in order — into one payload each: the write-side
        twin of :meth:`decode_pages`. The default encodes each;
        ``FixedBitWidth`` overrides it to pack all of them at once.
        """
        return [self.encode(page) for page in pages]

    @classmethod
    @abstractmethod
    def decode(cls, reader: ByteReader):
        """Decode a payload (positioned after the id byte) to values."""

    @classmethod
    def decode_pages(cls, readers: "list[ByteReader]"):
        """Decode several payloads of this scheme — the pages of one
        chunk, in order — into one joined column.

        The default decodes each and joins once. A scheme whose fixed
        per-payload cost dominates (``FixedBitWidth``,
        ``SparseListDelta``) overrides this to run its kernel once over
        all of them; its ``decode`` is then the batch of one.
        """
        return join_values([cls.decode(reader) for reader in readers])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


_REGISTRY: dict[int, type[Encoding]] = {}
_BY_NAME: dict[str, type[Encoding]] = {}


def register(cls: type[Encoding]) -> type[Encoding]:
    """Class decorator adding a scheme to the global catalog."""
    if cls.id in _REGISTRY and _REGISTRY[cls.id] is not cls:
        raise RuntimeError(
            f"encoding id {cls.id} already registered to "
            f"{_REGISTRY[cls.id].__name__}"
        )
    _REGISTRY[cls.id] = cls
    _BY_NAME[cls.name] = cls
    return cls


def encoding_by_id(enc_id: int) -> type[Encoding]:
    try:
        return _REGISTRY[enc_id]
    except KeyError:
        raise EncodingError(f"unknown encoding id {enc_id}") from None


def encoding_by_name(name: str) -> type[Encoding]:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise EncodingError(f"unknown encoding {name!r}") from None


def catalog() -> dict[str, type[Encoding]]:
    """Name -> class mapping of every registered scheme (Table 2)."""
    return dict(_BY_NAME)


def encode_blob(values, encoding: Encoding) -> bytes:
    """Encode values into a self-describing blob (id byte + payload)."""
    payload = encoding.encode(values)
    return bytes([encoding.id]) + payload


def join_values(parts: list):
    """Concatenate decoded value containers of one column, in order."""
    if len(parts) == 1:
        return parts[0]  # one part: the decoder's container passes through
    if isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    if all(isinstance(part, RaggedColumn) for part in parts):
        return RaggedColumn.concat(parts)
    out: list = []
    for part in parts:
        out.extend(part)
    return out


def _blob_id(blob) -> int:
    if len(blob) == 0:
        raise EncodingError("empty blob")
    return blob[0]


def decode_blobs(blobs):
    """Decode self-describing blobs (bytes-like, at least one) that hold
    consecutive pieces of one column into one joined value container.

    Every maximal run of blobs with the same encoding id goes to that
    scheme's :meth:`Encoding.decode_pages` in **one** call, so a chunk
    of same-codec pages pays a codec's fixed costs once.

    Decoders promise ``EncodingError`` (a ``ValueError``) on corrupt
    input; the except clause converts the incidental exception types a
    mangled payload can still trigger deep inside a kernel (bad index,
    bogus struct field, absurd allocation size) so callers only ever
    handle one failure type and never see a decoder crash class leak.
    """
    parts = []
    for enc_id, run in groupby(blobs, _blob_id):
        cls = encoding_by_id(enc_id)
        try:
            parts.append(
                cls.decode_pages([ByteReader(blob, offset=1) for blob in run])
            )
        except EncodingError:
            raise
        except (
            IndexError,
            KeyError,
            OverflowError,
            struct.error,
            zlib.error,
            MemoryError,
        ) as exc:
            raise EncodingError(
                f"corrupt {cls.name} blob: {type(exc).__name__}: {exc}"
            ) from exc
    if not parts:
        raise EncodingError("no blob to decode")
    return join_values(parts)


def decode_blob(data: bytes):
    """Decode one blob produced by :func:`encode_blob`: the batch of one."""
    return decode_blobs((data,))


def encode_child(writer: ByteWriter, values, encoding: Encoding) -> None:
    """Write a length-prefixed nested blob (sub-column of a parent)."""
    writer.write_blob(encode_blob(values, encoding))


def decode_child(reader: ByteReader):
    """Read back a nested blob written by :func:`encode_child`."""
    return decode_blob(reader.read_blob())


def as_int64(values) -> np.ndarray:
    """Validate/coerce INT-kind input to an int64 array."""
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.integer):
        raise EncodingError(f"expected integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def as_float(values) -> np.ndarray:
    """Validate FLOAT-kind input, preserving its dtype."""
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.floating):
        raise EncodingError(f"expected floats, got dtype {arr.dtype}")
    if np.dtype(arr.dtype) not in _FLOAT_DTYPE_CODES:
        arr = arr.astype(np.float64)
    return arr


def as_bytes_list(values) -> list[bytes]:
    """Validate BYTES-kind input (list of bytes objects)."""
    out = []
    for item in values:
        if not isinstance(item, (bytes, bytearray)):
            raise EncodingError(f"expected bytes, got {type(item)!r}")
        out.append(bytes(item))
    return out
