"""Bullion's cascading encoding catalog (paper §2.6, Table 2).

Every scheme from the paper's Table 2 catalog behind one modular,
composable interface. Blobs are self-describing (id byte + payload) and
sub-columns are nested blobs, so any encoding can be stacked on any
other — the property Parquet/ORC lack and the paper calls out.

>>> import numpy as np
>>> from repro.encodings import RLE, Dictionary, encode_blob, decode_blob
>>> data = np.array([7, 7, 7, 9, 9, 7, 7], dtype=np.int64)
>>> blob = encode_blob(data, RLE(values_child=Dictionary()))
>>> list(decode_blob(blob)) == list(data)
True
"""

from repro.encodings.base import (
    Encoding,
    EncodingError,
    Kind,
    RaggedColumn,
    catalog,
    decode_blob,
    decode_blobs,
    encode_blob,
    encoding_by_id,
    encoding_by_name,
    infer_kind,
    register,
)
from repro.encodings.trivial import Trivial
from repro.encodings.bitpack import FixedBitWidth
from repro.encodings.varint_enc import Varint, ZigZag
from repro.encodings.rle import RLE, compute_runs
from repro.encodings.dictionary import Dictionary, MASK_CODE
from repro.encodings.delta import Delta, FrameOfReference
from repro.encodings.huffman import Huffman
from repro.encodings.nullable import Nullable, Sentinel, SparseBool
from repro.encodings.constant import Constant, MainlyConstant
from repro.encodings.chunked import Chunked
from repro.encodings.bitshuffle import BitShuffle
from repro.encodings.fsst import FSST
from repro.encodings.floats import Chimp, Gorilla
from repro.encodings.alp import ALP, Pseudodecimal
from repro.encodings.roaring import Roaring
from repro.encodings.fastpfor import FastBP128, FastPFOR
from repro.encodings.lists import ListEncoding
from repro.encodings.sparse_delta import SparseListDelta, find_overlap

__all__ = [
    "Encoding",
    "EncodingError",
    "Kind",
    "RaggedColumn",
    "catalog",
    "encode_blob",
    "decode_blob",
    "decode_blobs",
    "encoding_by_id",
    "encoding_by_name",
    "infer_kind",
    "register",
    "Trivial",
    "FixedBitWidth",
    "Varint",
    "ZigZag",
    "RLE",
    "compute_runs",
    "Dictionary",
    "MASK_CODE",
    "Delta",
    "FrameOfReference",
    "Huffman",
    "Nullable",
    "Sentinel",
    "SparseBool",
    "Constant",
    "MainlyConstant",
    "Chunked",
    "BitShuffle",
    "FSST",
    "Gorilla",
    "Chimp",
    "Pseudodecimal",
    "ALP",
    "Roaring",
    "FastPFOR",
    "FastBP128",
    "ListEncoding",
    "SparseListDelta",
    "find_overlap",
]
