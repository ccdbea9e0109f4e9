"""Golden bytes for the write path: whole files, ``SparseListDelta``
row shapes and ``FixedBitWidth`` at every width.

The digests below were recorded from the page-at-a-time writer, before
a chunk's pages were encoded by one codec call. A chunk-level encoder
must reproduce them exactly: footer checksums, Merkle leaves and the
§2.1 in-place scrub all read these bytes. ``SparseListDelta``'s bulk
child is pinned to ``Varint`` throughout, because its default
``Chunked`` child wraps zlib, whose bytes follow the platform
(``tests/test_encodings_golden.py`` keeps the same rule).

Run this file as a script to print the digests of the code at hand.
"""

import hashlib

import numpy as np
import pytest

from repro.core import BullionWriter, Table, WriterOptions
from repro.encodings import (
    FixedBitWidth,
    SparseListDelta,
    Varint,
    encode_blob,
)
from repro.iosim import SimulatedStorage
from repro.quantization import FloatFormat, QuantizationPolicy

INT64_MIN, INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# a whole file with train-shaped options
# ---------------------------------------------------------------------------

#: two full groups of four full pages, then a short group whose last
#: page is short too (452 = 256 + 196)
N_ROWS = 2500
FILE_OPTS = dict(rows_per_page=256, rows_per_group=1024)


def _width_column(g, n: int, width: int, base: int) -> np.ndarray:
    """Values in ``[base, base + 2**width)`` that span all of it in
    every page, so each page packs at exactly ``width`` bits."""
    if width == 64:
        values = g.integers(INT64_MIN, INT64_MAX, n, endpoint=True)
        lo, hi = INT64_MIN, INT64_MAX
    else:
        span = 1 << width
        values = base + g.integers(0, span, n)
        lo, hi = base, base + span - 1
    values[::256] = lo
    values[1::256] = hi
    return values.astype(np.int64)


def _window_rows(g, n: int) -> list:
    """Sliding windows with every step the train tables take, plus
    re-anchors and length changes."""
    rows, row = [], g.integers(0, 1 << 40, 32)
    for i in range(n):
        step = int(g.integers(0, 12))
        if step < 3:
            row = np.concatenate((row[step:], g.integers(0, 1 << 40, step)))
        elif step < 5:
            row = np.concatenate((g.integers(0, 1 << 40, step), row))[:40]
        elif step == 5:
            row = g.integers(0, 1 << 40, int(g.integers(0, 40)))
        elif step == 6:
            row = row[: len(row) // 2]
        else:
            row = row.copy()
        rows.append(row.astype(np.int64))
    return rows


def train_shaped_file() -> bytes:
    g = _rng(301)
    n = N_ROWS
    page = np.arange(n) // FILE_OPTS["rows_per_page"]
    columns = {
        "ts": np.arange(10**9, 10**9 + n, dtype=np.int64),
        "label": g.integers(0, 2, n, dtype=np.int64),
        "w0": np.full(n, -7, dtype=np.int64),
        # a width that changes page by page, as quantized payloads do
        "wmix": (g.integers(0, 1 << 62, n) >> (page * 7 % 62)).astype(np.int64),
        "f_bf16": g.standard_normal(n, dtype=np.float32),
        "f_fp8": g.standard_normal(n, dtype=np.float32),
        "flag": g.random(n) < 0.1,
        "tag": [b"t%d" % (k % 13) for k in range(n)],
        "seq0": _window_rows(g, n),
        "seq1": _window_rows(g, n),
    }
    for width in (8, 16, 32, 64, *range(58, 64)):
        columns[f"w{width}"] = _width_column(g, n, width, -(1 << max(0, width - 2)))
    options = WriterOptions(
        **FILE_OPTS,
        encodings={
            name: SparseListDelta(bulk_child=Varint())
            for name in ("seq0", "seq1")
        },
        quantization=QuantizationPolicy(
            assignments={"f_fp8": FloatFormat.FP8_E4M3},
            default=FloatFormat.BF16,
        ),
    )
    dev = SimulatedStorage("golden-train")
    BullionWriter(dev, options=options).write(Table(columns))
    return dev.raw_bytes()


# ---------------------------------------------------------------------------
# SparseListDelta row shapes
# ---------------------------------------------------------------------------

def _fresh(g, n: int) -> np.ndarray:
    return g.integers(0, 10**6, n).astype(np.int64)


def _head_inserts(h: int) -> list:
    """``cur = h new ++ prev[:32 - h]``: the head fast path covers
    ``h <= 8``; at 9 only the general search finds the overlap."""
    g = _rng(400 + h)
    rows = [_fresh(g, 32)]
    for _ in range(40):
        rows.append(np.concatenate((_fresh(g, h), rows[-1]))[:32])
    return rows


def _tail_drops(d: int) -> list:
    """``cur = prev[d:] ++ d new``: the drop fast path covers ``d <= 8``."""
    g = _rng(420 + d)
    rows = [_fresh(g, 32)]
    for _ in range(40):
        rows.append(np.concatenate((rows[-1][d:], _fresh(g, d))))
    return rows


def _short_rows() -> list:
    """Empty and length-1 rows beside longer ones: no fast path has a
    candidate, and the overlap kept is empty or one id."""
    g = _rng(440)
    rows = []
    for k in range(60):
        kind = k % 6
        if kind == 0:
            rows.append(np.zeros(0, dtype=np.int64))
        elif kind in (1, 2):
            rows.append(rows[-1][:1] if kind == 2 else _fresh(g, 1))
        elif kind == 3:
            rows.append(np.concatenate((rows[-1], _fresh(g, 3))))
        else:
            rows.append(rows[-1][-2:].copy())
    return rows


def _reanchors() -> list:
    """Fresh rows, and rows that reuse less than a quarter of
    themselves, both of which start a new base."""
    g = _rng(441)
    rows = [_fresh(g, 24)]
    for k in range(40):
        if k % 3 == 0:
            rows.append(_fresh(g, 24))
        else:
            rows.append(np.concatenate((_fresh(g, 8), rows[-1][:2])))
    return rows


def _identical() -> list:
    g = _rng(442)
    row = _fresh(g, 48)
    return [row.copy() for _ in range(30)] + [row[:47].copy()]


def _general_only() -> list:
    """``cur = new ++ prev[a:b] ++ new`` with a head longer than 8 and
    a cut from prev's head: only the general search finds the span."""
    g = _rng(443)
    rows = [_fresh(g, 40)]
    for k in range(30):
        prev = rows[-1]
        a = 9 + k % 5
        rows.append(
            np.concatenate((_fresh(g, 10), prev[a : a + 20], _fresh(g, 3)))
        )
    return rows


def _small_alphabet() -> list:
    """Ids from {0, 1, 2}: many candidates share a first id, so the
    first that matches whole must win, in ``find_overlap``'s order."""
    g = _rng(444)
    return [
        g.integers(0, 3, int(g.integers(0, 12))).astype(np.int64)
        for _ in range(200)
    ]


def _mixed(seed: int) -> list:
    """Every shape above drawn at random, row by row."""
    g = _rng(seed)
    rows = [_fresh(g, int(g.integers(0, 20)))]
    for _ in range(300):
        prev, op = rows[-1], int(g.integers(0, 9))
        h, d = int(g.integers(1, 11)), int(g.integers(1, 11))
        if op == 0:
            cur = prev.copy()
        elif op == 1:
            cur = np.concatenate((_fresh(g, h), prev))[: max(len(prev), 1)]
        elif op == 2:
            cur = np.concatenate((prev[d:], _fresh(g, d)))
        elif op == 3:
            cur = np.concatenate((_fresh(g, h), prev[d:], _fresh(g, 2)))
        elif op == 4:
            cur = _fresh(g, int(g.integers(0, 30)))
        elif op == 5:
            cur = prev[: int(g.integers(0, len(prev) + 1))].copy()
        elif op == 6:
            cur = np.concatenate((prev, _fresh(g, h)))
        elif op == 7:
            cur = g.integers(0, 3, int(g.integers(0, 6))).astype(np.int64)
        else:
            cur = np.concatenate((prev[d:], prev[:d]))
        rows.append(cur.astype(np.int64))
    return rows


SLD_CASES = {
    "head8": lambda: _head_inserts(8),
    "head9": lambda: _head_inserts(9),
    "drop8": lambda: _tail_drops(8),
    "drop9": lambda: _tail_drops(9),
    "short_rows": _short_rows,
    "reanchors": _reanchors,
    "identical": _identical,
    "general_only": _general_only,
    "small_alphabet": _small_alphabet,
    "mixed_a": lambda: _mixed(450),
    "mixed_b": lambda: _mixed(451),
}


def sld_blob(case: str) -> bytes:
    return encode_blob(SLD_CASES[case](), SparseListDelta(bulk_child=Varint()))


# ---------------------------------------------------------------------------
# FixedBitWidth at every width
# ---------------------------------------------------------------------------

def fbw_values(width: int) -> np.ndarray:
    """1,003 values (not a whole number of 8-value periods) that pack
    at exactly ``width`` bits from a negative base."""
    return _width_column(_rng(500 + width), 1003, width, -(1 << max(0, width - 1)))


def fbw_blob(width: int) -> bytes:
    return encode_blob(fbw_values(width), FixedBitWidth())


# ---------------------------------------------------------------------------
# the digests (recorded from the page-at-a-time writer)
# ---------------------------------------------------------------------------

FILE_GOLDEN = "a98fb2e79086f45fcd7774db5fff785b3a4f714038b7919d2729c06cd4268d0d"

SLD_GOLDEN = {
    "drop8": "e69be06466b7fece880f0285cb1b604baa9c75cccb1022e312ac5e619b51a15e",
    "drop9": "c956bcd3b34a84501fce1b254f73ac17275ada08b42258338fd56fd22f913ba9",
    "general_only": "ff37f0abb413e45bcb28f535de02d08e1a1d429c709c56e7b11b78845f2d4f98",
    "head8": "3e01b033218e8eeb033f9618fe0f9b5fd8fc2b34e3435847fa9f1b35d1bc1fa7",
    "head9": "2860d5fada502d465838bdf2df53873c66d9673a7f7508aeb64a1150ee7a3f8f",
    "identical": "1f67255900c2ffc7a8426f296e748789c202ce1fbdb4cbb3305aabaa0738420b",
    "mixed_a": "45b5762ec6b7764d22a75caab913d9798278e4db413cffa5a6cd6d3218c5ec11",
    "mixed_b": "7fa1a9d0fb693d3d33b47ea32e75d3bd07a9be9ef2336b630766f9b85a27d80e",
    "reanchors": "a6b803686332444e61bdd32bc5fa187ac622d3639ec8a7f4b447c4c215ee59b9",
    "short_rows": "53fa09c010cd678c89651524c246527c5aef9a59bbc5bc1d038536305863811a",
    "small_alphabet": "508a7e831a8fb14d3876dd8c5c6bc8cfab5f4bdbc885870773ecfce999d19ba7",
}

FBW_GOLDEN = {
    0: "6bc6c407511287e3c305575c5bc0c819b09a9c3538f8bac0db625b5397c970cc",
    1: "88b3bfa634b8a73509b4130f36a32fcb4c22b9dd54a5017094abf92ad8fddca3",
    2: "b3276ee38dc3a1fb79f8940dda41e14f4003e5565fb07f0e7b5e0075ba526ba9",
    3: "53f3a21911e38b78a35e9b9925218e0d35b675f63d73c0eea0dd82f73b57942d",
    4: "c5945e23cb40a74e699774ff534da5ccf1cbdc26eecef724acab071f0421b9f6",
    5: "49ff1b3c1eb60660cf66bd9ac51b7fae3bb2b2c222ba3838afda558b3982af62",
    6: "92f60fe136349551de10744546104e514eeb7150868227e703d586bbeca83fe2",
    7: "18e603f59dabba60d1822a470d0e8ed62074f94d8b2b249f470e2b1959884d84",
    8: "2918229bd163213d53d0512522b19670268ba88331ad2f35a54b7d56d643f2d6",
    9: "6c4525c4054d5bd95a203741bbfdcb815f9d4e4bdd5c3e93987d686483ab7d4a",
    10: "d4c7d7ee4ce851447b554d0a60496a1fe2c80772644eef86ce110c3e175970a9",
    11: "b4ae166da05aad8b8b88de96ebf7ca918b4563e2309e348428adf032817da472",
    12: "4ce6ff5120b2d70d7b196411d31bd03d9ef14f690efaecafb28dcbb8cc012cec",
    13: "a6111f2b2d4cd4ca525e55ad9112b4957e9689dd272b958399d94c17d8e5a759",
    14: "488006fbcda426716e85e8d292f45c4e1747bdb944d5c947224797b93093608f",
    15: "c2ce0bcb5b4e981e04b3638937d411e9c7c391a838b3f05cbc5c0256915aa8dc",
    16: "07ccd42b1099f9cd51f8195e7bc6e8f3c1e9a436ff8475d54538957d83e5befb",
    17: "bff6087da645da39accd12d230fc8559edaf2454601d53f5ec197e95cd3e6d5f",
    18: "0ede157e2cdf3e2a41bd261c526d1328d8bab9a16bce2918e56cc7a5becb4737",
    19: "07029217f46b5330dbe10efd2be5c52d0447b2d45ef932c89488e932b53b3074",
    20: "57a1eab5e561d70ded43adea4d3ad3eddeb625c3e3f59837106bd0101012fcbe",
    21: "83f82c14b08d7473776fab9e00e242e5f80bddd1144f458a5f310c44cfd8e78c",
    22: "6fbfce52e23ec8986c01a3f0a857c5f489dfb21ff1381ae589cbdab205b13dcd",
    23: "adc747ac85d07a14967cb7f9daf9f6b580e4eab6aa7d88c40563ac317fb547c1",
    24: "b696170dc21eda31d1f740b79d2aa41878f78335003a3baf433af64b579c0056",
    25: "39812655027968c264902ca85b3ccb11c4d675fa726d0a6183b6b3675e9cb0d9",
    26: "4e57d2b291fc108d15cb1854227c986670ec449456ca8f93b4068ce71643c13f",
    27: "114ef6af5b94437e5cdb56089a949e25506eebfe75d21ddf1801531d2905a7ef",
    28: "eb6840be3f0824e1b43c9ee5e497999a62c532cb209647b224df9279d2c2a48d",
    29: "3b392763ae5c769093f34500988e9bf5101eba94fe5d280f441e0f907ddeba4a",
    30: "9c02da66bf33cadbced0791134921e9272d417f34b9243526ac25771ece37b27",
    31: "1198c045168c220b3721ca2f8ef733d435030875b9fbbf71e190d06d94c33e84",
    32: "aab05acc8deff3e60b3e0c93587e4275fdf6b02374ddd2765a69e3258c8564d8",
    33: "8c5ea32987ce8222909c1f123a6cee357b2a38beee6d7cd2a0ca3b78a8482a24",
    34: "e76175288e14d952343ccb18aa0044bc8ff2178ca285022ce28c611d85c1b217",
    35: "7559d3f4cb06099cdd537be8a90a953d21c39bd8b96a6f7d16cea6ac113801f4",
    36: "0c5e5606b43d99b2b4005b1d597b7f993d449d5a34fc69185639f1e2224617a5",
    37: "5d9a798e460092c5cf50c8811f9c7706d25ac1d4d8ad9892ee9f178793f7abdb",
    38: "07a0c82d90b734f47ba2972a0579b5b20c16add9b9dad404210ca98d450e6014",
    39: "a7c36bbdb07b2a6aed212bc5f10d5f5db7b2a0c906e8b9d2932e4fd95ad6fee0",
    40: "c2d3fc010e9b0d3dc920de173ca3137f4d4b97fe4a09f0e38af9ea53617ef6eb",
    41: "cbb148e4eab3ced8743b212a386649cb1b78e571bd3be54fa9d47551c54dda2c",
    42: "b2ada28111c831d03acd92fc661c7447c05f6d79a4e1f8ddd4ceef347367fcac",
    43: "a7b5236220e6b4e67697423ce7aa5e3c349c99c8f83fee1bf13635ef8a641cc3",
    44: "9cd37fe161b68b8833a7177df41a5a316f18575e7a1c36b03d51c007f6c9d5a4",
    45: "45e33347f94ba9b3de8f37e13f30af06c69a4edf8a865f54820788d95117d803",
    46: "7a136df895a2d7a17ac4a217a1343fb03a786b09a0384406130b01d9558b46a8",
    47: "e17580a65a43432413b96194a4377156afa566438668f1b4d9ae2bf47ab4dfed",
    48: "72531d3a69673217d431907b3666e5916fa0fb5bdea40aa1f33a7a4b419a381c",
    49: "a103d89445a6f10ec1165b4a281e97180b6386a65bc508025c0c9eb577266304",
    50: "4a3f062e6d3b38d91ec19377fbb6b132e5fe75a51bb35568ce7c5c73637c7a47",
    51: "cdb626687ab80af125288fa54409d8bdd57a36371bd8eb7589f1601219b4de4d",
    52: "ecc3fd0ebab0b45b09729889787eea3db119b09811294c7468328eeaa1eced1f",
    53: "3b13370a71a4f55ae75b49bb0b0d995b102eab918918114780c9f98057fb11cd",
    54: "f787ee7b3f39e14325f8ad962da8428bcbfd7711f044e7c22081b47cdca23834",
    55: "827fffc41b04b8f151e8c221a992502656c118646efe1191090d32646a7ab58a",
    56: "1e5e59c83f7c2627362febe80fad2ae0db7a180cd2f2a598093a4595c896a40d",
    57: "969da5c8eeeebbe3231a1582e2227e1abdc7fe643d3c24247399d68d55d2948b",
    58: "865b55160245cdc872e5c570b7030bcd0436b8f8d24cb9d4b715f2aef33681d4",
    59: "03fa4a5b9def8b443dd28d26098b4086450c0dd4d7423478ece384235b47b22a",
    60: "1fea23dc448dc266dabb6b0b0120375844ca2bfb748905ea4eccc9b64f38cf71",
    61: "39e3b9e02d0b8eb4c3c8352b7dea0de1223a859a667d6f3bab4de717b879a403",
    62: "0793817cca528c630b74b2ee575fa31c787700de5bc8eda670a3a1877ef1adf8",
    63: "b23959cf970cd4f2a46f832c68b89681e8d6bb79c4352cbdcbad462374eaac8b",
    64: "5ffcb70f1468e37306f1e9bff981be8369566f64984e0e62f9e05369e536357e",
}


def test_train_shaped_file_bytes():
    assert _sha(train_shaped_file()) == FILE_GOLDEN


@pytest.mark.parametrize("case", sorted(SLD_CASES))
def test_sparse_list_delta_bytes(case):
    assert _sha(sld_blob(case)) == SLD_GOLDEN[case]


@pytest.mark.parametrize("width", range(65))
def test_fixed_bit_width_bytes(width):
    assert _sha(fbw_blob(width)) == FBW_GOLDEN[width]


def main() -> None:  # pragma: no cover - regeneration helper
    print(f'FILE_GOLDEN = "{_sha(train_shaped_file())}"')
    print("SLD_GOLDEN = {")
    for case in sorted(SLD_CASES):
        print(f'    "{case}": "{_sha(sld_blob(case))}",')
    print("}")
    print("FBW_GOLDEN = {")
    for width in range(65):
        print(f'    {width}: "{_sha(fbw_blob(width))}",')
    print("}")


if __name__ == "__main__":  # pragma: no cover
    main()
