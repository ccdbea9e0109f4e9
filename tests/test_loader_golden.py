"""Golden digests of the training loader over a pinned snapshot.

The table holds five files of several row groups each: two written
before a schema evolution (``ts`` widened from int32, ``extra`` added),
three after it; ``q`` is stored as BF16 and ``h`` as FP8; a deletion
leaves deletion vectors in three files and empties one row group. Each
case digests three epochs of batches (row count, then per column its
container, dtype and bytes), on a memory-speed store and on one whose
data files sit behind an object store that sleeps out each request.
The digests were recorded when the loader still read one file at a
time through per-file readers; the same seed must give the same
batches, bit for bit, whatever read path serves them.

Run this file as a script to print the digests of the code at hand.
"""

import hashlib

import numpy as np
import pytest

from repro.core import LoaderOptions, Table, WriterOptions
from repro.encodings import RaggedColumn
from repro.expr import col
from repro.quantization import FloatFormat, QuantizationPolicy, quantize

OPTIONS = WriterOptions(
    quantization=QuantizationPolicy(
        assignments={"q": FloatFormat.BF16, "h": FloatFormat.FP8_E4M3}
    ),
    rows_per_page=50,
    rows_per_group=100,
)
COLUMNS = ["ts", "user", "v", "q", "h", "tag", "extra"]
EPOCHS = 3

# (name, projection, LoaderOptions keyword arguments)
CASES = [
    ("shuffle_seed_0", COLUMNS,
     {"batch_size": 96, "shuffle_row_groups": True, "seed": 0}),
    ("shuffle_seed_7", ["ts", "q", "tag"],
     {"batch_size": 130, "shuffle_row_groups": True, "seed": 7}),
    ("where", ["ts", "v", "extra"],
     {"batch_size": 64, "where": "user < 4 and ts >= 800"}),
    ("where_shuffled", ["ts", "h"],
     {"batch_size": 50, "where": "ts < 1300", "shuffle_row_groups": True,
      "seed": 3}),
    ("widen_quantized", ["ts", "q", "h"],
     {"batch_size": 200, "widen_quantized": True}),
    ("widen_quantized_shuffled", ["q", "h", "user"],
     {"batch_size": 77, "widen_quantized": True, "shuffle_row_groups": True,
      "seed": 11}),
    ("drop_last", ["ts", "user", "tag"], {"batch_size": 128, "drop_last": True}),
    ("drop_last_shuffled", ["ts", "extra"],
     {"batch_size": 300, "drop_last": True, "shuffle_row_groups": True,
      "seed": 5}),
]


def _part(lo, n, rng):
    i = np.arange(lo, lo + n)
    return {
        "ts": i.astype(np.int64),
        "user": rng.integers(0, 10, n).astype(np.int64),
        "v": rng.normal(size=n).astype(np.float32),
        # exact in bf16 and fp8
        "q": ((i % 8) * 0.25 - 0.5).astype(np.float32),
        "h": ((i % 16) * 0.125).astype(np.float32),
        "tag": [b"t%d" % (k % 7) for k in i.tolist()],
    }


def _build(store):
    from repro.catalog import AddColumn, CatalogTable, WidenColumn

    rng = np.random.default_rng(46)
    cat = CatalogTable.create(store)
    sizes = [350, 420, 300, 480, 400]
    lo = 0
    for k, n in enumerate(sizes):
        if k == 2:
            cat.evolve(WidenColumn("ts", "int64"), AddColumn("extra", "int64"))
        cols = _part(lo, n, rng)
        if k < 2:
            cols["ts"] = cols["ts"].astype(np.int32)
        else:
            # the evolved schema names the stored types: quantized
            # columns are appended as their codes
            cols["q"] = quantize(cols["q"], FloatFormat.BF16)
            cols["h"] = quantize(cols["h"], FloatFormat.FP8_E4M3)
            cols["extra"] = np.arange(n, dtype=np.int64) % (k + 1)
        cat.append(Table(cols), options=OPTIONS)
        lo += n
    # scattered rows in file 0, a whole row group of file 2 (rows
    # 770-869 are its group 0), and a few rows of file 3
    cat.delete(
        col("ts").isin([5, 6, 7, 200, 1100, 1250])
        | col("ts").between(770, 869)
    )
    return cat


def _memory_store():
    from repro.catalog import MemoryCatalogStore

    return MemoryCatalogStore()


def _sleeping_store():
    from repro.catalog import MemoryCatalogStore
    from repro.iosim import ObjectStorage, SeekModel

    class SleepingStore(MemoryCatalogStore):
        def open_data(self, file_id):
            return ObjectStorage(
                super().open_data(file_id),
                SeekModel(seek_latency_s=0.0, request_latency_s=1e-5),
                sleep=True,
            )

    return SleepingStore()


STORES = {"memory": _memory_store, "sleeping": _sleeping_store}


def _hash_values(h, values) -> None:
    if isinstance(values, RaggedColumn):
        flat = values.compact()
        h.update(b"ragged" + flat.values.dtype.str.encode())
        h.update(flat.values.tobytes() + flat.lens.tobytes())
    elif isinstance(values, np.ndarray):
        h.update(b"array" + values.dtype.str.encode())
        h.update(np.ascontiguousarray(values).tobytes())
    elif isinstance(values, (bytes, bytearray)):
        h.update(b"bytes%d:" % len(values) + bytes(values))
    else:
        h.update(b"list%d" % len(values))
        for item in values:
            _hash_values(h, item)


def _epoch_digest(loader) -> str:
    h = hashlib.sha256()
    for batch in loader:
        h.update(b"batch%d" % batch.num_rows)
        for name, values in batch.columns.items():
            h.update(name.encode())
            _hash_values(h, values)
    return h.hexdigest()[:16]


def _run(cat, columns, kwargs):
    """``(num_rows, num_shards, [digest per epoch])`` of one case."""
    with cat.pin() as pin:
        loader = pin.loader(columns, LoaderOptions(**kwargs))
        epochs = [_epoch_digest(loader) for _ in range(EPOCHS)]
        return loader.num_rows, loader.num_shards, epochs


def _observe():
    out = {}
    for store, make in STORES.items():
        cat = _build(make())
        for name, columns, kwargs in CASES:
            out[f"{store}/{name}"] = _run(cat, columns, kwargs)
    return out


#: ``store/case -> (num_rows, num_shards, [digest per epoch])``
LOADER_GOLDEN = {
    'memory/shuffle_seed_0': (1844, 5, ['2365682fed41e424', 'ac3cd8f419b81420', '2396916689aab09e']),
    'memory/shuffle_seed_7': (1844, 5, ['cdadcbb1afc811cc', '8f93a1a2bda136c0', '942525089dc2854a']),
    'memory/where': (1078, 3, ['7694742ede39eff3', '7694742ede39eff3', '7694742ede39eff3']),
    'memory/where_shuffled': (1444, 4, ['865f3f1c9ebc339b', '886e3de5219562ca', 'f02cc0dd342f621f']),
    'memory/widen_quantized': (1844, 5, ['1ee18c4f7f5dfb81', '1ee18c4f7f5dfb81', '1ee18c4f7f5dfb81']),
    'memory/widen_quantized_shuffled': (1844, 5, ['e9792f1d9a827fd4', '624d88eec8b69826', '6ab4fdbc69cea1cd']),
    'memory/drop_last': (1844, 5, ['de65dfc19b432e4c', 'de65dfc19b432e4c', 'de65dfc19b432e4c']),
    'memory/drop_last_shuffled': (1844, 5, ['809468d115d392ad', '94ea5e3eb02ee8c4', 'f0b7a55e2a2dcef4']),
    'sleeping/shuffle_seed_0': (1844, 5, ['2365682fed41e424', 'ac3cd8f419b81420', '2396916689aab09e']),
    'sleeping/shuffle_seed_7': (1844, 5, ['cdadcbb1afc811cc', '8f93a1a2bda136c0', '942525089dc2854a']),
    'sleeping/where': (1078, 3, ['7694742ede39eff3', '7694742ede39eff3', '7694742ede39eff3']),
    'sleeping/where_shuffled': (1444, 4, ['865f3f1c9ebc339b', '886e3de5219562ca', 'f02cc0dd342f621f']),
    'sleeping/widen_quantized': (1844, 5, ['1ee18c4f7f5dfb81', '1ee18c4f7f5dfb81', '1ee18c4f7f5dfb81']),
    'sleeping/widen_quantized_shuffled': (1844, 5, ['e9792f1d9a827fd4', '624d88eec8b69826', '6ab4fdbc69cea1cd']),
    'sleeping/drop_last': (1844, 5, ['de65dfc19b432e4c', 'de65dfc19b432e4c', 'de65dfc19b432e4c']),
    'sleeping/drop_last_shuffled': (1844, 5, ['809468d115d392ad', '94ea5e3eb02ee8c4', 'f0b7a55e2a2dcef4']),
}


@pytest.fixture(scope="module", params=list(STORES))
def table(request):
    return request.param, _build(STORES[request.param]())


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_loader_matches_golden(table, case):
    store, cat = table
    name, columns, kwargs = case
    assert _run(cat, columns, kwargs) == LOADER_GOLDEN[f"{store}/{name}"]


if __name__ == "__main__":
    for key, value in _observe().items():
        print(f"    {key!r}: {value!r},")
