"""The writer rejects integers its column's storage type cannot hold.

Storing casts every int column to its storage dtype (int64 for a
``uint64`` array, int32 for a schema ``int32`` column). Before this
check the cast wrapped out-of-range values silently — ``2**64 - 1`` read
back as -1 and ``2**40`` as 0 — while the footer's zone map kept the
true value, so ``max(a)`` answered differently from metadata and from
decode. Each case below is either rejected at the writer with a
``ValueError`` naming the column, or written so that both answers agree
with the values given.
"""

import numpy as np
import pytest

from repro.core import BullionReader, Table, write_table
from repro.core.schema import Field, LogicalType, Primitive, Schema
from repro.iosim import SimulatedStorage

INT32 = Schema([Field("a", LogicalType.of(Primitive.INT32))])

#: (case id, values of column ``a``, schema, holds in storage)
CASES = [
    ("uint64_max", np.array([3, 2**64 - 1], dtype=np.uint64), None, False),
    ("uint64_2_63", np.array([3, 2**63], dtype=np.uint64), None, False),
    ("uint64_fits", np.array([3, 2**63 - 1], dtype=np.uint64), None, True),
    ("int32_2_40", np.array([3, 2**40], dtype=np.int64), INT32, False),
    ("int32_below", np.array([3, -(2**31) - 1], dtype=np.int64), INT32, False),
    ("int32_edges", np.array([-(2**31), 2**31 - 1], dtype=np.int64), INT32, True),
]


def _write(values, schema):
    dev = SimulatedStorage("int-range")
    write_table(dev, Table({"a": values}), schema, rows_per_page=1)
    return dev


@pytest.mark.parametrize(
    "values,schema,fits", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_writer_rejects_what_storage_cannot_hold(values, schema, fits):
    if not fits:
        with pytest.raises(ValueError, match="column 'a'.*range"):
            _write(values, schema)
        return
    got = BullionReader(_write(values, schema)).read_column("a")
    assert [int(v) for v in got] == [int(v) for v in values]


@pytest.mark.parametrize(
    "values,schema,fits", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_metadata_answer_equals_decoded_answer(values, schema, fits):
    try:
        dev = _write(values, schema)
    except ValueError:
        assert not fits
        return
    reader = BullionReader(dev)
    specs = ["min(a)", "max(a)"]
    meta = reader.aggregate(specs)
    decoded = reader.aggregate(specs, use_metadata=False)
    for spec in specs:
        assert meta.scalar(spec) == decoded.scalar(spec), spec
    assert meta.scalar("max(a)") == int(values.max())
    assert decoded.scalar("min(a)") == int(values.min())
    # and a filter on the true values finds their rows
    assert reader.scan(["a"], where=f"a == {int(values[1])}").to_table().num_rows == 1


@pytest.mark.parametrize(
    "rows",
    [
        [np.array([1, 2**64 - 1], dtype=np.uint64), np.array([5], dtype=np.uint64)],
        # numpy reads this row as float64, which the cast would wrap too
        [np.array([1, 2], dtype=np.int64), [3, 2**64 - 1]],
    ],
    ids=["uint64_rows", "python_list_row"],
)
def test_list_column_rejects_what_storage_cannot_hold(rows):
    with pytest.raises(ValueError, match="column 'seq'.*range"):
        write_table(SimulatedStorage("int-range-list"), Table({"seq": rows}))


def test_list_column_of_uint64_that_fits_round_trips():
    rows = [np.array([1, 2**63 - 1], dtype=np.uint64), np.array([], dtype=np.uint64)]
    dev = SimulatedStorage("int-range-list-ok")
    write_table(dev, Table({"seq": rows}))
    got = BullionReader(dev).read_column("seq")
    assert got.equals([np.array([1, 2**63 - 1]), np.array([], dtype=np.int64)])
