"""Cascade selection happens once per column per file (§2.6).

Under ``encoding_policy="cascade"`` the writer selects on a sample of the
first row group, reuses the winner for every page, and selects again in
two cases only: (a) the reused scheme cannot encode a page, (b) a later
row group's sample statistics cross a threshold the selector's
heuristics branch on. Everything here counts selector calls; nothing
reads a clock.
"""

import numpy as np
import pytest

import repro.core.writer as writer_mod
from repro.cascading import (
    SelectionResult,
    candidate_fingerprint,
    choose_encoding,
    collect_stats,
)
from repro.core import (
    BullionReader,
    BullionWriter,
    Table,
    WriterOptions,
    merge,
)
from repro.core.page import PAGE_HEADER_SIZE
from repro.core.schema import Field, LogicalType, Schema
from repro.encodings import (
    Constant,
    EncodingError,
    FastBP128,
    FastPFOR,
    Varint,
    encode_blob,
)
from repro.iosim import SimulatedStorage
from repro.quantization import FloatFormat, QuantizationPolicy, quantize
from repro.tools.inspect import inspect_file


@pytest.fixture
def selections(monkeypatch):
    """Every selector call the writer makes, as the values it passed."""
    calls: list = []

    def counting(values, *args, **kwargs):
        calls.append(values)
        return choose_encoding(values, *args, **kwargs)

    monkeypatch.setattr(writer_mod, "choose_encoding", counting)
    return calls


def cascade(rows_per_page=1024, rows_per_group=8192, **kw) -> WriterOptions:
    return WriterOptions(
        rows_per_page=rows_per_page,
        rows_per_group=rows_per_group,
        encoding_policy="cascade",
        **kw,
    )


def narrow(rng, rows: int, ts0: int = 0) -> dict:
    """The benchmark's six-column event table: stationary by design."""
    return {
        "ts": np.arange(ts0, ts0 + rows, dtype=np.int64),
        "user": rng.integers(0, 5000, rows, dtype=np.int64),
        "v": rng.standard_normal(rows),
        "score": rng.random(rows, dtype=np.float32),
        "region": rng.integers(0, 8, rows).astype(np.int32),
        "clicks": rng.integers(0, 100, rows, dtype=np.int64),
    }


def write(table: Table, options: WriterOptions, schema=None) -> SimulatedStorage:
    dev = SimulatedStorage()
    BullionWriter(dev, schema=schema, options=options).write(table)
    return dev


def assert_roundtrip(dev, table: Table) -> None:
    reader = BullionReader(dev)
    assert reader.verify()
    out = reader.project(list(table.columns))
    for name, want in table.columns.items():
        got = out.columns[name]
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), name
        elif len(want) and isinstance(want[0], (bytes, bytearray)):
            assert list(got) == list(want), name
        else:
            assert len(got) == len(want), name
            for a, b in zip(got, want):
                assert np.array_equal(np.asarray(a), np.asarray(b)), name


def test_stationary_file_selects_once_per_column(selections):
    table = Table(narrow(np.random.default_rng(1), 3 * 8192))
    dev = write(table, cascade())
    assert len(selections) == 6
    # one decision per column: never more than a sample's worth of values
    assert all(len(values) <= 4096 for values in selections)
    report = inspect_file(dev)
    assert report.num_row_groups == 3
    for col in report.columns:
        assert len(col.encodings) == 1, (col.name, col.encodings)
        assert sum(col.encodings.values()) == col.n_pages == 24
    assert_roundtrip(dev, table)


def test_unencodable_page_reselects_on_that_page(selections):
    """2(a): constant wherever group 0 is sampled, random in between."""
    rng = np.random.default_rng(2)
    x = rng.integers(0, 1000, 8192).astype(np.int64)
    run = 4096 // 8
    for i in range(8):  # the sampler's eight runs of a one-group column
        start = (8192 - run) * i // 7
        x[start : start + run] = 7
    table = Table({"x": x})
    dev = write(table, cascade())
    assert len(selections) == 2
    assert np.all(selections[0] == 7)  # the sample saw a constant column
    assert np.array_equal(selections[1], x[:1024])  # re-decided on page 0
    assert Constant.name not in inspect_file(dev).columns[0].encodings
    assert_roundtrip(dev, table)


@pytest.mark.parametrize("scheme", [Varint, FastBP128, FastPFOR])
def test_negative_values_mid_chunk_under_varint_family(
    monkeypatch, selections, scheme
):
    """2(a) for the schemes that reject negatives. Which of them wins a
    real selection depends on the clock, so the first decision is fixed."""
    real = writer_mod.choose_encoding

    def first_decision_fixed(values, *args, **kwargs):
        if selections:
            return real(values, *args, **kwargs)
        selections.append(values)
        stats = collect_stats(values)
        return SelectionResult(scheme(), scheme.name, [], stats)

    monkeypatch.setattr(writer_mod, "choose_encoding", first_decision_fixed)
    rng = np.random.default_rng(3)
    x = rng.integers(0, 1 << 20, 8192).astype(np.int64)
    x[5000] = -12345  # page 4 of 8; no sampled run covers it
    table = Table({"x": x})
    dev = write(table, cascade())
    assert len(selections) == 2
    assert np.array_equal(selections[1], x[4096:5120])
    encodings = inspect_file(dev).columns[0].encodings
    assert encodings[scheme.name] == 4 and sum(encodings.values()) == 8
    assert_roundtrip(dev, table)


def test_only_encoding_errors_trigger_reselection(monkeypatch):
    """Anything but ``EncodingError`` from an encoder is a bug, not a
    page to re-decide: it propagates."""

    class Broken(Varint):
        def encode(self, values):
            raise RuntimeError("encoder bug")

    monkeypatch.setattr(
        writer_mod,
        "choose_encoding",
        lambda values: SelectionResult(
            Broken(), "broken", [], collect_stats(values)
        ),
    )
    with pytest.raises(RuntimeError, match="encoder bug"):
        write(Table({"x": np.arange(10, dtype=np.int64)}), cascade())


def test_explicit_override_errors_are_not_swallowed(selections):
    """An ``encodings=`` override is not a cascade decision: a page it
    cannot encode raises, exactly as before."""
    options = cascade(encodings={"x": Varint()})
    with pytest.raises(EncodingError):
        write(Table({"x": np.array([1, -1], dtype=np.int64)}), options)
    assert selections == []


def test_drift_reselects_at_the_group_boundary_and_not_before(
    monkeypatch, selections
):
    """2(b): sorted in group 0, shuffled in groups 1 and 2."""
    rng = np.random.default_rng(4)
    x = np.concatenate(
        [
            np.sort(rng.integers(0, 1 << 40, 8192)),
            rng.integers(0, 1 << 40, 2 * 8192),
        ]
    ).astype(np.int64)
    dev = SimulatedStorage()
    writer = BullionWriter(dev, options=cascade())
    groups_flushed_at_call = []
    counting = writer_mod.choose_encoding

    def at_group(values, *args, **kwargs):
        groups_flushed_at_call.append(writer.stats.groups_flushed)
        return counting(values, *args, **kwargs)

    monkeypatch.setattr(writer_mod, "choose_encoding", at_group)
    table = Table({"x": x})
    writer.write(table)
    # once for the file, once when sortedness went away; group 2 has
    # group 1's statistics and keeps its decision
    assert groups_flushed_at_call == [0, 1]
    before = candidate_fingerprint(collect_stats(selections[0]))
    after = candidate_fingerprint(collect_stats(selections[1]))
    assert "delta(zigzag(varint))" in before
    assert "delta(zigzag(varint))" not in after
    assert_roundtrip(dev, table)


def test_fingerprint_moves_with_every_heuristic_threshold():
    """The guard compares what the ``_*_candidates`` ``if``s produce, so
    each predicate they branch on must show in the fingerprint."""
    rng = np.random.default_rng(5)

    def fp(values):
        return candidate_fingerprint(collect_stats(values))

    base = rng.integers(0, 1 << 30, 4096).astype(np.int64)
    assert fp(base) == fp(rng.integers(0, 1 << 30, 4096).astype(np.int64))
    moved = {
        "n_unique <= 1": np.full(4096, 3, dtype=np.int64),
        "non_negative": base - (1 << 29),
        "sorted_fraction": np.sort(base),
        "avg_run_length": np.repeat(base[:1024], 4),
        "small domain": base % 300,
        "n_unique <= 256": base % 200,
        "mode_fraction": np.where(rng.random(4096) < 0.9, 5, base),
    }
    prints = {name: fp(values) for name, values in moved.items()}
    assert all(p != fp(base) for p in prints.values()), prints
    assert prints["small domain"] != prints["n_unique <= 256"]
    floats = rng.normal(size=4096)
    assert fp(floats) != fp(np.round(floats, 2))  # decimal_fraction
    stream = rng.integers(0, 1 << 40, 5000)
    windows = [stream[i : i + 32] for i in range(200)]
    disjoint = [rng.integers(0, 1 << 40, 32) for _ in range(200)]
    assert fp(windows) != fp(disjoint)  # window_overlap


def test_fingerprint_encodes_nothing(monkeypatch):
    """The list branch's inner selection must not run for the guard."""
    import repro.cascading.selector as selector

    def forbidden(*args, **kwargs):
        raise AssertionError("the guard ran a selection")

    rows = [np.arange(i, i + 8, dtype=np.int64) for i in range(100)]
    stats = collect_stats(rows)
    monkeypatch.setattr(selector, "choose_encoding", forbidden)
    monkeypatch.setattr(selector, "score_candidate", forbidden)
    assert "sparse_list_delta(chunked)" in candidate_fingerprint(stats)


def test_batching_and_merge_make_the_same_selections(selections):
    rng = np.random.default_rng(6)
    rows = 2 * 8192 + 1000
    columns = narrow(rng, rows)

    def count(fn) -> int:
        before = len(selections)
        fn()
        return len(selections) - before

    one_batch = SimulatedStorage()
    n_one = count(lambda: BullionWriter(one_batch, options=cascade()).write(
        Table(columns)
    ))

    ragged = SimulatedStorage()
    cuts = [0, 1, 700, 5000, 8192, 8193, 16000, rows]

    def write_ragged():
        w = BullionWriter(ragged, options=cascade())
        w.open()
        for lo, hi in zip(cuts, cuts[1:]):
            w.write_batch(Table({k: v[lo:hi] for k, v in columns.items()}))
        w.finish()

    n_ragged = count(write_ragged)

    halves = []
    for lo, hi in ((0, 9000), (9000, rows)):
        part = SimulatedStorage()
        BullionWriter(part).write(
            Table({k: v[lo:hi] for k, v in columns.items()})
        )
        halves.append(part)
    merged = SimulatedStorage()
    n_merged = count(lambda: merge(halves, merged, cascade()))

    assert n_one == n_ragged == n_merged
    assert 6 <= n_one <= 12  # per column, plus at most the short tail group
    for dev in (one_batch, ragged, merged):
        assert_roundtrip(dev, Table(columns))


def test_every_kind_roundtrips_under_cascade(selections):
    rng = np.random.default_rng(7)
    n = 2 * 1024 + 300  # two full groups and a short one
    stream = rng.integers(0, 1 << 40, n + 16)
    table = Table(
        {
            "int": rng.integers(-1000, 1000, n).astype(np.int64),
            "float": np.round(rng.normal(size=n), 2),
            "bytes": [b"u%d@x.com" % (i % 37) for i in range(n)],
            "bool": rng.random(n) < 0.05,
            "list_int": [stream[i : i + 16] for i in range(n)],
            "list_float": [
                rng.normal(size=int(rng.integers(0, 5))) for _ in range(n)
            ],
        }
    )
    dev = write(table, cascade(rows_per_page=256, rows_per_group=1024))
    assert len(selections) >= 6
    assert_roundtrip(dev, table)


def test_quantized_columns_roundtrip_under_cascade():
    rng = np.random.default_rng(8)
    n = 3000
    emb = rng.normal(size=n).astype(np.float32)
    act = rng.normal(size=n).astype(np.float32)
    policy = QuantizationPolicy(
        assignments={"emb": FloatFormat.BF16, "act": FloatFormat.FP8_E4M3}
    )
    dev = write(
        Table({"emb": emb, "act": act}),
        cascade(rows_per_page=256, rows_per_group=1024, quantization=policy),
    )
    reader = BullionReader(dev)
    assert reader.verify()
    raw = reader.project(["emb", "act"])
    assert np.array_equal(raw.columns["emb"], quantize(emb, FloatFormat.BF16))
    assert np.array_equal(
        raw.columns["act"], quantize(act, FloatFormat.FP8_E4M3)
    )


def test_empty_table_selects_nothing(selections):
    schema = Schema(
        [
            Field("a", LogicalType.parse("int64")),
            Field("b", LogicalType.parse("list<int64>")),
        ]
    )
    empty = Table({"a": np.zeros(0, dtype=np.int64), "b": []})
    dev = write(empty, cascade(), schema=schema)
    assert selections == []
    reader = BullionReader(dev)
    assert reader.verify() and reader.num_rows == 0
    assert len(reader.project(["a", "b"]).columns["a"]) == 0


def test_single_short_page_selects_on_the_page(selections):
    x = np.array([5, 5, 9], dtype=np.int64)
    table = Table({"x": x})
    dev = write(table, cascade())
    assert len(selections) == 1
    assert np.array_equal(selections[0], x)
    assert_roundtrip(dev, table)


def test_per_file_bytes_within_3_percent_of_per_page(size_only_objective):
    """The benchmark's roll-up shape: 33 micro-batches of 2,000 rows in
    one file. With the objective's clock stopped, selection is a pure
    function of the values, so the price of deciding once on a sample —
    against deciding on every page, as the writer used to — is exact."""
    rng = np.random.default_rng(9)
    parts = [narrow(rng, 2000, ts0=2000 * k) for k in range(33)]
    columns = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    table = Table(columns)
    options = WriterOptions(encoding_policy="cascade")
    dev = write(table, options)
    report = inspect_file(dev)
    per_file = sum(c.encoded_bytes for c in report.columns)

    per_page = 0
    for name, col in columns.items():
        values = col.astype(np.int64) if col.dtype.kind == "i" else col
        for g in range(0, len(values), options.rows_per_group):
            group = values[g : g + options.rows_per_group]
            for lo in range(0, len(group), options.rows_per_page):
                page = group[lo : lo + options.rows_per_page]
                best = choose_encoding(page).encoding
                per_page += PAGE_HEADER_SIZE + len(encode_blob(page, best))
    assert per_file <= 1.03 * per_page, (per_file, per_page)
    assert_roundtrip(dev, table)
