"""``sum`` over int64 is the exact Python ``int``, never wrapped.

``[3, 2**63 - 1]`` sums past int64: the answer is ``2**63 + 2`` from
the metadata-enabled path, from the decode path, and over the server
wire — not int64's wrapped ``-(2**63) + 2``.
"""

from __future__ import annotations

import numpy as np

from repro.catalog import CatalogTable, MemoryCatalogStore
from repro.core.table import Table
from repro.server import BullionServer, ServerClient, TableService

VALUES = np.array([3, 2**63 - 1], dtype=np.int64)
EXACT = 2**63 + 2


def test_reader_sum_is_exact_on_both_paths():
    table = CatalogTable.create(MemoryCatalogStore())
    table.append(Table({"v": VALUES}))  # the sum stays in one file
    snap = table.pin()
    for use_metadata in (True, False):
        row = snap.query(
            ["sum(v)", "mean(v)"], use_metadata=use_metadata
        ).rows[0]
        assert row["sum(v)"] == EXACT and type(row["sum(v)"]) is int
        assert row["mean(v)"] == EXACT / 2


def test_catalog_and_server_sum_is_exact():
    table = CatalogTable.create(MemoryCatalogStore())
    table.append(Table({"v": VALUES[:1]}))
    table.append(Table({"v": VALUES[1:]}))  # the sum crosses files
    with table.pin() as pin:
        assert pin.query(["sum(v)"]).rows == [{"sum(v)": EXACT}]
    server = BullionServer(TableService({"t": table}, workers=1, max_queue=2))
    client = ServerClient(server.host, server.port, timeout=30.0)
    try:
        assert client.query("t", ["sum(v)"]).rows == [{"sum(v)": EXACT}]
        grouped = client.query("t", ["sum(v)"], group_by=["v"]).rows
        assert sorted(row["sum(v)"] for row in grouped) == sorted(
            int(v) for v in VALUES
        )
    finally:
        client.close()
        server.close()
