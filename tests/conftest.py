"""Fixtures shared by the tier-1 suite."""

import pytest


@pytest.fixture
def serial_fetch(monkeypatch):
    """Fetch on the consuming thread only: the batch loop's look-ahead
    starts no thread, so requests go out in issue order even from a
    device that waits per request."""
    from repro.core import reader

    monkeypatch.setattr(reader, "_FETCH_THREADS", 1)
