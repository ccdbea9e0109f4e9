"""Fixtures shared by the tier-1 suite."""

from types import SimpleNamespace

import pytest


@pytest.fixture
def size_only_objective(monkeypatch):
    """Stop the clock the cascade objective reads.

    ``score_candidate`` measures encode and decode time, so near-tied
    winners flip from run to run. With the clock stopped every time
    term is zero and the objective is the compression ratio alone:
    selection is a pure function of the values, and a test can assert
    on which scheme wins and how many bytes it writes.
    """
    monkeypatch.setattr(
        "repro.cascading.objective.time",
        SimpleNamespace(perf_counter=lambda: 0.0),
    )


@pytest.fixture
def serial_fetch(monkeypatch):
    """Fetch on the consuming thread only: the batch loop's look-ahead
    starts no thread, so requests go out in issue order even from a
    device that waits per request."""
    from repro.core import reader

    monkeypatch.setattr(reader, "_FETCH_THREADS", 1)
