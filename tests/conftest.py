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
