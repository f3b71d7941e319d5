"""Fixtures shared by several test modules."""

import pytest

from qbc import koornwinder


@pytest.fixture
def g_builds(monkeypatch):
    """Give g_series_list empty G tables for the test; the returned list
    records each (order, n, P) entry as it is built."""
    built = []
    real_grow = koornwinder._GTable._grow

    def spy(table):
        built.append((len(table.stages[0]), table.n, table.P))
        real_grow(table)

    monkeypatch.setattr(koornwinder._GTable, "_grow", spy)
    monkeypatch.setattr(koornwinder, "_G_TABLES", {})
    return built
