"""Fixtures and helpers shared by several test modules."""

import pytest

from qbc import koornwinder
from qbc.algebra import OrbitPoly, padded_partition


def monomial_symmetric(entries, n: int, scale: int = 1):
    """The orbit sum m_entries as a LaurentPoly with all its terms: entries
    is a partition of lattice exponents, padded with zeros to n variables."""
    return orbit_sum(entries, n, scale).expand()


def orbit_sum(entries, n: int, scale: int = 1, coeff=1) -> OrbitPoly:
    """coeff times the orbit sum m_entries as an orbit form."""
    return OrbitPoly(n, {padded_partition(entries, n): coeff}, scale)


def poly_key(p):
    """A hashable canonical form of a LaurentPoly: (num_vars, scale, sorted
    terms), equal for equal polynomials."""
    return p.num_vars, p.scale, tuple(sorted(p.terms.items()))


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Point the oracle cache at an empty directory under tmp_path, so the
    test solves every entry it asks for and writes nothing to ./cache."""
    root = tmp_path / "cache"
    monkeypatch.setenv(koornwinder.CACHE_ENV, str(root))
    return root


@pytest.fixture
def g_builds(monkeypatch):
    """Give g_series_list empty G tables for the test; the returned list
    records each (order, n, P) entry as it is built."""
    built = []
    real_entry = koornwinder._g_entry

    def spy(m, n, P, h):
        built.append((m, n, P))
        return real_entry(m, n, P, h)

    monkeypatch.setattr(koornwinder, "_g_entry", spy)
    monkeypatch.setattr(koornwinder, "_G_TABLES", {})
    return built
