"""Per-process memos: what verify all builds once and shares.

The operator columns, the G tables, the straightened orbits of the
operators' Weyl denominator peel and the memoized builders (aw_poly,
f_b2_poly, the displays' weights g_row_sym and _lassalle_d_weights, and the
coefficient families the walks take at shifts: _unit_families,
_primed_family, _odd_family, _mac_steps and _lassalle_steps) hand the same
object to every caller.  A caller that
mutated one would corrupt every later check at that point, so these tests
compare the memoized values, after a full run has read them many times,
with a fresh computation on cleared memos: the slow path is the reference.
"""

import hashlib

import pytest

from qbc import algebra, askey_wilson, b2, koornwinder, macdonald_bcd
from qbc.b2 import B2Weight
from qbc.macdonald_bcd import FAMILY_B, FAMILY_C, FAMILY_D
from qbc.suites import default_config, family_tag, run_suite
from test_acceptance import ALL_DIGEST

CFG = default_config()


def _clear_memos():
    for memo in (
        askey_wilson.aw_poly, askey_wilson._aw_operator, askey_wilson._unit_families,
        b2.f_b2_poly, b2._b2_operator, koornwinder.g_row_sym, koornwinder._koorn_operator,
        koornwinder._primed_family, koornwinder._odd_family, macdonald_bcd._lassalle_d_weights,
        macdonald_bcd._mac_steps, macdonald_bcd._lassalle_steps,
    ):
        memo.cache_clear()
    koornwinder._G_TABLES.clear()
    algebra._STRAIGHTENED.clear()


def _requests():
    """(builder, args) for the memoized builder calls of verify all at the
    shipped points."""
    out = []
    for cp in CFG.points("askey-wilson"):
        out += [(askey_wilson.aw_poly, (n, cp.point)) for n in range(7)]
        out.append((askey_wilson._unit_families, (cp.point,)))
    for cp in CFG.points("b2"):
        out += [
            (b2.f_b2_poly, (B2Weight(r1, total - r1), cp.point))
            for total in range(CFG.max_weight + 1)
            for r1 in range(total + 1)
        ]
    for cp in CFG.points("koornwinder"):
        out += [
            (koornwinder.g_row_sym, (r, cp.point, n))
            for n in (1, 2, 3)
            for r in range(5 if n < 3 else 4)
        ]
        out += [
            (family, (cp.point, n))
            for family in (koornwinder._primed_family, koornwinder._odd_family)
            for n in (1, 2, 3)
        ]
    for cp in CFG.points("macdonald"):
        out += [
            (macdonald_bcd._lassalle_d_weights, (r, cp.point, n))
            for n in (1, 2)
            for r in range(5)
        ]
        out += [
            (steps, (family_tag(family, cp), cp.point, n))
            for steps in (macdonald_bcd._mac_steps, macdonald_bcd._lassalle_steps)
            for family in (FAMILY_B, FAMILY_C, FAMILY_D)
            for n in (1, 2)
        ]
    return out


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """Two runs of every suite on cleared memos and an empty oracle cache,
    the second on the memos the first filled; returns both bodies, the
    memoized values, the G tables and the straightened orbits as they stand
    after both runs."""
    mp = pytest.MonkeyPatch()
    mp.setenv(koornwinder.CACHE_ENV, str(tmp_path_factory.mktemp("oracle-cache")))
    try:
        _clear_memos()
        bodies = [run_suite("all", CFG).to_json(with_timing=False) for _ in range(2)]
        values = [(fn, args, fn(*args)) for fn, args in _requests()]
        tables = {key: tuple(table) for key, table in koornwinder._G_TABLES.items()}
        yield bodies, values, tables, dict(algebra._STRAIGHTENED)
    finally:
        mp.undo()


def test_a_second_run_on_warm_memos_gives_the_same_body(warm):
    first, second = warm[0]
    assert first == second
    assert hashlib.sha256(second.encode()).hexdigest() == ALL_DIGEST


def test_memoized_builders_equal_a_fresh_computation(warm):
    _, values, _, _ = warm
    assert len(values) == 3 * (7 + 1) + 2 * 10 + 2 * (14 + 6) + 2 * (10 + 12)
    _clear_memos()
    for fn, args, memoized in values:
        assert fn(*args) == memoized, (fn.__name__, args)
        assert fn(*args) is fn(*args)


def test_g_tables_equal_a_fresh_computation(warm):
    # the full run grows a table at every koornwinder, macdonald and kernel
    # point and rank it reads, and at every rank below, which a table grows
    # from: the rank-2 kernel tables add a rank-1 table at each kernel
    # point; the lists a fresh table builds match it
    _, _, tables, _ = warm
    assert len(tables) == 14
    koornwinder._G_TABLES.clear()
    for (n, P), entries in tables.items():
        assert koornwinder.g_series_list(len(entries) - 1, n, P) == entries


def test_straightened_orbits_equal_a_fresh_computation(warm):
    # every (nu, rho) the full run's operator columns peeled with, at the
    # koornwinder ranks 1-3 (rho = (n, ..., 1), Askey-Wilson's (1,) among
    # them) and b2's doubled (3, 1), straightened again from nothing
    _, _, _, straightened = warm
    assert {rho for _, rho in straightened} == {(1,), (2, 1), (3, 2, 1), (3, 1)}
    algebra._STRAIGHTENED.clear()
    for (nu, rho), entry in straightened.items():
        assert algebra._straightened(nu, rho) == entry
