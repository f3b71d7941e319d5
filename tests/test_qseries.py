"""Pochhammer and basic hypergeometric building blocks."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qbc import askey_wilson, qseries
from qbc.algebra import ParamPoint
from qbc.qseries import (
    PhiSpec,
    convolve,
    phi_sum,
    power_of_base,
    qbinom_series,
    qpoch,
    qpoch_multi,
    qpoch_ratio,
)
from qbc.errors import DivergentSpec, ParameterDegeneracy, PoleInLower


class TestQPochhammer:
    def test_small_values(self):
        assert qpoch(F(1, 2), F(1, 3), 0) == 1
        assert qpoch(F(1, 2), F(1, 3), 2) == F(5, 12)
        assert qpoch_multi([F(1, 2), 2], F(1, 3), 1) == F(-1, 2)

    def test_negative_index_raises(self):
        a, q = F(2, 3), F(1, 5)
        for n in range(1, 4):
            with pytest.raises(ValueError):
                qpoch(a, q, -n)
            with pytest.raises(ValueError):
                qpoch_multi([a, q], q, -n)
            with pytest.raises(ValueError):
                qpoch_ratio((a,), (q,), q, -n, "x")

    def test_vanishing(self):
        # (q^-2; q)_n vanishes exactly for n >= 3
        q = F(1, 4)
        assert qpoch(q ** -2, q, 2) != 0
        assert qpoch(q ** -2, q, 3) == 0
        assert qpoch(q ** -2, q, 5) == 0


class TestQPochRatio:
    def test_value(self):
        # (1/2, 1/3; 1/2)_2 / (1/5; 1/2)_2 = (3/8)(5/9) / (18/25)
        assert qpoch_ratio((F(1, 2), F(1, 3)), (F(1, 5),), F(1, 2), 2, "x") == F(125, 432)
        assert qpoch_ratio((F(1, 2),), (F(1, 5),), F(1, 2), 0, "x") == 1

    def test_vanishing_upper_gives_zero(self):
        # (4; 1/2)_3 has the factor 1 - 4/4
        assert qpoch_ratio((4,), (3,), F(1, 2), 3, "x") == 0

    def test_vanishing_lower_raises(self):
        with pytest.raises(ParameterDegeneracy, match="vanishing lower Pochhammer in the test ladder"):
            qpoch_ratio((3,), (4,), F(1, 2), 3, "the test ladder")
        # a vanishing upper does not hide the pole
        with pytest.raises(ParameterDegeneracy):
            qpoch_ratio((4,), (4,), F(1, 2), 3, "the test ladder")
        # the pole is the third factor of (4; 1/2)_n: below it the quotient
        # is (-2)(-1/2) / ((-3)(-1))
        assert qpoch_ratio((3,), (4,), F(1, 2), 2, "the test ladder") == F(1, 3)


@settings(derandomize=True, max_examples=120)
@given(
    num=st.integers(-8, 8),
    den=st.integers(1, 8),
    qnum=st.integers(1, 6),
    qden=st.integers(2, 9),
    n=st.integers(0, 6),
)
def test_qpoch_recurrence_property(num, den, qnum, qden, n):
    # (a;q)_{n+1} = (a;q)_n * (1 - a q^n) and  = (1-a) * (aq;q)_n
    a, q = F(num, den), F(qnum, qden)
    if q == 1:
        return
    assert qpoch(a, q, n + 1) == qpoch(a, q, n) * (1 - a * q ** n)
    assert qpoch(a, q, n + 1) == (1 - a) * qpoch(a * q, q, n)


class TestTerminationDetection:
    def test_detects_powers(self):
        q = F(1, 3)
        assert power_of_base(1, q, 5) == 0
        assert power_of_base(27, q, 5) == 3
        assert power_of_base(F(1, 3), q, 5) is None
        assert power_of_base(F(5, 7), q, 5) is None

    def test_scan_cap(self):
        q = F(1, 2)
        assert power_of_base(2 ** 40, q, cap=39) is None
        assert power_of_base(2 ** 40, q, cap=40) == 40


class TestPhiSum:
    def test_terminating_matches_direct_sum(self):
        # 2phi1(q^-2, a; b; q, z) summed by hand
        q, a, b, z = F(1, 2), F(1, 3), F(1, 7), F(2, 5)
        spec = PhiSpec(uppers=(q ** -2, a), lowers=(b,), base=q, argument=z)
        direct = sum(
            qpoch(q ** -2, q, m) * qpoch(a, q, m) / (qpoch(q, q, m) * qpoch(b, q, m)) * z ** m
            for m in range(3)
        )
        assert phi_sum(spec, 2) == direct

    def test_divergent_spec(self):
        spec = PhiSpec(uppers=(F(1, 3),), lowers=(F(1, 7),), base=F(1, 2), argument=1)
        with pytest.raises(DivergentSpec):
            phi_sum(spec, 8)

    def test_cutoff_past_the_callers_bound_is_divergent(self):
        # the caller's N bounds the search: q^-4 is not found with N = 3
        q = F(1, 2)
        spec = PhiSpec(uppers=(q ** -4,), lowers=(F(1, 7),), base=q, argument=1)
        assert phi_sum(spec, 4) == _terminating_reference(spec)
        with pytest.raises(DivergentSpec):
            phi_sum(spec, 3)

    def test_pole_in_lower(self):
        # lower parameter q^-1 vanishes at the second term
        q = F(1, 2)
        spec = PhiSpec(uppers=(q ** -5,), lowers=(q ** -1,), base=q, argument=1)
        with pytest.raises(PoleInLower):
            phi_sum(spec, 5)

    def test_early_zero_cutoff_consistent(self):
        # an upper parameter q^-1 kills terms past m=1 even if another upper
        # would allow more; the terminating sum must equal the long direct sum
        q, b, z = F(1, 3), F(1, 5), F(1, 2)
        spec = PhiSpec(uppers=(q ** -1, q ** -4), lowers=(b,), base=q, argument=z)
        long_sum = sum(
            qpoch(q ** -1, q, m) * qpoch(q ** -4, q, m) / (qpoch(q, q, m) * qpoch(b, q, m)) * z ** m
            for m in range(12)
        )
        assert phi_sum(spec, 4) == long_sum


def _terminating_reference(spec: PhiSpec, cap: int = 512) -> F:
    """The terminating sum as a loop over Fraction, as it stood before
    callers passed their N: every upper parameter is scanned for a base^-M
    with M <= cap, and the sum runs through the smallest such M.  With
    cap = N it is phi_sum(spec, N) before its ladders went to integers."""
    q = spec.base
    cutoffs = [_power_of_base_reference(u, q, cap) for u in spec.uppers]
    cutoffs = [n for n in cutoffs if n is not None]
    if not cutoffs:
        raise DivergentSpec(f"no upper parameter in {spec.uppers} is a q^-M with M <= {cap}")
    length = min(cutoffs) + 1
    total = F(0)
    term = F(1)
    qm = F(1)
    for m in range(length):
        total += term
        if m + 1 == length:
            break
        ratio = spec.argument
        for u in spec.uppers:
            ratio *= 1 - u * qm
        denom = 1 - q * qm
        for v in spec.lowers:
            denom *= 1 - v * qm
        if denom == 0:
            raise PoleInLower(f"lower parameter ladder vanished at term {m + 1} of {spec}")
        term *= ratio / denom
        if term == 0:
            break
        qm *= q
    return total


def _sum_or_error(fn):
    try:
        return fn()
    except (DivergentSpec, PoleInLower) as exc:
        return type(exc)


# A value off by 1010/1009 or 1008/1009, or with its sign flipped, is never
# a power of a base with numerator and denominator below 10.
NEAR_MISS = (F(1010, 1009), F(1008, 1009), F(-1))


@settings(derandomize=True, max_examples=300)
@given(st.data())
def test_phi_sum_matches_terminating_reference(data):
    # Every power of the base among the uppers is drawn at or below N, the
    # bound each caller names; within it both cutoff searches must agree.
    num = data.draw(st.integers(1, 9), label="q_num")
    den = data.draw(st.integers(1, 9).filter(lambda d: d != num), label="q_den")
    q = data.draw(st.sampled_from((1, -1)), label="q_sign") * F(num, den)
    N = data.draw(st.integers(0, 6), label="N")
    own = q ** -N
    if data.draw(st.booleans(), label="near_miss"):
        own *= data.draw(st.sampled_from(NEAR_MISS), label="miss")
    generic = st.integers(1, 2017).filter(lambda k: k % 1009).map(lambda k: F(k, 1009))
    earlier = st.integers(0, N).map(lambda M: q ** -M)
    others = data.draw(st.lists(st.one_of(generic, earlier), max_size=2), label="others")
    uppers = data.draw(st.permutations([own] + others), label="uppers")
    small = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
    pole = st.integers(1, 7).map(lambda j: q ** -j)
    lowers = data.draw(st.lists(st.one_of(small, pole), max_size=3), label="lowers")
    spec = PhiSpec(uppers=uppers, lowers=lowers, base=q, argument=data.draw(small, label="z"))
    assert _sum_or_error(lambda: phi_sum(spec, N)) == _sum_or_error(
        lambda: _terminating_reference(spec)
    )


class TestQBinomSeries:
    def test_explicit_coefficient(self):
        cs = qbinom_series(F(1, 4), F(1, 2), 2)
        assert cs[0] == 1
        assert cs[2] == F(7, 4)

    def test_matches_qpoch_ratio(self):
        a, q = F(2, 7), F(1, 3)
        cs = qbinom_series(a, q, 6)
        for n, c in enumerate(cs):
            assert c == qpoch(a, q, n) / qpoch(q, q, n)


@settings(derandomize=True, max_examples=80)
@given(
    anum=st.integers(-6, 6),
    aden=st.integers(1, 6),
    qnum=st.integers(1, 5),
    qden=st.integers(2, 7),
    N=st.integers(1, 8),
)
def test_qbinom_recurrence_property(anum, aden, qnum, qden, N):
    # (1 - q^n) c_n = (1 - a q^{n-1}) c_{n-1}
    a, q = F(anum, aden), F(qnum, qden)
    if q == 1:
        return
    cs = qbinom_series(a, q, N)
    for n in range(1, N + 1):
        assert (1 - q ** n) * cs[n] == (1 - a * q ** (n - 1)) * cs[n - 1]


# Fraction-loop references for the integer ladders of qseries: the kernel
# as it stood before its products went to integer numerators and
# denominators.  The per-term references of the other test modules are
# built from qpoch, so these anchor them to code that does not use it.


def _qpoch_reference(a, q, n):
    a, q = F(a), F(q)
    out = F(1)
    p = a
    for _ in range(n):
        out *= 1 - p
        p *= q
    return out


def _qpoch_multi_reference(params, q, n):
    out = F(1)
    for a in params:
        out *= _qpoch_reference(a, q, n)
    return out


def _qpoch_ratio_reference(uppers, lowers, q, n, what):
    den = _qpoch_multi_reference(lowers, q, n)
    if den == 0:
        raise ParameterDegeneracy(f"vanishing lower Pochhammer in {what}")
    return _qpoch_multi_reference(uppers, q, n) / den


def _power_of_base_reference(u, q, cap):
    p = F(u)
    for n in range(cap + 1):
        if p == 1:
            return n
        p *= q
    return None


def _qbinom_series_reference(aparam, q, N):
    aparam, q = F(aparam), F(q)
    out = [F(1)]
    c = F(1)
    qn = F(1)
    for n in range(N):
        denom = 1 - q * qn
        if denom == 0:
            raise PoleInLower(f"(q;q)_{n + 1} vanished; base {q} is a root of unity")
        c *= (1 - aparam * qn) / denom
        out.append(c)
        qn *= q
    return out


def _result(fn, *args):
    """The value, or the class and message of the exception raised instead."""
    try:
        return fn(*args)
    except (ArithmeticError, ParameterDegeneracy, PoleInLower, DivergentSpec) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_kernel_matches_fraction_loops(data):
    # q is a signed small rational, -1 included, the root of unity that
    # makes (q; q)_2 vanish; parameters are small signed rationals, zero among
    # them, or signed powers q^k, so ladders hit exact zeros at every n
    q = data.draw(
        st.builds(
            lambda sign, num, den: sign * F(num, den),
            st.sampled_from((1, -1)), st.integers(1, 9), st.integers(1, 9),
        ).filter(lambda x: x != 1),
        label="q",
    )
    small = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
    power = st.builds(
        lambda sign, k: sign * q ** k, st.sampled_from((1, 1, -1)), st.integers(-6, 6)
    )
    param = st.one_of(small, power)
    a = data.draw(param, label="a")
    n = data.draw(st.integers(0, 10), label="n")
    assert _result(qpoch, a, q, n) == _result(_qpoch_reference, a, q, n)

    uppers = data.draw(st.lists(param, max_size=3), label="uppers")
    lowers = data.draw(st.lists(param, max_size=3), label="lowers")
    negative = data.draw(st.integers(-4, -1), label="negative n")
    with pytest.raises(ValueError):
        qpoch(a, q, negative)
    with pytest.raises(ValueError):
        qpoch_multi(uppers, q, negative)
    with pytest.raises(ValueError):
        qpoch_ratio(uppers, lowers, q, negative, "the drawn ladder")
    assert _result(qpoch_multi, uppers, q, n) == _result(_qpoch_multi_reference, uppers, q, n)
    assert _result(qpoch_ratio, uppers, lowers, q, n, "the drawn ladder") == _result(
        _qpoch_ratio_reference, uppers, lowers, q, n, "the drawn ladder"
    )

    N = data.draw(st.integers(0, 8), label="N")
    assert power_of_base(a, q, N) == _power_of_base_reference(a, q, N)
    spec = PhiSpec(
        uppers=[q ** -N] + uppers, lowers=lowers, base=q, argument=data.draw(small, label="z")
    )
    assert _result(phi_sum, spec, N) == _result(_terminating_reference, spec, N)
    assert _result(qbinom_series, a, q, N) == _result(_qbinom_series_reference, a, q, N)


def _convolve_reference(outer, rows, size, scale, stride):
    out = [F(0)] * size
    for w, row in rows:
        for K, value in enumerate(row):
            out[w + stride * K] += outer[w] * value
    return [value * scale for value in out]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_convolve_matches_a_fraction_double_sum(data):
    # ragged rows, some sharing an outer index, with zero and negative
    # entries and denominators that do and do not divide one another, at
    # both strides its callers use and a scale that need not be 1
    stride = data.draw(st.sampled_from((1, 2)), label="stride")
    size = data.draw(st.integers(1, 12), label="size")
    entry = st.builds(F, st.integers(-20, 20), st.sampled_from((1, 2, 3, 4, 6, 9, 10, 35)))
    outer = data.draw(st.lists(entry, min_size=size, max_size=size), label="outer")
    rows = []
    for w in data.draw(st.lists(st.integers(0, size - 1), max_size=6), label="row indices"):
        length = data.draw(st.integers(0, (size - 1 - w) // stride + 1))
        rows.append((w, data.draw(st.lists(entry, min_size=length, max_size=length))))
    scale = data.draw(entry, label="scale")
    got = convolve(outer, iter(rows), size, scale, stride)
    assert got == _convolve_reference(outer, rows, size, scale, stride)
    assert all(type(value) is F for value in got)


def test_every_terminating_row_steps_through_one_kernel(monkeypatch):
    # the askey_wilson walks run on qseries' integer walk kernel, which
    # alone holds the tables of powers, and phi_sum, qbinom_series and the
    # 6phi5 rows of psi_series form every term ratio with qseries._factors:
    # one call per step at a generic point
    kernel = ("walk", "convolve", "_compiled", "_factors", "_terminating_row")
    assert [getattr(askey_wilson, name) for name in kernel] == [
        getattr(qseries, name) for name in kernel
    ]
    assert not {"_Powers", "_ladder_walk", "_convolve"} & set(vars(askey_wilson))
    steps = []
    factors = qseries._factors

    def counted(step, i, j):
        steps.append((i, j))
        return factors(step, i, j)

    monkeypatch.setattr(qseries, "_factors", counted)
    q = F(1, 2)
    spec = PhiSpec(uppers=(q ** -3, F(1, 3)), lowers=(F(1, 7),), base=q, argument=F(2, 5))
    P = ParamPoint(sqrt_q=F(1, 2), a=3, b=5, c=7, d=11)
    phi_sum(spec, 3)
    assert steps == [(0, 0), (0, 1), (0, 2)]
    steps.clear()
    qbinom_series(F(1, 4), q, 3)
    assert steps == [(0, 0), (0, 1), (0, 2)]
    steps.clear()
    askey_wilson.psi_series(F(1, 7), P, 3)
    # three prefactor steps, then row n's steps (n, 0)..(n, n - 1)
    assert steps == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
