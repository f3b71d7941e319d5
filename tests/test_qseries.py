"""Pochhammer and basic hypergeometric building blocks."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qbc.qseries import (
    PhiSpec,
    phi_sum,
    power_of_base,
    qbinom_series,
    qpoch,
    qpoch_multi,
)
from qbc.errors import DivergentSpec, PoleInLower


class TestQPochhammer:
    def test_small_values(self):
        assert qpoch(F(1, 2), F(1, 3), 0) == 1
        assert qpoch(F(1, 2), F(1, 3), 2) == F(5, 12)
        assert qpoch_multi([F(1, 2), 2], F(1, 3), 1) == F(-1, 2)

    def test_negative_index_inversion(self):
        a, q = F(2, 3), F(1, 5)
        for n in range(1, 4):
            assert qpoch(a, q, -n) * qpoch(a * q ** -n, q, n) == 1

    def test_vanishing(self):
        # (q^-2; q)_n vanishes exactly for n >= 3
        q = F(1, 4)
        assert qpoch(q ** -2, q, 2) != 0
        assert qpoch(q ** -2, q, 3) == 0
        assert qpoch(q ** -2, q, 5) == 0


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


def _terminating_reference(spec: PhiSpec) -> F:
    """The terminating sum as it stood before callers passed their N: every
    upper parameter is scanned for a base^-M with M <= 512, and the sum runs
    through the smallest such M."""
    q = spec.base
    cutoffs = []
    for u in spec.uppers:
        p = u
        for n in range(513):
            if p == 1:
                cutoffs.append(n)
                break
            p *= q
    if not cutoffs:
        raise DivergentSpec(f"no upper parameter in {spec.uppers} is a q^-N within the scan cap")
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
