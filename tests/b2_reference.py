"""The fivefold B2 series as it was written before one stepper walked its
running-ratio directions: each of the theta2 loop, the theta3 loop and the
two two-factor sums is its own hand-written loop, with its own bound check,
step, stop test and advance.  Kept as the reference the shipped series is
checked against, values, error classes and messages alike, on both scalar
rings.
"""

from qbc.algebra import ParamPoint
from qbc.b2 import B2Weight, _power_table
from qbc.errors import NonTerminating, ParameterDegeneracy


def _series_terms(w: B2Weight, P: ParamPoint, ring, bound: int) -> dict:
    """Doubled-exponent coefficient dict of the terminating fivefold series.

    All t-dependence is routed through the ring; every other argument is a
    gamma = q^k T^a c1^b c2^c, an integer _Pair read from per-call power
    tables, with the two numeric spectral pieces c1, c2 of s1 = t c1,
    s2 = c2.  Ladder directions stop when a running numerator factor is
    identically zero; indices past the scan bound raise NonTerminating.
    """
    d1, d2 = w.doubled
    qp, Tp = _power_table(P.q), _power_table(P.T)
    c1p = _power_table(P.sqrt_T * P.sqrt_q ** d1)
    c2p = _power_table(P.sqrt_T * P.sqrt_q ** d2)
    q, T = qp(1), Tp(1)
    inv_cc = c1p(-1) * c2p(-1)
    T_cc = T * inv_cc
    c1_c2, c2_c1 = c1p(1) * c2p(-1), c2p(1) * c1p(-1)
    inv_c1c1, inv_c2c2 = c1p(-2), c2p(-2)
    T_c1c1, T_c2c2 = T * inv_c1c1, T * inv_c2c2
    q_T = q * Tp(-1)

    def ladder(gamma, p, m):
        prod = ring.one
        for k in range(m):
            prod = prod * ring.factor(gamma * qp(k), p)
        return prod

    def guard(x, what):
        if ring.dead(x):
            raise ParameterDegeneracy(f"vanishing {what} in the explicit series")
        return x

    def stop(num, den, what) -> bool:
        """Whether this ladder direction just terminated.

        In the series ring a dead value is zero identically, which only
        happens through the pinned truncation factors, so it wins over a
        dead denominator; numerically a simultaneous 0/0 is a degeneracy.
        """
        if ring.zero_is_identical and ring.dead(num):
            return True
        guard(den, what)
        return ring.dead(num)

    def overran(label):
        return NonTerminating(
            f"{label} index passed {bound} without a vanishing factor"
        )

    ladder_memo: dict = {}

    def two_factor_sum(step: int, m: int, const, label: str):
        """Cells (doubled exponent offset, weight) of the sum over one ladder
        direction stepping (-2, step), with gamma = q^m const: cell k + 1 is
        cell k times (q/t) (1 - q^k t)(1 - gamma q^k) /
        ((1 - q^(k+1))(1 - gamma q^(k+1) / t)).  The const is fixed by the
        step, so the cells are memoized per (step, m)."""
        key = (step, m)
        if key not in ladder_memo:
            cells = []
            run = ring.one
            k = 0
            while True:
                cells.append(((-2 * k, step * k), run))
                if k > bound:
                    raise overran(label)
                num = ring.factor(qp(k), 1) * ring.factor(qp(m + k) * const, 0)
                den = ring.factor(qp(1 + k), 0) * ring.factor(qp(m + 1 + k) * const, -1)
                if stop(num, den, "ladder denominator"):
                    break
                run = ring.ratio(run * ring.unit(q, -1), num, den)
                k += 1
            ladder_memo[key] = cells
        return ladder_memo[key]

    out: dict = {}
    n = 0
    while True:
        if n > bound:
            raise overran("principal direction")
        # the two 2n-ladders sharing numerator arguments are folded into
        # denominator tails of length n
        head_num = (
            ladder(q, -1, n)
            * ladder(T, -1, n)
            * ladder(T, 0, n)
            * ladder(q * inv_cc, -2, n)
            * ladder(T_c1c1, -2, 2 * n)
            * ladder(T_c2c2, 0, 2 * n)
        )
        head_den = (
            ladder(q, 0, n)
            * ladder(q * inv_c1c1, -2, n)
            * ladder(q * inv_c2c2, 0, n)
            * ladder(q * c1_c2, 1, n)
            * ladder(q * c2_c1, -1, n)
            * ladder(q * inv_cc, -1, n)
            * ladder(qp(n) * T_cc, -1, n)
            * ladder(qp(n) * T_cc, -2, n)
        )
        if stop(head_num, head_den, "series prefactor denominator"):
            break
        hterm = ring.ratio(ring.unit(q_T ** (2 * n), n), head_num, head_den)

        b2run = ring.one
        t2 = 0
        while True:
            if t2 > bound:
                raise overran("second direction")
            b3run = ring.one
            t3 = 0
            while True:
                if t3 > bound:
                    raise overran("third direction")
                cell = hterm * b2run * b3run
                base1 = d1 - 2 * n - 2 * t3
                base2 = d2 - 2 * n - 2 * t2
                # the x2/x1 direction depends on theta3 - theta2 only, the
                # 1/(x1 x2) direction on 2n + theta2 + theta3
                skew = two_factor_sum(2, t3 - t2, c2_c1, "skew direction")
                diagonal = two_factor_sum(-2, 2 * n + t2 + t3, T_cc, "diagonal direction")
                for (e1, e2), w1 in skew:
                    left = cell * w1
                    for (g1, g2), w4 in diagonal:
                        exps = (base1 + e1 + g1, base2 + e2 + g2)
                        out[exps] = out.get(exps, ring.zero) + ring.coefficient(left * w4)
                k = t3
                num = (
                    ring.factor(qp(n + k) * T, 0)
                    * ring.factor(qp(2 * n + k) * T_c1c1, -2)
                    * ring.factor(qp(k) * c2_c1, 0)
                    * ring.factor(qp(1 - t2 + k) * c2_c1, -2)
                    * ring.factor(qp(n + k) * T_cc, -1)
                    * ring.factor(qp(2 * n + t2 + 1 + k) * T_cc, -2)
                )
                den = (
                    ring.factor(qp(1 + k), 0)
                    * ring.factor(qp(n + 1 + k) * inv_c1c1, -2)
                    * ring.factor(qp(n + 1 + k) * c2_c1, -1)
                    * ring.factor(qp(k - t2) * c2_c1, -1)
                    * ring.factor(qp(2 * n + 1 + k) * T_cc, -2)
                    * ring.factor(qp(2 * n + t2 + k) * T_cc, -1)
                )
                if stop(num, den, "ladder denominator"):
                    break
                b3run = ring.ratio(b3run * ring.unit(q_T, 0), num, den)
                t3 += 1
            k = t2
            num = (
                ring.factor(qp(n + k) * T, 0)
                * ring.factor(qp(2 * n + k) * T_c2c2, 0)
                * ring.factor(qp(n + k) * T_cc, -1)
                * ring.factor(qp(1 + k) * c1_c2, 1)
            )
            den = (
                ring.factor(qp(1 + k), 0)
                * ring.factor(qp(n + 1 + k) * inv_c2c2, 0)
                * ring.factor(qp(2 * n + k) * T_cc, -1)
                * ring.factor(qp(n + 1 + k) * c1_c2, 1)
            )
            if stop(num, den, "ladder denominator"):
                break
            b2run = ring.ratio(b2run * ring.unit(q_T, 0), num, den)
            t2 += 1
        n += 1
    return out
