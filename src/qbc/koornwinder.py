"""n-variable layer: the five-parameter BC-type q-difference operator, a
triangular eigen-solver for its monic invariant eigenfunctions, the
generating family entering the one-row expansion, and a truncated check of
the kernel-function identity that ties the n-variable and one-variable
operators together.
"""

import json
import os
import tempfile
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path

from .algebra import (
    ClearedShiftOperator,
    LaurentPoly,
    ParamPoint,
    Partition,
    ShiftTerm,
    decompose_symmetric,
    dominated_partitions,
    format_rational,
    monomial_symmetric,
    rat,
    solve_triangular_eigenproblem,
)
from .askey_wilson import coeff_ce_prime, coeff_co_recast
from .errors import ParameterDegeneracy
from .qseries import qbinom_series

CACHE_ENV = "QBC_CACHE_DIR"


def cache_root() -> Path:
    """Directory holding solved-polynomial JSON files; overridable by env."""
    return Path(os.environ.get(CACHE_ENV, "cache"))


def _mono(n, spots, coeff):
    exps = [0] * n
    for i, p in spots:
        exps[i] += p
    return LaurentPoly.monomial(exps, coeff)


@lru_cache(maxsize=None)
def _koorn_operator(P: ParamPoint, n: int) -> ClearedShiftOperator:
    """The 2n-term operator in cleared-denominator form.

    Each variable contributes an up-shift and a down-shift term; the pair
    factors couple it to every other variable.  The overall scalar divisor
    alpha t^(n-1) keeps the rank-one case aligned with the one-variable
    operator up to 1/alpha.
    """
    P.require("a", "b", "c", "d", "sqrt_t")
    q, t = P.q, P.t
    one = LaurentPoly.one(n)
    terms = []
    for i in range(n):
        for step in (1, -1):
            numer = [one - _mono(n, [(i, step)], u) for u in (P.a, P.b, P.c, P.d)]
            denom = [
                one - _mono(n, [(i, 2 * step)], 1),
                one - _mono(n, [(i, 2 * step)], q),
            ]
            for j in range(n):
                if j == i:
                    continue
                numer.append(one - _mono(n, [(i, step), (j, 1)], t))
                numer.append(one - _mono(n, [(i, step), (j, -1)], t))
                denom.append(one - _mono(n, [(i, step), (j, 1)], 1))
                denom.append(one - _mono(n, [(i, step), (j, -1)], 1))
            terms.append(ShiftTerm(tuple(numer), tuple(denom), i, step))
    return ClearedShiftOperator(P, n, terms, scalar=P.alpha * t ** (n - 1))


def koorn_apply(f: LaurentPoly, P: ParamPoint, n: int) -> LaurentPoly:
    """Apply the operator to an invariant Laurent polynomial in n variables."""
    return _koorn_operator(P, n).apply(f)


def koorn_eigenvalue(lam, P: ParamPoint, n: int) -> Fraction:
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    P.require("a", "b", "c", "d", "sqrt_t")
    alpha, q, t = P.alpha, P.q, P.t
    total = Fraction(0)
    for j, part in enumerate(lam.padded(n), start=1):
        base = alpha * t ** (n - j)
        shifted = base * q ** part
        total += shifted + 1 / shifted - base - 1 / base
    return total


def _cache_path(lam: Partition, P: ParamPoint, n: int) -> Path:
    name = "-".join(str(p) for p in lam.parts) or "0"
    return cache_root() / "koornwinder" / f"n{n}_lam{name}_{P.canonical_key()}.json"


def _cache_store(path: Path, lam: Partition, P: ParamPoint, n: int, poly: LaurentPoly):
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": 1,
        "n": n,
        "partition": list(lam.parts),
        "point": P.to_json_obj(),
        "polynomial": poly.to_json_obj(),
    }
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def koorn_oracle(lam, P: ParamPoint, n: int, use_cache: bool = True) -> LaurentPoly:
    """The monic invariant eigenfunction indexed by a partition.

    Solved by back-substitution over the dominance-ordered monomial basis;
    nothing about the closed one-row formulas enters here, which is what
    makes the result usable as a reference value for them.  Solutions are
    cached on disk because the triangular solve dominates verification time.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    P.require("a", "b", "c", "d", "sqrt_t")
    path = _cache_path(lam, P, n)
    if use_cache and path.exists():
        with path.open() as fh:
            return LaurentPoly.from_json_obj(json.load(fh)["polynomial"])
    op = _koorn_operator(P, n)

    def column(mu):
        image = op.apply(monomial_symmetric(mu.padded(n), n))
        return {Partition(e): coeff for e, coeff in decompose_symmetric(image).items()}

    coeffs = solve_triangular_eigenproblem(dominated_partitions(lam, n), column, lam)
    result = LaurentPoly.zero(n)
    for mu, coeff in coeffs.items():
        result = result + monomial_symmetric(mu.padded(n), n) * coeff
    if use_cache:
        _cache_store(path, lam, P, n, result)
    return result


def g_series_list(rmax: int, n: int, P: ParamPoint) -> list:
    """Coefficients [G_0, ..., G_rmax] of the binomial-product generating
    function: each of the 2n factors contributes (t;q)_j/(q;q)_j x_i^(+-j)
    at order j, and the truncated factor series are convolved."""
    P.require("sqrt_t")
    heads = qbinom_series(P.t, P.q, rmax)
    out = [LaurentPoly.one(n)] + [LaurentPoly.zero(n) for _ in range(rmax)]
    for i in range(n):
        for sign in (1, -1):
            new = [LaurentPoly.zero(n) for _ in range(rmax + 1)]
            for r in range(rmax + 1):
                if out[r].is_zero():
                    continue
                for j in range(rmax + 1 - r):
                    if heads[j] == 0:
                        continue
                    new[r + j] = new[r + j] + out[r] * _mono(n, [(i, sign * j)], heads[j])
            out = new
    return out


def g_series(r: int, n: int, P: ParamPoint) -> LaurentPoly:
    if r < 0:
        raise ValueError("series order must be nonnegative")
    return g_series_list(r, n, P)[r]


def g_row_sym(r: int, P: ParamPoint, n: int) -> LaurentPoly:
    """One-row sum for the chained parameter family (a, -a, c, -c).

    The k,l weights are the primed even-family coefficients evaluated at a
    point rescaled by sqrt(q/t) and at the pinned spectral value
    q^(1-r) t^(-n), carrying one factor t/q per lattice step.
    """
    P.require("a", "c", "sqrt_t")
    q, t = P.q, P.t
    hat = P.sqrt_q / P.sqrt_t
    Phat = P.replace(a=hat * P.a, c=hat * P.c)
    shat = q ** (1 - r) * t ** -n
    gs = g_series_list(r, n, P)
    total = LaurentPoly.zero(n)
    for k in range(r // 2 + 1):
        for l in range((r - 2 * k) // 2 + 1):
            w = coeff_ce_prime(k, l, shat, Phat) * (t / q) ** (k + l)
            if w:
                total = total + gs[r - 2 * k - 2 * l] * w
    return total


def g_row_general(r: int, P: ParamPoint, n: int) -> LaurentPoly:
    """One-row sum for general (a,b,c,d), layered over g_row_sym.

    The i,j weights are the regrouped odd-family coefficients at the same
    rescaled point and spectral value, carrying sqrt(t/q) per step; both
    ladders collapse to the (0,0) term when b=-a and d=-c.
    """
    P.require("a", "b", "c", "d", "sqrt_t")
    q, t = P.q, P.t
    hat = P.sqrt_q / P.sqrt_t
    Phat = P.replace(a=hat * P.a, b=hat * P.b, c=hat * P.c, d=hat * P.d)
    shat = q ** (1 - r) * t ** -n
    half = P.sqrt_t / P.sqrt_q
    syms = [g_row_sym(k, P, n) for k in range(r + 1)]
    total = LaurentPoly.zero(n)
    for i in range(r + 1):
        for j in range(r + 1 - i):
            w = coeff_co_recast(i, j, shat, Phat) * half ** (i + j)
            if w:
                total = total + syms[r - i - j] * w
    return total


def _poly_mul(u, v):
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += rat(x) * rat(y)
    return out


def kernel_identity_check(n: int, beta: int, deg: int, P: ParamPoint) -> list:
    """Check plan for the truncated kernel-function identity, one entry
    (id suffix, anchor, degrees, check) per y-coefficient.

    With one auxiliary variable y and t = q^beta the kernel product is a
    power series y^(beta n) sum_r W_r(x) y^r with W_r = G_r (q/t)^(r/2).
    Acting with the x-operator, the rescaled-parameter y-operator, and the
    constant, then clearing the y denominators by (1-y^2)(1-qy^2)(y^2-q),
    every y-coefficient through order deg is exactly determined by the
    truncation, and each must vanish.
    """
    P.require("a", "b", "c", "d", "sqrt_t")
    if beta < 1 or P.sqrt_t != P.sqrt_q ** beta:
        raise ParameterDegeneracy(
            "kernel check needs sqrt_t = sqrt_q^beta for a positive integer beta"
        )
    q, t = P.q, P.t
    alpha = P.alpha
    st = P.sqrt_t
    ratio = P.sqrt_q / st
    W = [g * ratio ** r for r, g in enumerate(g_series_list(deg, n, P))]
    DW = [koorn_apply(w, P, n) for w in W]
    const = (st ** n - st ** -n) * (
        alpha * st ** (n - 2) - 1 / (alpha * st ** (n - 2))
    )
    tilde = [P.sqrt_q * st / u for u in (P.a, P.b, P.c, P.d)]
    alpha_tilde = t / alpha
    lcd = _poly_mul(_poly_mul([1, 0, -1], [1, 0, -q]), [-q, 0, 1])
    gup = [-q, 0, 1]
    gdown = [1, 0, -q]
    for u in tilde:
        gup = _poly_mul(gup, [1, -u])
        gdown = _poly_mul(gdown, [-u, 1])
    gdown = [-v for v in gdown]

    shift = beta * n

    def residual_check(e):
        residual = LaurentPoly.zero(n)
        for j in range(min(e, 6) + 1):
            w = W[e - j]
            if lcd[j]:
                residual = residual + (DW[e - j] + w * const) * lcd[j]
            power = shift + e - j
            if gup[j]:
                residual = residual - w * (gup[j] * (q ** power - 1) / alpha_tilde)
            if gdown[j]:
                residual = residual - w * (gdown[j] * (q ** -power - 1) / alpha_tilde)
        if residual.is_zero():
            return None
        exps, value = residual.leading()
        return {
            "coefficient": f"y^{shift + e} x^{list(exps)}",
            "expected": "0",
            "got": format_rational(value),
        }

    return [
        (
            f"n{n}-beta{beta}-y{e:02d}",
            "kernel-identity-truncated",
            {"n": n, "beta": beta, "y_degree": e},
            partial(residual_check, e),
        )
        for e in range(deg + 1)
    ]
