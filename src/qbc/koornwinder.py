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
from .askey_wilson import ce_prime_sums, co_recast_sums
from .errors import CacheError, DimensionMismatch, ParameterDegeneracy
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
    """The operator in cleared-denominator form, generated by its x_1
    up-shift term.

    The generator's pair factors couple x_1 to every other variable, and
    they are invariant under permutations and inversions of those
    variables; its images under the signed permutations are the 2n terms,
    an up-shift and a down-shift per variable.  The overall scalar divisor
    alpha t^(n-1) keeps the rank-one case aligned with the one-variable
    operator up to 1/alpha.
    """
    P.require("a", "b", "c", "d", "sqrt_t")
    q, t = P.q, P.t
    one = LaurentPoly.one(n)
    numer = [one - _mono(n, [(0, 1)], u) for u in (P.a, P.b, P.c, P.d)]
    denom = [one - _mono(n, [(0, 2)], 1), one - _mono(n, [(0, 2)], q)]
    for j in range(1, n):
        numer.append(one - _mono(n, [(0, 1), (j, 1)], t))
        numer.append(one - _mono(n, [(0, 1), (j, -1)], t))
        denom.append(one - _mono(n, [(0, 1), (j, 1)], 1))
        denom.append(one - _mono(n, [(0, 1), (j, -1)], 1))
    generator = ShiftTerm(tuple(numer), tuple(denom), 0, 1)
    return ClearedShiftOperator(P, n, generator, scalar=P.alpha * t ** (n - 1))


def koorn_apply(f: LaurentPoly, P: ParamPoint, n: int) -> LaurentPoly:
    """Apply the operator to an invariant Laurent polynomial in n variables;
    any other input raises ValueError."""
    return _koorn_operator(P, n).apply(f)


@lru_cache(maxsize=None)
def _koorn_column(P: ParamPoint, n: int, mu: Partition) -> dict:
    """The operator image of the orbit sum m_mu, over the orbit basis.

    A solve for a higher row needs every column of a lower row's solve
    again, so the columns are kept per (P, n, mu) for the process.  The
    dict is shared by every caller and must not be mutated.
    """
    image = _koorn_operator(P, n).apply(monomial_symmetric(mu.padded(n), n))
    return {Partition(e): coeff for e, coeff in decompose_symmetric(image).items()}


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


def _cache_header(lam: Partition, P: ParamPoint, n: int) -> dict:
    """The fields that tie a cache entry to the request it answers."""
    return {
        "schema": 1,
        "n": n,
        "partition": list(lam.parts),
        "point": P.to_json_obj(),
    }


def _cache_load(path: Path, lam: Partition, P: ParamPoint, n: int):
    """The cached solution, or None when the file is missing, unreadable as
    an entry, or an entry for another request (a file copied over another
    entry's name, say); the caller then solves and overwrites it.  Any other
    failure to read it is a CacheError."""
    try:
        with path.open() as fh:
            entry = json.load(fh)
        if any(entry[k] != v for k, v in _cache_header(lam, P, n).items()):
            return None
        return LaurentPoly.from_json_obj(entry["polynomial"])
    except (FileNotFoundError, KeyError, TypeError, ValueError, DimensionMismatch):
        return None
    except OSError as exc:
        raise CacheError.from_os_error(exc, path) from exc


def _cache_store(path: Path, lam: Partition, P: ParamPoint, n: int, poly: LaurentPoly):
    """Write the entry atomically; a failure to write it is a CacheError."""
    payload = dict(_cache_header(lam, P, n), polynomial=poly.to_json_obj())
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CacheError.from_os_error(exc, path) from exc


def koorn_oracle(lam, P: ParamPoint, n: int, use_cache: bool = True) -> LaurentPoly:
    """The monic invariant eigenfunction indexed by a partition.

    Solved by back-substitution over the dominance-ordered monomial basis;
    nothing about the closed one-row formulas enters here, which is what
    makes the result usable as a reference value for them.  Solutions are
    cached on disk because the triangular solve dominates verification time;
    within a process the solve's columns are kept too, so solving several
    rows at one point applies the operator once per distinct basis element.
    A cache entry is used only when its schema, rank, partition and point
    match the request; any other entry, or one that does not parse, is
    solved again and overwritten.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    P.require("a", "b", "c", "d", "sqrt_t")
    path = _cache_path(lam, P, n)
    if use_cache:
        cached = _cache_load(path, lam, P, n)
        if cached is not None:
            return cached
    coeffs = solve_triangular_eigenproblem(
        dominated_partitions(lam, n), partial(_koorn_column, P, n), lam
    )
    result = LaurentPoly.zero(n)
    for mu, coeff in coeffs.items():
        result = result + monomial_symmetric(mu.padded(n), n) * coeff
    if use_cache:
        _cache_store(path, lam, P, n, result)
    return result


@lru_cache(maxsize=None)
def g_series_list(rmax: int, n: int, P: ParamPoint) -> tuple:
    """Coefficients (G_0, ..., G_rmax) of the binomial-product generating
    function: each of the 2n factors contributes (t;q)_j/(q;q)_j x_i^(+-j)
    at order j, and the truncated factor series are convolved.

    Entry j does not depend on rmax.  The tuple is memoized per (rmax, n, P)
    for the process and shared by every caller, so the one-row displays at a
    point build each list once."""
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
    return tuple(out)


def g_series(r: int, n: int, P: ParamPoint) -> LaurentPoly:
    if r < 0:
        raise ValueError("series order must be nonnegative")
    return g_series_list(r, n, P)[r]


def row_sum(n: int, gs, terms) -> LaurentPoly:
    """Sum of gs[k] * w over the (k, w) pairs of terms; an entry of gs is
    read only where its weight is nonzero."""
    total = LaurentPoly.zero(n)
    for k, w in terms:
        if w:
            total = total + gs[k] * w
    return total


def g_row_sym(r: int, P: ParamPoint, n: int) -> LaurentPoly:
    """One-row sum for the chained parameter family (a, -a, c, -c).

    The k,l weights are the primed even-family coefficients evaluated at a
    point rescaled by sqrt(q/t) and at the pinned spectral value
    q^(1-r) t^(-n), carrying one factor t/q per lattice step; they enter
    summed along k + l.
    """
    P.require("a", "c", "sqrt_t")
    q, t = P.q, P.t
    hat = P.sqrt_q / P.sqrt_t
    Phat = P.replace(a=hat * P.a, c=hat * P.c)
    shat = q ** (1 - r) * t ** -n
    gs = g_series_list(r, n, P)
    sums = ce_prime_sums(shat, Phat, r // 2)
    return row_sum(n, gs, ((r - 2 * K, value * (t / q) ** K) for K, value in enumerate(sums)))


def g_row_general(r: int, P: ParamPoint, n: int) -> LaurentPoly:
    """One-row sum for general (a,b,c,d), layered over g_row_sym.

    The i,j weights are the regrouped odd-family coefficients at the same
    rescaled point and spectral value, carrying sqrt(t/q) per step and
    summed along i + j; both ladders collapse to the (0,0) term when b=-a
    and d=-c.
    """
    P.require("a", "b", "c", "d", "sqrt_t")
    q, t = P.q, P.t
    hat = P.sqrt_q / P.sqrt_t
    Phat = P.replace(a=hat * P.a, b=hat * P.b, c=hat * P.c, d=hat * P.d)
    shat = q ** (1 - r) * t ** -n
    half = P.sqrt_t / P.sqrt_q
    syms = [g_row_sym(k, P, n) for k in range(r + 1)]
    sums = co_recast_sums(shat, Phat, r)
    return row_sum(n, syms, ((r - w, value * half ** w) for w, value in enumerate(sums)))


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
