"""n-variable layer: the five-parameter BC-type q-difference operator, a
triangular eigen-solver for its monic invariant eigenfunctions, the
generating family entering the one-row expansion, and a truncated check of
the kernel-function identity that ties the n-variable and one-variable
operators together.

Every polynomial here is invariant under the signed permutations, so each
is held as an OrbitPoly, by its coefficients on the orbit sums: the G
tables, the row sums, the operator's images, the oracle's solutions and
its cache entries.

The one-row sum is one weight vector on the G table, entry d the scalar
weight on G_(r-d), summed by g_row.  Its weights come from coefficient
families built once per (P, n) at one spectral value and walked, for row
r, at the shift q^-r of it.
"""

import hashlib
import json
import os
import tempfile
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm
from pathlib import Path

from .algebra import (
    ClearedShiftOperator,
    OrbitPoly,
    ParamPoint,
    dominated_partitions,
    padded_partition,
    rat,
    solve_triangular_eigenproblem,
)
from .askey_wilson import _coupled_steps, _odd_steps, _odd_walk, _primed_walk
from .errors import CacheError, DimensionMismatch, ParameterDegeneracy
from .qseries import _add_over_lcm, convolve, qbinom_series
from .reports import nonzero

CACHE_ENV = "QBC_CACHE_DIR"


def cache_root() -> Path:
    """Directory holding solved-polynomial JSON files; overridable by env."""
    return Path(os.environ.get(CACHE_ENV, "cache"))


def _koorn_generator(P: ParamPoint, n: int) -> tuple:
    """The records (u, e), each the factor 1 - u x^e, of the numerator and
    the denominator of the operator's x_1 up-shift coefficient, and its
    scalar divisor.

    The pair factors couple x_1 to every other variable, and they are
    invariant under permutations and inversions of those variables; the
    generator's images under the signed permutations are the 2n terms, an
    up-shift and a down-shift per variable.  The scalar alpha t^(n-1) keeps
    the rank-one case aligned with the one-variable operator up to 1/alpha.
    """
    P.require("a", "b", "c", "d", "sqrt_t")

    def exps(*spots):
        e = [0] * n
        for i, p in spots:
            e[i] += p
        return tuple(e)

    numer = [(u, exps((0, 1))) for u in (P.a, P.b, P.c, P.d)]
    denom = [(1, exps((0, 2))), (P.q, exps((0, 2)))]
    for j in range(1, n):
        pairs = [exps((0, 1), (j, 1)), exps((0, 1), (j, -1))]
        numer += [(P.t, e) for e in pairs]
        denom += [(1, e) for e in pairs]
    return numer, denom, P.alpha * P.t ** (n - 1)


@lru_cache(maxsize=None)
def _koorn_operator(P: ParamPoint, n: int) -> ClearedShiftOperator:
    """The operator in cleared-denominator form, built from its generator's
    records."""
    return ClearedShiftOperator(P, n, *_koorn_generator(P, n))


def koorn_apply(f: OrbitPoly, P: ParamPoint, n: int) -> OrbitPoly:
    """Apply the operator to an orbit form in n variables."""
    return _koorn_operator(P, n).apply(f)


def _cache_path(lam: tuple, P: ParamPoint, n: int) -> Path:
    name = "-".join(str(p) for p in lam if p) or "0"
    return cache_root() / "koornwinder" / f"n{n}_lam{name}_{P.canonical_key()}.json"


def _cache_header(lam: tuple, P: ParamPoint, n: int) -> dict:
    """The fields that tie a cache entry to the request it answers."""
    return {
        "schema": 2,
        "n": n,
        "partition": [p for p in lam if p],
        "point": P.to_json_obj(),
    }


def _checksum(polynomial: dict) -> str:
    """sha256 of an entry's orbit-form body, as _cache_store writes it."""
    return hashlib.sha256(json.dumps(polynomial, sort_keys=True).encode()).hexdigest()


def _cache_load(path: Path, lam: tuple, P: ParamPoint, n: int):
    """The cached solution, or None when the file is missing, unreadable as
    an entry, an entry for another request (a file copied over another
    entry's name, say) or of another schema, one whose polynomial does not
    match its checksum, or one with a weight that is not in the solve's
    basis: not a dominant weight of length n (OrbitPoly.from_json_obj
    refuses those), or not dominated by lam.  The caller then solves and
    overwrites it.  Any other failure to read it is a CacheError."""
    try:
        with path.open() as fh:
            entry = json.load(fh)
        if any(entry[k] != v for k, v in _cache_header(lam, P, n).items()):
            return None
        if entry["sha256"] != _checksum(entry["polynomial"]):
            return None
        poly = OrbitPoly.from_json_obj(entry["polynomial"])
        if (poly.num_vars, poly.scale) != (n, 1) or not set(poly.terms) <= set(
            dominated_partitions(lam, n)
        ):
            return None
        return poly
    except (FileNotFoundError, KeyError, TypeError, ValueError, DimensionMismatch):
        return None
    except OSError as exc:
        raise CacheError.from_os_error(exc, path) from exc


def _cache_store(path: Path, lam: tuple, P: ParamPoint, n: int, poly: OrbitPoly):
    """Write the entry atomically; a failure to write it is a CacheError."""
    body = poly.to_json_obj()
    payload = dict(_cache_header(lam, P, n), polynomial=body, sha256=_checksum(body))
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # json.dumps encodes in C; json.dump streams through the
                # pure-Python encoder, into the same bytes
                fh.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CacheError.from_os_error(exc, path) from exc


def clear_cache() -> bool:
    """Delete what _cache_store writes under cache_root(): the entries
    koornwinder/*.json and leftover koornwinder/*.tmp, then each of the two
    directories if that leaves it empty.  Nothing else is touched.  Returns
    whether the cache directory existed; a failure is a CacheError."""
    root = cache_root()
    if not root.exists():
        return False
    if not root.is_dir():
        raise CacheError(f"{root}: Not a directory")
    store = root / "koornwinder"
    try:
        for path in [*store.glob("*.json"), *store.glob("*.tmp")]:
            path.unlink()
        for directory in (store, root):
            if directory.is_dir() and not any(directory.iterdir()):
                directory.rmdir()
    except OSError as exc:
        raise CacheError.from_os_error(exc, root) from exc
    return True


def koorn_oracle(lam, P: ParamPoint, n: int) -> OrbitPoly:
    """The monic invariant eigenfunction indexed by a partition, as the
    orbit form the solve gives: its coefficients on the orbit sums of the
    weights dominated by lam.

    Solved by back-substitution over the dominance-ordered monomial basis;
    nothing about the closed one-row formulas enters here, which is what
    makes the result usable as a reference value for them.  A solve builds
    the rank's operator once per process and applies it once per distinct
    basis element, the operator keeping its columns, so solving several
    rows at one point shares them.  Solutions are cached on disk, so a
    later run reads each one instead of building and applying the operator
    again.  A cache entry is used only when its schema, rank, partition and
    point match the request, its body matches its sha256 checksum and its
    weights lie in the solve's basis; any other entry, or one that does not
    parse, is solved again and overwritten.
    """
    lam = padded_partition(lam, n)
    P.require("a", "b", "c", "d", "sqrt_t")
    path = _cache_path(lam, P, n)
    cached = _cache_load(path, lam, P, n)
    if cached is not None:
        return cached
    basis = dominated_partitions(lam, n)
    coeffs = solve_triangular_eigenproblem(basis, _koorn_operator(P, n).column)
    result = OrbitPoly._raw(n, coeffs)
    _cache_store(path, lam, P, n, result)
    return result


#: the G table (G_0, ..., G_m) of each (n, P) for the process
_G_TABLES: dict = {}


def g_series_list(rmax: int, n: int, P: ParamPoint) -> tuple:
    """Coefficients (G_0, ..., G_rmax) of the generating function
    prod_i (t u x_i^(+-1); q)_inf / (u x_i^(+-1); q)_inf in u, as orbit
    forms: the product is invariant, and so is each G_j.

    Entry j does not depend on rmax, so one table per (n, P) is kept for
    the process and extended on demand: each entry is built once, however
    the requested orders grow.  The entries are shared by every caller and
    must not be mutated."""
    P.require("sqrt_t")
    table = _G_TABLES.setdefault((n, P), [])
    if len(table) <= rmax:
        if n > 1:
            # each entry reads the rank below to its own order; growing it
            # once here keeps those reads from recomputing its head list
            g_series_list(rmax, n - 1, P)
        h = qbinom_series(P.t, P.q, rmax)
        while len(table) <= rmax:
            table.append(_g_entry(len(table), n, P, h))
    return tuple(table[: rmax + 1])


def _g_entry(m: int, n: int, P: ParamPoint, h: list) -> OrbitPoly:
    """G_m at rank n on its dominant weights, grown from the rank below.

    The rank-n product is the rank-(n - 1) one times the two factors in
    x_n, so G_m is the sum over j of G'_(m - j) H_j(x_n), with G' the
    rank-(n - 1) table at P (the series 1 at rank 0) and
    H_j = sum_(a + b = j) h_a h_b x_n^(a - b), h[j] = (t;q)_j/(q;q)_j.
    The coefficient of x_n^k in H_j is h_((j + k)/2) h_((j - k)/2) for
    |k| <= j with k = j mod 2, and the first n - 1 entries of a dominant
    weight kappa are a dominant weight of rank n - 1.  So

        G_m[kappa] = sum_j G'_(m - j)[kappa_1..kappa_(n-1)]
                     h_((j + kappa_n)/2) h_((j - kappa_n)/2)

    over the j with 0 <= kappa_n <= min(j, kappa_(n-1)) and
    kappa_n = j mod 2.  Each product is formed in integers and each sum
    runs over the lcm of its denominators, one Fraction per weight."""
    if n > 1:
        lower = [g.terms for g in g_series_list(m, n - 1, P)]
    else:
        lower = [{(): 1}] + [{}] * m
    sums: dict = {}  # weight -> [numerator, denominator]
    for j in range(m + 1):
        for head, c in lower[m - j].items():
            cn, cd = c.numerator, c.denominator
            for k in range(j % 2, min(j, head[-1] if head else j) + 1, 2):
                x, y = h[(j + k) // 2], h[(j - k) // 2]
                tn, td = cn * x.numerator * y.numerator, cd * x.denominator * y.denominator
                _add_over_lcm(sums.setdefault(head + (k,), [0, 1]), tn, td)
    return OrbitPoly(n, {key: Fraction(*entry) for key, entry in sums.items()})


def g_series(r: int, n: int, P: ParamPoint) -> OrbitPoly:
    if r < 0:
        raise ValueError("series order must be nonnegative")
    return g_series_list(r, n, P)[r]


def row_sum(n: int, terms) -> OrbitPoly:
    """Sum of p * w over the (p, w) pairs of terms, each p an orbit form in
    n variables and all on one lattice scale, as one integer linear
    combination of their orbit coefficients.  Each p with w != 0 is cleared
    on the fly to integer numerators over the lcm D of its denominators,
    and scaled by w over the lcm L of every product D times the denominator
    of w; the integers are added per weight, and each output coefficient is
    one Fraction over L.
    """
    ops, scale = [], None
    for p, w in terms:
        if not w:
            continue
        if type(p) is not OrbitPoly:
            raise TypeError(f"a row sum adds orbit forms, not {p!r}")
        if p.num_vars != n or scale not in (None, p.scale):
            raise DimensionMismatch(f"operand ({p.num_vars} vars, scale {p.scale}) of a row sum")
        scale = p.scale
        den = lcm(*(c.denominator for c in p.terms.values()))
        ops.append((p.terms, den, w.numerator, den * w.denominator))
    common = lcm(*(product for *_, product in ops))
    total: dict = {}
    for coeffs, den, wn, product in ops:
        mult = wn * (common // product)
        for e, c in coeffs.items():
            total[e] = total.get(e, 0) + c.numerator * (den // c.denominator) * mult
    terms = {e: Fraction(v, common) for e, v in total.items() if v}
    return OrbitPoly._raw(n, terms, scale or 1)


def g_row(weights, r: int, P: ParamPoint, n: int) -> OrbitPoly:
    """The G-table sum of every one-row display: weights[d] on G_(r-d)."""
    gs = g_series_list(r, n, P)
    return row_sum(n, ((gs[r - d], w) for d, w in enumerate(weights)))


@lru_cache(maxsize=None)
def _primed_family(P: ParamPoint, n: int) -> tuple:
    """g_row_sym's coefficient family: the primed even family's steps at the
    point rescaled by sqrt(q/t), built at s0 = q t^(-n), and s0; row r
    takes them at q^(-r) s0.  Memoized per (P, n) for the process; shared,
    and must not be mutated."""
    hat = P.sqrt_q / P.sqrt_t
    s0 = P.q * P.t ** -n
    return _coupled_steps(s0, P.replace(a=hat * P.a, c=hat * P.c), 1), s0


@lru_cache(maxsize=None)
def _odd_family(P: ParamPoint, n: int) -> tuple:
    """g_row_general's coefficient family: the odd family's steps at the
    point rescaled by sqrt(q/t), built at s0 = q t^(-n); row r takes them
    at q^(-r) s0.  Memoized per (P, n) for the process; shared, and must not
    be mutated."""
    hat = P.sqrt_q / P.sqrt_t
    Phat = P.replace(a=hat * P.a, b=hat * P.b, c=hat * P.c, d=hat * P.d)
    return _odd_steps(P.q * P.t ** -n, Phat)


@lru_cache(maxsize=None)
def g_row_sym(r: int, P: ParamPoint, n: int) -> tuple:
    """Weights of the one-row sum for the chained parameter family
    (a, -a, c, -c): entry d is the weight on G_(r-d).

    The k,l weights are the primed even-family coefficients evaluated at a
    point rescaled by sqrt(q/t) and at the pinned spectral value
    q^(1-r) t^(-n), carrying one factor t/q per lattice step; they enter
    summed along k + l = d/2.

    g_row_general reads rows 0..r of them for row r, so the weights are
    memoized per (r, P, n) for the process.
    """
    P.require("a", "c", "sqrt_t")
    steps, s0 = _primed_family(P, n)
    tq = P.t / P.q
    weights = [Fraction(0)] * (r + 1)
    for K, value in enumerate(_primed_walk(steps, P.q, s0, r // 2, -r)):
        weights[2 * K] = value * tq ** K
    return tuple(weights)


def g_row_weights(r: int, P: ParamPoint, n: int) -> list:
    """Weights of the one-row sum for general (a,b,c,d): entry d is the
    weight on G_(r-d).

    The i,j weights are the odd-family coefficients (the paper writes them
    regrouped, with ladders in i + j) at the same rescaled point and
    spectral value as g_row_sym's, carrying sqrt(t/q) per step and summed
    along i + j = w; the sum at w weighs row r - w of g_row_sym, so the
    weights are the odd sums convolved with g_row_sym's.  Both ladders
    collapse to the (0,0) term when b=-a and d=-c.
    """
    P.require("a", "b", "c", "d", "sqrt_t")
    syms = [g_row_sym(k, P, n) for k in range(r + 1)]
    half = P.sqrt_t / P.sqrt_q
    odd = _odd_walk(_odd_family(P, n), P.q, r, -r)
    odd = [value * half ** w for w, value in enumerate(odd)]
    return convolve(odd, ((w, syms[r - w][::2]) for w in range(r + 1) if odd[w]), r + 1)


def g_row_general(r: int, P: ParamPoint, n: int) -> OrbitPoly:
    """One-row sum for general (a,b,c,d): g_row_weights on the G table."""
    return g_row(g_row_weights(r, P, n), r, P, n)


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
        # y^j of the cleared y-side meets DW[e - j] through lcd[j] and
        # W[e - j] through one scalar weight
        operands = []
        for j in range(min(e, 6) + 1):
            power = shift + e - j
            weight = lcd[j] * const - (
                gup[j] * (q ** power - 1) + gdown[j] * (q ** -power - 1)
            ) / alpha_tilde
            operands += [(DW[e - j], lcd[j]), (W[e - j], weight)]
        residual = row_sum(n, operands)
        if residual.is_zero():
            return None
        # an orbit form leads at the monomial its expansion leads at
        exps, value = residual.leading()
        return nonzero(value, coefficient=f"y^{shift + e} x^{list(exps)}")

    return [
        (
            f"n{n}-beta{beta}-y{e:02d}",
            "kernel-identity-truncated",
            {"n": n, "beta": beta, "y_degree": e},
            partial(residual_check, e),
        )
        for e in range(deg + 1)
    ]
