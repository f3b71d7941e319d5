"""Specializations of the five-parameter layer to the three classical
one-parameter families, their explicit one-row expansions, and the
equivalent rewritten displays those expansions were first conjectured in.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from typing import Optional

from .algebra import OrbitPoly, ParamPoint, format_rational, rat
from .askey_wilson import FULL_BASE, collapse_sums, phi_series
from .errors import MissingSquareRoot, ParameterDegeneracy
from .koornwinder import g_series_list, row_sum
from .qseries import qpoch, qpoch_ratio
from .reports import mismatch

FAMILY_B = "B"
FAMILY_C = "C"
FAMILY_D = "D"

# lemma variants share the family letters: the C-type chain has the second
# parameter tied to the first, the B-type chain leaves it free
TYPE_C = FAMILY_C
TYPE_B = FAMILY_B


@dataclass(frozen=True)
class FamilyTag:
    """Which classical family, plus its free parameter as an exact root.

    sqrt_param is sqrt(b) for family C and sqrt(a) for family B; family D
    has no free parameter.  Carrying the root keeps the operator's scalar
    prefactor rational at the specialized point.
    """

    family: str
    sqrt_param: Optional[Fraction] = None

    def __post_init__(self):
        if self.family not in (FAMILY_B, FAMILY_C, FAMILY_D):
            raise ValueError(f"unknown family {self.family!r}")
        if self.sqrt_param is not None:
            object.__setattr__(self, "sqrt_param", rat(self.sqrt_param))
            if self.sqrt_param == 0:
                raise ParameterDegeneracy("family parameter must be nonzero")

    @property
    def param(self) -> Fraction:
        if self.sqrt_param is None:
            raise MissingSquareRoot(
                f"family {self.family} needs its square-root parameter"
            )
        return self.sqrt_param * self.sqrt_param


def specialize_params(tag: FamilyTag, P: ParamPoint) -> ParamPoint:
    """Four-parameter point realizing the family.

    C: (-sqrt(b), sqrt(b), -sqrt(q) sqrt(b), sqrt(q) sqrt(b))
    B: (-1, a, -sqrt(q), sqrt(q))
    D: family B at a = 1.
    """
    sq = P.sqrt_q
    if tag.family == FAMILY_D:
        return P.replace(a=-1, b=1, c=-sq, d=sq)
    if tag.family == FAMILY_C:
        sb = tag.sqrt_param
        if sb is None:
            raise MissingSquareRoot("family C needs sqrt(b)")
        return P.replace(a=-sb, b=sb, c=-sq * sb, d=sq * sb)
    sa = tag.sqrt_param
    if sa is None:
        raise MissingSquareRoot("family B needs sqrt(a)")
    return P.replace(a=-1, b=sa * sa, c=-sq, d=sq)


def _head(r: int, P: ParamPoint) -> Fraction:
    return qpoch_ratio((P.q,), (P.t,), P.q, r, "the one-row prefactor")


def _pivot(x: Fraction, qk: Fraction, what: str) -> Fraction:
    # the well-poised factor (1 - x q^k) / (1 - x), given q^k: a quotient of
    # length-one ladders, whose base plays no part
    return qpoch_ratio((x * qk,), (x,), qk, 1, what)


def _weight_cd(j: int, r: int, b: Fraction, P: ParamPoint, n: int) -> Fraction:
    # family D is the b = 1 case of the same single-ladder weight
    q, t = P.q, P.t
    x = t ** -n * q ** -r
    what = "the one-row weight"
    return (
        qpoch_ratio((b / t, x), (q, t ** (1 - n) * q ** (1 - r) / b), q, j, what)
        * _pivot(x, q ** (2 * j), what)
        * (t * t / (q * b)) ** j
    )


def _weight_b(i: int, j: int, r: int, a: Fraction, P: ParamPoint, n: int) -> Fraction:
    # the two (i+j)-ladders share the base t^(1-n) q^(1-r), so the numerator
    # i-ladder is cancelled against the denominator head, leaving only the
    # tail of length j; the uncancelled form is 0/0 at n = 1, i + j = r
    q, t = P.q, P.t
    x = t ** -n * q ** -r
    t2 = t ** (2 - 2 * n)
    what = "the one-row weight"
    return (
        qpoch(x, q, i + j)
        * qpoch_ratio((a, t2 * q ** (-2 * r)), (q, t * x, t2 * q ** (1 - 2 * r) / a), q, i, what)
        * qpoch_ratio((1 / t,), (q, t ** (1 - n) * q ** (1 - r + i)), q, j, what)
        * _pivot(x, q ** (i + 2 * j), what)
        * (t / a) ** i
        * (t * t / q) ** j
    )


def _cd_row(r: int, b: Fraction, P: ParamPoint, n: int, head) -> OrbitPoly:
    """The single-ladder G-sum of families C (parameter b) and D (b = 1),
    each weight times head."""
    gs = g_series_list(r, n, P)
    terms = ((gs[r - 2 * j], _weight_cd(j, r, b, P, n) * head) for j in range(r // 2 + 1))
    return row_sum(n, terms)


def mac_row(tag: FamilyTag, r: int, P: ParamPoint, n: int) -> OrbitPoly:
    """Monic one-row polynomial for the family, via the explicit G-sum with
    the monic head folded into its weights."""
    if r < 0:
        raise ValueError("row length must be nonnegative")
    P.require("sqrt_t")
    head = _head(r, P)
    if tag.family in (FAMILY_C, FAMILY_D):
        b = Fraction(1) if tag.family == FAMILY_D else tag.param
        return _cd_row(r, b, P, n, head)
    a = tag.param
    gs = g_series_list(r, n, P)
    terms = (
        (gs[r - i - 2 * j], _weight_b(i, j, r, a, P, n) * head)
        for i in range(r + 1)
        for j in range((r - i) // 2 + 1)
    )
    return row_sum(n, terms)


def _lassalle_cd_sum(r: int, b: Fraction, P: ParamPoint, n: int, head) -> OrbitPoly:
    # positive-power display, each weight times head; the shifted pivot
    # 1 - t^n q^(r-i) replaces the boundary factor of the numerator ladder
    q, t = P.q, P.t
    what = "the conjectured weight"

    def weight(i):
        x = t ** n * q ** (r - i)
        ratio = qpoch_ratio((b / t, x), (q, b * t ** (n - 1) * q ** (r - i)), q, i, what)
        return t ** i * ratio * _pivot(x, q ** -i, what)

    gs = g_series_list(r, n, P)
    return row_sum(n, ((gs[r - 2 * i], weight(i) * head) for i in range(r // 2 + 1)))


@lru_cache(maxsize=None)
def _lassalle_d_row(r: int, P: ParamPoint, n: int) -> OrbitPoly:
    """Family D's positive-power row without its head.  Every type-B
    display reads rows 0..r of it and family D's display reads row r, so
    the rows are memoized per (r, P, n) for the process; a row is shared by
    every caller and must not be mutated."""
    return _lassalle_cd_sum(r, Fraction(1), P, n, 1)


def lassalle_form(tag: FamilyTag, r: int, P: ParamPoint, n: int) -> OrbitPoly:
    """One-row polynomial through the conjectured positive-power displays.

    The type-B display is printed with the denominator ladder starting at
    t^(n-1) q^(r-i); matching the other members of the rewrite chain needs
    q^(r-i+1), and that reading is the one verified here.
    """
    if r < 0:
        raise ValueError("row length must be nonnegative")
    P.require("sqrt_t")
    q, t = P.q, P.t
    head = _head(r, P)
    if tag.family == FAMILY_C:
        return _lassalle_cd_sum(r, tag.param, P, n, head)
    if tag.family == FAMILY_D:
        return row_sum(n, [(_lassalle_d_row(r, P, n), head)])
    a = tag.param
    inner = [_lassalle_d_row(k, P, n) for k in range(r + 1)]
    t2 = t ** (2 * n - 2)

    def weight(i):
        return qpoch_ratio(
            (a, t ** n * q ** (r - i), t2 * q ** (2 * r - i + 1)),
            (q, t ** (n - 1) * q ** (r - i + 1), a * t2 * q ** (2 * r - i)),
            q, i, "the conjectured weight",
        )

    return row_sum(n, ((inner[r - i], weight(i) * head) for i in range(r + 1)))


def lassalle_b_forms(tag: FamilyTag, r: int, P: ParamPoint, n: int):
    """The three rewritten type-B displays, all monic-normalized.

    The first layers the single-ladder family-D sum, the second expands it,
    the third merges the (i+j)-ladders; transcription slips would break the
    exact agreement of the three.
    """
    if tag.family != FAMILY_B:
        raise ValueError("the rewrite chain is specific to family B")
    P.require("sqrt_t")
    q, t = P.q, P.t
    a = tag.param
    head = _head(r, P)
    t2 = t ** (2 - 2 * n)

    def iblock(i):
        return qpoch_ratio(
            (a, t ** -n * q ** (1 - r), t2 * q ** (-2 * r)),
            (q, t ** (1 - n) * q ** -r, t2 * q ** (1 - 2 * r) / a),
            q, i, "the rewritten weight",
        ) * (t / a) ** i

    # (row left to the family-D sum, its weight with the monic head); the
    # first display sums the family-D rows, the second expands them into
    # the same G terms
    outer = [(r - i, iblock(i) * head) for i in range(r + 1)]
    first = row_sum(n, ((_cd_row(k, Fraction(1), P, n, 1), w) for k, w in outer if w))
    gs = g_series_list(r, n, P)
    second = row_sum(
        n,
        (
            (gs[k - 2 * j], w * _weight_cd(j, k, Fraction(1), P, n))
            for k, w in outer
            if w
            for j in range(k // 2 + 1)
        ),
    )
    return first, second, mac_row(tag, r, P, n)


def simplification_lemma_check(variant: str, s, P: ParamPoint, N: int) -> list:
    """Check plan for the quadratic-pair simplification, one entry
    (id suffix, anchor, degrees, check) per coefficient and ladder.

    At a point whose last two parameters are -sqrt(q) a, sqrt(q) a the
    fourfold series collapses to explicit ladders: a single one when the
    second parameter equals a (variant TYPE_C), a double one when it stays
    free (variant TYPE_B).  Both variants also assert the twisted ladder
    that absorbs a (1 - x^2) prefactor.
    """
    if variant not in (TYPE_C, TYPE_B):
        raise ValueError(f"unknown variant {variant!r}")
    P.require("a", "b", "c", "d")
    s = rat(s)
    q = P.q
    a = -P.a
    if P.c != -P.sqrt_q * a or P.d != P.sqrt_q * a:
        raise ParameterDegeneracy(
            "point does not realize the quadratic-pair pattern (-a, *, -sqrt(q) a, sqrt(q) a)"
        )
    if variant == TYPE_C and P.b != a:
        raise ParameterDegeneracy("variant C ties the second parameter to the first")
    if s == q:
        raise ParameterDegeneracy("twisted ladder has a pole at s = q")

    @cache  # for the life of the plan; a walk that raises is not kept
    def ladder(p, twist):
        # coefficient of x^p; twist = 1 gives the ladder that absorbs the
        # (1 - x^2) prefactor.  The walk covers only the degrees <= p: a
        # lower factor that vanishes at a term vanishes a step up in i or j
        # too, so the walk raises exactly when a term of degree p has one.
        # Variant C walks only i = 0: its i-blocks vanish (b = a), but their
        # longer lower ladders could raise
        if variant == TYPE_C and p % 2:
            return Fraction(0)
        tops = [(p - i) // 2 for i in range(1 if variant == TYPE_C else p + 1)]
        what = "the twisted ladder" if twist else "the collapsed ladder"
        value = collapse_sums(FULL_BASE, s, P, tops, what, twist)[p]
        return value * (1 - q ** (p - 1) * s) / (1 - s / q) if twist else value

    ser = phi_series(s, P, N)

    def series_check(p):
        return mismatch(ser[p], ladder(p, 0), coefficient=f"x^{p}")

    def twist_check(p):
        want = ladder(p, 0) - (ladder(p - 2, 0) if p >= 2 else Fraction(0))
        return mismatch(ladder(p, 1), want, coefficient=f"x^{p}")

    tag = variant.lower()
    s_text = format_rational(s)
    return [
        (f"{tag}-{kind}-x{p:02d}", anchor, {"s": s_text, "x_degree": p}, partial(check, p))
        for kind, anchor, check in (
            ("series", "quadratic-ladder-collapse", series_check),
            ("twist", "quadratic-prefactor-twist", twist_check),
        )
        for p in range(N + 1)
    ]
