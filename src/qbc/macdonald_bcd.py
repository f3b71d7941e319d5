"""Specializations of the five-parameter layer to the three classical
one-parameter families, their explicit one-row expansions, and the
equivalent rewritten displays those expansions were first conjectured in.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from .algebra import LaurentPoly, ParamPoint, format_rational, rat
from .askey_wilson import phi_series
from .errors import MissingSquareRoot, ParameterDegeneracy
from .koornwinder import g_series_list, row_sum
from .qseries import qpoch, qpoch_ratio

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


def _cd_row(r: int, b: Fraction, P: ParamPoint, n: int) -> LaurentPoly:
    """The single-ladder G-sum of families C (parameter b) and D (b = 1),
    without the monic head."""
    terms = ((r - 2 * j, _weight_cd(j, r, b, P, n)) for j in range(r // 2 + 1))
    return row_sum(n, g_series_list(r, n, P), terms)


def mac_row(tag: FamilyTag, r: int, P: ParamPoint, n: int) -> LaurentPoly:
    """Monic one-row polynomial for the family, via the explicit G-sum."""
    if r < 0:
        raise ValueError("row length must be nonnegative")
    P.require("sqrt_t")
    head = _head(r, P)
    if tag.family in (FAMILY_C, FAMILY_D):
        b = Fraction(1) if tag.family == FAMILY_D else tag.param
        return _cd_row(r, b, P, n) * head
    a = tag.param
    terms = (
        (r - i - 2 * j, _weight_b(i, j, r, a, P, n))
        for i in range(r + 1)
        for j in range((r - i) // 2 + 1)
    )
    return row_sum(n, g_series_list(r, n, P), terms) * head


def _lassalle_cd_sum(r: int, b: Fraction, P: ParamPoint, n: int) -> LaurentPoly:
    # positive-power display; the shifted pivot 1 - t^n q^(r-i) replaces the
    # boundary factor of the numerator ladder
    q, t = P.q, P.t
    what = "the conjectured weight"

    def weight(i):
        x = t ** n * q ** (r - i)
        ratio = qpoch_ratio((b / t, x), (q, b * t ** (n - 1) * q ** (r - i)), q, i, what)
        return t ** i * ratio * _pivot(x, q ** -i, what)

    terms = ((r - 2 * i, weight(i)) for i in range(r // 2 + 1))
    return row_sum(n, g_series_list(r, n, P), terms)


def lassalle_form(tag: FamilyTag, r: int, P: ParamPoint, n: int) -> LaurentPoly:
    """One-row polynomial through the conjectured positive-power displays.

    The type-B display is printed with the denominator ladder starting at
    t^(n-1) q^(r-i); matching the other members of the rewrite chain needs
    q^(r-i+1), and that reading is the one verified here.
    """
    if r < 0:
        raise ValueError("row length must be nonnegative")
    P.require("sqrt_t")
    q, t = P.q, P.t
    if tag.family in (FAMILY_C, FAMILY_D):
        b = Fraction(1) if tag.family == FAMILY_D else tag.param
        return _lassalle_cd_sum(r, b, P, n) * _head(r, P)
    a = tag.param
    inner = [_lassalle_cd_sum(k, Fraction(1), P, n) for k in range(r + 1)]
    t2 = t ** (2 * n - 2)

    def weight(i):
        return qpoch_ratio(
            (a, t ** n * q ** (r - i), t2 * q ** (2 * r - i + 1)),
            (q, t ** (n - 1) * q ** (r - i + 1), a * t2 * q ** (2 * r - i)),
            q, i, "the conjectured weight",
        )

    return row_sum(n, inner, ((r - i, weight(i)) for i in range(r + 1))) * _head(r, P)


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

    # (row left to the family-D sum, its weight); the first display sums the
    # family-D rows, the second expands them into the same G terms
    outer = [(r - i, iblock(i)) for i in range(r + 1)]
    d_rows = {k: _cd_row(k, Fraction(1), P, n) for k, w in outer if w}
    first = row_sum(n, d_rows, outer)
    second = row_sum(
        n,
        g_series_list(r, n, P),
        (
            (k - 2 * j, w * _weight_cd(j, k, Fraction(1), P, n))
            for k, w in outer
            if w
            for j in range(k // 2 + 1)
        ),
    )
    third = mac_row(tag, r, P, n)
    return first * head, second * head, third


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
    b = P.b
    if s == q:
        raise ParameterDegeneracy("twisted ladder has a pole at s = q")
    a2 = a * a

    def iblock(i):
        return qpoch_ratio(
            (b / a, s * s / a2 ** 2, q * s / a2), (q, q * s * s / (a2 * a * b), s / a2),
            q, i, "the collapsed ladder",
        ) * (q / b) ** i

    def ladder(p, twist):
        # coefficient of x^p over 2j + i = p; twist = 1 gives the ladder that
        # absorbs the (1 - x^2) prefactor.  Variant C keeps only i = 0: its
        # i-blocks vanish (b = a), but their longer lower ladders could raise
        what = "the twisted ladder" if twist else "the collapsed ladder"
        shift = q ** -twist
        total = Fraction(0)
        for j in range(p // 2 + 1):
            i = p - 2 * j
            if variant == TYPE_C and i:
                continue
            w = (
                qpoch_ratio((a2 * shift,), (q,), q, j, what)
                * qpoch_ratio((s * shift,), (q * s / a2,), q, i + j, what)
                * iblock(i)
                * (q / a2) ** j
            )
            if twist:
                w *= _pivot(s / q, q ** (i + 2 * j), what)
            total += w
        return total

    ser = phi_series(s, P, N)

    def coefficient_check(p, got, want):
        if got == want:
            return None
        return {
            "coefficient": f"x^{p}",
            "expected": format_rational(want),
            "got": format_rational(got),
        }

    def series_check(p):
        return coefficient_check(p, ser.coeff(p), ladder(p, 0))

    def twist_check(p):
        want = ladder(p, 0) - (ladder(p - 2, 0) if p >= 2 else Fraction(0))
        return coefficient_check(p, ladder(p, 1), want)

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
