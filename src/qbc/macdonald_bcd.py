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
from .koornwinder import g_series_list
from .qseries import qpoch, qpoch_multi

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


def _nonzero(value, what):
    if value == 0:
        raise ParameterDegeneracy(f"vanishing {what}")
    return value


def _head(r: int, P: ParamPoint) -> Fraction:
    return qpoch(P.q, P.q, r) / _nonzero(qpoch(P.t, P.q, r), "one-row prefactor")


def _weight_cd(j: int, r: int, b: Fraction, P: ParamPoint, n: int) -> Fraction:
    # family D is the b = 1 case of the same single-ladder weight
    q, t = P.q, P.t
    num = qpoch(b / t, q, j) * qpoch(t ** -n * q ** -r, q, j)
    den = qpoch(q, q, j) * qpoch(t ** (1 - n) * q ** (1 - r) / b, q, j)
    _nonzero(den, "lower Pochhammer in the one-row weight")
    pivot = _nonzero(1 - t ** -n * q ** -r, "one-row weight pivot")
    ratio = (1 - t ** -n * q ** (-r + 2 * j)) / pivot
    return num / den * ratio * (t * t / (q * b)) ** j


def _weight_b(i: int, j: int, r: int, a: Fraction, P: ParamPoint, n: int) -> Fraction:
    # the two (i+j)-ladders share the base t^(1-n) q^(1-r), so the numerator
    # i-ladder is cancelled against the denominator head, leaving only the
    # tail of length j; the uncancelled form is 0/0 at n = 1, i + j = r
    q, t = P.q, P.t
    num = (
        qpoch(a, q, i)
        * qpoch(t ** -n * q ** -r, q, i + j)
        * qpoch(t ** (2 - 2 * n) * q ** (-2 * r), q, i)
        * qpoch(1 / t, q, j)
    )
    den = (
        qpoch(q, q, i)
        * qpoch(t ** (1 - n) * q ** -r, q, i)
        * qpoch(t ** (1 - n) * q ** (1 - r + i), q, j)
        * qpoch(t ** (2 - 2 * n) * q ** (1 - 2 * r) / a, q, i)
        * qpoch(q, q, j)
    )
    _nonzero(den, "lower Pochhammer in the one-row weight")
    pivot = _nonzero(1 - t ** -n * q ** -r, "one-row weight pivot")
    ratio = (1 - t ** -n * q ** (-r + i + 2 * j)) / pivot
    return num / den * ratio * (t / a) ** i * (t * t / q) ** j


def mac_row(tag: FamilyTag, r: int, P: ParamPoint, n: int) -> LaurentPoly:
    """Monic one-row polynomial for the family, via the explicit G-sum."""
    if r < 0:
        raise ValueError("row length must be nonnegative")
    P.require("sqrt_t")
    head = _head(r, P)
    gs = g_series_list(r, n, P)
    total = LaurentPoly.zero(n)
    if tag.family in (FAMILY_C, FAMILY_D):
        b = Fraction(1) if tag.family == FAMILY_D else tag.param
        for j in range(r // 2 + 1):
            w = _weight_cd(j, r, b, P, n)
            if w:
                total = total + gs[r - 2 * j] * w
    else:
        a = tag.param
        for i in range(r + 1):
            for j in range((r - i) // 2 + 1):
                w = _weight_b(i, j, r, a, P, n)
                if w:
                    total = total + gs[r - i - 2 * j] * w
    return total * head


def _lassalle_cd_sum(r: int, b: Fraction, P: ParamPoint, n: int, gs) -> LaurentPoly:
    # positive-power display; the shifted pivot 1 - t^n q^(r-i) replaces the
    # boundary factor of the numerator ladder
    q, t = P.q, P.t
    total = LaurentPoly.zero(n)
    for i in range(r // 2 + 1):
        num = qpoch(b / t, q, i) * qpoch(t ** n * q ** (r - i), q, i)
        den = qpoch(q, q, i) * qpoch(b * t ** (n - 1) * q ** (r - i), q, i)
        _nonzero(den, "lower Pochhammer in the conjectured weight")
        pivot = _nonzero(1 - t ** n * q ** (r - i), "conjectured weight pivot")
        w = t ** i * num / den * (1 - t ** n * q ** (r - 2 * i)) / pivot
        if w:
            total = total + gs[r - 2 * i] * w
    return total


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
    gs = g_series_list(r, n, P)
    if tag.family in (FAMILY_C, FAMILY_D):
        b = Fraction(1) if tag.family == FAMILY_D else tag.param
        return _lassalle_cd_sum(r, b, P, n, gs) * _head(r, P)
    a = tag.param
    inner = [_lassalle_cd_sum(k, Fraction(1), P, n, gs) for k in range(r + 1)]
    total = LaurentPoly.zero(n)
    for i in range(r + 1):
        num = (
            qpoch(a, q, i)
            * qpoch(t ** n * q ** (r - i), q, i)
            * qpoch(t ** (2 * n - 2) * q ** (2 * r - i + 1), q, i)
        )
        den = (
            qpoch(q, q, i)
            * qpoch(t ** (n - 1) * q ** (r - i + 1), q, i)
            * qpoch(a * t ** (2 * n - 2) * q ** (2 * r - i), q, i)
        )
        _nonzero(den, "lower Pochhammer in the conjectured weight")
        w = num / den
        if w:
            total = total + inner[r - i] * w
    return total * _head(r, P)


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
    gs = g_series_list(r, n, P)
    head = _head(r, P)

    def iblock(i):
        num = (
            qpoch(a, q, i)
            * qpoch(t ** -n * q ** (1 - r), q, i)
            * qpoch(t ** (2 - 2 * n) * q ** (-2 * r), q, i)
        )
        den = (
            qpoch(q, q, i)
            * qpoch(t ** (1 - n) * q ** -r, q, i)
            * qpoch(t ** (2 - 2 * n) * q ** (1 - 2 * r) / a, q, i)
        )
        _nonzero(den, "lower Pochhammer in the rewritten weight")
        return num / den * (t / a) ** i

    def jblock(j, offset):
        # offset is the row index already consumed by the outer sum
        num = qpoch(1 / t, q, j) * qpoch(t ** -n * q ** (-r + offset), q, j)
        den = qpoch(q, q, j) * qpoch(t ** (1 - n) * q ** (1 - r + offset), q, j)
        _nonzero(den, "lower Pochhammer in the rewritten weight")
        pivot = _nonzero(1 - t ** -n * q ** (-r + offset), "rewritten weight pivot")
        ratio = (1 - t ** -n * q ** (-r + offset + 2 * j)) / pivot
        return num / den * ratio * (t * t / q) ** j

    def d_row(k):
        # rewritten family-D display for a single row, no monic head
        out = LaurentPoly.zero(n)
        for j in range(k // 2 + 1):
            num = qpoch(1 / t, q, j) * qpoch(t ** -n * q ** -k, q, j)
            den = qpoch(q, q, j) * qpoch(t ** (1 - n) * q ** (1 - k), q, j)
            _nonzero(den, "lower Pochhammer in the rewritten weight")
            pivot = _nonzero(1 - t ** -n * q ** -k, "rewritten weight pivot")
            wj = num / den * (1 - t ** -n * q ** (-k + 2 * j)) / pivot * (t * t / q) ** j
            if wj:
                out = out + gs[k - 2 * j] * wj
        return out

    first = LaurentPoly.zero(n)
    for i in range(r + 1):
        wi = iblock(i)
        if wi:
            first = first + d_row(r - i) * wi

    second = LaurentPoly.zero(n)
    for i in range(r + 1):
        wi = iblock(i)
        if not wi:
            continue
        for j in range((r - i) // 2 + 1):
            w = wi * jblock(j, i)
            if w:
                second = second + gs[r - i - 2 * j] * w

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
        num = qpoch_multi((b / a, s * s / a2 ** 2, q * s / a2), q, i)
        den = _nonzero(
            qpoch_multi((q, q * s * s / (a2 * a * b), s / a2), q, i),
            "lower Pochhammer in the collapsed ladder",
        )
        return num / den * (q / b) ** i

    def plain(p):
        if variant == TYPE_C:
            if p % 2:
                return Fraction(0)
            j = p // 2
            num = qpoch(a2, q, j) * qpoch(s, q, j)
            den = _nonzero(
                qpoch(q, q, j) * qpoch(q * s / a2, q, j),
                "lower Pochhammer in the collapsed ladder",
            )
            return num / den * (q / a2) ** j
        total = Fraction(0)
        for j in range(p // 2 + 1):
            i = p - 2 * j
            num = qpoch(a2, q, j) * qpoch(s, q, i + j)
            den = _nonzero(
                qpoch(q, q, j) * qpoch(q * s / a2, q, i + j),
                "lower Pochhammer in the collapsed ladder",
            )
            total += num / den * iblock(i) * (q / a2) ** j
        return total

    def twisted(p):
        pivot = 1 - s / q
        if variant == TYPE_C:
            if p % 2:
                return Fraction(0)
            j = p // 2
            num = qpoch(a2 / q, q, j) * qpoch(s / q, q, j)
            den = _nonzero(
                qpoch(q, q, j) * qpoch(q * s / a2, q, j),
                "lower Pochhammer in the twisted ladder",
            )
            return num / den * (1 - q ** (2 * j - 1) * s) / pivot * (q / a2) ** j
        total = Fraction(0)
        for j in range(p // 2 + 1):
            i = p - 2 * j
            num = qpoch(a2 / q, q, j) * qpoch(s / q, q, i + j)
            den = _nonzero(
                qpoch(q, q, j) * qpoch(q * s / a2, q, i + j),
                "lower Pochhammer in the twisted ladder",
            )
            total += (
                num / den * iblock(i) * (1 - q ** (i + 2 * j - 1) * s) / pivot * (q / a2) ** j
            )
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
        return coefficient_check(p, ser.coeff(p), plain(p))

    def twist_check(p):
        want = plain(p) - (plain(p - 2) if p >= 2 else Fraction(0))
        return coefficient_check(p, twisted(p), want)

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
