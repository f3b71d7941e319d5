"""Specializations of the five-parameter layer to the three classical
one-parameter families, their explicit one-row expansions, and the
equivalent rewritten displays those expansions were first conjectured in.

Each display is one weight vector on the G table, entry d the scalar weight
on G_(r-d), summed by koornwinder.g_row.  The weights are walked once, by
running ratios in integers (qseries.walk): type B's over the triangle
i + 2j <= r, the others along one index, and type B's positive-power
display as its walk convolved with family D's weights.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from typing import Optional

from .algebra import OrbitPoly, ParamPoint, format_rational, rat
from .askey_wilson import FULL_BASE, collapse_sums, phi_series
from .errors import MissingSquareRoot, ParameterDegeneracy
from .koornwinder import g_row, g_series_list, row_sum
from .qseries import convolve, qpoch, qpoch_ratio, walk
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


#: the step of a walk that runs along one index only
_NO_STEP = (1, [], [])

_TAG_D = FamilyTag(FAMILY_D)

_ONE_ROW = "the one-row weight"
_CONJECTURED = "the conjectured weight"


@lru_cache(maxsize=None)
def _mac_steps(tag: FamilyTag, P: ParamPoint, n: int) -> tuple:
    """The outer and inner steps of mac_row's weights for the family at
    rank n, built at row 0: each record (C, x, y, p) has a C carrying
    q^(-p r), so row r takes them at shift -r.  Family B walks the triangle
    i + 2j <= r, along i at j = 0 and then along j; the two (i+j)-ladders
    share the base t^(1-n) q^(1-r), so the numerator i-ladder is cancelled
    against the denominator head, leaving only the tail of length j (the
    uncancelled form is 0/0 at n = 1, i + j = r).  Families C (parameter b)
    and D (b = 1) walk along j alone.  Memoized per (tag, P, n) for the
    process; shared, and must not be mutated."""
    q, t = P.q, P.t
    x = t ** -n  # t^-n q^-r at row r
    if tag.family == FAMILY_B:
        a = tag.param
        t2 = t ** (2 - 2 * n)
        outer = (
            t / a,
            [(a, 1, 0, 0), (t2, 1, 0, 2), (x, 1, 0, 1)],
            [(q, 1, 0, 0), (t * x, 1, 0, 1), (t2 * q / a, 1, 0, 2)],
        )
        inner = (t * t / q, [(1 / t, 0, 1, 0), (x, 1, 1, 1)], [(q, 0, 1, 0), (t * x * q, 1, 1, 1)])
        return outer, inner
    b = Fraction(1) if tag.family == FAMILY_D else tag.param
    inner = (
        t * t / (q * b),
        [(b / t, 0, 1, 0), (x, 0, 1, 1)],
        [(q, 0, 1, 0), (t * x * q / b, 0, 1, 1)],
    )
    return _NO_STEP, inner


def _mac_weights(tag: FamilyTag, r: int, P: ParamPoint, n: int, scale) -> list:
    """mac_row's weights for row r, each times scale: entry d is the weight
    on G_(r-d), with d = i + 2j, the walk's sum times the well-poised factor
    (1 - x q^d) / (1 - x) at x = t^-n q^-r.  A zero 1 - x raises, whatever
    the sums: it is the lower ladder (x; q)_1 of the display's first term."""
    q = P.q
    tops = [(r - i) // 2 for i in range(r + 1)] if tag.family == FAMILY_B else [r // 2]
    sums = walk(tops, q, *_mac_steps(tag, P, n), _ONE_ROW, shift=-r, stride=2)
    x = P.t ** -n * q ** -r
    base = qpoch(x, q, 1)
    if not base:
        raise ParameterDegeneracy(f"vanishing lower Pochhammer in {_ONE_ROW}")
    xn, xd = x.numerator, x.denominator
    sn, sd = scale.numerator * base.denominator, scale.denominator * base.numerator
    for d, value in enumerate(sums):
        if value:
            qn, qd = q.numerator ** d, q.denominator ** d
            sums[d] = Fraction(value.numerator * (xd * qd - xn * qn) * sn,
                               value.denominator * xd * qd * sd)
    return sums


def mac_row_weights(tag: FamilyTag, r: int, P: ParamPoint, n: int) -> list:
    """The weights of mac_row's G-sum, the monic head folded in: entry d
    is the weight on G_(r-d)."""
    if r < 0:
        raise ValueError("row length must be nonnegative")
    P.require("sqrt_t")
    return _mac_weights(tag, r, P, n, _head(r, P))


def mac_row(tag: FamilyTag, r: int, P: ParamPoint, n: int) -> OrbitPoly:
    """Monic one-row polynomial for the family, via the explicit G-sum with
    the monic head folded into its weights."""
    return g_row(mac_row_weights(tag, r, P, n), r, P, n)


@lru_cache(maxsize=None)
def _lassalle_steps(tag: FamilyTag, P: ParamPoint, n: int) -> tuple:
    """The outer and inner steps of lassalle_form's walks for the family at
    rank n, built at row 0: each record (C, x, y, p) has a C carrying
    q^(p r), so row r takes them at shift r.  The ladders' bases, such as
    t^n q^(r-i), move down a power of q per step, so each step adds its
    factor at the bottom, a record with x or y = -1.  Families C (parameter
    b) and D (b = 1) walk along i as the inner index; family B's i-weights
    walk along i as the outer one.  Memoized per (tag, P, n) for the
    process; shared, and must not be mutated."""
    q, t = P.q, P.t
    tn = t ** n / q  # t^n q^(r-1) at row r
    if tag.family == FAMILY_B:
        a = tag.param
        t2 = t ** (2 * n - 2)
        outer = (
            1,
            [(a, 1, 0, 0), (tn, -1, 0, 1), (t2, -1, 0, 2)],
            [(q, 1, 0, 0), (tn * q / t, -1, 0, 1), (a * t2 / q, -1, 0, 2)],
        )
        return outer, _NO_STEP
    b = Fraction(1) if tag.family == FAMILY_D else tag.param
    inner = (t, [(b / t, 0, 1, 0), (tn, 0, -1, 1)], [(q, 0, 1, 0), (b * tn / t, 0, -1, 1)])
    return _NO_STEP, inner


def _lassalle_cd_weights(tag: FamilyTag, r: int, P: ParamPoint, n: int, scale) -> list:
    """The positive-power weights of family C or D for row r, each times
    scale: entry d = 2i is the weight on G_(r-d), the walk's sum times the
    shifted pivot (1 - x q^-2i) / (1 - x q^-i) at x = t^n q^r.  A zero
    1 - x q^-i raises at every i <= r/2, whatever the sums."""
    q = P.q
    sums = walk([r // 2], q, *_lassalle_steps(tag, P, n), _CONJECTURED, shift=r, stride=2)
    x = P.t ** n * q ** r
    xn, xd = x.numerator, x.denominator
    sn, sd = scale.numerator, scale.denominator
    for i in range(r // 2 + 1):
        pn, pd = q.denominator ** i, q.numerator ** i  # q^-i
        low = xd * pd - xn * pn
        if not low:
            raise ParameterDegeneracy(f"vanishing lower Pochhammer in {_CONJECTURED}")
        value = sums[2 * i]
        if value:
            p2n, p2d = pn * pn, pd * pd
            sums[2 * i] = Fraction(value.numerator * (xd * p2d - xn * p2n) * pd * sn,
                                   value.denominator * p2d * low * sd)
    return sums


@lru_cache(maxsize=None)
def _lassalle_d_weights(r: int, P: ParamPoint, n: int) -> tuple:
    """Family D's positive-power weights for row r, without the head.
    Every type-B display reads rows 0..r of them and family D's display
    reads row r, so they are memoized per (r, P, n) for the process."""
    return tuple(_lassalle_cd_weights(_TAG_D, r, P, n, 1))


def lassalle_weights(tag: FamilyTag, r: int, P: ParamPoint, n: int) -> list:
    """The weights of lassalle_form's G-sum, the monic head folded in:
    entry d is the weight on G_(r-d).  Type B's are one walk along i, each
    weighing family D's row r - i: the walk convolved with family D's
    weights."""
    if r < 0:
        raise ValueError("row length must be nonnegative")
    P.require("sqrt_t")
    head = _head(r, P)
    if tag.family == FAMILY_C:
        return _lassalle_cd_weights(tag, r, P, n, head)
    if tag.family == FAMILY_D:
        return [w * head for w in _lassalle_d_weights(r, P, n)]
    inner = [_lassalle_d_weights(k, P, n) for k in range(r + 1)]
    steps = _lassalle_steps(tag, P, n)
    sums = walk([0] * (r + 1), P.q, *steps, _CONJECTURED, shift=r)
    rows = ((i, inner[r - i][::2]) for i in range(r + 1) if sums[i])
    return convolve(sums, rows, r + 1, head)


def lassalle_form(tag: FamilyTag, r: int, P: ParamPoint, n: int) -> OrbitPoly:
    """One-row polynomial through the conjectured positive-power displays.

    The type-B display is printed with the denominator ladder starting at
    t^(n-1) q^(r-i); matching the other members of the rewrite chain needs
    q^(r-i+1), and that reading is the one verified here.
    """
    return g_row(lassalle_weights(tag, r, P, n), r, P, n)


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
    iblock = (
        t / a,
        [(a, 1, 0), (t ** -n * q ** (1 - r), 1, 0), (t2 * q ** (-2 * r), 1, 0)],
        [(q, 1, 0), (t ** (1 - n) * q ** -r, 1, 0), (t2 * q ** (1 - 2 * r) / a, 1, 0)],
    )
    sums = walk([0] * (r + 1), q, iblock, _NO_STEP, "the rewritten weight")
    # (row left to the family-D sum, its weight with the monic head, the
    # family-D weights of that row); the first display sums the family-D
    # rows, the second expands them into the same G terms
    outer = [(r - i, w * head) for i, w in enumerate(sums)]
    outer = [(k, w, _mac_weights(_TAG_D, k, P, n, 1)) for k, w in outer if w]
    first = row_sum(n, ((g_row(cd, k, P, n), w) for k, w, cd in outer))
    gs = g_series_list(r, n, P)
    second = row_sum(n, ((gs[k - d], w * c) for k, w, cd in outer for d, c in enumerate(cd)))
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
