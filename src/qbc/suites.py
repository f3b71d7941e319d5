"""Verification suites over configured parameter points.

Each suite replays one block of identities at every configured point and
returns a VerificationReport.  A suite is written as a generator of case
entries; _run alone calls their checks, times them and records the
verdicts.  The default point set ships as package data
(default_config.json); a user configuration may replace any point group
it names wholesale, but every group it keeps must stay nonempty and the
truncation degree must stay at least 4.  A key or group name the packaged
configuration does not know is refused, not ignored.
"""

import functools
import inspect
import json
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from importlib import resources
from typing import Optional

from .algebra import LaurentPoly, ParamPoint, format_rational, rat
from .askey_wilson import (
    FULL_BASE,
    HALF_BASE,
    aw_apply,
    aw_eigenvalue,
    aw_poly,
    even_sum_closed,
    even_sum_forms,
    fourfold_poly,
    odd_sum_closed,
    odd_sums,
    phi_series,
    psi_series,
    simplified_series,
)
from .b2 import (
    B2Weight,
    b2_character_polytope,
    b2_character_series,
    b2_conjecture_check,
    b2_row_threefold,
    f_b2_poly,
)
from .errors import MissingSquareRoot
from .koornwinder import g_row_general, kernel_identity_check, koorn_oracle
from .macdonald_bcd import (
    FAMILY_B,
    FAMILY_C,
    FAMILY_D,
    TYPE_B,
    TYPE_C,
    FamilyTag,
    lassalle_form,
    mac_row,
    simplification_lemma_check,
    specialize_params,
)
from .qseries import qpoch, qpoch_multi
from .reports import (
    SKIPPED,
    CaseResult,
    VerificationReport,
    first_mismatch,
    mismatch,
    nonzero,
    poly_mismatch,
)

CONFIG_FILE = "default_config.json"
# the top-level keys of a configuration
_CONFIG_KEYS = ("schema", "degree", "max_weight", "points", "cache_dir")

# point-group keys that are not ParamPoint fields
_EXTRA_KEYS = ("beta", "sqrt_param")
# every key a configured point may carry
_POINT_KEYS = tuple(f.name for f in fields(ParamPoint)) + _EXTRA_KEYS
# the fields every point of a group must carry, for the suites that read it
_ABCDS = ("a", "b", "c", "d", "s")
_REQUIRED = {
    "askey-wilson": _ABCDS,
    "tied-half": _ABCDS,
    "tied-full": _ABCDS,
    "lemma-c": _ABCDS,
    "lemma-b": _ABCDS,
    "koornwinder": ("a", "b", "c", "d", "sqrt_t"),
    "kernel": ("a", "b", "c", "d", "sqrt_t", "beta"),
    "macdonald": ("sqrt_t", "sqrt_param"),
    "b2": ("sqrt_t", "sqrt_T"),
    "b2-character": ("sqrt_t", "sqrt_T"),
}


def _json_int(obj: dict, key: str, default):
    """obj[key] as a JSON integer, default when absent; a fraction, string
    or boolean is a ValueError, not a silent truncation."""
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ConfiguredPoint:
    """A parameter point plus the extras some suites need: beta ties
    t = q^beta for the kernel identity, sqrt_param carries the free family
    parameter for the B and C specializations."""

    point: ParamPoint
    beta: Optional[int] = None
    sqrt_param: Optional[Fraction] = None

    @classmethod
    def from_json_obj(cls, obj, group: str) -> "ConfiguredPoint":
        """The point obj of the named group; a key that is no ParamPoint
        field and no extra raises ValueError naming it and the group."""
        if not isinstance(obj, dict):
            raise ValueError(f"a configured point must be an object, got {obj!r}")
        unknown = sorted(set(obj) - set(_POINT_KEYS))
        if unknown:
            raise ValueError(f"unknown field {unknown[0]!r} in a {group!r} point")
        params = {k: v for k, v in obj.items() if k not in _EXTRA_KEYS}
        sqrt_param = obj.get("sqrt_param")
        return cls(
            ParamPoint.from_json_obj(params),
            beta=_json_int(obj, "beta", None),
            sqrt_param=None if sqrt_param is None else rat(sqrt_param),
        )

    def to_json_obj(self) -> dict:
        out = self.point.to_json_obj()
        if self.beta is not None:
            out["beta"] = self.beta
        if self.sqrt_param is not None:
            out["sqrt_param"] = format_rational(self.sqrt_param)
        return out


@dataclass(frozen=True)
class RunConfig:
    """Everything a verification run depends on besides the suite name."""

    degree: int = 12
    max_weight: int = 3
    groups: dict = field(default_factory=dict)
    cache_dir: Optional[str] = None

    def __post_init__(self):
        if self.degree < 4:
            raise ValueError("truncation degree must be at least 4")
        if self.max_weight < 0:
            raise ValueError("weight bound must be nonnegative")
        for name, pts in self.groups.items():
            if not pts:
                raise ValueError(f"point group {name!r} is empty")
            for key in _REQUIRED.get(name, ()):
                if any(getattr(cp if key in _EXTRA_KEYS else cp.point, key) is None for cp in pts):
                    raise ValueError(f"{name} points must carry {key}")
            # faults the suites would otherwise meet mid-run, as exit 3
            if name == "macdonald" and any(cp.sqrt_param == 0 for cp in pts):
                raise ValueError("macdonald points must have a nonzero sqrt_param")
            if name == "kernel" and any(
                cp.beta < 1 or cp.point.sqrt_t != cp.point.sqrt_q ** cp.beta for cp in pts
            ):
                raise ValueError("kernel points must have sqrt_t = sqrt_q^beta, beta >= 1")
            if name == "b2-character" and any(
                not cp.point.sqrt_q == cp.point.sqrt_t == cp.point.sqrt_T for cp in pts
            ):
                raise ValueError("b2-character points must have sqrt_q = sqrt_t = sqrt_T")
            if name in ("koornwinder", "kernel"):
                for cp in pts:
                    try:
                        cp.point.alpha
                    except MissingSquareRoot as exc:
                        raise ValueError(
                            f"{name} points must have abcd/q a rational square: {exc}"
                        ) from None

    def points(self, group: str):
        if group not in self.groups:
            raise ValueError(f"no points configured for group {group!r}")
        return self.groups[group]

    @classmethod
    def from_json_obj(cls, obj, base: "RunConfig" = None) -> "RunConfig":
        """The configuration obj, its fields over base's.  A key other than
        _CONFIG_KEYS, or a point group the packaged configuration does not
        name, raises ValueError rather than being ignored."""
        if not isinstance(obj, dict) or _json_int(obj, "schema", None) != 1:
            raise ValueError("configuration must be an object that declares schema 1")
        unknown = sorted(set(obj) - set(_CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown configuration key {unknown[0]!r}")
        points = obj.get("points", {})
        if not isinstance(points, dict):
            raise ValueError("points must map group names to lists of points")
        base = base or cls()
        groups = dict(base.groups)
        for name, pts in points.items():
            if name not in _packaged()["points"]:
                raise ValueError(f"unknown point group {name!r}")
            if not isinstance(pts, list):
                raise ValueError(f"point group {name!r} must be a list")
            groups[name] = tuple(ConfiguredPoint.from_json_obj(p, name) for p in pts)
        cache_dir = obj.get("cache_dir", base.cache_dir)
        if cache_dir is not None and not isinstance(cache_dir, str):
            raise ValueError(f"cache_dir must be a string, got {cache_dir!r}")
        return cls(
            degree=_json_int(obj, "degree", base.degree),
            max_weight=_json_int(obj, "max_weight", base.max_weight),
            groups=groups,
            cache_dir=cache_dir,
        )


@functools.lru_cache(maxsize=None)
def _packaged() -> dict:
    """The packaged configuration as parsed JSON, read once per process; the
    dict is shared and must not be mutated."""
    return json.loads(resources.files(__package__).joinpath(CONFIG_FILE).read_text())


def default_config() -> RunConfig:
    return RunConfig.from_json_obj(_packaged())


def _run(name: str, entries) -> VerificationReport:
    """Run (case_id, anchor, point, degrees, check) entries into a report.

    A case's seconds run from the end of the previous case, or the start of
    the suite, to the end of its own check: work the generator does between
    two checks, such as building a check plan, lands in the next case, and
    the seconds add up to the suite's time.  Each check is called before the
    generator resumes, so a check may read the generator's loop variables.
    """
    rep = VerificationReport(name)
    last = time.perf_counter()
    for case_id, anchor, point_obj, degrees, check in entries:
        outcome = check()
        now = time.perf_counter()
        if outcome is SKIPPED:
            verdict, outcome = "skipped", None
        else:
            verdict = "pass" if outcome is None else "fail"
        rep.add(CaseResult(case_id, anchor, point_obj, degrees, verdict, outcome, now - last))
        last = now
    return rep


def _plan(prefix: str, point_obj, plan):
    """Entries for a (suffix, anchor, degrees, check) plan at one point."""
    for suffix, anchor, degrees, check in plan:
        yield prefix + suffix, anchor, point_obj, degrees, check


def _suite(name: str):
    """Make a generator of case entries into a suite function that returns
    the VerificationReport _run records from it."""

    def decorate(cases):
        @functools.wraps(cases)
        def suite(*args, **kwargs):
            return _run(name, cases(*args, **kwargs))

        return suite

    return decorate


@_suite("askey-wilson")
def suite_askey_wilson(cfg: RunConfig):
    """Fourfold expansion, difference equation, series recombination, and
    the terminating rescale, at every configured four-parameter point."""
    for i, cp in enumerate(cfg.points("askey-wilson"), 1):
        P = cp.point
        pj = P.to_json_obj()
        for lam in range(7):
            yield (
                f"aw-fourfold-p{i}-l{lam}", "fourfold-expansion", pj, {"weight": lam},
                lambda: poly_mismatch(fourfold_poly(lam, P), aw_poly(lam, P)),
            )
        for n in range(7):

            def eigen_check():
                poly = aw_poly(n, P)
                return poly_mismatch(aw_apply(poly, P), aw_eigenvalue(n, P) * poly)

            yield f"aw-eigen-p{i}-n{n}", "difference-equation", pj, {"weight": n}, eigen_check
        P.require("s")
        yield (
            f"aw-series-p{i}", "series-recombination", pj, {"truncation": cfg.degree},
            lambda: first_mismatch(
                mismatch(got, want, power=j) for j, (got, want) in enumerate(zip(
                    psi_series(P.s, P, cfg.degree), phi_series(P.s, P, cfg.degree), strict=True
                ))
            ),
        )
        for m in range(1, 5):

            def rescale_check():
                a, q = P.a, P.q
                ser = psi_series(q**-m, P, 2 * m + 2)
                tail = first_mismatch(nonzero(ser[j], power=j) for j in (2 * m + 1, 2 * m + 2))
                if tail:
                    return tail
                head = qpoch(P.abcd() * q ** (m - 1), q, m) / qpoch_multi(
                    (a * P.b, a * P.c, a * P.d), q, m
                )
                rescaled = LaurentPoly(
                    1,
                    {(j - m,): a**m * head * ser[j] for j in range(2 * m + 1)},
                )
                bare = aw_poly(m, P) * (
                    a**m / qpoch_multi((a * P.b, a * P.c, a * P.d), q, m)
                )
                return poly_mismatch(rescaled, bare)

            yield f"aw-rescale-p{i}-m{m}", "terminating-rescale", pj, {"weight": m}, rescale_check


@_suite("bibasic")
def suite_bibasic(cfg: RunConfig):
    """Even-sum forms, the a/c swap, odd closed forms, and both tied-point
    collapses of the fourfold series."""
    half = cfg.degree // 2
    simp_deg = max(4, cfg.degree - 2)
    for i, cp in enumerate(cfg.points("askey-wilson"), 1):
        P = cp.point.require("s")
        pj = P.to_json_obj()

        def even_check():
            # whole lists, power by power and route by route within a power:
            # a route of another length raises instead of passing unchecked
            forms = even_sum_forms(P.s, P, half)
            names = ("closed", "bibasic-split", "bibasic-coupled")
            routes = zip(
                forms.raw, forms.closed, forms.bibasic_split, forms.bibasic_coupled, strict=True
            )
            return first_mismatch(
                mismatch(val, raw, power=2 * K, route=name)
                for K, (raw, *vals) in enumerate(routes)
                for name, val in zip(names, vals)
            )

        yield f"bib-even-p{i}", "even-sum-forms", pj, {"max_power": 2 * half}, even_check

        def watson_check():
            swapped = P.replace(a=P.c, c=P.a)
            first = even_sum_closed(P.s, P, half)
            second = even_sum_closed(P.s, swapped, half)
            return first_mismatch(
                mismatch(got, want, power=2 * K)
                for K, (got, want) in enumerate(zip(second, first, strict=True))
            )

        yield f"bib-watson-p{i}", "watson-symmetry", pj, {"max_power": 2 * half}, watson_check
        direct = odd_sums(P.s, P, 6)
        for l in range(7):
            yield (
                f"bib-odd-p{i}-l{l}", "odd-sum-closed", pj, {"degree": l},
                lambda: mismatch(
                    direct[l], odd_sum_closed(l, P.s, P), value=f"odd sum, degree {l}"
                ),
            )
    for variant, group, anchor in (
        (HALF_BASE, "tied-half", "half-base-collapse"),
        (FULL_BASE, "tied-full", "full-base-collapse"),
    ):
        for i, cp in enumerate(cfg.points(group), 1):
            P = cp.point.require("s")
            yield (
                f"bib-{group}-p{i}", anchor, P.to_json_obj(), {"truncation": simp_deg},
                lambda: first_mismatch(
                    mismatch(got, want, power=j) for j, (got, want) in enumerate(zip(
                        simplified_series(variant, P.s, P, simp_deg),
                        phi_series(P.s, P, simp_deg),
                        strict=True,
                    ))
                ),
            )
    for variant, group in ((TYPE_C, "lemma-c"), (TYPE_B, "lemma-b")):
        for i, cp in enumerate(cfg.points(group), 1):
            P = cp.point.require("s")
            yield from _plan(
                f"bib-p{i}-lemma-", P.to_json_obj(),
                simplification_lemma_check(variant, P.s, P, simp_deg),
            )


def koornwinder_rows(cfg: RunConfig, ranks=None, rows=None):
    """(point index, configured point, rank, row) for every koornwinder-suite
    case; cache warm solves the oracles of exactly these cases."""
    for i, cp in enumerate(cfg.points("koornwinder"), 1):
        for n in ranks or (1, 2, 3):
            for r in rows if rows is not None else range(5 if n < 3 else 4):
                yield i, cp, n, r


def family_tag(family: str, cp: ConfiguredPoint) -> FamilyTag:
    if family == FAMILY_D:
        return FamilyTag(FAMILY_D)
    return FamilyTag(family, cp.sqrt_param)


def lassalle_rows(cfg: RunConfig, families=None, ranks=None, rows=None):
    """(point index, configured point, family tag, specialized point, rank,
    row) for every lassalle-suite case; cache warm solves the oracles of
    exactly these cases."""
    for i, cp in enumerate(cfg.points("macdonald"), 1):
        for fam in families or (FAMILY_B, FAMILY_C, FAMILY_D):
            tag = family_tag(fam, cp)
            Q = specialize_params(tag, cp.point)
            for n in ranks or (1, 2):
                for r in rows if rows is not None else range(5):
                    yield i, cp, tag, Q, n, r


@_suite("koornwinder")
def suite_koornwinder(cfg: RunConfig, ranks=None, rows=None):
    """One-row formula against the cached operator oracle, scaled by the
    row head (t;q)_r / (q;q)_r."""
    for i, cp, n, r in koornwinder_rows(cfg, ranks, rows):
        P = cp.point
        yield (
            f"koorn-p{i}-n{n}-r{r:02d}", "row-head-ratio", P.to_json_obj(),
            {"rank": n, "row": r},
            lambda: poly_mismatch(
                g_row_general(r, P, n),
                koorn_oracle((r,), P, n) * (qpoch(P.t, P.q, r) / qpoch(P.q, P.q, r)),
            ),
        )


@_suite("lassalle")
def suite_lassalle(cfg: RunConfig, families=None, ranks=None, rows=None):
    """Both one-row displays for the three classical specializations against
    the operator oracle at the specialized point, taken once per row."""
    for i, cp, tag, Q, n, r in lassalle_rows(cfg, families, ranks, rows):
        stem = f"las-{tag.family.lower()}-p{i}-n{n}-r{r}"
        degrees = {"family": tag.family, "rank": n, "row": r}
        want = koorn_oracle((r,), Q, n)
        for suffix, anchor, display in (
            ("-row", "family-row", mac_row),
            ("-positive", "positive-power-row", lassalle_form),
        ):
            yield (
                stem + suffix, anchor, cp.to_json_obj(), degrees,
                lambda: poly_mismatch(display(tag, r, cp.point, n), want),
            )


@_suite("b2")
def suite_b2(cfg: RunConfig):
    """Rank-two conjecture sweep up to the configured weight bound, the
    threefold single-row formula, and the one-parameter character collapse."""
    bound = cfg.max_weight
    for i, cp in enumerate(cfg.points("b2"), 1):
        P = cp.point
        pj = P.to_json_obj()
        for total in range(bound + 1):
            for r1 in range(total + 1):
                yield from _plan(f"b2-p{i}-", pj, b2_conjecture_check(r1, total - r1, P))
        for r in range(bound + 1):
            yield (
                f"b2-p{i}-threefold-r{r}", "threefold-row", pj, {"row": r},
                lambda: poly_mismatch(b2_row_threefold(r, P), f_b2_poly(B2Weight(r, 0), P)),
            )
    for i, cp in enumerate(cfg.points("b2-character"), 1):
        P = cp.point
        for total in range(min(bound, 2) + 1):
            for r1 in range(total + 1):
                r2 = total - r1
                yield (
                    f"b2-char-c{i}-r{r1}{r2}", "character-collapse", P.to_json_obj(),
                    {"weight": [r1, r2]},
                    lambda: poly_mismatch(
                        b2_character_series(B2Weight(r1, r2), P), b2_character_polytope(r1, r2)
                    ),
                )


@_suite("kernel")
def suite_kernel(cfg: RunConfig):
    """Truncated kernel-function identity at rank two for each tied point."""
    for i, cp in enumerate(cfg.points("kernel"), 1):
        yield from _plan(
            f"kernel-p{i}-", cp.point.to_json_obj(),
            kernel_identity_check(2, cp.beta, 6, cp.point),
        )


SUITES = {
    "askey-wilson": suite_askey_wilson,
    "bibasic": suite_bibasic,
    "koornwinder": suite_koornwinder,
    "lassalle": suite_lassalle,
    "b2": suite_b2,
    "kernel": suite_kernel,
}

SUITE_NAMES = ("all",) + tuple(sorted(SUITES))

#: the narrowing options each suite takes: its parameters after cfg
_NARROWING = {
    name: tuple(inspect.signature(suite).parameters)[1:] for name, suite in SUITES.items()
}


def run_suite(name: str, cfg: RunConfig, families=None, ranks=None, rows=None):
    """Run one named suite, or every suite merged under the name "all".

    A narrowing option the suite does not take raises ValueError."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    narrowed = {"families": families, "ranks": ranks, "rows": rows}
    narrowed = {k: v for k, v in narrowed.items() if v is not None}
    extra = sorted(set(narrowed) - set(_NARROWING.get(name, ())))
    if extra:
        raise ValueError(f"suite {name!r} takes no {', '.join(extra)} narrowing")
    if name != "all":
        return SUITES[name](cfg, **narrowed)
    rep = VerificationReport("all")
    for key in sorted(SUITES):
        for case in SUITES[key](cfg).cases:
            rep.add(case)
    return rep
