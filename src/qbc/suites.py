"""Verification suites over configured parameter points.

Each suite replays one block of identities at every configured point and
returns a VerificationReport.  A suite is written as a generator of case
entries; _run alone calls their checks, times them and records the
verdicts.  The default point set ships as package data
(default_config.json); a user configuration may replace any point group
wholesale, but every group it keeps must stay nonempty and the truncation
degree must stay at least 4.
"""

import functools
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Optional

from .algebra import SKIPPED, LaurentPoly, ParamPoint, format_rational, rat
from .askey_wilson import (
    FULL_BASE,
    HALF_BASE,
    aw_apply,
    aw_eigenvalue,
    aw_poly,
    even_sum_closed,
    even_sum_forms,
    fourfold_poly,
    odd_sum_check,
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
from .reports import CaseResult, VerificationReport

CONFIG_FILE = "default_config.json"

# point-group keys that are not ParamPoint fields
_EXTRA_KEYS = ("beta", "sqrt_param")


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
    def from_json_obj(cls, obj) -> "ConfiguredPoint":
        if not isinstance(obj, dict):
            raise ValueError(f"a configured point must be an object, got {obj!r}")
        fields = {k: v for k, v in obj.items() if k not in _EXTRA_KEYS}
        sqrt_param = obj.get("sqrt_param")
        return cls(
            ParamPoint.from_json_obj(fields),
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

    def points(self, group: str):
        if group not in self.groups:
            raise ValueError(f"no points configured for group {group!r}")
        return self.groups[group]

    @classmethod
    def from_json_obj(cls, obj, base: "RunConfig" = None) -> "RunConfig":
        if not isinstance(obj, dict) or obj.get("schema") != 1:
            raise ValueError("configuration must be an object that declares schema 1")
        points = obj.get("points", {})
        if not isinstance(points, dict):
            raise ValueError("points must map group names to lists of points")
        groups = dict(base.groups) if base is not None else {}
        for name, pts in points.items():
            if not isinstance(pts, list):
                raise ValueError(f"point group {name!r} must be a list")
            groups[name] = tuple(ConfiguredPoint.from_json_obj(p) for p in pts)
        cache_dir = obj.get("cache_dir", base.cache_dir if base else None)
        if cache_dir is not None and not isinstance(cache_dir, str):
            raise ValueError(f"cache_dir must be a string, got {cache_dir!r}")
        return cls(
            degree=_json_int(obj, "degree", base.degree if base else 12),
            max_weight=_json_int(obj, "max_weight", base.max_weight if base else 3),
            groups=groups,
            cache_dir=cache_dir,
        )


def default_config() -> RunConfig:
    text = resources.files(__package__).joinpath(CONFIG_FILE).read_text()
    return RunConfig.from_json_obj(json.loads(text))


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


def _poly_mismatch(got, want) -> Optional[dict]:
    diff = got - want
    if diff.is_zero():
        return None
    exps, _ = diff.leading()
    return {
        "monomial": list(exps),
        "expected": format_rational(want.coeff(exps)),
        "got": format_rational(got.coeff(exps)),
    }


def _value_mismatch(got, want, label) -> Optional[dict]:
    if got == want:
        return None
    return {
        "value": label,
        "expected": format_rational(want),
        "got": format_rational(got),
    }


def _series_mismatch(got, want, top) -> Optional[dict]:
    for j in range(top + 1):
        if got.coeff(j) != want.coeff(j):
            return {
                "power": j,
                "expected": format_rational(want.coeff(j)),
                "got": format_rational(got.coeff(j)),
            }
    return None


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
                lambda: _poly_mismatch(fourfold_poly(lam, P), aw_poly(lam, P)),
            )
        for n in range(7):

            def eigen_check():
                poly = aw_poly(n, P)
                return _poly_mismatch(aw_apply(poly, P), aw_eigenvalue(n, P) * poly)

            yield f"aw-eigen-p{i}-n{n}", "difference-equation", pj, {"weight": n}, eigen_check
        P.require("s")
        yield (
            f"aw-series-p{i}", "series-recombination", pj, {"truncation": cfg.degree},
            lambda: _series_mismatch(
                psi_series(P.s, P, cfg.degree), phi_series(P.s, P, cfg.degree), cfg.degree
            ),
        )
        for m in range(1, 5):

            def rescale_check():
                a, q = P.a, P.q
                ser = psi_series(q**-m, P, 2 * m + 2)
                for j in range(2 * m + 1, 2 * m + 3):
                    if ser.coeff(j) != 0:
                        return {
                            "power": j,
                            "expected": "0",
                            "got": format_rational(ser.coeff(j)),
                        }
                head = qpoch(P.abcd() * q ** (m - 1), q, m) / qpoch_multi(
                    (a * P.b, a * P.c, a * P.d), q, m
                )
                rescaled = LaurentPoly(
                    1,
                    {(j - m,): a**m * head * ser.coeff(j) for j in range(2 * m + 1)},
                )
                bare = aw_poly(m, P) * (
                    a**m / qpoch_multi((a * P.b, a * P.c, a * P.d), q, m)
                )
                return _poly_mismatch(rescaled, bare)

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
            forms = even_sum_forms(P.s, P, half)
            routes = (
                ("closed", forms.closed),
                ("bibasic-split", forms.bibasic_split),
                ("bibasic-coupled", forms.bibasic_coupled),
            )
            for K in range(half + 1):
                for name, vals in routes:
                    if vals[K] != forms.raw[K]:
                        return {
                            "power": 2 * K,
                            "route": name,
                            "expected": format_rational(forms.raw[K]),
                            "got": format_rational(vals[K]),
                        }
            return None

        yield f"bib-even-p{i}", "even-sum-forms", pj, {"max_power": 2 * half}, even_check

        def watson_check():
            swapped = P.replace(a=P.c, c=P.a)
            first = even_sum_closed(P.s, P, half)
            second = even_sum_closed(P.s, swapped, half)
            for K in range(half + 1):
                if first[K] != second[K]:
                    return {
                        "power": 2 * K,
                        "expected": format_rational(first[K]),
                        "got": format_rational(second[K]),
                    }
            return None

        yield f"bib-watson-p{i}", "watson-symmetry", pj, {"max_power": 2 * half}, watson_check
        for l in range(7):
            yield (
                f"bib-odd-p{i}-l{l}", "odd-sum-closed", pj, {"degree": l},
                lambda: _value_mismatch(*odd_sum_check(l, P.s, P), f"odd sum, degree {l}"),
            )
    for variant, group, anchor in (
        (HALF_BASE, "tied-half", "half-base-collapse"),
        (FULL_BASE, "tied-full", "full-base-collapse"),
    ):
        for i, cp in enumerate(cfg.points(group), 1):
            P = cp.point.require("s")
            yield (
                f"bib-{group}-p{i}", anchor, P.to_json_obj(), {"truncation": simp_deg},
                lambda: _series_mismatch(
                    simplified_series(variant, P.s, P, simp_deg),
                    phi_series(P.s, P, simp_deg),
                    simp_deg,
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
    if cp.sqrt_param is None:
        raise ValueError(f"family {family} needs sqrt_param on the configured point")
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
            lambda: _poly_mismatch(
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
                lambda: _poly_mismatch(display(tag, r, cp.point, n), want),
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
                lambda: _poly_mismatch(b2_row_threefold(r, P), f_b2_poly(B2Weight(r, 0), P)),
            )
    for i, cp in enumerate(cfg.points("b2-character"), 1):
        P = cp.point
        for total in range(min(bound, 2) + 1):
            for r1 in range(total + 1):
                r2 = total - r1
                yield (
                    f"b2-char-c{i}-r{r1}{r2}", "character-collapse", P.to_json_obj(),
                    {"weight": [r1, r2]},
                    lambda: _poly_mismatch(
                        b2_character_series(B2Weight(r1, r2), P), b2_character_polytope(r1, r2)
                    ),
                )


@_suite("kernel")
def suite_kernel(cfg: RunConfig):
    """Truncated kernel-function identity at rank two for each tied point."""
    for i, cp in enumerate(cfg.points("kernel"), 1):
        if cp.beta is None:
            raise ValueError("kernel points must carry beta")
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


def run_suite(name: str, cfg: RunConfig, families=None, ranks=None, rows=None):
    """Run one named suite, or every suite merged under the name "all"."""
    narrowed = {"families": families, "ranks": ranks, "rows": rows}
    if name == "all":
        if any(v is not None for v in narrowed.values()):
            raise ValueError("the combined suite takes no narrowing options")
        rep = VerificationReport("all")
        for key in sorted(SUITES):
            for case in SUITES[key](cfg).cases:
                rep.add(case)
        return rep
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if name == "koornwinder":
        return suite_koornwinder(cfg, ranks=ranks, rows=rows)
    if name == "lassalle":
        return suite_lassalle(cfg, families=families, ranks=ranks, rows=rows)
    if any(v is not None for v in narrowed.values()):
        raise ValueError(f"suite {name!r} takes no narrowing options")
    return SUITES[name](cfg)
