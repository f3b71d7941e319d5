"""Structured results for verification runs, and the check protocol.

A check returns None for a pass, a mismatch dict for a fail, or SKIPPED when
an earlier check left it nothing to compare; every mismatch is built by the
comparators below, so each names where the sides differ and both values as
exact text.  A report is a flat list of per-case outcomes.  Serialization is
deterministic: cases are sorted by id and timing can be excluded, so repeated
runs with the same configuration produce byte-identical documents.
"""

import json
from dataclasses import dataclass, field
from typing import Optional

from .algebra import format_rational

SCHEMA_VERSION = 1

VERDICTS = ("pass", "fail", "skipped")

SKIPPED = "skipped"


def mismatch(got, want, **where) -> Optional[dict]:
    """None when got == want, else where plus both values."""
    if got == want:
        return None
    return {**where, "expected": format_rational(want), "got": format_rational(got)}


def nonzero(got, **where) -> Optional[dict]:
    """mismatch(got, 0, **where): None when got vanishes."""
    return mismatch(got, 0, **where)


def poly_mismatch(got, want) -> Optional[dict]:
    """The mismatch at the leading monomial of got - want."""
    if got == want:
        return None
    exps, _ = (got - want).leading()
    return mismatch(got.coeff(exps), want.coeff(exps), monomial=list(exps))


def first_mismatch(mismatches) -> Optional[dict]:
    """The first mismatch of a lazy sequence of comparisons, or None."""
    return next((m for m in mismatches if m is not None), None)


@dataclass
class CaseResult:
    case_id: str
    anchor: str
    point: Optional[dict]
    degrees: dict
    verdict: str
    mismatch: Optional[dict] = None
    seconds: float = 0.0

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "fail" and not self.mismatch:
            raise ValueError("a failing case must carry mismatch details")

    def to_json_obj(self, with_timing: bool = True) -> dict:
        out = {
            "case": self.case_id,
            "anchor": self.anchor,
            "degrees": self.degrees,
            "verdict": self.verdict,
        }
        if self.point is not None:
            out["point"] = self.point
        if self.mismatch is not None:
            out["mismatch"] = self.mismatch
        if with_timing:
            out["seconds"] = round(self.seconds, 3)
        return out


@dataclass
class VerificationReport:
    suite: str
    cases: list = field(default_factory=list)

    def add(self, case: CaseResult) -> None:
        self.cases.append(case)

    @property
    def passed(self) -> bool:
        return all(c.verdict != "fail" for c in self.cases)

    def counts(self) -> dict:
        out = {v: 0 for v in VERDICTS}
        for c in self.cases:
            out[c.verdict] += 1
        return out

    def to_json_obj(self, with_timing: bool = True) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "passed": self.passed,
            "counts": self.counts(),
            "cases": [
                c.to_json_obj(with_timing)
                for c in sorted(self.cases, key=lambda c: c.case_id)
            ],
        }

    def to_json(self, with_timing: bool = True) -> str:
        return json.dumps(
            self.to_json_obj(with_timing), indent=2, sort_keys=True
        )

    def summary_lines(self) -> list:
        lines = [
            f"{c.verdict.upper():4s} {c.case_id}"
            for c in sorted(self.cases, key=lambda c: c.case_id)
        ]
        counts = self.counts()
        lines.append(
            f"suite {self.suite}: {counts['pass']} passed, "
            f"{counts['fail']} failed, {counts['skipped']} skipped"
        )
        return lines
