"""Shared report record for inequality checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class EstimateReport:
    """One checked inequality: both sides, the constant used, ratio, verdict.

    `constant_used` is either the explicit numeric constant assembled from the
    printed formulas, the string "empirical" when only existence of a
    constant is asserted and the ratio itself is the deliverable, or "exact"
    for a defect or identity that holds to a stated tolerance.
    """

    inequality_id: str
    lhs: float
    rhs: float
    constant_used: object
    passed: bool
    fingerprint: str = ""
    details: dict = field(default_factory=dict)

    @classmethod
    def explicit(cls, inequality_id: str, lhs: float, rhs: float, constant_used,
                 fingerprint: str, details: dict) -> "EstimateReport":
        """Explicit tier: lhs <= rhs up to the relative slack PASS_TOL."""
        return cls(inequality_id, lhs, rhs, constant_used, explicit_pass(lhs, rhs),
                   fingerprint, details)

    @classmethod
    def empirical(cls, inequality_id: str, lhs: float, rhs: float, fingerprint: str,
                  details: dict) -> "EstimateReport":
        """Existence-of-a-constant tier: only a finite ratio (or 0 <= 0) is asserted."""
        passed = (lhs == 0.0 and rhs == 0.0) or (rhs > 0.0 and math.isfinite(lhs / rhs))
        return cls(inequality_id, lhs, rhs, "empirical", passed, fingerprint, details)

    @classmethod
    def exact(cls, inequality_id: str, lhs: float, rhs: float, tol: float, fingerprint: str,
              details: dict) -> "EstimateReport":
        """Exact tier: a defect or an identity that passes when lhs <= rhs + tol, so a NaN
        fails."""
        return cls(inequality_id, lhs, rhs, "exact", lhs <= rhs + tol, fingerprint, details)

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else float("inf")
        return self.lhs / self.rhs

    def to_dict(self) -> dict:
        """The fields, `passed` as a bool and the ratio, ready for strict JSON (json_safe):
        `details` is shared unless it holds a non-finite float."""
        return json_safe({**vars(self), "passed": bool(self.passed), "ratio": self.ratio})


PASS_TOL = 1e-9  # relative slack for explicit-constant assertions


def explicit_pass(lhs: float, rhs: float) -> bool:
    scale = max(abs(lhs), abs(rhs), 1.0)
    return lhs <= rhs + PASS_TOL * scale


def json_safe(value):
    """`value` for strict JSON, which has no inf or NaN: a non-finite float becomes None,
    also inside dicts and lists at any depth.  A dict or list is copied only where it
    holds one; otherwise it is returned as is."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        entries = value.items()
    elif isinstance(value, (list, tuple)):
        entries = enumerate(value)
    else:
        return value
    changed = {}
    for key, v in entries:
        if isinstance(v, float):
            if not math.isfinite(v):
                changed[key] = None
        elif isinstance(v, (dict, list, tuple)) and (new := json_safe(v)) is not v:
            changed[key] = new
    if not changed:
        return value
    if isinstance(value, dict):
        return {**value, **changed}
    return [changed.get(i, v) for i, v in enumerate(value)]
