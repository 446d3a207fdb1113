"""Shared report record for inequality checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EstimateReport:
    """One checked inequality: both sides, the constant used, ratio, verdict.

    `constant_used` is either the explicit numeric constant assembled from the
    printed formulas, or the string "empirical" when only existence of a
    constant is asserted and the ratio itself is the deliverable.
    """

    inequality_id: str
    lhs: float
    rhs: float
    constant_used: object
    passed: bool
    fingerprint: str = ""
    details: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else float("inf")
        return self.lhs / self.rhs

    def to_dict(self) -> dict:
        """The fields, `passed` as a bool and the ratio; `details` is shared, not copied."""
        return {**vars(self), "passed": bool(self.passed), "ratio": self.ratio}


PASS_TOL = 1e-9  # relative slack for explicit-constant assertions


def explicit_pass(lhs: float, rhs: float) -> bool:
    scale = max(abs(lhs), abs(rhs), 1.0)
    return lhs <= rhs + PASS_TOL * scale
