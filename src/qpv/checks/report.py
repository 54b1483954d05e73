"""Bound reports: one record per verified inequality."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def _plain(value):
    """Coerce numpy scalars/containers into builtin JSON-friendly types."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):
        return value.item()
    return value


@dataclass(frozen=True)
class BoundReport:
    name: str
    lhs: float
    rhs: float
    relation: str          # "<=", ">=", "<"
    passed: bool
    trials: int
    tolerance: float = 0.0
    worst_case: dict = field(default_factory=dict)

    @classmethod
    def verdict(cls, name: str, lhs: float, relation: str, rhs: float, *, trials: int,
                worst_case: dict, tolerance: float = 0.0, also: bool = True) -> BoundReport:
        """The report of ``lhs relation rhs`` within ``tolerance``; it passes
        when that holds and ``also`` is true."""
        return cls(name=name, lhs=lhs, rhs=rhs, relation=relation,
                   passed=holds(lhs, relation, rhs, tolerance) and also, trials=trials,
                   tolerance=tolerance, worst_case=worst_case)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def as_dict(self) -> dict:
        return _plain({
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "margin": self.margin,
            "pass": bool(self.passed),
            "trials": self.trials,
            "tolerance": self.tolerance,
            "worst_case": self.worst_case,
        })

    def json_line(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def holds(lhs: float, relation: str, rhs: float, tolerance: float) -> bool:
    if relation == "<=":
        return lhs <= rhs + tolerance
    if relation == ">=":
        return lhs >= rhs - tolerance
    if relation == "<":
        return lhs < rhs + tolerance
    raise ValueError(f"unknown relation {relation!r}")
