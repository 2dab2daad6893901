"""The gate table: one pass/fail bound per measured benchmark metric.

A bench's ``measure()`` returns flat dotted metrics
(``{"tpch.sqlite_ratio": 0.78, ...}``) and the bench declares its
``GATES``.  A gate is either a **hard limit** (``value >= limit``) or a
**drift bound** against the committed baseline for the same metric: with
``drift="*"`` the bound is ``baseline * limit``, with ``drift="+"`` it is
``baseline + limit``.

A gate never passes by default: a metric the run did not produce, or a
drift gate whose baseline value is missing, is a failure, so renaming a
dataset or losing the baseline file cannot switch a check off.

Nothing here times or reads files, so the gate tables are tested without
running a benchmark (``tests/test_bench_gates.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

Metrics = Mapping[str, float]


@dataclass(frozen=True)
class Gate:
    metric: str
    op: str  # ">=" or "<="
    limit: float
    #: "" for a hard limit, "*" or "+" for a drift bound against the baseline
    drift: str = ""
    why: str = ""
    #: the gate applies only when this metric is non-zero in the result
    when: Optional[str] = None
    #: metrics shown from both the result and the baseline on failure
    context: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        assert self.op in (">=", "<="), self.op
        assert self.drift in ("", "*", "+"), self.drift

    def bound(self, baseline: Metrics) -> float:
        """The bound the metric is held to (``KeyError`` without a baseline)."""
        if self.drift == "*":
            return baseline[self.metric] * self.limit
        if self.drift == "+":
            return baseline[self.metric] + self.limit
        return self.limit

    def evaluate(self, result: Metrics, baseline: Metrics) -> Tuple[bool, str]:
        """``(passed, one-line report)`` for this gate on one run."""
        if self.when is not None:
            if self.when not in result:
                return False, f"{self.metric}: condition {self.when} not measured"
            if not result[self.when]:
                return True, f"{self.metric}: skipped ({self.when} is 0)"
        if self.metric not in result:
            return False, f"{self.metric}: not measured"
        if self.drift and self.metric not in baseline:
            return False, f"{self.metric}: no baseline value to drift against"
        value = result[self.metric]
        bound = self.bound(baseline)
        passed = value >= bound if self.op == ">=" else value <= bound
        report = f"{self.metric} = {value:.4g} (needs {self.op} {bound:.4g}"
        if self.drift:
            base = baseline[self.metric]
            report += f" = baseline {base:.4g} {self.drift} {self.limit:g}"
        report += ")"
        if passed:
            return True, report
        if self.why:
            report += f": {self.why}"
        for key in self.context:
            report += (
                f" [{key}: baseline {baseline.get(key, 'missing')}, "
                f"this run {result.get(key, 'missing')}]"
            )
        return False, report

