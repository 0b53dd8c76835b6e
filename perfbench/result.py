"""What one benchmark run found: metrics, checks and request counts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    label: str


@dataclass
class Result:
    workload: str
    metrics: Dict[str, Metric] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def metric(
        self, name: str, value: float, unit: str, samples: int,
        *, label: Optional[str] = None,
    ) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples), label or name)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)
