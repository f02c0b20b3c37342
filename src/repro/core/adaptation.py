"""Risk-driven sensing coverage (Secs. I-II).

The paper motivates sensing that adapts to the task: "deprioritize
redundant sensor streams during low-risk tasks while enhancing accuracy
for high-stakes operations" — :class:`RiskCoverageAdaptation`, a small
pure-state controller producing the ``sensing_directive`` dict the loop
feeds back to its sensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

__all__ = ["RiskCoverageAdaptation"]


@dataclass
class RiskCoverageAdaptation:
    """Coverage controller driven by task risk.

    Maps a risk estimate in [0, 1] to a sensing-coverage fraction between
    ``min_coverage`` (frugal, low-stakes) and 1.0 (full fidelity,
    high-stakes), with hysteresis so coverage doesn't chatter.
    """

    min_coverage: float = 0.08
    hysteresis: float = 0.1
    _coverage: float = field(default=1.0, repr=False)

    def update(self, risk: float) -> float:
        risk = float(np.clip(risk, 0.0, 1.0))
        target = self.min_coverage + risk * (1.0 - self.min_coverage)
        if abs(target - self._coverage) > self.hysteresis:
            self._coverage = target
        return self._coverage

    def directive(self, risk: float) -> Dict[str, Any]:
        return {"coverage": self.update(risk)}
