"""The universal numeric result record: value, standard error, size, seed."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Estimate:
    """A numeric result with its uncertainty and provenance.

    ``std_error`` is 0 only for deterministic or closed-form results.
    ``flagged`` marks estimates whose internal resolution audit failed
    (too many unresolved samples, diverging running integral, ...); the
    value is still reported so callers can decide what to do.
    """

    value: float
    std_error: float
    n: int
    seed: int
    method: str
    flagged: bool = False
    flag_reason: str = field(default="", compare=False)

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")

    @classmethod
    def from_samples(cls, samples, seed: int, method: str, **flags) -> "Estimate":
        """The Monte Carlo mean of a sample array, with standard error
        std(ddof=1) / sqrt(n), 0 below two samples."""
        n = samples.size
        se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return cls(value=float(samples.mean()), std_error=se, n=int(n), seed=seed,
                   method=method, **flags)

    def discrepancy_se(self, other: "Estimate | float") -> float:
        """|difference| in standard-error units: both SEs combined against an
        Estimate, this one's alone against a float.  With that SE 0 it is 0
        for equal values and inf otherwise."""
        if isinstance(other, Estimate):
            delta = abs(self.value - other.value)
            se = (self.std_error**2 + other.std_error**2) ** 0.5
        else:
            delta = abs(self.value - float(other))
            se = self.std_error
        if se == 0.0:
            return 0.0 if delta == 0.0 else float("inf")
        return delta / se
