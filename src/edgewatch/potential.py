"""Periodic potentials on the one-dimensional integer lattice."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class PeriodicPotential:
    """A real potential of period ``p`` given by its values on one cell; the
    one owner of its input rules (an integral float period becomes an int,
    a bool is refused)."""

    period: int
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("a potential needs at least one value")
        period = self.period
        if isinstance(period, float) and period.is_integer():
            period = int(period)
        if not (isinstance(period, numbers.Integral)
                and not isinstance(period, bool) and period >= 1):
            raise ValueError(
                f"period must be an integer >= 1, got {self.period!r}")
        if len(vals) != period:
            raise ValueError(f"expected {period} values, got {len(vals)}")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("potential values must be finite")
        object.__setattr__(self, "period", int(period))
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "PeriodicPotential":
        vals = tuple(values)
        return cls(period=len(vals), values=vals)

    def sampled(self, length: int) -> Sequence[float]:
        """Values v_0 .. v_{length-1} of the periodic extension."""
        return [self.values[n % self.period] for n in range(length)]
