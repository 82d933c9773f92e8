"""Periodic potentials on the one-dimensional integer lattice."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class PeriodicPotential:
    """A real potential of period ``p`` given by its values on one cell."""

    period: int
    values: tuple[float, ...]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        vals = tuple(float(v) for v in self.values)
        if len(vals) != self.period:
            raise ValueError(f"expected {self.period} values, got {len(vals)}")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("potential values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "PeriodicPotential":
        vals = tuple(float(v) for v in values)
        return cls(period=len(vals), values=vals)

    def sampled(self, length: int) -> Sequence[float]:
        """Values v_0 .. v_{length-1} of the periodic extension."""
        return [self.values[n % self.period] for n in range(length)]
