"""Retraining-cost model and the dispatch threshold between strategies.

Cost is measured in samples read: restarting training at slice i means
replaying slices i..S, and the pass over slice k sits on top of the k-1
slices already folded into the checkpoint, so it is priced at k * n/S.
That prices SISA's cumulative slices. The engine trains slice k on its own
live ids only, so a retrain from i reads about (S-i+1) * n/S * epochs rows
(its ``rows_read``), well under this price; the formula stays as the
threshold's definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .data import as_int
from .errors import InvalidArgument


def check_finite_real(name: str, value) -> None:
    """InvalidArgument unless ``value`` is a finite int or float (not a bool)."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not real or not math.isfinite(value):
        raise InvalidArgument(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class CostConfig:
    n: int
    num_slices: int
    phi: float

    def __post_init__(self) -> None:  # numpy ints are kept as Python ints
        object.__setattr__(self, "num_slices", as_int(self.num_slices, "num_slices", 1))
        object.__setattr__(self, "n", as_int(self.n, "n", self.num_slices))
        check_finite_real("phi", self.phi)
        if self.phi < 0:
            raise InvalidArgument("phi must be non-negative")


@dataclass(frozen=True)
class ThresholdResult:
    """Dispatch threshold t, trailing retrain depth r, and the cost vector.

    Direct parameter update applies iff the revoked sample's slice index is
    strictly below t; t = num_slices + 1 means no retraining is affordable.
    """

    t: int
    r: int
    costs: tuple[float, ...]


def _slices_read(i: int, s: int) -> int:
    """sum(i..S): the slice-sized passes a retrain from slice i reads."""
    return s * (s + 1) // 2 - (i - 1) * i // 2


def retrain_cost(i: int, config: CostConfig) -> float:
    """Samples read when retraining restarts at slice i: (n/S) * sum(i..S)."""
    s = config.num_slices
    i = as_int(i, "slice index", 1, s)
    return (config.n / s) * _slices_read(i, s)


def threshold(config: CostConfig) -> ThresholdResult:
    """Least slice index whose retrain cost fits the tolerable overhead phi.

    The comparison is exact, n * sum(i..S) <= phi * S over the rationals: the
    rounded float cost can fall on either side of a phi it exactly equals."""
    s = config.num_slices
    costs = tuple(retrain_cost(i, config) for i in range(1, s + 1))
    budget = Fraction(config.phi) * s
    t = next((i for i in range(1, s + 1) if config.n * _slices_read(i, s) <= budget), s + 1)
    r = s - t + 1 if t <= s else 0
    return ThresholdResult(t=t, r=r, costs=costs)
