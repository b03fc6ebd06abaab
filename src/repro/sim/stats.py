"""Statistics collection for simulation models.

Three collector types cover everything the model reports:

* :class:`Counter` -- monotonically increasing occurrence counts.
* :class:`Tally` -- per-observation statistics (mean, variance, min,
  max), e.g. response times.
* :class:`TimeWeighted` -- the time integral of a piecewise-constant
  state variable (a resource's busy-server count); its mean over an
  interval is the time average (utilization when divided by capacity).

All collectors support :meth:`reset` so that a warm-up period can be
discarded before measurement starts, as is standard practice for
steady-state simulation.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

__all__ = ["Counter", "Tally", "TimeWeighted"]


class Counter:
    """A simple occurrence counter."""

    __slots__ = ("name", "count")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0

    def increment(self, amount: int = 1) -> None:
        self.count += amount

    def reset(self) -> None:
        self.count = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, count={self.count})"


class Tally:
    """Per-observation statistics with Welford's online algorithm."""

    __slots__ = ("name", "count", "_mean", "_m2", "_min", "_max")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def record(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def min(self) -> Optional[float]:
        """Smallest observation, or None for an empty tally.

        None (JSON ``null``) rather than ``inf``: ``json.dump`` renders
        ``inf`` as the non-standard ``Infinity`` token, which strict
        JSON parsers reject.
        """
        return self._min if self.count else None

    @property
    def max(self) -> Optional[float]:
        """Largest observation, or None for an empty tally."""
        return self._max if self.count else None

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def summary(self) -> Dict[str, Optional[float]]:
        """JSON-safe summary dict (no ``inf`` even when empty)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.min,
            "max": self.max,
        }

    def reset(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tally({self.name!r}, n={self.count}, mean={self.mean:.6g})"


class TimeWeighted:
    """Time-weighted statistics for a piecewise-constant state variable.

    Call :meth:`update` whenever the variable changes.  The time-average
    over the observation interval is ``area / elapsed``.
    """

    __slots__ = ("name", "_value", "_last_time", "_start_time", "_area")

    def __init__(self, name: str = "", initial: float = 0.0, now: float = 0.0) -> None:
        self.name = name
        self._value = initial
        self._last_time = now
        self._start_time = now
        self._area = 0.0

    @property
    def value(self) -> float:
        return self._value

    def update(self, value: float, now: float) -> None:
        if now < self._last_time:
            raise ValueError("time moved backwards")
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value

    def time_average(self, now: float) -> float:
        elapsed = now - self._start_time
        if elapsed <= 0:
            return self._value
        return self.integral(now) / elapsed

    def integral(self, now: float) -> float:
        """Area under the curve since the last reset (value x seconds)."""
        return self._area + self._value * (now - self._last_time)

    def reset(self, now: float) -> None:
        """Discard history; the current value is kept as the new initial."""
        self._last_time = now
        self._start_time = now
        self._area = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimeWeighted({self.name!r}, value={self._value})"

