"""Timestamp sources for the annotation scheme.

The paper: "The time stored in the TimeStamp field is assumed to be any
local, monotonically increasing value.  For example, the local standard
time, or a local, recoverable counter could serve as the time base."

Three implementations share one tiny interface:

- :meth:`read` — current time without advancing;
- :meth:`tick` — advance and return a value strictly greater than every
  previous reading (refresh events must occur at distinct times).
"""

from __future__ import annotations

import os
import time
from typing import Callable

from repro.errors import ReproError


class LogicalClock:
    """A plain monotonic counter; the default time base for simulations."""

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ReproError("clock cannot start in the past of time 0")
        self._now = start

    def read(self) -> int:
        """Current time; does not advance."""
        return self._now

    def tick(self) -> int:
        """Advance by one and return the new (unique) time."""
        self._now += 1
        return self._now

    def __repr__(self) -> str:
        return f"{type(self).__name__}(now={self._now})"


class ManualClock(LogicalClock):
    """A clock tests can set explicitly (never backward)."""

    def set(self, value: int) -> None:
        if value < self._now:
            raise ReproError(
                f"manual clock cannot go backward ({value} < {self._now})"
            )
        self._now = value

    def advance(self, delta: int) -> int:
        if delta < 0:
            raise ReproError("manual clock cannot go backward")
        self._now += delta
        return self._now


def wall_timer() -> "Callable[[], float]":
    """A wall-clock duration source for injection into core code.

    Core modules are barred from reading wall time directly (replint
    L201 keeps scans deterministic); code that genuinely needs to
    *measure* durations — phase timers, benchmarks — takes an optional
    ``timer`` callable instead and callers obtain one here, from the
    clock module the determinism rule already exempts.
    """
    return time.perf_counter


class WallClock:
    """Local standard time (nanoseconds), forced monotone across reads."""

    def __init__(self) -> None:
        self._last = 0

    def read(self) -> int:
        now = time.time_ns()
        if now <= self._last:
            now = self._last
        return now

    def tick(self) -> int:
        now = time.time_ns()
        if now <= self._last:
            now = self._last + 1
        self._last = now
        return now


class RecoverableCounter:
    """A crash-safe monotone counter, persisted with a lease.

    The on-disk file stores a *high-water mark*: the largest value that
    may have been handed out.  In-memory ticks run ahead of disk; every
    ``lease`` ticks the high-water mark is bumped and flushed.  After a
    crash the counter resumes from the persisted mark, never reissuing a
    value — exactly the recoverable counter the paper allows as a time
    base.
    """

    def __init__(self, path: str, lease: int = 1000) -> None:
        if lease < 1:
            raise ReproError("lease must be positive")
        self._path = path
        self._lease = lease
        persisted = self._load()
        self._now = persisted
        self._highwater = persisted
        # Ensure restart-safety even if we crash before the first bump.
        self._bump(persisted)

    def _load(self) -> int:
        if not os.path.exists(self._path):
            return 0
        with open(self._path, "r", encoding="ascii") as handle:
            text = handle.read().strip()
        return int(text) if text else 0

    def _bump(self, floor: int) -> None:
        self._highwater = floor + self._lease
        tmp = self._path + ".tmp"
        with open(tmp, "w", encoding="ascii") as handle:
            handle.write(str(self._highwater))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._path)

    def read(self) -> int:
        return self._now

    def tick(self) -> int:
        self._now += 1
        if self._now >= self._highwater:
            self._bump(self._now)
        return self._now
