"""A virtual clock shared by the cache servers, the ORM, and the simulation.

Experiments must be deterministic and fast, so nothing in the reproduction
reads the wall clock: timestamps (``auto_now_add`` fields), cache expiry, and
simulated time all come from a :class:`VirtualClock` that the harness
advances explicitly.
"""

from __future__ import annotations


class VirtualClock:
    """A monotonically advancing virtual clock (seconds)."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward; negative advances are rejected."""
        if seconds < 0:
            raise ValueError("cannot move a VirtualClock backwards")
        self._now += seconds
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualClock t={self._now:.6f}s>"
