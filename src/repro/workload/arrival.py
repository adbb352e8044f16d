"""Time-varying arrival shapes for the replay engine's virtual clock.

The replay engine advances the shared virtual clock by a constant
``page_interval_seconds`` before each page load.  An **arrival model**
replaces that constant with a shape: a callable mapping the global page
index (0-based, in clock-advance order) to the virtual seconds to advance
before that page.  Pass it as ``arrival_model=`` to
:class:`~repro.sim.concurrent.ConcurrentReplayer`; the constant interval
stays the default, so existing replays are bit-identical.  The one shape is
:class:`FlashCrowdArrival`, which ``exp-adaptive`` and the benchmark's
adaptive workload replay.

The models are plain classes (not closures) so sweep cells that carry one
across process boundaries (:func:`repro.sim.parallel.run_cells`) can pickle
them, and they are pure functions of the page index — deterministic by
construction, like everything else on the virtual clock.

Shrinking the interval means pages arrive *faster* (virtual time passes
more slowly across the same number of pages), which is how a flash crowd
looks to the time-based consistency machinery: more reads per lease
window/freshness deadline, exactly the shift the adaptive strategy's
telemetry is meant to pick up (see ``docs/ADAPTIVE.md``).
"""

from __future__ import annotations

import math

__all__ = ["FlashCrowdArrival"]


class FlashCrowdArrival:
    """A flash crowd: baseline traffic, a sudden burst, then recovery.

    Pages before ``burst_start`` (and after the burst fully decays) arrive
    every ``base_interval_seconds``.  At ``burst_start`` the arrival rate
    jumps by ``burst_factor`` (the interval divides by it), then relaxes
    exponentially back to baseline with ``recovery_pages`` e-folding pages:

    ``interval(i) = base / (1 + (burst_factor - 1) * exp(-(i - start) / recovery))``

    for ``i >= burst_start``.  The burst makes the hot keys' decayed read
    rates spike — the trigger for adaptive band promotion — and the
    recovery lets them settle back, exercising demotion and hysteresis in
    one trace.
    """

    def __init__(self, base_interval_seconds: float = 0.25,
                 burst_start: int = 0, burst_factor: float = 8.0,
                 recovery_pages: int = 60) -> None:
        if base_interval_seconds <= 0:
            raise ValueError("base_interval_seconds must be positive")
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if recovery_pages <= 0:
            raise ValueError("recovery_pages must be positive")
        self.base_interval_seconds = float(base_interval_seconds)
        self.burst_start = int(burst_start)
        self.burst_factor = float(burst_factor)
        self.recovery_pages = int(recovery_pages)

    def __call__(self, page_index: int) -> float:
        if page_index < self.burst_start:
            return self.base_interval_seconds
        decay = math.exp(-(page_index - self.burst_start)
                         / self.recovery_pages)
        rate_boost = 1.0 + (self.burst_factor - 1.0) * decay
        return self.base_interval_seconds / rate_boost

    def __repr__(self) -> str:
        return (f"FlashCrowdArrival(base_interval_seconds="
                f"{self.base_interval_seconds!r}, "
                f"burst_start={self.burst_start!r}, "
                f"burst_factor={self.burst_factor!r}, "
                f"recovery_pages={self.recovery_pages!r})")

