"""Bounded zipf sampling of how many sessions each user runs.

§5.1/§5.4: "The distribution of users across sessions is according to a zipf
distribution with the zipf parameter set to 2.0", and Experiment 3 sweeps the
parameter from 1.1 to 2.0.  The paper's formulation makes p(x) = x⁻ᵃ/ζ(a) the
probability that a user logs in x times, and that is what
:class:`SessionCountSampler` draws, truncated at ``max_sessions``: a smaller
``a`` gives a heavier tail, so a few users run most sessions and the workload
is more skewed — the property the experiments rely on.
"""

from __future__ import annotations

import bisect
import random
from typing import List

from ..errors import WorkloadError


class SessionCountSampler:
    """Samples how many sessions a user runs: p(x) = x^-a / ζ(a) (§5.4).

    This is the paper's formulation — the random variable is the *number of
    sessions* a user gets.  With a = 2.0 almost every user logs in once
    (near-uniform workload); with a closer to 1 the tail is heavy and a few
    users account for most sessions, i.e. the workload is more skewed.  The
    distribution is truncated at ``max_sessions`` so traces stay bounded.
    """

    def __init__(self, parameter: float, rng: random.Random,
                 max_sessions: int = 200) -> None:
        if parameter <= 1.0:
            raise WorkloadError("zipf parameter must be > 1.0")
        if max_sessions < 1:
            raise WorkloadError("max_sessions must be >= 1")
        self.parameter = parameter
        self.rng = rng
        self.max_sessions = max_sessions
        weights = [x ** -parameter for x in range(1, max_sessions + 1)]
        total = sum(weights)
        cumulative: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        cumulative[-1] = 1.0
        self._cumulative = cumulative

    def sample(self) -> int:
        """Return a session count in [1, max_sessions]."""
        u = self.rng.random()
        return bisect.bisect_left(self._cumulative, u) + 1
