"""Workload configuration.

Defaults mirror §5.1/§5.4 of the paper: 15 parallel clients, 100 sessions per
client, a page mix of ⟨LookupBM : LookupFBM : CreateBM : AcceptFR⟩ =
⟨50 : 30 : 10 : 10⟩ (i.e. 80% read pages / 20% write pages), 10 page loads
per session, user selection following a zipf distribution with parameter 2.0,
and a 512 MB cache.  The reproduction scales sessions and cache size down by
default so experiments run in seconds; every knob remains configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import WorkloadError

#: The paper's default action mix (read pages first).
DEFAULT_PAGE_MIX: Dict[str, float] = {
    "LookupBM": 50.0,
    "LookupFBM": 30.0,
    "CreateBM": 10.0,
    "AcceptFR": 10.0,
}


@dataclass
class WorkloadConfig:
    """Parameters of one workload run."""

    clients: int = 15
    sessions_per_client: int = 10
    page_loads_per_session: int = 10
    page_mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_PAGE_MIX))
    zipf_parameter: float = 2.0
    seed: int = 1234
    #: Include Login/Logout page loads around each session (as the paper does).
    include_login_logout: bool = True

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise WorkloadError("clients must be >= 1")
        if self.sessions_per_client < 1:
            raise WorkloadError("sessions_per_client must be >= 1")
        if self.page_loads_per_session < 1:
            raise WorkloadError("page_loads_per_session must be >= 1")
        if not self.zipf_parameter > 1.0:   # NaN fails every comparison
            raise WorkloadError("zipf_parameter must be > 1.0")
        unknown = sorted(set(self.page_mix) - set(DEFAULT_PAGE_MIX))
        if unknown:
            raise WorkloadError(f"page_mix has unknown pages {unknown}; "
                                f"expected some of {list(DEFAULT_PAGE_MIX)}")
        if not all(0.0 <= w < math.inf for w in self.page_mix.values()):
            raise WorkloadError(
                f"page_mix weights must be finite and >= 0: {self.page_mix}")
        total = sum(self.page_mix.values())
        if total <= 0:
            raise WorkloadError("page_mix must have positive total weight")

    # -- derived properties ------------------------------------------------------

    @property
    def read_fraction(self) -> float:
        """Fraction of page loads that are read pages (LookupBM + LookupFBM)."""
        total = sum(self.page_mix.values())
        reads = self.page_mix.get("LookupBM", 0.0) + self.page_mix.get("LookupFBM", 0.0)
        return reads / total

    @property
    def write_fraction(self) -> float:
        return 1.0 - self.read_fraction

    def normalized_mix(self) -> List[Tuple[str, float]]:
        """Page mix as (page, probability) pairs summing to 1."""
        total = sum(self.page_mix.values())
        return [(page, weight / total) for page, weight in self.page_mix.items()
                if weight > 0]

    def with_read_fraction(self, read_fraction: float) -> "WorkloadConfig":
        """Return a copy whose read/write page split is ``read_fraction``.

        Keeps the internal 50:30 (read) and 10:10 (write) proportions, which
        is how Experiment 2 varies the workload.
        """
        if not 0.0 <= read_fraction <= 1.0:
            raise WorkloadError("read_fraction must be within [0, 1]")
        mix = {
            "LookupBM": 50.0 / 80.0 * read_fraction * 100.0,
            "LookupFBM": 30.0 / 80.0 * read_fraction * 100.0,
            "CreateBM": 0.5 * (1.0 - read_fraction) * 100.0,
            "AcceptFR": 0.5 * (1.0 - read_fraction) * 100.0,
        }
        mix = {page: weight for page, weight in mix.items() if weight > 0}
        clone = WorkloadConfig(
            clients=self.clients,
            sessions_per_client=self.sessions_per_client,
            page_loads_per_session=self.page_loads_per_session,
            page_mix=mix,
            zipf_parameter=self.zipf_parameter,
            seed=self.seed,
            include_login_logout=self.include_login_logout,
        )
        return clone

    def with_overrides(self, **kwargs) -> "WorkloadConfig":
        """Return a copy with the given attributes replaced."""
        params = {
            "clients": self.clients,
            "sessions_per_client": self.sessions_per_client,
            "page_loads_per_session": self.page_loads_per_session,
            "page_mix": dict(self.page_mix),
            "zipf_parameter": self.zipf_parameter,
            "seed": self.seed,
            "include_login_logout": self.include_login_logout,
        }
        params.update(kwargs)
        return WorkloadConfig(**params)
