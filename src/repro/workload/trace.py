"""Trace records: the workload as an explicit sequence of page loads.

The paper's final measurements "only replay the queries generated during
actual workload runs"; generating an explicit trace and replaying it against
each system configuration is what makes the three-way comparison fair — every
configuration sees exactly the same sessions, users, and page types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List


@dataclass
class PageLoad:
    """One page load to be executed by one client."""

    client_id: int
    session_index: int
    page: str
    user_id: int


@dataclass
class Session:
    """One user session: login, a number of action pages, logout."""

    client_id: int
    session_index: int
    user_id: int
    page_loads: List[PageLoad] = field(default_factory=list)


@dataclass
class WorkloadTrace:
    """The complete trace of a workload run."""

    sessions: List[Session] = field(default_factory=list)

    def page_loads(self) -> Iterator[PageLoad]:
        for session in self.sessions:
            yield from session.page_loads

    def page_loads_for_client(self, client_id: int) -> List[PageLoad]:
        return [pl for pl in self.page_loads() if pl.client_id == client_id]

    @property
    def total_page_loads(self) -> int:
        return sum(len(s.page_loads) for s in self.sessions)

    def page_type_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for page_load in self.page_loads():
            histogram[page_load.page] = histogram.get(page_load.page, 0) + 1
        return histogram

    def distinct_users(self) -> List[int]:
        return sorted({s.user_id for s in self.sessions})
