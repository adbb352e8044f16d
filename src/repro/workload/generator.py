"""Workload trace generation.

Builds the session/page-load trace described in §5.1: each client runs a
number of sessions; each session belongs to a zipf-selected user and consists
of a login, ``page_loads_per_session`` action pages drawn from the configured
mix, and a logout.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..errors import WorkloadError
from .config import WorkloadConfig
from .trace import PageLoad, Session, WorkloadTrace
from .zipf import SessionCountSampler

_LOGIN = "Login"
_LOGOUT = "Logout"


class WorkloadGenerator:
    """Generates deterministic workload traces from a configuration."""

    def __init__(self, config: WorkloadConfig, user_ids: Sequence[int]) -> None:
        if not user_ids:
            raise WorkloadError("workload generation requires at least one user")
        self.config = config
        self.user_ids = list(user_ids)
        self.rng = random.Random(config.seed)
        self.session_counts = SessionCountSampler(config.zipf_parameter, self.rng)

    def _sample_page(self) -> str:
        u = self.rng.random()
        acc = 0.0
        mix = self.config.normalized_mix()
        for page, probability in mix:
            acc += probability
            if u <= acc:
                return page
        return mix[-1][0]

    def _session_users(self, total_sessions: int) -> List[int]:
        """Assign a user to every session, following the paper's zipf law.

        Users are drawn (in shuffled order) from the population; each drawn
        user receives ``x`` sessions where ``p(x) ∝ x^-a``.  Low ``a`` gives a
        heavy tail — a handful of frequent users dominate the trace — while
        ``a = 2.0`` is close to one session per user.
        """
        pool = list(self.user_ids)
        self.rng.shuffle(pool)
        assigned: List[int] = []
        index = 0
        while len(assigned) < total_sessions:
            user_id = pool[index % len(pool)]
            index += 1
            sessions_for_user = self.session_counts.sample()
            remaining = total_sessions - len(assigned)
            assigned.extend([user_id] * min(sessions_for_user, remaining))
        self.rng.shuffle(assigned)
        return assigned

    def generate(self) -> WorkloadTrace:
        """Generate the full trace for every client."""
        trace = WorkloadTrace()
        total_sessions = self.config.clients * self.config.sessions_per_client
        session_users = self._session_users(total_sessions)
        cursor = 0
        for client_id in range(self.config.clients):
            for session_index in range(self.config.sessions_per_client):
                user_id = session_users[cursor]
                cursor += 1
                session = Session(client_id=client_id,
                                  session_index=session_index,
                                  user_id=user_id)
                # Login and Logout around each session, as in §5.1.
                pages = [_LOGIN]
                pages.extend(self._sample_page()
                             for _ in range(self.config.page_loads_per_session))
                pages.append(_LOGOUT)
                for page in pages:
                    session.page_loads.append(PageLoad(
                        client_id=client_id,
                        session_index=session_index,
                        page=page,
                        user_id=user_id,
                    ))
                trace.sessions.append(session)
        return trace
