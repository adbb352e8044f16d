"""Interleave ordering + seeded scheduling for the unified replay pipeline.

This module owns *both* halves of "in what order does the trace execute":

1. :func:`interleave_trace` — the static per-client round-robin ordering of
   a workload trace.  It is the single source of truth: the engine partitions
   the ordered stream over its workers, so one worker replays exactly the
   serial schedule restricted to its clients — and with one worker, the whole
   replay *is* the serial schedule.
2. :class:`InterleaveScheduler` — the dynamic policy.  The
   :class:`~repro.sim.concurrent.ConcurrentReplayer` runs N worker contexts
   that pause at operation boundaries (cache multi-op round trips, database
   statement completion, page fragments); the scheduler decides, at every
   such boundary, which runnable worker advances next.  The policy is what
   turns the replay from "N workers taking polite turns" into a workload
   that actually races the consistency machinery:

* ``round-robin`` — cycle the runnable workers in id order, one checkpoint
  interval each.  The fairest schedule; contention arises only when two
  workers' adjacent intervals happen to overlap on a key.
* ``random`` — a seeded uniform pick among the runnable workers.  Models a
  preemptive scheduler with no systematic bias; the same seed reproduces
  the same interleaving bit for bit.
* ``adversarial`` — the hot-key contention maximizer.  A worker that just
  completed a ``gets_multi`` is *parked*: it holds CAS tokens it has not
  yet written back, so the scheduler runs every other worker first —
  letting their commits rewrite the same hot keys — and only resumes
  parked workers (in seeded-rotation order) once nothing unparked remains.
  Two workers flushing overlapping transactions are thereby both held at
  the read-write gap, and whichever writes second loses its ``cas_multi``
  and pays a retry round.
* ``key-overlap`` — the *delete*-side contention maximizer.  CAS parking
  only hurts strategies that write values back; invalidation strategies
  enqueue deletes, which cannot lose a CAS round.  This policy parks any
  worker whose pending trigger-op flush keys (:attr:`WorkerStatus
  .pending_keys`, fed from the ``TriggerOpQueue``) intersect another
  runnable worker's pending keys — both transactions are held open at the
  read-write gap, then released back to back, so their invalidations of
  the same hot key land adjacent and the herd of re-readers piles onto one
  recompute window (``herd_size_max``, ``lease_contended``).  CAS-token
  holders park too, so update-in-place still contends under it.

Every decision is appended to :attr:`InterleaveScheduler.decisions`;
:meth:`signature` digests the log so tests (and the ablation) can assert a
fixed seed reproduces an identical interleaving.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..errors import SimulationError
from ..workload.trace import PageLoad, WorkloadTrace

ROUND_ROBIN = "round-robin"
RANDOM = "random"
ADVERSARIAL = "adversarial"
KEY_OVERLAP = "key-overlap"

#: Every interleave policy the scheduler implements.
ALL_POLICIES = (ROUND_ROBIN, RANDOM, ADVERSARIAL, KEY_OVERLAP)


def interleave_trace(trace: WorkloadTrace) -> List[PageLoad]:
    """Round-robin a trace's page loads across clients, in sorted-id order.

    This is the canonical execution order of the replay pipeline: round 1
    is every client's first page load (clients sorted by id), round 2 every
    client's second, and so on until the longest stream is exhausted.  Both
    the inline serial path (``workers=1``) and the multi-worker partition
    step consume this one function.
    """
    per_client: Dict[int, List[PageLoad]] = {}
    for page_load in trace.page_loads():
        per_client.setdefault(page_load.client_id, []).append(page_load)
    ordered: List[PageLoad] = []
    client_order = sorted(per_client)  # sorted once, not once per round
    cursors = {client: 0 for client in per_client}
    remaining = sum(len(v) for v in per_client.values())
    while remaining:
        for client_id in client_order:
            cursor = cursors[client_id]
            loads = per_client[client_id]
            if cursor < len(loads):
                ordered.append(loads[cursor])
                cursors[client_id] = cursor + 1
                remaining -= 1
    return ordered


_BY_WORKER_ID = attrgetter("worker_id")

#: Checkpoint labels after which a worker holds unwritten CAS tokens — the
#: window the adversarial policy stretches by scheduling everyone else.
_WRITE_INTENT_LABELS = frozenset({"cache:gets_multi"})


@dataclass
class WorkerStatus:
    """What the scheduler sees of one runnable worker."""

    worker_id: int
    #: Label of the checkpoint the worker is paused at ("start" before its
    #: first resume, "page:end" between page loads, "cache:gets_multi" mid
    #: CAS flush, ...).
    label: str = "start"
    pages_completed: int = 0
    #: Cache keys of the worker's pending (enqueued, unflushed) trigger ops —
    #: the invalidations/mutations its open transaction will flush at commit.
    #: Only the ``key-overlap`` policy reads these.
    pending_keys: FrozenSet[str] = field(default_factory=frozenset)

    @property
    def holds_write_intent(self) -> bool:
        """True when the worker is paused between reading CAS tokens and
        writing them back — pausing it longer invites a mismatch."""
        return self.label in _WRITE_INTENT_LABELS

    def overlaps(self, others: Sequence["WorkerStatus"]) -> bool:
        """True when this worker's pending flush keys intersect any other
        runnable worker's — the two transactions target the same keys."""
        if not self.pending_keys:
            return False
        return any(self.pending_keys & other.pending_keys
                   for other in others if other is not self)


class InterleaveScheduler:
    """Seeded policy deciding which worker context advances next."""

    def __init__(self, policy: str = ROUND_ROBIN, seed: int = 0) -> None:
        if policy not in ALL_POLICIES:
            raise SimulationError(
                f"unknown interleave policy {policy!r}; expected one of "
                f"{ALL_POLICIES}")
        self.policy = policy
        self.seed = seed
        self._rng = random.Random(seed)
        #: Worker id chosen at each scheduling decision, in order.
        self.decisions: List[int] = []
        self._rotation = 0

    def reset(self) -> None:
        """Restart the decision log and the seeded stream (a fresh replay)."""
        self._rng = random.Random(self.seed)
        self.decisions = []
        self._rotation = 0

    # -- the decision ----------------------------------------------------------

    def choose(self, runnable: Sequence[WorkerStatus]) -> int:
        """Pick the worker (by id) that runs until its next checkpoint."""
        if not runnable:
            raise SimulationError("no runnable workers to schedule")
        ordered = sorted(runnable, key=_BY_WORKER_ID)
        if self.policy == RANDOM:
            status = self._rng.choice(ordered)
        elif self.policy == ADVERSARIAL:
            status = self._choose_adversarial(ordered)
        elif self.policy == KEY_OVERLAP:
            status = self._choose_key_overlap(ordered)
        else:
            status = self._choose_rotation(ordered)
        self.decisions.append(status.worker_id)
        return status.worker_id

    def _choose_rotation(self, ordered: Sequence[WorkerStatus]) -> WorkerStatus:
        """Round-robin over worker ids, skipping the ones not runnable."""
        # ``ordered`` is sorted by id: its last id bounds the span, and ids
        # are distinct, so their distances from the rotation point are too.
        span = ordered[-1].worker_id + 1
        rotation = self._rotation
        status = min(ordered, key=lambda w: (w.worker_id - rotation) % span)
        self._rotation = status.worker_id + 1
        return status

    def _choose_adversarial(self, ordered: Sequence[WorkerStatus]) -> WorkerStatus:
        """Starve CAS-token holders; rotate among everyone else."""
        unparked = [w for w in ordered if not w.holds_write_intent]
        if unparked:
            return self._choose_rotation(unparked)
        # Everyone runnable is parked mid read-modify-write: release them
        # one at a time — the first to resume wins its cas_multi, each
        # later one finds its overlapping tokens stale.
        return self._choose_rotation(ordered)

    def _choose_key_overlap(self, ordered: Sequence[WorkerStatus]) -> WorkerStatus:
        """Park workers whose pending flush keys intersect (and CAS holders).

        A worker with pending trigger ops on a key another runnable worker
        also targets is held at its checkpoint: its transaction stays open
        while the others advance, so the overlapping flushes — deletes as
        much as CAS writes — land back to back once everyone parked is
        finally released in rotation order.
        """
        unparked = [w for w in ordered
                    if not w.holds_write_intent and not w.overlaps(ordered)]
        if unparked:
            return self._choose_rotation(unparked)
        return self._choose_rotation(ordered)

    # -- introspection ---------------------------------------------------------

    def signature(self) -> str:
        """Stable digest of the decision log (schedule identity)."""
        payload = ",".join(str(d) for d in self.decisions)
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]

    def describe(self) -> dict:
        return {"policy": self.policy, "seed": self.seed,
                "decisions": len(self.decisions),
                "signature": self.signature()}


def build_scheduler(policy: str = ROUND_ROBIN, seed: int = 0,
                    scheduler: Optional[InterleaveScheduler] = None,
                    ) -> InterleaveScheduler:
    """Resolve an explicit scheduler instance or build one from knobs."""
    if scheduler is not None:
        return scheduler
    return InterleaveScheduler(policy=policy, seed=seed)
