"""The replay engine: N interleaved worker contexts, real races, one pipeline.

This is the *only* execution pipeline for workload traces: a serial replay
is ``workers=1`` here, and there is no second replay loop to diverge from.
Degree of parallelism is a parameter, not a code path.

**Worker model.**  A :class:`ConcurrentReplayer` partitions the trace's
client streams over N *worker contexts* (the canonical ordering comes from
:func:`~repro.sim.interleave.interleave_trace` — the same function for one
worker or many).  Each worker executes its page loads as a cooperative
coroutine: the application, the cache client, and the transaction manager
announce a *pause* on :mod:`repro.obs.hooks`' chain at operation boundaries
(page fragments, multi-key cache round trips, statement/commit completion),
and for a threaded replay the engine subscribes its yield to the chain.
There is no scheduler thread: the worker that yields publishes its label
and asks the seeded :class:`~repro.sim.interleave.InterleaveScheduler`
*itself* who runs next.  Picked again — most decisions under the
adversarial policy — it just returns: no OS switch, nothing to reinstall.
Otherwise it releases the chosen worker's *baton* (a ``threading.Lock``
held from creation) and parks on its own: one switch.  A finishing worker
passes control on the same way; the main thread makes the first pick and
sleeps until the end.
A thread releases another's baton only as its last act before parking or
finishing, so exactly one worker runs at any instant — workers are OS
threads only so that ordinary (non-generator) application code can be
suspended mid-page — and the interleaving is bit-identical for a fixed
scheduler seed.  The first failure (a worker's exception, the scheduler's,
a watchdog's) is recorded rather than thrown across threads: the main
thread wakes, unwinds the parked workers one at a time, unsubscribes the
yield, restores every context, and raises it (docs/CONCURRENCY.md, "Worker
model").  Where threads can be pinned, all workers run on the CPU the caller was on
when the replay began, so a switch resumes the replay on a warm core.

With ``workers=1`` no checkpoint could ever switch control, so the engine
takes an inline fast path: the single worker's pages run on the calling
thread with no yield subscribed and no context switching — bit-for-bit the
historical serial replay, at serial speed — while the scheduler still logs
one decision per page boundary (the degenerate all-zeros schedule).

**Isolation.**  Each worker owns one small context object per layer and,
on every switch, installs them by assignment: its page's
:class:`~repro.storage.costmodel.CostCounters` as the recorder scope
(events are attributed to the worker that caused them), a
:class:`~repro.storage.transactions.TxnContext` (interleaved commits are
legal — one worker can never commit another's transaction), an
:class:`~repro.core.trigger_queue.OpContext` (ops flush at their own
transaction's commit), a :class:`~repro.core.refresh.RefreshContext` (each
worker is its own refresh thread; outstanding refreshes fold back into the
caller's backlog at teardown) and a :class:`~repro.obs.tracer.SpanStack`.
The cache servers are deliberately *shared*: that is where workers race —
two workers really do interleave ``gets_multi``/``cas_multi`` on the same
wall key, making ``cas_multi_mismatch``/``cas_retry_rounds`` fire, and
competing lease claimants drive ``lease_contended``/``herd_size_max``.

The replay produces a :class:`ConcurrentReplayResult` — the serial
:class:`~repro.sim.runner.ReplayResult` shape (``simulate_population``
consumes it unchanged) plus the schedule log, per-worker page stores, and
the contention summary.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..obs import hooks
from ..obs.tracer import SpanStack
from ..storage.costmodel import CostCounters
from ..storage.transactions import TxnContext
from ..workload.trace import PageLoad, WorkloadTrace
from .interleave import (InterleaveScheduler, ROUND_ROBIN, WorkerStatus,
                         build_scheduler, interleave_trace)
from .runner import ReplayResult, ReplayedPage

#: Give a wedged worker thread this long before declaring the replay stuck
#: (a scheduling bug, not a slow run: all real work is simulated).
_HANDOFF_TIMEOUT_SECONDS = 120.0

_THREAD_STAT = "/proc/thread-self/stat"


def _caller_cpu() -> Optional[int]:
    """The CPU the calling thread is on (field 39 of its Linux ``stat``),
    or None where threads cannot be pinned."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open(_THREAD_STAT, "rb") as stat:
            # Field 3 on follows the command name's last ")".
            return int(stat.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


class _WorkerAborted(BaseException):
    """Raised inside a worker thread to unwind it during error cleanup."""


@dataclass
class ConcurrentReplayResult(ReplayResult):
    """A :class:`ReplayResult` plus the interleaving that produced it."""

    workers: int = 1
    policy: str = ROUND_ROBIN
    seed: int = 0
    #: Worker id chosen at each scheduling decision, in order.
    schedule: List[int] = field(default_factory=list)
    #: Stable digest of ``schedule`` (compare runs without diffing the log).
    schedule_signature: str = ""
    #: Pages completed per worker id.
    pages_by_worker: Dict[int, int] = field(default_factory=dict)
    #: Per-worker page stores: each worker's completed pages in its own
    #: completion order (``pages`` is the global completion-order view of
    #: the same objects).
    page_stores: Dict[int, List[ReplayedPage]] = field(default_factory=dict)
    #: Per-key telemetry snapshot (adaptive consistency runs only: the
    #: :class:`~repro.adaptive.telemetry.KeyTelemetry` the strategy attached
    #: to the app-side cache client, hottest key first).  Empty for every
    #: other strategy, so fingerprints of existing runs are unchanged.
    key_telemetry: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def contention_summary(self) -> Dict[str, int]:
        """The counters the contention ablation is about."""
        counters = self.total_counters
        return {
            "cas_multi_mismatch": counters.cas_multi_mismatch,
            "cas_retry_rounds": counters.cas_retry_rounds,
            "lease_contended": counters.lease_contended,
        }

    def client_dispatch_order(self) -> List[int]:
        """Client ids in the order the schedule first completed their pages.

        This is how the closed-loop simulation consumes the decision log:
        when it simulates a subset of the population, it takes the clients
        the real interleaving dispatched first, not the lowest ids.  For
        one worker the round-robin schedule visits clients in sorted-id
        order, so this degenerates to :meth:`ReplayResult.client_ids`.
        """
        seen: Dict[int, None] = {}
        for page in self.pages:
            if page.client_id not in seen:
                seen[page.client_id] = None
        return list(seen)


class _WorkerContext:
    """One cooperative worker: a thread, its baton, its scheduler status,
    and its own context in each per-worker layer."""

    def __init__(self, worker_id: int, replayer: "ConcurrentReplayer",
                 page_loads: List[PageLoad]) -> None:
        self.worker_id = worker_id
        self.page_loads = page_loads
        #: This worker's state in each layer, live while it runs (see
        #: :meth:`ConcurrentReplayer._install_layers`); the cache layers
        #: hand out their own, so the engine names no class of theirs.
        self.txn = TxnContext()
        self.ops = (replayer.op_queue.open_context()
                    if replayer.op_queue is not None else None)
        self.refresh = (replayer.refresh_queue.open_context()
                        if replayer.refresh_queue is not None else None)
        self.spans = SpanStack(worker_id)
        #: What the scheduler sees of this worker, for the whole replay: only
        #: the worker itself writes it, while it holds control — between two
        #: decisions nobody else's label, page count or pending keys change.
        self.status = WorkerStatus(worker_id=worker_id)
        self._replayer = replayer
        # Locked while the worker runs *and* while it is parked: whoever
        # hands it control releases it, and it re-takes it on waking.
        self._baton = threading.Lock()
        self._baton.acquire()
        self._page_counters = CostCounters()
        self.thread = threading.Thread(
            target=self._main, name=f"replay-worker-{worker_id}", daemon=True)

    def resume(self) -> None:
        """Hand over control: the caller's last act before it parks or ends."""
        self._baton.release()

    def _wait_turn(self) -> None:
        """Park until another thread hands this worker the baton."""
        if not self._baton.acquire(timeout=_HANDOFF_TIMEOUT_SECONDS):
            raise SimulationError(
                f"worker {self.worker_id} was never rescheduled "
                f"(paused at {self.status.label!r})")
        # Installed even to unwind: the error path runs in this worker's
        # own transaction, ops and scope, like the rest of its page.
        self._install_context()
        if self._replayer._failure is not None:
            raise _WorkerAborted()

    def yield_control(self, label: str) -> None:
        """The checkpoint: publish what the scheduler reads, ask it who runs
        next, and switch threads only if that is somebody else."""
        status = self.status
        status.label = label
        if self.ops is not None:
            status.pending_keys = self.ops.pending_keys()
        replayer = self._replayer
        chosen = replayer._next_worker()
        if chosen is self:
            return
        if chosen is None:
            # The replay failed and the cause is recorded: unwind with an
            # exception no ``except Exception`` in a page can swallow.
            raise _WorkerAborted()
        chosen.resume()
        self._wait_turn()

    def _install_context(self) -> None:
        """Make this worker's attribution and per-layer state the live one."""
        replayer = self._replayer
        replayer._active_worker = self
        replayer.recorder.activate_scope(self._page_counters)
        replayer._install_layers(self.txn, self.ops, self.refresh, self.spans)
        for client in replayer.cache_clients:
            client.current_worker = self.worker_id

    def _main(self) -> None:
        replayer = self._replayer
        try:
            if replayer._cpu is not None:  # one runs at a time: share a core
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(0, (replayer._cpu,))
            # Park until somebody gives this worker its first turn (the
            # label is already "start" from construction).
            self._wait_turn()
            for page_load in self.page_loads:
                replayer._advance_clock()
                self._page_counters = CostCounters()
                replayer.recorder.activate_scope(self._page_counters)
                replayer.app.render(page_load.page, page_load.user_id)
                replayer._complete_page(self, page_load, self._page_counters)
                self.status.pages_completed += 1
                if self.page_loads[-1] is not page_load:
                    self.yield_control("page:end")
        except _WorkerAborted:
            pass
        except BaseException as exc:  # surfaces from replay() as itself
            replayer._fail(exc)
        finally:
            replayer._pass_control(finished=self)


class ConcurrentReplayer:
    """Executes a workload trace with N interleaved worker contexts.

    Built from an application and its database (plus the optional clock
    advance); ``replay(trace, record=...)`` returns the result shape
    ``simulate_population`` consumes.  ``genie`` (the CacheGenie instance,
    when the scenario has one) is what gives each worker its own trigger-op
    context and attributes round trips to workers; without it only the
    app/database boundaries pause (NoCache).
    """

    def __init__(
        self,
        app: Any,
        database: Any,
        genie: Optional[Any] = None,
        workers: int = 2,
        policy: str = ROUND_ROBIN,
        seed: int = 0,
        scheduler: Optional[InterleaveScheduler] = None,
        clock: Optional[Any] = None,
        page_interval_seconds: float = 0.0,
        arrival_model: Optional[Callable[[int], float]] = None,
        fault_injector: Optional[Any] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise SimulationError("ConcurrentReplayer needs at least 1 worker")
        self.app = app
        self.database = database
        self.genie = genie
        self.workers = workers
        self.scheduler = build_scheduler(policy, seed, scheduler)
        self.clock = clock
        self.page_interval_seconds = page_interval_seconds
        #: Optional time-varying arrival shape: a callable mapping the
        #: global page index (0-based, in clock-advance order) to the
        #: virtual seconds to advance before that page.  Overrides the
        #: constant ``page_interval_seconds`` when set; the constant stays
        #: the default, so existing replays are bit-identical.  See
        #: :mod:`repro.workload.arrival` for the flash-crowd shape.
        self.arrival_model = arrival_model
        #: Optional :class:`~repro.cluster.faults.FaultInjector`: scheduled
        #: node faults fire at the clock-advance points (the same points in
        #: the serial and threaded paths), so a fixed fault schedule lands
        #: at identical simulated instants in every run.
        self.fault_injector = fault_injector
        #: Optional :class:`~repro.obs.Tracer`: when set, ``replay()``
        #: subscribes it to the boundary chain for the duration of the
        #: replay and installs each worker's own span stack on every
        #: switch, beside its other per-layer contexts.  Default None:
        #: tracing off.
        self.tracer = tracer
        self.recorder = database.recorder
        self.transactions = database.transactions
        self.op_queue = getattr(genie, "trigger_op_queue", None)
        # Per-worker refresh contexts only make sense with actual workers:
        # the inline workers=1 path leaves the default refresh thread alone
        # (pending refreshes must survive replay boundaries exactly as the
        # serial replayer left them).
        self.refresh_queue = (getattr(genie, "refresh_queue", None)
                              if workers > 1 else None)
        self.cache_clients = []
        if genie is not None:
            self.cache_clients = [genie.app_cache, genie.trigger_cache]
        # Live replay state.
        self._active_worker: Optional[_WorkerContext] = None
        #: Unfinished workers in id order, and the status list every
        #: decision hands the scheduler; rebuilt only when a worker finishes.
        self._runnable: Dict[int, _WorkerContext] = {}
        self._statuses: List[WorkerStatus] = []
        #: The first thing that went wrong; once set, every worker unwinds at
        #: its next checkpoint or wake-up and ``replay()`` raises it.
        self._failure: Optional[BaseException] = None
        #: Set by the last thread to hold control, to wake the main thread.
        self._ended = threading.Event()
        #: The CPU this threaded replay's workers pin to (None: unpinned).
        self._cpu: Optional[int] = None
        self._result: Optional[ConcurrentReplayResult] = None
        self._record = True
        self._pages_started = 0

    # -- worker assignment -----------------------------------------------------

    def _partition(self, trace: WorkloadTrace) -> List[List[PageLoad]]:
        """Deal the trace's client streams over the workers.

        Clients are assigned round-robin by sorted id, and each worker
        replays its clients' page loads in the canonical global round-robin
        order — so one worker's stream is exactly the serial schedule
        restricted to its clients (and with one worker the whole replay
        *is* the serial schedule).
        """
        ordered = interleave_trace(trace)
        client_ids = sorted({p.client_id for p in ordered})
        worker_of = {cid: index % self.workers
                     for index, cid in enumerate(client_ids)}
        per_worker: List[List[PageLoad]] = [[] for _ in range(self.workers)]
        for page_load in ordered:
            per_worker[worker_of[page_load.client_id]].append(page_load)
        return per_worker

    # -- per-worker state -----------------------------------------------------

    def _live_layers(self) -> Tuple[Any, ...]:
        """The live context of each per-worker layer (None for an absent
        layer), in :meth:`_install_layers` order."""
        return tuple(getattr(layer, "context", None) for layer in (
            self.transactions, self.op_queue, self.refresh_queue, self.tracer))

    def _install_layers(self, txn: TxnContext, ops: Any, refresh: Any,
                        spans: SpanStack) -> None:
        """Make the given contexts the live ones, by assignment."""
        self.transactions.context = txn
        if self.op_queue is not None:
            self.op_queue.context = ops
        if self.refresh_queue is not None:
            self.refresh_queue.context = refresh
        if self.tracer is not None:
            self.tracer.context = spans

    # -- hooks -----------------------------------------------------------------

    def _checkpoint(self, label: str) -> None:
        """The yield a threaded replay subscribes to every pause."""
        worker = self._active_worker
        if worker is not None:
            worker.yield_control(label)

    # -- the hand-off ------------------------------------------------------------

    def _next_worker(self) -> Optional[_WorkerContext]:
        """One scheduling decision, on whichever thread holds control; None
        once the replay has failed — a scheduler error included, which is
        recorded here instead of travelling through application code."""
        if self._failure is not None:
            return None
        try:
            worker_id = self.scheduler.choose(self._statuses)
            chosen = self._runnable.get(worker_id)
            if chosen is None:
                raise SimulationError(
                    f"scheduler chose worker {worker_id!r}, which is not "
                    f"runnable (runnable: {list(self._runnable)})")
        except Exception as exc:
            self._fail(exc)
            return None
        return chosen

    def _fail(self, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = exc

    def _pass_control(self, finished: Optional[_WorkerContext] = None) -> None:
        """The last act of a thread that runs no further (a finished worker;
        the main thread after start-up): next worker's turn, or the end."""
        if finished is not None:
            del self._runnable[finished.worker_id]
            self._statuses = [w.status for w in self._runnable.values()]
        chosen = self._next_worker() if self._runnable else None
        if chosen is not None:
            chosen.resume()
        else:
            self._ended.set()

    def _await_end(self) -> None:
        """Main thread: sleep until the replay ends, watching for progress."""
        log = self.scheduler.decisions
        decisions = 0
        while not self._ended.wait(timeout=_HANDOFF_TIMEOUT_SECONDS):
            if len(log) == decisions:
                # Nobody has decided anything for a whole timeout: the last
                # worker picked still holds control.
                self._fail(SimulationError(
                    f"worker {log[-1]} never yielded control"))
                return
            decisions = len(log)

    def _advance_clock(self) -> None:
        page_index = self._pages_started
        self._pages_started += 1
        if self.clock is not None:
            if self.arrival_model is not None:
                interval = float(self.arrival_model(page_index))
                if interval > 0:
                    self.clock.advance(interval)
            elif self.page_interval_seconds > 0:
                self.clock.advance(self.page_interval_seconds)
        if self.fault_injector is not None and self.clock is not None:
            self.fault_injector.fire_due(self.clock())

    def _complete_page(self, worker: _WorkerContext, page_load: PageLoad,
                       counters: CostCounters) -> None:
        """Record one finished page (called from the worker's own turn)."""
        result = self._result
        if result is None or not self._record:
            return
        demand = self.database.demand_of(counters)
        page = ReplayedPage(
            client_id=page_load.client_id,
            page=page_load.page,
            user_id=page_load.user_id,
            demand=demand,
            counters=counters,
        )
        result.pages.append(page)
        result.page_stores.setdefault(worker.worker_id, []).append(page)
        result.total_counters.add(counters)

    # -- the replay ------------------------------------------------------------

    def replay(self, trace: WorkloadTrace,
               record: bool = True) -> ConcurrentReplayResult:
        """Replay ``trace`` across the worker contexts, interleaved.

        Deterministic for a fixed (trace, scheduler policy, seed): the
        decision log, the page completion order, and every counter are
        bit-identical across runs.  With one worker the engine takes the
        inline fast path — the historical serial replay, exactly.
        ``record=False`` runs the pages without keeping per-page results
        (used for warm-up, like the paper's 40-client warm-up phase).
        """
        self.scheduler.reset()
        self._record = record
        self._pages_started = 0
        self._result = ConcurrentReplayResult(
            workers=self.workers, policy=self.scheduler.policy,
            seed=self.scheduler.seed)
        contexts = [
            _WorkerContext(worker_id=index, replayer=self, page_loads=loads)
            for index, loads in enumerate(self._partition(trace))
        ]
        tracing = (hooks.subscribed(self.tracer) if self.tracer is not None
                   else contextlib.nullcontext())
        try:
            with tracing:
                if self.workers == 1:
                    self._replay_serial(contexts[0])
                else:
                    self._replay_threaded(contexts)
        finally:
            result, self._result = self._result, None
        result.schedule = list(self.scheduler.decisions)
        result.schedule_signature = self.scheduler.signature()
        result.pages_by_worker = {w.worker_id: w.status.pages_completed
                                  for w in contexts}
        telemetry = (getattr(self.genie.app_cache, "telemetry", None)
                     if self.genie is not None else None)
        if telemetry is not None:
            result.key_telemetry = telemetry.snapshot()
        return result

    def _replay_serial(self, worker: _WorkerContext) -> None:
        """The ``workers=1`` fast path: the degenerate schedule, inline.

        A single worker can never be preempted — no checkpoint could switch
        control to anyone else — so its pages run on the calling thread
        with no yield subscribed and no context switching.  The scheduler is
        still consulted once per page boundary, so the replay carries a
        real (all-zeros) decision log and a deterministic signature.
        """
        status = worker.status
        previous_scope = self.recorder.activate_scope(None)
        try:
            for page_load in worker.page_loads:
                self.scheduler.choose([status])
                self._advance_clock()
                counters = CostCounters()
                self.recorder.activate_scope(counters)
                self.app.render(page_load.page, page_load.user_id)
                self._complete_page(worker, page_load, counters)
                status.pages_completed += 1
                status.label = "page:end"
        finally:
            self.recorder.activate_scope(previous_scope)

    def _replay_threaded(self, contexts: List[_WorkerContext]) -> None:
        """The multi-worker path: suspendable threads, direct hand-off."""
        self._runnable = {w.worker_id: w for w in contexts}
        self._statuses = [w.status for w in contexts]
        self._failure = None
        self._ended.clear()
        self._cpu = _caller_cpu()

        previous_scope = self.recorder.activate_scope(None)
        saved_layers = self._live_layers()
        # Looked up on the instance now: a shadow set on it is what yields.
        yielder = hooks.OnPause(self._checkpoint)
        hooks.subscribe(yielder)

        stuck: List[int] = []
        try:
            try:
                for worker in contexts:
                    worker.thread.start()
                self._pass_control()
                self._await_end()
            except BaseException as exc:  # the main thread's own (an interrupt)
                self._fail(exc)
            # After a failure whoever held control has stopped; the parked
            # workers, released one at a time, see it and unwind.
            for worker in contexts:
                if worker.worker_id in self._runnable:
                    worker.resume()
                worker.thread.join(timeout=_HANDOFF_TIMEOUT_SECONDS)
                if worker.thread.is_alive():
                    stuck.append(worker.worker_id)
        finally:
            hooks.unsubscribe(yielder)
            for client in self.cache_clients:
                client.current_worker = None
            self.recorder.activate_scope(previous_scope)
            self._active_worker = None
            # An aborted worker can leave an explicit transaction open (the
            # abort exception unwinds past the application's error
            # handling): roll it back in the worker's own state, so the
            # on_abort hooks discard its pending ops, not somebody else's.
            for worker in contexts:
                txn = worker.txn.current
                if txn is not None and not txn.autocommit:
                    self._install_layers(worker.txn, worker.ops,
                                         worker.refresh, worker.spans)
                    self.transactions.abort()
            self._install_layers(*saved_layers)
            # Retire each worker's state: ops of a transaction it never
            # committed are discarded, refreshes it never drained fold back
            # into the caller's backlog (worker-id order), open spans are
            # counted as abandoned.
            for worker in contexts:
                if self.op_queue is not None:
                    self.op_queue.close_context(worker.ops)
                if self.refresh_queue is not None:
                    self.refresh_queue.close_context(worker.refresh)
                if self.tracer is not None:
                    self.tracer.close_context(worker.spans)
        failure, self._failure = self._failure, None
        if stuck:
            raise SimulationError(
                f"worker threads {stuck} still alive after the replay was "
                f"aborted") from failure
        if failure is not None:
            raise failure
