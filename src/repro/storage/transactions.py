"""Transactions: autocommit statements, explicit transactions, and undo.

CacheGenie serializes all writes through the database (§1, §3.3), so the
engine provides a straightforward single-writer transaction model:

* every statement runs inside a transaction — either the currently open
  explicit transaction or an implicit autocommit transaction;
* committed statements charge a commit (fsync) cost to the disk resource;
* aborting an explicit transaction undoes its heap/index changes using an
  undo log (triggers are *not* re-fired during undo, matching the paper's
  non-transactional cache propagation: the cache may transiently reflect an
  aborted write, i.e. dirty but never stale data).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..errors import TransactionError
from ..obs import hooks
from .costmodel import Recorder


@dataclass
class UndoRecord:
    """One inverse operation to apply if the transaction aborts."""

    apply: Callable[[], None]
    description: str = ""


@dataclass
class Transaction:
    """An open transaction: id, undo log, and a few bookkeeping counters."""

    tid: int
    autocommit: bool
    undo_log: List[UndoRecord] = field(default_factory=list)
    statements: int = 0
    status: str = "active"  # active | committed | aborted

    def record_undo(self, apply: Callable[[], None], description: str = "") -> None:
        self.undo_log.append(UndoRecord(apply=apply, description=description))


class TxnContext:
    """One connection's transaction state (each replay worker owns one): the
    open transaction, None when idle, and the nesting depth of statements."""

    __slots__ = ("current", "depth")

    def __init__(self) -> None:
        self.current: Optional[Transaction] = None
        self.depth = 0


class _Statement:
    """The ``with`` bracket :meth:`TransactionManager.statement` hands out.

    It carries no per-use state — nesting lives in the live context's depth
    counter — so one instance per ``wrote`` serves every statement.
    """

    __slots__ = ("_manager", "_wrote")

    def __init__(self, manager: "TransactionManager", wrote: bool) -> None:
        self._manager = manager
        self._wrote = wrote

    def __enter__(self) -> None:
        self._manager.begin_statement()

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            self._manager.statement_finished(wrote=self._wrote)
        elif self._manager.context.depth > 0:
            self._manager.context.depth -= 1


class TransactionManager:
    """Manages the (single) open transaction and assigns transaction ids.

    The engine is single-threaded per database instance — concurrency in the
    evaluation comes from the discrete-event simulation layer — so at most
    one explicit transaction is open at a time, exactly like one Django
    worker's connection.  Each outermost statement and each explicit commit
    ends with a pause on :mod:`repro.obs.hooks`' chain (``db:statement`` /
    ``db:commit``): a legal point for the concurrent replay engine to run
    another worker.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._tid_counter = itertools.count(1)
        #: The live transaction state.  Statements issued from inside
        #: another statement (a trigger body reading the database) belong to
        #: the enclosing statement's transaction; its depth counter keeps
        #: them from auto-committing it out from under the trigger.
        self.context = TxnContext()
        self.committed = 0
        self.aborted = 0
        #: Callbacks fired after a transaction commits/aborts (autocommit
        #: included).  CacheGenie's trigger-op queue flushes/discards here.
        self.on_commit: List[Callable[[], None]] = []
        self.on_abort: List[Callable[[], None]] = []
        self._statements = (_Statement(self, False), _Statement(self, True))

    def _fire(self, callbacks: List[Callable[[], None]]) -> None:
        for callback in list(callbacks):
            callback()

    # -- state ----------------------------------------------------------------

    @property
    def current(self) -> Optional[Transaction]:
        return self.context.current

    @property
    def in_transaction(self) -> bool:
        txn = self.context.current
        return txn is not None and not txn.autocommit

    # -- lifecycle ------------------------------------------------------------

    def begin(self) -> Transaction:
        """Open an explicit transaction."""
        if self.in_transaction:
            raise TransactionError("a transaction is already open")
        txn = Transaction(tid=next(self._tid_counter), autocommit=False)
        self.context.current = txn
        return txn

    def begin_statement(self) -> Transaction:
        """Open (or join) a transaction for one statement; tracks nesting.

        The database brackets every statement with ``begin_statement()`` /
        :meth:`statement_finished`.  A trigger body that issues its own
        statements (LinkQuery walking a join chain backwards) nests inside
        the firing statement; the depth counter keeps those inner statements
        from committing the enclosing autocommit transaction — and firing
        the commit hooks — before the outer statement (and its triggers)
        has finished.
        """
        context = self.context
        txn = context.current
        if txn is None:
            txn = context.current = Transaction(tid=next(self._tid_counter),
                                                autocommit=True)
        context.depth += 1
        return txn

    def statement(self, wrote: bool) -> "_Statement":
        """Bracket one statement: begin on entry, finish on clean exit.

        On an exception (a failing trigger aborts its statement) only the
        nesting depth unwinds; the transaction itself stays open exactly as
        an errored statement leaves it.
        """
        return self._statements[wrote]

    def read(self, execute: Callable[[Any], Any], query: Any) -> Any:
        """Run one SELECT or COUNT, ``execute(query)``, as a statement.

        Issued outside any transaction — the only case in which no other
        statement can join it, since a read fires no trigger — it runs in
        this one flat bracket and allocates no :class:`Transaction`: it
        takes the next tid, commits (``committed``, ``on_commit``) and
        pauses at ``db:statement`` exactly as :meth:`statement` would, and
        on an exception leaves the open autocommit transaction that
        :meth:`statement` leaves.  Inside an open transaction — explicit, or
        a trigger body's enclosing statement — it is :meth:`statement`.
        """
        context = self.context
        if context.current is not None or context.depth:
            with self._statements[False]:
                return execute(query)
        tid = next(self._tid_counter)
        try:
            result = execute(query)
        except BaseException:
            context.current = Transaction(tid=tid, autocommit=True)
            raise
        self._autocommitted(wrote=False)
        return result

    def statement_finished(self, wrote: bool) -> None:
        """Called by the database after each statement.

        Autocommit transactions commit when the *outermost* statement
        finishes; explicit transactions stay open until :meth:`commit` /
        :meth:`abort`.
        """
        context = self.context
        if context.depth > 0:
            context.depth -= 1
        txn = context.current
        if txn is None:
            return
        txn.statements += 1
        if txn.autocommit and context.depth == 0:
            txn.status = "committed"
            context.current = None
            self._autocommitted(wrote)
        elif context.depth == 0 and hooks.chain:
            # A statement inside an explicit transaction: the transaction
            # stays open, but the statement boundary is still a legal
            # point for another worker to run.
            hooks.pause("db:statement")

    def _autocommitted(self, wrote: bool) -> None:
        """An outermost autocommit statement has finished: charge a writing
        commit, count it, run the commit callbacks, then pause."""
        if wrote:
            self.recorder.record("commits")
        self.committed += 1
        if self.on_commit:
            self._fire(self.on_commit)
        if hooks.chain:
            hooks.pause("db:commit" if wrote else "db:statement")

    def commit(self) -> Transaction:
        """Commit the open explicit transaction."""
        context = self.context
        txn = context.current
        if txn is None or txn.autocommit:
            raise TransactionError("no explicit transaction is open")
        if txn.undo_log:
            self.recorder.record("commits")
        txn.status = "committed"
        txn.undo_log.clear()
        self.committed += 1
        context.current = None
        self._fire(self.on_commit)
        hooks.pause("db:commit")
        return txn

    def abort(self) -> Transaction:
        """Abort the open explicit transaction, undoing its changes."""
        context = self.context
        txn = context.current
        if txn is None or txn.autocommit:
            raise TransactionError("no explicit transaction is open")
        for record in reversed(txn.undo_log):
            record.apply()
        txn.undo_log.clear()
        txn.status = "aborted"
        self.aborted += 1
        context.current = None
        self._fire(self.on_abort)
        return txn

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> Tuple[int, int, int]:
        """The next transaction id and the two outcome counters (call it
        between transactions: an open one is not part of the data)."""
        next_tid = next(self._tid_counter)
        self._tid_counter = itertools.count(next_tid)
        return next_tid, self.committed, self.aborted

    def restore(self, state: Tuple[int, int, int]) -> None:
        next_tid, self.committed, self.aborted = state
        self._tid_counter = itertools.count(next_tid)

    def record_undo(self, apply: Callable[[], None], description: str = "") -> None:
        """Attach an undo record to the open explicit transaction (if any)."""
        txn = self.context.current
        if txn is not None and not txn.autocommit:
            txn.record_undo(apply, description)
