"""Tests for transactions: autocommit, explicit commit/abort, undo."""

import pytest

from repro.errors import TransactionError
from repro.obs import hooks
from repro.storage import ColumnDef, Database, TableSchema
from repro.storage.transactions import TxnContext


@pytest.fixture
def database():
    db = Database()
    db.create_table(TableSchema(
        "accounts",
        [ColumnDef("id", "integer", nullable=True),
         ColumnDef("owner", "text"), ColumnDef("balance", "integer", default=0)],
        primary_key="id",
    ))
    return db


class TestAutocommit:
    def test_each_statement_commits(self, database):
        database.insert("accounts", {"owner": "alice", "balance": 10})
        assert database.transactions.committed == 1
        assert database.transactions.current is None

    def test_commit_without_transaction_raises(self, database):
        with pytest.raises(TransactionError):
            database.commit()


class TestExplicitTransactions:
    def test_commit_persists(self, database):
        database.begin()
        database.insert("accounts", {"owner": "alice", "balance": 10})
        database.insert("accounts", {"owner": "bob", "balance": 20})
        database.commit()
        assert len(database.find("accounts")) == 2

    def test_abort_undoes_insert(self, database):
        database.begin()
        database.insert("accounts", {"owner": "alice"})
        database.abort()
        assert database.find("accounts") == []

    def test_abort_undoes_update(self, database):
        database.insert("accounts", {"owner": "alice", "balance": 10})
        database.begin()
        database.update("accounts", {"balance": 99}, where={"owner": "alice"})
        database.abort()
        assert database.find("accounts", where={"owner": "alice"})[0]["balance"] == 10

    def test_update_costs_the_same_in_and_out_of_a_transaction(self):
        """Undo bookkeeping charges nothing: the pre-images are the rows the
        statement itself found.  (They used to come from a second, full-table
        ``scan()`` — 138 page touches instead of 2 on this table — which also
        churned the buffer pool's LRU.)"""
        def measured_update(explicit: bool):
            db = Database()
            db.create_table(TableSchema(
                "accounts",
                [ColumnDef("id", "integer", nullable=True),
                 ColumnDef("owner", "text"),
                 ColumnDef("balance", "integer", default=0)],
                primary_key="id"))
            for i in range(5000):
                db.insert("accounts", {"owner": f"owner-{i}", "balance": i})
            pool_before = (db.buffer_pool.hits, db.buffer_pool.misses)
            with db.measure() as counters:
                if explicit:
                    db.begin()
                rows = db.update("accounts", {"balance": -1}, where={"id": 17})
                if explicit:
                    db.commit()
            assert [row["balance"] for row in rows] == [-1]
            pool = (db.buffer_pool.hits - pool_before[0],
                    db.buffer_pool.misses - pool_before[1])
            return db, counters.as_dict(), pool

        _db, autocommit, autocommit_pool = measured_update(explicit=False)
        db, explicit, explicit_pool = measured_update(explicit=True)
        assert explicit == autocommit
        assert explicit_pool == autocommit_pool
        assert explicit["pages_hit"] + explicit["pages_missed"] == 2
        assert explicit["rows_scanned"] == 1 and explicit["commits"] == 1

        db.begin()
        db.update("accounts", {"balance": 0, "owner": "x"}, where={"id": 17})
        db.abort()
        assert db.get_by_pk("accounts", 17) == {
            "id": 17, "owner": "owner-16", "balance": -1}

    def test_abort_undoes_delete(self, database):
        database.insert("accounts", {"owner": "alice", "balance": 10})
        database.begin()
        database.delete("accounts", where={"owner": "alice"})
        database.abort()
        rows = database.find("accounts", where={"owner": "alice"})
        assert len(rows) == 1
        assert rows[0]["balance"] == 10

    def test_nested_begin_rejected(self, database):
        database.begin()
        with pytest.raises(TransactionError):
            database.begin()
        database.abort()

    def test_context_manager_commits(self, database):
        with database.transaction():
            database.insert("accounts", {"owner": "alice"})
        assert len(database.find("accounts")) == 1

    def test_context_manager_aborts_on_error(self, database):
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("accounts", {"owner": "alice"})
                raise RuntimeError("boom")
        assert database.find("accounts") == []

    def test_undo_does_not_refire_triggers(self, database):
        fired = []
        database.create_trigger("t", "accounts", "delete", lambda d: fired.append(1))
        database.begin()
        database.insert("accounts", {"owner": "alice"})
        database.abort()
        # The abort removes the inserted row without firing the DELETE trigger
        # (the paper's cache propagation is non-transactional).
        assert fired == []

    def test_commit_counts(self, database):
        database.begin()
        database.insert("accounts", {"owner": "a"})
        database.commit()
        assert database.transactions.committed == 1
        assert database.transactions.aborted == 0


class TestStatementNesting:
    """Statements issued from trigger bodies must not commit their parent.

    A LinkQuery trigger walks its join chain backwards with real SELECTs
    while the firing INSERT is still executing; before depth tracking those
    inner reads committed the INSERT's autocommit transaction out from under
    it, firing the commit hooks (and the trigger-op queue flush) too early.
    """

    def test_trigger_reads_do_not_commit_the_firing_statement(self, database):
        order = []
        database.create_trigger(
            "reads_inside", "accounts", "insert",
            lambda data: (database.find("accounts"), order.append("trigger"))[1])
        database.transactions.on_commit.append(lambda: order.append("commit"))
        database.insert("accounts", {"owner": "carol", "balance": 5})
        # One commit, fired after the trigger (not by the trigger's read).
        assert order == ["trigger", "commit"]
        assert database.transactions.committed == 1
        assert database.transactions.current is None

    def test_trigger_reading_insert_still_charges_a_commit(self, database):
        database.create_trigger(
            "reads_inside", "accounts", "insert",
            lambda data: database.find("accounts"))
        before = database.recorder.total.commits
        database.insert("accounts", {"owner": "dave", "balance": 1})
        assert database.recorder.total.commits == before + 1

    def test_failing_trigger_unwinds_statement_depth(self, database):
        from repro.errors import TriggerError

        def boom(data):
            raise RuntimeError("no")

        database.create_trigger("boom", "accounts", "insert", boom)
        with pytest.raises(TriggerError):
            database.insert("accounts", {"owner": "eve", "balance": 1})
        database.triggers.drop_trigger("boom")
        fired = []
        database.transactions.on_commit.append(lambda: fired.append(True))
        # Depth unwound: the next statement autocommits normally.
        database.insert("accounts", {"owner": "frank", "balance": 2})
        assert fired == [True]
        assert database.transactions.current is None


class TestWorkerContexts:
    def test_contexts_isolate_open_transactions(self, database):
        txm = database.transactions
        serial = txm.context
        txm.begin()
        database.insert("accounts", {"owner": "alice", "balance": 1})
        # Another worker's context sees no open transaction and can run its
        # own autocommit statements without touching the parked one.
        worker = TxnContext()
        txm.context = worker
        assert txm.current is None
        assert not txm.in_transaction
        database.insert("accounts", {"owner": "bob", "balance": 2})
        assert (worker.current, worker.depth) == (None, 0)  # autocommitted
        # Back on the serial context, the explicit transaction is intact.
        txm.context = serial
        assert txm.in_transaction
        txm.abort()
        owners = [row["owner"] for row in database.find("accounts")]
        assert owners == ["bob"]  # alice undone, bob kept

    def test_checkpoint_fires_at_statement_boundaries(self, database):
        labels = []
        database.insert("accounts", {"owner": "zed", "balance": 1})
        with hooks.subscribed(hooks.OnPause(labels.append)):
            database.insert("accounts", {"owner": "amy", "balance": 2})
            database.get_by_pk("accounts", 1)
        assert labels[0] == "db:commit"      # the write autocommitted
        assert "db:statement" in labels      # the read completed
