"""The statement path against sqlite: the trace arm.

Each §5 ``--quick`` command runs in-process with every scenario it builds
watched by a :class:`~tests.sqlmirror.Mirror`.  After ``Scenario.setup()``
every table is copied into sqlite.  From then on:

* each row the engine writes reaches the mirror as the engine writes it, from
  the row images it hands its trigger manager, before any trigger body runs;
* every UPDATE and DELETE must change the rows sqlite's WHERE selects;
* every SELECT and COUNT — the application's, a trigger body's, a commit-time
  flush's — must agree with sqlite, read at the moment the engine reads.

The command's stdout must still be its golden: watching moves no counter.
"""

from __future__ import annotations

import pytest

from repro.bench import experiments
from repro.bench.scenarios import Scenario
from repro.storage import Database
from repro.storage.predicates import predicate_from_filters
from tests.bench.test_golden_output import GOLDEN, golden_text, run_cli
from tests.sqlmirror import Mirror, assert_same_state, bag

QUICK = ["exp1--workers-2--policy-adversarial--quick--check",
         "exp-strategies--quick", "exp-contention--quick--check",
         "exp-cluster--quick--check", "exp-adaptive--quick--check"]


def watch(db: Database) -> Mirror:
    """Mirror ``db`` and wrap this instance's reads and writes (its class,
    and every other database, stay as they are)."""
    mirror = Mirror.of(db)
    fire, select, count = db.triggers.fire, db.select, db.count
    update, delete = db.update, db.delete

    def checked(run):
        def call(query):
            check = mirror.expect(db, query)
            answer = run(query)
            check(answer)
            return answer
        return call

    def fire_after_mirroring(table, event, new, old):
        mirror.apply(table, new, old)
        return fire(table, event, new, old)

    def update_checked(table, changes, where=None, predicate=None):
        predicate = predicate or predicate_from_filters(where or {})
        expected = [{**row, **changes} for row in mirror.rows(table, predicate)]
        new = update(table, changes, predicate=predicate)
        assert bag(new) == bag(expected), (table, changes, predicate)
        return new

    def delete_checked(table, where=None, predicate=None):
        predicate = predicate or predicate_from_filters(where or {})
        expected = mirror.rows(table, predicate)
        gone = delete(table, predicate=predicate)
        assert bag(gone) == bag(expected), (table, predicate)
        return gone

    db.triggers.fire = fire_after_mirroring
    db.select, db.count = checked(select), checked(count)
    db.update, db.delete = update_checked, delete_checked
    return mirror


@pytest.mark.parametrize("name", QUICK)
def test_quick_command_agrees_with_sqlite(name, monkeypatch):
    watched = []

    class WatchedScenario(Scenario):
        def setup(self):
            super().setup()
            watched.append((self.database, watch(self.database)))
            return self

    monkeypatch.setattr(experiments, "Scenario", WatchedScenario)
    assert run_cli(GOLDEN[name]) == golden_text(name)
    assert watched
    for db, mirror in watched:
        assert_same_state(db, mirror)
