"""Tests for trigger registration and firing."""

import pytest

from repro.errors import TriggerError
from repro.storage import Recorder
from repro.storage.triggers import TriggerManager


@pytest.fixture
def manager():
    return TriggerManager(Recorder())


class TestRegistration:
    def test_create_and_list(self, manager):
        manager.create_trigger("t1", "wall", "insert", lambda d: None)
        manager.create_trigger("t2", "wall", "delete", lambda d: None)
        manager.create_trigger("t3", "users", "insert", lambda d: None)
        assert len(manager) == 3
        assert {t.name for t in manager.list_triggers("wall")} == {"t1", "t2"}
        assert "t1" in manager

    def test_duplicate_name_rejected_unless_replace(self, manager):
        manager.create_trigger("t1", "wall", "insert", lambda d: None)
        with pytest.raises(TriggerError):
            manager.create_trigger("t1", "wall", "insert", lambda d: None)
        manager.create_trigger("t1", "wall", "delete", lambda d: None, replace=True)
        assert manager.list_triggers("wall")[0].event == "delete"

    def test_invalid_event_rejected(self, manager):
        with pytest.raises(TriggerError):
            manager.create_trigger("t1", "wall", "truncate", lambda d: None)

    def test_drop(self, manager):
        manager.create_trigger("t1", "wall", "insert", lambda d: None)
        manager.drop_trigger("t1")
        assert len(manager) == 0
        with pytest.raises(TriggerError):
            manager.drop_trigger("t1")


class TestFiring:
    def test_fire_passes_new_and_old(self, manager):
        seen = []
        manager.create_trigger("t1", "wall", "update",
                               lambda d: seen.append((d["old"], d["new"])))
        fired = manager.fire("wall", "update", new={"id": 1, "v": 2}, old={"id": 1, "v": 1})
        assert fired == 1
        assert seen == [({"id": 1, "v": 1}, {"id": 1, "v": 2})]

    def test_fire_only_matching_table_event(self, manager):
        calls = []
        manager.create_trigger("t1", "wall", "insert", lambda d: calls.append("wall"))
        manager.create_trigger("t2", "users", "insert", lambda d: calls.append("users"))
        manager.fire("wall", "insert", new={}, old=None)
        assert calls == ["wall"]

    def test_trigger_exception_wrapped(self, manager):
        def boom(data):
            raise RuntimeError("nope")
        manager.create_trigger("t1", "wall", "insert", boom)
        with pytest.raises(TriggerError):
            manager.fire("wall", "insert", new={}, old=None)

    def test_global_disable(self, manager):
        calls = []
        manager.create_trigger("t1", "wall", "insert", lambda d: calls.append(1))
        assert manager.fire("wall", "insert", new={}, old=None) == 1
        manager.disable_all()
        assert manager.fire("wall", "insert", new={}, old=None) == 0
        assert calls == [1]

    def test_fire_records_launch_events(self, manager):
        manager.create_trigger("t1", "wall", "insert", lambda d: None)
        with manager.recorder.measure() as counters:
            manager.fire("wall", "insert", new={}, old=None)
        assert counters.trigger_launches == 1
