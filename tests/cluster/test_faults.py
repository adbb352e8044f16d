"""Tests for declarative fault schedules and the deterministic injector."""

import pytest

from repro.cluster import (ClusterController, FAULT_ACTIONS, FaultEvent,
                           FaultInjector, FaultSchedule)
from repro.errors import CacheServerError
from repro.memcache import CacheClient, CacheServer


class MutableClock:
    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t


def make_controller():
    clock = MutableClock()
    servers = [CacheServer("cache0", clock=clock),
               CacheServer("cache1", clock=clock)]
    client = CacheClient(servers)
    return ClusterController([client], servers, clock), clock


class TestFaultEventValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(CacheServerError):
            FaultEvent(at=1.0, action="explode", node="cache0")

    def test_negative_or_nonfinite_time_rejected(self):
        with pytest.raises(CacheServerError):
            FaultEvent(at=-1.0, action="kill", node="cache0")
        with pytest.raises(CacheServerError):
            FaultEvent(at=float("nan"), action="kill", node="cache0")

    def test_kill_requires_node(self):
        with pytest.raises(CacheServerError):
            FaultEvent(at=1.0, action="kill")

    def test_join_requires_server(self):
        with pytest.raises(CacheServerError):
            FaultEvent(at=1.0, action="join", node="cache9")

    @pytest.mark.parametrize("action", FAULT_ACTIONS)
    def test_each_action_refuses_the_other_field(self, action):
        """A row carries only its own action's field: ``join cache9`` with
        ``server=cache3`` would join cache3 while describing and tracing
        itself as cache9, and a ``kill`` carrying a server would drop it."""
        fields = {"node": "cache9", "server": CacheServer("cache3")}
        with pytest.raises(CacheServerError):
            FaultEvent(at=1.0, action=action, **fields)
        own, target = (("server", "cache3") if action == "join"
                       else ("node", "cache9"))
        assert FaultEvent(at=1.0, action=action,
                          **{own: fields[own]}).target == target

    def test_target_names_the_subject(self):
        assert FaultEvent(at=0.0, action="kill", node="cache1").target == "cache1"
        joiner = CacheServer("cache2")
        assert FaultEvent(at=0.0, action="join", server=joiner).target == "cache2"

    def test_every_action_maps_to_a_controller_verb(self):
        controller, _clock = make_controller()
        for action in FAULT_ACTIONS:
            assert callable(getattr(controller, action))


class TestFaultSchedule:
    def test_sorts_by_time(self):
        schedule = FaultSchedule([
            FaultEvent(at=9.0, action="revive", node="cache1"),
            FaultEvent(at=3.0, action="kill", node="cache1"),
        ])
        assert [e.at for e in schedule] == [3.0, 9.0]
        assert len(schedule) == 2

    def test_empty_schedule(self):
        schedule = FaultSchedule()
        assert len(schedule) == 0
        assert schedule.describe() == []

    def test_describe_is_readable(self):
        schedule = FaultSchedule([FaultEvent(at=3.0, action="kill",
                                             node="cache1")])
        assert schedule.describe() == ["t=3s kill cache1"]


class TestFaultInjector:
    def test_fires_only_due_events_in_time_order(self):
        controller, _clock = make_controller()
        injector = FaultInjector(controller, FaultSchedule([
            FaultEvent(at=9.0, action="revive", node="cache1"),
            FaultEvent(at=3.0, action="kill", node="cache1"),
        ]))
        assert injector.fire_due(1.0) == 0
        assert controller.server("cache1").alive
        assert injector.fire_due(3.0) == 1
        assert not controller.server("cache1").alive
        assert injector.fire_due(20.0) == 1
        assert controller.server("cache1").alive
        assert [e.action for e in injector.fired] == ["kill", "revive"]

    def test_fire_due_is_idempotent_at_a_timestamp(self):
        controller, _clock = make_controller()
        injector = FaultInjector(controller, FaultSchedule([
            FaultEvent(at=3.0, action="kill", node="cache1")]))
        assert injector.fire_due(5.0) == 1
        assert injector.fire_due(5.0) == 0

    def test_join_event_carries_the_server(self):
        controller, _clock = make_controller()
        joiner = CacheServer("cache2")
        injector = FaultInjector(controller, FaultSchedule([
            FaultEvent(at=2.0, action="join", server=joiner)]))
        injector.fire_due(2.0)
        assert "cache2" in controller.ring.servers
        assert controller.server("cache2") is joiner

    def test_probes_share_the_fault_clock(self):
        controller, _clock = make_controller()
        injector = FaultInjector(controller, FaultSchedule([
            FaultEvent(at=3.0, action="kill", node="cache1")]))
        seen = []
        injector.schedule_probe(2.0, lambda: seen.append("before"))
        injector.schedule_probe(4.0, lambda: seen.append("after"))
        injector.fire_due(10.0)
        assert seen == ["before", "after"]
        assert [e.action for e in injector.fired] == ["kill"]

    def test_identical_schedules_fire_identically(self):
        def run():
            controller, _clock = make_controller()
            injector = FaultInjector(controller, FaultSchedule([
                FaultEvent(at=3.0, action="kill", node="cache1"),
                FaultEvent(at=6.0, action="revive", node="cache1"),
            ]))
            log = []
            for now in (1.0, 3.0, 4.5, 6.0, 8.0):
                injector.fire_due(now)
                log.append((now, tuple(controller.alive_nodes())))
            return log

        assert run() == run()
