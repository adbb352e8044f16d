"""The boundary observer chain: ordering, error paths, subscription, and
the pause labels a threaded replay announces."""

from __future__ import annotations

import re

import pytest

from repro.apps.social import SeedScale
from repro.apps.social.pages import (PAGE_LOGIN, PAGE_LOGOUT, READ_PAGES,
                                     WRITE_PAGES)
from repro.bench.experiments import QUICK_HOT_KEY_WORKLOAD, ablation_config
from repro.bench.scenarios import LEASED_SCENARIO, Scenario, UPDATE_SCENARIO
from repro.obs import Tracer, hooks
from repro.sim import ADVERSARIAL, ConcurrentReplayer
from repro.workload import WorkloadGenerator


class Recorder(hooks.Observer):
    """Logs every notification as ``(name, verb, label)``."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def enter(self, label, args):
        self.log.append((self.name, "enter", label))

    def exit(self, label, args):
        self.log.append((self.name, "exit", label))

    def pause(self, label):
        self.log.append((self.name, "pause", label))

    def mark(self, label, args):
        self.log.append((self.name, "mark", label))


@pytest.fixture
def two_recorders():
    log = []
    first, second = Recorder("a", log), Recorder("b", log)
    with hooks.subscribed(first), hooks.subscribed(second):
        yield log
    assert hooks.chain == ()


class TestOrdering:
    def test_entry_in_order_exit_in_reverse(self, two_recorders):
        with hooks.span("app:header", user=1):
            two_recorders.append(("body",))
        assert two_recorders == [("a", "enter", "app:header"),
                                 ("b", "enter", "app:header"),
                                 ("body",),
                                 ("b", "exit", "app:header"),
                                 ("a", "exit", "app:header")]

    def test_a_fragment_pauses_before_its_span_opens(self, two_recorders):
        with hooks.span("app:write", pause=True):
            pass
        assert [verb for _name, verb, _label in two_recorders] == [
            "pause", "pause", "enter", "enter", "exit", "exit"]

    def test_a_round_trip_pauses_inside_its_span(self, two_recorders):
        hooks.pause_in_span("cache:gets_multi", keys=2, client="app")
        assert [verb for _name, verb, _label in two_recorders] == [
            "enter", "enter", "pause", "pause", "exit", "exit"]

    def test_pause_and_mark_reach_every_subscriber(self, two_recorders):
        hooks.pause("db:commit")
        hooks.mark("cluster:kill", node="cache1")
        assert two_recorders == [("a", "pause", "db:commit"),
                                 ("b", "pause", "db:commit"),
                                 ("a", "mark", "cluster:kill"),
                                 ("b", "mark", "cluster:kill")]


class TestErrorPaths:
    def test_exit_runs_when_the_body_raises(self, two_recorders):
        with pytest.raises(RuntimeError):
            with hooks.span("trigger:flush", pending=3):
                raise RuntimeError("flush exploded")
        assert [verb for _name, verb, _label in two_recorders] == [
            "enter", "enter", "exit", "exit"]

    def test_a_pause_that_raises_inside_a_span_still_exits_it(self):
        log = []

        class Unwinds(hooks.Observer):
            def pause(self, label):
                raise RuntimeError("worker unwound")

        with hooks.subscribed(Recorder("a", log)), hooks.subscribed(Unwinds()):
            with pytest.raises(RuntimeError):
                hooks.pause_in_span("cache:gets_multi", keys=1)
        assert log == [("a", "enter", "cache:gets_multi"),
                       ("a", "pause", "cache:gets_multi"),
                       ("a", "exit", "cache:gets_multi")]

    def test_a_pause_that_raises_before_a_span_leaves_it_unopened(self):
        log = []

        class Unwinds(hooks.Observer):
            def pause(self, label):
                raise RuntimeError("worker unwound")

        with hooks.subscribed(Unwinds()), hooks.subscribed(Recorder("a", log)):
            with pytest.raises(RuntimeError):
                with hooks.span("app:header", pause=True):
                    log.append(("body",))
        assert log == []


class TestSubscription:
    def test_unsubscribing_twice_is_harmless(self):
        observer = hooks.Observer()
        hooks.subscribe(observer)
        hooks.unsubscribe(observer)
        hooks.unsubscribe(observer)
        assert hooks.chain == ()

    def test_subscribed_unsubscribes_on_error(self):
        with pytest.raises(RuntimeError):
            with hooks.subscribed(hooks.Observer()):
                raise RuntimeError("boom")
        assert hooks.chain == ()

    def test_a_span_exits_on_the_subscribers_it_entered_on(self):
        log = []
        late = Recorder("late", log)
        with hooks.subscribed(Recorder("a", log)):
            with hooks.span("refresh:drain", due=1):
                hooks.subscribe(late)
            hooks.unsubscribe(late)
        assert log == [("a", "enter", "refresh:drain"),
                       ("a", "exit", "refresh:drain")]

    def test_the_empty_chain_hands_out_one_idle_context(self):
        assert hooks.chain == ()
        assert hooks.span("page:Login", pause=True) is hooks.span("app:write")


class TestTracerOnTheChain:
    def test_body_args_reach_the_span(self):
        tracer = Tracer()
        with hooks.subscribed(tracer):
            with hooks.span("orm:intercept", table="users", hit=False) as args:
                with hooks.span("cache:get_multi", keys=1):
                    pass
                args["hit"] = True
            hooks.mark("cluster:kill", node="cache1", at=2.0)
        inner, outer = tracer.finished
        assert (outer.name, outer.args) == ("orm:intercept",
                                            {"table": "users", "hit": True})
        assert inner.parent is outer and tracer.context == []
        assert [(m.name, m.args) for m in tracer.instants] == [
            ("cluster:kill", {"node": "cache1", "at": 2.0})]


def declared(label: str) -> bool:
    """Whether ``label`` is one of :data:`hooks.PAUSES` (``page:<name>``
    stands for any page name)."""
    pages = "|".join(READ_PAGES + WRITE_PAGES + (PAGE_LOGIN, PAGE_LOGOUT))
    return any(re.fullmatch(re.escape(pattern).replace(
        re.escape("<name>"), f"(?:{pages})"), label)
        for pattern in hooks.PAUSES)


@pytest.mark.parametrize("name", [UPDATE_SCENARIO, LEASED_SCENARIO])
def test_a_threaded_replay_pauses_only_at_declared_labels(name):
    """Every label the scheduler's yield sees is declared in
    :data:`hooks.PAUSES`, which docs/CONCURRENCY.md's table lists."""
    config = ablation_config(name, SeedScale.tiny())
    scenario = Scenario(config).setup()
    try:
        trace = WorkloadGenerator(
            QUICK_HOT_KEY_WORKLOAD,
            list(range(1, config.seed_scale.users + 1))).generate()
        replayer = ConcurrentReplayer(
            scenario.app, scenario.database, genie=scenario.genie, workers=2,
            policy=ADVERSARIAL, clock=scenario.clock,
            page_interval_seconds=config.page_interval_seconds)
        seen, checkpoint = set(), replayer._checkpoint

        def recording(label):
            seen.add(label)
            checkpoint(label)
        replayer._checkpoint = recording
        replayer.replay(trace)
    finally:
        scenario.teardown()
    assert {"app:header", "db:statement", "db:commit"} <= seen
    assert any(label.startswith("cache:") for label in seen)
    assert sorted(label for label in seen if not declared(label)) == []
