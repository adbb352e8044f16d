"""Unit tests for the span tracer: nesting, contexts, ticks, and the flame."""

from __future__ import annotations

from repro.obs import Span, SpanStack, Tracer


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def now(self) -> float:
        return self.t


class TestSpans:
    def test_begin_end_nesting(self):
        tracer = Tracer()
        outer = tracer.begin("page:wall", user=7)
        inner = tracer.begin("cache:get_multi", keys=3)
        assert inner.parent is outer
        tracer.end(inner)
        tracer.end(outer)
        assert [s.name for s in tracer.finished] == ["cache:get_multi",
                                                     "page:wall"]
        assert outer.parent is None
        assert outer.args == {"user": 7}

    def test_span_context_manager(self):
        tracer = Tracer()
        with tracer.span("orm:intercept", table="bookmarks") as span:
            assert isinstance(span, Span)
        assert tracer.finished == [span]
        assert span.tick_duration == 1

    def test_end_updates_args(self):
        tracer = Tracer()
        span = tracer.begin("orm:intercept", table="users")
        tracer.end(span, hit=True)
        assert span.args == {"table": "users", "hit": True}

    def test_category_is_name_prefix(self):
        tracer = Tracer()
        with tracer.span("cache:lease_multi"):
            pass
        with tracer.span("flat-name"):
            pass
        assert tracer.finished[0].category == "cache"
        assert tracer.finished[1].category == "flat-name"
        assert tracer.categories() == ["cache", "flat-name"]

    def test_ticks_strictly_increase(self):
        clock = FakeClock(5.0)
        tracer = Tracer(clock=clock)
        a = tracer.begin("page:a")
        clock.t = 6.0
        b = tracer.begin("page:b")
        tracer.end(b)
        tracer.end(a)
        ticks = [a.start_tick, b.start_tick, b.end_tick, a.end_tick]
        assert ticks == sorted(ticks) and len(set(ticks)) == 4
        assert a.seconds_duration == 1.0
        assert b.seconds_duration == 0.0
        assert a.tick_duration == 3

    def test_clock_callable_or_object(self):
        by_object = Tracer(clock=FakeClock(2.0))
        by_callable = Tracer(clock=lambda: 2.0)
        assert by_object.begin("x").start_seconds == 2.0
        assert by_callable.begin("x").start_seconds == 2.0

    def test_instants_do_not_nest(self):
        tracer = Tracer()
        with tracer.span("page:a"):
            marker = tracer.instant("cluster:kill", node="cache0")
        assert marker.parent is None
        assert marker.tick_duration == 0
        assert tracer.instants == [marker]
        assert tracer.events == 2

    def test_unbalanced_end_abandons_inner_spans(self):
        """An error path unwinding past inner end() calls: ending the outer
        span closes the stack down to it and counts the rest as dropped."""
        tracer = Tracer()
        outer = tracer.begin("page:a")
        tracer.begin("cache:get_multi")
        tracer.begin("orm:intercept")
        tracer.end(outer)
        assert tracer.dropped == 2
        assert [s.name for s in tracer.finished] == ["page:a"]


class TestContexts:
    def test_worker_contexts_keep_separate_stacks(self):
        tracer = Tracer()
        w0, w1 = SpanStack(0), SpanStack(1)
        tracer.context = w0
        a = tracer.begin("page:a")
        tracer.context = w1
        b = tracer.begin("page:b")
        # Worker 1's span does not parent under worker 0's open span.
        assert b.parent is None
        tracer.end(b)
        tracer.context = w0
        inner = tracer.begin("cache:get_multi")
        assert inner.parent is a
        tracer.end(inner)
        tracer.end(a)
        assert a.tid == 0 and b.tid == 1
        assert w0 == [] and w1 == []

    def test_close_context_counts_open_spans(self):
        tracer = Tracer()
        serial, worker = tracer.context, SpanStack(0)
        tracer.context = worker
        tracer.begin("page:a")
        inner = tracer.begin("cache:get_multi")
        tracer.context = serial
        assert tracer.close_context(worker) == 2
        assert tracer.dropped == 2
        # An abandoned span that ends after all is exported, not re-counted.
        tracer.end(inner)
        assert tracer.dropped == 2
        # The serial stack is untouched and usable.
        with tracer.span("page:b"):
            pass
        assert [s.name for s in tracer.finished] == ["cache:get_multi",
                                                     "page:b"]


class TestFlame:
    def test_flame_aggregates_and_subtracts_children(self):
        tracer = Tracer()
        page = tracer.begin("page:a")          # tick 1
        child = tracer.begin("cache:get")      # tick 2
        tracer.end(child)                      # tick 3
        tracer.end(page)                       # tick 4
        rows = {row["name"]: row for row in tracer.flame()}
        assert rows["page:a"]["ticks"] == 3
        assert rows["cache:get"]["ticks"] == 1
        # Self ticks: the page's total minus its direct child's.
        assert rows["page:a"]["self_ticks"] == 2
        assert rows["cache:get"]["self_ticks"] == 1

    def test_flame_is_sorted_heaviest_first_name_tiebreak(self):
        tracer = Tracer()
        with tracer.span("b:one"):
            pass
        with tracer.span("a:one"):
            pass
        with tracer.span("c:heavy"):
            with tracer.span("c:inner"):
                pass
        names = [row["name"] for row in tracer.flame()]
        assert names == ["c:heavy", "a:one", "b:one", "c:inner"]
