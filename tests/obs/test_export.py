"""Chrome trace-event export: metadata, phases, timestamps, file format."""

from __future__ import annotations

import json

from repro.obs import (SpanStack, Tracer, chrome_trace, chrome_trace_events,
                       composite_timestamp_us, write_chrome_trace)


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def now(self) -> float:
        return self.t


def traced_sample() -> Tracer:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.context = SpanStack(0)
    with tracer.span("page:wall", user=1):
        with tracer.span("cache:get_multi", keys=2):
            pass
    tracer.context = SpanStack(1)
    clock.t = 0.5
    with tracer.span("page:lookup", user=2):
        tracer.instant("cluster:kill", node="cache0")
    return tracer


class TestCompositeTimestamp:
    def test_microseconds_plus_tick(self):
        assert composite_timestamp_us(0.0, 3) == 3
        assert composite_timestamp_us(1.5, 2) == 1_500_002

    def test_strictly_increasing_across_a_trace(self):
        events = chrome_trace_events(traced_sample())
        timestamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert timestamps == sorted(timestamps)
        assert len(set(timestamps)) == len(timestamps)


class TestChromeTraceEvents:
    def test_metadata_names_each_worker_thread(self):
        events = chrome_trace_events(traced_sample())
        thread_names = {e["tid"]: e["args"]["name"] for e in events
                        if e["ph"] == "M"}
        assert thread_names == {0: "worker 0", 1: "worker 1"}
        assert {e["name"] for e in events if e["ph"] == "M"} == {"thread_name"}

    def test_span_events_are_complete_events_with_duration(self):
        complete = [e for e in chrome_trace_events(traced_sample())
                    if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"page:wall",
                                                "cache:get_multi",
                                                "page:lookup"}
        for event in complete:
            assert event["dur"] > 0
            assert event["pid"] == 0
            assert event["cat"] in {"page", "cache"}
        by_name = {e["name"]: e for e in complete}
        assert by_name["page:wall"]["tid"] == 0
        assert by_name["page:lookup"]["tid"] == 1
        assert by_name["page:wall"]["args"] == {"user": 1}

    def test_instants_are_thread_scoped(self):
        instants = [e for e in chrome_trace_events(traced_sample())
                    if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "cluster:kill"
        assert instants[0]["s"] == "t"
        assert "dur" not in instants[0]

    def test_events_sorted_by_start_not_end(self):
        """finished is end-ordered (children first); the export re-sorts by
        start tick so parents precede their children in the file."""
        names = [e["name"] for e in chrome_trace_events(traced_sample())
                 if e["ph"] == "X"]
        assert names.index("page:wall") < names.index("cache:get_multi")


class TestChromeTrace:
    def test_one_named_process_lane_per_replay(self):
        first, second = (chrome_trace_events(traced_sample())
                         for _ in range(2))
        doc = chrome_trace([("Update/2", first), ("Invalidate/2", second)])
        processes = {e["pid"]: e["args"]["name"] for e in doc["traceEvents"]
                     if e["name"] == "process_name"}
        assert processes == {0: "Update/2", 1: "Invalidate/2"}
        lanes = [[e for e in doc["traceEvents"]
                  if e["pid"] == pid and e["name"] != "process_name"]
                 for pid in (0, 1)]
        assert [len(lane) for lane in lanes] == [len(first), len(second)]
        assert all(e["pid"] == 0 for e in second), "lanes are copies"
        assert doc["displayTimeUnit"] == "ms"


class TestWriteChromeTrace:
    def test_writes_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        returned = write_chrome_trace(
            [("sample", chrome_trace_events(traced_sample()))], str(path))
        assert returned == str(path)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert path.read_text().endswith("\n")
