"""Spans recorded from outside the program, and self time computed from them.

The traced pass shadows the *public* bound methods of each layer with timing
wrappers (the instance-attribute idiom of ``repro/obs/install.py``; a
class-level patch for ``QuerySet``/``Model``, whose dunders Python looks up on
the type).  Nothing in ``src/`` knows it is being timed.

A span is ``(id, parent_id, page_id, worker, layer, name, start_ns, end_ns)``.
There is one span stack per OS thread; spans stay in memory and are written
once, after the replay.  A layer's **self time** is a span's duration minus the
durations of its direct children — children run on the same thread inside the
parent, so they nest and never overlap.

The single non-public name touched is ``ConcurrentReplayer._checkpoint``,
shadowed on the replayer *instance* so that every cooperative yield becomes a
``sim.handoff`` child span: the time a worker spends parked is then billed to
the hand-off, not to the layer that happened to yield.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.apps.social.pages as pages_module
import repro.core as core_module
import repro.core.cache_classes.base as base_module
import repro.core.cache_classes.count as count_module
from repro.adaptive import AdaptiveStrategy
from repro.orm.models import Model
from repro.orm.queryset import QuerySet

_MISSING = object()

QUERYSET_TERMINALS = ("get", "first", "count", "exists", "update", "delete",
                      "__iter__", "__len__", "__bool__", "__getitem__")
CLIENT_OPS = ("get", "gets", "get_multi", "gets_multi", "set", "set_multi",
              "add", "cas", "cas_multi", "delete", "delete_multi",
              "lease_delete", "lease_delete_multi", "lease", "lease_multi",
              "incr", "decr", "incr_multi", "decr_multi")
SERVER_OPS = CLIENT_OPS + ("touch_key", "cas_verdict")
DATABASE_OPS = ("select", "count", "find", "get_by_pk",
                "insert", "update", "delete")
ADAPTIVE_OPS = ("fetch", "fetch_multi", "on_write")

#: Span-file columns, in order.
SPAN_COLUMNS = ("id", "parent_id", "page_id", "worker", "code",
                "start_ns", "end_ns")


class Restorer:
    """Remembers every overwrite and undoes them all, newest first."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def set(self, obj: Any, name: str, value: Any) -> None:
        """Overwrite an attribute (instance, class or module)."""
        previous = vars(obj).get(name, _MISSING)

        def undo() -> None:
            if previous is _MISSING:
                delattr(obj, name)
            else:
                setattr(obj, name, previous)
        self._undo.append(undo)
        setattr(obj, name, value)

    def swap(self, items: list, old: Any, new: Any) -> None:
        """Replace ``old`` in a callback list (bound methods compare equal)."""
        index = items.index(old)
        original = items[index]
        items[index] = new
        self._undo.append(lambda: items.__setitem__(index, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class SpanRecorder:
    """In-memory span store plus the wrapper factory that feeds it."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.codes: List[Tuple[str, str]] = []       # code -> (layer, name)
        self._code_of: Dict[Tuple[str, str], int] = {}
        self._local = threading.local()
        self.pages_started = 0
        #: Things the wrappers count besides time (rows copied, keys flushed).
        self.counts: Dict[str, int] = defaultdict(int)

    def code(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._code_of:
            self._code_of[key] = len(self.codes)
            self.codes.append(key)
        return self._code_of[key]

    def _enter_thread(self) -> list:
        local = self._local
        local.stack = []
        local.page = -1
        name = threading.current_thread().name
        # Worker threads are named "replay-worker-N"; workers=1 runs inline.
        local.worker = (int(name.rsplit("-", 1)[1])
                        if name.startswith("replay-worker-") else 0)
        return local.stack

    def wrap(self, fn: Callable, layer: str, name: str,
             starts_page: bool = False) -> Callable:
        """A timing wrapper around ``fn`` recording one span per call."""
        code = self.code(layer, name)
        spans, local, clock = self.spans, self._local, time.perf_counter_ns

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = self._enter_thread()
            if starts_page:
                local.page = self.pages_started
                self.pages_started += 1
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, local.page, local.worker,
                                  code, start, end)
        return traced

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> Dict[Tuple[str, str], Dict[str, int]]:
        """Per (layer, name): calls, total ns, self ns, and root/child calls."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, parent, _, _, _, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: Dict[Tuple[str, str], Dict[str, int]] = {
            key: {"calls": 0, "total_ns": 0, "self_ns": 0,
                  "entered_from_other_layer": 0} for key in self.codes}
        for span_id, parent, _, _, code, start, end in spans:
            key = self.codes[code]
            row = table[key]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[span_id]
            if parent < 0 or self.codes[spans[parent][4]][0] != key[0]:
                row["entered_from_other_layer"] += 1
        return table

    def children_of(self, layer: str, name: str) -> int:
        """How many spans have a ``(layer, name)`` span as direct parent."""
        code = self._code_of.get((layer, name))
        spans = self.spans
        return sum(1 for span in spans
                   if span[1] >= 0 and spans[span[1]][4] == code)

    def write(self, path: pathlib.Path, header: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(header)
        document["columns"] = list(SPAN_COLUMNS)
        document["codes"] = [{"layer": layer, "name": name}
                             for layer, name in self.codes]
        document["spans"] = self.spans
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))


def install(recorder: SpanRecorder, rig: Any) -> Restorer:
    """Shadow every layer boundary of ``rig`` with span wrappers."""
    restorer = Restorer()
    try:
        _install(recorder, rig, restorer)
    except BaseException:
        restorer.restore()
        raise
    return restorer


def _install(recorder: SpanRecorder, rig: Any, restorer: Restorer) -> None:
    wrap, counts = recorder.wrap, recorder.counts
    scenario = rig.scenario
    app, database, genie = scenario.app, scenario.database, scenario.genie

    def shadow(obj: Any, names, layer: str, prefix: str) -> None:
        for name in names:
            restorer.set(obj, name,
                         wrap(getattr(obj, name), layer, prefix + name))

    restorer.set(app, "render",
                 wrap(app.render, "apps", "render", starts_page=True))
    shadow(QuerySet, QUERYSET_TERMINALS, "orm", "QuerySet.")
    shadow(Model, ("save", "delete"), "orm", "Model.")
    shadow(database, DATABASE_OPS + ("demand_of",), "storage", "Database.")
    shadow(database.transactions, ("commit",), "storage",
           "TransactionManager.")
    restorer.set(rig.replayer, "_checkpoint",
                 wrap(rig.replayer._checkpoint, "sim", "handoff"))
    if rig.injector is not None:
        shadow(rig.injector, ("fire_due",), "cluster", "FaultInjector.")
    if genie is None:
        return

    try_fetch = wrap(genie.interceptor.try_fetch, "core", "try_fetch")

    def counted_try_fetch(description):
        handled, value = try_fetch(description)
        counts["intercept_attempted"] += 1
        counts["intercept_handled"] += bool(handled)
        return handled, value
    restorer.set(genie.interceptor, "try_fetch", counted_try_fetch)

    evaluate_many = wrap(base_module.evaluate_many, "core", "evaluate_many")
    for module in (pages_module, base_module, core_module):
        restorer.set(module, "evaluate_many", evaluate_many)
    for cached_object in genie.cached_objects.values():
        shadow(cached_object, ("evaluate", "handle_trigger"), "core",
               "CacheClass.")

    def counting_rows(fn: Callable, name: str) -> Callable:
        timed = wrap(fn, "core", "serializer." + name)

        def counted(value):
            if isinstance(value, (list, tuple)):
                counts["rows_copied"] += len(value)
            return timed(value)
        return counted
    for name in ("freeze_rows", "thaw_rows", "freeze_value"):
        wrapped = counting_rows(getattr(base_module, name), name)
        restorer.set(base_module, name, wrapped)
        if hasattr(count_module, name):
            restorer.set(count_module, name, wrapped)

    queue = genie.trigger_op_queue
    if queue is not None:
        timed_flush = wrap(queue.flush, "core", "TriggerOpQueue.flush")

        def counted_flush():
            keys = timed_flush()
            if keys:
                counts["flushes"] += 1
                counts["flushed_keys"] += keys
            return keys
        restorer.swap(database.transactions.on_commit, queue.flush,
                      counted_flush)
        restorer.set(queue, "flush", counted_flush)
    shadow(genie.refresh_queue, ("drain",), "core", "RefreshQueue.")

    for client in (genie.app_cache, genie.trigger_cache):
        shadow(client, CLIENT_OPS, "memcache", "client.")
    servers = list(scenario.cache_servers)
    if rig.gutter is not None:
        servers += rig.gutter.servers
    for server in servers:
        shadow(server, SERVER_OPS, "memcache", "server.")

    strategy = scenario.config.strategy
    if isinstance(strategy, AdaptiveStrategy):
        shadow(strategy, ADAPTIVE_OPS, "adaptive", "AdaptiveStrategy.")
