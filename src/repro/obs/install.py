"""Scoped installation of a tracer across the replay pipeline's seams.

Tracing is **default-off**: :func:`install_tracing` switches it on for the
duration of one ``with`` block, and every touched object is restored in
``finally`` so nothing leaks into a subsequent untraced replay.  Two
mechanisms:

* objects with first-class instrumentation (the social application, the
  trigger-op queue, the refresh queue, the fault injector) expose a
  ``tracer`` attribute defaulting to ``None`` — their hot paths check it
  with a plain ``is not None``, which is the whole cost when tracing is
  off;
* objects kept free of tracing code (the cache clients' multi-key ops, the
  interceptor's ``try_fetch``) are wrapped at install time by shadowing the
  bound method with an instance attribute — the untraced path runs the
  original, unmodified method, so it is zero-perturbation *by
  construction*, not by discipline.

The concurrent replay engine calls this from ``replay()`` when handed a
tracer.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, List, Optional, Tuple

from .tracer import Tracer

__all__ = ["install_tracing", "TRACED_MULTI_OPS"]

#: Every multi-key round-trip method of :class:`repro.memcache.client.CacheClient`.
TRACED_MULTI_OPS = ("get_multi", "gets_multi", "set_multi", "cas_multi",
                    "delete_multi", "lease_delete_multi", "lease_multi",
                    "incr_multi", "decr_multi")

_MISSING = object()


class _Restorer:
    """Records (object, attribute) overwrites and undoes them in reverse."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, obj: Any, name: str, value: Any) -> None:
        self._saved.append((obj, name, vars(obj).get(name, _MISSING)))
        setattr(obj, name, value)

    def restore(self) -> None:
        for obj, name, previous in reversed(self._saved):
            if previous is _MISSING:
                delattr(obj, name)
            else:
                setattr(obj, name, previous)
        self._saved.clear()


def _wrap_multi_op(tracer: Tracer, client: Any, op: str,
                   restorer: _Restorer) -> None:
    original = getattr(client, op)
    role = "trigger" if getattr(client, "from_trigger", False) else "app"
    span_name = f"cache:{op}"

    def traced(batch, *args, **kwargs):
        span = tracer.begin(span_name, keys=len(batch), client=role)
        try:
            return original(batch, *args, **kwargs)
        finally:
            tracer.end(span)

    restorer.set(client, op, traced)


def _wrap_try_fetch(tracer: Tracer, interceptor: Any,
                    restorer: _Restorer) -> None:
    original = interceptor.try_fetch

    def traced(description):
        span = tracer.begin("orm:intercept", table=description.table,
                            kind=description.kind)
        hit = False
        try:
            hit, value = original(description)
            return hit, value
        finally:
            tracer.end(span, hit=hit)

    restorer.set(interceptor, "try_fetch", traced)


@contextlib.contextmanager
def install_tracing(tracer: Tracer, app: Optional[Any] = None,
                    genie: Optional[Any] = None,
                    fault_injector: Optional[Any] = None) -> Iterator[Tracer]:
    """Point every instrumented seam at ``tracer`` for the ``with`` block.

    ``app`` is a :class:`~repro.apps.social.pages.SocialApplication`,
    ``genie`` a :class:`~repro.core.manager.CacheGenie` (its interceptor,
    both cache clients, the trigger-op queue, and the refresh queue are
    covered), ``fault_injector`` a
    :class:`~repro.cluster.faults.FaultInjector`.  Any of them may be None
    (NoCache scenarios have no genie).  All state is restored on exit,
    error or not.
    """
    restorer = _Restorer()
    try:
        if app is not None:
            restorer.set(app, "tracer", tracer)
        if genie is not None:
            interceptor = getattr(genie, "interceptor", None)
            if interceptor is not None:
                _wrap_try_fetch(tracer, interceptor, restorer)
            op_queue = getattr(genie, "trigger_op_queue", None)
            if op_queue is not None:
                restorer.set(op_queue, "tracer", tracer)
            refresh_queue = getattr(genie, "refresh_queue", None)
            if refresh_queue is not None:
                restorer.set(refresh_queue, "tracer", tracer)
            for client in (genie.app_cache, genie.trigger_cache):
                for op in TRACED_MULTI_OPS:
                    _wrap_multi_op(tracer, client, op, restorer)
        if fault_injector is not None:
            restorer.set(fault_injector, "tracer", tracer)
        yield tracer
    finally:
        restorer.restore()
