"""One ordered observer chain at every layer boundary.

Every layer announces its boundaries here, and whatever watches the replay
subscribes an :class:`Observer` to the chain: the concurrent engine's
scheduler yield for a threaded replay, a :class:`~repro.obs.tracer.Tracer`
for a traced one.  No layer holds a hook attribute of its own, and nothing
is patched.  The boundaries:

* ``page:<name>`` and ``app:header`` / ``app:account`` / ``app:write`` — a
  page and its fragments in the social application: a pause, then a span;
  ``app:post-write`` is a pause alone;
* ``orm:intercept`` — one query offered to the interceptor, a span;
* ``cache:<op>`` — one call of either cache client, a span holding a
  pause, announced once the call completes (a single-key call is its
  family's batch of one: ``get`` is a ``cache:get_multi``);
* ``trigger:flush`` / ``trigger:cas_round`` and ``refresh:drain`` /
  ``refresh:recompute`` — spans;
* ``db:statement`` / ``db:commit`` — pauses, once a statement or a commit
  completes;
* ``cluster:<action>`` — a mark, once a scheduled fault fired.

An observer sees four notifications.  ``enter`` and ``exit`` bracket a
span: entry runs the subscribers in subscription order, exit in reverse,
and exit runs even when the body raises.  ``pause`` is a point where the
running replay worker may be suspended while another runs.  ``mark`` says
that something happened.  A boundary decides where its pause falls: before
its span opens (a fragment is paused before it starts) or inside it (a
round trip is paused after it completes, within its span).

:data:`chain` is a tuple, replaced on every subscription, so a span exits on
exactly the subscribers it entered on.  While nobody is subscribed a
boundary costs one truthiness test of it.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator, Tuple

__all__ = ["Observer", "OnPause", "PAUSES", "mark", "pause", "pause_in_span",
           "span", "subscribe", "subscribed", "unsubscribe"]

#: Every pause label a layer announces (``page:<name>`` stands for the six
#: page names).  docs/CONCURRENCY.md's "Yield points" table lists exactly
#: these, and a threaded replay pauses at no other.
PAUSES = ("page:<name>", "app:header", "app:account", "app:write",
          "app:post-write",
          "cache:get_multi", "cache:gets_multi", "cache:lease_multi",
          "cache:set_multi", "cache:cas_multi", "cache:delete_multi",
          "cache:lease_delete_multi", "cache:incr_multi", "cache:decr_multi",
          "db:statement", "db:commit")


class Observer:
    """A chain subscriber: every notification is a no-op here, and a
    subscriber overrides the ones it watches."""

    def enter(self, label: str, args: Dict[str, Any]) -> None:
        """A span opens.  ``args`` is the boundary's own dict: what the body
        adds to it before the span exits is seen by :meth:`exit` too."""

    def exit(self, label: str, args: Dict[str, Any]) -> None:
        """The span entered with this ``args`` closes."""

    def pause(self, label: str) -> None:
        """The running worker may be suspended here."""

    def mark(self, label: str, args: Dict[str, Any]) -> None:
        """Something happened at this instant."""


class OnPause(Observer):
    """An observer that hands each pause label to ``callback``."""

    def __init__(self, callback: Callable[[str], None]) -> None:
        self.pause = callback


#: The subscribers, in subscription order.  Read it as ``hooks.chain``: a
#: name imported from here would keep the tuple of its import time.
chain: Tuple[Observer, ...] = ()


def subscribe(observer: Observer) -> None:
    global chain
    chain = chain + (observer,)


def unsubscribe(observer: Observer) -> None:
    """Remove ``observer``; removing one that is not subscribed is a no-op."""
    global chain
    chain = tuple(o for o in chain if o is not observer)


@contextlib.contextmanager
def subscribed(observer: Observer) -> Iterator[Observer]:
    """``observer`` on the chain for the ``with`` block, error or not."""
    subscribe(observer)
    try:
        yield observer
    finally:
        unsubscribe(observer)


class _Span:
    """One open span, entered and exited on the chain it started on."""

    __slots__ = ("label", "args", "observers")

    def __init__(self, label: str, args: Dict[str, Any],
                 observers: Tuple[Observer, ...]) -> None:
        self.label = label
        self.args = args
        self.observers = observers

    def __enter__(self) -> Dict[str, Any]:
        for observer in self.observers:
            observer.enter(self.label, self.args)
        return self.args

    def __exit__(self, *exc_info: Any) -> None:
        for observer in reversed(self.observers):
            observer.exit(self.label, self.args)


_IDLE = contextlib.nullcontext()


def span(label: str, pause: bool = False, **args: Any):
    """``with span("app:header", pause=True, user=7): ...`` — a span, after
    a pause when ``pause`` is set."""
    observers = chain
    if not observers:
        return _IDLE
    if pause:
        for observer in observers:
            observer.pause(label)
    return _Span(label, args, observers)


def pause(label: str) -> None:
    for observer in chain:
        observer.pause(label)


def pause_in_span(label: str, **args: Any) -> None:
    """A span holding one pause and nothing else: enter, pause, exit."""
    observers = chain
    for observer in observers:
        observer.enter(label, args)
    try:
        for observer in observers:
            observer.pause(label)
    finally:
        for observer in reversed(observers):
            observer.exit(label, args)


def mark(label: str, **args: Any) -> None:
    for observer in chain:
        observer.mark(label, args)
