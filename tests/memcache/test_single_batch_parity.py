"""Every single-key CacheClient call agrees with its one-key batched twin.

A single-key call is its batched twin run on a batch of one, so routing,
the dead-node and gutter branch, and every per-key statistic must come out
the same.  Three things differ by design:

* the round-trip charge: one single-key event (``cache_gets``,
  ``cache_sets``, ``cache_cas``, ``cache_deletes``, ``cache_leases``, or
  ``trigger_cache_ops`` on the trigger client) instead of one per-server
  batch event plus the per-key ``trigger_cache_batch_ops``;
* no ``cache:<op>`` boundary, so no pause on the observer chain;
* no ``cas_multi_mismatch`` event.

Each case runs the single-key call on one fleet and the one-key batched
call on an identical fleet, then compares everything both left behind.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro.cluster import GutterPool
from repro.memcache import CAS_STORED, CacheClient, CacheServer
from repro.obs import hooks
from repro.storage.costmodel import Recorder

ITEM_LIMIT = 1024
BIG = "x" * (2 * ITEM_LIMIT)     # refused by every server in the fleet
LEASE_SECONDS = 5.0
STALE_SECONDS = 5.0


class MutableClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class Fleet(NamedTuple):
    client: CacheClient
    recorder: Recorder
    servers: Dict[str, CacheServer]
    gutter: Optional[GutterPool]


def make_fleet(from_trigger: bool, with_gutter: bool) -> Fleet:
    clock = MutableClock()
    servers = [CacheServer(f"cache{i}", clock=clock, max_item_bytes=ITEM_LIMIT)
               for i in range(2)]
    recorder = Recorder()
    client = CacheClient(servers, recorder=recorder, from_trigger=from_trigger,
                         pipeline_batches=from_trigger)
    gutter = None
    if with_gutter:
        gutter = GutterPool([CacheServer("gutter0", clock=clock,
                                         max_item_bytes=ITEM_LIMIT)])
        client.gutter = gutter
    client.current_worker = "w0"
    return Fleet(client, recorder, {s.name: s for s in servers}, gutter)


def key_on(client: CacheClient, node: str) -> str:
    for i in range(10_000):
        key = f"k{i}"
        if client.ring.server_for(key) == node:
            return key
    raise AssertionError(f"no key routed to {node}")  # pragma: no cover


# -- scenarios: the key's state before the call ---------------------------------

def _live_hit(fleet: Fleet, key: str) -> int:
    primary = fleet.servers[fleet.client.ring.server_for(key)]
    primary.set(key, 10)
    return primary.gets(key)[1]


def _live_miss(fleet: Fleet, key: str) -> int:
    return 12345


def _kill(fleet: Fleet, key: str) -> None:
    fleet.servers[fleet.client.ring.server_for(key)].alive = False


def _dead(fleet: Fleet, key: str) -> int:
    _kill(fleet, key)
    return 12345


def _dead_gutter_hit(fleet: Fleet, key: str) -> int:
    fleet.gutter.set(key, 10)
    _kill(fleet, key)
    return 12345


#: name -> (setup returning a CAS token, whether a gutter is attached)
SCENARIOS: Dict[str, Any] = {
    "live-hit": (_live_hit, False),
    "live-miss": (_live_miss, False),
    "dead": (_dead, False),
    "dead-gutter-hit": (_dead_gutter_hit, True),
    "dead-gutter-miss": (_dead, True),
}


class Op(NamedTuple):
    single: Callable[[CacheClient, str, int], Any]
    batched: Callable[[CacheClient, str, int], Any]
    single_event: str    # the application's single-key round-trip event
    batch_event: str     # ...and its per-server batch event


#: Each family's single-key call and its one-key batched twin, the batched
#: result translated into the single-key call's return value.
OPS: Dict[str, Op] = {
    "get": Op(lambda c, k, t: c.get(k),
              lambda c, k, t: c.get_multi([k]).get(k),
              "cache_gets", "cache_multi_gets"),
    "gets": Op(lambda c, k, t: c.gets(k),
               lambda c, k, t: c.gets_multi([k]).get(k, (None, None)),
               "cache_gets", "cache_multi_gets"),
    "lease": Op(lambda c, k, t: c.lease(k, LEASE_SECONDS),
                lambda c, k, t: c.lease_multi([k], LEASE_SECONDS)[k],
                "cache_leases", "cache_multi_leases"),
    "set": Op(lambda c, k, t: c.set(k, 11),
              lambda c, k, t: k not in c.set_multi({k: 11}),
              "cache_sets", "cache_multi_sets"),
    "set-oversized": Op(lambda c, k, t: c.set(k, BIG),
                        lambda c, k, t: k not in c.set_multi({k: BIG}),
                        "cache_sets", "cache_multi_sets"),
    "cas": Op(lambda c, k, t: c.cas(k, 11, t),
              lambda c, k, t: c.cas_multi({k: (11, t)})[k] == CAS_STORED,
              "cache_cas", "cache_multi_cas"),
    "cas-stale-token": Op(lambda c, k, t: c.cas(k, 11, t + 1),
                          lambda c, k, t: c.cas_multi(
                              {k: (11, t + 1)})[k] == CAS_STORED,
                          "cache_cas", "cache_multi_cas"),
    "cas-oversized": Op(lambda c, k, t: c.cas(k, BIG, t),
                        lambda c, k, t: c.cas_multi(
                            {k: (BIG, t)})[k] == CAS_STORED,
                        "cache_cas", "cache_multi_cas"),
    "delete": Op(lambda c, k, t: c.delete(k),
                 lambda c, k, t: k in c.delete_multi([k]),
                 "cache_deletes", "cache_multi_deletes"),
    "lease_delete": Op(lambda c, k, t: c.lease_delete(k, STALE_SECONDS),
                       lambda c, k, t: k in c.lease_delete_multi(
                           [k], STALE_SECONDS),
                       "cache_deletes", "cache_multi_deletes"),
    "incr": Op(lambda c, k, t: c.incr(k, 2),
               lambda c, k, t: c.incr_multi({k: 2})[k],
               "cache_sets", "cache_multi_counters"),
    "decr": Op(lambda c, k, t: c.decr(k, 2),
               lambda c, k, t: c.decr_multi({k: 2})[k],
               "cache_sets", "cache_multi_counters"),
}

#: Cases where the single-key call disagreed with its batched twin while the
#: two had separate implementations: an oversized value raised
#: CacheValueError instead of being refused, and a cas on a vanished key
#: counted cas_mismatch instead of cas_miss.
FIXED_BY_UNIFICATION = {
    ("set-oversized", "live-hit"), ("set-oversized", "live-miss"),
    ("set-oversized", "dead-gutter-hit"), ("set-oversized", "dead-gutter-miss"),
    ("cas-oversized", "live-hit"),
    ("cas", "live-miss"), ("cas-stale-token", "live-miss"),
    ("cas-oversized", "live-miss"),
}

CASES = [pytest.param(op, scenario, from_trigger,
                      id="-".join([op, scenario,
                                   "trigger" if from_trigger else "app"]
                                  + (["fixed"] if (op, scenario)
                                     in FIXED_BY_UNIFICATION else [])))
         for op in OPS for scenario in SCENARIOS
         for from_trigger in (False, True)]


def round_trips_as_single(totals: Dict[str, int], op: Op) -> Dict[str, int]:
    """Recorder totals with each batch event folded into its single-key twin
    and the batch-only events dropped."""
    out = dict(totals)
    out[op.single_event] += out.pop(op.batch_event)
    out["trigger_cache_ops"] += out.pop("trigger_cache_batches")
    del out["trigger_cache_batch_ops"], out["cas_multi_mismatch"]
    return out


def paused(call: Callable[[], Any]) -> Tuple[Any, List[str]]:
    """``call()``'s result and the pauses it announced."""
    labels: List[str] = []
    with hooks.subscribed(hooks.OnPause(labels.append)):
        return call(), labels


def server_stats(fleet: Fleet) -> Dict[str, Dict[str, float]]:
    servers = list(fleet.servers.values())
    if fleet.gutter is not None:
        servers += fleet.gutter.servers
    return {s.name: s.stats_dict() for s in servers}


@pytest.mark.parametrize("op_name,scenario,from_trigger", CASES)
def test_single_key_call_is_its_batched_twin(op_name, scenario, from_trigger):
    op = OPS[op_name]
    setup, with_gutter = SCENARIOS[scenario]
    single, batched = (make_fleet(from_trigger, with_gutter) for _ in range(2))
    key = key_on(single.client, "cache1")
    token = setup(single, key)
    assert setup(batched, key) == token

    single_result, single_pauses = paused(
        lambda: op.single(single.client, key, token))
    batched_result, batched_pauses = paused(
        lambda: op.batched(batched.client, key, token))
    assert single_result == batched_result

    assert server_stats(single) == server_stats(batched)
    if with_gutter:
        assert single.gutter.counters() == batched.gutter.counters()

    single_totals = single.recorder.total.as_dict()
    assert single_totals[op.batch_event] == 0
    assert single_totals["trigger_cache_batches"] == 0
    assert single_totals["trigger_cache_batch_ops"] == 0
    assert single_totals["cas_multi_mismatch"] == 0
    assert round_trips_as_single(single_totals, op) == \
        round_trips_as_single(batched.recorder.total.as_dict(), op)

    assert single_pauses == []
    assert len(batched_pauses) == 1
