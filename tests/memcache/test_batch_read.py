"""A batch read is N single reads.

Each read family (``get``/``gets``/``get_multi``/``gets_multi``, and
``lease``/``lease_multi``) walks a batch once per layer.  The server checks
liveness and reads its clock once per batch, validates each key inline with
the LRU lookup, touch and lazy expiry, and adds its statistics on the way
out.  The client sums a call's round trips, hits, misses and bytes over its
per-server batches and records them at once.  This module pins what that one
pass must keep:

* on a server, against N single reads written out over the server's parts
  (:func:`reference_read`, :func:`reference_lease`): return values and CAS
  tokens, lease states, ``CacheStats``, LRU order and the lease bookkeeping;
  expiry judged at the batch's instant; a bad key mid-batch refused with its
  own message and the earlier keys counted; an empty batch on a dead node
  answered ``{}``, a non-empty one refused and counted once;
* on a three-server client: the ``CostCounters`` bag of one read — the
  recorder's total and the open scope alike — equals the per-key account
  (:func:`per_key_account`) across pipelined batches, trigger-side reads,
  and a dead primary with and without a gutter pool.

Batches are built from dicts and sets on both sides, so CI also runs this
module under ``PYTHONHASHSEED=0`` and ``1``.  Seeded mutants of the real
methods (their source, edited) must each fail.
"""

from __future__ import annotations

import inspect
import sys
import textwrap
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import GutterPool
from repro.errors import CacheKeyError, NodeDownError
from repro.memcache import CacheClient, CacheServer
from repro.memcache.item import sizeof_value
from repro.memcache.server import (LEASE_ACQUIRED, LEASE_CONTENDED, LEASE_HIT,
                                   LEASE_STALE)
from repro.storage.costmodel import CostCounters, Recorder

LEASE_SECONDS = 2.0
KEYS = ("ka", "kb", "kc", "kd", "ke")
#: Keys every server refuses, each for its own reason.
BAD_KEYS = ("", "has space", "x" * 251, "tab\there", 42)


class MutableClock:
    """A clock the test moves; ``step`` moves it after every reading."""

    def __init__(self) -> None:
        self.t = 0.0
        self.step = 0.0
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        now = self.t
        self.t += self.step
        return now


# -- the per-key references -------------------------------------------------------

def reference_read(server: CacheServer, keys: Sequence[Any],
                   cas: bool) -> Dict[str, Any]:
    """N single reads at one instant, written out over the server's parts:
    validate, count the get, look up and touch, expire lazily, count the
    hit or the miss."""
    now = server.clock()
    stats, store = server.stats, server.store
    out: Dict[str, Any] = {}
    for key in keys:
        server._check_key(key)
        stats.gets += 1
        item = store.get(key)
        if item is not None and item.is_expired(now):
            store.delete(key)
            stats.expirations += 1
            item = None
        if item is None:
            stats.misses += 1
            continue
        stats.hits += 1
        out[key] = (item.value, item.cas_id) if cas else item.value
    return out


def reference_lease(server: CacheServer, keys: Sequence[Any],
                    lease_seconds: float, claimant: Any) -> Dict[str, Any]:
    """N single lease reads at one instant, written out over the server's
    parts (the live item, the stale retention, the token rate limit and the
    herd of claimants)."""
    now = server.clock()
    stats, store = server.stats, server.store
    issued_at, stale = server._lease_issued_at, server._stale
    herds, winners = server._lease_herd, server._lease_winner
    out: Dict[str, Any] = {}
    for key in keys:
        server._check_key(key)
        stats.gets += 1
        item = store.get(key)
        if item is not None and item.is_expired(now):
            store.delete(key)
            stats.expirations += 1
            item = None
        if item is not None:
            stats.hits += 1
            out[key] = (LEASE_HIT, item.value, None)
            continue
        record = issued_at.get(key)
        issued = record[0] if record is not None else None
        can_issue = issued is None or now - issued >= lease_seconds
        entry = stale.get(key)
        if entry is not None and now >= entry.stale_until:
            del stale[key]
            entry = None
        if entry is None:
            if issued is not None and can_issue:
                del issued_at[key]
                herds.pop(key, None)
                winners.pop(key, None)
            stats.misses += 1
            stats.leases_granted += 1
            out[key] = (LEASE_ACQUIRED, None, next(server._cas_counter))
            continue
        stats.hits += 1
        stats.stale_hits += 1
        if can_issue:
            issued_at[key] = (now, lease_seconds)
            stats.leases_granted += 1
            winners[key] = claimant
            herds[key] = {claimant}
            stats.herd_size_max = max(stats.herd_size_max, 1)
            out[key] = (LEASE_ACQUIRED, entry.value, next(server._cas_counter))
            continue
        winner = winners.get(key)
        herd = herds.setdefault(key, {winner})
        herd.add(claimant)
        stats.herd_size_max = max(stats.herd_size_max, len(herd))
        if claimant != winner:
            stats.lease_contended += 1
            out[key] = (LEASE_CONTENDED, entry.value, None)
        else:
            out[key] = (LEASE_STALE, entry.value, None)
    return out


def outcome(call: Callable[[], Any]) -> Any:
    """What a read returned, or the refusal it raised (type and message)."""
    try:
        return ("returned", call())
    except (CacheKeyError, NodeDownError) as exc:
        return (type(exc).__name__, str(exc))


def server_state(server: CacheServer) -> Dict[str, Any]:
    """Everything a read may leave behind on a server."""
    return {
        "stats": server.stats.as_dict(),
        "lru": server.store.keys(),
        "stale": sorted(server._stale),
        "issued": dict(server._lease_issued_at),
        "herds": {key: sorted(herd, key=repr)
                  for key, herd in server._lease_herd.items()},
        "winners": dict(server._lease_winner),
    }


# -- server cases -------------------------------------------------------------------

#: One history step: (operation, key, value length, expiry).
STEP = st.tuples(st.sampled_from(("set", "set", "lease_delete", "lease")),
                 st.sampled_from(KEYS), st.integers(1, 40),
                 st.sampled_from((None, 1.0, 3.0)))
BATCH = st.lists(st.sampled_from(KEYS) | st.sampled_from(BAD_KEYS[1:2]),
                 max_size=8)


def build_servers(server_cls: type, history: Sequence[Any],
                  ) -> List[CacheServer]:
    """Two servers that lived the same history, half a second per step."""
    servers = []
    for _ in range(2):
        clock = MutableClock()
        server = server_cls("s0", capacity_bytes=400, clock=clock)
        for op, key, size, expire in history:
            if op == "set":
                server.set(key, "v" * size, expire)
            elif op == "lease_delete":
                server.lease_delete(key, LEASE_SECONDS)
            else:
                server.lease(key, LEASE_SECONDS, claimant="w0")
            clock.t += 0.5
        servers.append(server)
    return servers


def check_batch_against_reference(server_cls: type, history: Sequence[Any],
                                  later: float, batch: Sequence[Any],
                                  family: str, claimant: Any = None) -> None:
    batched, reference = build_servers(server_cls, history)
    for server in (batched, reference):
        server.clock.t += later
    if family == "lease":
        got = outcome(lambda: batched.lease_multi(batch, LEASE_SECONDS,
                                                  claimant=claimant))
        want = outcome(lambda: reference_lease(reference, batch,
                                               LEASE_SECONDS, claimant))
    else:
        cas = family == "gets"
        got = outcome(lambda: (batched.gets_multi(batch) if cas
                               else batched.get_multi(batch)))
        want = outcome(lambda: reference_read(reference, batch, cas))
    assert got == want
    assert server_state(batched) == server_state(reference)


class TestServerBatchIsNSingleReads:
    @settings(max_examples=150, deadline=None)
    @given(history=st.lists(STEP, max_size=12),
           later=st.sampled_from((0.0, 0.5, 1.0, 2.5)), batch=BATCH,
           family=st.sampled_from(("get", "gets", "lease")),
           claimant=st.sampled_from((None, "w0", "w1")))
    def test_batch_equals_per_key_reference(self, history, later, batch,
                                            family, claimant):
        check_batch_against_reference(CacheServer, history, later, batch,
                                      family, claimant)

    @pytest.mark.parametrize("family", ["get", "gets", "lease"])
    def test_single_key_call_is_a_batch_of_one(self, family):
        history = [("set", "ka", 5, None), ("set", "kb", 3, 1.0),
                   ("lease_delete", "kb", 0, None)]
        for key in ("ka", "kb", "kc"):
            one, batched = build_servers(CacheServer, history)
            if family == "get":
                assert one.get(key) == batched.get_multi([key]).get(key)
            elif family == "gets":
                assert one.gets(key) == \
                    batched.gets_multi([key]).get(key, (None, None))
            else:
                assert one.lease(key, LEASE_SECONDS) == \
                    batched.lease_multi([key], LEASE_SECONDS)[key]
            assert server_state(one) == server_state(batched)

    @pytest.mark.parametrize("family", ["get", "gets", "lease"])
    def test_expiry_is_judged_at_the_batch_instant(self, family):
        clock = MutableClock()
        server = CacheServer("s0", clock=clock)
        for key, expire in (("ka", 1.0), ("kb", 2.0), ("kc", 3.0)):
            server.set(key, key.upper(), expire)
        clock.t, clock.step, clock.reads = 0.5, 1.0, 0
        read = {"get": lambda keys: server.get_multi(keys),
                "gets": lambda keys: server.gets_multi(keys),
                "lease": lambda keys: {
                    key: answer for key, answer in server.lease_multi(
                        keys, LEASE_SECONDS).items()
                    if answer[0] == LEASE_HIT}}[family]
        # Read at 0.5, though the clock moves a second per reading: all live.
        assert sorted(read(["ka", "kb", "kc"])) == ["ka", "kb", "kc"]
        assert clock.reads == 1
        # The next batch reads 1.5: only ka has expired.
        assert sorted(read(["ka", "kb", "kc"])) == ["kb", "kc"]
        assert clock.reads == 2
        assert (server.stats.expirations, server.stats.hits,
                server.stats.misses) == (1, 5, 1)

    @pytest.mark.parametrize("bad", BAD_KEYS, ids=repr)
    @pytest.mark.parametrize("family", ["get", "gets", "lease"])
    def test_bad_key_mid_batch(self, family, bad):
        check_bad_key_mid_batch(CacheServer, family, bad)

    @pytest.mark.parametrize("family", ["get", "gets", "lease"])
    def test_dead_node(self, family):
        server = CacheServer("s0", clock=MutableClock())
        server.set("ka", 1)
        server.alive = False
        read = {"get": server.get_multi, "gets": server.gets_multi,
                "lease": lambda keys: server.lease_multi(keys,
                                                         LEASE_SECONDS)}[family]
        assert read([]) == {}
        assert server.stats.node_down_errors == 0
        with pytest.raises(NodeDownError, match="'s0' is down"):
            read(["ka", "kb", "ka"])
        assert server.stats.node_down_errors == 1
        assert server.stats.gets == 0


def check_bad_key_mid_batch(server_cls: type, family: str, bad: Any) -> None:
    """A batch with a bad third key: refused with the message a single read
    of that key gets, after the first two keys were read and counted."""
    server = server_cls("s0", clock=MutableClock())
    for key in ("ka", "kb", "kc"):
        server.set(key, key.upper())
    single = CacheServer("single", clock=MutableClock())
    with pytest.raises(CacheKeyError) as refused:
        single.get(bad)
    batch = ["kc", "ka", bad, "kb"]
    with pytest.raises(CacheKeyError) as caught:
        if family == "lease":
            server.lease_multi(batch, LEASE_SECONDS)
        elif family == "gets":
            server.gets_multi(batch)
        else:
            server.get_multi(batch)
    assert str(caught.value) == str(refused.value)
    assert (server.stats.gets, server.stats.hits, server.stats.misses) == \
        (2, 2, 0)
    # kc and ka were touched in that order; kb, after the bad key, was not.
    assert server.store.keys() == ["kb", "kc", "ka"]


# -- client cases ---------------------------------------------------------------------

NODES = ("cache0", "cache1", "cache2")
VICTIM = "cache1"
#: Twelve keys over three nodes, some read twice.
READ = [f"k{i}" for i in range(12)] + ["k0", "k5", "k0"]


class Fleet(NamedTuple):
    client: CacheClient
    recorder: Recorder
    servers: Dict[str, CacheServer]
    gutter: Optional[GutterPool]


#: name -> (from_trigger, pipeline_batches, primary dies, gutter attached)
FLEETS = {
    "app": (False, False, False, False),
    "app-pipelined": (False, True, False, False),
    "trigger": (True, False, False, False),
    "trigger-pipelined": (True, True, False, False),
    "dead-primary": (False, False, True, False),
    "dead-primary-gutter": (False, True, True, True),
    "trigger-dead-primary-gutter": (True, True, True, True),
}


def make_fleet(client_cls: type, name: str) -> Fleet:
    """Three servers holding the even keys (``"v"`` × (i + 1)); a stale
    retention for k2 and k3; and, when the primary dies, a gutter pool
    holding ``"g"`` × (i + 7) for the victim's even keys — sized unlike the
    copies the dead primary keeps."""
    from_trigger, pipelined, dies, with_gutter = FLEETS[name]
    clock = MutableClock()
    servers = {node: CacheServer(node, clock=clock) for node in NODES}
    recorder = Recorder()
    client = client_cls(list(servers.values()), recorder=recorder,
                        from_trigger=from_trigger, pipeline_batches=pipelined)
    client.current_worker = "w0"
    gutter = None
    if with_gutter:
        gutter = GutterPool([CacheServer("gutter0", clock=clock)])
        client.gutter = gutter
    for i in range(12):
        key = f"k{i}"
        primary = servers[client.ring.server_for(key)]
        if i % 2 == 0:
            primary.set(key, "v" * (i + 1))
            if gutter is not None and primary.name == VICTIM:
                gutter.set(key, "g" * (i + 7))
        elif i in (3, 5):
            primary.set(key, "s" * (i + 1))
    for key in ("k2", "k3"):
        servers[client.ring.server_for(key)].lease_delete(key, LEASE_SECONDS)
    if dies:
        servers[VICTIM].alive = False
    return Fleet(client, recorder, servers, gutter)


def expected_answer(fleet: Fleet, family: str) -> Dict[str, Any]:
    """What each read key should come back as, from the fleet's stores."""
    out: Dict[str, Any] = {}
    for key in dict.fromkeys(READ):
        server = fleet.servers[fleet.client.ring.server_for(key)]
        if not server.alive:
            if family == "gets" or fleet.gutter is None:
                held = None
            else:
                held = fleet.gutter._server_for(key).store.get(key, touch=False)
            if family == "lease":
                out[key] = ((LEASE_ACQUIRED, None) if held is None
                            else (LEASE_STALE, held.value))
            elif held is not None:
                out[key] = held.value
            continue
        item = server.store.get(key, touch=False)
        if family == "lease":
            if item is not None:
                out[key] = (LEASE_HIT, item.value)
            else:
                entry = server._stale.get(key)
                out[key] = (LEASE_ACQUIRED,
                            None if entry is None else entry.value)
        elif item is not None:
            out[key] = (item.value, item.cas_id) if family == "gets" \
                else item.value
    return out


def served_values(answer: Dict[str, Any], family: str) -> Dict[str, Any]:
    if family == "lease":
        return {key: value for key, (_state, value) in answer.items()
                if value is not None}
    if family == "gets":
        return {key: value for key, (value, _token) in answer.items()}
    return answer


def per_key_account(fleet: Fleet, family: str,
                    served: Dict[str, Any]) -> CostCounters:
    """The read's counts as one ``record`` per sent batch and per key left
    them: a batch to a live node, or a plain read's batch to the gutter,
    is one round trip (overlapped past the first when pipelined; a trigger
    also pays per key); a dead primary is one ``cache_node_down``; each key
    is a hit moving its value's bytes, or a miss."""
    client = fleet.client
    want = CostCounters()
    if client.from_trigger:
        want.trigger_connections = 1
    event = "cache_multi_leases" if family == "lease" else "cache_multi_gets"
    batches: Dict[str, List[str]] = {}
    for key in dict.fromkeys(READ):
        batches.setdefault(client.ring.server_for(key), []).append(key)
    for index, (node, batch) in enumerate(batches.items()):
        sent = True
        if not fleet.servers[node].alive:
            want.cache_node_down += 1
            sent = fleet.gutter is not None and family != "gets"
        if not sent:
            continue
        overlapped = client.pipeline_batches and index > 0
        if client.from_trigger:
            want.trigger_cache_batch_ops += len(batch)
            if overlapped:
                want.trigger_cache_overlapped_batches += 1
            else:
                want.trigger_cache_batches += 1
        elif overlapped:
            want.cache_overlapped_batches += 1
        else:
            setattr(want, event, getattr(want, event) + 1)
    for key in dict.fromkeys(READ):
        if key in served:
            want.cache_hits += 1
            want.cache_bytes_moved += sizeof_value(served[key])
        else:
            want.cache_misses += 1
    return want


def check_client_read(client_cls: type, fleet_name: str, family: str) -> None:
    fleet = make_fleet(client_cls, fleet_name)
    answer = expected_answer(fleet, family)
    with fleet.recorder.measure() as scope:
        if family == "lease":
            got = {key: (state, value) for key, (state, value, _token)
                   in fleet.client.lease_multi(READ, LEASE_SECONDS).items()}
        elif family == "gets":
            got = fleet.client.gets_multi(READ)
        else:
            got = fleet.client.get_multi(READ)
    assert got == answer
    want = per_key_account(fleet, family,
                           served_values(answer, family)).as_dict()
    assert fleet.recorder.total.as_dict() == want
    assert scope.as_dict() == want


class TestClientReadIsThePerKeyAccount:
    @pytest.mark.parametrize("family", ["get", "gets", "lease"])
    @pytest.mark.parametrize("fleet_name", sorted(FLEETS))
    def test_counts_equal_the_per_key_account(self, fleet_name, family):
        check_client_read(CacheClient, fleet_name, family)

    def test_every_fleet_spreads_the_read_over_three_nodes(self):
        fleet = make_fleet(CacheClient, "app")
        assert len(fleet.client.ring.partition(READ)) == 3

    def test_a_contended_lease_is_counted_once_per_key(self):
        fleet = make_fleet(CacheClient, "app")
        fleet.client.lease_multi(["k2", "k3"], LEASE_SECONDS)   # w0 wins both
        fleet.client.current_worker = "w1"
        before = fleet.recorder.total.copy()
        answer = fleet.client.lease_multi(["k2", "k3", "k2"], LEASE_SECONDS)
        assert {key: state for key, (state, _v, _t) in answer.items()} == \
            {"k2": LEASE_STALE, "k3": LEASE_STALE}
        after = fleet.recorder.total
        assert after.lease_contended - before.lease_contended == 2
        assert after.cache_hits - before.cache_hits == 2
        assert after.cache_bytes_moved - before.cache_bytes_moved == \
            sizeof_value("v" * 3) + sizeof_value("s" * 4)


# -- the gutter pool ------------------------------------------------------------------

def build_gutters() -> List[GutterPool]:
    """Two gutter pools of three servers that lived the same history: hits,
    a stored None, an entry past its gutter TTL, and keys never stored."""
    pools = []
    for _ in range(2):
        clock = MutableClock()
        pool = GutterPool([CacheServer(f"gutter{i}", clock=clock)
                           for i in range(3)], ttl_seconds=2.0)
        pool.set("k0", "old")
        clock.t = 1.5
        for i in range(1, 9):
            pool.set(f"k{i}", None if i == 4 else "g" * i)
        clock.t = 3.0                     # k0 is past its TTL, the rest live
        pools.append(pool)
    return pools


def test_a_gutter_batch_read_is_its_single_reads():
    """One ``get_multi`` per gutter server returns, counts and touches what
    one ``get`` per key on its server would: the pool's hits and misses, and
    each server's ``CacheStats`` and LRU order."""
    keys = ["k3", "k0", "k9", "k4", "k1", "k7", "k12", "k2"]
    one, batched = build_gutters()
    single, hits = {}, 0
    for key in keys:
        value = one._server_for(key).get(key)
        if value is not None:
            single[key] = value
            hits += 1
    found = batched.get_multi(keys)
    assert found == single
    assert (batched.hits, batched.misses) == (hits, len(keys) - hits) == (4, 4)
    assert len(batched.ring.partition(keys)) == 3
    for ours, theirs in zip(batched.servers, one.servers):
        assert server_state(ours) == server_state(theirs)


# -- seeded mutants: each must fail a check above --------------------------------------

def mutant(cls: type, method: str, old: str, new: str) -> type:
    """``cls`` with ``method`` recompiled from its own source, ``old``
    replaced by ``new`` (exactly once), in its module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(cls, method)))
    assert source.count(old) == 1, f"{old!r} not found once in {method}"
    namespace = dict(vars(sys.modules[cls.__module__]))
    exec(compile(source.replace(old, new), f"<mutant {cls.__name__}.{method}>",
                 "exec"), namespace)
    return type(cls.__name__, (cls,), {method: namespace[method]})


#: Statistics added only when a batch completes: a key refused mid-batch
#: drops the counts of the keys before it.
STATS_SKIPPED_ON_ERROR = mutant(
    CacheServer, "_read", "    finally:\n",
    "    except BaseException:\n        raise\n    else:\n")
#: A dead primary's gutter hits sized by the dead primary, which still holds
#: its own (differently sized) copies.
BYTES_FROM_THE_WRONG_SERVER = mutant(
    CacheClient, "_read", "server = gutter   # it sizes the values it serves",
    "pass")


def test_stats_skipped_on_error_fails_the_bad_key_check():
    check_bad_key_mid_batch(CacheServer, "get", "has space")
    with pytest.raises(AssertionError):
        check_bad_key_mid_batch(STATS_SKIPPED_ON_ERROR, "get", "has space")


def test_bytes_from_the_wrong_server_fails_the_account():
    check_client_read(CacheClient, "dead-primary-gutter", "get")
    with pytest.raises(AssertionError):
        check_client_read(BYTES_FROM_THE_WRONG_SERVER, "dead-primary-gutter",
                          "get")
