"""Every debugging ``__repr__`` under ``src/repro`` renders.

No command prints these, so nothing else runs them: a repr that reads an
attribute the class no longer has only fails when someone prints the object
while debugging.  Each case builds one object of a class that defines its
own ``__repr__`` and checks that the text names what identifies it.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterController, GutterPool
from repro.core import CacheGenie, Param, get_strategy
from repro.memcache import CacheClient, CacheServer
from repro.memcache.stats import CacheStats
from repro.obs import Tracer
from repro.orm import CharField, IntegerField, Model, Registry
from repro.sim import VirtualClock
from repro.sim.metrics import PageCompletion
from repro.storage import (ALWAYS_TRUE, And, Between, BufferPool, Comparison,
                           CostCounters, Database, In, IsNull, Join, Not, Or,
                           Row)
from repro.storage.datatypes import IntegerType


@pytest.fixture(scope="module")
def world():
    """One model on a database, one cached object and one saved row."""
    reg = Registry("reprs")

    class Member(Model):
        handle = CharField(max_length=30)
        level = IntegerField(default=0)

        class Meta:
            registry = reg

    database = Database(name="reprs-db", buffer_pool_pages=16)
    reg.bind(database)
    reg.create_all()
    server = CacheServer("reprs-cache")
    genie = CacheGenie(registry=reg, database=database,
                       cache_servers=[server]).activate()
    cached = genie.cacheable(Member.objects.filter(level=Param("level")),
                             update_strategy="invalidate")
    member = Member.objects.create(handle="ada", level=3)
    yield {"database": database, "server": server,
           "genie": genie, "cached": cached, "Member": Member,
           "member": member}
    genie.deactivate()
    reg.unbind()


def _gutter(world):
    return GutterPool([CacheServer("reprs-gutter")], ttl_seconds=5.0)


def _controller(world):
    server = CacheServer("reprs-node")
    return ClusterController([CacheClient([server])], [server],
                             clock=lambda: 0.0)


def _span(world):
    tracer = Tracer(clock=lambda: 0.0)
    return tracer.end(tracer.begin("page:view", page="Home"))


#: (case, builder, a substring the repr must contain)
CASES = [
    ("BufferPool", lambda w: w["database"].buffer_pool, "/16 pages"),
    ("Database", lambda w: w["database"], "'reprs-db'"),
    ("Table", lambda w: w["database"].table("member"), "1 rows"),
    ("HeapFile", lambda w: w["database"].table("member").heap,
     "1 rows"),
    ("TableSchema", lambda w: w["database"].table("member").schema,
     "handle"),
    ("Row", lambda w: Row(7, {"handle": "ada"}), "#7"),
    ("CostCounters", lambda w: CostCounters(cache_multi_gets=2), "cache_multi_gets=2"),
    ("DataType", lambda w: IntegerType(), "IntegerType"),
    ("Join", lambda w: Join("a", "b_id", "b", "id"), "JOIN b ON a.b_id"),
    ("TruePredicate", lambda w: ALWAYS_TRUE, "TRUE"),
    ("Comparison", lambda w: Comparison("level", ">", 2), "level > 2"),
    ("In", lambda w: In("level", [1, 2]), "level IN"),
    ("Between", lambda w: Between("level", 1, 5), "BETWEEN 1 AND 5"),
    ("IsNull", lambda w: IsNull("level", negated=True), "IS NOT NULL"),
    ("And", lambda w: And([IsNull("a"), IsNull("b")]), " AND "),
    ("Or", lambda w: Or([IsNull("a"), IsNull("b")]), " OR "),
    ("Not", lambda w: Not(IsNull("a")), "NOT (a IS NULL)"),
    ("CacheStats", lambda w: CacheStats(hits=4), "hits=4"),
    ("CacheServer", lambda w: w["server"], "reprs-cache"),
    ("GutterPool", _gutter, "ttl=5.0s"),
    ("ClusterController", _controller, "alive=['reprs-node']"),
    ("CacheGenie", lambda w: w["genie"], "1 cached objects"),
    ("ConsistencyStrategy", lambda w: get_strategy("invalidate"),
     "'invalidate'"),
    ("CacheClass", lambda w: w["cached"], "on 'member' by ['level']"),
    ("QuerySet", lambda w: w["Member"].objects.filter(level=3),
     "Member filters="),
    ("Field", lambda w: w["Member"]._meta.get_field("handle"), "'handle'"),
    ("Model", lambda w: w["member"], "pk="),
    ("Options", lambda w: w["Member"]._meta, "table 'member'"),
    ("QueryTemplate", lambda w: w["cached"].template, "params=['level']"),
    ("Span", _span, "'page:view'"),
    ("VirtualClock", lambda w: VirtualClock(2.5), "t=2.500000s"),
    ("PageCompletion", lambda w: PageCompletion(1, "Home", 9, 0.0, 0.5),
     "page='Home'"),
]


@pytest.mark.parametrize("build, expected", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_repr_renders(world, build, expected):
    text = repr(build(world))
    assert expected in text
