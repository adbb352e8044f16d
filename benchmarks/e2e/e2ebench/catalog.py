"""Every metric the benchmark reports: name, unit, direction, clock, bound.

This table is the single source of the ``end_to_end`` and ``per_layer`` lists
in ``BENCHMARK.json`` (the smoke test checks they agree).

Two clocks.  *host* is what the Python program costs on this machine (wall
``perf_counter``).  *modelled* is what the simulated testbed would take
(``CostModel`` demands through ``simulate_population``): deterministic for a
seed.  *count* metrics are event counts from public results and also repeat
exactly.  A host-time-only change must leave every modelled and count metric
bit-identical.

Every workload reports every metric; a per-layer metric whose layer a workload
does not run reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

HOST, MODELLED, COUNT = "host", "modelled", "count"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                      # "higher" | "lower"
    clock: str                       # HOST | MODELLED | COUNT
    #: Share of the parent's median by which the metric may worsen.  Every
    #: end-to-end metric has one; of the layer metrics only the two modelled
    #: headline numbers do, and only ``compare`` reads those.
    bound: Optional[float] = None

    @property
    def exact(self) -> bool:
        return self.clock != HOST

    def declaration(self) -> Dict[str, object]:
        """The metric's entry in ``BENCHMARK.json``."""
        out: Dict[str, object] = {"name": self.name, "unit": self.unit,
                                  "better": self.better}
        if self in END_TO_END:
            out["bound"] = self.bound
        return out


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", HOST, bound=0.25),
    Metric("host_pages_per_s", "pages/s", "higher", HOST, bound=0.25),
    Metric("page_host_ms_p50", "ms", "lower", HOST, bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", HOST, bound=0.10),
)


def _h(name: str, unit: str = "ms", better: str = "lower") -> Metric:
    return Metric(name, unit, better, HOST)


def _c(name: str, unit: str = "count", better: str = "lower") -> Metric:
    return Metric(name, unit, better, COUNT)


PER_LAYER: Tuple[Metric, ...] = (
    # apps
    _h("apps.render_self_ms_per_page"),
    _h("apps.read_page_host_ms_p50", "ms"),
    _h("apps.write_page_host_ms_p50", "ms"),
    _h("apps.page_host_ms_p99", "ms"),
    _c("apps.fragments_per_page"),
    # orm
    _h("orm.self_ms_per_page"),
    _c("orm.queries_per_page"),
    _c("orm.intercepted_share", "ratio", better="higher"),
    # core
    _h("core.read_self_ms_per_page"),
    _h("core.serializer_ms_per_page"),
    _c("core.rows_copied_per_page"),
    _h("core.trigger_self_ms_per_write_page"),
    _h("core.flush_self_ms_per_write_page"),
    _c("core.keys_per_flush", better="higher"),
    _h("core.refresh_drain_ms_per_page"),
    _c("core.db_fallbacks_per_kpage"),
    _c("core.stale_served_per_kpage"),
    _c("core.cas_retry_rounds"),
    _c("core.cas_multi_mismatch"),
    # memcache
    _h("memcache.client_self_ms_per_page"),
    _h("memcache.server_self_ms_per_page"),
    _c("memcache.round_trips_per_page"),
    _c("memcache.keys_per_round_trip", better="higher"),
    _c("memcache.bytes_moved_per_page", "B"),
    _c("memcache.evictions"),
    _c("memcache.used_bytes_end", "B"),
    Metric("memcache.hit_ratio", "ratio", "higher", MODELLED),
    # storage
    _h("storage.self_ms_per_page"),
    _c("storage.statements_per_page"),
    _c("storage.rows_scanned_per_row_returned", "ratio"),
    _c("storage.bufferpool_hit_ratio", "ratio", better="higher"),
    _c("storage.trigger_fires_per_write_page"),
    _h("storage.costmodel_ms_per_page"),
    Metric("storage.db_ms_per_page", "ms", "lower", MODELLED),
    # cluster
    _c("cluster.faults_fired", better="higher"),
    _c("cluster.gutter_hits", better="higher"),
    _c("cluster.gutter_hit_ratio", "ratio", better="higher"),
    _c("cluster.node_down_errors"),
    _c("cluster.post_revival_invalidations"),
    _h("cluster.fault_fire_ms_total"),
    # adaptive
    _h("adaptive.self_ms_per_page"),
    _c("adaptive.band_switches"),
    _c("adaptive.migrations"),
    _c("adaptive.tracked_keys"),
    # sim
    _h("sim.replay_overhead_ms_per_page"),
    _c("sim.yields_per_page"),
    _h("sim.handoff_us_per_yield", "us"),
    _h("sim.handoff_share", "ratio"),
    _h("sim.simulate_ms", "ms"),
    _h("sim.host_us_per_event", "us"),
    _h("sim.host_events_per_s", "events/s", better="higher"),
    _c("sim.engine_events", "events"),
    Metric("sim.modelled_pages_per_s", "pages/s", "higher", MODELLED,
           bound=0.05),
    Metric("sim.modelled_latency_ms_mean", "ms", "lower", MODELLED,
           bound=0.05),
    # workload
    _h("workload.generate_ms", "ms"),
    _c("workload.pages", "pages", better="higher"),
    # harness: how far to trust the time columns
    _h("bench.trace_overhead_ratio", "ratio"),
    _h("bench.warmup_s", "s"),
    _h("bench.machine_slowdown", "ratio"),
    _h("bench.timed_wall_s", "s"),
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}
