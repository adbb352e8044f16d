"""One run of one workload: set up, warm up, time, check, report.

The timed region of a replay workload is the single
``ConcurrentReplayer.replay(trace)`` call — ``gc.collect()`` before it, the
collector left on during it.  Pages are timed by the load generator itself: a
two-``perf_counter_ns`` wrapper on the ``render`` instance attribute (at
``workers=2`` that includes the time a page sat parked).  The same wrapper
samples the machine's speed between pages (see :mod:`.calibrate`); host times
are reported in *reference seconds*, and ``host_pages_per_s`` is the median
rate over :data:`RATE_SEGMENTS` slices of the region.

End-to-end metrics always come from the untraced pass.  With ``trace=True`` the
scenario is rebuilt from the same seeds, shadowed with span wrappers, and
replayed again; that pass must reproduce the untraced pass's fingerprint.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim import SimulationOptions, percentile, simulate_population

from .calibrate import Calibrator, median_rate
from .catalog import PER_LAYER
from .spans import Restorer, SpanRecorder, install
from .workloads import (CLIENTS, Rig, Scale, WORKLOADS, WRITE_PAGES, Workload,
                        synthetic_populations)

#: Slices of the timed region whose median rate is reported.
RATE_SEGMENTS = 9
#: Calibration samples taken inside a replay (several per slice), and the
#: fewest pages between two of them (a sample costs about two pages).
SAMPLES_PER_REPLAY = 54
MIN_PAGES_PER_SAMPLE = 20


@dataclass
class Outcome:
    """What one run reports."""

    seed: int
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    fingerprint: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


@dataclass
class _Pass:
    """One timed replay (untraced or traced) and the state around it."""

    wall_s: float                    # raw, calibration kernels excluded
    reference_s: float               # the same span on the calibrated clock
    rate: float                      # median pages per reference second
    slowdown: float
    result: Any                      # ConcurrentReplayResult, None if it raised
    page_log: List[Tuple[str, int, int]]   # (page, start_ns, end_ns)
    cache_delta: Dict[str, float]
    object_delta: Dict[str, float]
    error: Optional[BaseException] = None

    @property
    def clock_scale(self) -> float:
        """Multiply a raw duration inside this pass to get reference time."""
        return self.reference_s / self.wall_s


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _object_totals(rig: Rig) -> Dict[str, float]:
    genie = rig.scenario.genie
    return genie.stats.totals().as_dict() if genie is not None else {}


def fingerprint(result: Any) -> Dict[str, Any]:
    counters = json.dumps(result.total_counters.as_dict(), sort_keys=True)
    return {"pages": len(result.pages),
            "schedule_signature": result.schedule_signature,
            "counters_sha256": hashlib.sha256(counters.encode()).hexdigest()}


def _timed_replay(rig: Rig, recorder: Optional[SpanRecorder],
                  calibrator: Calibrator) -> _Pass:
    """The timed region, plus the counter snapshots on either side of it."""
    app = rig.scenario.app
    page_log: List[Tuple[str, int, int]] = []
    restorer = install(recorder, rig) if recorder is not None else Restorer()
    render, clock = app.render, time.perf_counter_ns
    every = max(MIN_PAGES_PER_SAMPLE, rig.pages // SAMPLES_PER_REPLAY)

    def timed_render(page: str, user_id: int):
        if page_log and len(page_log) % every == 0:
            calibrator.sample()
        start = clock()
        try:
            return render(page, user_id)
        finally:
            page_log.append((page, start, clock()))
    restorer.set(app, "render", timed_render)
    cache_before = rig.scenario.cache_stats()
    objects_before = _object_totals(rig)
    result, error = None, None
    try:
        gc.collect()
        first = calibrator.mark()
        try:
            result = rig.replayer.replay(rig.trace)
        except Exception as exc:     # every unreplayed page counts as failed
            error = exc
        last = calibrator.mark()
    finally:
        restorer.restore()
    intervals = calibrator.intervals(first, last)
    return _Pass(
        wall_s=sum(end - start for start, end, _ in intervals) / 1e9,
        reference_s=sum(seconds for _, _, seconds in intervals),
        rate=median_rate([end for _, _, end in page_log], intervals,
                         RATE_SEGMENTS) if page_log else 0.0,
        slowdown=calibrator.slowdown(first, last),
        result=result, page_log=page_log,
        cache_delta=_delta(rig.scenario.cache_stats(), cache_before),
        object_delta=_delta(_object_totals(rig), objects_before),
        error=error)


def _canonical(value: Any) -> Any:
    """Row lists as the set of distinct rows; scalars as they are.

    Order is left out because rows that tie on the sort key come back in
    either order, and multiplicity because ``LinkQuery`` keeps one copy of a
    row per primary key where the join repeats it per duplicate friendship
    edge (a divergence in ``src/`` this benchmark records but may not fix).
    """
    if isinstance(value, list):
        return sorted({tuple(sorted(row.items())) for row in value})
    return value


def _audit(rig: Rig) -> List[str]:
    """Every traced user x every cached object: cache versus database.

    ``evaluate()`` is read twice, once as cached and once after deleting the
    key, which forces the database path and shapes its value identically.
    """
    genie = rig.scenario.genie
    mismatches: List[str] = []
    for user_id in rig.trace.distinct_users():
        for name, cached_object in genie.cached_objects.items():
            params = {cached_object.where_fields[0]: user_id}
            cached = cached_object.evaluate(**params)
            genie.app_cache.delete(cached_object.make_key(**params))
            fresh = cached_object.evaluate(**params)
            if cached != fresh and _canonical(cached) != _canonical(fresh):
                mismatches.append(f"{name}({user_id})")
    return mismatches


def _vacuity_problems(spec: Workload, facts: Dict[str, float]) -> List[str]:
    """A workload that stopped exercising its mechanism measures nothing."""
    problems = []

    def require(condition: bool, message: str) -> None:
        if not condition:
            problems.append(f"{spec.name}: {message}")
    if spec.name == "read-hit":
        require(facts["hit_ratio"] >= 0.95,
                f"hit ratio {facts['hit_ratio']:.3f} < 0.95")
        require(facts["evictions"] == 0, "cache evicted; it no longer fits")
    elif spec.name == "mixed-invalidate":
        require(facts["evictions"] > 0, "no evictions; the cache now fits")
    elif spec.name == "contended-w2":
        require(facts["cas_retry_rounds"] > 0, "no CAS retry round")
    elif spec.name == "adaptive-faults":
        require(facts["band_switches"] > 0, "no band switch")
        require(facts["faults_fired"] == 2,
                f"{facts['faults_fired']:.0f} of 2 faults fired")
    return problems


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setups(build: Callable[[], Any], count: int,
                  calibrator: Calibrator) -> Tuple[Any, float]:
    """Build ``count`` times, keeping only the last; median set-up time."""
    times: List[float] = []
    built = None
    for _ in range(count):
        if isinstance(built, Rig):
            built.teardown()
        built = None
        gc.collect()
        first = calibrator.mark()
        built = build()
        times.append(calibrator.reference_seconds(first, calibrator.mark()))
    return built, statistics.median(times)


# -- replay workloads -----------------------------------------------------------


def _run_replay(spec: Workload, seed: int, scale: Scale, trace: bool,
                out_dir: pathlib.Path, calibrator: Calibrator) -> Outcome:
    outcome = Outcome(seed=seed)
    rig, setup_s = _timed_setups(lambda: Rig(spec, seed, scale),
                                 1 if trace else scale.setups, calibrator)
    try:
        timed = _timed_replay(rig, None, calibrator)
        layer = _untraced_metrics(spec, rig, scale, timed, outcome)
    finally:
        rig.teardown()
    outcome.end_to_end["setup_s"] = setup_s
    outcome.end_to_end["peak_rss_mb"] = _peak_rss_mb()
    if trace and not outcome.problems:
        del rig
        gc.collect()
        rig = Rig(spec, seed, scale)
        try:
            recorder = SpanRecorder()
            traced = _timed_replay(rig, recorder, calibrator)
            layer.update(_traced_metrics(spec, rig, recorder, traced, timed,
                                         outcome, out_dir))
        finally:
            rig.teardown()
    outcome.per_layer = layer
    return outcome


def _untraced_metrics(spec: Workload, rig: Rig, scale: Scale, timed: _Pass,
                      outcome: Outcome) -> Dict[str, float]:
    """End-to-end metrics, checks, and the layer metrics that need no spans."""
    pages = rig.pages
    outcome.attempted = pages
    if timed.error is not None:
        outcome.failed += pages - len(timed.page_log)
        outcome.problems.append(
            f"{spec.name}: replay raised {timed.error!r} after "
            f"{len(timed.page_log)} of {pages} pages")
        return {}
    result = timed.result
    if len(result.pages) != pages:
        outcome.failed += abs(pages - len(result.pages))
        outcome.problems.append(
            f"{spec.name}: replayed {len(result.pages)} of {pages} pages")
    outcome.fingerprint = fingerprint(result)
    counters = result.total_counters
    write_pages = rig.write_pages

    started = time.perf_counter()
    sim = simulate_population(result, clients=CLIENTS)
    simulate_s = time.perf_counter() - started
    demand = result.mean_demand()

    scale_ms = timed.clock_scale / 1e6     # raw ns -> reference ms

    def page_ms(*, writes: Optional[bool] = None) -> List[float]:
        return [(end - start) * scale_ms for page, start, end in timed.page_log
                if writes is None or (page in WRITE_PAGES) == writes]
    outcome.end_to_end.update({
        "host_pages_per_s": timed.rate,
        "page_host_ms_p50": statistics.median(page_ms()),
    })

    cache, objects = timed.cache_delta, timed.object_delta
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    faults_fired = len(rig.injector.fired) if rig.injector else 0
    cluster = rig.controller.counters() if rig.controller else {}
    facts = {"hit_ratio": _ratio(hits, hits + misses),
             "evictions": cache.get("evictions", 0),
             "cas_retry_rounds": counters.cas_retry_rounds,
             "band_switches": counters.band_switches,
             "faults_fired": faults_fired}
    if scale.guards:
        outcome.problems += _vacuity_problems(spec, facts)
    if spec.audit:
        mismatches = _audit(rig)
        outcome.failed += len(mismatches)
        if mismatches:
            outcome.problems.append(
                f"{spec.name}: {len(mismatches)} cached values differ from "
                f"the database, first {mismatches[:5]}")

    keys_moved = sum(cache.get(name, 0) for name in
                     ("gets", "sets", "adds", "deletes", "cas_ok",
                      "cas_mismatch", "cas_miss", "incr_ok", "incr_miss",
                      "decr_ok", "decr_miss", "lease_deletes"))
    gutter_hits = cluster.get("gutter_hits", 0)
    return {
        "apps.read_page_host_ms_p50": statistics.median(page_ms(writes=False)),
        "apps.write_page_host_ms_p50":
            statistics.median(page_ms(writes=True)) if write_pages else 0.0,
        "apps.page_host_ms_p99": percentile(page_ms(), 0.99),
        "core.db_fallbacks_per_kpage":
            1000.0 * objects.get("db_fallbacks", 0) / pages,
        "core.stale_served_per_kpage":
            1000.0 * objects.get("stale_served", 0) / pages,
        "core.cas_retry_rounds": counters.cas_retry_rounds,
        "core.cas_multi_mismatch": counters.cas_multi_mismatch,
        "memcache.round_trips_per_page": counters.cache_round_trips / pages,
        "memcache.keys_per_round_trip":
            _ratio(keys_moved, counters.cache_round_trips),
        "memcache.bytes_moved_per_page": counters.cache_bytes_moved / pages,
        "memcache.evictions": cache.get("evictions", 0),
        "memcache.used_bytes_end":
            sum(s.used_bytes for s in rig.scenario.cache_servers),
        "memcache.hit_ratio": facts["hit_ratio"],
        "storage.statements_per_page": counters.statements / pages,
        "storage.rows_scanned_per_row_returned":
            _ratio(counters.rows_scanned, counters.rows_returned),
        "storage.bufferpool_hit_ratio": _ratio(
            counters.pages_hit, counters.pages_hit + counters.pages_missed),
        "storage.trigger_fires_per_write_page":
            _ratio(counters.trigger_launches, write_pages),
        "storage.db_ms_per_page": demand.db_cpu_ms + demand.db_disk_ms,
        "cluster.faults_fired": faults_fired,
        "cluster.gutter_hits": gutter_hits,
        "cluster.gutter_hit_ratio": _ratio(
            gutter_hits, gutter_hits + cluster.get("gutter_misses", 0)),
        "cluster.node_down_errors": counters.cache_node_down,
        "cluster.post_revival_invalidations":
            cluster.get("post_revival_invalidations", 0),
        "adaptive.band_switches": counters.band_switches,
        "adaptive.migrations": counters.adaptive_migrations,
        "adaptive.tracked_keys": len(result.key_telemetry),
        "sim.yields_per_page": len(result.schedule) / pages,
        "sim.simulate_ms": simulate_s * 1000.0,
        "sim.host_us_per_event": _ratio(simulate_s * 1e6, sim.engine_events),
        "sim.host_events_per_s": _ratio(sim.engine_events, simulate_s),
        "sim.engine_events": sim.engine_events,
        "sim.modelled_pages_per_s": sim.throughput,
        "sim.modelled_latency_ms_mean": sim.mean_latency * 1000.0,
        "workload.generate_ms": rig.generate_s * 1000.0,
        "workload.pages": pages,
        "bench.warmup_s": rig.warmup_s,
        "bench.machine_slowdown": timed.slowdown,
        "bench.timed_wall_s": timed.wall_s,
    }


def _traced_metrics(spec: Workload, rig: Rig, recorder: SpanRecorder,
                    traced: _Pass, untraced: _Pass, outcome: Outcome,
                    out_dir: pathlib.Path) -> Dict[str, float]:
    """Self time per layer from the traced pass's spans."""
    if traced.error is not None:
        outcome.problems.append(
            f"{spec.name}: traced replay raised {traced.error!r}")
        return {}
    traced_print = fingerprint(traced.result)
    if traced_print != outcome.fingerprint:
        outcome.problems.append(
            f"{spec.name}: traced pass diverged from untraced: "
            f"{traced_print} != {outcome.fingerprint}")
    pages, write_pages = rig.pages, rig.write_pages
    table = recorder.self_times()
    counts = recorder.counts
    scale_ms = traced.clock_scale / 1e6    # raw ns -> reference ms

    def self_ms(layer: str, *names: str, prefix: str = "") -> float:
        return scale_ms * sum(
            row["self_ns"] for (row_layer, name), row in table.items()
            if row_layer == layer and (not names or name in names)
            and name.startswith(prefix))

    handoff_ms = self_ms("sim", "handoff")
    active_ms = scale_ms * sum(r["self_ns"] for r in table.values()) - handoff_ms
    overhead_ms = traced.reference_s * 1000.0 - active_ms
    render_wall_ms = scale_ms * table[("apps", "render")]["total_ns"]
    costmodel_ms = self_ms("storage", "Database.demand_of")
    fault_ms = self_ms("cluster")
    in_render_ms = active_ms - costmodel_ms - fault_ms
    # The spans under render must account for render's wall, parked time aside.
    if abs(in_render_ms + handoff_ms - render_wall_ms) > 0.05 * render_wall_ms:
        outcome.problems.append(
            f"{spec.name}: self times sum to {in_render_ms + handoff_ms:.1f} "
            f"ms but render spans cover {render_wall_ms:.1f} ms")
    yields = len(traced.result.schedule)
    threaded = spec.workers > 1
    recorder.write(out_dir / f"{spec.name}.spans.json", {
        "workload": spec.name, "seed": outcome.seed, "pages": pages,
        "replay_wall_ns": int(traced.wall_s * 1e9),
        "reference_ns_per_raw_ns": traced.clock_scale,
        "render_wall_ns": table[("apps", "render")]["total_ns"],
        "fingerprint": traced_print})
    return {
        "apps.render_self_ms_per_page": self_ms("apps") / pages,
        "apps.fragments_per_page":
            recorder.children_of("apps", "render") / pages,
        "orm.self_ms_per_page": self_ms("orm") / pages,
        "orm.queries_per_page": sum(
            row["entered_from_other_layer"] for (layer, _), row
            in table.items() if layer == "orm") / pages,
        "orm.intercepted_share": _ratio(counts["intercept_handled"],
                                        counts["intercept_attempted"]),
        "core.read_self_ms_per_page": self_ms(
            "core", "try_fetch", "evaluate_many",
            "CacheClass.evaluate") / pages,
        "core.serializer_ms_per_page":
            self_ms("core", prefix="serializer.") / pages,
        "core.rows_copied_per_page": counts["rows_copied"] / pages,
        "core.trigger_self_ms_per_write_page": _ratio(
            self_ms("core", "CacheClass.handle_trigger"), write_pages),
        "core.flush_self_ms_per_write_page": _ratio(
            self_ms("core", "TriggerOpQueue.flush"), write_pages),
        "core.keys_per_flush": _ratio(counts["flushed_keys"],
                                      counts["flushes"]),
        "core.refresh_drain_ms_per_page":
            self_ms("core", "RefreshQueue.drain") / pages,
        "memcache.client_self_ms_per_page":
            self_ms("memcache", prefix="client.") / pages,
        "memcache.server_self_ms_per_page":
            self_ms("memcache", prefix="server.") / pages,
        "storage.self_ms_per_page":
            (self_ms("storage") - costmodel_ms) / pages,
        "storage.costmodel_ms_per_page": costmodel_ms / pages,
        "cluster.fault_fire_ms_total": fault_ms,
        "adaptive.self_ms_per_page": self_ms("adaptive") / pages,
        "sim.replay_overhead_ms_per_page": overhead_ms / pages,
        "sim.handoff_us_per_yield":
            _ratio(overhead_ms * 1000.0, yields) if threaded else 0.0,
        "sim.handoff_share":
            overhead_ms / (traced.reference_s * 1000.0) if threaded else 0.0,
        "bench.trace_overhead_ratio": traced.reference_s / untraced.reference_s,
    }


# -- population-sim ----------------------------------------------------------------


def _run_population(spec: Workload, seed: int, scale: Scale, trace: bool,
                    calibrator: Calibrator) -> Outcome:
    outcome = Outcome(seed=seed)
    clients = scale.scaled(spec.population)
    parts, setup_s = _timed_setups(
        lambda: synthetic_populations(seed, clients),
        1 if trace else scale.setups, calibrator)
    pages = sum(len(part.pages) for part in parts)
    outcome.attempted = pages
    options = SimulationOptions(think_time_ms=0.0)
    gc.collect()
    first = calibrator.mark()
    runs = []
    for part in parts:
        runs.append(simulate_population(part, options=options))
        last = calibrator.mark()
    intervals = calibrator.intervals(first, last)   # one per part
    wall_s = sum(end - start for start, end, _ in intervals) / 1e9
    reference_s = sum(seconds for _, _, seconds in intervals)
    rate = statistics.median(len(part.pages) / seconds for part, (_, _, seconds)
                             in zip(parts, intervals))

    events = sum(run.engine_events for run in runs)
    for part, run in zip(parts, runs):
        if run.retain_completions and scale.guards:
            outcome.problems.append(f"{spec.name}: simulation did not stream")
        # With no think time the database CPU saturates, so the utilisation
        # law fixes the answer: throughput = 1 / (mean CPU demand per page).
        # The window closes when the first client finishes, which is near
        # the end because every client has the same number of pages.
        expected = 1000.0 / part.mean_demand().db_cpu_ms
        if abs(run.throughput / expected - 1.0) > 0.02:
            outcome.problems.append(
                f"{spec.name}: modelled throughput {run.throughput:.2f} "
                f"pages/s is not the bottleneck's {expected:.2f}")
        if run.completed_pages < 0.8 * len(part.pages):
            outcome.problems.append(
                f"{spec.name}: only {run.completed_pages} of "
                f"{len(part.pages)} pages completed inside the window")
    if outcome.problems:
        outcome.failed = pages
    outcome.end_to_end = {
        "setup_s": setup_s,
        "host_pages_per_s": rate,
        "page_host_ms_p50": 1000.0 / rate,
        "peak_rss_mb": _peak_rss_mb(),
    }
    outcome.fingerprint = {"pages": pages, "events": events}
    outcome.per_layer = {
        "sim.simulate_ms": reference_s * 1000.0,
        "sim.host_us_per_event": reference_s * 1e6 / events,
        "sim.host_events_per_s": events / reference_s,
        "sim.engine_events": events,
        "sim.modelled_pages_per_s":
            statistics.median(run.throughput for run in runs),
        "sim.modelled_latency_ms_mean":
            statistics.median(run.mean_latency for run in runs) * 1000.0,
        "workload.generate_ms": setup_s * 1000.0,
        "workload.pages": pages,
        "bench.machine_slowdown": calibrator.slowdown(first, last),
        "bench.timed_wall_s": wall_s,
    }
    return outcome


def run_workload(name: str, seed: int, scale: Scale, trace: bool,
                 out_dir: pathlib.Path) -> Outcome:
    """Run one workload once and return everything it reports."""
    spec = WORKLOADS[name]
    calibrator = Calibrator()
    if spec.replays:
        outcome = _run_replay(spec, seed, scale, trace, out_dir, calibrator)
    else:
        outcome = _run_population(spec, seed, scale, trace, calibrator)
    for metric in PER_LAYER:             # a layer that did not run reads 0
        outcome.per_layer.setdefault(metric.name, 0.0)
    return outcome
