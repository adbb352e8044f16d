"""The adaptive per-key consistency strategy.

A registered :class:`~repro.core.strategies.ConsistencyStrategy` that
classifies each cache key into a hotness/contention **band** from live
:class:`~repro.adaptive.telemetry.KeyTelemetry` and delegates every protocol
hook to the band's underlying static strategy:

=====================  =======================  ================================
band                   delegate                 when
=====================  =======================  ================================
``cold``               ``update-in-place``      the default — and where
                                                read-mostly keys *stay*, hot or
                                                not: trigger patches keep them
                                                fresh and reads cost nothing
``hot-contended``      ``leased-invalidate``    hot keys showing real CAS/lease
                                                contention: stale-retaining
                                                invalidation + one recompute
                                                token per window kills the herd
``hot-write-heavy``    ``async-refresh``        hot keys with a high write
                                                share: per-write propagation
                                                (a patch or an invalidation
                                                per write) is amortized into
                                                one periodic recompute, with
                                                staleness bounded by the
                                                freshness window
=====================  =======================  ================================

The band economics follow the cost model: incremental trigger patches make
update-in-place essentially free for read traffic, so *hotness alone never
moves a key* — only the two ways a hot key gets expensive do.  A write storm
(``hot-write-heavy``) pays per-write propagation under any static strategy;
the refresh band caps that at one recompute per freshness window however
fast the writes come.  A contended herd (``hot-contended``) pays CAS retries
and duplicate recomputes; the lease band serializes them to one token.

Band decisions happen on the **read path** (``fetch_multi``, which
``evaluate()``'s ``fetch`` runs on a batch of one), on
the simulated clock, with hysteresis: a key must dwell ``min_dwell_seconds``
of virtual time in its band before it may switch (with the replayer's
arrival model advancing the clock between page loads, dwell-seconds are
dwell-pages times the arrival interval).  The write path dispatches on the
key's *current* band and never reclassifies — a trigger firing mid-
transaction cannot migrate the key under its own feet.

**Migration on a band switch** converts the key's cached representation,
and only when representations actually differ:

* ``cold`` and ``hot-contended`` both store the raw trigger-maintained
  value, so switches between them move nothing — the live value survives;
* switching **into** ``hot-write-heavy`` re-wraps the live raw value in
  place as a fresh envelope (it was trigger-maintained until this instant,
  hence fresh now) — promotion never costs a cache miss;
* switching **out of** ``hot-write-heavy`` must retire the envelope (its
  freshness window may hide unpropagated writes, and a stale base under
  incremental patches would stay stale forever): toward ``hot-contended``
  a stale-retaining ``lease_delete`` keeps it servable while the lease
  protocol hands exactly one claimant the recompute token (the lease-token
  handoff); toward ``cold`` the envelope stays servable and one background
  recompute is scheduled, whose store re-homes the key as a raw value — so
  demotion, like promotion, never costs a blocking fallback;
* a lingering envelope is safe against triggers: both incremental patch
  paths (the eager CAS loop and the commit-time flush) detect the foreign
  representation and invalidate instead of patching, so no write is ever
  absorbed into a base the triggers do not own;
* pending refresh-queue entries are re-homed automatically — the background
  worker stores through ``cached_object.strategy.store``, which routes by
  the key's band *at completion time*.

Counted as ``band_switches`` (every reclassification) and
``adaptive_migrations`` (switches that actually converted a cached value) on
the cost recorder.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING)

from ..core.strategies import (ASYNC_REFRESH, AsyncRefreshStrategy,
                               ConsistencyStrategy, LEASED_INVALIDATE,
                               LeasedInvalidateStrategy, ReadEntry,
                               UPDATE_IN_PLACE, UpdateInPlaceStrategy,
                               get_strategy, is_envelope, unwrap_envelope)
from .telemetry import KeyStats, KeyTelemetry

if TYPE_CHECKING:  # pragma: no cover
    from ..core.cache_classes.base import CacheClass

#: Registry name of the adaptive strategy.
ADAPTIVE = "adaptive"

#: Band names (stable identifiers: reports, describe(), and tests use them).
COLD_BAND = "cold"
HERD_BAND = "hot-contended"
REFRESH_BAND = "hot-write-heavy"

ALL_BANDS = (COLD_BAND, HERD_BAND, REFRESH_BAND)


class _BandState:
    """Current band of one key plus the virtual time it entered it."""

    __slots__ = ("band", "since")

    def __init__(self, band: str, since: float) -> None:
        self.band = band
        self.since = since


class AdaptiveStrategy(ConsistencyStrategy):
    """Telemetry-driven per-key strategy selection with hysteresis.

    One instance carries per-run state (telemetry, band map, switch
    counters) keyed to the genie it first serves; serving a *different*
    genie's cache client resets that state, so the registered singleton can
    be reused across sequential scenarios.  Experiments that tune the
    delegate windows pass fresh delegate instances.
    """

    name = ADAPTIVE
    needs_triggers = True
    serves_stale = True
    counters_moved = ("updates_applied", "invalidations", "stale_served",
                      "recomputations", "db_fallbacks", "cas_retries",
                      "band_switches", "adaptive_migrations")
    failover = ("per band: cold keys inherit update-in-place's CAS-death "
                "fallback, hot-contended keys leased-invalidate's tokenless "
                "gutter stale serves, hot-write-heavy keys async-refresh's "
                "gutter-TTL-bounded envelopes")

    def __init__(
        self,
        hot_rate_threshold: float = 4.0,
        write_share_threshold: float = 0.3,
        contention_threshold: float = 1.0,
        min_dwell_seconds: float = 1.0,
        telemetry_capacity: int = 512,
        half_life_seconds: float = 8.0,
        update_in_place: Optional[UpdateInPlaceStrategy] = None,
        leased: Optional[LeasedInvalidateStrategy] = None,
        async_refresh: Optional[AsyncRefreshStrategy] = None,
    ) -> None:
        if hot_rate_threshold <= 0:
            raise ValueError("hot_rate_threshold must be positive")
        if not 0.0 < write_share_threshold <= 1.0:
            raise ValueError("write_share_threshold must be in (0, 1]")
        if min_dwell_seconds < 0:
            raise ValueError("min_dwell_seconds must be non-negative")
        #: Decayed reads+writes per half-life above which a key is *hot*.
        self.hot_rate_threshold = float(hot_rate_threshold)
        #: Write share of a hot key's traffic above which it is
        #: *write-heavy* (promoted to the async-refresh band).
        self.write_share_threshold = float(write_share_threshold)
        #: Decayed CAS-mismatch/retry/lease-contention rate above which a
        #: hot key is *contended* (promoted to the leased band, taking
        #: precedence over the write-share test).
        self.contention_threshold = float(contention_threshold)
        #: Virtual seconds a key must dwell in its band before switching.
        self.min_dwell_seconds = float(min_dwell_seconds)
        self.telemetry_capacity = int(telemetry_capacity)
        self.half_life_seconds = float(half_life_seconds)
        self._update = (update_in_place if update_in_place is not None
                        else get_strategy(UPDATE_IN_PLACE))
        self._leased = (leased if leased is not None
                        else get_strategy(LEASED_INVALIDATE))
        self._async = (async_refresh if async_refresh is not None
                       else get_strategy(ASYNC_REFRESH))
        # Per-run state, (re)initialized by _ensure_attached.
        self.telemetry: Optional[KeyTelemetry] = None
        self._client: Optional[Any] = None
        self._bands: Dict[str, _BandState] = {}
        #: Keys currently in a non-cold band — the write path's fast-path
        #: guard (empty set = every affected key is necessarily cold).
        self._hot_keys: set = set()
        self.band_switches = 0
        self.migrations = 0
        #: ``(key, old_band, new_band)`` in switch order (deterministic).
        self.switch_log: List[Tuple[str, str, str]] = []

    # -- per-run wiring --------------------------------------------------------

    def _ensure_attached(self, cached_object: "CacheClass") -> KeyTelemetry:
        """Bind telemetry to the object's cache clients (once per genie).

        A different genie's client means a new run: telemetry, band map,
        and switch counters reset so state never leaks across scenarios.
        """
        client = cached_object.app_cache
        if self._client is not client or self.telemetry is None:
            self._client = client
            self.telemetry = KeyTelemetry(
                clock=cached_object.genie.now,
                capacity=self.telemetry_capacity,
                half_life_seconds=self.half_life_seconds)
            client.telemetry = self.telemetry
            cached_object.trigger_cache.telemetry = self.telemetry
            self._bands = {}
            self._hot_keys = set()
            self.band_switches = 0
            self.migrations = 0
            self.switch_log = []
        return self.telemetry

    # -- band model ------------------------------------------------------------

    def band_for(self, key: str) -> str:
        """The key's current band (``cold`` when untracked)."""
        state = self._bands.get(key)
        return state.band if state is not None else COLD_BAND

    def bands_snapshot(self) -> Dict[str, str]:
        """Non-cold band assignments, sorted by key (tests, reports)."""
        return {key: self._bands[key].band
                for key in sorted(self._bands)
                if self._bands[key].band != COLD_BAND}

    def _delegate(self, band: str) -> ConsistencyStrategy:
        if band == HERD_BAND:
            return self._leased
        if band == REFRESH_BAND:
            return self._async
        return self._update

    def _classify(self, entry: KeyStats) -> str:
        """The band the key's decayed telemetry calls for (no hysteresis).

        Hotness is the gate, not the verdict: a hot but read-mostly,
        uncontended key stays cold, because trigger patches already serve it
        at near-zero cost and both hot bands would only add recomputes.
        """
        traffic = entry.read_rate + entry.write_rate
        if traffic < self.hot_rate_threshold:
            return COLD_BAND
        if entry.contention_rate >= self.contention_threshold:
            return HERD_BAND
        if entry.write_rate >= self.write_share_threshold * traffic:
            return REFRESH_BAND
        return COLD_BAND

    def _reclassify(self, cached_object: "CacheClass", entry: KeyStats,
                    params: Dict[str, Any]) -> str:
        """Read-path band decision with min-dwell hysteresis.

        ``entry`` is the record ``note_read`` just returned for the key
        being read: one clock reading (``entry.decayed_at``) and one decay
        serve the count, the classification and the dwell test.  ``params``
        are the read's own query parameters — handed through to migration
        so a demotion out of the refresh band can schedule the background
        recompute that rebuilds the raw representation.
        """
        key, now = entry.key, entry.decayed_at
        state = self._bands.get(key)
        current = state.band if state is not None else COLD_BAND
        target = self._classify(entry)
        if target == current:
            # Prune settled cold states so the band map stays bounded by
            # the currently-hot key set (plus keys mid-dwell).
            if (state is not None and current == COLD_BAND
                    and now - state.since >= self.min_dwell_seconds):
                del self._bands[key]
            return current
        since = state.since if state is not None else entry.first_seen
        if now - since < self.min_dwell_seconds:
            return current  # hysteresis: not dwelt long enough to switch
        self._switch(cached_object, key, current, target, now, params)
        return target

    def _switch(self, cached_object: "CacheClass", key: str, old_band: str,
                new_band: str, now: float, params: Dict[str, Any]) -> None:
        state = self._bands.get(key)
        if state is None:
            self._bands[key] = _BandState(new_band, now)
        else:
            state.band = new_band
            state.since = now
        if new_band == COLD_BAND:
            self._hot_keys.discard(key)
        else:
            self._hot_keys.add(key)
        self.band_switches += 1
        self.switch_log.append((key, old_band, new_band))
        client = cached_object.app_cache
        client.recorder.record("band_switches")
        self._migrate(cached_object, client, key, old_band, new_band, params)

    def _migrate(self, cached_object: "CacheClass", client: Any, key: str,
                 old_band: str, new_band: str,
                 params: Dict[str, Any]) -> None:
        """Convert the key's cached representation to the new band's.

        The cold and herd bands share the raw trigger-maintained
        representation, so switches between them move nothing — the value
        stays live and correct.  Only the refresh band's envelope differs:

        * entering it, a live raw value is re-wrapped in place with a full
          freshness window (it is trigger-maintained, hence fresh now) —
          promotion never costs a cache miss;
        * leaving it, the envelope may hide writes its freshness window
          absorbed, so it must NOT become a raw value (triggers would patch
          incrementally on a stale base, pinning the staleness forever):
          toward the herd band a stale-retaining ``lease_delete`` keeps it
          servable while the lease hands one reader the recompute token
          (the lease-token handoff); toward cold the envelope stays
          servable and one background recompute is scheduled — its store
          re-homes the key as the cold band's raw value, so demotion never
          costs a blocking fallback either.  Until that recompute lands the
          trigger paths treat the lingering envelope as unpatchable and
          invalidate instead of patching (``_cas_update`` and the flush's
          foreign-representation check), so no write is ever absorbed into
          a base the triggers do not own.
        """
        if new_band == REFRESH_BAND:
            raw = client.get(key)
            if raw is None or is_envelope(raw):
                return
            client.set(key, self._async.wrap_for_store(cached_object, raw,
                                                       key=key),
                       expire=self._async.expiry_for(cached_object, key=key))
        elif old_band == REFRESH_BAND:
            if new_band == HERD_BAND:
                if not client.lease_delete(key, self._leased.stale_seconds):
                    return
            else:
                if client.get(key) is None:
                    return
                cached_object.genie.schedule_refresh(cached_object, key,
                                                     params)
        else:
            return  # cold <-> herd: same raw representation, nothing moves
        self.migrations += 1
        client.recorder.record("adaptive_migrations")

    # -- storage ---------------------------------------------------------------

    def expiry_for(self, cached_object: "CacheClass",
                   key: Optional[str] = None) -> Optional[float]:
        if key is None:
            return None
        return self._delegate(self.band_for(key)).expiry_for(
            cached_object, key=key)

    def wrap_for_store(self, cached_object: "CacheClass", frozen: Any,
                       key: Optional[str] = None) -> Any:
        if key is None:
            return frozen
        return self._delegate(self.band_for(key)).wrap_for_store(
            cached_object, frozen, key=key)

    # -- read path -------------------------------------------------------------

    def fetch_multi(self, client: Any, items: Sequence[ReadEntry],
                    single: bool = False) -> Dict[str, Tuple[Any, bool]]:
        groups: "OrderedDict[str, List[ReadEntry]]" = OrderedDict()
        for cached_object, key, params in items:
            entry = self._ensure_attached(cached_object).note_read(key)
            band = self._reclassify(cached_object, entry, params)
            groups.setdefault(band, []).append((cached_object, key, params))
        served: Dict[str, Tuple[Any, bool]] = {}
        for band, group in groups.items():
            # A stray envelope (the band switched mid-flight, e.g. a
            # lease-retained value stored under the old band) is unwrapped.
            for key, (frozen, stale) in self._delegate(band).fetch_multi(
                    client, group, single).items():
                served[key] = (unwrap_envelope(frozen), stale)
        return served

    # -- write path (trigger side) ---------------------------------------------

    def on_write(self, cached_object: "CacheClass", table: str, event: str,
                 new: Optional[Dict[str, Any]],
                 old: Optional[Dict[str, Any]]) -> None:
        telemetry = self._ensure_attached(cached_object)
        if not self._hot_keys:
            # The common case: no key is in a hot band, so every affected
            # key is necessarily cold — full-fidelity incremental patching
            # through update-in-place, with the write telemetry attributed
            # by ``_cas_update`` on the patches' own key walk.  Computing
            # the affected-key set here just to learn what the delegate is
            # about to recompute would double the trigger's query work.
            self._update.on_write(cached_object, table, event, new, old)
            return
        keys = set()
        for row in (new, old):
            if row is not None:
                keys.update(cached_object.affected_keys(table, row))
        affected = sorted(keys)
        if not affected:
            return
        bands = {key: self.band_for(key) for key in affected}
        if all(band == COLD_BAND for band in bands.values()):
            # Every affected key is still cold: delegate the whole event
            # (``_cas_update`` attributes the writes, as above).
            self._update.on_write(cached_object, table, event, new, old)
            return
        for key in affected:
            telemetry.note_write(key)
        # A hot key is involved.  Incremental patches are whole-event (they
        # cannot target a subset of the affected keys), so the event falls
        # back to per-key invalidation: hot-contended keys get the stale-
        # retaining lease delete, cold keys a plain delete (always correct,
        # just not incremental), and hot-write-heavy keys propagate nothing
        # — their freshness window bounds the staleness, by construction.
        # Skipping propagation for the write-heavy band is the whole point:
        # per-write work is replaced by one recompute per freshness window.
        # A queued key reaches flush_invalidations below at commit, which
        # re-partitions by the band current *at flush time*.
        for key in affected:
            if bands[key] != REFRESH_BAND:
                cached_object.invalidate_key(key)

    def flush_invalidations(self, client: Any, keys: Sequence[str],
                            single: bool = False) -> List[str]:
        groups: "OrderedDict[str, List[str]]" = OrderedDict()
        for key in keys:
            groups.setdefault(self.band_for(key), []).append(key)
        removed: List[str] = []
        for band, group in groups.items():
            removed.extend(self._delegate(band).flush_invalidations(
                client, group, single))
        return removed

    def render_trigger_body(self, cached_object: "CacheClass",
                            batched: bool) -> List[str]:
        if batched:
            return [
                "    for cache_key in affected:",
                "        band = adaptive.band_for(cache_key)",
                "        if band == 'cold' and all_affected_cold:",
                "            queue.enqueue_mutate(cache_key, ...)  # update-in-place patch",
                "        elif band != 'hot-write-heavy':",
                "            queue.enqueue_delete(cache_key)  # lease-retaining for hot-contended",
                "        # hot-write-heavy: no propagation (freshness window bounds staleness)",
            ]
        return [
            "    for cache_key in affected:",
            "        band = adaptive.band_for(cache_key)",
            "        if band == 'hot-contended':",
            f"            cache.lease_delete(cache_key, {self._leased.stale_seconds})",
            "        elif band == 'cold':",
            "            cache.delete(cache_key)  # or gets/cas patch when all keys are cold",
        ]

    # -- introspection ---------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        out = super().describe()
        out["bands"] = {
            COLD_BAND: {"delegate": self._update.name,
                        "when": "decayed traffic below hot_rate_threshold"},
            HERD_BAND: {"delegate": self._leased.name,
                        "when": ("hot and contention_rate >= "
                                 "contention_threshold"),
                        "lease_seconds": self._leased.lease_seconds,
                        "stale_seconds": self._leased.stale_seconds},
            REFRESH_BAND: {"delegate": self._async.name,
                           "when": ("hot, uncontended, and write share >= "
                                    "write_share_threshold"),
                           "refresh_seconds": self._async.refresh_seconds,
                           "stale_grace_seconds":
                               self._async.stale_grace_seconds},
        }
        out["hot_rate_threshold"] = self.hot_rate_threshold
        out["write_share_threshold"] = self.write_share_threshold
        out["contention_threshold"] = self.contention_threshold
        out["min_dwell_seconds"] = self.min_dwell_seconds
        out["telemetry"] = {"capacity": self.telemetry_capacity,
                            "half_life_seconds": self.half_life_seconds}
        out["band_switches"] = self.band_switches
        out["adaptive_migrations"] = self.migrations
        return out
