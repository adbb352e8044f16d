"""Hit/miss/eviction statistics for cache servers (memcached's ``stats``)."""

from __future__ import annotations

from typing import Dict, Tuple

from .._counters import compile_counter_methods

#: Field names of :class:`CacheStats`, in declaration order (the slots
#: equivalent of ``dataclasses.fields()``; the unrolled hot methods are
#: compiled from this tuple — see :mod:`repro._counters`).
CACHE_STAT_FIELDS: Tuple[str, ...] = (
    "gets", "hits", "misses", "sets", "adds", "deletes",
    "cas_ok", "cas_mismatch", "cas_miss",
    "incr_ok", "incr_miss", "decr_ok", "decr_miss",
    "evictions", "expirations",
    # Lease protocol (leased invalidation): tokens granted, stale values
    # served from the recently-deleted buffer, and stale-retaining deletes.
    "leases_granted", "stale_hits", "lease_deletes",
    # Lease contention (the concurrent-worker replay makes these nonzero):
    # readers that wanted the recompute token while the per-key window was
    # already claimed, and the largest herd — claimants racing one key's
    # lease window (the token winner plus every stale-served reader).
    "lease_contended", "herd_size_max",
    # Cluster dynamics: operations that failed fast against a dead node.
    "node_down_errors",
)


class CacheStats:
    """Operation counters in the spirit of memcached's ``stats`` command.

    A ``__slots__`` counter bag (historically a dataclass; the keyword
    constructor with 0 defaults is unchanged) whose hot methods are
    unrolled over :data:`CACHE_STAT_FIELDS`.
    """

    __slots__ = CACHE_STAT_FIELDS

    #: Field-name tuple, the slots equivalent of ``dataclasses.fields()``.
    FIELDS = CACHE_STAT_FIELDS

    #: Fields that aggregate by ``max`` instead of summing: a high-water
    #: mark summed across servers (or across stat snapshots) is meaningless.
    _MAX_FIELDS = frozenset({"herd_size_max"})

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = self._counters_as_dict()
        out["hit_ratio"] = self.hit_ratio
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheStats):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in CACHE_STAT_FIELDS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = ", ".join(f"{name}={getattr(self, name)}"
                            for name in CACHE_STAT_FIELDS
                            if getattr(self, name))
        return f"CacheStats({nonzero})"


for _name, _method in compile_counter_methods(
        CACHE_STAT_FIELDS, max_fields=CacheStats._MAX_FIELDS).items():
    # The generated as_dict is the raw field mapping; the public as_dict
    # above adds the derived hit_ratio key on top of it.
    setattr(CacheStats, "_counters_as_dict" if _name == "as_dict" else _name,
            _method)
del _name, _method
