"""Statistics collected by CacheGenie itself (per cached object and global)."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class DeclarationInfo:
    """How one cached object was declared (queryset-native vs legacy keywords).

    ``inferred`` records whether the cache class was picked by shape
    inference (queryset form) or named explicitly (keyword form); ``shape``
    is the canonical query-shape fingerprint used for duplicate detection.
    """

    QUERYSET = "queryset"
    KEYWORDS = "keywords"

    api: str
    cache_class: str
    inferred: bool
    shape: str

    def as_dict(self) -> Dict[str, object]:
        return {"api": self.api, "cache_class": self.cache_class,
                "inferred": self.inferred, "shape": self.shape}


@dataclass
class CachedObjectStats:
    """Counters for a single cached object."""

    cache_hits: int = 0
    cache_misses: int = 0
    db_fallbacks: int = 0          # evaluate() had to query the database
    transparent_fetches: int = 0   # served through ORM interception
    updates_applied: int = 0       # trigger applied an incremental update
    invalidations: int = 0         # trigger deleted a key
    recomputations: int = 0        # value recomputed from the DB (trigger or
                                   # background refresh)
    cas_retries: int = 0           # CAS conflicts retried inside triggers
    stale_served: int = 0          # reads answered with a known-stale value
                                   # (leased invalidation / async-refresh)
    trigger_invocations: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["hit_ratio"] = self.hit_ratio
        return out


@dataclass
class CacheGenieStats:
    """Aggregated statistics across all cached objects."""

    per_object: Dict[str, CachedObjectStats] = field(default_factory=dict)
    #: Per-object declaration metadata (api used, inferred class, shape).
    declarations: Dict[str, DeclarationInfo] = field(default_factory=dict)

    def totals(self) -> CachedObjectStats:
        total = CachedObjectStats()
        for stats in self.per_object.values():
            for f in fields(CachedObjectStats):
                setattr(total, f.name, getattr(total, f.name) + getattr(stats, f.name))
        return total

    def declaration_counts(self) -> Dict[str, int]:
        """How many objects were declared through each API form."""
        counts = {DeclarationInfo.QUERYSET: 0, DeclarationInfo.KEYWORDS: 0}
        for info in self.declarations.values():
            counts[info.api] = counts.get(info.api, 0) + 1
        return counts
