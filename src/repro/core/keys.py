"""Cache-key construction.

Every cached object owns a key prefix; individual entries append the values
of the object's ``where_fields``.  The paper notes that illustrative prefixes
like ``LatestWallPostsOfUser:42`` are replaced by system-generated unique
prefixes in practice — we do the same: a short digest of the cached-object
definition guards against collisions between objects with similar names,
while remaining deterministic across runs.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, Sequence

_SAFE_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.:-")

#: Most value combinations one :class:`KeyScheme` memoises before the memo is
#: dropped wholesale and refilled, so a long-running process cannot leak.
KEY_MEMO_MAX = 1 << 16

#: Component types the memo covers: within each, equal values encode to the
#: same text.  (Floats do not qualify — ``0.0 == -0.0`` but their reprs
#: differ — and neither does anything user-defined.)
_MEMO_TYPES = frozenset((int, str, bool, type(None)))


def _encode_component(value: Any) -> str:
    """Encode one key component so it is memcached-safe."""
    text = repr(value) if not isinstance(value, str) else value
    if all(ch in _SAFE_CHARS for ch in text) and len(text) <= 48:
        return text
    digest = hashlib.md5(text.encode("utf-8")).hexdigest()[:16]
    return f"h{digest}"


class KeyScheme:
    """Key naming scheme for one cached object."""

    def __init__(self, object_name: str, definition_fingerprint: str) -> None:
        digest = hashlib.md5(definition_fingerprint.encode("utf-8")).hexdigest()[:8]
        self.prefix = f"cg:{_encode_component(object_name)}:{digest}"
        #: Component values -> built key.  No ``int`` equals a ``str``, so a
        #: combination of only those two is keyed by its values alone.  Any
        #: other memoised combination is keyed by ``(component types,
        #: values)``, because ``1 == True`` hash alike yet encode differently:
        #: a key must not depend on which was seen first.
        self._memo: Dict[tuple, str] = {}

    def key_for(self, values: Sequence[Any]) -> str:
        """Build the cache key for one combination of where-field values."""
        memo_key = tuple(values)
        for value in memo_key:
            cls = type(value)
            if cls is not int and cls is not str:
                types = tuple(map(type, memo_key))
                if not _MEMO_TYPES.issuperset(types):
                    return self._build(memo_key)
                memo_key = (types, memo_key)
                break
        memo = self._memo
        built = memo.get(memo_key)
        if built is None:
            built = self._build(values)
            if len(memo) >= KEY_MEMO_MAX:
                memo.clear()
            memo[memo_key] = built
        return built

    def _build(self, values: Sequence[Any]) -> str:
        parts = [self.prefix]
        parts.extend(_encode_component(v) for v in values)
        return ":".join(parts)


def fingerprint(*parts: Any) -> str:
    """Build a stable fingerprint string from definition parameters."""
    return "|".join(str(p) for p in parts)
