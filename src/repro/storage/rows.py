"""Row representation used throughout the storage engine.

The engine's ownership rule: **a values dict is never mutated once stored**.
An UPDATE installs a new dict and the displaced one becomes the old image, so
every read inside the engine — scans, index fetches, join probes, predicates —
looks at stored dicts in place, and exactly one ``dict()`` is made per row that
*leaves* it (SELECT results, DML return values, the ``new``/``old`` a trigger
receives, :meth:`Row.to_dict`).  Application code and cached values never
alias live storage; rows that fail a predicate or are only counted are never
copied.

A :class:`Row` is a read-only view of one stored dict plus its heap ``rowid``,
used only where the row id is needed; it keeps showing the values it was
created over even after the row is updated or deleted.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping


class Row(Mapping[str, Any]):
    """A stored row: column values plus the heap row id.

    The class implements the read-only ``Mapping`` protocol over the stored
    dict (viewed in place, never copied at construction), while the heap
    retains the ability to locate the row by ``rowid``.
    """

    __slots__ = ("rowid", "_values")

    def __init__(self, rowid: int, values: Dict[str, Any]) -> None:
        self.rowid = rowid
        self._values = values

    # -- Mapping protocol ----------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    # -- conversions ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Return a detached copy of the row's values."""
        return dict(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Row #{self.rowid} {self._values!r}>"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self.rowid == other.rowid and self._values == other._values
        if isinstance(other, dict):
            return self._values == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rowid)
