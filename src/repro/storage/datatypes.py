"""Column data types for the storage engine.

The engine supports a small set of scalar types sufficient for the Pinax-style
social-networking schema used in the paper's evaluation: integers, floats,
text, booleans, and timestamps.  Each type knows how to validate/coerce Python
values and how to estimate its on-disk width (used by the buffer-pool and
cost model to decide how many rows fit in a page).
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Optional

from ..errors import SchemaError


class DataType:
    """Base class for column data types."""

    #: Short SQL-ish name used in schema dumps.
    name: str = "unknown"
    #: Estimated per-value storage width in bytes (used for page packing).
    width: int = 8

    def coerce(self, value: Any) -> Any:
        """Validate ``value`` and convert it to the canonical Python type.

        ``None`` is always passed through; NOT NULL enforcement happens at
        the table layer, not the type layer.
        """
        if value is None:
            return None
        return self._coerce(value)

    def _coerce(self, value: Any) -> Any:
        raise NotImplementedError

    def estimate_width(self, value: Any) -> int:
        """Return the estimated storage footprint of ``value`` in bytes."""
        return self.width

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__}>"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class IntegerType(DataType):
    """64-bit signed integer."""

    name = "integer"
    width = 8

    def _coerce(self, value: Any) -> int:
        if isinstance(value, bool):
            raise SchemaError(f"expected integer, got boolean {value!r}")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise SchemaError(f"expected integer, got {value!r}")


class FloatType(DataType):
    """Double-precision float."""

    name = "float"
    width = 8

    def _coerce(self, value: Any) -> float:
        if isinstance(value, bool):
            raise SchemaError(f"expected float, got boolean {value!r}")
        if isinstance(value, (int, float)):
            return float(value)
        raise SchemaError(f"expected float, got {value!r}")


class TextType(DataType):
    """Variable-length unicode text."""

    name = "text"
    width = 32  # average estimate; actual width measured per value

    def __init__(self, max_length: Optional[int] = None) -> None:
        self.max_length = max_length

    def _coerce(self, value: Any) -> str:
        if not isinstance(value, str):
            raise SchemaError(f"expected text, got {value!r}")
        if self.max_length is not None and len(value) > self.max_length:
            raise SchemaError(
                f"text value of length {len(value)} exceeds max_length={self.max_length}"
            )
        return value

    def estimate_width(self, value: Any) -> int:
        if value is None:
            return 1
        return max(1, len(value))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TextType) and other.max_length == self.max_length

    def __hash__(self) -> int:
        return hash((TextType, self.max_length))


class BooleanType(DataType):
    """Boolean."""

    name = "boolean"
    width = 1

    def _coerce(self, value: Any) -> bool:
        if isinstance(value, bool):
            return value
        if value in (0, 1):
            return bool(value)
        raise SchemaError(f"expected boolean, got {value!r}")


class TimestampType(DataType):
    """Timestamp without time zone, stored as ``datetime.datetime``.

    For convenience, integers/floats are accepted and interpreted as seconds
    since the UNIX epoch — the workload generator uses a virtual clock that
    hands out float timestamps.
    """

    name = "timestamp"
    width = 8

    def _coerce(self, value: Any) -> _dt.datetime:
        if isinstance(value, _dt.datetime):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            # Naive UTC, as ``utcfromtimestamp`` (deprecated in 3.12) gave.
            return _dt.datetime.fromtimestamp(
                float(value), _dt.timezone.utc).replace(tzinfo=None)
        if isinstance(value, str):
            try:
                return _dt.datetime.fromisoformat(value)
            except ValueError:
                pass
        raise SchemaError(f"expected timestamp, got {value!r}")


#: Singleton instances — schemas reference these rather than constructing new
#: type objects, except for TextType with an explicit max_length.
INTEGER = IntegerType()
FLOAT = FloatType()
TEXT = TextType()
BOOLEAN = BooleanType()
TIMESTAMP = TimestampType()

_BY_NAME = {
    "integer": INTEGER,
    "int": INTEGER,
    "bigint": INTEGER,
    "float": FLOAT,
    "double": FLOAT,
    "real": FLOAT,
    "text": TEXT,
    "varchar": TEXT,
    "boolean": BOOLEAN,
    "bool": BOOLEAN,
    "timestamp": TIMESTAMP,
    "datetime": TIMESTAMP,
    "date": TIMESTAMP,
}


def type_by_name(name: str) -> DataType:
    """Look up a :class:`DataType` by its SQL-ish name (case-insensitive)."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise SchemaError(f"unknown column type {name!r}") from None
