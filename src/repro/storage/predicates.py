"""Predicate trees for WHERE clauses.

The ORM compiles ``filter(...)`` expressions into these predicate objects;
the planner inspects them to pick indexes, and the executor evaluates them
against candidate rows.  Only the operators needed by the paper's query
patterns are implemented: equality, comparisons, IN, BETWEEN, IS NULL, and
boolean combinators.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from ..errors import PlannerError


class Predicate:
    """Base class for all predicate nodes."""

    def matches(self, row: Mapping[str, Any]) -> bool:
        """Return True if ``row`` satisfies this predicate."""
        raise NotImplementedError

    def compile(self) -> Optional[Callable[[Dict[str, Any]], bool]]:
        """Return this predicate as a one-argument check over a plain row
        dict, built once per statement and called once per candidate row.

        ``None`` means "no filter".  Equality and conjunctions of equalities
        become a single closure; every other node is its own ``matches``.
        """
        return self.matches

    def columns(self) -> List[str]:
        """Return the column names this predicate references."""
        raise NotImplementedError

    def equality_bindings(self) -> Dict[str, Any]:
        """Return ``{column: value}`` for top-level equality constraints.

        Used by the planner for index selection and by CacheGenie triggers to
        determine which cache keys a modified row affects.  Only conjunctive
        equality constraints are reported; anything under an OR or NOT is
        ignored.
        """
        return {}

    # Boolean combinators -----------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return And([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or([self, other])

    def __invert__(self) -> "Predicate":
        return Not(self)


class TruePredicate(Predicate):
    """Matches every row; used for unfiltered scans."""

    def matches(self, row: Mapping[str, Any]) -> bool:
        return True

    def compile(self) -> None:
        return None

    def columns(self) -> List[str]:
        return []

    def __repr__(self) -> str:  # pragma: no cover
        return "TRUE"


ALWAYS_TRUE = TruePredicate()


class Comparison(Predicate):
    """A binary comparison between a column and a constant."""

    OPS = {
        "=": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a is not None and b is not None and a < b,
        "<=": lambda a, b: a is not None and b is not None and a <= b,
        ">": lambda a, b: a is not None and b is not None and a > b,
        ">=": lambda a, b: a is not None and b is not None and a >= b,
    }

    def __init__(self, column: str, op: str, value: Any) -> None:
        if op not in self.OPS:
            raise PlannerError(f"unsupported comparison operator {op!r}")
        self.column = column
        self.op = op
        self.value = value

    def matches(self, row: Mapping[str, Any]) -> bool:
        actual = row.get(self.column)
        if actual is None and self.op in ("=", "<", "<=", ">", ">="):
            return False
        return self.OPS[self.op](actual, self.value)

    def compile(self) -> Callable[[Dict[str, Any]], bool]:
        if self.op != "=" or self.value is None:  # ``= NULL`` matches nothing
            return self.matches
        column, value = self.column, self.value
        return lambda row: row.get(column) == value

    def columns(self) -> List[str]:
        return [self.column]

    def equality_bindings(self) -> Dict[str, Any]:
        if self.op == "=":
            return {self.column: self.value}
        return {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"({self.column} {self.op} {self.value!r})"


def Eq(column: str, value: Any) -> Comparison:
    """Convenience constructor for an equality comparison."""
    return Comparison(column, "=", value)


class In(Predicate):
    """``column IN (v1, v2, ...)``."""

    def __init__(self, column: str, values: Iterable[Any]) -> None:
        self.column = column
        self.values = tuple(values)
        self._set = set(self.values)

    def matches(self, row: Mapping[str, Any]) -> bool:
        return row.get(self.column) in self._set

    def columns(self) -> List[str]:
        return [self.column]

    def equality_bindings(self) -> Dict[str, Any]:
        if len(self._set) == 1:
            return {self.column: next(iter(self._set))}
        return {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"({self.column} IN {self.values!r})"


class Between(Predicate):
    """``column BETWEEN low AND high`` (inclusive)."""

    def __init__(self, column: str, low: Any, high: Any) -> None:
        self.column = column
        self.low = low
        self.high = high

    def matches(self, row: Mapping[str, Any]) -> bool:
        value = row.get(self.column)
        if value is None:
            return False
        return self.low <= value <= self.high

    def columns(self) -> List[str]:
        return [self.column]

    def __repr__(self) -> str:  # pragma: no cover
        return f"({self.column} BETWEEN {self.low!r} AND {self.high!r})"


class IsNull(Predicate):
    """``column IS NULL`` (or ``IS NOT NULL`` when negated)."""

    def __init__(self, column: str, negated: bool = False) -> None:
        self.column = column
        self.negated = negated

    def matches(self, row: Mapping[str, Any]) -> bool:
        is_null = row.get(self.column) is None
        return not is_null if self.negated else is_null

    def columns(self) -> List[str]:
        return [self.column]

    def __repr__(self) -> str:  # pragma: no cover
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.column} {op})"


class And(Predicate):
    """Conjunction of child predicates."""

    def __init__(self, children: Sequence[Predicate]) -> None:
        self.children: List[Predicate] = []
        for child in children:
            # Flatten nested ANDs so equality_bindings sees all conjuncts.
            if isinstance(child, And):
                self.children.extend(child.children)
            else:
                self.children.append(child)

    def matches(self, row: Mapping[str, Any]) -> bool:
        return all(child.matches(row) for child in self.children)

    def compile(self) -> Callable[[Dict[str, Any]], bool]:
        pairs = [(child.column, child.value) for child in self.children
                 if isinstance(child, Comparison) and child.op == "="
                 and child.value is not None]
        if len(pairs) < len(self.children):
            return self.matches

        def check(row: Dict[str, Any]) -> bool:
            for column, value in pairs:
                if not row.get(column) == value:
                    return False
            return True
        return check

    def columns(self) -> List[str]:
        out: List[str] = []
        for child in self.children:
            out.extend(child.columns())
        return out

    def equality_bindings(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for child in self.children:
            out.update(child.equality_bindings())
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return "(" + " AND ".join(repr(c) for c in self.children) + ")"


class Or(Predicate):
    """Disjunction of child predicates."""

    def __init__(self, children: Sequence[Predicate]) -> None:
        self.children = list(children)

    def matches(self, row: Mapping[str, Any]) -> bool:
        return any(child.matches(row) for child in self.children)

    def columns(self) -> List[str]:
        out: List[str] = []
        for child in self.children:
            out.extend(child.columns())
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return "(" + " OR ".join(repr(c) for c in self.children) + ")"


class Not(Predicate):
    """Negation of a child predicate."""

    def __init__(self, child: Predicate) -> None:
        self.child = child

    def matches(self, row: Mapping[str, Any]) -> bool:
        return not self.child.matches(row)

    def columns(self) -> List[str]:
        return self.child.columns()

    def __repr__(self) -> str:  # pragma: no cover
        return f"(NOT {self.child!r})"


def predicate_from_filters(filters: Mapping[str, Any]) -> Predicate:
    """Build a conjunctive predicate from a ``{column: value}`` mapping.

    Supports Django-style suffixes on the column name:

    * ``col`` / ``col__exact`` — equality
    * ``col__lt``, ``col__lte``, ``col__gt``, ``col__gte`` — comparisons
    * ``col__in`` — membership
    * ``col__isnull`` — null check (value is a boolean)
    """
    if not filters:
        return ALWAYS_TRUE
    parts: List[Predicate] = []
    for key, value in filters.items():
        column, _, suffix = key.partition("__")
        if not suffix or suffix == "exact":
            parts.append(Comparison(column, "=", value))
        elif suffix == "lt":
            parts.append(Comparison(column, "<", value))
        elif suffix == "lte":
            parts.append(Comparison(column, "<=", value))
        elif suffix == "gt":
            parts.append(Comparison(column, ">", value))
        elif suffix == "gte":
            parts.append(Comparison(column, ">=", value))
        elif suffix == "ne":
            parts.append(Comparison(column, "!=", value))
        elif suffix == "in":
            parts.append(In(column, value))
        elif suffix == "isnull":
            parts.append(IsNull(column, negated=not value))
        else:
            raise PlannerError(f"unsupported filter suffix {suffix!r} in {key!r}")
    if len(parts) == 1:
        return parts[0]
    return And(parts)
