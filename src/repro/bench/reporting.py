"""Rendering experiment results as the tables/series the paper reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

#: Table 1 of the paper: qualitative comparison with representative systems.
TABLE1_ROWS: List[Dict[str, str]] = [
    {"system": "memcached (expiry)", "granularity": "Arbitrary",
     "source_changes": "Every read", "stale_data": "Yes", "coherence": "None"},
    {"system": "memcached (manual)", "granularity": "Arbitrary",
     "source_changes": "Every read + write", "stale_data": "No",
     "coherence": "Manual invalidation"},
    {"system": "TxCache", "granularity": "Functions", "source_changes": "None",
     "stale_data": "Yes (SI)", "coherence": "Invalidation / timeout"},
    {"system": "TimesTen", "granularity": "Partial DB tables", "source_changes": "None",
     "stale_data": "Yes", "coherence": "Incremental update-in-place"},
    {"system": "GlobeCBC", "granularity": "SQL queries", "source_changes": "None",
     "stale_data": "No", "coherence": "Template-based invalidation"},
    {"system": "AutoWebCache", "granularity": "Entire webpage", "source_changes": "None",
     "stale_data": "No", "coherence": "Template-based invalidation"},
    {"system": "CacheGenie", "granularity": "Caching abstractions", "source_changes": "None",
     "stale_data": "No", "coherence": "Incremental update-in-place"},
]


def table1() -> str:
    """Render Table 1 (system comparison matrix)."""
    headers = ["System", "Cache granularity", "Source code modifications",
               "Stale data", "Cache coherence"]
    rows = [[r["system"], r["granularity"], r["source_changes"],
             r["stale_data"], r["coherence"]] for r in TABLE1_ROWS]
    return format_table(headers, rows)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Plain-text table with aligned columns."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [render_row(list(headers)), render_row(["-" * w for w in widths])]
    lines.extend(render_row(row) for row in materialized)
    return "\n".join(lines)


# -- sweep tables: three layouts over plain-data rows -------------------------------

#: Table layouts.  ``ROWS``: one line per row, one column per entry of
#: ``columns``.  ``ARMS``: one line per entry of ``columns`` (a metric), one
#: column per value of the ``arm`` axis.  ``SERIES``: a figure's data — one
#: line per value of an x axis, one column per arm; ``columns`` is exactly
#: ``((x label, x key, x format), (unit, value key, value format))``.
ROWS, ARMS, SERIES = "rows", "arms", "series"

#: One column (or, under ``ARMS``, one metric line): a label, a dotted key
#: into the row (``"counters.cache_gets"``), and a ``str.format`` template
#: or a callable rendering the value.
Column = Tuple[str, str, Union[str, Callable[[object], str]]]

#: Format of a boolean column.
YES_NO = {True: "yes", False: "no"}.get


def lookup(row: Dict[str, object], key: str, default: object = 0) -> object:
    """Resolve a dotted key in a nested row; a missing leaf reads ``default``
    (a counter the run never moved, a page type it never served)."""
    value: object = row
    for part in key.split("."):
        if not isinstance(value, dict) or part not in value:
            return default
        value = value[part]
    return value


def flatten(rows: Sequence[Dict[str, object]], key: str) -> List[Dict[str, object]]:
    """One row per entry of each row's ``key`` list, the entry's fields laid
    over the parent's (a cell's per-client-count points, a run's segments)."""
    return [{**row, **entry} for row in rows for entry in row[key]]


def pivot(rows: Sequence[Dict[str, object]], x: str, arm: str
          ) -> Tuple[List[object], List[object], Dict[tuple, Dict[str, object]]]:
    """The x values and arm values of ``rows`` in first-seen order, and the
    row at each ``(x value, arm value)``."""
    xs = list(dict.fromkeys(row[x] for row in rows))
    arms = list(dict.fromkeys(row[arm] for row in rows))
    return xs, arms, {(row[x], row[arm]): row for row in rows}


def _cell(row: Dict[str, object], key: str, fmt) -> str:
    value = lookup(row, key)
    return fmt(value) if callable(fmt) else fmt.format(value)


@dataclass(frozen=True)
class Table:
    """One table of a sweep report, declared as data."""

    #: ``str.format`` template over the first row (``"... ({seed} seed)"``).
    title: str
    layout: str
    #: The columns, or a function of the rows for a table whose lines depend
    #: on the data (Table 2 has one line per page type served).
    columns: Union[Sequence[Column], Callable[[Sequence[dict]], Sequence[Column]]]
    #: ``ARMS``/``SERIES``: the axis whose values head the columns.
    arm: str = "scenario"
    #: ``ARMS``: header of the label column.
    corner: str = "Metric"
    #: Render :func:`flatten` ``(rows, explode)`` instead of the rows.
    explode: Optional[str] = None
    #: Render the table only when this holds of the rows.
    when: Optional[Callable[[Sequence[dict]], bool]] = None

    def render(self, rows: Sequence[Dict[str, object]]) -> str:
        title = self.title.format_map(rows[0])
        if self.explode:
            rows = flatten(rows, self.explode)
        columns = self.columns(rows) if callable(self.columns) else self.columns
        if self.layout == ROWS:
            headers = [label for label, _, _ in columns]
            body = [[_cell(row, key, fmt) for _, key, fmt in columns]
                    for row in rows]
        elif self.layout == ARMS:
            by_arm = {row[self.arm]: row for row in rows}
            headers = [self.corner] + list(by_arm)
            body = [[label] + [_cell(row, key, fmt) for row in by_arm.values()]
                    for label, key, fmt in columns]
        else:
            (x_label, x, x_fmt), (unit, key, fmt) = columns
            xs, arms, cells = pivot(rows, x, self.arm)
            headers = [x_label] + [f"{arm} ({unit})" for arm in arms]
            body = [[x_fmt.format(value)]
                    + [_cell(cells[value, arm], key, fmt) for arm in arms]
                    for value in xs]
        return title + "\n" + format_table(headers, body)


def render_sweep(result) -> str:
    """Render a :class:`~repro.bench.experiments.SweepResult`: its
    experiment's tables a blank line apart, then the footer lines."""
    experiment = result.experiment
    parts = ["\n\n".join(table.render(result.rows)
                         for table in experiment.tables
                         if table.when is None or table.when(result.rows))]
    footer = experiment.footer(result) if experiment.footer else []
    if footer:
        parts += [""] + list(footer)
    return "\n".join(parts)


def render_strategies_list(strategies: Dict[str, object]) -> str:
    """Render every registered consistency strategy via its ``describe()``.

    ``strategies`` is a name -> strategy mapping (normally
    ``registered_strategies()``, with ``repro.adaptive`` imported so the
    adaptive singleton is registered).
    """
    lines = ["Registered consistency strategies", ""]
    for name in sorted(strategies):
        info = strategies[name].describe()
        lines.append(f"{name}:")
        lines.append(f"  triggers:     "
                     f"{'required' if info['needs_triggers'] else 'none'}")
        lines.append(f"  serves stale: "
                     f"{'yes' if info['serves_stale'] else 'no'}")
        lines.append(f"  counters:     {', '.join(info['counters_moved'])}")
        lines.append(f"  failover:     {info['failover']}")
        for key in sorted(info):
            if key in ("name", "needs_triggers", "serves_stale",
                       "counters_moved", "failover", "bands"):
                continue
            lines.append(f"  {key}: {info[key]}")
        bands = info.get("bands")
        if bands:
            lines.append("  bands:")
            for band, spec in bands.items():
                detail = ", ".join(f"{k}={v}" for k, v in spec.items()
                                   if k not in ("delegate", "when"))
                suffix = f" ({detail})" if detail else ""
                lines.append(f"    {band} -> {spec['delegate']}: "
                             f"{spec['when']}{suffix}")
        lines.append("")
    return "\n".join(lines).rstrip()


def render_micro_lookup(result: MicroLookupResult) -> str:
    headers = ["Operation", "Simulated latency (ms)"]
    rows = [
        ["Database B+Tree point lookup", f"{result.db_lookup_ms:.3f}"],
        ["memcached get", f"{result.cache_lookup_ms:.3f}"],
        ["Ratio (DB / cache)", f"{result.ratio:.1f}x"],
    ]
    return "\n".join(["Microbenchmark — cache vs database lookups (§5.3)",
                      format_table(headers, rows)])


def render_micro_trigger(result: MicroTriggerResult) -> str:
    headers = ["Operation", "Simulated latency (ms)"]
    rows = [
        ["Plain INSERT", f"{result.plain_insert_ms:.2f}"],
        ["INSERT + no-op trigger", f"{result.noop_trigger_insert_ms:.2f}"],
        ["INSERT + trigger opening a memcached connection",
         f"{result.cache_trigger_insert_ms:.2f}"],
        ["Each additional memcached op in a trigger", f"{result.per_cache_op_ms:.2f}"],
    ]
    return "\n".join(["Microbenchmark — trigger overhead on INSERT (§5.3)",
                      format_table(headers, rows)])


def render_effort(result: EffortResult) -> str:
    headers = ["Metric", "This reproduction", "Paper (§5.2)"]
    rows = [
        ["Cached objects defined", result.cached_objects, 14],
        ["  declared queryset-native (inferred)", result.queryset_declarations, "-"],
        ["  declared via legacy keywords", result.legacy_keyword_declarations, "-"],
        ["Application lines changed", result.application_lines_changed, "~20"],
        ["Generated triggers", result.generated_triggers, 48],
        ["Generated trigger lines of code", result.generated_trigger_lines, "~1720"],
    ]
    return "\n".join(["Programmer effort (§5.2)", format_table(headers, rows)])


# -- observability: flame summaries and run-document reports ----------------------

def render_flame(rows: Sequence[Dict[str, object]], limit: int = 20) -> str:
    """Text flame summary of a traced replay.

    ``rows`` are :meth:`repro.obs.Tracer.flame` rows (one per span name:
    count, total ticks, self ticks, virtual seconds), already sorted by
    total ticks descending.  Ticks are the tracer's monotonic event counter
    — the work measure *within* a virtual instant, since the simulated
    clock only advances between pages.
    """
    shown = list(rows)[:limit]
    headers = ["Span", "Count", "Ticks", "Self ticks", "Virtual s"]
    table_rows = [[row["name"], row["count"], row["ticks"], row["self_ticks"],
                   f"{row['seconds']:.3f}"] for row in shown]
    title = "Flame summary (top spans by total ticks)"
    if len(rows) > len(shown):
        title += f" — showing {len(shown)} of {len(rows)}"
    return "\n".join([title, format_table(headers, table_rows)])


def _render_run_metrics_doc(doc: Dict[str, object]) -> str:
    summary = doc.get("summary", {})
    parts = [f"Run metrics ({doc.get('mode', '?')} mode)",
             format_table(["Metric", "Value"],
                          [[name, f"{value:.4f}"]
                           for name, value in summary.items()])]
    by_page = doc.get("latency_by_page") or {}
    if by_page:
        parts += ["", "Mean latency by page type",
                  format_table(["Page", "Latency (s)"],
                               [[page, f"{by_page[page]:.4f}"]
                                for page in sorted(by_page)])]
    contention = doc.get("contention") or {}
    if contention:
        parts += ["", "Contention counters",
                  format_table(["Counter", "Value"],
                               [[name, contention[name]]
                                for name in sorted(contention)])]
    return "\n".join(parts)


def _render_replay_doc(doc: Dict[str, object]) -> str:
    pages = doc.get("pages") or []
    totals = doc.get("total_counters") or {}
    parts = [f"Replay result — {len(pages)} page loads",
             format_table(["Counter", "Value"],
                          [[name, totals[name]] for name in sorted(totals)
                           if totals[name]])]
    concurrent = doc.get("concurrent")
    if concurrent:
        by_worker = concurrent.get("pages_by_worker") or {}
        parts += ["", "Concurrent engine",
                  format_table(["Setting", "Value"],
                               [["workers", concurrent.get("workers")],
                                ["policy", concurrent.get("policy")],
                                ["seed", concurrent.get("seed")],
                                ["schedule signature",
                                 concurrent.get("schedule_signature")],
                                *[[f"pages on worker {worker}",
                                   by_worker[worker]]
                                  for worker in sorted(by_worker, key=int)]])]
    return "\n".join(parts)


def _render_histogram_doc(doc: Dict[str, object]) -> str:
    count = doc.get("count") or 0
    mean = doc.get("total", 0.0) / count if count else 0.0
    return "\n".join([
        f"Histogram — {doc.get('name')}",
        format_table(["Count", "Min", "Mean", "Max"],
                     [[count, doc.get("min"), f"{mean:.4f}", doc.get("max")]])])


def render_report(doc: Dict[str, object]) -> str:
    """Render any versioned run JSON document (``kind``-dispatched).

    Accepts the documents this repo exports: ``replay_result``
    (:meth:`ReplayResult.to_json`), ``run_metrics``
    (:meth:`RunMetrics.to_json`) and the composite ``run_document`` written
    by ``exp-contention --json-out``.
    """
    kind = doc.get("kind")
    if kind == "run_metrics":
        return _render_run_metrics_doc(doc)
    if kind == "replay_result":
        return _render_replay_doc(doc)
    if kind == "run_document":
        header = format_table(
            ["Field", "Value"],
            [["scenario", doc.get("scenario")],
             ["workers", doc.get("workers")],
             ["policy", doc.get("policy")],
             ["seed", doc.get("seed")]])
        parts = [f"Traced run document (schema {doc.get('schema')})", header]
        for section_key, renderer in (("replay", _render_replay_doc),
                                      ("metrics", _render_run_metrics_doc),
                                      ("page_total_demand_ms",
                                       _render_histogram_doc)):
            section = doc.get(section_key)
            if section:
                parts += ["", renderer(section)]
        flame = doc.get("flame")
        if flame:
            parts += ["", render_flame(flame)]
        return "\n".join(parts)
    raise ValueError(f"unknown report document kind: {kind!r}")
