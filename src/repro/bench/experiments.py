"""The paper's experiments: one replay rig plus declarative sweep entries.

Every experiment in §5 has one shape — sweep a parameter across systems,
replay, report — so this module holds exactly one of each moving part:

* :func:`run_scenario` is the only place a scenario is assembled, warmed,
  replayed through :class:`~repro.sim.ConcurrentReplayer` and simulated;
  :func:`measure` flattens the resulting :class:`ScenarioRun` into the
  plain-data row every table and check reads.
* :class:`Experiment` declares one sweep: its :class:`Axis` list (full and
  ``--quick`` values, the CLI option), how a point maps to a rig call, and
  the :class:`~repro.bench.reporting.Table` list that renders the rows.
  :data:`EXPERIMENTS` registers them; :func:`run_sweep` runs any of them
  over :func:`repro.sim.parallel.run_cells`, and ``repro.bench.cli`` derives
  each subcommand from its entry.  The :class:`SweepResult` it returns is
  the one run document (:meth:`SweepResult.to_json`), and with
  ``traced=True`` it also carries a trace of every replay.
* The derived numbers the paper quotes (:func:`speedup_over_nocache`,
  :func:`plateau_size`, :func:`round_trip_reduction`,
  :func:`dominating_arms`, the ``check_*`` smoke assertions) are functions
  over rows.

The default workload and dataset are scaled down from the paper's testbed so
a full experiment finishes in seconds; the *shape* of the results — which
system wins, by what factor, where the crossovers are — is what the
reproduction tracks, and EXPERIMENTS.md records paper-vs-measured values for
every artifact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from ..apps.social import SeedScale
from ..memcache import CacheClient, CacheServer
from ..sim import (ADVERSARIAL, ALL_POLICIES, ConcurrentReplayer, RANDOM,
                   ROUND_ROBIN, ReplayResult, RunMetrics,
                   simulate_population)
from ..sim.parallel import run_cells
from ..storage import ColumnDef, Database, IndexDef, Recorder, TableSchema
from ..storage.costmodel import CostCounters
from ..workload import FlashCrowdArrival, WorkloadConfig, WorkloadGenerator
from .reporting import ARMS, ROWS, SERIES, YES_NO, Table, flatten, pivot
from .scenarios import (ADAPTIVE_SCENARIO, ALL_SCENARIOS,
                        ASYNC_REFRESH_SCENARIO, CACHE_SERVER_COUNT,
                        EXPIRY_SCENARIO,
                        INVALIDATE_SCENARIO, LEASED_SCENARIO, NO_CACHE,
                        SCENARIO_STRATEGIES, Scenario, ScenarioConfig,
                        UPDATE_SCENARIO)

# ---------------------------------------------------------------------------
# The rig
# ---------------------------------------------------------------------------

#: Default per-experiment scale: small enough for seconds-long runs, large
#: enough that the dataset exceeds the scaled buffer pool.
DEFAULT_SEED_SCALE = SeedScale(users=250, unique_bookmarks=150,
                               max_instances_per_bookmark=10,
                               max_friends_per_user=28,
                               max_pending_invitations_per_user=3,
                               max_wall_posts_per_user=5)

DEFAULT_WORKLOAD = WorkloadConfig(clients=15, sessions_per_client=2,
                                  page_loads_per_session=10)

#: Warm-up workload replayed (unrecorded) before measuring, as in §5.4.
DEFAULT_WARMUP = WorkloadConfig(clients=8, sessions_per_client=1,
                                page_loads_per_session=6, seed=777)


@dataclass
class ScenarioRun:
    """One scenario's replay + simulation results, read out before teardown."""

    scenario: str
    config: ScenarioConfig
    replay: ReplayResult
    metrics: RunMetrics
    cache_hit_ratio: float = 0.0
    cache_stats: Dict[str, float] = field(default_factory=dict)
    effort: Dict[str, int] = field(default_factory=dict)
    #: Aggregated per-cached-object counters (db_fallbacks, stale_served, ...).
    object_totals: Dict[str, float] = field(default_factory=dict)
    #: Cumulative client-side counters at replay end (:func:`client_totals`).
    client_totals: Dict[str, float] = field(default_factory=dict)
    #: Batched CAS flushes that gave up and invalidated instead.
    cas_fallbacks: int = 0
    #: Cost-model database demand (CPU + disk, simulated ms) of the measured
    #: replay: prices *all* database work at the paper-calibrated rates —
    #: fallback queries, background recomputes, per-write trigger machinery.
    db_time_ms: float = 0.0
    #: Replay engine configuration (1 worker = the serial inline path).
    workers: int = 1
    policy: str = ROUND_ROBIN

    @property
    def throughput(self) -> float:
        return self.metrics.throughput

    @property
    def mean_latency(self) -> float:
        return self.metrics.mean_latency


def client_totals(scenario: Scenario) -> Dict[str, float]:
    """Cumulative cache-tier counters at one instant of a replay: both
    clients' hits, misses and node-down refusals from the shared cost
    recorder, gutter traffic from the gutter pool, and the cached objects'
    stale serves (empty for NoCache)."""
    genie = scenario.genie
    if genie is None:
        return {}
    total, gutter = genie.recorder.total, genie.app_cache.gutter
    return {
        "hits": float(total.cache_hits),
        "misses": float(total.cache_misses),
        "gutter_hits": float(gutter.hits if gutter else 0),
        "gutter_misses": float(gutter.misses if gutter else 0),
        "node_down_errors": float(total.cache_node_down),
        "stale_served": genie.stats.totals().as_dict().get("stale_served", 0.0),
    }


def run_scenario(
    config: ScenarioConfig,
    workload: WorkloadConfig = DEFAULT_WORKLOAD,
    warmup: Optional[WorkloadConfig] = DEFAULT_WARMUP,
    clients: Optional[int] = None,
    workers: int = 1,
    policy: str = ROUND_ROBIN,
    seed: int = 0,
    arrival_model: Optional[Callable[[int], float]] = None,
    faults: Optional[Callable[[Scenario, object], object]] = None,
    tracers: Optional[List[object]] = None,
) -> ScenarioRun:
    """Build a scenario, warm it, replay the workload against it, simulate it.

    The one rig every experiment cell goes through.  Every replay runs on
    the one concurrent engine; ``workers=1`` (the default) is its inline
    serial path, ``workers > 1`` interleaves the trace across worker
    contexts under a seeded scheduler ``policy``.  Warm-up always replays
    serially and unrecorded — it models the quiet cache-filling phase before
    the measured clients arrive.  ``arrival_model`` replaces the constant
    page interval with a time-varying shape; ``faults(scenario, trace)``
    builds a :class:`~repro.cluster.FaultInjector` from the live, warmed
    scenario just before the measured replay.  With a ``tracers`` list, a
    :class:`repro.obs.Tracer` on the scenario clock records the measured
    replay and joins the list (zero-perturbation: the run is the untraced
    run bit for bit).
    """
    scenario = Scenario(config).setup()
    try:
        engine = dict(genie=scenario.genie, clock=scenario.clock,
                      page_interval_seconds=config.page_interval_seconds)
        user_ids = list(range(1, config.seed_scale.users + 1))
        if warmup is not None:
            ConcurrentReplayer(scenario.app, scenario.database, workers=1,
                               **engine).replay(
                WorkloadGenerator(warmup, user_ids).generate(), record=False)
        trace = WorkloadGenerator(workload, user_ids).generate()
        tracer = None
        if tracers is not None:
            from ..obs import Tracer
            tracer = Tracer(clock=scenario.clock)
            tracers.append(tracer)
        replay = ConcurrentReplayer(
            scenario.app, scenario.database, workers=workers, policy=policy,
            seed=seed, arrival_model=arrival_model, tracer=tracer,
            fault_injector=faults(scenario, trace) if faults else None,
            **engine).replay(trace)
        metrics = simulate_population(replay, clients=clients or workload.clients)
        genie = scenario.genie
        demand = scenario.database.cost_model.demand(replay.total_counters)
        return ScenarioRun(
            scenario=config.name,
            config=config,
            replay=replay,
            metrics=metrics,
            cache_hit_ratio=scenario.cache_hit_ratio(),
            cache_stats=scenario.cache_stats(),
            effort=genie.effort_report() if genie else {},
            object_totals=genie.stats.totals().as_dict() if genie else {},
            client_totals=client_totals(scenario),
            cas_fallbacks=genie.trigger_op_queue.cas_fallbacks if genie else 0,
            db_time_ms=demand.db_cpu_ms + demand.db_disk_ms,
            workers=workers,
            policy=policy,
        )
    finally:
        scenario.teardown()


def measure(run: ScenarioRun) -> Dict[str, object]:
    """Flatten a run into the plain-data row the tables and checks read.

    Scalars sit at the top level; the replay's cost counters, the cached
    objects' totals and the server-side cache statistics are nested under
    ``counters`` / ``objects`` / ``cache`` (table columns address them with
    dotted keys).  Rows cross process boundaries under ``--jobs``.
    """
    counters = run.replay.total_counters
    strategy = run.config.strategy
    return {
        "strategy": strategy.name if strategy else "-",
        "serves_stale": strategy.serves_stale if strategy else False,
        "triggers": run.effort.get("generated_triggers", 0),
        "throughput": run.throughput,
        "mean_latency": run.mean_latency,
        "p95_latency": run.metrics.latency_percentile(0.95),
        "hit_ratio": run.cache_hit_ratio,
        "round_trips": counters.cache_round_trips,
        # Round trips of the *trigger* (propagation) path alone: batch_ops
        # also batches the application's reads, so the total conflates two
        # effects.
        "trigger_round_trips": (counters.trigger_cache_batches
                                + counters.trigger_cache_overlapped_batches),
        "cache_net_ms": run.replay.mean_demand().cache_net_ms,
        "db_time_ms": run.db_time_ms,
        "cas_fallbacks": run.cas_fallbacks,
        "tracked_keys": len(run.replay.key_telemetry),
        "signature": run.replay.schedule_signature,
        "counters": counters.as_dict(),
        "objects": dict(run.object_totals),
        "cache": dict(run.cache_stats),
    }


def _scenario_config(name: str, **overrides) -> ScenarioConfig:
    config = ScenarioConfig(name=name, seed_scale=DEFAULT_SEED_SCALE)
    return config.variant(**overrides) if overrides else config


# ---------------------------------------------------------------------------
# The sweep spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Axis:
    """One parameter of an experiment: what it sweeps by default, what
    ``--quick`` sweeps, and the CLI option that overrides both."""

    #: Key of the value in every point and row, and the ``run_sweep`` keyword.
    name: str
    #: The full sweep; a one-value axis is a fixed parameter.
    values: Tuple
    #: The ``--quick`` sweep (None: the same as ``values``).
    quick: Optional[Tuple] = None
    #: CLI option string (None: not on the command line).
    flag: Optional[str] = None
    type: Callable = str
    choices: Optional[Sequence] = None
    help: str = ""
    #: The option takes one value, not a list.
    scalar: bool = False
    #: The option is a choice of named value lists (``--batch-ops both``).
    presets: Optional[Dict[str, Tuple]] = None
    #: False: every cell receives the whole value list (exp1 simulates all
    #: client counts from one replay) instead of one cell per value.
    crossed: bool = True

    @property
    def dest(self) -> str:
        """The attribute argparse stores the option under."""
        return self.flag.lstrip("-").replace("-", "_")


class Sizing(NamedTuple):
    """What one cell seeds, warms with and replays."""

    workload: WorkloadConfig = DEFAULT_WORKLOAD
    warmup: Optional[WorkloadConfig] = DEFAULT_WARMUP
    seed_scale: SeedScale = DEFAULT_SEED_SCALE
    #: The list the tracers of a traced cell's replays join (None: untraced).
    tracers: Optional[List[object]] = None


@dataclass(frozen=True)
class Check:
    """The ``--check`` assertion of a smoke job."""

    problems: Callable[["SweepResult"], List[str]]
    help: str
    failed: str     # banner above the problem list
    passed: str     # line appended to a passing report


@dataclass(frozen=True)
class Experiment:
    """One declarative sweep: a CLI subcommand, its axes, cell and tables."""

    name: str
    help: str
    axes: Tuple[Axis, ...]
    #: ``cell(point, sizing)`` replays one point through :func:`run_scenario`
    #: and returns its row (:func:`measured` wraps a point-to-rig-arguments
    #: mapping; a few experiments project more out of the run).
    cell: Callable[[Dict[str, object], Sizing], Dict[str, object]]
    tables: Tuple[Table, ...]
    full: Sizing = Sizing()
    #: Sizing under ``--quick`` (None: the experiment has no quick mode).
    quick: Optional[Sizing] = None
    quick_help: str = "tiny seed and short trace — the CI smoke configuration"
    #: ``points(values)``: the cells to run, for sweeps that are not the
    #: plain cross product of their axes.  Points carrying an ``aux`` label
    #: are auxiliary runs kept out of the tables (``SweepResult.aux``).
    points: Optional[Callable[[Dict[str, Tuple]], List[Dict[str, object]]]] = None
    #: Lines printed under the tables.
    footer: Optional[Callable[["SweepResult"], List[str]]] = None
    check: Optional[Check] = None
    #: Whether the subcommand takes ``--jobs``.
    parallel: bool = False


#: Version of the sweep document (:meth:`SweepResult.to_json`).  Schema 3:
#: the sweep is the only run document; schema 2's ``run_document``,
#: ``replay_result`` and ``run_metrics`` kinds are gone.
RUN_JSON_SCHEMA = 3


class ReplayTrace(NamedTuple):
    """One traced replay of a sweep: its lane's name, its Chrome trace
    events (:func:`repro.obs.chrome_trace_events`) and its flame rows
    (:meth:`repro.obs.Tracer.flame`)."""

    label: str
    events: List[Dict[str, object]]
    flame: List[Dict[str, object]]


@dataclass
class SweepResult:
    """The rows of one sweep, in cell submission order."""

    experiment: Experiment
    #: Resolved values of every axis.
    axes: Dict[str, Tuple]
    rows: List[Dict[str, object]]
    #: Rows of the auxiliary cells (reference runs, determinism reruns).
    aux: List[Dict[str, object]] = field(default_factory=list)
    quick: bool = False
    #: Whether the report applies the experiment's :class:`Check`.
    check: bool = False
    #: The replays of a traced sweep, in replay order; not in the document.
    traces: List[ReplayTrace] = field(default_factory=list)

    def where(self, **match) -> List[Dict[str, object]]:
        return [row for row in self.rows
                if all(row[key] == value for key, value in match.items())]

    def one(self, **match) -> Dict[str, object]:
        (row,) = self.where(**match)
        return row

    def series(self, key: str, x: str,
               explode: Optional[str] = None) -> Dict[object, List[object]]:
        """``scenario -> [row[key] along x]``, the data of one figure."""
        rows = flatten(self.rows, explode) if explode else self.rows
        xs, arms, cells = pivot(rows, x, "scenario")
        return {a: [cells[value, a][key] for value in xs] for a in arms}

    def problems(self) -> List[str]:
        """The failures of the experiment's check, if the run applies it."""
        return self.experiment.check.problems(self) if self.check else []

    def to_json(self) -> Dict[str, object]:
        """The versioned run document ``python -m repro.bench report``
        renders back as the command's text."""
        return {"schema": RUN_JSON_SCHEMA, "kind": "sweep",
                "experiment": self.experiment.name, "quick": self.quick,
                "check": self.check,
                "axes": {name: list(values)
                         for name, values in self.axes.items()},
                "rows": self.rows, "aux": self.aux}

    @classmethod
    def from_json(cls, document: Dict[str, object]) -> "SweepResult":
        if (document.get("kind"), document.get("schema")) != (
                "sweep", RUN_JSON_SCHEMA):
            raise ValueError(
                f"not a schema {RUN_JSON_SCHEMA} sweep document: kind "
                f"{document.get('kind')!r}, schema {document.get('schema')!r}")
        return cls(EXPERIMENTS[document["experiment"]],
                   {name: tuple(values)
                    for name, values in document["axes"].items()},
                   rows=document["rows"], aux=document["aux"],
                   quick=document["quick"], check=document["check"])


def measured(plan: Callable[[Dict[str, object], Sizing], Dict[str, object]]):
    """The standard cell: ``plan(point, sizing)`` gives the
    :func:`run_scenario` arguments, the row is :func:`measure` of the run."""
    return lambda point, sizing: measure(run_scenario(**plan(point, sizing)))


def _cell_label(experiment: Experiment, point: Dict[str, object]) -> str:
    """The cell's swept values and aux label (``Update/2/adversarial``)."""
    parts = [str(point[axis.name]) for axis in experiment.axes
             if axis.crossed and not axis.scalar
             and point.get(axis.name) is not None]
    if point.get("aux"):
        parts.append(point["aux"])
    return "/".join(parts)


def _run_cell(name: str, point: Dict[str, object], sizing: Sizing,
              traced: bool):
    """One cell of a registered experiment: its row, and with ``traced``
    the Chrome events and flame rows of each replay it made.  Top level,
    taking and returning only plain data, so :func:`run_cells` can ship it
    to a worker process."""
    from ..obs import chrome_trace_events
    tracers = [] if traced else None
    row = {**point, **EXPERIMENTS[name].cell(
        point, sizing._replace(tracers=tracers))}
    return row, [(chrome_trace_events(tracer), tracer.flame())
                 for tracer in tracers or ()]


def cross(values: Dict[str, Tuple], axes: Sequence[Axis]) -> List[Dict[str, object]]:
    """The cross product of the crossed axes, first axis outermost."""
    crossed = [axis.name for axis in axes if axis.crossed]
    whole = {axis.name: values[axis.name] for axis in axes if not axis.crossed}
    return [{**whole, **dict(zip(crossed, combo))}
            for combo in itertools.product(*(values[name] for name in crossed))]


def run_sweep(experiment: Union[str, Experiment], quick: bool = False,
              jobs: int = 1, workload: Optional[WorkloadConfig] = None,
              check: bool = False, traced: bool = False,
              **chosen) -> SweepResult:
    """Run one experiment: resolve its axes, replay every cell, collect rows.

    ``chosen`` overrides axes by name (a list for a swept axis, one value for
    a fixed parameter); anything left out takes the axis's full values, or
    its quick values under ``quick=True``, which also switches to the
    experiment's quick :class:`Sizing`.  ``workload`` replaces the measured
    workload.  ``jobs`` fans the independent cells out over processes;
    results merge in submission order, byte-identical to ``jobs=1`` (the
    contract of :mod:`repro.sim.parallel`).  ``check`` records that the
    report applies the experiment's check; ``traced`` traces every replay
    into :attr:`SweepResult.traces`, which leaves the rows as they are.
    """
    if isinstance(experiment, str):
        experiment = EXPERIMENTS[experiment]
    if quick and experiment.quick is None:
        raise ValueError(f"{experiment.name} has no quick mode")
    if check and experiment.check is None:
        raise ValueError(f"{experiment.name} has no check")
    values: Dict[str, Tuple] = {}
    for axis in experiment.axes:
        value = chosen.pop(axis.name, None)
        if value is None:
            value = axis.quick if quick and axis.quick is not None else axis.values
        elif axis.scalar:
            value = (value,)
        values[axis.name] = tuple(value)
    if chosen:
        raise TypeError(f"{experiment.name} has no axis {sorted(chosen)}")
    sizing = experiment.quick if quick else experiment.full
    if workload is not None:
        sizing = sizing._replace(workload=workload)
    points = (experiment.points(values) if experiment.points
              else cross(values, experiment.axes))
    cells = run_cells(_run_cell,
                      [(experiment.name, {**point, "quick": quick}, sizing,
                        traced) for point in points], jobs=jobs)
    rows, traces, replays = [], [], {}
    for point, (row, cell_traces) in zip(points, cells):
        rows.append(row)
        label = _cell_label(experiment, point)
        for events, flame in cell_traces:
            # A cell that replays twice, or a repeated cell, numbers its
            # later lanes: each lane's name is unique.
            replays[label] = count = replays.get(label, 0) + 1
            traces.append(ReplayTrace(
                f"{label} #{count}" if count > 1 else label, events, flame))
    return SweepResult(experiment, values,
                       rows=[row for row in rows if not row.get("aux")],
                       aux=[row for row in rows if row.get("aux")],
                       quick=quick, check=check, traces=traces)


def _paper_plan(point, sizing, workload=None, **overrides):
    """Rig arguments of experiments 1-5 and the batching ablations: the
    scenario name's default strategy on a frozen clock."""
    return dict(config=_scenario_config(point["scenario"],
                                        seed_scale=sizing.seed_scale,
                                        **overrides),
                workload=workload or sizing.workload, warmup=sizing.warmup,
                tracers=sizing.tracers)


def _scenario_axis(values, **kwargs) -> Axis:
    return Axis("scenario", tuple(values), choices=tuple(values), **kwargs)


def _throughput_figure(title: str, x_label: str, x: str, x_format: str = "{}",
                       **kwargs) -> Table:
    """A figure of throughput against the ``x`` axis, one series per scenario."""
    return Table(title, SERIES, ((x_label, x, x_format),
                                 ("req/s", "throughput", "{:.1f}")), **kwargs)


_THROUGHPUT = ("Throughput (req/s)", "throughput", "{:.1f}")
_HIT_RATIO = ("Cache hit ratio", "hit_ratio", "{:.0%}")

# ---------------------------------------------------------------------------
# Experiment 1 — throughput and latency vs number of clients (Fig 2a, 2b, Tab 2)
# ---------------------------------------------------------------------------

#: Scenario set of the concurrent exp1 sweep: the classic lineup plus leased
#: invalidation, the strategy whose lease windows actually contend (without
#: it the closed-loop path could never report ``lease_contended``).
EXP1_CONCURRENT_SCENARIOS = tuple(ALL_SCENARIOS) + (LEASED_SCENARIO,)

#: Contention counters reported per run (from the replay's cost counters).
CONTENTION_COUNTERS = ("cas_multi_mismatch", "cas_retry_rounds",
                       "lease_contended")

#: Hot-key variant of the wall/top-k workload: the same short sessions, but a
#: heavier write share and stronger zipf skew, so a handful of hot users'
#: walls/counters are invalidated and re-read over and over — the pattern
#: where plain invalidation thrashes and leases earn their keep.
HOT_KEY_WORKLOAD = WorkloadConfig(
    clients=8, sessions_per_client=3, page_loads_per_session=5,
    page_mix={"LookupBM": 45.0, "LookupFBM": 15.0,
              "CreateBM": 25.0, "AcceptFR": 15.0},
    zipf_parameter=2.6)

#: The quick contention/cluster trace: six clients, two short sessions each.
QUICK_HOT_KEY_WORKLOAD = HOT_KEY_WORKLOAD.with_overrides(
    clients=6, sessions_per_client=2, page_loads_per_session=4)


def _exp1_points(values):
    """One cell per scenario; above one worker the default lineup gains the
    lease-window contender."""
    if values["workers"][0] > 1 and values["scenario"] == tuple(ALL_SCENARIOS):
        values = {**values, "scenario": EXP1_CONCURRENT_SCENARIOS}
    return cross(values, EXP1.axes)


def _exp1_cell(point, sizing):
    """Replay once at the largest population, simulate the client sweep."""
    counts = point["clients"]
    # Table 2 is the paper's 15-client latency breakdown; a quick sweep
    # that stops short of 15 reports it at its largest population.
    table2_clients = min(15, max(counts)) if point["quick"] else 15
    population = max(max(counts), table2_clients)
    run = run_scenario(
        **_paper_plan(point, sizing,
                      workload=sizing.workload.with_overrides(clients=population)),
        clients=population, workers=point["workers"], policy=point["policy"],
        seed=point["seed"])
    sweep = []
    for count in counts:
        metrics = simulate_population(run.replay, clients=count)
        sweep.append({"clients": count, "throughput": metrics.throughput,
                      "mean_latency": metrics.mean_latency})
    table2 = simulate_population(run.replay, clients=table2_clients)
    return {**measure(run), "sweep": sweep, "table2_clients": table2_clients,
            "latency_by_page": table2.latency_by_page()}


def speedup_over_nocache(result: SweepResult, scenario: str) -> float:
    """exp1: throughput ratio over NoCache at the paper's 15 clients
    (Figure 2a), which the sweep must include."""
    series = result.series("throughput", x="clients", explode="sweep")
    index = result.axes["clients"].index(15)
    base = series[NO_CACHE][index]
    return series[scenario][index] / base if base else 0.0


def max_counter(rows: Sequence[Dict[str, object]], name: str) -> int:
    """Largest value of one cost counter across ``rows``."""
    return max((row["counters"][name] for row in rows), default=0)


def check_exp1_contended(result: SweepResult) -> List[str]:
    """A multi-worker exp1 sweep must measure demands that really contended
    — every contention counter fires in some scenario's replay.  Returns the
    failures (empty = the concurrent path still feeds the simulation)."""
    workers = result.axes["workers"][0]
    if workers < 2:
        return ["exp1 --check needs --workers >= 2 "
                "(one worker is the serial path and never contends)"]
    return [f"{name} stayed 0 across every exp1 scenario at {workers} workers "
            f"— the closed-loop simulation is not consuming a contended "
            f"schedule"
            for name in CONTENTION_COUNTERS
            if max_counter(result.rows, name) <= 0]


_CONTENTION_COLUMNS = (
    ("CAS mismatch", "counters.cas_multi_mismatch", "{}"),
    ("Retry rounds", "counters.cas_retry_rounds", "{}"),
    ("Lease contended", "counters.lease_contended", "{}"))

EXP1 = Experiment(
    name="exp1",
    help="Figure 2a/2b + Table 2 (clients sweep)",
    axes=(
        _scenario_axis(ALL_SCENARIOS),
        Axis("clients", (1, 5, 10, 15, 25, 40), quick=(1, 6), flag="--clients",
             type=int, crossed=False,
             help="client counts to sweep (default: 1 5 10 15 25 40, "
                  "or 1 6 with --quick)"),
        Axis("workers", (1,), flag="--workers", type=int, scalar=True,
             help="replay engine workers (default: 1 = the serial path; above "
                  "1 the measured demands come from a real interleaving and "
                  "the lineup gains the LeasedInvalidate scenario)"),
        Axis("policy", (ROUND_ROBIN,), flag="--policy", scalar=True,
             choices=ALL_POLICIES,
             help="interleave policy at >= 2 workers (default: %(default)s)"),
        Axis("seed", (0,), flag="--seed", type=int, scalar=True,
             help="scheduler seed: a fixed seed reproduces the interleaving "
                  "bit for bit (default: %(default)s)"),
    ),
    cell=_exp1_cell,
    # Quick: short sessions, tiny seed, a hot-key zipf skew and the
    # write-heavy hot-key page mix — a trace this small only contends (CAS
    # swaps, lease claims) when the few clients keep writing the same keys.
    quick=Sizing(
        workload=DEFAULT_WORKLOAD.with_overrides(
            sessions_per_client=2, page_loads_per_session=4,
            zipf_parameter=2.6, page_mix=dict(HOT_KEY_WORKLOAD.page_mix)),
        warmup=None, seed_scale=SeedScale.tiny()),
    points=_exp1_points,
    tables=(
        _throughput_figure(
            "Figure 2a — page-load throughput vs number of clients",
            "clients", "clients", explode="sweep"),
        Table("Figure 2b — page-load latency vs number of clients", SERIES,
              (("clients", "clients", "{}"), ("s", "mean_latency", "{:.1f}")),
              explode="sweep"),
        Table("Table 2 — average latency by page type "
              "({table2_clients} clients)", ARMS,
              lambda rows: [(page, f"latency_by_page.{page}", "{:.3f} s")
                            for page in sorted({page for row in rows
                                                for page in row["latency_by_page"]})],
              corner="Page type"),
        Table("Replay engine — {workers} workers, {policy} policy, seed {seed} "
              "(closed-loop simulation consumes the schedule)", ROWS,
              (("Scenario", "scenario", "{}"),) + _CONTENTION_COLUMNS
              + (("Schedule", "signature", "{}"),),
              when=lambda rows: rows[0]["workers"] > 1),
    ),
    check=Check(
        check_exp1_contended,
        help="exit nonzero unless the contention counters fire in the "
             "closed-loop metrics (needs --workers >= 2)",
        failed="CONTENTION CHECK FAILED",
        passed="Contention check passed: the closed-loop sweep consumed a "
               "contended schedule."),
    parallel=True,
)

# ---------------------------------------------------------------------------
# Experiments 2-5 — read/write mix (Fig 3a), zipf (3b), cache size (3c),
# trigger overhead
# ---------------------------------------------------------------------------

EXP2 = Experiment(
    name="exp2",
    help="Figure 3a (read/write mix sweep)",
    axes=(Axis("read_fraction", (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
               flag="--read-fractions", type=float),
          _scenario_axis(ALL_SCENARIOS)),
    cell=measured(lambda point, sizing: _paper_plan(
        point, sizing,
        workload=sizing.workload.with_read_fraction(point["read_fraction"]))),
    tables=(_throughput_figure(
        "Figure 3a — throughput vs percentage of read pages",
        "read pages", "read_fraction", "{:.0%}"),),
)

EXP3 = Experiment(
    name="exp3",
    help="Figure 3b (zipf parameter sweep)",
    axes=(Axis("zipf", (1.2, 1.4, 1.6, 1.8, 2.0), flag="--zipf", type=float),
          _scenario_axis(ALL_SCENARIOS)),
    cell=measured(lambda point, sizing: _paper_plan(
        point, sizing,
        workload=sizing.workload.with_overrides(zipf_parameter=point["zipf"]))),
    tables=(_throughput_figure("Figure 3b — throughput vs zipf parameter",
                               "zipf a", "zipf"),),
)


def skew_gain(result: SweepResult, scenario: str) -> float:
    """exp3: throughput at the most skewed point over the least skewed."""
    series = result.series("throughput", x="zipf")[scenario]
    return series[0] / series[-1] if series[-1] else 0.0


def plateau_size(result: SweepResult, scenario: str) -> int:
    """exp4: smallest cache size (KB) whose throughput is within 5 % of the
    scenario's best."""
    series = result.series("throughput", x="cache_kb")[scenario]
    sizes = result.axes["cache_kb"]
    for size, value in zip(sizes, series):
        if value >= max(series) * 0.95:
            return size
    return sizes[-1]


EXP4 = Experiment(
    name="exp4",
    help="Figure 3c (cache size sweep)",
    axes=(Axis("cache_kb", (16, 32, 64, 128, 256, 512), flag="--cache-kb",
               type=int),
          _scenario_axis((UPDATE_SCENARIO, INVALIDATE_SCENARIO))),
    cell=measured(lambda point, sizing: _paper_plan(
        point, sizing,
        **({"cache_size_bytes": point["cache_kb"] * 1024}
           if point["cache_kb"] else {}))),
    # The cached scenarios at every size, plus one NoCache reference run.
    points=lambda values: cross(values, EXP4.axes) + [
        {"cache_kb": None, "scenario": NO_CACHE, "aux": "nocache-reference"}],
    tables=(_throughput_figure("Figure 3c — throughput vs cache size",
                               "cache size", "cache_kb", "{} KB"),),
    footer=lambda result: [f"NoCache reference throughput: "
                           f"{result.aux[0]['throughput']:.1f} req/s"],
)


def _exp5_cell(point, sizing):
    """The scenario as built, then the "ideal system": the same queries with
    triggers removed — the cache is never updated (reads may return stale
    data), which bounds what a zero-overhead consistency mechanism could
    achieve."""
    real = run_scenario(**_paper_plan(point, sizing)).throughput
    ideal = run_scenario(**_paper_plan(point, sizing,
                                       triggers_enabled=False)).throughput
    return {"with_triggers": real, "ideal": ideal,
            "overhead": 1.0 - real / ideal if ideal else 0.0}


EXP5 = Experiment(
    name="exp5",
    help="Experiment 5 (trigger overhead)",
    axes=(_scenario_axis((UPDATE_SCENARIO, INVALIDATE_SCENARIO)),),
    cell=_exp5_cell,
    tables=(Table("Experiment 5 — trigger overhead on the full workload", ROWS,
                  (("Scenario", "scenario", "{}"),
                   ("With triggers (req/s)", "with_triggers", "{:.1f}"),
                   ("Ideal, no triggers (req/s)", "ideal", "{:.1f}"),
                   ("Trigger overhead", "overhead", "{:.0%}"))),),
)

# ---------------------------------------------------------------------------
# Batching ablation (`exp-batch`) — the multi-key protocol, the commit-time
# trigger-op flush, and pipelined server batches
# ---------------------------------------------------------------------------

#: Mode names of the batching ablation, in column order: the legacy per-key
#: protocol (``--batch-ops off``: the trigger-op queue flushed per operation,
#: reads one key per round trip), the commit-time flush with serial
#: per-server batches, and the default (batched, server batches pipelined).
UNBATCHED = "Unbatched"
SERIAL = "Serial"
BATCHED = "Batched"

ALL_BATCH_MODES = (UNBATCHED, SERIAL, BATCHED)

#: Scenario knobs of each ablation mode.
MODE_CONFIGS: Dict[str, Dict[str, bool]] = {
    UNBATCHED: {"batch_ops": False, "pipeline_batches": False},
    SERIAL: {"batch_ops": True, "pipeline_batches": False},
    BATCHED: {"batch_ops": True, "pipeline_batches": True},
}

#: Wall/Top-K-heavy workload for the batching ablation: short sessions mean
#: frequent Login pages (the wall Top-K plus the full header), and the
#: LookupBM-leaning mix keeps the latest-bookmarks Top-K and the count badges
#: hot — the paths the multi-key protocol converts to one round trip each.
WALL_TOPK_WORKLOAD = WorkloadConfig(
    clients=8, sessions_per_client=3, page_loads_per_session=5,
    page_mix={"LookupBM": 55.0, "LookupFBM": 25.0,
              "CreateBM": 10.0, "AcceptFR": 10.0})

_mode_cell = measured(lambda point, sizing: _paper_plan(
    point, sizing, **MODE_CONFIGS[point["mode"]]))


def _ratio(result: SweepResult, key: str, over: str, under: str) -> float:
    under_value = result.one(mode=under)[key]
    return result.one(mode=over)[key] / under_value if under_value else 0.0


def round_trip_reduction(result: SweepResult, key: str = "round_trips",
                         mode: str = BATCHED) -> float:
    """How many times fewer round trips ``mode`` performs than the per-key
    protocol (``key="trigger_round_trips"`` isolates the propagation path)."""
    return _ratio(result, key, UNBATCHED, mode)


def _batching_footer(result: SweepResult) -> List[str]:
    modes = result.axes["mode"]
    lines = []
    if UNBATCHED in modes and BATCHED in modes:
        lines += [f"Round-trip reduction: {round_trip_reduction(result):.1f}x "
                  f"fewer cache round trips with batching",
                  f"Throughput speedup:   "
                  f"{_ratio(result, 'throughput', BATCHED, UNBATCHED):.2f}x"]
    if UNBATCHED in modes and SERIAL in modes:
        reduction = round_trip_reduction(result, "trigger_round_trips",
                                         SERIAL)
        lines += [f"Trigger-path reduction: {reduction:.1f}x fewer "
                  f"propagation round trips with the commit-time flush",
                  "(the TOTAL row additionally includes the app-side read "
                  "batching that batch_ops enables)"]
    if SERIAL in modes and BATCHED in modes:
        gain = _ratio(result, "cache_net_ms", SERIAL, BATCHED)
        lines.append(f"Pipelining gain:      {gain:.2f}x less cache-network "
                     f"time per page vs serial batches")
    return lines


#: The ablation replays the wall/top-k workload three ways: the legacy
#: per-key protocol (each trigger's queue flushed per operation: one
#: ``gets_multi`` + one ``cas_multi`` round trip per key, and one read
#: round trip per query), the batched protocol with the commit-time flush
#: and serial per-server batches, and the default, whose per-server batches
#: are pipelined (overlapping batches charge no additional network latency).
EXP_BATCH = Experiment(
    name="exp-batch",
    help="Batching ablation: multi-key cache protocol, commit-time "
         "trigger-op coalescing and pipelined server batches on the "
         "wall/top-k workload",
    axes=(
        Axis("mode", ALL_BATCH_MODES, flag="--batch-ops",
             presets={"on": (BATCHED,), "off": (UNBATCHED,),
                      "both": ALL_BATCH_MODES},
             help="run with the batched protocol on (the scenario default, "
                  "server batches pipelined), off (the legacy per-key "
                  "protocol), or both, which adds the batched column with "
                  "serial server batches (compares recorded cache round "
                  "trips, cache-network time and throughput; default: both)"),
        Axis("scenario", (UPDATE_SCENARIO,), flag="--scenario", scalar=True,
             choices=(UPDATE_SCENARIO, INVALIDATE_SCENARIO),
             help="cached scenario to ablate (default: Update)"),
    ),
    cell=_mode_cell,
    full=Sizing(workload=WALL_TOPK_WORKLOAD),
    # Round trips: a call counts one per server batch it sends, whatever the
    # batch's size (a single-key call is a batch of one); pipelined-overlapped
    # batches are counted on their own rows and in the TOTAL.
    tables=(Table(
        "Batching ablation — {scenario} scenario, wall/top-k workload", ARMS,
        (("Get round trips (1/server batch)", "counters.cache_multi_gets", "{}"),
         ("Set round trips (1/server batch)", "counters.cache_multi_sets", "{}"),
         ("Delete round trips (1/server batch)",
          "counters.cache_multi_deletes", "{}"),
         ("App batches overlapped (pipelined)",
          "counters.cache_overlapped_batches", "{}"),
         ("Trigger round trips (1/server batch)",
          "counters.trigger_cache_batches", "{}"),
         ("Trigger batches overlapped (pipelined)",
          "counters.trigger_cache_overlapped_batches", "{}"),
         ("Trigger connections opened", "counters.trigger_connections", "{}"),
         ("CAS mismatches (keys retried)",
          "counters.cas_multi_mismatch", "{}"),
         ("Server CAS swaps won", "cache.cas_ok", "{:.0f}"),
         ("Server CAS stale tokens", "cache.cas_mismatch", "{:.0f}"),
         ("Server CAS on vanished keys", "cache.cas_miss", "{:.0f}"),
         ("Trigger-path round trips", "trigger_round_trips", "{}"),
         ("TOTAL round trips", "round_trips", "{}"),
         ("Cache-network ms per page", "cache_net_ms", "{:.3f}"),
         _THROUGHPUT, _HIT_RATIO),
        arm="mode", corner="Cache-network event"),),
    footer=_batching_footer,
)

# ---------------------------------------------------------------------------
# Consistency-strategy ablation (`exp-strategies`)
# ---------------------------------------------------------------------------

#: Scenario names of the strategy ablation, in report order: the paper's two
#: triggered strategies, the two new registry strategies, and classic expiry.
STRATEGY_ABLATION_SCENARIOS = (UPDATE_SCENARIO, INVALIDATE_SCENARIO,
                               LEASED_SCENARIO, ASYNC_REFRESH_SCENARIO,
                               EXPIRY_SCENARIO)

#: Virtual seconds per page load during the ablation replay: time must pass
#: for TTLs, lease windows, and freshness deadlines to mean anything.
STRATEGY_PAGE_INTERVAL = 0.25

#: Freshness window of the TTL-based strategies in the ablation (seconds of
#: virtual time = a few pages' worth of staleness).
STRATEGY_WINDOW_SECONDS = 2.0

#: Lease window of leased invalidation: the per-key token rate limit bounds
#: every hot key to at most one recompute per window, however many writes
#: and readers hit it — wider than the hot keys' write-burst interval, which
#: is precisely what plain invalidation cannot exploit.
STRATEGY_LEASE_SECONDS = 4.0

#: Adaptive band thresholds for the ablations' virtual-time scale (pages
#: arrive ~:data:`STRATEGY_PAGE_INTERVAL` apart at baseline, several times
#: faster during the flash crowd's burst).
ADAPTIVE_HOT_RATE = 4.0
ADAPTIVE_DWELL_SECONDS = 2.0
ADAPTIVE_HALF_LIFE_SECONDS = 4.0
#: Write share promoting a hot key to the write-heavy (async-refresh) band.
#: The ablation replays single-worker, so lease contention never fires and
#: the herd band stays empty by construction — the sweep exercises the
#: cold <-> write-heavy axis, where the flash crowd moves the needle.
ADAPTIVE_WRITE_SHARE = 0.3


def _ablation_strategy(scenario: str):
    """The strategy instance a given ablation scenario runs with.

    The triggered strategies are the registered singletons; the time-based
    ones get instances tuned to the ablation's virtual-time scale so their
    windows span a handful of page loads; the adaptive arm gets delegates
    tuned identically to the static arms, so any win comes from *selection*,
    not from different windows.
    """
    from ..core import (AsyncRefreshStrategy, ExpiryStrategy,
                        LeasedInvalidateStrategy, resolve_strategy)
    if scenario == LEASED_SCENARIO:
        return LeasedInvalidateStrategy(lease_seconds=STRATEGY_LEASE_SECONDS)
    if scenario == ASYNC_REFRESH_SCENARIO:
        return AsyncRefreshStrategy(refresh_seconds=STRATEGY_WINDOW_SECONDS)
    if scenario == EXPIRY_SCENARIO:
        return ExpiryStrategy(default_ttl=STRATEGY_WINDOW_SECONDS)
    if scenario == ADAPTIVE_SCENARIO:
        from ..adaptive import AdaptiveStrategy
        return AdaptiveStrategy(
            hot_rate_threshold=ADAPTIVE_HOT_RATE,
            write_share_threshold=ADAPTIVE_WRITE_SHARE,
            min_dwell_seconds=ADAPTIVE_DWELL_SECONDS,
            half_life_seconds=ADAPTIVE_HALF_LIFE_SECONDS,
            leased=_ablation_strategy(LEASED_SCENARIO),
            async_refresh=_ablation_strategy(ASYNC_REFRESH_SCENARIO))
    default = SCENARIO_STRATEGIES[scenario]
    # NoCache maps to None: no strategy object (don't fall back to the
    # resolve_strategy() default, which would mislabel the cacheless run).
    return resolve_strategy(default) if default is not None else None


def ablation_config(scenario: str, seed_scale: SeedScale,
                    **overrides) -> ScenarioConfig:
    """A strategy-ablation scenario: the tuned strategy instance, and the
    virtual clock advancing :data:`STRATEGY_PAGE_INTERVAL` per page so
    windows elapse."""
    overrides.setdefault("strategy", _ablation_strategy(scenario))
    return ScenarioConfig(name=scenario, seed_scale=seed_scale,
                          page_interval_seconds=STRATEGY_PAGE_INTERVAL,
                          **overrides)


def _ablation_plan(point, sizing):
    """Rig arguments of the strategy ablations, with the engine settings
    the point carries."""
    plan = dict(config=ablation_config(point["scenario"], sizing.seed_scale),
                workload=sizing.workload, warmup=sizing.warmup,
                tracers=sizing.tracers)
    plan.update({key: point[key] for key in ("workers", "policy", "seed")
                 if key in point})
    return plan


def blocking_db_work(row: Dict[str, object]) -> float:
    """Reads that blocked on the database plus recomputes performed."""
    return (row["objects"].get("db_fallbacks", 0.0)
            + row["objects"].get("recomputations", 0.0))


def lease_gain_over_invalidate(result: SweepResult) -> float:
    """How many times less DB recompute work leased invalidation does.

    ``inf`` when leases eliminated every recompute/fallback that plain
    invalidation paid (a zero denominator is the *best* outcome, not a zero
    gain); 0.0 only when neither strategy did any DB work.
    """
    leased = blocking_db_work(result.one(scenario=LEASED_SCENARIO))
    invalidate = blocking_db_work(result.one(scenario=INVALIDATE_SCENARIO))
    if not leased:
        return float("inf") if invalidate else 0.0
    return invalidate / leased


def _strategies_footer(result: SweepResult) -> List[str]:
    scenarios = result.axes["scenario"]
    if LEASED_SCENARIO not in scenarios or INVALIDATE_SCENARIO not in scenarios:
        return []
    invalidate = result.one(scenario=INVALIDATE_SCENARIO)
    leased = result.one(scenario=LEASED_SCENARIO)
    invalidate_blocking = invalidate["objects"].get("db_fallbacks", 0.0)
    leased_blocking = leased["objects"].get("db_fallbacks", 0.0)
    if leased_blocking:
        blocking_text = (f"{invalidate_blocking / leased_blocking:.1f}x "
                         f"fewer reads stall on the database")
    else:
        blocking_text = "leases eliminated every database stall"
    gain = lease_gain_over_invalidate(result)
    if gain == float("inf"):
        gain_text = "leases eliminated all database work"
    else:
        gain_text = f"{gain:.2f}x less database work"
    return [f"Leased invalidation vs plain invalidation: "
            f"{leased_blocking:.0f} blocking DB fallbacks vs "
            f"{invalidate_blocking:.0f} ({blocking_text}), and "
            f"{blocking_db_work(leased):.0f} total DB recomputes+fallbacks vs "
            f"{blocking_db_work(invalidate):.0f} ({gain_text}; stale reads "
            f"bounded by the lease window)"]


#: Every scenario replays the identical hot-key trace with a different
#: :class:`~repro.core.ConsistencyStrategy` object on the config.
EXP_STRATEGIES = Experiment(
    name="exp-strategies",
    help="Consistency-strategy ablation: all five strategies (incl. leased "
         "invalidation and async-refresh) on the hot-key wall/top-k workload",
    axes=(_scenario_axis(
        STRATEGY_ABLATION_SCENARIOS, flag="--strategies",
        help="subset of strategy scenarios to run (default: all five)"),),
    cell=measured(_ablation_plan),
    full=Sizing(workload=HOT_KEY_WORKLOAD),
    quick=Sizing(workload=HOT_KEY_WORKLOAD.with_overrides(
        clients=4, sessions_per_client=1, page_loads_per_session=4),
        seed_scale=SeedScale.tiny()),
    tables=(Table(
        "Consistency-strategy ablation — hot-key wall/top-k workload", ARMS,
        (("Strategy object", "strategy", "{}"),
         ("May serve stale data", "serves_stale", YES_NO),
         ("Triggers installed", "triggers", "{}"),
         ("Blocking DB fallbacks (reads)", "objects.db_fallbacks", "{:.0f}"),
         ("Recomputations (background/trigger)", "objects.recomputations",
          "{:.0f}"),
         ("Stale values served", "objects.stale_served", "{:.0f}"),
         ("Invalidations", "objects.invalidations", "{:.0f}"),
         ("In-place updates applied", "objects.updates_applied", "{:.0f}"),
         ("TOTAL cache round trips", "round_trips", "{}"),
         _THROUGHPUT, _HIT_RATIO)),),
    footer=_strategies_footer,
)

# ---------------------------------------------------------------------------
# Adaptive-strategy ablation (`exp-adaptive`) — per-key bands vs static picks
# ---------------------------------------------------------------------------

#: Arms of the adaptive ablation, in report order: the static strategies a
#: band can delegate to (plus plain invalidation as the classic baseline),
#: then the adaptive strategy that picks among them per key.
ADAPTIVE_ABLATION_SCENARIOS = (UPDATE_SCENARIO, INVALIDATE_SCENARIO,
                               LEASED_SCENARIO, ASYNC_REFRESH_SCENARIO,
                               ADAPTIVE_SCENARIO)

#: Mixed hot/cold workload: the hot-key page mix, but with a *moderate* zipf
#: skew so a handful of hot users coexists with a genuinely cold tail — the
#: regime where no single static strategy fits every key (update-in-place is
#: right for the tail, leases/refresh for the heads).
MIXED_HOT_COLD_WORKLOAD = WorkloadConfig(
    clients=8, sessions_per_client=3, page_loads_per_session=5,
    page_mix={"LookupBM": 45.0, "LookupFBM": 15.0,
              "CreateBM": 25.0, "AcceptFR": 15.0},
    zipf_parameter=1.8)


def _adaptive_arrival(total_pages: int,
                      base_interval_seconds: float = STRATEGY_PAGE_INTERVAL,
                      ) -> FlashCrowdArrival:
    """The ablation's time-varying arrival shape, scaled to the trace.

    Baseline arrivals for the first quarter of the trace, then a flash
    crowd: an 8x arrival-rate burst decaying back to baseline over about a
    quarter of the trace — hot keys' decayed read rates spike (band
    promotion) and later settle (demotion + hysteresis).  Every arm replays
    under the same shape, so the comparison is apples to apples.
    """
    quarter = max(1, total_pages // 4)
    return FlashCrowdArrival(
        base_interval_seconds=base_interval_seconds,
        burst_start=quarter, burst_factor=8.0,
        recovery_pages=max(8, quarter))


def _adaptive_plan(point, sizing):
    workload = sizing.workload
    # Quick mode stretches the baseline interval 3x so the 72-page trace
    # still spans several async-refresh hard TTLs — otherwise no envelope
    # ever expires and the short trace cannot tell the arms apart.
    arrival = _adaptive_arrival(
        workload.clients * workload.sessions_per_client
        * workload.page_loads_per_session,
        base_interval_seconds=(3.0 if point["quick"] else 1.0)
        * STRATEGY_PAGE_INTERVAL)
    return dict(_ablation_plan(point, sizing), arrival_model=arrival)


def dominating_arms(result: SweepResult) -> List[str]:
    """Static arms strictly better than adaptive on BOTH axes of the
    (blocking fallbacks, total DB work) frontier, DB work being cost-model
    DB milliseconds.  Empty = adaptive is on the Pareto frontier (meets or
    beats every static pick)."""
    adaptive = result.one(scenario=ADAPTIVE_SCENARIO)
    fallbacks, db_work = adaptive["objects"]["db_fallbacks"], adaptive["db_time_ms"]
    return [row["scenario"] for row in result.rows
            if row is not adaptive
            and row["objects"]["db_fallbacks"] <= fallbacks
            and row["db_time_ms"] <= db_work
            and (row["objects"]["db_fallbacks"] < fallbacks
                 or row["db_time_ms"] < db_work)]


def check_adaptive(result: SweepResult) -> List[str]:
    """Assertions of the CI smoke job.  Returns the failures (empty = the
    subsystem still adapts and still pays off)."""
    if not result.where(scenario=ADAPTIVE_SCENARIO):
        return ["no Adaptive arm in the sweep"]
    problems = []
    if result.one(scenario=ADAPTIVE_SCENARIO)["counters"]["band_switches"] <= 0:
        problems.append(
            "band_switches stayed 0 — the adaptive strategy never "
            "reclassified a key on the flash-crowd workload")
    problems += [f"{arm} strictly dominates Adaptive on the (blocking "
                 f"fallbacks, total DB work) frontier — adaptive selection "
                 f"is losing to a static pick"
                 for arm in dominating_arms(result)]
    return problems


def _adaptive_footer(result: SweepResult) -> List[str]:
    if not result.where(scenario=ADAPTIVE_SCENARIO):
        return []
    dominating = dominating_arms(result)
    if dominating:
        return [f"Pareto: {', '.join(dominating)} strictly dominate(s) "
                f"Adaptive on the (blocking fallbacks, total DB work) "
                f"frontier."]
    adaptive = result.one(scenario=ADAPTIVE_SCENARIO)
    return [f"Pareto: Adaptive ({adaptive['objects']['db_fallbacks']:.0f} "
            f"fallbacks, {adaptive['db_time_ms']:.1f} DB ms) is on the "
            f"(blocking fallbacks, total DB work) frontier — no static "
            f"strategy beats it on both axes "
            f"({adaptive['counters']['band_switches']} band switches, "
            f"{adaptive['counters']['adaptive_migrations']} migrations)."]


#: Every arm replays the identical trace under the identical time-varying
#: arrival model; only the consistency strategy differs.
EXP_ADAPTIVE = Experiment(
    name="exp-adaptive",
    help="Adaptive-strategy ablation: telemetry-driven per-key band "
         "selection vs every static strategy on a mixed hot/cold workload "
         "under a flash-crowd arrival shape",
    axes=(_scenario_axis(ADAPTIVE_ABLATION_SCENARIOS, flag="--strategies",
                         help="subset of arms to run (default: all five)"),),
    cell=measured(_adaptive_plan),
    full=Sizing(workload=MIXED_HOT_COLD_WORKLOAD),
    # Six pages per session (72 total) is the smallest trace whose flash
    # crowd pushes a key over the write-share band threshold — below that
    # the adaptive arm never switches and the check is vacuous.  The warmup
    # stays (shrunk): without it async-refresh never pays its
    # envelope-expiry fallbacks and the quick frontier degenerates.
    quick=Sizing(
        workload=MIXED_HOT_COLD_WORKLOAD.with_overrides(
            clients=6, sessions_per_client=2, page_loads_per_session=6),
        warmup=DEFAULT_WARMUP.with_overrides(clients=6, page_loads_per_session=4),
        seed_scale=SeedScale.tiny()),
    tables=(Table(
        "Adaptive-strategy ablation — mixed hot/cold workload under a "
        "flash-crowd arrival shape", ROWS,
        (("Scenario", "scenario", "{}"), ("Strategy", "strategy", "{}"),
         ("Fallbacks", "objects.db_fallbacks", "{:.0f}"),
         ("Recomputes", "objects.recomputations", "{:.0f}"),
         ("DB ms", "db_time_ms", "{:.1f}"),
         ("Stale", "objects.stale_served", "{:.0f}"),
         ("Invalid.", "objects.invalidations", "{:.0f}"),
         ("Updates", "objects.updates_applied", "{:.0f}"),
         ("Switches", "counters.band_switches", "{}"),
         ("Migrations", "counters.adaptive_migrations", "{}"),
         ("Keys", "tracked_keys", "{}"), ("Round trips", "round_trips", "{}"),
         ("Tput (req/s)", "throughput", "{:.1f}"),
         ("Hit ratio", "hit_ratio", "{:.0%}"),
         ("Schedule", "signature", "{}"))),),
    footer=_adaptive_footer,
    check=Check(
        check_adaptive,
        help="exit nonzero unless bands switched and adaptive sits on the "
             "(blocking fallbacks, total DB work) Pareto frontier",
        failed="ADAPTIVE CHECK FAILED",
        passed="Adaptive check passed: bands switched and adaptive sits on "
               "the (fallbacks, DB work) Pareto frontier."),
    parallel=True,
)

# ---------------------------------------------------------------------------
# Contention ablation (`exp-contention`) — concurrent workers vs serial replay
# ---------------------------------------------------------------------------

#: Strategies the contention ablation sweeps: the CAS-propagating headline
#: strategy, plain invalidation (the herd victim), and leased invalidation
#: (the herd fix — its windows are what contention actually contends).
CONTENTION_SCENARIOS = (UPDATE_SCENARIO, INVALIDATE_SCENARIO, LEASED_SCENARIO)

#: Worker counts swept (1 = the serial-equivalent baseline).
CONTENTION_WORKERS = (1, 2, 4)

#: Interleave policies swept at every worker count above 1.  Pinned to the
#: classic trio — ``key-overlap`` joined ``ALL_POLICIES`` later and can be
#: selected explicitly (``--policies key-overlap``) without silently
#: reshaping the committed default sweep.
CONTENTION_POLICIES = (ROUND_ROBIN, RANDOM, ADVERSARIAL)

#: Scheduler seed of the committed runs (any fixed seed is bit-reproducible).
CONTENTION_SEED = 0


def contended(row: Dict[str, object]) -> bool:
    """Did any contention counter fire in this run?"""
    return (any(row["counters"][name] > 0 for name in CONTENTION_COUNTERS)
            or row["cache"].get("herd_size_max", 0) > 1)


def check_contended(result: SweepResult) -> List[str]:
    """Every contention counter must fire somewhere at two or more workers.
    Returns the failures (empty = the subsystem still interleaves)."""
    multi = [row for row in result.rows if row["workers"] >= 2]
    return [f"{name} stayed 0 across every run with >= 2 workers "
            f"— the concurrent replay no longer contends"
            for name in CONTENTION_COUNTERS if max_counter(multi, name) <= 0]


def _contention_footer(result: SweepResult) -> List[str]:
    multi = [row for row in result.rows if row["workers"] >= 2]
    lines = [
        "One worker is the serial-equivalent baseline: every contention "
        "counter must be 0 there.",
        f"Peak contention at >= 2 workers: "
        f"{max_counter(multi, 'cas_multi_mismatch')} CAS mismatches, "
        f"{max_counter(multi, 'cas_retry_rounds')} flush retry rounds, "
        f"{max_counter(multi, 'lease_contended')} lease-contended reads."]
    update_rows = [row for row in multi if row["scenario"] == UPDATE_SCENARIO]
    if update_rows and not any(contended(row) for row in update_rows):
        lines.append("WARNING: no Update-strategy run contended — the replay "
                     "is degenerating to serial behavior.")
    return lines


def _contention_points(values):
    """One worker is the serial-equivalent baseline: the policy is
    irrelevant, so it runs once, as round-robin."""
    points = []
    for point in cross(values, EXP_CONTENTION.axes):
        if point["workers"] > 1:
            points.append(point)
        elif point["policy"] == values["policy"][0]:
            points.append({**point, "policy": ROUND_ROBIN})
    return points


#: Every cell replays the identical trace through the concurrent engine;
#: only the interleaving differs.  Multi-worker cells are where
#: ``cas_multi_mismatch``/``cas_retry_rounds`` (Update) and
#: ``lease_contended``/``herd_size_max`` (LeasedInvalidate) come alive —
#: most reliably under the ``adversarial`` policy, which parks CAS-token
#: holders while other workers rewrite their keys.
EXP_CONTENTION = Experiment(
    name="exp-contention",
    help="Contention ablation: N concurrent worker contexts interleaved by "
         "a seeded scheduler on the hot-key wall/top-k workload — CAS "
         "mismatches/retry rounds and lease contention vs worker count, "
         "interleave policy, and strategy",
    axes=(
        Axis("scenario", CONTENTION_SCENARIOS,
             quick=(UPDATE_SCENARIO, LEASED_SCENARIO), flag="--strategies",
             choices=CONTENTION_SCENARIOS,
             help="subset of strategy scenarios to sweep (default: all three)"),
        Axis("workers", CONTENTION_WORKERS, quick=(1, 2), flag="--workers",
             type=int,
             help="worker counts to sweep (default: 1 2 4; 1 = serial baseline)"),
        Axis("policy", CONTENTION_POLICIES, quick=(ADVERSARIAL,),
             flag="--policies", choices=ALL_POLICIES,
             help="interleave policies to sweep at >= 2 workers (default: "
                  "round-robin random adversarial; key-overlap is opt-in)"),
        Axis("seed", (CONTENTION_SEED,), flag="--seed", type=int, scalar=True,
             help="scheduler seed: a fixed seed reproduces the interleaving "
                  "bit for bit (default: %(default)s)"),
    ),
    cell=measured(_ablation_plan),
    full=Sizing(workload=HOT_KEY_WORKLOAD),
    quick=Sizing(workload=QUICK_HOT_KEY_WORKLOAD, warmup=None,
                 seed_scale=SeedScale.tiny()),
    quick_help="tiny seed, short trace, adversarial policy only — the CI "
               "smoke configuration",
    points=_contention_points,
    tables=(Table(
        "Contention ablation — concurrent workers on the hot-key wall/top-k "
        "workload", ROWS,
        (("Strategy", "scenario", "{}"), ("Workers", "workers", "{}"),
         ("Policy", "policy", "{}")) + _CONTENTION_COLUMNS
        + (("Herd max", "cache.herd_size_max", "{:.0f}"),
           ("Stale served", "objects.stale_served", "{:.0f}"),
           ("DB fallbacks", "objects.db_fallbacks", "{:.0f}"),
           ("Round trips", "round_trips", "{}"),
           ("Tput (req/s)", "throughput", "{:.1f}"),
           ("Schedule", "signature", "{}"))),),
    footer=_contention_footer,
    check=Check(
        check_contended,
        help="exit nonzero unless every contention counter fires at >= 2 "
             "workers (guards against the subsystem regressing to serial)",
        failed="CONTENTION CHECK FAILED",
        passed="Contention check passed: all contention counters fire at "
               ">= 2 workers."),
    parallel=True,
)


# ---------------------------------------------------------------------------
# Cluster-dynamics ablation (`exp-cluster`) — faults, membership, gutter pool
# ---------------------------------------------------------------------------

#: Strategies the cluster ablation sweeps: the CAS-propagating headline
#: strategy (whose tokens die with a node) and leased invalidation (whose
#: lease holders can die mid-claim).
CLUSTER_SCENARIOS = (UPDATE_SCENARIO, LEASED_SCENARIO)

#: Fault cases swept per strategy.
CLUSTER_SCALE_OUT = "scale-out"            # a cold node joins mid-replay
CLUSTER_NODE_KILL = "node-kill"            # one node dies, gutter pool on
CLUSTER_NODE_KILL_NOGUTTER = "node-kill-nogutter"  # same death, no fallback
CLUSTER_FAULT_CASES = (CLUSTER_SCALE_OUT, CLUSTER_NODE_KILL,
                       CLUSTER_NODE_KILL_NOGUTTER)

#: When faults land, as fractions of the measured replay's virtual duration.
CLUSTER_KILL_AT = 0.30
CLUSTER_REVIVE_AT = 0.65
CLUSTER_JOIN_AT = 0.50

#: The node the kill cases crash (scenarios build ``cache0``/``cache1``).
CLUSTER_VICTIM = "cache1"

#: Gutter entry TTL in virtual seconds — a handful of page loads at
#: :data:`STRATEGY_PAGE_INTERVAL`, and the staleness bound of gutter serves.
CLUSTER_GUTTER_TTL = 2.0


class _ClusterFaults:
    """One cluster cell's fault schedule, built from the live scenario.

    Passed to :func:`run_scenario` as ``faults``: called after warm-up, it
    assembles the gutter pool and controller, schedules the case's faults as
    fractions of the measured replay's virtual duration, and probes the
    client-side counters at every segment boundary.
    """

    def __init__(self, fault_case: str) -> None:
        self.fault_case = fault_case
        self.gutter_enabled = fault_case != CLUSTER_NODE_KILL_NOGUTTER
        self.samples: List[Dict[str, float]] = []

    def __call__(self, scenario: Scenario, trace):
        from ..cluster import (ClusterController, FaultEvent, FaultInjector,
                               FaultSchedule, GutterPool)
        config = scenario.config
        per_server = max(1, config.cache_size_bytes // CACHE_SERVER_COUNT)
        gutter = None
        if self.gutter_enabled:
            gutter = GutterPool(
                [CacheServer("gutter0", capacity_bytes=per_server,
                             clock=scenario.clock)],
                ttl_seconds=CLUSTER_GUTTER_TTL)
        self.controller = ClusterController(
            clients=[scenario.genie.app_cache, scenario.genie.trigger_cache],
            servers=scenario.cache_servers,
            clock=scenario.clock, gutter=gutter, genie=scenario.genie)
        self.pages = trace.total_page_loads
        t0 = scenario.clock.now()
        duration = self.pages * config.page_interval_seconds
        if self.fault_case == CLUSTER_SCALE_OUT:
            joiner = CacheServer(f"cache{CACHE_SERVER_COUNT}",
                                 capacity_bytes=per_server, clock=scenario.clock)
            self.boundaries = [("pre-fault", CLUSTER_JOIN_AT)]
            self.tail_label = "scaled-out"
            events = [FaultEvent(at=t0 + CLUSTER_JOIN_AT * duration,
                                 action="join", server=joiner)]
        else:
            self.boundaries = [("pre-fault", CLUSTER_KILL_AT),
                               ("degraded", CLUSTER_REVIVE_AT)]
            self.tail_label = "recovered"
            events = [FaultEvent(at=t0 + CLUSTER_KILL_AT * duration,
                                 action="kill", node=CLUSTER_VICTIM),
                      FaultEvent(at=t0 + CLUSTER_REVIVE_AT * duration,
                                 action="revive", node=CLUSTER_VICTIM)]
        injector = FaultInjector(self.controller, FaultSchedule(events))
        self.samples.append(client_totals(scenario))
        for _label, fraction in self.boundaries:
            injector.schedule_probe(
                t0 + fraction * duration,
                lambda: self.samples.append(client_totals(scenario)))
        return injector

    def trajectory(self, run: ScenarioRun, clients: int) -> Dict[str, object]:
        """The per-segment trajectory from consecutive snapshots, plus the
        fleet-level costs.  Segment boundaries land at fault times; page i
        completes once the clock has advanced (i+1) intervals past the
        start, so a boundary at fraction f covers the first floor(f * pages)
        pages."""
        samples = self.samples + [run.client_totals]
        cuts = [int(fraction * self.pages) for _, fraction in self.boundaries]
        labels = [label for label, _ in self.boundaries] + [self.tail_label]
        segments = []
        for label, start, end, before, after in zip(
                labels, [0] + cuts, cuts + [self.pages], samples, samples[1:]):
            pages = run.replay.pages[start:end]
            counters = CostCounters()
            for page in pages:
                counters.add(page.counters)
            metrics = simulate_population(
                ReplayResult(pages=list(pages), total_counters=counters),
                clients=clients)
            delta = {name: after[name] - before[name] for name in after}
            reads = delta["hits"] + delta["misses"]
            segments.append({
                "label": label,
                "pages": len(pages),
                "hit_ratio": delta["hits"] / reads if reads else 0.0,
                "throughput": metrics.throughput,
                "gutter_hits": int(delta["gutter_hits"]),
                "gutter_misses": int(delta["gutter_misses"]),
                "gutter": f"{delta['gutter_hits']:.0f}/"
                          f"{delta['gutter_misses']:.0f}",
                "node_down_errors": int(delta["node_down_errors"]),
                "stale_served": delta["stale_served"],
            })
        whole = {name: samples[-1][name] - samples[0][name]
                 for name in samples[0]}
        reads = whole["hits"] + whole["misses"]
        return {
            "gutter_enabled": self.gutter_enabled,
            "segments": segments,
            "events": [{"at": round(e.at, 3), "action": e.action,
                        "node": e.node, "details": dict(e.details)}
                       for e in self.controller.events],
            "fleet": self.controller.counters(),
            # Whole-run, client-side, measured replay only (the row's
            # ``hit_ratio`` is the cached objects' and includes warm-up).
            "client_hit_ratio": whole["hits"] / reads if reads else 0.0,
            "stale_served": whole["stale_served"],
        }


def _cluster_cell(point, sizing):
    """Replay one (strategy, fault case) cell with a live fault schedule."""
    faults = _ClusterFaults(point["fault_case"])
    run = run_scenario(**_ablation_plan(point, sizing), faults=faults)
    return {**measure(run),
            **faults.trajectory(run, sizing.workload.clients)}


def determinism_fingerprints(result: SweepResult) -> List[Dict[str, object]]:
    """What the two Update/node-kill reruns must agree on bit for bit."""
    return [{"schedule_signature": row["signature"],
             "hit_ratio": round(row["client_hit_ratio"], 12),
             "gutter_hits": row["fleet"].get("gutter_hits", 0),
             "node_down_errors": [segment["node_down_errors"]
                                  for segment in row["segments"]]}
            for row in result.aux]


def _segment(row: Dict[str, object], label: str) -> Optional[Dict[str, object]]:
    return next((s for s in row["segments"] if s["label"] == label), None)


def check_cluster(result: SweepResult) -> List[str]:
    """Assertions of the CI smoke job.  Returns failures (empty = pass)."""
    problems: List[str] = []
    gutter_hits = max((row["fleet"].get("gutter_hits", 0)
                       for row in result.rows if row["gutter_enabled"]),
                      default=0)
    if gutter_hits <= 0:
        problems.append(
            "gutter_hits stayed 0 across every gutter-enabled run — "
            "dead-node reads are not reaching the fallback pool")
    for row in result.rows:
        if row["fault_case"] == CLUSTER_SCALE_OUT:
            continue
        cell = f"{row['scenario']}/{row['fault_case']}"
        pre, degraded = _segment(row, "pre-fault"), _segment(row, "degraded")
        if pre is None or degraded is None:
            problems.append(f"{cell}: missing trajectory segments")
            continue
        if degraded["hit_ratio"] >= pre["hit_ratio"]:
            problems.append(
                f"{cell}: hit ratio did not dip after the kill "
                f"({pre['hit_ratio']:.3f} -> {degraded['hit_ratio']:.3f})")
        if not row["serves_stale"] and row["stale_served"] > 0:
            problems.append(
                f"{cell}: {row['stale_served']:g} stale serves under a "
                f"strategy that promises none")
    first, second = determinism_fingerprints(result)
    if first != second:
        problems.append(f"fault replay is not deterministic under a fixed "
                        f"seed: {first} != {second}")
    return problems


def _cluster_footer(result: SweepResult) -> List[str]:
    lines = ["Fleet-level costs per run:"]
    for row in result.rows:
        fleet = row["fleet"]
        if row["fault_case"] == CLUSTER_SCALE_OUT:
            parts = [f"{fleet.get('keys_remapped', 0)} keys remapped to the "
                     f"cold joiner"]
        else:
            parts = [f"{fleet.get('post_revival_invalidations', 0)} entries "
                     f"lost to the restart",
                     f"{fleet['orphaned_claims_dropped']} orphaned refresh "
                     f"claims dropped"]
        if row["gutter_enabled"]:
            parts.append(f"gutter {fleet.get('gutter_hits', 0)} hits / "
                         f"{fleet.get('gutter_misses', 0)} misses / "
                         f"{fleet.get('gutter_deletes', 0)} forwarded deletes")
        else:
            parts.append("no gutter pool")
        lines.append(f"  {row['scenario']}/{row['fault_case']}: "
                     + ", ".join(parts))
    first, second = determinism_fingerprints(result)
    return lines + [
        "",
        f"Determinism: two Update/node-kill replays fingerprint "
        f"{'identically' if first == second else 'DIFFERENTLY'} "
        f"(schedule {first['schedule_signature']})."]


#: Every cell replays the identical trace with a declarative
#: :class:`~repro.cluster.FaultSchedule` firing on the virtual clock:
#: ``scale-out`` joins a cold node halfway through, the two kill cases crash
#: ``cache1`` 30% in and revive it (empty) at 65%, with and without the
#: gutter pool.
EXP_CLUSTER = Experiment(
    name="exp-cluster",
    help="Cluster-dynamics ablation: mid-replay node kill/revive/join on the "
         "simulated clock, with and without the gutter-pool fallback — "
         "hit-ratio/throughput trajectory per strategy",
    axes=(
        _scenario_axis(CLUSTER_SCENARIOS, flag="--strategies",
                       help="subset of strategy scenarios to sweep "
                            "(default: both)"),
        Axis("fault_case", CLUSTER_FAULT_CASES,
             quick=(CLUSTER_NODE_KILL, CLUSTER_NODE_KILL_NOGUTTER),
             flag="--fault-cases", choices=CLUSTER_FAULT_CASES,
             help="subset of fault cases to run (default: scale-out "
                  "node-kill node-kill-nogutter; --quick keeps the two kill "
                  "cases)"),
    ),
    cell=_cluster_cell,
    full=Sizing(workload=HOT_KEY_WORKLOAD),
    quick=Sizing(
        workload=QUICK_HOT_KEY_WORKLOAD,
        warmup=DEFAULT_WARMUP.with_overrides(clients=4, page_loads_per_session=4),
        seed_scale=SeedScale.tiny()),
    quick_help="tiny seed, short trace, kill cases only — the CI smoke "
               "configuration",
    # Determinism probes ride the same cell list: the same cell replayed
    # twice must fingerprint identically (schedule signature and every
    # trajectory number).
    points=lambda values: cross(values, EXP_CLUSTER.axes) + [
        {"scenario": UPDATE_SCENARIO, "fault_case": CLUSTER_NODE_KILL,
         "aux": "determinism"}] * 2,
    tables=(Table(
        "Cluster-dynamics ablation — faults fired mid-replay on the virtual "
        "clock", ROWS,
        (("Strategy", "scenario", "{}"), ("Fault case", "fault_case", "{}"),
         ("Segment", "label", "{}"), ("Pages", "pages", "{}"),
         ("Hit ratio", "hit_ratio", "{:.3f}"),
         ("Tput (pages/s)", "throughput", "{:.1f}"),
         ("Gutter h/m", "gutter", "{}"),
         ("Node-down", "node_down_errors", "{}"),
         ("Stale served", "stale_served", "{:.0f}")),
        explode="segments"),),
    footer=_cluster_footer,
    check=Check(
        check_cluster,
        help="exit nonzero unless the gutter pool absorbed hits, every "
             "node-kill produced a degraded-segment dip, and two seeded runs "
             "agree bit for bit",
        failed="CLUSTER CHECK FAILED",
        passed="Cluster check passed: gutter hits fired, every kill dipped "
               "the degraded segment, and the run is deterministic under the "
               "fixed seed."),
    parallel=True,
)

#: Every sweep, by CLI subcommand, in ``--help`` order.
EXPERIMENTS: Dict[str, Experiment] = {
    experiment.name: experiment
    for experiment in (EXP1, EXP2, EXP3, EXP4, EXP5, EXP_BATCH,
                       EXP_STRATEGIES, EXP_CONTENTION, EXP_CLUSTER,
                       EXP_ADAPTIVE)}

# ---------------------------------------------------------------------------
# Microbenchmarks (§5.3)
# ---------------------------------------------------------------------------

@dataclass
class MicroLookupResult:
    db_lookup_ms: float
    cache_lookup_ms: float

    @property
    def ratio(self) -> float:
        return self.db_lookup_ms / self.cache_lookup_ms if self.cache_lookup_ms else 0.0


def micro_lookup(rows: int = 2000, lookups: int = 200) -> MicroLookupResult:
    """§5.3: B+Tree point lookups vs memcached gets (paper: 10–25× slower).

    The database side models realistic row widths against a buffer pool that
    does not hold the whole table, so a fraction of lookups pays for a page
    read — which is what separates a database lookup from a cache get once
    the statement, index-walk, and materialization overheads are included.
    """
    recorder = Recorder()
    database = Database(name="micro", buffer_pool_pages=64, recorder=recorder)
    schema = TableSchema(
        "kv",
        [ColumnDef("id", "integer", nullable=True), ColumnDef("payload", "text")],
        indexes=[IndexDef("kv_payload_idx", ("payload",))],
    )
    database.create_table(schema)
    for i in range(rows):
        database.insert("kv", {"id": i + 1, "payload": f"value-{i}-" * 40})

    server = CacheServer("micro-cache", capacity_bytes=32 * 1024 * 1024)
    client = CacheClient([server], recorder=recorder)
    for i in range(rows):
        client.set(f"kv:{i + 1}", f"value-{i}-" * 40)

    cost_model = database.cost_model
    with database.measure() as db_counters:
        for i in range(lookups):
            database.get_by_pk("kv", (i * 7) % rows + 1)
    db_ms = cost_model.demand(db_counters).total_ms / lookups

    with database.measure() as cache_counters:
        for i in range(lookups):
            client.get(f"kv:{(i * 7) % rows + 1}")
    cache_ms = cost_model.demand(cache_counters).total_ms / lookups
    return MicroLookupResult(db_lookup_ms=db_ms, cache_lookup_ms=cache_ms)


@dataclass
class MicroTriggerResult:
    plain_insert_ms: float
    noop_trigger_insert_ms: float
    cache_trigger_insert_ms: float
    per_cache_op_ms: float

    @property
    def noop_overhead_ms(self) -> float:
        return self.noop_trigger_insert_ms - self.plain_insert_ms

    @property
    def connection_overhead_ms(self) -> float:
        return self.cache_trigger_insert_ms - self.plain_insert_ms


def micro_trigger(inserts: int = 100) -> MicroTriggerResult:
    """§5.3: INSERT latency without / with a no-op trigger / with a cache trigger."""
    def build_db() -> Database:
        database = Database(name="micro-trigger", buffer_pool_pages=256)
        database.create_table(TableSchema(
            "t", [ColumnDef("id", "integer", nullable=True), ColumnDef("v", "text")]))
        return database

    # Plain INSERT.
    database = build_db()
    with database.measure() as counters:
        for i in range(inserts):
            database.insert("t", {"v": f"row{i}"})
    plain_ms = database.demand_of(counters).total_ms / inserts

    # INSERT with a no-op trigger.
    database = build_db()
    database.create_trigger("noop", "t", "insert", lambda data: None)
    with database.measure() as counters:
        for i in range(inserts):
            database.insert("t", {"v": f"row{i}"})
    noop_ms = database.demand_of(counters).total_ms / inserts

    # INSERT with a trigger that opens a memcached connection and issues ops.
    database = build_db()
    server = CacheServer("micro-trigger-cache", capacity_bytes=4 * 1024 * 1024)
    trigger_client = CacheClient([server], recorder=database.recorder,
                                 from_trigger=True)

    def cache_trigger(data: dict) -> None:
        trigger_client.reset_connection()
        trigger_client.set(f"t:{data['new']['id']}", data["new"]["v"])

    database.create_trigger("cache_sync", "t", "insert", cache_trigger)
    with database.measure() as counters:
        for i in range(inserts):
            database.insert("t", {"v": f"row{i}"})
    cache_ms = database.demand_of(counters).total_ms / inserts

    per_op = database.cost_model.trigger_cache_op_ms
    return MicroTriggerResult(
        plain_insert_ms=plain_ms,
        noop_trigger_insert_ms=noop_ms,
        cache_trigger_insert_ms=cache_ms,
        per_cache_op_ms=per_op,
    )


# ---------------------------------------------------------------------------
# Programmer effort (§5.2)
# ---------------------------------------------------------------------------

@dataclass
class EffortResult:
    cached_objects: int
    generated_triggers: int
    generated_trigger_lines: int
    application_lines_changed: int
    #: Declarations using the queryset-native cacheable(queryset) form.
    queryset_declarations: int = 0
    #: Declarations still on the legacy cacheable(cache_class_type=...) form.
    legacy_keyword_declarations: int = 0


def programmer_effort(scale: Optional[SeedScale] = None) -> EffortResult:
    """Reproduce §5.2's programmer-effort accounting for the ported app."""
    config = _scenario_config(UPDATE_SCENARIO,
                              seed_scale=scale or SeedScale.tiny())
    scenario = Scenario(config).setup()
    try:
        assert scenario.genie is not None
        report = scenario.genie.effort_report()
        # The application-side change is exactly the cacheable() declarations:
        # one call (= one logical line) per cached object, plus the import.
        lines_changed = report["cached_objects"] + 1
        return EffortResult(
            cached_objects=report["cached_objects"],
            generated_triggers=report["generated_triggers"],
            generated_trigger_lines=report["generated_trigger_lines"],
            application_lines_changed=lines_changed,
            queryset_declarations=report["queryset_declarations"],
            legacy_keyword_declarations=report["legacy_keyword_declarations"],
        )
    finally:
        scenario.teardown()
