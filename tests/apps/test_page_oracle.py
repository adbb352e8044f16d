"""The application cannot tell: one trace, replayed under NoCache and under
each consistency strategy, renders the same pages.

§3.1 promises that caching needs no change to the application, and §3 that
readers see no stale data under update-in-place and invalidation.  Both are
claims about what the *application* sees, so they are checked there, with
no reference implementation: one trace is replayed serially (workers=1)
under NoCache and under each arm, every page's :class:`PageResult` is
reduced to what it shows, and the arms are compared page by page, then
table by table.

**How values compare.**  A model instance and a row mapping (a cached
row's read-only view) are the same column dict.  A list compares in order
where its query orders, with the rows of one tie compared as a multiset,
and as a multiset where it does not order.  A fragment shown for a prefix
of a list (the save-count badges, a bookmark's details) may pick different
members of a tie or of an unordered list, so it compares as a mapping:
the same number of entries, agreeing wherever both arms show one; the list
it is taken from is compared in full.

**The arms.**  NoCache; every registered strategy; and update-in-place
with ``batch_ops=False`` (per-key cache protocol, eager triggers).  An arm
whose strategy does not serve stale data must render every page as NoCache
does and end with the same database.  The adaptive strategy may serve stale
data only after a key leaves the cold band, and with the clock frozen
between pages no key can dwell long enough to leave it, so an adaptive arm
that switched no band is held to the same contract.  The other
stale-serving arms report where they first diverge, how many pages diverged
and whether the database did; their report for the default trace is
pinned.

``AcceptFR`` can write one friendship edge twice, and the friend-bookmarks
join then returns each of that friend's bookmarks twice (first on page 134
of the default trace); a trigger-patched LinkQuery holds them twice too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adaptive import AdaptiveStrategy
from repro.apps.social import SeedScale
from repro.bench import DEFAULT_WORKLOAD
from repro.bench.scenarios import NO_CACHE, Scenario, ScenarioConfig
from repro.core.strategies import registered_strategies
from repro.orm.models import Model
from repro.sim.concurrent import ConcurrentReplayer
from repro.workload import WorkloadConfig, WorkloadGenerator

from tests.sqlmirror import bag, stored_rows

#: Fragments whose query orders, with the column it orders by.
ORDERED = {"wall": "date_posted", "latest": "added",
           "friend_bookmarks": "added"}
#: Fragments shown for a prefix of another list: how to key each entry
#: (as it compares).
PREFIX_KEYS = {"save_counts": lambda pair: pair[0],
               "bookmark_details": lambda row: dict(row)["id"]}


# -- what a page shows, compared ---------------------------------------------

def _row(value: Any) -> Tuple:
    if isinstance(value, Model):
        value = value.to_dict()
    return tuple(sorted(value.items()))


def _is_row(value: Any) -> bool:
    return isinstance(value, Model) or (
        isinstance(value, Mapping)
        and not any(isinstance(inner, (list, Mapping, Model))
                    for inner in value.values()))


class Prefix(dict):
    """A fragment shown for a prefix of a list: equal when both show as
    many entries and agree wherever both show one.  The entries are
    counted as shown, a repeated key each time: a tie the prefix cuts may
    hold one row twice (a join row behind a doubled edge), and which of
    its members the cut keeps decides how many distinct keys it shows."""

    def __init__(self, entries: List[Tuple[Any, Any]]) -> None:
        super().__init__(entries)
        self.shown = len(entries)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Prefix) and self.shown == other.shown
                and all(self[key] == other[key]
                        for key in self.keys() & other.keys()))

    def __ne__(self, other: object) -> bool:
        return not self == other


def canonical(value: Any, name: str = "") -> Any:
    """What ``value``, shown by fragment ``name``, compares as."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if _is_row(value):
        return _row(value)
    if isinstance(value, Mapping):
        return {key: canonical(inner, key) for key, inner in value.items()}
    if name in PREFIX_KEYS:
        key = PREFIX_KEYS[name]
        return Prefix([(key(entry), entry) for entry in map(canonical, value)])
    if isinstance(value, tuple):
        return tuple(canonical(inner) for inner in value)
    rows = [canonical(inner) for inner in value]
    column = ORDERED.get(name)
    if column is None:
        return sorted(rows, key=repr)
    runs: List[List[Any]] = []
    last = object()
    for entry, row in zip(value, rows):
        tie = entry[column] if not isinstance(entry, Model) else getattr(entry, column)
        if not runs or tie != last:
            runs.append([])
        runs[-1].append(row)
        last = tie
    return [sorted(run, key=repr) for run in runs]


@dataclass
class Replay:
    """One arm's replay: each page as it compares, and the final tables."""

    pages: List[Tuple[str, int, Dict[str, Any]]]
    tables: Dict[str, Counter]
    strategy: Any


def replay(config: ScenarioConfig, workload: WorkloadConfig) -> Replay:
    """Replay ``workload`` serially on a fresh stack built from ``config``."""
    scenario = Scenario(config).setup()
    try:
        app = scenario.app
        pages: List[Tuple[str, int, Dict[str, Any]]] = []
        render = app.render

        def recording(page: str, user_id: int):
            result = render(page, user_id)
            pages.append((result.page, result.user_id, canonical(result.shown)))
            return result
        app.render = recording
        trace = WorkloadGenerator(
            workload, range(1, config.seed_scale.users + 1)).generate()
        ConcurrentReplayer(app, scenario.database, genie=scenario.genie,
                           workers=1, clock=scenario.clock).replay(
            trace, record=False)
        database = scenario.database
        tables = {name: bag(stored_rows(database, name))
                  for name in database.table_names()}
        return Replay(pages, tables, config.strategy)
    finally:
        scenario.teardown()


def diverged(reference: Replay, arm: Replay) -> List[int]:
    """The pages (0-based) the arm rendered differently from the reference."""
    assert [page[:2] for page in arm.pages] == \
        [page[:2] for page in reference.pages]
    return [index for index, (ours, theirs)
            in enumerate(zip(reference.pages, arm.pages))
            if ours[2] != theirs[2]]


def held_to_contract(arm: Replay) -> bool:
    """Whether the arm may not serve stale data (see the module docstring)."""
    strategy = arm.strategy
    if isinstance(strategy, AdaptiveStrategy):
        return not strategy.switch_log
    return not strategy.serves_stale


def check_contract(reference: Replay, arm: Replay) -> None:
    """Fail unless the arm renders every page as the reference does and
    ends with the same tables."""
    pages = diverged(reference, arm)
    if pages:
        page, user, _shown = reference.pages[pages[0]]
        pytest.fail(f"page {pages[0]} ({page} for user {user}) diverged; "
                    f"{len(pages)} pages in all")
    assert arm.tables == reference.tables


# -- the default trace ---------------------------------------------------------

TINY = SeedScale.tiny()


def arm_configs() -> Dict[str, ScenarioConfig]:
    """Every arm but NoCache, by id."""
    arms = {name: ScenarioConfig(name=f"oracle {name}", strategy=strategy,
                                 seed_scale=TINY)
            for name, strategy in registered_strategies().items()}
    arms["update-in-place/unbatched"] = ScenarioConfig(
        name="oracle unbatched", strategy="update-in-place", batch_ops=False,
        seed_scale=TINY)
    return arms


ARMS = arm_configs()
STALE_ARMS = sorted(name for name, config in ARMS.items()
                    if config.strategy.serves_stale
                    and not isinstance(config.strategy, AdaptiveStrategy))
FRESH_ARMS = sorted(set(ARMS) - set(STALE_ARMS))

#: Each stale-serving arm on the default trace: its first divergent page,
#: how many of the 360 pages diverged, and whether the final database did.
STALE_REPORTS = {
    "async-refresh": (18, 309, True),
    "expiry": (18, 309, True),
    "leased-invalidate": (18, 254, True),
}


@pytest.fixture(scope="module")
def no_cache() -> Replay:
    return replay(ScenarioConfig(name=NO_CACHE, seed_scale=TINY),
                  DEFAULT_WORKLOAD)


@pytest.mark.parametrize("name", FRESH_ARMS)
def test_a_non_stale_arm_renders_every_page_as_no_cache(no_cache, name):
    arm = replay(ARMS[name], DEFAULT_WORKLOAD)
    assert held_to_contract(arm)
    check_contract(no_cache, arm)


@pytest.mark.parametrize("name", STALE_ARMS)
def test_a_stale_serving_arm_reports_its_divergence(no_cache, name):
    arm = replay(ARMS[name], DEFAULT_WORKLOAD)
    pages = diverged(no_cache, arm)
    report = (pages[0] if pages else None, len(pages),
              arm.tables != no_cache.tables)
    print(f"{name}: first divergent page {report[0]}, {report[1]} of "
          f"{len(arm.pages)} pages diverged, database diverged: {report[2]}")
    assert report == STALE_REPORTS[name]


# -- driven wide ---------------------------------------------------------------

#: Experiment 2's read fractions.
EXP2_READ_FRACTIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow],
          **({} if settings.get_current_profile_name() == "deep"
             else {"max_examples": 6}))
@given(seed=st.integers(0, 2 ** 16),
       read_fraction=st.sampled_from(EXP2_READ_FRACTIONS),
       zipf=st.sampled_from((1.5, 2.0, 3.0)))
def test_every_non_stale_arm_renders_any_trace_as_no_cache(seed, read_fraction,
                                                           zipf):
    workload = WorkloadConfig(
        clients=3, sessions_per_client=1, page_loads_per_session=8,
        zipf_parameter=zipf, seed=seed).with_read_fraction(read_fraction)
    reference = replay(ScenarioConfig(name=NO_CACHE, seed_scale=TINY), workload)
    for name in FRESH_ARMS:
        arm = replay(ARMS[name], workload)
        assert held_to_contract(arm)
        check_contract(reference, arm)


# -- the comparison itself ---------------------------------------------------------

class TestCanonical:
    def test_a_view_and_a_dict_are_the_same_row(self):
        from types import MappingProxyType
        assert canonical([MappingProxyType({"id": 1})]) == canonical([{"id": 1}])

    def test_an_unordered_list_is_a_multiset(self):
        assert canonical([{"id": 1}, {"id": 2}]) == canonical([{"id": 2}, {"id": 1}])
        assert canonical([{"id": 1}, {"id": 1}]) != canonical([{"id": 1}])

    def test_an_ordered_list_keeps_its_order_but_not_within_a_tie(self):
        a, b, c = ({"id": 1, "added": 5.0}, {"id": 2, "added": 5.0},
                   {"id": 3, "added": 4.0})
        assert canonical([a, b, c], "latest") == canonical([b, a, c], "latest")
        assert canonical([a, b, c], "latest") != canonical([c, a, b], "latest")

    def test_a_prefix_fragment_agrees_where_both_show_an_entry(self):
        assert canonical([(1, 4), (2, 3)], "save_counts") == \
            canonical([(1, 4), (5, 1)], "save_counts")
        assert canonical([(1, 4)], "save_counts") != \
            canonical([(1, 5)], "save_counts")
        assert canonical([(1, 4)], "save_counts") != \
            canonical([(1, 4), (2, 3)], "save_counts")

    def test_a_prefix_counts_a_repeated_entry_each_time_it_shows(self):
        # A tie of 1, 1, 2, 2 cut after two rows: either arm's order holds.
        assert canonical([(1, 4), (1, 4)], "save_counts") == \
            canonical([(1, 4), (2, 3)], "save_counts")
        assert canonical([(1, 4), (1, 4)], "save_counts") != \
            canonical([(1, 4)], "save_counts")
        assert canonical([(1, 4), (1, 4)], "save_counts") != \
            canonical([(1, 5), (2, 3)], "save_counts")
