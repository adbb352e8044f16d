"""The benchmark's traced pass can shadow every replay workload's rig.

``benchmarks/e2e/e2ebench/spans.py`` looks each layer's public methods up by
name — the adaptive strategy's ``fetch`` among them — so a method renamed or
deleted under ``src/`` breaks ``run.py --trace`` on any workload whose rig
has it.  ``run.py --smoke`` traces only two workloads; this installs and
removes the wrappers on every replay workload's smoke-scale rig, and checks
that no instance attribute is left behind.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.adaptive import AdaptiveStrategy

E2E = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def _load_run_module():
    spec = importlib.util.spec_from_file_location("e2e_bench_run",
                                                  E2E / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)    # also puts e2ebench on sys.path
    return module


_load_run_module()

from e2ebench import spans  # noqa: E402
from e2ebench.workloads import Rig, Scale, WORKLOADS  # noqa: E402

REPLAY_WORKLOADS = [name for name, spec in WORKLOADS.items() if spec.replays]


def shadowed_objects(rig: Rig) -> list:
    """Every object whose instance attributes the span wrappers set."""
    scenario, genie = rig.scenario, rig.scenario.genie
    objects = [scenario.app, scenario.database, scenario.database.transactions,
               rig.replayer, *scenario.cache_servers]
    if rig.injector is not None:
        objects.append(rig.injector)
    if rig.gutter is not None:
        objects += rig.gutter.servers
    if genie is not None:
        objects += [genie.interceptor, genie.refresh_queue, genie.app_cache,
                    genie.trigger_cache, *genie.cached_objects.values()]
        if genie.trigger_op_queue is not None:
            objects.append(genie.trigger_op_queue)
    if isinstance(scenario.config.strategy, AdaptiveStrategy):
        objects.append(scenario.config.strategy)
    return objects


def test_every_replay_workload_is_covered():
    assert len(REPLAY_WORKLOADS) == 6
    assert "adaptive-faults" in REPLAY_WORKLOADS


@pytest.mark.parametrize("name", REPLAY_WORKLOADS)
def test_spans_install_and_restore_on_every_rig(name):
    rig = Rig(WORKLOADS[name], 1, Scale.smoke())
    try:
        shadowed = shadowed_objects(rig)
        before = [dict(vars(obj)) for obj in shadowed]
        restorer = spans.install(spans.SpanRecorder(), rig)
        assert "render" in vars(rig.scenario.app)
        restorer.restore()
        assert [dict(vars(obj)) for obj in shadowed] == before
    finally:
        rig.teardown()
