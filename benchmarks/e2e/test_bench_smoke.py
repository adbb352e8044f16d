"""Tier-1 smoke test of the end-to-end benchmark (``run.py --smoke``, twice).

Checks the contract between ``BENCHMARK.json``, the metric catalogue and what
a run actually emits; that modelled and count metrics repeat exactly; that the
traced pass reproduces the untraced fingerprint (a run is ``correct`` only if
it does); and that the span wrappers leave nothing behind.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import re

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _load_run_module():
    spec = importlib.util.spec_from_file_location("e2e_bench_run",
                                                  HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)    # also puts e2ebench on sys.path
    return module


bench = _load_run_module()

from e2ebench import catalog, report, spans  # noqa: E402
from e2ebench.workloads import Rig, Scale, WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    documents = []
    for index in range(2):
        out = tmp_path_factory.mktemp(f"smoke{index}") / "results.json"
        assert bench.main(["--smoke", "--output", str(out)]) == 0
        documents.append(json.loads(out.read_text()))
    return documents


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_within_the_contract(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_benchmark_json_matches_the_catalogue(declared):
    assert declared["end_to_end"] == [m.declaration()
                                      for m in catalog.END_TO_END]
    assert declared["per_layer"] == [m.declaration()
                                     for m in catalog.PER_LAYER]
    assert declared["workloads"] == [{"name": w.name, "why": w.why}
                                     for w in WORKLOADS.values()]


def test_every_declared_name_is_emitted_and_vice_versa(smoke_runs, declared):
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    document = smoke_runs[0]
    assert list(document["workloads"]) == [w["name"]
                                           for w in declared["workloads"]]
    for name, entry in document["workloads"].items():
        assert entry["correct"], (name, entry["problems"])
        assert entry["failed_ops"] == 0 and entry["ops"] >= 1
        assert set(entry["end_to_end"]) == end_to_end
        for row in entry["end_to_end"].values():
            assert row["median"] > 0            # never-zero metrics only
        if name in report.SMOKE_TRACED:
            assert set(entry["per_layer"]) == per_layer
        else:
            assert entry["per_layer"] == {}


def test_modelled_and_count_metrics_repeat_exactly(smoke_runs):
    first, second = smoke_runs
    for name in first["workloads"]:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["ops"] == b["ops"]
        for metric in catalog.END_TO_END:
            if metric.exact:
                assert (a["end_to_end"][metric.name]["values"]
                        == b["end_to_end"][metric.name]["values"]), metric.name
        for metric in catalog.PER_LAYER:
            if metric.exact and a["per_layer"]:
                assert (a["per_layer"][metric.name]
                        == b["per_layer"][metric.name]), (name, metric.name)


def test_traced_workloads_ran_their_layers(smoke_runs):
    layers = smoke_runs[0]["workloads"]["contended-w2"]["per_layer"]
    assert layers["bench.trace_overhead_ratio"] > 0
    assert layers["sim.handoff_share"] > 0
    assert layers["sim.yields_per_page"] > 1
    assert layers["core.read_self_ms_per_page"] > 0
    assert layers["memcache.server_self_ms_per_page"] > 0
    assert layers["storage.self_ms_per_page"] > 0


def test_wrappers_are_removed():
    from repro.orm.models import Model
    from repro.orm.queryset import QuerySet
    import repro.apps.social.pages as pages_module
    import repro.core.cache_classes.base as base_module

    class_level = {(cls, name): vars(cls)[name]
                   for cls, names in ((QuerySet, spans.QUERYSET_TERMINALS),
                                      (Model, ("save", "delete")))
                   for name in names}
    module_level = {(module, name): getattr(module, name)
                    for module, name in ((pages_module, "evaluate_many"),
                                         (base_module, "evaluate_many"),
                                         (base_module, "thaw_rows"),
                                         (base_module, "freeze_rows"))}
    rig = Rig(WORKLOADS["contended-w2"], 1, Scale.smoke())
    try:
        scenario = rig.scenario
        genie = scenario.genie
        shadowed = [scenario.app, scenario.database,
                    scenario.database.transactions, rig.replayer,
                    genie.interceptor, genie.trigger_op_queue,
                    genie.refresh_queue, genie.app_cache, genie.trigger_cache,
                    *scenario.cache_servers, *genie.cached_objects.values()]
        before = [dict(vars(obj)) for obj in shadowed]
        hooks = list(scenario.database.transactions.on_commit)

        restorer = spans.install(spans.SpanRecorder(), rig)
        assert "render" in vars(scenario.app)
        assert vars(QuerySet)["get"] is not class_level[(QuerySet, "get")]
        restorer.restore()

        assert [dict(vars(obj)) for obj in shadowed] == before
        assert scenario.database.transactions.on_commit == hooks
        for (cls, name), original in class_level.items():
            assert vars(cls)[name] is original
        for (module, name), original in module_level.items():
            assert getattr(module, name) is original
    finally:
        rig.teardown()
