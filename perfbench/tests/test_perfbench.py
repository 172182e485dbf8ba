"""Self-tests of the benchmark: generator, exact cut times, checks, metric
names, and that tracing changes no output.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import math
import re
from pathlib import Path

import pytest

import checks
import run
import tracer
from finslercut.scenario import BUILTINS
from workloads import WORKLOADS, exact_rho, generate

BENCHMARK = json.loads(
    (Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# a few-second scenario on the shooting path: 8 rays, no refinement
SMALL = {
    "name": "bench-small",
    "manifold": {"type": "torus", "periods": [0.9, 1.2]},
    "metric": {"family": "euclidean"},
    "submanifold": {"family": "point", "point": [0.17, 0.4]},
    "grids": {"psi_count": 8, "horizon": 1.5, "refine_levels": 1},
    "tolerances": {"bisection": 1e-8, "min_slack": 1e-7},
    "tasks": ["cutlocus", "classify", "theorems"],
    "seed": 5,
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_zero_is_the_builtin(name):
    assert json.dumps(generate(name, 0, BUILTINS)) == json.dumps(BUILTINS[name])


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    builtin = json.dumps(BUILTINS[name])
    docs = [json.dumps(generate(name, s, BUILTINS)) for s in (1, 2, 1)]
    assert docs[0] == docs[2]
    assert docs[0] != docs[1]
    assert json.dumps(BUILTINS[name]) == builtin


def test_generated_geometry_stays_in_range():
    for seed in range(1, 50):
        sphere = generate("sphere-point", seed, BUILTINS)
        assert math.hypot(*sphere["submanifold"]["point"]) <= 0.4
        torus = generate("torus-point", seed, BUILTINS)
        periods = torus["manifold"]["periods"]
        assert all(0.8 <= p <= 1.25 for p in periods)
        assert all(0 <= x < p
                   for x, p in zip(torus["submanifold"]["point"], periods))


def test_exact_rho_on_the_unit_torus():
    doc = generate("torus-point", 0, BUILTINS)
    assert exact_rho(doc, [1.0, 0.0]) == 0.5
    assert exact_rho(doc, [0.0, -1.0]) == 0.5
    d = 1.0 / math.sqrt(2.0)
    assert exact_rho(doc, [d, d]) == pytest.approx(math.sqrt(2.0) / 2.0,
                                                   rel=1e-15)
    assert exact_rho(generate("sphere-point", 3, BUILTINS), [0.3, 0.1]) \
        == math.pi


def _record(rho, v):
    """A cut record document as ``scenario.record_doc`` writes it."""
    if isinstance(rho, str):
        return {"rho": rho, "tangent_cut": None}
    return {"rho": rho, "tangent_cut": [rho * c for c in v]}


def test_check_counts_records_and_tasks():
    doc = dict(SMALL)
    docs = {"cutlocus": {"records": [_record(0.45, [1.0, 0.0]),
                                     _record(0.44, [1.0, 0.0]),
                                     _record("nan", [1.0, 0.0])]},
            "theorems": [{"name": "se_dense", "passed": False}]}
    got = checks.check_run(doc, ["cutlocus", "theorems"], docs, [], True,
                           ["/tasks/cutlocus/rho_values/1: 0.44 vs 0.45"])
    assert got["attempted"] == 5
    assert got["records_failed"] == 2
    assert got["tasks_failed"] == ["cutlocus", "theorems"]
    assert got["failed"] == 4
    assert got["rho_err_max"] == pytest.approx(0.01)
    assert not got["correct"]


def test_violation_without_other_failure_is_counted_not_fatal():
    docs = {"cutlocus": {"records": [_record(0.45, [1.0, 0.0])]},
            "theorems": [{"name": "se_dense", "passed": False}]}
    got = checks.check_run(SMALL, ["cutlocus", "theorems"], docs, [], True, [])
    assert got["correct"]
    assert got["failed"] == 1
    flag_mismatch = checks.check_run(SMALL, ["cutlocus", "theorems"], docs,
                                     [], False, [])
    assert not flag_mismatch["correct"]


def test_metric_names_and_units_are_well_formed():
    for section in ("end_to_end", "per_layer"):
        for m in BENCHMARK[section]:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"])
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    names = [m["name"] for s in ("end_to_end", "per_layer")
             for m in BENCHMARK[s]]
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_metrics_reported():
    def spec(section):
        return [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[section]]

    assert spec("end_to_end") == list(run.END_TO_END)
    assert spec("per_layer") == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_uninstall_restores_every_name():
    import finslercut.cutlocus as cl
    import finslercut.geodesic as geo
    import finslercut.metric as met
    before = (cl.integrate_geodesic, cl.NormalShooting.distance,
              met.MetricField.fundamental, met.RiemannianMetric.spray_generic)
    tr = tracer.Tracer().install()
    assert cl.integrate_geodesic is not before[0]
    assert cl.integrate_geodesic is geo.integrate_geodesic
    assert cl.NormalShooting.distance is not before[1]
    tr.uninstall()
    after = (cl.integrate_geodesic, cl.NormalShooting.distance,
             met.MetricField.fundamental, met.RiemannianMetric.spray_generic)
    assert after == before
    assert geo.integrate_geodesic is before[0]


def test_tracing_changes_no_output_and_counts_repeat(tmp_path):
    text = json.dumps(SMALL)
    plain = run.run_sample(text)
    traced = [run.run_sample(text, "--spans", str(tmp_path / f"s{i}.npz"))
              for i in range(2)]
    assert plain["check"]["correct"], plain["check"]["problems"]
    assert plain["check"]["records_failed"] == 0
    for got in traced:
        assert got["summary"] == plain["summary"]
    counts = [{k: v for k, v in got["layers"].items()
               if not k.endswith("self_s")} for got in traced]
    assert counts[0] == counts[1]
    assert counts[0]["cutlocus.cut_time.calls"] == 8
    assert counts[0]["cutlocus.distance.calls"] > 8


def test_inclusive_time_counts_nested_spans_once():
    import numpy as np
    import split
    spans = {"names": np.array([split.ROOT, "a", "b"]),
             "name": np.array([0, 1, 1, 2, 1]),
             "parent": np.array([-1, 0, 1, 2, 0]),
             "start": np.array([0.0, 1.0, 2.0, 2.5, 6.0]),
             "end": np.array([10.0, 5.0, 4.0, 3.0, 8.0])}
    assert split.inclusive_s(spans, ["a"]) == 6.0
    assert split.inclusive_s(spans, ["b"]) == 0.5
    assert split.inclusive_s(spans, ["a", "b"]) == 6.0
    assert split.inclusive_s(spans, [split.ROOT]) == 10.0
