import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from jsonschema.validators import validator_for

import finslercut as fc
from finslercut import cli, scenario
from finslercut import topology as topo_mod
from finslercut.errors import ScenarioError, UnreachedPointError
from finslercut.scenario import (SCHEMA, builtin_scenario, run_scenario,
                                 summary_document)

TINY = {
    "name": "tiny",
    "manifold": {"type": "torus", "periods": [1.0, 1.0]},
    "metric": {"family": "euclidean"},
    "submanifold": {"family": "point", "point": [0.0, 0.0]},
    "grids": {"psi_count": 16, "horizon": 1.2},
    "tasks": ["validate", "cutlocus", "classify", "theorems"],
    "seed": 5,
}


def test_parse_valid_scenario():
    sc = fc.parse_scenario(json.dumps(TINY))
    assert sc.name == "tiny"
    assert sc.grids["psi_count"] == 16
    assert sc.tolerances["bisection"] == 1e-6   # default filled in


def test_parse_rejects_bad_json():
    with pytest.raises(ScenarioError):
        fc.parse_scenario("{not json")


def test_parse_reports_json_pointer():
    bad = dict(TINY, metric={"family": "hyperbolic"})
    with pytest.raises(ScenarioError) as err:
        fc.parse_scenario(json.dumps(bad))
    assert err.value.pointer == "/metric/family"
    assert "hyperbolic" in str(err.value)


def test_parse_rejects_unknown_key():
    bad = dict(TINY, extra=1)
    with pytest.raises(ScenarioError):
        fc.parse_scenario(json.dumps(bad))


def test_parse_rejects_bad_task():
    bad = dict(TINY, tasks=["cutlocus", "frobnicate"])
    with pytest.raises(ScenarioError) as err:
        fc.parse_scenario(json.dumps(bad))
    assert "/tasks/1" in str(err.value)


def test_builtin_registry():
    names = [n for n, _ in fc.list_builtin_scenarios()]
    assert len(names) == 8
    assert "torus-point" in names and "plane-ellipse" in names
    for n in names:
        sc = builtin_scenario(n)
        assert sc.name == n


def test_builtin_unknown_name():
    with pytest.raises(ScenarioError):
        builtin_scenario("does-not-exist")


def test_run_tiny_scenario(tmp_path):
    sc = fc.parse_scenario(json.dumps(TINY))
    bundle = run_scenario(sc, out_dir=tmp_path)
    assert not bundle.errors and not bundle.violations
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "tiny_summary.json").exists()
    assert (tmp_path / "tiny_cutlocus.csv").exists()
    assert (tmp_path / "tiny_cutlocus.svg").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert "tiny_summary.json" in manifest["files"]
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == getattr(sys.modules.get("scipy"),
                                        "__version__", None)
    assert manifest["python"] == platform.python_version()


def test_run_is_deterministic():
    sc1 = fc.parse_scenario(json.dumps(TINY))
    sc2 = fc.parse_scenario(json.dumps(TINY))
    s1 = summary_document(run_scenario(sc1))
    s2 = summary_document(run_scenario(sc2))
    assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)


def test_schema_is_strict():
    assert SCHEMA["additionalProperties"] is False


def test_schema_conforms_to_its_metaschema():
    # parse_scenario reuses one validator and no longer checks the schema
    validator_for(SCHEMA).check_schema(SCHEMA)


@pytest.mark.parametrize("doc", [
    dict(TINY, metric={"family": "hyperbolic"}),
    dict(TINY, grids={"psi_count": 0}),
    dict(TINY, seed=-3, extra=1),
    {"name": "", "manifold": {"type": "flat"}},
], ids=["family", "psi_count", "two-errors", "missing"])
def test_parse_reports_the_error_jsonschema_validate_reports(doc):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, SCHEMA)
    with pytest.raises(ScenarioError) as got:
        fc.parse_scenario(json.dumps(doc))
    assert got.value.__cause__.message == want.value.message
    assert got.value.pointer == "/" + "/".join(
        str(p) for p in want.value.absolute_path)


@pytest.mark.parametrize("flags, pointer", [
    (["--seed", "-1"], "/seed"),
    (["--seed", str(2 ** 64)], "/seed"),
    (["--refine", "0"], "/grids/refine_levels"),
], ids=["negative-seed", "seed-past-2^64-1", "refine-0"])
def test_cli_overrides_are_checked_by_the_schema(tmp_path, capsys, flags,
                                                 pointer):
    f = tmp_path / "sc.json"
    f.write_text(json.dumps(TINY))
    args = ["run", str(f), "--out-dir", str(tmp_path / "out"), *flags]
    assert cli.main(args) == 1
    assert f"invalid scenario at {pointer}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the largest seed the schema allows passes
    sc = fc.parse_scenario(json.dumps(TINY))
    ok = cli._overridden(sc, cli.build_parser().parse_args(
        ["run", "tiny", "--seed", str(2 ** 64 - 1), "--refine", "1"]))
    assert ok.seed == 2 ** 64 - 1 and ok.grids["refine_levels"] == 1


def test_cli_list_exit_zero(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "torus-point" in out


def test_cli_validate(tmp_path, capsys):
    f = tmp_path / "sc.json"
    f.write_text(json.dumps(TINY))
    assert cli.main(["validate", str(f)]) == 0
    f.write_text(json.dumps(dict(TINY, metric={"family": "nope"})))
    assert cli.main(["validate", str(f)]) == 1


@pytest.mark.parametrize("section, value, pointer", [
    ("manifold", {"type": "flat", "dim": 3}, "/manifold"),
    ("manifold", {"type": "torus", "periods": [1.0, 1.0, 1.0]},
     "/manifold/periods"),
    ("metric", {"family": "randers", "b": [0.5]}, "/metric/b"),
    ("metric", {"family": "randers", "b": [1.2, 0.0]}, "/metric/b"),
    ("metric", {"family": "minkowski-quartic", "eps": 1.0}, "/metric/eps"),
    ("submanifold", {"family": "point", "point": [0.0, 0.0, 0.0]},
     "/submanifold/point"),
    ("submanifold", {"family": "circle", "center": [0.0]},
     "/submanifold/center"),
    ("submanifold", {"family": "axis-line", "direction": [0.0, 1.0, 0.0]},
     "/submanifold/direction"),
    ("output", {"formats": ["json"]}, "/output"),
    ("tolerances", {"newton": 1e-9}, "/tolerances"),
    ("tolerances", {"distinct_angle": 1e-3}, "/tolerances"),
    ("schema_version", "2.0", "/schema_version"),
], ids=["dim", "periods", "b", "b-convexity", "eps", "point", "center",
        "direction", "formats", "newton", "distinct_angle", "schema_version"])
def test_validate_rejects_what_cannot_run(tmp_path, capsys, section, value,
                                          pointer):
    # every manifold is 2-dimensional; a key that changes no output is gone;
    # the schema version is the one this program reads
    bad = dict(TINY, **{section: value})
    with pytest.raises(ScenarioError) as err:
        fc.parse_scenario(json.dumps(bad))
    assert err.value.pointer == pointer
    f = tmp_path / "sc.json"
    f.write_text(json.dumps(bad))
    assert cli.main(["validate", str(f)]) == 1
    assert f"invalid scenario at {pointer}:" in capsys.readouterr().err


def test_every_plan_key_changes_the_shooting_plan():
    # each tolerance and grid key that feeds the plan changes it, and
    # between them they reach every plan field: a key no shooting reads
    # fails here
    sc = fc.parse_scenario(dict(TINY, schema_version=scenario.SCHEMA_VERSION))
    base = scenario.build_geometry(sc)[3]
    keys = [("tolerances", k) for k in SCHEMA["properties"]["tolerances"]
            ["properties"]]
    keys += [("grids", k) for k in ("theta_count", "psi_count", "horizon")]
    reached = set()
    for section, key in keys:
        value = getattr(sc, section)[key]
        doc = dict(TINY, **{section: dict(TINY.get(section, {}),
                                          **{key: 2 * value})})
        plan = scenario.build_geometry(fc.parse_scenario(doc))[3]
        changed = {f.name for f in dataclasses.fields(plan)
                   if getattr(plan, f.name) != getattr(base, f.name)}
        assert len(changed) == 1, (section, key, changed)
        reached |= changed
    assert reached == {f.name for f in dataclasses.fields(base)}


def test_a_scenario_without_plan_sections_gets_the_default_plan():
    doc = {k: v for k, v in TINY.items() if k not in ("grids", "tolerances")}
    assert scenario.build_geometry(fc.parse_scenario(doc))[3] == \
        fc.ShootingPlan()


def test_dfcheck_probes_the_disk_in_the_source_chart(monkeypatch):
    # a point source at the chart-1 origin (the north pole): the probes of
    # the disk around it are chart-1 points, not points near the south pole
    probes = []

    def record(field, q, directions):
        probes.append(q)
        return topo_mod.VariationReport(q, 0.0, [])

    monkeypatch.setattr(topo_mod, "check_first_variation", record)
    doc = {"name": "north-pole", "manifold": {"type": "sphere-stereo"},
           "metric": {"family": "sphere-round"},
           "submanifold": {"family": "point", "chart": 1},
           "grids": {"psi_count": 32, "horizon": 4.0},
           "tasks": ["dfcheck"], "seed": 3}
    bundle = run_scenario(fc.parse_scenario(doc))
    assert bundle.documents["dfcheck"]["n_probes"] == len(probes) == \
        scenario.DFCHECK_PROBES
    for chart, x in probes:
        assert chart == 1
        assert 0.2 <= np.linalg.norm(x) <= 1.2


def test_cli_run_unknown_scenario_is_config_error(capsys):
    assert cli.main(["run", "no-such-builtin"]) == 1


def test_cli_run_tiny(tmp_path, capsys):
    f = tmp_path / "sc.json"
    f.write_text(json.dumps(TINY))
    code = cli.main(["run", str(f), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "cutlocus: ok" in out


def test_running_a_builtin_imports_no_scipy(tmp_path):
    # scipy's import is most of the package's start-up time; only
    # sampled curves, n >= 3 normal spaces and discrete paths load it
    code = (
        "import sys\n"
        "import finslercut, finslercut.cli, finslercut.scenario\n"
        "assert finslercut.cli.main(['run', 'randers-plane-point', "
        f"'--out-dir', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n")
    src = str(Path(fc.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "manifest.json").exists()


def test_running_a_builtin_imports_no_numpy_ma(tmp_path):
    # numpy.ma is numpy's largest lazy import; a builtin run needs none
    code = (
        "import sys\n"
        "import finslercut, finslercut.cli, finslercut.scenario\n"
        "assert finslercut.cli.main(['run', 'torus-point', "
        f"'--out-dir', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
    src = str(Path(fc.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["scipy"] is None


def test_refine_leaves_the_scenario_unchanged():
    sc = fc.parse_scenario(json.dumps(TINY))
    grids = dict(sc.grids)
    args = cli.build_parser().parse_args(
        ["run", "tiny", "--refine", "2", "--seed", "9"])
    refined = cli._overridden(sc, args)
    assert sc.grids == grids and sc.seed == 5
    assert refined.grids == dict(grids, refine_levels=2)
    assert refined.seed == 9
    bundle = run_scenario(refined)
    assert not bundle.errors
    names = [r["name"] for r in bundle.documents["theorems"]]
    assert "rho_continuity" in names


def test_every_refine_level_reaches_the_continuity_check():
    # three grids of 4, 8 and 16 rays, one quotient each
    doc = dict(TINY, tasks=["cutlocus", "theorems"],
               grids=dict(TINY["grids"], refine_levels=3))
    bundle = run_scenario(fc.parse_scenario(json.dumps(doc)))
    assert not bundle.errors
    (report,) = [r for r in bundle.documents["theorems"]
                 if r["name"] == "rho_continuity"]
    assert len(report["detail"]["max_quotients"]) == 3


def test_a_scenario_axis_line_gets_the_library_halfwidth():
    doc = dict(TINY, manifold={"type": "flat"},
               metric={"family": "randers", "b": [0.5, 0.0]},
               submanifold={"family": "axis-line"})
    _, _, N, _ = scenario.build_geometry(fc.parse_scenario(json.dumps(doc)))
    assert np.array_equal(N.theta_box, fc.axis_line_submanifold().theta_box)
    assert np.array_equal(N.point([1.5]), fc.axis_line_submanifold().point(
        [1.5]))


def test_cli_run_prints_violation_for_each_flagging_task(tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setitem(scenario.TASKS, "validate",
                        lambda run: ({"passed": False}, True))
    monkeypatch.setitem(scenario.TASKS, "loops",
                        lambda run: ({"branch": "none"}, False))
    f = tmp_path / "sc.json"
    f.write_text(json.dumps(dict(TINY, tasks=["validate", "loops"])))
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(f), "--out-dir", str(out_dir)]) == 3
    out = capsys.readouterr().out
    assert "[tiny] validate: VIOLATION" in out
    assert "[tiny] loops: ok" in out
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["violations"] == ["validate"]


def test_task_errors_are_recorded_and_bugs_propagate(monkeypatch):
    def unreached(run):
        raise UnreachedPointError("no root")

    def bug(run):
        raise TypeError("bad argument")

    sc = fc.parse_scenario(json.dumps(dict(TINY, tasks=["loops",
                                                        "validate"])))
    monkeypatch.setitem(scenario.TASKS, "loops", unreached)
    monkeypatch.setitem(scenario.TASKS, "validate",
                        lambda run: ({"passed": True}, False))
    bundle = run_scenario(sc)
    assert [e["task"] for e in bundle.errors] == ["loops"]
    assert list(bundle.documents) == ["validate"]
    monkeypatch.setitem(scenario.TASKS, "loops", bug)
    with pytest.raises(TypeError):
        run_scenario(sc)


@pytest.mark.parametrize("tasks", [["validate", "classify", "cutlocus"],
                                   ["validate", "retracts"]])
def test_tasks_reading_records_need_cutlocus_first(tmp_path, tasks):
    bad = dict(TINY, tasks=tasks)
    with pytest.raises(ScenarioError) as err:
        fc.parse_scenario(json.dumps(bad))
    assert err.value.pointer == "/tasks/1"
    f = tmp_path / "sc.json"
    f.write_text(json.dumps(bad))
    assert cli.main(["validate", str(f)]) == 1


def test_retracts_without_finite_cut_time_is_recorded():
    plane = dict(TINY, manifold={"type": "flat"},
                 grids={"psi_count": 8, "horizon": 1.0},
                 tasks=["cutlocus", "retracts"])
    bundle = run_scenario(fc.parse_scenario(json.dumps(plane)))
    assert [e["task"] for e in bundle.errors] == ["retracts"]
    assert "RetractionUndefinedError" in bundle.errors[0]["error"]


def test_sphere_round_metric_needs_sphere_manifold(tmp_path, capsys):
    bad = dict(TINY, metric={"family": "sphere-round"})
    with pytest.raises(ScenarioError) as err:
        fc.parse_scenario(json.dumps(bad))
    assert err.value.pointer == "/metric/family"
    f = tmp_path / "sc.json"
    f.write_text(json.dumps(bad))
    assert cli.main(["validate", str(f)]) == 1


def test_cli_golden_all_reports_each_builtin(monkeypatch, capsys):
    names = ["torus-point", "sphere-point", "plane-circle"]
    monkeypatch.setattr(cli, "list_builtin_scenarios",
                        lambda: [(n, "") for n in names])
    monkeypatch.setattr(cli, "run_scenario",
                        lambda sc: scenario.OutputBundle(sc))
    monkeypatch.setattr(cli, "summary_document", lambda bundle: bundle)
    differs = {"sphere-point": ["/classify: 1 vs 2", "/rho: 3 vs 4"]}
    monkeypatch.setattr(cli, "compare_to_golden",
                        lambda summary, name: differs.get(name, []))
    assert cli.main(["golden", "--all"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "torus-point: matches golden summary (0.0 s)",
        "sphere-point: 2 difference(s) from golden (0.0 s), first: "
        "/classify: 1 vs 2",
        "plane-circle: matches golden summary (0.0 s)"]
    differs.clear()
    assert cli.main(["golden", "--all"]) == 0
    assert cli.main(["golden", "--all", "torus-point"]) == 1
    assert cli.main(["golden"]) == 1
    assert cli.main(["golden", "--all", "--write"]) == 1


@pytest.mark.parametrize("name", ["sphere-point", "sphere-equator"])
def test_sphere_builtin_matches_golden(name):
    # sphere-equator's delta (about 3.9e9) and the focal times move past the
    # 1e-9 tolerance on a last-bit change of the spray
    summary = summary_document(run_scenario(builtin_scenario(name)))
    assert scenario.compare_to_golden(summary, name) == []


@pytest.mark.parametrize("name", ["torus-point", "torus-quartic-point",
                                  "randers-plane-axis", "plane-circle",
                                  "randers-plane-point"])
def test_builtin_matches_golden(name):
    summary = summary_document(run_scenario(builtin_scenario(name)))
    assert scenario.compare_to_golden(summary, name) == []


def test_golden_gate_sees_noise_level_fields():
    golden = json.loads(scenario.golden_path("torus-point").read_text())
    dev = golden["tasks"]["dfcheck"]["max_deviation"]
    assert 1e-12 < dev < 1e-11
    assert scenario.compare_to_golden(golden, "torus-point") == []
    # a rise far inside the 1e-9 tolerance, to 100 times the golden
    golden["tasks"]["dfcheck"]["max_deviation"] = 100.0 * dev
    (diff,) = scenario.compare_to_golden(golden, "torus-point")
    assert diff.startswith("/tasks/dfcheck/max_deviation: ")
    # the synthetic case: 1e-12 -> 1e-10 fails, up to 10x passes, and any
    # noise-level field may reach 1e-13
    for got, want, ok in [(1e-10, 1e-12, False), (-1e-10, 1e-12, False),
                          (9e-12, 1e-12, True), (1e-13, 0.0, True),
                          (2e-13, 0.0, False), (2e-13, 1e-14, False),
                          (0.0, 5e-10, True), (1.5, 1.5 + 5e-10, True)]:
        diffs = []
        scenario._compare({"x": got}, {"x": want}, "", 1e-9, diffs)
        assert (diffs == []) == ok, (got, want)
