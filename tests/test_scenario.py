import copy
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

import finslercut as fc
from finslercut import cli, scenario, submanifold
from finslercut import topology as topo_mod
from finslercut.errors import (NumericalFailure, ScenarioError,
                               UnreachedPointError)
from finslercut.scenario import (BUILTINS, SCHEMA, builtin_scenario,
                                 run_scenario, schema_error, summary_document)

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


def test_a_point_source_takes_no_side():
    doc = copy.deepcopy(BUILTINS["torus-quartic-point"])
    for side in (1, -1):
        doc["grids"] = dict(doc.get("grids", {}), side=side)
        with pytest.raises(ScenarioError) as err:
            fc.parse_scenario(json.dumps(doc))
        assert err.value.pointer == "/grids/side"
    doc["grids"]["side"] = None
    assert fc.parse_scenario(json.dumps(doc)).grids["side"] is None


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


def _subschemas(schema=SCHEMA):
    """``schema`` and every schema nested in it."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_schema_uses_only_the_keywords_the_checker_reads():
    # a keyword the checker does not implement (pattern, oneOf, ...) would
    # otherwise be ignored by parse_scenario, or crash it on first use
    known = set(scenario._KEYWORDS) | set(scenario._ANNOTATIONS)
    for node in _subschemas():
        assert set(node) <= known, sorted(set(node) - known)
        if "additionalProperties" in node:
            assert node["additionalProperties"] is False
            assert "properties" in node


def _jsonschema_error(doc):
    """The error jsonschema.validate(doc, SCHEMA) raises, or None."""
    return best_match(validator_for(SCHEMA)(SCHEMA).iter_errors(doc))


def _assert_reported_as_jsonschema_would(doc):
    want = _jsonschema_error(doc)
    if want is None:
        assert schema_error(doc) is None
        return
    path = tuple(want.absolute_path)
    assert schema_error(doc) == (path, want.message)
    with pytest.raises(ScenarioError) as got:
        fc.parse_scenario(json.dumps(doc))
    assert got.value.__cause__ is None
    pointer = "/" + "/".join(map(str, path))
    assert got.value.pointer == pointer
    if path[-1:] == ("family",):
        assert f"{pointer}: unknown family {want.instance!r}; valid: " in \
            str(got.value)
    else:
        assert str(got.value) == \
            f"invalid scenario at {pointer}: {want.message}"


# (section, value, pointer): documents that are valid JSON but cannot run
_CANNOT_RUN = {
    "dim": ("manifold", {"type": "flat", "dim": 3}, "/manifold"),
    "periods": ("manifold", {"type": "torus", "periods": [1.0, 1.0, 1.0]},
                "/manifold/periods"),
    "b": ("metric", {"family": "randers", "b": [0.5]}, "/metric/b"),
    "b-convexity": ("metric", {"family": "randers", "b": [1.2, 0.0]},
                    "/metric/b"),
    "eps": ("metric", {"family": "minkowski-quartic", "eps": 1.0},
            "/metric/eps"),
    "point": ("submanifold", {"family": "point", "point": [0.0, 0.0, 0.0]},
              "/submanifold/point"),
    "center": ("submanifold", {"family": "circle", "center": [0.0]},
               "/submanifold/center"),
    "direction": ("submanifold",
                  {"family": "axis-line", "direction": [0.0, 1.0, 0.0]},
                  "/submanifold/direction"),
    # the schema accepts these: it cannot name the charts of an atlas, nor
    # refuse a zero vector
    "chart": ("submanifold", {"family": "point", "chart": 1},
              "/submanifold/chart"),
    "zero-direction": ("submanifold",
                       {"family": "axis-line", "direction": [0.0, 0.0]},
                       "/submanifold/direction"),
    # JSON has no NaN or infinity; Python's reader admits them
    "nan": ("submanifold", {"family": "circle", "radius": float("nan")},
            "/submanifold/radius"),
    "infinity": ("metric", {"family": "randers", "b": [0.0, float("inf")]},
                 "/metric/b/1"),
    "formats": ("output", {"formats": ["json"]}, "/output"),
    "newton": ("tolerances", {"newton": 1e-9}, "/tolerances"),
    "distinct_angle": ("tolerances", {"distinct_angle": 1e-3},
                       "/tolerances"),
    "schema_version": ("schema_version", "2.0", "/schema_version"),
}


@pytest.mark.parametrize("doc", [
    dict(TINY, metric={"family": "hyperbolic"}),
    dict(TINY, grids={"psi_count": 0}),
    dict(TINY, seed=-3, extra=1),
    {"name": "", "manifold": {"type": "flat"}},
    # JSON types: an integral float is an integer, a bool is no number,
    # and True is not the enum value 1
    dict(TINY, seed=16.0, grids={"theta_count": 2.5}),
    dict(TINY, seed=True),
    dict(TINY, grids={"side": True}),
] + [dict(TINY, **{section: value})
     for section, value, _ in _CANNOT_RUN.values()],
    ids=["family", "psi_count", "two-errors", "missing", "integral-float",
         "bool-seed", "bool-side"]
    + [f"cannot-run-{name}" for name in _CANNOT_RUN])
def test_parse_reports_the_error_jsonschema_validate_reports(doc):
    _assert_reported_as_jsonschema_would(doc)


# every property name of SCHEMA, and one it lacks
_KEYS = sorted({"extra"} | {key for node in _subschemas()
                            for key in node.get("properties", {})})
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 2 ** 64)
            | st.floats() | st.text(max_size=2)
            | st.sampled_from(["1.0", "flat", "torus", "point", "cutlocus",
                               16.0, 0.5, -1.0]))
_JSON = st.recursive(_SCALARS, lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(st.sampled_from(_KEYS), kids,
                                       max_size=2), max_leaves=4)


@settings(derandomize=True, max_examples=300, deadline=None,
          database=None)
@given(name=st.sampled_from(sorted(BUILTINS)), data=st.data())
def test_mutated_builtins_are_checked_as_jsonschema_checks_them(name, data):
    doc = copy.deepcopy(BUILTINS[name])
    for _ in range(data.draw(st.integers(1, 3))):
        containers, stack = [], [doc]
        while stack:
            c = stack.pop()
            containers.append(c)
            stack.extend(v for v in (c.values() if isinstance(c, dict)
                                     else c) if isinstance(v, (dict, list)))
        c = data.draw(st.sampled_from(containers))
        keys = list(c) if isinstance(c, dict) else list(range(len(c)))
        op = data.draw(st.sampled_from(["set", "delete", "add"]))
        if op == "add" or not keys:
            value = data.draw(_JSON)
            if isinstance(c, dict):
                c[data.draw(st.sampled_from(_KEYS))] = value
            else:
                c.append(value)
        elif op == "set":
            c[data.draw(st.sampled_from(keys))] = data.draw(_JSON)
        else:
            del c[data.draw(st.sampled_from(keys))]
    _assert_reported_as_jsonschema_would(doc)


def _typed(schema):
    """Values of the JSON type ``schema`` names, with the integral floats
    that an integer may be and the zeros that a number may be."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    if schema["type"] == "array":
        return (st.lists(_typed(schema["items"]), min_size=2, max_size=2)
                | st.sampled_from([(0.0, 0.0), (-0.0, 0.0)]).map(list))
    if schema["type"] == "integer":
        return st.integers(0, 64) | st.sampled_from([0.0, 1.0, 16.0, 1e12])
    return st.floats(-10.0, 10.0) | st.sampled_from(
        [0.0, -0.0, 1.0, 1e12, math.nan, math.inf, -math.inf])


# (section, key, subschema) of every key a scenario section can set
_FIELDS = [(section, key, sub) for section in ("manifold", "metric",
                                               "submanifold", "grids",
                                               "tolerances")
           for key, sub in SCHEMA["properties"][section]["properties"].items()]


@settings(derandomize=True, max_examples=300, deadline=None,
          database=None)
@given(name=st.sampled_from(sorted(BUILTINS)), data=st.data())
def test_accepted_mutated_builtins_build_and_sample_a_cone(name, data):
    # a builtin with 1-3 of its fields set to values of their schema type:
    # parse_scenario raises no error but ScenarioError, and what it accepts
    # builds its geometry and samples a 4 x 4 unit cone with no exception
    # but a FinslerError, and no warning
    doc = copy.deepcopy(BUILTINS[name])
    for _ in range(data.draw(st.integers(1, 3))):
        section, key, sub = data.draw(st.sampled_from(_FIELDS))
        if isinstance(doc.get(section), dict):
            doc[section][key] = data.draw(_typed(sub))
    text = json.dumps(doc)
    try:
        sc = fc.parse_scenario(text)
    except ScenarioError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _, metric, N, _ = scenario.build_geometry(sc)
            fc.sample_unit_cone(metric, N, (4, 4))
        except fc.FinslerError:
            pass


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


def test_out_dir_is_a_run_flag_only(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["golden", "torus-point", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out-dir" in capsys.readouterr().err
    f = tmp_path / "sc.json"
    f.write_text(json.dumps(TINY))
    assert cli.main(["run", str(f), "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.json").is_file()


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


@pytest.mark.parametrize("section, value, pointer",
                         list(_CANNOT_RUN.values()), ids=list(_CANNOT_RUN))
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


@pytest.mark.parametrize("floats", [
    {"grids": {"psi_count": 16.0}},
    {"submanifold": {"chart": 0.0}},
    {"grids": {"psi_count": 16.0, "refine_levels": 2.0},
     "submanifold": {"chart": 0.0}, "seed": 13.0},
], ids=["psi_count", "chart", "all"])
def test_integral_floats_run_as_the_integers_they_equal(floats):
    # the schema types these keys integer, which admits 16.0; parse_scenario
    # turns each into the int it equals, so the run is the int document's
    def doc(cast):
        out = copy.deepcopy(BUILTINS["torus-point"])
        out["grids"]["psi_count"] = 16
        for section, value in floats.items():
            if isinstance(value, dict):
                out.setdefault(section, {}).update(
                    {k: cast(v) for k, v in value.items()})
            else:
                out[section] = cast(value)
        return out

    sc = fc.parse_scenario(json.dumps(doc(float)))
    assert sc == fc.parse_scenario(json.dumps(doc(int)))
    assert type(sc.grids["psi_count"]) is int
    assert type(sc.submanifold["chart"]) is int and type(sc.seed) is int
    bundle = run_scenario(sc)
    assert not bundle.errors
    want = summary_document(run_scenario(fc.parse_scenario(
        json.dumps(doc(int)))))
    assert summary_document(bundle) == want


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

    def record(field, items):
        probes.extend(q for q, _ in items)
        return [topo_mod.VariationReport(q, 0.0, []) for q, _ in items]

    monkeypatch.setattr(topo_mod, "check_first_variations", record)
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


def test_running_builtins_imports_only_what_they_use(tmp_path):
    # sphere-point reaches the geodesic layer's degeneracy scan, torus-point
    # the closed-form solver; neither needs the scenario schema's reference
    # checker, numpy's masked arrays or polynomials, or scipy
    unused = ("jsonschema", "numpy.ma", "numpy.polynomial", "scipy")
    code = (
        "import sys\n"
        "import finslercut.cli\n"
        "for name in ('sphere-point', 'torus-point'):\n"
        "    assert finslercut.cli.main(['run', name, '--out-dir', "
        f"{str(tmp_path)!r} + '/' + name]) == 0\n"
        "print(sorted(m for m in sys.modules"
        f" if m.startswith(tuple(p + '.' for p in {unused!r}))"
        f" or m in {unused!r}))\n")
    src = str(Path(fc.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"
    for name in ("sphere-point", "torus-point"):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
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


def test_refinement_records_every_level_on_the_one_field(monkeypatch):
    built = []
    init = fc.NormalShooting.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    doc = dict(TINY, tasks=["cutlocus", "theorems"],
               grids=dict(TINY["grids"], refine_levels=2))
    sc = fc.parse_scenario(json.dumps(doc))
    with monkeypatch.context() as m:
        m.setattr(fc.NormalShooting, "__init__", counting_init)
        bundle = run_scenario(sc)
    assert len(built) == 1 and not bundle.errors
    (report,) = [r for r in bundle.documents["theorems"]
                 if r["name"] == "rho_continuity"]
    _, metric, N, plan = scenario.build_geometry(sc)
    coarse_plan = dataclasses.replace(plan, theta_count=plan.theta_count // 2,
                                      psi_count=plan.psi_count // 2)
    want = fc.check_rho_continuity([
        fc.cut_locus(fc.NormalShooting(metric, N, coarse_plan)),
        fc.cut_locus(fc.NormalShooting(metric, N, plan))])
    assert report["detail"] == scenario._doc(want.detail)


def test_the_manifest_counts_sample_failures(tmp_path, monkeypatch):
    unit_normals = submanifold.unit_normals

    def failing(metric, N, theta, psis):
        return [NumericalFailure("planted") if np.array_equal(psi, [1.0, 0.0])
                else ray for psi, ray in
                zip(psis, unit_normals(metric, N, theta, psis))]

    monkeypatch.setattr(submanifold, "unit_normals", failing)
    run_scenario(fc.parse_scenario(json.dumps(TINY)), out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["sample_failures"] == {"NumericalFailure": 1}
    # no task built the field
    doc = dict(TINY, tasks=["validate"])
    run_scenario(fc.parse_scenario(json.dumps(doc)), out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["sample_failures"] == {}


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
    # sphere-equator's se_dense delta (about 3.0e-9) and the focal times
    # move past the 1e-9 tolerance on a last-bit change of the spray
    summary = summary_document(run_scenario(builtin_scenario(name)))
    assert scenario.compare_to_golden(summary, name) == []


@pytest.mark.parametrize("name", ["torus-point", "torus-quartic-point",
                                  "randers-plane-axis", "plane-circle",
                                  "randers-plane-point"])
def test_builtin_matches_golden(name):
    summary = summary_document(run_scenario(builtin_scenario(name)))
    assert scenario.compare_to_golden(summary, name) == []


def _dumps(obj):
    """The two-pass writer ``scenario._render`` replaces."""
    return json.dumps(scenario._doc(obj), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(set(BUILTINS) - {"plane-ellipse"}))
def test_render_writes_every_builtin_document_as_json_dumps(name):
    bundle = run_scenario(builtin_scenario(name))
    docs = {f"{name}_summary.json": summary_document(bundle)}
    docs.update((f"{name}_{task}.json", doc)
                for task, doc in bundle.documents.items())
    for file, doc in docs.items():
        assert bundle.files[file] == scenario._render(doc) == _dumps(doc)


def test_render_matches_json_dumps_on_every_kind_of_value():
    doc = {
        "floats": [math.nan, math.inf, -math.inf, 0.1 + 0.2, -0.0, 1e-300,
                   np.float64(2.0 / 3.0), np.float32(0.1), 123456789.0],
        "ints": [0, -7, 2 ** 70, np.array([1, 2], dtype=np.int64)],
        "flags": [True, False, np.bool_(True), np.bool_(False), None],
        "sets": [{"b", "a"}, frozenset({2.5, 1.0, math.nan}), set(),
                 {(1, "x"), (0, "y")}],
        "empty": [{}, [], (), np.zeros(0), np.zeros((0, 2))],
        "nested": ({"z": [[]], "a": ({},)}, np.eye(2)),
        1: "int key", np.int64(2): "numpy key", 2.5: "float key",
        None: "none key", (1, 2): "tuple key",
        "strings": ["h\u00e9 \u2603", "tab\t\"quote\"\n", "\U0001f600", ""],
        "other": [1 + 2j, Path("a/b")],
    }
    assert scenario._render(doc) == _dumps(doc)
    assert scenario._render([]) == _dumps([]) and \
        scenario._render(0.5) == _dumps(0.5)
    # json refuses a numpy integer outside an array, and so does _render
    for bad in (np.int64(3), {"k": [np.int32(1)]}):
        with pytest.raises(TypeError):
            _dumps(bad)
        with pytest.raises(TypeError):
            scenario._render(bad)


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
