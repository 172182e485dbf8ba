"""Scenario configuration and its schema check, the builtin registry, task
orchestration, and output emission (JSON, CSV, SVG, run manifest, golden
summaries).

Manifold types, metric and submanifold families, and tasks are tables keyed
by the names a scenario document uses; the schema's enums come from them.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
import time
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from numbers import Number
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .atlas import flat_atlas, sphere_atlas, torus_atlas
from .cutlocus import (NormalShooting, ShootingPlan, check_rho_continuity,
                       check_rho_leq_lambda, check_se_dense, cut_locus)
from .errors import (ConvexityError, FinslerError, RetractionUndefinedError,
                     ReversibilityError, ScenarioError)
from .metric import (MinkowskiQuarticMetric, RandersMetric, euclidean_metric,
                     sphere_metric, validate_metric)
from .submanifold import (axis_line_submanifold, circle_submanifold,
                          ellipse_submanifold, point_submanifold,
                          sample_unit_cone)
from . import loops as loops_mod
from . import topology as topo_mod

SCHEMA_VERSION = "1.0"
RETRACT_PROBES = 50         # query points of the retracts task
DFCHECK_PROBES = 24         # query points of the dfcheck task


# -- geometry construction ------------------------------------------------


# manifold type -> atlas builder(manifold section)
MANIFOLD_TYPES = {
    "flat": lambda man: flat_atlas(),
    "torus": lambda man: torus_atlas(man["periods"]),
    "sphere-stereo": lambda man: sphere_atlas(),
}


def _given(section, **keys):
    """Keyword arguments {parameter: section[key]} for the scenario keys
    that the document sets; the builder's own default covers the rest."""
    return {arg: section[key] for arg, key in keys.items() if key in section}


# metric family -> metric builder(scenario, atlas)
METRIC_FAMILIES = {
    "euclidean": lambda sc, atlas: euclidean_metric(atlas),
    "sphere-round": lambda sc, atlas: sphere_metric(atlas),
    "randers": lambda sc, atlas: RandersMetric(
        atlas, np.asarray(sc.metric.get("b", [0.0, 0.0]))),
    "minkowski-quartic": lambda sc, atlas: MinkowskiQuarticMetric(
        atlas, **_given(sc.metric, eps="eps")),
}

# submanifold family -> submanifold builder(submanifold section)
SUBMANIFOLD_FAMILIES = {
    "point": lambda sub: point_submanifold(
        sub["chart"], np.asarray(sub.get("point", [0.0, 0.0]))),
    "circle": lambda sub: circle_submanifold(
        sub["chart"], **_given(sub, center="center", radius="radius")),
    "ellipse": lambda sub: ellipse_submanifold(
        sub["chart"], **_given(sub, a="a", b="b", center="center")),
    "axis-line": lambda sub: axis_line_submanifold(
        sub["chart"], **_given(sub, point="point", direction="direction",
                               half_extent="halfwidth")),
}


# scenario section -> {scenario key: ShootingPlan field}
_PLAN_KEYS = {
    "grids": {"theta_count": "theta_count", "psi_count": "psi_count",
              "horizon": "horizon"},
    "tolerances": {"ode_rel": "ode_rtol", "ode_abs": "ode_atol",
                   "bisection": "bisect_tol", "min_slack": "min_slack"},
}


def build_geometry(sc: Scenario):
    """Atlas, metric, submanifold, and shooting plan from a scenario."""
    atlas = MANIFOLD_TYPES[sc.manifold["type"]](sc.manifold)
    metric = METRIC_FAMILIES[sc.metric["family"]](sc, atlas)
    N = SUBMANIFOLD_FAMILIES[sc.submanifold["family"]](sc.submanifold)
    plan = ShootingPlan(**{field: getattr(sc, section)[key]
                           for section, keys in _PLAN_KEYS.items()
                           for key, field in keys.items()})
    return atlas, metric, N, plan


# -- serialization --------------------------------------------------------


def _num(x):
    """Numeric payload normalized to 12 significant digits."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return float(f"{x:.12g}")


def _doc(obj):
    if isinstance(obj, dict):
        return {str(k): _doc(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_doc(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_doc(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return _num(obj)
    if isinstance(obj, (int, np.integer, bool, str)) or obj is None:
        return obj
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    return str(obj)


def _render(obj):
    """The text of every JSON document a run or ``write_golden`` writes:
    ``json.dumps(_doc(obj), indent=2, sort_keys=True) + "\\n"``, byte for
    byte, normalized and written in one recursive pass (``_emit``)."""
    out = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii


def _emit(obj, nl, out):
    """Append the JSON text of ``_doc(obj)`` to ``out``, as ``json.dumps``
    indents it at the level whose newline and indent are ``nl``: keys and
    strings through json's ASCII encoder, numbers through ``_num`` and
    ``float.__repr__``, and a set's sorted items as json writes them."""
    if isinstance(obj, dict):
        inner = nl + "  "
        items = {str(k): v for k, v in obj.items()}
        sep = "{"
        for k in sorted(items):
            out.append(f"{sep}{inner}{_quote(k)}: ")
            _emit(items[k], inner, out)
            sep = ","
        out.append("{}" if sep == "{" else nl + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        inner = nl + "  "
        sep = "["
        for v in obj.tolist() if isinstance(obj, np.ndarray) else obj:
            out.append(sep + inner)
            _emit(v, inner, out)
            sep = ","
        out.append("[]" if sep == "[" else nl + "]")
    elif isinstance(obj, (float, np.floating)):
        x = _num(obj)
        out.append(repr(x) if isinstance(x, float) else _quote(x))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        # json refuses a numpy integer, and so does int.__repr__
        out.append(int.__repr__(obj))
    elif isinstance(obj, (set, frozenset)):
        out.append(json.dumps(sorted(obj), indent=2).replace("\n", nl))
    else:
        out.append(_quote(str(obj)))


def record_doc(rec):
    """The document of one cut record, from its raw values as Python
    numbers: ``_render`` normalizes each number once, NaN and the
    infinities as strings."""
    doc = {
        "theta": rec.ray.theta.tolist(),
        "psi": rec.ray.psi.tolist(),
        "rho": float(rec.rho),
        "lambda": float(rec.lam),
        "unbounded": bool(rec.unbounded),
        "cut_point": None, "tangent_cut": None,
        "class": sorted(rec.classification),
        "competitor": None,
    }
    if rec.cut_point is not None:
        chart, x = rec.cut_point
        doc["cut_point"] = [int(chart), *x.tolist()]
        doc["tangent_cut"] = (rec.rho * rec.ray.v).tolist()
    if rec.competitor is not None:
        ray, t = rec.competitor
        doc["competitor"] = {"theta": ray.theta.tolist(),
                             "psi": ray.psi.tolist(), "t": float(t)}
    return doc


def records_csv(records):
    kmax = max((len(r.ray.theta) for r in records), default=0)
    cmax = max((len(r.ray.psi) for r in records), default=1)
    head = ([f"theta{i+1}" for i in range(kmax)]
            + [f"psi{i+1}" for i in range(cmax)]
            + ["rho", "lambda"]
            + ["x1", "x2", "class"])
    lines = [",".join(head)]
    for r in records:
        row = [f"{v:.12g}" for v in r.ray.theta]
        row += [f"{v:.12g}" for v in r.ray.psi]
        row += [f"{r.rho:.12g}", f"{r.lam:.12g}"]
        if r.cut_point is not None:
            row += [f"{v:.12g}" for v in r.cut_point[1]]
        else:
            row += ["", ""]
        row.append("|".join(sorted(r.classification)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _svg_polyline(points, color, width=0.01):
    pts = " ".join(f"{p[0]:.6g},{p[1]:.6g}" for p in points)
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}" />')


def records_svg(atlas, N, records):
    """Plain SVG 1.1 diagram of N, the cut points, and a few geodesics."""
    pts = [r.cut_point[1] for r in records if r.cut_point is not None]
    npts = []
    if N.k > 0:
        thetas = np.linspace(N.theta_box[0], N.theta_box[1], 181)
        npts = [N.point(np.atleast_1d(t)) for t in thetas]
    else:
        npts = [N.point(np.zeros(0))]
    allp = [np.asarray(p) for p in pts] + [np.asarray(p) for p in npts]
    if not allp:
        allp = [np.zeros(2)]
    arr = np.array(allp)
    lo = arr.min(axis=0) - 0.3
    hi = arr.max(axis=0) + 0.3
    w, h = hi - lo
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{lo[0]:.4g} {lo[1]:.4g} {w:.4g} {h:.4g}" '
        f'width="480" height="480">',
        f'<g transform="translate(0,{(lo[1] + hi[1]):.6g}) scale(1,-1)">',
    ]
    if len(npts) > 1:
        parts.append(_svg_polyline(npts, "#336699", 0.012))
    else:
        p = npts[0]
        parts.append(f'<circle cx="{p[0]:.6g}" cy="{p[1]:.6g}" r="0.02" '
                     f'fill="#336699" />')
    for p in pts:
        parts.append(f'<circle cx="{p[0]:.6g}" cy="{p[1]:.6g}" r="0.008" '
                     f'fill="#cc3333" />')
    parts.append("</g></svg>")
    return "\n".join(parts) + "\n"


# -- task runners ---------------------------------------------------------


def _probe_points(field, records, rng, count, lo=0.15, hi=0.85):
    """Off-cut probe points along finite-rho rays, with their records."""
    finite = [r for r in records
              if r.cut_point is not None and np.isfinite(r.rho)]
    probes = []
    while len(probes) < count and finite:
        rec = finite[rng.integers(len(finite))]
        u = rng.uniform(lo, hi)
        t = u * rec.rho
        probes.append((field.path(rec.ray, max(t, 1e-9)).position(t), rec, t))
    return probes


@dataclass
class TaskRun:
    """State that the task runners of one scenario run share."""
    sc: Scenario
    metric: object
    N: object
    plan: ShootingPlan
    rng: np.random.Generator
    files: dict                 # output file name -> text payload
    records: list = None        # cut records, once a task has computed them

    @cached_property
    def field(self):
        """The shooting field, built by the first task that needs it."""
        return NormalShooting(self.metric, self.N, self.plan)


def _task_validate(run):
    rep = validate_metric(run.metric, seed=run.sc.seed)
    return {
        "passed": bool(rep.passed),
        "homogeneity_max": _num(rep.homogeneity_max),
        "min_eigenvalue": _num(rep.min_eigenvalue),
        "cartan_contraction_max": _num(rep.cartan_contraction_max),
        "reversibility_max": _num(rep.reversibility_max),
        "identity_max": _num(rep.identity_max),
        "failures": list(rep.failures),
    }, not rep.passed


def _task_cutlocus(run):
    records = run.records = cut_locus(run.field, side=run.sc.grids["side"])
    atlas, name = run.metric.atlas, run.sc.name
    run.files[f"{name}_cutlocus.csv"] = records_csv(records)
    run.files[f"{name}_cutlocus.svg"] = records_svg(atlas, run.N, records)
    finite = [r.rho for r in records if np.isfinite(r.rho)]
    return {
        "n_records": len(records),
        "n_finite": len(finite),
        "rho_min": _num(min(finite)) if finite else None,
        "rho_max": _num(max(finite)) if finite else None,
        "records": [record_doc(r) for r in records],
    }, False


def _task_classify(run):
    violations = [rec.diagnostics["violation"] for rec in run.records
                  if rec.cut_point is not None and not rec.classification]
    hist = {}
    for rec in run.records:
        key = "+".join(sorted(rec.classification)) or "(none)"
        hist[key] = hist.get(key, 0) + 1
    return {"histogram": hist, "violations": violations}, bool(violations)


def _task_retracts(run):
    field, records = run.field, run.records
    cut = next((r.cut_point for r in records if r.cut_point is not None),
               None)
    if cut is None:
        raise RetractionUndefinedError("no normal ray has a finite cut time")
    worst_n0 = worst_n1 = worst_c0 = worst_c1 = 0.0
    traces = []
    atlas = field.atlas
    probes = _probe_points(field, records, run.rng, RETRACT_PROBES)
    # every probe's witness, filed in one batch before the loop reads it
    field.distances([q for q, _, _ in probes])
    for k, (q, rec, t) in enumerate(probes):
        # one inverse per probe, read by both retractions and the trace
        inv = topo_mod.inverse_normal_exp(field, q)
        p0, p1 = topo_mod.retractions_to_N(field, inv, (0.0, 1.0))
        worst_n0 = max(worst_n0, atlas.coord_distance(p0, q))
        base = (inv.ray.chart, inv.ray.x)
        worst_n1 = max(worst_n1, atlas.coord_distance(p1, base))
        c0, c1 = topo_mod.retractions_to_cut(field, inv, (0.0, 1.0))
        worst_c0 = max(worst_c0, atlas.coord_distance(c0, q))
        worst_c1 = max(worst_c1, atlas.coord_distance(c1, rec.cut_point))
        if k < 3:
            traces.append([(s, c, list(x)) for s, c, x in
                           topo_mod.homotopy_trace(field, q, inv)])
    fixed_cut = atlas.coord_distance(
        topo_mod.retract_to_cut(field, cut, 0.7), cut)
    doc = {
        "n_probes": RETRACT_PROBES,
        "retract_to_N_s0_max": _num(worst_n0),
        "retract_to_N_s1_max": _num(worst_n1),
        "retract_to_cut_s0_max": _num(worst_c0),
        "retract_to_cut_s1_max": _num(worst_c1),
        "cut_point_fixed_residual": _num(fixed_cut),
        "traces": _doc(traces),
    }
    bad = max(worst_n0, worst_n1, worst_c0, worst_c1, fixed_cut) > 1e-5
    return doc, bad


def _task_dfcheck(run):
    field, records, rng = run.field, run.records, run.rng
    if records is None:
        # point sources without a cut-locus task: probe a disk around N
        base = field.rays[0].x
        probes = []
        for _ in range(DFCHECK_PROBES):
            ang = rng.uniform(0, 2 * np.pi)
            rad = rng.uniform(0.2, 1.2)
            probes.append(((field.N.chart,
                            base + rad * np.array([np.cos(ang), np.sin(ang)])),
                           None, rad))
    else:
        probes = _probe_points(field, records, rng, DFCHECK_PROBES,
                               lo=0.1, hi=0.8)
    items = []
    for q, _, _ in probes:
        angs = rng.uniform(0, 2 * np.pi, 3)
        items.append((q, [np.array([np.cos(a), np.sin(a)]) for a in angs]))
    worst = 0.0
    rows = []
    for rep in topo_mod.check_first_variations(field, items):
        worst = max(worst, rep.max_deviation)
        rows.append({"q": _doc(rep.q[1]), "max_dev": _num(rep.max_deviation)})
    return ({"n_probes": len(probes), "max_deviation": _num(worst),
             "probes": rows}, worst > 1e-4)


def _task_loops(run):
    field = run.field
    try:
        res = loops_mod.find_geodesic_loop(field, records=run.records)
    except ReversibilityError as exc:
        return {"branch": "rejected-irreversible", "error": str(exc)}, False
    doc = {
        "branch": res.branch,
        "x0": [res.x0[0]] + _doc(np.asarray(res.x0[1])),
        "d_min": _num(res.d_min),
        "length": _num(res.length),
        "smoothness_residual": _num(res.smoothness_residual),
        "midpoint_gap": _num(res.midpoint_gap),
        "loop_csv_rows": len(res.loop),
    }
    if res.loop:
        lines = ["s,chart,x1,x2"]
        for t, c, x in res.loop:
            lines.append(f"{t:.12g},{c}," + ",".join(f"{v:.12g}" for v in x))
        run.files[f"{run.sc.name}_loop.csv"] = "\n".join(lines) + "\n"
    bad = res.branch == "loop" and (res.smoothness_residual > 1e-4
                                    or res.midpoint_gap > 1e-5)
    return doc, bad


def _task_theorems(run):
    field = run.field
    side = run.sc.grids["side"]
    if run.records is None:
        run.records = cut_locus(field, side=side)
    records = run.records
    reports = []
    reports.append(check_rho_leq_lambda(records))
    if any(r.classification for r in records):
        reports.append(check_se_dense(records, atlas=field.atlas))
    # the rho-continuity study records refine_levels nested grids on the
    # run's one field, coarsest first, each with half the rays of the next
    levels, plan = [records], run.plan
    for k in range(1, run.sc.grids["refine_levels"]):
        coarse, _ = sample_unit_cone(run.metric, run.N, (
            max(1, plan.theta_count >> k), max(1, plan.psi_count >> k)))
        levels.insert(0, cut_locus(field, side=side, rays=coarse))
    if len(levels) > 1:
        reports.append(check_rho_continuity(levels))
    doc = [{"name": r.name, "passed": bool(r.passed),
            "detail": _doc(r.detail)} for r in reports]
    return doc, any(not r.passed for r in reports)


# task name -> runner(TaskRun) -> (document, whether it flagged a violation)
TASKS = {
    "validate": _task_validate,
    "cutlocus": _task_cutlocus,
    "classify": _task_classify,
    "retracts": _task_retracts,
    "dfcheck": _task_dfcheck,
    "loops": _task_loops,
    "theorems": _task_theorems,
}
# tasks that read the cut records, so "cutlocus" must be listed before them
_NEEDS_CUTLOCUS = ("classify", "retracts")


# -- scenario documents -------------------------------------------------

# every manifold is 2-dimensional: points, vectors and periods are pairs
_PAIR = {"type": "array", "minItems": 2, "maxItems": 2}
_VECTOR = {**_PAIR, "items": {"type": "number"}}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "scenario",
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "manifold", "metric", "submanifold"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "name": {"type": "string", "minLength": 1},
        "manifold": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type"],
            "properties": {
                "type": {"enum": list(MANIFOLD_TYPES)},
                "periods": {**_PAIR, "items": {"type": "number",
                                               "exclusiveMinimum": 0}},
            },
        },
        "metric": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {"enum": list(METRIC_FAMILIES)},
                "b": _VECTOR,
                "eps": {"type": "number", "exclusiveMinimum": 0,
                        "exclusiveMaximum": 1},
            },
        },
        "submanifold": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {"enum": list(SUBMANIFOLD_FAMILIES)},
                "chart": {"type": "integer", "minimum": 0},
                "point": _VECTOR,
                "center": _VECTOR,
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "a": {"type": "number", "exclusiveMinimum": 0},
                "b": {"type": "number", "exclusiveMinimum": 0},
                "direction": _VECTOR,
                "halfwidth": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "grids": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "theta_count": {"type": "integer", "minimum": 1},
                "psi_count": {"type": "integer", "minimum": 1},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "refine_levels": {"type": "integer", "minimum": 1},
                "side": {"enum": [1, -1, None]},
            },
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "ode_rel": {"type": "number", "exclusiveMinimum": 0},
                "ode_abs": {"type": "number", "exclusiveMinimum": 0},
                "bisection": {"type": "number", "exclusiveMinimum": 0},
                "min_slack": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "tasks": {"type": "array", "items": {"enum": list(TASKS)}},
        "seed": {"type": "integer", "minimum": 0,
                 "maximum": 2 ** 64 - 1},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string"},
            },
        },
    },
}


# -- schema checking ------------------------------------------------------
# The keywords SCHEMA uses, checked as jsonschema 4.26 checks them: its JSON
# types, its message for each keyword, and the error its best_match picks
# (tests/test_scenario.py compares against jsonschema).  A keyword missing
# from _KEYWORDS raises KeyError instead of passing unchecked.

_JSON_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    # a bool is no number, and an integral float is an integer
    "number": lambda x: isinstance(x, Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}


def _same(x, value):
    """JSON equality of ``x`` and a scalar schema value: True is not 1."""
    return x == value and isinstance(x, bool) == isinstance(value, bool)


def _rule(kind, fails, message):
    """Keyword that checks ``x`` of JSON type ``kind`` (None: any type)."""
    def keyword(value, x, schema, path):
        if (kind is None or _JSON_TYPES[kind](x)) and fails(x, value):
            yield path, message(x, value)
    return keyword


def _required(names, x, schema, path):
    if isinstance(x, dict):
        for name in names:
            if name not in x:
                yield path, f"{name!r} is a required property"


def _no_additional(_false, x, schema, path):
    """additionalProperties: false"""
    if isinstance(x, dict):
        extras = sorted((k for k in x if k not in schema["properties"]),
                        key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            yield path, (f"Additional properties are not allowed "
                         f"({', '.join(map(repr, extras))} {verb} unexpected)")


def _properties(subschemas, x, schema, path):
    if isinstance(x, dict):
        for key, sub in subschemas.items():
            if key in x:
                yield from _errors(sub, x[key], path + (key,))


def _items(sub, x, schema, path):
    if isinstance(x, list):
        for i, item in enumerate(x):
            yield from _errors(sub, item, path + (i,))


_KEYWORDS = {
    "type": _rule(None, lambda x, t: not _JSON_TYPES[t](x),
                  lambda x, t: f"{x!r} is not of type {t!r}"),
    "const": _rule(None, lambda x, c: not _same(x, c),
                   lambda x, c: f"{c!r} was expected"),
    "enum": _rule(None, lambda x, e: not any(_same(x, v) for v in e),
                  lambda x, e: f"{x!r} is not one of {e!r}"),
    "required": _required,
    "additionalProperties": _no_additional,
    "properties": _properties,
    "items": _items,
    "minItems": _rule("array", lambda x, n: len(x) < n, lambda x, n: (
        f"{x!r} should be non-empty" if n == 1 else f"{x!r} is too short")),
    "maxItems": _rule("array", lambda x, n: len(x) > n, lambda x, n: (
        f"{x!r} is expected to be empty" if n == 0 else f"{x!r} is too long")),
    "minLength": _rule("string", lambda x, n: len(x) < n, lambda x, n: (
        f"{x!r} should be non-empty" if n == 1 else f"{x!r} is too short")),
    "minimum": _rule("number", lambda x, m: x < m, lambda x, m: (
        f"{x!r} is less than the minimum of {m!r}")),
    "maximum": _rule("number", lambda x, m: x > m, lambda x, m: (
        f"{x!r} is greater than the maximum of {m!r}")),
    "exclusiveMinimum": _rule("number", lambda x, m: x <= m, lambda x, m: (
        f"{x!r} is less than or equal to the minimum of {m!r}")),
    "exclusiveMaximum": _rule("number", lambda x, m: x >= m, lambda x, m: (
        f"{x!r} is greater than or equal to the maximum of {m!r}")),
}
_ANNOTATIONS = ("$schema", "title")


def _errors(schema, x, path=()):
    """(path, message) of each way ``x`` breaks ``schema``, in jsonschema's
    order: keyword by keyword, as the schema lists them."""
    for keyword, value in schema.items():
        if keyword not in _ANNOTATIONS:
            yield from _KEYWORDS[keyword](value, x, schema, path)


def schema_error(data):
    """(path, message) of the error ``jsonschema.validate(data, SCHEMA)``
    raises, or None when ``data`` conforms.

    best_match takes the largest key: the shallowest error, then the
    greatest path.  Its other terms only split errors of one schema node,
    which share a path here (the schema has no anyOf or oneOf), so the first
    error found wins a tie.
    """
    return max(_errors(SCHEMA, data), key=lambda e: (-len(e[0]), e[0]),
               default=None)


def _integers(schema, x):
    """``x``, conforming to ``schema``, with each value the schema types
    ``integer`` made an int: the type admits integral floats such as 16.0,
    and the program indexes and shifts with these values."""
    if schema.get("type") == "integer":
        return int(x)
    if isinstance(x, dict) and "properties" in schema:
        return {key: _integers(schema["properties"][key], value)
                for key, value in x.items()}
    if isinstance(x, list) and "items" in schema:
        return [_integers(schema["items"], item) for item in x]
    return x


def _non_finite(x, path=()):
    """The path of the first number in ``x`` that is NaN or infinite, which
    Python's JSON reader admits and JSON does not, else None."""
    if isinstance(x, float) and not math.isfinite(x):
        return path
    items = x.items() if isinstance(x, dict) else \
        enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        got = _non_finite(value, path + (key,))
        if got is not None:
            return got
    return None


def _plan_defaults(section):
    """The ShootingPlan defaults of a scenario section, by scenario key."""
    plan = ShootingPlan()
    return {key: getattr(plan, field)
            for key, field in _PLAN_KEYS[section].items()}


_DEFAULTS = {
    "manifold": {"periods": [1.0, 1.0]},
    "metric": {},
    "submanifold": {"chart": 0},
    "grids": {**_plan_defaults("grids"), "refine_levels": 1, "side": None},
    "tolerances": _plan_defaults("tolerances"),
    "tasks": ["validate", "cutlocus", "classify", "theorems"],
    "seed": 0,
    "output": {"directory": "out"},
}


@dataclass
class Scenario:
    name: str
    manifold: dict
    metric: dict
    submanifold: dict
    grids: dict
    tolerances: dict
    tasks: list
    seed: int
    output: dict


def _merged(section, data):
    out = dict(_DEFAULTS.get(section, {}))
    out.update(data.get(section, {}))
    return out


def parse_scenario(text) -> Scenario:
    """Validated Scenario from a JSON document (or an already-parsed dict)."""
    if isinstance(text, dict):
        data = text
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    err = schema_error(data)
    if err is not None:
        path, msg = err
        pointer = "/" + "/".join(map(str, path))
        if path[1:] == ("family",):
            opts = (METRIC_FAMILIES if path[0] == "metric"
                    else SUBMANIFOLD_FAMILIES)
            msg = (f"unknown family {data[path[0]]['family']!r}; "
                   f"valid: {', '.join(opts)}")
        raise ScenarioError(f"invalid scenario at {pointer}: {msg}",
                            pointer=pointer)
    path = _non_finite(data)
    if path is not None:
        pointer = "/" + "/".join(map(str, path))
        raise ScenarioError(f"invalid scenario at {pointer}: a number must "
                            f"be finite", pointer=pointer)
    data = _integers(SCHEMA, data)
    tasks = list(data.get("tasks", _DEFAULTS["tasks"]))
    for i, task in enumerate(tasks):
        if task in _NEEDS_CUTLOCUS and "cutlocus" not in tasks[:i]:
            raise ScenarioError(
                f"invalid scenario at /tasks/{i}: {task} needs cutlocus "
                f"listed before it", pointer=f"/tasks/{i}")
    if (data["metric"]["family"] == "sphere-round"
            and data["manifold"]["type"] != "sphere-stereo"):
        raise ScenarioError(
            "invalid scenario at /metric/family: sphere-round metric needs "
            "a sphere-stereo manifold", pointer="/metric/family")
    sc = Scenario(
        name=data["name"],
        manifold=_merged("manifold", data),
        metric=_merged("metric", data),
        submanifold=_merged("submanifold", data),
        grids=_merged("grids", data),
        tolerances=_merged("tolerances", data),
        tasks=tasks,
        seed=data.get("seed", _DEFAULTS["seed"]),
        output=_merged("output", data),
    )
    if sc.submanifold["family"] == "point" and sc.grids["side"] is not None:
        raise ScenarioError(
            "invalid scenario at /grids/side: a point source has one side, "
            "so side must be null", pointer="/grids/side")
    # the schema cannot state |b|_a < 1 (the schema bounds the quartic eps),
    # so the metric's own constructor checks the Randers drift; nor can it
    # name the charts of the atlas, nor refuse a zero axis-line direction,
    # which the submanifold's constructor refuses
    atlas = MANIFOLD_TYPES[sc.manifold["type"]](sc.manifold)
    try:
        METRIC_FAMILIES[sc.metric["family"]](sc, atlas)
    except ConvexityError as exc:
        raise ScenarioError(f"invalid scenario at /metric/b: {exc}",
                            pointer="/metric/b") from exc
    if not sc.submanifold["chart"] < atlas.n_charts:
        raise ScenarioError(
            f"invalid scenario at /submanifold/chart: chart "
            f"{sc.submanifold['chart']} is not one of the {atlas.n_charts} "
            f"charts of a {sc.manifold['type']} manifold",
            pointer="/submanifold/chart")
    try:
        SUBMANIFOLD_FAMILIES[sc.submanifold["family"]](sc.submanifold)
    except ValueError as exc:
        raise ScenarioError(f"invalid scenario at /submanifold/direction: "
                            f"{exc}", pointer="/submanifold/direction") \
            from exc
    return sc


# -- builtin registry -----------------------------------------------------

BUILTINS = {
    "sphere-point": {
        "name": "sphere-point",
        "manifold": {"type": "sphere-stereo"},
        "metric": {"family": "sphere-round"},
        "submanifold": {"family": "point", "point": [0.0, 0.0]},
        "grids": {"psi_count": 64, "horizon": 4.0},
        "tolerances": {"ode_rel": 1e-8, "ode_abs": 1e-10,
                       "min_slack": 1e-5},
        "tasks": ["validate", "cutlocus", "classify", "theorems"],
        "seed": 11,
    },
    "sphere-equator": {
        "name": "sphere-equator",
        "manifold": {"type": "sphere-stereo"},
        "metric": {"family": "sphere-round"},
        "submanifold": {"family": "circle", "radius": 1.0},
        "grids": {"theta_count": 32, "horizon": 4.0},
        "tolerances": {"ode_rel": 1e-8, "ode_abs": 1e-10,
                       "min_slack": 1e-5},
        "tasks": ["cutlocus", "classify", "loops", "theorems"],
        "seed": 12,
    },
    "torus-point": {
        "name": "torus-point",
        "manifold": {"type": "torus", "periods": [1.0, 1.0]},
        "metric": {"family": "euclidean"},
        "submanifold": {"family": "point", "point": [0.0, 0.0]},
        "grids": {"psi_count": 128, "horizon": 1.5, "refine_levels": 2},
        "tolerances": {"bisection": 1e-8, "min_slack": 1e-7},
        "tasks": ["validate", "cutlocus", "classify", "retracts",
                  "dfcheck", "loops", "theorems"],
        "seed": 13,
    },
    "torus-quartic-point": {
        "name": "torus-quartic-point",
        "manifold": {"type": "torus", "periods": [1.0, 1.0]},
        "metric": {"family": "minkowski-quartic", "eps": 0.1},
        "submanifold": {"family": "point", "point": [0.0, 0.0]},
        "grids": {"psi_count": 64, "horizon": 1.5},
        "tolerances": {"bisection": 1e-8, "min_slack": 1e-7},
        "tasks": ["validate", "cutlocus", "classify", "loops", "theorems"],
        "seed": 14,
    },
    "plane-circle": {
        "name": "plane-circle",
        "manifold": {"type": "flat"},
        "metric": {"family": "euclidean"},
        "submanifold": {"family": "circle", "radius": 1.0},
        "grids": {"theta_count": 128, "horizon": 3.0, "side": 1,
                  "refine_levels": 2},
        "tasks": ["validate", "cutlocus", "classify", "dfcheck", "theorems"],
        "seed": 15,
    },
    "plane-ellipse": {
        "name": "plane-ellipse",
        "manifold": {"type": "flat"},
        "metric": {"family": "euclidean"},
        "submanifold": {"family": "ellipse", "a": 2.0, "b": 1.0},
        "grids": {"theta_count": 256, "horizon": 3.0, "side": 1},
        "tasks": ["cutlocus", "classify", "retracts", "theorems"],
        "seed": 16,
    },
    "randers-plane-point": {
        "name": "randers-plane-point",
        "manifold": {"type": "flat"},
        "metric": {"family": "randers", "b": [0.5, 0.0]},
        "submanifold": {"family": "point", "point": [0.0, 0.0]},
        "grids": {"psi_count": 64, "horizon": 3.0},
        "tasks": ["validate", "dfcheck", "loops"],
        "seed": 17,
    },
    "randers-plane-axis": {
        "name": "randers-plane-axis",
        "manifold": {"type": "flat"},
        "metric": {"family": "randers", "b": [0.5, 0.0]},
        "submanifold": {"family": "axis-line", "point": [0.0, 0.0],
                        "direction": [0.0, 1.0], "halfwidth": 4.0},
        "grids": {"theta_count": 33, "horizon": 3.0},
        "tasks": ["validate", "cutlocus"],
        "seed": 18,
    },
}

_DESCRIPTIONS = {
    "sphere-point": "round sphere, point source; every cut time is pi",
    "sphere-equator": "round sphere, equator curve; poles are focal",
    "torus-point": "flat unit torus, point source; Voronoi-edge cut locus",
    "torus-quartic-point": "flat torus with a quartic Minkowski norm",
    "plane-circle": "Euclidean plane, unit circle; center is the cut locus",
    "plane-ellipse": "Euclidean plane, 2x1 ellipse; medial segment cut locus",
    "randers-plane-point": "irreversible Randers plane, point source",
    "randers-plane-axis": "Randers plane, vertical line; asymmetric normals",
}


def list_builtin_scenarios():
    return [(name, _DESCRIPTIONS[name]) for name in BUILTINS]


def builtin_scenario(name) -> Scenario:
    if name not in BUILTINS:
        raise ScenarioError(
            f"unknown builtin {name!r}; available: {', '.join(BUILTINS)}")
    return parse_scenario(json.dumps(BUILTINS[name]))


# -- orchestration --------------------------------------------------------


@dataclass
class OutputBundle:
    scenario: Scenario
    documents: dict = dc_field(default_factory=dict)
    files: dict = dc_field(default_factory=dict)      # name -> text payload
    errors: list = dc_field(default_factory=list)
    violations: list = dc_field(default_factory=list)  # sorted task names
    wall_time: float = 0.0
    manifest: dict = dc_field(default_factory=dict)

    def write(self, out_dir):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        hashes = {}
        for name, payload in self.files.items():
            path = out / name
            path.write_text(payload)
            hashes[name] = hashlib.sha256(payload.encode()).hexdigest()
        self.manifest["files"] = hashes
        man = json.dumps(self.manifest, indent=2, sort_keys=True) + "\n"
        (out / "manifest.json").write_text(man)
        return out


def _cutlocus_summary(doc):
    keep = {k: v for k, v in doc.items() if k != "records"}
    keep["rho_values"] = [r["rho"] for r in doc["records"]]
    keep["lambda_values"] = [r["lambda"] for r in doc["records"]]
    return keep


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


# task -> its document as the golden summary keeps it: per-record and
# per-probe detail is left out, the cut and focal times are kept
_SUMMARIES = {
    "cutlocus": _cutlocus_summary,
    "retracts": _without("traces"),
    "dfcheck": _without("probes"),
}


def summary_document(bundle: OutputBundle) -> dict:
    """Stable numeric summary used for golden-file comparison."""
    keep = {task: _SUMMARIES[task](doc) if task in _SUMMARIES else doc
            for task, doc in bundle.documents.items()}
    return {"name": bundle.scenario.name, "seed": bundle.scenario.seed,
            "tasks": keep}


def run_scenario(sc: Scenario, out_dir=None):
    """Execute the scenario's tasks in order on one shooting field.

    The field is built by the first task that needs it, so a cone-sampling
    failure is recorded against that task.  A task that raises a numerical
    error is recorded in ``errors`` and the run goes on; any other exception
    propagates.  ``sc`` is not modified.
    """
    t_start = time.perf_counter()
    _, metric, N, plan = build_geometry(sc)
    bundle = OutputBundle(sc)
    run = TaskRun(sc, metric, N, plan, rng=np.random.default_rng(sc.seed),
                  files=bundle.files)
    flagged = set()
    for task in sc.tasks:
        try:
            doc, bad = TASKS[task](run)
        except (FinslerError, np.linalg.LinAlgError) as exc:
            bundle.errors.append({"task": task, "error": repr(exc)})
            continue
        bundle.documents[task] = doc
        if bad:
            flagged.add(task)
    bundle.violations = sorted(flagged)

    bundle.wall_time = time.perf_counter() - t_start
    summary = summary_document(bundle)
    bundle.files[f"{sc.name}_summary.json"] = _render(summary)
    for task, doc in bundle.documents.items():
        bundle.files[f"{sc.name}_{task}.json"] = _render(doc)
    bundle.manifest = {
        "scenario": sc.name,
        "seed": sc.seed,
        "schema_version": SCHEMA_VERSION,
        "package_version": _pkg_version,
        "numpy": np.__version__,
        # the scipy the run loaded, if any: a builtin run imports none
        "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        "python": platform.python_version(),
        "wall_time_s": round(bundle.wall_time, 3),
        "errors": bundle.errors,
        "violations": bundle.violations,
        "sample_failures": dict(Counter(
            type(exc).__name__ for *_, exc in
            (run.field.sample_failures if "field" in vars(run) else ()))),
    }
    if out_dir is not None:
        bundle.write(out_dir)
    return bundle


# -- golden summaries -----------------------------------------------------


# magnitude a noise-level golden field may always reach, see _compare
NOISE_FLOOR = 1e-13


def golden_dir():
    return Path(__file__).parent / "golden"


def golden_path(name):
    return golden_dir() / f"{name}.json"


def _compare(a, b, path, rtol, diffs):
    """Differences of the summary ``a`` from the golden ``b``.  Numbers
    must agree to ``rtol``, relative or absolute; a number whose golden
    magnitude is below ``rtol`` (a residual or a noise-level maximum) must
    also stay within max(10 |golden|, 1e-13) in magnitude, since the
    absolute tolerance alone would let it grow by orders of magnitude."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                diffs.append(f"{path}/{k}: missing")
            else:
                _compare(a[k], b[k], f"{path}/{k}", rtol, diffs)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(a)} vs {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _compare(x, y, f"{path}/{i}", rtol, diffs)
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        if not math.isclose(float(a), float(b), rel_tol=rtol,
                            abs_tol=rtol):
            diffs.append(f"{path}: {a} vs {b}")
        elif abs(b) < rtol and abs(a) > max(10.0 * abs(b), NOISE_FLOOR):
            diffs.append(f"{path}: {a} vs {b} (noise-level field grew "
                         f"past 10x its golden)")
    elif a != b:
        diffs.append(f"{path}: {a!r} vs {b!r}")


def compare_to_golden(summary, name, rtol=1e-9):
    path = golden_path(name)
    if not path.exists():
        return [f"no golden summary for {name}"]
    golden = json.loads(path.read_text())
    diffs = []
    _compare(_doc(summary), golden, "", rtol, diffs)
    return diffs


def write_golden(summary, name):
    golden_dir().mkdir(exist_ok=True)
    golden_path(name).write_text(_render(summary))
