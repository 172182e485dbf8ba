import ast
import dataclasses
import math
from pathlib import Path

import numpy as np

import finslercut as fc
from finslercut import scenario, straight


def _randers_torus_point(b, psi_count=64):
    """The torus-point builtin's geometry under a Randers metric with
    drift (b, 0)."""
    sc = scenario.builtin_scenario("torus-point")
    atlas, _, N, plan = scenario.build_geometry(sc)
    plan = dataclasses.replace(plan, psi_count=psi_count)
    return fc.NormalShooting(fc.RandersMetric(atlas, np.array([b, 0.0])), N,
                             plan)


def test_a_shift_box_over_the_row_budget_shoots():
    for name in ("torus-point", "torus-quartic-point"):
        sc = scenario.builtin_scenario(name)
        field = fc.NormalShooting(*scenario.build_geometry(sc)[1:])
        assert field.straight is not None
    # floor 0.026 at b = 0.95 gives a box of about 2.2e5 rows per ray;
    # floor 0.0055 at b = 0.97 about 4.7e6, too many for one batch
    assert _randers_torus_point(0.95).straight is not None
    assert _randers_torus_point(0.97).straight is None


def test_a_point_source_with_no_positive_floor_shoots():
    field = _randers_torus_point(0.98, psi_count=8)
    assert field.straight is None
    assert straight._unit_circle_floor(field.metric, field.N.chart,
                                       field.N.point(np.zeros(0))) <= 0.0
    for ray in field.rays[:3]:
        assert math.isinf(field.focal_time(ray))
    assert field._flows                 # each focal time stepped a flow


def test_straight_imports_no_session_layer():
    tree = ast.parse(Path(straight.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    banned = {"cutlocus", "topology", "loops", "scenario"}
    assert not {name.rpartition(".")[2] for name in imported} & banned


def test_no_rays_have_no_cut_times():
    # a torus (lattice shifts) and a plane (none): an empty batch of rays
    # is an empty array, so no caller guards an empty ray list
    for name in ("torus-point", "randers-plane-point"):
        sc = scenario.builtin_scenario(name)
        field = fc.NormalShooting(*scenario.build_geometry(sc)[1:])
        rhos = field.straight.cut_times([])
        assert rhos.shape == (0,) and rhos.dtype == float
        field.file_fan([])
        assert not field._cut_times
