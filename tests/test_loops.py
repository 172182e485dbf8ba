import math

import numpy as np
import pytest

import finslercut as fc


def test_reversibility_gate_rejects_randers(randers_setup):
    atlas, metric = randers_setup
    N = fc.point_submanifold(0, np.zeros(2))
    with pytest.raises(fc.ReversibilityError):
        fc.find_geodesic_loop(fc.NormalShooting(metric, N))


def test_torus_loop_through_half_point(torus_field, torus_records):
    atlas = torus_field.atlas
    res = fc.find_geodesic_loop(torus_field, records=torus_records)
    assert res.branch == "loop"
    assert abs(res.length - 1.0) < 1e-5
    assert res.smoothness_residual <= 1e-4
    assert res.midpoint_gap < 1e-5
    assert atlas.coord_distance(res.x0, (0, np.array([0.5, 0.0]))) < 1e-5


def test_quartic_torus_loop_matches_lattice_oracle():
    atlas = fc.torus_atlas([1.0, 1.0])
    metric = fc.MinkowskiQuarticMetric(atlas, eps=0.1)
    N = fc.point_submanifold(0, np.zeros(2))
    plan = fc.ShootingPlan(psi_count=64, horizon=1.5,
                           bisect_tol=1e-8, min_slack=1e-7)
    res = fc.find_geodesic_loop(fc.NormalShooting(metric, N, plan))
    assert res.branch == "loop"
    # shortest lattice loop runs along an axis: length = F(e1) = sqrt(1.1)
    from finslercut.atlas import TangentVec
    expect = metric.F(TangentVec(0, np.zeros(2), np.array([1.0, 0.0])))
    assert abs(res.length - expect) < 1e-4
    assert abs(res.length - 2 * res.d_min) < 1e-6


def test_circle_focal_branch(circle_field, circle_records):
    res = fc.find_geodesic_loop(circle_field, records=circle_records)
    assert res.branch == "focal"
    assert np.allclose(res.x0[1], [0.0, 0.0], atol=1e-6)


def test_min_M_on_cut_torus(torus_field, torus_records):
    q = (0, np.zeros(2))
    x0, val = fc.min_M_on_cut(torus_field, q, torus_records)
    assert abs(val - 1.0) < 1e-5    # out to the cut locus and back


def test_min_M_refuses_unbounded(circle_field):
    records = fc.cut_locus(circle_field)
    q = (0, np.array([0.2, 0.0]))
    with pytest.raises(fc.NumericalFailure):
        fc.min_M_on_cut(circle_field, q, records)


def test_verify_two_segments_torus(torus_field, torus_records):
    rec = torus_records[0]
    report = fc.verify_two_segments(torus_field, rec.cut_point)
    assert report.passed
    assert report.detail["count"] == 2


def test_verify_two_segments_refuses_focal(circle_field, circle_records):
    rec = circle_records[0]
    with pytest.raises(fc.NumericalFailure):
        fc.verify_two_segments(circle_field, rec.cut_point,
                               classification=rec.classification)


def test_torus_corner_has_four_segments(torus_field):
    wit = torus_field.distance((0, np.array([0.5, 0.5])))
    assert len(wit.minimizers) >= 4


def test_two_geodesics_to_torus(torus_field, torus_records):
    q = (0, np.array([0.3, 0.0]))
    res = fc.two_geodesics_to(torus_field, q, records=torus_records)
    assert res.branch == "two-geodesics"
    assert abs(res.lengths[0] - 0.3) < 1e-6
    assert abs(res.lengths[1] - 0.7) < 1e-4   # around the other way
    assert res.joint_residual <= 1e-4


def test_reversibility_defect_values():
    atlas = fc.flat_atlas()
    assert fc.reversibility_defect(fc.euclidean_metric(atlas)) < 1e-14
    randers = fc.RandersMetric(atlas, np.array([0.5, 0.0]))
    assert fc.reversibility_defect(randers) > 0.1
