import math

import numpy as np
import pytest

import finslercut as fc


def test_inverse_normal_exp_torus(torus_field):
    q = (0, np.array([0.3, 0.1]))
    inv = fc.inverse_normal_exp(torus_field, q)
    assert abs(inv.t - math.hypot(0.3, 0.1)) < 1e-7
    assert inv.residual < 1e-6
    assert inv.t < inv.rho


def test_inverse_normal_exp_rejects_cut_point(circle_field):
    with pytest.raises(fc.CutLocusError):
        fc.inverse_normal_exp(circle_field, (0, np.zeros(2)))


def test_retract_to_N_endpoints(torus_field):
    atlas = torus_field.atlas
    q = (0, np.array([0.2, 0.15]))
    p0 = fc.retract_to_N(torus_field, q, 0.0)
    assert atlas.coord_distance(p0, q) < 1e-7
    p1 = fc.retract_to_N(torus_field, q, 1.0)
    assert atlas.coord_distance(p1, (0, np.zeros(2))) < 1e-9


def test_retract_to_cut_endpoints(torus_field):
    atlas = torus_field.atlas
    q = (0, np.array([0.2, 0.0]))
    c0 = fc.retract_to_cut(torus_field, q, 0.0)
    assert atlas.coord_distance(c0, q) < 1e-7
    c1 = fc.retract_to_cut(torus_field, q, 1.0)
    assert atlas.coord_distance(c1, (0, np.array([0.5, 0.0]))) < 1e-6


def test_retract_to_cut_fixes_cut_points(torus_field):
    atlas = torus_field.atlas
    q = (0, np.array([0.5, 0.2]))   # on the Voronoi edge
    for s in (0.0, 0.4, 1.0):
        c = fc.retract_to_cut(torus_field, q, s)
        assert atlas.coord_distance(c, q) < 1e-6


def test_retract_to_cut_undefined_on_unbounded_ray(circle_field):
    q = (0, np.array([2.5, 0.0]))   # outside the circle: rho = inf
    with pytest.raises(fc.RetractionUndefinedError):
        fc.retract_to_cut(circle_field, q, 0.5)


def test_distance_sq_differential_matches_fd(torus_field):
    q = (0, np.array([0.25, 0.1]))
    rep = fc.check_first_variation(torus_field, q,
                                   [np.array([1.0, 0.0]),
                                    np.array([0.0, 1.0]),
                                    np.array([0.6, -0.8])])
    assert rep.max_deviation < 1e-4


def test_nondifferentiable_at_circle_center(circle_field):
    with pytest.raises(fc.NondifferentiableError) as err:
        fc.distance_sq_differential(circle_field, (0, np.zeros(2)),
                                    np.array([1.0, 0.0]))
    assert len(err.value.one_sided) >= 2


def test_one_sided_spread_large_at_center(circle_field):
    spread = fc.one_sided_spread(circle_field, (0, np.zeros(2)),
                                 np.array([1.0, 0.0]))
    assert spread > 1.0


def test_one_sided_spread_small_off_cut(circle_field):
    spread = fc.one_sided_spread(circle_field, (0, np.array([0.4, 0.0])),
                                 np.array([1.0, 0.0]))
    assert spread < 1e-3


def test_homotopy_trace_is_monotone_toward_N(torus_field):
    atlas = torus_field.atlas
    q = (0, np.array([0.3, 0.05]))
    rows = fc.homotopy_trace(torus_field, q)
    dists = [atlas.coord_distance((c, x), (0, np.zeros(2)))
             for _, c, x in rows]
    assert all(b <= a + 1e-9 for a, b in zip(dists[:-1], dists[1:]))
    assert dists[-1] < 1e-9
