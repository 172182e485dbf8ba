import math

import numpy as np
import pytest

import finslercut as fc
from finslercut import dual
from finslercut.atlas import TangentVec
from finslercut.cutlocus import FOCAL_FLOOR


def _plane():
    atlas = fc.flat_atlas()
    return atlas, fc.euclidean_metric(atlas)


def _focal_time(metric, N, ray, T):
    """First focal time along the ray in (FOCAL_FLOOR, T], as a shooting
    field reads it."""
    return fc.first_degeneracy(fc.normal_jacobi_flow(metric, N, ray, T),
                               FOCAL_FLOOR, T)


def test_unit_normal_has_unit_norm_and_orthogonality():
    atlas, metric = _plane()
    N = fc.circle_submanifold(0, (0.0, 0.0), 1.0)
    for theta in (0.0, 0.7, 2.0, 5.5):
        for psi in (1.0, -1.0):
            ray = fc.unit_normal(metric, N, theta, psi)
            assert math.isclose(metric.F(ray.tangent()), 1.0, rel_tol=1e-10)
            assert ray.orth_residual < 1e-8


def test_circle_annihilator_convention_points_inward_for_psi_plus():
    atlas, metric = _plane()
    N = fc.circle_submanifold(0, (0.0, 0.0), 1.0)
    ray = fc.unit_normal(metric, N, 0.0, 1.0)
    # at (1, 0) on a counterclockwise circle, psi = +1 points to the center
    assert np.allclose(ray.x, [1.0, 0.0], atol=1e-12)
    assert np.allclose(ray.v, [-1.0, 0.0], atol=1e-10)


def test_randers_axis_normals_closed_form():
    atlas = fc.flat_atlas()
    metric = fc.RandersMetric(atlas, np.array([0.5, 0.0]))
    N = fc.axis_line_submanifold(0, (0.0, 0.0), (0.0, 1.0))
    plus = fc.unit_normal(metric, N, 0.0, 1.0)
    minus = fc.unit_normal(metric, N, 0.0, -1.0)
    vs = sorted([plus.v, minus.v], key=lambda v: v[0])
    assert np.allclose(vs[0], [-2.0, 0.0], atol=1e-8)
    assert np.allclose(vs[1], [2.0 / 3.0, 0.0], atol=1e-8)


def test_point_cone_is_full_unit_sphere():
    atlas, metric = _plane()
    N = fc.point_submanifold(0, np.zeros(2))
    rays, failures = fc.sample_unit_cone(metric, N, (1, 8))
    assert not failures
    assert len(rays) == 8
    for ray in rays:
        assert math.isclose(metric.F(ray.tangent()), 1.0, rel_tol=1e-10)


def test_hypersurface_cone_has_two_sides():
    atlas, metric = _plane()
    N = fc.circle_submanifold(0, (0.0, 0.0), 1.0)
    rays, failures = fc.sample_unit_cone(metric, N, (16, 2))
    assert not failures
    signs = {np.sign(r.psi[0]) for r in rays}
    assert signs == {1.0, -1.0}
    assert len(rays) == 32


def test_normal_exp_flat_circle():
    atlas, metric = _plane()
    N = fc.circle_submanifold(0, (0.0, 0.0), 1.0)
    ray = fc.unit_normal(metric, N, 0.0, 1.0)
    chart, x = fc.exp_map(metric, (ray.chart, ray.x), 0.4 * ray.v)
    assert np.allclose(x, [0.6, 0.0], atol=1e-9)


def test_normal_jacobian_degenerates_at_circle_center():
    atlas, metric = _plane()
    N = fc.circle_submanifold(0, (0.0, 0.0), 1.0)
    ray = fc.unit_normal(metric, N, 0.3, 1.0)
    flow = fc.normal_jacobi_flow(metric, N, ray, 1.5)
    d_half = abs(np.linalg.det(flow.signed_matrix(0.5)[0]))
    d_one = abs(np.linalg.det(flow.signed_matrix(1.0)[0]))
    assert d_one < 1e-6 * max(d_half, 1e-30)


def test_focal_time_circle_is_radius():
    atlas, metric = _plane()
    N = fc.circle_submanifold(0, (0.0, 0.0), 1.0)
    ray = fc.unit_normal(metric, N, 1.1, 1.0)
    lam = _focal_time(metric, N, ray, 2.0)
    assert abs(lam - 1.0) < 1e-6


def test_focal_time_outward_is_infinite():
    atlas, metric = _plane()
    N = fc.circle_submanifold(0, (0.0, 0.0), 1.0)
    ray = fc.unit_normal(metric, N, 1.1, -1.0)
    lam = _focal_time(metric, N, ray, 3.0)
    assert math.isinf(lam)


def test_ellipse_focal_times_from_curvature():
    # focal distance along the inward normal is 1/kappa:
    # kappa = a/b^2 at the major vertex, b/a^2 at the minor vertex
    atlas, metric = _plane()
    N = fc.ellipse_submanifold(0, a=2.0, b=1.0)
    lam_major = _focal_time(
        metric, N, fc.unit_normal(metric, N, 0.0, 1.0), 6.0)
    lam_minor = _focal_time(
        metric, N, fc.unit_normal(metric, N, math.pi / 2, 1.0), 6.0)
    assert abs(lam_major - 0.5) < 1e-6
    assert abs(lam_minor - 4.0) < 1e-5


def test_immersion_rank_check():
    bad = fc.SubmanifoldSpec(0, 1, [[0.0], [1.0]],
                             lambda th: [0.0, 0.0])
    with pytest.raises(fc.ImmersionError):
        fc.tangent_frame(bad, np.array([0.5]))


def test_submanifold_rejects_a_surface_source():
    with pytest.raises(ValueError, match="k = 0 or 1"):
        fc.SubmanifoldSpec(0, 2, [[0.0, 0.0], [1.0, 1.0]],
                           lambda th: [th[0], th[1]])


def test_sampled_curve_matches_circle():
    atlas, metric = _plane()
    thetas = np.linspace(0, 2 * math.pi, 201)
    pts = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    pts[-1] = pts[0]
    N = fc.sampled_curve_submanifold(thetas, pts)
    ray = fc.unit_normal(metric, N, 0.0, 1.0)
    assert np.allclose(ray.v, [-1.0, 0.0], atol=1e-3)


def test_first_degeneracy_reads_the_frame_once_per_time():
    atlas = fc.sphere_atlas()
    metric = fc.sphere_metric(atlas)
    N = fc.point_submanifold(0, (0.3, -0.2))
    flow = fc.normal_jacobi_flow(metric, N, fc.unit_normal(metric, N, (),
                                                         (0.6, 0.8)), 3.5)
    path = flow.path
    reads, probes = [], []
    raw = path.raw
    signed_matrix = flow.signed_matrix

    def counted_raw(t):
        reads.append(t)
        return raw(t)

    def probe(t):
        probes.append(t)
        return signed_matrix(t)

    path.raw = counted_raw
    flow.signed_matrix = probe
    lam = fc.first_degeneracy(flow, 1e-3, 3.5)
    assert abs(lam - math.pi) < 1e-6
    # the scan reads its grid in one array pass, and the lockstep
    # refinement evaluates its bracket's dense-output step itself: no time
    # is read through the frame one at a time
    assert reads == probes == []


def test_focal_and_conjugate_times_of_a_sphere_point_agree():
    # a point source's focal points are the conjugate points of its rays:
    # the normal flow's [J | v] (one cone column) and conjugate_time's J
    # (two columns) degenerate together, at the antipode
    metric = fc.sphere_metric(fc.sphere_atlas())
    N = fc.point_submanifold(0, (0.3, -0.2))
    T = 3.5
    for psi in ((0.6, 0.8), (-1.0, 0.0), (0.28, -0.96)):
        ray = fc.unit_normal(metric, N, (), psi)
        flow = fc.normal_jacobi_flow(metric, N, ray, T)
        assert flow.m == 1 and flow.signed_matrix(1.0)[0].shape == (2, 2)
        focal = fc.first_degeneracy(flow, 1e-3 * T, T)
        conjugate = fc.conjugate_time(metric, (ray.chart, ray.x), ray.v, T)
        assert abs(focal - conjugate) < 1e-6, psi
        assert abs(focal - math.pi) < 1e-6, psi
        assert abs(conjugate - math.pi) < 1e-6, psi


@pytest.mark.parametrize("N", [
    fc.circle_submanifold(0, (0.3, -0.1), 1.7),
    fc.circle_submanifold(0, (0.0, 0.0), 1.0),
    fc.ellipse_submanifold(0, a=2.0, b=1.0, center=(0.5, 0.2)),
], ids=["circle", "unit-circle", "ellipse"])
def test_curve_jacobian_equals_dual_path(N):
    # the same immersion without its jacobian_fn differentiates on duals
    dual_N = fc.SubmanifoldSpec(N.chart, N.k, N.theta_box, N.immersion_fn,
                                periodic=N.periodic)
    rng = np.random.default_rng(3)
    thetas = np.concatenate([[0.0, -0.0, np.pi / 2, np.pi, 2 * np.pi],
                             rng.uniform(-10.0, 10.0, 1000)])
    for theta in thetas:
        closed, dual = N.jacobian(theta), dual_N.jacobian(theta)
        assert np.array_equal(closed, dual), theta
        assert np.array_equal(np.signbit(closed), np.signbit(dual)), theta


# -- unit normals on rows -------------------------------------------------


def _hexes(a):
    return [float.hex(float(c)) for c in np.ravel(a)]


def _lone_normal(metric, N, theta, psi):
    try:
        return fc.unit_normal(metric, N, theta, psi)
    except (fc.FinslerError, np.linalg.LinAlgError) as exc:
        return exc


def _assert_same_normals(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(w, Exception):
            assert str(g) == str(w)
            continue
        assert g.chart == w.chart
        for field in ("theta", "psi", "x", "v"):
            assert _hexes(getattr(g, field)) == _hexes(getattr(w, field)), \
                field
        assert float.hex(g.orth_residual) == float.hex(w.orth_residual)


def _fan_psis(count):
    """The psi of a point fan, as ``sample_unit_cone`` lays them out."""
    angles = 2 * np.pi * np.arange(count) / count
    return [np.array([np.cos(a), np.sin(a)]) for a in angles]


def _sphere_point():
    metric = fc.sphere_metric(fc.sphere_atlas())
    return metric, fc.point_submanifold(0, (0.3, -0.2))


def test_unit_normals_equal_unit_normal_on_the_sphere_point_fan():
    metric, N = _sphere_point()
    psis = _fan_psis(64)
    _assert_same_normals(fc.unit_normals(metric, N, (), psis),
                         [_lone_normal(metric, N, (), psi) for psi in psis])


def test_cone_neighbours_of_a_point_batch_equal_lone_cone_data():
    # the +-h neighbours of every ray of a point fan are one unit_normals
    # call; each ray's (J0, Jd0) equals cone_variation_data's to the bit
    from finslercut.submanifold import CONE_STEP, _cone_variations
    metric, N = _sphere_point()
    rays, _ = fc.sample_unit_cone(metric, N, (1, 64))
    h = CONE_STEP
    neighbours = []
    for ray in rays:
        tang = np.array([-ray.psi[1], ray.psi[0]])
        neighbours += [ray.psi + h * tang, ray.psi - h * tang]
    _assert_same_normals(
        fc.unit_normals(metric, N, (), neighbours),
        [_lone_normal(metric, N, (), psi) for psi in neighbours])
    for ray, (J0, Jd0) in zip(rays, _cone_variations(metric, N, rays)):
        lone = fc.cone_variation_data(metric, N, ray)
        assert _hexes(J0) == _hexes(lone[0])
        assert _hexes(Jd0) == _hexes(lone[1])


@pytest.mark.parametrize("metric, N", [
    (fc.euclidean_metric(fc.flat_atlas()),
     fc.ellipse_submanifold(0, a=2.0, b=1.0, center=(0.5, 0.2))),
    (fc.RandersMetric(fc.flat_atlas(), np.array([0.5, 0.0])),
     fc.axis_line_submanifold(0, (0.0, 0.0), (0.0, 1.0))),
    (fc.sphere_metric(fc.sphere_atlas()), fc.circle_submanifold(0, radius=1.0)),
], ids=["ellipse", "randers-axis", "sphere-equator"])
def test_unit_normals_equal_unit_normal_on_a_curve(metric, N):
    for theta in (0.0, 0.3, 2.0):
        psis = [np.array([1.0]), np.array([-1.0])]
        _assert_same_normals(
            fc.unit_normals(metric, N, theta, psis),
            [_lone_normal(metric, N, theta, psi) for psi in psis])


class _FailingInversion(fc.CustomMetric):
    """Euclidean, but the tensor of a direction in the open lower half
    plane is singular, so those rays fail with LinAlgError."""

    def fundamental(self, p):
        return np.zeros((2, 2)) if p.v[1] < 0 else np.eye(2)


def _reference_cone(metric, N, grid):
    """``sample_unit_cone`` as it was written before its fan was taken on
    rows: one lone ``unit_normal`` per ray."""
    rays, failures = [], []
    for psi in _fan_psis(grid[1]):
        try:
            rays.append(fc.unit_normal(metric, N, np.zeros(0), psi))
        except (fc.FinslerError, np.linalg.LinAlgError) as exc:
            failures.append((np.zeros(0), psi, exc))
    return rays, failures


def test_planted_failing_rays_leave_the_fan_intact_and_in_order():
    metric = _FailingInversion(fc.flat_atlas(), lambda c, x, v: dual.sqrt(
        v[0] * v[0] + v[1] * v[1]))
    N = fc.point_submanifold(0, (0.1, 0.2))
    rays, failures = fc.sample_unit_cone(metric, N, (1, 16))
    want_rays, want_failures = _reference_cone(metric, N, (1, 16))
    assert len(rays) == 9 and len(failures) == 7
    _assert_same_normals(rays, want_rays)
    assert [(_hexes(psi), type(exc), str(exc)) for _, psi, exc in failures] \
        == [(_hexes(psi), type(exc), str(exc))
            for _, psi, exc in want_failures]


def test_a_point_fan_is_one_lockstep_inversion(monkeypatch):
    from finslercut import metric as metric_mod, submanifold
    calls = {"rows": [], "lone": 0}
    rows_fn = submanifold.legendre_inverses

    def counted_rows(metric, chart, x, Omega):
        calls["rows"].append(len(Omega))
        return rows_fn(metric, chart, x, Omega)

    def lone(*args):
        calls["lone"] += 1
        raise AssertionError("no lone inversion expected")

    monkeypatch.setattr(submanifold, "legendre_inverses", counted_rows)
    monkeypatch.setattr(submanifold, "legendre_inverse", lone)
    monkeypatch.setattr(metric_mod, "legendre_inverse", lone)
    metric, N = _sphere_point()
    rays, failures = fc.sample_unit_cone(metric, N, (1, 64))
    assert len(rays) == 64 and not failures
    assert calls == {"rows": [64], "lone": 0}
    # the cone neighbours of a whole batch of flows are one more call
    flows = fc.normal_jacobi_flows(metric, N, rays[:8], 0.5)
    assert not [f for f in flows if isinstance(f, Exception)]
    assert calls == {"rows": [64, 16], "lone": 0}
