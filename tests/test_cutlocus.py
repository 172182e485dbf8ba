import dataclasses
import json
import math

import numpy as np
import pytest

import finslercut as fc
from finslercut import cutlocus, scenario
from finslercut.cutlocus import NEWTON_TOL, SAMPLE_DT_FRAC, ShootingPlan
from finslercut.metric import ReversedMetric


@pytest.fixture(scope="module")
def small_torus():
    atlas = fc.torus_atlas([1.0, 1.0])
    metric = fc.euclidean_metric(atlas)
    N = fc.point_submanifold(0, np.zeros(2))
    plan = fc.ShootingPlan(psi_count=64, horizon=1.5,
                           bisect_tol=1e-8, min_slack=1e-7)
    return fc.NormalShooting(metric, N, plan)


@pytest.fixture(scope="module")
def torus32():
    atlas = fc.torus_atlas([1.0, 1.0])
    metric = fc.euclidean_metric(atlas)
    N = fc.point_submanifold(0, np.zeros(2))
    return fc.NormalShooting(metric, N, fc.ShootingPlan(
        psi_count=32, horizon=1.5, bisect_tol=1e-8, min_slack=1e-7))


def _reference_approach(field, q):
    """The per-dip loop that NormalShooting.approach replaced."""
    nrays = len(field.rays)
    dips = [[] for _ in range(nrays)]
    for chart, (xs, ts, rid, starts, ends) in field._stacked().items():
        dd = field._block_distances(q, chart, xs)
        if not np.any(np.isfinite(dd)):
            continue
        left = np.empty_like(dd)
        left[1:] = dd[:-1]
        left[starts] = np.inf
        right = np.empty_like(dd)
        right[:-1] = dd[1:]
        right[ends] = np.inf
        for j in np.flatnonzero((dd <= left) & (dd <= right)):
            t, d = float(ts[j]), float(dd[j])
            if np.isfinite(left[j]) and np.isfinite(right[j]):
                a, b, c = left[j], d, right[j]
                den = a - 2 * b + c
                if den > 1e-300:
                    s = 0.5 * (a - c) / den
                    s = min(1.0, max(-1.0, s))
                    t = t + s * (float(ts[min(j + 1, len(ts) - 1)]) - t)
                    d = max(0.0, b - 0.25 * (a - c) * s)
            dips[rid[j]].append((t, d))
    out = np.empty((nrays, 2))
    dt = field.plan.horizon * SAMPLE_DT_FRAC
    for i in range(nrays):
        if not dips[i]:
            out[i] = (0.0, np.inf)
            continue
        deep_d = min(d for _, d in dips[i])
        out[i] = min(p for p in dips[i] if p[1] <= deep_d + 4.0 * dt)
    return out


def test_approach_matches_reference_loop(torus32, sphere_field):
    rng = np.random.default_rng(5)
    queries = [(0, rng.uniform(-0.5, 0.5, 2)) for _ in range(20)]
    # on this grid some rays have two dips of exactly equal depth, which
    # pins the tie-breaking; (0, 0) is the fan base point
    grid = np.linspace(-0.5, 0.5, 9)
    queries += [(0, np.array([a, b])) for a in grid for b in grid]
    assert len(sphere_field._stacked()) == 2        # both charts sampled
    sphere_queries = [(int(rng.integers(2)), rng.uniform(-1.5, 1.5, 2))
                      for _ in range(20)]
    # chart origins: the other chart's conversion is infinite there
    sphere_queries += [(0, np.zeros(2)), (1, np.zeros(2))]
    for field, qs in ((torus32, queries), (sphere_field, sphere_queries)):
        for q in qs:
            new, ref = field.approach(q), _reference_approach(field, q)
            assert np.array_equal(new, ref), q


def _row_major_distances(field, q, chart, xs):
    """Fan distances from an (m, 2) stack through np.linalg.norm."""
    try:
        with np.errstate(all="ignore"):
            target = field.atlas.convert(q, chart)
    except ZeroDivisionError:
        return np.full(xs.shape[1], np.inf)
    if not np.all(np.isfinite(target)):
        return np.full(xs.shape[1], np.inf)
    d = np.array(xs.T) - target
    lat = field.atlas.periodic_lattice
    if lat is not None:
        d = d - lat * np.round(d / lat)
    return np.linalg.norm(d, axis=1)


def test_column_major_fan_distances_equal_row_major_norm(sphere_field):
    # unequal periods, so a lattice wrap on the wrong axis shows
    torus = fc.NormalShooting(fc.euclidean_metric(fc.torus_atlas([0.9, 1.2])),
                              fc.point_submanifold(0, np.zeros(2)),
                              fc.ShootingPlan(psi_count=16, horizon=1.5))
    rng = np.random.default_rng(8)
    torus_queries = [(0, rng.uniform(-3.0, 3.0, 2)) for _ in range(20)]
    sphere_queries = [(int(rng.integers(2)), rng.uniform(-1.5, 1.5, 2))
                      for _ in range(20)]
    # chart origins: neither converts into the other chart
    sphere_queries += [(0, np.zeros(2)), (1, np.zeros(2))]
    unconvertible = 0
    for field, qs in ((torus, torus_queries), (sphere_field, sphere_queries)):
        for chart, (xs, ts, *_) in field._stacked().items():
            assert xs.shape == (2, len(ts)) and xs.flags.c_contiguous
            for q in qs:
                new = field._block_distances(q, chart, xs)
                ref = _row_major_distances(field, q, chart, xs)
                assert np.array_equal(new, ref), (chart, q)
                if q[0] != chart and np.all(np.isinf(new)):
                    unconvertible += 1
    assert unconvertible == 2


def _reference_candidates(field, q, limit):
    """The per-ray loop that NormalShooting._candidates replaced."""
    app = field.approach(q)
    score = app[:, 1] + 0.05 * app[:, 0]
    picks = []
    for idx, cyclic in field.branches:
        m = len(idx)
        for pos, i in enumerate(idx):
            if m == 1:
                picks.append(i)
                continue
            left = idx[(pos - 1) % m] if (cyclic or pos > 0) else None
            right = idx[(pos + 1) % m] if (cyclic or pos < m - 1) else None
            sl = score[left] if left is not None else np.inf
            sr = score[right] if right is not None else np.inf
            tie = 1e-7 * (1.0 + score[i])
            if score[i] < sl + tie and score[i] <= sr + tie:
                picks.append(i)
    best = int(np.argmin(score))
    if best not in picks:
        picks.append(best)
    picks.sort(key=lambda i: score[i])
    return [(i, app[i, 0]) for i in picks[:limit]]


def test_candidates_match_reference_loop(torus32, ellipse_field):
    plane = fc.flat_atlas()
    axis_field = fc.NormalShooting(
        fc.RandersMetric(plane, np.array([0.5, 0.0])),
        fc.axis_line_submanifold(0, (0.0, 0.0), (0.0, 1.0), half_extent=4.0),
        fc.ShootingPlan(theta_count=33, horizon=3.0))
    # an open three-quarter circle: near the gap both ends of a branch are
    # local minima, so wrapping the ends around would change the picks
    arc = np.linspace(0.0, 1.5 * np.pi, 49)
    arc_field = fc.NormalShooting(
        fc.euclidean_metric(plane),
        fc.sampled_curve_submanifold(
            arc, np.column_stack([np.cos(arc), np.sin(arc)]), periodic=False),
        fc.ShootingPlan(theta_count=40, horizon=3.0))
    gap = 1.75 * np.pi
    rng = np.random.default_rng(8)
    grid = np.linspace(-0.5, 0.5, 5)
    # (field, cyclic flag of each branch, queries): the point fan is one
    # cyclic branch, the ellipse, axis-line and arc fans have one branch per
    # side, closed or open
    fields = (
        (torus32, [True], [rng.uniform(-0.5, 0.5, 2) for _ in range(15)]
         + [np.array([a, b]) for a in grid for b in grid]),
        (ellipse_field, [True, True],
         [rng.uniform([-2.5, -1.5], [2.5, 1.5]) for _ in range(15)]
         + [np.array([0.0, 0.0]), np.array([1.0, 0.0])]),
        (axis_field, [False, False],
         [rng.uniform(-3.0, 3.0, 2) for _ in range(15)]
         + [np.array([1.0, 4.5]), np.array([-1.0, -6.0])]),
        (arc_field, [False, False],
         [r * np.array([np.cos(gap + a), np.sin(gap + a)])
          for r in (0.5, 1.5, 2.5) for a in (-0.2, 0.0, 0.1)]),
    )
    for field, cyclic, qs in fields:
        assert [c for _, c in field.branches] == cyclic
        for q in qs:
            for limit in (4, 8, 1000):
                got, _ = field._candidates((0, q), limit)
                assert got == _reference_candidates(field, (0, q), limit), q


def _assert_same_shooting(warm, cold, queries):
    for q in queries:
        a, b = warm._shoot_distance(q), cold._shoot_distance(q)
        assert a.d == b.d, q
        assert [(m.t, m.residual) for m in a.minimizers] == \
            [(m.t, m.residual) for m in b.minimizers], q


def test_seed_ray_memo_is_bounded_and_order_independent(torus32):
    # the torus field answers distance in closed form, so the shooting
    # path is called directly, at every cut point of the fan
    for rec in fc.cut_locus(torus32, classify=False):
        torus32._shoot_distance(rec.cut_point)
    memo = torus32._seed_rays
    assert 0 < len(memo) <= len(torus32.rays)
    # the seed residual is the fan ray itself: only its neighbour, one
    # finite-difference step along the cone, is memoized
    for i, ray in memo.items():
        step = (torus32.ray_param(ray) - torus32.ray_param(torus32.rays[i]))[0]
        assert abs(math.remainder(step, 2 * math.pi) - 1e-6) < 1e-12
    fresh = fc.NormalShooting(torus32.metric, torus32.N, torus32.plan)
    _assert_same_shooting(torus32, fresh, [(0, np.array([0.27, 0.31])),
                                           (0, np.array([-0.45, 0.12]))])


def test_cached_seed_paths_are_order_independent(sphere_records,
                                                 sphere_field):
    # the sphere field shoots: its cut locus settles every antipode arrival
    # on a fan path, and these off-path queries then take Gauss-Newton
    # steps, so later queries read paths cached by earlier ones
    warm = sphere_field
    off_path = [(1, np.array([0.1, 0.05])), (0, np.array([0.3, -0.2]))]
    for q in off_path:
        warm.distance(q)
    assert warm._seed_rays
    fresh = fc.NormalShooting(warm.metric, warm.N, warm.plan)
    antipode = (1, np.zeros(2))
    _assert_same_shooting(warm, fresh, [antipode] + off_path)


def test_seed_iteration_reads_cached_paths(sphere_setup, monkeypatch):
    _, metric, N, plan = sphere_setup
    field = fc.NormalShooting(metric, N, plan)
    integrations, refines = [], []

    def integrate_geodesic(*args, **kwargs):
        integrations.append(args[2])
        return fc.integrate_geodesic(*args, **kwargs)

    def integrate_geodesics(metric, starts, T, **kwargs):
        # the batch entry point: one integration per row
        integrations.extend([T] * len(starts))
        return fc.integrate_geodesics(metric, starts, T, **kwargs)

    def refine_arrival(*args, **kwargs):
        refines.append(args[1])
        return fc.NormalShooting.refine_arrival(field, *args, **kwargs)

    monkeypatch.setattr(cutlocus, "integrate_geodesic", integrate_geodesic)
    monkeypatch.setattr(cutlocus, "integrate_geodesics", integrate_geodesics)
    monkeypatch.setattr(field, "refine_arrival", refine_arrival)
    # every ray of the point source reconverges at the antipode at t = pi
    field.distance(field.path(field.rays[0]).position(math.pi))
    assert len(integrations) == len(field.rays)     # the fan alone
    del integrations[:], refines[:]
    wit = field.distance(field.path(field.rays[5]).position(math.pi))
    assert len(wit.minimizers) >= 2 and refines
    # each fan ray passes through the antipode, so the time-only stage
    # settles its arrival on the cached path: no geodesic is integrated
    assert integrations == []
    tol = _arrival_tol(plan, math.pi)
    for m in wit.minimizers:
        assert any(m.ray is ray for ray in field.rays)
        assert m.residual <= tol and abs(m.t - math.pi) < 1e-6
    # nor anywhere in the cut locus, whose cut points are all antipodes
    records = fc.cut_locus(field)
    assert integrations == []
    assert all(r.classification == {cutlocus.SEPARATING, cutlocus.FIRST_FOCAL}
               for r in records)


def _arrival_tol(plan, t0):
    """The stop tolerance of refine_arrival from time t0."""
    return max(NEWTON_TOL, 10.0 * plan.ode_rtol) * (1.0 + abs(t0))


def test_time_polish_settles_fan_path_points(sphere_setup, monkeypatch):
    _, metric, N, plan = sphere_setup
    field = fc.NormalShooting(metric, N, plan)
    i, t1 = 5, 1.2
    path = field.path(field.rays[i])
    chart, x = path.position(t1)
    assert chart == 0       # charts switch only past radius 1.4
    integrations = []

    def integrate_geodesic(*args, **kwargs):
        integrations.append(args[2])
        return fc.integrate_geodesic(*args, **kwargs)

    monkeypatch.setattr(cutlocus, "integrate_geodesic", integrate_geodesic)
    # the same point of fan path i in both charts; chart 1's inversion
    # reverses the radial velocity, so the time step must be taken in q's
    # chart
    t0 = t1 + 1e-3
    tol = _arrival_tol(plan, t0)
    for q in [(0, x), (1, field.atlas.convert((0, x), 1))]:
        got = field.refine_arrival(q, i, t0)
        assert got.ray is field.rays[i]
        assert got.residual <= tol and abs(got.t - t1) < 1e-8
    assert integrations == [] and not field._seed_rays

    # a point a few tolerances off the fan path is not settled by the
    # time stage: Gauss-Newton moves to an off-grid ray within tol
    v = path.velocity(t1)
    off = (0, x + 3.0 * _arrival_tol(plan, t1) * np.array([-v[1], v[0]])
           / np.linalg.norm(v))
    got = field.refine_arrival(off, i, t1)
    assert got.ray is not field.rays[i] and integrations
    assert got.residual <= _arrival_tol(plan, t1)


def test_offset_sphere_source_separates_at_its_antipode():
    # every normal geodesic from (0.3, -0.2) reaches the antipode at t = pi,
    # so each cut point there has many distinct minimizers
    doc = dict(scenario.BUILTINS["sphere-point"])
    doc["submanifold"] = {"family": "point", "point": [0.3, -0.2]}
    bundle = scenario.run_scenario(scenario.parse_scenario(json.dumps(doc)))
    assert bundle.documents["classify"]["histogram"] == \
        {"FirstFocal+Separating": 64}
    reports = {r["name"]: r["passed"] for r in bundle.documents["theorems"]}
    assert reports["se_dense"] and not bundle.violations


def test_torus_cut_time_along_axis(small_torus):
    ray = fc.unit_normal(small_torus.metric, small_torus.N, 0.0, (1.0, 0.0))
    res = small_torus.cut_time(ray)
    assert abs(res.rho - 0.5) < 1e-6
    assert not res.unbounded


def test_torus_cut_time_along_diagonal(small_torus):
    s = 1 / math.sqrt(2)
    ray = fc.unit_normal(small_torus.metric, small_torus.N, 0.0, (s, s))
    res = small_torus.cut_time(ray)
    assert abs(res.rho - s) < 1e-6


def test_cut_times_past_the_horizon_are_bisected():
    # with H = 0.4 every cut time of the unit torus lies in (H, 2H]: each
    # ray still minimizes at H, meets no focal point and has lost
    # minimality by 2H, so the doubled-horizon probe must bisect; the
    # closed form searches the same (0, 2H]
    field = fc.NormalShooting(
        fc.euclidean_metric(fc.torus_atlas([1.0, 1.0])),
        fc.point_submanifold(0, np.zeros(2)),
        fc.ShootingPlan(psi_count=16, horizon=0.4, bisect_tol=1e-8,
                        min_slack=1e-7))
    plan = field.plan
    for ray in field.rays:
        with np.errstate(divide="ignore"):
            exact = float(np.min(0.5 / np.abs(ray.v)))
        assert plan.horizon < exact <= 2 * plan.horizon
        for res in (field._bisect_cut_time(ray), field.cut_time(ray)):
            assert math.isinf(res.lam) and not res.unbounded
            assert abs(res.rho - exact) <= 2 * (plan.min_slack
                                                + plan.bisect_tol)


def test_torus_focal_time_infinite(torus_records):
    lams = [r.lam for r in torus_records]
    assert all(math.isinf(l) for l in lams)


def test_torus_cut_points_on_voronoi_boundary(torus_records):
    for rec in torus_records:
        chart, x = rec.cut_point
        # min-image representative lies on the boundary of [-1/2, 1/2]^2
        y = (np.asarray(x) + 0.5) % 1.0 - 0.5
        assert abs(np.max(np.abs(y)) - 0.5) < 1e-6


def test_torus_classification_all_separating(torus_records):
    for rec in torus_records:
        assert "Separating" in rec.classification


def test_distance_witness_on_torus(small_torus):
    wit = small_torus.distance((0, np.array([0.3, 0.0])))
    assert abs(wit.d - 0.3) < 1e-7
    wit2 = small_torus.distance((0, np.array([0.9, 0.0])))
    assert abs(wit2.d - 0.1) < 1e-7   # wraps through the identification


def test_point_distance_plane():
    atlas = fc.flat_atlas()
    metric = fc.euclidean_metric(atlas)
    field = fc.NormalShooting(metric, fc.point_submanifold(0, np.zeros(2)),
                              fc.ShootingPlan(psi_count=64, horizon=3.0))
    wit = field.distance((0, np.array([0.6, 0.8])))
    assert abs(wit.d - 1.0) < 1e-7


def test_is_minimizing_flags_past_cut(small_torus):
    ray = fc.unit_normal(small_torus.metric, small_torus.N, 0.0, (1.0, 0.0))
    path = small_torus.path(ray, 0.7)
    assert small_torus.is_minimizing(path, 0.4)
    assert not small_torus.is_minimizing(path, 0.7)


def test_circle_inward_rho_equals_focal(circle_setup, circle_records):
    atlas, metric, N, plan = circle_setup
    for rec in circle_records:
        assert abs(rec.rho - 1.0) < 1e-6
        assert abs(rec.lam - 1.0) < 1e-6
        assert np.allclose(rec.cut_point[1], [0.0, 0.0], atol=1e-6)


def test_circle_center_is_both_classes(circle_records):
    rec = circle_records[0]
    assert rec.classification == {"Separating", "FirstFocal"}


def test_circle_outward_unbounded(circle_field):
    ray = fc.unit_normal(circle_field.metric, circle_field.N, 0.5, -1.0)
    res = circle_field.cut_time(ray)
    assert math.isinf(res.rho)
    assert res.unbounded


def test_unreached_point_raises():
    atlas = fc.flat_atlas()
    metric = fc.euclidean_metric(atlas)
    N = fc.point_submanifold(0, np.zeros(2))
    plan = fc.ShootingPlan(psi_count=16, horizon=1.0)
    field = fc.NormalShooting(metric, N, plan)
    with pytest.raises(fc.UnreachedPointError):
        field.distance((0, np.array([5.0, 0.0])))


def test_rho_leq_lambda_report(circle_records):
    report = fc.check_rho_leq_lambda(circle_records)
    assert report.passed
    assert not report.detail["violations"]


def test_se_dense_report(ellipse_setup, ellipse_records):
    atlas = ellipse_setup[0]
    report = fc.check_se_dense(ellipse_records, atlas=atlas)
    assert report.passed


def test_rho_continuity_report(small_torus):
    coarse_plan = dataclasses.replace(small_torus.plan, psi_count=32)
    coarse_field = fc.NormalShooting(small_torus.metric, small_torus.N,
                                     coarse_plan)
    coarse = fc.cut_locus(coarse_field, classify=False)
    fine = fc.cut_locus(small_torus, classify=False)
    report = fc.check_rho_continuity([coarse, fine])
    assert report.passed


def test_cut_record_has_competitor(torus_records):
    rec = torus_records[0]
    assert rec.competitor is not None
    ray, t = rec.competitor
    assert t > 0


def test_shooting_plan_is_frozen():
    plan = ShootingPlan()
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.psi_count = 8


def test_answers_do_not_depend_on_call_order():
    atlas = fc.torus_atlas([1.0, 1.0])
    metric = fc.euclidean_metric(atlas)
    N = fc.point_submanifold(0, np.zeros(2))
    field = fc.NormalShooting(metric, N, fc.ShootingPlan(
        psi_count=32, horizon=1.5, bisect_tol=1e-8, min_slack=1e-7))
    n_rays = len(field.rays)
    q = (0, np.array([0.27, 0.31]))
    before = field.distance(q)

    # an off-grid ray, halfway between two fan rays, and an inverse query
    mu = 0.5 * (field.ray_param(field.rays[0]) + field.ray_param(field.rays[1]))
    off_grid = field.ray_at(mu, field.rays[0])
    assert not any(np.array_equal(off_grid.psi, r.psi) for r in field.rays)
    assert abs(field.cut_time(off_grid).rho - 0.5 / math.cos(mu[0])) < 1e-6
    fc.inverse_normal_exp(field, (0, np.array([0.2, -0.13])))

    assert isinstance(field.rays, tuple) and len(field.rays) == n_rays
    after = field.distance(q)
    assert after.d == before.d
    assert [(m.t, m.residual) for m in after.minimizers] == \
        [(m.t, m.residual) for m in before.minimizers]

    # cut times over the fan integrate doubled-horizon paths of the rays
    # that still minimize at the horizon; the fan samples stay one horizon
    plane = fc.flat_atlas()
    field = fc.NormalShooting(
        fc.RandersMetric(plane, np.array([0.5, 0.0])),
        fc.axis_line_submanifold(0, (0.0, 0.0), (0.0, 1.0), half_extent=4.0),
        fc.ShootingPlan(theta_count=33, horizon=3.0))
    q = (0, np.array([2.2, 0.7]))
    before = field.distance(q)
    for ray in field.rays:
        field.cut_time(ray)
    after = field.distance(q)
    assert after.d == before.d
    assert [(m.t, m.residual) for m in after.minimizers] == \
        [(m.t, m.residual) for m in before.minimizers]

    # a path asked for a longer span is a second path, not a replacement
    field = fc.NormalShooting(fc.euclidean_metric(plane),
                              fc.ellipse_submanifold(0, a=2.0, b=1.0),
                              fc.ShootingPlan(theta_count=32, horizon=3.0))
    ray = field.ray_at([0.37], field.rays[0])
    fresh = field.path(ray, 0.4).position(0.3)
    field.path(ray, 2.0)
    again = field.path(ray, 0.4).position(0.3)
    assert fresh[0] == again[0] and np.array_equal(fresh[1], again[1])


def test_cut_time_cross_check_repairs_a_quick_miss(monkeypatch):
    # the ray from the minor vertex (0, 1) of a 2x1 ellipse is cut at the
    # center, rho = 1, by the mirror ray from (0, -1); its focal time, the
    # radius of curvature 4, lies beyond the horizon
    plane = fc.flat_atlas()
    metric = fc.euclidean_metric(plane)
    N = fc.ellipse_submanifold(0, a=2.0, b=1.0)
    plan = fc.ShootingPlan(theta_count=32, horizon=3.0)
    ref = fc.NormalShooting(metric, N, plan)
    ray = min((r for r in ref.rays if r.psi[0] > 0),
              key=lambda r: abs(r.theta[0] - 0.5 * math.pi))
    want = ref.cut_time(ray)
    assert abs(want.rho - 1.0) < 2 * plan.bisect_tol
    assert want.rho < want.lam

    # one quick candidate misses the competitor, so the quick bisection
    # overshoots and the full cross-check sends it to the second pass
    monkeypatch.setattr(cutlocus, "QUICK_CANDIDATES", 1)
    field = fc.NormalShooting(metric, N, plan)
    modes = []

    def is_minimizing(path, t, full=False):
        modes.append(full)
        return fc.NormalShooting.is_minimizing(field, path, t, full)

    monkeypatch.setattr(field, "is_minimizing", is_minimizing)
    got = field.cut_time(ray)
    assert any(modes)                   # the full-candidate pass ran
    assert abs(got.rho - want.rho) <= 2 * plan.bisect_tol


def test_cut_time_without_bisection_is_cross_checked(monkeypatch):
    # one quick candidate misses the mirror competitor of the inward rays
    # of a 2x1 ellipse; a ray that passes the check at min(lam, H) gets
    # rho = lam with no bisection and no cross-check, so that check must
    # take every candidate
    plane = fc.flat_atlas()
    metric = fc.euclidean_metric(plane)
    N = fc.ellipse_submanifold(0, a=2.0, b=1.0)
    plan = fc.ShootingPlan(theta_count=32, horizon=3.0)
    ref = fc.NormalShooting(metric, N, plan)
    rays = [r for r in ref.rays
            if r.psi[0] > 0 and 0.0 <= r.theta[0] <= math.pi + 1e-12]
    assert len(rays) == 17
    want = [ref.cut_time(r).rho for r in rays]
    monkeypatch.setattr(cutlocus, "QUICK_CANDIDATES", 1)
    field = fc.NormalShooting(metric, N, plan)
    for ray, rho in zip(rays, want):
        got = field.cut_time(ray).rho
        assert abs(got - rho) <= plan.bisect_tol + 2 * plan.min_slack, \
            ray.theta


@pytest.mark.xfail(strict=True, reason=(
    "the rays at theta 0.196 and pi - 0.196 get rho 0.5626: the distance "
    "queries in (0.5278, 0.5626] miss the mirror ray's shorter arrival"))
def test_ellipse_inward_cut_times_follow_the_medial_axis():
    # an inward ray of the ellipse (a cos t, b sin t) is cut where it meets
    # the major axis, at b s / a with s = |c'(t)|, or at its focal time, the
    # radius of curvature s^3 / (a b), whichever comes first
    a, b = 2.0, 1.0
    field = fc.NormalShooting(fc.euclidean_metric(fc.flat_atlas()),
                              fc.ellipse_submanifold(0, a=a, b=b),
                              fc.ShootingPlan(theta_count=32, horizon=3.0))
    rays = [r for r in field.rays
            if r.psi[0] > 0 and 0.0 <= r.theta[0] <= math.pi + 1e-12]
    assert len(rays) == 17
    wrong = []
    for ray in rays:
        t = ray.theta[0]
        s = math.hypot(a * math.sin(t), b * math.cos(t))
        want = min(b * s / a, s ** 3 / (a * b))
        got = field.cut_time(ray).rho
        if abs(got - want) > 1e-4:
            wrong.append((round(t, 3), got, want))
    assert not wrong


def _line_metrics(atlas):
    randers = fc.RandersMetric(atlas, np.array([0.5, 0.0]))
    return {"euclidean": fc.euclidean_metric(atlas),
            "quartic": fc.MinkowskiQuarticMetric(atlas, eps=0.1),
            "randers": randers,
            "reversed-randers": ReversedMetric(randers)}


@pytest.mark.parametrize("family", ["euclidean", "quartic", "randers",
                                    "reversed-randers"])
@pytest.mark.parametrize("manifold", ["torus", "plane"])
def test_line_distance_matches_shooting(manifold, family):
    atlas = (fc.torus_atlas([1.0, 1.0]) if manifold == "torus"
             else fc.flat_atlas())
    N = fc.point_submanifold(0, np.array([0.1, 0.2]))
    # ode_rtol 1e-10 makes the Gauss-Newton stop tolerance NEWTON_TOL
    plan = fc.ShootingPlan(psi_count=64, horizon=1.5, ode_rtol=1e-10)
    field = fc.NormalShooting(_line_metrics(atlas)[family], N, plan)
    assert field._line_floor is not None
    rng = np.random.default_rng(11)
    for _ in range(25):
        q = (0, rng.uniform(-1.0, 1.0, 2))
        exact, shot = field.distance(q), field._shoot_distance(q)
        assert abs(exact.d - shot.d) <= NEWTON_TOL * (1.0 + exact.d), q
        assert len(exact.minimizers) == len(shot.minimizers), q
        for a, b in zip(exact.minimizers, shot.minimizers):
            assert np.allclose(a.ray.v, b.ray.v, atol=1e-6), q
            assert np.allclose(a.ray.psi, b.ray.psi, atol=1e-6), q
            assert a.residual < 1e-12


def test_line_distance_is_not_used_off_its_domain(sphere_field, circle_field):
    assert sphere_field._line_floor is None     # two charts
    assert circle_field._line_floor is None     # curve source


def test_plane_point_ray_is_unbounded():
    atlas = fc.flat_atlas()
    field = fc.NormalShooting(fc.euclidean_metric(atlas),
                              fc.point_submanifold(0, np.zeros(2)),
                              fc.ShootingPlan(psi_count=16, horizon=1.0))
    for ray in field.rays[:3]:
        res = field.cut_time(ray)
        assert math.isinf(res.rho)
        assert res.unbounded


def test_line_distance_at_the_source(small_torus):
    p = (0, np.zeros(2))
    wit = small_torus.distance(p)
    assert wit.d == 0.0
    [m] = wit.minimizers
    assert m.t == 0.0 and m.residual == 0.0
    assert np.array_equal(m.terminal.x, p[1])
    inv = fc.inverse_normal_exp(small_torus, p)
    assert inv.t == 0.0
    assert fc.distance_sq_differential(small_torus, p, [1.0, 0.0]) == 0.0
    # a lattice copy of the source is the source
    assert small_torus.distance((0, np.array([1.0, -2.0]))).d == 0.0


def test_torus_voronoi_vertex_has_four_minimizers(small_torus):
    wit = small_torus.distance((0, np.array([0.5, 0.5])))
    assert abs(wit.d - math.sqrt(0.5)) < 1e-15
    dirs = sorted(tuple(np.sign(m.ray.v)) for m in wit.minimizers)
    assert dirs == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    for m in wit.minimizers:
        assert m.t == wit.d
        assert abs(abs(m.ray.v[0]) - math.sqrt(0.5)) < 1e-15
    # lengths within the tie window of the shooting path still tie
    near = small_torus.distance((0, np.array([0.5 + 1e-8, 0.5])))
    assert len(near.minimizers) == 4
    assert len(small_torus.distance((0, np.array([0.5 + 1e-3, 0.5])))
               .minimizers) == 2


# -- closed-form cut times of straight point sources ---------------------


def _exact_torus_rho(ray, periods):
    """min(a / 2|v1|, b / 2|v2|): the first bisector of a lattice
    neighbour, for a norm unchanged by flipping a coordinate's sign."""
    return min(p / (2.0 * abs(c)) if c else math.inf
               for p, c in zip(periods, ray.v))


def _random_torus_fields(count, seed):
    """Flat tori with periods in [0.8, 1.25], Euclidean or quartic, each
    with a random source and four random rays."""
    rng = np.random.default_rng(seed)
    plan = fc.ShootingPlan(psi_count=8, horizon=1.5, bisect_tol=1e-8,
                           min_slack=1e-7)
    for n in range(count):
        periods = rng.uniform(0.8, 1.25, 2)
        atlas = fc.torus_atlas(periods)
        metric = (fc.euclidean_metric(atlas) if n % 2 == 0
                  else fc.MinkowskiQuarticMetric(atlas, eps=0.1))
        N = fc.point_submanifold(0, rng.uniform(0.0, periods))
        field = fc.NormalShooting(metric, N, plan)
        rays = [field.ray_at(rng.uniform(-math.pi, math.pi, 1), field.rays[0])
                for _ in range(4)]
        yield field, periods, rays


def _assert_agrees_with_bisection(got, want, plan):
    # the bisected rho is where d(x(t)) >= t - min_slack fails: up to
    # min_slack / |d/dt (F(t v - kL) - t)| past the root, and that slope is
    # below 1 on rays of the quartic and Randers tori
    assert got.bisection_iters == 0 and want.bisection_iters > 0
    assert -plan.bisect_tol <= want.rho - got.rho \
        <= 2 * (plan.bisect_tol + plan.min_slack)


def test_closed_form_cut_time_agrees_with_bisection():
    for field, periods, rays in _random_torus_fields(20, seed=21):
        for ray in rays:
            got, want = field.cut_time(ray), field._bisect_cut_time(ray)
            _assert_agrees_with_bisection(got, want, field.plan)
            assert math.isinf(got.lam) and math.isinf(want.lam)


def test_closed_form_cut_time_is_exact():
    for field, periods, rays in _random_torus_fields(20, seed=22):
        for ray in rays + list(field.rays):
            exact = _exact_torus_rho(ray, periods)
            assert abs(field.cut_time(ray).rho - exact) <= 1e-12, periods


def test_closed_form_cut_time_on_an_irreversible_randers_torus():
    rng = np.random.default_rng(23)
    atlas = fc.torus_atlas([1.1, 0.9])
    metric = fc.RandersMetric(atlas, np.array([0.3, -0.2]))
    assert not metric.reversible
    field = fc.NormalShooting(metric, fc.point_submanifold(0, [0.2, 0.3]),
                              fc.ShootingPlan(psi_count=16, horizon=1.5,
                                              bisect_tol=1e-8, min_slack=1e-7))
    rays = list(field.rays) + [
        field.ray_at(rng.uniform(-math.pi, math.pi, 1), field.rays[0])
        for _ in range(8)]
    for ray in rays:
        got, want = field.cut_time(ray), field._bisect_cut_time(ray)
        _assert_agrees_with_bisection(got, want, field.plan)


def test_closed_form_cut_time_without_a_lattice_is_unbounded():
    sc = scenario.builtin_scenario("randers-plane-point")
    field = fc.NormalShooting(*scenario.build_geometry(sc)[1:])
    assert field._line_floor is not None
    for ray in field.rays:
        res = field.cut_time(ray)
        assert res.unbounded and math.isinf(res.rho) and math.isinf(res.lam)
        assert res.bisection_iters == 0
    assert not field._flows


def test_rejected_closed_form_cut_time_falls_back_to_bisection(monkeypatch):
    periods = (1.0, 1.0)
    field = fc.NormalShooting(
        fc.euclidean_metric(fc.torus_atlas(periods)),
        fc.point_submanifold(0, np.zeros(2)),
        fc.ShootingPlan(psi_count=16, horizon=1.5, bisect_tol=1e-8,
                        min_slack=1e-7))
    plan = field.plan
    ray = field.rays[3]
    want = field._bisect_cut_time(ray)
    # plant a confirming query that finds one minimizer only
    distance = field.distance

    def one_minimizer(q, full=True):
        wit = distance(q, full)
        return dataclasses.replace(wit, minimizers=wit.minimizers[:1])

    monkeypatch.setattr(field, "distance", one_minimizer)
    got = field.cut_time(ray)
    assert got == want and got.bisection_iters > 0
    assert abs(got.rho - _exact_torus_rho(ray, periods)) \
        <= 2 * (plan.min_slack + plan.bisect_tol)


def test_flat_point_cut_locus_steps_no_flow_and_bisects_nothing(monkeypatch):
    field = fc.NormalShooting(
        fc.MinkowskiQuarticMetric(fc.torus_atlas([0.9, 1.2]), eps=0.1),
        fc.point_submanifold(0, [0.1, 0.4]),
        fc.ShootingPlan(psi_count=32, horizon=1.5, bisect_tol=1e-8,
                        min_slack=1e-7))
    queries = []
    distance = field.distance

    def counted(q, full=True):
        queries.append(q)
        return distance(q, full)

    monkeypatch.setattr(field, "distance", counted)
    records = fc.cut_locus(field, classify=False)
    assert not field._flows
    assert all(rec.diagnostics["bisection_iters"] == 0 for rec in records)
    assert all(np.isfinite(rec.rho) for rec in records)
    # one confirming query per computed cut time
    assert len(queries) <= len(field._cut_times) == len(records)


def test_focal_time_of_field_and_module_agree(torus32, sphere_field,
                                              monkeypatch):
    # the field's cached focal time is first_degeneracy over the ray's lone
    # normal Jacobi flow
    field = sphere_field
    ray = field.rays[5]
    plan = field.plan
    got = field.focal_time(ray)
    flow = fc.normal_jacobi_flow(field.metric, field.N, ray, plan.horizon,
                                 rtol=plan.ode_rtol, atol=plan.ode_atol)
    assert got == fc.first_degeneracy(flow, cutlocus.FOCAL_FLOOR,
                                      plan.horizon)
    assert abs(got - math.pi) < 1e-6        # the sphere's antipode
    # the straight point source steps no flow
    monkeypatch.setattr(cutlocus, "normal_jacobi_flow", None)
    assert math.isinf(torus32.focal_time(torus32.rays[5]))
    assert not torus32._flows
