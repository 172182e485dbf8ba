"""The batched fan: every row of a batch integration equals its lone
integration in knots, states and dense-output coefficients."""

import numpy as np
import pytest

import finslercut as fc
from finslercut import cutlocus, dual, scenario
from finslercut.atlas import TangentVec
from finslercut.errors import FinslerError
from finslercut.geodesic import _integrate_rows


def _assert_same_segments(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.chart, a.sign, a.t0, a.t1) == (b.chart, b.sign, b.t0, b.t1)
        assert np.array_equal(a.knots, b.knots)
        assert np.array_equal(a.y_old, b.y_old)
        assert np.array_equal(a.Q, b.Q)


def _builtin_field(name):
    _, metric, N, plan = scenario.build_geometry(
        scenario.builtin_scenario(name))
    return fc.NormalShooting(metric, N, plan)


def _assert_fan_matches_lone(field):
    """The field's batched one-horizon paths and flows against lone ones;
    returns how many fan paths switch charts."""
    plan = field.plan
    H = plan.horizon
    field.file_fan(field.rays)
    switched = 0
    for ray in field.rays:
        key = cutlocus._ray_key(ray), H
        lone = fc.integrate_geodesic(field.metric, ray.tangent(), H,
                                     rtol=plan.ode_rtol, atol=plan.ode_atol)
        _assert_same_segments(field._paths[key].segments, lone.segments)
        flow = fc.normal_jacobi_flow(field.metric, field.N, ray, H,
                                     rtol=plan.ode_rtol, atol=plan.ode_atol)
        _assert_same_segments(field._flows[key].path.segments,
                              flow.path.segments)
        switched += len(lone.segments) > 1
    return switched


def test_sphere_point_fan_batch_equals_lone_integrations():
    field = _builtin_field("sphere-point")
    # every fan path and flow crosses into the second chart
    assert _assert_fan_matches_lone(field) == len(field.rays) == 64


def test_sphere_equator_fan_batch_equals_lone_integrations():
    field = _builtin_field("sphere-equator")
    assert field.N.k == 1 and len(field.rays) == 64
    assert _assert_fan_matches_lone(field) > 0


def test_flows_under_a_zero_spray_batch_equal_lone_flows():
    plane = fc.flat_atlas()
    randers = fc.RandersMetric(plane, np.array([0.5, 0.0]))
    cases = [
        (fc.euclidean_metric(plane), fc.ellipse_submanifold(0, a=2.0, b=1.0)),
        (randers, fc.axis_line_submanifold(0, (0.0, 0.0), (0.0, 1.0),
                                           half_extent=4.0)),
    ]
    for metric, N in cases:
        rays, _ = fc.sample_unit_cone(metric, N, (9, 1))
        flows = fc.normal_jacobi_flows(metric, N, rays, 3.0)
        assert len(flows) == len(rays) == 18
        for ray, flow in zip(rays, flows):
            lone = fc.normal_jacobi_flow(metric, N, ray, 3.0)
            assert flow.t1 == lone.t1 == 3.0
            _assert_same_segments(flow.path.segments, lone.path.segments)


def _custom_metric(atlas):
    """An irreversible, x-dependent Randers-type metric: its spray comes
    from the default dual-number row loop."""
    def F(chart, x, v):
        return (dual.sqrt(v[0] * v[0] + v[1] * v[1])
                + 0.2 * x[1] * v[0] - 0.1 * x[0] * x[0] * v[1])
    return fc.CustomMetric(atlas, F)


def test_custom_metric_rows_equal_lone_integrations():
    metric = _custom_metric(fc.flat_atlas())
    N = fc.point_submanifold(0, np.array([0.1, -0.2]))
    rays, _ = fc.sample_unit_cone(metric, N, (1, 6))
    paths = fc.integrate_geodesics(metric, [r.tangent() for r in rays], 1.0)
    flows = fc.normal_jacobi_flows(metric, N, rays, 1.0)
    for ray, path, flow in zip(rays, paths, flows):
        lone = fc.integrate_geodesic(metric, ray.tangent(), 1.0)
        _assert_same_segments(path.segments, lone.segments)
        lone_flow = fc.normal_jacobi_flow(metric, N, ray, 1.0)
        _assert_same_segments(flow.path.segments, lone_flow.path.segments)


def test_rows_with_rejected_steps_and_chart_switches_equal_lone():
    # loose tolerances make the stepper reject steps (see the scipy
    # comparison); each row keeps its own step control
    metric = fc.sphere_metric(fc.sphere_atlas())
    rng = np.random.default_rng(2)
    charts = [0, 1, 0, 1, 0, 0]
    y0s = [np.array([0.3, -0.2, 0.45, 0.1])] * 2 + [
        np.concatenate([rng.uniform(-1, 1, 2), rng.standard_normal(2)])
        for _ in range(4)]
    for m in (0, 1):
        rows = y0s if m == 0 else [
            np.concatenate([y, [0.0, 0.0], [1.0, 0.5]]) for y in y0s]
        got = _integrate_rows(metric, charts, rows, 2.5, 1e-3, 1e-6, m)
        for chart, y0, segs in zip(charts, rows, got):
            (lone,) = _integrate_rows(metric, [chart], [y0], 2.5, 1e-3,
                                      1e-6, m)
            _assert_same_segments(segs, lone)
        assert any(len(segs) > 1 for segs in got)


def test_fan_flows_do_not_depend_on_earlier_requests(sphere_setup):
    _, metric, N, _ = sphere_setup
    plan = fc.ShootingPlan(psi_count=16, horizon=4.0, ode_rtol=1e-8,
                           ode_atol=1e-10, min_slack=1e-5)
    early = fc.NormalShooting(metric, N, plan)
    fresh = fc.NormalShooting(metric, N, plan)
    # an off-grid flow and a lone fan flow before the batch
    early.flow(early.ray_at(np.array([0.1]), early.rays[0]))
    early.flow(early.rays[3])
    got = fc.cut_locus(early, classify=False)
    want = fc.cut_locus(fresh, classify=False)
    for a, b in zip(got, want):
        assert (a.rho, a.lam) == (b.rho, b.lam)
    H = plan.horizon
    for ray in fresh.rays:
        key = cutlocus._ray_key(ray), H
        _assert_same_segments(early._flows[key].path.segments,
                              fresh._flows[key].path.segments)


def test_a_failing_row_leaves_the_other_rows_intact():
    metric = _custom_metric(fc.flat_atlas(halfwidth=1.0))
    starts = [TangentVec(0, np.array([0.1, -0.2]), np.array([0.6, 0.3])),
              TangentVec(0, np.array([0.8, 0.0]), np.array([1.0, 0.0])),
              TangentVec(0, np.array([0.2, 0.2]), np.zeros(2)),
              TangentVec(0, np.array([-0.3, 0.1]), np.array([0.2, 0.5]))]
    got = fc.integrate_geodesics(metric, starts, 1.0)
    failures = 0
    for start, path in zip(starts, got):
        try:
            lone = fc.integrate_geodesic(metric, start, 1.0)
        except FinslerError as exc:
            failures += 1
            assert type(path) is type(exc) and str(path) == str(exc)
            if isinstance(exc, fc.IntegrationError):
                assert path.t == exc.t and np.array_equal(path.x, exc.x)
            continue
        _assert_same_segments(path.segments, lone.segments)
    assert failures == 2 and isinstance(got[1], fc.AtlasExitError)

    # in a shooting field, the rays that leave the box are not filed: a
    # later request integrates them alone and raises as before
    N = fc.point_submanifold(0, np.array([0.7, 0.0]))
    field = fc.NormalShooting(metric, N, fc.ShootingPlan(psi_count=8,
                                                         horizon=0.5))
    field.file_fan(field.rays)
    left = 0
    for ray in field.rays:
        key = cutlocus._ray_key(ray), 0.5
        try:
            lone = fc.normal_jacobi_flow(metric, N, ray, 0.5)
        except fc.AtlasExitError:
            left += 1
            assert key not in field._flows and key not in field._paths
            with pytest.raises(fc.AtlasExitError):
                field.flow(ray)
            with pytest.raises(fc.AtlasExitError):
                field.path(ray)
            continue
        lone_path = fc.integrate_geodesic(metric, ray.tangent(), 0.5)
        _assert_same_segments(field._paths[key].segments, lone_path.segments)
        _assert_same_segments(field._flows[key].path.segments,
                              lone.path.segments)
    assert 0 < left < len(field.rays)


def test_fan_samples_equal_per_time_dense_output():
    field = _builtin_field("sphere-equator")
    rng = np.random.default_rng(4)
    for i in (0, 17, 40):
        for seg, (chart, ts, xs) in zip(field.path(field.rays[i]).segments,
                                        field.samples(i)):
            assert chart == seg.chart and xs.shape == (2, len(ts))
            for j, t in enumerate(ts):
                assert np.array_equal(xs[:, j], seg.eval(t)[:2])
            # knots, the segment ends and times just outside them too
            more = np.concatenate([seg.knots, rng.uniform(seg.t0, seg.t1, 50),
                                   [seg.t0 - 1e-3, seg.t1 + 1e-3]])
            rows = seg.eval_many(more)
            for j, t in enumerate(more):
                assert np.array_equal(rows[j], seg.eval(t))
