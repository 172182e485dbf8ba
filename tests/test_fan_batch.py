"""The batched fan: every row of a batch integration equals its lone
integration in knots, states and dense-output coefficients."""

import dataclasses

import numpy as np
import pytest

import finslercut as fc
from finslercut import cutlocus, dual, scenario
from finslercut.atlas import TangentVec
from finslercut.errors import FinslerError
from finslercut.geodesic import _integrate_rows


def _assert_same_segments(got, want):
    """Equal segments, byte for byte: a zero keeps its sign."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.chart, a.t0, a.t1) == (b.chart, b.t0, b.t1)
        assert float(a.sign).hex() == float(b.sign).hex()
        for f in ("knots", "y_old", "Q"):
            assert getattr(a, f).tobytes() == getattr(b, f).tobytes()


def _builtin_field(name):
    _, metric, N, plan = scenario.build_geometry(
        scenario.builtin_scenario(name))
    return fc.NormalShooting(metric, N, plan)


def _assert_fan_matches_lone(field):
    """The field's batched one-horizon flows against lone ones, each fan
    path being its flow's base on a stepped field; returns how many fan
    paths switch charts."""
    plan = field.plan
    H = plan.horizon
    field.file_fan(field.rays)
    assert field.stepped and not field._paths
    switched = 0
    for ray in field.rays:
        key = cutlocus._ray_key(ray), H
        flow = fc.normal_jacobi_flow(field.metric, field.N, ray, H,
                                     rtol=plan.ode_rtol, atol=plan.ode_atol)
        _assert_same_segments(field._flows[key].path.segments,
                              flow.path.segments)
        assert field.path(ray) is field._flows[key].path
        switched += len(flow.path.segments) > 1
    return switched


def test_sphere_point_fan_batch_equals_lone_integrations():
    field = _builtin_field("sphere-point")
    # every fan path and flow crosses into the second chart
    assert _assert_fan_matches_lone(field) == len(field.rays) == 64


def test_sphere_equator_fan_batch_equals_lone_integrations():
    field = _builtin_field("sphere-equator")
    assert field.N.k == 1 and len(field.rays) == 64
    assert _assert_fan_matches_lone(field) > 0


def test_a_stepped_field_steps_each_geodesic_once():
    field = _builtin_field("sphere-point")
    fc.cut_locus(field)
    assert not field._paths
    H = field.plan.horizon
    for ray in field.rays:
        assert field.path(ray) is field._flows[cutlocus._ray_key(ray), H].path
    # one flow per fan ray and no lone path: 3228 steps, not 2 x 3228
    steps = sum(len(seg.knots) - 1 for flow in field._flows.values()
                for seg in flow.path.segments)
    assert len(field._flows) == len(field.rays) and steps == 3228


def test_a_query_before_the_cut_locus_changes_no_record():
    early, fresh = _builtin_field("sphere-point"), _builtin_field("sphere-point")
    # a lone flow, then the fan stacked, before cut_locus files anything
    early.distance(early.path(early.rays[3]).position(1.0))
    for a, b in zip(fc.cut_locus(early), fc.cut_locus(fresh), strict=True):
        assert (a.rho, a.lam, a.classification) == (b.rho, b.lam,
                                                    b.classification)
        assert a.cut_point[0] == b.cut_point[0]
        assert np.array_equal(a.cut_point[1], b.cut_point[1])
        assert a.competitor[1] == b.competitor[1]
        assert cutlocus._ray_key(a.competitor[0]) == cutlocus._ray_key(
            b.competitor[0])


def test_a_flat_field_files_flows_only_for_uncut_rays():
    field = _builtin_field("plane-circle")
    assert field.straight is None and not field.stepped
    H = field.plan.horizon
    keys = [cutlocus._ray_key(ray) for ray in field.rays]
    for key in keys[::5]:
        field._cut_times[key] = cutlocus.CutTimeResult(1.0, 1.0)
    field.file_fan(field.rays)
    assert set(field._flows) == {(key, H) for key in keys
                                 if key not in field._cut_times}
    # the first distance queries read the stacked fan, whose exact lines
    # are built one by one on request, each equal to its row of a batch
    # integration
    assert field._stack is not None
    rows = fc.integrate_geodesics(field.metric,
                                  [ray.tangent() for ray in field.rays], H)
    for ray, row in zip(field.rays, rows):
        _assert_same_segments(
            field._paths[cutlocus._ray_key(ray), H].segments, row.segments)


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
    got = fc.cut_locus(early)
    want = fc.cut_locus(fresh)
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
    # later request integrates them alone and raises as before; the metric
    # is curved, so a path is its flow's base and is never filed apart
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
            assert key not in field._flows
            with pytest.raises(fc.AtlasExitError):
                field.flow(ray)
            with pytest.raises(fc.AtlasExitError):
                field.path(ray)
            continue
        _assert_same_segments(field._flows[key].path.segments,
                              lone.path.segments)
        assert field.path(ray) is field._flows[key].path
    assert 0 < left < len(field.rays) and not field._paths


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
        # the Jacobi flow's (x, v, J, Jd) rows, as the focal scan reads them
        for seg in field.flow(field.rays[i]).path.segments:
            more = np.concatenate([seg.knots, rng.uniform(seg.t0, seg.t1, 50),
                                   [seg.t0 - 1e-3, seg.t1 + 1e-3]])
            rows = seg.eval_many(more)
            assert rows.shape == (len(more), 8)
            for j, t in enumerate(more):
                assert np.array_equal(rows[j], seg.eval(t))


def test_a_bad_start_is_held_in_its_place_in_every_batch():
    # a geodesic or flow start with v = 0 or outside its chart is refused
    # as integrate_geodesic refuses it, and the other rows are stepped
    # byte for byte as alone
    metric = fc.sphere_metric(fc.sphere_atlas())
    N = fc.point_submanifold(0, np.array([0.2, -0.1]))
    rays, _ = fc.sample_unit_cone(metric, N, (1, 6))
    rays[1] = dataclasses.replace(rays[1], v=np.zeros(2))
    rays[4] = dataclasses.replace(rays[4], x=np.array([5.0, 0.0]))
    errors = {1: fc.DegenerateDirectionError, 4: fc.DomainError}
    starts = [ray.tangent() for ray in rays]
    data = [fc.cone_variation_data(metric, N, ray) for ray in rays]
    T = 3.5
    paths = fc.integrate_geodesics(metric, starts, T)
    flows = fc.linearized_flows(metric, starts, T, [J for J, _ in data],
                                [Jd for _, Jd in data])
    normal = fc.normal_jacobi_flows(metric, N, rays, T)
    for i, (start, ray) in enumerate(zip(starts, rays)):
        if i in errors:
            for got in (paths[i], flows[i], normal[i]):
                assert type(got) is errors[i]
            with pytest.raises(errors[i]):
                fc.integrate_geodesic(metric, start, T)
            with pytest.raises(errors[i]):
                fc.normal_jacobi_flow(metric, N, ray, T)
            continue
        lone = fc.integrate_geodesic(metric, start, T).segments
        _assert_same_segments(paths[i].segments, lone)
        lone = fc.normal_jacobi_flow(metric, N, ray, T).path.segments
        _assert_same_segments(flows[i].path.segments, lone)
        _assert_same_segments(normal[i].path.segments, lone)
