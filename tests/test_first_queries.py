"""Each ray's first distance query, filed in one batch: the lockstep focal
refinement (``geodesic.first_degeneracies``), the batched distance queries
(``NormalShooting.distances``, ``StraightPointSource.distances``) and the
lockstep time-only polish give every value the bits of its lone
computation."""

import dataclasses
import math

import numpy as np
import pytest

import finslercut as fc
from finslercut import cutlocus, scenario, topology
from finslercut.geodesic import first_degeneracies

from test_geodesic import _scalar_first_degeneracy


def _builtin_field(name):
    _, metric, N, plan = scenario.build_geometry(
        scenario.builtin_scenario(name))
    return fc.NormalShooting(metric, N, plan)


def _hex(x):
    return float(x).hex()


@pytest.mark.parametrize("name", ["sphere-point", "sphere-equator"])
def test_lockstep_focal_times_match_the_lone_and_scalar_scans(name):
    field = _builtin_field(name)
    H = field.plan.horizon
    frames = [field.flow(ray) for ray in field.rays]
    got = first_degeneracies(frames, cutlocus.FOCAL_FLOOR, H)
    assert len(got) == len(frames) == 64
    assert sum(math.isfinite(t) for t in got) >= 32
    for lam, frame in zip(got, frames):
        lone = fc.first_degeneracy(frame, cutlocus.FOCAL_FLOOR, H)
        want = _scalar_first_degeneracy(frame, cutlocus.FOCAL_FLOOR, H)
        assert _hex(lam) == _hex(lone) == _hex(want)


def test_a_frame_with_no_degeneracy_stays_unbounded_in_a_batch():
    # plane-circle's outward rays never focus; its inward rays focus at 1
    field = _builtin_field("plane-circle")
    frames = [field.flow(ray) for ray in field.rays[::37]]
    got = first_degeneracies(frames, cutlocus.FOCAL_FLOOR, 3.0)
    assert any(math.isinf(t) for t in got)
    assert any(abs(t - 1.0) < 1e-6 for t in got)
    for lam, frame in zip(got, frames):
        want = _scalar_first_degeneracy(frame, cutlocus.FOCAL_FLOOR, 3.0)
        assert _hex(lam) == _hex(want)
    assert first_degeneracies([], cutlocus.FOCAL_FLOOR, 3.0) == []


def test_the_field_files_every_focal_time_once():
    field = _builtin_field("sphere-point")
    field.file_fan(field.rays)
    H = field.plan.horizon
    assert set(field._focal) == {(cutlocus._ray_key(ray), H)
                                 for ray in field.rays}
    for ray in field.rays[:8]:
        lam = field._focal[cutlocus._ray_key(ray), H]
        assert field.focal_time(ray) is lam
        assert _hex(lam) == _hex(fc.first_degeneracy(
            field.flow(ray), cutlocus.FOCAL_FLOOR, H))


def _assert_same_witness(a, b):
    assert _hex(a.d) == _hex(b.d)
    assert len(a.arrivals) == len(b.arrivals)
    for m, n in zip(a.arrivals, b.arrivals):
        assert _hex(m.t) == _hex(n.t) and _hex(m.residual) == _hex(n.residual)
        assert cutlocus._ray_key(m.ray) == cutlocus._ray_key(n.ray)
        assert np.array_equal(m.ray.x, n.ray.x)
        assert np.array_equal(m.ray.v, n.ray.v)
        assert m.terminal.chart == n.terminal.chart
        assert np.array_equal(m.terminal.x, n.terminal.x)
        assert np.array_equal(m.terminal.v, n.terminal.v)


def _assert_batch_matches_lone(batch_field, lone_field, qs, full=True):
    got = batch_field.distances(qs, full)
    for q, wit in zip(qs, got):
        assert not isinstance(wit, Exception), q
        _assert_same_witness(wit, lone_field.distance(q, full))
    return got


def _sphere_bracket_tops(field):
    """x(min(lambda, H)) of every fan ray, and one point of fan ray 5 past
    the chart switch, given in the other chart."""
    H = field.plan.horizon
    tops = [field.path(ray).position(min(field.focal_time(ray), H))
            for ray in field.rays]
    chart, x = field.path(field.rays[5]).position(2.0)
    assert chart == 1
    return tops + [(0, field.atlas.convert((chart, x), 0))]


@pytest.mark.parametrize("full", [True, False])
def test_sphere_distances_match_lone_queries(full):
    batch, lone = (_builtin_field("sphere-point") for _ in range(2))
    qs = _sphere_bracket_tops(batch)
    got = _assert_batch_matches_lone(batch, lone, qs, full)
    # every antipode has many minimizers; the cross-chart point has one
    assert all(len(wit.leading(2)) == 2 for wit in got[:-1])
    assert len(got[-1].minimizers) == 1 and got[-1].arrivals[0].t < 2.0 + 1e-6


def _scalar_time_polish(field, q, i, t0):
    """The time-only Newton stage that the lockstep polish replaced, one
    pair at a time: the fan ray's Minimizer, or None to leave it to
    Gauss-Newton."""
    plan = field.plan
    ray = field.rays[i]
    t = max(float(t0), 1e-9)
    tol = max(cutlocus.NEWTON_TOL, 10.0 * plan.ode_rtol) * (1.0 + abs(t0))
    path = field.path(ray, max(t * 1.05, 1e-6))
    state = path.state(t)
    r = -field.atlas.displacement((state.chart, state.x), q)
    rn = float(np.linalg.norm(r))
    for _ in range(cutlocus.POLISH_STEPS):
        vel = field.atlas.velocity_in(state, q[0])
        step = np.clip(-(vel @ r) / (vel @ vel), -0.5 * plan.horizon,
                       0.5 * plan.horizon)
        t_new = max(t + step, 1e-9)
        if t_new > path.t1:
            break
        s_new = path.state(t_new)
        r_new = -field.atlas.displacement((s_new.chart, s_new.x), q)
        rn_new = float(np.linalg.norm(r_new))
        if rn_new >= rn:
            break
        halved = rn_new <= 0.5 * rn
        t, r, state, rn = t_new, r_new, s_new, rn_new
        if not halved:
            break
    if rn <= tol:
        return fc.Minimizer(ray, float(t), state, rn)
    return None


def test_lockstep_polish_matches_the_scalar_time_stage():
    field = _builtin_field("sphere-point")
    qs = _sphere_bracket_tops(field)
    pairs = [(q, i, t) for q in qs
             for i, t in field._candidates(q, cutlocus.MAX_CANDIDATES)[0]]
    got = field._arrivals(pairs)
    settled = 0
    for (q, i, t0), m in zip(pairs, got):
        want = _scalar_time_polish(field, q, i, t0)
        if want is None:
            continue
        settled += 1
        assert m.ray is want.ray
        assert _hex(m.t) == _hex(want.t)
        assert _hex(m.residual) == _hex(want.residual)
        assert m.terminal.chart == want.terminal.chart
        assert np.array_equal(m.terminal.x, want.terminal.x)
        assert np.array_equal(m.terminal.v, want.terminal.v)
    assert settled >= 512


def _torus_fields():
    atlas = fc.torus_atlas([0.9, 1.2])
    plan = fc.ShootingPlan(psi_count=32, horizon=1.5, bisect_tol=1e-8,
                           min_slack=1e-7)
    N = fc.point_submanifold(0, [0.1, 0.4])
    for metric in (fc.euclidean_metric(atlas),
                   fc.MinkowskiQuarticMetric(atlas, eps=0.1),
                   fc.RandersMetric(atlas, np.array([0.3, -0.2]))):
        yield (fc.NormalShooting(metric, N, plan),
               fc.NormalShooting(metric, N, plan))


def test_closed_form_distances_match_lone_queries():
    rng = np.random.default_rng(31)
    for batch, lone in _torus_fields():
        assert batch.straight is not None
        # the confirming cut points, random points, and the source itself
        rhos = batch.straight.cut_times(batch.rays)
        qs = [batch.path(ray, rho).position(rho)
              for ray, rho in zip(batch.rays, rhos.tolist())]
        qs += [(0, rng.uniform(-1.0, 2.0, 2)) for _ in range(20)]
        qs += [(0, np.array([0.1, 0.4])), (0, np.array([1.0, 1.6]))]
        got = _assert_batch_matches_lone(batch, lone, qs)
        assert got[-1].d == got[-2].d == 0.0
        assert all(len(wit.leading(2)) >= 2 for wit in got[:len(rhos)])


def test_an_unreachable_point_in_a_batch_holds_its_error():
    plan = fc.ShootingPlan(psi_count=16, horizon=1.0)
    plane = fc.flat_atlas()
    source = fc.point_submanifold(0, np.zeros(2))
    near = [(0, np.array([0.3, 0.2])), (0, np.array([-0.5, 0.1]))]
    far = (0, np.array([5.0, 0.0]))
    for metric in (fc.euclidean_metric(plane),
                   fc.RandersMetric(plane, np.array([0.0, 0.3]))):
        # the Euclidean plane shoots only if the closed form is withheld
        field = fc.NormalShooting(metric, source, plan)
        for straight in ((field.straight, None)
                         if metric.reversible else (field.straight,)):
            field.straight = straight
            field._witnesses.clear()
            got = field.distances([near[0], far, near[1], far])
            assert isinstance(got[1], fc.UnreachedPointError)
            assert isinstance(got[3], fc.UnreachedPointError)
            for q, wit in zip(near, got[::2]):
                assert wit is field.distance(q) and wit.d > 0.0
            assert len(field._witnesses) == 2
            with pytest.raises(fc.UnreachedPointError):
                field.distance(far)
            # a quick batch stores nothing
            field._witnesses.clear()
            quick = field.distances([near[0], far], full=False)
            assert isinstance(quick[1], fc.UnreachedPointError)
            assert not field._witnesses


def test_a_batch_computes_each_full_point_once(monkeypatch):
    field = _builtin_field("sphere-point")
    q = field.path(field.rays[3]).position(1.0)
    computed = []
    shoot = cutlocus.NormalShooting._shoot_distances

    def counted(self, qs, full=True):
        computed.extend(qs)
        return shoot(self, qs, full)

    monkeypatch.setattr(cutlocus.NormalShooting, "_shoot_distances", counted)
    a, b = field.distances([q, (q[0], q[1].copy())])
    assert a is b and len(computed) == 1
    quick = field.distances([q, q], full=False)
    assert quick[0] is not quick[1] and len(computed) == 3


def _loop_fan_twin(field, ray):
    """The loop over the fan that the stacked lookup replaced."""
    v0, v1 = ray.v.tolist()
    for fan in field.rays:
        a, b = fan.v.tolist()
        rounding = topology.ROUNDING
        if (abs(a - v0) <= rounding and abs(b - v1) <= rounding
                and fan.chart == ray.chart
                and np.max(np.abs(fan.x - ray.x)) <= rounding):
            return fan
    return ray


def test_fan_twin_matches_the_loop_over_the_fan():
    field = _builtin_field("torus-point")
    rays = []
    for ray in field.rays[::9]:
        for dv in (0.0, 4e-13, 3e-12):
            rays.append(dataclasses.replace(ray, v=ray.v + dv))
        rays.append(dataclasses.replace(ray, x=ray.x - 5e-13))
        rays.append(dataclasses.replace(ray, chart=1))
    for ray in rays:
        assert topology._fan_twin(field, ray) is _loop_fan_twin(field, ray)
    assert sum(topology._fan_twin(field, ray) is not ray for ray in rays) \
        == 3 * len(field.rays[::9])


def test_covector_rows_do_not_depend_on_their_batch():
    # a (k, 2) BLAS product gave a Randers row other last bits in another
    # batch; the closed-form batch mixes the rows of many queries
    atlas = fc.torus_atlas([1.0, 1.0])
    metrics = [fc.RandersMetric(atlas, np.array([0.3, -0.2])),
               fc.RandersMetric(atlas, np.array([0.1, 0.4]),
                                np.array([[1.3, 0.2], [0.2, 0.7]])),
               fc.MinkowskiQuarticMetric(atlas, eps=0.1)]
    V = np.random.default_rng(5).standard_normal((300, 2))
    for metric in metrics:
        whole = metric.legendre_rows(0, np.zeros(2), V)
        for k in (1, 2, 3, 7):
            for j in range(0, 300 - k, k):
                part = metric.legendre_rows(0, np.zeros(2), V[j:j + k])
                assert np.array_equal(part, whole[j:j + k])
