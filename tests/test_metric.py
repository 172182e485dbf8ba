import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import finslercut as fc
from finslercut import dual
from finslercut.atlas import TangentVec
from finslercut.metric import (INVERSE_ITERS, MetricField, RiemannianMetric,
                               _d1, _split_seed)

unit_dir = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(
    lambda v: math.hypot(*v) > 0.1)


def _metrics():
    atlas = fc.flat_atlas()
    return [
        ("euclidean", fc.euclidean_metric(atlas)),
        ("randers", fc.RandersMetric(atlas, np.array([0.5, 0.0]))),
        ("quartic", fc.MinkowskiQuarticMetric(atlas, eps=0.1)),
    ]


@pytest.mark.parametrize("name,metric", _metrics())
def test_positive_homogeneity(name, metric):
    p = TangentVec(0, np.array([0.1, -0.2]), np.array([0.7, -1.3]))
    f = metric.F(p)
    for s in (0.5, 2.0, 7.3):
        q = TangentVec(0, p.x, s * p.v)
        assert math.isclose(metric.F(q), s * f, rel_tol=1e-12)


@pytest.mark.parametrize("name,metric", _metrics())
def test_fundamental_reproduces_F_squared(name, metric):
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.standard_normal(2)
        p = TangentVec(0, rng.uniform(-0.5, 0.5, 2), v)
        g = fc.fundamental_tensor(metric, p).g
        assert math.isclose(float(v @ g @ v), metric.F(p) ** 2,
                            rel_tol=1e-10)


@pytest.mark.parametrize("name,metric", _metrics())
def test_cartan_vanishes_on_radial_contraction(name, metric):
    # C_v(v, ., .) = 0 by Euler homogeneity
    p = TangentVec(0, np.zeros(2), np.array([0.8, -0.5]))
    C = metric.cartan(p)
    contr = np.einsum("ijk,i->jk", np.asarray(C), p.v)
    assert np.max(np.abs(contr)) < 1e-9


def _relative_gap(g, ref):
    return float(np.max(np.abs(g - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
def test_quartic_fundamental_matches_dual_oracle(eps):
    # the closed form against the nested-dual Hessian of F^2/2, off-diagonal
    # terms included, over six decades of |v|
    metric = fc.MinkowskiQuarticMetric(fc.flat_atlas(), eps=eps)
    rng = np.random.default_rng(11)
    for _ in range(40):
        v = rng.standard_normal(2)
        v *= 10.0 ** rng.uniform(-6.0, 3.0) / np.linalg.norm(v)
        p = TangentVec(0, rng.uniform(-0.5, 0.5, 2), v)
        gap = _relative_gap(metric.fundamental(p),
                            MetricField.fundamental(metric, p))
        assert gap <= 1e-13, (v, gap)


def test_reversed_quartic_fundamental_matches_dual_oracle():
    rev = fc.MinkowskiQuarticMetric(fc.flat_atlas(), eps=0.3).reversed_()
    p = TangentVec(0, np.zeros(2), np.array([0.9, -0.35]))
    assert _relative_gap(rev.fundamental(p),
                         MetricField.fundamental(rev, p)) <= 1e-13


def test_randers_closed_form_values():
    atlas = fc.flat_atlas()
    metric = fc.RandersMetric(atlas, np.array([0.5, 0.0]))
    assert math.isclose(
        metric.F(TangentVec(0, np.zeros(2), np.array([1.0, 0.0]))), 1.5)
    assert math.isclose(
        metric.F(TangentVec(0, np.zeros(2), np.array([-1.0, 0.0]))), 0.5)
    # irreversible
    assert fc.reversibility_defect(metric) > 0.1


def test_randers_enforce_rejects_large_drift():
    atlas = fc.flat_atlas()
    with pytest.raises(fc.ConvexityError):
        fc.RandersMetric(atlas, np.array([1.2, 0.0]))


def test_validate_metric_rejects_nonconvex():
    atlas = fc.flat_atlas()
    bad = fc.RandersMetric(atlas, np.array([1.2, 0.0]), enforce=False)
    report = fc.validate_metric(bad)
    assert not report.passed
    assert report.failures


def test_validate_metric_accepts_standard_families():
    for name, metric in _metrics():
        report = fc.validate_metric(metric)
        assert report.passed, (name, report.failures)
        assert report.homogeneity_max < 1e-9
        assert report.min_eigenvalue > 0


def test_reversed_metric_flips_argument():
    atlas = fc.flat_atlas()
    metric = fc.RandersMetric(atlas, np.array([0.3, 0.1]))
    rev = metric.reversed_()
    p = TangentVec(0, np.array([0.2, 0.2]), np.array([1.1, -0.4]))
    q = TangentVec(0, p.x, -p.v)
    assert math.isclose(rev.F(p), metric.F(q), rel_tol=1e-12)


@given(v=unit_dir)
@settings(max_examples=30, deadline=None)
def test_legendre_roundtrip_euclidean(v):
    atlas = fc.flat_atlas()
    metric = fc.euclidean_metric(atlas)
    p = TangentVec(0, np.zeros(2), np.array(v))
    omega = fc.legendre(metric, p).omega
    back = fc.legendre_inverse(metric, 0, p.x, omega)
    assert np.allclose(back.v, p.v, atol=1e-9)


@pytest.mark.parametrize("name,metric", _metrics())
def test_legendre_roundtrip_all_families(name, metric):
    rng = np.random.default_rng(7)
    for _ in range(8):
        v = rng.standard_normal(2)
        if np.linalg.norm(v) < 0.2:
            continue
        p = TangentVec(0, rng.uniform(-0.3, 0.3, 2), v)
        omega = fc.legendre(metric, p).omega
        back = fc.legendre_inverse(metric, 0, p.x, omega)
        assert np.allclose(back.v, v, atol=1e-8 * (1 + np.linalg.norm(v)))


def test_legendre_inversion_that_stalls_raises():
    # g_v = I / |v| maps every v to its unit vector, so g_v(v, .) never
    # reaches omega = (2, 0): each Newton step doubles v at residual 1
    calls = []

    class Stalling(fc.CustomMetric):
        def fundamental(self, p):
            calls.append(p.v)
            return np.eye(2) / np.linalg.norm(p.v)

    metric = Stalling(fc.flat_atlas(), lambda chart, x, v: dual.sqrt(
        v[0] * v[0] + v[1] * v[1]))
    with pytest.raises(fc.InversionError) as err:
        fc.legendre_inverse(metric, 0, np.zeros(2), np.array([2.0, 0.0]))
    assert err.value.residual == 1.0
    assert len(calls) == INVERSE_ITERS


def test_sphere_metric_conformal_factor():
    atlas = fc.sphere_atlas()
    metric = fc.sphere_metric(atlas)
    # at the chart origin the round factor is 4/(1+0)^2 = 4, so F = 2|v|
    p = TangentVec(0, np.zeros(2), np.array([1.0, 0.0]))
    assert math.isclose(metric.F(p), 2.0, rel_tol=1e-12)


def test_degenerate_direction_rejected():
    atlas = fc.flat_atlas()
    metric = fc.euclidean_metric(atlas)
    with pytest.raises(fc.DegenerateDirectionError):
        fc.fundamental_tensor(metric,
                              TangentVec(0, np.zeros(2), np.zeros(2)))


def _round_states(rng, count):
    """Sphere states (chart, x, v, dx, dv) in both charts, |v| from 1e-6 to
    1e2, every fourth with a zero entry in v, dx or dv, and every other one
    as Python floats instead of np.float64."""
    states = []
    for k in range(count):
        chart = k % 2
        x = rng.uniform(-3.0, 3.0, 2)
        v = rng.standard_normal(2)
        v *= 10.0 ** rng.uniform(-6.0, 2.0) / np.linalg.norm(v)
        dx = rng.standard_normal((2, 1)) * 10.0 ** rng.uniform(-3.0, 1.0)
        dv = rng.standard_normal((2, 1)) * 10.0 ** rng.uniform(-3.0, 1.0)
        if k % 4 == 3:
            (v, dx[:, 0], dv[:, 0])[k % 3][k % 2] = 0.0
        x, v = list(x), list(v)
        if k % 4 < 2:
            x, v = [float(c) for c in x], [float(c) for c in v]
        states.append((chart, x, v, dx, dv))
    return states


def test_round_sphere_spray_equals_dual_path():
    # the closed forms must give the analytic spray_generic branch's numbers
    # exactly, both its float evaluation and its dual parts, one row at a
    # time and on rows
    metric = fc.sphere_metric(fc.sphere_atlas())
    assert isinstance(metric, RiemannianMetric)
    assert metric.spray_generic.__func__ is RiemannianMetric.spray_generic
    states = _round_states(np.random.default_rng(5), 3000)
    refs = []
    for chart, x, v, dx, dv in states:
        ref = [dual.real(c) for c in metric.spray_generic(chart, x, v)]
        seeded = _split_seed(x + v, list(dx[:, 0]) + list(dv[:, 0]), 2)
        dref = [_d1(o) for o in metric.spray_generic(chart, *seeded)]
        refs.append((ref, dref))
        assert np.array_equal(metric.spray(chart, [x], [v])[0], ref), (x, v)
        s, ds = metric.spray_jvp(chart, [x], [v], dx[None], dv[None])
        assert np.array_equal(s[0], ref), (x, v)
        assert ds.shape == (1, 2, 1)
        assert np.array_equal(ds[0, :, 0], dref), (x, v, dx, dv)
    # all states of a chart as the rows of one call
    for chart in (0, 1):
        idx = [k for k, st in enumerate(states) if st[0] == chart]
        x = np.array([states[k][1] for k in idx], dtype=float)
        v = np.array([states[k][2] for k in idx], dtype=float)
        dx = np.array([states[k][3] for k in idx])
        dv = np.array([states[k][4] for k in idx])
        rows = metric.spray(chart, x, v)
        s, ds = metric.spray_jvp(chart, x, v, dx, dv)
        assert rows.shape == s.shape == (len(idx), 2)
        assert ds.shape == (len(idx), 2, 1)
        for j, k in enumerate(idx):
            ref, dref = refs[k]
            assert np.array_equal(rows[j], ref)
            assert np.array_equal(s[j], ref)
            assert np.array_equal(ds[j, :, 0], dref)


def test_round_sphere_spray_jvp_takes_columns():
    metric = fc.sphere_metric(fc.sphere_atlas())
    rng = np.random.default_rng(8)
    x, v = rng.uniform(-1.0, 1.0, (4, 2)), rng.standard_normal((4, 2))
    dx, dv = rng.standard_normal((4, 2, 3)), rng.standard_normal((4, 2, 3))
    s, ds = metric.spray_jvp(0, x, v, dx, dv)
    ref_s, ref_ds = MetricField.spray_jvp(metric, 0, x, v, dx, dv)
    assert ds.shape == (4, 2, 3)
    assert np.array_equal(s, ref_s)
    assert np.array_equal(ds, ref_ds)


def test_reversed_sphere_geodesic_matches_forward():
    # the round metric is reversible, so reversing it changes no geodesic
    metric = fc.sphere_metric(fc.sphere_atlas())
    point, v = (0, np.array([0.3, -0.2])), np.array([0.5, 0.7])
    chart, x = fc.exp_map(metric, point, v)
    rchart, rx = fc.exp_map(metric.reversed_(), point, v)
    assert rchart == chart
    assert np.allclose(rx, x, atol=1e-12), (rx, x)


def test_reversed_metric_retraces_geodesics():
    # an irreversible, x-dependent Randers-type metric on the default dual
    # path: the reversed geodesic from (q, -w) runs back to the start
    atlas = fc.flat_atlas()

    def F(chart, x, v):
        return (dual.sqrt(v[0] * v[0] + v[1] * v[1])
                + 0.2 * x[1] * v[0] - 0.1 * x[0] * x[0] * v[1])

    metric = fc.CustomMetric(atlas, F)
    start = TangentVec(0, np.array([0.1, -0.2]), np.array([0.6, 0.3]))
    end = fc.integrate_geodesic(metric, start, 1.0).state(1.0)
    back = fc.integrate_geodesic(metric.reversed_(),
                                 TangentVec(0, end.x, -end.v), 1.0)
    assert np.allclose(back.position(1.0)[1], start.x, atol=1e-8)
    assert np.allclose(back.velocity(1.0), -start.v, atol=1e-8)
