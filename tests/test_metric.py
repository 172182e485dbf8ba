import dataclasses
import decimal
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
        g = metric.fundamental(p)
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


@pytest.mark.parametrize("eps", [1.0, 2.0, -0.5])
def test_quartic_rejects_eps_outside_unit_interval(eps):
    with pytest.raises(fc.ConvexityError):
        fc.MinkowskiQuarticMetric(fc.flat_atlas(), eps=eps)


def test_validate_metric_rejects_nonconvex():
    atlas = fc.flat_atlas()
    bad = fc.CustomMetric(atlas, lambda c, x, v: dual.sqrt(
        v[0] * v[0] + v[1] * v[1]) + 1.2 * v[0])
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
    omega = metric.legendre_rows(0, p.x, [p.v])[0]
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
        omega = metric.legendre_rows(0, p.x, [p.v])[0]
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
        metric.fundamental(TangentVec(0, np.zeros(2), np.zeros(2)))


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


# -- row oracles ----------------------------------------------------------


def _row_metrics():
    """The families with closed-form ``legendre_rows``, the round sphere,
    and a custom metric whose ``legendre_rows`` loops ``fundamental``."""
    atlas = fc.torus_atlas([1.0, 1.1])
    randers = fc.RandersMetric(atlas, np.array([0.5, -0.3]),
                               a=np.array([[1.2, 0.3], [0.3, 0.8]]))
    custom = fc.CustomMetric(
        fc.flat_atlas(),
        lambda chart, x, v: dual.sqrt((1.0 + 0.1 * x[0] * x[0]) * v[0] * v[0]
                                      + v[1] * v[1]) + 0.2 * v[1])
    return {"euclidean": fc.euclidean_metric(atlas),
            "quartic": fc.MinkowskiQuarticMetric(atlas, eps=0.1),
            "randers": randers,
            "reversed-randers": fc.metric.ReversedMetric(randers),
            "sphere": fc.sphere_metric(fc.sphere_atlas()),
            "custom": custom}


def _random_rows(seed, count=64):
    """Random rows over six decades of length, with a row below V_FLOOR and
    a zero row at the end."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(count, 2)) * 10.0 ** rng.uniform(-3, 3, (count, 1))
    return np.vstack([rows, [[1e-13, 0.0], [0.0, 0.0]]])


def _ulps(got, want):
    """|got - want| of each row in units in the last place of the row's
    largest entry of ``want``."""
    unit = np.spacing(np.abs(want).max(axis=1, keepdims=True))
    return (np.abs(got - want) / unit).max(axis=1)


def _exact_randers_covector(b, a, v):
    """g_v v = F(v) (a v / alpha + b) to 60 digits, alpha = sqrt(a(v, v))."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        D = decimal.Decimal
        v = [D(float(c)) for c in v]
        av = [sum(D(float(a[i][j])) * v[j] for j in range(2))
              for i in range(2)]
        alpha = sum(vi * avi for vi, avi in zip(v, av)).sqrt()
        f = alpha + sum(D(float(bi)) * vi for bi, vi in zip(b, v))
        return [float(f * (avi / alpha + D(float(bi))))
                for avi, bi in zip(av, b)]


@pytest.mark.parametrize("family", list(_row_metrics()))
def test_F_rows_equal_F_to_the_bit(family):
    metric = _row_metrics()[family]
    x = np.array([0.2, 0.3])
    rows = _random_rows(5)
    got = metric.F_rows(0, x, rows)
    want = [metric.F(TangentVec(0, x, v)) for v in rows]
    assert got.shape == (len(rows),)
    assert [float.hex(float(f)) for f in got] == [float.hex(f) for f in want]
    assert got[-2] == got[-1] == 0.0        # rows below V_FLOOR
    assert metric.F_rows(0, x, np.zeros((0, 2))).shape == (0,)


# ulps of legendre_rows from fundamental(p) @ v.  The Randers reference
# sums f (a / alpha - a v v^T a / alpha^3) v, which vanishes exactly, so it
# carries the rounding of terms larger than the result: on 20000 rows of
# this metric it was up to 19 ulp from the closed form F(v)(a v / alpha + b).
# That closed form is checked against its 60-digit value instead, to
# RANDERS_EXACT_ULPS: its sum a v / alpha + b cancels by up to |b|_a = 0.68,
# which can triple the ulps of its few roundings.
LEGENDRE_ULPS = {"randers": 24, "reversed-randers": 24}
RANDERS_EXACT_ULPS = 8


@pytest.mark.parametrize("family", list(_row_metrics()))
def test_legendre_rows_match_the_fundamental_tensor(family):
    metric = _row_metrics()[family]
    x = np.array([0.2, 0.3])
    rows = _random_rows(6)
    got = metric.legendre_rows(0, x, rows)
    assert got.shape == rows.shape
    assert not got[-2:].any()               # rows below V_FLOOR
    live = rows[:-2]
    want = np.array([metric.fundamental(TangentVec(0, x, v)) @ v
                     for v in live])
    assert _ulps(got[:-2], want).max() <= LEGENDRE_ULPS.get(family, 4)
    if family.endswith("randers"):
        b = metric.b if family == "randers" else -metric.base.b
        a = metric.a if family == "randers" else metric.base.a
        exact = np.array([_exact_randers_covector(b, a, v) for v in live])
        assert _ulps(got[:-2], exact).max() <= RANDERS_EXACT_ULPS
    assert metric.legendre_rows(0, x, np.zeros((0, 2))).shape == (0, 2)


def test_F_rows_evaluates_value_generic_once_on_arrays():
    calls = []

    def F(chart, x, v):
        calls.append(v)
        return dual.sqrt((1.0 + 0.1 * x[0] * x[0]) * v[0] * v[0]
                         + v[1] * v[1]) + 0.2 * v[1]

    metric = fc.CustomMetric(fc.flat_atlas(), F)
    x = np.array([0.2, 0.3])
    rows = _random_rows(8)[:64]
    got = metric.F_rows(0, x, rows)
    assert len(calls) == 1
    want = [metric.F(TangentVec(0, x, v)) for v in rows]
    assert [float.hex(float(f)) for f in got] == [float.hex(f) for f in want]


def test_value_generic_that_branches_on_v_fails_in_F_rows():
    # a branch on v has no meaning for a block of rows; it is not caught
    metric = fc.CustomMetric(fc.flat_atlas(), lambda chart, x, v: dual.sqrt(
        v[0] * v[0] + v[1] * v[1]) * (2.0 if v[0] > 0 else 1.0))
    assert metric.F(TangentVec(0, np.zeros(2), np.array([1.0, 0.0]))) == 2.0
    with pytest.raises(ValueError, match="ambiguous"):
        metric.F_rows(0, np.zeros(2), [[1.0, 0.0], [-1.0, 0.0]])


def test_no_family_overrides_F_rows():
    # value_generic is the one place a family writes F
    families = [c for c in vars(fc.metric).values()
                if isinstance(c, type) and issubclass(c, MetricField)
                and c is not MetricField]
    assert len(families) >= 6
    assert [c.__name__ for c in families if "F_rows" in vars(c)] == []


# -- fundamental tensors and Legendre inverses on rows -------------------


def _hexes(a):
    return [float.hex(float(c)) for c in np.ravel(a)]


def _tensor_cases():
    """(metric, chart, x) of every family with a closed-form
    ``fundamental_rows``, the round sphere in both charts, and the custom
    metric on the default loop."""
    metrics = _row_metrics()
    cases = {name: (m, 0, np.array([0.2, 0.3])) for name, m in metrics.items()}
    cases["sphere-chart-1"] = (metrics["sphere"], 1, np.array([-0.7, 0.45]))
    return cases


@pytest.mark.parametrize("case", list(_tensor_cases()))
def test_fundamental_rows_equal_fundamental_to_the_bit(case):
    metric, chart, x = _tensor_cases()[case]
    rows = _random_rows(9)[:-2]
    got = metric.fundamental_rows(chart, x, rows)
    assert got.shape == (len(rows), 2, 2)
    for g, v in zip(got, rows):
        assert _hexes(g) == _hexes(metric.fundamental(TangentVec(chart, x, v)))
    assert metric.fundamental_rows(chart, x, np.zeros((0, 2))).shape == \
        (0, 2, 2)
    with pytest.raises(fc.DegenerateDirectionError):
        metric.fundamental_rows(chart, x, _random_rows(9)[-3:])


def _lone_inverse(metric, chart, x, omega):
    try:
        return fc.legendre_inverse(metric, chart, x, omega)
    except (fc.FinslerError, np.linalg.LinAlgError) as exc:
        return exc


def _assert_same_inverses(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(w, Exception):
            assert str(g) == str(w)
            assert getattr(g, "residual", None) == getattr(w, "residual", None)
        else:
            assert g.chart == w.chart
            assert _hexes(g.x) == _hexes(w.x) and _hexes(g.v) == _hexes(w.v)


@pytest.mark.parametrize("case", list(_tensor_cases()))
def test_legendre_inverses_equal_legendre_inverse_to_the_bit(case):
    metric, chart, x = _tensor_cases()[case]
    rows = _random_rows(10)
    omegas = np.vstack([metric.legendre_rows(chart, x, rows[:-2]),
                        rows[-2:]])          # and two rows below V_FLOOR
    got = fc.legendre_inverses(metric, chart, x, omegas)
    _assert_same_inverses(
        got, [_lone_inverse(metric, chart, x, om) for om in omegas])
    assert not got[-1].v.any() and not got[-2].v.any()
    assert fc.legendre_inverses(metric, chart, x, np.zeros((0, 2))) == []


class _Planted(fc.CustomMetric):
    """g_v = I / |v|, so the inversion of omega stops at once when
    |omega| = 1 and stalls otherwise, and g_v = 0, singular, when v[1] < 0;
    with ``convexity_at`` set, a row whose v[0] equals it raises
    ConvexityError."""

    convexity_at = None

    def fundamental(self, p):
        if p.v[0] == self.convexity_at:
            raise fc.ConvexityError("planted")
        if p.v[1] < 0:
            return np.zeros((2, 2))
        return np.eye(2) / np.linalg.norm(p.v)


def _planted(convexity_at=None):
    metric = _Planted(fc.flat_atlas(), lambda chart, x, v: dual.sqrt(
        v[0] * v[0] + v[1] * v[1]))
    metric.convexity_at = convexity_at
    return metric


_PLANTED_OMEGAS = np.array([[0.6, 0.8], [1.2, 1.6], [0.8, -0.6],
                            [0.0, 1.0], [3.0, 0.0]])


def test_legendre_inverses_hold_each_failing_row_in_place():
    metric = _planted()
    x = np.zeros(2)
    got = fc.legendre_inverses(metric, 0, x, _PLANTED_OMEGAS)
    assert [type(g).__name__ for g in got] == [
        "TangentVec", "InversionError", "LinAlgError", "TangentVec",
        "InversionError"]
    _assert_same_inverses(
        got, [_lone_inverse(metric, 0, x, om) for om in _PLANTED_OMEGAS])


def test_legendre_inverses_invert_alone_when_a_tensor_call_raises():
    # the batch's tensor call raises for the row at v[0] = 3: every row
    # still running is then inverted alone, and each keeps its own result
    metric = _planted(convexity_at=3.0)
    x = np.zeros(2)
    got = fc.legendre_inverses(metric, 0, x, _PLANTED_OMEGAS)
    assert [type(g).__name__ for g in got] == [
        "TangentVec", "InversionError", "LinAlgError", "TangentVec",
        "ConvexityError"]
    _assert_same_inverses(
        got, [_lone_inverse(metric, 0, x, om) for om in _PLANTED_OMEGAS])


def _reference_validate(metric, seed=0):
    """``validate_metric`` as it was written before its tensors were taken
    on rows: one direction draw, ``fundamental`` and ``eigvalsh`` call at a
    time."""
    from finslercut.metric import (VALIDATE_BOX, VALIDATE_DIRS,
                                   VALIDATE_POINTS)
    rng = np.random.default_rng(seed)
    lo = np.asarray(VALIDATE_BOX[0], float)
    hi = np.asarray(VALIDATE_BOX[1], float)
    n = metric.atlas.dim
    failures = []
    hom_max = 0.0
    eig_min = np.inf
    cart_max = 0.0
    rev_max = 0.0
    ident_max = 0.0
    scales = (1.0, 0.5, 2.0, 10.0) + ((-1.0,) if metric.reversible else ())
    for _ in range(VALIDATE_POINTS):
        x = rng.uniform(lo, hi)
        dirs = []
        for _ in range(VALIDATE_DIRS):
            v = rng.normal(size=n)
            v /= np.linalg.norm(v)
            dirs.append(v)
        fs = metric.F_rows(0, x, [lam * v for lam in scales for v in dirs])
        fs = fs.reshape(len(scales), VALIDATE_DIRS).T.tolist()
        for v, f_v in zip(dirs, fs):
            f = f_v[0]
            p = TangentVec(0, x, v)
            for lam, fl in zip(scales[1:4], f_v[1:4]):
                res = abs(fl - lam * f) / (1.0 + lam * f)
                hom_max = max(hom_max, res)
                if res > 1e-9:
                    failures.append(("homogeneity", x.copy(), v.copy(), res))
            try:
                g = metric.fundamental(p)
                w = float(np.linalg.eigvalsh(0.5 * (g + g.T))[0])
                eig_min = min(eig_min, w)
                if w <= 0:
                    failures.append(("convexity", x.copy(), v.copy(), w))
                ident = abs(v @ g @ v - f * f) / max(f * f, 1.0)
                ident_max = max(ident_max, ident)
                if ident > 1e-9:
                    failures.append(("gvv-identity", x.copy(), v.copy(),
                                     ident))
            except fc.ConvexityError as exc:
                failures.append(("convexity", x.copy(), v.copy(), str(exc)))
            if metric.reversible:
                res = abs(f_v[4] - f) / (1.0 + f)
                rev_max = max(rev_max, res)
                if res > 1e-10:
                    failures.append(("reversibility", x.copy(), v.copy(),
                                     res))
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        p = TangentVec(0, x, v)
        try:
            C = metric.cartan(p)
            contr = float(np.max(np.abs(np.einsum("ijk,i->jk", C, v))))
            cart_max = max(cart_max, contr)
            if contr > 1e-9:
                failures.append(("cartan-contraction", x.copy(), v.copy(),
                                 contr))
        except fc.ConvexityError:
            pass
    return fc.MetricReport(hom_max, float(eig_min), cart_max, rev_max,
                           ident_max, not failures, failures)


def _report_key(report):
    """Every value of a MetricReport, floats as their hex strings."""
    def norm(value):
        if isinstance(value, np.ndarray):
            return tuple(_hexes(value))
        if isinstance(value, float):
            return float.hex(value)
        return value
    fields = dataclasses.astuple(report)
    return ([norm(float(f)) for f in fields[:5]], fields[5],
            [tuple(norm(c) for c in failure) for failure in fields[6]])


class _NotConvexEverywhere(fc.CustomMetric):
    """A Euclidean norm whose tensor raises ConvexityError in the left half
    plane of directions."""

    def fundamental(self, p):
        if p.v[0] < 0:
            raise fc.ConvexityError("planted")
        return super().fundamental(p)


def _validate_cases():
    atlas = fc.flat_atlas()
    cases = dict(_metrics())
    cases.update({name: m for name, m in _row_metrics().items()
                  if name != "euclidean"})
    cases["nonconvex"] = fc.CustomMetric(atlas, lambda c, x, v: dual.sqrt(
        v[0] * v[0] + v[1] * v[1]) + 1.2 * v[0])
    cases["planted-convexity"] = _NotConvexEverywhere(
        atlas, lambda c, x, v: dual.sqrt(v[0] * v[0] + v[1] * v[1]))
    return cases


@pytest.mark.parametrize("case", list(_validate_cases()))
@pytest.mark.parametrize("seed", [0, 11, 14])
def test_validate_metric_reports_as_the_direction_by_direction_loop(case,
                                                                    seed):
    metric = _validate_cases()[case]
    got = fc.validate_metric(metric, seed=seed)
    assert _report_key(got) == _report_key(_reference_validate(metric, seed))
    if case in ("nonconvex", "planted-convexity"):
        assert got.failures


class _CartanRaisesLeft(fc.CustomMetric):
    """The quartic norm whose Cartan tensor raises ConvexityError on
    directions of the left half plane."""

    def cartan(self, p):
        if p.v[0] < 0:
            raise fc.ConvexityError("planted")
        return super().cartan(p)


@pytest.mark.parametrize("seed", [0, 11])
def test_validate_metric_holds_a_raising_cartan_row_in_place(seed):
    # the batched Cartan call raises for some point: each point then takes
    # its own tensor, and a raising one is skipped as the loop skipped it
    quartic = fc.MinkowskiQuarticMetric(fc.flat_atlas(), eps=0.1)
    metric = _CartanRaisesLeft(fc.flat_atlas(), quartic.value_generic)
    got = fc.validate_metric(metric, seed=seed)
    assert _report_key(got) == _report_key(_reference_validate(metric, seed))
    assert 0.0 < got.cartan_contraction_max < 1e-9
