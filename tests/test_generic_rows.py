"""The generic oracles of MetricField on rows: Cartan, fundamental and
Legendre rows from one nested-dual evaluation on columns, and the spray and
its Jacobi derivative from one ``spray_generic`` evaluation, each row equal
to its lone scalar evaluation."""

import itertools
import time

import numpy as np
import pytest

import finslercut as fc
from finslercut import dual
from finslercut.atlas import TangentVec, _coords
from finslercut.metric import (MetricField, ReversedMetric, _cols, _round_reals,
                               _solve2)

KATOK_EPS = 0.3


def _hexes(a):
    return [float.hex(float(c)) for c in np.ravel(a)]


def _zermelo_randers(chart, x, y):
    """x-dependent Randers norm F = sqrt(a(y, y)) + b(x) . y with a conformal
    a(x) and |b|_a < 1 on the unit box."""
    phi = 1.0 + 0.3 * x[0] * x[0] + 0.2 * x[1] * x[1]
    return (dual.sqrt(phi * (y[0] * y[0] + y[1] * y[1]))
            + 0.2 * x[1] * y[0] - 0.1 * x[0] * x[0] * y[1])


def katok_F(chart, x, y):
    """Zermelo navigation on the unit round sphere h = 4 |dx|^2 / (1 +
    |x|^2)^2 with the rotation wind W = eps (-x1, x0), the same in both
    stereographic charts: F = (sqrt(lam h(y, y) + h(W, y)^2) - h(W, y)) / lam
    with lam = 1 - h(W, W)."""
    r2 = x[0] * x[0] + x[1] * x[1]
    phi = 4.0 / ((1.0 + r2) * (1.0 + r2))
    w0, w1 = -KATOK_EPS * x[1], KATOK_EPS * x[0]
    hwy = phi * (w0 * y[0] + w1 * y[1])
    lam = 1.0 - phi * (w0 * w0 + w1 * w1)
    return (dual.sqrt(lam * phi * (y[0] * y[0] + y[1] * y[1]) + hwy * hwy)
            - hwy) / lam


def _families():
    """Metrics on the generic oracles, by name: the quartic and a Randers
    norm with a non-identity a as closed-form families (their Cartan rows)
    and through their ``value_generic`` as custom metrics (every default
    row oracle), the reversed Randers norm, an x-dependent Randers metric
    and the Katok sphere."""
    flat = fc.flat_atlas()
    quartic = fc.MinkowskiQuarticMetric(flat, eps=0.1)
    randers = fc.RandersMetric(flat, np.array([0.5, -0.3]),
                               a=np.array([[1.2, 0.3], [0.3, 0.8]]))
    zermelo = fc.CustomMetric(flat, _zermelo_randers)
    return {
        "quartic": quartic,
        "quartic-generic": fc.CustomMetric(flat, quartic.value_generic),
        "randers": randers,
        "randers-generic": fc.CustomMetric(flat, randers.value_generic),
        "reversed-randers": ReversedMetric(randers),
        "zermelo-randers": zermelo,
        "reversed-zermelo": ReversedMetric(zermelo),
        "katok": fc.CustomMetric(fc.sphere_atlas(), katok_F),
    }


def _rows(seed, count=48):
    """Base points in the unit box and directions over four decades of
    length, one row per (x, v) pair."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-0.9, 0.9, (count, 2))
    V = rng.normal(size=(count, 2)) * 10.0 ** rng.uniform(-2, 2, (count, 1))
    return X, V


@pytest.mark.parametrize("family", list(_families()))
def test_cartan_rows_equal_cartan_to_the_bit(family):
    metric = _families()[family]
    X, V = _rows(1)
    got = metric.cartan_rows(0, X, V)
    assert got.shape == (len(V), 2, 2, 2)
    for C, x, v in zip(got, X, V):
        assert _hexes(C) == _hexes(metric.cartan(TangentVec(0, x, v)))
    # one base point for every row, and a lone row
    at = metric.cartan_rows(0, X[0], V)
    for C, v in zip(at, V):
        assert _hexes(C) == _hexes(metric.cartan(TangentVec(0, X[0], v)))
    assert _hexes(metric.cartan_rows(0, X[:1], V[:1])) == _hexes(got[:1])
    assert metric.cartan_rows(0, X[0], np.zeros((0, 2))).shape == (0, 2, 2, 2)
    with pytest.raises(fc.DegenerateDirectionError):
        metric.cartan_rows(0, X[:2], [[1.0, 0.0], [0.0, 0.0]])


def test_riemannian_cartan_rows_are_zero():
    metric = fc.sphere_metric(fc.sphere_atlas())
    X, V = _rows(2)
    assert not metric.cartan_rows(1, X, V).any()
    assert metric.cartan_rows(1, X, V).shape == (len(V), 2, 2, 2)


@pytest.mark.parametrize("family", ["quartic-generic", "randers-generic",
                                    "zermelo-randers", "reversed-zermelo",
                                    "katok"])
def test_default_tensor_rows_equal_the_scalar_oracles_to_the_bit(family):
    metric = _families()[family]
    # a reversed metric delegates to its base's default
    assert "fundamental" not in vars(type(getattr(metric, "base", metric)))
    X, V = _rows(3)
    got = metric.fundamental_rows(0, X, V)
    assert got.shape == (len(V), 2, 2)
    for g, x, v in zip(got, X, V):
        assert _hexes(g) == _hexes(metric.fundamental(TangentVec(0, x, v)))
    # at one base point, with the Legendre covectors g_v v
    x = X[0]
    G = metric.fundamental_rows(0, x, V)
    omegas = metric.legendre_rows(0, x, np.vstack([V, [[0.0, 0.0]]]))
    assert not omegas[-1].any()
    for g, omega, v in zip(G, omegas, V):
        want = metric.fundamental(TangentVec(0, x, v))
        assert _hexes(g) == _hexes(want)
        assert _hexes(omega) == _hexes(want @ v)


def _spray_rows(atlas_charts, seed, count=40):
    """(chart, X, V, DX, DV) per chart: states in the unit box with two
    Jacobi columns each."""
    rng = np.random.default_rng(seed)
    out = []
    for chart in range(atlas_charts):
        X = rng.uniform(-0.9, 0.9, (count, 2))
        V = rng.normal(size=(count, 2)) * 10.0 ** rng.uniform(-2, 1,
                                                              (count, 1))
        DX = rng.normal(size=(count, 2, 2))
        DV = rng.normal(size=(count, 2, 2))
        out.append((chart, X, V, DX, DV))
    return out


def _d1(o):
    return dual.real(dual.dpart(o))


def _lone_spray(metric, chart, x, v):
    return [dual.real(c) for c in metric.spray_generic(chart, list(x),
                                                        list(v))]


def _lone_jvp(metric, chart, x, v, dx, dv):
    z = [dual.Dual(c, float(dc)) for c, dc in zip([*x, *v], [*dx, *dv])]
    return [_d1(o) for o in metric.spray_generic(chart, z[:2], z[2:])]


@pytest.mark.parametrize("family", ["quartic-generic", "randers-generic",
                                    "zermelo-randers", "reversed-zermelo",
                                    "katok"])
def test_spray_and_jvp_rows_equal_lone_spray_generic_to_the_bit(family):
    metric = _families()[family]
    for chart, X, V, DX, DV in _spray_rows(metric.atlas.n_charts, 5):
        s = metric.spray(chart, X, V)
        s2, ds = metric.spray_jvp(chart, X, V, DX, DV)
        assert s.shape == (len(X), 2) and ds.shape == DX.shape
        assert _hexes(s2) == _hexes(s)
        for r in range(len(X)):
            assert _hexes(s[r]) == _hexes(_lone_spray(metric, chart, X[r],
                                                      V[r]))
            for c in range(DX.shape[2]):
                assert _hexes(ds[r, :, c]) == _hexes(_lone_jvp(
                    metric, chart, X[r], V[r], DX[r, :, c], DV[r, :, c]))
        # a lone row, and a lone (row, column) pair
        assert _hexes(metric.spray(chart, X[:1], V[:1])) == _hexes(s[:1])
        one = metric.spray_jvp(chart, X[:1], V[:1], DX[:1, :, :1],
                               DV[:1, :, :1])
        assert _hexes(one[1]) == _hexes(ds[:1, :, :1])


def test_reversed_spray_negates_the_velocity_rows():
    metric = _families()["zermelo-randers"]
    rev = ReversedMetric(metric)
    ((chart, X, V, DX, DV),) = _spray_rows(1, 6)
    assert _hexes(rev.spray(chart, X, V)) == _hexes(metric.spray(chart, X,
                                                                 -V))
    s, ds = rev.spray_jvp(chart, X, V, DX, DV)
    want = metric.spray_jvp(chart, X, -V, DX, -DV)
    assert _hexes(s) == _hexes(want[0]) and _hexes(ds) == _hexes(want[1])


# ulps of the round sphere's generic spray on rows from its lone
# evaluation, in units of each row's largest entry: on float columns the
# analytic branch's (1 + r2) ** 3 is numpy's power, which differs from
# Python's float pow in the last bit on a few percent of rows; on 4000
# rows the worst was 5 ulp.
SPHERE_SPRAY_ULPS = 16


def _round_spray(x0, x1, v0, v1, cube):
    """2G of the round metric from the coordinates of one state as floats,
    or of many as arrays, ``cube`` the power taken of b: the analytic
    ``spray_generic`` branch for a = phi(x) I, written out."""
    b = x0 * x0 + x1 * x1 + 1.0
    phi = 4.0 / (b * b)
    *_, s0, s1 = _round_reals(x0, x1, v0, v1, -16.0 / cube(b))
    return s0 / phi, s1 / phi


def test_round_sphere_generic_spray_on_rows():
    metric = fc.sphere_metric(fc.sphere_atlas())
    rng = np.random.default_rng(7)
    for chart in (0, 1):
        X = rng.uniform(-3.0, 3.0, (500, 2))
        V = rng.standard_normal((500, 2)) * 10.0 ** rng.uniform(-6, 2,
                                                                (500, 1))
        # the generic path: MetricField.spray would dispatch to the
        # sphere's closed form
        none = np.zeros((500, 2, 0))
        got = MetricField.spray_jvp(metric, chart, X, V, none, none)[0]
        # the closed form on arrays, cube by numpy's power as there
        want = np.stack(_round_spray(X[:, 0], X[:, 1], V[:, 0], V[:, 1],
                                     lambda b: b ** 3), axis=1)
        assert np.array_equal(got, want)
        lone = np.array([_lone_spray(metric, chart, x, v)
                         for x, v in zip(X, V)])
        unit = np.spacing(np.abs(lone).max(axis=1, keepdims=True))
        assert (np.abs(got - lone) / unit).max() <= SPHERE_SPRAY_ULPS
        # the derivative half is the dual evaluation's on rows: the closed
        # form repeats it, so the two agree exactly
        DX = rng.standard_normal((500, 2, 2))
        DV = rng.standard_normal((500, 2, 2))
        s, ds = MetricField.spray_jvp(metric, chart, X, V, DX, DV)
        assert np.array_equal(ds, metric.spray_jvp(chart, X, V, DX, DV)[1])


def test_solve2_pivots_each_row_on_its_own():
    # rows that pivot and rows that do not, on floats and on duals
    rng = np.random.default_rng(9)
    A = rng.normal(size=(2, 2, 30))
    b = rng.normal(size=(2, 30))
    dA = rng.normal(size=(2, 2, 30))
    swap = np.abs(A[1, 0]) > np.abs(A[0, 0])
    assert swap.any() and not swap.all()
    for lift in (lambda a, d: a, dual.Dual):
        cols = [[lift(A[i, j], dA[i, j]) for j in range(2)] for i in range(2)]
        got = _solve2(cols, list(b))
        for r in range(30):
            one = [[lift(float(A[i, j, r]), float(dA[i, j, r]))
                    for j in range(2)] for i in range(2)]
            want = _solve2(one, [float(c) for c in b[:, r]])
            for g, w in zip(got, want):
                assert float.hex(float(dual.real(g)[r])) == \
                    float.hex(dual.real(w))
                assert float.hex(float(np.broadcast_to(_d1(g), (30,))[r])) \
                    == float.hex(_d1(w))
        assert np.allclose(np.stack([dual.real(c) for c in got]),
                           np.linalg.solve(A.transpose(2, 0, 1),
                                           b.T[:, :, None])[:, :, 0].T)


class _CountingOverrides(fc.CustomMetric):
    """A Euclidean norm whose scalar tensors are overridden and counted."""

    def __init__(self, atlas):
        super().__init__(atlas, lambda c, x, v: dual.sqrt(v[0] * v[0]
                                                          + v[1] * v[1]))
        self.calls = {"fundamental": 0, "cartan": 0}

    def fundamental(self, p):
        self.calls["fundamental"] += 1
        return 2.0 * np.eye(2)

    def cartan(self, p):
        self.calls["cartan"] += 1
        return np.full((2, 2, 2), 3.0)


def test_row_oracles_keep_a_subclass_override():
    metric = _CountingOverrides(fc.flat_atlas())
    X, V = _rows(8, count=5)
    assert (metric.fundamental_rows(0, X, V) == 2.0 * np.eye(2)).all()
    assert (metric.legendre_rows(0, X[0], V) == 2.0 * V).all()
    assert (metric.cartan_rows(0, X, V) == 3.0).all()
    assert metric.calls == {"fundamental": 10, "cartan": 5}
    assert metric.fundamental_rows(0, X[0], np.zeros((0, 2))).shape == \
        (0, 2, 2)
    assert metric.cartan_rows(0, X[0], np.zeros((0, 2))).shape == \
        (0, 2, 2, 2)


def test_generic_oracles_are_one_evaluation_on_columns():
    seen = []

    def F(chart, x, v):
        seen.append(np.shape(dual.real(v[0])))
        return _zermelo_randers(chart, x, v)

    metric = fc.CustomMetric(fc.flat_atlas(), F)
    X, V = _rows(10, count=7)
    metric.F_rows(0, X, V)
    metric.fundamental_rows(0, X, V)
    metric.cartan_rows(0, X, V)
    metric.spray(0, X, V)
    # F, the Hessian, the third derivatives and the spray: one evaluation
    # each, on all 7 rows at once
    assert seen == [(7,)] * 4
    # the spray and its derivative along 3 Jacobi columns: one evaluation
    # on the 21 (row, column) pairs; one evaluation on floats for a point
    seen.clear()
    metric.spray_jvp(0, X, V, np.ones((7, 2, 3)), np.ones((7, 2, 3)))
    metric.fundamental(TangentVec(0, X[0], V[0]))
    metric.cartan(TangentVec(0, X[0], V[0]))
    metric.spray_generic(0, list(X[0]), list(V[0]))
    assert seen == [(21,), (), (), ()]


# -- the one-pass lift against the per-entry passes it replaced -----------


def _ref_directional(f, x, dirs):
    """d^k/dt_1..dt_k of f(x + sum_j t_j dirs[j]) at t = 0, one nested-dual
    pass along the k directions: the per-entry loop that ``dual.lift``
    replaced, kept as its reference."""
    for d in dirs:
        x = [dual.Dual(c, float(e)) for c, e in zip(x, d)]
    out = f(x)
    for _ in dirs:
        out = dual.dpart(out)
    return out


def _ref_v_tensor_rows(metric, x, V, order):
    """``fundamental_rows`` (order 2) or ``cartan_rows`` (order 3) as the
    per-entry loops built them: one pass per sorted index, mirrored."""
    xs = _cols(x)

    def f2(vv):
        val = metric.value_generic(0, xs, vv)
        return val * val

    eye = np.eye(2).tolist()
    out = np.empty((len(V),) + (2,) * order)
    for idx in itertools.combinations_with_replacement(range(2), order):
        val = _ref_directional(f2, _cols(V), [eye[i] for i in idx])
        for perm in itertools.permutations(idx):
            out[(slice(None),) + perm] = val
    return {2: 0.5, 3: 0.25}[order] * out


def _ref_spray_generic(metric, chart, x, v):
    """``MetricField.spray_generic`` as ten passes: Lx, g and M entry by
    entry."""
    def f2(z):
        val = metric.value_generic(chart, z[:2], z[2:])
        return val * val

    z = list(x) + list(v)
    e = np.eye(4).tolist()
    Lx = [0.5 * _ref_directional(f2, z, [e[j]]) for j in range(2)]
    g = [[0.5 * _ref_directional(f2, z, [e[2 + i], e[2 + j]])
          for j in range(2)] for i in range(2)]
    M = [[0.5 * _ref_directional(f2, z, [e[2 + i], e[j]]) for j in range(2)]
         for i in range(2)]
    rhs = [sum(M[i][j] * v[j] for j in range(2)) - Lx[i] for i in range(2)]
    return _solve2(g, rhs)


ROW_COUNTS = (1, 2, 64, 512)


@pytest.mark.parametrize("family", ["quartic-generic", "zermelo-randers",
                                    "katok"])
def test_one_pass_tensor_rows_equal_the_per_entry_passes(family):
    metric = _families()[family]
    X, V = _rows(12, count=max(ROW_COUNTS))
    for k in ROW_COUNTS:
        for order, rows in ((2, metric.fundamental_rows),
                            (3, metric.cartan_rows)):
            assert _hexes(rows(0, X[:k], V[:k])) == _hexes(
                _ref_v_tensor_rows(metric, X[:k], V[:k], order)), (k, order)
    # one float point
    p = TangentVec(0, X[0], V[0])
    assert _hexes(metric.fundamental(p)) == _hexes(
        _ref_v_tensor_rows(metric, X[0], V[:1], 2))
    assert _hexes(metric.cartan(p)) == _hexes(
        _ref_v_tensor_rows(metric, X[0], V[:1], 3))


@pytest.mark.parametrize("family", ["quartic-generic", "zermelo-randers",
                                    "katok"])
def test_one_pass_spray_equals_the_per_entry_passes(family, monkeypatch):
    metric = _families()[family]
    rng = np.random.default_rng(13)
    n = max(ROW_COUNTS)
    X = rng.uniform(-0.9, 0.9, (n, 2))
    V = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-2, 1, (n, 1))
    DX, DV = rng.normal(size=(2, n, 2, 3))
    cases = [(k, m) for k in ROW_COUNTS for m in (0, 1, 3)]

    def jvps():
        return [metric.spray_jvp(0, X[:k], V[:k], DX[:k, :, :m],
                                 DV[:k, :, :m]) for k, m in cases]

    got = jvps()
    point = metric.spray_generic(0, X[0].tolist(), V[0].tolist())
    # the reference spray stands in for MetricField's, which spray_jvp
    # still reads as its own
    monkeypatch.setattr(MetricField, "spray_generic", _ref_spray_generic)
    want = jvps()
    assert _hexes(point) == _hexes(
        _ref_spray_generic(metric, 0, X[0].tolist(), V[0].tolist()))
    for (k, m), (s, ds), (ws, wds) in zip(cases, got, want):
        assert _hexes(s) == _hexes(ws), (k, m)
        assert _hexes(ds) == _hexes(wds), (k, m)


def _ref_transition(tr, x, dirs, order):
    """The order-``order`` part of the transition on x lifted along dirs,
    one direction per level: the per-basis pass the Jacobians made."""
    x = np.asarray(x, dtype=float)
    zs = _coords(x)
    for d in dirs:
        zs = [dual.Dual(z, dz) for z, dz in zip(zs, _coords(d))]
    y = np.empty(x.shape)
    for i, c in enumerate(tr.fn(zs)):
        for _ in range(order):
            c = dual.dpart(c)
        y[..., i] = dual.real(c)
    return y


def test_one_pass_transition_jacobians_equal_the_per_basis_passes():
    atlas = fc.sphere_atlas()
    rng = np.random.default_rng(14)
    n = max(ROW_COUNTS)
    X = rng.uniform(-2.5, 2.5, (n, 2))
    DX = rng.normal(size=(n, 2))
    eye = np.eye(2)
    for tr in (atlas.transition(0, 1), atlas.transition(1, 0)):
        for x, dx in [(X[0], DX[0])] + [(X[:k], DX[:k]) for k in ROW_COUNTS]:
            want = np.stack([_ref_transition(tr, x, [e], 1) for e in eye],
                            axis=-1)
            assert _hexes(tr.jacobian(x)) == _hexes(want), x.shape
            want = np.stack([_ref_transition(tr, x, [dx, e], 2)
                             for e in eye], axis=-1)
            assert _hexes(tr.jacobian_directional(x, dx)) == _hexes(want)


def test_F_rows_take_one_base_point_per_row():
    metric = _families()["zermelo-randers"]
    X, V = _rows(11)
    got = metric.F_rows(0, X, np.vstack([V[:-1], [[0.0, 0.0]]]))
    want = [metric.F(TangentVec(0, x, v)) for x, v in zip(X[:-1], V[:-1])]
    assert _hexes(got[:-1]) == _hexes(want) and got[-1] == 0.0
    with pytest.raises(fc.DomainError):
        fc.CustomMetric(fc.sphere_atlas(), katok_F).F_rows(
            0, np.vstack([X[:3], [[50.0, 0.0]]]), V[:4])


def test_reversibility_defect_reads_the_sampled_F_values():
    from finslercut.loops import REVERSIBILITY_SAMPLES, reversibility_defect
    for metric in (_families()["zermelo-randers"],
                   fc.MinkowskiQuarticMetric(fc.flat_atlas(), eps=0.1)):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(REVERSIBILITY_SAMPLES):
            x = rng.uniform(-0.5, 0.5, 2)
            v = rng.standard_normal(2)
            a = metric.F(TangentVec(0, x, v))
            b = metric.F(TangentVec(0, x, -v))
            worst = max(worst, abs(a - b) / max(a, b))
        assert float.hex(reversibility_defect(metric)) == float.hex(worst)


def test_katok_point_fan_cuts_at_pi():
    # Zermelo navigation with a Killing wind: every geodesic from p is a
    # round great circle dragged by the rotation, so every ray's cut time
    # and first focal time is pi (the antipode of p, rotated by eps pi)
    metric = fc.CustomMetric(fc.sphere_atlas(), katok_F)
    N = fc.point_submanifold(0, np.array([0.3, 0.1]))
    plan = fc.ShootingPlan(psi_count=8, horizon=4.0, ode_rtol=1e-8,
                           ode_atol=1e-10, min_slack=1e-5)
    t0 = time.perf_counter()
    records = fc.cut_locus(fc.NormalShooting(metric, N, plan))
    elapsed = time.perf_counter() - t0
    assert len(records) == 8
    for rec in records:
        assert abs(rec.rho - np.pi) <= 1e-7, rec
        assert abs(rec.lam - np.pi) <= 1e-7, rec
    assert elapsed < 60.0
