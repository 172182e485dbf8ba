import math

import numpy as np
import pytest

import finslercut as fc
from finslercut import cutlocus, scenario
from finslercut.atlas import TangentVec
from finslercut.dopri import TOO_SMALL_STEP, DormandPrince
from finslercut.geodesic import (DEGENERACY_TOL, DEGENERATE_RATIO,
                                 LinearizedFrame, PathSegment, _det_ratios,
                                 _geodesic_rhs, _integrate_rows,
                                 _linearized_rhs)


def _det_ratio(M):
    """The scalar reference of ``_det_ratios``: det M and sigma_min /
    sigma_max of one 2 x 2 matrix on Python floats."""
    (a, b), (c, d) = np.asarray(M).tolist()
    det = a * d - b * c
    smax2 = 0.5 * (a * a + b * b + c * c + d * d
                   + math.hypot(a * a + b * b - c * c - d * d,
                                2.0 * (a * c + b * d)))
    return det, abs(det) / max(smax2, 1e-300)


def test_flat_geodesics_are_straight_lines():
    atlas = fc.flat_atlas()
    metric = fc.euclidean_metric(atlas)
    start = TangentVec(0, np.array([0.1, -0.3]), np.array([0.6, 0.8]))
    path = fc.integrate_geodesic(metric, start, 2.0)
    for t in (0.0, 0.5, 1.7, 2.0):
        chart, x = path.position(t)
        assert chart == 0
        assert np.allclose(x, start.x + t * start.v, atol=1e-9)


def test_unit_speed_is_preserved():
    atlas = fc.sphere_atlas()
    metric = fc.sphere_metric(atlas)
    v = np.array([0.5, 0.0])     # F = 2|v| = 1 at the origin
    path = fc.integrate_geodesic(metric, TangentVec(0, np.zeros(2), v), 3.0)
    speeds = np.array([s for _, s in path.knot_speeds])
    assert np.max(np.abs(speeds - 1.0)) < 1e-7


def test_sphere_geodesic_returns_after_full_period():
    atlas = fc.sphere_atlas()
    metric = fc.sphere_metric(atlas)
    v = np.array([0.5, 0.0])
    path = fc.integrate_geodesic(metric, TangentVec(0, np.zeros(2), v),
                                 2 * math.pi + 0.1, rtol=1e-10, atol=1e-12)
    q = path.position(2 * math.pi)
    assert atlas.coord_distance(q, (0, np.zeros(2))) < 1e-6


def test_sphere_antipode_at_pi():
    atlas = fc.sphere_atlas()
    metric = fc.sphere_metric(atlas)
    v = np.array([0.5, 0.0])
    path = fc.integrate_geodesic(metric, TangentVec(0, np.zeros(2), v),
                                 3.3, rtol=1e-10, atol=1e-12)
    # the antipode of chart 0's origin is chart 1's origin
    q = path.position(math.pi)
    assert atlas.coord_distance(q, (1, np.zeros(2))) < 1e-7


def test_path_length_matches_parameter_for_unit_speed():
    atlas = fc.flat_atlas()
    metric = fc.euclidean_metric(atlas)
    start = TangentVec(0, np.zeros(2), np.array([1.0, 0.0]))
    path = fc.integrate_geodesic(metric, start, 1.7)
    assert math.isclose(fc.path_length(metric, path), 1.7, rel_tol=1e-9)
    assert math.isclose(fc.path_energy(metric, path), 0.5 * 1.7,
                        rel_tol=1e-9)


def test_path_length_of_sampled_segment():
    # the discrete (chart, ts, xs) form is splined; a straight segment of
    # length L run over unit time has energy L^2 / 2
    metric = fc.euclidean_metric(fc.flat_atlas())
    a, b = np.array([0.1, -0.3]), np.array([1.3, 0.6])
    L = float(np.linalg.norm(b - a))
    ts = np.linspace(0.0, 1.0, 7)
    path = (0, ts, a + ts[:, None] * (b - a))
    assert math.isclose(fc.path_length(metric, path), L, rel_tol=1e-9)
    assert math.isclose(fc.path_energy(metric, path), 0.5 * L * L,
                        rel_tol=1e-9)


def test_exp_map_flat():
    atlas = fc.flat_atlas()
    metric = fc.euclidean_metric(atlas)
    chart, x = fc.exp_map(metric, (0, np.zeros(2)), np.array([0.3, 0.4]))
    assert np.allclose(x, [0.3, 0.4], atol=1e-10)


def test_conjugate_time_on_sphere():
    atlas = fc.sphere_atlas()
    metric = fc.sphere_metric(atlas)
    t = fc.conjugate_time(metric, (0, np.zeros(2)), np.array([0.5, 0.0]),
                          4.0, rtol=1e-10, atol=1e-12)
    assert abs(t - math.pi) < 1e-6


def test_conjugate_time_flat_is_infinite():
    atlas = fc.flat_atlas()
    metric = fc.euclidean_metric(atlas)
    t = fc.conjugate_time(metric, (0, np.zeros(2)), np.array([1.0, 0.0]),
                          5.0)
    assert math.isinf(t)


def test_linearized_flow_matches_finite_differences():
    atlas = fc.sphere_atlas()
    metric = fc.sphere_metric(atlas)
    x0 = np.array([0.05, -0.1])
    v0 = np.array([0.45, 0.1])
    T = 1.2
    frame = fc.linearized_flow(metric, TangentVec(0, x0, v0), T,
                               np.zeros((2, 2)), np.eye(2),
                               rtol=1e-10, atol=1e-12)
    J = frame.signed_matrix(T)[0]
    h = 1e-6
    for j in range(2):
        dv = np.zeros(2)
        dv[j] = h
        pp = fc.integrate_geodesic(metric, TangentVec(0, x0, v0 + dv), T,
                                   rtol=1e-11, atol=1e-13).position(T)
        pm = fc.integrate_geodesic(metric, TangentVec(0, x0, v0 - dv), T,
                                   rtol=1e-11, atol=1e-13).position(T)
        assert pp[0] == pm[0] == 0
        fd = (pp[1] - pm[1]) / (2 * h)
        assert np.max(np.abs(J[:, j] - fd)) < 1e-4


def test_torus_wraps_on_comparison():
    atlas = fc.torus_atlas([1.0, 1.0])
    metric = fc.euclidean_metric(atlas)
    start = TangentVec(0, np.zeros(2), np.array([1.0, 0.0]))
    path = fc.integrate_geodesic(metric, start, 1.0)
    q = path.position(1.0)
    assert atlas.coord_distance(q, (0, np.zeros(2))) < 1e-9


def test_integration_beyond_chart_raises():
    atlas = fc.flat_atlas(halfwidth=1.0)
    metric = fc.euclidean_metric(atlas)
    start = TangentVec(0, np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(fc.AtlasExitError):
        fc.integrate_geodesic(metric, start, 5.0)


def test_atlas_rejects_a_three_dimensional_box():
    box = [[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]]
    with pytest.raises(ValueError, match="2, 2"):
        fc.ManifoldAtlas([box])
    assert fc.flat_atlas().dim == fc.sphere_atlas().dim == 2


def test_torus_atlas_rejects_three_periods():
    with pytest.raises(ValueError, match="2 entries"):
        fc.torus_atlas([1.0, 1.0, 1.0])


def _random_2x2(rng, count):
    """count random 2 x 2 matrices, scales 1e-6 to 1e6; the second half are
    rank one plus a perturbation 1e-16 to 1e-6 of their scale."""
    scale = 10.0 ** rng.uniform(-6.0, 6.0, count)
    M = rng.normal(size=(count, 2, 2))
    half = count // 2
    u, v = rng.normal(size=(2, count - half, 2))
    eps = 10.0 ** rng.uniform(-16.0, -6.0, count - half)
    M[half:] = (u[:, :, None] * v[:, None, :]
                + eps[:, None, None] * M[half:])
    return M * scale[:, None, None]


def test_closed_form_det_and_singular_value_ratio():
    rng = np.random.default_rng(2)
    signs_checked = tiny_ratios = 0
    Ms = _random_2x2(rng, 10_000)
    dets, ratios = _det_ratios(Ms[:, 0, 0], Ms[:, 0, 1], Ms[:, 1, 0],
                               Ms[:, 1, 1])
    for M, det, ratio in zip(Ms, dets, ratios):
        # every entry has the bits of the scalar formula
        assert (det.hex(), ratio.hex()) == tuple(
            float(v).hex() for v in _det_ratio(M))
        ref = np.linalg.det(M)
        if abs(det) > 1e-10 * np.sum(M * M):
            assert (det > 0) == (ref > 0), M
            signs_checked += 1
        sv = np.linalg.svd(M, compute_uv=False)
        assert abs(ratio - sv[1] / sv[0]) <= 1e-14, M
        tiny_ratios += sv[1] / sv[0] < 1e-7
    assert signs_checked > 5_000 and tiny_ratios > 2_000


def _line_metric(family, atlas):
    randers = fc.RandersMetric(atlas, np.array([0.5, 0.2]))
    return {"euclidean": fc.euclidean_metric(atlas),
            "quartic": fc.MinkowskiQuarticMetric(atlas, eps=0.1),
            "randers": randers,
            "reversed-randers": fc.ReversedMetric(randers)}[family]


@pytest.mark.parametrize("family", ["euclidean", "quartic", "randers",
                                    "reversed-randers"])
@pytest.mark.parametrize("atlas", [fc.flat_atlas(),
                                   fc.torus_atlas([0.9, 1.2])],
                         ids=["plane", "torus"])
def test_straight_geodesic_is_one_exact_segment(atlas, family):
    metric = _line_metric(family, atlas)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x0 = rng.uniform(-1.0, 1.0, 2)
        v = rng.normal(size=2)
        T = float(rng.uniform(0.5, 4.0))
        path = fc.integrate_geodesic(metric, TangentVec(0, x0, v), T)
        (seg,) = path.segments
        assert seg.chart == 0 and seg.sign == 1.0
        assert seg.knots.tolist() == [0.0, T] and (seg.t0, seg.t1) == (0.0, T)
        for t in np.concatenate([[0.0, T], rng.uniform(0.0, T, 7)]):
            chart, x = path.position(t)
            line = x0 + t * v
            ulps = np.spacing(np.maximum(np.abs(line), np.abs(T * v)))
            assert chart == 0
            assert np.all(np.abs(x - line) <= 4 * ulps)
            assert np.array_equal(path.velocity(t), v)
    # the box is convex: the start and the endpoint decide the whole line
    hw = atlas.boxes[0][1, 0]
    start = TangentVec(0, np.array([hw - 1.0, 0.0]), np.array([0.6, 0.8]))
    fc.integrate_geodesic(metric, start, 1.0 / 0.6)
    with pytest.raises(fc.AtlasExitError) as err:
        fc.integrate_geodesic(metric, start, 1.0 / 0.6 + 1e-6)
    assert err.value.x[0] > hw


def _x_independent_linearized_rhs(n, m):
    """The right-hand side of a Jacobi flow under a vanishing spray, written
    out on rows: the reference for the generic one with a zero
    ``spray_jvp``."""
    def rhs(t, y, rows):
        dy = np.empty_like(y)
        dy[:, :n] = y[:, n:2 * n]
        dy[:, n:2 * n] = 0.0
        dy[:, 2 * n:2 * n + n * m] = y[:, 2 * n + n * m:]
        dy[:, 2 * n + n * m:] = 0.0
        return dy
    return rhs


def test_flows_under_a_vanishing_spray_keep_their_knots():
    # focal times are read on a flow's knots, so the generic right-hand
    # side with a zero spray_jvp must step exactly like the written-out one
    plane = fc.flat_atlas()
    torus = fc.torus_atlas([1.0, 1.0])
    randers = fc.RandersMetric(plane, np.array([0.5, 0.0]))
    cases = [
        (fc.euclidean_metric(plane), fc.ellipse_submanifold(0, a=2.0, b=1.0),
         [0.7], (-1.0,), 3.0),
        (fc.MinkowskiQuarticMetric(torus, eps=0.1),
         fc.point_submanifold(0, np.zeros(2)), [], (0.6, 0.8), 1.5),
        (randers, fc.axis_line_submanifold(0, (0.0, 0.0), (0.0, 1.0),
                                           half_extent=4.0),
         [0.3], (1.0,), 3.0),
    ]
    for metric, N, theta, psi, T in cases:
        ray = fc.unit_normal(metric, N, theta, psi)
        flow = fc.normal_jacobi_flow(metric, N, ray, T)
        J0, Jd0 = fc.cone_variation_data(metric, N, ray)
        n, m = J0.shape
        y0 = np.concatenate([ray.x, ray.v, J0.ravel(), Jd0.ravel()])
        ref = DormandPrince(_x_independent_linearized_rhs(n, m), [0.0],
                            y0[None], T, fc.geodesic.DEFAULT_RTOL,
                            fc.geodesic.DEFAULT_ATOL)
        knots, y_old, Q = [0.0], [], []
        while _status(ref) == "running":
            assert _step(ref) is None
            knots.append(ref.ts[0])
            y_old.append(ref.ys_old[0].copy())
            Q.append(ref.dense_Q()[0])
        (seg,) = flow.path.segments
        assert len(knots) > 2
        assert np.array_equal(seg.knots, knots)
        assert np.array_equal(seg.y_old, y_old)
        assert np.array_equal(seg.Q, Q)


@pytest.mark.parametrize("atlas", [fc.flat_atlas(halfwidth=1.0),
                                   fc.torus_atlas([0.9, 1.2]),
                                   fc.sphere_atlas()],
                         ids=["flat", "torus", "sphere"])
def test_contains_agrees_with_array_comparison(atlas):
    nan, inf = math.nan, math.inf
    for chart, (lo, hi) in enumerate(atlas.boxes):
        mid = 0.5 * (lo + hi)
        below, above = np.nextafter(lo, -inf), np.nextafter(hi, inf)
        points = [lo, hi, mid, [lo[0], hi[1]], [hi[0], mid[1]],
                  below, above, [below[0], mid[1]], [mid[0], above[1]],
                  [nan, mid[1]], [mid[0], nan], [nan, nan],
                  [inf, mid[1]], [mid[0], -inf]]
        for x in map(np.asarray, points):
            want = bool(np.all(x >= lo) and np.all(x <= hi))
            assert atlas.contains(chart, x) is want, x
        # the box edge is inside, one ulp past it and NaN are outside
        assert atlas.contains(chart, lo) and atlas.contains(chart, hi)
        assert not atlas.contains(chart, above)
        assert not atlas.contains(chart, np.array([nan, mid[1]]))


def _status(stepper):
    """The scipy status of a one-row stepper."""
    if stepper.failed[0]:
        return "failed"
    return "running" if stepper.running[0] else "finished"


def _step(stepper):
    """One accepted step of a one-row stepper, as scipy's ``step``: None,
    or the message of the failure."""
    while True:
        done, failed = stepper.step_rows()
        if failed:
            return TOO_SMALL_STEP
        if done:
            return None


def _row_rhs(make_rhs, metric, chart, *args):
    """A right-hand side on rows for one row in ``chart``."""
    return make_rhs(metric, np.array([chart]), *args)


def _scipy_fun(rows_fun):
    """A right-hand side on rows as scipy's fun(t, y), for one row."""
    return lambda t, y: rows_fun(np.array([t]), np.asarray(y)[None],
                                 np.zeros(1, dtype=int))[0]


def _run_against_rk45(rows_fun, y0, T, rtol, atol, max_step=np.inf):
    """Step one row of DormandPrince and scipy's RK45 side by side; every
    accepted t, y and dense-output value must be equal.  Returns RK45's
    rejections."""
    from scipy.integrate import RK45
    ours = DormandPrince(rows_fun, [0.0], y0[None], T, rtol, atol, max_step)
    ref = RK45(_scipy_fun(rows_fun), 0.0, y0, T, rtol=rtol, atol=atol,
               max_step=max_step)
    steps = 0
    while ref.status == "running":
        assert _status(ours) == "running"
        assert _step(ours) == ref.step()
        assert _status(ours) == ref.status
        if ref.status == "failed":
            break
        steps += 1
        assert ours.ts[0] == ref.t and ours.ts_old[0] == ref.t_old
        assert np.array_equal(ours.ys[0], ref.y)
        seg = PathSegment(0, ours.ts_old[0], ours.ts[0],
                          np.array([ours.ts_old[0], ours.ts[0]]),
                          ours.ys_old[:1].copy(), ours.dense_Q())
        dense = ref.dense_output()
        for t in np.linspace(ref.t_old, ref.t, 9)[1:-1]:
            assert np.array_equal(seg.eval(t), dense(t))
    assert _status(ours) == ref.status
    assert ours.ts[0] == ref.t and np.array_equal(ours.ys[0], ref.y)
    return (ref.nfev - 2) // 6 - steps


def test_stepper_matches_scipy_rk45():
    sphere = fc.sphere_metric(fc.sphere_atlas())
    flat = fc.euclidean_metric(fc.flat_atlas())
    geo0 = np.array([0.3, -0.2, 0.45, 0.1])
    cases = [(_row_rhs(_geodesic_rhs, sphere, chart), geo0)
             for chart in (0, 1)]
    for m in (1, 2):
        jac0 = np.concatenate([np.zeros(2 * m), np.eye(2)[:, :m].ravel()])
        cases.append((_row_rhs(_linearized_rhs, sphere, 0, m),
                      np.concatenate([geo0, jac0])))
    cases.append((_row_rhs(_geodesic_rhs, flat, 0), geo0))
    rejected = 0
    for fun, y0 in cases:
        for max_step in (0.2, np.inf):
            _run_against_rk45(fun, y0, 2.5, fc.geodesic.DEFAULT_RTOL,
                              fc.geodesic.DEFAULT_ATOL, max_step)
            rejected += _run_against_rk45(fun, y0, 2.5, 1e-3, 1e-6,
                                          max_step)
    assert rejected > 0     # the loose runs exercise step rejection


def test_stepper_blow_up_fails_where_rk45_does():
    # y' = y^2, y(0) = 1 blows up at t = 1
    _run_against_rk45(lambda t, y, rows: y * y, np.array([1.0]), 2.0, 1e-9,
                      1e-11)

    class LineAtlas:        # a 1-D stand-in: every ManifoldAtlas is 2-D
        dim = 1
        n_charts = 1

        def contains_rows(self, charts, X):
            return (-100.0 <= X[:, 0]) & (X[:, 0] <= 100.0)

        def switch_targets(self, charts, X):
            return np.full(len(charts), -1)

    class BlowUpMetric:     # a 1-D "spray" whose velocity obeys v' = v^2
        atlas = LineAtlas()
        x_independent = False

        def spray(self, chart, x, v):
            return -v * v

    from scipy.integrate import RK45
    metric = BlowUpMetric()
    y0 = np.array([0.0, 1.0])
    ref = RK45(_scipy_fun(_row_rhs(_geodesic_rhs, metric, 0)), 0.0, y0,
               2.0, rtol=1e-9, atol=1e-11, max_step=np.inf)
    while ref.status == "running":
        ref.step()
    assert ref.status == "failed" and 0.99 < ref.t < 1.0
    (err,) = _integrate_rows(metric, [0], [y0], 2.0, 1e-9, 1e-11)
    assert isinstance(err, fc.IntegrationError)
    assert err.t == ref.t
    assert np.array_equal(err.x, ref.y[:1])


def test_stepper_clamps_tiny_rtol_like_rk45():
    sphere = fc.sphere_metric(fc.sphere_atlas())
    fun = _row_rhs(_geodesic_rhs, sphere, 0)
    y0 = np.array([0.3, -0.2, 0.45, 0.1])
    with pytest.warns(UserWarning, match="rtol"):
        _run_against_rk45(fun, y0, 0.5, 1e-17, 1e-11)
    with pytest.warns(UserWarning, match="rtol"):
        fc.integrate_geodesic(sphere, TangentVec(0, y0[:2], y0[2:]), 0.1,
                              rtol=1e-17)


def test_stepper_rejects_bad_input_like_rk45():
    fun = _row_rhs(_geodesic_rhs, fc.euclidean_metric(fc.flat_atlas()), 0)
    # one interface: a scalar t0 is not a row
    with pytest.raises(ValueError, match="one start time per row"):
        DormandPrince(fun, 0.0, np.zeros((1, 4)), 1.0, 1e-9, 1e-11)
    with pytest.raises(ValueError, match="one row per entry"):
        DormandPrince(fun, [0.0], np.zeros(4), 1.0, 1e-9, 1e-11)
    with pytest.raises(ValueError, match="one row per entry"):
        DormandPrince(fun, [0.0], np.zeros((2, 4)), 1.0, 1e-9, 1e-11)
    with pytest.raises(ValueError, match="finite"):
        DormandPrince(fun, [0.0], np.array([[0.0, np.nan, 1.0, 0.0]]), 1.0,
                      1e-9, 1e-11)
    with pytest.raises(ValueError, match="atol"):
        DormandPrince(fun, [0.0], np.zeros((1, 4)), 1.0, 1e-9, -1.0)


def _scalar_first_degeneracy(frame, t_floor, T_max):
    """The per-probe scan that first_degeneracy's array pass replaced: the
    same grid, each time read by its own ``signed_matrix`` probe."""
    ts = [t for t in frame.knot_times() if t_floor < t <= T_max]
    grid = sorted(set(np.concatenate([
        ts, np.linspace(t_floor, min(T_max, frame.t1), 80)])))
    grid = [t for t in grid if t_floor <= t <= min(T_max, frame.t1)]

    def probe(t):
        M, sign = frame.signed_matrix(t)
        det, ratio = _det_ratio(M)
        return sign * det, ratio

    prev_t = grid[0]
    prev_d, ratio = probe(prev_t)
    if ratio < DEGENERATE_RATIO:
        return prev_t
    for t in grid[1:]:
        d, ratio = probe(t)
        if d == 0.0 or (d < 0) != (prev_d < 0):
            lo, hi = prev_t, t
            while hi - lo > DEGENERACY_TOL:
                mid = 0.5 * (lo + hi)
                dm = probe(mid)[0]
                if dm == 0.0:
                    return mid
                if (dm < 0) == (prev_d < 0):
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        if ratio < DEGENERATE_RATIO:
            lo, hi = prev_t, t
            while hi - lo > DEGENERACY_TOL:
                m1 = lo + (hi - lo) / 3
                m2 = hi - (hi - lo) / 3
                if probe(m1)[1] < probe(m2)[1]:
                    hi = m2
                else:
                    lo = m1
            return 0.5 * (lo + hi)
        prev_t, prev_d = t, d
    return np.inf


def _assert_scan_matches_scalar(frame, t_floor, T_max):
    """first_degeneracy and signed_dets against the scalar probes, bit for
    bit; returns the focal time."""
    got = fc.first_degeneracy(frame, t_floor, T_max)
    want = _scalar_first_degeneracy(frame, t_floor, T_max)
    assert float(got).hex() == float(want).hex(), (got, want)
    # every knot, segment end included, and times between them
    ts = np.union1d(frame.knot_times(),
                    np.linspace(frame.t0, frame.t1, 101))
    dets, ratios = frame.signed_dets(ts)
    for t, det, ratio in zip(ts, dets, ratios):
        M, sign = frame.signed_matrix(t)
        det_s, ratio_s = _det_ratio(M)
        assert float(det).hex() == float(sign * det_s).hex(), t
        assert float(ratio).hex() == float(ratio_s).hex(), t
    return got


def _builtin_field(name):
    _, metric, N, plan = scenario.build_geometry(
        scenario.builtin_scenario(name))
    return fc.NormalShooting(metric, N, plan)


def test_focal_scan_equals_scalar_scan_on_sphere_point_flows():
    field = _builtin_field("sphere-point")
    H = field.plan.horizon
    for ray in field.rays[::8]:
        for span in (H, 2 * H):
            flow = field.flow(ray, span)
            assert flow.m == 1
            lam = _assert_scan_matches_scalar(flow, cutlocus.FOCAL_FLOOR,
                                              span)
            assert abs(lam - math.pi) < 1e-6


def test_focal_scan_equals_scalar_scan_for_conjugate_times():
    # conjugate_time's frame has two Jacobi columns (m = n = 2)
    metric = fc.sphere_metric(fc.sphere_atlas())
    T = 3.5
    for x, v in (((0.3, -0.2), (0.6, 0.8)), ((0.0, 0.0), (-0.5, 0.0)),
                 ((1.5, 0.4), (0.1, -0.3))):
        start = TangentVec(0, np.array(x), np.array(v))
        frame = fc.linearized_flow(metric, start, T, np.zeros((2, 2)),
                                   np.eye(2))
        assert frame.m == 2
        got = _assert_scan_matches_scalar(frame, 1e-3 * T, T)
        assert got == fc.conjugate_time(metric, (0, start.x), start.v, T)


def _diag_frame(knots, j11, q11):
    """A hand-built one-segment frame with M = J = diag(1, J11(t)): on step
    i, J11 = j11[i] + h (q11[i] . (x, x^2, x^3, x^4)), x = (t - t_i) / h."""
    n = 2
    steps = len(knots) - 1
    y_old = np.zeros((steps, 2 * n + 2 * n * n))
    y_old[:, n] = 1.0                    # v = (1, 0)
    y_old[:, 4] = 1.0                    # J[0, 0] = 1
    y_old[:, 7] = j11
    Q = np.zeros((steps, y_old.shape[1], 4))
    Q[:, 7, :len(q11[0])] = q11
    seg = PathSegment(0, knots[0], knots[-1], np.array(knots), y_old, Q)
    return LinearizedFrame(fc.euclidean_metric(fc.flat_atlas()), [seg], 2)


def test_focal_scan_finds_a_dip_without_a_sign_change():
    # J11 = (t - t0)^2 on one step [0, T]: det M touches zero at t0 without
    # changing sign, so only the singular-value ratio finds it; t0 sits just
    # before the scan's linspace point 1.2
    T, t0, t_floor = 2.475, 1.2 - 1e-4, 0.5
    frame = _diag_frame([0.0, T], [t0 * t0], [[-2.0 * t0, T]])
    dets, ratios = frame.signed_dets(np.linspace(t_floor, T, 80))
    assert (dets >= 0.0).all() and (ratios < DEGENERATE_RATIO).sum() == 1
    got = _assert_scan_matches_scalar(frame, t_floor, T)
    assert abs(got - t0) < 1e-6


def test_focal_scan_bisects_from_a_zero_det_on_the_grid():
    # J11 = t0 - t over the steps [0, t0] and [t0, T]: det M falls from
    # positive to exactly 0 at the knot t0, a grid time, and the scan
    # bisects up to it
    T, t0 = 3.0, 1.3
    frame = _diag_frame([0.0, t0, T], [t0, 0.0], [[-1.0], [-1.0]])
    assert frame.signed_dets([t0])[0][0] == 0.0
    got = _assert_scan_matches_scalar(frame, 0.02, T)
    assert t0 - 1e-8 < got < t0


def test_focal_scan_equals_scalar_scan_across_a_chart_change():
    field = _builtin_field("sphere-equator")
    switched = 0
    for ray in field.rays[::6]:
        flow = field.flow(ray)
        switched += len(flow.path.segments) > 1
        _assert_scan_matches_scalar(flow, cutlocus.FOCAL_FLOOR,
                                    field.plan.horizon)
    assert switched > 0


def test_focal_scan_equals_scalar_scan_on_the_ellipse():
    field = _builtin_field("plane-ellipse")
    finite = 0
    for ray in field.rays[::32]:
        flow = field.flow(ray)
        lam = _assert_scan_matches_scalar(flow, cutlocus.FOCAL_FLOOR,
                                          field.plan.horizon)
        finite += bool(np.isfinite(lam))
    assert 0 < finite < len(field.rays[::32])
