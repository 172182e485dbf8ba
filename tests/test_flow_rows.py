"""The flow batch and the focal scan on rows: the fused round-sphere
kernel, the atlas row checks, the row transitions, the batched restarts and
the stacked focal scan, each against the scalar code it replaced, bit for
bit."""

import math

import numpy as np
import pytest

import finslercut as fc
from finslercut import cutlocus, dual, scenario
from finslercut.atlas import SPHERE_SWITCH_RADIUS, TangentVec
from finslercut.dopri import DormandPrince
from finslercut.geodesic import (DEGENERATE_RATIO, _FrameSteps,
                                 _linearized_rhs, _scan, _transform_states,
                                 first_degeneracies)

from test_geodesic import _det_ratio


def _builtin_field(name):
    _, metric, N, plan = scenario.build_geometry(
        scenario.builtin_scenario(name))
    return fc.NormalShooting(metric, N, plan)


def _hexes(a):
    return [float(v).hex() for v in np.ravel(a)]


# -- the round-sphere kernel ---------------------------------------------


def _ref_round_spray(x0, x1, v0, v1, cube):
    """The value half as it was written before the fused kernel."""
    r2 = x0 * x0 + x1 * x1
    phi = 4.0 / ((1.0 + r2) * (1.0 + r2))
    c = -16.0 / cube(1.0 + r2)
    d0 = c * x0
    d1 = c * x1
    s0 = (0.0 + d0 * v0 * v0 + d1 * v1 * v0
          - 0.5 * d0 * v0 * v0 - 0.5 * d0 * v1 * v1)
    s1 = (0.0 + d0 * v0 * v1 + d1 * v1 * v1
          - 0.5 * d1 * v0 * v0 - 0.5 * d1 * v1 * v1)
    return s0 / phi, s1 / phi


def _ref_round_spray_d(x0, x1, v0, v1, a0, a1, w0, w1):
    """The derivative half as it was written before the fused kernel."""
    r2 = x0 * x0 + x1 * x1
    b = r2 + 1.0
    bb = b * b
    phi = 4.0 / bb
    b3 = b * bb
    c = -16.0 / b3
    d0 = c * x0
    d1 = c * x1
    h0 = d0 * 0.5
    h1 = d1 * 0.5
    p0 = d0 * v0
    p1 = d1 * v1
    q00 = h0 * v0
    q01 = h0 * v1
    q10 = h1 * v0
    q11 = h1 * v1
    s0 = p0 * v0 + 0.0 + p1 * v0 - q00 * v0 - q01 * v1
    s1 = p0 * v1 + 0.0 + p1 * v1 - q10 * v0 - q11 * v1
    pp = phi * phi
    bd = (x0 * a0 + a0 * x0) + (x1 * a1 + a1 * x1)
    bbd = b * bd + bd * b
    phid = -4.0 * bbd / (bb * bb)
    cd = 16.0 * (b * bbd + bd * bb) / (b3 * b3)
    d0d = c * a0 + cd * x0
    d1d = c * a1 + cd * x1
    h0d = d0d * 0.5
    h1d = d1d * 0.5
    p0d = d0 * w0 + d0d * v0
    p1d = d1 * w1 + d1d * v1
    q00d = h0 * w0 + h0d * v0
    q01d = h0 * w1 + h0d * v1
    q10d = h1 * w0 + h1d * v0
    q11d = h1 * w1 + h1d * v1
    s0d = ((p0 * w0 + p0d * v0) + (p1 * w0 + p1d * v0)
           - (q00 * w0 + q00d * v0) - (q01 * w1 + q01d * v1))
    s1d = ((p0 * w1 + p0d * v1) + (p1 * w1 + p1d * v1)
           - (q10 * w0 + q10d * v0) - (q11 * w1 + q11d * v1))
    return (s0d * phi - s0 * phid) / pp, (s1d * phi - s1 * phid) / pp


def _ref_spray_jvp(x, v, dx, dv):
    """Row by row on Python floats, value and derivative apart."""
    k, m = len(x), dx.shape[2]
    s = np.empty((k, 2))
    ds = np.empty((k, 2, m))
    for r in range(k):
        (x0, x1), (v0, v1) = x[r].tolist(), v[r].tolist()
        s[r] = _ref_round_spray(x0, x1, v0, v1, lambda b: b ** 3)
        for c in range(m):
            ds[r, :, c] = _ref_round_spray_d(x0, x1, v0, v1, *dx[r, :, c],
                                             *dv[r, :, c])
    return s, ds


@pytest.mark.parametrize("k", [1, 2, 3, 64])
@pytest.mark.parametrize("m", [1, 2])
def test_fused_round_kernel_equals_the_scalar_halves(k, m):
    metric = fc.sphere_metric(fc.sphere_atlas())
    rng = np.random.default_rng(100 * k + m)
    for chart in (0, 1):
        for scale in (0.3, 1.5, 3.0):
            x = rng.uniform(-scale, scale, (k, 2))
            v = rng.normal(size=(k, 2)) * rng.uniform(0.1, 3.0, (k, 1))
            dx, dv = rng.normal(size=(2, k, 2, m))
            s, ds = metric.spray_jvp(chart, x, v, dx, dv)
            want_s, want_ds = _ref_spray_jvp(x, v, dx, dv)
            assert s.shape == (k, 2) and ds.shape == (k, 2, m)
            assert _hexes(s) == _hexes(want_s)
            assert _hexes(ds) == _hexes(want_ds)
            assert _hexes(metric.spray(chart, x, v)) == _hexes(want_s)


# -- atlas row checks ------------------------------------------------------


def _ref_contains(atlas, chart, x):
    lo, hi = atlas.boxes[chart]
    return all(a <= c <= b for a, c, b in
               zip(lo.tolist(), np.asarray(x).tolist(), hi.tolist()))


def _ref_switch(chart, x):
    return 1 - chart if np.dot(x, x) > SPHERE_SWITCH_RADIUS ** 2 else -1


def _edge_points(rng):
    """NaN, box edges and just past them, radii one ulp either side of the
    switch radius, and random points."""
    r = fc.atlas.SPHERE_CHART_RADIUS
    R = SPHERE_SWITCH_RADIUS
    pts = [[np.nan, 0.0], [0.0, np.nan], [np.inf, 0.0], [r, r], [-r, -r],
           [r, 0.0], [np.nextafter(r, 4.0), 0.0],
           [0.0, np.nextafter(-r, -4.0)]]
    for theta in rng.uniform(0.0, 2 * math.pi, 40):
        for rad in (np.nextafter(R, 0.0), R, np.nextafter(R, 2.0)):
            pts.append([rad * math.cos(theta), rad * math.sin(theta)])
    pts += [[R, 0.0], [0.0, -R], [np.nextafter(R, 2.0), 0.0]]
    pts += rng.uniform(-3.5, 3.5, (100, 2)).tolist()
    return np.array(pts)


def test_row_checks_equal_the_scalar_checks():
    atlas = fc.sphere_atlas()
    rng = np.random.default_rng(5)
    X = _edge_points(rng)
    crossed = 0
    for chart in (0, 1):
        charts = np.full(len(X), chart)
        inside = atlas.contains_rows(charts, X)
        targets = atlas.switch_targets(charts, X)
        for x, got_in, got_to in zip(X, inside.tolist(), targets.tolist()):
            assert got_in is _ref_contains(atlas, chart, x), x
            assert atlas.contains(chart, x) is got_in
            assert got_to == _ref_switch(chart, x), x
        crossed += int((targets >= 0).sum())
    assert 0 < crossed < 2 * len(X)
    # mixed charts in one call
    charts = rng.integers(0, 2, len(X))
    assert atlas.contains_rows(charts, X).tolist() == [
        _ref_contains(atlas, c, x) for c, x in zip(charts, X)]
    assert atlas.switch_targets(charts, X).tolist() == [
        _ref_switch(c, x) for c, x in zip(charts, X)]
    # an atlas with no switch rule never switches
    flat = fc.flat_atlas(halfwidth=1.0)
    assert flat.switch_targets([0, 0], X[:2]).tolist() == [-1, -1]
    assert flat.contains_rows([0, 0], [[1.0, -1.0], [1.0, 1.5]]).tolist() == [
        True, False]


# -- chart transitions on rows -------------------------------------------


def _ref_jacobian(tr, x, dirs, order):
    """The one-point Transition Jacobian (dirs = []) or directional
    Jacobian (dirs = [dx]) as it was written before rows."""
    n = len(x)
    J = np.empty((n, n))
    for j in range(n):
        e = [1.0 if i == j else 0.0 for i in range(n)]
        out = tr.fn(dual.seed([float(c) for c in x], [*dirs, e]))
        J[:, j] = [dual.extract(c, order) for c in out]
    return J


def _ref_transform_state(tr, y, n, m):
    """The one-state transform the row form replaced."""
    x = y[:n]
    v = y[n:2 * n]
    D = _ref_jacobian(tr, x, [], 1)
    out = [np.array([dual.real(c) for c in tr.fn(list(x))]), D @ v]
    if len(y) > 2 * n:
        J = y[2 * n:2 * n + n * m].reshape(n, m)
        Jd = y[2 * n + n * m:].reshape(n, m)
        Jn = D @ J
        Jdn = D @ Jd
        for c in range(m):
            Jdn[:, c] += _ref_jacobian(tr, x, [list(J[:, c])], 2) @ v
        out.extend([Jn.ravel(), Jdn.ravel()])
    sign = 1.0 if _det_ratio(D)[0] > 0 else -1.0
    return np.concatenate(out), sign


@pytest.mark.parametrize("m", [0, 1, 2])
def test_row_transforms_equal_the_one_state_transform(m):
    atlas = fc.sphere_atlas()
    rng = np.random.default_rng(11 + m)
    k = 40
    ang = rng.uniform(0.0, 2 * math.pi, k)
    rad = rng.uniform(1.3, 2.9, k)
    X = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    Y = np.concatenate([X, rng.normal(size=(k, 2 + 4 * m))], axis=1)
    for src, dst in ((0, 1), (1, 0)):
        tr = atlas.transition(src, dst)
        got, signs = _transform_states(tr, Y, 2, m)
        assert got.shape == Y.shape
        for r in range(k):
            want, sign = _ref_transform_state(tr, Y[r], 2, m)
            assert _hexes(got[r]) == _hexes(want)
            assert signs[r] == sign
            lone, lone_sign = _transform_states(tr, Y[r:r + 1], 2, m)
            assert _hexes(lone) == _hexes(want) and lone_sign[0] == sign
            # one point, as convert and velocity_in read it
            x = Y[r, :2]
            assert _hexes(tr.apply(x)) == _hexes(want[:2])
            assert _hexes(tr.jacobian(x)) == _hexes(
                _ref_jacobian(tr, x, [], 1))


# -- restarts ----------------------------------------------------------------


def test_restart_rows_equals_one_row_restarts():
    # the states sphere-equator's fan flows restart from after their chart
    # switches, at their own switch times
    field = _builtin_field("sphere-equator")
    plan = field.plan
    frames = fc.normal_jacobi_flows(field.metric, field.N, field.rays,
                                    plan.horizon, rtol=plan.ode_rtol,
                                    atol=plan.ode_atol)
    starts = [seg for frame in frames for seg in frame.path.segments[1:]]
    assert len(starts) >= 64
    assert len({seg.t0 for seg in starts}) > 1
    charts = np.array([seg.chart for seg in starts])
    Y = np.array([seg.y_old[0] for seg in starts])
    t0 = [seg.t0 for seg in starts]
    rhs = _linearized_rhs(field.metric, charts, 1)

    def stepper():
        # started from another state, then restarted
        s = DormandPrince(rhs, t0, Y[::-1].copy(), plan.horizon,
                          plan.ode_rtol, plan.ode_atol, 0.2)
        s.rejected = [True] * len(Y)
        return s

    together, alone = stepper(), stepper()
    rows = np.arange(len(Y))
    rng = np.random.default_rng(3)
    half = rng.permutation(rows)[:len(Y) // 2]
    together.restart_rows(half, Y[half])
    together.restart_rows(np.setdiff1d(rows, half), Y[np.setdiff1d(rows,
                                                                   half)])
    for r in rng.permutation(rows):
        alone.restart_rows([r], Y[r:r + 1])
    for s in (together, alone):
        assert not any(s.rejected) and all(s.running)
    assert _hexes(together.fs) == _hexes(alone.fs)
    assert _hexes(together.h_abs) == _hexes(alone.h_abs)
    assert np.array_equal(together.ys, Y)
    for _ in range(3):
        assert together.step_rows() == alone.step_rows()
        assert _hexes(together.ys) == _hexes(alone.ys)
    with pytest.raises(ValueError, match="finite"):
        together.restart_rows([0], [np.full(Y.shape[1], np.nan)])


# -- the stacked focal scan ----------------------------------------------


def _ref_scan_bracket(frame, t_floor, T_max):
    """The per-frame scan the stacked one replaced, each grid time read by
    its own ``signed_matrix`` probe."""
    top = min(T_max, frame.t1)
    grid = np.sort(np.concatenate([frame.knot_times(),
                                   np.linspace(t_floor, top, 80)]))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    grid = grid[(grid >= t_floor) & (grid <= top)]
    d, ratio = [], []
    for t in grid:
        M, sign = frame.signed_matrix(t)
        det, r = _det_ratio(M)
        d.append(sign * det)
        ratio.append(r)
    d, ratio = np.array(d), np.array(ratio)
    if ratio[0] < DEGENERATE_RATIO:
        return grid[0], None
    neg = d < 0
    changes = (d[1:] == 0.0) | (neg[1:] != neg[:-1])
    hits = np.flatnonzero(changes | (ratio[1:] < DEGENERATE_RATIO))
    if not len(hits):
        return np.inf, None
    j = hits[0]
    return None, (grid[j], grid[j + 1], bool(changes[j]), bool(neg[j]))


def _assert_scan_equals_reference(frames, t_floor, T_max):
    """The stacked scan against the per-frame reference: the same focal
    time at a degenerate first grid time, and the same bracket otherwise;
    returns the counts of each outcome."""
    out, (who, lo, hi, bisect, prev_neg) = _scan(_FrameSteps(frames),
                                                 frames, t_floor, T_max)
    brackets = {k: (a, b, c, d) for k, a, b, c, d in zip(
        who.tolist(), lo.tolist(), hi.tolist(), bisect.tolist(),
        prev_neg.tolist())}
    counts = {"first": 0, "none": 0, "bracket": 0}
    for k, frame in enumerate(frames):
        t, bracket = _ref_scan_bracket(frame, t_floor, T_max)
        if bracket is None:
            assert k not in brackets and out[k].hex() == float(t).hex()
            counts["none" if math.isinf(t) else "first"] += 1
        else:
            assert math.isinf(out[k])
            got = brackets[k]
            assert [float(v).hex() for v in got[:2]] == [
                float(v).hex() for v in bracket[:2]]
            assert got[2:] == bracket[2:]
            counts["bracket"] += 1
    return counts


@pytest.mark.parametrize("name", ["sphere-point", "sphere-equator"])
def test_stacked_scan_equals_per_frame_scan_on_sphere_fans(name):
    field = _builtin_field(name)
    H = field.plan.horizon
    frames = [field.flow(ray) for ray in field.rays]
    counts = _assert_scan_equals_reference(frames, cutlocus.FOCAL_FLOOR, H)
    assert counts["bracket"] >= 32


def test_stacked_scan_equals_per_frame_scan_on_plane_circle():
    # the outward rays never focus, the inward ones focus at 1
    field = _builtin_field("plane-circle")
    frames = [field.flow(ray) for ray in field.rays[::9]]
    counts = _assert_scan_equals_reference(frames, cutlocus.FOCAL_FLOOR, 3.0)
    assert counts["none"] > 0 and counts["bracket"] > 0
    # a frame alone, and horizons that cut the grid short
    for T in (0.5, 1.0, 3.0):
        _assert_scan_equals_reference(frames[:1], cutlocus.FOCAL_FLOOR, T)


def test_stacked_scan_reads_a_degeneracy_at_the_first_grid_time():
    # J(0) = 0, so M = J is singular at t = 0, the first grid time
    metric = fc.sphere_metric(fc.sphere_atlas())
    start = TangentVec(0, np.array([0.1, 0.2]), np.array([0.5, 0.0]))
    frame = fc.linearized_flow(metric, start, 2.0, np.zeros((2, 2)),
                               np.eye(2))
    other = fc.linearized_flow(metric, start, 2.0, np.eye(2), np.zeros((2, 2)))
    counts = _assert_scan_equals_reference([frame, other, frame], 0.0, 2.0)
    assert counts["first"] == 2
    assert first_degeneracies([frame, other], 0.0, 2.0)[0] == 0.0


def test_stacked_dets_equal_signed_dets_of_each_frame():
    field = _builtin_field("sphere-equator")
    frames = [field.flow(ray) for ray in field.rays[::5]]
    steps = _FrameSteps(frames)
    rng = np.random.default_rng(8)
    owner = rng.integers(0, len(frames), 400)
    ts = rng.uniform(0.0, field.plan.horizon, 400)
    dets, ratios = steps.dets(steps.locate(owner, ts), ts)
    for k, frame in enumerate(frames):
        sel = owner == k
        d, r = frame.signed_dets(ts[sel])
        assert _hexes(d) == _hexes(dets[sel])
        assert _hexes(r) == _hexes(ratios[sel])


def test_mixed_column_counts_are_refused():
    metric = fc.sphere_metric(fc.sphere_atlas())
    start = TangentVec(0, np.array([0.1, 0.2]), np.array([0.5, 0.0]))
    one = fc.linearized_flow(metric, start, 1.0, np.zeros(2), np.ones(2))
    two = fc.linearized_flow(metric, start, 1.0, np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError, match="one column count"):
        first_degeneracies([one, two], 0.01, 1.0)
