"""Geodesic integration, the exponential map, and the linearized flow.

The geodesic equation x'' + 2G(x, x') = 0 is integrated with an embedded
Runge-Kutta 5(4) scheme (Dormand-Prince, elementary step control, quartic
dense output; ``dopri.py``), switching charts where the atlas asks.  The
integrator works on rows: ``integrate_geodesics`` and ``linearized_flows``
step a whole batch of starts (a shooting fan) in one stepper, and
``integrate_geodesic`` and ``linearized_flow`` are the one-row case.  A
row's knots, states and dense-output coefficients are bit for bit those of
its lone integration, so no result depends on whether it came from a batch.
That rests on the stepper's products and on the right-hand sides computing
each row alone: ``_by_chart`` hands each chart's rows to the metric's row
oracles, and a row that enters another chart restarts alone there.  Where
the spray vanishes on a one-chart atlas (``straight_geodesics``), a geodesic
is one exact segment: the line x0 + t v on [0, T], with only its endpoint
checked against the convex chart box.  Jacobi fields come from integrating
the linearization of the spray flow alongside the base geodesic; these
flows are always stepped, straight base geodesics included, because focal
times are read on their knots.  The right-hand sides read the spray only
through the metric's float oracles: ``metric.spray`` gives 2G and
``metric.spray_jvp`` gives 2G together with its directional derivatives
along the Jacobi columns (closed forms on the round sphere, zeros for an
x-independent metric, dual-number evaluation by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .atlas import TangentVec
from .dopri import TOO_SMALL_STEP, DormandPrince
from .errors import (AtlasExitError, DegenerateDirectionError, FinslerError,
                     IntegrationError)
from .metric import V_FLOOR

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11
DEGENERATE_RATIO = 1e-7     # sigma_min / sigma_max that counts as degenerate
DEGENERACY_TOL = 1e-8       # bracket width that ends a focal-time refinement


@dataclass
class PathSegment:
    chart: int
    t0: float
    t1: float
    knots: np.ndarray           # accepted step times
    y_old: np.ndarray           # (steps, dim) state at the start of each step
    Q: np.ndarray               # (steps, dim, 4) dense-output coefficients
    sign: float = 1.0           # accumulated transition-orientation factor

    def eval(self, t):
        # binary search over step intervals, then the step's quartic
        i = int(np.searchsorted(self.knots, t, side="right")) - 1
        i = min(max(i, 0), len(self.Q) - 1)
        t_old = self.knots[i]
        h = self.knots[i + 1] - t_old
        x = (t - t_old) / h
        # the powers x..x^4 as np.cumprod forms them, in the same order
        x2 = x * x
        x3 = x2 * x
        p = [x, x2, x3, x3 * x]
        y = h * np.dot(self.Q[i], p)
        y += self.y_old[i]
        return y

    def eval_many(self, ts):
        """``eval`` at each of the times ``ts`` in one array evaluation, as
        (len(ts), dim) rows; row j has the bits of ``eval(ts[j])``."""
        ts = np.asarray(ts, dtype=float)
        i = np.searchsorted(self.knots, ts, side="right") - 1
        i = np.clip(i, 0, len(self.Q) - 1)
        t_old = self.knots[i]
        h = self.knots[i + 1] - t_old
        x = (ts - t_old) / h
        x2 = x * x
        x3 = x2 * x
        p = np.stack([x, x2, x3, x3 * x], axis=1)
        y = h[:, None] * np.matmul(self.Q[i], p[:, :, None])[:, :, 0]
        y += self.y_old[i]
        return y


class GeodesicPath:
    """Dense-output geodesic with chart-segment bookkeeping."""

    def __init__(self, metric, segments):
        self.metric = metric
        self.segments = segments
        self.t0 = segments[0].t0
        self.t1 = segments[-1].t1

    @cached_property
    def knot_speeds(self):
        """(t, F(state)) at every accepted step time."""
        return [(t, self.metric.F(self.state(t))) for t in self.knot_times()]

    def _segment(self, t):
        for seg in self.segments:
            if t <= seg.t1 or seg is self.segments[-1]:
                return seg
        return self.segments[-1]

    def raw(self, t):
        seg = self._segment(t)
        return seg.chart, seg.eval(t), seg.sign

    def state(self, t) -> TangentVec:
        n = self.metric.atlas.dim
        chart, y, _ = self.raw(t)
        return TangentVec(chart, y[:n], y[n:2 * n])

    def position(self, t):
        n = self.metric.atlas.dim
        chart, y, _ = self.raw(t)
        return (chart, y[:n].copy())

    def velocity(self, t):
        n = self.metric.atlas.dim
        chart, y, _ = self.raw(t)
        return y[n:2 * n].copy()

    def knot_times(self):
        ts = []
        for seg in self.segments:
            ts.extend(seg.knots[:-1])
        ts.append(self.segments[-1].knots[-1])
        return np.array(ts)


def straight_geodesics(metric):
    """True when every geodesic of ``metric`` is a straight line in its one
    chart: the metric is x-independent, so the spray vanishes, and there is
    no other chart to switch to."""
    return metric.x_independent and metric.atlas.n_charts == 1


def _by_chart(charts, rows):
    """(chart, selector) pairs that split ``rows`` by their current chart;
    one full slice when they share one."""
    if len(rows) == 1:
        return [(int(charts[rows[0]]), slice(None))]
    ch = charts[rows]
    if (ch == ch[0]).all():
        return [(int(ch[0]), slice(None))]
    return [(int(c), ch == c) for c in np.unique(ch)]


def _geodesic_rhs(metric, charts):
    """y' for (x, v) rows, row r in chart ``charts[r]``."""
    n = metric.atlas.dim

    def rhs(t, y, rows):
        dy = np.empty_like(y)
        dy[:, :n] = y[:, n:]
        for chart, sel in _by_chart(charts, rows):
            dy[sel, n:] = -metric.spray(chart, y[sel, :n], y[sel, n:])
        return dy
    return rhs


def _linearized_rhs(metric, charts, m):
    """y' for (x, v, J, Jd) rows, J and Jd of shape (n, m) raveled."""
    n = metric.atlas.dim
    nm = n * m

    def rhs(t, y, rows):
        dy = np.empty_like(y)
        dy[:, :n] = y[:, n:2 * n]
        dy[:, 2 * n:2 * n + nm] = y[:, 2 * n + nm:]
        for chart, sel in _by_chart(charts, rows):
            ys = y[sel]
            s, ds = metric.spray_jvp(
                chart, ys[:, :n], ys[:, n:2 * n],
                ys[:, 2 * n:2 * n + nm].reshape(-1, n, m),
                ys[:, 2 * n + nm:].reshape(-1, n, m))
            dy[sel, n:2 * n] = -s
            dy[sel, 2 * n + nm:] = (-ds).reshape(-1, nm)
        return dy
    return rhs


def _det_ratio(M):
    """det M and sigma_min / sigma_max of a 2 x 2 matrix [[a, b], [c, d]]:
    sigma_min sigma_max = |det M|, and sigma_max^2, the larger eigenvalue
    of M M^T, is (S + hypot(a^2 + b^2 - c^2 - d^2, 2(ac + bd))) / 2 with S
    the sum of the four squares."""
    (a, b), (c, d) = M.tolist()
    det = a * d - b * c
    smax2 = 0.5 * (a * a + b * b + c * c + d * d
                   + math.hypot(a * a + b * b - c * c - d * d,
                                2.0 * (a * c + b * d)))
    return det, abs(det) / max(smax2, 1e-300)


def _transform_state(metric, tr, y, n, m):
    """Push a (x, v[, J, Jd]) state through a chart transition."""
    x = y[:n]
    v = y[n:2 * n]
    D = tr.jacobian(x)
    out = [tr.apply(x), D @ v]
    if len(y) > 2 * n:
        J = y[2 * n:2 * n + n * m].reshape(n, m)
        Jd = y[2 * n + n * m:].reshape(n, m)
        Jn = D @ J
        Jdn = D @ Jd
        for c in range(m):
            Jdn[:, c] += tr.jacobian_directional(x, J[:, c]) @ v
        out.extend([Jn.ravel(), Jdn.ravel()])
    sign = 1.0 if _det_ratio(D)[0] > 0 else -1.0
    return np.concatenate(out), sign


def _line_segment(atlas, chart, y0, T):
    """The straight geodesic x0 + t v on [0, T] as one exact segment."""
    n = atlas.dim
    x0, v = y0[:n], y0[n:]
    x1 = x0 + T * v
    if not atlas.contains(chart, x1):
        raise AtlasExitError(f"trajectory left the atlas by t={T:.6g}",
                             t=T, x=x1)
    Q = np.zeros((1, 2 * n, 4))
    Q[0, :n, 0] = v
    return PathSegment(chart, 0.0, T, np.array([0.0, T]), np.array([y0]), Q)


def _integrate_rows(metric, charts, y0s, T, rtol, atol, m=0):
    """Integrate the rows ``y0s`` (one start per row, in chart
    ``charts[r]``) to time T in one stepper.

    Returns, per row, its list of PathSegment or the IntegrationError or
    AtlasExitError that ends it.  Every row takes exactly the steps of its
    lone integration (``dopri.py``); a row whose trajectory enters another
    chart restarts alone there, with a fresh initial step, as a new
    stepper would.  Any other exception ends the whole batch.
    """
    atlas = metric.atlas
    n = atlas.dim
    Y = np.array(y0s, dtype=float)
    if m == 0 and straight_geodesics(metric):
        out = []
        for chart, y in zip(charts, Y):
            try:
                out.append([_line_segment(atlas, chart, y, T)])
            except AtlasExitError as exc:
                out.append(exc)
        return out
    max_step = np.inf if atlas.n_charts == 1 else 0.2
    charts = np.array(charts, dtype=int)
    rhs = (_geodesic_rhs(metric, charts) if m == 0
           else _linearized_rhs(metric, charts, m))
    R = len(Y)
    solver = DormandPrince(rhs, np.zeros(R), Y, T, rtol, atol, max_step)
    out = [[] for _ in range(R)]
    signs = [1.0] * R
    # the open segment of each row: knots, y_old and Q lists
    open_ = [([0.0], [], []) for _ in range(R)]
    while any(solver.running):
        done, failed = solver.step_rows()
        for r in failed:
            t = solver.ts[r]
            out[r] = IntegrationError(
                f"step-size underflow at t={t:.6g}: {TOO_SMALL_STEP}",
                t=t, x=solver.ys[r, :n].copy())
        if not done:
            continue
        Q = solver.dense_Q()
        y_old = solver.ys_old[done]
        for j, r in enumerate(done):
            knots, ys, Qs = open_[r]
            t = solver.ts[r]
            knots.append(t)
            ys.append(y_old[j])
            Qs.append(Q[j])
            chart = int(charts[r])
            x = solver.ys[r, :n]
            if not atlas.contains(chart, x):
                out[r] = AtlasExitError(
                    f"trajectory left the atlas at t={t:.6g}", t=t,
                    x=x.copy())
                solver.running[r] = False
                continue
            target = atlas.switch_target(chart, x)
            if target is None and solver.running[r]:
                continue
            out[r].append(PathSegment(chart, knots[0], t, np.array(knots),
                                      np.array(ys), np.array(Qs), signs[r]))
            if t < T - 1e-14:
                tr = atlas.transition(chart, target)
                y, s = _transform_state(metric, tr, solver.ys[r], n, m)
                signs[r] *= s
                charts[r] = target
                solver.restart(r, y)
                open_[r] = ([t], [], [])
            else:
                solver.running[r] = False
    return out


def _start_row(metric, start):
    """The (x, v) row of a geodesic start, checked as integrate_geodesic
    checks it."""
    if np.linalg.norm(start.v) < V_FLOOR:
        raise DegenerateDirectionError("integrate_geodesic needs v != 0")
    metric.atlas.require(start.chart, start.x)
    return np.concatenate([start.x, start.v])


def _lone(batch):
    """The one entry of a one-start batch, raised if it is an exception."""
    (got,) = batch
    if isinstance(got, Exception):
        raise got
    return got


def _batch(metric, starts, y0s, T, rtol, atol, m, wrap):
    """Integrate the rows whose start is not already an exception in one
    batch; each result is ``wrap(segments)`` or the row's exception."""
    out = list(y0s)
    live = [i for i, y in enumerate(y0s) if not isinstance(y, Exception)]
    if live:
        got = _integrate_rows(metric, [starts[i].chart for i in live],
                              [y0s[i] for i in live], float(T), rtol, atol, m)
        for i, g in zip(live, got):
            out[i] = g if isinstance(g, Exception) else wrap(g)
    return out


def integrate_geodesics(metric, starts, T, rtol=DEFAULT_RTOL,
                        atol=DEFAULT_ATOL) -> list:
    """``integrate_geodesic`` for many starts in one batch.  Entry i is the
    GeodesicPath of starts[i], equal to its lone integration in every knot,
    state and coefficient, or the FinslerError that integration raises."""
    y0s = []
    for start in starts:
        try:
            y0s.append(_start_row(metric, start))
        except FinslerError as exc:
            y0s.append(exc)
    return _batch(metric, starts, y0s, T, rtol, atol, 0,
                  lambda segs: GeodesicPath(metric, segs))


def integrate_geodesic(metric, start: TangentVec, T,
                       rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> GeodesicPath:
    """The geodesic from ``start`` on [0, T]: the one-start batch of
    ``integrate_geodesics``, raising the error that its entry holds."""
    return _lone(integrate_geodesics(metric, [start], T, rtol, atol))


def exp_map(metric, point, v, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Endpoint of the geodesic with initial velocity v after unit time."""
    chart, x = point
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) < V_FLOOR:
        return (chart, np.asarray(x, dtype=float).copy())
    path = integrate_geodesic(metric, TangentVec(chart, x, v), 1.0,
                              rtol=rtol, atol=atol)
    return path.position(1.0)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _quadrature(fn, a, b):
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return h * sum(w * fn(mid + h * xi)
                   for xi, w in zip(_GL_NODES, _GL_WEIGHTS))


def _as_curve(metric, path):
    """Normalize input to a list of (chart, a, b, state_fn) pieces."""
    if isinstance(path, GeodesicPath):
        pieces = []
        for seg in path.segments:
            n = metric.atlas.dim

            def state_fn(t, seg=seg, n=n):
                y = seg.eval(t)
                return TangentVec(seg.chart, y[:n], y[n:2 * n])
            for a, b in zip(seg.knots[:-1], seg.knots[1:]):
                pieces.append((seg.chart, a, b, state_fn))
        return pieces
    # imported here so that the package itself loads no scipy
    from scipy.interpolate import CubicSpline
    chart, ts, xs = path
    sp = CubicSpline(ts, np.asarray(xs, dtype=float), axis=0)
    dsp = sp.derivative()

    def state_fn(t):
        return TangentVec(chart, sp(t), dsp(t))
    return [(chart, a, b, state_fn) for a, b in zip(ts[:-1], ts[1:])]


def path_length(metric, path) -> float:
    total = 0.0
    for chart, a, b, state_fn in _as_curve(metric, path):
        total += _quadrature(lambda t: metric.F(state_fn(t)), a, b)
    return float(total)


def path_energy(metric, path) -> float:
    total = 0.0
    for chart, a, b, state_fn in _as_curve(metric, path):
        total += _quadrature(lambda t: 0.5 * metric.F(state_fn(t)) ** 2, a, b)
    return float(total)


class LinearizedFrame:
    """Solution of the variational (Jacobi) equation along a geodesic."""

    def __init__(self, metric, segments, m):
        self.metric = metric
        self.m = m
        self.n = metric.atlas.dim
        self.path = GeodesicPath(metric, segments)
        self.t0, self.t1 = self.path.t0, self.path.t1

    def signed_matrix(self, t):
        """(M(t), orientation sign of the chart at t) from one path read.

        M holds the m Jacobi columns, completed by the geodesic velocity
        when m < n: [J | v] for the one cone direction of a normal flow
        (the differential of the normal exponential), J itself for the n
        columns of ``conjugate_time``.
        """
        n, m = self.n, self.m
        _, y, sign = self.path.raw(t)
        J = y[2 * n:2 * n + n * m].reshape(n, m)
        if m < n:
            return np.column_stack([J, y[n:2 * n]]), sign
        return J, sign

    def knot_times(self):
        return self.path.knot_times()


def _flow_row(metric, start, J0, Jd0):
    """The (x, v, J, Jd) row of a Jacobi flow and its column count m."""
    J0 = np.atleast_2d(np.asarray(J0, dtype=float))
    Jd0 = np.atleast_2d(np.asarray(Jd0, dtype=float))
    if J0.shape[0] != metric.atlas.dim:
        J0, Jd0 = J0.T, Jd0.T
    return (np.concatenate([start.x, start.v, J0.ravel(), Jd0.ravel()]),
            J0.shape[1])


def linearized_flows(metric, starts, T, J0s, Jd0s, rtol=DEFAULT_RTOL,
                     atol=DEFAULT_ATOL) -> list:
    """``linearized_flow`` for many starts with the same number of Jacobi
    columns, in one batch.  Entry i is the LinearizedFrame of starts[i],
    equal to its lone integration, or the FinslerError that ends it."""
    rows = [_flow_row(metric, s, J0, Jd0)
            for s, J0, Jd0 in zip(starts, J0s, Jd0s)]
    if not rows:
        return []
    m = rows[0][1]
    if any(k != m for _, k in rows):
        raise ValueError("linearized_flows needs one column count")
    return _batch(metric, starts, [y for y, _ in rows], T, rtol, atol, m,
                  lambda segs: LinearizedFrame(metric, segs, m))


def linearized_flow(metric, start: TangentVec, T, J0, Jd0,
                    rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> LinearizedFrame:
    """Integrate the variational equation J'' = -d(2G)[J, J'] along the
    geodesic from ``start``; columns are Jacobi fields."""
    return _lone(linearized_flows(metric, [start], T, [J0], [Jd0], rtol, atol))


def first_degeneracy(frame: LinearizedFrame, t_floor, T_max):
    """First t in (t_floor, T_max] where the frame's 2 x 2 matrix M(t)
    degenerates.

    Each probe reads ``frame.signed_matrix(t)`` once: M(t) and the
    orientation sign of the chart transitions up to t.  Tracks the sign of
    the corrected det and a relative smallest-singular-value threshold,
    then bisection-refines.  Returns +inf when no degeneracy is found.
    """
    ts = [t for t in frame.knot_times() if t_floor < t <= T_max]
    grid = sorted(set(np.concatenate([
        ts, np.linspace(t_floor, min(T_max, frame.t1), 80)])))
    grid = [t for t in grid if t_floor <= t <= min(T_max, frame.t1)]

    def probe(t):
        """(signed det M(t), sigma_min / sigma_max) from one frame read."""
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
            # even-multiplicity kernel: refine on the singular-value dip
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


def conjugate_time(metric, point, v, T_max,
                   rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """First conjugate time along the unit-speed geodesic from (point, v)."""
    chart, x = point
    n = metric.atlas.dim
    start = TangentVec(chart, x, v)
    frame = linearized_flow(metric, start, T_max,
                            np.zeros((n, n)), np.eye(n),
                            rtol=rtol, atol=atol)
    t_floor = 1e-3 * T_max
    return first_degeneracy(frame, t_floor, T_max)
