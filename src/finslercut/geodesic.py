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
oracles.  The bookkeeping around the stepper works on rows too: each
accepted step is logged once as arrays, one ``contains_rows`` and one
``switch_targets`` call check all of its rows, and only rows that leave the
atlas, switch charts or finish reach Python.  The rows that enter another
chart in one step are pushed through the transition and restarted together
(``_transform_states``, ``DormandPrince.restart_rows``), each with the bits
of its own restart, and each row's segments are cut from the log when the
batch ends.  Where the spray vanishes on a one-chart atlas
(``straight_geodesics``), a geodesic is one exact segment: the line
x0 + t v on [0, T], with only its endpoint checked against the convex chart
box.  Jacobi fields come from integrating the linearization of the spray
flow alongside the base geodesic; these flows are always stepped, straight
base geodesics included, because focal times are read on their knots.
A geodesic is the flow with no Jacobi column: one right-hand side steps
every row and reads the spray only through ``metric.spray_jvp``, 2G and
its derivatives along the m >= 0 columns (a closed form on the round
sphere, zeros for an x-independent metric, dual numbers by default).
Every start passes one check, |v| >= V_FLOOR and x in its chart's box
(``_start_rows``).  The focal scan reads many flows at once:
``first_degeneracies`` stacks every flow's dense-output steps and scans
and refines all of them in array passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

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
SCAN_BLOCK = 1024           # scan times evaluated per stacked array pass


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
        return _eval_steps(self.Q[i], self.y_old[i], t_old,
                           self.knots[i + 1] - t_old, ts)


def _eval_steps(Q, y_old, t_old, h, ts):
    """Row j: the dense-output step (Q[j], y_old[j]) that starts at
    t_old[j] and spans h[j], evaluated at ts[j] with the bits of
    ``PathSegment.eval``: the one array evaluation of ``eval_many``, over
    steps stacked from any segments of one state width."""
    x = (ts - t_old) / h
    x2 = x * x
    x3 = x2 * x
    p = np.stack([x, x2, x3, x3 * x], axis=1)
    y = h[:, None] * np.matmul(Q, p[:, :, None])[:, :, 0]
    y += y_old
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


def path_states(paths, ts):
    """(charts, X, V): the chart, position and velocity of ``paths[j]`` at
    ``ts[j]``, with the bits of ``paths[j].state(ts[j])``.  The times of
    each path are read together, one ``eval_many`` per chart segment, each
    time from the segment ``raw`` reads."""
    ts = np.asarray(ts, dtype=float)
    n = paths[0].metric.atlas.dim if paths else 0
    X = np.empty((len(ts), n))
    V = np.empty((len(ts), n))
    charts = np.empty(len(ts), dtype=int)
    rows_of = {}
    for j, path in enumerate(paths):
        rows_of.setdefault(id(path), (path, []))[1].append(j)
    for path, rows in rows_of.values():
        rows = np.array(rows)
        segs = path.segments
        # the segment raw reads: the first ending at or after t
        which = np.minimum(np.searchsorted([s.t1 for s in segs], ts[rows]),
                           len(segs) - 1)
        for k, seg in enumerate(segs):
            sel = rows[which == k]
            if sel.size:
                y = seg.eval_many(ts[sel])
                X[sel] = y[:, :n]
                V[sel] = y[:, n:2 * n]
                charts[sel] = seg.chart
    return charts.tolist(), X, V


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
    return [(c, ch == c) for c in sorted(set(ch.tolist()))]


def _linearized_rhs(metric, charts, m):
    """y' for (x, v, J, Jd) rows, J and Jd of shape (n, m) raveled, with
    m >= 0 Jacobi columns: a geodesic is the flow with none, whose
    right-hand side copies and reshapes no column."""
    n = metric.atlas.dim
    nm = n * m

    def rhs(t, y, rows):
        dy = np.empty_like(y)
        dy[:, :n] = y[:, n:2 * n]
        if m:
            dy[:, 2 * n:2 * n + nm] = y[:, 2 * n + nm:]
        for chart, sel in _by_chart(charts, rows):
            ys = y[sel]
            k = len(ys)
            if m:
                J = ys[:, 2 * n:2 * n + nm].reshape(k, n, m)
                Jd = ys[:, 2 * n + nm:].reshape(k, n, m)
            else:
                J = Jd = np.empty((k, n, 0))
            s, ds = metric.spray_jvp(chart, ys[:, :n], ys[:, n:2 * n], J, Jd)
            dy[sel, n:2 * n] = -s
            if m:
                dy[sel, 2 * n + nm:] = (-ds).reshape(k, nm)
        return dy
    return rhs


def _det_ratios(a, b, c, d):
    """det M and sigma_min / sigma_max of the 2 x 2 matrices M = [[a, b],
    [c, d]] given by arrays of their four entries: sigma_min sigma_max =
    |det M|, and sigma_max^2, the larger eigenvalue of M M^T, is (S +
    hypot(a^2 + b^2 - c^2 - d^2, 2(ac + bd))) / 2 with S the sum of the
    four squares.  The hypot is ``math.hypot`` itself, entry by entry, so
    each entry has the bits of the same formula on Python floats."""
    with np.errstate(all="ignore"):
        det = a * d - b * c
        u = a * a + b * b - c * c - d * d
        w = 2.0 * (a * c + b * d)
        hyp = np.fromiter(map(math.hypot, u.tolist(), w.tolist()), float,
                          len(u))
        smax2 = 0.5 * (a * a + b * b + c * c + d * d + hyp)
        return det, np.abs(det) / np.maximum(smax2, 1e-300)


def _transform_states(tr, Y, n, m):
    """Push (x, v[, J, Jd]) rows through a chart transition: the new rows
    and each row's orientation sign, from one row evaluation of the
    transition's map, Jacobian and directional Jacobians."""
    X = Y[:, :n]
    V = Y[:, n:2 * n, None]
    D = tr.jacobian(X)
    out = [tr.apply(X), np.matmul(D, V)[:, :, 0]]
    if Y.shape[1] > 2 * n:
        J = Y[:, 2 * n:2 * n + n * m].reshape(-1, n, m)
        Jd = Y[:, 2 * n + n * m:].reshape(-1, n, m)
        Jdn = np.matmul(D, Jd)
        for c in range(m):
            Jdn[:, :, c] += np.matmul(tr.jacobian_directional(X, J[:, :, c]),
                                      V)[:, :, 0]
        out.extend([np.matmul(D, J).reshape(len(Y), -1),
                    Jdn.reshape(len(Y), -1)])
    det = D[:, 0, 0] * D[:, 1, 1] - D[:, 0, 1] * D[:, 1, 0]
    return np.concatenate(out, axis=1), np.where(det > 0, 1.0, -1.0)


def _line_segments(atlas, charts, Y, T):
    """The straight geodesics x0 + t v on [0, T], one exact segment per
    row, or the AtlasExitError of a row whose endpoint leaves its box."""
    n = atlas.dim
    X1 = Y[:, :n] + T * Y[:, n:]
    out = []
    for chart, y, x1 in zip(charts.tolist(), Y, X1):
        if not atlas.contains(chart, x1):
            out.append(AtlasExitError(
                f"trajectory left the atlas by t={T:.6g}", t=T, x=x1))
            continue
        Q = np.zeros((1, 2 * n, 4))
        Q[0, :n, 0] = y[n:]
        out.append([PathSegment(chart, 0.0, T, np.array([0.0, T]),
                                np.array([y]), Q)])
    return out


def _integrate_rows(metric, charts, y0s, T, rtol, atol, m=0):
    """Integrate the rows ``y0s`` (one start per row, in chart
    ``charts[r]``) to time T in one stepper.

    Returns, per row, its list of PathSegment or the IntegrationError or
    AtlasExitError that ends it.  Every row takes exactly the steps of its
    lone integration (``dopri.py``).  Each accepted step is logged once, as
    arrays over its rows, and checked against the atlas with one
    ``contains_rows`` and one ``switch_targets`` call; only the rows that
    leave the atlas, switch charts or finish reach Python.  The rows that
    enter another chart in one step are transformed and restarted there
    together, each with a fresh initial step, as a new stepper would.  Each
    row's segments are cut from the log once the batch ends.  Any other
    exception ends the whole batch.
    """
    atlas = metric.atlas
    n = atlas.dim
    Y = np.array(y0s, dtype=float)
    charts = np.array(charts, dtype=int)
    if m == 0 and straight_geodesics(metric):
        return _line_segments(atlas, charts, Y, T)
    max_step = np.inf if atlas.n_charts == 1 else 0.2
    R = len(Y)
    solver = DormandPrince(_linearized_rhs(metric, charts, m), np.zeros(R),
                           Y, T, rtol, atol, max_step)
    out = [None] * R
    # the closed segments of each row, (chart, t0, t1, sign), and the start
    # time and orientation sign of its open one
    closed = [[] for _ in range(R)]
    t0s = np.zeros(R)
    signs = np.ones(R)
    # rows, t, y_old and Q of each step's accepted rows, field by field
    rows_log, t_log, y_log, Q_log = log = ([], [], [], [])
    while any(solver.running):
        done, failed = solver.step_rows()
        for r in failed:
            t = solver.ts[r]
            out[r] = IntegrationError(
                f"step-size underflow at t={t:.6g}: {TOO_SMALL_STEP}",
                t=t, x=solver.ys[r, :n].copy())
        if not done:
            continue
        rows = np.array(done)
        t = np.array(solver.ts)[rows]
        rows_log.append(rows)
        t_log.append(t)
        y_log.append(solver.ys_old[rows])
        Q_log.append(solver.dense_Q())
        X = solver.ys[rows, :n]
        ch = charts[rows]
        inside = atlas.contains_rows(ch, X)
        target = atlas.switch_targets(ch, X)
        if inside.all() and target.max() < 0 and t.max() < T:
            continue
        ends = ~inside | (target >= 0) | (t >= T)
        moved = []
        for j in np.flatnonzero(ends).tolist():
            r = done[j]
            if not inside[j]:
                out[r] = AtlasExitError(
                    f"trajectory left the atlas at t={solver.ts[r]:.6g}",
                    t=solver.ts[r], x=X[j].copy())
                solver.running[r] = False
                continue
            closed[r].append((int(ch[j]), float(t0s[r]), solver.ts[r],
                              float(signs[r])))
            if t[j] < T - 1e-14:
                moved.append(j)
            else:
                solver.running[r] = False
        for src, dst in sorted({(int(ch[j]), int(target[j]))
                                for j in moved}):
            sel = [done[j] for j in moved
                   if (ch[j], target[j]) == (src, dst)]
            y, s = _transform_states(atlas.transition(src, dst),
                                     solver.ys[sel], n, m)
            signs[sel] *= s
            charts[sel] = dst
            t0s[sel] = np.take(solver.ts, sel)
            solver.restart_rows(sel, y)
    return _cut_segments(out, closed, log)


def _cut_segments(out, closed, log):
    """Each row's segments, cut from the step log: those rows of ``out``
    that hold no error get the list of their ``closed`` segments, whose
    knots are the segment's start and its logged step ends.  The logged
    states and coefficients are gathered segment by segment, each field's
    steps released once they are joined, so the log is copied about once."""
    rows_log, t_log, y_log, Q_log = log
    if not rows_log:
        return out
    rows = np.concatenate(rows_log)
    # each row's logged steps, in time order
    order = np.argsort(rows, kind="stable")
    first = np.searchsorted(rows[order], np.arange(len(out) + 1))
    t = np.concatenate(t_log)[order]
    cuts = []           # (row, chart, t0, t1, sign, knots, steps)
    for r, segs in enumerate(closed):
        if out[r] is not None:
            continue
        a = first[r]
        for chart, t0, t1, sign in segs:
            b = a + int(np.searchsorted(t[a:first[r + 1]], t1, side="right"))
            cuts.append((r, chart, t0, t1, sign,
                         np.concatenate(([t0], t[a:b])), order[a:b]))
            a = b
    parts = []
    for field in (y_log, Q_log):
        joined = np.concatenate(field)
        field.clear()
        parts.append([joined[cut[-1]] for cut in cuts])
    for r, *_ in cuts:
        out[r] = []
    for (r, chart, t0, t1, sign, knots, _), y_old, Q in zip(cuts, *parts):
        out[r].append(PathSegment(chart, t0, t1, knots, y_old, Q, sign))
    return out


def _start_rows(metric, starts):
    """The (x, v) row of each start, checked as every geodesic and flow
    start is checked, |v| >= V_FLOOR and x in its chart's box, or the
    FinslerError of a bad start, held in its place."""
    rows = []
    for start in starts:
        try:
            if np.linalg.norm(start.v) < V_FLOOR:
                raise DegenerateDirectionError("a geodesic needs v != 0")
            metric.atlas.require(start.chart, start.x)
            rows.append(np.concatenate([start.x, start.v]))
        except FinslerError as exc:
            rows.append(exc)
    return rows


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
    return _batch(metric, starts, _start_rows(metric, starts), T, rtol, atol,
                  0, lambda segs: GeodesicPath(metric, segs))


def integrate_geodesic(metric, start: TangentVec, T,
                       rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> GeodesicPath:
    """The geodesic from ``start`` on [0, T]: the one-start batch of
    ``integrate_geodesics``, raising the error that its entry holds."""
    return _lone(integrate_geodesics(metric, [start], T, rtol, atol))


def exp_map(metric, point, v, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Endpoint of the geodesic with initial velocity v after unit time."""
    chart, x = point
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) < V_FLOOR:
        metric.atlas.require(chart, x)
        return (chart, x.copy())
    path = integrate_geodesic(metric, TangentVec(chart, x, v), 1.0,
                              rtol=rtol, atol=atol)
    return path.position(1.0)


@cache
def _gauss_legendre():
    """10-point Gauss-Legendre nodes and weights, built on first use:
    numpy.polynomial is an import no builtin run needs."""
    return np.polynomial.legendre.leggauss(10)


def _quadrature(fn, a, b):
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return h * sum(w * fn(mid + h * xi)
                   for xi, w in zip(*_gauss_legendre()))


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

    def signed_dets(self, ts):
        """The signed det of M(t) and its sigma_min / sigma_max at each of
        the times ``ts``, as two arrays: the one-frame case of the stacked
        evaluation of ``first_degeneracies`` (``_FrameSteps``); entry j has
        the bits of ``_det_ratios`` on ``signed_matrix(ts[j])``, the det
        times the sign."""
        ts = np.asarray(ts, dtype=float)
        steps = _FrameSteps([self])
        return steps.dets(steps.locate(np.zeros(len(ts), dtype=int), ts), ts)

    def knot_times(self):
        return self.path.knot_times()


def _flow_cols(metric, J0, Jd0):
    """The raveled (J, Jd) of a Jacobi flow's row and its column count m."""
    J0 = np.atleast_2d(np.asarray(J0, dtype=float))
    Jd0 = np.atleast_2d(np.asarray(Jd0, dtype=float))
    if J0.shape[0] != metric.atlas.dim:
        J0, Jd0 = J0.T, Jd0.T
    return (J0.ravel(), Jd0.ravel()), J0.shape[1]


def linearized_flows(metric, starts, T, J0s, Jd0s, rtol=DEFAULT_RTOL,
                     atol=DEFAULT_ATOL) -> list:
    """``linearized_flow`` for many starts with the same number of Jacobi
    columns, in one batch.  Entry i is the LinearizedFrame of starts[i],
    equal to its lone integration, or the FinslerError that refuses its
    start or ends it."""
    cols = [_flow_cols(metric, J0, Jd0) for J0, Jd0 in zip(J0s, Jd0s)]
    if not cols:
        return []
    m = cols[0][1]
    if any(k != m for _, k in cols):
        raise ValueError("linearized_flows needs one column count")
    y0s = [y if isinstance(y, Exception) else np.concatenate([y, *c])
           for y, (c, _) in zip(_start_rows(metric, starts), cols)]
    return _batch(metric, starts, y0s, T, rtol, atol, m,
                  lambda segs: LinearizedFrame(metric, segs, m))


def linearized_flow(metric, start: TangentVec, T, J0, Jd0,
                    rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> LinearizedFrame:
    """Integrate the variational equation J'' = -d(2G)[J, J'] along the
    geodesic from ``start``; columns are Jacobi fields."""
    return _lone(linearized_flows(metric, [start], T, [J0], [Jd0], rtol, atol))


def _keys(major, t):
    """(major, t) pairs as complex numbers, which numpy orders
    lexicographically: real part first, then imaginary part."""
    z = np.empty(len(t), dtype=complex)
    z.real = major
    z.imag = t
    return z


class _FrameSteps:
    """Every dense-output step of ``frames`` (one column count), stacked
    in (frame, segment, time) order, with only the state columns M(t)
    reads: [v | J] for one Jacobi column, J for n of them.

    ``locate`` finds the step that ``frame.path.raw(t)`` reads, for many
    (frame, t) pairs in two ``np.searchsorted`` calls on (frame, segment
    end) and (segment, step start) keys; ``dets`` evaluates those steps
    with ``_eval_steps`` and takes ``_det_ratios``, so every entry has the
    bits of ``_det_ratios`` on ``signed_matrix(t)``.
    """

    def __init__(self, frames):
        n, m = frames[0].n, frames[0].m
        if any(frame.m != m for frame in frames):
            raise ValueError("first_degeneracies needs one column count")
        self.one_column = m < n
        cols = slice(n, 2 * n + n * m) if m < n else slice(2 * n,
                                                           2 * n + n * m)
        segs = [(k, seg) for k, frame in enumerate(frames)
                for seg in frame.path.segments]
        counts = np.array([len(seg.Q) for _, seg in segs])
        self.t_old = np.concatenate([seg.knots[:-1] for _, seg in segs])
        self.h = (np.concatenate([seg.knots[1:] for _, seg in segs])
                  - self.t_old)
        self.Q = np.concatenate([seg.Q[:, cols] for _, seg in segs])
        self.y_old = np.concatenate([seg.y_old[:, cols] for _, seg in segs])
        self.sign = np.repeat([seg.sign for _, seg in segs], counts)
        seg_frame = np.array([k for k, _ in segs])
        self.frame = np.repeat(seg_frame, counts)
        self._seg_keys = _keys(seg_frame, [seg.t1 for _, seg in segs])
        self._last_seg = np.searchsorted(seg_frame, np.arange(len(frames)),
                                         side="right") - 1
        self._step_keys = _keys(np.repeat(np.arange(len(segs)), counts),
                                self.t_old)
        self._last_step = np.cumsum(counts) - 1
        self._first_step = self._last_step + 1 - counts

    def locate(self, frames, ts):
        """The step that frame ``frames[j]`` reads at ``ts[j]``: in the
        first of its segments ending at or after t (else its last), the
        last step starting at or before t (else the first)."""
        seg = np.minimum(np.searchsorted(self._seg_keys, _keys(frames, ts)),
                         self._last_seg[frames])
        i = np.searchsorted(self._step_keys, _keys(seg, ts), side="right") - 1
        return np.clip(i, self._first_step[seg], self._last_step[seg])

    def dets(self, steps, ts):
        """(signed det, sigma_min / sigma_max) of M at ``ts[j]`` on step
        ``steps[j]``, evaluated SCAN_BLOCK rows at a time, which bounds the
        gathered steps and the temporaries."""
        det = np.empty(len(ts))
        ratio = np.empty(len(ts))
        for i in range(0, len(ts), SCAN_BLOCK):
            at, block = steps[i:i + SCAN_BLOCK], slice(i, i + SCAN_BLOCK)
            y = _eval_steps(self.Q[at], self.y_old[at], self.t_old[at],
                            self.h[at], ts[block])
            if self.one_column:
                # [J | v]: y holds v, then the Jacobi column
                d, ratio[block] = _det_ratios(y[:, 2], y[:, 0], y[:, 3],
                                              y[:, 1])
            else:
                d, ratio[block] = _det_ratios(y[:, 0], y[:, 1], y[:, 2],
                                              y[:, 3])
            det[block] = self.sign[at] * d
        return det, ratio


def _scan(steps, frames, t_floor, T_max):
    """The scan of ``first_degeneracies``: (out, brackets).  ``out[k]`` is
    the first grid time of frame k when M degenerates there, else inf;
    ``brackets`` is (frame, lo, hi, sign change, det sign at lo) as arrays
    over the frames not degenerate at their first grid time that have a hit
    in a later grid interval, their first such interval.

    Every frame's grid, its knots and 80 evenly spaced times, distinct,
    sorted and kept within [t_floor, min(T_max, t1)], is built in one
    ``np.lexsort`` over (frame, time) and read by ``steps.dets`` in
    stacked array passes; the hits are found by array comparisons."""
    F = len(frames)
    top = np.minimum(T_max, [frame.t1 for frame in frames])
    # one np.linspace per distinct top keeps each frame's linspace bits
    lin = np.empty((F, 80))
    for t in set(top.tolist()):
        lin[top == t] = np.linspace(t_floor, t, 80)
    ts = np.concatenate([steps.t_old, [frame.t1 for frame in frames],
                         lin.ravel()])
    owner = np.concatenate([steps.frame, np.arange(F),
                            np.repeat(np.arange(F), 80)])
    order = np.lexsort((ts, owner))
    ts, owner = ts[order], owner[order]
    keep = (ts >= t_floor) & (ts <= top[owner])
    keep[1:] &= (ts[1:] != ts[:-1]) | (owner[1:] != owner[:-1])
    ts, owner = ts[keep], owner[keep]
    d, ratio = steps.dets(steps.locate(owner, ts), ts)

    out = np.full(F, np.inf)
    first = np.searchsorted(owner, np.arange(F))
    has = first < np.searchsorted(owner, np.arange(F), side="right")
    at_first = np.zeros(F, dtype=bool)
    at_first[has] = ratio[first[has]] < DEGENERATE_RATIO
    out[at_first] = ts[first[at_first]]
    neg = d < 0
    changes = (d[1:] == 0.0) | (neg[1:] != neg[:-1])
    hit = (owner[1:] == owner[:-1]) & (changes
                                       | (ratio[1:] < DEGENERATE_RATIO))
    j = np.flatnonzero(hit)
    j = j[~at_first[owner[j]]]
    # each frame's first hit
    j = j[np.concatenate(([True], owner[j][1:] != owner[j][:-1]))[:len(j)]]
    return out, (owner[j], ts[j], ts[j + 1], changes[j], neg[j])


def first_degeneracies(frames, t_floor, T_max):
    """``first_degeneracy`` of each of ``frames`` (one column count
    throughout), as a list of floats.

    Every frame is scanned at once (``_scan``), over the frames' stacked
    dense-output steps (``_FrameSteps``).  Then every bracket is refined in
    lockstep, with one array evaluation of all the brackets' probe times
    per round.  A bracket is a scan interval, which no knot splits, so each
    one reads one fixed dense-output step, its midpoint's, for its whole
    refinement.  Every scan value and probe, and so every focal time, has
    the bits of the scalar probe ``_det_ratios`` on
    ``frame.signed_matrix(t)``.
    """
    if not frames:
        return []
    steps = _FrameSteps(frames)
    out, (who, lo, hi, bisect, prev_neg) = _scan(steps, frames, t_floor,
                                                 T_max)
    at = steps.locate(who, 0.5 * (lo + hi))

    live = np.arange(len(who))
    while True:
        done = hi[live] - lo[live] <= DEGENERACY_TOL
        b = live[done]
        out[who[b]] = 0.5 * (lo[b] + hi[b])
        live = live[~done]
        if not live.size:
            return out.tolist()
        # sign changes bisect on the det; even-multiplicity kernels take a
        # ternary step on the singular-value dip, two probes each
        bis, ter = live[bisect[live]], live[~bisect[live]]
        width = (hi[ter] - lo[ter]) / 3
        mid = 0.5 * (lo[bis] + hi[bis])
        m1, m2 = lo[ter] + width, hi[ter] - width
        probes = np.concatenate([bis, ter, ter])
        dets, ratios = steps.dets(at[probes], np.concatenate([mid, m1, m2]))
        dm = dets[:len(bis)]
        zero = dm == 0.0
        out[who[bis[zero]]] = mid[zero]
        below = (dm < 0) == prev_neg[bis]
        lo[bis] = np.where(below, mid, lo[bis])
        hi[bis] = np.where(below, hi[bis], mid)
        r1, r2 = np.split(ratios[len(bis):], 2)
        left = r1 < r2
        hi[ter] = np.where(left, m2, hi[ter])
        lo[ter] = np.where(left, lo[ter], m1)
        live = np.sort(np.concatenate([bis[~zero], ter]))


def first_degeneracy(frame: LinearizedFrame, t_floor, T_max):
    """First t in (t_floor, T_max] where the frame's 2 x 2 matrix M(t)
    degenerates: the one-frame case of ``first_degeneracies``.

    The scan grid, the knots and 80 evenly spaced times, is read in one
    array pass (``frame.signed_dets``): the sign of the corrected det and
    the relative smallest singular value at each time.  The first sign
    change is bisection-refined and the first dip below DEGENERATE_RATIO
    ternary-refined.  Returns +inf when no degeneracy is found.
    """
    return first_degeneracies([frame], t_floor, T_max)[0]


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
