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

    def step_at(self, t):
        """Index of the dense-output step that ``eval(t)`` reads."""
        i = int(np.searchsorted(self.knots, t, side="right")) - 1
        return min(max(i, 0), len(self.Q) - 1)


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


def _det_ratios(a, b, c, d):
    """``_det_ratio`` over arrays of the four entries: the same float64
    operations in the same order, and ``math.hypot`` itself, so every entry
    has the bits of the scalar one."""
    with np.errstate(all="ignore"):
        det = a * d - b * c
        u = a * a + b * b - c * c - d * d
        w = 2.0 * (a * c + b * d)
        hyp = np.fromiter(map(math.hypot, u.tolist(), w.tolist()), float,
                          len(u))
        smax2 = 0.5 * (a * a + b * b + c * c + d * d + hyp)
        return det, np.abs(det) / np.maximum(smax2, 1e-300)


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
        the times ``ts``, as two arrays, from one ``eval_many`` per chart
        segment; entry j has the bits of ``_det_ratio`` on
        ``signed_matrix(ts[j])``, the det times the sign."""
        n, m = self.n, self.m
        ts = np.asarray(ts, dtype=float)
        segs = self.path.segments
        # the segment path.raw reads: the first ending at or after t
        which = np.minimum(np.searchsorted([s.t1 for s in segs], ts),
                           len(segs) - 1)
        y = np.empty((len(ts), 2 * n + 2 * n * m))
        sign = np.empty(len(ts))
        for k, seg in enumerate(segs):
            sel = which == k
            if sel.any():
                y[sel] = seg.eval_many(ts[sel])
                sign[sel] = seg.sign
        J = y[:, 2 * n:2 * n + n * m]
        if m < n:
            # [J | v] for the one Jacobi column
            det, ratio = _det_ratios(J[:, 0], y[:, n], J[:, 1], y[:, n + 1])
        else:
            det, ratio = _det_ratios(J[:, 0], J[:, 1], J[:, 2], J[:, 3])
        return sign * det, ratio

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


def _scan_bracket(frame, t_floor, T_max):
    """The scan of ``first_degeneracy``: (t, None) when the frame
    degenerates at the first grid time t or nowhere (t = inf), else
    (None, (lo, hi, sign change, det sign at lo)), the first grid interval
    holding a sign change of the corrected det or a dip of sigma_min /
    sigma_max below DEGENERATE_RATIO.

    The scan grid, the knots and 80 evenly spaced times, is read in one
    array pass (``frame.signed_dets``)."""
    top = min(T_max, frame.t1)
    # the distinct times, sorted: np.unique would import numpy.ma
    grid = np.sort(np.concatenate([frame.knot_times(),
                                   np.linspace(t_floor, top, 80)]))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    grid = grid[(grid >= t_floor) & (grid <= top)]
    d, ratio = frame.signed_dets(grid)
    if ratio[0] < DEGENERATE_RATIO:
        return grid[0], None
    neg = d < 0
    changes = (d[1:] == 0.0) | (neg[1:] != neg[:-1])
    hits = np.flatnonzero(changes | (ratio[1:] < DEGENERATE_RATIO))
    if not len(hits):
        return np.inf, None
    j = hits[0]
    return None, (grid[j], grid[j + 1], bool(changes[j]), bool(neg[j]))


def first_degeneracies(frames, t_floor, T_max):
    """``first_degeneracy`` of each of ``frames`` (one column count
    throughout), as a list of floats.

    Each frame's scan grid is read alone (``_scan_bracket``); then every
    bracket is refined in lockstep, with one array evaluation of all the
    brackets' probe times per round.  A bracket is a scan interval, which
    no knot splits, so each one reads one fixed dense-output step, its
    midpoint's, for its whole refinement.  The evaluation is
    ``PathSegment.eval_many``'s arithmetic on the stacked steps and the
    ratios are ``_det_ratios``, so every probe, and every focal time, has
    the bits of the scalar probe ``_det_ratio(frame.signed_matrix(t))``.
    """
    out = [None] * len(frames)
    owner, brackets, steps = [], [], []
    for k, frame in enumerate(frames):
        t, bracket = _scan_bracket(frame, t_floor, T_max)
        if bracket is None:
            out[k] = float(t)
            continue
        owner.append(k)
        brackets.append(bracket)
        mid = 0.5 * (bracket[0] + bracket[1])
        seg = frame.path._segment(mid)
        steps.append((seg, seg.step_at(mid)))
    if not owner:
        return out
    if len({frames[k].m for k in owner}) > 1:
        raise ValueError("first_degeneracies needs one column count")
    n, m = frames[owner[0]].n, frames[owner[0]].m
    t_old = np.array([seg.knots[i] for seg, i in steps])
    h = np.array([seg.knots[i + 1] for seg, i in steps]) - t_old
    Q = np.array([seg.Q[i] for seg, i in steps])
    y_old = np.array([seg.y_old[i] for seg, i in steps])
    sign = np.array([seg.sign for seg, _ in steps])
    lo, hi, bisect, prev_neg = (np.array(c) for c in zip(*brackets))

    def probe(b, ts):
        """(signed det, sigma_min / sigma_max) of brackets b at times ts."""
        y = _eval_steps(Q[b], y_old[b], t_old[b], h[b], ts)
        if m < n:
            # [J | v] for the one Jacobi column
            det, ratio = _det_ratios(y[:, 2 * n], y[:, n], y[:, 2 * n + 1],
                                     y[:, n + 1])
        else:
            det, ratio = _det_ratios(y[:, 2 * n], y[:, 2 * n + 1],
                                     y[:, 2 * n + 2], y[:, 2 * n + 3])
        return sign[b] * det, ratio

    live = np.arange(len(owner))
    while True:
        done = hi[live] - lo[live] <= DEGENERACY_TOL
        for b in live[done].tolist():
            out[owner[b]] = float(0.5 * (lo[b] + hi[b]))
        live = live[~done]
        if not live.size:
            return out
        # sign changes bisect on the det; even-multiplicity kernels take a
        # ternary step on the singular-value dip, two probes each
        bis, ter = live[bisect[live]], live[~bisect[live]]
        width = (hi[ter] - lo[ter]) / 3
        mid = 0.5 * (lo[bis] + hi[bis])
        m1, m2 = lo[ter] + width, hi[ter] - width
        dets, ratios = probe(np.concatenate([bis, ter, ter]),
                             np.concatenate([mid, m1, m2]))
        dm = dets[:len(bis)]
        zero = dm == 0.0
        for b, t in zip(bis[zero].tolist(), mid[zero].tolist()):
            out[owner[b]] = t
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
