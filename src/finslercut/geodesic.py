"""Geodesic integration, the exponential map, and the linearized flow.

The geodesic equation x'' + 2G(x, x') = 0 is integrated with an embedded
Runge-Kutta 5(4) scheme (Dormand-Prince, elementary step control, quartic
dense output; ``dopri.py``) with chart switching at the atlas safe margin.
Jacobi fields are obtained by integrating the linearization of the spray
flow alongside the base geodesic.  The right-hand sides read the spray only
through the metric's float oracles: ``metric.spray`` gives 2G and
``metric.spray_jvp`` gives 2G together with its directional derivatives
along the Jacobi columns (closed forms on the round sphere, dual-number
evaluation by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .atlas import TangentVec
from .dopri import DormandPrince
from .errors import (AtlasExitError, DegenerateDirectionError,
                     IntegrationError)
from .metric import V_FLOOR

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11


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
        p = np.cumprod(np.tile(x, 4))
        y = h * np.dot(self.Q[i], p)
        y += self.y_old[i]
        return y


class GeodesicPath:
    """Dense-output geodesic with chart-segment bookkeeping."""

    def __init__(self, metric, segments, state_dim):
        self.metric = metric
        self.segments = segments
        self.state_dim = state_dim
        self.t0 = segments[0].t0
        self.t1 = segments[-1].t1

    @cached_property
    def knot_speeds(self):
        """(t, F(state)) at every accepted step time."""
        return [(t, self.metric.F(self.state(t))) for t in self.knot_times()]

    @property
    def t_span(self):
        return (self.t0, self.t1)

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


def _geodesic_rhs(metric, chart):
    n = metric.atlas.dim
    if metric.x_independent:
        zero = np.zeros(n)

        def rhs(t, y):
            return np.concatenate([y[n:], zero])
        return rhs

    def rhs(t, y):
        s = metric.spray(chart, y[:n], y[n:])
        return np.concatenate([y[n:], [-c for c in s]])
    return rhs


def _linearized_rhs(metric, chart, m):
    n = metric.atlas.dim
    if metric.x_independent:
        def rhs(t, y):
            dy = np.empty_like(y)
            dy[:n] = y[n:2 * n]
            dy[n:2 * n] = 0.0
            dy[2 * n:2 * n + n * m] = y[2 * n + n * m:]
            dy[2 * n + n * m:] = 0.0
            return dy
        return rhs

    def rhs(t, y):
        J = y[2 * n:2 * n + n * m].reshape(n, m)
        Jd = y[2 * n + n * m:].reshape(n, m)
        s, ds = metric.spray_jvp(chart, y[:n], y[n:2 * n], J, Jd)
        dy = np.empty_like(y)
        dy[:n] = y[n:2 * n]
        dy[n:2 * n] = [-c for c in s]
        dy[2 * n:2 * n + n * m] = y[2 * n + n * m:]
        dy[2 * n + n * m:] = (-ds).ravel()
        return dy
    return rhs


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
    sign = 1.0 if np.linalg.det(D) > 0 else -1.0
    return np.concatenate(out), sign


def _integrate(metric, chart, y0, T, rtol, atol, m=0, max_step=None):
    atlas = metric.atlas
    n = atlas.dim
    if max_step is None:
        max_step = np.inf if atlas.n_charts == 1 else 0.2
    make_rhs = (_geodesic_rhs if m == 0
                else (lambda met, ch: _linearized_rhs(met, ch, m)))
    segments = []
    t = 0.0
    y = np.asarray(y0, dtype=float)
    sign = 1.0
    while t < T - 1e-14:
        solver = DormandPrince(make_rhs(metric, chart), t, y, T,
                               rtol, atol, max_step)
        knots, y_old, Q = [t], [], []
        while solver.status == "running":
            msg = solver.step()
            if solver.status == "failed":
                raise IntegrationError(
                    f"step-size underflow at t={solver.t:.6g}: {msg}",
                    t=solver.t, x=solver.y[:n])
            knots.append(solver.t)
            y_old.append(solver.y_old)
            Q.append(solver.dense_Q())
            x = solver.y[:n]
            if not atlas.contains(chart, x):
                raise AtlasExitError(
                    f"trajectory left the atlas at t={solver.t:.6g}",
                    t=solver.t, x=x)
            target = atlas.switch_target(chart, x)
            if target is not None:
                break
        segments.append(PathSegment(chart, knots[0], solver.t,
                                    np.array(knots), np.array(y_old),
                                    np.array(Q), sign))
        t = solver.t
        y = solver.y
        if t < T - 1e-14:
            tr = atlas.transition(chart, target)
            y, s = _transform_state(metric, tr, y, n, m)
            sign *= s
            chart = target
    return segments


def integrate_geodesic(metric, start: TangentVec, T,
                       rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                       max_step=None) -> GeodesicPath:
    if np.linalg.norm(start.v) < V_FLOOR:
        raise DegenerateDirectionError("integrate_geodesic needs v != 0")
    metric.atlas.require(start.chart, start.x)
    y0 = np.concatenate([start.x, start.v])
    segs = _integrate(metric, start.chart, y0, float(T), rtol, atol)
    return GeodesicPath(metric, segs, 2 * metric.atlas.dim)


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
        n = metric.atlas.dim
        self.n = n
        self.path = GeodesicPath(metric, segments, 2 * n + 2 * n * m)
        self.t0, self.t1 = self.path.t_span

    def _blocks(self, t):
        n, m = self.n, self.m
        chart, y, sign = self.path.raw(t)
        J = y[2 * n:2 * n + n * m].reshape(n, m)
        Jd = y[2 * n + n * m:].reshape(n, m)
        return chart, y[:n], y[n:2 * n], J, Jd, sign

    def J(self, t):
        return self._blocks(t)[3]

    def signed_J(self, t):
        """(J(t), orientation sign of the chart at t) from one path read."""
        _, _, _, J, _, sign = self._blocks(t)
        return J, sign

    def knot_times(self):
        return self.path.knot_times()


def linearized_flow(metric, start: TangentVec, T, J0, Jd0,
                    rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                    max_step=None) -> LinearizedFrame:
    """Integrate the variational equation J'' = -d(2G)[J, J'] along the
    geodesic from ``start``; columns are Jacobi fields."""
    J0 = np.atleast_2d(np.asarray(J0, dtype=float))
    Jd0 = np.atleast_2d(np.asarray(Jd0, dtype=float))
    if J0.shape[0] != metric.atlas.dim:
        J0, Jd0 = J0.T, Jd0.T
    m = J0.shape[1]
    y0 = np.concatenate([start.x, start.v, J0.ravel(), Jd0.ravel()])
    segs = _integrate(metric, start.chart, y0, float(T), rtol, atol,
                      m=m, max_step=max_step)
    return LinearizedFrame(metric, segs, m)


def first_degeneracy(frame: LinearizedFrame, signed_matrix_fn, t_floor,
                     T_max, sv_rel=1e-7, refine_tol=1e-8):
    """First t in (t_floor, T_max] where the matrix M(t) degenerates.

    ``signed_matrix_fn(t)`` returns ``(M(t), sign)``, the sign being the
    orientation of the chart transitions up to t (``frame.signed_J`` or
    ``NormalJacobiFlow.signed_matrix``), so each probe reads the frame once.
    Tracks the sign of the corrected det and a relative smallest-singular-
    value threshold, then bisection-refines.  Returns +inf when no
    degeneracy is found.
    """
    ts = [t for t in frame.knot_times() if t_floor < t <= T_max]
    grid = sorted(set(np.concatenate([
        ts, np.linspace(t_floor, min(T_max, frame.t1), 80)])))
    grid = [t for t in grid if t_floor <= t <= min(T_max, frame.t1)]

    def probe(t):
        M, sign = signed_matrix_fn(t)
        return sign * float(np.linalg.det(M)), M

    def sv_ratio(M):
        sv = np.linalg.svd(M, compute_uv=False)
        return sv[-1] / max(sv[0], 1e-300)

    prev_t = grid[0]
    prev_d, M = probe(prev_t)
    if sv_ratio(M) < sv_rel:
        return prev_t
    for t in grid[1:]:
        d, M = probe(t)
        if d == 0.0 or (d < 0) != (prev_d < 0):
            lo, hi = prev_t, t
            while hi - lo > refine_tol:
                mid = 0.5 * (lo + hi)
                dm = probe(mid)[0]
                if dm == 0.0:
                    return mid
                if (dm < 0) == (prev_d < 0):
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        if sv_ratio(M) < sv_rel:
            # even-multiplicity kernel: refine on the singular-value dip
            lo, hi = prev_t, t
            while hi - lo > refine_tol:
                m1 = lo + (hi - lo) / 3
                m2 = hi - (hi - lo) / 3
                if (sv_ratio(signed_matrix_fn(m1)[0])
                        < sv_ratio(signed_matrix_fn(m2)[0])):
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
    return first_degeneracy(frame, frame.signed_J, t_floor, T_max)
