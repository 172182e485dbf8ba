"""Closed-form distances and cut times of a point source whose normal
geodesics are straight lines in one chart (``geodesic.straight_geodesics``:
an x-independent metric on the flat plane or torus).

``distance`` is the least F over the lattice shifts of q - p.  The normal
geodesics have no focal point (J0 = 0, so det[t Jd0 | v] vanishes only at
t = 0), so by the Separating/FirstFocal dichotomy the cut time is the first
t at which a lattice copy reaches p + t v as fast as the ray does: the
least root in (0, 2H] of F(t v - kL) = t over the shifts k != 0, H the
horizon.  The roots of every (ray, shift) pair are found by one lockstep
Newton on the metric's row oracles ``F_rows`` and ``legendre_rows``.  The
solver holds no session state: its caller owns every cache and confirms
each cut time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atlas import TangentVec
from .errors import UnreachedPointError
from .geodesic import straight_geodesics
from .metric import V_FLOOR, MetricField
from .submanifold import Minimizer, NormalRay

FLOOR_DIRS = 256            # unit directions bounding F from below
ROOT_ITERS = 60             # Newton cap for a closed-form cut time
ROW_BUDGET = 2 ** 18        # lattice shifts one ray's cut time may search


def straight_point_source(metric, N, plan, source_ray):
    """The closed-form solver of a point source N whose normal geodesics
    are straight lines in one chart, else None.

    None as well, and the field shoots, when the unit-circle floor of F is
    not positive, or when the box of lattice shifts a cut time may search,
    (2R/L1 + 1)(2R/L2 + 1) with R = 4H / floor (|v| <= 1 / floor for a unit
    v), exceeds ROW_BUDGET: one batch of that many rows per ray may not fit
    in memory.
    ``source_ray`` is the fan ray that answers a query at the source.
    """
    if N.k != 0 or not straight_geodesics(metric):
        return None
    base = N.point(np.zeros(0))
    floor = _unit_circle_floor(metric, N.chart, base)
    if not floor > 0.0:
        return None
    lat = metric.atlas.periodic_lattice
    if lat is not None:
        reach = 4.0 * plan.horizon / floor
        if np.prod(2.0 * reach / lat + 1.0) > ROW_BUDGET:
            return None
    return StraightPointSource(metric, N.chart, base, floor, plan, source_ray)


def _unit_circle_floor(metric, chart, p):
    """A lower bound of F(p, u) over the Euclidean unit circle.

    F is subadditive, so F(u) >= F(u_j) - F_max |u - u_j| for the nearest
    of FLOOR_DIRS equally spaced unit vectors u_j, which lies within the
    chord 2 sin(pi / 2 FLOOR_DIRS); the same inequality bounds F_max by the
    largest sample.
    """
    angles = 2 * np.pi * np.arange(FLOOR_DIRS) / FLOOR_DIRS
    vals = metric.F_rows(chart, p, [[math.cos(a), math.sin(a)]
                                    for a in angles])
    chord = 2.0 * math.sin(math.pi / (2 * FLOOR_DIRS))
    return float(vals.min() - vals.max() * chord / (1.0 - chord))


def _least_roots(metric, chart, p, V, W, t_max):
    """First root in (0, t_max] of g(t) = F(t v + w) - t for each row (v, w)
    of the (k, 2) arrays V and W, else inf, by Newton on every row in
    lockstep.

    g is convex with g(0) = F(w) > 0, so Newton from t = 0 rises
    monotonically to its first root; g' = (g_u u) . v / F(u) - 1 at
    u = t v + w.  A row stops at its root once g <= 0 or once its step
    falls below 4 eps t, and has none once g' >= 0 while g > 0, or once an
    iterate passes t_max; a row still going after ROOT_ITERS steps keeps
    its last iterate.
    """
    t = np.zeros(len(V))
    roots = np.full(len(V), np.inf)
    live = np.arange(len(V))        # the rows still stepping
    for _ in range(ROOT_ITERS):
        if not live.size:
            return roots
        u = t[live, None] * V[live] + W[live]
        length = metric.F_rows(chart, p, u)
        g = length - t[live]
        met = g <= 0.0
        roots[live[met]] = t[live[met]]
        live, u, length, g = live[~met], u[~met], length[~met], g[~met]
        omega = metric.legendre_rows(chart, p, u)
        v = V[live]
        slope = (omega[:, 0] * v[:, 0] + omega[:, 1] * v[:, 1]) / length - 1.0
        falls = slope < 0.0
        live, g, slope = live[falls], g[falls], slope[falls]
        step = -g / slope
        t[live] += step
        within = t[live] <= t_max
        settled = within & (step <= 4.0 * np.finfo(float).eps * t[live])
        roots[live[settled]] = t[live[settled]]
        live = live[within & ~settled]
    roots[live] = t[live]
    return roots


@dataclass(frozen=True)
class StraightPointSource:
    """Distances and cut times from the point ``base`` of ``chart`` along
    straight lines; ``floor`` > 0 bounds F on Euclidean unit vectors from
    below."""
    metric: MetricField
    chart: int
    base: np.ndarray
    floor: float
    plan: object
    source_ray: NormalRay

    def lattice_shifts(self, w0, reach):
        """The images w0 + kL of Euclidean length at most ``reach`` as the
        rows of an array, in lexicographic order of k; w0 alone when there
        is no lattice."""
        lat = self.metric.atlas.periodic_lattice
        if lat is None:
            return w0[None, :]
        k = [np.arange(math.ceil((-reach - c) / L),
                       math.floor((reach - c) / L) + 1)
             for c, L in zip(w0, lat)]
        ks = np.stack(np.meshgrid(*k, indexing="ij"), axis=-1).reshape(-1, 2)
        w = w0 + ks * lat
        return w[np.sqrt(w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1]) <= reach]

    def distance(self, q):
        """d(N, q) and its arrivals, sorted by t.

        Every lattice shift w = q - p - kL whose Euclidean length allows
        F(w) <= F(w0) + window, w0 the minimum image, is evaluated; each
        shift within the window of the least F gives an arrival with
        direction w / F(w) and covector g_v(v).
        """
        plan, metric = self.plan, self.metric
        chart, p = self.chart, self.base
        window = max(1e-6, 2 * plan.bisect_tol)
        w0 = metric.atlas.displacement((chart, p), q)
        if np.linalg.norm(w0) < V_FLOOR:
            # q is the source: the zero-length segment along the source ray
            ray = self.source_ray
            term = TangentVec(chart, p + w0, ray.v)
            return 0.0, [Minimizer(ray, 0.0, term,
                                   float(np.linalg.norm(w0)))]

        shifts = self.lattice_shifts(
            w0, (metric.F(TangentVec(chart, p, w0)) + window) / self.floor)
        ts = metric.F_rows(chart, p, shifts)
        d = float(ts.min())
        if d > 2 * plan.horizon + plan.min_slack:
            # beyond the doubled-horizon probe, the longest span integrated
            raise UnreachedPointError(
                f"q={q} lies at distance {d:.6g}, beyond twice the horizon "
                f"{plan.horizon}")
        near = np.argsort(ts, kind="stable")
        near = near[ts[near] <= d + window]
        ts, shifts = ts[near], shifts[near]
        vs = shifts / ts[:, None]
        omegas = metric.legendre_rows(chart, p, vs)
        arrivals = []
        for t, w, v, omega in zip(ts.tolist(), shifts, vs, omegas):
            ray = NormalRay(np.zeros(0), omega / np.linalg.norm(omega),
                            chart, p, v)
            res = float(np.linalg.norm(
                metric.atlas.displacement((chart, p + t * v), q)))
            arrivals.append(Minimizer(ray, t, TangentVec(chart, p + w, v),
                                      res))
        return d, arrivals

    def cut_times(self, rays):
        """Separating times of ``rays``: for each ray, the least root in
        (0, 2H] of F(t v + kL) = t over the lattice shifts k != 0 (a set
        closed under k -> -k), else inf.

        At a root t, t = F(t v + kL) >= floor (|kL| - t |v|), so only the
        shifts with |kL| <= 2H (|v| + 1 / floor) can have one.  Every such
        (ray, shift) pair is one row of ``_least_roots``.
        """
        span = 2 * self.plan.horizon
        vs = np.array([ray.v for ray in rays], dtype=float).reshape(-1, 2)
        reach = span * (np.linalg.norm(vs, axis=1) + 1.0 / self.floor)
        # no rays search no shift: an empty batch gives an empty array
        shifts = self.lattice_shifts(np.zeros(2), reach.max(initial=0.0))
        size = np.sqrt(shifts[:, 0] ** 2 + shifts[:, 1] ** 2)
        ray_of, shift_of = np.nonzero((size > 0.0) & (size <= reach[:, None]))
        roots = _least_roots(self.metric, self.chart, self.base,
                             vs[ray_of], shifts[shift_of], span)
        rho = np.full(len(vs), np.inf)
        np.minimum.at(rho, ray_of, roots)
        return rho
