"""Closed-form distances and cut times of a point source whose normal
geodesics are straight lines in one chart (``geodesic.straight_geodesics``:
an x-independent metric on the flat plane or torus).

``distances`` gives, for each of many points q, the least F over the
lattice shifts of q - p and the arrivals that realize it, every query's
shifts and arrivals evaluated together as rows.  The normal
geodesics have no focal point (J0 = 0, so det[t Jd0 | v] vanishes only at
t = 0), so by the Separating/FirstFocal dichotomy the cut time is the first
t at which a lattice copy reaches p + t v as fast as the ray does: the
least root in (0, 2H] of F(t v - kL) = t over the shifts k != 0, H the
horizon.  The roots of the (ray, shift) pairs are found by a lockstep
Newton on the metric's row oracles ``F_rows`` and ``legendre_rows``, first
on each ray's nearest shell of shifts and then only on the shifts that can
still beat that shell's least root (``cut_times``).  The
solver holds no session state: its caller owns every cache and confirms
each cut time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atlas import TangentVec
from .errors import FinslerError, UnreachedPointError
from .geodesic import straight_geodesics
from .metric import V_FLOOR, MetricField, _row_norms
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


def _minimum_images(D, lat):
    """The rows of D wrapped to their minimum images under the lattice
    ``lat`` (None: none), as ``ManifoldAtlas.displacement`` wraps one."""
    return D if lat is None else D - lat * np.round(D / lat)


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
        is no lattice.  Row by row, ``W0`` and ``reach`` may also hold
        several (w0, reach): the rows of each are then stacked in turn, and
        the second result gives the row count of each."""
        W0 = np.atleast_2d(w0)
        reach = np.atleast_1d(np.asarray(reach, dtype=float))
        lat = self.metric.atlas.periodic_lattice
        if lat is None:
            W = W0.copy()
            counts = np.ones(len(W0), dtype=int)
        else:
            # each w0's box of k, as the per-axis bounds of one shared table
            lo = np.ceil((-reach[:, None] - W0) / lat)
            hi = np.floor((reach[:, None] - W0) / lat)
            k = [np.arange(a, b + 1) for a, b in zip(lo.min(axis=0),
                                                     hi.max(axis=0))]
            ks = np.stack(np.meshgrid(*k, indexing="ij"),
                          axis=-1).reshape(-1, 2)
            W = W0[:, None, :] + ks * lat
            x, y = W[:, :, 0], W[:, :, 1]
            keep = (np.all((ks >= lo[:, None, :]) & (ks <= hi[:, None, :]),
                           axis=2)
                    & (np.sqrt(x * x + y * y) <= reach[:, None]))
            W, counts = W[keep], keep.sum(axis=1)
        return (W, counts) if np.ndim(w0) == 2 else W

    def distances(self, qs):
        """d(N, q) and its arrivals, sorted by t, for each of the points
        ``qs``: entry j is (d, arrivals) or the FinslerError that the lone
        query raises.

        Every lattice shift w = q - p - kL whose Euclidean length allows
        F(w) <= F(w0) + window, w0 the minimum image, is evaluated; each
        shift within the window of the least F gives an arrival with
        direction w / F(w) and covector g_v(v).  Every step works on rows,
        each with the bits of its lone query: the minimum images of all
        queries, one ``lattice_shifts`` table of their shifts, one
        ``F_rows`` call for the lengths, one ``legendre_rows`` call for the
        covectors, and each arrival's end point and residual.
        """
        plan, metric = self.plan, self.metric
        chart, p = self.chart, self.base
        lat = metric.atlas.periodic_lattice
        window = max(1e-6, 2 * plan.bisect_tol)
        out = [None] * len(qs)
        own = []
        for j, q in enumerate(qs):
            if q[0] == chart:
                own.append(j)
                continue
            # the atlas has this one chart (straight_geodesics), so the
            # displacement to a point of another refuses it
            try:
                metric.atlas.displacement((chart, p), q)
            except FinslerError as exc:
                out[j] = exc
        if not own:
            return out
        X = np.array([qs[j][1] for j in own], dtype=float)
        W0 = _minimum_images(X - p, lat)
        size = _row_norms(W0)
        # a query at the source: the zero-length segment along the source ray
        source, ray = size < V_FLOOR, self.source_ray
        for j, w0, r in zip(np.compress(source, own).tolist(), W0[source],
                            size[source].tolist()):
            out[j] = 0.0, [Minimizer(ray, 0.0, TangentVec(chart, p + w0,
                                                          ray.v), r)]
        if source.all():
            return out
        live = np.flatnonzero(~source)
        reach = (metric.F_rows(chart, p, W0[live]) + window) / self.floor
        shifts, counts = self.lattice_shifts(W0[live], reach)
        ts = metric.F_rows(chart, p, shifts)
        d = np.minimum.reduceat(ts, np.cumsum(counts) - counts)
        # beyond the doubled-horizon probe, the longest span integrated
        far = d > 2 * plan.horizon + plan.min_slack
        for i in np.flatnonzero(far).tolist():
            j = own[live[i]]
            out[j] = UnreachedPointError(
                f"q={qs[j]} lies at distance {float(d[i]):.6g}, beyond "
                f"twice the horizon {plan.horizon}")
        if far.all():
            return out
        # each query's near shifts in t order, ties in table order
        query = np.repeat(np.arange(len(live)), counts)
        rows = np.flatnonzero((ts <= np.repeat(d + window, counts))
                              & ~far[query])
        rows = rows[np.lexsort((ts[rows], query[rows]))]
        ts, shifts, query = ts[rows], shifts[rows], query[rows]
        vs = shifts / ts[:, None]
        omegas = metric.legendre_rows(chart, p, vs)
        psis = omegas / _row_norms(omegas)[:, None]
        res = _row_norms(_minimum_images(X[live[query]]
                                         - (p + ts[:, None] * vs), lat))
        arrivals = [Minimizer(NormalRay(np.zeros(0), psi, chart, p, v), t,
                              TangentVec(chart, term, v), r)
                    for t, v, psi, term, r in zip(ts.tolist(), vs, psis,
                                                  p + shifts, res.tolist())]
        near = np.bincount(query, minlength=len(live)).tolist()
        at = 0
        for i in np.flatnonzero(~far).tolist():
            out[own[live[i]]] = float(d[i]), arrivals[at:at + near[i]]
            at += near[i]
        return out

    def cut_times(self, rays):
        """Separating times of ``rays``: for each ray, the least root in
        (0, 2H] of F(t v + kL) = t over the lattice shifts k != 0 (a set
        closed under k -> -k), else inf.

        At a root t, t = F(t v + kL) >= floor (|kL| - t |v|), so only the
        shifts with |kL| <= t (|v| + 1 / floor) can have one, and none
        beyond 2H (|v| + 1 / floor).  Each ray's shifts of the nearest shell
        (every |k_i| <= 1) are solved first, every (ray, shift) pair one row
        of ``_least_roots``; their least root rho_1 then bounds the rest,
        and only the shifts with |kL| <= rho_1 (|v| + 1 / floor), widened
        by a relative 1e-9 for rounding, are solved in a second batch.  A
        dropped shift's root exceeds rho_1, and each row keeps its bits
        whatever rows share its batch, so each rho is the least root over
        every shift within 2H (|v| + 1 / floor), to the bit.
        """
        span = 2 * self.plan.horizon
        vs = np.array([ray.v for ray in rays], dtype=float).reshape(-1, 2)
        lat = self.metric.atlas.periodic_lattice
        if lat is None:
            # no lattice copy of the source
            return np.full(len(vs), np.inf)
        slope = np.linalg.norm(vs, axis=1) + 1.0 / self.floor
        reach = span * slope
        # no rays search no shift: an empty batch gives an empty array
        shifts = self.lattice_shifts(np.zeros(2), reach.max(initial=0.0))
        size = np.sqrt(shifts[:, 0] ** 2 + shifts[:, 1] ** 2)
        within = (size > 0.0) & (size <= reach[:, None])
        shell = np.abs(np.rint(shifts / lat)).max(axis=1) <= 1.0
        rho = self._least_per_ray(vs, shifts, within & shell, span)
        bound = rho * slope * (1.0 + 1e-9)
        rest = self._least_per_ray(
            vs, shifts, within & ~shell & (size <= bound[:, None]), span)
        return np.minimum(rho, rest)

    def _least_per_ray(self, vs, shifts, pairs, span):
        """The least root in (0, span] of each ray's (ray, shift) pairs,
        the True entries of the (rays, shifts) mask ``pairs``, else inf."""
        ray_of, shift_of = np.nonzero(pairs)
        roots = _least_roots(self.metric, self.chart, self.base,
                             vs[ray_of], shifts[shift_of], span)
        rho = np.full(len(vs), np.inf)
        np.minimum.at(rho, ray_of, roots)
        return rho
