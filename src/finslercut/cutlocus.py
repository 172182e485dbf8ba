"""Distances from a submanifold by multistart normal shooting, focal and cut
times, the cut locus, and the numerical checks of the structural theorems.

A ``NormalShooting`` field is the one owner of shooting state for a
submanifold under a plan.  Its fan of grid rays is fixed at construction,
and one dense geodesic per fan ray is reused across distance queries:
closest-approach search over the fan picks candidates, and each is
polished to an exact arrival.  ``distances`` answers many queries in one
batch, and ``distance`` is its one-query case.  The approach and the
candidates are found query by query; then a time-only Newton stage runs on
every (query, candidate) pair of the batch in lockstep: it moves along the
candidate's cached fan path alone, and where that path passes through the
query (at a point source's antipode on the round sphere every fan path
does) the fan ray is the arrival, with no new geodesic.  Every other
candidate gets Gauss-Newton on (cone parameter, time) from the approach's
starting point.  Its first iteration reads the session's path
cache: the fan ray's own path and the cached paths of its memoized
finite-difference neighbours.  Under an x-independent metric on a one-chart
atlas (the flat plane or torus) every path is one exact straight segment
from the geodesic layer (``geodesic.straight_geodesics``).

A point source there is answered in closed form by the solver of
``straight.py``, which ``__init__`` picks once (``straight``); each of its
cut times is confirmed by one full ``distance`` query at the cut point.
Every other field steps Jacobi flows for its focal times and bisects the
minimality predicate for its cut times, with the first focal time as an
upper bracket; a ray that still minimizes at the horizon H is bisected
again in (H, 2H].  The check at the top of each bracket takes the full
candidate set, since a ray that passes it is returned with no bisection
and no later cross-check.

Every cache of a field follows one rule: a value is keyed by exactly what
determines it, and it is never replaced or invalidated.  Paths and Jacobi
flows are keyed by the ray's exact cone coordinates and the whole number of
horizons that covers the span asked for, and are integrated to exactly that
many horizons; focal times by the ray and the span searched; cut times by
the ray; the witnesses of full distance queries are keyed by the exact
query point (a quick query or a failed one is not stored); the fan is
sampled once, from its one-horizon paths, and stacked once.  Where
geodesics are stepped (``stepped``) a path is its Jacobi flow's base, so
each is stepped once and ``_paths`` holds only flat fields' exact lines.
Rays off the grid, such as ``ray_at(mu, template)``, share the path, flow
and cut-time caches but never join the fan, so no answer depends on which
queries came before.

Every finite cut time ends with a full ``distance`` query at exactly the
cut point, so ``record`` classifies each cut point from that witness.

``file_fan`` is the one batch step; ``cut_time`` of an unfiled ray is its
one-ray case.  On a closed-form field it finds the cut times of the rays
asked for at once, answers their confirming queries in one ``distances``
batch, and files each one its query accepts.  On a shooting field it steps
one Jacobi flow batch (``submanifold.normal_jacobi_flows``): the
one-horizon flows of the rays whose focal times are still to find and, on
a stepped field, the fan's, when ``cut_locus`` starts or the fan is first
stacked.  It then refines those rays' focal times in one lockstep
(``geodesic.first_degeneracies``) and answers the full query at the top of
each one's first bracket in one ``distances`` batch, so the bisection of
each ray reads its first focal time and its first query from the caches.
A flat field's exact lines are built one by one on request.  Each row
equals its lone integration to the last bit (see ``dopri.py`` for the BLAS
and pow conditions this rests on), so a batch result is filed under the
key ``flow(ray)`` would give it and the cache rule holds.  A row that
fails, or every row of a batch that raises, is not filed: a later request
integrates that ray alone and raises as it always did.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import FinslerError, NumericalFailure, UnreachedPointError
from .atlas import TangentVec
from .geodesic import (DEFAULT_ATOL, DEFAULT_RTOL, first_degeneracies,
                       first_degeneracy, integrate_geodesic, path_states,
                       straight_geodesics)
from .metric import _row_dots, _row_norms
from .straight import straight_point_source
from .submanifold import (Minimizer, NormalRay, normal_jacobi_flow,
                          normal_jacobi_flows, sample_unit_cone, unit_normal)

SEPARATING = "Separating"
FIRST_FOCAL = "FirstFocal"

FOCAL_FLOOR = 0.02          # focal times are searched in (FOCAL_FLOOR, T]
NEWTON_TOL = 1e-9           # Gauss-Newton arrival stop, floored at 10 rtol
DISTINCT_ANGLE = 1e-3       # g-angle that tells two minimizers at one base apart
MAX_CANDIDATES = 8          # fan rays polished per full distance query
QUICK_CANDIDATES = 4        # ... per quick (bisection) distance query
SAMPLE_DT_FRAC = 1.0 / 128.0    # fan sample spacing, as a horizon fraction
POLISH_STEPS = 4            # time-only Newton steps before Gauss-Newton
NEWTON_ITERS = 25           # Gauss-Newton iteration cap per arrival
BLOWUP_FACTOR = 10.0        # quotient growth that rho_continuity flags


@dataclass(frozen=True)
class ShootingPlan:
    theta_count: int = 128
    psi_count: int = 64
    horizon: float = 3.0
    ode_rtol: float = DEFAULT_RTOL
    ode_atol: float = DEFAULT_ATOL
    bisect_tol: float = 1e-6
    min_slack: float = 1e-6


@dataclass
class DistanceWitness:
    """d(N, q) and the arrivals that realize it.

    ``arrivals`` are the arrivals within the window of d, sorted by t.  Its
    distinct ones, the minimizers, are sorted out only as far as a reader
    needs (``leading(n)``, or ``minimizers`` for all): each arrival in turn,
    once per witness, is kept when ``distinct`` tells it apart from every
    one kept before it.  A caller that reads only ``d`` pays no pairwise
    test.
    """
    q: tuple
    d: float
    arrivals: list
    distinct: Callable = dc_field(repr=False, compare=False)
    _kept: list = dc_field(default_factory=list, init=False, repr=False,
                           compare=False)
    _tested: int = dc_field(default=0, init=False, repr=False, compare=False)

    def leading(self, n):
        """The first n minimizers (all of them when there are fewer)."""
        kept = self._kept
        while len(kept) < n and self._tested < len(self.arrivals):
            a = self.arrivals[self._tested]
            self._tested += 1
            if all(self.distinct(a, b) for b in kept):
                kept.append(a)
        return kept[:n]

    @property
    def minimizers(self):
        self.leading(len(self.arrivals))
        return self._kept


@dataclass
class CutTimeResult:
    rho: float
    lam: float
    unbounded: bool = False
    bisection_iters: int = 0


@dataclass
class CutRecord:
    ray: NormalRay
    rho: float
    lam: float
    cut_point: tuple = None
    classification: set = dc_field(default_factory=set)
    competitor: tuple = None
    unbounded: bool = False
    diagnostics: dict = dc_field(default_factory=dict)


def _close(u, w):
    """``np.allclose(u, w, atol=1e-6)`` on finite vectors, entry by entry:
    |a - b| <= 1e-6 + 1e-5 |b|."""
    return all(abs(a - b) <= 1e-6 + 1e-5 * abs(b)
               for a, b in zip(u.tolist(), w.tolist()))


def _ray_key(ray: NormalRay):
    """Exact cone coordinates of a ray, the key of every per-ray cache."""
    return (tuple(ray.theta), tuple(ray.psi))


def _side(ray: NormalRay):
    """The side a ray leaves N on: 0 at a point, sign(psi) on a curve."""
    return float(np.sign(ray.psi[0])) if ray.theta.size else 0.0


def _by_side(rays):
    """Indices of ``rays`` on each side of N (``_side``), sides in order."""
    sides = {}
    for i, ray in enumerate(rays):
        sides.setdefault(_side(ray), []).append(i)
    return [sides[side] for side in sorted(sides)]


class NormalShooting:
    """Shooting session from a submanifold under one sampling plan."""

    def __init__(self, metric, N, plan: ShootingPlan = None):
        plan = plan or ShootingPlan()
        self.metric = metric
        self.N = N
        self.plan = plan
        self.atlas = metric.atlas
        rays, self.sample_failures = sample_unit_cone(
            metric, N, (plan.theta_count, plan.psi_count))
        if not rays:
            raise NumericalFailure("unit cone sampling produced no rays")
        self.rays = tuple(rays)
        # each fan ray's direction and base point as one row, and its chart,
        # stacked once for lookups by ray (topology._fan_twin)
        self.fan_rows = np.array([np.concatenate([ray.v, ray.x])
                                  for ray in self.rays])
        self.fan_charts = np.array([ray.chart for ray in self.rays])
        # (_ray_key, whole-horizon span) -> path or flow, see _span_key
        self._paths = {}
        self._flows = {}
        self._cut_times = {}        # _ray_key -> CutTimeResult
        self._focal = {}            # (_ray_key, span) -> first focal time
        self._witnesses = {}        # exact point -> DistanceWitness (full)
        self._stack = None          # fan samples per chart, stacked once
        # fan index -> the finite-difference neighbour of a Gauss-Newton
        # seed, see _seed_ray
        self._seed_rays = {}
        self._build_branches()
        # the closed-form solver of distances and cut times, else None and
        # the field shoots; no other method tests for straightness
        self.straight = straight_point_source(metric, N, plan, self.rays[0])
        self.stepped = not straight_geodesics(metric)   # see path

    # -- ray bookkeeping -------------------------------------------------

    def _build_branches(self):
        """Fan indices in cone order, one branch per side (``_side``): one
        psi cycle for a point, one theta run per side for a curve."""
        param = [self.ray_param(ray)[0] for ray in self.rays]
        cyclic = not self.N.k or bool(self.N.periodic[0])
        self.branches = [(np.array(sorted(i, key=param.__getitem__)), cyclic)
                         for i in _by_side(self.rays)]

    def ray_param(self, ray: NormalRay):
        """The cone parameter driving Gauss-Newton: theta on a curve, the
        psi angle at a point."""
        if self.N.k:
            return np.array(ray.theta)
        return np.array([math.atan2(ray.psi[1], ray.psi[0])])

    def ray_at(self, mu, template: NormalRay) -> NormalRay:
        if self.N.k:
            theta = self.N.wrap_theta(mu)
            if not self.N.periodic[0]:
                theta = np.clip(theta, self.N.theta_box[0], self.N.theta_box[1])
            psi = template.psi
        else:
            theta = np.zeros(0)
            psi = np.array([math.cos(mu[0]), math.sin(mu[0])])
        return unit_normal(self.metric, self.N, theta, psi)

    def _seed_ray(self, i, mu):
        """ray_at(mu) where mu is fan ray i's cone parameter moved by the
        finite-difference step; every Gauss-Newton run seeded at ray i takes
        its first Jacobian from this same ray and its cached path.  Failures
        are not memoized."""
        got = self._seed_rays.get(i)
        if got is None:
            got = self._seed_rays[i] = self.ray_at(mu, self.rays[i])
        return got

    # -- cached geodesics ------------------------------------------------

    def _span_key(self, ray, span):
        """Cache key of a path or flow covering ``span`` (default: one
        horizon): the ray and the whole number of horizons that covers the
        span, to 1e-12; the cached value is integrated to exactly that."""
        H = self.plan.horizon
        whole = H * max(1, math.ceil(((span or H) - 1e-12) / H))
        return _ray_key(ray), whole

    def path(self, ray: NormalRay, span=None):
        """The ray's geodesic; on a stepped field, its Jacobi flow's base."""
        if self.stepped:
            return self.flow(ray, span).path
        key = self._span_key(ray, span)
        got = self._paths.get(key)
        if got is None:
            got = self._paths[key] = integrate_geodesic(
                self.metric, ray.tangent(), key[1],
                rtol=self.plan.ode_rtol, atol=self.plan.ode_atol)
        return got

    def samples(self, i):
        """Fan ray i's one-horizon path, sampled per segment as
        (chart, ts, xs) blocks, xs of shape (2, len(ts))."""
        path = self.path(self.rays[i])
        dt = self.plan.horizon * SAMPLE_DT_FRAC
        blocks = []
        for seg in path.segments:
            m = max(2, int(math.ceil((seg.t1 - seg.t0) / dt)) + 1)
            ts = np.linspace(seg.t0, seg.t1, m)
            xs = seg.eval_many(ts)[:, :2].T.copy()
            blocks.append((seg.chart, ts, xs))
        return blocks

    # -- closest approach ------------------------------------------------

    def _block_distances(self, q, chart, xs):
        """Coordinate distances from q to the (2, m) samples ``xs`` of one
        chart, each coordinate wrapped by its lattice period; inf where q
        has no coordinates in that chart."""
        qchart, qx = q
        if chart == qchart:
            target = np.asarray(qx, dtype=float)
        else:
            try:
                with np.errstate(all="ignore"):
                    target = self.atlas.convert(q, chart)
            except (ZeroDivisionError, FloatingPointError):
                return np.full(xs.shape[1], np.inf)
            if not np.all(np.isfinite(target)):
                return np.full(xs.shape[1], np.inf)
        dx = xs[0] - target[0]
        dy = xs[1] - target[1]
        lat = self.atlas.periodic_lattice
        if lat is not None:
            dx = dx - lat[0] * np.round(dx / lat[0])
            dy = dy - lat[1] * np.round(dy / lat[1])
        return np.sqrt(dx * dx + dy * dy)

    def _stacked(self):
        """Fan samples of every ray stacked per chart for vectorized search,
        the positions as one (2, m) array per chart."""
        if self._stack is not None:
            return self._stack
        self.file_fan()
        per_chart = {}
        for i in range(len(self.rays)):
            for chart, ts, xs in self.samples(i):
                per_chart.setdefault(chart, []).append((i, ts, xs))
        stacked = {}
        for chart, blocks in per_chart.items():
            xs = np.concatenate([b[2] for b in blocks], axis=1)
            ts = np.concatenate([b[1] for b in blocks])
            rid = np.concatenate([np.full(len(b[1]), b[0]) for b in blocks])
            # block boundary flags stop dip detection from crossing rays
            starts = np.zeros(len(ts), dtype=bool)
            ends = np.zeros(len(ts), dtype=bool)
            pos = 0
            for b in blocks:
                starts[pos] = True
                pos += len(b[1])
                ends[pos - 1] = True
            stacked[chart] = (xs, ts, rid, starts, ends)
        self._stack = stacked
        return stacked

    def approach(self, q):
        """Per-ray (t_closest, coord_distance) against the cached fan.

        A wrapping geodesic can pass q several times; among dips of the
        distance profile within sampling resolution of the deepest one,
        the earliest is kept, so later re-arrivals cannot shadow it.
        """
        # dips of every chart block, in scan order (chart, then sample)
        rids, tds = [], []
        for chart, (xs, ts, rid, starts, ends) in self._stacked().items():
            dd = self._block_distances(q, chart, xs)
            if not np.any(np.isfinite(dd)):
                continue
            left = np.empty_like(dd)
            left[1:] = dd[:-1]
            left[starts] = np.inf
            right = np.empty_like(dd)
            right[:-1] = dd[1:]
            right[ends] = np.inf
            j = np.flatnonzero((dd <= left) & (dd <= right))
            a, b, c = left[j], dd[j], right[j]
            t = ts[j]
            # parabolic dip refinement recovers near-zero misses hidden by
            # the sample spacing; a dip with both neighbours finite is never
            # a block end, so ts[j + 1] is its right neighbour
            with np.errstate(invalid="ignore", divide="ignore",
                             over="ignore"):
                den = a - 2 * b + c
                ok = np.isfinite(a) & np.isfinite(c) & (den > 1e-300)
                s = np.clip(0.5 * (a - c) / den, -1.0, 1.0)
                t_next = ts[np.minimum(j + 1, len(ts) - 1)]
                t_fit = t + s * (t_next - t)
                d_fit = b - 0.25 * (a - c) * s
            d_fit = np.where(d_fit > 0.0, d_fit, 0.0)
            rids.append(rid[j])
            tds.append(np.stack([np.where(ok, t_fit, t),
                                 np.where(ok, d_fit, b)]))
        out = np.tile([0.0, np.inf], (len(self.rays), 1))
        if not rids:
            return out
        rid = np.concatenate(rids)
        t, d = np.concatenate(tds, axis=1)

        def first_per_ray(sel):
            """Index of the first dip of each ray in a sorted selection."""
            head = np.ones(len(sel), dtype=bool)
            head[1:] = rid[sel[1:]] != rid[sel[:-1]]
            return sel[head]

        # depth of the deepest dip per ray
        deep_d = np.full(len(self.rays), np.inf)
        np.minimum.at(deep_d, rid, d)
        # among dips within sampling resolution of the deepest one, the
        # earliest (then shallowest) is kept, so later re-arrivals cannot
        # shadow it
        dt = self.plan.horizon * SAMPLE_DT_FRAC
        near = np.flatnonzero(d <= deep_d[rid] + 4.0 * dt)
        early = first_per_ray(near[np.lexsort((d[near], t[near], rid[near]))])
        out[rid[early], 0] = t[early]
        out[rid[early], 1] = d[early]
        return out

    def _candidates(self, q, limit):
        app = self.approach(q)
        # rank by miss distance plus a mild time penalty: late re-arrivals
        # from farther lattice copies must not crowd out an early competitor
        # whose only miss is the angular grid gap
        score = app[:, 1] + 0.05 * app[:, 0]
        picks = []
        # local minima of the score along each branch, in branch order
        for idx, cyclic in self.branches:
            if len(idx) == 1:
                picks.append(idx)
                continue
            s = score[idx]
            sl, sr = np.roll(s, 1), np.roll(s, -1)
            if not cyclic:
                sl[0] = sr[-1] = np.inf
            tie = 1e-7 * (1.0 + s)
            picks.append(idx[(s < sl + tie) & (s <= sr + tie)])
        picks = np.concatenate(picks)
        best = int(np.argmin(score))
        if best not in picks:
            picks = np.append(picks, best)
        picks = picks[np.argsort(score[picks], kind="stable")]
        return [(int(i), app[i, 0]) for i in picks[:limit]], score

    # -- arrivals --------------------------------------------------------

    def refine_arrival(self, q, i, t0):
        """Solve exp^nu(t, ray(mu)) = q from the grid ray i at time t0: the
        one-pair case of ``_arrivals``, raising the error its entry holds."""
        (got,) = self._arrivals([(q, i, t0)])
        if isinstance(got, Exception):
            raise got
        return got

    def _arrivals(self, pairs):
        """The arrival of each (q, i, t0) pair, a Minimizer, or None.

        A time-only Newton stage comes first, on every pair in lockstep: it
        moves t along fan ray i's cached path alone, and returns the fan ray
        itself once the residual is within tolerance.  Where the fan ray
        passes through q (at a point source's antipode on the round sphere
        every ray does) the arrival then needs no new geodesic and no seed
        neighbour.  Each pair it leaves unsettled goes to ``_gauss_newton``
        from the approach's (mu, t0), not from the polished t.

        The time stage steps t -= <vel, r> / <vel, vel>, with vel in q's
        chart and the step clipped to half a horizon, while |r| halves, at
        most POLISH_STEPS times and never past the cached path; the least
        residual reached settles the pair if it is within the stop
        tolerance.  States are read by ``geodesic.path_states`` and the dot
        products are ``np.matmul`` on (k, 1, 2) @ (k, 2, 1), so each pair
        has the bits it has alone.  A pair whose seed residual or time
        stage raises a FinslerError or LinAlgError has no arrival; a
        FinslerError that Gauss-Newton lets through is held in its pair's
        place.
        """
        plan = self.plan
        dt_cap = 0.5 * plan.horizon
        out = [None] * len(pairs)
        live, paths, starts = [], [], []
        for k, (_, i, t0) in enumerate(pairs):
            t = max(float(t0), 1e-9)
            try:
                paths.append(self._arrival_path(self.rays[i], t, cached=True))
            except (FinslerError, np.linalg.LinAlgError):
                continue
            live.append(k)
            starts.append(t)
        if not live:
            return out
        qs = [pairs[k][0] for k in live]
        t = np.array(starts)
        t1 = np.array([path.t1 for path in paths])
        charts, X, V = path_states(paths, t)
        R, failed = self._residuals(charts, X, qs)
        seed = (list(charts), X.copy(), V.copy(), R.copy())
        rn = _row_norms(R)
        act = np.flatnonzero(~failed)
        for _ in range(POLISH_STEPS):
            if not act.size:
                break
            vel, bad = self._velocities(charts, X, V, qs, act)
            failed[act[bad]] = True
            act, vel = act[~bad], vel[~bad]
            r = R[act]
            num = _row_dots(vel, r)
            den = _row_dots(vel, vel)
            t_new = np.maximum(t[act] + np.clip(-num / den, -dt_cap, dt_cap),
                               1e-9)
            # negated tests, so that NaN steps on as the scalar stage's did
            within = ~(t_new > t1[act])
            act, t_new = act[within], t_new[within]
            c_new, x_new, v_new = path_states([paths[j] for j in act], t_new)
            r_new, bad = self._residuals(c_new, x_new, [qs[j] for j in act])
            failed[act[bad]] = True
            rn_new = _row_norms(r_new)
            better = ~bad & ~(rn_new >= rn[act])
            halved = rn_new <= 0.5 * rn[act]
            go = act[better]
            t[go], rn[go] = t_new[better], rn_new[better]
            X[go], V[go], R[go] = x_new[better], v_new[better], r_new[better]
            for j, c, keep in zip(act.tolist(), c_new, better.tolist()):
                if keep:
                    charts[j] = c
            act = act[better & halved]
        tols = np.array([max(NEWTON_TOL, 10.0 * plan.ode_rtol)
                         * (1.0 + abs(pairs[k][2])) for k in live])
        settled = ~failed & (rn <= tols)
        for j, k in enumerate(live):
            q, i, t0 = pairs[k]
            if settled[j]:
                state = TangentVec(charts[j], X[j].copy(), V[j].copy())
                out[k] = Minimizer(self.rays[i], float(t[j]), state,
                                   float(rn[j]))
            elif not failed[j]:
                c, x, v, r = (part[j] for part in seed)
                try:
                    out[k] = self._gauss_newton(
                        q, i, t0, starts[j], r.copy(),
                        TangentVec(c, x.copy(), v.copy()))
                except FinslerError as exc:
                    out[k] = exc
        return out

    def _residuals(self, charts, X, qs):
        """(R, bad): the rows -displacement((charts[j], X[j]), qs[j]), each
        with the bits of its lone ``atlas.displacement``, and a mask of the
        rows whose displacement raises a FinslerError or LinAlgError."""
        R = np.zeros_like(X)
        bad = np.zeros(len(qs), dtype=bool)
        same = [j for j, (c, q) in enumerate(zip(charts, qs)) if c == q[0]]
        if same:
            d = (np.array([np.asarray(qs[j][1], dtype=float) for j in same])
                 - X[same])
            lat = self.atlas.periodic_lattice
            if lat is not None:
                d = d - lat * np.round(d / lat)
            R[same] = -d
        for j, (c, q) in enumerate(zip(charts, qs)):
            if c != q[0]:
                try:
                    R[j] = -self.atlas.displacement((c, X[j]), q)
                except (FinslerError, np.linalg.LinAlgError):
                    bad[j] = True
        return R, bad

    def _velocities(self, charts, X, V, qs, rows):
        """(vel, bad) over ``rows``: each velocity V[j] in the chart of qs[j]
        (``atlas.velocity_in``, row by row where the charts differ), and a
        mask of the rows where that raises a FinslerError or LinAlgError."""
        vel = V[rows]
        bad = np.zeros(len(rows), dtype=bool)
        for a, j in enumerate(rows.tolist()):
            if charts[j] != qs[j][0]:
                try:
                    vel[a] = self.atlas.velocity_in(
                        TangentVec(charts[j], X[j], V[j]), qs[j][0])
                except (FinslerError, np.linalg.LinAlgError):
                    bad[a] = True
        return vel, bad

    def _gauss_newton(self, q, i, t0, t, r, state):
        """Gauss-Newton on (cone parameter, time) for q from the grid ray i,
        starting at time t with the seed residual r and state of fan ray i
        on its cached path (``_arrivals``).

        Its first iteration reads paths the session owns: the seed residual
        is fan ray i on its cached path, and each finite-difference
        neighbour is a memoized ray on its cached path, both from ``path``.
        Later iterations integrate fresh arrivals, at the same ODE
        tolerances.

        Convergence bottoms out at the integration noise floor, so the stop
        tolerance tracks it; a stalled iteration (rank-deficient Jacobian
        at a conjugate arrival) accepts the best residual if it is within a
        modest factor of that floor.
        """
        plan = self.plan
        template = self.rays[i]
        mu = self.ray_param(template).astype(float)
        h = 1e-6
        tol = max(NEWTON_TOL, 10.0 * plan.ode_rtol) * (1.0 + abs(t0))
        dt_cap = 0.5 * plan.horizon

        def residual(mu_, t_, k=None):
            # k, first iteration only: the memoized neighbour (k = 1), see
            # _seed_ray
            if k is None:
                ray = self.ray_at(mu_, template)
            else:
                ray = self._seed_ray(i, mu_)
            state = self._arrival_path(ray, t_, cached=k is not None).state(t_)
            r = -self.atlas.displacement((state.chart, state.x), q)
            return r, ray, state

        ray = template
        best = (np.linalg.norm(r), ray, float(t), state)
        stalls = 0
        for it in range(NEWTON_ITERS):
            rn = np.linalg.norm(r)
            if rn <= tol:
                return Minimizer(ray, float(t), state, float(rn))
            if rn < best[0]:
                if rn > 0.5 * best[0]:
                    stalls += 1
                else:
                    stalls = 0
                best = (rn, ray, float(t), state)
            else:
                stalls += 1
            if stalls >= 3:
                break
            # time column: velocity expressed in q's chart
            vel = self.atlas.velocity_in(state, q[0])
            try:
                r2, _, _ = residual(mu + h, t, 1 if it == 0 else None)
            except (FinslerError, np.linalg.LinAlgError):
                return None
            J = np.column_stack([vel, (r2 - r) / h])  # d r / d(t, mu)
            # the minimum-norm least-squares step, not Cramer's rule: where
            # ray_at clips theta at the end of an open curve, the mu column
            # is zero and only this step still converges (randers-plane-axis)
            try:
                step = np.linalg.lstsq(J, -r, rcond=None)[0]
            except np.linalg.LinAlgError:
                return None
            step[0] = np.clip(step[0], -dt_cap, dt_cap)
            t = t + step[0]
            mu = mu + step[1:]
            if t < 1e-9:
                t = 1e-9
            try:
                r, ray, state = residual(mu, t)
            except (FinslerError, np.linalg.LinAlgError):
                return None
        if best[0] <= 30.0 * tol:
            rn, ray, t, state = best
            return Minimizer(ray, float(t), state, float(rn))
        return None

    def _arrival_path(self, ray, t, cached=False):
        """Path of ``ray`` past time t: the session's cached path
        (``cached``) or a fresh integration."""
        span = max(t * 1.05, 1e-6)
        if cached:
            return self.path(ray, span)
        return integrate_geodesic(self.metric, ray.tangent(), span,
                                  rtol=self.plan.ode_rtol,
                                  atol=self.plan.ode_atol)

    # -- distances -------------------------------------------------------

    def distinct(self, m1: Minimizer, m2: Minimizer):
        base_gap = self.atlas.coord_distance((m1.ray.chart, m1.ray.x),
                                             (m2.ray.chart, m2.ray.x))
        if base_gap > 1e-5:
            return True
        g = self.metric.fundamental(m1.ray.tangent())
        v1, v2 = m1.ray.v, m2.ray.v
        c = (v1 @ g @ v2) / math.sqrt((v1 @ g @ v1) * (v2 @ g @ v2))
        return math.acos(min(1.0, max(-1.0, c))) > DISTINCT_ANGLE

    def distances(self, qs, full=True) -> list:
        """d(N, q) and its arrivals for each of the points ``qs``, in one
        batch: entry j is the witness of ``qs[j]``, whose distinct
        minimizers are sorted out as they are read (``DistanceWitness``), or
        the FinslerError that the lone query raises.  ``full`` widens the
        shooting candidate set; the closed form is exact either way.  A full
        query's witness is memoized under the exact point q, and a batch
        computes each such point once; a quick query is answered afresh,
        and a failure is not stored, so it raises again next time."""
        keys = [(q[0], np.asarray(q[1], dtype=float).tobytes()) for q in qs]
        out = [self._witnesses.get(key) if full else None for key in keys]
        todo = {}
        for j, got in enumerate(out):
            if got is None:
                todo.setdefault(keys[j] if full else j, j)
        if not todo:
            return out
        new = [qs[j] for j in todo.values()]
        if self.straight is not None:
            got = [g if isinstance(g, Exception)
                   else DistanceWitness(q, *g, self.distinct)
                   for q, g in zip(new, self.straight.distances(new))]
        else:
            got = self._shoot_distances(new, full)
        computed = dict(zip(todo, got))
        for j, key in enumerate(keys):
            if out[j] is None:
                out[j] = computed[key if full else j]
        if full:
            for key, g in computed.items():
                if not isinstance(g, Exception):
                    self._witnesses[key] = g
        return out

    def distance(self, q, full=True) -> DistanceWitness:
        """d(N, q) and its arrivals: the one-query case of ``distances``,
        raising the error that its entry holds."""
        (got,) = self.distances([q], full)
        if isinstance(got, Exception):
            raise got
        return got

    def _shoot_distances(self, qs, full=True) -> list:
        """Distances by fan closest approach and arrival refinement: the
        candidates of each query in turn (``_candidates``), then every
        (query, candidate) pair in one ``_arrivals`` batch.  Entry j is the
        witness of qs[j] or the FinslerError its lone query raises."""
        plan = self.plan
        limit = MAX_CANDIDATES if full else QUICK_CANDIDATES
        out = [None] * len(qs)
        pairs, owner, scores, errors = [], [], {}, {}
        for k, q in enumerate(qs):
            try:
                cands, scores[k] = self._candidates(q, limit)
            except FinslerError as exc:
                out[k] = exc
                continue
            pairs.extend((q, i, t) for i, t in cands)
            owner.extend([k] * len(cands))
        arrivals = {k: [] for k in scores}
        for k, got in zip(owner, self._arrivals(pairs)):
            if isinstance(got, Exception):
                # the first candidate whose refinement raises ends the query
                errors.setdefault(k, got)
            elif got is not None:
                arrivals[k].append(got)
        window = max(1e-6, 2 * plan.bisect_tol)
        for k, found in arrivals.items():
            q = qs[k]
            if k in errors:
                out[k] = errors[k]
            elif not found:
                out[k] = UnreachedPointError(
                    f"no shooting root reached q={q}; horizon {plan.horizon} "
                    f"too small or cone grid too coarse (best approach score "
                    f"{float(np.min(scores[k])):.4g})")
            else:
                d = min(a.t for a in found)
                near = sorted((a for a in found if a.t <= d + window),
                              key=lambda a: a.t)
                out[k] = DistanceWitness(q, float(d), near, self.distinct)
        return out

    def _shoot_distance(self, q, full=True) -> DistanceWitness:
        """The one-query case of ``_shoot_distances``, raising its error."""
        (got,) = self._shoot_distances([q], full)
        if isinstance(got, Exception):
            raise got
        return got

    def is_minimizing(self, path, t, full=False):
        q = path.position(t)
        wit = self.distance(q, full=full)
        return wit.d >= t - self.plan.min_slack

    # -- focal and cut times ---------------------------------------------

    def flow(self, ray: NormalRay, span=None):
        key = self._span_key(ray, span)
        got = self._flows.get(key)
        if got is None:
            got = self._flows[key] = normal_jacobi_flow(
                self.metric, self.N, ray, key[1], rtol=self.plan.ode_rtol,
                atol=self.plan.ode_atol)
        return got

    def file_fan(self, rays=()):
        """Compute in one batch what the cut times of ``rays`` not yet
        computed will read.

        On a closed-form field: those cut times, each filed once its
        confirming query, one of a single ``distances`` batch, accepts it.
        On a shooting field, for the rays whose focal time is not yet
        filed: one ``normal_jacobi_flows`` batch of their one-horizon flows
        and, on a stepped field whose fan is not yet stacked, the fan's,
        whose bases are the fan paths; then their focal times in one
        ``first_degeneracies`` lockstep; then the full distance query at the
        top of each one's first bracket, x(min(lambda, H)), in one
        ``distances`` batch.  What is rejected, fails or raises is not
        filed; a later request computes it alone as it always did."""
        rays = [ray for ray in rays if _ray_key(ray) not in self._cut_times]
        if self.straight is not None:
            self._file_closed_form(rays)
            return
        H = self.plan.horizon
        rays = [ray for ray in rays if (_ray_key(ray), H) not in self._focal]
        todo = {}
        fan = self.rays if self.stepped and self._stack is None else ()
        for ray in (*fan, *rays):
            key = self._span_key(ray, None)
            if key not in self._flows:
                todo.setdefault(key, ray)
        try:
            got = normal_jacobi_flows(
                self.metric, self.N, list(todo.values()), H,
                rtol=self.plan.ode_rtol, atol=self.plan.ode_atol)
        except (FinslerError, np.linalg.LinAlgError):
            return
        for key, flow in zip(todo, got):
            if not isinstance(flow, Exception):
                self._flows[key] = flow
        filed = {}
        for ray in rays:
            key = self._span_key(ray, None)
            if key in self._flows:
                filed.setdefault(key, ray)
        lams = first_degeneracies([self._flows[key] for key in filed],
                                  FOCAL_FLOOR, H)
        tops = []
        for (key, ray), lam in zip(filed.items(), lams):
            self._focal[key] = lam
            try:
                tops.append(self.path(ray, H).position(min(lam, H)))
            except (FinslerError, np.linalg.LinAlgError):
                continue
        self.distances(tops)

    def _file_closed_form(self, rays):
        """File the closed-form cut time of each of ``rays`` that its
        confirming query accepts (``_confirmed_cut_time``), once all of
        those queries are answered in one ``distances`` batch."""
        rhos = self.straight.cut_times(rays).tolist()
        tops = {}
        for k, (ray, rho) in enumerate(zip(rays, rhos)):
            if np.isfinite(rho):
                try:
                    tops[k] = self.path(ray, rho).position(rho)
                except (FinslerError, np.linalg.LinAlgError):
                    continue
        wits = dict(zip(tops, self.distances(list(tops.values()))))
        for k, (ray, rho) in enumerate(zip(rays, rhos)):
            if isinstance(wits.get(k), Exception):
                continue
            try:
                got = self._confirmed_cut_time(ray, rho)
            except (FinslerError, np.linalg.LinAlgError):
                continue
            if got is not None:
                self._cut_times.setdefault(_ray_key(ray), got)

    def focal_time(self, ray: NormalRay, T_max=None):
        """The first focal time of ``ray`` in (FOCAL_FLOOR, T_max], T_max
        one horizon by default, memoized by the ray and T_max."""
        if self.straight is not None:
            # J0 = 0 and straight lines: det[t Jd0 | v] vanishes only at 0
            return math.inf
        T_max = T_max or self.plan.horizon
        key = _ray_key(ray), T_max
        got = self._focal.get(key)
        if got is None:
            got = self._focal[key] = first_degeneracy(
                self.flow(ray, T_max), FOCAL_FLOOR, T_max)
        return got

    def cut_time(self, ray: NormalRay) -> CutTimeResult:
        key = _ray_key(ray)
        got = self._cut_times.get(key)
        if got is None:
            self.file_fan([ray])
            got = self._cut_times.get(key)
        if got is None:
            got = self._cut_times[key] = self._bisect_cut_time(ray)
        return got

    def _confirmed_cut_time(self, ray, rho):
        """The closed-form cut time ``rho`` of a ray (``straight.cut_times``),
        or None when the confirming distance query rejects it.

        With no focal point the cut is Separating, at the first lattice
        copy of the ray that reaches it.  One full distance query at x(rho),
        filed by ``_file_closed_form``'s batch, must find no shorter path
        and two distinct minimizers (``leading``).
        """
        if not np.isfinite(rho):
            return CutTimeResult(np.inf, np.inf, unbounded=True)
        rho = float(rho)
        wit = self.distance(self.path(ray, rho).position(rho), full=True)
        if (wit.d >= rho - 2.0 * self.plan.min_slack
                and len(wit.leading(2)) >= 2):
            return CutTimeResult(rho, np.inf)
        return None

    def _bisect_cut_time(self, ray) -> CutTimeResult:
        plan = self.plan
        lo = 0.0
        # bracket [lo, hi] in (0, H], else, when the ray still minimizes at
        # the horizon, in (H, 2H]
        for span in (plan.horizon, 2 * plan.horizon):
            lam = self.focal_time(ray, span)
            hi = min(lam, span)
            path = self.path(ray, span)
            # the check at hi takes the full candidate set: when it passes,
            # rho is returned with no bisection and no later cross-check
            if not self.is_minimizing(path, hi, full=True):
                break
            if lam <= span:
                # beyond-focal lemma: non-minimizing past lam, so rho = lam
                return CutTimeResult(float(lam), float(lam))
            lo = span
        else:
            return CutTimeResult(np.inf, np.inf, unbounded=True)
        iters = 0
        for use_full in (False, True):
            b_lo, b_hi = lo, hi
            while b_hi - b_lo > plan.bisect_tol:
                mid = 0.5 * (b_lo + b_hi)
                iters += 1
                if self.is_minimizing(path, mid, full=use_full):
                    b_lo = mid
                else:
                    b_hi = mid
            rho = 0.5 * (b_lo + b_hi)
            # cross-check with the full candidate set; a quick-mode miss of
            # the nearest competitor shows up as d(cut point) < rho
            wit = self.distance(path.position(rho), full=True)
            if wit.d >= rho - 2.0 * plan.min_slack - 2.0 * plan.bisect_tol:
                break
            hi = rho
        return CutTimeResult(rho, float(lam), bisection_iters=iters)

    def record(self, ray: NormalRay) -> CutRecord:
        res = self.cut_time(ray)
        rec = CutRecord(ray, res.rho, res.lam, unbounded=res.unbounded,
                        diagnostics={"bisection_iters": res.bisection_iters})
        if np.isfinite(res.rho):
            rec.cut_point = self.path(ray, res.rho).position(res.rho)
            self.classify(rec)
        return rec

    def classify(self, rec: CutRecord):
        """Separating with two distinct minimizers at the cut point (read
        from the witness its cut time memoized; of these two, at most one is
        the record's own ray), FirstFocal when rho is the first focal time."""
        wit = self.distance(rec.cut_point, full=True)
        first = wit.leading(2)
        cls = set()
        if len(first) >= 2:
            cls.add(SEPARATING)
            others = [m for m in first
                      if not _close(m.ray.v, rec.ray.v)
                      or np.linalg.norm(m.ray.x - rec.ray.x) > 1e-6]
            if others:
                rec.competitor = (others[0].ray, others[0].t)
        if np.isfinite(rec.lam) and abs(rec.rho - rec.lam) <= 1e-5:
            cls.add(FIRST_FOCAL)
        rec.classification = cls
        if not cls:
            rec.diagnostics["violation"] = (
                f"empty classification: rho={rec.rho:.8g} lam={rec.lam:.8g} "
                f"minimizers={len(first)} d={wit.d:.8g}")
        return rec.classification


# -- the cut locus ---------------------------------------------------------


def cut_locus(field: NormalShooting, side=None, rays=None):
    """Classified cut records over ``rays`` (default: the field's fan);
    per-ray failures collected.

    The fan always covers the whole cone (both sides of a hypersurface),
    since distance queries need every competitor; ``side`` (1 or -1, of a
    curve source only: a point has one side) only restricts which rays get
    records (``_side``).  The cut times still to find are prepared in one
    batch first (``NormalShooting.file_fan``): found and confirmed on a
    closed-form field, their Jacobi flows stepped on a shooting one.
    """
    if side is not None and not field.N.k:
        raise ValueError("a point source has one side: side must be None")
    rays = [ray for ray in (field.rays if rays is None else rays)
            if side is None or _side(ray) == side]
    field.file_fan(rays)
    records = []
    for ray in rays:
        try:
            records.append(field.record(ray))
        except (FinslerError, np.linalg.LinAlgError) as exc:
            rec = CutRecord(ray, np.nan, np.nan)
            rec.diagnostics["error"] = repr(exc)
            records.append(rec)
    return records


# -- theorem-check reports ------------------------------------------------


@dataclass
class Report:
    name: str
    passed: bool
    detail: dict


def check_rho_leq_lambda(records) -> Report:
    violations = []
    for rec in records:
        if np.isnan(rec.rho):
            continue
        if rec.rho > rec.lam + 1e-6:
            violations.append((rec.ray.theta.tolist(), rec.ray.psi.tolist(),
                               rec.rho, rec.lam))
    return Report("rho_leq_lambda", not violations,
                  {"violations": violations, "count": len(records)})


def _middle(ordered):
    """The median of a nonempty sorted list, as ``np.median`` takes it (the
    mean of the two middle values of an even count), with no ``numpy.ma``
    import."""
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def check_se_dense(records, atlas) -> Report:
    """Every FirstFocal-only cut point has a Separating neighbor within
    delta, 3x the median gap between consecutive records of one side."""
    recs = [r for r in records if r.cut_point is not None and r.classification]
    seps = [r for r in recs if SEPARATING in r.classification]
    gaps = sorted(atlas.coord_distance(recs[i].cut_point, recs[j].cut_point)
                  for idx in _by_side([r.ray for r in recs])
                  for i, j in zip(idx[:-1], idx[1:]))
    delta = 3.0 * (_middle(gaps) if gaps else 0.1)
    violations = []
    for r in recs:
        if SEPARATING in r.classification:
            continue
        if not seps:
            violations.append(r.ray.theta.tolist())
            continue
        gap = min(atlas.coord_distance(r.cut_point, s.cut_point)
                  for s in seps)
        if gap > delta:
            violations.append((r.ray.theta.tolist(), gap))
    return Report("se_dense", not violations,
                  {"delta": float(delta), "violations": violations,
                   "n_separating": len(seps), "n_records": len(recs)})


def check_rho_continuity(levels) -> Report:
    """Difference-quotient refinement study for continuity of the cut time.

    ``levels`` is a list of record lists from successively doubled grids.
    Quotients are taken between neighbours on one side of N, at that side's
    pitch.  Flags rays where the local quotient grows faster than refinement
    by more than BLOWUP_FACTOR across two levels.
    """
    quotients = []
    for records in levels:
        qmax = 0.0
        for idx in _by_side([r.ray for r in records]):
            pitch = 1.0 / len(idx)
            for i, j in zip(idx[:-1], idx[1:]):
                r1, r2 = records[i].rho, records[j].rho
                if np.isfinite(r1) and np.isfinite(r2):
                    qmax = max(qmax, abs(r2 - r1) / pitch)
        quotients.append(qmax)
    flagged = []
    for a, b in zip(quotients[:-1], quotients[1:]):
        if a > 0 and b > BLOWUP_FACTOR * a:
            flagged.append((a, b))
    return Report("rho_continuity", not flagged,
                  {"max_quotients": quotients, "flagged": flagged})
