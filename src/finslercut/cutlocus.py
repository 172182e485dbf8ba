"""Distances from a submanifold by multistart normal shooting, focal and cut
times, the cut locus, and the numerical checks of the structural theorems.

A ``NormalShooting`` field is the one owner of shooting state for a
submanifold under a plan.  Its fan of grid rays is fixed at construction,
and one dense geodesic per fan ray is reused across distance queries:
closest-approach search over the fan picks candidates, and each is
polished to an exact arrival.  A time-only Newton stage comes first: it
moves along the candidate's cached fan path alone, and where that path
passes through the query (at a point source's antipode on the round sphere
every fan path does) the fan ray is the arrival, with no new geodesic.
Every other candidate gets Gauss-Newton on (cone parameter, time) from the
approach's starting point.  Its first iteration reads the session's path
cache: the fan ray's own path and the cached paths of its memoized
finite-difference neighbours.  Under an x-independent metric on a one-chart
atlas (the flat plane or torus) every path is one exact straight segment
from the geodesic layer (``geodesic.straight_geodesics``).

A point source there is answered in closed form throughout.  ``distance``
is the least F over the lattice shifts of q - p.  Its normal geodesics have
no focal point (J0 = 0, so det[t Jd0 | v] vanishes only at t = 0), so
``focal_time`` is inf with no Jacobi flow.  By the Separating/FirstFocal
dichotomy its cut time is then the first t at which a lattice copy reaches
p + t v as fast as the ray does: the least root in (0, 2H] of
F(t v - kL) = t over the shifts k != 0, H the horizon, found by Newton.
One full ``distance`` query at the cut point confirms it (no shorter path,
at least two minimizers); if it does not, the ray is bisected.

Every other field (the sphere, curve sources) steps Jacobi flows for its
focal times and bisects the minimality predicate for its cut times, with
the first focal time as an upper bracket; a ray that still minimizes at the
horizon H is bisected again in (H, 2H].  The check at the top of each
bracket takes the full candidate set, since a ray that passes it is
returned with no bisection and no later cross-check.

Every cache of a field follows one rule: a value is keyed by exactly what
determines it, and it is never replaced or invalidated.  Paths and Jacobi
flows are keyed by the ray's exact cone coordinates and the whole number of
horizons that covers the span asked for, and are integrated to exactly that
many horizons; cut times are keyed by the ray; the fan is sampled once, from
its one-horizon paths, and stacked once.  Rays off the grid, such as
``ray_at(mu, template)``, share the path, flow and cut-time caches but never
join the fan, so no answer depends on which queries came before.

The fan is integrated as one batch: its one-horizon paths not yet cached
are stepped together (``geodesic.integrate_geodesics``) the first time the
fan is stacked, or before, when ``cut_locus`` starts on a shooting field;
``cut_locus`` also first steps together the one-horizon flows of the rays
whose cut times are still to find (``submanifold.normal_jacobi_flows``).
A straight point source steps no flow.  Each row equals its lone
integration to the last bit (see ``dopri.py`` for the BLAS and pow
conditions this rests on), so a batch result is filed under the key
``path(ray)`` or ``flow(ray)`` would give it and the cache rule holds.  A
row that fails, or every row of a batch that raises, is not filed: a later
request integrates that ray alone and raises as it always did.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .atlas import TangentVec
from .errors import FinslerError, NumericalFailure, UnreachedPointError
from .geodesic import (DEFAULT_ATOL, DEFAULT_RTOL, first_degeneracy,
                       integrate_geodesic, integrate_geodesics,
                       straight_geodesics)
from .metric import V_FLOOR
from .submanifold import (NormalRay, normal_jacobi_flow, normal_jacobi_flows,
                          sample_unit_cone, unit_normal)

SEPARATING = "Separating"
FIRST_FOCAL = "FirstFocal"

FOCAL_FLOOR = 0.02          # focal times are searched in (FOCAL_FLOOR, T]
NEWTON_TOL = 1e-9           # Gauss-Newton arrival stop, floored at 10 rtol
DISTINCT_ANGLE = 1e-3       # g-angle that tells two minimizers at one base apart
MAX_CANDIDATES = 8          # fan rays polished per full distance query
QUICK_CANDIDATES = 4        # ... per quick (bisection) distance query
SAMPLE_DT_FRAC = 1.0 / 128.0    # fan sample spacing, as a horizon fraction
FLOOR_DIRS = 256            # unit directions bounding F from below
ROOT_ITERS = 60             # Newton cap for a closed-form cut time
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
class Minimizer:
    ray: NormalRay
    t: float
    terminal: TangentVec
    residual: float


@dataclass
class DistanceWitness:
    q: tuple
    d: float
    minimizers: list


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


def _ray_key(ray: NormalRay):
    """Exact cone coordinates of a ray, the key of every per-ray cache."""
    return (tuple(ray.theta), tuple(ray.psi))


def _straight_point_source(metric, N):
    """A point source whose normal geodesics are straight lines in one
    chart.  Its Jacobi fields start at J0 = 0, so det[t Jd0 | v] vanishes
    only at t = 0: it has no focal point."""
    return N.k == 0 and straight_geodesics(metric)


def _unit_circle_floor(metric, chart, p):
    """A lower bound of F(p, u) over the Euclidean unit circle.

    F is subadditive, so F(u) >= F(u_j) - F_max |u - u_j| for the nearest
    of FLOOR_DIRS equally spaced unit vectors u_j, which lies within the
    chord 2 sin(pi / 2 FLOOR_DIRS); the same inequality bounds F_max by the
    largest sample.
    """
    angles = 2 * np.pi * np.arange(FLOOR_DIRS) / FLOOR_DIRS
    vals = [metric.F(TangentVec(chart, p, [math.cos(a), math.sin(a)]))
            for a in angles]
    chord = 2.0 * math.sin(math.pi / (2 * FLOOR_DIRS))
    return min(vals) - max(vals) * chord / (1.0 - chord)


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
        # (_ray_key, whole-horizon span) -> path or flow, see _span_key
        self._paths = {}
        self._flows = {}
        self._cut_times = {}        # _ray_key -> CutTimeResult
        self._stack = None          # fan samples per chart, stacked once
        # cut point rounded to 1e-6 -> DistanceWitness (classify)
        self._classify_cache = {}
        # query point -> InverseExpResult (topology.inverse_normal_exp)
        self._inverse_cache = {}
        # fan index -> the finite-difference neighbour of a Gauss-Newton
        # seed, see _seed_ray
        self._seed_rays = {}
        self._build_branches()
        # a point source whose normal geodesics are straight lines in one
        # chart gets distance and cut time in closed form (_line_distance,
        # _line_cut_time); _line_floor > 0 bounds F on unit vectors from
        # below, else None
        self._line_floor = None
        if _straight_point_source(metric, N):
            self._base = N.point(np.zeros(0))
            floor = _unit_circle_floor(metric, N.chart, self._base)
            if floor > 0.0:
                self._line_floor = floor

    # -- ray bookkeeping -------------------------------------------------

    def _build_branches(self):
        """Fan indices in cone order: one psi cycle for a point, one theta
        run per side for a curve."""
        self.branches = []
        if self.N.k:
            by_side = {}
            for i, r in enumerate(self.rays):
                by_side.setdefault(float(np.sign(r.psi[0])), []).append(i)
            cyclic = bool(self.N.periodic[0])
            for side in sorted(by_side):
                idx = sorted(by_side[side], key=lambda i: self.rays[i].theta[0])
                self.branches.append((np.array(idx), cyclic))
        else:
            idx = sorted(range(len(self.rays)),
                         key=lambda i: math.atan2(self.rays[i].psi[1],
                                                  self.rays[i].psi[0]))
            self.branches.append((np.array(idx), True))

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
        key = self._span_key(ray, span)
        got = self._paths.get(key)
        if got is None:
            got = self._paths[key] = integrate_geodesic(
                self.metric, ray.tangent(), key[1],
                rtol=self.plan.ode_rtol, atol=self.plan.ode_atol)
        return got

    def _file(self, cache, rays, integrate):
        """Integrate the one-horizon values of ``rays`` missing from
        ``cache`` in one batch, ``integrate(rays, H)``, and file each under
        the key ``path``/``flow`` give it.  A ray whose integration fails,
        or every ray when the batch itself raises, is not filed, so a later
        request integrates it alone and raises as it would have."""
        todo = {}
        for ray in rays:
            key = self._span_key(ray, None)
            if key not in cache:
                todo.setdefault(key, ray)
        if not todo:
            return
        try:
            got = integrate(list(todo.values()), self.plan.horizon)
        except (FinslerError, np.linalg.LinAlgError):
            return
        for key, value in zip(todo, got):
            if not isinstance(value, Exception):
                cache[key] = value

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
        self._file_paths()
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

    # -- Gauss-Newton arrival --------------------------------------------

    def refine_arrival(self, q, i, t0):
        """Solve exp^nu(t, ray(mu)) = q from the grid ray i at time t0.

        A time-only Newton stage comes first: it moves t along fan ray i's
        cached path alone, and returns the fan ray itself once the residual
        is within tolerance.  Where the fan ray passes through q (at a
        point source's antipode on the round sphere every ray does) the
        arrival then needs no new geodesic and no seed neighbour.
        Otherwise Gauss-Newton on (cone parameter, time) runs from the
        approach's (mu, t0), not from the polished t.  Its first iteration
        reads paths the session owns: the seed residual is fan ray i on its
        cached path, and each finite-difference neighbour is a memoized ray
        on its cached path, both from ``path``.  Later iterations integrate
        fresh arrivals, at the same ODE tolerances.

        Convergence bottoms out at the integration noise floor, so the stop
        tolerance tracks it; a stalled iteration (rank-deficient Jacobian
        at a conjugate arrival) accepts the best residual if it is within a
        modest factor of that floor.
        """
        plan = self.plan
        template = self.rays[i]
        mu = self.ray_param(template).astype(float)
        t = max(float(t0), 1e-9)
        h = 1e-6
        tol = max(NEWTON_TOL, 10.0 * plan.ode_rtol) * (1.0 + abs(t0))
        dt_cap = 0.5 * plan.horizon

        def residual(mu_, t_, k=None):
            # k, first iteration only: the fan ray (k = 0) or its memoized
            # neighbour (k = 1), see _seed_ray
            if k is None:
                ray = self.ray_at(mu_, template)
            else:
                ray = template if k == 0 else self._seed_ray(i, mu_)
            state = self._arrival_path(ray, t_, cached=k is not None).state(t_)
            r = -self.atlas.displacement((state.chart, state.x), q)
            return r, ray, state

        try:
            r, ray, state = residual(mu, t, 0)
            polished = self._polish_time(q, template, t, r, state, tol, dt_cap)
        except (FinslerError, np.linalg.LinAlgError):
            return None
        if polished is not None:
            return polished
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

    def _polish_time(self, q, ray, t, r, state, tol, dt_cap):
        """Time-only Newton for ray's arrival at q along its cached path,
        from the residual r at (t, state): t -= <vel, r> / <vel, vel>, with
        vel in q's chart and the step clipped to dt_cap.  It steps while |r|
        halves, at most POLISH_STEPS times and never past the cached path.
        The least residual reached is a Minimizer if it is within tol, else
        None."""
        path = self._arrival_path(ray, t, cached=True)
        rn = float(np.linalg.norm(r))
        for _ in range(POLISH_STEPS):
            vel = self.atlas.velocity_in(state, q[0])
            step = np.clip(-(vel @ r) / (vel @ vel), -dt_cap, dt_cap)
            t_new = max(t + step, 1e-9)
            if t_new > path.t1:
                break
            s_new = path.state(t_new)
            r_new = -self.atlas.displacement((s_new.chart, s_new.x), q)
            rn_new = float(np.linalg.norm(r_new))
            if rn_new >= rn:
                break
            halved = rn_new <= 0.5 * rn
            t, r, state, rn = t_new, r_new, s_new, rn_new
            if not halved:
                break
        if rn <= tol:
            return Minimizer(ray, float(t), state, rn)
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

    def distance(self, q, full=True) -> DistanceWitness:
        """d(N, q) and its distinct minimizers.  ``full`` widens the
        shooting candidate set; the closed form is exact either way."""
        if self._line_floor is not None:
            return self._line_distance(q)
        return self._shoot_distance(q, full)

    def _lattice_shifts(self, w0, reach):
        """The images w0 + kL of Euclidean length at most ``reach`` as the
        rows of an array, in lexicographic order of k; w0 alone when there
        is no lattice."""
        lat = self.atlas.periodic_lattice
        if lat is None:
            return w0[None, :]
        k = [np.arange(math.ceil((-reach - c) / L),
                       math.floor((reach - c) / L) + 1)
             for c, L in zip(w0, lat)]
        ks = np.stack(np.meshgrid(*k, indexing="ij"), axis=-1).reshape(-1, 2)
        w = w0 + ks * lat
        return w[np.sqrt(w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1]) <= reach]

    def _line_distance(self, q) -> DistanceWitness:
        """Closed-form distance from a point source along straight lines.

        Every lattice shift w = q - p - kL whose Euclidean length allows
        F(w) <= F(w0) + window, w0 the minimum image, is evaluated; each
        shift within the window of the least F gives a minimizer with
        direction w / F(w) and covector g_v(v).
        """
        plan = self.plan
        chart, p = self.N.chart, self._base
        window = max(1e-6, 2 * plan.bisect_tol)
        w0 = self.atlas.displacement((chart, p), q)
        if np.linalg.norm(w0) < V_FLOOR:
            # q is the source: the zero-length segment along fan ray 0
            ray = self.rays[0]
            term = TangentVec(chart, p + w0, ray.v)
            res = float(np.linalg.norm(w0))
            return DistanceWitness(q, 0.0, [Minimizer(ray, 0.0, term, res)])

        def length(w):
            return self.metric.F(TangentVec(chart, p, w))

        shifts = self._lattice_shifts(
            w0, (length(w0) + window) / self._line_floor)
        ts = [length(w) for w in shifts]
        d = min(ts)
        if d > 2 * plan.horizon + plan.min_slack:
            # beyond the doubled-horizon probe, the longest span integrated
            raise UnreachedPointError(
                f"q={q} lies at distance {d:.6g}, beyond twice the horizon "
                f"{plan.horizon}")
        minimizers = []
        for i in sorted(range(len(ts)), key=ts.__getitem__):
            t, w = ts[i], shifts[i]
            if t > d + window:
                break
            v = w / t
            omega = self.metric.fundamental(TangentVec(chart, p, v)) @ v
            ray = NormalRay(np.zeros(0), omega / np.linalg.norm(omega),
                            chart, p, v)
            res = float(np.linalg.norm(
                self.atlas.displacement((chart, p + t * v), q)))
            a = Minimizer(ray, t, TangentVec(chart, p + w, v), res)
            if all(self.distinct(a, b) for b in minimizers):
                minimizers.append(a)
        return DistanceWitness(q, float(d), minimizers)

    def _shoot_distance(self, q, full=True) -> DistanceWitness:
        """Distance by fan closest approach and Gauss-Newton arrival."""
        plan = self.plan
        limit = MAX_CANDIDATES if full else QUICK_CANDIDATES
        cands, score = self._candidates(q, limit)
        arrivals = []
        for i, t in cands:
            got = self.refine_arrival(q, i, t)
            if got is not None:
                arrivals.append(got)
        if not arrivals:
            raise UnreachedPointError(
                f"no shooting root reached q={q}; horizon {plan.horizon} too "
                f"small or cone grid too coarse "
                f"(best approach score {float(np.min(score)):.4g})")
        d = min(a.t for a in arrivals)
        window = max(1e-6, 2 * plan.bisect_tol)
        near = sorted((a for a in arrivals if a.t <= d + window),
                      key=lambda a: a.t)
        minimizers = []
        for a in near:
            if all(self.distinct(a, b) for b in minimizers):
                minimizers.append(a)
        return DistanceWitness(q, float(d), minimizers)

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

    def file_fan(self, rays):
        """Integrate, each in one batch, what the cut times of ``rays``
        not yet computed will read: the fan's one-horizon paths, which
        every shooting query samples, and those rays' one-horizon Jacobi
        flows.  A field with closed-form distances needs no fan path, and
        a straight point source steps no flow."""
        rays = [ray for ray in rays if _ray_key(ray) not in self._cut_times]
        if not rays:
            return
        if self._line_floor is None:
            self._file_paths()
        if not _straight_point_source(self.metric, self.N):
            plan = self.plan
            self._file(self._flows, rays, lambda rays, T: normal_jacobi_flows(
                self.metric, self.N, rays, T, rtol=plan.ode_rtol,
                atol=plan.ode_atol))

    def _file_paths(self):
        plan = self.plan
        self._file(self._paths, self.rays, lambda rays, T: integrate_geodesics(
            self.metric, [ray.tangent() for ray in rays], T,
            rtol=plan.ode_rtol, atol=plan.ode_atol))

    def focal_time(self, ray: NormalRay, T_max=None):
        if _straight_point_source(self.metric, self.N):
            return math.inf
        T_max = T_max or self.plan.horizon
        return first_degeneracy(self.flow(ray, T_max), FOCAL_FLOOR, T_max)

    def cut_time(self, ray: NormalRay) -> CutTimeResult:
        key = _ray_key(ray)
        got = self._cut_times.get(key)
        if got is None:
            if self._line_floor is not None:
                got = self._line_cut_time(ray)
            if got is None:
                got = self._bisect_cut_time(ray)
            self._cut_times[key] = got
        return got

    def _line_cut_time(self, ray):
        """Closed-form cut time of a ray from a straight point source, or
        None when the confirming distance query rejects it.

        With no focal point the cut is Separating: rho is the least root in
        (0, 2H] of F(t v - kL) = t over the lattice shifts k != 0.  At a root
        t, t = F(t v - kL) >= floor (|kL| - t |v|), so the shifts are tried
        by increasing |kL| until |kL| / (|v| + 1 / floor) passes the best
        root.  One full distance query at x(rho) must find no shorter path
        and at least two distinct minimizers.
        """
        plan = self.plan
        span = 2 * plan.horizon
        pace = np.linalg.norm(ray.v) + 1.0 / self._line_floor
        shifts = self._lattice_shifts(np.zeros(2), span * pace)
        size = np.sqrt(shifts[:, 0] ** 2 + shifts[:, 1] ** 2)
        rho = np.inf
        for i in np.argsort(size, kind="stable"):
            if size[i] / pace > rho:
                break
            if size[i] > 0.0:
                rho = min(rho, self._first_root(ray.v, shifts[i], span))
        if not np.isfinite(rho):
            return CutTimeResult(np.inf, np.inf, unbounded=True)
        wit = self.distance(self.path(ray, rho).position(rho), full=True)
        if wit.d >= rho - 2.0 * plan.min_slack and len(wit.minimizers) >= 2:
            return CutTimeResult(rho, np.inf)
        return None

    def _first_root(self, v, w, t_max):
        """First root in (0, t_max] of g(t) = F(t v + w) - t, else inf.

        g is convex with g(0) = F(w) > 0, so Newton from t = 0 rises
        monotonically to its first root; g' = (g_u u) . v / F(u) - 1 at
        u = t v + w.  No root is left once g' >= 0 while g > 0, or once an
        iterate passes t_max.
        """
        chart, p = self.N.chart, self._base
        t = 0.0
        for _ in range(ROOT_ITERS):
            u = TangentVec(chart, p, t * v + w)
            length = self.metric.F(u)
            g = length - t
            if g <= 0.0:
                break
            slope = (self.metric.fundamental(u) @ u.v) @ v / length - 1.0
            if slope >= 0.0:
                return np.inf
            step = -g / slope
            t += step
            if t > t_max:
                return np.inf
            if step <= 4.0 * np.finfo(float).eps * t:
                break
        return t

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

    def record(self, ray: NormalRay, classify=True) -> CutRecord:
        res = self.cut_time(ray)
        rec = CutRecord(ray, res.rho, res.lam, unbounded=res.unbounded,
                        diagnostics={"bisection_iters": res.bisection_iters})
        if np.isfinite(res.rho):
            rec.cut_point = self.path(ray, res.rho).position(res.rho)
            if classify:
                self.classify(rec)
        return rec

    def classify(self, rec: CutRecord):
        # cut points of nearby rays often coincide (poles, antipodes);
        # reuse the witness below the classification tolerance scale
        chart, x = rec.cut_point
        key = (chart, tuple(np.round(np.asarray(x, float), 6)))
        wit = self._classify_cache.get(key)
        if wit is None:
            wit = self.distance(rec.cut_point, full=True)
            self._classify_cache[key] = wit
        cls = set()
        if len(wit.minimizers) >= 2:
            cls.add(SEPARATING)
            others = [m for m in wit.minimizers
                      if not np.allclose(m.ray.v, rec.ray.v, atol=1e-6)
                      or np.linalg.norm(m.ray.x - rec.ray.x) > 1e-6]
            if others:
                rec.competitor = (others[0].ray, others[0].t)
        if np.isfinite(rec.lam) and abs(rec.rho - rec.lam) <= 1e-5:
            cls.add(FIRST_FOCAL)
        rec.classification = cls
        rec.diagnostics["n_minimizers"] = len(wit.minimizers)
        rec.diagnostics["witness_d"] = wit.d
        if not cls:
            rec.diagnostics["violation"] = (
                f"empty classification: rho={rec.rho:.8g} lam={rec.lam:.8g} "
                f"minimizers={len(wit.minimizers)} d={wit.d:.8g}")
        return rec.classification


# -- the cut locus ---------------------------------------------------------


def cut_locus(field: NormalShooting, classify=True, side=None):
    """Cut records over the field's fan; per-ray failures collected.

    The fan always covers the whole cone (both sides of a hypersurface),
    since distance queries need every competitor; ``side`` only restricts
    which rays get records.  When cut times are still to find, the fan's
    paths and those rays' Jacobi flows are integrated first, in batches
    (``NormalShooting.file_fan``).
    """
    rays = [ray for ray in field.rays
            if side is None or np.sign(ray.psi[0]) == side]
    field.file_fan(rays)
    records = []
    for ray in rays:
        try:
            records.append(field.record(ray, classify=classify))
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


def check_se_dense(records, atlas) -> Report:
    """Every FirstFocal-only cut point has a Separating neighbor within
    delta, 3x the sampling pitch along the computed cut locus."""
    recs = [r for r in records if r.cut_point is not None and r.classification]
    seps = [r for r in recs if SEPARATING in r.classification]
    gaps = [atlas.coord_distance(a.cut_point, b.cut_point)
            for a, b in zip(recs[:-1], recs[1:])]
    delta = 3.0 * (np.median(gaps) if gaps else 0.1)
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
    Flags rays where the local quotient grows faster than refinement by
    more than BLOWUP_FACTOR across two levels.
    """
    quotients = []
    for records in levels:
        finite = [(i, r.rho) for i, r in enumerate(records)
                  if np.isfinite(r.rho)]
        qmax = 0.0
        pitch = 1.0 / max(len(records), 1)
        for (i1, r1), (i2, r2) in zip(finite[:-1], finite[1:]):
            if i2 - i1 == 1:
                qmax = max(qmax, abs(r2 - r1) / pitch)
        quotients.append(qmax)
    flagged = []
    for a, b in zip(quotients[:-1], quotients[1:]):
        if a > 0 and b > BLOWUP_FACTOR * a:
            flagged.append((a, b))
    return Report("rho_continuity", not flagged,
                  {"max_quotients": quotients, "flagged": flagged})
