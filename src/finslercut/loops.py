"""Minima of the mixed distance functional on the cut locus, the
two-segments dichotomy, geodesic loops through a submanifold, and the
at-least-two-geodesics construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cutlocus import FIRST_FOCAL, NormalShooting, Report, cut_locus
from .errors import FinslerError, NumericalFailure, ReversibilityError
from .submanifold import point_submanifold

SMOOTH_TOL = 1e-4
BROKEN_TOL = 1e-2
REVERSIBILITY_SAMPLES = 16  # random (x, v) probes of reversibility_defect
REVERSIBILITY_TOL = 1e-8    # defect above which a metric counts irreversible
LOOP_SAMPLES = 64           # samples per segment of an exported loop


@dataclass
class LoopResult:
    x0: tuple
    d_min: float
    segments: list              # the two N-segments (Minimizer objects)
    loop: list                  # samples (loop parameter, chart, coords)
    smoothness_residual: float
    length: float
    branch: str                 # "loop" or "focal"
    midpoint_gap: float = np.nan
    diagnostics: dict = dc_field(default_factory=dict)


def reversibility_defect(metric):
    """Max relative |F(x, v) - F(x, -v)| over random unit-box samples,
    each drawing its x and then its v; every F from one ``F_rows`` call."""
    rng = np.random.default_rng(0)
    X = np.empty((REVERSIBILITY_SAMPLES, metric.atlas.dim))
    V = np.empty_like(X)
    for i in range(REVERSIBILITY_SAMPLES):
        X[i] = rng.uniform(-0.5, 0.5, X.shape[1])
        V[i] = rng.standard_normal(X.shape[1])
    a, b = metric.F_rows(0, np.vstack([X, X]), np.vstack([V, -V])).reshape(
        2, -1)
    return float(np.fmax.reduce(abs(a - b) / np.maximum(a, b), initial=0.0))


def require_reversible(metric):
    defect = reversibility_defect(metric)
    if defect > REVERSIBILITY_TOL:
        raise ReversibilityError(
            f"metric is irreversible (max relative F(v) vs F(-v) defect "
            f"{defect:.3g}); reversed segments are not geodesics")


def _reverse_field(field, q):
    """Shooting field whose distances give d_metric(x, q) for varying x."""
    return NormalShooting(field.metric.reversed_(), point_submanifold(*q),
                          field.plan)


def min_M_on_cut(field: NormalShooting, q, records):
    """Minimize M_q(x) = d(N, x) + d(x, q) over the sampled cut locus.

    Grid argmin plus parabolic refinement in the ray parameter.
    """
    finite = [r for r in records if r.cut_point is not None]
    if any(not np.isfinite(r.rho) for r in records if not np.isnan(r.rho)):
        raise NumericalFailure(
            "M is undefined: the cut locus has unbounded directions")
    if not finite:
        raise NumericalFailure("no finite cut records to minimize over")
    rq = _reverse_field(field, q)
    vals = np.array([r.rho + rq.distance(r.cut_point, full=False).d
                     for r in finite])
    k = int(np.argmin(vals))
    best_x, best_v = finite[k].cut_point, float(vals[k])

    if 0 < k < len(finite) - 1:
        a, b, c = vals[k - 1], vals[k], vals[k + 1]
        den = a - 2 * b + c
        if den > 1e-12:
            s = 0.5 * (a - c) / den
            mu0 = field.ray_param(finite[k].ray)
            mu1 = field.ray_param(finite[k + 1].ray)
            mu = mu0 + s * (mu1 - mu0)
            try:
                ray = field.ray_at(mu, finite[k].ray)
                rho = field.cut_time(ray).rho
                x = field.path(ray, rho).position(rho)
                v = rho + rq.distance(x, full=False).d
                if v < best_v:
                    best_x, best_v = x, float(v)
            except (FinslerError, np.linalg.LinAlgError):
                pass
    return best_x, best_v


def verify_two_segments(field: NormalShooting, x0, classification=None):
    """Exactly-two-segments dichotomy at a non-focal minimizer."""
    if classification and "FirstFocal" in classification:
        raise NumericalFailure(
            "two-segments check refused: x0 is classified FirstFocal, "
            "outside the dichotomy's hypotheses")
    wit = field.distance(x0, full=True)
    detail = {
        "count": len(wit.minimizers),
        "times": [m.t for m in wit.minimizers],
        "residuals": [m.residual for m in wit.minimizers],
        "d": wit.d,
    }
    return Report("two_segments", len(wit.minimizers) == 2, detail)


def _g_norm(metric, state, w):
    g = metric.fundamental(state)
    return math.sqrt(max(float(w @ g @ w), 0.0))


def _sample_segment(field, m):
    path = field.path(m.ray, max(m.t, 1e-9))
    ts = np.linspace(0.0, m.t, LOOP_SAMPLES + 1)
    return [(float(t),) + tuple(path.position(t)) for t in ts]


def find_geodesic_loop(field: NormalShooting, records=None) -> LoopResult:
    """Unit-speed geodesic loop through N via the minimum of d(N, .) on the
    cut locus; requires a reversible metric.  At focal minima, returns the
    focal branch instead of a loop."""
    metric = field.metric
    require_reversible(metric)
    if records is None:
        records = cut_locus(field)

    finite = [(i, r) for i, r in enumerate(records)
              if r.cut_point is not None and np.isfinite(r.rho)]
    if not finite:
        raise NumericalFailure("no finite cut records; scenario noncompact?")
    rhos = np.array([r.rho for _, r in finite])
    order = np.argsort(rhos)
    focal_minima = []
    for k in order:
        _, rec = finite[k]
        if FIRST_FOCAL in rec.classification:
            focal_minima.append(rec)
            continue
        x0 = rec.cut_point
        wit = field.distance(x0, full=True)
        if len(wit.minimizers) < 2:
            continue
        m1, m2 = wit.minimizers[:2]
        chart = x0[0]
        v1 = metric.atlas.velocity_in(m1.terminal, chart)
        v2 = metric.atlas.velocity_in(m2.terminal, chart)
        resid = _g_norm(metric, m1.terminal, v1 + v2)
        if resid > SMOOTH_TOL:
            continue
        # loop = first segment forward, second segment reversed
        seg1 = _sample_segment(field, m1)
        seg2 = _sample_segment(field, m2)
        loop = [(t, c, x) for t, c, x in seg1]
        L1 = m1.t
        loop += [(L1 + (m2.t - t), c, x) for t, c, x in reversed(seg2[:-1])]
        length = m1.t + m2.t
        return LoopResult(
            x0=x0, d_min=float(wit.d), segments=[m1, m2], loop=loop,
            smoothness_residual=float(resid), length=float(length),
            branch="loop", midpoint_gap=abs(L1 - wit.d),
            diagnostics={"rho": rec.rho, "lam": rec.lam})
    if focal_minima:
        rec = min(focal_minima, key=lambda r: r.rho)
        return LoopResult(
            x0=rec.cut_point, d_min=float(rec.rho), segments=[], loop=[],
            smoothness_residual=np.nan, length=np.nan, branch="focal",
            diagnostics={"rho": rec.rho, "lam": rec.lam,
                         "note": "minimum of d(N, .) on the cut locus is a "
                                 "focal point"})
    raise NumericalFailure(
        "no smooth loop and no focal minimum found among cut records")


@dataclass
class TwoGeodesics:
    q: tuple
    direct: object              # Minimizer (or None when q is on N)
    x0: tuple
    via_segments: list          # (N -> x0 segment, x0 -> q segment)
    joint_residual: float
    lengths: tuple
    branch: str
    diagnostics: dict = dc_field(default_factory=dict)


def two_geodesics_to(field: NormalShooting, q, records=None) -> TwoGeodesics:
    """The minimizing segment to q plus a second geodesic through the
    minimizer x0 of M_q on the cut locus."""
    metric = field.metric
    if records is None:
        records = cut_locus(field)
    focal_only = [r for r in records
                  if r.classification == {"FirstFocal"}]
    if focal_only:
        return TwoGeodesics(
            q=q, direct=None, x0=focal_only[0].cut_point, via_segments=[],
            joint_residual=np.nan, lengths=(np.nan, np.nan), branch="focal",
            diagnostics={"n_focal_only": len(focal_only)})

    wit = field.distance(q, full=True)
    direct = wit.minimizers[0]
    x0, M_val = min_M_on_cut(field, q, records)

    wit_x0 = field.distance(x0, full=True)
    if field.atlas.coord_distance(x0, q) < 1e-9:
        # q is itself the minimizer: second geodesic degenerates to the pair
        # of N-segments meeting at q
        a, b = wit_x0.minimizers[:2]
        va = metric.atlas.velocity_in(a.terminal, x0[0])
        vb = metric.atlas.velocity_in(b.terminal, x0[0])
        resid = _g_norm(metric, a.terminal, va + vb)
        return TwoGeodesics(q, direct, x0, [a, b], float(resid),
                            (direct.t, a.t + b.t), "at-cut",
                            {"M": M_val})
    pf = NormalShooting(metric, point_submanifold(*x0), field.plan)
    wit_q = pf.distance(q, full=True)
    best = None
    pairs = []
    for a in wit_x0.minimizers[:2]:
        va = metric.atlas.velocity_in(a.terminal, x0[0])
        for b in wit_q.minimizers[:2]:
            resid = _g_norm(metric, a.terminal, va - b.ray.v)
            pairs.append((float(resid), a, b))
            if best is None or resid < best[0]:
                best = (float(resid), a, b)
    resid, a, b = best
    if resid > SMOOTH_TOL:
        return TwoGeodesics(q, direct, x0, [a, b], resid,
                            (direct.t, a.t + b.t), "unmatched",
                            {"pair_residuals": [p[0] for p in pairs],
                             "M": M_val})
    return TwoGeodesics(q, direct, x0, [a, b], resid,
                        (direct.t, a.t + b.t), "two-geodesics",
                        {"pair_residuals": [p[0] for p in pairs],
                         "M": M_val})
