"""Inverse of the normal exponential off the cut locus, the two deformation
retractions (onto the submanifold and onto the cut locus), and the
differential of the squared distance function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutlocus import NormalShooting
from .errors import (CutLocusError, NondifferentiableError,
                     NumericalFailure, RetractionUndefinedError)
from .submanifold import NormalRay

VARIATION_STEP = 1e-5       # central-difference step of check_first_variation
TRACE_STEPS = 11            # values of s on a homotopy trace, 0 to 1


@dataclass
class InverseExpResult:
    q: tuple
    ray: NormalRay
    t: float
    residual: float
    rho: float


def _q_key(q):
    chart, x = q
    return (chart, tuple(np.asarray(x, dtype=float).tolist()))


def inverse_normal_exp(field: NormalShooting, q) -> InverseExpResult:
    """Unique (ray, t) with exp^nu(t, ray) = q, for q off the cut locus.

    A posteriori check: the minimizer is unique and t stays below the cut
    time of its ray.
    """
    key = _q_key(q)
    got = field._inverse_cache.get(key)
    if got is not None:
        return got

    wit = field.distance(q, full=True)
    if len(wit.minimizers) >= 2:
        raise CutLocusError(
            f"q={q} lies on the cut locus: {len(wit.minimizers)} distinct "
            f"minimizers at distance {wit.d:.10g}")
    m = wit.minimizers[0]
    rho = field.cut_time(m.ray).rho
    if m.t >= rho - 1e-6 and m.t > 1e-9:
        raise CutLocusError(
            f"inconsistent inverse at q={q}: minimizer time {m.t:.10g} "
            f"reaches the cut time {rho:.10g} of its ray")
    res = InverseExpResult(q, m.ray, m.t, m.residual, rho)
    field._inverse_cache[key] = res
    return res


def retract_to_N(field: NormalShooting, q, s):
    """Deformation retraction of the cut-locus complement onto N.

    h(s, q) = exp^nu((1-s) t v); s=0 is the identity, s=1 projects to the
    base point on N.
    """
    inv = inverse_normal_exp(field, q)
    t = (1.0 - s) * inv.t
    if t <= 0.0:
        return (inv.ray.chart, inv.ray.x.copy())
    return field.path(inv.ray, max(inv.t, 1e-9)).position(t)


def retract_to_cut(field: NormalShooting, q, s):
    """Deformation retraction of the complement of N onto the cut locus.

    H(s, q) = exp^nu((s rho + (1-s) t) v); cut points stay fixed, and a ray
    with infinite cut time has no retraction target.
    """
    try:
        inv = inverse_normal_exp(field, q)
    except CutLocusError:
        # q already on the cut locus: fixed for all s
        return q
    if not np.isfinite(inv.rho):
        raise RetractionUndefinedError(
            f"cut time is unbounded along the ray through q={q}; "
            "no cut point to retract onto")
    if inv.t <= 1e-12:
        raise NumericalFailure(f"q={q} lies on N; the retraction onto the "
                               "cut locus is undefined there")
    t = s * inv.rho + (1.0 - s) * inv.t
    return field.path(inv.ray, t).position(t)


def distance_sq_differential(field: NormalShooting, q, X) -> float:
    """df(X) for f = d(N, .)^2: equals 2 l g_{v}(v, X) at the terminal
    velocity v of the unique minimizing segment of length l."""
    wit = field.distance(q, full=True)
    values = []
    for m in wit.minimizers:
        term = m.terminal
        g = field.metric.fundamental(term)
        values.append(2.0 * m.t * float(term.v @ g @ np.asarray(X, float)))
    if len(wit.minimizers) >= 2:
        raise NondifferentiableError(
            f"d^2 is not differentiable at q={q}: {len(wit.minimizers)} "
            f"minimizing segments with one-sided values {values}",
            one_sided=values)
    return values[0]


@dataclass
class VariationReport:
    q: tuple
    max_deviation: float
    rows: list      # (direction, analytic, finite difference)


def check_first_variation(field: NormalShooting, q,
                          directions) -> VariationReport:
    """Central finite differences of d(N, .)^2 against the analytic df."""
    h = VARIATION_STEP
    chart, x = q
    x = np.asarray(x, dtype=float)
    rows = []
    worst = 0.0
    for X in directions:
        X = np.asarray(X, dtype=float)
        analytic = distance_sq_differential(field, q, X)
        dp = field.distance((chart, x + h * X), full=False).d
        dm = field.distance((chart, x - h * X), full=False).d
        fd = (dp * dp - dm * dm) / (2.0 * h)
        rows.append((X, analytic, fd))
        worst = max(worst, abs(analytic - fd))
    return VariationReport(q, worst, rows)


def one_sided_spread(field: NormalShooting, q, X, h=1e-5) -> float:
    """Spread between forward and backward difference quotients of d^2 at q;
    large values witness nondifferentiability on the separating set."""
    chart, x = q
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    d0 = field.distance(q, full=False).d
    dp = field.distance((chart, x + h * X), full=False).d
    dm = field.distance((chart, x - h * X), full=False).d
    fwd = (dp * dp - d0 * d0) / h
    bwd = (d0 * d0 - dm * dm) / h
    return abs(fwd - bwd)


def homotopy_trace(field: NormalShooting, q):
    """Path of one probe point under the retraction onto N, rows
    (s, chart, x) for export."""
    rows = []
    for s in np.linspace(0.0, 1.0, TRACE_STEPS):
        chart, x = retract_to_N(field, q, float(s))
        rows.append((float(s), chart, np.asarray(x, dtype=float)))
    return rows
