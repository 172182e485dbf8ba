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
ROUNDING = 1e-12            # max |dx|, |dv| of a ray equal to a fan ray


@dataclass
class InverseExpResult:
    q: tuple
    ray: NormalRay
    t: float
    residual: float
    rho: float


def inverse_normal_exp(field: NormalShooting, q) -> InverseExpResult:
    """Unique (ray, t) with exp^nu(t, ray) = q, for q off the cut locus.

    A posteriori check: the minimizer is unique and t stays below the cut
    time of its ray.  Both parts are memoized by the field: the witness
    under the exact point q, the cut time under the ray, or under the fan
    ray it equals to rounding (``_fan_twin``).
    """
    wit = field.distance(q, full=True)
    if len(wit.minimizers) >= 2:
        raise CutLocusError(
            f"q={q} lies on the cut locus: {len(wit.minimizers)} distinct "
            f"minimizers at distance {wit.d:.10g}")
    m = wit.minimizers[0]
    rho = field.cut_time(_fan_twin(field, m.ray)).rho
    if m.t >= rho - 1e-6 and m.t > 1e-9:
        raise CutLocusError(
            f"inconsistent inverse at q={q}: minimizer time {m.t:.10g} "
            f"reaches the cut time {rho:.10g} of its ray")
    return InverseExpResult(q, m.ray, m.t, m.residual, rho)


def _fan_twin(field: NormalShooting, ray):
    """The first fan ray equal to ``ray`` to rounding (the same chart, base
    point and direction within ROUNDING per coordinate), else ``ray``: a
    closed-form direction w / F(w) can differ from its fan ray's in the
    last bits.  The fan is compared as the field's stacked rows."""
    gap = np.abs(field.fan_rows - np.concatenate([ray.v, ray.x]))
    hits = np.flatnonzero((gap.max(axis=1) <= ROUNDING)
                          & (field.fan_charts == ray.chart))
    return field.rays[hits[0]] if hits.size else ray


def retract_to_N(field: NormalShooting, q, s):
    """Deformation retraction of the cut-locus complement onto N.

    h(s, q) = exp^nu((1-s) t v); s=0 is the identity, s=1 projects to the
    base point on N.  The one-s case of ``retractions_to_N``.
    """
    (got,) = retractions_to_N(field, inverse_normal_exp(field, q), [s])
    return got


def retractions_to_N(field: NormalShooting, inv: InverseExpResult, ss):
    """h(s, q) of ``retract_to_N`` at each s of ``ss``, all read from
    ``inv``, the ``inverse_normal_exp`` (ray, t) of q."""
    out = []
    for s in ss:
        t = (1.0 - s) * inv.t
        if t <= 0.0:
            out.append((inv.ray.chart, inv.ray.x.copy()))
        else:
            out.append(field.path(inv.ray, max(inv.t, 1e-9)).position(t))
    return out


def retract_to_cut(field: NormalShooting, q, s):
    """Deformation retraction of the complement of N onto the cut locus.

    H(s, q) = exp^nu((s rho + (1-s) t) v); cut points stay fixed, and a ray
    with infinite cut time has no retraction target.  The one-s case of
    ``retractions_to_cut``.
    """
    try:
        inv = inverse_normal_exp(field, q)
    except CutLocusError:
        # q already on the cut locus: fixed for all s
        return q
    (got,) = retractions_to_cut(field, inv, [s])
    return got


def retractions_to_cut(field: NormalShooting, inv: InverseExpResult, ss):
    """H(s, q) of ``retract_to_cut`` at each s of ``ss``, all read from
    ``inv``, the ``inverse_normal_exp`` (ray, t, rho) of q, which puts q
    off the cut locus."""
    if not np.isfinite(inv.rho):
        raise RetractionUndefinedError(
            f"cut time is unbounded along the ray through q={inv.q}; "
            "no cut point to retract onto")
    if inv.t <= 1e-12:
        raise NumericalFailure(f"q={inv.q} lies on N; the retraction onto "
                               "the cut locus is undefined there")
    out = []
    for s in ss:
        t = s * inv.rho + (1.0 - s) * inv.t
        out.append(field.path(inv.ray, t).position(t))
    return out


def distance_sq_differential(field: NormalShooting, q, X) -> float:
    """df(X) for f = d(N, .)^2: equals 2 l g_{v}(v, X) at the terminal
    velocity v of the unique minimizing segment of length l."""
    return _differential(field, q, field.distance(q, full=True), X)


def _differential(field: NormalShooting, q, wit, X) -> float:
    """``distance_sq_differential`` at q, read from its full witness
    ``wit``."""
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
    """Central finite differences of d(N, .)^2 at q, with step
    VARIATION_STEP along each of ``directions``, against the analytic df
    (``distance_sq_differential``): the report's rows are (X, df(X),
    difference quotient) and ``max_deviation`` the largest gap.  The
    one-item case of ``check_first_variations``."""
    (rep,) = check_first_variations(field, [(q, directions)])
    return rep


def check_first_variations(field: NormalShooting, items) -> list:
    """``check_first_variation`` of each (q, directions) of ``items``: every
    difference point is asked in one quick ``distances`` batch and every q
    in one full batch, and each report has the bits of its lone call.  The
    errors the entries hold are raised in the order of the loop over the
    items and their directions."""
    h = VARIATION_STEP
    items = [(q, [np.asarray(X, dtype=float) for X in directions])
             for q, directions in items]
    points = []
    for (chart, x), directions in items:
        x = np.asarray(x, dtype=float)
        points.extend(p for X in directions
                      for p in ((chart, x + h * X), (chart, x - h * X)))
    probes = iter(field.distances(points, full=False))
    centres = field.distances([q for q, _ in items], full=True)
    reports = []
    for (q, directions), centre in zip(items, centres):
        rows = []
        worst = 0.0
        for X in directions:
            analytic = _differential(field, q, _value(centre), X)
            dp, dm = (_value(next(probes)).d for _ in range(2))
            fd = (dp * dp - dm * dm) / (2.0 * h)
            rows.append((X, analytic, fd))
            worst = max(worst, abs(analytic - fd))
        reports.append(VariationReport(q, worst, rows))
    return reports


def _value(entry):
    """A ``distances`` entry, raised when it holds an error."""
    if isinstance(entry, Exception):
        raise entry
    return entry


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


def homotopy_trace(field: NormalShooting, q, inv=None):
    """Path of one probe point under the retraction onto N, rows
    (s, chart, x) for export; ``inv`` is q's ``inverse_normal_exp`` when
    the caller already has it."""
    if inv is None:
        inv = inverse_normal_exp(field, q)
    ss = np.linspace(0.0, 1.0, TRACE_STEPS).tolist()
    return [(s, chart, np.asarray(x, dtype=float))
            for s, (chart, x) in zip(ss, retractions_to_N(field, inv, ss))]
