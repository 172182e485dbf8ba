"""Immersed submanifolds, normal cones via the Legendre transform, and the
N-Jacobi fields, whose matrix is the differential of the normal exponential
map.

Sources are points (k = 0) and curves (k = 1) in a surface.  The normal
cone at p is computed through the annihilator of T_pN followed by Legendre
inversion, and unit rays are indexed by (theta, psi): base parameter plus a
unit coordinate on the annihilator sphere.  For a point the annihilator
sphere is the psi circle; for a curve it is the two-point set {+1, -1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual
from .atlas import TangentVec
from .errors import FinslerError, ImmersionError, NumericalFailure
from .geodesic import (DEFAULT_ATOL, DEFAULT_RTOL, linearized_flow,
                       linearized_flows)
from .metric import legendre_inverse

ORTH_TOL = 1e-7
CONE_STEP = 1e-6            # central-difference step of cone_variation_data


class SubmanifoldSpec:
    """Immersion of a k-dimensional parameter domain into a chart: a point
    (k = 0) or a curve (k = 1)."""

    def __init__(self, chart, k, theta_box, immersion_fn, periodic=None,
                 jacobian_fn=None):
        if k not in (0, 1):
            raise ValueError(f"a source in a surface is a point or a curve "
                             f"(k = 0 or 1), not k = {k}")
        self.chart = chart
        self.k = k
        self.theta_box = np.asarray(theta_box, dtype=float).reshape(2, -1) \
            if k else np.zeros((2, 0))
        self.immersion_fn = immersion_fn     # dual-safe theta -> coord list
        self.periodic = ([False] * k if periodic is None else list(periodic))
        self._jacobian_fn = jacobian_fn

    def point(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float)) if self.k \
            else np.zeros(0)
        return np.array([dual.real(c) for c in self.immersion_fn(list(theta))])

    def jacobian(self, theta):
        """2 x k Jacobian of the immersion."""
        if self.k == 0:
            return np.zeros((2, 0))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self._jacobian_fn is not None:
            return np.asarray(self._jacobian_fn(theta), dtype=float)
        out = self.immersion_fn(dual.seed(list(theta), [[1.0]]))
        return np.array([[dual.extract(c, 1)] for c in out])

    def wrap_theta(self, theta):
        """theta of a curve, wrapped into its box when the curve is closed."""
        out = np.atleast_1d(np.asarray(theta, dtype=float)).copy()
        if self.periodic[0]:
            lo, hi = self.theta_box[0, 0], self.theta_box[1, 0]
            out[0] = lo + np.mod(out[0] - lo, hi - lo)
        return out


# -- families ------------------------------------------------------------


def point_submanifold(chart, x):
    x = np.asarray(x, dtype=float)
    return SubmanifoldSpec(chart, 0, (), lambda th: list(x))


def circle_submanifold(chart=0, center=(0.0, 0.0), radius=1.0):
    return ellipse_submanifold(chart, radius, radius, center)


def ellipse_submanifold(chart=0, a=2.0, b=1.0, center=(0.0, 0.0)):
    cx, cy = center

    def imm(th):
        t = th[0]
        return [cx + a * _dcos(t), cy + b * _dsin(t)]

    return SubmanifoldSpec(
        chart, 1, [[0.0], [2 * np.pi]], imm, periodic=[True],
        jacobian_fn=lambda th: _ellipse_jacobian(a, b, th[0]))


def axis_line_submanifold(chart=0, point=(0.0, 0.0), direction=(0.0, 1.0),
                          half_extent=4.0):
    p = np.asarray(point, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)

    def imm(th):
        t = th[0]
        return [p[i] + d[i] * t for i in range(len(p))]

    return SubmanifoldSpec(chart, 1, [[-half_extent], [half_extent]], imm)


def sampled_curve_submanifold(thetas, points, chart=0, periodic=True):
    # imported here so that the package itself loads no scipy
    from scipy.interpolate import CubicSpline
    thetas = np.asarray(thetas, dtype=float)
    points = np.asarray(points, dtype=float)
    bc = "periodic" if periodic else "not-a-knot"
    sp = CubicSpline(thetas, points, axis=0, bc_type=bc)
    dsp = sp.derivative()
    return SubmanifoldSpec(chart, 1, [[thetas[0]], [thetas[-1]]],
                           lambda th: list(sp(dual.real(th[0]))),
                           periodic=[periodic],
                           jacobian_fn=lambda th: dsp(th[0]).reshape(-1, 1))


def _ellipse_jacobian(a, b, t):
    """d/dt (a cos t, b sin t) as a 2 x 1 matrix, with the floating-point
    operations of the dual evaluation through _dcos and _dsin."""
    return [[-float(np.sin(t)) * a], [float(np.cos(t)) * b]]


def _dsin(t):
    if isinstance(t, dual.Dual):
        return dual.Dual(_dsin(t.re), t.du * _dcos(t.re))
    return float(np.sin(t))


def _dcos(t):
    if isinstance(t, dual.Dual):
        return dual.Dual(_dcos(t.re), -t.du * _dsin(t.re))
    return float(np.cos(t))


# -- normal cone ---------------------------------------------------------


@dataclass
class NormalRay:
    theta: np.ndarray
    psi: np.ndarray
    chart: int
    x: np.ndarray
    v: np.ndarray
    orth_residual: float = 0.0

    def tangent(self) -> TangentVec:
        return TangentVec(self.chart, self.x, self.v)


def tangent_frame(N: SubmanifoldSpec, theta) -> np.ndarray:
    """Immersion Jacobian, checked for rank: a curve's speed |c'(theta)|
    is its one singular value."""
    J = N.jacobian(theta)
    if N.k:
        speed = math.hypot(J[0, 0], J[1, 0])
        if speed <= 1e-8:
            raise ImmersionError(
                f"immersion rank-deficient at theta={theta} "
                f"(|c'(theta)|={speed:.3g})")
    return J


def annihilator_basis(N: SubmanifoldSpec, theta) -> np.ndarray:
    """Orthonormal (coordinate) basis of covectors annihilating T_pN.

    Returned as a 2 x (2-k) matrix of column covectors: the identity for a
    point; for a curve, the unit tangent rotated by +90 degrees, which is
    smooth in theta.
    """
    J = tangent_frame(N, theta)
    if N.k == 0:
        return np.eye(2)
    t = J[:, 0] / np.linalg.norm(J[:, 0])
    return np.array([[-t[1]], [t[0]]])


def unit_normal(metric, N: SubmanifoldSpec, theta, psi) -> NormalRay:
    """Unit normal ray: annihilator covector -> Legendre inverse -> normalize."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float)) if N.k \
        else np.zeros(0)
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    psi = psi / np.linalg.norm(psi)
    p = N.point(theta)
    B = annihilator_basis(N, theta)
    omega = B @ psi
    tv = legendre_inverse(metric, N.chart, p, omega)
    f = metric.F(tv)
    v = tv.v / f
    ray = NormalRay(theta, psi, N.chart, p, v)
    if N.k:
        g = metric.fundamental(TangentVec(N.chart, p, v))
        J = N.jacobian(theta)
        res = float(np.max(np.abs(v @ g @ J)))
        ray.orth_residual = res
        if res > ORTH_TOL:
            raise NumericalFailure(
                f"normal ray fails g-orthogonality at theta={theta}: {res:.3g}")
    return ray


def sample_unit_cone(metric, N: SubmanifoldSpec, grid):
    """Deterministic product grid over Theta and the annihilator sphere.

    grid = (theta_count, psi_count).  A point gets psi_count directions on
    the psi circle; a curve gets theta_count base points and the sides
    {+1, -1}.  Per-ray failures are collected, not fatal; returns
    (rays, failures).
    """
    theta_count, psi_count = grid
    if N.k == 0:
        thetas = [np.zeros(0)]
        angles = 2 * np.pi * np.arange(psi_count) / psi_count
        psis = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    else:
        lo, hi = N.theta_box[0, 0], N.theta_box[1, 0]
        if N.periodic[0]:
            thetas = [np.array([lo + (hi - lo) * i / theta_count])
                      for i in range(theta_count)]
        else:
            thetas = [np.array([t])
                      for t in np.linspace(lo, hi, theta_count)]
        psis = [np.array([1.0]), np.array([-1.0])]
    rays = []
    failures = []
    for theta in thetas:
        for psi in psis:
            try:
                rays.append(unit_normal(metric, N, theta, psi))
            except (FinslerError, np.linalg.LinAlgError) as exc:
                failures.append((theta, psi, exc))
    return rays, failures


def cone_variation_data(metric, N, ray: NormalRay):
    """Initial data (J0, Jd0), two 2 x 1 columns, for the one cone
    direction at a unit ray.

    A curve varies theta: J0 = immersion Jacobian column, Jd0 = d(unit
    normal)/d theta.  A point varies psi: J0 = 0, Jd0 = d(unit normal)/d psi
    along the tangent of the psi circle.  Derivatives by central
    differences on the smooth unit-normal field.
    """
    h = CONE_STEP
    if N.k:
        J0 = tangent_frame(N, ray.theta)
        vp = unit_normal(metric, N, ray.theta + h, ray.psi).v
        vm = unit_normal(metric, N, ray.theta - h, ray.psi).v
    else:
        J0 = np.zeros((2, 1))
        tang = np.array([-ray.psi[1], ray.psi[0]])
        vp = unit_normal(metric, N, ray.theta, ray.psi + h * tang).v
        vm = unit_normal(metric, N, ray.theta, ray.psi - h * tang).v
    return J0, ((vp - vm) / (2 * h)).reshape(2, 1)


def normal_jacobi_flow(metric, N, ray: NormalRay, T, rtol=DEFAULT_RTOL,
                       atol=DEFAULT_ATOL):
    """The N-Jacobi fields along one unit ray on [0, T]: the flow of its
    cone direction, whose ``signed_matrix`` is the differential of the
    normal exponential, [J | v] with v the geodesic velocity."""
    J0, Jd0 = cone_variation_data(metric, N, ray)
    return linearized_flow(metric, ray.tangent(), T, J0, Jd0, rtol=rtol,
                           atol=atol)


def normal_jacobi_flows(metric, N, rays, T, rtol=DEFAULT_RTOL,
                        atol=DEFAULT_ATOL) -> list:
    """``normal_jacobi_flow`` for many rays, the flows stepped in one batch
    (``geodesic.linearized_flows``).  Entry i is the LinearizedFrame of
    rays[i], equal to its lone flow, or the FinslerError or LinAlgError
    that its initial data or its integration raises."""
    out, starts, data = [], [], []
    for ray in rays:
        try:
            data.append(cone_variation_data(metric, N, ray))
        except (FinslerError, np.linalg.LinAlgError) as exc:
            out.append(exc)
            continue
        out.append(None)
        starts.append(ray)
    frames = iter(linearized_flows(
        metric, [ray.tangent() for ray in starts], float(T),
        [J0 for J0, _ in data], [Jd0 for _, Jd0 in data],
        rtol=rtol, atol=atol))
    return [next(frames) if got is None else got for got in out]
