"""Immersed submanifolds, normal cones via the Legendre transform, and the
normal exponential map with its differential.

The normal cone at p is computed through the annihilator of T_pN (a linear
space, found by robust linear algebra) followed by Legendre inversion, and
unit rays are indexed by (theta, psi): base parameter plus a unit coordinate
on the annihilator sphere.  For hypersurfaces the annihilator sphere is the
two-point set {+1, -1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dual
from .atlas import TangentVec
from .errors import FinslerError, ImmersionError, NumericalFailure
from .geodesic import exp_map, linearized_flow, integrate_geodesic
from .metric import legendre_inverse

ORTH_TOL = 1e-7


class SubmanifoldSpec:
    """Immersion of a k-dimensional parameter domain into a chart."""

    family = "custom"

    def __init__(self, chart, k, theta_box, immersion_fn, periodic=None,
                 closed=False, jacobian_fn=None):
        self.chart = chart
        self.k = k
        self.theta_box = np.asarray(theta_box, dtype=float).reshape(2, -1) \
            if k else np.zeros((2, 0))
        self.immersion_fn = immersion_fn     # dual-safe theta -> coord list
        self.periodic = ([False] * k if periodic is None else list(periodic))
        self.closed = closed
        self._jacobian_fn = jacobian_fn

    def point(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float)) if self.k \
            else np.zeros(0)
        return np.array([dual.real(c) for c in self.immersion_fn(list(theta))])

    def jacobian(self, theta):
        """n x k Jacobian of the immersion."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float)) if self.k \
            else np.zeros(0)
        if self.k == 0:
            return np.zeros((len(self.point(theta)), 0))
        if self._jacobian_fn is not None:
            return np.asarray(self._jacobian_fn(theta), dtype=float)
        cols = []
        for a in range(self.k):
            e = [1.0 if i == a else 0.0 for i in range(self.k)]
            out = self.immersion_fn(dual.seed(list(theta), [e]))
            cols.append([dual.extract(c, 1) for c in out])
        return np.array(cols).T

    def wrap_theta(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float)) if self.k \
            else np.zeros(0)
        out = theta.copy()
        for a in range(self.k):
            if self.periodic[a]:
                lo, hi = self.theta_box[0, a], self.theta_box[1, a]
                out[a] = lo + np.mod(out[a] - lo, hi - lo)
        return out


# -- families ------------------------------------------------------------


def point_submanifold(chart, x):
    x = np.asarray(x, dtype=float)
    N = SubmanifoldSpec(chart, 0, (), lambda th: list(x), closed=True)
    N.family = "point"
    return N


def circle_submanifold(chart=0, center=(0.0, 0.0), radius=1.0):
    cx, cy = center

    def imm(th):
        from math import cos, sin  # only reached with float theta
        t = th[0]
        if isinstance(t, dual.Dual):
            return [cx + radius * _dcos(t), cy + radius * _dsin(t)]
        return [cx + radius * cos(t), cy + radius * sin(t)]

    N = SubmanifoldSpec(chart, 1, [[0.0], [2 * np.pi]], imm,
                        periodic=[True], closed=True,
                        jacobian_fn=lambda th: _ellipse_jacobian(
                            radius, radius, th[0]))
    N.family = "circle"
    return N


def ellipse_submanifold(chart=0, a=2.0, b=1.0, center=(0.0, 0.0)):
    cx, cy = center

    def imm(th):
        t = th[0]
        return [cx + a * _dcos(t), cy + b * _dsin(t)]

    N = SubmanifoldSpec(chart, 1, [[0.0], [2 * np.pi]], imm,
                        periodic=[True], closed=True,
                        jacobian_fn=lambda th: _ellipse_jacobian(a, b, th[0]))
    N.family = "ellipse"
    return N


def axis_line_submanifold(chart=0, point=(0.0, 0.0), direction=(0.0, 1.0),
                          half_extent=5.0):
    p = np.asarray(point, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)

    def imm(th):
        t = th[0]
        return [p[i] + d[i] * t for i in range(len(p))]

    N = SubmanifoldSpec(chart, 1, [[-half_extent], [half_extent]], imm,
                        closed=False)
    N.family = "axis-line"
    return N


def sampled_curve_submanifold(thetas, points, chart=0, periodic=True):
    # imported here so that the package itself loads no scipy
    from scipy.interpolate import CubicSpline
    thetas = np.asarray(thetas, dtype=float)
    points = np.asarray(points, dtype=float)
    bc = "periodic" if periodic else "not-a-knot"
    sp = CubicSpline(thetas, points, axis=0, bc_type=bc)
    dsp = sp.derivative()
    N = SubmanifoldSpec(chart, 1, [[thetas[0]], [thetas[-1]]],
                        lambda th: list(sp(dual.real(th[0]))),
                        periodic=[periodic], closed=periodic,
                        jacobian_fn=lambda th: dsp(th[0]).reshape(-1, 1))
    N.family = "sampled-curve"
    return N


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
    J = N.jacobian(theta)
    if N.k:
        sv = np.linalg.svd(J, compute_uv=False)
        if sv[-1] <= 1e-8:
            raise ImmersionError(
                f"immersion rank-deficient at theta={theta} "
                f"(sigma_min={sv[-1]:.3g})")
    return J


def annihilator_basis(N: SubmanifoldSpec, theta) -> np.ndarray:
    """Orthonormal (coordinate) basis of covectors annihilating T_pN.

    Returned as an n x (n-k) matrix of column covectors.  For plane curves
    the basis rotates the unit tangent by +90 degrees, which is smooth in
    theta; the generic branch uses an SVD null space.
    """
    J = tangent_frame(N, theta)
    n = J.shape[0]
    if N.k == 0:
        return np.eye(n)
    if n == 2 and N.k == 1:
        t = J[:, 0] / np.linalg.norm(J[:, 0])
        return np.array([[-t[1]], [t[0]]])
    from scipy.linalg import null_space     # only n >= 3 gets here
    return null_space(J.T)


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

    grid = (theta_count, psi_count).  For hypersurfaces the psi sphere is
    {+1, -1}.  Per-ray failures are collected, not fatal; returns
    (rays, failures).
    """
    theta_count, psi_count = grid
    n = metric.atlas.dim
    codim = n - N.k
    if N.k == 0:
        thetas = [np.zeros(0)]
    else:
        lo, hi = N.theta_box[0, 0], N.theta_box[1, 0]
        if N.periodic[0]:
            thetas = [np.array([lo + (hi - lo) * i / theta_count])
                      for i in range(theta_count)]
        else:
            thetas = [np.array([t])
                      for t in np.linspace(lo, hi, theta_count)]
    if codim == 1:
        psis = [np.array([1.0]), np.array([-1.0])]
    elif codim == 2:
        angles = 2 * np.pi * np.arange(psi_count) / psi_count
        psis = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    else:
        raise NotImplementedError("cone sampling beyond codimension 2")
    rays = []
    failures = []
    for theta in thetas:
        for psi in psis:
            try:
                rays.append(unit_normal(metric, N, theta, psi))
            except (FinslerError, np.linalg.LinAlgError) as exc:
                failures.append((theta, psi, exc))
    return rays, failures


def normal_exp(metric, N, ray: NormalRay, t, rtol=None, atol=None):
    """exp_p(t v) for a unit normal ray; t = 0 returns the base point."""
    if t == 0:
        return (ray.chart, ray.x.copy())
    kwargs = {}
    if rtol is not None:
        kwargs["rtol"] = rtol
    if atol is not None:
        kwargs["atol"] = atol
    return exp_map(metric, (ray.chart, ray.x), t * ray.v, **kwargs)


def cone_variation_data(metric, N, ray: NormalRay, h=1e-6):
    """Initial data (J0, Jd0) for the n-1 cone directions at a unit ray.

    theta-columns: J0 = immersion Jacobian column, Jd0 = d(unit normal)/d
    theta; psi-columns: J0 = 0, Jd0 = d(unit normal)/d psi along the
    annihilator sphere tangent.  Derivatives by central differences on the
    smooth unit-normal field.
    """
    n = metric.atlas.dim
    cols_J0 = []
    cols_Jd0 = []
    if N.k:
        J = tangent_frame(N, ray.theta)
        for a in range(N.k):
            e = np.zeros(N.k)
            e[a] = h
            vp = unit_normal(metric, N, ray.theta + e, ray.psi).v
            vm = unit_normal(metric, N, ray.theta - e, ray.psi).v
            cols_J0.append(J[:, a])
            cols_Jd0.append((vp - vm) / (2 * h))
    codim = n - N.k
    if codim == 2:
        # tangent to the psi circle
        tang = np.array([-ray.psi[1], ray.psi[0]])
        vp = unit_normal(metric, N, ray.theta, ray.psi + h * tang).v
        vm = unit_normal(metric, N, ray.theta, ray.psi - h * tang).v
        cols_J0.append(np.zeros(n))
        cols_Jd0.append((vp - vm) / (2 * h))
    return np.array(cols_J0).T, np.array(cols_Jd0).T


class NormalJacobiFlow:
    """Differential of the normal exponential along one unit ray.

    Columns are the N-Jacobi fields of the cone directions plus the radial
    direction (the geodesic velocity).
    """

    def __init__(self, metric, N, ray, T, rtol=None, atol=None):
        self.metric = metric
        self.N = N
        self.ray = ray
        self.T = float(T)
        J0, Jd0 = cone_variation_data(metric, N, ray)
        kwargs = {}
        if rtol is not None:
            kwargs["rtol"] = rtol
        if atol is not None:
            kwargs["atol"] = atol
        self.frame = linearized_flow(metric, ray.tangent(), self.T,
                                     J0, Jd0, **kwargs)

    def signed_matrix(self, t):
        """(matrix(t), orientation sign of the chart at t), one path read."""
        _, _, v, J, _, sign = self.frame._blocks(t)
        return np.column_stack([J, v]), sign

    def matrix(self, t) -> np.ndarray:
        return self.signed_matrix(t)[0]


def normal_jacobian(metric, N, ray: NormalRay, t) -> np.ndarray:
    """Differential of exp^nu at t v in the (theta, psi, radial) basis."""
    if t <= 0:
        raise ValueError("normal_jacobian requires t > 0")
    return NormalJacobiFlow(metric, N, ray, t).matrix(t)
