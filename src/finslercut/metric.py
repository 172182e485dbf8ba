"""Finsler metric families with derivative oracles and the Legendre transform.

Derivatives of F^2 come from nested dual-number evaluation of the metric's
generic evaluator; families override hot oracles with closed forms where the
algebra is cheap (Riemannian, Randers, and the fundamental tensor of the
quartic Minkowski norm).  The geodesic engine reads the spray only through
two float oracles, ``spray`` (2G) and ``spray_jvp`` (2G and its directional
derivative), and both take rows: one (x, v) state per row, so that a batch
of geodesics is one call.  By default both loop the rows through
``spray_generic``, the latter on dual numbers.  The round sphere overrides
them with closed forms that repeat the floating-point operations of that
default, in order, on arrays, so its geodesics and Jacobi fields are the
same to the last bit.  For an x-independent metric the spray vanishes:
``spray_generic``, ``spray`` and ``spray_jvp`` return zeros, the last
without evaluating anything, and a reversed metric negates the velocity
rows.  The dual-number oracles stay as the fallback for
custom metrics and as the reference the closed forms are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .atlas import TangentVec
from .errors import (ConvexityError, DegenerateDirectionError, InversionError)

V_FLOOR = 1e-12
INVERSE_TOL = 1e-10         # inversion residual stop, relative to 1 + |omega|
INVERSE_ITERS = 100         # Newton iteration cap of the Legendre inversion
VALIDATE_POINTS = 12        # base points sampled by validate_metric
VALIDATE_DIRS = 16          # unit directions sampled at each base point
VALIDATE_BOX = ((-0.8, -0.8), (0.8, 0.8))   # chart-0 box of the base points


@dataclass
class FundamentalTensor:
    base: TangentVec
    g: np.ndarray


@dataclass
class Covector:
    chart: int
    x: np.ndarray
    omega: np.ndarray


def _check_dir(v):
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) < V_FLOOR:
        raise DegenerateDirectionError("operation requires |v| > 1e-12")
    return v


class MetricField:
    """Base class; subclasses provide ``value_generic`` (dual-safe)."""

    reversible = False
    x_independent = False

    def __init__(self, atlas):
        self.atlas = atlas

    # -- core evaluator --------------------------------------------------

    def value_generic(self, chart, x, v):
        """F(chart, x, v) over generic (possibly dual) scalars."""
        raise NotImplementedError

    def F(self, p: TangentVec) -> float:
        self.atlas.require(p.chart, p.x)
        if np.linalg.norm(p.v) < V_FLOOR:
            return 0.0
        return float(dual.real(self.value_generic(p.chart, list(p.x), list(p.v))))

    # -- derivative oracles ---------------------------------------------

    def fundamental(self, p: TangentVec) -> np.ndarray:
        """v-Hessian of F^2/2 at (x, v)."""
        v = _check_dir(p.v)
        x = [float(c) for c in p.x]

        def f2(vv):
            val = self.value_generic(p.chart, x, vv)
            return val * val

        h = dual.hessian(f2, [float(c) for c in v])
        return 0.5 * np.array(h)

    def cartan(self, p: TangentVec) -> np.ndarray:
        """Third v-derivative tensor of F^2/4."""
        _check_dir(p.v)
        x = [float(c) for c in p.x]

        def f2(vv):
            val = self.value_generic(p.chart, x, vv)
            return val * val

        t = dual.third_tensor(f2, [float(c) for c in p.v])
        return 0.25 * np.array(t)

    # -- spray (consumed by the geodesic engine) -------------------------

    def spray_generic(self, chart, x, v):
        """2G(x, v) with generic scalars; geodesic equation x'' + 2G = 0."""
        n = self.atlas.dim
        if self.x_independent:
            return [0.0] * n

        def f2(z):
            val = self.value_generic(chart, z[:n], z[n:])
            return val * val

        z = list(x) + list(v)
        # gradient in x and Hessian blocks via nested duals on top of the
        # caller's (possibly dual) inputs
        ex = [[1.0 if a == j else 0.0 for a in range(2 * n)] for j in range(n)]
        ev = [[1.0 if a == n + i else 0.0 for a in range(2 * n)]
              for i in range(n)]
        Lx = [0.5 * dual.nested_directional(f2, z, [ex[j]])
              for j in range(n)]
        g = [[0.5 * dual.nested_directional(f2, z, [ev[i], ev[j]])
              for j in range(n)] for i in range(n)]
        M = [[0.5 * dual.nested_directional(f2, z, [ev[i], ex[j]])
              for j in range(n)] for i in range(n)]
        rhs = [sum(M[i][j] * v[j] for j in range(n)) - Lx[i] for i in range(n)]
        return _solve_generic(g, rhs)

    def spray(self, chart, x, v):
        """2G at each row (x[r], v[r]) of the (k, n) arrays x and v, as a
        (k, n) float array: ``spray_generic`` row by row, or zeros for an
        x-independent metric."""
        x = np.asarray(x, dtype=float)
        if self.x_independent:
            return np.zeros(x.shape)
        return np.array([[dual.real(c) for c in
                          self.spray_generic(chart, list(xr), list(vr))]
                         for xr, vr in zip(x, np.asarray(v, dtype=float))])

    def spray_jvp(self, chart, x, v, dx, dv):
        """2G at each row and its derivative along each column of (dx, dv).

        ``x`` and ``v`` are (k, n) rows and ``dx``, ``dv`` are (k, n, m).
        Returns ``(s, ds)``: ``s`` is ``spray(chart, x, v)`` and
        ``ds[r, :, c]`` is d/dt 2G(x[r] + t dx[r, :, c], v[r] + t dv[r, :, c])
        at t = 0, from one dual-number evaluation of ``spray_generic`` per
        row and column; both are zero for an x-independent metric.
        """
        n = self.atlas.dim
        dx = np.asarray(dx, dtype=float)
        if self.x_independent:
            return np.zeros((len(dx), n)), np.zeros(dx.shape)
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        dv = np.asarray(dv, dtype=float)
        ds = np.empty(dx.shape)
        for r in range(len(dx)):
            z = list(x[r]) + list(v[r])
            for c in range(dx.shape[2]):
                d = list(dx[r, :, c]) + list(dv[r, :, c])
                out = self.spray_generic(chart, *_split_seed(z, d, n))
                ds[r, :, c] = [_d1(o) for o in out]
        return self.spray(chart, x, v), ds

    # -- misc ------------------------------------------------------------

    def reversed_(self) -> "MetricField":
        return ReversedMetric(self)


def _split_seed(z, d, n):
    """(x, v) halves of the point z lifted to duals along the direction d."""
    zz = dual.seed(z, [d])
    return zz[:n], zz[n:]


def _d1(o):
    return dual.real(dual.dpart(o))


def _solve_generic(A, b):
    """Gaussian elimination with partial pivoting over generic scalars."""
    n = len(b)
    A = [row[:] for row in A]
    b = list(b)
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(dual.real(A[r][k])))
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            b[k], b[piv] = b[piv], b[k]
        for r in range(k + 1, n):
            m = A[r][k] / A[k][k]
            for c in range(k + 1, n):
                A[r][c] = A[r][c] - m * A[k][c]
            b[r] = b[r] - m * b[k]
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        s = b[k]
        for c in range(k + 1, n):
            s = s - A[k][c] * x[c]
        x[k] = s / A[k][k]
    return x


# -- families ------------------------------------------------------------


class RiemannianMetric(MetricField):
    """F = sqrt(v^T a(x) v) for a chart-dependent SPD matrix function.

    ``matrix_fn(chart, x)`` must be dual-safe; ``dmatrix_fn(chart, x)``,
    when supplied, returns the stack d a / d x_j and enables the fast
    analytic spray.
    """

    reversible = True

    def __init__(self, atlas, matrix_fn, dmatrix_fn=None, constant=False):
        super().__init__(atlas)
        self.matrix_fn = matrix_fn
        self.dmatrix_fn = dmatrix_fn
        self.x_independent = constant

    def value_generic(self, chart, x, v):
        a = self.matrix_fn(chart, x)
        n = len(v)
        q = 0.0
        for i in range(n):
            for j in range(n):
                q = q + a[i][j] * v[i] * v[j]
        return dual.sqrt(q)

    def fundamental(self, p):
        _check_dir(p.v)
        a = self.matrix_fn(p.chart, [float(c) for c in p.x])
        return np.array([[dual.real(a[i][j]) for j in range(self.atlas.dim)]
                         for i in range(self.atlas.dim)])

    def cartan(self, p):
        _check_dir(p.v)
        n = self.atlas.dim
        return np.zeros((n, n, n))

    def spray_generic(self, chart, x, v):
        n = self.atlas.dim
        if self.x_independent:
            return [0.0] * n
        if self.dmatrix_fn is None:
            return super().spray_generic(chart, x, v)
        a = self.matrix_fn(chart, x)
        da = self.dmatrix_fn(chart, x)  # da[j][i][l] = d a_il / d x_j
        rhs = []
        for i in range(n):
            s = 0.0
            for j in range(n):
                for l in range(n):
                    s = s + da[j][i][l] * v[j] * v[l]
            for k in range(n):
                for l in range(n):
                    s = s - 0.5 * da[i][k][l] * v[k] * v[l]
            rhs.append(s)
        return _solve_generic([[a[i][j] for j in range(n)] for i in range(n)],
                              rhs)


def euclidean_metric(atlas):
    n = atlas.dim
    eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    return RiemannianMetric(atlas, lambda chart, x: eye, constant=True)


def _round_matrix(chart, x):
    r2 = x[0] * x[0] + x[1] * x[1]
    phi = 4.0 / ((1.0 + r2) * (1.0 + r2))
    return [[phi, 0.0], [0.0, phi]]


def _round_dmatrix(chart, x):
    # dmat[j][i][l]: diagonal conformal, so d a_il / d x_j = c x_j delta_il
    r2 = x[0] * x[0] + x[1] * x[1]
    c = -16.0 / ((1.0 + r2) ** 3)
    return [[[c * x[j] if i == l else 0.0 for l in range(2)]
             for i in range(2)] for j in range(2)]


def _round_spray(x0, x1, v0, v1, cube):
    """2G of the round metric from the coordinates of one state as floats,
    or of many as arrays; ``cube`` is float pow 3 on the same: numpy's
    array power can differ from it in the last bit."""
    r2 = x0 * x0 + x1 * x1
    phi = 4.0 / ((1.0 + r2) * (1.0 + r2))
    c = -16.0 / cube(1.0 + r2)
    d0 = c * x0
    d1 = c * x1
    s0 = (0.0 + d0 * v0 * v0 + d1 * v1 * v0
          - 0.5 * d0 * v0 * v0 - 0.5 * d0 * v1 * v1)
    s1 = (0.0 + d0 * v0 * v1 + d1 * v1 * v1
          - 0.5 * d1 * v0 * v0 - 0.5 * d1 * v1 * v1)
    return s0 / phi, s1 / phi


def _cube_rows(b):
    return np.array([c ** 3 for c in b.tolist()])


def _round_spray_d(x0, x1, v0, v1, a0, a1, w0, w1):
    """Derivative of 2G along (dx, dv) = (a, w), floats or broadcasting
    arrays: the dual parts of the dual-number evaluation."""
    # real parts of the dual evaluation; there (1 + r2) ** 3 is
    # Dual.__pow__'s b * (b * b), not the float pow of ``spray``
    r2 = x0 * x0 + x1 * x1
    b = r2 + 1.0
    bb = b * b
    phi = 4.0 / bb
    b3 = b * bb
    c = -16.0 / b3
    d0 = c * x0
    d1 = c * x1
    h0 = d0 * 0.5
    h1 = d1 * 0.5
    p0 = d0 * v0
    p1 = d1 * v1
    q00 = h0 * v0
    q01 = h0 * v1
    q10 = h1 * v0
    q11 = h1 * v1
    s0 = p0 * v0 + 0.0 + p1 * v0 - q00 * v0 - q01 * v1
    s1 = p0 * v1 + 0.0 + p1 * v1 - q10 * v0 - q11 * v1
    pp = phi * phi
    # dual parts, operand for operand as Dual.__mul__/__truediv__
    bd = (x0 * a0 + a0 * x0) + (x1 * a1 + a1 * x1)
    bbd = b * bd + bd * b
    phid = -4.0 * bbd / (bb * bb)
    cd = 16.0 * (b * bbd + bd * bb) / (b3 * b3)
    d0d = c * a0 + cd * x0
    d1d = c * a1 + cd * x1
    h0d = d0d * 0.5
    h1d = d1d * 0.5
    p0d = d0 * w0 + d0d * v0
    p1d = d1 * w1 + d1d * v1
    q00d = h0 * w0 + h0d * v0
    q01d = h0 * w1 + h0d * v1
    q10d = h1 * w0 + h1d * v0
    q11d = h1 * w1 + h1d * v1
    s0d = ((p0 * w0 + p0d * v0) + (p1 * w0 + p1d * v0)
           - (q00 * w0 + q00d * v0) - (q01 * w1 + q01d * v1))
    s1d = ((p0 * w1 + p0d * v1) + (p1 * w1 + p1d * v1)
           - (q10 * w0 + q10d * v0) - (q11 * w1 + q11d * v1))
    return (s0d * phi - s0 * phid) / pp, (s1d * phi - s1 * phid) / pp


class RoundSphereMetric(RiemannianMetric):
    """Round metric 4/(1+|x|^2)^2 dx^2 on the two-chart stereographic atlas.

    ``spray`` and ``spray_jvp`` write out the analytic ``spray_generic``
    branch for a = phi(x) I.  They repeat, in the same order, the
    floating-point operations of its float evaluation (``spray`` and the
    value half of ``spray_jvp``) and of the dual parts of its dual-number
    evaluation (the derivative half): on Python floats for one row, and
    elementwise on arrays for several, with the one power of ``spray`` a
    float pow per row either way.  The only operations left out are the
    additions of the exactly-zero off-diagonal terms of d a; for finite
    inputs they change no value, at most the sign of a zero.  The results
    therefore equal the dual-number path's.
    """

    def __init__(self, atlas):
        super().__init__(atlas, _round_matrix, dmatrix_fn=_round_dmatrix)

    def spray(self, chart, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if len(x) == 1:
            (x0, x1), (v0, v1) = x[0].tolist(), v[0].tolist()
            return np.array([_round_spray(x0, x1, v0, v1, lambda b: b ** 3)])
        return np.stack(_round_spray(x[:, 0], x[:, 1], v[:, 0], v[:, 1],
                                     _cube_rows), axis=1)

    def spray_jvp(self, chart, x, v, dx, dv):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        dx = np.asarray(dx, dtype=float)
        dv = np.asarray(dv, dtype=float)
        if len(x) == 1:
            (x0, x1), (v0, v1) = x[0].tolist(), v[0].tolist()
            (a0s, a1s), (w0s, w1s) = dx[0].tolist(), dv[0].tolist()
            cols = [_round_spray_d(x0, x1, v0, v1, a0, a1, w0, w1)
                    for a0, a1, w0, w1 in zip(a0s, a1s, w0s, w1s)]
            ds = np.array(cols).T[None]
        else:
            # per-row values as (k, 1) columns against (k, m) directions
            ds = np.stack(_round_spray_d(
                x[:, 0:1], x[:, 1:2], v[:, 0:1], v[:, 1:2],
                dx[:, 0], dx[:, 1], dv[:, 0], dv[:, 1]), axis=1)
        return self.spray(chart, x, v), ds


def sphere_metric(atlas):
    """Round metric 4/(1+|x|^2)^2 dx^2 on the two-chart stereographic atlas."""
    return RoundSphereMetric(atlas)


class RandersMetric(MetricField):
    """F = sqrt(a(v, v)) + b . v with constant a, b and |b|_a < 1."""

    reversible = False
    x_independent = True

    def __init__(self, atlas, b, a=None, enforce=True):
        super().__init__(atlas)
        n = atlas.dim
        self.a = np.eye(n) if a is None else np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        bnorm = float(np.sqrt(self.b @ np.linalg.solve(self.a, self.b)))
        if enforce and bnorm >= 1.0:
            raise ConvexityError(
                f"Randers drift |b|_a = {bnorm:.4g} >= 1 breaks strong convexity")

    def value_generic(self, chart, x, v):
        n = len(v)
        q = 0.0
        for i in range(n):
            for j in range(n):
                q = q + self.a[i, j] * v[i] * v[j]
        lin = 0.0
        for i in range(n):
            lin = lin + self.b[i] * v[i]
        return dual.sqrt(q) + lin

    def fundamental(self, p):
        v = _check_dir(p.v)
        av = self.a @ v
        alpha = float(np.sqrt(v @ av))
        ell = av / alpha
        f = alpha + float(self.b @ v)
        lb = ell + self.b
        return np.outer(lb, lb) + f * (self.a / alpha
                                       - np.outer(av, av) / alpha ** 3)

    def reversed_(self):
        return RandersMetric(self.atlas, -self.b, self.a)


class MinkowskiQuarticMetric(MetricField):
    """Reversible non-Riemannian norm F^2 = |v|^2 + eps * sum v_i^4 / |v|^2."""

    reversible = True
    x_independent = True

    def __init__(self, atlas, eps=0.1):
        super().__init__(atlas)
        self.eps = float(eps)

    def value_generic(self, chart, x, v):
        q = 0.0
        s = 0.0
        for c in v:
            c2 = c * c
            q = q + c2
            s = s + c2 * c2
        return dual.sqrt(q + self.eps * s / q)

    def fundamental(self, p):
        """Hessian of L = F^2/2.  With q = |v|^2 and s = sum v_i^4,
        g = (1 - eps s/q^2) I + diag(6 eps v^2/q) + (4 eps s/q^3) v v^T
            - (4 eps/q^2)(v^3 v^T + v v^3^T),
        evaluated as the diagonal minus the rank-2 term v w^T + w v^T."""
        v = _check_dir(p.v)
        eps = self.eps
        v2 = v * v
        q = float(v2.sum())
        s = float(v2 @ v2)
        w = (4.0 * eps / (q * q)) * (v2 - 0.5 * s / q) * v
        vw = np.outer(v, w)
        g = np.diag((1.0 - eps * s / (q * q)) + (6.0 * eps / q) * v2)
        g -= vw
        g -= vw.T
        return g


class CustomMetric(MetricField):
    def __init__(self, atlas, fn, reversible=False, x_independent=False):
        super().__init__(atlas)
        self._fn = fn
        self.reversible = reversible
        self.x_independent = x_independent

    def value_generic(self, chart, x, v):
        return self._fn(chart, x, v)


class ReversedMetric(MetricField):
    """F_bar(x, v) = F(x, -v) with all oracles rewired."""

    def __init__(self, base):
        super().__init__(base.atlas)
        self.base = base
        self.reversible = base.reversible
        self.x_independent = base.x_independent

    def value_generic(self, chart, x, v):
        return self.base.value_generic(chart, x, [-c for c in v])

    def fundamental(self, p):
        return self.base.fundamental(TangentVec(p.chart, p.x, -p.v))

    def cartan(self, p):
        return -self.base.cartan(TangentVec(p.chart, p.x, -p.v))

    # a reversed F-geodesic c(t) = gamma(-t) solves c'' + 2G(c, -c') = 0
    def spray_generic(self, chart, x, v):
        return self.base.spray_generic(chart, x, [-c for c in v])

    def spray(self, chart, x, v):
        return self.base.spray(chart, x, -np.asarray(v, dtype=float))

    def spray_jvp(self, chart, x, v, dx, dv):
        return self.base.spray_jvp(chart, x, -np.asarray(v, dtype=float), dx,
                                   -np.asarray(dv, dtype=float))

    def reversed_(self):
        return self.base


# -- module-level operations ---------------------------------------------


def fundamental_tensor(metric, p: TangentVec) -> FundamentalTensor:
    g = metric.fundamental(p)
    w = np.linalg.eigvalsh(0.5 * (g + g.T))
    if w[0] <= 0:
        raise ConvexityError(
            f"fundamental tensor not positive definite at x={p.x}, v={p.v} "
            f"(min eigenvalue {w[0]:.3g})", x=p.x, v=p.v)
    return FundamentalTensor(p, g)


def legendre(metric, p: TangentVec) -> Covector:
    if np.linalg.norm(p.v) < V_FLOOR:
        return Covector(p.chart, np.asarray(p.x, float), np.zeros(len(p.x)))
    g = metric.fundamental(p)
    return Covector(p.chart, np.asarray(p.x, float), g @ p.v)


def legendre_inverse(metric, chart, x, omega) -> TangentVec:
    """Newton inversion of v -> g_v(v, .) from v = omega, Jacobian =
    fundamental tensor."""
    omega = np.asarray(omega, dtype=float)
    x = np.asarray(x, dtype=float)
    onorm = float(np.linalg.norm(omega))
    if onorm < V_FLOOR:
        return TangentVec(chart, x, np.zeros_like(omega))
    tol = INVERSE_TOL * (1.0 + onorm)
    v = omega.copy()
    for _ in range(INVERSE_ITERS):
        p = TangentVec(chart, x, v)
        g = metric.fundamental(p)
        r = g @ v - omega
        if np.linalg.norm(r) <= tol:
            return p
        # the 2 x 2 Newton step g^-1 r by Cramer's rule
        (a, b), (c, d) = g.tolist()
        det = a * d - b * c
        if det == 0.0:
            raise np.linalg.LinAlgError("singular fundamental tensor")
        r0, r1 = r.tolist()
        step = np.array([d * r0 - b * r1, a * r1 - c * r0]) / det
        # damped update keeps v away from the slit origin
        vn = v - step
        while np.linalg.norm(vn) < V_FLOOR:
            step *= 0.5
            vn = v - step
        v = vn
    raise InversionError(
        f"Legendre inversion stalled, residual {np.linalg.norm(r):.3g}",
        residual=float(np.linalg.norm(r)))


@dataclass
class MetricReport:
    homogeneity_max: float
    min_eigenvalue: float
    cartan_contraction_max: float
    reversibility_max: float
    identity_max: float
    passed: bool
    failures: list


def validate_metric(metric, seed=0) -> MetricReport:
    """Sample-based check of homogeneity, convexity, Cartan and
    reversibility at random points of chart 0, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(VALIDATE_BOX[0], float)
    hi = np.asarray(VALIDATE_BOX[1], float)
    n = metric.atlas.dim
    failures = []
    hom_max = 0.0
    eig_min = np.inf
    cart_max = 0.0
    rev_max = 0.0
    ident_max = 0.0
    for _ in range(VALIDATE_POINTS):
        x = rng.uniform(lo, hi)
        for _ in range(VALIDATE_DIRS):
            v = rng.normal(size=n)
            v /= np.linalg.norm(v)
            p = TangentVec(0, x, v)
            f = metric.F(p)
            for lam in (0.5, 2.0, 10.0):
                fl = metric.F(TangentVec(0, x, lam * v))
                res = abs(fl - lam * f) / (1.0 + lam * f)
                hom_max = max(hom_max, res)
                if res > 1e-9:
                    failures.append(("homogeneity", x.copy(), v.copy(), res))
            try:
                g = metric.fundamental(p)
                w = float(np.linalg.eigvalsh(0.5 * (g + g.T))[0])
                eig_min = min(eig_min, w)
                if w <= 0:
                    failures.append(("convexity", x.copy(), v.copy(), w))
                ident = abs(v @ g @ v - f * f) / max(f * f, 1.0)
                ident_max = max(ident_max, ident)
                if ident > 1e-9:
                    failures.append(("gvv-identity", x.copy(), v.copy(), ident))
            except ConvexityError as exc:
                failures.append(("convexity", x.copy(), v.copy(), str(exc)))
            if metric.reversible:
                fr = metric.F(TangentVec(0, x, -v))
                res = abs(fr - f) / (1.0 + f)
                rev_max = max(rev_max, res)
                if res > 1e-10:
                    failures.append(("reversibility", x.copy(), v.copy(), res))
        # Cartan contraction on a couple of directions per point
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        p = TangentVec(0, x, v)
        try:
            C = metric.cartan(p)
            contr = float(np.max(np.abs(np.einsum("ijk,i->jk", C, v))))
            cart_max = max(cart_max, contr)
            if contr > 1e-9:
                failures.append(("cartan-contraction", x.copy(), v.copy(), contr))
        except ConvexityError:
            pass
    passed = not failures
    return MetricReport(hom_max, float(eig_min), cart_max, rev_max,
                        ident_max, passed, failures)
