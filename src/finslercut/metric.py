"""Finsler metric families with derivative oracles and the Legendre transform.

Derivatives of F^2 come from nested dual-number evaluation of the metric's
generic evaluator; families override hot oracles with closed forms where the
algebra is cheap (Riemannian, Randers, and the fundamental tensor of the
quartic Minkowski norm).  The dual-number oracles stay as the fallback for
custom metrics and as the reference the closed forms are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .atlas import TangentVec
from .errors import (ConvexityError, DegenerateDirectionError, InversionError)

V_FLOOR = 1e-12


@dataclass
class FundamentalTensor:
    base: TangentVec
    g: np.ndarray


@dataclass
class CartanTensor:
    base: TangentVec
    C: np.ndarray


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

    family = "custom"
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

    # -- spray (dual-safe; consumed by the geodesic engine) --------------

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
        Lx = [0.5 * _nested(f2, z, [ex[j]]) for j in range(n)]
        g = [[0.5 * _nested(f2, z, [ev[i], ev[j]]) for j in range(n)]
             for i in range(n)]
        M = [[0.5 * _nested(f2, z, [ev[i], ex[j]]) for j in range(n)]
             for i in range(n)]
        rhs = [sum(M[i][j] * v[j] for j in range(n)) - Lx[i] for i in range(n)]
        return _solve_generic(g, rhs)

    # -- misc ------------------------------------------------------------

    def unit(self, p: TangentVec) -> TangentVec:
        f = self.F(p)
        if f <= 0:
            raise DegenerateDirectionError("cannot normalize zero vector")
        return TangentVec(p.chart, p.x, p.v / f)

    def reversed_(self) -> "MetricField":
        return ReversedMetric(self)


def _nested(f, z, dirs):
    """nested_directional that tolerates dual-valued base points."""
    out = f(dual.seed(z, dirs))
    for _ in range(len(dirs)):
        out = dual.dpart(out)
    return out


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

    family = "riemannian"
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
    m = RiemannianMetric(atlas, lambda chart, x: eye, constant=True)
    m.family = "riemannian"
    return m


def sphere_metric(atlas):
    """Round metric 4/(1+|x|^2)^2 dx^2 on the two-chart stereographic atlas."""

    def mat(chart, x):
        r2 = x[0] * x[0] + x[1] * x[1]
        phi = 4.0 / ((1.0 + r2) * (1.0 + r2))
        return [[phi, 0.0], [0.0, phi]]

    # dmat[j][i][l]: diagonal conformal, so d a_il / d x_j = c x_j delta_il
    def dmat(chart, x):
        r2 = x[0] * x[0] + x[1] * x[1]
        c = -16.0 / ((1.0 + r2) ** 3)
        return [[[c * x[j] if i == l else 0.0 for l in range(2)]
                 for i in range(2)] for j in range(2)]

    return RiemannianMetric(atlas, mat, dmatrix_fn=dmat)


class RandersMetric(MetricField):
    """F = sqrt(a(v, v)) + b . v with constant a, b and |b|_a < 1."""

    family = "randers"
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

    family = "minkowski-quartic"
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
    family = "custom"

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
        self.family = base.family
        self.reversible = base.reversible
        self.x_independent = base.x_independent

    def value_generic(self, chart, x, v):
        return self.base.value_generic(chart, x, [-c for c in v])

    def fundamental(self, p):
        return self.base.fundamental(TangentVec(p.chart, p.x, -p.v))

    def cartan(self, p):
        return -self.base.cartan(TangentVec(p.chart, p.x, -p.v))

    def spray_generic(self, chart, x, v):
        neg = self.base.spray_generic(chart, x, [-c for c in v])
        return [-c for c in neg]

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


def cartan_tensor(metric, p: TangentVec) -> CartanTensor:
    return CartanTensor(p, metric.cartan(p))


def legendre(metric, p: TangentVec) -> Covector:
    if np.linalg.norm(p.v) < V_FLOOR:
        return Covector(p.chart, np.asarray(p.x, float), np.zeros(len(p.x)))
    g = metric.fundamental(p)
    return Covector(p.chart, np.asarray(p.x, float), g @ p.v)


def legendre_inverse(metric, chart, x, omega, guess=None,
                     tol=None, max_iter=100) -> TangentVec:
    """Newton inversion of v -> g_v(v, .), Jacobian = fundamental tensor."""
    omega = np.asarray(omega, dtype=float)
    x = np.asarray(x, dtype=float)
    onorm = float(np.linalg.norm(omega))
    if onorm < V_FLOOR:
        return TangentVec(chart, x, np.zeros_like(omega))
    if tol is None:
        tol = 1e-10 * (1.0 + onorm)
    v = np.array(guess, dtype=float) if guess is not None else omega.copy()
    if np.linalg.norm(v) < V_FLOOR:
        v = omega.copy()
    for _ in range(max_iter):
        p = TangentVec(chart, x, v)
        g = metric.fundamental(p)
        r = g @ v - omega
        if np.linalg.norm(r) <= tol:
            return p
        step = np.linalg.solve(g, r)
        # damped update keeps v away from the slit origin
        vn = v - step
        while np.linalg.norm(vn) < V_FLOOR:
            step *= 0.5
            vn = v - step
        v = vn
    raise InversionError(
        f"Legendre inversion stalled, residual {np.linalg.norm(r):.3g}",
        residual=float(np.linalg.norm(r)))


def reverse_metric(metric) -> MetricField:
    return metric.reversed_()


@dataclass
class ValidationPlan:
    n_points: int = 12
    n_dirs: int = 16
    seed: int = 0
    chart: int = 0
    box: tuple = ((-0.8, -0.8), (0.8, 0.8))


@dataclass
class MetricReport:
    homogeneity_max: float
    min_eigenvalue: float
    cartan_contraction_max: float
    reversibility_max: float
    identity_max: float
    passed: bool
    failures: list


def validate_metric(metric, plan: ValidationPlan = None) -> MetricReport:
    """Sample-based check of homogeneity, convexity, Cartan and reversibility."""
    plan = plan or ValidationPlan()
    rng = np.random.default_rng(plan.seed)
    lo = np.asarray(plan.box[0], float)
    hi = np.asarray(plan.box[1], float)
    n = metric.atlas.dim
    failures = []
    hom_max = 0.0
    eig_min = np.inf
    cart_max = 0.0
    rev_max = 0.0
    ident_max = 0.0
    for _ in range(plan.n_points):
        x = rng.uniform(lo, hi)
        for _ in range(plan.n_dirs):
            v = rng.normal(size=n)
            v /= np.linalg.norm(v)
            p = TangentVec(plan.chart, x, v)
            f = metric.F(p)
            for lam in (0.5, 2.0, 10.0):
                fl = metric.F(TangentVec(plan.chart, x, lam * v))
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
                fr = metric.F(TangentVec(plan.chart, x, -v))
                res = abs(fr - f) / (1.0 + f)
                rev_max = max(rev_max, res)
                if res > 1e-10:
                    failures.append(("reversibility", x.copy(), v.copy(), res))
        # Cartan contraction on a couple of directions per point
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        p = TangentVec(plan.chart, x, v)
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
