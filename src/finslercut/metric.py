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

Three row oracles evaluate many tangent vectors at one base point:
``F_rows`` (F of each row) and ``legendre_rows`` (the covector g_v v of
each row), both 0 on a row shorter than V_FLOOR, and ``fundamental_rows``
(the tensor g_v of each row).  ``value_generic`` is the one place a family
writes F.  It uses arithmetic and ``dual.sqrt`` only, with no branch on v,
so it runs on floats, on nested duals and on the columns of a block of
rows: ``F_rows`` is one ``value_generic`` call on arrays, elementwise the
float operations of the scalar ``F``, and equals it to the bit.
``legendre_rows`` and ``fundamental_rows`` loop ``fundamental`` by default;
the Riemannian, Randers and quartic Minkowski families and their reverses
write them in closed form on arrays, ``fundamental_rows`` operation by
operation as the scalar ``fundamental``, so each row keeps its bits.  The
products of rows with vectors and matrices go through ``np.matmul`` on
stacked (k, 1, n), (k, n, n) and (k, n, 1) operands, which calls the
routine the 1-D product calls; ``einsum`` and ``np.linalg.norm(axis=1)``
round differently.  ``legendre_inverses`` runs the Newton of the scalar
``legendre_inverse`` on many covectors in lockstep, one
``fundamental_rows`` call per iteration, and equals it row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .atlas import TangentVec
from .errors import (ConvexityError, DegenerateDirectionError, FinslerError,
                     InversionError)

V_FLOOR = 1e-12
INVERSE_TOL = 1e-10         # inversion residual stop, relative to 1 + |omega|
INVERSE_ITERS = 100         # Newton iteration cap of the Legendre inversion
VALIDATE_POINTS = 12        # base points sampled by validate_metric
VALIDATE_DIRS = 16          # unit directions sampled at each base point
VALIDATE_BOX = ((-0.8, -0.8), (0.8, 0.8))   # chart-0 box of the base points


def _check_dir(v):
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) < V_FLOOR:
        raise DegenerateDirectionError("operation requires |v| > 1e-12")
    return v


def _check_dirs(V):
    """The (k, n) array of rows V, each checked as ``_check_dir`` checks."""
    V = np.asarray(V, dtype=float)
    if (_row_norms(V) < V_FLOOR).any():
        raise DegenerateDirectionError("operation requires |v| > 1e-12")
    return V


def _row_dots(A, B):
    """``A[r] @ B[r]`` of each row pair of the (k, n) arrays, to the bit."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _row_norms(A):
    """``np.linalg.norm(A[r])`` of each row of the (k, n) array, to the
    bit."""
    return np.sqrt(_row_dots(A, A))


def _mat_rows(M, V):
    """``M[r] @ V[r]`` of each row of the (k, n) array V, for a (k, n, n)
    stack M or one (n, n) matrix, to the bit."""
    return np.matmul(M, V[:, :, None])[:, :, 0]


def _held(errors, fn, *args):
    """fn(*args), or the exception of a type in ``errors`` that it raises."""
    try:
        return fn(*args)
    except errors as exc:
        return exc


class MetricField:
    """Base class; subclasses provide ``value_generic``, dual- and
    array-safe: arithmetic and ``dual.sqrt`` only, with no branch on v.
    One that branches on v fails loudly in ``F_rows`` (numpy's
    ambiguous-truth error on an array of rows)."""

    reversible = False
    x_independent = False

    def __init__(self, atlas):
        self.atlas = atlas

    # -- core evaluator --------------------------------------------------

    def value_generic(self, chart, x, v):
        """F(chart, x, v) over generic scalars: floats, possibly nested
        duals, or float arrays of equal shape, one entry per vector."""
        raise NotImplementedError

    def F(self, p: TangentVec) -> float:
        self.atlas.require(p.chart, p.x)
        if np.linalg.norm(p.v) < V_FLOOR:
            return 0.0
        return float(dual.real(self.value_generic(p.chart, list(p.x), list(p.v))))

    # -- row oracles at one base point ----------------------------------

    def F_rows(self, chart, x, V) -> np.ndarray:
        """F(chart, x, v) of each row v of the (k, n) array V, as a (k,)
        array: 0 on a row shorter than V_FLOOR, as ``F`` gives.  One
        ``value_generic`` call on the columns of the live rows."""
        self.atlas.require(chart, x)
        x = [float(c) for c in x]
        return _on_live_rows(
            V, lambda W: self.value_generic(chart, x, list(W.T)))

    def legendre_rows(self, chart, x, V) -> np.ndarray:
        """The covector g_v v of each row v of the (k, n) array V, as a
        (k, n) array, 0 on a row shorter than V_FLOOR.  By default
        ``fundamental`` row by row."""
        x = np.asarray(x, dtype=float)
        return _on_live_rows(V, lambda W: np.array(
            [self.fundamental(TangentVec(chart, x, v)) @ v for v in W]
        ).reshape(W.shape))

    def fundamental_rows(self, chart, x, V) -> np.ndarray:
        """``fundamental`` at each row v of the (k, n) array V, as a
        (k, n, n) array; by default row by row.  A row shorter than V_FLOOR
        raises DegenerateDirectionError."""
        x = np.asarray(x, dtype=float)
        V = np.asarray(V, dtype=float)
        n = self.atlas.dim
        return np.array([self.fundamental(TangentVec(chart, x, v))
                         for v in V]).reshape(len(V), n, n)

    # -- derivative oracles ---------------------------------------------

    def fundamental(self, p: TangentVec) -> np.ndarray:
        """v-Hessian of F^2/2 at (x, v); DegenerateDirectionError on a
        vector shorter than V_FLOOR."""
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


def _on_live_rows(V, rows_fn):
    """``rows_fn`` of the rows of the (k, n) array V not shorter than
    V_FLOOR, with zeros for the short rows, which ``rows_fn`` never sees."""
    V = np.asarray(V, dtype=float)
    live = np.linalg.norm(V, axis=1) >= V_FLOOR
    got = rows_fn(V[live])
    out = np.zeros((len(V),) + got.shape[1:])
    out[live] = got
    return out


def _quadratic(a, v):
    """sum_ij a_ij v_i v_j over generic scalars, in one fixed order."""
    q = 0.0
    n = len(v)
    for i in range(n):
        for j in range(n):
            q = q + a[i][j] * v[i] * v[j]
    return q


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
        return dual.sqrt(_quadratic(self.matrix_fn(chart, x), v))

    def _a(self, chart, x):
        a = self.matrix_fn(chart, [float(c) for c in x])
        return np.array([[dual.real(a[i][j]) for j in range(self.atlas.dim)]
                         for i in range(self.atlas.dim)])

    def fundamental(self, p):
        _check_dir(p.v)
        return self._a(p.chart, p.x)

    # a(x) once for every row
    def fundamental_rows(self, chart, x, V):
        V = _check_dirs(V)
        return np.repeat(self._a(chart, x)[None], len(V), axis=0)

    def cartan(self, p):
        _check_dir(p.v)
        n = self.atlas.dim
        return np.zeros((n, n, n))

    # g_v = a(x) for every v at one base point
    def legendre_rows(self, chart, x, V):
        a = self.matrix_fn(chart, [float(c) for c in x])
        return _on_live_rows(V, lambda W: W @ np.array(a, dtype=float).T)

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


def _round_reals(x0, x1, v0, v1, c):
    """The real terms of 2G phi from c = -16 / (1 + r2)^3: d = c x, h = d / 2,
    p = d v, q = h v and the two brackets s, in the order of the dual-number
    evaluation, on floats or broadcasting arrays."""
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
    return d0, d1, h0, h1, p0, p1, q00, q01, q10, q11, s0, s1


def _round_spray(x0, x1, v0, v1, cube):
    """2G of the round metric from the coordinates of one state as floats,
    or of many as arrays; ``cube`` is float pow 3 on the same: numpy's
    array power can differ from it in the last bit."""
    b = x0 * x0 + x1 * x1 + 1.0
    phi = 4.0 / (b * b)
    *_, s0, s1 = _round_reals(x0, x1, v0, v1, -16.0 / cube(b))
    return s0 / phi, s1 / phi


def _cube_rows(b):
    return np.array([c ** 3 for c in b.tolist()])


def _round_spray_d(x0, x1, v0, v1, a0, a1, w0, w1, b, phi, reals):
    """Derivative of 2G along (dx, dv) = (a, w), floats or broadcasting
    arrays: the dual parts of the dual-number evaluation, given b = 1 + r2,
    phi and the dual evaluation's ``_round_reals``, whose c has the cube
    b * (b * b) of Dual.__pow__, not the float pow of ``spray``."""
    d0, d1, h0, h1, p0, p1, q00, q01, q10, q11, s0, s1 = reals
    bb = b * b
    b3 = b * bb
    c = -16.0 / b3
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
    value half of ``spray_jvp``) and of its dual-number evaluation (the
    derivative half): on Python floats for one row, and elementwise on
    arrays for several, with the one power of ``spray`` a float pow per row
    either way.  On several rows ``spray_jvp`` is one fused kernel: b =
    1 + r2 and phi are formed once, and the value's terms (from the float
    pow cube) and the dual evaluation's real terms (from b * (b * b)) are
    one ``_round_reals`` evaluation on the two stacked c rows.  The only
    operations left out are the additions of the exactly-zero off-diagonal
    terms of d a; for finite inputs they change no value, at most the sign
    of a zero.  The results therefore equal the dual-number path's.
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
            b = x0 * x0 + x1 * x1 + 1.0
            phi = 4.0 / (b * b)
            *_, s0, s1 = _round_reals(x0, x1, v0, v1, -16.0 / b ** 3)
            reals = _round_reals(x0, x1, v0, v1, -16.0 / (b * (b * b)))
            cols = [_round_spray_d(x0, x1, v0, v1, a0, a1, w0, w1, b, phi,
                                   reals)
                    for a0, a1, w0, w1 in zip(a0s, a1s, w0s, w1s)]
            return np.array([[s0 / phi, s1 / phi]]), np.array(cols).T[None]
        x0, x1, v0, v1 = x[:, 0], x[:, 1], v[:, 0], v[:, 1]
        b = x0 * x0 + x1 * x1 + 1.0
        phi = 4.0 / (b * b)
        # row 0: the value's c, from the float pow cube; row 1: the dual
        # evaluation's, from b * (b * b)
        c = -16.0 / np.stack([_cube_rows(b), b * (b * b)])
        reals = _round_reals(x0, x1, v0, v1, c)
        s = np.stack([reals[-2][0] / phi, reals[-1][0] / phi], axis=1)
        # per-row values as (k, 1) columns against (k, m) directions
        col = [t[1][:, None] for t in reals]
        ds = np.stack(_round_spray_d(
            x0[:, None], x1[:, None], v0[:, None], v1[:, None],
            dx[:, 0], dx[:, 1], dv[:, 0], dv[:, 1], b[:, None],
            phi[:, None], col), axis=1)
        return s, ds


def sphere_metric(atlas):
    """Round metric 4/(1+|x|^2)^2 dx^2 on the two-chart stereographic atlas."""
    return RoundSphereMetric(atlas)


class RandersMetric(MetricField):
    """F = sqrt(a(v, v)) + b . v with constant a, b and |b|_a < 1."""

    reversible = False
    x_independent = True

    def __init__(self, atlas, b, a=None):
        super().__init__(atlas)
        n = atlas.dim
        self.a = np.eye(n) if a is None else np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        bnorm = float(np.sqrt(self.b @ np.linalg.solve(self.a, self.b)))
        if bnorm >= 1.0:
            raise ConvexityError(
                f"Randers drift |b|_a = {bnorm:.4g} >= 1 breaks strong convexity")

    def value_generic(self, chart, x, v):
        lin = 0.0
        for i in range(len(v)):
            lin = lin + self.b[i] * v[i]
        return dual.sqrt(_quadratic(self.a, v)) + lin

    def fundamental(self, p):
        v = _check_dir(p.v)
        av = self.a @ v
        alpha = float(np.sqrt(v @ av))
        ell = av / alpha
        f = alpha + float(self.b @ v)
        lb = ell + self.b
        return np.outer(lb, lb) + f * (self.a / alpha
                                       - np.outer(av, av) / alpha ** 3)

    def fundamental_rows(self, chart, x, V):
        """``fundamental`` on rows, operation by operation; alpha ** 3 is a
        float pow per row, as there."""
        V = _check_dirs(V)
        av = _mat_rows(self.a, V)
        alpha = np.sqrt(_row_dots(V, av))
        f = alpha + _row_dots(np.broadcast_to(self.b, V.shape), V)
        lb = av / alpha[:, None] + self.b
        alpha, f = alpha[:, None, None], f[:, None, None]
        return lb[:, :, None] * lb[:, None, :] + f * (
            self.a / alpha - av[:, :, None] * av[:, None, :]
            / _cube_rows(alpha.ravel())[:, None, None])

    def legendre_rows(self, chart, x, V):
        """g_v v = F(v) (a v / alpha + b), alpha = sqrt(a(v, v)): the
        v-gradient of F^2 / 2.  The products with a and b are taken row by
        row, a v elementwise and b . v as one dot per row (``np.matmul`` on
        (k, 1, 2) rows), so each row has the bits of its one-row call
        whatever rows share the batch; a (k, 2) BLAS product does not
        promise that."""
        def rows(W):
            av = W[:, :1] * self.a[:, 0] + W[:, 1:] * self.a[:, 1]
            alpha = np.sqrt(np.einsum("ri,ri->r", W, av))[:, None]
            f = alpha + np.matmul(W[:, None, :], self.b[:, None])[:, 0, :]
            return f * (av / alpha + self.b)
        return _on_live_rows(V, rows)

    def reversed_(self):
        return RandersMetric(self.atlas, -self.b, self.a)


class MinkowskiQuarticMetric(MetricField):
    """Reversible non-Riemannian norm F^2 = |v|^2 + eps * sum v_i^4 / |v|^2
    with 0 <= eps < 1: the least eigenvalue of g on unit vectors is
    1 - eps, reached on the axes."""

    reversible = True
    x_independent = True

    def __init__(self, atlas, eps=0.1):
        super().__init__(atlas)
        self.eps = float(eps)
        if not 0.0 <= self.eps < 1.0:
            raise ConvexityError(
                f"quartic eps = {self.eps:.4g} outside [0, 1) breaks strong "
                "convexity")

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

    def fundamental_rows(self, chart, x, V):
        """``fundamental`` on rows, operation by operation."""
        V = _check_dirs(V)
        eps = self.eps
        V2 = V * V
        q = V2.sum(axis=1)
        s = _row_dots(V2, V2)
        W = (4.0 * eps / (q * q))[:, None] * (V2 - (0.5 * s / q)[:, None]) * V
        VW = V[:, :, None] * W[:, None, :]
        n = V.shape[1]
        g = np.zeros((len(V), n, n))
        g[:, range(n), range(n)] = ((1.0 - eps * s / (q * q))[:, None]
                                    + (6.0 * eps / q)[:, None] * V2)
        g -= VW
        g -= VW.transpose(0, 2, 1)
        return g

    def legendre_rows(self, chart, x, V):
        """g_v v = v + (2 eps / q)(v^2 - s / 2q) v, the v-gradient of
        F^2 / 2 with q and s as in ``fundamental``."""
        def rows(W):
            W2 = W * W
            q = W2.sum(axis=1)[:, None]
            s = np.einsum("ri,ri->r", W2, W2)[:, None]
            return W + (2.0 * self.eps / q) * (W2 - 0.5 * s / q) * W
        return _on_live_rows(V, rows)


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

    def fundamental_rows(self, chart, x, V):
        return self.base.fundamental_rows(chart, x,
                                          -np.asarray(V, dtype=float))

    def cartan(self, p):
        return -self.base.cartan(TangentVec(p.chart, p.x, -p.v))

    def legendre_rows(self, chart, x, V):
        V = np.asarray(V, dtype=float)
        return -self.base.legendre_rows(chart, x, -V)

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


def legendre_inverses(metric, chart, x, Omega) -> list:
    """``legendre_inverse`` of each row omega of the (k, n) array Omega at
    one base point, the Newton of every row in lockstep: one
    ``fundamental_rows`` call per iteration on the rows still running, and
    the lone inversion's stop, Cramer step and damping on each.

    Entry i is the TangentVec of Omega[i], equal to its lone inversion to
    the last bit, or the InversionError or LinAlgError that the lone
    inversion raises, held in place.  Should a tensor call raise, every row
    still running is inverted alone."""
    x = np.asarray(x, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    onorm = _row_norms(Omega)
    out = [TangentVec(chart, x, np.zeros_like(omega)) if short else None
           for omega, short in zip(Omega, (onorm < V_FLOOR).tolist())]
    rows = np.flatnonzero(~(onorm < V_FLOOR))
    tol = INVERSE_TOL * (1.0 + onorm[rows])
    W = Omega[rows]
    V = W.copy()
    for _ in range(INVERSE_ITERS):
        if not rows.size:
            return out
        try:
            G = metric.fundamental_rows(chart, x, V)
        except (FinslerError, np.linalg.LinAlgError):
            for i in rows.tolist():
                out[i] = _held((FinslerError, np.linalg.LinAlgError),
                               legendre_inverse, metric, chart, x, Omega[i])
            return out
        R = _mat_rows(G, V) - W
        rnorm = _row_norms(R)
        a, b, c, d = G[:, 0, 0], G[:, 0, 1], G[:, 1, 0], G[:, 1, 1]
        det = a * d - b * c
        done = rnorm <= tol
        for j in np.flatnonzero(done | (det == 0.0)).tolist():
            out[rows[j]] = (TangentVec(chart, x, V[j].copy()) if done[j]
                            else np.linalg.LinAlgError(
                                "singular fundamental tensor"))
        go = ~done & (det != 0.0)
        rows, tol, W, V, R, rnorm = (rows[go], tol[go], W[go], V[go], R[go],
                                     rnorm[go])
        a, b, c, d, det = a[go], b[go], c[go], d[go], det[go]
        r0, r1 = R[:, 0], R[:, 1]
        step = np.stack([d * r0 - b * r1, a * r1 - c * r0], axis=1) \
            / det[:, None]
        # damped update keeps each v away from the slit origin
        vn = V - step
        short = _row_norms(vn) < V_FLOOR
        while short.any():
            step[short] *= 0.5
            vn[short] = V[short] - step[short]
            short = _row_norms(vn) < V_FLOOR
        V = vn
    for i, res in zip(rows.tolist(), rnorm.tolist()):
        out[i] = InversionError(
            f"Legendre inversion stalled, residual {res:.3g}", residual=res)
    return out


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
    scales = (1.0, 0.5, 2.0, 10.0) + ((-1.0,) if metric.reversible else ())
    for _ in range(VALIDATE_POINTS):
        x = rng.uniform(lo, hi)
        # the stream of VALIDATE_DIRS draws of size n, in one draw
        dirs = rng.normal(size=(VALIDATE_DIRS, n))
        dirs /= _row_norms(dirs)[:, None]
        # F of each direction times each scale, from one call: row 0 the
        # direction, rows 1-3 its homogeneity multiples, row 4 its reverse
        fs = metric.F_rows(0, x, (np.array(scales)[:, None, None]
                                  * dirs).reshape(-1, n))
        fs = fs.reshape(len(scales), VALIDATE_DIRS).T.tolist()
        # the tensors of every direction from one call or, should it raise,
        # each direction's own tensor or ConvexityError (its row then I)
        errs = [None] * VALIDATE_DIRS
        try:
            gs = metric.fundamental_rows(0, x, dirs)
        except ConvexityError:
            gs = [_held(ConvexityError, metric.fundamental,
                        TangentVec(0, x, v)) for v in dirs]
            errs = [g if isinstance(g, ConvexityError) else None for g in gs]
            gs = np.array([g if e is None else np.eye(n)
                           for g, e in zip(gs, errs)])
        eigs = np.linalg.eigvalsh(0.5 * (gs + gs.transpose(0, 2, 1)))
        vgvs = np.matmul(np.matmul(dirs[:, None, :], gs), dirs[:, :, None])
        for v, f_v, w, vgv, err in zip(dirs, fs, eigs[:, 0].tolist(),
                                       vgvs[:, 0, 0].tolist(), errs):
            f = f_v[0]
            for lam, fl in zip(scales[1:4], f_v[1:4]):
                res = abs(fl - lam * f) / (1.0 + lam * f)
                hom_max = max(hom_max, res)
                if res > 1e-9:
                    failures.append(("homogeneity", x.copy(), v.copy(), res))
            if err is not None:
                failures.append(("convexity", x.copy(), v.copy(), str(err)))
            else:
                eig_min = min(eig_min, w)
                if w <= 0:
                    failures.append(("convexity", x.copy(), v.copy(), w))
                ident = abs(vgv - f * f) / max(f * f, 1.0)
                ident_max = max(ident_max, ident)
                if ident > 1e-9:
                    failures.append(("gvv-identity", x.copy(), v.copy(), ident))
            if metric.reversible:
                res = abs(f_v[4] - f) / (1.0 + f)
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
