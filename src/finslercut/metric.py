"""Finsler metric families with derivative oracles and the Legendre transform.

Derivatives of F^2 come from nested dual-number evaluation of the metric's
generic evaluator, each oracle one evaluation on its inputs lifted along
every coordinate at once (``dual.lift``); families override hot oracles
with closed forms where the algebra is cheap (Riemannian, Randers, and the
fundamental tensor of the quartic Minkowski norm).  The geodesic engine
reads the spray only through one float oracle on rows, ``spray_jvp``: 2G
at each (x, v) row and its derivatives along m >= 0 Jacobi columns, so
that a batch of geodesics (m = 0) or flows is one call; ``spray`` is
``spray_jvp`` with no column.  By default it is one ``spray_generic``
evaluation on the columns of the rows, on duals whose parts are the
columns of every (row, column) pair when m > 0, and ``spray_generic`` is
one ``value_generic`` evaluation lifted into two more levels; its 2 x 2
solve pivots each row on its own, so each row has the bits of its lone
evaluation.  The round sphere overrides it with a closed form that repeats
the floating-point operations of its analytic ``spray_generic``, in order,
on arrays, so its geodesics and Jacobi fields are the same to the last
bit.  For an x-independent metric ``spray_generic`` and ``spray_jvp``
return zeros, the latter without evaluating anything, and a reversed
metric negates the velocity rows.  The dual-number oracles stay as the
fallback for custom metrics and as the reference the closed forms are
tested against.

The row oracles evaluate many tangent vectors: ``F_rows`` (F of each row)
and ``legendre_rows`` (the covector g_v v of each row), both 0 on a row
shorter than V_FLOOR, ``fundamental_rows`` (the tensor g_v of each row)
and ``cartan_rows`` (the Cartan tensor of each row).  All but
``legendre_rows`` take one base point or one per row.  ``value_generic``
is the one place a family writes F.  It uses arithmetic and ``dual.sqrt``
only, with no branch on v, so it runs on floats, on nested duals, on the
columns of a block of rows and on duals whose parts are columns:
``F_rows`` is one ``value_generic`` call on arrays, elementwise the float
operations of the scalar ``F``, and equals it to the bit.  By default
``fundamental_rows`` and ``cartan_rows`` are one ``value_generic``
evaluation on the columns lifted into two or three dual levels
(``dual.hessian``, ``dual.tensor``), each entry read at its sorted index,
and ``legendre_rows`` is ``fundamental_rows`` times each row; a subclass
that overrides the scalar ``fundamental`` or ``cartan`` is called row by
row instead.  The values of one row are floats, 1.2-1.5 times faster
than one-entry arrays; the seeded parts are arrays at every row count.  The Riemannian, Randers and quartic Minkowski families and their
reverses write ``legendre_rows`` and ``fundamental_rows`` in closed form
on arrays, ``fundamental_rows`` operation by operation as the scalar
``fundamental``, so each row keeps its bits.  The products of rows with
vectors and matrices go through ``np.matmul`` on stacked (k, 1, n),
(k, n, n) and (k, n, 1) operands, which calls the routine the 1-D product
calls; ``einsum`` and ``np.linalg.norm(axis=1)`` round differently.
``legendre_inverses`` runs the Newton of the scalar ``legendre_inverse``
on many covectors in lockstep, one ``fundamental_rows`` call per
iteration, and equals it row by row.
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
        array: 0 on a row shorter than V_FLOOR, as ``F`` gives.  ``x`` is
        one base point, or one per row as a (k, n) array.  One
        ``value_generic`` call on the columns of the live rows."""
        x = self._base_points(chart, x)
        V = np.asarray(V, dtype=float)
        live = np.linalg.norm(V, axis=1) >= V_FLOOR
        out = np.zeros(len(V))
        out[live] = self.value_generic(
            chart, _cols(x if x.ndim == 1 else x[live]), _cols(V[live]))
        return out

    def legendre_rows(self, chart, x, V) -> np.ndarray:
        """The covector g_v v of each row v of the (k, n) array V at the
        one base point x, as a (k, n) array, 0 on a row shorter than
        V_FLOOR: ``fundamental_rows`` times each row."""
        return _on_live_rows(V, lambda W: _mat_rows(
            self.fundamental_rows(chart, x, W), W))

    def fundamental_rows(self, chart, x, V) -> np.ndarray:
        """``fundamental`` at each row v of the (k, n) array V, as a
        (k, n, n) array; ``x`` is one base point, or one per row.  One
        ``dual.hessian`` evaluation on the columns of the rows, or a
        family's ``fundamental`` row by row where it overrides it.  A row
        shorter than V_FLOOR raises DegenerateDirectionError."""
        V = _check_dirs(V)
        if _overrides(self, "fundamental"):
            return _row_by_row(self.fundamental, chart, x, V, 2)
        return 0.5 * self._v_tensor_rows(2, chart, x, V)

    def cartan_rows(self, chart, X, V) -> np.ndarray:
        """``cartan`` at each row v of the (k, n) array V, as a (k, n, n, n)
        array; ``X`` is one base point, or one per row.  One
        ``dual.tensor`` evaluation on the columns of the rows, or a
        family's ``cartan`` row by row where it overrides it."""
        V = _check_dirs(V)
        if _overrides(self, "cartan"):
            return _row_by_row(self.cartan, chart, X, V, 3)
        return 0.25 * self._v_tensor_rows(3, chart, X, V)

    def _v_tensor_rows(self, order, chart, x, V):
        """The order-``order`` v-derivative tensor of F^2 at each row, as a
        (k, n, ...) array: one ``value_generic`` evaluation on the columns
        of the rows (one row on floats) lifted into ``order`` dual levels,
        order 2 through ``dual.hessian``, whose calls perfbench counts."""
        xs = _cols(x)

        def f2(vv):
            val = self.value_generic(chart, xs, vv)
            return val * val

        vs = _cols(V)
        t = (dual.hessian(f2, vs) if order == 2
             else dual.tensor(f2, vs, order))
        # the row axis (one entry on floats) first, in C order
        return np.ascontiguousarray(np.moveaxis(
            t.reshape(t.shape[:order] + (-1,)), -1, 0))

    def _base_points(self, chart, x):
        """x as a float array, one point or one per row, each checked to
        lie in the chart's box (DomainError naming the first outside)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            self.atlas.require(chart, x)
            return x
        inside = self.atlas.contains_rows(np.full(len(x), chart), x)
        if not inside.all():
            self.atlas.require(chart, x[np.argmin(inside)])
        return x

    # -- derivative oracles ---------------------------------------------

    def fundamental(self, p: TangentVec) -> np.ndarray:
        """v-Hessian of F^2/2 at (x, v); DegenerateDirectionError on a
        vector shorter than V_FLOOR."""
        v = _check_dir(p.v)[None]
        return 0.5 * self._v_tensor_rows(2, p.chart, p.x, v)[0]

    def cartan(self, p: TangentVec) -> np.ndarray:
        """Third v-derivative tensor of F^2/4."""
        v = _check_dir(p.v)[None]
        return 0.25 * self._v_tensor_rows(3, p.chart, p.x, v)[0]

    # -- spray (consumed by the geodesic engine) -------------------------

    def spray_generic(self, chart, x, v):
        """2G(x, v) with generic scalars, or with columns of rows;
        geodesic equation x'' + 2G = 0.  One ``value_generic`` evaluation
        on (x, v) lifted into two dual levels above the caller's (possibly
        dual) inputs: L = F^2 / 2 gives Lx from its first-order parts along
        the outer level, and g = L_vv and M = L_vx from its mixed parts."""
        n = self.atlas.dim
        if self.x_independent:
            return [0.0] * n
        z = dual.lift(list(x) + list(v), 2)
        val = self.value_generic(chart, z[:n], z[n:])
        # the outer level's parts: a dual along level 1, as g is not zero
        d1 = dual.dpart(val * val)
        d2 = d1.du
        Lx = [0.5 * dual.take(d1.re, j) for j in range(n)]
        g = [[0.5 * dual.take(d2, (n + i, n + j)) for j in range(n)]
             for i in range(n)]
        M = [[0.5 * dual.take(d2, (n + i, j)) for j in range(n)]
             for i in range(n)]
        rhs = [sum(M[i][j] * v[j] for j in range(n)) - Lx[i] for i in range(n)]
        return _solve2(g, rhs)

    def spray(self, chart, x, v):
        """2G at each row (x[r], v[r]) of the (k, n) arrays x and v, as a
        (k, n) float array: ``spray_jvp`` with no column."""
        x = np.asarray(x, dtype=float)
        none = np.zeros(x.shape + (0,))
        return self.spray_jvp(chart, x, v, none, none)[0]

    def spray_jvp(self, chart, x, v, dx, dv):
        """2G at each row and its derivative along each column of (dx, dv).

        ``x`` and ``v`` are (k, n) rows and ``dx``, ``dv`` are (k, n, m),
        m >= 0.  Returns ``(s, ds)``: ``s`` is 2G at each row and
        ``ds[r, :, c]`` is d/dt 2G(x[r] + t dx[r, :, c], v[r] + t dv[r, :, c])
        at t = 0, the dual parts of one ``spray_generic`` evaluation whose
        rows are the k m (row, column) pairs; both are zero for an
        x-independent metric.  With no column, or where a family overrides
        ``spray_generic``, ``s`` is one float ``spray_generic`` evaluation
        on the columns of the rows (one row on floats).
        """
        n = self.atlas.dim
        dx = np.asarray(dx, dtype=float)
        k, m = len(dx), dx.shape[2]
        if self.x_independent:
            return np.zeros((k, n)), np.zeros(dx.shape)
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        s = None
        if not m or _overrides(self, "spray_generic"):
            out = self.spray_generic(chart, _cols(x), _cols(v))
            s = _rows_of([dual.real(c) for c in out], k)
            if not m:
                return s, np.zeros(dx.shape)
        # pair r * m + c: row r's state and its column c
        z = np.repeat(np.hstack([x, v]), m, axis=0)
        d = np.concatenate([dx, np.asarray(dv, dtype=float)],
                           axis=1).transpose(0, 2, 1).reshape(k * m, 2 * n)
        zz = [dual.Dual(a, b) for a, b in zip(_cols(z), _cols(d))]
        out = self.spray_generic(chart, zz[:n], zz[n:])
        ds = _rows_of([dual.real(dual.dpart(o)) for o in out], k * m)
        if s is None:
            # the default's value operations on duals keep the real parts
            # of its float evaluation: read s there
            s = _rows_of([dual.real(o) for o in out], k * m)[::m]
        return s, ds.reshape(k, m, n).transpose(0, 2, 1)

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


def _cols(A):
    """The generic scalars of one point (n,) or of one row (1, n), as
    floats, or the columns of the (k, n) rows A, as arrays."""
    A = np.asarray(A, dtype=float)
    if A.ndim == 1 or len(A) == 1:
        return A.reshape(-1).tolist()
    return list(A.T)


def _rows_of(t, k):
    """Nested lists of floats or (k,) columns, the output of an evaluation
    on ``_cols``, as one (k, ...) array; a float is constant down its
    column."""
    shape = ()
    c = t
    while isinstance(c, list):
        shape += (len(c),)
        c = c[0]
    out = np.empty((k,) + shape)
    for idx in np.ndindex(*shape):
        c = t
        for i in idx:
            c = c[i]
        out[(slice(None),) + idx] = c
    return out


def _overrides(metric, name):
    """Whether the metric's class replaces MetricField's ``name``, read at
    call time, so that a method patched on MetricField still counts as
    MetricField's."""
    return getattr(type(metric), name) is not getattr(MetricField, name)


def _row_by_row(fn, chart, x, V, order):
    """The order-``order`` tensor ``fn(TangentVec)`` at each row of the
    (k, n) array V, x one point or one per row, as a (k, n, ...) array."""
    X = np.broadcast_to(np.asarray(x, dtype=float), V.shape)
    return np.array([fn(TangentVec(chart, xr, v)) for xr, v in zip(X, V)]
                    ).reshape(V.shape[:1] + V.shape[1:] * order)


def _quadratic(a, v):
    """sum_ij a_ij v_i v_j over generic scalars, in one fixed order."""
    q = 0.0
    n = len(v)
    for i in range(n):
        for j in range(n):
            q = q + a[i][j] * v[i] * v[j]
    return q


def _solve2(A, b):
    """The 2 x 2 system A x = b over generic scalars, or over columns of
    rows, by Gaussian elimination with partial pivoting: the pivot is the
    entry of larger magnitude in column 0, the first on a tie.  Each row
    pivots on its own and takes the operations of its own one-row solve;
    when the rows disagree, each group is solved on its own rows."""
    swap = abs(dual.real(A[1][0])) > abs(dual.real(A[0][0]))
    if not np.any(swap):
        return _eliminate2(A, b)
    if np.all(swap):
        return _eliminate2(A[::-1], b[::-1])
    keep, flip = np.flatnonzero(~swap), np.flatnonzero(swap)
    lo = _eliminate2([_take(row, keep) for row in A], _take(b, keep))
    hi = _eliminate2([_take(row, flip) for row in A[::-1]],
                     _take(b[::-1], flip))
    return [dual.merge(swap, h, l) for h, l in zip(hi, lo)]


def _take(seq, rows):
    return [dual.take(c, rows) for c in seq]


def _eliminate2(A, b):
    """The 2 x 2 solve of A x = b with A[0][0] as pivot."""
    m = A[1][0] / A[0][0]
    a11 = A[1][1] - m * A[0][1]
    b1 = b[1] - m * b[0]
    x1 = b1 / a11
    return [(b[0] - A[0][1] * x1) / A[0][0], x1]


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

    def _a_rows(self, chart, x, k):
        """a(x) at one base point x, for each of k rows, or at each row of
        the (k, n) array x, as a (k, n, n) array."""
        n = self.atlas.dim
        a = self.matrix_fn(chart, _cols(x))
        return _rows_of([[a[i][j] for j in range(n)] for i in range(n)], k)

    def fundamental(self, p):
        _check_dir(p.v)
        return self._a_rows(p.chart, p.x, 1)[0]

    # a(x) once for every row
    def fundamental_rows(self, chart, x, V):
        V = _check_dirs(V)
        return self._a_rows(chart, x, len(V))

    def cartan(self, p):
        _check_dir(p.v)
        n = self.atlas.dim
        return np.zeros((n, n, n))

    def cartan_rows(self, chart, X, V):
        V = _check_dirs(V)
        return np.zeros(V.shape + V.shape[1:] * 2)

    # g_v = a(x) for every v at one base point
    def legendre_rows(self, chart, x, V):
        a = self._a_rows(chart, x, 1)[0]
        return _on_live_rows(V, lambda W: W @ a.T)

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
        return _solve2(a, rhs)


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


def _cube_rows(b):
    """Float pow 3 of each entry: numpy's array power can differ from it
    in the last bit."""
    return np.array([c ** 3 for c in b.tolist()])


def _round_spray_d(x0, x1, v0, v1, a0, a1, w0, w1, b, phi, reals):
    """Derivative of 2G along (dx, dv) = (a, w), floats or broadcasting
    arrays: the dual parts of the dual-number evaluation, given b = 1 + r2,
    phi and the dual evaluation's ``_round_reals``, whose c has the cube
    b * (b * b) of Dual.__pow__, not the float pow of the value."""
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

    ``spray_jvp`` writes out the analytic ``spray_generic`` branch for
    a = phi(x) I.  It repeats, in the same order, the floating-point
    operations of its float evaluation (the value half) and of its
    dual-number evaluation (the derivative half): on Python floats for one
    row, and elementwise on arrays for several, with the one power of the
    value a float pow per row either way.  With no column it forms the
    value half alone.  On several rows and columns it is one fused kernel:
    b = 1 + r2 and phi are formed once, and the value's terms (from the
    float pow cube) and the dual evaluation's real terms (from b * (b * b))
    are one ``_round_reals`` evaluation on the two stacked c rows.  The
    only operations left out are the additions of the exactly-zero
    off-diagonal terms of d a; for finite inputs they change no value, at
    most the sign of a zero.  The results therefore equal the dual-number
    path's.
    """

    def __init__(self, atlas):
        super().__init__(atlas, _round_matrix, dmatrix_fn=_round_dmatrix)

    def spray_jvp(self, chart, x, v, dx, dv):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        dx = np.asarray(dx, dtype=float)
        dv = np.asarray(dv, dtype=float)
        if len(x) == 1:
            (x0, x1), (v0, v1) = x[0].tolist(), v[0].tolist()
            b = x0 * x0 + x1 * x1 + 1.0
            phi = 4.0 / (b * b)
            *_, s0, s1 = _round_reals(x0, x1, v0, v1, -16.0 / b ** 3)
            s = np.array([[s0 / phi, s1 / phi]])
            if not dx.shape[2]:
                return s, np.zeros(dx.shape)
            (a0s, a1s), (w0s, w1s) = dx[0].tolist(), dv[0].tolist()
            reals = _round_reals(x0, x1, v0, v1, -16.0 / (b * (b * b)))
            cols = [_round_spray_d(x0, x1, v0, v1, a0, a1, w0, w1, b, phi,
                                   reals)
                    for a0, a1, w0, w1 in zip(a0s, a1s, w0s, w1s)]
            return s, np.array(cols).T[None]
        x0, x1, v0, v1 = x[:, 0], x[:, 1], v[:, 0], v[:, 1]
        b = x0 * x0 + x1 * x1 + 1.0
        phi = 4.0 / (b * b)
        if not dx.shape[2]:
            *_, s0, s1 = _round_reals(x0, x1, v0, v1, -16.0 / _cube_rows(b))
            return np.stack([s0 / phi, s1 / phi], axis=1), np.zeros(dx.shape)
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

    def cartan_rows(self, chart, X, V):
        return -self.base.cartan_rows(chart, X, -np.asarray(V, dtype=float))

    def legendre_rows(self, chart, x, V):
        V = np.asarray(V, dtype=float)
        return -self.base.legendre_rows(chart, x, -V)

    # a reversed F-geodesic c(t) = gamma(-t) solves c'' + 2G(c, -c') = 0
    def spray_generic(self, chart, x, v):
        return self.base.spray_generic(chart, x, [-c for c in v])

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
    reversibility at random points of chart 0, drawn from ``seed``.

    Each point draws its x, its VALIDATE_DIRS directions and its Cartan
    direction in turn; then every (point, direction) row is checked at
    once: one ``F_rows`` call, one ``fundamental_rows`` call and one
    ``eigvalsh`` call over all rows, and one ``cartan_rows`` call over the
    points.  The maxima are the folds of the point-by-point loop (NaN
    skipped, as Python's ``max`` skips it there) and the failures keep its
    order: by point, then by direction, then by check."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(VALIDATE_BOX[0], float)
    hi = np.asarray(VALIDATE_BOX[1], float)
    n = metric.atlas.dim
    P, K = VALIDATE_POINTS, VALIDATE_DIRS
    xs, dirs, cdirs = np.empty((P, n)), np.empty((P, K, n)), np.empty((P, n))
    for i in range(P):
        xs[i] = rng.uniform(lo, hi)
        dirs[i] = rng.normal(size=(K, n))
        cdirs[i] = rng.normal(size=n)
    X, V = np.repeat(xs, K, axis=0), dirs.reshape(P * K, n)
    V /= _row_norms(V)[:, None]
    cdirs /= _row_norms(cdirs)[:, None]
    scales = (1.0, 0.5, 2.0, 10.0) + ((-1.0,) if metric.reversible else ())
    # F of each direction times each scale: row block 0 the directions,
    # 1-3 their homogeneity multiples, 4 their reverses
    fs = metric.F_rows(0, np.tile(X, (len(scales), 1)),
                       (np.array(scales)[:, None, None] * V).reshape(-1, n))
    f, fs = fs[:P * K], fs.reshape(len(scales), P * K)
    hom = np.stack([abs(fl - lam * f) / (1.0 + lam * f)
                    for lam, fl in zip(scales[1:4], fs[1:4])], axis=1)
    # the tensors of every row, and the Cartan tensor of every point
    gs, errs = _held_rows(metric.fundamental_rows, metric.fundamental, X, V,
                          2)
    C, c_errs = _held_rows(metric.cartan_rows, metric.cartan, xs, cdirs, 3)
    ok = np.array([e is None for e in errs])
    has_c = np.array([e is None for e in c_errs])
    eig = np.linalg.eigvalsh(0.5 * (gs + gs.transpose(0, 2, 1)))[:, 0]
    vgv = np.matmul(np.matmul(V[:, None, :], gs), V[:, :, None])[:, 0, 0]
    ident = abs(vgv - f * f) / np.maximum(f * f, 1.0)
    rev = (abs(fs[4] - f) / (1.0 + f) if metric.reversible
           else np.zeros(P * K))
    contr = np.abs(np.einsum("rijk,ri->rjk", C, cdirs)).max(axis=(1, 2))
    failures = []
    bad = ((hom > 1e-9).any(axis=1) | ~ok | (eig <= 0) | (ident > 1e-9)
           | (rev > 1e-10))
    for i in range(P):
        for r in (i * K + np.flatnonzero(bad[i * K:(i + 1) * K])).tolist():
            found = [("homogeneity", res) for res in hom[r].tolist()
                     if res > 1e-9]
            if errs[r] is not None:
                found.append(("convexity", str(errs[r])))
            else:
                found += [(kind, float(val)) for kind, val, fails in (
                    ("convexity", eig[r], eig[r] <= 0),
                    ("gvv-identity", ident[r], ident[r] > 1e-9)) if fails]
            if rev[r] > 1e-10:
                found.append(("reversibility", float(rev[r])))
            failures += [(kind, xs[i].copy(), V[r].copy(), val)
                         for kind, val in found]
        if has_c[i] and contr[i] > 1e-9:
            failures.append(("cartan-contraction", xs[i].copy(),
                             cdirs[i].copy(), float(contr[i])))
    return MetricReport(
        _fold(np.fmax, hom, 0.0), _fold(np.fmin, eig[ok], np.inf),
        _fold(np.fmax, contr[has_c], 0.0), _fold(np.fmax, rev, 0.0),
        _fold(np.fmax, ident[ok], 0.0), not failures, failures)


def _held_rows(rows_fn, fn, X, V, order):
    """``rows_fn(0, X, V)`` and no errors or, should it raise
    ConvexityError, the order-``order`` tensor ``fn`` at each row: a
    raising row is held in the list of errors, in its place, and is zero
    among the tensors."""
    try:
        return rows_fn(0, X, V), [None] * len(V)
    except ConvexityError:
        X = np.broadcast_to(X, V.shape)
        got = [_held(ConvexityError, fn, TangentVec(0, x, v))
               for x, v in zip(X, V)]
    errs = [g if isinstance(g, ConvexityError) else None for g in got]
    return np.array([g if e is None else np.zeros(V.shape[1:] * order)
                     for g, e in zip(got, errs)]), errs


def _fold(op, values, start):
    """``start`` folded with ``op`` over ``values``, as a float."""
    return float(op.reduce(np.ravel(values), initial=start))
