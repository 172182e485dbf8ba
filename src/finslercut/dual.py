"""Nestable dual numbers for forward-mode differentiation.

A ``Dual`` carries a value and one derivative coefficient.  Coefficients may
themselves be duals, so nesting k levels yields exact mixed partials of order
k.  All metric-family evaluators in this package are written against plain
arithmetic plus :func:`sqrt`, which makes them differentiable by evaluation.
They take floats, nested duals or float arrays: :func:`sqrt` is elementwise
on an array, so one evaluation on arrays gives the value of each entry, and
a ``Dual`` may carry arrays as its parts, one entry per row.  An array on
the left of a ``Dual`` defers to the ``Dual``'s reflected operator
(``__array_ufunc__ = None``), so it never makes an object array of duals.
"""

from __future__ import annotations

import math

import numpy as np


class Dual:
    __slots__ = ("re", "du")
    # ndarray and numpy-scalar operators return NotImplemented on a Dual
    __array_ufunc__ = None

    def __init__(self, re, du):
        self.re = re
        self.du = du

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.du + other.du)
        return Dual(self.re + other, self.du)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.du - other.du)
        return Dual(self.re - other, self.du)

    def __rsub__(self, other):
        return Dual(other - self.re, -self.du)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re,
                        self.re * other.du + self.du * other.re)
        return Dual(self.re * other, self.du * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            # quotient rule; works for nested coefficients
            return Dual(_div(self.re, other.re),
                        _div(self.du * other.re - self.re * other.du,
                             other.re * other.re))
        return Dual(_div(self.re, other), _div(self.du, other))

    def __rtruediv__(self, other):
        return Dual(_div(other, self.re),
                    _div(-other * self.du, self.re * self.re))

    def __neg__(self):
        return Dual(-self.re, -self.du)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise TypeError("Dual.__pow__ supports nonnegative int exponents")
        out = 1.0
        base = self
        n = k
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # comparisons act on real parts; used only for pivoting / branches
    def __lt__(self, other):
        return real(self) < real(other)

    def __gt__(self, other):
        return real(self) > real(other)

    def __abs__(self):
        return -self if real(self) < 0.0 else self

    def __repr__(self):
        return f"Dual({self.re!r}, {self.du!r})"


def _div(a, b):
    if isinstance(a, Dual) or isinstance(b, Dual):
        if not isinstance(a, Dual):
            a = Dual(a, 0.0)
        if not isinstance(b, Dual):
            return Dual(_div(a.re, b), _div(a.du, b))
        return a / b
    return a / b


def sqrt(z):
    """Square root, differentiable through nested duals and elementwise
    on a float array; ``np.sqrt`` and ``math.sqrt`` both round correctly."""
    if isinstance(z, Dual):
        r = sqrt(z.re)
        return Dual(r, _div(z.du, 2.0 * r))
    if isinstance(z, np.ndarray):
        return np.sqrt(z)
    return math.sqrt(z)


def real(z):
    """Strip all dual structure, returning the underlying float."""
    while isinstance(z, Dual):
        z = z.re
    return z


def dpart(z):
    """Derivative coefficient of z; 0 for constants."""
    return z.du if isinstance(z, Dual) else 0.0


def seed(x, dirs):
    """Lift point ``x`` into ``len(dirs)`` levels of duals.

    ``dirs[j][i]`` is the i-th component of the j-th perturbation direction,
    a float or, on columns, an array of one per row.  Returns a list of
    nested duals representing x + sum_j t_j * dirs[j].
    """
    xs = list(x)
    for d in dirs:
        xs = [Dual(xi, di if isinstance(di, np.ndarray) else float(di))
              for xi, di in zip(xs, d)]
    return xs


def extract(out, order):
    """Mixed partial of ``order`` seeded directions from a nested-dual output."""
    for _ in range(order):
        out = dpart(out)
    return real(out)


def nested_directional(f, x, dirs):
    """Mixed partial d^k/dt_1..dt_k of f(x + sum t_j dirs[j]) at t = 0.

    f maps a list of scalars to a scalar.  x may itself hold duals (a
    derivative taken on top of another); the result keeps their structure.
    """
    out = f(seed(x, dirs))
    for _ in dirs:
        out = dpart(out)
    return out


def gradient(f, x):
    n = len(x)
    basis = [[1.0 if i == j else 0.0 for i in range(n)] for j in range(n)]
    return [nested_directional(f, x, [e]) for e in basis]


def hessian(f, x):
    n = len(x)
    basis = [[1.0 if i == j else 0.0 for i in range(n)] for j in range(n)]
    h = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = nested_directional(f, x, [basis[i], basis[j]])
            h[i][j] = h[j][i] = val
    return h


def third_tensor(f, x):
    n = len(x)
    basis = [[1.0 if i == j else 0.0 for i in range(n)] for j in range(n)]
    t = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                val = nested_directional(f, x, [basis[i], basis[j], basis[k]])
                for a, b, c in ((i, j, k), (i, k, j), (j, i, k),
                                (j, k, i), (k, i, j), (k, j, i)):
                    t[a][b][c] = val
    return t


def take(z, rows):
    """The entries ``rows`` of every array in the dual structure of z;
    floats, constant down the rows, stay as they are."""
    if isinstance(z, Dual):
        return Dual(take(z.re, rows), take(z.du, rows))
    return z[rows] if isinstance(z, np.ndarray) else z


def merge(mask, a, b):
    """The k rows whose entries are those of a where the (k,) bool array
    ``mask`` holds and those of b elsewhere, through the dual structure: a
    and b hold the rows of their side only, as ``take`` gives them.  Where
    one side is a Dual and the other not, the other is read as
    Dual(c, 0.0); the values are unchanged, so merge the results of an
    evaluation, not its operands."""
    if isinstance(a, Dual) or isinstance(b, Dual):
        a, b = (c if isinstance(c, Dual) else Dual(c, 0.0) for c in (a, b))
        return Dual(merge(mask, a.re, b.re), merge(mask, a.du, b.du))
    out = np.empty(mask.shape)
    out[mask] = a
    out[~mask] = b
    return out
