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

Every derivative is seeded in one place, :func:`lift`: it lifts p
coordinates into k nested levels along all p unit vectors at once, each
level's direction index on its own leading array axis, so one evaluation
carries every mixed partial of order k, each entry with the bits of a lift
along its unit vectors alone.  :func:`tensor` reads a symmetric derivative
tensor from that evaluation at sorted indices, and :func:`hessian` is its
order-2 case."""

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


def lift(x, order):
    """The p generic scalars x lifted into ``order`` nested dual levels along
    every coordinate at once: level l (1 the innermost) adds to coordinate a
    the a-th unit vector of length p, held on leading axis l - 1 of the
    part, in front of x's row axis.  x holds floats, float arrays of rows
    or duals of them, a derivative taken on top of another, which stays the
    innermost level.

    One evaluation of f on the lift carries every mixed partial: the
    order-``order`` part of its output (``dpart`` taken ``order`` times)
    holds at index (i_1, ..., i_order) the derivative along x_{i_1} at
    level 1, ..., x_{i_order} at level ``order``, elementwise the
    floating-point operations of a lift along those unit vectors alone,
    whose zero components are explicit 0.0 parts too.  A lower part keeps
    only the axes of its levels: ``dpart`` once, then ``.re`` through each
    level below, is the first-order part along the outermost level, its
    index on axis 0."""
    p = len(x)
    rows = max((np.ndim(real(c)) for c in x), default=0)
    eye = np.eye(p)
    for level in range(order):
        shape = (p,) + (1,) * (order - 1 - level + rows)
        x = [Dual(c, e.reshape(shape)) for c, e in zip(x, eye)]
    return x


def tensor(f, x, order):
    """The order-``order`` derivative tensor of the scalar function f at
    the p floats or row arrays x, as an array of shape (p,) * order + the
    rows' shape: one evaluation of f on ``lift(x, order)``, each entry read
    at its sorted index i <= j <= ... and mirrored to its permutations."""
    out = f(lift(x, order))
    for _ in range(order):
        out = dpart(out)
    rows = np.broadcast_shapes(*(np.shape(c) for c in x))
    full = np.broadcast_to(real(out), (len(x),) * order + rows)
    return full[tuple(np.sort(np.indices(full.shape[:order]), axis=0))]


def hessian(f, x):
    return tensor(f, x, 2)


def take(z, rows):
    """The entries ``rows`` (any numpy index) of every array in the dual
    structure of z; floats, constant down the rows, stay as they are."""
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
