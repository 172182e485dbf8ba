"""Chart atlases: flat plane, flat torus with lattice identifications, and
the round sphere in two stereographic charts.

Points are (chart_id, coords) pairs; tangent vectors carry coordinate
velocity components in the same chart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .errors import DomainError

_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class TangentVec:
    chart: int
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


class Transition:
    """Smooth transition map between two chart overlap regions.

    ``fn`` maps a list of coordinates to a list of coordinates and must be
    written with generic arithmetic, so that duals pass through (used for
    Jacobians) and float arrays too.  Each method takes one point x of
    shape (n,) or rows x of shape (k, n), and the results gain that leading
    row axis.  Several rows are evaluated once, on the coordinate columns;
    one point or one row is evaluated on floats.  Every row has the bits of
    its own float evaluation.
    """

    def __init__(self, src, dst, fn):
        self.src = src
        self.dst = dst
        self.fn = fn

    def _eval(self, x, dirs, order):
        """The order-``order`` dual part of each coordinate of ``fn`` at x
        lifted into ``len(dirs)`` levels of duals (as ``dual.seed``), as an
        array of x's shape.  A direction is one vector, as floats, or one
        per row; only the innermost may vary by row, since an array
        multiplying a dual from the left would make an object array."""
        x = np.asarray(x, dtype=float)
        zs = _coords(x)
        for d in dirs:
            zs = [dual.Dual(z, dz) for z, dz in zip(zs, _coords(d))]
        y = np.empty(x.shape)
        for i, c in enumerate(self.fn(zs)):
            # a constant float among columns is broadcast down them
            y[..., i] = dual.extract(c, order)
        return y

    def apply(self, x):
        return self._eval(x, [], 0)

    def jacobian(self, x):
        eye = np.eye(np.shape(x)[-1])
        return np.stack([self._eval(x, [e], 1) for e in eye], axis=-1)

    def jacobian_directional(self, x, dx):
        """Directional derivative of the Jacobian along dx (an n x n matrix,
        or one per row of x and dx)."""
        eye = np.eye(np.shape(x)[-1])
        return np.stack([self._eval(x, [dx, e], 2) for e in eye], axis=-1)


def _coords(x):
    """The coordinates of a point, or the coordinate columns of rows; one
    row as floats."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1 or len(x) == 1:
        return x.reshape(-1).tolist()
    return list(x.T)


class ManifoldAtlas:
    """Boxes-and-transitions chart model with optional lattice periodicity.

    Every chart is 2-dimensional: the constructor checks that once, and the
    rest of the package relies on it.
    """

    dim = 2

    def __init__(self, boxes, transitions=(), periodic_lattice=None,
                 switch_rule=None):
        self.boxes = [np.asarray(b, dtype=float) for b in boxes]  # rows lo/hi
        if any(b.shape != (2, 2) for b in self.boxes):
            raise ValueError("chart boxes must have shape (2, 2): the lo and "
                             "hi rows of a 2-dimensional chart")
        self.transitions = {(t.src, t.dst): t for t in transitions}
        if periodic_lattice is not None:
            periodic_lattice = np.asarray(periodic_lattice, dtype=float)
            if periodic_lattice.shape != (2,):
                raise ValueError("a periodic lattice has 2 entries")
            if np.any(periodic_lattice <= 0):
                raise ValueError("periodic lattice entries must be positive")
        self.periodic_lattice = periodic_lattice
        self._boxes = np.array(self.boxes)
        self._switch_rule = switch_rule

    @property
    def n_charts(self):
        return len(self.boxes)

    def contains_rows(self, charts, X):
        """Whether each row X[r] lies in the box of chart ``charts[r]``, as
        a (k,) bool array; NaN compares false, so it stays outside."""
        X = np.asarray(X, dtype=float)
        box = self._boxes[charts]
        return ((box[:, 0] <= X) & (X <= box[:, 1])).all(axis=1)

    def contains(self, chart, x):
        """``contains_rows`` of the one row x, on Python floats: through
        the row form, one row costs about three times as much, and ``F``
        asks on every call."""
        lo, hi = self.boxes[chart].tolist()
        return all(a <= c <= b for a, c, b in
                   zip(lo, np.asarray(x).tolist(), hi))

    def require(self, chart, x):
        if not self.contains(chart, x):
            raise DomainError(
                f"point {np.asarray(x)} outside chart {chart} box")

    def switch_targets(self, charts, X):
        """The chart each row (charts[r], X[r]) switches to, as a (k,) int
        array: -1 while it stays in its chart's safe interior."""
        charts = np.asarray(charts)
        if self._switch_rule is None:
            return np.full(len(charts), -1)
        return self._switch_rule(charts, np.asarray(X, dtype=float))

    def transition(self, src, dst):
        try:
            return self.transitions[(src, dst)]
        except KeyError:
            raise DomainError(f"no transition {src} -> {dst}") from None

    def convert(self, point, target_chart):
        """Express a point (chart, x) in target_chart coordinates."""
        chart, x = point
        if chart == target_chart:
            return np.asarray(x, dtype=float)
        return self.transition(chart, target_chart).apply(x)

    def velocity_in(self, state: TangentVec, chart):
        """The velocity of ``state`` in ``chart``'s coordinates."""
        if state.chart == chart:
            return state.v
        return self.transition(state.chart, chart).jacobian(state.x) @ state.v

    def displacement(self, point, target):
        """Coordinate difference target - point in the target's chart.

        Uses the minimum-image convention under a periodic lattice.
        """
        tchart, tx = target
        x = self.convert(point, tchart)
        d = np.asarray(tx, dtype=float) - x
        if self.periodic_lattice is not None:
            d = d - self.periodic_lattice * np.round(d / self.periodic_lattice)
        return d

    def coord_distance(self, point, target):
        return float(np.linalg.norm(self.displacement(point, target)))


# -- factories -----------------------------------------------------------


def flat_atlas(*, halfwidth=100.0):
    return ManifoldAtlas([[[-halfwidth, -halfwidth], [halfwidth, halfwidth]]])


def torus_atlas(periods):
    periods = np.asarray(periods, dtype=float)
    # integration runs in the universal cover; identification applies on output
    hw = 100.0 * float(np.max(periods))
    return ManifoldAtlas([[[-hw, -hw], [hw, hw]]], periodic_lattice=periods)


def _inversion(x):
    r2 = x[0] * x[0] + x[1] * x[1]
    return [x[0] / r2, x[1] / r2]


SPHERE_SWITCH_RADIUS = 1.4     # |x| past which a geodesic switches chart
SPHERE_CHART_RADIUS = 3.0      # half-width of each stereographic chart


def sphere_atlas():
    """Unit round sphere as two stereographic charts glued by inversion.

    Chart 0 covers the sphere minus the north pole (origin = south pole);
    chart 1 covers the sphere minus the south pole.  The round metric is
    conformal, 4/(1+|x|^2)^2 * dx^2, in both charts.
    """
    r = SPHERE_CHART_RADIUS
    box = np.array([[-r, -r], [r, r]])
    t01 = Transition(0, 1, _inversion)
    t10 = Transition(1, 0, _inversion)

    def switch(charts, X):
        # |x|^2 as np.dot(x, x) forms it for one row: matmul on (k, 1, 2)
        # @ (k, 2, 1) gives each row those bits
        r2 = np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]
        return np.where(r2 > SPHERE_SWITCH_RADIUS ** 2, 1 - charts, -1)

    return ManifoldAtlas([box, box], [t01, t10], switch_rule=switch)
