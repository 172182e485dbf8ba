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

    ``fn`` maps a list of scalars to a list of scalars and must be written
    with generic arithmetic so duals pass through (used for Jacobians).
    """

    def __init__(self, src, dst, fn):
        self.src = src
        self.dst = dst
        self.fn = fn

    def apply(self, x):
        return np.array([dual.real(c) for c in self.fn(list(x))])

    def jacobian(self, x):
        n = len(x)
        J = np.empty((n, n))
        for j in range(n):
            e = [1.0 if i == j else 0.0 for i in range(n)]
            out = self.fn(dual.seed([float(c) for c in x], [e]))
            J[:, j] = [dual.extract(c, 1) for c in out]
        return J

    def jacobian_directional(self, x, dx):
        """Directional derivative of the Jacobian along dx (an n x n matrix)."""
        n = len(x)
        H = np.empty((n, n))
        for j in range(n):
            e = [1.0 if i == j else 0.0 for i in range(n)]
            out = self.fn(dual.seed([float(c) for c in x], [list(dx), e]))
            H[:, j] = [dual.extract(c, 2) for c in out]
        return H


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
        self._switch_rule = switch_rule

    @property
    def n_charts(self):
        return len(self.boxes)

    def contains(self, chart, x):
        lo, hi = self.boxes[chart]
        # scalar comparisons: NaN compares false, so it stays outside
        return all(a <= c <= b for a, c, b in
                   zip(lo.tolist(), np.asarray(x).tolist(), hi.tolist()))

    def require(self, chart, x):
        if not self.contains(chart, x):
            raise DomainError(
                f"point {np.asarray(x)} outside chart {chart} box")

    def switch_target(self, chart, x):
        """Chart to switch to when (chart, x) leaves the safe interior, else None."""
        if self._switch_rule is None:
            return None
        return self._switch_rule(chart, x)

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


def sphere_atlas(switch_radius=1.4, chart_radius=3.0):
    """Unit round sphere as two stereographic charts glued by inversion.

    Chart 0 covers the sphere minus the north pole (origin = south pole);
    chart 1 covers the sphere minus the south pole.  The round metric is
    conformal, 4/(1+|x|^2)^2 * dx^2, in both charts.
    """
    box = np.array([[-chart_radius, -chart_radius],
                    [chart_radius, chart_radius]])
    t01 = Transition(0, 1, _inversion)
    t10 = Transition(1, 0, _inversion)

    def switch(chart, x):
        if np.dot(x, x) > switch_radius ** 2:
            return 1 - chart
        return None

    return ManifoldAtlas([box, box], [t01, t10], switch_rule=switch)
