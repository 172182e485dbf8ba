"""Seeded scenario documents for the benchmark workloads, and the exact cut
times they are checked against.

Seed 0 returns the builtin scenario unchanged, so its golden summary applies.
Any other seed draws the geometry and the scenario seed from
``numpy.random.default_rng(seed)``; the program only ever sees the document.
"""

from __future__ import annotations

import copy
import math

import numpy as np

# workload name -> builtin scenario it is drawn from
WORKLOADS = ("sphere-point", "torus-quartic-point", "torus-point")

SPHERE_SOURCE_RADIUS = 0.4
TORUS_PERIOD_RANGE = (0.8, 1.25)

# acceptance-test tolerances on |rho - rho_exact|
RHO_TOL = {"sphere-stereo": 1e-4, "torus": 1e-6}


def generate(name, seed, builtins):
    """Scenario document for workload ``name`` at ``seed``.

    ``builtins`` is ``finslercut.scenario.BUILTINS``; it is passed in so that
    this module imports nothing from the program.
    """
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"available: {', '.join(WORKLOADS)}")
    doc = copy.deepcopy(builtins[name])
    if seed == 0:
        return doc
    rng = np.random.default_rng(seed)
    if doc["manifold"]["type"] == "sphere-stereo":
        # uniform in the chart-0 disk |x| <= 0.4
        r = SPHERE_SOURCE_RADIUS * math.sqrt(rng.uniform())
        a = rng.uniform(0.0, 2.0 * math.pi)
        doc["submanifold"]["point"] = [r * math.cos(a), r * math.sin(a)]
    else:
        periods = rng.uniform(*TORUS_PERIOD_RANGE, size=2)
        doc["manifold"]["periods"] = [float(p) for p in periods]
        doc["submanifold"]["point"] = [float(rng.uniform(0.0, p))
                                       for p in periods]
    doc["seed"] = int(rng.integers(0, 2 ** 31))
    return doc


def exact_rho(doc, v):
    """Exact cut time of the ray with unit-speed initial velocity ``v``.

    Round unit sphere: pi on every ray.  Flat torus with periods (a, b) and a
    norm unchanged by flipping the sign of each coordinate (Euclidean and
    quartic): the ray first meets the bisector of a lattice neighbour at
    min(a / 2|v1|, b / 2|v2|).
    """
    kind = doc["manifold"]["type"]
    if kind == "sphere-stereo":
        return math.pi
    if kind == "torus":
        periods = doc["manifold"].get("periods", [1.0, 1.0])
        return min(p / (2.0 * abs(c)) if c else math.inf
                   for p, c in zip(periods, v))
    raise ValueError(f"no exact cut time for manifold {kind!r}")
