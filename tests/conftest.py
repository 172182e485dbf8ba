import time

import numpy as np
import pytest

import finslercut as fc

TIMINGS = {}


def _timed(key, fn):
    t0 = time.perf_counter()
    out = fn()
    TIMINGS[key] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def timings():
    return TIMINGS


@pytest.fixture(scope="session")
def torus_setup():
    atlas = fc.torus_atlas([1.0, 1.0])
    metric = fc.euclidean_metric(atlas)
    N = fc.point_submanifold(0, np.zeros(2))
    plan = fc.ShootingPlan(psi_count=128, horizon=1.5,
                           bisect_tol=1e-8, min_slack=1e-7)
    return atlas, metric, N, plan


@pytest.fixture(scope="session")
def torus_field(torus_setup):
    atlas, metric, N, plan = torus_setup
    return fc.NormalShooting(metric, N, plan)


@pytest.fixture(scope="session")
def torus_records(torus_field):
    return _timed("torus", lambda: fc.cut_locus(torus_field))


@pytest.fixture(scope="session")
def sphere_setup():
    atlas = fc.sphere_atlas()
    metric = fc.sphere_metric(atlas)
    N = fc.point_submanifold(0, np.zeros(2))
    plan = fc.ShootingPlan(psi_count=64, horizon=4.0,
                           ode_rtol=1e-8, ode_atol=1e-10,
                           min_slack=1e-5)
    return atlas, metric, N, plan


@pytest.fixture(scope="session")
def sphere_field(sphere_setup):
    atlas, metric, N, plan = sphere_setup
    return fc.NormalShooting(metric, N, plan)


@pytest.fixture(scope="session")
def sphere_records(sphere_field):
    return _timed("sphere", lambda: fc.cut_locus(sphere_field))


@pytest.fixture(scope="session")
def circle_setup():
    atlas = fc.flat_atlas()
    metric = fc.euclidean_metric(atlas)
    N = fc.circle_submanifold(0, (0.0, 0.0), 1.0)
    plan = fc.ShootingPlan(theta_count=128, horizon=3.0,
                           bisect_tol=1e-8, min_slack=1e-7)
    return atlas, metric, N, plan


@pytest.fixture(scope="session")
def circle_field(circle_setup):
    atlas, metric, N, plan = circle_setup
    return fc.NormalShooting(metric, N, plan)


@pytest.fixture(scope="session")
def circle_records(circle_field):
    return _timed("circle", lambda: fc.cut_locus(circle_field, side=1))


@pytest.fixture(scope="session")
def ellipse_setup():
    atlas = fc.flat_atlas()
    metric = fc.euclidean_metric(atlas)
    N = fc.ellipse_submanifold(0, a=2.0, b=1.0)
    plan = fc.ShootingPlan(theta_count=256, horizon=3.0)
    return atlas, metric, N, plan


@pytest.fixture(scope="session")
def ellipse_field(ellipse_setup):
    atlas, metric, N, plan = ellipse_setup
    return fc.NormalShooting(metric, N, plan)


@pytest.fixture(scope="session")
def ellipse_records(ellipse_field):
    return _timed("ellipse", lambda: fc.cut_locus(ellipse_field, side=1))


@pytest.fixture(scope="session")
def randers_setup():
    atlas = fc.flat_atlas()
    metric = fc.RandersMetric(atlas, np.array([0.5, 0.0]))
    return atlas, metric
