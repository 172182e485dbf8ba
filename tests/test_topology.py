import dataclasses
import math

import numpy as np
import pytest

import finslercut as fc
from finslercut import scenario, straight, topology


def test_inverse_normal_exp_torus(torus_field):
    q = (0, np.array([0.3, 0.1]))
    inv = fc.inverse_normal_exp(torus_field, q)
    assert abs(inv.t - math.hypot(0.3, 0.1)) < 1e-7
    assert inv.residual < 1e-6
    assert inv.t < inv.rho


def test_inverse_normal_exp_rejects_cut_point(circle_field):
    with pytest.raises(fc.CutLocusError):
        fc.inverse_normal_exp(circle_field, (0, np.zeros(2)))


def test_retract_to_N_endpoints(torus_field):
    atlas = torus_field.atlas
    q = (0, np.array([0.2, 0.15]))
    p0 = fc.retract_to_N(torus_field, q, 0.0)
    assert atlas.coord_distance(p0, q) < 1e-7
    p1 = fc.retract_to_N(torus_field, q, 1.0)
    assert atlas.coord_distance(p1, (0, np.zeros(2))) < 1e-9


def test_retract_to_cut_endpoints(torus_field):
    atlas = torus_field.atlas
    q = (0, np.array([0.2, 0.0]))
    c0 = fc.retract_to_cut(torus_field, q, 0.0)
    assert atlas.coord_distance(c0, q) < 1e-7
    c1 = fc.retract_to_cut(torus_field, q, 1.0)
    assert atlas.coord_distance(c1, (0, np.array([0.5, 0.0]))) < 1e-6


def test_retract_to_cut_fixes_cut_points(torus_field):
    atlas = torus_field.atlas
    q = (0, np.array([0.5, 0.2]))   # on the Voronoi edge
    for s in (0.0, 0.4, 1.0):
        c = fc.retract_to_cut(torus_field, q, s)
        assert atlas.coord_distance(c, q) < 1e-6


def test_retract_to_cut_undefined_on_unbounded_ray(circle_field):
    q = (0, np.array([2.5, 0.0]))   # outside the circle: rho = inf
    with pytest.raises(fc.RetractionUndefinedError):
        fc.retract_to_cut(circle_field, q, 0.5)


def test_distance_sq_differential_matches_fd(torus_field):
    q = (0, np.array([0.25, 0.1]))
    rep = fc.check_first_variation(torus_field, q,
                                   [np.array([1.0, 0.0]),
                                    np.array([0.0, 1.0]),
                                    np.array([0.6, -0.8])])
    assert rep.max_deviation < 1e-4


def test_nondifferentiable_at_circle_center(circle_field):
    with pytest.raises(fc.NondifferentiableError) as err:
        fc.distance_sq_differential(circle_field, (0, np.zeros(2)),
                                    np.array([1.0, 0.0]))
    assert len(err.value.one_sided) >= 2


def test_one_sided_spread_large_at_center(circle_field):
    spread = fc.one_sided_spread(circle_field, (0, np.zeros(2)),
                                 np.array([1.0, 0.0]))
    assert spread > 1.0


def test_one_sided_spread_small_off_cut(circle_field):
    spread = fc.one_sided_spread(circle_field, (0, np.array([0.4, 0.0])),
                                 np.array([1.0, 0.0]))
    assert spread < 1e-3


def test_homotopy_trace_is_monotone_toward_N(torus_field):
    atlas = torus_field.atlas
    q = (0, np.array([0.3, 0.05]))
    rows = fc.homotopy_trace(torus_field, q)
    dists = [atlas.coord_distance((c, x), (0, np.zeros(2)))
             for _, c, x in rows]
    assert all(b <= a + 1e-9 for a, b in zip(dists[:-1], dists[1:]))
    assert dists[-1] < 1e-9


def test_retract_probes_reuse_the_fan_cut_times():
    # a closed-form minimizer's direction w / F(w) can differ from its fan
    # ray's in the last bits; the probes of a torus-point run then read the
    # fan ray's cut time rather than computing one more (151 cut times for
    # 128 fan rays before)
    sc = scenario.builtin_scenario("torus-point")
    field = fc.NormalShooting(*scenario.build_geometry(sc)[1:])
    records = fc.cut_locus(field)
    probes = scenario._probe_points(field, records,
                                    np.random.default_rng(sc.seed),
                                    scenario.RETRACT_PROBES)
    moved = 0
    for q, rec, t in probes:
        inv = fc.inverse_normal_exp(field, q)
        assert inv.rho == rec.rho and abs(inv.t - t) < 1e-12
        moved += not np.array_equal(inv.ray.v, rec.ray.v)
        fc.retract_to_cut(field, q, 1.0)
    assert moved and len(field._cut_times) == len(field.rays)
    # a ray a visible angle off the fan keeps its own cut time
    ray = field.rays[5]
    off = field.ray_at(field.ray_param(ray) + 1e-3, ray)
    assert topology._fan_twin(field, off) is off
    assert topology._fan_twin(field, ray) is ray


def _variation_items(rng, qs):
    """Each point of ``qs`` with three random unit directions."""
    items = []
    for q in qs:
        angs = rng.uniform(0, 2 * math.pi, 3)
        items.append((q, [np.array([math.cos(a), math.sin(a)])
                          for a in angs]))
    return items


def _report_bits(rep):
    return (float.hex(rep.max_deviation),
            [(X.tobytes(), float.hex(a), float.hex(fd))
             for X, a, fd in rep.rows])


def test_batched_first_variations_equal_the_lone_checks_to_the_bit(
        torus_field, circle_field):
    rng = np.random.default_rng(31)
    for field, radius in ((torus_field, 0.4), (circle_field, 0.8)):
        qs = [(0, rng.uniform(-radius, radius, 2)) for _ in range(12)]
        items = _variation_items(rng, qs)
        reps = fc.check_first_variations(field, items)
        assert [rep.q for rep in reps] == qs
        for rep, (q, dirs) in zip(reps, items):
            assert _report_bits(rep) == _report_bits(
                fc.check_first_variation(field, q, dirs))


def test_batched_first_variations_raise_the_first_lone_error():
    # the lattice-free plane: points beyond twice the horizon are unreached
    sc = scenario.builtin_scenario("randers-plane-point")
    field = fc.NormalShooting(*scenario.build_geometry(sc)[1:])
    far = 2 * field.plan.horizon + 1.0
    qs = [(0, np.array([0.3, 0.2])), (0, np.array([0.0, far])),
          (0, np.array([far, -0.5])), (0, np.array([0.1, -0.4]))]
    items = _variation_items(np.random.default_rng(32), qs)
    lone = []
    for q, dirs in items:
        try:
            fc.check_first_variation(field, q, dirs)
        except fc.UnreachedPointError as exc:
            lone.append(exc)
        else:
            lone.append(None)
    assert [exc is None for exc in lone] == [True, False, False, True]
    lone = lone[1]
    with pytest.raises(fc.UnreachedPointError) as got:
        fc.check_first_variations(field, items)
    assert str(got.value) == str(lone)


def test_retracts_computes_one_inverse_per_probe(monkeypatch):
    calls = []
    inverse = topology.inverse_normal_exp

    def counted(field, q):
        calls.append(q)
        return inverse(field, q)

    monkeypatch.setattr(topology, "inverse_normal_exp", counted)
    sc = dataclasses.replace(scenario.builtin_scenario("torus-point"),
                             tasks=["cutlocus", "retracts"])
    bundle = fc.run_scenario(sc)
    assert bundle.documents["retracts"]["n_probes"] == scenario.RETRACT_PROBES
    # one per probe, and one for the cut point that stays fixed
    assert len(calls) == scenario.RETRACT_PROBES + 1


def test_dfcheck_asks_its_probes_in_two_distance_batches(monkeypatch):
    calls = []
    distances = straight.StraightPointSource.distances

    def counted(self, qs):
        calls.append(len(qs))
        return distances(self, qs)

    monkeypatch.setattr(straight.StraightPointSource, "distances", counted)
    sc = dataclasses.replace(scenario.builtin_scenario("torus-point"),
                             tasks=["dfcheck"])
    bundle = fc.run_scenario(sc)
    n = scenario.DFCHECK_PROBES
    assert bundle.documents["dfcheck"]["n_probes"] == n
    # every difference point in one quick batch, then every centre
    assert calls == [6 * n, n]
