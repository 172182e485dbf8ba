"""End-to-end numeric acceptance checks.

Each test covers one criterion, prints a single pass/fail line with the
measured value, and asserts it. Shared session fixtures keep the heavy
cut-locus computations to one run each.
"""

import math
import sys

import numpy as np
import pytest

import finslercut as fc
from finslercut.atlas import TangentVec
from finslercut.scenario import compare_to_golden, run_scenario, \
    builtin_scenario, summary_document


def _line(num, label, passed, detail):
    word = "PASS" if passed else "FAIL"
    msg = f"criterion {num} ({label}): {word} [{detail}]"
    print(msg)
    # also reach the uncaptured stream so the line shows in plain pytest -v
    print(msg, file=sys.__stdout__)
    assert passed, f"criterion {num} ({label}): {detail}"


def _min_image_seg_dist(atlas, q, a, disp):
    """Distance from q to the segment a + s*disp, s in [0,1], min-image."""
    w = atlas.displacement(q, a)       # a - q, wrapped
    dd = float(disp @ disp)
    s = 0.0 if dd < 1e-30 else float(np.clip(-(w @ disp) / dd, 0.0, 1.0))
    return float(np.linalg.norm(w + s * disp))


def _polyline(atlas, points, closed):
    segs = []
    pairs = list(zip(points[:-1], points[1:]))
    if closed and len(points) > 2:
        pairs.append((points[-1], points[0]))
    for a, b in pairs:
        segs.append((a, atlas.displacement(a, b)))
    return segs


def _dist_to_polyline(atlas, q, segs):
    return min(_min_image_seg_dist(atlas, q, a, d) for a, d in segs)


# -- 1: sphere point source ----------------------------------------------


def test_criterion_1_sphere(sphere_setup, sphere_records, timings):
    atlas, metric, N, plan = sphere_setup
    rho_err = max(abs(r.rho - math.pi) for r in sphere_records)
    anti_err = max(atlas.coord_distance(r.cut_point, (1, np.zeros(2)))
                   for r in sphere_records)
    tc = fc.conjugate_time(metric, (0, np.zeros(2)), np.array([0.5, 0.0]),
                           4.0, rtol=1e-10, atol=1e-12)
    conj_err = abs(tc - math.pi)
    elapsed = timings["sphere"]
    ok = (rho_err < 1e-4 and anti_err < 1e-4 and conj_err < 1e-6
          and elapsed < 30.0)
    _line(1, "sphere point source",
          ok, f"max|rho-pi|={rho_err:.2e}, antipode={anti_err:.2e}, "
              f"|conj-pi|={conj_err:.2e}, {elapsed:.1f}s")


# -- 2: flat torus point source ------------------------------------------


def test_criterion_2_torus(torus_setup, torus_records, timings):
    atlas, metric, N, plan = torus_setup

    def rho_at(angle):
        best = min(torus_records,
                   key=lambda r: abs(math.atan2(r.ray.psi[1], r.ray.psi[0])
                                     - angle))
        return best.rho

    e1_err = abs(rho_at(0.0) - 0.5)
    diag_err = abs(rho_at(math.pi / 4) - math.sqrt(2) / 2)

    pts = [r.cut_point for r in torus_records]
    segs = _polyline(atlas, pts, closed=True)
    # Voronoi cell boundary of the unit lattice: the square max-norm 0.5
    to_square = max(abs(max(np.abs((np.asarray(x) + 0.5) % 1.0 - 0.5)) - 0.5)
                    for _, x in pts)
    ts = np.linspace(-0.5, 0.5, 401)
    boundary = ([(0, np.array([0.5, t])) for t in ts]
                + [(0, np.array([t, 0.5])) for t in ts])
    from_square = max(_dist_to_polyline(atlas, q, segs) for q in boundary)
    haus = max(to_square, from_square)
    lam_inf = all(math.isinf(r.lam) for r in torus_records)
    elapsed = timings["torus"]
    ok = (e1_err < 1e-6 and diag_err < 1e-6 and haus < 1e-4 and lam_inf
          and elapsed < 60.0)
    _line(2, "flat torus point source",
          ok, f"|rho(e1)-1/2|={e1_err:.2e}, |rho(diag)-r2/2|={diag_err:.2e}, "
              f"hausdorff={haus:.2e}, lambda=inf:{lam_inf}, {elapsed:.1f}s")


# -- 3: plane circle ------------------------------------------------------


def test_criterion_3_circle(circle_setup, circle_field, circle_records):
    atlas, metric, N, plan = circle_setup
    rho_err = max(abs(r.rho - 1.0) for r in circle_records)
    lam_err = max(abs(r.lam - 1.0) for r in circle_records)
    center_ok = circle_records[0].classification == {"Separating",
                                                     "FirstFocal"}
    outward_ok = True
    for theta in (0.2, 2.3, 4.1):
        res = circle_field.cut_time(fc.unit_normal(metric, N, theta, -1.0))
        outward_ok &= bool(res.unbounded and math.isinf(res.rho))
    ok = rho_err < 1e-6 and lam_err < 1e-6 and center_ok and outward_ok
    _line(3, "plane circle",
          ok, f"|rho-1|={rho_err:.2e}, |lambda-1|={lam_err:.2e}, "
              f"center both classes:{center_ok}, outward "
              f"unbounded:{outward_ok}")


# -- 4: plane ellipse -----------------------------------------------------


def test_criterion_4_ellipse(ellipse_setup, ellipse_records, timings):
    atlas, metric, N, plan = ellipse_setup
    pts = [r.cut_point for r in ellipse_records]
    to_seg = max(abs(x[1]) if abs(x[0]) <= 1.5
                 else math.hypot(abs(x[0]) - 1.5, x[1])
                 for _, x in pts)
    segs = _polyline(atlas, pts, closed=True)
    ref = [(0, np.array([t, 0.0])) for t in np.linspace(-1.5, 1.5, 601)]
    from_seg = max(_dist_to_polyline(atlas, q, segs) for q in ref)
    haus = max(to_seg, from_seg)

    end_ok, end_err = True, 0.0
    interior_ok = True
    for r in ellipse_records:
        theta = r.ray.theta[0]
        at_end = min(abs(theta - 0.0), abs(theta - math.pi),
                     abs(theta - 2 * math.pi)) < 1e-9
        if at_end:
            end_err = max(end_err, abs(r.rho - 0.5))
            end_ok &= "FirstFocal" in r.classification
        else:
            interior_ok &= "Separating" in r.classification
    dense = fc.check_se_dense(ellipse_records, atlas=atlas)
    elapsed = timings["ellipse"]
    ok = (haus < 1e-3 and end_ok and end_err < 1e-4 and interior_ok
          and dense.passed and elapsed < 180.0)
    _line(4, "plane ellipse",
          ok, f"hausdorff={haus:.2e}, endpoints focal:{end_ok} "
              f"|rho-1/2|={end_err:.2e}, interior separating:{interior_ok}, "
              f"se-dense:{dense.passed}, {elapsed:.1f}s")


# -- 5: Randers plane -----------------------------------------------------


def test_criterion_5_randers(randers_setup):
    atlas, metric = randers_setup
    plan = fc.ShootingPlan(psi_count=64, horizon=3.0)
    d_fwd = fc.NormalShooting(metric, fc.point_submanifold(0, np.zeros(2)),
                              plan).distance((0, np.array([1.0, 0.0]))).d
    d_bwd = fc.NormalShooting(metric, fc.point_submanifold(0, [1.0, 0.0]),
                              plan).distance((0, np.zeros(2))).d
    dist_err = max(abs(d_fwd - 1.5), abs(d_bwd - 0.5))

    N = fc.axis_line_submanifold(0, (0.0, 0.0), (0.0, 1.0))
    vs = sorted([fc.unit_normal(metric, N, 0.0, 1.0).v,
                 fc.unit_normal(metric, N, 0.0, -1.0).v],
                key=lambda v: v[0])
    normal_err = max(np.max(np.abs(vs[0] - [-2.0, 0.0])),
                     np.max(np.abs(vs[1] - [2.0 / 3.0, 0.0])))
    bad = fc.CustomMetric(atlas, lambda c, x, v: fc.dual.sqrt(
        v[0] * v[0] + v[1] * v[1]) + 1.2 * v[0])
    rejected = not fc.validate_metric(bad).passed
    try:
        fc.RandersMetric(atlas, np.array([1.2, 0.0]))
        raised = False
    except fc.ConvexityError:
        raised = True
    ok = dist_err < 1e-6 and normal_err < 1e-8 and rejected and raised
    _line(5, "randers plane",
          ok, f"dist_err={dist_err:.2e}, normal_err={normal_err:.2e}, "
              f"validate rejects |b|=1.2:{rejected and raised}")


# -- 6: distance-squared differential ------------------------------------


def test_criterion_6_differential(circle_field, torus_field, randers_setup):
    rng = np.random.default_rng(21)
    worst = 0.0

    def probe(field, qs):
        nonlocal worst
        for q in qs:
            angs = rng.uniform(0, 2 * math.pi, 2)
            dirs = [np.array([math.cos(a), math.sin(a)]) for a in angs]
            rep = fc.check_first_variation(field, q, dirs)
            worst = max(worst, rep.max_deviation)

    qs = []
    while len(qs) < 24:
        r, a = rng.uniform(0.15, 0.85), rng.uniform(0, 2 * math.pi)
        qs.append((0, r * np.array([math.cos(a), math.sin(a)])))
    probe(circle_field, qs)

    qs = []
    while len(qs) < 24:
        x = rng.uniform(-0.4, 0.4, 2)
        if 0.05 < np.max(np.abs(x)):
            qs.append((0, x))
    probe(torus_field, qs)

    atlas_r, metric_r = randers_setup
    N_r = fc.point_submanifold(0, np.zeros(2))
    plan_r = fc.ShootingPlan(psi_count=64, horizon=3.0)
    qs = []
    while len(qs) < 24:
        x = rng.uniform(-0.8, 0.8, 2)
        if np.linalg.norm(x) > 0.1:
            qs.append((0, x))
    probe(fc.NormalShooting(metric_r, N_r, plan_r), qs)

    spread = fc.one_sided_spread(circle_field, (0, np.zeros(2)),
                                 np.array([1.0, 0.0]))
    ok = worst <= 1e-4 and spread > 1.0
    _line(6, "distance-squared differential",
          ok, f"max|df-fd|={worst:.2e} over 72 probes, center "
              f"spread={spread:.2f}")


# -- 7: retraction endpoints ---------------------------------------------


def test_criterion_7_retractions(torus_field, torus_records,
                                 ellipse_field, ellipse_records):
    rng = np.random.default_rng(22)
    worst = 0.0
    fixed_worst = 0.0

    def probe(field, records, n=50):
        nonlocal worst, fixed_worst
        atlas = field.atlas
        recs = [r for r in records if np.isfinite(r.rho)]
        for _ in range(n):
            rec = recs[rng.integers(len(recs))]
            u = rng.uniform(0.2, 0.8)
            q = field.path(rec.ray, max(u * rec.rho, 1e-9)).position(
                u * rec.rho)
            inv = fc.inverse_normal_exp(field, q)
            base = (inv.ray.chart, inv.ray.x)
            worst = max(
                worst,
                atlas.coord_distance(fc.retract_to_N(field, q, 0.0), q),
                atlas.coord_distance(fc.retract_to_N(field, q, 1.0), base),
                atlas.coord_distance(fc.retract_to_cut(field, q, 0.0), q),
                atlas.coord_distance(fc.retract_to_cut(field, q, 1.0),
                                     rec.cut_point))
        cut_q = records[0].cut_point
        fixed_worst = max(fixed_worst, atlas.coord_distance(
            fc.retract_to_cut(field, cut_q, 0.6), cut_q))

    probe(torus_field, torus_records)
    probe(ellipse_field, ellipse_records)
    ok = worst <= 1e-5 and fixed_worst <= 1e-6
    _line(7, "retraction endpoints",
          ok, f"max endpoint defect={worst:.2e} over 100 probes, cut fixed "
              f"point defect={fixed_worst:.2e}")


# -- 8: geodesic loops ----------------------------------------------------


def test_criterion_8_loops(torus_field, torus_records, sphere_setup,
                           randers_setup):
    atlas = torus_field.atlas
    res = fc.find_geodesic_loop(torus_field, records=torus_records)
    torus_ok = (res.branch == "loop" and abs(res.length - 1.0) < 1e-5
                and res.smoothness_residual <= 1e-4
                and atlas.coord_distance(res.x0,
                                         (0, np.array([0.5, 0.0]))) < 1e-5)

    q_atlas = fc.torus_atlas([1.0, 1.0])
    q_metric = fc.MinkowskiQuarticMetric(q_atlas, eps=0.1)
    q_N = fc.point_submanifold(0, np.zeros(2))
    q_plan = fc.ShootingPlan(psi_count=64, horizon=1.5,
                             bisect_tol=1e-8, min_slack=1e-7)
    q_res = fc.find_geodesic_loop(fc.NormalShooting(q_metric, q_N, q_plan))
    oracle = min(
        q_metric.F(TangentVec(0, np.zeros(2), np.array([i, j], float)))
        for i in range(-2, 3) for j in range(-2, 3) if (i, j) != (0, 0))
    quartic_ok = (q_res.branch == "loop"
                  and abs(q_res.length - 2 * q_res.d_min) < 1e-6
                  and abs(q_res.length - oracle) < 1e-4)

    atlas_r, metric_r = randers_setup
    try:
        fc.find_geodesic_loop(fc.NormalShooting(
            metric_r, fc.point_submanifold(0, np.zeros(2))))
        randers_ok = False
    except fc.ReversibilityError:
        randers_ok = True

    s_atlas, s_metric, _, s_plan = sphere_setup
    equator = fc.circle_submanifold(0, (0.0, 0.0), 1.0)
    import dataclasses
    eq_plan = dataclasses.replace(s_plan, theta_count=32, psi_count=2)
    eq_res = fc.find_geodesic_loop(fc.NormalShooting(s_metric, equator,
                                                     eq_plan))
    equator_ok = eq_res.branch == "focal"

    ok = torus_ok and quartic_ok and randers_ok and equator_ok
    _line(8, "geodesic loops",
          ok, f"torus:{torus_ok} quartic:{quartic_ok} (len={q_res.length:.6f}"
              f" vs oracle {oracle:.6f}), randers rejected:{randers_ok}, "
              f"equator focal:{equator_ok}")


# -- 9: property suites ---------------------------------------------------


def test_criterion_9_properties(sphere_setup, sphere_field, sphere_records,
                                torus_setup, torus_field, torus_records,
                                circle_setup, circle_field, circle_records,
                                ellipse_field, ellipse_records,
                                randers_setup):
    scenarios = [
        ("sphere", sphere_field, sphere_records),
        ("torus", torus_field, torus_records),
        ("circle", circle_field, circle_records),
        ("ellipse", ellipse_field, ellipse_records),
    ]
    violations = []
    speed_worst = 0.0
    for name, field, records in scenarios:
        rep = fc.check_rho_leq_lambda(records)
        if not rep.passed:
            violations.append(f"{name}: rho > lambda")
        for r in records:
            if not (r.rho > 0):
                violations.append(f"{name}: rho <= 0")
                break
        for r in records:
            if np.isfinite(r.rho) and not r.classification:
                violations.append(f"{name}: empty classification")
                break
        for i in (0, len(field.rays) // 2):
            path = field.path(field.rays[i])
            if hasattr(path, "knot_speeds"):
                speeds = np.array([s for _, s in path.knot_speeds])
                speed_worst = max(speed_worst,
                                  float(np.max(np.abs(speeds - 1.0))))

    # linearized flow vs central differences on the sphere
    s_atlas, s_metric, _, _ = sphere_setup
    x0, v0 = np.array([0.03, -0.06]), np.array([0.47, 0.12])
    frame = fc.linearized_flow(s_metric, TangentVec(0, x0, v0), 1.1,
                               np.zeros((2, 2)), np.eye(2),
                               rtol=1e-10, atol=1e-12)
    J = frame.signed_matrix(1.1)[0]
    lin_worst = 0.0
    h = 1e-6
    for j in range(2):
        dv = np.zeros(2)
        dv[j] = h
        pp = fc.integrate_geodesic(s_metric, TangentVec(0, x0, v0 + dv),
                                   1.1, rtol=1e-11, atol=1e-13).position(1.1)
        pm = fc.integrate_geodesic(s_metric, TangentVec(0, x0, v0 - dv),
                                   1.1, rtol=1e-11, atol=1e-13).position(1.1)
        fd = (pp[1] - pm[1]) / (2 * h)
        lin_worst = max(lin_worst, float(np.max(np.abs(J[:, j] - fd))))

    rng = np.random.default_rng(9)
    metrics = [sphere_setup[1], torus_setup[1], circle_setup[1],
               randers_setup[1],
               fc.MinkowskiQuarticMetric(fc.flat_atlas(), eps=0.1)]
    g_worst = leg_worst = 0.0
    for metric in metrics:
        for _ in range(10):
            v = rng.standard_normal(2)
            if np.linalg.norm(v) < 0.2:
                continue
            p = TangentVec(0, rng.uniform(-0.3, 0.3, 2), v)
            g = metric.fundamental(p)
            g_worst = max(g_worst, abs(float(v @ g @ v) - metric.F(p) ** 2)
                          / max(metric.F(p) ** 2, 1.0))
            omega = metric.legendre_rows(0, p.x, [p.v])[0]
            back = fc.legendre_inverse(metric, 0, p.x, omega)
            leg_worst = max(leg_worst, float(np.max(np.abs(back.v - v)))
                            / max(1.0, float(np.linalg.norm(v))))

    ok = (not violations and speed_worst < 1e-7 and lin_worst < 1e-4
          and g_worst < 1e-9 and leg_worst < 1e-9)
    _line(9, "property suites",
          ok, f"violations={violations}, speed={speed_worst:.2e}, "
              f"linearized={lin_worst:.2e}, g(v,v)-F2={g_worst:.2e}, "
              f"legendre={leg_worst:.2e}")


# -- 10: determinism ------------------------------------------------------


def test_criterion_10_determinism():
    diffs_all = []
    for name in ("plane-circle", "randers-plane-point"):
        sc = builtin_scenario(name)
        bundle = run_scenario(sc)
        diffs_all += compare_to_golden(summary_document(bundle), name,
                                       rtol=1e-9)
    ok = not diffs_all
    _line(10, "determinism vs goldens",
          ok, f"{len(diffs_all)} differences" if diffs_all else
              "2 builtins reproduce goldens at 1e-9")
