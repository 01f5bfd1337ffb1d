"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test pins the tolerance and the wall-clock budget it must meet and
prints a single pass line; run with ``pytest -v tests/test_acceptance.py``
to get one verdict line per criterion.
"""

import glob
import math
import os
import time

import numpy as np
import pytest

from trafficpaths import constructors, currents, metrics, optimizer, stability
from trafficpaths import decomposition as dcmp
from trafficpaths.currents import AtomicMeasure
from trafficpaths.geometry import Ball, BallRegion

from conftest import AffineMap, random_acyclic_path

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def atoms2(*entries):
    return AtomicMeasure.from_atoms([(np.array(p, dtype=float), m)
                                     for p, m in entries], dim=2)


def _done(name: str, budget: float, t0: float, detail: str = ""):
    dt = time.monotonic() - t0
    assert dt < budget, f"{name} exceeded its {budget:.0f}s budget ({dt:.1f}s)"
    print(f"{name}: PASS in {dt:.2f}s {detail}".rstrip())


def test_criterion_1_good_decomposition_equalities():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for trial in range(200):
        t = random_acyclic_path(rng, max_edges=40)
        pi = dcmp.good_decomposition(t)
        bnd = currents.boundary(t)
        assert (pi.start_measure() - bnd.negative_part()).tv() <= 1e-9
        assert (pi.end_measure() - bnd.positive_part()).tv() <= 1e-9
        assert abs(currents.mass(t) -
                   sum(w * c.length() for c, w in pi.entries)) <= 1e-9
        # edgewise: the decomposition recovers every multiplicity exactly
        acc: dict = {}
        for c, w in pi.entries:
            for a, b in zip(c.waypoints[:-1], c.waypoints[1:]):
                key = (a.tobytes(), b.tobytes())
                acc[key] = acc.get(key, 0.0) + w
        for a, b, th in t.segments():
            got = acc.pop((a.tobytes(), b.tobytes()), 0.0)
            assert abs(got - th) <= 1e-9
        assert all(abs(v) <= 1e-9 for v in acc.values())
    _done("criterion 1 (decomposition equalities, 200 paths)", 10.0, t0)


def test_criterion_2_alpha_mass_axioms():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    for trial in range(40):
        t1 = random_acyclic_path(rng, max_edges=15)
        t2 = random_acyclic_path(rng, max_edges=15)
        alpha = float(rng.uniform(0.1, 1.0))
        # subadditivity
        assert currents.alpha_mass(currents.add(t1, t2), alpha) <= \
            currents.alpha_mass(t1, alpha) + currents.alpha_mass(t2, alpha) + 1e-9
        # homogeneity of degree alpha in the multiplicity
        lam = float(rng.uniform(0.2, 4.0))
        assert abs(currents.alpha_mass(currents.scale(t1, lam), alpha) -
                   lam ** alpha * currents.alpha_mass(t1, alpha)) <= 1e-9
        # restriction additivity over a region and its complement
        ball = Ball(rng.uniform(-1, 1, size=2), float(rng.uniform(0.5, 2.0)))
        region = BallRegion.union_of([ball])
        split = (currents.alpha_mass(currents.restrict(t1, region), alpha) +
                 currents.alpha_mass(currents.restrict(t1, region.complemented()),
                                     alpha))
        assert abs(split - currents.alpha_mass(t1, alpha)) <= 1e-9
        # push-forward bound under a Lipschitz map
        lip = float(rng.uniform(0.2, 1.5))
        f = AffineMap(lip * np.eye(2), rng.uniform(-1, 1, size=2))
        assert currents.alpha_mass(currents.push_forward(t1, f), alpha) <= \
            lip * currents.alpha_mass(t1, alpha) + 1e-9
    _done("criterion 2 (cost axioms, 40 random pairs)", 5.0, t0)


def test_criterion_3_optimizer_anchors():
    t0 = time.monotonic()
    # anchor 1: alpha = 1 is plain transport; symmetric V costs 2*sqrt(2)
    t_v = optimizer.brute_force_optimal(
        atoms2(((-1.0, 0.0), 1.0), ((1.0, 0.0), 1.0)),
        atoms2(((0.0, 1.0), 2.0)), alpha=1.0)
    assert abs(currents.alpha_mass(t_v, 1.0) - 2.0 * math.sqrt(2.0)) <= 1e-6

    # anchor 2: alpha = 0.5 branched Y beats the V; the improvement matches
    # an independent 1e-3 grid search over the junction position
    mu_minus = atoms2(((-1.0, 2.0), 1.0), ((1.0, 2.0), 1.0))
    mu_plus = atoms2(((0.0, 0.0), 2.0))
    a = np.arange(-0.3, 0.3 + 1e-12, 1e-3)
    b = np.arange(0.4, 1.6 + 1e-12, 1e-3)
    A, B = np.meshgrid(a, b)
    grid_cost = (np.hypot(A + 1.0, B - 2.0) + np.hypot(A - 1.0, B - 2.0)
                 + math.sqrt(2.0) * np.hypot(A, B))
    v_cost = 2.0 * math.sqrt(5.0)
    gap_grid = v_cost - float(grid_cost.min())
    t_y = optimizer.brute_force_optimal(mu_minus, mu_plus, alpha=0.5)
    gap_impl = v_cost - currents.alpha_mass(t_y, 0.5)
    assert abs(gap_impl - gap_grid) <= 1e-4

    # anchor 3: alpha = 0 is the Steiner problem; equilateral terminals meet
    # at the Fermat point under three 120 degree angles
    A3 = np.array([0.0, 0.0])
    B3 = np.array([1.0, 0.0])
    C3 = np.array([0.5, math.sqrt(3.0) / 2.0])
    t_f = optimizer.brute_force_optimal(
        atoms2((A3, 1.0)), atoms2((B3, 0.5), (C3, 0.5)), alpha=0.0)
    junction = None
    for v in t_f.vertices:
        if all(np.linalg.norm(v - p) > 0.2 for p in (A3, B3, C3)):
            junction = v
    assert junction is not None
    for p, q in ((A3, B3), (B3, C3), (C3, A3)):
        u1 = p - junction
        u2 = q - junction
        ang = math.degrees(math.acos(
            float(u1 @ u2) / (np.linalg.norm(u1) * np.linalg.norm(u2))))
        assert abs(ang - 120.0) <= 0.1
    _done("criterion 3 (solver anchors at alpha = 1, 0.5, 0)", 60.0, t0)


def test_criterion_4_flat_norms():
    t0 = time.monotonic()
    # one positive and one negative atom: move or destroy, min(|x-y|, 2)
    for d in (0.3, 0.5, 1.0, 1.9, 2.0, 3.0, 50.0):
        mu = AtomicMeasure.from_atoms([((0.0, 0.0), 1.0), ((d, 0.0), -1.0)])
        assert abs(metrics.flat_norm_0(mu) - min(d, 2.0)) <= 1e-9

    # two parallel unit segments at distance delta, closed into a loop:
    # the flat distance to zero is the enclosed area delta
    delta = 0.4
    h = delta / 10.0
    loop = currents.from_segments([
        (np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0),
        (np.array([1.0, 0.0]), np.array([1.0, delta]), 1.0),
        (np.array([1.0, delta]), np.array([0.0, delta]), 1.0),
        (np.array([0.0, delta]), np.array([0.0, 0.0]), 1.0)])
    grid = metrics.GridComplex.from_box(-0.2, -0.2, 1.2, delta + 0.2, h)
    value, _ = metrics.flat_distance_1(loop, currents.empty_path(2), grid)
    assert abs(value - delta) <= 0.05 * delta
    _done("criterion 4 (flat norms: dipoles exact, loop area within 5%)", 30.0, t0)


def test_criterion_5_quasi_additivity_random_pairs():
    t0 = time.monotonic()
    rng = np.random.default_rng(505)
    violations = 0
    for trial in range(100):
        t2 = random_acyclic_path(rng, max_edges=12)
        eps = float(rng.uniform(0.01, 0.24))
        alpha = float(rng.uniform(0.1, 1.0))
        segs1 = []
        for a, b, th in t2.segments():
            if rng.uniform() < 0.5:
                continue
            u, v = sorted(rng.uniform(0.05, 0.95, size=2))
            if v - u < 0.05:
                continue
            thin = th * eps * float(rng.uniform(0.05, 0.9))
            segs1.append((a + u * (b - a), a + v * (b - a), thin))
        for _ in range(int(rng.integers(1, 4))):
            p = rng.uniform(-3, 3, size=2) + np.array([0.0, 10.0])
            q = p + rng.uniform(-1, 1, size=2)
            if np.linalg.norm(q - p) > 1e-3:
                segs1.append((p, q, float(rng.uniform(0.1, 3.0))))
        t1 = currents.overlay(segs1, dim=2)
        if not stability.check_quasi_additivity(t1, t2, eps, alpha):
            violations += 1
    assert violations == 0
    _done("criterion 5 (quasi-additivity, 100 admissible pairs)", 5.0, t0)


def test_criterion_6_construction_scalings():
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    pts = rng.uniform(-1, 1, size=(6, 2))
    src = np.array([0.0, -2.0])
    alpha = 0.7
    target = AtomicMeasure.from_atoms([(p, 0.4) for p in pts], dim=2)
    base = currents.alpha_mass(
        constructors.dyadic_irrigation(src, target, alpha), alpha)
    lam = 2.5
    dil = AtomicMeasure.from_atoms([(lam * p, 0.4) for p in pts], dim=2)
    cost_dil = currents.alpha_mass(
        constructors.dyadic_irrigation(lam * src, dil, alpha), alpha)
    assert abs(cost_dil - lam * base) <= 1e-9 * max(1.0, cost_dil)
    heavier = target.scale(3.0)
    cost_mass = currents.alpha_mass(
        constructors.dyadic_irrigation(src, heavier, alpha), alpha)
    assert abs(cost_mass - 3.0 ** alpha * base) <= 1e-9 * max(1.0, cost_mass)

    # sphere shuffling constant: cost/(mass^alpha * r) stable within +-10%
    consts = []
    for r in (0.5, 1.0, 2.0):
        ball = Ball(np.array([0.0, 0.0]), r)
        def on_sphere(angles, masses):
            return AtomicMeasure.from_atoms(
                [(ball.center + r * np.array([math.cos(t), math.sin(t)]), m)
                 for t, m in zip(angles, masses)], dim=2)
        mu_minus = on_sphere([0.2, 1.4, 2.9], [0.4, 0.35, 0.25])
        mu_plus = on_sphere([3.9, 5.3], [0.5, 0.5])
        t = constructors.sphere_transport(mu_minus, mu_plus, ball, alpha)
        cost = currents.alpha_mass(t, alpha)
        assert cost <= constructors.SPHERE_CONSTANT[2] * r
        consts.append(cost / r)
    mid = sorted(consts)[1]
    assert all(abs(c - mid) <= 0.10 * mid for c in consts)
    _done("criterion 6 (dilation and mass scalings, sphere constant)", 30.0, t0)


def test_criterion_7_stability_trials_all_alphas():
    t0 = time.monotonic()
    configs = sorted(glob.glob(os.path.join(CONFIG_DIR, "stability_*.json")))
    assert len(configs) == 5
    alphas = []
    for path in configs:
        cfg = stability.load_experiment(path)
        alphas.append(cfg.config.alpha)
        report = stability.run_stability_trial(cfg)
        assert report.verdicts["costs_bounded"], path
        assert report.verdicts["gaps_monotone"], path
        assert report.verdicts["limit_optimal"], path
        assert report.optimal_gap <= 1e-4, path
        assert report.verdicts["liminf_ok"], path
        assert report.verdicts["converged"], path
        assert report.rows[-1].n == 64
    assert sorted(alphas) == [0.2, 0.3, 0.4, 0.6, 0.8]
    _done("criterion 7 (stability trials, five exponents to n = 64)", 600.0, t0)


def test_criterion_8_competitor_ledger_family():
    t0 = time.monotonic()
    alpha = 0.6
    t_opt = currents.from_segments([
        (np.array([-1.0, 0.0]), np.array([1.0, 0.0]), 1.0)])
    pi_opt = dcmp.good_decomposition(t_opt)
    cost_opt = currents.alpha_mass(t_opt, alpha)
    for h in (0.6, 0.8, 1.0):
        t_n = currents.from_segments([
            (np.array([-1.0, 0.0]), np.array([0.0, h]), 1.0),
            (np.array([0.0, h]), np.array([1.0, 0.0]), 1.0)])
        cost_n = currents.alpha_mass(t_n, alpha)
        delta_gap = 0.9 * (cost_n - cost_opt)
        eps2 = (delta_gap / 512.0) ** (1.0 / alpha)
        cc = stability.CompetitorConfig(Delta=delta_gap, eps1=1e-3 * eps2,
                                        eps2=eps2, delta=0.01,
                                        N_minus=1, N_plus=1)
        r = 0.5 * stability.cover_radius_budget(cc.Delta, 2)
        covers = {"minus": [Ball(np.array([-1.0, 0.0]), r)],
                  "plus": [Ball(np.array([1.0, 0.0]), r)]}
        report = stability.build_competitor(
            t_n, dcmp.good_decomposition(t_n), t_opt, pi_opt, covers, cc, alpha)
        assert report.ok, (h, report.checks)
        assert report.boundary_error_sel <= 1e-9
        assert report.boundary_error_full <= 1e-9
        led = report.ledger
        assert led["competitor_cost"] < cost_n
        assert led["competitor_cost"] <= cost_n - cc.Delta / 8.0
    _done("criterion 8 (competitor surgery family, three detours)", 120.0, t0)


def test_criterion_9_cheap_subtransport_halving():
    t0 = time.monotonic()
    pts_a = [np.array([-2.0, y]) for y in (-0.6, 0.0, 0.6)]
    pts_b = [np.array([2.0, y]) for y in (-0.5, 0.1, 0.7)]
    entries = []
    segs = []
    for i, a in enumerate(pts_a):
        c = dcmp.Curve(np.array([a, np.array([0.0, 0.3 * (i - 1)]), pts_b[i]]))
        w = 0.5 + 0.25 * i
        entries.append((c, w))
        for p, q in c.segments():
            segs.append((p, q, w))
    pi = dcmp.PathMeasure(tuple(entries))
    t = currents.overlay(segs, dim=2)
    bnd = currents.boundary(t)
    alpha = 0.7
    costs = []
    frac = 1.0
    for _ in range(6):
        sub = constructors.cheap_subtransport(
            t, pi, bnd.negative_part().scale(frac),
            bnd.positive_part().scale(frac), alpha=alpha)
        err = (currents.boundary(sub) -
               (bnd.positive_part().scale(frac) - bnd.negative_part().scale(frac))).tv()
        assert err <= 1e-9
        costs.append(currents.alpha_mass(sub, alpha))
        frac *= 0.5
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert costs[-1] < costs[0] / 10.0
    _done("criterion 9 (cheap sub-transport halving, six levels)", 30.0, t0)
