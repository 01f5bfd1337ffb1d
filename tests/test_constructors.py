import math

import numpy as np
import pytest

from trafficpaths import constructors, currents
from trafficpaths import decomposition as dcmp
from trafficpaths.currents import AtomicMeasure
from trafficpaths.geometry import Ball


def atoms2(*entries):
    return AtomicMeasure.from_atoms([(np.array(p, dtype=float), m)
                                     for p, m in entries], dim=2)


# ---------------------------------------------------------------------------
# dyadic irrigation


def test_dyadic_boundary_is_exact():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(8, 2))
    target = AtomicMeasure.from_atoms([(p, 0.125) for p in pts], dim=2)
    t = constructors.dyadic_irrigation(np.array([0.0, -3.0]), target, alpha=0.7)
    bnd = currents.boundary(t)
    assert (bnd.positive_part() - target).tv() <= 1e-9
    assert bnd.negative_part().total() == pytest.approx(1.0)


def test_dyadic_cost_scales_degree_one_in_dilation():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(6, 2))
    target = AtomicMeasure.from_atoms([(p, 1.0 / 6.0) for p in pts], dim=2)
    src = np.array([0.0, -2.0])
    alpha = 0.7
    base = currents.alpha_mass(constructors.dyadic_irrigation(src, target, alpha), alpha)
    lam = 2.5
    dil = AtomicMeasure.from_atoms([(lam * p, 1.0 / 6.0) for p in pts], dim=2)
    cost = currents.alpha_mass(
        constructors.dyadic_irrigation(lam * src, dil, alpha), alpha)
    assert cost == pytest.approx(lam * base, rel=1e-9)


def test_dyadic_cost_scales_degree_alpha_in_mass():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(6, 2))
    target = AtomicMeasure.from_atoms([(p, 0.5) for p in pts], dim=2)
    src = np.array([0.0, -2.0])
    alpha = 0.6
    base = currents.alpha_mass(constructors.dyadic_irrigation(src, target, alpha), alpha)
    lam = 3.0
    heavier = target.scale(lam)
    cost = currents.alpha_mass(
        constructors.dyadic_irrigation(src, heavier, alpha), alpha)
    assert cost == pytest.approx(lam ** alpha * base, rel=1e-9)


def test_dyadic_rejects_low_alpha():
    target = atoms2(((1.0, 1.0), 1.0))
    with pytest.raises(ValueError):
        constructors.dyadic_irrigation(np.array([0.0, 0.0]), target, alpha=0.3)


def test_irrigate_pair_boundary():
    mu_minus = atoms2(((-2.0, 0.0), 0.6), ((-2.0, 1.0), 0.4))
    mu_plus = atoms2(((2.0, 0.0), 0.5), ((2.0, -1.0), 0.5))
    t = constructors.irrigate_pair(mu_minus, mu_plus, alpha=0.8)
    bnd = currents.boundary(t)
    assert (bnd - (mu_plus - mu_minus)).tv() <= 1e-9


# ---------------------------------------------------------------------------
# sphere transport


def _sphere_atoms(ball, angles, masses):
    out = []
    for ang, m in zip(angles, masses):
        p = ball.center + ball.radius * np.array([math.cos(ang), math.sin(ang)])
        out.append((p, m))
    return AtomicMeasure.from_atoms(out, dim=2)


def test_sphere_transport_boundary_and_support():
    ball = Ball(np.array([0.5, -0.25]), 1.0)
    mu_minus = _sphere_atoms(ball, [0.3, 2.0], [0.7, 0.3])
    mu_plus = _sphere_atoms(ball, [4.0], [1.0])
    t = constructors.sphere_transport(mu_minus, mu_plus, ball, alpha=0.6)
    assert (currents.boundary(t) - (mu_plus - mu_minus)).tv() <= 1e-9
    for v in t.vertices:
        assert abs(np.linalg.norm(v - ball.center) - ball.radius) <= 1e-2


def test_sphere_transport_cost_bound_and_constant_stability():
    # the cost constant c = cost / (mass^alpha * radius) stays within +-10%
    # across radii; this pins the constant used by the budget checks
    alpha = 0.6
    consts = []
    for r in (0.5, 1.0, 2.0):
        ball = Ball(np.array([0.0, 0.0]), r)
        mu_minus = _sphere_atoms(ball, [0.2, 1.4, 2.9], [0.4, 0.35, 0.25])
        mu_plus = _sphere_atoms(ball, [3.9, 5.3], [0.5, 0.5])
        t = constructors.sphere_transport(mu_minus, mu_plus, ball, alpha)
        cost = currents.alpha_mass(t, alpha)
        assert cost <= constructors.SPHERE_CONSTANT[2] * 1.0 ** alpha * r
        consts.append(cost / r)
    mid = sorted(consts)[1]
    for c in consts:
        assert abs(c - mid) <= 0.1 * mid


def test_sphere_transport_rejects_off_sphere_atoms():
    ball = Ball(np.array([0.0, 0.0]), 1.0)
    mu_minus = atoms2(((0.5, 0.0), 1.0))
    mu_plus = _sphere_atoms(ball, [1.0], [1.0])
    with pytest.raises(ValueError):
        constructors.sphere_transport(mu_minus, mu_plus, ball, alpha=0.6)


def test_sphere_transport_3d_wraps_to_disk():
    ball = Ball(np.array([0.0, 0.0, 0.0]), 1.0)
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    mu_minus = AtomicMeasure.from_atoms([(a, 1.0)], dim=3)
    mu_plus = AtomicMeasure.from_atoms([(b, 1.0)], dim=3)
    t = constructors.sphere_transport(mu_minus, mu_plus, ball, alpha=0.8)
    assert (currents.boundary(t) - (mu_plus - mu_minus)).tv() <= 1e-9
    cost = currents.alpha_mass(t, 0.8)
    assert cost <= constructors.SPHERE_CONSTANT[3] * 1.0


def test_sphere_transport_3d_rejects_low_alpha():
    ball = Ball(np.array([0.0, 0.0, 0.0]), 1.0)
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    mu_minus = AtomicMeasure.from_atoms([(a, 1.0)], dim=3)
    mu_plus = AtomicMeasure.from_atoms([(b, 1.0)], dim=3)
    with pytest.raises(ValueError):
        constructors.sphere_transport(mu_minus, mu_plus, ball, alpha=0.4)


# ---------------------------------------------------------------------------
# cone transport


def test_cone_transport_routes_through_apex():
    mu_minus = atoms2(((-1.0, 0.0), 1.0))
    mu_plus = atoms2(((1.0, 0.0), 0.5), ((1.0, 1.0), 0.5))
    apex = np.array([0.0, 2.0])
    t = constructors.cone_transport(mu_minus, mu_plus, apex)
    assert (currents.boundary(t) - (mu_plus - mu_minus)).tv() <= 1e-9
    assert any(np.linalg.norm(v - apex) <= 1e-9 for v in t.vertices)


# ---------------------------------------------------------------------------
# cheap sub-transport


def _six_atom_setup():
    rng = np.random.default_rng(11)
    t_segs = []
    pts_a = [np.array([-2.0, y]) for y in (-0.6, 0.0, 0.6)]
    pts_b = [np.array([2.0, y]) for y in (-0.5, 0.1, 0.7)]
    entries = []
    for i, a in enumerate(pts_a):
        b = pts_b[i]
        mid = np.array([0.0, 0.3 * (i - 1)])
        c = dcmp.Curve(np.array([a, mid, b]))
        w = 0.5 + 0.25 * i
        entries.append((c, w))
        for p, q in c.segments():
            t_segs.append((p, q, w))
    pi = dcmp.PathMeasure(tuple(entries))
    t = currents.overlay(t_segs, dim=2)
    return t, pi, pts_a, pts_b


def test_cheap_subtransport_moves_requested_slice():
    t, pi, pts_a, pts_b = _six_atom_setup()
    bnd = currents.boundary(t)
    nu_minus = bnd.negative_part().scale(0.5)
    nu_plus = bnd.positive_part().scale(0.5)
    alpha = 0.7
    sub = constructors.cheap_subtransport(t, pi, nu_minus, nu_plus, alpha=alpha)
    err = (currents.boundary(sub) - (nu_plus - nu_minus)).tv()
    assert err <= 1e-9


def test_cheap_subtransport_cost_scales_with_slice():
    t, pi, _, _ = _six_atom_setup()
    bnd = currents.boundary(t)
    alpha = 0.7
    costs = []
    frac = 1.0
    for _ in range(6):
        nu_minus = bnd.negative_part().scale(frac)
        nu_plus = bnd.positive_part().scale(frac)
        sub = constructors.cheap_subtransport(t, pi, nu_minus, nu_plus, alpha=alpha)
        costs.append(currents.alpha_mass(sub, alpha))
        frac *= 0.5
    for a, b in zip(costs, costs[1:]):
        assert b <= a + 1e-12
    assert costs[-1] < costs[0] / 10.0


def test_cheap_subtransport_rejects_oversized_request():
    t, pi, _, _ = _six_atom_setup()
    bnd = currents.boundary(t)
    with pytest.raises(ValueError):
        constructors.cheap_subtransport(t, pi, bnd.negative_part().scale(2.0),
                                        bnd.positive_part().scale(2.0), alpha=0.7)


def test_cheap_subtransport_rejects_unbalanced():
    t, pi, _, _ = _six_atom_setup()
    bnd = currents.boundary(t)
    with pytest.raises(ValueError):
        constructors.cheap_subtransport(t, pi, bnd.negative_part().scale(0.5),
                                        bnd.positive_part().scale(0.25), alpha=0.7)
