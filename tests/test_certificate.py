"""The dual certificate checker against closed forms and broken certificates."""

import math
import pathlib

import numpy as np
import pytest

from trafficpaths import certificate, currents, optimizer, stability
from trafficpaths.certificate import ALLOWANCE, CertificateError, checked_lower_bound
from trafficpaths.currents import AtomicMeasure

from conftest import balanced_clouds

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _certified(points, masses, alpha, tol=1e-9):
    """Oracle path and certificate of the instance with signed atoms (sinks positive)."""
    pts, m = np.array(points, dtype=float), np.array(masses, dtype=float)
    mu_minus = AtomicMeasure(pts[m < 0], -m[m < 0])
    mu_plus = AtomicMeasure(pts[m > 0], m[m > 0])
    ((t, cert, _),) = optimizer.brute_force_many([(mu_minus, mu_plus)], alpha, tol)
    return t, cert


def _limit_certificate():
    """The certificate of the shipped alpha = 0.4 trial's limit: 5 atoms, 15 trees."""
    cfg = stability.load_experiment(str(ROOT / "configs" / "stability_alpha04.json"))
    limits = [stability.quantize(s, 0) for s in (cfg.minus, cfg.plus)]
    ((t, cert, _),) = optimizer.brute_force_many([limits], cfg.alpha)
    return t, cert, cfg.alpha


def _with(cert, edges=None, duals=None):
    return cert._replace(edges=cert.edges if edges is None else edges,
                         duals=cert.duals if duals is None else duals)


@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
def test_two_atoms_bound_is_the_segment_cost(alpha):
    t, cert = _certified([[0.0, 0.0], [3.0, 4.0]], [-2.0, 2.0], alpha)
    exact = 5.0 * 2.0 ** alpha
    assert len(cert.edges) == 1
    assert checked_lower_bound(cert, alpha) == pytest.approx(exact, rel=ALLOWANCE)
    assert currents.alpha_mass(t, alpha) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("points, masses, alpha, exact", [
    # Gilbert's angle at alpha = 1/2: the unit flows meet at 90 degrees in (0, 1)
    ([[-1.0, 2.0], [1.0, 2.0], [0.0, 0.0]], [-1.0, -1.0, 2.0], 0.5, 3.0 * math.sqrt(2.0)),
    # the Fermat point of an equilateral triangle is its center
    ([[1.0, 0.0], [-0.5, math.sqrt(0.75)], [-0.5, -math.sqrt(0.75)]], [-1.0, -1.0, 2.0],
     0.0, 3.0),
])
def test_symmetric_y_bound_is_the_exact_cost(points, masses, alpha, exact):
    _, cert = _certified(points, masses, alpha, tol=1e-12)
    assert len(cert.edges) == 1
    assert checked_lower_bound(cert, alpha) == pytest.approx(exact, rel=ALLOWANCE)


def test_shipped_limit_is_certified_to_its_cost():
    t, cert, alpha = _limit_certificate()
    cost = currents.alpha_mass(t, alpha)
    bound = checked_lower_bound(cert, alpha)
    assert len(cert.edges) == 15
    assert -1e-12 * cost <= cost - bound <= 1e-9 * cost


def test_branch_point_labels_do_not_matter():
    # the same trees with their branch points renumbered give the same bound
    _, cert, alpha = _limit_certificate()
    k = len(cert.masses)
    relabel = np.r_[np.arange(k), np.arange(2 * k - 3, k - 1, -1)]
    assert checked_lower_bound(_with(cert, edges=relabel[cert.edges]), alpha) \
        == checked_lower_bound(cert, alpha)


def test_rejects_a_dropped_tree():
    _, cert, alpha = _limit_certificate()
    with pytest.raises(CertificateError, match="14 trees, not the 15"):
        checked_lower_bound(_with(cert, edges=cert.edges[1:], duals=cert.duals[1:]), alpha)


def test_every_tree_counts_in_the_least_bound():
    # zero duals give a tree the bound 0, below every other tree's
    _, cert, alpha = _limit_certificate()
    for i in range(len(cert.edges)):
        duals = cert.duals.copy()
        duals[i] = 0.0
        assert checked_lower_bound(_with(cert, duals=duals), alpha) == 0.0


def test_rejects_a_relabelled_copy_of_another_tree():
    _, cert, alpha = _limit_certificate()
    k = len(cert.masses)
    relabel = np.r_[np.arange(k), np.arange(2 * k - 3, k - 1, -1)]
    edges, duals = cert.edges.copy(), cert.duals.copy()
    edges[3], duals[3] = relabel[edges[5]], duals[5]
    assert optimizer._tree_key(edges[3].tolist()) != optimizer._tree_key(edges[5].tolist())
    with pytest.raises(CertificateError, match="tree 5 repeats an earlier tree"):
        checked_lower_bound(_with(cert, edges=edges, duals=duals), alpha)


def test_rejects_a_dual_past_its_weight():
    _, cert, alpha = _limit_certificate()
    k = len(cert.masses)
    flows = optimizer._tree_flows(optimizer._trees(k).order, cert.masses[None], 2 * k - 2)[0]
    w = optimizer._edge_weights(flows, alpha)
    tree, edge = 7, int(np.argmax(w[7]))
    duals = cert.duals.copy()
    y = duals[tree, edge]
    duals[tree, edge] = y / np.linalg.norm(y) * w[tree, edge] * (1.0 + 4.0 * ALLOWANCE)
    with pytest.raises(CertificateError, match=f"tree {tree} edge"):
        checked_lower_bound(_with(cert, duals=duals), alpha)


def test_duals_within_the_allowance_never_raise_the_bound():
    # duals up to (1 + ALLOWANCE) w pass, but are scaled back into |y| <= w:
    # on Gilbert's Y, whose duals are tight, the bound stays below 3 sqrt(2)
    _, cert = _certified([[-1.0, 2.0], [1.0, 2.0], [0.0, 0.0]], [-1.0, -1.0, 2.0], 0.5,
                         tol=1e-12)
    loose = _with(cert, duals=cert.duals * (1.0 + 0.5 * ALLOWANCE))
    assert checked_lower_bound(loose, 0.5) <= 3.0 * math.sqrt(2.0) * (1.0 + 1e-13)


def test_rejects_a_tree_without_duals():
    _, cert, alpha = _limit_certificate()
    duals = cert.duals.copy()
    duals[2] = np.nan
    with pytest.raises(CertificateError, match="tree 2 has no duals"):
        checked_lower_bound(_with(cert, duals=duals), alpha)


def _star_duals(cert, alpha):
    """Duals that pull every atom's leaf edge toward the atoms' mean at full
    weight, 0 elsewhere: far from balance at the branch points."""
    k = len(cert.masses)
    unit = cert.points - cert.points.mean(axis=0)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    duals = np.zeros(cert.duals.shape)
    for i, tree in enumerate(cert.edges):
        for e, (a, b) in enumerate(tree):
            if a < k or b < k:
                atom, sign = (a, 1.0) if a < k else (b, -1.0)
                duals[i, e] = sign * abs(cert.masses[atom]) ** alpha * unit[atom]
    return duals


@pytest.mark.parametrize("case", ["y", "limit"])
def test_unbalanced_duals_are_charged_at_the_branch_points(case):
    # without the R |g| charge these duals would claim the cost of the star
    # through the atoms' mean, which is above the optimum
    if case == "y":
        alpha = 0.5
        t, cert = _certified([[-1.0, 2.0], [1.0, 2.0], [0.0, 0.0]], [-1.0, -1.0, 2.0], alpha)
    else:
        t, cert, alpha = _limit_certificate()
    star = sum(abs(m) ** alpha * np.linalg.norm(p - cert.points.mean(axis=0))
               for p, m in zip(cert.points, cert.masses))
    cost = currents.alpha_mass(t, alpha)
    assert star > cost * (1.0 + 1e-3)
    assert checked_lower_bound(_with(cert, duals=_star_duals(cert, alpha)), alpha) <= cost


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
def test_oracle_certificates_bound_their_answers(alpha):
    rng = np.random.default_rng(int(10 * alpha) + 5)
    for k_minus, k_plus, dim in ((1, 2, 2), (2, 2, 3), (2, 3, 2), (3, 3, 3)):
        mu_minus, mu_plus = balanced_clouds(rng, k_minus, k_plus, dim=dim)
        ((t, cert, _),) = optimizer.brute_force_many([(mu_minus, mu_plus)], alpha)
        cost = currents.alpha_mass(t, alpha)
        assert -1e-12 * cost <= cost - checked_lower_bound(cert, alpha) <= 2e-9 * cost


@pytest.mark.parametrize("tree, message", [
    ([(0, 4), (1, 4), (4, 4), (5, 2), (5, 3)], "not a full binary tree"),  # a loop
    ([(0, 4), (1, 4), (4, 5), (4, 5), (5, 2)], "not a full binary tree"),  # atom 3 left out
    ([(0, 4), (1, 5), (4, 5), (4, 5), (2, 3)], "has a cycle"),  # the degrees of a full tree
    ([(0, 1), (2, 4), (3, 5), (4, 5), (4, 5)], "is not connected"),  # same, off atom 0's side
])
def test_rejects_a_graph_that_is_not_a_full_tree(tree, message):
    t, cert = _certified([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [-1.0, -2.0, 1.0, 2.0],
                         0.5)
    edges = cert.edges.copy()
    edges[0] = tree
    with pytest.raises(CertificateError, match=message):
        checked_lower_bound(_with(cert, edges=edges), 0.5)


def test_checker_imports_nothing_of_the_kernel():
    source = pathlib.Path(certificate.__file__).read_text(encoding="utf-8")
    imports = [line for line in source.splitlines() if line.startswith(("import ", "from "))]
    assert imports == ["from __future__ import annotations", "import math"]
