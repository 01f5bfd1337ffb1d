import logging
import math

import numpy as np
import pytest

from trafficpaths import currents, optimizer
from trafficpaths.currents import AtomicMeasure

from conftest import balanced_clouds


def atoms2(*entries):
    return AtomicMeasure.from_atoms([(np.array(p, dtype=float), m)
                                     for p, m in entries], dim=2)


# ---------------------------------------------------------------------------
# topology enumeration


def test_topology_counts_are_double_factorials():
    # with k terminals there are (2k-5)!! full binary trees
    for k, expect in ((2, 1), (3, 1), (4, 3), (5, 15), (6, 105)):
        assert len(optimizer.enumerate_topologies(k)) == expect


def test_topology_enumeration_rejects_single_terminal():
    with pytest.raises(ValueError):
        optimizer.enumerate_topologies(1)


def test_flows_from_leaf_stripping():
    # one branch vertex 3 joining terminals 0 (source) and 1, 2 (sinks)
    terminals = np.array([[0.0, 0.0], [2.0, 1.0], [2.0, -1.0]])
    topo = optimizer.Topology(terminals, np.array([-1.0, 0.4, 0.6]),
                              np.array([[1.0, 0.0]]),
                              ((0, 3), (3, 1), (3, 2)))
    flows = dict(zip(topo.edges, topo.flows()))
    assert flows[(0, 3)] == pytest.approx(1.0)
    assert flows[(3, 1)] == pytest.approx(0.4)
    assert flows[(3, 2)] == pytest.approx(0.6)


def test_optimize_positions_equal_mass_junction():
    # symmetric sources at (+-1, 2), sink at origin; at alpha = 0.5 the
    # junction settles at (0, 1) where the branches meet at a right angle
    terminals = np.array([[-1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    topo = optimizer.Topology(terminals, np.array([-1.0, -1.0, 2.0]),
                              np.array([[0.1, 0.9]]),
                              ((0, 3), (1, 3), (3, 2)))
    out, cost = optimizer.optimize_positions(topo, alpha=0.5)
    assert cost == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-6)
    assert np.allclose(out.steiner_points[0], [0.0, 1.0], atol=1e-4)


@pytest.mark.parametrize("tol", [1e-4, 1e-9])
def test_optimize_positions_meets_requested_tolerance(tol):
    terminals = np.array([[-1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    topo = optimizer.Topology(terminals, np.array([-1.0, -1.0, 2.0]),
                              np.array([[0.1, 0.9]]),
                              ((0, 3), (1, 3), (3, 2)))
    _, cost = optimizer.optimize_positions(topo, alpha=0.5, tol=tol)
    assert abs(cost - 3.0 * math.sqrt(2.0)) <= tol * cost


@pytest.mark.parametrize("dim", [2, 3])
def test_optimize_positions_matches_weiszfeld_reference(dim):
    # the per-vertex Weiszfeld sweeps still used by local search are the
    # reference: the joint solve certifies every topology and is never worse
    rng = np.random.default_rng(11)
    for k_minus, k_plus in ((1, 3), (2, 3)):
        mu_minus, mu_plus = balanced_clouds(rng, k_minus, k_plus, dim=dim)
        net = mu_plus - mu_minus
        k = len(net.masses)
        for alpha in (0.0, 0.5, 1.0):
            for edges in optimizer.enumerate_topologies(k):
                jitter = 1e-3 * np.random.default_rng(7).standard_normal((k - 2, dim))
                topo = optimizer.Topology(net.points.copy(), net.masses.copy(),
                                          net.points.mean(axis=0) + jitter, edges)
                _, cost = optimizer.optimize_positions(topo, alpha, tol=1e-9)
                weights = [0.0 if abs(f) <= optimizer.FLOW_TOL
                           else (1.0 if alpha == 0.0 else abs(f) ** alpha)
                           for f in topo.flows()]
                _, reference, _ = optimizer._descend_graph(
                    topo.positions(), edges, weights, [v >= k for v in range(2 * k - 2)],
                    1e-10, 10000)
                assert cost <= reference * (1.0 + 1e-9)


def test_optimize_positions_raises_with_best_iterate():
    terminals = np.array([[-1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    topo = optimizer.Topology(terminals, np.array([-1.0, -1.0, 2.0]),
                              np.array([[0.3, 0.7]]),
                              ((0, 3), (1, 3), (3, 2)))
    with pytest.raises(optimizer.OptimizeError) as exc:
        optimizer.optimize_positions(topo, alpha=0.5, tol=0.0, max_iters=2)
    assert exc.value.best is not None


# ---------------------------------------------------------------------------
# exhaustive search


def test_oracle_straight_segment():
    t = optimizer.brute_force_optimal(atoms2(((-1.0, 0.0), 1.0)),
                                      atoms2(((1.0, 0.0), 1.0)), alpha=0.6)
    assert currents.alpha_mass(t, 0.6) == pytest.approx(2.0, abs=1e-9)
    assert len(t.edges) == 1


def test_oracle_v_shape_at_alpha_one():
    mu_minus = atoms2(((-1.0, 0.0), 1.0), ((1.0, 0.0), 1.0))
    mu_plus = atoms2(((0.0, 1.0), 2.0))
    t = optimizer.brute_force_optimal(mu_minus, mu_plus, alpha=1.0)
    assert currents.alpha_mass(t, 1.0) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)


def test_oracle_y_shape_at_alpha_half():
    mu_minus = atoms2(((-1.0, 2.0), 1.0), ((1.0, 2.0), 1.0))
    mu_plus = atoms2(((0.0, 0.0), 2.0))
    t = optimizer.brute_force_optimal(mu_minus, mu_plus, alpha=0.5)
    assert currents.alpha_mass(t, 0.5) == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-6)
    # interior junction: some vertex away from all three terminals
    terminals = [np.array([-1.0, 2.0]), np.array([1.0, 2.0]), np.array([0.0, 0.0])]
    assert any(all(np.linalg.norm(v - p) > 0.5 for p in terminals)
               for v in t.vertices)


def test_oracle_critical_branching_angle():
    # equal masses meeting at a junction span arccos(2^(2a-1) - 1)
    mu_minus = atoms2(((-1.0, 2.0), 1.0), ((1.0, 2.0), 1.0))
    mu_plus = atoms2(((0.0, 0.0), 2.0))
    alpha = 0.5
    t = optimizer.brute_force_optimal(mu_minus, mu_plus, alpha)
    junction = None
    for v in t.vertices:
        if all(np.linalg.norm(v - p) > 0.5 for p in
               ([-1.0, 2.0], [1.0, 2.0], [0.0, 0.0])):
            junction = v
    assert junction is not None
    u1 = np.array([-1.0, 2.0]) - junction
    u2 = np.array([1.0, 2.0]) - junction
    cos_angle = float(u1 @ u2 / (np.linalg.norm(u1) * np.linalg.norm(u2)))
    assert cos_angle == pytest.approx(2.0 ** (2 * alpha - 1) - 1.0, abs=1e-3)


def test_oracle_fermat_point_at_alpha_zero():
    A, B, C = (0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)
    t = optimizer.brute_force_optimal(atoms2((A, 1.0)),
                                      atoms2((B, 0.5), (C, 0.5)), alpha=0.0)
    total_len = sum(np.linalg.norm(a - b) for a, b, _ in t.segments())
    assert total_len == pytest.approx(math.sqrt(3.0), abs=1e-6)


def test_oracle_boundary_always_exact(rng):
    for _ in range(10):
        mu_minus, mu_plus = balanced_clouds(rng, 3, 3)
        alpha = float(rng.uniform(0.2, 1.0))
        t = optimizer.brute_force_optimal(mu_minus, mu_plus, alpha)
        assert (currents.boundary(t) - (mu_plus - mu_minus)).tv() <= 1e-9


def test_oracle_beats_stalled_sweeps_on_pinned_instance(caplog):
    # per-vertex sweeps stalled at 3.15315 here, above local search's 3.08726
    mu_minus, mu_plus = balanced_clouds(np.random.default_rng(5), 1, 4)
    with caplog.at_level(logging.WARNING, logger="trafficpaths.optimizer"):
        t = optimizer.brute_force_optimal(mu_minus, mu_plus, alpha=0.6)
    assert not caplog.records  # every topology kept was certified
    assert currents.alpha_mass(t, 0.6) <= 3.08726
    report = optimizer.is_optimal(optimizer.local_search(mu_minus, mu_plus, 0.6), 0.6)
    assert report.gap >= -1e-9 * report.oracle_cost


def test_oracle_pinned_generator_instances(rng, caplog):
    # the first two instances of test_oracle_boundary_always_exact, where the
    # per-vertex sweeps stopped at 7.67399 and 6.60798
    for bound in (7.63985, 6.524083):
        mu_minus, mu_plus = balanced_clouds(rng, 3, 3)
        alpha = float(rng.uniform(0.2, 1.0))
        with caplog.at_level(logging.WARNING, logger="trafficpaths.optimizer"):
            t = optimizer.brute_force_optimal(mu_minus, mu_plus, alpha)
        assert not caplog.records
        assert currents.alpha_mass(t, alpha) <= bound


def test_oracle_range_error():
    pts_m = [((float(i), 0.0), 1.0) for i in range(4)]
    pts_p = [((float(i), 3.0), 4.0 / 3.0) for i in range(3)]
    with pytest.raises(optimizer.OracleRangeError):
        optimizer.brute_force_optimal(atoms2(*pts_m), atoms2(*pts_p), alpha=0.5)


def test_oracle_merges_coincident_atoms():
    # a source and sink at the same point cancel before the atom count check
    mu_minus = atoms2(((0.0, 0.0), 1.0), ((5.0, 5.0), 1.0))
    mu_plus = atoms2(((0.0, 0.0), 1.0), ((6.0, 5.0), 1.0))
    t = optimizer.brute_force_optimal(mu_minus, mu_plus, alpha=0.7)
    assert currents.alpha_mass(t, 0.7) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# optimality reports and local search


def test_is_optimal_accepts_oracle_output():
    mu_minus = atoms2(((-1.0, 2.0), 1.0), ((1.0, 2.0), 1.0))
    mu_plus = atoms2(((0.0, 0.0), 2.0))
    t = optimizer.brute_force_optimal(mu_minus, mu_plus, alpha=0.5)
    report = optimizer.is_optimal(t, 0.5)
    assert report.optimal
    assert report.gap <= 1e-6
    assert bool(report)


def test_is_optimal_rejects_detour():
    t = currents.from_segments([
        (np.array([-1.0, 0.0]), np.array([0.0, 1.0]), 1.0),
        (np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1.0)])
    report = optimizer.is_optimal(t, 0.6)
    assert not report.optimal
    assert report.gap == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, abs=1e-6)


def test_local_search_matches_oracle_on_y():
    mu_minus = atoms2(((-1.0, 2.0), 1.0), ((1.0, 2.0), 1.0))
    mu_plus = atoms2(((0.0, 0.0), 2.0))
    t = optimizer.local_search(mu_minus, mu_plus, alpha=0.5)
    assert (currents.boundary(t) - (mu_plus - mu_minus)).tv() <= 1e-9
    assert currents.alpha_mass(t, 0.5) <= 3.0 * math.sqrt(2.0) + 1e-3
