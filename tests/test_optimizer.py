import dataclasses
import inspect
import logging
import math
import re

import numpy as np
import pytest

from trafficpaths import currents, metrics, optimizer
from trafficpaths.certificate import checked_lower_bound
from trafficpaths.currents import AtomicMeasure

from conftest import balanced_clouds


def atoms2(*entries):
    return AtomicMeasure.from_atoms([(np.array(p, dtype=float), m)
                                     for p, m in entries], dim=2)


def _descend_graph(pos: np.ndarray, edges, weights, free_mask, tol: float,
                   max_iters: int) -> tuple[np.ndarray, float, bool]:
    """Damped Weiszfeld sweeps on the free vertices of a weighted graph.

    Each free vertex moves to the weighted geometric median of its
    neighbors, with step halving whenever the local objective would not
    decrease; returns (positions, objective, converged).  The sweep runs
    on tuples of Python floats: a numpy call per vertex costs more than
    the arithmetic on a handful of 2-D or 3-D points.
    """
    pts = [tuple(float(c) for c in p) for p in pos]
    nbrs: dict[int, list[tuple[int, float]]] = {}
    for (a, b), w in zip(edges, weights):
        if w <= 0:
            continue
        nbrs.setdefault(a, []).append((b, w))
        nbrs.setdefault(b, []).append((a, w))

    kept = [(a, b, w) for (a, b), w in zip(edges, weights) if w > 0]
    if not kept:
        return np.array(pts), 0.0, True

    def total() -> float:
        return sum(w * math.dist(pts[a], pts[b]) for a, b, w in kept)

    free = [v for v in range(len(pts)) if free_mask[v] and v in nbrs]
    if not free:
        return np.array(pts), total(), True
    dims = range(len(pts[0]))
    obj = total()
    for _ in range(max_iters):
        for v in free:
            x = pts[v]
            nbr = [(pts[u], w) for u, w in nbrs[v]]
            far, coincident_w = [], 0.0
            for p, w in nbr:
                d = math.dist(p, x)
                if d >= 1e-12:
                    far.append((p, w, d))
                else:
                    coincident_w += w
            if not far:
                continue
            den = sum(w / d for _, w, d in far)
            cand = [sum(w / d * p[c] for p, w, d in far) / den for c in dims]
            if coincident_w > 0.0:
                pull = [sum(w / d * (p[c] - x[c]) for p, w, d in far) for c in dims]
                if math.hypot(*pull) <= coincident_w + 1e-15:
                    continue  # stuck on a neighbor and the subgradient says stay
            before = sum(w * d for _, w, d in far)
            step = [cand[c] - x[c] for c in dims]
            for _ in range(40):
                trial = tuple(x[c] + step[c] for c in dims)
                if sum(w * math.dist(p, trial) for p, w in nbr) <= before + 1e-15:
                    pts[v] = trial
                    break
                step = [0.5 * s for s in step]
        new_obj = total()
        if abs(obj - new_obj) <= tol * max(1.0, abs(obj)):
            return np.array(pts), new_obj, True
        obj = new_obj
    return np.array(pts), obj, False


# ---------------------------------------------------------------------------
# topology enumeration


def test_topology_counts_are_double_factorials():
    # with k terminals there are (2k-5)!! full binary trees
    for k, expect in ((2, 1), (3, 1), (4, 3), (5, 15), (6, 105)):
        assert len(optimizer.enumerate_topologies(k)) == expect


def test_topology_enumeration_rejects_single_terminal():
    with pytest.raises(ValueError):
        optimizer.enumerate_topologies(1)


def test_tree_arrays_are_read_only_and_enumeration_stays_fresh():
    first, second = optimizer.enumerate_topologies(5), optimizer.enumerate_topologies(5)
    assert first == second and first is not second
    assert all(isinstance(tree, tuple) for tree in first)
    first.pop()
    assert len(optimizer.enumerate_topologies(5)) == 15
    trees = optimizer._trees(5)
    assert trees.edges.tolist() == [list(map(list, tree)) for tree in second]
    assert trees.keys == tuple(optimizer._tree_key(tree) for tree in second)
    for arr in (trees.edges, trees.order):
        with pytest.raises(ValueError):
            arr[0, 0] = 0


def _adjacency_strip_order(edges, n):
    """Reference leaf stripping: adjacency lists, each leaf takes its first live edge."""
    adj = [[] for _ in range(n)]
    for e, (a, b) in enumerate(edges):
        adj[a].append(e)
        adj[b].append(e)
    deg = [len(es) for es in adj]
    removed_e, removed_v = [False] * len(edges), [False] * n
    order, queue = [], [v for v in range(n) if deg[v] == 1]
    while queue:
        v = queue.pop()
        if removed_v[v]:
            continue
        live = [e for e in adj[v] if not removed_e[e]]
        removed_v[v] = True
        if not live:
            continue
        e = live[0]
        a, b = edges[e]
        u = b if a == v else a
        order.append((v, u, e, v == b))
        removed_e[e] = True
        deg[u] -= 1
        if deg[u] == 1:
            queue.append(u)
    return order


def test_strip_order_matches_adjacency_stripping():
    # every insertion level as local search builds it (the last one holds
    # the oracle's full trees) and the trees its regrafts detach: vertices
    # not in the tree yet, or spliced out, are isolated
    for k in range(2, 8):
        n = 2 * k - 2
        level = [((0, 1),)]
        forests = list(level)
        for t in range(2, k):
            level = [optimizer._insert(tree, e, t, k + t - 2)
                     for tree in level for e in range(len(tree))]
            forests += level
        if k > 3:
            forests += [optimizer._detach(tree, t)[0] for tree in level for t in range(k)]
        for edges in forests:
            assert optimizer._strip_order(edges, n) == _adjacency_strip_order(edges, n)


def _unit_mass_net():
    """Two unit sources, two unit sinks: some trees have an edge without flow."""
    rng = np.random.default_rng(8)
    mu_minus = AtomicMeasure.from_atoms([(p, 1.0) for p in rng.uniform(-1, 1, (2, 2))], dim=2)
    mu_plus = AtomicMeasure.from_atoms([(p + [2.0, 0.0], 1.0) for p in rng.uniform(-1, 1, (2, 2))],
                                       dim=2)
    return mu_plus - mu_minus


def _stripped_flows(edges, masses, n):
    """Reference flows: ``_strip_order`` replayed one step at a time on Python floats."""
    ib = [float(m) for m in masses] + [0.0] * (n - len(masses))
    flows = [0.0] * len(edges)
    for v, u, e, head in optimizer._strip_order(edges, n):
        flows[e] = ib[v] if head else -ib[v]
        ib[u] += ib[v]
    return flows


def test_replayed_flows_equal_topology_flows():
    rng = np.random.default_rng(3)
    cases = [rng.standard_normal((2, k)) for k in range(2, 8)] + [_unit_mass_net().masses[None]]
    for masses in cases:
        k = masses.shape[1]
        replayed = optimizer._tree_flows(optimizer._trees(k).order, masses, 2 * k - 2)
        for g, m in enumerate(masses):
            for t, edges in enumerate(optimizer.enumerate_topologies(k)):
                topo = optimizer.Topology(np.zeros((k, 2)), m, np.zeros((k - 2, 2)), edges)
                assert replayed[g, t].tolist() == topo.flows()
                assert topo.flows() == _stripped_flows(edges, m, 2 * k - 2)
    # the candidates of insertion scans, stacked as local search stacks them:
    # the terminals not in the tree yet are isolated and have no mass
    rng = np.random.default_rng(17)
    zero_mass = 0
    for _ in range(12):
        cands, _ = _insertion_scan(rng)
        n, masses = len(cands[0].positions()), cands[0].terminal_masses
        zero_mass += int((masses == 0.0).any())
        order = np.array([optimizer._strip_order(c.edges, n) for c in cands])
        replayed = optimizer._tree_flows(order, masses[None], n)[0]
        for flows, c in zip(replayed, cands):
            assert flows.tolist() == _stripped_flows(c.edges, masses, n)
    assert zero_mass >= 6


def _solve_batch(topos, alpha, tol, max_iters=10000, decide=False):
    """Same-shape topologies of one instance as one ``_minimize_length`` batch.

    Entries are (topology, cost), None for a pruned topology, or an
    OptimizeError carrying the last iterate as a Topology.
    """
    k = topos[0].n_terminals
    pos = np.stack([t.positions() for t in topos])
    w = optimizer._edge_weights(np.array([t.flows() for t in topos]), alpha)
    solved, _ = optimizer._minimize_length(pos, np.array([t.edges for t in topos]), w,
                                           pos[:, :k], tol, max_iters,
                                           groups=np.zeros(len(topos), int), decide=decide)
    out = []
    for topo, res in zip(topos, solved):
        if isinstance(res, optimizer.OptimizeError):
            res = optimizer.OptimizeError(
                str(res), dataclasses.replace(topo, steiner_points=res.best[k:]))
        elif res is not None:
            res = dataclasses.replace(topo, steiner_points=res[0][k:]), res[1]
        out.append(res)
    return out


@pytest.mark.parametrize("k_minus, k_plus, dim", [(2, 3, 2), (2, 3, 3), (3, 3, 2), (2, 4, 3)])
def test_oracle_winner_matches_its_tree_solved_alone(k_minus, k_plus, dim):
    # the array-built batch and a lone Topology solve from the same start
    # take the same steps: the same branch points, bit for bit
    mu_minus, mu_plus = balanced_clouds(np.random.default_rng(10 * k_plus + dim), k_minus, k_plus,
                                        dim=dim)
    net = mu_plus - mu_minus
    k = len(net.masses)
    assert k == k_minus + k_plus
    ((pos, edges, flows, cost, _),) = optimizer._oracle_topologies([net], 0.5, 1e-9)
    init = net.points.mean(axis=0) + 1e-3 * np.random.default_rng(7).standard_normal((k - 2, dim))
    ((alone, alone_cost),) = _solve_batch(
        [optimizer.Topology(net.points.copy(), net.masses.copy(), init,
                            tuple(map(tuple, edges.tolist())))], 0.5, 1e-9)
    assert cost == alone_cost
    assert np.array_equal(pos[k:], alone.steiner_points)


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
    assert optimizer._tree_cost(out.positions(), out.edges, out.flows(), 0.5) == pytest.approx(
        cost, rel=1e-12)
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
    # independent per-vertex Weiszfeld sweeps are the reference: the joint
    # solve certifies every topology and is never worse
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
                _, reference, _ = _descend_graph(
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


@pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan, math.inf])
def test_solvers_reject_a_tol_that_is_negative_or_not_finite(tol):
    mu_minus, mu_plus = balanced_clouds(np.random.default_rng(5), 2, 3)
    with pytest.raises(ValueError, match="tol"):
        optimizer.brute_force_optimal(mu_minus, mu_plus, 0.5, tol=tol)
    for instances in ([(mu_minus, mu_plus)], []):  # checked before anything is solved
        with pytest.raises(ValueError, match="tol"):
            optimizer.brute_force_many(instances, 0.5, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        optimizer.optimize_positions(_y_topology([0.1, 0.9]), 0.5, tol=tol)


def _y_topology(steiner):
    terminals = np.array([[-1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    return optimizer.Topology(terminals, np.array([-1.0, -1.0, 2.0]),
                              np.array([steiner]), ((0, 3), (1, 3), (3, 2)))


def test_batch_keeps_certifying_beside_a_stuck_problem(caplog):
    # two starts near the junction certify within 8 Newton steps, the far
    # one needs 11: it stops with its iterate and the batch goes on
    topos = [_y_topology(s) for s in ([0.0, 1.0], [0.1, 0.9], [30.0, -40.0])]
    with caplog.at_level(logging.DEBUG, logger="trafficpaths.optimizer"):
        near, nearby, far = _solve_batch(topos, 0.5, 1e-10, max_iters=8)
    for solved, topo in ((near, topos[0]), (nearby, topos[1])):
        alone = optimizer.optimize_positions(topo, 0.5, tol=1e-10, max_iters=8)
        assert solved[1] == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-10)
        assert solved[1] == pytest.approx(alone[1], rel=1e-12)
    assert isinstance(far, optimizer.OptimizeError)
    with pytest.raises(optimizer.OptimizeError) as exc:
        optimizer.optimize_positions(topos[2], 0.5, tol=1e-10, max_iters=8)
    assert not np.allclose(far.best.steiner_points, topos[2].steiner_points)
    assert np.allclose(far.best.steiner_points, exc.value.best.steiner_points, atol=1e-12)
    assert any("batch of 3: 2 certified, 0 pruned, 1 uncertified" in r.getMessage()
               for r in caplog.records)


def test_kernel_keeps_the_duals_of_certified_and_pruned_problems():
    # the batch above: near and nearby certify and keep duals within their
    # weights that bound their cost to the gap; far stops uncertified and
    # keeps none.  With a cutoff below every bound all are pruned at their
    # first stage end, each with the duals of the bound that pruned it.
    topos = [_y_topology(s) for s in ([0.0, 1.0], [0.1, 0.9], [30.0, -40.0])]
    pos, edges = np.stack([t.positions() for t in topos]), np.array([t.edges for t in topos])
    w = optimizer._edge_weights(np.array([t.flows() for t in topos]), 0.5)

    def bound(i, duals):
        cert = optimizer.Certificate(pos[i, :3], topos[i].terminal_masses, edges[i:i + 1],
                                     duals[i:i + 1])
        return checked_lower_bound(cert, 0.5)

    out, duals = optimizer._minimize_length(pos, edges, w, pos[:, :3], 1e-10, 8,
                                            groups=np.zeros(3, int))
    assert isinstance(out[2], optimizer.OptimizeError) and np.isnan(duals[2]).all()
    for i in (0, 1):
        assert (np.linalg.norm(duals[i], axis=1) <= w[i] * (1.0 + 1e-12)).all()
        assert out[i][1] * (1.0 - 1e-10) <= bound(i, duals) <= 3.0 * math.sqrt(2.0)
    out, duals = optimizer._minimize_length(pos, edges, w, pos[:, :3], 1e-10, 8, cutoff=1.0,
                                            groups=np.zeros(3, int))
    assert out == [None] * 3
    assert all(1.0 < bound(i, duals) <= 3.0 * math.sqrt(2.0) for i in range(3))


def test_decided_problems_keep_no_duals(caplog):
    # a decided return is not certified, so it must not carry a certificate
    rng = np.random.default_rng(16)
    nan_rows = 0
    with caplog.at_level(logging.DEBUG, logger="trafficpaths.optimizer"):
        for _ in range(16):
            cands, alpha = _insertion_scan(rng)
            k = cands[0].n_terminals
            pos = np.stack([t.positions() for t in cands])
            w = optimizer._edge_weights(np.array([t.flows() for t in cands]), alpha)
            out, duals = optimizer._minimize_length(
                pos, np.array([t.edges for t in cands]), w, pos[:, :k], optimizer.LOCAL_TOL,
                10000, groups=np.zeros(len(cands), int), decide=True)
            kept = np.isfinite(duals).all(axis=(1, 2))
            assert (kept | np.isnan(duals).all(axis=(1, 2))).all()
            assert all(kept[i] for i, res in enumerate(out) if res is None)
            nan_rows += int((~kept).sum())
    decided = [int(r.getMessage().split(" decided")[0].rsplit(" ", 1)[1])
               for r in caplog.records if "position batch" in r.getMessage()]
    assert nan_rows == sum(decided) >= 8


def _pinv_duals(M, rhs):
    """The SVD repair that ``_min_norm_duals`` replaced, kept as its reference."""
    return np.linalg.pinv(M, rcond=np.finfo(float).eps * max(M.shape[1:])) @ rhs


def _random_tree(rng, k, n=None):
    """A random full tree on terminals 0..n-1 (all k by default), branch points k, k+1, ..."""
    tree = ((0, 1),)
    for t in range(2, k if n is None else n):
        tree = optimizer._insert(tree, int(rng.integers(len(tree))), t, k + t - 2)
    return tree


def _short_components(tree, k, short):
    """Kind of every component of the short edges' forest on the free vertices."""
    root = list(range(k - 2))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    anchored = [0] * (k - 2)
    for (a, b), on in zip(tree, short):
        if on and min(a, b) >= k:
            root[find(a - k)] = find(b - k)
        elif on:
            anchored[max(a, b) - k] += 1
    comps: dict = {}
    for v in range(k - 2):
        size, anchors = comps.get(find(v), (0, 0))
        comps[find(v)] = size + 1, anchors + anchored[v]
    return ["isolated" if size == 1 and not anchors else "anchor-free" if not anchors
            else "two anchors" if anchors > 1 else "grounded" for size, anchors in comps.values()]


def test_dual_repair_matches_pinv_reference():
    # min-norm duals on random short-edge sets of random trees equal the SVD's,
    # and on a caterpillar whose whole spine hangs from one anchor at its end
    rng = np.random.default_rng(15)
    seen = set()
    for k in range(3, 13):
        caterpillar = ((0, 1),)
        for t in range(2, k):  # each terminal splits the edge to the one before
            caterpillar = optimizer._insert(caterpillar, len(caterpillar) - 1, t, k + t - 2)
        for dim in (2, 3):
            trees = [caterpillar] + [_random_tree(rng, k) for _ in range(8)]
            B = np.zeros((len(trees), 2 * k - 3, k - 2))
            for i, tree in enumerate(trees):
                for e, (a, b) in enumerate(tree):
                    if a >= k:
                        B[i, e, a - k] += 1.0
                    if b >= k:
                        B[i, e, b - k] -= 1.0
            short = rng.random(B.shape[:2]) < rng.choice([0.2, 0.5, 0.8, 1.0], (len(trees), 1))
            short[0] = [min(e) >= k or k - 1 in e for e in caterpillar]
            M = B.transpose(0, 2, 1) * short[:, None, :]
            rhs = rng.standard_normal((len(trees), k - 2, dim))
            got, ref = optimizer._min_norm_duals(M, rhs), _pinv_duals(M, rhs)
            for i, tree in enumerate(trees):
                assert np.linalg.norm(got[i] - ref[i]) <= 1e-12 * np.linalg.norm(ref[i])
                seen.update(_short_components(tree, k, short[i]))
            # a stack mixing rows with and without short edges, as a stage end
            # repairs every ending problem: each row repairs as it does alone,
            # and one without a short edge (M = 0) to exactly 0
            mixed = short & (np.arange(len(trees)) % 2 == 0)[:, None]
            M = B.transpose(0, 2, 1) * mixed[:, None, :]
            got = optimizer._min_norm_duals(M, rhs)
            for i in range(len(trees)):
                assert np.array_equal(got[i], optimizer._min_norm_duals(M[i:i + 1], rhs[i:i + 1])[0])
                assert mixed[i].any() or np.array_equal(got[i], np.zeros_like(got[i]))
    assert seen == {"isolated", "anchor-free", "two anchors", "grounded"}


def _union_find_closure(linked):
    """Which vertices of a symmetric 0/1 adjacency matrix share a component, by
    union-find: the reference for ``_reachable``."""
    root = list(range(len(linked)))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b in zip(*np.nonzero(linked)):
        root[find(a)] = find(b)
    roots = np.array([find(v) for v in range(len(linked))])
    return roots[:, None] == roots[None, :]


def test_reachable_matches_union_find():
    rng = np.random.default_rng(23)
    for n in range(1, 41):
        for density in (0.05, 0.1, 0.2, 0.5, 1.0):
            linked = rng.random((3, n, n)) < density
            linked |= linked.transpose(0, 2, 1) | np.eye(n, dtype=bool)
            for got, one in zip(optimizer._reachable(linked), linked):
                assert np.array_equal(got, _union_find_closure(one))
    # a 300-vertex path, in a random vertex order: walk counts on it would
    # overflow past about 256 vertices, so only a clipped or boolean closure
    # stays exact
    order = rng.permutation(300)
    path = np.eye(300, dtype=bool)
    path[order[:-1], order[1:]] = path[order[1:], order[:-1]] = True
    assert np.array_equal(optimizer._reachable(path[None])[0], np.ones((300, 300)))
    path[order[149], order[150]] = path[order[150], order[149]] = False
    assert np.array_equal(optimizer._reachable(path[None])[0], _union_find_closure(path))


def _reference_oracle(net, alpha, tol):
    """Every topology solved alone with ``optimize_positions``: sorted (cost, tree key)."""
    k = len(net.masses)
    init = net.points.mean(axis=0) + 1e-3 * np.random.default_rng(7).standard_normal(
        (k - 2, net.dim))
    return sorted((optimizer.optimize_positions(
        optimizer.Topology(net.points.copy(), net.masses.copy(), init, edges), alpha, tol)[1],
        optimizer._tree_key(edges)) for edges in optimizer.enumerate_topologies(k))


def _assert_oracle_matches_reference(net, alpha, tol=1e-9):
    ((_, edges, _, cost, _),) = optimizer._oracle_topologies([net], alpha, tol)
    ranked = _reference_oracle(net, alpha, tol)
    best, key = ranked[0]
    # no other tree ties within the certified gaps, so the best one is well defined
    assert all(c > best * (1.0 + 2.0 * tol) for c, _ in ranked[1:])
    assert abs(cost - best) <= tol * best
    assert optimizer._tree_key(edges) == key


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.8, 1.0])
def test_batched_oracle_matches_topologies_solved_alone(alpha):
    rng = np.random.default_rng(int(alpha * 10) + 41)
    for k_minus, k_plus, dim in ((1, 2, 3), (2, 2, 2), (2, 3, 3), (3, 3, 2)):
        mu_minus, mu_plus = balanced_clouds(rng, k_minus, k_plus, dim=dim)
        _assert_oracle_matches_reference(mu_plus - mu_minus, alpha)


@pytest.mark.parametrize("alpha", [0.3, 0.8])
def test_batched_oracle_matches_alone_on_zero_flow_edges(alpha):
    # unit masses: every tree that pairs a source with a sink first has an
    # edge without flow, so its branch points touch weight-0 edges
    net = _unit_mass_net()
    flows = [optimizer.Topology(net.points, net.masses, np.zeros((2, 2)), e).flows()
             for e in optimizer.enumerate_topologies(4)]
    assert sum(min(abs(f) for f in fl) <= optimizer.FLOW_TOL for fl in flows) == 2
    _assert_oracle_matches_reference(net, alpha)


def test_grouped_oracle_prunes_each_instance_by_its_own_incumbent(monkeypatch):
    # the second instance is the first scaled by 100: its every lower bound
    # exceeds the first one's costs, so a batch-wide incumbent would prune
    # all its trees; per group, each instance is solved as if alone
    mu_minus, mu_plus = balanced_clouds(np.random.default_rng(5), 2, 3)
    small = mu_plus - mu_minus
    large = AtomicMeasure(100.0 * small.points, small.masses.copy())
    kernel, calls = optimizer._minimize_length, []

    def counted(*args, **kwargs):
        calls.append(len(np.unique(kwargs["groups"])))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_minimize_length", counted)
    grouped = optimizer._oracle_topologies([small, large], 0.6, 1e-9)
    assert calls == [2]
    for net, (pos, edges, _, cost, _) in zip((small, large), grouped):
        ((alone, alone_edges, _, alone_cost, _),) = optimizer._oracle_topologies([net], 0.6,
                                                                                 1e-9)
        k = len(net.masses)
        assert cost == alone_cost
        assert optimizer._tree_key(edges) == optimizer._tree_key(alone_edges)
        assert np.array_equal(pos[k:], alone[k:])
    assert grouped[1][3] > 50.0 * grouped[0][3]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_oracle_hands_on_its_winners_own_flows(alpha):
    # the path is built from the winner's row of the batch's flow replay,
    # which must be the tree's own flows, bit for bit
    rng = np.random.default_rng(int(10 * alpha) + 61)
    nets = []
    for dim in (2, 3):
        for k in range(2, 7):
            k_minus = int(rng.integers(1, k))
            mu_minus, mu_plus = balanced_clouds(rng, k_minus, k - k_minus, dim=dim)
            nets.append(mu_plus - mu_minus)
    for net, (pos, edges, flows, *_) in zip(nets, optimizer._oracle_topologies(nets, alpha,
                                                                               1e-9)):
        k = len(net.masses)
        topo = optimizer.Topology(net.points, net.masses, pos[k:],
                                  tuple(map(tuple, edges.tolist())))
        assert np.array_equal(flows, topo.flows())


@pytest.mark.parametrize("dim", [2, 3])
def test_local_search_on_two_atoms_is_one_segment_of_their_mass(dim):
    # with two terminals there is no scan: the one edge starts with the
    # flow of terminal 1, which is the mass itself
    rng = np.random.default_rng(dim)
    for alpha in (0.0, 0.5, 1.0):
        p, q = rng.uniform(-2.0, 2.0, size=(2, dim))
        m = float(rng.uniform(0.1, 3.0))
        t = optimizer.local_search(AtomicMeasure.from_atoms([(p, m)], dim=dim),
                                   AtomicMeasure.from_atoms([(q, m)], dim=dim), alpha)
        ((a, b, th),) = t.segments()
        assert th == m
        assert np.array_equal(a, p) and np.array_equal(b, q)


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


def _w1_instances():
    """20 balanced instances, k = 3-6 atoms, 2-D and 3-D alternating, k // 3 sources."""
    rng = np.random.default_rng(11)
    for i in range(20):
        k, dim = 3 + i % 4, 2 + i % 2
        n_src = max(1, k // 3)
        pts = rng.uniform(-1.0, 1.0, size=(k, dim))
        w = rng.uniform(0.5, 1.5, size=k)
        w[n_src:] *= w[:n_src].sum() / w[n_src:].sum()
        yield (AtomicMeasure.from_atoms([(pts[j], float(w[j])) for j in range(n_src)], dim=dim),
               AtomicMeasure.from_atoms([(pts[j], float(w[j])) for j in range(n_src, k)],
                                        dim=dim))


def test_oracle_at_alpha_one_costs_the_w1_transport():
    # at alpha = 1 an optimal path is a straight-line W1 plan, and the exact
    # transport solve of metrics shares no code with the oracle: the oracle
    # never beats W1 and stays within its certified gap of it
    for mu_minus, mu_plus in _w1_instances():
        cost = currents.alpha_mass(optimizer.brute_force_optimal(mu_minus, mu_plus, 1.0), 1.0)
        dist = np.linalg.norm(mu_minus.points[:, None, :] - mu_plus.points[None, :, :], axis=-1)
        w1 = metrics._transport(mu_minus.masses.tolist(), mu_plus.masses.tolist(), dist.tolist())
        assert w1 <= cost * (1.0 + 1e-12)
        assert cost - w1 <= 1e-9 * cost


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


@pytest.mark.parametrize("solver", [optimizer.brute_force_optimal, optimizer.local_search],
                         ids=["oracle", "local"])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.8])
@pytest.mark.parametrize("m1, m2", [(1.0, 0.5), (0.3, 0.9)])
def test_unequal_masses_merge_at_the_closed_form_angle(solver, alpha, m1, m2):
    # masses m1 and m2 merging into m1 + m2 meet at the angle theta with
    # cos theta = ((m1 + m2)^2a - m1^2a - m2^2a) / (2 m1^a m2^a): 120 degrees
    # at alpha = 0, 90 at alpha = 1/2.  Local search solves its one insertion
    # from its warm smoothing start
    sources, sink = ((-1.0, 2.0), (1.5, 2.5)), (0.0, -1.0)
    t = solver(atoms2((sources[0], m1), (sources[1], m2)), atoms2((sink, m1 + m2)), alpha)
    terminals = np.array([*sources, sink])
    (junction,) = [v for v in t.vertices if np.linalg.norm(terminals - v, axis=1).min() > 0.1]
    u1, u2 = terminals[:2] - junction
    cos_angle = float(u1 @ u2 / (np.linalg.norm(u1) * np.linalg.norm(u2)))
    want = ((m1 + m2) ** (2 * alpha) - m1 ** (2 * alpha) - m2 ** (2 * alpha)) \
        / (2.0 * m1 ** alpha * m2 ** alpha)
    assert cos_angle == pytest.approx(want, abs=1e-8)


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


def test_collision_representatives_follow_chains():
    # points 0.9 COLLISION_TOL apart form one cluster end to end, in any
    # vertex order, represented by its lowest index
    rng = np.random.default_rng(9)
    tol = optimizer.COLLISION_TOL
    for n in (2, 3, 5, 9, 17, 22):
        chain = np.outer(np.arange(n) * 0.9 * tol, [1.0, 0.0])
        apart = np.array([[1.0, 1.0], [1.0, 1.0 + 0.5 * tol], [-1.0, 0.0]])
        for order in (np.arange(n + 3), rng.permutation(n + 3)):
            rep = optimizer._collision_representatives(np.vstack([chain, apart])[order])
            at = np.argsort(order)  # where each row landed
            assert set(rep[at[:n]].tolist()) == {at[:n].min()}
            assert rep[at[n]] == rep[at[n + 1]] == min(at[n], at[n + 1])
            assert rep[at[n + 2]] == at[n + 2]


def test_collision_representatives_of_clustered_points():
    # clusters of points within COLLISION_TOL of their center, some chained
    # beyond it, are represented by the lowest index of their union-find
    # component of the closeness relation
    rng = np.random.default_rng(29)
    tol = optimizer.COLLISION_TOL
    for dim in (2, 3):
        for _ in range(20):
            centers = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 8)), dim))
            labels = rng.integers(len(centers), size=int(rng.integers(2, 30)))
            pts = centers[labels] + rng.uniform(-0.6, 0.6, (len(labels), dim)) * tol / dim
            close = np.linalg.norm(pts[:, None] - pts[None, :], axis=2) <= tol
            rep = optimizer._collision_representatives(pts)
            assert np.array_equal(rep, _union_find_closure(close).argmax(axis=1))


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


def test_is_optimal_reports_the_checked_bound():
    # Gilbert's Y at alpha = 1/2 costs 3 sqrt(2); the bound is checked from
    # the oracle's certificate and the verdict compares the cost against it
    mu_minus = atoms2(((-1.0, 2.0), 1.0), ((1.0, 2.0), 1.0))
    mu_plus = atoms2(((0.0, 0.0), 2.0))
    report = optimizer.is_optimal(optimizer.brute_force_optimal(mu_minus, mu_plus, 0.5), 0.5)
    assert report.lower_bound == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-9)
    assert report.lower_bound <= 3.0 * math.sqrt(2.0) * (1.0 + 1e-15)
    assert report.gap == report.path_cost - report.lower_bound
    assert report.optimal


@pytest.mark.uncertified
def test_is_optimal_without_a_certificate_is_not_optimal(caplog, monkeypatch):
    monkeypatch.setattr(optimizer, "_minimize_length", _stalled)
    mu_minus = atoms2(((-1.0, 2.0), 1.0), ((1.0, 2.0), 1.0))
    t = currents.from_segments([(p, np.zeros(2), 1.0) for p, _ in mu_minus.atoms()])
    with caplog.at_level(logging.WARNING, logger="trafficpaths.optimizer"):
        report = optimizer.is_optimal(t, 0.5)
    assert report.lower_bound == -math.inf and report.gap == math.inf
    assert not report.optimal
    assert any("oracle certificate rejected: tree 0 has no duals" in r.getMessage()
               for r in caplog.records)


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


def test_local_search_keeps_source_atom_on_pinned_instance():
    # overlay once moved a source vertex 1.23e-9, just outside the old 1e-9
    # anchoring radius; the vertex then went free and the boundary TV was 1.33
    alpha = 0.4296532969360948
    mu_minus = atoms2(((-2.97406293224454, -0.9520801501127023), 0.6123567051690657),
                      ((-1.8123895919477842, 0.431973653946103), 0.6637750196725214))
    mu_plus = atoms2(((2.8094483859611694, 0.9138463416651923), 0.29986399123969054),
                     ((2.733697212280844, 0.8782098416151798), 0.18246014937347194),
                     ((2.5088825946150206, 0.7728012830213209), 0.13833069643268192),
                     ((2.531967282169066, 0.32008180402543673), 0.17288808396517086),
                     ((2.1213045152166443, 0.26034487211052215), 0.2223854281155236),
                     ((1.3674991340569909, 0.625372710482494), 0.2602033757150483))
    t = optimizer.local_search(mu_minus, mu_plus, alpha)
    assert (currents.boundary(t) - (mu_plus - mu_minus)).tv() <= 1e-9
    # moves on general graphs stopped at 8.46627
    assert currents.alpha_mass(t, alpha) <= 6.6929


def _generator_instances(n: int) -> list:
    """The first n instances of a mixed generator: 1-10 atoms, 2-D and 3-D, all alphas."""
    rng = np.random.default_rng(3)
    out = []
    for _ in range(n):
        k_minus, k_plus, dim = rng.integers(1, 4), rng.integers(1, 8), rng.integers(2, 4)
        mu_minus, mu_plus = balanced_clouds(rng, int(k_minus), int(k_plus), int(dim))
        out.append((mu_minus, mu_plus, float(rng.choice([0, .3, .5, .8, 1]))))
    return out


@pytest.mark.parametrize("index", [0, 12], ids=["pass-through", "alpha0"])
def test_local_search_reaches_oracle_on_generator_instances(index):
    # moves on general graphs stopped at 6.49337 on the first (a source left as
    # a pass-through atom) and at 10.0318 on the 13th (alpha = 0, +47 %)
    mu_minus, mu_plus, alpha = _generator_instances(index + 1)[index]
    t = optimizer.local_search(mu_minus, mu_plus, alpha)
    opt = optimizer.brute_force_optimal(mu_minus, mu_plus, alpha)
    assert currents.alpha_mass(t, alpha) <= currents.alpha_mass(opt, alpha) * (1.0 + 1e-9)


# the two base instances of the local12 benchmark workload: alpha, a cost
# local search must reach, sources, sinks.  The 8-atom bound is the optimum of
# exhaustive enumeration at 8 atoms; the 12-atom one is what insertion plus
# regrafts reach (moves on general graphs stopped at 7.40935 and 8.67226)
LOCAL12_BASE = [
    (0.8, 7.14866309,
     [((-2.498351083783108, 0.8935058857188491), 0.5745172727551205),
      ((-2.6213592309204774, -0.6414171791637848), 0.9420133606978611)],
     [((1.699778481191915, -0.5389175068201881), 0.14376529025635496),
      ((2.340891485545569, -0.769841235753105), 0.12373622354477035),
      ((2.792618747409361, 0.7162609781678178), 0.26011198009848735),
      ((1.0056540643732401, 0.0829323234375885), 0.338132882921807),
      ((1.21370254804748, -0.48409008247801943), 0.3314054187227563),
      ((1.8337920812662054, -0.09276775629344702), 0.3193788379088054)]),
    (0.6, 7.66004,
     [((-1.742341603179484, -0.1896980374907511), 0.7296819668550505),
      ((-2.99714440200674, 0.6691961951938523), 0.8068985256956636)],
     [((1.8070178802547243, -0.6833465939313077), 0.13396511203685701),
      ((2.8081308799873703, -0.6278556352317508), 0.08643131317425548),
      ((1.7882498206113204, -0.7975617377169193), 0.22397652788942618),
      ((2.9399772862149804, -0.23843154075779638), 0.2239225898973727),
      ((2.405072149776092, -0.11292136175153855), 0.21618801045139194),
      ((1.7264198598453757, 0.3224270722794451), 0.08905143503549667),
      ((1.5295497613068212, -0.8862901363101727), 0.07446928241237737),
      ((1.180353243213826, -0.2355153273448891), 0.06346566875970798),
      ((1.0031026295578835, 0.6809437757035117), 0.22224667118656058),
      ((2.394948132799456, 0.477100425881108), 0.2028638817072681)]),
]


@pytest.mark.parametrize("alpha, bound, sources, sinks", LOCAL12_BASE,
                         ids=["8-atom", "12-atom"])
def test_local_search_certifies_every_position_solve(alpha, bound, sources, sinks,
                                                     caplog):
    mu_minus, mu_plus = atoms2(*sources), atoms2(*sinks)
    with caplog.at_level(logging.WARNING, logger="trafficpaths.optimizer"):
        t = optimizer.local_search(mu_minus, mu_plus, alpha)
    assert not caplog.records
    assert (currents.boundary(t) - (mu_plus - mu_minus)).tv() <= 1e-9
    assert currents.alpha_mass(t, alpha) <= bound


def _insertion_scan(rng):
    """Candidates of a random insertion scan: terminal t hung on every edge of a
    random tree on terminals 0..t-1, terminal 0 carrying the missing mass."""
    k_minus, k_plus, dim = int(rng.integers(1, 4)), int(rng.integers(3, 7)), int(rng.integers(2, 4))
    mu_minus, mu_plus = balanced_clouds(rng, k_minus, k_plus, dim)
    net = mu_plus - mu_minus
    k = len(net.masses)
    t = int(rng.integers(3, k))
    m = net.masses.copy()
    m[0] += m[t + 1:].sum()
    m[t + 1:] = 0.0
    tree = _random_tree(rng, k, t)
    steiner = net.points.mean(axis=0) + 0.3 * rng.standard_normal((k - 2, dim))
    cands = []
    for e_idx, (a, b) in enumerate(tree):
        pos = np.vstack([net.points, steiner])
        steiner_e = steiner.copy()
        steiner_e[t - 2] = (pos[a] + pos[b] + pos[t]) / 3.0
        cands.append(optimizer.Topology(net.points, m, steiner_e,
                                        optimizer._insert(tree, e_idx, t, k + t - 2)))
    return cands, float(rng.choice([0, .3, .5, .8, 1]))


def test_decided_scan_picks_the_certified_scans_tree(caplog):
    # a decided scan stops once every candidate but one is pruned: the same
    # candidates are left as in the certified scan, and the same tree wins
    # at a cost no better than certified
    rng = np.random.default_rng(16)
    tol = optimizer.LOCAL_TOL
    with caplog.at_level(logging.DEBUG, logger="trafficpaths.optimizer"):
        for _ in range(16):
            cands, alpha = _insertion_scan(rng)
            certified = _solve_batch(cands, alpha, tol)
            decided = _solve_batch(cands, alpha, tol, decide=True)
            assert [res is None for res in decided] == [res is None for res in certified]
            (cost, key), (decided_cost, decided_key) = (
                min((res[1], optimizer._tree_key(res[0].edges)) for res in solved if res)
                for solved in (certified, decided))
            assert decided_key == key
            assert decided_cost >= cost * (1.0 - tol)
    decided_counts = [int(r.getMessage().split(" decided")[0].rsplit(" ", 1)[1])
                      for r in caplog.records if "position batch" in r.getMessage()]
    assert sum(decided_counts) >= 8


@pytest.mark.parametrize("index, moved", [(2, True), (4, False)])
def test_regrafts_skip_the_moved_terminals_rescan(index, moved, monkeypatch):
    # after an accepted regraft the search ends once the k - 1 other
    # terminals are rescanned without a gain; with none, after all k.  A
    # batch holds one scan per group, and the scans after an improving one
    # in its batch are discarded: they are not counted
    mu_minus, mu_plus, alpha = _generator_instances(index + 1)[index]
    k = len((mu_plus - mu_minus).masses)
    kernel, batches = optimizer._minimize_length, []

    def counted(*args, groups, **kwargs):
        out, duals = kernel(*args, groups=groups, **kwargs)
        costs = np.full(groups.max() + 1, math.inf)
        for g, res in zip(groups.tolist(), out):
            if isinstance(res, tuple):
                costs[g] = min(costs[g], res[1])
        batches.append(costs.tolist())
        return out, duals

    monkeypatch.setattr(optimizer, "_minimize_length", counted)
    optimizer.local_search(mu_minus, mu_plus, alpha)
    assert all(len(batch) == 1 for batch in batches[:k - 2])  # one batch per insertion
    best = [batch[0] for batch in batches[:k - 2]]  # per scan, discarded ones left out
    cost = best[-1]
    for batch in batches[k - 2:]:
        for c in batch:
            best.append(c)
            if c < (1.0 - optimizer.LOCAL_TOL) * cost:
                cost = c
                break
    cost, last_move = best[k - 3], -1  # the last insertion's, then per regraft scan
    for j, c in enumerate(best[k - 2:]):
        if c < (1.0 - optimizer.LOCAL_TOL) * cost:
            cost, last_move = c, j
    assert (last_move >= 0) == moved
    assert len(best) - (k - 2) - (last_move + 1) == (k - 1 if moved else k)


def _sequential_local_search(mu_minus, mu_plus, alpha):
    """``local_search`` with one regraft scan per batch, as it ran before its
    scans were solved in windows: the reference the windows must equal."""
    net = optimizer._merged_terminals(mu_minus, mu_plus, alpha)
    k = len(net.masses)
    order = np.argsort(-np.abs(net.masses), kind="stable")
    points, masses = net.points[order], net.masses[order]

    def scan(tree, pos, t, s, last, cutoff, skip=None, decide=False):
        m = masses.copy()
        m[0] += m[last + 1:].sum()
        m[last + 1:] = 0.0
        hosts = [e for e in range(len(tree)) if e != skip]
        cands = [optimizer._insert(tree, e, t, s) for e in hosts]
        ends = np.array(tree)[hosts]
        starts = np.repeat(pos[None], len(hosts), axis=0)
        starts[:, s] = (pos[ends[:, 0]] + pos[ends[:, 1]] + pos[t]) / 3.0
        order = np.array([optimizer._strip_order(c, len(pos)) for c in cands])
        flows = optimizer._tree_flows(order, m[None], len(pos))[0]
        solved, _ = optimizer._solve_trees(starts, np.array(cands), flows, k, alpha,
                                           optimizer.LOCAL_TOL, np.zeros(len(cands), int),
                                           cutoff, decide,
                                           start=optimizer.LOCAL_SMOOTH_START)
        kept = [(*res, f, c) for res, f, c in zip(solved, flows, cands) if res is not None]
        return min(kept, key=lambda s: s[1]) if kept else None

    pos, flows, tree = np.vstack([points, np.zeros((k - 2, net.dim))]), masses[1:], ((0, 1),)
    for t in range(2, k):
        pos, cost, flows, tree = scan(tree, pos, t, k + t - 2, t, math.inf, decide=t < k - 1)
    stale, settled, t = 0, k, 0
    while k > 3 and stale < settled:
        edges, s = optimizer._detach(tree, t)
        stale += 1
        solved = scan(edges, pos, t, s, k - 1, cost, skip=len(edges) - 1)
        if solved is not None and solved[1] < (1.0 - optimizer.LOCAL_TOL) * cost:
            (pos, cost, flows, tree), stale, settled = solved, 0, k - 1
        t = (t + 1) % k
    return optimizer._tree_answer(pos, tree, flows)[0]


def _local_search_lines(caplog) -> list:
    """The numbers of every local search's DEBUG line, in the order it logs them."""
    return [[int(x) for x in re.findall(r"\d+", r.getMessage())]
            for r in caplog.records if r.getMessage().startswith("local search on ")]


def test_windowed_regrafts_equal_one_scan_per_batch(caplog):
    # the windows take the sequential search's every decision, so the paths
    # are bit-identical; on these instances a move is accepted mid-window
    # and the scans after it are discarded, and on the 80th a later scan of
    # its window improves more than the first that improves
    instances = [_generator_instances(80)[i] for i in (10, 35, 51, 79)]
    alpha, _, sources, sinks = LOCAL12_BASE[1]
    instances.append((atoms2(*sources), atoms2(*sinks), alpha))
    with caplog.at_level(logging.DEBUG, logger="trafficpaths.optimizer"):
        for mu_minus, mu_plus, alpha in instances:
            windowed = optimizer.local_search(mu_minus, mu_plus, alpha)
            reference = _sequential_local_search(mu_minus, mu_plus, alpha)
            assert np.array_equal(windowed.vertices, reference.vertices)
            for got, want in zip(zip(*windowed.edges), zip(*reference.edges)):
                assert np.array_equal(got, want)  # tails, heads and flows
    lines = _local_search_lines(caplog)
    assert len(lines) == len(instances)
    assert all(windows < solved for _, _, windows, solved, *_ in lines)
    assert sum(discarded for *_, discarded, _, _ in lines) > 0


def test_local_search_logs_its_scans_windows_and_iterations(caplog):
    # one DEBUG line per search, whose counts are those of its batches
    mu_minus, mu_plus, alpha = _generator_instances(11)[10]
    k = len((mu_plus - mu_minus).masses)
    with caplog.at_level(logging.DEBUG, logger="trafficpaths.optimizer"):
        optimizer.local_search(mu_minus, mu_plus, alpha)
    ((atoms, insertions, windows, solved, discarded, moves, iterations),) = \
        _local_search_lines(caplog)
    batches = [[int(x) for x in re.findall(r"\d+", r.getMessage())]
               for r in caplog.records if r.getMessage().startswith("position batch")]
    assert (atoms, insertions) == (k, k - 2)
    assert windows == len(batches) - insertions
    assert solved == sum(batch[-1] for batch in batches[insertions:]) > windows
    assert 0 < discarded < solved and moves >= 1
    assert iterations == sum(batch[-2] for batch in batches)


def _recorded_starts(monkeypatch) -> list:
    """The smoothing start of every ``_minimize_length`` call from now on, its
    default filled in where the caller gives none; the real kernel runs."""
    kernel, starts = optimizer._minimize_length, []
    signature = inspect.signature(kernel)

    def recorded(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        starts.append(bound.arguments["start"])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_minimize_length", recorded)
    return starts


def test_each_solver_starts_its_smoothing_where_it_runs_fastest(monkeypatch, caplog):
    # the oracle's cold starts, spread around the mean, begin at 0.1 R: they
    # ran slower from 0.01 R.  Every batch of local search, each insertion
    # scan and each regraft window, starts from the kept tree's positions
    # and begins warm at 0.01 R
    assert (optimizer.SMOOTH_START, optimizer.LOCAL_SMOOTH_START) == (0.1, 0.01)
    mu_minus, mu_plus, alpha = _generator_instances(5)[4]  # six atoms
    k = len((mu_plus - mu_minus).masses)
    starts = _recorded_starts(monkeypatch)
    optimizer.brute_force_many([(mu_minus, mu_plus)], alpha)
    assert starts == [optimizer.SMOOTH_START]
    with caplog.at_level(logging.DEBUG, logger="trafficpaths.optimizer"):
        t = optimizer.local_search(mu_minus, mu_plus, alpha)
    ((_, insertions, windows, *_),) = _local_search_lines(caplog)
    assert insertions == k - 2 and windows >= 2
    assert starts[1:] == [optimizer.LOCAL_SMOOTH_START] * (insertions + windows)
    del starts[:]
    assert optimizer.is_optimal(t, alpha)
    assert starts == [optimizer.SMOOTH_START]


def _regraft_window(rng, k, dim, alpha, n_scans):
    """The regraft scans of terminals 0..n_scans-1 on a solved random tree of a
    random k-atom instance, as local search stacks them in one window: the
    starts, edges, weights and groups, one group per scan, and the tree's
    cost, which is every scan's cutoff."""
    mu_minus, mu_plus = balanced_clouds(rng, k // 2, k - k // 2, dim)
    net, n = mu_plus - mu_minus, 2 * k - 2
    assert len(net.masses) == k

    def flows(trees):
        order = np.array([optimizer._strip_order(tree, n) for tree in trees])
        return optimizer._tree_flows(order, net.masses[None], n)[0]

    tree = _random_tree(rng, k)
    spread = 0.3 * rng.standard_normal((k - 2, dim))
    start = np.vstack([net.points, net.points.mean(axis=0) + spread])
    ((pos, cost),), _ = optimizer._solve_trees(start[None], np.array([tree]), flows([tree]), k,
                                               alpha, optimizer.LOCAL_TOL, np.zeros(1, int),
                                               start=optimizer.SMOOTH_START)
    starts, cands = [], []
    for t in range(n_scans):
        edges, s = optimizer._detach(tree, t)
        for e, (a, b) in enumerate(edges[:-1]):
            starts.append(pos.copy())
            starts[-1][s] = (pos[a] + pos[b] + pos[t]) / 3.0
            cands.append(optimizer._insert(edges, e, t, s))
    groups = np.repeat(np.arange(n_scans), 2 * k - 6)
    return np.array(starts), np.array(cands), optimizer._edge_weights(flows(cands), alpha), \
        groups, cost


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.6, 1.0])
def test_stacked_groups_solve_as_each_group_alone(alpha, dim):
    # a group's entries and duals do not depend on the groups stacked with
    # it under a shared cutoff: the regraft windows rely on this
    rng = np.random.default_rng(int(10 * alpha) + 100 * dim)
    for k in (4, 7, 12):
        pos, edges, w, groups, cutoff = _regraft_window(rng, k, dim, alpha, 3)
        out, duals = optimizer._minimize_length(pos, edges, w, pos[:, :k], optimizer.LOCAL_TOL,
                                                10000, cutoff, groups=groups)
        assert any(res is None for res in out)
        for g in range(3):
            rows = np.flatnonzero(groups == g)
            alone, alone_duals = optimizer._minimize_length(
                pos[rows], edges[rows], w[rows], pos[rows, :k], optimizer.LOCAL_TOL, 10000,
                cutoff, groups=np.zeros(len(rows), int))
            assert np.array_equal(duals[rows], alone_duals, equal_nan=True)
            for res, ref in zip((out[i] for i in rows), alone):
                assert type(res) is type(ref)
                if isinstance(res, tuple):
                    assert np.array_equal(res[0], ref[0]) and res[1] == ref[1]
                elif res is not None:
                    assert np.array_equal(res.best, ref.best)


def _edge_differences(v: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """v[a] - v[b] for every edge (a, b) of every problem: d = B X + D0 at positions v."""
    rows = np.arange(len(v))[:, None]
    return v[rows, edges[..., 0]] - v[rows, edges[..., 1]]


def _full_step_trials(X, d, r, eps, w, lam2, g, P, dP):
    """``_armijo``'s full-step trial without and with a t axis, each on its own
    copy of the state, which must agree bit for bit: the mask of the problems
    that fail it, and the positions it leaves."""
    states = [(X.copy(), d.copy(), r.copy()) for _ in range(2)]
    rests = [optimizer._armijo(*state, eps, w, lam2, g, P[g], dP[g], *t)
             for state, t in zip(states, ((), (np.array([1.0]),)))]
    assert np.array_equal(rests[0], rests[1])
    for got, want in zip(*states):
        assert np.array_equal(got, want)
    return rests[0], states[0][0]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
def test_full_step_trial_moves_as_the_t_axis_trial(alpha, dim):
    # the first Armijo trial runs without a t axis; on states where some
    # problems fail the full step it moves exactly the problems, and to the
    # same bits, that the trial of t = [1.0] moves, and leaves the rest alone
    rng = np.random.default_rng(int(10 * alpha) + 100 * dim + 7)
    for k in (5, 8, 12):
        pos, edges, w, _, _ = _regraft_window(rng, k, dim, alpha, 3)
        T, rows = len(pos), np.arange(len(pos))[:, None]
        eps = 10.0 ** rng.uniform(-8.0, -1.0, T)
        d = _edge_differences(pos, edges)
        r = np.sqrt((d * d).sum(axis=2) + (eps * eps)[:, None])
        # down the gradient of the smoothed length
        grad, y = np.zeros_like(pos), (w / r)[..., None] * d
        np.add.at(grad, (rows, edges[..., 0]), y)
        np.add.at(grad, (rows, edges[..., 1]), -y)
        X, P = pos[:, k:], -0.05 * grad[:, k:]
        dP = _edge_differences(np.concatenate([np.zeros((T, k, dim)), P], axis=1), edges)
        # a decrement of half or twice the decrease f(X) - f(X + P): the full
        # step fails where it is twice, and where f does not decrease
        r_full = np.sqrt(((d + dP) ** 2).sum(axis=2) + (eps * eps)[:, None])
        lam2 = 4.0 * np.abs(((r_full - r) * w).sum(axis=1)) * np.where(rows[:, 0] % 2, 0.5, 2.0)
        rest, moved = _full_step_trials(X, d, r, eps, w, lam2, slice(None), P, dP)
        assert 0 < rest.sum() < T
        assert np.array_equal(moved[rest], X[rest])
        assert np.array_equal(moved[~rest], X[~rest] + P[~rest])
        some = np.flatnonzero(rng.random(T) < 0.7)
        assert np.array_equal(_full_step_trials(X, d, r, eps, w, lam2, some, P, dP)[0], rest[some])
        # the problems that pass, stacked alone: all take the full step
        ok = np.flatnonzero(~rest)
        rest_ok, moved_ok = _full_step_trials(X[ok], d[ok], r[ok], eps[ok], w[ok], lam2[ok],
                                              slice(None), P[ok], dP[ok])
        assert not rest_ok.any() and np.array_equal(moved_ok, X[ok] + P[ok])


def _stalled(pos, edges, *args, **kwargs):
    """A position kernel that certifies nothing: every problem keeps its start."""
    return ([optimizer.OptimizeError("position stage did not certify its gap", p) for p in pos],
            np.full(edges.shape[:2] + pos.shape[2:], np.nan))


@pytest.mark.uncertified
def test_local_search_warns_on_uncertified_position_solve(caplog, monkeypatch):
    monkeypatch.setattr(optimizer, "_minimize_length", _stalled)
    mu_minus = atoms2(((-1.0, 2.0), 1.0), ((1.0, 2.0), 1.0))
    mu_plus = atoms2(((0.0, 0.0), 2.0))
    with caplog.at_level(logging.WARNING, logger="trafficpaths.optimizer"):
        t = optimizer.local_search(mu_minus, mu_plus, alpha=0.5)
    assert any("not certified" in r.getMessage() for r in caplog.records)
    assert (currents.boundary(t) - (mu_plus - mu_minus)).tv() <= 1e-9


@pytest.mark.uncertified
def test_oracle_warns_on_uncertified_position_solve(caplog, monkeypatch):
    monkeypatch.setattr(optimizer, "_minimize_length", _stalled)
    mu_minus, mu_plus = balanced_clouds(np.random.default_rng(5), 2, 3)
    with caplog.at_level(logging.WARNING, logger="trafficpaths.optimizer"):
        t = optimizer.brute_force_optimal(mu_minus, mu_plus, alpha=0.6)
    assert sum("not certified" in r.getMessage() for r in caplog.records) == 15
    assert all(r.getMessage().startswith("instance 0 topology ") for r in caplog.records)
    assert (currents.boundary(t) - (mu_plus - mu_minus)).tv() <= 1e-9
