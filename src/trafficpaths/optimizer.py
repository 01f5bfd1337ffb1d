"""Gilbert-Steiner optimization: exact desk-scale oracle and local search.

The oracle enumerates full binary tree topologies over the terminal
atoms (at most six), with the classical edge-insertion recursion, so
(2k-5)!! trees for k terminals.  On a tree the edge flows are forced
by mass balance; positions of the auxiliary branch points are then a
convex sum of weighted Euclidean norms.  One position solver,
``_minimize_length``, serves the oracle and local search: all free
vertices move jointly by damped Newton steps on the smoothed objective
sum_e w_e sqrt(|x_a - x_b|^2 + eps^2), with eps cut stage by stage from
a tenth of the radius R of the fixed points (the terminals, or the
boundary atoms in local search).  After each stage the dual
y_e = w_e d_e / r_e gives a rigorous lower bound: on collapsing edges y
is re-solved from the balance at the free vertices and clipped to
|y_e| <= w_e, and any remaining imbalance g is charged R |g|, valid
because an optimum lies in the fixed points' convex hull.  A topology is
finished once its certified relative gap is within tol, and dropped as
soon as its lower bound exceeds the best cost found so far
(branch-and-bound in the spirit of Smith, Algorithmica 1992).
Degenerate optima are reached through collisions (branch points
landing on terminals or each other are contracted at 1e-7) and through
zero-flow edges, which cost nothing and realize disconnected optima
inside a tree topology, so forests and atom splittings need no separate
enumeration.

Local search solves its general graphs with the boundary atoms fixed,
then contracts vertices within 1e-7 onto them before ``overlay``.

alpha = 0 is accepted as the pure Steiner-tree mode: every edge with
nonzero flow gets unit weight, which is the Fermat-point regime, and
``path_cost`` reports the plain length.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import currents, decomposition as dcmp
from .currents import AtomicMeasure, TrafficPath

COLLISION_TOL = 1e-7
FLOW_TOL = 1e-12
ORACLE_MAX_ATOMS = 6
# smoothing continuation of the position stage: eps runs from SMOOTH_START to
# SMOOTH_FLOOR terminal radii R, cut by SMOOTH_FACTOR per stage; a stage ends
# when the squared Newton decrement is below STAGE_DECREMENT * sum(w) * eps^2 / R
SMOOTH_START = 0.1
SMOOTH_FACTOR = 10.0
SMOOTH_FLOOR = 1e-13
STAGE_DECREMENT = 1e-6

_log = logging.getLogger(__name__)


class OracleRangeError(ValueError):
    """Instance too large for exhaustive topology enumeration."""


class OptimizeError(RuntimeError):
    """Position stage did not certify its gap; carries the last iterate."""

    def __init__(self, message: str, best):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class Topology:
    """Tree over terminals (fixed, signed masses) and free branch points."""

    terminal_points: np.ndarray
    terminal_masses: np.ndarray
    steiner_points: np.ndarray
    edges: tuple  # of (a, b) indices into [terminals | steiner]

    @property
    def n_terminals(self) -> int:
        return len(self.terminal_masses)

    @property
    def dim(self) -> int:
        return self.terminal_points.shape[1]

    def positions(self) -> np.ndarray:
        if len(self.steiner_points):
            return np.vstack([self.terminal_points, self.steiner_points])
        return self.terminal_points.copy()

    def with_steiner(self, pts: np.ndarray) -> "Topology":
        return Topology(self.terminal_points, self.terminal_masses,
                        np.asarray(pts, dtype=float).reshape(-1, self.dim), self.edges)

    def flows(self) -> list[float]:
        """Signed flow per edge (positive in the a -> b direction), forced by balance."""
        n = self.n_terminals + len(self.steiner_points)
        ib = np.zeros(n)
        ib[: self.n_terminals] = self.terminal_masses
        deg = np.zeros(n, dtype=int)
        adj: dict[int, list[int]] = {}
        for e, (a, b) in enumerate(self.edges):
            deg[a] += 1
            deg[b] += 1
            adj.setdefault(a, []).append(e)
            adj.setdefault(b, []).append(e)
        flows = [0.0] * len(self.edges)
        removed_e = [False] * len(self.edges)
        removed_v = [False] * n
        queue = [v for v in range(n) if deg[v] == 1]
        while queue:
            v = queue.pop()
            if removed_v[v]:
                continue
            live = [e for e in adj.get(v, ()) if not removed_e[e]]
            if not live:
                removed_v[v] = True
                continue
            e = live[0]
            a, b = self.edges[e]
            u = b if a == v else a
            flows[e] = ib[v] if v == b else -ib[v]
            ib[u] += ib[v]
            removed_e[e] = True
            removed_v[v] = True
            deg[u] -= 1
            if deg[u] == 1:
                queue.append(u)
        return flows

    def cost(self, alpha: float) -> float:
        pos = self.positions()
        total = 0.0
        for (a, b), f in zip(self.edges, self.flows()):
            th = abs(f)
            if th <= FLOW_TOL:
                continue
            w = 1.0 if alpha == 0.0 else th ** alpha
            total += w * float(np.linalg.norm(pos[a] - pos[b]))
        return total


def enumerate_topologies(k: int) -> list[tuple]:
    """All full binary tree edge sets on terminals 0..k-1; branch points are k, k+1, ...

    Built by inserting terminals one at a time into every existing edge;
    yields (2k-5)!! trees for k >= 3, one bare edge for k = 2.
    """
    if k < 2:
        raise ValueError("need at least two terminals")
    if k == 2:
        return [((0, 1),)]
    trees = [[(0, 1)]]
    for t in range(2, k):
        nxt = []
        for tree in trees:
            s = k + (t - 2)  # next branch point index
            for e_idx, (a, b) in enumerate(tree):
                new_tree = tree[: e_idx] + tree[e_idx + 1:]
                new_tree = new_tree + [(a, s), (s, b), (s, t)]
                nxt.append(new_tree)
        trees = nxt
    return [tuple(tree) for tree in trees]


def _minimize_length(pos: np.ndarray, edges: np.ndarray, w: np.ndarray, free: np.ndarray,
                     anchors: np.ndarray, tol: float, max_iters: int,
                     cutoff: float = math.inf) -> tuple[np.ndarray, float] | None:
    """Joint smoothed Newton solve of sum_e w_e |x_a - x_b|, stopped on a certified gap.

    Moves the vertices in free (each touching an edge); the anchors must
    include every fixed end of an edge, so an optimum lies in their hull.
    Returns (positions, cost) once cost - lower_bound <= tol * cost, or None
    as soon as the lower bound exceeds cutoff.  Raises OptimizeError with the
    last positions when max_iters Newton steps do not certify the gap, or
    when steps at the smallest smoothing stop making progress.
    """
    nf, dim = len(free), pos.shape[1]
    col = np.full(len(pos), -1)
    col[free] = np.arange(nf)
    # edge vector d = B @ X + D0 over the free positions X
    B = np.zeros((len(edges), nf))
    a_free, b_free = col[edges[:, 0]] >= 0, col[edges[:, 1]] >= 0
    B[a_free, col[edges[a_free, 0]]] += 1.0
    B[b_free, col[edges[b_free, 1]]] -= 1.0
    D0 = (np.where(a_free[:, None], 0.0, pos[edges[:, 0]])
          - np.where(b_free[:, None], 0.0, pos[edges[:, 1]]))
    center = anchors.mean(axis=0)
    R = float(np.max(np.linalg.norm(anchors - center, axis=1)))
    D0c = D0 - np.outer((~a_free).astype(float) - (~b_free).astype(float), center)
    X = pos[free].copy()
    eye = np.eye(dim)

    def result(X):
        out = pos.copy()
        out[free] = X
        return out

    def lower_bound(y):
        # valid for any y with |y_e| <= w_e: sum_e y_e . d_e <= cost at every
        # point, and the imbalance g at a free vertex x_v is charged R |g_v|
        # because an optimal x_v lies within R of center
        g = B.T @ y
        return float(np.sum(y * D0c)) - R * float(np.sum(np.linalg.norm(g, axis=1)))

    def bounds(X, eps):
        """Cost at X and a lower bound on the optimum, from y_e = w_e d_e / r_e."""
        d = B @ X + D0
        n = np.linalg.norm(d, axis=1)
        y = (w / np.sqrt(n * n + eps * eps))[:, None] * d
        lower = lower_bound(y)
        short = n < math.sqrt(eps * R)
        if short.any():
            # on edges that are collapsing d/r is rounding noise: take their y
            # from the balance at free vertices, clipped back into the balls
            rhs = -(B[~short].T @ y[~short])
            y[short] = np.linalg.lstsq(B[short].T, rhs, rcond=None)[0]
            excess = np.linalg.norm(y[short], axis=1) / w[short]
            y[short] /= np.maximum(excess, 1.0)[:, None]
            lower = max(lower, lower_bound(y))
        return float(w @ n), lower

    def smoothed(X, eps):
        d = B @ X + D0
        return float(w @ np.sqrt(np.einsum("ij,ij->i", d, d) + eps * eps))

    eps = SMOOTH_START * R
    floor = SMOOTH_FLOOR * R
    scale = float(w.sum())
    steps = 0
    last = None  # (eps, X) at the end of the previous stage
    while True:
        d = B @ X + D0
        r = np.sqrt(np.einsum("ij,ij->i", d, d) + eps * eps)
        while True:
            u = w / r
            grad = (B.T @ (u[:, None] * d)).ravel()
            # Hessian of one smoothed norm: w (I - d d^T / r^2) / r
            K = u[:, None, None] * (eye - d[:, :, None] * d[:, None, :] / (r * r)[:, None, None])
            H = np.einsum("ei,ej,eab->iajb", B, B, K).reshape(nf * dim, nf * dim)
            p = -np.linalg.solve(H, grad)
            lam2 = float(-grad @ p)  # squared Newton decrement
            if lam2 <= STAGE_DECREMENT * scale * eps * eps / R:
                break
            if steps >= max_iters:
                raise OptimizeError("position stage did not certify its gap", result(X))
            steps += 1
            P = p.reshape(nf, dim)
            dP = B @ P
            t = 1.0
            while t >= 1e-6:
                # f(X + tP) - f(X), written so that it stays exact far below
                # the rounding of f itself
                step = t * dP
                d_new = d + step
                r_new = np.sqrt(np.einsum("ij,ij->i", d_new, d_new) + eps * eps)
                change = float(w @ (np.einsum("ij,ij->i", step, d + d_new) / (r + r_new)))
                if change <= -0.25 * t * lam2:
                    break
                t *= 0.5
            else:
                break  # no progress at this smoothing
            X, d, r = X + t * P, d_new, r_new
        cost, lower = bounds(X, eps)
        if lower > cutoff:
            return None
        if cost - lower <= tol * cost:
            return result(X), cost
        if eps <= floor:
            raise OptimizeError("position stage did not certify its gap", result(X))
        new_eps = max(eps / SMOOTH_FACTOR, floor)
        previous, last = last, (eps, X)
        if previous is not None:
            # the smoothed minimizer is nearly affine in eps once eps is small:
            # extrapolate from the last two stages when that helps
            guess = X + (new_eps - eps) / (previous[0] - eps) * (previous[1] - X)
            if smoothed(guess, new_eps) < smoothed(X, new_eps):
                X = guess
        eps = new_eps


def _solve_positions(topology: Topology, alpha: float, tol: float, max_iters: int,
                     cutoff: float = math.inf) -> tuple[Topology, float] | None:
    """Position stage of one topology through ``_minimize_length``.

    The branch points touching an edge with flow move; the terminals are
    the anchors.  Returns (topology, cost), or None once the lower bound
    exceeds cutoff; OptimizeError carries the last iterate as a Topology.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    k = topology.n_terminals
    pos = topology.positions()
    th = np.abs(np.asarray(topology.flows(), dtype=float))
    live = th > FLOW_TOL
    edges = np.asarray(topology.edges, dtype=int).reshape(-1, 2)[live]
    w = np.ones(len(edges)) if alpha == 0.0 else th[live] ** alpha
    # vertices touching no edge with flow do not affect the cost and stay put;
    # every other branch point lies on a path between two terminals
    free = np.unique(edges)
    free = free[free >= k]
    if not len(free):
        return topology, topology.cost(alpha)
    try:
        solved = _minimize_length(pos, edges, w, free, pos[:k], tol, max_iters, cutoff)
    except OptimizeError as err:
        raise OptimizeError(str(err), topology.with_steiner(err.best[k:])) from None
    if solved is None:
        return None
    out, cost = solved
    return topology.with_steiner(out[k:]), cost


def optimize_positions(topology: Topology, alpha: float, tol: float = 1e-10,
                       max_iters: int = 10000) -> tuple[Topology, float]:
    """Convex position stage for a fixed topology: minimize the weighted length.

    All branch points move jointly.  Raises OptimizeError (with the best
    iterate attached) if the certified relative gap is not within tol after
    max_iters Newton steps.
    """
    return _solve_positions(topology, alpha, tol, max_iters)


def _merged_terminals(mu_minus: AtomicMeasure, mu_plus: AtomicMeasure):
    net = mu_plus - mu_minus
    if abs(net.total()) > 1e-9:
        raise ValueError("marginals must balance")
    return net


def _tree_key(edges) -> tuple:
    return tuple(sorted((min(a, b), max(a, b)) for a, b in edges))


def _collision_representatives(pos: np.ndarray, anchored: np.ndarray) -> np.ndarray:
    """Representative vertex of every vertex, merging chains closer than COLLISION_TOL.

    Each cluster is represented by its lowest-index anchored vertex, or by
    its lowest index when it holds none.
    """
    n = len(pos)
    order = np.lexsort((np.arange(n), ~anchored))  # anchored first, then by index
    close = np.linalg.norm(pos[order, None] - pos[None, order], axis=2) <= COLLISION_TOL
    first = np.arange(n)  # position in order of each cluster's representative
    while True:
        spread = np.where(close, first, n).min(axis=1)
        if np.array_equal(spread, first):
            break
        first = spread
    rep = np.empty(n, dtype=int)
    rep[order] = order[first]
    return rep


def _contracted_path(topology: Topology) -> TrafficPath:
    """Traffic path of a topology with near-coincident vertices contracted."""
    pos = topology.positions()
    rep = _collision_representatives(pos, np.arange(len(pos)) < topology.n_terminals)
    segs = []
    for (a, b), f in zip(topology.edges, topology.flows()):
        ra, rb = rep[a], rep[b]
        if ra == rb or abs(f) <= FLOW_TOL:
            continue
        if f > 0:
            segs.append((pos[ra], pos[rb], f))
        else:
            segs.append((pos[rb], pos[ra], -f))
    if not segs:
        return currents.empty_path(topology.dim)
    return currents.overlay(segs, dim=topology.dim)


def _reroute_pass(t: TrafficPath, alpha: float) -> TrafficPath:
    """Replace single curves by their straight chord while that helps."""
    if alpha == 0.0:
        return t
    for _ in range(20):
        improved = False
        base = currents.alpha_mass(t, alpha)
        pi = dcmp.good_decomposition(dcmp.remove_cycles(t))
        for c, w in sorted(pi.entries, key=lambda e: -e[1] * e[0].length()):
            chord = currents.from_segments([(c.start(), c.end(), w)], dim=t.dim)
            removed = currents.overlay(
                t.segments() + [(b, a, w) for a, b in c.segments()], dim=t.dim)
            cand = currents.add(removed, chord)
            if currents.alpha_mass(cand, alpha) < base - 1e-12:
                t = dcmp.remove_cycles(cand)
                improved = True
                break
        if not improved:
            return t
    return t


def brute_force_optimal(mu_minus: AtomicMeasure, mu_plus: AtomicMeasure, alpha: float,
                        tol: float = 1e-9) -> TrafficPath:
    """Exhaustive Gilbert-Steiner oracle for instances of at most six atoms.

    Every topology not pruned by its lower bound is solved to a certified
    relative gap of tol.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    net = _merged_terminals(mu_minus, mu_plus)
    k = len(net.masses)
    if k == 0:
        dim = mu_minus.dim if mu_minus.points.size else mu_plus.dim
        return currents.empty_path(dim)
    if k > ORACLE_MAX_ATOMS:
        raise OracleRangeError("instance exceeds oracle bound of six atoms")
    if k == 1:
        raise ValueError("marginals must balance")
    dim = net.dim
    best = None
    for edges in enumerate_topologies(k):
        n_steiner = max((max(a, b) for a, b in edges), default=0) + 1 - k
        n_steiner = max(n_steiner, 0)
        init = np.mean(net.points, axis=0) + np.zeros((n_steiner, dim))
        if n_steiner:
            # spread the starting branch points to break coincidence
            rng = np.random.default_rng(7)
            init = init + 1e-3 * rng.standard_normal((n_steiner, dim))
        topo = Topology(net.points.copy(), net.masses.copy(), init, edges)
        cutoff = best[0][0] if best is not None else math.inf
        try:
            solved = _solve_positions(topo, alpha, tol, 10000, cutoff)
        except OptimizeError as err:
            _log.warning("oracle topology %s not certified: %s", _tree_key(edges), err)
            solved = err.best, err.best.cost(alpha)
        if solved is None:
            continue  # provably worse than the incumbent
        topo, cost = solved
        key = (cost, _tree_key(edges))
        if best is None or key < best[0]:
            best = (key, topo)
    path = _contracted_path(best[1])
    return dcmp.remove_cycles(path)


@dataclass(frozen=True)
class OptimalityReport:
    optimal: bool
    gap: float
    path_cost: float
    oracle_cost: float

    def __bool__(self) -> bool:
        return self.optimal


def is_optimal(t: TrafficPath, alpha: float, tol: float = 1e-6) -> OptimalityReport:
    """Compare a path against the oracle on its own boundary.

    tol bounds the cost gap of the verdict only; the oracle itself always
    runs at its default certified gap.
    """
    bnd = currents.boundary(t)
    opt = brute_force_optimal(bnd.negative_part(), bnd.positive_part(), alpha)
    cost, oracle_cost = path_cost(t, alpha), path_cost(opt, alpha)
    gap = cost - oracle_cost
    return OptimalityReport(gap <= tol, gap, cost, oracle_cost)


def _steiner_cost(t: TrafficPath) -> float:
    return sum(float(np.linalg.norm(b - a)) for a, b, _ in t.segments())


def path_cost(t: TrafficPath, alpha: float) -> float:
    """alpha-mass of a path; at alpha = 0 (Steiner mode) its plain length."""
    return _steiner_cost(t) if alpha == 0.0 else currents.alpha_mass(t, alpha)


def _graph_descent_path(t: TrafficPath, bnd_points: list[np.ndarray], alpha: float
                        ) -> TrafficPath:
    """Certified joint position solve of every non-boundary vertex of a path.

    A vertex within COLLISION_TOL of a boundary atom is anchored at the
    atom's exact coordinates.  After the solve, vertices within
    COLLISION_TOL are contracted onto boundary vertices first, so that
    overlay meets no vanishing edge that it could merge into a neighbouring
    line and so shift a boundary point.
    """
    if t.is_empty():
        return t
    pos = t.vertices.copy()
    bnd = np.asarray(bnd_points, dtype=float)
    dist = np.linalg.norm(pos[:, None, :] - bnd[None, :, :], axis=2)
    anchored = dist.min(axis=1) <= COLLISION_TOL
    pos[anchored] = bnd[dist[anchored].argmin(axis=1)]
    edges = np.array([(i, j) for i, j, _ in t.edges], dtype=int)
    th = np.array([th for _, _, th in t.edges])
    w = np.ones(len(th)) if alpha == 0.0 else th ** alpha
    free = np.unique(edges)
    free = free[~anchored[free]]
    if len(free):
        try:
            pos, _ = _minimize_length(pos, edges, w, free, pos[anchored], 1e-10, 10000)
        except OptimizeError as err:
            _log.warning("local search position solve not certified: %s", err)
            pos = err.best
    rep = _collision_representatives(pos, anchored)
    segs = [(pos[rep[i]], pos[rep[j]], th) for i, j, th in t.edges if rep[i] != rep[j]]
    return currents.overlay(segs, dim=t.dim)


def _branch_insertion(t: TrafficPath, alpha: float, bnd_points) -> TrafficPath | None:
    """Try a Y-split at a vertex with two same-direction edges; best improver or None."""
    base = path_cost(t, alpha)
    best = None
    for v in range(len(t.vertices)):
        out_e = [(i, j, th) for i, j, th in t.edges if i == v]
        in_e = [(i, j, th) for i, j, th in t.edges if j == v]
        for bundle, outgoing in ((out_e, True), (in_e, False)):
            for (e1, e2) in itertools.combinations(bundle, 2):
                other1 = e1[1] if outgoing else e1[0]
                other2 = e2[1] if outgoing else e2[0]
                mid = 0.5 * (t.vertices[other1] + t.vertices[other2])
                u = t.vertices[v] + 0.25 * (mid - t.vertices[v])
                segs = [(t.vertices[i], t.vertices[j], th) for i, j, th in t.edges
                        if (i, j, th) not in (e1, e2)]
                if outgoing:
                    segs.append((t.vertices[v], u, e1[2] + e2[2]))
                    segs.append((u, t.vertices[other1], e1[2]))
                    segs.append((u, t.vertices[other2], e2[2]))
                else:
                    segs.append((u, t.vertices[v], e1[2] + e2[2]))
                    segs.append((t.vertices[other1], u, e1[2]))
                    segs.append((t.vertices[other2], u, e2[2]))
                cand = currents.overlay(segs, dim=t.dim)
                cand = _graph_descent_path(cand, bnd_points, alpha)
                cost = path_cost(cand, alpha)
                if cost < base - 1e-12 and (best is None or cost < best[0]):
                    best = (cost, cand)
    return best[1] if best else None


def _direct_init(mu_minus: AtomicMeasure, mu_plus: AtomicMeasure) -> TrafficPath:
    """Straight-line greedy matching of sources to sinks."""
    supplies = [(p, m) for p, m in mu_minus.atoms()]
    demands = [(p, m) for p, m in mu_plus.atoms()]
    segs = []
    di = 0
    remaining = demands[0][1] if demands else 0.0
    for p, m in supplies:
        left = m
        while left > FLOW_TOL and di < len(demands):
            take = min(left, remaining)
            if take > FLOW_TOL:
                segs.append((p, demands[di][0], take))
            left -= take
            remaining -= take
            if remaining <= FLOW_TOL:
                di += 1
                remaining = demands[di][1] if di < len(demands) else 0.0
    return currents.overlay(segs, dim=mu_minus.dim)


def local_search(mu_minus: AtomicMeasure, mu_plus: AtomicMeasure, alpha: float,
                 init: TrafficPath | None = None, budget: int = 60) -> TrafficPath:
    """Improvement loop: position solve, branch insertion, chord reroutes.

    Positions come from the certified joint solve of all non-boundary
    vertices (a warning is logged when one does not certify) and a
    contraction onto the boundary atoms.  Each accepted move strictly lowers
    the cost (the Steiner length at alpha = 0); the boundary is preserved
    throughout.  No optimality promise, but on oracle-range instances the
    tests compare the final cost against the exhaustive optimum.
    """
    _merged_terminals(mu_minus, mu_plus)
    t = init if init is not None else _direct_init(mu_minus, mu_plus)
    t = dcmp.remove_cycles(t)
    bnd_points = [p for p, _ in currents.boundary(t).atoms()]
    t = _graph_descent_path(t, bnd_points, alpha)
    for _ in range(budget):
        cost = path_cost(t, alpha)
        cand = _branch_insertion(t, alpha, bnd_points)
        if cand is not None and path_cost(cand, alpha) < cost - 1e-12:
            t = dcmp.remove_cycles(cand)
            continue
        cand = _reroute_pass(t, alpha)
        if path_cost(cand, alpha) < cost - 1e-12:
            t = _graph_descent_path(cand, bnd_points, alpha)
            continue
        break
    return t
