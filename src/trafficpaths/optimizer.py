"""Gilbert-Steiner optimization: exact desk-scale oracle and local search.

Both solvers search full binary tree topologies over the merged terminal
atoms, built by the classical edge-insertion recursion: the oracle
enumerates all (2k-5)!! trees for k terminals (at most ORACLE_MAX_ATOMS),
local search walks a neighbourhood of them.  On a tree the edge flows are
forced by mass balance; positions of the auxiliary branch points are then a
convex sum of weighted Euclidean norms.  One position solver,
``_minimize_length``, serves every topology: all free vertices move jointly
by damped Newton steps on the smoothed objective
sum_e w_e sqrt(|x_a - x_b|^2 + eps^2), with eps cut stage by stage from
a tenth of the radius R of the terminals.  After each stage the dual
y_e = w_e d_e / r_e gives a rigorous lower bound: on collapsing edges y
is re-solved from the balance at the free vertices and clipped to
|y_e| <= w_e, and any remaining imbalance g is charged R |g|, valid
because an optimum lies in the terminals' convex hull.  A topology is
finished once its certified relative gap is within tol, and dropped as
soon as its lower bound exceeds the best cost found so far
(branch-and-bound in the spirit of Smith, Algorithmica 1992).
Degenerate optima are reached through collisions (branch points
landing on terminals or each other are contracted at 1e-7) and through
zero-flow edges, which cost nothing and realize disconnected optima
inside a tree topology, so forests, pass-through atoms and atom
splittings need no separate enumeration or move.

Local search follows the tree-space heuristics of Bernot, Caselles and
Morel (Optimal Transportation Networks, LNM 1955): terminals are inserted
greedily, heaviest first, each into the edge that solves cheapest, and the
tree is then improved by terminal regrafts, each scored by the same
certified solve.

alpha = 0 is accepted as the pure Steiner-tree mode: every edge with
nonzero flow gets unit weight, which is the Fermat-point regime, and
``path_cost`` reports the plain length.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import currents, decomposition as dcmp
from .currents import AtomicMeasure, TrafficPath

COLLISION_TOL = 1e-7
FLOW_TOL = 1e-12
ORACLE_MAX_ATOMS = 6
# certified relative gap of every local search solve, and the least relative
# gain that counts as an improving move
LOCAL_TOL = 1e-10
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


def _insert(tree: tuple, e_idx: int, t: int, s: int) -> tuple:
    """Tree with edge e_idx split at branch point s and terminal t hung from s."""
    a, b = tree[e_idx]
    return tree[: e_idx] + tree[e_idx + 1:] + ((a, s), (s, b), (s, t))


def enumerate_topologies(k: int) -> list[tuple]:
    """All full binary tree edge sets on terminals 0..k-1; branch points are k, k+1, ...

    Built by inserting terminals one at a time into every existing edge;
    yields (2k-5)!! trees for k >= 3, one bare edge for k = 2.
    """
    if k < 2:
        raise ValueError("need at least two terminals")
    trees = [((0, 1),)]
    for t in range(2, k):
        trees = [_insert(tree, e_idx, t, k + t - 2)
                 for tree in trees for e_idx in range(len(tree))]
    return trees


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
    BB = (B[:, :, None] * B[:, None, :]).reshape(len(edges), nf * nf)

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
            H = (BB.T @ K.reshape(-1, dim * dim)).reshape(nf, nf, dim, dim)
            H = H.transpose(0, 2, 1, 3).reshape(nf * dim, nf * dim)
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


def _merged_terminals(mu_minus: AtomicMeasure, mu_plus: AtomicMeasure, alpha: float):
    """Net signed atoms mu+ - mu- of a balanced instance; none or at least two."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    net = mu_plus - mu_minus
    if abs(net.total()) > 1e-9 or len(net.masses) == 1:
        raise ValueError("marginals must balance")
    return net


def _tree_key(edges) -> tuple:
    return tuple(sorted((min(a, b), max(a, b)) for a, b in edges))


def _solve_logged(topology: Topology, alpha: float, tol: float,
                  cutoff: float) -> tuple[Topology, float] | None:
    """``_solve_positions``; an uncertified solve is logged and its last iterate kept."""
    try:
        return _solve_positions(topology, alpha, tol, 10000, cutoff)
    except OptimizeError as err:
        _log.warning("topology %s not certified: %s", _tree_key(topology.edges), err)
        return err.best, err.best.cost(alpha)


def _collision_representatives(pos: np.ndarray) -> np.ndarray:
    """Lowest index of the cluster of every vertex, merging chains closer than COLLISION_TOL."""
    n = len(pos)
    close = np.linalg.norm(pos[:, None] - pos[None, :], axis=2) <= COLLISION_TOL
    rep = np.arange(n)
    while True:
        spread = np.where(close, rep, n).min(axis=1)
        if np.array_equal(spread, rep):
            return rep
        rep = spread


def _contracted_path(topology: Topology) -> TrafficPath:
    """Traffic path of a topology with near-coincident vertices contracted.

    The terminals come first in the positions, so a cluster holding one is
    represented by a terminal and the boundary stays exact.
    """
    pos = topology.positions()
    rep = _collision_representatives(pos)
    segs = []
    for (a, b), f in zip(topology.edges, topology.flows()):
        ra, rb = rep[a], rep[b]
        if ra == rb or abs(f) <= FLOW_TOL:
            continue
        if f > 0:
            segs.append((pos[ra], pos[rb], f))
        else:
            segs.append((pos[rb], pos[ra], -f))
    return currents.overlay(segs, dim=topology.dim)


def brute_force_optimal(mu_minus: AtomicMeasure, mu_plus: AtomicMeasure, alpha: float,
                        tol: float = 1e-9) -> TrafficPath:
    """Exhaustive Gilbert-Steiner oracle for instances of at most ORACLE_MAX_ATOMS atoms.

    Every topology not pruned by its lower bound is solved to a certified
    relative gap of tol; larger instances raise OracleRangeError.
    """
    net = _merged_terminals(mu_minus, mu_plus, alpha)
    k = len(net.masses)
    if k == 0:
        dim = mu_minus.dim if mu_minus.points.size else mu_plus.dim
        return currents.empty_path(dim)
    if k > ORACLE_MAX_ATOMS:
        raise OracleRangeError(
            f"instance exceeds oracle bound of {ORACLE_MAX_ATOMS} atoms")
    # every full topology has k - 2 branch points; all start from one
    # spread around the terminals' mean, which breaks their coincidence
    spread = np.random.default_rng(7).standard_normal((max(k - 2, 0), net.dim))
    init = np.mean(net.points, axis=0) + 1e-3 * spread
    best = None
    for edges in enumerate_topologies(k):
        topo = Topology(net.points.copy(), net.masses.copy(), init, edges)
        cutoff = best[0][0] if best is not None else math.inf
        solved = _solve_logged(topo, alpha, tol, cutoff)
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


def _detach(tree: tuple, t: int) -> tuple[tuple, int]:
    """Tree with terminal leaf t and its branch point s spliced out, and s.

    The two other neighbours x, y of s are joined by the last edge (x, y).
    """
    s = next(b if a == t else a for a, b in tree if t in (a, b))
    x, y = (b if a == s else a for a, b in tree if s in (a, b) and t not in (a, b))
    return tuple(e for e in tree if s not in e) + ((x, y),), s


def local_search(mu_minus: AtomicMeasure, mu_plus: AtomicMeasure, alpha: float
                 ) -> TrafficPath:
    """Greedy insertion plus terminal regrafts in the oracle's tree space.

    The merged terminals are inserted one at a time by descending |mass|,
    each into the edge of the current tree whose certified position solve
    costs least; until the last one is in, terminal 0 carries the mass of
    the terminals still missing.  Then, cyclically over the terminals, one
    at a time is detached with its branch point and re-inserted into every
    other edge; the first move that lowers the cost by more than the solve
    tolerance is kept, and the search stops after a full cycle over the
    terminals without one.  Every solve is screened against the cost to beat, and an
    uncertified one logs a warning and keeps its last iterate.  The result
    is contracted like the oracle's, so its boundary is exact.  No
    optimality promise: the tests compare it against the exhaustive
    optimum on oracle-range instances.
    """
    net = _merged_terminals(mu_minus, mu_plus, alpha)
    k = len(net.masses)
    if k == 0:
        return currents.empty_path(net.dim)
    order = np.argsort(-np.abs(net.masses), kind="stable")
    points, masses = net.points[order], net.masses[order]

    def solve(edges, steiner, last, cutoff):
        # terminals after last are not in the tree yet: terminal 0 carries them
        m = masses.copy()
        m[0] += m[last + 1:].sum()
        m[last + 1:] = 0.0
        return _solve_logged(Topology(points, m, steiner, edges), alpha, LOCAL_TOL, cutoff)

    def insertions(edges, pos, t, s, skip=None):
        # t hung from s on every edge but skip, s started at the centroid
        for e_idx, (a, b) in enumerate(edges):
            if e_idx != skip:
                steiner = pos[k:].copy()
                steiner[s - k] = (pos[a] + pos[b] + pos[t]) / 3.0
                yield _insert(edges, e_idx, t, s), steiner

    topo, cost = solve(((0, 1),), np.zeros((max(k - 2, 0), net.dim)), 1, math.inf)
    for t in range(2, k):
        best = None
        for edges, steiner in insertions(topo.edges, topo.positions(), t, k + t - 2):
            solved = solve(edges, steiner, t, best[1] if best else math.inf)
            if solved is not None and (best is None or solved[1] < best[1]):
                best = solved
        topo, cost = best
    stale = 0  # terminals in a row whose regrafts found no improvement
    t = 0
    while k > 3 and stale < k:
        edges, s = _detach(topo.edges, t)
        stale += 1
        for cand, steiner in insertions(edges, topo.positions(), t, s, skip=len(edges) - 1):
            solved = solve(cand, steiner, k - 1, cost)
            if solved is not None and solved[1] < (1.0 - LOCAL_TOL) * cost:
                (topo, cost), stale = solved, 0
                break
        t = (t + 1) % k
    return dcmp.remove_cycles(_contracted_path(topo))
