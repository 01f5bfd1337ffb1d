"""Gilbert-Steiner optimization: exact desk-scale oracle and local search.

Both solvers search full binary tree topologies over the merged terminal
atoms, built by the classical edge-insertion recursion: the oracle
enumerates all (2k-5)!! trees for k terminals (at most ORACLE_MAX_ATOMS),
local search walks a neighbourhood of them.  On a tree the edge flows are
forced by mass balance; positions of the auxiliary branch points are then a
convex sum of weighted Euclidean norms.  An edge without flow gets weight
0, so every full tree on k terminals has the same shape, and one position
kernel, ``_minimize_length``, solves a whole stack of them at once, each
problem with its own terminals and a group id naming the alternatives it
is one of: the oracle solves every topology of every instance with the
same atom count in one batch, one group per instance (a stability trial's
limit and all its levels share one), each insertion scan of local search
is a batch of one group, and its regraft scans go in windows, one batch
of consecutive scans with one group per scan.  Both solvers hand the
kernel arrays through ``_solve_trees``: the oracle takes every tree's
edges, key and leaf-stripping order from arrays cached per atom count k,
local search stacks the candidates of a scan or a window, and the flows
come from replaying the stripping orders on whole columns of masses.
Both solvers end on those arrays too: the winning tree's positions, edges
and replayed flows go straight to ``_tree_answer``, so no solve builds a
Topology (only ``optimize_positions`` does) or replays a flow twice; the
oracle hands that contracted tree back next to its path (``SolvedTree``).
A tree left uncertified is logged and kept at its last iterate, scored at
its true cost.  In every problem the free vertices move jointly by damped
Newton steps on the smoothed objective
sum_e w_e sqrt(|x_a - x_b|^2 + eps^2), with eps cut stage by stage from a
tenth of the radius R of the terminals; each iteration takes one batched
step for every live problem.
After each of its stages a problem's dual y_e = w_e d_e / r_e gives a
rigorous lower bound: on collapsing edges y is re-solved as the min-norm
balance at the free vertices (one solve with the grounded Laplacian of
those edges, no SVD) and clipped to |y_e| <= w_e, and any remaining
imbalance g is charged R |g|, valid because an optimum lies in the
terminals' convex hull.  A problem is finished once its certified
relative gap is within tol, and dropped as soon as its lower bound
exceeds the least cost any problem of its group has reached at a stage
end, which bounds the group optimum from above (branch-and-bound in the
spirit of Smith, Algorithmica 1992).  A caller
that needs only a group's best tree, not its cost, may have the last
problem left in a group returned uncertified once all others are dropped.
The duals are kept: for every certified or pruned problem the kernel
returns the y of its best bound (an uncertified or decided one has none),
and the oracle hands them on with every tree's edges as its answer's
Certificate, which ``certificate.checked_lower_bound``, sharing no code
with the kernel, turns into a bound on the optimum; ``is_optimal`` and the
stability trials judge optimality by that checked bound.
Degenerate optima are reached through collisions (branch points
landing on terminals or each other are contracted at 1e-7) and through
zero-flow edges, which cost nothing and realize disconnected optima
inside a tree topology, so forests, pass-through atoms and atom
splittings need no separate enumeration or move.

Local search follows the tree-space heuristics of Bernot, Caselles and
Morel (Optimal Transportation Networks, LNM 1955): terminals are inserted
greedily, heaviest first, each into the edge that solves cheapest, and the
tree is then improved by terminal regrafts, each taking the best of its
scan.  An insertion before the last needs only its best tree: its scan
stops once bounds have dropped every other candidate.  The last insertion
and every regraft candidate are scored by the certified solve.  Regraft
scans are solved speculatively, in windows of consecutive terminals.

alpha = 0 is accepted as the pure Steiner-tree mode: every edge with
nonzero flow gets unit weight, which is the Fermat-point regime, and
``currents.alpha_mass`` reports the plain length.
"""

from __future__ import annotations

import collections
import functools
import itertools
import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import certificate, currents, decomposition as dcmp
from .currents import AtomicMeasure, TrafficPath

COLLISION_TOL = 1e-7
FLOW_TOL = 1e-12
ORACLE_MAX_ATOMS = 6
# default certified relative gap of every topology the oracle keeps
ORACLE_TOL = 1e-9
# certified relative gap of every local search solve, and the least relative
# gain that counts as an improving move
LOCAL_TOL = 1e-10
# most candidate trees in one window of local search's regraft scans, which
# holds at least one scan of 2k - 6: this bounds the position batch's memory
# (at k = 12, a window of two scans peaks at about 0.7 MB under tracemalloc)
REGRAFT_WINDOW_PROBLEMS = 40
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

    def flows(self) -> list[float]:
        """Signed flow per edge (positive in the a -> b direction), forced by balance."""
        n = self.n_terminals + len(self.steiner_points)
        order = np.array(_strip_order(self.edges, n), dtype=int).reshape(1, -1, 4)
        masses = np.asarray(self.terminal_masses, dtype=float)[None]
        return _tree_flows(order, masses, n)[0, 0].tolist()


def _tree_cost(pos: np.ndarray, edges, flows, alpha: float) -> float:
    """Weighted length of a tree at positions pos: sum_e |f_e|^alpha |x_a - x_b|."""
    total = 0.0
    for (a, b), w in zip(edges, _edge_weights(flows, alpha).tolist()):
        total += w * float(np.linalg.norm(pos[a] - pos[b]))
    return total


def _strip_order(edges, n: int) -> list[tuple]:
    """Leaf-stripping order of a forest on vertices 0..n-1, one step per edge.

    Step (v, u, e, head) strips leaf v off edge e to its neighbour u; head
    says whether v is the edge's second end.  The flow on e is then the
    balance accumulated at v (negated when v is the tail), which is added
    to u's.  Leaves are taken last found first.
    """
    # deg[v] counts v's edges not yet stripped and lone[v] is the XOR of
    # their indices, which is the index of the one left once v is a leaf
    deg, lone = [0] * n, [0] * n
    for e, (a, b) in enumerate(edges):
        deg[a] += 1
        deg[b] += 1
        lone[a] ^= e
        lone[b] ^= e
    order = []
    queue = [v for v in range(n) if deg[v] == 1]
    while queue:
        v = queue.pop()
        if deg[v] == 0:  # the last vertex of its tree
            continue
        e = lone[v]
        a, b = edges[e]
        u = b if a == v else a
        order.append((v, u, e, v == b))
        deg[u] -= 1
        lone[u] ^= e
        if deg[u] == 1:
            queue.append(u)
    return order


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


class _Trees(NamedTuple):
    """Every full tree on k terminals as read-only arrays, in enumeration order."""

    edges: np.ndarray  # (T, 2k-3, 2) vertex indices
    keys: tuple  # _tree_key of each tree
    order: np.ndarray  # (T, 2k-3, 4) steps (v, u, e, head) of ``_strip_order``


@functools.lru_cache(maxsize=None)
def _trees(k: int) -> _Trees:
    """The trees of ``enumerate_topologies(k)``; built on first use, then shared."""
    trees = enumerate_topologies(k)
    flat = itertools.chain.from_iterable
    edges = np.fromiter(flat(flat(trees)), dtype=int).reshape(len(trees), -1, 2)
    order = np.fromiter(flat(flat(_strip_order(tree, 2 * k - 2) for tree in trees)),
                        dtype=int).reshape(len(trees), -1, 4)
    edges.flags.writeable = order.flags.writeable = False
    return _Trees(edges, tuple(map(_tree_key, trees)), order)


def _tree_flows(order: np.ndarray, masses: np.ndarray, n: int) -> np.ndarray:
    """Signed edge flows (G, T, E) of T trees on vertices 0..n-1, per mass row (G, k).

    The first k vertices are the terminals and order (T, E, 4) holds each
    tree's ``_strip_order`` steps.  They are replayed on whole columns:
    every flow is the balance its tree's stripping accumulates, added in
    its order, however many trees or rows are stacked.
    """
    T, n_edges = order.shape[:2]
    ib = np.zeros((len(masses), T, n))
    ib[:, :, :masses.shape[1]] = masses[:, None]
    flows = np.empty((len(masses), T, n_edges))
    rows = np.arange(T)
    for v, u, e, head in order.transpose(1, 2, 0):
        x = ib[:, rows, v]
        flows[:, rows, e] = np.where(head, x, -x)
        ib[:, rows, u] += x
    return flows


def _reachable(linked: np.ndarray) -> np.ndarray:
    """Transitive closure of symmetric, reflexive adjacency matrices (..., n, n), as 0/1
    floats: each squaring doubles the length of the paths it covers."""
    closure = linked.astype(float)
    for _ in range(max(linked.shape[-1] - 2, 0).bit_length()):
        closure = np.minimum(closure @ closure, 1.0)
    return closure


def _min_norm_duals(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """pinv(M) @ rhs for stacked signed incidences M (S, nf, E) of edge sets at free vertices.

    Each column of M has at most one +1 and one -1 entry: an edge between
    two free vertices, or one between a free vertex and an anchor (which
    has no row).  L = M M^T is then the Laplacian of the edges' forest
    grounded at the anchors, whose null space is spanned by the indicators
    of the components with no anchor (a free vertex on no edge is one; the
    components come from the closure of L's pattern), and P, the
    orthogonal projector onto it, gives pinv(L) = (L + P)^-1 - P.
    As M^T P = 0, pinv(M) = M^T pinv(L) = M^T (L + P)^-1: one small solve
    per problem instead of an SVD.
    """
    L = M @ M.transpose(0, 2, 1)
    same = _reachable((L != 0) | np.eye(M.shape[1], dtype=bool))
    # a row sum of L counts the vertex's edges to anchors
    anchored = (same @ L.sum(axis=2)[..., None])[..., 0] > 0.5
    P = same * np.where(anchored, 0.0, 1.0 / same.sum(axis=2))[..., None]
    return M.transpose(0, 2, 1) @ np.linalg.solve(L + P, rhs)


def _armijo(X, d, r, eps, w, lam2, g, P, dP, t=None) -> np.ndarray:
    """Armijo test of the steps t * P, dP = B P, from the iterates X of the
    problems g of a stacked state (X, d, r, eps, w, lam2), given as indices
    or a slice of all of them, which needs no gathers; moves those with a
    passing t by the first one, updating X, d and r in place, and returns
    the mask of the rest.  Without t the full step alone is tried, with no
    t axis: 1.0 * P is exact, so it moves exactly as t = [1.0] does.
    """
    # f(X + tP) - f(X) for every t, written so that it stays exact far
    # below the rounding of f itself
    dg, rg, e2, step = d[g], r[g], (eps[g] * eps[g])[:, None], dP
    bar = -0.25 * lam2[g] if t is None else -0.25 * t * lam2[g][:, None]
    if t is not None:  # every t along a second axis
        step, dg, rg, e2 = t[None, :, None, None] * dP[:, None], dg[:, None], rg[:, None], \
            e2[..., None]
    d_new = dg + step
    r_new = np.sqrt(np.einsum("...j,...j->...", d_new, d_new) + e2)
    change = np.einsum("t...e,te->t...", np.einsum("...j,...j->...", step, dg + d_new)
                       / (rg + r_new), w[g])
    passed = change <= bar
    ok = passed if t is None else passed.any(axis=1)
    at = (ok,) if t is None else (ok, passed.argmax(axis=1)[ok])
    if t is None and isinstance(g, slice) and ok.all():  # no gathers
        X += P
        d[...], r[...] = d_new, r_new
        return ~ok
    moved = np.arange(len(X))[g][ok]
    X[moved] += P[ok] if t is None else t[at[1]][:, None, None] * P[ok]
    d[moved], r[moved] = d_new[at], r_new[at]
    return ~ok


def _minimize_length(pos: np.ndarray, edges: np.ndarray, w: np.ndarray, anchors: np.ndarray,
                     tol: float, max_iters: int, cutoff: float = math.inf, *,
                     groups: np.ndarray, decide: bool = False,
                     tally: collections.Counter | None = None) -> list:
    """Stacked smoothed Newton solve of sum_e w_e |x_a - x_b|, stopped on certified gaps.

    Solves T problems of one shape together: positions (T, n, d), edges
    (T, E, 2), weights (T, E) >= 0, anchors (T, k, d) and integer group ids
    (T,) >= 0.  In every problem the first k vertices are its anchors and
    stay put, and an optimum lies in their hull, so the center, radius R,
    smoothing floor and starting eps are per problem; the other vertices
    move, and one that touches no edge of positive weight keeps its place.
    Problems of one group are alternatives for one instance: their best cost
    bounds the group's optimum, and says nothing about any other group's.
    Each iteration runs one batched Newton step for every live problem: the
    stacked Hessians go to one ``np.linalg.solve``, and the Armijo line
    search takes, per problem, the first of t = 1, 1/2, ..., 2^-19 that
    passes (the full step is tried for all, t = 1/2 ... 1/16 at once for
    the problems it fails, and the shorter ones at once for those that
    fail these too).  Each problem keeps its own smoothing eps and ends its
    stages on its own.

    Returns one entry per problem, and the duals (T, E, d).  An entry is
    (positions, cost) once cost - lower bound <= tol * cost; None once its
    lower bound exceeds the smaller of cutoff and the least cost any
    problem of its group reached at a stage end (every such cost bounds the
    group optimum from above, so the best problem of a group is never
    dropped); or an OptimizeError carrying the last positions when
    max_iters Newton steps do not certify the gap, or when steps at the
    smallest smoothing stop making progress.  With decide, a problem is
    also returned as (positions, cost), its true cost at its current
    iterate with no certificate, as soon as every other problem of its
    group has been dropped: each of those has its optimum above a cost its
    group reached, so it holds the group's optimum.  The duals of a
    certified or pruned problem are the y, |y_e| <= w_e, of its best lower
    bound sum_e y_e . D0c_e - R sum_v |g_v| (written at each stage end that
    raised it; y_e = w_e d_e / |d_e| for a problem solved as it stands);
    an uncertified or decided problem has no certificate, and NaN duals.
    A tally, when given, adds up the batch's counts of certified, pruned,
    uncertified and decided problems and its Newton iterations.
    """
    T, n, dim = pos.shape
    k, n_edges = anchors.shape[1], edges.shape[1]
    nf = n - k
    center = anchors.mean(axis=1)
    R = np.max(np.linalg.norm(anchors - center[:, None], axis=2), axis=1)
    # edge vectors d = B @ X + D0 over the free positions X = pos[:, k:]
    free_end = edges >= k
    B = np.zeros((T, n_edges, nf))
    for side, sign in ((0, 1.0), (1, -1.0)):
        t_i, e_i = np.nonzero(free_end[..., side])
        B[t_i, e_i, edges[t_i, e_i, side] - k] += sign
    ends = np.where(free_end[..., None], 0.0, pos[np.arange(T)[:, None, None], edges])
    D0 = ends[:, :, 0] - ends[:, :, 1]
    fixed_sign = (~free_end[..., 0]).astype(float) - (~free_end[..., 1]).astype(float)
    D0c = D0 - fixed_sign[..., None] * center[:, None]
    # a free vertex on no weighted edge gets an identity block and stays put;
    # a problem whose free vertices all do so is solved as it stands
    touched = np.einsum("tef,te->tf", np.abs(B), (w > 0).astype(float)) > 0
    out: list = [None] * T
    duals = np.full((T, n_edges, dim), np.nan)
    for i in np.flatnonzero(~touched.any(axis=1)):
        norm = np.linalg.norm(D0[i], axis=1)
        out[i] = pos[i].copy(), float(w[i] @ norm)
        duals[i] = np.divide(w[i], norm, out=np.zeros(n_edges), where=norm > 0)[:, None] * D0[i]
    live = np.flatnonzero(touched.any(axis=1))
    counts = {"certified": T - len(live), "pruned": 0, "uncertified": 0, "decided": 0}
    eye = np.eye(dim)[:, :, None, None]
    ts = 0.5 ** np.arange(20)
    diag = np.arange(nf * dim)
    incumbent = np.full(int(groups.max()) + 1, math.inf)  # least stage-end cost per group
    unpruned = np.bincount(groups)  # problems per group not pruned yet
    # per live problem: constants, then iterate state; rows follow live
    B, D0, D0c, w, R, grp = B[live], D0[live], D0c[live], w[live], R[live], groups[live]
    floor = SMOOTH_FLOOR * R
    # B^T, and B axis first (nf, m, E) for the Hessian's planes
    Bt, BT = B.transpose(0, 2, 1), np.ascontiguousarray(B.transpose(2, 0, 1))
    inert = np.repeat(~touched[live], dim, axis=1).astype(float)
    has_inert = inert.any()  # else the diagonal add is skipped
    scale = w.sum(axis=1)
    X = pos[live, k:].copy()
    eps = SMOOTH_START * R
    end_at = STAGE_DECREMENT * scale * eps * eps / R  # stage-end threshold, set as eps is cut
    steps = np.zeros(len(live), dtype=int)
    last_eps, last_X = np.full(len(live), np.nan), X.copy()  # previous stage end
    lower_best = np.full(len(live), -math.inf)

    def positions(i, Xi):
        p = pos[i].copy()
        p[k:] = Xi
        return p

    def edge_vectors(sel, X, eps):
        """Edge vectors of problems sel at X, or at a stack (..., len(sel), nf, d)
        of iterates, and their smoothed lengths r."""
        d = B[sel] @ X + D0[sel]
        return d, np.sqrt(np.einsum("...j,...j->...", d, d) + (eps * eps)[:, None])

    def lower_bound(Bt, D0c, R, y):
        # valid for any y with |y_e| <= w_e: sum_e y_e . d_e <= cost at every
        # point, and the imbalance g at a free vertex x_v is charged R |g_v|
        # because an optimal x_v lies within R of center
        g = Bt @ y
        return (y * D0c).sum(axis=(1, 2)) - R * np.linalg.norm(g, axis=2).sum(axis=1)

    def bounds(sel):
        """Costs of problems sel, lower bounds on their optima and the duals y
        that give them, from y_e = w_e d_e / r_e."""
        Bt_s, D0c_s, w_s, R_s, eps_s = Bt[sel], D0c[sel], w[sel], R[sel], eps[sel]
        d = B[sel] @ X[sel] + D0[sel]
        norm = np.linalg.norm(d, axis=2)
        y = (w_s / np.sqrt(norm * norm + (eps_s * eps_s)[:, None]))[..., None] * d
        lower = lower_bound(Bt_s, D0c_s, R_s, y)
        short = (norm < np.sqrt(eps_s * R_s)[:, None]) & (w_s > 0)
        has = np.flatnonzero(short.any(axis=1))
        if len(has):
            # on edges that are collapsing d/r is rounding noise: take their y
            # as the min-norm solution of the balance at the free vertices,
            # clipped back into the balls |y_e| <= w_e
            Bt_h, short, y_has = Bt_s[has], short[has], y[has]
            rhs = -(Bt_h @ np.where(short[..., None], 0.0, y_has))
            y_short = _min_norm_duals(Bt_h * short[:, None, :], rhs)
            excess = np.linalg.norm(y_short, axis=2) / np.where(short, w_s[has], 1.0)
            y_short /= np.maximum(excess, 1.0)[..., None]
            y_has = np.where(short[..., None], y_short, y_has)
            lower_has = lower_bound(Bt_h, D0c_s[has], R_s[has], y_has)
            up = lower_has > lower[has]
            rows = has[up]
            lower[rows], y[rows] = lower_has[up], y_has[up]
        return np.einsum("te,te->t", w_s, norm), lower, y

    d, r = edge_vectors(slice(None), X, eps)
    iterations = 0
    while len(live):
        iterations += 1
        m = len(live)
        u = w / r
        grad = (Bt @ (u[..., None] * d)).reshape(m, nf * dim)
        # Hessian of one smoothed norm: w (I - d d^T / r^2) / r, and H = B^T (B (x) K)
        # in one product, rows (vertex, axis) and columns (axis, vertex, axis).
        # K and B (x) K are built axis first, (dim, ..., m, E), so that every
        # product runs over whole (m, E) planes, and are released before the
        # solve: the transients of a Newton step are the batch's memory peak
        dT = np.ascontiguousarray(d.transpose(2, 0, 1))
        K = u * (eye - dT[:, None] * dT[None, :] / (r * r))
        KB = K[:, None] * BT[None, :, None]
        del dT, K
        H = (Bt @ KB.reshape(-1, m, n_edges).transpose(1, 2, 0)).reshape(m, nf * dim, nf * dim)
        del KB
        if has_inert:
            H[:, diag, diag] += inert
        p = -np.linalg.solve(H, grad[..., None])[..., 0]
        del H
        lam2 = -np.einsum("ti,ti->t", grad, p)  # squared Newton decrements
        ended = lam2 <= end_at
        go = np.flatnonzero(~ended & (steps < max_iters))
        if len(go):
            g = slice(None) if len(go) == m else go
            steps[g] += 1
            P = p[g].reshape(-1, nf, dim)
            dP = B[g] @ P
            # the full step first; the problems it fails try t = 1/2 ... 1/16 at
            # once, and those that fail these too every shorter t
            rest = np.flatnonzero(_armijo(X, d, r, eps, w, lam2, g, P, dP))
            for chunk in (ts[1:5], ts[5:]):
                if len(rest):
                    rest = rest[_armijo(X, d, r, eps, w, lam2, go[rest], P[rest], dP[rest],
                                        chunk)]
            if len(go) == m and not len(rest):
                continue  # no problem ended its stage or ran out of steps
            ended[go[rest]] = True  # no progress at this smoothing
        stuck = ~ended  # out of steps: neither stepped nor ended
        stuck[go] = False
        done, pruned = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
        se = np.flatnonzero(ended)
        if len(se):
            cost, lower, y = bounds(se)
            np.minimum.at(incumbent, grp[se], cost)
            up = lower > lower_best[se]
            rows = se[up]
            lower_best[rows] = lower[up]
            duals[live[rows]] = y[up]
            certified = cost - lower <= tol * cost
            for i, c, lo in zip(se[certified], cost[certified], lower[certified]):
                if lo <= cutoff:
                    out[live[i]] = positions(live[i], X[i]), float(c)
                    counts["certified"] += 1
                else:
                    counts["pruned"] += 1
                    unpruned[grp[i]] -= 1
                done[i] = True
            # bounds and incumbents move only at stage ends, and every problem
            # they prune leaves the batch at once, so only here can one go
            pruned = ~done & (lower_best > np.minimum(cutoff, incumbent[grp]))
            counts["pruned"] += int(pruned.sum())
            np.subtract.at(unpruned, grp[pruned], 1)
            if decide:
                # every other problem of its group has an optimum above the
                # group's incumbent, so this one holds the group's optimum
                won = np.flatnonzero(~done & ~pruned & (unpruned[grp] == 1))
                if len(won):
                    c_won = np.einsum("te,te->t", w[won],
                                      np.linalg.norm(B[won] @ X[won] + D0[won], axis=2))
                    for i, c in zip(won, c_won):
                        out[live[i]] = positions(live[i], X[i]), float(c)
                    duals[live[won]] = np.nan
                    done[won] = True
                    counts["decided"] += len(won)
            rest = ~(done | pruned)[se]
            at_floor = eps[se] <= floor[se]
            stuck[se[rest & at_floor]] = True
            adv = se[rest & ~at_floor]
            if len(adv):
                new_eps = np.maximum(eps[adv] / SMOOTH_FACTOR, floor[adv])
                prev_eps, prev_X = last_eps[adv], last_X[adv]
                last_eps[adv], last_X[adv] = eps[adv], X[adv]
                # the smoothed minimizer is nearly affine in eps once eps is
                # small: extrapolate from the last two stages when that helps
                has = ~np.isnan(prev_eps)
                if has.any():
                    a, e0, e1 = adv[has], eps[adv[has]], new_eps[has]
                    guess = X[a] + ((e1 - e0) / (prev_eps[has] - e0))[:, None, None] \
                        * (prev_X[has] - X[a])
                    (d_g, d_x), (r_g, r_x) = edge_vectors(a, np.stack((guess, X[a])), e1)
                    better = np.einsum("te,te->t", w[a], r_g) < np.einsum("te,te->t", w[a], r_x)
                    X[a[better]] = guess[better]
                    d[a] = np.where(better[:, None, None], d_g, d_x)
                    r[a] = np.where(better[:, None], r_g, r_x)
                eps[adv] = new_eps
                end_at[adv] = STAGE_DECREMENT * scale[adv] * eps[adv] * eps[adv] / R[adv]
                fresh = adv[~has]
                if len(fresh):
                    d[fresh], r[fresh] = edge_vectors(fresh, X[fresh], eps[fresh])
        for i in np.flatnonzero(stuck & ~(done | pruned)):
            out[live[i]] = OptimizeError("position stage did not certify its gap",
                                         positions(live[i], X[i]))
            duals[live[i]] = np.nan
            counts["uncertified"] += 1
            done[i] = True
        keep = ~(done | pruned)
        if not keep.all():
            live = live[keep]
            B, Bt, D0, D0c, w = B[keep], Bt[keep], D0[keep], D0c[keep], w[keep]
            BT = np.ascontiguousarray(B.transpose(2, 0, 1))
            R, floor, grp = R[keep], floor[keep], grp[keep]
            inert, scale, X, eps, steps = inert[keep], scale[keep], X[keep], eps[keep], steps[keep]
            end_at, last_eps, last_X = end_at[keep], last_eps[keep], last_X[keep]
            lower_best, d, r = lower_best[keep], d[keep], r[keep]
    _log.debug("position batch of %d: %d certified, %d pruned, %d uncertified, %d decided, "
               "%d Newton iterations, %d groups", T, counts["certified"], counts["pruned"],
               counts["uncertified"], counts["decided"], iterations, len(set(groups.tolist())))
    if tally is not None:
        tally.update(counts, iterations=iterations)
    return out, duals


def _check_tol(tol: float) -> None:
    """Reject a gap no certificate can meet: a negative one, or one that is not finite."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, not {tol!r}")


def _edge_weights(flows: np.ndarray, alpha: float) -> np.ndarray:
    """Cost weight |f|^alpha of every edge flow, 1 at alpha = 0, and 0 without flow."""
    th = np.abs(flows)
    return np.where(th > FLOW_TOL, th ** alpha, 0.0)


def _solve_trees(pos: np.ndarray, edges: np.ndarray, flows: np.ndarray, k: int, alpha: float,
                 tol: float, groups: np.ndarray, cutoff: float = math.inf,
                 decide: bool = False, tally: collections.Counter | None = None) -> list:
    """Position stage of stacked trees of the same shape, one ``_minimize_length`` batch.

    pos (T, n, d) starts every tree with its k terminals first, edges
    (T, E, 2) and signed flows (T, E) give its weights, and groups (T,)
    name its instance.  Returns the entries, (positions, cost) or None for
    a pruned tree, and the kernel's duals (T, E, d).  A tree left
    uncertified logs a warning and is kept at its last iterate, scored at
    its true cost; its duals are NaN.  tally goes to the kernel.
    """
    out, duals = _minimize_length(pos, edges, _edge_weights(flows, alpha), pos[:, :k], tol,
                                  10000, cutoff, groups=groups, decide=decide, tally=tally)
    for i, res in enumerate(out):
        if isinstance(res, OptimizeError):
            _log.warning("instance %d topology %s not certified: %s", groups[i],
                         _tree_key(edges[i].tolist()), res)
            out[i] = res.best, _tree_cost(res.best, edges[i], flows[i], alpha)
    return out, duals


def optimize_positions(topology: Topology, alpha: float, tol: float = 1e-10,
                       max_iters: int = 10000) -> tuple[Topology, float]:
    """Convex position stage for a fixed topology: minimize the weighted length.

    All branch points move jointly.  Raises OptimizeError (with the best
    iterate attached) if the certified relative gap is not within tol after
    max_iters Newton steps.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    _check_tol(tol)
    k, pos = topology.n_terminals, topology.positions()[None]
    w = _edge_weights(np.array([topology.flows()], dtype=float), alpha)
    (res,), _ = _minimize_length(pos, np.array([topology.edges], dtype=int), w, pos[:, :k],
                                 tol, max_iters, groups=np.zeros(1, int))
    if isinstance(res, OptimizeError):
        raise OptimizeError(str(res), replace(topology, steiner_points=res.best[k:]))
    return replace(topology, steiner_points=res[0][k:]), res[1]


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


def _collision_representatives(pos: np.ndarray) -> np.ndarray:
    """Lowest index of the cluster of every vertex, merging chains closer than COLLISION_TOL."""
    close = np.linalg.norm(pos[:, None] - pos[None, :], axis=2) <= COLLISION_TOL
    return _reachable(close).argmax(axis=1)


class SolvedTree(NamedTuple):
    """The tree an answer path is drawn from: the path is the current
    sum_e flows[e] [positions[a], positions[b]] over the edges (a, b)."""

    positions: np.ndarray  # (n, d) terminals first, near-coincident vertices contracted
    edges: np.ndarray  # (E, 2)
    flows: np.ndarray  # (E,) signed, 0 on an edge the path drops


def _tree_answer(pos: np.ndarray, edges, flows: np.ndarray
                 ) -> tuple[TrafficPath, SolvedTree | None]:
    """Acyclic traffic path of a solved tree with near-coincident vertices
    contracted, and the SolvedTree it is the current of; None in place of
    the tree when cancelling cycles changed that current.

    pos holds the terminals first, so a cluster holding one is represented
    by a terminal and the boundary stays exact; edges (E, 2) carry the
    signed flows (E,) of the tree.
    """
    rep, edges = _collision_representatives(pos), np.asarray(edges)
    flows = np.where(np.abs(flows) > FLOW_TOL, flows, 0.0)
    segs = [(pos[a], pos[b], f) if f > 0 else (pos[b], pos[a], -f)
            for (a, b), f in zip(rep[edges].tolist(), flows.tolist()) if a != b and f != 0.0]
    overlaid = currents.overlay(segs, dim=pos.shape[1])
    tree = SolvedTree(pos[rep], edges, flows) if dcmp.is_acyclic(overlaid) else None
    return dcmp.remove_cycles(overlaid), tree


def brute_force_optimal(mu_minus: AtomicMeasure, mu_plus: AtomicMeasure, alpha: float,
                        tol: float = ORACLE_TOL) -> TrafficPath:
    """Exhaustive Gilbert-Steiner oracle for instances of at most ORACLE_MAX_ATOMS atoms.

    Every topology not pruned by its lower bound is solved to a certified
    relative gap of tol; larger instances raise OracleRangeError.
    """
    ((t, _, _),) = brute_force_many([(mu_minus, mu_plus)], alpha, tol)
    return t


class Certificate(NamedTuple):
    """Dual certificate of one oracle answer: the merged atoms it solved,
    every full tree on them and each tree's duals y (``_minimize_length``);
    ``certificate.checked_lower_bound`` turns it into a bound on the optimum."""

    points: np.ndarray  # (k, d) terminal i of every tree is atom i
    masses: np.ndarray  # (k,) signed, sinks positive
    edges: np.ndarray  # (T, 2k-3, 2)
    duals: np.ndarray  # (T, 2k-3, d), NaN for a tree left uncertified


def brute_force_many(instances: list, alpha: float, tol: float = ORACLE_TOL) -> list:
    """``brute_force_optimal`` of every (mu_minus, mu_plus) pair of instances,
    with its answer's Certificate and SolvedTree: (path, certificate, tree)
    per instance.  The certificate and the tree are None for an instance
    without atoms, and the tree is None where ``_tree_answer`` gives none.

    Every instance is checked against the oracle range before any is
    solved; the trees of all instances with the same merged atom count go
    to one position batch, one group per instance.
    """
    _check_tol(tol)
    nets = [_merged_terminals(mm, mp, alpha) for mm, mp in instances]
    if any(len(net.masses) > ORACLE_MAX_ATOMS for net in nets):
        raise OracleRangeError(
            f"instance exceeds oracle bound of {ORACLE_MAX_ATOMS} atoms")
    out = []
    for (mm, mp), best in zip(instances, _oracle_topologies(nets, alpha, tol)):
        if best is None:
            out.append((currents.empty_path(mm.dim if mm.points.size else mp.dim), None, None))
        else:
            path, tree = _tree_answer(*best[:3])
            out.append((path, best[4], tree))
    return out


def _oracle_topologies(nets: list, alpha: float, tol: float) -> list:
    """Per net, the (positions, edges, flows, cost) of least (cost, tree key)
    over every full topology on its atoms and the net's Certificate; None
    for a net without atoms.

    Every full topology on k atoms has k - 2 branch points; all start from
    one spread around their net's mean, which breaks their coincidence.  The
    trees of all nets with the same atom count and dimension form one batch,
    one group per net, built from the arrays of ``_trees(k)``; a winner's
    flows are its row of the batch's replay, and a net's certificate holds
    its rows of the batch's duals.
    """
    batches: dict = {}
    for i, net in enumerate(nets):
        if len(net.masses):
            batches.setdefault((len(net.masses), net.dim), []).append(i)
    best = [None] * len(nets)
    for (k, dim), members in batches.items():
        trees = _trees(k)
        T = len(trees.keys)
        spread = 1e-3 * np.random.default_rng(7).standard_normal((max(k - 2, 0), dim))
        starts = np.stack([np.vstack([nets[i].points, np.mean(nets[i].points, axis=0) + spread])
                           for i in members])
        pos = np.repeat(starts, T, axis=0)
        flows = _tree_flows(trees.order, np.stack([nets[i].masses for i in members]), 2 * k - 2)
        solved, duals = _solve_trees(pos, np.tile(trees.edges, (len(members), 1, 1)),
                                     flows.reshape(len(pos), -1), k, alpha, tol,
                                     np.repeat(members, T))
        for j, i in enumerate(members):
            group = solved[j * T:(j + 1) * T]
            t = min((t for t, res in enumerate(group) if res is not None),
                    key=lambda t: (group[t][1], trees.keys[t]))
            cert = Certificate(nets[i].points, nets[i].masses, trees.edges,
                               duals[j * T:(j + 1) * T])
            best[i] = group[t][0], trees.edges[t], flows[j, t], group[t][1], cert
    return best


@dataclass(frozen=True)
class OptimalityReport:
    optimal: bool
    gap: float  # path_cost - lower_bound
    path_cost: float
    oracle_cost: float
    lower_bound: float  # checked dual bound on the optimum; -inf when it fails to check

    def __bool__(self) -> bool:
        return self.optimal


def is_optimal(t: TrafficPath, alpha: float, tol: float = 1e-6) -> OptimalityReport:
    """Compare a path against the oracle on its own boundary.

    The oracle's certificate on that boundary goes to
    ``certificate.checked_lower_bound``; the path is optimal when its cost
    exceeds that checked bound by at most tol.  A certificate that does not
    check (an uncertified tree) is logged and gives the bound -inf.  tol
    bounds the gap of the verdict only; the oracle itself always runs at
    its default certified gap.
    """
    bnd = currents.boundary(t)
    ((opt, cert, _),) = brute_force_many([(bnd.negative_part(), bnd.positive_part())], alpha)
    cost, oracle_cost = currents.alpha_mass(t, alpha), currents.alpha_mass(opt, alpha)
    try:
        lower = 0.0 if cert is None else certificate.checked_lower_bound(cert, alpha)
    except certificate.CertificateError as exc:
        _log.warning("oracle certificate rejected: %s", exc)
        lower = -math.inf
    gap = cost - lower
    return OptimalityReport(gap <= tol, gap, cost, oracle_cost, lower)


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
    each into the edge of the current tree whose position solve costs
    least; until the last one is in, terminal 0 carries the mass of the
    terminals still missing.  An insertion before the last ends its scan as
    soon as bounds have dropped every candidate but one, and keeps that
    one's iterate uncertified; the last insertion is certified.  Then,
    cyclically over the terminals, one at a time is detached with its
    branch point and re-inserted into every other edge, each candidate
    certified; the best of these moves is kept when it lowers the cost by
    more than the solve tolerance.  The search stops after a full cycle
    over the terminals without one, or, once a move has been kept, after
    the k - 1 scans of the other terminals: the moved terminal's own rescan
    cannot improve, as its candidates were dropped or certified no cheaper
    in the scan that moved it, and its old edge costs more.  Each insertion
    scan is one batched position solve of the candidates' arrays.  The
    regraft scans of consecutive terminals, a window, are one batch with a
    group per scan, all cut off at the current cost; a group solves as it
    would alone, so taking the scans in order and discarding those after
    the first move decides exactly as one scan at a time.  A window holds
    one scan after a move and doubles after a window without one, up to
    the scans left and REGRAFT_WINDOW_PROBLEMS candidates.  An uncertified
    solve logs a warning and keeps its last iterate; each search logs its
    counts at DEBUG.  The result is contracted like the oracle's, so its
    boundary is exact.  No optimality promise: the tests compare it against
    the exhaustive optimum on oracle-range instances.
    """
    net = _merged_terminals(mu_minus, mu_plus, alpha)
    k = len(net.masses)
    if k == 0:
        return currents.empty_path(net.dim)
    order = np.argsort(-np.abs(net.masses), kind="stable")
    points, masses = net.points[order], net.masses[order]
    tally = collections.Counter()

    def scan(tree, pos, t, s, skip=None):
        # t hung from s on every edge but skip, s started at the centroid
        hosts = [e for e in range(len(tree)) if e != skip]
        ends = np.array(tree)[hosts]
        starts = np.repeat(pos[None], len(hosts), axis=0)
        starts[:, s] = (pos[ends[:, 0]] + pos[ends[:, 1]] + pos[t]) / 3.0
        return starts, [_insert(tree, e, t, s) for e in hosts]

    def solve(scans, m, cutoff, decide=False):
        # the best (positions, cost, flows, tree) of every scan, None where all
        # its candidates were pruned: one batch, one group per scan
        starts = np.concatenate([starts for starts, _ in scans])
        cands = [c for _, group in scans for c in group]
        groups = np.repeat(np.arange(len(scans)), [len(group) for _, group in scans])
        order = np.array([_strip_order(c, starts.shape[1]) for c in cands])
        flows = _tree_flows(order, m[None], starts.shape[1])[0]
        solved, _ = _solve_trees(starts, np.array(cands), flows, k, alpha, LOCAL_TOL, groups,
                                 cutoff, decide, tally)
        best = [None] * len(scans)
        for res, f, c, g in zip(solved, flows, cands, groups.tolist()):
            if res is not None and (best[g] is None or res[1] < best[g][1]):
                best[g] = (*res, f, c)
        return best

    # the search state: positions, cost, edge flows and edges of the current
    # tree; the last insertion and every regraft scan have all terminals in,
    # so its flows are final, and the one edge of k = 2 carries terminal 1's mass
    pos, flows, tree = np.vstack([points, np.zeros((k - 2, net.dim))]), masses[1:], ((0, 1),)
    for t in range(2, k):
        # terminal 0 carries the terminals not in yet; only the last
        # insertion's cost is compared later: the others need their best
        # tree, not a certified cost
        m = masses.copy()
        m[0] += m[t + 1:].sum()
        m[t + 1:] = 0.0
        (pos, cost, flows, tree), = solve([scan(tree, pos, t, k + t - 2)], m, math.inf,
                                          decide=t < k - 1)
    stale = 0  # terminals in a row whose regrafts found no improvement
    settled = k  # stale scans that end the search
    t, width = 0, 1
    # a detached tree has 2k - 5 edges, and a scan skips the one it joined
    most = max(REGRAFT_WINDOW_PROBLEMS // max(2 * k - 6, 1), 1)
    windows = solved_scans = discarded = moves = 0
    while k > 3 and stale < settled:
        window = [(t + j) % k for j in range(min(width, settled - stale, most))]
        scans = []
        for u in window:
            edges, s = _detach(tree, u)
            scans.append(scan(edges, pos, u, s, skip=len(edges) - 1))
        windows, solved_scans, width = windows + 1, solved_scans + len(window), 2 * width
        for j, (u, solved) in enumerate(zip(window, solve(scans, masses, cost))):
            stale += 1
            if solved is not None and solved[1] < (1.0 - LOCAL_TOL) * cost:
                # the moved terminal's own rescan cannot improve (see above)
                (pos, cost, flows, tree), stale, settled = solved, 0, k - 1
                moves, discarded, width = moves + 1, discarded + len(window) - j - 1, 1
                break
        t = (u + 1) % k
    _log.debug("local search on %d atoms: %d insertion scans, %d regraft windows, "
               "%d regraft scans solved, %d discarded, %d moves accepted, "
               "%d Newton iterations", k, k - 2, windows, solved_scans, discarded,
               moves, tally["iterations"])
    return _tree_answer(pos, tree, flows)[0]
