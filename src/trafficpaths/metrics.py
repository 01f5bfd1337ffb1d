"""Flat norms: exact for atomic 0-currents, grid-relaxed for 1-currents.

The flat norm of a signed atomic measure is the cheapest way to write
it as (remainder) + (boundary of a 1-current): moving a unit of mass
over distance L costs L, leaving it in the remainder costs 1.  That is
a small transportation problem on the bipartite atom graph, with one
dummy atom a side to destroy mass, and it is solved exactly by
successive shortest paths on Python floats, with no LP.

For 1-currents in the plane the flat distance is relaxed onto a square
grid complex: both paths are rasterized to 1-chains (snapped staircase
walks), and the norm min M(t - d s) + M(s) over 2-chains s is an LP in
the face variables.  HiGHS solves that LP, through ``scipy.optimize.milp``
with no integer variable, on the smallest sub-grid whose vertex box
holds the support of the chain: clamping vertex indices to the box maps
every 2-chain s to one no worse, so a minimizer lives there (the grid
form of "flat-norm minimizers lie in the convex hull").  The
rasterization error is reported alongside the value: each segment of
multiplicity theta contributes at most theta * (2h * length + sqrt(2) * h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import LinearConstraint, milp

from . import currents
from .currents import AtomicMeasure, TrafficPath

# how far outside its box a point may lie and still count as on the grid
GRID_SLACK = 1e-9
# supply or demand left at or below this share of the total mass counts as met
TRANSPORT_TOL = 1e-13
# a transport solve gives up after this many rounds per source and sink
# (2 per node sufficed on 4000 random measures of 1-8 atoms a side)
TRANSPORT_ROUNDS = 16


def _transport(supply: list[float], demand: list[float], cost: list[list[float]]) -> float:
    """Least cost of a balanced transportation problem, by successive shortest paths.

    Each round runs Dijkstra from every source with supply left, over the
    reduced costs c_ij + u_i - v_j of the forward arcs (any amount) and
    their negatives on the backward arcs (up to the flow shipped), each
    clipped at 0: rounding then cannot lower a settled label, so the
    predecessors form a tree.  The first sink with demand left that it
    settles ends the path.  Shipping the path's bottleneck along it keeps
    the flow optimal for what it has shipped, and moving every potential
    by its label, capped at the path's, keeps every reduced cost
    non-negative.  A round empties a source, a sink or a backward arc.
    Supply or demand at most TRANSPORT_TOL times the total counts as met,
    because the two totals agree only up to rounding.
    """
    n, m = len(supply), len(demand)
    sup, dem = list(supply), list(demand)
    eps = TRANSPORT_TOL * sum(sup)
    flow = [[0.0] * m for _ in range(n)]
    u, v = [0.0] * n, [0.0] * m
    rounds = TRANSPORT_ROUNDS * (n + m)
    for _ in range(rounds):
        if max(sup) <= eps:
            return sum(f * c for fr, cr in zip(flow, cost) for f, c in zip(fr, cr))
        # node k < n is source k, node k >= n is sink k - n; a source's
        # predecessor is a sink (a backward arc), a sink's is a source
        dist = [0.0 if s > eps else math.inf for s in sup] + [math.inf] * m
        pred = [-1] * (n + m)
        unsettled = list(range(n + m))
        while True:
            k = min(unsettled, key=dist.__getitem__)
            d = dist[k]
            if d == math.inf:
                raise RuntimeError("transport: no sink with demand left is reachable")
            unsettled.remove(k)
            if k < n:
                uk, ck = u[k], cost[k]
                for w in unsettled:
                    if w >= n:
                        dw = d + max(ck[w - n] + uk - v[w - n], 0.0)
                        if dw < dist[w]:
                            dist[w], pred[w] = dw, k
            elif dem[k - n] > eps:
                break
            else:
                j = k - n
                vj = v[j]
                for w in unsettled:
                    if w < n and flow[w][j] > 0.0:
                        dw = d + max(vj - u[w] - cost[w][j], 0.0)
                        if dw < dist[w]:
                            dist[w], pred[w] = dw, k
        # the bottleneck: the sink's demand, each backward arc's flow, the source's supply
        amount = dem[k - n]
        i = pred[k]
        while pred[i] >= 0:
            w = pred[i]
            amount = min(amount, flow[i][w - n])
            i = pred[w]
        amount = min(amount, sup[i])
        sup[i] -= amount
        dem[k - n] -= amount
        w = k
        while w >= 0:
            i = pred[w]
            flow[i][w - n] += amount
            w = pred[i]
            if w >= 0:
                flow[i][w - n] -= amount
        for a in range(n):
            u[a] += min(dist[a], d)
        for b in range(m):
            v[b] += min(dist[n + b], d)
    raise RuntimeError(f"transport: no optimum within {rounds} rounds")


def flat_norm_0(measure: AtomicMeasure) -> float:
    """Flat norm of a signed atomic measure (move at cost distance, destroy at cost 1)."""
    pos = measure.positive_part()
    neg = measure.negative_part()
    n, m = len(pos.masses), len(neg.masses)
    if n == 0 and m == 0:
        return 0.0
    if n == 0:
        return neg.tv()
    if m == 0:
        return pos.tv()
    # balanced transport with one dummy node per side; dummy-dummy is free
    supply = pos.masses.tolist() + [neg.tv()]
    demand = neg.masses.tolist() + [pos.tv()]
    cost = np.ones((n + 1, m + 1))
    # one dot product per pair, as np.linalg.norm takes of a single difference
    # (its axis form sums the squares instead and differs in the last bit)
    diff = pos.points[:, None, None, :] - neg.points[None, :, None, :]
    cost[:n, :m] = np.sqrt((diff @ diff.swapaxes(-1, -2))[..., 0, 0])
    cost[n, m] = 0.0
    return _transport(supply, demand, cost.tolist())


def weak_star_gap(mu_n: AtomicMeasure, mu: AtomicMeasure) -> float:
    """Flat-norm gap between two measures; metrizes weak-* convergence at bounded mass."""
    return flat_norm_0(mu_n - mu)


@dataclass(frozen=True)
class GridComplex:
    """Regular square grid complex on a box, d = 2 only.

    Vertices v(i,j) at (x0 + i h, y0 + j h); horizontal edges run +x,
    vertical edges run +y; face (i,j) has boundary bottom + right - top
    - left, so the boundary of a boundary vanishes identically.
    """

    x0: float
    y0: float
    nx: int
    ny: int
    h: float

    @staticmethod
    def from_box(xmin: float, ymin: float, xmax: float, ymax: float, h: float) -> "GridComplex":
        if not h > 0:
            raise ValueError("grid spacing must be positive")
        nx = max(1, int(math.ceil((xmax - xmin) / h - 1e-9)))
        ny = max(1, int(math.ceil((ymax - ymin) / h - 1e-9)))
        return GridComplex(float(xmin), float(ymin), nx, ny, float(h))

    @property
    def n_hedges(self) -> int:
        return self.nx * (self.ny + 1)

    @property
    def n_vedges(self) -> int:
        return (self.nx + 1) * self.ny

    @property
    def n_edges(self) -> int:
        return self.n_hedges + self.n_vedges

    @property
    def n_faces(self) -> int:
        return self.nx * self.ny

    def hedge(self, i: int, j: int) -> int:
        return j * self.nx + i

    def vedge(self, i: int, j: int) -> int:
        return self.n_hedges + j * (self.nx + 1) + i

    def vertex_point(self, i: int, j: int) -> np.ndarray:
        return np.array([self.x0 + i * self.h, self.y0 + j * self.h])

    def snap(self, p) -> tuple[int, int]:
        i = int(round((float(p[0]) - self.x0) / self.h))
        j = int(round((float(p[1]) - self.y0) / self.h))
        return min(max(i, 0), self.nx), min(max(j, 0), self.ny)

    def contains(self, p) -> bool:
        x, y = float(p[0]), float(p[1])
        return (self.x0 - GRID_SLACK <= x <= self.x0 + self.nx * self.h + GRID_SLACK
                and self.y0 - GRID_SLACK <= y <= self.y0 + self.ny * self.h + GRID_SLACK)

    def boundary_matrix(self) -> sparse.csr_matrix:
        """Edge x face incidence of the 2-chain boundary operator."""
        # face f = j nx + i, in order: bottom, right, top, left
        j, i = np.divmod(np.arange(self.n_faces), self.nx)
        vedge = self.n_hedges + j * (self.nx + 1) + i
        rows = np.stack([j * self.nx + i, vedge + 1, (j + 1) * self.nx + i, vedge], axis=1)
        vals = np.tile([1.0, 1.0, -1.0, -1.0], self.n_faces)
        return sparse.coo_matrix((vals, (rows.ravel(), np.repeat(np.arange(self.n_faces), 4))),
                                 shape=(self.n_edges, self.n_faces)).tocsr()


def _rasterize_segment(grid: GridComplex, chain: np.ndarray, a, b, theta: float) -> None:
    i, j = grid.snap(a)
    ti, tj = grid.snap(b)
    av, bv = np.asarray(a, float), np.asarray(b, float)
    direction = bv - av
    norm = float(np.linalg.norm(direction))

    def line_dist(p: np.ndarray) -> float:
        if norm < 1e-15:
            return float(np.linalg.norm(p - av))
        rel = p - av
        return abs(direction[0] * rel[1] - direction[1] * rel[0]) / norm

    while (i, j) != (ti, tj):
        step_x = (1 if ti > i else -1) if i != ti else 0
        step_y = (1 if tj > j else -1) if j != tj else 0
        take_x = step_x != 0
        if step_x != 0 and step_y != 0:
            dx = line_dist(grid.vertex_point(i + step_x, j))
            dy = line_dist(grid.vertex_point(i, j + step_y))
            take_x = dx <= dy
        if take_x:
            e = grid.hedge(min(i, i + step_x), j)
            chain[e] += theta * step_x
            i += step_x
        else:
            e = grid.vedge(i, min(j, j + step_y))
            chain[e] += theta * step_y
            j += step_y


def rasterize(grid: GridComplex, t: TrafficPath) -> tuple[np.ndarray, float]:
    """1-chain of a planar path on the grid, plus its flat error bound."""
    if t.dim != 2:
        raise ValueError("grid rasterization is planar only")
    chain = np.zeros(grid.n_edges)
    err = 0.0
    for a, b, th in t.segments():
        if not (grid.contains(a) and grid.contains(b)):
            raise ValueError("path exits grid box")
        _rasterize_segment(grid, chain, a, b, th)
        err += abs(th) * (2.0 * grid.h * float(np.linalg.norm(np.asarray(b) - np.asarray(a)))
                          + math.sqrt(2.0) * grid.h)
    return chain, err


def flat_chain_norm(grid: GridComplex, t_chain: np.ndarray) -> float:
    """min over 2-chains s of M(t - d s) + M(s) on the grid complex (an LP).

    The LP is solved on the smallest vertex box [i0, i1] x [j0, j1] that
    holds the support of t (grown to one cell in a direction where it is
    flat), not on the whole grid.  This is exact: the map p that clamps
    every vertex index to the box is cellular, so p# commutes with d,
    sends each cell to a cell of the same size or to 0 (M(p# x) <= M(x))
    and fixes t; hence M(t - d p#s) + M(p#s) <= M(t - d s) + M(s) for
    every 2-chain s, and some minimizer lives in the box.
    """
    t = np.asarray(t_chain, dtype=float)
    hor = t[:grid.n_hedges].reshape(grid.ny + 1, grid.nx)
    ver = t[grid.n_hedges:].reshape(grid.ny, grid.nx + 1)
    hj, hi = np.nonzero(hor)
    vj, vi = np.nonzero(ver)
    # vertex indices touched: a horizontal edge (i, j) ends at i + 1, a vertical one at j + 1
    ii = np.concatenate([hi, hi + 1, vi])
    jj = np.concatenate([hj, vj, vj + 1])
    if ii.size == 0:
        return 0.0
    i0, i1, j0, j1 = int(ii.min()), int(ii.max()), int(jj.min()), int(jj.max())
    if i1 == i0:
        i0, i1 = (i0, i0 + 1) if i0 < grid.nx else (i0 - 1, i0)
    if j1 == j0:
        j0, j1 = (j0, j0 + 1) if j0 < grid.ny else (j0 - 1, j0)
    box = GridComplex(grid.x0 + i0 * grid.h, grid.y0 + j0 * grid.h,
                      i1 - i0, j1 - j0, grid.h)
    chain = np.concatenate([hor[j0:j1 + 1, i0:i1].ravel(),
                            ver[j0:j1, i0:i1 + 1].ravel()])
    ne, nf = box.n_edges, box.n_faces
    B = box.boundary_matrix()
    # variables: u+ u- (edge residual split), v+ v- (face split), all >= 0
    c = np.concatenate([np.full(ne, box.h), np.full(ne, box.h),
                        np.full(nf, box.h ** 2), np.full(nf, box.h ** 2)])
    eye = sparse.identity(ne, format="csr")
    a_eq = sparse.hstack([eye, -eye, B, -B], format="csr")
    # milp with no integer variable is this LP on HiGHS, without linprog's wrapper;
    # its variables are >= 0 by default
    res = milp(c, constraints=LinearConstraint(a_eq, chain, chain))
    if not res.success:
        raise RuntimeError("flat norm LP failed: " + str(res.message))
    return float(res.fun)


def flat_distance_1(t1: TrafficPath, t2: TrafficPath, grid: GridComplex
                    ) -> tuple[float, float]:
    """Grid flat distance between two planar paths and its rasterization error bound."""
    chain1, err1 = rasterize(grid, t1)
    chain2, err2 = rasterize(grid, t2)
    return flat_chain_norm(grid, chain1 - chain2), err1 + err2
