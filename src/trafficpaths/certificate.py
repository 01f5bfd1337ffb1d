"""Independent check of the oracle's dual certificates.

This module shares no code with the position kernel in ``optimizer``: it
reads a certificate's atoms, trees and duals as plain Python floats and
recomputes everything else from them.  Every edge e = (a, b) of a full
tree on k atoms x_t with signed masses m_t splits the atoms in two; its
flow is the mass on one side, so its weight is w_e = |sum of m_t on the
side away from atom 0|^alpha (1 at alpha = 0, and 0 without flow).  For
any duals y with |y_e| <= w_e and any branch points,

    sum_e w_e |x_a - x_b| >= sum_e y_e . (x_a - x_b) = sum_v (x_v - c) . g_v,

with g_v = sum_{e = (v, .)} y_e - sum_{e = (., v)} y_e.  An optimal branch
point lies in the atoms' hull, within R of their mean c, so the tree's
optimum is at least sum_{atoms t} (x_t - c) . g_t - R sum_{branch points v} |g_v|
(convex duality for the Gilbert-Steiner position problem).  Every optimum
on the k atoms is one of the (2k-5)!! full trees, some edges possibly of
length 0, so the least bound over all of them bounds the optimum; the
trees are told apart by their sets of leaf splits, not by how their branch
points are numbered.

Rounding allowance: y is accepted when |y_e| <= (1 + ALLOWANCE) w_e on
every edge, ALLOWANCE = 1e-9 relative, which covers the kernel's weights
being summed in another order.  A tree's bound is then taken for y divided
by max(1, max_e |y_e| / w_e), which meets |y_e| <= w_e exactly, so the
allowance never raises a bound.
"""

from __future__ import annotations

import math

ALLOWANCE = 1e-9


class CertificateError(ValueError):
    """A certificate that proves no bound."""


def _splits(tree: list, k: int) -> list:
    """Per edge, the atoms on its side away from atom 0; raises unless the
    tree is a full binary tree whose leaves are the atoms 0..k-1."""
    n = 2 * k - 2
    adj = [[] for _ in range(n)]
    for e, (a, b) in enumerate(tree):
        adj[a].append((b, e))
        adj[b].append((a, e))
    if len(tree) != n - 1 or any(len(adj[v]) != (1 if v < k else 3) for v in range(n)):
        raise CertificateError(f"{tree} is not a full binary tree on {k} leaves")
    parent, order = {0: (None, None)}, [0]  # vertex: (its parent, the edge to it)
    for v in order:
        for u, e in adj[v]:
            if e != parent[v][1]:
                if u in parent:
                    raise CertificateError(f"{tree} has a cycle")
                parent[u] = v, e
                order.append(u)
    if len(order) != n:
        raise CertificateError(f"{tree} is not connected")
    below, sides = [{v} if v < k else set() for v in range(n)], [None] * (n - 1)
    for v in reversed(order[1:]):
        u, e = parent[v]
        sides[e] = frozenset(below[v])
        below[u] |= below[v]
    return sides


def checked_lower_bound(cert, alpha: float) -> float:
    """Least bound of every tree of cert (points (k, d), masses (k,), edges
    (T, E, 2), duals (T, E, d)) on the optimum over its k atoms; raises
    CertificateError unless the trees are exactly the (2k-5)!! distinct full
    trees and every y is finite and within its edge's weight."""
    points, masses = cert.points.tolist(), cert.masses.tolist()
    k, dim = len(masses), len(points[0])
    center = [sum(col) / k for col in zip(*points)]
    radius = max(math.dist(p, center) for p in points)
    seen, best = set(), math.inf
    for i, (tree, y) in enumerate(zip(cert.edges.tolist(), cert.duals.tolist())):
        sides = _splits(tree, k)
        if frozenset(sides) in seen:
            raise CertificateError(f"tree {i} repeats an earlier tree")
        seen.add(frozenset(sides))
        g, scale = [[0.0] * dim for _ in range(2 * k - 2)], 1.0
        for (a, b), side, y_e in zip(tree, sides, y):
            flow = sum(masses[t] for t in side)
            w, size = abs(flow) ** alpha if flow else 0.0, math.hypot(*y_e)
            if math.isnan(size):
                raise CertificateError(f"tree {i} has no duals: its solve was not certified")
            if size > (1.0 + ALLOWANCE) * w:
                raise CertificateError(f"tree {i} edge ({a}, {b}): |y| = {size!r} > w = {w!r}")
            scale = max(scale, size / w if size else 1.0)
            for j in range(dim):
                g[a][j] += y_e[j]
                g[b][j] -= y_e[j]
        bound = sum((points[t][j] - center[j]) * g[t][j] for t in range(k) for j in range(dim)) \
            - radius * sum(math.hypot(*g_v) for g_v in g[k:])
        best = min(best, bound / scale)
    want = math.prod(range(2 * k - 5, 0, -2))
    if len(seen) != want:
        raise CertificateError(f"{len(seen)} trees, not the {want} full trees on {k} atoms")
    return best
