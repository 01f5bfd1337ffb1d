"""Answer checks that use nothing from the package under test.

A path is given as (vertices, edges): an (n, d) array and a list of
(tail, head, theta).  A signed measure is a list of (point, mass).
Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9


def path_of(t) -> tuple[np.ndarray, list]:
    """(vertices, edges) of a TrafficPath."""
    return np.asarray(t.vertices, dtype=float), [(int(i), int(j), float(th))
                                                  for i, j, th in t.edges]


def path_of_doc(doc: dict) -> tuple[np.ndarray, list]:
    """(vertices, edges) of the 'path' object in a solve output document."""
    verts = np.asarray(doc["vertices"], dtype=float)
    return verts.reshape(len(doc["vertices"]), -1), [
        (int(i), int(j), float(th)) for i, j, th in doc["edges"]]


def alpha_mass(path, alpha: float) -> float:
    verts, edges = path
    return sum(th ** alpha * float(np.linalg.norm(verts[j] - verts[i]))
               for i, j, th in edges)


def mass(path) -> float:
    return alpha_mass(path, 1.0)


def boundary(path) -> list:
    """Signed boundary: +theta at each head, -theta at each tail."""
    verts, edges = path
    net = np.zeros(len(verts))
    for i, j, th in edges:
        net[i] -= th
        net[j] += th
    return [(verts[v], float(net[v])) for v in range(len(verts)) if net[v] != 0.0]


def signed(minus: list, plus: list) -> list:
    """plus - minus as one signed measure."""
    return [(np.asarray(p, dtype=float), float(m)) for p, m in plus] + \
        [(np.asarray(p, dtype=float), -float(m)) for p, m in minus]


def combine(*terms) -> list:
    """Linear combination of signed measures given as (factor, measure) pairs."""
    return [(p, f * m) for f, mu in terms for p, m in mu]


def tv(measure: list, tol: float = TOL) -> float:
    """Total variation after merging atoms closer than tol."""
    points: list[np.ndarray] = []
    masses: list[float] = []
    for p, m in measure:
        for k, q in enumerate(points):
            if float(np.max(np.abs(q - p))) <= tol:
                masses[k] += m
                break
        else:
            points.append(p)
            masses.append(m)
    return sum(abs(m) for m in masses)


def is_acyclic(path) -> bool:
    """Kahn's algorithm on the directed edges."""
    verts, edges = path
    indeg = [0] * len(verts)
    out: dict[int, list[int]] = {}
    for i, j, _ in edges:
        indeg[j] += 1
        out.setdefault(i, []).append(j)
    ready = [v for v in range(len(verts)) if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in out.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == len(verts)


def check_solution(path, target: list, alpha: float, reported_cost: float | None,
                   ) -> list[str]:
    """Boundary equals the target, the path is acyclic, the cost is what it claims."""
    problems = []
    err = tv(combine((1.0, boundary(path)), (-1.0, target)))
    if not err <= TOL:
        problems.append(f"boundary misses mu+ - mu- by TV {err:.3g}")
    if not is_acyclic(path):
        problems.append("path has a cycle")
    if reported_cost is not None:
        cost = alpha_mass(path, alpha)
        if not abs(cost - reported_cost) <= TOL * max(1.0, abs(cost)):
            problems.append(f"reported cost {reported_cost!r} != alpha-mass {cost!r}")
    return problems


def check_reference(cost: float, reference: float | None) -> list[str]:
    if reference is None or cost <= reference * (1.0 + TOL):
        return []
    return [f"cost {cost!r} exceeds the recorded reference {reference!r}"]

