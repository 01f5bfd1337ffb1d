"""Cycle removal, path decompositions and curve surgery.

A traffic path with balanced boundary decomposes into weighted simple
curves running from the negative boundary atoms to the positive ones,
with no mass cancellation: the path mass equals the weighted sum of
curve lengths and the boundary mass equals twice the total curve
weight.  The decomposition here extracts bottleneck walks on the
support digraph, which requires the input to be acyclic; remove_cycles
turns any path into an acyclic one with the same boundary and no more
mass.

Curve surgery: split_curve cuts a curve in three pieces, at its first
exit from a start region and at its last entry into an end region, and
every cut in the package goes through it; cut_curves applies that cut
to a whole decomposition against an ordered ball cover, cell by cell.
first_exit and last_entry are one walk over the curve's pieces between
sphere crossings, run forward from the start or backward from the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import currents
from .geometry import Ball, BallRegion, segment_sphere_params

WEIGHT_TOL = 1e-12
BALANCE_TOL = 1e-9


@dataclass(frozen=True)
class Curve:
    """Polyline curve, parametrized by arclength from the first waypoint."""

    waypoints: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.waypoints, dtype=float)
        if w.ndim != 2 or w.shape[0] < 2:
            raise ValueError("curve needs at least two waypoints")
        steps = np.linalg.norm(np.diff(w, axis=0), axis=1)
        if np.any(steps <= WEIGHT_TOL):
            raise ValueError("curve has a zero-length step")
        object.__setattr__(self, "waypoints", w)
        object.__setattr__(self, "_cum", np.concatenate(([0.0], np.cumsum(steps))))

    @property
    def dim(self) -> int:
        return self.waypoints.shape[1]

    def length(self) -> float:
        return float(self._cum[-1])

    def start(self) -> np.ndarray:
        return self.waypoints[0]

    def end(self) -> np.ndarray:
        return self.waypoints[-1]

    def point_at(self, s: float) -> np.ndarray:
        s = min(max(s, 0.0), self.length())
        k = int(np.searchsorted(self._cum, s, side="right") - 1)
        k = min(k, len(self.waypoints) - 2)
        seg = self._cum[k + 1] - self._cum[k]
        t = (s - self._cum[k]) / seg
        return self.waypoints[k] + t * (self.waypoints[k + 1] - self.waypoints[k])

    def segments(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(self.waypoints[k], self.waypoints[k + 1])
                for k in range(len(self.waypoints) - 1)]


@dataclass(frozen=True)
class PathMeasure:
    """Finitely many weighted curves; weights strictly positive."""

    entries: tuple  # of (Curve, weight)

    def __post_init__(self):
        for _, w in self.entries:
            if not w > 0:
                raise ValueError("curve weights must be positive")

    def total_weight(self) -> float:
        return sum(w for _, w in self.entries)

    def start_measure(self) -> currents.AtomicMeasure:
        dim = self.entries[0][0].dim if self.entries else 2
        return currents.AtomicMeasure.from_atoms(
            [(c.start(), w) for c, w in self.entries], dim=dim)

    def end_measure(self) -> currents.AtomicMeasure:
        dim = self.entries[0][0].dim if self.entries else 2
        return currents.AtomicMeasure.from_atoms(
            [(c.end(), w) for c, w in self.entries], dim=dim)


def _find_cycle(n_vertices: int, adjacency: dict[int, list[int]]) -> list[int] | None:
    """A directed cycle as a vertex list, or None.  Iterative DFS."""
    color = {}
    parent = {}
    for root in adjacency:
        if color.get(root):
            continue
        stack = [(root, iter(adjacency.get(root, ())))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color.get(w, 0) == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(adjacency.get(w, ()))))
                    advanced = True
                    break
                if color.get(w) == 1:
                    cycle = [w, v]
                    u = v
                    while u != w:
                        u = parent[u]
                        cycle.append(u)
                    cycle.reverse()
                    return cycle[:-1]
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


def remove_cycles(t: currents.TrafficPath) -> currents.TrafficPath:
    """Cancel directed cycles by subtracting their bottleneck multiplicity.

    Preserves the boundary exactly (cycles are boundaryless) and never
    increases mass; each pass deletes at least one edge, so it terminates.
    """
    flows = {(i, j): th for i, j, th in t.edges}
    while True:
        adj: dict[int, list[int]] = {}
        for (i, j), th in flows.items():
            if th > WEIGHT_TOL:
                adj.setdefault(i, []).append(j)
        cycle = _find_cycle(len(t.vertices), adj)
        if cycle is None:
            break
        edges = [(cycle[k], cycle[(k + 1) % len(cycle)]) for k in range(len(cycle))]
        bottleneck = min(flows[e] for e in edges)
        for e in edges:
            flows[e] -= bottleneck
            if flows[e] <= WEIGHT_TOL:
                del flows[e]
    segs = [(t.vertices[i], t.vertices[j], th) for (i, j), th in flows.items()]
    return currents.from_segments(segs, dim=t.dim)


def is_acyclic(t: currents.TrafficPath) -> bool:
    adj: dict[int, list[int]] = {}
    for i, j, _ in t.edges:
        adj.setdefault(i, []).append(j)
    return _find_cycle(len(t.vertices), adj) is None


def good_decomposition(t: currents.TrafficPath) -> PathMeasure:
    """Decompose an acyclic balanced path into weighted source-to-sink curves.

    Postconditions (pinned by tests): the weighted curve lengths add up to
    mass(t); the boundary splits as end-point measure minus start-point
    measure with total weight equal to half the boundary mass; each edge
    multiplicity is exactly the weight of curves through it.
    """
    if t.is_empty():
        return PathMeasure(())
    if not is_acyclic(t):
        raise ValueError("not acyclic")
    bnd = currents.boundary(t)
    if abs(bnd.total()) > BALANCE_TOL:
        raise ValueError("unbalanced boundary")

    net: dict[int, float] = {}
    for i, j, th in t.edges:
        net[j] = net.get(j, 0.0) + th
        net[i] = net.get(i, 0.0) - th
    deficit = {v: -m for v, m in net.items() if m < -WEIGHT_TOL}
    surplus = {v: m for v, m in net.items() if m > WEIGHT_TOL}
    flows = {(i, j): th for i, j, th in t.edges}
    out_adj: dict[int, list[int]] = {}
    for i, j, _ in t.edges:
        out_adj.setdefault(i, []).append(j)
    for v in out_adj:
        out_adj[v].sort(key=lambda j: tuple(t.vertices[j]))

    def next_hop(v: int) -> int | None:
        for j in out_adj.get(v, ()):
            if flows.get((v, j), 0.0) > WEIGHT_TOL:
                return j
        return None

    entries = []
    source_order = sorted(deficit, key=lambda v: tuple(t.vertices[v]))
    for s in source_order:
        while deficit.get(s, 0.0) > WEIGHT_TOL:
            walk = [s]
            v = s
            while True:
                j = next_hop(v)
                if j is None:
                    break
                walk.append(j)
                v = j
            if len(walk) < 2 or surplus.get(v, 0.0) <= WEIGHT_TOL:
                raise ValueError("flow conservation violated during extraction")
            w = min(deficit[s], surplus[v],
                    min(flows[(walk[k], walk[k + 1])] for k in range(len(walk) - 1)))
            for k in range(len(walk) - 1):
                flows[(walk[k], walk[k + 1])] -= w
            deficit[s] -= w
            surplus[v] -= w
            entries.append((Curve(t.vertices[list(walk)]), w))
    if any(d > BALANCE_TOL for d in deficit.values()):
        raise ValueError("decomposition failed to exhaust sources")
    if any(f > BALANCE_TOL for f in flows.values()):
        raise ValueError("decomposition left residual flow")
    return PathMeasure(tuple(entries))


def reconstruct(pi: PathMeasure, dim: int = 2) -> currents.TrafficPath:
    """Overlay of the weighted curves as a traffic path."""
    segs = []
    for c, w in pi.entries:
        for a, b in c.segments():
            segs.append((a, b, w))
    return currents.overlay(segs, dim=pi.entries[0][0].dim if pi.entries else dim)


def _segment_params(c: Curve, region: BallRegion, k: int) -> list[float]:
    a, b = c.waypoints[k], c.waypoints[k + 1]
    out = set()
    for ball in region.terms:
        out.update(segment_sphere_params(a, b, ball))
    return sorted(out)


def _walk_to_outside(c: Curve, region: BallRegion, forward: bool) -> float | None:
    """Arclength nearest the walk's start where the curve is outside the region.

    Walking forward from the curve's start this is the first exit, walking
    back from its end the last entry; None when the curve never leaves.
    Each segment is split at its sphere crossings, and a piece is outside
    as soon as its near end or its midpoint is: when only the open part
    past the near end is outside, the infimum (supremum) is that end.
    """
    steps = range(len(c.waypoints) - 1)
    for k in (steps if forward else reversed(steps)):
        a, b = c.waypoints[k], c.waypoints[k + 1]
        locs = [0.0] + _segment_params(c, region, k) + [1.0]
        pieces = list(zip(locs[:-1], locs[1:]))
        for lo, hi in (pieces if forward else reversed(pieces)):
            near = lo if forward else hi
            if not (region.contains(a + near * (b - a))
                    and region.contains(a + 0.5 * (lo + hi) * (b - a))):
                return float(c._cum[k]) + near * float(c._cum[k + 1] - c._cum[k])
    # the far end of the walk, never a near end, can sit alone outside
    if not region.contains(c.end() if forward else c.start()):
        return c.length() if forward else 0.0
    return None


def first_exit(c: Curve, region: BallRegion) -> float:
    """inf of arclengths where the curve sits outside the region; inf if never."""
    s = _walk_to_outside(c, region, forward=True)
    return math.inf if s is None else s


def last_entry(c: Curve, region: BallRegion) -> float:
    """sup of arclengths where the curve sits outside the region; 0 if always inside."""
    s = _walk_to_outside(c, region, forward=False)
    return 0.0 if s is None else s


def restrict_curve(c: Curve, a: float, b: float) -> Curve | None:
    """Clip to the arclength window [a, b]; None when the window is empty."""
    if a > b + WEIGHT_TOL:
        raise ValueError("window start exceeds window end")
    a = max(a, 0.0)
    b = min(b, c.length())
    if b - a <= WEIGHT_TOL:
        return None
    pts = [c.point_at(a)]
    for k in range(len(c.waypoints)):
        s = float(c._cum[k])
        if a + WEIGHT_TOL < s < b - WEIGHT_TOL:
            pts.append(c.waypoints[k])
    pts.append(c.point_at(b))
    dedup = [pts[0]]
    for p in pts[1:]:
        if float(np.linalg.norm(p - dedup[-1])) > WEIGHT_TOL:
            dedup.append(p)
    if len(dedup) < 2:
        return None
    return Curve(np.array(dedup))


def split_curve(c: Curve, start: BallRegion | None = None,
                end: BallRegion | None = None) -> tuple:
    """Cut a curve at its first exit from start and its last entry into end.

    Returns (head, middle, tail).  head runs from the curve's start to the
    first exit from start and tail from the last entry into end to the
    curve's end; each is None when its region is not given.  middle, the
    window between the two cuts, is cut only when both regions are given.
    Raises ValueError when the curve never leaves start or when a returned
    piece collapses to a point.
    """
    s = 0.0 if start is None else first_exit(c, start)
    if not math.isfinite(s):
        raise ValueError("curve never leaves its start region")
    e = c.length() if end is None else last_entry(c, end)
    windows = ((start is not None, 0.0, s),
               (start is not None and end is not None, s, e),
               (end is not None, e, c.length()))
    pieces = []
    for wanted, a, b in windows:
        piece = restrict_curve(c, a, b) if wanted else None
        if wanted and piece is None:
            raise ValueError("curve piece collapsed to a point at a cut")
        pieces.append(piece)
    return tuple(pieces)


@dataclass(frozen=True)
class CellSpec:
    """One cell of an ordered ball cover together with its parent ball."""

    cell: BallRegion
    ball: Ball

    def open_ball(self) -> BallRegion:
        """The open parent ball, the region a curve is cut against."""
        return BallRegion.union_of([self.ball.open_copy()])


def cells_of_cover(balls: Sequence[Ball]) -> list[CellSpec]:
    return [CellSpec(BallRegion.cell(i, list(balls)), balls[i]) for i in range(len(balls))]


def cell_index(cells: Sequence[CellSpec], point) -> int | None:
    """Index of the first cell containing the point; None when none does."""
    return next((k for k, spec in enumerate(cells) if spec.cell.contains(point)), None)


def cut_curves(pi: PathMeasure, cells: Sequence[CellSpec], mode: str
               ) -> list[tuple[Curve, float, int]]:
    """Cut each curve against the ball of the cell its endpoint lands in.

    mode "from-start" keeps the piece from the start to the first exit of
    the open parent ball; "from-end" keeps the piece from the last entry
    into the open parent ball to the end.  Returns (curve, weight, cell
    index) triples.  The cut is split_curve's, so a curve that never
    leaves its start ball, or whose kept piece collapses to a point,
    raises ValueError instead of being kept whole or dropped.
    """
    if mode not in ("from-start", "from-end"):
        raise ValueError("mode must be 'from-start' or 'from-end'")
    from_start = mode == "from-start"
    out = []
    for c, w in pi.entries:
        idx = cell_index(cells, c.start() if from_start else c.end())
        if idx is None:
            raise ValueError("curve endpoint not in any cell")
        if from_start:
            piece, _, _ = split_curve(c, start=cells[idx].open_ball())
        else:
            _, _, piece = split_curve(c, end=cells[idx].open_ball())
        out.append((piece, w, idx))
    return out
