"""Cycle removal, path decompositions and curve surgery.

A traffic path with balanced boundary decomposes into weighted simple
curves running from the negative boundary atoms to the positive ones,
with no mass cancellation: the path mass equals the weighted sum of
curve lengths and the boundary mass equals twice the total curve
weight.  The decomposition here extracts bottleneck walks on the
support digraph, which requires the input to be acyclic; remove_cycles
turns any path into an acyclic one with the same boundary and no more
mass.

Curve surgery: split_curves cuts every curve of a family in three
pieces, at its first exit from its start region and at its last entry
into its end region, and every cut in the package goes through it;
cut_curves applies it to a whole decomposition against an ordered ball
cover, and split_curve, first_exit, last_entry and restrict_curve are
families of one.  A family is one ragged array of waypoint rows, their
arclengths and per-curve offsets.  The walks to the first exit (forward)
and the last entry (backward) advance one segment of every unfinished
curve a round, split at its sphere crossings, with one membership pass
over the pieces; one clip then cuts every window, and the pieces become
Curves validated once for the family.  Answers are bit-identical to a
curve-by-curve walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import currents
from .geometry import Ball, BallRegion, row_norms, segment_sphere_params

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
        object.__setattr__(self, "_cum", _arclengths(w, np.array([0, len(w)]))[0])
        object.__setattr__(self, "waypoints", w)

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



def _find_cycle(adjacency: dict[int, list[int]]) -> list[int] | None:
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
        cycle = _find_cycle(adj)
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
    return _find_cycle(adj) is None


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

    walks = []  # (vertex list, weight)

    def curves() -> list[Curve]:
        return _curves(t.vertices[[v for walk, _ in walks for v in walk]],
                       np.cumsum([0] + [len(walk) for walk, _ in walks]))

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
                curves()  # a zero-length step of an earlier walk is raised first
                raise ValueError("flow conservation violated during extraction")
            w = min(deficit[s], surplus[v],
                    min(flows[(walk[k], walk[k + 1])] for k in range(len(walk) - 1)))
            for k in range(len(walk) - 1):
                flows[(walk[k], walk[k + 1])] -= w
            deficit[s] -= w
            surplus[v] -= w
            walks.append((walk, w))
    entries = tuple(zip(curves(), (w for _, w in walks)))
    if any(d > BALANCE_TOL for d in deficit.values()):
        raise ValueError("decomposition failed to exhaust sources")
    if any(f > BALANCE_TOL for f in flows.values()):
        raise ValueError("decomposition left residual flow")
    return PathMeasure(entries)


def reconstruct(pi: PathMeasure, dim: int = 2) -> currents.TrafficPath:
    """Overlay of the weighted curves as a traffic path."""
    segs = []
    for c, w in pi.entries:
        for a, b in c.segments():
            segs.append((a, b, w))
    return currents.overlay(segs, dim=pi.entries[0][0].dim if pi.entries else dim)


def _arclengths(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Arclengths of the polylines rows[offsets[i]:offsets[i + 1]], one zero-padded row each.

    Raises on a step of length WEIGHT_TOL or less.  The steps come from
    one np.linalg.norm along axis 1 and the arclengths from a row-wise
    cumsum, so a curve's values do not depend on the family around it.
    """
    counts = np.diff(offsets)
    owner = np.repeat(np.arange(len(counts)), counts)
    col = np.arange(len(rows)) - offsets[owner]
    later = np.flatnonzero(col > 0)
    steps = np.linalg.norm(rows[later] - rows[later - 1], axis=1)
    if np.any(steps <= WEIGHT_TOL):
        raise ValueError("curve has a zero-length step")
    cum = np.zeros((len(counts), int(counts.max(initial=0))))
    cum[owner[later], col[later]] = steps
    return np.cumsum(cum, axis=1)


def _curves(rows: np.ndarray, offsets: np.ndarray) -> list[Curve]:
    """The curves over rows[offsets[i]:offsets[i + 1]], validated once for the family.

    Every curve must have at least two waypoints.
    """
    out = [object.__new__(Curve) for _ in range(len(offsets) - 1)]
    for c, lo, hi, arclengths in zip(out, offsets[:-1].tolist(), offsets[1:].tolist(),
                                     _arclengths(rows, offsets)):
        object.__setattr__(c, "waypoints", rows[lo:hi])
        object.__setattr__(c, "_cum", arclengths[:hi - lo])
    return out


def _stack(curves: Sequence[Curve]) -> tuple:
    """A family as one ragged array: waypoint rows, their arclengths, per-curve offsets."""
    return (np.concatenate([c.waypoints for c in curves]), np.concatenate([c._cum for c in curves]),
            np.cumsum([0] + [len(c.waypoints) for c in curves]))


def _contains(regions: list, group: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Whether row k of points lies in regions[group[k]], one contains_rows per region."""
    inside = np.zeros(len(points), dtype=bool)
    for g, region in enumerate(regions):
        rows = group == g
        if rows.any():
            inside[rows] = region.contains_rows(points[rows])
    return inside


def _walk(rows, cum, offsets, regions: Sequence[BallRegion], forward: bool) -> np.ndarray:
    """Arclength nearest each walk's start where curve i is outside regions[i].

    Walking forward from the curves' starts this is their first exit,
    walking back from their ends their last entry; nan where a curve
    never leaves.  The walks advance in lockstep, one segment of every
    unfinished curve a round.  Each segment is split at its sphere
    crossings, and the near end and the midpoint of every piece go
    through one membership pass: a piece is outside as soon as either is,
    and when only the open part past the near end is outside, the
    infimum (supremum) is that end.  A curve whose pieces are all inside
    can still sit outside at the far end of its walk.
    """
    index: dict[int, int] = {}
    group = np.array([index.setdefault(id(r), len(index)) for r in regions], dtype=np.intp)
    distinct = list({id(r): r for r in regions}.values())
    n_seg = np.diff(offsets) - 1
    out = np.full(len(regions), np.nan)
    live = np.arange(len(regions))
    for rank in range(int(n_seg.max())):
        live = live[(n_seg[live] > rank) & np.isnan(out[live])]
        if not live.size:
            break
        seg = offsets[live] + rank if forward else offsets[live + 1] - 2 - rank
        cuts = [[0.0, *sorted({t for ball in regions[i].terms
                               for t in segment_sphere_params(rows[k], rows[k + 1], ball)}), 1.0]
                for k, i in zip(seg.tolist(), live.tolist())]
        cuts = cuts if forward else [ts[::-1] for ts in cuts]
        owner = np.repeat(np.arange(len(cuts)), [len(ts) - 1 for ts in cuts])
        near = np.array([t for ts in cuts for t in ts[:-1]])
        far = np.array([t for ts in cuts for t in ts[1:]])
        k = seg[owner]
        a, u = rows[k], rows[k + 1] - rows[k]
        pts = np.concatenate((a + near[:, None] * u, a + (0.5 * (near + far))[:, None] * u))
        inside = _contains(distinct, np.tile(group[live[owner]], 2), pts)
        hit = np.flatnonzero(~(inside[:len(near)] & inside[len(near):]))
        found, first = np.unique(owner[hit], return_index=True)
        k, t = k[hit[first]], near[hit[first]]
        out[live[found]] = cum[k] + t * (cum[k + 1] - cum[k])
    rest = np.flatnonzero(np.isnan(out))
    if rest.size:
        end = offsets[rest + 1] - 1 if forward else offsets[rest]
        outside = ~_contains(distinct, group[rest], rows[end])
        out[rest[outside]] = cum[end[outside]]
    return out


def _clip(rows, cum, offsets, idx: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list:
    """restrict_curve of curve idx[j] to the window [lo[j], hi[j]], for every j.

    A piece runs from point_at(lo) through the waypoints strictly inside
    its window to point_at(hi), and point_at finds its segment by counting
    the curve's arclengths up to the point.  Only a piece with two
    consecutive points within WEIGHT_TOL replays restrict_curve's
    sequential dedup.  Empty and backward windows give None.
    """
    a, b = np.maximum(lo, 0.0), np.minimum(hi, cum[offsets[idx + 1] - 1])
    out = [None] * len(idx)
    live = np.flatnonzero(b - a > WEIGHT_TOL)
    idx, a, b = idx[live], a[live], b[live]
    m, n_rows = len(idx), np.diff(offsets)[idx]
    win = np.repeat(np.arange(m), n_rows)
    row = np.repeat(offsets[idx] - np.cumsum(n_rows) + n_rows, n_rows) + np.arange(len(win))

    # point_at of both ends; they lie in [0, length], where its clamp leaves them
    ends = np.array((a, b)).T
    below = np.add.reduceat(cum[row][:, None] <= ends[win], np.cumsum(n_rows) - n_rows, dtype=int)
    k = offsets[idx][:, None] + np.minimum(below - 1, n_rows[:, None] - 2)
    ends = rows[k] + ((ends - cum[k]) / (cum[k + 1] - cum[k]))[:, :, None] * (rows[k + 1] - rows[k])
    inner = (a[win] + WEIGHT_TOL < cum[row]) & (cum[row] < b[win] - WEIGHT_TOL)
    row, win = row[inner], win[inner]
    size = np.bincount(win, minlength=m) + 2
    start = np.concatenate(([0], np.cumsum(size)))
    pts = np.empty((start[-1], rows.shape[1]))
    pts[start[:-1]], pts[start[1:] - 1] = ends[:, 0], ends[:, 1]
    pts[np.arange(len(row)) + 2 * win + 1] = rows[row]
    kept = np.ones(len(pts), dtype=bool)
    close = row_norms(pts[1:] - pts[:-1]) <= WEIGHT_TOL
    close[start[1:-1] - 1] = False
    for w in sorted(set((np.searchsorted(start, np.flatnonzero(close), side="right") - 1).tolist())):
        prev = start[w]
        for q in range(start[w] + 1, start[w + 1]):
            kept[q] = float(np.linalg.norm(pts[q] - pts[prev])) > WEIGHT_TOL
            prev = q if kept[q] else prev
    of = np.repeat(np.arange(m), size)
    n_kept = np.bincount(of[kept], minlength=m)
    whole = n_kept >= 2
    pieces = _curves(pts[kept & whole[of]], np.concatenate(([0], np.cumsum(n_kept[whole]))))
    for j, piece in zip(live[whole].tolist(), pieces):
        out[j] = piece
    return out


def split_curves(curves: Sequence[Curve], start: Sequence[BallRegion] | None = None,
                 end: Sequence[BallRegion] | None = None) -> list[tuple]:
    """split_curve of every curve of a family, in one batch.

    start and end are None or one region per curve; curves cut against
    the same region should share one region object, since membership is
    tested once per distinct object.  Returns one (head, middle, tail)
    triple per curve, and raises the error that split_curve raises for
    the first curve that fails.
    """
    n = len(curves)
    if not n or (start is None and end is None):
        return [(None, None, None)] * n
    rows, cum, offsets = _stack(curves)
    length = cum[offsets[1:] - 1]
    s = np.zeros(n) if start is None else _walk(rows, cum, offsets, start, True)
    e = length if end is None else _walk(rows, cum, offsets, end, False)
    left, s, e = ~np.isnan(s), np.where(np.isnan(s), 0.0, s), np.where(np.isnan(e), 0.0, e)
    windows = ((start is not None, np.zeros(n), s),
               (start is not None and end is not None, s, e),
               (end is not None, e, length))
    wanted = [window for window in windows if window[0]]
    got = iter(_clip(rows, cum, offsets, np.tile(np.arange(n), len(wanted)),
                     *(np.concatenate([window[k] for window in wanted]) for k in (1, 2))))
    pieces = [[next(got) for _ in range(n)] if cut else [None] * n for cut, _, _ in windows]
    backwards = [(lo > hi + WEIGHT_TOL).tolist() for _, lo, hi in windows]
    for i, ok in enumerate(left.tolist()):  # split_curve's checks, in its order
        if not ok:
            raise ValueError("curve never leaves its start region")
        for (cut, _, _), back, piece in zip(windows, backwards, pieces):
            if cut and back[i]:
                raise ValueError("window start exceeds window end")
            if cut and piece[i] is None:
                raise ValueError("curve piece collapsed to a point at a cut")
    return list(zip(*pieces))


def first_exit(c: Curve, region: BallRegion) -> float:
    """inf of arclengths where the curve sits outside the region; inf if never."""
    s = float(_walk(*_stack([c]), [region], True)[0])
    return math.inf if math.isnan(s) else s


def last_entry(c: Curve, region: BallRegion) -> float:
    """sup of arclengths where the curve sits outside the region; 0 if always inside."""
    s = float(_walk(*_stack([c]), [region], False)[0])
    return 0.0 if math.isnan(s) else s


def restrict_curve(c: Curve, a: float, b: float) -> Curve | None:
    """Clip to the arclength window [a, b]; None when the window is empty."""
    if a > b + WEIGHT_TOL:
        raise ValueError("window start exceeds window end")
    return _clip(*_stack([c]), np.zeros(1, dtype=np.intp), np.array([a], dtype=float),
                 np.array([b], dtype=float))[0]


def split_curve(c: Curve, start: BallRegion | None = None,
                end: BallRegion | None = None) -> tuple:
    """Cut a curve at its first exit from start and its last entry into end.

    Returns (head, middle, tail).  head runs from the curve's start to the
    first exit from start and tail from the last entry into end to the
    curve's end; each is None when its region is not given.  middle, the
    window between the two cuts, is cut only when both regions are given.
    Raises ValueError when the curve never leaves start or when a returned
    piece collapses to a point.  A family of one for split_curves.
    """
    return split_curves([c], None if start is None else [start],
                        None if end is None else [end])[0]


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


def cell_indices(cells: Sequence[CellSpec], points) -> np.ndarray:
    """Index of the first cell containing each point; -1 where none does.

    The cells are those of cells_of_cover, or a prefix of them.  A point
    outside every earlier cell is then outside every earlier ball, so the
    first cell holding it is the first ball holding it: one distance per
    point and ball, each equal to the one the cell's contains takes.
    """
    if not len(cells) or not len(points):
        return np.full(len(points), -1)
    pts, balls = np.asarray(points, dtype=float), [spec.ball for spec in cells]
    dist = row_norms((pts[:, None, :] - np.array([b.center for b in balls])[None])
                     .reshape(-1, pts.shape[1])).reshape(len(pts), len(balls))
    radii = np.array([b.radius for b in balls])
    inside = np.where([b.closed for b in balls], dist <= radii, dist < radii)
    return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)


def cut_curves(pi: PathMeasure, cells: Sequence[CellSpec], mode: str
               ) -> list[tuple[Curve, float, int]]:
    """Cut each curve against the ball of the cell its endpoint lands in.

    mode "from-start" keeps the piece from the start to the first exit of
    the open parent ball; "from-end" keeps the piece from the last entry
    into the open parent ball to the end.  Returns (curve, weight, cell
    index) triples.  The cut is split_curves', so a curve that never
    leaves its start ball, or whose kept piece collapses to a point,
    raises ValueError instead of being kept whole or dropped.
    """
    if mode not in ("from-start", "from-end"):
        raise ValueError("mode must be 'from-start' or 'from-end'")
    from_start = mode == "from-start"
    curves = [c for c, _ in pi.entries]
    idx = cell_indices(cells, [c.start() if from_start else c.end() for c in curves]).tolist()
    n = idx.index(-1) if -1 in idx else len(idx)
    balls = {k: cells[k].open_ball() for k in set(idx[:n])}
    regions = [balls[k] for k in idx[:n]]
    cut = split_curves(curves[:n], regions if from_start else None,
                       None if from_start else regions)
    if n < len(idx):  # raised after the errors of the curves before it
        raise ValueError("curve endpoint not in any cell")
    return [(pieces[0 if from_start else 2], w, k)
            for pieces, (_, w), k in zip(cut, pi.entries, idx)]
