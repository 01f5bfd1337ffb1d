"""Discrete traffic paths: weighted embedded digraphs acting as 1-currents.

A TrafficPath holds vertices in R^2 or R^3 and directed edges (tail,
head, theta) with strictly positive multiplicity theta.  It models the
rectifiable current that integrates a form along each segment with
weight theta.  An AtomicMeasure is a signed sum of point masses and is
what boundaries evaluate to.

Sums of paths are measure-theoretic: ``add`` overlays the two segment
families, groups them by supporting line (``_line_groups``, shared with
the quasi-additivity check), splits collinear overlaps into elementary
intervals, adds multiplicities with orientation signs, cancels to zero
where opposite flows meet and never creates crossings at transversal
intersections.
Everything downstream (decompositions, constructive transports, the
competitor assembly) funnels through this overlay, so its tolerances
are the global ones: vertices merge at 1e-9, multiplicities below 1e-12
are dropped, collinearity is decided at 1e-9 angular tolerance.  Vertex
merging, line grouping and atom merging share one rule, the order-
dependent first-match merge of ``_PointIndex``, applied to whole lists
of rows by ``_merge_rows``: exact repeats meet in one dict, a sort per
axis shows which distinct rows have a neighbour within tolerance, and
only those few rows are replayed through a ``_PointIndex``.  Canonical
lines, interval parameters, sphere crossings and region membership are
computed for all segments at once with ``geometry.row_dots``, whose
entries equal the 1-d dot products, so every answer is bit-identical
to a segment-by-segment evaluation.

Masses: mass(T) is the total variation (sum of theta * length) and
alpha_mass(T, a) the concave transport energy (sum of theta^a * length)
for a in (0, 1].  alpha_mass is subadditive under ``add``, positively
homogeneous of degree alpha in theta, and contracts under 1-Lipschitz
push-forwards; the tests pin all three.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# segment_sphere_params is unused here but stays importable by name: the
# perfbench tracer test checks that its wrapper is removed from this module
from .geometry import (BallRegion, as_point, row_dots, row_norms,  # noqa: F401
                       segment_sphere_params, sphere_params)

MERGE_TOL = 1e-9
THETA_TOL = 1e-12
LINE_TOL = 1e-9


class _PointIndex:
    """Incremental point registry with tolerance merging, on float tuples.

    Points are bucketed on a grid of side max(1e-6, 4 tol), so a point
    within ``tol`` (Chebyshev) of a query lies in a bucket whose index on
    each axis runs from floor((x - 2 tol)/grid) to floor((x + 2 tol)/grid):
    one bucket unless x lies within 2 tol of a bucket face.  ``find``
    probes only those buckets; the 2 tol margin absorbs the rounding of
    x +- tol.  They are visited in lexicographic key order and each
    bucket's points in insertion order, the order of a full scan of the
    3^dim neighbour buckets, so the first match -- the representative a
    point merges into -- is the one that scan would return.
    """

    def __init__(self, tol: float = MERGE_TOL):
        self.tol = tol
        self.grid = max(1e-6, 4.0 * tol)
        self.points: list[tuple[float, ...]] = []
        self._buckets: dict[tuple[int, ...], list[int]] = {}

    def find(self, p: tuple[float, ...]) -> int:
        tol, grid, reach = self.tol, self.grid, 2.0 * self.tol
        axes = [range(math.floor((x - reach) / grid), math.floor((x + reach) / grid) + 1)
                for x in p]
        for key in itertools.product(*axes):
            for idx in self._buckets.get(key, ()):
                if all(abs(a - b) <= tol for a, b in zip(self.points[idx], p)):
                    return idx
        return -1

    def insert(self, p: tuple[float, ...]) -> int:
        idx = self.find(p)
        if idx >= 0:
            return idx
        self.points.append(p)
        idx = len(self.points) - 1
        key = tuple(math.floor(x / self.grid) for x in p)
        self._buckets.setdefault(key, []).append(idx)
        return idx


def _crowded(rows: list[tuple[float, ...]], reach: float) -> list[int]:
    """Indices of the rows that may have another row within ``reach`` on every axis.

    The rows are sorted along each axis in turn, inside the runs of the
    previous axis, and cut into runs wherever neighbours lie more than
    ``reach`` apart; a row alone in its run leaves.  Two rows within
    ``reach`` on every axis always share a run, so both are returned;
    rows farther apart may be returned too.
    """
    runs = [range(len(rows))]
    for axis in range(len(rows[0])):
        split = []
        for run in runs:
            order = sorted(run, key=lambda i: rows[i][axis])
            start = 0
            for k in range(1, len(order) + 1):
                if k == len(order) or rows[order[k]][axis] - rows[order[k - 1]][axis] > reach:
                    if k - start > 1:
                        split.append(order[start:k])
                    start = k
        runs = split
    return [i for run in runs for i in run]


def _merge_rows(rows: list[tuple[float, ...]], tol: float) -> list[int]:
    """For each row, the row that sequential ``_PointIndex(tol)`` insertion merges it into.

    Entry k is the position of the first row of row k's merge class, the
    one insertion keeps as the representative.  Exact repeats meet in one
    dict (-0.0 == 0.0 there, as in ``_PointIndex``).  A distinct row that
    ``_crowded`` leaves out has no other row within tol, so it and its
    repeats form a class of their own.  The other rows, repeats included,
    are replayed through a fresh ``_PointIndex`` in their original order;
    ``find`` matches only within tol, so the rows left out could not have
    changed their answers and the replay gives the global one.
    """
    first: dict[tuple[float, ...], int] = {}
    merged = [first.setdefault(r, k) for k, r in enumerate(rows)]
    if len(first) > 1:
        distinct = list(first)
        keys = {distinct[i] for i in _crowded(distinct, 2.0 * tol)}
        if keys:
            index = _PointIndex(tol)
            owner: list[int] = []
            for k, r in enumerate(rows):
                if r in keys:
                    i = index.insert(r)
                    if i == len(owner):
                        owner.append(k)
                    merged[k] = owner[i]
    return merged


def _as_points(points: list) -> np.ndarray:
    """The points as rows of an (n, d) float array; a point ``as_point`` rejects raises its error."""
    try:
        arr = np.array(points, dtype=float)
    except ValueError:  # ragged
        arr = None
    if arr is None or arr.ndim != 2 or arr.shape[1] not in (2, 3):
        if not points:
            return np.zeros((0, 0))
        for p in points:
            as_point(p)
        raise ValueError("points must share one dimension")
    return arr


def _rows(points: np.ndarray) -> list[tuple[float, ...]]:
    return list(map(tuple, points.tolist()))


def clears_sphere_threshold(alpha: float, dim: int) -> bool:
    """Whether alpha clears the sphere-reduction threshold 1 - 1/(d-1).

    Above it, measures on a sphere of dimension d - 1 are connected along
    the sphere at a cost of order (mass)^alpha * radius.
    """
    return alpha > 1.0 - 1.0 / (dim - 1)


@dataclass(frozen=True)
class Config:
    """Ambient parameters shared across a computation."""

    alpha: float
    dimension: int
    ambient_radius: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.dimension not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if not self.ambient_radius > 0:
            raise ValueError("ambient_radius must be positive")

    def sphere_reduction_ok(self) -> bool:
        """Whether alpha clears the sphere-connection threshold 1 - 1/(d-1)."""
        return clears_sphere_threshold(self.alpha, self.dimension)


@dataclass(frozen=True)
class AtomicMeasure:
    """Signed atomic measure: points (k, d) with signed masses (k,).

    Atoms within 1e-9 of each other are merged at construction; zero
    atoms (|mass| < 1e-12) are dropped; atoms are sorted lexicographically
    by position so equal measures compare equal after serialization.
    """

    points: np.ndarray
    masses: np.ndarray

    @staticmethod
    def from_atoms(atoms, dim: int | None = None, tol: float = MERGE_TOL) -> "AtomicMeasure":
        atoms = list(atoms)
        if not atoms:
            if dim is None:
                raise ValueError("empty measure needs an explicit dimension")
            return AtomicMeasure(np.zeros((0, dim)), np.zeros(0))
        return AtomicMeasure._merged(_as_points([p for p, _ in atoms]),
                                     [float(m) for _, m in atoms], tol)

    @staticmethod
    def _merged(points: np.ndarray, masses: list[float], tol: float = MERGE_TOL
                ) -> "AtomicMeasure":
        """``from_atoms`` of the atoms (points[k], masses[k]) of an (n, d) array."""
        rows = _rows(np.asarray(points, dtype=float))
        net: dict[int, float] = {}
        for i, m in zip(_merge_rows(rows, tol), masses):
            net[i] = net.get(i, 0.0) + m
        pts, ms = [], []
        for i, m in net.items():
            if abs(m) > THETA_TOL:
                pts.append(rows[i])
                ms.append(m)
        if not pts:
            return AtomicMeasure(np.zeros((0, points.shape[1])), np.zeros(0))
        order = sorted(range(len(pts)), key=pts.__getitem__)
        return AtomicMeasure(np.array([pts[k] for k in order]),
                             np.array([ms[k] for k in order]))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def atoms(self) -> list[tuple[np.ndarray, float]]:
        return [(self.points[i], float(self.masses[i])) for i in range(len(self.masses))]

    def total(self) -> float:
        return float(self.masses.sum()) if len(self.masses) else 0.0

    def tv(self) -> float:
        """Total variation: sum of absolute atom masses."""
        return float(np.abs(self.masses).sum()) if len(self.masses) else 0.0

    def positive_part(self) -> "AtomicMeasure":
        keep = self.masses > 0
        return AtomicMeasure(self.points[keep], self.masses[keep])

    def negative_part(self) -> "AtomicMeasure":
        """The measure nu with self = positive_part - nu; masses returned positive."""
        keep = self.masses < 0
        return AtomicMeasure(self.points[keep], -self.masses[keep])

    def scale(self, factor: float) -> "AtomicMeasure":
        return AtomicMeasure.from_atoms([(p, factor * m) for p, m in self.atoms()],
                                        dim=self.dim)

    def __add__(self, other: "AtomicMeasure") -> "AtomicMeasure":
        # from_atoms(self.atoms() + other.atoms()), without a Python list of atoms
        both = [m for m in (self, other) if len(m.masses)] or [other]
        return AtomicMeasure._merged(np.concatenate([m.points for m in both]),
                                     [x for m in both for x in m.masses.tolist()])

    def __sub__(self, other: "AtomicMeasure") -> "AtomicMeasure":
        # other's atoms are already merged, nonzero and sorted, so negating its
        # masses gives the arrays other.scale(-1.0) would build
        return self + AtomicMeasure(other.points, -other.masses)

    def mass_at(self, p) -> float:
        q = as_point(p)
        for r, m in self.atoms():
            if float(np.max(np.abs(r - q))) <= MERGE_TOL:
                return m
        return 0.0

    def restrict(self, region: BallRegion) -> "AtomicMeasure":
        kept = [(p, m) for p, m in self.atoms() if region.contains(p)]
        return AtomicMeasure.from_atoms(kept, dim=self.dim)

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.masses >= -THETA_TOL)) if len(self.masses) else True


@dataclass(frozen=True)
class TrafficPath:
    """Weighted embedded digraph; edges carry strictly positive theta."""

    vertices: np.ndarray
    edges: tuple  # of (tail_index, head_index, theta)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def segments(self) -> list[tuple[np.ndarray, np.ndarray, float]]:
        return [(self.vertices[i], self.vertices[j], th) for i, j, th in self.edges]

    def is_empty(self) -> bool:
        return len(self.edges) == 0


def empty_path(dim: int) -> TrafficPath:
    return TrafficPath(np.zeros((0, dim)), ())


def from_segments(segs, dim: int | None = None, merge_tol: float = MERGE_TOL) -> TrafficPath:
    """Normalize a raw segment soup without collinear overlay.

    Deduplicates vertices at merge_tol, nets out parallel and antiparallel
    edges between identical vertex pairs, drops zero-length edges and
    multiplicities below 1e-12.  Use ``overlay`` when segments of distinct
    inputs may partially cover each other.
    """
    segs = list(segs)
    if not segs:
        if dim is None:
            raise ValueError("empty path needs an explicit dimension")
        return empty_path(dim)
    rows = _rows(_as_points([p for a, b, _ in segs for p in (a, b)]))
    return _from_rows(rows, [float(th) for _, _, th in segs], len(rows[0]), merge_tol)


def _from_rows(rows: list[tuple[float, ...]], thetas: list[float], d: int,
               merge_tol: float) -> TrafficPath:
    """``from_segments`` of the segments rows[2k] -> rows[2k+1] with multiplicity thetas[k]."""
    keep = [k for k in range(len(thetas)) if math.dist(rows[2 * k], rows[2 * k + 1]) > THETA_TOL]
    if len(keep) < len(thetas):
        rows = [rows[i] for k in keep for i in (2 * k, 2 * k + 1)]
        thetas = [thetas[k] for k in keep]
    merged = _merge_rows(rows, merge_tol)
    net: dict[tuple[int, int], float] = {}
    for k, th in enumerate(thetas):
        i, j = merged[2 * k], merged[2 * k + 1]
        if i == j:
            continue
        key, sign = ((i, j), 1.0) if i < j else ((j, i), -1.0)
        net[key] = net.get(key, 0.0) + sign * th
    return _assemble(rows, net, d)


def _edges_of(*paths: TrafficPath) -> tuple[np.ndarray, list[float]]:
    """The paths' edges in order: a (2m, d) array of tail and head rows, and the thetas."""
    ends = np.concatenate([t.vertices[[v for i, j, _ in t.edges for v in (i, j)]]
                           for t in paths])
    return ends, [th for t in paths for _, _, th in t.edges]


def _assemble(points: list[tuple[float, ...]], net: dict[tuple[int, int], float], d: int) -> TrafficPath:
    """Canonical vertex order plus signed pair-merged edges -> TrafficPath."""
    edges = []
    used = set()
    for (i, j), th in net.items():
        if abs(th) <= THETA_TOL:
            continue
        if th > 0:
            edges.append((i, j, th))
        else:
            edges.append((j, i, -th))
        used.update((i, j))
    if not edges:
        return empty_path(d)
    keep = sorted(used, key=points.__getitem__)
    remap = {old: new for new, old in enumerate(keep)}
    verts = np.array([points[k] for k in keep])
    out = sorted(((remap[i], remap[j], th) for i, j, th in edges))
    return TrafficPath(verts, tuple(out))


def _line_groups(a: np.ndarray, b: np.ndarray, thetas: list[float]) -> list:
    """Group the segments a[k] -> b[k] by supporting line: one list of intervals per line.

    A line is its canonical direction u (the first component above 1e-12
    made positive) and foot point p0; lines merge when both agree within
    LINE_TOL (Chebyshev), through ``_merge_rows`` on the concatenated
    (u, p0) rows, and a group keeps the line of its first segment.  Each
    interval is (lo, hi, signed theta, segment index) with lo < hi the
    segment's parameters along the group's line; theta is negated when
    the segment runs against u.  Groups come in order of their first
    segment, intervals in segment order.
    """
    u = b - a
    u = u / row_norms(u)[:, None]
    lead = u[np.arange(len(u)), (np.abs(u) > THETA_TOL).argmax(axis=1)]
    u *= np.where(lead < 0, -1.0, 1.0)[:, None]  # an exact sign flip
    p0 = a - row_dots(a, u)[:, None] * u
    first = _merge_rows(_rows(np.concatenate([u, p0], axis=1)), LINE_TOL)
    lu, lp = u[first], p0[first]
    ta, tb = row_dots(a - lp, lu).tolist(), row_dots(b - lp, lu).tolist()
    groups: dict[int, list] = {}
    for k, (g, lo, hi, th) in enumerate(zip(first, ta, tb, thetas)):
        groups.setdefault(g, []).append((lo, hi, th, k) if hi > lo else (hi, lo, -th, k))
    return list(groups.values())


def overlay(segs, dim: int | None = None) -> TrafficPath:
    """Measure-theoretic sum of weighted segments.

    Segments are grouped by supporting line through ``_line_groups`` (1e-9
    tolerance on direction and offset), each line is cut at every endpoint
    parameter, elementary intervals get the net signed multiplicity of all
    covering segments, and runs of equal multiplicity are fused back into
    maximal edges.  Each run endpoint takes the coordinates of the first
    input endpoint snapped to its parameter, so every output vertex is an
    input vertex and a segment grouped onto a line that agrees with its
    own only within 1e-9 keeps its endpoints.
    """
    segs = list(segs)
    ends = _as_points([p for a, b, _ in segs for p in (a, b)])
    return _overlay_ends(ends, [float(th) for _, _, th in segs], dim)


def _overlay_ends(ends: np.ndarray, thetas: list[float], dim: int | None) -> TrafficPath:
    """``overlay`` of the segments ends[2k] -> ends[2k+1] with multiplicity thetas[k]."""
    rows = _rows(ends)
    keep = [k for k, th in enumerate(thetas)
            if math.dist(rows[2 * k], rows[2 * k + 1]) > THETA_TOL and abs(th) > 0.0]
    if not keep:
        if dim is None:
            raise ValueError("empty overlay needs an explicit dimension")
        return empty_path(dim)
    if len(keep) < len(thetas):
        pick = [i for k in keep for i in (2 * k, 2 * k + 1)]
        rows, ends = [rows[i] for i in pick], ends[pick]
        thetas = [thetas[k] for k in keep]
    out_rows: list[tuple[float, ...]] = []
    out_thetas: list[float] = []

    def emit(tail: int, head: int, th: float) -> None:
        out_rows.extend((rows[tail], rows[head]))
        out_thetas.append(th)

    for intervals in _line_groups(ends[0::2], ends[1::2], thetas):
        if len(intervals) == 1:
            # the run loop below on one interval: it keeps the segment, with
            # multiplicity |theta| and running along theta's sign, exactly
            # when hi survives the coalescing and does not snap back to lo
            lo, hi, th, k = intervals[0]
            if hi - lo > THETA_TOL and hi - THETA_TOL > lo and abs(th) > THETA_TOL:
                seg_th = thetas[k]
                if seg_th > 0:
                    emit(2 * k, 2 * k + 1, seg_th)
                else:
                    emit(2 * k + 1, 2 * k, -seg_th)
            continue
        raw = sorted({t for lo, hi, _, _ in intervals for t in (lo, hi)})
        # coalesce parameter values that differ only by floating dust
        reps: list[float] = []
        for t in raw:
            if not reps or t - reps[-1] > THETA_TOL:
                reps.append(t)

        def snap(t: float) -> float:
            # first representative not below t - THETA_TOL; t's own is one
            return reps[bisect.bisect_left(reps, t - THETA_TOL)]

        delta: dict[float, float] = {t: 0.0 for t in reps}
        where: dict[float, int] = {}
        for lo, hi, th, k in intervals:
            lo_row, hi_row = (2 * k, 2 * k + 1) if th == thetas[k] else (2 * k + 1, 2 * k)
            lo, hi = snap(lo), snap(hi)
            delta[lo] += th
            delta[hi] -= th
            where.setdefault(lo, lo_row)
            where.setdefault(hi, hi_row)
        run_start = None
        run_mult = 0.0
        cur = 0.0
        for k, t in enumerate(reps):
            cur += delta[t]
            nxt_mult = cur if k + 1 < len(reps) else 0.0
            if run_start is None:
                if k + 1 < len(reps) and abs(nxt_mult) > THETA_TOL:
                    run_start, run_mult = t, nxt_mult
                continue
            if k + 1 >= len(reps) or abs(nxt_mult - run_mult) > THETA_TOL:
                if run_mult > 0:
                    emit(where[run_start], where[t], run_mult)
                else:
                    emit(where[t], where[run_start], -run_mult)
                run_start, run_mult = None, 0.0
                if k + 1 < len(reps) and abs(nxt_mult) > THETA_TOL:
                    run_start, run_mult = t, nxt_mult
    return _from_rows(out_rows, out_thetas, len(rows[0]), MERGE_TOL)


def add(t1: TrafficPath, t2: TrafficPath) -> TrafficPath:
    if t1.dim != t2.dim:
        raise ValueError("dimension mismatch")
    return _overlay_ends(*_edges_of(t1, t2), t1.dim)


def reverse(t: TrafficPath) -> TrafficPath:
    return TrafficPath(t.vertices, tuple((j, i, th) for i, j, th in t.edges))


def subtract(t1: TrafficPath, t2: TrafficPath) -> TrafficPath:
    return add(t1, reverse(t2))


def scale(t: TrafficPath, factor: float) -> TrafficPath:
    """Multiply every multiplicity by factor > 0 (0 empties the path)."""
    if factor < 0:
        raise ValueError("negative scale: reverse the path instead")
    if factor == 0:
        return empty_path(t.dim)
    return TrafficPath(t.vertices, tuple((i, j, th * factor) for i, j, th in t.edges))


def mass(t: TrafficPath) -> float:
    return sum(th * float(np.linalg.norm(b - a)) for a, b, th in t.segments())


def alpha_mass(t: TrafficPath, alpha: float) -> float:
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return sum(th ** alpha * float(np.linalg.norm(b - a)) for a, b, th in t.segments())


def boundary(t: TrafficPath) -> AtomicMeasure:
    """Boundary 0-current: sum of theta * (delta_head - delta_tail)."""
    net: dict[int, float] = {}
    for i, j, th in t.edges:
        net[j] = net.get(j, 0.0) + th
        net[i] = net.get(i, 0.0) - th
    return AtomicMeasure.from_atoms([(t.vertices[k], m) for k, m in net.items()],
                                    dim=t.dim)


def restrict(t: TrafficPath, region: BallRegion) -> TrafficPath:
    """Restriction to a ball region; edges split exactly at sphere crossings.

    Piece endpoints keep their exact crossing coordinates (vertex merging
    at 1e-12 only), so the alpha-masses of T restricted to A and to its
    complement add back to alpha_mass(T) at floating precision.
    """
    if t.is_empty():
        return empty_path(t.dim)
    ends, thetas = _edges_of(t)
    a, b = ends[0::2], ends[1::2]
    edge, lo, hi = [], [], []
    for k, params in enumerate(sphere_params(a, b, region.terms)):
        cuts = [0.0, *params, 1.0]
        for s, e in zip(cuts[:-1], cuts[1:]):
            if e - s > THETA_TOL:
                edge.append(k)
                lo.append(s)
                hi.append(e)
    a, u = a[edge], (b - a)[edge]
    lo, hi = np.array(lo)[:, None], np.array(hi)[:, None]
    inside = region.contains_rows(a + 0.5 * (lo + hi) * u)
    pieces = np.empty((2 * int(inside.sum()), t.dim))
    pieces[0::2] = (a + lo * u)[inside]
    pieces[1::2] = (a + hi * u)[inside]
    kept = [thetas[k] for k, keep in zip(edge, inside.tolist()) if keep]
    return _from_rows(_rows(pieces), kept, t.dim, 1e-12)


def push_forward(t: TrafficPath, mapping) -> TrafficPath:
    """Image current under a Lipschitz map given by a map object.

    The map object must expose apply(point), a ``lipschitz`` constant and
    breakpoints(a, b) giving extra subdivision parameters per segment.
    Vertices are mapped, each sub-segment is re-embedded as a straight
    segment, and overlapping images are merged with multiplicity sums, so
    alpha_mass never exceeds lipschitz * alpha_mass(input).
    """
    for attr in ("apply", "lipschitz", "breakpoints"):
        if not hasattr(mapping, attr):
            raise TypeError("unsupported map kind for push_forward")
    if t.is_empty():
        return empty_path(t.dim)
    segs = []
    for a, b, th in t.segments():
        params = [0.0] + sorted(mapping.breakpoints(a, b)) + [1.0]
        pts = [mapping.apply(a + tt * (b - a)) for tt in params]
        for p, q in zip(pts[:-1], pts[1:]):
            segs.append((p, q, th))
    out_dim = len(mapping.apply(t.vertices[0])) if len(t.vertices) else t.dim
    return overlay(segs, dim=out_dim)
