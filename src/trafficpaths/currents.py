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
merging and line grouping share one registry (``_PointIndex``), which
probes only the grid buckets that can hold a point within tolerance, so
each lookup costs one bucket probe away from bucket faces.

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

from .geometry import Ball, BallRegion, as_point, segment_sphere_params, project_to_ball

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
        d = len(as_point(atoms[0][0]))
        index = _PointIndex(tol)
        net: dict[int, float] = {}
        for p, m in atoms:
            i = index.insert(tuple(as_point(p).tolist()))
            net[i] = net.get(i, 0.0) + float(m)
        pts, ms = [], []
        for i, m in net.items():
            if abs(m) > THETA_TOL:
                pts.append(index.points[i])
                ms.append(m)
        if not pts:
            return AtomicMeasure(np.zeros((0, d)), np.zeros(0))
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
        return AtomicMeasure.from_atoms(self.atoms() + other.atoms(),
                                        dim=self.dim if len(self.masses) else other.dim)

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
    d = len(as_point(segs[0][0]))
    index = _PointIndex(merge_tol)
    net: dict[tuple[int, int], float] = {}
    for a, b, th in segs:
        pa, pb = tuple(as_point(a).tolist()), tuple(as_point(b).tolist())
        if math.dist(pa, pb) <= THETA_TOL:
            continue
        i, j = index.insert(pa), index.insert(pb)
        if i == j:
            continue
        key, sign = ((i, j), 1.0) if i < j else ((j, i), -1.0)
        net[key] = net.get(key, 0.0) + sign * float(th)
    return _assemble(index.points, net, d)


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


def _canonical_line(a: np.ndarray, b: np.ndarray):
    u = b - a
    u = u / np.linalg.norm(u)
    for c in u:
        if abs(c) > THETA_TOL:
            if c < 0:
                u = -u
            break
    p0 = a - float(a @ u) * u
    return u, p0


def _line_groups(segs) -> list:
    """Group segments by supporting line: one list of intervals per line.

    A line is its canonical direction u and foot point p0; lines merge when
    both agree within LINE_TOL (Chebyshev), found through a _PointIndex on
    the concatenated (u, p0) vector, and a group keeps the line of its
    first segment.  Each interval is (lo, hi, signed theta, segment index)
    with lo < hi the segment's parameters along the group's line; theta is
    negated when the segment runs against u.
    """
    index = _PointIndex(LINE_TOL)
    groups: list[tuple[np.ndarray, np.ndarray, list]] = []
    for k, (a, b, th) in enumerate(segs):
        u, p0 = _canonical_line(a, b)
        found = index.insert((*u.tolist(), *p0.tolist()))
        if found == len(groups):
            groups.append((u, p0, []))
        lu, lp, intervals = groups[found]
        ta, tb = float((a - lp) @ lu), float((b - lp) @ lu)
        intervals.append((ta, tb, th, k) if tb > ta else (tb, ta, -th, k))
    return [intervals for _, _, intervals in groups]


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
    segs = [(as_point(a), as_point(b), float(th)) for a, b, th in segs]
    segs = [(a, b, th) for a, b, th in segs
            if math.dist(a.tolist(), b.tolist()) > THETA_TOL and abs(th) > 0.0]
    if not segs:
        if dim is None:
            raise ValueError("empty overlay needs an explicit dimension")
        return empty_path(dim)
    d = len(segs[0][0])
    out_segs: list[tuple[np.ndarray, np.ndarray, float]] = []
    for intervals in _line_groups(segs):
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
        where: dict[float, np.ndarray] = {}
        for lo, hi, th, k in intervals:
            a, b, seg_th = segs[k]
            lo_pt, hi_pt = (a, b) if th == seg_th else (b, a)
            lo, hi = snap(lo), snap(hi)
            delta[lo] += th
            delta[hi] -= th
            where.setdefault(lo, lo_pt)
            where.setdefault(hi, hi_pt)
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
                pa, pb = where[run_start], where[t]
                if run_mult > 0:
                    out_segs.append((pa, pb, run_mult))
                else:
                    out_segs.append((pb, pa, -run_mult))
                run_start, run_mult = None, 0.0
                if k + 1 < len(reps) and abs(nxt_mult) > THETA_TOL:
                    run_start, run_mult = t, nxt_mult
    return from_segments(out_segs, dim=d)


def add(t1: TrafficPath, t2: TrafficPath) -> TrafficPath:
    if t1.dim != t2.dim:
        raise ValueError("dimension mismatch")
    return overlay(t1.segments() + t2.segments(), dim=t1.dim)


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
    pieces = []
    for a, b, th in t.segments():
        params = sorted({tt for ball in region.terms for tt in segment_sphere_params(a, b, ball)})
        cuts = [0.0] + params + [1.0]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi - lo <= THETA_TOL:
                continue
            mid = a + 0.5 * (lo + hi) * (b - a)
            if region.contains(mid):
                pieces.append((a + lo * (b - a), a + hi * (b - a), th))
    return from_segments(pieces, dim=t.dim, merge_tol=1e-12)


class AffineMap:
    """x -> A x + b; Lipschitz constant is the spectral norm of A.

    Tests use it to check that push_forward contracts alpha_mass by at most
    the Lipschitz constant.
    """

    def __init__(self, matrix, offset):
        self.matrix = np.asarray(matrix, dtype=float)
        self.offset = np.asarray(offset, dtype=float)
        self.lipschitz = float(np.linalg.norm(self.matrix, 2))

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.matrix @ p + self.offset

    def breakpoints(self, a: np.ndarray, b: np.ndarray) -> list[float]:
        return []


class BallProjection:
    """Nearest-point projection onto a closed ball (1-Lipschitz).

    Tests use it to check push-forward contraction by the Lipschitz
    constant on a nonlinear map.
    """

    def __init__(self, ball: Ball):
        self.ball = ball
        self.lipschitz = 1.0

    def apply(self, p: np.ndarray) -> np.ndarray:
        return project_to_ball(p, self.ball)

    def breakpoints(self, a: np.ndarray, b: np.ndarray) -> list[float]:
        # split where the segment meets the sphere so inside parts stay exact
        return segment_sphere_params(a, b, self.ball)


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
