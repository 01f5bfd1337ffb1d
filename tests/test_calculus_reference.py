"""The array path calculus and curve surgery against the scalar code they replaced.

``overlay``, ``from_segments``, ``restrict``, ``_line_groups`` and
``AtomicMeasure.from_atoms`` compute canonical lines, interval
parameters, sphere crossings and memberships for all segments at once and
merge vertices through ``_merge_rows``.  ``split_curves`` walks and clips
a whole curve family at once, and ``cell_indices`` locates all its
endpoints.  The scalar versions below are the previous implementations,
kept as the reference: every answer must be bit-identical to theirs
(``np.array_equal`` on vertices and points, ``==`` on edges and masses,
``tobytes`` on curve waypoints and arclengths, the same raised message).
"""

import bisect
import math

import numpy as np
import pytest

from trafficpaths import currents, geometry
from trafficpaths import decomposition as dcmp
from trafficpaths.currents import MERGE_TOL, THETA_TOL, AtomicMeasure, TrafficPath
from trafficpaths.decomposition import WEIGHT_TOL, Curve, PathMeasure
from trafficpaths.geometry import Ball, BallRegion


# ---------------------------------------------------------------------------
# the scalar reference


def _ref_from_segments(segs, dim, merge_tol=MERGE_TOL):
    segs = list(segs)
    if not segs:
        return currents.empty_path(dim)
    d = len(np.asarray(segs[0][0]))
    index = currents._PointIndex(merge_tol)
    net = {}
    for a, b, th in segs:
        pa, pb = tuple(np.asarray(a, float).tolist()), tuple(np.asarray(b, float).tolist())
        if math.dist(pa, pb) <= THETA_TOL:
            continue
        i, j = index.insert(pa), index.insert(pb)
        if i == j:
            continue
        key, sign = ((i, j), 1.0) if i < j else ((j, i), -1.0)
        net[key] = net.get(key, 0.0) + sign * float(th)
    return currents._assemble(index.points, net, d)


def _ref_canonical_line(a, b):
    u = b - a
    u = u / np.linalg.norm(u)
    for c in u:
        if abs(c) > THETA_TOL:
            if c < 0:
                u = -u
            break
    p0 = a - float(a @ u) * u
    return u, p0


def _ref_line_groups(segs):
    index = currents._PointIndex(currents.LINE_TOL)
    groups = []
    for k, (a, b, th) in enumerate(segs):
        u, p0 = _ref_canonical_line(a, b)
        found = index.insert((*u.tolist(), *p0.tolist()))
        if found == len(groups):
            groups.append((u, p0, []))
        lu, lp, intervals = groups[found]
        ta, tb = float((a - lp) @ lu), float((b - lp) @ lu)
        intervals.append((ta, tb, th, k) if tb > ta else (tb, ta, -th, k))
    return [intervals for _, _, intervals in groups]


def _ref_overlay(segs, dim):
    segs = [(np.asarray(a, float), np.asarray(b, float), float(th)) for a, b, th in segs]
    segs = [(a, b, th) for a, b, th in segs
            if math.dist(a.tolist(), b.tolist()) > THETA_TOL and abs(th) > 0.0]
    if not segs:
        return currents.empty_path(dim)
    out_segs = []
    for intervals in _ref_line_groups(segs):
        raw = sorted({t for lo, hi, _, _ in intervals for t in (lo, hi)})
        reps = []
        for t in raw:
            if not reps or t - reps[-1] > THETA_TOL:
                reps.append(t)

        def snap(t):
            return reps[bisect.bisect_left(reps, t - THETA_TOL)]

        delta = {t: 0.0 for t in reps}
        where = {}
        for lo, hi, th, k in intervals:
            a, b, seg_th = segs[k]
            lo_pt, hi_pt = (a, b) if th == seg_th else (b, a)
            lo, hi = snap(lo), snap(hi)
            delta[lo] += th
            delta[hi] -= th
            where.setdefault(lo, lo_pt)
            where.setdefault(hi, hi_pt)
        run_start, run_mult, cur = None, 0.0, 0.0
        for k, t in enumerate(reps):
            cur += delta[t]
            nxt_mult = cur if k + 1 < len(reps) else 0.0
            if run_start is None:
                if k + 1 < len(reps) and abs(nxt_mult) > THETA_TOL:
                    run_start, run_mult = t, nxt_mult
                continue
            if k + 1 >= len(reps) or abs(nxt_mult - run_mult) > THETA_TOL:
                pa, pb = where[run_start], where[t]
                out_segs.append((pa, pb, run_mult) if run_mult > 0 else (pb, pa, -run_mult))
                run_start, run_mult = None, 0.0
                if k + 1 < len(reps) and abs(nxt_mult) > THETA_TOL:
                    run_start, run_mult = t, nxt_mult
    return _ref_from_segments(out_segs, dim)


def _ref_sphere_params(a, b, ball):
    u = b - a
    w = a - ball.center
    A = float(u @ u)
    if A <= geometry.PARAM_TOL ** 2:
        return []
    B = 2.0 * float(u @ w)
    C = float(w @ w) - ball.radius ** 2
    disc = B * B - 4.0 * A * C
    if disc <= 1e-30:
        return []
    sq = np.sqrt(disc)
    q = -0.5 * (B + np.copysign(sq, B if B != 0 else 1.0))
    roots = [q / A, C / q] if abs(q) > 0 else [-B / (2 * A)]
    out = sorted(t for t in roots if geometry.PARAM_TOL < t < 1.0 - geometry.PARAM_TOL)
    dedup = []
    for t in out:
        if not dedup or t - dedup[-1] > geometry.PARAM_TOL:
            dedup.append(float(t))
    return dedup


def _ref_contains(region, q):
    if region.kind == "union":
        inside = any(b.contains(q) for b in region.terms)
    else:
        inside = region.terms[-1].contains(q) and not any(
            b.open_copy().contains(q) for b in region.terms[:-1])
    return inside != region.complement


def _ref_restrict(t, region):
    pieces = []
    for a, b, th in t.segments():
        params = sorted({tt for ball in region.terms for tt in _ref_sphere_params(a, b, ball)})
        cuts = [0.0] + params + [1.0]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi - lo <= THETA_TOL:
                continue
            mid = a + 0.5 * (lo + hi) * (b - a)
            if _ref_contains(region, mid):
                pieces.append((a + lo * (b - a), a + hi * (b - a), th))
    return _ref_from_segments(pieces, t.dim, merge_tol=1e-12)


def _ref_from_atoms(atoms, dim, tol=MERGE_TOL):
    index = currents._PointIndex(tol)
    net = {}
    for p, m in atoms:
        i = index.insert(tuple(np.asarray(p, float).tolist()))
        net[i] = net.get(i, 0.0) + float(m)
    kept = [(index.points[i], m) for i, m in net.items() if abs(m) > THETA_TOL]
    kept.sort(key=lambda pm: pm[0])
    if not kept:
        return np.zeros((0, dim)), np.zeros(0)
    return np.array([p for p, _ in kept]), np.array([m for _, m in kept])


def _ref_segment_params(c, region, k):
    a, b = c.waypoints[k], c.waypoints[k + 1]
    out = set()
    for ball in region.terms:
        out.update(geometry.segment_sphere_params(a, b, ball))
    return sorted(out)


def _ref_walk_to_outside(c, region, forward):
    steps = range(len(c.waypoints) - 1)
    for k in (steps if forward else reversed(steps)):
        a, b = c.waypoints[k], c.waypoints[k + 1]
        locs = [0.0] + _ref_segment_params(c, region, k) + [1.0]
        pieces = list(zip(locs[:-1], locs[1:]))
        for lo, hi in (pieces if forward else reversed(pieces)):
            near = lo if forward else hi
            if not (region.contains(a + near * (b - a))
                    and region.contains(a + 0.5 * (lo + hi) * (b - a))):
                return float(c._cum[k]) + near * float(c._cum[k + 1] - c._cum[k])
    if not region.contains(c.end() if forward else c.start()):
        return c.length() if forward else 0.0
    return None


def _ref_first_exit(c, region):
    s = _ref_walk_to_outside(c, region, forward=True)
    return math.inf if s is None else s


def _ref_last_entry(c, region):
    s = _ref_walk_to_outside(c, region, forward=False)
    return 0.0 if s is None else s


def _ref_restrict_curve(c, a, b):
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


def _ref_split_curve(c, start=None, end=None):
    s = 0.0 if start is None else _ref_first_exit(c, start)
    if not math.isfinite(s):
        raise ValueError("curve never leaves its start region")
    e = c.length() if end is None else _ref_last_entry(c, end)
    windows = ((start is not None, 0.0, s),
               (start is not None and end is not None, s, e),
               (end is not None, e, c.length()))
    pieces = []
    for wanted, a, b in windows:
        piece = _ref_restrict_curve(c, a, b) if wanted else None
        if wanted and piece is None:
            raise ValueError("curve piece collapsed to a point at a cut")
        pieces.append(piece)
    return tuple(pieces)


def _ref_cell_index(cells, point):
    return next((k for k, spec in enumerate(cells) if spec.cell.contains(point)), None)


def _ref_cut_curves(pi, cells, mode):
    from_start = mode == "from-start"
    out = []
    for c, w in pi.entries:
        idx = _ref_cell_index(cells, c.start() if from_start else c.end())
        if idx is None:
            raise ValueError("curve endpoint not in any cell")
        if from_start:
            piece, _, _ = _ref_split_curve(c, start=cells[idx].open_ball())
        else:
            _, _, piece = _ref_split_curve(c, end=cells[idx].open_ball())
        out.append((piece, w, idx))
    return out


# ---------------------------------------------------------------------------
# inputs: collinear overlaps, shared endpoints, near-duplicates, dust


def _near(rng, p, tol):
    """p moved by 0.5, 1, 1.5 or 2 tol on one or every axis."""
    step = float(rng.choice([0.5, 1.0, 1.5, 2.0])) * tol * rng.choice([-1.0, 1.0])
    q = p.copy()
    if rng.random() < 0.5:
        q[int(rng.integers(len(p)))] += step
    else:
        q += step
    return q


def _soup(rng, dim, n=24):
    """Weighted segments that exercise every tolerance of the calculus."""
    base = rng.uniform(-1.0, 1.0, size=(6, dim))
    base[1, 0] = base[0, 0]  # a shared first coordinate
    pts = list(base) + [_near(rng, base[int(rng.integers(6))], MERGE_TOL) for _ in range(4)]
    segs = []
    while len(segs) < n:
        kind = rng.random()
        th = float(rng.uniform(0.2, 2.0)) * float(rng.choice([1.0, 1.0, 1.0, -1.0]))
        if kind < 0.35:  # shared endpoints, near-duplicate endpoints
            i, j = rng.choice(len(pts), 2, replace=False)
            segs.append((pts[i], pts[j], th))
        elif kind < 0.7:  # collinear overlaps, some on a line moved by 0.5-2 LINE_TOL
            p, v = base[int(rng.integers(6))], rng.normal(size=dim)
            v /= np.linalg.norm(v)
            off = _near(rng, np.zeros(dim), currents.LINE_TOL) if rng.random() < 0.3 else 0.0
            for _ in range(3):
                s, e = rng.uniform(-1.0, 1.0, size=2).round(1)
                segs.append((p + s * v + off, p + e * v + off, th))
        elif kind < 0.85:  # reversed and repeated copies
            if segs:
                a, b, th0 = segs[int(rng.integers(len(segs)))]
                segs.append((b, a, th0) if rng.random() < 0.5 else (a, b, th))
        else:  # segments about THETA_TOL long; multiplicities 0 and about THETA_TOL
            p = pts[int(rng.integers(len(pts)))]
            v = rng.normal(size=dim)
            length = float(rng.choice([0.5, 1.0, 1.5, 3.0])) * 1e-12
            segs.append((p, p + length * v / np.linalg.norm(v), th))
            q = pts[int(rng.integers(len(pts)))]
            segs.append((p, q, float(rng.choice([0.0, 0.5e-12, 1e-12, 2e-12]))))
    return segs


def _assert_same_path(got: TrafficPath, want: TrafficPath):
    assert np.array_equal(got.vertices, want.vertices)
    assert got.edges == want.edges


@pytest.mark.parametrize("dim", [2, 3])
def test_overlay_and_from_segments_match_scalar_reference(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(60):
        segs = _soup(rng, dim, n=int(rng.integers(3, 30)))
        _assert_same_path(currents.overlay(segs, dim=dim), _ref_overlay(segs, dim))
        for tol in (MERGE_TOL, 1e-12):
            _assert_same_path(currents.from_segments(segs, dim=dim, merge_tol=tol),
                              _ref_from_segments(segs, dim, merge_tol=tol))


@pytest.mark.parametrize("dim", [2, 3])
def test_line_groups_match_scalar_reference(dim):
    rng = np.random.default_rng(200 + dim)
    for _ in range(40):
        segs = [(a, b, th) for a, b, th in _soup(rng, dim)
                if math.dist(a.tolist(), b.tolist()) > THETA_TOL]
        a = np.array([s[0] for s in segs])
        b = np.array([s[1] for s in segs])
        got = currents._line_groups(a, b, [th for _, _, th in segs])
        assert got == _ref_line_groups(segs)


def _regions(rng, path):
    """Unions, cells and complements of balls, some through vertices or tangent to edges."""
    dim = path.dim
    balls = []
    for _ in range(int(rng.integers(1, 4))):
        c = rng.uniform(-1.0, 1.0, size=dim)
        r = float(rng.uniform(0.2, 1.2))
        if rng.random() < 0.4:  # the sphere runs through a vertex
            v = path.vertices[int(rng.integers(len(path.vertices)))]
            r = float(np.linalg.norm(v - c)) or r
        balls.append(Ball(c, r, closed=bool(rng.random() < 0.7)))
    i, j, _ = path.edges[0]
    a, b = path.vertices[i], path.vertices[j]
    normal = np.zeros(dim)
    normal[:2] = (b - a)[1::-1] * [1.0, -1.0]
    if np.linalg.norm(normal) > 0:  # a sphere tangent to the first edge at its middle
        normal /= np.linalg.norm(normal)
        balls.append(Ball(0.5 * (a + b) + 0.7 * normal, 0.7))
    union = BallRegion.union_of(balls)
    # a cell whose last ball holds every vertex, so the earlier spheres' own
    # points (the vertices placed on them) test the open earlier terms
    cell = BallRegion.cell(len(balls), balls + [Ball(np.zeros(dim), 5.0)])
    return [union, union.complemented(), cell, cell.complemented()]


@pytest.mark.parametrize("dim", [2, 3])
def test_restrict_matches_scalar_reference(dim):
    rng = np.random.default_rng(300 + dim)
    for _ in range(30):
        t = currents.overlay(_soup(rng, dim), dim=dim)
        if t.is_empty():
            continue
        for region in _regions(rng, t):
            _assert_same_path(currents.restrict(t, region), _ref_restrict(t, region))
            mids = 0.5 * (t.vertices[:-1] + t.vertices[1:])
            pts = np.concatenate([t.vertices, mids])
            assert region.contains_rows(pts).tolist() == [_ref_contains(region, p) for p in pts]
            assert [region.contains(p) for p in pts] == [_ref_contains(region, p) for p in pts]


@pytest.mark.parametrize("dim", [2, 3])
def test_sphere_params_match_scalar_reference(dim):
    rng = np.random.default_rng(400 + dim)
    for _ in range(40):
        balls = [Ball(rng.uniform(-1.0, 1.0, size=dim), float(rng.uniform(0.1, 1.5)))
                 for _ in range(int(rng.integers(1, 4)))]
        a = rng.uniform(-2.0, 2.0, size=(12, dim))
        b = rng.uniform(-2.0, 2.0, size=(12, dim))
        b[0] = a[0] + 1e-13  # too short to cross anything
        a[1] = balls[0].center + balls[0].radius * np.eye(dim)[0]  # starts on a sphere
        b[2] = a[2]
        got = geometry.sphere_params(a, b, balls)
        for k in range(len(a)):
            per_ball = [_ref_sphere_params(a[k], b[k], ball) for ball in balls]
            assert [geometry.segment_sphere_params(a[k], b[k], ball)
                    for ball in balls] == per_ball
            assert got[k] == sorted({t for ts in per_ball for t in ts})


@pytest.mark.parametrize("dim", [2, 3])
def test_from_atoms_and_measure_sums_match_scalar_reference(dim):
    rng = np.random.default_rng(500 + dim)
    for _ in range(200):
        base = rng.uniform(-1.0, 1.0, size=(4, dim))
        base[1, 0] = base[0, 0]
        pts = [base[int(rng.integers(4))] for _ in range(int(rng.integers(1, 12)))]
        pts = [_near(rng, p, MERGE_TOL) if rng.random() < 0.4 else p for p in pts]
        atoms = [(p, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0))) for p in pts]
        mu = AtomicMeasure.from_atoms(atoms, dim=dim)
        want = _ref_from_atoms(atoms, dim)
        assert np.array_equal(mu.points, want[0]) and np.array_equal(mu.masses, want[1])
        nu = AtomicMeasure.from_atoms(atoms[::-1], dim=dim)
        both = _ref_from_atoms(mu.atoms() + nu.atoms(), dim)
        assert np.array_equal((mu + nu).points, both[0])
        assert np.array_equal((mu + nu).masses, both[1])


def _polyline(rng, dim):
    """2-5 waypoints in the unit box, some coordinates -0.0, no step within 1e-3."""
    while True:
        w = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 6)), dim))
        w[rng.random(w.shape) < 0.15] = -0.0
        if np.all(np.linalg.norm(np.diff(w, axis=0), axis=1) > 1e-3):
            return Curve(w)


def _ball_at(rng, c, at_start):
    """An open ball around one end: small, through a waypoint, tangent to a segment, or huge."""
    w = c.waypoints if at_start else c.waypoints[::-1]
    kind = rng.random()
    if kind < 0.35:
        return Ball(w[0] + rng.uniform(-0.05, 0.05, size=len(w[0])),
                    float(rng.uniform(0.1, 0.8)), closed=False)
    if kind < 0.6:  # the sphere runs through a waypoint: through the far end for some
        k = len(w) - 1 if rng.random() < 0.4 else int(rng.integers(1, len(w)))
        return Ball(w[0], float(np.linalg.norm(w[k] - w[0])), closed=False)
    if kind < 0.85:  # the sphere touches a segment at its middle
        k = int(rng.integers(0, len(w) - 1))
        u = w[k + 1] - w[k]
        normal = np.cross(u, rng.normal(size=3)) if len(u) == 3 else np.array([-u[1], u[0]])
        r = float(rng.uniform(0.2, 0.6))
        return Ball(0.5 * (w[k] + w[k + 1]) + r * normal / np.linalg.norm(normal), r,
                    closed=False)
    return Ball(w[0], 5.0, closed=False)  # never left: the walk raises


def _ends_on_sphere(rng, dim):
    """A curve inside an open ball except for its end, which lies on the sphere."""
    center = rng.uniform(-0.5, 0.5, size=dim)
    r = float(rng.uniform(0.5, 1.0))
    u = rng.normal(size=dim)
    inner = center + rng.uniform(-0.3, 0.3, size=(int(rng.integers(1, 3)), dim)) * r
    c = Curve(np.vstack([inner, center + r * u / np.linalg.norm(u)]))
    ball = Ball(center, r, closed=False)
    return (c, ball) if rng.random() < 0.5 else (Curve(c.waypoints[::-1].copy()), ball)


def _assert_same_curve(got, want):
    if want is None:
        assert got is None
        return
    assert got.waypoints.shape == want.waypoints.shape
    assert got.waypoints.tobytes() == want.waypoints.tobytes()
    assert got._cum.tobytes() == want._cum.tobytes()


def _same_outcome(kernel, reference, seen):
    """Both raise the same message, or both return the same curves; records which."""
    try:
        want = reference()
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            kernel()
        assert str(info.value) == str(exc)
        seen.add(str(exc))
        return
    got = kernel()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for piece, ref in zip(g, w):
            if isinstance(ref, Curve) or ref is None:
                _assert_same_curve(piece, ref)
            else:
                assert piece == ref
    seen.add("ok")


@pytest.mark.parametrize("dim", [2, 3])
def test_curve_cuts_match_scalar_reference(dim):
    rng = np.random.default_rng(600 + dim)
    seen = set()
    assert dcmp.split_curves([], [], []) == []
    for _ in range(40):
        curves = [_polyline(rng, dim) for _ in range(int(rng.integers(1, 9)))]
        starts = [BallRegion.union_of([_ball_at(rng, c, True)]) for c in curves]
        ends = [BallRegion.union_of([_ball_at(rng, c, False)]) for c in curves]
        # one multi-ball open union for the whole family, as a sphere-gathered side uses
        union = BallRegion.union_of(
            [Ball(c.start(), float(rng.uniform(0.1, 0.7)), closed=False)
             for c in curves[:int(rng.integers(1, 4))]])
        shared = [union] * len(curves)
        for c, start, end in zip(curves, starts, ends):
            for region in (start, end, union):
                for forward, kernel, ref in ((True, dcmp.first_exit, _ref_first_exit),
                                             (False, dcmp.last_entry, _ref_last_entry)):
                    got, want = kernel(c, region), ref(c, region)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()
        for start, end in ((starts, None), (None, ends), (starts, ends), (shared, None),
                           (None, shared), (shared, ends)):
            _same_outcome(lambda: dcmp.split_curves(curves, start, end),
                          lambda: [_ref_split_curve(c, None if start is None else start[k],
                                                    None if end is None else end[k])
                                   for k, c in enumerate(curves)], seen)
        lo, hi = np.sort(rng.uniform(-0.2, 3.0, size=2)).tolist()
        for c in curves:
            a = float(rng.uniform(0.0, c.length()))
            b = a + WEIGHT_TOL
            windows = [(lo, hi)]
            for _ in range(4):  # just wider than WEIGHT_TOL: the dedup may leave one point
                b = float(np.nextafter(b, math.inf))
                windows.append((a, b))
            for s, e in windows:
                want = _ref_restrict_curve(c, s, e)
                _assert_same_curve(dcmp.restrict_curve(c, s, e), want)
                if want is None and e - s > WEIGHT_TOL:
                    seen.add("deduplicated to a point")
        for c, ball in (_ends_on_sphere(rng, dim) for _ in range(2)):
            region = BallRegion.union_of([ball])
            _same_outcome(lambda: dcmp.split_curves([c], [region], [region]),
                          lambda: [_ref_split_curve(c, region, region)], seen)
        # an ordered cover of overlapping balls around the curves' ends, open or
        # closed, one sphere through an end; an end left uncovered in some families
        centers = [c.start() if rng.random() < 0.5 else c.end() for c in curves]
        balls = [Ball(p + rng.uniform(-0.1, 0.1, size=dim), float(rng.uniform(0.15, 0.9)),
                      closed=bool(rng.random() < 0.5)) for p in centers]
        if rng.random() < 0.3:
            balls[0] = Ball(balls[0].center, float(np.linalg.norm(curves[0].end()
                                                                  - balls[0].center)))
        cells = dcmp.cells_of_cover(balls[:len(balls) - int(rng.random() < 0.2)])
        pts = [p for c in curves for p in (c.start(), c.end())]
        assert dcmp.cell_indices(cells, pts).tolist() == [
            -1 if k is None else k for k in (_ref_cell_index(cells, p) for p in pts)]
        pi = PathMeasure(tuple((c, float(rng.uniform(0.1, 1.0))) for c in curves))
        for mode in ("from-start", "from-end"):
            _same_outcome(lambda: dcmp.cut_curves(pi, cells, mode),
                          lambda: _ref_cut_curves(pi, cells, mode), seen)
    assert dcmp.cut_curves(PathMeasure(()), cells, "from-start") == []
    assert seen == {"ok", "deduplicated to a point", "curve never leaves its start region",
                    "curve piece collapsed to a point at a cut",
                    "window start exceeds window end", "curve endpoint not in any cell"}
