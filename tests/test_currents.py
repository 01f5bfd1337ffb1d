import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficpaths import currents, geometry
from trafficpaths.currents import AtomicMeasure, Config
from trafficpaths.geometry import Ball, BallRegion

from conftest import AffineMap, BallProjection, random_acyclic_path


def seg(ax, ay, bx, by, th):
    return (np.array([ax, ay], dtype=float), np.array([bx, by], dtype=float), th)


class _ScanPointIndex:
    """Reference registry: scans all 3^dim neighbour buckets of a 1e-6 grid.

    This was ``currents._PointIndex`` before it probed only the buckets a
    match can occupy; the pruned registry must return the same indices.
    """

    def __init__(self, dim: int, tol: float = currents.MERGE_TOL, grid: float = 1e-6):
        self.tol = tol
        self.grid = grid
        self.points: list[np.ndarray] = []
        self._buckets: dict[tuple, list[int]] = {}
        self._offsets = list(itertools.product((-1, 0, 1), repeat=dim))

    def _key(self, p: np.ndarray) -> tuple:
        return tuple(int(v) for v in np.floor(p / self.grid))

    def find(self, p: np.ndarray) -> int:
        k = self._key(p)
        for off in self._offsets:
            kk = tuple(a + b for a, b in zip(k, off))
            for idx in self._buckets.get(kk, ()):
                if float(np.max(np.abs(self.points[idx] - p))) <= self.tol:
                    return idx
        return -1

    def insert(self, p: np.ndarray) -> int:
        idx = self.find(p)
        if idx >= 0:
            return idx
        self.points.append(np.array(p, dtype=float))
        idx = len(self.points) - 1
        self._buckets.setdefault(self._key(p), []).append(idx)
        return idx


# ---------------------------------------------------------------------------
# measures


def test_measure_merges_close_atoms_and_drops_zeros():
    mu = AtomicMeasure.from_atoms([((0.0, 0.0), 1.0), ((0.0, 1e-10), 2.0),
                                   ((1.0, 0.0), 1e-13)])
    assert len(mu.masses) == 1
    assert mu.total() == pytest.approx(3.0)


def test_measure_merges_atoms_farther_apart_than_the_default_grid():
    # the bucket grid follows tol, so atoms 5e-4 apart merge at tol 1e-3
    mu = AtomicMeasure.from_atoms([((0.0, 0.0), 1.0), ((5e-4, 0.0), 1.0)], tol=1e-3)
    assert len(mu.masses) == 1
    assert mu.total() == pytest.approx(2.0)


# coordinates within 3e-9 of a 1e-6 bucket face, where the probe range
# widens to two buckets on that axis
_near_face = st.builds(lambda k, e: k * 1e-6 + e, st.integers(-2, 2),
                       st.floats(-3e-9, 3e-9))


def _flip_zeros(p: tuple) -> tuple:
    """p with the sign of every zero coordinate flipped: 0.0 <-> -0.0."""
    return tuple(-x if x == 0.0 else x for x in p)


@settings(max_examples=150, deadline=None)
@given(dim=st.sampled_from([2, 3, 4, 6]), data=st.data())
def test_point_index_matches_full_neighbour_scan(dim, data):
    coord = st.one_of(_near_face, st.just(0.0))
    centres = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=4))
    # jitter up to 1.5e-9 per axis: pairs of one centre fall on both sides of tol
    jitter = st.one_of(st.floats(-1.5e-9, 1.5e-9), st.just(0.0))
    point = st.builds(lambda i, e: tuple(c + x for c, x in zip(centres[i], e)),
                      st.integers(0, len(centres) - 1), st.tuples(*[jitter] * dim))
    points = data.draw(st.lists(point, min_size=1, max_size=30))
    # exact repeats of earlier points and their -0.0 / 0.0 twins, anywhere later
    for pos, src, flip in data.draw(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60),
                                                       st.booleans()), max_size=10)):
        p = points[src % len(points)]
        points.insert(pos % (len(points) + 1), _flip_zeros(p) if flip else p)
    pruned, scan = currents._PointIndex(), _ScanPointIndex(dim)
    want = [scan.insert(np.array(p)) for p in points]
    assert [pruned.insert(p) for p in points] == want
    # the batch merge names each class by its first row; number them in order
    classes: dict[int, int] = {}
    assert [classes.setdefault(r, len(classes))
            for r in currents._merge_rows(points, currents.MERGE_TOL)] == want


@pytest.mark.parametrize("dim", [2, 3])
def test_row_dots_equal_one_dimensional_products(dim):
    rng = np.random.default_rng(dim)
    for scale in (1e-6, 1e-3, 1.0, 1e3):
        x = rng.normal(size=(4000, dim)) * scale
        y = rng.normal(size=(4000, dim)) * scale * rng.uniform(0.5, 2.0, size=(4000, 1))
        assert geometry.row_dots(x, y).tolist() == [float(p @ q) for p, q in zip(x, y)]
        assert geometry.row_norms(x).tolist() == [float(np.linalg.norm(p)) for p in x]


def test_measure_parts_and_tv():
    mu = AtomicMeasure.from_atoms([((0.0, 0.0), 2.0), ((1.0, 0.0), -0.5)])
    assert mu.total() == pytest.approx(1.5)
    assert mu.tv() == pytest.approx(2.5)
    assert mu.positive_part().total() == pytest.approx(2.0)
    # negative part is returned with positive masses
    assert mu.negative_part().total() == pytest.approx(0.5)
    assert mu.negative_part().is_nonnegative()


@pytest.mark.parametrize("dim", [2, 3])
def test_measure_subtraction_equals_adding_the_negated_measure(dim):
    rng = np.random.default_rng(dim)
    grid = 0.5 * np.arange(-2, 3)
    for _ in range(300):
        def rand_measure():
            k = int(rng.integers(0, 7))
            # lattice points shared between the two measures, some jittered
            # across the merge tolerance, and some generic points
            pts = rng.choice(grid, size=(k, dim)) + rng.choice([0.0, 0.0, 7e-10, -2e-9], size=(k, dim))
            pts[::3] = rng.uniform(-1.0, 1.0, size=pts[::3].shape)
            masses = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.1, 2.0, size=k)
            return AtomicMeasure.from_atoms(zip(pts, masses), dim=dim)
        a, b = rand_measure(), rand_measure()
        got, ref = a - b, a + b.scale(-1.0)
        assert np.array_equal(got.points, ref.points)
        assert np.array_equal(got.masses, ref.masses)


def test_measure_restrict():
    mu = AtomicMeasure.from_atoms([((0.0, 0.0), 1.0), ((3.0, 0.0), 1.0)])
    region = BallRegion.union_of([Ball(np.array([0.0, 0.0]), 1.0)])
    assert mu.restrict(region).total() == pytest.approx(1.0)


def test_config_threshold():
    assert Config(alpha=0.6, dimension=2, ambient_radius=4.0).sphere_reduction_ok()
    assert Config(alpha=0.6, dimension=3, ambient_radius=4.0).sphere_reduction_ok()
    assert not Config(alpha=0.4, dimension=3, ambient_radius=4.0).sphere_reduction_ok()
    with pytest.raises(ValueError, match="alpha"):
        Config(alpha=1.5, dimension=2, ambient_radius=4.0)
    with pytest.raises(ValueError, match="dimension"):
        Config(alpha=0.6, dimension=4, ambient_radius=4.0)


# ---------------------------------------------------------------------------
# path construction and masses


def test_single_segment_masses_and_boundary():
    t = currents.from_segments([seg(0, 0, 3, 4, 2.0)])
    assert currents.mass(t) == pytest.approx(10.0)
    assert currents.alpha_mass(t, 0.5) == pytest.approx(5.0 * math.sqrt(2.0))
    bnd = currents.boundary(t)
    assert bnd.mass_at([3.0, 4.0]) == pytest.approx(2.0)
    assert bnd.mass_at([0.0, 0.0]) == pytest.approx(-2.0)


def test_antiparallel_segments_cancel():
    t = currents.from_segments([seg(0, 0, 1, 0, 1.0), seg(1, 0, 0, 0, 1.0)])
    assert t.is_empty()


def test_overlay_merges_collinear_overlap():
    t = currents.overlay([seg(0, 0, 2, 0, 1.0), seg(1, 0, 3, 0, 1.0)])
    assert currents.mass(t) == pytest.approx(4.0)
    # middle stretch carries multiplicity 2
    thetas = sorted(th for _, _, th in t.segments())
    assert thetas == pytest.approx([1.0, 1.0, 2.0])
    assert currents.alpha_mass(t, 0.5) == pytest.approx(2.0 + math.sqrt(2.0))


def test_overlay_cancels_opposite_runs():
    t = currents.overlay([seg(0, 0, 2, 0, 1.0), seg(2, 0, 1, 0, 1.0)])
    assert currents.mass(t) == pytest.approx(1.0)
    bnd = currents.boundary(t)
    assert bnd.mass_at([1.0, 0.0]) == pytest.approx(1.0)


def test_overlay_keeps_endpoints_of_segments_on_a_near_collinear_line():
    # the second segment joins the first one's line (both agree within
    # LINE_TOL) but its endpoints are 2.7e-9 and 3.6e-9 off that line
    segs = [seg(0, 0, 1, 0, 1.0), seg(3, 2.7e-9, 4, 3.6e-9, 1.0)]
    t = currents.overlay(segs)
    drift = currents.boundary(t) - currents.boundary(currents.from_segments(segs))
    assert drift.tv() == 0.0


def test_overlay_3d_collinear_overlap_and_cancellation():
    p, v = np.array([0.5, -1.0, 2.0]), np.array([1.0, 2.0, 2.0])  # |v| = 3
    t = currents.overlay([(p, p + 2 * v, 1.0), (p + v, p + 3 * v, 1.0)])
    assert currents.mass(t) == pytest.approx(12.0)
    assert sorted(th for _, _, th in t.segments()) == pytest.approx([1.0, 1.0, 2.0])
    bnd = currents.boundary(t)
    assert bnd.mass_at(p) == pytest.approx(-1.0)
    assert bnd.mass_at(p + v) == pytest.approx(-1.0)
    assert bnd.mass_at(p + 2 * v) == pytest.approx(1.0)
    assert bnd.mass_at(p + 3 * v) == pytest.approx(1.0)
    # the run back over the second half cancels it: one edge p -> p + v remains
    t = currents.overlay([(p, p + 2 * v, 1.0), (p + 2 * v, p + v, 1.0)])
    assert len(t.edges) == 1
    assert currents.mass(t) == pytest.approx(3.0)
    bnd = currents.boundary(t)
    assert bnd.mass_at(p + v) == pytest.approx(1.0)
    assert bnd.mass_at(p) == pytest.approx(-1.0)
    assert bnd.tv() == pytest.approx(2.0)


def test_add_subtract_reverse_scale():
    t = currents.from_segments([seg(0, 0, 1, 0, 1.5)])
    assert currents.subtract(t, t).is_empty()
    assert currents.mass(currents.add(t, t)) == pytest.approx(3.0)
    r = currents.reverse(t)
    assert currents.boundary(r).mass_at([0.0, 0.0]) == pytest.approx(1.5)
    s = currents.scale(t, 2.0)
    assert currents.alpha_mass(s, 0.5) == pytest.approx(
        2.0 ** 0.5 * currents.alpha_mass(t, 0.5))


def test_scale_rejects_negative():
    t = currents.from_segments([seg(0, 0, 1, 0, 1.0)])
    with pytest.raises(ValueError):
        currents.scale(t, -1.0)


# ---------------------------------------------------------------------------
# invariants on random acyclic paths


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_alpha_mass_subadditive_and_scaling(seed):
    rng = np.random.default_rng(seed)
    t1 = random_acyclic_path(rng, max_edges=10)
    t2 = random_acyclic_path(rng, max_edges=10)
    alpha = float(rng.uniform(0.1, 1.0))
    lhs = currents.alpha_mass(currents.add(t1, t2), alpha)
    rhs = currents.alpha_mass(t1, alpha) + currents.alpha_mass(t2, alpha)
    assert lhs <= rhs + 1e-9
    lam = float(rng.uniform(0.1, 5.0))
    assert currents.alpha_mass(currents.scale(t1, lam), alpha) == pytest.approx(
        lam ** alpha * currents.alpha_mass(t1, alpha), rel=1e-11)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_boundary_of_sum_is_sum_of_boundaries(seed):
    rng = np.random.default_rng(seed)
    t1 = random_acyclic_path(rng, max_edges=12)
    t2 = random_acyclic_path(rng, max_edges=12)
    lhs = currents.boundary(currents.add(t1, t2))
    rhs = currents.boundary(t1) + currents.boundary(t2)
    assert (lhs - rhs).tv() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_restriction_splits_mass_exactly(seed):
    rng = np.random.default_rng(seed)
    t = random_acyclic_path(rng, max_edges=15)
    ball = Ball(rng.uniform(-1.5, 1.5, size=2), float(rng.uniform(0.5, 2.0)))
    region = BallRegion.union_of([ball])
    inside = currents.restrict(t, region)
    outside = currents.restrict(t, region.complemented())
    for alpha in (0.5, 0.8, 1.0):
        total = currents.alpha_mass(t, alpha)
        split = currents.alpha_mass(inside, alpha) + currents.alpha_mass(outside, alpha)
        assert split == pytest.approx(total, abs=1e-9, rel=1e-9)


# ---------------------------------------------------------------------------
# push-forward


def test_push_forward_affine_exact():
    t = currents.from_segments([seg(0, 0, 1, 0, 2.0)])
    half = AffineMap(0.5 * np.eye(2), np.zeros(2))
    ht = currents.push_forward(t, half)
    assert currents.mass(ht) == pytest.approx(1.0)


def test_push_forward_collapses_to_point():
    t = currents.from_segments([seg(0, 0, 1, 0, 1.0)])
    crush = AffineMap(np.zeros((2, 2)), np.array([1.0, 1.0]))
    assert currents.push_forward(t, crush).is_empty()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), lip=st.floats(0.1, 1.0))
def test_push_forward_lipschitz_bound(seed, lip):
    rng = np.random.default_rng(seed)
    t = random_acyclic_path(rng, max_edges=12)
    f = AffineMap(lip * np.eye(2), rng.uniform(-1, 1, size=2))
    for alpha in (0.4, 1.0):
        assert currents.alpha_mass(currents.push_forward(t, f), alpha) <= \
            lip * currents.alpha_mass(t, alpha) + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_push_forward_ball_projection_bound(seed):
    rng = np.random.default_rng(seed)
    t = random_acyclic_path(rng, max_edges=10)
    ball = Ball(np.zeros(2), 1.5)
    pt = currents.push_forward(t, BallProjection(ball))
    assert currents.alpha_mass(pt, 0.7) <= currents.alpha_mass(t, 0.7) + 1e-9
    for v in pt.vertices:
        assert np.linalg.norm(v - ball.center) <= ball.radius + 1e-9


def test_push_forward_preserves_boundary_image():
    t = currents.from_segments([seg(-2, 0, 2, 0, 1.0)])
    ball = Ball(np.zeros(2), 1.0)
    pt = currents.push_forward(t, BallProjection(ball))
    bnd = currents.boundary(pt)
    assert bnd.mass_at([1.0, 0.0]) == pytest.approx(1.0)
    assert bnd.mass_at([-1.0, 0.0]) == pytest.approx(-1.0)
