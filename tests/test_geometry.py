import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficpaths import geometry
from trafficpaths.geometry import Ball, BallRegion

from conftest import BallProjection


def test_ball_membership_open_vs_closed():
    b = Ball(np.array([0.0, 0.0]), 1.0)
    on = np.array([1.0, 0.0])
    assert b.contains(on)
    assert not b.open_copy().contains(on)
    assert b.open_copy().contains([0.5, 0.0])
    assert b.on_sphere(on)
    assert not b.on_sphere([0.5, 0.0])


def test_ball_rejects_bad_radius():
    with pytest.raises(ValueError):
        Ball(np.array([0.0, 0.0]), 0.0)


def test_segment_sphere_basic_crossing():
    b = Ball(np.array([0.0, 0.0]), 1.0)
    params = geometry.segment_sphere_params([-2.0, 0.0], [2.0, 0.0], b)
    assert len(params) == 2
    assert params[0] == pytest.approx(0.25, abs=1e-12)
    assert params[1] == pytest.approx(0.75, abs=1e-12)


def test_segment_sphere_no_intersection():
    b = Ball(np.array([0.0, 0.0]), 1.0)
    assert geometry.segment_sphere_params([2.0, 2.0], [3.0, 2.0], b) == []


def test_segment_sphere_tangent_dropped():
    b = Ball(np.array([0.0, 0.0]), 1.0)
    assert geometry.segment_sphere_params([-2.0, 1.0], [2.0, 1.0], b) == []


coords = st.floats(-5.0, 5.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(ax=coords, ay=coords, bx=coords, by=coords,
       cx=st.floats(-2.0, 2.0), cy=st.floats(-2.0, 2.0),
       r=st.floats(0.1, 3.0))
def test_segment_sphere_roots_lie_on_sphere(ax, ay, bx, by, cx, cy, r):
    a = np.array([ax, ay])
    b = np.array([bx, by])
    ball = Ball(np.array([cx, cy]), r)
    for t in geometry.segment_sphere_params(a, b, ball):
        p = a + t * (b - a)
        assert abs(np.linalg.norm(p - ball.center) - r) <= 1e-7 * max(1.0, r)


def test_project_to_ball_identity_inside_and_sphere_outside():
    b = Ball(np.array([1.0, 1.0]), 2.0)
    inside = np.array([1.5, 1.0])
    assert np.allclose(BallProjection(b).apply(inside), inside)
    out = BallProjection(b).apply(np.array([10.0, 1.0]))
    assert np.allclose(out, [3.0, 1.0])


@settings(max_examples=100, deadline=None)
@given(px=coords, py=coords, qx=coords, qy=coords)
def test_projection_is_1_lipschitz(px, py, qx, qy):
    b = Ball(np.array([0.3, -0.2]), 1.3)
    p, q = np.array([px, py]), np.array([qx, qy])
    fp, fq = BallProjection(b).apply(p), BallProjection(b).apply(q)
    assert np.linalg.norm(fp - fq) <= np.linalg.norm(p - q) + 1e-12


def test_region_cell_is_last_minus_open_earlier():
    b0 = Ball(np.array([0.0, 0.0]), 1.0)
    b1 = Ball(np.array([1.5, 0.0]), 1.0)
    cell1 = BallRegion.cell(1, [b0, b1])
    assert cell1.contains([2.0, 0.0])
    assert not cell1.contains([0.8, 0.0])  # inside the open earlier ball
    assert cell1.contains([1.0, 0.0])  # on the earlier sphere, not its interior


def test_region_complement_flips_membership():
    region = BallRegion.union_of([Ball(np.array([0.0, 0.0]), 1.0)])
    comp = region.complemented()
    for p in ([0.5, 0.0], [2.0, 0.0], [0.0, -3.0]):
        assert region.contains(p) != comp.contains(p)


def test_cells_partition_union(rng):
    balls = [Ball(rng.uniform(-1, 1, size=2), float(rng.uniform(0.4, 1.0)))
             for _ in range(4)]
    cells = [BallRegion.cell(i, balls) for i in range(4)]
    union = BallRegion.union_of(balls)
    for _ in range(300):
        p = rng.uniform(-2.5, 2.5, size=2)
        hits = sum(c.contains(p) for c in cells)
        assert hits == (1 if union.contains(p) else 0)


def test_cover_compact_covers_and_uses_small_radius(rng):
    pts = rng.uniform(-2, 2, size=(40, 2))
    balls = geometry.cover_compact(pts, r=0.5, ambient_radius=4.0)
    assert all(b.radius == pytest.approx(0.15) for b in balls)
    region = BallRegion.union_of(balls)
    assert all(region.contains(p) for p in pts)
    # greedy centers are pairwise separated by more than one radius
    for i, a in enumerate(balls):
        for b in balls[:i]:
            assert np.linalg.norm(a.center - b.center) > a.radius


def _packing_bound(ambient_radius: float, r: float, dim: int) -> int:
    """Greedy count of disjoint open r/20-balls with centers within r of the ambient ball.

    Centers are scanned over a square grid of spacing r/10; two balls of
    radius r/20 are disjoint exactly when their centers are at least r/10
    apart, so grid points themselves form a valid packing and the count is
    the number of grid points inside the enlarged ambient ball:
    cover_compact never uses more balls.
    """
    if dim not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    R = ambient_radius + r
    step = r / 10.0
    n = int(np.floor(R / step))
    count = 0
    for idx in itertools.product(range(-n, n + 1), repeat=dim):
        if sum(i * i for i in idx) * step * step <= R * R:
            count += 1
    return count


def test_cover_compact_count_below_packing_bound(rng):
    pts = rng.uniform(-2, 2, size=(200, 2))
    balls = geometry.cover_compact(pts, r=0.5, ambient_radius=4.0)
    assert len(balls) <= _packing_bound(4.0, 0.5, 2)


def test_cover_compact_rejects_outside_points():
    with pytest.raises(ValueError):
        geometry.cover_compact([np.array([10.0, 0.0])], r=1.0, ambient_radius=4.0)
