import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficpaths import currents
from trafficpaths import decomposition as dcmp
from trafficpaths.decomposition import Curve, PathMeasure
from trafficpaths.geometry import Ball, BallRegion

from conftest import random_acyclic_path


def seg(ax, ay, bx, by, th):
    return (np.array([ax, ay], dtype=float), np.array([bx, by], dtype=float), th)


def curve(*pts) -> Curve:
    return Curve(np.array(pts, dtype=float))


# ---------------------------------------------------------------------------
# curves


def test_curve_geometry():
    c = curve((0, 0), (3, 4), (3, 10))
    assert c.length() == pytest.approx(11.0)
    assert np.allclose(c.point_at(5.0), [3.0, 4.0])
    assert np.allclose(c.point_at(0.0), c.start())
    assert np.allclose(c.point_at(11.0), c.end())


def test_curve_rejects_repeated_waypoint():
    with pytest.raises(ValueError):
        curve((0, 0), (0, 0), (1, 0))


# ---------------------------------------------------------------------------
# cycle removal


def test_remove_cycles_drops_pure_loop():
    t = currents.from_segments([seg(0, 0, 1, 0, 1.0), seg(1, 0, 1, 1, 1.0),
                                seg(1, 1, 0, 0, 1.0)])
    out = dcmp.remove_cycles(t)
    assert out.is_empty()


def test_remove_cycles_keeps_boundary_and_reduces_mass():
    t = currents.from_segments([
        seg(0, 0, 1, 0, 1.0),
        seg(1, 0, 2, 0, 2.0),  # extra loop mass around the middle
        seg(2, 0, 1.5, 1, 1.0), seg(1.5, 1, 1, 0, 1.0),
        seg(2, 0, 3, 0, 1.0)])
    out = dcmp.remove_cycles(t)
    assert dcmp.is_acyclic(out)
    assert (currents.boundary(out) - currents.boundary(t)).tv() <= 1e-9
    assert currents.mass(out) < currents.mass(t)


# ---------------------------------------------------------------------------
# good decomposition


def test_good_decomposition_single_chain():
    t = currents.from_segments([seg(0, 0, 1, 0, 1.0), seg(1, 0, 2, 1, 1.0)])
    pi = dcmp.good_decomposition(t)
    assert len(pi.entries) == 1
    c, w = pi.entries[0]
    assert w == pytest.approx(1.0)
    assert np.allclose(c.start(), [0, 0])
    assert np.allclose(c.end(), [2, 1])


def test_good_decomposition_split_weights():
    t = currents.from_segments([seg(0, 0, 1, 0, 2.0), seg(1, 0, 2, 1, 1.0),
                                seg(1, 0, 2, -1, 1.0)])
    pi = dcmp.good_decomposition(t)
    assert pi.total_weight() == pytest.approx(2.0)
    assert (pi.start_measure() - currents.boundary(t).negative_part()).tv() <= 1e-9
    assert (pi.end_measure() - currents.boundary(t).positive_part()).tv() <= 1e-9


def test_good_decomposition_rejects_cycle():
    t = currents.TrafficPath(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]),
                             ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)))
    with pytest.raises(ValueError, match="not acyclic"):
        dcmp.good_decomposition(t)


def _edgewise_multiplicities_match(t, pi, tol=1e-9) -> bool:
    for a, b, th in t.segments():
        acc = 0.0
        for c, w in pi.entries:
            for p, q in zip(c.waypoints[:-1], c.waypoints[1:]):
                if np.linalg.norm(p - a) <= tol and np.linalg.norm(q - b) <= tol:
                    acc += w
        if abs(acc - th) > tol:
            return False
    return True


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_good_decomposition_equalities_random(seed):
    rng = np.random.default_rng(seed)
    t = random_acyclic_path(rng, max_edges=25)
    pi = dcmp.good_decomposition(t)
    bnd = currents.boundary(t)
    assert (pi.start_measure() - bnd.negative_part()).tv() <= 1e-9
    assert (pi.end_measure() - bnd.positive_part()).tv() <= 1e-9
    assert currents.mass(t) == pytest.approx(
        sum(w * c.length() for c, w in pi.entries), abs=1e-9)
    assert _edgewise_multiplicities_match(t, pi)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_reconstruct_inverts_decomposition(seed):
    rng = np.random.default_rng(seed)
    t = random_acyclic_path(rng, max_edges=20)
    pi = dcmp.good_decomposition(t)
    back = dcmp.reconstruct(pi, dim=t.dim)
    assert currents.mass(currents.subtract(back, t)) <= 1e-9


# ---------------------------------------------------------------------------
# curve surgery


def test_first_exit_and_last_entry():
    c = curve((-2, 0), (2, 0))
    ball = BallRegion.union_of([Ball(np.array([0.0, 0.0]), 1.0, closed=False)])
    s = dcmp.first_exit(c, ball)
    # starts outside: infimum outside is arclength 0
    assert s == pytest.approx(0.0)
    inside = curve((0, 0), (2, 0))
    assert dcmp.first_exit(inside, ball) == pytest.approx(1.0)
    # passes through and ends outside: the sup of outside arclengths is the end
    assert dcmp.last_entry(c, ball) == pytest.approx(4.0)
    # ends inside the ball: outside only until the final crossing
    tail = curve((-4, 0), (0, 0))
    assert dcmp.last_entry(tail, ball) == pytest.approx(3.0)


def test_first_exit_never_leaves():
    c = curve((0, 0), (0.2, 0))
    ball = BallRegion.union_of([Ball(np.array([0.0, 0.0]), 1.0, closed=False)])
    assert math.isinf(dcmp.first_exit(c, ball))
    assert dcmp.last_entry(c, ball) == pytest.approx(0.0)


def test_first_exit_and_last_entry_on_a_union_left_and_reentered():
    # leaves the first ball at x = 1, re-enters the union through the second
    # at x = 2 and ends inside it after a turn
    c = curve((0, 0), (1.5, 0), (3, 0), (3, 0.5))
    union = BallRegion.union_of([Ball(np.array([0.0, 0.0]), 1.0, closed=False),
                                 Ball(np.array([3.0, 0.0]), 1.0, closed=False)])
    assert dcmp.first_exit(c, union) == pytest.approx(1.0, abs=1e-12)
    assert dcmp.last_entry(c, union) == pytest.approx(2.0, abs=1e-12)
    # reversed, the first exit and the last entry trade places
    back = curve((3, 0.5), (3, 0), (1.5, 0), (0, 0))
    assert dcmp.first_exit(back, union) == pytest.approx(back.length() - 2.0, abs=1e-12)
    assert dcmp.last_entry(back, union) == pytest.approx(back.length() - 1.0, abs=1e-12)


def test_first_exit_of_a_curve_ending_on_an_open_sphere_is_its_length():
    # the end (0.6, 0.8) lies on the unit sphere and is the only point outside
    # the open ball; no segment crosses the sphere
    c = curve((0, 0), (0.5, 0), (0.6, 0.8))
    ball = BallRegion.union_of([Ball(np.array([0.0, 0.0]), 1.0, closed=False)])
    assert dcmp.first_exit(c, ball) == c.length()
    assert dcmp.last_entry(c, ball) == pytest.approx(c.length(), abs=1e-12)
    closed = BallRegion.union_of([Ball(np.array([0.0, 0.0]), 1.0)])
    assert math.isinf(dcmp.first_exit(c, closed))


def test_restrict_curve_window():
    c = curve((0, 0), (1, 0), (1, 1))
    mid = dcmp.restrict_curve(c, 0.5, 1.5)
    assert mid.length() == pytest.approx(1.0)
    assert np.allclose(mid.start(), [0.5, 0.0])
    assert np.allclose(mid.end(), [1.0, 0.5])
    assert dcmp.restrict_curve(c, 1.0, 1.0) is None
    with pytest.raises(ValueError):
        dcmp.restrict_curve(c, 1.5, 0.5)


def test_cut_curves_from_start():
    c = curve((0, 0), (4, 0))
    pi = PathMeasure(((c, 1.5),))
    cells = dcmp.cells_of_cover([Ball(np.array([0.0, 0.0]), 1.0)])
    (head, w, idx), = dcmp.cut_curves(pi, cells, mode="from-start")
    assert w == pytest.approx(1.5)
    assert idx == 0
    assert head.length() == pytest.approx(1.0)
    assert np.allclose(head.end(), [1.0, 0.0])


def test_cut_curves_from_end():
    c = curve((-4, 0), (0, 0))
    pi = PathMeasure(((c, 0.7),))
    cells = dcmp.cells_of_cover([Ball(np.array([0.0, 0.0]), 1.0)])
    (tail, w, idx), = dcmp.cut_curves(pi, cells, mode="from-end")
    assert w == pytest.approx(0.7)
    assert idx == 0
    # starts on the sphere of the open ball, ends where the curve ends
    assert np.allclose(tail.start(), [-1.0, 0.0])
    assert np.allclose(tail.end(), c.end())
    assert tail.length() == pytest.approx(1.0)


def test_cut_curves_rejects_curve_that_never_leaves():
    pi = PathMeasure(((curve((0, 0), (0.2, 0)), 1.0),))
    cells = dcmp.cells_of_cover([Ball(np.array([0.0, 0.0]), 1.0)])
    with pytest.raises(ValueError, match="never leaves"):
        dcmp.cut_curves(pi, cells, mode="from-start")


def test_cut_curves_puts_an_end_inside_two_overlapping_balls_in_the_first_cell():
    pi = PathMeasure(((curve((0, 0), (4, 0)), 1.0),))
    cells = dcmp.cells_of_cover([Ball(np.array([0.5, 0.0]), 1.0),
                                 Ball(np.array([-0.5, 0.0]), 1.0)])
    (head, _, idx), = dcmp.cut_curves(pi, cells, mode="from-start")
    assert idx == 0
    assert np.allclose(head.end(), [1.5, 0.0])  # cut against the first ball


def test_cut_curves_prefers_an_earlier_open_ball_to_a_later_closed_sphere():
    # the end lies inside the open first ball and on the closed second ball's sphere
    pi = PathMeasure(((curve((-4, 0), (0, 0)), 1.0),))
    cells = dcmp.cells_of_cover([Ball(np.array([0.2, 0.0]), 0.5, closed=False),
                                 Ball(np.array([-1.0, 0.0]), 1.0)])
    assert cells[1].ball.on_sphere(np.zeros(2))
    (tail, _, idx), = dcmp.cut_curves(pi, cells, mode="from-end")
    assert idx == 0
    assert np.allclose(tail.start(), [-0.3, 0.0])


def test_cut_curves_rejects_an_uncovered_endpoint():
    covered = (curve((0, 0), (4, 0)), 1.0)
    pi = PathMeasure((covered, (curve((3, 3), (4, 0)), 1.0)))
    cells = dcmp.cells_of_cover([Ball(np.array([0.0, 0.0]), 1.0)])
    with pytest.raises(ValueError, match="curve endpoint not in any cell"):
        dcmp.cut_curves(pi, cells, mode="from-start")


def test_split_curve_three_pieces():
    c = curve((0, 0), (4, 0), (4, 3))
    start = BallRegion.union_of([Ball(np.array([0.0, 0.0]), 1.0, closed=False)])
    end = BallRegion.union_of([Ball(np.array([4.0, 3.0]), 1.0, closed=False)])
    head, middle, tail = dcmp.split_curve(c, start, end)
    assert head.length() == pytest.approx(1.0)
    assert middle.length() == pytest.approx(5.0)
    assert tail.length() == pytest.approx(1.0)
    assert np.allclose(middle.start(), head.end())
    assert np.allclose(middle.end(), tail.start())
    assert np.allclose(tail.start(), [4.0, 2.0])
    head_only = dcmp.split_curve(c, start=start)
    assert head_only[1] is None and head_only[2] is None
    assert head_only[0].length() == pytest.approx(1.0)
