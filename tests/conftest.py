"""Shared builders: random acyclic traffic paths, balanced atom clouds, Lipschitz maps,
the point-merge reference registry and a counter of flat-norm LP calls; and a guard
that fails every test during which a position solve is left uncertified."""

import itertools
import logging
import math

import numpy as np
import pytest
import scipy.optimize

from trafficpaths import currents
from trafficpaths.geometry import Ball, as_point, segment_sphere_params


class ScanPointIndex:
    """Merge reference: a registry that scans all 3^dim neighbour buckets of a 1e-6 grid.

    ``insert`` returns the index of the first stored point within ``tol``
    (Chebyshev) of p, visiting the neighbour buckets in lexicographic key
    order and each bucket's points in insertion order, and stores p as a
    new point when there is none.  Points are stored as float tuples.
    ``currents._merge_rows`` must name the same classes.
    """

    def __init__(self, dim: int, tol: float = currents.MERGE_TOL, grid: float = 1e-6):
        self.tol = tol
        self.grid = grid
        self.points: list[tuple[float, ...]] = []
        self._buckets: dict[tuple, list[int]] = {}
        self._offsets = list(itertools.product((-1, 0, 1), repeat=dim))

    def _key(self, p: tuple) -> tuple:
        return tuple(math.floor(x / self.grid) for x in p)

    def insert(self, p) -> int:
        p = tuple(float(x) for x in p)
        k = self._key(p)
        for off in self._offsets:
            for idx in self._buckets.get(tuple(a + b for a, b in zip(k, off)), ()):
                if max(abs(a - b) for a, b in zip(self.points[idx], p)) <= self.tol:
                    return idx
        self.points.append(p)
        self._buckets.setdefault(k, []).append(len(self.points) - 1)
        return len(self.points) - 1


def random_acyclic_path(rng: np.random.Generator, max_edges: int = 40,
                        dim: int = 2, box: float = 3.0) -> currents.TrafficPath:
    """Random acyclic path: edges only go from lower to higher vertex index.

    Vertex positions are sampled in the box and sorted lexicographically, so
    index order is consistent with a topological order and no cycle can form.
    """
    n_edges = int(rng.integers(1, max_edges + 1))
    n_vertices = max(2, int(rng.integers(2, n_edges + 2)))
    pts = rng.uniform(-box, box, size=(n_vertices, dim))
    pts = pts[np.lexsort(pts.T[::-1])]
    segs = []
    seen = set()
    for _ in range(n_edges):
        i = int(rng.integers(0, n_vertices - 1))
        j = int(rng.integers(i + 1, n_vertices))
        if (i, j) in seen:
            continue
        seen.add((i, j))
        theta = float(rng.uniform(0.1, 2.0))
        segs.append((pts[i], pts[j], theta))
    if not segs:
        segs = [(pts[0], pts[-1], 1.0)]
    return currents.from_segments(segs, dim=dim)


def balanced_clouds(rng: np.random.Generator, k_minus: int, k_plus: int,
                    dim: int = 2, spread: float = 1.0, gap: float = 2.0):
    """Two separated atom clouds with equal total mass."""
    pm = rng.uniform(-spread, spread, size=(k_minus, dim))
    pm[:, 0] -= gap
    pp = rng.uniform(-spread, spread, size=(k_plus, dim))
    pp[:, 0] += gap
    wm = rng.uniform(0.2, 1.0, size=k_minus)
    wp = rng.uniform(0.2, 1.0, size=k_plus)
    wp *= wm.sum() / wp.sum()
    mu_minus = currents.AtomicMeasure.from_atoms(
        [(pm[i], float(wm[i])) for i in range(k_minus)], dim=dim)
    mu_plus = currents.AtomicMeasure.from_atoms(
        [(pp[i], float(wp[i])) for i in range(k_plus)], dim=dim)
    return mu_minus, mu_plus


class AffineMap:
    """x -> A x + b for push_forward; its Lipschitz constant is the spectral norm of A."""

    def __init__(self, matrix, offset):
        self.matrix = np.asarray(matrix, dtype=float)
        self.offset = np.asarray(offset, dtype=float)
        self.lipschitz = float(np.linalg.norm(self.matrix, 2))

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.matrix @ p + self.offset

    def breakpoints(self, a: np.ndarray, b: np.ndarray) -> list[float]:
        return []


class BallProjection:
    """Nearest-point projection onto a closed ball for push_forward (1-Lipschitz)."""

    def __init__(self, ball: Ball):
        self.ball = ball
        self.lipschitz = 1.0

    def apply(self, p: np.ndarray) -> np.ndarray:
        """Nearest point of the closed ball: identity inside."""
        q = as_point(p)
        v = q - self.ball.center
        d = float(np.linalg.norm(v))
        if d <= self.ball.radius:
            return q.copy()
        return self.ball.center + v * (self.ball.radius / d)

    def breakpoints(self, a: np.ndarray, b: np.ndarray) -> list[float]:
        # split where the segment meets the sphere so inside parts stay exact
        return segment_sphere_params(a, b, self.ball)


def endpoint_measures(pi) -> tuple:
    """Start and end measures of a path measure: each curve's endpoints carry its weight."""
    dim = pi.entries[0][0].dim if pi.entries else 2
    return (currents.AtomicMeasure.from_atoms([(c.start(), w) for c, w in pi.entries], dim=dim),
            currents.AtomicMeasure.from_atoms([(c.end(), w) for c, w in pi.entries], dim=dim))


def counting_milp(monkeypatch) -> list:
    """Patch scipy.optimize.milp to record each call's (args, kwargs); returns the list they land in."""
    calls = []
    real = scipy.optimize.milp

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", counted)
    return calls


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "uncertified: the test leaves a position solve uncertified on purpose")


class _UncertifiedSolves(logging.Handler):
    """Collects the optimizer's warnings of position solves left uncertified."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        if "not certified" in record.getMessage():
            self.messages.append(record.getMessage())


@pytest.fixture(autouse=True)
def no_uncertified_solve(request):
    """Fail a test during which ``trafficpaths.optimizer`` logs "not certified".

    An uncertified solve keeps its last iterate and only warns, so a change
    to the smoothing schedule that stops certifying would pass unnoticed;
    tests that provoke the warning on purpose carry the uncertified marker.
    """
    if request.node.get_closest_marker("uncertified"):
        yield
        return
    handler, logger = _UncertifiedSolves(), logging.getLogger("trafficpaths.optimizer")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.messages:
        pytest.fail(f"{len(handler.messages)} position solves left uncertified, the first: "
                    f"{handler.messages[0]}")
