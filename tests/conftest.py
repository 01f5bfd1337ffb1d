"""Shared builders: random acyclic traffic paths, balanced atom clouds, Lipschitz maps."""

import numpy as np
import pytest

from trafficpaths import currents
from trafficpaths.geometry import Ball, project_to_ball, segment_sphere_params


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
        return project_to_ball(p, self.ball)

    def breakpoints(self, a: np.ndarray, b: np.ndarray) -> list[float]:
        # split where the segment meets the sphere so inside parts stay exact
        return segment_sphere_params(a, b, self.ball)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)
