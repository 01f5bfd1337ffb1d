"""Points, balls, ball regions and covering constructions.

Points are plain numpy arrays of length 2 or 3.  A Ball is a euclidean
ball with a closure flag; a BallRegion is a finite boolean combination
of balls restricted to the shapes the rest of the toolkit actually
needs: unions, set-difference chains (the last ball minus the open
preceding ones) and complements of either.

Covering construction: a greedy Vitali-style cover of a finite compact
set by balls of radius below a third of the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

ON_SPHERE_TOL = 1e-9
PARAM_TOL = 1e-12


def as_point(p) -> np.ndarray:
    q = np.asarray(p, dtype=float)
    if q.ndim != 1 or q.shape[0] not in (2, 3):
        raise ValueError("points must be 1-d arrays of length 2 or 3")
    return q


def row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each row of x with the same row of y.

    Each entry equals float(x[k] @ y[k]) bit for bit: the stacked matmul
    reaches the same BLAS dot as the 1-d product, and np.linalg.norm of a
    vector is np.sqrt of that dot.  ``np.einsum("ij,ij->i")`` and sums of
    elementwise products differ from it in the last bit on 25-42 % of
    random rows, so they would change answers.
    """
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of x, bit for bit."""
    return np.sqrt(row_dots(x, x))


@dataclass(frozen=True)
class Ball:
    """Euclidean ball; ``closed`` selects closure or interior."""

    center: np.ndarray
    radius: float
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")

    def contains(self, p) -> bool:
        d = float(np.linalg.norm(as_point(p) - self.center))
        return d <= self.radius if self.closed else d < self.radius

    def on_sphere(self, p, tol: float = ON_SPHERE_TOL) -> bool:
        d = float(np.linalg.norm(as_point(p) - self.center))
        return abs(d - self.radius) <= tol

    def open_copy(self) -> "Ball":
        return replace(self, closed=False)


@dataclass(frozen=True)
class BallRegion:
    """Union of balls, or a difference-chain cell, optionally complemented.

    kind "union": membership in any term.  kind "cell": membership in the
    last term minus the open interiors of all earlier terms, which is the
    shape of the cells carved out of an ordered ball cover.
    """

    terms: tuple
    kind: str = "union"
    complement: bool = False

    def __post_init__(self):
        if self.kind not in ("union", "cell"):
            raise ValueError("region kind must be 'union' or 'cell'")
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("region needs at least one ball")

    @staticmethod
    def union_of(balls: Iterable[Ball], complement: bool = False) -> "BallRegion":
        return BallRegion(tuple(balls), "union", complement)

    @staticmethod
    def cell(index: int, balls: Sequence[Ball]) -> "BallRegion":
        """Cell number ``index`` of an ordered cover: B_i minus earlier open balls."""
        if not 0 <= index < len(balls):
            raise ValueError("cell index out of range")
        chain = tuple(balls[:index]) + (balls[index],)
        return BallRegion(chain, "cell")

    def complemented(self) -> "BallRegion":
        return replace(self, complement=not self.complement)

    def contains(self, p) -> bool:
        return bool(self.contains_rows(as_point(p)[None])[0])

    def contains_rows(self, points: np.ndarray) -> np.ndarray:
        """Membership of each row of an (n, d) array, as a boolean mask.

        A cell subtracts the open interiors of its earlier balls whatever
        their ``closed`` flag.
        """
        def within(ball: Ball, closed: bool) -> np.ndarray:
            dist = row_norms(points - ball.center)
            return dist <= ball.radius if closed else dist < ball.radius

        if self.kind == "union":
            inside = np.zeros(len(points), dtype=bool)
            for b in self.terms:
                inside |= within(b, b.closed)
        else:
            inside = within(self.terms[-1], self.terms[-1].closed)
            for b in self.terms[:-1]:
                inside &= ~within(b, False)
        return inside != self.complement


def _crossings(A: float, B: float, C: float) -> list[float]:
    """Roots in (0,1) of A t^2 + B t + C, increasing; the rule of both callers below."""
    if A <= PARAM_TOL ** 2:
        return []
    disc = B * B - 4.0 * A * C
    if disc <= 1e-30:
        return []
    sq = math.sqrt(disc)
    # stable pairing of roots: avoid cancellation between -B and the root
    q = -0.5 * (B + math.copysign(sq, B if B != 0 else 1.0))
    roots = [q / A, C / q] if abs(q) > 0 else [-B / (2 * A)]
    out = sorted(t for t in roots if PARAM_TOL < t < 1.0 - PARAM_TOL)
    dedup: list[float] = []
    for t in out:
        if not dedup or t - dedup[-1] > PARAM_TOL:
            dedup.append(t)
    return dedup


def segment_sphere_params(a, b, ball: Ball) -> list[float]:
    """Parameters t in (0,1) where a + t(b-a) crosses the sphere of ``ball``.

    Tangential touches (discriminant below 1e-30) are dropped; they do not
    change membership on either side.
    """
    a = as_point(a)
    b = as_point(b)
    u = b - a
    w = a - ball.center
    return _crossings(float(u @ u), 2.0 * float(u @ w), float(w @ w) - ball.radius ** 2)


def sphere_params(a: np.ndarray, b: np.ndarray, balls: Sequence[Ball]) -> list[list[float]]:
    """Crossings of the segments a[k] -> b[k] with the spheres of ``balls``.

    Entry k is the increasing list of distinct parameters that
    ``segment_sphere_params`` gives for segment k and any of the balls.
    The coefficients of all (segment, ball) pairs come from one batch of
    row dot products equal to the scalar ones, and only pairs whose
    discriminant clears 1e-30 reach the root rule.
    """
    n, m = len(a), len(balls)
    centers = np.array([ball.center for ball in balls])
    radii_sq = np.array([ball.radius ** 2 for ball in balls])
    u = b - a
    w = (a[:, None, :] - centers[None]).reshape(n * m, a.shape[1])
    A = np.repeat(row_dots(u, u), m)
    B = 2.0 * row_dots(np.repeat(u, m, axis=0), w)
    C = row_dots(w, w) - np.tile(radii_sq, n)
    out: list[list[float]] = [[] for _ in range(n)]
    live = np.flatnonzero((A > PARAM_TOL ** 2) & (B * B - 4.0 * A * C > 1e-30))
    for pair, A_k, B_k, C_k in zip(live.tolist(), A[live].tolist(), B[live].tolist(),
                                   C[live].tolist()):
        out[pair // m].extend(_crossings(A_k, B_k, C_k))
    return [sorted(set(ts)) if len(ts) > 1 else ts for ts in out]


def cover_compact(points: Sequence, r: float, ambient_radius: float) -> list[Ball]:
    """Greedy ball cover of a finite point set at mesh ``r``.

    Centers are taken from the set itself in lexicographic order and each
    ball gets radius 0.3*r, strictly below r/3.  Uncovered points found
    later become new centers, so accepted centers are pairwise more than
    0.3*r apart; packing disjoint r/20-balls at those centers bounds the
    count by the number of such balls that fit within r of the ambient
    ball, which the tests count on a grid.
    """
    if not r > 0:
        raise ValueError("cover mesh r must be positive")
    pts = [as_point(p) for p in points]
    if not pts:
        return []
    for p in pts:
        if np.linalg.norm(p) > ambient_radius + ON_SPHERE_TOL:
            raise ValueError("point outside ambient ball")
    order = sorted(range(len(pts)), key=lambda i: tuple(pts[i]))
    rho = 0.3 * r
    balls: list[Ball] = []
    for i in order:
        p = pts[i]
        if any(np.linalg.norm(p - b.center) <= b.radius for b in balls):
            continue
        balls.append(Ball(p, rho, closed=True))
    return balls
