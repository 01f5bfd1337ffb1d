"""Constructive transports: dyadic irrigation, sphere connections, cones.

These builders produce explicit traffic paths with certified boundaries
and cost bounds of the shape constant * (total mass)^alpha * scale.
They are deliberately non-optimal: their role is to discharge the
quantitative lemmas (irrigability above the dimension threshold,
connection of measures along a sphere, return of small excess mass)
that the stability machinery consumes.

Thresholds.  dyadic_irrigation needs alpha > 1 - 1/d.  sphere_transport
needs alpha > 1 - 1/(d-1), the sphere-reduction threshold; the test is
currents.clears_sphere_threshold, which the stability trials and the
competitor surgery ask too.  cheap_subtransport takes no smallness
parameter: its covers, and so its whole construction, follow from the
boundary of the path it runs along.

Conventions.  Measures fed to the builders are nonnegative atomic
measures; balance (equal totals on both sides) is validated at 1e-9.
Sphere supports and punctures are validated by Ball.on_sphere.  Circles
and spheres are discretized with DEFAULT_SEGMENTS (32) segments per
full circle; vertices always lie on the sphere itself, so the chord
deviation is the sagitta, of order radius / segments^2 (about 5e-3 *
radius at 32 segments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import currents
from .currents import AtomicMeasure, TrafficPath
from .geometry import Ball, BallRegion, as_point, cover_compact
from . import decomposition as dcmp

BALANCE_TOL = 1e-9
DEFAULT_SEGMENTS = 32

# worst-case d=2 constant: route everything around the full circumference
SPHERE_CONSTANT = {2: 2.0 * math.pi, 3: 16.0 * math.pi}


def _check_balanced(mu_minus: AtomicMeasure, mu_plus: AtomicMeasure) -> float:
    if not (mu_minus.is_nonnegative() and mu_plus.is_nonnegative()):
        raise ValueError("marginals must be nonnegative measures")
    total = mu_plus.total()
    if abs(total - mu_minus.total()) > BALANCE_TOL:
        raise ValueError("marginals must have equal total mass")
    return total


def dyadic_irrigation(source_point, target: AtomicMeasure, alpha: float) -> TrafficPath:
    """Irrigate an atomic target from one source atom through nested cube centers.

    Requires alpha > 1 - 1/d.  The route follows the centers of a dyadic
    cube hierarchy rooted at the source, so the geometry scales exactly
    under dilation about the source and the cost scales exactly by
    lambda^alpha under mass scaling.
    """
    src = as_point(source_point)
    d = src.shape[0]
    if not alpha > 1.0 - 1.0 / d:
        raise ValueError("below irrigability threshold")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not target.is_nonnegative():
        raise ValueError("target must be a nonnegative measure")
    atoms = [(p, m) for p, m in target.atoms()]
    if not atoms:
        return currents.empty_path(d)
    half0 = max(float(np.max(np.abs(p - src))) for p, _ in atoms)
    segs: list[tuple[np.ndarray, np.ndarray, float]] = []

    def recurse(center: np.ndarray, half: float, members) -> None:
        ref = members[0][0]
        if all(float(np.max(np.abs(p - ref))) <= 1e-12 for p, _ in members):
            total = sum(m for _, m in members)
            if float(np.linalg.norm(ref - center)) > 1e-12:
                segs.append((center, ref, total))
            return
        groups: dict[tuple, list] = {}
        for p, m in members:
            quad = tuple(1 if p[k] >= center[k] else -1 for k in range(d))
            groups.setdefault(quad, []).append((p, m))
        for quad, sub in groups.items():
            child = center + 0.5 * half * np.array(quad, dtype=float)
            segs.append((center, child, sum(m for _, m in sub)))
            recurse(child, 0.5 * half, sub)

    if half0 <= 1e-12:
        return currents.empty_path(d)
    recurse(src, half0, atoms)
    return currents.overlay(segs, dim=d)


def irrigate_pair(mu_minus: AtomicMeasure, mu_plus: AtomicMeasure, alpha: float,
                  hub=None) -> TrafficPath:
    """Transport between two atomic measures by gluing two irrigations at a hub."""
    total = _check_balanced(mu_minus, mu_plus)
    d = mu_minus.dim if len(mu_minus.masses) else mu_plus.dim
    if total <= BALANCE_TOL:
        return currents.empty_path(d)
    if hub is None:
        pts = np.vstack([mu_minus.points, mu_plus.points])
        hub = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    forward = dyadic_irrigation(hub, mu_plus, alpha)
    backward = dyadic_irrigation(hub, mu_minus, alpha)
    return currents.add(forward, currents.reverse(backward))


@dataclass
class SphereWrapMap:
    """Wrap of a flat disk onto a sphere minus one puncture point.

    Azimuthal-equidistant style: the disk radius is the geodesic distance
    from the point opposite the puncture, so radial lengths are preserved
    and tangential lengths contract; the map is 1-Lipschitz, injective on
    the open disk of radius pi*r, and sends the disk boundary to the
    puncture.
    """

    sphere: Ball
    puncture: np.ndarray

    def __post_init__(self):
        self.puncture = as_point(self.puncture)
        if not self.sphere.on_sphere(self.puncture):
            raise ValueError("puncture must lie on the sphere")
        c = self.sphere.center
        self.axis = (self.puncture - c) / np.linalg.norm(self.puncture - c)
        probe = np.array([1.0, 0.0, 0.0])
        if abs(float(self.axis @ probe)) > 0.9:
            probe = np.array([0.0, 1.0, 0.0])
        e1 = np.cross(self.axis, probe)
        self.e1 = e1 / np.linalg.norm(e1)
        self.e2 = np.cross(self.axis, self.e1)
        self.lipschitz = 1.0

    def to_disk(self, x) -> np.ndarray:
        """Disk coordinates of a sphere point (2-vector)."""
        c, r = self.sphere.center, self.sphere.radius
        v = (as_point(x) - c) / r
        nq = -self.axis
        cosb = float(np.clip(v @ nq, -1.0, 1.0))
        beta = math.acos(cosb)
        rho = r * beta
        w = v - cosb * nq
        nw = float(np.linalg.norm(w))
        psi = math.atan2(float(w @ self.e2), float(w @ self.e1)) if nw > 1e-15 else 0.0
        return np.array([rho * math.cos(psi), rho * math.sin(psi)])

    def apply(self, p: np.ndarray) -> np.ndarray:
        c, r = self.sphere.center, self.sphere.radius
        rho = float(np.linalg.norm(p))
        if rho >= math.pi * r - 1e-15:
            return self.puncture.copy()
        beta = rho / r
        psi = math.atan2(float(p[1]), float(p[0])) if rho > 1e-15 else 0.0
        nq = -self.axis
        direction = math.cos(psi) * self.e1 + math.sin(psi) * self.e2
        return c + r * (math.cos(beta) * nq + math.sin(beta) * direction)

    def breakpoints(self, a: np.ndarray, b: np.ndarray) -> list[float]:
        step = 2.0 * math.pi * self.sphere.radius / DEFAULT_SEGMENTS
        n = max(1, int(math.ceil(float(np.linalg.norm(b - a)) / step)))
        return [k / n for k in range(1, n)]


def _sphere_atoms_checked(mu: AtomicMeasure, ball: Ball) -> None:
    for p, _ in mu.atoms():
        if not ball.on_sphere(p):
            raise ValueError("atom not on the sphere")


def _circle_transport(net: AtomicMeasure, ball: Ball) -> TrafficPath:
    """Connect a balanced net measure along a circle (d = 2)."""
    c, r = ball.center, ball.radius
    angles = []
    for p, m in net.atoms():
        v = p - c
        angles.append((math.atan2(float(v[1]), float(v[0])), float(m)))
    angles.sort()
    k = len(angles)
    # puncture: midpoint of the widest atom-free gap
    best_gap, best_at = -1.0, 0.0
    for i in range(k):
        a0 = angles[i][0]
        a1 = angles[(i + 1) % k][0] + (2.0 * math.pi if i + 1 == k else 0.0)
        if a1 - a0 > best_gap:
            best_gap, best_at = a1 - a0, 0.5 * (a0 + a1)
    # unroll: atoms ordered by angle measured just past the puncture
    unrolled = sorted(((a - best_at) % (2.0 * math.pi), m) for a, m in angles)
    step = 2.0 * math.pi / DEFAULT_SEGMENTS

    def on_circle(phi: float) -> np.ndarray:
        return c + r * np.array([math.cos(phi + best_at), math.sin(phi + best_at)])

    segs = []
    flow = 0.0
    for i in range(len(unrolled) - 1):
        flow -= unrolled[i][1]
        phi0, phi1 = unrolled[i][0], unrolled[i + 1][0]
        if abs(flow) <= 1e-12 or phi1 - phi0 <= 1e-15:
            continue
        n = max(1, int(math.ceil((phi1 - phi0) / step)))
        pts = [on_circle(phi0 + (phi1 - phi0) * j / n) for j in range(n + 1)]
        for pa, pb in zip(pts[:-1], pts[1:]):
            segs.append((pa, pb, flow) if flow > 0 else ((pb, pa, -flow)))
    return currents.from_segments(segs, dim=2)


def sphere_transport(mu_minus: AtomicMeasure, mu_plus: AtomicMeasure, ball: Ball,
                     alpha: float) -> TrafficPath:
    """Transport between balanced measures supported on one sphere, along it.

    Works for alpha above 1 - 1/(d-1).  In the plane the route follows
    circle arcs directly; in space the measures are pulled back through a
    1-Lipschitz disk wrap, irrigated inside the flat disk and pushed
    forward again, so the cost stays below a dimensional constant times
    (total mass)^alpha * radius.
    """
    d = ball.center.shape[0]
    if not currents.clears_sphere_threshold(alpha, d):
        raise ValueError("below sphere reduction threshold")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    _check_balanced(mu_minus, mu_plus)
    _sphere_atoms_checked(mu_minus, ball)
    _sphere_atoms_checked(mu_plus, ball)
    net = mu_plus - mu_minus
    if not len(net.masses):
        return currents.empty_path(d)
    if d == 2:
        return _circle_transport(net, ball)

    # choose a puncture keeping clear of every atom
    c, r = ball.center, ball.radius
    candidates = [c + r * v / np.linalg.norm(v) for v in
                  [-(p - c) for p, _ in net.atoms()]]
    for sgn in (1.0, -1.0):
        for ax in np.eye(3):
            candidates.append(c + r * sgn * ax)
    def min_geo(x):
        return min(math.acos(float(np.clip((p - c) @ (x - c) / (r * r), -1, 1)))
                   for p, _ in net.atoms())
    puncture = max(candidates, key=min_geo)
    if min_geo(puncture) <= 1e-9:
        raise ValueError("could not place a puncture away from the atoms")
    wrap = SphereWrapMap(ball, puncture)
    minus_disk = AtomicMeasure.from_atoms(
        [(wrap.to_disk(p), m) for p, m in net.negative_part().atoms()], dim=2)
    plus_disk = AtomicMeasure.from_atoms(
        [(wrap.to_disk(p), m) for p, m in net.positive_part().atoms()], dim=2)
    disk_path = irrigate_pair(minus_disk, plus_disk, alpha, hub=np.zeros(2))
    return currents.push_forward(disk_path, wrap)


def cone_transport(mu_minus: AtomicMeasure, mu_plus: AtomicMeasure, apex) -> TrafficPath:
    """Star transport through a single apex point.

    Cost is at most sum over atoms of mass^alpha * distance-to-apex; the
    overlay cancels collinear retracing, so an apex sitting on a straight
    route costs the same as the straight segment itself.
    """
    _check_balanced(mu_minus, mu_plus)
    a = as_point(apex)
    segs = []
    for p, m in mu_minus.atoms():
        if float(np.linalg.norm(p - a)) > 1e-12:
            segs.append((p, a, m))
    for q, m in mu_plus.atoms():
        if float(np.linalg.norm(q - a)) > 1e-12:
            segs.append((a, q, m))
    return currents.overlay(segs, dim=len(a))


def _free_sphere_point(ball: Ball, taken, dim: int) -> np.ndarray:
    c, r = ball.center, ball.radius
    for k in range(256):
        phi = 0.1234 + 2.0 * math.pi * k / 256.0
        if dim == 2:
            cand = c + r * np.array([math.cos(phi), math.sin(phi)])
        else:
            cand = c + r * np.array([math.cos(phi), math.sin(phi), 0.0]) if k % 2 == 0 \
                else c + r * np.array([math.cos(phi), 0.0, math.sin(phi)])
        if all(float(np.linalg.norm(cand - p)) > 1e-6 * r for p, _ in taken):
            return cand
    raise RuntimeError("no free point on sphere")


def _sphere_gathered_side(pi: dcmp.PathMeasure, nu: AtomicMeasure, mu: AtomicMeasure,
                          at_start: bool, mesh: float, ambient: float, alpha: float,
                          dim: int) -> tuple:
    """One side of cheap_subtransport: the source side when at_start, else the sink side.

    Every curve is reweighted by nu/mu at its start (end) atom, clipped at
    its first exit from (last entry into) the open cover balls of mu's
    support, and the contact mass on each sphere is carried along that
    sphere to one free point of it: away from the contacts on the source
    side, towards them on the sink side.  Returns the clipped segments,
    the sphere transport segments and the gathered measure, one atom per
    sphere.
    """
    balls = cover_compact([p for p, _ in mu.atoms()], mesh, ambient)
    region = BallRegion.union_of([b.open_copy() for b in balls])
    kept = []
    for c, w in pi.entries:
        anchor = c.start() if at_start else c.end()
        ref = mu.mass_at(anchor)
        rho = 0.0 if ref <= 1e-12 else min(1.0, nu.mass_at(anchor) / ref)
        if rho > 1e-12:
            kept.append((c, w * rho))
    regions = [region] * len(kept)
    cuts = dcmp.split_curves([c for c, _ in kept], regions if at_start else None,
                             None if at_start else regions)
    pieces = [(head if at_start else tail, w) for (head, _, tail), (_, w) in zip(cuts, kept)]
    contacts = [(piece.end() if at_start else piece.start(), w) for piece, w in pieces]
    groups: dict[int, list] = {}
    for p, w in contacts:
        hit = next((k for k, b in enumerate(balls) if b.on_sphere(p)), None)
        if hit is None:
            raise ValueError("cut point missed every cover sphere")
        groups.setdefault(hit, []).append((p, w))
    conn_segs, gathered = [], []
    for k, group in groups.items():
        w_k = sum(w for _, w in group)
        y_k = _free_sphere_point(balls[k], group, dim)
        contact_m = AtomicMeasure.from_atoms(group, dim=dim)
        point_m = AtomicMeasure.from_atoms([(y_k, w_k)], dim=dim)
        ends = (contact_m, point_m) if at_start else (point_m, contact_m)
        conn_segs.extend(sphere_transport(*ends, balls[k], alpha).segments())
        gathered.append((y_k, w_k))
    piece_segs = [(a, b, w) for c, w in pieces for a, b in c.segments()]
    return piece_segs, conn_segs, AtomicMeasure.from_atoms(gathered, dim=dim)


def cheap_subtransport(t: TrafficPath, pi: dcmp.PathMeasure, nu_minus: AtomicMeasure,
                       nu_plus: AtomicMeasure, alpha: float) -> TrafficPath:
    """Sub-transport moving nu_minus to nu_plus along reweighted pieces of t.

    nu_minus and nu_plus must be dominated by the negative and positive
    boundary parts of t and carry equal mass.  The construction reweights
    the decomposition at each endpoint, clips the curves at ball covers of
    the two supports (mesh one third of the support distance), gathers the
    contact mass to one point per sphere along the spheres themselves, and
    closes the middle with a cone through a fixed point.  Every
    multiplicity is linear in the nu masses, so the reported cost scales
    exactly by lambda^alpha when nu is scaled by lambda.  No smallness
    parameter enters: the covers, and so the whole construction, are
    fixed by the boundary of t.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    total = _check_balanced(nu_minus, nu_plus)
    dim = t.dim
    if total <= 1e-12:
        return currents.empty_path(dim)
    bnd = currents.boundary(t)
    mu_minus, mu_plus = bnd.negative_part(), bnd.positive_part()
    for nu, mu in ((nu_minus, mu_minus), (nu_plus, mu_plus)):
        if any(mu.mass_at(p) < m - BALANCE_TOL for p, m in nu.atoms()):
            raise ValueError("nu not dominated by boundary")
    sep = min(float(np.linalg.norm(p - q))
              for p, _ in mu_minus.atoms() for q, _ in mu_plus.atoms())
    if sep <= BALANCE_TOL:
        raise ValueError("boundary supports must be separated")
    mesh = sep / 3.0
    ambient = max(float(np.linalg.norm(p)) for p, _ in bnd.atoms()) + mesh
    cut_minus, conns_minus, sigma_minus = _sphere_gathered_side(
        pi, nu_minus, mu_minus, True, mesh, ambient, alpha, dim)
    cut_plus, conns_plus, sigma_plus = _sphere_gathered_side(
        pi, nu_plus, mu_plus, False, mesh, ambient, alpha, dim)
    apex = 0.5 * (np.mean(sigma_minus.points, axis=0) + np.mean(sigma_plus.points, axis=0))
    cone = cone_transport(sigma_minus, sigma_plus, apex)
    # overlay keeps the first vertex it meets, so the order is fixed
    segs = cut_minus + cut_plus + conns_minus + conns_plus + cone.segments()
    return currents.overlay(segs, dim=dim)
