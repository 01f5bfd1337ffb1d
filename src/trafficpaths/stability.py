"""Stability laboratory: converging marginals, competitor surgery, lemma checks.

Three layers live here.  `quantize` and `run_stability_trial` produce
sequences of atomic marginals converging to a target, solve every
instance with the exhaustive optimizer, and report whether the costs
stay bounded, the boundary gaps shrink monotonically and the limit
instance is solved optimally.  `build_competitor` performs the cut,
connect, scale and return surgery that assembles a strictly cheaper
admissible path from a deliberately suboptimal one, with a full energy
ledger of every budget it has to respect; the source covers and the sink
covers go through the same per-side steps (`_CoverSide`).
`check_quasi_additivity` and `check_high_multiplicity_lsc` probe the two
auxiliary inequalities (near-additivity of the cost for multiplicities
of different scale, and thresholded lower semicontinuity) on concrete
inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import constructors, currents, metrics, optimizer
from . import decomposition as dcmp
from .currents import AtomicMeasure, Config, TrafficPath
from .decomposition import Curve, PathMeasure
from .geometry import BallRegion

GOLDEN = 0.6180339887498949
BOUNDARY_TOL = 1e-9


# ---------------------------------------------------------------------------
# quantization of target measures


@dataclass(frozen=True)
class TargetSpec:
    """Family of atomic approximations of a target measure.

    kind "points": fixed atoms, optionally shifted by perturbation/n along
    a fixed per-atom unit direction (so the gap decreases exactly like 1/n).
    kind "cantor": middle-thirds mass at refinement level n, 2^n atoms on a
    segment of the given length starting at origin.
    """

    kind: str = "points"
    atoms: tuple = ()
    perturbation: float = 0.0
    origin: tuple = (0.0, 0.0)
    length: float = 1.0
    mass: float = 1.0
    axis: tuple | None = None
    seed: int = 0

    def dim(self) -> int:
        if self.kind == "points":
            if not self.atoms:
                raise ValueError("points target needs at least one atom")
            return len(self.atoms[0][0])
        return len(self.origin)


def _shift_direction(k: int, seed: int, dim: int) -> np.ndarray:
    t = math.fmod((k + 1) * GOLDEN + (seed % 9973) * GOLDEN * GOLDEN, 1.0)
    if dim == 2:
        ang = 2.0 * math.pi * t
        return np.array([math.cos(ang), math.sin(ang)])
    z = 1.0 - 2.0 * t
    r = math.sqrt(max(0.0, 1.0 - z * z))
    ang = 2.0 * math.pi * math.fmod((k + 1) * GOLDEN * GOLDEN + (seed % 9973) * GOLDEN, 1.0)
    return np.array([r * math.cos(ang), r * math.sin(ang), z])


def quantize(spec: TargetSpec, n: int) -> AtomicMeasure:
    """Level-n atomic approximation; total mass is preserved exactly."""
    if n < 0:
        raise ValueError("refinement level must be nonnegative")
    if spec.kind == "points":
        d = spec.dim()
        out = []
        for k, (p, m) in enumerate(spec.atoms):
            q = np.asarray(p, dtype=float)
            if n > 0 and spec.perturbation != 0.0:
                q = q + (spec.perturbation / n) * _shift_direction(k, spec.seed, d)
            out.append((q, float(m)))
        return AtomicMeasure.from_atoms(out, dim=d)
    if spec.kind == "cantor":
        d = spec.dim()
        origin = np.asarray(spec.origin, dtype=float)
        axis = np.zeros(d)
        axis[0] = 1.0
        if spec.axis is not None:
            axis = np.asarray(spec.axis, dtype=float)
            axis = axis / np.linalg.norm(axis)
        starts = [0.0]
        ln = 1.0
        for _ in range(n):
            starts = [s for s0 in starts for s in (s0, s0 + 2.0 * ln / 3.0)]
            ln /= 3.0
        w = spec.mass / len(starts)
        out = [(origin + spec.length * (s + ln / 2.0) * axis, w) for s in starts]
        return AtomicMeasure.from_atoms(out, dim=d)
    raise ValueError(f"unknown target kind: {spec.kind}")


def target_from_dict(d: dict, seed: int = 0) -> TargetSpec:
    if not isinstance(d, dict):
        raise ValueError("target spec must be an object")
    kind = d.get("kind", "points")
    if kind == "points":
        raw = d.get("atoms")
        if not isinstance(raw, list) or not raw:
            raise ValueError("target spec field 'atoms' must be a nonempty list")
        atoms = []
        for a in raw:
            if "point" not in a or "mass" not in a:
                raise ValueError("atom entries need 'point' and 'mass' fields")
            atoms.append((tuple(float(x) for x in a["point"]), float(a["mass"])))
        return TargetSpec(kind="points", atoms=tuple(atoms),
                          perturbation=float(d.get("perturbation", 0.0)), seed=seed)
    if kind == "cantor":
        return TargetSpec(kind="cantor", origin=tuple(d.get("origin", (0.0, 0.0))),
                          length=float(d.get("length", 1.0)),
                          mass=float(d.get("mass", 1.0)),
                          axis=tuple(d["axis"]) if "axis" in d else None, seed=seed)
    raise ValueError(f"unknown target kind: {kind}")


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    config: Config
    minus: TargetSpec
    plus: TargetSpec
    schedule: tuple
    seed: int = 0
    optimality_tol: float = 1e-4
    convergence_tol: float = 5e-2
    grid_step: float = 0.25

    def __post_init__(self):
        if not self.config.sphere_reduction_ok():
            raise ValueError("alpha below the stability threshold for this dimension")
        if not self.schedule:
            raise ValueError("schedule must be nonempty")
        supp_m = quantize(self.minus, 0)
        supp_p = quantize(self.plus, 0)
        gap = min(float(np.linalg.norm(p - q))
                  for p, _ in supp_m.atoms() for q, _ in supp_p.atoms())
        if gap <= 1e-9:
            raise ValueError("source and sink targets must have disjoint supports")


def experiment_from_dict(d: dict) -> ExperimentConfig:
    for key in ("alpha", "dimension", "mu_minus", "mu_plus", "schedule"):
        if key not in d:
            raise ValueError(f"missing field: {key}")
    cfg = Config(alpha=float(d["alpha"]), dimension=int(d["dimension"]),
                 ambient_radius=float(d.get("ambient_radius", 4.0)))
    seed = int(d.get("seed", 0))
    schedule = tuple(int(n) for n in d["schedule"])
    if any(n < 0 for n in schedule):
        raise ValueError("field 'schedule' must contain nonnegative integers")
    return ExperimentConfig(
        config=cfg,
        minus=target_from_dict(d["mu_minus"], seed=seed),
        plus=target_from_dict(d["mu_plus"], seed=seed + 1),
        schedule=schedule,
        seed=seed,
        optimality_tol=float(d.get("optimality_tol", 1e-4)),
        convergence_tol=float(d.get("convergence_tol", 5e-2)),
        grid_step=float(d.get("grid_step", 0.25)),
    )


def load_experiment(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return experiment_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# stability trials


@dataclass(frozen=True)
class TrialRow:
    n: int
    cost: float
    gap_minus: float
    gap_plus: float
    flat_gap: float
    atoms_minus: int
    atoms_plus: int


@dataclass(frozen=True)
class TrialReport:
    alpha: float
    dimension: int
    rows: tuple
    limit_cost: float
    limit_path: TrafficPath
    optimal_gap: float
    flat_gap_kind: str
    truncation_error: float
    verdicts: dict
    notes: tuple


def _limit_side(spec: TargetSpec, schedule) -> tuple[int, AtomicMeasure, float]:
    """Level, measure and truncation error of one side's limit marginal.

    Countable-support targets are truncated to the deepest scheduled level,
    which moves their mass by at most mass * 3^-level; point targets are
    their own level-0 quantization.
    """
    if spec.kind != "cantor":
        return 0, quantize(spec, 0), 0.0
    level = max(schedule)
    return level, quantize(spec, level), spec.mass * 3.0 ** (-level)


def run_stability_trial(cfg: ExperimentConfig) -> TrialReport:
    """Solve every scheduled instance and compare against the limit instance."""
    alpha = cfg.config.alpha
    d = cfg.config.dimension
    notes = []

    specs = (cfg.minus, cfg.plus)
    levels, limits, truncations = zip(*(_limit_side(s, cfg.schedule) for s in specs))
    truncation = sum(truncations, 0.0)
    if truncation:
        notes.append("limit measures truncated; tolerance widened by the "
                     "quantization error %.3g" % truncation)

    # the limit and every level are checked against the oracle range, then
    # solved together: one position batch per distinct merged atom count
    instances = [limits] + [[quantize(s, n) for s in specs] for n in cfg.schedule]
    for (mm, mp), n in zip(instances, [max(levels), *cfg.schedule]):
        if len(mm.masses) + len(mp.masses) > optimizer.ORACLE_MAX_ATOMS:
            raise optimizer.OracleRangeError(f"oracle range exceeded at n={n}")
    t_limit, *level_paths = optimizer.brute_force_many(instances, alpha)
    limit_cost = currents.alpha_mass(t_limit, alpha)

    grid = None
    if d == 2:
        r = cfg.config.ambient_radius
        grid = metrics.GridComplex.from_box(-r, -r, r, r, cfg.grid_step)
        # the limit's chain is the same at every level: rasterize it once
        limit_chain, limit_err = metrics.rasterize(grid, t_limit)
        flat_kind = "grid-flat-upper"
    else:
        flat_kind = "mass-surrogate"
        notes.append("dimension 3: path convergence witnessed only by the "
                     "mass surrogate, not a true flat distance")

    rows = []
    for n, marginals, t_n in zip(cfg.schedule, instances[1:], level_paths):
        cost_n = currents.alpha_mass(t_n, alpha)
        gm, gp = (metrics.weak_star_gap(m, lim) for m, lim in zip(marginals, limits))
        if grid is not None:
            # flat_distance_1(t_n, t_limit, grid), term for term
            chain_n, err_n = metrics.rasterize(grid, t_n)
            fg = metrics.flat_chain_norm(grid, chain_n - limit_chain) + (err_n + limit_err)
        else:
            fg = currents.mass(currents.subtract(t_n, t_limit))
        rows.append(TrialRow(n=n, cost=cost_n, gap_minus=gm, gap_plus=gp,
                             flat_gap=fg, atoms_minus=len(marginals[0].masses),
                             atoms_plus=len(marginals[1].masses)))

    costs = [r.cost for r in rows]
    costs_bounded = max(costs) <= 2.0 * (limit_cost + 1.0)
    tail = [r for r in rows if r.n >= 8]
    gaps_monotone = all(
        b.gap_minus <= a.gap_minus + 1e-12 and b.gap_plus <= a.gap_plus + 1e-12
        for a, b in zip(tail, tail[1:]))
    opt = optimizer.is_optimal(t_limit, alpha, tol=cfg.optimality_tol + truncation)
    tol = cfg.convergence_tol + truncation
    liminf_ok = min(costs[-2:]) >= limit_cost - tol
    converged = abs(costs[-1] - limit_cost) <= tol
    verdicts = {
        "costs_bounded": bool(costs_bounded),
        "gaps_monotone": bool(gaps_monotone),
        "limit_optimal": bool(opt.optimal),
        "liminf_ok": bool(liminf_ok),
        "converged": bool(converged),
    }
    verdicts["optimal"] = all(verdicts.values())
    return TrialReport(alpha=alpha, dimension=d, rows=tuple(rows),
                       limit_cost=limit_cost, limit_path=t_limit,
                       optimal_gap=opt.gap, flat_gap_kind=flat_kind,
                       truncation_error=truncation, verdicts=verdicts,
                       notes=tuple(notes))


CSV_COLUMNS = ("n", "cost_n", "boundary_gap_minus", "boundary_gap_plus",
               "flat_gap_T", "costs_bounded", "gaps_monotone", "limit_optimal",
               "liminf_ok", "converged")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def report_csv(report: TrialReport) -> str:
    lines = [",".join(CSV_COLUMNS)]
    v = report.verdicts
    flags = [v["costs_bounded"], v["gaps_monotone"], v["limit_optimal"],
             v["liminf_ok"], v["converged"]]
    for r in report.rows:
        cells = [r.n, r.cost, r.gap_minus, r.gap_plus, r.flat_gap] + flags
        lines.append(",".join(_fmt(c) for c in cells))
    return "\n".join(lines) + "\n"


def report_json_dict(report: TrialReport) -> dict:
    return {
        "alpha": report.alpha,
        "dimension": report.dimension,
        "rows": [{"n": r.n, "cost_n": r.cost, "boundary_gap_minus": r.gap_minus,
                  "boundary_gap_plus": r.gap_plus, "flat_gap_T": r.flat_gap,
                  "atoms_minus": r.atoms_minus, "atoms_plus": r.atoms_plus}
                 for r in report.rows],
        "limit_cost": report.limit_cost,
        "optimal_gap": report.optimal_gap,
        "flat_gap_kind": report.flat_gap_kind,
        "truncation_error": report.truncation_error,
        "verdicts": report.verdicts,
        "notes": list(report.notes),
    }


# ---------------------------------------------------------------------------
# competitor construction


@dataclass(frozen=True)
class CompetitorConfig:
    """Surgery budget: energy gap, smallness parameters, cover truncation."""

    Delta: float
    eps1: float
    eps2: float
    delta: float
    N_minus: int
    N_plus: int

    def __post_init__(self):
        for name in ("Delta", "eps1", "eps2", "delta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.N_minus < 1 or self.N_plus < 1:
            raise ValueError("cover truncation counts must be at least 1")

    @classmethod
    def from_dict(cls, d: dict) -> "CompetitorConfig":
        for key in ("Delta", "eps1", "eps2", "delta", "N_minus", "N_plus"):
            if key not in d:
                raise ValueError(f"missing field: {key}")
        return cls(Delta=float(d["Delta"]), eps1=float(d["eps1"]),
                   eps2=float(d["eps2"]), delta=float(d["delta"]),
                   N_minus=int(d["N_minus"]), N_plus=int(d["N_plus"]))


def cover_radius_budget(Delta: float, dim: int) -> float:
    """Delta / (128 C_d): each side's cover radii must sum below it.

    C_d is the sphere connector constant: a side's connectors, each at
    most C_d (cut mass)^alpha times its ball's radius, then cost below
    Delta / 128 while the cut masses stay at most 1.
    """
    return Delta / (128.0 * constructors.SPHERE_CONSTANT[dim])


@dataclass(frozen=True)
class CompetitorReport:
    competitor: TrafficPath
    tilde_sel: TrafficPath
    boundary_error_sel: float
    boundary_error_full: float
    alpha_ratios_minus: tuple
    alpha_ratios_plus: tuple
    ledger: dict
    checks: dict
    ok: bool


def _sign_covers(covers: dict) -> tuple:
    try:
        return list(covers["minus"]), list(covers["plus"])
    except KeyError as exc:
        raise ValueError("covers must provide 'minus' and 'plus' ball lists") from exc


def _cell_mass(measure: AtomicMeasure, cell) -> float:
    return sum(m for p, m in measure.atoms() if cell.contains(p))


@dataclass
class _CoverSide:
    """One side of the surgery: the source covers or the sink covers.

    ``name`` ("minus" or "plus") names the side in ledger and check keys
    and ``kind`` ("source" or "sink") in messages.  ``target`` and
    ``approx`` are the side's boundary parts of t_opt and t_n.  The walks
    over the two decompositions fill ``cut`` (cell -> atoms where the
    selected t_n curves leave or enter the cover), ``opt`` (cell -> atoms
    where the optimal middle starts or ends) and ``kept`` (the selected
    segments inside the cover); ``hand_off`` then sets the side's sphere
    ratios, connectors with their costs and cost bounds, and its excess.
    """

    name: str
    kind: str
    balls: list
    n: int
    target: AtomicMeasure
    approx: AtomicMeasure
    cut: dict = field(default_factory=dict)
    opt: dict = field(default_factory=dict)
    kept: list = field(default_factory=list)

    def __post_init__(self):
        self.region = BallRegion.union_of(self.balls[:self.n])
        self.cells = dcmp.cells_of_cover([b.open_copy() for b in self.balls])
        self.open_balls = [c.open_ball() for c in self.cells]
        self.radius_sum = sum(b.radius for b in self.balls)

    def hand_off(self, one2: float, alpha: float, d: int) -> None:
        """Hand the cut mass along the cover spheres to the scaled middle.

        Ball k takes its cut mass at the ratio r_k = cut / ((1 + eps2) *
        optimal mass); its connector runs along the sphere between the cut
        atoms and the optimal atoms scaled by r_k (1 + eps2), out of the
        cut on the source side and into it on the sink side.  What the
        scaled middle leaves over, (1 + eps2)(1 - r_k) of each optimal
        atom, becomes the side's excess boundary.  Balls past the
        truncation hold no cut atoms, so they get no connector.
        """
        self.ratios, self.conns, self.costs, self.bounds = [], [], [], []
        for k, ball in enumerate(self.balls):
            w_cut = sum(w for _, w in self.cut.get(k, []))
            m_opt = sum(w for _, w in self.opt.get(k, []))
            if m_opt <= 1e-12:
                if w_cut > 1e-12:
                    raise ValueError(
                        f"sphere ratio undefined on {self.name} ball {k}: "
                        "no optimal mass crosses it")
                self.ratios.append(0.0)
                continue
            rk = w_cut / (one2 * m_opt)
            if rk > 1.0 + 1e-9:
                raise ValueError(
                    f"sphere ratio out of [0,1] on {self.name} ball {k}: "
                    "cell mass growth precondition failed")
            rk = min(max(rk, 0.0), 1.0)
            self.ratios.append(rk)
            if w_cut <= 1e-12:
                continue
            cut_m = AtomicMeasure.from_atoms(self.cut[k], dim=d)
            scaled = AtomicMeasure.from_atoms(
                [(p, rk * one2 * w) for p, w in self.opt[k]], dim=d)
            ends = (cut_m, scaled) if self.kind == "source" else (scaled, cut_m)
            conn = constructors.sphere_transport(*ends, ball, alpha)
            self.conns.append(conn)
            self.costs.append(currents.alpha_mass(conn, alpha))
            self.bounds.append(constructors.SPHERE_CONSTANT[d] * w_cut ** alpha
                               * ball.radius)
        excess = []
        for k, group in self.opt.items():
            leftover = one2 * (1.0 - self.ratios[k])
            excess.extend((p, leftover * w) for p, w in group if leftover * w > 1e-15)
        self.excess = AtomicMeasure.from_atoms(excess, dim=d)


def build_competitor(t_n: TrafficPath, pi_n: PathMeasure, t_opt: TrafficPath,
                     pi_opt: PathMeasure, covers, cc: CompetitorConfig,
                     alpha: float) -> CompetitorReport:
    """Assemble the cut-connect-scale-return competitor and audit its budgets.

    The curves of t_n that start and end inside the truncated covers are
    kept only up to the first exit from the start ball and from the last
    entry into the end ball; a scaled copy of the optimal path bridges
    the middle; transports along each cover sphere hand the cut mass to
    that copy; the scaled copy's excess boundary is returned by a cheap
    sub-transport running backwards along it.  Every per-side step runs
    once for the source covers and once for the sink covers.  The report
    carries the assembled paths, both boundary identity errors, the
    per-budget energy ledger and all precondition checks.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    d = t_n.dim
    if not currents.clears_sphere_threshold(alpha, d):
        raise ValueError("alpha must exceed the sphere reduction threshold 1 - 1/(d-1)")
    balls_minus, balls_plus = _sign_covers(covers)
    if cc.N_minus > len(balls_minus) or cc.N_plus > len(balls_plus):
        raise ValueError("cover truncation count exceeds the cover size")
    one2 = 1.0 + cc.eps2

    mass_tn = currents.alpha_mass(t_n, alpha)
    mass_topt = currents.alpha_mass(t_opt, alpha)
    c_energy = max(mass_tn, mass_topt)

    # smallness budget: every violated constraint is reported at once
    viol = []
    if not cc.eps2 <= cc.delta / 2.0:
        viol.append("eps2 <= delta/2")
    if not c_energy * cc.eps1 ** (1.0 - alpha) <= cc.delta / 2.0:
        viol.append("C*eps1^(1-alpha) <= delta/2")
    if not cc.eps1 <= cc.delta / 4.0:
        viol.append("eps1 <= delta/4")
    if not 16.0 * cc.eps1 ** alpha * c_energy <= cc.delta ** alpha * cc.Delta:
        viol.append("16*eps1^alpha*C <= delta^alpha*Delta")
    if viol:
        raise ValueError("smallness constraints violated: " + ", ".join(viol))

    bnd_opt = currents.boundary(t_opt)
    bnd_n = currents.boundary(t_n)
    minus = _CoverSide("minus", "source", balls_minus, cc.N_minus,
                       bnd_opt.negative_part(), bnd_n.negative_part())
    plus = _CoverSide("plus", "sink", balls_plus, cc.N_plus,
                      bnd_opt.positive_part(), bnd_n.positive_part())
    sides = (minus, plus)

    # cover geometry preconditions
    all_balls = balls_minus + balls_plus
    for a in range(len(all_balls)):
        for b in range(a + 1, len(all_balls)):
            ba, bb = all_balls[a], all_balls[b]
            if float(np.linalg.norm(ba.center - bb.center)) <= ba.radius + bb.radius:
                raise ValueError("cover closures are not pairwise disjoint")
    r_budget = cover_radius_budget(cc.Delta, d)
    if any(s.radius_sum >= r_budget for s in sides):
        raise ValueError("cover radii too large for the energy gap")
    if any(b.on_sphere(p) for s in sides for measure in (s.target, s.approx)
           for p, _ in measure.atoms() for b in all_balls):
        raise ValueError("marginal atom sits on a cover sphere")

    energy_in_cover = {
        f"cover_energy_{tag}_{s.name}":
            currents.alpha_mass(currents.restrict(t, s.region), alpha)
        for tag, t in (("n", t_n), ("opt", t_opt)) for s in sides}
    if max(energy_in_cover.values()) > cc.Delta / 128.0:
        raise ValueError("cover captures too much energy for the gap budget")

    # truncation captures nearly all source/sink mass
    for s in sides:
        if _cell_mass(s.target, s.region) <= s.target.total() - cc.eps1 / 4.0:
            raise ValueError(f"cover truncation misses {s.kind} mass")

    # approximating boundary close to the target boundary
    if max(metrics.weak_star_gap(s.approx, s.target) for s in sides) > cc.eps2 + 1e-12:
        raise ValueError("approximating boundary too far from the target boundary")

    # cell mass growth check (recorded; ratio range errors surface it too)
    growth_ok = not any(
        _cell_mass(s.approx, c.cell) > one2 * _cell_mass(s.target, c.cell) + 1e-12
        for s in sides for c in s.cells[:s.n])

    # mass of the approximation outside the truncated cells
    if max(s.approx.total() - sum(_cell_mass(s.approx, c.cell) for c in s.cells[:s.n])
           for s in sides) > cc.eps1 / 2.0 + 1e-12:
        raise ValueError("too much approximating mass outside the truncated cells")

    # selection: curves starting and ending inside the truncated covers, kept
    # up to the first exit from the start ball and from the last entry into
    # the end ball
    curves = [c for c, _ in pi_n.entries]
    i_sel = dcmp.cell_indices(minus.cells[:minus.n], [c.start() for c in curves]).tolist()
    j_sel = dcmp.cell_indices(plus.cells[:plus.n], [c.end() for c in curves]).tolist()
    chosen = [k for k in range(len(curves)) if i_sel[k] >= 0 and j_sel[k] >= 0]
    rest = [entry for k, entry in enumerate(pi_n.entries) if i_sel[k] < 0 or j_sel[k] < 0]
    cuts = dcmp.split_curves([curves[k] for k in chosen],
                             [minus.open_balls[i_sel[k]] for k in chosen],
                             [plus.open_balls[j_sel[k]] for k in chosen])
    sel_weight = 0.0
    sel_full_segs = []
    for k, (head, _, tail) in zip(chosen, cuts):
        (c, w), i, j = pi_n.entries[k], i_sel[k], j_sel[k]
        sel_weight += w
        sel_full_segs.extend((a, b, w) for a, b in c.segments())
        minus.kept.extend((a, b, w) for a, b in head.segments())
        plus.kept.extend((a, b, w) for a, b in tail.segments())
        minus.cut.setdefault(i, []).append((head.end(), w))
        plus.cut.setdefault(j, []).append((tail.start(), w))

    # optimal path: restriction strictly between the two covers
    curves = [c for c, _ in pi_opt.entries]
    i_opt = dcmp.cell_indices(minus.cells, [c.start() for c in curves]).tolist()
    j_opt = dcmp.cell_indices(plus.cells, [c.end() for c in curves]).tolist()
    n = next((k for k, ij in enumerate(zip(i_opt, j_opt)) if min(ij) < 0), len(curves))
    cuts = dcmp.split_curves(curves[:n], [minus.open_balls[i] for i in i_opt[:n]],
                             [plus.open_balls[j] for j in j_opt[:n]])
    if n < len(curves):  # raised after the errors of the curves before it
        raise ValueError("optimal decomposition endpoint not covered")
    restr_pieces = []
    for (_, piece, _), (_, w), i, j in zip(cuts, pi_opt.entries, i_opt, j_opt):
        restr_pieces.append((piece, w))
        minus.opt.setdefault(i, []).append((piece.start(), w))
        plus.opt.setdefault(j, []).append((piece.end(), w))

    for s in sides:
        s.hand_off(one2, alpha, d)

    # the excess boundary of the scaled optimal middle is walked back
    scaled_restr_segs = [(a, b, one2 * w) for piece, w in restr_pieces
                         for a, b in piece.segments()]
    scaled_restr = currents.overlay(scaled_restr_segs, dim=d)
    excess_total = minus.excess.total()
    if abs(excess_total - plus.excess.total()) > BOUNDARY_TOL:
        raise ValueError("excess boundary masses do not balance")
    if excess_total > 1e-12:
        scaled_pi = PathMeasure(tuple((piece, one2 * w) for piece, w in restr_pieces))
        forward = constructors.cheap_subtransport(
            scaled_restr, scaled_pi, minus.excess, plus.excess, alpha)
        t_back = currents.reverse(forward)
    else:
        t_back = currents.empty_path(d)
    back_cost = currents.alpha_mass(t_back, alpha)

    # assembly; overlay keeps the first vertex it meets, so the order is fixed
    tilde_segs = list(minus.kept)
    for conn in minus.conns:
        tilde_segs.extend(conn.segments())
    tilde_segs.extend(scaled_restr.segments())
    tilde_segs.extend(t_back.segments())
    for conn in plus.conns:
        tilde_segs.extend(conn.segments())
    tilde_segs.extend(plus.kept)
    t_tilde = currents.overlay(tilde_segs, dim=d)

    t_sel = currents.overlay(sel_full_segs, dim=d)
    err_sel = (currents.boundary(t_tilde) - currents.boundary(t_sel)).tv()

    rest_segs = [(a, b, w) for c, w in rest for a, b in c.segments()]
    t_bar = currents.overlay(tilde_segs + rest_segs, dim=d)
    err_full = (currents.boundary(t_bar) - bnd_n).tv()

    # energy ledger
    u_c = BallRegion.union_of(minus.balls[:minus.n] + plus.balls[:plus.n],
                              complement=True)
    outside_cost = currents.alpha_mass(currents.restrict(t_tilde, u_c), alpha)
    inside = {s.name: currents.alpha_mass(currents.restrict(currents.subtract(
        t_tilde, currents.overlay(s.kept, dim=d)), s.region), alpha) for s in sides}
    competitor_cost = currents.alpha_mass(t_bar, alpha)

    conn_cost = {s.name: sum(s.costs) for s in sides}
    ledger = {
        "cost_t_n": mass_tn,
        "cost_t_opt": mass_topt,
        "Delta": cc.Delta,
        "energy_gap": mass_tn - mass_topt,
        "cover_radius_sum_minus": minus.radius_sum,
        "cover_radius_sum_plus": plus.radius_sum,
        "cover_radius_budget": r_budget,
        **energy_in_cover,
        "connector_cost_minus": conn_cost["minus"],
        "connector_cost_plus": conn_cost["plus"],
        "back_transport_cost": back_cost,
        "excess_mass": excess_total,
        "outside_cost": outside_cost,
        "outside_budget": mass_topt + cc.Delta / 4.0,
        "inside_minus_cost": inside["minus"],
        "inside_plus_cost": inside["plus"],
        "inside_budget": cc.Delta / 32.0,
        "competitor_cost": competitor_cost,
        "conclusion_budget": mass_tn - cc.Delta / 8.0,
        "selected_weight": sel_weight,
        "unselected_weight": sum(w for _, w in rest),
    }
    checks = {
        "cell_mass_growth": growth_ok,
        "boundary_sel_exact": err_sel <= BOUNDARY_TOL,
        "boundary_full_exact": err_full <= BOUNDARY_TOL,
        "connector_bounds": all(c <= b + 1e-9 for s in sides
                                for c, b in zip(s.costs, s.bounds)),
        "connector_budget_minus": conn_cost["minus"] <= cc.Delta / 128.0 + 1e-12,
        "connector_budget_plus": conn_cost["plus"] <= cc.Delta / 128.0 + 1e-12,
        "back_budget": back_cost <= cc.Delta / 128.0 + 1e-12,
        "outside_budget": outside_cost <= mass_topt + cc.Delta / 4.0 + 1e-12,
        "inside_budget_minus": inside["minus"] <= cc.Delta / 32.0 + 1e-12,
        "inside_budget_plus": inside["plus"] <= cc.Delta / 32.0 + 1e-12,
    }
    ledger["gap_hypothesis"] = ledger["energy_gap"] >= cc.Delta
    ledger["improves"] = competitor_cost < mass_tn
    ledger["conclusion"] = competitor_cost <= ledger["conclusion_budget"]
    return CompetitorReport(
        competitor=t_bar, tilde_sel=t_tilde, boundary_error_sel=err_sel,
        boundary_error_full=err_full,
        alpha_ratios_minus=tuple(minus.ratios), alpha_ratios_plus=tuple(plus.ratios),
        ledger=ledger, checks=checks, ok=all(checks.values()))


def competitor_json_dict(report: CompetitorReport) -> dict:
    return {
        "boundary_error_sel": report.boundary_error_sel,
        "boundary_error_full": report.boundary_error_full,
        "alpha_ratios_minus": list(report.alpha_ratios_minus),
        "alpha_ratios_plus": list(report.alpha_ratios_plus),
        "ledger": {k: v for k, v in report.ledger.items()},
        "checks": {k: bool(v) for k, v in report.checks.items()},
        "ok": report.ok,
    }


# ---------------------------------------------------------------------------
# lemma checks


def _shared_pieces(t1: TrafficPath, t2: TrafficPath):
    """Collinear overlap pieces of two paths: (theta1, theta2, length)."""
    n1 = len(t1.edges)
    ends, thetas = currents._edges_of(t1, t2)
    out = []
    for intervals in currents._line_groups(ends[0::2], ends[1::2], thetas):
        for lo1, hi1, th1, k1 in intervals:
            if k1 >= n1:
                continue
            for lo2, hi2, th2, k2 in intervals:
                if k2 < n1:
                    continue
                lo, hi = max(lo1, lo2), min(hi1, hi2)
                if hi - lo > 1e-12:
                    out.append((abs(th1), abs(th2), hi - lo))
    return out


def check_quasi_additivity(t1: TrafficPath, t2: TrafficPath, eps: float,
                           alpha: float) -> bool:
    """Near-additivity of the cost when t1 is everywhere much thinner than t2.

    Requires eps in (0, 1/4) and multiplicity of t1 below eps times the
    multiplicity of t2 on every shared piece; under that hypothesis the
    returned inequality must hold, so a False return is a bug upstream.
    """
    if not 0.0 < eps < 0.25:
        raise ValueError("eps must lie in (0, 1/4)")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    for th1, th2, _ in _shared_pieces(t1, t2):
        if not th1 < eps * th2:
            raise ValueError("multiplicity hypothesis violated on a shared piece")
    lhs = (1.0 + 4.0 * eps ** alpha) * currents.alpha_mass(currents.add(t1, t2), alpha)
    rhs = currents.alpha_mass(t1, alpha) + currents.alpha_mass(t2, alpha)
    return lhs >= rhs - 1e-9


@dataclass(frozen=True)
class LscReport:
    delta_empirical: float
    delta_constructive: float
    delta0: float
    margin: float
    holds: bool
    energy_bound: float


def _thresholded(t: TrafficPath, delta: float) -> TrafficPath:
    segs = [(a, b, th) for a, b, th in t.segments() if th > delta]
    return currents.overlay(segs, dim=t.dim)


def check_high_multiplicity_lsc(t: TrafficPath, t_seq, region: BallRegion,
                                eps: float, alpha: float = 0.5) -> LscReport:
    """Thresholded semicontinuity: high-multiplicity parts carry the energy.

    Measures the plain semicontinuity margin delta0 of the restricted
    alpha-mass on the sequence (with the conservative mass surrogate for
    the flat gap), solves delta + C*delta^(1-alpha) <= delta0 by bisection
    for the constructive threshold, and verifies the thresholded inequality
    at both the constructive and the largest empirically passing threshold.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    # C must dominate every alpha-mass in play; use mass as alpha=1 proxy
    c_bound = max([currents.mass(t)] + [currents.mass(s) for s in t_seq] + [1.0])
    v_ref = currents.alpha_mass(currents.restrict(t, region), alpha)

    gaps = [currents.mass(currents.subtract(s, t)) for s in t_seq]
    values = [currents.alpha_mass(currents.restrict(s, region), alpha)
              for s in t_seq]

    # plain-semicontinuity margin: the largest gap radius within which every
    # member still carries at least v_ref - eps/2 of restricted energy
    candidates = sorted(set(gaps)) + [max(gaps, default=0.0) + 1.0]
    delta0 = 0.0
    for cand in candidates:
        if all(v >= v_ref - eps / 2.0 - 1e-12
               for g, v in zip(gaps, values) if g <= cand):
            delta0 = cand

    def constraint(x: float) -> float:
        return x + c_bound * x ** (1.0 - alpha)

    lo, hi = 0.0, max(delta0, 1e-12)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if constraint(mid) <= delta0:
            lo = mid
        else:
            hi = mid
    delta_star = lo

    def thresholded_ok(delta: float) -> tuple:
        worst = math.inf
        ok = True
        for s, g in zip(t_seq, gaps):
            if g > delta:
                continue
            val = currents.alpha_mass(
                currents.restrict(_thresholded(s, delta), region), alpha)
            worst = min(worst, val - (v_ref - eps))
            if val < v_ref - eps - 1e-12:
                ok = False
        return ok, (0.0 if worst is math.inf else worst)

    holds, margin = thresholded_ok(delta_star)

    # largest empirically passing threshold over a candidate scan
    thetas = sorted({th for s in t_seq for _, _, th in s.segments()})
    scan = sorted(set(gaps) | set(thetas) | {delta_star})
    delta_emp = 0.0
    for cand in scan:
        if thresholded_ok(cand)[0]:
            delta_emp = max(delta_emp, cand)
    return LscReport(delta_empirical=delta_emp, delta_constructive=delta_star,
                     delta0=delta0, margin=margin, holds=holds,
                     energy_bound=c_bound)
