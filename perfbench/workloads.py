"""The four benchmark workloads: seeded inputs, operations and answer checks.

Each workload is a fixed list of operations.  An operation's ``run`` is
the timed call into the package's public entry points; its ``inspect``
runs afterwards, untimed, and turns the raw result into an Outcome: the
canonical text that repeats must reproduce byte for byte, the alpha-mass
of every path the operation returned, and the problems the checks found.
All calls go through module attributes at call time, so the traced run's
wrappers see them.

Inputs come only from the seed.  oracle6 perturbs fixed base instances
instead of drawing new ones, because solve time swings several fold
between unrelated instances of one shape and a run holds only a few
solves; the perturbation still changes every coordinate and mass.
local12 solves its base instances unperturbed: local_search time has a
heavy tail even under 5e-3 perturbations (one seed in five took 3-5x the
others), which one run of two solves cannot average out.  trials keeps the
shipped configs' own seeds for the same reason (trial time moved from 16 s
to 21 s between experiment seeds).  Their reference costs therefore hold
for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

ROOT = pathlib.Path(__file__).resolve().parents[1]

# the shipped stability configs, named so that new files in configs/ do not
# change the workload
TRIAL_CONFIGS = ("stability_alpha02.json", "stability_alpha03.json",
                 "stability_alpha04.json", "stability_alpha06.json",
                 "stability_alpha08.json")

# (sources, sinks, dimension, alpha) per solve
ORACLE_SLOTS = ((1, 5, 2, 0.3), (2, 4, 3, 0.45), (3, 3, 2, 0.6), (1, 5, 3, 0.9))
LOCAL_SLOTS = ((2, 6, 2, 0.8), (2, 10, 2, 0.6))
ORACLE_JITTER = 0.005
LOCAL_JITTER = 0.0

# surgery: random acyclic path pairs per dimension, admissible competitor
# instances, and the detour heights of scripts/run_competitor.py
SURGERY_PAIRS = {2: 24, 3: 10}
SURGERY_EDGES = 24
ADMISSIBLE = 4
DETOUR_HEIGHTS = (0.6, 0.8, 1.0)
DETOUR_ALPHA = 0.6

# workloads whose inputs do not depend on --seed
SEED_FREE = ("local12", "trials")

# which layer the profile says carries most self time on each workload
DOMINANT_LAYER = {"oracle6": "optimizer", "local12": "optimizer",
                  "trials": "optimizer", "surgery": "currents"}


@dataclass
class Outcome:
    canonical: str
    cost: float
    problems: list


@dataclass
class Op:
    op_id: str
    run: Callable[[], object]
    inspect: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    ops: list
    warm_up: Callable[[], None]


def reference_key(name: str, seed: int) -> str:
    """Key of a workload's reference costs in reference.json."""
    return "any" if name in SEED_FREE else str(seed)


def build(name: str, seed: int, workdir: pathlib.Path, pkg, small: bool = False
          ) -> Workload:
    """Generate the inputs of one workload; ``small`` keeps one operation of each kind."""
    builders = {"oracle6": _oracle6, "local12": _local12, "trials": _trials,
                "surgery": _surgery}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(builders)}")
    return builders[name](seed, workdir, pkg, small)


# ---------------------------------------------------------------------------
# solve workloads through the command line entry point


def _atoms(points, masses) -> list:
    return [{"point": [float(x) for x in p], "mass": float(m)}
            for p, m in zip(points, masses)]


def _instance(slot_index: int, slot, rng: np.random.Generator, base_stream: int,
              jitter: float) -> dict:
    """Base instance of a slot (fixed stream) perturbed by the seeded rng."""
    n_minus, n_plus, dim, alpha = slot
    base = np.random.default_rng([base_stream, slot_index])
    pm = base.uniform(-1.0, 1.0, size=(n_minus, dim))
    pp = base.uniform(-1.0, 1.0, size=(n_plus, dim))
    pm[:, 0] -= 2.0
    pp[:, 0] += 2.0
    wm = base.uniform(0.2, 1.0, size=n_minus)
    wp = base.uniform(0.2, 1.0, size=n_plus)
    pm = pm + jitter * rng.uniform(-1.0, 1.0, size=pm.shape)
    pp = pp + jitter * rng.uniform(-1.0, 1.0, size=pp.shape)
    wm = wm * (1.0 + jitter * rng.uniform(-1.0, 1.0, size=wm.shape))
    wp = wp * (1.0 + jitter * rng.uniform(-1.0, 1.0, size=wp.shape))
    wp = wp * (wm.sum() / wp.sum())
    return {"dimension": dim, "alpha": alpha, "ambient_radius": 4.0,
            "mu_minus": _atoms(pm, wm), "mu_plus": _atoms(pp, wp)}


def _cli_solve(pkg, path: pathlib.Path, method: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(["--out", "-", "solve", "--in", str(path),
                             "--method", method])
    if code != 0:
        raise RuntimeError(f"solve exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _inspect_solve(inst: dict) -> Callable[[str], Outcome]:
    target = checks.signed([(a["point"], a["mass"]) for a in inst["mu_minus"]],
                           [(a["point"], a["mass"]) for a in inst["mu_plus"]])

    def inspect(text: str) -> Outcome:
        doc = json.loads(text)
        path = checks.path_of_doc(doc["path"])
        return Outcome(text, float(doc["cost"]),
                       checks.check_solution(path, target, inst["alpha"], doc["cost"]))
    return inspect


def _solve_workload(name, slots, method, base_stream, jitter, seed, workdir, pkg,
                    small):
    rng = np.random.default_rng(seed)
    ops = []
    for k, slot in enumerate(slots[:1] if small else slots):
        inst = _instance(k, slot, rng, base_stream, jitter)
        path = workdir / f"{name}-{k}.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        n_minus, n_plus, dim, alpha = slot
        ops.append(Op(f"{name}.{k}.{n_minus}to{n_plus}.d{dim}.a{alpha}",
                      lambda path=path: _cli_solve(pkg, path, method),
                      _inspect_solve(inst)))
    warm = _instance(0, (2, 2, 2, 0.5), rng, base_stream, jitter)
    warm_path = workdir / f"{name}-warm.json"
    warm_path.write_text(json.dumps(warm), encoding="utf-8")
    return Workload(name, ops, lambda: _cli_solve(pkg, warm_path, method))


def _oracle6(seed, workdir, pkg, small):
    return _solve_workload("oracle6", ORACLE_SLOTS, "oracle", 6, ORACLE_JITTER, seed,
                           workdir, pkg, small)


def _local12(seed, workdir, pkg, small):
    return _solve_workload("local12", LOCAL_SLOTS, "local", 12, LOCAL_JITTER, seed,
                           workdir, pkg, small)


# ---------------------------------------------------------------------------
# stability trials


def _trials(seed, workdir, pkg, small):
    stability = pkg.stability
    ops = []
    for fname in TRIAL_CONFIGS[:1] if small else TRIAL_CONFIGS:
        raw = json.loads((ROOT / "configs" / fname).read_text(encoding="utf-8"))
        cfg = stability.experiment_from_dict(raw)

        def run(cfg=cfg):
            report = pkg.stability.run_stability_trial(cfg)
            return report, pkg.cli.canonical_json(pkg.stability.report_json_dict(report))

        ops.append(Op(f"trials.{fname[:-5]}", run, _inspect_trial(raw)))

    warm_raw = json.loads((ROOT / "configs" / TRIAL_CONFIGS[0]).read_text(encoding="utf-8"))
    warm_raw["schedule"] = [1, 2]
    warm_cfg = stability.experiment_from_dict(warm_raw)
    return Workload("trials", ops,
                    lambda: pkg.stability.run_stability_trial(warm_cfg))


def _inspect_trial(raw: dict) -> Callable[[tuple], Outcome]:
    # the shipped configs are point targets: level 0 is the unperturbed atoms
    target = checks.signed([(a["point"], a["mass"]) for a in raw["mu_minus"]["atoms"]],
                           [(a["point"], a["mass"]) for a in raw["mu_plus"]["atoms"]])
    alpha = float(raw["alpha"])

    def inspect(result) -> Outcome:
        report, text = result
        problems = [f"verdict {k} failed" for k, v in report.verdicts.items() if not v]
        limit = checks.path_of(report.limit_path)
        problems += checks.check_solution(limit, target, alpha, report.limit_cost)
        cost = report.limit_cost + sum(r.cost for r in report.rows)
        return Outcome(text, cost, problems)
    return inspect


# ---------------------------------------------------------------------------
# surgery: path calculus, decompositions and competitor construction


def _random_acyclic_path(rng: np.random.Generator, pkg, dim: int,
                        n_edges: int = SURGERY_EDGES, box: float = 3.0):
    """Acyclic path: edges run from lexicographically lower to higher vertices."""
    n_vertices = n_edges // 2 + 2
    pts = rng.uniform(-box, box, size=(n_vertices, dim))
    pts = pts[np.lexsort(pts.T[::-1])]
    pairs = set()
    while len(pairs) < n_edges:
        i = int(rng.integers(0, n_vertices - 1))
        pairs.add((i, int(rng.integers(i + 1, n_vertices))))
    segs = [(pts[i], pts[j], float(rng.uniform(0.1, 2.0))) for i, j in sorted(pairs)]
    return pkg.currents.from_segments(segs, dim=dim)


def _canonical_path(t) -> str:
    verts, edges = checks.path_of(t)
    return json.dumps({"vertices": verts.tolist(), "edges": edges})


def _path_outcome(paths, alpha: float, problems: list) -> Outcome:
    data = [checks.path_of(t) for t in paths]
    text = "\n".join(_canonical_path(t) for t in paths)
    return Outcome(text, sum(checks.alpha_mass(p, alpha) for p in data), problems)


def _boundary_problem(got, want, what: str) -> list:
    err = checks.tv(checks.combine((1.0, got), (-1.0, want)))
    return [] if err <= checks.TOL else [f"{what}: boundary TV {err:.3g}"]


def _calculus_ops(tag: str, t1, t2, ball, alpha: float, pkg) -> list:
    """add / subtract / restrict / remove_cycles / decomposition ops on one pair."""
    currents, dcmp, geometry = pkg.currents, pkg.decomposition, pkg.geometry
    p1, p2 = checks.path_of(t1), checks.path_of(t2)
    b1, b2 = checks.boundary(p1), checks.boundary(p2)
    region = geometry.BallRegion.union_of([ball])
    outside = region.complemented()
    cyclic = currents.add(t1, currents.reverse(t2))  # built untimed, has cycles
    pc = checks.path_of(cyclic)
    pi1 = dcmp.good_decomposition(t1)
    covers = dcmp.cells_of_cover(_source_balls(p1, b1, geometry))

    def inspect_add(t):
        p = checks.path_of(t)
        problems = _boundary_problem(checks.boundary(p), checks.combine((1.0, b1), (1.0, b2)),
                                     "add")
        if checks.alpha_mass(p, alpha) > checks.alpha_mass(p1, alpha) + \
                checks.alpha_mass(p2, alpha) + checks.TOL:
            problems.append("add: alpha-mass not subadditive")
        return _path_outcome([t], alpha, problems)

    def inspect_subtract(t):
        p = checks.path_of(t)
        return _path_outcome([t], alpha, _boundary_problem(
            checks.boundary(p), checks.combine((1.0, b1), (-1.0, b2)), "subtract"))

    def inspect_restrict(pair):
        inner, outer = (checks.path_of(t) for t in pair)
        split = checks.alpha_mass(inner, alpha) + checks.alpha_mass(outer, alpha)
        whole = checks.alpha_mass(p1, alpha)
        problems = [] if abs(split - whole) <= checks.TOL * max(1.0, whole) else \
            [f"restrict: split alpha-mass {split!r} != {whole!r}"]
        return _path_outcome(list(pair), alpha, problems)

    def inspect_remove_cycles(t):
        p = checks.path_of(t)
        problems = _boundary_problem(checks.boundary(p), checks.boundary(pc), "remove_cycles")
        if not checks.is_acyclic(p):
            problems.append("remove_cycles: result has a cycle")
        if checks.mass(p) > checks.mass(pc) + checks.TOL:
            problems.append("remove_cycles: mass increased")
        return _path_outcome([t], alpha, problems)

    def inspect_decomposition(pi):
        return Outcome(_canonical_curves(pi.entries), 0.0,
                       _decomposition_problems(pi.entries, p1, b1))

    def inspect_reconstruct(t):
        p = checks.path_of(t)
        problems = _boundary_problem(checks.boundary(p), b1, "reconstruct")
        for what, a, b in (("mass", checks.mass(p), checks.mass(p1)),
                           ("alpha-mass", checks.alpha_mass(p, alpha),
                            checks.alpha_mass(p1, alpha))):
            if abs(a - b) > checks.TOL * max(1.0, b):
                problems.append(f"reconstruct: {what} {a!r} != {b!r}")
        return _path_outcome([t], alpha, problems)

    def inspect_cut(triples):
        problems = []
        for c, _, k in triples:
            ball = covers[k].ball
            end_r = float(np.linalg.norm(c.end() - ball.center))
            if not float(np.linalg.norm(c.start() - ball.center)) < ball.radius:
                problems.append("cut_curves: piece does not start in its ball")
            if abs(end_r - ball.radius) > checks.TOL and end_r < ball.radius:
                problems.append("cut_curves: piece ends inside its ball")
        if abs(sum(w for _, w, _ in triples) - sum(w for _, w in pi1.entries)) > checks.TOL:
            problems.append("cut_curves: pieces lost weight")
        return Outcome(_canonical_curves([(c, w) for c, w, _ in triples]), 0.0, problems)

    return [
        Op(f"{tag}.add", lambda: pkg.currents.add(t1, t2), inspect_add),
        Op(f"{tag}.subtract", lambda: pkg.currents.subtract(t1, t2), inspect_subtract),
        Op(f"{tag}.restrict", lambda: (pkg.currents.restrict(t1, region),
                                       pkg.currents.restrict(t1, outside)),
           inspect_restrict),
        Op(f"{tag}.remove_cycles", lambda: pkg.decomposition.remove_cycles(cyclic),
           inspect_remove_cycles),
        Op(f"{tag}.good_decomposition", lambda: pkg.decomposition.good_decomposition(t1),
           inspect_decomposition),
        Op(f"{tag}.reconstruct",
           lambda: pkg.decomposition.reconstruct(pi1, dim=t1.dim), inspect_reconstruct),
        Op(f"{tag}.cut_curves",
           lambda: pkg.decomposition.cut_curves(pi1, covers, "from-start"), inspect_cut),
    ]


def _source_balls(path, bnd, geometry) -> list:
    """Disjoint balls around the source atoms, smaller than any edge."""
    verts, edges = path
    shortest = min(float(np.linalg.norm(verts[j] - verts[i])) for i, j, _ in edges)
    centers = [p for p, m in bnd if m < 0]
    gaps = [float(np.linalg.norm(p - q)) for k, p in enumerate(centers)
            for q in centers[:k]]
    r = 0.25 * min([shortest] + gaps)
    return [geometry.Ball(p, r) for p in centers]


def _canonical_curves(entries) -> str:
    return json.dumps([[np.asarray(c.waypoints).tolist(), float(w)] for c, w in entries])


def _decomposition_problems(entries, path, bnd) -> list:
    """The good-decomposition equalities: endpoints, mass and edgewise weights."""
    problems = []
    starts = [(c.start(), w) for c, w in entries]
    ends = [(c.end(), w) for c, w in entries]
    minus = [(p, -m) for p, m in bnd if m < 0]
    plus = [(p, m) for p, m in bnd if m > 0]
    if checks.tv(checks.combine((1.0, starts), (-1.0, minus))) > checks.TOL:
        problems.append("decomposition: start measure != boundary negative part")
    if checks.tv(checks.combine((1.0, ends), (-1.0, plus))) > checks.TOL:
        problems.append("decomposition: end measure != boundary positive part")
    length = sum(w * sum(float(np.linalg.norm(b - a)) for a, b in c.segments())
                 for c, w in entries)
    if abs(length - checks.mass(path)) > checks.TOL * max(1.0, length):
        problems.append("decomposition: weighted length != mass")
    verts, edges = path
    acc: dict = {}
    for c, w in entries:
        for a, b in c.segments():
            key = (a.tobytes(), b.tobytes())
            acc[key] = acc.get(key, 0.0) + w
    for i, j, th in edges:
        got = acc.pop((verts[i].tobytes(), verts[j].tobytes()), 0.0)
        if abs(got - th) > checks.TOL:
            problems.append("decomposition: edge multiplicity not recovered")
            break
    if any(abs(v) > checks.TOL for v in acc.values()):
        problems.append("decomposition: weight on a non-edge")
    return problems


def _admissible_instance(rng: np.random.Generator, pkg):
    """Curvy routing t_n with the boundary of an oracle-optimal t_opt."""
    currents = pkg.currents
    n_minus, n_plus = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    pm = rng.uniform(-0.8, 0.8, size=(n_minus, 2))
    pp = rng.uniform(-0.8, 0.8, size=(n_plus, 2))
    pm[:, 0] -= 2.5
    pp[:, 0] += 2.5
    wm = rng.uniform(0.2, 1.0, size=n_minus)
    wp = rng.uniform(0.2, 1.0, size=n_plus)
    wp *= wm.sum() / wp.sum()
    mu_minus = currents.AtomicMeasure.from_atoms(
        [(pm[i], float(wm[i])) for i in range(n_minus)], dim=2)
    mu_plus = currents.AtomicMeasure.from_atoms(
        [(pp[i], float(wp[i])) for i in range(n_plus)], dim=2)
    alpha = float(rng.uniform(0.45, 0.7))
    t_opt = pkg.optimizer.brute_force_optimal(mu_minus, mu_plus, alpha)

    supply = [[p, m] for p, m in mu_minus.atoms()]
    demand = [[p, m] for p, m in mu_plus.atoms()]
    segs = []
    i = j = 0
    while i < len(supply) and j < len(demand):
        w = min(supply[i][1], demand[j][1])
        a, b = supply[i][0], demand[j][0]
        mid1 = a + np.array([1.0, float(rng.uniform(0.3, 1.2))])
        mid2 = b + np.array([-1.0, float(rng.uniform(0.3, 1.2))])
        segs += [(a, mid1, w), (mid1, mid2, w), (mid2, b, w)]
        supply[i][1] -= w
        demand[j][1] -= w
        if supply[i][1] <= 1e-12:
            i += 1
        if j < len(demand) and demand[j][1] <= 1e-12:
            j += 1
    t_n = currents.overlay(segs, dim=2)
    bnd = currents.boundary(t_opt)
    covers = {"minus": [pkg.geometry.Ball(p, 1e-4) for p, _ in bnd.negative_part().atoms()],
              "plus": [pkg.geometry.Ball(p, 1e-4) for p, _ in bnd.positive_part().atoms()]}
    cc = pkg.stability.CompetitorConfig(
        Delta=1.0, eps1=1e-12, eps2=1e-9, delta=0.02,
        N_minus=len(covers["minus"]), N_plus=len(covers["plus"]))
    return t_n, t_opt, covers, cc, alpha, False


def _detour_instance(h: float, pkg):
    """scripts/run_competitor.py: unit mass through apex (0, h); straight is optimal."""
    currents = pkg.currents
    a, b = np.array([-1.0, 0.0]), np.array([1.0, 0.0])
    t_opt = currents.from_segments([(a, b, 1.0)])
    t_n = currents.from_segments([(a, np.array([0.0, h]), 1.0),
                                  (np.array([0.0, h]), b, 1.0)])
    gap = currents.alpha_mass(t_n, DETOUR_ALPHA) - currents.alpha_mass(t_opt, DETOUR_ALPHA)
    delta_gap = 0.9 * gap
    eps2 = (delta_gap / 512.0) ** (1.0 / DETOUR_ALPHA)
    cc = pkg.stability.CompetitorConfig(Delta=delta_gap, eps1=1e-3 * eps2, eps2=eps2,
                                        delta=0.01, N_minus=1, N_plus=1)
    r = 0.5 * min(cc.Delta / (128.0 * 2.0 * np.pi), cc.Delta / 128.0)
    covers = {"minus": [pkg.geometry.Ball(a, r)], "plus": [pkg.geometry.Ball(b, r)]}
    return t_n, t_opt, covers, cc, DETOUR_ALPHA, True


def _competitor_op(tag: str, instance, pkg) -> Op:
    t_n, t_opt, covers, cc, alpha, must_improve = instance
    pi_n = pkg.decomposition.good_decomposition(t_n)
    pi_opt = pkg.decomposition.good_decomposition(t_opt)
    want = checks.boundary(checks.path_of(t_n))

    def inspect(report) -> Outcome:
        problems = []
        for what, err in (("sel", report.boundary_error_sel),
                          ("full", report.boundary_error_full)):
            if not err <= checks.TOL:
                problems.append(f"competitor: boundary_error_{what} {err:.3g}")
        competitor = checks.path_of(report.competitor)
        problems += _boundary_problem(checks.boundary(competitor), want, "competitor")
        if must_improve and not (report.ok and report.ledger["conclusion"]):
            problems.append("competitor: detour budgets or conclusion failed")
        return _path_outcome([report.competitor], alpha, problems)

    return Op(tag, lambda: pkg.stability.build_competitor(
        t_n, pi_n, t_opt, pi_opt, covers, cc, alpha), inspect)


def _surgery(seed, workdir, pkg, small):
    rng = np.random.default_rng(seed)
    ops = []
    for dim, pairs in SURGERY_PAIRS.items():
        for k in range(1 if small else pairs):
            t1 = _random_acyclic_path(rng, pkg, dim)
            t2 = _random_acyclic_path(rng, pkg, dim)
            ball = pkg.geometry.Ball(rng.uniform(-1.0, 1.0, size=dim),
                                     float(rng.uniform(1.0, 2.5)))
            alpha = float(rng.uniform(0.3, 0.9))
            ops += _calculus_ops(f"surgery.d{dim}.{k}", t1, t2, ball, alpha, pkg)
    for h in DETOUR_HEIGHTS[:1] if small else DETOUR_HEIGHTS:
        ops.append(_competitor_op(f"surgery.detour.h{h}", _detour_instance(h, pkg), pkg))
    for k in range(1 if small else ADMISSIBLE):
        ops.append(_competitor_op(f"surgery.admissible.{k}",
                                  _admissible_instance(rng, pkg), pkg))

    warm = _random_acyclic_path(np.random.default_rng(seed), pkg, 2, n_edges=6)
    return Workload("surgery", ops,
                    lambda: pkg.decomposition.good_decomposition(
                        pkg.currents.add(warm, warm)))
