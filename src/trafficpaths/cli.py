"""Command line front end: solve, decompose, flatnorm, stability, competitor.

Instance files are JSON objects with fields dimension, alpha,
ambient_radius, mu_minus, mu_plus and an optional path.  All output is
canonical: object keys sorted, floats printed with %.12g, so writing,
reloading and rewriting a file reproduces it byte for byte.  Exit codes:
0 success, 2 input or schema violation (the message names the offending
field), 3 instance outside the exhaustive solver's range.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import currents, metrics, optimizer, stability
from . import decomposition as dcmp
from .currents import AtomicMeasure, TrafficPath
from .geometry import Ball
from .stability import load_json_object, read_atoms, read_point, read_value


# ---------------------------------------------------------------------------
# canonical JSON


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite number in output")
    return "%.12g" % x


def _is_scalar_list(obj) -> bool:
    return isinstance(obj, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)


def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for k in sorted(obj):
            parts.append(f"{inner}{json.dumps(k)}: {_emit(obj[k], indent + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if _is_scalar_list(obj):
            return "[" + ", ".join(_emit(v, 0) for v in obj) + "]"
        parts = [inner + _emit(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    return _emit(obj, 0) + "\n"


# ---------------------------------------------------------------------------
# instance files


def measure_to_json(mu: AtomicMeasure) -> list:
    return [{"point": [float(x) for x in p], "mass": float(m)} for p, m in mu.atoms()]


def path_to_json(t: TrafficPath) -> dict:
    return {
        "vertices": [[float(x) for x in v] for v in t.vertices],
        "edges": [[int(i), int(j), float(th)] for i, j, th in t.edges],
    }


def path_from_json(raw, dim: int) -> TrafficPath:
    if not isinstance(raw, dict) or "vertices" not in raw or "edges" not in raw:
        raise ValueError("field 'path' needs 'vertices' and 'edges'")
    verts = [read_point(v, f"path.vertices[{k}]", dim)
             for k, v in enumerate(read_value(list, raw["vertices"], "path.vertices"))]
    segs = []
    for k, e in enumerate(read_value(list, raw["edges"], "path.edges")):
        if not isinstance(e, list) or len(e) != 3:
            raise ValueError(f"field 'path.edges[{k}]' must be [tail, head, theta]")
        i, j, th = (read_value(kind, x, f"path.edges[{k}]")
                    for kind, x in zip((int, int, float), e))
        if not (0 <= i < len(verts) and 0 <= j < len(verts)):
            raise ValueError(f"field 'path.edges[{k}]' references a missing vertex")
        segs.append((verts[i], verts[j], th))
    return currents.from_segments(segs, dim=dim)


class Instance:
    def __init__(self, dimension: int, alpha: float, ambient_radius: float,
                 mu_minus: AtomicMeasure, mu_plus: AtomicMeasure,
                 path: TrafficPath | None = None):
        self.dimension = dimension
        self.alpha = alpha
        self.ambient_radius = ambient_radius
        self.mu_minus = mu_minus
        self.mu_plus = mu_plus
        self.path = path

    def to_json(self) -> dict:
        out = {
            "dimension": self.dimension,
            "alpha": self.alpha,
            "ambient_radius": self.ambient_radius,
            "mu_minus": measure_to_json(self.mu_minus),
            "mu_plus": measure_to_json(self.mu_plus),
        }
        if self.path is not None:
            out["path"] = path_to_json(self.path)
        return out


def load_instance(path: str, alpha: float | None = None) -> Instance:
    """The instance in the file; alpha, when given (``--alpha``), overrides its exponent."""
    d = load_json_object(path)
    for key in ("dimension", "alpha", "mu_minus", "mu_plus"):
        if key not in d:
            raise ValueError(f"missing field: {key}")
    dim = read_value(int, d["dimension"], "dimension")
    if dim not in (2, 3):
        raise ValueError("field 'dimension' must be 2 or 3")
    file_alpha = read_value(float, d["alpha"], "alpha")
    for value, name in ((file_alpha, "field 'alpha'"), (alpha, "--alpha")):
        if value is not None and not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    alpha = file_alpha if alpha is None else alpha
    radius = read_value(float, d.get("ambient_radius", 4.0), "ambient_radius")
    if radius <= 0.0:
        raise ValueError("field 'ambient_radius' must be positive")
    mu_minus, mu_plus = (AtomicMeasure.from_atoms(read_atoms(d[key], key, dim), dim=dim)
                         for key in ("mu_minus", "mu_plus"))
    stability.check_balance(mu_minus, mu_plus)
    path = path_from_json(d["path"], dim) if "path" in d else None
    return Instance(dim, alpha, radius, mu_minus, mu_plus, path)


# ---------------------------------------------------------------------------
# SVG rendering


def render_svg(inst: Instance) -> str:
    """1000 x 1000 picture: edges widened by theta^alpha, signed marginal dots."""
    size = 1000.0
    r = inst.ambient_radius * 1.05

    def xy(p):
        x = size * (float(p[0]) + r) / (2.0 * r)
        y = size * (r - float(p[1])) / (2.0 * r)
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="1000" height="1000" '
        f'viewBox="0 0 1000 1000">',
        '<rect width="1000" height="1000" fill="#fcfcf8"/>',
    ]
    if inst.path is not None and not inst.path.is_empty():
        powers = [abs(th) ** inst.alpha for _, _, th in inst.path.segments()]
        top = max(powers)
        for (a, b, th), pw in zip(inst.path.segments(), powers):
            x1, y1 = xy(a)
            x2, y2 = xy(b)
            wpx = 0.8 + 9.2 * pw / top
            parts.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="#44423c" stroke-width="{wpx:.2f}" stroke-linecap="round"/>')
    top_m = max([m for _, m in inst.mu_minus.atoms() + inst.mu_plus.atoms()] + [1e-12])
    for mu, color in ((inst.mu_minus, "#2166ac"), (inst.mu_plus, "#b2182b")):
        for p, m in mu.atoms():
            cx, cy = xy(p)
            rad = 4.0 + 10.0 * math.sqrt(m / top_m)
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{rad:.2f}" '
                         f'fill="{color}" fill-opacity="0.85"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_solve(args) -> int:
    inst = load_instance(args.infile, args.alpha)
    if args.method == "oracle":
        t = optimizer.brute_force_optimal(inst.mu_minus, inst.mu_plus, inst.alpha,
                                          tol=args.tol)
    else:
        t = optimizer.local_search(inst.mu_minus, inst.mu_plus, inst.alpha)
    cost = currents.alpha_mass(t, inst.alpha)
    inst.path = t
    doc = inst.to_json()
    doc["cost"] = cost
    doc["method"] = args.method
    _write(canonical_json(doc), args.out)
    if args.svg:
        _write(render_svg(inst), args.svg)
    print(f"cost {_fmt_float(cost)} ({args.method}, alpha={_fmt_float(inst.alpha)})",
          file=sys.stderr)
    return 0


def cmd_decompose(args) -> int:
    inst = load_instance(args.infile, args.alpha)
    if inst.path is None:
        raise ValueError("missing field: path")
    pi = dcmp.good_decomposition(inst.path)
    doc = {
        "curves": [{"waypoints": [[float(x) for x in p] for p in c.waypoints],
                    "weight": w} for c, w in pi.entries],
        "total_weight": pi.total_weight(),
        "path_mass": currents.mass(inst.path),
        "path_cost": currents.alpha_mass(inst.path, inst.alpha),
    }
    _write(canonical_json(doc), args.out)
    return 0


def cmd_flatnorm(args) -> int:
    h = metrics.GridComplex.check_step(args.grid_step, "--grid-step")
    a = load_instance(args.infile)
    b = load_instance(args.against)
    if a.dimension != b.dimension:
        raise ValueError("field 'dimension' differs between the two files")
    if a.path is not None and b.path is not None:
        if a.dimension != 2:
            raise ValueError("grid flat distance is planar only")
        r = max(a.ambient_radius, b.ambient_radius)
        grid = metrics.GridComplex.from_box(-r, -r, r, r, h)
        value, err = metrics.flat_distance_1(a.path, b.path, grid)
        doc = {"kind": "grid-flat-1", "value": value, "error_bound": err,
               "grid_step": h}
    else:
        signed_a = a.mu_plus - a.mu_minus
        signed_b = b.mu_plus - b.mu_minus
        doc = {
            "kind": "flat-0",
            "value": metrics.flat_norm_0(signed_a - signed_b),
            "minus_gap": metrics.weak_star_gap(a.mu_minus, b.mu_minus),
            "plus_gap": metrics.weak_star_gap(a.mu_plus, b.mu_plus),
        }
    _write(canonical_json(doc), args.out)
    return 0


def cmd_stability(args) -> int:
    raw = load_json_object(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = stability.experiment_from_dict(raw)
    report = stability.run_stability_trial(cfg)
    doc = stability.report_json_dict(report)
    _write(canonical_json(doc), args.out)
    if args.csv:
        _write(stability.report_csv(report), args.csv)
    for name, flag in report.verdicts.items():
        print(f"{name}: {'PASS' if flag else 'FAIL'}", file=sys.stderr)
    return 0 if report.verdicts["optimal"] else 1


def _auto_covers(bnd: AtomicMeasure, cc: stability.CompetitorConfig,
                 dim: int, radius: float | None):
    minus, plus = bnd.negative_part(), bnd.positive_part()
    pts = [p for p, _ in minus.atoms()] + [p for p, _ in plus.atoms()]
    sep = min(float(np.linalg.norm(p - q))
              for i, p in enumerate(pts) for q in pts[:i])
    r = min(stability.cover_radius_budget(cc.Delta, dim), 0.4 * sep) / len(pts)
    if radius is not None:
        r = radius
    return {
        "minus": [Ball(p, r) for p, _ in minus.atoms()],
        "plus": [Ball(p, r) for p, _ in plus.atoms()],
    }


def cmd_competitor(args) -> int:
    inst = load_instance(args.infile, args.alpha)
    if inst.path is None:
        raise ValueError("missing field: path")
    opt_inst = load_instance(args.opt, args.alpha)
    if opt_inst.path is None:
        raise ValueError("missing field: path (in the optimal instance)")
    opt_bnd = currents.boundary(opt_inst.path)
    if len(opt_bnd.masses) < 2:
        raise ValueError("field 'path' (in the optimal instance) must have a boundary "
                         "of at least two atoms")
    raw = load_json_object(args.config)
    cc = stability.CompetitorConfig.from_dict(raw)
    radius = raw.get("cover_radius")
    if radius is not None:
        radius = read_value(float, radius, "cover_radius")
        if radius <= 0.0:
            raise ValueError("field 'cover_radius' must be positive")
    covers = _auto_covers(opt_bnd, cc, inst.dimension, radius)
    pi_n = dcmp.good_decomposition(inst.path)
    pi_opt = dcmp.good_decomposition(opt_inst.path)
    report = stability.build_competitor(inst.path, pi_n, opt_inst.path, pi_opt,
                                        covers, cc, inst.alpha)
    doc = stability.competitor_json_dict(report)
    _write(canonical_json(doc), args.out)
    for name, flag in report.checks.items():
        print(f"{name}: {'PASS' if flag else 'FAIL'}", file=sys.stderr)
    print(f"competitor cost {_fmt_float(report.ledger['competitor_cost'])} vs "
          f"{_fmt_float(report.ledger['cost_t_n'])}", file=sys.stderr)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trafficpaths",
        description="branched transport toolkit: solve, inspect and stress "
                    "discrete traffic paths")
    p.add_argument("--alpha", type=float, default=None,
                   help="override the cost exponent of every instance file read")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="certified relative optimality gap of the exact oracle")
    p.add_argument("--seed", type=int, default=None,
                   help="override the experiment seed")
    p.add_argument("--out", default=None,
                   help="output file (default: stdout)")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="find a minimal path for an instance")
    ps.add_argument("--in", dest="infile", required=True)
    ps.add_argument("--method", choices=("oracle", "local"), default="oracle")
    ps.add_argument("--svg", default=None, help="also render the result")
    ps.set_defaults(func=cmd_solve)

    pd = sub.add_parser("decompose", help="split a path into weighted curves")
    pd.add_argument("--in", dest="infile", required=True)
    pd.set_defaults(func=cmd_decompose)

    pf = sub.add_parser("flatnorm", help="flat distance between two instances")
    pf.add_argument("--in", dest="infile", required=True)
    pf.add_argument("--against", required=True)
    pf.add_argument("--grid-step", type=float, default=0.05)
    pf.set_defaults(func=cmd_flatnorm)

    pt = sub.add_parser("stability", help="run a quantized convergence trial")
    pt.add_argument("--config", required=True)
    pt.add_argument("--csv", default=None, help="also write per-level rows")
    pt.set_defaults(func=cmd_stability)

    pc = sub.add_parser("competitor", help="build the surgery competitor")
    pc.add_argument("--in", dest="infile", required=True)
    pc.add_argument("--opt", required=True, help="instance file with the optimal path")
    pc.add_argument("--config", required=True, help="surgery budget JSON")
    pc.set_defaults(func=cmd_competitor)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except optimizer.OracleRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
