"""Span tracer for the benchmark's traced run.

The tracer replaces the public functions named in LAYERS with timing
wrappers, both on their defining module and wherever another module of
the package imported them by name (``currents`` and ``decomposition``
import ``segment_sphere_params``, ``constructors`` imports
``cover_compact``).  Every call records a span (name, start, end,
parent, op id, error, probe) in memory; self time is a span's duration
minus the time its child spans cover.  Nothing in the package itself is
edited: uninstall() puts every original function back.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# module -> functions whose calls and self time are reported
LAYERS = {
    "optimizer": ("brute_force_optimal", "optimize_positions", "local_search",
                  "is_optimal"),
    "currents": ("overlay", "from_segments", "restrict", "add", "subtract",
                 "boundary", "alpha_mass"),
    "decomposition": ("remove_cycles", "good_decomposition", "reconstruct",
                      "cut_curves"),
    "geometry": ("segment_sphere_params", "cover_compact"),
    "constructors": ("cheap_subtransport", "sphere_transport"),
    "metrics": ("flat_distance_1", "rasterize", "flat_chain_norm", "flat_norm_0"),
    "stability": ("run_stability_trial", "build_competitor", "quantize"),
    "cli": ("main", "canonical_json"),
}

# derived per-layer metrics, reported next to the .calls/.self_s pairs
DERIVED = (
    ("optimizer.topologies_per_solve", "count"),
    ("optimizer.optimize_positions.converged_ratio", "ratio"),
    ("currents.overlay.segments", "count"),
    ("currents.overlay.d2.us_per_segment", "us"),
    ("currents.overlay.d3.us_per_segment", "us"),
    ("metrics.grid_lp_vars", "count"),
    ("metrics.lp_failures", "count"),
    ("cli.canonical_json.bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for module, fns in LAYERS.items():
        for fn in fns:
            out.append((f"{module}.{fn}.calls", "count"))
            out.append((f"{module}.{fn}.self_s", "s"))
        out.append((f"{module}.self_s", "s"))
    return out + list(DERIVED)


def _overlay_probe(args, kwargs, result):
    return (len(args[0]), result.dim)


def _grid_probe(args, kwargs, result):
    grid = args[0]
    return 2 * grid.n_edges + 2 * grid.n_faces


def _bytes_probe(args, kwargs, result):
    return len(result.encode("utf-8"))


PROBES = {
    "currents.overlay": _overlay_probe,
    "metrics.flat_chain_norm": _grid_probe,
    "cli.canonical_json": _bytes_probe,
}


class Tracer:
    """Wraps the LAYERS functions of an imported package and records spans."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.op_id = None
        self._op_start = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        pkg = self.package.__name__
        modules = [self.package] + [sys.modules[f"{pkg}.{m}"] for m in LAYERS]
        wrappers = {}
        for module_name, fns in LAYERS.items():
            module = sys.modules[f"{pkg}.{module_name}"]
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = (original,
                                          self._wrap(f"{module_name}.{fn}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == "currents.overlay" and not hasattr(args[0], "__len__"):
                args = (list(args[0]),) + args[1:]
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            extra = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    extra = probe(args, kwargs, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id, error, extra)

        traced.__wrapped__ = fn
        return traced

    # -- op spans opened by the runner ---------------------------------------

    def begin_op(self, op_id: str) -> int:
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._op_start = time.perf_counter()
        return idx

    def end_op(self, idx: int) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = ("op", self._op_start, t1, -1, self.op_id, None, None)
        self.op_id = None

    # -- analysis ------------------------------------------------------------

    def summary(self, passes: int) -> dict:
        """Per-pass calls, self time, errors and probe totals per function."""
        cover = defaultdict(float)
        for span in self.spans:
            name, t0, t1, parent, _, _, _ = span
            if parent >= 0:
                cover[parent] += t1 - t0
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": defaultdict(int),
                                     "probes": []})
        for idx, span in enumerate(self.spans):
            name, t0, t1, parent, _, error, extra = span
            if name == "op":
                continue
            st = stats[name]
            st["calls"] += 1
            self_s = (t1 - t0) - cover[idx]
            st["self_s"] += self_s
            if error is not None:
                st["errors"][error] += 1
            if extra is not None:
                st["probes"].append((extra, self_s))
        scale = 1.0 / max(passes, 1)
        for st in stats.values():
            st["calls"] *= scale
            st["self_s"] *= scale
        return stats

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index, op id, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op, error, _ in self.spans:
                fh.write(json.dumps([name, round(t0, 9), round(t1, 9), parent, op,
                                     error]) + "\n")


def layer_metrics(stats: dict, passes: int, traced_wall: float,
                  untraced_wall: float) -> dict:
    """Per-layer metric values (per pass) from Tracer.summary()."""
    out = {}
    for module, fns in LAYERS.items():
        total = 0.0
        for fn in fns:
            st = stats.get(f"{module}.{fn}")
            calls = st["calls"] if st else 0.0
            self_s = st["self_s"] if st else 0.0
            out[f"{module}.{fn}.calls"] = calls
            out[f"{module}.{fn}.self_s"] = self_s
            total += self_s
        out[f"{module}.self_s"] = total

    solves = out["optimizer.brute_force_optimal.calls"]
    positions = stats.get("optimizer.optimize_positions")
    out["optimizer.topologies_per_solve"] = (
        out["optimizer.optimize_positions.calls"] / solves if solves else 0.0)
    if positions and positions["calls"]:
        failed = positions["errors"].get("OptimizeError", 0) / max(passes, 1)
        out["optimizer.optimize_positions.converged_ratio"] = \
            1.0 - failed / positions["calls"]
    else:
        out["optimizer.optimize_positions.converged_ratio"] = 1.0

    ov = stats.get("currents.overlay")
    seg_total = 0
    by_dim = {2: [0, 0.0], 3: [0, 0.0]}
    for (n_segs, dim), self_s in (ov["probes"] if ov else ()):
        seg_total += n_segs
        if dim in by_dim:
            by_dim[dim][0] += n_segs
            by_dim[dim][1] += self_s
    out["currents.overlay.segments"] = seg_total / max(passes, 1)
    for dim, (n_segs, secs) in by_dim.items():
        out[f"currents.overlay.d{dim}.us_per_segment"] = \
            1e6 * secs / n_segs if n_segs else 0.0

    lp = stats.get("metrics.flat_chain_norm")
    out["metrics.grid_lp_vars"] = max((v for v, _ in lp["probes"]), default=0) if lp else 0
    out["metrics.lp_failures"] = sum(
        stats[name]["errors"].get("RuntimeError", 0)
        for name in stats if name.startswith("metrics.")) / max(passes, 1)
    cj = stats.get("cli.canonical_json")
    out["cli.canonical_json.bytes"] = \
        sum(v for v, _ in cj["probes"]) / max(passes, 1) if cj else 0.0
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out
