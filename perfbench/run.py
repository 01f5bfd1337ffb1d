"""Benchmark runner for the trafficpaths package.

    python3 perfbench/run.py --workload oracle6 --seed 1 --seconds 24 --trace 0

Workloads: oracle6, local12, trials, surgery (see perfbench/README.md).
Everything runs in this one process: the package is imported from the
checkout's src/, the workload's inputs are generated from --seed, and the
fixed list of operations is run in passes for about --seconds seconds.
Every result is checked untimed; a failed check or an exception counts the
operation as failed.  With --trace 0 the end-to-end metrics are reported,
with --trace 1 one untraced pass is followed by traced passes and the
per-layer metrics are reported.  Human-readable lines come first; the last
line of standard output is one JSON object.

The shared host's speed drifts by up to 1.7x within seconds, so the timed
end-to-end metrics are given in calibration units (unit "cal"): each
operation's seconds divided by the mean time of a fixed calibration loop,
sampled in this process every 0.1 s, during the operation too (HostClock).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle6", "local12", "trials", "surgery")
SETUP_REPEATS = 3
# seconds between two calibration samples
CAL_EVERY_S = 0.1
CAL_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MODULES = ("currents", "geometry", "decomposition", "constructors", "optimizer",
           "metrics", "stability", "cli")


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the cores this process may use; returns that count."""
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = max(1, n or 1)
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, n))
        except ValueError:
            current = n
        os.environ[var] = str(max(1, min(current, n)))
    return n


def load_package():
    """Import trafficpaths from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import importlib
    pkg = importlib.import_module("trafficpaths")
    for name in MODULES:
        importlib.import_module(f"trafficpaths.{name}")
    where = pathlib.Path(pkg.__file__).resolve().parent
    if where != (src / "trafficpaths").resolve():
        raise ImportError(f"trafficpaths imported from {where}, not from {src}")
    return pkg


def _cal_loop(points) -> float:
    """Fixed work in the package's own mix: small numpy calls, dicts, Python loops."""
    acc = 0.0
    seen = {}
    for k in range(400):
        acc += float(np.linalg.norm(points[k % 64] - points[(k * 7) % 64]))
        seen[(k % 97, k % 89)] = acc
        for j in range(20):
            acc += (j * k) % 13
    return acc


def calibrate() -> float:
    """Median seconds of the calibration loop on this host, now (about 1.5 ms)."""
    points = np.random.default_rng(1).uniform(-1.0, 1.0, size=(64, 3))
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        _cal_loop(points)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostClock:
    """Samples calibrate() every CAL_EVERY_S seconds from a SIGALRM handler.

    The handler runs between bytecodes of whatever is executing, so samples
    land inside long operations too.  The time spent sampling is counted in
    paused_s, and the runner subtracts it from the operation it fell in.
    """

    def __init__(self):
        self.samples = [calibrate()]
        self.paused_s = 0.0
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.paused_s += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def host_note(nproc: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def read_json(path: pathlib.Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


class Runner:
    """Runs operations, times them, checks their outcomes and counts failures."""

    def __init__(self, workload, references: dict, checks):
        self.workload = workload
        self.references = references
        self.checks = checks
        self.tracer = None
        self.first_output: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.passes: list = []
        self.pass_costs: list = []
        self.clock = None

    def run_op(self, op) -> tuple[float, float, tuple]:
        """Run, time and check one operation.

        Returns (seconds, cost, samples): samples is the slice of the clock's
        calibration samples from the last one before the operation on.
        """
        span = self.tracer.begin_op(op.op_id) if self.tracer else None
        clock = self.clock
        first, paused = (len(clock.samples) - 1, clock.paused_s) if clock else (0, 0.0)
        t0 = time.perf_counter()
        try:
            raw, error = op.run(), None
        except Exception as exc:  # a crashing operation is a failed operation
            raw, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if clock:
            seconds -= clock.paused_s - paused
        if span is not None:
            self.tracer.end_op(span)
        samples = (first, len(clock.samples)) if clock else (0, 0)

        self.attempted += 1
        cost = 0.0
        if error is not None:
            problems = [error]
        else:
            try:
                out = op.inspect(raw)
            except Exception as exc:  # an answer the checks cannot read fails
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                cost = out.cost
                problems = list(out.problems)
                problems += self.checks.check_reference(
                    out.cost, self.references.get(op.op_id))
                first = self.first_output.setdefault(op.op_id, out.canonical)
                if first != out.canonical:
                    problems.append("repeat gave different canonical output")
        if problems:
            self.failed += 1
            self.failures.append((op.op_id, problems))
        return seconds, cost, samples

    def run_pass(self) -> float:
        """One pass over the operation list; returns its seconds.

        With a clock, each operation's time in calibration units is its
        seconds over the mean of the samples from the last one before it to
        the first one after it.
        """
        times = []
        cost = 0.0
        for op in self.workload.ops:
            seconds, c, samples = self.run_op(op)
            times.append([op.op_id, seconds, samples])
            cost += c
        if self.clock:
            self.clock.sample()  # the last operation's sample after it
            for entry in times:
                lo, hi = entry[2]
                entry[2] = entry[1] / statistics.fmean(self.clock.samples[lo:hi + 1])
        self.passes.append(times)
        self.pass_costs.append(cost)
        return sum(t for _, t, _ in times)

    def run_for(self, seconds: float) -> None:
        """At least one pass; another only while it is expected to fit."""
        start = time.perf_counter()
        walls = []
        while True:
            walls.append(self.run_pass())
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                return


def tail(times: list) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten operations beyond it: (value, pct, n)."""
    n = len(times)
    if n < 20:
        return None
    ordered = sorted(times)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def compare(metrics: dict, workload: str, bench: dict, baseline: dict) -> list[str]:
    """Lines naming each end-to-end metric against the committed baseline median."""
    bounds = {m["name"]: m for m in bench.get("end_to_end", ())}
    base = baseline.get("workloads", {}).get(workload, {}).get("end_to_end", {})
    lines = []
    for name, entry in metrics.items():
        spec, ref = bounds.get(name), base.get(name)
        if spec is None or not ref:
            continue
        change = (entry["value"] - ref) / ref
        worse = change if spec["better"] == "lower" else -change
        verdict = "REGRESSION" if worse > spec["bound"] else "ok"
        lines.append(f"baseline {name}: {entry['value']:.6g} vs {ref:.6g} "
                     f"({100 * change:+.1f}%, bound {100 * spec['bound']:.0f}%) {verdict}")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False,
        out=sys.stdout) -> dict:
    """Run one workload and print its report; returns the final JSON object."""
    nproc = cap_threads()
    t0 = time.perf_counter()
    pkg = load_package()
    import checks
    import tracing
    import workloads
    import_s = time.perf_counter() - t0

    say = lambda line: print(line, file=out)  # noqa: E731
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            wl = workloads.build(workload, seed, workdir, pkg, small)
            refs = read_json(HERE / "reference.json").get(workload, {}).get(
                workloads.reference_key(workload, seed), {})
            wl.warm_up()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        runner = Runner(wl, refs, checks)
        if not trace:
            with HostClock() as runner.clock:
                runner.run_for(seconds)
            if len(runner.passes) == 1:
                runner.run_op(wl.ops[0])  # the byte-identity check needs a repeat
        else:
            untraced = runner.run_pass()
            tracer = tracing.Tracer(pkg)
            runner.tracer = tracer
            tracer.install()
            try:
                runner.run_for(max(seconds - untraced, 0.0))
            finally:
                tracer.uninstall()
                runner.tracer = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's inputs are still there
            pass

    passes = runner.passes
    walls = [sum(t for _, t, _ in p) for p in passes]
    say(f"workload {workload} seed {seed}: {len(wl.ops)} ops per pass, "
        f"{len(passes)} passes, {runner.attempted} ops checked")
    say("host: " + " ".join(f"{k}={v}" for k, v in host_note(nproc).items()))
    say("pass walls: " + ", ".join(f"{w:.4g}" for w in walls) + " s")
    if runner.clock:
        cal = runner.clock.samples
        say(f"calibration loop: median {1e3 * statistics.median(cal):.4g} ms, "
            f"range {1e3 * min(cal):.4g}-{1e3 * max(cal):.4g} ms over {len(cal)} samples")
    covered = sum(op.op_id in refs for op in wl.ops)
    say(f"reference costs recorded for {covered} of {len(wl.ops)} ops at this seed")
    for op_id, problems in runner.failures[:10]:
        say(f"FAILED {op_id}: {'; '.join(problems)}")
    per_op: dict = {}
    for p in passes:
        for op_id, t, c in p:
            per_op.setdefault(op_id, []).append((t, c))
    slowest = sorted(per_op.items(), key=lambda kv: -statistics.median(t for t, _ in kv[1]))
    for op_id, runs in slowest[:5]:
        cal = (f", {statistics.median(c for _, c in runs):.5g} cal" if runner.clock
               else "")
        say(f"op {op_id}: median {statistics.median(t for t, _ in runs):.4g} s{cal} "
            f"over {len(runs)} runs")
    fail_ratio = runner.failed / runner.attempted
    say(f"fail_ratio {fail_ratio:.6g} ({runner.failed} of {runner.attempted} ops)")

    if not trace:
        op_times = [t for p in passes for _, t, _ in p]
        op_cals = [c for p in passes for _, _, c in p]
        metrics = {
            "wall_cal": {"value": statistics.median(sum(c for _, _, c in p) for p in passes),
                         "unit": "cal"},
            "op_p50_cal": {"value": statistics.median(op_cals), "unit": "cal"},
            "cost_total": {"value": runner.pass_costs[0], "unit": "alpha-mass"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
        for name, entry in metrics.items():
            say(f"{name} {entry['value']:.6g} {entry['unit']}")
        say(f"wall_s {statistics.median(walls):.6g} s")
        say(f"op_p50_s {statistics.median(op_times):.6g} s")
        for name, values, unit in (("op_tail_s", op_times, "s"),
                                   ("op_tail_cal", op_cals, "cal")):
            t = tail(values)
            if t is None:
                say(f"{name} not reported: {len(values)} ops < 20")
            else:
                say(f"{name} {t[0]:.6g} {unit} (p{t[1]:.2f} of {t[2]} ops)")
        bench = read_json(ROOT / "BENCHMARK.json")
        for line in compare(metrics, workload, bench, read_json(HERE / "baseline.json")):
            say(line)
    else:
        traced_wall = statistics.median(walls[1:])
        stats = tracer.summary(len(walls) - 1)
        values = tracing.layer_metrics(stats, len(walls) - 1, traced_wall, walls[0])
        units = dict(tracing.per_layer_names())
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        shares = {m: values[f"{m}.self_s"] / traced_wall for m in tracing.LAYERS}
        say("layer self-time shares of the traced pass: " + ", ".join(
            f"{m} {100 * s:.1f}%" for m, s in sorted(shares.items(), key=lambda kv: -kv[1])))
        top = max(shares, key=shares.get)
        expected = workloads.DOMINANT_LAYER[workload]
        say(f"dominant layer {top}: " + ("as the profile predicts" if top == expected
                                         else f"MISMATCH, the profile predicts {expected}"))
        say(f"layer self time {sum(values[f'{m}.self_s'] for m in tracing.LAYERS):.6g} s "
            f"of traced wall {traced_wall:.6g} s; tracing overhead "
            f"{values['trace.overhead_s']:.6g} s per pass")
        for name, entry in metrics.items():
            say(f"{name} {entry['value']:.6g} {entry['unit']}")
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        spans = spans_dir / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans)
        say(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")

    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result), file=out)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
