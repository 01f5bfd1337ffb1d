"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workload surgery --seeds 0-9
    python3 perfbench/sweep.py --workload all --seeds 0-9 --write-baseline

One run.py process per seed, one at a time; "all" means the workloads
listed in BENCHMARK.json.  For every end-to-end metric
it prints the median, the quartiles (statistics.quantiles, n=4) and the
spread, the interquartile distance as a share of the median, next to a
third of the metric's bound in BENCHMARK.json.  --write-baseline stores
the medians in perfbench/baseline.json, which run.py compares against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
from record import seed_range


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=run.WORKLOADS + ("all",))
    p.add_argument("--seeds", required=True, type=seed_range)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--write-baseline", action="store_true")
    args = p.parse_args(argv)

    bench = run.read_json(run.ROOT / "BENCHMARK.json")
    seconds = args.seconds or bench.get("run_seconds", 20)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
             else (args.workload,))
    baseline = run.read_json(run.HERE / "baseline.json")
    worst = 0.0
    for workload in names:
        results = []
        for seed in args.seeds:
            res = one_run(workload, seed, seconds, 0)
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        medians = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            medians[name] = statistics.median(values)
            limit = bounds[name] / 3.0
            if name != "setup_s":
                worst = max(worst, spread / limit)
            print(f"{workload} {name}: median {medians[name]:.6g} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {spread:.4f} (bound/3 {limit:.4f})", flush=True)
        if args.write_baseline:
            baseline.setdefault("workloads", {})[workload] = {
                "end_to_end": medians, "seeds": args.seeds, "seconds": seconds}
    if args.write_baseline:
        baseline["host"] = run.host_note(run.cap_threads())
        (run.HERE / "baseline.json").write_text(
            json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"largest spread as a share of bound/3: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
