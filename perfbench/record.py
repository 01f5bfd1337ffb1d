"""Record the reference cost of every operation for a range of seeds.

    python3 perfbench/record.py --workload oracle6 --seeds 0-15

Runs each operation once, untimed, and stores its alpha-mass in
perfbench/reference.json under workload and seed (under "any", once, for
the workloads whose inputs do not depend on the seed).  An operation whose
checks fail is not recorded and makes the script exit 1.  The runner then
requires every later answer to cost at most the recorded value (1e-9
relative slack), so a change that speeds a solver up by returning worse
paths fails its checks.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=run.WORKLOADS)
    p.add_argument("--seeds", required=True, type=seed_range, help="e.g. 0-15")
    args = p.parse_args(argv)

    run.cap_threads()
    pkg = run.load_package()
    import checks
    import workloads

    path = run.HERE / "reference.json"
    bad = 0
    seeds = args.seeds[:1] if args.workload in workloads.SEED_FREE else args.seeds
    for seed in seeds:
        key = workloads.reference_key(args.workload, seed)
        workdir = run.ROOT / ".bench_work" / f"record-{args.workload}-{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = workloads.build(args.workload, seed, workdir, pkg)
            runner = run.Runner(wl, {}, checks)
            costs = {}
            for op in wl.ops:
                _, cost, _ = runner.run_op(op)
                costs[op.op_id] = cost
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for op_id, problems in runner.failures:
            print(f"seed {seed} {op_id}: {'; '.join(problems)}", file=sys.stderr)
            costs.pop(op_id)
            bad += 1
        print(f"seed {key}: {len(costs)} costs recorded", flush=True)
        # re-read before writing so that concurrent recorders of other
        # workloads do not overwrite each other's entries
        merged = run.read_json(path)
        merged.setdefault(args.workload, {})[key] = costs
        path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    try:
        (run.ROOT / ".bench_work").rmdir()
    except OSError:
        pass
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
