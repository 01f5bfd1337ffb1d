"""Digest of every benchmark answer, for showing that a change keeps them byte-identical.

    python scripts/answer_digest.py --workload surgery --seeds 0-9

Builds the named workload of perfbench/workloads.py for each seed, runs
each operation once, untimed and untraced, and prints one line per
operation: its id, the sha256 of its canonical text and repr(cost).  An
operation that raises prints its id and the exception instead.  Run it
at two commits and diff the outputs: no diff means every answer, down to
the last bit of every cost, is unchanged.  Exits 1 when an operation
raised or its answer check found a problem.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: imports the package from this checkout)
import workloads  # noqa: E402


def parse_seeds(text: str) -> range:
    """'A-B' is the inclusive range A..B; a lone 'A' is the one seed A."""
    lo, _, hi = text.partition("-")
    first, last = int(lo), int(hi or lo)
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(first, last + 1)


def digest_lines(name: str, seed: int, pkg, workdir: pathlib.Path) -> tuple[list, bool]:
    """One line per operation of one workload build, and whether all passed."""
    lines, ok = [], True
    for op in workloads.build(name, seed, workdir, pkg).ops:
        try:
            outcome = op.inspect(op.run())
        except Exception as exc:  # report and go on: the digest covers every op
            lines.append(f"{op.op_id} raised {type(exc).__name__}: {exc}")
            ok = False
            continue
        sha = hashlib.sha256(outcome.canonical.encode("utf-8")).hexdigest()
        lines.append(f"{op.op_id} {sha} {outcome.cost!r}")
        ok = ok and not outcome.problems
    return lines, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seeds", type=parse_seeds, default=range(1))
    args = ap.parse_args(argv)
    run.cap_threads()
    pkg = run.load_package()
    all_ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            lines, ok = digest_lines(args.workload, seed, pkg, pathlib.Path(tmp))
            print(f"# {args.workload} seed {seed}")
            print("\n".join(lines), flush=True)
            all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
