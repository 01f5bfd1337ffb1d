"""Digest of every benchmark answer, for showing that a change keeps them byte-identical.

    python scripts/answer_digest.py --workload surgery --seeds 0-9 [--iterations]

Builds the named workload of perfbench/workloads.py for each seed, runs
each operation once, untimed and untraced, and prints one line per
operation: its id, the sha256 of its canonical text and repr(cost).  An
operation that raises prints its id and the exception instead.  Run it
at two commits and diff the outputs: no diff means every answer, down to
the last bit of every cost, is unchanged.  With --iterations each line
also ends in "iterations N", the Newton iterations of the operation's
position batches, summed from the DEBUG line the position kernel logs
for each batch: a diff then shows whether every solve ran the same steps.
Exits 1 when an operation raised or its answer check found a problem.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import pathlib
import re
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


class IterationCount(logging.Handler):
    """Adds up the Newton iterations of the position batches logged since the last reset."""

    BATCH = re.compile(r"position batch of .* (\d+) Newton iterations")

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.total = 0

    def emit(self, record: logging.LogRecord) -> None:
        batch = self.BATCH.match(record.getMessage())
        if batch:
            self.total += int(batch.group(1))


def digest_lines(name: str, seed: int, pkg, workdir: pathlib.Path,
                 count: IterationCount | None = None) -> tuple[list, bool]:
    """One line per operation of one workload build, and whether all passed;
    with count, each line ends in the operation's Newton iterations."""
    lines, ok = [], True
    for op in workloads.build(name, seed, workdir, pkg).ops:
        if count is not None:
            count.total = 0
        try:
            outcome = op.inspect(op.run())
        except Exception as exc:  # report and go on: the digest covers every op
            lines.append(f"{op.op_id} raised {type(exc).__name__}: {exc}")
            ok = False
            continue
        sha = hashlib.sha256(outcome.canonical.encode("utf-8")).hexdigest()
        lines.append(f"{op.op_id} {sha} {outcome.cost!r}"
                     + (f" iterations {count.total}" if count is not None else ""))
        ok = ok and not outcome.problems
    return lines, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seeds", type=parse_seeds, default=range(1))
    ap.add_argument("--iterations", action="store_true",
                    help="end each line in the operation's Newton iterations")
    args = ap.parse_args(argv)
    run.cap_threads()
    pkg = run.load_package()
    count = IterationCount() if args.iterations else None
    if count is not None:
        log = logging.getLogger("trafficpaths.optimizer")
        log.setLevel(logging.DEBUG)
        log.addHandler(count)
    all_ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            lines, ok = digest_lines(args.workload, seed, pkg, pathlib.Path(tmp), count)
            print(f"# {args.workload} seed {seed}")
            print("\n".join(lines), flush=True)
            all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
