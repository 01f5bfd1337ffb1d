"""Run every shipped stability experiment and write reports to results/.

Usage: python scripts/run_stability.py [config.json ...]
With no arguments every file in configs/ is run.  Each experiment
produces results/<name>.json and results/<name>.csv and prints three
lines on stdout.  Two come from the trafficpaths.stability DEBUG log: the
limit's certificate check (the trees checked, the certified bound and the
path cost) and the flat interval (the levels whose upper bound is the
homotopy, those where it is the mass, and the last level's [lower, upper]).
The third gives the verdicts.
"""

import logging
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from trafficpaths import stability
from trafficpaths.cli import canonical_json

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main(argv) -> int:
    paths = [pathlib.Path(p) for p in argv] or sorted((ROOT / "configs").glob("*.json"))
    out_dir = ROOT / "results"
    out_dir.mkdir(exist_ok=True)
    log = logging.getLogger("trafficpaths.stability")
    log.setLevel(logging.DEBUG)
    log.addHandler(logging.StreamHandler(sys.stdout))
    failures = 0
    for path in paths:
        cfg = stability.load_experiment(str(path))
        report = stability.run_stability_trial(cfg)
        stem = path.stem
        (out_dir / f"{stem}.json").write_text(
            canonical_json(stability.report_json_dict(report)), encoding="utf-8")
        (out_dir / f"{stem}.csv").write_text(
            stability.report_csv(report), encoding="utf-8")
        verdicts = " ".join(f"{k}={'PASS' if v else 'FAIL'}"
                            for k, v in report.verdicts.items())
        print(f"{stem}: {verdicts}")
        if not report.verdicts["optimal"]:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
