"""Competitor surgery demo on a family of deliberately suboptimal paths.

Each family member routes unit mass from (-1, 0) to (1, 0) through a
detour apex (0, h); the straight segment is optimal.  For every height
the surgery assembles its competitor and prints the energy ledger
line: competitor cost, the improvement target, and whether every
budget held.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from trafficpaths import currents, stability
from trafficpaths import decomposition as dcmp
from trafficpaths.geometry import Ball

ALPHA = 0.6
HEIGHTS = (0.6, 0.8, 1.0)


def detour(height: float) -> currents.TrafficPath:
    return currents.from_segments([
        (np.array([-1.0, 0.0]), np.array([0.0, height]), 1.0),
        (np.array([0.0, height]), np.array([1.0, 0.0]), 1.0),
    ])


def main() -> int:
    t_opt = currents.from_segments([
        (np.array([-1.0, 0.0]), np.array([1.0, 0.0]), 1.0)])
    pi_opt = dcmp.good_decomposition(t_opt)
    cost_opt = currents.alpha_mass(t_opt, ALPHA)
    bad = 0
    for h in HEIGHTS:
        t_n = detour(h)
        cost_n = currents.alpha_mass(t_n, ALPHA)
        gap = cost_n - cost_opt
        delta_gap = 0.9 * gap
        # the returned excess has mass about eps2, so its alpha-cost times
        # the path length must fit inside the Delta/128 budget
        eps2 = (delta_gap / 512.0) ** (1.0 / ALPHA)
        cc = stability.CompetitorConfig(Delta=delta_gap, eps1=1e-3 * eps2,
                                        eps2=eps2, delta=0.01,
                                        N_minus=1, N_plus=1)
        r = 0.5 * stability.cover_radius_budget(cc.Delta, 2)
        covers = {"minus": [Ball(np.array([-1.0, 0.0]), r)],
                  "plus": [Ball(np.array([1.0, 0.0]), r)]}
        report = stability.build_competitor(t_n, dcmp.good_decomposition(t_n),
                                            t_opt, pi_opt, covers, cc, ALPHA)
        led = report.ledger
        improved = led["competitor_cost"] <= led["conclusion_budget"]
        print(f"h={h}: cost_n={cost_n:.6f} competitor={led['competitor_cost']:.6f} "
              f"target<={led['conclusion_budget']:.6f} budgets_ok={report.ok} "
              f"improved={improved}")
        if not (report.ok and improved):
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
