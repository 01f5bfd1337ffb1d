import json
import logging
import math
import pathlib
import re

import numpy as np
import pytest

from trafficpaths import currents, metrics, optimizer, stability
from trafficpaths import decomposition as dcmp
from trafficpaths.cli import canonical_json
from trafficpaths.currents import AtomicMeasure
from trafficpaths.geometry import Ball, BallRegion

from conftest import balanced_clouds, counting_milp


def atoms2(*entries):
    return AtomicMeasure.from_atoms([(np.array(p, dtype=float), m)
                                     for p, m in entries], dim=2)


# ---------------------------------------------------------------------------
# quantization


def test_quantize_zero_perturbation_returns_target():
    spec = stability.TargetSpec(kind="points",
                                atoms=(((0.5, -0.25), 1.0), ((1.0, 1.0), 2.0)),
                                perturbation=0.0)
    for n in (0, 1, 7):
        q = stability.quantize(spec, n)
        assert (q - stability.quantize(spec, 0)).tv() == 0.0
    assert stability.quantize(spec, 3).total() == pytest.approx(3.0)


def test_quantize_single_atom_gap_is_exactly_one_over_n():
    spec = stability.TargetSpec(kind="points", atoms=(((0.0, 0.0), 1.0),),
                                perturbation=1.0)
    target = stability.quantize(spec, 0)
    for n in (1, 2, 4, 8):
        gap = metrics.weak_star_gap(stability.quantize(spec, n), target)
        assert gap == pytest.approx(1.0 / n, abs=1e-12)


def test_quantize_preserves_mass_exactly():
    spec = stability.TargetSpec(kind="cantor", origin=(0.0, 0.0), length=1.0,
                                mass=0.7)
    for n in range(6):
        q = stability.quantize(spec, n)
        assert len(q.masses) == 2 ** n
        assert q.total() == pytest.approx(0.7, abs=1e-15)


def test_quantize_cantor_gap_below_scale():
    # reference oracle: a much deeper quantization stands in for the limit
    spec = stability.TargetSpec(kind="cantor", origin=(0.0, 0.0), length=1.0,
                                mass=1.0)
    for n in range(5):
        ref = stability.quantize(spec, n + 3)
        gap = metrics.weak_star_gap(stability.quantize(spec, n), ref)
        assert gap <= 3.0 ** (-n) + 1e-12


def test_quantize_gap_monotone_nonincreasing():
    spec = stability.TargetSpec(kind="points",
                                atoms=(((0.0, 0.0), 0.5), ((2.0, 0.0), 0.5)),
                                perturbation=1.0, seed=4)
    target = stability.quantize(spec, 0)
    gaps = [metrics.weak_star_gap(stability.quantize(spec, n), target)
            for n in (1, 2, 4, 8, 16, 32)]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_quantize_rejects_negative_level():
    spec = stability.TargetSpec(kind="points", atoms=(((0.0, 0.0), 1.0),))
    with pytest.raises(ValueError):
        stability.quantize(spec, -1)


# ---------------------------------------------------------------------------
# experiment configuration


def _experiment_dict(**overrides):
    d = {
        "alpha": 0.5,
        "dimension": 2,
        "mu_minus": {"kind": "points",
                     "atoms": [{"point": [0.0, 0.0], "mass": 1.0}],
                     "perturbation": 0.0},
        "mu_plus": {"kind": "points",
                    "atoms": [{"point": [1.0, 1.0], "mass": 0.5},
                              {"point": [1.0, -1.0], "mass": 0.5}],
                    "perturbation": 1.0},
        "schedule": [1, 2, 4, 8, 16, 32, 64],
    }
    d.update(overrides)
    return d


def _experiment_dict_3d(**overrides):
    d = _experiment_dict(dimension=3, **overrides)
    d["mu_minus"]["atoms"][0]["point"] = [0.0, 0.0, 0.0]
    d["mu_plus"]["atoms"][0]["point"] = [1.0, 1.0, 0.0]
    d["mu_plus"]["atoms"][1]["point"] = [1.0, -1.0, 0.0]
    return d


def test_experiment_from_dict_names_missing_field():
    bad = _experiment_dict()
    del bad["schedule"]
    with pytest.raises(ValueError, match="schedule"):
        stability.experiment_from_dict(bad)


def test_experiment_rejects_overlapping_supports():
    bad = _experiment_dict(
        mu_plus={"kind": "points",
                 "atoms": [{"point": [0.0, 0.0], "mass": 1.0}],
                 "perturbation": 0.0})
    with pytest.raises(ValueError, match="disjoint"):
        stability.experiment_from_dict(bad)


def test_experiment_ignores_a_retired_grid_step():
    # trials use no grid: a config written when they did still loads, as any
    # unknown field does
    cfg = stability.experiment_from_dict(_experiment_dict(grid_step=0.25))
    assert cfg == stability.experiment_from_dict(_experiment_dict())


def test_experiment_ignores_a_retired_ambient_radius():
    # no trial reads a radius: a config written with one still loads, even an
    # invalid one, and the seed lives only in the two targets
    cfg = stability.experiment_from_dict(_experiment_dict(ambient_radius=0.0, seed=13))
    assert cfg == stability.experiment_from_dict(_experiment_dict(seed=13))
    assert (cfg.minus.seed, cfg.plus.seed) == (13, 14)
    assert not hasattr(cfg, "ambient_radius") and not hasattr(cfg, "seed")


def test_experiment_rejects_alpha_below_threshold():
    with pytest.raises(ValueError, match="threshold"):
        stability.experiment_from_dict(_experiment_dict_3d(alpha=0.3))


# ---------------------------------------------------------------------------
# stability trials


def test_trial_constant_sequence_is_flat():
    cfg = stability.experiment_from_dict(_experiment_dict(
        mu_plus={"kind": "points",
                 "atoms": [{"point": [1.0, 1.0], "mass": 0.5},
                           {"point": [1.0, -1.0], "mass": 0.5}],
                 "perturbation": 0.0},
        schedule=[1, 2, 4, 8]))
    report = stability.run_stability_trial(cfg)
    costs = [r.cost for r in report.rows]
    assert max(costs) - min(costs) <= 1e-12
    assert all(r.gap_minus == 0.0 and r.gap_plus == 0.0 for r in report.rows)
    assert report.verdicts["optimal"]


@pytest.mark.parametrize("alpha", [0.5, 0.3])
def test_trial_converges_on_two_sink_split(alpha):
    cfg = stability.experiment_from_dict(_experiment_dict(alpha=alpha))
    report = stability.run_stability_trial(cfg)
    assert report.verdicts["optimal"], report.verdicts
    last = report.rows[-1]
    assert last.n == 64
    assert abs(last.cost - report.limit_cost) <= cfg.convergence_tol
    assert last.gap_plus <= 1.0 / 64.0 + 1e-9


def test_trial_in_3d_reports_the_flat_interval():
    # one code path for both dimensions: every level's tree matches the
    # limit's, so each row has a homotopy upper bound, and both ends halve
    cfg = stability.experiment_from_dict(_experiment_dict_3d(alpha=0.6, schedule=[1, 2, 4]))
    report = stability.run_stability_trial(cfg)
    assert report.notes == ()
    assert [r.flat_kind for r in report.rows] == ["homotopy"] * 3
    assert [r.flat_lower for r in report.rows] == pytest.approx([1.0, 0.5, 0.25], rel=1e-12)
    assert [r.flat_upper for r in report.rows] == pytest.approx(
        [1.43835896181, 0.719179480906, 0.359589740453], rel=1e-9)
    # the last cost is still farther than convergence_tol from the limit
    assert report.verdicts == {"costs_bounded": True, "gaps_monotone": True,
                               "limit_optimal": True, "liminf_ok": False,
                               "converged": False, "optimal": False}


def test_trial_names_offending_level_when_out_of_range():
    cfg = stability.experiment_from_dict(_experiment_dict(
        mu_plus={"kind": "cantor", "origin": [1.0, 0.0], "length": 1.0,
                 "mass": 1.0},
        mu_minus={"kind": "points",
                  "atoms": [{"point": [-1.0, 0.0], "mass": 1.0}],
                  "perturbation": 0.0},
        schedule=[1, 2, 3]))
    with pytest.raises(optimizer.OracleRangeError, match="n=3"):
        stability.run_stability_trial(cfg)


def _position_batches(monkeypatch) -> list:
    """Group counts of every ``_minimize_length`` call from now on; the real kernel runs."""
    kernel, calls = optimizer._minimize_length, []

    def counted(*args, **kwargs):
        calls.append(len(np.unique(kwargs["groups"])))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_minimize_length", counted)
    return calls


def test_trial_solves_limit_and_levels_in_one_batch(monkeypatch, caplog):
    # every level of a shipped config has the limit's five atoms: one batch
    # holds the limit and the seven levels
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = stability.load_experiment(str(root / "configs" / "stability_alpha04.json"))
    calls = _position_batches(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="trafficpaths.optimizer"):
        stability.run_stability_trial(cfg)
    assert calls == [1 + len(cfg.schedule)]
    batches = [r.getMessage() for r in caplog.records if "position batch" in r.getMessage()]
    assert batches[0].startswith(f"position batch of {15 * (1 + len(cfg.schedule))}: ")
    assert batches[0].endswith(f"Newton iterations, {1 + len(cfg.schedule)} groups")


def _raise(*args, **kwargs):
    raise AssertionError("a trial must not re-solve its limit")


@pytest.mark.parametrize("name", ["stability_alpha02", "stability_alpha03", "stability_alpha04",
                                  "stability_alpha06", "stability_alpha08"])
def test_trial_certifies_its_limit_from_its_own_batch(name, monkeypatch, caplog):
    # limit_optimal comes from the checked certificate of the trial's one
    # oracle batch: no second oracle solve of the limit
    monkeypatch.setattr(optimizer, "is_optimal", _raise)
    monkeypatch.setattr(optimizer, "brute_force_optimal", _raise)
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = stability.load_experiment(str(root / "configs" / f"{name}.json"))
    with caplog.at_level(logging.DEBUG, logger="trafficpaths.stability"):
        report = stability.run_stability_trial(cfg)
    assert report.verdicts["optimal"]
    assert -1e-12 <= report.optimal_gap <= 1e-8
    (line,) = [r.getMessage() for r in caplog.records
               if r.name == "trafficpaths.stability" and " limit: " in r.getMessage()]
    bound = report.limit_cost - report.optimal_gap
    assert line == (f"alpha {cfg.alpha:g} limit: 15 trees checked, "
                    f"certified bound {bound:.12g}, path cost {report.limit_cost:.12g}")


@pytest.mark.uncertified
def test_trial_with_an_uncertified_limit_tree_is_not_optimal(monkeypatch):
    # one tree of the limit (group 0) that was certified ends uncertified
    # instead: it keeps its iterate and its cost, but the limit has no
    # certificate and no gap
    kernel, turned = optimizer._minimize_length, []

    def one_uncertified(pos, *args, **kwargs):
        out, duals = kernel(pos, *args, **kwargs)
        i = next(i for i, res in enumerate(out) if kwargs["groups"][i] == 0 and res is not None)
        out[i] = optimizer.OptimizeError("position stage did not certify its gap", out[i][0])
        duals[i] = np.nan
        turned.append(i)
        return out, duals

    monkeypatch.setattr(optimizer, "_minimize_length", one_uncertified)
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = stability.load_experiment(str(root / "configs" / "stability_alpha04.json"))
    report = stability.run_stability_trial(cfg)
    assert report.verdicts["limit_optimal"] is False
    assert not report.verdicts["optimal"]
    assert report.optimal_gap is None
    assert report.notes == (f"limit not certified: tree {turned[0]} has no duals: "
                            "its solve was not certified",)
    assert '"optimal_gap": null' in canonical_json(stability.report_json_dict(report))


def test_trial_batches_levels_by_merged_atom_count(monkeypatch):
    cfg = stability.experiment_from_dict(_experiment_dict(
        mu_plus={"kind": "cantor", "origin": [1.0, 0.0], "length": 1.0,
                 "mass": 1.0},
        mu_minus={"kind": "points",
                  "atoms": [{"point": [-1.0, 0.0], "mass": 1.0}],
                  "perturbation": 0.0},
        schedule=[1, 2]))
    merged = {len((stability.quantize(cfg.plus, n) - stability.quantize(cfg.minus, n)).masses)
              for n in cfg.schedule}
    assert merged == {3, 5}
    calls = _position_batches(monkeypatch)
    stability.run_stability_trial(cfg)
    assert len(calls) == len(merged)
    assert sum(calls) == 1 + len(cfg.schedule)


def _unperturbed(**overrides):
    d = _experiment_dict(**overrides)
    d["mu_plus"]["perturbation"] = 0.0
    return d


@pytest.mark.parametrize("make", [_experiment_dict, _unperturbed, _experiment_dict_3d],
                         ids=["2d", "2d-levels-at-limit", "3d"])
def test_trial_makes_no_flat_lp_and_no_rasterize(make, monkeypatch):
    # the flat interval needs no mesh: no grid LP and no rasterized path, in
    # either dimension; a level equal to the limit has the interval [0, 0]
    cfg = stability.experiment_from_dict(make(alpha=0.6, schedule=[1, 2, 4]))
    calls = counting_milp(monkeypatch)
    monkeypatch.setattr(metrics, "rasterize", None)
    report = stability.run_stability_trial(cfg)
    assert calls == []
    if make is _unperturbed:
        assert [(r.flat_lower, r.flat_upper, r.flat_kind) for r in report.rows] == \
            [(0.0, 0.0, "homotopy")] * 3


def _solved(atoms, alpha=0.5, dim=2):
    """TreePath of the oracle answer on signed atoms (sinks positive), keyed by atom index."""
    mu_minus = AtomicMeasure.from_atoms([(p, -m) for p, m in atoms if m < 0], dim=dim)
    mu_plus = AtomicMeasure.from_atoms([(p, m) for p, m in atoms if m > 0], dim=dim)
    ((path, cert, tree),) = optimizer.brute_force_many([(mu_minus, mu_plus)], alpha)
    key = {tuple(map(float, p)): k for k, (p, _) in enumerate(atoms)}
    keys = tuple(key[tuple(q)] for q in cert.points.tolist())
    return metrics.TreePath(mu_plus - mu_minus, path, tree, keys)


@pytest.mark.parametrize("dim", [2, 3])
def test_flat_interval_of_a_translated_segment(dim):
    # a unit flow on a segment of length L moved by delta across it: the
    # boundary moves 2 delta in all, and the homotopy sweeps the L x delta
    # rectangle and moves both ends by delta
    length, delta = 1.5, 0.125
    pad = (0.0,) * (dim - 2)
    shift = (0.0, delta) + pad if dim == 2 else (0.0, 0.0, delta)
    ends = [((0.0, 0.0) + pad, -1.0), ((length, 0.0) + pad, 1.0)]
    limit = _solved(ends, dim=dim)
    level = _solved([(tuple(x + y for x, y in zip(p, shift)), m) for p, m in ends], dim=dim)
    assert metrics.flat_interval(level, limit) == (2 * delta, length * delta + 2 * delta,
                                                   "homotopy")


def _triangle(x, y, z) -> float:
    return 0.5 * abs((y[0] - x[0]) * (z[1] - x[1]) - (y[1] - x[1]) * (z[0] - x[0]))


def test_flat_interval_follows_a_moving_branch_point():
    # a Y whose sinks move apart: its branch point moves too, and the upper
    # end is the swept area of its three edges plus the sinks' motion
    def y_shape(spread):
        return _solved([((0.0, 0.0), -1.0), ((2.0, spread), 0.5), ((2.0, -spread), 0.5)])

    limit = y_shape(1.0)
    bounds = []
    for delta in (0.1, 0.05):
        level = y_shape(1.0 + delta)
        lower, upper, kind = metrics.flat_interval(level, limit)
        assert kind == "homotopy"
        (branch,), (branch_n,) = ([v for v in t.vertices if v[0] not in (0.0, 2.0)]
                                  for t in (limit.path, level.path))
        assert branch_n[0] != branch[0]
        swept = _triangle((0.0, 0.0), branch, branch_n)
        for side in (1.0, -1.0):
            sink, sink_n = (2.0, side), (2.0, side * (1.0 + delta))
            swept += 0.5 * (_triangle(branch, sink, sink_n) + _triangle(branch, sink_n, branch_n))
        assert upper == pytest.approx(swept + delta, rel=1e-12)
        assert lower == pytest.approx(delta, rel=1e-12)
        assert upper < currents.mass(currents.subtract(level.path, limit.path))
        bounds.append(upper)
    assert 0.45 <= bounds[1] / bounds[0] <= 0.55


def test_flat_interval_of_a_different_tree_is_the_mass():
    # two sources and two sinks far apart in y pair up as two segments; close
    # together they share a trunk: the trees differ, so the upper end is M(T_n - T)
    def pairs(h):
        return _solved([((-1.0, h), -1.0), ((-1.0, -h), -1.0), ((1.0, h), 1.0),
                        ((1.0, -h), 1.0)])

    limit, level = pairs(3.0), pairs(0.2)
    assert metrics._matched(level, limit) is None
    lower, upper, kind = metrics.flat_interval(level, limit)
    assert kind == "mass"
    assert upper == currents.mass(currents.subtract(level.path, limit.path))
    assert 0.0 < lower <= upper


@pytest.mark.parametrize("name", ["stability_alpha02", "stability_alpha03", "stability_alpha04",
                                  "stability_alpha06", "stability_alpha08"])
def test_shipped_flat_intervals_bracket_and_halve(name):
    # lower <= upper at every level; from n = 8 on every tree matches the
    # limit's and the upper end halves with each level, like the lower one
    root = pathlib.Path(__file__).resolve().parents[1]
    report = stability.run_stability_trial(
        stability.load_experiment(str(root / "configs" / f"{name}.json")))
    assert all(0.0 <= r.flat_lower <= r.flat_upper for r in report.rows)
    tail = [r for r in report.rows if r.n >= 8]
    assert [r.flat_kind for r in tail] == ["homotopy"] * len(tail)
    for a, b in zip(tail, tail[1:]):
        assert b.n == 2 * a.n
        assert 0.4 <= b.flat_upper / a.flat_upper <= 0.6
    assert tail[-1].n == 64 and tail[-1].flat_upper <= 0.05


def test_trial_logs_its_flat_interval(caplog):
    cfg = stability.experiment_from_dict(_experiment_dict(alpha=0.6, schedule=[1, 2, 4]))
    with caplog.at_level(logging.DEBUG, logger="trafficpaths.stability"):
        report = stability.run_stability_trial(cfg)
    (line,) = [r.getMessage() for r in caplog.records if "flat interval" in r.getMessage()]
    last = report.rows[-1]
    assert line == ("alpha 0.6 flat interval: homotopy at n = [1, 2, 4], mass at n = [], "
                    f"last level [{last.flat_lower:.6g}, {last.flat_upper:.6g}]")


def test_report_csv_shape():
    cfg = stability.experiment_from_dict(_experiment_dict(schedule=[1, 2]))
    report = stability.run_stability_trial(cfg)
    text = stability.report_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(stability.CSV_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("1,")


def _assert_report_matches(got, want, where="report"):
    """Numbers agree to 1e-9 relative; strings, flags and keys exactly."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_report_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_report_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), where
    else:
        assert got == want, where


@pytest.mark.parametrize("name", ["stability_alpha02", "stability_alpha03",
                                  "stability_alpha04", "stability_alpha06",
                                  "stability_alpha08"])
def test_shipped_report_matches_results(name):
    # results/ is written by scripts/run_stability.py; this ties it to the code
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = stability.load_experiment(str(root / "configs" / f"{name}.json"))
    got = json.loads(canonical_json(stability.report_json_dict(
        stability.run_stability_trial(cfg))))
    want = json.loads((root / "results" / f"{name}.json").read_text("utf-8"))
    _assert_report_matches(got, want)


# ---------------------------------------------------------------------------
# competitor construction


def _detour_setup(height=1.0, alpha=0.6, dim=2, radius=5e-4):
    pad = [0.0] * (dim - 2)
    source, apex, sink = (np.array(p + pad) for p in ([-1.0, 0.0], [0.0, height],
                                                      [1.0, 0.0]))
    t_opt = currents.from_segments([(source, sink, 1.0)], dim=dim)
    t_n = currents.from_segments([(source, apex, 1.0), (apex, sink, 1.0)], dim=dim)
    cc = stability.CompetitorConfig(Delta=0.8, eps1=1e-8, eps2=1e-5,
                                    delta=0.01, N_minus=1, N_plus=1)
    covers = {"minus": [Ball(source, radius)], "plus": [Ball(sink, radius)]}
    return t_n, t_opt, covers, cc, alpha


def _run_competitor(t_n, t_opt, covers, cc, alpha):
    return stability.build_competitor(
        t_n, dcmp.good_decomposition(t_n), t_opt,
        dcmp.good_decomposition(t_opt), covers, cc, alpha)


def test_competitor_self_instance_costs_connection_overhead_only():
    _, t_opt, covers, cc, alpha = _detour_setup()
    report = _run_competitor(t_opt, t_opt, covers, cc, alpha)
    assert report.ok
    base = currents.alpha_mass(t_opt, alpha)
    assert abs(report.ledger["competitor_cost"] - base) <= cc.Delta / 16.0


def test_competitor_beats_detour():
    report = _run_competitor(*_detour_setup())
    assert report.ok
    assert report.boundary_error_sel <= 1e-9
    assert report.boundary_error_full <= 1e-9
    led = report.ledger
    assert led["competitor_cost"] < led["cost_t_n"]
    assert led["competitor_cost"] <= led["conclusion_budget"]
    assert led["connector_cost_minus"] <= cc_budget(led)
    assert led["back_transport_cost"] <= cc_budget(led)
    for r in report.alpha_ratios_minus + report.alpha_ratios_plus:
        assert 0.0 <= r <= 1.0


def cc_budget(ledger):
    return ledger["Delta"] / 128.0 + 1e-12


def test_competitor_rejects_alpha_below_the_3d_sphere_threshold():
    # every other precondition holds: 1e-4 balls fit the 3-D radius budget
    t_n, t_opt, covers, cc, _ = _detour_setup(dim=3, radius=1e-4)
    message = "alpha must exceed the sphere reduction threshold 1 - 1/(d-1)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _run_competitor(t_n, t_opt, covers, cc, 0.5)


def test_competitor_rejects_smallness_violation():
    t_n, t_opt, covers, _, alpha = _detour_setup()
    bad = stability.CompetitorConfig(Delta=0.8, eps1=0.3, eps2=1e-5,
                                     delta=0.01, N_minus=1, N_plus=1)
    with pytest.raises(ValueError, match="smallness"):
        _run_competitor(t_n, t_opt, covers, bad, alpha)


def test_competitor_rejects_fat_cover():
    t_n, t_opt, _, cc, alpha = _detour_setup()
    covers = {"minus": [Ball(np.array([-1.0, 0.0]), 0.1)],
              "plus": [Ball(np.array([1.0, 0.0]), 0.1)]}
    with pytest.raises(ValueError, match="cover"):
        _run_competitor(t_n, t_opt, covers, cc, alpha)


def test_competitor_rejects_covers_without_plus():
    t_n, t_opt, covers, cc, alpha = _detour_setup()
    with pytest.raises(ValueError, match="covers"):
        _run_competitor(t_n, t_opt, {"minus": covers["minus"]}, cc, alpha)


def test_competitor_rejects_overlapping_cover():
    t_n, t_opt, _, cc, alpha = _detour_setup()
    covers = {"minus": [Ball(np.array([-1.0, 0.0]), 5e-4),
                        Ball(np.array([-1.0, 0.0001]), 5e-4)],
              "plus": [Ball(np.array([1.0, 0.0]), 5e-4)]}
    cc2 = stability.CompetitorConfig(Delta=0.8, eps1=1e-8, eps2=1e-5,
                                     delta=0.01, N_minus=2, N_plus=1)
    with pytest.raises(ValueError, match="disjoint"):
        _run_competitor(t_n, t_opt, covers, cc2, alpha)


_SOURCE, _SINK = np.array([-1.0, 0.0]), np.array([1.0, 0.0])


@pytest.mark.parametrize("minus, plus, n_minus, t_n_start, message", [
    ([Ball(_SOURCE, 5e-4)], [Ball(_SINK, 5e-4)], 2, None,
     "cover truncation count exceeds the cover size"),
    ([Ball(np.array([-1.0, 5e-4]), 5e-4)], [Ball(_SINK, 5e-4)], 1, None,
     "marginal atom sits on a cover sphere"),
    ([Ball(_SOURCE + [0.01, 0.0], 5e-4)], [Ball(_SINK, 5e-4)], 1, None,
     "cover truncation misses source mass"),
    ([Ball(_SOURCE, 5e-4)], [Ball(_SINK + [0.01, 0.0], 5e-4)], 1, None,
     "cover truncation misses sink mass"),
    ([Ball(_SOURCE, 5e-4)], [Ball(_SINK, 5e-4)], 1, (-1.0, 2e-4),
     "approximating boundary too far from the target boundary"),
], ids=["truncation-count", "atom-on-sphere", "misses-source", "misses-sink",
        "boundary-too-far"])
def test_competitor_rejects_bad_cover_side(minus, plus, n_minus, t_n_start, message):
    t_n, t_opt, _, _, alpha = _detour_setup()
    if t_n_start is not None:
        t_n = currents.from_segments([
            (np.array(t_n_start), np.array([0.0, 1.0]), 1.0),
            (np.array([0.0, 1.0]), _SINK, 1.0)])
    cc = stability.CompetitorConfig(Delta=0.8, eps1=1e-8, eps2=1e-5,
                                    delta=0.01, N_minus=n_minus, N_plus=1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        _run_competitor(t_n, t_opt, {"minus": minus, "plus": plus}, cc, alpha)


@pytest.mark.parametrize("eps1", [1e-17, 1e-30])
def test_competitor_accepts_a_cover_holding_every_atom_below_an_ulp(eps1):
    # eps1/4 is below half an ulp of the unit total, so total - eps1/4 rounds
    # to the total: the covers hold every atom and must still pass, and a
    # cover that misses the source must still be refused
    t_n, t_opt, covers, _, alpha = _detour_setup()
    cc = stability.CompetitorConfig(Delta=0.8, eps1=eps1, eps2=1e-5,
                                    delta=0.01, N_minus=1, N_plus=1)
    assert 1.0 - eps1 / 4.0 == 1.0
    report = _run_competitor(t_n, t_opt, covers, cc, alpha)
    assert report.ok
    assert report.boundary_error_sel == report.boundary_error_full == 0.0
    off = {"minus": [Ball(_SOURCE + [0.01, 0.0], 5e-4)], "plus": covers["plus"]}
    with pytest.raises(ValueError, match="^cover truncation misses source mass$"):
        _run_competitor(t_n, t_opt, off, cc, alpha)


def test_competitor_truncated_cover_gives_zero_ratio_past_the_truncation():
    t_n, t_opt, _, cc, alpha = _detour_setup()
    covers = {"minus": [Ball(_SOURCE, 3e-4), Ball(_SOURCE + [0.0, 0.01], 3e-4)],
              "plus": [Ball(_SINK, 3e-4), Ball(_SINK + [0.0, 0.01], 3e-4)]}
    report = _run_competitor(t_n, t_opt, covers, cc, alpha)
    assert report.ok
    assert report.boundary_error_sel == 0.0
    assert report.boundary_error_full == 0.0
    # the one kept ball takes the cut mass at rate 1/(1 + eps2)
    want = (pytest.approx(1.0 / (1.0 + 1e-5), rel=1e-12), 0.0)
    assert report.alpha_ratios_minus == want
    assert report.alpha_ratios_plus == want


def _random_admissible_instance(rng):
    """Suboptimal curvy routing with the same boundary as the straight one."""
    k_m = int(rng.integers(1, 3))
    k_p = int(rng.integers(1, 3))
    mu_minus, mu_plus = balanced_clouds(rng, k_m, k_p, spread=0.8, gap=2.5)
    alpha = float(rng.uniform(0.45, 0.7))
    t_opt = optimizer.brute_force_optimal(mu_minus, mu_plus, alpha)

    # greedy transport plan between the atom lists
    supply = [[p, m] for p, m in mu_minus.atoms()]
    demand = [[p, m] for p, m in mu_plus.atoms()]
    segs = []
    i = j = 0
    while i < len(supply) and j < len(demand):
        w = min(supply[i][1], demand[j][1])
        a, b = supply[i][0], demand[j][0]
        mid1 = a + np.array([1.0, float(rng.uniform(0.3, 1.2))])
        mid2 = b + np.array([-1.0, float(rng.uniform(0.3, 1.2))])
        for p, q in zip([a, mid1, mid2], [mid1, mid2, b]):
            segs.append((p, q, w))
        supply[i][1] -= w
        demand[j][1] -= w
        if supply[i][1] <= 1e-12:
            i += 1
        if j < len(demand) and demand[j][1] <= 1e-12:
            j += 1
    t_n = currents.overlay(segs, dim=2)
    return t_n, t_opt, alpha


def test_competitor_boundary_identities_on_random_instances(rng):
    built = 0
    for _ in range(20):
        t_n, t_opt, alpha = _random_admissible_instance(rng)
        bnd = currents.boundary(t_opt)
        covers = {
            "minus": [Ball(p, 1e-4) for p, _ in bnd.negative_part().atoms()],
            "plus": [Ball(p, 1e-4) for p, _ in bnd.positive_part().atoms()],
        }
        cc = stability.CompetitorConfig(
            Delta=1.0, eps1=1e-12, eps2=1e-9, delta=0.02,
            N_minus=len(covers["minus"]), N_plus=len(covers["plus"]))
        report = _run_competitor(t_n, t_opt, covers, cc, alpha)
        assert report.boundary_error_sel <= 1e-9
        assert report.boundary_error_full <= 1e-9
        assert report.checks["cell_mass_growth"]
        for r in report.alpha_ratios_minus + report.alpha_ratios_plus:
            assert 0.0 <= r <= 1.0
        built += 1
    assert built == 20


# ---------------------------------------------------------------------------
# quasi-additivity


def test_quasi_additivity_shared_edge_example():
    t1 = currents.from_segments([
        (np.array([0.0, 0.0]), np.array([1.0, 0.0]), 0.1)])
    t2 = currents.from_segments([
        (np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)])
    assert stability.check_quasi_additivity(t1, t2, eps=0.2, alpha=0.5)


def test_quasi_additivity_rejects_thick_overlap():
    t1 = currents.from_segments([
        (np.array([0.0, 0.0]), np.array([1.0, 0.0]), 0.5)])
    t2 = currents.from_segments([
        (np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)])
    with pytest.raises(ValueError, match="multiplicity hypothesis"):
        stability.check_quasi_additivity(t1, t2, eps=0.2, alpha=0.5)


def test_quasi_additivity_rejects_bad_eps():
    t = currents.from_segments([
        (np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)])
    with pytest.raises(ValueError, match="eps"):
        stability.check_quasi_additivity(t, t, eps=0.3, alpha=0.5)


def test_quasi_additivity_rejects_partial_opposite_overlap_3d():
    p, u = np.array([0.3, -0.2, 0.5]), np.array([1.0, 2.0, 2.0]) / 3.0
    t1 = currents.from_segments([(p + 4.0 * u, p + 1.0 * u, 0.5)])
    t2 = currents.from_segments([(p, p + 3.0 * u, 1.0)])
    with pytest.raises(ValueError, match="multiplicity hypothesis"):
        stability.check_quasi_additivity(t1, t2, eps=0.2, alpha=0.5)


def test_quasi_additivity_parallel_offset_line_is_distinct():
    t1 = currents.from_segments([
        (np.array([0.0, 1e-6]), np.array([1.0, 1e-6]), 5.0)])
    t2 = currents.from_segments([
        (np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)])
    assert stability.check_quasi_additivity(t1, t2, eps=0.1, alpha=0.5)


def test_quasi_additivity_disjoint_paths_unrestricted():
    # off the shared support the multiplicity hypothesis does not apply
    t1 = currents.from_segments([
        (np.array([0.0, 1.0]), np.array([1.0, 1.0]), 5.0)])
    t2 = currents.from_segments([
        (np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)])
    assert stability.check_quasi_additivity(t1, t2, eps=0.1, alpha=0.5)


# ---------------------------------------------------------------------------
# thresholded lower semicontinuity


def _noisy_sequence(base_theta=1.0, noise=lambda n: 1.0 / n):
    base = currents.from_segments([
        (np.array([0.0, 0.0]), np.array([1.0, 0.0]), base_theta)])
    seq = []
    for n in (4, 8, 16, 32):
        seq.append(currents.from_segments([
            (np.array([0.0, 0.0]), np.array([1.0, 0.0]), base_theta),
            (np.array([0.0, 0.5]), np.array([1.0, 0.5]), noise(n))]))
    return base, seq


def test_lsc_constant_sequence():
    base = currents.from_segments([
        (np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)])
    region = BallRegion.union_of([Ball(np.array([0.5, 0.0]), 0.4)])
    report = stability.check_high_multiplicity_lsc(base, [base, base], region,
                                                   eps=0.01)
    assert report.holds
    assert report.delta_constructive > 0.0


def test_lsc_excludes_low_multiplicity_noise():
    base, seq = _noisy_sequence()
    region = BallRegion.union_of([Ball(np.array([0.5, 0.25]), 0.5)])
    report = stability.check_high_multiplicity_lsc(base, seq, region, eps=0.05)
    assert report.holds
    # noise multiplicities 1/4 .. 1/32 sit below the empirical threshold
    assert report.delta_empirical >= 0.25 - 1e-12


def test_lsc_adversarial_low_multiplicity_mass():
    # spread the noise over many thin strands: thresholding must drop them
    base = currents.from_segments([
        (np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)])
    seq = []
    for n in (8, 16, 32):
        segs = [(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)]
        for k in range(4):
            y = 0.2 + 0.1 * k
            segs.append((np.array([0.0, y]), np.array([1.0, y]), 1.0 / n))
        seq.append(currents.from_segments(segs))
    region = BallRegion.union_of([Ball(np.array([0.5, 0.3]), 0.6)])
    report = stability.check_high_multiplicity_lsc(base, seq, region, eps=0.05)
    assert report.holds
    assert report.delta_constructive <= report.delta0


def test_lsc_probes_the_given_alpha():
    # the member splits the unit flow into 0.6 and 0.3 strands: its plain
    # restricted mass 0.9 falls below v_ref - eps/2 = 0.95, while its
    # 0.5-mass (about 1.32) does not
    base = currents.from_segments([
        (np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)])
    member = currents.from_segments([
        (np.array([0.0, 0.0]), np.array([1.0, 0.0]), 0.6),
        (np.array([0.0, 0.01]), np.array([1.0, 0.01]), 0.3)])
    region = BallRegion.union_of([Ball(np.array([0.5, 0.0]), 0.8)])
    default = stability.check_high_multiplicity_lsc(base, [member], region, eps=0.1)
    plain = stability.check_high_multiplicity_lsc(base, [member], region, eps=0.1,
                                                  alpha=1.0)
    assert default.delta0 == pytest.approx(1.7)
    assert plain.delta0 == 0.0
