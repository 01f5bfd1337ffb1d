import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import trafficpaths
from trafficpaths import cli, currents, optimizer


def write_instance(path, **overrides):
    doc = {
        "dimension": 2,
        "alpha": 0.5,
        "ambient_radius": 4.0,
        "mu_minus": [{"point": [-1.0, 2.0], "mass": 1.0},
                     {"point": [1.0, 2.0], "mass": 1.0}],
        "mu_plus": [{"point": [0.0, 0.0], "mass": 2.0}],
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_canonical_json_formats_floats():
    text = cli.canonical_json({"b": 0.1 + 0.2, "a": [1.0, 2.5], "c": True})
    assert '"b": 0.3' in text
    assert '"a": [1, 2.5]' in text
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        cli.canonical_json({"x": float("nan")})


def test_instance_rejects_unbalanced(tmp_path):
    p = write_instance(tmp_path / "i.json",
                       mu_plus=[{"point": [0.0, 0.0], "mass": 1.0}])
    with pytest.raises(ValueError, match="balance"):
        cli.load_instance(str(p))


def test_instance_names_missing_field(tmp_path):
    p = tmp_path / "i.json"
    p.write_text('{"dimension": 2, "alpha": 0.5}', encoding="utf-8")
    with pytest.raises(ValueError, match="mu_minus"):
        cli.load_instance(str(p))


def test_solve_roundtrip_is_byte_identical(tmp_path):
    inst = write_instance(tmp_path / "i.json")
    out1 = tmp_path / "o1.json"
    out2 = tmp_path / "o2.json"
    assert cli.main(["--out", str(out1), "solve", "--in", str(inst)]) == 0
    assert cli.main(["--out", str(out2), "solve", "--in", str(out1)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cached_parser_carries_no_option_into_the_next_call(tmp_path):
    inst = write_instance(tmp_path / "i.json")
    alone, first, second = (tmp_path / f"{n}.json" for n in ("alone", "first", "second"))
    cli.build_parser.cache_clear()
    assert cli.main(["--out", str(alone), "solve", "--in", str(inst)]) == 0
    cli.build_parser.cache_clear()
    assert cli.main(["--out", str(first), "solve", "--alpha", "0.3", "--in", str(inst)]) == 0
    assert cli.main(["--out", str(second), "solve", "--in", str(inst)]) == 0
    assert json.loads(first.read_text())["alpha"] == 0.3
    assert second.read_bytes() == alone.read_bytes()


def test_solve_local_method(tmp_path):
    inst = write_instance(tmp_path / "i.json")
    out = tmp_path / "o.json"
    rc = cli.main(["--out", str(out), "solve", "--in", str(inst),
                   "--method", "local"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "local"
    assert doc["cost"] <= 2.0 * np.sqrt(5.0) + 1e-6


def test_exit_code_2_on_schema_violation(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"dimension": 2, "alpha": 0.5, '
                 '"mu_minus": [{"point": [0, 0], "mass": 1.0}]}',
                 encoding="utf-8")
    assert cli.main(["solve", "--in", str(p)]) == 2


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_exit_code_2_on_a_tol_the_oracle_cannot_certify(tol, tmp_path, capsys):
    inst = write_instance(tmp_path / "i.json")
    assert cli.main(["solve", f"--tol={tol}", "--in", str(inst)]) == 2
    want = f"error: tol must be a finite number >= 0, not {float(tol)!r}\n"
    assert capsys.readouterr().err == want


def test_exit_code_3_on_oracle_range(tmp_path):
    doc = {
        "dimension": 2, "alpha": 0.5,
        "mu_minus": [{"point": [float(i), 0.0], "mass": 1.0} for i in range(5)],
        "mu_plus": [{"point": [float(i), 3.0], "mass": 1.25} for i in range(4)],
    }
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["solve", "--in", str(p)]) == 3


def test_decompose_requires_path(tmp_path):
    inst = write_instance(tmp_path / "i.json")
    assert cli.main(["decompose", "--in", str(inst)]) == 2


def test_decompose_outputs_curves(tmp_path):
    inst = write_instance(tmp_path / "i.json")
    solved = tmp_path / "s.json"
    cli.main(["--out", str(solved), "solve", "--in", str(inst)])
    out = tmp_path / "d.json"
    assert cli.main(["--out", str(out), "decompose", "--in", str(solved)]) == 0
    doc = json.loads(out.read_text())
    assert doc["total_weight"] == pytest.approx(2.0, abs=1e-9)
    assert len(doc["curves"]) == 2


def test_flatnorm_measure_mode(tmp_path):
    a = write_instance(tmp_path / "a.json")
    b = write_instance(tmp_path / "b.json",
                       mu_plus=[{"point": [0.5, 0.0], "mass": 2.0}])
    out = tmp_path / "f.json"
    assert cli.main(["--out", str(out), "flatnorm", "--in", str(a),
                     "--against", str(b)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "flat-0"
    assert doc["plus_gap"] == pytest.approx(1.0, abs=1e-9)
    assert doc["minus_gap"] == pytest.approx(0.0, abs=1e-9)


def test_flatnorm_measure_mode_output_is_pinned(tmp_path):
    # bytes recorded before the weak-* transport left the LP; the plus side
    # moves 1.5 over 0.36 and destroys the 0.5 sent past distance 2
    a = write_instance(tmp_path / "a.json")
    b = write_instance(
        tmp_path / "b.json",
        mu_minus=[{"point": [-0.75, 2.25], "mass": 0.75},
                  {"point": [1.125, 1.625], "mass": 1.25}],
        mu_plus=[{"point": [0.3, -0.2], "mass": 1.5},
                 {"point": [3.5, 0.1], "mass": 0.5}])
    out = tmp_path / "f.json"
    assert cli.main(["--out", str(out), "flatnorm", "--in", str(a),
                     "--against", str(b)]) == 0
    assert out.read_bytes() == (b'{\n  "kind": "flat-0",\n  "minus_gap": 1.16044975047,\n'
                                b'  "plus_gap": 1.54083269132,\n  "value": 2.70128244179\n}\n')


def test_flatnorm_path_mode(tmp_path):
    # the two alphas give different paths, so the grid LP runs; bytes
    # recorded with the primal filling LP, before the batched dual replaced it
    a = write_instance(tmp_path / "a.json")
    b = write_instance(tmp_path / "b.json", alpha=0.8)
    sa, sb = tmp_path / "sa.json", tmp_path / "sb.json"
    cli.main(["--out", str(sa), "solve", "--in", str(a)])
    cli.main(["--out", str(sb), "solve", "--in", str(b)])
    out = tmp_path / "f.json"
    assert cli.main(["--out", str(out), "flatnorm", "--in", str(sa),
                     "--against", str(sb), "--grid-step", "0.5"]) == 0
    assert out.read_bytes() == (b'{\n  "error_bound": 15.0114141468,\n  "grid_step": 0.5,\n'
                                b'  "kind": "grid-flat-1",\n  "value": 1.5\n}\n')


@pytest.mark.parametrize("step", ["inf", "nan", "0", "-0.5"])
def test_exit_code_2_on_a_grid_step_that_spaces_no_grid(step, tmp_path, capsys):
    # checked before either file is read, so measure mode rejects it too
    a = write_instance(tmp_path / "a.json")
    assert cli.main(["flatnorm", "--in", str(a), "--against", str(a),
                     "--grid-step", step]) == 2
    want = f"error: --grid-step must be a finite number > 0, not {float(step)!r}\n"
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("coord", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_exit_code_2_on_a_point_off_the_map(coord, tmp_path, capsys):
    # a NaN point failed with "cannot convert float NaN to integer", and an
    # infinite one ran the whole solve before its output was refused
    doc = json.loads(write_instance(tmp_path / "i.json").read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_set(doc, ("mu_minus", 1, "point"), [coord, 2.0])),
                   encoding="utf-8")
    assert cli.main(["solve", "--in", str(bad)]) == 2
    assert capsys.readouterr().err == "error: field 'mu_minus[1].point' must be finite\n"


def _with_path(file, **overrides):
    doc = json.loads(write_instance(file, **overrides).read_text(encoding="utf-8"))
    doc["path"] = {"vertices": [[-1.0, 2.0], [1.0, 2.0], [0.0, 0.0]],
                   "edges": [[0, 2, 1.0], [1, 2, 1.0]]}
    file.write_text(json.dumps(doc), encoding="utf-8")
    return file


@pytest.mark.parametrize("radius, rule", [
    (0.0, "positive"), (-1.0, "positive"), (float("nan"), "finite"), (float("inf"), "finite"),
], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("command", ["solve-svg", "flatnorm-against"])
def test_exit_code_2_on_an_ambient_radius_that_frames_nothing(command, radius, rule, tmp_path,
                                                             capsys):
    # solve --svg used to divide by 0 at 0 and mirror the picture below it, and
    # flatnorm --against failed on NaN with "cannot convert float NaN to integer"
    bad = _with_path(tmp_path / "bad.json", ambient_radius=radius)
    if command == "solve-svg":
        argv = ["--out", str(tmp_path / "o.json"), "solve", "--in", str(bad),
                "--svg", str(tmp_path / "o.svg")]
    else:
        argv = ["flatnorm", "--in", str(_with_path(tmp_path / "good.json")),
                "--against", str(bad)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: field 'ambient_radius' must be {rule}\n"


@pytest.mark.parametrize("text, message", [
    ("[]", "file '{path}' must hold a JSON object"),
    ("{", "not valid JSON: Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1)"),
], ids=["list", "invalid"])
@pytest.mark.parametrize("command", ["solve", "stability", "competitor"])
def test_exit_code_2_on_a_file_that_holds_no_json_object(command, text, message, tmp_path,
                                                         capsys):
    # with the retired --seed flag, stability on a list used to die with a TypeError traceback
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    argv = {"solve": ["solve", "--in", str(bad)],
            "stability": ["stability", "--config", str(bad)],
            "competitor": ["competitor", "--in", str(_with_path(tmp_path / "tn.json")),
                           "--opt", str(_with_path(tmp_path / "topt.json")),
                           "--config", str(bad)]}[command]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=bad)}\n"


def test_svg_render(tmp_path):
    inst = write_instance(tmp_path / "i.json")
    out = tmp_path / "o.json"
    svg = tmp_path / "o.svg"
    assert cli.main(["--out", str(out), "solve", "--in", str(inst),
                     "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert 'width="1000" height="1000"' in text
    assert text.count("<circle") == 3
    assert text.count("<line") >= 2


def _trial_config() -> dict:
    return {
        "alpha": 0.6, "dimension": 2,
        "mu_minus": {"kind": "points",
                     "atoms": [{"point": [0.0, -1.0], "mass": 1.0}],
                     "perturbation": 0.0},
        "mu_plus": {"kind": "points",
                    "atoms": [{"point": [0.0, 1.0], "mass": 0.5},
                              {"point": [1.0, 1.0], "mass": 0.5}],
                    "perturbation": 1.0},
        "schedule": [1, 2, 4, 8],
    }


def _set(doc: dict, path: tuple, value) -> dict:
    *keys, last = path
    inner = doc
    for key in keys:
        inner = inner[key]
    inner[last] = value
    return doc


WRONG_TYPE = "has a value of the wrong type or shape"


@pytest.mark.parametrize("path, value, field", [
    (("mu_minus", 0, "point"), 1.0, "mu_minus[0].point"),
    (("dimension",), [2], "dimension"),
    (("mu_plus", 0, "mass"), [1.0], "mu_plus[0].mass"),
    (("path",), {"vertices": [1, 2], "edges": [[0, 1, 1.0]]}, "path.vertices[0]"),
    # a JSON number is never rounded, and a string or a boolean is no number
    (("dimension",), 2.9, "dimension"),
    (("alpha",), "0.5", "alpha"),
    (("mu_minus", 0, "mass"), True, "mu_minus[0].mass"),
    (("mu_minus", 0, "mass"), "1.0", "mu_minus[0].mass"),
    (("mu_plus", 0, "point"), ["0", True], "mu_plus[0].point"),
    (("path",), {"vertices": [[-1.0, 2.0], [1.0, 2.0], [0.0, 0.0]], "edges": [[0.9, 1.7, 1.0]]},
     "path.edges[0]"),
], ids=["point", "dimension", "mass", "vertices", "dimension-float", "alpha-string",
        "mass-bool", "mass-string", "point-string-bool", "edge-float-ends"])
def test_exit_code_2_on_a_wrongly_typed_instance_field(path, value, field, tmp_path, capsys):
    doc = json.loads(write_instance(tmp_path / "i.json").read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_set(doc, path, value)), encoding="utf-8")
    assert cli.main(["decompose" if path == ("path",) else "solve", "--in", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: field '{field}' {WRONG_TYPE}\n"


def _atoms_in_3d(cfg: dict) -> dict:
    for side in ("mu_minus", "mu_plus"):
        for atom in cfg[side]["atoms"]:
            atom["point"] = atom["point"] + [0.0]
    return cfg


def _masses_times(factor: float):
    def edit(cfg: dict) -> dict:
        for side in ("mu_minus", "mu_plus"):
            for atom in cfg[side]["atoms"]:
                atom["mass"] *= factor
        return cfg
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda cfg: _set(cfg, ("schedule",), 4),
     "field 'schedule' must be a list of nonnegative integers"),
    (lambda cfg: _set(cfg, ("mu_plus", "atoms", 0, "point"), 5),
     f"field 'mu_plus.atoms[0].point' {WRONG_TYPE}"),
    (lambda cfg: _set(cfg, ("mu_minus",), {"kind": "cantor", "origin": 5}),
     f"field 'mu_minus.origin' {WRONG_TYPE}"),
    (lambda cfg: _set(cfg, ("optimality_tol",), [1e-4]), f"field 'optimality_tol' {WRONG_TYPE}"),
    (lambda cfg: _set(cfg, ("dimension",), 2.9), f"field 'dimension' {WRONG_TYPE}"),
    (lambda cfg: _set(cfg, ("seed",), 1.5), f"field 'seed' {WRONG_TYPE}"),
    (lambda cfg: _set(cfg, ("alpha",), "0.6"), f"field 'alpha' {WRONG_TYPE}"),
    (lambda cfg: _set(cfg, ("mu_minus", "atoms", 0, "mass"), True),
     f"field 'mu_minus.atoms[0].mass' {WRONG_TYPE}"),
    # a 3-D config over 2-D atoms used to run the trial as if it were 3-D
    (lambda cfg: _set(cfg, ("dimension",), 3), "field 'mu_minus' is 2-d but 'dimension' is 3"),
    # a 2-D config over 3-D atoms failed with "grid rasterization is planar only"
    (_atoms_in_3d, "field 'mu_minus' is 3-d but 'dimension' is 2"),
    # a boolean is no integer: this trial used to run and report "n": true
    (lambda cfg: _set(cfg, ("schedule",), [True, 2]),
     "field 'schedule' must be a list of nonnegative integers"),
    # a trial whose marginals were both negative ran with source and sink swapped
    (_masses_times(-1.0), "field 'mu_minus.atoms[0].mass' must be nonnegative"),
    (lambda cfg: _set(cfg, ("mu_minus", "atoms", 0, "mass"), float("inf")),
     "field 'mu_minus.atoms[0].mass' must be finite"),
    # the trial used to fail with "points must share one dimension"
    (lambda cfg: _set(cfg, ("mu_plus", "atoms", 1, "point"), [1.0, 1.0, 0.0]),
     "field 'mu_plus.atoms[1].point' has wrong dimension"),
    (lambda cfg: _set(cfg, ("mu_plus", "atoms", 1), {"mass": 0.5}),
     "field 'mu_plus.atoms[1]' needs 'point' and 'mass'"),
    # an unbalanced trial used to reach the oracle before it failed
    (lambda cfg: _set(cfg, ("mu_plus", "atoms", 1, "mass"), 0.25),
     "field 'mu_plus' does not balance 'mu_minus' within 1e-9"),
    # zero masses balance: the trial used to fail with "min() arg is an empty sequence"
    (_masses_times(0.0), "field 'mu_minus' carries no mass"),
    (lambda cfg: _set(cfg, ("mu_minus",), {"kind": "cantor", "mass": 0.0}),
     "field 'mu_minus.mass' must be positive"),
    (lambda cfg: _set(cfg, ("mu_minus",), {"kind": "cantor", "mass": -1.0}),
     "field 'mu_minus.mass' must be positive"),
    # a NaN perturbation or length, or a zero axis, failed with "cannot
    # convert float NaN to integer"
    (lambda cfg: _set(cfg, ("mu_plus", "perturbation"), float("nan")),
     "field 'mu_plus.perturbation' must be finite"),
    (lambda cfg: _set(cfg, ("mu_minus",), {"kind": "cantor", "length": float("nan")}),
     "field 'mu_minus.length' must be finite"),
    (lambda cfg: _set(cfg, ("mu_minus",), {"kind": "cantor", "axis": [0.0, 0.0]}),
     "field 'mu_minus.axis' must be nonzero"),
    # each marginal's fields are named under its side: both used to read 'atoms[0].point'
    (lambda cfg: _set(cfg, ("mu_plus", "atoms", 0, "point"), [0.0, float("inf")]),
     "field 'mu_plus.atoms[0].point' must be finite"),
    (lambda cfg: _set(cfg, ("mu_minus", "atoms", 0, "point"), [0.0, float("inf")]),
     "field 'mu_minus.atoms[0].point' must be finite"),
    (lambda cfg: _set(cfg, ("mu_plus",), {"kind": "cantor", "mass": 0.0}),
     "field 'mu_plus.mass' must be positive"),
], ids=["schedule", "atom-point", "cantor-origin", "optimality-tol", "dimension-float",
        "seed-float", "alpha-string", "mass-bool", "3d-config-2d-atoms", "2d-config-3d-atoms",
        "schedule-bool", "negative-masses", "mass-inf", "mixed-dimensions", "atom-no-point",
        "unbalanced", "zero-masses", "cantor-mass-zero", "cantor-mass-negative",
        "perturbation-nan", "cantor-length-nan", "cantor-axis-zero", "point-inf",
        "minus-point-inf", "plus-cantor-mass-zero"])
def test_exit_code_2_on_a_bad_trial_config_field(edit, message, tmp_path, capsys, monkeypatch):
    # every field is checked when the config is read, before any solve
    monkeypatch.setattr(optimizer, "brute_force_many", None)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(edit(_trial_config())), encoding="utf-8")
    assert cli.main(["--out", str(tmp_path / "r.json"), "stability", "--config", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_stability_cli_deterministic(tmp_path):
    cfg = _trial_config()
    cfg["seed"] = 7
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / f"{tag}.json"
        csv = tmp_path / f"{tag}.csv"
        rc = cli.main(["--out", str(out), "stability",
                       "--config", str(p), "--csv", str(csv)])
        assert rc == 0
        outs.append((out.read_bytes(), csv.read_bytes()))
    assert outs[0] == outs[1]


def test_a_solve_and_a_trial_leave_scipy_unimported(tmp_path):
    # only the grid LP of flatnorm --against needs scipy, and importing it
    # costs more than importing the rest of the package
    inst = write_instance(tmp_path / "i.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_set(_trial_config(), ("schedule",), [1, 2])), encoding="utf-8")
    script = (
        "import sys\n"
        "from trafficpaths import cli\n"
        f"assert cli.main(['--out', {str(tmp_path / 'o.json')!r}, 'solve', '--in', {str(inst)!r}]) == 0\n"
        # two levels are too few to converge: exit 1 reports the verdicts
        f"assert cli.main(['--out', {str(tmp_path / 'r.json')!r}, 'stability', '--config', {str(cfg)!r}]) == 1\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.sparse'))))\n"
    )
    src = str(pathlib.Path(trafficpaths.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _competitor_files(tmp_path, **config):
    tn = {
        "dimension": 2, "alpha": 0.6, "ambient_radius": 4.0,
        "mu_minus": [{"point": [-1.0, 0.0], "mass": 1.0}],
        "mu_plus": [{"point": [1.0, 0.0], "mass": 1.0}],
        "path": {"vertices": [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
                 "edges": [[0, 1, 1.0], [1, 2, 1.0]]},
    }
    topt = dict(tn)
    topt["path"] = {"vertices": [[-1.0, 0.0], [1.0, 0.0]],
                    "edges": [[0, 1, 1.0]]}
    cc = {"Delta": 0.8, "eps1": 1e-8, "eps2": 1e-5, "delta": 0.01,
          "N_minus": 1, "N_plus": 1, "cover_radius": 5e-4}
    cc.update(config)
    ptn, ptop, pcc = tmp_path / "tn.json", tmp_path / "topt.json", tmp_path / "cc.json"
    ptn.write_text(json.dumps(tn), encoding="utf-8")
    ptop.write_text(json.dumps(topt), encoding="utf-8")
    pcc.write_text(json.dumps(cc), encoding="utf-8")
    return ptn, ptop, pcc


@pytest.mark.parametrize("field, value", [
    ("Delta", [1]), ("N_plus", [1]), ("cover_radius", [1]),
    ("N_minus", 1.7), ("N_plus", True), ("Delta", "0.8"),
], ids=["Delta", "N_plus", "cover_radius", "N_minus-float", "N_plus-bool", "Delta-string"])
def test_exit_code_2_on_a_wrongly_typed_competitor_field(field, value, tmp_path, capsys):
    ptn, ptop, pcc = _competitor_files(tmp_path, **{field: value})
    assert cli.main(["--out", str(tmp_path / "report.json"), "competitor", "--in", str(ptn),
                     "--opt", str(ptop), "--config", str(pcc)]) == 2
    assert capsys.readouterr().err == f"error: field '{field}' {WRONG_TYPE}\n"


@pytest.mark.parametrize("radius", [0, -1e-3])
def test_exit_code_2_on_a_cover_radius_that_is_not_positive(radius, tmp_path, capsys):
    # the radius used to reach geometry.Ball, whose message did not name the field
    ptn, ptop, pcc = _competitor_files(tmp_path, cover_radius=radius)
    assert cli.main(["--out", str(tmp_path / "report.json"), "competitor", "--in", str(ptn),
                     "--opt", str(ptop), "--config", str(pcc)]) == 2
    assert capsys.readouterr().err == "error: field 'cover_radius' must be positive\n"


def test_competitor_cli(tmp_path):
    ptn, ptop, pcc = _competitor_files(tmp_path)
    out = tmp_path / "report.json"
    rc = cli.main(["--out", str(out), "competitor", "--in", str(ptn),
                   "--opt", str(ptop), "--config", str(pcc)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert doc["ledger"]["competitor_cost"] < doc["ledger"]["cost_t_n"]


def test_solve_at_alpha_zero_reports_steiner_length(tmp_path):
    # alpha = 0 is the Steiner mode: the Y instance's cost is its Fermat length
    inst = write_instance(tmp_path / "i.json", alpha=0.0)
    costs = {}
    for method in ("oracle", "local"):
        out = tmp_path / f"{method}.json"
        assert cli.main(["--out", str(out), "solve", "--in", str(inst),
                         "--method", method]) == 0
        costs[method] = json.loads(out.read_text(encoding="utf-8"))["cost"]
    assert abs(costs["oracle"] - (2.0 + np.sqrt(3.0))) <= 1e-9
    assert costs["local"] >= costs["oracle"] - 1e-9


def test_decompose_of_an_alpha_zero_solve_reports_its_cost(tmp_path):
    # decompose used to exit 2 on the alpha = 0 file solve itself writes
    inst = write_instance(tmp_path / "i.json", alpha=0.0)
    solved, out = tmp_path / "s.json", tmp_path / "d.json"
    assert cli.main(["--out", str(solved), "solve", "--in", str(inst)]) == 0
    assert cli.main(["--out", str(out), "decompose", "--in", str(solved)]) == 0
    cost = json.loads(solved.read_text(encoding="utf-8"))["cost"]
    assert json.loads(out.read_text(encoding="utf-8"))["path_cost"] == cost


def test_decompose_reports_the_cost_at_the_alpha_flag(tmp_path):
    # --alpha used to be ignored here: path_cost was the file's M_0.5, not M_1
    solved, out = tmp_path / "s.json", tmp_path / "d.json"
    assert cli.main(["--out", str(solved), "solve", "--in",
                     str(write_instance(tmp_path / "i.json"))]) == 0
    assert cli.main(["--out", str(out), "decompose", "--alpha", "1.0",
                     "--in", str(solved)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    path = cli.load_instance(str(solved)).path
    assert doc["path_cost"] == doc["path_mass"] == float("%.12g" % currents.mass(path))
    assert doc["path_cost"] != float("%.12g" % currents.alpha_mass(path, 0.5))


@pytest.mark.parametrize("command", ["solve", "decompose", "competitor"])
def test_exit_code_2_on_an_alpha_flag_off_the_unit_interval(command, tmp_path, capsys):
    ptn, ptop, pcc = _competitor_files(tmp_path)
    argv = {"solve": ["solve", "--in", str(ptn)],
            "decompose": ["decompose", "--in", str(ptn)],
            "competitor": ["competitor", "--in", str(ptn), "--opt", str(ptop),
                           "--config", str(pcc)]}[command]
    argv[1:1] = ["--alpha", "1.5"]
    assert cli.main(["--out", str(tmp_path / "o.json")] + argv) == 2
    assert capsys.readouterr().err == "error: --alpha must lie in [0, 1]\n"


def test_dim_flag_is_gone(tmp_path):
    inst = write_instance(tmp_path / "i.json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--dim", "2", "solve", "--in", str(inst)])
    assert exc.value.code == 2


def test_every_flag_belongs_to_the_command_that_reads_it():
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
    assert flags == {"out"}
    pairs = {(command, a.dest) for command, p in sub.choices.items() for a in p._actions
             if a.dest in ("alpha", "tol", "seed")}
    assert pairs == {("solve", "alpha"), ("decompose", "alpha"), ("competitor", "alpha"),
                     ("solve", "tol")}


_COMMANDS = {
    "solve": ["solve", "--in", "{tn}"],
    "decompose": ["decompose", "--in", "{tn}"],
    "flatnorm": ["flatnorm", "--in", "{tn}", "--against", "{topt}"],
    "stability": ["stability", "--config", "{cfg}"],
    "competitor": ["competitor", "--in", "{tn}", "--opt", "{topt}", "--config", "{cc}"],
}
_FLAGS = {"alpha": ["--alpha", "0.3"], "tol": ["--tol", "1e-6"], "seed": ["--seed", "7"]}
# the (command, flag) pairs that used to be accepted before the subcommand and read by nothing
_UNREAD = [("flatnorm", "alpha"), ("stability", "alpha"), ("decompose", "tol"),
           ("flatnorm", "tol"), ("stability", "tol"), ("competitor", "tol")] + \
          [(command, "seed") for command in _COMMANDS]
_MISPLACED = [(command, flag, where) for command, flag in _UNREAD
              for where in ("before", "after")] + \
             [(command, "alpha", "before") for command in ("solve", "decompose", "competitor")] + \
             [("solve", "tol", "before")]


@pytest.mark.parametrize("command, flag, where", _MISPLACED,
                         ids=["-".join(case) for case in _MISPLACED])
def test_exit_code_2_on_a_flag_the_command_does_not_read(command, flag, where, tmp_path):
    # "--alpha 0.3 ... stability" used to run and report the config's alpha of 0.6
    ptn, ptop, pcc = _competitor_files(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_trial_config()), encoding="utf-8")
    files = {"tn": ptn, "topt": ptop, "cc": pcc, "cfg": cfg}
    head, *rest = (a.format(**files) for a in _COMMANDS[command])
    argv = _FLAGS[flag] + [head] + rest if where == "before" else [head] + _FLAGS[flag] + rest
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(out)] + argv)
    assert exc.value.code == 2
    assert not out.exists()


def test_exit_code_2_on_a_tol_flag_for_local_search(tmp_path, capsys):
    # local search certifies at its own LOCAL_TOL: --tol used to be ignored here
    inst = write_instance(tmp_path / "i.json")
    out = tmp_path / "o.json"
    assert cli.main(["--out", str(out), "solve", "--in", str(inst), "--method", "local",
                     "--tol", "1e-6"]) == 2
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


def _differing_optimal_file(ptop, field):
    doc = json.loads(ptop.read_text(encoding="utf-8"))
    if field == "dimension":
        doc["dimension"] = 3
        for atom in doc["mu_minus"] + doc["mu_plus"]:
            atom["point"].append(0.0)
        for v in doc["path"]["vertices"]:
            v.append(0.0)
    else:
        doc["alpha"] = 0.9
    ptop.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("field", ["dimension", "alpha"])
def test_exit_code_2_on_competitor_files_that_differ(field, tmp_path, capsys):
    # another dimension used to fail on broadcasting shapes (2,) and (3,), another
    # alpha in --opt was ignored
    ptn, ptop, pcc = _competitor_files(tmp_path)
    _differing_optimal_file(ptop, field)
    assert cli.main(["--out", str(tmp_path / "report.json"), "competitor", "--in", str(ptn),
                     "--opt", str(ptop), "--config", str(pcc)]) == 2
    assert capsys.readouterr().err == f"error: field '{field}' differs between the two files\n"


def test_competitor_alpha_flag_makes_both_files_agree(tmp_path):
    ptn, ptop, pcc = _competitor_files(tmp_path)
    same, flagged = tmp_path / "same.json", tmp_path / "flagged.json"
    assert cli.main(["--out", str(same), "competitor", "--in", str(ptn), "--opt", str(ptop),
                     "--config", str(pcc)]) == 0
    _differing_optimal_file(ptop, "alpha")
    assert cli.main(["--out", str(flagged), "competitor", "--alpha", "0.6", "--in", str(ptn),
                     "--opt", str(ptop), "--config", str(pcc)]) == 0
    assert flagged.read_bytes() == same.read_bytes()


@pytest.mark.parametrize("path", [
    {"vertices": [], "edges": []},
    {"vertices": [[-1.0, 0.0], [1.0, 0.0]], "edges": [[0, 1, 1.0], [1, 0, 1.0]]},
], ids=["empty", "cancelling"])
def test_exit_code_2_on_an_optimal_path_without_boundary(path, tmp_path, capsys):
    # _auto_covers used to take min() of an empty sequence here
    ptn, ptop, pcc = _competitor_files(tmp_path)
    doc = json.loads(ptop.read_text(encoding="utf-8"))
    doc["path"] = path
    ptop.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["--out", str(tmp_path / "report.json"), "competitor", "--in", str(ptn),
                     "--opt", str(ptop), "--config", str(pcc)]) == 2
    assert capsys.readouterr().err == ("error: field 'path' (in the optimal instance) must "
                                       "have a boundary of at least two atoms\n")
