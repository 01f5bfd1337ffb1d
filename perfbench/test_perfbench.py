"""Self-checks of the benchmark: python3 -m pytest perfbench

Each workload runs at its smallest size (one operation of each kind, one
pass); the package's own tests live in tests/ and do not collect this file.
"""

import io
import json

import pytest

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_run(workload, trace):
    out = io.StringIO()
    result = run.run(workload, seed=0, seconds=0.0, trace=trace, small=True, out=out)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == json.loads(json.dumps(result))
    return result, lines


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    result, lines = small_run(workload, trace)
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for spec in specs:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.startswith(f"{spec['name']} ") and line.endswith(f" {spec['unit']}")
                   for line in lines), spec["name"]
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
    assert any(line.startswith("fail_ratio ") for line in lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_corrupted_answer_is_counted_as_failed(monkeypatch):
    pkg = run.load_package()
    add = pkg.currents.add

    def shifted(t1, t2):
        t = add(t1, t2)
        verts = t.vertices.copy()
        verts[0] += 1e-3
        return pkg.currents.TrafficPath(verts, t.edges)

    monkeypatch.setattr(pkg.currents, "add", shifted)
    result, lines = small_run("surgery", False)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(line.startswith("FAILED surgery.d2.0.add: ") and "boundary" in line
               for line in lines)
    ratio = [line for line in lines if line.startswith("fail_ratio ")][0]
    assert float(ratio.split()[1]) == pytest.approx(result["failed"] / result["attempted"],
                                                    rel=1e-5)


def test_layer_self_times_fit_in_the_traced_wall():
    result, _ = small_run("surgery", True)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    total = sum(values[f"{m}.self_s"] for m in run.MODULES)
    assert 0 < total <= values["trace.wall_s"]
    assert values["currents.overlay.calls"] > 0
    assert values["geometry.segment_sphere_params.calls"] > 0
    # every wrapper is removed again, by-name imports included
    pkg = run.load_package()
    for module in (pkg.geometry, pkg.currents, pkg.decomposition):
        assert not hasattr(module.segment_sphere_params, "__wrapped__")
    assert not hasattr(pkg.currents.overlay, "__wrapped__")
