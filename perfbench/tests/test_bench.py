"""Tests of the benchmark itself: workload generator, checker, span recorder.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import run
import tracer
import workloads
from polysl2 import cli
from polysl2.three_boson import enumerate_blocks

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

PARAMS = {"omega1": 1.0, "omega2": 1.0, "omega3": 2.0, "g": 1.0}
SMALL = {
    "spectrum": (
        "spectrum",
        {
            "model": "three_boson",
            "solver": "all",
            "three_boson": PARAMS,
            "blocks": {"labels": [{"k": 0, "m": m, "sign": 1} for m in range(5)]
                       + [{"k": 2, "m": 3, "sign": -1}]},
        },
    ),
    "collapse": (
        "dynamics",
        {
            "model": "three_boson",
            "three_boson": PARAMS,
            "dynamics": {"alpha": [0.0, 0.0, 3.0], "ncut": 30, "tmax": 60.0, "samples": 2000},
        },
    ),
    "meanfield": (
        "meanfield",
        {
            "model": "three_boson",
            "three_boson": PARAMS,
            "blocks": {"labels": [{"k": 0, "m": 4}]},
            "meanfield": {"p0": 0.8, "q0": 0.3, "tspan": 2.0, "dt": 0.002},
        },
    ),
}


def _produce(tmp_path, workload):
    command, cfg = SMALL[workload]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    return cfg, config, out


@pytest.fixture(params=sorted(SMALL))
def produced(request, tmp_path):
    return (request.param, *_produce(tmp_path, request.param))


def test_clean_outputs_pass(produced):
    workload, cfg, config, out = produced
    health = checker.check(workload, cfg, config, out, seed=0)
    assert all(v >= 0 for v in health.values())


def _rewrite_csv(path, row, col, fn):
    lines = path.read_text().split("\n")
    cells = lines[2 + row].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines))


def test_shifted_exact_energy_fails(tmp_path):
    cfg, config, out = _produce(tmp_path, "spectrum")
    _rewrite_csv(out / "spectrum.csv", 7, 2, lambda e: e + 1e-3)
    with pytest.raises(checker.CheckFailure, match="Sturm oracle"):
        checker.check("spectrum", cfg, config, out, seed=0)


def test_variational_beyond_norm_bound_fails(tmp_path):
    cfg, config, out = _produce(tmp_path, "spectrum")
    _rewrite_csv(out / "spectrum.csv", 7, 3, lambda e: 1e3 * (abs(e) + 1.0))
    with pytest.raises(checker.CheckFailure, match="norm bound"):
        checker.check("spectrum", cfg, config, out, seed=0)


def test_truncated_dynamics_csv_fails(tmp_path):
    cfg, config, out = _produce(tmp_path, "collapse")
    csv = out / "dynamics.csv"
    lines = csv.read_text().split("\n")
    csv.write_text("\n".join(lines[:1000]) + "\n")
    with pytest.raises(checker.CheckFailure, match="rows"):
        checker.check("collapse", cfg, config, out, seed=0)


def test_meanfield_drift_fails(tmp_path):
    cfg, config, out = _produce(tmp_path, "meanfield")
    path = out / "meanfield.json"
    doc = json.loads(path.read_text())
    doc["energy_drift_rel"] = 1e-5
    path.write_text(json.dumps(doc))
    with pytest.raises(checker.CheckFailure, match="drift"):
        checker.check("meanfield", cfg, config, out, seed=0)


def test_wrong_digest_fails(tmp_path):
    cfg, config, out = _produce(tmp_path, "meanfield")
    config.write_text(json.dumps(cfg) + " ")
    with pytest.raises(checker.CheckFailure, match="digest"):
        checker.check("meanfield", cfg, config, out, seed=0)


def _child(tmp_path, tag, command, config, traced):
    out = tmp_path / f"out_{tag}"
    result = tmp_path / f"result_{tag}.json"
    opts = ["--trace", str(tmp_path / f"spans_{tag}.json")] if traced else []
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(result), *opts, "--",
         command, "--config", str(config), "--out", str(out)],
        env=env, check=True, timeout=120,
    )
    res = json.loads(result.read_text())
    assert res["exit"] == 0 and res["error"] is None
    return out


@pytest.mark.parametrize("workload", ["spectrum", "collapse"])
def test_traced_outputs_byte_identical(tmp_path, workload):
    command, cfg = SMALL[workload]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    plain = _child(tmp_path, "plain", command, config, traced=False)
    traced = _child(tmp_path, "traced", command, config, traced=True)
    assert checker.output_digests(plain) == checker.output_digests(traced)
    rec = json.loads((tmp_path / "spans_traced.json").read_text())
    summ = tracer.summarize(rec)
    assert rec["absent"] == []
    assert summ["cli.main"]["calls"] == 1
    assert all(p < i for i, p in enumerate(rec["parent"]))


def test_self_time_subtracts_children():
    rec = {
        "names": ["a", "b"],
        "name": [0, 1, 1],
        "start": [0.0, 1.0, 3.0],
        "end": [10.0, 2.0, 5.0],
        "parent": [-1, 0, 0],
    }
    summ = tracer.summarize(rec)
    assert summ["a"] == {"calls": 1, "s": 10.0, "self_s": 7.0}
    assert summ["b"]["calls"] == 2 and summ["b"]["s"] == 3.0


def test_missing_boundary_is_absent_not_an_error(tmp_path):
    t = tracer.Tracer()
    t.install(
        boundaries=(("variational.gone", "polysl2.variational", "no_such_function", None),),
        consumers=("polysl2.variational",),
    )
    assert t.absent == ["variational.gone"]
    rec = dict(t.record(), absent=["variational.energy_functional"])
    spans = tmp_path / "spans.json"
    spans.write_text(json.dumps(rec))
    samples = [
        {"traced": False, "ok": True, "wall_s": 1.0},
        {"traced": True, "ok": True, "wall_s": 1.1, "spans": spans, "output_bytes": 1},
    ]
    values, absent = run.per_layer(samples, {})
    assert absent == ["variational.energy_functional"]
    assert "variational.energy_functional.calls" not in values
    assert "variational.energy_functional.s" not in values
    assert values["variational.solve_alpha.calls"] == 0
    assert values["trace.overhead_s"] == pytest.approx(0.1)


def test_workloads_seed0_and_determinism():
    labels = workloads.spectrum_labels()
    expect = [{"k": lab.k, "m": lab.m, "sign": lab.sign} for lab in enumerate_blocks(5)]
    assert labels[:-2] == expect and len(expect) == 91
    assert labels[-2:] == [{"k": 0, "m": 30, "sign": 1}, {"k": 0, "m": 40, "sign": 1}]
    _, coll = workloads.make("collapse", 0)
    assert coll["dynamics"] == {"alpha": [0.0, 0.0, 5.0], "ncut": 120, "tmax": 100.0, "samples": 10001}
    _, mf = workloads.make("meanfield", 0)
    assert mf["meanfield"] == {"p0": 0.8, "q0": 0.3, "tspan": 20.0, "dt": 0.002}
    assert mf["three_boson"] == coll["three_boson"] == workloads.BASE_PARAMS
    for name in workloads.WORKLOADS:
        a, b = workloads.make(name, 7)[1], workloads.make(name, 7)[1]
        assert a == b and a != workloads.make(name, 0)[1]


def test_other_seeds_keep_the_work():
    for name in workloads.WORKLOADS:
        base = workloads.make(name, 0)[1]
        other = workloads.make(name, 3)[1]
        assert other.get("blocks") == base.get("blocks")
        for key in ("ncut", "tmax", "samples"):
            assert other.get("dynamics", {}).get(key) == base.get("dynamics", {}).get(key)
        for key in ("tspan", "dt"):
            assert other.get("meanfield", {}).get(key) == base.get("meanfield", {}).get(key)


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
