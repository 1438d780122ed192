"""End-to-end runs of the command line entry points."""

import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from polysl2.cli import main


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# config sha256: ")
    return lines[0], list(csv.reader(lines[1:]))


SPECTRUM_CFG = {
    "model": "three_boson",
    "solver": "all",
    "three_boson": {"omega1": 1.0, "omega2": 1.0, "omega3": 2.0, "g": 1.0},
    "blocks": {"ncut": 1},
}


def test_spectrum_outputs_and_digest(tmp_path):
    cfg = write_config(tmp_path, SPECTRUM_CFG)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    digest = hashlib.sha256(cfg.read_bytes()).hexdigest()
    comment, rows = read_rows(out / "spectrum.csv")
    assert comment == f"# config sha256: {digest}"
    assert rows[0] == [
        "block_id",
        "v",
        "E_exact",
        "E_variational",
        "E_sl2ref",
        "abs_err_var",
        "abs_err_sl2",
        "alpha_selected",
        "residual",
    ]
    data = json.loads((out / "spectrum.json").read_text())
    assert data["config_sha256"] == digest
    assert len(data["blocks"]) == 7
    assert data["tolerances"]["alpha_bisection_width"] == 1e-14


def test_spectrum_rows_match_closed_forms(tmp_path):
    cfg = write_config(tmp_path, SPECTRUM_CFG)
    out = tmp_path / "out"
    main(["spectrum", "--config", str(cfg), "--out", str(out)])
    _, rows = read_rows(out / "spectrum.csv")
    by_block = {}
    for row in rows[1:]:
        by_block.setdefault(row[0], []).append(row)
    # resonant k=0, m=2 triple: 4 and 4 +- sqrt(6)
    got = sorted(float(r[2]) for r in by_block["k0_m2"])
    want = sorted([4.0 - math.sqrt(6), 4.0, 4.0 + math.sqrt(6)])
    assert got == pytest.approx(want, abs=1e-10)
    # single-level blocks carry one exact row
    assert len(by_block["k0_m0"]) == 1
    assert float(by_block["k0_m0"][0][5]) == 0.0
    # two-level blocks are variationally exact
    for r in by_block["k0_m1"]:
        assert float(r[5]) <= 1e-8


def test_spectrum_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SPECTRUM_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["spectrum", "--config", str(cfg), "--out", str(out1)])
    main(["spectrum", "--config", str(cfg), "--out", str(out2)])
    for name in ("spectrum.csv", "spectrum.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_spectrum_thread_pool_matches_serial(tmp_path):
    cfg = write_config(tmp_path, SPECTRUM_CFG)
    out1, out2 = tmp_path / "serial", tmp_path / "pooled"
    main(["spectrum", "--config", str(cfg), "--out", str(out1)])
    main(["spectrum", "--config", str(cfg), "--out", str(out2), "--jobs", "3"])
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()


def test_unknown_keys_are_config_errors(tmp_path):
    bad = dict(SPECTRUM_CFG, typo_section={"x": 1})
    cfg = write_config(tmp_path, bad)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    nested = json.loads(json.dumps(SPECTRUM_CFG))
    nested["three_boson"]["omega4"] = 1.0
    cfg2 = write_config(tmp_path, nested, "n.json")
    assert main(["spectrum", "--config", str(cfg2), "--out", str(tmp_path)]) == 2


def test_unreadable_or_invalid_config(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["spectrum", "--config", str(missing), "--out", str(tmp_path)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["spectrum", "--config", str(broken), "--out", str(tmp_path)]) == 2
    assert main(["spectrum", "--out", str(tmp_path)]) == 2


def test_numeric_failure_exit_code(tmp_path):
    # psi dips negative strictly inside the candidate block
    cfg = write_config(
        tmp_path,
        {
            "model": "custom_psi",
            "solver": "exact",
            "custom_psi": {
                "leading": -1.0,
                "roots": [0.0, 2.0, 3.0],
                "l0": 0.0,
                "a": 1.0,
                "g": 1.0,
            },
        },
    )
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_verify_passes_clean(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for ln in lines if ln.endswith("PASS")) == 6
    assert lines[-1].endswith("all checks passed")


def test_verify_catches_injected_fault(tmp_path, capsys):
    cfg = write_config(tmp_path, {"inject_fault": {"psi_root_shift": 0.05}})
    assert main(["verify", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert out.splitlines()[0].startswith("commutator closure")


def test_dynamics_fock_run(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": "three_boson",
            "three_boson": {"omega1": 1.0, "omega2": 1.0, "omega3": 2.0, "g": 0.7},
            "dynamics": {"fock": [0, 0, 1], "tmax": 30.0, "samples": 2000},
        },
    )
    out = tmp_path / "dyn"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "dynamics.json").read_text())
    assert data["oscillating"] is True
    assert data["dominant_block"] == "k0_m1"
    assert data["dominant_gap_period"] == pytest.approx(2 * math.pi / 1.4, rel=1e-12)
    assert data["carrier_period"] == pytest.approx(2 * math.pi / 1.4, rel=0.05)
    assert data["collapse_time"] is None
    assert data["incommensurability"] is None
    assert data["tail_deficit"] == 0.0
    comment, rows = read_rows(out / "dynamics.csv")
    assert rows[0] == ["t", "n3_mean", "envelope"]
    assert len(rows) == 1 + 2000
    assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)


def test_dynamics_sample_floor(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": "three_boson",
            "three_boson": {"omega1": 1.0, "omega2": 1.0, "omega3": 2.0, "g": 0.7},
            "dynamics": {"fock": [0, 0, 1], "tmax": 5.0, "samples": 500},
        },
    )
    assert main(["dynamics", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("fock", 5),
        ("fock", "abc"),
        ("fock", [-1, 0, 0]),
        ("fock", [1.5, 0, 0]),
        ("fock", [True, 0, 0]),
        ("tmax", "nan"),
        ("tmax", float("nan")),
        ("tmax", float("inf")),
        ("tmax", [1.0]),
    ],
)
def test_dynamics_malformed_input_is_a_config_error(tmp_path, key, value, capsys):
    dyn = {"fock": [0, 0, 1], "tmax": 5.0, "samples": 1000, key: value}
    cfg = write_config(
        tmp_path,
        {
            "model": "three_boson",
            "three_boson": {"omega1": 1.0, "omega2": 1.0, "omega3": 2.0, "g": 0.7},
            "dynamics": dyn,
        },
    )
    out = tmp_path / "dyn"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: dynamics.{key} must be" in capsys.readouterr().err
    assert not (out / "dynamics.csv").exists()


def test_dynamics_zero_tmax_runs(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": "three_boson",
            "three_boson": {"omega1": 1.0, "omega2": 1.0, "omega3": 2.0, "g": 0.7},
            "dynamics": {
                "alpha": [0.3, 0.2, 0.8], "ncut": 8, "tmax": 0, "samples": 1000
            },
        },
    )
    out = tmp_path / "dyn"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "dynamics.json").read_text())
    assert data["oscillating"] is False


def test_dynamics_without_any_weighted_block_is_a_numeric_failure(tmp_path):
    # every amplitude inside a one-photon cube underflows at |alpha|^2 = 1e4
    cfg = write_config(
        tmp_path,
        {
            "model": "three_boson",
            "three_boson": {"omega1": 1.0, "omega2": 1.0, "omega3": 2.0, "g": 0.7},
            "dynamics": {"alpha": [0.0, 0.0, 100.0], "ncut": 1, "samples": 1000},
        },
    )
    with pytest.warns(UserWarning, match="tail deficit"):
        code = main(["dynamics", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 3


def test_meanfield_run(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": "sl2_limit",
            "sl2_limit": {"j": 1.0, "a": 0.5, "g": 1.0},
            "meanfield": {"p0": 0.4, "q0": 0.0, "tspan": 5.0, "dt": 0.01},
        },
    )
    out = tmp_path / "mf"
    assert main(["meanfield", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "meanfield.json").read_text())
    assert data["block_id"] == "sl2_j1.0"
    assert data["clamped"] is False
    assert data["energy_drift_rel"] <= 1e-7
    _, rows = read_rows(out / "meanfield.csv")
    assert rows[0] == ["t", "p", "q", "energy"]
    assert len(rows) == 1 + 501
    assert float(rows[1][1]) == pytest.approx(0.4)


@pytest.mark.parametrize("key, value", [("p0", "nan"), ("dt", "inf")])
def test_meanfield_non_finite_input_is_refused(tmp_path, key, value):
    mf = {"p0": 0.4, "q0": 0.0, "tspan": 5.0, "dt": 0.01, key: value}
    cfg = write_config(
        tmp_path,
        {
            "model": "sl2_limit",
            "sl2_limit": {"j": 1.0, "a": 0.5, "g": 1.0},
            "meanfield": mf,
        },
    )
    out = tmp_path / "mf"
    assert main(["meanfield", "--config", str(cfg), "--out", str(out)]) == 3
    assert not (out / "meanfield.csv").exists()


def test_spectrum_large_block_stays_in_norm_bound(tmp_path):
    from polysl2.solver import build_hamiltonian
    from polysl2.three_boson import (
        BlockLabel,
        ThreeBosonParams,
        block_constants,
        build_model_block,
    )

    cfg = write_config(
        tmp_path,
        {
            "model": "three_boson",
            "three_boson": {"omega1": 1.0, "omega2": 0.9, "omega3": 2.2, "g": 0.8},
            "blocks": {"labels": [{"k": 0, "m": 180}]},
        },
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    label = BlockLabel(0, 180)
    block, psi = build_model_block(label)
    params = block_constants(label, ThreeBosonParams(1.0, 0.9, 2.2, 0.8))
    bound = build_hamiltonian(block, psi, params).norm_bound()
    _, rows = read_rows(out / "spectrum.csv")
    energies = [float(r[3]) for r in rows[1:]]
    assert len(energies) == block.dim == 181
    assert all(abs(e) <= bound for e in energies)
