"""End-to-end runs of the command line entry points."""

import csv
import hashlib
import json
import math
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polysl2.algebra import ROOT_RTOL, build_block, sl2_block
from polysl2.cli import _CSV_ROWS, _write_csv, main
from polysl2.solver import build_hamiltonian, sl2_reference_energies
from polysl2.three_boson import (
    BlockLabel,
    ThreeBosonParams,
    block_constants,
    build_model_block,
    enumerate_blocks,
)
from polysl2.variational import variational_spectrum


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
    assert data["tolerances"]["root_detection_rtol"] == ROOT_RTOL


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


@pytest.mark.parametrize("g", [0.0, 0.7])
@pytest.mark.parametrize("solver", ["exact", "variational", "sl2_reference", "all"])
def test_spectrum_columns_follow_solver_and_coupling(tmp_path, solver, g):
    # the CSV equals rows built cell by cell from the library: an energy the
    # solver does not compute is an empty cell, an error needs both of its
    # energies, and at g = 0 no block runs the variational solver
    three_boson = dict(SPECTRUM_CFG["three_boson"], g=g)
    payload = dict(
        SPECTRUM_CFG, solver=solver, three_boson=three_boson, blocks={"ncut": 2}
    )
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    params3 = ThreeBosonParams(1.0, 1.0, 2.0, g)
    variational = solver in ("variational", "all")
    want = []
    for lab in enumerate_blocks(2):
        block, psi = build_model_block(lab)
        params = block_constants(lab, params3)
        exact = var = sl2 = [None] * block.dim
        alpha = residual = None
        if solver in ("exact", "all"):
            tri = build_hamiltonian(block, psi, params)
            lower = np.diag(tri.offdiag, -1)
            np.fill_diagonal(lower, tri.diag)
            exact = np.linalg.eigvalsh(lower, UPLO="L").tolist()
        if variational and g != 0:
            sol = variational_spectrum(build_hamiltonian(block, psi, params))
            var, alpha = list(sol.energies), sol.alpha_selected
            residual = sol.residuals[sol.alpha_roots.index(alpha)]
        if solver in ("sl2_reference", "all"):
            sl2 = sl2_reference_energies(block, params).tolist()
        for v, (ex, va, s2) in enumerate(zip(exact, var, sl2)):
            errs = [None if x is None or ex is None else abs(x - ex) for x in (va, s2)]
            row = (lab.block_id, v, ex, va, s2, *errs, alpha, residual)
            want.append(["" if x is None else str(x) for x in row])
    _, rows = read_rows(out / "spectrum.csv")
    assert rows[1:] == want
    blocks = json.loads((out / "spectrum.json").read_text())["blocks"]
    assert len(blocks) == len(enumerate_blocks(2))
    skipped = variational and g == 0
    assert all(("variational_skipped" in b) == skipped for b in blocks)


def test_jobs_flag_is_gone(tmp_path, capsys):
    cfg = write_config(tmp_path, SPECTRUM_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", str(cfg), "--out", str(tmp_path), "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_verbose_flag_is_gone(capsys):
    # verify always prints the residuals; spectrum.json holds the block sizes
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--verbose"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command, payload, message",
    [
        (
            "spectrum",
            {
                "model": "sl2_limit",
                "solver": "sl2_reference",
                "sl2_limit": {"j": 1000, "a": 1e306, "g": 1.0},
            },
            "spectrum.csv: column E_sl2ref holds -inf",
        ),
        (
            "dynamics",
            {
                "model": "three_boson",
                "three_boson": {
                    "omega1": 1e306,
                    "omega2": 1e306,
                    "omega3": 2.0,
                    "g": 1.0,
                },
                "dynamics": {
                    "alpha": [0.0, 0.0, 1.0],
                    "ncut": 10,
                    "tmax": 100.0,
                    "samples": 1000,
                },
            },
            "dynamics.csv: column n3_mean holds nan",
        ),
        (
            "meanfield",
            {
                "model": "sl2_limit",
                "sl2_limit": {"j": 3, "a": 1e308, "g": 1e308},
                "meanfield": {"p0": 0.1, "q0": 0.2, "tspan": 1.0, "dt": 0.1},
            },
            "non-finite Hamiltonian: diag[0] = -inf",
        ),
        (
            # psi(1) is about -4e318: the block must not be cut at v = 1
            "spectrum",
            {
                "model": "custom_psi",
                "custom_psi": {
                    "roots": [0.0, 5.0, 1e308],
                    "leading": -1e10,
                    "l0": 0.0,
                    "g": 1.0,
                },
            },
            "psi(l0+1) = -inf is not finite",
        ),
    ],
    ids=["spectrum", "dynamics", "meanfield", "psi-overflow"],
)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_numbers_are_never_written(
    tmp_path, capsys, command, payload, message
):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def row_wise_csv(digest, header, columns):
    """The CSV text built one row at a time, str per cell, empty past the end."""
    n = max(map(len, columns))
    cells = [col.tolist() + [None] * (n - len(col)) for col in columns]
    lines = [f"# config sha256: {digest}", ",".join(header)]
    lines += [",".join("" if x is None else str(x) for x in r) for r in zip(*cells)]
    return "\n".join(lines) + "\n"


def test_csv_columns_write_the_row_wise_text(tmp_path):
    # float, int and text arrays and a short column give the text of str()
    # per cell, rows joined by commas, short columns ending in empty cells
    rng = np.random.default_rng(5)
    floats = rng.normal(size=300) * 10.0 ** rng.integers(-300, 300, size=300)
    floats[:4] = (0.0, -0.0, 1e-320, 0.1)
    ints = np.arange(300) - 150
    text = np.array(["b", "k0_m4", "sl2_j3.5"] * 100)
    short = np.linspace(0.0, 1.0, 120)
    columns = (floats, ints, text, short)
    _write_csv(tmp_path / "x.csv", "d", ("f", "i", "t", "s"), columns)
    assert (tmp_path / "x.csv").read_text() == row_wise_csv(
        "d", ("f", "i", "t", "s"), columns
    )
    assert (tmp_path / "x.csv").read_text().splitlines()[-1].endswith("sl2_j3.5,")


def test_csv_writes_a_hundred_thousand_rows_as_the_row_wise_text(tmp_path):
    # many chunks of _CSV_ROWS rows, the last one ragged, and a short column
    # that ends inside a chunk
    n = 100_003
    assert n % _CSV_ROWS
    rng = np.random.default_rng(8)
    columns = (
        np.full(n, "k0_m4"),
        np.arange(n),
        rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n),
        np.cumsum(rng.uniform(size=n - 1000)),
    )
    header = ("block_id", "v", "x", "y")
    _write_csv(tmp_path / "x.csv", "d", header, columns)
    want = row_wise_csv("d", header, columns)
    assert (tmp_path / "x.csv").read_bytes() == want.encode()


def test_csv_names_the_first_non_finite_cell_in_reading_order(tmp_path):
    late = np.array([1.0, 2.0, np.nan])
    early = np.array([1.0, -np.inf, 3.0])
    text = np.array(["nan", "inf", "x"])  # text cells are never checked
    for columns, message in (
        ((late, early, text), "column b holds -inf"),
        ((late, np.array([0.0, 1.0, np.inf]), np.array([1.0])), "column a holds nan"),
        ((np.arange(2), np.array([5.0, np.nan]), text), "column b holds nan"),
    ):
        with pytest.raises(RuntimeError, match=f"x.csv: {message}$"):
            _write_csv(tmp_path / "x.csv", "d", ("a", "b", "c"), columns)
    assert not (tmp_path / "x.csv").exists()


def test_sl2_limit_block_is_never_truncated(tmp_path):
    # 2j + 1 = 1,021 levels, all read from j: the block is never scanned
    j, a, g = 510, 0.5, 1.0
    cfg = write_config(
        tmp_path,
        {
            "model": "sl2_limit",
            "solver": "exact",
            "sl2_limit": {"j": j, "a": a, "g": g},
        },
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_rows(out / "spectrum.csv")
    energies = [float(r[2]) for r in rows[1:]]
    omega = math.hypot(a, 2 * g)
    assert len(energies) == 2 * j + 1
    assert energies == pytest.approx(
        [(v - j) * omega for v in range(2 * j + 1)], abs=1e-9
    )


def test_truncated_custom_tower_is_a_numeric_failure(tmp_path, capsys):
    # psi(x) = x has no zero above l0 = 0: the tower never terminates
    cfg = write_config(
        tmp_path,
        {
            "model": "custom_psi",
            "solver": "exact",
            "custom_psi": {"roots": [0.0], "l0": 0.0, "g": 1.0},
        },
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: block custom: the tower from l0=0.0 does not end "
        "within 2001 levels\n"
    )
    assert not (out / "spectrum.csv").exists()


def test_custom_tower_up_to_the_block_cap_is_solved(tmp_path):
    # psi(x) = -x (x - 1001): 1,001 levels, beyond the old dmax default of 1,000
    cfg = write_config(
        tmp_path,
        {
            "model": "custom_psi",
            "solver": "exact",
            "custom_psi": {"roots": [0, 1001], "leading": -1, "l0": 0, "g": 0.5},
        },
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_rows(out / "spectrum.csv")
    assert len(rows) == 1 + 1001
    assert json.loads((out / "spectrum.json").read_text())["blocks"][0]["dim"] == 1001


def test_custom_tower_ends_at_its_own_zero(tmp_path):
    # psi(x) = -x (x - 2) (x + 1) (x + 1.5): psi(1) = 5 and psi(2) = 0.  At
    # 1e-12 of |psi(2001)|, about 1.6e13, a threshold would read psi(1) as 0
    cfg = write_config(
        tmp_path,
        {
            "model": "custom_psi",
            "solver": "exact",
            "custom_psi": {
                "roots": [0, 2, -1, -1.5],
                "leading": -1,
                "l0": 0,
                "g": 0.5,
            },
        },
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_rows(out / "spectrum.csv")
    assert len(rows) == 1 + 2


def test_sl2_block_is_the_scanned_tower():
    for twoj in range(2001):
        j = twoj / 2
        block, psi = sl2_block(j)
        assert block == build_block(psi, -j)


def test_verify_passes_clean(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    status = re.compile(r".{36} PASS  residual=\S+")
    assert sum(1 for ln in lines if status.fullmatch(ln)) == 6
    assert lines[-1].endswith("all checks passed")


def test_verify_catches_injected_fault(monkeypatch, capsys):
    from polysl2 import algebra, cli

    def perturbed(block, psi):
        v0, vp, vm = algebra.block_operators(block, psi)
        return v0, 1.05 * vp, vm

    monkeypatch.setattr(cli, "block_operators", perturbed)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert out.splitlines()[0].startswith("commutator closure")


def test_verify_reports_a_check_that_raises(monkeypatch, capsys):
    from polysl2 import cli

    def refused(block, psi):
        raise RuntimeError("forced")

    monkeypatch.setattr(cli, "block_operators", refused)
    assert main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{'commutator closure':<36} FAIL  error: forced"
    assert lines[-1] == "verify: FAILURES present"


def test_config_sections_refuse_attribute_changes():
    from polysl2.cli import parse_config

    cfg = parse_config({"model": "sl2_limit", "sl2_limit": {"j": 1.0, "a": 0.5, "g": 1.0}})
    for section, name in (cfg, "model"), (cfg.need("sl2_limit"), "j"):
        with pytest.raises(AttributeError, match=f"cannot change '{name}'"):
            setattr(section, name, 2.0)
        with pytest.raises(AttributeError, match=f"cannot change '{name}'"):
            delattr(section, name)
    assert (cfg.model, cfg.need("sl2_limit").j) == ("sl2_limit", 1.0)


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


def test_sl2_block_id_names_j(tmp_path):
    # the id reads j itself: at j = 0 no -0.0 from the lowest weight l0 = -j
    for j, bid in ((0, "sl2_j0.0"), (3.5, "sl2_j3.5")):
        cfg = write_config(
            tmp_path,
            {"model": "sl2_limit", "sl2_limit": {"j": j, "a": 0.5, "g": 0.7}},
        )
        out = tmp_path / f"j{j}"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads((out / "spectrum.json").read_text())
        assert [b["block_id"] for b in data["blocks"]] == [bid]
        _, rows = read_rows(out / "spectrum.csv")
        assert {row[0] for row in rows[1:]} == {bid}


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


def test_meanfield_zero_span_writes_the_start_alone(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "model": "sl2_limit",
            "sl2_limit": {"j": 1.0, "a": 0.5, "g": 1.0},
            "meanfield": {"p0": 0.4, "q0": 0.0, "tspan": 0.0, "dt": 0.01},
        },
    )
    out = tmp_path / "mf"
    assert main(["meanfield", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err.startswith("meanfield: 0 steps in ")
    data = json.loads((out / "meanfield.json").read_text())
    assert (data["energy_drift_abs"], data["energy_drift_rel"]) == (0.0, 0.0)
    _, rows = read_rows(out / "meanfield.csv")
    assert rows[1:] == [["0.0", "0.4", "0.0", rows[1][3]]]


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
    assert main(["meanfield", "--config", str(cfg), "--out", str(out)]) == 2
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


def test_meanfield_start_outside_the_chart_is_a_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "model": "three_boson",
            "three_boson": {"omega1": 1.0, "omega2": 1.0, "omega3": 2.0, "g": 1.0},
            "blocks": {"labels": [{"k": 0, "m": 4}]},
            "meanfield": {"p0": 8.0, "q0": 0.3, "tspan": 20.0, "dt": 0.002},
        },
    )
    out = tmp_path / "mf"
    assert main(["meanfield", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: meanfield.p0 = 8.0 lies outside |p| <= j = 2.0" in err
    assert "of block k0_m4" in err
    assert not out.exists()


THREE_BOSON = {"omega1": 1.0, "omega2": 1.0, "omega3": 2.0, "g": 0.7}
BASE_CONFIGS = {
    "spectrum": SPECTRUM_CFG,
    "sl2": {"model": "sl2_limit", "sl2_limit": {"j": 1.0, "a": 0.5, "g": 1.0}},
    "custom": {
        "model": "custom_psi",
        "custom_psi": {"roots": [0.0, 5.0, 7.5], "l0": 0.0, "g": 0.7},
    },
    "dynamics": {
        "model": "three_boson",
        "three_boson": THREE_BOSON,
        "dynamics": {"alpha": [0.3, 0.2, 0.8], "ncut": 8, "samples": 1000},
    },
    "meanfield": {
        "model": "three_boson",
        "three_boson": THREE_BOSON,
        "blocks": {"labels": [{"k": 0, "m": 4}]},
        "meanfield": {"p0": 0.8, "q0": 0.3, "tspan": 1.0, "dt": 0.01},
    },
    "verify": {},
    "fock": {
        "model": "three_boson",
        "three_boson": THREE_BOSON,
        "dynamics": {"fock": [0, 0, 1], "samples": 1000},
    },
}
COMMAND = {"sl2": "spectrum", "custom": "spectrum", "fock": "dynamics"}
DROP = object()


@pytest.mark.parametrize(
    "base, path, value",
    # the dmax, qmax, persist, window_periods, deficit_bound and inject_fault
    # rows set keys the schema no longer has (test_removed_config_key_is_unknown
    # and test_removed_custom_key_is_unknown);
    # they keep their places so that the positional ids of the other rows
    # stay put
    [
        ("spectrum", ("blocks", "labels"), 5),
        ("spectrum", ("blocks", "labels"), [{"k": [1]}]),
        ("spectrum", ("blocks", "labels"), [{"k": 0, "m": 2, "sign": 0}]),
        ("spectrum", ("blocks", "labels"), [{"k": 0, "n": 2}]),
        ("spectrum", ("blocks", "ncut"), 1.7),
        ("spectrum", ("blocks", "ncut"), "x"),
        ("spectrum", ("blocks", "ncut"), -1),
        ("spectrum", ("blocks", "ncut"), DROP),
        ("spectrum", ("blocks",), DROP),
        ("spectrum", ("three_boson", "omega1"), None),
        ("spectrum", ("three_boson", "omega1"), "x"),
        ("spectrum", ("three_boson", "omega1"), True),
        ("spectrum", ("three_boson", "omega1"), float("nan")),
        ("spectrum", ("three_boson", "omega1"), 10**400),
        ("spectrum", ("three_boson", "g"), [1.0, 2.0, 3.0]),
        ("spectrum", ("solver",), "fast"),
        ("spectrum", ("model",), 3),
        ("spectrum", ("model",), DROP),
        ("sl2", ("sl2_limit", "j"), "x"),
        ("sl2", ("sl2_limit", "j"), 0.7),
        ("sl2", ("sl2_limit", "j"), -1),
        ("custom", ("custom_psi", "roots"), "ab"),
        ("custom", ("custom_psi", "dmax"), 0),
        ("custom", ("custom_psi", "l0"), DROP),
        ("dynamics", ("three_boson", "omega3"), DROP),
        ("dynamics", ("dynamics", "alpha"), 5),
        ("dynamics", ("dynamics", "alpha"), [0.3, 0.2]),
        ("dynamics", ("dynamics", "alpha"), DROP),
        ("dynamics", ("dynamics", "ncut"), "x"),
        ("dynamics", ("dynamics", "ncut"), 0),
        ("dynamics", ("dynamics", "qmax"), "x"),
        ("dynamics", ("dynamics", "qmax"), 0),
        ("dynamics", ("dynamics", "samples"), "abc"),
        ("dynamics", ("dynamics", "samples"), 999),
        ("dynamics", ("dynamics", "tmax"), -50),
        ("dynamics", ("dynamics", "persist"), 0),
        ("dynamics", ("dynamics", "persist"), 2.5),
        ("dynamics", ("dynamics", "window_periods"), 0),
        ("dynamics", ("dynamics", "deficit_bound"), -1e-6),
        ("dynamics", ("model",), "sl2_limit"),
        ("meanfield", ("meanfield", "tspan"), [1]),
        ("meanfield", ("meanfield", "tspan"), "x"),
        ("meanfield", ("meanfield", "dt"), 0),
        ("meanfield", ("meanfield", "dt"), -0.01),
        ("meanfield", ("meanfield", "q0"), DROP),
        ("meanfield", ("meanfield",), DROP),
        ("meanfield", ("blocks",), {"ncut": 2}),
        ("meanfield", ("blocks", "labels"), []),
        ("verify", ("inject_fault",), {"psi_root_shift": [1]}),
        ("verify", ("inject_fault",), {"psi_root_shift": "0.05"}),
        ("verify", ("inject_fault",), 0.05),
        # more RK4 steps than the schema allows
        ("meanfield", ("meanfield", "dt"), 1e-12),
        ("meanfield", ("meanfield", "dt"), 5e-324),
        ("meanfield", ("meanfield", "tspan"), -1e6),
        # blocks beyond MAX_BLOCK_DIM = 2001 levels
        ("spectrum", ("blocks", "labels"), [{"k": 0, "m": 2001}]),
        ("sl2", ("sl2_limit", "j"), 1000.5),
        ("custom", ("custom_psi", "dmax"), 2002),
        # run sizes: a cube beyond 2001-level blocks, samples
        ("spectrum", ("blocks", "ncut"), 1001),
        ("dynamics", ("dynamics", "ncut"), 1001),
        ("dynamics", ("dynamics", "samples"), 10**7 + 1),
        ("dynamics", ("dynamics", "qmax"), 1001),
        # both keys of an either-or section
        ("spectrum", ("blocks", "labels"), [{"k": 0, "m": 2}]),
        ("dynamics", ("dynamics", "fock"), [0, 1, 2]),
        # a Fock state in a block beyond MAX_BLOCK_DIM = 2001 levels
        ("fock", ("dynamics", "fock"), [0, 0, 2001]),
        ("fock", ("dynamics", "fock"), [5, 7, 1996]),
    ],
)
def test_malformed_config_is_a_config_error(tmp_path, capsys, base, path, value):
    cfg = json.loads(json.dumps(BASE_CONFIGS[base]))
    *parents, key = path
    sect = cfg
    for name in parents:
        sect = sect[name]
    if value is DROP:
        del sect[key]
    else:
        sect[key] = value
    out = tmp_path / "out"
    command = COMMAND.get(base, base)
    args = [command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key",
    [
        "dynamics.window_periods",
        "dynamics.persist",
        "dynamics.qmax",
        "inject_fault",
        "dynamics.deficit_bound",
    ],
)
def test_removed_config_key_is_unknown(tmp_path, capsys, key):
    # the collapse window and persistence are dynamics.WINDOW_PERIODS and
    # PERSIST, qmax is the library default, verify takes no fault, and the
    # tail deficit bound is dynamics.DEFICIT_BOUND
    cfg = json.loads(json.dumps(BASE_CONFIGS["dynamics"]))
    section, _, name = key.rpartition(".")
    (cfg[section] if section else cfg)[name] = 5
    out = tmp_path / "out"
    args = ["dynamics", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == f"config error: unknown config key: {key}\n"
    assert not out.exists()


def test_removed_custom_key_is_unknown(tmp_path, capsys):
    # custom_psi towers are searched up to the block cap, MAX_BLOCK_DIM
    cfg = dict(BASE_CONFIGS["custom"])
    cfg["custom_psi"] = dict(cfg["custom_psi"], dmax=50)
    out = tmp_path / "out"
    args = ["spectrum", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == "config error: unknown config key: custom_psi.dmax\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "blocks, count",
    [({"ncut": 2}, 19), ({"labels": []}, 0), ({"labels": [{"m": 4}, {"m": 5}]}, 2)],
)
def test_meanfield_needs_exactly_one_block(tmp_path, capsys, blocks, count):
    # a multi-block selection must not silently integrate its first block
    cfg = dict(BASE_CONFIGS["meanfield"], blocks=blocks)
    out = tmp_path / "mf"
    path = write_config(tmp_path, cfg)
    assert main(["meanfield", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"meanfield needs exactly one block; the config selects {count}\n" in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", [[1.5e154, 0.0, 0.8], [0.3, [1e200, -1e200], 0.8]])
def test_overflowing_coherent_amplitude_is_a_config_error(tmp_path, capsys, alpha):
    # |alpha|^2 beyond the float range: no ncut can hold such a state
    dyn = dict(BASE_CONFIGS["dynamics"]["dynamics"], alpha=alpha)
    cfg = dict(BASE_CONFIGS["dynamics"], dynamics=dyn)
    out = tmp_path / "dyn"
    path = write_config(tmp_path, cfg)
    assert main(["dynamics", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: dynamics.alpha[")
    assert not out.exists()


def test_unweighted_cube_names_alpha_ncut_and_deficit(tmp_path, capsys):
    # |alpha_1|^2 = 1e308 fits a float but no Fock cube: every block
    # weight underflows, and the message points at the input
    dyn = dict(BASE_CONFIGS["dynamics"]["dynamics"], alpha=[1e154, 0, 0.8], ncut=8)
    cfg = dict(BASE_CONFIGS["dynamics"], dynamics=dyn)
    out = tmp_path / "dyn"
    path = write_config(tmp_path, cfg)
    warning = (
        "coherent tail deficit 1.000e+00 exceeds bound 1.0e-06: mean "
        "occupations (1e+308, 0, 0.64) against the cube n_i <= ncut = 8"
    )
    with pytest.warns(UserWarning, match=re.escape(warning)):
        assert main(["dynamics", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: no block carries weight above 1e-18")
    assert "dynamics.alpha has mean occupations (1e+308, 0, 0.64)" in err
    assert "dynamics.ncut = 8 leaves a tail deficit of 1.000e+00" in err
    assert not out.exists()


def test_near_degenerate_levels_give_no_incommensurability(tmp_path):
    # g = 3e-10 splits the dominant block's levels by less than the
    # distinct-level rule of incommensurability_measure: fewer than three
    # distinct levels is no measure, not a failure
    cfg = write_config(
        tmp_path,
        {
            "model": "three_boson",
            "three_boson": {"omega1": 1, "omega2": 1, "omega3": 2, "g": 3e-10},
            "dynamics": {"alpha": [0, 0, 2], "ncut": 20, "samples": 2000},
        },
    )
    out = tmp_path / "dyn"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "dynamics.json").read_text())
    assert data["dominant_block"] == "k0_m3"
    assert data["incommensurability"] is None


def test_variational_energy_beyond_norm_bound_is_a_numeric_failure(
    tmp_path, capsys, monkeypatch
):
    from polysl2 import variational

    level_energies = variational._level_energies

    def inflated(diag, off, r):
        return 10.0 * level_energies(diag, off, r)

    monkeypatch.setattr(variational, "_level_energies", inflated)
    cfg = write_config(tmp_path, dict(SPECTRUM_CFG, solver="variational"))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: block k0_m1: variational energy")
    assert "norm bound" in err
    assert not (out / "spectrum.csv").exists()


FAILING_BLOCK_CFG = {
    "model": "three_boson",
    "three_boson": {"omega1": 1.0, "omega2": 0.9, "omega3": 2.2, "g": [0.6, -0.8]},
    "blocks": {"labels": [{"k": 0, "m": 3}]},
    "dynamics": {"fock": [1, 1, 2], "samples": 1000},
}


@pytest.mark.parametrize(
    "command, solver",
    [("spectrum", "exact"), ("spectrum", "variational"), ("dynamics", "all")],
)
def test_lapack_failure_names_its_block(tmp_path, capsys, monkeypatch, command, solver):
    # the exact energies, the variational rotation and the dynamics
    # eigenvectors all fail through eigh_tridiagonal, with one message
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("boom")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    cfg = write_config(tmp_path, dict(FAILING_BLOCK_CFG, solver=solver))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: block k0_m3: tridiagonal eigensolve failed: boom\n"
    )
    assert not out.exists()


def test_variational_spectrum_of_a_1081_level_block(tmp_path):
    # the monomial stationarity scan overflowed here; the Bernstein scan
    # finds the pair of roots near alpha = -+sqrt(2)
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
            "solver": "variational",
            "three_boson": {"omega1": 1.0, "omega2": 1.0, "omega3": 2.0, "g": 1.0},
            "blocks": {"labels": [{"k": 0, "m": 1080}]},
        },
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    label = BlockLabel(0, 1080)
    block, psi = build_model_block(label)
    params = block_constants(label, ThreeBosonParams(1.0, 1.0, 2.0, 1.0))
    bound = build_hamiltonian(block, psi, params).norm_bound()
    _, rows = read_rows(out / "spectrum.csv")
    assert len(rows) - 1 == block.dim == 1081
    assert all(abs(float(r[3])) <= bound for r in rows[1:])
    assert float(rows[1][7]) == pytest.approx(-1.41385, abs=1e-5)
    assert abs(float(rows[1][8])) <= 1e-12
    summary = json.loads((out / "spectrum.json").read_text())["blocks"][0]
    assert all(abs(res) <= 1e-12 for res in summary["residuals"])


def test_integral_floats_read_as_integers(tmp_path):
    outs = []
    for ncut in (2, 2.0):
        cfg = dict(SPECTRUM_CFG, blocks={"ncut": ncut})
        out = tmp_path / f"out{len(outs)}"
        path = write_config(tmp_path, cfg, f"cfg{len(outs)}.json")
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
        outs.append((out / "spectrum.csv").read_text().splitlines()[1:])
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "section, raw",
    [
        ("blocks", {"labels": [{"k": 0, "m": 2}], "ncut": 1}),
        ("dynamics", {"alpha": [0.0, 0.0, 1.0], "fock": [0, 0, 1]}),
    ],
)
def test_either_or_section_names_both_keys(section, raw):
    from polysl2.cli import ConfigError, parse_config

    a, b = raw
    with pytest.raises(ConfigError) as err:
        parse_config({section: raw})
    assert str(err.value) == f"{section} section sets both '{a}' and '{b}'; give one"


@pytest.mark.parametrize("fock", [[0, 0, 2000], [7, 5, 1995], [10**9, 3, 4]])
def test_fock_block_at_the_cap_is_accepted(fock):
    from polysl2.cli import parse_config

    assert parse_config({"dynamics": {"fock": fock}}).dynamics.fock == tuple(fock)


def test_fock_block_beyond_the_cap_names_key_and_cap():
    # parsing only: a block of 10^9 + 1 levels must never reach the solver
    from polysl2.cli import ConfigError, parse_config

    with pytest.raises(ConfigError) as err:
        parse_config({"dynamics": {"fock": [0, 0, 10**9]}})
    assert str(err.value).startswith("dynamics.fock = [0, 0, 1000000000]")
    assert "1000000001 levels" in str(err.value)
    assert "at most 2001" in str(err.value)


def test_three_boson_psi_is_exact_on_every_rung_at_the_k_cap():
    from polysl2.cli import MAX_K

    for m in (1, 2, 3, 7, 100, 2000):
        for sign in (1, -1):
            label = BlockLabel(MAX_K, m, sign)
            block, psi = build_model_block(label)
            got = psi.values(block.l0 + np.arange(1, block.dim, dtype=float))
            exact = [psi(label.l0 + v) for v in range(1, block.dim)]
            assert all(x > 0 for x in exact)
            for g, x in zip(got.tolist(), exact):
                assert abs(Fraction(g) - x) <= Fraction(4, 10**16) * x


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        (
            "spectrum",
            {"blocks": {"labels": [{"k": 10**15 + 1, "m": 3}]}},
            "blocks.labels[0].k must be an integer from 0 to 1000000000000000",
        ),
        (
            "dynamics",
            {"dynamics": {"fock": [10**15 + 1, 0, 3], "samples": 1000}},
            "dynamics.fock = [1000000000000001, 0, 3] lies in block "
            "k1000000000000001p_m3 with k = 1000000000000001; "
            "k is at most 1000000000000000",
        ),
    ],
)
def test_k_beyond_the_cap_is_a_config_error(tmp_path, capsys, command, cfg, key):
    # past k ~ 3e16 the float rungs (k - m)/3 + v collapse psi to 0, and a
    # run would print the uncoupled diagonal with exit 0
    cfg = {"model": "three_boson", "three_boson": THREE_BOSON, **cfg}
    out = tmp_path / "out"
    code = main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} (")
    assert not out.exists()


def _custom_run(tmp_path, l0):
    # psi(x) = -(x - l0)(x - l0 - 5): a tower of 5 levels from l0
    cfg = {
        "model": "custom_psi",
        "solver": "exact",
        "custom_psi": {"roots": [l0, l0 + 5], "leading": -1, "l0": l0, "g": 0.5},
    }
    out = tmp_path / "out"
    code = main(["spectrum", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    return code, out


def test_custom_tower_at_the_l0_cap_keeps_its_levels(tmp_path):
    code, out = _custom_run(tmp_path, 1e11)
    assert code == 0
    assert json.loads((out / "spectrum.json").read_text())["blocks"][0]["dim"] == 5


def test_custom_l0_beyond_the_cap_is_a_config_error(tmp_path, capsys):
    # at l0 = 5e11 the root test merges the rungs and the tower reads as 1 level
    code, out = _custom_run(tmp_path, 1e11 + 1e6)
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "config error: custom_psi.l0 must be a finite number from -1e+11 to 1e+11"
    )
    assert not out.exists()


def _count_builds(monkeypatch):
    """Count build_hamiltonian calls through every polysl2 namespace holding it."""
    from polysl2 import dynamics, solver  # noqa: F401 (loaded, so patched and restored)

    built, original = [], solver.build_hamiltonian

    def counted(block, psi, params):
        built.append(block.dim)
        return original(block, psi, params)

    for name, mod in list(sys.modules.items()):
        if name == "polysl2" or name.startswith("polysl2."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, counted)
    return built


def test_spectrum_builds_one_hamiltonian_per_block(tmp_path, monkeypatch):
    built = _count_builds(monkeypatch)
    cfg = dict(SPECTRUM_CFG, three_boson=dict(THREE_BOSON, g=0.7), blocks={"ncut": 2})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    dims = [b["dim"] for b in json.loads((out / "spectrum.json").read_text())["blocks"]]
    assert max(dims) >= 2
    assert built == dims


def test_meanfield_builds_one_hamiltonian(tmp_path, monkeypatch):
    built = _count_builds(monkeypatch)
    cfg = write_config(tmp_path, BASE_CONFIGS["meanfield"])
    assert main(["meanfield", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert built == [5]


def _count_scans(monkeypatch):
    """The off-diagonal sizes of the variational scans, one per scan key."""
    from polysl2 import variational

    rows = []
    scan = variational._scan

    def counted(offdiag, a, g_mod):
        rows.append(offdiag.size)
        return scan(offdiag, a, g_mod)

    monkeypatch.setattr(variational, "_scan", counted)
    return rows


def _benchmark_labels():
    """The benchmark's spectrum labels: enumerate_blocks(5), k0_m30 and k0_m40."""
    labels = [{"k": lab.k, "m": lab.m, "sign": lab.sign} for lab in enumerate_blocks(5)]
    return labels + [{"k": 0, "m": 30, "sign": 1}, {"k": 0, "m": 40, "sign": 1}]


def test_spectrum_solves_each_bit_equal_hamiltonian_once(tmp_path, monkeypatch):
    # at omega1 = omega2 the twins (k, m, +) and (k, m, -) are bit-equal, so
    # of the benchmark's 93 blocks at its seed 0 the 40 minus twins reuse
    # their plus twin's exact and variational solutions
    from polysl2 import cli, variational

    batches, exact, rotated = [], [], []
    spectra, eigh, level_energies = (
        cli.variational_spectra, cli.eigh_tridiagonal, variational._level_energies
    )

    def batch(tris):
        batches.append(len(tris))
        return spectra(tris)

    def solved(diag, off, **kwargs):
        exact.append(diag.size)
        return eigh(diag, off, **kwargs)

    def rotation(diag, off, rot):
        rotated.append(diag.size)
        return level_energies(diag, off, rot)

    monkeypatch.setattr(cli, "variational_spectra", batch)
    monkeypatch.setattr(cli, "eigh_tridiagonal", solved)
    monkeypatch.setattr(variational, "_level_energies", rotation)
    cfg = dict(SPECTRUM_CFG, blocks={"labels": _benchmark_labels()})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    blocks = json.loads((out / "spectrum.json").read_text())["blocks"]
    assert len(blocks) == 93
    assert batches == [53] and len(exact) == len(rotated) == 53


def test_spectrum_scans_each_twin_pair_once(tmp_path, monkeypatch):
    # the benchmark's labels at its seed 0: 82 blocks of two or more levels
    # in 12 sizes, 35 of them minus twins that share their plus twin's scan
    # wherever either is listed: in order, reversed, or all plus labels
    # first; each block's solution is the same in every order
    rows = _count_scans(monkeypatch)
    labels = _benchmark_labels()
    orders = labels, labels[::-1], sorted(labels, key=lambda lab: -lab["sign"])
    solved = []
    for i, order in enumerate(orders):
        rows.clear()
        cfg = dict(SPECTRUM_CFG, blocks={"labels": order})
        out = tmp_path / f"out{i}"
        assert main(["spectrum", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        blocks = json.loads((out / "spectrum.json").read_text())["blocks"]
        dims = [b["dim"] for b in blocks]
        assert (len(dims), sum(d > 1 for d in dims)) == (93, 82)
        assert (len(set(rows)), len(rows)) == (12, 47)
        solved.append({b["block_id"]: b for b in blocks})
    assert solved[0] == solved[1] == solved[2]


# blocks of 7, 5, 5, 3, 5, 5 and 7 levels, with no twin pair among them
ORDER_LABELS = [
    {"k": 0, "m": 6},
    {"k": 0, "m": 4},
    {"k": 1, "m": 4},
    {"k": 0, "m": 2},
    {"k": 2, "m": 4, "sign": -1},
    {"k": 3, "m": 4},
    {"k": 1, "m": 6},
]
NO_ROOT = (
    "stationary points not certified: the Bernstein bound stays at 3 "
    "where the stationarity function brackets 1"
)


@pytest.mark.parametrize(
    "no_root, bad_rotation, bad_build, expect",
    [
        # the size-7 blocks are scanned first, but their failing block comes
        # after a failing block of size 5
        (["k1p_m6", "k2m_m4", "k3p_m4"], [], [], f"block k2m_m4: {NO_ROOT}"),
        # an earlier block of another size fails after the scans
        (["k2m_m4"], ["k0_m2"], [], "block k0_m2: variational energy"),
        # a later block fails before any scan runs
        (["k2m_m4"], [], ["k1p_m6"], f"block k2m_m4: {NO_ROOT}"),
        # an earlier block fails before any scan runs
        (["k2m_m4"], [], ["k0_m2"], "block k0_m2: non-finite Hamiltonian: forced"),
    ],
)
def test_spectrum_names_the_first_failing_block_in_task_order(
    tmp_path, capsys, monkeypatch, no_root, bad_rotation, bad_build, expect
):
    # the scans run together, after every block is built, yet the block
    # reported is the first failing one in task order
    from polysl2 import cli, variational

    params = ThreeBosonParams(1.0, 0.9, 2.2, complex(0.6, -0.8))
    cfg = dict(FAILING_BLOCK_CFG, solver="all", blocks={"labels": ORDER_LABELS})
    labels = [BlockLabel(lab["k"], lab["m"], lab.get("sign", 1)) for lab in ORDER_LABELS]
    blocks = {lab.block_id: build_model_block(lab) for lab in labels}
    tris = {
        lab.block_id: build_hamiltonian(*blocks[lab.block_id], block_constants(lab, params))
        for lab in labels
    }
    doomed = [tris[bid].offdiag.tobytes() for bid in no_root]
    scan = variational._scan

    def uncertified(offdiag, a, g_mod):
        if offdiag.tobytes() in doomed:
            raise RuntimeError(NO_ROOT)
        return scan(offdiag, a, g_mod)

    level_energies = variational._level_energies
    inflate = [tris[bid].diag.tobytes() for bid in bad_rotation]

    def inflated(diag, off, r):
        return (10.0 if diag.tobytes() in inflate else 1.0) * level_energies(diag, off, r)

    build = cli.build_hamiltonian
    refuse = [blocks[bid][0] for bid in bad_build]

    def refused(block, psi, params):
        if block in refuse:
            raise ValueError("non-finite Hamiltonian: forced")
        return build(block, psi, params)

    monkeypatch.setattr(variational, "_scan", uncertified)
    monkeypatch.setattr(variational, "_level_energies", inflated)
    monkeypatch.setattr(cli, "build_hamiltonian", refused)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric failure: {expect}") and err.count("\n") == 1
    assert not out.exists()


def test_spectrum_refuses_a_block_whose_roots_are_not_certified(
    tmp_path, capsys, monkeypatch
):
    # this custom block has four stationary points; the Bernstein bound of
    # the whole meridian counts six, where F changes sign on its two
    # half-circles only twice, so isolating them takes a subdivision, which
    # a width limit of 2 in s refuses.  The block is named, no root printed
    from polysl2 import variational

    monkeypatch.setattr(variational, "_NARROW", 2.0)
    cfg = {
        "model": "custom_psi",
        "solver": "variational",
        "custom_psi": {
            "leading": -1.0,
            "roots": [0.0, 6.0, 2.2, 2.8],
            "l0": 0.0,
            "a": 0.931,
            "g": 1.0,
        },
    }
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == (
        "numeric failure: block custom: stationary points not certified: the "
        "Bernstein bound stays at 6 where the stationarity function brackets 2\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, section, bid",
    [
        ("spectrum", {"blocks": {"labels": [{"k": 0, "m": 4}]}}, "k0_m4"),
        ("dynamics", {"dynamics": {"fock": [1, 1, 2]}}, "k0_m3"),
        (
            "meanfield",
            {
                "blocks": {"labels": [{"k": 0, "m": 4}]},
                "meanfield": {"p0": 0.1, "q0": 0.2, "tspan": 1.0, "dt": 0.1},
            },
            "k0_m4",
        ),
    ],
)
def test_non_finite_hamiltonian_is_named_before_lapack(
    tmp_path, capsys, command, section, bid
):
    # omega1 + omega2 overflows to an infinite detuning a; inf - inf would
    # put nan on the diagonal and fail inside LAPACK
    three_boson = {"omega1": 1e308, "omega2": 1e308, "omega3": 1.0, "g": 1.0}
    cfg = write_config(tmp_path, {"model": "three_boson", "three_boson": three_boson, **section})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"numeric failure: block {bid}: non-finite Hamiltonian: a = inf\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("ncut", [0, 1, 2, 5])
def test_meanfield_block_count_matches_enumeration(tmp_path, capsys, ncut):
    from polysl2.three_boson import enumerate_blocks

    # p0 = 0 fits the single level of the one block of the cube ncut = 0
    mf = dict(BASE_CONFIGS["meanfield"]["meanfield"], p0=0.0)
    cfg = dict(BASE_CONFIGS["meanfield"], blocks={"ncut": ncut}, meanfield=mf)
    out = tmp_path / "out"
    code = main(["meanfield", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    count = len(enumerate_blocks(ncut))
    if count == 1:
        assert code == 0
    else:
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "config error: meanfield needs exactly one block; "
            f"the config selects {count}\n"
        )


def test_meanfield_counts_a_large_cube_without_listing_it(tmp_path, capsys, monkeypatch):
    # enumerate_blocks(1000) lists 3,003,001 labels; the count is closed form
    from polysl2 import cli, three_boson

    def refuse(ncut):
        raise AssertionError("enumerate_blocks ran")

    monkeypatch.setattr(cli, "enumerate_blocks", refuse)
    monkeypatch.setattr(three_boson, "enumerate_blocks", refuse)
    cfg = dict(BASE_CONFIGS["meanfield"], blocks={"ncut": 1000})
    out = tmp_path / "out"
    code = main(["meanfield", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.endswith("meanfield needs exactly one block; the config selects 3003001\n")
    assert not out.exists()


@pytest.mark.parametrize("ncut, rows", [(162, 10052047), (1000, 2338337001)])
def test_spectrum_refuses_a_cube_past_the_row_cap(tmp_path, capsys, monkeypatch, ncut, rows):
    # the rows are counted in closed form, before any block is listed or solved
    from polysl2 import cli, three_boson

    def refuse(ncut):
        raise AssertionError("enumerate_blocks ran")

    monkeypatch.setattr(cli, "enumerate_blocks", refuse)
    monkeypatch.setattr(three_boson, "enumerate_blocks", refuse)
    cfg = dict(SPECTRUM_CFG, blocks={"ncut": ncut})
    out = tmp_path / "out"
    code = main(["spectrum", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: blocks selects {rows} spectrum rows; at most 1e+07 are allowed\n"
    )
    assert not out.exists()


def test_spectrum_counts_the_rows_of_a_label_list(tmp_path, capsys):
    # 4,998 towers of 2,001 levels are 10,000,998 rows, one past 4,997 of them
    labels = [{"k": k, "m": 2000} for k in range(4998)]
    cfg = dict(SPECTRUM_CFG, blocks={"labels": labels})
    out = tmp_path / "out"
    code = main(["spectrum", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: blocks selects 10000998 spectrum rows")
    assert not out.exists()


def test_warnings_print_on_one_line(tmp_path):
    # a tail deficit warns; stderr shows its message, no file, line or source
    import os
    import subprocess

    import polysl2

    dyn = {"alpha": [0.0, 0.0, 2.0], "ncut": 10, "samples": 1000}
    cfg = write_config(tmp_path, dict(BASE_CONFIGS["dynamics"], dynamics=dyn))
    src = str(Path(polysl2.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    args = ["dynamics", "--config", str(cfg), "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-m", "polysl2.cli", *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("warning: coherent tail deficit")
    assert proc.stderr.splitlines()[1].startswith("dynamics: 1000 samples")
    assert "cli.py" not in proc.stderr


def test_main_restores_the_warning_format(tmp_path):
    before = warnings.formatwarning
    cfg = write_config(tmp_path, BASE_CONFIGS["meanfield"])
    assert main(["meanfield", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert main(["spectrum"]) == 2
    assert warnings.formatwarning is before


def test_config_defaults():
    from polysl2.cli import parse_config

    cfg = parse_config({"dynamics": {"fock": [0, 0, 1]}, "sl2_limit": {"j": 2}})
    assert cfg.model is None and cfg.solver == "all"
    dyn = cfg.dynamics
    assert (dyn.tmax, dyn.samples, dyn.ncut) == (100.0, 10001, 20)
    assert dyn.fock == (0, 0, 1) and dyn.alpha is None
    sl2 = cfg.sl2_limit
    assert (sl2.j, sl2.a, sl2.g, sl2.constant) == (2.0, 0.0, 0j, 0.0)


def test_readme_config_table_matches_schema():
    import re

    from polysl2 import cli

    sections = {
        "top level": cli.Config,
        "three_boson": cli.ThreeBosonConfig,
        "sl2_limit": cli.Sl2LimitConfig,
        "custom_psi": cli.CustomPsiConfig,
        "blocks": cli.BlocksConfig,
        "blocks.labels[i]": cli.LabelConfig,
        "dynamics": cli.DynamicsConfig,
        "meanfield": cli.MeanfieldConfig,
    }
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) != 5 or cells[0] not in sections and "`" not in cells[0]:
            continue
        names = re.findall(r"`([^`]+)`", cells[0]) or [cells[0]]
        for name in names:
            for key in re.findall(r"`([^`]+)`", cells[1]):
                documented[(sections[name], key)] = cells[2:4]
    schema = {
        (cls, name): key
        for cls in sections.values()
        for name, key in cls._keys.items()
        if not (cls is cli.Config and name in sections)
    }
    assert set(documented) == set(schema)
    for pair, (_, default) in documented.items():
        value = schema[pair].default
        if default == "-":
            assert value in (..., None), pair
        elif default.startswith("`"):
            assert value == default.strip("`"), pair
        else:
            assert value == float(default), pair


def test_no_scipy_on_the_cli_path(tmp_path):
    # one small run of each numeric command in a fresh interpreter, after
    # which no scipy module may have been imported
    import os
    import subprocess
    import sys

    import polysl2

    runs = []
    for name in ("spectrum", "dynamics", "meanfield"):
        cfg = write_config(tmp_path, BASE_CONFIGS[name], f"{name}.json")
        runs.append([name, "--config", str(cfg), "--out", str(tmp_path / name)])
    script = (
        "import json, sys\n"
        "from polysl2.cli import main\n"
        "codes = [main(args) for args in json.loads(sys.argv[1])]\n"
        "scipy = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print(json.dumps({'codes': codes, 'scipy': scipy}))\n"
    )
    src = str(Path(polysl2.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "scipy": []}
