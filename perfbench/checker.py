"""Output checks for each workload, run outside the timed region.

Each check reads the files an invocation wrote, raises CheckFailure on the
first violation, and otherwise returns health values that the traced run
reports as per-layer metrics.  The reference numbers come from independent
routes: the Sturm-count oracle for exact energies, the closed form for the
sl(2) reference, the coherent-state mean for n3(0).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from polysl2.solver import build_hamiltonian, spectral_polynomial_roots
from polysl2.three_boson import (
    BlockLabel,
    ThreeBosonParams,
    block_constants,
    build_model_block,
)

ORACLE_RTOL = 1e-8  # E_exact vs Sturm oracle, relative to max(norm bound, 1)
NORM_SLACK = 1e-12  # round-off allowed on |E_variational| <= norm bound
SL2_RTOL = 1e-10  # E_sl2ref vs closed form, relative to max(norm bound, 1)
DRIFT_MAX = 1e-6  # mean-field relative energy drift


class CheckFailure(Exception):
    pass


def _require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def _complex(x) -> complex:
    return complex(x[0], x[1]) if isinstance(x, list) else complex(x)


def _params(cfg: dict) -> ThreeBosonParams:
    tb = cfg["three_boson"]
    return ThreeBosonParams(
        omega1=float(tb["omega1"]),
        omega2=float(tb["omega2"]),
        omega3=float(tb["omega3"]),
        g=_complex(tb["g"]),
    )


def _read_csv(path: Path, digest: str, header: tuple):
    """Data rows of a CLI CSV after checking its digest and header lines."""
    _require(path.is_file(), f"{path.name} missing")
    lines = path.read_text().split("\n")
    _require(lines[-1] == "", f"{path.name}: not newline-terminated")
    _require(
        lines[0] == f"# config sha256: {digest}",
        f"{path.name}: first line does not carry the config digest",
    )
    _require(lines[1] == ",".join(header), f"{path.name}: unexpected header")
    rows = [line.split(",") for line in lines[2:-1]]
    _require(
        all(len(r) == len(header) for r in rows), f"{path.name}: ragged row"
    )
    return rows


def _read_json(path: Path, digest: str) -> dict:
    _require(path.is_file(), f"{path.name} missing")
    doc = json.loads(path.read_text())
    _require(
        doc.get("config_sha256") == digest, f"{path.name}: wrong config digest"
    )
    return doc


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def check_spectrum(cfg: dict, digest: str, out: Path, seed: int) -> dict:
    header = (
        "block_id", "v", "E_exact", "E_variational", "E_sl2ref",
        "abs_err_var", "abs_err_sl2", "alpha_selected", "residual",
    )
    rows = _read_csv(out / "spectrum.csv", digest, header)
    _read_json(out / "spectrum.json", digest)
    p3 = _params(cfg)
    pos = 0
    oracle_dev = 0.0
    norm_ratio = 0.0
    for lab in cfg["blocks"]["labels"]:
        label = BlockLabel(k=lab["k"], m=lab["m"], sign=lab.get("sign", 1))
        block, psi = build_model_block(label)
        params = block_constants(label, p3)
        tri = build_hamiltonian(block, psi, params)
        d = block.dim
        blk = rows[pos : pos + d]
        pos += d
        _require(
            len(blk) == d
            and all(r[0] == label.block_id and int(r[1]) == v for v, r in enumerate(blk)),
            f"spectrum.csv: rows of block {label.block_id} missing or out of order",
        )
        bound = tri.norm_bound()
        scale = max(bound, 1.0)
        exact = np.array([_num(r[2]) for r in blk], dtype=float)
        dev = float(np.max(np.abs(exact - spectral_polynomial_roots(tri)))) / scale
        _require(
            dev <= ORACLE_RTOL,
            f"{label.block_id}: E_exact off the Sturm oracle by {dev:.3e} (relative)",
        )
        oracle_dev = max(oracle_dev, dev)
        var = np.array([_num(r[3]) for r in blk], dtype=float)
        _require(
            bool(np.all(np.isfinite(var))),
            f"{label.block_id}: E_variational missing or not finite",
        )
        top = float(np.max(np.abs(var)))
        ratio = top / bound if bound > 0 else (0.0 if top == 0.0 else math.inf)
        _require(
            ratio <= 1.0 + NORM_SLACK,
            f"{label.block_id}: |E_variational| is {ratio:.6g} x the norm bound",
        )
        if d > 1:  # a single level equals its diagonal, so its ratio is 1
            norm_ratio = max(norm_ratio, ratio)
        omega = math.hypot(params.a, 2.0 * params.g_mod)
        base = params.constant + params.a * (block.l0 + block.j)
        closed = base + (np.arange(d) - block.j) * omega
        sl2 = np.array([_num(r[4]) for r in blk], dtype=float)
        _require(
            float(np.max(np.abs(sl2 - closed))) <= SL2_RTOL * scale,
            f"{label.block_id}: E_sl2ref differs from the closed form",
        )
    _require(pos == len(rows), "spectrum.csv: extra rows")
    return {
        "solver.oracle_rel_dev_max": oracle_dev,
        "variational.energy_norm_ratio_max": norm_ratio,
    }


def check_collapse(cfg: dict, digest: str, out: Path, seed: int) -> dict:
    dyn = cfg["dynamics"]
    rows = _read_csv(out / "dynamics.csv", digest, ("t", "n3_mean", "envelope"))
    _require(
        len(rows) == dyn["samples"],
        f"dynamics.csv: {len(rows)} rows, expected {dyn['samples']}",
    )
    n3 = np.array([float(r[1]) for r in rows])
    _require(bool(np.all(np.isfinite(n3))), "dynamics.csv: non-finite n3")
    doc = _read_json(out / "dynamics.json", digest)
    _require(doc["deficit_ok"] is True, "dynamics: tail deficit above its bound")
    _require(doc["oscillating"] is True, "dynamics: signal not oscillating")
    tc = doc["collapse_time"]
    _require(tc is not None, "dynamics: no collapse detected")
    deficit = float(doc["tail_deficit"])
    mean3 = abs(_complex(dyn["alpha"][2])) ** 2
    # states lost to the cube carry n3 <= 2 ncut each
    tol = 1e-9 * max(1.0, mean3) + 2 * dyn["ncut"] * deficit
    _require(
        abs(n3[0] - mean3) <= tol,
        f"dynamics: n3(0) = {n3[0]!r}, coherent mean {mean3!r}",
    )
    if seed == 0:
        revivals = doc["revival_times"]
        _require(
            len(revivals) > 0 and revivals[0] > tc,
            "dynamics: no revival after the collapse",
        )
    return {
        "three_boson.tail_deficit": deficit,
        "three_boson.blocks_kept": len(doc["block_weights"]),
    }


def check_meanfield(cfg: dict, digest: str, out: Path, seed: int) -> dict:
    mf = cfg["meanfield"]
    rows = _read_csv(out / "meanfield.csv", digest, ("t", "p", "q", "energy"))
    steps = max(1, int(round(abs(mf["tspan"]) / mf["dt"])))
    _require(
        len(rows) == steps + 1,
        f"meanfield.csv: {len(rows)} rows, expected {steps + 1}",
    )
    doc = _read_json(out / "meanfield.json", digest)
    _require(doc["clamped"] is False, "meanfield: trajectory was clamped")
    energy = np.array([float(r[3]) for r in rows])
    drift = float(np.max(np.abs(energy - energy[0]))) / max(abs(energy[0]), 1e-30)
    for name, val in (("reported", doc["energy_drift_rel"]), ("CSV", drift)):
        _require(
            val is not None and val <= DRIFT_MAX,
            f"meanfield: {name} energy drift {val!r} above {DRIFT_MAX}",
        )
    return {
        "dynamics.meanfield_energy_drift_rel": drift,
        "dynamics.meanfield_trajectory.steps": len(rows) - 1,
    }


CHECKS = {
    "spectrum": check_spectrum,
    "collapse": check_collapse,
    "meanfield": check_meanfield,
}


def check(workload: str, cfg: dict, config_path: Path, out: Path, seed: int) -> dict:
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    return CHECKS[workload](cfg, digest, Path(out), seed)


def output_digests(out: Path) -> dict:
    """sha256 of every file an invocation wrote, for byte-identity checks."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out).iterdir())
        if p.is_file()
    }
