"""Command line front end: spectra, dynamics, mean field and self checks.

Configuration is a single JSON document; outputs are CSV for bulk numbers
and JSON for summaries.  Runs are deterministic: identical configs produce
byte-identical files (timings go to stderr, never into outputs), and every
output embeds the sha256 of the config it came from.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

from .algebra import (
    Block,
    BlockError,
    StructureFunction,
    block_operators,
    build_block,
)
from .dynamics import (
    WEIGHT_FLOOR,
    detect_collapse_revival,
    evolve_block,
    fock_signal,
    incommensurability_measure,
    rabi_signal,
)
from .solver import (
    HamiltonianParams,
    amplitude_recurrence,
    build_hamiltonian,
    eigensolve,
    gcs_overlaps,
    sl2_reference_spectrum,
    spectral_polynomial_roots,
)
from .three_boson import (
    BlockLabel,
    CoherentInput,
    ThreeBosonParams,
    block_constants,
    build_model_block,
    enumerate_blocks,
    psi3_for_block,
)
from .variational import variational_spectrum

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    pass


_SOLVER_CHOICES = ("exact", "variational", "sl2_reference", "all")

_ALLOWED = {
    "model": None,
    "solver": None,
    "three_boson": {"omega1", "omega2", "omega3", "g"},
    "custom_psi": {"leading", "roots", "l0", "a", "g", "constant", "dmax"},
    "sl2_limit": {"j", "a", "g", "constant"},
    "blocks": {"ncut", "labels"},
    "dynamics": {
        "tmax",
        "samples",
        "alpha",
        "ncut",
        "fock",
        "deficit_bound",
        "window_periods",
        "persist",
        "qmax",
    },
    "meanfield": {"p0", "q0", "tspan", "dt"},
    "inject_fault": {"psi_root_shift"},
}

_LABEL_KEYS = {"k", "m", "sign"}


def _check_keys(cfg: dict) -> None:
    for key, val in cfg.items():
        if key not in _ALLOWED:
            raise ConfigError(f"unknown config key: {key!r}")
        allowed = _ALLOWED[key]
        if allowed is None:
            continue
        if not isinstance(val, dict):
            raise ConfigError(f"section {key!r} must be an object")
        for sub in val:
            if sub not in allowed:
                raise ConfigError(f"unknown config key: {key}.{sub!r}")
    labels = cfg.get("blocks", {}).get("labels")
    if labels is not None:
        for i, lab in enumerate(labels):
            if not isinstance(lab, dict):
                raise ConfigError(f"blocks.labels[{i}] must be an object")
            for sub in lab:
                if sub not in _LABEL_KEYS:
                    raise ConfigError(
                        f"unknown config key: blocks.labels[{i}].{sub!r}"
                    )


def _load_config(path):
    if path is None:
        return {}, hashlib.sha256(b"").hexdigest()
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    _check_keys(cfg)
    return cfg, hashlib.sha256(raw).hexdigest()


def _as_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, (int, float)) for x in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected number or [re, im] pair")


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats; empty for missing."""
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _sanitize(obj):
    """JSON-ready copy: numpy scalars to Python, non-finite floats to None."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_sanitize(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def _write_csv(path: Path, digest: str, header, rows) -> None:
    lines = [f"# config sha256: {digest}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n")


def _require(cfg: dict, key: str) -> dict:
    if key not in cfg:
        raise ConfigError(f"missing config section {key!r}")
    return cfg[key]


def _sl2_structure(j: float):
    """psi_2(x) = (j+x)(j+1-x) as a factored structure function."""
    twoj = Fraction(j).limit_denominator(2) * 2
    if twoj != int(twoj) or twoj < 0:
        raise ConfigError("sl2_limit.j must be a nonnegative half-integer")
    jf = Fraction(int(twoj), 2)
    psi = StructureFunction(leading=Fraction(-1), roots=(-jf, jf + 1))
    return psi, -jf


def _model_tasks(cfg: dict):
    """Blocks to solve: list of (block_id, block, psi, params)."""
    model = cfg.get("model")
    if model == "three_boson":
        sect = _require(cfg, "three_boson")
        for key in ("omega1", "omega2", "omega3", "g"):
            if key not in sect:
                raise ConfigError(f"three_boson.{key} is required")
        params3 = ThreeBosonParams(
            omega1=float(sect["omega1"]),
            omega2=float(sect["omega2"]),
            omega3=float(sect["omega3"]),
            g=_as_complex(sect["g"], "three_boson.g"),
        )
        blocks = _require(cfg, "blocks")
        if "labels" in blocks:
            labels = []
            for lab in blocks["labels"]:
                try:
                    labels.append(
                        BlockLabel(
                            k=int(lab.get("k", 0)),
                            m=int(lab.get("m", 0)),
                            sign=int(lab.get("sign", 1)),
                        )
                    )
                except ValueError as exc:
                    raise ConfigError(f"bad block label {lab}: {exc}") from exc
        elif "ncut" in blocks:
            labels = enumerate_blocks(int(blocks["ncut"]))
        else:
            raise ConfigError("blocks section needs 'labels' or 'ncut'")
        tasks = []
        for lab in labels:
            block, psi = build_model_block(lab)
            tasks.append((lab.block_id, block, psi, block_constants(lab, params3)))
        return tasks
    if model == "sl2_limit":
        sect = _require(cfg, "sl2_limit")
        if "j" not in sect:
            raise ConfigError("sl2_limit.j is required")
        psi, l0 = _sl2_structure(sect["j"])
        block = build_block(psi, float(l0))
        g = _as_complex(sect.get("g", 0.0), "sl2_limit.g")
        params = HamiltonianParams(
            a=float(sect.get("a", 0.0)),
            g_mod=abs(g),
            g_phase=cmath.phase(g) if g != 0 else 0.0,
            constant=float(sect.get("constant", 0.0)),
        )
        jtag = _fmt(float(-float(l0)))
        return [(f"sl2_j{jtag}", block, psi, params)]
    if model == "custom_psi":
        sect = _require(cfg, "custom_psi")
        for key in ("roots", "l0"):
            if key not in sect:
                raise ConfigError(f"custom_psi.{key} is required")
        psi = StructureFunction(
            leading=float(sect.get("leading", 1.0)),
            roots=tuple(float(r) for r in sect["roots"]),
        )
        block = build_block(
            psi, float(sect["l0"]), dmax=int(sect.get("dmax", 1000))
        )
        g = _as_complex(sect.get("g", 0.0), "custom_psi.g")
        params = HamiltonianParams(
            a=float(sect.get("a", 0.0)),
            g_mod=abs(g),
            g_phase=cmath.phase(g) if g != 0 else 0.0,
            constant=float(sect.get("constant", 0.0)),
        )
        return [("custom", block, psi, params)]
    raise ConfigError(
        "model must be one of three_boson, sl2_limit, custom_psi"
    )


def _solve_block(task, solver: str):
    bid, block, psi, params = task
    res = {"block_id": bid, "dim": block.dim}
    try:
        if solver in ("exact", "all"):
            spec = eigensolve(build_hamiltonian(block, psi, params))
            res["exact"] = spec.energies
        if solver in ("variational", "all"):
            if params.g_mod == 0.0:
                res["variational_skipped"] = "g = 0 (exact solver covers it)"
            else:
                res["variational"] = variational_spectrum(block, psi, params)
        if solver in ("sl2_reference", "all"):
            res["sl2"] = sl2_reference_spectrum(block, params).energies
    except (BlockError, RuntimeError, ValueError) as exc:
        raise RuntimeError(f"block {bid}: {exc}") from exc
    return res


def cmd_spectrum(cfg: dict, digest: str, args) -> int:
    solver = cfg.get("solver", "all")
    if solver not in _SOLVER_CHOICES:
        raise ConfigError(f"solver must be one of {_SOLVER_CHOICES}")
    tasks = _model_tasks(cfg)
    t0 = time.perf_counter()
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(lambda t: _solve_block(t, solver), tasks))
    else:
        results = [_solve_block(t, solver) for t in tasks]
    elapsed = time.perf_counter() - t0

    header = (
        "block_id",
        "v",
        "E_exact",
        "E_variational",
        "E_sl2ref",
        "abs_err_var",
        "abs_err_sl2",
        "alpha_selected",
        "residual",
    )
    rows = []
    summary_blocks = []
    for res in results:
        bid = res["block_id"]
        d = res["dim"]
        exact = res.get("exact")
        var = res.get("variational")
        sl2 = res.get("sl2")
        alpha_sel = residual_sel = None
        if var is not None:
            alpha_sel = var.alpha_selected
            residual_sel = var.residuals[var.alpha_roots.index(var.alpha_selected)]
        for v in range(d):
            e_ex = float(exact[v]) if exact is not None else None
            e_var = float(var.energies[v]) if var is not None else None
            e_sl2 = float(sl2[v]) if sl2 is not None else None
            err_var = (
                abs(e_var - e_ex) if e_var is not None and e_ex is not None else None
            )
            err_sl2 = (
                abs(e_sl2 - e_ex) if e_sl2 is not None and e_ex is not None else None
            )
            rows.append(
                (bid, v, e_ex, e_var, e_sl2, err_var, err_sl2, alpha_sel, residual_sel)
            )
        entry = {"block_id": bid, "dim": d}
        if var is not None:
            entry["alpha_roots"] = list(var.alpha_roots)
            entry["alpha_selected"] = var.alpha_selected
            entry["residuals"] = list(var.residuals)
            entry["ordering_ok"] = var.ordering_ok
        if "variational_skipped" in res:
            entry["variational_skipped"] = res["variational_skipped"]
        summary_blocks.append(entry)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "spectrum.csv", digest, header, rows)
    _write_json(
        outdir / "spectrum.json",
        {
            "config_sha256": digest,
            "model": cfg.get("model"),
            "solver": solver,
            "blocks": summary_blocks,
            "tolerances": {
                "alpha_bisection_width": 1e-14,
                "degenerate_cluster_rtol": 1e-12,
                "root_detection_rtol": 1e-12,
            },
        },
    )
    print(
        f"spectrum: {len(tasks)} block(s) in {elapsed:.2f}s -> {outdir}",
        file=sys.stderr,
    )
    if args.verbose:
        for res in results:
            print(f"  {res['block_id']}: dim {res['dim']}", file=sys.stderr)
    return EXIT_OK


def cmd_dynamics(cfg: dict, digest: str, args) -> int:
    if cfg.get("model") != "three_boson":
        raise ConfigError("dynamics requires model = three_boson")
    sect = _require(cfg, "three_boson")
    params3 = ThreeBosonParams(
        omega1=float(sect["omega1"]),
        omega2=float(sect["omega2"]),
        omega3=float(sect["omega3"]),
        g=_as_complex(sect["g"], "three_boson.g"),
    )
    dyn = _require(cfg, "dynamics")
    tmax = dyn.get("tmax", 100.0)
    if type(tmax) not in (int, float) or not math.isfinite(tmax):
        raise ConfigError("dynamics.tmax must be a finite number")
    samples = int(dyn.get("samples", 10001))
    if samples < 1000:
        raise ConfigError("dynamics.samples must be at least 1000")
    times = np.linspace(0.0, float(tmax), samples)
    t0 = time.perf_counter()
    if "fock" in dyn:
        fock = dyn["fock"]
        if not (
            isinstance(fock, list)
            and len(fock) == 3
            and all(type(n) is int and n >= 0 for n in fock)
        ):
            raise ConfigError("dynamics.fock must be [n1, n2, n3] of integers >= 0")
        result = fock_signal(fock, params3, times)
    elif "alpha" in dyn:
        alpha = dyn["alpha"]
        if len(alpha) != 3:
            raise ConfigError("dynamics.alpha must be [a1, a2, a3]")
        inp = CoherentInput(
            alpha1=_as_complex(alpha[0], "dynamics.alpha[0]"),
            alpha2=_as_complex(alpha[1], "dynamics.alpha[1]"),
            alpha3=_as_complex(alpha[2], "dynamics.alpha[2]"),
            ncut=int(dyn.get("ncut", 20)),
            deficit_bound=float(dyn.get("deficit_bound", 1e-6)),
        )
        result = rabi_signal(inp, params3, times)
    else:
        raise ConfigError("dynamics section needs 'alpha' or 'fock'")
    signal = result.signal
    label, spec = result.dominant_label, result.dominant_spectrum
    if label is None:
        raise RuntimeError(f"no block carries weight above {WEIGHT_FLOOR:.0e}")
    report = detect_collapse_revival(
        signal,
        window_periods=float(dyn.get("window_periods", 5.0)),
        persist=int(dyn.get("persist", 5)),
    )
    elapsed = time.perf_counter() - t0

    incomm = None
    if len(np.unique(np.round(spec.energies, 9))) >= 3:
        rep = incommensurability_measure(
            spec.energies, qmax=int(dyn.get("qmax", 8))
        )
        incomm = {
            "min_distance": rep.min_distance,
            "ratio": rep.ratio,
            "pair_index": rep.pair_index,
            "p": rep.p,
            "q": rep.q,
        }
    gap_period = None
    if spec.energies.size >= 2:
        gap = float(spec.energies[1] - spec.energies[0])
        if gap > 0:
            gap_period = 2.0 * math.pi / gap

    env = report.envelope
    header = ("t", "n3_mean", "envelope")
    rows = []
    nenv = len(env) if env is not None else 0
    for i, (t, y) in enumerate(zip(signal.times, signal.values)):
        e = float(env.values[i]) if i < nenv else None
        rows.append((float(t), float(y), e))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "dynamics.csv", digest, header, rows)
    _write_json(
        outdir / "dynamics.json",
        {
            "config_sha256": digest,
            "oscillating": report.oscillating,
            "carrier_frequency": report.carrier_frequency,
            "carrier_period": (
                2.0 * math.pi / report.carrier_frequency
                if report.oscillating
                else None
            ),
            "window": report.window,
            "initial_envelope": report.initial_envelope,
            "collapse_time": report.collapse_time,
            "revival_times": list(report.revival_times),
            "tail_deficit": result.tail_deficit,
            "deficit_ok": result.deficit_ok,
            "dominant_block": label.block_id,
            "dominant_gap_period": gap_period,
            "block_weights": result.block_weights,
            "incommensurability": incomm,
        },
    )
    print(
        f"dynamics: {samples} samples in {elapsed:.2f}s -> {outdir}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_meanfield(cfg: dict, digest: str, args) -> int:
    from .dynamics import meanfield_trajectory

    mf = _require(cfg, "meanfield")
    for key in ("p0", "q0", "tspan", "dt"):
        if key not in mf:
            raise ConfigError(f"meanfield.{key} is required")
    tasks = _model_tasks(cfg)
    bid, block, psi, params = tasks[0]
    t0 = time.perf_counter()
    traj = meanfield_trajectory(
        block,
        psi,
        params,
        p0=float(mf["p0"]),
        q0=float(mf["q0"]),
        tspan=float(mf["tspan"]),
        dt=float(mf["dt"]),
    )
    elapsed = time.perf_counter() - t0
    e0 = float(traj.energy[0])
    drift = float(np.max(np.abs(traj.energy - e0)))
    rows = list(
        zip(
            (float(t) for t in traj.times),
            (float(p) for p in traj.p),
            (float(q) for q in traj.q),
            (float(e) for e in traj.energy),
        )
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "meanfield.csv", digest, ("t", "p", "q", "energy"), rows)
    _write_json(
        outdir / "meanfield.json",
        {
            "config_sha256": digest,
            "block_id": bid,
            "clamped": traj.clamped,
            "energy_initial": e0,
            "energy_drift_abs": drift,
            "energy_drift_rel": drift / max(abs(e0), 1e-30),
        },
    )
    print(
        f"meanfield: {len(traj.times) - 1} steps in {elapsed:.2f}s -> {outdir}",
        file=sys.stderr,
    )
    return EXIT_OK


def _shifted_psi(psi: StructureFunction, shift: float) -> StructureFunction:
    roots = list(psi.roots)
    roots[-1] = float(roots[-1]) + shift
    return StructureFunction(leading=float(psi.leading), roots=tuple(roots))


def _check_commutators(fault_shift: float):
    labels = [
        BlockLabel(k=0, m=1),
        BlockLabel(k=0, m=5),
        BlockLabel(k=2, m=4, sign=1),
        BlockLabel(k=3, m=6, sign=-1),
    ]
    worst = 0.0
    for lab in labels:
        psi, l0 = psi3_for_block(lab)
        block, _ = build_model_block(lab)
        psi_used = _shifted_psi(psi, fault_shift) if fault_shift else psi
        v0, vp, vm = block_operators(block, psi_used)
        scale = max(
            1.0, max(abs(float(psi(block.l0 + v))) for v in range(block.dim + 1))
        )
        x = np.arange(block.dim, dtype=float) + block.l0
        dpsi = np.diag([float(psi(xi + 1)) - float(psi(xi)) for xi in x])
        pv = np.diag([float(psi(xi)) for xi in x])
        r1 = np.max(np.abs(v0 @ vp - vp @ v0 - vp))
        r2 = np.max(np.abs(vm @ vp - vp @ vm - dpsi))
        r3 = np.max(np.abs(vp @ vm - pv))
        worst = max(worst, max(r1, r2, r3) / scale)
    return worst <= 1e-10, worst


def _check_oracle_equivalence():
    rng = np.random.default_rng(11)
    worst = 0.0
    for lab in (BlockLabel(0, 6), BlockLabel(1, 9, -1), BlockLabel(4, 12, 1)):
        block, psi = build_model_block(lab)
        params = HamiltonianParams(
            a=float(rng.uniform(-2, 2)),
            g_mod=float(rng.uniform(0.2, 2.0)),
            g_phase=float(rng.uniform(0, 2 * math.pi)),
            constant=float(rng.uniform(-1, 1)),
        )
        tri = build_hamiltonian(block, psi, params)
        e1 = eigensolve(tri).energies
        e2 = spectral_polynomial_roots(tri)
        radius = max(tri.norm_bound(), 1.0)
        worst = max(worst, float(np.max(np.abs(e1 - e2))) / radius)
    return worst <= 1e-8, worst


def _check_sl2_reduction():
    worst = 0.0
    for j in (0.5, 1.0, 2.0):
        psi, l0 = _sl2_structure(j)
        block = build_block(psi, float(l0))
        for a, g in ((0.0, 1.0), (1.5, 0.7)):
            params = HamiltonianParams(a=a, g_mod=g)
            sol = variational_spectrum(block, psi, params)
            omega = math.hypot(a, 2 * g)
            exact = [(-j + v) * omega + a * (float(l0) + j) for v in range(block.dim)]
            worst = max(
                worst,
                max(abs(x - y) for x, y in zip(sol.energies, exact)),
            )
    return worst <= 1e-8, worst


def _check_unitarity():
    lab = BlockLabel(0, 7)
    block, psi = build_model_block(lab)
    params = HamiltonianParams(a=0.3, g_mod=1.1, g_phase=0.4)
    spec = eigensolve(build_hamiltonian(block, psi, params))
    rng = np.random.default_rng(5)
    c0 = rng.normal(size=block.dim) + 1j * rng.normal(size=block.dim)
    c0 /= np.linalg.norm(c0)
    drift = abs(np.linalg.norm(evolve_block(spec, c0, 1e3)) - 1.0)
    c_ab = evolve_block(spec, evolve_block(spec, c0, 13.7), 29.1)
    c_sum = evolve_block(spec, c0, 42.8)
    comp = float(np.max(np.abs(c_ab - c_sum)))
    worst = max(drift, comp)
    return worst <= 1e-10, worst


def _check_recurrence():
    lab = BlockLabel(2, 8, 1)
    block, psi = build_model_block(lab)
    params = HamiltonianParams(a=0.9, g_mod=0.8, g_phase=1.1, constant=0.2)
    tri = build_hamiltonian(block, psi, params)
    spec = eigensolve(tri)
    worst = 0.0
    for e in spec.energies:
        _, res = amplitude_recurrence(tri, float(e))
        worst = max(worst, res / max(tri.norm_bound(), 1.0))
    return worst <= 1e-8, worst


def _check_gcs_norm():
    lab = BlockLabel(0, 9)
    block, _ = build_model_block(lab)
    worst = 0.0
    for v in (0, 3, 9):
        for r in (0.3, 1.0, -0.7):
            c = gcs_overlaps(block, v, r, theta=0.6)
            worst = max(worst, abs(np.linalg.norm(c) - 1.0))
    return worst <= 1e-10, worst


def cmd_verify(cfg: dict, digest: str, args) -> int:
    fault = float(cfg.get("inject_fault", {}).get("psi_root_shift", 0.0))
    checks = [
        ("commutator closure", lambda: _check_commutators(fault)),
        ("eigenvalue oracle equivalence", _check_oracle_equivalence),
        ("sl(2) variational reduction", _check_sl2_reduction),
        ("evolution unitarity + composition", _check_unitarity),
        ("amplitude recurrence closure", _check_recurrence),
        ("coherent overlap normalization", _check_gcs_norm),
    ]
    all_ok = True
    for name, fn in checks:
        try:
            ok, residual = fn()
            detail = f"residual={residual:.3e}" if args.verbose else ""
        except Exception as exc:
            ok, detail = False, f"error: {exc}"
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        line = f"{name:<36} {status}"
        if detail:
            line += f"  {detail}"
        print(line)
    print("verify:", "all checks passed" if all_ok else "FAILURES present")
    return EXIT_OK if all_ok else EXIT_VERIFY


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polysl2",
        description="spectra and dynamics of polynomially deformed sl(2) models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "solve block spectra and write CSV/JSON"),
        ("dynamics", "evolve a prepared state and analyze the signal"),
        ("meanfield", "integrate the classical coherent trajectory"),
        ("verify", "run built-in invariant checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="path to JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--jobs", type=int, default=1, help="worker threads")
        p.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg, digest = _load_config(args.config)
        if args.command != "verify" and not cfg:
            raise ConfigError("--config is required for this command")
        if args.command == "spectrum":
            return cmd_spectrum(cfg, digest, args)
        if args.command == "dynamics":
            return cmd_dynamics(cfg, digest, args)
        if args.command == "meanfield":
            return cmd_meanfield(cfg, digest, args)
        return cmd_verify(cfg, digest, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlockError, RuntimeError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
