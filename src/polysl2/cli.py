"""Command line front end: spectra, dynamics, mean field and self checks.

Configuration is a single JSON document; outputs are CSV for bulk numbers
and JSON for summaries.  Runs are deterministic: identical configs produce
byte-identical files (timings go to stderr, never into outputs), and every
output embeds the sha256 of the config it came from.

The config is parsed once into the frozen Config below.  Every section is
a dataclass whose fields are its allowed keys, with their defaults and a
value kind that rejects bools, strings, non-finite, non-integral and
out-of-range values as ConfigError, before any numerics run.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (
    MAX_BLOCK_DIM,
    ROOT_RTOL,
    Block,
    BlockError,
    StructureFunction,
    block_operators,
    build_block,
    su2_rotation,
)
from .dynamics import (
    MIN_SAMPLES,
    WEIGHT_FLOOR,
    detect_collapse_revival,
    evolve_block,
    fock_signal,
    incommensurability_measure,
    meanfield_trajectory,
    rabi_signal,
)
from .solver import (
    HamiltonianParams,
    _lower,
    amplitude_recurrence,
    build_hamiltonian,
    eigensolve,
    sl2_reference_energies,
    spectral_polynomial_roots,
)
from .reference import gcs_overlaps
from .three_boson import (
    BlockLabel,
    CoherentInput,
    ThreeBosonParams,
    block_constants,
    build_model_block,
    enumerate_blocks,
    fock_to_block,
)
from .variational import ALPHA_WIDTH, variational_spectrum

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
MAX_MEANFIELD_STEPS = 10**7  # also caps the dynamics samples
_DIM_NOTE = f" (a block holds at most {MAX_BLOCK_DIM} levels)"
# the Fock cube n_i <= ncut holds blocks of up to 2 ncut + 1 levels
MAX_NCUT = (MAX_BLOCK_DIM - 1) // 2
# CSV rows formatted at a time: the text of a file is never held whole
_CSV_ROWS = 128


class ConfigError(Exception):
    pass


def _is_real(v) -> bool:
    """A finite JSON number; bools do not count as numbers."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_int(v) -> bool:
    return type(v) is int or (type(v) is float and v.is_integer())


class _Kind(NamedTuple):
    """What a value must be, the test for it and the cast to its type."""

    what: str
    ok: Callable[[object], bool]
    cast: Callable

    def __call__(self, value, where: str):
        if not self.ok(value):
            raise ConfigError(f"{where} must be {self.what}")
        return self.cast(value)


def _real(lo: float = -math.inf, above: bool = False) -> _Kind:
    bound = "" if lo == -math.inf else f" {'>' if above else '>='} {lo:g}"
    return _Kind(
        "a finite number" + bound,
        lambda v: _is_real(v) and (v > lo if above else v >= lo),
        float,
    )


def _int(lo: int, hi: int | None = None, note: str = "") -> _Kind:
    if hi is None:
        return _Kind(f"an integer >= {lo}", lambda v: _is_int(v) and v >= lo, int)
    return _Kind(
        f"an integer from {lo} to {hi}{note}",
        lambda v: _is_int(v) and lo <= v <= hi,
        int,
    )


def _one_of(*choices: str) -> _Kind:
    what = "one of " + ", ".join(choices)
    return _Kind(what, lambda v: type(v) is str and v in choices, str)


def _list(kind: _Kind, n: int | None = None) -> _Kind:
    return _Kind(
        f"a list of {'' if n is None else f'{n} '}values, each {kind.what}",
        lambda v: type(v) is list
        and (n is None or len(v) == n)
        and all(map(kind.ok, v)),
        lambda v: tuple(map(kind.cast, v)),
    )


_COMPLEX = _Kind(
    "a finite number or [re, im] pair",
    lambda v: _is_real(v)
    or (type(v) is list and len(v) == 2 and all(map(_is_real, v))),
    lambda v: complex(*v) if type(v) is list else complex(v),
)
_HALF_INTEGER = _Kind(
    f"a half-integer from 0 to {(MAX_BLOCK_DIM - 1) / 2:g}{_DIM_NOTE}",
    lambda v: _is_real(v)
    and 0 <= v <= (MAX_BLOCK_DIM - 1) / 2
    and float(2 * v).is_integer(),
    float,
)
_SIGN = _Kind("1 or -1", lambda v: _is_int(v) and v in (1, -1), int)


def _key(kind, default=MISSING):
    return field(default=default, metadata={"kind": kind})


def _read(cls, raw, where: str = ""):
    """Build section cls from a JSON object: known keys only, each checked."""
    if type(raw) is not dict:
        raise ConfigError(f"{where or 'top-level config'} must be a JSON object")
    prefix = f"{where}." if where else ""
    known = {f.name: f for f in fields(cls)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key: {prefix}{key}")
    values = {}
    for name, f in known.items():
        if name in raw:
            values[name] = f.metadata["kind"](raw[name], prefix + name)
        elif f.default is MISSING:
            raise ConfigError(f"{prefix}{name} is required")
    return cls(**values)


def _either(section: str, **keys) -> None:
    """ConfigError unless exactly one of the two keys of a section is set."""
    (a, va), (b, vb) = keys.items()
    if va is None and vb is None:
        raise ConfigError(f"{section} section needs '{a}' or '{b}'")
    if va is not None and vb is not None:
        raise ConfigError(f"{section} section sets both '{a}' and '{b}'; give one")


def _sections(cls):
    def read(raw, where):
        if type(raw) is not list:
            raise ConfigError(f"{where} must be a list of objects")
        return tuple(_read(cls, x, f"{where}[{i}]") for i, x in enumerate(raw))

    return read


@dataclass(frozen=True, kw_only=True)
class ThreeBosonConfig:
    omega1: float = _key(_real())
    omega2: float = _key(_real())
    omega3: float = _key(_real())
    g: complex = _key(_COMPLEX)

    def params(self) -> ThreeBosonParams:
        return ThreeBosonParams(self.omega1, self.omega2, self.omega3, self.g)


@dataclass(frozen=True, kw_only=True)
class _Coupling:
    a: float = _key(_real(), 0.0)
    g: complex = _key(_COMPLEX, 0j)
    constant: float = _key(_real(), 0.0)

    def params(self) -> HamiltonianParams:
        phase = cmath.phase(self.g) if self.g != 0 else 0.0
        return HamiltonianParams(self.a, abs(self.g), phase, self.constant)


@dataclass(frozen=True, kw_only=True)
class Sl2LimitConfig(_Coupling):
    j: float = _key(_HALF_INTEGER)


@dataclass(frozen=True, kw_only=True)
class CustomPsiConfig(_Coupling):
    roots: tuple = _key(_list(_real()))
    l0: float = _key(_real())
    leading: float = _key(_real(), 1.0)


@dataclass(frozen=True, kw_only=True)
class LabelConfig:
    k: int = _key(_int(0), 0)
    m: int = _key(_int(0, MAX_BLOCK_DIM - 1, _DIM_NOTE), 0)
    sign: int = _key(_SIGN, 1)


@dataclass(frozen=True, kw_only=True)
class BlocksConfig:
    """Explicit labels, or every block of the Fock cube n_i <= ncut."""

    ncut: int | None = _key(_int(0, MAX_NCUT, _DIM_NOTE), None)
    labels: tuple | None = _key(_sections(LabelConfig), None)

    def __post_init__(self):
        _either("blocks", labels=self.labels, ncut=self.ncut)

    def block_labels(self) -> list:
        if self.labels is None:
            return enumerate_blocks(self.ncut)
        return [BlockLabel(lab.k, lab.m, lab.sign) for lab in self.labels]


@dataclass(frozen=True, kw_only=True)
class DynamicsConfig:
    """A coherent input (alpha, ncut) or a Fock input."""

    alpha: tuple | None = _key(_list(_COMPLEX, 3), None)
    fock: tuple | None = _key(_list(_int(0), 3), None)
    ncut: int = _key(_int(1, MAX_NCUT, _DIM_NOTE), 20)
    tmax: float = _key(_real(0.0), 100.0)
    samples: int = _key(_int(MIN_SAMPLES, MAX_MEANFIELD_STEPS), 10001)

    def __post_init__(self):
        _either("dynamics", alpha=self.alpha, fock=self.fock)
        if self.fock and (label := fock_to_block(*self.fock)[0]).dim > MAX_BLOCK_DIM:
            raise ConfigError(
                f"dynamics.fock = {list(self.fock)} lies in block {label.block_id} "
                f"of {label.dim} levels; a block holds at most {MAX_BLOCK_DIM}"
            )
        for i, a in enumerate(self.alpha or ()):
            # the mean occupation |alpha|^2 must be a float for the tail
            # deficit and the Poisson weights
            if not math.isfinite(a.real * a.real + a.imag * a.imag):
                raise ConfigError(
                    f"dynamics.alpha[{i}] = {a} has |alpha|^2 beyond the float range"
                )


@dataclass(frozen=True, kw_only=True)
class MeanfieldConfig:
    p0: float = _key(_real())
    q0: float = _key(_real())
    tspan: float = _key(_real())
    dt: float = _key(_real(0.0, above=True))

    def __post_init__(self):
        # the integrator takes round(|tspan| / dt) RK4 steps
        steps = abs(self.tspan) / self.dt
        if not steps <= MAX_MEANFIELD_STEPS + 0.5:
            raise ConfigError(
                f"meanfield.tspan / meanfield.dt asks for {steps:.3g} RK4 steps; "
                f"at most {MAX_MEANFIELD_STEPS:.0e} are allowed"
            )


@dataclass(frozen=True, kw_only=True)
class Config:
    model: str | None = _key(_one_of("three_boson", "sl2_limit", "custom_psi"), None)
    solver: str = _key(_one_of("exact", "variational", "sl2_reference", "all"), "all")
    three_boson: ThreeBosonConfig | None = _key(partial(_read, ThreeBosonConfig), None)
    custom_psi: CustomPsiConfig | None = _key(partial(_read, CustomPsiConfig), None)
    sl2_limit: Sl2LimitConfig | None = _key(partial(_read, Sl2LimitConfig), None)
    blocks: BlocksConfig | None = _key(partial(_read, BlocksConfig), None)
    dynamics: DynamicsConfig | None = _key(partial(_read, DynamicsConfig), None)
    meanfield: MeanfieldConfig | None = _key(partial(_read, MeanfieldConfig), None)

    def need(self, key: str):
        """The value of a top-level key that this command cannot do without."""
        value = getattr(self, key)
        if value is None:
            raise ConfigError(f"missing config key {key!r}")
        return value


def parse_config(obj) -> Config:
    """Validate a decoded JSON document; anything malformed is a ConfigError."""
    return _read(Config, obj)


def _load_config(path):
    if path is None:
        return Config(), hashlib.sha256(b"").hexdigest()
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        obj = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return parse_config(obj), hashlib.sha256(raw).hexdigest()


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


def _first_non_finite(column: np.ndarray):
    """Row of the first non-finite cell of a float column, or None."""
    if column.dtype.kind != "f":
        return None
    bad = np.flatnonzero(~np.isfinite(column))
    return int(bad[0]) if bad.size else None


def _write_csv(path: Path, digest: str, header, columns) -> None:
    """Write the CSV from its columns, one numpy array each.

    Every cell is the str of its tolist() item (a Python float's str is its
    repr), and a column shorter than the longest ends in empty cells.  A
    non-finite float raises RuntimeError naming the first in reading order,
    before any text is made, and nothing is written.  Rows are formatted
    _CSV_ROWS at a time, so the text is never held whole.
    """
    bad = [
        (row, name, col)
        for name, col in zip(header, columns)
        if (row := _first_non_finite(col)) is not None
    ]
    if bad:
        row, name, col = min(bad, key=lambda b: b[0])
        raise RuntimeError(f"{path.name}: column {name} holds {col[row]}")
    n = max(map(len, columns), default=0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(f"# config sha256: {digest}\n{','.join(header)}\n")
        for start in range(0, n, _CSV_ROWS):
            rows = min(_CSV_ROWS, n - start)
            cells = []
            for col in columns:
                part = list(map(str, col[start : start + rows].tolist()))
                cells.append(part + [""] * (rows - len(part)))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_outputs(args, name, digest, header, columns, summary, note):
    """<out>/<name>.csv and <out>/<name>.json, both stamped with the digest."""
    outdir = Path(args.out)
    _write_csv(outdir / f"{name}.csv", digest, header, columns)
    _write_json(outdir / f"{name}.json", {"config_sha256": digest, **summary})
    print(f"{name}: {note} -> {outdir}", file=sys.stderr)


def _sl2_block(j: float):
    """The spin-j block, 2j + 1 levels from l0 = -j, and psi_2(x) = (j+x)(j+1-x)."""
    jf = Fraction(j)
    psi = StructureFunction(leading=Fraction(-1), roots=(-jf, jf + 1))
    return Block(float(-jf), int(2 * j) + 1), psi


def _model_tasks(cfg: Config):
    """Blocks to solve: list of (block_id, block, psi, params)."""
    model = cfg.need("model")
    sect = cfg.need(model)
    if model == "sl2_limit":
        return [(f"sl2_j{sect.j}", *_sl2_block(sect.j), sect.params())]
    if model == "custom_psi":
        psi = StructureFunction(leading=sect.leading, roots=sect.roots)
        block = build_block(psi, sect.l0)
        return [("custom", block, psi, sect.params())]
    params3 = sect.params()
    return [
        (lab.block_id, *build_model_block(lab), block_constants(lab, params3))
        for lab in cfg.need("blocks").block_labels()
    ]


_SPECTRUM_HEADER = (
    "block_id v E_exact E_variational E_sl2ref abs_err_var abs_err_sl2 "
    "alpha_selected residual"
).split()


def _solve_block(task, solver: str, coupled: bool):
    """The CSV columns and the JSON summary entry of one block.

    The solver and whether the model's one coupling g is nonzero decide
    the columns of the whole run.  A column the run does not compute, such
    as the four variational ones at g = 0, is an empty array.
    """
    bid, block, psi, params = task
    d = block.dim
    entry = {"block_id": bid, "dim": d}
    exact = var = sl2 = alpha = residual = empty = np.empty(0)
    variational = solver in ("variational", "all")
    try:
        if solver in ("exact", "all"):
            tri = build_hamiltonian(block, psi, params)
            exact = np.linalg.eigvalsh(_lower(tri), UPLO="L")  # no vectors to print
        if variational and coupled:
            sol = variational_spectrum(block, psi, params)
        if solver in ("sl2_reference", "all"):
            sl2 = sl2_reference_energies(block, params)
    except (BlockError, RuntimeError, ValueError) as exc:
        raise RuntimeError(f"block {bid}: {exc}") from exc
    if variational and not coupled:
        entry["variational_skipped"] = "g = 0 (exact solver covers it)"
    elif variational:
        selected = sol.alpha_roots.index(sol.alpha_selected)
        entry.update(
            alpha_roots=list(sol.alpha_roots),
            alpha_selected=sol.alpha_selected,
            residuals=list(sol.residuals),
            ordering_ok=sol.ordering_ok,
        )
        var = np.array(sol.energies, dtype=float)
        alpha = np.full(d, sol.alpha_selected)
        residual = np.full(d, sol.residuals[selected])
    both = solver == "all"
    columns = (
        np.full(d, bid),
        np.arange(d),
        exact,
        var,
        sl2,
        np.abs(var - exact) if both and coupled else empty,
        np.abs(sl2 - exact) if both else empty,
        alpha,
        residual,
    )
    return columns, entry


def cmd_spectrum(cfg: Config, digest: str, args) -> int:
    tasks = _model_tasks(cfg)
    coupled = cfg.need(cfg.model).g != 0  # one coupling for every block
    t0 = time.perf_counter()
    solved = [_solve_block(t, cfg.solver, coupled) for t in tasks]
    elapsed = time.perf_counter() - t0
    columns = [np.concatenate(col) for col in zip(*(cols for cols, _ in solved))]
    summary_blocks = [entry for _, entry in solved]
    summary = {
        "model": cfg.model,
        "solver": cfg.solver,
        "blocks": summary_blocks,
        "tolerances": {
            "alpha_bisection_width": ALPHA_WIDTH,
            "root_detection_rtol": ROOT_RTOL,
        },
    }
    note = f"{len(tasks)} block(s) in {elapsed:.2f}s"
    _write_outputs(args, "spectrum", digest, _SPECTRUM_HEADER, columns, summary, note)
    return EXIT_OK


def cmd_dynamics(cfg: Config, digest: str, args) -> int:
    if cfg.model != "three_boson":
        raise ConfigError("dynamics requires model = three_boson")
    params3 = cfg.need("three_boson").params()
    dyn = cfg.need("dynamics")
    times = np.linspace(0.0, dyn.tmax, dyn.samples)
    t0 = time.perf_counter()
    if dyn.fock is not None:
        result = fock_signal(dyn.fock, params3, times)
    else:
        result = rabi_signal(CoherentInput(*dyn.alpha, dyn.ncut), params3, times)
    signal = result.signal
    label, spec = result.dominant_label, result.dominant_spectrum
    if label is None:
        occupations = ", ".join(f"{abs(a) ** 2:.3g}" for a in dyn.alpha)
        raise RuntimeError(
            f"no block carries weight above {WEIGHT_FLOOR:.0e}: dynamics.alpha "
            f"has mean occupations ({occupations}), and the cube n_i <= "
            f"dynamics.ncut = {dyn.ncut} leaves a tail deficit of "
            f"{result.tail_deficit:.3e}"
        )
    report = detect_collapse_revival(signal)
    elapsed = time.perf_counter() - t0

    try:
        incomm = asdict(incommensurability_measure(spec.energies))
    except ValueError:  # fewer than three distinct levels: no spacing ratio
        incomm = None
    gap_period = None
    if spec.energies.size >= 2:
        gap = float(spec.energies[1] - spec.energies[0])
        if gap > 0:
            gap_period = 2.0 * math.pi / gap

    env = np.empty(0) if report.envelope is None else report.envelope.values
    columns = (signal.times, signal.values, env)
    summary = {
        "oscillating": report.oscillating,
        "carrier_frequency": report.carrier_frequency,
        "carrier_period": (
            2.0 * math.pi / report.carrier_frequency if report.oscillating else None
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
    }
    note = f"{dyn.samples} samples in {elapsed:.2f}s"
    header = ("t", "n3_mean", "envelope")
    _write_outputs(args, "dynamics", digest, header, columns, summary, note)
    return EXIT_OK


def cmd_meanfield(cfg: Config, digest: str, args) -> int:
    mf = cfg.need("meanfield")
    if cfg.model == "three_boson":  # the other models have exactly one block
        blocks = cfg.need("blocks")  # a cube holds 3 n (n + 1) + 1: never list it
        n = blocks.ncut
        count = 3 * n * (n + 1) + 1 if blocks.labels is None else len(blocks.labels)
        if count != 1:
            raise ConfigError(
                f"meanfield needs exactly one block; the config selects {count}"
            )
    [(bid, block, psi, params)] = _model_tasks(cfg)
    if abs(mf.p0) > block.j:
        raise ConfigError(
            f"meanfield.p0 = {mf.p0} lies outside |p| <= j = {block.j} "
            f"of block {bid}"
        )
    t0 = time.perf_counter()
    traj = meanfield_trajectory(
        block, psi, params, p0=mf.p0, q0=mf.q0, tspan=mf.tspan, dt=mf.dt
    )
    elapsed = time.perf_counter() - t0
    e0 = float(traj.energy[0])
    drift = float(np.max(np.abs(traj.energy - e0)))
    columns = (traj.times, traj.p, traj.q, traj.energy)
    summary = {
        "block_id": bid,
        "clamped": traj.clamped,
        "energy_initial": e0,
        "energy_drift_abs": drift,
        "energy_drift_rel": drift / max(abs(e0), 1e-30),
    }
    note = f"{len(traj.times) - 1} steps in {elapsed:.2f}s"
    header = ("t", "p", "q", "energy")
    _write_outputs(args, "meanfield", digest, header, columns, summary, note)
    return EXIT_OK


def _check_commutators():
    worst = 0.0
    for k, m, sign in ((0, 1, 1), (0, 5, 1), (2, 4, 1), (3, 6, -1)):
        block, psi = build_model_block(BlockLabel(k, m, sign))
        v0, vp, vm = block_operators(block, psi)
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
        block, psi = _sl2_block(j)
        for a, g in ((0.0, 1.0), (1.5, 0.7)):
            params = HamiltonianParams(a=a, g_mod=g)
            sol = variational_spectrum(block, psi, params)
            exact = sl2_reference_energies(block, params)
            worst = max(worst, max(abs(x - y) for x, y in zip(sol.energies, exact)))
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


def _check_rotation():
    """su2_rotation columns against the exact rational overlaps."""
    block, _ = build_model_block(BlockLabel(0, 9))
    worst = 0.0
    for r in (0.3, 1.0, -0.7):
        rot = su2_rotation(block.dim, r)
        for v in (0, 3, 9):
            exact = gcs_overlaps(block, v, r, theta=0.0)
            worst = max(worst, float(np.max(np.abs(rot[:, v] - exact))))
    return worst <= 1e-10, worst


def cmd_verify(cfg: Config, digest: str, args) -> int:
    checks = [
        ("commutator closure", _check_commutators),
        ("eigenvalue oracle equivalence", _check_oracle_equivalence),
        ("sl(2) variational reduction", _check_sl2_reduction),
        ("evolution unitarity + composition", _check_unitarity),
        ("amplitude recurrence closure", _check_recurrence),
        ("su(2) rotation vs exact overlaps", _check_rotation),
    ]
    all_ok = True
    for name, fn in checks:
        try:
            ok, residual = fn()
            detail = f"residual={residual:.3e}"
        except Exception as exc:
            ok, detail = False, f"error: {exc}"
        all_ok &= ok
        print(f"{name:<36} {'PASS' if ok else 'FAIL'}  {detail}")
    print("verify:", "all checks passed" if all_ok else "FAILURES present")
    return EXIT_OK if all_ok else EXIT_VERIFY


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polysl2",
        description="spectra and dynamics of polynomially deformed sl(2) models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command, help_text in (
        ("spectrum", cmd_spectrum, "solve block spectra and write CSV/JSON"),
        ("dynamics", cmd_dynamics, "evolve a prepared state and analyze the signal"),
        ("meanfield", cmd_meanfield, "integrate the classical coherent trajectory"),
        ("verify", cmd_verify, "run built-in invariant checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(command_fn=command)
        p.add_argument("--config", default=None, help="path to JSON config")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg, digest = _load_config(args.config)
        if args.command != "verify" and args.config is None:
            raise ConfigError("--config is required for this command")
        return args.command_fn(cfg, digest, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
