"""Command line front end: spectra, dynamics, mean field and self checks.

Configuration is a single JSON document; outputs are CSV for bulk numbers
and JSON for summaries.  Runs are deterministic: identical configs produce
byte-identical files (timings go to stderr, never into outputs), and every
output embeds the sha256 of the config it came from.

The config is parsed once into the immutable Config below.  Every section
is a _Section whose _Key attributes are its allowed keys, with their
defaults and a value kind that rejects bools, strings, non-finite,
non-integral and out-of-range values as ConfigError, before any numerics
run.  A command imports dynamics or reference only when it runs them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (
    MAX_BLOCK_DIM,
    MIN_SAMPLES,
    ROOT_RTOL,
    StructureFunction,
    block_operators,
    build_block,
    eigh_tridiagonal,
    in_block,
    sl2_block,
    su2_rotation,
)
from .solver import (
    HamiltonianParams,
    amplitude_recurrence,
    build_hamiltonian,
    eigensolve,
    sl2_reference_energies,
    spectral_polynomial_roots,
)
from .three_boson import (
    BlockLabel,
    CoherentInput,
    ThreeBosonParams,
    block_constants,
    build_model_block,
    cube_size,
    enumerate_blocks,
    fock_to_block,
)
from .variational import ALPHA_WIDTH, variational_spectra, variational_spectrum

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
# caps the rows of a run: spectrum levels, dynamics samples, mean-field steps
MAX_ROWS = 10**7
_DIM_NOTE = f" (a block holds at most {MAX_BLOCK_DIM} levels)"
# the Fock cube n_i <= ncut holds blocks of up to 2 ncut + 1 levels
MAX_NCUT = (MAX_BLOCK_DIM - 1) // 2
# up to here the three-boson rungs (k - m)/3 + v are exact floats, and the
# float psi on them is within 4e-16 of the exact one; from k ~ 3e16 it is 0
MAX_K = 10**15
_K_NOTE = " (float64 holds the rungs of a three-boson tower up to there)"
# up to here ROOT_RTOL (|x| + |r|) stays below 0.2, so no rung of a custom
# tower is mistaken for a root one level away
MAX_CUSTOM_L0 = 1e11
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
_CUSTOM_L0 = _Kind(
    f"a finite number from {-MAX_CUSTOM_L0:g} to {MAX_CUSTOM_L0:g} (the root "
    "test of a larger rung would merge neighbouring rungs)",
    lambda v: _is_real(v) and abs(v) <= MAX_CUSTOM_L0,
    float,
)
_SIGN = _Kind("1 or -1", lambda v: _is_int(v) and v in (1, -1), int)


class _Key(NamedTuple):
    """A config key: the kind of its value, and its default (... if none)."""

    kind: Callable
    default: object = ...


class _Section(SimpleNamespace):
    """A config section: the _Key attributes of its class, its bases' first,
    are its keys (the table _keys).  It is built from keywords, passes
    _check and is immutable; repr and == are SimpleNamespace's over them."""

    _keys: dict = {}

    def __init_subclass__(cls):
        own = {name: v for name, v in vars(cls).items() if isinstance(v, _Key)}
        cls._keys = {**cls._keys, **own}

    def __init__(self, **values):
        super().__init__(**{n: values.get(n, k.default) for n, k in self._keys.items()})
        self._check()

    def _check(self) -> None:
        """ConfigError unless the keys fit together."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r}: a config is immutable")

    __delattr__ = __setattr__

    @classmethod
    def _read(cls, raw, where: str = ""):
        """The section of a JSON object: known keys only, each checked."""
        if type(raw) is not dict:
            raise ConfigError(f"{where or 'top-level config'} must be a JSON object")
        prefix = f"{where}." if where else ""
        for key in raw:
            if key not in cls._keys:
                raise ConfigError(f"unknown config key: {prefix}{key}")
        values = {}
        for name, key in cls._keys.items():
            if name in raw:
                values[name] = key.kind(raw[name], prefix + name)
            elif key.default is ...:
                raise ConfigError(f"{prefix}{name} is required")
        return cls(**values)

    @classmethod
    def _read_list(cls, raw, where: str):
        if type(raw) is not list:
            raise ConfigError(f"{where} must be a list of objects")
        return tuple(cls._read(x, f"{where}[{i}]") for i, x in enumerate(raw))


def _either(section: str, **keys) -> None:
    """ConfigError unless exactly one of the two keys of a section is set."""
    (a, va), (b, vb) = keys.items()
    if va is None and vb is None:
        raise ConfigError(f"{section} section needs '{a}' or '{b}'")
    if va is not None and vb is not None:
        raise ConfigError(f"{section} section sets both '{a}' and '{b}'; give one")


class ThreeBosonConfig(_Section):
    omega1: float = _Key(_real())
    omega2: float = _Key(_real())
    omega3: float = _Key(_real())
    g: complex = _Key(_COMPLEX)

    def params(self) -> ThreeBosonParams:
        return ThreeBosonParams(self.omega1, self.omega2, self.omega3, self.g)


class _Coupling(_Section):
    a: float = _Key(_real(), 0.0)
    g: complex = _Key(_COMPLEX, 0j)
    constant: float = _Key(_real(), 0.0)

    def params(self) -> HamiltonianParams:
        return HamiltonianParams.from_coupling(self.a, self.g, self.constant)


class Sl2LimitConfig(_Coupling):
    j: float = _Key(_HALF_INTEGER)


class CustomPsiConfig(_Coupling):
    roots: tuple = _Key(_list(_real()))
    l0: float = _Key(_CUSTOM_L0)
    leading: float = _Key(_real(), 1.0)


class LabelConfig(_Section):
    k: int = _Key(_int(0, MAX_K, _K_NOTE), 0)
    m: int = _Key(_int(0, MAX_BLOCK_DIM - 1, _DIM_NOTE), 0)
    sign: int = _Key(_SIGN, 1)


class BlocksConfig(_Section):
    """Explicit labels, or every block of the Fock cube n_i <= ncut."""

    ncut: int | None = _Key(_int(0, MAX_NCUT, _DIM_NOTE), None)
    labels: tuple | None = _Key(LabelConfig._read_list, None)

    def _check(self):
        _either("blocks", labels=self.labels, ncut=self.ncut)

    def block_labels(self) -> list:
        if self.labels is None:
            return enumerate_blocks(self.ncut)
        return [BlockLabel(lab.k, lab.m, lab.sign) for lab in self.labels]

    def size(self) -> tuple[int, int]:
        """(blocks, levels) selected; a cube is counted, never listed."""
        if self.labels is None:
            return cube_size(self.ncut)
        return len(self.labels), sum(lab.m + 1 for lab in self.labels)


class DynamicsConfig(_Section):
    """A coherent input (alpha, ncut) or a Fock input."""

    alpha: tuple | None = _Key(_list(_COMPLEX, 3), None)
    fock: tuple | None = _Key(_list(_int(0), 3), None)
    ncut: int = _Key(_int(1, MAX_NCUT, _DIM_NOTE), 20)
    tmax: float = _Key(_real(0.0), 100.0)
    samples: int = _Key(_int(MIN_SAMPLES, MAX_ROWS), 10001)

    def _check(self):
        _either("dynamics", alpha=self.alpha, fock=self.fock)
        if self.fock:
            label = fock_to_block(*self.fock)[0]
            where = f"dynamics.fock = {list(self.fock)} lies in block {label.block_id}"
            if label.dim > MAX_BLOCK_DIM:
                raise ConfigError(
                    f"{where} of {label.dim} levels; "
                    f"a block holds at most {MAX_BLOCK_DIM}"
                )
            if label.k > MAX_K:
                raise ConfigError(
                    f"{where} with k = {label.k}; k is at most {MAX_K}{_K_NOTE}"
                )
        for i, a in enumerate(self.alpha or ()):
            # the mean occupation |alpha|^2 must be a float for the tail
            # deficit and the Poisson weights
            if not math.isfinite(a.real * a.real + a.imag * a.imag):
                raise ConfigError(
                    f"dynamics.alpha[{i}] = {a} has |alpha|^2 beyond the float range"
                )


class MeanfieldConfig(_Section):
    p0: float = _Key(_real())
    q0: float = _Key(_real())
    tspan: float = _Key(_real())
    dt: float = _Key(_real(0.0, above=True))

    def _check(self):
        # the integrator takes round(|tspan| / dt) RK4 steps
        steps = abs(self.tspan) / self.dt
        if not steps <= MAX_ROWS + 0.5:
            raise ConfigError(
                f"meanfield.tspan / meanfield.dt asks for {steps:.3g} RK4 steps; "
                f"at most {MAX_ROWS:.0e} are allowed"
            )


class Config(_Section):
    model: str | None = _Key(_one_of("three_boson", "sl2_limit", "custom_psi"), None)
    solver: str = _Key(_one_of("exact", "variational", "sl2_reference", "all"), "all")
    three_boson: ThreeBosonConfig | None = _Key(ThreeBosonConfig._read, None)
    custom_psi: CustomPsiConfig | None = _Key(CustomPsiConfig._read, None)
    sl2_limit: Sl2LimitConfig | None = _Key(Sl2LimitConfig._read, None)
    blocks: BlocksConfig | None = _Key(BlocksConfig._read, None)
    dynamics: DynamicsConfig | None = _Key(DynamicsConfig._read, None)
    meanfield: MeanfieldConfig | None = _Key(MeanfieldConfig._read, None)

    def need(self, key: str):
        """The value of a top-level key that this command cannot do without."""
        value = getattr(self, key)
        if value is None:
            raise ConfigError(f"missing config key {key!r}")
        return value


def parse_config(obj) -> Config:
    """Validate a decoded JSON document; anything malformed is a ConfigError."""
    return Config._read(obj)


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


def _model_tasks(cfg: Config):
    """Blocks to solve, yielded one at a time as (block_id, block, psi, params)."""
    model = cfg.need("model")
    sect = cfg.need(model)
    if model == "sl2_limit":
        yield (f"sl2_j{sect.j}", *sl2_block(sect.j), sect.params())
    elif model == "custom_psi":
        psi = StructureFunction(leading=sect.leading, roots=sect.roots)
        with in_block("custom"):
            block = build_block(psi, sect.l0)
        yield ("custom", block, psi, sect.params())
    else:
        params3 = sect.params()
        for lab in cfg.need("blocks").block_labels():
            yield (lab.block_id, *build_model_block(lab), block_constants(lab, params3))


_SPECTRUM_HEADER = (
    "block_id v E_exact E_variational E_sl2ref abs_err_var abs_err_sl2 "
    "alpha_selected residual"
).split()


def _solve_blocks(tasks, solver: str, coupled: bool) -> list:
    """The CSV columns and the JSON summary entry of each block, in order.

    Each block is built as the tasks arrive.  Bit-equal Hamiltonians (equal
    TridiagonalHamiltonian.key) share the solution of the first of them:
    it is solved exactly as it arrives, and one variational_spectra batch
    of the first ones solves a coupled run.  The sl(2) reference follows
    block by block.  The error raised is that of the first failing block
    in task order, as if each block were solved in full before the next
    was built.
    """
    run_exact = solver in ("exact", "all")
    run_var = solver in ("variational", "all") and coupled
    empty = np.empty(0)
    built, shared, failure = [], {}, None  # key -> [tri, exact, sol] of its first
    try:
        for bid, block, psi, params in tasks:
            key, exact = None, empty
            with in_block(bid):
                if run_exact or run_var:  # one Hamiltonian serves both solvers
                    tri = build_hamiltonian(block, psi, params)
                    key = tri.key()
                    if run_exact and key not in shared:
                        exact = eigh_tridiagonal(
                            tri.diag, tri.offdiag, eigvals_only=True
                        )
                    shared.setdefault(key, [tri, exact, None])
            built.append((bid, block, params, key))
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        failure = exc  # raised once the blocks before it are solved
    sols = variational_spectra([t for t, *_ in shared.values()]) if run_var else None
    solved = []
    for bid, block, params, key in built:
        with in_block(bid):
            _, exact, sol = entry = shared.get(key, [None, empty, None])
            if run_var and sol is None:  # the first of its key: the batch's next
                sol = entry[2] = next(sols)
            sl2 = empty
            if solver in ("sl2_reference", "all"):
                sl2 = sl2_reference_energies(block, params)
        solved.append(_block_columns(bid, block.dim, solver, coupled, exact, sol, sl2))
    if failure is not None:
        raise failure
    return solved


def _block_columns(bid, d, solver, coupled, exact, sol, sl2):
    """The nine CSV columns and the JSON summary entry of one solved block.

    The solver and whether the model's one coupling g is nonzero decide
    the columns of the whole run.  A column the run does not compute, such
    as the four variational ones at g = 0, is an empty array.
    """
    entry = {"block_id": bid, "dim": d}
    var = alpha = residual = empty = np.empty(0)
    if solver in ("variational", "all") and not coupled:
        entry["variational_skipped"] = "g = 0 (exact solver covers it)"
    elif sol is not None:
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
    model = cfg.need("model")
    coupled = cfg.need(model).g != 0  # one coupling for every block
    if model == "three_boson":  # the other models have exactly one block
        rows = cfg.need("blocks").size()[1]
        if rows > MAX_ROWS:
            raise ConfigError(
                f"blocks selects {rows} spectrum rows; "
                f"at most {MAX_ROWS:.0e} are allowed"
            )
    t0 = time.perf_counter()
    solved = _solve_blocks(_model_tasks(cfg), cfg.solver, coupled)
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
    note = f"{len(solved)} block(s) in {elapsed:.2f}s"
    _write_outputs(args, "spectrum", digest, _SPECTRUM_HEADER, columns, summary, note)
    return EXIT_OK


def cmd_dynamics(cfg: Config, digest: str, args) -> int:
    from .dynamics import WEIGHT_FLOOR, detect_collapse_revival, fock_signal
    from .dynamics import incommensurability_measure, rabi_signal
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
    label, energies = result.dominant_label, result.dominant_energies
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
        incomm = asdict(incommensurability_measure(energies))
    except ValueError:  # fewer than three distinct levels: no spacing ratio
        incomm = None
    gap_period = None
    if energies.size >= 2:
        gap = float(energies[1] - energies[0])
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
    from .dynamics import meanfield_trajectory
    mf = cfg.need("meanfield")
    if cfg.model == "three_boson":  # the other models have exactly one block
        count = cfg.need("blocks").size()[0]
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
    with in_block(bid):
        tri = build_hamiltonian(block, psi, params)
        traj = meanfield_trajectory(tri, p0=mf.p0, q0=mf.q0, tspan=mf.tspan, dt=mf.dt)
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
        block, psi = sl2_block(j)
        for a, g in ((0.0, 1.0), (1.5, 0.7)):
            params = HamiltonianParams(a=a, g_mod=g)
            sol = variational_spectrum(build_hamiltonian(block, psi, params))
            exact = sl2_reference_energies(block, params)
            worst = max(worst, max(abs(x - y) for x, y in zip(sol.energies, exact)))
    return worst <= 1e-8, worst


def _check_unitarity():
    from .dynamics import evolve_block
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
    from .reference import gcs_overlaps
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


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as the CLI prints it: "warning: <message>", no source line."""
    return f"warning: {message}\n"


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

    formatwarning, warnings.formatwarning = warnings.formatwarning, _one_line_warning
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
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
