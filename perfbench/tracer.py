"""Span recorder installed around polysl2's module-level functions at run time.

Nothing under src/ is edited.  Each boundary names a function by its home
module and attribute; the wrapper replaces that function object wherever the
consumer modules (cli, dynamics, variational) hold it, which is where their
call sites look it up.  A boundary whose function no longer exists is
reported as absent instead of failing.

Spans are kept in memory (one thread: the CLI runs blocks serially) and
written once by ``Tracer.dump``.
"""

from __future__ import annotations

import importlib
import json
import time

CONSUMERS = ("polysl2.cli", "polysl2.dynamics", "polysl2.variational")


def _dim_sum(args, kwargs, result, dur):
    return {"dim_sum": args[0].dim}


def _roots_found(args, kwargs, result, dur):
    return {"roots_found": len(result.alpha_roots)}


def _time_by_dim(args, kwargs, result, dur):
    d = args[0].dim
    if d <= 11:
        return {"s.d_le_11": dur}
    if d >= 31:
        return {"s.d_ge_31": dur}
    return {}


def _grid_work(args, kwargs, result, dur):
    # computed, not measured: complex d x d by d x n matmul (8 d^2 n flops)
    # plus the phase scaling (6 d n); three d x n complex128 arrays written
    d = len(args[0].energies)
    n = len(args[2])
    return {"flops_computed": 8 * d * d * n + 6 * d * n, "bytes_computed": 48 * d * n}


# (span name, home module, attribute, probe adding per-call counters)
BOUNDARIES = (
    ("cli.main", "polysl2.cli", "main", None),
    ("cli.load_config", "polysl2.cli", "_load_config", None),
    ("cli.write_csv", "polysl2.cli", "_write_csv", None),
    ("cli.write_json", "polysl2.cli", "_write_json", None),
    ("three_boson.enumerate_blocks", "polysl2.three_boson", "enumerate_blocks", None),
    ("three_boson.project_coherent", "polysl2.three_boson", "project_coherent", None),
    ("three_boson.build_model_block", "polysl2.three_boson", "build_model_block", None),
    ("solver.build_hamiltonian", "polysl2.solver", "build_hamiltonian", None),
    ("solver.eigensolve", "polysl2.solver", "eigensolve", _dim_sum),
    ("solver.sl2_reference_spectrum", "polysl2.solver", "sl2_reference_spectrum", None),
    (
        "variational.variational_spectrum",
        "polysl2.variational",
        "variational_spectrum",
        _time_by_dim,
    ),
    ("variational.solve_alpha", "polysl2.variational", "solve_alpha", _roots_found),
    ("variational.energy_functional", "polysl2.variational", "energy_functional", None),
    ("dynamics.rabi_signal", "polysl2.dynamics", "rabi_signal", None),
    ("dynamics.evolve_grid", "polysl2.dynamics", "_evolve_grid", _grid_work),
    (
        "dynamics.detect_collapse_revival",
        "polysl2.dynamics",
        "detect_collapse_revival",
        None,
    ),
    (
        "dynamics.incommensurability_measure",
        "polysl2.dynamics",
        "incommensurability_measure",
        None,
    ),
    ("dynamics.meanfield_trajectory", "polysl2.dynamics", "meanfield_trajectory", None),
)


class Tracer:
    """Spans of one invocation; every span shares its invocation id."""

    def __init__(self, invocation: str = ""):
        self.invocation = invocation
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, probe=None):
        """Return fn wrapped so that each call records one span."""
        name_id = len(self.names)
        self.names.append(name)
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(float("nan"))
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[idx] = t1
                stack.pop()
            if probe is not None:
                for key, val in probe(args, kwargs, result, t1 - t0).items():
                    full = f"{name}.{key}"
                    counters[full] = counters.get(full, 0) + val
            return result

        return traced

    def install(self, boundaries=BOUNDARIES, consumers=CONSUMERS) -> None:
        """Replace each boundary function in the consumer modules' namespaces."""
        mods = [importlib.import_module(m) for m in consumers]
        for name, home, attr, probe in boundaries:
            fn = getattr(importlib.import_module(home), attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, fn, probe)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)

    def record(self) -> dict:
        return {
            "invocation": self.invocation,
            "names": self.names,
            "name": self.name_of,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counters": self.counters,
            "absent": self.absent,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.record(), fh)


def summarize(rec: dict) -> dict:
    """Per-name call count, inclusive seconds and self seconds of one trace.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap because spans come from a
    single thread.
    """
    names = rec["names"]
    dur = [e - s for s, e in zip(rec["start"], rec["end"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(rec["parent"]):
        if p >= 0:
            child[p] += dur[i]
    out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in names}
    for i, nid in enumerate(rec["name"]):
        o = out[names[nid]]
        o["calls"] += 1
        o["s"] += dur[i]
        o["self_s"] += dur[i] - child[i]
    return out
