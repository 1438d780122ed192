"""Workload generator: turns (workload name, seed) into a CLI command and config.

Seed 0 gives exactly the reference inputs.  Any other seed perturbs only the
physical parameters (frequencies, coupling, pump phase, mean-field start
point) inside narrow ranges; block sets, dimensions, sample counts and step
counts never change, so every seed does the same amount of work.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

# reference three-boson parameters: exact resonance omega1 + omega2 = omega3
BASE_PARAMS = {"omega1": 1.0, "omega2": 1.0, "omega3": 2.0, "g": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    why: str  # one line: what this workload exercises that the others do not
    make: Callable[[int], dict]


def _params(rng: random.Random | None) -> dict:
    """Three-boson parameters; seed 0 (rng None) gives BASE_PARAMS."""
    if rng is None:
        return dict(BASE_PARAMS)
    g = rng.uniform(0.9, 1.1) * cmath.exp(1j * rng.uniform(-0.3, 0.3))
    return {
        "omega1": 1.0 + rng.uniform(-0.05, 0.05),
        "omega2": 1.0 + rng.uniform(-0.05, 0.05),
        "omega3": 2.0 + rng.uniform(-0.05, 0.05),
        "g": [g.real, g.imag],
    }


def _rng(seed: int) -> random.Random | None:
    return None if seed == 0 else random.Random(seed)


def spectrum_labels() -> list:
    """All 91 labels of enumerate_blocks(5) (d <= 11), then k0_m30 and k0_m40.

    Generated here rather than by calling the library, so that a change to
    the code under test cannot change the benchmark's inputs; a test checks
    that the list equals enumerate_blocks(5) at the time of writing.
    """
    ncut = 5
    labels = []
    for k in range(ncut + 1):
        for m in range(2 * ncut - k + 1):
            for sign in (1,) if k == 0 else (1, -1):
                labels.append({"k": k, "m": m, "sign": sign})
    labels += [{"k": 0, "m": 30, "sign": 1}, {"k": 0, "m": 40, "sign": 1}]
    return labels


def _spectrum(seed: int) -> dict:
    return {
        "model": "three_boson",
        "solver": "all",
        "three_boson": _params(_rng(seed)),
        "blocks": {"labels": spectrum_labels()},
    }


def _collapse(seed: int) -> dict:
    rng = _rng(seed)
    params = _params(rng)
    if rng is None:
        alpha3 = 5.0
    else:
        a = 5.0 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        alpha3 = [a.real, a.imag]
    return {
        "model": "three_boson",
        "three_boson": params,
        "dynamics": {
            "alpha": [0.0, 0.0, alpha3],
            "ncut": 120,
            "tmax": 100.0,
            "samples": 10001,
        },
    }


def _meanfield(seed: int) -> dict:
    rng = _rng(seed)
    params = _params(rng)
    p0, q0 = (0.8, 0.3) if rng is None else (
        0.8 + rng.uniform(-0.1, 0.1),
        0.3 + rng.uniform(-0.1, 0.1),
    )
    return {
        "model": "three_boson",
        "three_boson": params,
        "blocks": {"labels": [{"k": 0, "m": 4}]},
        "meanfield": {"p0": p0, "q0": q0, "tspan": 20.0, "dt": 0.002},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spectrum",
            "spectrum",
            "variational energy core and solve_alpha on 91 small blocks plus "
            "d = 31 and d = 41; dynamics is never touched",
            _spectrum,
        ),
        Workload(
            "collapse",
            "dynamics",
            "coherent projection over 43,561 blocks, spectral propagation and "
            "collapse detection; variational is never touched",
            _collapse,
        ),
        Workload(
            "meanfield",
            "meanfield",
            "serial RK4 loop of batched eigh on a d = 5 block; no other "
            "workload runs it",
            _meanfield,
        ),
    )
}


def make(name: str, seed: int) -> tuple[Workload, dict]:
    """Workload definition and the config it sends to the program."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    w = WORKLOADS[name]
    return w, w.make(seed)
