"""Acceptance gate: one test per release criterion.

Each test is a single pass/fail line under pytest -v.  Quantities the
criteria ask to be reported rather than bounded are printed (shown in the
PASSES summary section).
"""

import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from polysl2.algebra import StructureFunction, build_block, block_operators, holstein_primakoff
from polysl2.dynamics import (
    detect_collapse_revival,
    evolve_block,
    incommensurability_measure,
    meanfield_trajectory,
    observable_n3,
    rabi_signal,
)
from polysl2.solver import (
    HamiltonianParams,
    build_hamiltonian,
    eigensolve,
    spectral_polynomial_roots,
)
from polysl2.three_boson import (
    BlockLabel,
    CoherentInput,
    ThreeBosonParams,
    block_constants,
    block_fock_state,
    build_model_block,
    enumerate_blocks,
    fock_to_block,
)
from polysl2.variational import variational_spectrum


def sl2_pair(j):
    psi = StructureFunction(leading=-1.0, roots=(-j, j + 1.0))
    return build_block(psi, -j), psi


def test_criterion_01_sl2_limit_reduction():
    t0 = time.perf_counter()
    worst = 0.0
    for twoj in range(1, 21):
        j = twoj / 2
        block, psi = sl2_pair(j)
        for a in (0.0, 1.0, 3.0):
            for g in (0.5, 2.0):
                sol = variational_spectrum(
                    build_hamiltonian(block, psi, HamiltonianParams(a=a, g_mod=g))
                )
                om = math.hypot(a, 2 * g)
                ref = (np.arange(block.dim) - j) * om
                worst = max(worst, float(np.max(np.abs(np.array(sol.energies) - ref))))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: max abs error {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_02_small_dimension_exactness():
    rng = np.random.default_rng(20260822)
    worst2 = 0.0
    for _ in range(100):
        a = float(rng.uniform(-5, 5))
        g = float(rng.uniform(0, 3)) or 1e-6
        w = float(rng.uniform(0, 10)) or 1e-6
        l0 = float(rng.uniform(-2, 2))
        cc = float(rng.uniform(-1, 1))
        psi = StructureFunction(leading=-w, roots=(l0, l0 + 2.0))
        block = build_block(psi, l0)
        sol = variational_spectrum(
            build_hamiltonian(block, psi, HamiltonianParams(a=a, g_mod=g, constant=cc))
        )
        disc = math.sqrt(a * a + 4 * g * g * w)
        mid = cc + a * l0 + a / 2
        worst2 = max(
            worst2,
            abs(sol.energies[0] - (mid - disc / 2)),
            abs(sol.energies[1] - (mid + disc / 2)),
        )
    # d=3 cubic structure functions: discrepancy is reported, not bounded
    worst3 = 0.0
    for _ in range(20):
        l0 = float(rng.uniform(-2, 2))
        mu = l0 + 3 + float(rng.uniform(0.5, 4.0))
        psi = StructureFunction(leading=1.0, roots=(l0, l0 + 3.0, mu))
        block = build_block(psi, l0)
        params = HamiltonianParams(
            a=float(rng.uniform(-2, 2)), g_mod=float(rng.uniform(0.3, 2.0))
        )
        sol = variational_spectrum(build_hamiltonian(block, psi, params))
        sp = eigensolve(build_hamiltonian(block, psi, params))
        scale = max(float(np.max(np.abs(sp.energies))), 1.0)
        worst3 = max(
            worst3, float(np.max(np.abs(np.array(sol.energies) - sp.energies))) / scale
        )
    print(f"criterion 2: d=2 max abs error {worst2:.3e}")
    print(f"criterion 2: d=3 max relative discrepancy REPORTED {worst3:.3e}")
    assert worst2 <= 1e-8
    assert math.isfinite(worst3)


def test_criterion_03_spectrum_oracle_equivalence():
    t0 = time.perf_counter()
    labels = list(enumerate_blocks(4)) + [
        BlockLabel(0, 63),
        BlockLabel(3, 49, 1),
        BlockLabel(7, 63, -1),
        BlockLabel(12, 40, 1),
        BlockLabel(25, 63, -1),
    ]
    prng = np.random.default_rng(7)
    psets = [
        ThreeBosonParams(
            float(prng.uniform(0.5, 3)),
            float(prng.uniform(0.5, 3)),
            float(prng.uniform(0.5, 5)),
            complex(float(prng.normal()), float(prng.normal())),
        )
        for _ in range(10)
    ]
    worst = 0.0
    for label in labels:
        assert label.dim <= 64
        block, psi = build_model_block(label)
        for p3 in psets:
            tri = build_hamiltonian(block, psi, block_constants(label, p3))
            sp = eigensolve(tri)
            roots = spectral_polynomial_roots(tri)
            radius = max(float(np.max(np.abs(sp.energies))), 1e-30)
            worst = max(worst, float(np.max(np.abs(roots - sp.energies))) / radius)
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: worst relative deviation {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_04_algebra_invariants():
    cases = []
    block, psi = sl2_pair(99.5)
    cases.append((block, psi))
    for label in (
        BlockLabel(0, 199),
        BlockLabel(5, 150, 1),
        BlockLabel(5, 150, -1),
        BlockLabel(37, 100, -1),
    ):
        cases.append(build_model_block(label))
    for block, psi in cases:
        d = block.dim
        assert d <= 200
        w = block.weights()
        v0, vp, vm = block_operators(block, psi)
        scale = max(1.0, float(np.max(np.abs(psi.values(w)))), float(np.max(np.abs(psi.values(w + 1)))))

        def comm(x, y):
            return x @ y - y @ x

        assert np.max(np.abs(comm(v0, vp) - vp)) <= 1e-10 * scale
        assert np.max(np.abs(comm(v0, vm) + vm)) <= 1e-10 * scale
        lhs = comm(vm, vp)
        rhs = np.diag(psi.values(w + 1) - psi.values(w))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale
        assert np.max(np.abs(vp @ vm - np.diag(psi.values(w)))) <= 1e-10 * scale

        y0, yp, ym = holstein_primakoff(block, psi)
        j = block.j
        assert np.max(np.abs(comm(y0, yp) - yp)) <= 1e-10 * max(1.0, d)
        assert np.max(np.abs(comm(ym, yp) + 2 * y0)) <= 1e-10 * d * d
        cas = y0 @ y0 + 0.5 * (yp @ ym + ym @ yp)
        assert np.max(np.abs(cas - j * (j + 1) * np.eye(d))) <= 1e-10 * d * d


def test_criterion_05_three_boson_structure():
    # exact rational interior values for every zero-difference block
    for m in range(51):
        label = BlockLabel(0, m)
        _, psi = build_model_block(label)
        for v in range(m + 2):
            val = psi(label.l0 + v)
            assert isinstance(val, Fraction)
            assert val == Fraction(v * v * (m + 1 - v))
    # the truncation cube splits exactly into block windows
    for ncut in range(1, 9):
        states = [
            (n1, n2, n3)
            for n1 in range(ncut + 1)
            for n2 in range(ncut + 1)
            for n3 in range(ncut + 1)
        ]
        enumerated = set(enumerate_blocks(ncut))
        seen = set()
        used = set()
        for state in states:
            label, v = fock_to_block(*state)
            assert label in enumerated
            assert block_fock_state(label, v) == state
            assert (label, v) not in seen
            seen.add((label, v))
            used.add(label)
        assert len(seen) == (ncut + 1) ** 3
        assert used == enumerated


def test_criterion_06_dynamics_invariants():
    # unitarity and energy conservation out to t = 1e3
    block, psi = build_model_block(BlockLabel(0, 6))
    params = HamiltonianParams(a=0.4, g_mod=1.2, g_phase=0.3)
    tri = build_hamiltonian(block, psi, params)
    sp = eigensolve(tri)
    h = tri.dense()
    rng = np.random.default_rng(3)
    c0 = rng.normal(size=7) + 1j * rng.normal(size=7)
    c0 /= np.linalg.norm(c0)
    e0 = float(np.real(c0.conj() @ h @ c0))
    escale = max(1.0, abs(e0))
    for t in (0.0, 1.0, 37.5, 400.0, 1e3):
        c = evolve_block(sp, c0, t)
        assert abs(np.linalg.norm(c) - 1.0) <= 1e-10
        et = float(np.real(c.conj() @ h @ c))
        assert abs(et - e0) <= 1e-10 * escale

    # undeformed limit: every observable repeats after one precession turn
    j, a, g = 2.0, 1.1, 0.8
    sblock, spsi = sl2_pair(j)
    ssp = eigensolve(build_hamiltonian(sblock, spsi, HamiltonianParams(a=a, g_mod=g)))
    c0 = rng.normal(size=sblock.dim) + 1j * rng.normal(size=sblock.dim)
    c0 /= np.linalg.norm(c0)
    slabel = BlockLabel(0, sblock.dim - 1)
    period = 2 * math.pi / math.hypot(a, 2 * g)
    smax = 1.0
    for t in np.linspace(0.0, 12.0, 20):
        s0 = observable_n3(slabel, evolve_block(ssp, c0, t))
        s1 = observable_n3(slabel, evolve_block(ssp, c0, t + period))
        smax = max(smax, abs(s0))
        assert abs(s1 - s0) <= 1e-6 * smax

    # two-level seed: measure the return period from mid-level crossings
    label = BlockLabel(0, 1)
    fblock, fpsi = build_model_block(label)
    fparams = block_constants(label, ThreeBosonParams(1.0, 1.0, 2.0, 0.7))
    fsp = eigensolve(build_hamiltonian(fblock, fpsi, fparams))
    gap = float(fsp.energies[1] - fsp.energies[0])
    seed = np.array([1.0, 0.0])

    def f(t):
        return observable_n3(label, evolve_block(fsp, seed, t)) - 0.5

    def crossing(t_lo, t_hi):
        f_lo = f(t_lo)
        assert f_lo * f(t_hi) < 0
        for _ in range(100):
            mid = 0.5 * (t_lo + t_hi)
            if t_hi - t_lo <= 1e-13:
                break
            fm = f(mid)
            if (fm < 0) == (f_lo < 0):
                t_lo, f_lo = mid, fm
            else:
                t_hi = mid
        return 0.5 * (t_lo + t_hi)

    t_ref = 2 * math.pi / gap
    first = crossing(0.0, 0.3 * t_ref)
    nper = 10
    later = crossing(first + (nper - 0.2) * t_ref, first + (nper + 0.2) * t_ref)
    measured = (later - first) / nper
    assert abs(measured - t_ref) <= 1e-8 * t_ref


def test_criterion_07_collapse_and_revival():
    t0 = time.perf_counter()
    inp = CoherentInput(0.0, 0.0, 5.0, ncut=120)
    params = ThreeBosonParams(1.0, 1.0, 2.0, 1.0)
    times = np.linspace(0.0, 100.0, 10001)
    res = rabi_signal(inp, params, times)
    assert res.deficit_ok
    report = detect_collapse_revival(res.signal)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 7: collapse at {report.collapse_time}, "
        f"revivals {report.revival_times[:3]}, {elapsed:.1f}s"
    )
    assert report.oscillating
    assert report.collapse_time is not None
    assert report.revival_times
    assert report.revival_times[0] > report.collapse_time
    assert elapsed < 120.0


def test_criterion_08_spacing_incommensurability():
    label = BlockLabel(0, 5)
    block, psi = build_model_block(label)
    params = block_constants(label, ThreeBosonParams(1.0, 1.0, 2.0, 1.0))
    tri = build_hamiltonian(block, psi, params)
    energies = spectral_polynomial_roots(tri)
    rep = incommensurability_measure(energies, qmax=8)
    print(f"criterion 8: min |ratio - p/q| = {rep.min_distance:.6e} at {rep.p}/{rep.q}")
    assert rep.min_distance > 1e-3


def test_criterion_09_meanfield_integrity():
    block, psi = build_model_block(BlockLabel(0, 4))
    params = HamiltonianParams(a=0.7, g_mod=1.0)
    tri = build_hamiltonian(block, psi, params)
    traj = meanfield_trajectory(tri, 0.8, 0.3, 20.0, 0.002)
    assert len(traj.times) == 10001
    e = traj.energy
    drift = float(np.max(np.abs(e - e[0]))) / max(1.0, abs(e[0]))
    assert drift <= 1e-6
    back = meanfield_trajectory(tri, traj.p[-1], traj.q[-1], -20.0, 0.002)
    assert abs(back.p[-1] - 0.8) <= 1e-6
    assert abs(back.q[-1] - 0.3) <= 1e-6

    # undeformed limit precesses rigidly; period from same-slope crossings
    j, a, g = 2.0, 0.5, 1.0
    sblock, spsi = sl2_pair(j)
    straj = meanfield_trajectory(
        build_hamiltonian(sblock, spsi, HamiltonianParams(a=a, g_mod=g)),
        1.2, 0.4, 20.0, 0.002,
    )
    p = straj.p
    mid = 0.5 * (np.max(p) + np.min(p))
    y = p - mid
    t = straj.times
    rising = []
    for i in range(len(y) - 1):
        if y[i] < 0.0 <= y[i + 1]:
            rising.append(t[i] + (t[i + 1] - t[i]) * (-y[i]) / (y[i + 1] - y[i]))
    assert len(rising) >= 3
    measured = (rising[-1] - rising[0]) / (len(rising) - 1)
    t_ref = 2 * math.pi / math.hypot(a, 2 * g)
    assert abs(measured - t_ref) <= 1e-4 * t_ref


def test_criterion_10_deterministic_outputs(tmp_path):
    from polysl2.cli import main

    cfg = {
        "model": "three_boson",
        "solver": "all",
        "three_boson": {"omega1": 1.0, "omega2": 0.9, "omega3": 2.2, "g": [0.8, 0.3]},
        "blocks": {"ncut": 2},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("spectrum.csv", "spectrum.json"):
        b1 = (outs[0] / fname).read_bytes()
        b2 = (outs[1] / fname).read_bytes()
        assert b1 == b2
    assert digest in (outs[0] / "spectrum.csv").read_text()
