"""Trial-state energy functional, stationarity roots, spectra."""

import contextlib
import gc
import itertools
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polysl2 import variational
from polysl2.algebra import (
    StructureFunction,
    build_block,
    eigh_tridiagonal,
    in_block,
    su2_ladder,
    su2_rotation,
)
from polysl2.reference import (
    _residual_scale,
    gcs_overlaps,
    reg_hyp_2F1,
    stationarity_residual,
)
from polysl2.solver import (
    HamiltonianParams,
    TridiagonalHamiltonian,
    _sturm_counts,
    build_hamiltonian,
    eigensolve,
)
from polysl2.three_boson import (
    BlockLabel,
    ThreeBosonParams,
    block_constants,
    build_model_block,
)
from polysl2.variational import (
    NORM_SLACK,
    energy_functional,
    solve_alpha,
    variational_spectra,
    variational_spectrum,
)


def sl2_block(j):
    psi = StructureFunction(leading=-1.0, roots=(-j, j + 1.0))
    return build_block(psi, -j), psi


def two_level_block(w, l0=0.0):
    """psi with a single rung of squared element w."""
    psi = StructureFunction(leading=-w, roots=(l0, l0 + 2.0))
    return build_block(psi, l0), psi


def stationarity(tri):
    """The scan's stationarity function F of the one block tri."""
    return variational._Stationarity(tri.offdiag, tri.params.a, tri.params.g_mod)


def scan(tri):
    """The scan of tri: its roots, and F, c, s and Q(s) at each."""
    return variational._scan(tri.offdiag, tri.params.a, tri.params.g_mod)


@contextlib.contextmanager
def scans_run():
    """The number of scans run, one per scan key."""
    runs = []
    run = variational._scan

    def counted(*key):
        runs.append(key)
        return run(*key)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variational, "_scan", counted)
        yield runs


def test_reg_hyp_known_values():
    assert reg_hyp_2F1(0, 5.0, 1, 0.3) == pytest.approx(1.0)
    # c = 0 survives through the regularization: F~(-1,1;0;x) = -x
    assert reg_hyp_2F1(1, 1.0, 0, 0.25) == pytest.approx(-0.25)
    # terminating 3-term sum: 1 - 3 + 1.5
    assert reg_hyp_2F1(2, 3.0, 1, 0.5) == pytest.approx(-0.5)
    # v = 0 with c = 3: 1/Gamma(3) = 1/2
    assert reg_hyp_2F1(0, 2.0, 3, 0.9) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        reg_hyp_2F1(-1, 1.0, 1, 0.1)


def test_energy_functional_identity_rotation():
    block, psi = build_model_block(BlockLabel(0, 3))
    params = HamiltonianParams(a=0.7, g_mod=1.3, constant=2.0)
    tri = build_hamiltonian(block, psi, params)
    for v in range(4):
        e = energy_functional(tri, v, 0.0)
        assert e == pytest.approx(2.0 + 0.7 * (block.l0 + v))


def test_energy_functional_two_level_sine():
    # j=1/2, a=0: E(0,r) = -sqrt(w) sin 2r and E(1,r) = +sqrt(w) sin 2r
    w = 2.7
    block, psi = two_level_block(w)
    tri = build_hamiltonian(block, psi, HamiltonianParams(a=0.0, g_mod=1.0))
    for r in (-1.0, 0.2, 0.9):
        e0 = energy_functional(tri, 0, r)
        e1 = energy_functional(tri, 1, r)
        assert e0 == pytest.approx(-math.sqrt(w) * math.sin(2 * r), abs=1e-12)
        assert e1 == pytest.approx(+math.sqrt(w) * math.sin(2 * r), abs=1e-12)


def test_energy_functional_rejects_a_bad_level():
    block, psi = build_model_block(BlockLabel(0, 2))
    tri = build_hamiltonian(block, psi, HamiltonianParams(a=0.0, g_mod=1.0))
    for v in (-1, 3, 5):
        with pytest.raises(ValueError, match="level index outside block"):
            energy_functional(tri, v, 0.3)


@pytest.mark.parametrize("label", [BlockLabel(0, 0), BlockLabel(0, 1), BlockLabel(2, 9, 1)])
def test_energy_functional_at_the_pole_reverses_the_levels(label):
    # R(+-pi/2) maps level v to level d - 1 - v: E is the reversed diagonal
    block, psi = build_model_block(label)
    params = HamiltonianParams(a=0.7, g_mod=1.3, g_phase=0.4, constant=0.2)
    tri = build_hamiltonian(block, psi, params)
    d = block.dim
    for r in (math.pi / 2, -math.pi / 2):
        got = [energy_functional(tri, v, r) for v in range(d)]
        err = np.max(np.abs(np.array(got) - tri.diag[::-1]))
        assert err <= 1e-15 * tri.norm_bound()


def test_energy_functional_equals_matrix_expectation():
    # independent route: rotate the basis state with the su(2) exponential
    # and take the expectation in the full block Hamiltonian
    psi = StructureFunction(leading=1.0, roots=(0.0, 5.0, 7.5))
    block = build_block(psi, 0.0)
    params = HamiltonianParams(a=1.0, g_mod=0.7, g_phase=0.9, constant=0.3)
    tri = build_hamiltonian(block, psi, params)
    h = tri.dense()
    for v in (0, 1, 3):
        for r in (0.6, -0.8, 1.2):
            c = gcs_overlaps(block, v, r, params.g_phase)
            e_mat = float(np.real(c.conj() @ h @ c))
            e_fun = energy_functional(tri, v, r)
            assert e_fun == pytest.approx(e_mat, abs=1e-10)


@pytest.mark.parametrize("m", [30, 60])
def test_energy_functional_large_blocks_match_exact_reference(m):
    # d = 31 and d = 61, beyond the sl(2) criterion grid: the rotation core
    # against the state built from exact rational hypergeometric sums
    label = BlockLabel(0, m)
    block, psi = build_model_block(label)
    params = block_constants(label, ThreeBosonParams(1.0, 1.0, 2.0, g=1.0))
    tri = build_hamiltonian(block, psi, params)
    h = tri.dense()
    bound = tri.norm_bound()
    for v in (0, block.dim // 2, block.dim - 1):
        for r in (0.4, 1.2, -0.9):
            c = gcs_overlaps(block, v, r, params.g_phase)
            e_mat = float(np.real(c.conj() @ h @ c))
            e_fun = energy_functional(tri, v, r)
            assert abs(e_fun - e_mat) <= 1e-9 * bound
            assert abs(e_fun) <= bound


def test_stationarity_residual_at_origin():
    block, psi = build_model_block(BlockLabel(0, 4))
    params = HamiltonianParams(a=1.5, g_mod=0.8)
    twoj = block.dim - 1
    w1 = float(psi(block.l0 + 1))
    expect = math.sqrt(w1 / twoj) / math.factorial(twoj - 1)
    assert stationarity_residual(block, psi, params, 0.0) == pytest.approx(expect)
    assert expect > 0


def test_stationarity_two_level_roots():
    # quadratic closed form at j = 1/2
    w, a, g = 2.0, 1.3, 0.9
    block, psi = two_level_block(w)
    params = HamiltonianParams(a=a, g_mod=g)
    disc = math.sqrt(a * a / (g * g) + 4 * w)
    for root in ((a / g + disc) / (2 * math.sqrt(w)), (a / g - disc) / (2 * math.sqrt(w))):
        assert stationarity_residual(block, psi, params, root) == pytest.approx(0.0, abs=1e-12)


def test_stationarity_even_at_zero_detuning():
    block, psi = build_model_block(BlockLabel(1, 5, 1))
    params = HamiltonianParams(a=0.0, g_mod=1.1)
    for al in (0.3, 1.7, 4.0):
        plus = stationarity_residual(block, psi, params, al)
        minus = stationarity_residual(block, psi, params, -al)
        assert plus == pytest.approx(minus, rel=1e-13)


def test_stationarity_rejects_zero_coupling():
    block, psi = build_model_block(BlockLabel(0, 2))
    with pytest.raises(ValueError):
        stationarity_residual(block, psi, HamiltonianParams(a=1.0, g_mod=0.0), 0.5)


def test_solve_alpha_two_level_symmetric():
    block, psi = two_level_block(2.0)
    tri = build_hamiltonian(block, psi, HamiltonianParams(a=0.0, g_mod=1.0))
    sol = solve_alpha(tri)
    assert sorted(round(al, 10) for al in sol.alpha_roots) == [-1.0, 1.0]
    for res in sol.residuals:
        assert abs(res) <= 1e-10


def test_solve_alpha_residuals_meet_relative_bound():
    # residuals are dE0/dr divided by the norm bound, so they are relative
    rng = np.random.default_rng(9)
    for _ in range(8):
        d = int(rng.integers(2, 9))
        l0 = float(rng.uniform(-2, 2))
        mu = l0 + d + float(rng.uniform(0.5, 3.0))
        psi = StructureFunction(leading=1.0, roots=(l0, l0 + d, mu))
        block = build_block(psi, l0)
        params = HamiltonianParams(
            a=float(rng.uniform(-2, 2)), g_mod=float(rng.uniform(0.3, 2.0))
        )
        sol = solve_alpha(build_hamiltonian(block, psi, params))
        assert sol.alpha_roots
        for res in sol.residuals:
            assert abs(res) <= 1e-10


def test_solve_alpha_refuses_a_stationarity_function_that_vanishes():
    # a zero off-diagonal at a = 0 makes every angle stationary: no root list
    # can be certified, so the block is refused
    params = HamiltonianParams(a=0.0, g_mod=1.0)
    tri = TridiagonalHamiltonian(np.arange(3.0), np.zeros(2), params)
    with pytest.raises(RuntimeError, match="vanishes identically"):
        solve_alpha(tri)


def test_scan_takes_f_at_the_roots_from_the_stationarity_function():
    # the bytes of F at the roots are those of the stationarity function
    params = HamiltonianParams(a=0.9, g_mod=1.2, g_phase=0.3)
    for label in (BlockLabel(0, 1), BlockLabel(0, 6), BlockLabel(3, 40, -1)):
        block, psi = build_model_block(label)
        tri = build_hamiltonian(block, psi, params)
        roots, f, *_ = scan(tri)
        expect = [stationarity(tri).slope(al)[0] for al in roots.tolist()]
        assert roots.size and f.tobytes() == np.float64(expect).tobytes()


def test_variational_two_level_exact():
    # selected root pi/4 rotation, energies -sqrt(2), +sqrt(2)
    block, psi = two_level_block(2.0)
    tri = build_hamiltonian(block, psi, HamiltonianParams(a=0.0, g_mod=1.0))
    sol = variational_spectrum(tri)
    assert sol.alpha_selected == pytest.approx(-1.0)
    assert sol.r_selected == pytest.approx(math.pi / 4)
    assert sol.energies[0] == pytest.approx(-math.sqrt(2), abs=1e-10)
    assert sol.energies[1] == pytest.approx(+math.sqrt(2), abs=1e-10)
    assert sol.ordering_ok


def test_variational_d2_random_blocks_are_exact():
    rng = np.random.default_rng(21)
    for _ in range(30):
        w = float(rng.uniform(1e-2, 10.0))
        l0 = float(rng.uniform(-2, 2))
        a = float(rng.uniform(-5, 5))
        g = float(rng.uniform(1e-2, 3.0))
        cc = float(rng.uniform(-1, 1))
        block, psi = two_level_block(w, l0)
        params = HamiltonianParams(a=a, g_mod=g, constant=cc)
        sol = variational_spectrum(build_hamiltonian(block, psi, params))
        disc = math.sqrt(a * a + 4 * g * g * w)
        mid = cc + a * l0 + a / 2
        assert sol.energies[0] == pytest.approx(mid - disc / 2, abs=1e-8)
        assert sol.energies[1] == pytest.approx(mid + disc / 2, abs=1e-8)


def test_variational_sl2_reduction_sample():
    for j in (0.5, 1.5, 4.0):
        block, psi = sl2_block(j)
        for a, g in ((0.0, 0.5), (3.0, 2.0)):
            params = HamiltonianParams(a=a, g_mod=g)
            sol = variational_spectrum(build_hamiltonian(block, psi, params))
            omega = math.hypot(a, 2 * g)
            for v in range(block.dim):
                expect = a * (-j + j) + (-j + v) * omega  # l0 + j = 0 here
                assert sol.energies[v] == pytest.approx(expect, abs=1e-9)
            assert sol.ordering_ok


def test_variational_bound_on_ground_energy():
    # every stationary point sits at or above the true ground level
    rng = np.random.default_rng(33)
    for lab in (BlockLabel(0, 3), BlockLabel(2, 5, -1), BlockLabel(1, 6, 1)):
        block, psi = build_model_block(lab)
        params = HamiltonianParams(
            a=float(rng.uniform(-2, 2)), g_mod=float(rng.uniform(0.3, 2.0))
        )
        tri = build_hamiltonian(block, psi, params)
        ground = eigensolve(tri).energies[0]
        sol = variational_spectrum(tri)
        for al in sol.alpha_roots:
            e0 = energy_functional(tri, 0, -math.atan(al))
            assert e0 >= ground - 1e-10 * max(1.0, tri.norm_bound())
        assert sol.energies[0] >= ground - 1e-10 * max(1.0, tri.norm_bound())


def test_variational_energies_ignore_coupling_phase():
    block, psi = build_model_block(BlockLabel(0, 4))
    params = HamiltonianParams(a=0.9, g_mod=1.2)
    base = variational_spectrum(build_hamiltonian(block, psi, params))
    for phase in (0.7, 2.9):
        other = variational_spectrum(
            build_hamiltonian(block, psi, replace(params, g_phase=phase))
        )
        assert np.allclose(other.energies, base.energies, atol=1e-12)
        assert other.theta == phase


def test_variational_nonequidistant_beyond_d3():
    block, psi = build_model_block(BlockLabel(0, 5))
    tri = build_hamiltonian(block, psi, HamiltonianParams(a=0.0, g_mod=1.0))
    sol = variational_spectrum(tri)
    spacings = np.diff(sol.energies)
    assert np.max(spacings) - np.min(spacings) > 1e-3 * np.max(np.abs(sol.energies))


def test_variational_stationarity_crosscheck():
    # numerical dE0/dr at the selected root vanishes
    for lab in (BlockLabel(0, 4), BlockLabel(3, 5, 1)):
        block, psi = build_model_block(lab)
        tri = build_hamiltonian(block, psi, HamiltonianParams(a=1.1, g_mod=0.9))
        sol = variational_spectrum(tri)
        h = 1e-6
        r = sol.r_selected
        der = (energy_functional(tri, 0, r + h) - energy_functional(tri, 0, r - h)) / (
            2 * h
        )
        assert abs(block.dim * der) <= 1e-6 * tri.params.g_mod


def test_variational_single_level_block():
    # no rotation freedom: solve_alpha's one root is 0, at any coupling, and
    # the identity rotation leaves the diagonal entry exact
    block, psi = build_model_block(BlockLabel(0, 0))
    params = HamiltonianParams(a=2.0, g_mod=1.0, g_phase=0.4, constant=1.0)
    sol = variational_spectrum(build_hamiltonian(block, psi, params))
    assert sol.energies == (1.0 + 2.0 * block.l0,)
    assert sol.alpha_selected == 0.0
    for g_mod in (0.0, 1.0):
        alone = solve_alpha(build_hamiltonian(block, psi, replace(params, g_mod=g_mod)))
        assert alone.alpha_roots == (0.0,)
        assert alone.alpha_selected == 0.0
        assert alone.residuals == (0.0,)
        assert alone.theta == 0.4


@st.composite
def small_blocks(draw):
    """A random cubic-psi block with d <= 21 and its coupling."""
    d = draw(st.integers(2, 21))
    l0 = draw(st.floats(-2.0, 2.0))
    gap = draw(st.floats(0.5, 3.0))
    psi = StructureFunction(leading=1.0, roots=(l0, l0 + d, l0 + d + gap))
    params = HamiltonianParams(
        a=draw(st.floats(-3.0, 3.0)),
        g_mod=draw(st.floats(0.05, 3.0)),
        g_phase=draw(st.floats(0.0, 6.0)),
        constant=draw(st.floats(-1.0, 1.0)),
    )
    return build_block(psi, l0), psi, params


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_blocks(), st.floats(-30.0, 30.0))
def test_bernstein_stationarity_is_the_scaled_slope(case, alpha):
    # F has the sign of the termwise residual and equals -dE0/dr / (2|g|n),
    # with the exact slope dE0/dr = 2 (R^T H G R)_00 and G = Y- - Y+ the
    # generator of R
    block, psi, params = case
    tri = build_hamiltonian(block, psi, params)
    n = block.dim - 1
    f = stationarity(tri).slope(alpha)[0]
    rot = su2_rotation(block.dim, -math.atan(alpha))
    h = np.diag(tri.diag) + np.diag(tri.offdiag, 1) + np.diag(tri.offdiag, -1)
    y = su2_ladder(block.dim)
    gen = np.diag(y, 1) - np.diag(y, -1)
    slope = 2.0 * (rot.T @ h @ gen @ rot)[0, 0]
    scale = 1.0 + tri.norm_bound() / params.g_mod
    assert abs(f + slope / (2 * params.g_mod * n)) <= 1e-11 * scale
    ref = stationarity_residual(block, psi, params, alpha)
    if abs(ref) > 1e-9 * _residual_scale(block, psi, params, alpha):
        assert (f > 0) == (ref > 0)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(small_blocks())
def test_solve_alpha_roots_match_termwise_scan(case):
    # on 4,001 angles spaced evenly in r (the grid the scan once ran on),
    # inside |alpha| <= 50, the termwise residual changes sign across a cell
    # exactly when the cell holds an odd number of roots
    block, psi, params = case
    grid = np.tan(np.linspace(-math.pi / 2, math.pi / 2, 4001))
    xs = grid[np.abs(grid) <= 50.0]
    ys = np.array([stationarity_residual(block, psi, params, x) for x in xs])
    assert np.all(ys != 0.0)
    roots = solve_alpha(build_hamiltonian(block, psi, params)).alpha_roots
    held = np.bincount(np.searchsorted(xs, roots), minlength=xs.size + 1)[1:-1]
    assert ((held % 2 == 1) == ((ys[:-1] < 0.0) != (ys[1:] < 0.0))).all()


def test_stationarity_large_block_matches_log_space_sum():
    # d = 2001: near |alpha| = 1 the Horner partial sums fall below the
    # float range unless they are rescaled
    label = BlockLabel(0, 2000)
    block, psi = build_model_block(label)
    params = block_constants(label, ThreeBosonParams(1.0, 1.0, 2.0, g=1.0))
    tri = build_hamiltonian(block, psi, params)
    n = block.dim - 1
    f = np.arange(n)
    q = tri.offdiag / (params.g_mod * np.sqrt((n - f) * (f + 1)))
    x1, x2 = (2 * f + 1) * q, (2 * n - 2 * f - 1) * q
    log_binom = np.array(
        [math.lgamma(n) - math.lgamma(k + 1) - math.lgamma(n - k) for k in f]
    )
    alphas = [-30.0, -1.41, -1.0, -0.999, 0.0, 0.5, 1.001, 1.3]
    got = [stationarity(tri).slope(al)[0] for al in alphas]
    for al, value in zip(alphas, got):
        r = -math.atan(al)
        s, c = math.sin(r) ** 2, math.cos(r) ** 2
        if s == 0.0:
            ref = x1[0]
        else:
            bern = np.exp(log_binom + f * math.log(s) + (n - 1 - f) * math.log(c))
            ref = -params.a / params.g_mod * math.sin(r) * math.cos(r)
            ref += c * float(x1 @ bern) - s * float(x2 @ bern)
        assert abs(value - ref) <= 1e-12 * float(np.max(x1))


def _meridian_checks(block, psi, params):
    """Every solve_alpha root against the coherent energy and the rotation.

    At p = j cos 2r and cos(q + phi) = sign alpha the coherent state is the
    rotated lowest state: the root is a fixed point of the mean-field flow
    (dH/dq = 0 = dH/dp), and the closed-form E(0, r) that picks the root is
    the rotation's ground energy.
    """
    tri = build_hamiltonian(block, psi, params)
    energy = variational.CoherentEnergy(tri)
    bound = tri.norm_bound()
    roots, _, c, s, bq = scan(tri)
    assert roots.tolist() == list(solve_alpha(tri).alpha_roots)
    ground = tri.diag[0] + params.a * (block.dim - 1) * s + 2.0 * roots * c * bq
    for al, e0 in zip(roots, ground):
        r = -math.atan(al)
        q = (0.0 if al > 0 else math.pi) - params.g_phase
        e, dhdp, dhdq = energy(block.j * math.cos(2 * r), q)
        assert abs(dhdq) <= 1e-12 * bound
        assert abs(dhdp) <= 1e-10 * bound / block.j
        level = energy_functional(tri, 0, r)
        assert abs(e0 - level) <= 1e-12 * bound
        assert abs(e - level) <= 1e-12 * bound


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_blocks())
def test_variational_roots_are_meanfield_fixed_points(case):
    _meridian_checks(*case)


@pytest.mark.parametrize("m", [180, 400])
def test_large_block_roots_are_meanfield_fixed_points(m):
    label = BlockLabel(0, m)
    block, psi = build_model_block(label)
    base = block_constants(label, ThreeBosonParams(1.0, 0.9, 2.2, 0.8))
    params = HamiltonianParams(base.a, base.g_mod, 0.7, base.constant)
    _meridian_checks(block, psi, params)


@contextlib.contextmanager
def rotations_made():
    """The (d, r) of each su2_eigenbasis the variational module asks for."""
    made = []
    eigenbasis = variational.su2_eigenbasis

    def counted(d, r):
        made.append((d, r))
        return eigenbasis(d, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variational, "su2_eigenbasis", counted)
        yield made


def test_variational_spectrum_rotates_once_per_block(monkeypatch):
    # the root is chosen by the closed-form E(0, r), so every block of two or
    # more levels takes one rotation, however many roots it has; in a batch
    # the twins (k, m, +) and (k, m, -), at one angle, share one rotation
    # when listed one after the other, and each forms its own energies from it
    calls = []
    level_energies = variational._level_energies

    def counted(diag, off, rot):
        calls.append(rot)
        return level_energies(diag, off, rot)

    monkeypatch.setattr(variational, "_level_energies", counted)
    labels = [BlockLabel(0, 0), BlockLabel(0, 4), BlockLabel(2, 5, -1), BlockLabel(0, 30)]
    roots = 0
    with rotations_made() as made:
        for label in labels:
            block, psi = build_model_block(label)
            params = block_constants(label, ThreeBosonParams(1.0, 1.0, 2.0, 1.0))
            sol = variational_spectrum(build_hamiltonian(block, psi, params))
            roots += len(sol.alpha_roots)
    assert len(calls) == len(made) == len(labels)
    assert roots > len(labels)
    params = ThreeBosonParams(1.0, 0.9, 2.2, 0.8 + 0.3j)
    pairs = [(1, 4), (2, 4), (3, 9)]
    tris = [model_hamiltonian(BlockLabel(k, m, s), params) for k, m in pairs for s in (1, -1)]
    for order, rotations in (tris, len(pairs)), (tris[::2] + tris[1::2], len(tris)):
        calls.clear()
        with rotations_made() as made:
            sols = list(variational_spectra(order))  # twins adjacent, then apart
        assert len(calls) == len(tris) and len(made) == rotations
        angles = {(len(sol.energies), sol.r_selected) for sol in sols}
        assert len(angles) == len(pairs) and set(made) == angles


def test_a_batch_keeps_at_most_one_rotation_alive(monkeypatch):
    # a block reuses only the rotation of the block before it, so each
    # rotation is dropped before the next is made, and none outlives the batch
    refs = []
    eigenbasis = variational.su2_eigenbasis

    def tracked(d, r):
        assert not any(ref() is not None for ref in refs)
        rot = eigenbasis(d, r)
        refs.append(weakref.ref(rot))
        return rot

    monkeypatch.setattr(variational, "su2_eigenbasis", tracked)
    params = ThreeBosonParams(1.0, 0.9, 2.2, 0.8 + 0.3j)
    pairs = [(1, 4), (2, 4), (3, 9)]
    tris = [model_hamiltonian(BlockLabel(k, m, s), params) for k, m in pairs for s in (1, -1)]
    for _ in variational_spectra(tris[::2] + tris[1::2] + tris[-1:]):
        assert sum(ref() is not None for ref in refs) == 1
    assert len(refs) == len(tris)  # the block listed twice in a row rotates once
    assert not any(ref() is not None for ref in refs)


def _selection_checks(block, psi, params):
    """solve_alpha's angle is variational_spectrum's, and it is the root of
    lowest rotated ground energy (one rotation per root as the reference)."""
    tri = build_hamiltonian(block, psi, params)
    sol = solve_alpha(tri)
    assert sol.alpha_selected == variational_spectrum(tri).alpha_selected
    ground = [energy_functional(tri, 0, -math.atan(al)) for al in sol.alpha_roots]
    picked = ground[sol.alpha_roots.index(sol.alpha_selected)]
    assert picked <= min(ground) + 1e-12 * tri.norm_bound()
    return sol


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_blocks())
def test_solve_alpha_selects_the_variational_angle(case):
    _selection_checks(*case)


def test_solve_alpha_selects_the_variational_angle_on_k0_m30():
    label = BlockLabel(0, 30)
    block, psi = build_model_block(label)
    params = block_constants(label, ThreeBosonParams(1.0, 1.0, 2.0, 1.0))
    assert len(_selection_checks(block, psi, params).alpha_roots) > 1


def test_solve_alpha_rejects_zero_coupling_on_two_levels():
    block, psi = build_model_block(BlockLabel(1, 1))
    tri = build_hamiltonian(block, psi, HamiltonianParams(a=1.0, g_mod=0.0))
    with pytest.raises(ValueError, match="g = 0"):
        solve_alpha(tri)


def model_hamiltonian(label, params):
    block, psi = build_model_block(label)
    return build_hamiltonian(block, psi, block_constants(label, params))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(st.floats(0.5, 2.5), st.floats(0.5, 2.5), st.floats(0.5, 4.0)),
    st.complex_numbers(min_magnitude=0.05, max_magnitude=3.0, allow_infinity=False),
    st.integers(1, 6),
    st.integers(1, 40),
)
def test_minus_twin_reuses_the_plus_twins_scan_with_the_same_bytes(omegas, g, k, m):
    # (k, m, -) and (k, m, +) share one scan in a batch and give the
    # solutions each gives alone, bit for bit
    params = ThreeBosonParams(*omegas, g=g)
    plus, minus = (model_hamiltonian(BlockLabel(k, m, sign), params) for sign in (1, -1))
    with scans_run() as runs:
        pair = list(variational_spectra([plus, minus]))
    assert len(runs) == 1
    for got, want in zip(pair, map(variational_spectrum, (plus, minus))):
        for field in ("alpha_roots", "residuals", "energies"):
            a, b = (np.array(getattr(sol, field)) for sol in (got, want))
            assert a.tobytes() == b.tobytes(), field
        assert got == want


def test_scan_keys_keep_signed_zero_detunings_apart():
    block, psi = build_model_block(BlockLabel(1, 6))
    tris = [
        build_hamiltonian(block, psi, HamiltonianParams(a=a, g_mod=0.9))
        for a in (0.0, 0.0, -0.0, -0.0, 0.0)
    ]
    with scans_run() as runs:
        list(variational_spectra(tris))
    assert len(runs) == 2


def test_stationarity_refuses_what_overflows_the_float_range():
    # directly built Hamiltonians past any model's range: a G slope or a
    # ratio a/|g| beyond the float range is refused where the stationarity
    # function is built, and an F that overflows where it is evaluated
    def tri(offdiag, a, g_mod):
        params = HamiltonianParams(a=a, g_mod=g_mod)
        return TridiagonalHamiltonian(np.zeros(len(offdiag) + 1), np.array(offdiag), params)

    def stationarity(tri):
        return variational._Stationarity(tri.offdiag, tri.params.a, tri.params.g_mod)

    # numpy's overflow in the slope is refused by the check, not by a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for big in tri([1e308, 1e308], 0.0, 1e-3), tri([1.0, 1.0], 1e308, 1e-3):
            with pytest.raises(RuntimeError, match="overflows the float range"):
                stationarity(big)
            with pytest.raises(RuntimeError, match="overflows the float range"):
                solve_alpha(big)
    # (a/|g|) alpha passes the float range before c brings F back into it
    stat = stationarity(tri([1.0, 1.0], 1e308, 1.0))
    assert math.isfinite(stat.slope(1.0)[0])
    with pytest.raises(RuntimeError, match="overflows the float range"):
        stat.slope(2.0)


def test_scan_retains_nothing_across_calls():
    # after a d = 1001 block nothing of its scan or its rotation is kept:
    # not even the 8 (d - 1) bytes of its off-diagonal
    label = BlockLabel(0, 1000)
    tri = model_hamiltonian(label, ThreeBosonParams(1.0, 1.0, 2.0, 1.0))
    gc.collect()
    tracemalloc.start()
    try:
        variational_spectrum(tri)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 4 * tri.dim


@st.composite
def any_block(draw, d):
    """A d-level block of three kinds, with a and |g| drawn apart from it.

    An sl(2) block at a = 0 has its roots at alpha = -1 and +1, where the
    scan's sums switch direction.
    """
    kind = draw(st.sampled_from(["three_boson", "custom", "sl2"]))
    if kind == "three_boson":
        label = BlockLabel(draw(st.integers(0, 6)), d - 1, draw(st.sampled_from([1, -1])))
        block, psi = build_model_block(label)
    elif kind == "custom":
        l0 = draw(st.floats(-2.0, 2.0))
        gap = draw(st.floats(0.5, 3.0))
        psi = StructureFunction(leading=1.0, roots=(l0, l0 + d, l0 + d + gap))
        block = build_block(psi, l0)
    else:
        block, psi = sl2_block((d - 1) / 2)
    params = HamiltonianParams(
        a=draw(st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0)),
        g_mod=draw(st.floats(0.05, 3.0)),
        g_phase=draw(st.floats(0.0, 6.0)),
        constant=draw(st.floats(-1.0, 1.0)),
    )
    return block, psi, params


@st.composite
def batches(draw):
    """Same-size blocks, one of another size, an exact duplicate and a scan twin."""
    d = draw(st.integers(2, 12))
    cases = draw(st.lists(any_block(d), min_size=2, max_size=5))
    cases.append(draw(any_block(draw(st.integers(1, 12)))))
    block, psi, params = draw(st.sampled_from(cases))
    cases.insert(draw(st.integers(0, len(cases))), (block, psi, params))
    # the same off-diagonal, a and |g|, another constant on the diagonal
    block, psi, params = draw(st.sampled_from(cases))
    twin = replace(params, constant=params.constant + 0.5)
    cases.insert(draw(st.integers(0, len(cases))), (block, psi, twin))
    return [build_hamiltonian(*case) for case in cases]


def _large_batch():
    """Three 501-level blocks: past d ~ 492 the Horner tables rescale."""
    params = ThreeBosonParams(1.0, 0.9, 2.2, 0.8 + 0.3j)
    labels = BlockLabel(0, 500), BlockLabel(3, 500, -1), BlockLabel(3, 500, 1)
    return [model_hamiltonian(label, params) for label in labels]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@example(_large_batch())
@given(batches())
def test_a_batch_gives_each_block_its_batch_of_one_bytes(tris):
    # scanning blocks together, sharing scans and the block before's
    # rotation changes no byte of any block's solution, and a block that
    # fails alone fails at its turn with the same message
    alone = []
    for tri in tris:
        try:
            alone.append(variational_spectrum(tri))
        except RuntimeError as exc:
            alone.append(str(exc))
    with rotations_made() as made:
        batch = variational_spectra(tris)
        for want in alone:
            if isinstance(want, str):
                with pytest.raises(RuntimeError) as info:
                    next(batch)
                assert str(info.value) == want
                return
            got = next(batch)
            for field in ("alpha_roots", "residuals", "energies", "alpha_selected"):
                a, b = (np.array(getattr(sol, field)) for sol in (got, want))
                assert a.tobytes() == b.tobytes(), field
            assert (got.theta, got.ordering_ok) == (want.theta, want.ordering_ok)
    # one rotation per run of consecutive blocks of one size and angle (bytes of r)
    angles = [(len(sol.energies), sol.r_selected.hex()) for sol in alone]
    assert len(made) == len(list(itertools.groupby(angles)))


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@example(2000, 0, 1, (1.0, 1.0, 0.0), 1.0 + 0.0j)  # the largest block accepted
@given(
    st.integers(300, 2000),
    st.integers(0, 40),
    st.sampled_from([1, -1]),
    st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(-0.2, 0.2)),
    st.complex_numbers(min_magnitude=0.05, max_magnitude=3.0, allow_infinity=False),
)
def test_large_blocks_against_the_exact_spectrum(m, k, sign, omegas, g):
    # blocks of 301 to 2,001 levels near resonance: the variational energies
    # lie inside the norm bound and above the exact ground level, and the
    # Sturm oracle agrees with LAPACK between sampled consecutive levels
    w1, w2, detuning = omegas
    params = ThreeBosonParams(w1, w2, w1 + w2 + detuning, g)
    tri = model_hamiltonian(BlockLabel(k, m, sign), params)
    bound = tri.norm_bound()
    energies = np.array(variational_spectrum(tri).energies)
    exact = eigh_tridiagonal(tri.diag, tri.offdiag, eigvals_only=True)
    assert np.all(np.abs(energies) <= bound * (1.0 + NORM_SLACK))
    assert energies[0] >= exact[0] - 1e-12 * bound
    below = np.linspace(0, tri.dim - 2, 16).astype(int)
    mids = 0.5 * (exact[below] + exact[below + 1])
    assert _sturm_counts(tri, mids).tolist() == (below + 1).tolist()


def _horner_case(d, custom=False, l0=0.3, gap=1.5, k=2, sign=-1):
    """A d-level Hamiltonian: a three-boson block, or a cubic custom psi's."""
    if not custom:
        params = ThreeBosonParams(1.0, 0.9, 2.2, 0.8 + 0.3j)
        return model_hamiltonian(BlockLabel(k, d - 1, sign), params)
    psi = StructureFunction(leading=1.0, roots=(l0, l0 + d, l0 + d + gap))
    params = HamiltonianParams(a=-0.4, g_mod=1.3, g_phase=0.9, constant=0.2)
    return build_hamiltonian(build_block(psi, l0), psi, params)


@st.composite
def horner_cases(draw):
    """A block of 2 to 2,001 levels, three-boson or of a cubic custom psi."""
    d = draw(st.integers(2, 2001))
    if draw(st.booleans()):
        l0, gap = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.5, 3.0))
        return _horner_case(d, custom=True, l0=l0, gap=gap)
    k, sign = draw(st.integers(0, 6)), draw(st.sampled_from([1, -1]))
    return _horner_case(d, k=k, sign=sign)


def _sums(small, big, table, rows):
    """The array Bernstein-Horner pass the grid scan ran, frozen as a reference.

    Bernstein sums of Q and dQ/ds, coefficients ordered by powers of small,
    on a _horner_table whose coefficients are vectors indexed by rows.
    Horner runs in the ratio small/big <= 1, each partial sum kept times
    the matching power of big; before each later chunk of the table,
    power, Q and dQ are rescaled by the power of two that brings the
    largest into [1/2, 1).
    """
    q, dq, chunks, last = table
    q, dq = q[rows], dq[rows] if np.ndim(dq) else dq
    power, exp2 = 1.0, None
    for k, chunk in enumerate(chunks):
        if k:
            top = np.maximum(np.maximum(power, np.abs(q)), np.abs(dq))
            e = np.frexp(top)[1]
            power, q, dq = (np.ldexp(x, -e) for x in (power, q, dq))
            exp2 = e if exp2 is None else exp2 + e
        for b, rb, db, rdb in chunk:
            power *= big
            q = power * b[rows] + small * rb * q
            dq = power * db[rows] + small * rdb * dq
    if last is not None:  # Q has one more term than dQ
        q = power * big * last[0][rows] + small * last[1] * q
    if exp2 is not None:
        q, dq = np.ldexp(q, exp2), np.ldexp(dq, exp2)
    return q, dq


def _float_path(tri, p, q):
    """CoherentEnergy(tri)(p, q) as first written: Q and dQ/ds by _sums.

    The clamp is min(1, max(-1, p / j)), the pass is the grid scan's on
    1-element arrays over a table of one-entry coefficient vectors, and the
    closed form takes the same float operations as CoherentEnergy, in the
    same order.
    """
    n = tri.dim - 1
    x = min(1.0, max(-1.0, p / (0.5 * n)))
    s, c = 0.5 - 0.5 * x, 0.5 + 0.5 * x
    beta = tri.offdiag[:, None] * n / su2_ladder(n + 1)[:, None]
    dbeta = (n - 1) * np.diff(beta, axis=0)
    if s <= c:
        small, big, table = s, c, variational._horner_table(beta, dbeta)
    else:
        small, big, table = c, s, variational._horner_table(beta[::-1], dbeta[::-1])
    sums = _sums(np.array([small]), np.array([big]), table, 0)
    bq, dbq = (float(np.ravel(v)[0]) for v in sums)
    root = math.sqrt(s * c)
    db = 2.0 * root * dbq
    if root > 0.0:
        db += (c - s) / root * bq
    ang = q + float(tri.params.g_phase)
    cos_a = math.cos(ang)
    b = 2.0 * root * bq
    slope = float(tri.diag[1] - tri.diag[0])
    energy = float(tri.diag[0]) + slope * n * s + b * cos_a
    return energy, -slope - db * cos_a / n, -b * math.sin(ang)


def _bits(values):
    return np.float64(values).tobytes()


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@example(_horner_case(2), [])
@example(_horner_case(4, custom=True), [0.1, -0.9])
@example(_horner_case(5), [0.3, -0.7])  # the mean-field workload's size
@example(_horner_case(491), [0.999])  # the last size without a rescale
@example(_horner_case(492, custom=True), [-0.3])
@example(_horner_case(493), [-0.999])
@example(_horner_case(982, custom=True), [0.7])  # two rescales
@example(_horner_case(2001, k=0, sign=1), [0.2])  # the largest block accepted
@given(horner_cases(), st.lists(st.floats(-1.0, 1.0), max_size=3))
def test_the_float_evaluator_gives_the_bytes_of_the_array_pass(tri, xs):
    # the mean field's float pass (CoherentEnergy) gives the bytes of the
    # grid scan's array pass (_sums, frozen above) on the same table
    # in both branches (s <= c and s > c), on both poles and at the equator
    # x = p/j = 0, where B = 2 sqrt(s c) Q is Q itself; at q = -phi there,
    # cos(q + phi) = 1 exactly.  Off the chart and at p = NaN, the clamp is
    # min(1, max(-1, p / j))
    energy, j = variational.CoherentEnergy(tri), 0.5 * (tri.dim - 1)
    assert _bits(energy(0.0, -tri.params.g_phase)) == _bits(
        _float_path(tri, 0.0, -tri.params.g_phase)
    )
    off_chart = [1.5, -1.5, math.inf, -math.inf, math.nan]
    points = [-1.0, 1.0, *off_chart, *np.linspace(-0.9, 0.9, 7).tolist(), *xs]
    for k, x in enumerate(points):
        q = 0.3 * k - 2.0
        assert _bits(energy(x * j, q)) == _bits(_float_path(tri, x * j, q))


def test_a_nan_in_dq_skips_the_rescale_as_in_the_array_pass():
    # np.maximum keeps a NaN and frexp gives it the exponent 0, so the array
    # pass does not rescale past a NaN dQ/ds; the float pass must not either,
    # or H, finite here, would get other bytes at d = 2001.  Off-diagonal
    # entries of alternating sign make dbeta overflow to +-inf, and inf - inf
    # is the NaN
    n = 2000
    off = 2e304 * (-1.0) ** np.arange(n)
    params = HamiltonianParams(a=0.0, g_mod=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        tri = TridiagonalHamiltonian(np.zeros(n + 1), off, params)
        got = variational.CoherentEnergy(tri)(0.0, 0.0)
        want = _float_path(tri, 0.0, 0.0)
    assert math.isfinite(got[0]) and math.isnan(got[1])
    assert _bits(got) == _bits(want)


def _sign_change_across(f, x, width):
    """F is 0 at x, or has opposite signs at x - width and x + width."""
    if f(x) == 0.0:
        return True
    return (f(x - width) < 0.0) != (f(x + width) < 0.0)


@st.composite
def dipped_blocks(draw):
    """A custom-psi block whose squared rungs dip inside it, and |g|.

    psi = -(x - l0)(x - l0 - d)(x - l0 - m + w)(x - l0 - m - w) with m a
    half-integer: the inner roots sit between two rungs, so psi stays
    positive on every rung and small near l0 + m.  Such blocks can have
    four or more stationary points, which merge in pairs as a varies.
    """
    d = draw(st.integers(5, 10))
    l0 = draw(st.floats(-2.0, 2.0))
    m = draw(st.integers(1, d - 2)) + 0.5
    w = draw(st.floats(0.2, 0.45))
    psi = StructureFunction(leading=-1.0, roots=(l0, l0 + d, l0 + m - w, l0 + m + w))
    return build_block(psi, l0), psi, draw(st.floats(0.3, 3.0))


def _fold(block, psi, g_mod):
    """alpha, h and h'' at the first interior extremum of h = -G / (alpha c).

    F = a/|g| alpha c + G vanishes where h(alpha) = a/|g|, so two roots
    merge at an extremum of h as a passes h there.
    """
    tri = build_hamiltonian(block, psi, HamiltonianParams(a=0.0, g_mod=g_mod))
    stat = stationarity(tri)

    def h(x):
        return -stat.slope(x)[0] * (1.0 + x * x) / x

    xs = np.tan(np.linspace(-math.pi / 2, math.pi / 2, 4001)[1:-1])
    xs = xs[np.abs(xs) > 1e-3]
    rise = np.diff([h(x) for x in xs.tolist()]) > 0.0
    turns = np.nonzero(rise[:-1] != rise[1:])[0]
    if not turns.size:
        return None
    lo, hi = xs[turns[0]], xs[turns[0] + 2]
    sense = 1.0 if rise[turns[0]] else -1.0  # a maximum, else a minimum
    for _ in range(80):  # golden-section search for the extremum
        x1, x2 = hi - 0.618 * (hi - lo), lo + 0.618 * (hi - lo)
        if sense * h(x1) > sense * h(x2):
            hi = x2
        else:
            lo = x1
    x = 0.5 * (lo + hi)
    step = 1e-4 * (1.0 + abs(x))
    return x, h(x), (h(x + step) - 2.0 * h(x) + h(x - step)) / step**2


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(dipped_blocks())
def test_stationary_points_closer_than_a_grid_cell_are_both_reported(case):
    # a set a hair past a fold of h puts two roots 1e-5 apart in r, within
    # one cell (pi / 4000) of the 4,001-angle grid the scan once ran on:
    # no sign change of F on that grid shows them, and the certified scan
    # reports both, with the termwise residual changing sign across each
    block, psi, g_mod = case
    fold = _fold(block, psi, g_mod)
    assume(fold is not None)
    x, h, curve = fold
    gap = 1e-5 * (1.0 + x * x)  # 1e-5 in r, in alpha
    params = HamiltonianParams(a=(h + curve * gap * gap / 8.0) * g_mod, g_mod=g_mod)
    roots = solve_alpha(build_hamiltonian(block, psi, params)).alpha_roots
    pair = [al for al in roots if abs(al - x) < 4.0 * gap]
    assert len(pair) == 2
    assert abs(math.atan(pair[0]) - math.atan(pair[1])) < math.pi / 4000

    def residual(al):
        return stationarity_residual(block, psi, params, al)

    for al in pair:
        assert _sign_change_across(residual, al, 0.1 * gap)


def test_zero_detuning_of_either_sign_gives_mirrored_roots():
    # at a = 0 and a = -0.0 (two scan keys) F is even in alpha: each root of
    # G gives the pair -alpha, alpha, and both signs give the same roots
    block, psi = build_model_block(BlockLabel(1, 6))
    sols = [
        solve_alpha(build_hamiltonian(block, psi, HamiltonianParams(a=a, g_mod=0.9)))
        for a in (0.0, -0.0)
    ]
    roots = np.array(sols[0].alpha_roots)
    assert roots.size == 2 and roots.tobytes() == (-roots[::-1]).tobytes()
    assert sols[0].alpha_roots == sols[1].alpha_roots
    assert sols[0].residuals == sols[1].residuals


@pytest.mark.parametrize("a", [0.0, 0.7, -1.3])
def test_roots_at_alpha_zero_and_at_the_pole(a):
    # a zero first rung makes alpha = 0 (s = 0) a root, a zero last rung the
    # pole r = -pi/2 (s = 1), reported once as the float tan(pi/2).  F
    # changes sign across each; at a = 0 it is even in alpha and touches 0
    # there instead
    params = HamiltonianParams(a=a, g_mod=1.0)
    for off, at in (([0.0, 1.0, 1.5, 1.2], 0.0), ([1.0, 1.5, 1.2, 0.0], math.tan(math.pi / 2))):
        tri = TridiagonalHamiltonian(np.arange(5.0), np.array(off), params)
        sol = variational_spectrum(tri)
        assert sol.alpha_roots.count(at) == 1
        assert abs(sol.residuals[sol.alpha_roots.index(at)]) <= 1e-15
        f = stationarity(tri)
        ends = [f.slope(x)[0] for x in ((-1e8, 1e8) if at else (-1e-8, 1e-8))]
        assert (ends[0] < 0.0) != (ends[1] < 0.0) if a else ends[0] == ends[1]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("label", [BlockLabel(0, 6), BlockLabel(2, 11, -1)])
def test_large_detuning_roots_against_the_termwise_residual(label, sign):
    # |a|/|g| = 1e3 puts one root near alpha = 0 and one near a pole; the
    # termwise residual changes sign across each
    block, psi = build_model_block(label)
    params = HamiltonianParams(a=sign * 1.1e3, g_mod=1.1, g_phase=0.4)
    roots = solve_alpha(build_hamiltonian(block, psi, params)).alpha_roots
    assert len(roots) == 2
    assert sorted(abs(al) < 1e-2 for al in roots) == [False, True]
    assert max(abs(al) for al in roots) > 1e2

    def residual(al):
        return stationarity_residual(block, psi, params, al)

    for al in roots:
        assert _sign_change_across(residual, al, 1e-7 * abs(al))


@st.composite
def accepted_blocks(draw):
    """A block of 2 to 2,001 levels: three-boson, cubic custom psi or sl(2)."""
    d = draw(st.integers(2, 2001))
    kind = draw(st.sampled_from(["three_boson", "custom", "sl2"]))
    g = draw(st.complex_numbers(min_magnitude=0.05, max_magnitude=3.0, allow_infinity=False))
    if kind == "three_boson":
        w1, w2 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
        params = ThreeBosonParams(w1, w2, w1 + w2 + draw(st.floats(-3.0, 3.0)), g)
        label = BlockLabel(draw(st.integers(0, 40)), d - 1, draw(st.sampled_from([1, -1])))
        return model_hamiltonian(label, params)
    if kind == "custom":
        l0, gap = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.5, 3.0))
        psi = StructureFunction(leading=1.0, roots=(l0, l0 + d, l0 + d + gap))
        block = build_block(psi, l0)
    else:
        block, psi = sl2_block((d - 1) / 2)
    params = HamiltonianParams.from_coupling(draw(st.floats(-3.0, 3.0)), g)
    return build_hamiltonian(block, psi, params)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@example(model_hamiltonian(BlockLabel(0, 2000), ThreeBosonParams(1.0, 1.0, 2.0, 1.0)))
@example(model_hamiltonian(BlockLabel(0, 2000), ThreeBosonParams(1.0, 1.3, 2.0, 0.8 + 0.3j)))
@given(accepted_blocks())
def test_root_count_is_certified_over_the_accepted_range(tri):
    # every reported root is a sign change of F (or a zero of it), there
    # are as many roots off s = 0 and s = 1 as the Bernstein bound of the
    # whole of [0, 1] certifies (twice that of G at a = 0), and the
    # residuals stay within the relative bound of the small blocks
    sol = solve_alpha(tri)
    stat = stationarity(tri)
    for al in sol.alpha_roots:
        assert _sign_change_across(lambda x: stat.slope(x)[0], al, 1e-8 * max(1.0, abs(al)))
    bound = variational._variations(stat.poly())
    inner = [al for al in sol.alpha_roots if al not in (0.0, variational._POLE)]
    assert len(inner) == (2 * bound if tri.params.a == 0.0 else bound)
    assert max(abs(res) for res in sol.residuals) <= 1e-10


def test_coherent_energy_refuses_a_sum_past_the_float_range():
    # off-diagonal +-1e300 of alternating sign at d = 2001: the rescaled
    # Horner sums leave the float range when their power of two is restored
    n = 2000
    params = HamiltonianParams(a=0.0, g_mod=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        tri = TridiagonalHamiltonian(np.zeros(n + 1), 1e300 * (-1.0) ** np.arange(n), params)
        energy = variational.CoherentEnergy(tri)
        with pytest.raises(RuntimeError, match="coherent-state sum overflows"):
            energy(0.3 * 0.5 * n, 0.0)
        with pytest.raises(RuntimeError, match="^block k0_m2000: the coherent-state sum overflows"):
            with in_block("k0_m2000"):
                variational_spectrum(tri)
