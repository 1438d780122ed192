"""Trial-state energy functional, stationarity roots, spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysl2 import variational
from polysl2.algebra import StructureFunction, build_block, su2_ladder, su2_rotation
from polysl2.reference import (
    _residual_scale,
    gcs_overlaps,
    reg_hyp_2F1,
    stationarity_residual,
)
from polysl2.solver import (
    HamiltonianParams,
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
    GRID_POINTS,
    energy_functional,
    solve_alpha,
    variational_spectrum,
)


def sl2_block(j):
    psi = StructureFunction(leading=-1.0, roots=(-j, j + 1.0))
    return build_block(psi, -j), psi


def two_level_block(w, l0=0.0):
    """psi with a single rung of squared element w."""
    psi = StructureFunction(leading=-w, roots=(l0, l0 + 2.0))
    return build_block(psi, l0), psi


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
    for v in range(4):
        e = energy_functional(block, psi, params, v, 0.0)
        assert e == pytest.approx(2.0 + 0.7 * (block.l0 + v))


def test_energy_functional_two_level_sine():
    # j=1/2, a=0: E(0,r) = -sqrt(w) sin 2r and E(1,r) = +sqrt(w) sin 2r
    w = 2.7
    block, psi = two_level_block(w)
    params = HamiltonianParams(a=0.0, g_mod=1.0)
    for r in (-1.0, 0.2, 0.9):
        e0 = energy_functional(block, psi, params, 0, r)
        e1 = energy_functional(block, psi, params, 1, r)
        assert e0 == pytest.approx(-math.sqrt(w) * math.sin(2 * r), abs=1e-12)
        assert e1 == pytest.approx(+math.sqrt(w) * math.sin(2 * r), abs=1e-12)


def test_energy_functional_rejects_pole_and_bad_level():
    block, psi = build_model_block(BlockLabel(0, 2))
    params = HamiltonianParams(a=0.0, g_mod=1.0)
    with pytest.raises(ValueError):
        energy_functional(block, psi, params, 0, math.pi / 2)
    with pytest.raises(ValueError):
        energy_functional(block, psi, params, 5, 0.3)


def test_energy_functional_equals_matrix_expectation():
    # independent route: rotate the basis state with the su(2) exponential
    # and take the expectation in the full block Hamiltonian
    psi = StructureFunction(leading=1.0, roots=(0.0, 5.0, 7.5))
    block = build_block(psi, 0.0)
    params = HamiltonianParams(a=1.0, g_mod=0.7, g_phase=0.9, constant=0.3)
    h = build_hamiltonian(block, psi, params).dense()
    for v in (0, 1, 3):
        for r in (0.6, -0.8, 1.2):
            c = gcs_overlaps(block, v, r, params.g_phase)
            e_mat = float(np.real(c.conj() @ h @ c))
            e_fun = energy_functional(block, psi, params, v, r)
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
            e_fun = energy_functional(block, psi, params, v, r)
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
    sol = solve_alpha(block, psi, HamiltonianParams(a=0.0, g_mod=1.0))
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
        sol = solve_alpha(block, psi, params)
        assert sol.alpha_roots
        for res in sol.residuals:
            assert abs(res) <= 1e-10


def test_solve_alpha_reports_empty_bracket(monkeypatch):
    # a stationarity function without a zero or sign change on the grid
    def positive(energy, params):
        return lambda alpha: np.ones(np.shape(alpha))

    monkeypatch.setattr(variational, "_stationarity", positive)
    block, psi = two_level_block(2.0)
    with pytest.raises(RuntimeError, match="no stationary point on the scan grid"):
        solve_alpha(block, psi, HamiltonianParams(a=0.0, g_mod=1.0))


def test_variational_two_level_exact():
    # selected root pi/4 rotation, energies -sqrt(2), +sqrt(2)
    block, psi = two_level_block(2.0)
    sol = variational_spectrum(block, psi, HamiltonianParams(a=0.0, g_mod=1.0))
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
        sol = variational_spectrum(block, psi, params)
        disc = math.sqrt(a * a + 4 * g * g * w)
        mid = cc + a * l0 + a / 2
        assert sol.energies[0] == pytest.approx(mid - disc / 2, abs=1e-8)
        assert sol.energies[1] == pytest.approx(mid + disc / 2, abs=1e-8)


def test_variational_sl2_reduction_sample():
    for j in (0.5, 1.5, 4.0):
        block, psi = sl2_block(j)
        for a, g in ((0.0, 0.5), (3.0, 2.0)):
            params = HamiltonianParams(a=a, g_mod=g)
            sol = variational_spectrum(block, psi, params)
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
        sol = variational_spectrum(block, psi, params)
        for al in sol.alpha_roots:
            e0 = energy_functional(block, psi, params, 0, -math.atan(al))
            assert e0 >= ground - 1e-10 * max(1.0, tri.norm_bound())
        assert sol.energies[0] >= ground - 1e-10 * max(1.0, tri.norm_bound())


def test_variational_energies_ignore_coupling_phase():
    block, psi = build_model_block(BlockLabel(0, 4))
    base = variational_spectrum(block, psi, HamiltonianParams(a=0.9, g_mod=1.2))
    for phase in (0.7, 2.9):
        other = variational_spectrum(
            block, psi, HamiltonianParams(a=0.9, g_mod=1.2, g_phase=phase)
        )
        assert np.allclose(other.energies, base.energies, atol=1e-12)
        assert other.theta == phase


def test_variational_nonequidistant_beyond_d3():
    block, psi = build_model_block(BlockLabel(0, 5))
    sol = variational_spectrum(block, psi, HamiltonianParams(a=0.0, g_mod=1.0))
    spacings = np.diff(sol.energies)
    assert np.max(spacings) - np.min(spacings) > 1e-3 * np.max(np.abs(sol.energies))


def test_variational_stationarity_crosscheck():
    # numerical dE0/dr at the selected root vanishes
    for lab in (BlockLabel(0, 4), BlockLabel(3, 5, 1)):
        block, psi = build_model_block(lab)
        params = HamiltonianParams(a=1.1, g_mod=0.9)
        sol = variational_spectrum(block, psi, params)
        h = 1e-6
        r = sol.r_selected
        der = (
            energy_functional(block, psi, params, 0, r + h)
            - energy_functional(block, psi, params, 0, r - h)
        ) / (2 * h)
        assert abs(block.dim * der) <= 1e-6 * params.g_mod


def test_variational_single_level_block():
    block, psi = build_model_block(BlockLabel(0, 0))
    params = HamiltonianParams(a=2.0, g_mod=1.0, constant=1.0)
    sol = variational_spectrum(block, psi, params)
    assert len(sol.energies) == 1
    assert sol.energies[0] == pytest.approx(1.0 + 2.0 * block.l0)


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
    energy = variational._CoherentEnergy(tri)
    f = float(variational._stationarity(energy, params)(np.array([alpha]))[0])
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
    # the production scan angles inside |alpha| <= 50, evaluated termwise,
    # bracket the same roots there
    block, psi, params = case
    grid = np.tan(np.linspace(-math.pi / 2, math.pi / 2, GRID_POINTS))
    xs = grid[np.abs(grid) <= 50.0]
    ys = np.array([stationarity_residual(block, psi, params, x) for x in xs])
    cells = np.nonzero(np.sign(ys[:-1]) * np.sign(ys[1:]) < 0)[0]
    try:
        sol = solve_alpha(block, psi, params)
    except RuntimeError:
        assert cells.size == 0 and not np.any(ys == 0.0)
        return
    roots = np.array([al for al in sol.alpha_roots if xs[0] <= al <= xs[-1]])
    expect = np.sort(np.concatenate([xs[ys == 0.0], xs[cells]]))
    assert roots.size == expect.size
    for root, i in zip(roots, np.searchsorted(xs, expect)):
        assert xs[i] <= root <= xs[min(i + 1, xs.size - 1)]


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
    alphas = np.array([-30.0, -1.41, -1.0, -0.999, 0.0, 0.5, 1.001, 1.3])
    got = variational._stationarity(variational._CoherentEnergy(tri), params)(alphas)
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
    energy = variational._CoherentEnergy(tri)
    bound = tri.norm_bound()
    roots = np.array(solve_alpha(block, psi, params).alpha_roots)
    c, s, bq, _ = energy.meridian(roots)
    ground = tri.diag[0] + params.a * (block.dim - 1) * s + 2.0 * roots * c * bq
    for al, e0 in zip(roots, ground):
        r = -math.atan(al)
        q = (0.0 if al > 0 else math.pi) - params.g_phase
        e, dhdp, dhdq = energy(block.j * math.cos(2 * r), q)
        assert abs(dhdq) <= 1e-12 * bound
        assert abs(dhdp) <= 1e-10 * bound / block.j
        level = variational._level_energies(tri.diag, tri.offdiag, r)[0]
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


def test_variational_spectrum_rotates_once_per_block(monkeypatch):
    # the root is chosen by the closed-form E(0, r), so every block of two or
    # more levels takes one rotation, however many roots it has
    calls = []
    level_energies = variational._level_energies

    def counted(diag, off, r):
        calls.append(r)
        return level_energies(diag, off, r)

    monkeypatch.setattr(variational, "_level_energies", counted)
    labels = [BlockLabel(0, 0), BlockLabel(0, 4), BlockLabel(2, 5, -1), BlockLabel(0, 30)]
    roots = 0
    for label in labels:
        block, psi = build_model_block(label)
        params = block_constants(label, ThreeBosonParams(1.0, 1.0, 2.0, 1.0))
        sol = variational_spectrum(block, psi, params)
        roots += len(sol.alpha_roots)
    assert len(calls) == 3
    assert roots > len(labels)
