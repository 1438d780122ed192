"""Block Hamiltonians: exact spectra, oracles, su(2) reference, overlaps."""

import cmath
import math

import numpy as np
import pytest

from polysl2.algebra import Block, BlockError, StructureFunction, build_block
from polysl2.solver import (
    HamiltonianParams,
    amplitude_recurrence,
    build_hamiltonian,
    eigensolve,
    sl2_reference_spectrum,
    spectral_polynomial_roots,
)
from polysl2.reference import gcs_overlaps
from polysl2.three_boson import BlockLabel, build_model_block


def sl2_block(j):
    psi = StructureFunction(leading=-1.0, roots=(-j, j + 1.0))
    return build_block(psi, -j), psi


def rand_params(rng, phase=True):
    return HamiltonianParams(
        a=float(rng.uniform(-2, 2)),
        g_mod=float(rng.uniform(0.2, 2.0)),
        g_phase=float(rng.uniform(0, 2 * math.pi)) if phase else 0.0,
        constant=float(rng.uniform(-1, 1)),
    )


def test_params_g_property_and_validation():
    p = HamiltonianParams(a=0.0, g_mod=2.0, g_phase=math.pi / 2)
    assert p.g == pytest.approx(2j)
    with pytest.raises(ValueError):
        HamiltonianParams(a=0.0, g_mod=-1.0)


def test_build_hamiltonian_entries():
    block, psi = build_model_block(BlockLabel(0, 3))
    params = HamiltonianParams(a=0.5, g_mod=1.5, g_phase=0.2, constant=2.0)
    tri = build_hamiltonian(block, psi, params)
    assert np.allclose(tri.diag, 2.0 + 0.5 * (block.l0 + np.arange(4)))
    expect_off = 1.5 * np.sqrt([v * v * (4 - v) for v in (1, 2, 3)])
    assert np.allclose(tri.offdiag, expect_off)
    assert tri.g_phase == 0.2


def test_build_hamiltonian_rejects_negative_psi():
    # psi negative on the tower interior (mismatched with the block)
    psi = StructureFunction(leading=1.0, roots=(0.0, 3.0))
    block, _ = build_model_block(BlockLabel(0, 2))  # dim 3 tower
    with pytest.raises(BlockError):
        build_hamiltonian(block, psi, HamiltonianParams(a=0.0, g_mod=1.0))


def test_eigensolve_d1():
    block, psi = build_model_block(BlockLabel(0, 0))
    tri = build_hamiltonian(block, psi, HamiltonianParams(a=1.0, g_mod=3.0, constant=4.0))
    spec = eigensolve(tri)
    assert spec.energies.shape == (1,)
    assert spec.energies[0] == tri.diag[0] == 4.0 + 1.0 * block.l0
    assert spec.amplitudes[0, 0] == 1.0
    assert tri.norm_bound() == abs(tri.diag[0])


def test_spectrum_keeps_real_vectors_and_the_coupling_phase():
    rng = np.random.default_rng(4)
    block, psi = build_model_block(BlockLabel(1, 8, -1))
    params = rand_params(rng)
    assert params.g_phase != 0.0
    tri = build_hamiltonian(block, psi, params)
    exact = eigensolve(tri)
    ref = sl2_reference_spectrum(block, params)
    for spec in (exact, ref):
        assert spec.vectors.dtype == np.float64
        assert spec.phase == params.g_phase
        phases = np.exp(1j * params.g_phase * np.arange(block.dim))
        assert np.array_equal(spec.amplitudes, phases[:, None] * spec.vectors)
    # the exact amplitudes diagonalise the phased matrix
    q = exact.amplitudes
    h = tri.dense()
    bound = max(1.0, tri.norm_bound())
    assert np.max(np.abs(h @ q - q * exact.energies)) <= 1e-12 * bound
    # coefficients <E_f|c0> agree with the complex amplitudes
    c0 = rng.normal(size=block.dim) + 1j * rng.normal(size=block.dim)
    assert np.allclose(exact.coefficients(c0), q.conj().T @ c0, rtol=0, atol=1e-13)


def test_eigensolve_resonant_cubic_block():
    # m=2 symmetric block at resonance: spectrum C + {-sqrt(6), 0, sqrt(6)}
    block, psi = build_model_block(BlockLabel(0, 2))
    spec = eigensolve(build_hamiltonian(block, psi, HamiltonianParams(a=0.0, g_mod=1.0)))
    assert np.allclose(spec.energies, [-math.sqrt(6), 0.0, math.sqrt(6)], atol=1e-12)


def test_eigensolve_matches_dense_with_phase():
    # the gauge transform must reproduce the dense complex matrix exactly
    rng = np.random.default_rng(10)
    for lab in (BlockLabel(0, 5), BlockLabel(2, 6, 1), BlockLabel(1, 8, -1)):
        block, psi = build_model_block(lab)
        params = rand_params(rng)
        tri = build_hamiltonian(block, psi, params)
        h = tri.dense()
        assert np.allclose(h, h.conj().T)
        ref = np.linalg.eigvalsh(h)
        spec = eigensolve(tri)
        assert np.allclose(spec.energies, ref, atol=1e-10 * tri.norm_bound())
        # amplitudes are eigenvectors of the original (phased) matrix
        for f in range(block.dim):
            res = h @ spec.amplitudes[:, f] - spec.energies[f] * spec.amplitudes[:, f]
            assert np.linalg.norm(res) <= 1e-10 * max(1.0, tri.norm_bound())
        # unitarity of the amplitude matrix
        q = spec.amplitudes
        assert np.allclose(q.conj().T @ q, np.eye(block.dim), atol=1e-12)


def test_eigensolve_degenerate_levels_stay_orthonormal():
    # a = g = 0 collapses the whole block to one eigenvalue
    block, psi = build_model_block(BlockLabel(0, 4))
    tri = build_hamiltonian(block, psi, HamiltonianParams(a=0.0, g_mod=0.0, constant=1.0))
    spec = eigensolve(tri)
    assert np.allclose(spec.energies, 1.0)
    q = spec.amplitudes
    assert np.allclose(q.conj().T @ q, np.eye(block.dim), atol=1e-12)


def test_sturm_roots_match_eigensolve():
    rng = np.random.default_rng(77)
    labels = [BlockLabel(0, 9), BlockLabel(3, 12, -1), BlockLabel(1, 20, 1)]
    for lab in labels:
        block, psi = build_model_block(lab)
        for _ in range(4):
            tri = build_hamiltonian(block, psi, rand_params(rng))
            e_lapack = eigensolve(tri).energies
            e_sturm = spectral_polynomial_roots(tri)
            assert np.all(np.diff(e_sturm) >= -1e-12)
            tol = 1e-10 * max(1.0, tri.norm_bound())
            assert np.max(np.abs(e_lapack - e_sturm)) <= tol


def test_sturm_roots_d1_and_degenerate():
    block, psi = build_model_block(BlockLabel(0, 0))
    tri = build_hamiltonian(block, psi, HamiltonianParams(a=2.0, g_mod=0.0, constant=0.5))
    assert np.array_equal(spectral_polynomial_roots(tri), tri.diag)
    block4, psi4 = build_model_block(BlockLabel(0, 3))
    tri4 = build_hamiltonian(block4, psi4, HamiltonianParams(a=0.0, g_mod=0.0, constant=2.5))
    assert np.allclose(spectral_polynomial_roots(tri4), 2.5, atol=1e-11)


def test_amplitude_recurrence_reproduces_eigenvectors():
    rng = np.random.default_rng(5)
    block, psi = build_model_block(BlockLabel(2, 7, 1))
    tri = build_hamiltonian(block, psi, rand_params(rng))
    spec = eigensolve(tri)
    for f in range(block.dim):
        q, res = amplitude_recurrence(tri, float(spec.energies[f]))
        assert res <= 1e-8 * tri.norm_bound()
        assert np.linalg.norm(q) == pytest.approx(1.0)
        # same vector as LAPACK up to the gauge phase and a global sign
        assert np.allclose(np.abs(q), np.abs(spec.amplitudes[:, f]), atol=1e-7)


def test_amplitude_recurrence_off_eigenvalue_has_large_residual():
    block, psi = build_model_block(BlockLabel(0, 4))
    tri = build_hamiltonian(block, psi, HamiltonianParams(a=0.3, g_mod=1.0))
    spec = eigensolve(tri)
    mid = 0.5 * (spec.energies[0] + spec.energies[1])
    _, res = amplitude_recurrence(tri, float(mid))
    assert res > 1e-3


def test_amplitude_recurrence_zero_coupling_segments():
    block, psi = build_model_block(BlockLabel(0, 3))
    tri = build_hamiltonian(block, psi, HamiltonianParams(a=1.0, g_mod=0.0))
    # decoupled chain: eigenvector at diag[2] is the basis vector e_2
    q, res = amplitude_recurrence(tri, float(tri.diag[2]))
    assert res <= 1e-14
    expect = np.zeros(block.dim)
    expect[2] = 1.0
    assert np.allclose(np.abs(q), expect)


def test_norm_bound_dominates_spectrum():
    rng = np.random.default_rng(8)
    block, psi = build_model_block(BlockLabel(1, 10, -1))
    tri = build_hamiltonian(block, psi, rand_params(rng))
    spec = eigensolve(tri)
    assert np.max(np.abs(spec.energies)) <= tri.norm_bound() + 1e-12


def test_sl2_reference_equidistant_and_exact_in_sl2_limit():
    j = 3.0
    block, psi = sl2_block(j)
    params = HamiltonianParams(a=1.2, g_mod=0.8, g_phase=0.5, constant=0.3)
    ref = sl2_reference_spectrum(block, params)
    omega = math.hypot(1.2, 1.6)
    spacings = np.diff(ref.energies)
    assert np.allclose(spacings, omega, atol=1e-12)
    # for psi = psi_2 the reference IS the exact spectrum
    spec = eigensolve(build_hamiltonian(block, psi, params))
    assert np.allclose(ref.energies, spec.energies, atol=1e-10)
    for f in range(block.dim):
        h = build_hamiltonian(block, psi, params).dense()
        res = h @ ref.amplitudes[:, f] - ref.energies[f] * ref.amplitudes[:, f]
        assert np.linalg.norm(res) <= 1e-9


def test_sl2_reference_on_deformed_block_keeps_closed_form():
    block, _ = build_model_block(BlockLabel(0, 4))
    params = HamiltonianParams(a=0.7, g_mod=1.1, constant=2.0)
    ref = sl2_reference_spectrum(block, params)
    omega = math.hypot(0.7, 2.2)
    base = 2.0 + 0.7 * (block.l0 + block.j)
    expect = base + (np.arange(5) - block.j) * omega
    assert np.allclose(ref.energies, expect, atol=1e-12)


def su2_hamiltonian(block, params):
    """Dense C + a V0 + g Y+ + g* Y- with the spin-j ladder, built entry by entry."""
    d, twoj = block.dim, block.dim - 1
    h = np.zeros((d, d), dtype=complex)
    for v in range(d):
        h[v, v] = params.constant + params.a * (block.l0 + v)
    for v in range(d - 1):
        h[v + 1, v] = params.g * math.sqrt((v + 1) * (twoj - v))
        h[v, v + 1] = h[v + 1, v].conjugate()
    return h


@pytest.mark.parametrize(
    "block, params",
    [
        (build_model_block(BlockLabel(2, 9, -1))[0], HamiltonianParams(0.7, 1.1, 0, 2)),
        (Block(l0=0.5, dim=1), HamiltonianParams(-0.3, 0.8, 0.4, 1.0)),
        (Block(l0=-0.5, dim=2), HamiltonianParams(0.6, 1.3, 0.0, -0.2)),
        (Block(l0=-3.0, dim=7), HamiltonianParams(-1.4, 0.0, 0.0, 0.5)),
        (Block(l0=-2.5, dim=6), HamiltonianParams(0.0, 0.0, 0.0, 0.0)),
        (Block(l0=1.0 / 3, dim=9), HamiltonianParams(-0.9, 0.7, 2.3, 0.1)),
    ],
    ids=["deformed", "d1", "d2", "g0_a_negative", "a0_g0", "complex_phase"],
)
def test_sl2_reference_amplitudes_are_su2_eigenvectors(block, params):
    # the rotated basis diagonalises the su(2) Hamiltonian in its own order
    ref = sl2_reference_spectrum(block, params)
    h = su2_hamiltonian(block, params)
    bound = max(np.max(np.sum(np.abs(h), axis=1)), 1.0)
    q = ref.amplitudes
    assert q.shape == (block.dim, block.dim)
    assert np.max(np.abs(h @ q - q * ref.energies)) <= 1e-12 * bound
    assert np.allclose(q.conj().T @ q, np.eye(block.dim), atol=1e-12)


def test_gcs_overlaps_unit_norm():
    block, _ = build_model_block(BlockLabel(0, 6))
    for v in (0, 2, 6):
        for r in (-1.1, 0.4, 1.3):
            c = gcs_overlaps(block, v, r, theta=0.7)
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-10)


def test_gcs_overlaps_identity_rotation():
    block, _ = build_model_block(BlockLabel(0, 5))
    c = gcs_overlaps(block, 3, 0.0, theta=1.0)
    expect = np.zeros(6, dtype=complex)
    expect[3] = 1.0
    assert np.allclose(c, expect)


def test_gcs_overlaps_v0_is_binomial_coherent_state():
    # lowest level GCS: c_f = (cos r)^{2j} (-e^{i theta} tan r)^f sqrt(C(2j, f))
    block, _ = build_model_block(BlockLabel(0, 4))
    twoj = 4
    r, theta = 0.62, 0.3
    c = gcs_overlaps(block, 0, r, theta)
    for f in range(5):
        expect = (
            math.cos(r) ** twoj
            * (-cmath.exp(1j * theta) * math.tan(r)) ** f
            * math.sqrt(math.comb(twoj, f))
        )
        assert c[f] == pytest.approx(expect, abs=1e-12)


def test_gcs_overlaps_rejects_pole_and_bad_level():
    block, _ = build_model_block(BlockLabel(0, 3))
    with pytest.raises(ValueError):
        gcs_overlaps(block, 0, math.pi / 2)
    with pytest.raises(ValueError):
        gcs_overlaps(block, 9, 0.3)
