"""Three-boson model: labels, structure function, Fock projection."""

import cmath
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from polysl2.algebra import build_block
from polysl2.three_boson import (
    BlockLabel,
    CoherentInput,
    ThreeBosonParams,
    block_constants,
    block_fock_state,
    build_model_block,
    enumerate_blocks,
    fock_to_block,
    project_coherent,
    psi3_for_block,
    _mode_amplitudes,
)


def test_label_integrals_of_motion_are_exact():
    lab = BlockLabel(k=1, m=2, sign=1)
    assert lab.r1 == 1
    assert lab.r2 == Fraction(5, 3)
    assert lab.l0 == Fraction(-1, 3)
    assert lab.dim == 3
    lab_minus = BlockLabel(k=1, m=2, sign=-1)
    assert lab_minus.r1 == -1
    assert lab_minus.l0 == lab.l0


def test_label_validation():
    with pytest.raises(ValueError):
        BlockLabel(k=-1, m=0)
    with pytest.raises(ValueError):
        BlockLabel(k=0, m=-2)
    with pytest.raises(ValueError):
        BlockLabel(k=1, m=1, sign=2)
    # k=0 has a single symmetric class
    assert BlockLabel(k=0, m=3, sign=-1).sign == 1


def test_block_id_format():
    assert BlockLabel(k=0, m=2).block_id == "k0_m2"
    assert BlockLabel(k=1, m=3, sign=1).block_id == "k1p_m3"
    assert BlockLabel(k=1, m=3, sign=-1).block_id == "k1m_m3"


def test_psi3_symmetric_blocks_closed_form():
    # k=0: psi(l0+v) = v^2 (m+1-v), exactly over the rationals
    for m in (0, 1, 2, 5, 17, 50):
        lab = BlockLabel(k=0, m=m)
        psi, l0 = psi3_for_block(lab)
        for v in range(m + 2):
            val = psi(l0 + v)
            assert isinstance(val, Fraction)
            assert val == Fraction(v * v * (m + 1 - v))


def test_psi3_matches_second_quantization():
    # ladder squares (k+v+1)(v+1)(m-v) from the mode operators directly
    for lab in (
        BlockLabel(0, 4),
        BlockLabel(1, 3, 1),
        BlockLabel(1, 3, -1),
        BlockLabel(5, 7, 1),
        BlockLabel(2, 6, -1),
    ):
        psi, l0 = psi3_for_block(lab)
        for v in range(lab.m):
            expect = (lab.k + v + 1) * (v + 1) * (lab.m - v)
            assert psi(l0 + v + 1) == Fraction(expect)


def test_psi3_terminates_exactly_at_dim():
    lab = BlockLabel(k=3, m=6, sign=-1)
    psi, l0 = psi3_for_block(lab)
    assert psi(l0 + lab.dim) == 0


def test_build_model_block_dim_and_labels():
    lab = BlockLabel(k=2, m=5, sign=1)
    block, psi = build_model_block(lab)
    assert block.dim == 6
    assert block.l0 == pytest.approx(-1.0)
    # interior positivity
    assert np.all(psi.values(block.l0 + np.arange(1, 6)) > 0)


def _scanned_block(label):
    """The psi-scan route: the tower ends at the first rung where psi vanishes."""
    psi, l0 = psi3_for_block(label)
    return build_block(psi, float(l0), dmax=label.m + 2)


def test_build_model_block_matches_the_psi_scan():
    labels = enumerate_blocks(12)
    labels += [BlockLabel(0, 500), BlockLabel(0, 2000), BlockLabel(7, 2000, -1)]
    for label in labels:
        block, psi = build_model_block(label)
        assert block == _scanned_block(label), label.block_id
        assert all(isinstance(r, Fraction) for r in psi.roots)


def test_detuning_and_constants():
    params = ThreeBosonParams(omega1=1.1, omega2=0.7, omega3=1.3, g=0.8 * cmath.exp(0.4j))
    assert params.detuning == pytest.approx(0.5)
    lab = BlockLabel(k=1, m=2, sign=-1)
    hp = block_constants(lab, params)
    assert hp.a == pytest.approx(0.5)
    assert hp.g_mod == pytest.approx(0.8)
    assert hp.g_phase == pytest.approx(0.4)
    # 2C = R1(w1-w2) + R2(w1+w2+2w3)
    expect = 0.5 * (-1 * 0.4 + (5 / 3) * (1.1 + 0.7 + 2.6))
    assert hp.constant == pytest.approx(expect)


def test_fock_roundtrip_over_cube():
    nc = 4
    seen = set()
    for n1 in range(nc + 1):
        for n2 in range(nc + 1):
            for n3 in range(nc + 1):
                lab, v = fock_to_block(n1, n2, n3)
                assert block_fock_state(lab, v) == (n1, n2, n3)
                key = (lab.k, lab.m, lab.sign, v)
                assert key not in seen
                seen.add(key)
    assert len(seen) == (nc + 1) ** 3


def test_enumerate_blocks_counts():
    labs = enumerate_blocks(1)
    assert len(labs) == 7
    ids = [lab.block_id for lab in labs]
    assert ids == ["k0_m0", "k0_m1", "k0_m2", "k1p_m0", "k1m_m0", "k1p_m1", "k1m_m1"]
    assert enumerate_blocks(0) == [BlockLabel(0, 0)]


def test_enumerate_blocks_partitions_cube():
    # every cube state lands in exactly one enumerated block position
    for nc in (1, 2, 3):
        positions = set()
        for lab in enumerate_blocks(nc):
            for v in range(lab.dim):
                state = block_fock_state(lab, v)
                if max(state) <= nc:
                    positions.add(state)
        cube = {
            (a, b, c)
            for a in range(nc + 1)
            for b in range(nc + 1)
            for c in range(nc + 1)
        }
        assert positions == cube


def test_coherent_input_validation():
    with pytest.raises(ValueError):
        CoherentInput(alpha1=0, alpha2=0, alpha3=1.0, ncut=0)


def test_project_coherent_pump_only_is_poisson():
    inp = CoherentInput(alpha1=0, alpha2=0, alpha3=2.0, ncut=12)
    nbar = 4.0
    total = 0.0
    for lab in enumerate_blocks(12):
        c = project_coherent(inp, lab)
        w = float(np.sum(np.abs(c) ** 2))
        total += w
        if lab.k == 0 and lab.m <= 12:
            # only the lowest vector of each symmetric block is populated
            expect = math.exp(-nbar) * nbar**lab.m / math.factorial(lab.m)
            assert w == pytest.approx(expect, rel=1e-12)
            assert np.all(c[1:] == 0)
        elif lab.k > 0:
            assert w == 0.0
    assert 1.0 - total == pytest.approx(
        1.0 - sum(math.exp(-nbar) * nbar**m / math.factorial(m) for m in range(13)),
        abs=1e-15,
    )


def test_project_coherent_matches_dense_tensor():
    # small cube, generic complex amplitudes: compare against the raw
    # product-state coefficients collected block by block
    nc = 2
    a1, a2, a3 = 0.6 + 0.2j, -0.4 + 0.1j, 0.9 - 0.5j

    def mode_amp(alpha, n):
        return (
            cmath.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
        )

    inp = CoherentInput(alpha1=a1, alpha2=a2, alpha3=a3, ncut=nc)
    for lab in enumerate_blocks(nc):
        c = project_coherent(inp, lab)
        for v in range(lab.dim):
            n1, n2, n3 = block_fock_state(lab, v)
            if max(n1, n2, n3) > nc:
                expect = 0.0
            else:
                expect = mode_amp(a1, n1) * mode_amp(a2, n2) * mode_amp(a3, n3)
            assert c[v] == pytest.approx(expect, abs=1e-14)


def test_project_coherent_zero_outside_window():
    # m > ncut: the low end of the tower pokes out of the cube
    inp = CoherentInput(alpha1=0.5, alpha2=0.5, alpha3=1.5, ncut=3)
    lab = BlockLabel(k=0, m=5)
    c = project_coherent(inp, lab)
    # v < m - ncut means n3 = m - v > ncut
    assert np.all(c[:2] == 0)
    assert np.any(c[2:] != 0)


@pytest.mark.parametrize("alpha", [1.0, 3.0, 10.0, 0.7 - 1.1j, -2.5 + 0.5j, 0.3j])
def test_mode_amplitudes_match_exact_factorials(alpha):
    # |c_n|^2 = e^-x x^n / n! with x = |alpha|^2, exact but for exp(-x).
    # The amplitude is exp of a sum of three logs, so its rounding error
    # grows with their size: allow 4 ulp of 1 + 0.5 x + n |log|alpha|| +
    # 0.5 log n! (under 1e-14 for the first n, about 1e-12 at n = 300).
    nmax = 300
    got = _mode_amplitudes(alpha, nmax)
    mod = abs(alpha)
    x = mod * mod
    for n in range(nmax + 1):
        want_sq = Fraction(math.exp(-x)) * Fraction(mod) ** (2 * n)
        want_sq /= math.factorial(n)
        if want_sq < Fraction(1, 10**600):
            continue  # an amplitude below 1e-300 nears the subnormal range
        rel = abs(math.sqrt(Fraction(abs(got[n])) ** 2 / want_sq) - 1.0)
        size = 1.0 + 0.5 * x + n * abs(math.log(mod))
        size += 0.5 * math.log(math.factorial(n))
        assert rel <= 4 * sys.float_info.epsilon * size, n
