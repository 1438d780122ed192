"""Time evolution, envelope detection, spacing ratios, mean field."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from polysl2 import dynamics
from polysl2.algebra import StructureFunction, build_block, holstein_primakoff
from polysl2.dynamics import (
    COLLAPSE_FRAC,
    PERSIST,
    REVIVAL_FRAC,
    WEIGHT_FLOOR,
    IncommensurabilityReport,
    _block_signals,
    _evolve_grid,
    Signal,
    detect_collapse_revival,
    evolve_block,
    fock_signal,
    incommensurability_measure,
    meanfield_trajectory,
    observable_n3,
    rabi_signal,
)
from polysl2.reference import evolve_grid_gemm
from polysl2.solver import HamiltonianParams, build_hamiltonian, eigensolve
from polysl2.variational import _CoherentEnergy
from polysl2.three_boson import (
    BlockLabel,
    CoherentInput,
    ThreeBosonParams,
    block_constants,
    build_model_block,
    coherent_block_weights,
    coherent_tail_deficit,
    enumerate_blocks,
    fock_to_block,
    project_coherent,
)


def two_level_spectrum():
    psi = StructureFunction(leading=-2.0, roots=(0.0, 2.0))
    block = build_block(psi, 0.0)
    tri = build_hamiltonian(block, psi, HamiltonianParams(a=0.0, g_mod=1.0))
    return eigensolve(tri)


def test_evolve_identity_at_t0():
    sp = two_level_spectrum()
    c0 = np.array([0.6, 0.8j])
    assert np.allclose(evolve_block(sp, c0, 0.0), c0, atol=1e-14)


def test_evolve_two_level_rabi():
    # offdiagonal sqrt(2): population returns as cos^2(sqrt(2) t)
    sp = two_level_spectrum()
    c0 = np.array([1.0, 0.0])
    for t in (0.3, 1.0, 2.7):
        c = evolve_block(sp, c0, t)
        assert abs(c[0]) ** 2 == pytest.approx(
            math.cos(math.sqrt(2) * t) ** 2, abs=1e-12
        )


def test_evolve_unitary_long_time_and_composition():
    block, psi = build_model_block(BlockLabel(0, 6))
    sp = eigensolve(build_hamiltonian(block, psi, HamiltonianParams(a=0.4, g_mod=1.2)))
    rng = np.random.default_rng(5)
    c0 = rng.normal(size=7) + 1j * rng.normal(size=7)
    c0 /= np.linalg.norm(c0)
    c = evolve_block(sp, c0, 1e3)
    assert abs(np.linalg.norm(c) - 1.0) <= 1e-10
    both = evolve_block(sp, evolve_block(sp, c0, 0.7), 0.9)
    assert np.allclose(both, evolve_block(sp, c0, 1.6), atol=1e-12)


def test_observable_counts_pump_quanta():
    label = BlockLabel(0, 3)
    assert observable_n3(label, [1.0, 0, 0, 0]) == pytest.approx(3.0)
    assert observable_n3(label, [0, 0, 1.0, 0]) == pytest.approx(1.0)
    half = 1 / math.sqrt(2)
    assert observable_n3(label, [half, half * 1j, 0, 0]) == pytest.approx(2.5)
    # sign only relabels the first two modes, the third is untouched
    assert observable_n3(BlockLabel(2, 2, -1), [0, 1.0, 0]) == pytest.approx(1.0)


def test_rabi_constant_at_zero_coupling():
    inp = CoherentInput(0.4, 0.3, 0.6, ncut=6)
    res = rabi_signal(inp, ThreeBosonParams(1.0, 1.0, 2.0, 0.0), np.linspace(0, 4, 1000))
    v = res.signal.values
    assert np.max(np.abs(v - v[0])) <= 1e-12 * max(1.0, abs(v[0]))


def test_rabi_initial_value_matches_mode3_mean():
    inp = CoherentInput(0.3, 0.2, 0.8, ncut=8)
    res = rabi_signal(inp, ThreeBosonParams(1.0, 1.0, 2.0, 0.6), np.linspace(0, 5, 1200))
    assert res.tail_deficit <= 1e-6
    assert res.deficit_ok
    assert res.signal.values[0] == pytest.approx(0.64, abs=5e-6)
    assert sum(res.block_weights.values()) == pytest.approx(1.0, abs=1e-6)


def test_rabi_fock_seed_sinusoid():
    # |0,0,1> lives in the k=0, m=1 block; exact two-level transfer
    label = BlockLabel(0, 1)
    block, psi = build_model_block(label)
    params = block_constants(label, ThreeBosonParams(1.0, 1.0, 2.0, 0.7))
    sp = eigensolve(build_hamiltonian(block, psi, params))
    gap = sp.energies[1] - sp.energies[0]
    assert gap == pytest.approx(2 * 0.7, abs=1e-12)
    for t in np.linspace(0, 2 * math.pi / gap, 40):
        c = evolve_block(sp, np.array([1.0, 0.0]), t)
        assert observable_n3(label, c) == pytest.approx(
            math.cos(0.7 * t) ** 2, abs=1e-10
        )
    times = np.linspace(0, 2 * math.pi / gap, 40)
    res = fock_signal((0, 0, 1), ThreeBosonParams(1.0, 1.0, 2.0, 0.7), times)
    assert np.max(np.abs(res.signal.values - np.cos(0.7 * times) ** 2)) <= 1e-10
    assert res.block_weights == {"k0_m1": 1.0}
    assert res.tail_deficit == 0.0 and res.deficit_ok
    assert res.dominant_label == label


def test_rabi_warns_when_cube_truncates():
    inp = CoherentInput(0.0, 0.0, 2.5, ncut=3)
    with pytest.warns(UserWarning):
        res = rabi_signal(inp, ThreeBosonParams(1.0, 1.0, 2.0, 0.5), np.linspace(0, 2, 1000))
    assert not res.deficit_ok
    assert res.tail_deficit > 1e-6


# its cube loses 8.4e-4 of the probability, above DEFICIT_BOUND: rabi_signal
# warns on it
GENERIC_INPUT = CoherentInput(0.06 - 0.03j, -0.3 + 0.9j, 1.1 - 0.5j, ncut=6)
GENERIC_PARAMS = ThreeBosonParams(
    1.0, 0.9, 2.1, 0.8 * complex(math.cos(0.7), math.sin(0.7))
)


def test_block_weights_one_pass_match_per_block_projection():
    reference = {}
    for label in enumerate_blocks(GENERIC_INPUT.ncut):
        w = float(np.sum(np.abs(project_coherent(GENERIC_INPUT, label)) ** 2))
        if w >= WEIGHT_FLOOR:
            reference[label.block_id] = w
    got = coherent_block_weights(GENERIC_INPUT, WEIGHT_FLOOR)
    # the floor drops some blocks of this input, so the filter is exercised
    assert 0 < len(got) < len(enumerate_blocks(GENERIC_INPUT.ncut))
    assert [label.block_id for label, _ in got] == list(reference)
    for label, w in got:
        assert w == pytest.approx(reference[label.block_id], rel=1e-15, abs=0.0)
    with pytest.warns(UserWarning, match="tail deficit"):
        res = rabi_signal(GENERIC_INPUT, GENERIC_PARAMS, np.linspace(0.0, 1.0, 3))
    assert list(res.block_weights) == list(reference)


def _poisson_tail(x, ncut):
    term, terms = math.exp(-x), []
    for n in range(1, ncut + 400):
        term *= x / n
        if n > ncut:
            terms.append(term)
    return math.fsum(terms)


@pytest.mark.parametrize(
    "alpha, ncut",
    [
        ((0.3, 0.2, 0.8), 8),
        ((0.0, 0.0, 5.0), 120),
        ((0.7 + 0.4j, -0.3 + 0.9j, 1.1 - 0.5j), 6),
        ((1.5, 0.0, 2.5j), 3),
        # |alpha|^2 = 81 >> ncut = 5: a deficit near 1, on the finite sum
        ((9.0, 0.0, 0.0), 5),
        ((0.5, 0.3j, 1.2), 1),
        # x = 9 = ncut + 1 takes the finite sum, 8.41 and 1 the series
        ((3.0, 1.0j, 2.9), 8),
        # deficit about 1e-49
        ((0.2, 0.0, 0.1), 20),
    ],
)
def test_tail_deficit_matches_poisson_tail_sum(alpha, ncut):
    t1, t2, t3 = (_poisson_tail(abs(a) ** 2, ncut) for a in alpha)
    exact = math.fsum(
        [t1, t2, t3, -t1 * t2, -t1 * t3, -t2 * t3, t1 * t2 * t3]
    )
    got = coherent_tail_deficit(CoherentInput(*alpha, ncut=ncut))
    assert got == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_tail_deficit_past_float_range_is_one():
    # |alpha|^2 overflows a float: the mode lies wholly outside the cube
    got = coherent_tail_deficit(CoherentInput(1.5e154, 0.0, 0.8, ncut=8))
    assert got == 1.0


def test_tail_deficit_of_vacuum_is_positive_zero():
    got = coherent_tail_deficit(CoherentInput(0.0, 0.0, 0.0, ncut=2))
    assert got == 0.0 and math.copysign(1.0, got) == 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 17, 255, 256, 257, 10001])
def test_evolve_grid_chunks_match_per_time_evolution(n):
    # one block's Bohr-term NUFFT against per-time propagation: grids short
    # enough that the kernel wraps round the fine grid several times, grid
    # sizes on both sides of a power of two, and start times t0 != 0 and
    # t0 < 0, whose phase is folded into the amplitudes
    for label in (
        BlockLabel(0, 1),
        BlockLabel(2, 10, -1),
        BlockLabel(0, 40),
        BlockLabel(0, 60),
    ):
        block, psi = build_model_block(label)
        tri = build_hamiltonian(block, psi, block_constants(label, GENERIC_PARAMS))
        spec = eigensolve(tri)
        rng = np.random.default_rng(3)
        c0 = rng.normal(size=block.dim) + 1j * rng.normal(size=block.dim)
        c0 /= np.linalg.norm(c0)
        occ = label.m - np.arange(block.dim, dtype=float)
        for t0, t1 in ((0.5, 40.0), (-30.0, 12.0)):
            times = np.linspace(t0, t1, n)
            got = _block_signals(
                [(label, 1.0, c0)], GENERIC_PARAMS, times, 0.0, True
            ).signal.values
            want = np.array(
                [occ @ np.abs(evolve_block(spec, c0, t)) ** 2 for t in times]
            )
            assert got.shape == (n,)
            assert np.max(np.abs(got - want)) <= 1e-12 * block.dim


@pytest.mark.parametrize(
    "params, alpha3",
    [
        (ThreeBosonParams(1.0, 1.0, 2.0, 1.0), 5.0),
        (
            ThreeBosonParams(
                1.03, 0.97, 2.02, 1.05 * complex(math.cos(0.2), math.sin(0.2))
            ),
            5.0 * complex(math.cos(0.9), math.sin(0.9)),
        ),
    ],
    ids=["readme", "perturbed"],
)
def test_rabi_nufft_matches_chunked_gemm_reference(params, alpha3):
    # the README collapse config (ncut 120, 10,001 samples) and a perturbed one
    inp = CoherentInput(0.0, 0.0, alpha3, ncut=120)
    times = np.linspace(0.0, 100.0, 10001)
    res = rabi_signal(inp, params, times)
    values = np.zeros(len(times))
    weights = {}
    for label, w in coherent_block_weights(inp, WEIGHT_FLOOR):
        weights[label.block_id] = w
        block, psi = build_model_block(label)
        tri = build_hamiltonian(block, psi, block_constants(label, params))
        occ = label.m - np.arange(block.dim, dtype=float)
        c0 = project_coherent(inp, label)
        values += evolve_grid_gemm(eigensolve(tri), c0, times, occ)
    n3 = res.signal.values
    assert np.max(np.abs(n3 - values)) <= 1e-12 * np.max(np.abs(values))
    assert res.block_weights == weights
    assert res.dominant_label.block_id == max(weights, key=weights.get)
    got = detect_collapse_revival(res.signal)
    want = detect_collapse_revival(Signal(times=times, values=values))
    assert got.collapse_time is not None and got.revival_times
    assert got.collapse_time == want.collapse_time
    assert got.revival_times == want.revival_times
    assert got.carrier_frequency == want.carrier_frequency


def _unpruned_reference(source, params, times):
    """evolve_grid_gemm summed over the kept blocks, and the pruning budget.

    source is a CoherentInput or a Fock triple.  The budget is the sum of
    _PRUNE max|occ| sum_f |c_f|^2 over the blocks.
    """
    if isinstance(source, CoherentInput):
        blocks = [
            (label, project_coherent(source, label))
            for label, _ in coherent_block_weights(source, WEIGHT_FLOOR)
        ]
    else:
        label, v = fock_to_block(*source)
        c0 = np.zeros(label.dim, dtype=complex)
        c0[v] = 1.0
        blocks = [(label, c0)]
    values, budget = np.zeros(len(times)), 0.0
    for label, c0 in blocks:
        block, psi = build_model_block(label)
        spec = eigensolve(
            build_hamiltonian(block, psi, block_constants(label, params))
        )
        occ = label.m - np.arange(block.dim, dtype=float)
        values += evolve_grid_gemm(spec, c0, times, occ)
        weight = float(np.sum(np.abs(spec.coefficients(c0)) ** 2))
        budget += dynamics._PRUNE * float(np.max(np.abs(occ))) * weight
    return values, budget


@pytest.mark.parametrize(
    "params, source",
    [
        (ThreeBosonParams(1.0, 1.0, 2.0, 1.0), CoherentInput(0.0, 0.0, 5.0, 120)),
        (
            ThreeBosonParams(
                1.03, 0.97, 2.02, 1.05 * complex(math.cos(0.2), math.sin(0.2))
            ),
            CoherentInput(
                0.0, 0.0, 5.0 * complex(math.cos(0.9), math.sin(0.9)), 120
            ),
        ),
        (GENERIC_PARAMS, (3, 5, 60)),
    ],
    ids=["readme", "perturbed", "fock"],
)
def test_pruned_signal_stays_within_its_certified_bound(monkeypatch, params, source):
    # against the unpruned GEMM sum the error is at most the reported bound
    # plus the kernel's 1e-12; against the unpruned NUFFT (_PRUNE = 0) it is
    # the bound alone, up to round-off; the collapse report does not move
    times = np.linspace(0.0, 100.0, 10001)
    signal = rabi_signal if isinstance(source, CoherentInput) else fock_signal
    res = signal(source, params, times)
    ref, budget = _unpruned_reference(source, params, times)
    size = np.max(np.abs(ref))
    assert 0.0 < res.prune_bound <= budget
    assert np.max(np.abs(res.signal.values - ref)) <= res.prune_bound + 1e-12 * size
    monkeypatch.setattr(dynamics, "_PRUNE", 0.0)
    full = signal(source, params, times)
    assert full.prune_bound == 0.0
    gap = np.max(np.abs(res.signal.values - full.signal.values))
    assert gap <= res.prune_bound + 1e-14 * size
    got, want = detect_collapse_revival(res.signal), detect_collapse_revival(full.signal)
    assert got.collapse_time == want.collapse_time
    assert got.revival_times == want.revival_times
    assert got.carrier_frequency == want.carrier_frequency
    assert res.dominant_label == full.dominant_label
    if source == CoherentInput(0.0, 0.0, 5.0, 120):
        assert got.collapse_time is not None and got.revival_times


def test_evolve_grid_drops_most_terms_of_a_coherent_block():
    # the README input's largest block keeps a few hundred of its Bohr
    # terms, and the dropped total stays within the block budget
    inp = CoherentInput(0.0, 0.0, 5.0, 120)
    params = ThreeBosonParams(1.0, 1.0, 2.0, 1.0)
    labels = [lab for lab, _ in coherent_block_weights(inp, WEIGHT_FLOOR)]
    label = max(labels, key=lambda lab: lab.dim)
    block, psi = build_model_block(label)
    spec = eigensolve(build_hamiltonian(block, psi, block_constants(label, params)))
    c0 = project_coherent(inp, label)
    occ = label.m - np.arange(block.dim, dtype=float)
    _, pos, amp, dropped = _evolve_grid(spec, c0, np.linspace(0.0, 100.0, 10001), occ)
    weight = float(np.sum(np.abs(spec.coefficients(c0)) ** 2))
    assert len(pos) == len(amp) < block.dim * (block.dim - 1) // 4
    assert 0.0 < dropped <= dynamics._PRUNE * label.m * weight


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_evolve_grid_never_prunes_non_finite_terms():
    # an infinite level, a Bohr span past the float range, or a NaN
    # amplitude: every term reaches the signal and nothing counts as dropped
    label = BlockLabel(0, 40)
    block, psi = build_model_block(label)
    spec = eigensolve(
        build_hamiltonian(block, psi, block_constants(label, GENERIC_PARAMS))
    )
    c0 = project_coherent(CoherentInput(0.0, 0.0, 3.0, 40), label)
    occ = label.m - np.arange(block.dim, dtype=float)
    times = np.linspace(0.0, 10.0, 1000)
    top = spec.energies.copy()
    top[-1] = np.inf
    wide = np.linspace(-1e308, 1e308, block.dim)
    nan_c0 = c0.copy()
    nan_c0[5] = np.nan
    for energies, start in ((top, c0), (wide, c0), (spec.energies, nan_c0)):
        bad = replace(spec, energies=energies)
        _, pos, amp, dropped = _evolve_grid(bad, start, times, occ)
        assert dropped == 0.0
        assert len(pos) == block.dim * (block.dim - 1) // 2
        assert not np.all(np.isfinite(amp))


def test_rabi_dominant_block_is_heaviest_with_its_spectrum():
    with pytest.warns(UserWarning, match="tail deficit"):
        res = rabi_signal(GENERIC_INPUT, GENERIC_PARAMS, np.linspace(0.0, 2.0, 50))
    weights = res.block_weights
    assert res.dominant_label.block_id == max(weights, key=lambda b: weights[b])
    block, psi = build_model_block(res.dominant_label)
    fresh = eigensolve(
        build_hamiltonian(
            block, psi, block_constants(res.dominant_label, GENERIC_PARAMS)
        )
    )
    assert np.array_equal(res.dominant_spectrum.energies, fresh.energies)
    assert np.array_equal(res.dominant_spectrum.vectors, fresh.vectors)
    assert res.dominant_spectrum.phase == fresh.phase
    # equal weights: the first block listed wins, as max() over block_weights
    tie = _block_signals(
        [
            (BlockLabel(0, 1), 0.5, [1.0, 0.0]),
            (BlockLabel(0, 2), 0.5, [1.0, 0.0, 0.0]),
        ],
        GENERIC_PARAMS,
        np.zeros(1),
        0.0,
        True,
    )
    assert tie.dominant_label == BlockLabel(0, 1)


@pytest.mark.parametrize(
    "times, match",
    [
        (np.array([0.0, 1.0, np.nan]), "finite"),
        (np.array([0.0, np.inf]), "finite"),
        (np.array([0.0, 1.0, 3.0, 4.0]), "uniform"),
        (np.geomspace(1.0, 10.0, 50), "uniform"),
        (np.linspace(0.0, 10.0, 100) + 1e-9 * (np.arange(100) == 50), "uniform"),
        (np.zeros((2, 3)), "one-dimensional"),
    ],
)
def test_rabi_rejects_bad_time_grids(times, match):
    inp = CoherentInput(0.4, 0.3, 0.6, ncut=4)
    with pytest.raises(ValueError, match=match):
        rabi_signal(inp, GENERIC_PARAMS, times)
    with pytest.raises(ValueError, match=match):
        fock_signal((0, 0, 1), GENERIC_PARAMS, times)


def test_rabi_short_and_zero_length_grids():
    inp = CoherentInput(0.3, 0.2, 0.8, ncut=8)
    assert len(rabi_signal(inp, GENERIC_PARAMS, []).signal) == 0
    one = rabi_signal(inp, GENERIC_PARAMS, [0.0]).signal.values
    assert one == pytest.approx([0.64], abs=5e-6)
    flat = rabi_signal(inp, GENERIC_PARAMS, np.linspace(0.0, 0.0, 300)).signal.values
    assert np.all(flat == flat[0]) and flat[0] == one[0]


def test_sl2_limit_signal_periodic():
    j, a, g = 1.5, 1.1, 0.8
    psi = StructureFunction(leading=-1.0, roots=(-j, j + 1.0))
    block = build_block(psi, -j)
    sp = eigensolve(build_hamiltonian(block, psi, HamiltonianParams(a=a, g_mod=g)))
    rng = np.random.default_rng(11)
    c0 = rng.normal(size=block.dim) + 1j * rng.normal(size=block.dim)
    c0 /= np.linalg.norm(c0)
    label = BlockLabel(0, block.dim - 1)
    period = 2 * math.pi / math.hypot(a, 2 * g)
    for t in np.linspace(0.0, 15.0, 25):
        s0 = observable_n3(label, evolve_block(sp, c0, t))
        s1 = observable_n3(label, evolve_block(sp, c0, t + period))
        assert s1 == pytest.approx(s0, abs=1e-6 * block.dim)


def test_detector_plain_sinusoid_never_collapses():
    t = np.linspace(0, 100, 2001)
    rep = detect_collapse_revival(Signal(t, np.cos(2.0 * t)))
    assert rep.oscillating
    assert rep.carrier_frequency == pytest.approx(2.0, rel=0.02)
    assert rep.collapse_time is None
    assert rep.revival_times == ()


def test_detector_incommensurate_beat_is_not_collapse():
    # window spans the beat so the envelope never drops
    t = np.linspace(0, 200, 4001)
    rep = detect_collapse_revival(Signal(t, np.cos(t) + np.cos(1.618 * t)))
    assert rep.oscillating
    assert rep.collapse_time is None
    assert np.min(rep.envelope.values) > 0.5 * rep.initial_envelope


def test_detector_finds_collapse_and_revival():
    t = np.linspace(0, 200, 4001)
    env = np.exp(-(t**2) / 800) + np.exp(-((t - 160.0) ** 2) / 200)
    rep = detect_collapse_revival(Signal(t, env * np.cos(3.0 * t)))
    assert rep.oscillating
    assert rep.collapse_time is not None
    assert 20 < rep.collapse_time < 60
    assert rep.revival_times
    assert any(140 < r < 170 for r in rep.revival_times)


def test_detector_input_validation():
    t = np.linspace(0, 1, 100)
    with pytest.raises(ValueError, match="1000 samples"):
        detect_collapse_revival(Signal(t, np.cos(t)))
    t = np.linspace(0, 1, 1500)
    rep = detect_collapse_revival(Signal(t, np.full(1500, 3.7)))
    assert not rep.oscillating
    assert rep.collapse_time is None


def _collapse_revival_loop(env, env_t):
    """Collapse time and revivals of an envelope, one window position at a time."""
    env0 = float(env[0])
    collapse_idx = None
    if env0 > 0.0:
        run = 0
        for i, b in enumerate(env < COLLAPSE_FRAC * env0):
            run = run + 1 if b else 0
            if run >= PERSIST:
                collapse_idx = i - PERSIST + 1
                break
    if collapse_idx is None:
        return None, ()
    high = env > REVIVAL_FRAC * env0
    high[: collapse_idx + 1] = False
    revivals, i, m = [], collapse_idx + 1, len(env)
    while i < m:
        if not high[i]:
            i += 1
            continue
        k = i
        while k < m and high[k]:
            k += 1
        revivals.append(float(env_t[i:k][np.argmax(env[i:k])]))
        i = k
    return float(env_t[collapse_idx]), tuple(revivals)


def test_detector_matches_loop_reference():
    # a decaying carrier plus a revival bump, centred up to past the end
    rng = np.random.default_rng(0)
    seen = {"collapse": 0, "revival": 0, "high_at_end": 0, "low_at_end": 0}
    for _ in range(200):
        n = int(rng.integers(1000, 3000))
        t = np.linspace(0.0, 100.0, n)
        bump = rng.uniform(0.3, 1.5) * np.exp(
            -(((t - rng.uniform(30.0, 110.0)) / rng.uniform(2.0, 15.0)) ** 2)
        )
        env = np.exp(-((t / rng.uniform(3.0, 40.0)) ** 2)) + bump
        y = env * np.cos(rng.uniform(2.0, 6.0) * t + rng.uniform(0, 2 * math.pi))
        rep = detect_collapse_revival(Signal(t, y + 1e-3 * rng.normal(size=n)))
        envelope = rep.envelope.values
        expected = _collapse_revival_loop(envelope, rep.envelope.times)
        assert (rep.collapse_time, rep.revival_times) == expected
        if expected[0] is not None:
            seen["collapse"] += 1
            seen["revival"] += bool(expected[1])
            # runs that reach the last window position
            seen["high_at_end"] += envelope[-1] > REVIVAL_FRAC * envelope[0]
            seen["low_at_end"] += envelope[-1] < COLLAPSE_FRAC * envelope[0]
    assert min(seen.values()) >= 20, seen


def test_detector_rejects_decreasing_times():
    t = np.linspace(0, -50, 2001)
    with pytest.raises(ValueError, match="times must not decrease"):
        detect_collapse_revival(Signal(t, np.cos(2.0 * t)))


def test_detector_equal_times_do_not_oscillate():
    # one instant repeated: no frequency can be read, whatever the values
    t = np.zeros(1500)
    values = np.random.default_rng(3).normal(size=1500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = detect_collapse_revival(Signal(t, values))
    assert not rep.oscillating
    assert rep.collapse_time is None
    assert rep.envelope is None


def test_incommensurability_equidistant_is_zero():
    rep = incommensurability_measure([0.0, 1.0, 2.0, 3.0])
    assert rep.min_distance == pytest.approx(0.0, abs=1e-12)
    assert (rep.p, rep.q) == (1, 1)
    rep = incommensurability_measure([-math.sqrt(6), 0.0, math.sqrt(6)])
    assert rep.min_distance == pytest.approx(0.0, abs=1e-12)


def test_incommensurability_resonant_sextet():
    label = BlockLabel(0, 5)
    block, psi = build_model_block(label)
    params = block_constants(label, ThreeBosonParams(1.0, 1.0, 2.0, 1.0))
    sp = eigensolve(build_hamiltonian(block, psi, params))
    rep = incommensurability_measure(sp.energies)
    assert rep.min_distance == pytest.approx(1.4450698597688882e-3, rel=1e-6)
    assert rep.min_distance > 1e-3
    assert (rep.p, rep.q) == (4, 5)


def test_incommensurability_needs_three_distinct():
    with pytest.raises(ValueError):
        incommensurability_measure([1.0, 2.0])
    with pytest.raises(ValueError):
        incommensurability_measure([1.0, 1.0 + 1e-15, 1.0])


def _incommensurability_loop(energies, qmax):
    """The measure as a double loop over spacing pairs and denominators."""
    e = np.sort(np.asarray(energies, dtype=float))
    scale = max(e[-1] - e[0], 1.0)
    keep = [e[0]]
    for x in e[1:]:
        if x - keep[-1] > 1e-9 * scale:
            keep.append(x)
    sp = np.diff(keep)
    best = None
    for i in range(len(sp) - 1):
        rho = sp[i + 1] / sp[i]
        for q in range(1, qmax + 1):
            p = round(rho * q)
            dist = abs(rho - p / q)
            if best is None or dist < best[0]:
                best = (dist, rho, i, p, q)
    return IncommensurabilityReport(
        min_distance=float(best[0]),
        ratio=float(best[1]),
        pair_index=int(best[2]),
        p=int(best[3]),
        q=int(best[4]),
    )


def _block_energies(label):
    block, psi = build_model_block(label)
    params = block_constants(label, GENERIC_PARAMS)
    return eigensolve(build_hamiltonian(block, psi, params)).energies


@pytest.mark.parametrize("qmax", [1, 8, 1000])
@pytest.mark.parametrize(
    "energies",
    [
        [0.0, 1.0, 2.0, 3.0],  # every (pair, q) ties at distance 0
        [0.0, 1.0, 3.5, 6.0, 8.5],  # ratios 2.5 and 1: halves round to even
        [0.0, 2.0, 3.0, 5.0, 6.0, 6.25],  # ratio 1/2 twice, 1/4 at the end
        [0.0, 1.0, 1.0 + 1e-15, 2.7, 4.1],  # a near-degenerate pair dropped
        np.sort(np.random.default_rng(8).normal(size=40)),
        _block_energies(BlockLabel(0, 60)),
    ],
)
def test_incommensurability_matches_double_loop(energies, qmax):
    assert incommensurability_measure(energies, qmax) == _incommensurability_loop(
        energies, qmax
    )


def test_meanfield_zero_coupling_precession():
    block, psi = build_model_block(BlockLabel(0, 4))
    traj = meanfield_trajectory(
        block, psi, HamiltonianParams(a=0.9, g_mod=0.0), 0.5, 0.1, 5.0, 0.05
    )
    assert np.max(np.abs(traj.p - 0.5)) <= 1e-9
    dq = np.diff(traj.q)
    assert np.max(np.abs(dq - dq[0])) <= 1e-9


def test_meanfield_energy_drift_and_reversibility():
    block, psi = build_model_block(BlockLabel(0, 4))
    params = HamiltonianParams(a=0.7, g_mod=1.0)
    traj = meanfield_trajectory(block, psi, params, 0.8, 0.3, 5.0, 0.005)
    e = traj.energy
    assert np.max(np.abs(e - e[0])) <= 1e-7 * max(1.0, abs(e[0]))
    assert not traj.clamped
    back = meanfield_trajectory(block, psi, params, traj.p[-1], traj.q[-1], -5.0, 0.005)
    assert back.p[-1] == pytest.approx(0.8, abs=1e-7)
    assert back.q[-1] == pytest.approx(0.3, abs=1e-7)


def test_meanfield_pole_clamp_warns():
    psi = StructureFunction(leading=-1.0, roots=(-1.0, 2.0))
    block = build_block(psi, -1.0)
    with pytest.warns(UserWarning, match="clamped"):
        traj = meanfield_trajectory(
            block, psi, HamiltonianParams(a=0.3, g_mod=1.0), 0.999, 0.2, 20.0, 0.5
        )
    assert traj.clamped
    assert np.max(np.abs(traj.p)) <= block.j + 1e-12
    for arr in (traj.p, traj.q, traj.energy):
        assert np.all(np.isfinite(arr))
    # on the pole q only precesses, at the rate dH/dp = -a of the diagonal
    on_pole = np.nonzero(np.abs(traj.p) == block.j)[0]
    assert np.allclose(np.diff(traj.q[on_pole]), -0.3 * 0.5, atol=1e-12)


def test_meanfield_input_validation():
    block, psi = build_model_block(BlockLabel(0, 2))
    params = HamiltonianParams(a=1.0, g_mod=0.5)
    with pytest.raises(ValueError, match="exceeds j"):
        meanfield_trajectory(block, psi, params, 1.5, 0.0, 1.0, 0.01)
    with pytest.raises(ValueError, match="dt"):
        meanfield_trajectory(block, psi, params, 0.1, 0.0, 1.0, -0.01)


@pytest.mark.parametrize("name", ["p0", "q0", "tspan", "dt"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_meanfield_rejects_non_finite_input(name, bad):
    block, psi = build_model_block(BlockLabel(0, 2))
    args = {"p0": 0.1, "q0": 0.0, "tspan": 1.0, "dt": 0.01, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        meanfield_trajectory(block, psi, HamiltonianParams(a=1.0, g_mod=0.5), **args)


def test_meanfield_single_level_block_is_constant():
    block, psi = build_model_block(BlockLabel(0, 0))
    assert block.dim == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = HamiltonianParams(a=0.8, g_mod=0.6, constant=1.5)
        traj = meanfield_trajectory(block, psi, params, 0.0, 0.4, 2.0, 0.1)
    assert len(traj.times) == 21
    assert np.all(traj.p == 0.0)
    assert np.all(traj.q == 0.4)
    assert np.all(traj.energy == traj.energy[0])
    assert not traj.clamped


def _coherent_expectation(block, psi, tri, p, q):
    """<z|H|z> with z = exp(xi Y+ - xi* Y-)|0> built by a dense eigensolve."""
    _, yp, ym = holstein_primakoff(block, psi)
    xi = 0.5 * math.acos(p / block.j) * np.exp(-1j * q)
    w, vec = np.linalg.eigh(1j * (xi * yp - np.conj(xi) * ym))
    z = vec @ (np.exp(-1j * w) * np.conj(vec[0]))
    return float(np.real(z.conj() @ tri.dense() @ z))


@pytest.mark.parametrize(
    "label, g_phase",
    [
        (BlockLabel(0, 4), 0.25),
        (BlockLabel(3, 20, -1), 0.7),
        (BlockLabel(0, 60), -1.3),
    ],
)
def test_meanfield_closed_form_matches_coherent_expectation(label, g_phase):
    block, psi = build_model_block(label)
    base = block_constants(label, ThreeBosonParams(1.0, 0.9, 2.2, 0.8))
    params = HamiltonianParams(
        a=base.a, g_mod=base.g_mod, g_phase=g_phase, constant=base.constant
    )
    tri = build_hamiltonian(block, psi, params)
    energy = _CoherentEnergy(tri)
    bound = tri.norm_bound()
    rng = np.random.default_rng(17)
    ps = np.concatenate([[-block.j, block.j], rng.uniform(-block.j, block.j, 20)])
    for p, q in zip(ps, rng.uniform(-4.0, 4.0, len(ps))):
        ref = _coherent_expectation(block, psi, tri, p, q)
        assert abs(energy(p, q)[0] - ref) <= 1e-12 * bound


@pytest.mark.parametrize(
    "label", [BlockLabel(0, 1), BlockLabel(0, 4), BlockLabel(2, 9, 1)]
)
def test_meanfield_gradient_matches_central_differences(label):
    block, psi = build_model_block(label)
    base = block_constants(label, ThreeBosonParams(1.0, 0.9, 2.2, 0.8))
    params = HamiltonianParams(
        a=base.a, g_mod=base.g_mod, g_phase=0.4, constant=base.constant
    )
    energy = _CoherentEnergy(build_hamiltonian(block, psi, params))
    rng = np.random.default_rng(23)
    h = 1e-5
    for p, q in zip(rng.uniform(-0.9, 0.9, 10) * block.j, rng.uniform(-3.0, 3.0, 10)):
        _, dhdp, dhdq = energy(p, q)
        fd_p = (energy(p + h, q)[0] - energy(p - h, q)[0]) / (2 * h)
        fd_q = (energy(p, q + h)[0] - energy(p, q - h)[0]) / (2 * h)
        scale = max(1.0, abs(energy(p, q)[0]))
        assert dhdp == pytest.approx(fd_p, abs=1e-8 * scale)
        assert dhdq == pytest.approx(fd_q, abs=1e-8 * scale)


def test_meanfield_closed_form_large_block_matches_log_space_sum():
    # d = 2001: c^(n-1) alone underflows at the equator, the Horner pass must not
    label = BlockLabel(0, 2000)
    block, psi = build_model_block(label)
    params = HamiltonianParams(a=0.7, g_mod=1.0, g_phase=0.3)
    tri = build_hamiltonian(block, psi, params)
    energy = _CoherentEnergy(tri)
    n = block.dim - 1
    v = np.arange(n)
    beta = tri.offdiag * n / np.sqrt((n - v) * (v + 1))
    log_binom = np.array(
        [math.lgamma(n) - math.lgamma(k + 1) - math.lgamma(n - k) for k in v]
    )
    for x, q in ((-0.6, 0.2), (0.0, 1.1), (0.3, -2.0), (0.95, 0.5)):
        s, c = 0.5 - 0.5 * x, 0.5 + 0.5 * x
        bern = np.exp(log_binom + v * math.log(s) + (n - 1 - v) * math.log(c))
        b = 2.0 * math.sqrt(s * c) * float(beta @ bern)
        ref = tri.diag[0] + (tri.diag[1] - tri.diag[0]) * n * s + b * math.cos(q + 0.3)
        got = energy(x * block.j, q)
        assert all(math.isfinite(g) for g in got)
        assert abs(got[0] - ref) <= 1e-10 * tri.norm_bound()


def test_meanfield_energy_returns_floats_past_the_rescale():
    # from d ~ 492 up, _sums rescales its Horner table: the scalar path must
    # still hand back Python floats, so later RK4 steps avoid numpy scalars
    label = BlockLabel(0, 600)
    block, psi = build_model_block(label)
    params = block_constants(label, ThreeBosonParams(1.0, 1.0, 2.0, 1.0))
    energy = _CoherentEnergy(build_hamiltonian(block, psi, params))
    assert block.dim == 601
    for p, q in ((0.0, 0.3), (0.4 * block.j, -1.0), (-0.9 * block.j, 2.0)):
        assert all(type(x) is float for x in energy(p, q))
    traj = meanfield_trajectory(block, psi, params, 0.2 * block.j, 0.3, 0.01, 0.005)
    assert np.all(np.isfinite(traj.energy))
