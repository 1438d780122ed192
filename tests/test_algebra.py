"""Structure functions, block construction, operator identities."""

import ast
import gc
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polysl2
from polysl2.algebra import (
    MAX_BLOCK_DIM,
    ROOT_RTOL,
    Block,
    BlockError,
    StructureFunction,
    block_operators,
    build_block,
    eigh_tridiagonal,
    falling_product,
    holstein_primakoff,
    sl2_block,
    su2_ladder,
    su2_rotation,
)
from polysl2.reference import gcs_overlaps
from polysl2.solver import HamiltonianParams, build_hamiltonian
from polysl2.three_boson import (
    BlockLabel,
    ThreeBosonParams,
    block_constants,
    build_model_block,
)


def sl2_psi(j):
    # psi_2(x) = (j+x)(j+1-x): the undeformed su(2) case
    return StructureFunction(leading=-1.0, roots=(-j, j + 1.0))


def test_structure_function_evaluates_factored_form():
    psi = StructureFunction(leading=2.0, roots=(1.0, -3.0))
    assert psi(0.0) == pytest.approx(2.0 * (0 - 1) * (0 + 3))
    assert psi.degree == 2


def test_structure_function_preserves_rational_arithmetic():
    psi = StructureFunction(
        leading=Fraction(-1), roots=(Fraction(0), Fraction(0), Fraction(3))
    )
    val = psi(Fraction(1))
    assert isinstance(val, Fraction)
    assert val == Fraction(2)


def test_structure_function_vectorized_values_match_scalar():
    psi = StructureFunction(leading=0.7, roots=(0.2, 1.5, -2.0))
    xs = np.linspace(-3, 3, 13)
    vals = psi.values(xs)
    for x, v in zip(xs, vals):
        assert v == pytest.approx(psi(float(x)), rel=1e-14)


def test_falling_product():
    psi = StructureFunction(leading=1.0, roots=(0.0,))
    # psi(x) = x: product x(x-1)(x-2)
    assert falling_product(psi, 5.0, 3) == pytest.approx(5 * 4 * 3)
    assert falling_product(psi, 5.0, 0) == 1
    with pytest.raises(ValueError):
        falling_product(psi, 1.0, -1)


def test_build_block_dimension_su2():
    for twoj in range(1, 12):
        j = twoj / 2
        block = build_block(sl2_psi(j), -j)
        assert block.dim == twoj + 1
        assert block.j == pytest.approx(j)


def test_build_block_rejects_non_root_start():
    with pytest.raises(BlockError, match="not a root"):
        build_block(sl2_psi(1.0), -0.5)


def test_build_block_rejects_negative_interior():
    # psi(x) = x(x-2)(x-3): negative between 2 and 3, so the tower from 0
    # crosses a forbidden region before terminating
    psi = StructureFunction(leading=1.0, roots=(0.0, 2.0, 3.0))
    bad = StructureFunction(leading=-1.0, roots=(0.0, 2.0, 3.0))
    build_block(psi, 0.0)  # fine: positive on (0, 2), zero at 2
    with pytest.raises(BlockError, match="non-unitary"):
        build_block(bad, 0.0)


def test_build_block_truncates_without_zero():
    # psi(x) = x has no second zero: the tower never terminates, and a block
    # cut at MAX_BLOCK_DIM levels is refused rather than returned
    psi = StructureFunction(leading=1.0, roots=(0.0,))
    message = r"^the tower from l0=0\.0 does not end within 2001 levels$"
    with pytest.raises(BlockError, match=message):
        build_block(psi, 0.0)
    # a zero on the last rung of the window still ends the tower
    last = StructureFunction(-1.0, (0.0, float(MAX_BLOCK_DIM)))
    assert build_block(last, 0.0).dim == MAX_BLOCK_DIM == 2001


def test_build_block_root_tolerance_scales():
    # root displaced by an amount far below the relative threshold
    j = 3.0
    psi = StructureFunction(leading=-1.0, roots=(-j + 1e-15, j + 1.0))
    block = build_block(psi, -j)
    assert block.dim == 7


def test_block_weights_and_labels():
    block = build_block(sl2_psi(1.0), -1.0)
    assert np.allclose(block.weights(), [-1.0, 0.0, 1.0])


def scalar_block(psi, l0):
    """Reference tower: its dim or the BlockError text, rung by rung."""
    l0 = float(l0)
    roots = [float(r) for r in psi.roots]

    def at_zero(x):
        near = (abs(x - r) <= ROOT_RTOL * (abs(x) + abs(r)) for r in roots)
        return float(psi(x)) == 0.0 or any(near)

    if not at_zero(l0):
        return f"l0={l0} is not a root of psi (psi(l0)={float(psi(l0)):.3e})"
    for v in range(1, MAX_BLOCK_DIM + 1):
        if at_zero(l0 + v):
            return v
        if float(psi(l0 + v)) < 0.0:
            return (
                f"non-unitary block: psi(l0+{v}) = {float(psi(l0 + v)):.6g} < 0 "
                "before termination"
            )
    return f"the tower from l0={l0} does not end within {MAX_BLOCK_DIM} levels"


@st.composite
def towers(draw):
    """A structure function with rational or float roots and a start l0."""
    exact = draw(st.booleans())
    halves = st.integers(-12, 30).map(lambda k: Fraction(k, 2))
    roots = draw(st.lists(halves, min_size=1, max_size=4))
    if not exact:
        roots = [float(r) for r in roots]
    leading = draw(st.sampled_from([1, -1, 0.5, -2.25]))
    psi = StructureFunction(
        leading=Fraction(leading) if exact else float(leading), roots=tuple(roots)
    )
    # mostly a root of psi; otherwise a nearby non-root start
    l0 = float(draw(st.sampled_from(roots)))
    l0 += draw(st.sampled_from([0.0, 0.0, 0.0, 0.25, -1.5]))
    return psi, l0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(towers())
def test_build_block_matches_scalar_reference(case):
    psi, l0 = case
    expect = scalar_block(psi, l0)
    try:
        block = build_block(psi, l0)
    except BlockError as exc:
        assert str(exc) == expect
    else:
        assert block.dim == expect


def rand_cubic_block(rng):
    """Random unitary cubic-psi block of dimension d."""
    d = int(rng.integers(2, 12))
    l0 = float(rng.uniform(-3, 3))
    mu = l0 + d + float(rng.uniform(0.5, 4.0))
    psi = StructureFunction(leading=1.0, roots=(l0, l0 + d, mu))
    return build_block(psi, l0), psi


def test_commutator_identities_random_blocks():
    rng = np.random.default_rng(42)
    for _ in range(25):
        block, psi = rand_cubic_block(rng)
        v0, vp, vm = block_operators(block, psi)
        d = block.dim
        x = block.weights()
        scale = max(1.0, float(np.max(np.abs(psi.values(block.l0 + np.arange(d + 1))))))
        # [V0, V+] = V+, [V0, V-] = -V-
        assert np.max(np.abs(v0 @ vp - vp @ v0 - vp)) <= 1e-12 * scale
        assert np.max(np.abs(v0 @ vm - vm @ v0 + vm)) <= 1e-12 * scale
        # [V-, V+] = psi(V0+1) - psi(V0)
        dpsi = np.diag(psi.values(x + 1) - psi.values(x))
        assert np.max(np.abs(vm @ vp - vp @ vm - dpsi)) <= 1e-10 * scale
        # V+V- = psi(V0)
        assert np.max(np.abs(vp @ vm - np.diag(psi.values(x)))) <= 1e-10 * scale


def test_ladder_annihilates_tower_ends():
    block, psi = rand_cubic_block(np.random.default_rng(3))
    _, vp, vm = block_operators(block, psi)
    d = block.dim
    e_low = np.zeros(d)
    e_low[0] = 1.0
    e_top = np.zeros(d)
    e_top[-1] = 1.0
    assert np.linalg.norm(vm @ e_low) == 0.0
    assert np.linalg.norm(vp @ e_top) == 0.0


def test_holstein_primakoff_su2_commutators():
    rng = np.random.default_rng(7)
    for _ in range(10):
        block, psi = rand_cubic_block(rng)
        y0, yp, ym = holstein_primakoff(block, psi)
        d = block.dim
        # exact su(2) regardless of the deformation
        assert np.max(np.abs(y0 @ yp - yp @ y0 - yp)) <= 1e-12 * d
        assert np.max(np.abs(ym @ yp - yp @ ym + 2 * y0)) <= 1e-10 * d * d
        # Casimir j(j+1) on every basis state
        j = block.j
        cas = y0 @ y0 + 0.5 * (yp @ ym + ym @ yp)
        assert np.allclose(cas, j * (j + 1) * np.eye(d), atol=1e-10 * d * d)


def test_su2_ladder_values():
    assert su2_ladder(1).size == 0
    for d in (2, 5, 12, 2001):
        expect = [math.sqrt((v + 1) * (d - 1 - v)) for v in range(d - 1)]
        assert su2_ladder(d).tolist() == expect


def test_su2_rotation_is_orthogonal_and_composes():
    # d = 401 and angles beyond +-pi/2 as well
    cases = [(d, 0.4, -1.1) for d in (1, 2, 6, 11, 401)]
    for d, a, b in cases + [(d, 2.5, -3.0) for d in (2, 6, 11)]:
        assert np.array_equal(su2_rotation(d, 0.0), np.eye(d))
        r1 = su2_rotation(d, a)
        assert np.allclose(r1.T @ r1, np.eye(d), atol=1e-13)
        r2 = su2_rotation(d, b)
        assert np.allclose(r1 @ r2, su2_rotation(d, a + b), atol=1e-13)
    # the generator: dR/dr at r = 0 is Y- - Y+
    d, h = 5, 1e-6
    y = np.diag(su2_ladder(d), -1)
    deriv = (su2_rotation(d, h) - su2_rotation(d, -h)) / (2 * h)
    assert np.allclose(deriv, y.T - y, atol=1e-8)


def test_su2_rotation_matches_exact_overlaps_on_every_column():
    block = Block(l0=0.0, dim=31)
    for r in (0.3, -1.1, 1.4):
        rot = su2_rotation(block.dim, r)
        for v in range(block.dim):
            assert np.max(np.abs(rot[:, v] - gcs_overlaps(block, v, r))) <= 1e-12


def test_su2_rotation_retains_no_memory():
    gc.collect()
    tracemalloc.start()
    try:
        for d in range(301, 306):
            su2_rotation(d, 0.7)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1e6


def test_build_block_end_does_not_depend_on_the_window():
    # psi(x) = -x (x - 2) (x + 1) (x + 1.5): psi(1) = 5, psi(2) = 0.  Rungs
    # past the end grow as x^4; 1e-12 of |psi(2001)| is about 16, so a
    # threshold scaled to the whole window would read psi(1) as 0
    psi = StructureFunction(leading=-1.0, roots=(0.0, 2.0, -1.0, -1.5))
    assert build_block(psi, 0.0).dim == 2


def test_build_block_ignores_overflow_past_the_end():
    # psi(1) = 11^100 is finite, psi(l0 + 2001) = -2001 * 1999 * 2011^100 is not
    psi = StructureFunction(leading=-1.0, roots=(0.0, 2.0) + (-10.0,) * 100)
    assert 2001 * 1999 * 2011**100 > float(np.finfo(float).max)
    assert build_block(psi, 0.0).dim == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_build_block_refuses_overflowing_psi():
    # psi(1) = -1e10 * 1 * (-4) * (1 - 1e308) is about -4e318
    psi = StructureFunction(leading=-1e10, roots=(0.0, 5.0, 1e308))
    with pytest.raises(BlockError, match=r"psi\(l0\+1\) = -inf is not finite"):
        build_block(psi, 0.0)


def test_block_operators_refuse_a_negative_psi():
    # a Block built by hand past the zero of psi at 1.5: psi(2) = -1
    psi = StructureFunction(leading=-1.0, roots=(0.0, 1.5))
    with pytest.raises(BlockError, match="negative psi under sqrt at v=2"):
        block_operators(Block(l0=0.0, dim=3), psi)


def test_holstein_primakoff_matches_sl2_ladder():
    # for psi = psi_2 the deformed and su(2) ladders coincide
    j = 2.5
    psi = sl2_psi(j)
    block = build_block(psi, -j)
    _, vp, _ = block_operators(block, psi)
    _, yp, _ = holstein_primakoff(block, psi)
    assert np.array_equal(vp, yp)


def test_su2_ladder_is_the_spin_blocks_ladder():
    # su2_ladder's closed form gives the bytes of the spin-j block's rungs
    unit = HamiltonianParams(a=0.0, g_mod=1.0)
    for d in range(1, 2002):
        block, psi = sl2_block((d - 1) / 2)
        assert block.dim == d
        ladder = build_hamiltonian(block, psi, unit).offdiag
        assert ladder.tobytes() == su2_ladder(d).tobytes(), d
    for d in (1, 2, 7, 60, 401):
        _, yp, _ = block_operators(*sl2_block((d - 1) / 2))
        assert np.diag(yp, -1).real.tobytes() == su2_ladder(d).tobytes()


def _dense_lower(diag, off):
    """The d x d matrix holding diag on its diagonal and off below it."""
    d = len(diag)
    h = np.zeros((d, d))
    h[np.diag_indices(d)] = diag
    h[np.arange(1, d), np.arange(d - 1)] = off
    return h


def _tridiagonals():
    """Three-boson block Hamiltonians and rotated Jz's, as (diag, off)."""
    params3 = ThreeBosonParams(1.0, 0.9, 2.2, complex(0.6, -0.8))
    for d in (1, 2, 6, 41, 121, 301, 1001):
        label = BlockLabel(0, d - 1)
        block, psi = build_model_block(label)
        tri = build_hamiltonian(block, psi, block_constants(label, params3))
        yield tri.diag, tri.offdiag
    d = 41
    for r in (0.0, 0.3, -1.2):
        diag = (np.arange(d) - 0.5 * (d - 1)) * math.cos(2 * r)
        yield diag, 0.5 * math.sin(2 * r) * su2_ladder(d)


def test_eigh_tridiagonal_gives_the_bytes_of_dense_lapack():
    # a faster LAPACK driver behind eigh_tridiagonal must keep these bytes
    for diag, off in _tridiagonals():
        h = _dense_lower(diag, off)
        values = eigh_tridiagonal(diag, off, eigvals_only=True)
        assert values.tobytes() == np.linalg.eigvalsh(h, UPLO="L").tobytes()
        e, q = eigh_tridiagonal(diag, off)
        e_ref, q_ref = np.linalg.eigh(h, UPLO="L")
        assert e.tobytes() == e_ref.tobytes()
        assert q.tobytes() == q_ref.tobytes()


def test_only_eigh_tridiagonal_names_numpy_eigensolvers():
    # every LAPACK eigensolve of the package goes through one function, so a
    # change of driver is a change to that function alone
    uses = []
    for path in sorted(Path(polysl2.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            uses += [
                (path.stem, owner.get(node), name)
                for name in names
                if name in ("eigh", "eigvalsh")
            ]
    assert sorted(uses) == [
        ("algebra", "eigh_tridiagonal", "eigh"),
        ("algebra", "eigh_tridiagonal", "eigvalsh"),
    ]
