"""Structure functions and irreducible blocks of polynomially deformed sl(2).

A deformed algebra is fixed by a polynomial structure function psi, kept here
in factored form (leading coefficient and real roots).  Finite unitary blocks
are towers l0, l0+1, ..., l0+d-1 on which psi is positive between consecutive
zeros; the ladder matrix elements are square roots of psi values.  Their
su(2) images use the spin-j ladder and rotation defined here; the rotation
is one eigh_tridiagonal of the rotated Jz per call, with nothing cached.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "StructureFunction",
    "Block",
    "BlockError",
    "falling_product",
    "build_block",
    "block_operators",
    "eigh_tridiagonal",
    "holstein_primakoff",
    "in_block",
    "sl2_block",
    "su2_eigenbasis",
    "su2_ladder",
    "su2_rotation",
]

# a rung x lies at a root r of psi when |x - r| <= ROOT_RTOL (|x| + |r|)
ROOT_RTOL = 1e-12
MAX_BLOCK_DIM = 2001  # levels in one block; dense solvers hold several d x d arrays
# fewest samples of a signal that dynamics.detect_collapse_revival accepts;
# here, like MAX_BLOCK_DIM, so the config schema reads it without dynamics
MIN_SAMPLES = 1000


class BlockError(ValueError):
    """Raised when a lowest weight does not generate a valid unitary block."""


@contextmanager
def in_block(block_id: str):
    """Prefix "block <block_id>: " to a RuntimeError or ValueError raised inside."""
    try:
        yield
    except (RuntimeError, ValueError) as exc:
        raise RuntimeError(f"block {block_id}: {exc}") from exc


@dataclass(frozen=True)
class StructureFunction:
    """Polynomial psi(x) = leading * prod_i (x - roots[i]).

    Roots may be floats or exact rationals (fractions.Fraction); evaluation
    preserves the input arithmetic, so rational x with rational roots gives
    an exact rational value.  Root order is fixed and significant only for
    floating point reproducibility.
    """

    leading: object
    roots: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(self.roots))

    @property
    def degree(self) -> int:
        return len(self.roots)

    def __call__(self, x):
        acc = self.leading
        for r in self.roots:
            acc = acc * (x - r)
        return acc

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation."""
        xs = np.asarray(xs, dtype=float)
        acc = np.full(xs.shape, float(self.leading))
        for r in self.roots:
            acc *= xs - float(r)
        return acc


def falling_product(psi: StructureFunction, x, v: int):
    """prod_{r=0}^{v-1} psi(x - r); the empty product (v=0) is 1."""
    if v < 0:
        raise ValueError("v must be nonnegative")
    acc = 1
    for r in range(v):
        acc = acc * psi(x - r)
    return acc


@dataclass(frozen=True)
class Block:
    """A whole tower between zeros of psi: lowest weight l0, dimension dim."""

    l0: float
    dim: int

    @property
    def j(self) -> float:
        return (self.dim - 1) / 2.0

    def weights(self) -> np.ndarray:
        """V0 eigenvalues l0 + v."""
        return self.l0 + np.arange(self.dim, dtype=float)


def build_block(psi, l0) -> Block:
    """Construct the block generated from lowest weight l0.

    A rung x = l0 + v is a zero of psi where psi(x) is 0 or x lies at a root
    r, |x - r| <= ROOT_RTOL (|x| + |r|); psi's values away from the tower
    never move this test.  l0 must be a zero, and the tower ends at the next
    one.  The rungs between must hold finite, strictly positive psi values,
    otherwise the tower is not unitary.  The result is a whole tower: one
    that psi has not ended within MAX_BLOCK_DIM levels is a BlockError.
    """
    l0 = float(l0)
    xs = l0 + np.arange(MAX_BLOCK_DIM + 1, dtype=float)
    # psi may overflow past the end of the tower, where no value is used
    with np.errstate(over="ignore", invalid="ignore"):
        vals = psi.values(xs)
        zero = vals == 0.0
        for r in map(float, psi.roots):
            zero |= np.abs(xs - r) <= ROOT_RTOL * (np.abs(xs) + abs(r))
    if not zero[0]:
        raise BlockError(f"l0={l0} is not a root of psi (psi(l0)={vals[0]:.3e})")
    # the first rung that is a zero, or not a finite positive value
    stop = np.flatnonzero(zero[1:] | ~(np.isfinite(vals[1:]) & (vals[1:] > 0.0)))
    if not stop.size:
        raise BlockError(
            f"the tower from l0={l0} does not end within {MAX_BLOCK_DIM} levels"
        )
    dim = int(stop[0]) + 1
    if zero[dim]:
        return Block(l0=l0, dim=dim)
    if not np.isfinite(vals[dim]):
        raise BlockError(f"psi(l0+{dim}) = {vals[dim]} is not finite")
    raise BlockError(
        f"non-unitary block: psi(l0+{dim}) = {float(vals[dim]):.6g} < 0 "
        "before termination"
    )


def sl2_block(j: float):
    """The spin-j block, 2j + 1 levels from l0 = -j, and psi_2(x) = (j+x)(j+1-x)."""
    jf = Fraction(j)
    psi = StructureFunction(leading=Fraction(-1), roots=(-jf, jf + 1))
    return Block(float(-jf), int(2 * j) + 1), psi


def block_operators(block: Block, psi: StructureFunction):
    """Matrices of V0, V+, V- on the ordered block basis.

    (V0)_vv = l0 + v, (V+)_{v+1,v} = sqrt(psi(l0+v+1)), V- the adjoint.
    """
    v0 = np.diag(block.weights()).astype(complex)
    vals = psi.values(block.l0 + np.arange(1, block.dim, dtype=float))
    neg = np.flatnonzero(vals < 0.0)
    if neg.size:
        raise BlockError(f"negative psi under sqrt at v={neg[0] + 1}")
    vp = np.diag(np.sqrt(vals), -1).astype(complex)
    return v0, vp, vp.conj().T


def su2_ladder(d: int) -> np.ndarray:
    """Spin-j ladder sqrt((v+1)(2j-v)), v = 0..d-2, on d = 2j+1 levels."""
    v = np.arange(d - 1, dtype=float)
    return np.sqrt((v + 1) * (d - 1 - v))


def holstein_primakoff(block: Block, psi: StructureFunction):
    """su(2) images Y0, Y+, Y- of the deformed generators on the block.

    They are V0, V+, V- of sl2_block(j) for the block's j: Y0 = diag(v - j)
    is the block's V0 shifted by -(l0+j), and Y+ has the spin-j ladder
    sqrt((v+1)(2j-v)).  The result satisfies exact su(2) relations
    regardless of psi.
    """
    return block_operators(*sl2_block(block.j))


def eigh_tridiagonal(diag, off, eigvals_only=False):
    """Ascending eigenvalues and eigenvector columns of a real tridiagonal.

    diag and off are its diagonal and sub-diagonal, and eigvals_only skips
    the vectors, as in scipy.linalg.eigh_tridiagonal.  This is the package's
    one use of numpy's eigh and eigvalsh, which read the lower triangle
    built dense here.  A LAPACK failure raises RuntimeError.
    """
    t = np.diag(np.asarray(off, dtype=float), -1)
    np.fill_diagonal(t, diag)
    solve = np.linalg.eigvalsh if eigvals_only else np.linalg.eigh
    try:
        return solve(t, UPLO="L")
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"tridiagonal eigensolve failed: {exc}") from exc


def su2_eigenbasis(d: int, r: float) -> np.ndarray:
    """Columns of su2_rotation(d, r), each with the sign LAPACK gives it.

    A form quadratic in each column, such as a trial energy, needs no more.
    Column v is the eigenvector for v - j of the tridiagonal
    T(r) = R Y0 R^T = cos 2r Y0 + sin 2r Jx.  Its eigenvalues are one apart,
    so eigh_tridiagonal returns the columns in order and well conditioned.
    r = 0 gives the identity exactly.
    """
    if r == 0.0:
        return np.eye(d)
    diag = (np.arange(d) - 0.5 * (d - 1)) * math.cos(2 * r)
    return eigh_tridiagonal(diag, 0.5 * math.sin(2 * r) * su2_ladder(d))[1]


def su2_rotation(d: int, r: float) -> np.ndarray:
    """Real spin-j rotation R(r) = exp(r (Y- - Y+)) on a d-level block.

    Columns from su2_eigenbasis, signs from two facts.  Column 0 is the
    coherent state sqrt(C(n, f)) cos^(n-f) r (-sin r)^f, n = d - 1: its
    largest entry gets that sign, read from the signs of cos r and sin r
    (their powers underflow at large d).  R commutes with A = Y- - Y+, so
    q_(v+1)^T A q_v = -su2_ladder(d)[v], at least sqrt(n) in magnitude, and
    the signs of these links fix the other columns.  R(0) = I exactly.
    """
    u = su2_eigenbasis(d, r)
    n, f = d - 1, int(np.argmax(np.abs(u[:, 0])))
    flips = (n - f) * (math.cos(r) < 0.0) + f * (math.sin(r) > 0.0) + (u[f, 0] < 0.0)
    # q_(v+1)^T A q_v as a sum over rungs f of ladder_f times a 2 x 2 minor
    links = su2_ladder(d) @ (u[:-1, 1:] * u[1:, :-1] - u[1:, 1:] * u[:-1, :-1])
    signs = np.cumprod(np.concatenate(([(-1.0) ** flips], -np.sign(links))))
    return u * signs
