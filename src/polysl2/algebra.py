"""Structure functions and irreducible blocks of polynomially deformed sl(2).

A deformed algebra is fixed by a polynomial structure function psi, kept here
in factored form (leading coefficient and real roots).  Finite unitary blocks
are towers l0, l0+1, ..., l0+d-1 on which psi is positive between consecutive
zeros; the ladder matrix elements are square roots of psi values.  Their
su(2) images use the spin-j ladder and rotation defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "StructureFunction",
    "Block",
    "BlockError",
    "falling_product",
    "build_block",
    "block_operators",
    "holstein_primakoff",
    "su2_ladder",
    "su2_rotation",
]

# relative threshold for root detection and block termination
ROOT_RTOL = 1e-12


class BlockError(ValueError):
    """Raised when a lowest weight does not generate a valid unitary block."""


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
    """One irreducible tower: lowest weight l0, dimension dim.

    truncated marks towers cut at dmax before a terminating zero of psi
    was found; exactness claims do not apply to those.
    """

    l0: float
    dim: int
    truncated: bool = False

    @property
    def j(self) -> float:
        return (self.dim - 1) / 2.0

    def weights(self) -> np.ndarray:
        """V0 eigenvalues l0 + v."""
        return self.l0 + np.arange(self.dim, dtype=float)


def build_block(psi, l0, dmax=1000) -> Block:
    """Construct the block generated from lowest weight l0.

    l0 must be a root of psi; the dimension is the first v >= 1 with
    psi(l0+v) below the detection threshold.  Intermediate values must be
    strictly positive, otherwise the tower is not unitary.  If no zero is
    found up to dmax the block is returned truncated at dmax.  The
    threshold is ROOT_RTOL times the largest |psi(l0+v)|, v = 0..dmax.
    """
    if dmax < 1:
        raise ValueError("dmax must be positive")
    l0 = float(l0)
    vals = psi.values(l0 + np.arange(dmax + 1, dtype=float))
    tol = ROOT_RTOL * float(np.max(np.abs(vals)))
    head = float(vals[0])
    if abs(head) > tol:
        raise BlockError(f"l0={l0} is not a root of psi (psi(l0)={head:.3e})")
    # the tower ends at the first rung <= tol; below -tol it is not unitary
    low = np.flatnonzero(vals[1:] <= tol)
    truncated = not low.size
    dim = dmax if truncated else int(low[0]) + 1
    if not truncated and vals[dim] < -tol:
        raise BlockError(
            f"non-unitary block: psi(l0+{dim}) = {float(vals[dim]):.6g} < 0 "
            "before termination"
        )
    return Block(l0=l0, dim=dim, truncated=truncated)


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

    Y0 shifts V0 by -(l0+j); Y+ replaces each ladder element by the spin-j
    value sqrt((v+1)(2j-v)).  The result satisfies exact su(2) relations
    regardless of psi.
    """
    d = block.dim
    y0 = np.diag(np.arange(d, dtype=float) - block.j).astype(complex)
    yp = np.diag(su2_ladder(d), -1).astype(complex)
    return y0, yp, yp.conj().T


@lru_cache(maxsize=64)
def _su2_rotation_basis(d: int):
    """Spin-j Jx eigenvectors and the phases i^(v-f) that carry them to R.

    Eigenvector columns are ordered by the eigenvalues m = -j..j.
    """
    # Jx has a zero diagonal; eigh reads its sub-diagonal from the lower triangle
    _, w = np.linalg.eigh(np.diag(0.5 * su2_ladder(d), -1), UPLO="L")
    n = np.arange(d)
    phase = np.array([1, 1j, -1, -1j])[(n[None, :] - n[:, None]) % 4]
    w.setflags(write=False)
    phase.setflags(write=False)
    return w, phase


def su2_rotation(d: int, r: float) -> np.ndarray:
    """Real spin-j rotation R(r) = exp(r (Y- - Y+)) on a d-level block.

    R is built in float64 by exact diagonalisation (Feng, Wang, Yang & Jin,
    Phys. Rev. E 92, 043307, 2015): the generator Y- - Y+ = -2i Jy is
    similar to -2i Jx through the diagonal phase i^v, and Jx is a real
    symmetric tridiagonal with the known eigenvalues m = -j..j.  Its
    eigenvectors are cached per block dimension, so one rotation costs a
    d x d product.  r = 0 gives the identity exactly.
    """
    if r == 0.0:
        return np.eye(d)
    w, phase = _su2_rotation_basis(d)
    m = np.arange(d) - 0.5 * (d - 1)
    return (phase * ((w * np.exp(-2j * r * m)) @ w.T)).real
