"""Per-block Hamiltonians, exact spectra and the su(2) reference solution.

The block Hamiltonian a V0 + g V+ + g* V- + C is tridiagonal in the tower
basis; build_hamiltonian makes a block's one TridiagonalHamiltonian, which
every solver takes, and refuses one that is not finite.  The phase of g is
a diagonal gauge, so every spectral quantity comes from a real symmetric
tridiagonal; a Spectrum keeps its real eigenvectors and the coupling
phase, which only its amplitudes in the original basis carry.  Two
independent eigenvalue routes are provided: algebra.eigh_tridiagonal
(LAPACK) and a Sturm-count bisection on the characteristic recurrence,
used as cross-checking oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import Block, BlockError, StructureFunction, su2_rotation
from .algebra import eigh_tridiagonal

__all__ = [
    "HamiltonianParams",
    "TridiagonalHamiltonian",
    "Spectrum",
    "build_hamiltonian",
    "eigensolve",
    "spectral_polynomial_roots",
    "amplitude_recurrence",
    "sl2_reference_energies",
    "sl2_reference_spectrum",
]

ORACLE_TOL = 1e-12  # absolute bracket width of the Sturm bisection


@dataclass(frozen=True)
class HamiltonianParams:
    """Detuning a, coupling modulus/phase, additive constant."""

    a: float
    g_mod: float
    g_phase: float = 0.0
    constant: float = 0.0

    def __post_init__(self):
        if self.g_mod < 0:
            raise ValueError("g_mod must be nonnegative")

    @classmethod
    def from_coupling(cls, a: float, g: complex, constant: float = 0.0):
        """Split g into modulus and phase; g = 0, a signed zero too, has phase 0.

        The phase is cmath.phase(g) by math.atan2, which gives 0.0 where the
        phase underflows instead of raising OverflowError.
        """
        phase = math.atan2(g.imag, g.real) if g != 0 else 0.0
        return cls(a, abs(g), phase, constant)

    @property
    def g(self) -> complex:
        return self.g_mod * cmath.exp(1j * self.g_phase)


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Real symmetric tridiagonal form of the block Hamiltonian.

    diag[v] = C + a (l0 + v) and offdiag[v] = |g| sqrt(psi(l0+v+1)) from
    params; params.g_phase is the coupling phase that this real form gauges
    away, and eigensolve hands it on to the Spectrum.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    params: HamiltonianParams

    @property
    def dim(self) -> int:
        return len(self.diag)

    def key(self) -> bytes:
        """Bytes that are equal exactly when two Hamiltonians are bit-equal.

        diag, offdiag and the four params as float64: the block size fixes
        where each part starts, and bit patterns keep -0.0 and 0.0 apart.
        """
        p = self.params
        parts = self.diag, self.offdiag, [p.a, p.g_mod, p.g_phase, p.constant]
        return b"".join(np.asarray(x, dtype=np.float64).tobytes() for x in parts)

    def norm_bound(self) -> float:
        """Infinity-norm bound, also a spectral radius bound."""
        e = np.abs(self.offdiag)
        row = np.abs(self.diag)
        row[:-1] += e
        row[1:] += e
        return float(row.max())

    def dense(self) -> np.ndarray:
        """Dense complex matrix in the original gauge."""
        g = self.offdiag * cmath.exp(1j * self.params.g_phase)
        h = np.diag(self.diag.astype(complex))
        return h + np.diag(g, -1) + np.diag(g.conj(), 1)


@dataclass(frozen=True)
class Spectrum:
    """Ascending energies, real eigenvectors and the coupling phase theta.

    vectors[v, f] is level f of the real tridiagonal, in which theta is
    gauged away.  amplitudes restores it: Q[v, f] = <v|E_f> =
    exp(i v theta) vectors[v, f].
    """

    energies: np.ndarray
    vectors: np.ndarray
    phase: float

    @property
    def amplitudes(self) -> np.ndarray:
        phases = np.exp(1j * self.phase * np.arange(len(self.vectors)))
        return phases[:, None] * self.vectors

    def coefficients(self, c0) -> np.ndarray:
        """<E_f|c0> = vectors^T D c0, D_v = exp(-i v theta), by real products."""
        c = np.exp(-1j * self.phase * np.arange(len(self.vectors))) * c0
        return self.vectors.T @ c.real + 1j * (self.vectors.T @ c.imag)


def build_hamiltonian(
    block: Block, psi: StructureFunction, params: HamiltonianParams
) -> TridiagonalHamiltonian:
    """The block's TridiagonalHamiltonian; nothing non-finite reaches a solver.

    A non-finite a, |g| or C, or an entry that overflows, raises ValueError
    naming the first of them, without a floating-point warning.
    """
    for name in ("a", "g_mod", "constant"):
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"non-finite Hamiltonian: {name} = {value}")
    d = block.dim
    with np.errstate(over="ignore", invalid="ignore"):
        diag = params.constant + params.a * block.weights()
        vals = psi.values(block.l0 + np.arange(1, d, dtype=float))
        if np.any(vals < 0.0):
            raise BlockError("negative psi value under the ladder square root")
        off = params.g_mod * np.sqrt(vals)
    for name, entries in (("diag", diag), ("offdiag", off)):
        bad = np.flatnonzero(~np.isfinite(entries))
        if bad.size:
            v = int(bad[0])
            raise ValueError(f"non-finite Hamiltonian: {name}[{v}] = {entries[v]}")
    return TridiagonalHamiltonian(diag=diag, offdiag=off, params=params)


def eigensolve(tri: TridiagonalHamiltonian) -> Spectrum:
    """Energies and vectors of the tridiagonal by eigh_tridiagonal; see Spectrum."""
    e, q = eigh_tridiagonal(tri.diag, tri.offdiag)
    return Spectrum(e, q, tri.params.g_phase)


def _sturm_counts(tri: TridiagonalHamiltonian, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues strictly below each shift in xs."""
    e2 = tri.offdiag**2
    tiny = 1e-300
    p = tri.diag[0] - xs
    p = np.where(p == 0.0, tiny, p)
    count = (p < 0.0).astype(np.int64)
    for i in range(1, tri.dim):
        p = (tri.diag[i] - xs) - e2[i - 1] / p
        p = np.where(p == 0.0, tiny, p)
        count += p < 0.0
    return count


def spectral_polynomial_roots(tri: TridiagonalHamiltonian):
    """Eigenvalues as roots of the characteristic three-term recurrence.

    Sturm sign counts locate each root inside a Gershgorin bracket and
    bisection refines it to ORACLE_TOL absolute width; independent of the
    LAPACK route, so the two may be compared as oracles.
    """
    d = tri.dim
    e = np.abs(tri.offdiag)
    rad = np.zeros(d)
    rad[:-1] += e
    rad[1:] += e
    lo = np.full(d, float(np.min(tri.diag - rad)))
    hi = np.full(d, float(np.max(tri.diag + rad)))
    want = np.arange(1, d + 1)
    for _ in range(200):
        gap = hi - lo
        if np.all(gap <= ORACLE_TOL):
            break
        mid = 0.5 * (lo + hi)
        # float-spacing guard: interval no longer splittable
        stuck = (mid <= lo) | (mid >= hi)
        counts = _sturm_counts(tri, mid)
        below = counts < want
        lo = np.where(~stuck & below, mid, lo)
        hi = np.where(~stuck & ~below, mid, hi)
        if np.all(stuck | (gap <= ORACLE_TOL)):
            break
    return 0.5 * (lo + hi)


def amplitude_recurrence(tri: TridiagonalHamiltonian, energy: float):
    """Eigenvector candidate from the three-term amplitude recurrence.

    Seeds Q_0 = 1 and propagates in the real gauge; returns the normalized
    amplitude vector and the closure residual of the final recurrence row
    (small iff energy is an eigenvalue).  Vanishing off-diagonal entries
    split the chain; each segment is seeded separately and the one with the
    smallest residual wins.
    """
    d = tri.dim
    diag = np.asarray(tri.diag, dtype=float)
    off = np.asarray(tri.offdiag, dtype=float)
    bounds = [0] + [i + 1 for i in range(d - 1) if off[i] == 0.0] + [d]
    best = None
    for s, t in zip(bounds[:-1], bounds[1:]):
        q = np.zeros(d)
        q[s] = 1.0
        for v in range(s, t - 1):
            prev = q[v - 1] if v > s else 0.0
            oprev = off[v - 1] if v > s else 0.0
            q[v + 1] = ((energy - diag[v]) * q[v] - oprev * prev) / off[v]
        nrm = float(np.linalg.norm(q))
        tail = off[t - 2] * q[t - 2] if t - s > 1 else 0.0
        closure = abs((energy - diag[t - 1]) * q[t - 1] - tail) / nrm
        if best is None or closure < best[1]:
            best = (q / nrm, closure)
    return best


def sl2_reference_energies(block: Block, params: HamiltonianParams) -> np.ndarray:
    """Closed-form su(2) energies C + a(l0+j) + (-j+v) sqrt(a^2+4|g|^2)."""
    omega = math.hypot(params.a, 2.0 * params.g_mod)
    base = params.constant + params.a * (block.l0 + block.j)
    return base + (np.arange(block.dim) - block.j) * omega


def sl2_reference_spectrum(block: Block, params: HamiltonianParams) -> Spectrum:
    """Equidistant su(2) approximation of the block spectrum.

    Energies follow the closed form of sl2_reference_energies.
    In the real gauge a Y0 + |g| (Y+ + Y-) = R (omega Y0) R^T, omega =
    sqrt(a^2+4|g|^2), for the rotation R(r) = exp(r (Y- - Y+)) at
    r = atan2(2|g|, a) / 2 (Perelomov, Generalized Coherent States, 1986),
    so the vectors are the columns of su2_rotation.
    """
    rot = su2_rotation(block.dim, 0.5 * math.atan2(2.0 * params.g_mod, params.a))
    return Spectrum(sl2_reference_energies(block, params), rot, params.g_phase)
