"""Smooth su(2)-coherent-state approximation of block spectra.

The trial state is a basis state rotated by the spin-j rotation
R(r) = exp(r (Y- - Y+)); its energy is the diagonal entry
E(v, r) = (R^T H R)_vv of the real tridiagonal block Hamiltonian.
Stationarity in r reduces to a polynomial equation in alpha = -tan r,
solved by a sign-change scan.

R is built in float64 by exact diagonalisation (Feng, Wang, Yang & Jin,
Phys. Rev. E 92, 043307, 2015): the generator Y- - Y+ = -2i Jy is similar
to -2i Jx through the diagonal phase i^v, and Jx is a real symmetric
tridiagonal with the known eigenvalues m = -j..j.  Its eigenvectors are
cached per block dimension, so one rotation costs a d x d product and gives
every level of the block at once.  The same energy is also an explicit sum
of terminating regularized hypergeometrics; reg_hyp_2F1 evaluates those
exactly from rational coefficients and serves as an independent reference
(gcs_overlaps), not as the energy core, because its terms cancel heavily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .algebra import Block, BlockError, StructureFunction

__all__ = [
    "VariationalSolution",
    "reg_hyp_2F1",
    "energy_functional",
    "stationarity_residual",
    "solve_alpha",
    "variational_spectrum",
]

ALPHA_MAX = 50.0
GRID_POINTS = 4001


@dataclass(frozen=True)
class VariationalSolution:
    """Stationary points and per-level energies for one block.

    theta is the coupling phase (fixed, not searched).  alpha_roots holds
    every stationary point found in the scan bracket with its residual;
    alpha_selected minimizes the v=0 energy among them.  energies has one
    entry per block level.  ordering_ok flags whether the selected-root
    energies came out ascending; a violation indicates root misselection.
    """

    theta: float
    alpha_roots: tuple
    alpha_selected: float
    energies: tuple
    residuals: tuple
    ordering_ok: bool = True
    alpha_per_level: tuple | None = None

    @property
    def r_selected(self) -> float:
        return -math.atan(self.alpha_selected)


@lru_cache(maxsize=8192)
def _frac_coeffs(v: int, b: Fraction, c: int):
    """Exact series coefficients of F~(-v, b; c; x), ascending in x."""
    out = []
    for k in range(v + 1):
        ck = c + k
        if ck <= 0:
            # 1/Gamma(nonpositive integer) = 0
            out.append(Fraction(0))
            continue
        num = Fraction(1)
        for i in range(k):
            num *= (-v + i) * (b + i)
        out.append(num / (math.factorial(k) * math.factorial(ck - 1)))
    return tuple(out)


def reg_hyp_2F1(v: int, b, c: int, x: float) -> float:
    """Regularized Gauss hypergeometric F~(-v, b; c; x), terminating.

    Defined as sum_k (-v)_k (b)_k x^k / (k! Gamma(c+k)) with the convention
    1/Gamma(nonpositive integer) = 0, which keeps the value finite for any
    integer c.  The first parameter is passed as the nonnegative integer v.
    The sum runs in exact rational arithmetic at Fraction(x) and is rounded
    once, so the result is correctly rounded however strongly terms cancel.
    """
    if v < 0 or v != int(v):
        raise ValueError("first parameter must be a nonnegative integer")
    coeffs = _frac_coeffs(int(v), Fraction(b), int(c))
    xq = Fraction(x)
    acc = Fraction(0)
    for ck in reversed(coeffs):
        acc = acc * xq + ck
    return float(acc)


@lru_cache(maxsize=64)
def _rotation_basis(d: int):
    """Spin-j Jx eigenvectors and the phases i^(v-f) that carry them to R.

    Eigenvector columns are ordered by the eigenvalues m = -j..j.
    """
    twoj = d - 1
    k = np.arange(twoj, dtype=float)
    # Jx has a zero diagonal; eigh reads its sub-diagonal from the lower triangle
    _, w = np.linalg.eigh(np.diag(0.5 * np.sqrt((k + 1) * (twoj - k)), -1), UPLO="L")
    n = np.arange(d)
    phase = np.array([1, 1j, -1, -1j])[(n[None, :] - n[:, None]) % 4]
    w.setflags(write=False)
    phase.setflags(write=False)
    return w, phase


def _rotation(d: int, r: float) -> np.ndarray:
    """Real spin-j rotation R(r) = exp(r (Y- - Y+)) on a d-level block."""
    w, phase = _rotation_basis(d)
    m = np.arange(d) - 0.5 * (d - 1)
    return (phase * ((w * np.exp(-2j * r * m)) @ w.T)).real


def _tridiagonal(block: Block, psi: StructureFunction, params):
    """Diagonal and off-diagonal of the gauge-free block Hamiltonian."""
    diag = params.constant + params.a * block.weights()
    vals = psi.values(block.l0 + np.arange(1, block.dim, dtype=float))
    if np.any(vals < 0.0):
        raise BlockError("negative psi value under the ladder square root")
    return diag, params.g_mod * np.sqrt(vals)


def _level_energies(diag: np.ndarray, off: np.ndarray, r: float):
    """E(v, r) = (R^T H R)_vv and dE/dr for every level v of the tridiagonal H.

    The slope is the exact 2 (R^T H G R)_vv, with G = Y- - Y+ the
    generator of R, rather than a difference quotient.
    """
    d = diag.size
    rot = np.eye(d) if r == 0.0 else _rotation(d, r)
    hr = diag[:, None] * rot
    hr[:-1] += off[:, None] * rot[1:]
    hr[1:] += off[:, None] * rot[:-1]
    e = np.einsum("fv,fv->v", rot, hr)
    k = np.arange(d - 1, dtype=float)
    y = np.sqrt((k + 1) * (d - 1 - k))[:, None]
    gr = np.zeros_like(rot)
    gr[:-1] += y * rot[1:]
    gr[1:] -= y * rot[:-1]
    return e, 2.0 * np.einsum("fv,fv->v", hr, gr)


def energy_functional(
    block: Block, psi: StructureFunction, params, v: int, r: float
) -> float:
    """Trial-state energy E(v, r) of block level v at rotation angle r.

    E = (R^T H R)_vv with R(r) = exp(r (Y- - Y+)) the float64 spin-j
    rotation and H the real tridiagonal block Hamiltonian, diagonal
    C + a(l0+v) and off-diagonal |g| sqrt(psi(l0+v+1)).  The coupling
    phase drops out.  Equivalently E = C + a(l0+j) + a(v-j) cos 2r minus a
    sum over ladder rungs of paired regularized hypergeometrics; that form
    cancels heavily, so it only serves as a reference, through the exact
    rational reg_hyp_2F1 behind gcs_overlaps.  r = 0 returns the diagonal
    entry unrotated.
    """
    d = block.dim
    if not 0 <= v < d:
        raise ValueError("level index outside block")
    if abs(math.cos(r)) < 1e-12:
        raise ValueError("rotation angle too close to pi/2")
    if r == 0.0:
        return params.constant + params.a * (block.l0 + v)
    diag, off = _tridiagonal(block, psi, params)
    return float(_level_energies(diag, off, r)[0][v])


def _rung_weights(block: Block, psi: StructureFunction):
    twoj = block.dim - 1
    l0 = block.l0
    q = np.empty(twoj)
    for f in range(twoj):
        q[f] = math.sqrt(float(psi(l0 + 1 + f)) / ((twoj - f) * (f + 1)))
    return q


@lru_cache(maxsize=64)
def _binomial_weights(twoj: int):
    """Term weights of the stationarity condition, normalised, and their scale.

    The condition weighs term f by 1 / ((2j-1-f)! f!) = C(2j-1, f) / (2j-1)!,
    whose factorials overflow a float from d = 173 on.  The weights returned
    are C(2j-1, f) / max_f C(2j-1, f), each an exact integer ratio rounded
    once, and scale = max_f C(2j-1, f) / (2j-1)! restores the factorial
    form.  Roots do not depend on the scale, so the scan uses the weights
    alone.
    """
    n = twoj - 1
    combs = [math.comb(n, f) for f in range(twoj)]
    top = math.comb(n, n // 2) if twoj else 1
    weights = tuple(c / top for c in combs)
    return weights, top / math.factorial(max(n, 0))


def stationarity_residual(
    block: Block, psi: StructureFunction, params, alpha: float
) -> float:
    """Residual of the stationarity condition at alpha = -tan r.

    Zero iff the trial energy is stationary in r.  Termwise evaluation; the
    scan in solve_alpha uses an equivalent polynomial form.
    """
    if params.g_mod == 0:
        raise ValueError("variational phase undefined at g = 0")
    twoj = block.dim - 1
    j = block.j
    q = _rung_weights(block, psi)
    weights, scale = _binomial_weights(twoj)
    ratio = params.a / params.g_mod
    acc = 0.0
    for f in range(twoj):
        term = alpha ** (2 * f) * weights[f]
        brace = ratio * alpha
        brace -= (4 * alpha**2 * j - (1 + alpha**2) * (2 * f + 1)) * q[f]
        acc += term * brace
    return acc * scale


def _residual_scale(block: Block, psi: StructureFunction, params, alpha: float):
    """Sum of absolute term magnitudes, for relative residual bounds."""
    twoj = block.dim - 1
    j = block.j
    q = _rung_weights(block, psi)
    weights, scale = _binomial_weights(twoj)
    ratio = abs(params.a / params.g_mod)
    acc = 0.0
    for f in range(twoj):
        term = abs(alpha) ** (2 * f) * weights[f]
        brace = ratio * abs(alpha)
        brace += abs(4 * alpha**2 * j - (1 + alpha**2) * (2 * f + 1)) * q[f]
        acc += term * brace
    return acc * scale


def _residual_poly(block: Block, psi: StructureFunction, params):
    """Stationarity residual as ascending polynomial coefficients in alpha."""
    twoj = block.dim - 1
    q = _rung_weights(block, psi)
    weights, _ = _binomial_weights(twoj)
    ratio = params.a / params.g_mod
    coef = np.zeros(2 * twoj + 2)
    for f, base in enumerate(weights):
        coef[2 * f + 1] += base * ratio
        coef[2 * f] += base * (2 * f + 1) * q[f]
        coef[2 * f + 2] += base * ((2 * f + 1) - 2 * twoj) * q[f]
    return coef


def _root_bound(coef):
    """Cauchy bound on the magnitude of every real root of the polynomial."""
    c = np.asarray(coef, dtype=float)
    nz = np.nonzero(c)[0]
    if nz.size < 2:
        return 0.0
    c = c[: nz[-1] + 1]
    lead = abs(c[-1])
    rest = np.abs(c[:-1])
    if lead == 0.0 or not np.isfinite(lead) or not np.all(np.isfinite(rest)):
        return math.inf
    return 1.0 + float(rest.max()) / lead


def solve_alpha(
    block: Block,
    psi: StructureFunction,
    params,
    alpha_max: float | None = None,
    grid_points: int = GRID_POINTS,
) -> VariationalSolution:
    """Locate all stationary alpha.

    By default the scan covers [-A, A] with A the larger of ALPHA_MAX and
    a Cauchy bound on the roots of the stationarity polynomial; weakly
    coupled blocks push the ground rotation toward a flipped basis state
    and the matching root far out, so a fixed bracket would lose it.  An
    explicit alpha_max restricts the scan to that bracket instead.  Sign
    changes on the grid are refined together, as arrays, by bisection to
    an interval of 1e-14.
    Returns a solution carrying roots and residuals only; the energies
    are filled in by variational_spectrum.
    """
    if params.g_mod == 0:
        raise ValueError("variational phase undefined at g = 0")
    if block.dim == 1:
        # no rotation freedom on a single level
        return VariationalSolution(
            theta=params.g_phase,
            alpha_roots=(0.0,),
            alpha_selected=math.nan,
            energies=(),
            residuals=(0.0,),
        )
    coef = _residual_poly(block, psi, params)
    if alpha_max is None:
        bound = _root_bound(coef)
        a_eff = ALPHA_MAX if not math.isfinite(bound) else max(ALPHA_MAX, bound)
    else:
        a_eff = float(alpha_max)
    if a_eff > ALPHA_MAX:
        # keep full density in the central cluster, extend with equally
        # dense tails out to the root bound
        xs = np.sort(
            np.concatenate(
                [
                    np.linspace(-a_eff, -ALPHA_MAX, grid_points),
                    np.linspace(-ALPHA_MAX, ALPHA_MAX, grid_points),
                    np.linspace(ALPHA_MAX, a_eff, grid_points),
                ]
            )
        )
        # drop repeated points (the shared ends, and any that round together)
        # without np.unique, whose lazy numpy.ma import outweighs the merge
        xs = xs[np.concatenate(([True], xs[1:] != xs[:-1]))]
    else:
        xs = np.linspace(-a_eff, a_eff, grid_points)
    with np.errstate(over="ignore", invalid="ignore"):
        ys = npoly.polyval(xs, coef)
        y0, y1 = ys[:-1], ys[1:]
        finite = np.isfinite(y0) & np.isfinite(y1)
        # a grid zero counts unless its right neighbour overflowed
        exact = ys == 0.0
        exact[:-1] &= np.isfinite(y1)
        change = finite & (y0 != 0.0) & (y1 != 0.0) & ((y0 > 0.0) != (y1 > 0.0))
        brackets = np.nonzero(change)[0]
        lo, hi, flo = xs[brackets], xs[brackets + 1], y0[brackets]
        # bisect every bracket at once; a bracket leaves the loop when it is
        # 1e-14 wide, can no longer be split in floating point, or hits an
        # exact zero of the polynomial
        active = hi - lo > 1e-14
        while np.any(active):
            mid = 0.5 * (lo + hi)
            active &= (mid > lo) & (mid < hi)
            fm = npoly.polyval(mid, coef)
            zero = active & (fm == 0.0)
            lo = np.where(zero, mid, lo)
            hi = np.where(zero, mid, hi)
            active &= ~zero
            same = (fm < 0.0) == (flo < 0.0)
            lo = np.where(active & same, mid, lo)
            flo = np.where(active & same, fm, flo)
            hi = np.where(active & ~same, mid, hi)
            active &= hi - lo > 1e-14
    # roots in grid order: exact grid zeros and bisected brackets interleave
    at = np.concatenate([np.nonzero(exact)[0], brackets])
    found = np.concatenate([xs[exact], 0.5 * (lo + hi)])
    roots = [float(x) for x in found[np.argsort(at, kind="stable")]]
    if not roots:
        raise RuntimeError(
            "no stationary point in bracket "
            f"[-{a_eff}, {a_eff}]; residual at endpoints: "
            f"{ys[0]:.6e}, {ys[-1]:.6e}"
        )
    residuals = tuple(
        stationarity_residual(block, psi, params, al) for al in roots
    )
    return VariationalSolution(
        theta=params.g_phase,
        alpha_roots=tuple(roots),
        alpha_selected=math.nan,
        energies=(),
        residuals=residuals,
    )


def variational_spectrum(
    block: Block, psi: StructureFunction, params, per_level: bool = False
) -> VariationalSolution:
    """Approximate block spectrum from the stationary trial states.

    Among the stationary roots the one minimizing E(v=0) is selected (the
    v=0 energy is a Rayleigh quotient, so this branch is variationally
    controlled) and all levels are evaluated at its rotation angle.  With
    per_level=True each level instead picks the root at which its own
    energy is closest to stationary, recorded in alpha_per_level; slopes
    equal to within round-off count as a tie, which the first root wins.
    """
    if block.dim == 1:
        e0 = params.constant + params.a * block.l0
        return VariationalSolution(
            theta=params.g_phase,
            alpha_roots=(0.0,),
            alpha_selected=0.0,
            energies=(e0,),
            residuals=(0.0,),
            ordering_ok=True,
            alpha_per_level=(0.0,) if per_level else None,
        )
    sol = solve_alpha(block, psi, params)
    diag, off = _tridiagonal(block, psi, params)
    levels = [_level_energies(diag, off, -math.atan(al)) for al in sol.alpha_roots]
    best = None
    for k, (e, _) in enumerate(levels):
        if best is None or e[0] < levels[best][0][0]:
            best = k
    al_sel = sol.alpha_roots[best]
    energies = levels[best][0].tolist()
    alpha_per_level = None
    if per_level:
        # slopes within round-off of a level's smallest |dE/dr| tie, and a
        # tie goes to the first root
        slopes = np.abs([s for _, s in levels])
        norm = np.max(np.abs(diag)) + 2.0 * np.max(off)
        floor = 1e-12 * block.dim * max(norm, 1.0)
        pick = np.argmax(slopes <= slopes.min(axis=0) + floor, axis=0).tolist()
        energies = [float(levels[k][0][v]) for v, k in enumerate(pick)]
        alpha_per_level = tuple(sol.alpha_roots[k] for k in pick)
    diffs = np.diff(energies) if block.dim > 1 else np.array([0.0])
    span = max(np.max(np.abs(energies)), 1.0)
    ordering_ok = bool(np.all(diffs >= -1e-10 * span))
    return VariationalSolution(
        theta=sol.theta,
        alpha_roots=sol.alpha_roots,
        alpha_selected=al_sel,
        energies=tuple(energies),
        residuals=sol.residuals,
        ordering_ok=ordering_ok,
        alpha_per_level=alpha_per_level,
    )
