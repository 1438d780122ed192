"""Smooth su(2)-coherent-state approximation of block spectra.

The trial state is a basis state rotated by the spin-j rotation
R(r) = exp(r (Y- - Y+)); its energy is the diagonal entry
E(v, r) = (R^T H R)_vv of the real tridiagonal block Hamiltonian.

The columns of R are the eigenvectors of T(r) = cos 2r Y0 + sin 2r Jx:
one real eigh gives every level of the block at once, and the exact
rational overlaps in polysl2.reference check R independently.

The ground-state slope dE(0, r)/dr is a binomial (Bernstein) mean over
the ladder rungs, because the rotated lowest state is an su(2) coherent
state with binomial amplitudes (Perelomov, Generalized Coherent States,
1986).  solve_alpha scans that mean for stationary points.  Bernstein form
is the well-conditioned basis on [0, 1] (Farouki & Rajan, CAGD 4, 191,
1987), and evaluated by scaled Horner it stays finite at any block size.
Roots are reported as alpha = -tan r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Block, StructureFunction, _su2_eigenbasis, su2_ladder
from .solver import build_hamiltonian

__all__ = [
    "VariationalSolution",
    "energy_functional",
    "solve_alpha",
    "variational_spectrum",
]

GRID_POINTS = 4001
ALPHA_WIDTH = 1e-14  # refined roots are bracketed this tightly in alpha
SECTIONS = 64  # subintervals per bracket and refinement pass
NORM_SLACK = 1e-12  # round-off allowed on |E| <= norm bound


@dataclass(frozen=True)
class VariationalSolution:
    """Stationary points and per-level energies for one block.

    theta is the coupling phase (fixed, not searched).  alpha_roots holds
    every stationary point found by the scan, in ascending order;
    residuals holds the exact slope dE(0, r)/dr at each of them, divided by
    the Hamiltonian's norm bound.  alpha_selected minimizes the v=0 energy
    among them.  energies has one entry per block level.  ordering_ok
    flags whether the selected-root energies came out ascending; a
    violation indicates root misselection.
    """

    theta: float
    alpha_roots: tuple
    alpha_selected: float
    energies: tuple
    residuals: tuple
    ordering_ok: bool = True

    @property
    def r_selected(self) -> float:
        return -math.atan(self.alpha_selected)


def _level_energies(diag: np.ndarray, off: np.ndarray, r: float) -> np.ndarray:
    """E(v, r) = (R^T H R)_vv for every level v of the tridiagonal H.

    E is quadratic in each column of R, so their signs are never fixed.
    """
    rot = _su2_eigenbasis(diag.size, r)
    hr = diag[:, None] * rot
    hr[:-1] += off[:, None] * rot[1:]
    hr[1:] += off[:, None] * rot[:-1]
    return np.einsum("fv,fv->v", rot, hr)


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
    rational overlaps of polysl2.reference.  At r = 0 the rotation is the
    identity, so E is the diagonal entry exactly.
    """
    d = block.dim
    if not 0 <= v < d:
        raise ValueError("level index outside block")
    if abs(math.cos(r)) < 1e-12:
        raise ValueError("rotation angle too close to pi/2")
    tri = build_hamiltonian(block, psi, params)
    return float(_level_energies(tri.diag, tri.offdiag, r)[v])


def _stationarity(tri, params):
    """F(alpha), vectorised: the ground-state slope in Bernstein form.

    With n = d - 1, r = -atan(alpha), s = sin^2 r and c = cos^2 r,

        F = -(a/|g|) sin r cos r + c S1(s) - s S2(s),

    where S1 and S2 are the degree n-1 Bernstein sums of
    (2f+1) q_f and (2n-2f-1) q_f, q_f = offdiag_f / (|g| sqrt((n-f)(f+1))).
    F equals -dE(0, r)/dr / (2|g|n), and it is the stationarity polynomial
    of polysl2.reference.stationarity_residual divided by (1 + alpha^2)^n
    times a positive constant, so both share their roots.  c S1 - s S2 is
    kept as one degree-n Bernstein sum with coefficients y_f.  It is
    evaluated in the smaller of s and c by scaled Horner, coefficients
    reversed when s > c, and below 1e-150 the partial sums are rescaled by
    powers of two as in dynamics._CoherentEnergy._sums, so F stays finite
    at any block size.
    """
    n = tri.dim - 1
    f = np.arange(n, dtype=float)
    q = tri.offdiag / (params.g_mod * su2_ladder(tri.dim))
    y = np.zeros(n + 1)
    y[:-1] = (n - f) * (2 * f + 1) / n * q
    y[1:] -= (f + 1) * (2 * (n - f) - 1) / n * q
    ratio = params.a / params.g_mod
    # (binomial ratio C(n, f+1) / C(n, f), y_f, y_(n-f)) from f = n-1 down
    steps = [((n - k) / (k + 1), y[k], y[n - k]) for k in range(n - 1, -1, -1)]

    def stationarity(alpha: np.ndarray) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=float)
        flip = np.abs(alpha) > 1.0  # s > c: expand in c instead
        w = alpha.copy()
        np.divide(1.0, alpha, out=w, where=flip)
        big = 1.0 / (1.0 + w * w)
        small = w * w * big
        power = 1.0
        acc = np.where(flip, y[0], y[n])
        exp2 = None
        for count, (rb, fwd, rev) in enumerate(steps, 1):
            power = power * big
            acc *= small * rb
            acc += power * np.where(flip, rev, fwd)
            # big >= 1/2, so power cannot drop below 1e-150 in fewer steps
            if count > 490:
                top = np.maximum(power, np.abs(acc))
                if top.min() < 1e-150:
                    e = np.frexp(top)[1]
                    power = np.ldexp(power, -e)
                    acc = np.ldexp(acc, -e)
                    exp2 = e if exp2 is None else exp2 + e
        if exp2 is not None:
            acc = np.ldexp(acc, exp2)
        # -sin r cos r = alpha c = w * big on both sides of |alpha| = 1
        return ratio * w * big + acc

    return stationarity


def solve_alpha(block: Block, psi: StructureFunction, params) -> VariationalSolution:
    """Locate all stationary alpha.

    The scan runs on GRID_POINTS angles spaced evenly in r = -atan(alpha)
    over the closed interval [-pi/2, pi/2], so it covers every alpha with
    no root bound: the stationarity function F (see _stationarity) is a
    bounded Bernstein mean there.  Grid zeros are roots; every sign change
    is refined, all brackets together as arrays, by SECTIONS-fold
    sectioning until it is ALPHA_WIDTH wide in alpha or cannot be split in
    floating point, and its midpoint is the root.  residuals holds
    dE(0, r)/dr / norm_bound at each root, which is -2|g|n F / norm_bound.
    The energies are filled in by variational_spectrum.  A grid on which F
    has neither a zero nor a sign change raises RuntimeError.
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
    tri = build_hamiltonian(block, psi, params)
    stationarity = _stationarity(tri, params)
    xs = np.tan(np.linspace(-math.pi / 2, math.pi / 2, GRID_POINTS))
    ys = stationarity(xs)
    exact = ys == 0.0
    y0, y1 = ys[:-1], ys[1:]
    brackets = np.nonzero((y0 != 0.0) & (y1 != 0.0) & ((y0 > 0.0) != (y1 > 0.0)))[0]
    lo, hi, neg = xs[brackets], xs[brackets + 1], y0[brackets] < 0.0
    # a bracket keeps the sign of F at its left end, so each pass keeps the
    # first subinterval whose right end has the other sign (a zero counts
    # as positive); a bracket leaves once it is ALPHA_WIDTH wide or stops
    # shrinking in floating point
    frac = np.linspace(0.0, 1.0, SECTIONS + 1)
    active = np.nonzero(hi - lo > ALPHA_WIDTH)[0]
    while active.size:
        a, b = lo[active], hi[active]
        pts = np.minimum(a[:, None] + (b - a)[:, None] * frac, b[:, None])
        pts[:, -1] = b
        change = np.ones((active.size, SECTIONS), dtype=bool)
        vals = stationarity(pts[:, 1:-1].ravel())
        change[:, :-1] = (vals < 0.0).reshape(-1, SECTIONS - 1) != neg[active, None]
        k = np.argmax(change, axis=1)
        rows = np.arange(active.size)
        lo[active], hi[active] = pts[rows, k], pts[rows, k + 1]
        width = hi[active] - lo[active]
        active = active[(width < b - a) & (width > ALPHA_WIDTH)]
    # roots in grid order: exact grid zeros and refined brackets interleave
    at = np.concatenate([np.nonzero(exact)[0], brackets])
    found = np.concatenate([xs[exact], 0.5 * (lo + hi)])
    roots = found[np.argsort(at, kind="stable")]
    if not roots.size:
        raise RuntimeError(
            "no stationary point on the scan grid; stationarity function at "
            f"alpha = -inf and +inf: {ys[0]:.6e}, {ys[-1]:.6e}"
        )
    n = block.dim - 1
    residuals = -2.0 * params.g_mod * n * stationarity(roots) / tri.norm_bound()
    return VariationalSolution(
        theta=params.g_phase,
        alpha_roots=tuple(roots.tolist()),
        alpha_selected=math.nan,
        energies=(),
        residuals=tuple(residuals.tolist()),
    )


def variational_spectrum(
    block: Block, psi: StructureFunction, params
) -> VariationalSolution:
    """Approximate block spectrum from the stationary trial states.

    Among the stationary roots the one minimizing E(v=0) is selected, the
    first of equal minima winning (the v=0 energy is a Rayleigh quotient,
    so this branch is variationally controlled), and all levels are
    evaluated at its rotation angle.  An energy beyond the Hamiltonian's
    norm bound (with NORM_SLACK for round-off) cannot be a Rayleigh
    quotient and raises RuntimeError.
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
        )
    sol = solve_alpha(block, psi, params)
    tri = build_hamiltonian(block, psi, params)
    diag, off = tri.diag, tri.offdiag
    levels = [_level_energies(diag, off, -math.atan(al)) for al in sol.alpha_roots]
    best = min(range(len(levels)), key=lambda k: levels[k][0])
    al_sel = sol.alpha_roots[best]
    energies = levels[best].tolist()
    bound = tri.norm_bound()
    worst = float(np.max(np.abs(energies)))
    if not worst <= bound * (1.0 + NORM_SLACK):
        raise RuntimeError(
            f"variational energy {worst:.6e} in magnitude exceeds the "
            f"norm bound {bound:.6e}"
        )
    diffs = np.diff(energies)
    span = max(worst, 1.0)
    ordering_ok = bool(np.all(diffs >= -1e-10 * span))
    return VariationalSolution(
        theta=sol.theta,
        alpha_roots=sol.alpha_roots,
        alpha_selected=al_sel,
        energies=tuple(energies),
        residuals=sol.residuals,
        ordering_ok=ordering_ok,
    )
