"""Smooth su(2)-coherent-state approximation of block spectra.

The trial state is a basis state rotated by the spin-j rotation
R(r) = exp(r (Y- - Y+)); its energy is the diagonal entry
E(v, r) = (R^T H R)_vv of the real tridiagonal block Hamiltonian.

The rotated lowest state is an su(2) coherent state (Perelomov, 1986) whose
energy H(p, q), shared with the mean field of polysl2.dynamics, is a
Bernstein sum over the ladder rungs (CoherentEnergy): well conditioned
(Farouki & Rajan, CAGD 4, 191, 1987) and, by scaled Horner, finite at any
block size.  solve_alpha scans -dH/dp along the real meridian p = j cos 2r,
so its roots alpha = -tan r are mean-field fixed points, and picks one by
the closed-form E(0, r); it alone decides the angle, a single level
included.  The scan reads only the off-diagonal, a and |g|, and a
one-entry memo keyed on their bytes keeps its last result, so twin blocks
(k, m, +) and (k, m, -), whose Hamiltonians differ by a constant on the
diagonal and which enumerate_blocks lists one after the other, share one
scan.  variational_spectrum then gives the block one rotation: R's
columns are the eigenvectors of T(r) = cos 2r Y0 + sin 2r Jx, one
eigh_tridiagonal for all levels, checked against the exact overlaps of
polysl2.reference.  Each function takes the block's one
TridiagonalHamiltonian, and a and g come from the params it keeps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import su2_eigenbasis, su2_ladder
from .solver import HamiltonianParams, TridiagonalHamiltonian

__all__ = [
    "CoherentEnergy",
    "VariationalSolution",
    "energy_functional",
    "solve_alpha",
    "variational_spectrum",
]

GRID_POINTS = 4001
ALPHA_WIDTH = 1e-14  # refined roots are bracketed this tightly in alpha
SECTIONS = 64  # subintervals per bracket and refinement pass
NORM_SLACK = 1e-12  # round-off allowed on |E| <= norm bound

# the scan grid alpha = tan r, r even over [-pi/2, pi/2], and the section points
_GRID = np.tan(np.linspace(-math.pi / 2, math.pi / 2, GRID_POINTS))
_FRAC = np.linspace(0.0, 1.0, SECTIONS + 1)
_GRID.flags.writeable = _FRAC.flags.writeable = False


@dataclass(frozen=True)
class VariationalSolution:
    """Stationary points and per-level energies for one block.

    theta is the coupling phase (fixed, not searched).  alpha_roots holds
    every stationary point found by the scan, in ascending order;
    residuals holds the exact slope dE(0, r)/dr at each of them, divided by
    the Hamiltonian's norm bound.  alpha_selected minimizes the v=0 energy
    among them (solve_alpha decides it).  energies has one entry per block
    level.  ordering_ok flags whether the selected-root energies came out
    ascending; a violation indicates root misselection.
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
    rot = su2_eigenbasis(diag.size, r)
    hr = diag[:, None] * rot
    hr[:-1] += off[:, None] * rot[1:]
    hr[1:] += off[:, None] * rot[:-1]
    return np.einsum("fv,fv->v", rot, hr)


def energy_functional(tri: TridiagonalHamiltonian, v: int, r: float) -> float:
    """Trial-state energy E(v, r) of block level v at rotation angle r.

    E = (R^T H R)_vv with R(r) = exp(r (Y- - Y+)) the float64 spin-j
    rotation and H = tri.  The coupling phase drops out.  The
    hypergeometric form of E cancels heavily, so it serves only as a
    reference (polysl2.reference).  R(0) = I, so E is the diagonal entry
    exactly; R(+-pi/2) reverses the levels, so E is diag[d - 1 - v] up to
    round-off.
    """
    if not 0 <= v < tri.dim:
        raise ValueError("level index outside block")
    return float(_level_energies(tri.diag, tri.offdiag, r)[v])


def _horner_table(beta, dbeta):
    """Steps of CoherentEnergy._sums (coefficients, binomial ratios); None rescales."""
    n1 = len(beta) - 1
    steps = [
        (beta[v - 1], (n1 - v + 1) / v, dbeta[v - 2], (n1 - v + 1) / (v - 1))
        for v in range(n1, 1, -1)
    ]
    for at in range(490 * ((len(steps) - 1) // 490), 0, -490):
        steps.insert(at, None)
    if n1 == 0:
        return beta[0], 0.0, steps, None
    return beta[-1], dbeta[-1], steps, (beta[0], n1)


class CoherentEnergy:
    """Closed-form H(p, q) = <z(p,q)| H |z(p,q)> and its gradient on one block.

    The su(2) coherent state has the binomial amplitudes
    z_v = sqrt(C(n, v)) c^((n-v)/2) s^(v/2) exp(-i v q) with
    c = (1 + p/j)/2, s = 1 - c and n = 2j, so on the tridiagonal H

        H(p, q) = A(s) + B(s) cos(q + phi),
        A(s) = diag_0 + (diag_1 - diag_0) n s,
        B(s) = 2 sqrt(c s) Q(s),
        Q(s) = sum_v beta_v C(n-1, v) s^v c^(n-1-v),

    with beta_v = offdiag_v n / sqrt((n - v)(v + 1)) and phi the coupling
    phase.  The diagonal is linear in v, so A is exact.  Q and dQ/ds are
    Bernstein sums evaluated together in one scaled Horner pass: O(d) per
    evaluation, finite at any block size.
    """

    def __init__(self, tri):
        n = tri.dim - 1
        self.n = n
        self.j = 0.5 * n
        self.phase = float(tri.params.g_phase)
        self.diag0 = float(tri.diag[0])
        self.slope = float(tri.diag[1] - tri.diag[0]) if n else 0.0
        if n:
            beta = tri.offdiag * n / su2_ladder(n + 1)
            dbeta = (n - 1) * np.diff(beta)
            beta, dbeta = beta.tolist(), dbeta.tolist()
            self._fwd = _horner_table(beta, dbeta)
            self._rev = _horner_table(beta[::-1], dbeta[::-1])

    @staticmethod
    def _sums(small, big, table):
        """Bernstein sums of Q and dQ/ds, coefficients ordered by powers of small.

        small and big are floats or equal-shape arrays.  Horner runs in the
        ratio small/big <= 1, each partial sum kept times the matching power
        of big >= 1/2.  The largest of power, |Q| (a sum of positive terms)
        and |dQ| falls by at most about 2^-490 in 490 steps, so at each None
        of the table all three are rescaled by the power of two that brings
        it into [1/2, 1): nothing underflows or overflows.  Float inputs
        give floats back.
        """
        q, dq, steps, last = table
        power, exp2 = 1.0, None
        for step in steps:
            if step is None:
                top = np.maximum(np.maximum(power, np.abs(q)), np.abs(dq))
                e = np.frexp(top)[1]
                power, q, dq = (np.ldexp(x, -e) for x in (power, q, dq))
                if not np.ndim(e):  # numpy scalars are slower than floats
                    power, q, dq, e = float(power), float(q), float(dq), int(e)
                exp2 = e if exp2 is None else exp2 + e
                continue
            b, rb, db, rdb = step
            power *= big
            q = power * b + small * rb * q
            dq = power * db + small * rdb * dq
        if last is not None:  # Q has one more term than dQ
            b, rb = last
            q = power * big * b + small * rb * q
        if exp2 is not None:
            scale = np.ldexp if np.ndim(exp2) else math.ldexp
            q, dq = scale(q, exp2), scale(dq, exp2)
        return q, dq

    def meridian(self, alpha: np.ndarray):
        """c = cos^2 r, s = sin^2 r, Q(s) and dQ/ds at r = -atan(alpha).

        Each sum runs in the smaller of s and c (reversed where s > c).
        """
        c = 1.0 / (1.0 + alpha * alpha)
        s = alpha * alpha * c
        lo = s <= c
        groups = (lo, s, c, self._fwd), (~lo, c, s, self._rev)
        for pick, small, big, table in groups:
            if pick.all():  # one group needs no masks
                return (c, s, *self._sums(small, big, table))
        bq, dbq = np.empty_like(c), np.empty_like(c)
        for pick, small, big, table in groups:  # both groups are nonempty
            bq[pick], dbq[pick] = self._sums(small[pick], big[pick], table)
        return c, s, bq, dbq

    def __call__(self, p: float, q: float):
        """H, dH/dp and dH/dq at (p, q); |p| > j is evaluated at the pole."""
        if self.n == 0:
            return self.diag0, 0.0, 0.0
        x = min(1.0, max(-1.0, p / self.j))
        s = 0.5 - 0.5 * x
        c = 0.5 + 0.5 * x
        if s <= c:
            bq, dbq = self._sums(s, c, self._fwd)
        else:
            bq, dbq = self._sums(c, s, self._rev)
        root = math.sqrt(s * c)
        # dB/ds; the sqrt(c s) derivative diverges on the pole, where q is
        # undefined, and is taken as 0 there
        db = 2.0 * root * dbq
        if root > 0.0:
            db += (c - s) / root * bq
        ang = q + self.phase
        cos_a = math.cos(ang)
        b = 2.0 * root * bq
        energy = self.diag0 + self.slope * self.n * s + b * cos_a
        dhdp = -self.slope - db * cos_a / self.n
        return energy, dhdp, -b * math.sin(ang)


def _slope(params, n, alpha, c, s, bq, dbq):
    """F(alpha), the ground-state slope, from the coherent meridian there.

    With n = d - 1, r = -atan(alpha), s = sin^2 r, c = cos^2 r and Q, Q'
    = dQ/ds the Bernstein sums of the block's CoherentEnergy.meridian,

        F = (a/|g|) alpha c + ((c - s) Q + 2 s c Q') / (|g| n).

    The rotated lowest state has E(0, r) = diag_0 + a n s + 2 alpha c Q(s),
    and F = -dE(0, r)/dr / (2|g|n) = (alpha c / |g|) (-dH/dp) at
    p = j cos 2r, cos(q + phi) = sign alpha: its roots are mean-field fixed
    points.  F is polysl2.reference.stationarity_residual divided by
    (1 + alpha^2)^n times a positive constant: both share their roots.
    """
    ratio = params.a / params.g_mod
    return ratio * alpha * c + ((c - s) * bq + 2.0 * s * c * dbq) / (params.g_mod * n)


def _stationarity(energy: CoherentEnergy, params):
    """F of _slope on the block of energy, at a float array of alpha."""
    return lambda alpha: _slope(params, energy.n, alpha, *energy.meridian(alpha))


@functools.lru_cache(maxsize=1)
def _scan(offdiag: bytes, a_g: bytes):
    """Stationary alpha of one block, and F, c, s and Q(s) at each of them.

    The key is all the scan reads: the bytes of the block's float64
    off-diagonal and of np.float64([a, |g|]).  The scan rebuilds its inputs
    from them, so it cannot see the diagonal, bit patterns keep -0.0 and
    0.0 apart, and the key fixes the block size.  The one entry holds O(d)
    bytes and read-only arrays: roots and, from one meridian pass there,
    F, c, s and Q.  See solve_alpha for the scan itself.
    """
    off = np.frombuffer(offdiag)
    params = HamiltonianParams(*np.frombuffer(a_g).tolist())
    # zeros stand in for the diagonal, which neither F nor Q reads
    tri = TridiagonalHamiltonian(np.zeros(off.size + 1), off, params)
    energy = CoherentEnergy(tri)
    stationarity = _stationarity(energy, params)
    xs = _GRID
    ys = stationarity(xs)
    exact = ys == 0.0
    y0, y1 = ys[:-1], ys[1:]
    brackets = np.nonzero((y0 != 0.0) & (y1 != 0.0) & ((y0 > 0.0) != (y1 > 0.0)))[0]
    lo, hi, neg = xs[brackets], xs[brackets + 1], y0[brackets] < 0.0
    # a bracket keeps the sign of F at its left end, so each pass keeps the
    # first subinterval whose right end has the other sign (a zero counts
    # as positive); a bracket leaves once it is ALPHA_WIDTH wide or stops
    # shrinking in floating point
    active = np.nonzero(hi - lo > ALPHA_WIDTH)[0]
    while active.size:
        a, b = lo[active], hi[active]
        pts = np.minimum(a[:, None] + (b - a)[:, None] * _FRAC, b[:, None])
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
    c, s, bq, dbq = energy.meridian(roots)
    f = _slope(params, energy.n, roots, c, s, bq, dbq)
    scan = tuple(map(np.asarray, (roots, f, c, s, bq)))
    for x in scan:  # Q is a 0-d array on two levels
        x.flags.writeable = False
    return scan


def solve_alpha(tri: TridiagonalHamiltonian) -> VariationalSolution:
    """Locate all stationary alpha of tri and select the one of lowest E(v=0).

    The scan runs on GRID_POINTS angles spaced evenly in r = -atan(alpha)
    over the closed interval [-pi/2, pi/2], so it covers every alpha with
    no root bound: the stationarity function F (see _slope) is a
    bounded Bernstein mean there.  Grid zeros are roots; every sign change
    is refined, all brackets together as arrays, by SECTIONS-fold
    sectioning until it is ALPHA_WIDTH wide in alpha or cannot be split in
    floating point, and its midpoint is the root.  residuals holds
    dE(0, r)/dr / norm_bound at each root, which is -2|g|n F / norm_bound.
    A grid on which F has neither a zero nor a sign change raises
    RuntimeError.

    F reads only the off-diagonal, a and |g|, so the scan (_scan) keeps its
    last result in a one-entry memo keyed on their bytes.  The twins
    (k, m, +) and (k, m, -) of a three-boson model have the same
    off-diagonal and a, and enumerate_blocks lists the minus twin right
    after the plus twin: the second reuses the first one's scan.  The
    diagonal and the norm bound enter only the root choice and the
    residuals, per block.

    The selected root minimizes the closed-form coherent energy
    E(0, r) = diag_0 + a n s + 2 alpha c Q(s) of _slope, the first
    of equal minima winning: O(d) per root, and the v=0 energy is a
    Rayleigh quotient, so this branch is variationally controlled.  A
    single-level block has no rotation freedom: its one root and selected
    alpha are 0 and its residual 0, whatever g.  Otherwise g = 0 leaves the
    phase undefined and raises ValueError.  The energies are filled in by
    variational_spectrum.
    """
    params = tri.params
    if tri.dim == 1:
        return VariationalSolution(
            theta=params.g_phase,
            alpha_roots=(0.0,),
            alpha_selected=0.0,
            energies=(),
            residuals=(0.0,),
        )
    if params.g_mod == 0:
        raise ValueError("variational phase undefined at g = 0")
    roots, f, c, s, bq = _scan(
        np.asarray(tri.offdiag, dtype=np.float64).tobytes(),
        np.float64([params.a, params.g_mod]).tobytes(),
    )
    n = tri.dim - 1
    residuals = -2.0 * params.g_mod * n * f / tri.norm_bound()
    ground = tri.diag[0] + params.a * n * s + 2.0 * roots * c * bq
    alpha_roots = tuple(roots.tolist())
    return VariationalSolution(
        theta=params.g_phase,
        alpha_roots=alpha_roots,
        alpha_selected=alpha_roots[int(np.argmin(ground))],
        energies=(),
        residuals=tuple(residuals.tolist()),
    )


def variational_spectrum(tri: TridiagonalHamiltonian) -> VariationalSolution:
    """Approximate spectrum of tri at the angle solve_alpha selects.

    One rotation evaluates all levels there; a single level takes the
    identity, so its energy is the diagonal entry exactly.  An energy
    beyond the Hamiltonian's norm bound (with NORM_SLACK for round-off)
    cannot be a Rayleigh quotient and raises RuntimeError.
    """
    sol = solve_alpha(tri)
    energies = _level_energies(tri.diag, tri.offdiag, sol.r_selected).tolist()
    bound = tri.norm_bound()
    worst = float(np.max(np.abs(energies)))
    if not worst <= bound * (1.0 + NORM_SLACK):
        raise RuntimeError(
            f"variational energy {worst:.6e} in magnitude exceeds the "
            f"norm bound {bound:.6e}"
        )
    ordering_ok = bool(np.all(np.diff(energies) >= -1e-10 * max(worst, 1.0)))
    return replace(sol, energies=tuple(energies), ordering_ok=ordering_ok)
