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
included.  The scan reads only the off-diagonal, a and |g|, so
variational_spectra scans a list of Hamiltonians together: the blocks of
one size share one grid pass and one sectioning loop (_Meridians), and
blocks with the same off-diagonal, a and |g| share one scan, such as the
three-boson twins (k, m, +) and (k, m, -), whose Hamiltonians differ by a
constant on the diagonal.  Each block then gets one rotation: R's columns
are the eigenvectors of T(r) = cos 2r Y0 + sin 2r Jx, one
eigh_tridiagonal for all levels, checked against the exact overlaps of
polysl2.reference; bit-equal Hamiltonians share it.  solve_alpha and
variational_spectrum are the batch of one.  Each function takes the
block's one TridiagonalHamiltonian, and a and g come from the params it
keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .algebra import su2_eigenbasis, su2_ladder
from .solver import TridiagonalHamiltonian

__all__ = [
    "CoherentEnergy",
    "VariationalSolution",
    "energy_functional",
    "solve_alpha",
    "variational_spectra",
    "variational_spectrum",
]

GRID_POINTS = 4001
ALPHA_WIDTH = 1e-14  # refined roots are bracketed this tightly in alpha
SECTIONS = 64  # subintervals per bracket and refinement pass
NORM_SLACK = 1e-12  # round-off allowed on |E| <= norm bound
# block-angle cells of one grid pass: a scan group holds at most
# _SCAN_CELLS // GRID_POINTS blocks, which bounds its working set
_SCAN_CELLS = 2**17

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
    """Steps of _sums (coefficients, binomial ratios), in chunks of up to 490.

    beta and dbeta are lists of floats, or arrays whose rows hold one
    coefficient of several same-size blocks: each coefficient of the
    table is then a vector with one entry per block.
    """
    n1 = len(beta) - 1
    steps = [
        (beta[v - 1], (n1 - v + 1) / v, dbeta[v - 2], (n1 - v + 1) / (v - 1))
        for v in range(n1, 1, -1)
    ]
    chunks = [steps[at : at + 490] for at in range(0, len(steps) or 1, 490)]
    if n1 == 0:
        return beta[0], 0.0, chunks, None
    return beta[-1], dbeta[-1], chunks, (beta[0], n1)


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
    evaluation, finite at any block size.  evaluate is built once per block,
    a closure over floats and both Horner tables, and __call__ runs it.  It
    is the only float path: its pass is that of _sums, the same float
    operations in the same order, so both give the same bytes.
    """

    def __init__(self, tri):
        n = tri.dim - 1
        self.j = 0.5 * n
        diag0 = float(tri.diag[0])
        if not n:
            self.evaluate = lambda p, q: (diag0, 0.0, 0.0)
            return
        slope = float(tri.diag[1] - tri.diag[0])
        j, phase, rise = self.j, float(tri.params.g_phase), slope * n
        beta = tri.offdiag * n / su2_ladder(n + 1)
        dbeta = (n - 1) * np.diff(beta)
        beta, dbeta = beta.tolist(), dbeta.tolist()
        fwd, rev = (
            (q0, dq0, chunks[0], chunks[1:], last or (None, None))
            for q0, dq0, chunks, last in (
                _horner_table(beta, dbeta),
                _horner_table(beta[::-1], dbeta[::-1]),
            )
        )
        sqrt, cos, sin, frexp, ldexp = (
            math.sqrt, math.cos, math.sin, math.frexp, math.ldexp
        )

        def evaluate(p, q):
            x = p / j  # min(1, max(-1, x)) by comparisons: NaN gives -1
            x = x if -1.0 < x < 1.0 else 1.0 if x >= 1.0 else -1.0
            s, c = 0.5 - 0.5 * x, 0.5 + 0.5 * x
            if s <= c:
                small, big, (bq, dbq, first, rest, (lb, lrb)) = s, c, fwd
            else:
                small, big, (bq, dbq, first, rest, (lb, lrb)) = c, s, rev
            power, exp2 = 1.0, 0
            for b, rb, db, rdb in first:  # the whole table below 492 levels
                power *= big
                bq = power * b + small * rb * bq
                dbq = power * db + small * rdb * dbq
            if rest:  # a loop skipped costs less than an empty one
                for chunk in rest:
                    # as in _sums, where np.maximum keeps a NaN and frexp
                    # gives it the exponent 0, a NaN skips the rescale
                    if bq == bq and dbq == dbq:
                        e = frexp(max(power, abs(bq), abs(dbq)))[1]
                        power, bq, dbq = ldexp(power, -e), ldexp(bq, -e), ldexp(dbq, -e)
                        exp2 += e
                    for b, rb, db, rdb in chunk:
                        power *= big
                        bq = power * b + small * rb * bq
                        dbq = power * db + small * rdb * dbq
            if lb is not None:  # Q has one more term than dQ
                bq = power * big * lb + small * lrb * bq
            if exp2:
                bq, dbq = ldexp(bq, exp2), ldexp(dbq, exp2)
            root = sqrt(s * c)
            twice = 2.0 * root
            # dB/ds; the sqrt(c s) derivative diverges on the pole, where q is
            # undefined, and is taken as 0 there
            db = twice * dbq
            if root > 0.0:
                db += (c - s) / root * bq
            ang = q + phase
            cos_a = cos(ang)
            b = twice * bq
            return diag0 + rise * s + b * cos_a, -slope - db * cos_a / n, -b * sin(ang)

        self.evaluate = evaluate

    def __call__(self, p: float, q: float):
        """H, dH/dp, dH/dq at (p, q); |p| > j is taken at the pole, p = NaN at -j."""
        return self.evaluate(p, q)


def _sums(small, big, table, rows):
    """Bernstein sums of Q and dQ/ds, coefficients ordered by powers of small.

    The array path of _Meridians: small and big are equal-shape arrays,
    and each coefficient vector of the table is indexed by rows as the
    pass reaches it, so the indexed table never exists whole; on two
    levels dQ/ds is the float 0.  Horner runs in the ratio small/big <= 1,
    each partial sum kept times the matching power of big >= 1/2.  The
    largest of power, |Q| (a sum of positive terms) and |dQ| falls by at
    most about 2^-490 in 490 steps, so before each later chunk of the
    table all three are rescaled by the power of two that brings it into
    [1/2, 1): nothing underflows or overflows.
    """
    q, dq, chunks, last = table
    q, dq = q[rows], dq[rows] if np.ndim(dq) else dq
    power, exp2 = 1.0, None
    for k, chunk in enumerate(chunks):
        if k:
            top = np.maximum(np.maximum(power, np.abs(q)), np.abs(dq))
            e = np.frexp(top)[1]
            power, q, dq = (np.ldexp(x, -e) for x in (power, q, dq))
            exp2 = e if exp2 is None else exp2 + e
        for b, rb, db, rdb in chunk:
            power *= big
            q = power * b[rows] + small * rb * q
            dq = power * db[rows] + small * rdb * dq
    if last is not None:  # Q has one more term than dQ
        q = power * big * last[0][rows] + small * last[1] * q
    if exp2 is not None:
        q, dq = np.ldexp(q, exp2), np.ldexp(dq, exp2)
    return q, dq


class _Meridians:
    """The stationarity function F of several same-size blocks.

    The Horner tables are CoherentEnergy's, with one coefficient vector
    (an entry per block) in place of each float.  Every point is computed
    elementwise by the same operations, in the same order, as on one
    block, so a block's bytes do not depend on the others.
    """

    def __init__(self, offdiag: np.ndarray, a_g: np.ndarray):
        """offdiag: (blocks, n) float64 off-diagonals; a_g: (blocks, 2) a and |g|."""
        n = offdiag.shape[1]
        self.n = n
        beta = offdiag.T * n / su2_ladder(n + 1)[:, None]
        dbeta = (n - 1) * np.diff(beta, axis=0)
        self._fwd = _horner_table(beta, dbeta)
        self._rev = _horner_table(beta[::-1], dbeta[::-1])
        self._ratio = a_g[:, 0] / a_g[:, 1]
        self._g_mod = a_g[:, 1]

    def meridian(self, alpha: np.ndarray, owner: np.ndarray | None = None):
        """c = cos^2 r, s = sin^2 r, Q(s) and dQ/ds at r = -atan(alpha).

        Without owner every block is evaluated at every alpha, a row per
        block, and the powers of c and s and the binomial ratios are
        shared by all rows; with it, alpha[i] is evaluated on block
        owner[i].  Each sum runs in the smaller of s and c (reversed where
        s > c).
        """
        c = 1.0 / (1.0 + alpha * alpha)
        s = alpha * alpha * c
        lo = s <= c
        shape = (self._g_mod.size, alpha.size) if owner is None else alpha.shape
        bq, dbq = np.empty(shape), np.empty(shape)
        for pick, small, big, table in (lo, s, c, self._fwd), (~lo, c, s, self._rev):
            if not pick.any():
                continue
            if owner is None:
                rows, at = np.s_[:, None], np.s_[:, pick]
            else:
                rows, at = owner[pick], pick
            bq[at], dbq[at] = _sums(small[pick], big[pick], table, rows)
        return c, s, bq, dbq

    def slope(self, alpha, owner, c, s, bq, dbq):
        """F(alpha), the ground-state slope, from the meridian there.

        With n = d - 1, r = -atan(alpha), s = sin^2 r, c = cos^2 r and Q, Q'
        = dQ/ds the Bernstein sums of meridian,

            F = (a/|g|) alpha c + ((c - s) Q + 2 s c Q') / (|g| n).

        The rotated lowest state has E(0, r) = diag_0 + a n s + 2 alpha c Q(s),
        and F = -dE(0, r)/dr / (2|g|n) = (alpha c / |g|) (-dH/dp) at
        p = j cos 2r, cos(q + phi) = sign alpha: its roots are mean-field
        fixed points.  F is polysl2.reference.stationarity_residual divided
        by (1 + alpha^2)^n times a positive constant: both share their roots.
        """
        rows = np.s_[:, None] if owner is None else owner
        ratio, g_mod = self._ratio[rows], self._g_mod[rows]
        return ratio * alpha * c + ((c - s) * bq + 2.0 * s * c * dbq) / (g_mod * self.n)

    def stationarity(self, alpha: np.ndarray, owner: np.ndarray | None = None):
        """F at alpha; owner as in meridian."""
        return self.slope(alpha, owner, *self.meridian(alpha, owner))


def _scan(group: _Meridians) -> list:
    """Stationary alpha of each block of group, and F, c, s and Q(s) there.

    A block without one gets a RuntimeError in place of its arrays.  See
    solve_alpha for the scan itself.
    """
    xs = _GRID
    ys = group.stationarity(xs)
    exact = ys == 0.0
    y0, y1 = ys[:, :-1], ys[:, 1:]
    owner, cell = np.nonzero((y0 != 0.0) & (y1 != 0.0) & ((y0 > 0.0) != (y1 > 0.0)))
    lo, hi, neg = xs[cell], xs[cell + 1], y0[owner, cell] < 0.0
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
        inner = np.repeat(owner[active], SECTIONS - 1)
        vals = group.stationarity(pts[:, 1:-1].ravel(), inner)
        change[:, :-1] = (vals < 0.0).reshape(-1, SECTIONS - 1) != neg[active, None]
        k = np.argmax(change, axis=1)
        rows = np.arange(active.size)
        lo[active], hi[active] = pts[rows, k], pts[rows, k + 1]
        width = hi[active] - lo[active]
        active = active[(width < b - a) & (width > ALPHA_WIDTH)]
    # each block's roots in grid order: exact grid zeros and refined
    # brackets interleave
    zero_owner, zero_at = np.nonzero(exact)
    found = np.concatenate([zero_owner, owner])
    order = np.lexsort((np.concatenate([zero_at, cell]), found))
    roots = np.concatenate([xs[zero_at], 0.5 * (lo + hi)])[order]
    found = found[order]
    c, s, bq, dbq = group.meridian(roots, found)
    f = group.slope(roots, found, c, s, bq, dbq)
    ends = np.cumsum(np.bincount(found, minlength=len(ys)))[:-1]
    scans = list(zip(*(np.split(x, ends) for x in (roots, f, c, s, bq))))
    for i, scan in enumerate(scans):
        if not scan[0].size:
            scans[i] = RuntimeError(
                "no stationary point on the scan grid; stationarity function at "
                f"alpha = -inf and +inf: {ys[i, 0]:.6e}, {ys[i, -1]:.6e}"
            )
    return scans


def _scan_all(keys) -> dict:
    """The _scan result of each distinct scan key, same-size blocks together.

    A key is all the scan reads: the bytes of a block's float64
    off-diagonal and of np.float64([a, |g|]); bit patterns keep -0.0 and
    0.0 apart, and the key fixes the block size.  Blocks of one size are
    scanned in groups of at most _SCAN_CELLS // GRID_POINTS.
    """
    by_size = {}
    for key in keys:
        by_size.setdefault(len(key[0]), []).append(key)
    per_group = max(1, _SCAN_CELLS // GRID_POINTS)
    scans = {}
    for same in by_size.values():
        for start in range(0, len(same), per_group):
            group = same[start : start + per_group]
            offdiag, a_g = (
                np.frombuffer(b"".join(part)).reshape(len(group), -1)
                for part in zip(*group)
            )
            scans.update(zip(group, _scan(_Meridians(offdiag, a_g))))
    return scans


def _choose(tri: TridiagonalHamiltonian, scan) -> VariationalSolution:
    """solve_alpha of tri from its _scan result (None on one level or at g = 0)."""
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
    if isinstance(scan, RuntimeError):
        raise scan
    roots, f, c, s, bq = scan
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


def _solve_alphas(tris: list) -> Iterator[VariationalSolution]:
    """solve_alpha of each Hamiltonian, in order; every scan runs first."""
    keys = [
        (
            np.asarray(tri.offdiag, dtype=np.float64).tobytes(),
            np.float64([tri.params.a, tri.params.g_mod]).tobytes(),
        )
        if tri.dim > 1 and tri.params.g_mod != 0
        else None
        for tri in tris
    ]
    scans = _scan_all(dict.fromkeys(key for key in keys if key is not None))
    for tri, key in zip(tris, keys):
        yield _choose(tri, scans.get(key))


def solve_alpha(tri: TridiagonalHamiltonian) -> VariationalSolution:
    """Locate all stationary alpha of tri and select the one of lowest E(v=0).

    The scan runs on GRID_POINTS angles spaced evenly in r = -atan(alpha)
    over the closed interval [-pi/2, pi/2], so it covers every alpha with
    no root bound: the stationarity function F (see _Meridians.slope) is
    a bounded Bernstein mean there.  Grid zeros are roots; every sign
    change is refined, all brackets together as arrays, by SECTIONS-fold
    sectioning until it is ALPHA_WIDTH wide in alpha or cannot be split in
    floating point, and its midpoint is the root.  residuals holds
    dE(0, r)/dr / norm_bound at each root, which is -2|g|n F / norm_bound.
    A grid on which F has neither a zero nor a sign change raises
    RuntimeError.

    F reads only the off-diagonal, a and |g|.  This is the batch of one:
    variational_spectra scans the blocks of one size together, one grid
    pass and one sectioning loop for all their brackets, and blocks with
    the same off-diagonal, a and |g| share one scan, with the same bytes.
    The twins (k, m, +) and (k, m, -) of a three-boson model are such
    blocks.  Nothing is kept from one call to the next.  The diagonal and
    the norm bound enter only the root choice and the residuals, per
    block.

    The selected root minimizes the closed-form coherent energy
    E(0, r) = diag_0 + a n s + 2 alpha c Q(s) of _Meridians.slope, the
    first of equal minima winning: O(d) per root, and the v=0 energy is a
    Rayleigh quotient, so this branch is variationally controlled.  A
    single-level block has no rotation freedom: its one root and selected
    alpha are 0 and its residual 0, whatever g.  Otherwise g = 0 leaves the
    phase undefined and raises ValueError.  The energies are filled in by
    variational_spectrum.
    """
    return next(_solve_alphas([tri]))


def _with_energies(tri: TridiagonalHamiltonian, sol: VariationalSolution):
    """sol with the energies of all levels at its angle: one rotation."""
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


def variational_spectra(
    tris: Iterable[TridiagonalHamiltonian],
) -> Iterator[VariationalSolution]:
    """variational_spectrum of each Hamiltonian, yielded in order.

    Every scan runs before the first solution is yielded (see
    solve_alpha); bit-equal Hamiltonians (equal TridiagonalHamiltonian.key)
    share one solution, rotation included.  The rest of a block's work
    runs when its turn comes, and a block that fails raises there, so the
    error raised is that of the first failing block in order.
    """
    tris = list(tris)
    keys = [tri.key() for tri in tris]
    # equal keys are bit-equal Hamiltonians, so any one of them stands for all
    chosen = _solve_alphas(list(dict(zip(keys, tris)).values()))
    solved = {}
    for key, tri in zip(keys, tris):
        if key not in solved:
            solved[key] = _with_energies(tri, next(chosen))
        yield solved[key]


def variational_spectrum(tri: TridiagonalHamiltonian) -> VariationalSolution:
    """Approximate spectrum of tri at the angle solve_alpha selects.

    One rotation evaluates all levels there; a single level takes the
    identity, so its energy is the diagonal entry exactly.  An energy
    beyond the Hamiltonian's norm bound (with NORM_SLACK for round-off)
    cannot be a Rayleigh quotient and raises RuntimeError.  This is the
    batch of one of variational_spectra.
    """
    return next(variational_spectra([tri]))
