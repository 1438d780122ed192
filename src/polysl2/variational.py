"""Smooth su(2)-coherent-state approximation of block spectra.

The trial state is a basis state rotated by R(r) = exp(r (Y- - Y+)); its
energy is E(v, r) = (R^T H R)_vv of the real tridiagonal block Hamiltonian.
The rotated lowest state is an su(2) coherent state (Perelomov, 1986) whose
energy H(p, q), shared with the mean field of polysl2.dynamics, is a
Bernstein sum over the ladder rungs (CoherentEnergy): well conditioned
(Farouki & Rajan, CAGD 4, 191, 1987) and, by scaled Horner, finite at any
block size.  solve_alpha finds every root alpha = -tan r of -dH/dp on the
meridian p = j cos 2r, their count certified, so every mean-field fixed
point there, and picks one by the closed-form E(0, r).  In
variational_spectra blocks with the same off-diagonal, a and |g|, such as
the three-boson twins (k, m, +) and (k, m, -), share one scan, and a block
at the size and angle of the block before it that block's rotation: R's
columns are the eigenvectors of T(r) = cos 2r Y0 + sin 2r Jx, one
eigh_tridiagonal for all levels, checked against polysl2.reference.  Each
function takes the block's one TridiagonalHamiltonian; a and g come from
the params it keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .algebra import su2_eigenbasis, su2_ladder
from .solver import TridiagonalHamiltonian

__all__ = [
    "CoherentEnergy", "VariationalSolution", "energy_functional",
    "solve_alpha", "variational_spectra", "variational_spectrum",
]

ALPHA_WIDTH = 1e-14  # refined roots are bracketed this tightly in alpha
NORM_SLACK = 1e-12  # round-off allowed on |E| <= norm bound
_POLE = math.tan(math.pi / 2)  # alpha at r = -pi/2, s = 1: the float pole
_NARROW = 2.0**-40  # an uncertified piece this narrow in s refuses the block
_CELLS = 2**18  # products per chunk of the Bernstein square: its working set
_OVERFLOW = "the coherent-state sum overflows the float range"


@dataclass(frozen=True)
class VariationalSolution:
    """Stationary points and per-level energies for one block.

    theta is the coupling phase (fixed, not searched).  alpha_roots holds
    every stationary point, ascending; residuals the slope dE(0, r)/dr at
    each, over the norm bound.  alpha_selected minimizes the v=0 energy
    among them.  energies has one entry per level; ordering_ok flags whether
    they came out ascending (a violation indicates root misselection).
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


def _level_energies(diag: np.ndarray, off: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """E(v, r) = (R^T H R)_vv for every level v, rot = su2_eigenbasis(d, r):
    E is quadratic in each column of R, so their signs are never fixed."""
    hr = diag[:, None] * rot
    hr[:-1] += off[:, None] * rot[1:]
    hr[1:] += off[:, None] * rot[:-1]
    return np.einsum("fv,fv->v", rot, hr)


def energy_functional(tri: TridiagonalHamiltonian, v: int, r: float) -> float:
    """Trial-state energy E(v, r) of block level v at rotation angle r.

    R(r) = exp(r (Y- - Y+)) is the float64 spin-j rotation; the coupling
    phase drops out.  The hypergeometric form of E cancels heavily, so it is
    only a reference (polysl2.reference).  R(0) = I, so E is the diagonal
    entry exactly; R(+-pi/2) reverses the levels, up to round-off.
    """
    if not 0 <= v < tri.dim:
        raise ValueError("level index outside block")
    return float(_level_energies(tri.diag, tri.offdiag, su2_eigenbasis(tri.dim, r))[v])


def _horner_table(beta, dbeta):
    """Steps (coefficients, binomial ratios) of _horner, in chunks of 490."""
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
    phase; A is exact.  Q and dQ/ds come from one scaled Horner pass, O(d)
    and finite at any block size (_horner runs it for the scan); a sum past
    the float range raises RuntimeError.  evaluate, built once per block, is
    a closure over floats and both Horner tables, and __call__ runs it.
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
                    # a NaN skips the rescale, as in the tests' reference
                    # array pass, where frexp gives it the exponent 0
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
                bq, dbq = _unscale(bq, dbq, exp2)
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


def _unscale(q, dq, exp2):
    """q 2^exp2 and dq 2^exp2; a sum beyond the float range raises RuntimeError."""
    try:
        return math.ldexp(q, exp2), math.ldexp(dq, exp2)
    except OverflowError:
        raise RuntimeError(_OVERFLOW) from None


def _horner(table, small, big):
    """Both sums of a _horner_table at small <= big: CoherentEnergy's pass."""
    q, dq, chunks, last = table
    power, exp2 = 1.0, 0
    for k, chunk in enumerate(chunks):
        if k:  # rescale by a power of two before each chunk after the first
            e = math.frexp(max(power, abs(q), abs(dq)))[1]
            power, q, dq = math.ldexp(power, -e), math.ldexp(q, -e), math.ldexp(dq, -e)
            exp2 += e
        for b, rb, db, rdb in chunk:
            power *= big
            q = power * b + small * rb * q
            dq = power * db + small * rdb * dq
    if last is not None:
        q = power * big * last[0] + small * last[1] * q
    return _unscale(q, dq, exp2) if exp2 else (q, dq)


def _square(g: np.ndarray) -> np.ndarray:
    """Bernstein coefficients (degree 2n) of G^2 from those of G (degree n).

    Terms i and j weigh C(n, i) C(n, j) / C(2n, i + j) <= 1, the exp of
    log-binomials, in range at any n; rows are summed _CELLS at a time.
    """
    n = g.size - 1
    lf = np.zeros(2 * n + 1)  # log k!
    np.cumsum(np.log(np.arange(1.0, 2 * n + 1)), out=lf[1:])
    lc, lc2 = lf[n] - lf[: n + 1] - lf[n::-1], lf[-1] - lf - lf[::-1]
    out = np.zeros(2 * n + 1)
    rows = max(1, _CELLS // (n + 1))
    for i0 in range(0, n + 1, rows):
        i = np.arange(i0, min(i0 + rows, n + 1))
        k = i[:, None] + np.arange(n + 1)
        terms = np.outer(g[i], g) * np.exp(lc[i, None] + lc - lc2[k])
        out += np.bincount(k.ravel(), terms.ravel(), minlength=2 * n + 1)
    return out


def _variations(b: np.ndarray) -> int:
    """Sign changes of the nonzero Bernstein coefficients b: at least the
    roots in the open interval, by an even number (Descartes)."""
    neg = b[b != 0.0] < 0.0
    return int(np.count_nonzero(neg[1:] != neg[:-1]))


def _split(b: np.ndarray, t: float):
    """Bernstein coefficients on [0, t] and [t, 1]: de Casteljau in O(b) memory."""
    left, right = [b[0]], [b[-1]]
    for _ in range(b.size - 1):
        b = b[:-1] + t * (b[1:] - b[:-1])
        left.append(b[0])
        right.append(b[-1])
    return np.array(left), np.array(right[::-1])


def _refine(slope, lo: float, f_lo: float, hi: float) -> float:
    """The root of F between alpha = lo, where F = f_lo, and hi (other sign).

    Newton steps in alpha, each shrinking the bracket; one that leaves it
    or is not half the move before gives way to halving the angle atan
    alpha.  A step under ALPHA_WIDTH / 2 goes a quarter of ALPHA_WIDTH (or
    two ulps) further, past the root, to close the bracket from both sides.
    """
    neg, last = f_lo < 0.0, math.inf
    x = math.tan(0.5 * (math.atan(lo) + math.atan(hi)))
    while True:
        f, df = slope(x)
        if f == 0.0:
            return x
        lo, hi = (x, hi) if (f < 0.0) == neg else (lo, x)
        if abs(hi - lo) <= ALPHA_WIDTH:
            break
        step = -f / df if df else math.inf
        if abs(step) < 0.5 * ALPHA_WIDTH:
            step += math.copysign(max(0.25 * ALPHA_WIDTH, 2 * math.ulp(x)), step)
        y = x + step
        if not min(lo, hi) < y < max(lo, hi) or abs(step) > 0.5 * last:
            y = math.tan(0.5 * (math.atan(lo) + math.atan(hi)))
            if not min(lo, hi) < y < max(lo, hi):
                break  # no float inside: the bracket stops shrinking
        last, x = abs(y - x), y
    return 0.5 * (lo + hi)


class _Stationarity:
    """The stationarity function F of one scan key, on Python floats.

    With n = d - 1, r = -atan(alpha), s = sin^2 r, c = cos^2 r, theta = 2r,
    F = (a/|g|) alpha c + G(s) = -kappa sin theta + G(s), kappa = a/(2|g|),
    G = ((c - s) Q + 2 s c Q') / (|g| n) of degree n, with Q, Q' = dQ/ds
    those of CoherentEnergy: F = -dE(0, r)/dr / (2|g|n) = (alpha c / |g|)
    (-dH/dp) at p = j cos 2r, with E(0, r) = diag_0 + a n s + 2 alpha c Q(s),
    and F is polysl2.reference.stationarity_residual / (1 + alpha^2)^n
    times a positive constant.
    """

    def __init__(self, offdiag: np.ndarray, a: float, g_mod: float):
        n = self.n = offdiag.size
        beta = offdiag * n / su2_ladder(n + 1)
        k = np.arange(n + 1.0)
        up, down = np.zeros(n + 1), np.zeros(n + 1)  # beta_k and beta_(k-1)
        up[:-1] = down[1:] = beta
        self.g = (2 * k + 1) * (n - k) * up - (2 * (n - k) + 1) * k * down
        self.g /= n * n * g_mod
        dg, self.ratio = n * np.diff(self.g), a / g_mod
        if not (np.isfinite(dg).all() and math.isfinite(self.ratio)):
            raise RuntimeError(_OVERFLOW)
        gl, dgl, bl, zeros = self.g.tolist(), dg.tolist(), beta.tolist(), [0.0] * n
        self._g = _horner_table(gl, dgl), _horner_table(gl[::-1], dgl[::-1])
        self._q = _horner_table(bl, zeros), _horner_table(bl[::-1], zeros)

    def meridian(self, alpha: float, sums="_g"):
        """G(s), G'(s) (or Q(s), 0 with sums "_q"), c, s; in the smaller of s, c."""
        c = 1.0 / (1.0 + alpha * alpha)
        s = alpha * alpha * c
        fwd, rev = getattr(self, sums)
        return (*(_horner(fwd, s, c) if s <= c else _horner(rev, c, s)), c, s)

    def slope(self, alpha: float):
        """F and dF/dalpha = c (2 kappa (c - s) + 2 alpha c G'(s)) at alpha."""
        gs, dgs, c, s = self.meridian(alpha)
        f = self.ratio * alpha * c + gs
        if not -math.inf < f < math.inf:
            raise RuntimeError(_OVERFLOW)
        return f, c * (self.ratio * (c - s) + 2.0 * alpha * c * dgs)

    def poly(self) -> np.ndarray:
        """Bernstein coefficients of G at a = 0, else of P (see solve_alpha)."""
        if self.ratio == 0.0:
            return self.g
        top = max(float(np.max(np.abs(self.g))), abs(0.5 * self.ratio))  # scale
        kappa, m = 0.5 * self.ratio / top, 2 * self.n
        j = np.arange(m + 1.0)
        return _square(self.g / top) - 4 * kappa * kappa * j * (m - j) / (m * (m - 1))


def _scan(offdiag: np.ndarray, a: float, g_mod: float):
    """Every stationary alpha of one scan key, and F, c, s and Q(s) there."""
    stat = _Stationarity(offdiag, a, g_mod)
    ratio, poly = stat.ratio, stat.poly()
    mirror = ratio == 0.0  # F is even in alpha: each root of G gives +-alpha
    if not poly.any():
        raise RuntimeError("the stationarity function vanishes identically")
    # ends[s]: alpha >= 0 at s, F(alpha) and F(-alpha).  An exact zero of P at
    # s = 0 or 1 is a root (alpha = 0 or the pole), where F counts as 0, so
    # that no bracket ends on it
    ends = {0.0: (0.0, 0.0, 0.0), 1.0: (_POLE, 0.0, 0.0)}
    ends = {s: ends[s] for s, p in ((0.0, poly[0]), (1.0, poly[-1])) if p == 0.0}
    roots = [alpha for alpha, *_ in ends.values()]
    brackets, todo = [], [(0.0, 1.0, poly)]
    while todo:
        u, v, b = todo.pop()
        bound = _variations(b)
        if not bound:
            continue
        for s in u, v:
            if s not in ends:
                alpha = math.sqrt(s / (1.0 - s)) if s < 1.0 else _POLE
                gs, _, c, _ = stat.meridian(alpha)
                ends[s] = alpha, gs + ratio * alpha * c, gs - ratio * alpha * c
        (au, *fu), (av, *fv) = ends[u], ends[v]
        found = [
            (sign * au, f0, sign * av)
            for sign, f0, f1 in zip((1.0, -1.0), fu, fv)
            if f0 < 0.0 < f1 or f1 < 0.0 < f0
        ][: 2 - mirror]
        if len(found) == bound:
            brackets += found
            continue
        for t in (0.5, 0.4375, 0.5625):  # a split on a root of P moves
            left, right = _split(b, t)
            if left[-1] != 0.0:
                break
        if v - u < _NARROW or left[-1] == 0.0:
            raise RuntimeError(
                f"stationary points not certified: the Bernstein bound stays "
                f"at {bound} where the stationarity function brackets {len(found)}"
            )
        todo += [(u + t * (v - u), v, right), (u, u + t * (v - u), left)]
    for lo, f_lo, hi in brackets:
        x = _refine(stat.slope, lo, f_lo, hi)
        roots += (-x, x) if mirror else (x,)
    if not roots:
        raise RuntimeError("no stationary point found")
    scan = []
    for x in sorted(roots):
        gs, _, c, s = stat.meridian(x)
        scan.append((x, ratio * x * c + gs, c, s, stat.meridian(x, "_q")[0]))
    return tuple(np.array(col) for col in zip(*scan))


def _choose(tri: TridiagonalHamiltonian, scan):
    """solve_alpha of tri from its _scan result (None on one level or at g = 0),
    or the error it raises."""
    params = tri.params
    if tri.dim == 1:
        return VariationalSolution(params.g_phase, (0.0,), 0.0, (), (0.0,))
    if params.g_mod == 0:
        return ValueError("variational phase undefined at g = 0")
    if isinstance(scan, RuntimeError):
        return scan
    roots, f, c, s, bq = scan
    n = tri.dim - 1
    residuals = -2.0 * params.g_mod * n * f / tri.norm_bound()
    ground = tri.diag[0] + params.a * n * s + 2.0 * roots * c * bq
    alpha_roots, residuals = tuple(roots.tolist()), tuple(residuals.tolist())
    selected = alpha_roots[int(np.argmin(ground))]
    return VariationalSolution(params.g_phase, alpha_roots, selected, (), residuals)


def _solve_alphas(tris: list) -> list:
    """_choose of each Hamiltonian; every scan runs first, one per key: all it
    reads, the bytes of the float64 off-diagonal and of np.float64([a, |g|])
    (bit patterns keep -0.0 and 0.0 apart)."""
    keys = [
        (np.float64(tri.offdiag).tobytes(), np.float64([p.a, p.g_mod]).tobytes())
        if tri.dim > 1 and p.g_mod != 0
        else None
        for tri, p in ((tri, tri.params) for tri in tris)
    ]
    scans = {}
    for key in dict.fromkeys(key for key in keys if key is not None):
        try:
            scans[key] = _scan(np.frombuffer(key[0]), *np.frombuffer(key[1]).tolist())
        except RuntimeError as exc:
            scans[key] = exc
    return [_choose(tri, scans.get(key)) for tri, key in zip(tris, keys)]


def solve_alpha(tri: TridiagonalHamiltonian) -> VariationalSolution:
    """Locate all stationary alpha of tri and select the one of lowest E(v=0).

    On s = sin^2 r, F = -kappa sin theta + G(s) (see _Stationarity) with
    sin theta = +-2 sqrt(s (1 - s)), so its roots are those in [0, 1] of
    P(s) = G^2 - 4 kappa^2 s (1 - s), each on the half-circle (sign of
    alpha) where F changes sign; at a = 0, those of G, each a pair +-alpha.
    The sign changes of P's Bernstein coefficients bound its roots in an
    interval (Descartes; Lane & Riesenfeld, BIT 21, 112, 1981).  De
    Casteljau halving splits [0, 1] until on each piece the bound equals the
    number of half-circles on which F changes sign between its ends, so each
    root is found and bracketed alone; a piece still uncertified when
    _NARROW wide refuses the block with RuntimeError, as do sums past the
    float range.  Exact zeros of P at s = 0 and 1 are the roots alpha = 0
    and the pole tan(pi/2).  Each bracket is refined (_refine) until it is
    ALPHA_WIDTH wide in alpha or cannot shrink in floating point, and its
    midpoint is the root.  residuals holds dE(0, r)/dr / norm_bound at each
    root, which is -2|g|n F / norm_bound.

    F reads only the off-diagonal, a and |g|: in variational_spectra, blocks
    with the same three share one scan, with the same bytes, and nothing is
    kept from one call to the next.  The selected root minimizes the
    closed-form E(0, r) = diag_0 + a n s + 2 alpha c Q(s), the first of equal
    minima winning: O(d) per root, and the v=0 energy is a Rayleigh
    quotient, so this branch is variationally controlled.  A single-level
    block has no rotation freedom: its one root and selected alpha are 0 and
    its residual 0, whatever g.  Otherwise g = 0 leaves the phase undefined
    and raises ValueError.  The energies are filled in by variational_spectrum.
    """
    [sol] = _solve_alphas([tri])
    if isinstance(sol, Exception):
        raise sol
    return sol


def _with_energies(tri: TridiagonalHamiltonian, sol: VariationalSolution, rot):
    """sol with the energies of all levels at its angle, rotated by rot."""
    energies = _level_energies(tri.diag, tri.offdiag, rot).tolist()
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

    Every scan runs before the first solution is yielded (see solve_alpha).
    A block of the previous block's size and angle (bytes of r), such as
    the second of two adjacent twins, reuses its su2_eigenbasis, so at most
    one rotation is alive; each forms its energies from its own diagonal.
    The rest of a block's work runs at its turn, where a failing block
    raises: the error is the first in order.
    """
    tris = list(tris)
    last = rot = None
    for tri, sol in zip(tris, _solve_alphas(tris)):
        if isinstance(sol, Exception):
            raise sol
        at = (tri.dim, sol.r_selected.hex())
        if at != last:
            last, rot = at, None  # the old rotation goes before the new one
            rot = su2_eigenbasis(tri.dim, sol.r_selected)
        yield _with_energies(tri, sol, rot)


def variational_spectrum(tri: TridiagonalHamiltonian) -> VariationalSolution:
    """Approximate spectrum of tri at the angle solve_alpha selects.

    One rotation evaluates all levels there (a single level: the identity).
    An energy beyond the norm bound (with NORM_SLACK for round-off) is no
    Rayleigh quotient and raises RuntimeError.  The batch of one of
    variational_spectra.
    """
    return next(variational_spectra([tri]))
