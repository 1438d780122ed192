"""Time evolution, Rabi signals, collapse/revival detection, mean field.

Quantum evolution is spectral: blocks evolve independently under their own
eigendecompositions, so unitarity is exact up to the eigensolve.  The Rabi
signal <N_3(t)> is a sum over the Bohr frequencies E_f' - E_f of every
block, evaluated on the whole time grid by one Gaussian-gridded non-uniform
FFT with an error of about 1e-12 of the signal's size.  Each block first
drops its negligible Bohr terms, of total amplitude at most _PRUNE
max|occ| times its squared norm; the sum of these dropped totals bounds
the pruning error at every time (RabiResult.prune_bound).  The mean
field side integrates the canonical equations on the (p, q) chart of the
su(2) coherent manifold.  The coherent state has binomial amplitudes
(Perelomov, Generalized Coherent States and Their Applications, 1986), so
its energy and both partial derivatives are the closed-form O(d) sums of
polysl2.variational, whose scan finds this flow's fixed points on the real
meridian: no eigensolve, no difference step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import Block, StructureFunction
from .solver import Spectrum, build_hamiltonian, eigensolve
from .three_boson import (
    BlockLabel,
    CoherentInput,
    ThreeBosonParams,
    block_constants,
    build_model_block,
    coherent_block_weights,
    coherent_tail_deficit,
    fock_to_block,
    project_coherent,
)
from .variational import _CoherentEnergy

__all__ = [
    "Signal",
    "RabiResult",
    "CollapseReport",
    "IncommensurabilityReport",
    "MeanFieldTrajectory",
    "evolve_block",
    "observable_n3",
    "rabi_signal",
    "fock_signal",
    "detect_collapse_revival",
    "incommensurability_measure",
    "meanfield_trajectory",
]

# blocks below this squared-norm weight cannot move any plotted digit
WEIGHT_FLOOR = 1e-18
# a coherent input losing more probability than this to the cube truncation
# is flagged (deficit_ok False) and warned about
DEFICIT_BOUND = 1e-6
# fractions of the initial envelope: a collapse stays below COLLAPSE_FRAC,
# a revival peaks above REVIVAL_FRAC
COLLAPSE_FRAC = 0.1
REVIVAL_FRAC = 0.5
# the envelope window spans WINDOW_PERIODS carrier periods; a collapse holds
# for PERSIST consecutive window positions
WINDOW_PERIODS = 5.0
PERSIST = 5
# half-width, in fine-grid points, of the Gaussian kernel that spreads the
# Bohr terms of the Rabi signal: at 12 a Fock run's n3(0) is 1.6e-12 off
_KERNEL_W = 16
# Bohr terms spread onto the fine grid per batch, bounding the working set;
# blocks hand over a few hundred terms each, so batches span many blocks
_BATCH = 2**13
# a block drops Bohr terms of total amplitude at most _PRUNE max|occ| times
# its squared norm (_evolve_grid): well inside the NUFFT's 1e-12
_PRUNE = 1e-13


@dataclass(frozen=True)
class Signal:
    """Real-valued samples on a uniform time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")

    def __len__(self) -> int:
        return len(self.times)


def evolve_block(spectrum: Spectrum, c0, t: float) -> np.ndarray:
    """Amplitudes at time t under the block spectral propagator (hbar = 1)."""
    cr = spectrum.coefficients(c0)
    return spectrum.amplitudes @ (np.exp(-1j * spectrum.energies * t) * cr)


def _grid_step(times: np.ndarray) -> float:
    """Spacing of a uniform grid; 0 for grids of fewer than two samples."""
    n = len(times)
    return (times[-1] - times[0]) / (n - 1) if n > 1 else 0.0


def _fine_grid_size(n: int) -> int:
    """Power of two at least 2 n and 4 _KERNEL_W (a radix-2 FFT length)."""
    return 1 << (max(2 * n, 4 * _KERNEL_W) - 1).bit_length()


def _evolve_grid(spectrum: Spectrum, c0, times: np.ndarray, occ: np.ndarray):
    """Bohr terms of the block contribution sum_v occ_v |c_v(t)|^2, pruned.

    With c(t) = conj(D) Q exp(-i E t) cr, Q = spectrum.vectors real, D the
    diagonal gauge and cr = spectrum.coefficients(c0), the contribution is
    the Hermitian sum sum_{f,f'} A_ff' exp(-i w_ff' t), w_ff' = E_f' - E_f,
    with A = (conj(cr) cr^T) o (Q^T diag(occ) Q): D drops out of |c_v|^2.
    On the grid t_k = t_0 + k dt the contribution is
    sum_f A_ff + 2 Re sum_{f<f'} A_ff' exp(-i w_ff' t_k).

    Terms whose amplitudes sum to at most the budget
    b = _PRUNE max|occ| sum_f |cr_f|^2 are dropped; b is known before A is
    formed.  Row f of Q^T diag(occ) Q has 2-norm at most max|occ| (Q is
    orthogonal), so sum_f' |A_ff'| <= |cr_f| |cr| max|occ| by
    Cauchy-Schwarz: levels of smallest |cr_f| leave first, while
    2 |cr| max|occ| times the sum of their |cr_f| stays within b / 2, and
    Q^T diag(occ) Q is formed on the kept columns only.  Then the terms of
    smallest |2 A_ff'| leave while the dropped total stays within b.  A
    dropped term moves the contribution by at most its |2 A_ff'| at every
    t, so the dropped total bounds the pruning error over the whole grid.
    Nothing is pruned unless b and every position and phase are finite,
    and a non-finite amplitude is never dropped: it reaches the signal.

    Returned are sum_f A_ff over the kept levels, the position of each kept
    term f < f' on the fine grid of _fine_grid_size(len(times)) cells
    (w dt in units of 2 pi / cells, taken modulo the cells), its amplitude
    2 A_ff' with the phase at t_0 and the mode-centring phase of
    _bohr_signal folded in, and the dropped total.  The grid must be
    uniform (_uniform_times checks it); on a grid with one sample or
    dt = 0 every position is 0 and only the t_0 phase is folded in.
    """
    n = len(times)
    cells = _fine_grid_size(n)
    energies = spectrum.energies
    cr = spectrum.coefficients(c0)
    mag = np.abs(cr)
    weight = float(mag @ mag)
    top = float(np.max(np.abs(occ)))
    scale = float(_grid_step(times)) * cells / (2.0 * math.pi)
    t0 = float(times[0]) if n else 0.0
    span = float(energies[-1]) - float(energies[0])  # eigh sorts them
    budget = _PRUNE * top * weight
    if not all(map(math.isfinite, (budget, span * scale, span * t0))):
        budget = -math.inf  # prune nothing
    order = np.argsort(mag)
    bound = (2.0 * top * math.sqrt(weight)) * np.cumsum(mag[order])
    cut = int(np.searchsorted(bound, 0.5 * budget, side="right"))
    dropped = float(bound[cut - 1]) if cut else 0.0
    keep = np.sort(order[cut:])
    q, cr, energies = spectrum.vectors[:, keep], cr[keep], energies[keep]
    a = (cr.conj()[:, None] * cr) * (q.T @ (occ[:, None] * q))
    lo, hi = np.triu_indices(len(cr), 1)
    amp = 2.0 * a[lo, hi]
    size = np.abs(amp)
    order = np.argsort(size)  # inf and NaN sort last, and their sums exceed b
    total = np.cumsum(size[order])
    cut = int(np.searchsorted(total, budget - dropped, side="right"))
    if cut:
        dropped += float(total[cut - 1])
        keep = np.sort(order[cut:])
        lo, hi, amp = lo[keep], hi[keep], amp[keep]
    omega = energies[hi] - energies[lo]
    pos = np.mod(omega * scale, cells)
    # (n // 2) * pos modulo the cells, with the integer part taken exactly
    base = np.floor(pos)
    centre = np.mod((n // 2) * base, cells) + (n // 2) * (pos - base)
    phase = omega * t0 + (2.0 * math.pi / cells) * centre
    return float(np.trace(a).real), pos, amp * np.exp(-1j * phase), dropped


def _bohr_signal(terms, times: np.ndarray) -> np.ndarray:
    """sum_f A_ff + 2 Re sum_{f<f'} A_ff' exp(-i w_ff' t) over all blocks.

    terms yields the constant, positions and amplitudes of each block, as
    _evolve_grid returns them.  The Bohr sum is a type-1 non-uniform FFT
    S_k = sum_j F_j exp(-i k x_j), evaluated by Gaussian gridding (Dutt &
    Rokhlin, SIAM J. Sci. Comput. 14, 1368 (1993); Greengard & Lee, SIAM
    Rev. 46, 443 (2004)): each term is
    spread over the 2 _KERNEL_W nearest cells of a fine periodic grid with
    the Gaussian exp(-(x - x_j)^2 / (4 tau)), one FFT gives the Fourier
    coefficients of the smoothed sum, and dividing out the Gaussian's
    transform sqrt(tau / pi) exp(-k^2 tau) leaves S_k.  The modes are
    centred, k = -(n // 2) ... n - 1 - n // 2, which keeps that division
    below exp(pi _KERNEL_W / 6); the shift is the centring phase in F_j.
    Terms are spread in batches of about _BATCH as the blocks arrive, so
    the working set stays bounded; a pruned block hands over a few hundred
    terms, too few to spread on their own.  Grids with one sample or
    dt = 0 take the direct sum at t_0.
    """
    n = len(times)
    if n <= 1 or _grid_step(times) == 0.0:
        total = 0.0
        for constant, _, amp in terms:
            total += constant + float(np.sum(amp.real))
        return np.full(n, total)
    cells = _fine_grid_size(n)
    ratio = cells / n
    # Greengard & Lee's tau, written as beta = h^2 / (4 tau) for cell width h
    beta = math.pi * (ratio - 0.5) / (ratio * _KERNEL_W)
    tau = (math.pi / cells) ** 2 / beta
    grid = np.zeros(cells, dtype=complex)

    def spread(held):
        pos = np.concatenate([p for p, _ in held])
        amp = np.concatenate([a for _, a in held])
        for s in range(0, len(pos), _BATCH):
            base = np.floor(pos[s : s + _BATCH])
            frac = pos[s : s + _BATCH] - base
            base = base.astype(np.intp)
            for off in range(1 - _KERNEL_W, _KERNEL_W + 1):
                kernel = np.exp(-beta * (frac - off) ** 2)
                idx = (base + off) & (cells - 1)
                np.add.at(grid, idx, amp[s : s + _BATCH] * kernel)

    constant, held, count = 0.0, [], 0
    for c, pos, amp in terms:
        constant += c
        held.append((pos, amp))
        count += len(pos)
        if count >= _BATCH:
            spread(held)
            held, count = [], 0
    if held:
        spread(held)
    coeffs = np.fft.fft(grid, out=grid)
    k = np.arange(n) - n // 2
    scale = math.sqrt(math.pi / tau) / cells
    return constant + (scale * np.exp(tau * k * k) * coeffs[k % cells]).real


def observable_n3(label: BlockLabel, amplitudes) -> float:
    """Mode-3 occupation sum_v |c_v|^2 (m - v) on the labeled block."""
    prob = np.abs(np.asarray(amplitudes)) ** 2
    v = np.arange(len(prob))
    return float(np.sum(prob * (label.m - v)))


@dataclass(frozen=True)
class RabiResult:
    signal: Signal
    tail_deficit: float
    deficit_ok: bool
    block_weights: dict
    dominant_label: BlockLabel | None
    dominant_spectrum: Spectrum | None
    # certified bound on max_t |signal - unpruned signal| (_evolve_grid)
    prune_bound: float


def _uniform_times(times) -> np.ndarray:
    """times as a float array, or ValueError unless finite and uniform.

    Uniform means every t_i lies within 1e-12 max|t| of
    t_0 + i (t_last - t_0)/(n - 1); grids of 0 or 1 samples are uniform.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    n = len(times)
    if n > 2:
        grid = times[0] + np.arange(n) * _grid_step(times)
        if np.max(np.abs(times - grid)) > 1e-12 * np.max(np.abs(times)):
            raise ValueError("times must be a uniform grid")
    return times


def _block_signals(projections, params: ThreeBosonParams, times, deficit, ok):
    """RabiResult summed over (label, weight, c0) block projections.

    Each block is solved once and its pruned Bohr terms go to _bohr_signal
    as it is solved; the first block of largest weight is the dominant one,
    and prune_bound is the sum of the blocks' dropped totals.
    """
    weights = {}
    best, dominant, spectrum, pruned = -1.0, None, None, 0.0

    def terms():
        nonlocal best, dominant, spectrum, pruned
        for label, w, c0 in projections:
            weights[label.block_id] = w
            block, psi = build_model_block(label)
            tri = build_hamiltonian(block, psi, block_constants(label, params))
            spec = eigensolve(tri)
            occ = label.m - np.arange(block.dim, dtype=float)
            if w > best:
                best, dominant, spectrum = w, label, spec
            constant, pos, amp, dropped = _evolve_grid(spec, c0, times, occ)
            pruned += dropped
            yield constant, pos, amp

    values = _bohr_signal(terms(), times)
    return RabiResult(
        signal=Signal(times=times, values=values),
        tail_deficit=deficit,
        deficit_ok=ok,
        block_weights=weights,
        dominant_label=dominant,
        dominant_spectrum=spectrum,
        prune_bound=pruned,
    )


def rabi_signal(
    inp: CoherentInput, params: ThreeBosonParams, times
) -> RabiResult:
    """Total <N_3(t)> of a cube-truncated coherent state.

    All block weights come from one pass over the mode distributions
    (coherent_block_weights).  Only blocks of weight at least WEIGHT_FLOOR
    are projected, solved, evolved by their own spectra and summed, in
    enumerate_blocks order, which is also the key order of block_weights.
    dominant_label and dominant_spectrum belong to the first block of
    largest weight (None if no block is kept).  The probability lost to the
    cube truncation is reported as tail_deficit (coherent_tail_deficit);
    deficit_ok goes False (with a warning) when it exceeds DEFICIT_BOUND.
    prune_bound bounds, at every time, the signal's distance from the sum
    of all Bohr terms (see _evolve_grid).  times must be finite and
    uniform, else ValueError; grids of 0 or 1 samples are allowed.
    """
    times = _uniform_times(times)
    deficit = coherent_tail_deficit(inp)
    ok = deficit <= DEFICIT_BOUND
    if not ok:
        alphas = (inp.alpha1, inp.alpha2, inp.alpha3)
        occupations = ", ".join(f"{abs(a) * abs(a):.3g}" for a in alphas)
        warnings.warn(
            f"coherent tail deficit {deficit:.3e} exceeds bound "
            f"{DEFICIT_BOUND:.1e}: mean occupations ({occupations}) "
            f"against the cube n_i <= ncut = {inp.ncut}",
            stacklevel=2,
        )
    projections = (
        (label, w, project_coherent(inp, label))
        for label, w in coherent_block_weights(inp, WEIGHT_FLOOR)
    )
    return _block_signals(projections, params, times, deficit, ok)


def fock_signal(fock, params: ThreeBosonParams, times) -> RabiResult:
    """<N_3(t)> of the Fock state |n1, n2, n3>: one block of weight 1.

    Same contract as rabi_signal; nothing is truncated, so tail_deficit is 0.
    """
    times = _uniform_times(times)
    label, v = fock_to_block(*fock)
    c0 = np.zeros(label.dim, dtype=complex)
    c0[v] = 1.0
    return _block_signals([(label, 1.0, c0)], params, times, 0.0, True)


@dataclass(frozen=True)
class CollapseReport:
    oscillating: bool
    carrier_frequency: float
    window: float
    initial_envelope: float
    collapse_time: float | None = None
    revival_times: tuple = ()
    envelope: Signal | None = None


def detect_collapse_revival(signal: Signal) -> CollapseReport:
    """Locate collapse and revivals of an oscillating signal.

    The envelope is the sliding RMS of the mean-subtracted signal over a
    window of WINDOW_PERIODS carrier periods, the carrier being the
    dominant discrete-spectrum peak.  A collapse is the first time the
    envelope stays below COLLAPSE_FRAC of its initial value for PERSIST
    consecutive window positions; each later run of positions above
    REVIVAL_FRAC of the initial value is a revival, timed at its envelope
    peak.  The times must not decrease, else ValueError; a grid of equal
    times gives the non-oscillating report.
    """
    n = len(signal)
    if n < 1000:
        raise ValueError("need at least 1000 samples")
    t = np.asarray(signal.times, dtype=float)
    dt = t[1] - t[0]
    if dt < 0:
        raise ValueError("times must not decrease")
    y = np.asarray(signal.values, dtype=float)
    y0 = y - y.mean()
    amp = float(np.max(np.abs(y0)))
    no_osc = CollapseReport(False, math.nan, math.nan, 0.0)
    if dt == 0 or amp <= 1e-12 * max(1.0, abs(float(y.mean()))):
        return no_osc
    power = np.abs(np.fft.rfft(y0))
    power[0] = 0.0
    kpk = int(np.argmax(power))
    if kpk == 0 or power[kpk] == 0.0:
        return no_osc
    omega = 2.0 * math.pi * kpk / (n * dt)
    period = 2.0 * math.pi / omega
    w = max(int(round(WINDOW_PERIODS * period / dt)), 2)
    if w >= n:
        return CollapseReport(True, omega, w * dt, float(np.sqrt(np.mean(y0**2))))
    sq = np.concatenate(([0.0], np.cumsum(y0**2)))
    env = np.sqrt((sq[w:] - sq[:-w]) / w)
    env_t = t[: n - w + 1]
    env0 = float(env[0])
    # window positions that start PERSIST consecutive positions below threshold
    below = env < COLLAPSE_FRAC * env0
    runs = np.convolve(below, np.ones(PERSIST), "valid") == PERSIST
    collapse_time = None
    revivals = []
    if runs.any():
        first = int(np.argmax(runs))
        collapse_time = float(env_t[first])
        # [start, end) of each run of positions above REVIVAL_FRAC after it
        high = env[first + 1 :] > REVIVAL_FRAC * env0
        edges = np.flatnonzero(np.diff(high, prepend=False, append=False))
        for lo, hi in (edges.reshape(-1, 2) + first + 1).tolist():
            revivals.append(float(env_t[lo + np.argmax(env[lo:hi])]))
    return CollapseReport(
        oscillating=True,
        carrier_frequency=omega,
        window=w * dt,
        initial_envelope=env0,
        collapse_time=collapse_time,
        revival_times=tuple(revivals),
        envelope=Signal(times=env_t, values=env),
    )


@dataclass(frozen=True)
class IncommensurabilityReport:
    min_distance: float
    ratio: float
    pair_index: int
    p: int
    q: int


def incommensurability_measure(energies, qmax: int = 8) -> IncommensurabilityReport:
    """Distance of consecutive-spacing ratios from small rationals.

    A small min_distance means neighbouring Bohr frequencies are nearly
    commensurable (periodic beats); a large one signals the spectral
    anharmonicity responsible for irregular evolution.
    """
    if qmax < 1:
        raise ValueError("qmax must be positive")
    e = np.sort(np.asarray(energies, dtype=float))
    scale = max(e[-1] - e[0], 1.0) if len(e) else 1.0
    keep = [e[0]] if len(e) else []
    for x in e[1:]:
        if x - keep[-1] > 1e-9 * scale:
            keep.append(x)
    if len(keep) < 3:
        raise ValueError("need at least 3 distinct energies")
    sp = np.diff(keep)
    rho = (sp[1:] / sp[:-1])[:, None]
    q = np.arange(1, qmax + 1)
    # |p/q - rho| over all (pair, q) in one array, p = rint(rho q): rint
    # rounds half to even like round(), and the row-major argmin keeps the
    # first (pair, q) of least distance
    dist = rho * q
    np.rint(dist, out=dist)
    dist /= q
    dist -= rho
    np.abs(dist, out=dist)
    i, k = divmod(int(np.argmin(dist)), qmax)
    return IncommensurabilityReport(
        min_distance=float(dist[i, k]),
        ratio=float(rho[i, 0]),
        pair_index=i,
        p=int(np.rint(rho[i, 0] * (k + 1))),
        q=k + 1,
    )


@dataclass(frozen=True)
class MeanFieldTrajectory:
    times: np.ndarray
    p: np.ndarray
    q: np.ndarray
    energy: np.ndarray
    clamped: bool


def meanfield_trajectory(
    block: Block,
    psi: StructureFunction,
    params,
    p0: float,
    q0: float,
    tspan: float,
    dt: float,
) -> MeanFieldTrajectory:
    """Classic 4th-order integration of dq/dt = dH/dp, dp/dt = -dH/dq.

    H(p, q) and both partial derivatives come in closed form from the
    binomial amplitudes of the su(2) coherent state, so the forces are
    exact.  Stages with |p| > j are evaluated at p = +-j.  On the pole q is
    undefined, the q-dependent part of dH/dp is taken as 0 there, and a
    state on the pole stays on it while q precesses at a finite rate.  If
    |p| leaves the chart after a step it is clamped back to the pole with
    a warning.  Non-finite p0, q0, tspan or dt raise ValueError.
    """
    for name, val in (("p0", p0), ("q0", q0), ("tspan", tspan), ("dt", dt)):
        if not math.isfinite(val):
            raise ValueError(f"{name} must be finite")
    j = block.j
    if abs(p0) > j:
        raise ValueError("initial |p| exceeds j")
    if dt <= 0:
        raise ValueError("dt must be positive")
    energy = _CoherentEnergy(build_hamiltonian(block, psi, params))
    nsteps = max(1, int(round(abs(tspan) / dt)))
    step = tspan / nsteps
    half = 0.5 * step
    clamped = False

    p, q = float(p0), float(q0)
    e, dhdp, dhdq = energy(p, q)
    ps, qs, es = [p], [q], [e]
    for _ in range(nsteps):
        k1p, k1q = -dhdq, dhdp
        _, dhdp, dhdq = energy(p + half * k1p, q + half * k1q)
        k2p, k2q = -dhdq, dhdp
        _, dhdp, dhdq = energy(p + half * k2p, q + half * k2q)
        k3p, k3q = -dhdq, dhdp
        _, dhdp, dhdq = energy(p + step * k3p, q + step * k3q)
        p += step / 6.0 * (k1p + 2 * k2p + 2 * k3p - dhdq)
        q += step / 6.0 * (k1q + 2 * k2q + 2 * k3q + dhdp)
        if abs(p) > j:
            p = math.copysign(j, p)
            if not clamped:
                warnings.warn(
                    "mean-field p clamped at the chart boundary |p| = j",
                    stacklevel=2,
                )
            clamped = True
        e, dhdp, dhdq = energy(p, q)
        ps.append(p)
        qs.append(q)
        es.append(e)
    times = np.arange(nsteps + 1) * step
    return MeanFieldTrajectory(
        times=times,
        p=np.array(ps),
        q=np.array(qs),
        energy=np.array(es),
        clamped=clamped,
    )
