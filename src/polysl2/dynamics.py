"""Time evolution, Rabi signals, collapse/revival detection, mean field.

Quantum evolution is spectral: blocks evolve independently under their own
eigendecompositions, so unitarity is exact up to the eigensolve.  The Rabi
signal <N_3(t)> is a sum over the Bohr frequencies E_f' - E_f of every
block, evaluated on the whole time grid by one Gaussian-gridded non-uniform
FFT with an error of about 1e-12 of the signal's size.  The mean
field side integrates the canonical equations on the (p, q) chart of the
su(2) coherent manifold.  The coherent state has binomial amplitudes
(Perelomov, Generalized Coherent States and Their Applications, 1986), so
on the tridiagonal block Hamiltonian its energy and both partial
derivatives are closed-form O(d) sums: no eigensolve, no difference step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import Block, StructureFunction, su2_ladder
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
# Bohr terms spread onto the fine grid per batch, bounding the working set
_BATCH = 2**13


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
    """Bohr terms of the block contribution sum_v occ_v |c_v(t)|^2.

    With c(t) = conj(D) Q exp(-i E t) cr, Q = spectrum.vectors real, D the
    diagonal gauge and cr = spectrum.coefficients(c0), the contribution is
    the Hermitian sum sum_{f,f'} A_ff' exp(-i w_ff' t), w_ff' = E_f' - E_f,
    with A = (conj(cr) cr^T) o (Q^T diag(occ) Q): D drops out of |c_v|^2.
    On the grid t_k = t_0 + k dt the contribution is
    sum_f A_ff + 2 Re sum_{f<f'} A_ff' exp(-i w_ff' t_k).  Returned are
    sum_f A_ff, the position of each term f < f' on the fine grid of
    _fine_grid_size(len(times)) cells (w dt in units of 2 pi / cells, taken
    modulo the cells) and its amplitude 2 A_ff' with the phase at t_0 and
    the mode-centring phase of _bohr_signal folded in.  The grid must be
    uniform (_uniform_times checks it); on a grid with one sample or
    dt = 0 every position is 0 and only the t_0 phase is folded in.
    """
    n = len(times)
    cells = _fine_grid_size(n)
    q = spectrum.vectors
    cr = spectrum.coefficients(c0)
    a = (cr.conj()[:, None] * cr) * (q.T @ (occ[:, None] * q))
    lo, hi = np.triu_indices(len(cr), 1)
    omega = spectrum.energies[hi] - spectrum.energies[lo]
    pos = np.mod(omega * (_grid_step(times) * cells / (2.0 * math.pi)), cells)
    # (n // 2) * pos modulo the cells, with the integer part taken exactly
    base = np.floor(pos)
    centre = np.mod((n // 2) * base, cells) + (n // 2) * (pos - base)
    t0 = times[0] if n else 0.0
    phase = omega * t0 + (2.0 * math.pi / cells) * centre
    return float(np.trace(a).real), pos, 2.0 * a[lo, hi] * np.exp(-1j * phase)


def _bohr_signal(terms, times: np.ndarray) -> np.ndarray:
    """sum_f A_ff + 2 Re sum_{f<f'} A_ff' exp(-i w_ff' t) over all blocks.

    terms yields the _evolve_grid output of each block.  The Bohr sum is a
    type-1 non-uniform FFT S_k = sum_j F_j exp(-i k x_j), evaluated by
    Gaussian gridding (Dutt & Rokhlin, SIAM J. Sci. Comput. 14, 1368
    (1993); Greengard & Lee, SIAM Rev. 46, 443 (2004)): each term is
    spread over the 2 _KERNEL_W nearest cells of a fine periodic grid with
    the Gaussian exp(-(x - x_j)^2 / (4 tau)), one FFT gives the Fourier
    coefficients of the smoothed sum, and dividing out the Gaussian's
    transform sqrt(tau / pi) exp(-k^2 tau) leaves S_k.  The modes are
    centred, k = -(n // 2) ... n - 1 - n // 2, which keeps that division
    below exp(pi _KERNEL_W / 6); the shift is the centring phase in F_j.
    Terms are spread in batches of about _BATCH as the blocks arrive, so
    the working set stays bounded.  Grids with one sample or dt = 0 take
    the direct sum at t_0.
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

    Each block is solved once and its Bohr terms go to _bohr_signal as it
    is solved; the first block of largest weight is the dominant one.
    """
    weights = {}
    best, dominant, spectrum = -1.0, None, None

    def terms():
        nonlocal best, dominant, spectrum
        for label, w, c0 in projections:
            weights[label.block_id] = w
            block, psi = build_model_block(label)
            tri = build_hamiltonian(block, psi, block_constants(label, params))
            spec = eigensolve(tri)
            occ = label.m - np.arange(block.dim, dtype=float)
            if w > best:
                best, dominant, spectrum = w, label, spec
            yield _evolve_grid(spec, c0, times, occ)

    values = _bohr_signal(terms(), times)
    return RabiResult(
        signal=Signal(times=times, values=values),
        tail_deficit=deficit,
        deficit_ok=ok,
        block_weights=weights,
        dominant_label=dominant,
        dominant_spectrum=spectrum,
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
    times must be finite and uniform, else ValueError; grids of 0 or 1
    samples are allowed.
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


def _horner_table(beta, dbeta):
    """Per-step coefficients and binomial ratios of _CoherentEnergy._sums."""
    n1 = len(beta) - 1
    steps = tuple(
        (beta[v - 1], (n1 - v + 1) / v, dbeta[v - 2], (n1 - v + 1) / (v - 1))
        for v in range(n1, 1, -1)
    )
    if n1 == 0:
        return beta[0], 0.0, steps, None
    return beta[-1], dbeta[-1], steps, beta[0]


class _CoherentEnergy:
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
    Bernstein sums evaluated together in one scaled Horner pass, so each
    evaluation costs O(d) and stays finite at any block size.
    """

    def __init__(self, tri):
        n = tri.dim - 1
        self.n = n
        self.j = 0.5 * n
        self.phase = float(tri.g_phase)
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

        Horner runs in the ratio small/big <= 1 with each partial sum kept
        multiplied by the matching power of big.  Once that power falls
        below 1e-150 (blocks of several hundred levels), the partial sums
        are rescaled by a power of two at every step, so none of them
        underflows or overflows.
        """
        q, dq, steps, first = table
        power = 1.0
        exp2 = 0
        for b, rb, db, rdb in steps:
            power *= big
            q = power * b + small * rb * q
            dq = power * db + small * rdb * dq
            if power < 1e-150:
                e = math.frexp(max(power, abs(q), abs(dq)))[1]
                power = math.ldexp(power, -e)
                q = math.ldexp(q, -e)
                dq = math.ldexp(dq, -e)
                exp2 += e
        if first is not None:
            q = power * big * first + small * (len(steps) + 1) * q
        return math.ldexp(q, exp2), math.ldexp(dq, exp2)

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
