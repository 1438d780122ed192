"""Time evolution, Rabi signals, collapse/revival detection, mean field.

Quantum evolution is spectral: blocks evolve independently under their own
eigendecompositions, so unitarity is exact up to the eigensolve.  The mean
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

__all__ = [
    "Signal",
    "RabiResult",
    "CollapseReport",
    "IncommensurabilityReport",
    "MeanFieldState",
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
# time samples per propagation chunk of _evolve_grid: the fastest of
# 64..2048 at the README collapse config, one BLAS thread
_CHUNK = 256


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
    c0 = np.asarray(c0, dtype=complex)
    cr = spectrum.amplitudes.conj().T @ c0
    return spectrum.amplitudes @ (np.exp(-1j * spectrum.energies * t) * cr)


def _evolve_grid(
    spectrum: Spectrum, c0, times: np.ndarray, occ: np.ndarray, gauge: np.ndarray
) -> np.ndarray:
    """Block contribution sum_v occ_v |c_v(t)|^2 on a uniform time grid.

    The amplitudes are spectrum.amplitudes = conj(gauge) Q with Q real; the
    gauge is a diagonal phase and drops out of |c_v|^2, so c(t) is formed as
    Q (exp(-i E t) * cr) by a real GEMM on the float view of the complex
    factor.  Time runs in chunks of _CHUNK samples: the phases of a chunk
    are its start phase times one chunk-long base exp(-i E b dt), so the
    d x len(times) phase and amplitude arrays are never built.  The grid
    must be uniform (_uniform_times checks it).
    """
    n = len(times)
    out = np.empty(n)
    if n == 0:
        return out
    vectors = (gauge[:, None] * spectrum.amplitudes).real
    cr = spectrum.amplitudes.conj().T @ np.asarray(c0, dtype=complex)
    energies = spectrum.energies
    dt = (times[-1] - times[0]) / (n - 1) if n > 1 else 0.0
    base = np.exp(-1j * np.outer(energies, np.arange(min(n, _CHUNK)) * dt))
    for s in range(0, n, _CHUNK):
        b = min(_CHUNK, n - s)
        z = (np.exp(-1j * energies * times[s]) * cr)[:, None] * base[:, :b]
        y = vectors @ z.view(float)
        y *= y
        out[s : s + b] = (occ @ y).reshape(b, 2).sum(axis=1)
    return out


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
        grid = times[0] + np.arange(n) * ((times[-1] - times[0]) / (n - 1))
        if np.max(np.abs(times - grid)) > 1e-12 * np.max(np.abs(times)):
            raise ValueError("times must be a uniform grid")
    return times


def _block_signals(projections, params: ThreeBosonParams, times, deficit, ok):
    """RabiResult summed over (label, weight, c0) block projections.

    Each block is solved and evolved once; the first block of largest
    weight is the dominant one.
    """
    values = np.zeros(len(times))
    weights = {}
    best, dominant, spectrum = -1.0, None, None
    for label, w, c0 in projections:
        weights[label.block_id] = w
        block, psi = build_model_block(label)
        tri = build_hamiltonian(block, psi, block_constants(label, params))
        spec = eigensolve(tri)
        occ = label.m - np.arange(block.dim, dtype=float)
        values += _evolve_grid(spec, c0, times, occ, tri.gauge())
        if w > best:
            best, dominant, spectrum = w, label, spec
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
    deficit_ok goes False (with a warning) when it exceeds the bound
    configured on the input.  times must be finite and uniform, else
    ValueError; grids of 0 or 1 samples are allowed.
    """
    times = _uniform_times(times)
    deficit = coherent_tail_deficit(inp)
    ok = deficit <= inp.deficit_bound
    if not ok:
        warnings.warn(
            f"coherent tail deficit {deficit:.3e} exceeds bound "
            f"{inp.deficit_bound:.1e}; raise ncut",
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
    collapse_time: float | None
    revival_times: tuple
    envelope: Signal | None


def detect_collapse_revival(
    signal: Signal,
    window_periods: float = 5.0,
    persist: int = 5,
    collapse_frac: float = 0.1,
    revival_frac: float = 0.5,
) -> CollapseReport:
    """Locate collapse and revivals of an oscillating signal.

    The envelope is the sliding RMS of the mean-subtracted signal over a
    window of window_periods carrier periods, the carrier being the
    dominant discrete-spectrum peak.  A collapse is the first time the
    envelope stays below collapse_frac of its initial value for persist
    consecutive window positions; revivals are later envelope peaks above
    revival_frac of the initial value.  persist must be an integer >= 1,
    window_periods finite and positive, and the times must not decrease,
    else ValueError; a grid of equal times gives the non-oscillating report.
    """
    n = len(signal)
    if n < 1000:
        raise ValueError("need at least 1000 samples")
    integral = isinstance(persist, (int, np.integer)) and not isinstance(persist, bool)
    if not integral or persist < 1:
        raise ValueError("persist must be an integer >= 1")
    if not (math.isfinite(window_periods) and window_periods > 0):
        raise ValueError("window_periods must be finite and positive")
    t = np.asarray(signal.times, dtype=float)
    dt = t[1] - t[0]
    if dt < 0:
        raise ValueError("times must not decrease")
    y = np.asarray(signal.values, dtype=float)
    y0 = y - y.mean()
    amp = float(np.max(np.abs(y0)))
    no_osc = CollapseReport(
        oscillating=False,
        carrier_frequency=math.nan,
        window=math.nan,
        initial_envelope=0.0,
        collapse_time=None,
        revival_times=(),
        envelope=None,
    )
    if dt == 0 or amp <= 1e-12 * max(1.0, abs(float(y.mean()))):
        return no_osc
    power = np.abs(np.fft.rfft(y0))
    power[0] = 0.0
    kpk = int(np.argmax(power))
    if kpk == 0 or power[kpk] == 0.0:
        return no_osc
    omega = 2.0 * math.pi * kpk / (n * dt)
    period = 2.0 * math.pi / omega
    w = int(round(window_periods * period / dt))
    w = max(w, 2)
    if w >= n:
        return CollapseReport(
            oscillating=True,
            carrier_frequency=omega,
            window=w * dt,
            initial_envelope=float(np.sqrt(np.mean(y0**2))),
            collapse_time=None,
            revival_times=(),
            envelope=None,
        )
    sq = np.concatenate(([0.0], np.cumsum(y0**2)))
    env = np.sqrt((sq[w:] - sq[:-w]) / w)
    env_t = t[: n - w + 1]
    env0 = float(env[0])
    collapse_time = None
    collapse_idx = None
    if env0 > 0.0:
        below = env < collapse_frac * env0
        run = 0
        for i, b in enumerate(below):
            run = run + 1 if b else 0
            if run >= persist:
                collapse_idx = i - persist + 1
                collapse_time = float(env_t[collapse_idx])
                break
    revivals = []
    if collapse_idx is not None:
        high = env > revival_frac * env0
        high[: collapse_idx + 1] = False
        i = collapse_idx + 1
        m = len(env)
        while i < m:
            if not high[i]:
                i += 1
                continue
            k = i
            while k < m and high[k]:
                k += 1
            seg = slice(i, k)
            revivals.append(float(env_t[seg][np.argmax(env[seg])]))
            i = k
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
    best = None
    for i in range(len(sp) - 1):
        rho = sp[i + 1] / sp[i]
        for q in range(1, qmax + 1):
            p = round(rho * q)
            dist = abs(rho - p / q)
            if best is None or dist < best[0]:
                best = (dist, rho, i, p, q)
    return IncommensurabilityReport(
        min_distance=float(best[0]),
        ratio=float(best[1]),
        pair_index=int(best[2]),
        p=int(best[3]),
        q=int(best[4]),
    )


@dataclass(frozen=True)
class MeanFieldState:
    """Canonical pair on the coherent manifold: p = j cos(theta), q = phi."""

    p: float
    q: float


@dataclass(frozen=True)
class MeanFieldTrajectory:
    times: np.ndarray
    p: np.ndarray
    q: np.ndarray
    energy: np.ndarray
    clamped: bool

    def states(self):
        return tuple(
            MeanFieldState(p=float(a), q=float(b))
            for a, b in zip(self.p, self.q)
        )


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
            v = np.arange(n, dtype=float)
            beta = tri.offdiag * n / np.sqrt((n - v) * (v + 1))
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
