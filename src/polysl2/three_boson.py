"""Three-wave mixing model: two signal modes coupled to a pump mode.

The interaction g a1+ a2+ a3 + h.c. closes a cubic deformation of sl(2) on
each subspace of fixed N1-N2 and N1+N2+2N3.  Blocks are labeled by the two
conserved numbers read off the lowest Fock state; all fractional spectra
(l0, R2) are kept as exact rationals until they enter float matrices.
"""

from __future__ import annotations

import math
import cmath
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .algebra import Block, StructureFunction
from .solver import HamiltonianParams

__all__ = [
    "ThreeBosonParams",
    "BlockLabel",
    "CoherentInput",
    "psi3_for_block",
    "block_constants",
    "build_model_block",
    "enumerate_blocks",
    "fock_to_block",
    "block_fock_state",
    "project_coherent",
    "coherent_block_weights",
    "coherent_tail_deficit",
]


@dataclass(frozen=True)
class ThreeBosonParams:
    omega1: float
    omega2: float
    omega3: float
    g: complex

    @property
    def detuning(self) -> float:
        return self.omega1 + self.omega2 - self.omega3


@dataclass(frozen=True)
class BlockLabel:
    """Block of the three-boson model.

    k is |N1-N2|, m is the pump occupation of the lowest vector; sign picks
    which signal mode carries the excess (+1 for mode 1, -1 for mode 2) and
    is normalized to +1 when k = 0.  The lowest vector is |k,0,m> or |0,k,m>
    and the tower has dimension m+1.
    """

    k: int
    m: int
    sign: int = 1

    def __post_init__(self):
        if self.k < 0 or self.m < 0:
            raise ValueError("k and m must be nonnegative")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.k == 0 and self.sign != 1:
            object.__setattr__(self, "sign", 1)

    @property
    def dim(self) -> int:
        return self.m + 1

    @property
    def r1(self) -> int:
        """N1 - N2, constant on the block."""
        return self.sign * self.k

    @property
    def r2(self) -> Fraction:
        """(N1 + N2 + 2 N3)/3, constant on the block."""
        return Fraction(self.k + 2 * self.m, 3)

    @property
    def l0(self) -> Fraction:
        """(N1 + N2 - N3)/3 at the lowest vector."""
        return Fraction(self.k - self.m, 3)

    @property
    def block_id(self) -> str:
        if self.k == 0:
            return f"k0_m{self.m}"
        tag = "p" if self.sign > 0 else "m"
        return f"k{self.k}{tag}_m{self.m}"


def psi3_for_block(label: BlockLabel):
    """Cubic structure function of the block, in exact factored form.

    Returns (psi, l0) with psi(x) = -(x - (R1-R2)/2)(x + (R1+R2)/2)(x - R2 - 1)
    and l0 = (k - m)/3, both over rationals.
    """
    r1 = Fraction(label.r1)
    r2 = label.r2
    roots = (
        (r1 - r2) / 2,
        -(r1 + r2) / 2,
        r2 + 1,
    )
    return StructureFunction(leading=Fraction(-1), roots=roots), label.l0


def block_constants(label: BlockLabel, params: ThreeBosonParams) -> HamiltonianParams:
    """Detuning, coupling and additive constant of the block Hamiltonian."""
    w1, w2, w3 = params.omega1, params.omega2, params.omega3
    c = 0.5 * (label.r1 * (w1 - w2) + float(label.r2) * (w1 + w2 + 2 * w3))
    return HamiltonianParams(
        a=params.detuning,
        g_mod=abs(params.g),
        g_phase=cmath.phase(params.g) if params.g != 0 else 0.0,
        constant=c,
    )


def build_model_block(label: BlockLabel) -> tuple[Block, StructureFunction]:
    """Unitary block plus its exact-rational structure function, for the solver.

    psi(l0 + v) = v (k + v) (m + 1 - v) is positive for v = 1..m and zero at
    v = m + 1, so the block is the whole tower of label.dim = m + 1 levels.
    """
    psi, l0 = psi3_for_block(label)
    return Block(float(l0), label.dim), psi


def fock_to_block(n1: int, n2: int, n3: int):
    """Unique (label, v) containing the Fock state |n1,n2,n3>."""
    v = min(n1, n2)
    k = abs(n1 - n2)
    sign = 1 if n1 >= n2 else -1
    label = BlockLabel(k=k, m=n3 + v, sign=sign)
    return label, v


def block_fock_state(label: BlockLabel, v: int):
    """Fock state |n1,n2,n3> at basis position v of the block."""
    if not 0 <= v <= label.m:
        raise ValueError("v outside block")
    if label.sign > 0:
        return (label.k + v, v, label.m - v)
    return (v, label.k + v, label.m - v)


def enumerate_blocks(ncut: int):
    """All block labels whose tower intersects the Fock cube n_i <= ncut.

    A tower (k, m) reaches into the cube iff k <= ncut and k + m <= 2 ncut
    (equivalently m <= ncut when the lowest vector itself is inside).  The
    listing is deterministic: ascending k, then m, plus sign before minus.
    """
    if ncut < 0:
        raise ValueError("ncut must be nonnegative")
    out = []
    for k in range(ncut + 1):
        m_top = 2 * ncut - k
        for m in range(m_top + 1):
            if k == 0:
                out.append(BlockLabel(k=0, m=m))
            else:
                out.append(BlockLabel(k=k, m=m, sign=1))
                out.append(BlockLabel(k=k, m=m, sign=-1))
    return out


@dataclass(frozen=True)
class CoherentInput:
    """Product coherent state |alpha1>|alpha2>|alpha3> truncated to a cube."""

    alpha1: complex
    alpha2: complex
    alpha3: complex
    ncut: int

    def __post_init__(self):
        if self.ncut < 1:
            raise ValueError("ncut must be positive")


@lru_cache(maxsize=8)
def _log_factorials(nmax: int) -> np.ndarray:
    """log n! for n = 0..nmax, each the logarithm of the exact integer n!."""
    facts = accumulate(range(1, nmax + 1), operator.mul, initial=1)
    out = np.array([math.log(f) for f in facts])
    out.setflags(write=False)
    return out


def _mode_amplitudes(alpha: complex, nmax: int) -> np.ndarray:
    """Coherent Fock amplitudes exp(-|a|^2/2) a^n / sqrt(n!) for n = 0..nmax.

    Magnitudes are assembled in log space so large cutoffs cannot overflow.
    """
    out = np.zeros(nmax + 1, dtype=complex)
    mod = abs(alpha)
    if mod == 0.0:
        out[0] = 1.0
        return out
    n = np.arange(nmax + 1, dtype=float)
    logmag = -0.5 * mod * mod + n * math.log(mod) - 0.5 * _log_factorials(nmax)
    phase = n * cmath.phase(alpha)
    mag = np.exp(logmag)
    out.real = mag * np.cos(phase)
    out.imag = mag * np.sin(phase)
    return out


def project_coherent(inp: CoherentInput, label: BlockLabel) -> np.ndarray:
    """Amplitudes c_v of the cube-truncated coherent state on the block basis.

    Basis states with any Fock index above ncut get amplitude zero, so the
    squared norms over all enumerated blocks sum to the probability captured
    by the cube; the remainder is coherent_tail_deficit.
    """
    nc = inp.ncut
    d = label.dim
    c = np.zeros(d, dtype=complex)
    # in-cube window of v: all three indices within the cube
    vmax_excess = nc - label.k          # bounds k+v <= ncut and v <= ncut
    vlo = max(0, label.m - nc)          # bounds m-v <= ncut
    vhi = min(d - 1, vmax_excess)
    if vhi < vlo:
        return c
    a_excess = _mode_amplitudes(inp.alpha1 if label.sign > 0 else inp.alpha2, nc)
    a_low = _mode_amplitudes(inp.alpha2 if label.sign > 0 else inp.alpha1, nc)
    a_pump = _mode_amplitudes(inp.alpha3, nc)
    v = np.arange(vlo, vhi + 1)
    c[v] = a_excess[label.k + v] * a_low[v] * a_pump[label.m - v]
    return c


def coherent_block_weights(inp: CoherentInput, floor: float):
    """(label, sum_v |c_v|^2) of every block whose weight is at least floor.

    Same values as project_coherent summed per block, in enumerate_blocks
    order, without visiting the other labels.  With P_i = |amplitudes of
    alpha_i|^2, the weights of all (k, m, +) blocks are one full
    convolution over m of P_1[k + v] P_2[v] with P_3; its index range is
    exactly the in-cube window of project_coherent.  Minus blocks swap P_1
    and P_2.
    """
    nc = inp.ncut
    p1, p2, p3 = (
        np.abs(_mode_amplitudes(a, nc)) ** 2
        for a in (inp.alpha1, inp.alpha2, inp.alpha3)
    )
    out = []
    for k in range(nc + 1):
        w = np.convolve(p1[k:] * p2[: nc + 1 - k], p3)[:, None]
        if k > 0:
            minus = np.convolve(p2[k:] * p1[: nc + 1 - k], p3)
            w = np.column_stack((w, minus))
        # row-major order over (m, sign column) is the enumerate_blocks order
        for m, col in zip(*np.nonzero(w >= floor)):
            label = BlockLabel(k=k, m=int(m), sign=-1 if col else 1)
            out.append((label, float(w[m, col])))
    return out


def _log_poisson_cdf(x: float, n: int) -> float:
    """log P(N <= n) for N ~ Poisson(x), x >= 0, without cancellation.

    Below x = n + 1 the tail T = P(N > n) is the regularized lower incomplete
    gamma P(n + 1, x), summed as its convergent series
    e^-x x^(n+1) / (n+1)! * sum_k x^k / ((n+2)...(n+1+k)), and the result
    is log1p(-T).  From x = n + 1 on, the finite sum e^-x sum_{k<=n} x^k / k!
    is taken directly: its largest term k = n is factored out and the rest,
    ratios below 1, is summed by Horner.
    """
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return -math.inf
    # log(e^-x x^n / n!) as one exact sum of small terms log(x / k); a
    # subnormal x / k underflows to 0, and log 0 = -inf is a head of 0
    with np.errstate(divide="ignore"):
        terms = np.log(x / np.arange(1.0, n + 1))
    log_head = math.fsum(np.append(terms, -x))
    if x < n + 1:
        term = total = 1.0
        k = n + 1
        while term > total * 1e-17:
            k += 1
            term *= x / k
            total += term
        log_tail = log_head + math.log(x) - math.log(n + 1) + math.log(total)
        return math.log1p(-math.exp(log_tail))
    # sum_{k<=n} x^k / k! = x^n / n! * (1 + n/x (1 + (n-1)/x (1 + ...)))
    total = 1.0
    for k in range(1, n + 1):
        total = 1.0 + total * k / x
    return log_head + math.log(total)


def coherent_tail_deficit(inp: CoherentInput) -> float:
    """Probability of the untruncated state outside the cube n_i <= ncut.

    Each mode is Poisson in n with mean |alpha|^2, so the deficit is
    1 - prod P(n_i <= ncut), evaluated without cancellation as
    -expm1(sum log P(n_i <= ncut)).  A mode whose |alpha|^2 overflows a
    float lies wholly outside the cube: the deficit is 1.
    """
    logs = [
        _log_poisson_cdf(abs(a) * abs(a), inp.ncut)
        for a in (inp.alpha1, inp.alpha2, inp.alpha3)
    ]
    # 0.0 - x: an untruncated state reports +0.0, not -0.0
    return 0.0 - math.expm1(math.fsum(logs))
