"""Independent references for the su(2) coherent-state rotation.

The rotated basis state S_Y |v> has overlaps that combine a terminating
regularized hypergeometric with a factorial normalisation.  Evaluated from
exact rational coefficients these sums are correctly rounded however
strongly their terms cancel, which makes them an independent check on the
float64 rotation in algebra, not a substitute for it: they cost
rational arithmetic per entry.  The stationarity condition of the ground
state is given termwise as a polynomial in alpha, a check on the Bernstein
scan in variational.  The Rabi signal of one block is evaluated by a real
GEMM per chunk of time samples, about 4 d^2 flops per sample, a check on
the Bohr-frequency NUFFT in dynamics.  Only tests and the verify command
use them.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import Block, StructureFunction

__all__ = [
    "reg_hyp_2F1",
    "gcs_overlaps",
    "stationarity_residual",
    "evolve_grid_gemm",
]

# time samples per chunk of evolve_grid_gemm
_CHUNK = 256


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


def gcs_overlaps(block: Block, v: int, r: float, theta: float = 0.0) -> np.ndarray:
    """Overlaps <f| of the rotated basis state S_Y |v> on the su(2) level.

    Coefficients combine a terminating regularized hypergeometric with a
    factorial normalization; the result is unit norm by unitarity of the
    rotation.  r = 0 returns the basis vector itself.
    """
    d = block.dim
    twoj = d - 1
    if not 0 <= v < d:
        raise ValueError("v outside block")
    out = np.zeros(d, dtype=complex)
    cr = math.cos(r)
    if abs(cr) < 1e-12:
        raise ValueError("rotation angle too close to pi/2")
    if r == 0.0:
        out[v] = 1.0
        return out
    s2 = math.sin(r) ** 2
    t = math.tan(r)
    phase = -cmath.exp(1j * theta) * t
    cos_pow = (cr * cr) ** (block.j - v)
    for f in range(d):
        hyp = reg_hyp_2F1(v, twoj + 1 - v, f - v + 1, s2)
        if hyp == 0.0 and f < v:
            continue
        ratio = Fraction(
            math.factorial(twoj - v) * math.factorial(f),
            math.factorial(twoj - f) * math.factorial(v),
        )
        out[f] = cos_pow * phase ** (f - v) * hyp * math.sqrt(ratio)
    return out


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
    form.  Roots do not depend on the scale, so a sign scan may use the
    weights alone.
    """
    n = twoj - 1
    combs = [math.comb(n, f) for f in range(twoj)]
    top = math.comb(n, n // 2) if twoj else 1
    weights = tuple(c / top for c in combs)
    return weights, top / math.factorial(max(n, 0))


def _termwise_sums(block: Block, psi: StructureFunction, params, alpha: float):
    """Signed sum and sum of magnitudes of the stationarity terms at alpha."""
    twoj = block.dim - 1
    j = block.j
    q = _rung_weights(block, psi)
    weights, scale = _binomial_weights(twoj)
    slope = params.a / params.g_mod * alpha
    signed = magnitude = 0.0
    for f in range(twoj):
        term = alpha ** (2 * f) * weights[f]
        rung = 4 * alpha**2 * j - (1 + alpha**2) * (2 * f + 1)
        signed += term * (slope - rung * q[f])
        magnitude += abs(term) * (abs(slope) + abs(rung) * q[f])
    return signed * scale, magnitude * scale


def stationarity_residual(
    block: Block, psi: StructureFunction, params, alpha: float
) -> float:
    """Residual of the stationarity condition at alpha = -tan r.

    Zero iff the trial energy is stationary in r.  Termwise evaluation;
    polysl2.variational.solve_alpha scans an equivalent Bernstein form.
    """
    if params.g_mod == 0:
        raise ValueError("variational phase undefined at g = 0")
    return _termwise_sums(block, psi, params, alpha)[0]


def _residual_scale(block: Block, psi: StructureFunction, params, alpha: float):
    """Sum of absolute term magnitudes, for relative residual bounds."""
    return _termwise_sums(block, psi, params, alpha)[1]


def evolve_grid_gemm(spectrum, c0, times, occ) -> np.ndarray:
    """Block contribution sum_v occ_v |c_v(t)|^2 on a uniform time grid.

    The amplitudes are spectrum.amplitudes = conj(D) Q with Q =
    spectrum.vectors real and D a diagonal phase, which drops out of
    |c_v|^2, so c(t) is formed as Q (exp(-i E t) * cr), cr =
    spectrum.coefficients(c0), by a real GEMM on the float view of the
    complex factor.  Time runs in chunks of _CHUNK samples: the phases of a
    chunk are its start phase times one chunk-long base exp(-i E b dt), so
    the d x len(times) phase and amplitude arrays are never built.
    """
    n = len(times)
    out = np.empty(n)
    if n == 0:
        return out
    cr = spectrum.coefficients(c0)
    energies = spectrum.energies
    dt = (times[-1] - times[0]) / (n - 1) if n > 1 else 0.0
    base = np.exp(-1j * np.outer(energies, np.arange(min(n, _CHUNK)) * dt))
    for s in range(0, n, _CHUNK):
        b = min(_CHUNK, n - s)
        z = (np.exp(-1j * energies * times[s]) * cr)[:, None] * base[:, :b]
        y = spectrum.vectors @ z.view(float)
        y *= y
        out[s : s + b] = (occ @ y).reshape(b, 2).sum(axis=1)
    return out
