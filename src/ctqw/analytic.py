"""Closed-form solutions: position wavefunction and survival probability.

The momentum-space evolution is exact,

    psi(k, t) = exp(i 2 gamma t cos(alpha - k)) * psi(k, 0),

and the Jacobi-Anger expansion turns its inverse Fourier transform into a
Bessel series.  Carrying the expansion through gives, with
Jt_n(z) = i^n J_n(z),

    psi(x, t) = e^{i alpha x} [ sqrt(1-D) Jt_x(2 gamma t)
                + sqrt(D/2) (e^{i alpha}  Jt_{x+1}(2 gamma t)
                           + e^{-i alpha} Jt_{x-1}(2 gamma t)) ].

This reproduces the initial state exactly at t=0 and matches spectral
propagation of psi(k, t) to rounding; see tests for the cross checks.
"""

import math
from typing import Sequence

import numpy as np

from .bessel import bessel_row_batch, bessel_rows
from .model import LatticeWindow, WalkParams, band_phase, check_norm_deficit


def _batch_args(points: Sequence[WalkParams], times):
    """The one gamma that the points share, and the times as floats >= 0."""
    gammas = {p.gamma for p in points}
    if len(gammas) != 1:
        raise ValueError(f"a batch needs points of one gamma, got {sorted(gammas)}")
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError(f"times must be nonnegative, got {times[times < 0][0]}")
    return gammas.pop(), times


def analytic_blocks(points: Sequence[WalkParams], window: LatticeWindow, times, block: int):
    """Exact amplitudes of each point on the window at each time >= 0, in time order, in
    blocks of at most ``block`` times, shape (times, len(points), n_sites) as from
    propagate_ode_blocks, each norm-checked as it is made. The Bessel factors depend
    only on gamma*t, so one recurrence serves every point and time; each entry equals
    the one-point, one-time evaluation bit for bit."""
    gamma, times = _batch_args(points, times)
    rows = bessel_row_batch(2.0 * gamma * times, window.half_width + 1)
    # the order |x| for x = -half_width-1 .. half_width+1, as i^{-n} J_{-n} = i^n J_n,
    # and i^|x| by |x| mod 4: exact phases, no complex exponentiation
    orders = np.abs(np.arange(-window.half_width - 1, window.half_width + 2))
    i_pow = np.array([1.0, 1.0j, -1.0, -1.0j])[orders % 4]
    # each point's phase (alpha by band_phase), weights and hops, one point a row, made once
    alpha, d = np.array([(band_phase(p.alpha), p.delocalization) for p in points]).T[..., None]
    phase = np.exp(1j * alpha * window.sites())
    centre, side = np.sqrt(1.0 - d), np.sqrt(d / 2.0)
    hop_right, hop_left = np.exp(1j * alpha), np.exp(-1j * alpha)
    for lo in range(0, max(times.size, 1), block):  # an empty grid is one empty block
        # Jt_|x| at each time; its views are the x-1, x and x+1 terms of the docstring's sum,
        # summed in place with one temporary: only real weights and sums trade operands
        jt = i_pow * rows[:, lo : lo + block].T.take(orders, axis=1)[:, None]
        psi = hop_right * jt[..., 2:]
        psi += hop_left * jt[..., :-2]
        psi *= side
        psi += centre * jt[..., 1:-1]
        np.multiply(phase, psi, out=psi)  # a complex product keeps its operand order
        check_norm_deficit(window, psi, times[lo : lo + block])
        yield psi


# One-time wrappers that the benchmark's tracer binds; they go with ROADMAP item 1.
def analytic_wavefunction(params: WalkParams, window: LatticeWindow, t: float) -> np.ndarray:
    return next(analytic_blocks([params], window, [t], 1))[0, 0]


def analytic_probability(params: WalkParams, window: LatticeWindow, t: float) -> np.ndarray:
    return np.abs(analytic_wavefunction(params, window, t)) ** 2


def survival_exact_batch(points: Sequence[WalkParams], times) -> np.ndarray:
    """survival_exact of each point, from one Bessel recurrence, shape
    (len(points),) + times.shape; the points share gamma."""
    gamma, times = _batch_args(points, times)
    j0, j1, j2 = bessel_rows(2.0 * gamma * times, 2)
    out = np.empty((len(points),) + times.shape)
    for j, params in enumerate(points):
        d = params.delocalization
        sin2 = math.sin(params.alpha) ** 2
        cos2a = math.cos(2.0 * params.alpha)
        out[j] = j0**2 + 2.0 * (1.0 - d * sin2) * j1**2 + d * j2**2 - 2.0 * d * cos2a * j0 * j2
    return out


def survival_exact(params: WalkParams, times) -> np.ndarray:
    """Exact central-region survival probability on a time grid, of the grid's shape."""
    return survival_exact_batch([params], times)[0]


def is_fine_tuned(params: WalkParams) -> bool:
    """True on the exact enhanced-decay manifold: D = 1 and sin^2 alpha = 1."""
    return (
        abs(params.delocalization - 1.0) <= 1e-12
        and abs(math.sin(params.alpha) ** 2 - 1.0) <= 1e-12
    )


def survival_asymptotic(params: WalkParams, t):
    """Long-time envelope law for the survival probability.

    Generic parameters decay as 1/t with coefficient
    3 (1 + D - 2 D sin^2 alpha) / (2 pi gamma); the coefficient vanishes
    exactly on the fine-tuned manifold (D = 1, sin^2 alpha = 1), where the
    curve collapses to J_1(2 gamma t)^2 / (gamma t)^2 with envelope
    1 / (pi gamma^3 t^3).

    The 1/t coefficient follows from the large-z averages
    <J_n(z)^2> = 1/(pi z) and <J_0(z) J_2(z)> = -1/(pi z); the cross term
    does not average to zero.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("asymptotic law requires t > 0")
    g = params.gamma
    if is_fine_tuned(params):
        out = 1.0 / (math.pi * g**3 * t**3)
    else:
        d = params.delocalization
        sin2 = math.sin(params.alpha) ** 2
        out = 3.0 * (1.0 + d - 2.0 * d * sin2) / (2.0 * math.pi * g * t)
    return out if out.shape else float(out)
