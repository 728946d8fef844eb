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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bessel import bessel_row_batch, bessel_rows
from .model import LatticeWindow, WalkParams, WaveState, check_norm_deficit

# i^n by n mod 4; exact phases, no complex exponentiation.
_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])


@dataclass
class SurvivalCurve:
    """Probability remaining on the central sites {-1, 0, 1} over a time grid.

    ``params`` is None for synthetic curves that did not come from the
    closed form (e.g. regression fixtures).
    """

    times: np.ndarray
    values: np.ndarray
    params: Optional[WalkParams] = None


def analytic_amplitudes(params: WalkParams, window: LatticeWindow, times) -> np.ndarray:
    """Exact amplitudes on the window at each time >= 0; shape (len(times), n_sites).

    One Bessel recurrence serves every time; each row equals the one-time
    evaluation bit for bit.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError(f"time must be nonnegative, got {times[times < 0][0]}")
    rows = bessel_row_batch(2.0 * params.gamma * times, window.half_width + 1)
    # i^n J_n for n >= 0; note i^{-n} J_{-n} = i^n J_n, so negative
    # orders reuse the same values.
    i_pow = _I_POW[np.arange(window.half_width + 2) % 4]

    xs = window.sites()
    d = params.delocalization
    a = params.alpha
    phase = np.exp(1j * a * xs)
    psi = np.empty((times.size, window.n_sites), dtype=complex)
    for i in range(times.size):
        jt = i_pow * rows[:, i]
        psi[i] = phase * (
            math.sqrt(1.0 - d) * jt[np.abs(xs)]
            + math.sqrt(d / 2.0)
            * (np.exp(1j * a) * jt[np.abs(xs + 1)] + np.exp(-1j * a) * jt[np.abs(xs - 1)])
        )
    check_norm_deficit(window, psi, times)
    return psi


def analytic_wavefunction(params: WalkParams, window: LatticeWindow, t: float) -> WaveState:
    """Exact wavefunction on the window at time t >= 0."""
    return WaveState(time=t, window=window, amplitudes=analytic_amplitudes(params, window, [t])[0])


def analytic_probability(params: WalkParams, window: LatticeWindow, t: float) -> np.ndarray:
    """P(x, t) = |psi(x, t)|^2 on the window."""
    return analytic_wavefunction(params, window, t).probabilities()


def _survival_values(params: WalkParams, times: np.ndarray) -> np.ndarray:
    z = 2.0 * params.gamma * times
    j0, j1, j2 = bessel_rows(z, 2)
    d = params.delocalization
    sin2 = math.sin(params.alpha) ** 2
    cos2a = math.cos(2.0 * params.alpha)
    return j0**2 + 2.0 * (1.0 - d * sin2) * j1**2 + d * j2**2 - 2.0 * d * cos2a * j0 * j2


def survival_exact(params: WalkParams, times) -> SurvivalCurve:
    """Exact central-region survival probability on a time grid."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    return SurvivalCurve(times=times, values=_survival_values(params, times), params=params)


def is_fine_tuned(params: WalkParams, tol: float = 1e-12) -> bool:
    """True on the exact enhanced-decay manifold: D = 1 and sin^2 alpha = 1."""
    return (
        abs(params.delocalization - 1.0) <= tol
        and abs(math.sin(params.alpha) ** 2 - 1.0) <= tol
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
