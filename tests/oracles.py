"""Independent brute-force oracles used only by the tests, and the one-block
helpers through which the tests reach each route."""

import math

import numpy as np
from mpmath import mp

from ctqw.analytic import analytic_blocks
from ctqw.bessel import _OVERFLOW_LIMIT, _RESCALE, _TINY, _Z_TINY, start_order
from ctqw.model import WalkParams, band_phase
from ctqw.propagators import propagate_ode_blocks, spectral_blocks


def bessel_series(n: int, z: float, dps: int = 40) -> float:
    """J_n(z) by direct power-series summation in arbitrary precision.

    sum_m (-1)^m (z/2)^(n+2m) / (m! (n+m)!), summed until the terms are
    negligible. High working precision absorbs the cancellation that makes
    this series useless in float64 for moderate z.
    """
    with mp.workdps(dps):
        zz = mp.mpf(z)
        term = (zz / 2) ** n / mp.factorial(n)
        total = term
        m = 1
        eps = mp.mpf(10) ** (-dps + 4)
        while m < z / 2 + 8 or abs(term) > eps * max(1, abs(total)):
            term = -term * (zz / 2) ** 2 / (m * (n + m))
            total += term
            m += 1
        return float(total)


def bessel_row_loop(z: float, n_max: int, start=None):
    """J_0(z) .. J_{n_max}(z) by the plain-Python Miller recurrence.

    The scalar loop the package used before its recurrence was vectorized;
    ctqw.bessel must reproduce it bit for bit. The constants are those of
    ctqw.bessel. The recurrence starts at order start, by default
    start_order(z, n_max); a shared-start batch passes its own.
    """
    out = np.zeros(n_max + 1)
    if z < _Z_TINY:
        out[0] = 1.0
        if n_max >= 1:
            out[1] = z / 2.0
        return out
    jnp1, jn, even_sum = 0.0, _TINY, 0.0
    if start is None:
        start = start_order(z, n_max)
    for n in range(start, 0, -1):
        if n <= n_max:
            out[n] = jn
        if n % 2 == 0:
            even_sum += jn
        mult = 2.0 * n / z
        while abs(jn) > _OVERFLOW_LIMIT / max(mult, 1.0):
            jn *= _RESCALE
            jnp1 *= _RESCALE
            even_sum *= _RESCALE
            out *= _RESCALE
        jnp1, jn = jn, mult * jn - jnp1
    out[0] = jn
    out /= jn + 2.0 * even_sum
    return out


def _one_block(blocks, params, *args, **kwargs):
    """A route's blocks over the whole time grid (the last of args) as one block:
    (times x points x sites) for a list of WalkParams, (times x sites) for one."""
    one = isinstance(params, WalkParams)
    amps = next(blocks([params] if one else params, *args, max(np.size(args[-1]), 1), **kwargs))
    return amps[:, 0] if one else amps


def analytic_amplitudes(params, window, times):
    return _one_block(analytic_blocks, params, window, times)


def spectral_amplitudes(params, ring, window, times, initial=None):
    return _one_block(spectral_blocks, params, ring, window, times, initial=initial)


def ode_amplitudes(params, window, ode, times):
    return _one_block(propagate_ode_blocks, params, window, ode, times)


# The momentum-space picture, derived independently of the routes: the spectral route
# writes its band inline, and the tests check the drift law and the bases against these.
def dispersion(params: WalkParams, k):
    """Band energy E(k) = -2*gamma*cos(alpha - k)."""
    return -2.0 * params.gamma * np.cos(band_phase(params.alpha) - k)


def group_velocity(params: WalkParams, k):
    """dE/dk = -2*gamma*sin(alpha - k)."""
    return -2.0 * params.gamma * np.sin(band_phase(params.alpha) - k)


def initial_state_momentum(params: WalkParams, k):
    """Momentum amplitude at t=0: (sqrt(1-D) + sqrt(2D) cos k) / sqrt(2 pi).

    Real valued and even in k.
    """
    d = params.delocalization
    return (math.sqrt(1.0 - d) + math.sqrt(2.0 * d) * np.cos(k)) / math.sqrt(2.0 * math.pi)
