"""Independent brute-force oracles used only by the tests."""

import numpy as np
from mpmath import mp

from ctqw.bessel import _OVERFLOW_LIMIT, _RESCALE, _TINY, _Z_TINY, start_order


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
