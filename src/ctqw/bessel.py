"""Integer-order Bessel functions of the first kind, J_n(z) for z >= 0.

Uses Miller's downward recurrence: start well above the largest order
requested, recur J_{n-1} = (2n/z) J_n - J_{n+1} down to 0 from trial
values, then rescale with the identity J_0 + 2 * sum_{k>=1} J_{2k} = 1.
Upward recurrence is unstable for n > z, downward is not.
"""

import math

import numpy as np

_OVERFLOW_LIMIT = 1e250
_RESCALE = 1e-250
_TINY = 1e-30
# Below this the series truncates exactly in double precision:
# J_0 = 1, J_1 = z/2, higher orders underflow.
_Z_TINY = 1e-290


def start_order(z: float, n_max: int) -> int:
    """First order of the downward recurrence for accurate J_0..J_{n_max}."""
    return max(n_max, math.ceil(z)) + 15 + math.ceil(10.0 * (z + 1.0) ** (1.0 / 3.0))


def _miller(z, n_max: int, shared_start: bool) -> np.ndarray:
    """J_0..J_{n_max} for every element of z; shape (n_max + 1,) + z.shape.

    With shared_start every element starts at the order of the largest
    argument. Otherwise each starts at its own order: until the recurrence
    reaches it, the element is held at the trial seed, so it enters exactly
    where a run of it alone would and matches that run bit for bit.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=float).ravel()
    if not np.all((z >= 0) & (z < math.inf)):
        raise ValueError(f"arguments must be finite and nonnegative, got {z}")
    if int(n_max) != n_max or n_max < 0:
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max}")
    if shared_start:
        starts = np.full(z.size, start_order(float(z.max(initial=0.0)), n_max))
    else:
        starts = np.array([start_order(float(x), n_max) for x in z], dtype=int)

    out = np.zeros((n_max + 1, z.size))
    tiny = z < _Z_TINY
    zsafe = np.where(tiny, 1.0, z)
    zmin = float(zsafe.min(initial=math.inf))
    top = int(starts.max(initial=0))
    lowest = int(starts.min(initial=top))

    jnp1 = np.zeros(z.size)
    jn = np.full(z.size, _TINY)
    even_sum = np.zeros(z.size)  # sum of trial J_n over even n >= 2
    bound = _TINY  # >= |J_n| and |J_{n+1}| in every column
    for n in range(top, 0, -1):
        if n <= n_max:
            out[n] = jn
        if n % 2 == 0:
            even_sum += jn
        mult = 2.0 * n / zsafe
        mult_max = 2.0 * n / zmin
        # Rescale before the multiply can overflow. The exact per-column
        # test is skipped while the bound keeps every column below it.
        while bound * max(mult_max, 1.0) > 0.5 * _OVERFLOW_LIMIT:
            big = np.abs(jn) > _OVERFLOW_LIMIT / np.maximum(mult, 1.0)
            if not big.any():
                break
            jn[big] *= _RESCALE
            jnp1[big] *= _RESCALE
            even_sum[big] *= _RESCALE
            out[:, big] *= _RESCALE
        jnm1 = mult * jn - jnp1
        jnp1, jn = jn, jnm1
        bound *= (mult_max + 1.0) * (1.0 + 1e-12)  # the margin covers rounding
        if n > lowest:
            late = starts < n
            jn[late] = _TINY
            jnp1[late] = 0.0
            even_sum[late] = 0.0
    out[0] = jn
    out /= jn + 2.0 * even_sum
    out[:, tiny] = 0.0
    out[0, tiny] = 1.0
    if n_max >= 1:
        out[1, tiny] = z[tiny] / 2.0
    return out.reshape((n_max + 1,) + shape)


def bessel_row(z: float, n_max: int) -> np.ndarray:
    """J_0(z) .. J_{n_max}(z) for a single z >= 0; one column of bessel_row_batch.

    Negative orders are the caller's business via J_{-n} = (-1)^n J_n.
    """
    return bessel_row_batch(np.array([z]), n_max)[:, 0]


def bessel_row_batch(z: np.ndarray, n_max: int) -> np.ndarray:
    """bessel_row for each element of z, in one recurrence; shape (n_max + 1,) + z.shape.

    Every element recurs from its own start order, so each column equals
    bessel_row of its argument bit for bit.
    """
    return _miller(z, n_max, shared_start=False)


def bessel_rows(z: np.ndarray, n_max: int) -> np.ndarray:
    """J_0..J_{n_max} for a batch of arguments; shape (n_max + 1,) + z.shape.

    All elements share the start order of the largest argument.
    """
    return _miller(z, n_max, shared_start=True)
