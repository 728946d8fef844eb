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
# While every multiplier 2n/z is at most this, one rescale is enough: a
# finite |J_n| times _RESCALE is at most 1.8e58, under every column's limit
# _OVERFLOW_LIMIT / (2n/z) >= 1e59.
_ONE_RESCALE_MULT = 1e191
# Orders x columns of multipliers divided out in one broadcast; larger
# blocks raise the peak memory of a small batch.
_BLOCK_ELEMENTS = 4096
# Below this the series truncates exactly in double precision:
# J_0 = 1, J_1 = z/2, higher orders underflow.
_Z_TINY = 1e-290
# The trial seed as a column of the (3, columns) state, with J_n in row n % 2.
_SEEDS = np.zeros((2, 3, 1))
_SEEDS[0, 0] = _SEEDS[1, 1] = _TINY


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
    # numpy is slow when a one-element output is also an input, so a lone
    # argument runs as two equal columns.
    lone = z.size == 1
    if lone:
        z = np.repeat(z, 2)
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

    # Rows 0 and 1 hold J_n and J_{n+1}: J_n sits in row n % 2, and each
    # order writes J_{n-1} over J_{n+1} and swaps the two names, so nothing
    # is copied. Row 2 is the sum of trial J_n over even n >= 2.
    state = np.zeros((3, z.size))
    jn, jnp1, even_sum = state[top % 2], state[1 - top % 2], state[2]
    jn[:] = _TINY
    block = max(1, _BLOCK_ELEMENTS // max(z.size, 1))
    subtract = np.subtract  # called with a positional out, which costs less per call
    bound = _TINY  # >= |J_n| and |J_{n+1}| in every column
    rescaled = [(n_max + 1,) * 3] * z.size  # each column's last three rescale orders, oldest first
    for hi in range(top, 0, -block):
        lo = max(hi - block, 0)
        # 2n/z for a block of orders, each rounded as a division alone would
        mults = np.arange(2.0 * hi, 2.0 * lo, -2.0)[:, None] / zsafe
        limits = None
        for n, mult in zip(range(hi, lo, -1), mults):
            if n <= n_max:
                out[n] = jn
            if n % 2 == 0:
                even_sum += jn
            mult_max = 2.0 * n / zmin
            # Rescale before the multiply can overflow. The exact per-column
            # test is skipped while the bound keeps every column below it.
            if bound * max(mult_max, 1.0) > 0.5 * _OVERFLOW_LIMIT:
                if limits is None:
                    limits = _OVERFLOW_LIMIT / np.maximum(mults, 1.0)
                limit = limits[hi - n]
                big = np.abs(jn) > limit
                if n > n_max and mult_max <= _ONE_RESCALE_MULT:
                    np.multiply(state, _RESCALE, out=state, where=big)
                else:
                    while big.any():
                        np.multiply(state, _RESCALE, out=state, where=big)
                        # three rescales leave any double +-0: rows from the third-last one on stay
                        for c in big.nonzero()[0].tolist():
                            third, second, last = rescaled[c]
                            out[n:third, c] *= _RESCALE
                            rescaled[c] = second, last, n
                        big = np.abs(jn) > limit
            subtract(mult * jn, jnp1, jnp1)  # J_{n-1}
            jn, jnp1 = jnp1, jn
            bound *= (mult_max + 1.0) * (1.0 + 1e-12)  # the margin covers rounding
            if n > lowest:
                state[:, starts < n] = _SEEDS[(n - 1) % 2]
    out[0] = jn
    out /= jn + 2.0 * even_sum
    out[:, tiny] = 0.0
    out[0, tiny] = 1.0
    out[1:2, tiny] = z[tiny] / 2.0  # J_1, when n_max >= 1
    return (out[:, :1] if lone else out).reshape((n_max + 1,) + shape)


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
