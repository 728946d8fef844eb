"""Independent numerical propagators used as oracles for the closed form.

Two routes that share nothing with the Bessel evaluation:

* spectral: FFT to momentum space, multiply by exp(i 2 gamma t cos(alpha-k)),
  FFT back; exact on a ring large enough that no wrap-around reaches the
  observation window.  One call evaluates a time vector for several points.
* ode: fixed-step classical RK4 on the truncated chain,
  d psi_x / dt = i gamma (e^{i alpha} psi_{x-1} + e^{-i alpha} psi_{x+1}).
  The integrator is batched and checkpointed: its state holds sites on
  axis 0, with a zero ghost site past each edge, and one row per parameter
  set on axis 1; it runs once through a sorted list of times, returning a
  snapshot at each.  ``check_rows`` rejects a snapshot with weight at the
  edges of a window or a drifted norm; the integrator applies it to its own
  window, and the oracle triangle to each time's sub-window.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    ConfigError,
    LatticeWindow,
    NumericalValidationError,
    WalkParams,
    band_phase,
    check_norm_deficit,
    initial_state_position,
    is_whole,
    light_cone_half_width,
)

EDGE_LEAK_LIMIT = 1e-14
_NORM_DRIFT_LIMIT = 1e-9


@dataclass(frozen=True)
class RingSpec:
    """Periodic ring of N sites carrying the spectral propagation."""

    size: int

    def __post_init__(self):
        if not is_whole(self.size, 3):
            raise ConfigError(f"ring size must be an integer >= 3, got {self.size}")

    @classmethod
    def for_run(cls, params: WalkParams, t_max: float,
                window: Optional[LatticeWindow] = None) -> "RingSpec":
        """Power-of-two ring big enough that wrap-around stays outside the
        light cone (plus margin) up to t_max, and that holds the window."""
        need = max(2 * light_cone_half_width(params.gamma, abs(t_max)) + 3,
                   window.n_sites if window else 0)
        return cls(size=1 << max(2, math.ceil(math.log2(need))))

    def validate_for(self, params: WalkParams, t: float) -> None:
        # at t = 0 nothing propagates; any ring holding the seed state works
        need = 3 if t == 0.0 else 2 * light_cone_half_width(params.gamma, abs(t)) + 3
        if self.size < need:
            raise NumericalValidationError(
                f"ring of {self.size} sites cannot hold the light cone at t={t} "
                f"(needs >= {need})"
            )


@dataclass(frozen=True)
class OdeSpec:
    """Fixed-step spec for the classical 4th-order Runge-Kutta integrator."""

    step: float

    def __post_init__(self):
        if not self.step > 0:
            raise ConfigError(f"step must be positive, got {self.step}")

    @classmethod
    def default_for(cls, params: WalkParams) -> "OdeSpec":
        # gamma * h = 1e-3 keeps the global RK4 error far below 1e-8.
        return cls(step=1e-3 / params.gamma)


def spectral_blocks(points: Sequence[WalkParams], ring: RingSpec, window: LatticeWindow, times,
                    block: int, initial: Optional[np.ndarray] = None):
    """Each point's amplitudes on the window in time order, in norm-checked blocks of at
    most ``block`` times, shape (times, len(points), n_sites), by diagonalizing in momentum
    space; exactly unitary. One ring check and one (points x ring) forward FFT, then one
    inverse FFT per time along the ring axis. Evolves each point's three-site initial state,
    or ``initial``, amplitudes of any norm on the window, shape (n_sites,), for every point;
    negative times run backwards (time-reversal checks)."""
    if initial is not None and np.shape(initial) != (window.n_sites,):
        raise ValueError(f"initial amplitudes must have the window's shape ({window.n_sites},)")
    times = np.asarray(times, dtype=float)
    far = float(times[np.argmax(np.abs(times))]) if times.size else 0.0
    ring.validate_for(max(points, key=lambda p: p.gamma), far)  # the widest light cone
    if window.n_sites > ring.size:
        raise NumericalValidationError(f"window of {window.n_sites} sites is larger than the "
                                       f"ring of {ring.size} sites")

    on_ring = window.sites() % ring.size
    psi0 = np.zeros((len(points), ring.size), dtype=complex)
    psi0[:, on_ring] = ([initial_state_position(p, window) for p in points] if initial is None
                        else initial)
    gamma, alpha = np.array([(p.gamma, band_phase(p.alpha)) for p in points]).T[..., None]
    cosk = np.cos(alpha - 2.0 * math.pi * np.arange(ring.size) / ring.size)  # cos(alpha - k)
    psi_k, norm = np.fft.fft(psi0), np.sum(np.abs(psi0) ** 2, axis=1)  # the norms they keep
    for lo in range(0, max(times.size, 1), block):  # an empty grid is one empty block
        amps = np.empty((min(block, times.size - lo), len(points), window.n_sites), dtype=complex)
        for i, t in enumerate(times[lo : lo + block]):
            amps[i] = np.fft.ifft(psi_k * np.exp(2j * gamma * t * cosk))[:, on_ring]
        check_norm_deficit(window, amps, times[lo:], norm)  # names the block's first leak
        yield amps


def propagate_ode_blocks(params: Sequence[WalkParams], window: LatticeWindow, ode: OdeSpec,
                         times: Sequence[float], block: int):
    """RK4 for several parameter rows at once, in one pass through sorted times.

    Each row starts from the three-site initial state of its own params and
    hops with its own ``i gamma e^{+-i alpha}``.  The state is one
    (n_sites x rows) array for any number of rows.  The integration runs
    once through the checkpoint times; every gap between checkpoints takes
    full steps of ``ode.step`` and at most one shortened final step, so a
    snapshot equals chained single-gap runs bit for bit.  A step is 24 ufunc
    calls on buffers made once per call (zero ghost sites, real scalars on
    float64 views), in the plain RK4 expression's order: the same bytes.
    Yields blocks of at most ``block`` snapshots in time order, shape ``(times,
    len(params), n_sites)``; each passes ``check_rows`` on the window's outer sites.
    """
    times = np.asarray(times, dtype=float)
    if not params or not times.size:
        raise ValueError("need at least one parameter row and one checkpoint time")
    if not (np.all(np.diff(times, prepend=0.0) >= 0.0) and np.all(times < math.inf)):
        raise ValueError(f"checkpoint times must be finite, nonnegative and sorted, got "
                         f"{times.tolist()}")
    t_max = float(times[-1])
    need_half = 1 if t_max == 0.0 else max(light_cone_half_width(p.gamma, t_max) for p in params)
    if window.half_width < need_half:
        raise NumericalValidationError(
            f"window half_width={window.half_width} too small for t={t_max} "
            f"(needs >= {need_half})"
        )

    hop_left = np.array([1j * p.gamma * np.exp(1j * p.alpha) for p in params])  # x-1 -> x
    hop_right = np.array([1j * p.gamma * np.exp(-1j * p.alpha) for p in params])  # x+1 -> x
    # sites on axis 0 with a zero ghost past each edge of psi and tmp, rows on axis 1:
    # shifted sources are whole blocks, and hops tiled to their shape broadcast nothing
    hop_left, hop_right = (np.tile(hop, (window.n_sites, 1)) for hop in (hop_left, hop_right))
    psi_g, tmp_g = (np.zeros((window.n_sites + 2, len(params)), dtype=complex) for _ in range(2))
    psi, tmp = psi_g[1:-1], tmp_g[1:-1]
    psi[...] = np.stack([initial_state_position(p, window) for p in params], axis=1)

    k1, k2, k3, k4, acc, spill = (np.empty_like(psi) for _ in range(6))
    tmp_f, acc_f = tmp.view(float), acc.view(float)
    # each stage's k, its float64 view and its source's shifted views, built once
    stages = [(k, k.view(float), src[:-2], src[2:])
              for k, src in ((k1, psi_g), (k2, tmp_g), (k3, tmp_g), (k4, tmp_g))]
    mul, add = np.multiply, np.add  # local names: a step makes 24 of these calls
    for i, (t_prev, t) in enumerate(zip(np.append(0.0, times[:-1]), times)):
        if i % block == 0:
            snapshots = np.empty((min(block, times.size - i),) + psi.T.shape, dtype=complex)
        gap = t - t_prev
        n_full = int(math.floor(gap / ode.step + 1e-12))
        last = gap - n_full * ode.step
        # n_full steps of ode.step, then at most one shortened step; 0-d scalars convert once
        for h, n in ((ode.step, n_full), (last, int(last > 1e-15 * max(gap, 1.0)))):
            half, whole, sixth = (np.array(x) for x in (0.5 * h, h, h / 6.0))
            staged = list(zip(stages, (half, half, whole, None)))  # each stage's c, per step size
            for _ in range(n):
                for (k, k_f, src_lo, src_hi), c in staged:
                    # k = hop_left * src[x-1] + hop_right * src[x+1], the ghosts zero
                    mul(hop_left, src_lo, k)
                    mul(hop_right, src_hi, spill)
                    add(k, spill, k)
                    if c is not None:  # the next stage's source: psi + c * k
                        mul(k_f, c, tmp_f)  # real c on both parts: c + 0j's bits
                        add(tmp, psi, tmp)
                # psi += h/6 (k1 + 2 (k2 + k3) + k4), in the plain expression's order
                add(k2, k3, acc)
                add(acc, acc, acc)
                add(k1, acc, acc)
                add(acc, k4, acc)
                mul(acc_f, sixth, acc_f)
                add(psi, acc, psi)
        snapshots[i % block] = psi.T
        check_rows(snapshots[i % block], params, t, 0, window.n_sites - 1)
        if i % block == len(snapshots) - 1:
            yield snapshots


def check_rows(psi: np.ndarray, params: Sequence[WalkParams], t: float, lo: int, hi: int) -> None:
    """Reject a (rows x sites) snapshot if any row has weight on or beyond
    sites ``lo`` and ``hi``, or a norm that drifted from 1."""
    p = np.abs(psi) ** 2
    edge = p[:, : lo + 1].sum(axis=1) + p[:, hi:].sum(axis=1)
    row = int(np.argmax(edge))
    if not edge[row] <= EDGE_LEAK_LIMIT:
        raise NumericalValidationError(
            f"edge-site probability {edge[row]:.3e} on or beyond sites {lo} and {hi} exceeds "
            f"{EDGE_LEAK_LIMIT} at t={t:g} for {params[row]}; truncation is visible"
        )
    drift = np.abs(np.sum(p, axis=1) - 1.0)
    row = int(np.argmax(drift))
    if not drift[row] <= _NORM_DRIFT_LIMIT:
        raise NumericalValidationError(
            f"norm drift {drift[row]:.3e} exceeds {_NORM_DRIFT_LIMIT} at t={t:g} for {params[row]}"
        )


# One-time wrappers that the benchmark's tracer binds; they go with ROADMAP item 1.
def propagate_spectral(params: WalkParams, ring: RingSpec, t: float, window: LatticeWindow):
    return next(spectral_blocks([params], ring, window, [t], 1))[0, 0]


def propagate_ode(params: WalkParams, window: LatticeWindow, ode: OdeSpec, t: float) -> np.ndarray:
    return next(propagate_ode_blocks([params], window, ode, [t], 1))[0, 0]
