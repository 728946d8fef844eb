"""Independent numerical propagators used as oracles for the closed form.

Two routes that share nothing with the Bessel evaluation:

* spectral: FFT to momentum space, multiply by exp(i 2 gamma t cos(alpha-k)),
  FFT back; exact on a ring large enough that no wrap-around reaches the
  observation window.  One call evaluates a whole time vector.
* ode: fixed-step classical RK4 on the truncated chain,
  d psi_x / dt = i gamma (e^{i alpha} psi_{x-1} + e^{-i alpha} psi_{x+1}).
  The integrator is batched and checkpointed: it advances one row per
  parameter set together and runs once through a sorted list of times,
  returning a snapshot at each.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    LatticeWindow,
    NumericalValidationError,
    UndersizedGridError,
    WalkParams,
    WaveState,
    check_norm_deficit,
    initial_state_position,
    light_cone_half_width,
    window_for,
)

EDGE_LEAK_LIMIT = 1e-14
_NORM_DRIFT_LIMIT = 1e-9


@dataclass(frozen=True)
class RingSpec:
    """Periodic ring of N sites carrying the spectral propagation."""

    size: int

    def __post_init__(self):
        if int(self.size) != self.size or self.size < 3:
            raise ValueError(f"ring size must be an integer >= 3, got {self.size}")

    @classmethod
    def for_run(cls, params: WalkParams, t_max: float) -> "RingSpec":
        """Power-of-two ring big enough that wrap-around stays outside the
        light cone (plus margin) up to t_max."""
        need = 2 * light_cone_half_width(params.gamma, abs(t_max)) + 3
        return cls(size=1 << max(2, math.ceil(math.log2(need))))

    def validate_for(self, params: WalkParams, t: float) -> None:
        # at t = 0 nothing propagates; any ring holding the seed state works
        need = 3 if t == 0.0 else 2 * light_cone_half_width(params.gamma, abs(t)) + 3
        if self.size < need:
            raise UndersizedGridError(
                f"ring of {self.size} sites cannot hold the light cone at t={t} "
                f"(needs >= {need})"
            )


@dataclass(frozen=True)
class OdeSpec:
    """Fixed-step spec for the classical 4th-order Runge-Kutta integrator."""

    step: float

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")

    @classmethod
    def default_for(cls, params: WalkParams) -> "OdeSpec":
        # gamma * h = 1e-3 keeps the global RK4 error far below 1e-8.
        return cls(step=1e-3 / params.gamma)


def spectral_amplitudes(
    params: WalkParams,
    ring: RingSpec,
    window: LatticeWindow,
    times,
    initial: Optional[WaveState] = None,
) -> np.ndarray:
    """Amplitudes on the window at each time, shape (len(times), n_sites), by
    diagonalizing in momentum space; exactly unitary.

    Evolves the three-site initial state, or a window state of any norm
    passed as ``initial``; negative times run backwards (time-reversal
    checks).  Only the phase, the inverse FFT and the gather depend on t.
    """
    times = np.asarray(times, dtype=float)
    ring.validate_for(params, float(times[np.argmax(np.abs(times))]))  # the farthest time
    if window.n_sites > ring.size:
        raise UndersizedGridError("observation window larger than the ring")

    if initial is None:
        initial = initial_state_position(params, LatticeWindow(1))
    if initial.window.n_sites > ring.size:
        raise UndersizedGridError("initial state window larger than the ring")
    psi0 = np.zeros(ring.size, dtype=complex)
    psi0[initial.window.sites() % ring.size] = initial.amplitudes

    k = 2.0 * math.pi * np.arange(ring.size) / ring.size
    cosk = np.cos(params.alpha - k)
    psi_k = np.fft.fft(psi0)
    on_ring = window.sites() % ring.size
    amps = np.empty((times.size, window.n_sites), dtype=complex)
    for i, t in enumerate(times):
        amps[i] = np.fft.ifft(psi_k * np.exp(2j * params.gamma * t * cosk))[on_ring]
    check_norm_deficit(window, amps, times, np.sum(np.abs(psi0) ** 2))  # the norm it keeps
    return amps


def propagate_spectral(
    params: WalkParams,
    ring: RingSpec,
    t: float,
    window: Optional[LatticeWindow] = None,
    initial: Optional[WaveState] = None,
) -> WaveState:
    """One time of ``spectral_amplitudes``; the window defaults to t's light cone."""
    if window is None:
        window = window_for(params, t)
    amps = spectral_amplitudes(params, ring, window, [t], initial)[0]
    t0 = 0.0 if initial is None else initial.time
    return WaveState(time=t0 + t, window=window, amplitudes=amps)


def propagate_ode_batch(
    params: Sequence[WalkParams],
    window: LatticeWindow,
    ode: OdeSpec,
    times: Sequence[float],
) -> np.ndarray:
    """RK4 for several parameter rows at once, in one pass through sorted times.

    Each row starts from the three-site initial state of its own params and
    hops with its own ``i gamma e^{+-i alpha}``.  The integration runs once
    through the checkpoint times; every gap between checkpoints takes full
    steps of ``ode.step`` and at most one shortened final step, so a
    snapshot equals chained single-gap runs bit for bit.  Returns the
    amplitudes as an array of shape ``(len(times), len(params), n_sites)``.
    Edge leakage and norm drift are checked on every row at every checkpoint.
    """
    times = [float(t) for t in times]
    if not params or not times:
        raise ValueError("need at least one parameter row and one checkpoint time")
    if not all(0.0 <= a <= b < math.inf for a, b in zip([0.0] + times, times)):
        raise ValueError(f"checkpoint times must be finite, nonnegative and sorted, got {times}")
    t_max = times[-1]
    need_half = 1 if t_max == 0.0 else max(light_cone_half_width(p.gamma, t_max) for p in params)
    if window.half_width < need_half:
        raise UndersizedGridError(
            f"window half_width={window.half_width} too small for t={t_max} "
            f"(needs >= {need_half})"
        )

    hop_left = np.array([1j * p.gamma * np.exp(1j * p.alpha) for p in params])  # x-1 -> x
    hop_right = np.array([1j * p.gamma * np.exp(-1j * p.alpha) for p in params])  # x+1 -> x
    # sites along axis 0, rows along axis 1: the shifted slices in rhs are
    # then whole contiguous blocks
    psi = np.stack([initial_state_position(p, window).amplitudes for p in params], axis=1)
    if len(params) == 1:
        # one trajectory: a 1-D state and scalar hops keep the per-step
        # numpy overhead at its minimum
        psi, hop_left, hop_right = psi[:, 0], hop_left[0], hop_right[0]
    else:
        # hops tiled to the shape they multiply, so no operand is broadcast
        hop_left = np.tile(hop_left, (window.n_sites - 1, 1))
        hop_right = np.tile(hop_right, (window.n_sites - 1, 1))

    def rhs(psi, out):
        out[0] = 0.0
        out[1:] = hop_left * psi[:-1]
        out[:-1] += hop_right * psi[1:]
        return out

    k1, k2, k3, k4, tmp = (np.empty_like(psi) for _ in range(5))
    snapshots = np.empty((len(times), len(params), window.n_sites), dtype=complex)
    t_prev = 0.0
    for i, t in enumerate(times):
        gap = t - t_prev
        n_full = int(math.floor(gap / ode.step + 1e-12))
        last = gap - n_full * ode.step
        steps = [ode.step] * n_full + ([last] if last > 1e-15 * max(gap, 1.0) else [])
        for h in steps:
            rhs(psi, k1)
            np.multiply(k1, 0.5 * h, out=tmp)
            tmp += psi
            rhs(tmp, k2)
            np.multiply(k2, 0.5 * h, out=tmp)
            tmp += psi
            rhs(tmp, k3)
            np.multiply(k3, h, out=tmp)
            tmp += psi
            rhs(tmp, k4)
            psi += (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        snapshots[i] = psi.T
        _check_rows(snapshots[i], params, t)
        t_prev = t
    return snapshots


def _check_rows(psi: np.ndarray, params: Sequence[WalkParams], t: float) -> None:
    """Reject the snapshot if any row's edge sites carry weight or its norm drifted."""
    edge = np.abs(psi[:, 0]) ** 2 + np.abs(psi[:, -1]) ** 2
    row = int(np.argmax(edge))
    if not edge[row] <= EDGE_LEAK_LIMIT:
        raise NumericalValidationError(
            f"edge-site probability {edge[row]:.3e} exceeds {EDGE_LEAK_LIMIT} "
            f"at t={t:g} for {params[row]}; truncation is visible"
        )
    drift = np.abs(np.sum(np.abs(psi) ** 2, axis=1) - 1.0)
    row = int(np.argmax(drift))
    if not drift[row] <= _NORM_DRIFT_LIMIT:
        raise NumericalValidationError(
            f"norm drift {drift[row]:.3e} exceeds {_NORM_DRIFT_LIMIT} at t={t:g} for {params[row]}"
        )


def propagate_ode(
    params: WalkParams,
    window: LatticeWindow,
    ode: OdeSpec,
    t: float,
) -> WaveState:
    """Integrate the truncated Schroedinger equation to time t >= 0 with RK4.

    One row of ``propagate_ode_batch``; if t is not a multiple of the step,
    one shortened final step is taken.
    """
    amps = propagate_ode_batch([params], window, ode, [t])[0, 0]
    return WaveState(time=t, window=window, amplitudes=amps)
