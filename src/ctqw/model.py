"""Physical parameters, lattice window and initial state of the walk.

The model is a single particle hopping on a 1D chain with rate ``gamma``
and a complex hopping phase ``alpha``; the initial state puts weight
``1 - D`` on site 0 and ``D/2`` on each of the sites +1 and -1.
"""

import math
from dataclasses import dataclass

import numpy as np


class UndersizedGridError(ValueError):
    """A lattice window or ring is too small to contain the light cone."""


# Norm deficit above this signals a truncated light cone, not rounding.
_NORM_REJECT = 1e-10


def check_norm_deficit(window: "LatticeWindow", amplitudes: np.ndarray, times, norm=1.0) -> None:
    """Reject a (times x sites) matrix if any row's squared norm fell short of
    ``norm`` (the initial state's) off the window; the error names the first
    such time."""
    deficit = np.abs(np.sum(np.abs(amplitudes) ** 2, axis=1) - norm)
    leaks = np.flatnonzero(deficit > _NORM_REJECT)
    if leaks.size:
        i = leaks[0]
        raise UndersizedGridError(
            f"window half_width={window.half_width} leaks norm {deficit[i]:.3e} at t={times[i]}"
        )


class NumericalValidationError(RuntimeError):
    """A numerical sanity check (norm conservation, leakage) failed."""


@dataclass(frozen=True)
class WalkParams:
    """Hopping rate gamma > 0, hopping phase alpha (radians), and the
    delocalization weight D in [0, 1] of the initial state."""

    gamma: float = 1.0
    alpha: float = 0.0
    delocalization: float = 0.0

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not 0.0 <= self.delocalization <= 1.0:
            raise ValueError(
                f"delocalization must be in [0, 1], got {self.delocalization}"
            )
        # alpha is kept as given; 2*pi periodicity is a tested property,
        # not an input normalization.


@dataclass(frozen=True)
class LatticeWindow:
    """Symmetric truncated window of sites x in [-half_width, half_width]."""

    half_width: int

    def __post_init__(self):
        if int(self.half_width) != self.half_width or self.half_width < 1:
            raise ValueError(f"half_width must be an integer >= 1, got {self.half_width}")

    @property
    def n_sites(self) -> int:
        return 2 * self.half_width + 1

    def sites(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)

    def index(self, x: int) -> int:
        """Array index of lattice site x."""
        if abs(x) > self.half_width:
            raise IndexError(f"site {x} outside window of half width {self.half_width}")
        return x + self.half_width


@dataclass
class WaveState:
    """Complex amplitude per site of a window at a fixed time."""

    time: float
    window: LatticeWindow
    amplitudes: np.ndarray

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def amplitude(self, x: int) -> complex:
        return complex(self.amplitudes[self.window.index(x)])


def light_cone_half_width(gamma: float, t_max: float) -> int:
    """Window half width keeping truncation leakage below ~1e-12 up to t_max.

    The wavefront moves at speed 2*gamma; beyond it the amplitudes decay
    super-exponentially across an Airy layer of width ~ (2*gamma*t)**(1/3).
    """
    front = 2.0 * gamma * t_max
    margin = max(40, math.ceil(6.0 * front ** (1.0 / 3.0)))
    return math.ceil(front) + margin


def window_for(params: WalkParams, t_max: float) -> LatticeWindow:
    return LatticeWindow(light_cone_half_width(params.gamma, abs(t_max)))


def dispersion(params: WalkParams, k):
    """Band energy E(k) = -2*gamma*cos(alpha - k)."""
    return -2.0 * params.gamma * np.cos(params.alpha - k)


def group_velocity(params: WalkParams, k):
    """dE/dk = -2*gamma*sin(alpha - k)."""
    return -2.0 * params.gamma * np.sin(params.alpha - k)


def initial_state_position(params: WalkParams, window: LatticeWindow) -> WaveState:
    """Three-site initial state: sqrt(1-D) on x=0, sqrt(D/2) on x=+-1."""
    if window.half_width < 1:
        raise ValueError("window must contain the sites x = -1, 0, 1")
    d = params.delocalization
    amps = np.zeros(window.n_sites, dtype=complex)
    amps[window.index(0)] = math.sqrt(1.0 - d)
    amps[window.index(1)] = math.sqrt(d / 2.0)
    amps[window.index(-1)] = math.sqrt(d / 2.0)
    return WaveState(time=0.0, window=window, amplitudes=amps)


def initial_state_momentum(params: WalkParams, k):
    """Momentum amplitude at t=0: (sqrt(1-D) + sqrt(2D) cos k) / sqrt(2 pi).

    Real valued and even in k.
    """
    d = params.delocalization
    return (math.sqrt(1.0 - d) + math.sqrt(2.0 * d) * np.cos(k)) / math.sqrt(2.0 * math.pi)
