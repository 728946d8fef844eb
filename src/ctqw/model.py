"""Physical parameters, lattice window and initial state of the walk.

The model is a single particle hopping on a 1D chain with rate ``gamma``
and a complex hopping phase ``alpha``; the initial state puts weight
``1 - D`` on site 0 and ``D/2`` on each of the sites +1 and -1.
"""

import math
from dataclasses import dataclass

import numpy as np


class Refusal(ValueError):
    """A run refused rather than computed unsoundly; every refusal is a ValueError. The
    CLI prints one line, ``ctqw: <label>: <message>``, and exits with the type's
    ``exit_code``: 2 for a ``ConfigError``, 3 for a ``NumericalValidationError``."""


class ConfigError(Refusal):
    """An argument, config line, spec field or amount of work the run refuses."""
    exit_code, label = 2, "config error"


class NumericalValidationError(Refusal):
    """A numerical check failed: a grid too small for the light cone, or a norm or edge leak."""
    exit_code, label = 3, "numerical validation failure"


# Norm deficit above this signals a truncated light cone, not rounding.
_NORM_REJECT = 1e-10


def check_norm_deficit(window: "LatticeWindow", amplitudes: np.ndarray, times, norm=1.0) -> None:
    """Reject a (times x sites) or (times x points x sites) array if any row's squared
    norm fell short of ``norm`` (the initial state's) off the window, or is not a number;
    the error names the first such time."""
    deficit = np.abs(np.sum(np.abs(amplitudes) ** 2, axis=-1) - norm)
    leaks = np.argwhere(~(deficit <= _NORM_REJECT))  # in time order; a NaN leaks
    if leaks.size:
        i = tuple(leaks[0])
        raise NumericalValidationError(f"window half_width={window.half_width} leaks norm "
                                       f"{deficit[i]:.3e} at t={times[i[0]]}")


def is_whole(x, least: int) -> bool:
    """x is an integer value >= least; int() never sees a NaN or an infinity."""
    return x == x and x not in (math.inf, -math.inf) and int(x) == x and x >= least


# |alpha| above this is refused: far past any phase with meaning, and small
# enough that 2*alpha and alpha*x stay finite on any window.
_MAX_PHASE = 1e300


@dataclass(frozen=True)
class WalkParams:
    """Hopping rate gamma > 0, hopping phase alpha (radians), and the
    delocalization weight D in [0, 1] of the initial state."""

    gamma: float = 1.0
    alpha: float = 0.0
    delocalization: float = 0.0

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ConfigError(f"gamma must be positive and finite, got {self.gamma}")
        if not abs(self.alpha) <= _MAX_PHASE:
            raise ConfigError(f"alpha must be finite and within +-{_MAX_PHASE:g}, got {self.alpha}")
        if not 0.0 <= self.delocalization <= 1.0:
            raise ConfigError(f"delocalization must be in [0, 1], got {self.delocalization}")
        # alpha is kept as given; 2*pi periodicity is a tested property,
        # not an input normalization.


@dataclass(frozen=True)
class LatticeWindow:
    """Symmetric truncated window of sites x in [-half_width, half_width]."""

    half_width: int

    def __post_init__(self):
        if not is_whole(self.half_width, 1):
            raise ConfigError(f"half_width must be an integer >= 1, got {self.half_width}")

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


def band_phase(alpha: float) -> float:
    """alpha as given within +-pi; beyond, the same angle in (-pi, pi], so that
    alpha - k keeps k. libm's sin and cos reduce alpha exactly."""
    return alpha if abs(alpha) <= math.pi else math.atan2(math.sin(alpha), math.cos(alpha))


def initial_state_position(params: WalkParams, window: LatticeWindow) -> np.ndarray:
    """Three-site initial state on the window: sqrt(1-D) on x=0, sqrt(D/2) on x=+-1."""
    d = params.delocalization
    amps = np.zeros(window.n_sites, dtype=complex)
    amps[window.index(0)] = math.sqrt(1.0 - d)
    amps[window.index(1)] = math.sqrt(d / 2.0)
    amps[window.index(-1)] = math.sqrt(d / 2.0)
    return amps
