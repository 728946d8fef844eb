"""Cross-validation of the closed form against both numerical propagators."""

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .analytic import analytic_probability
from .model import NumericalValidationError, WalkParams, window_for
from .propagators import (
    EDGE_LEAK_LIMIT,
    OdeSpec,
    RingSpec,
    propagate_ode_batch,
    propagate_spectral,
)

GRID_D = (0.0, 0.3, 0.5, 1.0)
GRID_ALPHA = (0.0, math.pi / 6, math.pi / 4, math.pi / 2)
GRID_T = (1.0, 10.0, 50.0)

SPECTRAL_TOL = 1e-10
ODE_TOL = 1e-8


@dataclass
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tolerance


def _check_window_edges(amps, lo, hi, points, t):
    """Reject RK4 rows that put weight on or beyond the edges of t's window.

    RK4 runs on the window of the latest time, so this keeps the light-cone
    sizing of every earlier window checked, as a run on that window would.
    """
    p = np.abs(amps) ** 2
    beyond = p[:, : lo + 1].sum(axis=1) + p[:, hi:].sum(axis=1)
    row = int(np.argmax(beyond))
    if not beyond[row] <= EDGE_LEAK_LIMIT:
        raise NumericalValidationError(
            f"probability {beyond[row]:.3e} on or beyond the window edges exceeds "
            f"{EDGE_LEAK_LIMIT} at t={t:g} for {points[row]}; the window is too small"
        )


def oracle_triangle(
    times: Sequence[float] = GRID_T,
    d_values: Sequence[float] = GRID_D,
    alphas: Sequence[float] = GRID_ALPHA,
    gamma: float = 1.0,
) -> List[CheckResult]:
    """Compare site-wise probabilities from the three routes on a grid.

    Exact vs spectral must agree within 1e-10, exact vs RK4 within 1e-8.
    Each time is compared on its own light-cone window.
    """
    points = [WalkParams(gamma=gamma, alpha=a, delocalization=d) for d in d_values for a in alphas]
    base = WalkParams(gamma=gamma)
    # one RK4 pass for all points, on the window of the latest time
    checkpoints = sorted(times)
    outer = window_for(base, checkpoints[-1])
    snapshots = propagate_ode_batch(points, outer, OdeSpec.default_for(base), checkpoints)
    ode_amps = dict(zip(checkpoints, snapshots))
    results = []
    for t in times:
        window = window_for(base, t)
        lo, hi = outer.index(-window.half_width), outer.index(window.half_width)
        _check_window_edges(ode_amps[t], lo, hi, points, t)
        ring = RingSpec.for_run(base, t)
        for params, amps in zip(points, ode_amps[t]):
            p_exact = analytic_probability(params, window, t)
            p_spec = propagate_spectral(params, ring, t, window).probabilities()
            p_ode = np.abs(amps[lo : hi + 1]) ** 2
            tag = f"D={params.delocalization} alpha={params.alpha:.4f} gt={gamma * t:g}"
            results.append(
                CheckResult(
                    f"exact-vs-spectral {tag}",
                    float(abs(p_exact - p_spec).max()),
                    SPECTRAL_TOL,
                )
            )
            results.append(
                CheckResult(
                    f"exact-vs-ode {tag}",
                    float(abs(p_exact - p_ode).max()),
                    ODE_TOL,
                )
            )
    return results
