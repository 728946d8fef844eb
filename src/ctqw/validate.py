"""Cross-validation of the closed form against both numerical propagators."""

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .analytic import analytic_blocks
from .model import LatticeWindow, WalkParams, window_for
from .propagators import OdeSpec, RingSpec, check_rows, propagate_ode_blocks, spectral_blocks

GRID_D = (0.0, 0.3, 0.5, 1.0)
GRID_ALPHA = (0.0, math.pi / 6, math.pi / 4, math.pi / 2)
GRID_T = (1.0, 10.0, 50.0)
QUICK_T = (1.0, 5.0)  # validate --quick

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


def triangle_plan(
    times: Sequence[float] = GRID_T,
    d_values: Sequence[float] = GRID_D,
    alphas: Sequence[float] = GRID_ALPHA,
    gamma: float = 1.0,
) -> Tuple[List[WalkParams], LatticeWindow, OdeSpec, Sequence[float]]:
    """The triangle's (D, alpha) points, the window and step of its one RK4 pass
    over all of them (the latest time's window, the default step), and its times."""
    points = [WalkParams(gamma=gamma, alpha=a, delocalization=d) for d in d_values for a in alphas]
    base = WalkParams(gamma=gamma)
    return points, window_for(base, max(times)), OdeSpec.default_for(base), times


def oracle_triangle(*plan, **grid) -> List[CheckResult]:
    """Compare site-wise probabilities from the three routes over the triangle_plan
    given, as in oracle_triangle(*triangle_plan()), or made by triangle_plan(**grid).

    Exact vs spectral must agree within 1e-10, exact vs RK4 within 1e-8.
    Each time is compared on its own light-cone window.
    """
    points, outer, ode, times = plan or triangle_plan(**grid)
    checkpoints = sorted(times)
    rk4 = next(propagate_ode_blocks(points, outer, ode, checkpoints, len(checkpoints)))  # one pass
    ode_amps = dict(zip(checkpoints, rk4))
    results = []
    for t in times:
        window = window_for(points[0], t)  # the triangle's points share one gamma
        lo, hi = outer.index(-window.half_width), outer.index(window.half_width)
        # RK4 ran on the latest time's window; each earlier window is checked
        # as a run on it would be
        check_rows(ode_amps[t], points, t, lo, hi)
        exact = np.abs(next(analytic_blocks(points, window, [t], 1))[0]) ** 2
        spectral = next(spectral_blocks(points, RingSpec.for_run(points[0], t), window, [t], 1))[0]
        worst = [abs(exact - np.abs(amps) ** 2).max(axis=1)  # per point; max is exact
                 for amps in (spectral, ode_amps[t][:, lo : hi + 1])]
        for params, *devs in zip(points, *worst):
            tag = f"D={params.delocalization} alpha={params.alpha:.4f} gt={params.gamma * t:g}"
            for route, dev, tol in zip(("spectral", "ode"), devs, (SPECTRAL_TOL, ODE_TOL)):
                results.append(CheckResult(f"exact-vs-{route} {tag}", float(dev), tol))
    return results
