"""Transport observables, backfire ordering, and power-law fitting."""

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .analytic import SurvivalCurve, _survival_values
from .model import LatticeWindow, WalkParams, WaveState

# Half period (in gamma*t) of the J_n(2 gamma t)^2 oscillations; the
# smoothing window spans one full oscillation.
SMOOTHING_HALF_WIDTH = math.pi / 4.0
_NORM_STATE_LIMIT = 1e-6


@dataclass
class PowerLawFit:
    """OLS fit of log(value) vs log(t) over a time window."""

    slope: float
    intercept: float
    residual: float
    window: Tuple[float, float]


@dataclass
class OrderingReport:
    """How the MSD depends on the delocalization D at a fixed time."""

    trend: str  # increasing | decreasing | constant
    derivative: float  # d MSD / d D, independent of D
    d_values: Tuple[float, ...]
    msd_values: Tuple[float, ...]
    consistent: bool  # derivative sign agrees with the actual values


def mean_velocity(params: WalkParams) -> float:
    """Constant drift velocity <v_g> = -2 gamma sin(alpha) sqrt(2D(1-D))."""
    d = params.delocalization
    return -2.0 * params.gamma * math.sin(params.alpha) * math.sqrt(2.0 * d * (1.0 - d))


def msd_closed_form(params: WalkParams, t):
    """MSD(t) = D + 2 gamma^2 t^2 (1 - D/2 + D sin^2 alpha)."""
    t = np.asarray(t, dtype=float)
    d = params.delocalization
    sin2 = math.sin(params.alpha) ** 2
    out = d + 2.0 * params.gamma**2 * t**2 * (1.0 - d / 2.0 + d * sin2)
    return out if out.shape else float(out)


def crossing_time(alpha: float) -> Optional[float]:
    """Dimensionless gamma*t at which the MSD becomes independent of D.

    Exists only for sin^2(alpha) < 1/2; None otherwise (the boundary
    sin^2 = 1/2, where the expression diverges, counts as no crossing).
    """
    c = 1.0 - 2.0 * math.sin(alpha) ** 2
    # tolerance so the boundary classifies correctly despite rounding in sin
    if c <= 1e-12:
        return None
    return 1.0 / math.sqrt(c)


def observables_from_amplitudes(window: LatticeWindow, amplitudes: np.ndarray):
    """(mean position, MSD, survival probability) arrays, one entry per row
    of a (times x sites) matrix of unit-norm states on the window."""
    p = np.abs(amplitudes) ** 2
    norms = p.sum(axis=1)
    off = np.flatnonzero(np.abs(norms - 1.0) > _NORM_STATE_LIMIT)
    if off.size:
        raise ValueError(f"state norm^2 = {norms[off[0]]:.9f} is not 1; upstream evolution invalid")
    xs = window.sites()
    c = window.index(0)
    mean = np.sum(xs * p, axis=1)
    msd = np.sum(xs.astype(float) ** 2 * p, axis=1)
    return mean, msd, p[:, c - 1] + p[:, c] + p[:, c + 1]


# The benchmark's layer tracer (perfbench/layers.py) binds the observables
# layer by this name; the alias goes when its TRACED list names
# observables_from_amplitudes (ROADMAP item 1).
series_from_states = observables_from_amplitudes


def observables_from_state(state: WaveState) -> Tuple[float, float, float]:
    """(mean position, MSD, survival probability) of a unit-norm state."""
    rows = observables_from_amplitudes(state.window, state.amplitudes[None, :])
    return tuple(float(r[0]) for r in rows)


def backfire_ordering(
    alpha: float, t: float, d_values: Sequence[float], gamma: float = 1.0
) -> OrderingReport:
    """Report whether MSD grows or shrinks with D at time t.

    The closed form gives d MSD / d D = 1 - (gamma t)^2 (1 - 2 sin^2 alpha),
    independent of D; the supplied d_values are evaluated as a secondary
    confirmation of the sign.
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    d_values = tuple(d_values)
    if len(set(d_values)) != len(d_values):
        raise ValueError("d_values must be distinct")
    deriv = 1.0 - (gamma * t) ** 2 * (1.0 - 2.0 * math.sin(alpha) ** 2)
    if abs(deriv) <= 1e-12:
        trend = "constant"
    elif deriv > 0:
        trend = "increasing"
    else:
        trend = "decreasing"

    msds = tuple(
        float(msd_closed_form(WalkParams(gamma=gamma, alpha=alpha, delocalization=d), t))
        for d in d_values
    )
    order = sorted(range(len(d_values)), key=lambda i: d_values[i])
    diffs = [msds[order[i + 1]] - msds[order[i]] for i in range(len(order) - 1)]
    if trend == "increasing":
        consistent = all(x > 0 for x in diffs)
    elif trend == "decreasing":
        consistent = all(x < 0 for x in diffs)
    else:
        consistent = all(abs(x) <= 1e-10 for x in diffs)
    return OrderingReport(trend, deriv, d_values, msds, consistent)


def smoothed_survival(
    params: WalkParams, times, n_quad: int = 48
) -> SurvivalCurve:
    """Survival probability averaged over one Bessel oscillation period.

    Each sample becomes the mean of the exact curve over a window of total
    width pi/2 in gamma*t centered on the sample (midpoint rule).
    """
    times = np.asarray(times, dtype=float)
    half = SMOOTHING_HALF_WIDTH / params.gamma
    if np.any(times - half < 0):
        raise ValueError("smoothing window extends below t = 0")
    offsets = ((np.arange(n_quad) + 0.5) / n_quad * 2.0 - 1.0) * half
    grid = times[:, None] + offsets[None, :]
    vals = _survival_values(params, grid.ravel()).reshape(grid.shape)
    return SurvivalCurve(times=times, values=vals.mean(axis=1), params=params)


def fit_power_law(
    curve: SurvivalCurve, window: Tuple[float, float], smooth: bool = True
) -> PowerLawFit:
    """OLS of log(P) vs log(t) over the window.

    With smooth=True (and a curve carrying its parameters) the samples are
    first oscillation-averaged; synthetic curves are fitted as given.
    """
    t_lo, t_hi = window
    if not 0 < t_lo < t_hi:
        raise ValueError(f"window must satisfy 0 < t_lo < t_hi, got {window}")
    mask = (curve.times >= t_lo) & (curve.times <= t_hi)
    if mask.sum() < 16:
        raise ValueError(f"need at least 16 samples in the window, got {int(mask.sum())}")
    ts = curve.times[mask]
    if smooth and curve.params is not None:
        vals = smoothed_survival(curve.params, ts).values
    else:
        vals = curve.values[mask]
    if np.any(vals <= 0):
        raise ValueError("window contains nonpositive samples")
    logt = np.log(ts)
    logv = np.log(vals)
    slope, intercept = np.polyfit(logt, logv, 1)
    resid = float(np.sqrt(np.mean((logv - (slope * logt + intercept)) ** 2)))
    return PowerLawFit(float(slope), float(intercept), resid, (float(t_lo), float(t_hi)))
