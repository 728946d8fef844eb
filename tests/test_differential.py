"""Differential test: the closed form against both numerical routes and the
closed-form observables, at drawn parameters.

A wrong table with exit code 0 passes the CLI's exit-code fuzz test; here
every route's probabilities and observables are compared value by value.
The draws stay far inside ``cli.LIMITS``: gamma*t of at most 300 needs a
window of about 700 sites and a ring of 2048. Seeded, so tier-1 stays
deterministic.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctqw import (
    OdeSpec,
    RingSpec,
    WalkParams,
    mean_velocity,
    msd_closed_form,
    observables_from_amplitudes,
    survival_exact,
    window_for,
)
from ctqw.validate import ODE_TOL, SPECTRAL_TOL
from oracles import analytic_amplitudes, ode_amplitudes, spectral_amplitudes

# RK4 is compared only up to this gamma*t: at most 1000 steps of the default
# gamma*h = 1e-3, on a window of about 90 sites
ODE_MAX_GT = 1.0


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# phases past pi up to the largest that WalkParams admits, and with the small ones, all
PAST_PI = _log_uniform(math.pi, 1e300).flatmap(lambda a: st.sampled_from([a, -a]))
PHASES = st.one_of(st.floats(-2 * math.pi, 2 * math.pi), PAST_PI)


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    gamma=_log_uniform(1e-3, 1e3),
    alpha=PHASES,
    d=st.floats(0.0, 1.0),
    gts=st.lists(_log_uniform(1e-8, 300.0), min_size=1, max_size=4),
)
def test_routes_and_closed_forms_agree(gamma, alpha, d, gts):
    params = WalkParams(gamma=gamma, alpha=alpha, delocalization=d)
    times = np.sort(np.array(gts) / gamma)
    window = window_for(params, times[-1])
    exact = analytic_amplitudes(params, window, times)
    p_exact = np.abs(exact) ** 2

    spectral = spectral_amplitudes(params, RingSpec.for_run(params, times[-1]), window, times)
    assert np.abs(np.abs(spectral) ** 2 - p_exact).max() < SPECTRAL_TOL

    if gamma * times[-1] <= ODE_MAX_GT:
        ode = ode_amplitudes(params, window, OdeSpec.default_for(params), times)
        assert np.abs(np.abs(ode) ** 2 - p_exact).max() < ODE_TOL

    msd_law = msd_closed_form(params, times)
    survival_law = survival_exact(params, times)
    for amps in (exact, spectral):
        mean, msd, survival = observables_from_amplitudes(window, amps)
        spread = 1 + np.sqrt(msd_law)
        assert np.all(np.abs(mean - mean_velocity(params) * times) <= 1e-12 * spread)
        assert np.all(np.abs(msd - msd_law) <= 1e-12 * msd_law + 1e-13)
        assert np.all(np.abs(survival - survival_law) <= 1e-13)


@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    gamma=_log_uniform(1e-3, 1e3),
    alpha=PAST_PI,
    d=st.floats(0.0, 1.0),
    gts=st.lists(_log_uniform(1e-8, 300.0), min_size=1, max_size=4),
)
def test_routes_agree_on_amplitudes_past_pi(gamma, alpha, d, gts):
    # re and im, which |psi|^2 does not see: the phase alpha * x of a full-mantissa alpha
    # rounds by |alpha x| * 1.1e-16 radians unless alpha is first brought within +-pi
    params = WalkParams(gamma=gamma, alpha=alpha, delocalization=d)
    times = np.sort(np.array(gts) / gamma)
    window = window_for(params, times[-1])
    exact = analytic_amplitudes(params, window, times)

    spectral = spectral_amplitudes(params, RingSpec.for_run(params, times[-1]), window, times)
    assert np.abs(spectral - exact).max() < SPECTRAL_TOL

    if gamma * times[-1] <= ODE_MAX_GT:
        ode = ode_amplitudes(params, window, OdeSpec.default_for(params), times)
        assert np.abs(ode - exact).max() < ODE_TOL
