"""Continuous-time quantum walk on a 1D chain with a complex hopping phase
and a tunable delocalized initial state: exact solution, two independent
numerical propagators, and transport observables."""

__version__ = "0.1.0"

from .analytic import (
    SurvivalCurve,
    analytic_amplitudes,
    analytic_probability,
    analytic_wavefunction,
    is_fine_tuned,
    survival_asymptotic,
    survival_exact,
)
from .bessel import bessel_row, bessel_row_batch, bessel_rows
from .model import (
    LatticeWindow,
    NumericalValidationError,
    UndersizedGridError,
    WalkParams,
    WaveState,
    dispersion,
    group_velocity,
    initial_state_momentum,
    initial_state_position,
    light_cone_half_width,
    window_for,
)
from .observables import (
    OrderingReport,
    PowerLawFit,
    backfire_ordering,
    crossing_time,
    fit_power_law,
    mean_velocity,
    msd_closed_form,
    observables_from_amplitudes,
    observables_from_state,
    smoothed_survival,
)
from .propagators import (
    OdeSpec,
    RingSpec,
    propagate_ode,
    propagate_ode_batch,
    propagate_spectral,
    spectral_amplitudes,
)
from .validate import oracle_triangle

__all__ = [
    "SurvivalCurve",
    "analytic_amplitudes",
    "analytic_probability",
    "analytic_wavefunction",
    "is_fine_tuned",
    "survival_asymptotic",
    "survival_exact",
    "bessel_row",
    "bessel_row_batch",
    "bessel_rows",
    "LatticeWindow",
    "NumericalValidationError",
    "UndersizedGridError",
    "WalkParams",
    "WaveState",
    "dispersion",
    "group_velocity",
    "initial_state_momentum",
    "initial_state_position",
    "light_cone_half_width",
    "window_for",
    "OrderingReport",
    "PowerLawFit",
    "backfire_ordering",
    "crossing_time",
    "fit_power_law",
    "mean_velocity",
    "msd_closed_form",
    "observables_from_amplitudes",
    "observables_from_state",
    "smoothed_survival",
    "OdeSpec",
    "RingSpec",
    "propagate_ode",
    "propagate_ode_batch",
    "propagate_spectral",
    "spectral_amplitudes",
    "oracle_triangle",
]
