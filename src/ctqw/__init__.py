"""Continuous-time quantum walk on a 1D chain with a complex hopping phase
and a tunable delocalized initial state: exact solution, two independent
numerical propagators, and transport observables."""

__version__ = "0.1.0"

from .analytic import is_fine_tuned, survival_asymptotic, survival_exact, survival_exact_batch
from .bessel import bessel_row, bessel_row_batch, bessel_rows
from .model import (
    ConfigError,
    LatticeWindow,
    NumericalValidationError,
    Refusal,
    UndersizedGridError,
    WalkParams,
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
    smoothed_survival,
)
from .propagators import OdeSpec, RingSpec
from .validate import oracle_triangle

__all__ = [
    "is_fine_tuned",
    "survival_asymptotic",
    "survival_exact",
    "survival_exact_batch",
    "bessel_row",
    "bessel_row_batch",
    "bessel_rows",
    "ConfigError",
    "LatticeWindow",
    "NumericalValidationError",
    "Refusal",
    "UndersizedGridError",
    "WalkParams",
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
    "smoothed_survival",
    "OdeSpec",
    "RingSpec",
    "oracle_triangle",
]
