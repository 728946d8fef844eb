import math

import numpy as np
import pytest

from ctqw import (
    LatticeWindow,
    OdeSpec,
    RingSpec,
    WalkParams,
    backfire_ordering,
    crossing_time,
    fit_power_law,
    initial_state_position,
    mean_velocity,
    msd_closed_form,
    observables_from_amplitudes,
    smoothed_survival,
    survival_exact,
    window_for,
)
from oracles import analytic_amplitudes, ode_amplitudes, spectral_amplitudes

PI = math.pi


class TestMeanVelocity:
    def test_examples(self):
        assert mean_velocity(WalkParams(alpha=1.3, delocalization=0.0)) == 0.0
        assert mean_velocity(WalkParams(alpha=1.3, delocalization=1.0)) == 0.0
        assert mean_velocity(WalkParams(alpha=PI / 2, delocalization=0.5)) == pytest.approx(
            -math.sqrt(2), abs=1e-15
        )

    def test_taxonomy(self):
        # zero iff D in {0,1} or sin(alpha) = 0
        for d in (0.0, 0.25, 0.5, 0.75, 1.0):
            for a in (0.0, PI / 6, PI / 2, PI, 2.5):
                v = mean_velocity(WalkParams(alpha=a, delocalization=d))
                biased = 0.0 < d < 1.0 and abs(math.sin(a)) > 1e-12
                assert (abs(v) > 1e-12) == biased

    def test_maximal_drift_at_half(self):
        ds = np.linspace(0.0, 1.0, 1001)
        speeds = [abs(mean_velocity(WalkParams(alpha=0.9, delocalization=float(d)))) for d in ds]
        assert ds[int(np.argmax(speeds))] == pytest.approx(0.5, abs=1e-12)


class TestMsdClosedForm:
    def test_examples(self):
        assert msd_closed_form(WalkParams(), 1.0) == pytest.approx(2.0)
        assert msd_closed_form(WalkParams(alpha=2.2, delocalization=0.7), 0.0) == pytest.approx(0.7)
        assert msd_closed_form(WalkParams(alpha=PI / 2, delocalization=0.5), 2.0) == pytest.approx(10.5)

    def test_crossing_point_is_d_independent(self):
        for a in (0.0, 0.3, PI / 6):
            tc = crossing_time(a)
            vals = {msd_closed_form(WalkParams(alpha=a, delocalization=d), tc) for d in (0.0, 0.5, 1.0)}
            assert max(vals) - min(vals) < 1e-10

    def test_numeric_msd_matches_closed_form(self):
        for d, a, t in [(0.3, PI / 6, 1.0), (0.5, PI / 2, 10.0), (1.0, 0.0, 10.0)]:
            params = WalkParams(alpha=a, delocalization=d)
            window = window_for(params, t)
            expected = msd_closed_form(params, t)
            spec = spectral_amplitudes(params, RingSpec.for_run(params, t), window, [t])
            _, (msd,), _ = observables_from_amplitudes(window, spec)
            assert msd == pytest.approx(expected, rel=1e-6)
            ode = ode_amplitudes(params, window, OdeSpec.default_for(params), [t])
            _, (msd,), _ = observables_from_amplitudes(window, ode)
            assert msd == pytest.approx(expected, rel=1e-6)


class TestCrossingTime:
    def test_examples(self):
        assert crossing_time(0.0) == pytest.approx(1.0)
        assert crossing_time(PI / 6) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert crossing_time(PI / 2) == math.inf

    def test_boundary_counts_as_no_crossing(self):
        assert crossing_time(PI / 4) == math.inf
        assert crossing_time(3 * PI / 4) == math.inf


class TestObservablesFromState:
    def test_initial_moments(self):
        window = LatticeWindow(3)
        for d, msd in [(1.0, 1.0), (0.5, 0.5), (0.0, 0.0)]:
            amps = initial_state_position(WalkParams(delocalization=d), window)
            (mean,), (msd_val,), (surv,) = observables_from_amplitudes(window, amps[None, :])
            assert mean == pytest.approx(0.0, abs=1e-15)
            assert msd_val == pytest.approx(msd, abs=1e-15)
            assert surv == pytest.approx(1.0, abs=1e-15)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            observables_from_amplitudes(LatticeWindow(2), np.ones((1, 5), dtype=complex))

    def test_series_invariants(self):
        params = WalkParams(alpha=0.7, delocalization=0.4)
        window = window_for(params, 5.0)
        ring = RingSpec.for_run(params, 5.0)
        amps = spectral_amplitudes(params, ring, window, np.linspace(0, 5, 6))
        mean, msd, _ = observables_from_amplitudes(window, amps)
        assert mean[0] == pytest.approx(0.0, abs=1e-12)
        assert msd[0] == pytest.approx(0.4, abs=1e-12)
        assert np.all(msd >= 0)


def _source_matrices(params, window, times):
    ring = RingSpec.for_run(params, max(times))
    ode = OdeSpec.default_for(params)
    return {
        "analytic": analytic_amplitudes(params, window, times),
        "spectral": spectral_amplitudes(params, ring, window, times),
        "ode": ode_amplitudes(params, window, ode, times),
    }


class TestObservablesFromAmplitudes:
    @pytest.mark.parametrize("d, a", [(0.0, 0.0), (0.5, PI / 2), (1.0, PI / 6), (0.3, 2.2)])
    def test_rows_equal_one_state_bit_for_bit(self, d, a):
        params = WalkParams(alpha=a, delocalization=d)
        times = np.linspace(0.0, 2.0, 5)
        window = window_for(params, 2.0)
        for source, amps in _source_matrices(params, window, times).items():
            mean, msd, surv = observables_from_amplitudes(window, amps)
            assert mean.shape == msd.shape == surv.shape == (times.size,)
            for i, t in enumerate(times):
                row = observables_from_amplitudes(window, amps[i : i + 1])
                assert (mean[i], msd[i], surv[i]) == tuple(float(r[0]) for r in row), (source, t)

    def test_rejects_an_unnormalized_row(self):
        params = WalkParams(alpha=0.4, delocalization=0.5)
        window = window_for(params, 1.0)
        amps = analytic_amplitudes(params, window, [0.0, 0.5, 1.0])
        amps[1] *= 1.01
        with pytest.raises(ValueError, match="is not 1"):
            observables_from_amplitudes(window, amps)


class TestEhrenfest:
    def test_mean_position_is_linear(self):
        rng = np.random.default_rng(3)
        for _ in range(2):
            params = WalkParams(
                gamma=float(rng.uniform(0.5, 2.0)),
                alpha=float(rng.uniform(0, 2 * PI)),
                delocalization=float(rng.uniform(0, 1)),
            )
            t_max = 50.0 / params.gamma
            times = np.linspace(0.0, t_max, 26)
            window = window_for(params, t_max)
            ring = RingSpec.for_run(params, t_max)
            means = observables_from_amplitudes(
                window, spectral_amplitudes(params, ring, window, times)
            )[0]
            slope, intercept = np.polyfit(times, means, 1)
            assert slope == pytest.approx(mean_velocity(params), abs=1e-6)
            assert np.abs(means - (slope * times + intercept)).max() < 1e-8


class TestBackfireOrdering:
    def test_pre_crossing(self):
        rep = backfire_ordering(0.0, 0.5, [0.0, 0.5, 1.0])
        assert rep.trend == "increasing"
        assert rep.consistent

    def test_post_crossing(self):
        rep = backfire_ordering(0.0, 2.0, [0.0, 0.5, 1.0])
        assert rep.trend == "decreasing"
        assert rep.consistent

    def test_at_crossing(self):
        rep = backfire_ordering(0.0, 1.0, [0.0, 0.5, 1.0])
        assert rep.trend == "constant"
        assert rep.consistent

    def test_no_crossing_phase(self):
        for t in (0.1, 1.0, 10.0, 50.0):
            rep = backfire_ordering(PI / 2, t, [0.0, 0.5, 1.0])
            assert rep.trend == "increasing"
            assert rep.consistent

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            backfire_ordering(0.0, -1.0, [0.0, 1.0])
        with pytest.raises(ValueError):
            backfire_ordering(0.0, 1.0, [0.5, 0.5])


class TestPowerLawFit:
    def test_exact_power_law(self):
        ts = np.geomspace(50, 500, 40)
        fit = fit_power_law(ts, 0.7 * ts**-2.0, (50.0, 500.0))
        assert fit.slope == pytest.approx(-2.0, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(0.7), abs=1e-9)
        assert fit.residual < 1e-12

    def test_survival_slopes(self):
        ts = np.geomspace(50, 500, 64)
        generic = smoothed_survival(WalkParams(alpha=PI / 2, delocalization=0.5), ts)
        assert fit_power_law(ts, generic, (50.0, 500.0)).slope == pytest.approx(-1.0, abs=0.05)
        fine = smoothed_survival(WalkParams(alpha=PI / 2, delocalization=1.0), ts)
        assert fit_power_law(ts, fine, (50.0, 500.0)).slope == pytest.approx(-3.0, abs=0.05)

    def test_smoothing_removes_oscillation(self):
        params = WalkParams(alpha=PI / 2, delocalization=0.5)
        ts = np.geomspace(50, 500, 64)
        smooth = smoothed_survival(params, ts)
        # one value per time, a scalar time included
        assert smooth.shape == ts.shape
        assert smoothed_survival(params, ts[5]) == pytest.approx(smooth[5], rel=1e-12)
        # smoothed curve times t is nearly constant; the raw one oscillates hard
        ratio = smooth * ts
        assert ratio.max() / ratio.min() < 1.05
        raw = survival_exact(params, ts)
        assert (raw * ts).max() / (raw * ts).min() > 1.5

    def test_rejects_sparse_window(self):
        ts = np.geomspace(50, 500, 10)
        with pytest.raises(ValueError):
            fit_power_law(ts, survival_exact(WalkParams(), ts), (50.0, 500.0))

    @pytest.mark.parametrize(
        "values",
        [np.zeros(20), np.r_[np.ones(19), np.nan], np.r_[np.ones(19), np.inf], np.ones(19)],
        ids=["zero", "nan", "inf", "shape-mismatch"],
    )
    def test_rejects_nonpositive_samples(self, values):
        ts = np.geomspace(50, 500, 20)
        with pytest.raises(ValueError):
            fit_power_law(ts, values, (50.0, 500.0))

    def test_rejects_infinite_time_in_window(self, capfd):
        # refused before np.polyfit, whose LAPACK call would print to stderr
        ts = np.r_[np.geomspace(50, 500, 20), np.inf]
        with pytest.raises(ValueError, match="non-finite times"):
            fit_power_law(ts, np.ones(21), (50.0, math.inf))
        assert capfd.readouterr().err == ""

    def test_rejects_bad_window(self):
        ts = np.geomspace(50, 500, 20)
        with pytest.raises(ValueError):
            fit_power_law(ts, survival_exact(WalkParams(), ts), (500.0, 50.0))
