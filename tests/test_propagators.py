import math

import numpy as np
import pytest

from ctqw import (
    LatticeWindow,
    NumericalValidationError,
    OdeSpec,
    RingSpec,
    UndersizedGridError,
    WalkParams,
    WaveState,
    analytic_probability,
    initial_state_position,
    observables_from_state,
    propagate_ode,
    propagate_ode_batch,
    propagate_spectral,
    spectral_amplitudes,
    window_for,
)

PI = math.pi


class TestRingSpec:
    def test_sizing(self):
        ring = RingSpec.for_run(WalkParams(), 50.0)
        assert ring.size >= 2 * 140 + 3
        assert ring.size & (ring.size - 1) == 0  # power of two

    def test_validation(self):
        with pytest.raises(ValueError):
            RingSpec(2)
        with pytest.raises(UndersizedGridError):
            RingSpec(64).validate_for(WalkParams(), 50.0)


class TestSpectral:
    def test_identity_at_time_zero(self):
        params = WalkParams(alpha=0.6, delocalization=0.4)
        window = LatticeWindow(5)
        state = propagate_spectral(params, RingSpec(64), 0.0, window)
        expected = initial_state_position(params, window).amplitudes
        assert np.allclose(state.amplitudes, expected, rtol=0, atol=1e-14)

    def test_norm_preservation(self):
        params = WalkParams(gamma=1.3, alpha=1.9, delocalization=0.8)
        ring = RingSpec.for_run(params, 40.0)
        state = propagate_spectral(params, ring, 40.0)
        assert abs(state.norm_squared() - 1.0) < 1e-13

    def test_matches_analytic(self):
        for d, a, t in [(0.0, 0.0, 5.0), (0.5, PI / 4, 12.0), (1.0, PI / 2, 25.0)]:
            params = WalkParams(alpha=a, delocalization=d)
            window = window_for(params, t)
            ring = RingSpec.for_run(params, t)
            p_spec = propagate_spectral(params, ring, t, window).probabilities()
            p_exact = analytic_probability(params, window, t)
            assert np.abs(p_spec - p_exact).max() < 1e-10

    def test_drift_example(self):
        params = WalkParams(alpha=PI / 2, delocalization=0.5)
        state = propagate_spectral(params, RingSpec.for_run(params, 50.0), 50.0)
        mean, _, _ = observables_from_state(state)
        assert mean == pytest.approx(-math.sqrt(2) * 50.0, abs=1e-8)

    def test_time_reversal(self):
        params = WalkParams(alpha=0.8, delocalization=0.6)
        ring = RingSpec.for_run(params, 7.0)
        window = window_for(params, 7.0)
        fwd = propagate_spectral(params, ring, 7.0, window)
        back = propagate_spectral(params, ring, -7.0, window, initial=fwd)
        expected = initial_state_position(params, window).amplitudes
        assert np.allclose(back.amplitudes, expected, rtol=0, atol=1e-12)
        assert back.time == pytest.approx(0.0)

    def test_rejects_undersized_ring(self):
        with pytest.raises(UndersizedGridError):
            propagate_spectral(WalkParams(), RingSpec(32), 50.0)


class TestSpectralAmplitudes:
    def test_rows_equal_one_time_calls_bit_for_bit(self):
        times = [3.5, 0.0, 12.0, 0.25, 7.0]  # unsorted, with t = 0
        for d, a in [(0.0, 0.0), (0.5, PI / 2), (1.0, PI / 6), (0.3, 2.2)]:
            params = WalkParams(alpha=a, delocalization=d)
            window = window_for(params, 12.0)
            ring = RingSpec.for_run(params, 12.0)
            amps = spectral_amplitudes(params, ring, window, times)
            assert amps.shape == (len(times), window.n_sites)
            for row, t in zip(amps, times):
                assert np.array_equal(row, propagate_spectral(params, ring, t, window).amplitudes)

    def test_initial_state_and_negative_time_through_the_wrapper(self):
        params = WalkParams(alpha=0.8, delocalization=0.6)
        ring = RingSpec.for_run(params, 7.0)
        window = window_for(params, 7.0)
        fwd = propagate_spectral(params, ring, 7.0, window)
        times = [-7.0, 0.0, -2.5]
        amps = spectral_amplitudes(params, ring, window, times, initial=fwd)
        for row, t in zip(amps, times):
            back = propagate_spectral(params, ring, t, window, initial=fwd)
            assert np.array_equal(row, back.amplitudes)
            assert back.time == 7.0 + t

    def test_initial_state_of_any_norm_keeps_its_norm(self):
        params = WalkParams(alpha=0.8, delocalization=0.6)
        ring = RingSpec.for_run(params, 7.0)
        window = window_for(params, 7.0)
        seed = initial_state_position(params, window)
        half = WaveState(time=0.0, window=window, amplitudes=0.5 * seed.amplitudes)
        times = [0.0, 3.0, 7.0]
        amps = spectral_amplitudes(params, ring, window, times, initial=half)
        # scaling by 1/2 is exact, and the FFTs are linear
        assert np.array_equal(amps, 0.5 * spectral_amplitudes(params, ring, window, times))
        assert np.allclose(np.sum(np.abs(amps) ** 2, axis=1), 0.25, rtol=0, atol=1e-13)
        with pytest.raises(UndersizedGridError, match=r"half_width=5 leaks norm .* at t=7\.0$"):
            spectral_amplitudes(params, ring, LatticeWindow(5), [7.0], initial=half)

    def test_names_the_first_leaking_time(self):
        params = WalkParams(alpha=0.3, delocalization=0.5)
        ring = RingSpec.for_run(params, 20.0)
        window = LatticeWindow(5)
        assert spectral_amplitudes(params, ring, window, [0.0, 0.1]).shape == (2, 11)
        with pytest.raises(UndersizedGridError, match=r"half_width=5 leaks norm .* at t=10\.0$"):
            spectral_amplitudes(params, ring, window, [0.1, 10.0, 0.0, 20.0])

    def test_undersized_ring_names_the_farthest_time(self):
        with pytest.raises(UndersizedGridError, match=r"at t=-50\.0 "):
            spectral_amplitudes(WalkParams(), RingSpec(64), LatticeWindow(5), [0.0, -50.0, 5.0])


class TestOde:
    def test_identity_at_time_zero(self):
        params = WalkParams(alpha=1.0, delocalization=0.3)
        window = LatticeWindow(4)
        state = propagate_ode(params, window, OdeSpec(1e-3), 0.0)
        expected = initial_state_position(params, window).amplitudes
        assert np.array_equal(state.amplitudes, expected)

    def test_matches_analytic(self):
        params = WalkParams(alpha=0.0, delocalization=1.0)
        window = window_for(params, 10.0)
        state = propagate_ode(params, window, OdeSpec.default_for(params), 10.0)
        p_exact = analytic_probability(params, window, 10.0)
        assert np.abs(state.probabilities() - p_exact).max() < 1e-8

    def test_msd_example(self):
        # MSD(gt=20) = 0.5 + 2*400*(1 - 0.25 + 0.25) = 800.5
        params = WalkParams(alpha=PI / 4, delocalization=0.5)
        window = window_for(params, 20.0)
        state = propagate_ode(params, window, OdeSpec.default_for(params), 20.0)
        _, msd, _ = observables_from_state(state)
        assert msd == pytest.approx(800.5, rel=1e-5)

    def test_partial_final_step(self):
        params = WalkParams(alpha=0.5, delocalization=0.4)
        t = 1.00037  # not a multiple of the step
        window = window_for(params, t)
        state = propagate_ode(params, window, OdeSpec(1e-3), t)
        p_exact = analytic_probability(params, window, t)
        assert np.abs(state.probabilities() - p_exact).max() < 1e-9

    def test_norm_drift_bounded(self):
        params = WalkParams(gamma=1.5, alpha=2.0, delocalization=0.7)
        window = window_for(params, 10.0)
        state = propagate_ode(params, window, OdeSpec.default_for(params), 10.0)
        assert abs(state.norm_squared() - 1.0) < 1e-9

    def test_convergence_order_is_four(self):
        params = WalkParams(alpha=PI / 6, delocalization=0.5)
        t = 2.0
        window = window_for(params, t)
        ring = RingSpec.for_run(params, t)
        ref = propagate_spectral(params, ring, t, window).amplitudes
        errs = []
        for h in (0.01, 0.005):
            psi = propagate_ode(params, window, OdeSpec(h), t).amplitudes
            errs.append(np.abs(psi - ref).max())
        order = math.log2(errs[0] / errs[1])
        assert order == pytest.approx(4.0, abs=0.3)

    def test_rejects_undersized_window(self):
        with pytest.raises(UndersizedGridError):
            propagate_ode(WalkParams(), LatticeWindow(10), OdeSpec(1e-3), 20.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            propagate_ode(WalkParams(), LatticeWindow(50), OdeSpec(1e-3), -1.0)

    def test_ode_sign_convention_gives_negative_drift(self):
        # for 0 < D < 1 and alpha = pi/2 the drift must be negative
        params = WalkParams(alpha=PI / 2, delocalization=0.5)
        window = window_for(params, 3.0)
        state = propagate_ode(params, window, OdeSpec.default_for(params), 3.0)
        mean, _, _ = observables_from_state(state)
        assert mean < -1.0


GRID_ROWS = [
    WalkParams(alpha=a, delocalization=d)
    for d in (0.0, 0.3, 0.5, 1.0)
    for a in (0.0, PI / 6, PI / 4, PI / 2)
]


class TestOdeBatch:
    def test_rows_equal_single_runs(self):
        window, ode, t = window_for(WalkParams(), 2.0), OdeSpec(1e-3), 2.0
        batch = propagate_ode_batch(GRID_ROWS, window, ode, [t])
        assert batch.shape == (1, 16, window.n_sites)
        for params, row in zip(GRID_ROWS, batch[0]):
            assert np.array_equal(row, propagate_ode(params, window, ode, t).amplitudes)

    def test_checkpoints_equal_runs_from_zero(self):
        # checkpoints that are multiples of the step take the same steps
        params = WalkParams(alpha=0.9, delocalization=0.6)
        window, ode = window_for(params, 3.0), OdeSpec(1e-3)
        times = [0.0, 0.5, 1.25, 3.0]
        snapshots = propagate_ode_batch([params], window, ode, times)
        for t, snap in zip(times, snapshots):
            assert np.array_equal(snap[0], propagate_ode(params, window, ode, t).amplitudes)

    def test_checkpoints_equal_chained_restarts(self):
        params = WalkParams(alpha=1.1, delocalization=0.37)
        window, ode = window_for(params, 10.0), OdeSpec.default_for(params)
        times = np.linspace(0.0, 10.0, 21)
        snapshots = propagate_ode_batch([params], window, ode, times)
        # restart from each snapshot, one gap at a time, by hand
        psi, t_prev = initial_state_position(params, window).amplitudes, 0.0
        for t, snap in zip(times, snapshots):
            psi = _rk4_gap(params, psi, t - t_prev, ode.step)
            t_prev = t
            assert np.array_equal(snap[0], psi)

    def test_rejects_unsorted_or_negative_times(self):
        window, ode = LatticeWindow(50), OdeSpec(1e-3)
        for times in ([1.0, 0.5], [-1.0, 1.0], [0.0, math.nan], [math.inf]):
            with pytest.raises(ValueError):
                propagate_ode_batch([WalkParams()], window, ode, times)

    def test_undersized_window_checked_at_latest_time(self):
        window = window_for(WalkParams(), 1.0)
        with pytest.raises(UndersizedGridError, match="t=20.0"):
            propagate_ode_batch(GRID_ROWS, window, OdeSpec(1e-3), [1.0, 20.0])

    def test_one_bad_row_trips_edge_leak(self):
        # on the three-site window only a delocalized row has weight on the edges
        localized = WalkParams(alpha=0.3, delocalization=0.0)
        spread = WalkParams(alpha=0.3, delocalization=0.5)
        window = LatticeWindow(1)
        propagate_ode_batch([localized, localized], window, OdeSpec(1e-3), [0.0])
        with pytest.raises(NumericalValidationError, match="edge-site.*delocalization=0.5"):
            propagate_ode_batch([localized, spread, localized], window, OdeSpec(1e-3), [0.0])

    def test_one_bad_row_trips_norm_drift(self):
        # a coarse step is harmless at gamma = 1 and unstable at gamma = 40
        slow = WalkParams(gamma=1.0, delocalization=0.5)
        fast = WalkParams(gamma=40.0, delocalization=0.5)
        window, ode = LatticeWindow(400), OdeSpec(0.01)
        propagate_ode_batch([slow, slow], window, ode, [0.1, 0.2])
        with pytest.raises(NumericalValidationError, match="norm drift.*gamma=40.0"):
            propagate_ode_batch([slow, fast], window, ode, [0.1, 0.2])


def _rk4_gap(params, psi, gap, step):
    """The seed's single-trajectory RK4 loop over one gap, as a reference."""
    hop_left = 1j * params.gamma * np.exp(1j * params.alpha)
    hop_right = 1j * params.gamma * np.exp(-1j * params.alpha)

    def rhs(p):
        out = np.zeros_like(p)
        out[1:] = hop_left * p[:-1]
        out[:-1] += hop_right * p[1:]
        return out

    psi = psi.copy()
    n_full = int(math.floor(gap / step + 1e-12))
    last = gap - n_full * step
    for h in [step] * n_full + ([last] if last > 1e-15 * max(gap, 1.0) else []):
        k1 = rhs(psi)
        k2 = rhs(psi + 0.5 * h * k1)
        k3 = rhs(psi + 0.5 * h * k2)
        k4 = rhs(psi + h * k3)
        psi += (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return psi


def test_oracle_triangle_point():
    # one full three-way comparison at a biased parameter point
    params = WalkParams(alpha=PI / 4, delocalization=0.3)
    t = 8.0
    window = window_for(params, t)
    p_exact = analytic_probability(params, window, t)
    p_spec = propagate_spectral(params, RingSpec.for_run(params, t), t, window).probabilities()
    p_ode = propagate_ode(params, window, OdeSpec.default_for(params), t).probabilities()
    assert np.abs(p_exact - p_spec).max() < 1e-10
    assert np.abs(p_exact - p_ode).max() < 1e-8


def test_oracle_triangle_checks_each_time_window(monkeypatch):
    # RK4 runs once on the window of the latest time; an undersized window
    # for an earlier time must still be caught
    from ctqw import validate

    real_window_for = validate.window_for

    def window_for_small_at_t1(params, t):
        return LatticeWindow(5) if t == 1.0 else real_window_for(params, t)

    monkeypatch.setattr(validate, "window_for", window_for_small_at_t1)
    with pytest.raises(NumericalValidationError, match="t=1 "):
        validate.oracle_triangle(times=(1.0, 2.0), d_values=(0.5,), alphas=(0.0,))
