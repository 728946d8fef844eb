import hashlib
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
    initial_state_position,
    observables_from_amplitudes,
    window_for,
)
from ctqw import propagators
from ctqw.validate import SPECTRAL_TOL
from oracles import analytic_amplitudes, ode_amplitudes, spectral_amplitudes

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
        psi = spectral_amplitudes(params, RingSpec(64), window, [0.0])[0]
        expected = initial_state_position(params, window)
        assert np.allclose(psi, expected, rtol=0, atol=1e-14)

    def test_norm_preservation(self):
        params = WalkParams(gamma=1.3, alpha=1.9, delocalization=0.8)
        ring = RingSpec.for_run(params, 40.0)
        psi = spectral_amplitudes(params, ring, window_for(params, 40.0), [40.0])[0]
        assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < 1e-13

    def test_matches_analytic(self):
        for d, a, t in [(0.0, 0.0, 5.0), (0.5, PI / 4, 12.0), (1.0, PI / 2, 25.0)]:
            params = WalkParams(alpha=a, delocalization=d)
            window = window_for(params, t)
            ring = RingSpec.for_run(params, t)
            p_spec = np.abs(spectral_amplitudes(params, ring, window, [t])) ** 2
            p_exact = np.abs(analytic_amplitudes(params, window, [t])) ** 2
            assert np.abs(p_spec - p_exact).max() < 1e-10

    def test_drift_example(self):
        params = WalkParams(alpha=PI / 2, delocalization=0.5)
        window = window_for(params, 50.0)
        amps = spectral_amplitudes(params, RingSpec.for_run(params, 50.0), window, [50.0])
        (mean,), _, _ = observables_from_amplitudes(window, amps)
        assert mean == pytest.approx(-math.sqrt(2) * 50.0, abs=1e-8)

    def test_time_reversal(self):
        params = WalkParams(alpha=0.8, delocalization=0.6)
        ring = RingSpec.for_run(params, 7.0)
        window = window_for(params, 7.0)
        fwd = spectral_amplitudes(params, ring, window, [7.0])[0]
        back = spectral_amplitudes(params, ring, window, [-7.0], initial=fwd)[0]
        expected = initial_state_position(params, window)
        assert np.allclose(back, expected, rtol=0, atol=1e-12)

    def test_rejects_undersized_ring(self):
        with pytest.raises(UndersizedGridError):
            spectral_amplitudes(WalkParams(), RingSpec(32), window_for(WalkParams(), 50.0), [50.0])


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
                assert np.array_equal(row, spectral_amplitudes(params, ring, window, [t])[0])

    def test_initial_state_and_negative_time_through_the_wrapper(self):
        params = WalkParams(alpha=0.8, delocalization=0.6)
        ring = RingSpec.for_run(params, 7.0)
        window = window_for(params, 7.0)
        fwd = spectral_amplitudes(params, ring, window, [7.0])[0]
        times = [-7.0, 0.0, -2.5]
        amps = spectral_amplitudes(params, ring, window, times, initial=fwd)
        for row, t in zip(amps, times):
            back = spectral_amplitudes(params, ring, window, [t], initial=fwd)[0]
            assert np.array_equal(row, back)

    def test_initial_state_of_any_norm_keeps_its_norm(self):
        params = WalkParams(alpha=0.8, delocalization=0.6)
        ring = RingSpec.for_run(params, 7.0)
        window = window_for(params, 7.0)
        half = 0.5 * initial_state_position(params, window)
        times = [0.0, 3.0, 7.0]
        amps = spectral_amplitudes(params, ring, window, times, initial=half)
        # scaling by 1/2 is exact, and the FFTs are linear
        assert np.array_equal(amps, 0.5 * spectral_amplitudes(params, ring, window, times))
        assert np.allclose(np.sum(np.abs(amps) ** 2, axis=1), 0.25, rtol=0, atol=1e-13)
        small = LatticeWindow(5)
        half = 0.5 * initial_state_position(params, small)
        with pytest.raises(UndersizedGridError, match=r"half_width=5 leaks norm .* at t=7\.0$"):
            spectral_amplitudes(params, ring, small, [7.0], initial=half)

    def test_initial_state_must_lie_on_the_window(self):
        params = WalkParams(alpha=0.8, delocalization=0.6)
        ring, window = RingSpec(64), LatticeWindow(5)
        for initial in (initial_state_position(params, LatticeWindow(1)),
                        initial_state_position(params, window)[None, :]):
            with pytest.raises(ValueError, match=r"window's shape \(11,\)"):
                spectral_amplitudes(params, ring, window, [0.0], initial=initial)

    def test_names_the_first_leaking_time(self):
        params = WalkParams(alpha=0.3, delocalization=0.5)
        ring = RingSpec.for_run(params, 20.0)
        window = LatticeWindow(5)
        assert spectral_amplitudes(params, ring, window, [0.0, 0.1]).shape == (2, 11)
        with pytest.raises(UndersizedGridError, match=r"half_width=5 leaks norm .* at t=10\.0$"):
            spectral_amplitudes(params, ring, window, [0.1, 10.0, 0.0, 20.0])

    def test_empty_time_grid_is_one_empty_block(self):
        params, window = WalkParams(delocalization=0.5), LatticeWindow(5)
        amps = spectral_amplitudes(params, RingSpec(64), window, [])
        assert amps.shape == (0, window.n_sites)
        assert amps.shape == analytic_amplitudes(params, window, []).shape

    def test_undersized_ring_names_the_farthest_time(self):
        with pytest.raises(UndersizedGridError, match=r"at t=-50\.0 "):
            spectral_amplitudes(WalkParams(), RingSpec(64), LatticeWindow(5), [0.0, -50.0, 5.0])

    @pytest.mark.parametrize("alpha", [4.0, -7.5, 1e4, 1e5, 3e6, 1e9, 1e12, 1e17, 1e300, -1e300])
    def test_phase_past_pi_matches_the_closed_form(self, alpha):
        # cos(alpha - k) loses k once ulp(alpha) nears the momentum spacing
        params = WalkParams(alpha=alpha, delocalization=0.5)
        window, ring = window_for(params, 50.0), RingSpec.for_run(params, 50.0)
        p_spec = np.abs(spectral_amplitudes(params, ring, window, [50.0])[0]) ** 2
        p_exact = np.abs(analytic_amplitudes(params, window, [50.0])[0]) ** 2
        assert np.abs(p_spec - p_exact).max() < SPECTRAL_TOL


class TestSpectralBlocks:
    # sha256 of the (times, points, sites) stack of one-point runs, for four points (one
    # past pi) over a grid with t = 0 and a negative time on a 128-site ring, and over the
    # series grid to t=500, led by t=-3, on a 4096-site ring. Table pins pass through
    # reductions that can hide a 1-ulp change in one amplitude.
    PINNED = [WalkParams(alpha=0.0, delocalization=0.0),
              WalkParams(alpha=PI / 6, delocalization=0.3),
              WalkParams(alpha=PI / 2, delocalization=1.0),
              WalkParams(alpha=-7.5, delocalization=0.5)]

    @pytest.mark.parametrize("ring, window, times, digest", [
        (RingSpec(128), window_for(WalkParams(), 10.0), np.array([0.0, -4.0, 1.5, 10.0, 0.25]),
         "f43359ac6287034a4fb6b1299f9be811261fc04515826e07be8098d6ce6d67d0"),
        (RingSpec(4096), window_for(WalkParams(), 500.0),
         np.append(-3.0, np.linspace(0.0, 500.0, 201)),
         "3a0b3b152df97087e03296aad958d9229f2c4745c0cb7bb14504a6189ff10435"),
    ], ids=["ring128", "ring4096"])
    def test_amplitude_bytes_are_pinned(self, ring, window, times, digest):
        whole = np.stack([spectral_amplitudes(p, ring, window, times) for p in self.PINNED], axis=1)
        assert hashlib.sha256(whole.tobytes()).hexdigest() == digest

    def test_points_equal_one_point_runs_bit_for_bit_in_any_blocks(self):
        points = [WalkParams(alpha=0.3, delocalization=0.2),
                  WalkParams(gamma=1.7, alpha=-7.5, delocalization=1.0),
                  WalkParams(gamma=0.6, alpha=PI / 2, delocalization=0.5)]
        ring, window = RingSpec(256), window_for(points[1], 6.0)
        times = np.array([0.0, 2.5, -1.0, 6.0, 0.125])
        ones = np.stack([spectral_amplitudes(p, ring, window, times) for p in points], axis=1)
        assert ones.shape == (times.size, len(points), window.n_sites)
        for block in (1, 2, times.size):
            blocks = list(propagators.spectral_blocks(points, ring, window, times, block))
            assert len(blocks) == -(-times.size // block)
            assert all(b.flags.c_contiguous for b in blocks)
            assert np.concatenate(blocks).tobytes() == ones.tobytes(), block
        (empty,) = propagators.spectral_blocks(points, ring, window, [], 2)
        assert empty.shape == (0, len(points), window.n_sites)

    def test_ring_check_takes_the_fastest_point(self):
        points = [WalkParams(), WalkParams(gamma=2.0)]
        RingSpec(128).validate_for(points[0], 10.0)
        with pytest.raises(UndersizedGridError, match=r"at t=10\.0 "):
            next(propagators.spectral_blocks(points, RingSpec(128), LatticeWindow(5), [10.0], 1))


class TestOde:
    def test_identity_at_time_zero(self):
        params = WalkParams(alpha=1.0, delocalization=0.3)
        window = LatticeWindow(4)
        psi = ode_amplitudes(params, window, OdeSpec(1e-3), [0.0])[0]
        expected = initial_state_position(params, window)
        assert np.array_equal(psi, expected)

    def test_matches_analytic(self):
        params = WalkParams(alpha=0.0, delocalization=1.0)
        window = window_for(params, 10.0)
        psi = ode_amplitudes(params, window, OdeSpec.default_for(params), [10.0])
        p_exact = np.abs(analytic_amplitudes(params, window, [10.0])) ** 2
        assert np.abs(np.abs(psi) ** 2 - p_exact).max() < 1e-8

    def test_msd_example(self):
        # MSD(gt=20) = 0.5 + 2*400*(1 - 0.25 + 0.25) = 800.5
        params = WalkParams(alpha=PI / 4, delocalization=0.5)
        window = window_for(params, 20.0)
        psi = ode_amplitudes(params, window, OdeSpec.default_for(params), [20.0])
        _, (msd,), _ = observables_from_amplitudes(window, psi)
        assert msd == pytest.approx(800.5, rel=1e-5)

    def test_partial_final_step(self):
        params = WalkParams(alpha=0.5, delocalization=0.4)
        t = 1.00037  # not a multiple of the step
        window = window_for(params, t)
        psi = ode_amplitudes(params, window, OdeSpec(1e-3), [t])
        p_exact = np.abs(analytic_amplitudes(params, window, [t])) ** 2
        assert np.abs(np.abs(psi) ** 2 - p_exact).max() < 1e-9

    def test_norm_drift_bounded(self):
        params = WalkParams(gamma=1.5, alpha=2.0, delocalization=0.7)
        window = window_for(params, 10.0)
        psi = ode_amplitudes(params, window, OdeSpec.default_for(params), [10.0])[0]
        assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < 1e-9

    def test_convergence_order_is_four(self):
        params = WalkParams(alpha=PI / 6, delocalization=0.5)
        t = 2.0
        window = window_for(params, t)
        ring = RingSpec.for_run(params, t)
        ref = spectral_amplitudes(params, ring, window, [t])[0]
        errs = []
        for h in (0.01, 0.005):
            psi = ode_amplitudes(params, window, OdeSpec(h), [t])[0]
            errs.append(np.abs(psi - ref).max())
        order = math.log2(errs[0] / errs[1])
        assert order == pytest.approx(4.0, abs=0.3)

    def test_rejects_undersized_window(self):
        with pytest.raises(UndersizedGridError):
            ode_amplitudes([WalkParams()], LatticeWindow(10), OdeSpec(1e-3), [20.0])

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            ode_amplitudes([WalkParams()], LatticeWindow(50), OdeSpec(1e-3), [-1.0])

    def test_ode_sign_convention_gives_negative_drift(self):
        # for 0 < D < 1 and alpha = pi/2 the drift must be negative
        params = WalkParams(alpha=PI / 2, delocalization=0.5)
        window = window_for(params, 3.0)
        psi = ode_amplitudes(params, window, OdeSpec.default_for(params), [3.0])
        (mean,), _, _ = observables_from_amplitudes(window, psi)
        assert mean < -1.0


GRID_ROWS = [
    WalkParams(alpha=a, delocalization=d)
    for d in (0.0, 0.3, 0.5, 1.0)
    for a in (0.0, PI / 6, PI / 4, PI / 2)
]

ONE_ROW = WalkParams(alpha=1.1, delocalization=0.37)


class TestOdeBatch:
    def test_rows_equal_single_runs(self):
        window, ode, t = window_for(WalkParams(), 2.0), OdeSpec(1e-3), 2.0
        batch = ode_amplitudes(GRID_ROWS, window, ode, [t])
        assert batch.shape == (1, 16, window.n_sites)
        for params, row in zip(GRID_ROWS, batch[0]):
            assert np.array_equal(row, ode_amplitudes(params, window, ode, [t])[0])

    def test_checkpoints_equal_runs_from_zero(self):
        # checkpoints that are multiples of the step take the same steps
        params = WalkParams(alpha=0.9, delocalization=0.6)
        window, ode = window_for(params, 3.0), OdeSpec(1e-3)
        times = [0.0, 0.5, 1.25, 3.0]
        snapshots = ode_amplitudes([params], window, ode, times)
        for t, snap in zip(times, snapshots):
            assert np.array_equal(snap[0], ode_amplitudes(params, window, ode, [t])[0])

    @pytest.mark.parametrize("rows, ode, times", [
        ([ONE_ROW], OdeSpec.default_for(ONE_ROW), np.linspace(0.0, 10.0, 21)),
        # checkpoints that are not multiples of the step take a shortened step
        (GRID_ROWS, OdeSpec(1e-3), [0.0035, 0.5004, 1.3, 1.3001]),
        ([ONE_ROW], OdeSpec(0.0007), [0.0035, 0.5004, 1.3, 1.3001]),
    ], ids=["one-row", "grid-rows-short-steps", "one-row-short-steps"])
    def test_checkpoints_equal_chained_restarts(self, rows, ode, times):
        window = window_for(rows[0], times[-1])
        snapshots = ode_amplitudes(rows, window, ode, times)
        for r, params in enumerate(rows):
            # restart from each snapshot, one gap at a time, by hand
            psi, t_prev = initial_state_position(params, window), 0.0
            for t, snap in zip(times, snapshots):
                psi = _rk4_gap(params, psi, t - t_prev, ode.step)
                t_prev = t
                assert np.array_equal(snap[r], psi)

    @pytest.mark.parametrize("rows, ode, times, digest", [
        # a step of 1e-3 to 1.0005 is shortened
        (GRID_ROWS, OdeSpec(1e-3), [1.0, 1.0005, 5.0],
         "ada503d1469593d081772a7df69c1d048b60785b36673ab2251b6227b2c23f21"),
        ([ONE_ROW], OdeSpec.default_for(ONE_ROW), np.linspace(0.0, 10.0, 21),
         "832aca520efcc852b1a93bbb4f8fc2a3ec4ac56d5f17576dfe86e7da02d8f37c"),
    ], ids=["grid-rows", "one-row"])
    def test_snapshot_bytes_are_pinned(self, rows, ode, times, digest):
        # array_equal takes -0.0 for 0.0; a digest of the bytes does not
        snapshots = ode_amplitudes(rows, window_for(rows[0], times[-1]), ode, times)
        assert hashlib.sha256(snapshots.tobytes()).hexdigest() == digest

    def test_rejects_unsorted_or_negative_times(self):
        window, ode = LatticeWindow(50), OdeSpec(1e-3)
        for times in ([1.0, 0.5], [-1.0, 1.0], [0.0, math.nan], [math.inf]):
            with pytest.raises(ValueError):
                ode_amplitudes([WalkParams()], window, ode, times)

    def test_undersized_window_checked_at_latest_time(self):
        window = window_for(WalkParams(), 1.0)
        with pytest.raises(UndersizedGridError, match="t=20.0"):
            ode_amplitudes(GRID_ROWS, window, OdeSpec(1e-3), [1.0, 20.0])

    def test_one_bad_row_trips_edge_leak(self):
        # on the three-site window only a delocalized row has weight on the edges
        localized = WalkParams(alpha=0.3, delocalization=0.0)
        spread = WalkParams(alpha=0.3, delocalization=0.5)
        window = LatticeWindow(1)
        ode_amplitudes([localized, localized], window, OdeSpec(1e-3), [0.0])
        with pytest.raises(NumericalValidationError, match="edge-site.*delocalization=0.5"):
            ode_amplitudes([localized, spread, localized], window, OdeSpec(1e-3), [0.0])

    def test_one_bad_row_trips_norm_drift(self):
        # a coarse step is harmless at gamma = 1 and unstable at gamma = 40
        slow = WalkParams(gamma=1.0, delocalization=0.5)
        fast = WalkParams(gamma=40.0, delocalization=0.5)
        window, ode = LatticeWindow(400), OdeSpec(0.01)
        ode_amplitudes([slow, slow], window, ode, [0.1, 0.2])
        with pytest.raises(NumericalValidationError, match="norm drift.*gamma=40.0"):
            ode_amplitudes([slow, fast], window, ode, [0.1, 0.2])


EDGE_ROWS = [
    WalkParams(gamma=1.0, alpha=0.0, delocalization=0.0),
    WalkParams(gamma=0.7, alpha=PI / 2, delocalization=0.5),
    WalkParams(gamma=1.0, alpha=-2.3, delocalization=1.0),
    WalkParams(gamma=0.2, alpha=1.1, delocalization=0.37),
]


@pytest.mark.parametrize("n_full", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("half_width", [3, 4, 5, 6])
def test_edge_sites_equal_the_reference_byte_for_byte(monkeypatch, half_width, n_full):
    # The integrator reads zero ghost sites past the window's edges, where the
    # reference zeroes the right-hand side; tobytes() tells -0.0 from 0.0.
    # A window this small is below the light cone, so its check is lifted; every
    # RK4 step reaches four sites further, so the edges hold weight, and the
    # step keeps that weight below EDGE_LEAK_LIMIT, which check_rows still applies.
    monkeypatch.setattr(propagators, "light_cone_half_width", lambda gamma, t: 1)
    step = 5e-5
    window = LatticeWindow(half_width)
    times = [n_full * step, (n_full + 0.37) * step]  # the second gap is one shortened step
    snapshots = ode_amplitudes(EDGE_ROWS, window, OdeSpec(step), times)
    edge = (np.abs(snapshots[-1][:, [0, -1]]) ** 2).sum(axis=1)
    assert np.all(edge > 0.0) and np.all(edge <= propagators.EDGE_LEAK_LIMIT)
    for r, params in enumerate(EDGE_ROWS):
        psi, t_prev = initial_state_position(params, window), 0.0
        for t, snap in zip(times, snapshots):
            psi = _rk4_gap(params, psi, t - t_prev, step)
            t_prev = t
            assert snap[r].tobytes() == psi.tobytes(), (params, t)


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
    p_exact = np.abs(analytic_amplitudes(params, window, [t])) ** 2
    p_spec = np.abs(spectral_amplitudes(params, RingSpec.for_run(params, t), window, [t])) ** 2
    ode = OdeSpec.default_for(params)
    p_ode = np.abs(ode_amplitudes(params, window, ode, [t])) ** 2
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
        validate.oracle_triangle(*validate.triangle_plan((1.0, 2.0), (0.5,), (0.0,)))
