import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqw import (
    LatticeWindow,
    UndersizedGridError,
    WalkParams,
    initial_state_position,
    is_fine_tuned,
    mean_velocity,
    survival_asymptotic,
    survival_exact,
    survival_exact_batch,
    window_for,
)
from ctqw.analytic import analytic_blocks
from ctqw.bessel import bessel_row
from oracles import analytic_amplitudes

PI = math.pi

# Frozen from the power-series oracle.
J0_2_SQ = 0.050127080984469566  # J_0(2)^2
J1_2_SQ = 0.33261150388220256  # J_1(2)^2
SURV_D0_GT1 = 0.7153500887488747  # J_0(2)^2 + 2 J_1(2)^2


class TestWavefunction:
    def test_initial_condition_recovery(self):
        for d in (0.0, 0.37, 1.0):
            params = WalkParams(alpha=1.234, delocalization=d)
            window = LatticeWindow(5)
            psi0 = initial_state_position(params, window)
            psi = analytic_amplitudes(params, window, [0.0])[0]
            assert np.allclose(psi, psi0, rtol=0, atol=1e-15)

    def test_localized_center_probability(self):
        params = WalkParams(gamma=1.0, alpha=0.9, delocalization=0.0)
        window = window_for(params, 1.0)
        p = np.abs(analytic_amplitudes(params, window, [1.0])[0]) ** 2
        assert p[window.index(0)] == pytest.approx(J0_2_SQ, abs=1e-13)

    def test_norm_and_symmetries_at_gt50(self):
        window = window_for(WalkParams(), 50.0)
        # fully delocalized and localized: symmetric under x -> -x
        for d in (0.0, 1.0):
            params = WalkParams(alpha=PI / 2, delocalization=d)
            p = np.abs(analytic_amplitudes(params, window, [50.0])[0]) ** 2
            assert np.allclose(p, p[::-1], rtol=0, atol=1e-12)
        # zero-phase fully delocalized: symmetric at any time
        zero_phase = WalkParams(alpha=0.0, delocalization=1.0)
        p = np.abs(analytic_amplitudes(zero_phase, window, [37.5])[0]) ** 2
        assert np.allclose(p, p[::-1], rtol=0, atol=1e-12)

    def test_intermediate_delocalization_bias(self):
        params = WalkParams(alpha=PI / 2, delocalization=0.5)
        window = window_for(params, 50.0)
        p = np.abs(analytic_amplitudes(params, window, [50.0])[0]) ** 2
        mean = np.sum(window.sites() * p)
        assert mean == pytest.approx(mean_velocity(params) * 50.0, abs=1e-8)
        assert mean == pytest.approx(-math.sqrt(2) * 50.0, abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.floats(min_value=0.0, max_value=1.0),
        alpha=st.floats(min_value=-2 * PI, max_value=2 * PI),
        gt=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_unitarity(self, d, alpha, gt):
        params = WalkParams(alpha=alpha, delocalization=d)
        psi = analytic_amplitudes(params, window_for(params, gt), [gt])[0]
        assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < 1e-12

    def test_reflection_symmetry_in_alpha(self):
        window = window_for(WalkParams(), 20.0)
        for d, a in [(0.5, 0.8), (0.2, PI / 2), (1.0, -1.1)]:
            points = [WalkParams(alpha=a, delocalization=d), WalkParams(alpha=-a, delocalization=d)]
            p_plus, p_minus = np.abs(analytic_amplitudes(points, window, [20.0])[0]) ** 2
            assert np.allclose(p_minus, p_plus[::-1], rtol=0, atol=1e-12)

    def test_alpha_periodicity(self):
        window = window_for(WalkParams(), 10.0)
        points = [WalkParams(alpha=a, delocalization=0.4) for a in (0.9, 0.9 + 2 * PI)]
        p1, p2 = np.abs(analytic_amplitudes(points, window, [10.0])[0]) ** 2
        assert np.allclose(p1, p2, rtol=0, atol=1e-12)

    def test_undersized_window_rejected(self):
        with pytest.raises(UndersizedGridError):
            analytic_amplitudes(WalkParams(), LatticeWindow(10), [20.0])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            analytic_amplitudes(WalkParams(), LatticeWindow(50), [-1.0])

    def test_time_vector_rows_equal_one_time_evaluations(self):
        params = WalkParams(gamma=1.3, alpha=0.7, delocalization=0.35)
        times = np.array([12.5, 0.0, 40.0, 1e-9, 3.25, 40.0, 0.1])
        window = window_for(params, 40.0)
        psi = analytic_amplitudes(params, window, times)
        assert psi.shape == (times.size, window.n_sites)
        for row, t in zip(psi, times):
            assert np.array_equal(row, analytic_amplitudes(params, window, [t])[0])

    def test_time_vector_names_first_undersized_time(self):
        with pytest.raises(UndersizedGridError, match=r"at t=20\.0$"):
            analytic_amplitudes(WalkParams(), LatticeWindow(10), [1.0, 20.0, 0.0, 30.0])
        # D = 1 leaks from gamma*t = 1.46 on, D = 0 from 1.71: the batch names the
        # first leaking time over all its points
        points = [WalkParams(), WalkParams(delocalization=1.0)]
        with pytest.raises(UndersizedGridError, match=r"at t=1\.6$"):
            analytic_amplitudes(points, LatticeWindow(10), [1.0, 1.6, 2.0])
        with pytest.raises(ValueError, match="got -1.0"):
            analytic_amplitudes(WalkParams(), LatticeWindow(50), [1.0, -1.0, 2.0])


class TestSurvivalExact:
    def test_value_one_at_time_zero(self):
        curve = survival_exact(WalkParams(alpha=0.3, delocalization=0.7), [0.0])
        assert curve[0] == 1.0

    def test_frozen_values_at_gt1(self):
        assert survival_exact(WalkParams(), [1.0])[0] == pytest.approx(
            SURV_D0_GT1, abs=1e-13
        )
        fine = WalkParams(alpha=PI / 2, delocalization=1.0)
        assert survival_exact(fine, [1.0])[0] == pytest.approx(J1_2_SQ, abs=1e-13)

    def test_bounds(self):
        curve = survival_exact(WalkParams(alpha=1.0, delocalization=0.6), np.linspace(0, 30, 301))
        assert np.all(curve >= -1e-12)
        assert np.all(curve <= 1.0 + 1e-12)

    def test_matches_three_site_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            params = WalkParams(
                gamma=float(rng.uniform(0.5, 2.0)),
                alpha=float(rng.uniform(-PI, PI)),
                delocalization=float(rng.uniform(0, 1)),
            )
            t = float(rng.uniform(0.1, 40.0)) / params.gamma
            window = window_for(params, t)
            p = np.abs(analytic_amplitudes(params, window, [t])[0]) ** 2
            direct = p[window.index(-1)] + p[window.index(0)] + p[window.index(1)]
            assert survival_exact(params, [t])[0] == pytest.approx(direct, abs=1e-12)

    def test_fine_tuned_collapse(self):
        # at D=1 and alpha = pi/2 + m pi the curve equals J_1(2 gamma t)^2 / (gamma t)^2
        rng = np.random.default_rng(11)
        for m in range(-2, 3):
            params = WalkParams(alpha=PI / 2 + m * PI, delocalization=1.0)
            gt = float(rng.uniform(0.5, 60.0))
            j1 = bessel_row(2 * gt, 1)[1]
            assert survival_exact(params, [gt])[0] == pytest.approx(
                j1**2 / gt**2, abs=1e-12
            )

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            survival_exact(WalkParams(), [-1.0, 2.0])


class TestBatch:
    # mixed points: D in {0, 0.3, 1}, alpha in {0, pi/6, pi/2}, one gamma
    POINTS = [
        WalkParams(gamma=1.3, alpha=a, delocalization=d)
        for d in (0.0, 0.3, 1.0)
        for a in (0.0, PI / 6, PI / 2)
    ]

    def test_amplitudes_equal_one_point_calls_byte_for_byte(self):
        times = np.array([12.5, 0.0, 40.0, 1e-9, 3.25])
        window = window_for(self.POINTS[0], 40.0)
        psi = analytic_amplitudes(self.POINTS, window, times)
        assert psi.shape == (times.size, len(self.POINTS), window.n_sites)
        for j, params in enumerate(self.POINTS):
            one = analytic_amplitudes(params, window, times)
            assert psi[:, j].tobytes() == one.tobytes()
            at_zero = analytic_amplitudes(params, window, [0.0])[0]
            assert psi[1, j].tobytes() == at_zero.tobytes()

    def test_survival_equals_one_point_calls_byte_for_byte(self):
        grids = [
            np.geomspace(0.1, 500.0, 200),
            # a (times x nodes) grid, as smoothed_survival passes
            np.linspace(50.0, 500.0, 24)[:, None] + np.linspace(-0.7, 0.7, 48)[None, :],
        ]
        for times in grids:
            curves = survival_exact_batch(self.POINTS, times)
            assert curves.shape == (len(self.POINTS),) + times.shape
            for curve, params in zip(curves, self.POINTS):
                assert curve.tobytes() == survival_exact(params, times).tobytes()

    # sha256 of the whole (times, points, sites) array, for three points over the
    # series grid to t=500 and over 1000 tiny times on the smallest window. Table
    # pins pass through reductions that can hide a 1-ulp change in one amplitude.
    PINNED = [WalkParams(alpha=0.0, delocalization=0.0),
              WalkParams(alpha=PI / 6, delocalization=0.3),
              WalkParams(alpha=PI / 2, delocalization=1.0)]

    @pytest.mark.parametrize("window, times, digest", [
        (window_for(WalkParams(), 500.0), np.linspace(0.0, 500.0, 201),
         "ae491ae1117ce6b696b192faacf502a1f19b0f7361533fcdd5358322d9266f67"),
        (LatticeWindow(1), np.linspace(0.0, 1e-6, 1000),
         "ed0bb761092b6de29c7274be28ac605529c3952dcfab34dc2564cc21429337d4"),
    ], ids=["series", "tiny"])
    def test_amplitude_bytes_are_pinned_in_any_blocks(self, window, times, digest):
        whole = analytic_amplitudes(self.PINNED, window, times)
        assert hashlib.sha256(whole.tobytes()).hexdigest() == digest
        for block in (1, 2, 5, times.size):
            blocks = list(analytic_blocks(self.PINNED, window, times, block))
            assert len(blocks) == -(-times.size // block)
            # row sums of another layout round differently
            assert all(b.flags.c_contiguous for b in blocks)
            assert np.concatenate(blocks).tobytes() == whole.tobytes(), block

    @pytest.mark.parametrize("points", [[WalkParams(gamma=1.0), WalkParams(gamma=2.0)], []])
    def test_batch_needs_one_gamma(self, points):
        with pytest.raises(ValueError, match="one gamma"):
            analytic_amplitudes(points, LatticeWindow(50), [1.0])
        with pytest.raises(ValueError, match="one gamma"):
            survival_exact_batch(points, [1.0])


class TestSurvivalAsymptotic:
    def test_fine_tuned_detection(self):
        assert is_fine_tuned(WalkParams(alpha=PI / 2, delocalization=1.0))
        assert is_fine_tuned(WalkParams(alpha=-PI / 2, delocalization=1.0))
        assert not is_fine_tuned(WalkParams(alpha=PI / 2, delocalization=0.999))
        assert not is_fine_tuned(WalkParams(alpha=1.5, delocalization=1.0))

    def test_examples(self):
        # generic 1/t law, D=0
        assert survival_asymptotic(WalkParams(), 100.0) == pytest.approx(
            3.0 / (2 * PI * 100), abs=1e-15
        )
        # fine tuned 1/t^3 envelope
        fine = WalkParams(alpha=PI / 2, delocalization=1.0)
        assert survival_asymptotic(fine, 100.0) == pytest.approx(1 / (PI * 1e6), abs=1e-18)
        # D=1, alpha=0 is generic; coefficient 3(1 + D - 2 D sin^2 a) = 6
        assert survival_asymptotic(WalkParams(alpha=0.0, delocalization=1.0), 100.0) == pytest.approx(
            6.0 / (2 * PI * 100), abs=1e-15
        )

    def test_generic_law_matches_oscillation_average(self):
        # average the exact curve over whole oscillation periods
        for d, a in [(0.0, 1.0), (0.5, PI / 2), (1.0, 0.0), (0.3, 2.2)]:
            params = WalkParams(alpha=a, delocalization=d)
            ts = np.linspace(200.0, 400.0, 80001)
            avg = float(np.mean(survival_exact(params, ts) * ts))
            predicted = float(survival_asymptotic(params, 1.0))  # coefficient of 1/t
            assert avg == pytest.approx(predicted, rel=0.02)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            survival_asymptotic(WalkParams(), 0.0)
