import math

import numpy as np
import pytest

from ctqw import (
    LatticeWindow,
    WalkParams,
    dispersion,
    group_velocity,
    initial_state_momentum,
    initial_state_position,
    light_cone_half_width,
    mean_velocity,
    window_for,
)

PI = math.pi


def _trapezoid(y, x):
    fn = getattr(np, "trapezoid", None) or np.trapz
    return fn(y, x)


class TestWalkParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            WalkParams(gamma=0.0)
        with pytest.raises(ValueError):
            WalkParams(gamma=-1.0)
        with pytest.raises(ValueError):
            WalkParams(delocalization=1.2)
        with pytest.raises(ValueError):
            WalkParams(delocalization=-0.1)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                WalkParams(gamma=bad)
            with pytest.raises(ValueError):
                WalkParams(alpha=bad)
            with pytest.raises(ValueError):
                WalkParams(delocalization=bad)
        WalkParams(gamma=2.0, alpha=-17.0, delocalization=1.0)  # alpha unrestricted

    def test_alpha_not_normalized(self):
        assert WalkParams(alpha=7.0).alpha == 7.0


class TestLatticeWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeWindow(0)
        with pytest.raises(ValueError):
            LatticeWindow(-3)

    def test_sites_and_index(self):
        w = LatticeWindow(2)
        assert list(w.sites()) == [-2, -1, 0, 1, 2]
        assert w.n_sites == 5
        assert w.index(-2) == 0 and w.index(2) == 4
        with pytest.raises(IndexError):
            w.index(3)

    def test_light_cone_margin(self):
        hw = light_cone_half_width(1.0, 50.0)
        assert hw >= 100 + 40
        assert window_for(WalkParams(), 50.0).half_width == hw


class TestDispersion:
    def test_examples(self):
        assert dispersion(WalkParams(gamma=1, alpha=0), 0.0) == pytest.approx(-2.0)
        assert dispersion(WalkParams(gamma=1, alpha=PI / 2), PI / 2) == pytest.approx(-2.0)
        assert dispersion(WalkParams(gamma=2, alpha=PI / 3), -PI / 6) == pytest.approx(0.0, abs=1e-15)

    def test_group_velocity_is_dispersion_derivative(self):
        params = WalkParams(gamma=1.3, alpha=0.7)
        ks = np.linspace(-3.0, 3.0, 11)
        h = 1e-6
        fd = (dispersion(params, ks + h) - dispersion(params, ks - h)) / (2 * h)
        assert np.allclose(fd, group_velocity(params, ks), atol=1e-8)

    def test_group_velocity_values(self):
        # dE/dk of E = -2 gamma cos(alpha - k) is -2 gamma sin(alpha - k)
        assert group_velocity(WalkParams(gamma=1, alpha=0), -PI / 2) == pytest.approx(-2.0)
        assert group_velocity(WalkParams(gamma=1, alpha=PI / 2), 0.0) == pytest.approx(-2.0)
        assert group_velocity(WalkParams(gamma=1, alpha=0), 0.0) == pytest.approx(0.0)

    def test_mean_velocity_is_momentum_average_of_group_velocity(self):
        for d, a in [(0.5, PI / 2), (0.3, 1.1), (0.9, -0.4)]:
            params = WalkParams(alpha=a, delocalization=d)
            k = np.linspace(-PI, PI, 20001)
            avg = _trapezoid(group_velocity(params, k) * initial_state_momentum(params, k) ** 2, k)
            assert avg == pytest.approx(mean_velocity(params), abs=1e-10)

    def test_two_pi_periodicity(self):
        ks = np.linspace(-PI, PI, 37)
        for a in (0.0, 0.4, 2.9):
            p1 = WalkParams(alpha=a)
            p2 = WalkParams(alpha=a + 2 * PI)
            assert np.allclose(dispersion(p1, ks), dispersion(p2, ks), atol=1e-12)
            assert np.allclose(group_velocity(p1, ks), group_velocity(p2, ks), atol=1e-12)


class TestInitialState:
    def test_localized(self):
        st = initial_state_position(WalkParams(delocalization=0.0), LatticeWindow(3))
        assert st.amplitude(0) == 1.0
        assert st.norm_squared() == pytest.approx(1.0, abs=1e-15)
        assert np.count_nonzero(st.amplitudes) == 1

    def test_fully_delocalized(self):
        st = initial_state_position(WalkParams(delocalization=1.0), LatticeWindow(3))
        assert st.amplitude(0) == 0.0
        assert st.amplitude(1) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert st.amplitude(-1) == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_intermediate(self):
        st = initial_state_position(WalkParams(delocalization=0.5), LatticeWindow(2))
        assert st.amplitude(0) == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert st.amplitude(1) == pytest.approx(0.5, abs=1e-15)
        assert st.amplitude(-1) == pytest.approx(0.5, abs=1e-15)

    def test_momentum_amplitude_examples(self):
        assert initial_state_momentum(WalkParams(delocalization=0.0), 1.234) == pytest.approx(
            1 / math.sqrt(2 * PI), abs=1e-15
        )
        assert initial_state_momentum(WalkParams(delocalization=1.0), PI / 2) == pytest.approx(
            0.0, abs=1e-16
        )
        # frozen: (sqrt(0.5) + 1) / sqrt(2 pi)
        assert initial_state_momentum(WalkParams(delocalization=0.5), 0.0) == pytest.approx(
            0.6810370721753108, abs=1e-15
        )

    def test_momentum_parity(self):
        ks = np.linspace(0, PI, 25)
        for d in (0.0, 0.3, 1.0):
            params = WalkParams(delocalization=d)
            assert np.array_equal(
                initial_state_momentum(params, ks), initial_state_momentum(params, -ks)
            )

    def test_momentum_normalization(self):
        k = np.linspace(-PI, PI, 4097)
        for d in (0.0, 0.25, 0.5, 1.0):
            dens = initial_state_momentum(WalkParams(delocalization=d), k) ** 2
            assert _trapezoid(dens, k) == pytest.approx(1.0, abs=1e-10)

    def test_bases_consistency_by_dft(self):
        # FFT of the position state must equal sqrt(2 pi) * psi(k) at ring momenta
        n = 17
        for d in (0.0, 0.5, 1.0):
            params = WalkParams(delocalization=d)
            psi = np.zeros(n, dtype=complex)
            psi[0] = math.sqrt(1 - d)
            psi[1] = psi[-1] = math.sqrt(d / 2)
            ks = 2 * PI * np.arange(n) / n
            expected = math.sqrt(2 * PI) * initial_state_momentum(params, ks)
            assert np.allclose(np.fft.fft(psi), expected, atol=1e-12)

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            initial_state_position(WalkParams(), LatticeWindow(0))
