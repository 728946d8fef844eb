import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmath import besselj, mp

from ctqw.bessel import bessel_row, bessel_row_batch, bessel_rows, start_order
from ctqw.model import WalkParams
from ctqw.observables import SMOOTHING_HALF_WIDTH, SMOOTHING_NODES
from oracles import bessel_row_loop, bessel_series

# Frozen from the power-series oracle (tests/oracles.py).
J0_AT_2 = 0.22389077914123567
J1_AT_2 = 0.5767248077568734


def test_zero_argument_row_is_exact():
    assert list(bessel_row(0.0, 2)) == [1.0, 0.0, 0.0]
    assert list(bessel_row(0.0, 5)) == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_known_values_at_two():
    row = bessel_row(2.0, 1)
    assert row[0] == pytest.approx(J0_AT_2, abs=1e-14)
    assert row[1] == pytest.approx(J1_AT_2, abs=1e-14)
    # the frozen literals themselves come from the series oracle
    assert bessel_series(0, 2.0) == pytest.approx(J0_AT_2, abs=1e-15)
    assert bessel_series(1, 2.0) == pytest.approx(J1_AT_2, abs=1e-15)


@pytest.mark.parametrize("z", [0.05, 0.7, 2.0, 5.3, 11.0, 17.9, 20.0])
def test_series_oracle_agreement(z):
    row = bessel_row(z, 30)
    for n in range(31):
        assert row[n] == pytest.approx(bessel_series(n, z), abs=1e-12)


def test_magnitude_bound():
    for z in (0.3, 4.0, 42.0, 333.3):
        assert np.all(np.abs(bessel_row(z, 80)) <= 1.0)


@settings(max_examples=60, deadline=None)
@given(
    z=st.floats(min_value=1e-6, max_value=500.0, allow_nan=False),
    n_max=st.integers(min_value=2, max_value=200),
)
def test_recurrence_residual(z, n_max):
    row = bessel_row(z, n_max)
    n = np.arange(1, n_max)
    resid = np.abs(row[:-2] + row[2:] - (2.0 * n / z) * row[1:-1])
    bound = 1e-10 * np.maximum(1.0, np.abs(row[1:-1]))
    assert np.all(resid < bound)


def test_normalization_identity():
    for z in (2.0, 100.0, 367.5):
        n_max = start_order(z, 0)
        row = bessel_row(z, n_max)
        total = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_derivative_identity_by_finite_differences():
    # J_0'(z) = -J_1(z)
    h = 1e-5
    for z in (1.0, 3.7, 12.0):
        d = (bessel_row(z + h, 0)[0] - bessel_row(z - h, 0)[0]) / (2 * h)
        assert d == pytest.approx(-bessel_row(z, 1)[1], abs=1e-8)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bessel_row(-0.5, 3)
    with pytest.raises(ValueError):
        bessel_row(2.0, -1)
    with pytest.raises(ValueError):
        bessel_rows(np.array([1.0, -1.0]), 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            bessel_row(bad, 2)
        with pytest.raises(ValueError, match="finite"):
            bessel_rows(np.array([1.0, bad]), 2)
        with pytest.raises(ValueError, match="finite"):
            bessel_row_batch(np.array([bad, 1.0]), 2)


def test_batch_matches_scalar():
    zs = np.array([0.0, 0.01, 2.0, 77.7, 500.0])
    batch = bessel_rows(zs, 4)
    for i, z in enumerate(zs):
        assert np.allclose(batch[:, i], bessel_row(z, 4), rtol=0, atol=1e-13)


def test_batch_preserves_shape():
    zs = np.linspace(0.0, 30.0, 12).reshape(3, 4)
    assert bessel_rows(zs, 2).shape == (3, 3, 4)


def test_tiny_argument_survives_rescaling():
    # deep downward recurrence from the start order overflows many times
    row = bessel_row(1e-8, 2)
    assert row[0] == pytest.approx(1.0, abs=1e-15)
    assert row[1] == pytest.approx(5e-9, rel=1e-10)


# unsorted, with exact zeros, arguments below the tiny-z cutoff and large ones
MIXED_Z = np.array([77.7, 0.0, 2.0, 1e-300, 500.0, 1e-3, 0.5, 1e-8, 0.0])


@pytest.mark.parametrize("n_max", [0, 1, 2, 30, 141])
def test_row_batch_columns_equal_rows_bit_for_bit(n_max):
    batch = bessel_row_batch(MIXED_Z, n_max)
    assert batch.shape == (n_max + 1, MIXED_Z.size)
    for i, z in enumerate(MIXED_Z):
        assert np.array_equal(batch[:, i], bessel_row(z, n_max))


@pytest.mark.parametrize("n_max", [0, 1, 2, 30, 141])
def test_row_equals_the_scalar_loop_bit_for_bit(n_max):
    for z in [*MIXED_Z, 1e-250, 5.3, 20.0, 333.3, 999.9]:
        row = bessel_row(z, n_max)
        assert np.array_equal(row, bessel_row_loop(z, n_max))
        assert np.array_equal(bessel_rows(np.array([z]), n_max)[:, 0], row)


# Exact zeros, arguments on both sides of the tiny-z cutoff, and 1e-200:
# under a shared start up to z ~ 2000 its multiplier 2n/z passes 1e191, so
# the rescale re-tests its columns instead of trusting one pass.
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    zs=st.lists(
        st.one_of(
            st.floats(min_value=-300.0, max_value=3.3).map(lambda e: 10.0**e),
            st.sampled_from([0.0, 1e-291, 1e-289, 1e-200]),
        ),
        min_size=1,
        max_size=12,
    ),
    n_max=st.integers(min_value=0, max_value=150),
)
def test_drawn_columns_equal_the_scalar_loop_bit_for_bit(zs, n_max):
    zs = np.array(zs)
    shared = bessel_rows(zs, n_max)
    own = bessel_row_batch(zs, n_max)
    start = start_order(float(zs.max()), n_max)
    for i, z in enumerate(zs):
        assert np.array_equal(shared[:, i], bessel_row_loop(z, n_max, start)), (z, n_max)
        assert np.array_equal(own[:, i], bessel_row_loop(z, n_max)), (z, n_max)


# n_max far above z: 2n/z reaches 1e4, so a column rescales every few dozen
# orders below n_max and its early rows see three or more rescales, after
# which they are exactly +-0.
@pytest.mark.parametrize("zs", [[0.5, 3.0, 20.0], [20.0], [0.5]])
def test_deep_rescaled_columns_equal_the_scalar_loop_bit_for_bit(zs):
    zs, n_max = np.array(zs), 3000
    shared = bessel_rows(zs, n_max)
    own = bessel_row_batch(zs, n_max)
    start = start_order(float(zs.max()), n_max)
    for i, z in enumerate(zs):
        assert np.array_equal(shared[:, i], bessel_row_loop(z, n_max, start)), z
        assert np.array_equal(own[:, i], bessel_row_loop(z, n_max)), z


def test_shared_start_pass_peaks_under_four_results():
    # survival's J_0..J_2 rows over a long grid: the pass keeps no per-column
    # start orders or rescale records, only its (3, columns) state and temporaries
    z = 2.0 * np.linspace(0.0, 50.0, 200_000)
    tracemalloc.start()
    try:
        rows = bessel_rows(z, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * rows.nbytes


def _smoothing_grid():
    """The 2-D shared-start grid that smoothed_survival passes for criterion 6's times."""
    gamma = WalkParams().gamma
    ts = np.geomspace(50.0, 500.0, 64)
    half = SMOOTHING_HALF_WIDTH / gamma
    offsets = ((np.arange(SMOOTHING_NODES) + 0.5) / SMOOTHING_NODES * 2.0 - 1.0) * half
    return 2.0 * gamma * (ts[..., None] + offsets)


# sha256 of the whole matrix, -0.0 and all. fig5's shared-start pass
# rescales at 847 of its 1116 orders, the series job's per-column pass at
# 225, so a rescale that touched the wrong rows would change these bytes.
@pytest.mark.parametrize("matrix, digest", [
    (lambda: bessel_rows(2 * np.geomspace(0.1, 500, 200), 2),
     "282257ce2587545ef01d378df9218f3149c7c0d986a0e2d7cb1f536e7686a59f"),
    (lambda: bessel_row_batch(2 * np.linspace(0, 500, 201), 1061),
     "c9480bde6bfb34f889130277ae0b67ed88b40c090e77896356e00927b51636a3"),
    (lambda: bessel_rows(_smoothing_grid(), 2),
     "2ec228c8638a2fad6be6c5c0cb81b5cd6ebdd9c94997f054cecbdef052faa48b"),
], ids=["fig5", "series", "smoothing"])
def test_rescaled_matrix_bytes_are_pinned(matrix, digest):
    assert hashlib.sha256(matrix().tobytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def large_z_reference():
    """mpmath J_n(z) at z = 1e3 and 1e4, near the origin, the middle and the turning point."""
    ref = {}
    with mp.workdps(30):
        for z in (1e3, 1e4):
            for n in (0, 1, 2, int(z // 2), int(z) - 5, int(z), int(z) + 5, int(z) + 20):
                # the default limits fail to converge for z in the thousands
                ref[z, n] = float(besselj(n, z, maxprec=100000, maxterms=10**6))
    return ref


def test_accuracy_at_large_arguments(large_z_reference):
    zs = np.array([1e3, 1e4])
    n_max = max(n for _, n in large_z_reference)
    paths = {
        "bessel_row": np.stack([bessel_row(z, n_max) for z in zs], axis=1),
        "bessel_row_batch": bessel_row_batch(zs, n_max),
        "bessel_rows": bessel_rows(zs, n_max),
    }
    for name, table in paths.items():
        for (z, n), expected in large_z_reference.items():
            col = int(np.flatnonzero(zs == z)[0])
            assert abs(table[n, col] - expected) <= 1e-14, (name, z, n)
