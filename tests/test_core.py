import math

import numpy as np
import pytest

from zetachain import (
    SimulationParams,
    ValidationError,
    log_spectrum,
    riemann_amplitudes,
)


def test_log_spectrum_golden_n5():
    p = SimulationParams(5, 0.5, 2.0)
    expected = np.log(np.array([0.5, 1.5, 2.5, 3.5, 4.5]))
    np.testing.assert_allclose(log_spectrum(p).energies, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        log_spectrum(p).energies, [-0.6931, 0.4055, 0.9163, 1.2528, 1.5041], atol=1e-4
    )


def test_log_spectrum_trivial():
    assert log_spectrum(SimulationParams(1, 1.0, 2.0)).energies.tolist() == [0.0]
    np.testing.assert_allclose(
        log_spectrum(SimulationParams(3, 1.0, 2.0)).energies,
        [0.0, math.log(2.0), math.log(3.0)],
        atol=1e-15,
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_levels=0, a=0.5, sigma=2.0),
        dict(n_levels=-3, a=0.5, sigma=2.0),
        dict(n_levels=5, a=0.0, sigma=2.0),
        dict(n_levels=5, a=1.5, sigma=2.0),
        dict(n_levels=5, a=-0.2, sigma=2.0),
        dict(n_levels=5, a=0.5, sigma=1.0),
        dict(n_levels=5, a=0.5, sigma=0.9),
        dict(n_levels=5, a=0.5, sigma=2.0, omega=0.0),
        dict(n_levels=math.inf, a=0.5, sigma=2.0),
        dict(n_levels=math.nan, a=0.5, sigma=2.0),
        dict(n_levels=5, a=math.nan, sigma=2.0),
        dict(n_levels=5, a=0.5, sigma=math.inf),
        dict(n_levels=5, a=0.5, sigma=math.nan),
        dict(n_levels=5, a=0.5, sigma=2.0, omega=math.inf),
        dict(n_levels=5, a=0.5, sigma=2.0, omega=math.nan),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValidationError):
        SimulationParams(**kwargs)


def test_amplitudes_golden_n5():
    amps = riemann_amplitudes(SimulationParams(5, 0.5, 2.0))
    np.testing.assert_allclose(
        amps.amplitudes, [0.919, 0.306, 0.184, 0.131, 0.102], atol=1e-3
    )


def test_amplitudes_single_level():
    amps = riemann_amplitudes(SimulationParams(1, 0.37, 3.0))
    np.testing.assert_allclose(amps.amplitudes, [1.0], atol=1e-15)


def test_amplitudes_two_level_hand_normalized():
    # C proportional to [1, 1/2] -> [2/sqrt(5), 1/sqrt(5)]
    amps = riemann_amplitudes(SimulationParams(2, 1.0, 2.0))
    np.testing.assert_allclose(
        amps.amplitudes, [2.0 / math.sqrt(5.0), 1.0 / math.sqrt(5.0)], atol=1e-14
    )


@pytest.mark.parametrize("n", [1, 5, 64, 1000])
@pytest.mark.parametrize("a,sigma", [(0.5, 2.0), (1.0, 1.5), (0.25, 4.0)])
def test_amplitude_invariants(n, a, sigma):
    p = SimulationParams(n, a, sigma)
    c = riemann_amplitudes(p).amplitudes
    assert abs(np.sum(c * c) - 1.0) < 1e-14
    assert np.all(c > 0.0)
    assert np.all(np.diff(c) < 0.0) or n == 1
    # squared amplitudes are the t = 0 Dirichlet weights up to one constant factor
    scaled = c * c * (np.arange(n) + a) ** sigma
    np.testing.assert_allclose(scaled, scaled[0], rtol=1e-13)


def test_amplitudes_finite_where_unscaled_weights_overflow():
    amps = riemann_amplitudes(SimulationParams(30, 0.01, 200.0))
    assert amps.amplitudes[0] == 1.0
    assert np.all(np.isfinite(amps.amplitudes))


def test_amplitudes_keep_the_root_of_an_underflowing_weight():
    # the weight (0.01 / 1.01)**200 ~ 1e-401 underflows to 0, its root 101**-100 ~ 3.7e-201 does not
    amps = riemann_amplitudes(SimulationParams(2, 0.01, 200.0))
    assert amps.amplitudes[0] == 1.0
    assert amps.amplitudes[1] == pytest.approx(101.0**-100, rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [2, 17, 200])
def test_spectrum_strictly_increasing(n):
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.uniform(0.05, 1.0)
        e = log_spectrum(SimulationParams(n, a, 2.0)).energies
        assert np.all(np.diff(e) > 0.0)
