import importlib
import inspect
import math
import warnings

import numpy as np
import pytest

import zetachain
from zetachain import (
    FabricationConstants,
    SimulationParams,
    ValidationError,
    log_spectrum,
    n_min,
    riemann_amplitudes,
    tail_bound,
)

LAYERS = ["core", "synthesis", "verification", "evolution", "zetaref", "design", "errors"]


def test_log_spectrum_golden_n5():
    p = SimulationParams(5, 0.5, 2.0)
    expected = np.log(np.array([0.5, 1.5, 2.5, 3.5, 4.5]))
    np.testing.assert_allclose(log_spectrum(p), expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        log_spectrum(p), [-0.6931, 0.4055, 0.9163, 1.2528, 1.5041], atol=1e-4
    )


def test_log_spectrum_trivial():
    assert log_spectrum(SimulationParams(1, 1.0, 2.0)).tolist() == [0.0]
    np.testing.assert_allclose(
        log_spectrum(SimulationParams(3, 1.0, 2.0)),
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
        # a str, complex or None count raised a raw TypeError
        dict(n_levels="5", a=0.5, sigma=2.0),
        dict(n_levels=3 + 0j, a=0.5, sigma=2.0),
        dict(n_levels=None, a=0.5, sigma=2.0),
        # above 2**53 a count has no exact double
        dict(n_levels=2**53 + 1, a=0.5, sigma=2.0),
        # a str, complex or None a, sigma or omega raised a raw TypeError
        dict(n_levels=5, a="0.5", sigma=2.0),
        dict(n_levels=5, a=0.5, sigma="2"),
        dict(n_levels=5, a=0.5, sigma=2 + 0j),
        dict(n_levels=5, a=0.5, sigma=2.0, omega="1"),
        dict(n_levels=5, a=0.5, sigma=2.0, omega=None),
        # Python refuses to print an int of over 4300 digits, so formatting the refusal raised ValueError
        dict(n_levels=10**5000, a=0.5, sigma=2.0),
        # an int beyond the largest double passed as finite, then raised OverflowError
        dict(n_levels=5, a=0.5, sigma=10**400),
        dict(n_levels=5, a=0.5, sigma=2.0, omega=10**400),
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


@pytest.mark.parametrize("n", [1, 5, 64])
def test_amplitude_vector_reads_as_its_float_array(n):
    amps = riemann_amplitudes(SimulationParams(n, 0.5, 2.0))
    c = np.asarray(amps)
    assert c.dtype == np.float64 and c.shape == (n,)
    np.testing.assert_array_equal(c, amps.amplitudes)
    np.testing.assert_array_equal(np.asarray(amps, dtype=complex), amps.amplitudes)
    # np.array copies unless told not to, so the record's array is never handed out to be written
    assert not np.shares_memory(np.array(amps), amps.amplitudes)


@pytest.mark.parametrize("n", [2, 17, 200])
def test_spectrum_strictly_increasing(n):
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.uniform(0.05, 1.0)
        e = log_spectrum(SimulationParams(n, a, 2.0))
        assert np.all(np.diff(e) > 0.0)


@pytest.mark.parametrize("layer", LAYERS)
def test_every_layer_export_resolves_and_is_reexported(layer):
    # tools that wrap a layer walk its __all__, so a stale name breaks them all
    mod = importlib.import_module(f"zetachain.{layer}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"zetachain.{layer}.__all__ names missing {name}"
        assert getattr(zetachain, name, None) is getattr(mod, name), f"zetachain does not export {name}"


def test_package_exports_exactly_the_layers_public_names():
    # zetachain re-exports each layer's __all__, so a layer without one would leak its imports
    exported = {
        name for name, value in vars(zetachain).items() if not name.startswith("_") and not inspect.ismodule(value)
    }
    declared = set().union(*(importlib.import_module(f"zetachain.{layer}").__all__ for layer in LAYERS))
    assert exported == declared


@pytest.mark.parametrize(
    "call",
    [
        lambda: SimulationParams(5, 0.5, np.float32(2.0), np.float32(1.0)),
        lambda: FabricationConstants(np.float32(2), 1, 300, 1e-3, 1.5),
        lambda: n_min(np.float32(2.0)),
        lambda: tail_bound(np.float16(2.0), 0.5, 5),
    ],
    ids=["params", "fabrication", "n_min", "tail_bound"],
)
def test_narrow_float_scalars_pass_the_finite_rules_without_a_warning(call):
    # a bound at the largest double overflows when numpy casts it to float32 or float16
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call()
