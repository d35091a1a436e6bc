import math
import tracemalloc

import numpy as np
import pytest

from zetachain import evolution, synthesis
from zetachain import (
    SimulationParams,
    StepTooLarge,
    SymmetricTridiagonal,
    TimeGrid,
    ValidationError,
    evolve_ode,
    evolve_spectral,
    synthesize,
)

GOLDEN_PARAMS = SimulationParams(5, 0.5, 2.0)


def truncated_series_reference(params, times):
    """Direct evaluation of the normalized truncated Dirichlet sum at s = sigma + it."""
    n = np.arange(params.n_levels) + params.a
    norm2 = 1.0 / np.sum(n**-params.sigma)
    return np.array(
        [norm2 * np.sum(n ** -(params.sigma + 1j * t)) for t in times]
    )


def rk4_reference(tri, grid, step):
    """States of classical RK4 with four dense matvecs per sub-step, sub-steps as in evolve_ode."""
    h_mat = tri.to_dense()
    c = np.zeros(tri.order, dtype=complex)
    c[0] = 1.0
    states = []
    t_prev = 0.0
    for t in grid.times():
        if t != t_prev:
            span = t - t_prev
            n_sub = max(int(np.ceil(abs(span) / step - 1e-12)), 1)
            h = span / n_sub
            for _ in range(n_sub):
                k1 = -1j * (h_mat @ c)
                k2 = -1j * (h_mat @ (c + 0.5 * h * k1))
                k3 = -1j * (h_mat @ (c + 0.5 * h * k2))
                k4 = -1j * (h_mat @ (c + h * k3))
                c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_prev = t
        states.append(c)
    return np.array(states)


def test_time_grid_validation():
    with pytest.raises(ValidationError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValidationError):
        TimeGrid(0.0, 1.0, 1)
    with pytest.raises(ValidationError):
        TimeGrid(0.0, 1.0, 10, t_coh=-1.0)
    with pytest.raises(ValidationError, match="n_points must be a positive integer"):
        TimeGrid(0.0, 1.0, 2.5)
    for t_start, t_end in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValidationError, match="finite"):
            TimeGrid(t_start, t_end, 10)
    # a non-number raised a raw TypeError and an int beyond the double range an OverflowError
    for bad in ("0", None, 2 + 0j, 10**400, 10**5000):
        with pytest.raises(ValidationError, match="t_start must be finite"):
            TimeGrid(bad, 1.0, 3)
        with pytest.raises(ValidationError, match="t_end must be finite"):
            TimeGrid(0.0, bad, 3)
    # t_coh = None is the default, no cutoff; a huge int passed a bare comparison, then overflowed in times()
    for bad in ("0", "5", 2 + 0j, 10**400, 10**5000):
        with pytest.raises(ValidationError, match="t_coh must be positive"):
            TimeGrid(0.0, 1.0, 3, t_coh=bad)
    assert TimeGrid(0.0, 1.0, 3, t_coh=math.inf).times().tolist() == [0.0, 0.5, 1.0]


def test_time_grid_rejects_a_window_length_beyond_double_range():
    # both ends are finite, their distance is not: linspace would make NaN sample times
    with pytest.raises(ValidationError, match="window length"):
        TimeGrid(-1e308, 1e308, 3)
    assert np.isfinite(TimeGrid(-1e308, 7e307, 3).times()).all()


def test_time_grid_coherence_cutoff():
    grid = TimeGrid(0.0, 10.0, 11, t_coh=4.5)
    full = TimeGrid(0.0, 10.0, 11)
    t = grid.times()
    np.testing.assert_allclose(t, [0, 1, 2, 3, 4], atol=0)
    # retained samples are identical to the uncut grid
    np.testing.assert_allclose(t, full.times()[:5], atol=0)


def test_spectral_starts_at_one():
    series = evolve_spectral(synthesize(GOLDEN_PARAMS), TimeGrid(0.0, 5.0, 101))
    assert abs(series.amplitudes[0] - 1.0) < 1e-12
    assert np.abs(series.amplitudes).max() <= 1.0 + 1e-12


# _clip_unit scales each excursion back by 1/|a|; that product and |a| itself
# round, which left |a| at most 2 ulps above 1 over 1e6 random phases
_CLIPPED_MAX = 1.0 + 4 * np.finfo(float).eps


@pytest.mark.parametrize(
    "grid", [TimeGrid(0.0, 20.0, 201), TimeGrid(-3.0, 10.0, 27, t_coh=4.2)], ids=["full", "cut_by_t_coh"]
)
@pytest.mark.parametrize("route", ["spectral", "ode"])
def test_series_has_matching_shapes_complex_amplitudes_and_unit_bound(route, grid):
    tri = synthesize(SimulationParams(40, 0.5, 1.5))
    series = evolve_spectral(tri, grid) if route == "spectral" else evolve_ode(tri, grid)[1]
    np.testing.assert_array_equal(series.times, grid.times())
    assert series.times.dtype == np.float64
    assert series.amplitudes.dtype == np.complex128
    assert series.amplitudes.shape == series.times.shape
    assert np.abs(series.amplitudes).max() <= _CLIPPED_MAX


def test_clip_unit_scales_excursions_back_and_leaves_the_rest():
    # both routes sum to |a| <= 1 up to a few ulps, so their inputs rarely reach the clip
    rng = np.random.default_rng(11)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 1000))
    over = (1.0 + 10.0 ** rng.uniform(-16.0, -6.0, 1000)) * phases
    under = rng.uniform(0.0, 1.0, 1000) * phases
    clipped = evolution._clip_unit(np.concatenate([over, under]))
    assert np.abs(clipped).max() <= _CLIPPED_MAX
    np.testing.assert_allclose(np.abs(clipped[:1000]), 1.0, rtol=0, atol=4 * np.finfo(float).eps)
    np.testing.assert_array_equal(clipped[1000:], under)


def test_spectral_single_stationary_site():
    # a = 1, N = 1: eigenvalue ln(1) = 0, so a(t) = 1 for all t
    series = evolve_spectral(synthesize(SimulationParams(1, 1.0, 2.0)), TimeGrid(0.0, 20.0, 41))
    np.testing.assert_allclose(series.amplitudes, np.ones(41), atol=1e-15)


@pytest.mark.parametrize(
    "params",
    [GOLDEN_PARAMS, SimulationParams(50, 1.0, 1.5), SimulationParams(200, 1.0, 2.0)],
)
def test_spectral_equals_truncated_series(params):
    # central identity: the autocorrelation is the normalized truncated sum
    grid = TimeGrid(0.0, 50.0, 501)
    series = evolve_spectral(synthesize(params), grid)
    ref = truncated_series_reference(params, series.times)
    assert np.abs(series.amplitudes - ref).max() < 1e-10


def test_spectral_time_reversal_symmetry():
    tri = synthesize(GOLDEN_PARAMS)
    fwd = evolve_spectral(tri, TimeGrid(0.0, 10.0, 101))
    bwd = evolve_spectral(tri, TimeGrid(-10.0, 0.0, 101))
    np.testing.assert_allclose(
        bwd.amplitudes[::-1], np.conj(fwd.amplitudes), atol=1e-13
    )


def test_ode_single_site_pure_phase():
    tri = SymmetricTridiagonal(np.array([0.8]), np.empty(0))
    grid = TimeGrid(0.0, 5.0, 26)
    traj, series = evolve_ode(tri, grid, 1e-3)
    np.testing.assert_allclose(
        series.amplitudes, np.exp(-1j * 0.8 * series.times), atol=1e-10
    )
    drift = np.abs(np.linalg.norm(traj.states, axis=1) - 1.0).max()
    assert drift < 1e-12


def test_ode_matches_spectral():
    tri = synthesize(GOLDEN_PARAMS)
    grid = TimeGrid(0.0, 50.0, 501)
    spec = evolve_spectral(tri, grid)
    traj, ode = evolve_ode(tri, grid, 1e-3)
    assert np.abs(ode.amplitudes - spec.amplitudes).max() < 1e-6
    assert np.abs(np.linalg.norm(traj.states, axis=1) - 1.0).max() < 1e-6


def test_ode_fourth_order_convergence():
    # in the truncation-dominated step regime halving gains ~16x
    tri = synthesize(GOLDEN_PARAMS)
    grid = TimeGrid(0.0, 25.0, 126)
    spec = evolve_spectral(tri, grid)
    _, coarse = evolve_ode(tri, grid, 0.025)
    _, fine = evolve_ode(tri, grid, 0.0125)
    dev_coarse = np.abs(coarse.amplitudes - spec.amplitudes).max()
    dev_fine = np.abs(fine.amplitudes - spec.amplitudes).max()
    assert 12.0 < dev_coarse / dev_fine < 20.0


def test_ode_step_too_large():
    tri = synthesize(SimulationParams(20, 0.5, 1.5))
    with pytest.raises(StepTooLarge):
        evolve_ode(tri, TimeGrid(0.0, 30.0, 31), 1.0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_ode_overflow_to_nan_is_step_too_large():
    # h * H overflows, the state turns to NaN, and a NaN drift must not pass the check
    tri = SymmetricTridiagonal(np.array([0.0, 1e300]), np.array([1e300]))
    with pytest.raises(StepTooLarge):
        evolve_ode(tri, TimeGrid(0.0, 1.0, 3), 0.5)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_ode_entries_near_the_double_limit_are_step_too_large():
    # |entry| >= 2**1023: the power-of-two scale rho must stay finite, not overflow to a traceback
    tri = SymmetricTridiagonal(np.array([1e308, -1e308]), np.array([1e308]))
    with pytest.raises(StepTooLarge):
        evolve_ode(tri, TimeGrid(0.0, 1.0, 3))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_ode_stops_at_the_first_non_finite_state():
    # the state is NaN after one sub-step; the run stops within a few hundred
    # sub-steps instead of stepping on NaN until the first sample at t = 25
    tri = SymmetricTridiagonal(np.array([0.0, 1e300]), np.array([1e300]))
    grid = TimeGrid(0.0, 50.0, 3)
    with pytest.raises(StepTooLarge, match="non-finite") as err:
        evolve_ode(tri, grid)
    t = float(str(err.value).split("by t = ")[1].split(";")[0])
    assert 0.0 < t < grid.times()[1]


def test_time_grid_rejects_cutoff_before_start():
    with pytest.raises(ValidationError, match="not before t_start"):
        TimeGrid(5.0, 50.0, 5, t_coh=1.0)
    # a cutoff at the start keeps exactly the first sample
    assert TimeGrid(1.0, 5.0, 5, t_coh=1.0).times().tolist() == [1.0]


# an infinite step ran one RK4 sub-step per sample, and a str or None raised a raw TypeError
@pytest.mark.parametrize("step", [0.0, -1e-3, math.inf, math.nan, "0.01", None])
def test_ode_rejects_bad_step(step):
    with pytest.raises(ValidationError, match="step must be positive"):
        evolve_ode(synthesize(GOLDEN_PARAMS), TimeGrid(0.0, 1.0, 3), step)


def test_ode_step_count_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(evolution, "_RK4_MAX_STEPS", 1000)
    tri = synthesize(GOLDEN_PARAMS)
    evolve_ode(tri, TimeGrid(0.0, 1.0, 3), 1e-3)  # 500 + 500 sub-steps
    with pytest.raises(ValidationError, match="1.002e[+]03 RK4 sub-steps"):
        evolve_ode(tri, TimeGrid(0.0, 1.0, 3), 0.999e-3)


# N = 9 is the probe width; step 0.5 is longer than the 0.05 spans, so each span is one sub-step
@pytest.mark.parametrize("step", [1e-3, 0.025, 0.5])
@pytest.mark.parametrize("n", [1, 2, 8, 9, 10, 16, 64])
def test_ode_matches_reference_loop(n, step):
    tri = synthesize(SimulationParams(n, 0.5, 2.0))
    grid = TimeGrid(0.0, 2.0, 41)
    traj, _ = evolve_ode(tri, grid, step)
    assert np.abs(traj.states - rk4_reference(tri, grid, step)).max() < 1e-12


@pytest.mark.parametrize(
    "grid",
    [TimeGrid(-1.0, 1.0, 21), TimeGrid(0.0, 10.0, 101, t_coh=2.5)],
    ids=["negative_first_span", "coherence_cutoff"],
)
def test_ode_matches_reference_loop_on_cut_grids(grid):
    tri = synthesize(SimulationParams(10, 0.5, 2.0))
    traj, _ = evolve_ode(tri, grid, 1e-3)
    np.testing.assert_array_equal(traj.times, grid.times())
    assert np.abs(traj.states - rk4_reference(tri, grid, 1e-3)).max() < 1e-12


def test_ode_matches_reference_loop_when_hamiltonian_powers_overflow():
    # H ~ 1e200 with h ~ 1e-202: h*H is small although H**2 overflows a double
    base = synthesize(SimulationParams(10, 0.5, 2.0))
    tri = SymmetricTridiagonal(1e200 * base.diagonal, 1e200 * base.offdiagonal)
    grid = TimeGrid(0.0, 1e-200, 11)
    traj, _ = evolve_ode(tri, grid, 1e-202)
    assert np.abs(traj.states - rk4_reference(tri, grid, 1e-202)).max() < 1e-12


def test_ode_memory_within_the_dense_budget():
    # synthesize admits an N whose _DENSE_ARRAYS float64 N x N arrays fit in memory
    n = 500
    tri = synthesize(SimulationParams(n, 0.5, 2.0))
    tracemalloc.start()
    try:
        evolve_ode(tri, TimeGrid(0.0, 0.002, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= synthesis._DENSE_ARRAYS * 8 * n * n
