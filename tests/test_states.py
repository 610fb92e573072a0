import numpy as np
import pytest

from clocklab.grids import MAX_NODES, NumericalHealthWarning, UniformGrid
from clocklab.moments import state_moments
from clocklab.states import (
    GaussianClockSpec,
    GridSizeError,
    MomentumSpaceState,
    gaussian_state,
    make_gaussian_state,
    state_from_profiles,
    suggest_grids,
)

from oracles import _diagonal, dilation


def test_gaussian_state_is_normalized_and_centered():
    spec = GaussianClockSpec(e0=10.0, sigma_e=0.5, sigma_p=0.5)
    state = gaussian_state(spec)
    assert state_moments(state).e_mean == pytest.approx(10.0, abs=1e-8)
    assert _diagonal(state, state.p_grid.nodes[None, :]) == pytest.approx(0.0, abs=1e-10)


def test_gaussian_energy_spread_matches_spec():
    spec = GaussianClockSpec(e0=10.0, sigma_e=0.5, sigma_p=0.5)
    state = gaussian_state(spec)
    e2 = float((state.e_grid.nodes[:, None] ** 2 * np.abs(state.values) ** 2).sum()
               * state.cell_measure())
    d_e = np.sqrt(e2 - state_moments(state).e_mean ** 2)
    assert d_e == pytest.approx(0.5, rel=1e-6)


def test_minimum_uncertainty_gaussian_spreads():
    spec = GaussianClockSpec(e0=10.0, sigma_e=0.5, sigma_p=0.5)
    reading = state_moments(gaussian_state(spec)).reading
    assert reading.mean_tau == pytest.approx(0.0, abs=1e-8)
    assert np.sqrt(reading.var_tau) == pytest.approx(1.0, rel=1e-6)  # hbar / (2 sigma_e)


def test_tau_offset_shifts_mean_reading():
    spec = GaussianClockSpec(e0=10.0, sigma_e=0.5, tau0=3.0, sigma_p=0.5)
    state = gaussian_state(spec)
    assert state_moments(state).reading.mean_tau == pytest.approx(3.0, abs=1e-8)


def test_tau_offset_widens_the_proper_time_window():
    """A state built with its tau0 needs a tau window that reaches |tau0|:
    suggest_grids sizes the E grid for it, at t_max = 0 too."""
    state = gaussian_state(GaussianClockSpec(e0=10.0, sigma_e=0.5, tau0=40.0, sigma_p=0.5),
                           t_max=0.0)
    reading = state_moments(state).reading
    assert reading.mean_tau == pytest.approx(40.0, abs=1e-12)
    assert reading.tau_window < 1e-8


def test_coverage_violation_raises():
    spec = GaussianClockSpec(e0=10.0, sigma_e=1.0, sigma_p=0.5)
    e_grid = UniformGrid(5.0, 15.0, 256)   # only 5 sigma either side
    p_grid = UniformGrid(-6.0, 6.0, 64)
    with pytest.raises(ValueError, match="grid too small"):
        make_gaussian_state(spec, e_grid, p_grid)


def test_resolution_violation_raises():
    spec = GaussianClockSpec(e0=0.0, sigma_e=0.01, sigma_p=1.0)
    e_grid = UniformGrid(-16.0, 16.0, 256)  # sigma_e is far below one cell
    p_grid = UniformGrid(-16.0, 16.0, 64)
    with pytest.raises(ValueError, match="grid too coarse"):
        make_gaussian_state(spec, e_grid, p_grid)


def test_non_normalized_values_rejected():
    e_grid = UniformGrid(-16.0, 16.0, 64)
    p_grid = UniformGrid(-16.0, 16.0, 64)
    vals = np.exp(-(e_grid.nodes[:, None] ** 2 + p_grid.nodes[None, :] ** 2) / 4.0)
    with pytest.raises(ValueError, match="normalized"):
        MomentumSpaceState(e_grid, p_grid, vals)


def test_boundary_health_warning_for_wide_state():
    spec = GaussianClockSpec(e0=0.0, sigma_e=2.0, sigma_p=2.0)
    e_grid = UniformGrid(-17.0, 17.0, 256)  # 8.5 sigma: legal but unhealthy
    p_grid = UniformGrid(-17.0, 17.0, 64)
    with pytest.warns(NumericalHealthWarning):
        make_gaussian_state(spec, e_grid, p_grid)


def _residual_reach(spec, t):
    """tau0 plus t * max |D - v| over the 4-sigma corners, v = D(e0, p0)."""
    v = dilation(spec.e0, spec.p0)
    return abs(spec.tau0) + t * max(
        abs(dilation(spec.e0 + i * 4 * spec.sigma_e, spec.p0 + j * 4 * spec.sigma_p) - v)
        for i in (-1, 0, 1) for j in (-1, 0, 1))


def test_suggest_grids_scales_resolution_with_time():
    spec = GaussianClockSpec(e0=10.0, sigma_e=0.5, sigma_p=0.5)
    short, _ = suggest_grids(spec, t_max=1.0)
    long, _ = suggest_grids(spec, t_max=400.0)
    assert long.n >= short.n
    # the conjugate proper-time window must cover the reading in the
    # co-moving frame: its residual drift, not the whole drift t <D>
    assert np.pi / long.step >= 1.3 * _residual_reach(spec, 400.0)
    # a dilation spread of +-0.14 about v still makes n_e grow with t
    spread = GaussianClockSpec(e0=10.0, sigma_e=0.5, p0=10.0, sigma_p=0.5)
    grids = [suggest_grids(spread, t_max=t)[0] for t in (1.0, 2e3, 1e4)]
    assert grids[0].n < grids[1].n < grids[2].n
    for grid, t in zip(grids, (1.0, 2e3, 1e4)):
        assert np.pi / grid.step >= 1.3 * _residual_reach(spread, t)


def test_suggest_grids_sizes_by_accuracy_and_floors_only_raise():
    spec = GaussianClockSpec(e0=10.0, sigma_e=0.5, sigma_p=0.5)
    # 3 cells per sigma over +-12 sigma is 72 cells, rounded up to 128; p
    # takes 16 Gauss-Hermite nodes
    assert [g.n for g in suggest_grids(spec)] == [128, 16]
    assert [g.n for g in suggest_grids(spec, n_e=1024, n_p=256)] == [1024, 256]
    assert [g.n for g in suggest_grids(spec, n_e=8, n_p=64)] == [128, 64]


def test_p_node_rule_stops_at_max_nodes():
    # at t = 100 on e0 = 10, a spread sigma_p = 8 needs every node an axis
    # may take (256 agree with 512 where 128 do not); at sigma_p = 10 no
    # count up to MAX_NODES agrees with twice as many, which is an error,
    # not a state on fewer nodes than the rule asks
    wide = GaussianClockSpec(e0=10.0, sigma_e=0.5, sigma_p=8.0)
    assert suggest_grids(wide, t_max=100.0)[1].n == MAX_NODES
    wider = GaussianClockSpec(e0=10.0, sigma_e=0.5, sigma_p=10.0)
    with pytest.raises(GridSizeError, match=f"more than {MAX_NODES} nodes"):
        suggest_grids(wider, t_max=100.0)
    with pytest.raises(GridSizeError, match=f"more than {MAX_NODES} nodes"):
        suggest_grids(wider, t_max=100.0, n_p=MAX_NODES)
    assert suggest_grids(wider, n_p=MAX_NODES)[1].n == MAX_NODES  # t = 0 reads no drift


def test_suggest_grids_reach_holds_the_reading_tail():
    # a rest clock with a wide momentum spread: D - v ~ -p^2 / 2E^2, so the
    # window must reach the drift of the p tail where its mass is 1e-8
    # (6.07 sigma in the (E, p) ellipse), not the drift at 4 sigma
    spec = GaussianClockSpec(e0=20.0, sigma_e=0.5, sigma_p=1.8)
    t = 9000.0
    e_grid, _ = suggest_grids(spec, t_max=t)
    tail = t * abs(dilation(20.0, 6.07 * 1.8) - 1.0)
    assert np.pi / e_grid.step >= 1.6 * tail
    assert tail > 1.5 * _residual_reach(spec, t)


def test_profile_builder_normalizes():
    e_grid = UniformGrid(-16.0, 16.0, 256)
    p_grid = UniformGrid(-16.0, 16.0, 64)
    state = state_from_profiles(
        e_grid, p_grid,
        lambda E: np.exp(-(E - 3.0) ** 2 / 4.0) + np.exp(-(E + 3.0) ** 2 / 4.0),
        lambda p: np.exp(-p**2 / 4.0))
    rho = np.abs(state.values) ** 2
    assert rho.sum() * state.cell_measure() == pytest.approx(1.0, abs=1e-12)


def test_spec_rejects_nonpositive_spreads():
    with pytest.raises(ValueError):
        GaussianClockSpec(e0=1.0, sigma_e=0.0)
    with pytest.raises(ValueError):
        GaussianClockSpec(e0=1.0, sigma_e=1.0, sigma_p=-1.0)
