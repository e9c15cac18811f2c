import dataclasses

import numpy as np
import pytest

from mpxpi import kernels, sim
from mpxpi.errors import DimensionError, NoEquilibriumError
from mpxpi.graph import LayerGraph, empty_graph, laplacian, path_graph, ring_graph, star_graph
from mpxpi.sim import (
    assemble,
    certified_cells,
    consensus_index,
    equilibrium,
    error_system,
    simulate,
    spectral_abscissa,
    sweep,
)
from mpxpi.stability import MultiplexSystem, NodeDynamics, check_theorem

from conftest import random_system


def _scalar_pair(a_values, b_values, sigma_p=1.0, sigma_i=1.0):
    nodes = tuple(
        NodeDynamics(np.array([[a]]), np.array([b])) for a, b in zip(a_values, b_values)
    )
    return MultiplexSystem(
        nodes=nodes,
        layer_c=empty_graph(2),
        layer_p=path_graph(2),
        layer_i=path_graph(2),
        sigma_p=sigma_p,
        sigma_i=sigma_i,
    )


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------


def test_equilibrium_demo_network(demo8):
    x_star, z_star = equilibrium(demo8)
    np.testing.assert_allclose(x_star[:2], [27.7064, -11.6881], atol=1e-3)
    np.testing.assert_allclose(x_star[2:4], x_star[:2])
    loop = assemble(demo8)
    residual = loop.state_matrix @ np.concatenate([x_star, z_star]) + loop.forcing
    assert np.abs(residual).max() < 1e-9


def test_equilibrium_zero_bias():
    a = np.array([[-1.0, 0.2], [0.0, -0.5]])
    nodes = tuple(NodeDynamics(a, np.zeros(2)) for _ in range(3))
    sys = MultiplexSystem(
        nodes=nodes,
        layer_c=empty_graph(3),
        layer_p=ring_graph(3),
        layer_i=ring_graph(3),
        sigma_p=1.0,
        sigma_i=1.0,
    )
    x_star, z_star = equilibrium(sys)
    assert np.abs(x_star).max() == 0.0
    assert np.abs(z_star).max() == 0.0


def test_equilibrium_two_scalar_nodes_by_hand():
    sys = _scalar_pair([-1.0, -1.0], [1.0, 3.0])
    x_star, z_star = equilibrium(sys)
    np.testing.assert_allclose(x_star, [2.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(z_star, [1.0, -1.0], atol=1e-14)


def test_equilibrium_singular_average_raises():
    with pytest.raises(NoEquilibriumError):
        equilibrium(_scalar_pair([1.0, -1.0], [1.0, 1.0]))


def test_equilibrium_residual_on_random_systems():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(25):
        sys = random_system(rng, max_nodes=6, max_dim=3)
        try:
            x_star, z_star = equilibrium(sys)
        except NoEquilibriumError:
            continue
        loop = assemble(sys)
        residual = loop.state_matrix @ np.concatenate([x_star, z_star]) + loop.forcing
        assert np.abs(residual).max() < 1e-9
        checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


def test_assemble_two_node_block_structure():
    sys = _scalar_pair([-0.5, 0.25], [1.0, 0.0])
    loop = assemble(sys)
    expected = np.array(
        [
            [-1.5, 1.0, 1.0, 0.0],
            [1.0, -0.75, 0.0, 1.0],
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
        ]
    )
    np.testing.assert_allclose(loop.state_matrix, expected, atol=1e-14)
    np.testing.assert_allclose(loop.forcing, [1.0, 0.0, 0.0, 0.0])


def test_assemble_block_invariants(demo8):
    loop = assemble(demo8)
    size = 16
    np.testing.assert_array_equal(loop.state_matrix[size:, size:], np.zeros((size, size)))
    np.testing.assert_array_equal(loop.state_matrix[:size, size:], np.eye(size))
    np.testing.assert_allclose(
        loop.state_matrix[size:, :size],
        -demo8.sigma_i * np.kron(laplacian(demo8.layer_i), np.eye(2)),
        atol=1e-14,
    )


def test_assemble_zero_gains_is_open_loop(demo8):
    sys = dataclasses.replace(demo8, sigma=0.0, sigma_p=0.0, sigma_i=0.0)
    loop = assemble(sys)
    block = np.zeros((16, 16))
    for k, a in enumerate(demo8.effective_a()):
        block[2 * k:2 * k + 2, 2 * k:2 * k + 2] = a
    np.testing.assert_array_equal(loop.state_matrix[:16, :16], block)
    np.testing.assert_array_equal(loop.state_matrix[16:, :16], np.zeros((16, 16)))


def test_closed_loop_stable_off_the_consensus_modes(demo8):
    # full spectrum = error spectrum plus the structurally conserved modes
    loop = assemble(demo8)
    eigs = np.linalg.eigvals(loop.state_matrix)
    eigs = sorted(eigs, key=lambda z: abs(z))
    conserved, rest = eigs[: demo8.state_dim], eigs[demo8.state_dim:]
    assert max(abs(z) for z in conserved) < 1e-10
    assert max(z.real for z in rest) < 0.0


# ---------------------------------------------------------------------------
# error system
# ---------------------------------------------------------------------------


def test_error_spectrum_matches_closed_loop(demo8):
    err = error_system(demo8)
    full = np.sort_complex(np.linalg.eigvals(assemble(demo8).state_matrix))
    reduced = np.sort_complex(
        np.concatenate([np.linalg.eigvals(err.matrix), np.zeros(demo8.state_dim)])
    )
    assert np.abs(full - reduced).max() < 1e-10


def test_error_abscissa_demo_gains(demo8):
    assert error_system(demo8).abscissa() < 0.0


def test_error_abscissa_homogeneous_stable():
    a = np.array([[-1.0, 0.5], [-0.5, -2.0]])
    nodes = tuple(NodeDynamics(a, np.array([1.0, 2.0])) for _ in range(5))
    sys = MultiplexSystem(
        nodes=nodes,
        layer_c=ring_graph(5),
        layer_p=star_graph(5),
        layer_i=path_graph(5),
        sigma=0.3,
        sigma_p=0.7,
        sigma_i=0.9,
    )
    assert error_system(sys).abscissa() < 0.0


def test_error_abscissa_agrees_with_simulation_at_low_gain(demo8):
    # cross-validation at a gain well below the certified cutoff: the error
    # eigenvalues and the trace must tell the same story
    sys = demo8.with_gains(sigma_p=5.0, sigma_i=15.0)
    abscissa = error_system(sys).abscissa()
    x0 = np.random.default_rng(0).standard_normal(16)
    trace = simulate(sys, x0, 60.0, 1e-3, record_every=1000)
    converged = (not trace.divergent) and trace.d_x[-1] < 1e-3
    assert converged == (abscissa < 0.0)


def test_error_abscissa_positive_without_integral_action(demo8):
    # sigma_i = 0 freezes the reduced integral states: a zero eigenvalue
    sys = demo8.with_gains(sigma_i=0.0)
    assert error_system(sys).abscissa() >= 0.0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_demo_converges_to_consensus(demo8):
    x0 = np.random.default_rng(42).standard_normal(16)
    trace = simulate(demo8, x0, 20.0, 1e-3, record_every=100)
    assert not trace.divergent
    assert trace.d_x[-1] < trace.d_x[0] * 1e-2
    assert trace.times[-1] == pytest.approx(20.0)
    assert trace.states.shape == (201, 16)


def test_simulate_conserves_integral_sum(demo8):
    x0 = np.random.default_rng(7).standard_normal(16)
    trace = simulate(demo8, x0, 5.0, 1e-3, record_every=10)
    sums = trace.integrals.reshape(-1, 8, 2).sum(axis=1)
    assert np.abs(sums).max() < 1e-6


def test_simulate_identical_nodes_stay_on_consensus_manifold():
    a = np.array([[-0.5]])
    nodes = (NodeDynamics(a, np.array([1.0])), NodeDynamics(a, np.array([1.0])))
    sys = MultiplexSystem(
        nodes=nodes,
        layer_c=empty_graph(2),
        layer_p=path_graph(2),
        layer_i=path_graph(2),
        sigma_p=1.0,
        sigma_i=1.0,
    )
    trace = simulate(sys, np.array([0.7, 0.7]), 10.0, 1e-3, record_every=100)
    assert np.abs(trace.d_x).max() < 1e-12


def test_simulate_flags_divergence():
    sys = _scalar_pair([2.0, 2.0], [1.0, 0.0], sigma_p=0.1, sigma_i=0.1)
    trace = simulate(sys, np.array([5.0, -3.0]), 40.0, 1e-2, record_every=10)
    assert trace.divergent
    assert trace.times.shape[0] < 401
    assert trace.times.shape[0] == trace.states.shape[0] == trace.d_x.shape[0]


def test_simulate_validates_arguments(demo8):
    with pytest.raises(DimensionError):
        simulate(demo8, np.zeros(3), 1.0, 1e-3)
    with pytest.raises(ValueError):
        simulate(demo8, np.zeros(16), 1.0, 2.0)
    with pytest.raises(ValueError):
        simulate(demo8, np.zeros(16), 1.0, 1e-3, record_every=7)


@pytest.mark.parametrize(
    "t_end, dt",
    [(np.inf, 1e-3), (np.nan, 1e-3), (1.0, np.nan), (1.0, np.inf), (np.inf, np.inf), (1.0, -1e-3)],
)
def test_simulate_rejects_non_finite_times(demo8, t_end, dt):
    with pytest.raises(ValueError, match="finite 0 < dt < t_end"):
        simulate(demo8, np.zeros(16), t_end, dt)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simulate_rejects_non_finite_x0(demo8, bad):
    x0 = np.zeros(16)
    x0[5] = bad
    with pytest.raises(DimensionError, match="x0 must be finite"):
        simulate(demo8, x0, 1.0, 1e-3)


def test_bias_shift_moves_consensus_not_deviations(demo8):
    # matched initial deviations: identical d_x traces, consensus point
    # shifted by the averaged-dynamics response to the bias change
    shift = np.array([1.5, -0.5])
    psi11 = sum(demo8.effective_a()) / 8
    delta = -np.linalg.solve(psi11, shift)

    shifted_nodes = tuple(NodeDynamics(nd.A, nd.b + shift) for nd in demo8.nodes)
    shifted = dataclasses.replace(demo8, nodes=shifted_nodes)

    x0 = np.random.default_rng(3).standard_normal(16)
    base_loop = assemble(demo8)
    shift_loop = assemble(shifted)

    y0 = np.concatenate([x0, np.zeros(16)])
    x_star, z_star = equilibrium(demo8)
    xs_star, zs_star = equilibrium(shifted)
    y0_shifted = np.concatenate([x0 + np.tile(delta, 8), zs_star - z_star])

    a_trace, _ = kernels.integrate_lti(base_loop.state_matrix, base_loop.forcing, y0, 1e-3, 20000, 100)
    b_trace, _ = kernels.integrate_lti(shift_loop.state_matrix, shift_loop.forcing, y0_shifted, 1e-3, 20000, 100)
    d_a = consensus_index(a_trace[:, :16], 8, 2)
    d_b = consensus_index(b_trace[:, :16], 8, 2)
    np.testing.assert_allclose(d_a, d_b, atol=1e-8)
    np.testing.assert_allclose(
        b_trace[-1, :16] - a_trace[-1, :16], np.tile(delta, 8), atol=1e-8
    )


def test_rk4_halving_shows_fourth_order(demo8):
    x0 = np.random.default_rng(1).standard_normal(16)
    dt = 5e-3
    ref = simulate(demo8, x0, 2.0, dt / 8, record_every=1).states[-1]
    err_h = np.linalg.norm(simulate(demo8, x0, 2.0, dt, record_every=1).states[-1] - ref)
    err_h2 = np.linalg.norm(simulate(demo8, x0, 2.0, dt / 2, record_every=1).states[-1] - ref)
    assert 12.0 < err_h / err_h2 < 20.0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_classifies_known_cells(demo8):
    result = sweep(demo8, [5.0, 19.3], [0.0, 15.0])
    assert result.abscissa.shape == (2, 2)
    assert bool(result.stable[1, 1])          # certified gains
    assert not bool(result.stable[0, 0])      # no integral action
    assert bool(result.stable[0, 1]) == (result.abscissa[0, 1] < -1e-9)
    assert np.isfinite(result.abscissa).all()


def test_sweep_matches_error_system(demo8):
    result = sweep(demo8, [2.0, 10.0, 30.0], [1.0, 20.0])
    for i, sp in enumerate(result.sigma_p):
        for j, si in enumerate(result.sigma_i):
            direct = error_system(demo8.with_gains(sigma_p=float(sp), sigma_i=float(si))).abscissa()
            np.testing.assert_array_equal(result.abscissa[i, j], direct)


def test_certified_cells_are_stable(demo8):
    grid = np.linspace(0.0, 40.0, 6)
    result = sweep(demo8, grid, grid)
    certified = certified_cells(demo8, result)
    assert certified.any()
    assert np.all(result.stable[certified])


def test_sweep_rejects_bad_grids(demo8):
    for bad in ([np.nan, 1.0], [-5.0, 0.0], [0.0, np.inf]):
        with pytest.raises(ValueError):
            sweep(demo8, bad, [1.0])
        with pytest.raises(ValueError):
            sweep(demo8, [1.0], bad)


def test_sweep_overflowing_gain_gives_nan_cells(demo8):
    # finite gains whose products overflow the error matrix: NaN, not stable
    result = sweep(demo8, [20.0, 1e308], [15.0, 1e308])
    assert np.isfinite(result.abscissa[0, 0]) and bool(result.stable[0, 0])
    assert np.isnan(result.abscissa[0, 1]) and np.isnan(result.abscissa[1]).all()
    assert not result.stable[1].any() and not result.marginal[1].any()


def _per_cell_certified(sys, result, anchor=1):
    mask = np.zeros(result.abscissa.shape, dtype=bool)
    for i, sp in enumerate(result.sigma_p):
        for j, si in enumerate(result.sigma_i):
            gains = sys.with_gains(sigma_p=float(sp), sigma_i=float(si))
            mask[i, j] = check_theorem(gains, anchor).passed
    return mask


@pytest.mark.parametrize(
    "layer_c, sigma, mode",
    [
        (ring_graph(8), 5.0, "direct"),
        (empty_graph(8), 0.0, "projection"),
        (LayerGraph(8, ((1, 2, 1.0), (3, 4, 1.0))), 3.0, "projection"),
    ],
)
def test_certified_cells_match_per_cell_check(demo8, monkeypatch, layer_c, sigma, mode):
    sys = dataclasses.replace(demo8, layer_c=layer_c, sigma=sigma)
    assert check_theorem(sys).mode == mode
    result = sweep(sys, np.linspace(0.0, 60.0, 9), np.linspace(0.0, 40.0, 5))
    reference = _per_cell_certified(sys, result, anchor=4)
    assert reference.any() and not reference.all()

    calls = []
    monkeypatch.setattr(sim, "check_theorem", lambda *a: calls.append(a) or check_theorem(*a))
    np.testing.assert_array_equal(certified_cells(sys, result, anchor=4), reference)
    assert len(calls) == 1


def test_certified_cells_match_per_cell_check_on_random_systems():
    # weak damping lets some draws fail condition (i) while (ii) and (iii) hold
    rng = np.random.default_rng(31)
    grid_p, grid_i = np.linspace(0.0, 12.0, 7), np.linspace(0.0, 3.0, 4)
    seen = set()
    for _ in range(8):
        sys = random_system(rng, damping=(-0.5, 1.5))
        seen.add(check_theorem(sys).condition_i)
        result = sweep(sys, grid_p, grid_i)
        np.testing.assert_array_equal(certified_cells(sys, result), _per_cell_certified(sys, result))
    assert seen == {True, False}


def test_abscissa_sign_matches_traces_from_many_starts():
    # ten starts per system must all agree with the eigenvalue verdict
    rng = np.random.default_rng(17)
    tested = 0
    while tested < 4:
        sys = random_system(rng)
        abscissa = error_system(sys).abscissa()
        if abs(abscissa) < 5e-2:
            continue
        tested += 1
        t_end = float(np.clip(16.0 / abs(abscissa), 50.0, 400.0))
        steps = int(round(t_end / 2e-3))
        size = sys.n_nodes * sys.state_dim
        for seed in range(10):
            x0 = np.random.default_rng(seed).standard_normal(size)
            trace = simulate(sys, x0, t_end, 2e-3, record_every=steps)
            converged = (not trace.divergent) and trace.d_x[-1] < 1e-3
            assert converged == (abscissa < 0.0)


def test_integral_topology_shapes_the_low_gain_boundary(demo8):
    # the stability regions genuinely differ across integral layers, but
    # only below sigma_p ~ 1 for this network (see the acceptance notes)
    fine = np.linspace(0.0, 1.5, 16)
    ring_mask = sweep(demo8, fine, [15.0]).stable
    star_sys = dataclasses.replace(demo8, layer_i=star_graph(8))
    star_mask = sweep(star_sys, fine, [15.0]).stable
    assert (ring_mask != star_mask).any()


def test_spectral_abscissa_helper():
    assert spectral_abscissa(np.diag([-3.0, -1.0])) == pytest.approx(-1.0)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert spectral_abscissa(rot) == pytest.approx(0.0, abs=1e-12)
    stack = np.stack([np.diag([-3.0, -1.0]), np.diag([2.0, -5.0])])
    np.testing.assert_array_equal(spectral_abscissa(stack), [-1.0, 2.0])
