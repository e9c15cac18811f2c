import dataclasses
import os
import threading

import numpy as np
import pytest

from mpxpi import kernels, sim, stability
from mpxpi.errors import DimensionError, NoEquilibriumError
from mpxpi.graph import LayerGraph, empty_graph, is_connected, laplacian, path_graph, ring_graph, star_graph
from mpxpi.sim import (
    assemble,
    certified_cells,
    consensus_index,
    equilibrium,
    error_pencil,
    error_system,
    simulate,
    spectral_abscissa,
    sweep,
)
from mpxpi.spectral import block_decompose, psi_blocks
from mpxpi.stability import MultiplexSystem, NodeDynamics, check_theorem

from conftest import random_connected_graph, random_system


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


@pytest.fixture(params=["demo8", "ring-c"])
def error_case(request, demo8):
    """demo8 has no open-loop layer, so its error basis comes from the integral
    layer; on a connected open-loop ring with sigma > 0 it comes from that ring."""
    if request.param == "demo8":
        return demo8
    return dataclasses.replace(demo8, layer_c=ring_graph(8), sigma=5.0)


def test_error_spectrum_matches_closed_loop(error_case):
    err = error_system(error_case)
    full = np.sort_complex(np.linalg.eigvals(assemble(error_case).state_matrix))
    reduced = np.sort_complex(
        np.concatenate([np.linalg.eigvals(err.matrix), np.zeros(error_case.state_dim)])
    )
    assert np.abs(full - reduced).max() < 1e-10


def test_error_pencil_is_affine_in_the_gains(error_case):
    e0, dp, di = error_pencil(error_case)
    dim, top = error_case.state_dim, error_case.n_nodes * error_case.state_dim
    assert e0.shape == dp.shape == di.shape == (2 * top - dim, 2 * top - dim)
    # Dp lives in the deviation block, Di in the integral rows' deviation columns
    outside_p = np.ones(dp.shape, dtype=bool)
    outside_p[dim:top, dim:top] = False
    outside_i = np.ones(di.shape, dtype=bool)
    outside_i[top:, dim:top] = False
    assert not dp[outside_p].any() and dp[~outside_p].any()
    assert not di[outside_i].any() and di[~outside_i].any()
    for sigma_p, sigma_i in ((0.0, 0.0), (2.5, 40.0), (19.3, 15.0), (1e3, 1e-3)):
        gains = error_case.with_gains(sigma_p=sigma_p, sigma_i=sigma_i)
        for part, again in zip((e0, dp, di), error_pencil(gains)):
            np.testing.assert_array_equal(again, part)
        np.testing.assert_array_equal(
            e0 + sigma_p * dp + sigma_i * di, error_system(gains).matrix
        )


def test_error_pencil_psi_block_matches_the_structured_and_dense_forms():
    # E0's top-left Nn block is psi - sigma (blockdiag(0, S_C) (x) I), in the
    # pinned basis of C when C is connected and of the integral layer when
    # not; psi from the batched congruence must match psi_blocks and the
    # dense (R^-1 (x) I) Ahat (R (x) I).
    rng = np.random.default_rng(21)
    kinds = {"empty": 0, "connected": 0, "disconnected": 0}
    for case in range(60):
        base = random_system(rng, max_nodes=9, max_dim=3)
        n_nodes, dim = base.n_nodes, base.state_dim
        kind = ("empty", "connected", "disconnected")[case % 3]
        layer_c = LayerGraph(n_nodes)
        if kind == "connected":
            layer_c = random_connected_graph(rng, n_nodes)
        elif kind == "disconnected" and n_nodes > 2:
            layer_c = LayerGraph(n_nodes, tuple(e for e in random_connected_graph(rng, n_nodes).edges if 1 not in e[:2]))
        feedback = None
        if case % 2:
            feedback = tuple(0.5 * rng.standard_normal((dim, dim)) for _ in range(n_nodes))
        sys = dataclasses.replace(
            base, layer_c=layer_c, sigma=float(rng.uniform(0.0, 3.0)), local_feedback=feedback
        )
        kinds[kind] += 1
        blocks = block_decompose(laplacian(layer_c if is_connected(layer_c) else sys.layer_i))
        top = n_nodes * dim
        a_hat = np.zeros((top, top))
        for k, a in enumerate(sys.effective_a()):
            a_hat[k * dim:(k + 1) * dim, k * dim:(k + 1) * dim] = a
        eye = np.eye(dim)
        dense = np.kron(blocks.r_inverse, eye) @ a_hat @ np.kron(blocks.r_matrix, eye)
        structured = psi_blocks(sys.effective_a(), blocks).assembled()
        s_c = blocks.r_inverse @ laplacian(layer_c) @ blocks.r_matrix
        s_c[0, :] = s_c[:, 0] = 0.0
        coupling = np.kron(s_c, eye)

        e0 = error_pencil(sys)[0]
        psi = e0[:top, :top] + sys.sigma * coupling
        for want in (dense, structured):
            scale = max(1.0, float(np.abs(want).max()))
            assert np.abs(psi - want).max() <= 1e-12 * scale, (case, kind)
        np.testing.assert_array_equal(e0[dim:top, top:], np.eye(top - dim))
        assert not e0[top:].any() and not e0[:dim, top:].any()
        assert not np.signbit(e0[e0 == 0.0]).any(), case
    assert min(kinds.values()) >= 15


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


@pytest.mark.parametrize("state_dim", [1, 2, 3])
@pytest.mark.parametrize("n_nodes", [1, 2, 8, 9, 17])
def test_consensus_index_matches_the_mean_over_nodes(n_nodes, state_dim):
    # Summing the nodes in order is what mean(axis=1) does for state_dim >= 2;
    # for state_dim = 1 numpy sums pairwise, so the bits may differ slightly.
    rng = np.random.default_rng(n_nodes * 10 + state_dim)
    samples = rng.standard_normal((500, 2 * n_nodes * state_dim)) * 10.0 ** rng.uniform(-6, 6, (500, 1))
    strided = samples[:, : n_nodes * state_dim]  # as simulate passes them
    for states in (strided, np.ascontiguousarray(strided)):
        arr = states.reshape(-1, n_nodes, state_dim)
        want = np.linalg.norm((arr - arr.mean(axis=1, keepdims=True)).reshape(len(arr), -1), axis=1)
        before = states.copy()
        got = consensus_index(states, n_nodes, state_dim)
        assert states.tobytes() == before.tobytes()  # the caller's array is never written
        if state_dim >= 2:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 4


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


def _usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _solver_threads(monkeypatch):
    """The threads that solve sweep rows, one entry per row.

    Thread objects, not idents: a thread that has finished may hand its
    ident to one started after it.
    """
    solvers = []
    solve = sim.spectral_abscissa

    def spy(mats):
        solvers.append(threading.current_thread())
        return solve(mats)

    monkeypatch.setattr(sim, "spectral_abscissa", spy)
    return solvers


# 18 sigma_I columns of the 30x30 demo8 matrices: a stack that numpy solves
# without holding the interpreter lock, so sweep spreads its rows over threads
WIDE_SIGMA_I = np.linspace(1.0, 20.0, 18)


def test_sweep_matches_error_system(error_case, monkeypatch):
    solvers = _solver_threads(monkeypatch)
    for cpus in (1, 2, 3):
        _usable_cpus(monkeypatch, cpus)
        solvers.clear()
        result = sweep(error_case, [2.0, 10.0, 30.0], WIDE_SIGMA_I)
        assert len(solvers) == 3 and len(set(solvers)) == cpus
        for i, sp in enumerate(result.sigma_p):
            for j, si in enumerate(result.sigma_i):
                gains = error_case.with_gains(sigma_p=float(sp), sigma_i=float(si))
                np.testing.assert_array_equal(result.abscissa[i, j], error_system(gains).abscissa())


@pytest.mark.parametrize("failing_thread", ["caller", "worker"])
def test_sweep_raises_a_row_error_after_joining_its_threads(demo8, monkeypatch, failing_thread):
    _usable_cpus(monkeypatch, 2)
    caller = threading.get_ident()
    solve = sim.spectral_abscissa

    def failing(mats):
        if (threading.get_ident() == caller) == (failing_thread == "caller"):
            raise FloatingPointError("row failed")
        return solve(mats)

    monkeypatch.setattr(sim, "spectral_abscissa", failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="row failed"):
        sweep(demo8, [0.0, 10.0, 20.0, 30.0], WIDE_SIGMA_I)
    assert threading.active_count() == before


@pytest.mark.parametrize("case", ["above-size-limit", "narrow-row"])
def test_sweep_starts_no_thread_where_threads_run_slower(demo8, monkeypatch, case):
    if case == "above-size-limit":
        # N = 40, n = 2: m = 158, where LAPACK runs on threads of its own
        rng = np.random.default_rng(40)
        nodes = tuple(
            NodeDynamics(rng.standard_normal((2, 2)) - np.eye(2), rng.standard_normal(2))
            for _ in range(40)
        )
        sys = MultiplexSystem(
            nodes=nodes, layer_c=empty_graph(40), layer_p=ring_graph(40), layer_i=ring_graph(40),
            sigma_p=1.0, sigma_i=1.0,
        )
        assert (2 * 40 - 1) * 2 > sim._THREADED_MAX_SIZE
        grid_i = [0.5, 1.0, 2.0, 4.0]
    else:
        # two 30x30 matrices per row: numpy solves them holding the interpreter lock
        sys, grid_i = demo8, [1.0, 20.0]
        assert 2 * 30 <= sim._GIL_FREE_STACK
    _usable_cpus(monkeypatch, 2)
    solvers = _solver_threads(monkeypatch)
    result = sweep(sys, [1.0, 5.0], grid_i)
    assert solvers == [threading.current_thread()] * 2
    gains = sys.with_gains(sigma_p=5.0, sigma_i=grid_i[1])
    np.testing.assert_array_equal(result.abscissa[1, 1], error_system(gains).abscissa())


def test_certified_cells_are_stable(demo8):
    grid = np.linspace(0.0, 40.0, 6)
    result = sweep(demo8, grid, grid)
    certified = certified_cells(demo8, result)
    assert certified.any()
    assert np.all(result.stable[certified])


def test_sweep_takes_array_grids_as_they_are_and_any_iterable(demo8):
    # An array grid is converted without iterating it value by value.
    class NoIteration(np.ndarray):
        def __iter__(self):
            raise AssertionError("the grid was iterated")

    want = sweep(demo8, [5.0, 19.3], [0.0, 15.0])
    arrays = sweep(demo8, np.array([5.0, 19.3]).view(NoIteration), np.array([0.0, 15.0]).view(NoIteration))
    generators = sweep(demo8, (g for g in (5.0, 19.3)), iter([0.0, 15.0]))
    for got in (arrays, generators):
        assert type(got.sigma_p) is np.ndarray and type(got.sigma_i) is np.ndarray
        np.testing.assert_array_equal(got.sigma_p, want.sigma_p)
        np.testing.assert_array_equal(got.abscissa, want.abscissa)
    np.testing.assert_array_equal(sweep(demo8, range(2), (15.0,)).sigma_p, [0.0, 1.0])


def test_sweep_rejects_bad_grids(demo8):
    for bad in ([np.nan, 1.0], [-5.0, 0.0], [0.0, np.inf], [], np.array(3.0), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            sweep(demo8, bad, [1.0])
        with pytest.raises(ValueError):
            sweep(demo8, [1.0], bad)


def test_sweep_overflowing_gain_gives_nan_cells(demo8, monkeypatch):
    # finite gains whose products overflow the error matrix: NaN, not stable.
    # With 2 CPUs the rows run on two threads, each without a warning.
    solvers = _solver_threads(monkeypatch)
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        solvers.clear()
        result = sweep(demo8, [20.0, 1e308], [15.0] + [1e308] * 17)
        assert len(set(solvers)) == cpus
        assert np.isfinite(result.abscissa[0, 0]) and bool(result.stable[0, 0])
        assert np.isnan(result.abscissa[0, 1:]).all() and np.isnan(result.abscissa[1]).all()
        assert not result.stable[1].any() and not result.marginal[1].any()
    # error_system gives the same NaN, without an overflow warning
    assert np.isnan(error_system(demo8.with_gains(sigma_p=1e308)).abscissa())


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


def test_certified_cells_tests_connectivity_once(demo8, monkeypatch):
    # Conditions (ii) and (iii) see the gains only through sigma_P > 0 and
    # sigma_I > 0, so the layers' connectivity is found once, not per row or column.
    result = sweep(demo8, np.linspace(0.0, 40.0, 8), np.linspace(0.0, 40.0, 6))
    reference = _per_cell_certified(demo8, result)
    assert reference.any() and not reference.all()
    calls = {"is_connected": 0, "projection": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(stability, name, counted(name, getattr(stability, name)))
    np.testing.assert_array_equal(certified_cells(demo8, result), reference)
    assert calls == {"is_connected": 4, "projection": 1}


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
    stack[1, 0, 1] = np.inf
    np.testing.assert_array_equal(spectral_abscissa(stack), [-1.0, np.nan])
    assert np.isnan(spectral_abscissa(stack[1]))
