import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpxpi.errors import DimensionError, NoEquilibriumError, NotApplicableError
from mpxpi.graph import LayerGraph, empty_graph, laplacian, path_graph, ring_graph
from mpxpi.sim import equilibrium, error_system
from mpxpi.stability import (
    MultiplexSystem,
    NodeDynamics,
    best_anchor,
    certificates,
    check_projection,
    check_theorem,
    consensusability_fold,
)

from conftest import random_system

MU_DEMO = 33.0 + np.sqrt(720.0)          # spread certificate of the demo set
RHO_DEMO = (3.0 + np.sqrt(5.0)) / 2.0    # worst node expansion rate
THRESHOLD_DEMO = 0.5 * (MU_DEMO / (8.0 * 0.375) + RHO_DEMO)


def _scalar_system(a_values, b_values, sigma_p=1.0, sigma_i=1.0, layer=None):
    n = len(a_values)
    layer = layer or path_graph(n)
    nodes = tuple(
        NodeDynamics(np.array([[a]]), np.array([b])) for a, b in zip(a_values, b_values)
    )
    return MultiplexSystem(
        nodes=nodes,
        layer_c=empty_graph(n),
        layer_p=layer,
        layer_i=layer,
        sigma=0.0,
        sigma_p=sigma_p,
        sigma_i=sigma_i,
    )


def test_certificates_on_demo_network(demo8):
    mu, eta, rho = certificates(demo8.effective_a(), anchor=1)
    assert mu == pytest.approx(59.8328, abs=1e-3)
    assert mu == pytest.approx(MU_DEMO, abs=1e-9)
    assert abs(eta) == pytest.approx(0.3750, abs=1e-4)
    assert eta < 0.0
    assert rho == pytest.approx(2.618, abs=1e-3)


def test_certificates_homogeneous_mu_zero():
    a = np.array([[0.3, 1.0], [-0.4, -2.0]])
    mu, _, _ = certificates([a, a, a, a])
    assert mu == 0.0


def test_certificates_two_node_closed_form():
    mu, eta, rho = certificates([np.zeros((2, 2)), np.eye(2)])
    assert mu == pytest.approx(4.0, abs=1e-12)   # lambda_max((2I)^2)
    assert eta == pytest.approx(1.0, abs=1e-12)
    assert rho == pytest.approx(2.0, abs=1e-12)


def test_certificates_validation():
    with pytest.raises(DimensionError):
        certificates([])
    with pytest.raises(DimensionError):
        certificates([np.eye(2), np.eye(3)])
    with pytest.raises(DimensionError):
        certificates([np.eye(2), np.eye(2)], anchor=5)


def test_check_demo_network_passes(demo8):
    report = check_theorem(demo8)
    assert report.passed
    assert report.threshold == pytest.approx(11.2812, abs=1e-3)
    assert report.coupling == pytest.approx(19.3 * (2.0 - np.sqrt(2.0)), abs=1e-12)
    assert report.lambda2_p == pytest.approx(0.5858, abs=1e-4)
    assert report.lambda2_i == pytest.approx(0.5858, abs=1e-4)
    assert report.lambda2_c == 0.0
    np.testing.assert_allclose(report.x_infinity, [27.7064, -11.6881], atol=1e-3)
    assert report.mode == "projection"
    assert report.margin_ii > 0.0


def test_check_below_cutoff_fails(demo8):
    report = check_theorem(demo8.with_gains(sigma_p=19.0))
    assert not report.condition_ii
    assert report.margin_ii < 0.0
    assert report.coupling == pytest.approx(19.0 * 0.5858, abs=1e-3)
    assert report.condition_i and report.condition_iii


def test_check_homogeneous_stable_any_gains():
    a = np.array([[-1.0, 0.2], [-0.2, -0.5]])
    nodes = tuple(NodeDynamics(a, np.array([1.0, float(k)])) for k in range(5))
    sys = MultiplexSystem(
        nodes=nodes,
        layer_c=ring_graph(5),
        layer_p=ring_graph(5),
        layer_i=path_graph(5),
        sigma=1.0,
        sigma_p=1.0,
        sigma_i=1.0,
    )
    report = check_theorem(sys)
    assert report.passed
    assert report.mu == 0.0
    assert report.threshold < 0.0
    assert report.mode == "homogeneous"


def test_connected_open_loop_uses_direct_mode():
    sys = _scalar_system([-1.0, -1.0, -1.0], [1.0, 0.0, 2.0])
    sys = dataclasses.replace(sys, layer_c=ring_graph(3), sigma=0.5)
    report = check_theorem(sys)
    assert report.mode in ("direct", "homogeneous")
    assert report.coupling == pytest.approx(
        0.5 * report.lambda2_c + sys.sigma_p * report.lambda2_p
    )


def test_singular_average_reported_not_raised():
    sys = _scalar_system([1.0, -1.0], [1.0, 1.0], layer=path_graph(2))
    report = check_theorem(sys)
    assert not report.psi11_nonsingular
    assert not report.condition_i
    assert report.x_infinity is None
    with pytest.raises(NoEquilibriumError):
        equilibrium(sys)


def test_disconnected_integral_layer_fails_condition_iii(demo8):
    sys = dataclasses.replace(demo8, layer_i=empty_graph(8))
    report = check_theorem(sys)
    assert not report.condition_iii
    assert not report.passed


def test_check_projection_merges_disconnected_layers():
    # neither C nor P alone is connected, their merge is
    sys = _scalar_system([-1.0, -1.0, -1.0], [1.0, 2.0, 3.0], layer=path_graph(3))
    sys = dataclasses.replace(
        sys,
        layer_c=LayerGraph(3, ((1, 2, 1.0),)),
        layer_p=LayerGraph(3, ((2, 3, 1.0),)),
        layer_i=path_graph(3),
        sigma=1.0,
        sigma_p=1.0,
    )
    report = check_projection(sys)
    assert report.passed


def test_check_projection_matches_theorem_on_demo(demo8):
    direct = check_theorem(demo8)
    projected = check_projection(demo8)
    assert direct.passed == projected.passed
    assert direct.threshold == pytest.approx(projected.threshold)
    assert direct.coupling == pytest.approx(projected.coupling, abs=1e-9)


def test_check_projection_requires_connected_merge():
    sys = _scalar_system([-1.0, -1.0, -1.0], [1.0, 2.0, 3.0])
    sys = dataclasses.replace(sys, layer_p=LayerGraph(3, ((1, 2, 1.0),)))
    with pytest.raises(NotApplicableError):
        check_projection(sys)


def test_fold_zero_feedback_is_identity(demo8):
    folded = consensusability_fold(demo8, [np.zeros((2, 2))] * 8)
    for before, after in zip(demo8.nodes, folded.nodes):
        np.testing.assert_array_equal(before.A, after.A)


def test_fold_zero_feedback_keeps_existing_local_feedback(demo8):
    # H = -0.5 I on every node; folding zeros must not drop it
    with_h = dataclasses.replace(demo8, local_feedback=(-0.5 * np.eye(2),) * 8)
    folded = consensusability_fold(with_h, [np.zeros((2, 2))] * 8)
    assert folded.local_feedback is None
    np.testing.assert_array_equal(folded.effective_a(), with_h.effective_a())
    before, after = check_theorem(with_h), check_theorem(folded)
    for field in dataclasses.fields(before):
        np.testing.assert_array_equal(
            getattr(after, field.name), getattr(before, field.name), err_msg=field.name
        )


def test_check_projection_keeps_merged_form_on_homogeneous_network():
    nodes = tuple(NodeDynamics(-np.eye(2), np.array([1.0, float(k)])) for k in range(4))
    sys = MultiplexSystem(
        nodes=nodes, layer_c=ring_graph(4), layer_p=path_graph(4), layer_i=path_graph(4),
        sigma=0.5, sigma_p=2.0, sigma_i=1.0,
    )
    direct, merged = check_theorem(sys), check_projection(sys)
    assert direct.mode == merged.mode == "homogeneous"
    assert direct.coupling == 0.5 * direct.lambda2_c + 2.0 * direct.lambda2_p
    lap = 0.5 * laplacian(sys.layer_c) + 2.0 * laplacian(sys.layer_p)
    assert merged.coupling == pytest.approx(np.linalg.eigvalsh(lap)[1], rel=1e-12)
    assert merged.coupling > direct.coupling


def test_fold_can_break_and_fix_the_average():
    base = _scalar_system([1.0, 1.0], [1.0, 0.0], layer=path_graph(2))
    # (1 - 2 + 1) / 2 = 0: the folded average is exactly singular
    broken = consensusability_fold(base, [np.array([[-2.0]]), np.zeros((1, 1))])
    assert not check_theorem(broken).psi11_nonsingular
    with pytest.raises(NoEquilibriumError):
        equilibrium(broken)

    fixed = consensusability_fold(base, [np.array([[-4.0]]), np.zeros((1, 1))])
    report = check_theorem(fixed)
    assert report.condition_i
    assert report.eta == pytest.approx(-2.0)  # average is [[-1]]


def test_local_feedback_field_folds_into_analysis():
    base = _scalar_system([1.0, 1.0], [1.0, 0.0], layer=path_graph(2))
    with_field = dataclasses.replace(
        base, local_feedback=(np.array([[-4.0]]), np.zeros((1, 1)))
    )
    assert check_theorem(with_field).condition_i
    x_star, _ = equilibrium(with_field)
    assert x_star[0] == pytest.approx(0.5)  # -(1/2 * sum b) / (-1)


def test_best_anchor_homogeneous():
    anchor, mu = best_anchor([np.eye(2)] * 4)
    assert anchor == 1
    assert mu == 0.0
    assert best_anchor([np.array([[0.3, 1.0], [-0.4, -2.0]])] * 60) == (1, 0.0)


def test_best_anchor_scalar_example():
    anchor, mu = best_anchor([np.zeros((1, 1)), np.zeros((1, 1)), 2.0 * np.eye(1)])
    assert anchor == 1
    assert mu == pytest.approx(16.0)
    assert certificates([np.zeros((1, 1)), np.zeros((1, 1)), 2.0 * np.eye(1)], 3)[0] == pytest.approx(32.0)


def test_best_anchor_on_demo_network(demo8):
    scan = [certificates(demo8.effective_a(), k)[0] for k in range(1, 9)]
    anchor, mu = best_anchor(demo8.effective_a())
    assert mu == min(scan)
    assert mu <= MU_DEMO + 1e-9
    assert anchor == 1  # oscillator nodes give the smallest spread; ties break low


def _scan_anchors(mats):
    """Reference: one certificates call per anchor, ties to the lowest index."""
    best = (1, np.inf)
    for anchor in range(1, len(mats) + 1):
        mu = certificates(mats, anchor)[0]
        if mu < best[1]:
            best = (anchor, mu)
    return best


def _anchor_scan_cases():
    rng = np.random.default_rng(2026)
    cases = []
    for trial in range(36):
        n_nodes = int(rng.integers(2, 61))
        dim = int(rng.integers(1, 5))
        scale = (1e-3, 1.0, 1e3)[trial % 3]
        if trial % 2:
            pool = [scale * rng.standard_normal((dim, dim)) for _ in range(max(1, n_nodes // 3))]
            mats = [pool[int(rng.integers(len(pool)))] for _ in range(n_nodes)]
        else:
            mats = [scale * rng.standard_normal((dim, dim)) for _ in range(n_nodes)]
        kind = "duplicated" if trial % 2 else "distinct"
        cases.append(pytest.param(mats, id=f"N{n_nodes}-n{dim}-{scale:g}-{kind}"))
    return cases


@pytest.mark.parametrize("mats", _anchor_scan_cases())
def test_best_anchor_matches_per_anchor_scan(mats):
    anchor, mu = best_anchor(mats)
    want_anchor, want_mu = _scan_anchors(mats)
    assert anchor == want_anchor
    assert mu == want_mu  # bitwise: the closed form only shortlists anchors


def test_best_anchor_tie_at_minimum_breaks_low():
    rng = np.random.default_rng(4)
    centre = rng.standard_normal((3, 3))
    d1, d2 = 5.0 * rng.standard_normal((2, 3, 3))
    far = [centre + d1, centre - d1, centre + d2, centre - d2]
    # nodes 2 and 5 are identical and sit at the centre of the others
    mats = [far[0], centre, far[1], far[2], centre.copy(), far[3]]
    mus = [certificates(mats, k)[0] for k in range(1, 7)]
    assert mus[1] == mus[4] == min(mus)
    assert best_anchor(mats) == (2, mus[1]) == _scan_anchors(mats)


def test_best_anchor_two_nodes_with_large_shared_part():
    # Two anchors always tie exactly, but a large shared part makes the
    # closed form cancel, so its estimates differ in the last bits.
    rng = np.random.default_rng(9)
    for _ in range(20):
        shared = 1e3 * rng.standard_normal((3, 3))
        mats = [shared + 1e-3 * rng.standard_normal((3, 3)) for _ in range(2)]
        assert best_anchor(mats) == (1, certificates(mats, 1)[0]) == _scan_anchors(mats)


def test_best_anchor_validation():
    with pytest.raises(DimensionError):
        best_anchor([np.eye(2)])
    with pytest.raises(DimensionError):
        best_anchor([np.eye(2), np.eye(3)])
    for bad in (np.nan, np.inf):
        mats = [np.eye(2), 2.0 * np.eye(2), np.array([[bad, 0.0], [0.0, 1.0]])]
        with pytest.raises(DimensionError, match="finite"):
            best_anchor(mats)
        with pytest.raises(DimensionError, match="finite"):
            certificates(mats)


@settings(max_examples=60, deadline=None)
@given(
    n_nodes=st.integers(2, 12),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.sampled_from([-3.0, 0.0, 3.0]),
)
def test_certificates_invariant_under_relabelling(n_nodes, dim, seed, log_scale):
    rng = np.random.default_rng(seed)
    mats = [10.0**log_scale * rng.standard_normal((dim, dim)) for _ in range(n_nodes)]
    perm = rng.permutation(n_nodes)
    moved = [mats[k] for k in perm]
    # the quantities' own scales: |eigenvalue of S_k| <= n max|S|, mu <= N (2 n max|S|)^2
    s_max = 2.0 * max(float(np.abs(a).max()) for a in mats)
    anchor, mu = best_anchor(mats)
    moved_anchor, moved_mu = best_anchor(moved)
    assert moved_mu == pytest.approx(mu, rel=1e-12, abs=1e-12 * n_nodes * (2 * dim * s_max) ** 2)
    _, eta, rho = certificates(mats, anchor)
    _, moved_eta, moved_rho = certificates(moved, moved_anchor)
    assert moved_eta == pytest.approx(eta, rel=1e-12, abs=1e-12 * dim * s_max)
    assert moved_rho == pytest.approx(rho, rel=1e-12, abs=1e-12 * dim * s_max)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["sigma", "sigma_p", "sigma_i"])
def test_non_finite_gain_rejected(demo8, name, value):
    with pytest.raises(DimensionError, match=f"{name} must be finite"):
        dataclasses.replace(demo8, **{name: value})
    if name != "sigma":  # with_gains sets only the two controller gains
        with pytest.raises(DimensionError, match=f"{name} must be finite"):
            demo8.with_gains(**{name: value})


def test_eta_rho_anchor_invariant():
    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((3, 3)) for _ in range(6)]
    values = [certificates(mats, k) for k in range(1, 7)]
    etas = {v[1] for v in values}
    rhos = {v[2] for v in values}
    assert max(etas) - min(etas) < 1e-12
    assert max(rhos) - min(rhos) < 1e-12


def test_condition_ii_monotone_in_sigma_p():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sys = random_system(rng)
        report = check_theorem(sys)
        if report.passed:
            stronger = check_theorem(sys.with_gains(sigma_p=sys.sigma_p * 2.0 + 1.0))
            assert stronger.passed


def test_consensus_point_shifts_linearly(demo8):
    base = check_theorem(demo8).x_infinity
    shift = np.array([2.0, -3.0])
    moved_nodes = tuple(NodeDynamics(nd.A, nd.b + shift) for nd in demo8.nodes)
    moved = dataclasses.replace(demo8, nodes=moved_nodes)
    psi11 = sum(demo8.effective_a()) / 8
    expected = base - np.linalg.solve(psi11, shift)
    np.testing.assert_allclose(check_theorem(moved).x_infinity, expected, atol=1e-9)


def test_certified_systems_have_stable_error_dynamics():
    # sufficiency, numerically: a passing report implies negative abscissa
    rng = np.random.default_rng(23)
    passing = 0
    for _ in range(40):
        sys = random_system(rng, max_nodes=10, max_dim=3)
        for boost in (1.0, 8.0):
            candidate = sys.with_gains(sigma_p=sys.sigma_p * boost + boost - 1.0)
            if check_theorem(candidate).passed:
                passing += 1
                assert error_system(candidate).abscissa() < 0.0
    assert passing >= 15  # the draw must actually exercise the claim
