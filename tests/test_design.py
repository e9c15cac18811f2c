import dataclasses
from importlib import resources

import numpy as np
import pytest

from mpxpi import design, netspec, stability
from mpxpi.design import tune
from mpxpi.errors import NotApplicableError, TuningInfeasibleError
from mpxpi.graph import (
    LayerGraph,
    algebraic_connectivity,
    empty_graph,
    path_graph,
    projection,
    ring_graph,
)
from mpxpi.sim import error_system, simulate
from mpxpi.stability import (
    MultiplexSystem,
    NodeDynamics,
    best_anchor,
    certificates,
    check_theorem,
    coupling_threshold,
)

from conftest import random_system


def test_demo_network_cutoff(demo8):
    result = tune(demo8, anchor=1)
    assert result.feasible
    assert not result.used_local_feedback
    assert 19.25 <= result.sigma_p_min <= 19.27
    assert result.sigma_p_min == pytest.approx(19.2581, abs=1e-3)
    assert result.report.passed


def test_gains_above_cutoff_certify(demo8):
    result = tune(demo8, anchor=1)
    for factor in (1.0 + 1e-5, 1.1, 3.0):
        assert check_theorem(demo8.with_gains(sigma_p=result.sigma_p_min * factor)).passed


def test_homogeneous_stable_nodes_need_no_gain():
    a = np.array([[-1.0, 0.3], [-0.3, -2.0]])
    nodes = tuple(NodeDynamics(a, np.array([1.0, -1.0])) for _ in range(4))
    sys = MultiplexSystem(
        nodes=nodes,
        layer_c=empty_graph(4),
        layer_p=ring_graph(4),
        layer_i=path_graph(4),
        sigma_p=1.0,
        sigma_i=1.0,
    )
    result = tune(sys)
    assert result.sigma_p_min == 0.0
    assert result.feasible
    assert result.report.threshold < 0.0


def test_two_stable_scalars_closed_form():
    nodes = (
        NodeDynamics(np.array([[-1.0]]), np.array([1.0])),
        NodeDynamics(np.array([[-1.0]]), np.array([3.0])),
    )
    sys = MultiplexSystem(
        nodes=nodes,
        layer_c=empty_graph(2),
        layer_p=path_graph(2),
        layer_i=path_graph(2),
        sigma_p=1.0,
        sigma_i=1.0,
    )
    result = tune(sys)
    # mu = 0, rho = -2: the coupling requirement is vacuous
    assert result.report.threshold == pytest.approx(-1.0)
    assert result.sigma_p_min == 0.0


def test_unstable_average_requires_feedback():
    nodes = (
        NodeDynamics(np.array([[1.0]]), np.array([1.0])),
        NodeDynamics(np.array([[1.0]]), np.array([0.0])),
    )
    sys = MultiplexSystem(
        nodes=nodes,
        layer_c=empty_graph(2),
        layer_p=path_graph(2),
        layer_i=path_graph(2),
        sigma_p=1.0,
        sigma_i=1.0,
    )
    with pytest.raises(TuningInfeasibleError):
        tune(sys)

    result = tune(sys, h_list=[np.array([[-4.0]]), np.zeros((1, 1))])
    assert result.used_local_feedback
    assert result.feasible
    assert check_theorem(
        dataclasses.replace(
            sys,
            nodes=(
                NodeDynamics(np.array([[-3.0]]), np.array([1.0])),
                NodeDynamics(np.array([[1.0]]), np.array([0.0])),
            ),
            sigma_p=result.sigma_p_min * 1.01 + 1e-9,
        )
    ).passed


def test_insufficient_feedback_still_infeasible():
    nodes = (
        NodeDynamics(np.array([[2.0]]), np.array([1.0])),
        NodeDynamics(np.array([[2.0]]), np.array([0.0])),
    )
    sys = MultiplexSystem(
        nodes=nodes,
        layer_c=empty_graph(2),
        layer_p=path_graph(2),
        layer_i=path_graph(2),
        sigma_p=1.0,
        sigma_i=1.0,
    )
    with pytest.raises(TuningInfeasibleError):
        tune(sys, h_list=[np.array([[-0.5]]), np.zeros((1, 1))])


def test_disconnected_integral_layer_rejected(demo8):
    broken = dataclasses.replace(demo8, layer_i=empty_graph(8))
    with pytest.raises(NotApplicableError):
        tune(broken)


def test_disconnected_proportional_layer_rejected(demo8):
    broken = dataclasses.replace(demo8, layer_p=LayerGraph(8, ((1, 2, 1.0),)))
    with pytest.raises(NotApplicableError):
        tune(broken)


def test_denser_proportional_layer_never_raises_cutoff(demo8):
    base = tune(demo8, anchor=1).sigma_p_min
    denser = dataclasses.replace(
        demo8, layer_p=projection(demo8.layer_p, LayerGraph(8, ((1, 5, 1.0), (2, 6, 1.0))))
    )
    assert tune(denser, anchor=1).sigma_p_min <= base + 1e-12


def test_anchor_scan_never_worse_than_node_one():
    rng = np.random.default_rng(3)
    for _ in range(15):
        sys = random_system(rng, damping=(0.8, 2.0))
        try:
            fixed = tune(sys, anchor=1).sigma_p_min
        except TuningInfeasibleError:
            continue
        assert tune(sys).sigma_p_min <= fixed + 1e-12


def _tune_via_certificates(sys, slack=1e-6):
    """tune's S4-S5 spelled out with the public certificate functions."""
    a_eff = sys.effective_a()
    anchor, mu = best_anchor(a_eff)
    mu_direct, eta, rho = certificates(a_eff, anchor)
    assert mu_direct == mu
    threshold = coupling_threshold(mu, eta, rho, sys.n_nodes)
    lam2_c = algebraic_connectivity(sys.layer_c)
    sigma_p_min = max(0.0, threshold - sys.sigma * lam2_c) / algebraic_connectivity(sys.layer_p)
    certified = sys.with_gains(sigma_p=sigma_p_min * (1.0 + slack) if sigma_p_min > 0 else slack)
    return sigma_p_min, anchor, check_theorem(certified, anchor)


def _bundled_and_random_systems():
    yield netspec.parse_spec(resources.files("mpxpi.data").joinpath("hetero8.json"))[0]
    rng = np.random.default_rng(11)
    for _ in range(12):
        yield random_system(rng, max_nodes=8, max_dim=3, damping=(0.8, 2.0))


def test_tune_matches_certificate_pipeline_bitwise():
    checked = 0
    for sys in _bundled_and_random_systems():
        try:
            result = tune(sys)
        except TuningInfeasibleError:
            continue
        checked += 1
        sigma_p_min, anchor, report = _tune_via_certificates(sys)
        assert result.sigma_p_min == sigma_p_min
        assert result.anchor == anchor
        for field in dataclasses.fields(report):
            np.testing.assert_array_equal(
                getattr(result.report, field.name), getattr(report, field.name), err_msg=field.name
            )
    assert checked >= 6


def test_tuned_gain_is_sound():
    # at 1.01x the cutoff the error dynamics must be stable and the trace
    # must actually contract
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(30):
        sys = random_system(rng, max_nodes=8, max_dim=3, damping=(0.8, 2.0))
        try:
            result = tune(sys)
        except TuningInfeasibleError:
            continue
        if not result.feasible:
            continue
        checked += 1
        certified = sys.with_gains(sigma_p=max(result.sigma_p_min * 1.01, 1e-3))
        assert error_system(certified).abscissa() < 0.0
        if checked <= 3:
            size = sys.n_nodes * sys.state_dim
            x0 = rng.standard_normal(size)
            trace = simulate(certified, x0, 40.0, 2e-3, record_every=1000)
            assert not trace.divergent
            assert trace.d_x[-1] < trace.d_x[0]
    assert checked >= 10


def test_tune_cutoff_in_projection_mode_with_open_loop_coupling(demo8):
    # sigma > 0 on a disconnected open-loop layer: the merged-layer coupling
    # lambda_2(sigma L_C + sigma_P L_P) is not linear in sigma_P, and the
    # cutoff is the infimum that bisection on check_theorem finds.
    path = LayerGraph(8, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)))
    sys = dataclasses.replace(demo8, layer_c=path, sigma=5.0)
    result = tune(sys, anchor=1)
    assert result.report.mode == "projection"
    assert result.feasible

    def passes(sigma_p):
        return check_theorem(sys.with_gains(sigma_p=sigma_p), anchor=1).passed

    lo, hi = 0.0, 40.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    assert result.sigma_p_min == pytest.approx(hi, rel=1e-9)
    assert result.sigma_p_min == pytest.approx(18.282491577561, rel=1e-11)
    assert passes(result.sigma_p_min * (1.0 + 1e-6))
    assert not passes(result.sigma_p_min * (1.0 - 1e-6))


@pytest.mark.parametrize("anchor", [None, 3])
def test_tune_evaluates_eta_and_rho_once(demo8, monkeypatch, anchor):
    calls = []
    eta_rho = stability._eta_rho
    counted = lambda sym: calls.append(1) or eta_rho(sym)  # noqa: E731
    monkeypatch.setattr(stability, "_eta_rho", counted)
    # also where tune might hold its own reference to the helper
    monkeypatch.setattr(design, "_eta_rho", counted, raising=False)
    tune(demo8, anchor=anchor)
    assert len(calls) == 1


def test_tune_infeasible_exactly_when_condition_i_fails():
    # weak damping lets some draws fail condition (i)
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(24):
        sys = random_system(rng, damping=(-0.5, 1.5))
        condition_i = check_theorem(sys).condition_i
        seen.add(condition_i)
        try:
            tune(sys)
        except TuningInfeasibleError:
            assert not condition_i
        else:
            assert condition_i
    assert seen == {True, False}
