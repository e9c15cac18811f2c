import dataclasses

import numpy as np
import pytest

from mpxpi import fixtures
from mpxpi.errors import DimensionError, NoEquilibriumError, NotApplicableError
from mpxpi.graph import path_graph, ring_graph
from mpxpi.power import (
    PowerNetwork,
    as_multiplex,
    check_power,
    equilibrium_frequency,
    simulate_power,
)
from mpxpi.stability import check_theorem


def _small_grid(m, d, k, p_star, sigma_p=1.0):
    n = len(m)
    return PowerNetwork(
        inertia=np.asarray(m, dtype=float),
        damping=np.asarray(d, dtype=float),
        local_gain=np.asarray(k, dtype=float),
        injection=np.asarray(p_star, dtype=float),
        electrical=ring_graph(n) if n >= 3 else path_graph(n),
        p_layer=path_graph(n),
        sigma_p=sigma_p,
    )


# ---------------------------------------------------------------------------
# scalar-agent view
# ---------------------------------------------------------------------------


def test_as_multiplex_structure(grid16):
    ms = as_multiplex(grid16)
    assert ms.n_nodes == 16
    assert ms.state_dim == 1
    assert ms.sigma == 0.0
    assert ms.sigma_i == pytest.approx(1.0 / 0.2)
    assert ms.layer_i.edges == grid16.electrical.edges
    assert ms.layer_p.edges == grid16.p_layer.edges
    for node, k, d, p in zip(ms.nodes, grid16.local_gain, grid16.damping, grid16.injection):
        assert node.A[0, 0] == pytest.approx(k - d / 0.2)
        assert node.b[0] == pytest.approx(p / 0.2)


def test_as_multiplex_average_matches_demo_target(grid16):
    ms = as_multiplex(grid16)
    psi11 = sum(ms.effective_a()) / 16
    assert psi11[0, 0] == pytest.approx(-2.3875, abs=1e-4)


def test_as_multiplex_homogeneous_trivial_case():
    grid = _small_grid([1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [2.0, 2.0])
    ms = as_multiplex(grid)
    assert ms.nodes[0].A[0, 0] == pytest.approx(-1.0)
    assert ms.nodes[0].b[0] == pytest.approx(2.0)


def test_as_multiplex_rejects_heterogeneous_inertia():
    grid = _small_grid([1.0, 2.0], [1.0, 1.0], [0.0, 0.0], [2.0, 2.0])
    with pytest.raises(NotApplicableError):
        as_multiplex(grid)
    with pytest.raises(NotApplicableError):
        check_power(grid)


# ---------------------------------------------------------------------------
# equilibrium frequency
# ---------------------------------------------------------------------------


def test_equilibrium_frequency_nominal_sixty(grid16):
    nominal = dataclasses.replace(grid16, local_gain=np.zeros(16))
    assert equilibrium_frequency(nominal) == pytest.approx(60.0, abs=1e-9)


def test_equilibrium_frequency_zero_injection(grid16):
    quiet = dataclasses.replace(grid16, injection=np.zeros(16))
    assert equilibrium_frequency(quiet) == 0.0


def test_equilibrium_frequency_two_bus_closed_form():
    grid = _small_grid([1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [2.0, 2.0])
    assert equilibrium_frequency(grid) == pytest.approx(2.0)


def test_equilibrium_frequency_singular_balance():
    grid = _small_grid([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0])
    with pytest.raises(NoEquilibriumError):
        equilibrium_frequency(grid)


def test_equilibrium_frequency_single_generator():
    grid = _small_grid([1.0], [1.0], [0.0], [2.0])
    assert equilibrium_frequency(grid) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_check_power_demo_grid(grid16):
    report = check_power(grid16)
    assert report.psi11 == pytest.approx(-2.3875, abs=1e-4)
    assert report.threshold == pytest.approx(6.3991, abs=1e-3)
    assert report.sigma_p_min == pytest.approx(0.8326, abs=1e-3)
    assert report.lambda2_p == pytest.approx(7.686, abs=1e-3)
    assert report.condition_c1 and report.condition_c2
    assert report.coupling == pytest.approx(55.0 * report.lambda2_p)
    assert report.omega_infinity == pytest.approx(60.0785, abs=1e-3)


def test_check_power_zero_gains_automatic_c1(grid16):
    passive = dataclasses.replace(grid16, local_gain=np.zeros(16))
    report = check_power(passive)
    assert report.condition_c1
    assert report.psi11 == pytest.approx(-38.25 / 16)
    assert report.omega_infinity == pytest.approx(60.0, abs=1e-9)


def test_check_power_boundary_balance_fails_c1():
    grid = _small_grid([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0])
    report = check_power(grid)
    assert not report.condition_c1
    assert report.omega_infinity is None


def test_check_power_verdict_consistent_with_multiplex_check(grid16):
    report = check_power(grid16)
    theorem = check_theorem(as_multiplex(grid16))
    assert report.passed == theorem.passed
    assert report.condition_c1 == theorem.condition_i
    assert theorem.condition_iii


def test_check_power_agrees_with_multiplex_outside_threshold_band():
    # the scalar bound and the general bound differ; verdicts must agree
    # whenever the coupling clears or misses both (see the design notes)
    rng = np.random.default_rng(31)
    agreements = 0
    for _ in range(40):
        n = int(rng.integers(3, 8))
        m = float(rng.uniform(0.2, 2.0))
        grid = PowerNetwork(
            inertia=np.full(n, m),
            damping=rng.uniform(0.2, 1.5, n),
            local_gain=rng.uniform(-1.0, 1.0, n) * (rng.random(n) < 0.5),
            injection=rng.uniform(5.0, 50.0, n),
            electrical=ring_graph(n),
            p_layer=path_graph(n),
            sigma_p=float(rng.uniform(0.1, 10.0)),
        )
        power_report = check_power(grid)
        theorem_report = check_theorem(as_multiplex(grid))
        assert power_report.condition_c1 == theorem_report.condition_i
        both = {power_report.coupling > power_report.threshold,
                theorem_report.coupling > theorem_report.threshold}
        if len(both) == 1:
            agreements += 1
            assert power_report.passed == theorem_report.passed
    assert agreements >= 25
    # psi11 within the Hurwitz tolerance of zero, on either side: condition
    # c1 tests eta = 2 psi11 against the same tolerance as condition (i)
    for psi11 in (-1e-10, 1e-10, -1e-9, 1e-9):
        grid = PowerNetwork(
            inertia=np.ones(2),
            damping=np.ones(2),
            local_gain=np.full(2, 1.0 + psi11),
            injection=np.array([1.0, 2.0]),
            electrical=path_graph(2),
            p_layer=path_graph(2),
            sigma_p=1.0,
        )
        power_report = check_power(grid)
        assert power_report.condition_c1 == check_theorem(as_multiplex(grid)).condition_i
        assert power_report.condition_c1 == (psi11 == -1e-9)
        assert (power_report.omega_infinity is None) == (not power_report.condition_c1)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulate_power_no_disturbance_stays_at_equilibrium(grid16):
    trace = simulate_power(grid16, (), control_on_time=1e9, t_end=0.5, dt=1e-4, record_every=50)
    assert not trace.divergent
    assert np.abs(trace.omega - 60.0).max() < 1e-9


def test_simulate_power_uncontrolled_settles_at_shifted_balance(grid16):
    trace = simulate_power(
        grid16,
        fixtures.GRID_DISTURBANCES,
        control_on_time=1e9,
        t_end=8.0,
        dt=1e-4,
        record_every=100,
    )
    perturbed = dataclasses.replace(
        grid16,
        local_gain=np.zeros(16),
        injection=grid16.injection + np.array(
            [0, 0, 0, -0.2, 0, 0, 0, -0.2, 0, -0.2, 0, 0, 0, 0, 0, 0]
        ),
    )
    target = equilibrium_frequency(perturbed)
    assert target == pytest.approx(458.4 / 7.65, abs=1e-12)
    assert np.abs(trace.omega[-1] - target).max() < 1e-3


def test_simulate_power_demo_returns_to_sixty(grid16):
    trace = simulate_power(
        grid16,
        fixtures.GRID_DISTURBANCES,
        control_on_time=fixtures.GRID_CONTROL_ON_TIME,
        t_end=20.0,
        dt=2e-5,
        record_every=200,
    )
    assert not trace.divergent
    assert np.abs(trace.omega[-1] - 60.0).max() < 1e-3
    # mass-weighted rescaled powers are conserved at zero
    conserved = (trace.powers * grid16.inertia).sum(axis=1)
    assert np.abs(conserved).max() < 1e-6
    # spread is the norm of the deviation from the mean: sqrt(N) times the std
    np.testing.assert_allclose(trace.spread, 4.0 * trace.omega.std(axis=1), rtol=1e-9, atol=1e-12)
    # reported, not asserted tightly: the transient overshoot stays moderate
    on = trace.times >= fixtures.GRID_CONTROL_ON_TIME
    overshoot = np.abs(trace.omega[on] - 60.0).max()
    assert overshoot < 0.5


def test_simulate_power_validates_buses(grid16):
    with pytest.raises(DimensionError):
        simulate_power(grid16, ((0.0, 99, -0.1),), 0.0, 1.0, 1e-3)


@pytest.mark.parametrize("t_end, dt", [(np.inf, 2e-5), (np.nan, 2e-5), (1.0, np.nan), (1.0, np.inf)])
def test_simulate_power_rejects_non_finite_times(grid16, t_end, dt):
    with pytest.raises(ValueError, match="finite 0 < dt < t_end"):
        simulate_power(grid16, (), 0.0, t_end, dt)


def test_simulate_power_flags_step_size_blowup(grid16):
    # dt far beyond the integrator's stability limit for sigma_p = 55
    trace = simulate_power(grid16, (), control_on_time=0.0, t_end=1.0, dt=1e-3, record_every=10)
    assert trace.divergent
    assert trace.times.shape[0] == trace.omega.shape[0]


def test_grid_fixture_realises_design_targets(grid16):
    rates = grid16.local_gain - grid16.damping / grid16.inertia
    assert rates.max() == pytest.approx(2.0, abs=1e-12)
    assert rates.sum() == pytest.approx(16 * -2.3875, abs=1e-9)
    assert grid16.local_gain.sum() == pytest.approx(0.05, abs=1e-9)
    free = [b for b in range(1, 17) if b not in fixtures.GRID_CONTROLLED_BUSES]
    assert all(grid16.local_gain[b - 1] == 0.0 for b in free)


@pytest.mark.parametrize(
    "name, value",
    [
        ("sigma_p", np.nan),
        ("sigma_p", np.inf),
        ("inertia", np.nan),
        ("inertia", np.inf),
        ("damping", np.nan),
        ("damping", np.inf),
        ("local_gain", np.nan),
        ("local_gain", -np.inf),
        ("injection", np.nan),
        ("injection", np.inf),
    ],
)
def test_power_network_rejects_non_finite_values(grid16, name, value):
    if name == "sigma_p":
        bad = value
    else:
        bad = getattr(grid16, name).copy()
        bad[3] = value
    with pytest.raises(DimensionError, match=f"{name} must be finite"):
        dataclasses.replace(grid16, **{name: bad})


def _overflowing(grid16, **entries):
    arrays = {name: getattr(grid16, name).copy() for name in entries}
    for name, (index, value) in entries.items():
        if index is None:
            arrays[name][:] = value
        else:
            arrays[name][index] = value
    return arrays


@pytest.mark.parametrize(
    "entries, message",
    [
        ({"damping": (0, 1e308)}, "damping/inertia must be finite"),
        ({"inertia": (None, 1e-309)}, "damping/inertia must be finite"),
        ({"inertia": (None, 1e-310), "damping": (None, 1e-300)}, "1/inertia must be finite"),
        ({"injection": (0, 1e308)}, "injection/inertia must be finite"),
        ({"local_gain": (0, -1.7e308), "damping": (0, 5e307), "inertia": (None, 0.5)},
         "local_gain - damping/inertia must be finite"),
        ({"local_gain": ([0, 1], 1e308)}, r"sum\(local_gain - damping/inertia\) must be finite"),
        ({"local_gain": (0, -1e308), "inertia": (None, 10.0)},
         r"sum\(inertia\*local_gain - damping\) must be finite"),
        ({"injection": ([0, 1], 1e308), "inertia": (None, 10.0)}, r"sum\(injection\) must be finite"),
        ({"damping": ([0, 1], 1e308), "inertia": (None, 1e3), "local_gain": ([0, 1], 1e305)},
         r"sum\(damping\) must be finite"),
    ],
)
def test_power_network_rejects_overflowing_rates(grid16, entries, message):
    # Finite inputs whose per-unit-inertia terms overflow would otherwise
    # pass as finite and give inf or NaN certificates.
    with pytest.raises(DimensionError, match=message):
        dataclasses.replace(grid16, **_overflowing(grid16, **entries))


def test_check_power_threshold_is_inf_when_a_square_overflows(grid16):
    # Tier-1 turns RuntimeWarnings into errors, so this also checks that the
    # overflow of a**2 warns nowhere.
    grid = dataclasses.replace(grid16, **_overflowing(grid16, local_gain=(0, 1e308)))
    report = check_power(grid)
    assert report.threshold == np.inf and report.sigma_p_min == np.inf
    assert np.isfinite(report.psi11) and report.psi11 > 0.0
    assert not report.condition_c1 and not report.condition_c2
    assert report.margin_c2 == -np.inf
