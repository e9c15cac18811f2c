"""Grid frequency control as a scalar multiplex consensus problem.

Linearised swing dynamics per generator i:

    m_i w_i' = -d_i w_i + P*_i - P_i^net + v_i,
    (P_i^net)' = sum_j beta_ij (w_i - w_j),      beta_ij = E_i E_j |Y_ij|

With the rescaled network power z_i = -P_i^net / m_i and the distributed
control action v_i = k_i w_i + sigma_P-weighted diffusive coupling, the stack
evolves as

    w' = (diag(k_i - d_i/m_i) - sigma_P L_P) w + z + P*/m,
    z' = -diag(1/m_i) L_I w,

i.e. first-order heterogeneous agents whose integral layer is the electrical
network itself. The mass-weighted sum of z is conserved, which pins the
equilibrium frequency to  -sum(P*) / sum(m_i k_i - d_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import DimensionError, NoEquilibriumError, NotApplicableError
from .graph import LayerGraph, algebraic_connectivity, is_connected, laplacian
from .stability import MultiplexSystem, NodeDynamics


@dataclass(frozen=True)
class PowerNetwork:
    """N generators, their electrical graph, and a proportional control layer.

    ``electrical`` carries the beta_ij weights and doubles as the integral
    layer; it must be connected for the grid to synchronise at all.
    """

    inertia: np.ndarray
    damping: np.ndarray
    local_gain: np.ndarray
    injection: np.ndarray
    electrical: LayerGraph
    p_layer: LayerGraph
    sigma_p: float

    def __post_init__(self):
        n = self.electrical.node_count
        for name in ("inertia", "damping", "local_gain", "injection"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise DimensionError(f"{name} must have shape ({n},), got {arr.shape}")
            if not np.isfinite(arr).all():
                raise DimensionError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.inertia <= 0.0):
            raise DimensionError("inertia must be positive")
        if np.any(self.damping <= 0.0):
            raise DimensionError("damping must be positive")
        if self.p_layer.node_count != n:
            raise DimensionError("proportional layer node count differs from grid size")
        if not (math.isfinite(self.sigma_p) and self.sigma_p >= 0.0):
            raise DimensionError("sigma_p must be finite and non-negative")
        if not is_connected(self.electrical):
            raise DimensionError("electrical graph must be connected")

    @property
    def n_nodes(self) -> int:
        return self.electrical.node_count

    @classmethod
    def from_admittances(
        cls,
        inertia,
        damping,
        local_gain,
        injection,
        voltages,
        admittance_edges: Sequence[tuple[int, int, float]],
        p_layer: LayerGraph,
        sigma_p: float,
    ) -> "PowerNetwork":
        """Build the electrical layer from nodal voltages and |Y_ij| values."""
        volts = np.asarray(voltages, dtype=float)
        edges = tuple(
            (int(i), int(j), float(volts[int(i) - 1] * volts[int(j) - 1] * y))
            for i, j, y in admittance_edges
        )
        return cls(
            inertia=np.asarray(inertia, dtype=float),
            damping=np.asarray(damping, dtype=float),
            local_gain=np.asarray(local_gain, dtype=float),
            injection=np.asarray(injection, dtype=float),
            electrical=LayerGraph(len(volts), edges),
            p_layer=p_layer,
            sigma_p=sigma_p,
        )


def _require_common_inertia(pn: PowerNetwork) -> float:
    m = pn.inertia
    if np.ptp(m) > 1e-12 * m.max():
        raise NotApplicableError(
            "scalar-agent reduction requires homogeneous inertia; "
            "heterogeneous grids can still be simulated directly"
        )
    return float(m[0])


def as_multiplex(pn: PowerNetwork) -> MultiplexSystem:
    """View the grid as N scalar agents under multiplex PI control.

    Agent dynamics k_i - d_i/m, biases P*_i/m, no open-loop layer, the
    electrical graph as integral layer with gain 1/m.
    """
    m = _require_common_inertia(pn)
    nodes = tuple(
        NodeDynamics(np.array([[k - d / m]]), np.array([p / m]))
        for k, d, p in zip(pn.local_gain, pn.damping, pn.injection)
    )
    return MultiplexSystem(
        nodes=nodes,
        layer_c=LayerGraph(pn.n_nodes),
        layer_p=pn.p_layer,
        layer_i=pn.electrical,
        sigma=0.0,
        sigma_p=pn.sigma_p,
        sigma_i=1.0 / m,
    )


def equilibrium_frequency(pn: PowerNetwork) -> float:
    """Common steady-state frequency: -sum(P*) / sum(m_i k_i - d_i)."""
    denom = float(np.sum(pn.inertia * pn.local_gain - pn.damping))
    scale = float(np.sum(pn.damping))
    if abs(denom) <= 1e-12 * max(scale, 1.0):
        raise NoEquilibriumError("m_i k_i - d_i sums to zero; no unique frequency")
    return -float(np.sum(pn.injection)) / denom


@dataclass(frozen=True)
class PowerReport:
    """Scalar certificates for grid synchronisation.

    ``psi11`` is the average of k_i - d_i/m (must be negative);
    ``threshold`` bounds sigma_P * lambda_2(L_P) from below;
    ``sigma_p_min`` is that bound divided by lambda_2(L_P).
    """

    psi11: float
    threshold: float
    coupling: float
    sigma_p_min: float
    lambda2_p: float
    lambda2_i: float
    condition_c1: bool
    condition_c2: bool
    margin_c1: float
    margin_c2: float
    omega_infinity: float | None

    @property
    def passed(self) -> bool:
        return self.condition_c1 and self.condition_c2


def check_power(pn: PowerNetwork) -> PowerReport:
    """Evaluate the scalar sufficient conditions for the grid."""
    m = _require_common_inertia(pn)
    a = pn.local_gain - pn.damping / m
    n = pn.n_nodes
    psi11 = float(a.mean())
    condition_c1 = psi11 < 0.0
    lam2_p = algebraic_connectivity(pn.p_layer)
    lam2_i = algebraic_connectivity(pn.electrical)
    if psi11 != 0.0:
        threshold = float((a**2).sum() / (n * abs(psi11)) + a.max())
    else:
        threshold = math.inf
    coupling = pn.sigma_p * lam2_p
    condition_c2 = coupling > threshold
    omega = None
    if condition_c1:
        omega = equilibrium_frequency(pn)
    return PowerReport(
        psi11=psi11,
        threshold=threshold,
        coupling=coupling,
        sigma_p_min=threshold / lam2_p if lam2_p > 0.0 else math.inf,
        lambda2_p=lam2_p,
        lambda2_i=lam2_i,
        condition_c1=condition_c1,
        condition_c2=condition_c2,
        margin_c1=-psi11,
        margin_c2=coupling - threshold,
        omega_infinity=omega,
    )


@dataclass(frozen=True)
class PowerTrace:
    """Sampled frequencies and rescaled network powers."""

    times: np.ndarray
    omega: np.ndarray
    powers: np.ndarray
    spread: np.ndarray
    divergent: bool

    def __post_init__(self):
        for arr in (self.times, self.omega, self.powers, self.spread):
            arr.setflags(write=False)


def _grid_matrices(pn: PowerNetwork, controlled: bool, injection: np.ndarray):
    n = pn.n_nodes
    l_i = laplacian(pn.electrical)
    diag = -pn.damping / pn.inertia
    coupling = np.zeros((n, n))
    if controlled:
        diag = diag + pn.local_gain
        coupling = pn.sigma_p * laplacian(pn.p_layer)
    mat = np.zeros((2 * n, 2 * n))
    mat[:n, :n] = np.diag(diag) - coupling
    mat[:n, n:] = np.eye(n)
    mat[n:, :n] = -(1.0 / pn.inertia)[:, None] * l_i
    forcing = np.concatenate([injection / pn.inertia, np.zeros(n)])
    return mat, forcing


def simulate_power(
    pn: PowerNetwork,
    disturbances: Sequence[tuple[float, int, float]] = (),
    control_on_time: float = 0.0,
    t_end: float = 20.0,
    dt: float = 2e-5,
    record_every: int = 100,
) -> PowerTrace:
    """Integrate the grid through a piecewise-constant injection schedule.

    ``disturbances`` lists (time, bus, delta_P) events; each adds delta_P to
    bus's injection from that time on. The local gains and the proportional
    layer switch on together at ``control_on_time`` (the electrical integral
    action is physical and always active). The run starts at the uncontrolled
    nominal equilibrium: all frequencies at sum(P*)/sum(d), network powers
    balancing it, so the mass-weighted power sum starts (and stays) at zero.

    Event and switch times are snapped to the recording grid
    (``record_every * dt``), which keeps the returned samples uniformly
    spaced. Divergent runs are truncated and flagged, as in
    :func:`mpxpi.sim.simulate`.
    """
    if not 0.0 < dt < t_end < np.inf:
        raise ValueError("need finite 0 < dt < t_end")
    n = pn.n_nodes
    for _, bus, _ in disturbances:
        if not 1 <= int(bus) <= n:
            raise DimensionError(f"disturbance bus {bus} outside 1..{n}")

    omega0 = float(np.sum(pn.injection) / np.sum(pn.damping))
    w0 = np.full(n, omega0)
    z0 = (pn.damping * omega0 - pn.injection) / pn.inertia
    state = np.concatenate([w0, z0])

    n_steps = int(round(t_end / dt))
    if record_every < 1 or n_steps % record_every != 0:
        raise ValueError("record_every must be a positive divisor of the number of steps")

    def snap(time: float) -> int:
        step = record_every * int(round(float(time) / dt / record_every))
        return min(max(step, 0), n_steps)

    breakpoints = {0, n_steps}
    events: dict[int, list[tuple[int, float]]] = {}
    for time, bus, delta in disturbances:
        step = snap(time)
        breakpoints.add(step)
        events.setdefault(step, []).append((int(bus) - 1, float(delta)))
    control_step = snap(control_on_time)
    breakpoints.add(control_step)

    marks = sorted(breakpoints)
    injection = pn.injection.copy()
    for bus, delta in events.get(0, []):
        injection[bus] += delta

    chunks = [state[None, :]]
    diverged = False
    for start, stop in zip(marks[:-1], marks[1:]):
        if stop == start:
            continue
        controlled = start >= control_step
        mat, forcing = _grid_matrices(pn, controlled, injection)
        samples, diverged = kernels.integrate_lti(
            mat, forcing, state, dt, stop - start, record_every
        )
        chunks.append(samples[1:])
        state = samples[-1]
        if diverged:
            break
        for bus, delta in events.get(stop, []):
            injection[bus] += delta

    stacked = np.vstack(chunks)
    times = np.linspace(0.0, dt * record_every * (stacked.shape[0] - 1), stacked.shape[0])
    omega = stacked[:, :n]
    spread = np.linalg.norm(omega - omega.mean(axis=1, keepdims=True), axis=1)
    return PowerTrace(times, omega, stacked[:, n:], spread, diverged)
