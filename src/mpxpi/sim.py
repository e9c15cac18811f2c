"""Closed-loop assembly, consensus equilibrium, error dynamics, and traces.

The stacked closed loop on state x and integral state z reads

    [x']   [ Ahat - (sigma L_C + sigma_P L_P) (x) I      I ] [x]   [B]
    [z'] = [ -sigma_I (L_I (x) I)                        0 ] [z] + [0]

with Ahat = blockdiag(A_1..A_N). Consensus trajectories live in the kernel of
the deviation map; the error system below removes the structurally conserved
integral mode and its spectral abscissa decides asymptotic consensus. Both
representations are kept because they cross-validate each other: the error
matrix's eigenvalues plus n structural zeros reproduce the full spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionError, NoEquilibriumError
from .graph import LayerGraph, is_connected, laplacian
from .spectral import block_decompose, psi_blocks
from .stability import MultiplexSystem, _with_gains, averaged_dynamics, check_theorem

#: Spectral abscissa below -STABLE_TOL counts as stable; within +-STABLE_TOL
#: a sweep cell is flagged marginal.
STABLE_TOL = 1e-9


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Eq-by-eq stacked closed loop: ``y' = state_matrix y + forcing``."""

    state_matrix: np.ndarray
    forcing: np.ndarray
    n_nodes: int
    state_dim: int

    def __post_init__(self):
        self.state_matrix.setflags(write=False)
        self.forcing.setflags(write=False)


@dataclass(frozen=True)
class ErrorSystem:
    """Deviation-plus-integral dynamics; dimension (2N - 1) * n."""

    matrix: np.ndarray
    n_nodes: int
    state_dim: int

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def abscissa(self) -> float:
        return float(spectral_abscissa(self.matrix))


@dataclass(frozen=True)
class SimTrace:
    """Sampled trajectory of the closed loop.

    ``states``/``integrals`` are (T, n*N); ``d_x`` is the consensus index
    (norm of the deviation of the stacked state from the network average).
    A divergent run is truncated after the offending sample.
    """

    times: np.ndarray
    states: np.ndarray
    integrals: np.ndarray
    d_x: np.ndarray
    divergent: bool

    def __post_init__(self):
        for arr in (self.times, self.states, self.integrals, self.d_x):
            arr.setflags(write=False)


def spectral_abscissa(mat: np.ndarray) -> np.floating | np.ndarray:
    """Largest real part of the spectrum; one value per matrix of a stack."""
    return np.linalg.eigvals(mat).real.max(axis=-1)


def consensus_index(states: np.ndarray, n_nodes: int, state_dim: int) -> np.ndarray:
    """d_x per sample: Euclidean norm of (x - average over nodes)."""
    arr = np.asarray(states, dtype=float).reshape(-1, n_nodes, state_dim)
    dev = arr - arr.mean(axis=1, keepdims=True)
    return np.linalg.norm(dev.reshape(arr.shape[0], -1), axis=1)


def equilibrium(sys: MultiplexSystem) -> tuple[np.ndarray, np.ndarray]:
    """Unique consensus equilibrium (x*, z*) of the closed loop.

    x* stacks N copies of the consensus point; z* balances the node dynamics
    and biases there. Requires the averaged dynamics to be nonsingular.
    """
    _, nonsingular, x_inf = averaged_dynamics(sys)
    if not nonsingular:
        raise NoEquilibriumError("averaged node dynamics are singular")
    x_star = np.tile(x_inf, sys.n_nodes)
    a_x = np.concatenate([a @ x_inf for a in sys.effective_a()])
    z_star = -(a_x + sys.stacked_bias())
    return x_star, z_star


def assemble(sys: MultiplexSystem) -> ClosedLoopSystem:
    """Build the stacked state matrix and forcing of the closed loop."""
    n_nodes, dim = sys.n_nodes, sys.state_dim
    eye = np.eye(dim)
    size = n_nodes * dim
    a_hat = np.zeros((size, size))
    for k, a in enumerate(sys.effective_a()):
        a_hat[k * dim:(k + 1) * dim, k * dim:(k + 1) * dim] = a
    coupling = sys.sigma * np.kron(laplacian(sys.layer_c), eye) + sys.sigma_p * np.kron(
        laplacian(sys.layer_p), eye
    )
    mat = np.zeros((2 * size, 2 * size))
    mat[:size, :size] = a_hat - coupling
    mat[:size, size:] = np.eye(size)
    mat[size:, :size] = -sys.sigma_i * np.kron(laplacian(sys.layer_i), eye)
    forcing = np.concatenate([sys.stacked_bias(), np.zeros(size)])
    return ClosedLoopSystem(mat, forcing, n_nodes, dim)


def _error_blocks(sys: MultiplexSystem):
    """psi and the lower-right layer blocks in the deviation basis.

    Any pinned orthonormal basis yields a similar error matrix; prefer the
    open-loop layer's eigenbasis so its coupling block comes out diagonal.
    """
    basis_layer = sys.layer_c if is_connected(sys.layer_c) else sys.layer_i
    basis = block_decompose(laplacian(basis_layer))
    r, r_inv = basis.r_matrix, basis.r_inverse

    def lower(layer: LayerGraph) -> np.ndarray:
        return (r_inv @ laplacian(layer) @ r)[1:, 1:]

    psi = psi_blocks(sys.effective_a(), basis).assembled()
    return psi, lower(sys.layer_c), lower(sys.layer_p), lower(sys.layer_i)


def _error_matrices(sys: MultiplexSystem, blocks, sigma_p: float, sigma_i: np.ndarray) -> np.ndarray:
    """Error matrices for one proportional gain and an array of integral gains.

    The gains enter affinely: sigma_P through the deviation block, sigma_I
    through the integral block, so a whole row of a gain grid shares one
    coupling term.
    """
    psi, s_c, s_p, s_i = blocks
    n_nodes, dim = sys.n_nodes, sys.state_dim
    eye = np.eye(dim)
    top = n_nodes * dim
    rest = (n_nodes - 1) * dim
    mats = np.zeros((sigma_i.size, top + rest, top + rest))
    mats[:, :top, :top] = psi
    mats[:, dim:top, dim:top] -= np.kron(sys.sigma * s_c + sigma_p * s_p, eye)
    mats[:, dim:top, top:] = np.eye(rest)
    mats[:, top:, dim:top] = -sigma_i[:, None, None] * np.kron(s_i, eye)
    return mats


def error_system(sys: MultiplexSystem) -> ErrorSystem:
    """Dynamics of the consensus error and reduced integral states.

    In the deviation basis the conserved integral mode drops out, leaving a
    (2N - 1)n matrix whose spectral abscissa is negative exactly when the
    consensus equilibrium attracts. Layer couplings enter through their
    lower-right blocks in that basis (diagonal for the layer that supplied
    the basis, dense symmetric for the others).
    """
    mats = _error_matrices(sys, _error_blocks(sys), sys.sigma_p, np.array([sys.sigma_i]))
    return ErrorSystem(mats[0], sys.n_nodes, sys.state_dim)


def simulate(
    sys: MultiplexSystem,
    x0: np.ndarray,
    t_end: float,
    dt: float,
    record_every: int = 1,
) -> SimTrace:
    """Integrate the closed loop from x(0) = x0, z(0) = 0 with fixed-step RK4.

    z(0) = 0 is structural (z is a running integral from time zero) and makes
    the per-node integral states sum to zero along the whole trace; arbitrary
    z0 is therefore not accepted. ``record_every`` thins the stored samples
    without affecting the integration step.
    """
    if not 0.0 < dt < t_end < np.inf:
        raise ValueError("need finite 0 < dt < t_end")
    x0 = np.asarray(x0, dtype=float).ravel()
    size = sys.n_nodes * sys.state_dim
    if x0.shape != (size,):
        raise DimensionError(f"x0 has shape {x0.shape}, expected ({size},)")
    if not np.isfinite(x0).all():
        raise DimensionError("x0 must be finite")
    loop = assemble(sys)
    n_steps = int(round(t_end / dt))
    y0 = np.concatenate([x0, np.zeros(size)])
    samples, diverged = kernels.integrate_lti(
        loop.state_matrix, loop.forcing, y0, dt, n_steps, record_every
    )
    times = dt * record_every * np.arange(samples.shape[0])
    states = samples[:, :size]
    return SimTrace(
        times=times,
        states=states,
        integrals=samples[:, size:],
        d_x=consensus_index(states, sys.n_nodes, sys.state_dim),
        divergent=diverged,
    )


@dataclass(frozen=True)
class SweepResult:
    """Stability classification over a (sigma_P, sigma_I) grid.

    ``abscissa[i, j]`` belongs to ``sigma_p[i], sigma_i[j]``; ``stable`` uses
    the strict -STABLE_TOL cutoff and ``marginal`` flags cells within the
    tolerance band around zero.
    """

    sigma_p: np.ndarray
    sigma_i: np.ndarray
    abscissa: np.ndarray
    stable: np.ndarray
    marginal: np.ndarray

    def __post_init__(self):
        for arr in (self.sigma_p, self.sigma_i, self.abscissa, self.stable, self.marginal):
            arr.setflags(write=False)


def sweep(sys: MultiplexSystem, sigma_p_grid, sigma_i_grid) -> SweepResult:
    """Spectral abscissa of the error system over a gain grid.

    Each sigma_P row is one stack of error matrices, one per sigma_I, solved
    by one batched eigenvalue call. A cell whose matrix overflows to
    non-finite entries holds NaN and classifies as not stable. Grids must be
    non-empty, finite and non-negative, else ValueError.
    """
    sp = np.asarray(list(sigma_p_grid), dtype=float)
    si = np.asarray(list(sigma_i_grid), dtype=float)
    for name, grid in (("sigma_p", sp), ("sigma_i", si)):
        if grid.size == 0:
            raise ValueError("gain grids must be non-empty")
        if not (np.isfinite(grid).all() and (grid >= 0.0).all()):
            raise ValueError(f"{name} grid values must be finite and non-negative")

    blocks = _error_blocks(sys)
    abscissa = np.full((sp.size, si.size), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        for row, gain in enumerate(sp):
            mats = _error_matrices(sys, blocks, gain, si)
            finite = np.isfinite(mats).all(axis=(1, 2))
            if finite.any():
                abscissa[row, finite] = spectral_abscissa(mats[finite])
        stable = abscissa < -STABLE_TOL
        marginal = np.abs(abscissa) <= STABLE_TOL
    return SweepResult(sp, si, abscissa, stable, marginal)


def certified_cells(sys: MultiplexSystem, result: SweepResult, anchor: int = 1) -> np.ndarray:
    """Boolean mask of grid cells whose gains pass the sufficient conditions.

    Condition (i) ignores the gains, (ii) depends on sigma_P alone and (iii)
    on sigma_I alone, so one check, completed again per row and per column,
    decides every cell.
    """
    report = check_theorem(sys, anchor)
    rows = [_with_gains(report, sys.with_gains(sigma_p=float(sp))) for sp in result.sigma_p]
    cols = [_with_gains(report, sys.with_gains(sigma_i=float(si))) for si in result.sigma_i]
    return np.logical_and.outer(
        [report.condition_i and r.condition_ii for r in rows], [c.condition_iii for c in cols]
    )
