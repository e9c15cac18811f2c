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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionError, NoEquilibriumError
from .graph import is_connected, laplacian
from .spectral import SpectralBlocks, block_decompose, psi_blocks
from .stability import SINGULAR_RTOL, MultiplexSystem, StabilityReport, check_theorem

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
        return spectral_abscissa(self.matrix)


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


def spectral_abscissa(mat: np.ndarray) -> float:
    """Largest real part of the spectrum."""
    return float(np.linalg.eigvals(mat).real.max())


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
    a_eff = sys.effective_a()
    psi11 = sum(a_eff) / sys.n_nodes
    sv = np.linalg.svd(psi11, compute_uv=False)
    if not sv[-1] > SINGULAR_RTOL * sv[0]:
        raise NoEquilibriumError("averaged node dynamics are singular")
    x_inf = -np.linalg.solve(psi11, sum(nd.b for nd in sys.nodes) / sys.n_nodes)
    x_star = np.tile(x_inf, sys.n_nodes)
    a_x = np.concatenate([a @ x_inf for a in a_eff])
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


def _deviation_basis(sys: MultiplexSystem) -> SpectralBlocks:
    # Any pinned orthonormal basis yields a similar error matrix; prefer the
    # open-loop layer's eigenbasis so its coupling block comes out diagonal.
    if is_connected(sys.layer_c):
        return block_decompose(laplacian(sys.layer_c))
    return block_decompose(laplacian(sys.layer_i))


def _error_matrix(
    sys: MultiplexSystem,
    basis: SpectralBlocks,
    psi: np.ndarray,
    s_c: np.ndarray,
    s_p: np.ndarray,
    s_i: np.ndarray,
    sigma_p: float,
    sigma_i: float,
) -> np.ndarray:
    n_nodes, dim = sys.n_nodes, sys.state_dim
    eye = np.eye(dim)
    top = n_nodes * dim
    rest = (n_nodes - 1) * dim
    mat = np.zeros((top + rest, top + rest))
    mat[:top, :top] = psi
    mat[dim:top, dim:top] -= np.kron(sys.sigma * s_c + sigma_p * s_p, eye)
    mat[dim:top, top:] = np.eye(rest)
    mat[top:, dim:top] = -sigma_i * np.kron(s_i, eye)
    return mat


def _layer_blocks(sys: MultiplexSystem, basis: SpectralBlocks):
    r, r_inv = basis.r_matrix, basis.r_inverse

    def lower(mat: np.ndarray) -> np.ndarray:
        return (r_inv @ mat @ r)[1:, 1:]

    psi = psi_blocks(sys.effective_a(), basis).assembled()
    return (
        psi,
        lower(laplacian(sys.layer_c)),
        lower(laplacian(sys.layer_p)),
        lower(laplacian(sys.layer_i)),
    )


def error_system(sys: MultiplexSystem) -> ErrorSystem:
    """Dynamics of the consensus error and reduced integral states.

    In the deviation basis the conserved integral mode drops out, leaving a
    (2N - 1)n matrix whose spectral abscissa is negative exactly when the
    consensus equilibrium attracts. Layer couplings enter through their
    lower-right blocks in that basis (diagonal for the layer that supplied
    the basis, dense symmetric for the others).
    """
    basis = _deviation_basis(sys)
    psi, s_c, s_p, s_i = _layer_blocks(sys, basis)
    mat = _error_matrix(sys, basis, psi, s_c, s_p, s_i, sys.sigma_p, sys.sigma_i)
    return ErrorSystem(mat, sys.n_nodes, sys.state_dim)


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
    if dt <= 0.0 or t_end <= dt:
        raise ValueError("need 0 < dt < t_end")
    x0 = np.asarray(x0, dtype=float).ravel()
    size = sys.n_nodes * sys.state_dim
    if x0.shape != (size,):
        raise DimensionError(f"x0 has shape {x0.shape}, expected ({size},)")
    loop = assemble(sys)
    n_steps = int(round(t_end / dt))
    if n_steps % record_every != 0:
        raise ValueError("record_every must divide the number of steps")
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


def sweep(
    sys: MultiplexSystem,
    sigma_p_grid,
    sigma_i_grid,
    threads: int | None = None,
) -> SweepResult:
    """Spectral abscissa of the error system over a gain grid.

    Grid points are independent; set MPX_THREADS (or ``threads``) to fan the
    eigenvalue work out. Failed cells hold NaN and classify as not stable.
    """
    sp = np.asarray(list(sigma_p_grid), dtype=float)
    si = np.asarray(list(sigma_i_grid), dtype=float)
    if sp.size == 0 or si.size == 0:
        raise ValueError("gain grids must be non-empty")

    basis = _deviation_basis(sys)
    psi, s_c, s_p, s_i = _layer_blocks(sys, basis)

    def cell(idx: tuple[int, int]) -> tuple[tuple[int, int], float]:
        i, j = idx
        try:
            mat = _error_matrix(sys, basis, psi, s_c, s_p, s_i, sp[i], si[j])
            return idx, spectral_abscissa(mat)
        except np.linalg.LinAlgError:
            return idx, np.nan

    indices = [(i, j) for i in range(sp.size) for j in range(si.size)]
    if threads is None:
        threads = int(os.environ.get("MPX_THREADS", "1"))
    abscissa = np.full((sp.size, si.size), np.nan)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for idx, value in pool.map(cell, indices):
                abscissa[idx] = value
    else:
        for idx in indices:
            abscissa[idx] = cell(idx)[1]

    with np.errstate(invalid="ignore"):
        stable = abscissa < -STABLE_TOL
        marginal = np.abs(abscissa) <= STABLE_TOL
    return SweepResult(sp, si, abscissa, stable, marginal)


def certified_cells(sys: MultiplexSystem, result: SweepResult, anchor: int = 1) -> np.ndarray:
    """Boolean mask of grid cells whose gains pass the sufficient conditions."""
    mask = np.zeros(result.abscissa.shape, dtype=bool)
    for i, sp in enumerate(result.sigma_p):
        for j, si in enumerate(result.sigma_i):
            report: StabilityReport = check_theorem(
                sys.with_gains(sigma_p=float(sp), sigma_i=float(si)), anchor
            )
            mask[i, j] = report.passed
    return mask
