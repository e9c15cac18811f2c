"""Closed-loop assembly, consensus equilibrium, error dynamics, and traces.

The stacked closed loop on state x and integral state z reads

    [x']   [ Ahat - (sigma L_C + sigma_P L_P) (x) I      I ] [x]   [B]
    [z'] = [ -sigma_I (L_I (x) I)                        0 ] [z] + [0]

with Ahat = blockdiag(A_1..A_N). Consensus trajectories live in the kernel of
the deviation map; the error system below removes the structurally conserved
integral mode and its spectral abscissa decides asymptotic consensus. The
error matrix is affine in the two gains, E0 + sigma_P Dp + sigma_I Di, and
the pencil is built once per system, in the pinned orthonormal basis Q of
one Laplacian: E0's psi block (Q^T (x) I) Ahat (Q (x) I) is one batch of
n^2 congruences of Q, one per entry of the node matrices. Both
representations are kept because they cross-validate each other: the error
matrix's eigenvalues plus n structural zeros reproduce the full spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionError, NoEquilibriumError
from .graph import is_connected, laplacian
from .spectral import _pinned_basis, kron_eye
from .stability import MultiplexSystem, _with_gains, averaged_dynamics, check_theorem

#: Spectral abscissa below -STABLE_TOL counts as stable; within +-STABLE_TOL
#: a sweep cell is flagged marginal.
STABLE_TOL = 1e-9

#: Largest error matrix whose sweep rows are solved on several threads. From
#: m = 92 on, OpenBLAS (0.3.31, 2 vCPUs) starts threads of its own inside the
#: eigensolver, and two rows at once ran at 0.73-0.89x the speed of one after
#: the other; up to m = 91 they ran at 1.4-1.9x.
_THREADED_MAX_SIZE = 91

#: numpy's batched eigensolve releases the interpreter lock only when its
#: stack's matrix count times the matrix size exceeds this; below it threads
#: take turns, and two rows at once ran at 0.6-1.0x.
_GIL_FREE_STACK = 500


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
    """Largest real part of the spectrum; one value per matrix of a stack.

    A matrix with a non-finite entry, as an overflowing gain leaves, has no
    computable spectrum and gives NaN.
    """
    mat = np.asarray(mat)
    finite = np.isfinite(mat).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.eigvals(mat).real.max(axis=-1)
    abscissa = np.full(finite.shape, np.nan)
    abscissa[finite] = spectral_abscissa(mat[finite])
    return abscissa[()]


def consensus_index(states: np.ndarray, n_nodes: int, state_dim: int) -> np.ndarray:
    """d_x per sample: Euclidean norm of (x - average over nodes)."""
    # One C-contiguous copy of the rows, so the subtraction and the squares
    # run over whole rows; the caller's array is never written.
    dev = np.array(states, dtype=float, order="C").reshape(-1, n_nodes * state_dim)
    # The nodes summed in order, one state_dim slice each: the sum that
    # mean(axis=1) forms for state_dim >= 2, without its slow reduction over
    # a middle axis.
    total = dev[:, :state_dim].copy()
    for node in range(1, n_nodes):
        total += dev[:, node * state_dim : (node + 1) * state_dim]
    total /= n_nodes
    # The squares and row sums of np.linalg.norm(dev, axis=1), in place.
    dev -= np.tile(total, (1, n_nodes))
    dev *= dev
    return np.sqrt(np.add.reduce(dev, axis=1))


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
    size = n_nodes * dim
    a_hat = np.zeros((size, size))
    for k, a in enumerate(sys.effective_a()):
        a_hat[k * dim:(k + 1) * dim, k * dim:(k + 1) * dim] = a
    l_c, l_p, l_i = kron_eye(
        np.stack([laplacian(layer) for layer in (sys.layer_c, sys.layer_p, sys.layer_i)]), dim
    )
    mat = np.zeros((2 * size, 2 * size))
    mat[:size, :size] = a_hat - (sys.sigma * l_c + sys.sigma_p * l_p)
    mat[:size, size:] = np.eye(size)
    mat[size:, :size] = -sys.sigma_i * l_i
    forcing = np.concatenate([sys.stacked_bias(), np.zeros(size)])
    return ClosedLoopSystem(mat, forcing, n_nodes, dim)


def _pencil(sys: MultiplexSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E0 and the nonzero blocks -(S_P (x) I) of Dp and -(S_I (x) I) of Di.

    Both blocks are (N - 1)n square: Dp's sits on the deviation rows and
    columns, Di's on the integral rows and deviation columns. E0's psi block
    is ``(Q^T (x) I) blockdiag(A_1..A_N) (Q (x) I)`` for the pinned
    orthonormal basis Q, which equals ``(R^-1 (x) I) Ahat (R (x) I)``; it is
    formed as one batch of n^2 congruences ``Q^T diag(A_1..A_N[a, b]) Q``,
    one per entry (a, b) of the node matrices. E0 holds no negative zero, so
    adding a block to it leaves none either; LAPACK's reflectors take the
    sign of a zero leading entry, so the sign of a zero can move eigenvalue
    bits.
    """
    laps = np.array([laplacian(layer) for layer in (sys.layer_c, sys.layer_p, sys.layer_i)])
    q, _ = _pinned_basis(laps[0] if is_connected(sys.layer_c) else laps[2])
    n_nodes, dim = sys.n_nodes, sys.state_dim
    top = n_nodes * dim
    size = 2 * top - dim
    e0 = np.zeros((size, size))
    # Entry (a, b) of every node matrix as a row (n, n, 1, N), scaling the
    # columns of Q^T; block (i, j) of psi holds entry (i, j) of congruence (a, b).
    # Splitting the axes of E0's top-left slice is always a view, so the
    # assignment lands in E0.
    entries = np.array(sys.effective_a()).transpose(1, 2, 0)[:, :, None, :]
    e0[:top, :top].reshape(n_nodes, dim, n_nodes, dim)[...] = (
        ((q.T * entries) @ q).transpose(2, 0, 3, 1)
    )
    s_c, s_p, s_i = kron_eye((q.T @ laps @ q)[:, 1:, 1:], dim)
    with np.errstate(over="ignore", invalid="ignore"):
        e0[dim:top, dim:top] -= sys.sigma * s_c
    e0[dim:top, top:] = np.eye(size - top)
    e0 += 0.0  # -0.0 + 0.0 is +0.0
    return e0, -s_p, -s_i


def _add_gains(mats: np.ndarray, block_p: np.ndarray, block_i: np.ndarray, sigma_p: float, sigma_i) -> None:
    """Add sigma_P Dp and sigma_I Di to E0, or to each E0 of a stack, in place.

    ``sigma_i`` is a scalar or one value per matrix. An overflowing gain
    leaves non-finite entries without a warning.
    """
    size, rest = mats.shape[-1], block_p.shape[0]
    dev, integral = slice(size - 2 * rest, size - rest), slice(size - rest, size)
    sigma_i = np.asarray(sigma_i, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mats[..., dev, dev] += sigma_p * block_p
        mats[..., integral, dev] += sigma_i[..., None, None] * block_i


def _error_matrices(pencil, sigma_p: float, sigma_i) -> np.ndarray:
    """E0 + sigma_P Dp + sigma_I Di from ``_pencil``; one matrix per entry of ``sigma_i``.

    One copy of E0 per matrix, to which each gain's block is added in place.
    """
    e0, block_p, block_i = pencil
    sigma_i = np.asarray(sigma_i, dtype=float)
    mats = np.empty(sigma_i.shape + e0.shape)
    mats[...] = e0
    _add_gains(mats, block_p, block_i, sigma_p, sigma_i)
    return mats


def error_pencil(sys: MultiplexSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E0, Dp, Di) such that the error matrix is E0 + sigma_P Dp + sigma_I Di.

    E0 holds psi, the open-loop coupling and the integral input; Dp and Di
    hold the proportional and integral layers' blocks. Any pinned orthonormal
    basis yields a similar error matrix; prefer the open-loop layer's
    eigenbasis so its coupling block comes out diagonal.
    """
    e0, block_p, block_i = _pencil(sys)
    dim, top = sys.state_dim, sys.n_nodes * sys.state_dim
    dp, di = np.zeros((2,) + e0.shape)
    dp[dim:top, dim:top] = block_p
    di[top:, dim:top] = block_i
    return e0, dp, di


def error_system(sys: MultiplexSystem) -> ErrorSystem:
    """Dynamics of the consensus error and reduced integral states.

    In the deviation basis the conserved integral mode drops out, leaving a
    (2N - 1)n matrix whose spectral abscissa is negative exactly when the
    consensus equilibrium attracts. It is ``error_pencil`` evaluated at the
    system's gains.
    """
    mat, block_p, block_i = _pencil(sys)
    _add_gains(mat, block_p, block_i, sys.sigma_p, sys.sigma_i)
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
    without affecting the integration step. ``t_end`` is rounded to a whole
    number of steps, so the trace ends at ``round(t_end / dt) * dt``.
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

    Each sigma_P row is one stack of error matrices, one per sigma_I, formed
    from the pencil as ``error_system`` forms one (so bit for bit the same)
    and solved by one batched eigenvalue call. A cell whose matrix overflows
    holds NaN and classifies as not stable. Grids must be one-dimensional,
    non-empty, finite and non-negative, else ValueError.

    The rows are spread over all usable CPUs, each thread solving every
    W-th row, when the matrices are small enough that LAPACK stays on one
    thread (m = (2N - 1)n at most ``_THREADED_MAX_SIZE``) and a row's stack
    is large enough that numpy releases the interpreter lock while solving
    it. Otherwise, or with one row or one CPU, the calling thread solves
    every row. Either way each row, and so each cell, has the same bits.
    """
    # An array is converted as it is; any other iterable (a generator too) through a list.
    sp, si = (np.asarray(grid if isinstance(grid, np.ndarray) else list(grid), dtype=float)
              for grid in (sigma_p_grid, sigma_i_grid))
    for name, grid in (("sigma_p", sp), ("sigma_i", si)):
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("gain grids must be non-empty and one-dimensional")
        if not (np.isfinite(grid).all() and (grid >= 0.0).all()):
            raise ValueError(f"{name} grid values must be finite and non-negative")

    pencil = _pencil(sys)
    size = pencil[0].shape[0]
    abscissa = np.empty((sp.size, si.size))
    workers = 1
    if size <= _THREADED_MAX_SIZE and si.size * size > _GIL_FREE_STACK:
        workers = min(kernels.usable_cpus(), sp.size)

    def solve_rows(first: int) -> None:
        for row in range(first, sp.size, workers):
            abscissa[row] = spectral_abscissa(_error_matrices(pencil, sp[row], si))

    _on_threads(solve_rows, workers)
    stable = abscissa < -STABLE_TOL
    marginal = np.abs(abscissa) <= STABLE_TOL
    return SweepResult(sp, si, abscissa, stable, marginal)


def _on_threads(work, workers: int) -> None:
    """Run ``work(k)`` for k = 0 .. workers - 1, k = 0 on the calling thread.

    Every thread is joined before this returns, and an exception raised by
    any of them is raised here.
    """
    import threading

    errors = []

    def run(k: int) -> None:
        try:
            work(k)
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


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
