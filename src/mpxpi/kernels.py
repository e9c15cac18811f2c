"""Fixed-step integration kernel: classical RK4 for small dense LTI systems.

For ``y' = A y + f`` one RK4 step of size ``dt`` is exactly the affine map
``y+ = P y + q`` with ``Z = dt A``,

    S = I + Z/2 + Z^2/6 + Z^3/24,   P = I + Z S,   q = dt S f,

so ``P`` is the degree-4 Taylor polynomial of ``exp(Z)``. Written as the
homogeneous block ``M = [[P, q], [0, 1]]`` (Van Loan 1978, "Computing
integrals involving the matrix exponential"), ``stride`` steps are
``M**stride``, formed by repeated squaring. A call therefore costs
O(d^3 log stride) once, then one d x d matvec per recorded sample, however
many steps lie between samples. The samples are those of the RK4 stage loop
up to roundoff, so the method keeps its fourth order.
"""

from __future__ import annotations

import numpy as np

# State magnitude beyond which a trajectory is declared divergent.
DIVERGENCE_LIMIT = 1e12

# Recorded samples per divergence check; every sample is checked, in batches,
# and a divergent run computes at most this many samples past the first bad one.
_CHECK_EVERY = 1024


def _step_map(mat: np.ndarray, forcing: np.ndarray, dt: float, stride: int):
    """``(P_s, q_s)`` with ``y(t + stride dt) = P_s y(t) + q_s`` under RK4."""
    dim = forcing.size
    eye = np.eye(dim)
    z = dt * mat
    s = eye + z @ (eye / 2.0 + z @ (eye / 6.0 + z / 24.0))
    block = np.zeros((dim + 1, dim + 1))
    block[:dim, :dim] = eye + z @ s
    block[:dim, dim] = dt * (s @ forcing)
    block[dim, dim] = 1.0
    block = np.linalg.matrix_power(block, stride)
    return block[:dim, :dim], block[:dim, dim]


def integrate_lti(
    mat: np.ndarray,
    forcing: np.ndarray,
    y0: np.ndarray,
    dt: float,
    n_steps: int,
    stride: int = 1,
) -> tuple[np.ndarray, bool]:
    """Integrate ``y' = mat @ y + forcing`` with classical RK4.

    Records the state every ``stride`` steps (``stride`` must divide
    ``n_steps``). Returns ``(samples, diverged)`` where ``samples`` has
    ``n_steps // stride + 1`` rows starting at ``y0``; when the trajectory
    exceeds :data:`DIVERGENCE_LIMIT` or goes non-finite the array is truncated
    after the offending sample and ``diverged`` is True.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if stride < 1 or n_steps % stride != 0:
        raise ValueError("stride must be a positive divisor of n_steps")
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    forcing = np.ascontiguousarray(forcing, dtype=np.float64)
    y0 = np.ascontiguousarray(y0, dtype=np.float64)
    if mat.shape != (y0.size, y0.size) or forcing.shape != y0.shape:
        raise ValueError("mat, forcing and y0 have inconsistent shapes")

    n_rec = n_steps // stride + 1
    out = np.empty((n_rec, y0.size))
    out[0] = y0
    # A powered map that overflows gives non-finite samples, flagged below.
    with np.errstate(over="ignore", invalid="ignore"):
        p_s, q_s = _step_map(mat, forcing, dt, stride)
        y = y0
        for start in range(1, n_rec, _CHECK_EVERY):
            stop = min(start + _CHECK_EVERY, n_rec)
            for idx in range(start, stop):
                y = p_s @ y + q_s
                out[idx] = y
            peaks = np.abs(out[start:stop]).max(axis=1)
            # NaN fails every comparison, so it counts as divergent here
            bad = np.flatnonzero(~(peaks <= DIVERGENCE_LIMIT))
            if bad.size:
                return out[: start + bad[0] + 1], True
    return out, False
