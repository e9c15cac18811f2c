"""Fixed-step integration kernel: classical RK4 for small dense LTI systems.

For ``y' = A y + f`` one RK4 step of size ``dt`` is exactly the affine map
``y+ = P y + q`` with ``Z = dt A``,

    S = I + Z/2 + Z^2/6 + Z^3/24,   P = I + Z S,   q = dt S f,

so ``P`` is the degree-4 Taylor polynomial of ``exp(Z)``. Written as the
homogeneous block ``M = [[P, q], [0, 1]]`` (Van Loan 1978, "Computing
integrals involving the matrix exponential"), ``stride`` steps are
``M**stride``, formed by repeated squaring. The powers are held as their
increments ``M**j - I``, which for small ``dt`` are small beside ``I``, so
no digits of them are lost to rounding ``I`` plus them; over many samples
those digits would add up.

The ``S`` samples recorded after ``y0`` are stepped in blocks of
B = ceil(sqrt(S)), at most 128 (an endpoint-only call is B = 1). Once per call
the table ``M**1 - I ... M**B - I`` of the stride map is built. The anchors,
the last sample before each block, are stepped through its last row block,
``M**B - I``, one matrix-vector product each. Then one product of the
anchors with the whole table, written straight into the output, gives every
recorded sample less its anchor: the table is read once for all blocks, not
once per block (the packed-GEMM point of Goto and van de Geijn, "Anatomy of
high-performance matrix multiplication", 2008). A call costs
O(d^3 (log stride + B)) once, then O(d^2) per recorded sample, however many
steps lie between samples. The samples are those of the RK4 stage loop up to
roundoff, so the method keeps its fourth order.

:func:`usable_cpus` is the one count of CPUs that parallel work here spreads over.
"""

from __future__ import annotations

import math
import os

import numpy as np

# State magnitude beyond which a trajectory is declared divergent.
DIVERGENCE_LIMIT = 1e12

# Most recorded samples per block: B products build the table and the anchors
# take S / B matrix-vector products, so B = ceil(sqrt(S)) balances the two;
# the cap bounds the table at 128 d (d + 1) values.
_BLOCK = 128


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _step_increment(mat: np.ndarray, forcing: np.ndarray, dt: float, stride: int) -> np.ndarray:
    """``M - I`` for the RK4 map ``M = [[P_s, q_s], [0, 1]]`` of ``stride`` steps.

    ``y(t + stride dt) = P_s y(t) + q_s``. The map is held as its increment:
    ``P_s - I`` is small when ``dt`` is, and storing it apart from ``I``
    keeps the digits that rounding ``I + (P_s - I)`` would drop.
    """
    dim = forcing.size
    eye = np.eye(dim)
    z = dt * mat
    s = eye + z @ (eye / 2.0 + z @ (eye / 6.0 + z / 24.0))
    step = np.zeros((dim + 1, dim + 1))
    step[:dim, :dim] = z @ s
    step[:dim, dim] = dt * (s @ forcing)
    # Per bit of stride after the leading one, (I + N)^2 = I + 2N + N N, then
    # (I + N)(I + K) = I + N + K + N K if it is set: the rounding stays relative
    # to N. In place and by ndarray.dot, as dispatch costs more than arithmetic.
    inc = step.copy()
    for bit in bin(stride)[3:]:
        square = inc.dot(inc)
        inc += inc
        inc += square
        if bit == "1":
            product = inc.dot(step)
            inc += step
            inc += product
    return inc


def _power_table(step: np.ndarray, count: int) -> np.ndarray:
    """``M**j - I`` for ``j = 1 .. count``, top ``d`` rows stacked: ``(count d, d + 1)``.

    ``step`` is ``M - I``. Row block ``j - 1`` is ``[P^j - I, c_j]`` with
    ``c_j = sum_{i<j} P^i q``, so ``y_{k+j} = y_k + (P^j - I) y_k + c_j``.
    The table doubles: the next ``m`` powers come from ``M**m`` and the first
    ``m`` in one batched product.
    """
    dim = step.shape[0] - 1
    powers = np.empty((count, dim + 1, dim + 1))
    powers[0] = step
    done = 1
    while done < count:
        take = min(done, count - done)
        # M**(done + i) - I = N_done + N_i + N_done N_i, for i = 1 .. take
        fresh = powers[done : done + take]
        np.matmul(powers[done - 1], powers[:take], out=fresh)
        fresh += powers[done - 1]
        fresh += powers[:take]
        done += take
    return powers[:, :dim].reshape(count * dim, dim + 1)


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

    dim = y0.size
    n_rec = n_steps // stride + 1
    # ceil(sqrt(S)) for S = n_rec - 1: B products build the table, S / B the blocks
    block = min(_BLOCK, 1 + math.isqrt(n_rec - 2))
    n_blocks = -(-(n_rec - 1) // block)
    # Whole blocks of rows; the rows past n_rec are computed and cut off.
    out = np.empty((1 + n_blocks * block, dim))
    out[0] = y0
    # A powered map that overflows gives non-finite samples, flagged below.
    with np.errstate(over="ignore", invalid="ignore"):
        table = _power_table(_step_increment(mat, forcing, dt, stride), block)
        # Homogeneous anchors [y; 1], each the last sample before its block,
        # stepped through the table's last row block, M**B - I.
        anchors = np.ones((n_blocks, dim + 1))
        anchors[0, :dim] = y0
        last = table[-dim:]
        for k in range(1, n_blocks):
            np.matmul(last, anchors[k - 1], out=anchors[k, :dim])
            anchors[k, :dim] += anchors[k - 1, :dim]
        # Every sample at once: block k is anchor k plus the table times it.
        samples = out[1:].reshape(n_blocks, block * dim)
        np.matmul(anchors, table.T, out=samples)
        samples = out[1:].reshape(n_blocks, block, dim)
        samples += anchors[:, None, :dim]
    out = out[:n_rec]
    recorded = out[1:]
    # NaN fails every comparison, so it counts as divergent here
    if not (recorded.max() <= DIVERGENCE_LIMIT and recorded.min() >= -DIVERGENCE_LIMIT):
        bad = np.flatnonzero(~(np.abs(recorded).max(axis=1) <= DIVERGENCE_LIMIT))
        return out[: bad[0] + 2], True  # through out[bad[0] + 1], the first bad sample
    return out, False
