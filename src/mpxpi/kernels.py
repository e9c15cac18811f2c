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
the table ``M**1 - I ... M**B - I`` of the stride map is built; each block is
then one ``(B d) x (d + 1)`` matrix-vector product from the last sample before
it, written straight into the output, plus that sample. A call costs
O(d^3 (log stride + B)) once, then O(d^2) per recorded sample, however many
steps lie between samples. The samples are those of the RK4 stage loop up to
roundoff, so the method keeps its fourth order.
"""

from __future__ import annotations

import math

import numpy as np

# State magnitude beyond which a trajectory is declared divergent.
DIVERGENCE_LIMIT = 1e12

# Most recorded samples per block: one product computes a block, and every
# sample of it is checked before the next, so a divergent run computes at most
# this many samples past the first bad one.
_BLOCK = 128


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
    out = np.empty((n_rec, dim))
    out[0] = y0
    # A powered map that overflows gives non-finite samples, flagged below.
    with np.errstate(over="ignore", invalid="ignore"):
        table = _power_table(_step_increment(mat, forcing, dt, stride), block)
        y = np.concatenate((y0, [1.0]))  # homogeneous coordinates: [y; 1]
        for start in range(1, n_rec, block):
            stop = min(start + block, n_rec)
            samples = out[start:stop]
            np.matmul(table[: (stop - start) * dim], y, out=samples.reshape(-1))
            samples += y[:dim]
            # NaN fails every comparison, so it counts as divergent here
            if not np.abs(samples).max() <= DIVERGENCE_LIMIT:
                bad = np.flatnonzero(~(np.abs(samples).max(axis=1) <= DIVERGENCE_LIMIT))
                return out[: start + bad[0] + 1], True
            y[:dim] = samples[-1]
    return out, False
