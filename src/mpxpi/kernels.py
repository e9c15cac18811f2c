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
those digits would add up. A call that records one sample after ``y0``
applies the map once and powers it whole.

Samples are stepped in blocks of up to B = 128. Once per call the table
``M**1 - I ... M**B - I`` is built (with one recorded sample it is
``M**stride - I`` alone); each block is then one ``(B d) x (d + 1)``
matrix-vector product from the last sample before it, written straight
into the output, plus that sample. A call therefore costs
O(d^3 (log stride + B)) once, then O(d^2) per recorded sample, however many
steps lie between samples. The samples are those of the RK4 stage loop up to
roundoff, so the method keeps its fourth order.
"""

from __future__ import annotations

import numpy as np

# State magnitude beyond which a trajectory is declared divergent.
DIVERGENCE_LIMIT = 1e12

# Recorded samples per block: one product computes a block, and every sample
# of it is checked before the next, so a divergent run computes at most this
# many samples past the first bad one.
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
    base = np.zeros((dim + 1, dim + 1))
    base[:dim, :dim] = z @ s
    base[:dim, dim] = dt * (s @ forcing)
    # Squaring on increments: (I + N)(I + R) = I + N + R + N R.
    inc = None
    while True:
        if stride & 1:
            inc = base if inc is None else inc + base + inc @ base
        stride >>= 1
        if not stride:
            return inc
        base = 2.0 * base + base @ base


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
    block = min(_BLOCK, n_rec - 1)
    out = np.empty((n_rec, dim))
    out[0] = y0
    # A powered map that overflows gives non-finite samples, flagged below.
    with np.errstate(over="ignore", invalid="ignore"):
        if n_rec == 2:
            # Applied once, the map pays its rounding once: power it whole,
            # one product per squaring instead of three.
            eye = np.eye(dim + 1)
            step = np.linalg.matrix_power(eye + _step_increment(mat, forcing, dt, 1), stride) - eye
        else:
            step = _step_increment(mat, forcing, dt, stride)
        table = _power_table(step, block)
        y = np.append(y0, 1.0)  # homogeneous coordinates: [y; 1]
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
