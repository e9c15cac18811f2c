"""Reference computations, written apart from the program under test.

Nothing here imports mpxpi. Every quantity the workloads check is computed
from its definition: closed loops are assembled from the A_i, the b_i and
Laplacians built from raw edge lists, exact LTI solutions come from
``scipy.linalg.expm`` of the augmented matrix ``[[A, f], [0, 0]]``, and the
certificates mu, eta, rho and the certified gain set follow the theorem's
formulas.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

#: Tolerance of the theorem's strict inequalities, as the paper states them
#: (an eigenvalue below -1e-9 counts as negative).
HURWITZ_TOL = 1e-9


# ---------------------------------------------------------------------------
# Graphs and closed loops
# ---------------------------------------------------------------------------


def laplacian(n_nodes: int, edges) -> np.ndarray:
    """Weighted Laplacian from 1-based ``(i, j, w)`` edges."""
    lap = np.zeros((n_nodes, n_nodes))
    for i, j, w in edges:
        i, j = int(i) - 1, int(j) - 1
        lap[i, j] -= w
        lap[j, i] -= w
        lap[i, i] += w
        lap[j, j] += w
    return lap


def connected(lap: np.ndarray) -> bool:
    """Connectivity by reachability over the nonzero off-diagonal pattern."""
    n = lap.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in np.flatnonzero(lap[u]):
            if v != u and v not in seen:
                seen.add(int(v))
                frontier.append(int(v))
    return len(seen) == n


def lambda2(lap: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(lap)[1])


def closed_loop(a_list, b_list, lap_c, lap_p, lap_i, sigma, sigma_p, sigma_i):
    """State matrix and forcing of ``[x; z]' = M [x; z] + f``.

    x' = blockdiag(A_k) x - ((sigma L_C + sigma_P L_P) (x) I) x + z + b,
    z' = -sigma_I (L_I (x) I) x.
    """
    n_nodes, dim = len(a_list), a_list[0].shape[0]
    size = n_nodes * dim
    eye = np.eye(dim)
    mat = np.zeros((2 * size, 2 * size))
    for k, a in enumerate(a_list):
        mat[k * dim:(k + 1) * dim, k * dim:(k + 1) * dim] = a
    mat[:size, :size] -= np.kron(sigma * lap_c + sigma_p * lap_p, eye)
    mat[:size, size:] = np.eye(size)
    mat[size:, :size] = -sigma_i * np.kron(lap_i, eye)
    forcing = np.concatenate([np.concatenate(b_list), np.zeros(size)])
    return mat, forcing


def reduced_abscissa(lam: np.ndarray, dim: int) -> float:
    """Largest real part of closed-loop eigenvalues without the ``dim`` structural zeros.

    The conserved sum of the integral states contributes ``dim`` zero
    eigenvalues; they are the ones of smallest modulus.
    """
    return float(lam[np.argsort(np.abs(lam))[dim:]].real.max())


def consensus_point(a_list, b_list) -> np.ndarray:
    """x_inf = -mean(A)^-1 mean(b)."""
    return -np.linalg.solve(sum(a_list) / len(a_list), sum(b_list) / len(b_list))


def _augmented(mat, forcing) -> np.ndarray:
    """``[[A, f], [0, 0]]``: the affine forcing rides along as a constant state 1."""
    size = forcing.size
    aug = np.zeros((size + 1, size + 1))
    aug[:size, :size] = mat
    aug[:size, size] = forcing
    return aug


def exact_samples(mat, forcing, y0, step, count) -> np.ndarray:
    """Exact solution at ``t = k * step`` for k = 0..count-1.

    One ``expm`` of the augmented matrix gives the one-interval map, applied
    repeatedly.
    """
    phi = expm(step * _augmented(mat, forcing))
    out = np.empty((count, y0.size))
    y = np.concatenate([y0, [1.0]])
    for k in range(count):
        out[k] = y[:-1]
        y = phi @ y
    return out


def exact_endpoint(mat, forcing, y0, t_end) -> np.ndarray:
    return (expm(t_end * _augmented(mat, forcing)) @ np.concatenate([y0, [1.0]]))[:-1]


def consensus_index(states: np.ndarray, n_nodes: int, dim: int) -> np.ndarray:
    arr = states.reshape(-1, n_nodes, dim)
    dev = arr - arr.mean(axis=1, keepdims=True)
    return np.sqrt((dev.reshape(arr.shape[0], -1) ** 2).sum(axis=1))


# ---------------------------------------------------------------------------
# Certificates and the certified set
# ---------------------------------------------------------------------------


def certificates_all_anchors(a_list):
    """(mu per anchor, eta, rho) from the definitions.

    With S_k = A_k + A_k^T, T = sum S_k and Q = sum S_k^2, the spread at
    anchor a is sum_k (S_k - S_a)^2 = Q - S_a T - T S_a + N S_a^2.
    """
    sym = np.array([a + a.T for a in a_list])
    n_nodes = sym.shape[0]
    total = sym.sum(axis=0)
    squares = np.einsum("kij,kjl->il", sym, sym)
    spread = (
        squares
        - np.einsum("aij,jl->ail", sym, total)
        - np.einsum("ij,ajl->ail", total, sym)
        + n_nodes * np.einsum("aij,ajl->ail", sym, sym)
    )
    spread = 0.5 * (spread + spread.transpose(0, 2, 1))
    mu = np.linalg.eigvalsh(spread)[:, -1]
    eta = float(np.linalg.eigvalsh(total / n_nodes)[-1])
    rho = float(np.linalg.eigvalsh(sym)[:, -1].max())
    return mu, eta, rho


def threshold(mu: float, eta: float, rho: float, n_nodes: int) -> float:
    spread_term = 0.0 if mu == 0.0 else mu / (n_nodes * abs(eta))
    return 0.5 * (spread_term + rho)


def average_ok(a_list) -> bool:
    """Condition (i): mean(A) nonsingular with a negative definite symmetric part."""
    psi11 = sum(a_list) / len(a_list)
    sv = np.linalg.svd(psi11, compute_uv=False)
    return bool(sv[-1] > 1e-9 * sv[0]) and np.linalg.eigvalsh(psi11 + psi11.T)[-1] < -HURWITZ_TOL


def certified_set(a_list, lap_p, lap_i, sigma_p, sigma_i, anchor=1):
    """The theorem's certified gain set on a grid, in closed form.

    With no open-loop layer the coupling term is sigma_P lambda_2(L_P), so a
    cell is certified when condition (i) holds, sigma_P lambda_2(L_P) exceeds
    the threshold (with sigma_P > 0 and L_P connected), and sigma_I > 0 on a
    connected L_I. Returns ``(mask, tie)``, where ``tie`` flags cells whose
    coupling lies within roundoff of the threshold.
    """
    mu, eta, rho = certificates_all_anchors(a_list)
    thr = threshold(float(mu[anchor - 1]), eta, rho, len(a_list))
    sp = np.asarray(sigma_p, dtype=float)[:, None]
    si = np.asarray(sigma_i, dtype=float)[None, :]
    coupling = sp * lambda2(lap_p)
    cond_ii = (sp > 0.0) & connected(lap_p) & (coupling > thr)
    cond_iii = (si > 0.0) & connected(lap_i)
    mask = average_ok(a_list) & cond_ii & cond_iii
    tie = np.broadcast_to(np.abs(coupling - thr) <= 1e-9 * max(abs(thr), 1.0), mask.shape)
    return mask, tie


def cutoff(a_list, lap_p) -> tuple[float, np.ndarray]:
    """Smallest certified sigma_P over all anchors, and mu per anchor."""
    mu, eta, rho = certificates_all_anchors(a_list)
    best = float(mu.min())
    thr = threshold(best, eta, rho, len(a_list))
    return max(0.0, thr) / lambda2(lap_p), mu


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def close(actual, expected, rtol, atol=0.0) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= atol + rtol * np.abs(expected))
    )


def spectrum_distance(first: np.ndarray, second: np.ndarray) -> float:
    """Largest distance between two eigenvalue multisets, optimally paired."""
    if first.size != second.size:
        return np.inf
    cost = np.abs(first[:, None] - second[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
