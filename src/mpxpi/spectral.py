"""Block eigenstructure of graph Laplacians and transformed node dynamics.

A symmetric Laplacian L on N nodes factors as ``L = R Lambda R^-1`` where the
scaled eigenbasis R is pinned so that its first column is the all-ones vector.
Writing

    R^-1 = [[r11, r12],        R = [[1,   N r21^T],
            [r21, r22]]             [1,   N r22^T]]

with r11 = 1/N and r12 = (1/N) 1^T, the blocks satisfy a family of exact
identities (orthogonality of the underlying eigenbasis in disguise) that the
consensus analysis leans on. :func:`verify_block_properties` evaluates every
identity's residual; :func:`similarity_transform` expresses a *second*
Laplacian in the basis of the first, which is what makes multiple independent
layers tractable at once.

The basis is built deterministically: a Householder reflection maps e_1 to
1/sqrt(N)·1, the reflected matrix is deflated, and the (N-1)-dimensional rest
is diagonalised with a fixed sign convention. Repeated eigenvalues need no
special handling; every identity below is basis-choice invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionError, InvalidLaplacianError

#: Tolerance of the block identities and, relative to the matrix scale, of the
#: Laplacian checks (double precision eigensolvers on desk-scale N stay far below this).
IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class SpectralBlocks:
    """Pinned-basis factorisation of one Laplacian.

    Attributes:
        n_nodes: N.
        r11: scalar 1/N.
        r12: (N-1,) row of R^-1, equal to 1/N each.
        r21: (N-1,) column of R^-1.
        r22: (N-1, N-1) lower-right block of R^-1.
        eigenvalues: ascending, with the structural 0 first.
    """

    n_nodes: int
    r11: float
    r12: np.ndarray
    r21: np.ndarray
    r22: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        for arr in (self.r12, self.r21, self.r22, self.eigenvalues):
            arr.setflags(write=False)

    @property
    def r_inverse(self) -> np.ndarray:
        n = self.n_nodes
        out = np.empty((n, n))
        out[0, 0] = self.r11
        out[0, 1:] = self.r12
        out[1:, 0] = self.r21
        out[1:, 1:] = self.r22
        return out

    @property
    def r_matrix(self) -> np.ndarray:
        n = self.n_nodes
        out = np.empty((n, n))
        out[:, 0] = 1.0
        out[0, 1:] = n * self.r21
        out[1:, 1:] = n * self.r22.T
        return out

    def reassemble(self) -> np.ndarray:
        """R Lambda R^-1; reproduces the source Laplacian."""
        return (self.r_matrix * self.eigenvalues) @ self.r_inverse


def validate_laplacian(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidLaplacianError(f"expected a square matrix, got shape {mat.shape}")
    peak = float(np.abs(mat).max())
    # NaN fails every comparison below without a word, and inf - inf is NaN.
    if not np.isfinite(peak):
        raise InvalidLaplacianError("matrix has a non-finite entry")
    scale = max(1.0, peak)
    if np.abs(mat - mat.T).max() > IDENTITY_TOL * scale:
        raise InvalidLaplacianError("matrix is not symmetric")
    if np.abs(mat.sum(axis=1)).max() > IDENTITY_TOL * scale:
        raise InvalidLaplacianError("matrix rows do not sum to zero")
    return mat


def _pinned_basis(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenbasis Q of a Laplacian with Q[:, 0] = 1/sqrt(N)·1, and its eigenvalues.

    ``R = sqrt(N) Q`` and ``R^-1 = Q^T / sqrt(N)`` are the scaled basis of
    :class:`SpectralBlocks`, so ``R^-1 X R = Q^T X Q`` for any X. The
    eigenvalues are ascending after the structural 0.
    """
    mat = validate_laplacian(mat)
    n = mat.shape[0]
    if n < 2:
        raise DimensionError("block decomposition needs at least 2 nodes")

    # Householder reflection sending e_1 to the normalised ones vector.
    u = np.full(n, -1.0 / np.sqrt(n))
    u[0] += 1.0
    reflect = np.eye(n) - (2.0 / (u @ u)) * (u[:, None] * u)

    deflated = (reflect @ mat @ reflect)[1:, 1:]
    lam, w = np.linalg.eigh(0.5 * (deflated + deflated.T))

    # Fixed sign convention: largest-magnitude entry of each eigenvector >= 0.
    flip = w[np.abs(w).argmax(axis=0), np.arange(n - 1)] < 0.0
    w *= np.where(flip, -1.0, 1.0)

    # Orthonormal, first column pinned; the product is formed before it lands.
    reflect[:, 1:] = reflect[:, 1:] @ w
    return reflect, np.concatenate(([0.0], lam))


def block_decompose(mat: np.ndarray) -> SpectralBlocks:
    """Factor a Laplacian into pinned-basis blocks.

    The first eigenvector is exactly +1/sqrt(N)·1 and the reported smallest
    eigenvalue is exactly 0 (deflated, not estimated). Connectivity is not
    required; a disconnected input simply yields further near-zero eigenvalues.
    """
    basis, eigenvalues = _pinned_basis(mat)
    n = basis.shape[0]
    inv_sqrt_n = 1.0 / np.sqrt(n)
    return SpectralBlocks(
        n_nodes=n,
        r11=1.0 / n,
        r12=np.full(n - 1, 1.0 / n),
        r21=inv_sqrt_n * basis[0, 1:].copy(),
        r22=inv_sqrt_n * basis[1:, 1:].T.copy(),
        eigenvalues=eigenvalues,
    )


#: Identity keys in verification order, named for what each one states.
IDENTITY_NAMES = (
    "top_row_completeness",      # r11 I + (r12 1 (x) I) = I
    "lower_row_nullsum",         # (r21 (x) I) + (r22 1 (x) I) = 0
    "lower_gram_identity",       # (r21 r21^T + r22 r22^T (x) I) = (1/N)(I (x) I)
    "cross_gram_zero",           # r11 (r21^T (x) I) + (r12 r22^T (x) I) = 0
    "rank_one_consistency",      # (r21 r21^T (x) I) = (r22 1 1^T r22^T (x) I)
    "lower_block_norm_bound",    # ||r22 (x) I||_2 <= 1/sqrt(N)
    "column_norm_chain",         # ||r21||_F <= sqrt(N-1) ||r22||_2 <= sqrt((N-1)/N)
    "scaled_orthogonality",      # R^T = N R^-1
    "lower_block_inverse",       # N r22^T = (I + 1 1^T)^-1 r22^-1
)


@dataclass(frozen=True)
class PropertyReport:
    """Max-norm residual of each block identity (0 means exact)."""

    residuals: Mapping[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def ok(self) -> bool:
        return self.max_residual < IDENTITY_TOL


def verify_block_properties(blocks: SpectralBlocks, n_state: int = 1) -> PropertyReport:
    """Evaluate every block identity and return its residual.

    The identities are stated for the ``(x) I_n`` expansions of the blocks,
    but ``max|X (x) I| = max|X|`` and ``||X (x) I||_2 = ||X||_2``, so they are
    evaluated on the N-sized blocks and the residuals do not depend on
    ``n_state`` (which must still be >= 1). Inequality identities report the
    violation amount (clamped at 0).
    """
    if n_state < 1:
        raise DimensionError("n_state must be >= 1")
    n = blocks.n_nodes
    ones = np.ones(n - 1)
    r12, r21, r22 = blocks.r12, blocks.r21, blocks.r22

    res: dict[str, float] = {}

    def put(name: str, value) -> None:
        res[name] = float(np.max(np.abs(value)))

    put("top_row_completeness", blocks.r11 + r12 @ ones - 1.0)
    put("lower_row_nullsum", r21 + r22 @ ones)
    put("lower_gram_identity", np.outer(r21, r21) + r22 @ r22.T - np.eye(n - 1) / n)
    put("cross_gram_zero", blocks.r11 * r21 + r12 @ r22.T)
    put("rank_one_consistency", np.outer(r21, r21) - np.outer(r22 @ ones, r22 @ ones))
    spec_r22 = np.linalg.norm(r22, ord=2)
    put("lower_block_norm_bound", max(0.0, spec_r22 - 1.0 / np.sqrt(n)))
    frob_r21 = np.linalg.norm(r21)
    mid = np.sqrt(n - 1) * spec_r22
    put(
        "column_norm_chain",
        max(0.0, frob_r21 - mid, mid - np.sqrt((n - 1) / n)),
    )
    put("scaled_orthogonality", blocks.r_matrix.T - n * blocks.r_inverse)
    gram = np.eye(n - 1) + np.outer(ones, ones)
    put(
        "lower_block_inverse",
        n * r22.T - np.linalg.solve(gram, np.linalg.inv(r22)),
    )
    return PropertyReport(MappingProxyType(res))


def similarity_transform(blocks: SpectralBlocks, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Express another Laplacian in the basis of ``blocks``.

    Returns ``(t, s)`` with ``t = N r22 (1 1^T + I) u22^T`` built from the
    second Laplacian's own blocks ``u22``, and ``s = t diag(lam_2..lam_N) t^T``.
    ``t`` is orthogonal and ``s`` symmetric, and in the first basis the second
    Laplacian reads blockdiag(0, s).
    """
    second = validate_laplacian(second)
    n = blocks.n_nodes
    if second.shape[0] != n:
        raise DimensionError(
            f"Laplacian is {second.shape[0]}x{second.shape[0]}, expected {n}x{n}"
        )
    other = block_decompose(second)
    ones = np.ones((n - 1, n - 1))
    t = n * blocks.r22 @ (ones + np.eye(n - 1)) @ other.r22.T
    s = (t * other.eigenvalues[1:]) @ t.T
    return t, s


def kron_eye(mat: np.ndarray, dim: int) -> np.ndarray:
    """``kron(mat, I_dim)``, placed rather than multiplied; a stack gives a stack.

    Entry (i, j) of ``mat`` lands on the diagonal of block (i, j), and every
    other entry is a plain zero. For ``dim == 1`` it is a copy of ``mat`` in
    the same memory order, as from ``np.kron``: matmul rounds a transposed
    operand differently.
    """
    mat = np.asarray(mat, dtype=float)
    if dim == 1:
        return mat.copy(order="K")
    *stack, rows, cols = mat.shape
    out = np.zeros((*stack, rows, dim, cols, dim))
    for k in range(dim):
        out[..., :, k, :, k] = mat
    return out.reshape(*stack, rows * dim, cols * dim)


@dataclass(frozen=True)
class PsiBlocks:
    """Node dynamics congruence-transformed into the pinned basis.

    ``psi11`` is the plain average of the A_i; ``p1``/``p2`` stack the
    deviations of each node from node 1 and vanish for homogeneous dynamics;
    ``coupling`` is the (1 1^T (x) A_1) + blockdiag(A_2..A_N) core of psi22.
    """

    psi11: np.ndarray
    psi12: np.ndarray
    psi21: np.ndarray
    psi22: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        for arr in (self.psi11, self.psi12, self.psi21, self.psi22, self.p1, self.p2, self.coupling):
            arr.setflags(write=False)

    def assembled(self) -> np.ndarray:
        return np.block([[self.psi11, self.psi12], [self.psi21, self.psi22]])


def psi_blocks(a_list: Sequence[np.ndarray], blocks: SpectralBlocks) -> PsiBlocks:
    """Transform per-node dynamics matrices by the basis of ``blocks``.

    Equivalent to ``(R^-1 (x) I) blockdiag(A_1..A_N) (R (x) I)`` but assembled
    from the closed-form blocks, which exposes the structure the stability
    conditions use. The error pencil (``sim.error_pencil``) forms the same
    matrix without these blocks, as a batch of congruences of the pinned
    orthonormal basis.
    """
    mats = [np.asarray(a, dtype=float) for a in a_list]
    n_nodes = blocks.n_nodes
    if len(mats) != n_nodes:
        raise DimensionError(f"expected {n_nodes} dynamics matrices, got {len(mats)}")
    dim = mats[0].shape[0]
    for k, a in enumerate(mats):
        if a.shape != (dim, dim):
            raise DimensionError(f"dynamics matrix {k + 1} has shape {a.shape}, expected ({dim}, {dim})")

    psi11 = sum(mats) / n_nodes
    p1 = np.hstack([a - mats[0] for a in mats[1:]])
    p2 = np.vstack([a - mats[0] for a in mats[1:]])
    rest = np.zeros((dim * (n_nodes - 1), dim * (n_nodes - 1)))
    for k, a in enumerate(mats[1:]):
        rest[k * dim:(k + 1) * dim, k * dim:(k + 1) * dim] = a
    coupling = np.tile(mats[0], (n_nodes - 1, n_nodes - 1)) + rest

    # r22^T gets its own expansion, in np.kron's memory order: r22_k.T would
    # be a Fortran-ordered view for dim > 1, which matmul rounds differently.
    r22_k = kron_eye(blocks.r22, dim)
    r22t_k = kron_eye(blocks.r22.T, dim)
    return PsiBlocks(
        psi11=psi11,
        psi12=p1 @ r22t_k,
        psi21=r22_k @ p2,
        psi22=n_nodes * r22_k @ coupling @ r22t_k,
        p1=p1,
        p2=p2,
        coupling=coupling,
    )
