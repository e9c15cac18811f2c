"""Sufficient-condition certificates for multiplex PI consensus.

Three scalars summarise a heterogeneous network:

* ``mu``, the spread of the node dynamics around an anchor node:
  ``lambda_max(sum_k (A'_k - A'_anchor)^2)`` over the non-anchor nodes,
  where ``A' = A + A^T``;
* ``eta``, the ``lambda_max`` of the symmetric part of the averaged dynamics
  (negative when the average is dissipative); stored signed, displayed
  as magnitude;
* ``rho``, the worst single-node expansion rate ``max_k lambda_max(A'_k)``.

The proportional coupling certifies consensus when

    sigma_P * lambda_2(L_P) + sigma * lambda_2(L_C) > (mu / (N |eta|) + rho) / 2

together with a nonsingular, dissipative-average condition and a connected
integral layer. The checks here evaluate those inequalities with explicit
margins; they are sufficient only, never necessary.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, NotApplicableError
from .graph import LayerGraph, algebraic_connectivity, is_connected, laplacian, projection

#: Eigenvalue strictly below -HURWITZ_TOL counts as stable; smallest singular
#: value above SINGULAR_RTOL * ||matrix||_2 counts as nonsingular.
HURWITZ_TOL = 1e-9
SINGULAR_RTOL = 1e-9


@dataclass(frozen=True)
class NodeDynamics:
    """One agent: ``x' = A x + b`` plus diffusive control inputs."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise DimensionError(f"A must be square, got {a.shape}")
        if b.shape != (a.shape[0],):
            raise DimensionError(f"b has shape {b.shape}, expected ({a.shape[0]},)")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class MultiplexSystem:
    """Heterogeneous agents coupled through three shared-node layers.

    ``layer_c`` is the open-loop coupling (gain ``sigma``), ``layer_p`` the
    static proportional control layer (gain ``sigma_p``), ``layer_i`` the
    integral layer (gain ``sigma_i``). Optional per-node ``local_feedback``
    matrices are added to the A_i before any analysis or simulation.

    The modelling assumption that at least one bias is nonzero (otherwise the
    all-stable problem is trivial) is documented, not enforced: zero-bias
    systems are legitimate test articles.
    """

    nodes: tuple[NodeDynamics, ...]
    layer_c: LayerGraph
    layer_p: LayerGraph
    layer_i: LayerGraph
    sigma: float = 0.0
    sigma_p: float = 1.0
    sigma_i: float = 1.0
    local_feedback: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        nodes = tuple(self.nodes)
        if len(nodes) < 2:
            raise DimensionError("a multiplex system needs at least 2 nodes")
        dim = nodes[0].dim
        if any(nd.dim != dim for nd in nodes):
            raise DimensionError("all agents must share one state dimension")
        for name in ("layer_c", "layer_p", "layer_i"):
            layer: LayerGraph = getattr(self, name)
            if layer.node_count != len(nodes):
                raise DimensionError(
                    f"{name} has {layer.node_count} nodes, system has {len(nodes)}"
                )
        for name in ("sigma", "sigma_p", "sigma_i"):
            gain = getattr(self, name)
            if not (math.isfinite(gain) and gain >= 0.0):
                raise DimensionError(f"{name} must be finite and non-negative")
        if self.local_feedback is not None:
            fb = tuple(np.asarray(h, dtype=float) for h in self.local_feedback)
            if len(fb) != len(nodes):
                raise DimensionError("local_feedback must list one matrix per node")
            for k, h in enumerate(fb):
                if h.shape != (dim, dim):
                    raise DimensionError(
                        f"local feedback {k + 1} has shape {h.shape}, expected ({dim}, {dim})"
                    )
                h.setflags(write=False)
            object.__setattr__(self, "local_feedback", fb)
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def state_dim(self) -> int:
        return self.nodes[0].dim

    def effective_a(self) -> list[np.ndarray]:
        """Node matrices with any local feedback folded in."""
        if self.local_feedback is None:
            return [nd.A for nd in self.nodes]
        return [nd.A + h for nd, h in zip(self.nodes, self.local_feedback)]

    def stacked_bias(self) -> np.ndarray:
        return np.concatenate([nd.b for nd in self.nodes])

    def with_gains(self, sigma_p: float | None = None, sigma_i: float | None = None) -> "MultiplexSystem":
        updates = {}
        if sigma_p is not None:
            updates["sigma_p"] = float(sigma_p)
        if sigma_i is not None:
            updates["sigma_i"] = float(sigma_i)
        return dataclasses.replace(self, **updates)


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the sufficient conditions, with signed margins.

    ``threshold`` is the right-hand side that the coupling term must exceed;
    ``coupling`` the left-hand side actually achieved (its form depends on
    ``mode``). ``eta`` is stored signed; display ``abs(eta)``.
    """

    mu: float
    eta: float
    rho: float
    lambda2_c: float
    lambda2_p: float
    lambda2_i: float
    threshold: float
    coupling: float
    condition_i: bool
    condition_ii: bool
    condition_iii: bool
    margin_i: float
    margin_ii: float
    margin_iii: float
    psi11_nonsingular: bool
    psi11_hurwitz: bool
    x_infinity: np.ndarray | None
    mode: str
    anchor: int
    # Connectivity of the evaluated system's layers, for _with_gains to reuse.
    _links: _Links | None = dataclasses.field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.condition_i and self.condition_ii and self.condition_iii


def _symmetric_parts(a_list: Sequence[np.ndarray]) -> np.ndarray:
    """Stack of ``A_k + A_k^T``, shape (N, n, n), after checking the shapes."""
    mats = [np.asarray(a, dtype=float) for a in a_list]
    if len(mats) < 2:
        raise DimensionError("certificates need at least 2 nodes")
    dim = mats[0].shape[0]
    for a in mats:
        if a.shape != (dim, dim):
            raise DimensionError("dynamics matrices must share one square shape")
    stack = np.stack(mats)
    if not np.isfinite(stack).all():
        raise DimensionError("dynamics matrices must be finite")
    return stack + stack.transpose(0, 2, 1)


def _spread_mu(sym: np.ndarray, index: int) -> float:
    """mu at the 0-based anchor ``index``, summed term by term."""
    ref = sym[index]
    spread = np.zeros_like(ref)
    for k, s in enumerate(sym):
        if k != index:
            diff = s - ref
            spread += diff @ diff
    return float(np.linalg.eigvalsh(spread)[-1])


def certificates(a_list: Sequence[np.ndarray], anchor: int = 1) -> tuple[float, float, float]:
    """(mu, eta, rho) for the given dynamics, anchored at node ``anchor``."""
    sym = _symmetric_parts(a_list)
    if not 1 <= anchor <= len(sym):
        raise DimensionError(f"anchor {anchor} outside 1..{len(sym)}")
    return (_spread_mu(sym, anchor - 1), *_eta_rho(sym))


def _eta_rho(sym: np.ndarray) -> tuple[float, float]:
    """The anchor-free certificates (eta, rho) of a stack of ``A_k + A_k^T``."""
    eta = float(np.linalg.eigvalsh(sum(sym) / len(sym))[-1])
    rho = float(np.linalg.eigvalsh(sym)[:, -1].max())
    return eta, rho


def best_anchor(a_list: Sequence[np.ndarray]) -> tuple[int, float]:
    """Anchor choice minimising mu (ties broken towards the lowest index).

    Relabelling which node plays the anchor role tightens the coupling
    threshold; eta and rho are anchor-invariant.

    With ``S_k = A_k + A_k^T``, ``T = sum_k S_k`` and ``Q = sum_k S_k^2``, the
    spread at anchor a has the closed form

        sum_k (S_k - S_a)^2 = Q - S_a T - (S_a T)^T + N S_a^2

    (the k = a term is zero), so one stacked matmul and one batched
    ``eigvalsh`` give mu at every anchor. The closed form cancels where the
    spread is small against ``N n max|S|^2``, so it only shortlists: every
    anchor within a rounding bound of the smallest estimate is re-checked
    with the term-by-term sum that :func:`certificates` uses, and the lowest
    index among their exact minimum is returned. The answer is therefore the
    per-anchor scan's, bit for bit, including ``mu == 0.0`` on a homogeneous
    network. Cost: one batched eigensolve of N (n x n) matrices, plus one
    O(N n^3) direct sum per near-tied anchor.
    """
    sym = _symmetric_parts(a_list)
    n_nodes, dim = sym.shape[:2]
    squares = sym @ sym
    cross = sym @ sym.sum(axis=0)
    spread = squares.sum(axis=0) - cross - cross.transpose(0, 2, 1) + n_nodes * squares
    estimate = np.linalg.eigvalsh(spread)[:, -1]
    # Each spread entry sums about N n products of entries up to max|S|, so
    # the closed form and the direct sum each err in lambda_max by at most
    # about (N + n) n eps N n max|S|^2; the window is twice that, with margin.
    scale = n_nodes * dim * float(np.abs(sym).max()) ** 2
    window = 64.0 * np.finfo(float).eps * (n_nodes + dim) * dim * scale
    near = np.flatnonzero(estimate <= estimate.min() + window)
    exact = [_spread_mu(sym, k) for k in near]
    pick = int(np.argmin(exact))
    return int(near[pick]) + 1, exact[pick]


def consensusability_fold(
    sys: MultiplexSystem, h_list: Sequence[np.ndarray]
) -> MultiplexSystem:
    """Return the system with local feedback gains absorbed into the A_i.

    Subsequent checks and simulations see ``A_i + H_i``, where A_i already
    includes any existing ``local_feedback``; the consensus point moves
    accordingly since the averaged dynamics change.
    """
    mats = [np.asarray(h, dtype=float) for h in h_list]
    if len(mats) != sys.n_nodes:
        raise DimensionError(f"expected {sys.n_nodes} feedback matrices, got {len(mats)}")
    dim = sys.state_dim
    for k, h in enumerate(mats):
        if h.shape != (dim, dim):
            raise DimensionError(
                f"feedback matrix {k + 1} has shape {h.shape}, expected ({dim}, {dim})"
            )
    nodes = tuple(NodeDynamics(a + h, nd.b) for nd, a, h in zip(sys.nodes, sys.effective_a(), mats))
    return dataclasses.replace(sys, nodes=nodes, local_feedback=None)


def _homogeneous(mats: Sequence[np.ndarray]) -> bool:
    return all(np.array_equal(a, mats[0]) for a in mats[1:])


def weighted_projection_laplacian(sys: MultiplexSystem) -> np.ndarray:
    """sigma * L_C + sigma_P * L_P, the gain-weighted merged coupling."""
    return sys.sigma * laplacian(sys.layer_c) + sys.sigma_p * laplacian(sys.layer_p)


@dataclass(frozen=True)
class _Links:
    """Which layers of a system connect all its nodes.

    Connectivity ignores weights, so with sigma fixed the merged C/P layer of
    the coupling condition depends on the gains only through sigma_P > 0.
    """

    layer_c: bool
    layer_i: bool
    open_loop: bool  # C when sigma > 0, else no edges
    open_loop_and_p: bool  # that layer merged with P

    def merged(self, sigma_p: float) -> bool:
        """Whether the gain-weighted merge of C and P connects all nodes."""
        return self.open_loop_and_p if sigma_p > 0.0 else self.open_loop


def _connectivity(sys: MultiplexSystem) -> _Links:
    open_loop = sys.layer_c if sys.sigma > 0.0 else LayerGraph(sys.n_nodes)
    return _Links(
        layer_c=is_connected(sys.layer_c),
        layer_i=is_connected(sys.layer_i),
        open_loop=is_connected(open_loop),
        open_loop_and_p=is_connected(projection(open_loop, sys.layer_p)),
    )


def averaged_dynamics(sys: MultiplexSystem) -> tuple[np.ndarray, bool, np.ndarray | None]:
    """psi11 (the node matrices' average), its nonsingularity, and x_inf.

    The consensus point ``x_inf = -psi11^-1 mean(b)`` is None when psi11 is
    singular, i.e. its smallest singular value is at most SINGULAR_RTOL times
    its largest.
    """
    psi11 = sum(sys.effective_a()) / sys.n_nodes
    sv = np.linalg.svd(psi11, compute_uv=False)
    nonsingular = bool(sv[-1] > SINGULAR_RTOL * sv[0])
    x_inf = None
    if nonsingular:
        x_inf = -np.linalg.solve(psi11, sum(nd.b for nd in sys.nodes) / sys.n_nodes)
        x_inf.setflags(write=False)
    return psi11, nonsingular, x_inf


def coupling_threshold(mu: float, eta: float, rho: float, n_nodes: int) -> float:
    """``(mu / (N |eta|) + rho) / 2``, the bound the coupling term must exceed.

    mu = 0 drops the spread term; eta = 0 with mu > 0 makes it infinite.
    """
    if mu == 0.0:
        spread_term = 0.0
    elif eta == 0.0:
        spread_term = np.inf
    else:
        spread_term = mu / (n_nodes * abs(eta))
    return 0.5 * (spread_term + rho)


def _evaluate(sys: MultiplexSystem, anchor: int | None) -> StabilityReport:
    """The gain-free part of the report, at ``anchor`` or (None) the best one.

    The coupling, conditions (ii) and (iii) and their margins are left for
    :func:`_with_gains`; ``mode`` is "homogeneous" or left for it to name.
    """
    a_eff = sys.effective_a()
    if anchor is None:
        anchor, mu = best_anchor(a_eff)
        eta, rho = _eta_rho(_symmetric_parts(a_eff))
    else:
        mu, eta, rho = certificates(a_eff, anchor)
    _, nonsingular, x_inf = averaged_dynamics(sys)
    hurwitz = bool(eta < -HURWITZ_TOL)
    condition_i = nonsingular and hurwitz
    return StabilityReport(
        mu=mu,
        eta=eta,
        rho=rho,
        lambda2_c=algebraic_connectivity(sys.layer_c),
        lambda2_p=algebraic_connectivity(sys.layer_p),
        lambda2_i=algebraic_connectivity(sys.layer_i),
        threshold=coupling_threshold(mu, eta, rho, sys.n_nodes),
        coupling=np.nan,
        condition_i=condition_i,
        condition_ii=False,
        condition_iii=False,
        margin_i=-eta,
        margin_ii=np.nan,
        margin_iii=np.nan,
        psi11_nonsingular=nonsingular,
        psi11_hurwitz=hurwitz,
        x_infinity=x_inf,
        mode="homogeneous" if condition_i and _homogeneous(a_eff) else "",
        anchor=anchor,
        _links=_connectivity(sys),
    )


def _with_gains(report: StabilityReport, sys: MultiplexSystem, projection: bool = False) -> StabilityReport:
    """``report`` from :func:`_evaluate`, completed for the gains of ``sys``.

    ``sys`` must match the evaluated system except in sigma_P and sigma_I.
    The direct coupling form needs a connected open-loop layer with sigma > 0;
    otherwise, or when ``projection`` forces it, the merged-layer form is used.
    """
    links = report._links
    direct = not projection and sys.sigma > 0.0 and links.layer_c
    if direct:
        coupling = sys.sigma * report.lambda2_c + sys.sigma_p * report.lambda2_p
        condition_ii = coupling > report.threshold
    else:
        coupling = float(np.linalg.eigvalsh(weighted_projection_laplacian(sys))[1])
        condition_ii = links.merged(sys.sigma_p) and coupling > report.threshold
    return dataclasses.replace(
        report,
        coupling=coupling,
        condition_ii=condition_ii,
        condition_iii=links.layer_i and sys.sigma_i > 0.0,
        margin_ii=coupling - report.threshold,
        margin_iii=min(report.lambda2_i, sys.sigma_i),
        mode="homogeneous" if report.mode == "homogeneous" else ("direct" if direct else "projection"),
    )


def check_theorem(sys: MultiplexSystem, anchor: int = 1) -> StabilityReport:
    """Evaluate the three sufficient conditions on a multiplex system.

    When the open-loop layer is connected the coupling term is
    ``sigma lambda_2(L_C) + sigma_P lambda_2(L_P)``; when it is not (including
    the common sigma = 0 case) the check falls back to the merged-layer form,
    requiring the gain-weighted projection of C and P to be connected.
    """
    return _with_gains(_evaluate(sys, anchor), sys)


def check_projection(sys: MultiplexSystem, anchor: int = 1) -> StabilityReport:
    """Merged-layer variant: lambda_2 of sigma L_C + sigma_P L_P must clear
    the threshold. Raises when that projection is disconnected."""
    report = _evaluate(sys, anchor)
    if not report._links.merged(sys.sigma_p):
        raise NotApplicableError(
            "gain-weighted projection of layers C and P is not connected"
        )
    return _with_gains(report, sys, projection=True)
