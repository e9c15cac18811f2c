import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpxpi.errors import DimensionError, InvalidGraphError
from mpxpi.graph import (
    LayerGraph,
    algebraic_connectivity,
    binary_tree_graph,
    complete_graph,
    empty_graph,
    is_connected,
    laplacian,
    path_graph,
    projection,
    ring_graph,
    spanning_tree,
    star_graph,
)

from conftest import random_connected_graph


def test_laplacian_single_edge():
    g = LayerGraph(2, ((1, 2, 1.0),))
    np.testing.assert_array_equal(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_unit_ring():
    lap = laplacian(ring_graph(8))
    np.testing.assert_array_equal(np.diag(lap), np.full(8, 2.0))
    for i in range(8):
        assert lap[i, (i + 1) % 8] == -1.0
        assert lap[i, (i - 1) % 8] == -1.0


def test_laplacian_edgeless():
    np.testing.assert_array_equal(laplacian(empty_graph(3)), np.zeros((3, 3)))


def test_projection_disjoint_union():
    g1 = LayerGraph(3, ((1, 2, 1.0),))
    g2 = LayerGraph(3, ((2, 3, 1.0),))
    assert projection(g1, g2).edges == ((1, 2, 1.0), (2, 3, 1.0))


def test_projection_sums_shared_weights():
    g = LayerGraph(2, ((1, 2, 1.0),))
    assert projection(g, g).edges == ((1, 2, 2.0),)


def test_projection_double_ring_connectivity():
    doubled = projection(ring_graph(8), ring_graph(8))
    # independent oracle: eigensolver on the hand-built doubled-ring Laplacian
    lap = np.diag(np.full(8, 4.0))
    for i in range(8):
        lap[i, (i + 1) % 8] = lap[i, (i - 1) % 8] = -2.0
    expected = np.sort(np.linalg.eigvalsh(lap))[1]
    assert algebraic_connectivity(doubled) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(2.0 * (2.0 - np.sqrt(2.0)), abs=1e-12)


def test_projection_node_count_mismatch():
    with pytest.raises(DimensionError):
        projection(empty_graph(2), empty_graph(3))


def test_is_connected_cases():
    assert not is_connected(empty_graph(2))
    assert is_connected(ring_graph(8))
    two_triangles = LayerGraph(
        6, ((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0), (4, 5, 1.0), (5, 6, 1.0), (4, 6, 1.0))
    )
    assert not is_connected(two_triangles)


def test_algebraic_connectivity_unit_ring():
    assert algebraic_connectivity(ring_graph(8)) == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-12)
    assert algebraic_connectivity(ring_graph(8)) == pytest.approx(0.5858, abs=1e-4)


def test_algebraic_connectivity_weighted_path():
    g = path_graph(16, 200.0)
    # oracle: dense eigensolver on the hand-built matrix
    lap = np.zeros((16, 16))
    for i in range(15):
        lap[i, i + 1] = lap[i + 1, i] = -200.0
    lap -= np.diag(lap.sum(axis=1))
    expected = np.sort(np.linalg.eigvalsh(lap))[1]
    value = algebraic_connectivity(g)
    assert value == pytest.approx(expected, abs=1e-9)
    assert value == pytest.approx(7.686, abs=1e-3)


def test_algebraic_connectivity_edgeless():
    assert algebraic_connectivity(empty_graph(4)) == 0.0


@pytest.mark.parametrize(
    "edges",
    [((1, 1, 1.0),), ((1, 2, 0.0),), ((1, 2, -2.0),), ((1, 2, 1.0), (2, 1, 3.0)), ((1, 4, 1.0),)],
    ids=["self-loop", "zero-weight", "negative-weight", "duplicate", "out-of-range"],
)
def test_invalid_graphs_rejected(edges):
    with pytest.raises(InvalidGraphError):
        LayerGraph(3, edges)


def test_edges_canonicalised():
    g = LayerGraph(3, ((3, 1, 2.0), (2, 1, 1.0)))
    assert g.edges == ((1, 2, 1.0), (1, 3, 2.0))


def test_spanning_tree_of_complete_graph():
    tree = spanning_tree(complete_graph(6))
    assert tree.edge_count == 5
    assert is_connected(tree)
    assert set(tree.edges) <= set(complete_graph(6).edges)


def test_spanning_tree_ties_go_to_lowest_index_edges():
    assert spanning_tree(complete_graph(4)).edges == ((1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0))


def test_spanning_tree_needs_connected_input():
    with pytest.raises(InvalidGraphError):
        spanning_tree(empty_graph(3))


def test_spanning_tree_of_single_node():
    assert spanning_tree(empty_graph(1)) == empty_graph(1)


def test_standard_topology_shapes():
    assert star_graph(8).edge_count == 7
    assert binary_tree_graph(8).edge_count == 7
    assert complete_graph(8).edge_count == 28
    assert is_connected(binary_tree_graph(8))


# ---------------------------------------------------------------------------
# Randomised invariants
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 50), seed=st.integers(0, 2**32 - 1))
def test_laplacian_row_and_column_sums(n, seed):
    g = random_connected_graph(np.random.default_rng(seed), n)
    lap = laplacian(g)
    assert np.abs(lap @ np.ones(n)).max() < 1e-12
    assert np.abs(np.ones(n) @ lap).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 50), seed=st.integers(0, 2**32 - 1))
def test_laplacian_psd(n, seed):
    g = random_connected_graph(np.random.default_rng(seed), n)
    assert np.linalg.eigvalsh(laplacian(g)).min() > -1e-10


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 50), seed=st.integers(0, 2**32 - 1), drop=st.integers(0, 10))
def test_connectivity_matches_fiedler_sign(n, seed, drop):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    if drop and g.edge_count:
        keep = list(g.edges)
        rng.shuffle(keep)
        g = LayerGraph(n, tuple(keep[: max(0, len(keep) - drop)]))
    assert (algebraic_connectivity(g) > 1e-9) == is_connected(g)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
def test_projection_laplacian_additive(n, seed):
    rng = np.random.default_rng(seed)
    g1 = random_connected_graph(rng, n)
    g2 = random_connected_graph(rng, n)
    lhs = laplacian(projection(g1, g2))
    np.testing.assert_allclose(lhs, laplacian(g1) + laplacian(g2), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1), tied=st.booleans())
def test_spanning_tree_has_minimum_weight(n, seed, tied):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    if tied:  # few distinct weights, so many minimum trees tie
        g = LayerGraph(n, tuple((i, j, float(rng.integers(1, 3))) for i, j, _ in g.edges))
    tree = spanning_tree(g)
    assert tree.edge_count == n - 1
    assert set(tree.edges) <= set(g.edges)
    assert is_connected(tree)
    # oracle: every (N - 1)-edge subset that connects the graph
    best = min(
        sum(w for _, _, w in subset)
        for subset in itertools.combinations(g.edges, n - 1)
        if is_connected(LayerGraph(n, subset))
    )
    assert sum(w for _, _, w in tree.edges) == pytest.approx(best, rel=1e-12)
