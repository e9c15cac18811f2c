import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpxpi.errors import DimensionError, InvalidLaplacianError
from mpxpi.graph import laplacian, ring_graph, star_graph
from mpxpi.spectral import (
    IDENTITY_NAMES,
    block_decompose,
    kron_eye,
    psi_blocks,
    similarity_transform,
    verify_block_properties,
)

from conftest import random_connected_graph


def _ring_spectrum(n: int) -> np.ndarray:
    return np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))


def test_two_node_blocks_closed_form():
    blocks = block_decompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    np.testing.assert_allclose(blocks.eigenvalues, [0.0, 2.0], atol=1e-14)
    assert blocks.r11 == pytest.approx(0.5)
    np.testing.assert_allclose(blocks.r12, [0.5])
    assert abs(blocks.r22[0, 0]) == pytest.approx(0.5, abs=1e-14)


def test_ring8_eigenvalues_match_closed_form():
    blocks = block_decompose(laplacian(ring_graph(8)))
    np.testing.assert_allclose(blocks.eigenvalues, _ring_spectrum(8), atol=1e-12)
    # doubled pairs and the extremes, as expected for an even ring
    assert blocks.eigenvalues[1] == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-12)
    assert blocks.eigenvalues[-1] == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (8, 2), (10, 3)])
def test_reassembly_reproduces_laplacian(n, seed):
    lap = laplacian(random_connected_graph(np.random.default_rng(seed), n))
    blocks = block_decompose(lap)
    assert np.linalg.norm(blocks.reassemble() - lap) < 1e-9
    # scaled basis is orthogonal: R^-1 == R^T / N
    np.testing.assert_allclose(blocks.r_inverse @ blocks.r_matrix, np.eye(n), atol=1e-12)


def test_first_eigenpair_pinned():
    blocks = block_decompose(laplacian(ring_graph(6)))
    r = blocks.r_matrix
    np.testing.assert_array_equal(r[:, 0], np.ones(6))
    assert blocks.eigenvalues[0] == 0.0


def test_rejects_non_symmetric():
    with pytest.raises(InvalidLaplacianError):
        block_decompose(np.array([[1.0, -1.0], [0.0, 1.0]]))


def test_rejects_nonzero_row_sums():
    with pytest.raises(InvalidLaplacianError):
        block_decompose(np.array([[2.0, -1.0], [-1.0, 1.0]]))


def _non_finite_laplacians():
    lap = laplacian(ring_graph(3))
    one_nan, one_inf, minus_inf = lap.copy(), lap.copy(), lap.copy()
    one_nan[0, 1] = np.nan
    one_inf[2, 2] = np.inf
    minus_inf[1, 0] = minus_inf[0, 1] = -np.inf
    return {"nan": one_nan, "inf": one_inf, "-inf": minus_inf, "all-inf": np.full((3, 3), np.inf)}


@pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "all-inf"])
def test_rejects_non_finite_entries(kind):
    # NaN fails the symmetry and row-sum comparisons without a word, and
    # inf - inf is NaN: both are refused before those checks, with no warning.
    bad = _non_finite_laplacians()[kind]
    blocks = block_decompose(laplacian(ring_graph(3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidLaplacianError, match="non-finite"):
            block_decompose(bad)
        with pytest.raises(InvalidLaplacianError, match="non-finite"):
            similarity_transform(blocks, bad)


def test_identity_residuals_ring8():
    blocks = block_decompose(laplacian(ring_graph(8)))
    report = verify_block_properties(blocks, n_state=2)
    assert set(report.residuals) == set(IDENTITY_NAMES)
    assert report.max_residual < 1e-10
    assert report.ok()
    # the Kronecker expansion by the state dimension changes no residual
    assert report.residuals == verify_block_properties(blocks, n_state=1).residuals
    with pytest.raises(DimensionError):
        verify_block_properties(blocks, n_state=0)


def test_identity_residuals_two_nodes():
    blocks = block_decompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert verify_block_properties(blocks).max_residual < 1e-14


def test_perturbed_blocks_fail_verification():
    blocks = block_decompose(laplacian(ring_graph(8)))
    bent = dataclasses.replace(blocks, r22=blocks.r22 + 1e-3)
    report = verify_block_properties(bent)
    assert report.max_residual > 1e-4
    assert not report.ok()


def test_similarity_transform_same_laplacian_is_identity():
    lap = laplacian(ring_graph(8))
    blocks = block_decompose(lap)
    t, s = similarity_transform(blocks, lap)
    np.testing.assert_allclose(t, np.eye(7), atol=1e-12)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(s)), blocks.eigenvalues[1:], atol=1e-10)


def test_similarity_transform_ring_to_star():
    blocks = block_decompose(laplacian(ring_graph(8)))
    t, s = similarity_transform(blocks, laplacian(star_graph(8)))
    np.testing.assert_allclose(t @ t.T, np.eye(7), atol=1e-9)
    # star on 8 nodes: one eigenvalue 8, six eigenvalues 1 (plus the zero)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(s)), [1, 1, 1, 1, 1, 1, 8], atol=1e-9)


def test_similarity_transform_dimension_mismatch():
    blocks = block_decompose(laplacian(ring_graph(8)))
    with pytest.raises(DimensionError):
        similarity_transform(blocks, laplacian(ring_graph(6)))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
def test_similarity_transform_properties(n, seed):
    rng = np.random.default_rng(seed)
    first = laplacian(random_connected_graph(rng, n))
    second = laplacian(random_connected_graph(rng, n))
    blocks = block_decompose(first)
    t, s = similarity_transform(blocks, second)
    assert np.linalg.norm(s - s.T) < 1e-10
    assert np.linalg.norm(t @ t.T - np.eye(n - 1)) < 1e-9
    # in the first basis the second Laplacian is blockdiag(0, s)
    embedded = np.zeros((n, n))
    embedded[1:, 1:] = s
    conjugated = blocks.r_inverse @ second @ blocks.r_matrix
    assert np.abs(conjugated - embedded).max() < 1e-9
    # spectrum preserved
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(s)),
        np.sort(np.linalg.eigvalsh(second))[1:],
        atol=1e-8,
    )


# ---------------------------------------------------------------------------
# Transformed node dynamics
# ---------------------------------------------------------------------------


def test_psi11_of_demo_network(demo8):
    blocks = block_decompose(laplacian(demo8.layer_i))
    pb = psi_blocks(demo8.effective_a(), blocks)
    np.testing.assert_allclose(
        pb.psi11, [[-0.1875, 0.625], [-0.625, -0.1875]], atol=1e-15
    )


def test_homogeneous_dynamics_have_no_cross_blocks():
    a = np.array([[-1.0, 0.5], [0.0, -2.0]])
    blocks = block_decompose(laplacian(ring_graph(5)))
    pb = psi_blocks([a] * 5, blocks)
    assert np.abs(pb.p1).max() == 0.0
    assert np.abs(pb.p2).max() == 0.0
    assert np.abs(pb.psi12).max() == 0.0
    assert np.abs(pb.psi21).max() == 0.0
    np.testing.assert_allclose(pb.psi11, a)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 6),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_psi_blocks_match_direct_congruence(n, dim, seed):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((dim, dim)) for _ in range(n)]
    blocks = block_decompose(laplacian(random_connected_graph(rng, n)))
    pb = psi_blocks(mats, blocks)

    stacked = np.zeros((n * dim, n * dim))
    for k, a in enumerate(mats):
        stacked[k * dim:(k + 1) * dim, k * dim:(k + 1) * dim] = a
    eye = np.eye(dim)
    direct = np.kron(blocks.r_inverse, eye) @ stacked @ np.kron(blocks.r_matrix, eye)
    assert np.abs(pb.assembled() - direct).max() < 1e-9


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kron_eye_matches_np_kron_in_value_and_memory_order(dim):
    rng = np.random.default_rng(dim)
    for mat in (rng.standard_normal((4, 5)), rng.standard_normal((5, 4)).T, rng.standard_normal((3, 5, 5))[:, 1:, 1:]):
        want, got = np.kron(mat, np.eye(dim)), kron_eye(mat, dim)
        np.testing.assert_array_equal(got, want)
        assert got.strides == want.strides


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_symmetrised_psi_peak_matches_worst_node(n, dim, seed):
    # lambda_max of Psi + Psi^T equals the worst node's expansion rate
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((dim, dim)) for _ in range(n)]
    blocks = block_decompose(laplacian(random_connected_graph(rng, n)))
    psi = psi_blocks(mats, blocks).assembled()
    lhs = np.linalg.eigvalsh(psi + psi.T)[-1]
    rho = max(np.linalg.eigvalsh(a + a.T)[-1] for a in mats)
    assert lhs == pytest.approx(rho, abs=1e-9)


def test_psi_blocks_dimension_mismatch():
    blocks = block_decompose(laplacian(ring_graph(3)))
    with pytest.raises(DimensionError):
        psi_blocks([np.eye(2), np.eye(2), np.eye(3)], blocks)
    with pytest.raises(DimensionError):
        psi_blocks([np.eye(2), np.eye(2)], blocks)
