import math

import numpy as np
import pytest

from mpxpi import kernels, power


@pytest.fixture
def stable_system():
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((6, 6))
    mat -= (np.abs(np.linalg.eigvals(mat).real).max() + 0.5) * np.eye(6)
    return mat, rng.standard_normal(6), rng.standard_normal(6)


def _rk4_stage_loop(mat, forcing, y0, dt, n_steps, stride):
    # Reference: the four RK4 stages per step, checked at every recorded sample.
    out = [y0.copy()]
    y = y0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            k1 = mat @ y + forcing
            k2 = mat @ (y + (0.5 * dt) * k1) + forcing
            k3 = mat @ (y + (0.5 * dt) * k2) + forcing
            k4 = mat @ (y + dt * k3) + forcing
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if step % stride == 0:
                out.append(y)
                peak = np.abs(y).max()
                if not np.isfinite(peak) or peak > kernels.DIVERGENCE_LIMIT:
                    return np.array(out), True
    return np.array(out), False


def _assert_matches_stage_loop(mat, forcing, y0, dt, n_steps, stride):
    want, want_diverged = _rk4_stage_loop(mat, forcing, y0, dt, n_steps, stride)
    got, diverged = kernels.integrate_lti(mat, forcing, y0, dt, n_steps, stride)
    assert diverged == want_diverged
    assert got.shape == want.shape
    finite = want[np.isfinite(want)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(finite).max())
    return got, diverged


@pytest.mark.parametrize("stride", [1, 10, 2000])
def test_step_map_matches_stage_loop(stable_system, stride):
    mat, forcing, y0 = stable_system
    got, diverged = _assert_matches_stage_loop(mat, forcing, y0, 1e-3, 2000, stride)
    assert not diverged
    assert got.shape == (2000 // stride + 1, 6)


@pytest.mark.parametrize(
    ("rate", "dt", "n_steps", "stride", "rows"),
    [
        # y' = 10 y at dt = 0.1 grows by 2.708 per step and passes 1e12 at step 28
        (10.0, 0.1, 100, 1, 29),
        (10.0, 0.1, 100, 5, 7),
        # y' = 0.02 y at dt = 1 passes 1e12 at step 1382, past the first
        # batch of divergence checks
        (0.02, 1.0, 2000, 1, 1383),
    ],
)
def test_step_map_truncates_where_stage_loop_does(rate, dt, n_steps, stride, rows):
    got, diverged = _assert_matches_stage_loop(
        np.array([[rate]]), np.zeros(1), np.ones(1), dt, n_steps, stride
    )
    assert diverged
    assert got.shape == (rows, 1)


BLOCK = kernels._BLOCK


def _block_size(n_samples):
    # the sizing rule: ceil(sqrt(S)) recorded samples per block, at most BLOCK
    return min(BLOCK, math.ceil(math.sqrt(n_samples)))


def _spy_power_table(monkeypatch):
    counts = []
    build = kernels._power_table
    monkeypatch.setattr(
        kernels, "_power_table", lambda step, count: counts.append(count) or build(step, count)
    )
    return counts


@pytest.mark.parametrize(
    "n_samples", [1, 2, 3, 4, 5, 63, 64, 65, 500, 4001, 127**2, 127**2 + 1, BLOCK**2, 50000]
)
def test_block_size_follows_sample_count(monkeypatch, n_samples):
    counts = _spy_power_table(monkeypatch)
    kernels.integrate_lti(np.array([[-1.0]]), np.ones(1), np.ones(1), 1e-3, 3 * n_samples, 3)
    assert counts == [_block_size(n_samples)]


@pytest.mark.parametrize(
    ("n_steps", "stride"),
    [
        (3 * BLOCK + 1, 1),
        (2 * BLOCK - 1, 1),
        (BLOCK + 1, 1),
        (10 * (BLOCK + 5), 10),
        # one sample short of or past a block edge, at derived B = 10, 12 and BLOCK
        # (133 = 11 * 12 + 1 is the case above)
        (99, 1),
        (91, 1),
        (10 * 143, 10),
        (BLOCK**2 - 1, 1),
        (BLOCK**2 + 1, 1),
        (500, 1),
    ],
)
def test_sample_count_off_the_block_size(stable_system, n_steps, stride):
    mat, forcing, y0 = stable_system
    got, diverged = _assert_matches_stage_loop(mat, forcing, y0, 1e-3, n_steps, stride)
    assert not diverged
    assert got.shape == (n_steps // stride + 1, 6)


def test_power_demo_shape_matches_stage_loop():
    # 4001 samples at stride 100, the shape of the power demo's segments:
    # blocks of 64 from the 100-step map. A 1-state system, so that the
    # 400100-step stage loop can run on Python floats.
    rate, force, y, dt, stride = -0.3, 0.7, 2.0, 1e-3, 100
    want = [y]
    for step in range(1, 4001 * stride + 1):
        k1 = rate * y + force
        k2 = rate * (y + (0.5 * dt) * k1) + force
        k3 = rate * (y + (0.5 * dt) * k2) + force
        k4 = rate * (y + dt * k3) + force
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % stride == 0:
            want.append(y)
    assert _block_size(len(want) - 1) == 64
    got, diverged = kernels.integrate_lti(
        np.array([[rate]]), np.array([force]), np.array([2.0]), dt, 4001 * stride, stride
    )
    assert not diverged
    np.testing.assert_allclose(got[:, 0], want, rtol=0, atol=1e-12 * max(map(abs, want)))


@pytest.mark.parametrize(
    "first_bad",
    # the last sample of the first and second blocks, the first of the second and third
    [BLOCK, 2 * BLOCK, BLOCK + 1, 2 * BLOCK + 1],
)
def test_divergence_at_a_block_edge(first_bad):
    # BLOCK**2 samples are stepped in blocks of BLOCK
    assert _block_size(BLOCK**2) == BLOCK
    _assert_diverges_at(first_bad, BLOCK**2)


@pytest.mark.parametrize(("n_steps", "first_bad"), [(100, 10), (100, 11), (100, 20), (500, 23), (500, 24)])
def test_divergence_at_a_derived_block_edge(n_steps, first_bad):
    # the last or the first sample of a block of ceil(sqrt(S)) < BLOCK samples
    assert first_bad % _block_size(n_steps) in (0, 1)
    _assert_diverges_at(first_bad, n_steps)


def _assert_diverges_at(first_bad, n_steps):
    # y' = y at dt = 0.1 grows by g per step; starting at 1e12 / g**(first_bad - 0.5)
    # the state first passes 1e12 at sample first_bad, half a step clear of it
    dt = 0.1
    growth = 1.0 + dt + dt**2 / 2.0 + dt**3 / 6.0 + dt**4 / 24.0
    y0 = np.array([kernels.DIVERGENCE_LIMIT / growth ** (first_bad - 0.5)])
    got, diverged = _assert_matches_stage_loop(np.array([[1.0]]), np.zeros(1), y0, dt, n_steps, 1)
    assert diverged
    assert got.shape == (first_bad + 1, 1)


@pytest.mark.parametrize(("n_steps", "stride"), [(1, 1), (2000, 2000)])
def test_one_recorded_sample_builds_no_power_table(stable_system, monkeypatch, n_steps, stride):
    # The endpoint-only pattern: one block of one sample, from the stride map
    # alone, with no np.linalg.matrix_power.
    counts = _spy_power_table(monkeypatch)

    def no_matrix_power(*args, **kwargs):
        raise AssertionError("matrix_power called")

    monkeypatch.setattr(np.linalg, "matrix_power", no_matrix_power)
    mat, forcing, y0 = stable_system
    got, diverged = _assert_matches_stage_loop(mat, forcing, y0, 1e-3, n_steps, stride)
    assert not diverged
    assert got.shape == (2, 6)
    assert counts == [1]


@pytest.mark.parametrize("stride", [100, 1000])
def test_overflowing_step_map_is_flagged(grid16, stride):
    # dt = 1e-2 is far past RK4's limit on the controlled grid: the powered
    # map overflows and the first sample is already non-finite
    mat, forcing = power._grid_matrices(grid16, True, grid16.injection)
    y0 = np.concatenate([np.full(16, 60.0), np.zeros(16)])
    got, diverged = _assert_matches_stage_loop(mat, forcing, y0, 1e-2, 1000, stride)
    assert diverged
    assert got.shape == (2, 32)
    assert not np.isfinite(got[-1]).all()


def test_exact_scalar_decay():
    # y' = -y from 1: RK4 at h=1e-3 reproduces exp(-1) to ~1e-13
    mat = np.array([[-1.0]])
    samples, diverged = kernels.integrate_lti(mat, np.zeros(1), np.ones(1), 1e-3, 1000, 1000)
    assert not diverged
    assert samples[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-13)


def test_affine_fixed_point():
    # y' = -(y - 2): forcing balances at y = 2
    mat = np.array([[-1.0]])
    samples, _ = kernels.integrate_lti(mat, np.array([2.0]), np.array([5.0]), 1e-2, 3000, 3000)
    assert samples[-1, 0] == pytest.approx(2.0, abs=1e-10)


def test_recording_stride(stable_system):
    mat, forcing, y0 = stable_system
    full, _ = kernels.integrate_lti(mat, forcing, y0, 1e-3, 100, 1)
    thin, _ = kernels.integrate_lti(mat, forcing, y0, 1e-3, 100, 20)
    assert full.shape == (101, 6)
    assert thin.shape == (6, 6)
    np.testing.assert_allclose(thin, full[::20], rtol=0, atol=1e-13 * np.abs(full).max())


def test_divergence_truncates():
    mat = np.array([[10.0]])
    samples, diverged = kernels.integrate_lti(mat, np.zeros(1), np.ones(1), 0.1, 100, 1)
    assert diverged
    assert samples.shape[0] < 101


def test_preserves_linear_invariant():
    # rows of the bottom block sum to zero -> sum of those states conserved
    rng = np.random.default_rng(4)
    top = rng.standard_normal((3, 6))
    bottom = rng.standard_normal((3, 6))
    bottom[2] = -(bottom[0] + bottom[1])
    mat = np.vstack([top, bottom])
    y0 = rng.standard_normal(6)
    y0[3:] -= y0[3:].mean()
    forcing = np.concatenate([rng.standard_normal(3), np.zeros(3)])
    samples, _ = kernels.integrate_lti(mat, forcing, y0, 1e-3, 500, 1)
    assert np.abs(samples[:, 3:].sum(axis=1) - y0[3:].sum()).max() < 1e-12


def test_argument_validation(stable_system):
    mat, forcing, y0 = stable_system
    with pytest.raises(ValueError):
        kernels.integrate_lti(mat, forcing, y0, -1e-3, 100, 1)
    with pytest.raises(ValueError):
        kernels.integrate_lti(mat, forcing, y0, 1e-3, 0, 1)
    with pytest.raises(ValueError):
        kernels.integrate_lti(mat, forcing, y0, 1e-3, 100, 7)
    with pytest.raises(ValueError):
        kernels.integrate_lti(mat, forcing, y0[:3], 1e-3, 100, 1)
