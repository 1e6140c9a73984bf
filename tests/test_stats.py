import math
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_equal
from scipy.spatial.distance import cdist  # the reference distances

from conelab import _stats
from conelab.errors import ValidationError

from conftest import ks_distance_to_uniform


def distance_correlation(x: np.ndarray, y: np.ndarray) -> float:
    a, b = _stats.centered_distance_matrices(np.atleast_2d(x), np.atleast_2d(y))
    return _stats.dcor_from_centered(a, b)


def energy_statistic(dist: np.ndarray, idx_a: np.ndarray, idx_b: np.ndarray, row_sums=None) -> float:
    """Two-sample energy statistic from a pooled distance matrix."""
    if row_sums is None:
        row_sums = dist.sum(axis=1)
    na, nb = len(idx_a), len(idx_b)
    s_aa = dist[np.ix_(idx_a, idx_a)].sum()
    r_a = row_sums[idx_a].sum()
    return float(_stats._energy_from_sums(s_aa, r_a, row_sums.sum(), na, nb))


def naive_distance_correlation(x, y):
    """Direct V-statistic implementation used as an oracle."""
    n = len(x)
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            a[i, j] = np.linalg.norm(x[i] - x[j])
            b[i, j] = np.linalg.norm(y[i] - y[j])
    A = a - a.mean(0) - a.mean(1)[:, None] + a.mean()
    B = b - b.mean(0) - b.mean(1)[:, None] + b.mean()
    dcov2 = (A * B).mean()
    dvarx = (A * A).mean()
    dvary = (B * B).mean()
    return np.sqrt(max(dcov2, 0.0) / np.sqrt(dvarx * dvary))


def test_distance_correlation_against_naive(rng):
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal((40, 2))
    got = distance_correlation(x, y)
    assert got == pytest.approx(naive_distance_correlation(x, y), abs=1e-12)


def test_distance_correlation_detects_dependence(rng):
    x = rng.standard_normal((300, 1))
    noise = 0.1 * rng.standard_normal((300, 1))
    y = x**2 + noise
    dep = distance_correlation(x, y)
    indep = distance_correlation(x, rng.standard_normal((300, 1)))
    assert dep > 0.3
    assert indep < 0.2


def test_dcor_permutation_test_levels(rng):
    x = rng.standard_normal((300, 2))
    y = rng.standard_normal((300, 2))
    stat, p, used = _stats.dcor_permutation_test(x, y, 99, rng, max_points=200)
    assert used == 200
    assert p > 0.01
    y_dep = x + 0.05 * rng.standard_normal((300, 2))
    stat, p_dep, _ = _stats.dcor_permutation_test(x, y_dep, 99, rng, max_points=200)
    assert p_dep == pytest.approx(0.01, abs=1e-12)  # the add-one floor at 99 permutations


@pytest.mark.parametrize("dim", [1, 3, 4, 9, 36])
@pytest.mark.parametrize("m", [1, 2, 64, 129, 300])
@pytest.mark.parametrize("rows", [None, 1, 7, 64])
def test_distance_matrix_is_cdist_bit_for_bit(monkeypatch, dim, m, rows):
    """Equal to scipy's cdist in every bit, on one row and with blocks of 1, 7, 64
    and the default number of rows (ragged last blocks included), for the mirrored
    x-against-x form and the x-against-y form."""
    if rows is not None:
        monkeypatch.setattr(_stats, "_DISTANCE_BLOCK", rows * m)
    rng = np.random.default_rng(10 * dim + m)
    x = rng.standard_normal((m, dim)) * rng.uniform(0.1, 10.0, size=dim)
    y = rng.standard_normal((m + 3, dim))
    assert np.array_equal(_stats.distance_matrix(x), cdist(x, x))
    assert np.array_equal(_stats.distance_matrix(x, y), cdist(x, y))
    assert np.array_equal(_stats.distance_matrix(y, x), cdist(y, x))


def test_distance_matrix_rejects_rows_of_different_widths():
    with pytest.raises(ValidationError, match="width"):
        _stats.distance_matrix(np.ones((3, 2)), np.ones((4, 3)))


def test_distance_matrix_with_duplicate_rows():
    """Repeated rows give exact zeros off the diagonal and equal rows, as cdist does."""
    rng = np.random.default_rng(5)
    base = rng.standard_normal((40, 4))
    x = base[rng.integers(0, 40, size=300)]
    got = _stats.distance_matrix(x)
    assert np.array_equal(got, cdist(x, x))
    assert np.array_equal(got, got.T)
    same = (x[:, None, :] == x[None, :, :]).all(axis=2)
    assert np.all(got[same] == 0.0) and np.all(got[~same] > 0.0)


def test_energy_statistic_matches_blocks(rng):
    a = rng.standard_normal((20, 3))
    b = rng.standard_normal((30, 3)) + 1.0
    pool = np.vstack([a, b])
    d = cdist(pool, pool)
    idx_a = np.arange(20)
    idx_b = np.arange(20, 50)
    got = energy_statistic(d, idx_a, idx_b)
    want = (
        2.0 * cdist(a, b).mean()
        - cdist(a, a).mean()
        - cdist(b, b).mean()
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_energy_permutation_test_direction(rng):
    same1 = rng.standard_normal((400, 2))
    same2 = rng.standard_normal((400, 2))
    stat, p, _ = _stats.energy_permutation_test(same1, same2, 99, rng, max_points=300)
    assert p > 0.01
    shifted = rng.standard_normal((400, 2)) + 0.6
    stat, p_shift, _ = _stats.energy_permutation_test(same1, shifted, 99, rng, max_points=300)
    assert p_shift == pytest.approx(0.01, abs=1e-12)


def test_whiten_output_is_isotropic(rng):
    x = rng.standard_normal((500, 3)) @ np.array([[2.0, 0, 0], [0.5, 1.0, 0], [0, 0, 0.1]])
    z = _stats.whiten(x)
    cov = z.T @ z / (len(z) - 1)
    assert_allclose(cov, np.eye(3), atol=0.15)
    assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)


def test_ks_distance_to_uniform():
    grid = (np.arange(1000) + 0.5) / 1000.0
    assert ks_distance_to_uniform(grid) < 0.002
    clustered = np.full(100, 0.5)
    assert ks_distance_to_uniform(clustered) == pytest.approx(0.5, abs=0.01)


def test_subsample_deterministic():
    rng1 = np.random.default_rng(0)
    rng2 = np.random.default_rng(0)
    idx1 = _stats.subsample_rows(1000, 100, rng1)
    idx2 = _stats.subsample_rows(1000, 100, rng2)
    assert_allclose(idx1, idx2)
    assert len(np.unique(idx1)) == 100


# Reference permutation loops with direct np.ix_ gathers.  The kernels in
# _stats must give the same (stat, p, n_used) and leave the generator in the
# same state.


def reference_dcor_permutation_test(x, y, n_perm, rng, max_points=1280):
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    keep = _stats.subsample_rows(len(x), max_points, rng)
    a, b = _stats.centered_distance_matrices(x[keep], y[keep])
    observed = _stats.dcor_from_centered(a, b)
    m = a.shape[0]
    exceed = 0
    for _ in range(n_perm):
        perm = rng.permutation(m)
        if _stats.dcor_from_centered(a, b[np.ix_(perm, perm)]) >= observed:
            exceed += 1
    return float(observed), float((1.0 + exceed) / (1.0 + n_perm)), int(m)


def reference_energy_permutation_test(a, b, n_perm, rng, max_points=768):
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    keep_a = _stats.subsample_rows(len(a), max_points, rng)
    keep_b = _stats.subsample_rows(len(b), max_points, rng)
    pool = np.vstack([a[keep_a], b[keep_b]])
    na = len(keep_a)
    dist = cdist(pool, pool)
    row_sums = dist.sum(axis=1)
    labels = np.arange(len(pool))
    observed = energy_statistic(dist, labels[:na], labels[na:], row_sums)
    exceed = 0
    for _ in range(n_perm):
        perm = rng.permutation(len(pool))
        if energy_statistic(dist, perm[:na], perm[na:], row_sums) >= observed:
            exceed += 1
    return float(observed), float((1.0 + exceed) / (1.0 + n_perm)), int(min(na, len(keep_b)))


def assert_same_test(kernel, reference, seed, data, n_perm, max_points):
    rng_new = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    got = kernel(*data, n_perm, rng_new, max_points=max_points)
    want = reference(*data, n_perm, rng_ref, max_points=max_points)
    assert got == want
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n, max_points", [(150, 120), (90, 120)])
def test_dcor_kernel_matches_reference(seed, n, max_points):
    data_rng = np.random.default_rng(100 + seed)
    x = data_rng.standard_normal((n, 2))
    # weak dependence, so p-values land away from both ends
    y = 0.15 * x + data_rng.standard_normal((n, 2))
    assert_same_test(
        _stats.dcor_permutation_test, reference_dcor_permutation_test,
        seed, (x, y), 49, max_points,
    )


def banded_float64_dcor_permutation_test(x, y, n_perm, rng, max_points=1280):
    """The kernel that scored every permutation in float64 on 64-row bands of the
    folded a, each band reduced to one sum, the bands added in order."""
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    keep = _stats.subsample_rows(len(x), max_points, rng)
    a, b = _stats.centered_distance_matrices(x[keep], y[keep])
    observed = _stats.dcor_from_centered(a, b)
    m = a.shape[0]
    bands = []
    for lo in range(0, m, 64):
        band = a[lo : lo + 64, lo:].copy()
        band[:, 64:] *= 2.0
        bands.append(band)

    def covariance(perm):
        total = 0.0
        for lo, band in zip(range(0, m, 64), bands):
            rows = np.take(b, perm[lo : lo + 64], axis=0)
            total += float(np.einsum("ij,ij->", band, np.take(rows, perm[lo:], axis=1)))
        return max(total, 0.0)

    cov_obs = covariance(np.arange(m))
    exceed = sum(covariance(rng.permutation(m)) >= cov_obs for _ in range(n_perm))
    return float(observed), float((1.0 + exceed) / (1.0 + n_perm)), int(m)


# Sizes below, at and just above 64 rows (one band), at four full 64-row bands
# and just above them, where the bands widen to ceil(m / 4) rows.
SWEEP_SIZES = [5, 63, 64, 65, 130, 255, 256, 257, 301]


def sweep_case(index):
    """Data of case ``index``: dims 2 to 9, independent, weakly or strongly
    dependent, some with a constant coordinate or a constant sample, some
    subsampled."""
    rng = np.random.default_rng(3000 + index)
    m = SWEEP_SIZES[index % len(SWEEP_SIZES)]
    n = m + 15 * (index % 4 == 1)  # subsampled to m points
    dim_x, dim_y = 2 + index % 8, 2 + (index // 8) % 8
    x = rng.standard_normal((n, dim_x))
    coupling = (0.0, 0.1, 1.0)[(index // len(SWEEP_SIZES)) % 3]
    y = rng.standard_normal((n, dim_y)) + coupling * np.tanh(x @ rng.standard_normal((dim_x, dim_y)))
    if index % 5 == 2:
        x[:, -1] = 0.75
    if index % 37 == 11:
        y[:] = 1.5
    return (x, y), m


@pytest.mark.parametrize("index", range(216))
def test_dcor_kernel_matches_the_banded_float64_kernel(index):
    """The float32 screen, the wider bands and the row sums give the (stat, p,
    n_used) and the generator state of the 64-row float64 kernel."""
    data, m = sweep_case(index)
    assert_same_test(
        _stats.dcor_permutation_test, banded_float64_dcor_permutation_test,
        index, data, 29, m,
    )


@pytest.mark.parametrize("n_perm", [0, 1])
def test_dcor_kernel_matches_reference_perm_counts(n_perm):
    data_rng = np.random.default_rng(7)
    x = data_rng.standard_normal((80, 2))
    y = 0.1 * x + data_rng.standard_normal((80, 2))
    assert_same_test(
        _stats.dcor_permutation_test, reference_dcor_permutation_test,
        11, (x, y), n_perm, 64,
    )


def test_dcor_kernel_matches_reference_constant_sample():
    """A constant sample has zero distance variance: every permutation ties."""
    x = np.ones((60, 2))
    y = np.random.default_rng(4).standard_normal((60, 2))
    assert_same_test(
        _stats.dcor_permutation_test, reference_dcor_permutation_test,
        2, (x, y), 19, 100,
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("sizes, max_points", [((140, 90), 100), ((70, 110), 200)])
def test_energy_kernel_matches_reference(seed, sizes, max_points):
    """A subsampled and a whole group, and two whole groups; sizes differ."""
    data_rng = np.random.default_rng(200 + seed)
    a = data_rng.standard_normal((sizes[0], 2))
    b = data_rng.standard_normal((sizes[1], 2)) + 0.15
    assert_same_test(
        _stats.energy_permutation_test, reference_energy_permutation_test,
        seed, (a, b), 99, max_points,
    )


BLOCK = _stats._ENERGY_PERM_BLOCK


@pytest.mark.parametrize("n_perm", [0, 1, BLOCK - 1, BLOCK + 1])
def test_energy_kernel_matches_reference_perm_counts(n_perm):
    """One permutation, and counts that fill the first block or spill one over."""
    data_rng = np.random.default_rng(9)
    a = data_rng.standard_normal((60, 2))
    b = data_rng.standard_normal((45, 2)) + 0.2
    assert_same_test(
        _stats.energy_permutation_test, reference_energy_permutation_test,
        5, (a, b), n_perm, 100,
    )


@pytest.mark.parametrize("n_perm, passes", [(0, 1), (99, 1), (BLOCK - 1, 1), (BLOCK, 2), (2 * BLOCK, 3)])
def test_energy_kernel_computes_the_pooled_distances_once_per_block(monkeypatch, n_perm, passes):
    """The first indicator block shares the row-sum pass; each later block takes one more pass."""
    rows = []

    def counting(x, y=None, out=None, distance_matrix=_stats.distance_matrix):
        rows.append(len(x))
        return distance_matrix(x, y, out)

    monkeypatch.setattr(_stats, "distance_matrix", counting)
    data_rng = np.random.default_rng(13)
    a = data_rng.standard_normal((150, 2))
    b = data_rng.standard_normal((130, 2))
    _stats.energy_permutation_test(a, b, n_perm, np.random.default_rng(1), max_points=120)
    assert sum(rows) == passes * 240


@pytest.mark.parametrize("n_perm", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK])
def test_energy_indicator_blocks_are_bounded(n_perm):
    """Indicator blocks never exceed the fixed width, whatever n_perm is, and
    hold the identity labelling followed by the permutations in stream order."""
    n, na = 30, 12
    rng = np.random.default_rng(3)
    ref_rng = np.random.default_rng(3)
    blocks = []
    for z in _stats._energy_indicator_blocks(n, na, n_perm, rng):
        # permutations are drawn per block, as the blocks are consumed
        for _ in range(z.shape[1] - (not blocks)):
            ref_rng.permutation(n)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        blocks.append(z)
    assert all(z.shape[0] == n and 1 <= z.shape[1] <= BLOCK for z in blocks)
    z = np.hstack(blocks)
    assert z.shape == (n, n_perm + 1)
    assert np.array_equal(z.sum(axis=0), np.full(n_perm + 1, na))
    assert np.array_equal(np.flatnonzero(z[:, 0]), np.arange(na))
    ref_rng = np.random.default_rng(3)
    for j in range(1, n_perm + 1):
        want = np.sort(ref_rng.permutation(n)[:na])
        assert np.array_equal(np.flatnonzero(z[:, j]), want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# The dcor permutations are scored on a thread pool.  Every permutation's
# covariance is computed whole by one worker in a fixed band order, so the
# worker count changes neither the statistics nor the generator's stream.

PERM_BLOCK = _stats._DCOR_PERM_BLOCK
PERMUTED_COVARIANCE = _stats._permuted_covariance


def pooled_dcor_test(monkeypatch, workers, data, n_perm, max_points, seed=6):
    """Run the dcor test on ``workers`` threads, forced whatever the CPU count;
    returns (result, generator state, names of the threads that scored)."""
    monkeypatch.setattr(_stats, "_pool_workers", lambda: workers)
    names = set()

    def recording(bands, b, perm, scratch):
        names.add(threading.current_thread().name)
        return PERMUTED_COVARIANCE(bands, b, perm, scratch)

    monkeypatch.setattr(_stats, "_permuted_covariance", recording)
    rng = np.random.default_rng(seed)
    got = _stats.dcor_permutation_test(*data, n_perm, rng, max_points=max_points)
    return got, rng.bit_generator.state, names


@pytest.mark.parametrize("n_perm", [0, 1, PERM_BLOCK, 2 * PERM_BLOCK + 3])
def test_dcor_pool_matches_one_worker(monkeypatch, n_perm):
    """Equal (stat, p, n_used) and generator state with 1 and 3 workers, across blocks."""
    data_rng = np.random.default_rng(12)
    x = data_rng.standard_normal((150, 2))
    y = 0.15 * x + data_rng.standard_normal((150, 2))
    inline, inline_state, inline_names = pooled_dcor_test(monkeypatch, 1, (x, y), n_perm, 130)
    pooled, pooled_state, pooled_names = pooled_dcor_test(monkeypatch, 3, (x, y), n_perm, 130)
    assert pooled == inline
    assert pooled_state == inline_state
    assert inline_names == {threading.current_thread().name}
    if n_perm > 1:  # the permutations ran on the pool's threads
        assert any(name.startswith("conelab-dcor") for name in pooled_names)


def test_dcor_pool_matches_one_worker_on_a_constant_sample(monkeypatch):
    """Every permutation ties a constant sample's zero covariance, on any worker."""
    x = np.ones((60, 2))
    y = np.random.default_rng(4).standard_normal((60, 2))
    inline, inline_state, _ = pooled_dcor_test(monkeypatch, 1, (x, y), 19, 100)
    pooled, pooled_state, _ = pooled_dcor_test(monkeypatch, 3, (x, y), 19, 100)
    assert pooled == inline
    assert inline[1] == 1.0
    assert pooled_state == inline_state


def test_dcor_pool_leaves_no_thread_running(monkeypatch):
    x = np.random.default_rng(8).standard_normal((90, 2))
    before = threading.active_count()
    pooled_dcor_test(monkeypatch, 3, (x, x[::-1]), 2 * PERM_BLOCK + 1, 90)
    assert threading.active_count() == before


def test_dcor_with_one_worker_builds_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was built for one worker")

    monkeypatch.setattr(_stats, "ThreadPoolExecutor", no_pool)
    x = np.random.default_rng(8).standard_normal((70, 2))
    pooled_dcor_test(monkeypatch, 1, (x, x[::-1]), 9, 70)


def test_pool_workers_are_the_affinity_count():
    if hasattr(os, "sched_getaffinity"):
        assert _stats._pool_workers() == len(os.sched_getaffinity(0))
    else:
        assert _stats._pool_workers() == (os.cpu_count() or 1)


@pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
def test_pool_workers_without_an_affinity_call_are_the_cpu_count(monkeypatch, cpus, workers):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)  # None: the count is unknown
    assert _stats._pool_workers() == workers


@pytest.mark.parametrize("m, rows", [(1, 64), (64, 64), (256, 64), (257, 65), (600, 150), (1024, 256)])
def test_band_rows_are_a_quarter_of_the_points_and_at_least_64(m, rows):
    assert _stats._band_rows(m) == rows


def test_double_center_in_place_is_the_expression_bit_for_bit():
    dist = _stats.distance_matrix(np.random.default_rng(3).standard_normal((70, 3)))
    want = dist - dist.mean(axis=0, keepdims=True) - dist.mean(axis=1, keepdims=True) + dist.mean()
    got = _stats.double_center(dist)
    assert got is dist
    assert np.array_equal(got, want)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(m=st.integers(min_value=1, max_value=300), seed=st.integers(0, 2**32 - 1))
@example(m=63, seed=0)
@example(m=64, seed=1)
@example(m=133, seed=2)
@example(m=257, seed=3)
def test_permuted_covariance_matches_the_full_gather(m, seed):
    """On the folded a, the half-gather band sums equal sum(a * b[p][:, p]) of the
    unfolded a within 1e-12 of the sum of |terms| (the sum itself can cancel to
    near zero)."""
    rng = np.random.default_rng(seed)
    a, b = _stats.centered_distance_matrices(rng.standard_normal((m, 2)), rng.standard_normal((m, 3)))
    perm = rng.permutation(m)
    terms = a * b[np.ix_(perm, perm)]
    got = _stats._permuted_covariance(_stats._fold_upper_bands(a), b, perm, _stats._scratch(m))
    assert abs(got - terms.sum()) <= 1e-12 * max(np.abs(terms).sum(), 1e-300)


# Every permutation is scored first in float32 and re-scored in float64 when
# its float32 covariance lies within a rounding margin of the observed one.
# The screen may only save work: the results are those of the float64 path.


def scaled_data(seed, m, scale_x=1.0, scale_y=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, 3))
    y = 0.2 * x[:, :2] + rng.standard_normal((m, 2))
    return scale_x * x, scale_y * y


def counted_dcor_test(monkeypatch, data, n_perm, seed=5, max_points=1280, exact=False):
    """Run the dcor test, with the margin forced to inf when ``exact`` (every
    permutation re-scored in float64); returns (result, generator state, number
    of float32 and of float64 scores)."""
    if exact:
        monkeypatch.setattr(_stats, "_float32_margin", lambda *args: math.inf)
    counts = {"float32": 0, "float64": 0}

    def counting(bands, b, perm, scratch):
        counts[b.dtype.name] += 1
        return PERMUTED_COVARIANCE(bands, b, perm, scratch)

    monkeypatch.setattr(_stats, "_permuted_covariance", counting)
    rng = np.random.default_rng(seed)
    got = _stats.dcor_permutation_test(*data, n_perm, rng, max_points=max_points)
    monkeypatch.undo()
    return got, rng.bit_generator.state, counts


@pytest.mark.parametrize(
    "data",
    [
        scaled_data(0, 150),
        scaled_data(1, 300),
        (
            np.random.default_rng(2).standard_normal((90, 4)),
            np.random.default_rng(3).standard_normal((90, 1)),
        ),
        # a few points on a line: the identity and the reversal tie the observed covariance
        (np.random.default_rng(4).standard_normal((3, 2)), np.arange(3.0)[:, None]),
        (np.random.default_rng(5).standard_normal((5, 2)), np.arange(5.0)[:, None]),
    ],
    ids=["m150", "m300", "independent", "ties-m3", "ties-m5"],
)
def test_dcor_with_every_permutation_exact_equals_the_default(monkeypatch, data):
    n_perm = 199
    got, state, counts = counted_dcor_test(monkeypatch, data, n_perm)
    exact, exact_state, exact_counts = counted_dcor_test(monkeypatch, data, n_perm, exact=True)
    assert got == exact
    assert state == exact_state
    assert exact_counts == {"float32": n_perm, "float64": n_perm + 1}
    # the screen decided most permutations; the observed covariance is float64
    assert counts["float32"] == n_perm
    assert 1 <= counts["float64"] <= 1 + n_perm // 2


def test_dcor_ties_through_the_screen_count_as_exceedances(monkeypatch):
    """On three points of a line, the identity and the reversal keep b; both tie."""
    x = np.random.default_rng(4).standard_normal((3, 2))
    y = np.arange(3.0)[:, None]
    got, _, counts = counted_dcor_test(monkeypatch, (x, y), 199)
    rng = np.random.default_rng(5)
    ties = sum(
        np.array_equal(p, [0, 1, 2]) or np.array_equal(p, [2, 1, 0])
        for p in (rng.permutation(3) for _ in range(199))
    )
    assert ties > 0
    assert got[1] >= (1.0 + ties) / 200.0
    assert counts["float64"] >= 1 + ties


def test_dcor_screen_clips_negative_covariances_as_the_ranking_does(monkeypatch):
    """With every covariance negated, the observed one clips to 0 and every
    permutation ties it, also those whose float32 score lies far below 0."""
    monkeypatch.setattr(
        _stats, "_permuted_covariance", lambda *args: -abs(PERMUTED_COVARIANCE(*args))
    )
    got = _stats.dcor_permutation_test(*scaled_data(8, 100), 49, np.random.default_rng(1))
    assert got[1] == 1.0


@pytest.mark.parametrize(
    "scale_x, scale_y, screened",
    [
        (1e30, 1.0, True),
        (1e-30, 1.0, True),
        (1.0, 1e30, True),
        (1e30, 1e-30, True),
        (1e150, 1.0, True),
        (1.0, 1e-150, True),
        (1e150, 1e-150, True),
        # the scales' product nears the ends of float64's range
        (1e150, 1e150, False),
        (1e-150, 1e-150, False),
        # squared differences overflow (NaN after centring) or underflow (zero distances)
        (1e200, 1.0, False),
        (1e-200, 1.0, False),
        (1.0, 1e200, False),
        (1.0, 1e-200, False),
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing scales
def test_dcor_on_scaled_inputs_gives_the_float64_result(monkeypatch, scale_x, scale_y, screened):
    """Scaled inputs give the float64 path's result, with the screen used or not."""
    data = scaled_data(6, 120, scale_x, scale_y)
    got, state, counts = counted_dcor_test(monkeypatch, data, 99)
    exact, exact_state, _ = counted_dcor_test(monkeypatch, data, 99, exact=True)
    assert_equal(got, exact)
    assert state == exact_state
    assert (counts["float32"] > 0) == screened


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("where", ["x", "y"])
def test_dcor_with_a_nan_gives_the_float64_result(monkeypatch, where):
    x, y = scaled_data(7, 80)
    (x if where == "x" else y)[5, 1] = np.nan
    got, state, counts = counted_dcor_test(monkeypatch, (x, y), 49)
    exact, exact_state, _ = counted_dcor_test(monkeypatch, (x, y), 49, exact=True)
    assert_equal(got, exact)
    assert state == exact_state
    assert counts["float32"] == 0


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    m=st.integers(min_value=1, max_value=300),
    seed=st.integers(0, 2**32 - 1),
    exp_x=st.sampled_from([-150, -30, 0, 30, 150]),
    exp_y=st.sampled_from([-30, 0, 30]),
)
@example(m=2, seed=0, exp_x=0, exp_y=0)
@example(m=257, seed=1, exp_x=150, exp_y=-30)
@example(m=300, seed=2, exp_x=-150, exp_y=30)
def test_float32_score_is_within_the_margin_of_the_float64_score(m, seed, exp_x, exp_y):
    """|s32 - s64| <= margin, in the scaled units of the float32 copies."""
    rng = np.random.default_rng(seed)
    a, b = _stats.centered_distance_matrices(
        10.0**exp_x * rng.standard_normal((m, 2)), 10.0**exp_y * rng.standard_normal((m, 3))
    )
    bands = _stats._fold_upper_bands(a)
    screen = _stats._float32_screen(bands, b)
    if m == 1:  # one point: a and b are zero
        assert screen is None
        return
    bands32, b32, margin, exponent = screen
    scratch = _stats._scratch(m)
    for perm in [np.arange(m)] + [rng.permutation(m) for _ in range(5)]:
        s32 = _stats._permuted_covariance(bands32, b32, perm, scratch)
        s64 = _stats._permuted_covariance(bands, b, perm, scratch)
        assert abs(s32 - math.ldexp(s64, -exponent)) <= margin
