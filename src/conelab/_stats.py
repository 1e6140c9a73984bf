"""Distance correlation, energy distance and permutation machinery.

Internal helpers for the independence harness.  Statistics are computed on
explicit distance matrices (the biased V-statistic form), so every
permutation of the null reuses the matrices built once per test.  Each
permutation still costs O(m^2) memory traffic, which the ``max_points``
caps bound.

Two kernels keep that traffic small:

* distance correlation (Szekely, Rizzo & Bakirov 2007): the two distance
  variances do not change under a permutation of one sample, so a permuted
  statistic exceeds the observed one exactly when its distance covariance
  ``sum(a * b[p][:, p])`` does.  The permuted matrix is gathered a band of
  rows at a time and each band is reduced with ``einsum``, so no ``m x m``
  temporary is built per permutation.  Both matrices are symmetric (up to
  the rounding of the centring), so once the observed statistic is computed
  ``a`` is kept as its bands right of the diagonal, with the blocks right
  of each diagonal block doubled (exact in floating point), and band ``lo``
  gathers only the columns ``p[lo:]``: half the gather and half the
  reduction of the full sum.  The identity permutation goes through the
  same folded sum, so the ranking stays exact.
  The permutations are scored on a
  thread pool that lives for one call, with one worker per CPU the process
  may run on (one worker runs inline).
  Gathers and reductions release the GIL.  ``einsum`` never calls BLAS,
  whose own threads would fight the pool's (``np.vdot`` is OpenBLAS
  ``ddot``, threaded above about 10 000 elements), and one worker computes a
  whole permutation in a fixed band order, so every statistic has the same
  bits whatever the worker count or the BLAS thread count.
* two-sample energy test (Szekely & Rizzo 2004): the group-A labels of a
  block of permutations are the 0/1 columns of an indicator matrix ``Z``;
  ``colsum(Z * (D @ Z))`` gives every within-A distance sum of the block
  through matrix products.  The pooled distance matrix ``D`` is computed a
  band of rows at a time and never held whole, and blocks have a fixed
  width, so memory does not grow with the sample or the permutation count.
  The first block is drawn before the bands are computed, so one pass over
  ``D`` gives the row sums, the within-A block of the observed labelling
  and ``D @ Z``; only blocks after the first recompute the bands.

Both tests draw their permutations one at a time with
``rng.permutation``, in the same order as a plain loop and in blocks of a
fixed width, so the generator ends in the same state, memory does not grow
with the permutation count, and the add-one p-values are those of the direct
computation.  The observed statistic goes through the same arithmetic as
the permuted ones, so a permutation that leaves the statistic unchanged
always counts as an exceedance.

Distances come from :func:`distance_matrix`, which adds the squared
coordinate differences in coordinate order, as ``scipy.spatial.distance.cdist``
does, so its matrices are bit-identical to ``cdist``'s; this module needs
numpy alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ValidationError


def whiten(points: np.ndarray) -> np.ndarray:
    """Center and decorrelate rows; degenerate directions are left centered."""
    centered = points - points.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(len(centered) - 1, 1)
    vals, vecs = np.linalg.eigh(cov)
    floor = 1e-12 * max(float(vals.max()), 1e-30)
    inv_sqrt = np.where(vals > floor, 1.0 / np.sqrt(np.maximum(vals, floor)), 0.0)
    return centered @ (vecs * inv_sqrt) @ vecs.T


# Elements of a distance-matrix block computed at a time: the block and its
# difference buffer (32768 doubles, 256 kB each) stay in cache.
_DISTANCE_BLOCK = 1 << 15


def _distance_block(x: np.ndarray, y_cols: np.ndarray, out: np.ndarray, diff: np.ndarray) -> None:
    """Write into ``out`` the distances between the rows of x and the columns of
    ``y_cols`` (one row per coordinate), the squared differences added in coordinate order."""
    np.subtract.outer(x[:, 0], y_cols[0], out=out)
    out *= out
    for k in range(1, x.shape[1]):
        np.subtract.outer(x[:, k], y_cols[k], out=diff)
        diff *= diff
        out += diff
    np.sqrt(out, out=out)


def distance_matrix(x: np.ndarray, y=None, out=None) -> np.ndarray:
    """Euclidean distances between the rows of x and of y (y = x when omitted),
    bit-identical to ``scipy.spatial.distance.cdist``; written into ``out`` when given.

    Computed a block of rows at a time.  Without y only the blocks right of
    the diagonal are computed and mirrored, since (a - b)^2 equals (b - a)^2 exactly.
    """
    x = np.asarray(x, dtype=float)
    same = y is None
    y_cols = np.ascontiguousarray((x if same else np.asarray(y, dtype=float)).T)
    if y_cols.shape[0] != x.shape[1]:
        raise ValidationError(f"distances need rows of one width, got {x.shape[1]} and {y_cols.shape[0]}")
    n = y_cols.shape[1]
    out = np.empty((len(x), n)) if out is None else out
    rows = max(1, _DISTANCE_BLOCK // max(n, 1))
    diff = np.empty(rows * n)
    for lo in range(0, len(x), rows):
        hi = lo + rows
        first = lo if same else 0
        block = out[lo:hi, first:]
        _distance_block(x[lo:hi], y_cols[:, first:], block, diff[: block.size].reshape(block.shape))
        if same:
            out[hi:, lo:hi] = block[:, hi - lo :].T
    return out


def double_center(dist: np.ndarray) -> np.ndarray:
    row = dist.mean(axis=0, keepdims=True)
    col = dist.mean(axis=1, keepdims=True)
    return dist - row - col + dist.mean()


def centered_distance_matrices(x: np.ndarray, y: np.ndarray):
    return double_center(distance_matrix(x)), double_center(distance_matrix(y))


def dcor_from_centered(a: np.ndarray, b: np.ndarray) -> float:
    n2 = a.shape[0] ** 2
    cov_xy = (a * b).sum() / n2
    var_x = (a * a).sum() / n2
    var_y = (b * b).sum() / n2
    denom = np.sqrt(var_x * var_y)
    if denom <= 0:
        return 0.0
    return float(np.sqrt(max(cov_xy, 0.0) / denom))


def subsample_rows(n: int, max_points: int, rng: np.random.Generator) -> np.ndarray:
    if n <= max_points:
        return np.arange(n)
    return np.sort(rng.permutation(n)[:max_points])


# Rows of the permuted distance matrix gathered per step of the dcor kernel;
# a 64-row band of a 1024-point matrix (512 kB) stays in cache.  Narrower
# bands cost more Python steps per permutation, which the pool's threads
# then wait on (32 rows was 1.8x slower at 600 points on 2 threads).
_DCOR_ROW_BAND = 64
# Permutations drawn and handed to the pool at a time (64 x 1024 indices is
# 512 kB), so memory stays fixed whatever the permutation count.
_DCOR_PERM_BLOCK = 64


def _pool_workers() -> int:
    """One worker per CPU in the process's affinity set."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fold_upper_bands(a: np.ndarray) -> list:
    """Contiguous copies of the bands ``a[lo:lo + _DCOR_ROW_BAND, lo:]``, the blocks
    right of the diagonal block doubled.

    For symmetric a and b, ``_permuted_covariance(bands, b, perm)`` then equals
    ``sum(a * b[perm][:, perm])``.
    """
    bands = []
    for lo in range(0, len(a), _DCOR_ROW_BAND):
        band = a[lo : lo + _DCOR_ROW_BAND, lo:].copy()
        band[:, _DCOR_ROW_BAND:] *= 2.0
        bands.append(band)
    return bands


def _permuted_covariance(a_bands: list, b: np.ndarray, perm: np.ndarray) -> float:
    """The sums of ``a_bands[k] * b[perm[lo:hi]][:, perm[lo:]]``, in band order,
    with ``lo = k * _DCOR_ROW_BAND``: band ``lo`` gathers only the columns ``perm[lo:]``."""
    total = 0.0
    for lo, band in zip(range(0, len(perm), _DCOR_ROW_BAND), a_bands):
        rows = np.take(b, perm[lo : lo + _DCOR_ROW_BAND], axis=0)
        total += float(np.einsum("ij,ij->", band, np.take(rows, perm[lo:], axis=1)))
    return total


def _permutation_blocks(m: int, n_perm: int, rng: np.random.Generator):
    """Yield lists of at most _DCOR_PERM_BLOCK ``rng.permutation(m)``, in stream order."""
    for start in range(0, n_perm, _DCOR_PERM_BLOCK):
        yield [rng.permutation(m) for _ in range(min(_DCOR_PERM_BLOCK, n_perm - start))]


def _map_blocks(fn, blocks, workers: int):
    """Yield ``fn(item)`` for every item of every block, in order, on ``workers`` threads.

    The pool lives as long as the iteration, and a block is drawn only when
    the one before it is scored; with one worker the items run inline.
    """
    if workers == 1:
        for block in blocks:
            yield from map(fn, block)
        return
    with ThreadPoolExecutor(max_workers=workers, thread_name_prefix="conelab-dcor") as pool:
        for block in blocks:
            yield from pool.map(fn, block)


def dcor_permutation_test(
    x: np.ndarray,
    y: np.ndarray,
    n_perm: int,
    rng: np.random.Generator,
    max_points: int = 1280,
):
    """Permutation p-value for distance correlation; returns (stat, p, n_used).

    The p-value uses the add-one convention (1 + #{perm >= observed}) /
    (1 + n_perm), so it is never zero and is exact for exchangeable nulls.
    Permutations are ranked by distance covariance, which orders them as
    distance correlation does (the variances are permutation invariant).
    """
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    keep = subsample_rows(len(x), max_points, rng)
    a, b = centered_distance_matrices(x[keep], y[keep])
    observed = dcor_from_centered(a, b)
    m = a.shape[0]
    a = _fold_upper_bands(a)  # the full matrix is no longer needed

    def covariance(perm):
        # dcor clips a negative covariance to 0, so the ranking clips it too
        return max(_permuted_covariance(a, b, perm), 0.0)

    cov_obs = covariance(np.arange(m))
    workers = min(_pool_workers(), max(n_perm, 1))
    scores = _map_blocks(covariance, _permutation_blocks(m, n_perm, rng), workers)
    exceed = sum(score >= cov_obs for score in scores)
    p_value = (1.0 + exceed) / (1.0 + n_perm)
    return float(observed), float(p_value), int(m)


def _energy_from_sums(s_aa, r_a, total: float, na: int, nb: int):
    """Energy statistic from the within-A sum and the A row-sum total."""
    s_ab = r_a - s_aa
    s_bb = total + s_aa - 2.0 * r_a
    return 2.0 * s_ab / (na * nb) - s_aa / (na * na) - s_bb / (nb * nb)


# Permutations per indicator block of the energy kernel.  One block holds the
# usual 199 permutations and the identity, so the pooled distances are
# computed once per test; larger counts take more blocks, each of which
# recomputes them, and memory stays fixed.
_ENERGY_PERM_BLOCK = 256
# Rows of the pooled distance matrix computed at a time (128 x 2500 doubles
# is 2.5 MB), so the full N x N matrix is never held.
_ENERGY_ROW_BAND = 128


def _energy_indicator_blocks(n: int, na: int, n_perm: int, rng: np.random.Generator):
    """Yield (n, k) 0/1 matrices whose columns mark group A, k <= _ENERGY_PERM_BLOCK.

    Column 0 of the first block is the identity labelling (the first ``na``
    points); the other ``n_perm`` columns are ``rng.permutation(n)[:na]``,
    drawn one at a time in stream order as the blocks are consumed.
    """
    drawn = -1  # the identity labelling takes the first column
    while drawn < n_perm:
        width = min(_ENERGY_PERM_BLOCK, n_perm - drawn)
        z = np.zeros((n, width))
        for j in range(width):
            group_a = np.arange(na) if drawn < 0 else rng.permutation(n)[:na]
            z[group_a, j] = 1.0
            drawn += 1
        yield z


def _distance_row_bands(pool: np.ndarray):
    """Yield (first row, rows of ``distance_matrix(pool)``), _ENERGY_ROW_BAND rows at a
    time; each band is written over the one before."""
    band = np.empty((min(_ENERGY_ROW_BAND, len(pool)), len(pool)))
    for lo in range(0, len(pool), _ENERGY_ROW_BAND):
        rows = pool[lo : lo + _ENERGY_ROW_BAND]
        yield lo, distance_matrix(rows, pool, out=band[: len(rows)])


def energy_permutation_test(
    a: np.ndarray,
    b: np.ndarray,
    n_perm: int,
    rng: np.random.Generator,
    max_points: int = 768,
):
    """Permutation two-sample energy test; returns (stat, p, n_used_per_group).

    The p-value uses the add-one convention, as in `dcor_permutation_test`.
    """
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    keep_a = subsample_rows(len(a), max_points, rng)
    keep_b = subsample_rows(len(b), max_points, rng)
    pool = np.vstack([a[keep_a], b[keep_b]])
    na = len(keep_a)
    nb = len(pool) - na
    blocks = _energy_indicator_blocks(len(pool), na, n_perm, rng)
    first = next(blocks)
    # one pass gives the row sums, the within-A block and the first block's products
    row_sums = np.empty(len(pool))
    dist_aa = np.empty((na, na))
    dist_first = np.empty_like(first)
    for lo, band in _distance_row_bands(pool):
        row_sums[lo : lo + len(band)] = band.sum(axis=1)
        if lo < na:
            dist_aa[lo : lo + len(band)] = band[: na - lo, :na]
        dist_first[lo : lo + len(band)] = band @ first
    total = row_sums.sum()
    # the sums a direct computation forms from the full matrix, in the same order
    observed = _energy_from_sums(dist_aa.sum(), row_sums[:na].sum(), total, na, nb)

    def block_stats(z, dist_z):
        return _energy_from_sums(np.einsum("ij,ij->j", z, dist_z), row_sums @ z, total, na, nb)

    stats = block_stats(first, dist_first)
    kernel_obs = stats[0]  # column 0 is the identity labelling
    exceed = int(np.count_nonzero(stats[1:] >= kernel_obs))
    for z in blocks:
        dist_z = np.empty_like(z)
        for lo, band in _distance_row_bands(pool):
            dist_z[lo : lo + len(band)] = band @ z
        exceed += int(np.count_nonzero(block_stats(z, dist_z) >= kernel_obs))
    p_value = (1.0 + exceed) / (1.0 + n_perm)
    return float(observed), float(p_value), int(min(na, len(keep_b)))


def rng_seed_record(rng: np.random.Generator) -> dict:
    """Best-effort description of the generator's seed for reports."""
    seq = getattr(rng.bit_generator, "seed_seq", None)
    if seq is None:
        return {}
    return {
        "entropy": str(seq.entropy),
        "spawn_key": [int(k) for k in seq.spawn_key],
    }
