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
  ``sum(a * b[p][:, p])`` does.  The distance matrices are centred in place.
  Both are symmetric (up to the rounding of the centring), so once the
  observed statistic is computed ``a`` is kept as its bands right of the
  diagonal, with the blocks right of each diagonal block doubled (exact in
  floating point), and band ``lo`` gathers only the columns ``p[lo:]``: half
  the gather and half the reduction of the full sum.  A band has
  ``max(64, min(128, ceil(m / 4)))`` rows, so a permutation costs a few dozen
  numpy calls at most, and at m = 1024 one worker's float32 gathers (512 kB
  each) fit its L2 cache.  Each band is gathered into per-worker scratch buffers and reduced
  row by row with ``einsum``, and the row sums are added in float64, so no
  ``m x m`` temporary is built per permutation.
  Every permutation is scored first from float32 copies of the bands and of
  ``b``, each scaled by a power of two so that its largest entry lies in
  [0.5, 1).  This halves the memory the gather moves.  A bound on the
  rounding of both paths (`_float32_margin`, from Cauchy-Schwarz) decides
  every permutation whose float32 covariance lies farther than it from the
  observed one; the others, ties among them, are scored again in float64 on
  the same bands, as the observed covariance is.  So the ranking is that of
  the float64 covariances, and a permutation that leaves the statistic
  unchanged always ties.  Scales beyond 2^+-900 or entries that are not
  finite leave the test to the float64 path alone.
  The test runs on a thread pool that lives for one call, with one worker per
  CPU the process may run on (one worker runs inline and builds no pool).
  Two of its threads build the two centred distance matrices at the same
  time; then each block of permutations is one task per worker, task k
  scoring every workers-th permutation of the block on its own scratch
  buffers.  Gathers and reductions release the GIL.  ``einsum`` never calls BLAS,
  whose own threads would fight the pool's (``np.vdot`` is OpenBLAS
  ``ddot``, threaded above about 10 000 elements), and one worker computes a
  whole permutation in a fixed band order, so every statistic has the same
  bits whatever the worker count or the BLAS thread count.
* two-sample energy test (Szekely & Rizzo 2004): the group-A labels of a
  block of permutations are the contiguous 0/1 rows of an indicator matrix
  ``Z^T``, and every within-A distance sum ``z^T D z`` of the block comes
  from matrix products.  The pooled distance matrix ``D`` is computed a band
  of rows at a time and never held whole, and blocks have a fixed height, so
  memory does not grow with the sample or the permutation count.  ``D`` is
  symmetric, so band ``lo`` multiplies only its columns from ``lo`` on, those
  right of its diagonal block doubled, with ``Z^T[:, lo:]``: half the matrix
  product of the full band.  The first block is drawn before the bands are
  computed, so one pass over ``D`` gives the row sums, the within-A block of
  the observed labelling (from the full bands, so the observed statistic is
  that of the direct computation) and the first block's within-A sums; only
  blocks after the first recompute the bands.

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

import contextlib
import math
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
    """Double-centre ``dist`` in place and return it.

    The row, column and grand means are taken first and subtracted in the
    order of ``dist - row - col + mean``, so the result has the same bits as
    that expression without its two temporaries.
    """
    row = dist.mean(axis=0, keepdims=True)
    col = dist.mean(axis=1, keepdims=True)
    mean = dist.mean()
    dist -= row
    dist -= col
    dist += mean
    return dist


def _centered_distances(points: np.ndarray, out=None) -> np.ndarray:
    return double_center(distance_matrix(points, out=out))


def centered_distance_matrices(x: np.ndarray, y: np.ndarray):
    return _centered_distances(x), _centered_distances(y)


def dcor_from_centered(a: np.ndarray, b: np.ndarray) -> float:
    n2 = a.shape[0] ** 2
    product = np.multiply(a, b)  # one buffer for the three products
    cov_xy = product.sum() / n2
    var_x = np.multiply(a, a, out=product).sum() / n2
    var_y = np.multiply(b, b, out=product).sum() / n2
    denom = np.sqrt(var_x * var_y)
    if denom <= 0:
        return 0.0
    return float(np.sqrt(max(cov_xy, 0.0) / denom))


def subsample_rows(n: int, max_points: int, rng: np.random.Generator) -> np.ndarray:
    if n <= max_points:
        return np.arange(n)
    return np.sort(rng.permutation(n)[:max_points])


# Permutations drawn and handed to the pool at a time (64 x 1024 indices is
# 512 kB), so memory stays fixed whatever the permutation count.
_DCOR_PERM_BLOCK = 64
# The float32 screen is used only when the two scales' exponents add up to
# less than this in magnitude: every float64 sum of the test then stays far
# from overflow and its rounding far above the subnormal range.
_SCREEN_EXPONENT = 900


def _band_rows(m: int) -> int:
    """Rows per band of the dcor kernel for an ``m``-point test: at least 64, at
    most four bands.

    Every band costs a few numpy calls, each of which hands the GIL over, so
    narrow bands leave the pool's threads waiting on one another: with 64-row
    bands two workers scored 600-point permutations no faster than one.
    """
    return max(64, min(128, -(-m // 4)))


def _pool_workers() -> int:
    """One worker per CPU in the process's affinity set."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fold_upper_bands(a: np.ndarray) -> list:
    """Contiguous copies of the bands ``a[lo:lo + rows, lo:]``, ``rows =
    _band_rows(len(a))``, the blocks right of the diagonal block doubled.

    For symmetric a and b, ``_permuted_covariance(bands, b, perm, ...)`` then
    equals ``sum(a * b[perm][:, perm])``.
    """
    rows = _band_rows(len(a))
    bands = []
    for lo in range(0, len(a), rows):
        band = a[lo : lo + rows, lo:].copy()
        band[:, rows:] *= 2.0
        bands.append(band)
    return bands


def _scratch(m: int) -> tuple:
    """One worker's buffers for `_permuted_covariance` of ``m`` points: the
    gathered rows, the gathered columns and the row sums, sized for float64 and
    viewed as either dtype."""
    band = _band_rows(m) * m
    return np.empty(band), np.empty(band), np.empty(m)


def _permuted_covariance(bands: list, b: np.ndarray, perm: np.ndarray, scratch: tuple) -> float:
    """The sum of ``bands[k] * b[perm[lo:hi]][:, perm[lo:]]`` over the bands of
    `_fold_upper_bands`, with ``lo = k * _band_rows(m)``, in the dtype of ``b``
    (float32 or float64).

    Each band is reduced row by row with ``einsum``; the row sums are added in
    float64.  The gathers are written into ``scratch`` (see `_scratch`), so a
    permutation allocates nothing; ``mode="clip"`` keeps ``take`` from
    buffering a copy of its output.
    """
    m = len(perm)
    rows = _band_rows(m)
    picked, window, sums = (buf.view(b.dtype) for buf in scratch)
    sums = sums[:m]
    for lo, band in zip(range(0, m, rows), bands):
        height, width = band.shape
        gathered = picked[: height * m].reshape(height, m)
        np.take(b, perm[lo : lo + rows], axis=0, out=gathered, mode="clip")
        cols = window[: height * width].reshape(height, width)
        np.take(gathered, perm[lo:], axis=1, out=cols, mode="clip")
        np.einsum("ij,ij->i", band, cols, out=sums[lo : lo + height])
    return float(sums.sum(dtype=np.float64))


def _float32_margin(m: int, norm_f: float, norm_b: float) -> float:
    """Bound on |float32 score - float64 score| of one permutation, for folded
    bands ``F`` and a matrix ``B`` scaled so that no entry exceeds 1 in magnitude;
    ``norm_f`` and ``norm_b`` are their Frobenius norms.

    Both scores are sums of at most m^2 products ``F_ij B_kl``, no ``B`` entry
    taken twice, so by Cauchy-Schwarz the sum of their magnitudes is at most
    ``norm_f * norm_b``.  The float32 score rounds each entry and product once
    and adds at most m products per row, in any order (gamma_{m+4} + 3 u32);
    the float64 row sums of both scores and the float64 score itself add at
    most 2 m^2 u64.  The factor 1.02 covers the rounding of the norms and of
    this bound (the norms are those of the float32 copies), and the last term
    the float32 subnormals (at most 2^-147 per product at this scale).
    """
    u32, u64 = 2.0**-24, 2.0**-53  # the unit roundoffs
    nu = (m + 4) * u32
    relative = nu / (1.0 - nu) + 3.0 * u32 + 2.0 * m * m * u64
    return 1.02 * relative * norm_f * norm_b + m * m * 2.0**-147


def _scale_exponent(arrays: list):
    """The ``e`` for which ``2**-e`` brings the largest |entry| of ``arrays`` into
    [0.5, 1); None when that entry is 0, subnormal or not finite (a NaN
    propagates through the maxima)."""
    tops = [np.maximum(x.max(initial=0.0), -x.min(initial=0.0)) for x in arrays]
    top = float(np.max(tops, initial=0.0))
    if not (math.isfinite(top) and top >= np.finfo(np.float64).tiny):
        return None
    return math.frexp(top)[1]


def _scaled_float32(x: np.ndarray, exponent: int) -> np.ndarray:
    """``x * 2**-exponent`` rounded once to float32 (the scaling itself is exact)."""
    copy = np.empty(x.shape, dtype=np.float32)
    np.multiply(x, 2.0**-exponent, out=copy, casting="same_kind")
    return copy


def _frobenius_norm(arrays: list) -> float:
    return math.sqrt(sum(float(np.einsum("ij,ij->", x, x, dtype=np.float64)) for x in arrays))


def _float32_screen(bands: list, b: np.ndarray):
    """Float32 copies of the folded bands and of b, each scaled by a power of two,
    the margin and the exponent ``e`` of their scales' product; None when the
    float64 path must score alone.

    A float32 covariance of the copies, times ``2**e``, is within ``margin *
    2**e`` of the float64 covariance of the same permutation.
    """
    exp_f = _scale_exponent(bands)
    exp_b = _scale_exponent([b])
    if exp_f is None or exp_b is None or abs(exp_f + exp_b) >= _SCREEN_EXPONENT:
        return None
    bands32 = [_scaled_float32(band, exp_f) for band in bands]
    b32 = _scaled_float32(b, exp_b)
    margin = _float32_margin(len(b), _frobenius_norm(bands32), _frobenius_norm([b32]))
    return bands32, b32, margin, exp_f + exp_b


def _permutation_blocks(m: int, n_perm: int, rng: np.random.Generator):
    """Yield lists of at most _DCOR_PERM_BLOCK ``rng.permutation(m)``, in stream order."""
    for start in range(0, n_perm, _DCOR_PERM_BLOCK):
        yield [rng.permutation(m) for _ in range(min(_DCOR_PERM_BLOCK, n_perm - start))]


@contextlib.contextmanager
def _thread_pool(workers: int):
    """A pool of ``workers`` threads for one test, shut down on exit; None for one worker."""
    if workers == 1:
        yield None
        return
    with ThreadPoolExecutor(max_workers=workers, thread_name_prefix="conelab-dcor") as pool:
        yield pool


def _map(pool, fn, *iterables) -> list:
    """``list(map(fn, *iterables))``, each call a task on ``pool`` unless it is None."""
    return list(map(fn, *iterables) if pool is None else pool.map(fn, *iterables))


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
    m = len(keep)
    workers = min(_pool_workers(), max(n_perm, 1))
    with _thread_pool(workers) as pool:
        # The two distance matrices are built at the same time, one per thread.
        # Like the scratch buffers, they are allocated on this thread: large blocks
        # that pool threads allocated stayed in their malloc arenas, and a
        # Monte-Carlo run peaked 13-28 MB higher.
        outs = [np.empty((m, m)) for _ in range(2)]
        a, b = _map(pool, _centered_distances, (x[keep], y[keep]), outs)
        observed = dcor_from_centered(a, b)
        a = _fold_upper_bands(a)  # the full matrix is no longer needed
        scratches = [_scratch(m) for _ in range(workers)]  # one per task of a block
        # dcor clips a negative covariance to 0, so the ranking clips it too
        cov_obs = max(_permuted_covariance(a, b, np.arange(m), scratches[0]), 0.0)
        screen = _float32_screen(a, b) if math.isfinite(cov_obs) else None
        if screen is not None:
            bands32, b32, margin, exponent = screen
            scaled_obs = math.ldexp(cov_obs, -exponent)

        def exceeds(perm, scratch) -> bool:
            # a float32 covariance (clipped, as the ranking clips) farther than the
            # margin from the observed one ranks as its float64 covariance does
            if screen is not None:
                gap = max(_permuted_covariance(bands32, b32, perm, scratch), 0.0) - scaled_obs
                if abs(gap) > margin:
                    return gap > 0.0
            return max(_permuted_covariance(a, b, perm, scratch), 0.0) >= cov_obs

        def count(perms, scratch) -> int:
            return sum(exceeds(perm, scratch) for perm in perms)

        exceed = 0
        for block in _permutation_blocks(m, n_perm, rng):
            # task k scores every workers-th permutation of the block on scratch k
            exceed += sum(_map(pool, count, [block[k::workers] for k in range(workers)], scratches))
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
    """Yield (k, n) 0/1 matrices whose rows mark group A, k <= _ENERGY_PERM_BLOCK.

    Row 0 of the first block is the identity labelling (the first ``na``
    points); the other ``n_perm`` rows are ``rng.permutation(n)[:na]``, drawn
    one at a time in stream order as the blocks are consumed.
    """
    drawn = -1  # the identity labelling takes the first row
    while drawn < n_perm:
        width = min(_ENERGY_PERM_BLOCK, n_perm - drawn)
        zt = np.zeros((width, n))
        for j in range(width):
            group_a = np.arange(na) if drawn < 0 else rng.permutation(n)[:na]
            zt[j, group_a] = 1.0
            drawn += 1
        yield zt


def _distance_row_bands(pool: np.ndarray):
    """Yield (first row, rows of ``distance_matrix(pool)``), _ENERGY_ROW_BAND rows at a
    time; each band is written over the one before."""
    band = np.empty((min(_ENERGY_ROW_BAND, len(pool)), len(pool)))
    for lo in range(0, len(pool), _ENERGY_ROW_BAND):
        rows = pool[lo : lo + _ENERGY_ROW_BAND]
        yield lo, distance_matrix(rows, pool, out=band[: len(rows)])


def _within_sums(lo: int, band: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """The share of the rows ``lo:lo + len(band)`` of the symmetric D in ``z^T D z``,
    for every row z of ``zt``.

    Only the band's columns from ``lo`` on enter, those right of its diagonal
    block doubled (in ``band``, exactly), so the shares of all bands add up to
    each within-A sum with half the products of the full bands.
    """
    hi = lo + len(band)
    upper = band[:, lo:]
    upper[:, hi - lo :] *= 2.0
    return np.einsum("ij,ji->j", upper @ zt[:, lo:].T, zt[:, lo:hi])


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
    # one pass gives the row sums, the within-A block and the first block's sums
    row_sums = np.empty(len(pool))
    dist_aa = np.empty((na, na))
    within = np.zeros(len(first))
    for lo, band in _distance_row_bands(pool):
        row_sums[lo : lo + len(band)] = band.sum(axis=1)
        if lo < na:
            dist_aa[lo : lo + len(band)] = band[: na - lo, :na]
        within += _within_sums(lo, band, first)
    total = row_sums.sum()
    # the sums a direct computation forms from the full matrix, in the same order
    observed = _energy_from_sums(dist_aa.sum(), row_sums[:na].sum(), total, na, nb)

    def block_stats(zt, within):
        return _energy_from_sums(within, zt @ row_sums, total, na, nb)

    stats = block_stats(first, within)
    kernel_obs = stats[0]  # row 0 is the identity labelling
    exceed = int(np.count_nonzero(stats[1:] >= kernel_obs))
    for zt in blocks:
        within = sum(_within_sums(lo, band, zt) for lo, band in _distance_row_bands(pool))
        exceed += int(np.count_nonzero(block_stats(zt, within) >= kernel_obs))
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
