"""Property tests on every kind up to the top ranks, standard and rotated frames.

The scalar triangular decomposition, principal minors and log-Cauchy
functions are one-row calls of the batched code; these tests hold them to
their rows of a stacked batch, to the matrix leading minors, to the
triangular roundtrip t_x e = x and to the identity
Delta_k(x) = alpha_1 ... alpha_k between the minors and the triangular
diagonal (Faraut & Korányi 1994, ch. VI).  The Olkin-Baker decomposition
calls its oracles on whole arrays, a fixed number of times whatever the grid size.
The batched cone-point draw keeps every row's spectrum in its interval and
its rows average to E[lambda] e; the K-orbit of a point averages to a
multiple of e, and the batched rotations have determinant one.  The box
rows behind the cached half-space box tensor are (z box c_j) v row by row,
and the Frobenius steps read through that tensor are tau_{c_j}(z) for z
anywhere in the half space, on no rows, at rank one and on lorentz(2).  A
multiplication algorithm is only its two row maps; the matrix w(x) built
from them matches the closed forms P(x^{1/2}), t_x, P(x^a) t_{x^{1-2a}} and
w(x) k (Olkin & Rubin 1962; Faraut & Korányi 1994, ch. VI), and one
broadcast x row gives the rows of the tiled call.

The matrix-kind coordinate maps are one real matrix product each way; they
agree with the einsum contraction against the basis tensor to 2 ulp, give
exactly Hermitian matrices, round-trip, and project any real or complex
matrix onto its Hermitian part.  On every kind and rank the Jordan product
is commutative, satisfies the Jordan identity, and L(x) is self-adjoint for
the trace form.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from numpy.testing import assert_allclose

from conelab import algebra as alg
from conelab import algorithms as ma
from conelab import funceq as fe
from conelab import peirce, triangular as tri

KINDS = (
    [alg.sym_real(r) for r in range(2, 9)]
    + [alg.herm_complex(r) for r in range(2, 7)]
    + [alg.lorentz(n) for n in range(3, 17)]
)

MATRIX_KINDS = [alg.sym_real(r) for r in range(1, 9)] + [alg.herm_complex(r) for r in range(1, 7)]
EVERY_KIND = MATRIX_KINDS + [alg.lorentz(n) for n in range(2, 17)]

# derandomized: every run draws the same examples.  No shrinking: a failing
# example here is an expensive cone computation, and shrinking it ran a failing
# test for minutes; the unshrunk example fails the same way
PROPERTY = settings(
    derandomize=True, deadline=None, max_examples=5, phases=tuple(p for p in Phase if p != Phase.shrink)
)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def frame_and_points(a, rotated, seed, n=3):
    """The standard frame of a, or its image under a random automorphism, and n cone points."""
    rng = np.random.default_rng(seed)
    frame = alg.standard_frame(a)
    if rotated:
        rot = alg.random_automorphism_k(a, rng)
        frame = alg.JordanFrame(tuple(rot.apply(c) for c in frame))
    xs = [alg.random_cone_element(a, rng, 0.1, 10.0) for _ in range(n)]
    return frame, xs, np.array([x.coords for x in xs])


@pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
@pytest.mark.parametrize("a", KINDS, ids=lambda a: a.name)
@PROPERTY
@given(seed=SEEDS)
def test_one_row_decompose_matches_batch_and_roundtrips(a, rotated, seed):
    frame, xs, coords = frame_and_points(a, rotated, seed)
    batch = tri.batch_triangular_decompose(coords, frame)
    e = alg.identity(a)
    for i, x in enumerate(xs):
        t = tri.triangular_decompose(x, frame)
        assert_allclose(t.diagonal[0], batch.diagonal[i], rtol=1e-12)
        for z, z_batch in zip(t.frobenius_params, batch.frobenius_params):
            assert_allclose(z[0], z_batch[i], rtol=1e-12, atol=1e-12)
        te = tri.as_endomorphism(t).apply(e)
        assert alg.norm(te - x) <= 1e-9 * alg.norm(x)


@pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
@pytest.mark.parametrize("a", KINDS, ids=lambda a: a.name)
@PROPERTY
@given(seed=SEEDS)
def test_minors_are_rows_of_the_batch_and_products_of_the_diagonal(a, rotated, seed):
    frame, xs, coords = frame_and_points(a, rotated, seed)
    minors = peirce.principal_minors(frame, coords)
    alphas = tri.batch_triangular_decompose(coords, frame).diagonal
    assert_allclose(minors, np.cumprod(alphas, axis=1), rtol=1e-10)
    for i, x in enumerate(xs):
        for k in range(1, a.rank + 1):
            got = peirce.principal_minor(x, k, frame)
            assert got == pytest.approx(minors[i, k - 1], rel=1e-12)
            if a.kind == alg.SYM_REAL and not rotated:
                want = np.linalg.det(x.to_matrix()[:k, :k])
                assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
@pytest.mark.parametrize("a", KINDS, ids=lambda a: a.name)
@PROPERTY
@given(seed=SEEDS)
def test_log_cauchy_rows_match_one_row_calls(a, rotated, seed):
    frame, xs, coords = frame_and_points(a, rotated, seed)
    s = np.random.default_rng(seed).uniform(-1.0, 3.0, a.rank)
    for f in (fe.log_det_power(0.8, a), fe.delta_s_log(s, frame)):
        values = f.evaluator(coords)
        assert values.shape == (len(xs),)
        for x, value in zip(xs, values):
            assert f(x) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
@pytest.mark.parametrize("a", KINDS, ids=lambda a: a.name)
@PROPERTY
@given(seed=SEEDS)
def test_box_rows_are_the_box_operator_applied_row_by_row(a, rotated, seed):
    frame, _, _ = frame_and_points(a, rotated, seed, n=0)
    rng = np.random.default_rng(seed)
    z, v = rng.standard_normal((2, 3, a.dim))
    for j in range(a.rank):
        rows = tri.box_rows(frame, j, z, z @ alg.lmap(frame[j]).matrix.T, v)
        for zi, vi, row in zip(z, v, rows):
            want = tri.box_operator(alg.Element(a, zi), frame[j]).matrix @ vi
            assert_allclose(row, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
@pytest.mark.parametrize("a", KINDS, ids=lambda a: a.name)
@PROPERTY
@given(seed=SEEDS)
def test_batch_frobenius_is_the_frobenius_transform_on_the_whole_half_space(a, rotated, seed):
    frame, _, _ = frame_and_points(a, rotated, seed, n=0)
    rng = np.random.default_rng(seed)
    v, y = rng.standard_normal((2, 3, a.dim))
    for j in range(a.rank):
        half = peirce.half_projector(frame, j).matrix
        basis, tensor = tri.half_box(frame, j)
        assert basis.shape == ((a.rank - 1) * a.peirce_d, a.dim)
        assert tensor.shape == (a.dim, len(basis) * a.dim)
        assert_allclose(basis @ basis.T, np.eye(len(basis)), rtol=0, atol=1e-12)
        assert_allclose(basis.T @ basis, half, rtol=0, atol=1e-12)
        z = v @ half.T
        got = tri.batch_frobenius(frame, j, z, y)
        for zi, yi, row in zip(z, y, got):
            want = tri.frobenius_transform(frame[j], alg.Element(a, zi), peirce.half_projector(frame, j))
            assert_allclose(row, want.matrix @ yi, rtol=0, atol=1e-12)
        # a component of z outside the half space is dropped
        assert_allclose(tri.batch_frobenius(frame, j, v, y), got, rtol=0, atol=1e-12)


@pytest.mark.parametrize("a", [alg.sym_real(1), alg.herm_complex(1), alg.lorentz(2)], ids=lambda a: a.name)
def test_frobenius_steps_on_no_rows_rank_one_and_the_smallest_lorentz(a):
    """Rank one has an empty half space; lorentz(2) has d = 1, a one-dimensional one."""
    frame = alg.standard_frame(a)
    rng = np.random.default_rng(4)
    none = np.zeros((0, a.dim))
    for j in range(a.rank):
        basis, tensor = tri.half_box(frame, j)
        assert basis.shape == ((a.rank - 1) * a.peirce_d, a.dim)
        assert tensor.shape == (a.dim, len(basis) * a.dim)
        assert tri.batch_frobenius(frame, j, none, none).shape == (0, a.dim)
        z, y = rng.standard_normal((2, 3, a.dim))
        got = tri.batch_frobenius(frame, j, z, y)
        for zi, yi, row in zip(z, y, got):
            want = tri.frobenius_transform(frame[j], alg.Element(a, zi)).matrix @ yi
            assert_allclose(row, want, rtol=0, atol=1e-12)
        if a.rank == 1:
            assert np.array_equal(got, y)
    batch = tri.batch_triangular_decompose(none, frame)
    assert batch.apply(none).shape == batch.solve(none).shape == (0, a.dim)
    x = alg.random_cone_points(a, 5, rng, 0.2, 5.0)
    batch = tri.batch_triangular_decompose(x, frame)
    e = np.tile(alg.identity(a).coords, (5, 1))
    assert_allclose(batch.apply(e), x, rtol=0, atol=1e-12)
    assert_allclose(batch.solve(x), e, rtol=0, atol=1e-12)


def reference_w(w, x):
    """The closed form of w(x), built from quad_rep and the triangular group element."""
    frame = w.frame
    if w.kind == "w1":
        return alg.quad_rep(alg.element_power(x, 0.5))
    if w.kind == "w2":
        return tri.as_endomorphism(tri.triangular_decompose(x, frame))
    if w.kind == "interp":
        tail = tri.triangular_decompose(alg.element_power(x, 1.0 - 2.0 * w.alpha), frame)
        return alg.quad_rep(alg.element_power(x, w.alpha)) @ tri.as_endomorphism(tail)
    # piecewise: w1 where det x > 1, w2 elsewhere
    return reference_w(ma.w1(x.algebra) if alg.determinant(x) > 1.0 else ma.w2(frame), x)


@pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
@pytest.mark.parametrize("a", KINDS, ids=lambda a: a.name)
@PROPERTY
@given(seed=SEEDS)
def test_w_of_x_from_the_row_maps_matches_its_closed_form(a, rotated, seed):
    frame, xs, coords = frame_and_points(a, rotated, seed, n=2)
    rng = np.random.default_rng(seed)
    k = alg.random_automorphism_k(a, rng)
    unit = alg.Endomorphism.identity(a)
    bases = (ma.w1(a), ma.w2(frame), ma.interp(0.25, frame), ma.piecewise_det(frame))
    # (algorithm, base, k) with w(x) = base(x) k
    cases = [(b, b, unit) for b in bases] + [(ma.k_extended(b, k), b, k) for b in bases[:2]]
    y = rng.standard_normal((4, a.dim))
    for w, base, rot in cases:
        for x in xs:
            want = (reference_w(base, x) @ rot).matrix
            assert np.max(np.abs(w(x).matrix - want)) <= 1e-12 * np.max(np.abs(want)), w.spec
        tiled = np.tile(coords[:1], (len(y), 1))
        for method in (w.apply_batch, w.solve_batch):
            want = method(tiled, y)
            atol = 1e-13 * np.max(np.abs(want))
            assert_allclose(method(coords[:1], y), want, rtol=0, atol=atol, err_msg=w.spec)


def test_decompose_oracle_calls_do_not_grow_with_the_grid():
    a = alg.lorentz(4)
    frame = alg.standard_frame(a)
    w = ma.w2(frame)
    oracles = fe.make_olkin_baker_instance(
        -1.0 * alg.identity(a), fe.delta_s_log((2.0, 1.0), frame), fe.delta_s_log((1.5, 0.5), frame), w
    )
    counts = []
    for n_points in (200, 400):
        calls = Counter()

        def counted(fn, role):
            def wrapped(x):
                calls[role] += 1
                return fn(x)

            return wrapped

        fe.olkin_baker_decompose(
            *(counted(fn, role) for fn, role in zip(oracles, "abcd")), w, fe.GridSpec(n_points=n_points, seed=3)
        )
        counts.append(calls)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("log_uniform", [True, False], ids=["log_uniform", "uniform"])
@pytest.mark.parametrize("a", KINDS, ids=lambda a: a.name)
@PROPERTY
@given(seed=SEEDS)
def test_cone_points_have_their_spectrum_in_the_interval(a, log_uniform, seed):
    rng = np.random.default_rng(seed)
    low, high = np.sort(np.exp(rng.uniform(-3.0, 3.0, 2)))
    points = alg.random_cone_points(a, 200, rng, low, high, log_uniform=log_uniform)
    assert points.shape == (200, a.dim)
    lam = alg.batch_eigenvalues(a, points)
    assert lam.min() > 0.0
    assert lam.min() >= low * (1.0 - 1e-12)
    assert lam.max() <= high * (1.0 + 1e-12)


def assert_mean_within_5_se(rows, want):
    # a coordinate that does not vary (x_0 of a Lorentz orbit) may miss by rounding alone
    se = rows.std(axis=0, ddof=1) / np.sqrt(len(rows))
    assert np.all(np.abs(rows.mean(axis=0) - want) <= 5.0 * se + 1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("a", [alg.sym_real(4), alg.herm_complex(3), alg.lorentz(6)], ids=lambda a: a.name)
def test_cone_points_average_to_the_mean_eigenvalue_times_e(a):
    # E[x] = E[lambda] e, with E[lambda] = (high - low) / log(high / low) for the log-uniform law
    low, high, n = 0.2, 5.0, 20_000
    rng = np.random.default_rng(17)
    e = alg.identity(a).coords
    assert_mean_within_5_se(alg.random_cone_points(a, n, rng, low, high), (high - low) / np.log(high / low) * e)
    # the frames are Haar: the K-orbit of one fixed point averages to (tr p / r) e
    p = alg.random_cone_element(a, rng, low, high)
    rotated = alg.apply_random_k(a, np.tile(p.coords, (n, 1)), rng)
    assert_mean_within_5_se(rotated, alg.trace(p) / a.rank * e)


@pytest.mark.parametrize("n", [2, 3, 8, 15])
def test_batched_haar_rotations_have_determinant_one(n):
    q = alg._haar_special_orthogonal(n, np.random.default_rng(5), 200)
    assert_allclose(q @ np.swapaxes(q, 1, 2), np.broadcast_to(np.eye(n), q.shape), atol=1e-12)
    assert_allclose(np.linalg.det(q), 1.0, rtol=1e-12)


def scaled_rows(rng, shape):
    """Standard normal entries, each leading row scaled by a factor between e^-20 and e^20."""
    scale = np.exp(rng.uniform(-20.0, 20.0, (shape[0],) + (1,) * (len(shape) - 1)))
    return rng.standard_normal(shape) * scale


def assert_within_2_ulp(got, want, terms):
    """Real and imaginary parts agree to 2 ulp of ``terms``, the sums of the absolute terms."""
    assert got.shape == want.shape
    bound = 2.0 * np.spacing(terms)
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(got) - part(want)) <= bound)


def non_hermitian(a, rng, n):
    """n random r x r matrices, real on sym_real and complex on herm_complex, neither symmetric."""
    mats = scaled_rows(rng, (n, a.rank, a.rank))
    if a.kind == alg.HERM_COMPLEX:
        mats = mats + 1j * rng.standard_normal(mats.shape) * np.abs(mats).max(axis=(1, 2), keepdims=True)
    return mats


def hermitian_part(mats):
    return 0.5 * (mats + np.conj(np.swapaxes(mats, 1, 2)))


@pytest.mark.parametrize("a", MATRIX_KINDS, ids=lambda a: a.name)
@PROPERTY
@given(seed=SEEDS)
def test_coordinate_maps_match_the_einsum_contraction(a, seed):
    rng = np.random.default_rng(seed)
    basis = alg._basis_tensor(a)
    coords = scaled_rows(rng, (40, a.dim))
    mats = alg.coords_to_mats(a, coords)
    want = np.einsum("nk,kij->nij", coords, basis)
    assert mats.dtype == want.dtype
    assert_within_2_ulp(mats, want, np.einsum("nk,kij->nij", np.abs(coords), np.abs(basis)))
    general = non_hermitian(a, rng, 40)
    want = np.einsum("nij,kij->nk", general, basis.conj()).real
    got = alg.mats_to_coords(a, general)
    assert got.dtype == np.float64
    assert_within_2_ulp(got, want, np.einsum("nij,kij->nk", np.abs(general), np.abs(basis)))


@pytest.mark.parametrize("a", MATRIX_KINDS, ids=lambda a: a.name)
@PROPERTY
@given(seed=SEEDS)
def test_coordinate_maps_roundtrip_through_exactly_hermitian_matrices(a, seed):
    coords = scaled_rows(np.random.default_rng(seed), (40, a.dim))
    mats = alg.coords_to_mats(a, coords)
    assert mats.shape == (40, a.rank, a.rank)
    assert np.array_equal(mats, np.conj(np.swapaxes(mats, 1, 2)))
    back = alg.mats_to_coords(a, mats)
    assert np.all(np.abs(back - coords).max(axis=1) <= 1e-15 * np.abs(coords).max(axis=1))
    # one row, and no row at all, keep their shapes
    assert alg.coords_to_mats(a, coords[:1]).shape == (1, a.rank, a.rank)
    assert alg.mats_to_coords(a, mats[:0]).shape == (0, a.dim)


@pytest.mark.parametrize("a", MATRIX_KINDS, ids=lambda a: a.name)
@PROPERTY
@given(seed=SEEDS)
def test_mats_to_coords_projects_onto_the_hermitian_part(a, seed):
    general = non_hermitian(a, np.random.default_rng(seed), 40)
    # real input on herm_complex too: from_matrix passes it
    for mats in (general, general.real) if a.kind == alg.HERM_COMPLEX else (general,):
        coords = alg.mats_to_coords(a, mats)
        want = hermitian_part(mats)
        bound = 1e-15 * np.abs(mats).max(axis=(1, 2))
        assert np.all(np.abs(alg.coords_to_mats(a, coords) - want).max(axis=(1, 2)) <= bound)
        assert np.all(np.abs(coords - alg.mats_to_coords(a, want)).max(axis=1) <= bound)
    if a.kind == alg.HERM_COMPLEX:
        real = general.real
        assert np.array_equal(alg.mats_to_coords(a, real), alg.mats_to_coords(a, real.astype(complex)))
    # a transposed, non-contiguous view
    view = np.swapaxes(general, 1, 2)
    assert np.array_equal(alg.mats_to_coords(a, view), alg.mats_to_coords(a, np.ascontiguousarray(view)))


@pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
@pytest.mark.parametrize("a", EVERY_KIND, ids=lambda a: a.name)
@PROPERTY
@given(seed=SEEDS)
def test_jordan_product_axioms(a, rotated, seed):
    # x runs over cone points, the frame's idempotents and points off the cone
    frame, _, points = frame_and_points(a, rotated, seed)
    rng = np.random.default_rng(seed + 1)
    x = np.vstack([points, [c.coords for c in frame], rng.standard_normal((3, a.dim))])
    y = rng.standard_normal(x.shape)
    scale = np.sqrt(a.inner_scale)
    nx = scale * np.linalg.norm(x, axis=1)
    ny = scale * np.linalg.norm(y, axis=1)
    xy = alg.batch_jordan_product(a, x, y)
    assert np.array_equal(xy, alg.batch_jordan_product(a, y, x))
    # the Jordan identity (x^2 y) x = x^2 (y x)
    xx = alg.batch_jordan_product(a, x, x)
    lhs = alg.batch_jordan_product(a, alg.batch_jordan_product(a, xx, y), x)
    rhs = alg.batch_jordan_product(a, xx, xy)
    assert np.all(scale * np.linalg.norm(lhs - rhs, axis=1) <= 1e-13 * nx**3 * ny)
    # L(x) is the product, and self-adjoint for the trace form <u, v> = inner_scale * u.v
    for row, y_row, xy_row, bound in zip(x, y, xy, 1e-13 * nx * ny):
        lx = alg.lmap(alg.Element(a, row)).matrix
        assert scale * np.linalg.norm(lx @ y_row - xy_row) <= bound
        assert np.abs(lx - lx.T).max() <= 1e-14 * np.abs(lx).max()
