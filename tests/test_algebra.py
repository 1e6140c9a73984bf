import numpy as np
import pytest
from numpy.testing import assert_allclose

from conelab import algebra as alg
from conelab.errors import (
    AlgebraMismatchError,
    DomainError,
    SingularElementError,
    ValidationError,
)

from conftest import ALGEBRAS


def test_descriptor_dimension_identity():
    for a in ALGEBRAS + [alg.sym_real(1), alg.sym_real(8), alg.herm_complex(6), alg.lorentz(16)]:
        assert a.dim == a.rank + a.peirce_d * a.rank * (a.rank - 1) // 2


def test_descriptor_rejects_a_wrong_dim():
    """The dimension identity is enforced where a descriptor is built."""
    assert alg.AlgebraDescriptor("sym_real", 2, 1, 3) == alg.sym_real(2)
    for kind, rank, d, dim in (("sym_real", 2, 1, 4), ("herm_complex", 3, 2, 8), ("lorentz", 2, 3, 6)):
        with pytest.raises(ValidationError, match="inconsistent"):
            alg.AlgebraDescriptor(kind, rank, d, dim)


def test_descriptor_limits():
    with pytest.raises(ValidationError):
        alg.sym_real(9)
    with pytest.raises(ValidationError):
        alg.herm_complex(7)
    with pytest.raises(ValidationError):
        alg.lorentz(17)
    with pytest.raises(ValidationError):
        alg.lorentz(1)


def test_parse_algebra_roundtrip():
    for a in ALGEBRAS:
        assert alg.parse_algebra(a.name) == a
    with pytest.raises(ValidationError):
        alg.parse_algebra("spin(3)")


def test_jordan_product_sym_real_example():
    a = alg.sym_real(2)
    x = alg.from_matrix(a, np.array([[1.0, 0.0], [0.0, 2.0]]))
    y = alg.from_matrix(a, np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = alg.jordan_product(x, y).to_matrix()
    assert_allclose(out, [[0.0, 1.5], [1.5, 0.0]], atol=1e-14)


def test_jordan_product_lorentz_examples():
    a = alg.lorentz(2)
    e = alg.identity(a)
    y = alg.Element(a, [0.3, -1.2, 0.7])
    assert_allclose(alg.jordan_product(e, y).coords, y.coords, atol=1e-15)
    x = alg.Element(a, [0.0, 1.0, 0.0])
    assert_allclose(alg.jordan_product(x, x).coords, [1.0, 0.0, 0.0], atol=1e-15)


def test_product_requires_same_algebra(rng):
    x = alg.random_element(alg.sym_real(2), rng)
    y = alg.random_element(alg.sym_real(3), rng)
    with pytest.raises(AlgebraMismatchError):
        alg.jordan_product(x, y)


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_axioms_random_triples(a, rng):
    residuals = alg.axiom_residuals(a, 500, rng)
    for value in residuals.values():
        assert value <= 1e-10


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_lmap_matches_product_and_is_symmetric(a, rng):
    x = alg.random_element(a, rng)
    y = alg.random_element(a, rng)
    lx = alg.lmap(x)
    assert_allclose(lx.apply(y).coords, alg.jordan_product(x, y).coords, atol=1e-12)
    assert_allclose(lx.matrix, lx.matrix.T, atol=1e-12)


def test_lmap_of_identity_is_identity(rng):
    for a in ALGEBRAS:
        le = alg.lmap(alg.identity(a))
        assert_allclose(le.matrix, np.eye(a.dim), atol=1e-14)


def test_lmap_eigenvalues_of_diagonal():
    # eigenvalues of L(diag(1, 2)) are pairwise means of the spectrum
    a = alg.sym_real(2)
    x = alg.from_matrix(a, np.diag([1.0, 2.0]))
    got = np.sort(np.linalg.eigvalsh(alg.lmap(x).matrix))
    assert_allclose(got, [1.0, 1.5, 2.0], atol=1e-12)


def test_lorentz_lmap_of_axis_multiple():
    a = alg.lorentz(2)
    x = alg.Element(a, [1.7, 0.0, 0.0])
    assert_allclose(alg.lmap(x).matrix, 1.7 * np.eye(3), atol=1e-15)


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_quad_rep_properties(a, rng):
    e = alg.identity(a)
    assert_allclose(alg.quad_rep(e).matrix, np.eye(a.dim), atol=1e-12)
    x = alg.random_cone_element(a, rng)
    p = alg.quad_rep(x)
    assert_allclose(
        (p @ alg.quad_rep(alg.inverse(x))).matrix, np.eye(a.dim), atol=1e-8
    )
    dd = p.ddet()
    assert dd == pytest.approx(alg.determinant(x) ** (2 * a.dim / a.rank), rel=1e-9)


def test_quad_rep_is_two_sided_matrix_product(rng):
    a = alg.sym_real(2)
    y = alg.from_matrix(a, np.diag([2.0, 3.0]))
    x = alg.from_matrix(a, np.ones((2, 2)))
    got = alg.quad_rep(y).apply(x).to_matrix()
    assert_allclose(got, [[4.0, 6.0], [6.0, 9.0]], atol=1e-12)
    b = alg.herm_complex(3)
    ym = alg.random_cone_element(b, rng)
    xm = alg.random_element(b, rng)
    got = alg.quad_rep(ym).apply(xm).to_matrix()
    want = ym.to_matrix() @ xm.to_matrix() @ ym.to_matrix()
    assert_allclose(got, want, atol=1e-12)


def test_inverse_examples_and_errors(rng):
    a = alg.sym_real(2)
    e = alg.identity(a)
    assert_allclose(alg.inverse(e).coords, e.coords, atol=1e-14)
    x = alg.from_matrix(a, np.diag([2.0, 4.0]))
    assert_allclose(alg.inverse(x).to_matrix(), np.diag([0.5, 0.25]), atol=1e-14)
    with pytest.raises(SingularElementError):
        alg.inverse(alg.from_matrix(a, np.diag([1.0, 0.0])))
    lo = alg.lorentz(2)
    v = alg.Element(lo, [2.0, 1.0, -0.5])
    det = 2.0**2 - (1.0**2 + 0.5**2)
    want = np.array([2.0, -1.0, 0.5]) / det
    assert_allclose(alg.inverse(v).coords, want, atol=1e-14)


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_spectral_decomposition_contract(a, rng):
    for _ in range(10):
        x = alg.random_element(a, rng)
        sd = alg.spectral_decompose(x)
        assert np.all(np.diff(sd.eigenvalues) <= 1e-12)
        assert alg.norm(sd.reconstruct() - x) <= 1e-9 * max(alg.norm(x), 1.0)
        total = alg.zero(a)
        for i, c in enumerate(sd.frame):
            assert alg.norm(alg.jordan_product(c, c) - c) < 1e-9
            total = total + c
            for d in sd.frame[i + 1 :]:
                assert alg.norm(alg.jordan_product(c, d)) < 1e-9
        assert alg.norm(total - alg.identity(a)) < 1e-9


def test_spectral_sym_real_example():
    a = alg.sym_real(2)
    x = alg.from_matrix(a, np.array([[2.0, 1.0], [1.0, 2.0]]))
    sd = alg.spectral_decompose(x)
    assert_allclose(sd.eigenvalues, [3.0, 1.0], atol=1e-12)
    assert_allclose(sd.frame[0].to_matrix(), 0.5 * np.ones((2, 2)), atol=1e-12)
    assert_allclose(sd.frame[1].to_matrix(), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


def test_spectral_lorentz_closed_form():
    a = alg.lorentz(2)
    x = alg.Element(a, [2.0, 1.0, 0.0])
    sd = alg.spectral_decompose(x)
    assert_allclose(sd.eigenvalues, [3.0, 1.0], atol=1e-14)
    assert_allclose(sd.frame[0].coords, [0.5, 0.5, 0.0], atol=1e-14)
    tr, det = alg.trace_det(x)
    assert tr == pytest.approx(4.0)
    assert det == pytest.approx(3.0)


def test_trace_det_examples(rng):
    a = alg.sym_real(2)
    e = alg.identity(a)
    assert alg.trace_det(e) == (pytest.approx(2.0), pytest.approx(1.0))
    x = alg.from_matrix(a, np.array([[2.0, 1.0], [1.0, 2.0]]))
    tr, det = alg.trace_det(x)
    assert tr == pytest.approx(4.0)
    assert det == pytest.approx(3.0)
    for b in ALGEBRAS:
        if not b.is_matrix_kind:
            continue
        y = alg.random_element(b, rng)
        tr, det = alg.trace_det(y)
        assert tr == pytest.approx(float(np.trace(y.to_matrix()).real), abs=1e-10)
        assert det == pytest.approx(float(np.linalg.det(y.to_matrix()).real), abs=1e-9)


def test_cone_membership_matches_eigenvalues(rng):
    for a in ALGEBRAS:
        x = alg.random_cone_element(a, rng, 0.1, 4.0)
        assert alg.in_cone(x)
        assert not alg.in_cone(-1.0 * x)
    with pytest.raises(DomainError):
        alg.element_power(-1.0 * alg.identity(alg.sym_real(2)), 0.5)


def test_random_element_determinism_and_spectrum():
    a = alg.herm_complex(2)
    x1 = alg.random_element(a, np.random.default_rng(0))
    x2 = alg.random_element(a, np.random.default_rng(0))
    assert_allclose(x1.coords, x2.coords)
    ones = alg.random_element(a, np.random.default_rng(3), [1.0, 1.0])
    assert alg.norm(ones - alg.identity(a)) < 1e-12


def test_random_cone_element_positive(rng):
    for a in ALGEBRAS:
        for _ in range(20):
            assert alg.eigenvalues(alg.random_cone_element(a, rng)).min() > 0
    # bulk: 1e4 draws with the cone flag stay strictly positive
    a = alg.sym_real(2)
    coords = np.array(
        [alg.random_cone_element(a, rng, 0.05, 10.0).coords for _ in range(10_000)]
    )
    assert np.linalg.eigvalsh(alg.coords_to_mats(a, coords)).min() > 0


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_random_automorphism_contract(a, rng):
    e = alg.identity(a)
    for _ in range(5):
        k = alg.random_automorphism_k(a, rng)
        assert alg.norm(k.apply(e) - e) < 1e-12
        x = alg.random_element(a, rng)
        y = alg.random_element(a, rng)
        assert alg.inner(k.apply(x), k.apply(y)) == pytest.approx(alg.inner(x, y), rel=1e-10, abs=1e-10)
        v = alg.random_cone_element(a, rng)
        assert alg.determinant(k.apply(v)) == pytest.approx(alg.determinant(v), rel=1e-9)
        assert abs(abs(k.ddet()) - 1.0) < 1e-9


def test_inverse_involution(rng):
    # on elements with every |eigenvalue| >= 1e-6 the double inverse returns x
    for a in ALGEBRAS:
        for _ in range(10):
            lam = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), a.rank))
            lam *= rng.choice([-1.0, 1.0], a.rank)
            x = alg.random_element(a, rng, lam)
            assert alg.norm(alg.inverse(alg.inverse(x)) - x) <= 1e-9 * alg.norm(x)


def test_endomorphism_adjoint_and_compose(rng):
    a = alg.lorentz(4)
    m1 = alg.lmap(alg.random_element(a, rng))
    m2 = alg.lmap(alg.random_element(a, rng))
    x = alg.random_element(a, rng)
    y = alg.random_element(a, rng)
    assert alg.inner(m1.apply(x), y) == pytest.approx(alg.inner(x, m1.adjoint().apply(y)), rel=1e-12, abs=1e-12)
    assert_allclose((m1 @ m2).apply(x).coords, m1.apply(m2.apply(x)).coords, atol=1e-12)


def test_element_immutable(rng):
    x = alg.random_element(alg.sym_real(2), rng)
    with pytest.raises(ValueError):
        x.coords[0] = 5.0


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_batch_spectral_map_matches_scalar_path(a, rng):
    rows = [alg.random_cone_element(a, rng, 0.1, 10.0) for _ in range(8)]
    coords = np.array([x.coords for x in rows])
    assert_allclose(alg.batch_eigenvalues(a, coords), [alg.eigenvalues(x) for x in rows], rtol=1e-12)
    power = alg.batch_power_map(a, coords)
    assert_allclose(power(0.37), [alg.element_power(x, 0.37).coords for x in rows], atol=1e-12)
    assert_allclose(power(-1.0), [alg.inverse(x).coords for x in rows], atol=1e-12)
    assert power(0.37) is power(0.37) and not power(0.37).flags.writeable  # built once, kept
    assert_allclose(alg.batch_spectral_map(a, coords, lambda t: t), coords, atol=1e-12)
    with pytest.raises(DomainError):
        alg.batch_power_map(a, -coords)


def test_batch_spectral_map_lorentz_axis_point():
    # a multiple of e has no spatial direction; its idempotents use the first axis
    a = alg.lorentz(3)
    coords = np.array([[2.0, 0.0, 0.0, 0.0]])
    assert_allclose(alg.batch_eigenvalues(a, coords), [[2.0, 2.0]])
    assert_allclose(alg.batch_spectral_map(a, coords, np.sqrt), [[np.sqrt(2.0), 0.0, 0.0, 0.0]])


# The scalar draws of seed 2024, recorded before the draws were batched: each
# scalar call is one row of the batched draw and consumes the same generator
# stream, so these values pin every test and report still drawn point by point.
# "k" is random_automorphism_k applied to (1, 2, ..., dim).
SCALAR_DRAWS_2024 = {
    "sym_real(3)": {
        "cone": [1.1062674004329864, 0.9576285568027304, 0.8675470866520942, -1.0625712234472318, -0.8725512369635681, 0.7151031286076034],
        "interval": [1.2332985445488596, 0.6693205752890972, 0.6110004413159317, 0.3379546313733116, 0.15117589156937822, 0.1713721097170391],
        "explicit": [2.56303131945804, 2.0093135883626667, 1.4276550921792928, -0.9193113490489461, -0.5049891857890343, -0.5051562754423512],
        "k": [-1.0449727283026276, -0.7313831706434901, 7.776355898946119, -0.6850259285437375, -2.713564440349269, 4.590066131661275],
    },
    "herm_complex(3)": {
        "cone": [1.0664913609223374, 0.8327839003830901, 1.0321677825823827, -0.7436893623139088, -0.045633603154924984, 0.354719327337756, -0.9975534997808877, -0.16914188960482646, 0.8332385461831204],
        "interval": [1.125984719403438, 1.3865665461420607, 1.381035944896112, -0.363694570360722, -0.11518838680476477, 0.2339695431938926, 0.05433463848388199, -0.3391805088000973, -0.2551145104160805],
        "explicit": [1.5812619495499252, 1.6659506581849777, 2.752787392265097, 0.4591063556808317, 0.43211926745089596, -0.40829538594349163, 0.4321523206567045, 0.5106790822848081, -0.36690740213455547],
        "k": [10.042066217348529, -5.597339131612106, 1.555272914263577, -0.8029631554865664, -5.746814224065459, 6.448192142352922, 8.167041991352043, 2.1820328605248047, 1.922544964795295],
    },
    "lorentz(5)": {
        "cone": [1.2578121501882034, 0.6268109245091958, 0.2783277339356183, -0.6054916838531171, -0.23852558302321752, -0.29194167512337993],
        "interval": [0.9035679485416234, 0.054303271716672444, -0.13237233496668369, -0.08766087165477203, -0.23241614142233444, 0.07862429806692889],
        "explicit": [2.0, -0.8612393902704816, 0.1441913518113349, 0.30701670400578707, -0.0951106288064339, -0.3662926131644162],
        "k": [1.0, 6.262089783709153, -0.5820218157468915, 2.689077367223656, 1.743199945952429, -6.338580204452501],
    },
}


@pytest.mark.parametrize("name", sorted(SCALAR_DRAWS_2024))
def test_scalar_draws_keep_their_stream(name):
    a = alg.parse_algebra(name)
    rng = np.random.default_rng(2024)
    got = {
        "cone": alg.random_cone_element(a, rng).coords,
        "interval": alg.random_element(a, rng, (0.5, 2.0)).coords,
        "explicit": alg.random_element(a, rng, np.linspace(3.0, 1.0, a.rank)).coords,
        "k": alg.random_automorphism_k(a, rng).matrix @ np.arange(1.0, a.dim + 1),
    }
    for key, want in SCALAR_DRAWS_2024[name].items():
        assert_allclose(got[key], want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)), err_msg=key)


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_points_index_slice_and_iteration(a, rng):
    coords = rng.standard_normal((7, a.dim))
    batch = alg.Points(a, coords)
    assert len(batch) == 7
    assert np.array_equal(batch.coords, coords)
    assert not batch.coords.flags.writeable
    coords[0, 0] += 1.0  # the batch holds its own copy
    assert batch.coords[0, 0] != coords[0, 0]
    for index in (2, -1, np.int64(4)):
        row = batch[index]
        assert isinstance(row, alg.Element) and row.algebra == a
        assert np.array_equal(row.coords, batch.coords[index])
    with pytest.raises(IndexError):
        batch[7]
    for index in (slice(1, 4), slice(None, None, 2), slice(7, None), np.array([5, 0])):
        part = batch[index]
        assert isinstance(part, alg.Points) and part.algebra == a
        assert np.array_equal(part.coords, batch.coords[index])
    rows = iter(batch)
    assert not isinstance(rows, (list, tuple))  # Elements are built as they are read
    assert isinstance(next(rows), alg.Element)
    assert np.array_equal(np.array([x.coords for x in batch]), batch.coords)
    empty = alg.Points(a, np.empty((0, a.dim)))
    assert len(empty) == 0 and list(empty) == []


def test_points_reject_bad_shapes_and_non_finite_rows():
    a = alg.sym_real(2)
    for bad in (np.ones(3), np.ones((4, 2)), np.ones((2, 4, 3))):
        with pytest.raises(ValidationError):
            alg.Points(a, bad)
    for value in (np.nan, np.inf, -np.inf):
        rows = np.ones((4, 3))
        rows[2, 1] = value
        with pytest.raises(ValidationError, match="finite"):
            alg.Points(a, rows)
    # a single Element is not checked for finiteness
    assert np.isnan(alg.Element(a, [np.nan, 0.0, 0.0]).coords[0])
