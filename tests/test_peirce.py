import numpy as np
import pytest
from numpy.testing import assert_allclose

from conelab import algebra as alg
from conelab import cli, peirce, triangular as tri
from conelab.errors import DomainError, ValidationError

import reference as ref
from conftest import ALGEBRAS


def brute_force_projection(c, x, eigenvalue):
    """Oracle: eigenspace projection of L(c) from a dense eigendecomposition."""
    vals, vecs = np.linalg.eigh(alg.lmap(c).matrix)
    mask = np.abs(vals - eigenvalue) < 1e-8
    basis = vecs[:, mask]
    return basis @ basis.T @ x.coords


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_peirce_project_matches_brute_force(a, rng):
    frame = alg.standard_frame(a)
    c = frame[0]
    for _ in range(5):
        x = alg.random_element(a, rng)
        total = alg.zero(a)
        for ev in (0.0, 0.5, 1.0):
            got = ref.peirce_project(x, c, ev)
            assert_allclose(got.coords, brute_force_projection(c, x, ev), atol=1e-10)
            total = total + got
        assert alg.norm(total - x) < 1e-12


def test_peirce_project_examples(rng):
    a = alg.sym_real(2)
    c = alg.standard_frame(a)[0]
    assert alg.norm(ref.peirce_project(c, c, 1.0) - c) < 1e-14
    x = alg.from_matrix(a, np.array([[1.3, -0.4], [-0.4, 2.2]]))
    assert_allclose(
        ref.peirce_project(x, c, 1.0).to_matrix(), [[1.3, 0], [0, 0]], atol=1e-12
    )
    assert_allclose(
        ref.peirce_project(x, c, 0.5).to_matrix(), [[0, -0.4], [-0.4, 0]], atol=1e-12
    )
    assert_allclose(
        ref.peirce_project(x, c, 0.0).to_matrix(), [[0, 0], [0, 2.2]], atol=1e-12
    )
    ev1_via_quad = alg.quad_rep(c).apply(x)
    assert alg.norm(ref.peirce_project(x, c, 1.0) - ev1_via_quad) < 1e-13


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_peirce_projectors_are_orthogonal_projections(a, rng):
    c = alg.spectral_decompose(alg.random_cone_element(a, rng)).frame[0]
    projs = peirce.peirce_projectors(c)
    eye = np.eye(a.dim)
    total = np.zeros((a.dim, a.dim))
    for ev, p in projs.items():
        assert np.max(np.abs(p.matrix @ p.matrix - p.matrix)) < 1e-10
        total = total + p.matrix
        for ev2, q in projs.items():
            if ev2 != ev:
                assert np.max(np.abs(p.matrix @ q.matrix)) < 1e-10
    assert_allclose(total, eye, atol=1e-10)


def test_peirce_projectors_reject_non_idempotent():
    a = alg.sym_real(2)
    with pytest.raises(ValidationError):
        peirce.peirce_projectors(2.0 * alg.identity(a))


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_build_peirce_basis_dimensions(a):
    frame = alg.standard_frame(a)
    basis = peirce.build_peirce_basis(frame)
    assert peirce.build_peirce_basis(frame) is basis  # built once per frame
    assert not any(rows.flags.writeable for rows in basis.subspaces.values())
    for i in range(a.rank):
        assert basis.subspaces[(i, i)].shape[0] == 1
        for j in range(i + 1, a.rank):
            assert basis.subspaces[(i, j)].shape[0] == a.peirce_d
    total = sum(rows.shape[0] for rows in basis.subspaces.values())
    assert total == a.dim


def test_build_peirce_basis_random_frame(rng):
    a = alg.herm_complex(3)
    sd = alg.spectral_decompose(alg.random_cone_element(a, rng))
    basis = peirce.build_peirce_basis(alg.JordanFrame(sd.frame))
    total = sum(rows.shape[0] for rows in basis.subspaces.values())
    assert total == a.dim
    # orthonormal rows in the trace form
    for rows in basis.subspaces.values():
        gram = a.inner_scale * rows @ rows.T
        assert_allclose(gram, np.eye(rows.shape[0]), atol=1e-9)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "a", [alg.sym_real(3), alg.sym_real(8), alg.herm_complex(6), alg.lorentz(16)], ids=lambda a: a.name
)
def test_peirce_basis_of_a_rotated_frame_is_orthonormal_at_round_off(a, seed):
    """The stacked rows of every E_ij are orthonormal, and each E_ij lies in the product of
    the Peirce half projections of c_i and c_j, to 1e-14; the triangular group reads its
    Frobenius parameters as coordinates in these rows."""
    rot = alg.random_automorphism_k(a, np.random.default_rng(seed))
    frame = alg.JordanFrame(tuple(rot.apply(c) for c in alg.standard_frame(a)))
    basis = peirce.build_peirce_basis(frame)
    rows = np.concatenate(list(basis.subspaces.values()))
    assert np.max(np.abs(a.inner_scale * rows @ rows.T - np.eye(a.dim))) <= 1e-14
    halves = [peirce.peirce_projectors(c)[0.5].matrix for c in frame]
    for (i, j), sub in basis.subspaces.items():
        if i < j:
            assert np.max(np.abs(sub - sub @ (halves[i] @ halves[j]).T)) <= 1e-14


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_multiplication_table(a, rng):
    if a.rank < 3:
        pytest.skip("needs three distinct frame indices")
    basis = peirce.build_peirce_basis(alg.standard_frame(a))
    for _ in range(10):
        i, j, k = sorted(rng.choice(a.rank, size=3, replace=False))
        x = alg.Element(a, rng.standard_normal(a.peirce_d) @ basis.subspaces[(i, j)])
        y = alg.Element(a, rng.standard_normal(a.peirce_d) @ basis.subspaces[(j, k)])
        prod = alg.jordan_product(x, y)
        outside = prod - ref.project(basis, prod, i, k)
        assert alg.norm(outside) < 1e-10


def test_norm_identities_example():
    a = alg.sym_real(3)
    frame = alg.standard_frame(a)
    x = alg.from_matrix(a, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0.0]]))
    y = alg.from_matrix(a, np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0.0]]))
    x_sq, xy, square, cross = ref.pair_identities(x, y, 0, 1, frame)
    assert_allclose(x_sq.to_matrix(), np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert alg.inner(xy, xy) == pytest.approx(0.5, abs=1e-12)
    assert square < 1e-12 and cross < 1e-12


def test_norm_identities_of_zero():
    a = alg.sym_real(3)
    z = alg.zero(a)
    x_sq, xy, square, cross = ref.pair_identities(z, z, 0, 1, alg.standard_frame(a))
    assert alg.norm(x_sq) == 0.0 and alg.inner(xy, xy) == 0.0
    assert square == 0.0 and cross == 0.0


@pytest.mark.parametrize("n", [0, 1, 200])
@pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
@pytest.mark.parametrize(
    "a",  # criterion 2's algebras, the top ranks and rank one
    [alg.sym_real(3), alg.herm_complex(2), alg.lorentz(4), alg.sym_real(8), alg.herm_complex(6), alg.lorentz(16),
     alg.sym_real(1)],
    ids=lambda a: a.name,
)
def test_batched_residuals_match_the_per_sample_loop(a, rotated, n):
    """The same generator calls in the same order as the Element loop, and the same residuals to 1e-14."""
    frame = alg.standard_frame(a)
    if rotated:
        rot = alg.random_automorphism_k(a, np.random.default_rng(42))
        frame = alg.JordanFrame(tuple(rot.apply(c) for c in frame))
    rng, rng_ref = np.random.default_rng(n + 11), np.random.default_rng(n + 11)
    got = peirce.peirce_identity_residuals(frame, n, rng)
    want = ref.peirce_identity_residuals_per_sample(frame, n, rng_ref)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-14, key
        assert got[key] <= 1e-12, key


@pytest.mark.parametrize(
    "product, failing",
    [
        (None, set()),
        (lambda a, x, y: 1.001 * alg.batch_jordan_product(a, x, y), {"square_identity", "cross_norm_identity"}),
        (lambda a, x, y: alg.batch_jordan_product(a, x, y) + 1e-6 * x, {"multiplication_table"}),
    ],
    ids=["intact", "scaled-product", "product-leaves-E_ik"],
)
def test_suite_peirce_flags_a_broken_jordan_product(monkeypatch, product, failing):
    """The shared identity residuals rise above the suite thresholds when the product is wrong."""
    if product is not None:
        monkeypatch.setattr(peirce, "batch_jordan_product", product)
    rng = np.random.default_rng(5)
    checks = cli.suite_peirce(alg.sym_real(3), None, rng, 40, cli.DEFAULT_TOLERANCES)
    failed = {name for name, check in checks.items() if not check["passed"]}
    assert failing <= failed
    if not failing:
        assert failed == set()


@pytest.mark.parametrize("a", [alg.sym_real(3), alg.herm_complex(2), alg.lorentz(4)], ids=lambda a: a.name)
def test_suite_peirce_constant_power_det_flags_scaled_eigenvalues(monkeypatch, a):
    """Eigenvalues scaled by 1.001 in every binding the suite reads break Delta_(p,..,p) = det^p."""
    def scaled(algebra, coords):
        return 1.001 * alg.batch_eigenvalues(algebra, coords)

    for module in (tri, cli):
        monkeypatch.setattr(module, "batch_eigenvalues", scaled)
    checks = cli.suite_peirce(a, None, np.random.default_rng(5), 40, cli.DEFAULT_TOLERANCES)
    assert not checks["constant_power_det"]["passed"]


def test_principal_minor_leading_minor_oracle(rng):
    a = alg.sym_real(3)
    frame = alg.standard_frame(a)
    for _ in range(20):
        x = alg.random_cone_element(a, rng, 0.2, 5.0)
        mat = x.to_matrix()
        for k in range(1, 4):
            want = np.linalg.det(mat[:k, :k])
            assert peirce.principal_minor(x, k, frame) == pytest.approx(want, rel=1e-9)


def test_principal_minor_examples(rng):
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    e = alg.identity(a)
    for k in (1, 2):
        assert peirce.principal_minor(e, k, frame) == pytest.approx(1.0)
    x = alg.from_matrix(a, np.array([[4.0, 2.0], [2.0, 2.0]]))
    assert peirce.principal_minor(x, 1, frame) == pytest.approx(4.0)
    assert peirce.principal_minor(x, 2, frame) == pytest.approx(4.0)
    # diagonal element in a random frame: minors are leading eigenvalue products
    b = alg.herm_complex(3)
    sd = alg.spectral_decompose(alg.random_cone_element(b, rng))
    frame_b = alg.JordanFrame(sd.frame)
    lam = rng.uniform(0.5, 2.0, size=3)
    x = alg.zero(b)
    for lam_i, c in zip(lam, frame_b):
        x = x + float(lam_i) * c
    for k in range(1, 4):
        assert peirce.principal_minor(x, k, frame_b) == pytest.approx(
            float(np.prod(lam[:k])), rel=1e-9
        )


def test_generalized_power_examples(rng):
    a = alg.sym_real(2)
    frame = alg.standard_frame(a)
    e = alg.identity(a)
    assert ref.generalized_power(e, (0.7, -0.3), frame) == pytest.approx(1.0)
    x = alg.from_matrix(a, np.diag([2.0, 5.0]))
    assert ref.generalized_power(x, (1.5, -0.5), frame) == pytest.approx(
        2.0**1.5 * 5.0**-0.5, rel=1e-12
    )
    y = alg.from_matrix(a, np.array([[4.0, 2.0], [2.0, 2.0]]))
    assert ref.generalized_power(y, (1.0, 2.0), frame) == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_generalized_power_properties(a, rng):
    frame = alg.standard_frame(a)
    for _ in range(10):
        x = alg.random_cone_element(a, rng, 0.2, 5.0)
        p = float(rng.uniform(-2.0, 2.0))
        const = peirce.PowerExponent.constant(p, a.rank)
        assert ref.generalized_power(x, const, frame) == pytest.approx(
            alg.determinant(x) ** p, rel=1e-10
        )
        s = rng.uniform(-1.5, 1.5, a.rank)
        lam = float(rng.uniform(0.3, 3.0))
        assert ref.generalized_power(lam * x, s, frame) == pytest.approx(
            lam ** float(np.sum(s)) * ref.generalized_power(x, s, frame), rel=1e-10
        )


@pytest.mark.parametrize("a", ALGEBRAS, ids=lambda a: a.name)
def test_per_row_exponents_match_one_exponent_calls(a, rng):
    frame = alg.standard_frame(a)
    x = alg.random_cone_points(a, 5, rng, 0.2, 5.0)
    s = rng.uniform(-1.5, 1.5, (5, a.rank))
    got = peirce.batch_generalized_power_log(frame, x, s)
    want = [peirce.batch_generalized_power_log(frame, xi[None], si)[0] for xi, si in zip(x, s)]
    assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    assert peirce.batch_generalized_power_log(frame, x[:0], s[:0]).shape == (0,)
    for bad in (s[:4], s[:, :-1]):
        with pytest.raises(ValidationError):
            peirce.batch_generalized_power_log(frame, x, bad)


@pytest.mark.parametrize("a", ALGEBRAS + [alg.sym_real(1)], ids=lambda a: a.name)
@pytest.mark.parametrize("negated", ["last", "all"])
def test_generalized_power_domain_error(a, negated, rng):
    """Outside the cone, with the last or every eigenvalue negative, every minor and power raises."""
    sd = alg.spectral_decompose(alg.random_cone_element(a, rng, 0.5, 2.0))
    lam = rng.uniform(0.5, 2.0, a.rank)
    lam[-1 if negated == "last" else slice(None)] *= -1.0
    x = alg.Element(a, lam @ np.array([c.coords for c in sd.frame]))
    frame = alg.standard_frame(a)
    s = np.ones(a.rank)
    for call in (
        lambda: peirce.principal_minor(x, a.rank, frame),
        lambda: peirce.principal_minors(frame, x.coords[None, :]),
        lambda: peirce.batch_generalized_power_log(frame, x.coords[None, :], s),
        lambda: peirce.generalized_power_log(x, s, frame),
    ):
        with pytest.raises(DomainError):
            call()


def test_power_exponent_validation():
    a = alg.sym_real(2)
    with pytest.raises(ValidationError):
        peirce.generalized_power_log(alg.identity(a), (1.0, 2.0, 3.0), alg.standard_frame(a))
